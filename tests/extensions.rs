//! Integration tests for the beyond-the-paper components: AEAD transport
//! links, MCU paths, the feedback policy, compression leakage, and
//! battery accounting — all working together.

use age::attack::{nmi, welch_t_test};
use age::core::mcu::RawBatch;
use age::core::{
    inspect_message, target, AgeEncoder, Batch, BatchConfig, DeltaCodec, EncodeScratch, Encoder,
};
use age::crypto::ChaCha20Poly1305;
use age::datasets::{read_sequences, write_sequences, Dataset, DatasetKind, Scale};
use age::energy::{Battery, EncoderCost, EnergyModel};
use age::reconstruct::interpolate;
use age::sampling::{FeedbackPolicy, LinearPolicy, Policy};
use age::sim::SweepCell;
use age::transport::{FaultPlan, Link, RetryPolicy};

#[test]
fn authenticated_pipeline_with_losses_and_battery() {
    let data = Dataset::generate(DatasetKind::Epilepsy, Scale::Small, 21);
    let spec = *data.spec();
    let d = spec.features;
    let cfg = BatchConfig::new(spec.seq_len, d, spec.format).unwrap();
    let plain = target::age_plaintext_bytes(&cfg, 0.6, age::crypto::CipherKind::Stream, 28);

    let policy = LinearPolicy::new(0.4);
    let encoder = AgeEncoder::new(plain);
    let mut link = Link::new(
        Box::new(ChaCha20Poly1305::new([0xEE; 32])),
        Box::new(ChaCha20Poly1305::new([0xEE; 32])),
        FaultPlan::drops(0.15, 4),
        RetryPolicy::none(),
    );
    let model = EnergyModel::msp430();
    let mut battery = Battery::from_mah(230.0, 3.0);

    let mut sizes = std::collections::HashSet::new();
    let mut received = 0usize;
    for seq in data.sequences() {
        let indices = policy.sample(&seq.values, d);
        let values = indices
            .iter()
            .flat_map(|&t| &seq.values[t * d..(t + 1) * d])
            .copied()
            .collect();
        let batch = Batch::new(indices, values).unwrap();
        let delivery = link.send(&encoder.encode(&batch, &cfg).unwrap());
        sizes.insert(delivery.frame_len);
        // cost uses real message size
        battery.draw(model.sequence_cost(20, 60, delivery.frame_len, EncoderCost::Age));
        for (_, payload) in delivery.payloads {
            let batch = encoder.decode(&payload, &cfg).unwrap();
            let recon = interpolate(batch.indices(), batch.values(), spec.seq_len, d);
            assert_eq!(recon.len(), seq.values.len());
            received += 1;
        }
    }
    assert_eq!(sizes.len(), 1, "AEAD framing must keep sizes constant");
    assert!(received > 0 && link.stats().messages_lost > 0);
    assert!(battery.fraction_remaining() > 0.9);
}

#[test]
fn mcu_paths_agree_with_float_paths_end_to_end() {
    // Integer policy + integer encoder vs float policy + float encoder.
    let data = Dataset::generate(DatasetKind::Activity, Scale::Small, 22);
    let spec = *data.spec();
    let cfg = BatchConfig::new(spec.seq_len, spec.features, spec.format).unwrap();
    let fmt = spec.format;
    let scale = f64::powi(2.0, i32::from(fmt.frac()));
    let threshold = 0.8;
    let float_policy = LinearPolicy::new(threshold);
    let encoder = AgeEncoder::new(200);
    let mut raw_scratch = EncodeScratch::default();
    let mut raw_message = Vec::new();

    for seq in data.sequences().iter().take(12) {
        let raw_values: Vec<i64> = seq
            .values
            .iter()
            .map(|&x| (x * scale).round() as i64)
            .collect();
        let f_idx = float_policy.sample(&seq.values, spec.features);
        let r_idx = float_policy.sample_raw(&raw_values, spec.features, fmt.frac());
        assert_eq!(f_idx, r_idx, "policy decisions must match");

        let mut collected = Vec::new();
        for &t in &f_idx {
            collected.extend_from_slice(&seq.values[t * spec.features..(t + 1) * spec.features]);
        }
        let batch = Batch::new(f_idx, collected).unwrap();
        let raw_batch = RawBatch::from_batch(&batch, &cfg);
        encoder
            .encode_samples(&raw_batch, &cfg, &mut raw_scratch, &mut raw_message)
            .unwrap();
        assert_eq!(
            encoder.encode(&batch, &cfg).unwrap(),
            raw_message,
            "messages must be bit-identical"
        );
    }
}

#[test]
fn feedback_policy_feeds_age_without_offline_fit() {
    let data = Dataset::generate(DatasetKind::Pavement, Scale::Small, 23);
    let spec = *data.spec();
    let cfg = BatchConfig::new(spec.seq_len, spec.features, spec.format).unwrap();
    let encoder = AgeEncoder::new(90);
    let mut policy = FeedbackPolicy::new(0.5);

    let mut sizes = std::collections::HashSet::new();
    for seq in data.sequences() {
        let indices = policy.sample_and_adapt(&seq.values, spec.features);
        let mut values = Vec::new();
        for &t in &indices {
            values.extend_from_slice(&seq.values[t * spec.features..(t + 1) * spec.features]);
        }
        let batch = Batch::new(indices, values).unwrap();
        sizes.insert(encoder.encode(&batch, &cfg).unwrap().len());
    }
    assert_eq!(sizes.len(), 1);
    assert!((policy.smoothed_rate() - 0.5).abs() < 0.25);
}

#[test]
fn compression_leaks_where_age_does_not() {
    let data = Dataset::generate(DatasetKind::Epilepsy, Scale::Small, 24);
    let spec = *data.spec();
    let cfg = BatchConfig::new(spec.seq_len, spec.features, spec.format).unwrap();
    let uniform = age::sampling::UniformPolicy::new(0.6);
    let age_enc = AgeEncoder::new(600);
    let delta = DeltaCodec;

    let mut labels = Vec::new();
    let mut delta_sizes = Vec::new();
    let mut age_sizes = Vec::new();
    for seq in data.sequences() {
        let indices = uniform.sample(&seq.values, spec.features);
        let mut values = Vec::new();
        for &t in &indices {
            values.extend_from_slice(&seq.values[t * spec.features..(t + 1) * spec.features]);
        }
        let batch = Batch::new(indices, values).unwrap();
        labels.push(seq.label);
        delta_sizes.push(delta.encode(&batch, &cfg).unwrap().len());
        age_sizes.push(age_enc.encode(&batch, &cfg).unwrap().len());
    }
    assert!(nmi(&labels, &delta_sizes) > 0.2, "delta codec must leak");
    assert_eq!(nmi(&labels, &age_sizes), 0.0, "AGE must not leak");
}

#[test]
fn welch_test_separates_leaky_size_distributions() {
    // Reproduce the §3.2 analysis end-to-end on generated data.
    let data = Dataset::generate(DatasetKind::Epilepsy, Scale::Small, 25);
    let spec = *data.spec();
    let cfg = BatchConfig::new(spec.seq_len, spec.features, spec.format).unwrap();
    let policy = LinearPolicy::new(0.5);
    let std_enc = age::core::StandardEncoder;

    let mut by_label: Vec<Vec<f64>> = vec![Vec::new(); spec.num_labels];
    for seq in data.sequences() {
        let indices = policy.sample(&seq.values, spec.features);
        let mut values = Vec::new();
        for &t in &indices {
            values.extend_from_slice(&seq.values[t * spec.features..(t + 1) * spec.features]);
        }
        let batch = Batch::new(indices, values).unwrap();
        by_label[seq.label].push(std_enc.encode(&batch, &cfg).unwrap().len() as f64);
    }
    // Seizure (0) vs walking (1) must separate significantly.
    let test = welch_t_test(&by_label[0], &by_label[1]).expect("both events present");
    assert!(test.significant(0.01), "p={}", test.p_two_sided);
}

#[test]
fn real_data_path_runs_the_full_experiment_suite() {
    // Export -> import -> Dataset::from_sequences -> Runner: the road a
    // user with real recordings takes to reproduce the paper's analysis.
    let generated = Dataset::generate(DatasetKind::Epilepsy, Scale::Small, 33);
    let spec = *generated.spec();
    let mut buffer = Vec::new();
    write_sequences(generated.sequences(), &mut buffer).unwrap();
    let loaded = read_sequences(buffer.as_slice(), spec.seq_len, spec.features).unwrap();
    let data = Dataset::from_sequences(DatasetKind::Epilepsy, loaded).unwrap();
    assert_eq!(data.sequences(), generated.sequences());

    let runner = age::sim::Runner::with_dataset(data, 33).unwrap();
    let res = runner.run(&SweepCell {
        enforce_budget: false,
        ..SweepCell::new(age::sim::PolicyKind::Linear, age::sim::Defense::Age, 0.6)
    });
    assert_eq!(res.nmi(), 0.0);
    assert!(!res.records.is_empty());

    // Shape validation catches mistakes loudly.
    let bad = vec![age::datasets::Sequence {
        label: 0,
        values: vec![0.0; 3],
    }];
    assert!(Dataset::from_sequences(DatasetKind::Epilepsy, bad).is_err());
    let bad_label = vec![age::datasets::Sequence {
        label: 99,
        values: vec![0.0; spec.seq_len * spec.features],
    }];
    assert!(Dataset::from_sequences(DatasetKind::Epilepsy, bad_label).is_err());
    assert!(Dataset::from_sequences(DatasetKind::Epilepsy, Vec::new()).is_err());
}

#[test]
fn csv_roundtrip_through_the_full_pipeline() {
    let data = Dataset::generate(DatasetKind::Strawberry, Scale::Small, 26);
    let spec = *data.spec();
    let mut buffer = Vec::new();
    write_sequences(data.sequences(), &mut buffer).unwrap();
    let loaded = read_sequences(buffer.as_slice(), spec.seq_len, spec.features).unwrap();

    let cfg = BatchConfig::new(spec.seq_len, spec.features, spec.format).unwrap();
    let encoder = AgeEncoder::new(160);
    let policy = LinearPolicy::new(0.1);
    for seq in &loaded {
        let indices = policy.sample(&seq.values, spec.features);
        let mut values = Vec::new();
        for &t in &indices {
            values.extend_from_slice(&seq.values[t * spec.features..(t + 1) * spec.features]);
        }
        let batch = Batch::new(indices, values).unwrap();
        let msg = encoder.encode(&batch, &cfg).unwrap();
        assert_eq!(msg.len(), 160);
        let layout = inspect_message(&msg, &cfg).unwrap();
        assert_eq!(layout.total_bytes, 160);
    }
}
