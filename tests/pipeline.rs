//! Cross-crate integration tests: the full sensor → attacker pipeline.

use age::attack::{nmi, ClassifierAttack};
use age::core::{AgeEncoder, Batch, BatchConfig, Encoder, PaddedEncoder, StandardEncoder};
use age::crypto::{AesCbc, ChaCha20, Cipher};
use age::datasets::{Dataset, DatasetKind, Scale};
use age::fixed::Format;
use age::reconstruct::{interpolate, mae};
use age::sampling::{DeviationPolicy, LinearPolicy, Policy, UniformPolicy};
use age::sim::{Defense, PolicyKind, Runner, SweepCell};

/// Builds a batch by running a policy over a dataset sequence.
fn sample_batch(policy: &dyn Policy, values: &[f64], d: usize) -> Batch {
    Batch::gather(policy.sample(values, d), values, d).expect("policy output is valid")
}

#[test]
fn sensor_to_server_roundtrip_with_encryption() {
    let data = Dataset::generate(DatasetKind::Activity, Scale::Small, 5);
    let spec = *data.spec();
    let cfg = BatchConfig::new(spec.seq_len, spec.features, spec.format).unwrap();
    let policy = LinearPolicy::new(0.2);
    let encoder = AgeEncoder::new(260);
    let cipher = ChaCha20::new([9; 32]);

    for (i, seq) in data.sequences().iter().take(10).enumerate() {
        let batch = sample_batch(&policy, &seq.values, spec.features);
        let plaintext = encoder.encode(&batch, &cfg).unwrap();
        let sealed = cipher.seal(i as u64, &plaintext);
        assert_eq!(sealed.len(), 260 + 12, "fixed size through encryption");

        let opened = cipher.open(&sealed).unwrap();
        let decoded = encoder.decode(&opened, &cfg).unwrap();
        let recon = interpolate(
            decoded.indices(),
            decoded.values(),
            spec.seq_len,
            spec.features,
        );
        let err = mae(&recon, &seq.values);
        assert!(err.is_finite());
        // Reconstruction error is bounded by the format range.
        assert!(err < spec.format.max_value() - spec.format.min_value());
    }
}

#[test]
fn adaptive_sampling_beats_uniform_on_volatile_data() {
    let data = Dataset::generate(DatasetKind::Epilepsy, Scale::Small, 6);
    let spec = *data.spec();
    let d = spec.features;
    let mut uniform_err = 0.0;
    let mut adaptive_err = 0.0;
    let mut adaptive_total = 0usize;
    let mut uniform_total = 0usize;
    let uniform = UniformPolicy::new(0.5);
    // Fit the adaptive threshold to the same 50% average rate.
    let train: Vec<&[f64]> = data
        .sequences()
        .iter()
        .map(|s| s.values.as_slice())
        .collect();
    let thr = age::sampling::fit_threshold(LinearPolicy::new, &train, d, 0.5, 8.0, 20);
    let adaptive = LinearPolicy::new(thr);
    for seq in data.sequences() {
        for (policy, err, total) in [
            (
                &uniform as &dyn Policy,
                &mut uniform_err,
                &mut uniform_total,
            ),
            (
                &adaptive as &dyn Policy,
                &mut adaptive_err,
                &mut adaptive_total,
            ),
        ] {
            let batch = sample_batch(policy, &seq.values, d);
            *total += batch.len();
            let recon = interpolate(batch.indices(), batch.values(), spec.seq_len, d);
            *err += mae(&recon, &seq.values);
        }
    }
    // The adaptive policy spends its samples where the signal moves: at a
    // comparable overall rate it must reconstruct better.
    let ratio = adaptive_total as f64 / uniform_total as f64;
    assert!(ratio < 1.25, "adaptive used {ratio:.2}x the samples");
    assert!(
        adaptive_err < uniform_err,
        "adaptive {adaptive_err} should beat uniform {uniform_err}"
    );
}

#[test]
fn message_sizes_leak_through_standard_encoding_but_not_age() {
    let data = Dataset::generate(DatasetKind::Epilepsy, Scale::Small, 7);
    let spec = *data.spec();
    let cfg = BatchConfig::new(spec.seq_len, spec.features, spec.format).unwrap();
    let policy = DeviationPolicy::new(0.05);
    let standard = StandardEncoder;
    let age = AgeEncoder::new(400);
    let cipher = ChaCha20::new([1; 32]);

    let mut std_obs = Vec::new();
    let mut age_obs = Vec::new();
    for (i, seq) in data.sequences().iter().enumerate() {
        let batch = sample_batch(&policy, &seq.values, spec.features);
        std_obs.push((
            seq.label,
            cipher
                .seal(i as u64, &standard.encode(&batch, &cfg).unwrap())
                .len(),
        ));
        age_obs.push((
            seq.label,
            cipher
                .seal(i as u64, &age.encode(&batch, &cfg).unwrap())
                .len(),
        ));
    }
    assert!(nmi(&std_obs) > 0.1, "standard must leak");
    assert_eq!(nmi(&age_obs), 0.0, "AGE must not leak");
}

#[test]
fn block_cipher_padding_is_content_independent() {
    let cfg = BatchConfig::new(50, 6, Format::new(16, 13).unwrap()).unwrap();
    let encoder = AgeEncoder::new(220);
    let cipher = AesCbc::new([3; 16]);
    let mut lengths = std::collections::HashSet::new();
    for k in [1usize, 10, 25, 50] {
        let batch = Batch::new(
            (0..k).collect(),
            (0..k * 6).map(|i| (i as f64 * 0.11).sin()).collect(),
        )
        .unwrap();
        let sealed = cipher.seal(k as u64, &encoder.encode(&batch, &cfg).unwrap());
        lengths.insert(sealed.len());
    }
    assert_eq!(
        lengths.len(),
        1,
        "AES-CBC framing must not reintroduce variance"
    );
}

#[test]
fn padded_defense_matches_age_security_at_higher_cost() {
    let data = Dataset::generate(DatasetKind::Pavement, Scale::Small, 8);
    let spec = *data.spec();
    let cfg = BatchConfig::new(spec.seq_len, spec.features, spec.format).unwrap();
    let policy = LinearPolicy::new(1.0);
    let padded = PaddedEncoder::for_config(&cfg);
    let age = AgeEncoder::new(80);

    let mut padded_bytes = 0usize;
    let mut age_bytes = 0usize;
    let mut padded_obs = Vec::new();
    for seq in data.sequences() {
        let batch = sample_batch(&policy, &seq.values, spec.features);
        let p = padded.encode(&batch, &cfg).unwrap();
        let a = age.encode(&batch, &cfg).unwrap();
        padded_bytes += p.len();
        age_bytes += a.len();
        padded_obs.push((seq.label, p.len()));
    }
    assert_eq!(nmi(&padded_obs), 0.0, "padding is leak-free");
    assert!(
        padded_bytes > 2 * age_bytes,
        "padding should cost far more bytes ({padded_bytes} vs {age_bytes})"
    );
}

#[test]
fn end_to_end_attack_reproduces_the_papers_story() {
    // Epilepsy + Linear: the §5.4 worst case. Standard leaks enough for the
    // attack to beat blind guessing; AGE forces it back down.
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 99);
    let attack = ClassifierAttack {
        total_samples: 800,
        n_estimators: 20,
        ..Default::default()
    };

    let leaky = runner.run(&SweepCell {
        enforce_budget: false,
        ..SweepCell::new(PolicyKind::Linear, Defense::Standard, 0.7)
    });
    let leaky_outcome = attack.run(&leaky.observations());
    assert!(
        leaky_outcome.mean_accuracy() > leaky_outcome.baseline + 0.15,
        "attack should beat baseline: {} vs {}",
        leaky_outcome.mean_accuracy(),
        leaky_outcome.baseline
    );

    let defended = runner.run(&SweepCell {
        enforce_budget: false,
        ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.7)
    });
    let defended_outcome = attack.run(&defended.observations());
    assert!(
        (defended_outcome.mean_accuracy() - defended_outcome.baseline).abs() < 0.05,
        "AGE should reduce the attack to the baseline: {} vs {}",
        defended_outcome.mean_accuracy(),
        defended_outcome.baseline
    );
}

#[test]
fn all_nine_datasets_run_through_the_pipeline() {
    for kind in DatasetKind::all() {
        let runner = Runner::new(kind, Scale::Small, 3);
        let res = runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5)
        });
        assert!(!res.records.is_empty(), "{kind}");
        assert_eq!(res.nmi(), 0.0, "{kind}: AGE must not leak");
        assert!(res.mean_mae().is_finite(), "{kind}");
        let sizes: std::collections::HashSet<usize> =
            res.observations().iter().map(|&(_, s)| s).collect();
        assert_eq!(sizes.len(), 1, "{kind}: AGE sizes must be constant");
    }
}
