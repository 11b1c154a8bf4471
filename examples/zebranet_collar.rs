//! The ZebraNet/TigerCENSE scenario (§3.3): a wildlife collar that must not
//! leak an endangered animal's activity (and hence location cues) to
//! poachers sniffing near the base station, while surviving the deployment
//! on one battery.
//!
//! Demonstrates two extensions beyond the paper: online budget-feedback
//! sampling (no offline training data in the savanna) and battery-lifetime
//! accounting.
//!
//! ```text
//! cargo run --release --example zebranet_collar
//! ```

use age::attack::nmi;
use age::core::{target, AgeEncoder, Batch, BatchConfig, Encoder, StandardEncoder};
use age::crypto::{ChaCha20Poly1305, Cipher};
use age::datasets::{Dataset, DatasetKind, Scale};
use age::energy::{Battery, EncoderCost, EnergyModel, MilliJoules};
use age::sampling::FeedbackPolicy;

fn main() {
    println!("== Wildlife collar (Activity dataset as animal accelerometry) ==\n");
    let data = Dataset::generate(DatasetKind::Activity, Scale::Default, 7);
    let spec = *data.spec();
    let cfg = BatchConfig::new(spec.seq_len, spec.features, spec.format)
        .expect("Table 3 config is valid");
    let energy = EnergyModel::msp430();
    let cipher = ChaCha20Poly1305::new([0x5A; 32]); // authenticated link

    // No offline training in the field: the collar tunes its own threshold.
    let mut policy = FeedbackPolicy::new(0.5);

    let m_b = target::target_bytes(&cfg, 0.5);
    let plain = target::plaintext_budget(
        target::reduced_target_bytes(m_b),
        cipher.kind(),
        cipher.overhead(),
        16,
    );
    let age_encoder = AgeEncoder::new(plain);
    let std_encoder = StandardEncoder;

    let mut battery_std = Battery::from_mah(230.0, 3.0);
    let mut battery_age = Battery::from_mah(230.0, 3.0);
    let mut observations_std = Vec::new();
    let mut observations_age = Vec::new();

    for (i, seq) in data.sequences().iter().enumerate() {
        let indices = policy.sample_and_adapt(&seq.values, spec.features);
        let mut values = Vec::with_capacity(indices.len() * spec.features);
        for &t in &indices {
            values.extend_from_slice(&seq.values[t * spec.features..(t + 1) * spec.features]);
        }
        let k = indices.len();
        let batch = Batch::new(indices, values).expect("policy output is valid");

        let std_msg = cipher.seal(i as u64, &std_encoder.encode(&batch, &cfg).expect("fits"));
        let age_msg = cipher.seal(i as u64, &age_encoder.encode(&batch, &cfg).expect("fits"));
        observations_std.push((seq.label, std_msg.len()));
        observations_age.push((seq.label, age_msg.len()));

        battery_std.draw(energy.sequence_cost(
            k,
            k * spec.features,
            std_msg.len(),
            EncoderCost::Standard,
        ));
        battery_age.draw(energy.sequence_cost(
            k,
            k * spec.features,
            age_msg.len(),
            EncoderCost::Age,
        ));
    }

    println!(
        "collar self-tuned to a {:.1}% collection rate (target 50%)",
        policy.smoothed_rate() * 100.0
    );

    println!("\nleakage through authenticated message sizes:");
    println!(
        "  standard encoding: NMI {:.3}  (activity visible to poachers)",
        nmi(&observations_std)
    );
    println!("  AGE encoding:      NMI {:.3}", nmi(&observations_age));

    let n = data.sequences().len() as f64;
    let spent_std = battery_std
        .capacity()
        .saturating_sub(battery_std.remaining());
    let spent_age = battery_age
        .capacity()
        .saturating_sub(battery_age.remaining());
    let per_seq_std = MilliJoules(spent_std.0 / n);
    let per_seq_age = MilliJoules(spent_age.0 / n);
    println!("\nbattery outlook (230 mAh coin cell, one batch every 6 s):");
    println!(
        "  standard: {per_seq_std} per batch -> {:.1} h",
        Battery::from_mah(230.0, 3.0).lifetime_hours(per_seq_std, 6.0)
    );
    println!(
        "  AGE:      {per_seq_age} per batch -> {:.1} h",
        Battery::from_mah(230.0, 3.0).lifetime_hours(per_seq_age, 6.0)
    );
    println!("\nAGE protects the animal *and* outlasts the unprotected collar.");
}
