//! Bring your own recordings: load sequences from CSV, size the AGE
//! encoder, and run the sensor/server pipeline with leakage checks.
//!
//! This example writes a small demo CSV to a temp directory first so it
//! runs self-contained; point `csv_path` at your own file with rows of
//! `label,v0,v1,…` (one sequence per row) to use real data.
//!
//! ```text
//! cargo run --release --example custom_data
//! ```

use age::attack::nmi;
use age::core::{inspect_message, target, AgeEncoder, Batch, BatchConfig, Encoder};
use age::crypto::{ChaCha20, Cipher};
use age::datasets::{read_sequences, write_sequences, Dataset, DatasetKind, Scale};
use age::fixed::Format;
use age::reconstruct::{interpolate, mae};
use age::sampling::{LinearPolicy, Policy};
use age::transport::{FaultPlan, Link, RetryPolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Stand-in for "your data": export a generated set to CSV. ---
    let demo = Dataset::generate(DatasetKind::Pavement, Scale::Small, 9);
    let spec = *demo.spec();
    let csv_path = std::env::temp_dir().join("age_custom_data.csv");
    write_sequences(demo.sequences(), std::fs::File::create(&csv_path)?)?;
    println!("wrote demo data to {}", csv_path.display());

    // --- From here on: exactly what you would do with your own CSV. ---
    let (seq_len, features) = (spec.seq_len, spec.features);
    let file = std::io::BufReader::new(std::fs::File::open(&csv_path)?);
    let sequences = read_sequences(file, seq_len, features)?;
    println!(
        "loaded {} sequences of {seq_len}x{features} values",
        sequences.len()
    );

    // Describe your fixed-point format (here: 16 bits, 10 fractional).
    let cfg = BatchConfig::new(seq_len, features, Format::new(16, 10)?)?;

    // Size the fixed message for a 60% collection-rate budget.
    let key = [0xC0; 32];
    let cipher = ChaCha20::new(key);
    let plain = target::age_plaintext_bytes(&cfg, 0.6, cipher.kind(), cipher.overhead());
    println!(
        "AGE target: {plain} bytes plaintext ({} bytes on air)",
        cipher.message_len(plain)
    );

    // Sensor and server ends of one sealed session over a link that drops
    // 5% of frames, with no retransmissions.
    let policy = LinearPolicy::new(2.0);
    let encoder = AgeEncoder::new(plain);
    let mut link = Link::new(
        Box::new(cipher),
        Box::new(ChaCha20::new(key)),
        FaultPlan::drops(0.05, 1),
        RetryPolicy::none(),
    );

    let mut observations = Vec::new();
    let mut total_mae = 0.0;
    let mut received = 0usize;
    for seq in &sequences {
        let indices = policy.sample(&seq.values, features);
        let values = indices
            .iter()
            .flat_map(|&t| &seq.values[t * features..(t + 1) * features])
            .copied()
            .collect();
        let delivery = link.send(&encoder.encode(&Batch::new(indices, values)?, &cfg)?);
        observations.push((seq.label, delivery.frame_len));
        for (_, payload) in delivery.payloads {
            let batch = encoder.decode(&payload, &cfg)?;
            let recon = interpolate(batch.indices(), batch.values(), seq_len, features);
            total_mae += mae(&recon, &seq.values);
            received += 1;
        }
    }

    println!(
        "\nlink: {} delivered, {} dropped; mean reconstruction MAE {:.4}",
        link.stats().frames_delivered,
        link.stats().messages_lost,
        total_mae / received.max(1) as f64
    );
    println!(
        "NMI(size, label) = {:.3}  (0.000 = nothing for an eavesdropper)",
        nmi(&observations)
    );

    // Peek inside one message to see where the bits went.
    let one = AgeEncoder::new(plain).encode(
        &Batch::new(
            (0..seq_len / 2).map(|i| i * 2).collect(),
            sequences[0]
                .values
                .chunks(features)
                .step_by(2)
                .flatten()
                .copied()
                .collect(),
        )?,
        &cfg,
    )?;
    println!("\nmessage layout:\n{}", inspect_message(&one, &cfg)?);
    std::fs::remove_file(&csv_path).ok();
    Ok(())
}
