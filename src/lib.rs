//! # AGE — Adaptive Group Encoding
//!
//! A Rust reproduction of *Protecting Adaptive Sampling from Information
//! Leakage on Low-Power Sensors* (Kannan & Hoffmann, ASPLOS 2022).
//!
//! Adaptive sampling policies collect more measurements when the signal is
//! volatile, so the size of a sensor's batched (encrypted) messages tracks
//! the sensed event — a side-channel an eavesdropper can exploit without
//! breaking the encryption. AGE closes it by lossily encoding every batch
//! into a fixed-length message, using pruning, exponent-aware grouping, and
//! per-group fixed-point quantization, at negligible energy overhead.
//!
//! This facade re-exports the workspace crates:
//!
//! - `core` ([`age_core`]) — the AGE encoder, baselines, and ablation variants.
//! - `fixed` ([`age_fixed`]) — fixed-point formats and bit packing.
//! - `crypto` ([`age_crypto`]) — ChaCha20 and AES-128 with exact framing.
//! - `sampling` ([`age_sampling`]) — Uniform/Random/Linear/Deviation policies.
//! - `nn` ([`age_nn`]) — the trainable Skip RNN policy.
//! - `datasets` ([`age_datasets`]) — seeded synthetic Table 3 datasets.
//! - `energy` ([`age_energy`]) — the MSP430/BLE energy model and budgets.
//! - `reconstruct` ([`age_reconstruct`]) — interpolation and error metrics.
//! - `attack` ([`age_attack`]) — NMI, permutation tests, and the AdaBoost
//!   message-size attack.
//! - `sim` ([`age_sim`]) — the end-to-end experiment runner.
//! - `telemetry` ([`age_telemetry`]) — counters, per-batch records, sinks,
//!   and the deterministic PRNG (instrumentation is gated behind the
//!   `telemetry` cargo feature, on by default).
//! - `transport` ([`age_transport`]) — the framed, fault-tolerant
//!   sensor→server link: sealed fixed-size frames, replay window,
//!   deterministic fault injection, and retry/backoff.
//!
//! # Quickstart
//!
//! ```
//! use age::core::{AgeEncoder, Batch, BatchConfig, Encoder};
//! use age::fixed::Format;
//!
//! let cfg = BatchConfig::new(50, 6, Format::new(16, 13)?)?;
//! let encoder = AgeEncoder::new(220);
//! let batch = Batch::new(vec![0, 7, 20], vec![0.25; 18])?;
//! assert_eq!(encoder.encode(&batch, &cfg)?.len(), 220);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use age_attack as attack;
pub use age_core as core;
pub use age_crypto as crypto;
pub use age_datasets as datasets;
pub use age_energy as energy;
pub use age_fixed as fixed;
pub use age_nn as nn;
pub use age_reconstruct as reconstruct;
pub use age_sampling as sampling;
pub use age_sim as sim;
pub use age_telemetry as telemetry;
pub use age_transport as transport;

#[cfg(test)]
mod node;
