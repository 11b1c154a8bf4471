//! End-to-end simulator for the AGE evaluation (paper §5).
//!
//! The simulator mirrors the paper's setup: a sensor runs a sampling policy
//! over each sequence, encodes the collected batch (standard, padded, AGE,
//! or an ablation variant), encrypts it, and "transmits" it under an energy
//! budget; the server decrypts, decodes, and linearly interpolates; a
//! passive attacker records the message lengths. Budgets are set from
//! Uniform sampling's energy at collection rates 30%…100% (§5.1), and a
//! policy that exhausts its long-term budget loses all remaining sequences
//! (the server substitutes random values).
//!
//! [`Runner`] caches the generated dataset, fitted thresholds, and the
//! trained Skip RNN so a full table sweep does not refit per cell. Its one
//! entry point, [`Runner::run`], takes a [`SweepCell`] naming every
//! experiment axis; [`run_cells`] fans a grid of cells out over threads.
//!
//! # Examples
//!
//! ```
//! use age_datasets::{DatasetKind, Scale};
//! use age_sim::{Defense, PolicyKind, Runner, SweepCell};
//!
//! let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 42);
//! // Budget-enforced and ChaCha20-sealed; override any other axis with
//! // struct-update syntax, e.g. `SweepCell { limit: Some(10), ..cell }`.
//! let result = runner.run(&SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5));
//! // AGE: every transmitted message has the same size.
//! let sizes: Vec<usize> = result
//!     .records
//!     .iter()
//!     .filter(|r| !r.violated)
//!     .map(|r| r.message_bytes)
//!     .collect();
//! assert!(sizes.windows(2).all(|w| w[0] == w[1]));
//! ```

pub mod clock;
pub mod fleet;
pub mod monitor;
mod runner;
pub mod sweep;
pub mod threats;

pub use age_transport::{FaultPlan, NvmFaultPlan, RetryPolicy};
pub use clock::{ClockModel, VirtualClock};
pub use runner::{
    rekey_scenario, CipherChoice, Defense, ExperimentResult, FaultSetup, PolicyKind, PowerFaults,
    Runner, SequenceRecord, TransportSummary,
};
pub use sweep::{default_threads, par_map, run_cells, SweepCell};
pub use threats::{run_multi_event, MultiEventRun};
