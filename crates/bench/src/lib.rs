//! Experiment drivers regenerating every table and figure of the AGE paper.
//!
//! Each `table*`/`fig*` function runs the corresponding experiment on the
//! synthetic datasets and returns the formatted rows the paper reports.
//! The `repro` binary prints them (`cargo run -p age-bench --release --bin
//! repro -- all`); the Criterion benches time reduced-scale versions.
//!
//! Absolute values differ from the paper (synthetic data, modelled energy),
//! but the qualitative shape — who wins, where padding collapses, which
//! policies leak — reproduces. EXPERIMENTS.md records a measured run.

pub mod audit;
pub mod extensions;
pub mod harness;
pub mod report;

pub use extensions::{run_extension, EXTENSIONS};
pub use harness::Harness;
pub use report::{run_experiment, Settings, EXPERIMENTS, RATES};
