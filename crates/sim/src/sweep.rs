//! Parallel, deterministic execution of experiment grids.
//!
//! A full table sweep is embarrassingly parallel: each (policy, defense,
//! rate, cipher) cell is an independent [`Runner::run`] call over an
//! immutable dataset. This module fans a grid of [`SweepCell`]s out over a
//! small work-stealing pool — scoped threads pulling cell indices off one
//! shared [`AtomicUsize`] cursor — and merges the results **by cell index**,
//! so the output order (and content) is byte-identical no matter how many
//! threads ran or how they interleaved.
//!
//! Determinism holds because:
//!
//! - every cell's simulation is seeded from the runner, never from thread
//!   identity or wall clock;
//! - the runner's fit caches converge to the same values under any
//!   interleaving (fits are deterministic; see [`Runner`]);
//! - each cell's run stamps its telemetry records (stream label, batch
//!   number) from its own encode scratch, so record numbering is a pure
//!   function of the cell, not of which worker ran it; the workers only
//!   scope the sink and the timing switch to the sweep.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use age_telemetry::Sink;

use crate::runner::{CipherChoice, Defense, ExperimentResult, FaultSetup, PolicyKind, Runner};

/// One experiment cell: every axis of a [`Runner::run`] call. Build one
/// with [`SweepCell::new`] and override the other axes with struct-update
/// syntax (`SweepCell { enforce_budget: false, ..SweepCell::new(p, d, r) }`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCell {
    /// Sampling policy to run.
    pub policy: PolicyKind,
    /// Message-size defense to apply.
    pub defense: Defense,
    /// Budget collection rate.
    pub rate: f64,
    /// Cipher sealing the messages.
    pub cipher: CipherChoice,
    /// Whether the long-term energy budget is enforced.
    pub enforce_budget: bool,
    /// Optional cap on evaluated test sequences.
    pub limit: Option<usize>,
    /// Optional fault-injected transport; `None` is the plain seal/open
    /// path. Each cell's fault stream is re-seeded from the cell identity,
    /// so results stay byte-identical at any thread count.
    pub faults: Option<FaultSetup>,
}

impl SweepCell {
    /// A budget-enforced, ChaCha20-sealed, uncapped cell — the common case
    /// for the paper's tables.
    pub fn new(policy: PolicyKind, defense: Defense, rate: f64) -> Self {
        SweepCell {
            policy,
            defense,
            rate,
            cipher: CipherChoice::ChaCha20,
            enforce_budget: true,
            limit: None,
            faults: None,
        }
    }

    /// Routes the cell's messages through the fault-injected transport.
    pub fn with_faults(mut self, faults: FaultSetup) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// How [`run_cells`] schedules and observes a sweep.
#[derive(Default)]
pub struct SweepOptions {
    /// Worker threads; `0` means [`default_threads`]. The thread count never
    /// affects results, only wall-clock time.
    pub threads: usize,
    /// Telemetry sink installed thread-locally on every worker. The sink is
    /// shared, so it must tolerate concurrent `record_batch` calls (all
    /// provided sinks do); aggregate sinks like `SummarySink` roll up
    /// order-insensitively.
    pub sink: Option<Arc<dyn Sink>>,
    /// Disables wall-clock stage timings on the workers, making telemetry
    /// records identical across reruns (the determinism tests set this).
    pub deterministic_timings: bool,
}

impl std::fmt::Debug for SweepOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepOptions")
            .field("threads", &self.threads)
            .field("sink", &self.sink.as_ref().map(|_| ".."))
            .field("deterministic_timings", &self.deterministic_timings)
            .finish()
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs every cell of `cells` against `runner` and returns the results in
/// cell order. Identically seeded runs produce identical results at any
/// thread count.
pub fn run_cells(
    runner: &Runner,
    cells: &[SweepCell],
    opts: &SweepOptions,
) -> Vec<ExperimentResult> {
    let threads = match opts.threads {
        0 => default_threads(),
        n => n,
    }
    .min(cells.len().max(1));

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<ExperimentResult>> = Vec::new();
    slots.resize_with(cells.len(), || None);

    // Workers are spawned even for threads == 1, only to scope the sink
    // and the timing switch to the sweep: each installs them on its own
    // thread and both go when it exits. Stream labels and batch numbers
    // need no fresh thread, since each cell's run stamps its records from
    // its own encode scratch.
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            let sink = opts.sink.clone();
            let quiet = opts.deterministic_timings;
            handles.push(scope.spawn(move || {
                let _guard = sink.map(age_telemetry::install_thread);
                if quiet {
                    age_telemetry::set_timings_enabled(false);
                }
                let mut done: Vec<(usize, ExperimentResult)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(cell) = cells.get(i) else { break };
                    done.push((i, runner.run(cell)));
                }
                done
            }));
        }
        for handle in handles {
            for (i, result) in handle.join().expect("sweep workers do not panic") {
                slots[i] = Some(result);
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.expect("every cell index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use age_datasets::{DatasetKind, Scale};

    #[test]
    fn results_come_back_in_cell_order() {
        let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
        let cells = [
            SweepCell::new(PolicyKind::Uniform, Defense::Standard, 0.5),
            SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5),
            SweepCell::new(PolicyKind::Uniform, Defense::Standard, 0.7),
        ];
        let results = run_cells(&runner, &cells, &SweepOptions::default());
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].policy, "Uniform");
        assert_eq!(results[0].rate, 0.5);
        assert_eq!(results[1].defense, "AGE");
        assert_eq!(results[2].rate, 0.7);
    }

    #[test]
    fn parallel_matches_sequential_run_calls() {
        let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
        let cells = [
            SweepCell::new(PolicyKind::Linear, Defense::Age, 0.4),
            SweepCell::new(PolicyKind::Linear, Defense::Standard, 0.4),
        ];
        let swept = run_cells(
            &runner,
            &cells,
            &SweepOptions {
                threads: 2,
                ..Default::default()
            },
        );
        for (cell, result) in cells.iter().zip(&swept) {
            assert_eq!(*result, runner.run(cell));
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
        assert!(run_cells(&runner, &[], &SweepOptions::default()).is_empty());
    }
}
