//! Parallel, deterministic execution of experiment grids.
//!
//! A full table sweep is embarrassingly parallel: each (policy, defense,
//! rate, cipher) cell is an independent [`Runner::run`] call over an
//! immutable dataset. [`par_map`] is the workspace's one sweep pool: scoped
//! threads pulling item indices off one shared [`AtomicUsize`] cursor,
//! results merged **by index**, so the output order (and content) is
//! byte-identical no matter how many threads ran or how they interleaved.
//! [`run_cells`] maps it over a grid of [`SweepCell`]s.
//!
//! Determinism holds because:
//!
//! - every cell's simulation is seeded from the runner, never from thread
//!   identity or wall clock;
//! - the runner's fit caches converge to the same values under any
//!   interleaving (fits are deterministic; see [`Runner`]);
//! - each cell's run stamps its telemetry records (stream label, batch
//!   number) from its own encode scratch, so record numbering is a pure
//!   function of the cell, not of which worker ran it.
//!
//! Telemetry follows the caller: each worker installs the sink that was
//! current on the calling thread ([`age_telemetry::current_sink`]), and at
//! one thread the items run on the calling thread itself.

use std::sync::atomic::{AtomicUsize, Ordering};

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

/// The machine's available parallelism (1 if it cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` scoped workers (`0` means
/// [`default_threads`]) and returns the results in item order. Each worker
/// installs the caller's current telemetry sink; with one worker (or one
/// item) everything runs on the calling thread and no thread is spawned.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = match threads {
        0 => default_threads(),
        n => n,
    }
    .min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let sink = age_telemetry::current_sink();
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (cursor, sink, f) = (&cursor, sink.clone(), &f);
                scope.spawn(move || {
                    let _guard = sink.map(age_telemetry::install_thread);
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, result) in handle.join().expect("sweep workers do not panic") {
                slots[i] = Some(result);
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.expect("every item index was claimed exactly once"))
        .collect()
}

/// Runs every cell of `cells` against `runner` on up to `threads` workers
/// (see [`par_map`]) and returns the results in cell order. Identically
/// seeded runs produce identical results at any thread count.
pub fn run_cells(runner: &Runner, cells: &[SweepCell], threads: usize) -> Vec<ExperimentResult> {
    par_map(cells, threads, |cell| runner.run(cell))
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
        let results = run_cells(&runner, &cells, 0);
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
        let swept = run_cells(&runner, &cells, 2);
        for (cell, result) in cells.iter().zip(&swept) {
            assert_eq!(*result, runner.run(cell));
        }
    }

    #[test]
    fn empty_grid_is_fine() {
        let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
        assert!(run_cells(&runner, &[], 0).is_empty());
    }
}
