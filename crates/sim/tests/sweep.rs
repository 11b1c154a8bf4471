//! Determinism of the parallel sweep: identically seeded sweeps must be
//! byte-identical — experiment reports *and* telemetry rollups — no matter
//! how many worker threads ran them; the caller's sink reaches every
//! worker, and one thread means the calling thread.

mod common;

use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use age_datasets::{DatasetKind, Scale};
use age_sim::{run_cells, CipherChoice, Defense, ExperimentResult, PolicyKind, Runner, SweepCell};
use age_telemetry::{install_thread, BatchRecord, RecordingSink, Sink, SummarySink, WireRecord};
use common::ZeroTimings;

fn grid() -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for &rate in &[0.4, 0.7] {
        cells.push(SweepCell::new(PolicyKind::Uniform, Defense::Standard, rate));
        cells.push(SweepCell::new(PolicyKind::Linear, Defense::Age, rate));
        cells.push(SweepCell::new(PolicyKind::Linear, Defense::Standard, rate));
        cells.push(SweepCell::new(PolicyKind::Deviation, Defense::Age, rate));
        cells.push(SweepCell {
            cipher: CipherChoice::Aes128Cbc,
            ..SweepCell::new(PolicyKind::Deviation, Defense::Padded, rate)
        });
    }
    cells
}

fn sweep_at(threads: usize) -> (Vec<ExperimentResult>, String) {
    // A fresh runner per sweep: cold fit caches are part of what must not
    // depend on the thread count.
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let sink = Arc::new(SummarySink::new());
    // Stage timings are wall-clock and appear in the summary table; they
    // are the one legitimately non-deterministic field.
    let guard = install_thread(Arc::new(ZeroTimings(sink.clone())));
    let results = run_cells(&runner, &grid(), threads);
    drop(guard);
    (results, sink.take().to_string())
}

#[test]
fn reports_are_identical_across_thread_counts() {
    let (one, _) = sweep_at(1);
    let (four, _) = sweep_at(4);
    assert_eq!(one.len(), four.len());
    for (i, (a, b)) in one.iter().zip(&four).enumerate() {
        assert_eq!(a, b, "cell #{i} diverged between 1 and 4 threads");
    }
    // Belt and braces: the Debug serialization (every float bit) matches.
    assert_eq!(format!("{one:?}"), format!("{four:?}"));
}

#[test]
fn telemetry_rollups_are_identical_across_thread_counts() {
    let (_, one) = sweep_at(1);
    let (_, four) = sweep_at(4);
    assert!(!one.is_empty(), "sweep produced an empty telemetry summary");
    assert_eq!(one, four, "summary rollups diverged between thread counts");
}

/// Notes the thread every batch and wire record arrives on.
#[derive(Default)]
struct ThreadLog(Mutex<Vec<ThreadId>>);

impl ThreadLog {
    fn threads(&self) -> Vec<ThreadId> {
        self.0.lock().unwrap().clone()
    }

    fn note(&self) {
        self.0.lock().unwrap().push(thread::current().id());
    }
}

impl Sink for ThreadLog {
    fn record_batch(&self, _record: &BatchRecord) {
        self.note();
    }

    fn record_wire(&self, _record: &WireRecord) {
        self.note();
    }
}

#[test]
fn one_thread_runs_every_cell_on_the_calling_thread() {
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let log = Arc::new(ThreadLog::default());
    let guard = install_thread(log.clone());
    run_cells(&runner, &grid()[..3], 1);
    drop(guard);
    let threads = log.threads();
    assert!(!threads.is_empty(), "the cells sealed no frames");
    assert!(
        threads.iter().all(|&id| id == thread::current().id()),
        "a one-thread sweep left the calling thread"
    );
}

/// Every batch and wire record one sweep hands the caller's sink, as
/// sorted JSON lines, plus the threads they arrived on.
fn records_at(threads: usize) -> (Vec<String>, Vec<ThreadId>) {
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let records = Arc::new(RecordingSink::new());
    let log = Arc::new(ThreadLog::default());
    let fan = age_telemetry::FanoutSink(vec![Arc::new(ZeroTimings(records.clone())), log.clone()]);
    let guard = install_thread(Arc::new(fan));
    run_cells(&runner, &grid(), threads);
    drop(guard);
    let mut lines: Vec<String> = records.records().iter().map(BatchRecord::to_json).collect();
    lines.extend(records.wire_records().iter().map(WireRecord::to_json));
    lines.sort_unstable();
    (lines, log.threads())
}

#[test]
fn the_callers_sink_sees_the_same_records_at_one_and_four_threads() {
    let (one, one_threads) = records_at(1);
    let (four, four_threads) = records_at(4);
    assert!(one
        .iter()
        .any(|line| line.starts_with("{\"kind\":\"wire\"")));
    if cfg!(feature = "telemetry") {
        assert!(one.iter().any(|line| line.starts_with("{\"encoder\":")));
    }
    assert_eq!(one, four, "the records depend on the thread count");
    let caller = thread::current().id();
    assert!(one_threads.iter().all(|&id| id == caller));
    assert!(
        four_threads.iter().all(|&id| id != caller),
        "four workers ran the cells, not the caller"
    );
}
