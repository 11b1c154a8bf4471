//! Rekey-under-fire acceptance tests: the single-link ratchet scenario —
//! forced epoch rotations layered over drops, corruption, and brownout
//! resets — must stay nonce-clean, keep the wire byte-constant through
//! every epoch boundary, and remain byte-identical at any thread count.

use std::sync::Arc;

use age_sim::{rekey_scenario, run_cells, CipherChoice, Defense, PolicyKind, Runner, SweepCell};
use age_telemetry::{install_thread, LeakageSink, NonceAuditSink};

/// Small against the ~34-frame Small-scale test split so the link crosses
/// several epoch boundaries; a journal-block brownout can skip a whole
/// epoch, merging two crossings into one rotation event.
const INTERVAL: u64 = 8;

fn runner(seed: u64) -> Runner {
    Runner::new(
        age_datasets::DatasetKind::Epilepsy,
        age_datasets::Scale::Small,
        seed,
    )
}

fn rekey_cells(reset_rate: f64, seed: u64) -> Vec<SweepCell> {
    [Defense::Standard, Defense::Age]
        .iter()
        .map(|&defense| {
            let mut cell = SweepCell::new(PolicyKind::Linear, defense, 0.6);
            cell.cipher = CipherChoice::ChaCha20Poly1305;
            cell.enforce_budget = false;
            cell.limit = Some(80);
            cell.faults = Some(rekey_scenario(INTERVAL, reset_rate, seed));
            cell
        })
        .collect()
}

/// The headline property: a ratcheting link that rotates every
/// [`INTERVAL`] frames while the channel drops, corrupts, and the sensor
/// browns out still never reuses a (key, nonce) pair, and the receiver
/// follows every epoch step.
#[test]
fn rekey_under_fire_rotates_and_stays_nonce_clean() {
    let runner = runner(19);
    let sink = Arc::new(NonceAuditSink::new());
    let guard = install_thread(sink.clone());
    let results = run_cells(&runner, &rekey_cells(0.1, 19), 2);
    drop(guard);
    let audit = sink.take();
    assert!(audit.frames() > 0);
    assert!(audit.is_clean(), "{audit}");
    // Each run audits its frames per key epoch, so a rotating run must
    // count more epochs than there are cells.
    assert!(
        audit.epochs() > results.len(),
        "rotation refinement missing: {} epochs over {} cells",
        audit.epochs(),
        results.len()
    );
    let mut reboots = 0;
    for result in &results {
        let transport = result.transport.expect("faulted run has a transport");
        assert!(
            transport.link.rotations >= 2,
            "a Small-scale run at interval {INTERVAL} must rotate repeatedly"
        );
        reboots += transport.link.sensor_reboots;
    }
    assert!(reboots > 0, "the schedule must actually cut power");
}

/// Thread-count independence carries over to rekeying sweeps: results and
/// the merged nonce audit are byte-identical at 1 and 4 threads.
#[test]
fn rekey_sweeps_are_byte_identical_across_thread_counts() {
    let runner = runner(23);
    let cells = rekey_cells(0.06, 23);
    let sweep = |threads: usize| {
        let sink = Arc::new(NonceAuditSink::new());
        let guard = install_thread(sink.clone());
        let results = run_cells(&runner, &cells, threads);
        drop(guard);
        (results, sink.take())
    };
    let (single, single_audit) = sweep(1);
    let (quad, quad_audit) = sweep(4);
    assert_eq!(single, quad, "results must not depend on the thread count");
    assert_eq!(quad_audit, single_audit, "merged audit must match too");
    assert!(single_audit.is_clean(), "{single_audit}");
}

/// Nonce uniqueness is audited per run, so sweeping the same cells twice in
/// one process gives the same audit both times: there is no process-wide
/// run numbering to rewind between them.
#[test]
fn rerunning_a_sweep_in_one_process_repeats_its_nonce_audit() {
    let runner = runner(31);
    let cells = rekey_cells(0.06, 31);
    let audit = || {
        let sink = Arc::new(NonceAuditSink::new());
        let guard = install_thread(sink.clone());
        run_cells(&runner, &cells, 2);
        drop(guard);
        sink.take()
    };
    let first = audit();
    let second = audit();
    assert!(first.frames() > 0);
    assert!(first.is_clean(), "{first}");
    assert_eq!(first, second, "a rerun must audit to the same totals");
}

/// The leakage gate stays green while the key material moves: every AGE
/// frame is the same size on the wire regardless of which epoch sealed it,
/// so the size channel's NMI is exactly zero.
#[test]
fn leakage_stays_zero_across_epoch_boundaries() {
    let runner = runner(29);
    let sink = Arc::new(LeakageSink::new());
    let guard = install_thread(sink.clone());
    let cells = rekey_cells(0.04, 29);
    let results = run_cells(&runner, &cells, 2);
    drop(guard);
    // Index 1 is the AGE cell; the Standard baseline varies by design.
    let age = results[1].transport.expect("faulted run has a transport");
    assert!(
        age.channel.wire_lengths_constant(),
        "an epoch boundary changed the wire-frame size"
    );
    let report = sink.take().report(50, 7);
    let defended: Vec<_> = report
        .entries
        .iter()
        .filter(|e| e.encoder == "AGE")
        .collect();
    assert!(!defended.is_empty());
    for e in &defended {
        assert_eq!(e.distinct_sizes, 1, "{} varied while rekeying", e.label);
        assert_eq!(e.nmi, 0.0, "{} leaked while rekeying", e.label);
    }
}
