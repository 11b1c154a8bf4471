//! Integration tests for the leakage-audit layer: the runner's wire-record
//! emission, thread-count determinism of merged audit state, the
//! Standard-leaks/AGE-doesn't fixture, and the sealed-frame cross-check
//! against the transport.

use std::sync::Arc;

use age_datasets::{DatasetKind, Scale};
use age_sim::{run_cells, Defense, FaultPlan, FaultSetup, PolicyKind, Runner, SweepCell};
use age_telemetry::{install_thread, LeakageSink, RecordingSink};

fn runner() -> Runner {
    Runner::new(DatasetKind::Epilepsy, Scale::Small, 7)
}

/// The grid audited by the determinism tests: both adaptive policies, the
/// leaky baseline plus both headline defenses, two rates, and one
/// fault-injected cell so the transport path is covered too.
fn grid() -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for policy in [PolicyKind::Linear, PolicyKind::Deviation] {
        for defense in [Defense::Standard, Defense::Padded, Defense::Age] {
            for rate in [0.4, 0.6] {
                let mut cell = SweepCell::new(policy, defense, rate);
                cell.enforce_budget = false;
                cells.push(cell);
            }
        }
    }
    cells.push(
        SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5).with_faults(FaultSetup::new(
            FaultPlan {
                drop_rate: 0.1,
                corrupt_rate: 0.05,
                ..FaultPlan::default()
            },
        )),
    );
    cells
}

fn audit_json(threads: usize) -> String {
    let sink = Arc::new(LeakageSink::new());
    let guard = install_thread(sink.clone());
    run_cells(&runner(), &grid(), threads);
    drop(guard);
    sink.take().report(50, 7).to_json()
}

#[test]
fn audit_state_is_byte_identical_across_thread_counts() {
    let single = audit_json(1);
    let quad = audit_json(4);
    assert!(!single.is_empty());
    assert_eq!(
        single, quad,
        "merged audit reports must not depend on the thread count"
    );
}

#[test]
fn standard_leaks_and_age_does_not_on_the_same_seeded_data() {
    let sink = Arc::new(LeakageSink::new());
    let guard = install_thread(sink.clone());
    run_cells(&runner(), &grid(), 2);
    drop(guard);
    let report = sink.take().report(100, 7);

    let std_entries: Vec<_> = report
        .entries
        .iter()
        .filter(|e| e.encoder == "Std")
        .collect();
    let defended: Vec<_> = report
        .entries
        .iter()
        .filter(|e| e.encoder == "AGE" || e.encoder == "Padded")
        .collect();
    assert!(!std_entries.is_empty() && !defended.is_empty());

    // The undefended baseline leaks well above the gate threshold, and the
    // leak is statistically significant.
    assert!(
        std_entries
            .iter()
            .any(|e| e.nmi > 0.05 && e.p_value <= 0.05),
        "no Std stream leaked: {:?}",
        std_entries
            .iter()
            .map(|e| (e.label.as_str(), e.nmi, e.p_value))
            .collect::<Vec<_>>()
    );
    // Every defended stream is constant-size on the wire, so its NMI is
    // exactly zero — including the fault-injected cell.
    for e in &defended {
        assert_eq!(e.distinct_sizes, 1, "{}/{} varied", e.label, e.encoder);
        assert_eq!(e.nmi, 0.0, "{}/{} leaked", e.label, e.encoder);
    }

    // Timing channel: Std's size variation maps into the gap schedule
    // through the radio serialization time, so the same stream leaks
    // through gaps too — and significantly.
    assert!(
        std_entries
            .iter()
            .any(|e| e.timing_nmi > 0.05 && e.timing_p_value <= 0.05),
        "no Std stream leaked through timing: {:?}",
        std_entries
            .iter()
            .map(|e| (e.label.as_str(), e.timing_nmi, e.timing_p_value))
            .collect::<Vec<_>>()
    );
    // Fault-free defended cells run a metronome: one distinct gap, zero
    // timing NMI. (The fault-injected r0.50 cell legitimately varies its
    // gaps through retry backoff; the gate's significance test — not this
    // invariant — is what keeps that noise from failing the audit.)
    for e in defended.iter().filter(|e| !e.label.contains("r0.50")) {
        assert!(
            e.gap_observations > 0,
            "{}/{} has no gaps",
            e.label,
            e.encoder
        );
        assert_eq!(e.distinct_gaps, 1, "{}/{} gaps varied", e.label, e.encoder);
        assert_eq!(e.timing_nmi, 0.0, "{}/{} leaked timing", e.label, e.encoder);
    }
}

#[test]
fn audited_sizes_are_the_sealed_frames_the_transport_sent() {
    let sink = Arc::new(RecordingSink::new());
    let runner = runner();
    let faults = FaultSetup::new(FaultPlan {
        drop_rate: 0.15,
        corrupt_rate: 0.05,
        ..FaultPlan::default()
    });
    let result = {
        let _guard = install_thread(sink.clone());
        runner.run(&SweepCell {
            enforce_budget: false,
            faults: Some(faults),
            ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5)
        })
    };
    let wires = sink.wire_records();
    // One wire record per transmitted (non-violated) sequence, in order —
    // including sequences later lost in transit, whose frames the
    // eavesdropper still saw.
    let transmitted: Vec<_> = result.records.iter().filter(|r| !r.violated).collect();
    assert_eq!(wires.len(), transmitted.len());
    assert!(
        transmitted.iter().any(|r| r.lost),
        "fixture should lose frames"
    );
    for (wire, rec) in wires.iter().zip(&transmitted) {
        assert_eq!(wire.encoder, "AGE");
        assert_eq!(wire.label, "Epilepsy/Linear/AGE/r0.50");
        assert_eq!(wire.event, rec.label, "wire event must be ground truth");
        assert_eq!(
            wire.wire_bytes, rec.message_bytes,
            "audited size must be the sealed frame length"
        );
    }
    // And the frames are sealed: larger than the plaintext target because
    // the cipher adds framing, constant across the stream.
    let first = wires[0].wire_bytes;
    assert!(wires.iter().all(|w| w.wire_bytes == first));

    // Every wire record carries the virtual send time of its *first*
    // radiation, and the clock only moves forward within a cell.
    assert!(wires.iter().all(|w| w.virtual_time > 0));
    assert!(
        wires
            .windows(2)
            .all(|w| w[0].virtual_time < w[1].virtual_time),
        "send stamps must be strictly increasing within a run"
    );
    // The stamps agree with the runner's own records.
    for (wire, rec) in wires.iter().zip(&transmitted) {
        assert_eq!(wire.virtual_time, rec.sent_at_us);
    }
}
