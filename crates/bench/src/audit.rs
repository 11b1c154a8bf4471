//! The leakage-audit harness behind `repro --audit` and the
//! `bench_leakage` gate binary.
//!
//! One pinned gate lives here so CI, the repro artifact, and the tests
//! judge sweeps alike; its thresholds are `age-telemetry`'s, which the
//! fleet gate and the windowed monitor use too. The gate judges two
//! channels:
//!
//! - **Size**: a defended encoder whose audited wire-size NMI exceeds
//!   [`LEAKAGE_NMI_THRESHOLD`] fails.
//! - **Timing**: a defended encoder whose inter-transmission-gap NMI
//!   exceeds the same threshold *with a significant permutation p-value*
//!   fails (the p-value requirement absorbs the benign gap variance that
//!   retry backoff injects into small samples).
//!
//! On both channels the gate refuses to pass unless the undefended `Std`
//! baseline *does* exceed the thresholds on the same seeded data — proof
//! each detector is live, not vacuously green.

use std::sync::Arc;

use age_datasets::DatasetKind;
use age_sim::{run_cells, Defense, PolicyKind, Runner, SweepCell};
use age_telemetry::{
    install_thread, LeakageAudit, LeakageGate, LeakageReport, LeakageSink,
    LEAKAGE_MIN_OBSERVATIONS, LEAKAGE_NMI_THRESHOLD, LEAKAGE_P_THRESHOLD,
};

use crate::report::Settings;

/// The pinned gate configuration: every fixed-size defense must stay at or
/// below the threshold, and the variable-size `Std` baseline must
/// demonstrably leak.
pub fn default_gate() -> LeakageGate {
    LeakageGate {
        nmi_threshold: LEAKAGE_NMI_THRESHOLD,
        p_threshold: LEAKAGE_P_THRESHOLD,
        min_observations: LEAKAGE_MIN_OBSERVATIONS,
        defended: ["AGE", "Padded", "Single", "Unshifted", "Pruned"]
            .map(String::from)
            .to_vec(),
        baseline: vec!["Std".to_string()],
    }
}

/// The sweep audited by `bench_leakage`: both adaptive policies crossed
/// with the undefended baseline and the two headline defenses, at two
/// budgets. Budget enforcement is off (as in the paper's leakage analysis)
/// so every sequence transmits and the audit sees the full size stream.
pub fn gate_cells() -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for policy in [PolicyKind::Linear, PolicyKind::Deviation] {
        for defense in [Defense::Standard, Defense::Padded, Defense::Age] {
            for rate in [0.5, 0.7] {
                let mut cell = SweepCell::new(policy, defense, rate);
                cell.enforce_budget = false;
                cells.push(cell);
            }
        }
    }
    cells
}

/// Runs the pinned audit sweep on the seeded Epilepsy dataset, collecting
/// wire records through a shared [`LeakageSink`], and returns the merged
/// audit state. Byte-identical at any thread count: the sink's counts
/// commute and scoring happens after the sweep.
pub fn audit_sweep(settings: &Settings) -> LeakageAudit {
    let runner = Runner::new(DatasetKind::Epilepsy, settings.scale, settings.seed);
    let sink = Arc::new(LeakageSink::new());
    let guard = install_thread(sink.clone());
    run_cells(&runner, &gate_cells(), settings.threads);
    drop(guard);
    sink.take()
}

/// Scores an audit and stamps the pinned gate's verdict into the report.
pub fn finalize(audit: &LeakageAudit, settings: &Settings) -> LeakageReport {
    let mut report = audit.report(settings.permutations, settings.seed);
    report.gate = Some(default_gate().evaluate(&report.entries));
    report
}

/// The whole gate: sweep, score, judge. `bench_leakage` exits non-zero
/// when the returned report's gate verdict is a failure.
pub fn run_gate(settings: &Settings) -> LeakageReport {
    finalize(&audit_sweep(settings), settings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Settings {
        let mut s = Settings::quick();
        s.permutations = 60;
        s
    }

    #[test]
    fn pinned_gate_passes_on_the_audited_sweep() {
        let report = run_gate(&quick());
        let gate = report.gate.as_ref().unwrap();
        assert!(gate.passed, "failures: {:?}", gate.failures);
        // Every defended stream is constant-size on a fault-free cadence,
        // so both channels score exactly 0.
        for e in &report.entries {
            if e.encoder != "Std" {
                assert_eq!(e.nmi, 0.0, "{}/{} leaked", e.label, e.encoder);
                assert_eq!(e.distinct_sizes, 1, "{}/{}", e.label, e.encoder);
                assert_eq!(e.timing_nmi, 0.0, "{}/{} leaked timing", e.label, e.encoder);
                assert_eq!(e.distinct_gaps, 1, "{}/{} gaps", e.label, e.encoder);
            }
        }
        // And the baseline demonstrably leaks — through both channels.
        assert!(report.entries.iter().any(|e| e.encoder == "Std"
            && e.nmi > LEAKAGE_NMI_THRESHOLD
            && e.p_value <= LEAKAGE_P_THRESHOLD));
        assert!(report.entries.iter().any(|e| e.encoder == "Std"
            && e.timing_nmi > LEAKAGE_NMI_THRESHOLD
            && e.timing_p_value <= LEAKAGE_P_THRESHOLD));
        // Both verdict legs actually ran.
        assert!(gate.timing_defended_checked > 0 && gate.timing_baseline_checked > 0);
    }

    #[test]
    fn gate_fails_on_an_event_correlated_schedule_behind_constant_sizes() {
        // The injected bug class the timing channel exists to catch: a
        // defended stream whose frames are all the same length but whose
        // send schedule stretches with the event — say, an event-dependent
        // backoff or a data-dependent encode stall.
        let audit = audit_sweep(&quick());
        let mut regressed = LeakageAudit::new();
        regressed.merge(&audit);
        let mut t = 0u64;
        for i in 0..160u64 {
            let event = (i % 3) as usize;
            t += 500_000 + event as u64 * 60_000;
            regressed.observe_timed("Epilepsy/Linear/Padded/r0.33", "Padded", event, 118, t);
        }
        let report = finalize(&regressed, &quick());
        let gate = report.gate.as_ref().unwrap();
        assert!(!gate.passed);
        assert!(
            gate.failures
                .iter()
                .any(|f| f.contains("timing regression") && f.contains("Padded")),
            "failures: {:?}",
            gate.failures
        );
        // The size channel stays clean — only the timing verdict fires.
        assert!(
            !gate
                .failures
                .iter()
                .any(|f| f.contains("leakage regression")),
            "failures: {:?}",
            gate.failures
        );
    }

    #[test]
    fn gate_fails_when_a_defended_encoder_regresses() {
        // Injected padding regression: replay the leaky Std streams under a
        // defended encoder's name, as a broken padding stage would look.
        let audit = audit_sweep(&quick());
        let mut regressed = LeakageAudit::new();
        regressed.merge(&audit);
        for ((label, encoder), stream) in audit.streams() {
            if encoder == "Std" {
                for (event, size) in stream.pairs() {
                    regressed.observe(label, "Padded", event, size);
                }
            }
        }
        let report = finalize(&regressed, &quick());
        let gate = report.gate.as_ref().unwrap();
        assert!(!gate.passed);
        assert!(
            gate.failures
                .iter()
                .any(|f| f.contains("leakage regression") && f.contains("Padded")),
            "failures: {:?}",
            gate.failures
        );
    }
}
