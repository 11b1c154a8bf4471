//! Reboot-survival acceptance tests: the sequence-reservation journal must
//! keep every (key, nonce) pair unique no matter where power is cut, the
//! receiver must keep accepting the post-reboot stream, wire frames must
//! stay constant-size, and the journal's flash writes must be billed
//! against the same energy ledger as the radio. The run-wide nonce auditor
//! is also proven to *fail* when a sensor reboots without the journal.

use std::collections::BTreeSet;
use std::sync::Arc;

use age_crypto::ChaCha20Poly1305;
use age_sim::{
    run_cells, CipherChoice, Defense, FaultPlan, FaultSetup, NvmFaultPlan, PolicyKind, PowerFaults,
    Runner, SweepCell,
};
use age_telemetry::{
    install_thread, FleetNonceAudit, FleetNonceReuse, LeakageSink, NonceAuditSink,
};
use age_transport::{FaultChannel, Link, NvmStore, RetryPolicy, SequenceJournal};

const KEY: [u8; 32] = [7; 32];

fn journaled_link(nvm: NvmFaultPlan, nvm_seed: u64, block: u64) -> Link {
    Link::with_channel(
        Box::new(ChaCha20Poly1305::new(KEY)),
        Box::new(ChaCha20Poly1305::new(KEY)),
        FaultChannel::with_seed(FaultPlan::NONE, 0),
        RetryPolicy::default(),
    )
    .with_journal(SequenceJournal::new(
        NvmStore::with_seed(nvm, nvm_seed),
        block,
    ))
}

/// The tentpole property: reboot the sensor at *every* possible cut point
/// in a 200-frame window — both before the seal and in the torn window
/// after the journal write — over both reliable and fault-injected NVM,
/// and assert that no sequence number (hence no nonce) is ever used twice,
/// that every frame that radiated was accepted by the receiver, and that
/// the wire-frame size never changes across a reboot.
#[test]
fn every_cut_point_in_a_200_frame_window_is_nonce_safe() {
    const WINDOW: usize = 200;
    let payload = [0x5A_u8; 48];
    let plans = [
        NvmFaultPlan::NONE,
        NvmFaultPlan {
            fail_rate: 0.1,
            torn_rate: 0.25,
            seed: 0,
        },
    ];
    for (p, plan) in plans.iter().enumerate() {
        for cut in 0..WINDOW {
            // torn_window = false cuts power before anything happened;
            // true cuts between the journal write + seal and the radio.
            for torn_window in [false, true] {
                let nvm_seed = (p * WINDOW + cut) as u64;
                let mut link = journaled_link(*plan, nvm_seed, 16);
                let mut sealed = BTreeSet::new();
                for i in 0..WINDOW {
                    if i == cut {
                        if torn_window {
                            // abort_send reserves + seals a frame that
                            // never radiates, then loses power.
                            link.abort_send(&payload);
                        } else {
                            link.reboot_sensor();
                        }
                    }
                    let delivery = link.send(&payload);
                    if delivery.attempts == 0 {
                        // The journal's NVM write was exhausted: the
                        // message is lost *without* radiating, and no
                        // sequence number was consumed on the air.
                        continue;
                    }
                    assert!(
                        sealed.insert(delivery.sequence),
                        "sequence {} sealed twice (cut={cut}, torn={torn_window}, plan={p})",
                        delivery.sequence
                    );
                    assert!(
                        delivery.delivered,
                        "post-reboot frame {} rejected (cut={cut}, torn={torn_window}, plan={p})",
                        delivery.sequence
                    );
                }
                assert!(
                    link.channel_stats().wire_lengths_constant(),
                    "a reboot changed the wire-frame size (cut={cut}, torn={torn_window})"
                );
                assert_eq!(link.stats().sensor_reboots, 1);
            }
        }
    }
}

/// A reboot can land mid-window too: reboot after *every* frame of one run
/// (several times, torn NVM included) and the whole stream still never
/// reuses a sequence and stays accepted.
#[test]
fn repeated_reboots_in_one_window_stay_nonce_safe() {
    let payload = [0x33_u8; 32];
    let plan = NvmFaultPlan {
        fail_rate: 0.2,
        torn_rate: 0.3,
        seed: 0,
    };
    let mut link = journaled_link(plan, 99, 8);
    let mut sealed = BTreeSet::new();
    for round in 0..50 {
        for _ in 0..4 {
            let delivery = link.send(&payload);
            if delivery.attempts == 0 {
                continue;
            }
            assert!(sealed.insert(delivery.sequence), "round {round} reused");
            assert!(delivery.delivered);
        }
        if round % 2 == 0 {
            link.reboot_sensor();
        } else {
            link.abort_send(&payload);
        }
    }
    assert_eq!(link.stats().sensor_reboots, 50);
    assert!(link.stats().journal_flushes > 0);
    assert!(link.channel_stats().wire_lengths_constant());
}

/// The auditor's failure path: a sensor that reboots *without* the journal
/// restarts its counter at zero and re-seals old sequence numbers — the
/// nonce audit must flag the run, and the receiver must reject the replays.
#[test]
fn nonce_auditor_fails_when_the_journal_is_bypassed() {
    let payload = [0x11_u8; 40];
    let mut link = Link::with_channel(
        Box::new(ChaCha20Poly1305::new(KEY)),
        Box::new(ChaCha20Poly1305::new(KEY)),
        FaultChannel::with_seed(FaultPlan::NONE, 0),
        RetryPolicy::default(),
    );
    assert!(!link.has_journal());
    let mut audit = FleetNonceAudit::new();
    for _ in 0..10 {
        let delivery = link.send(&payload);
        audit.observe(0, delivery.epoch, delivery.sequence);
    }
    assert!(audit.is_clean());
    // Power loss with nothing persisted: the counter restarts at zero.
    link.reboot_sensor();
    for _ in 0..10 {
        let delivery = link.send(&payload);
        audit.observe(0, delivery.epoch, delivery.sequence);
    }
    assert!(
        !audit.is_clean(),
        "re-sealing without the journal must be caught"
    );
    // All ten re-sealed sequences, reported as one run.
    assert_eq!(
        audit.violations(),
        [FleetNonceReuse {
            sensor_id: 0,
            epoch: 0,
            first: 0,
            last: 9
        }]
    );
    // And the receiver saw them as replays: nothing post-reboot delivered.
    assert!(link.stats().replay_rejected >= 10);
}

/// Journal flash writes are billed against the same budget ledger as the
/// radio: an identical cell run with the journal (rate-0 power faults, so
/// nothing else changes) spends exactly `flushes × nvm_write_per_record`
/// more energy.
#[test]
fn journal_writes_are_billed_against_the_same_ledger() {
    let runner = Runner::new(
        age_datasets::DatasetKind::Epilepsy,
        age_datasets::Scale::Small,
        7,
    );
    let base_setup = FaultSetup::new(FaultPlan::NONE);
    let journal_setup = base_setup.with_power(PowerFaults {
        reset_rate: 0.0,
        seed: 7,
        block: 16,
        nvm: NvmFaultPlan::NONE,
    });
    let run = |setup| {
        runner.run(&SweepCell {
            limit: Some(40),
            faults: Some(setup),
            ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.6)
        })
    };
    let without = run(base_setup);
    let with = run(journal_setup);
    let energy =
        |r: &age_sim::ExperimentResult| -> f64 { r.records.iter().map(|rec| rec.energy_mj).sum() };
    let flushes = with.transport.unwrap().link.journal_flushes;
    assert!(flushes > 0, "reservations must hit the NVM");
    let expected = runner.energy_model().journal_write_cost(flushes).0;
    let delta = energy(&with) - energy(&without);
    assert!(
        (delta - expected).abs() < 1e-9,
        "journal energy not billed to the ledger: delta {delta} vs expected {expected}"
    );
    // Same nonces delivered, same reconstruction: only the flash energy
    // moved.
    assert_eq!(without.records.len(), with.records.len());
    for (a, b) in without.records.iter().zip(&with.records) {
        assert_eq!(a.message_bytes, b.message_bytes);
        assert_eq!(a.mae, b.mae);
    }
}

fn power_cells(reset_rate: f64, seed: u64) -> Vec<SweepCell> {
    [Defense::Standard, Defense::Age]
        .iter()
        .map(|&defense| {
            let mut cell = SweepCell::new(PolicyKind::Linear, defense, 0.6);
            cell.cipher = CipherChoice::ChaCha20Poly1305;
            cell.enforce_budget = false;
            cell.limit = Some(60);
            cell.faults = Some(
                FaultSetup::new(FaultPlan {
                    drop_rate: 0.1,
                    corrupt_rate: 0.05,
                    seed,
                    ..FaultPlan::NONE
                })
                .with_power(PowerFaults::at_rate(reset_rate, seed)),
            );
            cell
        })
        .collect()
}

/// Power-fault sweeps are byte-identical at any thread count — results and
/// the merged nonce audit both — exactly like the channel's fault streams.
#[test]
fn power_fault_sweeps_are_byte_identical_across_thread_counts() {
    let runner = Runner::new(
        age_datasets::DatasetKind::Epilepsy,
        age_datasets::Scale::Small,
        11,
    );
    let cells = power_cells(0.08, 11);
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
    assert_eq!(
        single_audit, quad_audit,
        "the merged nonce audit must not depend on the thread count"
    );
    assert!(single_audit.frames() > 0);
    assert!(single_audit.is_clean(), "{single_audit}");
    let reboots: usize = single
        .iter()
        .map(|r| r.transport.unwrap().link.sensor_reboots)
        .sum();
    assert!(reboots > 0, "the schedule must actually cut power");
}

/// The PR-4 leakage gate stays green under power faults: AGE frames are
/// still constant-size on the wire across reboots, so their NMI is exactly
/// zero.
#[test]
fn leakage_stays_zero_under_power_faults() {
    let runner = Runner::new(
        age_datasets::DatasetKind::Epilepsy,
        age_datasets::Scale::Small,
        13,
    );
    let sink = Arc::new(LeakageSink::new());
    let guard = install_thread(sink.clone());
    run_cells(&runner, &power_cells(0.1, 13), 2);
    drop(guard);
    let report = sink.take().report(50, 7);
    let defended: Vec<_> = report
        .entries
        .iter()
        .filter(|e| e.encoder == "AGE")
        .collect();
    assert!(!defended.is_empty());
    for e in &defended {
        assert_eq!(e.distinct_sizes, 1, "{} varied under power faults", e.label);
        assert_eq!(e.nmi, 0.0, "{} leaked under power faults", e.label);
    }
}
