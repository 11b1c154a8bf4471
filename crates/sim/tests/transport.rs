//! Fault-injected transport, end to end: sweeps stay byte-identical across
//! thread counts with faults enabled, every wire frame keeps the sealed
//! fixed size under drops and corruption, and the receiver degrades
//! gracefully (skipped batches, bumped counters) instead of panicking.

use age_datasets::{DatasetKind, Scale};
use age_sim::{
    run_cells, CipherChoice, Defense, ExperimentResult, FaultPlan, FaultSetup, PolicyKind,
    RetryPolicy, Runner, SweepCell, SweepOptions,
};

fn faulty_grid() -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for &rate in &[0.4, 0.7] {
        let lossy = FaultSetup::new(FaultPlan::lossy(0.2, 11));
        let noisy = FaultSetup::new(FaultPlan {
            drop_rate: 0.15,
            corrupt_rate: 0.15,
            seed: 12,
            ..FaultPlan::NONE
        })
        .with_retry(RetryPolicy::none());
        cells.push(SweepCell::new(PolicyKind::Linear, Defense::Age, rate).with_faults(lossy));
        cells.push(SweepCell::new(PolicyKind::Linear, Defense::Standard, rate).with_faults(noisy));
        cells.push(
            SweepCell {
                cipher: CipherChoice::ChaCha20Poly1305,
                ..SweepCell::new(PolicyKind::Uniform, Defense::Age, rate)
            }
            .with_faults(noisy),
        );
    }
    cells
}

fn sweep_at(threads: usize) -> Vec<ExperimentResult> {
    // A fresh runner per sweep: cold fit caches are part of what must not
    // depend on the thread count.
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let opts = SweepOptions {
        threads,
        ..Default::default()
    };
    run_cells(&runner, &faulty_grid(), &opts)
}

#[test]
fn faulty_sweeps_are_identical_across_thread_counts() {
    let one = sweep_at(1);
    let two = sweep_at(2);
    assert_eq!(one.len(), two.len());
    for (i, (a, b)) in one.iter().zip(&two).enumerate() {
        assert_eq!(a, b, "faulty cell #{i} diverged between 1 and 2 threads");
    }
    // Belt and braces: the Debug serialization (every float bit) matches.
    assert_eq!(format!("{one:?}"), format!("{two:?}"));
}

#[test]
fn age_wire_frames_stay_sealed_size_under_faults() {
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let setup = FaultSetup::new(FaultPlan {
        drop_rate: 0.2,
        corrupt_rate: 0.2,
        seed: 5,
        ..FaultPlan::NONE
    });
    let result = runner.run(&SweepCell {
        cipher: CipherChoice::ChaCha20Poly1305,
        enforce_budget: false,
        faults: Some(setup),
        ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5)
    });
    let transport = result.transport.expect("fault runs report transport stats");
    // Every frame the attacker tapped — including retransmissions and
    // corrupted copies — had exactly the sealed fixed size.
    assert!(transport.channel.wire_lengths_constant());
    assert!(transport.channel.wire_min_len.is_some());
    let observations = result.observations();
    assert!(!observations.is_empty());
    assert!(
        observations.windows(2).all(|w| w[0].1 == w[1].1),
        "AGE frame sizes must not vary under faults"
    );
    // Even counting lost messages at their on-air size, sizes carry nothing.
    assert_eq!(age_attack::nmi(&observations), 0.0);
}

#[test]
fn corrupted_frames_are_skipped_not_fatal() {
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let setup = FaultSetup::new(FaultPlan {
        corrupt_rate: 0.5,
        seed: 21,
        ..FaultPlan::NONE
    })
    .with_retry(RetryPolicy::none());
    let result = runner.run(&SweepCell {
        cipher: CipherChoice::ChaCha20Poly1305,
        enforce_budget: false,
        faults: Some(setup),
        ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5)
    });
    let transport = result.transport.expect("fault runs report transport stats");
    // AEAD rejects the flipped bits; the receiver skips those batches and
    // the run completes with guessed values instead of a panic.
    assert!(transport.link.auth_failed > 0);
    assert!(result.losses() > 0);
    assert!(
        result.losses() < result.records.len(),
        "some messages survive"
    );
    for record in &result.records {
        assert!(record.lost || record.mae.is_finite());
    }
}

#[test]
fn retransmission_energy_is_charged() {
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let plan = FaultPlan::drops(0.3, 4);
    let clean = runner.run(&SweepCell {
        cipher: CipherChoice::ChaCha20Poly1305,
        enforce_budget: false,
        faults: Some(FaultSetup::new(FaultPlan::NONE)),
        ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5)
    });
    let faulty = runner.run(&SweepCell {
        cipher: CipherChoice::ChaCha20Poly1305,
        enforce_budget: false,
        faults: Some(FaultSetup::new(plan)),
        ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5)
    });
    let energy =
        |r: &age_sim::ExperimentResult| -> f64 { r.records.iter().map(|rec| rec.energy_mj).sum() };
    let retried = faulty.transport.unwrap().link.frames_retried;
    assert!(retried > 0, "a 30% drop rate must force retransmissions");
    assert!(
        energy(&faulty) > energy(&clean),
        "retransmissions must cost energy: {} vs {}",
        energy(&faulty),
        energy(&clean)
    );
    let max_attempts: u32 = faulty.records.iter().map(|r| r.attempts).max().unwrap();
    assert!(max_attempts > 1);
}

#[cfg(feature = "telemetry")]
#[test]
fn fault_runs_bump_transport_counters() {
    use age_telemetry::metrics::global;

    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let sent_before = global::FRAMES_SENT.get();
    let dropped_before = global::FRAMES_DROPPED.get();
    let auth_before = global::FRAMES_AUTH_FAILED.get();
    let setup = FaultSetup::new(FaultPlan {
        drop_rate: 0.2,
        corrupt_rate: 0.3,
        seed: 8,
        ..FaultPlan::NONE
    });
    let _ = runner.run(&SweepCell {
        cipher: CipherChoice::ChaCha20Poly1305,
        enforce_budget: false,
        faults: Some(setup),
        ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5)
    });
    // Counters are global and monotone, so concurrent tests can only push
    // them further up — strict increase is still a sound assertion.
    assert!(global::FRAMES_SENT.get() > sent_before);
    assert!(global::FRAMES_DROPPED.get() > dropped_before);
    assert!(global::FRAMES_AUTH_FAILED.get() > auth_before);
}
