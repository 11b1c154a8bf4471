//! The streaming-monitor contract: health snapshots are byte-identical
//! at any shard/thread count, an injected mid-trace regression raises a
//! windowed alarm *while frames are still in flight* (the end-of-run
//! gate structurally cannot), and the postmortem freezes a
//! deterministic flight-recorder dump at the moment of the trigger.
//! Arming the monitor only observes: a monitored and an unmonitored run
//! of one fleet write the same `GATEWAY.json`.
use age_sim::fleet::FleetConfig;
use age_sim::monitor::{
    corruption_scenario, fleet_monitor, regression_scenario, run_fleet, FleetRun, FleetRunConfig,
};
use age_telemetry::AlarmKind;

const SEED: u64 = 2022;

fn healthy(shards: usize, threads: usize) -> FleetRun {
    run_fleet(&FleetRunConfig {
        monitor: Some(fleet_monitor()),
        ..FleetRunConfig::new(FleetConfig::new(150, SEED), shards, threads)
    })
}

#[test]
fn healthy_fleet_raises_no_alarms_and_gate_passes() {
    let run = healthy(4, 4);
    assert!(
        run.alarms.is_empty(),
        "healthy fleet alarmed: {:?}",
        run.alarms
    );
    assert!(run.postmortem.is_none(), "{:?}", run.postmortem_trigger);
    assert!(
        run.gate_passed(),
        "end-of-run gate failed:\n{}",
        run.leakage
    );
    assert_eq!(run.report.stats.frames, 150 * 4);
    assert_eq!(run.report.stats.rejected(), 0);

    // Snapshot accounting: ticks partition the trace exactly.
    let total: u64 = run.snapshots.iter().map(|s| s.delta_frames).sum();
    assert_eq!(total, run.report.stats.frames);
    let last = run.snapshots.last().expect("at least one tick");
    assert_eq!(last.stats.frames, run.report.stats.frames);
    assert_eq!(last.alarms_total, 0);
    assert_eq!(run.health_jsonl.lines().count(), run.snapshots.len());
    assert!(run.prometheus.contains("age_gateway_alarms_total 0"));
    // Latency is off, so the quantile fields must stay 0 — that is what
    // keeps the stream comparable across runs.
    assert!(run.snapshots.iter().all(|s| s.p99_ingest_ns == 0));
}

#[test]
fn health_stream_is_byte_identical_across_shard_and_thread_configs() {
    let reference = healthy(1, 1);
    for (shards, threads) in [(4, 4), (3, 2)] {
        let run = healthy(shards, threads);
        assert_eq!(
            run.health_jsonl, reference.health_jsonl,
            "HEALTH.jsonl diverged at {shards} shards / {threads} threads"
        );
        assert_eq!(
            run.prometheus, reference.prometheus,
            "prometheus exposition diverged at {shards} shards / {threads} threads"
        );
    }
}

#[test]
fn timing_regression_trips_a_windowed_alarm_mid_run() {
    let run = run_fleet(&regression_scenario(100, SEED));

    let first = run
        .alarms
        .first()
        .expect("the injected regression must alarm");
    assert_eq!(first.kind, AlarmKind::TimingLeak, "{first}");
    assert_eq!(first.stream, "AGE");
    assert!(
        first.start_us >= 1_000_000,
        "alarm predates the injected regression: {first}"
    );
    assert!(first.p_value <= 0.05, "{first}");

    // The alarm fired mid-run: frames were still in flight.
    let at = run
        .first_alarm_at_frames
        .expect("alarm must record when it fired");
    assert!(
        at < run.report.stats.frames,
        "alarm only fired once the trace had fully drained ({at} of {})",
        run.report.stats.frames
    );

    // The pre-regression prefix stayed clean.
    let clean_ticks = run
        .snapshots
        .iter()
        .take_while(|s| s.alarms_total == 0)
        .count();
    assert!(clean_ticks >= 2, "no clean warm-up ticks before the alarm");
    assert!(
        clean_ticks < run.snapshots.len(),
        "alarm never reached a snapshot"
    );

    // The postmortem froze at the alarm, not at end of trace.
    assert_eq!(run.postmortem_trigger.as_deref(), Some("windowed-alarm"));
    let postmortem = run.postmortem.as_deref().expect("postmortem rendered");
    assert!(postmortem.contains("\"trigger\": \"windowed-alarm\""));
    assert!(postmortem.contains("\"kind\": \"timing-leak\""));
    assert!(postmortem.contains("\"rung\": \"accepted\""));
}

#[test]
fn regression_artifacts_are_byte_identical_across_shard_counts() {
    let runs: Vec<FleetRun> = [(1usize, 1usize), (4, 4), (2, 3)]
        .into_iter()
        .map(|(shards, threads)| {
            let mut scenario = regression_scenario(100, SEED);
            scenario.shards = shards;
            scenario.threads = threads;
            run_fleet(&scenario)
        })
        .collect();
    for run in &runs[1..] {
        assert_eq!(run.health_jsonl, runs[0].health_jsonl);
        // The scenario's ring capacity exceeds the trace length, so no
        // shard ever evicts and the merged dump is partition-free.
        assert_eq!(run.postmortem, runs[0].postmortem);
        assert_eq!(run.alarms, runs[0].alarms);
        assert_eq!(run.first_alarm_at_frames, runs[0].first_alarm_at_frames);
    }
}

#[test]
fn corruption_floods_the_rejection_rate_alarm() {
    let run = run_fleet(&corruption_scenario(120, 7));
    assert!(
        run.report.stats.auth_failed > 0,
        "corruption never reached the gateway"
    );
    let rate = run
        .alarms
        .iter()
        .find(|a| a.kind == AlarmKind::RejectionRate)
        .expect("a third of traffic rejected must trip the rate alarm");
    assert_eq!(rate.stream, "fleet");
    assert!(rate.value > 0.25, "{rate}");
    assert!(
        rate.start_us >= 1_000_000,
        "rate alarm predates the corruption: {rate}"
    );
    let postmortem = run.postmortem.as_deref().expect("postmortem rendered");
    assert!(postmortem.contains("\"kind\": \"rejection-rate\""));
    assert!(
        postmortem.contains("\"rung\": \"auth_failed\""),
        "flight recorder must retain the rejected frames"
    );
    assert!(postmortem.contains("\"seq\": null"));
}

#[test]
fn arming_the_monitor_changes_no_gateway_artifact() {
    for rekey_interval in [None, Some(16)] {
        for shards in [1, 4] {
            let plain = FleetRunConfig {
                permutations: 100,
                ..FleetRunConfig::new(
                    FleetConfig {
                        rekey_interval,
                        ..FleetConfig::new(300, SEED)
                    },
                    shards,
                    shards,
                )
            };
            let unmonitored = run_fleet(&plain);
            let monitored = run_fleet(&FleetRunConfig {
                monitor: Some(fleet_monitor()),
                ..plain
            });
            let at = format!("{shards} shards, rekey {rekey_interval:?}");
            assert_eq!(monitored.gateway_json(), unmonitored.gateway_json(), "{at}");
            assert_eq!(
                monitored.report.to_json(),
                unmonitored.report.to_json(),
                "{at}"
            );
            assert_eq!(
                monitored.leakage.to_json(),
                unmonitored.leakage.to_json(),
                "{at}"
            );
            assert!(unmonitored.leakage.gate.is_some(), "{at}: gate not stamped");
            assert_eq!(monitored.nonce_clean, unmonitored.nonce_clean, "{at}");
            assert!(unmonitored.gate_passed() && unmonitored.nonce_clean, "{at}");
            if rekey_interval.is_some() {
                assert!(
                    unmonitored.report.stats.rotations > 0,
                    "{at}: never rekeyed"
                );
            }

            assert!(!monitored.snapshots.is_empty(), "{at}");
            assert!(unmonitored.snapshots.is_empty(), "{at}");
            assert!(unmonitored.health_jsonl.is_empty() && unmonitored.prometheus.is_empty());
            assert!(unmonitored.alarms.is_empty() && unmonitored.postmortem.is_none());
        }
    }
}

#[test]
fn the_fleet_rekey_setting_reaches_the_run() {
    let rotations = |rekey_interval| {
        let config = FleetRunConfig {
            permutations: 10,
            ..FleetRunConfig::new(
                FleetConfig {
                    rekey_interval,
                    ..FleetConfig::new(200, 7)
                },
                4,
                4,
            )
        };
        run_fleet(&config).report.stats.rotations
    };
    assert!(rotations(Some(2)) > 0);
    assert_eq!(rotations(None), 0);
}
