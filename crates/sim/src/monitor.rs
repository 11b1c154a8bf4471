//! The monitored fleet driver: streaming ingest with health snapshots,
//! windowed leakage alarms, and postmortem capture.
//!
//! [`run_monitored`] drives a synthesized fleet trace through a gateway
//! in virtual-time segments (*ticks*) instead of one shot. After each
//! tick it folds the shard monitors, scores every leakage window the
//! tick closed, and emits one [`HealthSnapshot`] line — so a regression
//! that begins mid-trace raises its alarm while frames are still
//! in flight, which the end-of-run [`LeakageGate`] structurally cannot
//! do. The first trigger (a windowed alarm, a dirty gateway nonce
//! audit, or — failing those — an end-of-run gate failure) freezes the
//! merged flight-recorder contents into a `POSTMORTEM.json` string.
//!
//! Everything returned is deterministic: the tick boundaries are
//! virtual time, every per-tick rollup is a commutative fold over
//! shards, and alarm p-values are seeded per `(window, stream)` — so
//! `health_jsonl` and `postmortem` are byte-identical at any shard or
//! thread count (pinned by `tests/monitor.rs` and `cmp`'d in CI).

use age_gateway::{render_postmortem, FleetReport, HealthSnapshot, ShardReport, StreamHealth};
use age_telemetry::{Alarm, GateOutcome, LeakageGate, LeakageReport, MonitorConfig};

use crate::fleet::{
    fleet_cohorts, fleet_gateway_config, generate, provisioned_gateway, FleetConfig,
};

/// Shape of one monitored fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorRunConfig {
    /// The fleet to synthesize and ingest.
    pub fleet: FleetConfig,
    /// Gateway shard count.
    pub shards: usize,
    /// Worker threads for each tick's drain.
    pub threads: usize,
    /// Streaming-monitor window shape and thresholds; the end-of-run
    /// gate reuses its NMI/p/observation thresholds so the two layers
    /// cannot silently disagree about what counts as a leak.
    pub monitor: MonitorConfig,
    /// Health snapshot period in virtual microseconds (0 behaves as 1).
    pub health_every_us: u64,
    /// Flight-recorder ring capacity per shard.
    pub recorder_capacity: usize,
    /// Record wall-clock ingest latency (leave off when snapshot bytes
    /// are compared across runs — latency is nondeterministic by
    /// nature, so the comparable runs must keep the quantile fields 0).
    pub record_latency: bool,
    /// Permutations for the end-of-run gate's p-values.
    pub gate_permutations: usize,
}

impl MonitorRunConfig {
    /// Defaults matched to the fleet cost model: 500 ms leakage windows
    /// and 500 ms health ticks (roughly two frames per sensor per
    /// window at the ~258 ms per-frame cadence), a ring big enough
    /// that typical test fleets never evict, latency off.
    pub fn new(fleet: FleetConfig, shards: usize, threads: usize) -> MonitorRunConfig {
        MonitorRunConfig {
            fleet,
            shards,
            threads,
            monitor: MonitorConfig {
                window_us: 500_000,
                ..MonitorConfig::default()
            },
            health_every_us: 500_000,
            recorder_capacity: 4096,
            record_latency: false,
            gate_permutations: 200,
        }
    }
}

/// The monitor-leg regression scenario CI runs: a healthy fleet whose
/// defended cohort develops an event-proportional transmission delay
/// after one virtual second. Sized so several clean windows close
/// before the regression starts and several leaky ones close before
/// the trace ends — the windowed alarm must fire mid-run, frames still
/// in flight, where the end-of-run gate has not yet spoken.
pub fn regression_scenario(sensors: u64, seed: u64) -> MonitorRunConfig {
    let mut fleet = FleetConfig::new(sensors, seed);
    fleet.frames_per_sensor = 8;
    fleet.regress_timing_after_us = Some(1_000_000);
    let mut config = MonitorRunConfig::new(fleet, 4, 4);
    // One-second windows collect ~4 gaps per sensor — enough mass that
    // the permutation test resolves the injected correlation sharply.
    config.monitor.window_us = 1_000_000;
    config.health_every_us = 500_000;
    config
}

/// A plumbing-health scenario: after one virtual second every third
/// sensor's frames arrive with a flipped ciphertext byte, so the auth
/// rung rejects ~a third of traffic and the rejection-rate alarm trips.
pub fn corruption_scenario(sensors: u64, seed: u64) -> MonitorRunConfig {
    let mut fleet = FleetConfig::new(sensors, seed);
    fleet.frames_per_sensor = 8;
    fleet.corrupt_after_us = Some(1_000_000);
    MonitorRunConfig::new(fleet, 4, 4)
}

/// Everything one monitored run produces.
#[derive(Debug)]
pub struct MonitoredRun {
    /// The deterministic end-of-run fleet rollup.
    pub report: FleetReport,
    /// Per-shard ingest accounting (shard-count-dependent on purpose).
    pub shard_reports: Vec<ShardReport>,
    /// One snapshot per health tick, in tick order.
    pub snapshots: Vec<HealthSnapshot>,
    /// The snapshots rendered as JSONL — the `HEALTH.jsonl` bytes.
    pub health_jsonl: String,
    /// Prometheus-style exposition of the final snapshot.
    pub prometheus: String,
    /// Every windowed alarm raised, ordered by (tick scored, window,
    /// kind, stream).
    pub alarms: Vec<Alarm>,
    /// Fleet frame count at the moment the first alarm fired — proof
    /// the alarm preceded end-of-trace when it is below `stats.frames`.
    pub first_alarm_at_frames: Option<u64>,
    /// What triggered the postmortem, if anything did.
    pub postmortem_trigger: Option<String>,
    /// The rendered `POSTMORTEM.json` bytes, if triggered.
    pub postmortem: Option<String>,
    /// The end-of-run leakage report (same scoring as `repro`).
    pub leakage: LeakageReport,
    /// The end-of-run gate verdict over `leakage`.
    pub gate: GateOutcome,
}

/// Drives one monitored fleet run tick by tick.
pub fn run_monitored(config: &MonitorRunConfig) -> MonitoredRun {
    let traffic = generate(&config.fleet);
    let mut gateway_config = fleet_gateway_config(&config.fleet, config.shards);
    gateway_config.record_latency = config.record_latency;
    gateway_config.monitor = Some(config.monitor);
    gateway_config.recorder_capacity = config.recorder_capacity;
    let mut gateway = provisioned_gateway(&config.fleet, gateway_config);

    let cohorts = fleet_cohorts();
    let names: Vec<&str> = cohorts.iter().map(|c| c.name.as_str()).collect();
    let defended = [0usize];
    let tick_us = config.health_every_us.max(1);
    let window_us = config.monitor.window_us.max(1);
    let last_sent_us = traffic.frames.last().map_or(0, |f| f.sent_at_us);
    let ticks = last_sent_us / tick_us + 1;

    let mut cursor = 0usize;
    let mut scored_to = 0u64;
    let mut prev_frames = 0u64;
    let mut alarms: Vec<Alarm> = Vec::new();
    let mut first_alarm_at_frames = None;
    let mut snapshots = Vec::with_capacity(ticks as usize);
    let mut health_jsonl = String::new();
    let mut postmortem = None;
    let mut postmortem_trigger: Option<String> = None;

    for tick in 1..=ticks {
        let tick_end_us = tick * tick_us;
        let begin = cursor;
        while cursor < traffic.frames.len() && traffic.frames[cursor].sent_at_us < tick_end_us {
            cursor += 1;
        }
        gateway.run(&traffic.frames[begin..cursor], config.threads);

        // Score every window this tick closed. Frames are globally
        // time-sorted, so a window ending at or before `tick_end_us`
        // can never receive another observation — its score is final.
        let monitor = gateway.monitor();
        let close_to = (tick_end_us / window_us).max(scored_to);
        let mut fresh = Vec::new();
        if let Some(monitor) = &monitor {
            fresh = monitor.alarms(
                &config.monitor,
                &names,
                &defended,
                config.fleet.seed,
                scored_to,
                close_to,
            );
        }
        scored_to = close_to;

        let stats = gateway.fleet_stats();
        if !fresh.is_empty() && first_alarm_at_frames.is_none() {
            first_alarm_at_frames = Some(stats.frames);
        }
        let new_alarms = fresh.len() as u64;
        alarms.extend(fresh);

        // The latest fully-closed window's per-stream scores.
        let mut streams = Vec::new();
        if let Some(monitor) = &monitor {
            if close_to > 0 {
                let window = close_to - 1;
                for (id, name) in names.iter().enumerate() {
                    if let Some(score) = monitor.score(window, id) {
                        streams.push(StreamHealth {
                            name: (*name).to_string(),
                            window,
                            observations: score.observations,
                            nmi: score.nmi,
                            gap_observations: score.gap_observations,
                            timing_nmi: score.timing_nmi,
                        });
                    }
                }
            }
        }

        let mut alarming: Vec<String> = alarms.iter().map(|a| a.stream.clone()).collect();
        alarming.sort();
        alarming.dedup();
        let latency = gateway.latency();
        let delta_frames = stats.frames.saturating_sub(prev_frames);
        prev_frames = stats.frames;
        let snapshot = HealthSnapshot {
            tick,
            virtual_us: tick_end_us,
            stats,
            delta_frames,
            frames_per_vsec: delta_frames as f64 * 1e6 / tick_us as f64,
            p50_ingest_ns: latency.p50_ns(),
            p99_ingest_ns: latency.p99_ns(),
            streams,
            alarms_total: alarms.len() as u64,
            new_alarms,
            alarming,
        };
        health_jsonl.push_str(&snapshot.to_json_line());
        snapshots.push(snapshot);

        // First trigger wins: freeze the flight recorder right here,
        // mid-run, rather than at end of trace.
        if postmortem.is_none() {
            let trigger = if new_alarms > 0 {
                Some("windowed-alarm")
            } else if !gateway.nonces_clean() {
                Some("nonce-audit")
            } else {
                None
            };
            if let Some(trigger) = trigger {
                let (records, dropped) = gateway.flight_records();
                postmortem = Some(render_postmortem(
                    trigger,
                    tick_end_us,
                    tick,
                    &stats,
                    &alarms,
                    &records,
                    dropped,
                ));
                postmortem_trigger = Some(trigger.to_string());
            }
        }
    }

    // Close out the final (possibly partial) window, then run the same
    // end-of-run gate `repro` applies.
    if let Some(monitor) = gateway.monitor() {
        let final_to = monitor.window_of(monitor.watermark_us()) + 1;
        if final_to > scored_to {
            let fresh = monitor.alarms(
                &config.monitor,
                &names,
                &defended,
                config.fleet.seed,
                scored_to,
                final_to,
            );
            if !fresh.is_empty() && first_alarm_at_frames.is_none() {
                first_alarm_at_frames = Some(gateway.fleet_stats().frames);
            }
            alarms.extend(fresh);
        }
    }
    let leakage = gateway
        .leakage_audit()
        .report(config.gate_permutations, config.fleet.seed);
    let gate = LeakageGate {
        nmi_threshold: config.monitor.nmi_threshold,
        p_threshold: config.monitor.p_threshold,
        min_observations: config.monitor.min_observations,
        defended: vec!["AGE".to_string()],
        baseline: vec!["Std".to_string()],
    };
    let outcome = gate.evaluate(&leakage.entries);
    if postmortem.is_none() && !outcome.passed {
        let (records, dropped) = gateway.flight_records();
        postmortem = Some(render_postmortem(
            "gate-failure",
            last_sent_us,
            ticks,
            &gateway.fleet_stats(),
            &alarms,
            &records,
            dropped,
        ));
        postmortem_trigger = Some("gate-failure".to_string());
    }

    let prometheus = snapshots.last().map_or(String::new(), |s| s.prometheus());
    MonitoredRun {
        report: gateway.fleet_report(),
        shard_reports: gateway.shard_reports(),
        snapshots,
        health_jsonl,
        prometheus,
        alarms,
        first_alarm_at_frames,
        postmortem_trigger,
        postmortem,
        leakage,
        gate: outcome,
    }
}
