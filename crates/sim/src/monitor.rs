//! The fleet driver: one run behind `GATEWAY.json`, `HEALTH.jsonl` and
//! `POSTMORTEM.json`.
//!
//! [`run_fleet`] synthesizes a fleet trace, provisions a gateway, drains
//! the trace and scores it. Unmonitored, the trace drains in one
//! [`Gateway::run`] with wall-clock ingest latency recorded. Armed with a
//! [`MonitorConfig`], it drains in virtual-time segments (*ticks*,
//! [`HEALTH_TICK_US`] apart) instead. After each tick it folds the shard
//! monitors, scores every leakage window the tick closed, and emits one
//! [`HealthSnapshot`] line — so a regression that begins mid-trace raises
//! its alarm while frames are still in flight, which the end-of-run
//! [`LeakageGate`] structurally cannot do. The first trigger (a windowed
//! alarm, a dirty gateway nonce audit, or — failing those — an end-of-run
//! gate failure) freezes the merged flight-recorder contents into a
//! `POSTMORTEM.json` string.
//!
//! Either way the run ends with the same verdicts: the leakage report
//! with its gate stamped, and the seal-side and gateway-side nonce
//! audits. The monitor only observes, so [`FleetRun::gateway_json`] is
//! byte-identical monitored or not.
//!
//! Everything but the wall-clock fields is deterministic: the tick
//! boundaries are virtual time, every per-tick rollup is a commutative
//! fold over shards, and alarm p-values are seeded per
//! `(window, stream)` — so `gateway_json`, `health_jsonl` and
//! `postmortem` are byte-identical at any shard or thread count (pinned
//! by `tests/monitor.rs` and `cmp`'d in CI).

use std::time::Instant;

use age_gateway::{
    render_postmortem, FleetFrame, FleetReport, Gateway, HealthSnapshot, LatencyHistogram,
    ShardReport, StreamHealth,
};
use age_telemetry::{Alarm, LeakageGate, LeakageReport, MonitorConfig, WindowedMonitor};

use crate::fleet::{
    fleet_cohorts, fleet_gateway_config, generate, provisioned_gateway, FleetConfig,
};

/// Health snapshot period of a monitored run, in virtual microseconds.
pub const HEALTH_TICK_US: u64 = 500_000;

/// Flight-recorder ring capacity per shard: big enough that typical
/// test fleets never evict, so a postmortem is the same at any shard
/// count.
const RECORDER_CAPACITY: usize = 4096;

/// The fleet's streaming monitor: 500 ms leakage windows (roughly two
/// frames per sensor per window at the ~258 ms per-frame cadence) and
/// the shared leak thresholds.
pub fn fleet_monitor() -> MonitorConfig {
    MonitorConfig {
        window_us: 500_000,
        ..MonitorConfig::default()
    }
}

/// Shape of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetRunConfig {
    /// The simulated fleet: sensors, frames per sensor, seed (keys,
    /// events, phases; also the leakage report's permutation seed),
    /// rekey schedule and injected faults.
    pub fleet: FleetConfig,
    /// Session-table shards.
    pub shards: usize,
    /// Worker threads for each drain (clamped to the shard count).
    pub threads: usize,
    /// Permutations for the end-of-run leakage report's p-values.
    pub permutations: usize,
    /// Streaming-monitor window shape and thresholds; `None` drains in
    /// one shot and records latency. The end-of-run gate uses these
    /// thresholds (the defaults when unmonitored), so the two layers
    /// cannot silently disagree about what counts as a leak.
    pub monitor: Option<MonitorConfig>,
}

impl FleetRunConfig {
    /// An unmonitored run of `fleet` with 200 permutations.
    pub fn new(fleet: FleetConfig, shards: usize, threads: usize) -> FleetRunConfig {
        FleetRunConfig {
            fleet,
            shards,
            threads,
            permutations: 200,
            monitor: None,
        }
    }
}

/// The monitor-leg regression scenario CI runs: a healthy fleet whose
/// defended cohort develops an event-proportional transmission delay
/// after one virtual second. Sized so several clean windows close
/// before the regression starts and several leaky ones close before
/// the trace ends — the windowed alarm must fire mid-run, frames still
/// in flight, where the end-of-run gate has not yet spoken.
pub fn regression_scenario(sensors: u64, seed: u64) -> FleetRunConfig {
    let mut fleet = FleetConfig::new(sensors, seed);
    fleet.frames_per_sensor = 8;
    fleet.regress_timing_after_us = Some(1_000_000);
    FleetRunConfig {
        // One-second windows collect ~4 gaps per sensor — enough mass that
        // the permutation test resolves the injected correlation sharply.
        monitor: Some(MonitorConfig {
            window_us: 1_000_000,
            ..fleet_monitor()
        }),
        ..FleetRunConfig::new(fleet, 4, 4)
    }
}

/// A plumbing-health scenario: after one virtual second every third
/// sensor's frames arrive with a flipped ciphertext byte, so the auth
/// rung rejects ~a third of traffic and the rejection-rate alarm trips.
pub fn corruption_scenario(sensors: u64, seed: u64) -> FleetRunConfig {
    let mut fleet = FleetConfig::new(sensors, seed);
    fleet.frames_per_sensor = 8;
    fleet.corrupt_after_us = Some(1_000_000);
    FleetRunConfig {
        monitor: Some(fleet_monitor()),
        ..FleetRunConfig::new(fleet, 4, 4)
    }
}

/// Everything one fleet run produces. The health fields are empty
/// unless the run was monitored; `latency` is empty if it was.
#[derive(Debug)]
pub struct FleetRun {
    /// The deterministic end-of-run fleet rollup.
    pub report: FleetReport,
    /// Sessions per shard.
    pub occupancy: Vec<usize>,
    /// Per-shard ingest accounting (shard-count-dependent on purpose).
    pub shard_reports: Vec<ShardReport>,
    /// Merged wall-clock ingest latency (empty when monitored).
    pub latency: LatencyHistogram,
    /// Wall-clock seconds spent synthesizing the traffic.
    pub generate_seconds: f64,
    /// Wall-clock seconds spent draining it.
    pub ingest_seconds: f64,
    /// The end-of-run leakage report over the aggregated fleet traffic,
    /// with the gate verdict stamped.
    pub leakage: LeakageReport,
    /// Seal-side and gateway-side nonce audits both clean.
    pub nonce_clean: bool,
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
}

impl FleetRun {
    /// Whether the two-channel leakage gate passed on fleet traffic.
    pub fn gate_passed(&self) -> bool {
        self.leakage.gate.as_ref().is_some_and(|g| g.passed)
    }

    /// `GATEWAY.json`: the deterministic run artifact. Byte-identical
    /// for a given fleet at any shard or thread count, monitored or not.
    pub fn gateway_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n\"version\": 1,\n\"fleet\": ");
        out.push_str(&self.report.to_json());
        out.push_str(",\n\"nonce_clean\": ");
        out.push_str(if self.nonce_clean { "true" } else { "false" });
        out.push_str(",\n\"leakage\": ");
        out.push_str(&self.leakage.to_json());
        out.push_str("}\n");
        out
    }
}

/// What a monitored drain adds to a run.
#[derive(Default)]
struct Health {
    snapshots: Vec<HealthSnapshot>,
    health_jsonl: String,
    alarms: Vec<Alarm>,
    first_alarm_at_frames: Option<u64>,
    postmortem_trigger: Option<String>,
    postmortem: Option<String>,
}

impl Health {
    /// Records freshly scored alarms, noting the fleet frame count at
    /// the first one; returns how many there were.
    fn raise(&mut self, fresh: Vec<Alarm>, frames: u64) -> u64 {
        if !fresh.is_empty() && self.first_alarm_at_frames.is_none() {
            self.first_alarm_at_frames = Some(frames);
        }
        let raised = fresh.len() as u64;
        self.alarms.extend(fresh);
        raised
    }

    /// Freezes the merged flight recorder and the fleet counters into
    /// the postmortem.
    fn freeze(&mut self, trigger: &str, gateway: &Gateway, at_us: u64, tick: u64) {
        let stats = gateway.fleet_stats();
        let (records, dropped) = gateway.flight_records();
        let body = render_postmortem(
            trigger,
            at_us,
            tick,
            &stats,
            &self.alarms,
            &records,
            dropped,
        );
        self.postmortem = Some(body);
        self.postmortem_trigger = Some(trigger.to_string());
    }
}

/// Runs one fleet through one gateway.
pub fn run_fleet(config: &FleetRunConfig) -> FleetRun {
    let fleet = &config.fleet;
    let generate_start = Instant::now();
    let traffic = generate(fleet);
    let generate_seconds = generate_start.elapsed().as_secs_f64();

    let mut gateway_config = fleet_gateway_config(fleet, config.shards);
    // Latency is wall-clock: recorded only when no health stream has to
    // stay comparable across runs.
    gateway_config.record_latency = config.monitor.is_none();
    gateway_config.monitor = config.monitor;
    gateway_config.recorder_capacity = RECORDER_CAPACITY;
    let mut gateway = provisioned_gateway(fleet, gateway_config);

    // Cohort 0 (AGE) is the defended population, cohort 1 (Std) the
    // leaky baseline that proves the detectors live.
    let cohorts: Vec<String> = fleet_cohorts().into_iter().map(|c| c.name).collect();
    let ingest_start = Instant::now();
    let mut health = match &config.monitor {
        None => {
            gateway.run(&traffic.frames, config.threads);
            Health::default()
        }
        Some(monitor) => drain_in_ticks(&mut gateway, &traffic.frames, monitor, &cohorts, config),
    };
    let ingest_seconds = ingest_start.elapsed().as_secs_f64();

    let thresholds = config.monitor.unwrap_or_default();
    let gate = LeakageGate {
        nmi_threshold: thresholds.nmi_threshold,
        p_threshold: thresholds.p_threshold,
        min_observations: thresholds.min_observations,
        defended: cohorts[..1].to_vec(),
        baseline: cohorts[1..].to_vec(),
    };
    let mut leakage = gateway
        .leakage_audit()
        .report(config.permutations, fleet.seed);
    let outcome = gate.evaluate(&leakage.entries);
    if config.monitor.is_some() && health.postmortem.is_none() && !outcome.passed {
        let last_sent_us = traffic.frames.last().map_or(0, |f| f.sent_at_us);
        let ticks = health.snapshots.len() as u64;
        health.freeze("gate-failure", &gateway, last_sent_us, ticks);
    }
    leakage.gate = Some(outcome);

    let prometheus = health
        .snapshots
        .last()
        .map_or(String::new(), |s| s.prometheus());
    FleetRun {
        report: gateway.fleet_report(),
        occupancy: gateway.shard_occupancy(),
        shard_reports: gateway.shard_reports(),
        latency: gateway.latency(),
        generate_seconds,
        ingest_seconds,
        leakage,
        nonce_clean: traffic.sealed_nonces.is_clean() && gateway.nonces_clean(),
        snapshots: health.snapshots,
        health_jsonl: health.health_jsonl,
        prometheus,
        alarms: health.alarms,
        first_alarm_at_frames: health.first_alarm_at_frames,
        postmortem_trigger: health.postmortem_trigger,
        postmortem: health.postmortem,
    }
}

/// Drains `frames` tick by tick, snapshotting health and scoring each
/// closed leakage window after every tick, then closes out the final
/// (possibly partial) window.
fn drain_in_ticks(
    gateway: &mut Gateway,
    frames: &[FleetFrame],
    monitor_config: &MonitorConfig,
    cohorts: &[String],
    config: &FleetRunConfig,
) -> Health {
    let names: Vec<&str> = cohorts.iter().map(String::as_str).collect();
    let defended = [0usize];
    let seed = config.fleet.seed;
    let window_us = monitor_config.window_us.max(1);
    // The gateway's monitor is armed, so the fallback is never taken.
    let merged = |gateway: &Gateway| {
        gateway
            .monitor()
            .unwrap_or_else(|| WindowedMonitor::new(window_us, names.len()))
    };
    let last_sent_us = frames.last().map_or(0, |f| f.sent_at_us);
    let ticks = last_sent_us / HEALTH_TICK_US + 1;

    let mut health = Health {
        snapshots: Vec::with_capacity(ticks as usize),
        ..Health::default()
    };
    let mut cursor = 0usize;
    let mut scored_to = 0u64;
    let mut prev_frames = 0u64;

    for tick in 1..=ticks {
        let tick_end_us = tick * HEALTH_TICK_US;
        let begin = cursor;
        while cursor < frames.len() && frames[cursor].sent_at_us < tick_end_us {
            cursor += 1;
        }
        gateway.run(&frames[begin..cursor], config.threads);

        // Score every window this tick closed. Frames are globally
        // time-sorted, so a window ending at or before `tick_end_us`
        // can never receive another observation — its score is final.
        let monitor = merged(gateway);
        let close_to = (tick_end_us / window_us).max(scored_to);
        let fresh = monitor.alarms(monitor_config, &names, &defended, seed, scored_to, close_to);
        scored_to = close_to;
        let stats = gateway.fleet_stats();
        let new_alarms = health.raise(fresh, stats.frames);

        // The latest fully-closed window's per-stream scores.
        let mut streams = Vec::new();
        if let Some(window) = close_to.checked_sub(1) {
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

        let mut alarming: Vec<String> = health.alarms.iter().map(|a| a.stream.clone()).collect();
        alarming.sort();
        alarming.dedup();
        let delta_frames = stats.frames.saturating_sub(prev_frames);
        prev_frames = stats.frames;
        let snapshot = HealthSnapshot {
            tick,
            virtual_us: tick_end_us,
            stats,
            delta_frames,
            frames_per_vsec: delta_frames as f64 * 1e6 / HEALTH_TICK_US as f64,
            // A monitored run records no wall-clock latency: the
            // quantiles stay 0 so the stream compares across runs.
            p50_ingest_ns: 0,
            p99_ingest_ns: 0,
            streams,
            alarms_total: health.alarms.len() as u64,
            new_alarms,
            alarming,
        };
        health.health_jsonl.push_str(&snapshot.to_json_line());
        health.snapshots.push(snapshot);

        // First trigger wins: freeze the flight recorder right here,
        // mid-run, rather than at end of trace.
        if health.postmortem.is_none() {
            if new_alarms > 0 {
                health.freeze("windowed-alarm", gateway, tick_end_us, tick);
            } else if !gateway.nonces_clean() {
                health.freeze("nonce-audit", gateway, tick_end_us, tick);
            }
        }
    }

    let monitor = merged(gateway);
    let final_to = monitor.window_of(monitor.watermark_us()) + 1;
    if final_to > scored_to {
        let fresh = monitor.alarms(monitor_config, &names, &defended, seed, scored_to, final_to);
        health.raise(fresh, gateway.fleet_stats().frames);
    }
    health
}
