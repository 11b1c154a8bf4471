//! Shared fleet-gateway runner for `bench_gateway` and `repro --gateway`.
//!
//! Generates seeded fleet traffic with [`age_sim::fleet`], drains it
//! through an [`age_gateway::Gateway`], and assembles `GATEWAY.json`:
//! the deterministic artifact CI compares byte-for-byte across
//! shard/thread configurations. Wall-clock numbers (throughput, ingest
//! latency) are returned separately and never enter that artifact.

use std::time::Instant;

use age_gateway::{FleetReport, LatencyHistogram, ShardReport};
use age_sim::fleet::{fleet_gateway_config, generate, provisioned_gateway, FleetConfig};

use crate::audit::default_gate;
use age_telemetry::{LeakageReport, MonitorConfig};

/// Shape of one gateway run.
#[derive(Debug, Clone, Copy)]
pub struct GatewayRunConfig {
    /// The simulated fleet: sensors, frames per sensor, seed (keys,
    /// events, phases; also the leakage report's permutation seed) and
    /// rekey schedule.
    pub fleet: FleetConfig,
    /// Session-table shards.
    pub shards: usize,
    /// Worker threads for the drain (clamped to the shard count).
    pub threads: usize,
    /// Permutations for the leakage report's p-values.
    pub permutations: usize,
    /// Record per-frame wall-clock ingest latency.
    pub record_latency: bool,
    /// Arm the streaming leakage monitor (500 ms windows) inside every
    /// shard. Changes no deterministic artifact byte — the monitor only
    /// observes — so `GATEWAY.json` stays comparable; the point of the
    /// knob is measuring the monitor's ingest overhead.
    pub monitored: bool,
}

impl GatewayRunConfig {
    /// The standard gateway shape for `fleet`: 4 shards and threads,
    /// 200 permutations, latency and monitor off.
    pub fn new(fleet: FleetConfig) -> GatewayRunConfig {
        GatewayRunConfig {
            fleet,
            shards: 4,
            threads: 4,
            permutations: 200,
            record_latency: false,
            monitored: false,
        }
    }
}

/// Everything one run produces. Deterministic pieces (`report`,
/// `gateway_json`) depend only on the traffic; timing pieces depend on
/// the machine.
pub struct GatewayRun {
    /// The deterministic fleet rollup.
    pub report: FleetReport,
    /// Sessions per shard.
    pub occupancy: Vec<usize>,
    /// Per-shard ingest accounting — the `repro --gateway` table.
    pub shard_reports: Vec<ShardReport>,
    /// Merged ingest latency (empty unless `record_latency`).
    pub latency: LatencyHistogram,
    /// Wall-clock seconds spent draining the traffic.
    pub ingest_seconds: f64,
    /// Wall-clock seconds spent synthesizing the traffic.
    pub generate_seconds: f64,
    /// Scored leakage report over the aggregated fleet traffic, with
    /// the pinned gate verdict stamped.
    pub leakage: LeakageReport,
    /// Seal-side and gateway-side nonce audits both clean.
    pub nonce_clean: bool,
}

impl GatewayRun {
    /// Whether the two-channel leakage gate passed on fleet traffic.
    pub fn gate_passed(&self) -> bool {
        self.leakage.gate.as_ref().is_some_and(|g| g.passed)
    }

    /// `GATEWAY.json`: the deterministic run artifact. Byte-identical
    /// for a given fleet at any shard or thread count — CI's determinism
    /// leg relies on exactly this.
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

/// Runs one fleet through one gateway.
pub fn run_gateway(config: &GatewayRunConfig) -> GatewayRun {
    let fleet = &config.fleet;
    let generate_start = Instant::now();
    let traffic = generate(fleet);
    let generate_seconds = generate_start.elapsed().as_secs_f64();

    let mut gateway_config = fleet_gateway_config(fleet, config.shards);
    gateway_config.record_latency = config.record_latency;
    if config.monitored {
        gateway_config.monitor = Some(MonitorConfig {
            window_us: 500_000,
            ..MonitorConfig::default()
        });
    }
    let mut gateway = provisioned_gateway(fleet, gateway_config);

    let ingest_start = Instant::now();
    gateway.run(&traffic.frames, config.threads);
    let ingest_seconds = ingest_start.elapsed().as_secs_f64();

    let leakage = {
        let mut report = gateway
            .leakage_audit()
            .report(config.permutations, fleet.seed);
        report.gate = Some(default_gate().evaluate(&report.entries));
        report
    };
    let nonce_clean = traffic.sealed_nonces.is_clean() && gateway.nonces_clean();

    GatewayRun {
        report: gateway.fleet_report(),
        occupancy: gateway.shard_occupancy(),
        shard_reports: gateway.shard_reports(),
        latency: gateway.latency(),
        ingest_seconds,
        generate_seconds,
        leakage,
        nonce_clean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rotations(rekey_interval: Option<u64>) -> u64 {
        let mut config = GatewayRunConfig::new(FleetConfig {
            rekey_interval,
            ..FleetConfig::new(200, 7)
        });
        config.permutations = 10;
        run_gateway(&config).report.stats.rotations
    }

    #[test]
    fn the_fleet_rekey_setting_reaches_the_run() {
        assert!(rotations(Some(2)) > 0);
        assert_eq!(rotations(None), 0);
    }
}
