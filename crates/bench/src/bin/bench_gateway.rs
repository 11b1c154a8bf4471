//! Fleet-gateway throughput benchmark, written to `BENCH_gateway.json`
//! (schema `age-bench/gateway-v2`).
//!
//! Synthesizes a seeded fleet (default 100k sensors × 4 frames), drains
//! it through the sharded gateway, and reports sustained ingest
//! throughput, per-shard session balance, and steady-state heap traffic
//! on the single-shard ingest path (which must be zero — the property
//! `crates/gateway/tests/alloc.rs` enforces per frame class). Per-frame
//! latency quantiles are `bench_pipeline`'s: the gateway reads no clock.
//!
//! ```text
//! cargo run -p age-bench --release --bin bench_gateway
//! cargo run -p age-bench --release --bin bench_gateway -- --sensors 200000 --shards 8
//! cargo run -p age-bench --release --bin bench_gateway -- --check
//! ```
//!
//! `--check` is the CI perf-sanity mode: a reduced fleet re-measure that
//! fails (non-zero exit) if steady-state ingest allocates at all, if
//! `ns_per_frame` regressed to more than 3× the committed
//! `BENCH_gateway.json` figure, if arming the streaming leakage
//! monitor costs more than 10% per frame, or if staggered epoch
//! rekeying costs more than 10% per frame (the absolute gate is a
//! min-of-3; the overhead gates interleave paired rounds and take a
//! low-quartile ratio to survive noisy CI boxes). It writes nothing.

use std::fmt::Write as _;
use std::time::Instant;

use age_sim::fleet::{fleet_gateway_config, generate, provisioned_gateway, FleetConfig};
use age_sim::monitor::{fleet_monitor, run_fleet, FleetRunConfig};
use age_telemetry::alloc::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const SCHEMA: &str = "age-bench/gateway-v2";

fn die(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

/// One timed single-thread ingest pass over pre-generated traffic:
/// build a fresh provisioned gateway (replay windows forbid reusing
/// one), warm it on the first 75% of the trace, time the rest. Returns
/// ns/frame and allocs/frame. Thread-local alloc counters require one
/// thread, so it uses `ingest` rather than `run`. The trace must be
/// deep (many frames per sensor) and the warm-up long: a session only
/// stops allocating once it has seen every (event, size) and
/// (event, gap) histogram key at least once, and events are drawn
/// randomly per frame.
fn timed_pass(
    fleet: &FleetConfig,
    traffic: &age_sim::fleet::FleetTraffic,
    monitored: bool,
) -> (f64, f64) {
    let mut gateway_config = fleet_gateway_config(fleet, 1);
    gateway_config.monitor = monitored.then(fleet_monitor);
    let mut gateway = provisioned_gateway(fleet, gateway_config);
    let split = traffic.frames.len() * 3 / 4;
    for frame in &traffic.frames[..split] {
        let _ = gateway.ingest(frame);
    }
    let steady = &traffic.frames[split..];
    let before = alloc::snapshot();
    let start = Instant::now();
    for frame in steady {
        let _ = gateway.ingest(frame);
    }
    let elapsed = start.elapsed().as_nanos() as f64;
    let delta = alloc::snapshot().since(before);
    (
        elapsed / steady.len() as f64,
        delta.allocations as f64 / steady.len() as f64,
    )
}

/// Min-of-3 steady-state measure over one static-key trace: the minimum
/// ns/frame (robust to scheduler noise) and the *maximum* allocs/frame
/// (an allocation on any round is a real regression).
fn min_steady(sensors: u64, frames_per_sensor: usize, seed: u64, monitored: bool) -> (f64, f64) {
    let fleet = FleetConfig {
        frames_per_sensor,
        ..FleetConfig::new(sensors, seed)
    };
    let traffic = generate(&fleet);
    let mut best_ns = f64::INFINITY;
    let mut worst_allocs: f64 = 0.0;
    for _ in 0..3 {
        let (ns, allocs) = timed_pass(&fleet, &traffic, monitored);
        best_ns = best_ns.min(ns);
        worst_allocs = worst_allocs.max(allocs);
    }
    (best_ns, worst_allocs)
}

/// Paired min-of-N for overhead gates: generates both traces once, then
/// interleaves short baseline and variant ingest rounds so machine
/// drift (thermal throttling, noisy neighbours) lands on both legs
/// equally, and compares the two minima. A sequential min-of-N would
/// attribute any slowdown between the two measurement windows to the
/// variant.
fn min_steady_paired(
    sensors: u64,
    frames_per_sensor: usize,
    seed: u64,
    variant_monitored: bool,
    variant_rekey: Option<u64>,
) -> (f64, f64) {
    let base_fleet = FleetConfig {
        frames_per_sensor,
        ..FleetConfig::new(sensors, seed)
    };
    let base_traffic = generate(&base_fleet);
    let variant_fleet = FleetConfig {
        frames_per_sensor,
        rekey_interval: variant_rekey,
        ..FleetConfig::new(sensors, seed)
    };
    let variant_traffic = generate(&variant_fleet);
    // Lower-quartile of per-round ratios: each round's base and variant
    // passes are adjacent in time, so a slowdown burst inflates both
    // sides of a round's ratio roughly equally, and the low quartile
    // discards the rounds a burst straddles anyway. A true per-frame
    // regression is deterministic — it inflates *every* round's ratio,
    // quartile included — so the gate stays sensitive to real cost
    // while shrugging off noisy-neighbour CI boxes. A min-of-mins
    // across all rounds would compare two different time windows.
    let mut base_ns = f64::INFINITY;
    let mut ratios = Vec::new();
    for _ in 0..9 {
        let (b, _) = timed_pass(&base_fleet, &base_traffic, false);
        let (v, _) = timed_pass(&variant_fleet, &variant_traffic, variant_monitored);
        base_ns = base_ns.min(b);
        ratios.push(v / b.max(1e-9));
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    (base_ns, base_ns * ratios[ratios.len() / 4])
}

fn committed_ns_per_frame(report: &str) -> Option<f64> {
    let key = "\"ns_per_frame\": ";
    let at = report.find(key)? + key.len();
    let rest = &report[at..];
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

fn check_mode() -> ! {
    let report = std::fs::read_to_string("BENCH_gateway.json").unwrap_or_else(|e| {
        die(&format!(
            "--check needs a committed BENCH_gateway.json: {e}"
        ))
    });
    let committed = committed_ns_per_frame(&report)
        .unwrap_or_else(|| die("committed BENCH_gateway.json carries no ns_per_frame"));

    let (ns_per_frame, allocs_per_frame) = min_steady(1_000, 40, 2022, false);
    println!(
        "gateway perf check: {ns_per_frame:.0} ns/frame (committed {committed:.0}, \
         limit {:.0}), {allocs_per_frame:.4} allocs/frame",
        committed * 3.0
    );
    let mut failed = false;
    if allocs_per_frame > 0.0 {
        eprintln!(
            "FAIL: gateway ingest allocates in steady state ({allocs_per_frame:.4} allocs/frame)"
        );
        failed = true;
    }
    if ns_per_frame > committed * 3.0 {
        eprintln!("FAIL: ns_per_frame {ns_per_frame:.0} exceeds 3x the committed {committed:.0}");
        failed = true;
    }
    let (base_ns, monitored_ns) = min_steady_paired(1_000, 40, 2022, true, None);
    let overhead = monitored_ns / base_ns.max(1e-9);
    println!(
        "monitored ingest: {monitored_ns:.0} ns/frame ({:.1}% overhead, limit 10%)",
        (overhead - 1.0) * 100.0
    );
    if overhead > 1.10 {
        eprintln!(
            "FAIL: streaming monitor costs {:.1}% per frame (limit 10%)",
            (overhead - 1.0) * 100.0
        );
        failed = true;
    }
    // Staggered rekeying pays at each epoch boundary: the boundary frame
    // derives the next key (the epoch is never on the wire; the receiver
    // computes it from the sequence number) and the cipher is swapped.
    // Amortized over an 80-frame epoch
    // (still far faster than any deployed cadence) that must fit in the
    // same 10% envelope. Rotation swaps the session cipher through the
    // factory Box, so the zero-alloc assertion deliberately does not
    // apply to this leg.
    let (rekey_base_ns, rekey_ns) = min_steady_paired(1_000, 80, 2022, false, Some(80));
    let rekey_overhead = rekey_ns / rekey_base_ns.max(1e-9);
    println!(
        "staggered-rekey ingest: {rekey_ns:.0} ns/frame ({:.1}% overhead, limit 10%)",
        (rekey_overhead - 1.0) * 100.0
    );
    if rekey_overhead > 1.10 {
        eprintln!(
            "FAIL: staggered rekeying costs {:.1}% per frame (limit 10%)",
            (rekey_overhead - 1.0) * 100.0
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("gateway perf check passed");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        check_mode();
    }
    let mut config = FleetRunConfig::new(FleetConfig::new(100_000, 2022), 4, 4);
    let mut out_path = String::from("BENCH_gateway.json");
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let positive = |value: Option<&String>| match value.and_then(|n| n.parse().ok()) {
            Some(n) if n > 0 => n,
            _ => die(&format!("{flag} needs a positive integer")),
        };
        match flag.as_str() {
            "--sensors" => config.fleet.sensors = positive(args.next()) as u64,
            "--frames" => config.fleet.frames_per_sensor = positive(args.next()),
            "--shards" => config.shards = positive(args.next()),
            "--threads" => config.threads = positive(args.next()),
            "--out" => match args.next() {
                Some(path) => out_path = path.clone(),
                None => die("--out needs a path"),
            },
            other => die(&format!(
                "unknown flag '{other}'; usage: bench_gateway [--sensors N] [--frames N] \
                 [--shards K] [--threads T] [--out FILE] [--check]"
            )),
        }
    }

    let frames = config.fleet.sensors * config.fleet.frames_per_sensor as u64;
    println!(
        "fleet: {} sensors x {} frames = {} frames, {} shards, {} threads",
        config.fleet.sensors, config.fleet.frames_per_sensor, frames, config.shards, config.threads
    );
    let run = run_fleet(&config);
    let frames_per_sec = run.report.stats.frames as f64 / run.ingest_seconds.max(1e-9);
    let sessions = run.shard_reports.iter().map(|r| r.sessions);
    let max_occupancy = sessions.clone().max().unwrap_or(0);
    let min_occupancy = sessions.min().unwrap_or(0);
    let balance = max_occupancy as f64 / (min_occupancy.max(1)) as f64;
    let (steady_ns, steady_allocs) = min_steady(1_000, 40, config.fleet.seed, false);
    let (monitored_ns, monitor_overhead) = {
        let (ns, _) = min_steady(1_000, 40, config.fleet.seed, true);
        (ns, ns / steady_ns.max(1e-9))
    };

    print!("{}", run.report);
    println!(
        "generated in {:.2}s, drained in {:.2}s ({:.0} frames/s)",
        run.generate_seconds, run.ingest_seconds, frames_per_sec
    );
    println!(
        "shard balance: {min_occupancy}..={max_occupancy} sessions/shard (ratio {balance:.3})"
    );
    println!(
        "steady single-thread ingest: {steady_ns:.0} ns/frame, {steady_allocs:.4} allocs/frame"
    );
    println!(
        "monitored ingest: {monitored_ns:.0} ns/frame \
         ({:.1}% streaming-monitor overhead)",
        (monitor_overhead - 1.0) * 100.0
    );
    println!(
        "leakage gate: {}, nonce audits: {}",
        if run.gate_passed() { "PASS" } else { "FAIL" },
        if run.nonce_clean { "clean" } else { "VIOLATED" }
    );

    let mut json = String::with_capacity(1024);
    let _ = write!(
        json,
        "{{\n  \"schema\": \"{SCHEMA}\",\n  \"sensors\": {},\n  \"frames_per_sensor\": {},\n  \
         \"frames\": {},\n  \"shards\": {},\n  \"threads\": {},\n  \"seed\": {},\n  \
         \"accepted\": {},\n  \"rejected\": {},\n  \"generate_seconds\": {:.3},\n  \
         \"ingest_seconds\": {:.3},\n  \"frames_per_sec\": {:.0},\n  \"ns_per_frame\": {:.1},\n  \
         \"steady_allocs_per_frame\": {:.4},\n  \
         \"min_shard_sessions\": {},\n  \"max_shard_sessions\": {},\n  \"balance_ratio\": {:.4}",
        config.fleet.sensors,
        config.fleet.frames_per_sensor,
        frames,
        config.shards,
        config.threads,
        config.fleet.seed,
        run.report.stats.accepted,
        run.report.stats.rejected(),
        run.generate_seconds,
        run.ingest_seconds,
        frames_per_sec,
        steady_ns,
        steady_allocs,
        min_occupancy,
        max_occupancy,
        balance,
    );
    let _ = write!(
        json,
        ",\n  \"monitored_ns_per_frame\": {:.1},\n  \"monitor_overhead_ratio\": {:.4},\n  \
         \"gate_passed\": {},\n  \"nonce_clean\": {}",
        monitored_ns,
        monitor_overhead,
        run.gate_passed(),
        run.nonce_clean
    );
    json.push_str("\n}\n");
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("[report written to {out_path}]"),
        Err(e) => die(&format!("cannot write '{out_path}': {e}")),
    }

    if !run.gate_passed() || !run.nonce_clean {
        std::process::exit(1);
    }
}
