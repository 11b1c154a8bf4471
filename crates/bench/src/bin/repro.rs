//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run -p age-bench --release --bin repro -- all
//! cargo run -p age-bench --release --bin repro -- table4 fig6
//! cargo run -p age-bench --release --bin repro -- --quick all
//! cargo run -p age-bench --release --bin repro -- --full table6
//! cargo run -p age-bench --release --bin repro -- --telemetry out.jsonl table4
//! ```
//!
//! `--faults <rate>` overrides the drop/corruption rate used by the `faults`
//! extension (a repro knob for the robustness experiments).
//!
//! `--telemetry <path>` streams one JSON object per encoded batch to `path`
//! (stage timings, group layout, message length) and prints a per-stream
//! summary table after the experiments. The only option that needs the
//! `telemetry` feature: the per-batch records come from the encoders'
//! instrumentation, which a `--no-default-features` build compiles out.
//!
//! `--audit` watches the sealed wire frames every experiment transmits,
//! scores per-stream leakage (NMI between event labels and frame sizes,
//! plus a seeded permutation p-value), prints the audit table, and writes
//! `LEAKAGE.json` (`--audit-out <path>` to relocate).
//!
//! `--power-faults <rate>` overrides the power-cut rate used by the
//! `resets` extension and arms the nonce-uniqueness auditor: if any two
//! frames one experiment run sealed shared an (epoch, sequence) pair — a
//! reused nonce — the process exits non-zero. `--audit` arms the same
//! auditor.
//!
//! `--rekey-interval <n>` overrides the epoch length used by the `rekey`
//! extension (the link ratchets to a fresh key every `n` sequence numbers)
//! and arms the same nonce auditor, keyed per key epoch: a
//! rotation that re-seals an old counter under an old key exits non-zero.
//!
//! `--trace <path>` records every experiment's virtual-clock spans
//! (sample → encode → seal → link attempts → ack) and writes them as
//! Chrome `trace_event` JSON — load the file in `chrome://tracing` or
//! Perfetto. Timestamps are virtual microseconds, not wall time, so the
//! file is byte-deterministic for a fixed seed.
//!
//! `--gateway` runs the fleet-scale ingest experiment instead of (or in
//! addition to) the paper experiments: `--sensors N` simulated sensors
//! drain through a `--shards K` sharded gateway, a per-shard ingest
//! table is printed, the deterministic run artifact is written to
//! `GATEWAY.json` (`--gateway-out <path>` to relocate), and the
//! two-channel leakage gate plus both nonce audits must pass or the process exits non-zero (deferred to the end
//! of the run so trace/telemetry artifacts still land). The artifact is
//! byte-identical at any `--shards`/`--threads` value — CI's
//! determinism leg compares two such runs with `cmp`. Combined with
//! `--trace`, gateway ingest emits per-shard span trees
//! (ingest → decode → audit) into the same Chrome-trace file.
//!
//! `--health <path>` arms the streaming monitor on that same fleet run
//! (windowed leakage monitor + flight recorder + periodic health
//! snapshots): the fleet drains in virtual half-second ticks, one JSON
//! line per tick goes to `path`, and a Prometheus-style exposition of
//! the final snapshot to `<path>.prom`. The stream is byte-identical at
//! any shard/thread count — CI `cmp`s it at 1 vs 4 shards — and arming
//! the monitor changes no `GATEWAY.json` byte, nor any column of the
//! per-shard table. Implies `--gateway`.
//!
//! `--postmortem <dir>` arms the monitor too: the first windowed alarm
//! (or dirty nonce audit, or end-of-run gate failure) freezes the merged
//! flight-recorder ring into `<dir>/POSTMORTEM.json`. Implies
//! `--gateway`.
//!
//! `--inject-regression <us>` runs the monitor-leg regression scenario
//! instead of the plain fleet: after virtual time `us`, defended
//! sensors delay transmissions in proportion to the event class, so the
//! windowed monitor must raise a timing-leak alarm mid-run — CI runs
//! this and asserts the alarm and postmortem appear. `GATEWAY.json` then
//! describes that injected fleet; its gate verdict is printed but not
//! enforced (the fleet is meant to leak), the nonce audits still are.

use std::time::Instant;

use age_bench::{run_experiment, run_extension, Settings, EXPERIMENTS, EXTENSIONS};
use age_sim::fleet::FleetConfig;
use age_sim::monitor::{fleet_monitor, regression_scenario, run_fleet, FleetRunConfig};

/// Takes the value after a flag and parses it; prints `error` and exits 2
/// when the value is missing or `parse` rejects it.
fn flag_value<T>(
    args: &mut impl Iterator<Item = String>,
    error: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    match args.next().as_deref().and_then(parse) {
        Some(value) => value,
        None => {
            eprintln!("{error}");
            std::process::exit(2);
        }
    }
}

/// Writes an output artifact; prints which one could not be written and
/// exits 2 on failure.
fn write_artifact(path: &str, what: &str, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("cannot write {what} '{path}': {e}");
        std::process::exit(2);
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut settings = Settings::standard();
    let mut ids: Vec<String> = Vec::new();
    let mut telemetry_path: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut fault_rate: Option<f64> = None;
    let mut power_fault_rate: Option<f64> = None;
    let mut rekey_interval: Option<u64> = None;
    let mut audit = false;
    let mut audit_out = String::from("LEAKAGE.json");
    let mut trace_path: Option<String> = None;
    let mut gateway = false;
    let mut gateway_out = String::from("GATEWAY.json");
    let mut sensors: u64 = 10_000;
    let mut shards: usize = 4;
    let mut health_out: Option<String> = None;
    let mut postmortem_dir: Option<String> = None;
    let mut inject_regression_us: Option<u64> = None;
    let path = |p: &str| Some(p.to_string());
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--audit" => audit = true,
            "--gateway" => gateway = true,
            "--gateway-out" => {
                gateway_out = flag_value(&mut args, "--gateway-out needs an output path", path);
                gateway = true;
            }
            "--sensors" => {
                sensors = flag_value(&mut args, "--sensors needs a positive integer", |n| {
                    n.parse().ok().filter(|&n| n > 0)
                });
            }
            "--shards" => {
                shards = flag_value(&mut args, "--shards needs a positive integer", |n| {
                    n.parse().ok().filter(|&n| n > 0)
                });
            }
            "--audit-out" => {
                audit_out = flag_value(&mut args, "--audit-out needs an output path", path);
                audit = true;
            }
            "--quick" => settings = Settings::quick(),
            "--full" => settings = Settings::full(),
            "--threads" => {
                threads = Some(flag_value(
                    &mut args,
                    "--threads needs a positive integer",
                    |n| n.parse().ok().filter(|&n| n > 0),
                ));
            }
            "--faults" => {
                fault_rate = Some(flag_value(
                    &mut args,
                    "--faults needs a rate in 0.0..=1.0",
                    |n| n.parse().ok().filter(|rate| (0.0..=1.0).contains(rate)),
                ));
            }
            "--power-faults" => {
                power_fault_rate = Some(flag_value(
                    &mut args,
                    "--power-faults needs a rate in 0.0..=1.0",
                    |n| n.parse().ok().filter(|rate| (0.0..=1.0).contains(rate)),
                ));
            }
            "--rekey-interval" => {
                rekey_interval = Some(flag_value(
                    &mut args,
                    "--rekey-interval needs a positive integer",
                    |n| n.parse().ok().filter(|&n| n > 0),
                ));
            }
            "--telemetry" => {
                telemetry_path = Some(flag_value(
                    &mut args,
                    "--telemetry needs an output path",
                    path,
                ));
            }
            "--trace" => {
                trace_path = Some(flag_value(&mut args, "--trace needs an output path", path))
            }
            "--health" => {
                health_out = Some(flag_value(&mut args, "--health needs an output path", path))
            }
            "--postmortem" => {
                postmortem_dir = Some(flag_value(
                    &mut args,
                    "--postmortem needs an output directory",
                    path,
                ));
            }
            "--inject-regression" => {
                inject_regression_us = Some(flag_value(
                    &mut args,
                    "--inject-regression needs a virtual-time threshold in µs",
                    |n| n.parse().ok(),
                ));
            }
            "all" => ids.extend(EXPERIMENTS.iter().map(|s| s.to_string())),
            "extensions" => ids.extend(EXTENSIONS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }
    // Applied after the scale flags so `--threads 2 --quick` still works.
    if let Some(n) = threads {
        settings.threads = n;
    }
    if fault_rate.is_some() {
        settings.fault_rate = fault_rate;
    }
    if power_fault_rate.is_some() {
        settings.power_fault_rate = power_fault_rate;
    }
    if rekey_interval.is_some() {
        settings.rekey_interval = rekey_interval;
    }
    // The monitored-run flags only make sense with the fleet experiment.
    let monitored =
        health_out.is_some() || postmortem_dir.is_some() || inject_regression_us.is_some();
    gateway |= monitored;
    if ids.is_empty() && !gateway {
        eprintln!(
            "usage: repro [--quick|--full] [--threads N] [--faults RATE] \
             [--power-faults RATE] [--rekey-interval N] [--telemetry out.jsonl] [--audit] \
             [--audit-out LEAKAGE.json] [--trace TRACE.json] \
             [--gateway [--sensors N] [--shards K] [--gateway-out GATEWAY.json] \
             [--health HEALTH.jsonl] [--postmortem DIR] [--inject-regression US]] \
             <experiment...|all|extensions>"
        );
        eprintln!("experiments: {}", EXPERIMENTS.join(" "));
        eprintln!("extensions:  {}", EXTENSIONS.join(" "));
        std::process::exit(2);
    }
    ids.dedup();

    // Per-batch records come from the encoders' own instrumentation, which
    // a `--no-default-features` (sensor-flavored) build compiles out.
    if telemetry_path.is_some() && !cfg!(feature = "telemetry") {
        eprintln!(
            "--telemetry requires the `telemetry` feature (this binary was built without it)"
        );
        std::process::exit(2);
    }

    // Sinks go in before the gateway runs: shard tracers capture the
    // current sink at construction, so `--trace --gateway` only records
    // ingest spans if the trace sink is already installed here. The guard
    // keeps them installed on this thread until the end of `main`; the
    // sweep pool and the tracers hand them on to their workers.
    let (summary_sink, leakage_sink, nonce_sink, trace_sink, sink_guard) = {
        use std::sync::Arc;
        let mut sinks: Vec<Arc<dyn age_telemetry::Sink>> = Vec::new();
        let summary = telemetry_path.as_deref().map(|path| {
            let jsonl = match age_telemetry::JsonlSink::create(path) {
                Ok(sink) => sink,
                Err(e) => {
                    eprintln!("cannot create telemetry file '{path}': {e}");
                    std::process::exit(2);
                }
            };
            sinks.push(Arc::new(jsonl));
            let summary = Arc::new(age_telemetry::SummarySink::new());
            sinks.push(summary.clone());
            summary
        });
        let leakage = audit.then(|| {
            let sink = Arc::new(age_telemetry::LeakageSink::new());
            sinks.push(sink.clone());
            sink
        });
        // Nonce uniqueness is audited whenever wire frames are being
        // watched anyway, and always when power faults or rekeying are in
        // play — a reboot or rotation that reuses a (key, nonce) pair
        // must fail the run.
        let nonce = (audit || power_fault_rate.is_some() || rekey_interval.is_some()).then(|| {
            let sink = Arc::new(age_telemetry::NonceAuditSink::new());
            sinks.push(sink.clone());
            sink
        });
        // Span emission is off by default (tracing every experiment costs
        // memory); installing the trace sink is what arms it.
        let trace = trace_path.is_some().then(|| {
            let sink = Arc::new(age_telemetry::TraceSink::new());
            sinks.push(sink.clone());
            sink
        });
        let guard = (!sinks.is_empty())
            .then(|| age_telemetry::install_thread(Arc::new(age_telemetry::FanoutSink(sinks))));
        (summary, leakage, nonce, trace, guard)
    };

    // A failed gate or nonce audit no longer exits on the spot: the
    // verdict is deferred to the end of `main` so the trace, telemetry,
    // health, and postmortem artifacts still land for the postmortem.
    let mut gateway_failed = false;

    if gateway {
        let fleet = FleetConfig {
            rekey_interval: settings.rekey_interval,
            ..FleetConfig::new(sensors, settings.seed)
        };
        let threads = if settings.threads > 0 {
            settings.threads
        } else {
            shards
        };
        let mut config = FleetRunConfig {
            permutations: settings.permutations.min(500),
            monitor: monitored.then(fleet_monitor),
            ..FleetRunConfig::new(fleet, shards, threads)
        };
        // An injected regression runs the monitor-leg scenario's fleet
        // and windows on this run's seed, rekey schedule and shape.
        if let Some(after_us) = inject_regression_us {
            let scenario = regression_scenario(sensors, fleet.seed);
            config.fleet = FleetConfig {
                regress_timing_after_us: Some(after_us),
                rekey_interval: fleet.rekey_interval,
                ..scenario.fleet
            };
            config.monitor = scenario.monitor;
        }
        let start = Instant::now();
        let run = run_fleet(&config);
        print!("{}", run.report);
        println!("per-shard ingest:");
        print!("{}", age_gateway::shard_table(&run.shard_reports));
        print!("{}", run.leakage);
        println!(
            "nonce audits (seal-side and gateway-side): {}",
            if run.nonce_clean { "clean" } else { "VIOLATED" }
        );
        write_artifact(&gateway_out, "gateway report", &run.gateway_json());
        println!("[gateway report written to {gateway_out}]");
        println!(
            "[gateway: {} sensors through {} shards in {:.1}s]\n",
            sensors,
            shards,
            start.elapsed().as_secs_f64()
        );
        // An injected regression is *supposed* to leak, so its gate is
        // printed but not enforced; the nonce audits always are.
        if (inject_regression_us.is_none() && !run.gate_passed()) || !run.nonce_clean {
            eprintln!("gateway run FAILED its leakage gate or nonce audit");
            gateway_failed = true;
        }

        if monitored {
            println!(
                "[monitored run: {} health ticks, {} windowed alarm(s)]",
                run.snapshots.len(),
                run.alarms.len()
            );
            for alarm in &run.alarms {
                println!("  {alarm}");
            }
            if let (Some(at), false) = (run.first_alarm_at_frames, run.alarms.is_empty()) {
                println!(
                    "  first alarm fired at {at} of {} frames (mid-run)",
                    run.report.stats.frames
                );
            }
            if let Some(path) = &health_out {
                write_artifact(path, "health stream", &run.health_jsonl);
                let prom_path = format!("{path}.prom");
                write_artifact(&prom_path, "prometheus exposition", &run.prometheus);
                println!(
                    "[{} health snapshots written to {path}; final exposition to {prom_path}]",
                    run.snapshots.len()
                );
            }
            if let Some(dir) = &postmortem_dir {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create postmortem directory '{dir}': {e}");
                    std::process::exit(2);
                }
                match (&run.postmortem, &run.postmortem_trigger) {
                    (Some(body), Some(trigger)) => {
                        let path = format!("{dir}/POSTMORTEM.json");
                        write_artifact(&path, "postmortem", body);
                        println!("[postmortem ({trigger}) written to {path}]");
                    }
                    _ => println!("[no postmortem trigger — flight recorder stayed quiet]"),
                }
            }
        }
    }

    for id in &ids {
        let start = Instant::now();
        match run_experiment(id, &settings).or_else(|| run_extension(id, &settings)) {
            Some(output) => {
                println!("{output}");
                println!(
                    "[{} completed in {:.1}s]\n",
                    id,
                    start.elapsed().as_secs_f64()
                );
            }
            None => {
                eprintln!(
                    "unknown experiment '{id}'; known: {} | extensions: {}",
                    EXPERIMENTS.join(" "),
                    EXTENSIONS.join(" ")
                );
                std::process::exit(2);
            }
        }
    }

    // Uninstalling flushes the sinks before their contents are read.
    drop(sink_guard);
    if let Some(summary) = summary_sink {
        let summary = summary.take();
        if !summary.is_empty() {
            println!("telemetry summary (message sizes per stream):");
            print!("{summary}");
        }
        if let Some(path) = &telemetry_path {
            println!("[per-batch records written to {path}]");
        }
    }
    if let Some(leakage) = leakage_sink {
        let report = age_bench::audit::finalize(&leakage.take(), &settings);
        if report.entries.is_empty() {
            println!("leakage audit: no wire frames observed (did the experiments transmit?)");
        } else {
            println!("leakage audit (sealed wire frames per stream):");
            print!("{report}");
        }
        write_artifact(&audit_out, "leakage report", &report.to_json());
        println!("[leakage report written to {audit_out}]");
    }
    if let Some(trace) = trace_sink {
        let spans = trace.take();
        let path = trace_path.as_deref().expect("trace sink implies a path");
        write_artifact(path, "trace", &age_telemetry::render_chrome_json(&spans));
        println!(
            "[{} virtual-clock spans written to {path} (chrome://tracing format)]",
            spans.len()
        );
    }
    if let Some(nonce) = nonce_sink {
        let audit = nonce.take();
        println!("nonce audit (run-wide (epoch, sequence) uniqueness):");
        print!("{audit}");
        if !audit.is_clean() {
            eprintln!("nonce audit FAILED: a (key, nonce) pair was used twice");
            std::process::exit(1);
        }
    }
    // The deferred gateway verdict: every artifact above has been
    // written, so a failed gate or nonce audit can exit non-zero now.
    if gateway_failed {
        std::process::exit(1);
    }
}
