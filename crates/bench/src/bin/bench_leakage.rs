//! The CI leakage-regression gate.
//!
//! Runs the pinned audit sweep (adaptive policies × {Std, Padded, AGE} on
//! the seeded Epilepsy dataset), scores every stream on **two channels** —
//! wire-size NMI and inter-transmission-gap (timing) NMI, each with a
//! seeded permutation p-value — writes `LEAKAGE.json` (format v2), and
//! exits non-zero if the gate fails: a defended encoder leaks through
//! sizes, a defended encoder's *schedule* correlates with events, or the
//! undefended baseline fails to leak on either channel (which would mean
//! the detector can no longer prove it would catch a regression).
//!
//! ```text
//! cargo run -p age-bench --release --bin bench_leakage
//! cargo run -p age-bench --release --bin bench_leakage -- --standard --threads 2
//! cargo run -p age-bench --release --bin bench_leakage -- --out target/LEAKAGE.json
//! ```

use age_bench::{audit, Settings};

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

fn main() {
    let mut args = std::env::args().skip(1);
    // Quick scale by default: the gate separates NMI ≈ 0 from NMI ≫ 0.05,
    // which small runs already do decisively, and CI wants fast legs.
    let mut settings = Settings::quick();
    let mut out = String::from("LEAKAGE.json");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => settings = Settings::quick(),
            "--standard" => settings = Settings::standard(),
            "--full" => settings = Settings::full(),
            "--threads" => {
                settings.threads =
                    flag_value(&mut args, "--threads needs a positive integer", |n| {
                        n.parse().ok().filter(|&n| n > 0)
                    });
            }
            "--out" => out = flag_value(&mut args, "--out needs a path", |p| Some(p.to_string())),
            other => {
                eprintln!(
                    "unknown argument '{other}'; usage: bench_leakage \
                     [--quick|--standard|--full] [--threads N] [--out PATH]"
                );
                std::process::exit(2);
            }
        }
    }

    let start = std::time::Instant::now();
    let report = audit::run_gate(&settings);
    print!("{report}");
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("cannot write leakage report '{out}': {e}");
        std::process::exit(2);
    }
    println!(
        "[leakage report written to {out} in {:.1}s]",
        start.elapsed().as_secs_f64()
    );
    let gate = report
        .gate
        .as_ref()
        .expect("run_gate always sets a verdict");
    if !gate.passed {
        eprintln!("leakage gate FAILED");
        std::process::exit(1);
    }
}
