//! Encode-path, seal-path, and sweep benchmark, written to
//! `BENCH_encode.json` (schema `age-bench/encode-v3`).
//!
//! Measures, for every encoder: mean wall-clock per `encode_into` call on a
//! full 50×6 batch, and heap traffic per call in steady state (which the
//! `EncodeScratch` reuse design holds at zero — the same property
//! `crates/core/tests/alloc.rs` enforces). A per-stage breakdown isolates
//! the three hot phases of a fixed-length message: lane quantization,
//! word-level bit packing, and AEAD sealing. Every cipher's `seal_into`
//! throughput over AGE-sized frames is reported as `sealed_mb_per_s`. Then
//! the parallel experiment sweep ([`age_sim::run_cells`]) is timed over a
//! 72-cell grid at 1, 2, and `available_parallelism` threads, checking the
//! results stay byte-identical across thread counts.
//!
//! ```text
//! cargo run -p age-bench --release --bin bench_encode
//! cargo run -p age-bench --release --bin bench_encode -- --check
//! ```
//!
//! `--check` is the CI perf-sanity mode: it re-measures the AGE encoder
//! and fails (non-zero exit) if steady state allocates at all or if
//! `ns_per_batch` regressed to more than 2× the committed
//! `BENCH_encode.json` figure. It writes nothing.

use std::fmt::Write as _;
use std::time::Instant;

use age_core::{
    AgeEncoder, Batch, BatchConfig, DeltaCodec, EncodeScratch, Encoder, PaddedEncoder,
    PrunedEncoder, SingleEncoder, StandardEncoder, UnshiftedEncoder,
};
use age_crypto::{AesCbc, AesCtr, ChaCha20, ChaCha20Poly1305, Cipher};
use age_datasets::{DatasetKind, Scale};
use age_fixed::{BitWriter, Format};
use age_sim::{default_threads, run_cells, Defense, PolicyKind, Runner, SweepCell, SweepOptions};
use age_telemetry::alloc::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const SWEEP_RATES: [f64; 4] = [0.3, 0.5, 0.7, 1.0];
const SWEEP_POLICIES: [PolicyKind; 3] = [
    PolicyKind::Uniform,
    PolicyKind::Linear,
    PolicyKind::Deviation,
];
const SWEEP_DEFENSES: [Defense; 6] = [
    Defense::Standard,
    Defense::Padded,
    Defense::Age,
    Defense::Single,
    Defense::Unshifted,
    Defense::Pruned,
];

/// AGE's target message size throughout the workspace benchmarks.
const TARGET_BYTES: usize = 220;

struct Measured {
    ns_per_iter: f64,
    allocs_per_iter: f64,
    bytes_per_iter: f64,
}

/// Times one closure in steady state: warm-up sizes the loop, then a timed
/// run counts wall-clock and heap traffic per iteration.
fn time_steady(mut work: impl FnMut()) -> Measured {
    let warm_start = Instant::now();
    let warm_iters = 200u64;
    for _ in 0..warm_iters {
        work();
    }
    let est_ns = (warm_start.elapsed().as_nanos() as u64 / warm_iters).max(1);
    let iters = (300_000_000 / est_ns).clamp(100, 2_000_000);

    let before = alloc::snapshot();
    let start = Instant::now();
    for _ in 0..iters {
        work();
    }
    let elapsed = start.elapsed();
    let heap = alloc::snapshot().since(before);

    Measured {
        ns_per_iter: elapsed.as_nanos() as f64 / iters as f64,
        allocs_per_iter: heap.allocations as f64 / iters as f64,
        bytes_per_iter: heap.bytes as f64 / iters as f64,
    }
}

struct EncoderStats {
    name: &'static str,
    ns_per_batch: f64,
    allocs_per_batch: f64,
    bytes_allocated_per_batch: f64,
}

/// Times steady-state `encode_into` and its per-batch heap traffic.
fn measure(encoder: &dyn Encoder, batch: &Batch, cfg: &BatchConfig) -> EncoderStats {
    let mut scratch = EncodeScratch::new();
    let mut out = Vec::new();
    let m = time_steady(|| {
        encoder
            .encode_into(batch, cfg, &mut scratch, &mut out)
            .expect("benchmark encoders are feasible");
        std::hint::black_box(out.len());
    });
    EncoderStats {
        name: encoder.name(),
        ns_per_batch: m.ns_per_iter,
        allocs_per_batch: m.allocs_per_iter,
        bytes_allocated_per_batch: m.bytes_per_iter,
    }
}

struct StageStats {
    quantize_ns: f64,
    pack_ns: f64,
    seal_ns: f64,
}

/// Isolates the three phases of producing one on-air AGE message: lane
/// quantization of the full batch, word-level packing of the quantized
/// fields, and AEAD sealing of a target-sized plaintext.
fn measure_stages(batch: &Batch, cfg: &BatchConfig) -> StageStats {
    let fmt = cfg.format();

    let mut raws: Vec<i64> = Vec::new();
    let quantize = time_steady(|| {
        fmt.quantize_slice(batch.values(), &mut raws);
        std::hint::black_box(raws.len());
    });

    let lane: Vec<u64> = raws.iter().map(|&raw| fmt.to_bits(raw)).collect();
    let width = fmt.width();
    let mut buf: Vec<u8> = Vec::new();
    let pack = time_steady(|| {
        let mut w = BitWriter::from_vec(std::mem::take(&mut buf));
        w.write_fields(&lane, width);
        buf = w.into_bytes();
        std::hint::black_box(buf.len());
    });

    let cipher = ChaCha20Poly1305::new([0x42; 32]);
    let plaintext = vec![0x5Au8; TARGET_BYTES];
    let mut frame = Vec::new();
    let mut sequence = 0u64;
    let seal = time_steady(|| {
        sequence += 1;
        cipher.seal_into(sequence, &plaintext, &mut frame);
        std::hint::black_box(frame.len());
    });

    StageStats {
        quantize_ns: quantize.ns_per_iter,
        pack_ns: pack.ns_per_iter,
        seal_ns: seal.ns_per_iter,
    }
}

/// Steady-state cost of one epoch-ratchet step (the HKDF-style derive a
/// rekeying sensor pays at every rotation boundary).
fn measure_kdf() -> f64 {
    let mut ratchet = age_crypto::kdf::EpochRatchet::new([0x42; 32]);
    time_steady(|| {
        ratchet.advance();
        std::hint::black_box(ratchet.key()[0]);
    })
    .ns_per_iter
}

struct CipherStats {
    name: &'static str,
    sealed_mb_per_s: f64,
    ns_per_seal: f64,
    allocs_per_seal: f64,
}

/// Steady-state `seal_into` throughput on AGE-sized plaintexts: on-air
/// megabytes produced per second, with the heap quiet after warm-up.
fn measure_cipher(name: &'static str, cipher: &dyn Cipher) -> CipherStats {
    let plaintext = vec![0x5Au8; TARGET_BYTES];
    let frame_len = cipher.message_len(TARGET_BYTES);
    let mut frame = Vec::new();
    let mut sequence = 0u64;
    let m = time_steady(|| {
        sequence += 1;
        cipher.seal_into(sequence, &plaintext, &mut frame);
        std::hint::black_box(frame.len());
    });
    CipherStats {
        name,
        sealed_mb_per_s: frame_len as f64 * 1e9 / m.ns_per_iter / 1e6,
        ns_per_seal: m.ns_per_iter,
        allocs_per_seal: m.allocs_per_iter,
    }
}

fn bench_batch(cfg: &BatchConfig) -> Batch {
    let d = cfg.features();
    let k = cfg.max_len();
    Batch::new(
        (0..k).collect(),
        (0..k * d)
            .map(|i| {
                let x = i as f64;
                (x * 0.17).sin() * (1.0 + (i % 7) as f64) - 2.5
            })
            .collect(),
    )
    .expect("ramp batch is valid")
}

fn sweep_grid() -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for &policy in &SWEEP_POLICIES {
        for &defense in &SWEEP_DEFENSES {
            for &rate in &SWEEP_RATES {
                cells.push(SweepCell::new(policy, defense, rate));
            }
        }
    }
    cells
}

/// Pulls `"ns_per_batch"` for the `"AGE"` entry out of the committed
/// report without a JSON parser (workspace policy: no external deps).
fn committed_age_ns(report: &str) -> Option<f64> {
    let entry = report
        .split('{')
        .find(|s| s.contains("\"name\": \"AGE\""))?;
    let tail = entry.split("\"ns_per_batch\":").nth(1)?;
    tail.split(&[',', '}'][..]).next()?.trim().parse().ok()
}

/// CI perf-sanity gate: re-measure the AGE encoder and compare against the
/// committed report. Exits non-zero on steady-state allocation or a >2×
/// `ns_per_batch` regression.
fn check_mode() -> ! {
    let report = std::fs::read_to_string("BENCH_encode.json")
        .expect("--check needs a committed BENCH_encode.json in the working directory");
    let committed_ns =
        committed_age_ns(&report).expect("committed BENCH_encode.json carries an AGE ns_per_batch");

    let cfg =
        BatchConfig::new(50, 6, Format::new(16, 13).expect("valid format")).expect("valid config");
    let batch = bench_batch(&cfg);
    let age = measure(&AgeEncoder::new(TARGET_BYTES), &batch, &cfg);

    println!(
        "perf check: AGE {:.0} ns/batch (committed {:.0}, limit {:.0}), {:.4} allocs/batch",
        age.ns_per_batch,
        committed_ns,
        committed_ns * 2.0,
        age.allocs_per_batch
    );
    let mut failed = false;
    if age.allocs_per_batch > 0.0 {
        eprintln!(
            "FAIL: AGE encode_into allocates in steady state ({:.4} allocs/batch)",
            age.allocs_per_batch
        );
        failed = true;
    }
    if age.ns_per_batch > committed_ns * 2.0 {
        eprintln!(
            "FAIL: AGE ns_per_batch {:.0} exceeds 2x the committed {:.0}",
            age.ns_per_batch, committed_ns
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("perf check passed");
    std::process::exit(0);
}

fn main() {
    if std::env::args().any(|a| a == "--check") {
        check_mode();
    }

    let cfg =
        BatchConfig::new(50, 6, Format::new(16, 13).expect("valid format")).expect("valid config");
    let d = cfg.features();
    let k = cfg.max_len();
    let batch = bench_batch(&cfg);

    println!("encode path, full {k}x{d} batch:");
    let encoders: Vec<Box<dyn Encoder>> = vec![
        Box::new(AgeEncoder::new(TARGET_BYTES)),
        Box::new(StandardEncoder),
        Box::new(PaddedEncoder::for_config(&cfg)),
        Box::new(SingleEncoder::new(TARGET_BYTES)),
        Box::new(UnshiftedEncoder::new(TARGET_BYTES)),
        Box::new(PrunedEncoder::new(TARGET_BYTES)),
        Box::new(DeltaCodec),
    ];
    let stats: Vec<EncoderStats> = encoders
        .iter()
        .map(|e| {
            let st = measure(e.as_ref(), &batch, &cfg);
            println!(
                "  {:<10} {:>10.0} ns/batch  {:>6.2} allocs/batch  {:>8.1} B/batch",
                st.name, st.ns_per_batch, st.allocs_per_batch, st.bytes_allocated_per_batch
            );
            st
        })
        .collect();

    let stages = measure_stages(&batch, &cfg);
    println!(
        "stages ({}B target): quantize {:.0} ns, pack {:.0} ns, seal {:.0} ns",
        TARGET_BYTES, stages.quantize_ns, stages.pack_ns, stages.seal_ns
    );
    let kdf_ns = measure_kdf();
    println!("kdf: {kdf_ns:.0} ns per epoch-ratchet derive");

    println!("seal path, {TARGET_BYTES}B plaintext:");
    let ciphers: Vec<(&'static str, Box<dyn Cipher>)> = vec![
        ("ChaCha20", Box::new(ChaCha20::new([0x42; 32]))),
        (
            "ChaCha20Poly1305",
            Box::new(ChaCha20Poly1305::new([0x42; 32])),
        ),
        ("AesCtr", Box::new(AesCtr::new([0x42; 16]))),
        ("AesCbc", Box::new(AesCbc::new([0x42; 16]))),
    ];
    let cipher_stats: Vec<CipherStats> = ciphers
        .iter()
        .map(|(name, c)| {
            let st = measure_cipher(name, c.as_ref());
            println!(
                "  {:<17} {:>8.1} MB/s sealed  {:>8.0} ns/seal  {:>6.2} allocs/seal",
                st.name, st.sealed_mb_per_s, st.ns_per_seal, st.allocs_per_seal
            );
            st
        })
        .collect();

    // Sweep wall-clock. Thresholds are fitted once up front so every thread
    // count times the same (cached) work.
    let available = default_threads();
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 2022);
    let cells = sweep_grid();
    for &policy in &SWEEP_POLICIES {
        for &rate in &SWEEP_RATES {
            let _ = runner.policy(policy, rate);
        }
    }

    let mut counts = vec![1usize, 2, available];
    counts.sort_unstable();
    counts.dedup();
    println!(
        "\nsweep, {} cells (Epilepsy/Small), available_parallelism={available}:",
        cells.len()
    );
    let mut timings: Vec<(usize, f64)> = Vec::new();
    let mut reference: Option<String> = None;
    let mut deterministic = true;
    for &threads in &counts {
        let opts = SweepOptions {
            threads,
            ..Default::default()
        };
        let start = Instant::now();
        let results = run_cells(&runner, &cells, &opts);
        let seconds = start.elapsed().as_secs_f64();
        let fingerprint = format!("{results:?}");
        match &reference {
            None => reference = Some(fingerprint),
            Some(expected) => deterministic &= *expected == fingerprint,
        }
        println!("  {threads} thread(s): {seconds:.2}s");
        timings.push((threads, seconds));
    }
    println!("  deterministic across thread counts: {deterministic}");

    // Hand-rolled JSON (workspace policy: no external deps).
    let mut json = String::from("{\n  \"schema\": \"age-bench/encode-v3\",\n");
    let _ = writeln!(
        json,
        "  \"config\": {{\"max_len\": {k}, \"features\": {d}, \"width\": {}, \"target_bytes\": {TARGET_BYTES}}},",
        cfg.format().width()
    );
    json.push_str("  \"encoders\": [\n");
    for (i, st) in stats.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"ns_per_batch\": {:.1}, \"allocs_per_batch\": {:.4}, \"bytes_allocated_per_batch\": {:.1}}}",
            st.name, st.ns_per_batch, st.allocs_per_batch, st.bytes_allocated_per_batch
        );
        json.push_str(if i + 1 < stats.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"stages\": {{\"quantize_ns_per_batch\": {:.1}, \"pack_ns_per_batch\": {:.1}, \"seal_ns_per_message\": {:.1}}},",
        stages.quantize_ns, stages.pack_ns, stages.seal_ns
    );
    let _ = writeln!(json, "  \"kdf\": {{\"kdf_ns_per_derive\": {kdf_ns:.1}}},");
    json.push_str("  \"ciphers\": [\n");
    for (i, st) in cipher_stats.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"sealed_mb_per_s\": {:.1}, \"ns_per_seal\": {:.1}, \"allocs_per_seal\": {:.4}}}",
            st.name, st.sealed_mb_per_s, st.ns_per_seal, st.allocs_per_seal
        );
        json.push_str(if i + 1 < cipher_stats.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n  \"sweep\": {\n");
    let _ = writeln!(
        json,
        "    \"dataset\": \"Epilepsy\", \"scale\": \"Small\", \"cells\": {}, \"available_parallelism\": {available},",
        cells.len()
    );
    json.push_str("    \"threads\": [\n");
    let base = timings[0].1;
    for (i, &(threads, seconds)) in timings.iter().enumerate() {
        let _ = write!(
            json,
            "      {{\"threads\": {threads}, \"seconds\": {seconds:.3}, \"speedup_vs_1\": {:.2}}}",
            base / seconds.max(1e-9)
        );
        json.push_str(if i + 1 < timings.len() { ",\n" } else { "\n" });
    }
    let _ = writeln!(
        json,
        "    ],\n    \"deterministic_across_threads\": {deterministic}\n  }}\n}}"
    );

    let path = "BENCH_encode.json";
    std::fs::write(path, &json).expect("can write benchmark report");
    println!("\n[written to {path}]");
    assert!(deterministic, "sweep results diverged across thread counts");
}
