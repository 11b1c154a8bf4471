//! Randomized property tests for server-side reconstruction, driven by the
//! workspace's deterministic PRNG (no external test deps).

use age_core::Batch;
use age_reconstruct::{interpolate, mae, median, quartiles, std_deviation, ErrorAccumulator};
use age_telemetry::{DetRng, SliceShuffle};

const CASES: usize = 128;

/// A full-length truth sequence plus a sorted non-empty subset of indices.
fn truth_and_subset(rng: &mut DetRng) -> (Vec<f64>, Vec<usize>, usize) {
    let len = rng.gen_range(2usize..80);
    let features = rng.gen_range(1usize..4);
    let truth: Vec<f64> = (0..len * features)
        .map(|_| rng.gen_range(-50.0f64..50.0))
        .collect();
    let mut all: Vec<usize> = (0..len).collect();
    all.shuffle(rng);
    all.truncate(rng.gen_range(1usize..=len));
    all.sort_unstable();
    (truth, all, features)
}

/// Interpolation always passes exactly through the collected points.
#[test]
fn interpolation_is_exact_at_samples() {
    let mut rng = DetRng::seed_from_u64(0x4E1);
    for _ in 0..CASES {
        let (truth, indices, features) = truth_and_subset(&mut rng);
        let len = truth.len() / features;
        let collected = Batch::gather(indices, &truth, features).unwrap();
        let recon = interpolate(collected.indices(), collected.values(), len, features);
        assert_eq!(recon.len(), truth.len());
        for &t in collected.indices() {
            for f in 0..features {
                assert_eq!(recon[t * features + f], truth[t * features + f]);
            }
        }
    }
}

/// Reconstructed values never leave the envelope of the collected
/// values (linear interpolation cannot overshoot).
#[test]
fn interpolation_stays_in_envelope() {
    let mut rng = DetRng::seed_from_u64(0x4E2);
    for _ in 0..CASES {
        let (truth, indices, features) = truth_and_subset(&mut rng);
        let len = truth.len() / features;
        let collected = Batch::gather(indices, &truth, features).unwrap();
        let values = collected.values();
        let recon = interpolate(collected.indices(), values, len, features);
        for f in 0..features {
            let lo = values
                .iter()
                .skip(f)
                .step_by(features)
                .cloned()
                .fold(f64::INFINITY, f64::min);
            let hi = values
                .iter()
                .skip(f)
                .step_by(features)
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max);
            for t in 0..len {
                let v = recon[t * features + f];
                assert!(
                    v >= lo - 1e-9 && v <= hi + 1e-9,
                    "feature {f} step {t}: {v} outside [{lo}, {hi}]"
                );
            }
        }
    }
}

/// Collecting everything reconstructs the truth exactly: zero MAE.
#[test]
fn full_collection_gives_zero_error() {
    let mut rng = DetRng::seed_from_u64(0x4E3);
    for _ in 0..CASES {
        let len = rng.gen_range(2usize..120);
        let truth: Vec<f64> = (0..len).map(|_| rng.gen_range(-50.0f64..50.0)).collect();
        let indices: Vec<usize> = (0..truth.len()).collect();
        let recon = interpolate(&indices, &truth, truth.len(), 1);
        assert_eq!(mae(&recon, &truth), 0.0);
    }
}

/// MAE is translation-consistent and scales with the data.
#[test]
fn mae_is_nonnegative_and_scale_covariant() {
    let mut rng = DetRng::seed_from_u64(0x4E4);
    for _ in 0..CASES {
        let len = rng.gen_range(2usize..100);
        let truth: Vec<f64> = (0..len).map(|_| rng.gen_range(-50.0f64..50.0)).collect();
        let scale = rng.gen_range(0.1f64..10.0);
        let recon: Vec<f64> = truth.iter().map(|v| v + 1.0).collect();
        let base = mae(&recon, &truth);
        assert!((base - 1.0).abs() < 1e-9);
        let scaled_truth: Vec<f64> = truth.iter().map(|v| v * scale).collect();
        let scaled_recon: Vec<f64> = recon.iter().map(|v| v * scale).collect();
        assert!((mae(&scaled_recon, &scaled_truth) - scale).abs() < 1e-9);
    }
}

/// Summary statistics are order-invariant and bounded by extremes.
#[test]
fn summary_statistics_are_sane() {
    let mut rng = DetRng::seed_from_u64(0x4E5);
    for _ in 0..CASES {
        let len = rng.gen_range(1usize..60);
        let mut values: Vec<f64> = (0..len).map(|_| rng.gen_range(-100.0f64..100.0)).collect();
        let med = median(&values).expect("non-empty");
        let (q1, q3) = quartiles(&values).expect("non-empty");
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(lo <= q1 && q1 <= med && med <= q3 && q3 <= hi);
        values.reverse();
        assert_eq!(median(&values), Some(med));
        assert!(std_deviation(&values) >= 0.0);
    }
}

/// The accumulator's weighted mean lies between the min and max MAE.
#[test]
fn weighted_mean_is_a_mean() {
    let mut rng = DetRng::seed_from_u64(0x4E6);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..40);
        let pairs: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0f64..10.0), rng.gen_range(0.01f64..5.0)))
            .collect();
        let mut acc = ErrorAccumulator::new();
        for &(e, w) in &pairs {
            acc.record(e, w);
        }
        let lo = pairs.iter().map(|&(e, _)| e).fold(f64::INFINITY, f64::min);
        let hi = pairs
            .iter()
            .map(|&(e, _)| e)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(acc.weighted_mean() >= lo - 1e-9);
        assert!(acc.weighted_mean() <= hi + 1e-9);
        assert!(acc.mean() >= lo - 1e-9 && acc.mean() <= hi + 1e-9);
        assert_eq!(acc.count(), pairs.len());
    }
}
