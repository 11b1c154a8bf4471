//! Integer-only sampling — the MCU execution path.
//!
//! The paper's sensor runs its policy on an MSP430 in fixed-point
//! arithmetic (§4.1), on raw `round(x · 2^frac)` values, with adds,
//! shifts and compares only:
//!
//! - the Linear policy has one implementation with two entry points:
//!   [`LinearPolicy::sample_raw`](crate::LinearPolicy::sample_raw) walks
//!   raw values with integer L1 distances against the threshold
//!   `⌊t · 2^frac⌋`. It is *decision-exact*: for format-exact inputs it
//!   collects exactly the indices the float walk collects, because L1
//!   distances of fixed-point values are integers and the threshold
//!   comparison transfers exactly (enforced by tests).
//! - [`RawDeviationPolicy`] is the integer counterpart of
//!   [`crate::DeviationPolicy`], with its own arithmetic: a dyadic EWMA
//!   weight (`α = 3/4`, a shift and a subtract), because the float default
//!   `0.7` has no cheap integer form. It tracks the float policy at
//!   `α = 0.75` closely but not bit-exactly (per-step rounding).

use crate::seq_len;

/// Integer twin of [`crate::DeviationPolicy`] with the dyadic EWMA weight
/// `α = 3/4` (`x - (x >> 2)` on an MCU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawDeviationPolicy {
    threshold_raw: i64,
    max_period: usize,
}

impl RawDeviationPolicy {
    /// Default cap on the collection period (matches the float policy).
    pub const DEFAULT_MAX_PERIOD: usize = 16;

    /// Creates a policy with a raw-unit deviation threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold_raw` is negative.
    pub fn new(threshold_raw: i64) -> Self {
        assert!(threshold_raw >= 0, "threshold must be non-negative");
        RawDeviationPolicy {
            threshold_raw,
            max_period: Self::DEFAULT_MAX_PERIOD,
        }
    }

    /// Converts a float threshold for values with `frac` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `t` is negative or not finite.
    pub fn from_float_threshold(t: f64, frac: i16) -> Self {
        assert!(
            t.is_finite() && t >= 0.0,
            "threshold must be a non-negative number"
        );
        let scale = f64::powi(2.0, i32::from(frac));
        RawDeviationPolicy::new((t * scale).floor() as i64)
    }

    /// Caps the collection period.
    pub fn with_max_period(mut self, max_period: usize) -> Self {
        self.max_period = max_period.max(1);
        self
    }

    /// Walks a row-major raw sequence; returns collected indices.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len()` is not a multiple of `features` or `features`
    /// is zero.
    pub fn sample(&self, raw: &[i64], features: usize) -> Vec<usize> {
        let len = seq_len(raw, features);
        if len == 0 {
            return Vec::new();
        }
        let d = features as i64;
        // Per-feature EWMA means and a scalar EWMA deviation, all in raw
        // units. α = 3/4: ewma' = ewma - (ewma >> 2) + (x >> 2).
        let mut mean: Vec<i64> = raw[..features].to_vec();
        let mut dev: i64 = 0;
        let mut collected = vec![0usize];
        let mut period = 1usize;
        let mut t = 1usize;
        while t < len {
            collected.push(t);
            let x = &raw[t * features..(t + 1) * features];
            let abs_dev: i64 = x.iter().zip(&mean).map(|(v, m)| (v - m).abs()).sum::<i64>() / d;
            dev = dev - (dev >> 2) + (abs_dev >> 2);
            for (m, &v) in mean.iter_mut().zip(x) {
                *m = *m - (*m >> 2) + (v >> 2);
            }
            if dev > self.threshold_raw {
                period = (period / 2).max(1);
            } else {
                period = (period * 2).min(self.max_period);
            }
            t += period;
        }
        collected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DeviationPolicy, LinearPolicy, Policy};

    /// Format-exact float values and their raw twins (Q3.13).
    fn paired_sequence(len: usize, features: usize) -> (Vec<f64>, Vec<i64>) {
        let scale = 8192.0; // 2^13
        let mut float = Vec::with_capacity(len * features);
        let mut raw = Vec::with_capacity(len * features);
        for i in 0..len * features {
            let r = ((i as f64 * 0.37).sin() * 2.0 * scale).round() as i64;
            raw.push(r);
            float.push(r as f64 / scale);
        }
        (float, raw)
    }

    #[test]
    fn raw_linear_matches_float_linear_exactly() {
        let (float, raw) = paired_sequence(120, 3);
        for thr in [0.0, 0.01, 0.5, 1.3, 2.7, 10.0] {
            let f_idx = LinearPolicy::new(thr).sample(&float, 3);
            let r_idx = LinearPolicy::new(thr).sample_raw(&raw, 3, 13);
            assert_eq!(f_idx, r_idx, "thr={thr}");
        }
    }

    #[test]
    fn raw_linear_respects_period_cap() {
        let (_, raw) = paired_sequence(100, 1);
        let idx = LinearPolicy::new(1e12)
            .with_max_period(5)
            .sample_raw(&raw, 1, 13);
        assert!(idx.windows(2).all(|w| w[1] - w[0] <= 5));
    }

    #[test]
    fn raw_deviation_tracks_float_counterpart() {
        // Not bit-exact (integer EWMA rounds per step), but the collection
        // counts must stay close for matched α = 0.75.
        let (float, raw) = paired_sequence(300, 2);
        for thr in [0.05, 0.2, 0.8] {
            let f_k = DeviationPolicy::new(thr)
                .with_alpha(0.75)
                .sample(&float, 2)
                .len();
            let r_k = RawDeviationPolicy::from_float_threshold(thr, 13)
                .sample(&raw, 2)
                .len();
            let diff = (f_k as f64 - r_k as f64).abs() / f_k as f64;
            assert!(diff < 0.25, "thr={thr}: float {f_k} vs raw {r_k}");
        }
    }

    #[test]
    fn raw_policies_are_data_dependent() {
        let flat = vec![100i64; 200];
        let wild: Vec<i64> = (0..200)
            .map(|i| if i % 2 == 0 { 20_000 } else { -20_000 })
            .collect();
        let lin = LinearPolicy::new(5_000.0);
        assert!(lin.sample_raw(&wild, 1, 0).len() > 2 * lin.sample_raw(&flat, 1, 0).len());
        let dev = RawDeviationPolicy::new(2_000);
        assert!(dev.sample(&wild, 1).len() > 2 * dev.sample(&flat, 1).len());
    }

    #[test]
    fn raw_indices_are_valid() {
        let (_, raw) = paired_sequence(90, 3);
        for idx in [
            LinearPolicy::new(1000.0).sample_raw(&raw, 3, 0),
            RawDeviationPolicy::new(1000).sample(&raw, 3),
        ] {
            assert_eq!(idx[0], 0);
            assert!(idx.windows(2).all(|w| w[0] < w[1]));
            assert!(*idx.last().unwrap() < 90);
        }
    }

    #[test]
    #[should_panic(expected = "threshold must be non-negative")]
    fn raw_linear_rejects_negative_threshold() {
        let _ = LinearPolicy::new(-1.0 / 8192.0);
    }
}
