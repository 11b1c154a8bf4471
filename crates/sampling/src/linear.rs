//! The Linear adaptive policy of Chatterjea & Havinga [25].

use crate::{l1_distance, seq_len, Policy};

/// Adaptive sampling driven by differences between consecutive collected
/// measurements (paper §5.1, "Linear").
///
/// The policy always collects the first measurement. After each collection
/// it compares the new measurement with the previous collected one: if the
/// L1 difference exceeds the threshold, the collection period resets to one
/// (sample the very next step); otherwise the period grows by one. Flat
/// signals therefore decay to sparse sampling while volatile signals are
/// sampled densely — and the collection count tracks the event, which is
/// the leak AGE closes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearPolicy {
    threshold: f64,
    max_period: usize,
}

impl LinearPolicy {
    /// Creates a policy with the given difference threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or NaN.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold >= 0.0, "threshold must be non-negative");
        LinearPolicy {
            threshold,
            max_period: usize::MAX,
        }
    }

    /// Caps the collection period (long gaps hurt reconstruction; some
    /// deployments bound them).
    pub fn with_max_period(mut self, max_period: usize) -> Self {
        self.max_period = max_period.max(1);
        self
    }

    /// The difference threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The MCU entry point: walks a row-major sequence of raw fixed-point
    /// values `round(x · 2^frac)` and returns the collected indices, using
    /// integer L1 distances only. The threshold becomes `⌊t · 2^frac⌋`
    /// once per call, which keeps every `>` comparison on integer
    /// distances, so for format-exact inputs this collects exactly the
    /// indices [`Policy::sample`] collects on the values `x`.
    ///
    /// # Examples
    ///
    /// ```
    /// use age_sampling::LinearPolicy;
    ///
    /// // Q3.13 values: raw = x * 8192.
    /// let policy = LinearPolicy::new(0.5);
    /// let seq: Vec<i64> = (0..50).map(|t| if t < 25 { 0 } else { 8192 * (t % 2) }).collect();
    /// let idx = policy.sample_raw(&seq, 1, 13);
    /// assert_eq!(idx[0], 0);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `raw.len()` is not a multiple of `features` or `features`
    /// is zero.
    pub fn sample_raw(&self, raw: &[i64], features: usize, frac: i16) -> Vec<usize> {
        let threshold = (self.threshold * f64::powi(2.0, i32::from(frac))).floor() as i64;
        self.walk(seq_len(raw, features), |a, b| {
            let xa = &raw[a * features..(a + 1) * features];
            let xb = &raw[b * features..(b + 1) * features];
            let l1: i64 = xa.iter().zip(xb).map(|(x, y)| (x - y).abs()).sum();
            l1 > threshold
        })
    }

    /// The policy's walk over `len` measurements, shared by both entry
    /// points: `differs(prev, t)` says whether measurement `t` differs from
    /// the previous collected one by more than the threshold.
    fn walk(&self, len: usize, mut differs: impl FnMut(usize, usize) -> bool) -> Vec<usize> {
        if len == 0 {
            return Vec::new();
        }
        let mut collected = vec![0usize];
        let mut period = 1usize;
        let mut prev = 0usize;
        let mut t = 1usize;
        while t < len {
            // Collect the measurement scheduled by the current period.
            collected.push(t);
            if differs(prev, t) {
                period = 1;
            } else {
                period = (period + 1).min(self.max_period);
            }
            prev = t;
            t += period;
        }
        collected
    }
}

impl Policy for LinearPolicy {
    fn name(&self) -> &'static str {
        "Linear"
    }

    fn is_adaptive(&self) -> bool {
        true
    }

    fn sample(&self, values: &[f64], features: usize) -> Vec<usize> {
        self.walk(seq_len(values, features), |a, b| {
            l1_distance(values, features, a, b) > self.threshold
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_signal_decays_to_sparse_sampling() {
        let p = LinearPolicy::new(0.5);
        let idx = p.sample(&vec![1.0; 100], 1);
        // Periods grow 1,2,3,…: index gaps are triangular, so far fewer
        // than half the measurements are collected.
        assert!(idx.len() < 20, "collected {} of 100", idx.len());
        assert_eq!(idx[0], 0);
    }

    #[test]
    fn volatile_signal_is_densely_sampled() {
        let p = LinearPolicy::new(0.5);
        let vals: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 2.0 } else { -2.0 })
            .collect();
        let idx = p.sample(&vals, 1);
        assert!(idx.len() > 90, "collected {} of 100", idx.len());
    }

    #[test]
    fn collection_count_is_data_dependent() {
        // The core of the paper's §2.2 example.
        let p = LinearPolicy::new(0.3);
        let walking: Vec<f64> = (0..50).map(|i| 0.05 * (i as f64 * 0.2).sin()).collect();
        let running: Vec<f64> = (0..50).map(|i| 2.0 * (i as f64 * 1.9).sin()).collect();
        let k_walk = p.sample(&walking, 1).len();
        let k_run = p.sample(&running, 1).len();
        assert!(k_run > 2 * k_walk, "walk={k_walk} run={k_run}");
    }

    #[test]
    fn threshold_monotonically_reduces_collection() {
        let vals: Vec<f64> = (0..200).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut last = usize::MAX;
        for thr in [0.0, 0.1, 0.3, 0.8, 2.0] {
            let k = LinearPolicy::new(thr).sample(&vals, 1).len();
            assert!(k <= last, "threshold {thr} collected {k} > {last}");
            last = k;
        }
    }

    #[test]
    fn max_period_bounds_gaps() {
        let p = LinearPolicy::new(10.0).with_max_period(4);
        let idx = p.sample(&vec![0.0; 100], 1);
        assert!(idx.windows(2).all(|w| w[1] - w[0] <= 4));
    }

    #[test]
    fn indices_are_strictly_increasing_and_in_range() {
        let p = LinearPolicy::new(0.2);
        let vals: Vec<f64> = (0..300).map(|i| ((i * i) % 17) as f64 * 0.1).collect();
        let idx = p.sample(&vals, 3);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(*idx.last().unwrap() < 100);
    }

    #[test]
    fn multi_feature_distances_use_l1() {
        // Differences split across features still trip the threshold.
        let p = LinearPolicy::new(0.5);
        let vals = vec![0.0, 0.0, 0.3, 0.3, 0.6, 0.6, 0.9, 0.9];
        let idx = p.sample(&vals, 2);
        assert_eq!(idx, vec![0, 1, 2, 3]); // every step: L1 = 0.6 > 0.5
    }

    #[test]
    fn empty_sequence_collects_nothing() {
        let p = LinearPolicy::new(0.1);
        assert!(p.sample(&[], 1).is_empty());
    }
}
