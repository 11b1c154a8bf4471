//! The Deviation adaptive policy of Silva et al. [96] (LiteSense).

use crate::{seq_len, Policy};

/// Adaptive sampling driven by a weighted moving deviation (paper §5.1,
/// "Deviation").
///
/// The policy maintains an exponentially weighted moving average of the
/// collected measurements and of their absolute deviation. When the tracked
/// deviation exceeds the threshold the collection rate doubles (the period
/// halves); otherwise the rate halves (the period doubles, up to a cap).
/// Like the Linear policy, the collection count follows the signal
/// volatility and thus the sensed event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviationPolicy {
    threshold: f64,
    alpha: f64,
    max_period: usize,
}

impl DeviationPolicy {
    /// Default EWMA weight for the deviation tracker.
    pub const DEFAULT_ALPHA: f64 = 0.7;
    /// Default cap on the collection period.
    pub const DEFAULT_MAX_PERIOD: usize = 16;

    /// Creates a policy with the given deviation threshold.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is negative or NaN.
    pub fn new(threshold: f64) -> Self {
        assert!(threshold >= 0.0, "threshold must be non-negative");
        DeviationPolicy {
            threshold,
            alpha: Self::DEFAULT_ALPHA,
            max_period: Self::DEFAULT_MAX_PERIOD,
        }
    }

    /// Overrides the EWMA weight in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1)`.
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0, 1)");
        self.alpha = alpha;
        self
    }

    /// Overrides the period cap.
    pub fn with_max_period(mut self, max_period: usize) -> Self {
        self.max_period = max_period.max(1);
        self
    }

    /// The deviation threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl Policy for DeviationPolicy {
    fn name(&self) -> &'static str {
        "Deviation"
    }

    fn is_adaptive(&self) -> bool {
        true
    }

    fn sample(&self, values: &[f64], features: usize) -> Vec<usize> {
        let len = seq_len(values, features);
        if len == 0 {
            return Vec::new();
        }
        let measurement = |t: usize| -> &[f64] { &values[t * features..(t + 1) * features] };

        // Sized once: at most one index per measurement.
        let mut collected = Vec::with_capacity(len);
        collected.push(0);
        // Per-feature weighted moving averages; the tracked deviation is the
        // mean absolute deviation across features (LiteSense-style).
        let mut mean: Vec<f64> = measurement(0).to_vec();
        let mut dev = 0.0f64;
        let mut period = 1usize;
        let mut t = 1usize;
        while t < len {
            collected.push(t);
            let x = measurement(t);
            let abs_dev =
                x.iter().zip(&mean).map(|(v, m)| (v - m).abs()).sum::<f64>() / features as f64;
            dev = self.alpha * dev + (1.0 - self.alpha) * abs_dev;
            for (m, &v) in mean.iter_mut().zip(x) {
                *m = self.alpha * *m + (1.0 - self.alpha) * v;
            }
            if dev > self.threshold {
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

    #[test]
    fn flat_signal_backs_off_to_max_period() {
        let p = DeviationPolicy::new(0.1);
        let idx = p.sample(&vec![3.0; 200], 1);
        // Period doubles 1,2,4,8,16,16,…: tail gaps reach the cap.
        let max_gap = idx.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert_eq!(max_gap, DeviationPolicy::DEFAULT_MAX_PERIOD);
        assert!(idx.len() < 30, "collected {}", idx.len());
    }

    #[test]
    fn volatile_signal_recovers_dense_sampling() {
        let p = DeviationPolicy::new(0.1);
        let mut vals = vec![0.0; 60];
        vals.extend((0..140).map(|i| if i % 2 == 0 { 4.0 } else { -4.0 }));
        let idx = p.sample(&vals, 1);
        let early = idx.iter().filter(|&&i| i < 60).count();
        let late = idx.iter().filter(|&&i| i >= 60).count();
        assert!(
            late as f64 / 140.0 > 2.0 * early as f64 / 60.0,
            "early={early} late={late}"
        );
    }

    #[test]
    fn threshold_monotonically_reduces_collection() {
        let vals: Vec<f64> = (0..300).map(|i| (i as f64 * 0.23).sin() * 1.5).collect();
        let mut last = usize::MAX;
        for thr in [0.0, 0.05, 0.2, 0.6, 3.0] {
            let k = DeviationPolicy::new(thr).sample(&vals, 1).len();
            assert!(k <= last, "threshold {thr}: {k} > {last}");
            last = k;
        }
    }

    #[test]
    fn rate_tracks_event_volatility() {
        let p = DeviationPolicy::new(0.08);
        let calm: Vec<f64> = (0..200).map(|i| 0.02 * (i as f64 * 0.1).sin()).collect();
        let wild: Vec<f64> = (0..200).map(|i| 2.0 * (i as f64 * 1.3).sin()).collect();
        assert!(p.sample(&wild, 1).len() > 2 * p.sample(&calm, 1).len());
    }

    #[test]
    fn indices_valid_for_multifeature_input() {
        let p = DeviationPolicy::new(0.3);
        let vals: Vec<f64> = (0..500).map(|i| ((i % 23) as f64) * 0.2).collect();
        let idx = p.sample(&vals, 5);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(*idx.last().unwrap() < 100);
    }

    #[test]
    fn builder_validation() {
        let p = DeviationPolicy::new(0.5).with_alpha(0.9).with_max_period(4);
        assert_eq!(p.threshold(), 0.5);
        let idx = p.sample(&vec![0.0; 50], 1);
        assert!(idx.windows(2).all(|w| w[1] - w[0] <= 4));
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn rejects_bad_alpha() {
        let _ = DeviationPolicy::new(0.1).with_alpha(1.0);
    }
}
