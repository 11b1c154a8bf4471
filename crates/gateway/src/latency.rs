//! A fixed-bucket log2 latency histogram for ingest timing.
//!
//! Wall-clock ingest latency is a *diagnostic*, not part of the
//! deterministic fleet report (it varies run to run by nature), so it
//! lives in its own type that [`FleetReport`](crate::FleetReport) never
//! embeds. Buckets are powers of two in nanoseconds: recording is two
//! instructions, merging is elementwise addition (commutative and
//! associative, like every other gateway rollup), and the quantile
//! error is bounded by one octave — plenty for a p99 regression gate.

/// Power-of-two nanosecond buckets; bucket `i` covers `[2^(i-1), 2^i)`
/// with bucket 0 holding sub-nanosecond (i.e. clamped zero) samples.
const BUCKETS: usize = 64;

/// Histogram of per-frame ingest latencies in nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_ns: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample. Counters saturate rather than wrap:
    /// a histogram that has absorbed `u64::MAX` samples (or a merged
    /// `sum_ns` past `u128::MAX`) pins at the ceiling instead of
    /// silently restarting from zero mid-run.
    pub fn record(&mut self, ns: u64) {
        let bucket = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        if let Some(n) = self.buckets.get_mut(bucket) {
            *n = n.saturating_add(1);
        }
        self.count = self.count.saturating_add(1);
        self.sum_ns = self.sum_ns.saturating_add(u128::from(ns));
    }

    /// Folds another histogram into this one (saturating, commutative).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            return 0;
        }
        (self.sum_ns / u128::from(self.count)) as u64
    }

    /// Nearest-rank quantile, reported as the upper bound of the bucket
    /// holding that rank (so the estimate never understates latency).
    /// `q` is clamped to `[0, 1]`; returns 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { 1u64 << i };
            }
        }
        u64::MAX
    }

    /// The p99 ingest latency in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.quantile_ns(0.99)
    }

    /// The median ingest latency in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.quantile_ns(0.50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.p99_ns(), 0);
    }

    #[test]
    fn quantiles_bound_the_samples_from_above() {
        let mut h = LatencyHistogram::new();
        for ns in [100u64, 200, 300, 400, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        // p50 falls in the bucket holding 200–256 ns.
        assert!(h.p50_ns() >= 200 && h.p50_ns() <= 512);
        // p99 lands on the outlier's bucket.
        assert!(h.p99_ns() >= 100_000 && h.p99_ns() <= 262_144);
    }

    #[test]
    fn merge_matches_single_recording() {
        let mut all = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for i in 0..1000u64 {
            let ns = i * 37 + 1;
            all.record(ns);
            if i % 2 == 0 {
                a.record(ns)
            } else {
                b.record(ns)
            }
        }
        let mut merged = LatencyHistogram::new();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged, all);
    }

    #[test]
    fn extreme_samples_stay_in_range() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_ns(1.0), u64::MAX);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero_at_every_rank() {
        let h = LatencyHistogram::new();
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 0, "q={q}");
        }
        assert_eq!(h.p50_ns(), 0);
    }

    #[test]
    fn single_bucket_histogram_answers_every_quantile_identically() {
        let mut h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(300); // bucket [256, 512) → upper bound 512
        }
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 512, "q={q}");
        }
        assert_eq!(h.mean_ns(), 300);
    }

    #[test]
    fn quantile_extremes_hit_first_and_last_occupied_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(10); // bucket upper bound 16
        h.record(1_000_000); // bucket upper bound 2^20 = 1_048_576
                             // q=0.0 clamps to rank 1 — the smallest sample's bucket.
        assert_eq!(h.quantile_ns(0.0), 16);
        assert_eq!(h.quantile_ns(1.0), 1 << 20);
        // Out-of-range q clamps rather than panicking or overflowing.
        assert_eq!(h.quantile_ns(-3.0), 16);
        assert_eq!(h.quantile_ns(7.5), 1 << 20);
    }

    #[test]
    fn merge_then_quantile_equals_quantile_of_the_union() {
        let samples: Vec<u64> = (0..500u64).map(|i| (i * 977) % 90_000 + 1).collect();
        let mut union = LatencyHistogram::new();
        let mut parts = [
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        ];
        for (i, &ns) in samples.iter().enumerate() {
            union.record(ns);
            parts[i % 3].record(ns);
        }
        let mut merged = LatencyHistogram::new();
        for part in &parts {
            merged.merge(part);
        }
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile_ns(q), union.quantile_ns(q), "q={q}");
        }
        assert_eq!(merged.mean_ns(), union.mean_ns());
    }

    #[test]
    fn saturated_counters_pin_instead_of_wrapping() {
        let mut a = LatencyHistogram::new();
        a.record(100);
        let mut pinned = a.clone();
        // Force the counters to the ceiling, then keep going.
        pinned.count = u64::MAX;
        pinned.buckets[7] = u64::MAX;
        pinned.sum_ns = u128::MAX;
        pinned.record(100);
        assert_eq!(pinned.count, u64::MAX);
        assert_eq!(pinned.buckets[7], u64::MAX);
        assert_eq!(pinned.sum_ns, u128::MAX);
        let mut merged = pinned.clone();
        merged.merge(&a);
        assert_eq!(merged.count, u64::MAX, "merge must saturate too");
    }
}
