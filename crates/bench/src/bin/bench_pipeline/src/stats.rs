//! Order statistics for the benchmark's reports.

/// A percentile as an exact fraction, so ranks never suffer from
/// floating-point rounding (`99/100` is not exactly representable).
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub num: u64,
    pub den: u64,
}

pub const P50: Percentile = Percentile { num: 50, den: 100 };
pub const P99: Percentile = Percentile { num: 99, den: 100 };
pub const P999: Percentile = Percentile {
    num: 999,
    den: 1000,
};

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `p` of the samples at or below it. `None` when
/// there are no samples.
pub fn nearest_rank<T: Copy>(sorted: &[T], p: Percentile) -> Option<T> {
    let n = sorted.len() as u64;
    let rank = (p.num * n).div_ceil(p.den).max(1);
    sorted.get(usize::try_from(rank).ok()? - 1).copied()
}

/// Median and quartiles of a set of per-round values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Median plus first and third quartiles, with the quartiles computed the
/// way Python's `statistics.quantiles(values, n=4)` computes them (the
/// default "exclusive" method), so the spreads printed here are the ones
/// a reader recomputes from `results.json`. One value gives a zero-width
/// summary; no values give `None`.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let median = match n {
        0 => return None,
        _ if n % 2 == 1 => data[n / 2],
        _ => (data[n / 2 - 1] + data[n / 2]) / 2.0,
    };
    if n == 1 {
        return Some(Summary {
            median,
            q1: median,
            q3: median,
            n,
        });
    }
    let quartile = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some(Summary {
        median,
        q1: quartile(1),
        q3: quartile(3),
        n,
    })
}

/// `Σ parts ÷ whole` — how much of a separately measured total the layer
/// figures account for. 0 when the total is 0.
pub fn ledger_ratio(parts: &[f64], whole: f64) -> f64 {
    if whole == 0.0 {
        return 0.0;
    }
    parts.iter().sum::<f64>() / whole
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&hundred, P50), Some(50));
        assert_eq!(nearest_rank(&hundred, P99), Some(99));
        assert_eq!(nearest_rank(&hundred, P999), Some(100));
        let ten: Vec<u64> = (1..=10).map(|x| x * 10).collect();
        // ceil(0.5 * 10) = 5th, ceil(0.99 * 10) = 10th.
        assert_eq!(nearest_rank(&ten, P50), Some(50));
        assert_eq!(nearest_rank(&ten, P99), Some(100));
        assert_eq!(nearest_rank(&[7], P999), Some(7));
        assert_eq!(nearest_rank::<u64>(&[], P50), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&values).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([4, 1, 3, 2, 5, 9, 7], n=4) == [2.0, 4.0, 7.0]
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0, 9.0, 7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.0, 4.0, 7.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[20.0, 10.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        let s = summarize(&[3.5]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (3.5, 3.5, 3.5, 1));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn ledger_ratio_sums_parts_over_the_whole() {
        assert_eq!(ledger_ratio(&[250.0, 500.0, 250.0], 1000.0), 1.0);
        assert_eq!(ledger_ratio(&[450.0, 450.0], 1000.0), 0.9);
        assert_eq!(ledger_ratio(&[1.0], 0.0), 0.0);
    }
}
