//! Measurement pruning (paper §4.2).
//!
//! When the policy over-samples, even one bit per value may not fit in the
//! target message. AGE removes just enough measurements that every remaining
//! value receives at least `w_min` bits, choosing victims by a distance
//! score that estimates the reconstruction error of dropping them:
//!
//! ```text
//! Dist(x_t) = ||x_t − x_{t+1}||₁ + |α_t − α_{t+1}| / 8
//! ```
//!
//! The time-difference term discourages long collection gaps; the `1/8`
//! factor is chosen so an MCU can apply it with a bit shift. Scores are
//! computed once (the paper notes that incremental rescoring is not worth
//! the MCU overhead).

use crate::batch::Batch;
use crate::sample::Sample;

/// Reusable buffers for [`prune_into`] and [`prune_incremental_into`], so
/// steady-state pruning performs no heap allocations once the buffers have
/// grown to the batch size. `T` is the sample type's [`Sample::Score`].
#[derive(Debug, Default)]
pub struct PruneScratch<T = f64> {
    scores: Vec<T>,
    order: Vec<usize>,
    keep: Vec<bool>,
}

/// Clears `scores` and fills it with the distance score of every
/// measurement in `batch`, whose values have `frac` fractional bits (the
/// last measurement has no successor and gets [`Sample::LAST`], so it is
/// never pruned before its predecessors).
pub fn distance_scores_into<S: Sample>(batch: &Batch<S>, frac: i16, scores: &mut Vec<S::Score>) {
    let k = batch.len();
    scores.clear();
    scores.resize(k, S::LAST);
    for (t, score) in scores.iter_mut().enumerate().take(k.saturating_sub(1)) {
        let gap = batch.indices()[t + 1] - batch.indices()[t];
        *score = S::distance(batch.measurement(t), batch.measurement(t + 1), gap, frac);
    }
}

/// Number of measurements to drop so `min_width · (k − ℓ) · d` bits fit in
/// `budget_bits`: the largest ℓ per the paper, i.e. the smallest batch
/// shrink that makes the minimum width feasible. Returns 0 when the batch
/// already fits; may return `k` when nothing fits.
pub fn prune_count(k: usize, features: usize, min_width: u8, budget_bits: usize) -> usize {
    let per_measurement = usize::from(min_width) * features;
    if per_measurement == 0 {
        return 0;
    }
    let max_keep = budget_bits / per_measurement;
    k.saturating_sub(max_keep)
}

/// Orders two scores, breaking ties toward the earlier position: a total
/// order, since scores are never NaN.
fn by_score<T: PartialOrd>(scores: &[T], a: usize, b: usize) -> std::cmp::Ordering {
    scores[a]
        .partial_cmp(&scores[b])
        .expect("scores are never NaN")
        .then(a.cmp(&b))
}

/// Removes the `drop` measurements with the smallest distance scores
/// (values with `frac` fractional bits) and writes the survivors, in order,
/// into `out`, reusing both the scratch buffers and `out`'s allocations.
///
/// Ties are broken toward earlier measurements, matching a deterministic
/// MCU implementation that scans the score array once per removal.
pub fn prune_into<S: Sample>(
    batch: &Batch<S>,
    drop: usize,
    frac: i16,
    scratch: &mut PruneScratch<S::Score>,
    out: &mut Batch<S>,
) {
    let k = batch.len();
    if drop == 0 || k == 0 {
        out.copy_from(batch);
        return;
    }
    if drop >= k {
        out.clear();
        return;
    }
    distance_scores_into(batch, frac, &mut scratch.scores);
    // Select the `drop` smallest scores; tie-break by position. The index
    // tie-break makes the comparator a total order, so selection picks the
    // same victims as a full sort, in linear time and without allocating.
    scratch.order.clear();
    scratch.order.extend(0..k);
    let scores = &scratch.scores;
    scratch
        .order
        .select_nth_unstable_by(drop - 1, |&a, &b| by_score(scores, a, b));
    scratch.keep.clear();
    scratch.keep.resize(k, true);
    for &victim in &scratch.order[..drop] {
        scratch.keep[victim] = false;
    }
    batch.retain_positions_into(&scratch.keep, out);
}

/// Pruning with incremental score updates — the refinement the paper
/// mentions and rejects for MCU deployment (§4.2: "incrementally updating
/// the Dist scores yields an algorithm with lower error, but we find the
/// overhead is not worth the benefits"). Writes the survivors, in order,
/// into `out`, reusing the scratch buffers and `out`'s allocations like
/// [`prune_into`].
///
/// After each removal, the scores of the victim's neighbours are recomputed
/// against their *new* successors, so the estimate of each drop's error
/// stays exact. Worst-case `O(k·drop)` versus the one-shot version's
/// linear-time selection.
pub fn prune_incremental_into<S: Sample>(
    batch: &Batch<S>,
    drop: usize,
    frac: i16,
    scratch: &mut PruneScratch<S::Score>,
    out: &mut Batch<S>,
) {
    let k = batch.len();
    if drop == 0 || k == 0 {
        out.copy_from(batch);
        return;
    }
    if drop >= k {
        out.clear();
        return;
    }
    let PruneScratch {
        scores,
        keep: alive,
        ..
    } = scratch;
    alive.clear();
    alive.resize(k, true);
    distance_scores_into(batch, frac, scores);

    for _ in 0..drop {
        // Find the cheapest surviving victim (linear scan, as an MCU would).
        let victim = (0..k)
            .filter(|&t| alive[t])
            .min_by(|&a, &b| by_score(scores, a, b))
            .expect("drop < k leaves at least one survivor");
        alive[victim] = false;
        // Rescore the victim's surviving predecessor against its new
        // surviving successor, both found by the same kind of scan.
        if let Some(pred) = (0..victim).rev().find(|&t| alive[t]) {
            scores[pred] = match (victim + 1..k).find(|&t| alive[t]) {
                Some(succ) => {
                    let gap = batch.indices()[succ] - batch.indices()[pred];
                    S::distance(batch.measurement(pred), batch.measurement(succ), gap, frac)
                }
                None => S::LAST,
            };
        }
    }
    batch.retain_positions_into(alive, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(indices: Vec<usize>, flat: Vec<f64>) -> Batch {
        Batch::new(indices, flat).unwrap()
    }

    fn distance_scores(batch: &Batch) -> Vec<f64> {
        let mut scores = Vec::new();
        distance_scores_into(batch, 0, &mut scores);
        scores
    }

    fn prune(batch: &Batch, drop: usize) -> Batch {
        let mut out = Batch::empty();
        prune_into(batch, drop, 0, &mut PruneScratch::default(), &mut out);
        out
    }

    fn prune_incremental(batch: &Batch, drop: usize) -> Batch {
        let mut out = Batch::empty();
        prune_incremental_into(batch, drop, 0, &mut PruneScratch::default(), &mut out);
        out
    }

    #[test]
    fn scores_combine_value_and_time_distance() {
        let b = batch(vec![0, 2, 10], vec![1.0, 1.5, 1.5]);
        let s = distance_scores(&b);
        assert_eq!(s[0], 0.5 + 2.0 / 8.0);
        assert_eq!(s[1], 0.0 + 8.0 / 8.0);
        assert!(s[2].is_infinite());
    }

    #[test]
    fn multi_feature_scores_use_l1_norm() {
        let b = batch(vec![0, 1], vec![0.0, 1.0, 2.0, 0.0]);
        let s = distance_scores(&b);
        assert_eq!(s[0], 3.0 + 1.0 / 8.0);
    }

    #[test]
    fn prune_count_formula() {
        // k=50, d=6, w_min=5 => 30 bits per measurement.
        // Budget 35 bytes = 280 bits => keep 9, drop 41.
        assert_eq!(prune_count(50, 6, 5, 280), 41);
        // Plenty of budget: no pruning.
        assert_eq!(prune_count(10, 6, 5, 10_000), 0);
        // Nothing fits: drop all.
        assert_eq!(prune_count(4, 6, 5, 20), 4);
    }

    #[test]
    fn prune_removes_lowest_scores_first() {
        // Middle measurement is nearly identical to its successor and close
        // in time: lowest score, pruned first.
        let b = batch(vec![0, 5, 6, 20], vec![0.0, 3.0, 3.01, 9.0]);
        let pruned = prune(&b, 1);
        assert_eq!(pruned.indices(), &[0, 6, 20]);
        assert_eq!(pruned.values(), &[0.0, 3.01, 9.0]);
    }

    #[test]
    fn prune_preserves_order() {
        let b = batch(vec![0, 1, 2, 3, 4], vec![5.0, 4.0, 3.0, 2.0, 1.0]);
        let pruned = prune(&b, 2);
        assert!(pruned.indices().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(pruned.len(), 3);
    }

    #[test]
    fn prune_zero_is_identity_and_full_is_empty() {
        let b = batch(vec![1, 3], vec![0.5, 0.6]);
        assert_eq!(prune(&b, 0), b);
        assert!(prune(&b, 2).is_empty());
        assert!(prune(&b, 99).is_empty());
        assert!(prune(&Batch::empty(), 3).is_empty());
    }

    #[test]
    fn last_measurement_survives_longest() {
        let b = batch(vec![0, 1, 2], vec![0.0, 0.0, 0.0]);
        let pruned = prune(&b, 2);
        assert_eq!(pruned.indices(), &[2]);
    }

    #[test]
    fn incremental_prune_agrees_on_single_drops() {
        // With one victim the two algorithms are identical.
        let b = batch(vec![0, 5, 6, 20], vec![0.0, 3.0, 3.01, 9.0]);
        assert_eq!(prune(&b, 1), prune_incremental(&b, 1));
    }

    #[test]
    fn incremental_prune_avoids_gap_pileup() {
        // One-shot pruning can drop two *adjacent* cheap measurements,
        // creating a larger combined gap than rescoring would allow.
        let values: Vec<f64> = vec![0.0, 0.05, 0.1, 0.15, 5.0, 5.05, 9.0];
        let b = batch((0..7).collect(), values);
        let inc = prune_incremental(&b, 3);
        assert_eq!(inc.len(), 4);
        // Survivors still bracket both level shifts.
        assert!(inc.values().iter().any(|&v| v > 4.0 && v < 6.0));
        assert!(inc.values().contains(&9.0));
    }

    #[test]
    fn incremental_prune_edge_cases() {
        let b = batch(vec![1, 3], vec![0.5, 0.6]);
        assert_eq!(prune_incremental(&b, 0), b);
        assert!(prune_incremental(&b, 2).is_empty());
        assert!(prune_incremental(&batch(vec![], vec![]), 1).is_empty());
    }

    #[test]
    fn incremental_prune_reduces_reconstruction_error_on_average() {
        // The paper's claim: rescoring yields lower error. Check on a bumpy
        // signal where removal order matters.
        let values: Vec<f64> = (0..60)
            .map(|t| ((t as f64) * 0.7).sin() * ((t % 13) as f64 * 0.1))
            .collect();
        let b = batch((0..60).collect(), values.clone());
        let err = |pruned: &Batch| -> f64 {
            // Piecewise-linear reconstruction error against the original.
            let mut total = 0.0;
            for w in pruned.indices().windows(2) {
                let (i0, i1) = (w[0], w[1]);
                let (v0, v1) = (values[i0], values[i1]);
                for (t, &truth) in values.iter().enumerate().take(i1 + 1).skip(i0) {
                    let alpha = (t - i0) as f64 / (i1 - i0) as f64;
                    total += (v0 + alpha * (v1 - v0) - truth).abs();
                }
            }
            total
        };
        let one_shot = err(&prune(&b, 25));
        let rescored = err(&prune_incremental(&b, 25));
        assert!(
            rescored <= one_shot * 1.05,
            "rescoring should not be meaningfully worse: {rescored} vs {one_shot}"
        );
    }
}
