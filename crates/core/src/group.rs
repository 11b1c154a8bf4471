//! Exponent-aware group formation (paper §4.3).
//!
//! Fixed-point quantization with a static exponent wastes precision when the
//! data range varies. AGE computes the required exponent (non-fractional
//! width, including the sign bit) for each measurement, run-length encodes
//! the exponent sequence into groups of adjacent measurements, and — because
//! RLE has no worst-case guarantee — greedily merges adjacent groups until
//! at most `G` remain, scoring a candidate merge of `g1, g2` as
//!
//! ```text
//! Score(g1, g2) = Count(g1) + Count(g2) + 2·|n1 − n2|
//! ```
//!
//! Merged groups adopt `max(n1, n2)` to avoid saturating large values. The
//! factor of two is implementable with a bit shift on an MCU. Scores are
//! computed once, and merges applied in ascending initial-score order (the
//! paper notes rescoring after each merge is not worth the MCU overhead).

use age_fixed::required_integer_bits;

use crate::batch::Batch;

/// A run of adjacent measurements sharing an exponent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Group {
    /// Number of measurements in the group.
    pub count: usize,
    /// Non-fractional bits (including sign) for every value in the group.
    pub exponent: u8,
}

/// Per-measurement exponent: the widest exponent needed by any of the
/// measurement's features, clamped to `max_n`.
pub fn measurement_exponents(batch: &Batch, max_n: u8) -> Vec<u8> {
    let mut out = Vec::new();
    measurement_exponents_into(batch, max_n, &mut out);
    out
}

/// Allocation-reusing form of [`measurement_exponents`]: clears `out` and
/// fills it with one exponent per measurement.
pub fn measurement_exponents_into(batch: &Batch, max_n: u8, out: &mut Vec<u8>) {
    out.clear();
    if batch.is_empty() {
        return;
    }
    // One flat pass over the row-major values; `chunks_exact` lets the
    // per-feature max reduce without a bounds check per measurement.
    out.extend(batch.values().chunks_exact(batch.features()).map(|row| {
        row.iter()
            .map(|&x| required_integer_bits(x, max_n))
            .max()
            .unwrap_or(1)
    }));
}

/// Run-length encodes an exponent sequence into maximal groups.
pub fn form_groups(exponents: &[u8]) -> Vec<Group> {
    let mut groups = Vec::new();
    form_groups_into(exponents, &mut groups);
    groups
}

/// Allocation-reusing form of [`form_groups`]: clears `out` and fills it
/// with the maximal runs.
pub fn form_groups_into(exponents: &[u8], out: &mut Vec<Group>) {
    out.clear();
    for &n in exponents {
        match out.last_mut() {
            Some(g) if g.exponent == n => g.count += 1,
            _ => out.push(Group {
                count: 1,
                exponent: n,
            }),
        }
    }
}

/// Reusable buffers for [`merge_groups_in_place`], so steady-state merging
/// performs no heap allocations once the buffers have grown to the group
/// count.
#[derive(Debug, Default)]
pub struct MergeScratch {
    keys: Vec<(i64, usize)>,
    merged: Vec<bool>,
}

/// Greedily merges adjacent groups (ascending initial score) until at most
/// `max_groups` remain. Skipped entirely when already within the cap.
pub fn merge_groups(groups: Vec<Group>, max_groups: usize) -> Vec<Group> {
    let mut groups = groups;
    merge_groups_in_place(&mut groups, max_groups, &mut MergeScratch::default());
    groups
}

/// Allocation-reusing form of [`merge_groups`]: merges within `groups`
/// itself and keeps all working state in `scratch`.
///
/// The greedy pass takes pairs in ascending `(score, i)` order and stops at
/// the cap. Pair `i` is the only link between groups `i` and `i + 1`, so
/// every pair it takes joins two different spans and removes one group:
/// it takes exactly the `len − max_groups` smallest keys. Those are
/// selected in linear time instead of sorting every key.
pub fn merge_groups_in_place(
    groups: &mut Vec<Group>,
    max_groups: usize,
    scratch: &mut MergeScratch,
) {
    let max_groups = max_groups.max(1);
    if groups.len() <= max_groups {
        return;
    }
    // Initial score of each adjacent pair (i, i+1), keyed with its index:
    // the keys are unique, so the selected set is deterministic.
    let keys = &mut scratch.keys;
    keys.clear();
    keys.extend(groups.windows(2).enumerate().map(|(i, pair)| {
        let (a, b) = (pair[0], pair[1]);
        let score = a.count as i64
            + b.count as i64
            + 2 * (i64::from(a.exponent) - i64::from(b.exponent)).abs();
        (score, i)
    }));
    let merges = groups.len() - max_groups;
    keys.select_nth_unstable(merges - 1);
    // `merged[i]`: group `i` joins its predecessor's span.
    let merged = &mut scratch.merged;
    merged.clear();
    merged.resize(groups.len(), false);
    for &(_, i) in &keys[..merges] {
        merged[i + 1] = true;
    }

    // Collapse the spans in order; the write cursor never overtakes the
    // read cursor.
    let mut write = 0;
    for i in 0..groups.len() {
        let g = groups[i];
        if merged[i] {
            let tail = &mut groups[write - 1];
            tail.count += g.count;
            tail.exponent = tail.exponent.max(g.exponent);
        } else {
            groups[write] = g;
            write += 1;
        }
    }
    groups.truncate(write);
}

/// Merging with score recomputation after every merge — the refinement the
/// paper mentions and rejects for MCU deployment (§4.3: "an algorithm that
/// updates scores after each merge yields a better approximation" but "the
/// benefits … are not worth the overhead on an MCU").
///
/// Worst-case `O(g²)` versus the one-shot version's linear-time selection.
pub fn merge_groups_rescoring(mut groups: Vec<Group>, max_groups: usize) -> Vec<Group> {
    let max_groups = max_groups.max(1);
    while groups.len() > max_groups {
        let (best, _) = groups
            .windows(2)
            .enumerate()
            .map(|(i, pair)| {
                let score = pair[0].count as i64
                    + pair[1].count as i64
                    + 2 * (i64::from(pair[0].exponent) - i64::from(pair[1].exponent)).abs();
                (i, score)
            })
            .min_by_key(|&(i, score)| (score, i))
            .expect("len > max_groups >= 1 implies an adjacent pair");
        groups[best] = Group {
            count: groups[best].count + groups[best + 1].count,
            exponent: groups[best].exponent.max(groups[best + 1].exponent),
        };
        groups.remove(best + 1);
    }
    groups
}

/// Selects the maximum group count `G` (paper §4.3): the greatest number of
/// groups whose metadata fits in the bytes left after reserving space for
/// every value at the full original width, but never fewer than `min_groups`
/// (`G0`).
///
/// * `target_bits`: space available for the group directory plus data.
/// * `full_width_bits`: `k · d · w0`, the data size with no compression.
/// * `entry_bits`: directory bits per group (count + exponent + width).
pub fn select_max_groups(
    target_bits: usize,
    full_width_bits: usize,
    entry_bits: usize,
    min_groups: usize,
) -> usize {
    let spare = target_bits.saturating_sub(full_width_bits);
    let by_space = spare.checked_div(entry_bits).unwrap_or(0);
    by_space.max(min_groups)
}

/// Round-robin width assignment (§4.4): every group starts at the widest
/// uniform feasible base, then groups take single-bit increments while the
/// data budget allows, mimicking fractional widths.
pub fn assign_widths(
    groups: &[Group],
    features: usize,
    full_width: u8,
    data_budget_bits: usize,
) -> Vec<u8> {
    let mut widths = Vec::new();
    assign_widths_into(groups, features, full_width, data_budget_bits, &mut widths);
    widths
}

/// Allocation-reusing form of [`assign_widths`]: clears `widths` and fills
/// it with one width per group (left empty when there are no values, like
/// the owning form's empty return).
pub fn assign_widths_into(
    groups: &[Group],
    features: usize,
    full_width: u8,
    data_budget_bits: usize,
    widths: &mut Vec<u8>,
) {
    widths.clear();
    let total_values: usize = groups.iter().map(|g| g.count * features).sum();
    if total_values == 0 {
        return;
    }
    let base = (data_budget_bits / total_values).min(usize::from(full_width)) as u8;
    widths.resize(groups.len(), base);
    let mut used: usize = total_values * usize::from(base);
    loop {
        let mut changed = false;
        for (i, g) in groups.iter().enumerate() {
            let cost = g.count * features;
            if widths[i] < full_width && used + cost <= data_budget_bits {
                widths[i] += 1;
                used += cost;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
}

/// Splits groups to improve byte utilization (§4.3: "by expanding the
/// number of groups when possible, AGE reduces space wasted on padding").
///
/// A single homogeneous-exponent group gives the round-robin assignment no
/// granularity: its bump unit is the whole batch, so up to one bit per
/// value can go to padding. Splitting a run costs one directory entry
/// (`entry_bits`) but shrinks the bump unit. This routine simulates the
/// §4.4 assignment for each candidate group count up to `max_groups` and
/// keeps the partition with the fewest wasted bits, stopping as soon as no
/// further split could carry more data. Deterministic and cheap
/// (`max_groups` is small), so an MCU can afford it.
///
/// `avail_bits` is the space for directory + data together.
pub fn optimize_partition(
    groups: Vec<Group>,
    features: usize,
    full_width: u8,
    avail_bits: usize,
    entry_bits: usize,
    max_groups: usize,
) -> Vec<Group> {
    let mut groups = groups;
    optimize_partition_in_place(
        &mut groups,
        features,
        full_width,
        avail_bits,
        entry_bits,
        max_groups,
        &mut Vec::new(),
        &mut Vec::new(),
    );
    groups
}

/// Allocation-reusing form of [`optimize_partition`]: instead of cloning the
/// whole partition at every candidate improvement, it records each split's
/// index in `split_log` and — once the search stops — rewinds the splits
/// beyond the best step in reverse order (a split is its own inverse: merge
/// the two halves back at the recorded index). `trial_widths` backs the
/// per-candidate width simulation. Returns `true` when `trial_widths`
/// already holds the widths [`assign_widths_into`] gives the final
/// partition under `avail_bits` minus its directory — the search kept the
/// last candidate it sized — so the caller need not size it again.
#[allow(clippy::too_many_arguments)]
pub fn optimize_partition_in_place(
    groups: &mut Vec<Group>,
    features: usize,
    full_width: u8,
    avail_bits: usize,
    entry_bits: usize,
    max_groups: usize,
    split_log: &mut Vec<usize>,
    trial_widths: &mut Vec<u8>,
) -> bool {
    let k: usize = groups.iter().map(|g| g.count).sum();
    if k == 0 || groups.is_empty() {
        return false;
    }
    let cap = max_groups.min(k).max(groups.len());
    // Objective: maximize the bits that actually carry measurement data.
    // Directory growth is only worthwhile when it buys strictly more data
    // bits, so ties keep the smaller partition.
    fn used_of(
        candidate: &[Group],
        features: usize,
        full_width: u8,
        avail_bits: usize,
        entry_bits: usize,
        widths: &mut Vec<u8>,
    ) -> usize {
        let dir = candidate.len() * entry_bits;
        let data_budget = avail_bits.saturating_sub(dir);
        assign_widths_into(candidate, features, full_width, data_budget, widths);
        candidate
            .iter()
            .zip(widths.iter())
            .map(|(g, &w)| g.count * features * usize::from(w))
            .sum()
    }

    split_log.clear();
    let mut best_used = used_of(
        groups,
        features,
        full_width,
        avail_bits,
        entry_bits,
        trial_widths,
    );
    // Number of leading entries of `split_log` in the best partition so far.
    let mut best_splits = 0;
    // A candidate with `g` groups carries at most
    // `min(k·d·w0, avail − g·entry_bits)` data bits, a bound that only
    // falls as `g` grows. Once it cannot beat `best_used`, no later
    // candidate could be kept, so the search stops without trying them.
    let full_bits = k * features * usize::from(full_width);
    while groups.len() < cap
        && full_bits.min(avail_bits.saturating_sub((groups.len() + 1) * entry_bits)) > best_used
    {
        // Split the group with the most measurements into two halves.
        let (idx, _) = groups
            .iter()
            .enumerate()
            .max_by_key(|(i, g)| (g.count, usize::MAX - i))
            .expect("non-empty by construction");
        if groups[idx].count < 2 {
            break;
        }
        let g = groups[idx];
        let left = Group {
            count: g.count / 2 + g.count % 2,
            exponent: g.exponent,
        };
        let right = Group {
            count: g.count / 2,
            exponent: g.exponent,
        };
        groups[idx] = left;
        groups.insert(idx + 1, right);
        split_log.push(idx);
        let used = used_of(
            groups,
            features,
            full_width,
            avail_bits,
            entry_bits,
            trial_widths,
        );
        if used > best_used {
            best_used = used;
            best_splits = split_log.len();
        } else if used + 4 * entry_bits < best_used {
            // The directory cost now dominates any granularity gain.
            break;
        }
    }
    // Every split is sized as soon as it is made, so the widths are the
    // final partition's exactly when no split has to be undone.
    let widths_current = split_log.len() == best_splits;
    // Rewind to the best partition: undo the splits past `best_splits` in
    // reverse, so every logged index refers to the layout it was made in.
    while split_log.len() > best_splits {
        let idx = split_log.pop().expect("loop condition implies non-empty");
        groups[idx].count += groups[idx + 1].count;
        groups.remove(idx + 1);
    }
    widths_current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;

    #[test]
    fn exponents_take_feature_max() {
        let b = Batch::new(vec![0, 1], vec![0.4, 3.0, 0.1, 0.2]).unwrap();
        let e = measurement_exponents(&b, 16);
        assert_eq!(e, vec![3, 1]); // 3.0 needs n=3; both small in second row
    }

    #[test]
    fn exponents_clamp_to_max() {
        let b = Batch::new(vec![0], vec![1e9]).unwrap();
        assert_eq!(measurement_exponents(&b, 12), vec![12]);
    }

    #[test]
    fn rle_forms_maximal_runs() {
        let groups = form_groups(&[2, 2, 2, 5, 5, 1]);
        assert_eq!(
            groups,
            vec![
                Group {
                    count: 3,
                    exponent: 2
                },
                Group {
                    count: 2,
                    exponent: 5
                },
                Group {
                    count: 1,
                    exponent: 1
                },
            ]
        );
        assert!(form_groups(&[]).is_empty());
    }

    #[test]
    fn merge_noop_when_within_cap() {
        let groups = form_groups(&[1, 2, 1]);
        assert_eq!(merge_groups(groups.clone(), 3), groups);
        assert_eq!(merge_groups(groups.clone(), 10), groups);
    }

    #[test]
    fn merge_prefers_small_similar_groups() {
        // Pairs: (a,b) score 1+1+2*1=4, (b,c) score 1+10+2*0=11.
        let groups = vec![
            Group {
                count: 1,
                exponent: 3,
            },
            Group {
                count: 1,
                exponent: 4,
            },
            Group {
                count: 10,
                exponent: 4,
            },
        ];
        let merged = merge_groups(groups, 2);
        assert_eq!(
            merged,
            vec![
                Group {
                    count: 2,
                    exponent: 4
                },
                Group {
                    count: 10,
                    exponent: 4
                }
            ]
        );
    }

    #[test]
    fn merge_takes_max_exponent() {
        let groups = vec![
            Group {
                count: 2,
                exponent: 7,
            },
            Group {
                count: 2,
                exponent: 3,
            },
        ];
        let merged = merge_groups(groups, 1);
        assert_eq!(
            merged,
            vec![Group {
                count: 4,
                exponent: 7
            }]
        );
    }

    #[test]
    fn merge_to_one_group_preserves_count() {
        let groups = form_groups(&[1, 2, 3, 4, 5, 4, 3, 2, 1]);
        let merged = merge_groups(groups, 1);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].count, 9);
        assert_eq!(merged[0].exponent, 5);
    }

    #[test]
    fn merge_cascade_through_shared_groups() {
        // Four unit groups; merging (0,1) and (1,2) must cascade into one
        // span containing slots 0..=2.
        let groups = vec![
            Group {
                count: 1,
                exponent: 1,
            },
            Group {
                count: 1,
                exponent: 1,
            },
            Group {
                count: 1,
                exponent: 1,
            },
            Group {
                count: 50,
                exponent: 9,
            },
        ];
        let merged = merge_groups(groups, 2);
        assert_eq!(
            merged,
            vec![
                Group {
                    count: 3,
                    exponent: 1
                },
                Group {
                    count: 50,
                    exponent: 9
                }
            ]
        );
    }

    #[test]
    fn rescoring_merge_respects_cap_and_counts() {
        let groups = form_groups(&[1, 2, 3, 4, 5, 6, 7, 8]);
        for cap in 1..=8 {
            let merged = merge_groups_rescoring(groups.clone(), cap);
            assert!(merged.len() <= cap);
            assert_eq!(merged.iter().map(|g| g.count).sum::<usize>(), 8);
        }
    }

    #[test]
    fn rescoring_merge_matches_one_shot_on_easy_inputs() {
        // When pair scores are well separated both algorithms agree.
        let groups = vec![
            Group {
                count: 1,
                exponent: 2,
            },
            Group {
                count: 1,
                exponent: 2,
            },
            Group {
                count: 40,
                exponent: 9,
            },
        ];
        assert_eq!(
            merge_groups(groups.clone(), 2),
            merge_groups_rescoring(groups, 2)
        );
    }

    #[test]
    fn rescoring_merge_handles_chained_merges() {
        // After merging the two cheapest, the combined group's score rises,
        // steering the next merge elsewhere — the case one-shot gets wrong.
        let groups = vec![
            Group {
                count: 1,
                exponent: 1,
            },
            Group {
                count: 1,
                exponent: 1,
            },
            Group {
                count: 2,
                exponent: 1,
            },
            Group {
                count: 3,
                exponent: 8,
            },
            Group {
                count: 3,
                exponent: 8,
            },
        ];
        let merged = merge_groups_rescoring(groups, 2);
        assert_eq!(merged.len(), 2);
        // The small exponent-1 groups coalesce; the exponent-8 pair stays
        // merged separately, keeping exponents tight.
        assert_eq!(merged[0].exponent, 1);
        assert_eq!(merged[1].exponent, 8);
    }

    #[test]
    fn assign_widths_round_robin_fills_budget() {
        let groups = vec![
            Group {
                count: 10,
                exponent: 3
            };
            5
        ];
        // 5 groups × 10 measurements × 6 features = 300 values.
        let widths = assign_widths(&groups, 6, 16, 1650);
        let used: usize = groups
            .iter()
            .zip(&widths)
            .map(|(g, &w)| g.count * 6 * usize::from(w))
            .sum();
        assert!(used <= 1650);
        assert!(1650 - used < 60, "waste {}", 1650 - used);
        assert!(widths.iter().all(|&w| w == 5 || w == 6));
    }

    #[test]
    fn optimize_partition_splits_homogeneous_runs() {
        // One group of 50: the bump unit is 300 bits, wasting ~170 of the
        // leftover budget. Splitting must recover most of it.
        let groups = vec![Group {
            count: 50,
            exponent: 2,
        }];
        let avail = 1686; // bits for directory + data
        let best = optimize_partition(groups, 6, 16, avail, 18, 6);
        assert!(best.len() > 1, "should have split");
        assert_eq!(best.iter().map(|g| g.count).sum::<usize>(), 50);
        assert!(best.iter().all(|g| g.exponent == 2));
        // Waste with the chosen partition is under one value-bump.
        let dir = best.len() * 18;
        let widths = assign_widths(&best, 6, 16, avail - dir);
        let used: usize = best
            .iter()
            .zip(&widths)
            .map(|(g, &w)| g.count * 6 * usize::from(w))
            .sum();
        assert!(avail - dir - used < 300, "waste {}", avail - dir - used);
    }

    #[test]
    fn optimize_partition_keeps_generous_budgets_unsplit() {
        // Full width already fits: splitting only wastes directory space.
        let groups = vec![Group {
            count: 10,
            exponent: 3,
        }];
        let best = optimize_partition(groups.clone(), 2, 16, 10_000, 18, 50);
        assert_eq!(best, groups);
    }

    #[test]
    fn optimize_partition_handles_edge_cases() {
        assert!(optimize_partition(Vec::new(), 3, 16, 100, 18, 6).is_empty());
        let singleton = vec![Group {
            count: 1,
            exponent: 4,
        }];
        assert_eq!(
            optimize_partition(singleton.clone(), 3, 16, 100, 18, 6),
            singleton
        );
    }

    #[test]
    fn select_max_groups_floors_at_g0() {
        // Over-sampling: no spare bytes at full width => G0.
        assert_eq!(select_max_groups(1000, 5000, 20, 6), 6);
        // Under-sampling: plenty of spare => more groups allowed.
        assert_eq!(select_max_groups(5000, 1000, 20, 6), 200);
    }
}
