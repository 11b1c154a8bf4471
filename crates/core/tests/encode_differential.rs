//! Differential test for the encode stages. `AgeEncoder::encode_into`
//! stops the §4.3 split search as soon as no further split could carry
//! more data, merges groups and picks pruning victims by selection instead
//! of sorting, and quantizes and packs each lane in one
//! `BitWriter::write_quantized` pass; the Standard, Padded and ablation
//! encoders pack through the same pass. The stages they replaced — the
//! exhaustive split search, the union-find merge, the full-sort prune and
//! the two-pass quantize-then-pack — are kept here as references.
//!
//! Stage by stage, the merged and split group lists and the victim sets
//! must equal the references'. Every frame (AGE plain, refined and
//! unsplit, Standard, Padded, Single, Unshifted, Pruned) must equal a
//! reference frame built from the reference stages and a per-field
//! packer, byte for byte, through `encode` and through a reused scratch.
//!
//! Inputs are seeded: widths 1–32, 1–6 features, `k` from 0 to `max_len`,
//! targets from `min_target_bytes` to 400 bytes, runs of equal values and
//! evenly spaced indices (tied prune and merge scores, long homogeneous
//! groups), so that the split search both wins and stops early.

use age_core::group::{self, Group, MergeScratch};
use age_core::prune::{self, PruneScratch};
use age_core::{
    AgeEncoder, Batch, BatchConfig, EncodeScratch, Encoder, PaddedEncoder, PrunedEncoder,
    SingleEncoder, StandardEncoder, UnshiftedEncoder,
};
use age_fixed::{BitWriter, Format};
use age_telemetry::{DetRng, SliceShuffle};

const CASES: usize = 1500;

/// Header and directory field sizes of the fixed-length layouts
/// (`encoder.rs`, `variants.rs`).
const K_BITS: usize = 16;
const GROUP_COUNT_BITS: usize = 8;
const EXP_BITS: u8 = 6;
const WIDTH_BITS: u8 = 6;
const MAX_GROUPS: usize = 255;
const UNSHIFTED_GROUPS: usize = 6;

/// `Format::quantize` as it was written before the lane quantizer: scale by
/// `2^frac`, saturate, round half away from zero.
fn reference_quantize(fmt: Format, x: f64) -> i64 {
    if x.is_nan() {
        return 0;
    }
    let scaled = x * f64::powi(2.0, i32::from(fmt.frac()));
    if scaled >= fmt.max_raw() as f64 {
        fmt.max_raw()
    } else if scaled <= fmt.min_raw() as f64 {
        fmt.min_raw()
    } else {
        scaled.round() as i64
    }
}

/// The two-pass lane packer: quantize the whole lane to two's complement
/// patterns, then write them one field at a time.
fn reference_pack(w: &mut BitWriter, fmt: Format, values: &[f64]) {
    let mask = (1u64 << fmt.width()) - 1;
    let lane: Vec<u64> = values
        .iter()
        .map(|&x| reference_quantize(fmt, x) as u64 & mask)
        .collect();
    for bits in lane {
        w.write_bits(bits, fmt.width());
    }
}

/// The count and the collected-index bitmask, one bit per time step.
fn reference_header_and_mask(w: &mut BitWriter, indices: &[usize], cfg: &BatchConfig) {
    w.write_u16(indices.len() as u16);
    for t in 0..cfg.max_len() {
        w.write_bits(u64::from(indices.binary_search(&t).is_ok()), 1);
    }
}

/// The full-sort prune: order every measurement by `(score, index)` and
/// drop the first `drop`. Returns the victims' positions, ascending.
fn reference_victims(batch: &Batch, drop: usize) -> Vec<usize> {
    let k = batch.len();
    if drop == 0 || k == 0 {
        return Vec::new();
    }
    if drop >= k {
        return (0..k).collect();
    }
    // `f64` scores do not depend on the format's fractional bits.
    let mut scores = Vec::new();
    prune::distance_scores_into(batch, 0, &mut scores);
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .expect("scores are never NaN")
            .then(a.cmp(&b))
    });
    let mut victims = order[..drop].to_vec();
    victims.sort_unstable();
    victims
}

/// The survivors of `batch` once `victims` are dropped.
fn without(batch: &Batch, victims: &[usize], features: usize) -> Batch {
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for (t, &index) in batch.indices().iter().enumerate() {
        if victims.binary_search(&t).is_err() {
            indices.push(index);
            values.extend_from_slice(&batch.values()[t * features..(t + 1) * features]);
        }
    }
    Batch::new(indices, values).expect("a subset of a valid batch is valid")
}

/// Prunes with the reference and checks the library picks the same
/// victims.
fn pruned(batch: &Batch, drop: usize, features: usize, case: &str) -> Batch {
    let victims = reference_victims(batch, drop);
    let want = without(batch, &victims, features);
    let mut got = Batch::empty();
    prune::prune_into(batch, drop, 0, &mut PruneScratch::default(), &mut got);
    assert_eq!(got.indices(), want.indices(), "{case}: victim set");
    want
}

/// The union-find greedy merge: sort every adjacent pair by its initial
/// `(score, i)` key, then join pairs in that order, skipping pairs already
/// in one span, until at most `max_groups` remain.
fn reference_merge(groups: &[Group], max_groups: usize) -> Vec<Group> {
    let max_groups = max_groups.max(1);
    if groups.len() <= max_groups {
        return groups.to_vec();
    }
    let score = |a: &Group, b: &Group| {
        a.count as i64 + b.count as i64 + 2 * (i64::from(a.exponent) - i64::from(b.exponent)).abs()
    };
    let mut order: Vec<usize> = (0..groups.len() - 1).collect();
    order.sort_by_key(|&i| (score(&groups[i], &groups[i + 1]), i));
    let mut parent: Vec<usize> = (0..groups.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut remaining = groups.len();
    for &i in &order {
        if remaining <= max_groups {
            break;
        }
        let (left, right) = (find(&mut parent, i), find(&mut parent, i + 1));
        if left != right {
            parent[right] = left;
            remaining -= 1;
        }
    }
    let mut out: Vec<Group> = Vec::new();
    let mut last_root = None;
    for (i, &g) in groups.iter().enumerate() {
        let root = find(&mut parent, i);
        match out.last_mut() {
            Some(tail) if last_root == Some(root) => {
                tail.count += g.count;
                tail.exponent = tail.exponent.max(g.exponent);
            }
            _ => {
                out.push(g);
                last_root = Some(root);
            }
        }
    }
    out
}

/// What the reference split search did, for coverage.
#[derive(Default)]
struct SplitTrace {
    /// Candidates that beat the best partition so far.
    kept: usize,
    /// Candidates tried after the data-bit bound already ruled them out:
    /// the work the library's exit skips.
    tried_past_bound: usize,
    /// Candidates tried while the bound still allowed a gain.
    tried_within_bound: usize,
}

/// The split search without the bound exit: try every candidate up to the
/// cap (or the directory-cost and unsplittable exits) and keep a clone of
/// the best.
fn reference_split(
    groups: &[Group],
    features: usize,
    full_width: u8,
    avail_bits: usize,
    entry_bits: usize,
    max_groups: usize,
) -> (Vec<Group>, SplitTrace) {
    let mut trace = SplitTrace::default();
    let k: usize = groups.iter().map(|g| g.count).sum();
    if k == 0 || groups.is_empty() {
        return (groups.to_vec(), trace);
    }
    let used_of = |candidate: &[Group]| -> usize {
        let budget = avail_bits.saturating_sub(candidate.len() * entry_bits);
        let mut widths = Vec::new();
        group::assign_widths_into(candidate, features, full_width, budget, &mut widths);
        candidate
            .iter()
            .zip(&widths)
            .map(|(g, &w)| g.count * features * usize::from(w))
            .sum()
    };
    let cap = max_groups.min(k).max(groups.len());
    let mut current = groups.to_vec();
    let mut best = current.clone();
    let mut best_used = used_of(&current);
    while current.len() < cap {
        let (idx, _) = current
            .iter()
            .enumerate()
            .max_by_key(|(i, g)| (g.count, usize::MAX - i))
            .expect("non-empty");
        if current[idx].count < 2 {
            break;
        }
        let bound = (k * features * usize::from(full_width))
            .min(avail_bits.saturating_sub((current.len() + 1) * entry_bits));
        if bound <= best_used {
            trace.tried_past_bound += 1;
        } else {
            trace.tried_within_bound += 1;
        }
        let g = current[idx];
        current[idx].count = g.count / 2 + g.count % 2;
        current.insert(
            idx + 1,
            Group {
                count: g.count / 2,
                exponent: g.exponent,
            },
        );
        let used = used_of(&current);
        assert!(used <= bound, "the data-bit bound is an upper bound");
        if used > best_used {
            best_used = used;
            best = current.clone();
            trace.kept += 1;
        } else if used + 4 * entry_bits < best_used {
            break;
        }
    }
    (best, trace)
}

/// The reference AGE encoder: the encoder's stage order on the reference
/// stages, checking the library's merged and split group lists and victim
/// sets on the way.
fn reference_age(
    batch: &Batch,
    cfg: &BatchConfig,
    target_bytes: usize,
    refined: bool,
    split: bool,
    trace: &mut SplitTrace,
    case: &str,
) -> Vec<u8> {
    let d = cfg.features();
    let w0 = cfg.format().width();
    let target_bits = target_bytes * 8;
    let fixed_bits = K_BITS + cfg.max_len() + GROUP_COUNT_BITS;
    let entry_bits = usize::from(cfg.count_bits()) + usize::from(EXP_BITS + WIDTH_BITS);
    let prune_budget = target_bits
        .saturating_sub(fixed_bits)
        .saturating_sub(entry_bits * AgeEncoder::MIN_GROUPS);
    let drop = prune::prune_count(batch.len(), d, AgeEncoder::MIN_WIDTH, prune_budget);
    let batch = if drop == 0 {
        batch.clone()
    } else if refined {
        prune::prune_incremental(batch, drop, cfg.format().frac())
    } else {
        pruned(batch, drop, d, case)
    };
    let k = batch.len();
    let mut exponents = Vec::new();
    group::measurement_exponents_into(&batch, cfg.format(), &mut exponents);
    let mut initial = Vec::new();
    group::form_groups_into(&exponents, &mut initial);
    let avail = target_bits.saturating_sub(fixed_bits);
    let max_groups = group::select_max_groups(
        avail,
        k * d * usize::from(w0),
        entry_bits,
        AgeEncoder::MIN_GROUPS,
    )
    .min(MAX_GROUPS);
    let merged = if refined {
        group::merge_groups_rescoring(initial, max_groups)
    } else {
        let want = reference_merge(&initial, max_groups);
        let mut got = initial;
        group::merge_groups_in_place(&mut got, max_groups, &mut MergeScratch::default());
        assert_eq!(got, want, "{case}: merged groups");
        want
    };
    let groups = if split {
        let (want, t) = reference_split(&merged, d, w0, avail, entry_bits, max_groups);
        trace.kept += t.kept;
        trace.tried_past_bound += t.tried_past_bound;
        trace.tried_within_bound += t.tried_within_bound;
        let got = library_split(merged, d, w0, avail, entry_bits, max_groups);
        assert_eq!(got, want, "{case}: split groups");
        want
    } else {
        merged
    };
    let mut widths = Vec::new();
    group::assign_widths_into(
        &groups,
        d,
        w0,
        avail.saturating_sub(entry_bits * groups.len()),
        &mut widths,
    );

    let mut w = BitWriter::new();
    reference_header_and_mask(&mut w, batch.indices(), cfg);
    w.write_u8(groups.len() as u8);
    for (g, &width) in groups.iter().zip(&widths) {
        w.write_bits(g.count as u64, cfg.count_bits());
        w.write_bits(u64::from(g.exponent), EXP_BITS);
        w.write_bits(u64::from(width), WIDTH_BITS);
    }
    let mut t = 0;
    for (g, &width) in groups.iter().zip(&widths) {
        if width > 0 {
            let fmt = Format::from_integer_bits(width, g.exponent).expect("valid group format");
            reference_pack(&mut w, fmt, &batch.values()[t * d..(t + g.count) * d]);
        }
        t += g.count;
    }
    w.pad_to_bytes(target_bytes);
    w.into_bytes()
}

/// The library's split search through fresh buffers.
fn library_split(
    mut groups: Vec<Group>,
    features: usize,
    full_width: u8,
    avail_bits: usize,
    entry_bits: usize,
    max_groups: usize,
) -> Vec<Group> {
    group::optimize_partition_in_place(
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

/// The Standard layout (`pad_to = None`) or the Padded one.
fn reference_standard(batch: &Batch, cfg: &BatchConfig, pad_to: Option<usize>) -> Vec<u8> {
    let d = cfg.features();
    let mut w = BitWriter::new();
    w.write_u16(batch.len() as u16);
    for (t, &index) in batch.indices().iter().enumerate() {
        w.write_bits(index as u64, cfg.index_bits());
        reference_pack(&mut w, cfg.format(), &batch.values()[t * d..(t + 1) * d]);
    }
    if let Some(pad_to) = pad_to {
        w.pad_to_bytes(pad_to);
    }
    w.into_bytes()
}

/// A lane format at `width` with the original exponent, clamped to fit.
fn clamped(cfg: &BatchConfig, width: u8) -> Format {
    Format::from_integer_bits(width, cfg.format().integer_bits().min(width))
        .expect("clamped integer bits always fit the width")
}

fn reference_single(batch: &Batch, cfg: &BatchConfig, target_bytes: usize) -> Vec<u8> {
    let budget = target_bytes * 8 - (K_BITS + cfg.max_len() + usize::from(WIDTH_BITS));
    let total = batch.len() * cfg.features();
    let width = budget
        .checked_div(total)
        .unwrap_or(0)
        .min(usize::from(cfg.format().width())) as u8;
    let mut w = BitWriter::new();
    let kept: &[usize] = if width == 0 { &[] } else { batch.indices() };
    reference_header_and_mask(&mut w, kept, cfg);
    w.write_bits(u64::from(width), WIDTH_BITS);
    if width > 0 {
        reference_pack(&mut w, clamped(cfg, width), batch.values());
    }
    w.pad_to_bytes(target_bytes);
    w.into_bytes()
}

fn reference_unshifted(batch: &Batch, cfg: &BatchConfig, target_bytes: usize) -> Vec<u8> {
    let d = cfg.features();
    let w0 = cfg.format().width();
    let budget = target_bytes * 8 - (K_BITS + cfg.max_len() + UNSHIFTED_GROUPS * 6);
    let empty = Batch::empty();
    let batch = if !batch.is_empty() && budget / (batch.len() * d) == 0 {
        &empty
    } else {
        batch
    };
    let k = batch.len();
    let counts: Vec<usize> = (0..UNSHIFTED_GROUPS)
        .map(|i| k / UNSHIFTED_GROUPS + usize::from(i < k % UNSHIFTED_GROUPS))
        .collect();
    let total = k * d;
    let base = budget.checked_div(total).unwrap_or(0).min(usize::from(w0)) as u8;
    let mut widths = vec![base; UNSHIFTED_GROUPS];
    let mut used = total * usize::from(base);
    // Round-robin single-bit bumps while the budget allows.
    let mut changed = total > 0;
    while changed {
        changed = false;
        for (i, &c) in counts.iter().enumerate() {
            if c > 0 && widths[i] < w0 && used + c * d <= budget {
                widths[i] += 1;
                used += c * d;
                changed = true;
            }
        }
    }
    let mut w = BitWriter::new();
    reference_header_and_mask(&mut w, batch.indices(), cfg);
    for &width in &widths {
        w.write_bits(u64::from(width), WIDTH_BITS);
    }
    let mut t = 0;
    for (&c, &width) in counts.iter().zip(&widths) {
        if width > 0 {
            reference_pack(
                &mut w,
                clamped(cfg, width),
                &batch.values()[t * d..(t + c) * d],
            );
        }
        t += c;
    }
    w.pad_to_bytes(target_bytes);
    w.into_bytes()
}

fn reference_pruned(batch: &Batch, cfg: &BatchConfig, target_bytes: usize, case: &str) -> Vec<u8> {
    let d = cfg.features();
    let budget = target_bytes * 8 - (K_BITS + cfg.max_len());
    let drop = prune::prune_count(batch.len(), d, cfg.format().width(), budget);
    let batch = pruned(batch, drop, d, case);
    let mut w = BitWriter::new();
    reference_header_and_mask(&mut w, batch.indices(), cfg);
    reference_pack(&mut w, cfg.format(), batch.values());
    w.pad_to_bytes(target_bytes);
    w.into_bytes()
}

/// A random configuration and batch. Half the batches are built to tie:
/// values repeat in runs (equal L1 distances, long equal-exponent runs)
/// and indices are evenly spaced (equal gaps).
fn config_and_batch(rng: &mut DetRng) -> (BatchConfig, Batch) {
    let max_len = rng.gen_range(1usize..=96);
    let features = rng.gen_range(1usize..=6);
    let width = rng.gen_range(1u32..=32) as u8;
    let n = rng.gen_range(1u32..=u32::from(width).min(12)) as u8;
    let fmt = Format::from_integer_bits(width, n).expect("valid by construction");
    let cfg = BatchConfig::new(max_len, features, fmt).expect("valid by construction");
    let k = rng.gen_range(0usize..=max_len);
    let (lo, hi) = (fmt.min_value(), fmt.max_value() + fmt.step());
    let tied = rng.gen_range(0u32..2) == 0;
    // A third of the batches keep every magnitude in one octave, so all
    // measurements share an exponent and form one long run to split.
    let band = (rng.gen_range(0u32..3) == 0)
        .then(|| fmt.max_value() / f64::from(1u32 << rng.gen_range(1u32..4)));
    let mut values = Vec::with_capacity(k * features);
    while values.len() < k * features {
        let x = match band {
            Some(top) => top * rng.gen_range(0.5..1.0),
            None => rng.gen_range(lo..hi) / f64::from(1u32 << rng.gen_range(0u32..8)),
        };
        let run = if tied {
            features * rng.gen_range(1usize..=12)
        } else {
            1
        };
        values.extend(std::iter::repeat_n(x, run));
    }
    values.truncate(k * features);
    let indices = if tied && k > 0 {
        let stride = max_len / k;
        (0..k).map(|i| i * stride).collect()
    } else {
        let mut all: Vec<usize> = (0..max_len).collect();
        all.shuffle(rng);
        all.truncate(k);
        all.sort_unstable();
        all
    };
    let batch = Batch::new(indices, values).expect("generator builds valid batches");
    (cfg, batch)
}

#[test]
fn encode_stages_match_the_references() {
    let mut rng = DetRng::seed_from_u64(0xE4C0DE);
    let mut scratch = EncodeScratch::new();
    let mut message = Vec::new();
    let mut trace = SplitTrace::default();
    let mut pruned_cases = 0usize;
    for case in 0..CASES {
        let (cfg, batch) = config_and_batch(&mut rng);
        let min = AgeEncoder::min_target_bytes(&cfg);
        // Half the targets are uniform; half squeeze the data to 20–100% of
        // its full-width size, where splitting a run can buy data bits.
        let target = if rng.gen_range(0u32..2) == 0 {
            rng.gen_range(min..=400.max(min))
        } else {
            let full = batch.len() * cfg.features() * usize::from(cfg.format().width());
            let squeezed = (full as f64 * rng.gen_range(0.2..1.0)) as usize;
            (min + squeezed / 8).min(400.max(min))
        };
        let variant_target =
            target.max((K_BITS + cfg.max_len() + UNSHIFTED_GROUPS * 6).div_ceil(8));
        let label = format!(
            "case {case} {} k={} target={target}",
            cfg.format(),
            batch.len()
        );
        let padded = PaddedEncoder::for_config(&cfg);
        let mut frames: Vec<(Box<dyn Encoder>, Vec<u8>)> = Vec::new();
        for (refined, split) in [(false, true), (true, true), (false, false)] {
            let enc = AgeEncoder::new(target)
                .with_refinement(refined)
                .with_group_splitting(split);
            let want = reference_age(&batch, &cfg, target, refined, split, &mut trace, &label);
            frames.push((Box::new(enc), want));
        }
        frames.push((
            Box::new(StandardEncoder),
            reference_standard(&batch, &cfg, None),
        ));
        let want = reference_standard(&batch, &cfg, Some(padded.pad_to()));
        frames.push((Box::new(padded), want));
        let want = reference_single(&batch, &cfg, variant_target);
        frames.push((Box::new(SingleEncoder::new(variant_target)), want));
        let want = reference_unshifted(&batch, &cfg, variant_target);
        frames.push((Box::new(UnshiftedEncoder::new(variant_target)), want));
        let want = reference_pruned(&batch, &cfg, variant_target, &label);
        frames.push((Box::new(PrunedEncoder::new(variant_target)), want));
        for (enc, want) in &frames {
            let got = enc.encode(&batch, &cfg).expect("valid batches encode");
            assert_eq!(&got, want, "{label} {}: encode", enc.name());
            enc.encode_into(&batch, &cfg, &mut scratch, &mut message)
                .expect("valid batches encode");
            assert_eq!(&message, want, "{label} {}: encode_into", enc.name());
        }
        let kept = frames[0].1[..2]
            .iter()
            .fold(0usize, |acc, &b| acc << 8 | usize::from(b));
        pruned_cases += usize::from(kept < batch.len());
    }
    // The generator reaches what the test claims to cover: pruning, splits
    // that win, and both sides of the split search's exit.
    assert!(
        pruned_cases >= CASES / 10,
        "only {pruned_cases} pruned cases"
    );
    assert!(
        trace.kept >= CASES / 10,
        "only {} winning splits",
        trace.kept
    );
    assert!(
        trace.tried_within_bound >= CASES / 5,
        "only {} candidates tried within the bound",
        trace.tried_within_bound
    );
    assert!(
        trace.tried_past_bound >= CASES / 5,
        "only {} candidates past the bound",
        trace.tried_past_bound
    );
}

/// Tied scores everywhere: every prune and merge key ties on its score, so
/// the index tie-break alone decides the victims and the merges.
#[test]
fn all_ties_break_by_index() {
    let cfg = BatchConfig::new(64, 2, Format::new(12, 8).expect("valid")).expect("valid");
    for k in 0..=64 {
        let batch = Batch::new((0..k).collect(), vec![0.5; k * 2]).expect("valid");
        for drop in 0..=k {
            pruned(&batch, drop, 2, &format!("k={k} drop={drop}"));
        }
        let groups = vec![
            Group {
                count: 3,
                exponent: 2
            };
            k
        ];
        for max_groups in 0..=k + 1 {
            let mut got = groups.clone();
            group::merge_groups_in_place(&mut got, max_groups, &mut MergeScratch::default());
            assert_eq!(
                got,
                reference_merge(&groups, max_groups),
                "k={k} max_groups={max_groups}"
            );
        }
        for target in [20, 40, 80, 160, 400] {
            let want = reference_age(
                &batch,
                &cfg,
                target,
                false,
                true,
                &mut SplitTrace::default(),
                "ties",
            );
            let got = AgeEncoder::new(target).encode(&batch, &cfg).expect("valid");
            assert_eq!(got, want, "k={k} target={target}");
        }
    }
}

/// The split search against the reference on every small input: one or two
/// initial groups, every data budget up to one that fits all values at
/// full width with room for eight directory entries. Near the exit's
/// boundary a winning candidate carries within one directory entry of its
/// budget, which seeded batches rarely reach.
#[test]
fn split_search_matches_the_reference_on_every_small_input() {
    let mut trace = SplitTrace::default();
    for count in 1..=16usize {
        for initial in [
            vec![Group { count, exponent: 3 }],
            vec![
                Group { count, exponent: 3 },
                Group {
                    count: count / 2 + 1,
                    exponent: 5,
                },
            ],
        ] {
            for features in [1usize, 2] {
                for full_width in [4u8, 16] {
                    for entry_bits in [7usize, 19] {
                        let k: usize = initial.iter().map(|g| g.count).sum();
                        let top = k * features * usize::from(full_width) + 8 * entry_bits;
                        for avail in 0..=top {
                            for max_groups in 1..=8 {
                                let (want, t) = reference_split(
                                    &initial, features, full_width, avail, entry_bits, max_groups,
                                );
                                trace.kept += t.kept;
                                let got = library_split(
                                    initial.clone(),
                                    features,
                                    full_width,
                                    avail,
                                    entry_bits,
                                    max_groups,
                                );
                                assert_eq!(
                                    got, want,
                                    "{initial:?} d={features} w0={full_width} \
                                     entry={entry_bits} avail={avail} max={max_groups}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(trace.kept > 0, "no split ever won");
}
