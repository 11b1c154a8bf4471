//! Differential test: `LeakageStream` keeps only joint counts and
//! rebuilds its marginals when scored. Every score must come out
//! bit-identical to a stream that keeps the label and size marginals
//! incrementally, next to the joint map — the reference below.
//!
//! Streams are seeded: the degenerate shapes (empty, one label, one
//! size), random shapes with 1–16 labels and 1–200 sizes, and the same
//! observations split into parts merged in shuffled order.
//!
//! The pair scorers `nmi` and `permutation_test` are checked the same
//! way against the two-slice permutation test they replaced, on pair
//! traces in caller order (not only a stream's map order).

use std::collections::BTreeMap;

use age_telemetry::{
    entropy_from_counts, nmi, permutation_test, DetRng, LeakageStream, SliceShuffle,
};

/// A stream that keeps both marginals next to the joint counts and
/// scores straight from them.
#[derive(Default)]
struct Reference {
    joint: BTreeMap<(usize, usize), u64>,
    labels: BTreeMap<usize, u64>,
    sizes: BTreeMap<usize, u64>,
    total: u64,
}

impl Reference {
    fn observe_n(&mut self, label: usize, size: usize, n: u64) {
        if n == 0 {
            return;
        }
        *self.joint.entry((label, size)).or_default() += n;
        *self.labels.entry(label).or_default() += n;
        *self.sizes.entry(size).or_default() += n;
        self.total += n;
    }

    fn label_entropy(&self) -> f64 {
        entropy_from_counts(self.labels.values().copied())
    }

    fn size_entropy(&self) -> f64 {
        entropy_from_counts(self.sizes.values().copied())
    }

    fn nmi(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let h_l = self.label_entropy();
        let h_m = self.size_entropy();
        if h_l + h_m == 0.0 {
            return 0.0;
        }
        let n = self.total as f64;
        let mut mi = 0.0;
        for (&(l, m), &c) in &self.joint {
            let p_joint = c as f64 / n;
            let p_l = self.labels[&l] as f64 / n;
            let p_m = self.sizes[&m] as f64 / n;
            mi += p_joint * (p_joint / (p_l * p_m)).log2();
        }
        (2.0 * mi / (h_l + h_m)).clamp(0.0, 1.0)
    }

    /// The permutation test over the counts expanded in map order.
    fn permutation_p(&self, permutations: usize, seed: u64) -> f64 {
        let mut labels = Vec::new();
        let mut sizes = Vec::new();
        for (&(l, m), &c) in &self.joint {
            for _ in 0..c {
                labels.push(l);
                sizes.push(m);
            }
        }
        two_slice_permutation_test(&labels, &sizes, permutations, seed)
    }
}

/// The two-slice permutation test the pair API replaced: shuffles a copy
/// of `sizes` with the same `DetRng` draws and scores each permutation
/// with a reference stream.
fn two_slice_permutation_test(
    labels: &[usize],
    sizes: &[usize],
    permutations: usize,
    seed: u64,
) -> f64 {
    assert_eq!(labels.len(), sizes.len(), "labels/sizes length mismatch");
    if labels.is_empty() || permutations == 0 {
        return 1.0;
    }
    let score = |sizes: &[usize]| {
        let mut stream = Reference::default();
        for (&l, &m) in labels.iter().zip(sizes) {
            stream.observe_n(l, m, 1);
        }
        stream.nmi()
    };
    let observed = score(sizes);
    let mut shuffled = sizes.to_vec();
    let mut rng = DetRng::seed_from_u64(seed);
    let mut at_least = 0usize;
    for _ in 0..permutations {
        shuffled.shuffle(&mut rng);
        if score(&shuffled) >= observed - 1e-12 {
            at_least += 1;
        }
    }
    (at_least + 1) as f64 / (permutations + 1) as f64
}

/// Asserts every score of `stream` equals the reference's, bit for bit.
fn assert_matches(stream: &LeakageStream, reference: &Reference, what: &str) {
    assert_eq!(stream.total(), reference.total, "{what}: total");
    assert_eq!(
        stream.nmi().to_bits(),
        reference.nmi().to_bits(),
        "{what}: nmi"
    );
    assert_eq!(
        stream.label_entropy().to_bits(),
        reference.label_entropy().to_bits(),
        "{what}: label entropy"
    );
    assert_eq!(
        stream.size_entropy().to_bits(),
        reference.size_entropy().to_bits(),
        "{what}: size entropy"
    );
    assert_eq!(
        stream.distinct_sizes(),
        reference.sizes.len(),
        "{what}: sizes"
    );
    assert_eq!(
        stream.distinct_labels(),
        reference.labels.len(),
        "{what}: labels"
    );
    assert_eq!(
        stream.min_size(),
        reference.sizes.keys().next().copied(),
        "{what}: min"
    );
    assert_eq!(
        stream.max_size(),
        reference.sizes.keys().next_back().copied(),
        "{what}: max"
    );
    for (permutations, seed) in [(0, 1), (20, 0xdead_beef)] {
        assert_eq!(
            stream.permutation_p(permutations, seed).to_bits(),
            reference.permutation_p(permutations, seed).to_bits(),
            "{what}: p-value ({permutations} permutations, seed {seed})"
        );
    }
}

/// `count` pairs over `labels` labels and `sizes` sizes, correlated with
/// probability `bias` so the NMI spans the whole range.
fn pairs(
    rng: &mut DetRng,
    count: usize,
    labels: usize,
    sizes: usize,
    bias: f64,
) -> Vec<(usize, usize, u64)> {
    (0..count)
        .map(|_| {
            let label = rng.gen_range(0..labels);
            let size = if rng.gen_bool(bias) {
                (label * 37) % sizes
            } else {
                rng.gen_range(0..sizes)
            };
            // Mostly single observations, some weighted ones, a few
            // zero-weight ones that must change nothing.
            let n = match rng.gen_range(0..10u64) {
                0 => 0,
                1..=2 => rng.gen_range(2..50u64),
                _ => 1,
            };
            (label * 3 + 1, 40 + size * 4, n)
        })
        .collect()
}

fn both(pairs: &[(usize, usize, u64)]) -> (LeakageStream, Reference) {
    let mut stream = LeakageStream::new();
    let mut reference = Reference::default();
    for &(label, size, n) in pairs {
        if n == 1 {
            stream.observe(label, size);
        } else {
            stream.observe_n(label, size, n);
        }
        reference.observe_n(label, size, n);
    }
    (stream, reference)
}

#[test]
fn degenerate_streams_match_the_reference() {
    let (stream, reference) = both(&[]);
    assert!(stream.is_empty());
    assert_matches(&stream, &reference, "empty");

    let mut rng = DetRng::seed_from_u64(1);
    let single_label: Vec<_> = (0..300)
        .map(|_| (4, rng.gen_range(60..90usize), 1))
        .collect();
    let (stream, reference) = both(&single_label);
    assert_matches(&stream, &reference, "single label");

    let constant_size: Vec<_> = (0..300)
        .map(|_| (rng.gen_range(0..5usize), 196, 1))
        .collect();
    let (stream, reference) = both(&constant_size);
    assert_matches(&stream, &reference, "constant size");

    let (stream, reference) = both(&[(2, 9, 1)]);
    assert_matches(&stream, &reference, "one observation");
}

#[test]
fn seeded_streams_match_the_reference() {
    let mut rng = DetRng::seed_from_u64(0x5eed);
    for case in 0..240 {
        let labels = rng.gen_range(1..=16usize);
        let sizes = rng.gen_range(1..=200usize);
        let count = rng.gen_range(1..400usize);
        let bias = rng.next_f64();
        let observed = pairs(&mut rng, count, labels, sizes, bias);
        let (stream, reference) = both(&observed);
        assert_matches(
            &stream,
            &reference,
            &format!("case {case}: {labels} labels, {sizes} sizes, {count} pairs, bias {bias:.2}"),
        );
    }
}

#[test]
fn merging_in_shuffled_order_matches_the_reference() {
    let mut rng = DetRng::seed_from_u64(0x0e7d);
    for case in 0..60 {
        let labels = rng.gen_range(1..=16usize);
        let sizes = rng.gen_range(1..=200usize);
        let count = rng.gen_range(1..400usize);
        let observed = pairs(&mut rng, count, labels, sizes, 0.5);
        let (whole, reference) = both(&observed);

        // Split into parts, then fold the parts in a shuffled order.
        let cuts = rng.gen_range(1..8usize);
        let mut parts: Vec<LeakageStream> = observed
            .chunks(count.div_ceil(cuts))
            .map(|chunk| both(chunk).0)
            .collect();
        parts.shuffle(&mut rng);
        let mut merged = LeakageStream::new();
        for part in &parts {
            merged.merge(part);
        }
        assert_eq!(merged, whole, "case {case}: merged state");
        assert_matches(&merged, &reference, &format!("case {case}: merged"));
    }
}

/// Asserts the pair scorers match the two-slice reference on `pairs`, in
/// the order given.
fn assert_pair_scores_match(pairs: &[(usize, usize)], what: &str) {
    let labels: Vec<usize> = pairs.iter().map(|&(l, _)| l).collect();
    let sizes: Vec<usize> = pairs.iter().map(|&(_, m)| m).collect();
    let mut reference = Reference::default();
    for &(l, m) in pairs {
        reference.observe_n(l, m, 1);
    }
    assert_eq!(
        nmi(pairs).to_bits(),
        reference.nmi().to_bits(),
        "{what}: nmi"
    );
    for (permutations, seed) in [(0, 1), (1, 7), (25, 0xdead_beef)] {
        assert_eq!(
            permutation_test(pairs, permutations, seed).to_bits(),
            two_slice_permutation_test(&labels, &sizes, permutations, seed).to_bits(),
            "{what}: p-value ({permutations} permutations, seed {seed})"
        );
    }
}

/// `count` pairs in draw order (one observation each).
fn trace(
    rng: &mut DetRng,
    count: usize,
    labels: usize,
    sizes: usize,
    bias: f64,
) -> Vec<(usize, usize)> {
    pairs(rng, count, labels, sizes, bias)
        .into_iter()
        .map(|(label, size, _)| (label, size))
        .collect()
}

#[test]
fn pair_scorers_match_the_two_slice_reference_on_degenerate_traces() {
    assert_pair_scores_match(&[], "empty");
    assert_pair_scores_match(&[(2, 9)], "one observation");
    let mut rng = DetRng::seed_from_u64(2);
    let single_label: Vec<_> = (0..300).map(|_| (4, rng.gen_range(60..90usize))).collect();
    assert_pair_scores_match(&single_label, "single label");
    let constant_size: Vec<_> = (0..300).map(|_| (rng.gen_range(0..5usize), 196)).collect();
    assert_pair_scores_match(&constant_size, "constant size");
    assert_pair_scores_match(&[(1, 64); 50], "both constant");
}

#[test]
fn pair_scorers_match_the_two_slice_reference_in_caller_order() {
    let mut rng = DetRng::seed_from_u64(0xca11);
    for case in 0..120 {
        let labels = rng.gen_range(1..=16usize);
        let sizes = rng.gen_range(1..=200usize);
        let count = rng.gen_range(1..400usize);
        let bias = rng.next_f64();
        let observed = trace(&mut rng, count, labels, sizes, bias);
        let what = format!("case {case}: {labels} labels, {sizes} sizes, {count} pairs");
        assert_pair_scores_match(&observed, &what);
        // A stream scores its map-order expansion: the same multiset, so
        // the same NMI, and the same p-value as the reference over it.
        let stream: LeakageStream = observed.iter().copied().collect();
        let expanded = stream.pairs();
        assert_eq!(stream.total(), expanded.len() as u64, "{what}: pairs");
        assert_pair_scores_match(&expanded, &format!("{what}, map order"));
        assert_eq!(
            stream.permutation_p(25, 0xdead_beef).to_bits(),
            permutation_test(&expanded, 25, 0xdead_beef).to_bits(),
            "{what}: permutation_p"
        );
    }
}
