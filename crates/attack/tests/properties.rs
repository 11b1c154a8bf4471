//! Randomized property tests for the attacker toolkit, driven by the
//! workspace's deterministic PRNG (no external test deps).

use age_attack::{
    most_frequent_rate, nmi, AdaBoost, AttackSample, ConfusionMatrix, DecisionTree, Knn, Logistic,
    TreeParams,
};
use age_telemetry::{entropy_from_counts, DetRng};

const CASES: usize = 96;

fn random_vec(rng: &mut DetRng, len_range: std::ops::Range<usize>, hi: usize) -> Vec<usize> {
    let len = rng.gen_range(len_range);
    (0..len).map(|_| rng.gen_range(0usize..hi)).collect()
}

/// NMI is always within [0, 1].
#[test]
fn nmi_is_bounded() {
    let mut rng = DetRng::seed_from_u64(0xA1);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..300);
        let pairs: Vec<(usize, usize)> = (0..n)
            .map(|_| (rng.gen_range(0usize..6), rng.gen_range(0usize..40)))
            .collect();
        let v = nmi(&pairs);
        assert!((0.0..=1.0 + 1e-9).contains(&v), "nmi={v}");
    }
}

/// NMI is symmetric in its arguments.
#[test]
fn nmi_is_symmetric() {
    let mut rng = DetRng::seed_from_u64(0xA2);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..300);
        let pairs: Vec<(usize, usize)> = (0..n)
            .map(|_| (rng.gen_range(0usize..6), rng.gen_range(0usize..6)))
            .collect();
        let swapped: Vec<(usize, usize)> = pairs.iter().map(|&(a, b)| (b, a)).collect();
        assert!((nmi(&pairs) - nmi(&swapped)).abs() < 1e-12);
    }
}

/// NMI of a variable with itself is 1 (unless constant, where it is 0).
#[test]
fn nmi_self_is_maximal() {
    let mut rng = DetRng::seed_from_u64(0xA3);
    for _ in 0..CASES {
        let labels = random_vec(&mut rng, 2..200, 5);
        let distinct = labels
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        let pairs: Vec<(usize, usize)> = labels.iter().map(|&l| (l, l)).collect();
        let v = nmi(&pairs);
        if distinct > 1 {
            assert!((v - 1.0).abs() < 1e-9, "v={v}");
        } else {
            assert_eq!(v, 0.0);
        }
    }
}

/// Entropy is non-negative and maximized by the uniform distribution.
#[test]
fn entropy_bounds() {
    let mut rng = DetRng::seed_from_u64(0xA4);
    for _ in 0..CASES {
        let counts = random_vec(&mut rng, 1..20, 100);
        let h = entropy_from_counts(counts.iter().map(|&c| c as u64));
        assert!(h >= 0.0);
        let nonzero = counts.iter().filter(|&&c| c > 0).count();
        if nonzero > 0 {
            assert!(
                h <= (nonzero as f64).log2() + 1e-9,
                "h={h} nonzero={nonzero}"
            );
        }
    }
}

/// The most-frequent-label rate is a sane probability and a lower bound
/// for the uniform share.
#[test]
fn most_frequent_rate_bounds() {
    let mut rng = DetRng::seed_from_u64(0xA5);
    for _ in 0..CASES {
        let labels = random_vec(&mut rng, 1..200, 8);
        let r = most_frequent_rate(&labels);
        assert!((0.0..=1.0).contains(&r));
        let distinct = labels
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(r >= 1.0 / distinct as f64 - 1e-12);
    }
}

/// Attack features are order-invariant in the message window.
#[test]
fn attack_features_are_order_invariant() {
    let mut rng = DetRng::seed_from_u64(0xA6);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..30);
        let mut sizes: Vec<usize> = (0..n).map(|_| rng.gen_range(1usize..4000)).collect();
        let label = rng.gen_range(0usize..5);
        let a = AttackSample::from_sizes(&sizes, label);
        sizes.reverse();
        let b = AttackSample::from_sizes(&sizes, label);
        assert_eq!(a, b);
    }
}

/// A confusion matrix's accuracy equals correct/total by construction.
#[test]
fn confusion_accuracy_is_consistent() {
    let mut rng = DetRng::seed_from_u64(0xA7);
    for _ in 0..CASES {
        let n = rng.gen_range(1usize..200);
        let pairs: Vec<(usize, usize)> = (0..n)
            .map(|_| (rng.gen_range(0usize..4), rng.gen_range(0usize..4)))
            .collect();
        let mut m = ConfusionMatrix::new(4);
        let mut correct = 0usize;
        for &(t, p) in &pairs {
            m.record(t, p);
            if t == p {
                correct += 1;
            }
        }
        assert!((m.accuracy() - correct as f64 / pairs.len() as f64).abs() < 1e-12);
    }
}

/// Every classifier family reaches at least majority-class accuracy on
/// its own training data.
#[test]
fn classifiers_beat_or_match_majority() {
    let mut rng = DetRng::seed_from_u64(0xA8);
    for _ in 0..CASES {
        let n = rng.gen_range(12usize..80);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(0.0f64..10.0), rng.gen_range(0.0f64..10.0)])
            .collect();
        let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..3)).collect();
        let majority = most_frequent_rate(&y);
        let ada = AdaBoost::fit(&x, &y, 3, 8);
        assert!(ada.accuracy(&x, &y) >= majority - 1e-9, "adaboost");
        let tree = DecisionTree::fit(&x, &y, &vec![1.0; x.len()], 3, TreeParams::default());
        let tree_acc = x
            .iter()
            .zip(&y)
            .filter(|(r, &l)| tree.predict(r) == l)
            .count() as f64
            / x.len() as f64;
        assert!(tree_acc >= majority - 1e-9, "tree");
        // Logistic regression and kNN carry no majority guarantee on
        // adversarial tiny samples (gradient descent may stop early; exact
        // duplicates can vote against their own label) — assert totality
        // and sane ranges instead.
        let logistic = Logistic::fit(&x, &y, 3, 60);
        assert!((0.0..=1.0).contains(&logistic.accuracy(&x, &y)), "logistic");
        let knn = Knn::fit(&x, &y, 1);
        assert!((0.0..=1.0).contains(&knn.accuracy(&x, &y)), "knn");
    }
}

/// Tree predictions never panic on arbitrary in-dimension inputs.
#[test]
fn tree_predict_is_total() {
    let mut rng = DetRng::seed_from_u64(0xA9);
    for _ in 0..CASES {
        let n = rng.gen_range(4usize..40);
        let x: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.gen_range(0.0f64..5.0)]).collect();
        let y: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..2)).collect();
        let probe = vec![rng.gen_range(-1e6f64..1e6)];
        let tree = DecisionTree::fit(&x, &y, &vec![1.0; x.len()], 2, TreeParams::default());
        let pred = tree.predict(&probe);
        assert!(pred < 2);
    }
}
