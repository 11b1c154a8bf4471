//! The attacker's toolkit: information-theoretic leakage estimation and a
//! practical message-size classifier (paper §5.3–§5.4).
//!
//! The threat model (§3.1): a passive adversary sniffs the encrypted link,
//! observes only message *lengths*, can group messages by (unknown) event,
//! and fits a model offline. This crate implements both of the paper's
//! leakage analyses:
//!
//! - **Theoretical** ([`nmi`]): empirical normalized mutual information
//!   between event labels and message sizes, with an approximate
//!   [`permutation_test`] for significance (15,000 permutations in the
//!   paper). Both take `(label, size)` pairs and are re-exported from
//!   `age_telemetry::leakage`, so the online audit scores with the same
//!   code.
//! - **Practical** ([`ClassifierAttack`]): an AdaBoost ensemble of 50
//!   decision trees over summary features (average, median, standard
//!   deviation, IQR) of ten same-event message sizes, scored with
//!   stratified five-fold cross-validation.
//!
//! Beyond the paper's size channel, [`TimingAttack`] points the same
//! classifier machinery at inter-transmission *gaps* — the baseline for
//! the repo's timing-side-channel audit.
//!
//! # Examples
//!
//! ```
//! use age_attack::nmi;
//!
//! // `(label, size)` pairs whose sizes identify the labels: maximal NMI.
//! assert!((nmi(&[(0, 100), (0, 100), (1, 200), (1, 200)]) - 1.0).abs() < 1e-12);
//!
//! // Constant sizes leak nothing.
//! assert_eq!(nmi(&[(0, 64), (0, 64), (1, 64), (1, 64)]), 0.0);
//! ```

mod adaboost;
mod attack;
mod knn;
mod logistic;
mod timing;
mod tree;
mod welch;

pub use adaboost::AdaBoost;
pub use age_telemetry::leakage::{nmi, permutation_test};
pub use attack::{
    most_frequent_rate, permutation_importance, AttackModel, AttackOutcome, AttackSample,
    ClassifierAttack, ConfusionMatrix,
};
pub use knn::Knn;
pub use logistic::Logistic;
pub use timing::{gap_observations, TimingAttack};
pub use tree::{DecisionTree, TreeParams};
pub use welch::{welch_t_test, WelchTest};

/// The scorer this crate re-exports, checked as the attacker calls it: on
/// sniffed `(label, size)` pairs, including the degenerate captures.
#[cfg(test)]
mod nmi {
    mod tests {
        use crate::{nmi, permutation_test};
        use age_telemetry::leakage::entropy_from_counts;
        use age_telemetry::LeakageStream;

        #[test]
        fn entropy_known_values() {
            assert_eq!(entropy_from_counts([]), 0.0);
            assert_eq!(entropy_from_counts([10]), 0.0);
            assert!((entropy_from_counts([5, 5]) - 1.0).abs() < 1e-12);
            assert!((entropy_from_counts([1, 1, 1, 1]) - 2.0).abs() < 1e-12);
            // Zero counts are ignored.
            assert!((entropy_from_counts([5, 0, 5]) - 1.0).abs() < 1e-12);
        }

        #[test]
        fn nmi_perfect_dependence_is_one() {
            let pairs: Vec<(usize, usize)> =
                (0..100).map(|i| (i % 4, 100 + (i % 4) * 50)).collect();
            assert!((nmi(&pairs) - 1.0).abs() < 1e-12);
        }

        #[test]
        fn nmi_empty_input_is_zero() {
            assert_eq!(nmi(&[]), 0.0);
            assert!(!nmi(&[]).is_nan());
        }

        #[test]
        fn nmi_single_label_class_is_zero() {
            // Only one event ever occurs: H(L) = 0, nothing to leak. The
            // normalization must not divide 0 by 0.
            let pairs: Vec<(usize, usize)> = (0..200).map(|i| (3, 100 + i % 7)).collect();
            let v = nmi(&pairs);
            assert_eq!(v, 0.0);
            assert!(!v.is_nan());
        }

        #[test]
        fn nmi_constant_sizes_is_zero() {
            let pairs: Vec<(usize, usize)> = (0..100).map(|i| (i % 4, 220)).collect();
            let v = nmi(&pairs);
            assert_eq!(v, 0.0);
            assert!(!v.is_nan());
        }

        #[test]
        fn nmi_both_marginals_constant_is_zero() {
            // H(L) + H(M) = 0: the normalizing denominator is zero and must
            // be guarded, not divided by.
            let v = nmi(&[(1, 64); 50]);
            assert_eq!(v, 0.0);
            assert!(!v.is_nan());
        }

        #[test]
        fn permutation_test_detects_real_leakage() {
            let pairs: Vec<(usize, usize)> =
                (0..200).map(|i| (i % 2, 100 + (i % 2) * 80)).collect();
            let p = permutation_test(&pairs, 200, 42);
            assert!(p < 0.01, "p={p}");
        }

        #[test]
        fn nmi_matches_streaming_audit_exactly() {
            // The offline attack and the online audit must agree bit-for-bit:
            // same counts, same BTreeMap summation order, same float result.
            let pairs: Vec<(usize, usize)> = (0..300)
                .map(|i| (i % 3, if i % 5 == 0 { 200 } else { 80 + (i % 3) * 12 }))
                .collect();
            let mut stream = LeakageStream::new();
            for &(l, m) in &pairs {
                stream.observe(l, m);
            }
            assert_eq!(nmi(&pairs).to_bits(), stream.nmi().to_bits());
        }
    }
}
