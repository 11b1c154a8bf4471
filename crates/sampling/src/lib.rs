//! Sampling policies for low-power sensors (paper §5.1).
//!
//! A policy walks a sequence of `T` measurements and decides which to
//! collect; the sensor only spends collection and transmission energy on the
//! chosen subset, and the server reconstructs the rest by interpolation.
//!
//! Implemented policies:
//!
//! - [`UniformPolicy`] — non-adaptive, evenly spaced. The rate is fixed, so
//!   message sizes carry no information (but error is suboptimal).
//! - [`RandomPolicy`] — non-adaptive Bernoulli baseline.
//! - [`LinearPolicy`] — the adaptive policy of Chatterjea & Havinga \[25\]:
//!   grows its collection period while consecutive samples stay similar,
//!   and resets it when they differ.
//! - [`DeviationPolicy`] — the adaptive policy of Silva et al. \[96\]
//!   (LiteSense): tracks a weighted moving deviation and doubles/halves the
//!   collection rate around a threshold.
//!
//! Adaptive policies are tuned to an energy budget by an offline threshold
//! fit ([`fit_threshold`]) that targets the budget's average collection
//! rate, exactly as the paper trains per-budget thresholds offline.
//!
//! # Examples
//!
//! ```
//! use age_sampling::{LinearPolicy, Policy};
//!
//! // A flat, then volatile signal: the adaptive policy collects sparsely
//! // at the start and densely at the end.
//! let mut seq: Vec<f64> = vec![0.0; 40];
//! seq.extend((0..40).map(|i| if i % 2 == 0 { 3.0 } else { -3.0 }));
//! let policy = LinearPolicy::new(0.5);
//! let idx = policy.sample(&seq, 1);
//! let early = idx.iter().filter(|&&i| i < 40).count();
//! let late = idx.iter().filter(|&&i| i >= 40).count();
//! assert!(late > early);
//! ```

mod deviation;
mod feedback;
mod fit;
mod linear;
pub mod mcu;
mod uniform;

pub use deviation::DeviationPolicy;
pub use feedback::FeedbackPolicy;
pub use fit::{average_rate, fit_threshold};
pub use linear::LinearPolicy;
pub use uniform::{RandomPolicy, UniformPolicy};

/// A sampling policy: selects which measurement indices to collect.
///
/// Policies are stateless across calls (per-sequence state lives on the
/// stack), so one instance can serve many sequences and threads. The
/// `Debug` bound keeps boxed policies inspectable in experiment logs and
/// property-test output.
pub trait Policy: std::fmt::Debug {
    /// Short name for experiment reports (e.g. `"Linear"`).
    fn name(&self) -> &'static str;

    /// `true` for policies whose collection count depends on the data —
    /// the property that opens the message-size side-channel.
    fn is_adaptive(&self) -> bool;

    /// Walks a row-major sequence (`values.len()` must be a multiple of
    /// `features`) and returns the strictly increasing collected indices.
    ///
    /// Policies are causal: the decision to collect index `t` may only use
    /// measurements collected before `t`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `values.len()` is not a multiple of
    /// `features` or `features` is zero.
    fn sample(&self, values: &[f64], features: usize) -> Vec<usize>;
}

/// Number of measurements in a row-major sequence.
///
/// # Panics
///
/// Panics if `features` is zero or does not divide `values.len()`.
pub(crate) fn seq_len<T>(values: &[T], features: usize) -> usize {
    assert!(features > 0, "features must be positive");
    assert_eq!(
        values.len() % features,
        0,
        "values must be a whole number of measurements"
    );
    values.len() / features
}

/// L1 distance between measurements `a` and `b` of a row-major sequence.
pub(crate) fn l1_distance(values: &[f64], features: usize, a: usize, b: usize) -> f64 {
    let xa = &values[a * features..(a + 1) * features];
    let xb = &values[b * features..(b + 1) * features];
    xa.iter().zip(xb).map(|(x, y)| (x - y).abs()).sum()
}
