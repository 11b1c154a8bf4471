//! The value types AGE's stages run on.
//!
//! AGE is written once, generic over [`Sample`]: `f64` values on a host,
//! and raw fixed-point `i64` integers on an MCU ([`crate::mcu`]). The trait
//! covers exactly the steps where the two differ — the §4.2 distance score,
//! the §4.3 exponent of one value and the §4.4 quantize-and-pack of one
//! group lane. Everything else (validation, victim selection, grouping,
//! merging, splitting, widths and message assembly) is shared code.

use std::fmt::Debug;

use age_fixed::{required_integer_bits, BitWriter, Format};

/// A measurement value the AGE encoder can encode.
///
/// Both implementations give byte-identical messages for format-exact
/// inputs: an `i64` batch of raw values `round(x · 2^frac)` encodes to the
/// same bytes as the `f64` batch of the values `x`.
pub trait Sample: Copy + Default + Debug {
    /// The §4.2 distance score: totally ordered over the scores a batch
    /// produces (never NaN), with ties broken by position.
    type Score: Copy + Default + PartialOrd + Debug;

    /// The score of the last measurement, which has no successor: above
    /// every real score, so it is never pruned before its predecessors.
    const LAST: Self::Score;

    /// The §4.2 score of measurement `a` against its successor `b`,
    /// collected `gap` time steps later, for values with `frac` fractional
    /// bits: `||a − b||₁ + gap/8`, or any order-preserving scaling of it.
    fn distance(a: &[Self], b: &[Self], gap: usize, frac: i16) -> Self::Score;

    /// Non-fractional bits (including the sign bit) this value needs, for
    /// values with `frac` fractional bits, clamped to `1..=max_n`.
    fn required_bits(self, frac: i16, max_n: u8) -> u8;

    /// Quantizes one group's lane of values, stored with `src`'s
    /// fractional bits, to the group's format `lane` and appends each as a
    /// `lane.width()`-bit two's complement field.
    fn pack_lane(w: &mut BitWriter, src: Format, lane: Format, values: &[Self]);
}

/// Values as real numbers; `src` formats are not consulted.
impl Sample for f64 {
    type Score = f64;

    const LAST: f64 = f64::INFINITY;

    #[inline]
    fn distance(a: &[f64], b: &[f64], gap: usize, _frac: i16) -> f64 {
        let l1: f64 = a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum();
        l1 + gap as f64 / 8.0
    }

    #[inline]
    fn required_bits(self, _frac: i16, max_n: u8) -> u8 {
        required_integer_bits(self, max_n)
    }

    #[inline]
    fn pack_lane(w: &mut BitWriter, _src: Format, lane: Format, values: &[f64]) {
        w.write_quantized(lane, values);
    }
}
