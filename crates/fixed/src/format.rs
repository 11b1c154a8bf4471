//! Signed fixed-point formats with saturating quantization.

use std::fmt;

/// Error returned when constructing an invalid [`Format`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FormatError {
    /// The requested total width was zero or exceeded [`Format::MAX_WIDTH`].
    InvalidWidth(u8),
    /// The fractional count left no room for the sign bit
    /// (`frac >= width` would mean zero non-fractional bits).
    InvalidFraction { width: u8, frac: i16 },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FormatError::InvalidWidth(w) => {
                write!(
                    f,
                    "fixed-point width {w} is outside 1..={}",
                    Format::MAX_WIDTH
                )
            }
            FormatError::InvalidFraction { width, frac } => {
                write!(
                    f,
                    "fractional bit count {frac} is invalid for width {width}"
                )
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// A signed two's complement fixed-point format.
///
/// A value `x` is stored as the integer `raw = round(x * 2^frac)` saturated
/// to `width` bits; `frac` may be negative, in which case the quantization
/// step is larger than one (useful when a group of large-magnitude values
/// must fit in a narrow width).
///
/// The paper's `n` ("non-fractional places", including the sign bit) is
/// [`Format::integer_bits`]; `n = width - frac`.
///
/// # Examples
///
/// ```
/// use age_fixed::Format;
///
/// let fmt = Format::new(5, 2)?; // 5 bits, step 0.25, range [-4, 3.75]
/// assert_eq!(fmt.integer_bits(), 3);
/// assert_eq!(fmt.dequantize(fmt.quantize(1.3)), 1.25);
/// assert_eq!(fmt.dequantize(fmt.quantize(100.0)), 3.75); // saturates
/// # Ok::<(), age_fixed::FormatError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Format {
    width: u8,
    frac: i16,
}

impl Format {
    /// Largest supported total width in bits.
    pub const MAX_WIDTH: u8 = 32;

    /// Creates a format with `width` total bits, `frac` of them fractional.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidWidth`] if `width` is zero or larger
    /// than [`Format::MAX_WIDTH`], and [`FormatError::InvalidFraction`] if
    /// `frac >= width` (no sign bit would remain) or `frac` is unreasonably
    /// negative (`width - frac > 64`).
    pub fn new(width: u8, frac: i16) -> Result<Self, FormatError> {
        if width == 0 || width > Self::MAX_WIDTH {
            return Err(FormatError::InvalidWidth(width));
        }
        let integer_bits = i32::from(width) - i32::from(frac);
        if !(1..=64).contains(&integer_bits) {
            return Err(FormatError::InvalidFraction { width, frac });
        }
        Ok(Format { width, frac })
    }

    /// Creates a format from the paper's notation: total width and
    /// non-fractional places `n` (including the sign bit).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Format::new`] with `frac = width - n`.
    pub fn from_integer_bits(width: u8, n: u8) -> Result<Self, FormatError> {
        Format::new(width, i16::from(width) - i16::from(n))
    }

    /// Total width in bits (the paper's `w`).
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Fractional bit count (may be negative).
    pub fn frac(&self) -> i16 {
        self.frac
    }

    /// Non-fractional places including the sign bit (the paper's `n`).
    pub fn integer_bits(&self) -> u8 {
        (i32::from(self.width) - i32::from(self.frac)) as u8
    }

    /// The quantization step `2^-frac`.
    pub fn step(&self) -> f64 {
        exp2(-i32::from(self.frac))
    }

    /// Largest raw integer representable (`2^(width-1) - 1`).
    pub fn max_raw(&self) -> i64 {
        (1i64 << (self.width - 1)) - 1
    }

    /// Smallest raw integer representable (`-2^(width-1)`).
    pub fn min_raw(&self) -> i64 {
        -(1i64 << (self.width - 1))
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f64 {
        self.dequantize(self.max_raw())
    }

    /// Smallest representable value.
    pub fn min_value(&self) -> f64 {
        self.dequantize(self.min_raw())
    }

    /// Quantizes `x` to the nearest representable raw integer, saturating at
    /// the format bounds. Non-finite inputs saturate (NaN maps to zero).
    pub fn quantize(&self, x: f64) -> i64 {
        self.quantizer()(x)
    }

    /// [`Format::quantize`] with the scale factor and saturation bounds
    /// hoisted out, so a lane loop over the returned closure is pure
    /// straight-line float math the compiler can vectorize.
    #[inline]
    pub(crate) fn quantizer(&self) -> impl Fn(f64) -> i64 {
        let scale = exp2(i32::from(self.frac));
        let (min_raw, max_raw) = (self.min_raw(), self.max_raw());
        let (lo, hi) = (min_raw as f64, max_raw as f64);
        move |x| {
            let scaled = x * scale;
            if x.is_nan() {
                0
            } else if scaled >= hi {
                max_raw
            } else if scaled <= lo {
                min_raw
            } else {
                // Round half away from zero, like an MCU's fixed-point
                // library: add the largest double below one half, signed
                // like `scaled`, and truncate. Bit-identical to
                // `scaled.round() as i64` for every |scaled| < 2^31 (all
                // that reach this branch: widths are at most 32 bits), and
                // unlike `round` it needs no library call on baseline
                // x86_64 (no SSE4.1 `roundsd`).
                (scaled + 0.499_999_999_999_999_94_f64.copysign(scaled)) as i64
            }
        }
    }

    /// Converts a raw integer back to its real value.
    pub fn dequantize(&self, raw: i64) -> f64 {
        raw as f64 * self.step()
    }

    /// Quantizes and immediately dequantizes, yielding the representable
    /// value nearest to `x` (saturated to the format range).
    pub fn round_trip(&self, x: f64) -> f64 {
        self.dequantize(self.quantize(x))
    }

    /// Maximum absolute quantization error for values inside the
    /// representable range: half a step.
    pub fn half_step(&self) -> f64 {
        self.step() * 0.5
    }

    /// Encodes a raw integer as a `width`-bit two's complement pattern
    /// suitable for [`crate::BitWriter::write_bits`].
    ///
    /// # Panics
    ///
    /// Debug-asserts that `raw` is within the format's raw range.
    pub fn to_bits(&self, raw: i64) -> u64 {
        debug_assert!(raw >= self.min_raw() && raw <= self.max_raw());
        (raw as u64) & self.mask()
    }

    /// Decodes a `width`-bit two's complement pattern into a raw integer
    /// (sign-extending).
    pub fn from_bits(&self, bits: u64) -> i64 {
        let bits = bits & self.mask();
        let sign_bit = 1u64 << (self.width - 1);
        if bits & sign_bit != 0 {
            (bits | !self.mask()) as i64
        } else {
            bits as i64
        }
    }

    fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Quantizes a whole slice into raw integers, replacing the contents of
    /// `out` (which is cleared and refilled — no allocation once warm).
    /// Results are bit-identical to calling [`Format::quantize`] per element.
    pub fn quantize_slice(&self, xs: &[f64], out: &mut Vec<i64>) {
        let quantize = self.quantizer();
        out.clear();
        out.extend(xs.iter().map(|&x| quantize(x)));
    }
}

impl fmt::Display for Format {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.integer_bits(), self.frac)
    }
}

/// Computes `2^e` as an `f64` for any `i32` exponent.
///
/// Normal-range exponents (every one a valid [`Format`] can produce, since
/// `Format::new` bounds `width - frac` to 1..=64) are built directly from the
/// IEEE-754 exponent field — a shift instead of a `powi` call in the
/// quantization hot loop. Powers of two are exact in both paths, so the
/// result is bit-identical to `f64::powi(2.0, e)`.
fn exp2(e: i32) -> f64 {
    if (-1022..=1023).contains(&e) {
        f64::from_bits(((e + 1023) as u64) << 52)
    } else {
        f64::powi(2.0, e)
    }
}

/// Smallest non-fractional width `n` (including the sign bit) such that a
/// fixed-point format with `n` integer bits represents `x` without
/// saturating, i.e. `-2^(n-1) <= x < 2^(n-1)`.
///
/// This is the per-value "exponent" that AGE's group-formation step
/// compresses with run-length encoding (§4.3). The result is clamped to
/// `max_n`, so callers can bound exponents by the original format.
///
/// # Examples
///
/// ```
/// use age_fixed::required_integer_bits;
///
/// assert_eq!(required_integer_bits(0.0, 16), 1);
/// assert_eq!(required_integer_bits(0.25, 16), 1);
/// assert_eq!(required_integer_bits(1.5, 16), 2);
/// assert_eq!(required_integer_bits(-2.0, 16), 2);  // -2 == -2^1 fits in n=2
/// assert_eq!(required_integer_bits(2.0, 16), 3);
/// ```
pub fn required_integer_bits(x: f64, max_n: u8) -> u8 {
    // Read the answer off the IEEE-754 exponent field instead of scanning
    // widths one by one: a finite x with unbiased exponent e satisfies
    // |x| < 2^(e+1), so n = e + 2 always fits, and nothing narrower does —
    // except x == -2^e exactly (sign set, zero mantissa, normal), the one
    // value whose magnitude bound is inclusive (-2^(n-1) <= x), which fits
    // in n = e + 1. The clamp covers every special case: zero and
    // subnormals come out far below 1, while NaN and the infinities carry
    // exponent field 0x7ff and come out far above any `max_n`.
    let bits = x.to_bits();
    let exp_field = ((bits >> 52) & 0x7ff) as i32;
    let neg_pow2 = (bits >> 63) != 0 && (bits & ((1u64 << 52) - 1)) == 0 && exp_field != 0;
    let n = exp_field - 1023 + 2 - i32::from(neg_pow2);
    n.clamp(1, i32::from(max_n.max(1))) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Format::new(0, 0).is_err());
        assert!(Format::new(33, 0).is_err());
        assert!(Format::new(16, 16).is_err()); // no sign bit left
        assert!(Format::new(16, 13).is_ok());
        assert!(Format::new(5, -3).is_ok()); // coarse step of 8
        assert!(Format::new(4, -61).is_err()); // integer bits > 64
    }

    #[test]
    fn from_integer_bits_matches_paper_notation() {
        // Activity: 16 bits, 13 fractional => n0 = 3.
        let fmt = Format::from_integer_bits(16, 3).unwrap();
        assert_eq!(fmt.frac(), 13);
        assert_eq!(fmt.integer_bits(), 3);
    }

    #[test]
    fn quantize_rounds_to_nearest() {
        let fmt = Format::new(8, 4).unwrap(); // step 1/16
        assert_eq!(fmt.quantize(0.0), 0);
        assert_eq!(fmt.quantize(1.0), 16);
        assert_eq!(fmt.quantize(1.03), 16); // 1.03*16 = 16.48 -> 16
        assert_eq!(fmt.quantize(1.04), 17); // 16.64 -> 17
        assert_eq!(fmt.quantize(-1.04), -17);
    }

    #[test]
    fn quantize_saturates() {
        let fmt = Format::new(8, 4).unwrap(); // raw in [-128, 127]
        assert_eq!(fmt.quantize(1e9), 127);
        assert_eq!(fmt.quantize(-1e9), -128);
        assert_eq!(fmt.quantize(f64::INFINITY), 127);
        assert_eq!(fmt.quantize(f64::NEG_INFINITY), -128);
        assert_eq!(fmt.quantize(f64::NAN), 0);
    }

    #[test]
    fn negative_frac_gives_coarse_steps() {
        let fmt = Format::new(5, -3).unwrap(); // step 8, range [-128, 120]
        assert_eq!(fmt.step(), 8.0);
        assert_eq!(fmt.quantize(100.0), 13); // 100/8 = 12.5 -> 13 (half away)
        assert_eq!(fmt.dequantize(13), 104.0);
        assert_eq!(fmt.max_value(), 120.0);
        assert_eq!(fmt.min_value(), -128.0);
    }

    #[test]
    fn quantization_error_is_bounded_by_half_step() {
        let fmt = Format::new(7, 3).unwrap();
        let mut x = fmt.min_value();
        while x < fmt.max_value() {
            let err = (fmt.round_trip(x) - x).abs();
            assert!(err <= fmt.half_step() + 1e-12, "x={x} err={err}");
            x += 0.0371;
        }
    }

    #[test]
    fn bit_codec_roundtrips_all_raws() {
        for width in 1..=12u8 {
            let fmt = Format::new(width, 0).unwrap();
            for raw in fmt.min_raw()..=fmt.max_raw() {
                assert_eq!(fmt.from_bits(fmt.to_bits(raw)), raw);
            }
        }
    }

    #[test]
    fn required_integer_bits_boundary_cases() {
        assert_eq!(required_integer_bits(0.999, 16), 1);
        assert_eq!(required_integer_bits(1.0, 16), 2);
        assert_eq!(required_integer_bits(-1.0, 16), 1);
        assert_eq!(required_integer_bits(-1.0001, 16), 2);
        assert_eq!(required_integer_bits(3.99, 16), 3);
        assert_eq!(required_integer_bits(4.0, 16), 4);
        assert_eq!(required_integer_bits(1e30, 8), 8); // clamped
        assert_eq!(required_integer_bits(f64::NAN, 8), 8);
    }

    #[test]
    fn display_formats() {
        let fmt = Format::new(16, 13).unwrap();
        assert_eq!(fmt.to_string(), "Q3.13");
        let err = Format::new(0, 0).unwrap_err();
        assert!(err.to_string().contains("width 0"));
    }

    #[test]
    fn required_integer_bits_matches_reference_scan() {
        // The original width-by-width scan, kept as the ground truth for the
        // exponent-field fast path.
        fn reference(x: f64, max_n: u8) -> u8 {
            let max_n = max_n.max(1);
            if !x.is_finite() {
                return max_n;
            }
            for n in 1..=max_n {
                let hi = exp2(i32::from(n) - 1);
                if x < hi && x >= -hi {
                    return n;
                }
            }
            max_n
        }
        let mut cases: Vec<f64> = vec![
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            -5e-324,
            f64::MAX,
            f64::MIN,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e30,
            -1e30,
        ];
        // Every power of two in the clamp-relevant range, its negation, and
        // the representable values on either side of each.
        for e in -20..=20 {
            let p = exp2(e);
            for v in [p, -p] {
                cases.extend([v, v.next_up(), v.next_down()]);
            }
        }
        // A dense irrational-step sweep across the interesting range.
        let mut x = -70.0;
        while x < 70.0 {
            cases.push(x);
            x += 0.0371;
        }
        for &x in &cases {
            for max_n in [1u8, 2, 5, 8, 16, 64] {
                assert_eq!(
                    required_integer_bits(x, max_n),
                    reference(x, max_n),
                    "x={x:e} max_n={max_n}"
                );
            }
        }
    }

    #[test]
    fn fast_exp2_is_bit_identical_to_powi() {
        for e in -1100..=1100 {
            assert_eq!(
                exp2(e).to_bits(),
                f64::powi(2.0, e).to_bits(),
                "exp2({e}) diverges from powi"
            );
        }
    }

    #[test]
    fn slice_apis_match_scalar_paths() {
        let cases = [
            Format::new(16, 13).unwrap(),
            Format::new(5, -3).unwrap(),
            Format::new(32, 31).unwrap(),
            Format::new(1, 0).unwrap(),
            Format::new(9, 0).unwrap(),
        ];
        let xs: Vec<f64> = vec![
            0.0,
            -0.0,
            1.25,
            -1.03,
            1e9,
            -1e9,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            0.49999,
            -0.5,
            123.456,
        ];
        let mut raws = Vec::new();
        for fmt in cases {
            fmt.quantize_slice(&xs, &mut raws);
            assert_eq!(raws.len(), xs.len());
            for (i, &x) in xs.iter().enumerate() {
                assert_eq!(raws[i], fmt.quantize(x), "{fmt} x={x}");
            }
        }
    }

    /// The quantizer's add-and-truncate rounding equals an `f64::round`
    /// reference for every width and a spread of fractional counts, on
    /// every input class that can reach or border the rounding branch.
    #[test]
    fn quantizer_rounding_matches_f64_round() {
        fn reference(fmt: Format, x: f64) -> i64 {
            let scaled = x * exp2(i32::from(fmt.frac()));
            if x.is_nan() {
                0
            } else if scaled >= fmt.max_raw() as f64 {
                fmt.max_raw()
            } else if scaled <= fmt.min_raw() as f64 {
                fmt.min_raw()
            } else {
                scaled.round() as i64
            }
        }
        // Inputs in the scaled domain (`x * 2^frac`); each is also tried
        // negated and one ulp either side.
        let mut scaled: Vec<f64> = vec![0.0, 5e-324, f64::MIN_POSITIVE, 0.25, 0.5, 1.0];
        for k in (0..4096).chain((12..=31).flat_map(|e| {
            let p = 1u64 << e;
            [p - 2, p - 1, p, p + 1]
        })) {
            let k = k as f64;
            scaled.extend([k, k + 0.25, k + 0.5, k + 0.75]);
        }
        // A seeded sweep over |x| < 2^32, dense near zero and coarse above.
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        for _ in 0..20_000 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let magnitude = exp2((seed % 33) as i32);
            scaled.push((seed >> 11) as f64 / (1u64 << 53) as f64 * magnitude);
        }
        let mut checked = 0u64;
        for width in 1..=Format::MAX_WIDTH {
            let lowest = i16::from(width) - 64;
            let fracs = [i16::from(width) - 1, i16::from(width) / 2, 0, -3, lowest];
            for frac in fracs {
                let fmt = Format::new(width, frac).unwrap();
                let quantize = fmt.quantizer();
                let step = fmt.step();
                let bounds = [fmt.max_raw() as f64, fmt.min_raw() as f64];
                let edges = bounds
                    .into_iter()
                    .flat_map(|b| [b, b - 0.5, b + 0.5, b - 1.0]);
                let tiny = f64::MIN_POSITIVE.next_down();
                let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                let specials = specials.into_iter().chain([5e-324, -5e-324, tiny, -tiny]);
                for s in scaled.iter().copied().chain(edges) {
                    for v in [s, s.next_up(), s.next_down()] {
                        let x = v * step;
                        assert_eq!(quantize(-x), reference(fmt, -x), "{fmt} x={:e}", -x);
                        assert_eq!(quantize(x), reference(fmt, x), "{fmt} x={x:e}");
                        checked += 2;
                    }
                }
                for x in specials {
                    assert_eq!(quantize(x), reference(fmt, x), "{fmt} x={x:e}");
                }
            }
        }
        assert!(checked > 5_000_000, "{checked}");
    }

    #[test]
    fn integer_only_formats() {
        // MNIST: 9 bits, 0 fractional.
        let fmt = Format::new(9, 0).unwrap();
        assert_eq!(fmt.max_value(), 255.0);
        assert_eq!(fmt.quantize(254.6), 255);
        assert_eq!(fmt.round_trip(200.0), 200.0);
    }
}
