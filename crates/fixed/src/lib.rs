//! Fixed-point arithmetic and bit-level packing for Adaptive Group Encoding.
//!
//! Low-power microcontrollers operate on fixed-point numbers: a value is an
//! integer `raw` interpreted as `raw / 2^frac`, stored in `width` bits of
//! two's complement. The AGE paper (§4.1) describes each measurement feature
//! as a `w0`-bit value with `n0` *non-fractional* bits; the relationship is
//! `n0 = w0 - frac0`, and `n0` logically plays the role of an exponent.
//!
//! This crate provides:
//!
//! - [`Format`]: a fixed-point format (total width + fractional bits, where
//!   the fractional count may be negative to represent coarse steps larger
//!   than one), with saturating quantization and exact dequantization.
//! - [`required_integer_bits`]: the smallest non-fractional width (including
//!   the sign bit) that can hold a value without saturating — the "exponent"
//!   AGE compresses with run-length encoding.
//! - [`BitWriter`] / [`BitReader`]: MSB-first bit packing used to assemble
//!   byte-exact messages.
//!
//! # Examples
//!
//! ```
//! use age_fixed::Format;
//!
//! // A 16-bit format with 13 fractional bits (3 non-fractional), as used by
//! // the Activity dataset.
//! let fmt = Format::new(16, 13)?;
//! let raw = fmt.quantize(1.25);
//! assert_eq!(fmt.dequantize(raw), 1.25);
//! # Ok::<(), age_fixed::FormatError>(())
//! ```

#![forbid(unsafe_code)]

mod bits;
mod format;

pub use bits::{BitReader, BitReaderError, BitWriter};
pub use format::{required_integer_bits, Format, FormatError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_roundtrip_smoke() {
        let fmt = Format::new(16, 13).unwrap();
        let mut w = BitWriter::new();
        let raw = fmt.quantize(-0.75);
        w.write_bits(fmt.to_bits(raw), fmt.width());
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let got = fmt.from_bits(r.read_bits(fmt.width()).unwrap());
        assert_eq!(fmt.dequantize(got), -0.75);
    }
}
