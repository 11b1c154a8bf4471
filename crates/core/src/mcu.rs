//! Integer-only AGE encoding — the MCU execution path.
//!
//! The paper's sensor implementation runs on a TI MSP430 with no floating
//! point unit: measurements arrive as raw fixed-point integers in the batch
//! format `(w0, n0)`, `raw = round(x · 2^frac0)`, exactly what the sensor's
//! ADC and fixed-point pipeline produce. This module makes raw `i64` a
//! [`Sample`], so [`AgeEncoder::encode_samples`](crate::AgeEncoder::encode_samples)
//! runs every AGE stage (§4.2–§4.4) on a [`RawBatch`] through the same code
//! as the `f64` encoder. The `i64` impl computes with shifts, adds and
//! compares only, no float:
//!
//! - the §4.2 score is `8·||Δraw||₁ + gap·2^frac0`, the float score
//!   `||Δx||₁ + gap/8` scaled by `8·2^frac0`, so both order measurements
//!   alike;
//! - a value's exponent is read off its significant bits;
//! - a lane is requantized by an arithmetic shift with round-half-away
//!   and saturation, then packed.
//!
//! For format-exact inputs the messages are byte-identical to the `f64`
//! encoder's (enforced by property tests).

use age_fixed::{BitWriter, Format};

use crate::batch::{Batch, BatchConfig};
use crate::sample::Sample;

/// A batch of raw fixed-point measurements: strictly increasing indices
/// plus `k · d` raw integers in the configuration's `(w0, n0)` format.
///
/// # Examples
///
/// ```
/// use age_core::mcu::RawBatch;
///
/// // Two 1-feature measurements in a Q3.13 format: raw = x * 2^13.
/// let batch = RawBatch::new(vec![0, 4], vec![8192, -4096])?;
/// assert_eq!(batch.len(), 2);
/// # Ok::<(), age_core::BatchError>(())
/// ```
pub type RawBatch = Batch<i64>;

impl RawBatch {
    /// Quantizes a floating-point [`Batch`] into the raw format of `cfg` —
    /// what the ADC would have delivered directly.
    pub fn from_batch(batch: &Batch, cfg: &BatchConfig) -> Self {
        let fmt = cfg.format();
        let raw = batch.values().iter().map(|&x| fmt.quantize(x)).collect();
        Batch::new(batch.indices().to_vec(), raw).expect("same shape as a valid batch")
    }
}

/// Raw fixed-point values; `frac` and `src.frac()` are the batch format's
/// fractional bits.
impl Sample for i64 {
    type Score = i128;

    const LAST: i128 = i128::MAX;

    fn distance(a: &[i64], b: &[i64], gap: usize, frac: i16) -> i128 {
        let l1: i128 = a
            .iter()
            .zip(b)
            .map(|(x, y)| i128::from(x.abs_diff(*y)))
            .sum();
        // 8·l1 + gap·2^frac: the float score times 8·2^frac.
        let gap = gap as i128;
        let gap = if frac >= 0 { gap << frac } else { gap >> -frac };
        (l1 << 3) + gap
    }

    fn required_bits(self, frac: i16, max_n: u8) -> u8 {
        // The smallest n with -2^(n-1+frac) <= raw < 2^(n-1+frac): the
        // significant bits of raw (of !raw = -raw - 1 when negative), plus
        // the sign bit, minus the fractional bits. Zero fits anywhere.
        if self == 0 {
            return 1;
        }
        let magnitude = self ^ (self >> 63);
        let bits = 64 - magnitude.leading_zeros() as i32;
        (bits + 1 - i32::from(frac)).clamp(1, i32::from(max_n.max(1))) as u8
    }

    fn pack_lane(w: &mut BitWriter, src: Format, lane: Format, values: &[i64]) {
        // Requantize a stack chunk at a time and pack it in one pass.
        let mut fields = [0u64; 64];
        for chunk in values.chunks(fields.len()) {
            for (field, &raw) in fields.iter_mut().zip(chunk) {
                // `write_fields` keeps the low `width` bits: the two's
                // complement pattern.
                *field = requantize(raw, src.frac(), lane) as u64;
            }
            w.write_fields(&fields[..chunk.len()], lane.width());
        }
    }
}

/// Requantizes a raw value with `frac0` fractional bits to `lane`: an
/// arithmetic shift rounding half away from zero, then saturation — the
/// sequence of operations an MCU performs.
fn requantize(raw: i64, frac0: i16, lane: Format) -> i64 {
    let shift = i32::from(frac0) - i32::from(lane.frac());
    let shifted = if shift > 0 {
        let shift = shift.min(62);
        let half = 1i64 << (shift - 1);
        if raw >= 0 {
            (raw + half) >> shift
        } else {
            -((-raw + half) >> shift)
        }
    } else {
        raw << (-shift).min(62)
    };
    shifted.clamp(lane.min_raw(), lane.max_raw())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AgeEncoder, EncodeScratch, Encoder};

    fn cfg() -> BatchConfig {
        BatchConfig::new(50, 6, Format::new(16, 13).unwrap()).unwrap()
    }

    fn encode_i64(enc: &AgeEncoder, batch: &RawBatch, cfg: &BatchConfig) -> Vec<u8> {
        let mut out = Vec::new();
        enc.encode_samples(batch, cfg, &mut EncodeScratch::default(), &mut out)
            .unwrap();
        out
    }

    fn format_exact_batch(k: usize, d: usize, cfg: &BatchConfig) -> Batch {
        let fmt = cfg.format();
        let values: Vec<f64> = (0..k * d)
            .map(|i| fmt.round_trip(((i as f64) * 0.37).sin() * 2.0))
            .collect();
        Batch::new((0..k).collect(), values).unwrap()
    }

    #[test]
    fn raw_batch_construction_validates() {
        assert!(RawBatch::new(vec![1, 1], vec![0, 0]).is_err());
        assert!(RawBatch::new(vec![], vec![5]).is_err());
        assert!(RawBatch::new(vec![], vec![]).is_ok());
        assert!(RawBatch::new(vec![0, 1], vec![1, 2, 3]).is_err());
        let b = RawBatch::new(vec![0, 1], vec![1, 2, 3, 4]).unwrap();
        assert_eq!(b.features(), 2);
    }

    #[test]
    fn integer_encode_matches_float_encoder_exactly() {
        let c = cfg();
        let enc = AgeEncoder::new(220);
        for k in [0usize, 1, 7, 25, 50] {
            let fb = format_exact_batch(k, 6, &c);
            let rb = RawBatch::from_batch(&fb, &c);
            let float_msg = enc.encode(&fb, &c).unwrap();
            let int_msg = encode_i64(&enc, &rb, &c);
            assert_eq!(float_msg, int_msg, "k={k}");
        }
    }

    #[test]
    fn integer_encode_matches_under_heavy_pruning() {
        let c = cfg();
        let enc = AgeEncoder::new(35);
        let fb = format_exact_batch(50, 6, &c);
        let rb = RawBatch::from_batch(&fb, &c);
        assert_eq!(enc.encode(&fb, &c).unwrap(), encode_i64(&enc, &rb, &c));
    }

    #[test]
    fn integer_encode_matches_for_integer_formats() {
        // Tiselac-like: frac0 = 0.
        let c = BatchConfig::new(23, 10, Format::new(16, 0).unwrap()).unwrap();
        let fmt = c.format();
        let values: Vec<f64> = (0..23 * 10)
            .map(|i| fmt.round_trip((i * 13 % 3000) as f64))
            .collect();
        let fb = Batch::new((0..23).collect(), values).unwrap();
        let rb = RawBatch::from_batch(&fb, &c);
        let enc = AgeEncoder::new(138);
        assert_eq!(enc.encode(&fb, &c).unwrap(), encode_i64(&enc, &rb, &c));
    }

    #[test]
    fn raw_required_bits_matches_float_version() {
        let mut raws = vec![
            -40960i64, -8192, -4096, -1, 0, 1, 4095, 4096, 8191, 8192, 30000,
        ];
        // Every power of two, its neighbours and their negations.
        for bit in 0..40 {
            let p = 1i64 << bit;
            raws.extend([p - 1, p, p + 1, -p - 1, -p, -p + 1]);
        }
        for frac0 in [-8i16, -1, 0, 1, 7, 13, 31] {
            for &raw in &raws {
                let x = raw as f64 * f64::powi(2.0, -i32::from(frac0));
                for max_n in [1u8, 3, 16, 64] {
                    assert_eq!(
                        raw.required_bits(frac0, max_n),
                        age_fixed::required_integer_bits(x, max_n),
                        "raw={raw} frac0={frac0} max_n={max_n}"
                    );
                }
            }
        }
    }

    #[test]
    fn raw_requantize_rounds_and_saturates() {
        // From Q3.13 to a 5-bit width with n=2 (f=3): shift right by 10.
        let lane = Format::from_integer_bits(5, 2).unwrap();
        let q = requantize(8192, 13, lane); // 1.0 -> 8 (1.0 * 2^3)
        assert_eq!(q, 8);
        // Saturation: 3.9 in Q3.13 is 31949; 5-bit n=2 max raw is 15 (1.875).
        assert_eq!(requantize(31949, 13, lane), 15);
        assert_eq!(requantize(-32768, 13, lane), -16);
        // Round half away from zero: raw 512+... 0.0625*8192=512; to f=3:
        // shift 10, half=512 -> (512+512)>>10 = 1.
        assert_eq!(requantize(512, 13, lane), 1);
        assert_eq!(requantize(-512, 13, lane), -1);
        assert_eq!(requantize(511, 13, lane), 0);
        // Widening (n=1 at full width, f=15): a left shift, no rounding.
        let wide = Format::from_integer_bits(16, 1).unwrap();
        assert_eq!(requantize(-4096, 13, wide), -16384);
    }

    #[test]
    fn decode_of_integer_message_roundtrips() {
        let c = cfg();
        let enc = AgeEncoder::new(300);
        let fb = format_exact_batch(20, 6, &c);
        let rb = RawBatch::from_batch(&fb, &c);
        let msg = encode_i64(&enc, &rb, &c);
        let decoded = enc.decode(&msg, &c).unwrap();
        assert_eq!(decoded.indices(), fb.indices());
    }
}
