//! Integer-only AGE encoding — the MCU execution path.
//!
//! The paper's sensor implementation runs on a TI MSP430 with no floating
//! point unit: measurements arrive as raw fixed-point integers and every
//! step of AGE (§4.2–§4.4) is integer arithmetic, with the `1/8` and `×2`
//! scale factors chosen so they compile to shifts. This module mirrors
//! [`crate::AgeEncoder`] operating directly on raw values in the batch
//! format `(w0, n0)`, and is bit-for-bit equivalent to the floating-point
//! encoder for format-exact inputs (enforced by property tests).
//!
//! A `RawBatch` holds `raw = round(x · 2^frac0)` integers, exactly what the
//! sensor's ADC + fixed-point pipeline produces.

use age_fixed::{BitWriter, Format};

use crate::batch::{Batch, BatchConfig};
use crate::encoder::{AgeEncoder, EXP_BITS, GROUP_COUNT_BITS, K_BITS, MAX_GROUPS, WIDTH_BITS};
use crate::error::{BatchError, EncodeError};
use crate::group::{
    assign_widths, form_groups, merge_groups, optimize_partition, select_max_groups,
};

/// A batch of raw fixed-point measurements (the MCU-side twin of
/// [`Batch`]): strictly increasing indices plus `k · d` raw integers in the
/// configuration's `(w0, n0)` format.
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawBatch {
    indices: Vec<usize>,
    raw: Vec<i64>,
}

impl RawBatch {
    /// Creates a raw batch.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] under the same conditions as [`Batch::new`].
    pub fn new(indices: Vec<usize>, raw: Vec<i64>) -> Result<Self, BatchError> {
        if indices.windows(2).any(|w| w[0] >= w[1]) {
            return Err(BatchError::UnsortedIndices);
        }
        if indices.is_empty() {
            if raw.is_empty() {
                return Ok(RawBatch { indices, raw });
            }
            return Err(BatchError::LengthMismatch {
                indices: 0,
                values: raw.len(),
            });
        }
        if !raw.len().is_multiple_of(indices.len()) || raw.is_empty() {
            return Err(BatchError::LengthMismatch {
                indices: indices.len(),
                values: raw.len(),
            });
        }
        Ok(RawBatch { indices, raw })
    }

    /// Quantizes a floating-point [`Batch`] into the raw format of `cfg` —
    /// what the ADC would have delivered directly.
    pub fn from_batch(batch: &Batch, cfg: &BatchConfig) -> Self {
        let fmt = cfg.format();
        RawBatch {
            indices: batch.indices().to_vec(),
            raw: batch.values().iter().map(|&x| fmt.quantize(x)).collect(),
        }
    }

    /// Number of measurements.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` when nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The collected indices.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The raw values, row-major.
    pub fn raw(&self) -> &[i64] {
        &self.raw
    }

    fn features(&self) -> usize {
        if self.indices.is_empty() {
            0
        } else {
            self.raw.len() / self.indices.len()
        }
    }

    fn measurement(&self, t: usize) -> &[i64] {
        let d = self.features();
        &self.raw[t * d..(t + 1) * d]
    }

    fn retain(&self, keep: &[bool]) -> RawBatch {
        let d = self.features();
        let mut indices = Vec::new();
        let mut raw = Vec::new();
        for (t, &flag) in keep.iter().enumerate() {
            if flag {
                indices.push(self.indices[t]);
                raw.extend_from_slice(&self.raw[t * d..(t + 1) * d]);
            }
        }
        RawBatch { indices, raw }
    }
}

/// Integer distance scores (paper Eq. 1, scaled by 8 to stay integral):
/// `8·Dist(x_t) = 8·||x_t − x_{t+1}||₁(raw) + |α_t − α_{t+1}|·2^frac0`.
///
/// Multiplying the whole score by `8·2^frac0` preserves the ordering the
/// floating-point encoder uses: `Dist_f64 = ||Δx||₁ + gap/8` with
/// `||Δx||₁ = ||Δraw||₁ / 2^frac0`.
fn raw_distance_scores(batch: &RawBatch, frac_shift: i32) -> Vec<i128> {
    let k = batch.len();
    let mut scores = vec![i128::MAX; k];
    for (t, score) in scores.iter_mut().enumerate().take(k.saturating_sub(1)) {
        let a = batch.measurement(t);
        let b = batch.measurement(t + 1);
        let l1: i128 = a
            .iter()
            .zip(b)
            .map(|(x, y)| (x - y).unsigned_abs() as i128)
            .sum();
        let gap = (batch.indices()[t + 1] - batch.indices()[t]) as i128;
        // 8·l1 (raw units) + gap · 2^frac0: equal to 8·2^frac0·Dist.
        *score = (l1 << 3) + (gap << frac_shift.max(0)) / (1i128 << (-frac_shift).max(0));
    }
    scores
}

/// Integer pruning: drop the ℓ lowest-score measurements, ℓ from the §4.2
/// feasibility bound.
fn raw_prune(batch: &RawBatch, drop: usize, frac_shift: i32) -> RawBatch {
    let k = batch.len();
    if drop == 0 || k == 0 {
        return batch.clone();
    }
    if drop >= k {
        return RawBatch {
            indices: Vec::new(),
            raw: Vec::new(),
        };
    }
    let scores = raw_distance_scores(batch, frac_shift);
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&i| (scores[i], i));
    let mut keep = vec![true; k];
    for &victim in order.iter().take(drop) {
        keep[victim] = false;
    }
    batch.retain(&keep)
}

/// Required non-fractional bits for a raw value in a format with `frac0`
/// fractional bits: the smallest `n ≥ 1` with `-2^(n-1+frac0) ≤ raw <
/// 2^(n-1+frac0)` — pure shifts and compares, as the MCU computes it.
fn raw_required_bits(raw: i64, frac0: i16, max_n: u8) -> u8 {
    let max_n = max_n.max(1);
    for n in 1..=max_n {
        let shift = i32::from(n) - 1 + i32::from(frac0);
        let hi: i128 = if shift >= 0 {
            1i128 << shift.min(100)
        } else {
            // Fractional bound below 1: only raw == 0 fits when the bound
            // rounds to zero; compare in scaled space instead.
            let r = i128::from(raw) << ((-shift) as u32).min(100);
            if (-1..1).contains(&r) {
                return n;
            }
            continue;
        };
        if i128::from(raw) < hi && i128::from(raw) >= -hi {
            return n;
        }
    }
    max_n
}

/// Integer quantization of a raw `(w0, frac0)` value to `(w, n)`:
/// arithmetic shift with round-half-away and saturation — the sequence of
/// operations an MCU performs.
fn raw_requantize(raw: i64, frac0: i16, width: u8, n: u8) -> i64 {
    // Target fractional bits: f = width - n; shift = frac0 - f.
    let f = i32::from(width) - i32::from(n);
    let shift = i32::from(frac0) - f;
    let max_raw = (1i64 << (width - 1)) - 1;
    let min_raw = -(1i64 << (width - 1));
    let shifted: i64 = match shift.cmp(&0) {
        std::cmp::Ordering::Equal => raw,
        std::cmp::Ordering::Greater => {
            // Divide by 2^shift rounding half away from zero.
            let div = 1i64 << shift.min(62);
            let half = div >> 1;
            if raw >= 0 {
                (raw + half) >> shift.min(62)
            } else {
                -((-raw + half) >> shift.min(62))
            }
        }
        std::cmp::Ordering::Less => {
            let up = (-shift).min(62);
            match raw.checked_shl(up as u32) {
                Some(v) => v,
                None => {
                    return if raw > 0 { max_raw } else { min_raw };
                }
            }
        }
    };
    shifted.clamp(min_raw, max_raw)
}

/// Encodes a raw batch into a fixed-length AGE message using integer
/// arithmetic only. The output is byte-identical to
/// [`AgeEncoder::encode`](crate::Encoder::encode) applied to the
/// dequantized batch.
///
/// # Errors
///
/// Returns [`EncodeError`] under the same conditions as the floating-point
/// encoder.
pub fn encode_raw(
    encoder: &AgeEncoder,
    batch: &RawBatch,
    cfg: &BatchConfig,
) -> Result<Vec<u8>, EncodeError> {
    let d = cfg.features();
    if batch.len() > cfg.max_len() {
        return Err(EncodeError::BatchTooLarge {
            len: batch.len(),
            max: cfg.max_len(),
        });
    }
    if let Some(&last) = batch.indices().last() {
        if last >= cfg.max_len() {
            return Err(EncodeError::IndexOutOfRange {
                index: last,
                max: cfg.max_len(),
            });
        }
    }
    if !batch.is_empty() && batch.features() != d {
        return Err(EncodeError::FeatureMismatch {
            got: batch.features(),
            expected: d,
        });
    }
    let min = AgeEncoder::min_target_bytes(cfg);
    if encoder.target_bytes() < min {
        return Err(EncodeError::TargetTooSmall {
            target: encoder.target_bytes(),
            min,
        });
    }

    let fmt0 = cfg.format();
    let frac0 = fmt0.frac();
    let w0 = fmt0.width();
    let target_bits = encoder.target_bytes() * 8;
    let fixed_bits = K_BITS + cfg.max_len() + GROUP_COUNT_BITS;
    let entry_bits =
        usize::from(cfg.count_bits()) + usize::from(EXP_BITS) + usize::from(WIDTH_BITS);

    // §4.2 pruning (integer scores).
    let prune_budget = target_bits
        .saturating_sub(fixed_bits)
        .saturating_sub(entry_bits * AgeEncoder::MIN_GROUPS);
    let per_measurement = usize::from(AgeEncoder::MIN_WIDTH) * d;
    let max_keep = prune_budget
        .checked_div(per_measurement)
        .unwrap_or(batch.len());
    let drop = batch.len().saturating_sub(max_keep);
    let pruned;
    let batch = if drop > 0 {
        pruned = raw_prune(batch, drop, i32::from(frac0));
        &pruned
    } else {
        batch
    };
    let k = batch.len();

    // §4.3 grouping on integer exponents.
    let exponents: Vec<u8> = (0..k)
        .map(|t| {
            batch
                .measurement(t)
                .iter()
                .map(|&r| raw_required_bits(r, frac0, fmt0.integer_bits()))
                .max()
                .unwrap_or(1)
        })
        .collect();
    let groups = form_groups(&exponents);
    let max_groups = select_max_groups(
        target_bits.saturating_sub(fixed_bits),
        k * d * usize::from(w0),
        entry_bits,
        AgeEncoder::MIN_GROUPS,
    )
    .min(MAX_GROUPS);
    let groups = merge_groups(groups, max_groups);
    let groups = optimize_partition(
        groups,
        d,
        w0,
        target_bits.saturating_sub(fixed_bits),
        entry_bits,
        max_groups,
    );

    // §4.4 widths (identical integer routine to the float encoder).
    let data_budget = target_bits
        .saturating_sub(fixed_bits)
        .saturating_sub(entry_bits * groups.len());
    let widths = assign_widths(&groups, d, w0, data_budget);

    // Assembly.
    let mut w = BitWriter::with_capacity(encoder.target_bytes());
    w.write_u16(k as u16);
    let mut iter = batch.indices().iter().peekable();
    for t in 0..cfg.max_len() {
        let collected = matches!(iter.peek(), Some(&&idx) if idx == t);
        if collected {
            iter.next();
        }
        w.write_bits(u64::from(collected), 1);
    }
    w.write_u8(groups.len() as u8);
    for (g, &width) in groups.iter().zip(&widths) {
        w.write_bits(g.count as u64, cfg.count_bits());
        w.write_bits(u64::from(g.exponent), EXP_BITS);
        w.write_bits(u64::from(width), WIDTH_BITS);
    }
    let mut t = 0usize;
    for (g, &width) in groups.iter().zip(&widths) {
        if width == 0 {
            t += g.count;
            continue;
        }
        let fmt = Format::new(width, i16::from(width) - i16::from(g.exponent))
            .expect("group widths and exponents always form a valid format");
        for _ in 0..g.count {
            for &r in batch.measurement(t) {
                let q = raw_requantize(r, frac0, width, g.exponent);
                w.write_bits(fmt.to_bits(q), width);
            }
            t += 1;
        }
    }
    w.pad_to_bytes(encoder.target_bytes());
    Ok(w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;

    fn cfg() -> BatchConfig {
        BatchConfig::new(50, 6, Format::new(16, 13).unwrap()).unwrap()
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
            let int_msg = encode_raw(&enc, &rb, &c).unwrap();
            assert_eq!(float_msg, int_msg, "k={k}");
        }
    }

    #[test]
    fn integer_encode_matches_under_heavy_pruning() {
        let c = cfg();
        let enc = AgeEncoder::new(35);
        let fb = format_exact_batch(50, 6, &c);
        let rb = RawBatch::from_batch(&fb, &c);
        assert_eq!(
            enc.encode(&fb, &c).unwrap(),
            encode_raw(&enc, &rb, &c).unwrap()
        );
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
        assert_eq!(
            enc.encode(&fb, &c).unwrap(),
            encode_raw(&enc, &rb, &c).unwrap()
        );
    }

    #[test]
    fn raw_required_bits_matches_float_version() {
        let frac0 = 13i16;
        for raw in [
            -40960i64, -8192, -4096, -1, 0, 1, 4095, 4096, 8191, 8192, 30000,
        ] {
            let x = raw as f64 / f64::powi(2.0, i32::from(frac0));
            let expected = age_fixed::required_integer_bits(x, 16);
            assert_eq!(
                raw_required_bits(raw, frac0, 16),
                expected,
                "raw={raw} x={x}"
            );
        }
    }

    #[test]
    fn raw_requantize_rounds_and_saturates() {
        // From Q3.13 to a 5-bit width with n=2 (f=3): shift right by 10.
        let q = raw_requantize(8192, 13, 5, 2); // 1.0 -> 8 (1.0 * 2^3)
        assert_eq!(q, 8);
        // Saturation: 3.9 in Q3.13 is 31949; 5-bit n=2 max raw is 15 (1.875).
        assert_eq!(raw_requantize(31949, 13, 5, 2), 15);
        assert_eq!(raw_requantize(-32768, 13, 5, 2), -16);
        // Round half away from zero: raw 512+... 0.0625*8192=512; to f=3:
        // shift 10, half=512 -> (512+512)>>10 = 1.
        assert_eq!(raw_requantize(512, 13, 5, 2), 1);
        assert_eq!(raw_requantize(-512, 13, 5, 2), -1);
        assert_eq!(raw_requantize(511, 13, 5, 2), 0);
    }

    #[test]
    fn decode_of_integer_message_roundtrips() {
        let c = cfg();
        let enc = AgeEncoder::new(300);
        let fb = format_exact_batch(20, 6, &c);
        let rb = RawBatch::from_batch(&fb, &c);
        let msg = encode_raw(&enc, &rb, &c).unwrap();
        let decoded = enc.decode(&msg, &c).unwrap();
        assert_eq!(decoded.indices(), fb.indices());
    }
}
