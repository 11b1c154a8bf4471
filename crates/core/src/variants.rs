//! Ablation variants of AGE (paper §5.6).
//!
//! Each variant produces fixed-length messages like AGE but omits part of
//! the design, isolating the contribution of the individual
//! transformations:
//!
//! - [`SingleEncoder`] — plain fixed-point quantization: one bit width, the
//!   static original exponent. Drops everything when even one bit per value
//!   does not fit.
//! - [`UnshiftedEncoder`] — six even-sized groups with round-robin widths,
//!   but the exponent stays fixed at `n0` (no dynamic ranges).
//! - [`PrunedEncoder`] — controls the size purely by dropping measurements;
//!   survivors keep the full original width.

use age_fixed::{BitReader, BitWriter, Format};

use crate::batch::{Batch, BatchConfig};
use crate::error::{DecodeError, EncodeError};
use crate::prune::{prune_count, prune_into};
use crate::scratch::EncodeScratch;
use crate::telemetry::{Probe, Stage};
use crate::Encoder;

const K_BITS: usize = 16;
const WIDTH_BITS: u8 = 6;
/// Fixed group count used by [`UnshiftedEncoder`].
const UNSHIFTED_GROUPS: usize = 6;

fn validate(
    batch: &Batch,
    cfg: &BatchConfig,
    target: usize,
    min: usize,
) -> Result<(), EncodeError> {
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
    if !batch.is_empty() && batch.features() != cfg.features() {
        return Err(EncodeError::FeatureMismatch {
            got: batch.features(),
            expected: cfg.features(),
        });
    }
    if target < min {
        return Err(EncodeError::TargetTooSmall { target, min });
    }
    Ok(())
}

fn write_header_and_mask(w: &mut BitWriter, batch: &Batch, cfg: &BatchConfig) {
    w.write_u16(batch.len() as u16);
    // Zero-runs between collected indices pack whole words per write.
    let mut next_clear = 0usize;
    for &idx in batch.indices() {
        w.write_run(0, 1, idx - next_clear);
        w.write_bits(1, 1);
        next_clear = idx + 1;
    }
    w.write_run(0, 1, cfg.max_len() - next_clear);
}

fn read_header_and_mask(
    r: &mut BitReader<'_>,
    cfg: &BatchConfig,
) -> Result<Vec<usize>, DecodeError> {
    let k = usize::from(r.read_u16()?);
    if k > cfg.max_len() {
        return Err(DecodeError::Corrupt(
            "measurement count exceeds batch maximum",
        ));
    }
    let mut indices = Vec::with_capacity(k);
    for t in 0..cfg.max_len() {
        if r.read_bits(1)? == 1 {
            indices.push(t);
        }
    }
    if indices.len() != k {
        return Err(DecodeError::Corrupt(
            "bitmask population differs from header count",
        ));
    }
    Ok(indices)
}

/// Even partition of `k` measurements into the [`UNSHIFTED_GROUPS`] group
/// counts (first groups take the remainder; zero-count groups are
/// allowed), on the stack so the encode path stays allocation-free.
fn even_groups(k: usize) -> [usize; UNSHIFTED_GROUPS] {
    let base = k / UNSHIFTED_GROUPS;
    let extra = k % UNSHIFTED_GROUPS;
    std::array::from_fn(|i| base + usize::from(i < extra))
}

/// Fixed-point quantization alone: a single width, the original exponent
/// (§5.6's "Single" variant). Fixed-length but wasteful: widths round down
/// globally and large batches force dropping all measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleEncoder {
    target_bytes: usize,
}

impl SingleEncoder {
    /// Creates an encoder emitting exactly `target_bytes` per message.
    pub fn new(target_bytes: usize) -> Self {
        SingleEncoder { target_bytes }
    }

    /// The fixed message length in bytes.
    pub fn target_bytes(&self) -> usize {
        self.target_bytes
    }

    fn fixed_bits(cfg: &BatchConfig) -> usize {
        K_BITS + cfg.max_len() + usize::from(WIDTH_BITS)
    }
}

impl Encoder for SingleEncoder {
    fn name(&self) -> &'static str {
        "Single"
    }

    fn is_fixed_length(&self) -> bool {
        true
    }

    fn encode_into(
        &self,
        batch: &Batch,
        cfg: &BatchConfig,
        scratch: &mut EncodeScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), EncodeError> {
        let min = Self::fixed_bits(cfg).div_ceil(8);
        validate(batch, cfg, self.target_bytes, min)?;
        let d = cfg.features();
        let fmt0 = cfg.format();
        let mut probe = Probe::start(batch.len());
        let data_budget = self.target_bytes * 8 - Self::fixed_bits(cfg);
        let total = batch.len() * d;
        let width = data_budget
            .checked_div(total)
            .unwrap_or(0)
            .min(usize::from(fmt0.width())) as u8;
        // When even one bit per value does not fit, quantization alone must
        // drop the entire batch.
        let empty = Batch::empty();
        let (batch, width) = if width == 0 {
            (&empty, 0)
        } else {
            (batch, width)
        };
        probe.lap(Stage::Quantize);

        out.clear();
        out.reserve(self.target_bytes);
        let mut w = BitWriter::from_vec(std::mem::take(out));
        write_header_and_mask(&mut w, batch, cfg);
        w.write_bits(u64::from(width), WIDTH_BITS);
        if width > 0 {
            let fmt = Format::from_integer_bits(width, fmt0.integer_bits().min(width))
                .expect("clamped integer bits always fit the width");
            w.write_quantized(fmt, batch.values());
        }
        w.pad_to_bytes(self.target_bytes);
        *out = w.into_bytes();
        probe.lap(Stage::Pack);
        probe.finish(&mut scratch.context, batch.len(), out.len(), || {
            age_telemetry::BatchRecord {
                encoder: "Single",
                groups_final: usize::from(width > 0),
                groups: (width > 0)
                    .then(|| age_telemetry::GroupRecord {
                        count: batch.len(),
                        exponent: i32::from(fmt0.integer_bits().min(width)),
                        width,
                    })
                    .into_iter()
                    .collect(),
                header_bits: K_BITS + cfg.max_len(),
                directory_bits: usize::from(WIDTH_BITS),
                data_bits: batch.len() * d * usize::from(width),
                target_bytes: Some(self.target_bytes),
                ..Default::default()
            }
        });
        Ok(())
    }

    fn decode(&self, message: &[u8], cfg: &BatchConfig) -> Result<Batch, DecodeError> {
        if message.len() != self.target_bytes {
            return Err(DecodeError::Length {
                len: message.len(),
                expected: self.target_bytes,
            });
        }
        let mut r = BitReader::new(message);
        let indices = read_header_and_mask(&mut r, cfg)?;
        let width = r.read_bits(WIDTH_BITS)? as u8;
        if width > Format::MAX_WIDTH {
            return Err(DecodeError::Corrupt("width exceeds format maximum"));
        }
        if indices.is_empty() {
            return Ok(Batch::empty());
        }
        if width == 0 {
            return Err(DecodeError::Corrupt("zero width with a non-empty batch"));
        }
        let fmt = Format::from_integer_bits(width, cfg.format().integer_bits().min(width))
            .map_err(|_| DecodeError::Corrupt("invalid width field"))?;
        let mut values = vec![0.0; indices.len() * cfg.features()];
        r.read_dequantized(fmt, &mut values)?;
        Batch::new(indices, values).map_err(|_| DecodeError::Corrupt("decoded batch invalid"))
    }
}

/// Six even-sized groups with round-robin widths but a *static* exponent
/// (§5.6's "Unshifted" variant): isolates the value of dynamic ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnshiftedEncoder {
    target_bytes: usize,
}

impl UnshiftedEncoder {
    /// Creates an encoder emitting exactly `target_bytes` per message.
    pub fn new(target_bytes: usize) -> Self {
        UnshiftedEncoder { target_bytes }
    }

    /// The fixed message length in bytes.
    pub fn target_bytes(&self) -> usize {
        self.target_bytes
    }

    fn fixed_bits(cfg: &BatchConfig) -> usize {
        K_BITS + cfg.max_len() + UNSHIFTED_GROUPS * usize::from(WIDTH_BITS)
    }
}

impl Encoder for UnshiftedEncoder {
    fn name(&self) -> &'static str {
        "Unshifted"
    }

    fn is_fixed_length(&self) -> bool {
        true
    }

    fn encode_into(
        &self,
        batch: &Batch,
        cfg: &BatchConfig,
        scratch: &mut EncodeScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), EncodeError> {
        let min = Self::fixed_bits(cfg).div_ceil(8);
        validate(batch, cfg, self.target_bytes, min)?;
        let d = cfg.features();
        let fmt0 = cfg.format();
        let mut probe = Probe::start(batch.len());
        let data_budget = self.target_bytes * 8 - Self::fixed_bits(cfg);
        let total = batch.len() * d;
        // Like Single, drop everything when nothing fits.
        let empty = Batch::empty();
        let batch = if total > 0 && data_budget / total == 0 {
            &empty
        } else {
            batch
        };
        let counts = even_groups(batch.len());
        let total = batch.len() * d;

        let base = data_budget
            .checked_div(total)
            .unwrap_or(0)
            .min(usize::from(fmt0.width())) as u8;
        let mut widths = [base; UNSHIFTED_GROUPS];
        let mut used = total * usize::from(base);
        if total > 0 {
            loop {
                let mut changed = false;
                for (i, &c) in counts.iter().enumerate() {
                    let cost = c * d;
                    if cost > 0 && widths[i] < fmt0.width() && used + cost <= data_budget {
                        widths[i] += 1;
                        used += cost;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
        }
        probe.lap(Stage::Quantize);

        out.clear();
        out.reserve(self.target_bytes);
        let mut w = BitWriter::from_vec(std::mem::take(out));
        write_header_and_mask(&mut w, batch, cfg);
        for &width in &widths {
            w.write_bits(u64::from(width), WIDTH_BITS);
        }
        // Each even group's measurements are consecutive: quantize and pack
        // the group's contiguous value slice as one lane.
        let mut t = 0usize;
        for (i, &c) in counts.iter().enumerate() {
            let width = widths[i];
            if width == 0 {
                t += c;
                continue;
            }
            let fmt = Format::from_integer_bits(width, fmt0.integer_bits().min(width))
                .expect("clamped integer bits always fit the width");
            w.write_quantized(fmt, &batch.values()[t * d..(t + c) * d]);
            t += c;
        }
        w.pad_to_bytes(self.target_bytes);
        *out = w.into_bytes();
        probe.lap(Stage::Pack);
        probe.finish(&mut scratch.context, batch.len(), out.len(), || {
            age_telemetry::BatchRecord {
                encoder: "Unshifted",
                groups_initial: UNSHIFTED_GROUPS,
                groups_final: UNSHIFTED_GROUPS,
                groups: counts
                    .iter()
                    .zip(&widths)
                    .map(|(&count, &width)| age_telemetry::GroupRecord {
                        count,
                        exponent: i32::from(fmt0.integer_bits().min(width)),
                        width,
                    })
                    .collect(),
                header_bits: K_BITS + cfg.max_len(),
                directory_bits: UNSHIFTED_GROUPS * usize::from(WIDTH_BITS),
                data_bits: counts
                    .iter()
                    .zip(&widths)
                    .map(|(&c, &width)| c * d * usize::from(width))
                    .sum(),
                target_bytes: Some(self.target_bytes),
                ..Default::default()
            }
        });
        Ok(())
    }

    fn decode(&self, message: &[u8], cfg: &BatchConfig) -> Result<Batch, DecodeError> {
        if message.len() != self.target_bytes {
            return Err(DecodeError::Length {
                len: message.len(),
                expected: self.target_bytes,
            });
        }
        let mut r = BitReader::new(message);
        let indices = read_header_and_mask(&mut r, cfg)?;
        let mut widths = Vec::with_capacity(UNSHIFTED_GROUPS);
        for _ in 0..UNSHIFTED_GROUPS {
            let width = r.read_bits(WIDTH_BITS)? as u8;
            if width > Format::MAX_WIDTH {
                return Err(DecodeError::Corrupt("width exceeds format maximum"));
            }
            widths.push(width);
        }
        let counts = even_groups(indices.len());
        let d = cfg.features();
        // Each even group's values decode as one lane into its slice.
        let mut values = vec![0.0; indices.len() * d];
        let mut t = 0usize;
        for (&c, &width) in counts.iter().zip(&widths) {
            if c == 0 {
                continue;
            }
            if width == 0 {
                return Err(DecodeError::Corrupt("zero width for a populated group"));
            }
            let fmt = Format::from_integer_bits(width, cfg.format().integer_bits().min(width))
                .map_err(|_| DecodeError::Corrupt("invalid width field"))?;
            r.read_dequantized(fmt, &mut values[t * d..(t + c) * d])?;
            t += c;
        }
        Batch::new(indices, values).map_err(|_| DecodeError::Corrupt("decoded batch invalid"))
    }
}

/// Pure pruning (§5.6's "Pruned" variant): the message size is controlled by
/// dropping measurements, and survivors keep the full original width. High
/// error whenever the policy over-samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrunedEncoder {
    target_bytes: usize,
}

impl PrunedEncoder {
    /// Creates an encoder emitting exactly `target_bytes` per message.
    pub fn new(target_bytes: usize) -> Self {
        PrunedEncoder { target_bytes }
    }

    /// The fixed message length in bytes.
    pub fn target_bytes(&self) -> usize {
        self.target_bytes
    }

    fn fixed_bits(cfg: &BatchConfig) -> usize {
        K_BITS + cfg.max_len()
    }
}

impl Encoder for PrunedEncoder {
    fn name(&self) -> &'static str {
        "Pruned"
    }

    fn is_fixed_length(&self) -> bool {
        true
    }

    fn encode_into(
        &self,
        batch: &Batch,
        cfg: &BatchConfig,
        scratch: &mut EncodeScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), EncodeError> {
        let min = Self::fixed_bits(cfg).div_ceil(8);
        validate(batch, cfg, self.target_bytes, min)?;
        let d = cfg.features();
        let fmt = cfg.format();
        let mut probe = Probe::start(batch.len());
        let data_budget = self.target_bytes * 8 - Self::fixed_bits(cfg);
        let drop = prune_count(batch.len(), d, fmt.width(), data_budget);
        let EncodeScratch {
            pruned,
            prune,
            context,
            ..
        } = scratch;
        let batch = if drop > 0 {
            prune_into(batch, drop, prune, pruned);
            &*pruned
        } else {
            batch
        };
        probe.lap(Stage::Prune);

        out.clear();
        out.reserve(self.target_bytes);
        let mut w = BitWriter::from_vec(std::mem::take(out));
        write_header_and_mask(&mut w, batch, cfg);
        w.write_quantized(fmt, batch.values());
        w.pad_to_bytes(self.target_bytes);
        *out = w.into_bytes();
        probe.lap(Stage::Pack);
        probe.finish(context, batch.len(), out.len(), || {
            age_telemetry::BatchRecord {
                encoder: "Pruned",
                groups_final: usize::from(!batch.is_empty()),
                groups: (!batch.is_empty())
                    .then(|| age_telemetry::GroupRecord {
                        count: batch.len(),
                        exponent: i32::from(fmt.integer_bits()),
                        width: fmt.width(),
                    })
                    .into_iter()
                    .collect(),
                header_bits: K_BITS + cfg.max_len(),
                directory_bits: 0,
                data_bits: batch.len() * d * usize::from(fmt.width()),
                target_bytes: Some(self.target_bytes),
                ..Default::default()
            }
        });
        Ok(())
    }

    fn decode(&self, message: &[u8], cfg: &BatchConfig) -> Result<Batch, DecodeError> {
        if message.len() != self.target_bytes {
            return Err(DecodeError::Length {
                len: message.len(),
                expected: self.target_bytes,
            });
        }
        let fmt = cfg.format();
        let mut r = BitReader::new(message);
        let indices = read_header_and_mask(&mut r, cfg)?;
        let mut values = vec![0.0; indices.len() * cfg.features()];
        r.read_dequantized(fmt, &mut values)?;
        Batch::new(indices, values).map_err(|_| DecodeError::Corrupt("decoded batch invalid"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BatchConfig {
        BatchConfig::new(50, 6, Format::new(16, 13).unwrap()).unwrap()
    }

    fn batch(k: usize) -> Batch {
        let values: Vec<f64> = (0..k * 6).map(|i| ((i % 17) as f64) * 0.1 - 0.8).collect();
        Batch::new((0..k).collect(), values).unwrap()
    }

    #[test]
    fn all_variants_are_fixed_length() {
        let c = cfg();
        let encoders: Vec<Box<dyn Encoder>> = vec![
            Box::new(SingleEncoder::new(150)),
            Box::new(UnshiftedEncoder::new(150)),
            Box::new(PrunedEncoder::new(150)),
        ];
        for enc in &encoders {
            assert!(enc.is_fixed_length());
            for k in [0usize, 1, 20, 50] {
                let msg = enc.encode(&batch(k), &c).unwrap();
                assert_eq!(msg.len(), 150, "{} k={k}", enc.name());
            }
        }
    }

    #[test]
    fn variants_roundtrip() {
        let c = cfg();
        let b = batch(20);
        for enc in [
            Box::new(SingleEncoder::new(200)) as Box<dyn Encoder>,
            Box::new(UnshiftedEncoder::new(200)),
            Box::new(PrunedEncoder::new(400)),
        ] {
            let out = enc.decode(&enc.encode(&b, &c).unwrap(), &c).unwrap();
            assert_eq!(out.indices(), b.indices(), "{}", enc.name());
            for (x, y) in b.values().iter().zip(out.values()) {
                assert!((x - y).abs() < 0.2, "{}: {x} vs {y}", enc.name());
            }
        }
    }

    #[test]
    fn single_drops_all_when_nothing_fits() {
        // 50×6 values and a 35-byte target: < 1 bit per value.
        let c = cfg();
        let enc = SingleEncoder::new(35);
        let out = enc
            .decode(&enc.encode(&batch(50), &c).unwrap(), &c)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn pruned_keeps_full_precision_for_survivors() {
        let c = cfg();
        let fmt = c.format();
        let enc = PrunedEncoder::new(100);
        let values: Vec<f64> = (0..50 * 6)
            .map(|i| fmt.round_trip((i as f64 * 0.37).sin()))
            .collect();
        let b = Batch::new((0..50).collect(), values).unwrap();
        let out = enc.decode(&enc.encode(&b, &c).unwrap(), &c).unwrap();
        assert!(!out.is_empty());
        assert!(out.len() < 50);
        // Survivors are bit-exact.
        for (t, &idx) in out.indices().iter().enumerate() {
            let orig_pos = b.indices().iter().position(|&i| i == idx).unwrap();
            assert_eq!(out.measurement(t), b.measurement(orig_pos));
        }
    }

    #[test]
    fn unshifted_partitions_evenly() {
        assert_eq!(even_groups(20), [4, 4, 3, 3, 3, 3]);
        assert_eq!(even_groups(5), [1, 1, 1, 1, 1, 0]);
        assert_eq!(even_groups(0), [0; 6]);
        assert_eq!(even_groups(6), [1; 6]);
    }

    #[test]
    fn unshifted_loses_precision_on_small_values_vs_age() {
        // Values all << 1 with a tight budget: the static exponent wastes
        // integer bits the data never uses.
        use crate::AgeEncoder;
        let c = cfg();
        let values: Vec<f64> = (0..40 * 6).map(|i| 0.002 * ((i % 9) as f64)).collect();
        let b = Batch::new((0..40).collect(), values.clone()).unwrap();
        let mae = |dec: &Batch| -> f64 {
            dec.values()
                .iter()
                .zip(&values)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / values.len() as f64
        };
        let uns = UnshiftedEncoder::new(100);
        let age = AgeEncoder::new(100);
        let mae_uns = mae(&uns.decode(&uns.encode(&b, &c).unwrap(), &c).unwrap());
        let age_out = age.decode(&age.encode(&b, &c).unwrap(), &c).unwrap();
        // AGE may prune; compare against its own decoded subset.
        let mut age_err = 0.0;
        let mut n = 0usize;
        for (t, &idx) in age_out.indices().iter().enumerate() {
            let pos = b.indices().iter().position(|&i| i == idx).unwrap();
            for (x, y) in age_out.measurement(t).iter().zip(b.measurement(pos)) {
                age_err += (x - y).abs();
                n += 1;
            }
        }
        let mae_age = age_err / n as f64;
        assert!(
            mae_age < mae_uns,
            "AGE {mae_age} should beat Unshifted {mae_uns}"
        );
    }

    #[test]
    fn variants_pin_length_errors() {
        let c = cfg();
        let b = batch(5);
        for enc in [
            Box::new(SingleEncoder::new(150)) as Box<dyn Encoder>,
            Box::new(UnshiftedEncoder::new(150)),
            Box::new(PrunedEncoder::new(150)),
        ] {
            let msg = enc.encode(&b, &c).unwrap();
            // Truncated message.
            assert_eq!(
                enc.decode(&msg[..msg.len() - 1], &c),
                Err(DecodeError::Length {
                    len: 149,
                    expected: 150
                }),
                "{}",
                enc.name()
            );
            // Oversized message.
            let mut long = msg.clone();
            long.push(0);
            assert_eq!(
                enc.decode(&long, &c),
                Err(DecodeError::Length {
                    len: 151,
                    expected: 150
                }),
                "{}",
                enc.name()
            );
        }
    }

    #[test]
    fn variants_reject_undersized_targets() {
        let c = cfg();
        assert!(SingleEncoder::new(3).encode(&batch(1), &c).is_err());
        assert!(UnshiftedEncoder::new(3).encode(&batch(1), &c).is_err());
        assert!(PrunedEncoder::new(3).encode(&batch(1), &c).is_err());
    }
}
