//! The AGE encoder (paper §4).

use age_fixed::{BitReader, BitWriter, Format};

use crate::batch::{Batch, BatchConfig};
use crate::error::{DecodeError, EncodeError};
use crate::group::{
    assign_widths_into, form_groups_into, measurement_exponents_into, merge_groups_in_place,
    merge_groups_rescoring, optimize_partition_in_place, select_max_groups, Group,
};
use crate::prune::{prune_count, prune_incremental_into, prune_into};
use crate::sample::Sample;
use crate::scratch::EncodeScratch;
use crate::telemetry::{Probe, Stage};

/// Bits used to store a group's exponent in the directory.
pub(crate) const EXP_BITS: u8 = 6;
/// Bits used to store a group's width in the directory.
pub(crate) const WIDTH_BITS: u8 = 6;
/// Bits of the `k` header field.
pub(crate) const K_BITS: usize = 16;
/// Bits of the group-count header field.
pub(crate) const GROUP_COUNT_BITS: usize = 8;
/// Maximum representable group count (8-bit header field).
pub(crate) const MAX_GROUPS: usize = 255;

/// Encodes every batch into a message of exactly the configured byte length
/// (paper §4): pruning, exponent-aware grouping, and per-group quantization
/// with round-robin width assignment.
///
/// The target length is the full message-body size; callers derive it from
/// the energy budget via [`crate::target`] and subtract cipher framing.
///
/// # Examples
///
/// ```
/// use age_core::{AgeEncoder, Batch, BatchConfig, Encoder};
/// use age_fixed::Format;
///
/// let cfg = BatchConfig::new(50, 6, Format::new(16, 13)?)?;
/// let enc = AgeEncoder::new(220);
/// // An over-full batch and a tiny one produce identical lengths.
/// let big = Batch::new((0..50).collect(), vec![0.25; 300])?;
/// let small = Batch::new(vec![7], vec![0.25; 6])?;
/// assert_eq!(enc.encode(&big, &cfg)?.len(), 220);
/// assert_eq!(enc.encode(&small, &cfg)?.len(), 220);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgeEncoder {
    target_bytes: usize,
    refined: bool,
    split_groups: bool,
}

impl AgeEncoder {
    /// Minimum bits per value retained by pruning (`w_min`, §4.2).
    pub const MIN_WIDTH: u8 = 5;
    /// Minimum number of groups (`G0`, §4.3).
    pub const MIN_GROUPS: usize = 6;

    /// Creates an encoder that emits messages of exactly `target_bytes`.
    pub fn new(target_bytes: usize) -> Self {
        AgeEncoder {
            target_bytes,
            refined: false,
            split_groups: true,
        }
    }

    /// Enables or disables the group-split utilization pass (§4.3's
    /// "expanding the number of groups when possible"). On by default;
    /// turning it off reproduces a plain RLE+merge grouping for ablation.
    pub fn with_group_splitting(mut self, split_groups: bool) -> Self {
        self.split_groups = split_groups;
        self
    }

    /// Enables the refinements the paper evaluates but rejects for MCU
    /// deployment (§4.2/§4.3): incremental prune rescoring and per-merge
    /// group rescoring. Slightly lower error at higher compute cost.
    pub fn with_refinement(mut self, refined: bool) -> Self {
        self.refined = refined;
        self
    }

    /// The fixed message length in bytes.
    pub fn target_bytes(&self) -> usize {
        self.target_bytes
    }

    /// Header + bitmask + group-count bits for a configuration.
    fn fixed_bits(cfg: &BatchConfig) -> usize {
        K_BITS + cfg.max_len() + GROUP_COUNT_BITS
    }

    /// Directory bits per group for a configuration.
    fn entry_bits(cfg: &BatchConfig) -> usize {
        usize::from(cfg.count_bits()) + usize::from(EXP_BITS) + usize::from(WIDTH_BITS)
    }

    /// Smallest feasible target in bytes for `cfg` (framing plus one group
    /// directory entry).
    pub fn min_target_bytes(cfg: &BatchConfig) -> usize {
        (Self::fixed_bits(cfg) + Self::entry_bits(cfg)).div_ceil(8)
    }

    /// Encodes a batch of `S` values into `out`: the one AGE pipeline
    /// behind both the [`Encoder`](crate::Encoder) impl (`S = f64`) and
    /// the MCU path (`S = i64`, raw values in `cfg`'s format; see
    /// [`crate::mcu`]). For format-exact values both give the same bytes.
    /// Reuses the allocations in `scratch` and `out`, like
    /// [`Encoder::encode_into`](crate::Encoder::encode_into).
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if the batch is inconsistent with `cfg` or
    /// the target size cannot hold the message framing.
    ///
    /// # Examples
    ///
    /// ```
    /// use age_core::mcu::RawBatch;
    /// use age_core::{AgeEncoder, Batch, BatchConfig, EncodeScratch, Encoder};
    /// use age_fixed::Format;
    ///
    /// let cfg = BatchConfig::new(50, 1, Format::new(16, 13)?)?;
    /// let enc = AgeEncoder::new(40);
    /// // Raw Q3.13 integers: 1.0 and -0.5.
    /// let raw = RawBatch::new(vec![0, 4], vec![8192, -4096])?;
    /// let mut message = Vec::new();
    /// enc.encode_samples(&raw, &cfg, &mut EncodeScratch::default(), &mut message)?;
    /// let float = Batch::new(vec![0, 4], vec![1.0, -0.5])?;
    /// assert_eq!(message, enc.encode(&float, &cfg)?);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn encode_samples<S: Sample>(
        &self,
        batch: &Batch<S>,
        cfg: &BatchConfig,
        scratch: &mut EncodeScratch<S>,
        out: &mut Vec<u8>,
    ) -> Result<(), EncodeError> {
        batch.validate_fixed(cfg, self.target_bytes, Self::min_target_bytes(cfg))?;
        let d = cfg.features();
        let fmt0 = cfg.format();
        let w0 = fmt0.width();
        let target_bits = self.target_bytes * 8;
        let fixed_bits = Self::fixed_bits(cfg);
        let entry_bits = Self::entry_bits(cfg);
        // Disjoint borrows of every scratch buffer, so the pruned batch can
        // stay borrowed while the later stages fill their own buffers.
        let EncodeScratch {
            pruned,
            prune: prune_scratch,
            exponents,
            groups,
            widths,
            merge,
            split_log,
            trial_widths,
            context,
            ..
        } = scratch;
        let mut probe = Probe::start(batch.len());

        // §4.2: prune so every survivor gets at least `w_min` bits, with
        // directory space reserved for `G0` groups.
        let prune_budget = target_bits
            .saturating_sub(fixed_bits)
            .saturating_sub(entry_bits * Self::MIN_GROUPS);
        let drop = prune_count(batch.len(), d, Self::MIN_WIDTH, prune_budget);
        let batch = if drop > 0 {
            if self.refined {
                prune_incremental_into(batch, drop, fmt0.frac(), prune_scratch, pruned);
            } else {
                prune_into(batch, drop, fmt0.frac(), prune_scratch, pruned);
            }
            &*pruned
        } else {
            batch
        };
        let k = batch.len();
        probe.lap(Stage::Prune);

        // §4.3: exponent-aware groups, merged down to at most G.
        measurement_exponents_into(batch, fmt0, exponents);
        form_groups_into(exponents, groups);
        let groups_initial = groups.len();
        probe.lap(Stage::Group);
        let max_groups = select_max_groups(
            target_bits.saturating_sub(fixed_bits),
            k * d * usize::from(w0),
            entry_bits,
            Self::MIN_GROUPS,
        )
        .min(MAX_GROUPS);
        if self.refined {
            *groups = merge_groups_rescoring(std::mem::take(groups), max_groups);
        } else {
            merge_groups_in_place(groups, max_groups, merge);
        }
        // §4.3's utilization expansion: split homogeneous runs when a
        // directory entry buys back more padding than it costs.
        let widths_current = self.split_groups
            && optimize_partition_in_place(
                groups,
                d,
                w0,
                target_bits.saturating_sub(fixed_bits),
                entry_bits,
                max_groups,
                split_log,
                trial_widths,
            );
        probe.lap(Stage::Merge);

        // §4.4: per-group widths under the remaining budget (already
        // computed when the split search kept its last candidate).
        if widths_current {
            std::mem::swap(widths, trial_widths);
        } else {
            let data_budget = target_bits
                .saturating_sub(fixed_bits)
                .saturating_sub(entry_bits * groups.len());
            assign_widths_into(groups, d, w0, data_budget, widths);
        }
        probe.lap(Stage::Quantize);

        // Assemble the message, cycling `out`'s allocation through the
        // writer (the reserve doubles as the capacity hint for cold buffers).
        out.clear();
        out.reserve(self.target_bytes);
        let mut w = BitWriter::from_vec(std::mem::take(out));
        w.write_u16(k as u16);
        // Bitmask as whole words: set bits scattered into up-to-64-step
        // chunks, one writer call per chunk instead of one per time step.
        // MSB-first, so time step `t` of a chunk lands `t` bits below the
        // chunk's top bit — the same bit sequence the per-index loop wrote.
        let mut indices = batch.indices().iter().peekable();
        let mut t = 0usize;
        while t < cfg.max_len() {
            let chunk = (cfg.max_len() - t).min(64);
            let mut word = 0u64;
            while let Some(&&idx) = indices.peek() {
                if idx >= t + chunk {
                    break;
                }
                word |= 1u64 << (chunk - 1 - (idx - t));
                indices.next();
            }
            w.write_bits(word, chunk as u8);
            t += chunk;
        }
        w.write_u8(groups.len() as u8);
        for (g, &width) in groups.iter().zip(widths.iter()) {
            w.write_bits(g.count as u64, cfg.count_bits());
            w.write_bits(u64::from(g.exponent), EXP_BITS);
            w.write_bits(u64::from(width), WIDTH_BITS);
        }
        // A group's measurements are consecutive, so its values form one
        // contiguous row-major slice: quantize and pack it in one pass.
        let mut t = 0usize;
        for (g, &width) in groups.iter().zip(widths.iter()) {
            if width == 0 {
                t += g.count;
                continue;
            }
            let fmt = Format::new(width, i16::from(width) - i16::from(g.exponent))
                .expect("group widths and exponents always form a valid format");
            S::pack_lane(&mut w, fmt0, fmt, &batch.values()[t * d..(t + g.count) * d]);
            t += g.count;
        }
        debug_assert_eq!(t, k);
        w.pad_to_bytes(self.target_bytes);
        *out = w.into_bytes();
        debug_assert_eq!(out.len(), self.target_bytes);
        probe.lap(Stage::Pack);
        probe.finish(context, k, out.len(), || age_telemetry::BatchRecord {
            encoder: "AGE",
            groups_initial,
            groups_final: groups.len(),
            groups: groups
                .iter()
                .zip(widths.iter())
                .map(|(g, &width)| age_telemetry::GroupRecord {
                    count: g.count,
                    exponent: i32::from(g.exponent),
                    width,
                })
                .collect(),
            header_bits: fixed_bits,
            directory_bits: entry_bits * groups.len(),
            data_bits: groups
                .iter()
                .zip(widths.iter())
                .map(|(g, &width)| g.count * d * usize::from(width))
                .sum(),
            target_bytes: Some(self.target_bytes),
            ..Default::default()
        });
        Ok(())
    }
}

impl crate::Encoder for AgeEncoder {
    fn name(&self) -> &'static str {
        "AGE"
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
        self.encode_samples(batch, cfg, scratch, out)
    }

    fn decode(&self, message: &[u8], cfg: &BatchConfig) -> Result<Batch, DecodeError> {
        let mut scratch = EncodeScratch::new();
        let mut out = Batch::empty();
        self.decode_into(message, cfg, &mut scratch, &mut out)?;
        Ok(out)
    }

    fn decode_into(
        &self,
        message: &[u8],
        cfg: &BatchConfig,
        scratch: &mut EncodeScratch,
        out: &mut Batch,
    ) -> Result<(), DecodeError> {
        if message.len() != self.target_bytes {
            return Err(DecodeError::Length {
                len: message.len(),
                expected: self.target_bytes,
            });
        }
        let d = cfg.features();
        let groups = &mut scratch.groups;
        let widths = &mut scratch.widths;
        out.clear();
        let (indices, values) = out.parts_mut();
        let mut r = BitReader::new(message);
        let k = usize::from(r.read_u16()?);
        if k > cfg.max_len() {
            return Err(DecodeError::Corrupt(
                "measurement count exceeds batch maximum",
            ));
        }
        // Bitmask: scan up to 64 time steps per read instead of one.
        indices.reserve(k);
        let mut t = 0usize;
        while t < cfg.max_len() {
            let chunk = (cfg.max_len() - t).min(64) as u8;
            let mut bits = r.read_bits(chunk)?;
            // Consume set bits high-to-low; indices come out increasing.
            bits <<= 64 - u32::from(chunk);
            while bits != 0 {
                let lead = bits.leading_zeros();
                indices.push(t + lead as usize);
                bits &= !(1u64 << 63 >> lead);
            }
            t += usize::from(chunk);
        }
        if indices.len() != k {
            return Err(DecodeError::Corrupt(
                "bitmask population differs from header count",
            ));
        }
        let num_groups = usize::from(r.read_u8()?);
        groups.clear();
        widths.clear();
        let mut total = 0usize;
        for _ in 0..num_groups {
            let count = r.read_bits(cfg.count_bits())? as usize;
            let exponent = r.read_bits(EXP_BITS)? as u8;
            let width = r.read_bits(WIDTH_BITS)? as u8;
            if exponent == 0 {
                return Err(DecodeError::Corrupt("group exponent of zero"));
            }
            if width > Format::MAX_WIDTH {
                return Err(DecodeError::Corrupt("group width exceeds format maximum"));
            }
            total += count;
            groups.push(Group { count, exponent });
            widths.push(width);
        }
        if total != k {
            return Err(DecodeError::Corrupt(
                "group counts disagree with measurement count",
            ));
        }
        // Each group's lane decodes straight into its pre-sized slice of the
        // row-major values; a width-0 group keeps its zeros.
        values.resize(k * d, 0.0);
        let mut t = 0usize;
        for (g, &width) in groups.iter().zip(widths.iter()) {
            let lane = &mut values[t * d..(t + g.count) * d];
            t += g.count;
            if width == 0 {
                continue;
            }
            let fmt = Format::new(width, i16::from(width) - i16::from(g.exponent))
                .map_err(|_| DecodeError::Corrupt("group width/exponent pair is invalid"))?;
            r.read_dequantized(fmt, lane)?;
        }
        // By construction the indices are strictly increasing and the value
        // count is `k·d`; mirror the `Batch::new` consistency check anyway so
        // a logic regression surfaces as a decode error, not a bad batch.
        if indices.is_empty() != values.is_empty()
            || (!indices.is_empty() && !values.len().is_multiple_of(indices.len()))
        {
            return Err(DecodeError::Corrupt("decoded batch failed validation"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;

    fn cfg() -> BatchConfig {
        BatchConfig::new(50, 6, Format::new(16, 13).unwrap()).unwrap()
    }

    fn ramp_batch(k: usize, d: usize) -> Batch {
        let indices: Vec<usize> = (0..k).collect();
        let values: Vec<f64> = (0..k * d).map(|i| (i as f64 * 0.01) % 3.0 - 1.5).collect();
        Batch::new(indices, values).unwrap()
    }

    #[test]
    fn messages_are_always_target_sized() {
        let enc = AgeEncoder::new(220);
        let c = cfg();
        for k in [0usize, 1, 5, 25, 50] {
            let batch = ramp_batch(k, 6);
            let msg = enc.encode(&batch, &c).unwrap();
            assert_eq!(msg.len(), 220, "k={k}");
        }
    }

    #[test]
    fn roundtrip_preserves_indices_exactly() {
        let enc = AgeEncoder::new(220);
        let c = cfg();
        let batch = Batch::new(vec![0, 3, 17, 42, 49], vec![0.5; 30]).unwrap();
        let out = enc.decode(&enc.encode(&batch, &c).unwrap(), &c).unwrap();
        assert_eq!(out.indices(), batch.indices());
    }

    #[test]
    fn roundtrip_error_is_small_under_generous_budget() {
        let enc = AgeEncoder::new(400);
        let c = cfg();
        let batch = ramp_batch(30, 6);
        let out = enc.decode(&enc.encode(&batch, &c).unwrap(), &c).unwrap();
        for (a, b) in batch.values().iter().zip(out.values()) {
            assert!((a - b).abs() < 0.01, "{a} vs {b}");
        }
    }

    #[test]
    fn full_width_roundtrip_is_exact_for_representable_values() {
        // Under-sampling: few measurements, generous budget => full width.
        let enc = AgeEncoder::new(220);
        let c = cfg();
        let fmt = c.format();
        let values: Vec<f64> = (0..18)
            .map(|i| fmt.round_trip(i as f64 * 0.17 - 1.0))
            .collect();
        let batch = Batch::new((0..3).map(|i| i * 10).collect(), values.clone()).unwrap();
        let out = enc.decode(&enc.encode(&batch, &c).unwrap(), &c).unwrap();
        for (a, b) in values.iter().zip(out.values()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn extreme_oversampling_prunes_instead_of_dropping_all() {
        // Target that cannot hold 50×6 values even at 1 bit each: AGE should
        // keep a pruned subset, not return an empty batch.
        let c = cfg();
        let enc = AgeEncoder::new(35);
        let batch = ramp_batch(50, 6);
        let out = enc.decode(&enc.encode(&batch, &c).unwrap(), &c).unwrap();
        assert!(!out.is_empty());
        assert!(out.len() < 50);
        // Every survivor got at least MIN_WIDTH bits, so error is bounded.
        assert_eq!(enc.encode(&batch, &c).unwrap().len(), 35);
    }

    #[test]
    fn dynamic_range_beats_static_exponent() {
        // Values needing n=1 get quantized much better than a static n0=3
        // would allow at small widths.
        let c = cfg();
        let enc = AgeEncoder::new(60);
        let k = 30;
        let values: Vec<f64> = (0..k * 6).map(|i| 0.1 + 0.001 * (i as f64)).collect();
        let batch = Batch::new((0..k).collect(), values.clone()).unwrap();
        let out = enc.decode(&enc.encode(&batch, &c).unwrap(), &c).unwrap();
        let mae: f64 = out
            .values()
            .iter()
            .zip(&values)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / values.len() as f64;
        assert!(mae < 0.05, "mae={mae}");
    }

    #[test]
    fn rejects_invalid_batches() {
        let c = cfg();
        let enc = AgeEncoder::new(220);
        let too_big = Batch::new((0..51).collect(), vec![0.0; 51 * 6]).unwrap();
        assert!(matches!(
            enc.encode(&too_big, &BatchConfig::new(50, 6, c.format()).unwrap()),
            Err(EncodeError::BatchTooLarge { .. })
        ));
        let out_of_range = Batch::new(vec![50], vec![0.0; 6]).unwrap();
        assert!(matches!(
            enc.encode(&out_of_range, &c),
            Err(EncodeError::IndexOutOfRange { .. })
        ));
        let wrong_d = Batch::new(vec![0], vec![0.0; 3]).unwrap();
        assert!(matches!(
            enc.encode(&wrong_d, &c),
            Err(EncodeError::FeatureMismatch { .. })
        ));
        let tiny = AgeEncoder::new(2);
        assert!(matches!(
            tiny.encode(&Batch::empty(), &c),
            Err(EncodeError::TargetTooSmall { .. })
        ));
    }

    #[test]
    fn decode_rejects_corrupt_messages() {
        let c = cfg();
        let enc = AgeEncoder::new(220);
        let msg = enc.encode(&ramp_batch(10, 6), &c).unwrap();
        // Claim more measurements than the bitmask carries.
        let mut bad = msg.clone();
        bad[0] = 0xFF;
        bad[1] = 0xFF;
        assert!(enc.decode(&bad, &c).is_err());
        // Truncated and oversized messages are rejected by the exact-length
        // check before any bit-level parsing.
        assert_eq!(
            enc.decode(&msg[..4], &c),
            Err(DecodeError::Length {
                len: 4,
                expected: 220
            })
        );
        let mut long = msg.clone();
        long.push(0);
        assert_eq!(
            enc.decode(&long, &c),
            Err(DecodeError::Length {
                len: 221,
                expected: 220
            })
        );
    }

    #[test]
    fn empty_batch_roundtrips() {
        let c = cfg();
        let enc = AgeEncoder::new(220);
        let msg = enc.encode(&Batch::empty(), &c).unwrap();
        assert_eq!(msg.len(), 220);
        let out = enc.decode(&msg, &c).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn width_assignment_mimics_fractional_bits() {
        // Paper §4.4 example: M_B=220, k=50, d=6 with 5 groups of 10 should
        // give one group 5 bits and four groups 6 bits (218 data bytes).
        let groups = vec![
            Group {
                count: 10,
                exponent: 3
            };
            5
        ];
        let mut widths = Vec::new();
        assign_widths_into(&groups, 6, 16, 220 * 8 - 16 - 50 - 8 - 5 * 18, &mut widths);
        let total_bits: usize = groups
            .iter()
            .zip(&widths)
            .map(|(g, &w)| g.count * 6 * usize::from(w))
            .sum();
        assert!(total_bits <= 220 * 8);
        // Better utilization than the uniform width of 5 bits (1500 bits).
        assert!(
            total_bits > 1500,
            "round robin should exceed uniform packing"
        );
        let max = *widths.iter().max().unwrap();
        let min = *widths.iter().min().unwrap();
        assert!(max - min <= 1, "round robin keeps widths within one bit");
    }

    #[test]
    fn min_target_accounts_for_framing() {
        let c = cfg();
        // 16 (k) + 50 (bitmask) + 8 (count) + 18 (one entry) bits = 12 bytes.
        assert_eq!(AgeEncoder::min_target_bytes(&c), 12);
    }
}
