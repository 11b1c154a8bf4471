//! Lossless compression of sensor batches — and why it leaks (paper §7).
//!
//! Low-power systems often compress batches with delta coding and
//! variable-length integers [90]. Compression is *content-dependent*: calm
//! signals produce small deltas and short varints, volatile signals the
//! opposite. So even a sensor with non-adaptive Uniform sampling leaks the
//! event through its compressed message sizes — the CRIME/BREACH effect on
//! sensor telemetry. The paper excludes lossless compression from its
//! threat model for exactly this reason; this module makes the effect
//! measurable (see the `compression` extension experiment).
//!
//! The codec: per measurement feature, raw fixed-point values are delta
//! encoded against the previous measurement, zig-zag mapped, and written as
//! LEB128 varints; indices are gap-encoded the same way.

use crate::batch::{Batch, BatchConfig};
use crate::error::{DecodeError, EncodeError};
use crate::scratch::EncodeScratch;
use crate::Encoder;

/// Zig-zag maps a signed integer to unsigned (small magnitudes stay small).
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends a LEB128 varint.
fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint.
fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = bytes
            .get(*pos)
            .ok_or(DecodeError::Corrupt("varint ran off the end"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(DecodeError::Corrupt("varint too long"));
        }
        out |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

/// Delta + varint lossless batch codec.
///
/// **Deliberately leaky**: the output length depends on the measurement
/// *values*, not just their count. Provided to demonstrate the §7 pitfall,
/// not as a defense.
///
/// # Examples
///
/// ```
/// use age_core::{Batch, BatchConfig, DeltaCodec, Encoder};
/// use age_fixed::Format;
///
/// let cfg = BatchConfig::new(50, 1, Format::new(16, 13)?)?;
/// let codec = DeltaCodec;
/// // A flat batch compresses far better than a volatile one of equal size.
/// let flat = Batch::new((0..40).collect(), vec![1.0; 40])?;
/// let wild = Batch::new((0..40).collect(), (0..40).map(|i| ((i * i) % 7) as f64 - 3.0).collect())?;
/// let flat_len = codec.encode(&flat, &cfg)?.len();
/// let wild_len = codec.encode(&wild, &cfg)?.len();
/// assert!(flat_len < wild_len); // the leak
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaCodec;

impl Encoder for DeltaCodec {
    fn name(&self) -> &'static str {
        "Delta"
    }

    fn is_fixed_length(&self) -> bool {
        false
    }

    fn encode_into(
        &self,
        batch: &Batch,
        cfg: &BatchConfig,
        scratch: &mut EncodeScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), EncodeError> {
        batch.validate(cfg)?;
        let fmt = cfg.format();
        let d = cfg.features();
        out.clear();
        write_varint(out, batch.len() as u64);
        // Gap-encoded indices.
        let mut prev_idx = 0usize;
        for (t, &idx) in batch.indices().iter().enumerate() {
            let gap = if t == 0 { idx } else { idx - prev_idx };
            write_varint(out, gap as u64);
            prev_idx = idx;
        }
        // Delta-encoded raw values per feature column. Quantization runs
        // once over the whole batch as a lane loop; the varint emission then
        // works on integers only.
        let raws = &mut scratch.quant_raw;
        fmt.quantize_slice(batch.values(), raws);
        let prev_raw = &mut scratch.prev_raw;
        prev_raw.clear();
        prev_raw.resize(d, 0);
        for row in raws.chunks_exact(d.max(1)) {
            for (prev, &raw) in prev_raw.iter_mut().zip(row) {
                write_varint(out, zigzag(raw - *prev));
                *prev = raw;
            }
        }
        Ok(())
    }

    fn decode(&self, message: &[u8], cfg: &BatchConfig) -> Result<Batch, DecodeError> {
        let fmt = cfg.format();
        let d = cfg.features();
        let mut pos = 0usize;
        let k = read_varint(message, &mut pos)? as usize;
        if k > cfg.max_len() {
            return Err(DecodeError::Corrupt(
                "measurement count exceeds batch maximum",
            ));
        }
        let mut indices = Vec::with_capacity(k);
        let mut idx = 0usize;
        for t in 0..k {
            let gap = read_varint(message, &mut pos)? as usize;
            idx = if t == 0 { gap } else { idx + gap };
            if idx >= cfg.max_len() {
                return Err(DecodeError::Corrupt("decoded index out of range"));
            }
            indices.push(idx);
        }
        let mut values = Vec::with_capacity(k * d);
        let mut prev_raw = vec![0i64; d];
        for _ in 0..k {
            for prev in prev_raw.iter_mut() {
                let delta = unzigzag(read_varint(message, &mut pos)?);
                let raw = prev.wrapping_add(delta);
                if raw > fmt.max_raw() || raw < fmt.min_raw() {
                    return Err(DecodeError::Corrupt("decoded value outside format range"));
                }
                *prev = raw;
                values.push(fmt.dequantize(raw));
            }
        }
        Batch::new(indices, values).map_err(|_| DecodeError::Corrupt("decoded batch invalid"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use age_fixed::Format;

    fn cfg() -> BatchConfig {
        BatchConfig::new(100, 2, Format::new(16, 10).unwrap()).unwrap()
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [
            -1_000_000i64,
            -2,
            -1,
            0,
            1,
            2,
            1_000_000,
            i64::MIN / 4,
            i64::MAX / 4,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
    }

    #[test]
    fn varint_roundtrip() {
        let mut out = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            write_varint(&mut out, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&out, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, out.len());
    }

    #[test]
    fn codec_is_lossless_for_representable_values() {
        let c = cfg();
        let fmt = c.format();
        let values: Vec<f64> = (0..60)
            .map(|i| fmt.round_trip((i as f64 * 0.37).sin() * 10.0))
            .collect();
        let batch = Batch::new((0..30).map(|i| i * 3).collect(), values.clone()).unwrap();
        let codec = DeltaCodec;
        let decoded = codec
            .decode(&codec.encode(&batch, &c).unwrap(), &c)
            .unwrap();
        assert_eq!(decoded.indices(), batch.indices());
        assert_eq!(decoded.values(), values.as_slice());
    }

    #[test]
    fn compression_ratio_depends_on_volatility() {
        // The §7 leak: same k, very different sizes.
        let c = cfg();
        let codec = DeltaCodec;
        let flat = Batch::new((0..50).collect(), vec![0.5; 100]).unwrap();
        let wild = Batch::new(
            (0..50).collect(),
            // Alternate per *measurement* so the per-feature deltas swing.
            (0..100)
                .map(|i| if (i / 2) % 2 == 0 { 30.0 } else { -30.0 })
                .collect(),
        )
        .unwrap();
        let flat_len = codec.encode(&flat, &c).unwrap().len();
        let wild_len = codec.encode(&wild, &c).unwrap().len();
        assert!(
            wild_len > flat_len * 2,
            "flat {flat_len} vs wild {wild_len}"
        );
    }

    #[test]
    fn beats_raw_encoding_on_smooth_data() {
        let c = cfg();
        let fmt = c.format();
        let values: Vec<f64> = (0..200)
            .map(|i| fmt.round_trip((i as f64 * 0.05).sin()))
            .collect();
        let batch = Batch::new((0..100).collect(), values).unwrap();
        let compressed = DeltaCodec.encode(&batch, &c).unwrap().len();
        let raw = c.standard_message_bytes(100);
        assert!(compressed < raw, "compressed {compressed} vs raw {raw}");
    }

    #[test]
    fn decode_rejects_garbage() {
        let c = cfg();
        let codec = DeltaCodec;
        assert!(codec.decode(&[], &c).is_err());
        assert!(codec.decode(&[0xFF; 3], &c).is_err());
        // A huge claimed count.
        let mut msg = Vec::new();
        write_varint(&mut msg, 1_000_000);
        assert!(codec.decode(&msg, &c).is_err());
    }

    #[test]
    fn empty_batch_roundtrips() {
        let c = cfg();
        let codec = DeltaCodec;
        let out = codec
            .decode(&codec.encode(&Batch::empty(), &c).unwrap(), &c)
            .unwrap();
        assert!(out.is_empty());
    }
}
