//! Baseline encoders: the leaky standard encoding and BuFLO-style padding.

use age_fixed::{BitReader, BitWriter};

use crate::batch::{Batch, BatchConfig};
use crate::error::{DecodeError, EncodeError};
use crate::scratch::EncodeScratch;
use crate::telemetry::{Probe, Stage};
use crate::Encoder;

/// Writes the standard layout into `w`: a 16-bit count, then each collected
/// index with its full-width values, each measurement quantized and packed
/// in one [`BitWriter::write_quantized`] pass. Infallible once validated.
pub(crate) fn write_standard(batch: &Batch, cfg: &BatchConfig, w: &mut BitWriter) {
    w.write_u16(batch.len() as u16);
    for (t, &idx) in batch.indices().iter().enumerate() {
        w.write_bits(idx as u64, cfg.index_bits());
        w.write_quantized(cfg.format(), batch.measurement(t));
    }
}

/// Decodes the standard layout into `out`: the one decode loop behind the
/// standard and padded encoders.
///
/// With `exact`, the message must be exactly as long as its declared count
/// implies; that is checked before any index or value is read. Without it,
/// trailing bytes are ignored (the padded defense leaves zero padding after
/// the payload). The frame's bit budget is checked once, then one loop
/// reads each row that fits, its index and then its values, at computed
/// bit positions. If the frame ends inside a row, that row's index is still
/// read and checked when it fits, and the error names its first field that
/// does not fit, as per-field reads would. On error `out`'s contents are
/// unspecified.
pub(crate) fn decode_standard_into(
    message: &[u8],
    cfg: &BatchConfig,
    exact: bool,
    out: &mut Batch,
) -> Result<(), DecodeError> {
    let mut r = BitReader::new(message);
    let k = usize::from(r.read_u16()?);
    if k > cfg.max_len() {
        return Err(DecodeError::Corrupt(
            "measurement count exceeds batch maximum",
        ));
    }
    let expected = cfg.standard_message_bytes(k);
    if exact && message.len() != expected {
        return Err(DecodeError::Length {
            len: message.len(),
            expected,
        });
    }
    out.clear();
    let (indices, values) = out.parts_mut();
    let (d, index_bits, width) = (cfg.features(), cfg.index_bits(), cfg.format().width());
    let row_bits = usize::from(index_bits) + d * usize::from(width);
    let rows = k.min(r.remaining_bits() / row_bits);
    let step = cfg.format().step();
    let mut pos = r.position();
    indices.reserve(k);
    values.resize(k * d, 0.0);
    for measurement in values.chunks_exact_mut(d).take(rows) {
        let index = r.bits_at(pos, index_bits) as usize;
        pos += usize::from(index_bits);
        push_index(indices, index, cfg)?;
        for slot in measurement {
            *slot = r.signed_bits_at(pos, width) as f64 * step;
            pos += usize::from(width);
        }
    }
    if rows < k {
        if r.check_at(pos, [index_bits]).is_ok() {
            push_index(indices, r.bits_at(pos, index_bits) as usize, cfg)?;
        }
        let row = std::iter::once(index_bits).chain(std::iter::repeat_n(width, d));
        r.check_at(pos, row)?;
    }
    Ok(())
}

/// Appends a decoded index after checking it against the batch range and
/// the previous index.
fn push_index(
    indices: &mut Vec<usize>,
    index: usize,
    cfg: &BatchConfig,
) -> Result<(), DecodeError> {
    // `index_bits` can address past `max_len` when it is not a power of
    // two, so a corrupted index must be range-checked explicitly.
    if index >= cfg.max_len() {
        return Err(DecodeError::Corrupt("decoded index out of range"));
    }
    if indices.last().is_some_and(|&prev| prev >= index) {
        return Err(DecodeError::Corrupt("decoded indices not increasing"));
    }
    indices.push(index);
    Ok(())
}

/// The standard adaptive-sampling message: a count, then each collected
/// index with its full-width values. Message length is proportional to the
/// number of collected measurements — this is the side-channel.
///
/// # Examples
///
/// ```
/// use age_core::{Batch, BatchConfig, Encoder, StandardEncoder};
/// use age_fixed::Format;
///
/// let cfg = BatchConfig::new(50, 6, Format::new(16, 13)?)?;
/// let enc = StandardEncoder;
/// let small = enc.encode(&Batch::new(vec![0], vec![0.0; 6])?, &cfg)?;
/// let large = enc.encode(&Batch::new((0..40).collect(), vec![0.0; 240])?, &cfg)?;
/// assert!(large.len() > small.len()); // leaks the collection rate
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StandardEncoder;

impl Encoder for StandardEncoder {
    fn name(&self) -> &'static str {
        "Standard"
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
        let mut probe = Probe::start(batch.len());
        batch.validate(cfg)?;
        out.clear();
        out.reserve(cfg.standard_message_bytes(batch.len()));
        let mut w = BitWriter::from_vec(std::mem::take(out));
        write_standard(batch, cfg, &mut w);
        *out = w.into_bytes();
        probe.lap(Stage::Pack);
        probe.finish(&mut scratch.context, batch.len(), out.len(), || {
            standard_layout("Standard", batch.len(), cfg, None)
        });
        Ok(())
    }

    fn decode(&self, message: &[u8], cfg: &BatchConfig) -> Result<Batch, DecodeError> {
        let mut out = Batch::empty();
        decode_standard_into(message, cfg, true, &mut out)?;
        Ok(out)
    }

    fn decode_into(
        &self,
        message: &[u8],
        cfg: &BatchConfig,
        scratch: &mut EncodeScratch,
        out: &mut Batch,
    ) -> Result<(), DecodeError> {
        let _ = scratch;
        // The standard layout has no padding: the declared count fixes the
        // exact message length.
        decode_standard_into(message, cfg, true, out)
    }
}

/// The padding defense (BuFLO-style, §5.1): standard encoding padded with
/// zero bytes up to a fixed length — by default the size of a full batch.
/// Lossless and leak-free, but the extra communication violates energy
/// budgets on low-power sensors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaddedEncoder {
    pad_to: usize,
}

impl PaddedEncoder {
    /// Pads to `pad_to` bytes — the paper's minimal padding uses the largest
    /// batch observed in the evaluation data.
    pub fn new(pad_to: usize) -> Self {
        PaddedEncoder { pad_to }
    }

    /// Pads to the worst case for the configuration: a full batch of
    /// `max_len` measurements.
    pub fn for_config(cfg: &BatchConfig) -> Self {
        PaddedEncoder {
            pad_to: cfg.standard_message_bytes(cfg.max_len()),
        }
    }

    /// The fixed message length in bytes.
    pub fn pad_to(&self) -> usize {
        self.pad_to
    }
}

impl Encoder for PaddedEncoder {
    fn name(&self) -> &'static str {
        "Padded"
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
        let mut probe = Probe::start(batch.len());
        batch.validate(cfg)?;
        let min = cfg.standard_message_bytes(batch.len());
        if min > self.pad_to {
            return Err(EncodeError::TargetTooSmall {
                target: self.pad_to,
                min,
            });
        }
        out.clear();
        out.reserve(self.pad_to);
        let mut w = BitWriter::from_vec(std::mem::take(out));
        write_standard(batch, cfg, &mut w);
        debug_assert_eq!(w.byte_len(), min);
        w.pad_to_bytes(self.pad_to);
        *out = w.into_bytes();
        probe.lap(Stage::Pack);
        probe.finish(&mut scratch.context, batch.len(), out.len(), || {
            standard_layout("Padded", batch.len(), cfg, Some(self.pad_to))
        });
        Ok(())
    }

    fn decode(&self, message: &[u8], cfg: &BatchConfig) -> Result<Batch, DecodeError> {
        let mut out = Batch::empty();
        self.decode_into(message, cfg, &mut EncodeScratch::new(), &mut out)?;
        Ok(out)
    }

    fn decode_into(
        &self,
        message: &[u8],
        cfg: &BatchConfig,
        scratch: &mut EncodeScratch,
        out: &mut Batch,
    ) -> Result<(), DecodeError> {
        let _ = scratch;
        // Padded frames are fixed-length by construction; anything else has
        // been truncated or extended in transit.
        if message.len() != self.pad_to {
            return Err(DecodeError::Length {
                len: message.len(),
                expected: self.pad_to,
            });
        }
        decode_standard_into(message, cfg, false, out)
    }
}

/// The telemetry layout of a standard-layout message of `k` measurements:
/// a `k` header, one index-directory entry per measurement, and full-width
/// values.
fn standard_layout(
    encoder: &'static str,
    k: usize,
    cfg: &BatchConfig,
    target_bytes: Option<usize>,
) -> age_telemetry::BatchRecord {
    age_telemetry::BatchRecord {
        encoder,
        header_bits: crate::encoder::K_BITS,
        directory_bits: k * usize::from(cfg.index_bits()),
        data_bits: k * cfg.features() * usize::from(cfg.format().width()),
        target_bytes,
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use age_fixed::Format;

    fn cfg() -> BatchConfig {
        BatchConfig::new(50, 6, Format::new(16, 13).unwrap()).unwrap()
    }

    fn batch(k: usize) -> Batch {
        let values: Vec<f64> = (0..k * 6).map(|i| (i as f64) * 0.25 - 2.0).collect();
        Batch::new((0..k).collect(), values).unwrap()
    }

    #[test]
    fn standard_length_tracks_collection_count() {
        let c = cfg();
        let enc = StandardEncoder;
        let sizes: Vec<usize> = [1usize, 10, 25, 50]
            .iter()
            .map(|&k| enc.encode(&batch(k), &c).unwrap().len())
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(sizes[3], c.standard_message_bytes(50));
    }

    #[test]
    fn standard_roundtrip_is_lossless_for_representable_values() {
        let c = cfg();
        let enc = StandardEncoder;
        let fmt = c.format();
        let values: Vec<f64> = (0..60)
            .map(|i| fmt.round_trip(i as f64 * 0.03 - 1.0))
            .collect();
        let b = Batch::new((0..10).map(|i| i * 5).collect(), values.clone()).unwrap();
        let out = enc.decode(&enc.encode(&b, &c).unwrap(), &c).unwrap();
        assert_eq!(out.indices(), b.indices());
        assert_eq!(out.values(), values.as_slice());
    }

    #[test]
    fn padded_messages_have_constant_length() {
        let c = cfg();
        let enc = PaddedEncoder::for_config(&c);
        let a = enc.encode(&batch(1), &c).unwrap();
        let b = enc.encode(&batch(50), &c).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), c.standard_message_bytes(50));
    }

    #[test]
    fn padded_roundtrip_ignores_padding() {
        let c = cfg();
        let enc = PaddedEncoder::for_config(&c);
        let b = batch(7);
        let out = enc.decode(&enc.encode(&b, &c).unwrap(), &c).unwrap();
        assert_eq!(out.indices(), b.indices());
    }

    #[test]
    fn padded_rejects_undersized_pad() {
        let c = cfg();
        let enc = PaddedEncoder::new(10);
        assert!(matches!(
            enc.encode(&batch(20), &c),
            Err(EncodeError::TargetTooSmall { .. })
        ));
    }

    #[test]
    fn standard_pins_length_errors() {
        let c = cfg();
        let msg = StandardEncoder.encode(&batch(5), &c).unwrap();
        let expected = c.standard_message_bytes(5);
        assert_eq!(msg.len(), expected);
        let mut long = msg.clone();
        long.push(0);
        assert_eq!(
            StandardEncoder.decode(&long, &c),
            Err(DecodeError::Length {
                len: expected + 1,
                expected
            })
        );
        // Truncation is caught by the same exact-length check, before any
        // payload bit is read, on both decode paths.
        let truncated = Err(DecodeError::Length {
            len: expected - 1,
            expected,
        });
        assert_eq!(StandardEncoder.decode(&msg[..msg.len() - 1], &c), truncated);
        let mut out = Batch::empty();
        assert_eq!(
            StandardEncoder
                .decode_into(
                    &msg[..msg.len() - 1],
                    &c,
                    &mut EncodeScratch::new(),
                    &mut out
                )
                .map(|()| out),
            truncated
        );
        // A forged count that understates the payload is caught by the
        // exact-length check instead of being silently accepted.
        let mut short_count = msg.clone();
        short_count[0] = 0;
        short_count[1] = 4;
        assert_eq!(
            StandardEncoder.decode(&short_count, &c),
            Err(DecodeError::Length {
                len: expected,
                expected: c.standard_message_bytes(4)
            })
        );
    }

    #[test]
    fn padded_pins_length_errors() {
        let c = cfg();
        let enc = PaddedEncoder::for_config(&c);
        let msg = enc.encode(&batch(5), &c).unwrap();
        assert_eq!(
            enc.decode(&msg[..msg.len() - 1], &c),
            Err(DecodeError::Length {
                len: msg.len() - 1,
                expected: enc.pad_to()
            })
        );
        let mut long = msg.clone();
        long.push(0);
        assert_eq!(
            enc.decode(&long, &c),
            Err(DecodeError::Length {
                len: msg.len() + 1,
                expected: enc.pad_to()
            })
        );
    }

    #[test]
    fn empty_batches_are_supported() {
        let c = cfg();
        let out = StandardEncoder
            .decode(&StandardEncoder.encode(&Batch::empty(), &c).unwrap(), &c)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn standard_decode_into_matches_decode() {
        let c = cfg();
        let mut scratch = EncodeScratch::default();
        let mut out = Batch::empty();
        for k in [0, 1, 7, 50] {
            let msg = StandardEncoder.encode(&batch(k), &c).unwrap();
            StandardEncoder
                .decode_into(&msg, &c, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out, StandardEncoder.decode(&msg, &c).unwrap());
        }
        // Both reject a truncated and an extended message.
        let msg = StandardEncoder.encode(&batch(3), &c).unwrap();
        for bad in [&msg[..msg.len() - 1], &[msg.clone(), vec![0]].concat()[..]] {
            assert!(StandardEncoder
                .decode_into(bad, &c, &mut scratch, &mut out)
                .is_err());
            assert!(StandardEncoder.decode(bad, &c).is_err());
        }
    }
}
