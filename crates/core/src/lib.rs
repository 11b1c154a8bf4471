//! Adaptive Group Encoding (AGE): fixed-length lossy encoding of adaptively
//! sampled measurement batches.
//!
//! This crate implements the primary contribution of *Protecting Adaptive
//! Sampling from Information Leakage on Low-Power Sensors* (Kannan &
//! Hoffmann, ASPLOS 2022). Adaptive sampling policies leak the sensed event
//! through the size of batched messages, because the batch size is
//! proportional to the data-dependent collection rate. AGE closes this
//! side-channel by encoding *every* batch into a message of exactly the same
//! byte length, using fixed-point quantization refined by three
//! transformations:
//!
//! 1. **Measurement pruning** (§4.2, [`prune`]) drops just enough low-impact
//!    measurements that every remaining value receives at least
//!    [`AgeEncoder::MIN_WIDTH`] bits.
//! 2. **Exponent-aware group formation** (§4.3, [`group`]) run-length encodes
//!    the per-measurement exponents, then greedily merges adjacent groups so
//!    at most `G` groups remain.
//! 3. **Per-group quantization** (§4.4) assigns each group a bit width by a
//!    round-robin process that mimics fractional widths, then packs the
//!    quantized values into a byte-exact buffer.
//!
//! Alongside [`AgeEncoder`], the crate provides the paper's baselines —
//! [`StandardEncoder`] (variable-length, leaks sizes) and [`PaddedEncoder`]
//! (BuFLO-style padding) — and the §5.6 ablation variants [`SingleEncoder`],
//! [`UnshiftedEncoder`], and [`PrunedEncoder`].
//!
//! # Examples
//!
//! ```
//! use age_core::{AgeEncoder, Batch, BatchConfig, Encoder};
//! use age_fixed::Format;
//!
//! // A sensor batching up to 50 six-feature measurements of 16-bit values.
//! let cfg = BatchConfig::new(50, 6, Format::new(16, 13)?)?;
//! let encoder = AgeEncoder::new(220);
//!
//! // Whatever the policy collected — 3 values here, 48 next time — the
//! // message is always exactly 220 bytes.
//! let batch = Batch::new(vec![0, 9, 30], vec![0.5; 18])?;
//! let message = encoder.encode(&batch, &cfg)?;
//! assert_eq!(message.len(), 220);
//!
//! let decoded = encoder.decode(&message, &cfg)?;
//! assert_eq!(decoded.indices(), &[0, 9, 30]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

mod baselines;
mod batch;
mod compress;
mod encoder;
mod error;
pub mod group;
mod inspect;
pub mod mcu;
pub mod prune;
mod sample;
mod scratch;
pub mod target;
mod telemetry;
mod variants;

pub use baselines::{PaddedEncoder, StandardEncoder};
pub use batch::{Batch, BatchConfig, ConfigError};
pub use compress::DeltaCodec;
pub use encoder::AgeEncoder;
pub use error::{BatchError, DecodeError, EncodeError};
pub use inspect::{inspect_message, GroupLayout, MessageLayout};
pub use sample::Sample;
pub use scratch::{EncodeScratch, StreamContext};
pub use variants::{PrunedEncoder, SingleEncoder, UnshiftedEncoder};

/// A batch encoder: turns collected measurements into message bytes and back.
///
/// Implementations fall in two classes: *leaky* encoders whose output length
/// depends on the batch ([`StandardEncoder`]), and *fixed-length* encoders
/// whose output length is a constant for a given configuration
/// ([`AgeEncoder`], [`PaddedEncoder`], and the ablation variants).
pub trait Encoder {
    /// Short name used in experiment reports (e.g. `"AGE"`, `"Standard"`).
    fn name(&self) -> &'static str;

    /// `true` if every encoded message has the same length regardless of the
    /// batch content — the property that closes the size side-channel.
    fn is_fixed_length(&self) -> bool;

    /// Encodes a batch into `out` (plaintext; encryption framing is applied
    /// by the caller), reusing the allocations in `scratch` and `out`.
    ///
    /// This is the primary entry point: after a warm-up call has grown the
    /// scratch buffers, every implementation in this crate encodes without
    /// touching the heap, which is what makes the encoder viable on an MCU
    /// (§4.5) and keeps the simulation sweep allocation-quiet. `out` is
    /// cleared first, so it always holds exactly one message on success; on
    /// error its contents are unspecified. With a telemetry sink installed,
    /// the batch record is stamped with `scratch.context`.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if the batch is inconsistent with `cfg` or the
    /// encoder's target size cannot accommodate its own framing.
    fn encode_into(
        &self,
        batch: &Batch,
        cfg: &BatchConfig,
        scratch: &mut EncodeScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), EncodeError>;

    /// Encodes a batch into freshly allocated message bytes — a convenience
    /// wrapper over [`Encoder::encode_into`] for one-shot callers. Its
    /// scratch is fresh, so its telemetry record belongs to no stream.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] if the batch is inconsistent with `cfg` or the
    /// encoder's target size cannot accommodate its own framing.
    fn encode(&self, batch: &Batch, cfg: &BatchConfig) -> Result<Vec<u8>, EncodeError> {
        let mut scratch = EncodeScratch::new();
        let mut out = Vec::new();
        self.encode_into(batch, cfg, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Decodes message bytes back into a (lossy) batch.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the message is truncated or internally
    /// inconsistent.
    fn decode(&self, message: &[u8], cfg: &BatchConfig) -> Result<Batch, DecodeError>;

    /// Decodes message bytes into a caller-owned batch, reusing `out`'s and
    /// `scratch`'s allocations.
    ///
    /// The default implementation delegates to [`Encoder::decode`] and
    /// replaces `out` wholesale; encoders on the receiver hot path (notably
    /// [`AgeEncoder`]) override it to decode without touching the heap once
    /// warm, completing the zero-allocation seal→open→decode round trip. On
    /// error `out`'s contents are unspecified.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the message is truncated or internally
    /// inconsistent.
    fn decode_into(
        &self,
        message: &[u8],
        cfg: &BatchConfig,
        scratch: &mut EncodeScratch,
        out: &mut Batch,
    ) -> Result<(), DecodeError> {
        let _ = scratch;
        *out = self.decode(message, cfg)?;
        Ok(())
    }
}
