//! Reusable working memory for the encode hot path.
//!
//! AGE's premise (§4.5) is that the encoder must be cheap enough to run on
//! an MCU, where heap churn is both a cost and a fragmentation hazard. Every
//! intermediate the encoders need — the pruned batch, the exponent sequence,
//! the group arena, width assignments, and assorted index/score buffers —
//! lives in one [`EncodeScratch`] that the caller owns and threads through
//! [`Encoder::encode_into`](crate::Encoder::encode_into). After a warm-up
//! call has grown each buffer to its steady-state size, encoding performs
//! zero heap allocations (enforced by the counting-allocator test in
//! `tests/alloc.rs`).
//!
//! The scratch also carries the [`StreamContext`] the encoders stamp onto
//! their telemetry records, so a record's stream is whatever its caller
//! set on the scratch it encoded through, never state left on the thread.

use crate::batch::Batch;
use crate::group::{Group, MergeScratch};
use crate::prune::PruneScratch;

/// Caller-owned scratch buffers shared by every [`crate::Encoder`]
/// implementation in this crate.
///
/// One scratch can be reused across different encoders and batch sizes; the
/// buffers simply grow to the high-water mark. The contents after a call are
/// unspecified — only the allocations are meaningful.
///
/// # Examples
///
/// ```
/// use age_core::{AgeEncoder, Batch, BatchConfig, EncodeScratch, Encoder};
/// use age_fixed::Format;
///
/// let cfg = BatchConfig::new(50, 6, Format::new(16, 13)?)?;
/// let encoder = AgeEncoder::new(220);
/// let mut scratch = EncodeScratch::new();
/// let mut message = Vec::new();
/// for step in 0..3 {
///     let batch = Batch::new(vec![step, step + 10], vec![0.5; 12])?;
///     encoder.encode_into(&batch, &cfg, &mut scratch, &mut message)?;
///     assert_eq!(message.len(), 220);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct EncodeScratch {
    /// Output of the pruning stage (§4.2).
    pub(crate) pruned: Batch,
    /// Score/order/keep buffers for [`crate::prune::prune_into`].
    pub(crate) prune: PruneScratch,
    /// Per-measurement exponents (§4.3).
    pub(crate) exponents: Vec<u8>,
    /// Group arena: formed, merged, and split in place.
    pub(crate) groups: Vec<Group>,
    /// Final per-group bit widths (§4.4).
    pub(crate) widths: Vec<u8>,
    /// Key/mask buffers for group merging.
    pub(crate) merge: MergeScratch,
    /// Split log for partition optimization.
    pub(crate) split_log: Vec<usize>,
    /// Width buffer for partition candidates.
    pub(crate) trial_widths: Vec<u8>,
    /// Per-feature previous raw values for delta encoding.
    pub(crate) prev_raw: Vec<i64>,
    /// Lane buffer of quantized raw integers for the delta codec.
    pub(crate) quant_raw: Vec<i64>,
    /// The stream the batch records of encodes through this scratch belong
    /// to. Callers that name streams (the simulator's runner) set it; a
    /// fresh scratch gives unlabelled records numbered from 0.
    pub context: StreamContext,
}

/// Stream context stamped onto each per-batch telemetry record an encoder
/// emits through an [`EncodeScratch`].
///
/// Only read when a telemetry sink is installed; encoders built without
/// the `telemetry` feature never look at it.
///
/// # Examples
///
/// ```
/// use age_core::EncodeScratch;
///
/// let mut scratch = EncodeScratch::new();
/// assert_eq!(scratch.context.label, "");
/// scratch.context.label = "Epilepsy/Linear/AGE/r0.70".into();
/// scratch.context.event = Some(3);
/// scratch.context.virtual_time = 1_280_000;
/// assert_eq!(scratch.context.batch, 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamContext {
    /// Stream label (`dataset/policy/defense/r<rate>` in the simulator);
    /// empty when unset.
    pub label: String,
    /// Ground-truth event being sensed, which the leakage audit
    /// correlates message sizes against; `None` when unknown.
    pub event: Option<usize>,
    /// Virtual time (simulated microseconds) at which the batch's sensing
    /// window closed; 0 without a virtual clock.
    pub virtual_time: u64,
    /// Sequence number of the next record; each emitted record takes it
    /// and advances it by one.
    pub batch: u64,
}

impl EncodeScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        EncodeScratch::default()
    }
}
