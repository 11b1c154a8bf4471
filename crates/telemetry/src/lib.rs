//! Zero-dependency observability for the AGE reproduction.
//!
//! AGE's claims are quantitative: message sizes must be constant under the
//! defense, and the encoder's prune/group/merge/quantize/pack pipeline must
//! stay cheap enough for low-power sensors. This crate provides the
//! instrumentation to observe both, with no external dependencies so the
//! workspace builds offline, and no heap allocation or locking on the
//! disabled path so instrumentation can't itself become a timing side
//! channel on the MCU.
//!
//! Components:
//!
//! - [`metrics`] — lock-free [`Counter`]s and fixed-bucket [`Histogram`]s.
//! - [`span`] — a [`Stopwatch`] for per-stage wall-clock timings, and a
//!   [`Tracer`] for hierarchical virtual-time spans (a no-op without the
//!   `audit` feature); behind `audit`, [`trace`] renders collected spans
//!   as Chrome `trace_event` JSON.
//! - [`record`] — the per-batch [`BatchRecord`] schema (mirrors
//!   `age-core`'s `inspect_message` layout) with stable JSONL output.
//! - [`sink`] — pluggable destinations: [`NullSink`], [`RecordingSink`]
//!   (tests), [`JsonlSink`] (runs), [`FanoutSink`], with thread-local and
//!   process-global installation.
//! - [`summary`] — [`Summary`] rollups whose message-size stddev column is
//!   the machine-checkable constant-size invariant, with p50/p95/p99
//!   encode-time percentiles.
//! - [`leakage`] — streaming `(event label, wire size)` joint distributions
//!   with online NMI and a seeded permutation test; behind the `audit`
//!   feature, the [`LeakageAudit`]/[`LeakageSink`] pipeline and the
//!   [`LeakageGate`] CI regression gate.
//! - [`monitor`] — tumbling virtual-time windows scoring the same two
//!   channels *mid-run*, raising deterministic [`Alarm`]s when a window
//!   crosses the gate threshold (behind `audit`).
//! - [`recorder`] — the fixed-capacity [`FlightRecorder`] ring of recent
//!   ingest events backing the gateway's postmortem dumps (behind
//!   `audit`).
//! - [`rng`] — [`DetRng`], the deterministic SplitMix64/xoshiro256**
//!   generator the rest of the workspace uses instead of an external `rand`
//!   dependency.
//!
//! The feature fork covers only the code a sensor links: the `age-core`
//! encoders and the `age-transport` link gate their instrumentation behind
//! their `telemetry` features, and this crate gates its audit plumbing
//! behind `audit`. With all three off, every sensor-side call site
//! compiles away. The host crates (`age-gateway`, `age-sim`, `age-bench`)
//! always enable `audit`: the gateway's and simulator's audits model the
//! server and the eavesdropper, not the sensor.

pub mod alloc;
pub mod leakage;
pub mod metrics;
#[cfg(feature = "audit")]
pub mod monitor;
#[cfg(feature = "audit")]
pub mod nonce;
pub mod record;
#[cfg(feature = "audit")]
pub mod recorder;
pub mod rng;
pub mod sink;
pub mod span;
pub mod summary;
#[cfg(feature = "audit")]
pub mod trace;

pub use leakage::{entropy_from_counts, nmi_pairs, permutation_test_pairs, LeakageStream};
#[cfg(feature = "audit")]
pub use leakage::{
    GateOutcome, LeakageAudit, LeakageEntry, LeakageGate, LeakageReport, LeakageSink,
};
pub use metrics::{Counter, Histogram};
#[cfg(feature = "audit")]
pub use monitor::{Alarm, AlarmKind, MonitorConfig, WindowScore, WindowTraffic, WindowedMonitor};
#[cfg(feature = "audit")]
pub use nonce::{
    begin_epoch, reset_epoch_counters, FleetNonceAudit, FleetNonceReuse, NonceAudit,
    NonceAuditSink, NonceReuse, SeqSet,
};
#[cfg(feature = "audit")]
pub use record::WireRecord;
pub use record::{BatchRecord, GroupRecord, StageTimings};
#[cfg(feature = "audit")]
pub use recorder::{FlightRecord, FlightRecorder, IngestRung};
pub use rng::{DetRng, SliceShuffle};
pub use sink::{
    active, clear_global, context_epoch, context_event, context_vtime, emit, install_global,
    install_thread, set_context_epoch, set_context_event, set_context_label, set_context_vtime,
    set_timings_enabled, stamp, timings_enabled, FanoutSink, JsonlSink, NullSink, RecordingSink,
    Sink, ThreadSinkGuard,
};
#[cfg(feature = "audit")]
pub use sink::{emit_span, emit_wire};
#[cfg(feature = "audit")]
pub use span::SpanEvent;
pub use span::{set_trace_enabled, trace_enabled, Stopwatch, Tracer};
pub use summary::{StreamStats, Summary, SummarySink, TransportRollup};
#[cfg(feature = "audit")]
pub use trace::{render_chrome_json, TraceSink};
