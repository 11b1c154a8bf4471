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
//! - [`span`] — a [`Stopwatch`] for per-stage wall-clock timings, and a
//!   [`Tracer`] for hierarchical virtual-time spans, which [`trace`]
//!   renders as Chrome `trace_event` JSON.
//! - [`record`] — the per-batch [`BatchRecord`] schema (mirrors
//!   `age-core`'s `inspect_message` layout) with stable JSONL output.
//! - [`sink`] — pluggable destinations: [`NullSink`], [`RecordingSink`]
//!   (tests), [`JsonlSink`] (runs), [`FanoutSink`], installed on the
//!   caller's thread ([`install_thread`]) and handed on explicitly where
//!   work fans out ([`current_sink`]). Records arrive fully filled in:
//!   batch records carry the stream context the caller set on `age-core`'s
//!   `EncodeScratch`, [`WireRecord`]s the one the transmit path holds.
//! - [`summary`] — [`Summary`] rollups whose message-size stddev column is
//!   the machine-checkable constant-size invariant, with p50/p95/p99
//!   encode-time percentiles.
//! - [`leakage`] — streaming `(event label, wire size)` joint distributions
//!   with online NMI and a seeded permutation test, the
//!   [`LeakageAudit`]/[`LeakageSink`] pipeline and the [`LeakageGate`] CI
//!   regression gate.
//! - [`nonce`] — [`FleetNonceAudit`], the one nonce-uniqueness auditor
//!   on integer `(sender, epoch, sequence)` keys, the per-session
//!   [`NonceLedger`] a gateway session checks its frames against, and the
//!   [`NonceAuditSink`] summing experiment runs' audits.
//! - [`monitor`] — tumbling virtual-time windows scoring the same two
//!   channels *mid-run*, raising deterministic [`Alarm`]s when a window
//!   crosses the gate threshold.
//! - [`recorder`] — the fixed-capacity [`FlightRecorder`] ring of recent
//!   ingest events backing the gateway's postmortem dumps.
//! - [`rng`] — [`DetRng`], the deterministic SplitMix64/xoshiro256**
//!   generator the rest of the workspace uses instead of an external `rand`
//!   dependency.
//!
//! This crate has one shape; it carries no feature fork of its own, and
//! no process-wide state: every count lives in the link, sensor, run or
//! gateway shard that made it, and the only ambient value is the sink the
//! caller installed on its own thread (the counting allocator's counters
//! in [`alloc`] aside). Tracing is armed by installing a [`TraceSink`],
//! and no switch turns stage timings off. The one fork lives in `age-core`'s encoder
//! probe, which switches on its `telemetry` feature; with it off every
//! sensor-side emit compiles away. The sensor crates use only the basics
//! here (records, [`Stopwatch`], [`emit`], [`DetRng`]);
//! the audits, monitor, recorder and tracer are reached only from the
//! host crates (`age-gateway`, `age-sim`, `age-bench`), which model the
//! server and the eavesdropper, not the sensor.

pub mod alloc;
pub mod leakage;
pub mod monitor;
pub mod nonce;
pub mod record;
pub mod recorder;
pub mod rng;
pub mod sink;
pub mod span;
pub mod summary;
pub mod trace;

pub use leakage::{
    entropy_from_counts, nmi, permutation_test, GateOutcome, LeakageAudit, LeakageEntry,
    LeakageGate, LeakageReport, LeakageSink, LeakageStream,
};
pub use monitor::{Alarm, AlarmKind, MonitorConfig, WindowScore, WindowTraffic, WindowedMonitor};
pub use nonce::{
    FleetNonceAudit, FleetNonceReuse, NonceAuditSink, NonceLedger, NonceTotals, SeqSet,
};
pub use record::{BatchRecord, GroupRecord, JsonStr, StageTimings, WireRecord};
pub use recorder::{FlightRecord, FlightRecorder, IngestRung};
pub use rng::{DetRng, SliceShuffle};
pub use sink::{
    active, current_sink, emit, emit_nonces, emit_wire, install_thread, FanoutSink, JsonlSink,
    NullSink, RecordingSink, Sink, ThreadSinkGuard,
};
pub use span::{SpanEvent, Stopwatch, Tracer};
pub use summary::{StreamStats, Summary, SummarySink};
pub use trace::{render_chrome_json, TraceSink};
