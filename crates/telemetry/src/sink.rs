//! Pluggable destinations for [`BatchRecord`]s.
//!
//! Instrumented code calls [`emit`]; where the record goes is decided by
//! whichever [`Sink`] is installed. Two scopes exist:
//!
//! - **Thread-local** ([`install_thread`]): scoped to the current thread and
//!   restored on guard drop. This is what tests use — cargo runs tests on
//!   concurrent threads, and a thread-local sink keeps their records from
//!   bleeding into each other.
//! - **Global** ([`install_global`]): process-wide fallback, used by the
//!   `repro` binary whose experiment harness fans work out across scoped
//!   threads that all need to reach one `JsonlSink`.
//!
//! With no sink installed, [`emit`] drops the record; call sites can check
//! [`active`] first and skip building records entirely, so the uninstalled
//! cost is one thread-local read and one relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::nonce::FleetNonceAudit;
use crate::record::{BatchRecord, WireRecord};
use crate::span::SpanEvent;

/// A destination for per-batch telemetry records.
///
/// Implementations take `&self` (interior mutability) so one sink can be
/// shared across threads behind an `Arc`.
pub trait Sink: Send + Sync {
    /// Consumes one batch record.
    fn record_batch(&self, record: &BatchRecord);

    /// Consumes one sealed-frame observation (leakage audit). Default:
    /// ignored, so sinks that only care about batches need no change.
    fn record_wire(&self, _record: &WireRecord) {}

    /// Consumes one closed virtual-time span (trace export). Default:
    /// ignored — only trace sinks care.
    fn record_span(&self, _span: &SpanEvent) {}

    /// Consumes one finished run's nonce audit, its frames sealed under
    /// stream `label` (nonce auditing). Default: ignored.
    fn record_nonces(&self, _label: &str, _audit: &FleetNonceAudit) {}

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// Discards everything. The behavior you get with no sink installed; exists
/// so code can hold a `Arc<dyn Sink>` unconditionally.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    fn record_batch(&self, _record: &BatchRecord) {}
}

/// Buffers records in memory for test assertions.
#[derive(Debug, Default)]
pub struct RecordingSink {
    records: Mutex<Vec<BatchRecord>>,
    wires: Mutex<Vec<WireRecord>>,
}

impl RecordingSink {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clone of every record seen so far.
    pub fn records(&self) -> Vec<BatchRecord> {
        self.records.lock().unwrap().clone()
    }

    /// Number of records seen so far.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// Whether no records have been seen.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns all records.
    pub fn take(&self) -> Vec<BatchRecord> {
        std::mem::take(&mut *self.records.lock().unwrap())
    }

    /// A clone of every wire record seen so far.
    pub fn wire_records(&self) -> Vec<WireRecord> {
        self.wires.lock().unwrap().clone()
    }
}

impl Sink for RecordingSink {
    fn record_batch(&self, record: &BatchRecord) {
        self.records.lock().unwrap().push(record.clone());
    }

    fn record_wire(&self, record: &WireRecord) {
        self.wires.lock().unwrap().push(record.clone());
    }
}

/// Writes one compact JSON object per record to a buffered writer.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<BufWriter<W>>,
}

impl JsonlSink<File> {
    /// Creates (truncating) `path` and writes records to it.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self::new(File::create(path)?))
    }
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps an arbitrary writer. Records are written as emitted; to get
    /// byte-identical files from identical runs, switch stage timings off
    /// at the source ([`set_timings_enabled`]).
    pub fn new(writer: W) -> Self {
        JsonlSink {
            writer: Mutex::new(BufWriter::new(writer)),
        }
    }
}

impl<W: Write + Send> Sink for JsonlSink<W> {
    fn record_batch(&self, record: &BatchRecord) {
        let mut w = self.writer.lock().unwrap();
        // Telemetry must never take down the workload it observes.
        let _ = writeln!(w, "{}", record.to_json());
    }

    fn record_wire(&self, record: &WireRecord) {
        let mut w = self.writer.lock().unwrap();
        let _ = writeln!(w, "{}", record.to_json());
    }

    fn flush(&self) {
        let _ = self.writer.lock().unwrap().flush();
    }
}

/// Broadcasts each record to several sinks (e.g. JSONL file + summary).
pub struct FanoutSink(pub Vec<Arc<dyn Sink>>);

impl Sink for FanoutSink {
    fn record_batch(&self, record: &BatchRecord) {
        for sink in &self.0 {
            sink.record_batch(record);
        }
    }

    fn record_wire(&self, record: &WireRecord) {
        for sink in &self.0 {
            sink.record_wire(record);
        }
    }

    fn record_span(&self, span: &SpanEvent) {
        for sink in &self.0 {
            sink.record_span(span);
        }
    }

    fn record_nonces(&self, label: &str, audit: &FleetNonceAudit) {
        for sink in &self.0 {
            sink.record_nonces(label, audit);
        }
    }

    fn flush(&self) {
        for sink in &self.0 {
            sink.flush();
        }
    }
}

static GLOBAL_ACTIVE: AtomicBool = AtomicBool::new(false);
static GLOBAL_SINK: RwLock<Option<Arc<dyn Sink>>> = RwLock::new(None);

thread_local! {
    static THREAD_SINK: RefCell<Vec<Arc<dyn Sink>>> = const { RefCell::new(Vec::new()) };
    static THREAD_TIMINGS: Cell<bool> = const { Cell::new(true) };
}

/// Installs the process-wide fallback sink; replaces any previous one.
/// Pass-through threads (no thread-local sink) emit here.
pub fn install_global(sink: Arc<dyn Sink>) {
    *GLOBAL_SINK.write().unwrap() = Some(sink);
    GLOBAL_ACTIVE.store(true, Ordering::Release);
}

/// Removes the process-wide sink, flushing it first.
pub fn clear_global() {
    let prev = GLOBAL_SINK.write().unwrap().take();
    GLOBAL_ACTIVE.store(false, Ordering::Release);
    if let Some(sink) = prev {
        sink.flush();
    }
}

/// Installs a sink for the current thread only, shadowing the global sink
/// (and any outer thread-local sink) until the returned guard drops.
#[must_use = "the sink is uninstalled when the guard drops"]
pub fn install_thread(sink: Arc<dyn Sink>) -> ThreadSinkGuard {
    THREAD_SINK.with(|stack| stack.borrow_mut().push(sink));
    ThreadSinkGuard { _priv: () }
}

/// Uninstalls the matching [`install_thread`] sink on drop.
pub struct ThreadSinkGuard {
    _priv: (),
}

impl Drop for ThreadSinkGuard {
    fn drop(&mut self) {
        if let Some(sink) = THREAD_SINK.with(|stack| stack.borrow_mut().pop()) {
            sink.flush();
        }
    }
}

/// Whether any sink would receive an emitted record. Instrumented code
/// checks this before assembling a [`BatchRecord`] so the uninstalled path
/// does no allocation or timing work.
#[inline]
pub fn active() -> bool {
    THREAD_SINK.with(|stack| !stack.borrow().is_empty()) || GLOBAL_ACTIVE.load(Ordering::Acquire)
}

/// Hands `deliver` the innermost thread-local sink, falling back to the
/// global sink; does nothing if neither is installed.
fn route(deliver: impl FnOnce(&dyn Sink)) {
    let local = THREAD_SINK.with(|stack| stack.borrow().last().cloned());
    if let Some(sink) = local.or_else(|| GLOBAL_SINK.read().unwrap().clone()) {
        deliver(&*sink);
    }
}

/// Sends a record to the innermost thread-local sink, falling back to the
/// global sink; drops it if neither is installed. The producer fills in
/// every field: the encoders stamp the stream context their caller set on
/// the scratch they encode through.
pub fn emit(record: &BatchRecord) {
    route(|sink| sink.record_batch(record));
}

/// Routes one sealed-frame observation like [`emit`]. Transmit paths call
/// this once per sealed frame actually put on the air, so the audit sees
/// exactly what an eavesdropper would. The caller fills in every field,
/// stream label and key epoch included.
pub fn emit_wire(record: &WireRecord) {
    route(|sink| sink.record_wire(record));
}

/// Routes one finished run's nonce audit like [`emit`]. The experiment
/// runner calls this once per run, with the audit of every frame the run
/// sealed while a sink was active.
pub fn emit_nonces(label: &str, audit: &FleetNonceAudit) {
    route(|sink| sink.record_nonces(label, audit));
}

/// Routes one closed span like [`emit`]. Called by [`crate::span::Tracer`]
/// when tracing is enabled; most sinks ignore spans (trait default), so the
/// cost with only audit sinks installed is one virtual dispatch.
pub fn emit_span(span: &SpanEvent) {
    route(|sink| sink.record_span(span));
}

/// Whether instrumented encoders should collect wall-clock stage timings on
/// this thread. Defaults to `true`; determinism tests turn it off so two
/// identical runs produce identical records.
#[inline]
pub fn timings_enabled() -> bool {
    THREAD_TIMINGS.with(Cell::get)
}

/// Sets [`timings_enabled`] for the current thread.
pub fn set_timings_enabled(enabled: bool) {
    THREAD_TIMINGS.with(|t| t.set(enabled));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that read or write the process-global sink state,
    /// since cargo runs tests on concurrent threads.
    static GLOBAL_STATE: Mutex<()> = Mutex::new(());

    fn rec(batch: u64) -> BatchRecord {
        BatchRecord {
            encoder: "age",
            batch,
            message_len: 52,
            ..Default::default()
        }
    }

    #[test]
    fn no_sink_is_inactive_and_emit_is_a_noop() {
        let _lock = GLOBAL_STATE.lock().unwrap();
        assert!(!active());
        emit(&rec(0)); // must not panic
    }

    #[test]
    fn thread_sink_records_and_uninstalls_on_drop() {
        let _lock = GLOBAL_STATE.lock().unwrap();
        let sink = Arc::new(RecordingSink::new());
        {
            let _guard = install_thread(sink.clone());
            assert!(active());
            emit(&rec(1));
            emit(&rec(2));
        }
        assert!(!active());
        emit(&rec(3)); // after the guard, this is dropped
        let records = sink.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].batch, 1);
        assert_eq!(records[1].batch, 2);
    }

    #[test]
    fn inner_thread_sink_shadows_outer() {
        let outer = Arc::new(RecordingSink::new());
        let inner = Arc::new(RecordingSink::new());
        let _outer_guard = install_thread(outer.clone());
        {
            let _inner_guard = install_thread(inner.clone());
            emit(&rec(1));
        }
        emit(&rec(2));
        assert_eq!(inner.len(), 1);
        assert_eq!(outer.len(), 1);
        assert_eq!(outer.records()[0].batch, 2);
    }

    #[test]
    fn global_sink_reaches_spawned_threads() {
        let _lock = GLOBAL_STATE.lock().unwrap();
        let sink = Arc::new(RecordingSink::new());
        install_global(sink.clone());
        std::thread::scope(|s| {
            for i in 0..4u64 {
                s.spawn(move || emit(&rec(i)));
            }
        });
        clear_global();
        assert_eq!(sink.len(), 4);
        emit(&rec(99));
        assert_eq!(sink.len(), 4);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let buf: Vec<u8> = Vec::new();
        let sink = JsonlSink::new(std::io::Cursor::new(buf));
        sink.record_batch(&rec(1));
        sink.record_batch(&rec(2));
        let writer = sink.writer.into_inner().unwrap();
        let bytes = writer.into_inner().unwrap().into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"batch\":1"));
        assert!(lines[1].contains("\"batch\":2"));
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = Arc::new(RecordingSink::new());
        let b = Arc::new(RecordingSink::new());
        let nonces = Arc::new(crate::nonce::NonceAuditSink::new());
        let fan = FanoutSink(vec![a.clone(), b.clone(), nonces.clone()]);
        fan.record_batch(&rec(7));
        let mut audit = FleetNonceAudit::new();
        audit.observe(0, 0, 0);
        fan.record_nonces("s", &audit);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(nonces.take().frames(), 1);
    }

    #[test]
    fn emit_wire_routes_the_callers_record_to_the_thread_sink() {
        let record = WireRecord {
            label: "epi/Linear/Std/r0.50".into(),
            encoder: "Std".into(),
            seq: 7,
            event: 2,
            wire_bytes: 86,
            epoch: 3,
            virtual_time: 1_234_567,
        };
        let sink = Arc::new(RecordingSink::new());
        {
            let _guard = install_thread(sink.clone());
            emit_wire(&record);
        }
        assert_eq!(sink.wire_records(), vec![record]);
    }

    #[test]
    fn jsonl_sink_writes_wire_lines() {
        let sink = JsonlSink::new(std::io::Cursor::new(Vec::new()));
        sink.record_batch(&rec(1));
        sink.record_wire(&WireRecord {
            label: "s".into(),
            encoder: "AGE".into(),
            seq: 0,
            event: 1,
            wire_bytes: 118,
            epoch: 0,
            virtual_time: 0,
        });
        let writer = sink.writer.into_inner().unwrap();
        let text = String::from_utf8(writer.into_inner().unwrap().into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"encoder\":"), "{text}");
        assert!(lines[1].starts_with("{\"kind\":\"wire\","), "{text}");
        assert!(lines[1].contains("\"wire_bytes\":118"), "{text}");
    }

    #[test]
    fn timings_toggle_is_thread_local() {
        assert!(timings_enabled());
        set_timings_enabled(false);
        assert!(!timings_enabled());
        std::thread::scope(|s| {
            s.spawn(|| assert!(timings_enabled()));
        });
        set_timings_enabled(true);
    }
}
