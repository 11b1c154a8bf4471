//! Pluggable destinations for [`BatchRecord`]s.
//!
//! Instrumented code calls [`emit`]; where the record goes is decided by
//! the [`Sink`] the caller installed on its own thread with
//! [`install_thread`], restored when the guard drops. There is no
//! process-wide sink: the two places that fan work out hand the caller's
//! sink on explicitly. `age-sim`'s sweep pool installs [`current_sink`] on
//! each worker, and a [`Tracer`](crate::span::Tracer) keeps the sink that
//! was current when it was built, so spans from gateway drain workers
//! reach it. Cargo runs tests on concurrent threads, and the thread scope
//! keeps their records from bleeding into each other.
//!
//! With no sink installed, [`emit`] drops the record; call sites can check
//! [`active`] first and skip building records entirely, so the uninstalled
//! cost is one thread-local read.

use std::cell::RefCell;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

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

    /// Whether [`record_span`](Self::record_span) keeps spans. A
    /// [`Tracer`](crate::span::Tracer) records only if the sink it
    /// captured says yes, so installing a span sink is what arms
    /// tracing. Default: false.
    fn wants_spans(&self) -> bool {
        false
    }

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
    /// Wraps an arbitrary writer. Records are written as emitted, stage
    /// timings included; to compare files from identical runs, zero or
    /// strip the `timings_ns` objects.
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

    fn wants_spans(&self) -> bool {
        self.0.iter().any(|sink| sink.wants_spans())
    }

    fn flush(&self) {
        for sink in &self.0 {
            sink.flush();
        }
    }
}

thread_local! {
    static THREAD_SINK: RefCell<Vec<Arc<dyn Sink>>> = const { RefCell::new(Vec::new()) };
}

/// Installs a sink for the current thread, shadowing any outer
/// thread-local sink until the returned guard drops.
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

/// The sink installed on this thread, if any: what a fan-out hands on to
/// the threads it starts.
pub fn current_sink() -> Option<Arc<dyn Sink>> {
    THREAD_SINK.with(|stack| stack.borrow().last().cloned())
}

/// Whether any sink would receive an emitted record. Instrumented code
/// checks this before assembling a [`BatchRecord`] so the uninstalled path
/// does no allocation or timing work.
#[inline]
pub fn active() -> bool {
    THREAD_SINK.with(|stack| !stack.borrow().is_empty())
}

/// Hands `deliver` the innermost thread-local sink; does nothing if none
/// is installed.
fn route(deliver: impl FnOnce(&dyn Sink)) {
    if let Some(sink) = current_sink() {
        deliver(&*sink);
    }
}

/// Sends a record to the innermost thread-local sink; drops it if none is
/// installed. The producer fills in every field: the encoders stamp the
/// stream context their caller set on the scratch they encode through.
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

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(!active());
        emit(&rec(0)); // must not panic
    }

    #[test]
    fn thread_sink_records_and_uninstalls_on_drop() {
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
    fn current_sink_is_the_innermost_and_stays_on_its_thread() {
        assert!(current_sink().is_none());
        let sink: Arc<dyn Sink> = Arc::new(RecordingSink::new());
        {
            let _guard = install_thread(sink.clone());
            let current = current_sink().expect("installed");
            assert!(Arc::ptr_eq(&current, &sink));
            std::thread::scope(|s| {
                s.spawn(|| assert!(current_sink().is_none() && !active()));
            });
        }
        assert!(current_sink().is_none());
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
}
