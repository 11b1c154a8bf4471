//! Helpers shared by the integration tests.

use std::sync::Arc;

use age_telemetry::{BatchRecord, FleetNonceAudit, Sink, SpanEvent, StageTimings, WireRecord};

/// Forwards everything to the wrapped sink, with each batch record's
/// wall-clock stage timings zeroed: they are the one field that differs
/// between identical runs, so records compared across runs go through
/// this.
pub struct ZeroTimings(pub Arc<dyn Sink>);

impl Sink for ZeroTimings {
    fn record_batch(&self, record: &BatchRecord) {
        let mut record = record.clone();
        record.timings = StageTimings::default();
        self.0.record_batch(&record);
    }

    fn record_wire(&self, record: &WireRecord) {
        self.0.record_wire(record);
    }

    fn record_span(&self, span: &SpanEvent) {
        self.0.record_span(span);
    }

    fn wants_spans(&self) -> bool {
        self.0.wants_spans()
    }

    fn record_nonces(&self, label: &str, audit: &FleetNonceAudit) {
        self.0.record_nonces(label, audit);
    }

    fn flush(&self) {
        self.0.flush();
    }
}
