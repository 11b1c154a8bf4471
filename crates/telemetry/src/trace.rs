//! Chrome `trace_event` export for virtual-time spans.
//!
//! [`TraceSink`] buffers every [`SpanEvent`] the tracers emit and renders
//! them as a Chrome/Perfetto-compatible JSON array (`chrome://tracing` →
//! "Load"), with zero dependencies: "X" complete events carry `ts`/`dur`
//! in microseconds (our virtual clock's native unit), and each track's
//! `cat == "meta"` announcement becomes an "M" `thread_name` metadata
//! event so timelines are labeled with the sweep-cell name instead of a
//! hash.
//!
//! Export is deterministic by construction: events are sorted by a total
//! key before rendering, and both timestamps and track identities are
//! derived from deterministic inputs (the virtual clock and the label
//! hash), so a sweep produces a byte-identical trace at any thread count.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::record::{BatchRecord, JsonStr};
use crate::sink::Sink;
use crate::span::SpanEvent;

/// Buffers spans in memory for trace export; install alongside the audit
/// sinks and call [`to_chrome_json`](TraceSink::to_chrome_json) at the end
/// of the run.
#[derive(Debug, Default)]
pub struct TraceSink {
    spans: Mutex<Vec<SpanEvent>>,
}

impl TraceSink {
    /// An empty trace buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of spans buffered so far (meta announcements included).
    pub fn len(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    /// Whether no spans have been buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns all buffered spans in arrival order.
    pub fn take(&self) -> Vec<SpanEvent> {
        std::mem::take(&mut *self.spans.lock().unwrap())
    }

    /// Renders the buffered spans as a Chrome `trace_event` JSON array
    /// (trailing newline, no other whitespace games). Does not drain the
    /// buffer.
    ///
    /// Tracks are numbered 1..N by sorted label so `tid`s are small and
    /// stable; spans sort by `(tid, start, depth, name, dur)` — a total
    /// order over everything the simulator can emit — making the output
    /// independent of sweep scheduling.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.lock().unwrap().clone();
        render_chrome_json(&spans)
    }
}

impl Sink for TraceSink {
    fn record_batch(&self, _record: &BatchRecord) {}

    fn record_span(&self, span: &SpanEvent) {
        self.spans.lock().unwrap().push(span.clone());
    }
}

/// Renders spans (from any collection of tracers) as Chrome trace JSON.
pub fn render_chrome_json(spans: &[SpanEvent]) -> String {
    // Track label table from meta announcements; unannounced tracks (no
    // meta event reached the sink) fall back to the hash, hex-printed.
    let mut labels: BTreeMap<u64, String> = BTreeMap::new();
    for s in spans {
        if s.cat == "meta" {
            labels.entry(s.track).or_insert_with(|| s.name.clone());
        }
    }
    let mut tracks: BTreeMap<u64, String> = BTreeMap::new();
    for s in spans {
        tracks.entry(s.track).or_insert_with(|| {
            labels
                .get(&s.track)
                .cloned()
                .unwrap_or_else(|| format!("track-{:016x}", s.track))
        });
    }
    // Dense, label-sorted thread ids: stable across runs, small in the UI.
    let mut ordered: Vec<(&String, u64)> = tracks.iter().map(|(t, l)| (l, *t)).collect();
    ordered.sort();
    let tid_of: BTreeMap<u64, usize> = ordered
        .iter()
        .enumerate()
        .map(|(i, (_, track))| (*track, i + 1))
        .collect();

    let mut timed: Vec<&SpanEvent> = spans.iter().filter(|s| s.cat != "meta").collect();
    timed.sort_by_key(|s| {
        (
            tid_of[&s.track],
            s.start_us,
            s.depth,
            s.name.clone(),
            s.dur_us,
        )
    });

    let mut out = String::with_capacity(64 * (ordered.len() + timed.len()) + 16);
    out.push_str("[\n");
    let mut first = true;
    for (label, track) in &ordered {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
            tid_of[track],
            JsonStr(label)
        ));
    }
    for s in &timed {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"name\":{},\"cat\":{}}}",
            tid_of[&s.track],
            s.start_us,
            s.dur_us,
            JsonStr(&s.name),
            JsonStr(s.cat)
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &str,
        cat: &'static str,
        track: u64,
        start: u64,
        dur: u64,
        depth: u32,
    ) -> SpanEvent {
        SpanEvent {
            name: name.into(),
            cat,
            track,
            start_us: start,
            dur_us: dur,
            depth,
        }
    }

    fn sample() -> Vec<SpanEvent> {
        vec![
            span("cell/B", "meta", 0xb, 0, 0, 0),
            span("cell/A", "meta", 0xa, 0, 0, 0),
            span("sequence", "sim", 0xb, 0, 300, 0),
            span("encode", "encode", 0xb, 0, 90, 1),
            span("sequence", "sim", 0xa, 0, 250, 0),
        ]
    }

    #[test]
    fn export_orders_tracks_by_label_and_spans_by_time() {
        let json = render_chrome_json(&sample());
        assert!(json.starts_with("[\n") && json.ends_with("\n]\n"), "{json}");
        // cell/A sorts before cell/B by label, so it gets tid 1 despite
        // arriving second.
        let a_meta = json.find("\"name\":\"cell/A\"").unwrap();
        let b_meta = json.find("\"name\":\"cell/B\"").unwrap();
        assert!(a_meta < b_meta);
        assert!(json.contains("\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"cell/A\"}"));
        // Outer span sorts before its nested child at the same start time.
        let seq = json
            .find("\"tid\":2,\"ts\":0,\"dur\":300,\"name\":\"sequence\"")
            .unwrap();
        let enc = json
            .find("\"tid\":2,\"ts\":0,\"dur\":90,\"name\":\"encode\"")
            .unwrap();
        assert!(seq < enc, "{json}");
    }

    #[test]
    fn export_is_independent_of_arrival_order() {
        let forward = render_chrome_json(&sample());
        let mut reversed = sample();
        reversed.reverse();
        assert_eq!(forward, render_chrome_json(&reversed));
    }

    #[test]
    fn unannounced_tracks_fall_back_to_hash_names() {
        let spans = vec![span("sequence", "sim", 0x1234, 10, 20, 0)];
        let json = render_chrome_json(&spans);
        assert!(json.contains("track-0000000000001234"), "{json}");
    }

    #[test]
    fn labels_are_escaped() {
        let spans = vec![
            span("cell \"q\"", "meta", 1, 0, 0, 0),
            span("s", "sim", 1, 0, 1, 0),
        ];
        let json = render_chrome_json(&spans);
        assert!(json.contains("cell \\\"q\\\""), "{json}");
    }

    #[test]
    fn sink_buffers_and_drains() {
        let sink = TraceSink::new();
        assert!(sink.is_empty());
        sink.record_span(&span("s", "sim", 1, 0, 5, 0));
        sink.record_batch(&BatchRecord::default()); // ignored
        assert_eq!(sink.len(), 1);
        let json = sink.to_chrome_json();
        assert!(json.contains("\"ts\":0,\"dur\":5"));
        assert_eq!(sink.take().len(), 1);
        assert!(sink.is_empty());
    }
}
