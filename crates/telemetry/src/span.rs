//! Stage timing and hierarchical spans for instrumented pipelines.
//!
//! Two span primitives live here, measuring two different clocks:
//!
//! - [`Stopwatch`] measures **wall-clock** stage durations: start it once
//!   per batch, call [`lap`](Stopwatch::lap) at each stage boundary, and
//!   store the returned nanoseconds into a
//!   [`StageTimings`](crate::record::StageTimings). It always measures;
//!   code that compares records from two runs zeroes the timings on its
//!   own side.
//! - [`Tracer`] records **virtual-clock** spans: the caller (the
//!   simulator's runner, a gateway shard) owns a deterministic clock and
//!   passes explicit timestamps to [`begin`](Tracer::begin)/
//!   [`end`](Tracer::end). A tracer keeps the [`Sink`] that was current on
//!   the thread that built it, and records only if that sink
//!   [wants spans](Sink::wants_spans): installing a
//!   [`TraceSink`](crate::trace::TraceSink) is what arms tracing. Because
//!   the timestamps are virtual, traces are byte-identical across runs and
//!   thread counts — the opposite trade-off from `Stopwatch`, which is real
//!   but noisy.

use std::sync::Arc;
use std::time::Instant;

use crate::sink::{current_sink, Sink};

/// Measures successive stage durations within one batch.
#[derive(Debug)]
pub struct Stopwatch {
    last: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            last: Instant::now(),
        }
    }

    /// Nanoseconds since the previous lap (or since start), saturating at
    /// `u64::MAX`; resets the lap point.
    pub fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let prev = std::mem::replace(&mut self.last, now);
        saturate_ns(now.duration_since(prev).as_nanos())
    }
}

/// Clamps a 128-bit nanosecond count into the `u64` a
/// [`StageTimings`](crate::record::StageTimings) field can hold. Split out
/// of [`Stopwatch::lap`] so the saturation path is testable (a real lap
/// cannot span 585 years).
fn saturate_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// One closed virtual-time span, as delivered to
/// [`Sink::record_span`].
///
/// `track` identifies the stream (sweep cell) the span belongs to — an
/// FNV-1a hash of the tracer's label, stable across runs and thread counts,
/// so spans from concurrently-running cells never interleave on one
/// timeline. A span with `cat == "meta"` is the track's name announcement
/// (emitted once per tracer) rather than a timed region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (`"sequence"`, `"encode"`, `"attempt"`, …); for meta
    /// events, the human-readable track label.
    pub name: String,
    /// Category, used for Chrome-trace coloring (`"sim"`, `"encode"`,
    /// `"crypto"`, `"link"`, or `"meta"`).
    pub cat: &'static str,
    /// Stream identity: FNV-1a of the tracer label.
    pub track: u64,
    /// Virtual start time in simulated microseconds.
    pub start_us: u64,
    /// Virtual duration in simulated microseconds.
    pub dur_us: u64,
    /// Nesting depth at which the span was opened (0 = top level).
    pub depth: u32,
}

/// Records a nested stack of virtual-time spans for one stream and hands
/// each span to the sink it captured when it closes.
///
/// Construction snapshots [`current_sink`]; with no sink, or one that does
/// not [want spans](Sink::wants_spans), the tracer's methods are
/// early-return no-ops, so per-sequence instrumentation costs two branches
/// when tracing is off. A span sink installed after construction is not
/// seen.
pub struct Tracer {
    sink: Option<Arc<dyn Sink>>,
    track: u64,
    stack: Vec<(String, &'static str, u64)>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("track", &self.track)
            .field("stack", &self.stack)
            .finish()
    }
}

impl Tracer {
    /// Creates a tracer for the stream named `label` on the current
    /// thread's sink and announces the track to it (a `cat == "meta"`
    /// span), if that sink wants spans.
    pub fn new(label: &str) -> Self {
        let tracer = Tracer {
            sink: current_sink().filter(|sink| sink.wants_spans()),
            track: fnv1a(label),
            stack: Vec::new(),
        };
        if let Some(sink) = &tracer.sink {
            sink.record_span(&SpanEvent {
                name: label.to_string(),
                cat: "meta",
                track: tracer.track,
                start_us: 0,
                dur_us: 0,
                depth: 0,
            });
        }
        tracer
    }

    /// Whether this tracer is actually recording.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a span at virtual time `now_us`. Spans nest: each `begin`
    /// must be matched by an [`end`](Self::end), innermost first.
    pub fn begin(&mut self, name: &str, cat: &'static str, now_us: u64) {
        if self.sink.is_none() {
            return;
        }
        self.stack.push((name.to_string(), cat, now_us));
    }

    /// Closes the innermost open span at virtual time `now_us` and emits
    /// it. Unbalanced calls (no open span) are ignored rather than
    /// panicking — telemetry must never take down the workload.
    pub fn end(&mut self, now_us: u64) {
        let Some(sink) = &self.sink else {
            return;
        };
        let Some((name, cat, start_us)) = self.stack.pop() else {
            return;
        };
        sink.record_span(&SpanEvent {
            name,
            cat,
            track: self.track,
            start_us,
            dur_us: now_us.saturating_sub(start_us),
            depth: self.stack.len() as u32,
        });
    }
}

/// FNV-1a over the label bytes: the track identity for [`SpanEvent`]s.
/// Stable across runs and platforms (pure arithmetic, no RandomState).
fn fnv1a(label: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in label.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{install_thread, FanoutSink, NullSink, RecordingSink};
    use crate::trace::TraceSink;

    #[test]
    fn laps_measure_successive_intervals() {
        let mut sw = Stopwatch::start();
        let mut acc = 0u64;
        for _ in 0..1000 {
            acc = acc.wrapping_add(1);
        }
        std::hint::black_box(acc);
        let first = sw.lap();
        let second = sw.lap();
        // Both laps are real measurements; the second covers almost no work.
        assert!(first > 0 || second > 0 || cfg!(miri));
    }

    #[test]
    fn lap_nanoseconds_saturate_at_u64_max() {
        assert_eq!(saturate_ns(0), 0);
        assert_eq!(saturate_ns(1_500), 1_500);
        assert_eq!(saturate_ns(u128::from(u64::MAX)), u64::MAX);
        assert_eq!(saturate_ns(u128::from(u64::MAX) + 1), u64::MAX);
        assert_eq!(saturate_ns(u128::MAX), u64::MAX);
    }

    /// The trace switch is the captured sink: off with no sink or one
    /// that drops spans, on for a `TraceSink` alone or inside a
    /// fan-out, and off again once the guard drops.
    #[test]
    fn trace_switch_defaults_off_and_toggles() {
        assert!(!Tracer::new("cell").is_enabled());
        for sink in [
            Arc::new(NullSink) as Arc<dyn Sink>,
            Arc::new(RecordingSink::new()),
        ] {
            let _guard = install_thread(sink);
            assert!(!Tracer::new("cell").is_enabled());
        }
        {
            let _guard = install_thread(Arc::new(TraceSink::new()));
            assert!(Tracer::new("cell").is_enabled());
        }
        {
            let fan = FanoutSink(vec![
                Arc::new(RecordingSink::new()),
                Arc::new(TraceSink::new()),
            ]);
            let _guard = install_thread(Arc::new(fan));
            assert!(Tracer::new("cell").is_enabled());
        }
        assert!(!Tracer::new("cell").is_enabled());
    }

    mod tracer {
        use super::*;

        #[test]
        fn disabled_tracer_records_nothing() {
            let sink = Arc::new(TraceSink::new());
            // Built before the span sink is installed, this tracer stays
            // inert: the sink is captured at construction.
            let mut tracer = Tracer::new("cell");
            let _guard = install_thread(sink.clone());
            assert!(!tracer.is_enabled());
            tracer.begin("sequence", "sim", 0);
            tracer.end(10);
            assert!(sink.take().is_empty());
        }

        #[test]
        fn spans_nest_and_emit_on_close() {
            let sink = Arc::new(TraceSink::new());
            let mut tracer = {
                let _guard = install_thread(sink.clone());
                Tracer::new("epi/Linear/Std/r0.50")
            };
            // The guard is gone; the tracer still holds the sink.
            tracer.begin("sequence", "sim", 100);
            tracer.begin("encode", "encode", 100);
            tracer.end(190); // encode
            tracer.begin("attempt", "link", 200);
            tracer.end(260); // attempt
            tracer.end(300); // sequence
            tracer.end(999); // unbalanced: ignored
            let spans = sink.take();
            // Meta announcement plus the three closed spans, in close order.
            assert_eq!(spans.len(), 4);
            assert_eq!(
                (spans[0].cat, spans[0].name.as_str()),
                ("meta", "epi/Linear/Std/r0.50")
            );
            assert_eq!(
                (
                    spans[1].name.as_str(),
                    spans[1].start_us,
                    spans[1].dur_us,
                    spans[1].depth
                ),
                ("encode", 100, 90, 1)
            );
            assert_eq!(
                (
                    spans[2].name.as_str(),
                    spans[2].start_us,
                    spans[2].dur_us,
                    spans[2].depth
                ),
                ("attempt", 200, 60, 1)
            );
            assert_eq!(
                (
                    spans[3].name.as_str(),
                    spans[3].start_us,
                    spans[3].dur_us,
                    spans[3].depth
                ),
                ("sequence", 100, 200, 0)
            );
            // All spans share the track derived from the label.
            assert!(spans.iter().all(|s| s.track == spans[0].track));
        }

        #[test]
        fn track_identity_is_a_stable_label_hash() {
            assert_eq!(fnv1a("a"), fnv1a("a"));
            assert_ne!(fnv1a("epi/Std"), fnv1a("epi/AGE"));
            // Pinned so track ids in archived traces stay comparable.
            assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        }
    }
}
