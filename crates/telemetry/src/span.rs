//! Stage timing and hierarchical spans for instrumented pipelines.
//!
//! Two span primitives live here, measuring two different clocks:
//!
//! - [`Stopwatch`] measures **wall-clock** stage durations: start it once
//!   per batch, call [`lap`](Stopwatch::lap) at each stage boundary, and
//!   store the returned nanoseconds into a
//!   [`StageTimings`](crate::record::StageTimings). It honors the
//!   per-thread [`crate::sink::timings_enabled`] switch by reporting 0 for
//!   every lap when timing is off, which keeps determinism tests
//!   byte-stable without branching at every call site.
//! - [`Tracer`] records **virtual-clock** spans: the caller (the
//!   simulator's runner) owns a deterministic clock and passes explicit
//!   timestamps to [`begin`](Tracer::begin)/[`end`](Tracer::end); closed
//!   spans are routed to the installed [`Sink`](crate::sink::Sink) as
//!   [`SpanEvent`]s for Chrome-trace export. Because the timestamps are
//!   virtual, traces are byte-identical across runs and thread counts —
//!   the opposite trade-off from `Stopwatch`, which is real but noisy.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use crate::sink::timings_enabled;

/// Measures successive stage durations within one batch.
#[derive(Debug)]
pub struct Stopwatch {
    last: Option<Instant>,
}

impl Stopwatch {
    /// Starts timing now, or returns an inert stopwatch if wall-clock
    /// timings are disabled on this thread.
    pub fn start() -> Self {
        Stopwatch {
            last: timings_enabled().then(Instant::now),
        }
    }

    /// Nanoseconds since the previous lap (or since start), saturating at
    /// `u64::MAX`; resets the lap point. Always 0 when inert.
    pub fn lap(&mut self) -> u64 {
        match self.last {
            None => 0,
            Some(prev) => {
                let now = Instant::now();
                self.last = Some(now);
                saturate_ns(now.duration_since(prev).as_nanos())
            }
        }
    }
}

/// Clamps a 128-bit nanosecond count into the `u64` a
/// [`StageTimings`](crate::record::StageTimings) field can hold. Split out
/// of [`Stopwatch::lap`] so the saturation path is testable (a real lap
/// cannot span 585 years).
fn saturate_ns(ns: u128) -> u64 {
    u64::try_from(ns).unwrap_or(u64::MAX)
}

/// Process-wide switch for virtual-time span collection. Off by default:
/// audits install sinks without wanting traces, and span emission allocates
/// (span names are owned). `repro --trace` turns it on for the run.
static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);

/// Enables or disables span collection process-wide. Takes effect for
/// tracers constructed afterwards.
pub fn set_trace_enabled(enabled: bool) {
    TRACE_ENABLED.store(enabled, Ordering::Release);
}

/// Whether span collection is enabled (see [`set_trace_enabled`]).
pub fn trace_enabled() -> bool {
    TRACE_ENABLED.load(Ordering::Acquire)
}

/// One closed virtual-time span, as delivered to
/// [`Sink::record_span`](crate::sink::Sink::record_span).
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

/// Records a nested stack of virtual-time spans for one stream and emits
/// each span to the installed sink when it closes.
///
/// Construction snapshots [`trace_enabled`] and
/// [`sink::active`](crate::sink::active); a disabled tracer's methods are
/// early-return no-ops, so per-sequence instrumentation costs two branches
/// when tracing is off.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    track: u64,
    stack: Vec<(String, &'static str, u64)>,
}

impl Tracer {
    /// Creates a tracer for the stream named `label` and announces the
    /// track to the sink (a `cat == "meta"` span), if tracing is enabled.
    pub fn new(label: &str) -> Self {
        let enabled = trace_enabled() && crate::sink::active();
        let tracer = Tracer {
            enabled,
            track: fnv1a(label),
            stack: Vec::new(),
        };
        if enabled {
            crate::sink::emit_span(&SpanEvent {
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
        self.enabled
    }

    /// Opens a span at virtual time `now_us`. Spans nest: each `begin`
    /// must be matched by an [`end`](Self::end), innermost first.
    pub fn begin(&mut self, name: &str, cat: &'static str, now_us: u64) {
        if !self.enabled {
            return;
        }
        self.stack.push((name.to_string(), cat, now_us));
    }

    /// Closes the innermost open span at virtual time `now_us` and emits
    /// it. Unbalanced calls (no open span) are ignored rather than
    /// panicking — telemetry must never take down the workload.
    pub fn end(&mut self, now_us: u64) {
        if !self.enabled {
            return;
        }
        let Some((name, cat, start_us)) = self.stack.pop() else {
            return;
        };
        crate::sink::emit_span(&SpanEvent {
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
    use crate::sink::set_timings_enabled;

    /// Serializes tests that read or flip the process-global trace switch.
    pub(super) static TRACE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

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
    fn disabled_timings_make_stopwatch_inert() {
        set_timings_enabled(false);
        let mut sw = Stopwatch::start();
        std::thread::yield_now();
        assert_eq!(sw.lap(), 0);
        assert_eq!(sw.lap(), 0);
        set_timings_enabled(true);
    }

    #[test]
    fn stopwatch_stays_inert_if_timings_enable_mid_flight() {
        // The enabled/inert decision is taken at `start()`: flipping the
        // switch afterwards must not wake an inert stopwatch (the batch it
        // measures would report a nonsense partial interval).
        set_timings_enabled(false);
        let mut sw = Stopwatch::start();
        set_timings_enabled(true);
        assert_eq!(sw.lap(), 0);
    }

    #[test]
    fn lap_nanoseconds_saturate_at_u64_max() {
        assert_eq!(saturate_ns(0), 0);
        assert_eq!(saturate_ns(1_500), 1_500);
        assert_eq!(saturate_ns(u128::from(u64::MAX)), u64::MAX);
        assert_eq!(saturate_ns(u128::from(u64::MAX) + 1), u64::MAX);
        assert_eq!(saturate_ns(u128::MAX), u64::MAX);
    }

    #[test]
    fn trace_switch_defaults_off_and_toggles() {
        let _lock = TRACE_LOCK.lock().unwrap();
        assert!(!trace_enabled());
        set_trace_enabled(true);
        assert!(trace_enabled());
        set_trace_enabled(false);
        assert!(!trace_enabled());
    }

    mod tracer {
        use super::super::*;
        use crate::sink::install_thread;
        use crate::trace::TraceSink;
        use std::sync::Arc;

        #[test]
        fn disabled_tracer_records_nothing() {
            let _lock = super::TRACE_LOCK.lock().unwrap();
            let sink = Arc::new(TraceSink::new());
            let _guard = install_thread(sink.clone());
            // trace_enabled() is false by default, so this tracer is inert
            // even though a sink is installed.
            let mut tracer = Tracer::new("cell");
            assert!(!tracer.is_enabled());
            tracer.begin("sequence", "sim", 0);
            tracer.end(10);
            assert!(sink.take().is_empty());
        }

        #[test]
        fn spans_nest_and_emit_on_close() {
            let _lock = super::TRACE_LOCK.lock().unwrap();
            let sink = Arc::new(TraceSink::new());
            let _guard = install_thread(sink.clone());
            set_trace_enabled(true);
            let mut tracer = Tracer::new("epi/Linear/Std/r0.50");
            tracer.begin("sequence", "sim", 100);
            tracer.begin("encode", "encode", 100);
            tracer.end(190); // encode
            tracer.begin("attempt", "link", 200);
            tracer.end(260); // attempt
            tracer.end(300); // sequence
            tracer.end(999); // unbalanced: ignored
            set_trace_enabled(false);
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
