//! Spans recorded around the benchmark's own calls into each layer.
//!
//! The program under test carries no spans of its own for this ledger:
//! the benchmark wraps every public call it makes in a span (layer, frame
//! id, start, end, parent) and derives per-layer self times from them. A
//! layer's self time is its span's duration minus the time its child
//! spans cover, less the measured cost of the recorder's own clock reads
//! (see [`Recorder::new`]). Spans of one frame sit in a small reusable
//! buffer until the frame ends; they are then folded into per-layer
//! totals, and the spans of the first [`EXPORT_FRAMES`] frames are kept
//! for the Chrome trace. Untraced rounds use [`Untraced`], whose methods
//! compile to nothing.

use std::fmt::Write as _;
use std::time::Instant;

use age_telemetry::alloc;

/// Frames per phase whose spans are kept for the Chrome trace export.
pub const EXPORT_FRAMES: u32 = 2_000;

/// Empty spans timed to calibrate a [`Recorder`]'s overhead.
pub const CALIBRATION_SPANS: usize = 20_000;

/// Every layer boundary the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One sensor frame, sample to queued datagram (root).
    SensorFrame,
    Sample,
    /// `encode_into` on an AGE-cohort batch.
    EncodeAge,
    /// `encode_into` on a baseline-cohort batch.
    EncodeStd,
    Kdf,
    Seal,
    /// Addressing header, virtual send stamp and queueing of the frame.
    Framing,
    /// One datagram at the gateway (root).
    GatewayFrame,
    Ingest,
    Route,
    Open,
    Decode,
}

impl Layer {
    pub const COUNT: usize = 12;

    pub fn name(self) -> &'static str {
        match self {
            Layer::SensorFrame => "sensor.frame",
            Layer::Sample => "sampling.sample",
            Layer::EncodeAge => "core.encode.age",
            Layer::EncodeStd => "core.encode.std",
            Layer::Kdf => "crypto.kdf",
            Layer::Seal => "crypto.seal",
            Layer::Framing => "sensor.framing",
            Layer::GatewayFrame => "gateway.frame",
            Layer::Ingest => "gateway.ingest",
            Layer::Route => "gateway.route",
            Layer::Open => "crypto.open",
            Layer::Decode => "core.decode",
        }
    }

    /// Chrome trace thread: sensor-side spans on one track, gateway-side
    /// spans on another.
    fn track(self) -> u32 {
        match self {
            Layer::GatewayFrame | Layer::Ingest | Layer::Route | Layer::Open | Layer::Decode => 2,
            _ => 1,
        }
    }
}

/// Where a phase loop reports its layer boundaries.
pub trait Spans {
    /// Starts a span for `layer` on behalf of `frame`, nested in the
    /// innermost open span.
    fn open(&mut self, layer: Layer, frame: u32);
    /// Ends the innermost open span.
    fn close(&mut self);
    /// Folds the finished frame's spans into the per-layer totals.
    fn finish_frame(&mut self);
}

/// The untraced rounds: no clock reads, no bookkeeping.
pub struct Untraced;

impl Spans for Untraced {
    #[inline(always)]
    fn open(&mut self, _layer: Layer, _frame: u32) {}
    #[inline(always)]
    fn close(&mut self) {}
    #[inline(always)]
    fn finish_frame(&mut self) {}
}

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    frame: u32,
    /// Index of the parent span within the same frame, if any.
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
    /// Heap allocations on this thread between start and end.
    allocs: u64,
}

/// Self time and self allocations accumulated for one layer. Self time
/// is signed: after subtracting the recorder's overhead, a layer that
/// does almost nothing can come out a few nanoseconds below zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub spans: u64,
    pub self_ns: i64,
    pub self_allocs: u64,
}

/// One phase's recorder in a traced round.
pub struct Recorder {
    base: Instant,
    frame: Vec<Span>,
    stack: Vec<u32>,
    /// Per span of the current frame: time and allocations its direct
    /// children cover, and how many there are.
    children: Vec<(u64, u64, i64)>,
    /// What an empty span measures of itself.
    empty_ns: i64,
    /// What an empty child span adds to its parent beyond `empty_ns`.
    nested_ns: i64,
    totals: [LayerTotal; Layer::COUNT],
    /// Kept spans; `parent` holds an index into this array.
    export: Vec<Span>,
}

impl Recorder {
    /// A recorder whose self times exclude its own cost. It times
    /// [`CALIBRATION_SPANS`] empty spans nested in one parent: the median
    /// empty span is what every span measures of its own clock reads, and
    /// the parent's duration per child is what each child span adds to
    /// its parent. A span's self time is then its raw self time minus the
    /// first, minus the second less the first for each direct child.
    pub fn new(base: Instant) -> Recorder {
        let mut recorder = Recorder {
            base,
            frame: Vec::with_capacity(CALIBRATION_SPANS + 1),
            stack: Vec::with_capacity(8),
            children: Vec::with_capacity(32),
            empty_ns: 0,
            nested_ns: 0,
            totals: [LayerTotal::default(); Layer::COUNT],
            // Sensor frames carry up to 7 spans, gateway frames 5.
            export: Vec::with_capacity(EXPORT_FRAMES as usize * 12),
        };
        recorder.open(Layer::SensorFrame, u32::MAX);
        for _ in 0..CALIBRATION_SPANS {
            recorder.open(Layer::Sample, u32::MAX);
            recorder.close();
        }
        recorder.close();
        let parent = recorder.frame.first().map_or(0, |s| s.end_ns - s.start_ns);
        let mut empty: Vec<u64> = recorder.frame[1..]
            .iter()
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        empty.sort_unstable();
        recorder.empty_ns = empty.get(empty.len() / 2).map_or(0, |&ns| ns as i64);
        recorder.nested_ns = (parent / CALIBRATION_SPANS as u64) as i64 - recorder.empty_ns;
        recorder.frame.clear();
        recorder
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn total(&self, layer: Layer) -> LayerTotal {
        self.totals[layer as usize]
    }
}

/// The kept spans of `recorders` as one Chrome trace-event JSON document
/// (complete `X` events, µs timestamps from the round's start). Each
/// event names its frame, its own id and its parent's id; ids index the
/// `traceEvents` array.
pub fn chrome_json(workload: &str, recorders: &[&Recorder]) -> String {
    let spans = recorders.iter().map(|r| r.export.len()).sum::<usize>();
    let mut out = String::with_capacity(64 + spans * 160);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut id = 0usize;
    for recorder in recorders {
        let offset = id as i64;
        for span in &recorder.export {
            if id > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or(-1, |p| offset + i64::from(p));
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{workload}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"frame\":{},\"id\":{id},\"parent\":{parent}}}}}",
                span.layer.name(),
                span.layer.track(),
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.frame,
            );
            id += 1;
        }
    }
    out.push_str("\n]}\n");
    out
}

impl Spans for Recorder {
    fn open(&mut self, layer: Layer, frame: u32) {
        let parent = self.stack.last().copied();
        self.stack.push(self.frame.len() as u32);
        let allocs = alloc::snapshot().allocations;
        self.frame.push(Span {
            layer,
            frame,
            parent,
            start_ns: 0,
            end_ns: 0,
            allocs,
        });
        let start = self.now_ns();
        if let Some(span) = self.frame.last_mut() {
            span.start_ns = start;
        }
    }

    fn close(&mut self) {
        let end = self.now_ns();
        let allocs = alloc::snapshot().allocations;
        if let Some(span) = self
            .stack
            .pop()
            .and_then(|i| self.frame.get_mut(i as usize))
        {
            span.end_ns = end;
            span.allocs = allocs - span.allocs;
        }
    }

    fn finish_frame(&mut self) {
        debug_assert!(self.stack.is_empty(), "frame finished with open spans");
        // Self time: each span's duration minus its direct children's.
        self.children.clear();
        self.children.resize(self.frame.len(), (0, 0, 0));
        for span in &self.frame {
            if let Some(child) = span.parent.and_then(|p| self.children.get_mut(p as usize)) {
                child.0 += span.end_ns - span.start_ns;
                child.1 += span.allocs;
                child.2 += 1;
            }
        }
        for (span, &(child_ns, child_allocs, children)) in self.frame.iter().zip(&self.children) {
            let total = &mut self.totals[span.layer as usize];
            let raw = span.end_ns as i64 - span.start_ns as i64 - child_ns as i64;
            total.spans += 1;
            total.self_ns += raw - self.empty_ns - children * self.nested_ns;
            total.self_allocs += span.allocs.saturating_sub(child_allocs);
        }
        if self.frame.first().is_some_and(|s| s.frame < EXPORT_FRAMES) {
            // Rebase parents from frame-relative to export-array indices.
            let base = self.export.len() as u32;
            self.export.extend(self.frame.iter().map(|span| Span {
                parent: span.parent.map(|p| base + p),
                ..*span
            }));
        }
        self.frame.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut rec = Recorder::new(Instant::now());
        assert!(
            rec.empty_ns > 0 && rec.nested_ns >= 0,
            "calibration measured the clock"
        );
        rec.empty_ns = 2;
        rec.nested_ns = 3;
        rec.frame = vec![
            Span {
                layer: Layer::SensorFrame,
                frame: 0,
                parent: None,
                start_ns: 0,
                end_ns: 100,
                allocs: 3,
            },
            Span {
                layer: Layer::EncodeAge,
                frame: 0,
                parent: Some(0),
                start_ns: 10,
                end_ns: 50,
                allocs: 0,
            },
            Span {
                layer: Layer::Framing,
                frame: 0,
                parent: Some(0),
                start_ns: 60,
                end_ns: 90,
                allocs: 1,
            },
        ];
        rec.finish_frame();
        // 100 - 40 - 30 = 30 raw, less 2 for itself and 3 per child.
        assert_eq!(rec.total(Layer::SensorFrame).self_ns, 22);
        assert_eq!(rec.total(Layer::SensorFrame).self_allocs, 2);
        assert_eq!(rec.total(Layer::EncodeAge).self_ns, 38);
        assert_eq!(rec.total(Layer::Framing).self_ns, 28);
        assert_eq!(rec.total(Layer::Framing).self_allocs, 1);
        assert_eq!(rec.export.len(), 3, "frame 0 is exported");
        let json = chrome_json("unit", &[&rec]);
        assert!(json.contains("\"name\":\"core.encode.age\""));
        assert!(json.contains("\"parent\":0"));
    }

    #[test]
    fn nested_spans_record_their_parents() {
        let mut rec = Recorder::new(Instant::now());
        rec.open(Layer::GatewayFrame, EXPORT_FRAMES);
        rec.open(Layer::Ingest, EXPORT_FRAMES);
        rec.close();
        rec.open(Layer::Route, EXPORT_FRAMES);
        rec.close();
        rec.close();
        assert_eq!(rec.frame[1].parent, Some(0));
        assert_eq!(rec.frame[2].parent, Some(0));
        rec.finish_frame();
        assert_eq!(rec.total(Layer::Ingest).spans, 1);
        assert!(
            rec.export.is_empty(),
            "frames past the export limit are not kept"
        );
    }
}
