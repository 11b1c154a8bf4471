//! The one instrumentation seam between the encoders and `age-telemetry`.
//!
//! Every encoder in this crate opens a [`Probe`] when it starts, marks its
//! stage boundaries with [`Probe::lap`], and closes it with
//! [`Probe::finish`], which, when a sink is installed, builds the
//! per-batch record: the encoder supplies the message layout, the probe
//! adds the sizes and stage timings, and the caller's
//! [`StreamContext`](crate::StreamContext) supplies the stream label,
//! event, virtual time and batch number.
//!
//! The `telemetry` cargo feature switches this module and nothing else.
//! Without it [`Probe`] is a zero-sized no-op, so MCU builds carry no
//! observability code at all. This matters for the defense itself:
//! instrumentation that conditions work on batch content could reintroduce
//! a timing side channel on deployed sensors.

/// An encoder pipeline stage whose wall-clock time a [`Probe`] records.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stage {
    /// Measurement pruning (§4.2).
    Prune,
    /// Initial exponent-run grouping (§4.3).
    Group,
    /// Group merging and splitting (§4.3).
    Merge,
    /// Width assignment (§4.4).
    Quantize,
    /// Quantizing, bit-packing and padding the message.
    Pack,
}

#[cfg(feature = "telemetry")]
mod probe {
    use age_telemetry::{BatchRecord, StageTimings, Stopwatch};

    use super::Stage;
    use crate::scratch::StreamContext;

    /// Instrumentation for one encode call.
    pub(crate) struct Probe {
        input_len: usize,
        /// Running only when a sink is installed: with none, no record is
        /// built and no stage is timed.
        stopwatch: Option<Stopwatch>,
        timings: StageTimings,
    }

    impl Probe {
        /// Opens the probe for a batch of `input_len` measurements.
        #[inline]
        pub(crate) fn start(input_len: usize) -> Self {
            Probe {
                input_len,
                stopwatch: age_telemetry::active().then(Stopwatch::start),
                timings: StageTimings::default(),
            }
        }

        /// Records the time since the previous lap as `stage`'s.
        #[inline]
        pub(crate) fn lap(&mut self, stage: Stage) {
            if let Some(sw) = self.stopwatch.as_mut() {
                let t = &mut self.timings;
                let slot = match stage {
                    Stage::Prune => &mut t.prune_ns,
                    Stage::Group => &mut t.group_ns,
                    Stage::Merge => &mut t.merge_ns,
                    Stage::Quantize => &mut t.quantize_ns,
                    Stage::Pack => &mut t.pack_ns,
                };
                *slot = sw.lap();
            }
        }

        /// Emits the batch record when a sink is installed. `layout`
        /// fills in the encoder name and the message layout; the probe
        /// derives the tail padding and stamps the stream context,
        /// advancing its batch number.
        #[inline]
        pub(crate) fn finish(
            self,
            context: &mut StreamContext,
            kept_len: usize,
            message_len: usize,
            layout: impl FnOnce() -> BatchRecord,
        ) {
            if self.stopwatch.is_some() {
                self.emit(context, kept_len, message_len, layout);
            }
        }

        /// Builds and emits the record: out of line, so an encode with no
        /// sink installed carries none of this code.
        #[cold]
        #[inline(never)]
        fn emit(
            self,
            context: &mut StreamContext,
            kept_len: usize,
            message_len: usize,
            layout: impl FnOnce() -> BatchRecord,
        ) {
            let mut record = layout();
            record.label.clone_from(&context.label);
            record.batch = context.batch;
            record.event = context.event;
            record.virtual_time = context.virtual_time;
            record.input_len = self.input_len;
            record.kept_len = kept_len;
            record.message_len = message_len;
            record.padding_bits = (message_len * 8)
                .saturating_sub(record.header_bits + record.directory_bits + record.data_bits);
            record.timings = self.timings;
            context.batch += 1;
            age_telemetry::emit(&record);
        }
    }
}

#[cfg(not(feature = "telemetry"))]
mod probe {
    use age_telemetry::BatchRecord;

    use super::Stage;
    use crate::scratch::StreamContext;

    /// Zero-sized stand-in: every method compiles to nothing.
    pub(crate) struct Probe;

    impl Probe {
        #[inline(always)]
        pub(crate) fn start(_input_len: usize) -> Self {
            Probe
        }

        #[inline(always)]
        pub(crate) fn lap(&mut self, _stage: Stage) {}

        #[inline(always)]
        pub(crate) fn finish(
            self,
            _context: &mut StreamContext,
            _kept_len: usize,
            _message_len: usize,
            _layout: impl FnOnce() -> BatchRecord,
        ) {
        }
    }
}

pub(crate) use probe::Probe;
