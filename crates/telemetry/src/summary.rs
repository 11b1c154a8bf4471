//! Rollups of batch records into a human-readable run summary.
//!
//! The headline column is message-size standard deviation: AGE's defense
//! claim is that every message a node emits has the same length, so for the
//! AGE and Padded encoders the stddev must be exactly 0 while the Standard
//! baseline's is positive. [`Summary`] makes that invariant machine-checkable
//! ([`StreamStats::size_stddev`]) and prints it as a table for humans.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

use crate::record::BatchRecord;
use crate::sink::Sink;

/// Online statistics for one `(label, encoder, target)` stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamStats {
    /// Batches observed.
    pub batches: u64,
    /// Smallest message in bytes.
    pub min_len: usize,
    /// Largest message in bytes.
    pub max_len: usize,
    /// Measurements in minus measurements kept, accumulated.
    pub pruned_total: u64,
    /// Total encode time across batches, nanoseconds.
    pub encode_ns_total: u64,
    // Welford accumulators for message length.
    mean: f64,
    m2: f64,
    // Per-batch total encode times, kept so the rollup can report real
    // percentiles instead of just a mean (tail latency is what matters on
    // a duty-cycled MCU).
    encode_ns_samples: Vec<u64>,
}

impl StreamStats {
    fn new() -> Self {
        StreamStats {
            batches: 0,
            min_len: usize::MAX,
            max_len: 0,
            pruned_total: 0,
            encode_ns_total: 0,
            mean: 0.0,
            m2: 0.0,
            encode_ns_samples: Vec::new(),
        }
    }

    fn observe(&mut self, record: &BatchRecord) {
        self.batches += 1;
        self.min_len = self.min_len.min(record.message_len);
        self.max_len = self.max_len.max(record.message_len);
        self.pruned_total += record.input_len.saturating_sub(record.kept_len) as u64;
        self.encode_ns_total += record.timings.total_ns();
        self.encode_ns_samples.push(record.timings.total_ns());
        let x = record.message_len as f64;
        let delta = x - self.mean;
        self.mean += delta / self.batches as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Mean message length in bytes.
    pub fn size_mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation of message length in bytes.
    ///
    /// Exactly `0.0` when every observed message had the same length — the
    /// property the AGE and Padded defenses must exhibit.
    pub fn size_stddev(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            (self.m2 / self.batches as f64).sqrt()
        }
    }

    /// Whether every observed message had the identical length.
    pub fn is_constant_size(&self) -> bool {
        self.batches > 0 && self.min_len == self.max_len
    }

    /// Nearest-rank percentile of per-batch encode time, in microseconds.
    /// `q` is a fraction in `(0, 1]`; an empty stream reports 0.
    pub fn encode_us_percentile(&self, q: f64) -> f64 {
        if self.encode_ns_samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.encode_ns_samples.clone();
        sorted.sort_unstable();
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1] as f64 / 1000.0
    }

    /// Median per-batch encode time in microseconds.
    pub fn encode_us_p50(&self) -> f64 {
        self.encode_us_percentile(0.50)
    }

    /// 95th-percentile per-batch encode time in microseconds.
    pub fn encode_us_p95(&self) -> f64 {
        self.encode_us_percentile(0.95)
    }

    /// 99th-percentile per-batch encode time in microseconds.
    pub fn encode_us_p99(&self) -> f64 {
        self.encode_us_percentile(0.99)
    }
}

/// A run-level rollup keyed by `(label, encoder, target bytes)`. The
/// target is part of the key because labels omit the cipher: two cells
/// that differ only in cipher seal to different fixed targets, and pooling
/// them would show size variance no single deployment emits.
#[derive(Debug, Default)]
pub struct Summary {
    streams: BTreeMap<(String, &'static str, Option<usize>), StreamStats>,
    leakage: crate::leakage::LeakageAudit,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a summary from already-collected records.
    pub fn from_records<'a, I: IntoIterator<Item = &'a BatchRecord>>(records: I) -> Self {
        let mut summary = Self::new();
        for record in records {
            summary.observe(record);
        }
        summary
    }

    /// Folds one record into the rollup.
    pub fn observe(&mut self, record: &BatchRecord) {
        self.streams
            .entry((record.label.clone(), record.encoder, record.target_bytes))
            .or_insert_with(StreamStats::new)
            .observe(record);
    }

    /// Stats for one `(label, encoder)` stream, if observed; the one with
    /// the smallest target if several targets share the label.
    pub fn stream(&self, label: &str, encoder: &str) -> Option<&StreamStats> {
        self.streams
            .iter()
            .find(|((l, e, _), _)| l == label && *e == encoder)
            .map(|(_, stats)| stats)
    }

    /// Stats for an encoder regardless of label, merged in observation
    /// order. Returns `None` if the encoder never appeared.
    pub fn encoder_streams(&self, encoder: &str) -> Vec<&StreamStats> {
        self.streams
            .iter()
            .filter(|((_, e, _), _)| *e == encoder)
            .map(|(_, stats)| stats)
            .collect()
    }

    /// All `(label, encoder, target bytes)` keys in deterministic (sorted)
    /// order.
    pub fn keys(&self) -> Vec<(String, String, Option<usize>)> {
        self.streams
            .keys()
            .map(|(l, e, t)| (l.clone(), e.to_string(), *t))
            .collect()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty() && self.leakage.is_empty()
    }

    /// Folds one sealed-frame observation into the leakage rollup.
    pub fn observe_wire(&mut self, record: &crate::record::WireRecord) {
        self.leakage.observe_wire(record);
    }

    /// The leakage audit accumulated alongside the size/timing rollup.
    pub fn leakage(&self) -> &crate::leakage::LeakageAudit {
        &self.leakage
    }
}

impl fmt::Display for Summary {
    /// Renders the rollup as a fixed-width table:
    ///
    /// ```text
    /// label                encoder    batches   min    max   mean  stddev  pruned  p50 µs  p95 µs  p99 µs
    /// -------------------- --------- -------- ----- ------ ------ ------- ------- ------- ------- -------
    /// mimic                age            200    52     52   52.0   0.000    1042    10.8    14.2    19.5
    /// ```
    ///
    /// A label shared by several targets names each row's target
    /// (`label @802B`). A leakage section follows when wire frames were
    /// observed: per-stream frame counts, distinct sizes, and NMI.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<20} {:<9} {:>8} {:>5} {:>6} {:>6} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "label",
            "encoder",
            "batches",
            "min",
            "max",
            "mean",
            "stddev",
            "pruned",
            "p50 µs",
            "p95 µs",
            "p99 µs"
        )?;
        writeln!(
            f,
            "{:-<20} {:-<9} {:-<8} {:-<5} {:-<6} {:-<6} {:-<7} {:-<7} {:-<7} {:-<7} {:-<7}",
            "", "", "", "", "", "", "", "", "", "", ""
        )?;
        for ((label, encoder, target), stats) in &self.streams {
            let shared = self
                .streams
                .keys()
                .filter(|(l, e, _)| l == label && e == encoder)
                .count()
                > 1;
            let name = match target {
                Some(bytes) if shared => format!("{label} @{bytes}B"),
                _ => label.clone(),
            };
            writeln!(
                f,
                "{:<20} {:<9} {:>8} {:>5} {:>6} {:>6.1} {:>7.3} {:>7} {:>7.1} {:>7.1} {:>7.1}",
                name,
                encoder,
                stats.batches,
                stats.min_len,
                stats.max_len,
                stats.size_mean(),
                stats.size_stddev(),
                stats.pruned_total,
                stats.encode_us_p50(),
                stats.encode_us_p95(),
                stats.encode_us_p99(),
            )?;
        }
        if !self.leakage.is_empty() {
            writeln!(f, "\nleakage audit (sealed wire frames per stream):")?;
            writeln!(
                f,
                "{:<28} {:<9} {:>7} {:>6} {:>7}",
                "label", "encoder", "frames", "sizes", "NMI"
            )?;
            writeln!(f, "{:-<28} {:-<9} {:-<7} {:-<6} {:-<7}", "", "", "", "", "")?;
            for ((label, encoder), stream) in self.leakage.streams() {
                writeln!(
                    f,
                    "{:<28} {:<9} {:>7} {:>6} {:>7.4}",
                    label,
                    encoder,
                    stream.total(),
                    stream.distinct_sizes(),
                    stream.nmi(),
                )?;
            }
        }
        Ok(())
    }
}

/// A [`Sink`] that folds records straight into a [`Summary`], for use in a
/// [`FanoutSink`](crate::sink::FanoutSink) alongside a `JsonlSink`.
#[derive(Debug, Default)]
pub struct SummarySink {
    summary: Mutex<Summary>,
}

impl SummarySink {
    /// An empty summary sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the accumulated summary, leaving an empty one behind.
    pub fn take(&self) -> Summary {
        std::mem::take(&mut *self.summary.lock().unwrap())
    }
}

impl Sink for SummarySink {
    fn record_batch(&self, record: &BatchRecord) {
        self.summary.lock().unwrap().observe(record);
    }

    fn record_wire(&self, record: &crate::record::WireRecord) {
        self.summary.lock().unwrap().observe_wire(record);
    }
}

/// The transport section of the summary rollup: a snapshot of the global
/// transport counters in [`metrics::global`](crate::metrics::global).
///
/// This is deliberately *not* part of [`Summary`]'s `Display`: the global
/// counters accumulate for the whole process, so folding them into the
/// per-stream summary would break the byte-identical-reports contract when
/// several runs share a process. Callers (the `repro` binary) capture and
/// print it once, after all experiments finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportRollup {
    /// Frames put on the wire, retransmissions included.
    pub frames_sent: u64,
    /// Retransmission attempts.
    pub frames_retried: u64,
    /// Frames the simulated channel dropped in flight.
    pub frames_dropped: u64,
    /// Frames rejected for failed authentication or malformed framing.
    pub frames_auth_failed: u64,
    /// Frames rejected by the replay window.
    pub frames_replay_rejected: u64,
    /// Frames rejected by the far-future sequence guard.
    pub frames_far_future: u64,
    /// Delivered payloads whose batch decode failed.
    pub frames_decode_failed: u64,
    /// Sensor power losses recovered from.
    pub sensor_reboots: u64,
    /// Sequence-reservation journal records persisted to NVM.
    pub journal_flushes: u64,
    /// Sequence numbers retired unused by reboot recovery.
    pub sequences_skipped: u64,
    /// Explicit-sequence seals that risked reusing a (key, nonce) pair.
    pub nonce_reuse_risked: u64,
    /// Epoch rotations committed by sensors.
    pub key_rotations: u64,
}

impl TransportRollup {
    /// Snapshots the current global transport counters.
    pub fn capture() -> Self {
        use crate::metrics::global as g;
        TransportRollup {
            frames_sent: g::FRAMES_SENT.get(),
            frames_retried: g::FRAMES_RETRIED.get(),
            frames_dropped: g::FRAMES_DROPPED.get(),
            frames_auth_failed: g::FRAMES_AUTH_FAILED.get(),
            frames_replay_rejected: g::FRAMES_REPLAY_REJECTED.get(),
            frames_far_future: g::FRAMES_FAR_FUTURE.get(),
            frames_decode_failed: g::FRAMES_DECODE_FAILED.get(),
            sensor_reboots: g::SENSOR_REBOOTS.get(),
            journal_flushes: g::JOURNAL_FLUSHES.get(),
            sequences_skipped: g::SEQUENCES_SKIPPED.get(),
            nonce_reuse_risked: g::NONCE_REUSE_RISKED.get(),
            key_rotations: g::KEY_ROTATIONS.get(),
        }
    }

    /// Whether nothing transport-related happened (section can be elided).
    pub fn is_empty(&self) -> bool {
        *self == TransportRollup::default()
    }
}

impl fmt::Display for TransportRollup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  frames: {} sent / {} retried / {} dropped",
            self.frames_sent, self.frames_retried, self.frames_dropped
        )?;
        writeln!(
            f,
            "  rejected: {} auth / {} replay / {} far-future / {} decode",
            self.frames_auth_failed,
            self.frames_replay_rejected,
            self.frames_far_future,
            self.frames_decode_failed
        )?;
        writeln!(
            f,
            "  resets: {} reboots / {} journal flushes / {} sequences skipped / {} reuse risked",
            self.sensor_reboots,
            self.journal_flushes,
            self.sequences_skipped,
            self.nonce_reuse_risked
        )?;
        // Elided when no rotation happened, keeping legacy rollups stable.
        if self.key_rotations > 0 {
            writeln!(f, "  rekey: {} epoch rotations", self.key_rotations)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(encoder: &'static str, label: &str, len: usize) -> BatchRecord {
        BatchRecord {
            encoder,
            label: label.to_string(),
            input_len: 64,
            kept_len: 60,
            message_len: len,
            ..Default::default()
        }
    }

    #[test]
    fn constant_size_stream_has_zero_stddev() {
        let records: Vec<_> = (0..50).map(|_| rec("age", "mimic", 52)).collect();
        let summary = Summary::from_records(&records);
        let stats = summary.stream("mimic", "age").unwrap();
        assert_eq!(stats.batches, 50);
        assert_eq!(stats.min_len, 52);
        assert_eq!(stats.max_len, 52);
        assert_eq!(stats.size_stddev(), 0.0);
        assert!(stats.is_constant_size());
        assert_eq!(stats.pruned_total, 50 * 4);
    }

    #[test]
    fn variable_size_stream_has_positive_stddev() {
        let records = vec![
            rec("standard", "mimic", 40),
            rec("standard", "mimic", 60),
            rec("standard", "mimic", 50),
        ];
        let summary = Summary::from_records(&records);
        let stats = summary.stream("mimic", "standard").unwrap();
        assert!(stats.size_stddev() > 0.0);
        assert!(!stats.is_constant_size());
        assert_eq!(stats.min_len, 40);
        assert_eq!(stats.max_len, 60);
        // Population stddev of {40, 50, 60} is sqrt(200/3).
        assert!((stats.size_stddev() - (200.0f64 / 3.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn streams_are_keyed_by_label_and_encoder() {
        let records = vec![
            rec("age", "a", 52),
            rec("age", "b", 64),
            rec("standard", "a", 33),
        ];
        let summary = Summary::from_records(&records);
        assert_eq!(summary.keys().len(), 3);
        assert_eq!(summary.stream("a", "age").unwrap().max_len, 52);
        assert_eq!(summary.stream("b", "age").unwrap().max_len, 64);
        assert_eq!(summary.encoder_streams("age").len(), 2);
    }

    #[test]
    fn targets_sharing_a_label_get_one_row_each() {
        let mut records = Vec::new();
        for len in [786, 802, 786, 802] {
            let mut record = rec("AGE", "Epilepsy/Linear/AGE/r0.70", len);
            record.target_bytes = Some(len);
            records.push(record);
        }
        let summary = Summary::from_records(&records);
        let rows = summary.encoder_streams("AGE");
        assert_eq!(rows.len(), 2);
        for row in rows {
            assert_eq!(row.batches, 2);
            assert_eq!(row.size_stddev(), 0.0);
        }
        let table = summary.to_string();
        assert!(
            table.contains("Epilepsy/Linear/AGE/r0.70 @786B AGE "),
            "{table}"
        );
        assert!(
            table.contains("Epilepsy/Linear/AGE/r0.70 @802B AGE "),
            "{table}"
        );
    }

    #[test]
    fn display_renders_every_stream_row() {
        let records = vec![rec("age", "mimic", 52), rec("standard", "mimic", 33)];
        let table = Summary::from_records(&records).to_string();
        assert!(table.contains("stddev"));
        assert!(table.contains("age"));
        assert!(table.contains("standard"));
        assert!(table.lines().count() >= 4, "{table}");
    }

    #[test]
    fn encode_time_percentiles_use_nearest_rank() {
        let mut records: Vec<BatchRecord> = (1..=100u64)
            .map(|i| {
                let mut r = rec("age", "p", 52);
                r.timings.pack_ns = i * 1000; // 1µs..100µs
                r
            })
            .collect();
        // Observation order must not matter.
        records.reverse();
        let summary = Summary::from_records(&records);
        let stats = summary.stream("p", "age").unwrap();
        assert_eq!(stats.encode_us_p50(), 50.0);
        assert_eq!(stats.encode_us_p95(), 95.0);
        assert_eq!(stats.encode_us_p99(), 99.0);
        assert_eq!(stats.encode_us_percentile(1.0), 100.0);
        assert_eq!(StreamStats::new().encode_us_p99(), 0.0);
    }

    #[test]
    fn display_shows_percentile_columns() {
        let mut record = rec("age", "mimic", 52);
        record.timings.prune_ns = 7000;
        let table = Summary::from_records(&[record]).to_string();
        assert!(table.contains("p50 µs"), "{table}");
        assert!(table.contains("p95 µs"), "{table}");
        assert!(table.contains("p99 µs"), "{table}");
        assert!(!table.contains("enc µs"), "{table}");
    }

    #[test]
    fn summary_rolls_up_wire_records_and_displays_leakage() {
        use crate::record::WireRecord;
        let sink = SummarySink::new();
        for i in 0..60u64 {
            sink.record_wire(&WireRecord {
                label: "epi/Linear/Std/r0.50".into(),
                encoder: "Std".into(),
                seq: i,
                event: (i % 2) as usize,
                wire_bytes: 60 + (i % 2) as usize * 20,
                epoch: 0,
                virtual_time: 0,
            });
        }
        let summary = sink.take();
        assert!(!summary.is_empty());
        let stream = summary
            .leakage()
            .stream("epi/Linear/Std/r0.50", "Std")
            .unwrap();
        assert_eq!(stream.total(), 60);
        assert!(stream.nmi() > 0.9);
        let table = summary.to_string();
        assert!(table.contains("leakage audit"), "{table}");
        assert!(table.contains("Std"), "{table}");
    }

    #[test]
    fn summary_sink_accumulates_and_takes() {
        let sink = SummarySink::new();
        sink.record_batch(&rec("age", "x", 52));
        sink.record_batch(&rec("age", "x", 52));
        let summary = sink.take();
        assert_eq!(summary.stream("x", "age").unwrap().batches, 2);
        assert!(sink.take().is_empty());
    }
}
