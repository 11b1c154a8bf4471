//! The flight recorder: a fixed-capacity ring of recent ingest events.
//!
//! When a leakage gate fails or a nonce audit goes dirty, the rollups
//! say *that* something went wrong but not *which frames* did it. Each
//! gateway shard keeps a [`FlightRecorder`] — the last N ingest events
//! as plain-old-data [`FlightRecord`]s — so a postmortem dump can show
//! the traffic immediately preceding the trigger.
//!
//! The recorder is built for the ingest hot path: the ring is allocated
//! once at construction and recording is an indexed store plus a
//! counter bump — zero steady-state allocations, pinned by the gateway's
//! counting-allocator test. Records order totally (virtual send stamp
//! first), so the merged dump across shards is a deterministic sort:
//! with enough capacity that no shard evicted, the merged record list is
//! byte-identical at any shard count.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

/// The ingest pipeline stage a frame ended at — `Accepted`, or the
/// rejection rung that dropped it. Mirrors the gateway's per-rung
/// counters one-to-one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IngestRung {
    /// Authenticated, replay-checked, and decoded.
    Accepted,
    /// Shorter than the addressing header.
    HeaderTruncated,
    /// Over the configured datagram ceiling.
    HeaderOversized,
    /// Addressed to a sensor with no session.
    UnknownSensor,
    /// AEAD tag failed.
    AuthFailed,
    /// Rejected by the session's replay window.
    ReplayRejected,
    /// Sequence jumped past the far-future guard.
    FarFuture,
    /// Too short to carry a sequence number.
    MissingSequence,
    /// Authenticated but the payload failed to decode (includes a
    /// session pointing at a cohort the gateway does not have).
    DecodeFailed,
    /// The session's receiver followed a key-epoch rotation while
    /// accepting this frame. Not a pipeline stage: a rotation record is
    /// emitted *in addition to* the frame's `Accepted` record, and its
    /// `sequence` field carries the new epoch rather than a sequence
    /// number.
    EpochRotated,
}

impl IngestRung {
    /// Stable snake_case name, matching the fleet report's counter keys.
    pub fn as_str(&self) -> &'static str {
        match self {
            IngestRung::Accepted => "accepted",
            IngestRung::HeaderTruncated => "header_truncated",
            IngestRung::HeaderOversized => "header_oversized",
            IngestRung::UnknownSensor => "unknown_sensor",
            IngestRung::AuthFailed => "auth_failed",
            IngestRung::ReplayRejected => "replay_rejected",
            IngestRung::FarFuture => "far_future",
            IngestRung::MissingSequence => "missing_sequence",
            IngestRung::DecodeFailed => "decode_failed",
            IngestRung::EpochRotated => "epoch_rotated",
        }
    }
}

/// One ingest event, compact enough to keep thousands per shard.
/// Field order doubles as the sort order (send stamp first), so a
/// merged multi-shard dump sorts into arrival order deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlightRecord {
    /// Virtual send stamp of the frame, microseconds.
    pub sent_at_us: u64,
    /// Sensor id from the addressing header (0 if headerless garbage).
    pub sensor_id: u64,
    /// Sequence number of an accepted frame; `u64::MAX` when the frame
    /// was rejected before one was recovered.
    pub sequence: u64,
    /// Ground-truth event label carried by the fleet frame.
    pub event: u32,
    /// Attacker-visible datagram length.
    pub wire_bytes: u32,
    /// Where in the pipeline the frame ended.
    pub rung: IngestRung,
}

/// Fixed-capacity ring buffer of the most recent [`FlightRecord`]s.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    ring: Vec<FlightRecord>,
    capacity: usize,
    /// Slot the next record overwrites once the ring is full.
    next: usize,
    /// Records ever offered (retained + evicted).
    total: u64,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records (0 disables it).
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            ring: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            total: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing has been recorded (or capacity is 0).
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records ever offered, evicted ones included.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.total - self.ring.len() as u64
    }

    /// Stores one record, evicting the oldest once full. Allocation-free
    /// after the ring first fills (and before that, `Vec::push` within
    /// the reserved capacity never reallocates).
    pub fn record(&mut self, record: FlightRecord) {
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(record);
        } else if let Some(slot) = self.ring.get_mut(self.next) {
            *slot = record;
        }
        self.next += 1;
        if self.next == self.capacity {
            self.next = 0;
        }
        self.total += 1;
    }

    /// Retained records in arrival order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &FlightRecord> {
        let split = if self.ring.len() < self.capacity {
            0
        } else {
            self.next
        };
        let (newest, oldest) = self
            .ring
            .split_at_checked(split)
            .unwrap_or((&[], self.ring.as_slice()));
        oldest.iter().chain(newest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(t: u64) -> FlightRecord {
        FlightRecord {
            sent_at_us: t,
            sensor_id: t % 5,
            sequence: t,
            event: (t % 3) as u32,
            wire_bytes: 168,
            rung: IngestRung::Accepted,
        }
    }

    #[test]
    fn fills_then_evicts_oldest_first() {
        let mut r = FlightRecorder::with_capacity(4);
        for t in 0..6u64 {
            r.record(record(t));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total(), 6);
        assert_eq!(r.dropped(), 2);
        let stamps: Vec<u64> = r.iter().map(|x| x.sent_at_us).collect();
        assert_eq!(stamps, vec![2, 3, 4, 5]);
    }

    #[test]
    fn partial_ring_iterates_in_arrival_order() {
        let mut r = FlightRecorder::with_capacity(8);
        for t in [7u64, 3, 9] {
            r.record(record(t));
        }
        let stamps: Vec<u64> = r.iter().map(|x| x.sent_at_us).collect();
        assert_eq!(stamps, vec![7, 3, 9]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn zero_capacity_recorder_is_inert() {
        let mut r = FlightRecorder::with_capacity(0);
        r.record(record(1));
        assert!(r.is_empty());
        assert_eq!(r.total(), 0);
        assert_eq!(r.iter().count(), 0);
    }

    #[test]
    fn records_sort_chronologically() {
        let mut records = [record(9), record(1), record(5)];
        records.sort_unstable();
        let stamps: Vec<u64> = records.iter().map(|x| x.sent_at_us).collect();
        assert_eq!(stamps, vec![1, 5, 9]);
    }

    #[test]
    fn rung_names_match_report_keys() {
        assert_eq!(IngestRung::Accepted.as_str(), "accepted");
        assert_eq!(IngestRung::ReplayRejected.as_str(), "replay_rejected");
        assert_eq!(IngestRung::DecodeFailed.as_str(), "decode_failed");
    }

    // The zero-allocation claim is machine-checked in `age-gateway`'s
    // `tests/alloc.rs`, whose test binary owns a counting allocator; a
    // delta assertion here would be vacuous (no allocator installed).

    #[test]
    fn wrap_around_keeps_exactly_the_newest_records() {
        let mut r = FlightRecorder::with_capacity(3);
        for t in 0..10u64 {
            r.record(record(t));
        }
        let stamps: Vec<u64> = r.iter().map(|x| x.sent_at_us).collect();
        assert_eq!(stamps, vec![7, 8, 9]);
        assert_eq!(r.dropped(), 7);
    }
}
