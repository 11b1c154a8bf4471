//! One shard of the session table plus its ingest hot path.
//!
//! A shard owns a disjoint slice of the fleet's sessions (selected by
//! [`shard_of`](crate::shard_of)) in a flat [`SessionTable`]: an
//! open-addressed id index over sessions stored by value in 64-session
//! blocks, each with its ChaCha20 receiver inline and its nonce ledger
//! one pointer away, so a lookup reads one index entry and then the
//! session, and the nonce check touches only that session. It also owns
//! all the scratch buffers the open→decode path needs, so steady-state
//! ingest touches no heap and takes no locks. The walks over every
//! session (receiver stats, active sensors) are sums, so they go in slot
//! order.
//!
//! Every rollup a shard accumulates — counters, cohort stats, nonce
//! frame and reuse counts, one size and one gap leakage histogram per
//! cohort — merges commutatively, and the sessions' nonce ledgers fold
//! into the fleet audit at report time. That is the whole determinism
//! story: any partition of the fleet into shards, processed by any
//! number of threads, folds to the same bytes.

use age_core::{Batch, EncodeScratch};
use age_telemetry::{
    FleetNonceAudit, FlightRecord, FlightRecorder, IngestRung, LeakageStream, Tracer,
    WindowedMonitor,
};
use age_transport::{ReceiveError, ReceiverStats};

use crate::frame::{
    sensor_id_of, FleetFrame, GatewayError, HeaderError, HEADER_LEN, MAX_DATAGRAM_LEN,
};
use crate::gateway::GatewayConfig;
use crate::session::Session;
use crate::table::SessionTable;

/// Schematic virtual durations for the gateway-side trace spans. The
/// gateway has no virtual CPU model of its own (frames are stamped by
/// the *sensor's* clock), so ingest spans anchor at the frame's send
/// stamp with nominal stage widths — enough to see per-shard ordering
/// and rejection mix on a Chrome-trace timeline, deterministic by
/// construction.
const DECODE_SPAN_US: u64 = 60;
const AUDIT_SPAN_US: u64 = 40;
const REJECT_SPAN_US: u64 = 20;

/// Maps a rejection to the flight-recorder rung that counted it.
fn rung_of(error: &GatewayError) -> IngestRung {
    match error {
        GatewayError::Header(HeaderError::Truncated { .. }) => IngestRung::HeaderTruncated,
        GatewayError::Header(HeaderError::Oversized { .. }) => IngestRung::HeaderOversized,
        GatewayError::UnknownSensor { .. } => IngestRung::UnknownSensor,
        GatewayError::UnknownCohort { .. } => IngestRung::DecodeFailed,
        GatewayError::Receive(ReceiveError::Cipher(_)) => IngestRung::AuthFailed,
        GatewayError::Receive(ReceiveError::Replay(_)) => IngestRung::ReplayRejected,
        GatewayError::Receive(ReceiveError::FarFuture { .. }) => IngestRung::FarFuture,
        GatewayError::Receive(ReceiveError::MissingSequence) => IngestRung::MissingSequence,
        GatewayError::Decode(_) => IngestRung::DecodeFailed,
    }
}

/// Datagram-level counters for one shard (or, after merging, the
/// fleet). Every arrival lands in exactly one of `accepted` or a
/// rejection counter, so `frames` always equals their sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Datagrams that arrived at the shard.
    pub frames: u64,
    /// Attacker-visible bytes across all arrivals, accepted or not.
    pub wire_bytes: u64,
    /// Frames that authenticated, passed replay checks, and decoded.
    pub accepted: u64,
    /// Plaintext payload bytes recovered from accepted frames.
    pub payload_bytes: u64,
    /// Measurements recovered from accepted frames.
    pub decoded_values: u64,
    /// Datagrams shorter than the addressing header.
    pub header_truncated: u64,
    /// Datagrams over the configured size ceiling.
    pub header_oversized: u64,
    /// Datagrams addressed to sensors with no session.
    pub unknown_sensor: u64,
    /// Frames whose AEAD tag failed (includes cross-sensor replays).
    pub auth_failed: u64,
    /// Frames rejected by a session's replay window.
    pub replay_rejected: u64,
    /// Frames whose sequence jumped past the far-future guard.
    pub far_future: u64,
    /// Frames too short to carry a sequence number.
    pub missing_sequence: u64,
    /// Frames that authenticated but whose payload failed to decode.
    pub decode_failed: u64,
    /// Key-epoch rotations receivers followed while accepting frames
    /// (each may cross several epochs at once after a sensor brownout).
    /// Informational, not a rejection rung: rotated frames are also
    /// counted in `accepted`.
    pub rotations: u64,
}

impl ShardStats {
    /// Total rejected datagrams.
    pub fn rejected(&self) -> u64 {
        self.header_truncated
            + self.header_oversized
            + self.unknown_sensor
            + self.auth_failed
            + self.replay_rejected
            + self.far_future
            + self.missing_sequence
            + self.decode_failed
    }

    /// Folds another shard's counters into this one (commutative).
    pub fn merge(&mut self, other: &ShardStats) {
        self.frames += other.frames;
        self.wire_bytes += other.wire_bytes;
        self.accepted += other.accepted;
        self.payload_bytes += other.payload_bytes;
        self.decoded_values += other.decoded_values;
        self.header_truncated += other.header_truncated;
        self.header_oversized += other.header_oversized;
        self.unknown_sensor += other.unknown_sensor;
        self.auth_failed += other.auth_failed;
        self.replay_rejected += other.replay_rejected;
        self.far_future += other.far_future;
        self.missing_sequence += other.missing_sequence;
        self.decode_failed += other.decode_failed;
        self.rotations += other.rotations;
    }
}

/// Per-cohort accepted-traffic rollup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CohortStats {
    /// Sensors provisioned into the cohort.
    pub sensors: u64,
    /// Frames accepted from the cohort's sensors.
    pub frames: u64,
    /// Wire bytes of those frames (header included).
    pub wire_bytes: u64,
    /// Smallest accepted wire frame (`usize::MAX` until one arrives).
    pub min_wire_bytes: usize,
    /// Largest accepted wire frame.
    pub max_wire_bytes: usize,
    /// Measurements decoded from the cohort's frames.
    pub decoded_values: u64,
}

impl Default for CohortStats {
    fn default() -> Self {
        CohortStats {
            sensors: 0,
            frames: 0,
            wire_bytes: 0,
            min_wire_bytes: usize::MAX,
            max_wire_bytes: 0,
            decoded_values: 0,
        }
    }
}

impl CohortStats {
    fn note(&mut self, wire_len: usize, decoded: usize) {
        self.frames += 1;
        self.wire_bytes += wire_len as u64;
        self.min_wire_bytes = self.min_wire_bytes.min(wire_len);
        self.max_wire_bytes = self.max_wire_bytes.max(wire_len);
        self.decoded_values += decoded as u64;
    }

    /// Folds another shard's view of the same cohort into this one.
    pub fn merge(&mut self, other: &CohortStats) {
        self.sensors += other.sensors;
        self.frames += other.frames;
        self.wire_bytes += other.wire_bytes;
        self.min_wire_bytes = self.min_wire_bytes.min(other.min_wire_bytes);
        self.max_wire_bytes = self.max_wire_bytes.max(other.max_wire_bytes);
        self.decoded_values += other.decoded_values;
    }

    /// `true` when every accepted frame had the same wire length — the
    /// fleet-level constant-size invariant for a defended cohort.
    pub fn wire_constant(&self) -> bool {
        self.frames == 0 || self.min_wire_bytes == self.max_wire_bytes
    }
}

/// One shard: a disjoint slice of the session table plus scratch.
pub(crate) struct Shard {
    sessions: SessionTable,
    pub(crate) stats: ShardStats,
    pub(crate) cohorts: Vec<CohortStats>,
    /// `(sizes, gaps)`: the `(event, wire bytes)` and `(event, gap µs)`
    /// histograms of each cohort's accepted frames, indexed like
    /// `cohorts`. They outlive the sessions that fed them.
    pub(crate) leakage: Vec<(LeakageStream, LeakageStream)>,
    /// The accepted frames and nonce reuses the sessions' ledgers
    /// reported. Its seen-sets stay empty: those are the ledgers.
    pub(crate) nonces: FleetNonceAudit,
    /// Windowed leakage monitor (present when the config enables it).
    pub(crate) monitor: Option<WindowedMonitor>,
    /// Ring of recent ingest events for postmortem dumps.
    pub(crate) recorder: FlightRecorder,
    /// Virtual-time span tracer: records only if a span sink (e.g.
    /// `repro --trace`'s) was installed when the gateway was built.
    tracer: Tracer,
    /// The epoch a rotation during the current ingest landed on, handed
    /// from the hot path to the flight recorder (`None` steady-state).
    rotated_to: Option<u64>,
    payload: Vec<u8>,
    decoded: Batch,
    scratch: EncodeScratch,
}

impl Shard {
    pub(crate) fn new(config: &GatewayConfig, index: usize) -> Shard {
        Shard {
            sessions: SessionTable::default(),
            stats: ShardStats::default(),
            cohorts: vec![CohortStats::default(); config.cohorts.len()],
            leakage: vec![Default::default(); config.cohorts.len()],
            nonces: FleetNonceAudit::default(),
            monitor: config
                .monitor
                .map(|m| WindowedMonitor::new(m.window_us, config.cohorts.len())),
            recorder: FlightRecorder::with_capacity(config.recorder_capacity),
            tracer: Tracer::new(&format!("gateway/shard-{index:02}")),
            rotated_to: None,
            payload: Vec::new(),
            decoded: Batch::empty(),
            scratch: EncodeScratch::new(),
        }
    }

    /// Every session in the shard, once each, in slot order.
    pub(crate) fn sessions(&self) -> impl Iterator<Item = &Session> {
        self.sessions.iter()
    }

    /// Every `(sensor id, session)` pair in the shard, once each.
    pub(crate) fn sessions_by_id(&self) -> impl Iterator<Item = (u64, &Session)> {
        self.sessions.entries()
    }

    pub(crate) fn occupancy(&self) -> usize {
        self.sessions.len()
    }

    pub(crate) fn insert_session(&mut self, sensor_id: u64, session: Session) {
        let cohort = session.cohort;
        // Re-provisioning replaces the session; keep cohort headcounts
        // exact either way. The frames it already delivered stay in its
        // cohort's leakage histograms: an eavesdropper saw them, and its
        // nonce ledger moves to the new session (`Session::reprovision`).
        if let Some(old) = self.sessions.insert(sensor_id, session) {
            if let Some(stats) = self.cohorts.get_mut(old.cohort) {
                stats.sensors = stats.sensors.saturating_sub(1);
            }
        }
        if let Some(stats) = self.cohorts.get_mut(cohort) {
            stats.sensors += 1;
        }
    }

    /// Summed per-receiver stats across the shard's sessions — the
    /// cross-check that session-level and shard-level accounting agree.
    pub(crate) fn receiver_stats(&self) -> ReceiverStats {
        let mut total = ReceiverStats::default();
        for session in self.sessions() {
            total.merge(session.receiver.stats());
        }
        total
    }

    /// Ingests one datagram: header checks, session lookup,
    /// authenticate/replay-check, decode, rollups. Returns the accepted
    /// frame's sequence number. Steady-state (all event classes seen
    /// once) this allocates nothing: the payload buffer, decode batch,
    /// and scratch are shard-owned, and every histogram bin already
    /// exists.
    pub(crate) fn ingest(
        &mut self,
        frame: &FleetFrame,
        config: &GatewayConfig,
    ) -> Result<u64, GatewayError> {
        let result = self.ingest_inner(frame, config);
        self.observe_ingest(frame, &result);
        result
    }

    /// Post-ingest observability: window traffic counters, the flight
    /// recorder, and (when tracing) the ingest span tree. Allocation-free
    /// in steady state — the recorder overwrites in place and the
    /// monitor's current-window bins already exist.
    fn observe_ingest(&mut self, frame: &FleetFrame, result: &Result<u64, GatewayError>) {
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.observe_frame(frame.sent_at_us, result.is_ok());
        }
        if self.recorder.capacity() > 0 {
            self.recorder.record(FlightRecord {
                sent_at_us: frame.sent_at_us,
                sensor_id: sensor_id_of(&frame.wire).unwrap_or(0),
                sequence: match result {
                    Ok(sequence) => *sequence,
                    Err(_) => u64::MAX,
                },
                event: u32::try_from(frame.event).unwrap_or(u32::MAX),
                wire_bytes: u32::try_from(frame.wire.len()).unwrap_or(u32::MAX),
                rung: match result {
                    Ok(_) => IngestRung::Accepted,
                    Err(error) => rung_of(error),
                },
            });
            // A followed rotation leaves a second record at the same
            // stamp, carrying the *new epoch* in the sequence field (see
            // `IngestRung::EpochRotated`) — the postmortem's view of when
            // each sensor's keys turned over.
            if let Some(epoch) = self.rotated_to {
                self.recorder.record(FlightRecord {
                    sent_at_us: frame.sent_at_us,
                    sensor_id: sensor_id_of(&frame.wire).unwrap_or(0),
                    sequence: epoch,
                    event: u32::try_from(frame.event).unwrap_or(u32::MAX),
                    wire_bytes: u32::try_from(frame.wire.len()).unwrap_or(u32::MAX),
                    rung: IngestRung::EpochRotated,
                });
            }
        }
        self.rotated_to = None;
        if self.tracer.is_enabled() {
            let t0 = frame.sent_at_us;
            self.tracer.begin("ingest", "gateway", t0);
            if result.is_ok() {
                self.tracer.begin("decode", "encode", t0);
                self.tracer.end(t0 + DECODE_SPAN_US);
                self.tracer.begin("audit", "audit", t0 + DECODE_SPAN_US);
                self.tracer.end(t0 + DECODE_SPAN_US + AUDIT_SPAN_US);
                self.tracer.end(t0 + DECODE_SPAN_US + AUDIT_SPAN_US);
            } else {
                self.tracer.end(t0 + REJECT_SPAN_US);
            }
        }
    }

    fn ingest_inner(
        &mut self,
        frame: &FleetFrame,
        config: &GatewayConfig,
    ) -> Result<u64, GatewayError> {
        let wire = frame.wire.as_slice();
        self.stats.frames += 1;
        self.stats.wire_bytes += wire.len() as u64;
        let (Some(sensor_id), Some(sealed)) = (sensor_id_of(wire), wire.get(HEADER_LEN..)) else {
            self.stats.header_truncated += 1;
            return Err(GatewayError::Header(HeaderError::Truncated {
                len: wire.len(),
            }));
        };
        if wire.len() > MAX_DATAGRAM_LEN {
            self.stats.header_oversized += 1;
            return Err(GatewayError::Header(HeaderError::Oversized {
                len: wire.len(),
                max: MAX_DATAGRAM_LEN,
            }));
        }
        let Some(session) = self.sessions.get_mut(sensor_id) else {
            self.stats.unknown_sensor += 1;
            return Err(GatewayError::UnknownSensor { sensor_id });
        };
        let epoch_before = session.receiver.epoch();
        let sequence = session
            .receiver
            .receive_into(sealed, &mut self.payload)
            .map_err(|e| {
                match e {
                    ReceiveError::Cipher(_) => self.stats.auth_failed += 1,
                    ReceiveError::Replay(_) => self.stats.replay_rejected += 1,
                    ReceiveError::FarFuture { .. } => self.stats.far_future += 1,
                    ReceiveError::MissingSequence => self.stats.missing_sequence += 1,
                }
                GatewayError::Receive(e)
            })?;
        let Some(cohort) = config.cohorts.get(session.cohort) else {
            self.stats.decode_failed += 1;
            return Err(GatewayError::UnknownCohort {
                cohort: session.cohort,
            });
        };
        cohort
            .encoder
            .decode_into(
                &self.payload,
                &config.batch,
                &mut self.scratch,
                &mut self.decoded,
            )
            .map_err(|e| {
                self.stats.decode_failed += 1;
                GatewayError::Decode(e)
            })?;
        self.stats.accepted += 1;
        self.stats.payload_bytes += self.payload.len() as u64;
        self.stats.decoded_values += self.decoded.len() as u64;
        if let Some(stats) = self.cohorts.get_mut(session.cohort) {
            stats.note(wire.len(), self.decoded.len());
        }
        let epoch_now = session.receiver.epoch();
        if epoch_now > epoch_before {
            self.stats.rotations += 1;
            self.rotated_to = Some(epoch_now);
        }
        let gap_us = session.gap_to(frame.sent_at_us);
        if let Some((sizes, gaps)) = self.leakage.get_mut(session.cohort) {
            sizes.observe(frame.event, wire.len());
            if let Some(gap) = gap_us {
                gaps.observe(frame.event, gap as usize);
            }
        }
        // Keyed on the epoch the frame actually *opened* under (a
        // straggler opens one epoch behind the receiver's current) —
        // on static sessions `last_epoch` is always 0.
        let epoch = session.receiver.last_epoch();
        let fresh = session.record_nonce(epoch, sequence);
        self.nonces.count(sensor_id, epoch, sequence, fresh);
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.observe_accepted(
                session.cohort,
                frame.event,
                wire.len(),
                gap_us,
                frame.sent_at_us,
            );
        }
        Ok(sequence)
    }
}

#[cfg(test)]
mod tests {
    use age_core::{AgeEncoder, BatchConfig, StandardEncoder};
    use age_fixed::Format;

    use super::*;
    use crate::gateway::Cohort;

    fn headcounts(shard: &Shard) -> Vec<u64> {
        shard.cohorts.iter().map(|c| c.sensors).collect()
    }

    #[test]
    fn reprovisioning_keeps_the_slot_and_moves_the_headcount() {
        let config = GatewayConfig::new(
            BatchConfig::new(25, 2, Format::new(16, 10).unwrap()).unwrap(),
            vec![
                Cohort::new("AGE", Box::new(AgeEncoder::new(160))),
                Cohort::new("Std", Box::new(StandardEncoder)),
            ],
            7,
            1,
        );
        let mut shard = Shard::new(&config, 0);
        for id in 0..100u64 {
            shard.insert_session(id, Session::new([1; 32], (id % 2) as usize));
        }
        assert_eq!(headcounts(&shard), [50, 50]);
        // Sensor 42 moves from cohort 0 to cohort 1, in its own slot.
        shard.insert_session(42, Session::new([2; 32], 1));
        assert_eq!(shard.occupancy(), 100);
        assert_eq!(headcounts(&shard), [49, 51]);
        let expected: Vec<usize> = (0..100)
            .map(|id| if id == 42 { 1 } else { id % 2 })
            .collect();
        let cohorts: Vec<usize> = shard.sessions().map(|s| s.cohort).collect();
        assert_eq!(cohorts, expected);
        // Re-provisioning into the same cohort moves no headcount.
        shard.insert_session(42, Session::new([3; 32], 1));
        assert_eq!(shard.occupancy(), 100);
        assert_eq!(headcounts(&shard), [49, 51]);
    }
}
