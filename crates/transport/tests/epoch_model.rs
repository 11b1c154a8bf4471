//! A bounded explicit-state explorer for the rekeying link.
//!
//! The receiver opens each frame under exactly one key, the key of the
//! watermark epoch of its sequence number. That is sound only if every
//! sensor seals every frame under exactly that key: `seal_epoch ==
//! epoch_of(seq)`. This explorer checks that equality, that the one-key
//! receiver reaches the same verdict as the trial-open reference, and that
//! in-order traffic resynchronises the receiver, on every interleaving of
//! a small configuration: rotation interval 3, replay window 4, far-future
//! guard 8, journal block 2.
//!
//! **Sensor side.** A depth-first search runs every sequence of
//! [`SENSOR_STEPS`] sensor steps (a send, a brownout between the journal
//! write and the radio, or a plain brownout) with every outcome of each NVM
//! write that matters: the last record before a power loss torn or intact,
//! and the recovery checkpoint written or refused. A refused reservation
//! record changes nothing (the message is lost before anything is
//! written), so it is not a branch, and a rotation writes no record at
//! all. The steps drive the shipped `Sensor` with its `SequenceJournal` and
//! `NvmStore` (`seal_into`, and `reboot` for a power loss), fixing each NVM
//! write's outcome with `Sensor::set_nvm_faults` at rates 0 and 1. After
//! every step it checks that
//!
//! - no `(epoch, seq)` pair is sealed twice, where the epoch is the one
//!   whose key opens the frame, and the sensor reports that epoch,
//! - every sealed frame has `epoch == epoch_of(seq)`,
//! - the sensor's epoch never exceeds the watermark epoch of the next
//!   sequence number, and recovery resumes exactly on it.
//!
//! **Receiver side.** The channel may drop, duplicate, reorder or corrupt
//! any radiated frame, so every sequence of deliveries drawn from the
//! frames a sensor run radiated is a possible arrival order. For each
//! distinct set of radiated frames the explorer computes the closure of
//! receiver states under three kinds of delivery: a genuine frame, a copy
//! corrupted by `FaultChannel`, and a forgery claiming a sequence number
//! past the newest sealed one. The one-key `Receiver` and the trial-open
//! `common::NaiveReceiver` receive every frame side by side and must agree
//! on the verdict (error values included), the epochs, the highest
//! sequence and every counter; no sequence number may be accepted twice,
//! and an accepted payload must be the one sealed under that number.
//! States are identified by the reference receiver's full state; the
//! one-key receiver's own bitmap and key cache are checked through its
//! verdicts.
//!
//! **Liveness.** From every explored receiver state, the sensor of every
//! run that radiated that state's frames resumes sending in order over a
//! clean channel, and one of its first [`RESYNC_FRAMES`] frames must be
//! accepted. Each frame `n` of that stream has one key, `epoch_of(n)`, and
//! `n` is above every sequence the receiver has seen, so the window never
//! rejects it; the first frame is accepted unless the sensor has moved
//! past the receiver's reach, and a rejected frame leaves the receiver
//! where it was. So k = 1: the bound depends neither on the window nor on
//! the interval, and the journal block enters only through the reach (see
//! `docs/robustness.md`).
//!
//! The cipher is a keyed checksum rather than the AEAD: the explorer checks
//! the epoch and sequence logic, and the checksum keeps each open cheap.
//! The AEAD itself is covered by `epoch_probe.rs` and `reboot_fuzz.rs`.

mod common;

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::sync::OnceLock;

use age_crypto::{Cipher, CipherKind, EpochRatchet, OpenError};
use age_transport::{
    epoch_of, FaultChannel, FaultPlan, NvmFaultPlan, NvmStore, Receiver, Sensor, SequenceJournal,
};
use common::NaiveReceiver;

const INTERVAL: u64 = 3;
const WINDOW: u64 = 4;
const MAX_SKIP: u64 = 8;
const BLOCK: u64 = 2;
/// Sensor steps per explored run.
const SENSOR_STEPS: usize = 5;
/// In-order genuine frames within which the receiver must accept one.
const RESYNC_FRAMES: u64 = 1;

/// A keyed checksum with the AEAD's framing: 4 zero bytes, the sequence
/// number (little-endian), the payload, then an 8-byte tag over the key,
/// the nonce and the payload.
struct ChecksumCipher {
    key: u64,
}

const NONCE_LEN: usize = 12;
const TAG_LEN: usize = 8;

impl ChecksumCipher {
    fn tag(&self, body: &[u8]) -> [u8; TAG_LEN] {
        let mut h = self.key ^ 0x9E37_79B9_7F4A_7C15;
        for &b in body {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^= h >> 31;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (h ^ (h >> 29)).to_le_bytes()
    }
}

impl Cipher for ChecksumCipher {
    fn kind(&self) -> CipherKind {
        CipherKind::Stream
    }

    fn overhead(&self) -> usize {
        NONCE_LEN + TAG_LEN
    }

    fn message_len(&self, plaintext_len: usize) -> usize {
        plaintext_len + NONCE_LEN + TAG_LEN
    }

    fn seal(&self, sequence: u64, plaintext: &[u8]) -> Vec<u8> {
        let mut out = vec![0; 4];
        out.extend_from_slice(&sequence.to_le_bytes());
        out.extend_from_slice(plaintext);
        let tag = self.tag(&out);
        out.extend_from_slice(&tag);
        out
    }

    fn open(&self, message: &[u8]) -> Result<Vec<u8>, OpenError> {
        if message.len() < self.overhead() {
            return Err(OpenError::Truncated {
                len: message.len(),
                min: self.overhead(),
            });
        }
        let (body, tag) = message.split_at(message.len() - TAG_LEN);
        if self.tag(body) != tag {
            return Err(OpenError::TagMismatch);
        }
        Ok(body[NONCE_LEN..].to_vec())
    }

    fn sequence_of(&self, message: &[u8]) -> Option<u64> {
        let bytes: [u8; 8] = message.get(4..NONCE_LEN)?.try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    }
}

fn checksum_factory(key: [u8; 32]) -> Box<dyn Cipher> {
    let mut word = [0; 8];
    word.copy_from_slice(&key[..8]);
    Box::new(ChecksumCipher {
        key: u64::from_le_bytes(word),
    })
}

fn root() -> [u8; 32] {
    static ROOT: OnceLock<[u8; 32]> = OnceLock::new();
    *ROOT.get_or_init(|| age_crypto::kdf::sensor_root(&age_crypto::kdf::fleet_secret(22), 1))
}

/// The cipher of `epoch` on the chain off [`root`], from keys derived once
/// per test run.
fn key_of(epoch: u64) -> Box<dyn Cipher> {
    static KEYS: OnceLock<Vec<[u8; 32]>> = OnceLock::new();
    let keys = KEYS.get_or_init(|| {
        let mut ratchet = EpochRatchet::new(root());
        (0..64)
            .map(|_| {
                let key = ratchet.key();
                ratchet.advance();
                key
            })
            .collect()
    });
    checksum_factory(keys[epoch as usize])
}

fn payload_of(sequence: u64) -> Vec<u8> {
    sequence.to_le_bytes()[..4].to_vec()
}

/// One sensor step. `tear` marks the last NVM record written before this
/// step's power loss as torn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// `Sensor::seal_into` and the radio: reserve, rotate if due, seal,
    /// radiate.
    Send,
    /// `Sensor::abort`: the same seal, then power fails before the radio
    /// and the sensor recovers.
    Abort { tear: bool, refuse_checkpoint: bool },
    /// `Sensor::reboot`: power fails and the sensor recovers.
    Reboot { tear: bool, refuse_checkpoint: bool },
}

impl Step {
    fn power_loss_tear(self) -> Option<bool> {
        match self {
            Step::Send => None,
            Step::Abort { tear, .. } | Step::Reboot { tear, .. } => Some(tear),
        }
    }
}

/// NVM fault rates that fix the outcome of the next write.
fn nvm(refuse: bool, torn: bool) -> NvmFaultPlan {
    NvmFaultPlan {
        fail_rate: if refuse { 1.0 } else { 0.0 },
        torn_rate: if torn { 1.0 } else { 0.0 },
        seed: 0,
    }
}

/// The chain epoch whose key opens `frame`, the one it was sealed under.
fn sealed_epoch(frame: &[u8]) -> Option<u64> {
    (0..64).find(|&epoch| key_of(epoch).open(frame).is_ok())
}

/// A journaled `Sensor` replayed from power-on, and what it sealed.
struct SensorRun {
    phase: u64,
    sensor: Sensor,
    /// Every `(epoch, sequence)` sealed, radiated or not.
    sealed: BTreeSet<(u64, u64)>,
    /// Radiated frames as `(sequence, epoch, bytes)`, in sealing order.
    radiated: Vec<(u64, u64, Vec<u8>)>,
    /// Journal flush count at the last power loss: a tear only matters if
    /// a record has been written since.
    flushes_at_loss: usize,
}

impl SensorRun {
    fn new(phase: u64) -> Self {
        SensorRun {
            phase,
            sensor: Sensor::with_rekey(root(), INTERVAL, phase, checksum_factory)
                .with_journal(SequenceJournal::new(NvmStore::reliable(), BLOCK)),
            sealed: BTreeSet::new(),
            radiated: Vec::new(),
            flushes_at_loss: 0,
        }
    }

    fn journal(&self) -> &SequenceJournal {
        self.sensor.journal().expect("journaled")
    }

    fn watermark(&self, sequence: u64) -> u64 {
        epoch_of(sequence, INTERVAL, self.phase)
    }

    /// Whether a power loss now (after `writes_ahead` more records) would
    /// find a record written since the last one.
    fn tear_matters(&self, writes_ahead: bool) -> bool {
        writes_ahead || self.journal().stats().flushes > self.flushes_at_loss
    }

    /// One seal through the sensor's send path, every NVM write at tear
    /// rate `torn` (see [`replay`]). Returns the frame's sequence number,
    /// the epoch whose key opens it, and its bytes.
    fn seal(&mut self, torn: bool) -> Option<(u64, u64, Vec<u8>)> {
        self.sensor.set_nvm_faults(nvm(false, torn));
        let expected = self.sensor.next_sequence();
        let (sequence, frame) = self.sensor.seal(&payload_of(expected)).ok()?;
        assert_eq!(sequence, expected, "sealed off the announced sequence");
        let epoch = sealed_epoch(&frame).expect("sealed under a key off the chain");
        assert_eq!(
            epoch,
            self.sensor.epoch(),
            "seq {sequence} sealed under epoch {epoch}, reported as {}",
            self.sensor.epoch()
        );
        assert!(
            self.sealed.insert((epoch, sequence)),
            "(epoch {epoch}, seq {sequence}) sealed twice"
        );
        assert_eq!(
            epoch,
            self.watermark(sequence),
            "seq {sequence} sealed off its watermark epoch"
        );
        Some((sequence, epoch, frame))
    }

    fn step(&mut self, step: Step, tear_next_loss: bool) {
        let power_loss = match step {
            Step::Send => {
                let sealed = self.seal(tear_next_loss);
                self.radiated.extend(sealed);
                None
            }
            Step::Abort {
                tear,
                refuse_checkpoint,
            } => {
                let _ = self.seal(tear);
                Some(refuse_checkpoint)
            }
            Step::Reboot {
                refuse_checkpoint, ..
            } => Some(refuse_checkpoint),
        };
        if let Some(refuse_checkpoint) = power_loss {
            // `Sensor::abort` is the seal above and this reboot; they are
            // made apart so the recovery checkpoint gets its own outcome.
            self.sensor
                .set_nvm_faults(nvm(refuse_checkpoint, tear_next_loss));
            self.sensor.reboot();
            self.flushes_at_loss = self.journal().stats().flushes;
            let resumed = self.journal().next();
            assert_eq!(
                self.sensor.epoch(),
                self.watermark(resumed),
                "recovery resumed at {resumed} off its watermark epoch"
            );
        }
        let next = self.journal().next();
        assert!(
            self.sensor.epoch() <= self.watermark(next),
            "sensor epoch {} ahead of the watermark of its next sequence {next}",
            self.sensor.epoch()
        );
    }
}

/// Replays `path` from power-on. Each write is made with tear rate 1 when
/// the next power loss in the path tears: later records clear the pending
/// tear, so exactly the last record before that power loss reads back
/// torn.
fn replay(phase: u64, path: &[Step]) -> SensorRun {
    let mut run = SensorRun::new(phase);
    for (i, &step) in path.iter().enumerate() {
        let tear_next_loss = path[i + 1..]
            .iter()
            .find_map(|s| s.power_loss_tear())
            .unwrap_or(false);
        run.step(step, tear_next_loss);
    }
    run
}

/// The steps worth taking from `run`'s state: tearing when nothing was
/// written since the last power loss cannot change anything, so it is
/// left out.
fn branches(run: &SensorRun) -> Vec<Step> {
    let reserve_writes = run.journal().next() >= run.journal().reserved_end();
    let mut steps = vec![Step::Send];
    for tear in [false, true] {
        for refuse_checkpoint in [false, true] {
            if !tear || run.tear_matters(reserve_writes) {
                steps.push(Step::Abort {
                    tear,
                    refuse_checkpoint,
                });
            }
            if !tear || run.tear_matters(false) {
                steps.push(Step::Reboot {
                    tear,
                    refuse_checkpoint,
                });
            }
        }
    }
    steps
}

/// What the explorer saw, so the test can insist that every behaviour the
/// one-key receiver depends on was reached.
#[derive(Debug, Default)]
struct Coverage {
    sensor_runs: usize,
    frame_sets: usize,
    receiver_states: usize,
    deliveries: usize,
    stale_rejections: usize,
    epoch_behind: u64,
    epoch_advances: u64,
    /// (receiver state, sensor position) pairs whose in-order frames
    /// brought an acceptance.
    resyncs: usize,
    /// Pairs whose sensor had moved out of the receiver's reach.
    stranded: usize,
    /// The most in-order frames any resync needed before an acceptance.
    frames_to_resync: u64,
}

/// The radiated frames of each full-depth sensor run, as `(sequence,
/// epoch)`, and the sequence numbers those runs' sensors would seal next.
type FrameSets = BTreeMap<Vec<(u64, u64)>, BTreeSet<u64>>;

/// Depth-first over every sensor path of `SENSOR_STEPS` steps; collects
/// the distinct radiated-frame sets of the full-depth runs (a shorter
/// run's frames are a subset of some full-depth run's).
fn explore_sensor(
    phase: u64,
    path: &mut Vec<Step>,
    frame_sets: &mut FrameSets,
    coverage: &mut Coverage,
) {
    let run = replay(phase, path);
    if path.len() == SENSOR_STEPS {
        coverage.sensor_runs += 1;
        let frames: Vec<(u64, u64)> = run.radiated.iter().map(|&(s, e, _)| (s, e)).collect();
        frame_sets
            .entry(frames)
            .or_default()
            .insert(run.sensor.next_sequence());
        return;
    }
    for step in branches(&run) {
        path.push(step);
        explore_sensor(phase, path, frame_sets, coverage);
        path.pop();
    }
}

/// The frames the channel can deliver for one set of radiated frames:
/// each genuine frame, a corrupted copy of each, and one forgery claiming
/// a sequence number past the newest.
fn deliverable(phase: u64, frames: &[(u64, u64)]) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = frames
        .iter()
        .map(|&(sequence, epoch)| seal(epoch, sequence))
        .collect();
    for (i, &(sequence, epoch)) in frames.iter().enumerate() {
        let plan = FaultPlan {
            corrupt_rate: 1.0,
            seed: sequence ^ ((i as u64) << 32),
            ..FaultPlan::NONE
        };
        let arriving = FaultChannel::new(plan).transmit(&seal(epoch, sequence));
        out.extend(arriving);
    }
    let newest = frames.iter().map(|&(s, _)| s).max().unwrap_or(0);
    let claimed = newest + MAX_SKIP;
    let mut forged = seal(epoch_of(newest, INTERVAL, phase), newest);
    forged[4..NONCE_LEN].copy_from_slice(&claimed.to_le_bytes());
    out.push(forged);
    out
}

fn seal(epoch: u64, sequence: u64) -> Vec<u8> {
    key_of(epoch).seal(sequence, &payload_of(sequence))
}

/// The reference receiver's full state, minus its counters.
type StateKey = (u64, u64, Option<u64>, Vec<u64>);

/// Runs `deliveries` (indices into `frames`) through a fresh one-key
/// receiver and a fresh reference side by side, checking every verdict.
/// Returns the reached state and both receivers.
fn deliver(
    phase: u64,
    frames: &[Vec<u8>],
    deliveries: &[usize],
    coverage: &mut Coverage,
) -> (StateKey, Receiver, NaiveReceiver) {
    let mut receiver = Receiver::with_rekey(root(), INTERVAL, phase, checksum_factory)
        .with_limits(MAX_SKIP, WINDOW);
    let mut naive = NaiveReceiver::rekeying(key_of, INTERVAL, MAX_SKIP, WINDOW);
    let mut accepted = HashSet::new();
    for (n, &i) in deliveries.iter().enumerate() {
        let at = format!("phase {phase}, deliveries {deliveries:?} (#{n})");
        let epoch_before = naive.epoch;
        let verdict = naive.receive_beside(&mut receiver, &frames[i], &at);
        coverage.deliveries += 1;
        match verdict {
            Ok((sequence, payload)) => {
                assert!(
                    accepted.insert(sequence),
                    "seq {sequence} accepted twice at {at}"
                );
                assert_eq!(
                    payload,
                    payload_of(sequence),
                    "forged payload accepted at {at}"
                );
            }
            Err(_) => {
                // Below the previous epoch: rejected without an open.
                let claimed = ChecksumCipher { key: 0 }.sequence_of(&frames[i]);
                let stale =
                    claimed.is_some_and(|s| epoch_of(s, INTERVAL, phase) + 1 < epoch_before);
                coverage.stale_rejections += usize::from(stale);
            }
        }
    }
    let mut seen: Vec<u64> = accepted.into_iter().collect();
    seen.sort_unstable();
    let key = (naive.epoch, naive.last_epoch, naive.window.highest(), seen);
    (key, receiver, naive)
}

/// Whether a sensor resuming at `next` is within the receiver's reach:
/// within the far-future guard of the highest accepted sequence (an empty
/// window has no guard), and within the derivation budget of the
/// receiver's epoch.
fn within_reach(naive: &NaiveReceiver, next: u64, phase: u64) -> bool {
    let guarded = naive
        .window
        .highest()
        .is_none_or(|highest| next <= highest + MAX_SKIP);
    guarded && epoch_of(next, INTERVAL, phase) <= naive.epoch + MAX_SKIP / INTERVAL + 2
}

/// Resumes the sensor at `next` over a clean channel and sends its frames
/// in order to both receivers. Within reach, one of the first
/// [`RESYNC_FRAMES`] is accepted; out of reach, none of the next
/// `2 · INTERVAL` is, because a rejected in-order frame leaves the receiver
/// no closer.
fn resync(
    phase: u64,
    mut receiver: Receiver,
    mut naive: NaiveReceiver,
    next: u64,
    at: &str,
    coverage: &mut Coverage,
) {
    let reachable = within_reach(&naive, next, phase);
    let horizon = if reachable {
        RESYNC_FRAMES
    } else {
        2 * INTERVAL
    };
    for (sent, sequence) in (next..next + horizon).enumerate() {
        let frame = seal(epoch_of(sequence, INTERVAL, phase), sequence);
        let at = format!("{at}, resumed at {next}, frame {sequence}");
        if naive.receive_beside(&mut receiver, &frame, &at).is_ok() {
            assert!(reachable, "accepted out of reach at {at}");
            coverage.resyncs += 1;
            coverage.frames_to_resync = coverage.frames_to_resync.max(sent as u64 + 1);
            return;
        }
    }
    assert!(
        !reachable,
        "no acceptance within {RESYNC_FRAMES} in-order frames from {at}, resumed at {next}"
    );
    coverage.stranded += 1;
}

/// The closure of receiver states reachable by delivering `radiated` in
/// any order, any number of times; from each, every sensor position in
/// `positions` must resync the receiver.
fn explore_receiver(
    phase: u64,
    radiated: &[(u64, u64)],
    positions: &BTreeSet<u64>,
    coverage: &mut Coverage,
) {
    let frames = deliverable(phase, radiated);
    let mut seen: HashSet<StateKey> = HashSet::new();
    let mut queue: VecDeque<Vec<usize>> = VecDeque::from([Vec::new()]);
    let (start, _, _) = deliver(phase, &frames, &[], coverage);
    seen.insert(start);
    while let Some(path) = queue.pop_front() {
        for &next in positions {
            let (_, receiver, naive) = deliver(phase, &frames, &path, coverage);
            let at = format!("phase {phase}, frames {radiated:?}, deliveries {path:?}");
            resync(phase, receiver, naive, next, &at, coverage);
        }
        for i in 0..frames.len() {
            let mut next = path.clone();
            next.push(i);
            let (key, _, naive) = deliver(phase, &frames, &next, coverage);
            if seen.insert(key) {
                coverage.epoch_behind = coverage.epoch_behind.max(naive.stats.epoch_behind);
                coverage.epoch_advances = coverage.epoch_advances.max(naive.stats.epoch_advances);
                queue.push_back(next);
            }
        }
    }
    coverage.receiver_states += seen.len();
}

#[test]
fn capped_probe_agrees_with_the_uncapped_one_on_every_bounded_interleaving() {
    let mut coverage = Coverage::default();
    for phase in 0..INTERVAL {
        let mut frame_sets = FrameSets::new();
        explore_sensor(phase, &mut Vec::new(), &mut frame_sets, &mut coverage);
        coverage.frame_sets += frame_sets.len();
        for (radiated, positions) in &frame_sets {
            explore_receiver(phase, radiated, positions, &mut coverage);
        }
    }
    eprintln!("{coverage:?}");
    // The exploration reached every behaviour the one-key receiver
    // depends on.
    assert!(coverage.stale_rejections > 0, "{coverage:?}");
    assert!(coverage.epoch_behind > 0, "{coverage:?}");
    assert!(coverage.epoch_advances > 0, "{coverage:?}");
    assert!(
        coverage.resyncs > 0 && coverage.stranded > 0,
        "{coverage:?}"
    );
}
