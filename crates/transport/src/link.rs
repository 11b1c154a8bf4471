//! The framed sensor→server session: sealing, receive-side checks, and the
//! retry/backoff loop.

use std::collections::VecDeque;

use age_crypto::{Cipher, EpochRatchet, OpenError};

use crate::fault::{ChannelStats, FaultChannel, FaultPlan};
use crate::persist::{JournalError, JournalStats, NvmFaultPlan, SequenceJournal};
use crate::replay::{ReplayError, ReplayWindow};

/// Why the receiver rejected a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceiveError {
    /// Decryption/authentication failed (for AEAD ciphers this catches any
    /// bit flipped anywhere in the frame).
    Cipher(OpenError),
    /// The replay window rejected the frame's sequence number.
    Replay(ReplayError),
    /// The frame is too short to carry a sequence number.
    MissingSequence,
    /// The sequence number jumps implausibly far ahead — on unauthenticated
    /// ciphers a corrupted nonce decodes as a huge sequence, and accepting
    /// it would slide the replay window past all legitimate traffic.
    FarFuture {
        /// The claimed sequence number.
        sequence: u64,
        /// The highest sequence number the receiver would have accepted.
        limit: u64,
    },
}

impl std::fmt::Display for ReceiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReceiveError::Cipher(e) => write!(f, "frame failed to open: {e}"),
            ReceiveError::Replay(e) => write!(f, "replay window rejected frame: {e}"),
            ReceiveError::MissingSequence => f.write_str("frame too short for a sequence number"),
            ReceiveError::FarFuture { sequence, limit } => {
                write!(f, "sequence {sequence} is beyond the accept limit {limit}")
            }
        }
    }
}

impl std::error::Error for ReceiveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReceiveError::Cipher(e) => Some(e),
            ReceiveError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

/// How far ahead of the highest accepted sequence number a frame may claim
/// to be before the receiver rejects it as [`ReceiveError::FarFuture`].
///
/// An empty replay window applies no limit: the guard protects the window,
/// and an empty one has nothing to protect.
///
/// It also sets a rekeying receiver's derivation budget: a post-brownout
/// sensor may skip up to `MAX_SKIP` sequence numbers, crossing up to
/// `MAX_SKIP / interval + 1` epoch boundaries, so the receiver derives keys
/// up to `MAX_SKIP / interval + 2` epochs ahead of its own. That budget
/// applies on an empty window too.
pub const MAX_SKIP: u64 = 1024;

/// Builds a cipher from a 32-byte epoch key. Rekey-capable sensors and
/// receivers re-key by deriving the next epoch key from their
/// [`EpochRatchet`] and swapping in a fresh cipher from this factory. A
/// plain `fn` pointer keeps the parts `Send` and trivially copyable.
/// Sensors build boxed ciphers; a [`Receiver`] builds whatever cipher
/// type it holds (`ChaCha20Poly1305::new` for an inline one).
pub type CipherFactory<C = Box<dyn Cipher>> = fn([u8; 32]) -> C;

/// The workspace's default epoch-cipher factory (ChaCha20-Poly1305, the
/// paper's AEAD).
pub fn chacha20poly1305_factory(key: [u8; 32]) -> Box<dyn Cipher> {
    Box::new(age_crypto::ChaCha20Poly1305::new(key))
}

/// The watermark rotation schedule: which key epoch covers `sequence`,
/// given a rotation `interval` and a per-sensor stagger `phase`
/// (`phase % interval`; epoch boundaries sit at `phase`,
/// `phase + interval`, `phase + 2·interval`, …).
///
/// Sequence numbers are **global across epochs** — they never reset at a
/// boundary — so this schedule is a pure function of the sequence number
/// alone. That is the load-bearing property of the whole design: the epoch
/// is derived state on both ends of the link, it never appears on the
/// wire, and after any brownout both sides recompute it consistently from
/// the recovered sequence position. An `interval` of 0 disables rotation
/// (epoch 0 forever). A [`Sensor`] seals every frame under exactly the key
/// of this epoch, so a [`Receiver`] opens each frame under that one key.
pub fn epoch_of(sequence: u64, interval: u64, phase: u64) -> u64 {
    if interval == 0 {
        return 0;
    }
    let phase = phase % interval;
    if sequence < phase {
        0
    } else {
        (sequence - phase) / interval + u64::from(phase > 0)
    }
}

/// Rekey state for a [`Sensor`]: the forward-secure chain plus the
/// watermark schedule.
struct SensorRekey {
    /// The provisioning-time root, kept so a simulated reboot can rebuild
    /// the ratchet at the recovered position's epoch (a real device re-derives
    /// from its provisioning secret the same way; a deployment wanting
    /// sensor-side forward secrecy across *reboots* would persist the chain
    /// value itself instead).
    root: [u8; 32],
    ratchet: EpochRatchet,
    interval: u64,
    phase: u64,
    factory: CipherFactory,
}

/// The sensor half: seals payloads into framed messages with a
/// monotonically increasing per-session sequence number. The nonce/IV is
/// derived deterministically from that number by the cipher, so a frame is
/// `message_len(payload)` bytes — a pure function of the payload length.
///
/// A rekey-capable sensor ([`Sensor::with_rekey`]) seals each frame under
/// the ratchet's key for the frame's watermark epoch ([`epoch_of`]): the
/// seal that crosses a boundary advances the ratchet and swaps the cipher
/// first. Nothing about the frame changes — same length, same layout — so
/// rotation is invisible on the wire.
///
/// A sensor with a [`SequenceJournal`] ([`Sensor::with_journal`]) draws
/// its sequence numbers from the journal's write-ahead reservations, so
/// [`Sensor::reboot`] recovers without reusing a `(key, nonce)` pair. The
/// journal holds positions only: the epoch is derived from the recovered
/// position, so a rotation writes nothing. Without a journal the sensor
/// counts in RAM, and a reboot restarts the count at 0.
pub struct Sensor {
    cipher: Box<dyn Cipher>,
    next_sequence: u64,
    /// Highest sequence number sealed so far this power cycle (RAM only —
    /// cleared by every reboot, exactly like the counter it guards).
    highest_sealed: Option<u64>,
    rekey: Option<SensorRekey>,
    journal: Option<SequenceJournal>,
    /// The journal's counters when it was attached: [`Sensor::stats`]
    /// reports only the work done since.
    journal_base: JournalStats,
    /// Explicit-sequence seals at or below the high-water mark, over the
    /// sensor's lifetime (reboots included).
    reuse_risked: u64,
    /// Reboots and rotations.
    counts: LinkStats,
}

impl Sensor {
    /// A sensor starting at sequence number 0.
    pub fn new(cipher: Box<dyn Cipher>) -> Self {
        Sensor {
            cipher,
            next_sequence: 0,
            highest_sealed: None,
            rekey: None,
            journal: None,
            journal_base: JournalStats::default(),
            reuse_risked: 0,
            counts: LinkStats::default(),
        }
    }

    /// A rekey-capable sensor: keys come from an [`EpochRatchet`] chained
    /// off `root`, rotated every `interval` sequence numbers at stagger
    /// `phase` (see [`epoch_of`]; `interval` 0 never rotates), sealing with
    /// ciphers built by `factory`.
    pub fn with_rekey(root: [u8; 32], interval: u64, phase: u64, factory: CipherFactory) -> Self {
        let ratchet = EpochRatchet::new(root);
        let mut sensor = Sensor::new(factory(ratchet.key()));
        sensor.rekey = Some(SensorRekey {
            root,
            ratchet,
            interval,
            phase: if interval == 0 { 0 } else { phase % interval },
            factory,
        });
        sensor
    }

    /// Numbers frames from a persisted sequence-reservation journal instead
    /// of the RAM counter, so [`Sensor::reboot`] recovers without nonce
    /// reuse. The sensor resumes at the journal's position (0 for a fresh
    /// store) and on that position's watermark epoch; [`Sensor::stats`]
    /// counts the journal's work from here on.
    pub fn with_journal(mut self, journal: SequenceJournal) -> Self {
        self.resume(journal.next());
        self.journal_base = *journal.stats();
        self.journal = Some(journal);
        self
    }

    /// The sequence number the next seal will use (assuming its journal
    /// write, if one is due, succeeds).
    pub fn next_sequence(&self) -> u64 {
        self.next_sequence
    }

    /// The key epoch the next seal will use, unless it crosses a watermark
    /// boundary (always 0 without rekey state).
    pub fn epoch(&self) -> u64 {
        self.rekey.as_ref().map_or(0, |rekey| rekey.ratchet.epoch())
    }

    /// Explicit-sequence seals so far that were at or below the power
    /// cycle's high-water mark — each one risked reusing a (key, nonce)
    /// pair (see [`Sensor::seal_as_into`]).
    pub fn reuse_risked(&self) -> u64 {
        self.reuse_risked
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&SequenceJournal> {
        self.journal.as_ref()
    }

    /// The sensor's share of a [`Link`]'s counters: reboots and rotations,
    /// and — from the journal's [`JournalStats`] since
    /// it was attached — records persisted and sequence numbers retired by
    /// recovery. The delivery counters are 0.
    pub fn stats(&self) -> LinkStats {
        let journal = self
            .journal
            .as_ref()
            .map_or(self.journal_base, |j| *j.stats());
        LinkStats {
            journal_flushes: journal.flushes - self.journal_base.flushes,
            sequences_skipped: (journal.sequences_skipped - self.journal_base.sequences_skipped)
                as usize,
            ..self.counts
        }
    }

    /// Replaces the journal's NVM fault rates from its next write on (see
    /// [`SequenceJournal::set_nvm_faults`]); a no-op without a journal.
    pub fn set_nvm_faults(&mut self, plan: NvmFaultPlan) {
        if let Some(journal) = self.journal.as_mut() {
            journal.set_nvm_faults(plan);
        }
    }

    /// Like [`Sensor::seal_into`], into a fresh frame.
    ///
    /// # Errors
    ///
    /// As [`Sensor::seal_into`].
    pub fn seal(&mut self, payload: &[u8]) -> Result<(u64, Vec<u8>), JournalError> {
        let mut frame = Vec::new();
        let sequence = self.seal_into(payload, &mut frame)?;
        Ok((sequence, frame))
    }

    /// Seals `payload` under the next sequence number into `frame`,
    /// reusing its allocation, and returns the number. Once `frame` has
    /// grown to the session's fixed frame length, sealing never touches the
    /// heap. The number comes from the journal when one is attached, from
    /// the RAM counter otherwise; a rotation due at it is taken first.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the journal could not persist a due
    /// reservation record: nothing is sealed, because sealing under an
    /// unreserved number is the nonce-reuse hazard the journal prevents.
    /// A sensor without a journal never fails.
    pub fn seal_into(&mut self, payload: &[u8], frame: &mut Vec<u8>) -> Result<u64, JournalError> {
        let sequence = match self.journal.as_mut() {
            Some(journal) => journal.reserve_next()?,
            None => self.next_sequence,
        };
        self.next_sequence = sequence + 1;
        self.rotate_if_due(sequence);
        self.note_sealed(sequence);
        self.cipher.seal_into(sequence, payload, frame);
        Ok(sequence)
    }

    /// Seals `payload` under an explicit sequence number into `frame`,
    /// without touching the session counter or the journal.
    ///
    /// Explicit numbering is for callers that own sequencing themselves and
    /// keep it strictly increasing — the experiment runner numbers frames
    /// by test sequence index and satisfies that contract, which is why
    /// the guard below never fires for it. A sequence at or below the power
    /// cycle's high-water mark would reuse a (key, nonce) pair, so it is
    /// counted in [`Sensor::reuse_risked`] and trips a debug assertion
    /// (release builds still seal, preserving legacy behavior; the
    /// run-wide nonce auditor is the backstop that fails the run).
    pub fn seal_as_into(&mut self, sequence: u64, payload: &[u8], frame: &mut Vec<u8>) {
        if let Some(high) = self.highest_sealed {
            if sequence <= high {
                self.reuse_risked += 1;
                debug_assert!(
                    sequence > high,
                    "seal_as({sequence}) at or below the session high-water mark {high} \
                     would reuse a (key, nonce) pair"
                );
            }
        }
        self.note_sealed(sequence);
        self.cipher.seal_into(sequence, payload, frame);
    }

    /// A brownout between the journal write and the radio: `payload` is
    /// sealed into `frame` as by [`Sensor::seal_into`], whose result this
    /// returns, but power dies before the frame radiates and the sensor
    /// reboots. Recovery retires the frame's sequence number.
    ///
    /// # Errors
    ///
    /// As [`Sensor::seal_into`]; the sensor reboots either way.
    pub fn abort(&mut self, payload: &[u8], frame: &mut Vec<u8>) -> Result<u64, JournalError> {
        let sealed = self.seal_into(payload, frame);
        self.reboot();
        sealed
    }

    /// A power loss: all RAM state (the sequence counter and the seal
    /// high-water mark) is gone. With a journal the counter resumes at the
    /// recovered reservation high-water mark; without one it restarts at 0
    /// — the nonce-reuse case the journal exists to prevent (and the
    /// run-wide nonce auditor exists to catch).
    pub fn reboot(&mut self) {
        let next = match self.journal.as_mut() {
            Some(journal) => {
                journal.reboot();
                journal.next()
            }
            None => 0,
        };
        self.counts.sensor_reboots += 1;
        self.resume(next);
    }

    /// A power loss on a sensor without a journal, its counter restarting
    /// wherever the caller says.
    pub fn reboot_at(&mut self, next_sequence: u64) {
        self.counts.sensor_reboots += 1;
        self.resume(next_sequence);
    }

    /// Exact on-air frame length for a payload of `payload_len` bytes.
    pub fn frame_len(&self, payload_len: usize) -> usize {
        self.cipher.message_len(payload_len)
    }

    /// Power-loss recovery: the counter restarts at `next_sequence`, and
    /// the ratchet is rebuilt from the root at the watermark epoch of that
    /// position — the one key the receiver opens those frames under. The
    /// resumed counter is past everything ever sealed, and sequence
    /// numbers are global across epochs, so no `(key, nonce)` pair repeats
    /// whichever epoch that is.
    fn resume(&mut self, next_sequence: u64) {
        self.next_sequence = next_sequence;
        self.highest_sealed = None;
        if let Some(rekey) = self.rekey.as_mut() {
            let watermark = epoch_of(next_sequence, rekey.interval, rekey.phase);
            rekey.ratchet = EpochRatchet::at_epoch(rekey.root, watermark);
            self.cipher = (rekey.factory)(rekey.ratchet.key());
        }
    }

    /// Rotates to the watermark epoch of `sequence` if it is ahead of the
    /// current one. Nothing is journaled: after a brownout the epoch is
    /// derived again from the recovered position.
    fn rotate_if_due(&mut self, sequence: u64) {
        let Some(rekey) = self.rekey.as_mut() else {
            return;
        };
        let target = epoch_of(sequence, rekey.interval, rekey.phase);
        if target > rekey.ratchet.epoch() {
            rekey.ratchet.seek(target);
            self.cipher = (rekey.factory)(rekey.ratchet.key());
            self.counts.rotations += 1;
        }
    }

    fn note_sealed(&mut self, sequence: u64) {
        self.highest_sealed = Some(self.highest_sealed.map_or(sequence, |h| h.max(sequence)));
    }
}

/// Per-receiver frame counters.
///
/// A gateway serving many sensors keeps this accounting *per session* so
/// a fleet report can attribute rejections to the sensor (and shard) they
/// happened on. All fields are plain counts, so [`merge`](Self::merge) is
/// commutative and associative — per-shard rollups fold into identical
/// fleet totals at any shard count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Frames that authenticated and cleared the replay window.
    pub accepted: u64,
    /// Frames whose decryption/authentication failed.
    pub auth_failed: u64,
    /// Frames the replay window rejected (duplicate or stale).
    pub replay_rejected: u64,
    /// Frames rejected by the far-future guard.
    pub far_future: u64,
    /// Frames too short to carry a sequence number.
    pub missing_sequence: u64,
    /// Forward epoch steps taken after a frame opened under a later epoch
    /// key (each step may cross several epochs at once post-brownout).
    pub epoch_advances: u64,
    /// Frames accepted under the *previous* epoch key — stragglers sealed
    /// just before a rotation the receiver has already followed.
    pub epoch_behind: u64,
}

impl ReceiverStats {
    /// Total frames this receiver rejected, for any reason.
    pub fn rejected(&self) -> u64 {
        self.auth_failed + self.replay_rejected + self.far_future + self.missing_sequence
    }

    /// Folds another receiver's counters in (counts add, so merge order
    /// never matters).
    pub fn merge(&mut self, other: &ReceiverStats) {
        self.accepted += other.accepted;
        self.auth_failed += other.auth_failed;
        self.replay_rejected += other.replay_rejected;
        self.far_future += other.far_future;
        self.missing_sequence += other.missing_sequence;
        self.epoch_advances += other.epoch_advances;
        self.epoch_behind += other.epoch_behind;
    }
}

/// Rekey state for a [`Receiver`]: the ratchet, the ciphers it has
/// already derived for the epochs ahead, and the previous epoch's cipher.
struct ReceiverRekey<C> {
    /// The chain at the far end of `ahead`: epoch `epoch + ahead.len()`.
    ratchet: EpochRatchet,
    /// Ciphers for epochs `epoch + 1 ..= epoch + ahead.len()`, derived
    /// on demand and kept until the receiver moves past their epoch, so a
    /// forgery claiming a sequence some epochs ahead derives each key once
    /// per session rather than once per frame. Never longer than the
    /// derivation budget (see [`MAX_SKIP`]).
    ahead: VecDeque<C>,
    /// Cipher for the previous epoch, kept so stragglers sealed just
    /// before a rotation still open (the deliberate skew-tolerance
    /// trade-off: one old epoch key stays in memory until the next
    /// rotation retires it).
    prev_cipher: Option<C>,
    /// The sensor's schedule: a frame opens under the key of its
    /// sequence number's epoch and no other.
    interval: u64,
    phase: u64,
    factory: CipherFactory<C>,
}

/// The server half: opens frames, enforces the replay window, and degrades
/// gracefully — every malformed, forged, replayed, or stale frame becomes a
/// [`ReceiveError`], never a panic.
///
/// Generic over its cipher: the default `Box<dyn Cipher>` lets a link pick
/// the cipher at run time, while a gateway whose sessions all run one
/// AEAD stores it inline (`Receiver<ChaCha20Poly1305>`), with no heap box
/// per session. Verdicts, epochs and stats do not depend on the choice.
pub struct Receiver<C: Cipher = Box<dyn Cipher>> {
    cipher: C,
    window: ReplayWindow,
    max_skip: u64,
    stats: ReceiverStats,
    /// Current key epoch (0 forever without rekey state).
    epoch: u64,
    /// Epoch the most recently accepted frame actually opened under —
    /// `epoch - 1` for a straggler accepted via the previous-epoch cipher.
    last_epoch: u64,
    /// Boxed so receivers without rekey state (every static gateway
    /// session) pay one pointer for it, not the whole struct.
    rekey: Option<Box<ReceiverRekey<C>>>,
}

impl<C: Cipher> Receiver<C> {
    /// A receiver with an empty replay window.
    pub fn new(cipher: C) -> Self {
        Receiver {
            cipher,
            window: ReplayWindow::new(),
            max_skip: MAX_SKIP,
            stats: ReceiverStats::default(),
            epoch: 0,
            last_epoch: 0,
            rekey: None,
        }
    }

    /// The receiver for a [`Sensor::with_rekey`] sensor with the same
    /// `root`, `interval` and `phase`: keys come from an [`EpochRatchet`]
    /// chained off `root`, and each frame opens under the key of its
    /// sequence number's watermark epoch ([`epoch_of`]) — the current key,
    /// the previous one, or one derived ahead — so lost rotation frames
    /// and post-brownout epoch jumps cost no extra decryption.
    pub fn with_rekey(
        root: [u8; 32],
        interval: u64,
        phase: u64,
        factory: CipherFactory<C>,
    ) -> Self {
        let ratchet = EpochRatchet::new(root);
        let mut receiver = Receiver::new(factory(ratchet.key()));
        receiver.rekey = Some(Box::new(ReceiverRekey {
            ratchet,
            ahead: VecDeque::new(),
            prev_cipher: None,
            interval,
            phase,
            factory,
        }));
        receiver
    }

    /// Replaces the far-future guard (and with it the derivation budget)
    /// and the replay window size. Production receivers keep [`MAX_SKIP`]
    /// and [`ReplayWindow::SIZE`]; a model checker shrinks both.
    pub fn with_limits(mut self, max_skip: u64, window: u64) -> Self {
        self.max_skip = max_skip;
        self.window = ReplayWindow::with_size(window);
        self
    }

    /// The replay window's highest accepted sequence number, if any.
    pub fn highest_sequence(&self) -> Option<u64> {
        self.window.highest()
    }

    /// The receiver's current key epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch the most recently accepted frame opened under (equals
    /// [`epoch`](Self::epoch) except for stragglers from the previous
    /// epoch).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// This receiver's accept/reject counters.
    pub fn stats(&self) -> &ReceiverStats {
        &self.stats
    }

    /// Opens one frame: authenticates/decrypts, then runs the sequence
    /// number through the far-future guard and the replay window. Returns
    /// the frame's sequence number and payload.
    ///
    /// # Errors
    ///
    /// [`ReceiveError`] for any frame the server must not act on.
    pub fn receive(&mut self, frame: &[u8]) -> Result<(u64, Vec<u8>), ReceiveError> {
        let mut payload = Vec::new();
        let sequence = self.receive_into(frame, &mut payload)?;
        Ok((sequence, payload))
    }

    /// [`Receiver::receive`] into a caller-owned payload buffer, reusing its
    /// allocation; returns the accepted frame's sequence number. On error
    /// `payload`'s contents are unspecified. Once warm, receiving never
    /// touches the heap.
    ///
    /// # Errors
    ///
    /// [`ReceiveError`] for any frame the server must not act on.
    pub fn receive_into(
        &mut self,
        frame: &[u8],
        payload: &mut Vec<u8>,
    ) -> Result<u64, ReceiveError> {
        let sequence = match self.cipher.sequence_of(frame) {
            Some(sequence) => sequence,
            None => {
                self.stats.missing_sequence += 1;
                return Err(ReceiveError::MissingSequence);
            }
        };
        let opened_epoch = self.open_any(sequence, frame, payload).map_err(|e| {
            self.stats.auth_failed += 1;
            ReceiveError::Cipher(e)
        })?;
        if let Some(limit) = self
            .window
            .highest()
            .map(|h| h.saturating_add(self.max_skip))
        {
            if sequence > limit {
                self.stats.far_future += 1;
                return Err(ReceiveError::FarFuture { sequence, limit });
            }
        }
        self.window.observe(sequence).map_err(|e| {
            self.stats.replay_rejected += 1;
            ReceiveError::Replay(e)
        })?;
        self.stats.accepted += 1;
        self.last_epoch = opened_epoch;
        Ok(sequence)
    }

    /// Opens `frame` under the one key its sequence number selects and
    /// returns that key's epoch. A receiver without rekey state has one
    /// key; a rekey-capable one takes the key of the watermark epoch
    /// [`epoch_of`]`(sequence)`, because the sensor seals every frame under
    /// exactly that key. It is the current key, the previous one (a
    /// straggler sealed just before a rotation the receiver has followed),
    /// or one up to the derivation budget ahead, derived once and cached
    /// in `ahead`; a frame that opens ahead commits the receiver to its
    /// epoch. A frame from before the previous epoch, or past the budget,
    /// is rejected without an open.
    ///
    /// The replay window is shared across epochs — sequence numbers are
    /// global — so skew handling needs no window surgery: whatever epoch a
    /// frame opens under, its sequence number still has to clear the same
    /// far-future guard and replay window as always.
    fn open_any(
        &mut self,
        sequence: u64,
        frame: &[u8],
        payload: &mut Vec<u8>,
    ) -> Result<u64, OpenError> {
        let Some(rekey) = self.rekey.as_deref_mut() else {
            return self.cipher.open_into(frame, payload).map(|()| self.epoch);
        };
        let epoch = epoch_of(sequence, rekey.interval, rekey.phase);
        if epoch == self.epoch {
            return self.cipher.open_into(frame, payload).map(|()| epoch);
        }
        if self.epoch.checked_sub(1) == Some(epoch) {
            if let Some(prev) = rekey.prev_cipher.as_ref() {
                prev.open_into(frame, payload)?;
                self.stats.epoch_behind += 1;
                return Ok(epoch);
            }
        }
        let budget = (self.max_skip / rekey.interval.max(1)).saturating_add(2);
        let steps = epoch.saturating_sub(self.epoch);
        if steps == 0 || steps > budget {
            return Err(unopened(self.cipher.overhead(), frame.len()));
        }
        while (rekey.ahead.len() as u64) < steps {
            rekey.ratchet.advance();
            rekey.ahead.push_back((rekey.factory)(rekey.ratchet.key()));
        }
        let offset = (steps - 1) as usize;
        let Some(key) = rekey.ahead.get(offset) else {
            return Err(unopened(self.cipher.overhead(), frame.len()));
        };
        key.open_into(frame, payload)?;
        // Promote the hit to current and the epoch below it to previous;
        // the entries it passed are behind the receiver now and are
        // dropped with the drain.
        let below = rekey.ahead.drain(..offset).next_back();
        let Some(hit) = rekey.ahead.pop_front() else {
            return Err(unopened(self.cipher.overhead(), frame.len()));
        };
        let old = std::mem::replace(&mut self.cipher, hit);
        rekey.prev_cipher = Some(below.unwrap_or(old));
        self.epoch = epoch;
        self.stats.epoch_advances += 1;
        Ok(epoch)
    }
}

/// The error an AEAD with `overhead` bytes of framing gives a `len`-byte
/// frame it cannot authenticate, for a frame no key was tried on.
fn unopened(overhead: usize, len: usize) -> OpenError {
    if len < overhead {
        OpenError::Truncated { len, min: overhead }
    } else {
        OpenError::TagMismatch
    }
}

/// Retry/timeout policy for unacknowledged frames: exponential backoff with
/// a cap, in simulated milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total transmissions per message, the first included (≥ 1).
    pub max_attempts: u32,
    /// Wait before the first retransmission.
    pub base_timeout_ms: f64,
    /// Multiplier applied per further retransmission.
    pub backoff_factor: f64,
    /// Upper bound on any single wait.
    pub max_timeout_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_timeout_ms: 50.0,
            backoff_factor: 2.0,
            max_timeout_ms: 800.0,
        }
    }
}

impl RetryPolicy {
    /// Fire-and-forget: a single transmission, no waiting.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_timeout_ms: 0.0,
            backoff_factor: 1.0,
            max_timeout_ms: 0.0,
        }
    }

    /// The wait before retry number `retry` (0-based), capped.
    pub fn timeout_ms(&self, retry: u32) -> f64 {
        (self.base_timeout_ms * self.backoff_factor.powi(retry as i32)).min(self.max_timeout_ms)
    }

    /// Total backoff waited across a delivery that used `attempts`
    /// transmissions: the sum of the capped waits preceding attempts
    /// `2..=attempts`. Reproduces [`Delivery::backoff_ms`] exactly (same
    /// additions in the same order), which lets a virtual clock replay a
    /// delivery's schedule from its attempt count alone.
    pub fn backoff_before_ms(&self, attempts: u32) -> f64 {
        let mut total = 0.0;
        for attempt in 1..attempts {
            total += self.timeout_ms(attempt - 1);
        }
        total
    }
}

/// What happened to one message sent through a [`Link`].
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// The message's sequence number.
    pub sequence: u64,
    /// The sensor epoch the frame was sealed under (0 on a non-rekeying
    /// link).
    pub epoch: u64,
    /// The sealed frame's on-air length (every attempt radiates exactly
    /// this many bytes).
    pub frame_len: usize,
    /// Transmissions used (1 = no retries).
    pub attempts: u32,
    /// `true` if the receiver accepted this message's payload.
    pub delivered: bool,
    /// Every payload the receiver accepted during this send, in arrival
    /// order — usually just this message, but a reordered predecessor can
    /// surface here too.
    pub payloads: Vec<(u64, Vec<u8>)>,
    /// Simulated time spent waiting on retry timeouts.
    pub backoff_ms: f64,
}

/// Deterministic transport counters for one [`Link`] session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Frames put on the wire, retransmissions included.
    pub frames_sent: usize,
    /// Retransmission attempts.
    pub frames_retried: usize,
    /// Frames the receiver accepted.
    pub frames_delivered: usize,
    /// Frames rejected for failed authentication or malformed framing.
    pub auth_failed: usize,
    /// Frames rejected by the replay window (mostly duplicates of accepted
    /// frames — expected under retransmission).
    pub replay_rejected: usize,
    /// Frames rejected for other reasons (missing/far-future sequence).
    pub rejected_other: usize,
    /// Messages abandoned after exhausting every attempt.
    pub messages_lost: usize,
    /// Payloads that arrived only after their send deadline had passed
    /// (released by a reordering fault during a later send).
    pub late_deliveries: usize,
    /// Sensor power losses recovered from ([`Sensor::reboot`]).
    pub sensor_reboots: usize,
    /// Sequence-reservation journal records persisted to NVM (only with
    /// [`Sensor::with_journal`]).
    pub journal_flushes: usize,
    /// Sequence numbers retired unused by conservative reboot recovery.
    pub sequences_skipped: usize,
    /// Epoch rotations taken by the sensor.
    pub rotations: usize,
}

impl LinkStats {
    /// Folds another session's counters in (counts add, so merge order
    /// never matters).
    pub fn merge(&mut self, other: &LinkStats) {
        self.frames_sent += other.frames_sent;
        self.frames_retried += other.frames_retried;
        self.frames_delivered += other.frames_delivered;
        self.auth_failed += other.auth_failed;
        self.replay_rejected += other.replay_rejected;
        self.rejected_other += other.rejected_other;
        self.messages_lost += other.messages_lost;
        self.late_deliveries += other.late_deliveries;
        self.sensor_reboots += other.sensor_reboots;
        self.journal_flushes += other.journal_flushes;
        self.sequences_skipped += other.sequences_skipped;
        self.rotations += other.rotations;
    }
}

/// A full sensor→channel→server session with retries.
///
/// `send` transmits a sealed frame, watches what the receiver accepts, and
/// retransmits with exponential backoff until the message is acknowledged
/// or attempts run out. Retransmissions reuse the same sequence number, so
/// the replay window absorbs the duplicates a lossy acknowledgement path
/// would create.
///
/// # Examples
///
/// ```
/// use age_crypto::ChaCha20Poly1305;
/// use age_transport::{FaultPlan, Link, RetryPolicy};
///
/// let mut link = Link::new(
///     Box::new(ChaCha20Poly1305::new([7; 32])),
///     Box::new(ChaCha20Poly1305::new([7; 32])),
///     FaultPlan::drops(0.5, 42),
///     RetryPolicy::default(),
/// );
/// let delivery = link.send(b"batch bytes");
/// assert!(delivery.delivered, "4 attempts beat a 50% drop rate");
/// assert_eq!(delivery.frame_len, 11 + 28); // payload + nonce + tag
/// ```
pub struct Link {
    sensor: Sensor,
    channel: FaultChannel,
    receiver: Receiver,
    retry: RetryPolicy,
    /// Delivery counters; the sensor keeps its own ([`Sensor::stats`]).
    stats: LinkStats,
    /// Session-owned frame buffer: every send seals into this scratch, so
    /// the sealing side of the link stops allocating once it has grown to
    /// the session's fixed frame length.
    frame_scratch: Vec<u8>,
}

impl Link {
    /// A session over `plan`, sealing with `sensor_cipher` and opening with
    /// `receiver_cipher` (build both from the same key).
    pub fn new(
        sensor_cipher: Box<dyn Cipher>,
        receiver_cipher: Box<dyn Cipher>,
        plan: FaultPlan,
        retry: RetryPolicy,
    ) -> Self {
        Self::with_channel(
            sensor_cipher,
            receiver_cipher,
            FaultChannel::new(plan),
            retry,
        )
    }

    /// Like [`Link::new`] but over a pre-seeded [`FaultChannel`].
    pub fn with_channel(
        sensor_cipher: Box<dyn Cipher>,
        receiver_cipher: Box<dyn Cipher>,
        channel: FaultChannel,
        retry: RetryPolicy,
    ) -> Self {
        Self::with_parts(
            Sensor::new(sensor_cipher),
            Receiver::new(receiver_cipher),
            channel,
            retry,
        )
    }

    /// Assembles a session from pre-built endpoints — the constructor for
    /// rekey-capable links ([`Sensor::with_rekey`] on one side,
    /// [`Receiver::with_rekey`] on the other), journaled sensors
    /// ([`Sensor::with_journal`]) or any other custom endpoint
    /// configuration.
    pub fn with_parts(
        sensor: Sensor,
        receiver: Receiver,
        channel: FaultChannel,
        retry: RetryPolicy,
    ) -> Self {
        Link {
            sensor,
            channel,
            receiver,
            retry,
            stats: LinkStats::default(),
            frame_scratch: Vec::new(),
        }
    }

    /// The sending endpoint (epoch, seal and journal state inspection).
    pub fn sensor(&self) -> &Sensor {
        &self.sensor
    }

    /// The receiving endpoint (epoch and window state inspection).
    pub fn receiver(&self) -> &Receiver {
        &self.receiver
    }

    /// Session counters so far: the link's delivery counters plus the
    /// sensor's ([`Sensor::stats`]).
    pub fn stats(&self) -> LinkStats {
        let mut stats = self.sensor.stats();
        stats.merge(&self.stats);
        stats
    }

    /// Channel-side fault counters so far.
    pub fn channel_stats(&self) -> &ChannelStats {
        self.channel.stats()
    }

    /// Sends `payload` under the sensor's next sequence number
    /// ([`Sensor::seal_into`]).
    ///
    /// If the sensor's journal refuses every attempt to persist a due
    /// reservation record, nothing radiates: the message is counted lost
    /// instead (a zero-attempt, zero-length [`Delivery`] at the position
    /// the journal is stuck at).
    pub fn send(&mut self, payload: &[u8]) -> Delivery {
        let mut frame = std::mem::take(&mut self.frame_scratch);
        let delivery = match self.sensor.seal_into(payload, &mut frame) {
            Ok(sequence) => self.drive(sequence, &frame),
            Err(_) => {
                self.stats.messages_lost += 1;
                self.delivery(self.sensor.next_sequence(), 0)
            }
        };
        self.frame_scratch = frame;
        delivery
    }

    /// A brownout between the journal write and the radio
    /// ([`Sensor::abort`]): the frame is sealed but the channel never sees
    /// it, and the sensor reboots.
    pub fn abort_send(&mut self, payload: &[u8]) {
        let _ = self.sensor.abort(payload, &mut self.frame_scratch);
    }

    /// Simulates a sensor power loss mid-session ([`Sensor::reboot`]).
    pub fn reboot_sensor(&mut self) {
        self.sensor.reboot();
    }

    /// Sends `payload` under an explicit sequence number (does not advance
    /// the session counter).
    pub fn send_as(&mut self, sequence: u64, payload: &[u8]) -> Delivery {
        let mut frame = std::mem::take(&mut self.frame_scratch);
        self.sensor.seal_as_into(sequence, payload, &mut frame);
        let delivery = self.drive(sequence, &frame);
        self.frame_scratch = frame;
        delivery
    }

    /// Releases any frame still held by a reordering fault and returns the
    /// payloads the receiver accepts from it.
    pub fn flush(&mut self) -> Vec<(u64, Vec<u8>)> {
        let mut accepted = Vec::new();
        if let Some(frame) = self.channel.flush() {
            self.receive_frames(vec![frame], u64::MAX, &mut accepted);
            self.stats.late_deliveries += accepted.len();
        }
        accepted
    }

    /// A delivery of `sequence` under the sensor's epoch before any
    /// attempt.
    fn delivery(&self, sequence: u64, frame_len: usize) -> Delivery {
        Delivery {
            sequence,
            epoch: self.sensor.epoch(),
            frame_len,
            attempts: 0,
            delivered: false,
            payloads: Vec::new(),
            backoff_ms: 0.0,
        }
    }

    fn drive(&mut self, sequence: u64, frame: &[u8]) -> Delivery {
        let mut delivery = self.delivery(sequence, frame.len());
        for attempt in 0..self.retry.max_attempts.max(1) {
            delivery.attempts = attempt + 1;
            self.stats.frames_sent += 1;
            if attempt > 0 {
                self.stats.frames_retried += 1;
                delivery.backoff_ms += self.retry.timeout_ms(attempt - 1);
            }
            let arriving = self.channel.transmit(frame);
            let before = delivery.payloads.len();
            if self.receive_frames(arriving, sequence, &mut delivery.payloads) {
                delivery.delivered = true;
            }
            // Payloads surfacing now but carrying an older sequence number
            // missed their own send's deadline.
            self.stats.late_deliveries += delivery
                .payloads
                .iter()
                .skip(before)
                .filter(|&&(seq, _)| seq != sequence)
                .count();
            if delivery.delivered {
                break;
            }
        }
        if !delivery.delivered {
            self.stats.messages_lost += 1;
        }
        delivery
    }

    /// Feeds frames to the receiver; returns `true` if a frame carrying
    /// `want_sequence` was accepted.
    fn receive_frames(
        &mut self,
        frames: Vec<Vec<u8>>,
        want_sequence: u64,
        accepted: &mut Vec<(u64, Vec<u8>)>,
    ) -> bool {
        let mut got_wanted = false;
        for frame in frames {
            match self.receiver.receive(&frame) {
                Ok((sequence, payload)) => {
                    self.stats.frames_delivered += 1;
                    if sequence == want_sequence {
                        got_wanted = true;
                    }
                    accepted.push((sequence, payload));
                }
                Err(ReceiveError::Cipher(_)) => self.stats.auth_failed += 1,
                Err(ReceiveError::Replay(_)) => self.stats.replay_rejected += 1,
                Err(ReceiveError::MissingSequence | ReceiveError::FarFuture { .. }) => {
                    self.stats.rejected_other += 1;
                }
            }
        }
        got_wanted
    }
}

#[cfg(test)]
mod tests {
    use age_crypto::{AesCbc, ChaCha20, ChaCha20Poly1305};

    use super::*;
    use crate::persist::NvmStore;

    fn aead_link(plan: FaultPlan, retry: RetryPolicy) -> Link {
        Link::new(
            Box::new(ChaCha20Poly1305::new([0x42; 32])),
            Box::new(ChaCha20Poly1305::new([0x42; 32])),
            plan,
            retry,
        )
    }

    fn journaled_link(retry: RetryPolicy, journal: SequenceJournal) -> Link {
        Link::with_parts(
            Sensor::new(Box::new(ChaCha20Poly1305::new([0x42; 32]))).with_journal(journal),
            Receiver::new(Box::new(ChaCha20Poly1305::new([0x42; 32]))),
            FaultChannel::new(FaultPlan::NONE),
            retry,
        )
    }

    #[test]
    fn reliable_link_delivers_in_one_attempt() {
        let mut link = aead_link(FaultPlan::NONE, RetryPolicy::default());
        for i in 0..20u8 {
            let d = link.send(&[i; 30]);
            assert!(d.delivered);
            assert_eq!(d.attempts, 1);
            assert_eq!(d.payloads, vec![(u64::from(i), vec![i; 30])]);
        }
        assert_eq!(link.stats().frames_sent, 20);
        assert_eq!(link.stats().frames_retried, 0);
        assert_eq!(link.stats().messages_lost, 0);
    }

    #[test]
    fn retries_recover_dropped_frames() {
        let mut link = aead_link(FaultPlan::drops(0.4, 11), RetryPolicy::default());
        let mut retried = 0;
        let mut delivered = 0;
        for i in 0..100u8 {
            let d = link.send(&[i; 16]);
            delivered += usize::from(d.delivered);
            retried += (d.attempts - 1) as usize;
        }
        // Residual loss after 4 attempts at 40% drop is 0.4^4 ≈ 2.6%.
        assert!(delivered >= 90, "delivered only {delivered}/100");
        assert!(retried > 10, "a 40% drop rate must force retries");
        assert_eq!(link.stats().frames_retried, retried);
        assert_eq!(link.stats().messages_lost, 100 - delivered);
    }

    #[test]
    fn exhausted_retries_lose_the_message() {
        let mut link = aead_link(FaultPlan::drops(1.0, 1), RetryPolicy::default());
        let d = link.send(b"doomed");
        assert!(!d.delivered);
        assert_eq!(d.attempts, 4);
        assert_eq!(link.stats().messages_lost, 1);
    }

    #[test]
    fn corruption_is_rejected_and_repaired_by_retry() {
        let plan = FaultPlan {
            corrupt_rate: 0.5,
            ..FaultPlan::NONE
        };
        let mut link = aead_link(plan, RetryPolicy::default());
        let mut delivered = 0;
        for i in 0..50u8 {
            let d = link.send(&[i; 25]);
            if d.delivered {
                delivered += 1;
                // An accepted AEAD payload is authentic, never garbage.
                assert_eq!(d.payloads.last().unwrap().1, vec![i; 25]);
            }
        }
        // Residual loss after 4 attempts at 50% corruption is ~6%.
        assert!(delivered >= 40, "delivered only {delivered}/50");
        assert!(link.stats().auth_failed > 0, "corruption must be caught");
        assert_eq!(link.stats().messages_lost, 50 - delivered);
    }

    #[test]
    fn duplicates_are_absorbed_by_the_replay_window() {
        let plan = FaultPlan {
            duplicate_rate: 1.0,
            ..FaultPlan::NONE
        };
        let mut link = aead_link(plan, RetryPolicy::none());
        for i in 0..10u8 {
            let d = link.send(&[i; 8]);
            assert!(d.delivered);
            assert_eq!(d.payloads.len(), 1, "second copy must be rejected");
        }
        assert_eq!(link.stats().replay_rejected, 10);
    }

    #[test]
    fn reordering_resolves_via_retransmission() {
        let plan = FaultPlan {
            reorder_rate: 1.0,
            ..FaultPlan::NONE
        };
        let mut link = aead_link(plan, RetryPolicy::default());
        let d = link.send(b"first");
        // Attempt 1 is held back; attempt 2 releases it (and is itself held).
        assert!(d.delivered);
        assert_eq!(d.attempts, 2);
        assert_eq!(link.flush(), Vec::new(), "held retransmit is a replay");
    }

    #[test]
    fn every_wire_frame_is_the_sealed_fixed_size() {
        let mut link = aead_link(FaultPlan::lossy(0.3, 5), RetryPolicy::default());
        for i in 0..100u8 {
            let d = link.send(&[i; 40]);
            assert_eq!(d.frame_len, 40 + 28);
        }
        let stats = *link.channel_stats();
        assert!(stats.corrupted > 0 && stats.dropped > 0);
        assert!(stats.wire_lengths_constant());
        assert_eq!(stats.wire_min_len, Some(68));
    }

    #[test]
    fn unauthenticated_stream_cipher_still_transports() {
        let plan = FaultPlan {
            corrupt_rate: 0.3,
            ..FaultPlan::NONE
        };
        let mut link = Link::new(
            Box::new(ChaCha20::new([9; 32])),
            Box::new(ChaCha20::new([9; 32])),
            plan,
            RetryPolicy::none(),
        );
        // Corruption is invisible to a raw stream cipher unless it hits the
        // nonce; frames "deliver" but payload bytes may be garbage. The
        // receiver must never panic either way.
        let mut delivered = 0;
        for i in 0..50u8 {
            delivered += usize::from(link.send(&[i; 12]).delivered);
        }
        assert!(delivered > 30);
    }

    #[test]
    fn block_cipher_sessions_roundtrip() {
        let mut link = Link::new(
            Box::new(AesCbc::new([3; 16])),
            Box::new(AesCbc::new([3; 16])),
            FaultPlan::NONE,
            RetryPolicy::none(),
        );
        let d = link.send(&[1, 2, 3, 4, 5]);
        assert!(d.delivered);
        assert_eq!(d.payloads[0].1, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn wrong_key_frames_are_rejected_not_panicked() {
        let mut link = Link::new(
            Box::new(ChaCha20Poly1305::new([1; 32])),
            Box::new(ChaCha20Poly1305::new([2; 32])),
            FaultPlan::NONE,
            RetryPolicy::none(),
        );
        let d = link.send(b"forged");
        assert!(!d.delivered);
        assert_eq!(link.stats().auth_failed, 1);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.timeout_ms(0), 50.0);
        assert_eq!(p.timeout_ms(1), 100.0);
        assert_eq!(p.timeout_ms(2), 200.0);
        assert_eq!(p.timeout_ms(10), 800.0, "capped at max_timeout_ms");
        let lost = {
            let mut link = aead_link(FaultPlan::drops(1.0, 2), p);
            link.send(b"x")
        };
        assert_eq!(lost.backoff_ms, 50.0 + 100.0 + 200.0);
    }

    #[test]
    fn backoff_before_ms_replays_a_delivery_schedule() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_before_ms(0), 0.0);
        assert_eq!(p.backoff_before_ms(1), 0.0, "first attempt never waits");
        assert_eq!(p.backoff_before_ms(2), 50.0);
        assert_eq!(p.backoff_before_ms(4), 50.0 + 100.0 + 200.0);
        // The invariant the virtual clock relies on: the policy can
        // reconstruct a delivery's total wait from its attempt count.
        for (seed, rate) in [(1u64, 0.0), (2, 0.5), (3, 0.7), (4, 1.0)] {
            let mut link = aead_link(FaultPlan::drops(rate, seed), p);
            for _ in 0..8 {
                let d = link.send(b"x");
                assert_eq!(d.backoff_ms, p.backoff_before_ms(d.attempts));
            }
        }
    }

    #[test]
    fn receiver_flags_far_future_sequences() {
        let mut rx = Receiver::new(Box::new(ChaCha20::new([5; 32])));
        let tx = ChaCha20::new([5; 32]);
        rx.receive(&tx.seal(0, b"ok")).unwrap();
        let err = rx.receive(&tx.seal(1 << 40, b"way ahead")).unwrap_err();
        assert!(matches!(err, ReceiveError::FarFuture { .. }));
        // Legitimate traffic continues afterwards.
        assert!(rx.receive(&tx.seal(1, b"next")).is_ok());
    }

    #[test]
    fn an_empty_window_applies_no_skip_limit() {
        let tx = ChaCha20Poly1305::new([5; 32]);
        let mut rx = Receiver::new(Box::new(ChaCha20Poly1305::new([5; 32])));
        assert_eq!(rx.receive(&tx.seal(1500, b"late start")).unwrap().0, 1500);
        // The guard applies again from the first accepted sequence.
        assert_eq!(
            rx.receive(&tx.seal(1501 + MAX_SKIP, b"way ahead")),
            Err(ReceiveError::FarFuture {
                sequence: 1501 + MAX_SKIP,
                limit: 1500 + MAX_SKIP
            })
        );
        // A fresh rekeying receiver still derives no key past its budget
        // from epoch 0: the gap a re-provisioned rekeying session keeps.
        let (mut sensor, mut receiver) = rekey_pair(16);
        let budget = MAX_SKIP / 16 + 2;
        sensor.reboot_at(16 * (budget + 1));
        let past = sensor.seal(b"past the budget").unwrap().1;
        assert_eq!(
            receiver.receive(&past),
            Err(ReceiveError::Cipher(OpenError::TagMismatch))
        );
        sensor.reboot_at(16 * budget);
        let within = sensor.seal(b"within the budget").unwrap();
        assert_eq!(receiver.receive(&within.1).unwrap().0, within.0);
    }

    #[test]
    fn journaled_link_survives_reboots_without_nonce_reuse() {
        let mut link = journaled_link(
            RetryPolicy::none(),
            SequenceJournal::new(NvmStore::reliable(), 8),
        );
        let mut sequences = Vec::new();
        for round in 0..5u8 {
            for i in 0..7u8 {
                let d = link.send(&[round * 10 + i; 24]);
                assert!(d.delivered, "post-reboot frames must keep delivering");
                sequences.push(d.sequence);
            }
            link.reboot_sensor();
        }
        let mut unique = sequences.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), sequences.len(), "a sequence was reused");
        assert!(
            sequences.windows(2).all(|w| w[0] < w[1]),
            "journal sequences must be strictly increasing"
        );
        let stats = link.stats();
        assert_eq!(stats.sensor_reboots, 5);
        assert!(stats.journal_flushes > 0);
        assert!(stats.sequences_skipped > 0, "7 of each 8-block go unused");
        assert_eq!(stats.messages_lost, 0);
    }

    #[test]
    fn a_journal_attached_with_history_counts_only_what_the_link_did() {
        let mut journal = SequenceJournal::new(NvmStore::reliable(), 4);
        for _ in 0..6 {
            journal.reserve_next().unwrap();
        }
        journal.reboot();
        assert_eq!(journal.stats().flushes, 3, "two blocks and a checkpoint");
        let mut link = journaled_link(RetryPolicy::none(), journal);
        for i in 0..5u8 {
            assert_eq!(link.send(&[i; 8]).sequence, 8 + u64::from(i));
        }
        link.reboot_sensor();
        // Sequences 8 and 12 each open a block, the reboot checkpoints,
        // and recovery retires 13..16: the journal's earlier work is not
        // the link's.
        assert_eq!(
            link.stats(),
            LinkStats {
                frames_sent: 5,
                frames_delivered: 5,
                sensor_reboots: 1,
                journal_flushes: 3,
                sequences_skipped: 3,
                ..LinkStats::default()
            }
        );
    }

    #[test]
    fn reboot_without_a_journal_restarts_at_zero_and_replays() {
        // The negative path the journal exists to prevent: the RAM counter
        // resets, the sensor reseals under already-used nonces, and the
        // receiver's replay window rejects the whole post-reboot stream.
        let mut link = aead_link(FaultPlan::NONE, RetryPolicy::none());
        for i in 0..4u8 {
            assert!(link.send(&[i; 16]).delivered);
        }
        link.reboot_sensor();
        for i in 0..4u8 {
            let d = link.send(&[i; 16]);
            assert!(!d.delivered, "replayed nonce must be rejected");
        }
        assert_eq!(link.stats().replay_rejected, 4);
        assert_eq!(link.stats().sensor_reboots, 1);
    }

    #[test]
    fn abort_send_retires_the_sequence_without_radiating() {
        let mut link = journaled_link(RetryPolicy::none(), SequenceJournal::reliable());
        let first = link.send(b"before").sequence;
        let frames_on_wire = link.channel_stats().frames_in;
        link.abort_send(b"never radiates");
        assert_eq!(
            link.channel_stats().frames_in,
            frames_on_wire,
            "an aborted send must not reach the channel"
        );
        let resumed = link.send(b"after");
        assert!(resumed.delivered);
        assert!(
            resumed.sequence > first + 1,
            "the aborted frame's sequence number must be retired"
        );
    }

    #[test]
    fn journal_write_exhaustion_loses_the_message_without_sealing() {
        let plan = NvmFaultPlan {
            fail_rate: 1.0,
            torn_rate: 0.0,
            seed: 9,
        };
        let mut link = journaled_link(
            RetryPolicy::default(),
            SequenceJournal::new(NvmStore::new(plan), 8),
        );
        let d = link.send(b"unreservable");
        assert!(!d.delivered);
        assert_eq!(d.attempts, 0, "nothing may radiate without a reservation");
        assert_eq!(link.stats().messages_lost, 1);
        assert_eq!(link.channel_stats().frames_in, 0);
        let attempts = link
            .sensor()
            .journal()
            .unwrap()
            .nvm_stats()
            .writes_attempted;
        assert!(
            attempts >= SequenceJournal::WRITE_ATTEMPTS as usize,
            "every failed NVM attempt is billable"
        );
    }

    #[test]
    fn seal_as_below_the_high_water_mark_is_counted_and_asserted() {
        let mut sensor = Sensor::new(Box::new(ChaCha20Poly1305::new([0x42; 32])));
        for _ in 0..5 {
            let _ = sensor.seal(b"x").unwrap();
        }
        assert_eq!(sensor.highest_sealed, Some(4));
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sensor.seal_as_into(2, b"reused nonce", &mut Vec::new())
        }));
        // The count increments before the debug assertion fires, so the
        // risk is visible even where the assertion is compiled out.
        assert_eq!(sensor.reuse_risked(), 1);
        if cfg!(debug_assertions) {
            assert!(attempt.is_err(), "debug builds must trip the guard");
        } else {
            assert!(attempt.is_ok(), "release builds preserve legacy sealing");
        }
    }

    #[test]
    fn error_displays_are_informative() {
        let e = ReceiveError::Cipher(OpenError::TagMismatch);
        assert!(e.to_string().contains("failed to open"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ReceiveError::Replay(crate::replay::ReplayError::Replayed { sequence: 3 });
        assert!(e.to_string().contains("replay"));
        assert!(ReceiveError::MissingSequence.to_string().contains("short"));
        let e = ReceiveError::FarFuture {
            sequence: 9,
            limit: 5,
        };
        assert!(e.to_string().contains('9'));
    }

    // --- epoch rekeying ------------------------------------------------

    fn rekey_pair(interval: u64) -> (Sensor, Receiver) {
        let root = age_crypto::kdf::sensor_root(&age_crypto::kdf::fleet_secret(77), 3);
        (
            Sensor::with_rekey(root, interval, 0, chacha20poly1305_factory),
            Receiver::with_rekey(root, interval, 0, chacha20poly1305_factory),
        )
    }

    fn rekey_link(interval: u64, plan: FaultPlan, retry: RetryPolicy) -> Link {
        let (sensor, receiver) = rekey_pair(interval);
        Link::with_parts(sensor, receiver, FaultChannel::new(plan), retry)
    }

    #[test]
    fn probe_cache_never_outgrows_the_skip_budget() {
        let (mut sensor, mut receiver) = rekey_pair(16);
        let budget = MAX_SKIP / 16 + 2;
        let check = |receiver: &Receiver| {
            let rekey = receiver.rekey.as_deref().expect("rekeying receiver");
            assert!(rekey.ahead.len() as u64 <= budget, "{}", rekey.ahead.len());
            assert_eq!(
                rekey.ratchet.epoch(),
                receiver.epoch() + rekey.ahead.len() as u64,
                "the ratchet sits at the far end of the queue"
            );
            rekey.ahead.len() as u64
        };
        assert_eq!(check(&receiver), 0, "nothing is derived up front");
        // A forgery at the sequence it was sealed at opens under the
        // current key only: it derives nothing.
        let mut forged = sensor.seal(b"forged").unwrap().1;
        forged[20] ^= 1;
        assert_eq!(
            receiver.receive(&forged),
            Err(ReceiveError::Cipher(OpenError::TagMismatch))
        );
        assert_eq!(check(&receiver), 0);
        for round in 0..4u64 {
            // A forgery claiming a sequence past the budget is rejected
            // without an open and derives nothing...
            let cached = check(&receiver);
            forged[4..12].copy_from_slice(&(sensor.next_sequence() + 2 * MAX_SKIP).to_le_bytes());
            assert_eq!(
                receiver.receive(&forged),
                Err(ReceiveError::Cipher(OpenError::TagMismatch))
            );
            assert_eq!(check(&receiver), cached);
            // ...one inside the budget derives exactly up to its epoch...
            let ahead = 5 + round;
            let claimed = 16 * (receiver.epoch() + ahead);
            forged[4..12].copy_from_slice(&claimed.to_le_bytes());
            assert_eq!(
                receiver.receive(&forged),
                Err(ReceiveError::Cipher(OpenError::TagMismatch))
            );
            assert_eq!(check(&receiver), ahead);
            // ...a brownout jump consumes the entries it passes...
            sensor.reboot_at(sensor.next_sequence() + 16 * (3 + round));
            let before = receiver.epoch();
            assert!(receiver
                .receive(&sensor.seal(b"genuine").unwrap().1)
                .is_ok());
            assert_eq!(receiver.epoch(), before + 3 + round);
            assert_eq!(check(&receiver), 2);
            // ...and in-order rotations take one entry each.
            for i in 0..40u8 {
                assert!(receiver.receive(&sensor.seal(&[i; 8]).unwrap().1).is_ok());
                check(&receiver);
            }
        }
    }

    #[test]
    fn frames_older_than_the_previous_epoch_are_rejected_without_an_open() {
        let (mut sensor, mut receiver) = rekey_pair(4);
        let (_, stale) = sensor.seal(b"epoch zero").unwrap();
        let (_, short) = sensor.seal(b"").unwrap();
        for i in 0..8u8 {
            assert!(receiver.receive(&sensor.seal(&[i; 8]).unwrap().1).is_ok());
        }
        assert_eq!(receiver.epoch(), 2);
        // Sequence 0 sits in epoch 0, below every key the receiver holds:
        // it fails as the current key's open would have, without one.
        assert_eq!(
            receiver.receive(&stale),
            Err(ReceiveError::Cipher(OpenError::TagMismatch))
        );
        // A frame too short for the AEAD's framing still reads as
        // truncated.
        assert_eq!(
            receiver.receive(&short[..20]),
            Err(ReceiveError::Cipher(OpenError::Truncated {
                len: 20,
                min: 28
            }))
        );
        assert_eq!(receiver.stats().auth_failed, 2);
        assert_eq!(receiver.rekey.as_deref().map(|r| r.ahead.len()), Some(0));
    }

    #[test]
    fn rotations_follow_the_watermark_schedule() {
        let mut link = rekey_link(8, FaultPlan::NONE, RetryPolicy::none());
        let mut frame_lens = std::collections::BTreeSet::new();
        for i in 0..40u8 {
            let d = link.send(&[i; 32]);
            assert!(d.delivered);
            assert_eq!(d.epoch, epoch_of(d.sequence, 8, 0));
            frame_lens.insert(d.frame_len);
        }
        assert_eq!(link.sensor().epoch(), 4, "sequence 39 sits in epoch 4");
        assert_eq!(link.receiver().last_epoch(), 4);
        assert_eq!(link.stats().rotations, 4);
        assert_eq!(link.receiver().stats().epoch_advances, 4);
        assert_eq!(
            frame_lens.len(),
            1,
            "an epoch boundary must not change the frame size"
        );
        // A seal that loses power before the radio fires still rotated.
        link.abort_send(&[0; 32]);
        assert_eq!(link.stats().rotations, 5, "sequence 40 opened epoch 5");
    }

    #[test]
    fn receiver_tracks_epochs_across_a_lossy_channel() {
        let mut link = rekey_link(5, FaultPlan::drops(0.4, 21), RetryPolicy::default());
        let mut delivered = 0;
        for i in 0..60u8 {
            let d = link.send(&[i; 24]);
            if d.delivered {
                delivered += 1;
                assert_eq!(d.epoch, epoch_of(d.sequence, 5, 0));
            }
        }
        assert!(delivered >= 50, "delivered only {delivered}/60");
        assert_eq!(link.sensor().epoch(), 11);
        assert!(
            link.receiver().epoch() >= 10,
            "the receiver must follow rotations despite drops, reached {}",
            link.receiver().epoch()
        );
    }

    #[test]
    fn stragglers_from_the_previous_epoch_still_open() {
        // At interval 4, sequence 3 is the last frame of epoch 0. It
        // arrives after sequence 4 has moved the receiver to epoch 1, so it
        // opens under the retired key and counts as epoch_behind.
        let (mut sensor, mut receiver) = rekey_pair(4);
        for i in 0..3u8 {
            assert!(receiver.receive(&sensor.seal(&[i; 8]).unwrap().1).is_ok());
        }
        let (_, straggler) = sensor.seal(b"sealed in epoch zero").unwrap();
        assert!(receiver
            .receive(&sensor.seal(b"epoch one").unwrap().1)
            .is_ok());
        assert_eq!(receiver.epoch(), 1);
        let (sequence, payload) = receiver.receive(&straggler).unwrap();
        assert_eq!(sequence, 3);
        assert_eq!(payload, b"sealed in epoch zero");
        assert_eq!(receiver.last_epoch(), 0);
        assert_eq!(receiver.stats().epoch_behind, 1);
        assert_eq!(receiver.epoch(), 1, "a straggler never moves the epoch");
    }

    #[test]
    fn brownout_across_an_epoch_boundary_recovers_without_reuse() {
        // Reservation block 8, rekey interval 4: conservative reboot
        // recovery skips the rest of the block, landing the resumed
        // sequence in a *later* epoch than the journal ever recorded. The
        // sensor must resume on the watermark epoch and the receiver must
        // follow the multi-epoch jump.
        let (sensor, receiver) = rekey_pair(4);
        let mut link = Link::with_parts(
            sensor.with_journal(SequenceJournal::new(NvmStore::reliable(), 8)),
            receiver,
            FaultChannel::new(FaultPlan::NONE),
            RetryPolicy::none(),
        );
        for i in 0..6u8 {
            let d = link.send(&[i; 16]);
            assert!(d.delivered);
            assert_eq!(d.epoch, epoch_of(d.sequence, 4, 0));
        }
        assert_eq!(link.stats().rotations, 1, "sequence 4 crossed into epoch 1");
        // Power dies right after the reservation (and any due rotation's
        // journal write), before the frame radiates.
        link.abort_send(b"browned out");
        let d = link.send(b"after recovery");
        assert!(
            d.delivered,
            "the receiver must follow the post-brownout jump"
        );
        assert_eq!(d.epoch, epoch_of(d.sequence, 4, 0));
        assert!(d.epoch >= 2, "recovery skipped past an epoch boundary");
        assert_eq!(link.receiver().last_epoch(), d.epoch);
    }

    #[test]
    fn rekey_soak_with_faulty_nvm_and_channel_never_reuses_a_sequence() {
        // Brownouts (some inside the rotation window via abort_send), torn
        // and failing NVM writes, a lossy channel, and a rekey schedule all
        // at once: every frame that radiates must still carry a fresh
        // sequence number, and the link must keep making progress.
        let nvm = NvmFaultPlan {
            fail_rate: 0.1,
            torn_rate: 0.3,
            seed: 31,
        };
        let (sensor, receiver) = rekey_pair(6);
        let mut link = Link::with_parts(
            sensor.with_journal(SequenceJournal::new(NvmStore::new(nvm), 4)),
            receiver,
            FaultChannel::new(FaultPlan::lossy(0.2, 8)),
            RetryPolicy::default(),
        );
        let mut driver = age_telemetry::DetRng::seed_from_u64(5);
        let mut seen = std::collections::BTreeSet::new();
        let mut delivered = 0usize;
        for i in 0..400u32 {
            if driver.gen_bool(0.06) {
                if driver.gen_bool(0.5) {
                    link.abort_send(&[0xAB; 12]);
                } else {
                    link.reboot_sensor();
                }
            }
            let d = link.send(&[(i % 251) as u8; 12]);
            if d.attempts > 0 {
                assert!(
                    seen.insert(d.sequence),
                    "sequence {} radiated twice",
                    d.sequence
                );
            }
            delivered += usize::from(d.delivered);
        }
        let stats = link.stats();
        assert!(
            stats.rotations > 10,
            "the schedule must fire across the soak"
        );
        assert!(stats.sensor_reboots > 5, "the soak must actually brown out");
        assert!(delivered >= 360, "delivered only {delivered}/400");
        assert!(
            link.receiver().stats().epoch_advances > 0,
            "the receiver must have followed rotations"
        );
    }
}
