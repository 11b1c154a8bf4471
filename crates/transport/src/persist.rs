//! Simulated non-volatile memory and the write-ahead sequence reservation
//! journal that lets a sensor survive power loss without ever reusing a
//! nonce.
//!
//! The threat: every cipher in the workspace derives its nonce/IV
//! deterministically from the frame's sequence number, so a sensor that
//! keeps its counter only in RAM restarts at 0 after a brownout and reseals
//! under already-used (key, nonce) pairs — a catastrophic confidentiality
//! break. Persisting the counter once per frame would fix that but costs
//! one flash write per message on a device whose whole point is an energy
//! budget.
//!
//! The scheme here is the standard write-ahead reservation: before handing
//! out any sequence number of a new block of `K`, the journal persists the
//! block's *end* mark. RAM then serves `K` numbers for free; after a reboot
//! the sensor resumes past everything it may have reserved, conservatively
//! treating every reserved number as consumed. Sequence numbers are
//! plentiful and nonces must be unique, so skipping forward is always the
//! safe direction.
//!
//! [`NvmStore`] models the flash itself, with two deterministic fault modes
//! drawn from the workspace's [`DetRng`] (mirroring `FaultChannel`: a
//! store's misbehavior is a pure function of its seed):
//!
//! - a **failed** write is detected immediately — the read-back verify does
//!   not match — and the journal retries a bounded number of times; every
//!   attempt is billable energy.
//! - a **torn** write is one interrupted by the power loss itself. It can
//!   therefore only ever be the *last* record written before a reboot: if
//!   the device lived long enough to write again, the earlier record
//!   demonstrably completed. At recovery a torn record fails its checksum
//!   and its mark is unreadable, so recovery must treat it as "block fully
//!   consumed" and skip one full block past it.

use age_telemetry::DetRng;

/// Deterministic fault rates for simulated NVM writes, drawn from a
/// [`DetRng`] stream seeded by `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmFaultPlan {
    /// Probability that a write fails its read-back verify (detected at
    /// write time; the journal retries).
    pub fail_rate: f64,
    /// Probability that a write is torn — it will fail its checksum at
    /// recovery if power is lost before the next write completes.
    pub torn_rate: f64,
    /// Seed of the fault stream.
    pub seed: u64,
}

impl NvmFaultPlan {
    /// Perfectly reliable NVM.
    pub const NONE: NvmFaultPlan = NvmFaultPlan {
        fail_rate: 0.0,
        torn_rate: 0.0,
        seed: 0,
    };

    /// Whether this plan can never inject a fault.
    pub fn is_noop(&self) -> bool {
        self.fail_rate <= 0.0 && self.torn_rate <= 0.0
    }
}

/// One journal slot as recovery would read it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Never written (erased flash).
    Blank,
    /// A record whose checksum verifies, carrying a reservation end mark.
    Valid(u64),
    /// A record that fails its checksum — a write interrupted by power
    /// loss. The mark it tried to carry is unreadable.
    Torn,
}

/// Write/fault counters for one [`NvmStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NvmStats {
    /// Write attempts, failed ones included. Each attempt programs the
    /// flash and is billable energy.
    pub writes_attempted: usize,
    /// Attempts that failed their read-back verify (detected immediately).
    pub writes_failed: usize,
    /// Records torn by a power loss (discovered only at recovery).
    pub writes_torn: usize,
}

/// What [`NvmStore::recover`] read back from the slot ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveredState {
    /// The highest reservation end mark among records that checksum.
    pub highest_valid_mark: Option<u64>,
    /// Torn records in the ring. Each one's mark is unreadable, so recovery
    /// must presume each reserved (and consumed) one full block.
    pub torn_records: usize,
}

/// A small simulated flash region organised as a ring of journal slots.
///
/// Writes walk the ring so recovery still sees older records when the
/// newest one is torn. A write that draws "torn" is held *pending*: it
/// materialises as a torn record only if power is lost before the next
/// write begins — a later write proves the earlier one completed, so the
/// pending tear is promoted to a valid record.
pub struct NvmStore {
    slots: Vec<Slot>,
    cursor: usize,
    /// Slot index and mark of the most recent write, which would read back
    /// torn if power were lost right now.
    pending_tear: Option<usize>,
    plan: NvmFaultPlan,
    rng: DetRng,
    stats: NvmStats,
}

impl NvmStore {
    /// Slots in the ring. Recovery only needs the highest valid mark plus
    /// any torn records, so a handful suffices; the size also bounds how
    /// many stale torn records can linger (see [`SequenceJournal`]).
    pub const DEFAULT_SLOTS: usize = 8;

    /// A store misbehaving per `plan`, seeded from `plan.seed`.
    pub fn new(plan: NvmFaultPlan) -> Self {
        Self::with_seed(plan, plan.seed)
    }

    /// Like [`NvmStore::new`] but with an explicit fault-stream seed
    /// (overriding `plan.seed`), so sweeps can derive per-cell streams from
    /// one shared plan.
    pub fn with_seed(plan: NvmFaultPlan, seed: u64) -> Self {
        NvmStore {
            slots: vec![Slot::Blank; Self::DEFAULT_SLOTS],
            cursor: 0,
            pending_tear: None,
            plan,
            rng: DetRng::seed_from_u64(seed),
            stats: NvmStats::default(),
        }
    }

    /// Perfectly reliable NVM.
    pub fn reliable() -> Self {
        Self::new(NvmFaultPlan::NONE)
    }

    /// Write/fault counters so far.
    pub fn stats(&self) -> &NvmStats {
        &self.stats
    }

    /// Attempts to program `mark` into the next ring slot. Returns `true`
    /// if the write passed its read-back verify; a torn-pending write also
    /// returns `true` — tears are invisible until a power loss exposes
    /// them.
    fn write_mark(&mut self, mark: u64) -> bool {
        self.stats.writes_attempted += 1;
        // Fixed draw order (fail, then torn) keeps the fault stream stable
        // regardless of outcomes.
        let failed = self.rng.gen_bool(self.plan.fail_rate);
        let torn = self.rng.gen_bool(self.plan.torn_rate);
        let Some(slot) = self.slots.get_mut(self.cursor).filter(|_| !failed) else {
            self.stats.writes_failed += 1;
            return false;
        };
        *slot = Slot::Valid(mark);
        // Reaching the next write proves the previous one completed.
        self.pending_tear = None;
        if torn {
            self.pending_tear = Some(self.cursor);
        }
        self.cursor = (self.cursor + 1) % self.slots.len();
        true
    }

    /// The power loss itself: a pending tear, if any, materialises as a
    /// torn record.
    fn power_loss(&mut self) {
        if let Some(slot) = self.pending_tear.take().and_then(|i| self.slots.get_mut(i)) {
            *slot = Slot::Torn;
            self.stats.writes_torn += 1;
        }
    }

    /// Reads the whole ring back, as recovery after a reboot would.
    pub fn recover(&self) -> RecoveredState {
        let mut state = RecoveredState::default();
        for slot in &self.slots {
            match slot {
                Slot::Blank => {}
                Slot::Torn => state.torn_records += 1,
                Slot::Valid(mark) => {
                    state.highest_valid_mark =
                        Some(state.highest_valid_mark.map_or(*mark, |m| m.max(*mark)));
                }
            }
        }
        state
    }
}

/// The journal could not hand out a sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalError {
    /// Every write attempt for a reservation record failed its verify. No
    /// sequence number may be handed out — sealing under an unreserved
    /// number is exactly the nonce-reuse hazard the journal prevents.
    NvmWriteFailed {
        /// Write attempts consumed (all billable).
        attempts: u32,
    },
    /// The 64-bit sequence space is exhausted (unreachable in practice; it
    /// exists so the journal can refuse instead of wrapping a nonce).
    SequenceSpaceExhausted,
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::NvmWriteFailed { attempts } => write!(
                f,
                "NVM rejected the reservation record {attempts} times; refusing to seal"
            ),
            JournalError::SequenceSpaceExhausted => {
                f.write_str("64-bit sequence space exhausted; refusing to wrap a nonce")
            }
        }
    }
}

impl std::error::Error for JournalError {}

/// Counters for one [`SequenceJournal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JournalStats {
    /// Journal records successfully persisted: one reservation per `K`
    /// frames in steady state, plus one checkpoint per recovery.
    pub flushes: usize,
    /// Reboots recovered from.
    pub reboots: usize,
    /// Sequence numbers retired unused by conservative recovery.
    pub sequences_skipped: u64,
}

/// Write-ahead sequence number reservation over an [`NvmStore`].
///
/// Invariants:
///
/// 1. **Write-ahead**: a record reserving `[end − K, end)` is persisted
///    *before* any number in that range is handed out.
/// 2. **Conservative recovery**: after a reboot the journal resumes at the
///    highest valid mark — every reserved number is presumed consumed —
///    plus one full block per torn record still in the ring, since a torn
///    record's own mark is unreadable.
/// 3. **Recovery checkpoint**: recovery immediately persists the resumed
///    position, so the valid high-water mark re-anchors above any stale
///    torn records and the skip does not compound across reboots.
///
/// Together these guarantee no sequence number is ever handed out twice
/// across any pattern of reboots, torn writes, and failed writes: a torn
/// record can only be the newest record (power loss *is* what tears it), so
/// everything ever reserved lies at or below `highest_valid_mark +
/// torn_records · K`, which is exactly where recovery resumes. The cost is
/// bounded waste — typically at most `2K` numbers retired per reboot, and
/// never more than `NvmStore::DEFAULT_SLOTS · K`, which must stay within
/// the receiver's far-future guard (`MAX_SKIP`) for recovered
/// traffic to be accepted. The defaults give 128 ≪ 1024.
///
/// Every record is a plain reservation mark. A rekeying sensor journals no
/// epoch: its key epoch is `epoch_of` the recovered position, so recovery
/// needs nothing else, and a rotation costs no flash write.
pub struct SequenceJournal {
    nvm: NvmStore,
    block: u64,
    /// Exclusive end of the persisted reservation. RAM may hand out numbers
    /// strictly below this.
    reserved_end: u64,
    /// Next number to hand out (RAM only — lost on reboot).
    next: u64,
    stats: JournalStats,
}

impl SequenceJournal {
    /// Default reservation block size `K`: one NVM write per 16 frames,
    /// and a typical post-reboot jump of at most 32 — far inside the
    /// receiver's 1024-frame far-future guard.
    pub const DEFAULT_BLOCK: u64 = 16;

    /// Write attempts per journal record before giving up.
    pub const WRITE_ATTEMPTS: u32 = 4;

    /// A journal over `nvm` reserving `block` numbers per record (`block`
    /// is clamped to at least 1). If the store already holds records — a
    /// sensor powering up mid-deployment — the journal resumes from them.
    pub fn new(nvm: NvmStore, block: u64) -> Self {
        let block = block.max(1);
        let recovered = nvm.recover();
        let next = Self::resume_point(&recovered, block);
        SequenceJournal {
            nvm,
            block,
            reserved_end: next,
            next,
            stats: JournalStats::default(),
        }
    }

    /// A journal with the default block size over reliable NVM.
    pub fn reliable() -> Self {
        Self::new(NvmStore::reliable(), Self::DEFAULT_BLOCK)
    }

    /// The reservation block size `K`.
    pub fn block(&self) -> u64 {
        self.block
    }

    /// The sequence number the next [`reserve_next`](Self::reserve_next)
    /// will return (assuming its NVM write, if one is due, succeeds).
    pub fn next(&self) -> u64 {
        self.next
    }

    /// Exclusive end of the persisted reservation.
    pub fn reserved_end(&self) -> u64 {
        self.reserved_end
    }

    /// Replaces the store's fault rates from the next write on; rates of 0
    /// or 1 fix each write's outcome for a model checker.
    pub fn set_nvm_faults(&mut self, plan: NvmFaultPlan) {
        self.nvm.plan = plan;
    }

    /// Journal counters so far.
    pub fn stats(&self) -> &JournalStats {
        &self.stats
    }

    /// The underlying store's counters (write *attempts* are the
    /// energy-billable quantity).
    pub fn nvm_stats(&self) -> &NvmStats {
        self.nvm.stats()
    }

    /// Reserves and returns the next sequence number, persisting a new
    /// block record first whenever the RAM counter has exhausted the
    /// current reservation (invariant 1).
    ///
    /// # Errors
    ///
    /// [`JournalError::NvmWriteFailed`] when every write attempt failed its
    /// verify; no number is handed out.
    pub fn reserve_next(&mut self) -> Result<u64, JournalError> {
        if self.next == u64::MAX {
            return Err(JournalError::SequenceSpaceExhausted);
        }
        if self.next >= self.reserved_end {
            let new_end = self.reserved_end.saturating_add(self.block);
            self.persist_mark(new_end)?;
            self.reserved_end = new_end;
        }
        self.next += 1;
        Ok(self.next - 1)
    }

    /// Simulates a power loss: RAM state is discarded and rebuilt from the
    /// store (invariant 2), then the resumed position is checkpointed
    /// (invariant 3). Returns how many sequence numbers the recovery
    /// retired unused.
    pub fn reboot(&mut self) -> u64 {
        self.nvm.power_loss();
        let recovered = self.nvm.recover();
        let resumed = Self::resume_point(&recovered, self.block);
        // Never resume below the RAM position: with write-ahead reservation
        // recovery always lands at or past it, but the defensive max keeps
        // "never reuse" independent of the store's behavior.
        let resumed = resumed.max(self.next);
        let skipped = resumed - self.next;
        self.next = resumed;
        self.reserved_end = resumed;
        self.stats.reboots += 1;
        self.stats.sequences_skipped += skipped;
        // Checkpoint; a failure here is survivable (recovery stays sound,
        // the next reservation will retry the NVM anyway).
        let _ = self.persist_mark(resumed);
        skipped
    }

    /// Writes one journal record, retrying failed attempts up to
    /// [`WRITE_ATTEMPTS`](Self::WRITE_ATTEMPTS).
    fn persist_mark(&mut self, mark: u64) -> Result<(), JournalError> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            if self.nvm.write_mark(mark) {
                self.stats.flushes += 1;
                return Ok(());
            }
            if attempts >= Self::WRITE_ATTEMPTS {
                return Err(JournalError::NvmWriteFailed { attempts });
            }
        }
    }

    /// The safe resume point for a recovered state: the highest valid mark
    /// (all its numbers presumed consumed), plus a full block per torn
    /// record whose own mark is unreadable.
    fn resume_point(recovered: &RecoveredState, block: u64) -> u64 {
        recovered
            .highest_valid_mark
            .unwrap_or(0)
            .saturating_add(block.saturating_mul(recovered.torn_records as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserves_in_blocks_with_one_write_per_block() {
        let mut journal = SequenceJournal::new(NvmStore::reliable(), 8);
        for i in 0..24u64 {
            assert_eq!(journal.reserve_next().unwrap(), i);
        }
        assert_eq!(journal.stats().flushes, 3, "24 frames / K=8 = 3 writes");
        assert_eq!(journal.nvm_stats().writes_attempted, 3);
        assert_eq!(journal.reserved_end(), 24);
    }

    #[test]
    fn reboot_resumes_at_the_reserved_high_water_mark() {
        let mut journal = SequenceJournal::new(NvmStore::reliable(), 8);
        for _ in 0..11 {
            journal.reserve_next().unwrap();
        }
        // 11 used out of [0, 16) reserved: recovery retires the other 5.
        let skipped = journal.reboot();
        assert_eq!(skipped, 5);
        assert_eq!(journal.next(), 16);
        assert_eq!(journal.reserve_next().unwrap(), 16);
        assert_eq!(journal.stats().sequences_skipped, 5);
        assert_eq!(journal.stats().reboots, 1);
    }

    #[test]
    fn reboot_at_a_block_boundary_skips_nothing() {
        let mut journal = SequenceJournal::new(NvmStore::reliable(), 4);
        for _ in 0..8 {
            journal.reserve_next().unwrap();
        }
        assert_eq!(journal.reboot(), 0, "reservation exactly consumed");
        assert_eq!(journal.next(), 8);
    }

    #[test]
    fn torn_record_counts_as_a_fully_consumed_block() {
        // Every write tears if power is lost before the next one.
        let plan = NvmFaultPlan {
            fail_rate: 0.0,
            torn_rate: 1.0,
            seed: 7,
        };
        let mut journal = SequenceJournal::new(NvmStore::new(plan), 8);
        assert_eq!(journal.reserve_next().unwrap(), 0);
        // Recovery sees no valid mark, one torn record: resume at 0 + K.
        let skipped = journal.reboot();
        assert_eq!(skipped, 7, "1 used, block of 8 presumed consumed");
        assert_eq!(journal.next(), 8);
    }

    #[test]
    fn a_completed_write_is_proven_untorn_by_its_successor() {
        let plan = NvmFaultPlan {
            fail_rate: 0.0,
            torn_rate: 1.0,
            seed: 7,
        };
        let mut journal = SequenceJournal::new(NvmStore::new(plan), 4);
        // Two reservation records: the first demonstrably completed
        // (the device lived to write the second), so only the second can
        // tear. Recovery resumes at 4 (valid) + 4 (one torn block) = 8.
        for i in 0..5u64 {
            assert_eq!(journal.reserve_next().unwrap(), i);
        }
        journal.reboot();
        assert_eq!(journal.next(), 8);
        assert_eq!(journal.nvm_stats().writes_torn, 1);
    }

    #[test]
    fn failed_writes_are_retried_and_billed() {
        // Fail roughly half the writes; retries must absorb them.
        let plan = NvmFaultPlan {
            fail_rate: 0.5,
            torn_rate: 0.0,
            seed: 3,
        };
        let mut journal = SequenceJournal::new(NvmStore::new(plan), 4);
        let mut handed = 0u64;
        for _ in 0..64 {
            if let Ok(seq) = journal.reserve_next() {
                assert_eq!(seq, handed, "sequences stay gapless while alive");
                handed += 1;
            }
        }
        let stats = *journal.nvm_stats();
        assert!(
            stats.writes_failed > 0,
            "the plan must actually fail writes"
        );
        assert!(
            stats.writes_attempted > journal.stats().flushes,
            "every retry is a billable attempt"
        );
    }

    #[test]
    fn exhausted_write_attempts_refuse_to_hand_out_a_sequence() {
        let plan = NvmFaultPlan {
            fail_rate: 1.0,
            torn_rate: 0.0,
            seed: 1,
        };
        let mut journal = SequenceJournal::new(NvmStore::new(plan), 4);
        let err = journal.reserve_next().unwrap_err();
        assert_eq!(
            err,
            JournalError::NvmWriteFailed {
                attempts: SequenceJournal::WRITE_ATTEMPTS
            }
        );
        assert!(err.to_string().contains("refusing to seal"));
        assert_eq!(journal.next(), 0, "nothing was handed out");
    }

    #[test]
    fn no_sequence_is_ever_reused_across_random_reboots() {
        // Property-style soak: random reboot points, torn and failed writes,
        // all deterministic. Every number handed out must be unique.
        let plan = NvmFaultPlan {
            fail_rate: 0.2,
            torn_rate: 0.3,
            seed: 42,
        };
        let mut journal = SequenceJournal::new(NvmStore::new(plan), 8);
        let mut driver = DetRng::seed_from_u64(99);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            if driver.gen_bool(0.05) {
                journal.reboot();
            }
            if let Ok(seq) = journal.reserve_next() {
                assert!(seen.insert(seq), "sequence {seq} handed out twice");
            }
        }
        assert!(seen.len() > 1000, "the soak must make real progress");
    }

    #[test]
    fn journal_resumes_from_a_pre_used_store() {
        let mut store = NvmStore::reliable();
        assert!(store.write_mark(40));
        let journal = SequenceJournal::new(store, 8);
        assert_eq!(journal.next(), 40);
    }

    #[test]
    fn a_sensor_powering_up_on_a_used_store_resumes_from_its_records() {
        use crate::link::{chacha20poly1305_factory, Link, LinkStats, Receiver, Sensor};
        use crate::{FaultChannel, FaultPlan, RetryPolicy};
        let mut store = NvmStore::reliable();
        assert!(store.write_mark(40));
        let root = [9; 32];
        let sensor = Sensor::with_rekey(root, 16, 0, chacha20poly1305_factory)
            .with_journal(SequenceJournal::new(store, 8));
        assert_eq!((sensor.next_sequence(), sensor.epoch()), (40, 2));
        assert_eq!(sensor.stats(), LinkStats::default(), "nothing done yet");
        let mut link = Link::with_parts(
            sensor,
            Receiver::with_rekey(root, 16, 0, chacha20poly1305_factory),
            FaultChannel::new(FaultPlan::NONE),
            RetryPolicy::none(),
        );
        let d = link.send(b"first after power-up");
        assert!(d.delivered);
        assert_eq!((d.sequence, d.epoch), (40, 2));
        assert_eq!(
            link.stats(),
            LinkStats {
                frames_sent: 1,
                frames_delivered: 1,
                journal_flushes: 1,
                ..LinkStats::default()
            }
        );
    }

    #[test]
    fn a_store_from_another_interval_resumes_on_the_watermark_epoch() {
        // The store holds a position, never an epoch: mark 40 lies in
        // epoch 2 at interval 16 but in epoch 1 at interval 32, and the
        // sensor takes the epoch from its own schedule.
        use crate::link::{chacha20poly1305_factory, epoch_of, Receiver, Sensor};
        let mut store = NvmStore::reliable();
        assert!(store.write_mark(40));
        let root = [9; 32];
        let mut sensor = Sensor::with_rekey(root, 32, 0, chacha20poly1305_factory)
            .with_journal(SequenceJournal::new(store, 8));
        assert_eq!((sensor.next_sequence(), sensor.epoch()), (40, 1));
        let mut receiver = Receiver::with_rekey(root, 32, 0, chacha20poly1305_factory);
        for i in 0..30u8 {
            let (sequence, frame) = sensor.seal(&[i; 12]).unwrap();
            assert_eq!(sensor.epoch(), epoch_of(sequence, 32, 0));
            assert_eq!(receiver.receive(&frame).unwrap().0, sequence);
        }
        assert_eq!(receiver.stats().accepted, 30);
        assert_eq!(receiver.stats().auth_failed, 0);
        assert_eq!(sensor.epoch(), 2, "sequence 64 crossed into epoch 2");
    }

    #[test]
    fn recovery_reads_the_highest_mark_across_the_ring() {
        let mut store = NvmStore::reliable();
        // More writes than slots: the ring wraps, marks stay monotone.
        for mark in (8..=96).step_by(8) {
            assert!(store.write_mark(mark));
        }
        let recovered = store.recover();
        assert_eq!(recovered.highest_valid_mark, Some(96));
        assert_eq!(recovered.torn_records, 0);
    }

    #[test]
    fn post_reboot_jump_stays_within_the_far_future_guard() {
        let plan = NvmFaultPlan {
            fail_rate: 0.1,
            torn_rate: 0.5,
            seed: 11,
        };
        let block = 8;
        let bound = block * (NvmStore::DEFAULT_SLOTS as u64 + 1);
        let mut journal = SequenceJournal::new(NvmStore::new(plan), block);
        let mut driver = DetRng::seed_from_u64(5);
        let mut last = None;
        for _ in 0..500 {
            if driver.gen_bool(0.1) {
                let skipped = journal.reboot();
                assert!(
                    skipped <= bound,
                    "recovery jump {skipped} exceeds the ring bound {bound}"
                );
            }
            if let Ok(seq) = journal.reserve_next() {
                if let Some(prev) = last {
                    assert!(seq > prev);
                }
                last = Some(seq);
            }
        }
    }

    /// A rekeying sensor (`interval`, phase 0) over a journal of `block`
    /// on `nvm`.
    fn rekeying_sensor(interval: u64, nvm: NvmStore, block: u64) -> crate::link::Sensor {
        use crate::link::{chacha20poly1305_factory, Sensor};
        Sensor::with_rekey([5; 32], interval, 0, chacha20poly1305_factory)
            .with_journal(SequenceJournal::new(nvm, block))
    }

    #[test]
    fn a_rotation_survives_reboot_without_an_epoch_record() {
        use crate::link::epoch_of;
        let mut sensor = rekeying_sensor(4, NvmStore::reliable(), 8);
        for _ in 0..5 {
            sensor.seal(b"x").unwrap();
        }
        assert_eq!((sensor.epoch(), sensor.stats().rotations), (1, 1));
        assert_eq!(
            sensor.stats().journal_flushes,
            1,
            "one reservation, no epoch record"
        );
        sensor.reboot();
        assert_eq!(sensor.next_sequence(), 8, "sequence recovery is unaffected");
        assert_eq!(
            sensor.epoch(),
            epoch_of(8, 4, 0),
            "resumed on the watermark"
        );
        assert_eq!(
            sensor.stats().journal_flushes,
            2,
            "plus the recovery checkpoint"
        );
    }

    #[test]
    fn a_torn_record_across_a_rotation_resumes_on_the_watermark_epoch() {
        // Power dies right after the rotation: the only record tears, so
        // recovery presumes its whole block consumed and lands past the
        // rotation, on that position's watermark epoch.
        use crate::link::epoch_of;
        let plan = NvmFaultPlan {
            fail_rate: 0.0,
            torn_rate: 1.0,
            seed: 13,
        };
        let mut sensor = rekeying_sensor(4, NvmStore::new(plan), 8);
        for _ in 0..5 {
            sensor.seal(b"x").unwrap();
        }
        assert_eq!(sensor.epoch(), 1, "sequence 4 rotated in RAM");
        let before = sensor.next_sequence();
        sensor.reboot();
        assert_eq!(sensor.journal().unwrap().nvm_stats().writes_torn, 1);
        assert!(
            sensor.next_sequence() >= before,
            "recovery still resumes past every handed-out sequence"
        );
        assert_eq!(sensor.epoch(), epoch_of(sensor.next_sequence(), 4, 0));
    }

    #[test]
    fn a_rotation_burst_cannot_evict_the_sequence_mark() {
        // More rotations than ring slots between two reservations: a
        // rotation writes nothing, so the ring holds only marks and
        // recovery resumes past the reservation end.
        let mut sensor = rekeying_sensor(1, NvmStore::reliable(), 32);
        for _ in 0..(NvmStore::DEFAULT_SLOTS + 9) {
            sensor.seal(b"x").unwrap();
        }
        assert_eq!(
            sensor.stats().rotations,
            NvmStore::DEFAULT_SLOTS + 8,
            "every sequence opened an epoch"
        );
        assert_eq!(sensor.stats().journal_flushes, 1, "one reservation only");
        let reserved = sensor.journal().unwrap().reserved_end();
        sensor.reboot();
        assert!(
            sensor.next_sequence() >= reserved,
            "resumed at {} below the reservation end {reserved}",
            sensor.next_sequence()
        );
    }

    #[test]
    fn the_epoch_survives_ring_eviction_by_reservations() {
        // Enough reservation traffic to wrap the ring many times: the
        // epoch is a function of the recovered position, so no record
        // has to survive for it.
        use crate::link::epoch_of;
        let mut sensor = rekeying_sensor(4, NvmStore::reliable(), 4);
        for _ in 0..(4 * (NvmStore::DEFAULT_SLOTS as u64 + 4)) {
            sensor.seal(b"x").unwrap();
        }
        let before = sensor.epoch();
        sensor.reboot();
        assert!(
            sensor.epoch() >= before,
            "recovery never rolls the key back"
        );
        assert_eq!(sensor.epoch(), epoch_of(sensor.next_sequence(), 4, 0));
    }

    #[test]
    fn no_sequence_reuse_across_reboots_with_rotations_interleaved() {
        use crate::link::epoch_of;
        let plan = NvmFaultPlan {
            fail_rate: 0.2,
            torn_rate: 0.3,
            seed: 17,
        };
        let mut sensor = rekeying_sensor(3, NvmStore::new(plan), 8);
        let mut driver = DetRng::seed_from_u64(23);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2000 {
            if driver.gen_bool(0.05) {
                sensor.reboot();
            }
            if let Ok((seq, _)) = sensor.seal(b"x") {
                assert!(seen.insert(seq), "sequence {seq} handed out twice");
                assert_eq!(
                    sensor.epoch(),
                    epoch_of(seq, 3, 0),
                    "sealed off its watermark"
                );
            }
        }
        assert!(seen.len() > 1000, "the soak must make real progress");
        assert!(
            sensor.stats().rotations > 300,
            "the schedule fired throughout"
        );
    }
}
