//! Nonce-uniqueness auditing.
//!
//! Every cipher in the workspace derives its nonce/IV deterministically
//! from the frame's sequence number, so "no nonce is ever reused" reduces
//! to: within one key epoch of one sender, no sequence number is sealed
//! twice. [`FleetNonceAudit`] checks exactly that on integer
//! `(sender, epoch, sequence)` keys — the backstop behind the
//! sequence-reservation journal, and the proof that a sensor rebooting
//! *without* one is broken.
//!
//! The fleet simulator feeds it directly. The gateway does not: each of
//! its sessions keeps a [`NonceLedger`] of the sequences it accepted, so
//! the per-frame check touches only the session the lookup already
//! loaded, and the shard [`count`](FleetNonceAudit::count)s the frame
//! (and any reuse) in an audit whose seen-sets stay empty. The report
//! rebuilds the full audit from the ledgers'
//! [runs](FleetNonceAudit::insert_run). The experiment runner audits
//! each run's own sealed frames and hands the finished audit to the
//! installed sinks once ([`Sink::record_nonces`]), where a
//! [`NonceAuditSink`] sums them into [`NonceTotals`]. Uniqueness is a
//! per-run property, so runs need no process-wide numbering to stay
//! apart, and sums commute: reports are byte-identical at any thread
//! count.
//!
//! # Examples
//!
//! ```
//! use age_telemetry::FleetNonceAudit;
//!
//! let mut audit = FleetNonceAudit::new();
//! audit.observe(0, 0, 0);
//! audit.observe(0, 0, 1);
//! assert!(audit.is_clean());
//! audit.observe(0, 0, 0); // a reboot re-sealed sequence 0
//! assert!(!audit.is_clean());
//! assert_eq!(audit.violations()[0].first, 0);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::record::BatchRecord;
use crate::sink::Sink;

/// An inclusive run of sequence numbers under a key: the epoch in a
/// [`NonceLedger`], none in a [`SeqSet`]. Runs sort by `(key, lo)`, and
/// only runs under the same key glue.
trait Run: Copy {
    /// `(key, lo, hi)`.
    fn parts(self) -> (u64, u64, u64);
    fn from_parts(key: u64, lo: u64, hi: u64) -> Self;
}

impl Run for (u64, u64) {
    fn parts(self) -> (u64, u64, u64) {
        (0, self.0, self.1)
    }
    fn from_parts(_: u64, lo: u64, hi: u64) -> Self {
        (lo, hi)
    }
}

impl Run for (u64, u64, u64) {
    fn parts(self) -> (u64, u64, u64) {
        self
    }
    fn from_parts(key: u64, lo: u64, hi: u64) -> Self {
        (key, lo, hi)
    }
}

/// Inserts `run` into `runs` (sorted, disjoint, no two same-key runs
/// adjacent) and keeps them so, gluing it to an adjacent same-key
/// neighbour on either side. Returns `false`, changing nothing, if `run`
/// overlaps a run already there. The one copy of the glue logic: every
/// sequence set in this module inserts through it.
fn insert_disjoint<R: Run>(runs: &mut Vec<R>, run: R) -> bool {
    let (key, lo, hi) = run.parts();
    let idx = runs.partition_point(|r| {
        let (k, _, h) = r.parts();
        (k, h) < (key, lo)
    });
    let right = runs.get(idx).map(|r| r.parts());
    if right.is_some_and(|(k, l, _)| (k, l) <= (key, hi)) {
        return false;
    }
    let left = idx
        .checked_sub(1)
        .and_then(|i| runs.get(i))
        .map(|r| r.parts());
    let glue_left = left.filter(|&(k, _, h)| k == key && h.checked_add(1) == Some(lo));
    let glue_right = right.filter(|&(k, l, _)| k == key && hi.checked_add(1) == Some(l));
    let (at, lo, hi) = match (glue_left, glue_right) {
        (None, None) => {
            runs.insert(idx, run);
            return true;
        }
        (Some((_, l, _)), Some((_, _, h))) => {
            runs.remove(idx);
            (idx - 1, l, h)
        }
        (Some((_, l, _)), None) => (idx - 1, l, hi),
        (None, Some((_, _, h))) => (idx, lo, h),
    };
    if let Some(slot) = runs.get_mut(at) {
        *slot = R::from_parts(key, lo, hi);
    }
    true
}

/// A set of `u64` sequence numbers stored as sorted, disjoint, inclusive
/// runs.
///
/// Fleet traffic is overwhelmingly monotone — each sensor seals sequence
/// `n + 1` right after `n` — so the common case is *extending the last run
/// in place*, which touches no heap once the run vector has its working
/// capacity.
///
/// Out-of-order arrivals (a replay window tolerates up to 64 of skew)
/// create short-lived holes; inserts coalesce neighbouring runs as the
/// holes fill, so the vector stays tiny.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeqSet {
    runs: Vec<(u64, u64)>,
}

impl SeqSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `seq`, returning `true` if it was newly added and `false`
    /// if it was already present (a duplicate — for nonce auditing, a
    /// reuse). Appending one past the highest run extends it in place
    /// without allocating.
    pub fn insert(&mut self, seq: u64) -> bool {
        insert_disjoint(&mut self.runs, (seq, seq))
    }

    /// Whether `seq` is in the set.
    pub fn contains(&self, seq: u64) -> bool {
        let idx = self.runs.partition_point(|&(_, end)| end < seq);
        self.runs.get(idx).is_some_and(|&(start, _)| start <= seq)
    }

    /// Number of sequences covered (saturating at `u64::MAX`).
    pub fn count(&self) -> u64 {
        self.runs.iter().fold(0u64, |acc, &(start, end)| {
            acc.saturating_add((end - start).saturating_add(1))
        })
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The sorted, disjoint, inclusive runs.
    pub fn runs(&self) -> &[(u64, u64)] {
        &self.runs
    }

    /// The set union. Used by the commutative fleet merge.
    pub fn union(a: &SeqSet, b: &SeqSet) -> SeqSet {
        let mut out: Vec<(u64, u64)> = Vec::with_capacity(a.runs.len() + b.runs.len());
        let (mut xs, mut ys) = (a.runs.iter().peekable(), b.runs.iter().peekable());
        loop {
            let next = match (xs.peek(), ys.peek()) {
                (Some(x), Some(y)) if y.0 < x.0 => ys.next(),
                (Some(_), _) => xs.next(),
                (None, _) => ys.next(),
            };
            let Some(&next) = next else { break };
            match out.last_mut() {
                Some(last) if next.0 <= last.1.saturating_add(1) => last.1 = last.1.max(next.1),
                _ => out.push(next),
            }
        }
        SeqSet { runs: out }
    }

    /// The set intersection. A non-empty intersection between two shards'
    /// per-sensor sets is the cross-shard reuse signature the fleet merge
    /// records as a violation.
    pub fn intersection(a: &SeqSet, b: &SeqSet) -> SeqSet {
        let mut out = Vec::new();
        let (mut xs, mut ys) = (a.runs.iter().peekable(), b.runs.iter().peekable());
        while let (Some(&&x), Some(&&y)) = (xs.peek(), ys.peek()) {
            let lo = x.0.max(y.0);
            let hi = x.1.min(y.1);
            if lo <= hi {
                out.push((lo, hi));
            }
            if x.1 < y.1 {
                xs.next();
            } else {
                ys.next();
            }
        }
        SeqSet { runs: out }
    }
}

/// One gateway session's nonce ledger: the sorted, disjoint, inclusive
/// `(epoch, lo, hi)` runs of the sequence numbers it accepted, each under
/// the key epoch it opened in.
///
/// A session keeps its ledger beside its receiver, so the per-frame
/// nonce check touches memory the session lookup already loaded instead
/// of a shard-wide map. A ledger is created by its first frame and never
/// empty. The highest run is held apart from the rest: a monotone stream
/// extends it in place, and a static session's whole ledger is one
/// 48-byte allocation. [`FleetNonceAudit::insert_run`] folds the runs
/// back into an audit at report time.
///
/// ```
/// use age_telemetry::NonceLedger;
///
/// let mut ledger = NonceLedger::new(0, 0);
/// assert!(ledger.insert(0, 1));
/// assert!(ledger.insert(1, 2)); // the key rotated
/// assert!(!ledger.insert(0, 0)); // a reuse
/// assert_eq!(ledger.runs().collect::<Vec<_>>(), [(0, 0, 1), (1, 2, 2)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonceLedger {
    /// Every run but the highest, sorted.
    below: Vec<(u64, u64, u64)>,
    /// The highest run in `(epoch, lo)` order.
    top: (u64, u64, u64),
}

impl NonceLedger {
    /// A ledger holding `sequence` under `epoch`.
    pub fn new(epoch: u64, sequence: u64) -> Self {
        NonceLedger {
            below: Vec::new(),
            top: (epoch, sequence, sequence),
        }
    }

    /// Inserts `sequence` under `epoch`, returning `false` if it was
    /// already there (a reuse). The next sequence of the top run's epoch
    /// extends it without touching the heap.
    pub fn insert(&mut self, epoch: u64, sequence: u64) -> bool {
        let (top_epoch, lo, hi) = self.top;
        if epoch == top_epoch && hi.checked_add(1) == Some(sequence) {
            self.top = (epoch, lo, sequence);
            return true;
        }
        self.below.push(self.top);
        let fresh = insert_disjoint(&mut self.below, (epoch, sequence, sequence));
        if let Some(top) = self.below.pop() {
            self.top = top;
        }
        fresh
    }

    /// The runs in `(epoch, lo)` order.
    pub fn runs(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.below.iter().copied().chain(std::iter::once(self.top))
    }
}

/// One run of sequence numbers a fleet sensor sealed (or a gateway
/// accepted) more than once within one key epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetNonceReuse {
    /// The sensor whose session reused sequence numbers.
    pub sensor_id: u64,
    /// The key epoch the reuse happened in.
    pub epoch: u64,
    /// First reused sequence number of the run.
    pub first: u64,
    /// Last reused sequence number of the run (inclusive).
    pub last: u64,
}

/// The nonce-uniqueness auditor, keyed by **numeric sender id** and key
/// epoch, built for fleet-scale ingest and used by every audit in the
/// workspace (a single-link experiment run is sender 0).
///
/// It keys per-sender [`SeqSet`] interval sets by `(sensor id, epoch)`:
/// observing a sensor's next monotone sequence extends the top run in
/// place, so the steady-state ingest path performs **zero allocations**.
///
/// [`merge`](Self::merge) is commutative and associative (pure interval
/// set algebra: union of the seen-sets, plus every pairwise intersection
/// recorded as reuse), so per-shard auditors fold into byte-identical
/// fleet state at any shard or thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetNonceAudit {
    seen: BTreeMap<(u64, u64), SeqSet>,
    reused: BTreeMap<(u64, u64), SeqSet>,
    frames: u64,
}

impl FleetNonceAudit {
    /// An empty audit.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sealed (or accepted) frame for `(sensor_id, epoch)`.
    /// A sequence observed twice within one epoch is recorded as a reuse.
    pub fn observe(&mut self, sensor_id: u64, epoch: u64, sequence: u64) {
        let fresh = self
            .seen
            .entry((sensor_id, epoch))
            .or_default()
            .insert(sequence);
        self.count(sensor_id, epoch, sequence, fresh);
    }

    /// Counts one frame of `(sensor_id, epoch)` whose sequence a seen-set
    /// outside this audit (a session's [`NonceLedger`]) has already
    /// checked: `fresh` is what that set's insert returned, and a stale
    /// sequence is recorded as a reuse. The seen-set stays outside until
    /// [`insert_run`](Self::insert_run) folds it in.
    pub fn count(&mut self, sensor_id: u64, epoch: u64, sequence: u64, fresh: bool) {
        self.frames += 1;
        if !fresh {
            self.reused
                .entry((sensor_id, epoch))
                .or_default()
                .insert(sequence);
        }
    }

    /// Records every sequence in `lo..=hi` as seen for `(sensor_id,
    /// epoch)` without counting frames: how a [`NonceLedger`]'s runs fold
    /// back into an audit. As in [`merge`](Self::merge), sequences the
    /// audit had already seen are recorded as reuse. An empty run
    /// (`lo > hi`) changes nothing.
    pub fn insert_run(&mut self, sensor_id: u64, epoch: u64, lo: u64, hi: u64) {
        if lo > hi {
            return;
        }
        let key = (sensor_id, epoch);
        let seen = self.seen.entry(key).or_default();
        if !insert_disjoint(&mut seen.runs, (lo, hi)) {
            self.fold(
                key,
                &SeqSet {
                    runs: vec![(lo, hi)],
                },
            );
        }
    }

    /// Folds another audit in. Commutative and associative: the seen-sets
    /// union, and any overlap between two audits' per-sensor sets — the
    /// same `(sensor, epoch, sequence)` observed on both sides — is
    /// recorded as reuse, exactly as if the frames had been observed by a
    /// single auditor.
    pub fn merge(&mut self, other: &FleetNonceAudit) {
        self.frames += other.frames;
        for (&key, set) in &other.seen {
            self.fold(key, set);
        }
        for (key, set) in &other.reused {
            let r = self.reused.entry(*key).or_default();
            *r = SeqSet::union(r, set);
        }
    }

    /// Unions `set` into the seen-set of `key`, recording its overlap
    /// with what was already seen as reuse.
    fn fold(&mut self, key: (u64, u64), set: &SeqSet) {
        match self.seen.get_mut(&key) {
            Some(mine) => {
                let overlap = SeqSet::intersection(mine, set);
                if !overlap.is_empty() {
                    let r = self.reused.entry(key).or_default();
                    *r = SeqSet::union(r, &overlap);
                }
                *mine = SeqSet::union(mine, set);
            }
            None => {
                self.seen.insert(key, set.clone());
            }
        }
    }

    /// Total frames observed.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Distinct sensor ids observed.
    pub fn sensors(&self) -> usize {
        let mut n = 0;
        let mut last = None;
        for &(sensor, _) in self.seen.keys() {
            if last != Some(sensor) {
                n += 1;
                last = Some(sensor);
            }
        }
        n
    }

    /// Distinct `(sensor, epoch)` cells observed. A static fleet shows
    /// exactly one cell per sensor; a rekeying fleet shows one per
    /// epoch a sensor sealed under, so `cells() > sensors()` is the
    /// audit-side fingerprint that rotations actually happened.
    pub fn cells(&self) -> usize {
        self.seen.len()
    }

    /// Total distinct `(sensor, epoch, sequence)` triples observed.
    pub fn distinct(&self) -> u64 {
        self.seen
            .values()
            .fold(0u64, |acc, set| acc.saturating_add(set.count()))
    }

    /// `true` when no sequence was observed twice for any sensor/epoch.
    pub fn is_clean(&self) -> bool {
        self.reused.values().all(SeqSet::is_empty)
    }

    /// Every reused sequence run, in `(sensor, epoch, sequence)` order.
    /// Runs keep the report bounded even if a whole session was replayed.
    pub fn violations(&self) -> Vec<FleetNonceReuse> {
        self.reused
            .iter()
            .flat_map(|(&(sensor_id, epoch), set)| {
                set.runs()
                    .iter()
                    .map(move |&(first, last)| FleetNonceReuse {
                        sensor_id,
                        epoch,
                        first,
                        last,
                    })
            })
            .collect()
    }
}

impl std::fmt::Display for FleetNonceAudit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} frames from {} sensors, {} distinct (sensor, epoch, seq) triples",
            self.frames(),
            self.sensors(),
            self.distinct()
        )?;
        let violations = self.violations();
        if violations.is_empty() {
            writeln!(f, "  all per-sensor nonces unique")
        } else {
            for v in violations {
                writeln!(
                    f,
                    "  NONCE REUSED: sensor={} epoch={} seq={}..={}",
                    v.sensor_id, v.epoch, v.first, v.last
                )?;
            }
            Ok(())
        }
    }
}

/// The sum of per-run [`FleetNonceAudit`]s, each under the stream label of
/// the run that sealed its frames. Every field adds, and reuses are kept
/// sorted by `(label, epoch, first sequence)`, so the totals do not depend
/// on the order runs finish in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NonceTotals {
    frames: u64,
    distinct: u64,
    epochs: usize,
    violations: Vec<(String, FleetNonceReuse)>,
}

impl NonceTotals {
    /// Adds one run's audit, sealed under stream `label`.
    pub fn add(&mut self, label: &str, audit: &FleetNonceAudit) {
        self.frames += audit.frames();
        self.distinct += audit.distinct();
        self.epochs += audit.cells();
        self.violations.extend(
            audit
                .violations()
                .into_iter()
                .map(|r| (label.to_string(), r)),
        );
        self.violations
            .sort_by_key(|(label, r)| (label.clone(), r.epoch, r.first, r.last, r.sensor_id));
    }

    /// Total sealed frames observed.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Distinct (run, epoch, sequence) triples observed.
    pub fn distinct(&self) -> u64 {
        self.distinct
    }

    /// Distinct (run, key epoch) pairs observed: one per run of a static
    /// key, one per epoch sealed under for a rekeying run.
    pub fn epochs(&self) -> usize {
        self.epochs
    }

    /// Every reused sequence run with the stream label of the run that
    /// reused it, sorted by `(label, epoch, first sequence)`.
    pub fn violations(&self) -> &[(String, FleetNonceReuse)] {
        &self.violations
    }

    /// `true` when no run reused a nonce (the run may pass).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl std::fmt::Display for NonceTotals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} sealed frames, {} distinct (epoch, seq) pairs, {} epochs",
            self.frames, self.distinct, self.epochs
        )?;
        if self.violations.is_empty() {
            return writeln!(f, "  all nonces unique");
        }
        for (label, v) in &self.violations {
            writeln!(
                f,
                "  NONCE REUSED: stream={label} epoch={} seq={}..={}",
                v.epoch, v.first, v.last
            )?;
        }
        Ok(())
    }
}

/// A [`Sink`] summing the per-run nonce audits handed to
/// [`Sink::record_nonces`] (batch and wire records are ignored). Install
/// it (globally, or per worker thread) for the duration of a run, then
/// [`take`](Self::take) and check [`NonceTotals::is_clean`].
#[derive(Default)]
pub struct NonceAuditSink {
    totals: Mutex<NonceTotals>,
}

impl NonceAuditSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Extracts the accumulated totals, leaving the sink empty.
    pub fn take(&self) -> NonceTotals {
        match self.totals.lock() {
            Ok(mut totals) => std::mem::take(&mut *totals),
            Err(poisoned) => std::mem::take(&mut *poisoned.into_inner()),
        }
    }
}

impl Sink for NonceAuditSink {
    fn record_batch(&self, _record: &BatchRecord) {}

    fn record_nonces(&self, label: &str, audit: &FleetNonceAudit) {
        if let Ok(mut totals) = self.totals.lock() {
            totals.add(label, audit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seqs: &[(u64, u64)]) -> FleetNonceAudit {
        let mut audit = FleetNonceAudit::new();
        for &(epoch, seq) in seqs {
            audit.observe(0, epoch, seq);
        }
        audit
    }

    #[test]
    fn unique_nonces_are_clean() {
        let mut totals = NonceTotals::default();
        // Two runs of one stream seal the same sequences: that is fine,
        // each run seals under its own key.
        let frames: Vec<_> = (0..4).map(|seq| (0, seq)).collect();
        totals.add("a", &run(&frames));
        totals.add("a", &run(&frames));
        totals.add("b", &run(&[(0, 0), (1, 0), (1, 1)]));
        assert!(totals.is_clean());
        assert_eq!(
            (totals.frames(), totals.distinct(), totals.epochs()),
            (11, 11, 4)
        );
        assert_eq!(
            totals.to_string(),
            "11 sealed frames, 11 distinct (epoch, seq) pairs, 4 epochs\n  all nonces unique\n"
        );
    }

    #[test]
    fn a_reused_pair_is_a_violation() {
        let mut totals = NonceTotals::default();
        totals.add("a", &run(&[(0, 7), (0, 7), (0, 7)]));
        assert!(!totals.is_clean());
        assert_eq!((totals.frames(), totals.distinct()), (3, 1));
        let (label, reuse) = &totals.violations()[0];
        assert_eq!((label.as_str(), reuse.first, reuse.last), ("a", 7, 7));
        assert!(totals
            .to_string()
            .contains("  NONCE REUSED: stream=a epoch=0 seq=7..=7\n"));
    }

    #[test]
    fn merge_is_commutative() {
        let dirty_b = run(&[(2, 5), (2, 5)]);
        let dirty_a = run(&[(3, 1), (3, 1), (1, 9), (1, 9)]);
        let mut ab = NonceTotals::default();
        ab.add("a", &dirty_a);
        ab.add("b", &dirty_b);
        let mut ba = NonceTotals::default();
        ba.add("b", &dirty_b);
        ba.add("a", &dirty_a);
        assert_eq!(ab, ba);
        assert_eq!(format!("{ab}"), format!("{ba}"));
        let order: Vec<_> = ab
            .violations()
            .iter()
            .map(|(label, v)| (label.as_str(), v.epoch, v.first))
            .collect();
        assert_eq!(order, [("a", 1, 9), ("a", 3, 1), ("b", 2, 5)]);
    }

    #[test]
    fn sink_sums_per_run_audits() {
        let sink = NonceAuditSink::new();
        sink.record_nonces("cell", &run(&[(0, 0), (0, 1)]));
        sink.record_nonces("cell", &run(&[(0, 1), (0, 1)]));
        let totals = sink.take();
        assert_eq!(totals.frames(), 4);
        assert!(!totals.is_clean());
        assert_eq!(sink.take(), NonceTotals::default(), "take empties the sink");
    }

    #[test]
    fn seq_set_coalesces_runs_and_rejects_duplicates() {
        let mut set = SeqSet::new();
        // Monotone appends extend a single run.
        for seq in 0..100u64 {
            assert!(set.insert(seq), "seq {seq} should be new");
        }
        assert_eq!(set.runs(), &[(0, 99)]);
        assert_eq!(set.count(), 100);
        // Duplicates anywhere in the run are rejected.
        assert!(!set.insert(0));
        assert!(!set.insert(50));
        assert!(!set.insert(99));
        // A gap opens a new run; filling it coalesces back to one.
        assert!(set.insert(102));
        assert_eq!(set.runs(), &[(0, 99), (102, 102)]);
        assert!(set.insert(100));
        assert!(set.insert(101));
        assert_eq!(set.runs(), &[(0, 102)]);
        assert!(set.contains(101));
        assert!(!set.contains(103));
    }

    #[test]
    fn seq_set_handles_u64_extremes_without_overflow() {
        let mut set = SeqSet::new();
        assert!(set.insert(u64::MAX));
        assert!(set.insert(u64::MAX - 1));
        assert!(!set.insert(u64::MAX));
        assert!(set.insert(0));
        assert_eq!(set.runs(), &[(0, 0), (u64::MAX - 1, u64::MAX)]);
        assert_eq!(set.count(), 3);
    }

    #[test]
    fn seq_set_union_and_intersection_are_exact() {
        let mut a = SeqSet::new();
        let mut b = SeqSet::new();
        for seq in [1u64, 2, 3, 10, 11, 20] {
            a.insert(seq);
        }
        for seq in [3u64, 4, 11, 12, 30] {
            b.insert(seq);
        }
        let union = SeqSet::union(&a, &b);
        assert_eq!(union.runs(), &[(1, 4), (10, 12), (20, 20), (30, 30)]);
        let both = SeqSet::intersection(&a, &b);
        assert_eq!(both.runs(), &[(3, 3), (11, 11)]);
        // Union/intersection commute.
        assert_eq!(union, SeqSet::union(&b, &a));
        assert_eq!(both, SeqSet::intersection(&b, &a));
    }

    /// The maximal runs of a set of `(epoch, sequence)` pairs.
    fn model_runs(model: &std::collections::BTreeSet<(u64, u64)>) -> Vec<(u64, u64, u64)> {
        let mut runs: Vec<(u64, u64, u64)> = Vec::new();
        for &(epoch, seq) in model {
            match runs.last_mut() {
                Some(last) if last.0 == epoch && last.2.checked_add(1) == Some(seq) => last.2 = seq,
                _ => runs.push((epoch, seq, seq)),
            }
        }
        runs
    }

    #[test]
    fn ledger_matches_a_set_of_pairs() {
        let mut rng = crate::DetRng::seed_from_u64(5);
        for case in 0..300 {
            // Some cases sit at the top of the sequence space.
            let base = if case % 5 == 0 { u64::MAX - 300 } else { 0 };
            let mut model = std::collections::BTreeSet::new();
            let mut ledger: Option<NonceLedger> = None;
            let (mut epoch, mut cursor) = (rng.gen_range(0..3u64), base);
            for _ in 0..rng.gen_range(1..200usize) {
                match rng.gen_range(0..10u32) {
                    0 => epoch += rng.gen_range(1..4u64),
                    1 => epoch = epoch.saturating_sub(1),
                    _ => {}
                }
                cursor = (cursor + rng.gen_range(0..3u64)).min(u64::MAX - 70);
                let seq =
                    cursor + rng.gen_range(0..=70u64) - rng.gen_range(0..=(cursor - base).min(70));
                let fresh = model.insert((epoch, seq));
                match ledger.as_mut() {
                    Some(ledger) => assert_eq!(ledger.insert(epoch, seq), fresh, "case {case}"),
                    None => ledger = Some(NonceLedger::new(epoch, seq)),
                }
                let runs: Vec<_> = ledger.iter().flat_map(NonceLedger::runs).collect();
                assert_eq!(runs, model_runs(&model), "case {case}");
            }
        }
    }

    #[test]
    fn ledgers_rebuild_the_observed_audit() {
        // Sensor 1 reuses sequences 3..=4 of epoch 0 out of order.
        let frames = [
            (1, 0, 5),
            (1, 0, 3),
            (1, 0, 4),
            (1, 1, 6),
            (1, 0, 4),
            (1, 0, 3),
            (2, 0, 0),
        ];
        let mut observed = FleetNonceAudit::new();
        let mut counted = FleetNonceAudit::new();
        let mut ledgers: BTreeMap<u64, NonceLedger> = BTreeMap::new();
        for (sensor, epoch, seq) in frames {
            observed.observe(sensor, epoch, seq);
            let fresh = match ledgers.get_mut(&sensor) {
                Some(ledger) => ledger.insert(epoch, seq),
                None => {
                    ledgers.insert(sensor, NonceLedger::new(epoch, seq));
                    true
                }
            };
            counted.count(sensor, epoch, seq, fresh);
        }
        assert!(counted.distinct() == 0 && !counted.is_clean());
        for (&sensor, ledger) in &ledgers {
            for (epoch, lo, hi) in ledger.runs() {
                counted.insert_run(sensor, epoch, lo, hi);
            }
        }
        assert_eq!(counted, observed);
        let reuse = observed.violations();
        assert_eq!((reuse.len(), reuse[0].first, reuse[0].last), (1, 3, 4));
    }

    #[test]
    fn inserting_a_seen_run_records_the_overlap_as_reuse() {
        let mut audit = FleetNonceAudit::new();
        audit.insert_run(4, 2, 10, 19);
        audit.insert_run(4, 2, 30, 39);
        audit.insert_run(4, 2, 20, 29); // glues both sides
        audit.insert_run(4, 2, 7, 5); // empty
        assert!(audit.is_clean());
        assert_eq!(
            (audit.cells(), audit.distinct(), audit.frames()),
            (1, 30, 0)
        );
        // The same runs merged in from another audit are reuse.
        let mut other = FleetNonceAudit::new();
        other.insert_run(4, 2, 35, 45);
        let mut merged = audit.clone();
        merged.merge(&other);
        audit.insert_run(4, 2, 35, 45);
        assert_eq!(audit, merged);
        let reuse = audit.violations();
        assert_eq!(
            (reuse[0].first, reuse[0].last, audit.distinct()),
            (35, 39, 36)
        );
    }

    #[test]
    fn fleet_audit_is_clean_on_unique_sequences() {
        let mut audit = FleetNonceAudit::new();
        for sensor in 0..10u64 {
            for seq in 0..50u64 {
                audit.observe(sensor, 0, seq);
            }
        }
        assert!(audit.is_clean());
        assert_eq!(audit.frames(), 500);
        assert_eq!(audit.sensors(), 10);
        assert_eq!(audit.distinct(), 500);
        assert!(audit.to_string().contains("all per-sensor nonces unique"));
    }

    #[test]
    fn fleet_audit_catches_reuse_within_and_across_epochs() {
        let mut audit = FleetNonceAudit::new();
        audit.observe(7, 0, 3);
        audit.observe(7, 0, 3); // reuse
        audit.observe(7, 1, 3); // new epoch: fine
        audit.observe(8, 0, 3); // other sensor: fine
        assert!(!audit.is_clean());
        let violations = audit.violations();
        assert_eq!(violations.len(), 1);
        assert_eq!(
            (
                violations[0].sensor_id,
                violations[0].epoch,
                violations[0].first
            ),
            (7, 0, 3)
        );
        assert!(audit.to_string().contains("NONCE REUSED: sensor=7"));
    }

    #[test]
    fn fleet_merge_is_commutative_and_matches_single_observer() {
        // Split one fleet's frames across two "shards" (disjoint sensors)
        // plus a deliberate cross-shard overlap for sensor 5.
        let mut a = FleetNonceAudit::new();
        let mut b = FleetNonceAudit::new();
        let mut whole = FleetNonceAudit::new();
        for seq in 0..40u64 {
            a.observe(1, 0, seq);
            whole.observe(1, 0, seq);
            b.observe(2, 0, seq);
            whole.observe(2, 0, seq);
        }
        for seq in 0..10u64 {
            a.observe(5, 0, seq);
            whole.observe(5, 0, seq);
            b.observe(5, 0, seq + 5); // [5, 10) seen by both
            whole.observe(5, 0, seq + 5);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
        assert!(!ab.is_clean());
        let violations = ab.violations();
        assert_eq!(violations.len(), 1);
        assert_eq!((violations[0].first, violations[0].last), (5, 9));
        // Three-way associativity: ((a+b)+c) == (a+(b+c)).
        let mut c = FleetNonceAudit::new();
        c.observe(5, 0, 7); // overlaps both halves
        let mut abc1 = ab.clone();
        abc1.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut abc2 = a.clone();
        abc2.merge(&bc);
        assert_eq!(abc1, abc2);
    }
}
