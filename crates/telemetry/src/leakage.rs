//! Streaming leakage audit: online NMI between event labels and wire sizes.
//!
//! AGE's security claim is that the sizes of the messages a sensor emits
//! carry no information about the sensed event. The attack crate evaluates
//! that claim offline; this module watches it *while the system runs*. A
//! [`LeakageStream`] maintains the joint empirical distribution of
//! `(event label, wire size)` pairs as counts — never raw traces — so the
//! normalized mutual information and a seeded permutation-test p-value can
//! be computed at any point, online, from O(distinct pairs) state. It is
//! the workspace's one `(event, value)` count table: sweep audits, the
//! gateway's per-cohort histograms and the windowed monitor's windows all
//! hold it, and only the joint counts are kept — the marginals are
//! rebuilt when a stream is scored.
//!
//! Everything is count-based and iterated in `BTreeMap` order, so two audits
//! that observed the same multiset of pairs produce bit-identical floats
//! regardless of observation order. That is what lets a parallel sweep merge
//! per-thread audit state and still serialize a byte-identical
//! `LEAKAGE.json` at any thread count.
//!
//! Since the virtual clock landed, the audit watches a second observable:
//! **when** frames are sent. Each stream keeps an inter-transmission-gap
//! histogram (a [`LeakageStream`] over `(event, gap µs)` pairs) scored with
//! the same NMI + permutation machinery, so an adaptive policy that leaks
//! through its transmission schedule instead of its frame sizes is caught
//! by the same gate (`LEAKAGE.json` version 2 carries both verdicts).
//!
//! The math here (entropy, NMI, permutation test) is the single source of
//! truth for the workspace. [`nmi`] and [`permutation_test`] score a trace
//! of `(label, value)` pairs through the same count table, so the offline
//! attack (`age-attack` re-exports both) and the online audit agree bit
//! for bit. The audit plumbing ([`LeakageAudit`], [`LeakageSink`],
//! [`LeakageGate`], [`LeakageReport`]) lives in the private `audit`
//! module; no sensor code links it.

use std::collections::BTreeMap;

use crate::rng::{DetRng, SliceShuffle};

/// NMI above this is a leakage regression for defended encoders — the one
/// threshold the end-of-run gates and the windowed monitor share.
///
/// Rationale: with the audit's per-cell sample sizes (tens to a few hundred
/// frames), the maximum-likelihood NMI of genuinely independent streams
/// sits well below 0.05 (finite-sample bias shrinks as 1/n and the
/// defended encoders are *constant-size*, scoring exactly 0.0), while the
/// undefended baseline scores an order of magnitude above it. 0.05 is far
/// from both, so neither noise nor a real leak can straddle the line.
pub const LEAKAGE_NMI_THRESHOLD: f64 = 0.05;

/// Baseline leakage must be at least this significant (permutation-test
/// p-value) before a gate counts it as proof the detector works; timing
/// leaks must be this significant to count at all.
pub const LEAKAGE_P_THRESHOLD: f64 = 0.05;

/// Streams with fewer audited frames than this are skipped; NMI estimates
/// from a handful of observations are bias-dominated.
pub const LEAKAGE_MIN_OBSERVATIONS: u64 = 30;

/// Shannon entropy (bits) of a discrete empirical distribution given by
/// occurrence counts. Zero counts are ignored; an empty distribution has
/// entropy 0.
pub fn entropy_from_counts<I: IntoIterator<Item = u64>>(counts: I) -> f64 {
    let counts: Vec<u64> = counts.into_iter().filter(|&c| c > 0).collect();
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    counts
        .iter()
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Empirical normalized mutual information of paired `(label, value)`
/// observations: `2·I(L, M) / (H(L) + H(M))` (paper Eq. 3), using maximum
/// likelihood estimators of the entropies. Zero means the values carry no
/// information about the label.
///
/// Degenerate inputs are defined, not errors: no pairs, a single label
/// class, constant values, or both return `0.0` — no division by zero, no
/// NaN. The result is clamped to `[0, 1]` against floating-point drift.
pub fn nmi(pairs: &[(usize, usize)]) -> f64 {
    pairs.iter().copied().collect::<LeakageStream>().nmi()
}

/// Permutation test (paper §5.3, following Ojala & Garriga) for the
/// significance of the observed NMI of paired `(label, value)`
/// observations: shuffles the value column `permutations` times, in
/// caller order, with a [`DetRng`] seeded by `seed`, and returns the
/// fraction of shuffles scoring at least the observed NMI, with the +1
/// small-sample correction.
///
/// The null hypothesis is that values and labels are independent; a small
/// p-value means the observed NMI reflects real leakage. Degenerate inputs
/// (no pairs or `permutations == 0`) return `1.0`: no evidence against
/// the null.
pub fn permutation_test(pairs: &[(usize, usize)], permutations: usize, seed: u64) -> f64 {
    if pairs.is_empty() || permutations == 0 {
        return 1.0;
    }
    let observed = nmi(pairs);
    let mut values: Vec<usize> = pairs.iter().map(|&(_, m)| m).collect();
    let mut rng = DetRng::seed_from_u64(seed);
    let mut at_least = 0usize;
    for _ in 0..permutations {
        values.shuffle(&mut rng);
        let shuffled: LeakageStream = pairs
            .iter()
            .zip(&values)
            .map(|(&(l, _), &m)| (l, m))
            .collect();
        if shuffled.nmi() >= observed - 1e-12 {
            at_least += 1;
        }
    }
    (at_least + 1) as f64 / (permutations + 1) as f64
}

/// The streaming joint distribution of `(event label, wire size)` for one
/// audited stream.
///
/// State is the joint counts keyed by a `BTreeMap` and their total, so
/// [`merge`](Self::merge) is commutative and associative and every
/// derived float is a pure function of the observed multiset — the
/// determinism contract parallel sweeps rely on. The label and size
/// marginals are rebuilt from the joint counts when a stream is scored,
/// in key order, so ingest pays one map increment per observation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeakageStream {
    joint: BTreeMap<(usize, usize), u64>,
    total: u64,
}

impl LeakageStream {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observed `(label, size)` pair.
    pub fn observe(&mut self, label: usize, size: usize) {
        self.observe_n(label, size, 1);
    }

    /// Records `n` observations of the same `(label, size)` pair.
    pub fn observe_n(&mut self, label: usize, size: usize, n: u64) {
        if n == 0 {
            return;
        }
        *self.joint.entry((label, size)).or_default() += n;
        self.total += n;
    }

    /// Folds another stream's counts into this one. Order-independent:
    /// `a.merge(&b)` and `b.merge(&a)` yield equal state.
    pub fn merge(&mut self, other: &LeakageStream) {
        for (&(l, m), &c) in &other.joint {
            self.observe_n(l, m, c);
        }
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// One marginal of the joint counts, in key order; `key` picks the
    /// label or the size out of a joint key.
    fn marginal(&self, key: fn(&(usize, usize)) -> usize) -> BTreeMap<usize, u64> {
        let mut counts = BTreeMap::new();
        for (pair, &c) in &self.joint {
            *counts.entry(key(pair)).or_default() += c;
        }
        counts
    }

    /// Number of distinct wire sizes seen. `1` is the constant-size
    /// invariant the AGE/Padded defenses must exhibit.
    pub fn distinct_sizes(&self) -> usize {
        self.marginal(|&(_, m)| m).len()
    }

    /// Number of distinct event labels seen.
    pub fn distinct_labels(&self) -> usize {
        self.marginal(|&(l, _)| l).len()
    }

    /// Smallest wire size observed, if any.
    pub fn min_size(&self) -> Option<usize> {
        self.joint.keys().map(|&(_, m)| m).min()
    }

    /// Largest wire size observed, if any.
    pub fn max_size(&self) -> Option<usize> {
        self.joint.keys().map(|&(_, m)| m).max()
    }

    /// Entropy (bits) of the label marginal.
    pub fn label_entropy(&self) -> f64 {
        entropy_from_counts(self.marginal(|&(l, _)| l).into_values())
    }

    /// Entropy (bits) of the size marginal.
    pub fn size_entropy(&self) -> f64 {
        entropy_from_counts(self.marginal(|&(_, m)| m).into_values())
    }

    /// Normalized mutual information `2·I(L,M)/(H(L)+H(M))` of the counts
    /// observed so far. `0.0` for every degenerate case (empty, single
    /// label class, constant sizes); never NaN. Summation runs in map
    /// order, so equal count-state yields bit-identical results.
    pub fn nmi(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let labels = self.marginal(|&(l, _)| l);
        let sizes = self.marginal(|&(_, m)| m);
        let h_l = entropy_from_counts(labels.values().copied());
        let h_m = entropy_from_counts(sizes.values().copied());
        if h_l + h_m == 0.0 {
            return 0.0;
        }
        let n = self.total as f64;
        let mut mi = 0.0;
        for (&(l, m), &c) in &self.joint {
            let p_joint = c as f64 / n;
            let p_l = labels[&l] as f64 / n;
            let p_m = sizes[&m] as f64 / n;
            mi += p_joint * (p_joint / (p_l * p_m)).log2();
        }
        (2.0 * mi / (h_l + h_m)).clamp(0.0, 1.0)
    }

    /// The observed pairs, expanded from the counts in map order.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::with_capacity(self.total as usize);
        for (&pair, &c) in &self.joint {
            pairs.extend(std::iter::repeat_n(pair, c as usize));
        }
        pairs
    }

    /// Seeded [`permutation_test`] p-value for the stream's observed NMI,
    /// over its [`pairs`](Self::pairs). Returns `1.0` when the stream is
    /// empty or `permutations == 0`.
    pub fn permutation_p(&self, permutations: usize, seed: u64) -> f64 {
        permutation_test(&self.pairs(), permutations, seed)
    }
}

impl FromIterator<(usize, usize)> for LeakageStream {
    fn from_iter<I: IntoIterator<Item = (usize, usize)>>(pairs: I) -> Self {
        let mut stream = LeakageStream::new();
        for (label, value) in pairs {
            stream.observe(label, value);
        }
        stream
    }
}

pub use audit::{GateOutcome, LeakageAudit, LeakageEntry, LeakageGate, LeakageReport, LeakageSink};

mod audit {
    use std::collections::BTreeMap;
    use std::fmt::{self, Write};
    use std::sync::Mutex;

    use super::LeakageStream;
    use crate::record::{JsonStr, WireRecord};
    use crate::sink::Sink;

    /// Derives a per-stream permutation seed from the run seed and the
    /// stream identity (FNV-1a), so each stream's p-value is independent of
    /// which other streams were audited.
    fn stream_seed(seed: u64, label: &str, encoder: &str) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in label
            .as_bytes()
            .iter()
            .chain(&[0u8])
            .chain(encoder.as_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^ seed
    }

    /// XORed into the per-stream seed for the timing channel's permutation
    /// test, so a stream's size and timing p-values draw independent
    /// shuffles from the same run seed.
    const TIMING_SEED_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

    /// Per-stream timing-channel state: the `(event, gap µs)` histogram
    /// plus the last send stamp gap extraction resumes from.
    ///
    /// Gaps are extracted in arrival order, which is safe because a stream
    /// (one sweep cell) runs on exactly one thread; sweeps share a single
    /// sink, so nothing ever splits one stream's arrivals across audits. If
    /// the same `(label, encoder)` is re-run later (its clock restarts at
    /// 0), the non-increasing stamp is treated as a stream restart: no gap
    /// is recorded across the seam.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    struct GapState {
        stream: LeakageStream,
        last: Option<u64>,
    }

    /// Run-level audit state: one size [`LeakageStream`] (and, for timed
    /// observations, one gap histogram) per `(stream label, encoder)`,
    /// keyed in sorted order.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct LeakageAudit {
        streams: BTreeMap<(String, String), LeakageStream>,
        gaps: BTreeMap<(String, String), GapState>,
    }

    impl LeakageAudit {
        /// An empty audit.
        pub fn new() -> Self {
            Self::default()
        }

        /// Records one observed wire frame without timing information (the
        /// timing channel sees nothing; use
        /// [`observe_timed`](Self::observe_timed) when a send stamp
        /// exists).
        pub fn observe(&mut self, label: &str, encoder: &str, event: usize, wire_bytes: usize) {
            self.streams
                .entry((label.to_string(), encoder.to_string()))
                .or_default()
                .observe(event, wire_bytes);
        }

        /// Records one observed wire frame together with its virtual send
        /// time. Feeds both channels: the size histogram, and — when this
        /// is not the stream's first frame and the stamp advanced — the
        /// inter-transmission-gap histogram, labeled with the *arriving*
        /// frame's event (the gap ends with, and is shaped by, that
        /// frame's radio serialization and backoff).
        pub fn observe_timed(
            &mut self,
            label: &str,
            encoder: &str,
            event: usize,
            wire_bytes: usize,
            virtual_time: u64,
        ) {
            self.observe(label, encoder, event, wire_bytes);
            let state = self
                .gaps
                .entry((label.to_string(), encoder.to_string()))
                .or_default();
            match state.last {
                Some(prev) if virtual_time > prev => {
                    state.stream.observe(event, (virtual_time - prev) as usize);
                }
                _ => {} // first frame, or a restart (clock went backwards)
            }
            state.last = Some(virtual_time);
        }

        /// Records one [`WireRecord`] as emitted by the sink pipeline.
        /// Records stamped 0 (no clock: legacy lines, bare encoder tests)
        /// contribute to the size channel only.
        pub fn observe_wire(&mut self, record: &WireRecord) {
            if record.virtual_time == 0 {
                self.observe(
                    &record.label,
                    &record.encoder,
                    record.event,
                    record.wire_bytes,
                );
            } else {
                self.observe_timed(
                    &record.label,
                    &record.encoder,
                    record.event,
                    record.wire_bytes,
                    record.virtual_time,
                );
            }
        }

        /// Folds externally collected size and gap histograms into the
        /// `(label, encoder)` stream. This is the entry point for fleet
        /// gateways that keep one histogram pair per cohort in each shard
        /// (the per-`(label, encoder)` [`observe_timed`](Self::observe_timed)
        /// gap state is arrival-order sensitive and would mis-measure
        /// interleaved multi-sensor traffic): sessions extract their own
        /// gaps against their own last-send stamp, and the pre-binned
        /// counts merge here commutatively, so the absorbed audit is
        /// byte-identical at any shard or thread count.
        pub fn absorb(
            &mut self,
            label: &str,
            encoder: &str,
            sizes: &LeakageStream,
            gaps: &LeakageStream,
        ) {
            self.streams
                .entry((label.to_string(), encoder.to_string()))
                .or_default()
                .merge(sizes);
            if gaps.total() > 0 {
                self.gaps
                    .entry((label.to_string(), encoder.to_string()))
                    .or_default()
                    .stream
                    .merge(gaps);
            }
        }

        /// Folds another audit into this one. Commutative, so per-thread
        /// audits merge to the same state in any order. Exact for the
        /// timing channel as long as no single stream's arrivals were split
        /// across the audits (streams are cell-atomic in every sweep, so
        /// this holds by construction; a split stream would lose only the
        /// one gap spanning the split).
        pub fn merge(&mut self, other: &LeakageAudit) {
            for ((label, encoder), stream) in &other.streams {
                self.streams
                    .entry((label.clone(), encoder.clone()))
                    .or_default()
                    .merge(stream);
            }
            for (key, state) in &other.gaps {
                let mine = self.gaps.entry(key.clone()).or_default();
                mine.stream.merge(&state.stream);
                mine.last = mine.last.max(state.last);
            }
        }

        /// The size stream for one `(label, encoder)`, if observed.
        pub fn stream(&self, label: &str, encoder: &str) -> Option<&LeakageStream> {
            self.streams.get(&(label.to_string(), encoder.to_string()))
        }

        /// The gap histogram for one `(label, encoder)`, if any timed
        /// observations arrived.
        pub fn gap_stream(&self, label: &str, encoder: &str) -> Option<&LeakageStream> {
            self.gaps
                .get(&(label.to_string(), encoder.to_string()))
                .map(|state| &state.stream)
        }

        /// All audited streams in sorted key order.
        pub fn streams(&self) -> impl Iterator<Item = (&(String, String), &LeakageStream)> {
            self.streams.iter()
        }

        /// Whether nothing was observed.
        pub fn is_empty(&self) -> bool {
            self.streams.is_empty()
        }

        /// Number of audited `(label, encoder)` streams.
        pub fn len(&self) -> usize {
            self.streams.len()
        }

        /// Scores every stream (NMI + seeded permutation p-value) into a
        /// serializable report. Entries come out in sorted key order and
        /// each stream's permutation seed is derived from `(seed, key)`, so
        /// the report is a pure function of the audit state.
        pub fn report(&self, permutations: usize, seed: u64) -> LeakageReport {
            let entries = self
                .streams
                .iter()
                .map(|(key, stream)| {
                    let (label, encoder) = key;
                    let gaps = self.gaps.get(key).map(|state| &state.stream);
                    LeakageEntry {
                        label: label.clone(),
                        encoder: encoder.clone(),
                        observations: stream.total(),
                        distinct_sizes: stream.distinct_sizes(),
                        min_wire_bytes: stream.min_size().unwrap_or(0),
                        max_wire_bytes: stream.max_size().unwrap_or(0),
                        nmi: stream.nmi(),
                        p_value: stream
                            .permutation_p(permutations, stream_seed(seed, label, encoder)),
                        gap_observations: gaps.map_or(0, LeakageStream::total),
                        distinct_gaps: gaps.map_or(0, LeakageStream::distinct_sizes),
                        min_gap_us: gaps.and_then(LeakageStream::min_size).unwrap_or(0) as u64,
                        max_gap_us: gaps.and_then(LeakageStream::max_size).unwrap_or(0) as u64,
                        timing_nmi: gaps.map_or(0.0, LeakageStream::nmi),
                        timing_p_value: gaps.map_or(1.0, |g| {
                            g.permutation_p(
                                permutations,
                                stream_seed(seed, label, encoder) ^ TIMING_SEED_SALT,
                            )
                        }),
                    }
                })
                .collect();
            LeakageReport {
                permutations,
                seed,
                entries,
                gate: None,
            }
        }
    }

    /// One scored stream in a [`LeakageReport`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct LeakageEntry {
        /// Stream label (dataset/policy/defense/rate).
        pub label: String,
        /// Encoder name as reported on the wire records.
        pub encoder: String,
        /// Wire frames observed.
        pub observations: u64,
        /// Distinct frame sizes; `1` means constant-size.
        pub distinct_sizes: usize,
        /// Smallest frame in bytes.
        pub min_wire_bytes: usize,
        /// Largest frame in bytes.
        pub max_wire_bytes: usize,
        /// Normalized mutual information between event labels and sizes.
        pub nmi: f64,
        /// Seeded permutation-test p-value for that NMI.
        pub p_value: f64,
        /// Inter-transmission gaps observed (always one fewer than the
        /// timed frames; 0 when the stream carried no send stamps).
        pub gap_observations: u64,
        /// Distinct gap values; `1` means a perfectly regular schedule.
        pub distinct_gaps: usize,
        /// Smallest gap in virtual microseconds.
        pub min_gap_us: u64,
        /// Largest gap in virtual microseconds.
        pub max_gap_us: u64,
        /// Normalized mutual information between event labels and gaps.
        pub timing_nmi: f64,
        /// Seeded permutation-test p-value for the timing NMI (1.0 when no
        /// gaps were observed).
        pub timing_p_value: f64,
    }

    /// A scored audit, serializable as `LEAKAGE.json`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LeakageReport {
        /// Permutations used for each p-value.
        pub permutations: usize,
        /// Run seed the per-stream permutation seeds derive from.
        pub seed: u64,
        /// One entry per audited stream, sorted by `(label, encoder)`.
        pub entries: Vec<LeakageEntry>,
        /// Gate verdict, if a gate was evaluated.
        pub gate: Option<GateOutcome>,
    }

    fn push_f64(out: &mut String, v: f64) {
        out.push_str(&format!("{v:.6}"));
    }

    impl LeakageReport {
        /// Serializes the report as stable, human-diffable JSON (fixed field
        /// order, floats at fixed precision, one stream per line). Equal
        /// reports serialize to identical bytes — the determinism tests
        /// compare these strings across thread counts.
        pub fn to_json(&self) -> String {
            let mut out = String::with_capacity(256 + 256 * self.entries.len());
            out.push_str("{\n  \"version\": 2,\n  \"permutations\": ");
            out.push_str(&self.permutations.to_string());
            out.push_str(",\n  \"seed\": ");
            out.push_str(&self.seed.to_string());
            out.push_str(",\n  \"gate\": ");
            match &self.gate {
                None => out.push_str("null"),
                Some(gate) => {
                    out.push_str("{\"passed\": ");
                    out.push_str(if gate.passed { "true" } else { "false" });
                    out.push_str(", \"defended_checked\": ");
                    out.push_str(&gate.defended_checked.to_string());
                    out.push_str(", \"baseline_checked\": ");
                    out.push_str(&gate.baseline_checked.to_string());
                    out.push_str(", \"timing_defended_checked\": ");
                    out.push_str(&gate.timing_defended_checked.to_string());
                    out.push_str(", \"timing_baseline_checked\": ");
                    out.push_str(&gate.timing_baseline_checked.to_string());
                    out.push_str(", \"failures\": [");
                    for (i, failure) in gate.failures.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{}", JsonStr(failure));
                    }
                    out.push_str("]}");
                }
            }
            out.push_str(",\n  \"streams\": [");
            for (i, e) in self.entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("\n    {\"label\": ");
                let _ = write!(out, "{}", JsonStr(&e.label));
                out.push_str(", \"encoder\": ");
                let _ = write!(out, "{}", JsonStr(&e.encoder));
                out.push_str(", \"observations\": ");
                out.push_str(&e.observations.to_string());
                out.push_str(", \"distinct_sizes\": ");
                out.push_str(&e.distinct_sizes.to_string());
                out.push_str(", \"min_wire_bytes\": ");
                out.push_str(&e.min_wire_bytes.to_string());
                out.push_str(", \"max_wire_bytes\": ");
                out.push_str(&e.max_wire_bytes.to_string());
                out.push_str(", \"nmi\": ");
                push_f64(&mut out, e.nmi);
                out.push_str(", \"p_value\": ");
                push_f64(&mut out, e.p_value);
                out.push_str(", \"gap_observations\": ");
                out.push_str(&e.gap_observations.to_string());
                out.push_str(", \"distinct_gaps\": ");
                out.push_str(&e.distinct_gaps.to_string());
                out.push_str(", \"min_gap_us\": ");
                out.push_str(&e.min_gap_us.to_string());
                out.push_str(", \"max_gap_us\": ");
                out.push_str(&e.max_gap_us.to_string());
                out.push_str(", \"timing_nmi\": ");
                push_f64(&mut out, e.timing_nmi);
                out.push_str(", \"timing_p_value\": ");
                push_f64(&mut out, e.timing_p_value);
                out.push('}');
            }
            if !self.entries.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str("]\n}\n");
            out
        }
    }

    impl fmt::Display for LeakageReport {
        /// Renders the scored streams as a fixed-width table, with the gate
        /// verdict appended when present.
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            writeln!(
                f,
                "{:<28} {:<9} {:>7} {:>6} {:>5} {:>5} {:>7} {:>7} {:>6} {:>7} {:>7}",
                "label",
                "encoder",
                "frames",
                "sizes",
                "min",
                "max",
                "NMI",
                "p",
                "gaps",
                "tNMI",
                "tp"
            )?;
            writeln!(
                f,
                "{:-<28} {:-<9} {:-<7} {:-<6} {:-<5} {:-<5} {:-<7} {:-<7} {:-<6} {:-<7} {:-<7}",
                "", "", "", "", "", "", "", "", "", "", ""
            )?;
            for e in &self.entries {
                writeln!(
                    f,
                    "{:<28} {:<9} {:>7} {:>6} {:>5} {:>5} {:>7.4} {:>7.4} {:>6} {:>7.4} {:>7.4}",
                    e.label,
                    e.encoder,
                    e.observations,
                    e.distinct_sizes,
                    e.min_wire_bytes,
                    e.max_wire_bytes,
                    e.nmi,
                    e.p_value,
                    e.gap_observations,
                    e.timing_nmi,
                    e.timing_p_value,
                )?;
            }
            if let Some(gate) = &self.gate {
                writeln!(
                    f,
                    "gate: {} ({} defended, {} baseline streams checked; \
                     timing: {} defended, {} baseline)",
                    if gate.passed { "PASS" } else { "FAIL" },
                    gate.defended_checked,
                    gate.baseline_checked,
                    gate.timing_defended_checked,
                    gate.timing_baseline_checked,
                )?;
                for failure in &gate.failures {
                    writeln!(f, "  - {failure}")?;
                }
            }
            Ok(())
        }
    }

    /// The CI leakage-regression gate.
    ///
    /// Two-sided by construction: defended encoders must score at or below
    /// the NMI threshold, *and* at least one baseline encoder must score
    /// above it with a significant p-value on the same data. The second
    /// clause proves the gate can actually detect leakage — a run where
    /// nothing leaks, not even the undefended baseline, means the gate saw
    /// too little data (or the wrong streams) and would otherwise be
    /// vacuously green.
    ///
    /// The same thresholds apply to **two channels**: frame sizes and
    /// inter-transmission gaps. A defended *size* failure requires only
    /// `NMI > threshold` (constant-size encoders score exactly 0, so any
    /// excess is a real regression), while a defended *timing* failure
    /// additionally requires `p <= p_threshold`: gap histograms inherit
    /// benign, event-independent variance from retry backoff under fault
    /// injection, and small-sample NMI bias on such streams can brush the
    /// threshold; the permutation test is bias-robust and separates
    /// event-correlated schedules from noisy-but-independent ones.
    #[derive(Debug, Clone, PartialEq)]
    pub struct LeakageGate {
        /// NMI above this is a leak; at or below is tolerated noise.
        pub nmi_threshold: f64,
        /// Baseline leakage must be at least this significant to count as
        /// proof the detector works.
        pub p_threshold: f64,
        /// Streams with fewer observations than this are skipped: NMI
        /// estimates from a handful of frames are dominated by bias.
        pub min_observations: u64,
        /// Encoder names that must not leak (e.g. `AGE`, `Padded`).
        pub defended: Vec<String>,
        /// Encoder names expected to leak (e.g. `Std`).
        pub baseline: Vec<String>,
    }

    /// The verdict from evaluating a [`LeakageGate`] against a report.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct GateOutcome {
        /// Whether every check passed.
        pub passed: bool,
        /// Human-readable reasons for failure; empty when passed.
        pub failures: Vec<String>,
        /// Defended streams that met the observation floor.
        pub defended_checked: usize,
        /// Baseline streams that met the observation floor.
        pub baseline_checked: usize,
        /// Defended streams whose gap histogram met the observation floor.
        pub timing_defended_checked: usize,
        /// Baseline streams whose gap histogram met the observation floor.
        pub timing_baseline_checked: usize,
    }

    impl LeakageGate {
        /// Evaluates the gate against scored entries. Fails on any defended
        /// leak, and fails if it cannot prove itself non-vacuous (no
        /// defended streams, no baseline streams, or a baseline that does
        /// not demonstrably leak).
        pub fn evaluate(&self, entries: &[LeakageEntry]) -> GateOutcome {
            let mut outcome = GateOutcome::default();
            let mut baseline_leaks = false;
            let mut timing_baseline_leaks = false;
            for e in entries {
                let defended = self.defended.iter().any(|d| d == &e.encoder);
                let baseline = self.baseline.iter().any(|b| b == &e.encoder);
                if e.observations >= self.min_observations {
                    if defended {
                        outcome.defended_checked += 1;
                        if e.nmi > self.nmi_threshold {
                            outcome.failures.push(format!(
                                "leakage regression: {}/{} NMI {:.4} exceeds threshold {:.4} \
                                 (p={:.4}, {} frames, {} distinct sizes)",
                                e.label,
                                e.encoder,
                                e.nmi,
                                self.nmi_threshold,
                                e.p_value,
                                e.observations,
                                e.distinct_sizes,
                            ));
                        }
                    }
                    if baseline {
                        outcome.baseline_checked += 1;
                        if e.nmi > self.nmi_threshold && e.p_value <= self.p_threshold {
                            baseline_leaks = true;
                        }
                    }
                }
                if e.gap_observations >= self.min_observations {
                    if defended {
                        outcome.timing_defended_checked += 1;
                        if e.timing_nmi > self.nmi_threshold && e.timing_p_value <= self.p_threshold
                        {
                            outcome.failures.push(format!(
                                "timing regression: {}/{} gap NMI {:.4} exceeds threshold \
                                 {:.4} with p={:.4} <= {:.4} ({} gaps, {} distinct)",
                                e.label,
                                e.encoder,
                                e.timing_nmi,
                                self.nmi_threshold,
                                e.timing_p_value,
                                self.p_threshold,
                                e.gap_observations,
                                e.distinct_gaps,
                            ));
                        }
                    }
                    if baseline {
                        outcome.timing_baseline_checked += 1;
                        if e.timing_nmi > self.nmi_threshold && e.timing_p_value <= self.p_threshold
                        {
                            timing_baseline_leaks = true;
                        }
                    }
                }
            }
            if outcome.defended_checked == 0 {
                outcome.failures.push(format!(
                    "vacuous gate: no defended stream ({}) met the {}-observation floor",
                    self.defended.join(", "),
                    self.min_observations,
                ));
            }
            if outcome.baseline_checked == 0 {
                outcome.failures.push(format!(
                    "vacuous gate: no baseline stream ({}) met the {}-observation floor",
                    self.baseline.join(", "),
                    self.min_observations,
                ));
            } else if !baseline_leaks {
                outcome.failures.push(format!(
                    "detector not demonstrated: no baseline stream shows NMI > {:.4} \
                     with p <= {:.4}; the gate cannot prove it would catch a leak",
                    self.nmi_threshold, self.p_threshold,
                ));
            }
            if outcome.timing_defended_checked == 0 {
                outcome.failures.push(format!(
                    "vacuous timing gate: no defended stream ({}) produced {} \
                     inter-transmission gaps",
                    self.defended.join(", "),
                    self.min_observations,
                ));
            }
            if outcome.timing_baseline_checked == 0 {
                outcome.failures.push(format!(
                    "vacuous timing gate: no baseline stream ({}) produced {} \
                     inter-transmission gaps",
                    self.baseline.join(", "),
                    self.min_observations,
                ));
            } else if !timing_baseline_leaks {
                outcome.failures.push(format!(
                    "timing detector not demonstrated: no baseline stream shows gap \
                     NMI > {:.4} with p <= {:.4}; the gate cannot prove it would catch \
                     a timing leak",
                    self.nmi_threshold, self.p_threshold,
                ));
            }
            outcome.passed = outcome.failures.is_empty();
            outcome
        }
    }

    /// A [`Sink`] that folds wire records into a [`LeakageAudit`] and
    /// ignores batch records. Share one across sweep threads (count merges
    /// commute) or fan it out next to a `JsonlSink`.
    #[derive(Debug, Default)]
    pub struct LeakageSink {
        audit: Mutex<LeakageAudit>,
    }

    impl LeakageSink {
        /// An empty audit sink.
        pub fn new() -> Self {
            Self::default()
        }

        /// Takes the accumulated audit, leaving an empty one behind.
        pub fn take(&self) -> LeakageAudit {
            std::mem::take(&mut *self.audit.lock().unwrap())
        }

        /// A clone of the current audit state.
        pub fn snapshot(&self) -> LeakageAudit {
            self.audit.lock().unwrap().clone()
        }
    }

    impl Sink for LeakageSink {
        fn record_batch(&self, _record: &crate::record::BatchRecord) {}

        fn record_wire(&self, record: &WireRecord) {
            self.audit.lock().unwrap().observe_wire(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_from_counts_known_values() {
        assert_eq!(entropy_from_counts([]), 0.0);
        assert_eq!(entropy_from_counts([10]), 0.0);
        assert!((entropy_from_counts([5, 5]) - 1.0).abs() < 1e-12);
        assert!((entropy_from_counts([1, 1, 1, 1]) - 2.0).abs() < 1e-12);
        // Zero counts are ignored.
        assert!((entropy_from_counts([5, 0, 5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stream_nmi_matches_pairwise_nmi() {
        // The offline attack and the online audit must agree bit-for-bit:
        // same counts, same BTreeMap summation order, same float result.
        let pairs: Vec<(usize, usize)> = (0..300)
            .map(|i| (i % 3, if i % 5 == 0 { 200 } else { 80 + (i % 3) * 12 }))
            .collect();
        let mut stream = LeakageStream::new();
        for &(l, m) in &pairs {
            stream.observe(l, m);
        }
        assert_eq!(stream.nmi().to_bits(), nmi(&pairs).to_bits());
        assert_eq!(stream, pairs.iter().copied().collect());
        assert_eq!(stream.total(), 300);
        assert_eq!(stream.distinct_labels(), 3);
    }

    #[test]
    fn stream_perfect_dependence_is_one() {
        let pairs: Vec<(usize, usize)> = (0..100).map(|i| (i % 4, 100 + (i % 4) * 50)).collect();
        assert!((nmi(&pairs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_streams_score_zero_not_nan() {
        // Empty.
        let empty = LeakageStream::new();
        assert_eq!(empty.nmi(), 0.0);
        assert_eq!(nmi(&[]), 0.0);
        assert_eq!(empty.permutation_p(10, 1), 1.0);
        // Constant sizes (the defended case).
        let constant: Vec<(usize, usize)> = (0..100).map(|i| (i % 4, 220)).collect();
        assert_eq!(nmi(&constant), 0.0);
        assert_eq!(LeakageStream::from_iter(constant).distinct_sizes(), 1);
        // Single label class: H(L) = 0, nothing to leak; the normalization
        // must not divide 0 by 0.
        let one_label: Vec<(usize, usize)> = (0..200).map(|i| (3, 100 + i % 7)).collect();
        assert_eq!(nmi(&one_label), 0.0);
        assert!(!nmi(&one_label).is_nan());
        // Both constant: H(L) + H(M) = 0 must be guarded, not divided by.
        let mut flat = LeakageStream::new();
        flat.observe_n(1, 64, 50);
        assert_eq!(flat.nmi(), 0.0);
        assert_eq!(nmi(&[(1, 64); 50]), 0.0);
    }

    #[test]
    fn nmi_independent_variables_is_near_zero() {
        // Independent but not constant: NMI is small (sampling noise only).
        let pairs: Vec<(usize, usize)> = (0..2000).map(|i| (i % 2, 100 + (i / 2) % 2)).collect();
        assert!(nmi(&pairs) < 0.01);
    }

    #[test]
    fn nmi_partial_dependence_is_intermediate() {
        // Half the mass is informative, half is noise.
        let pairs: Vec<(usize, usize)> = (0..400)
            .map(|i| (i % 2, if (i / 2) % 2 == 0 { 100 + i % 2 } else { 300 }))
            .collect();
        let v = nmi(&pairs);
        assert!(v > 0.1 && v < 0.9, "v={v}");
    }

    #[test]
    fn nmi_is_symmetric_under_relabeling() {
        let pairs = [(0, 9), (1, 8), (2, 7), (0, 9), (1, 8), (2, 7)];
        let relabeled: Vec<(usize, usize)> = pairs.iter().map(|&(l, m)| (2 - l, m)).collect();
        assert!((nmi(&pairs) - nmi(&relabeled)).abs() < 1e-12);
    }

    #[test]
    fn merge_is_order_independent_and_counts_add() {
        let mut a = LeakageStream::new();
        let mut b = LeakageStream::new();
        for i in 0..60usize {
            if i % 2 == 0 {
                a.observe(i % 3, 100 + i % 5);
            } else {
                b.observe(i % 3, 100 + i % 5);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total(), 60);
        // Merged NMI is bit-identical to observing everything in one stream.
        let mut whole = LeakageStream::new();
        for i in 0..60usize {
            whole.observe(i % 3, 100 + i % 5);
        }
        assert_eq!(ab, whole);
        assert_eq!(ab.nmi().to_bits(), whole.nmi().to_bits());
    }

    #[test]
    fn permutation_p_is_seeded_and_detects_leakage() {
        let pairs: Vec<(usize, usize)> = (0..200).map(|i| (i % 2, 100 + (i % 2) * 80)).collect();
        let p = permutation_test(&pairs, 200, 42);
        assert!(p < 0.01, "p={p}");
        assert_eq!(p, permutation_test(&pairs, 200, 42));
        let leaky: LeakageStream = pairs.into_iter().collect();
        let p = leaky.permutation_p(200, 42);
        assert!(p < 0.01, "p={p}");
        assert_eq!(p, leaky.permutation_p(200, 42));
        assert_eq!(leaky.permutation_p(0, 42), 1.0);
    }

    #[test]
    fn permutation_test_accepts_null_for_constant_sizes() {
        let pairs: Vec<(usize, usize)> = (0..200).map(|i| (i % 2, 128)).collect();
        let p = permutation_test(&pairs, 100, 42);
        assert!(p > 0.9, "p={p}");
    }

    #[test]
    fn permutation_test_degenerate_inputs_return_one() {
        assert_eq!(permutation_test(&[], 100, 42), 1.0);
        let pairs: Vec<(usize, usize)> = (0..50).map(|i| (i % 2, 100 + i % 2)).collect();
        assert_eq!(permutation_test(&pairs, 0, 42), 1.0);
    }

    #[test]
    fn pairs_expand_the_counts_in_map_order() {
        let mut stream = LeakageStream::new();
        stream.observe_n(2, 7, 2);
        stream.observe(0, 9);
        stream.observe(2, 5);
        assert_eq!(stream.pairs(), vec![(0, 9), (2, 5), (2, 7), (2, 7)]);
        assert!(LeakageStream::new().pairs().is_empty());
    }

    mod audit_tests {
        use super::super::*;
        use crate::record::WireRecord;
        use crate::sink::Sink;

        fn wire(label: &str, encoder: &str, event: usize, bytes: usize, seq: u64) -> WireRecord {
            WireRecord {
                label: label.to_string(),
                encoder: encoder.to_string(),
                seq,
                event,
                wire_bytes: bytes,
                epoch: 0,
                virtual_time: 0,
            }
        }

        fn leaky_and_defended() -> LeakageAudit {
            let mut audit = LeakageAudit::new();
            let (mut t_std, mut t_age) = (0u64, 0u64);
            for i in 0..120usize {
                // Undefended: size tracks the event exactly, and so does
                // the schedule (a bigger frame is on the air for longer).
                t_std += 500_000 + (i % 3) as u64 * 40_000;
                audit.observe_timed("epi/Linear/r0.50", "Std", i % 3, 60 + (i % 3) * 20, t_std);
                // Defended: constant size, metronome schedule.
                t_age += 500_000;
                audit.observe_timed("epi/Linear/r0.50", "AGE", i % 3, 118, t_age);
            }
            audit
        }

        fn gate() -> LeakageGate {
            LeakageGate {
                nmi_threshold: 0.05,
                p_threshold: 0.05,
                min_observations: 30,
                defended: vec!["AGE".into(), "Padded".into()],
                baseline: vec!["Std".into()],
            }
        }

        #[test]
        fn audit_merge_matches_single_writer() {
            let mut parts = [LeakageAudit::new(), LeakageAudit::new()];
            for i in 0..100usize {
                parts[i % 2].observe("s", "AGE", i % 4, 118);
                parts[i % 2].observe("s", "Std", i % 4, 50 + (i % 4) * 4);
            }
            let mut merged = LeakageAudit::new();
            merged.merge(&parts[0]);
            merged.merge(&parts[1]);
            let mut whole = LeakageAudit::new();
            for i in 0..100usize {
                whole.observe("s", "AGE", i % 4, 118);
                whole.observe("s", "Std", i % 4, 50 + (i % 4) * 4);
            }
            assert_eq!(merged, whole);
            let a = merged.report(50, 9).to_json();
            let b = whole.report(50, 9).to_json();
            assert_eq!(a, b);
        }

        #[test]
        fn report_scores_streams_and_serializes_stably() {
            let audit = leaky_and_defended();
            let report = audit.report(100, 2022);
            assert_eq!(report.entries.len(), 2);
            let age = &report.entries[0];
            let std = &report.entries[1];
            assert_eq!((age.encoder.as_str(), std.encoder.as_str()), ("AGE", "Std"));
            assert_eq!(age.nmi, 0.0);
            assert_eq!(age.distinct_sizes, 1);
            assert!(std.nmi > 0.9, "std nmi={}", std.nmi);
            assert!(std.p_value < 0.05, "std p={}", std.p_value);
            // Timing channel: 119 gaps each (one fewer than the frames);
            // the metronome scores 0, the stretchy schedule leaks.
            assert_eq!(age.gap_observations, 119);
            assert_eq!((age.distinct_gaps, age.timing_nmi), (1, 0.0));
            assert_eq!((age.min_gap_us, age.max_gap_us), (500_000, 500_000));
            assert!(std.timing_nmi > 0.9, "std tnmi={}", std.timing_nmi);
            assert!(std.timing_p_value < 0.05, "std tp={}", std.timing_p_value);
            let json = report.to_json();
            assert_eq!(json, audit.report(100, 2022).to_json());
            assert!(json.contains("\"version\": 2"));
            assert!(json.contains("\"encoder\": \"AGE\""));
            assert!(json.contains("\"gap_observations\": 119"));
            assert!(json.contains("\"timing_nmi\": "));
            assert!(json.contains("\"gate\": null"));
            assert!(json.ends_with("}\n"));
        }

        #[test]
        fn gate_passes_when_defended_holds_and_baseline_leaks() {
            let report = leaky_and_defended().report(100, 2022);
            let outcome = gate().evaluate(&report.entries);
            assert!(outcome.passed, "failures: {:?}", outcome.failures);
            assert_eq!(outcome.defended_checked, 1);
            assert_eq!(outcome.baseline_checked, 1);
            assert_eq!(outcome.timing_defended_checked, 1);
            assert_eq!(outcome.timing_baseline_checked, 1);
        }

        #[test]
        fn gate_catches_event_correlated_schedule_behind_constant_sizes() {
            let mut audit = leaky_and_defended();
            // Injected timing regression: constant 118-byte frames (the
            // size channel sees nothing), but the retry backoff stretches
            // with the event — exactly what an event-dependent policy
            // would do to the schedule.
            let mut t = 0u64;
            for i in 0..120usize {
                t += 500_000 + (i % 3) as u64 * 50_000;
                audit.observe_timed("epi/Deviation/r0.50", "Padded", i % 3, 118, t);
            }
            let report = audit.report(100, 2022);
            let regressed = report
                .entries
                .iter()
                .find(|e| e.encoder == "Padded")
                .unwrap();
            assert_eq!(regressed.nmi, 0.0); // invisible to the size channel
            let outcome = gate().evaluate(&report.entries);
            assert!(!outcome.passed);
            assert!(
                outcome
                    .failures
                    .iter()
                    .any(|f| f.contains("timing regression") && f.contains("Padded")),
                "failures: {:?}",
                outcome.failures
            );
            // And only the timing clause fired for the regressed stream.
            assert!(!outcome.failures.iter().any(|f| f.starts_with("leakage")));
        }

        #[test]
        fn clock_restarts_and_unstamped_records_produce_no_gaps() {
            let mut audit = LeakageAudit::new();
            // First run of the cell: 3 frames, 2 gaps.
            for t in [100u64, 200, 300] {
                audit.observe_timed("s", "AGE", 0, 118, t);
            }
            // The cell is re-run later; its clock restarts at 0. The
            // non-increasing stamp must open a new gap chain, not record
            // a bogus negative/huge gap.
            for t in [50u64, 150] {
                audit.observe_timed("s", "AGE", 1, 118, t);
            }
            let gaps = audit.gap_stream("s", "AGE").unwrap();
            assert_eq!(gaps.total(), 3); // 2 from run one + 1 from run two
            assert_eq!(gaps.distinct_sizes(), 1); // all gaps are 100 µs

            // Zero-stamped wire records feed the size channel only.
            let mut legacy = LeakageAudit::new();
            for i in 0..5u64 {
                legacy.observe_wire(&wire("s", "Std", 0, 60, i));
            }
            assert_eq!(legacy.stream("s", "Std").unwrap().total(), 5);
            assert!(legacy.gap_stream("s", "Std").is_none());
        }

        #[test]
        fn timed_wire_records_feed_the_gap_histogram() {
            let mut audit = LeakageAudit::new();
            for i in 0..4u64 {
                let mut record = wire("s", "Std", (i % 2) as usize, 60, i);
                record.virtual_time = (i + 1) * 1_000;
                audit.observe_wire(&record);
            }
            let gaps = audit.gap_stream("s", "Std").unwrap();
            assert_eq!(gaps.total(), 3);
            assert_eq!(
                (gaps.min_size(), gaps.max_size()),
                (Some(1_000), Some(1_000))
            );
        }

        #[test]
        fn audit_merge_matches_single_writer_for_gaps() {
            // Streams are cell-atomic: a merge combines audits that each
            // saw *whole* streams. That case must be exact.
            let mut a = LeakageAudit::new();
            let mut b = LeakageAudit::new();
            let mut whole = LeakageAudit::new();
            for i in 0..50u64 {
                let t = (i + 1) * 10_000 + (i % 2) * 500;
                a.observe_timed("cell/a", "Std", (i % 2) as usize, 60, t);
                whole.observe_timed("cell/a", "Std", (i % 2) as usize, 60, t);
            }
            for i in 0..50u64 {
                let t = (i + 1) * 10_000;
                b.observe_timed("cell/b", "AGE", (i % 2) as usize, 118, t);
                whole.observe_timed("cell/b", "AGE", (i % 2) as usize, 118, t);
            }
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            assert_eq!(ab, ba);
            assert_eq!(ab, whole);
            assert_eq!(ab.report(50, 7).to_json(), whole.report(50, 7).to_json());
        }

        #[test]
        fn gate_fails_on_injected_padding_regression() {
            let mut audit = leaky_and_defended();
            // Injected regression: the "defended" encoder starts varying its
            // frame size with the event, as a broken padding stage would.
            for i in 0..120usize {
                audit.observe("epi/Deviation/r0.50", "Padded", i % 3, 100 + (i % 3) * 8);
            }
            let report = audit.report(100, 2022);
            let outcome = gate().evaluate(&report.entries);
            assert!(!outcome.passed);
            assert!(
                outcome.failures.iter().any(|f| f.contains("Padded")),
                "failures: {:?}",
                outcome.failures
            );
        }

        #[test]
        fn gate_fails_when_vacuous_or_detector_unproven() {
            // No streams at all: all four vacuity clauses fire (size and
            // timing, defended and baseline).
            let empty = LeakageAudit::new().report(10, 1);
            let outcome = gate().evaluate(&empty.entries);
            assert!(!outcome.passed);
            assert_eq!(outcome.failures.len(), 4);
            // Baseline present but (implausibly) constant-size: the gate
            // must refuse to certify a run where it never saw leakage.
            let mut audit = LeakageAudit::new();
            for i in 0..60usize {
                audit.observe("s", "AGE", i % 3, 118);
                audit.observe("s", "Std", i % 3, 118);
            }
            let outcome = gate().evaluate(&audit.report(50, 1).entries);
            assert!(!outcome.passed);
            assert!(outcome
                .failures
                .iter()
                .any(|f| f.contains("detector not demonstrated")));
        }

        #[test]
        fn leakage_sink_collects_wire_records() {
            let sink = LeakageSink::new();
            for i in 0..40u64 {
                sink.record_wire(&wire(
                    "s",
                    "Std",
                    (i % 2) as usize,
                    60 + (i % 2) as usize,
                    i,
                ));
            }
            // Batch records are ignored by this sink.
            sink.record_batch(&crate::record::BatchRecord::default());
            let audit = sink.take();
            let stream = audit.stream("s", "Std").unwrap();
            assert_eq!(stream.total(), 40);
            assert!(stream.nmi() > 0.9);
            assert!(sink.take().is_empty());
        }
    }
}
