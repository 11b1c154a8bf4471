//! The experiment runner: policies × defenses × budgets over a dataset.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use crate::clock::{ClockModel, VirtualClock};
use crate::sweep::SweepCell;
use age_core::{
    target, AgeEncoder, Batch, BatchConfig, EncodeScratch, Encoder, PaddedEncoder, PrunedEncoder,
    SingleEncoder, StandardEncoder, UnshiftedEncoder,
};
use age_crypto::{AesCbc, AesCtr, ChaCha20, ChaCha20Poly1305, Cipher};
use age_datasets::{Dataset, DatasetKind, Scale, Sequence};
use age_energy::{BudgetLedger, EncoderCost, EnergyModel, MilliJoules};
use age_nn::{fit_gate_bias, SkipRnn, SkipRnnPolicy, Trainer};
use age_reconstruct::{interpolate, mae, std_deviation};
use age_sampling::{
    fit_threshold, DeviationPolicy, LinearPolicy, Policy, RandomPolicy, UniformPolicy,
};
use age_telemetry::{DetRng, FleetNonceAudit, Tracer, WireRecord};
use age_transport::{
    chacha20poly1305_factory, ChannelStats, FaultChannel, FaultPlan, Link, LinkStats, NvmFaultPlan,
    NvmStore, Receiver, RetryPolicy, Sensor, SequenceJournal,
};

/// Which sampling policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Evenly spaced, non-adaptive (the paper's primary baseline).
    Uniform,
    /// Bernoulli, non-adaptive (omitted from the paper's tables; Uniform
    /// dominates it).
    Random,
    /// Chatterjea & Havinga's difference-threshold policy \[25\].
    Linear,
    /// Silva et al.'s moving-deviation policy \[96\].
    Deviation,
    /// The trained Skip RNN policy \[22\] (§5.5).
    SkipRnn,
}

impl PolicyKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Uniform => "Uniform",
            PolicyKind::Random => "Random",
            PolicyKind::Linear => "Linear",
            PolicyKind::Deviation => "Deviation",
            PolicyKind::SkipRnn => "Skip RNN",
        }
    }
}

/// Which message-size defense to apply between sampling and encryption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Defense {
    /// No defense: the standard variable-length message (leaks).
    Standard,
    /// BuFLO-style padding to the largest evaluation batch (§5.1).
    Padded,
    /// Adaptive Group Encoding (§4).
    Age,
    /// Ablation: one global width, static exponent (§5.6).
    Single,
    /// Ablation: six even groups, static exponent (§5.6).
    Unshifted,
    /// Ablation: pruning only, full-width survivors (§5.6).
    Pruned,
}

impl Defense {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            Defense::Standard => "Std",
            Defense::Padded => "Padded",
            Defense::Age => "AGE",
            Defense::Single => "Single",
            Defense::Unshifted => "Unshifted",
            Defense::Pruned => "Pruned",
        }
    }

    fn encoder_cost(&self) -> EncoderCost {
        match self {
            // Only AGE runs the multi-step pipeline; everything else writes
            // values straight into a buffer.
            Defense::Age => EncoderCost::Age,
            _ => EncoderCost::Standard,
        }
    }
}

/// Which cipher encrypts the batched messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CipherChoice {
    /// RFC 7539 stream cipher — the paper's simulator default.
    ChaCha20,
    /// RFC 7539 AEAD (ChaCha20 + Poly1305 tag): authenticated messages.
    ChaCha20Poly1305,
    /// AES-128 in counter mode (stream-like framing).
    Aes128Ctr,
    /// AES-128 in CBC mode with PKCS#7 padding — the paper's MCU setting.
    Aes128Cbc,
}

impl CipherChoice {
    pub(crate) fn build(&self) -> Box<dyn Cipher> {
        match self {
            CipherChoice::ChaCha20 => Box::new(ChaCha20::new([0x42; 32])),
            CipherChoice::ChaCha20Poly1305 => Box::new(ChaCha20Poly1305::new([0x42; 32])),
            CipherChoice::Aes128Ctr => Box::new(AesCtr::new([0x42; 16])),
            CipherChoice::Aes128Cbc => Box::new(AesCbc::new([0x42; 16])),
        }
    }
}

/// Brownout schedule for a transport-backed run: the sensor loses power at
/// deterministic, seeded points — sometimes after the sequence journal
/// persisted a reservation but before the frame radiated — and must recover
/// without ever reusing a nonce. Enabling it routes every send through an
/// NVM-backed [`SequenceJournal`], whose flash writes are billed against
/// the same energy ledger as the radio.
///
/// Like the channel's [`FaultPlan`], the schedule is a pure function of the
/// seed and the cell coordinates, so sweeps stay byte-identical at any
/// thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerFaults {
    /// Per-message probability of a power cut before the send. Each cut is
    /// equally likely to strike before the seal or between the journal
    /// write and the radio transmission (the torn-frame window).
    pub reset_rate: f64,
    /// Base seed for the cut schedule, mixed with the cell coordinates.
    pub seed: u64,
    /// Journal reservation block size `K`: one NVM write per `K` frames.
    pub block: u64,
    /// Fault plan for the simulated NVM store itself (its seed field is
    /// ignored; the store is seeded from the cell coordinates).
    pub nvm: NvmFaultPlan,
}

impl PowerFaults {
    /// A schedule cutting power before each message with probability
    /// `reset_rate`, over mildly unreliable NVM and the default journal
    /// block size.
    pub fn at_rate(reset_rate: f64, seed: u64) -> Self {
        PowerFaults {
            reset_rate,
            seed,
            block: SequenceJournal::DEFAULT_BLOCK,
            nvm: NvmFaultPlan {
                fail_rate: 0.02,
                torn_rate: 0.05,
                seed: 0,
            },
        }
    }
}

/// Fault-injection setup for a transport-backed run: the channel's fault
/// rates, the sensor's retry/backoff policy, and (optionally) a power-cut
/// schedule with journal-backed recovery.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSetup {
    /// Channel fault probabilities and base seed.
    pub plan: FaultPlan,
    /// Retry/timeout policy for unacknowledged frames.
    pub retry: RetryPolicy,
    /// Brownout schedule; `None` leaves the sensor reset-free and
    /// journal-free (the pre-recovery behavior, byte-identical).
    pub power: Option<PowerFaults>,
    /// Epoch rekeying: `Some(interval)` replaces the static session key
    /// with a per-cell ratchet root, rotating every `interval` sequence
    /// numbers (write-ahead journaled when `power` attaches a journal).
    /// Rekeying always seals with the ChaCha20-Poly1305 AEAD — the
    /// ratchet's epoch keys feed the cipher factory on both ends — so
    /// pair it with [`CipherChoice::ChaCha20Poly1305`]. `None` keeps the
    /// static single-key link, byte-identical to before.
    pub rekey_interval: Option<u64>,
}

impl FaultSetup {
    /// A setup over `plan` with the default retry policy and no power cuts.
    pub fn new(plan: FaultPlan) -> Self {
        FaultSetup {
            plan,
            retry: RetryPolicy::default(),
            power: None,
            rekey_interval: None,
        }
    }

    /// Overrides the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Adds a brownout schedule (and with it, the sequence journal).
    pub fn with_power(mut self, power: PowerFaults) -> Self {
        self.power = Some(power);
        self
    }

    /// Enables epoch rekeying every `interval` sequence numbers.
    pub fn with_rekey(mut self, interval: u64) -> Self {
        self.rekey_interval = Some(interval);
        self
    }
}

/// The "rekey under fire" preset: scheduled rotations every `interval`
/// sequence numbers interleaved with journal-backed brownouts (torn NVM
/// writes included) and a dropping, corrupting channel. Used by the
/// `rekey` repro extension and the CI soak leg, whose contract is that
/// the nonce audit stays green and the wire stays byte-constant across
/// every rotation this setup forces.
pub fn rekey_scenario(interval: u64, reset_rate: f64, seed: u64) -> FaultSetup {
    FaultSetup::new(FaultPlan {
        drop_rate: 0.05,
        corrupt_rate: 0.02,
        seed,
        ..FaultPlan::NONE
    })
    .with_power(PowerFaults::at_rate(reset_rate, seed))
    .with_rekey(interval)
}

/// Transport-layer rollup of a fault-injected run. Deterministic per seed,
/// so it participates in byte-identical result comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransportSummary {
    /// Link session counters (sent/retried/delivered/rejected/lost).
    pub link: LinkStats,
    /// Channel-side fault counters and wire-length extremes.
    pub channel: ChannelStats,
    /// Delivered payloads the server could not decode (it skipped the
    /// batch).
    pub decode_failed: usize,
    /// The sensor's explicit-sequence seals at or below its high-water
    /// mark ([`Sensor::reuse_risked`]).
    pub reuse_risked: u64,
}

impl TransportSummary {
    /// Folds another run's counters in (counts add, so the totals of a set
    /// of runs do not depend on the order they are merged in).
    pub fn merge(&mut self, other: &TransportSummary) {
        self.link.merge(&other.link);
        self.channel.merge(&other.channel);
        self.decode_failed += other.decode_failed;
        self.reuse_risked += other.reuse_risked;
    }
}

/// One line: frames on the wire, rejections, reset recovery, rotations.
impl fmt::Display for TransportSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (l, c) = (&self.link, &self.channel);
        write!(
            f,
            "{} sent / {} retried / {} dropped; rejected {} auth / {} replay / {} other / \
             {} decode; {} reboots / {} journal flushes / {} sequences skipped / \
             {} reuse risked; {} rotations",
            l.frames_sent,
            l.frames_retried,
            c.dropped,
            l.auth_failed,
            l.replay_rejected,
            l.rejected_other,
            self.decode_failed,
            l.sensor_reboots,
            l.journal_flushes,
            l.sequences_skipped,
            self.reuse_risked,
            l.rotations
        )
    }
}

/// Per-sequence outcome of an experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequenceRecord {
    /// Ground-truth event label.
    pub label: usize,
    /// On-air message length the attacker observes (0 if never sent).
    pub message_bytes: usize,
    /// Reconstruction MAE against the true sequence.
    pub mae: f64,
    /// The sequence's standard deviation (Table 5 weighting).
    pub weight: f64,
    /// Energy spent on this sequence.
    pub energy_mj: f64,
    /// `true` if the budget was exhausted and the sequence was lost.
    pub violated: bool,
    /// Measurements the policy collected.
    pub collected: usize,
    /// Transmissions the transport used (1 = no retries; 0 if never sent).
    pub attempts: u32,
    /// `true` if the transport abandoned the message or the server could
    /// not decode what arrived (distinct from a budget violation: the
    /// energy was spent and the attacker saw the frames).
    pub lost: bool,
    /// Virtual time (µs) at which the frame's first radiation completed —
    /// the send stamp a timing eavesdropper records. 0 if nothing ever
    /// went on the air (budget violation, or the journal died first).
    pub sent_at_us: u64,
    /// Key epoch the frame was sealed under — always 0 on static-key
    /// paths, so single-link runs audit `(sensor, epoch, sequence)`
    /// exactly like fleet runs once rekeying is enabled.
    pub epoch: u64,
}

/// Aggregated result of one (policy, defense, budget) run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentResult {
    /// Per-sequence records in evaluation order.
    pub records: Vec<SequenceRecord>,
    /// The budget's collection rate.
    pub rate: f64,
    /// Policy display name.
    pub policy: &'static str,
    /// Defense display name.
    pub defense: &'static str,
    /// Per-sequence energy budget.
    pub budget_per_seq: MilliJoules,
    /// Transport counters when the run went through the fault-injected
    /// link; `None` for the plain seal/open path.
    pub transport: Option<TransportSummary>,
}

impl ExperimentResult {
    /// Arithmetic mean MAE over all sequences (Table 4).
    pub fn mean_mae(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.mae).sum::<f64>() / self.records.len() as f64
    }

    /// Deviation-weighted mean MAE (Table 5).
    pub fn weighted_mae(&self) -> f64 {
        let total_weight: f64 = self.records.iter().map(|r| r.weight).sum();
        if total_weight <= 0.0 {
            return self.mean_mae();
        }
        self.records.iter().map(|r| r.mae * r.weight).sum::<f64>() / total_weight
    }

    /// `(label, message size)` pairs for transmitted sequences — the
    /// attacker's observations.
    pub fn observations(&self) -> Vec<(usize, usize)> {
        self.records
            .iter()
            .filter(|r| !r.violated)
            .map(|r| (r.label, r.message_bytes))
            .collect()
    }

    /// Empirical NMI between event labels and message sizes (Table 6).
    pub fn nmi(&self) -> f64 {
        age_attack::nmi(&self.observations())
    }

    /// NMI between event labels and the sizes of the messages the server
    /// received (sent, not lost in transit). AGE must keep it at 0 even
    /// over a faulty link (§4.5).
    pub fn delivered_nmi(&self) -> f64 {
        let delivered: Vec<(usize, usize)> = self
            .records
            .iter()
            .filter(|r| !r.violated && !r.lost)
            .map(|r| (r.label, r.message_bytes))
            .collect();
        age_attack::nmi(&delivered)
    }

    /// NMI between event labels and whether each sent message was
    /// delivered or lost — near zero when faults strike independently of
    /// the events, the assumption behind AGE's §4.5 fault argument.
    pub fn drop_indicator_nmi(&self) -> f64 {
        let delivered: Vec<(usize, usize)> = self
            .records
            .iter()
            .filter(|r| !r.violated)
            .map(|r| (r.label, usize::from(!r.lost)))
            .collect();
        age_attack::nmi(&delivered)
    }

    /// `(label, inter-transmission gap µs)` pairs for successive sent
    /// frames — what a timing-only eavesdropper observes, extracted by
    /// [`age_attack::gap_observations`] from the sent frames' stamps.
    pub fn timing_observations(&self) -> Vec<(usize, usize)> {
        let sends: Vec<(usize, u64)> = self
            .records
            .iter()
            .filter(|r| !r.violated && r.sent_at_us > 0)
            .map(|r| (r.label, r.sent_at_us))
            .collect();
        age_attack::gap_observations(&sends)
    }

    /// Empirical NMI between event labels and inter-transmission gaps —
    /// the timing channel's counterpart to [`nmi`](Self::nmi).
    pub fn timing_nmi(&self) -> f64 {
        age_attack::nmi(&self.timing_observations())
    }

    /// Mean energy per *transmitted* sequence (Table 9): violated sequences
    /// spend nothing and would make an over-budget defense look cheap.
    pub fn mean_energy(&self) -> MilliJoules {
        let sent: Vec<f64> = self
            .records
            .iter()
            .filter(|r| !r.violated)
            .map(|r| r.energy_mj)
            .collect();
        if sent.is_empty() {
            return MilliJoules::ZERO;
        }
        MilliJoules(sent.iter().sum::<f64>() / sent.len() as f64)
    }

    /// Number of sequences lost to budget violations.
    pub fn violations(&self) -> usize {
        self.records.iter().filter(|r| r.violated).count()
    }

    /// Number of sequences lost in transit (transport gave up or the
    /// server could not decode what arrived). Always 0 on the plain path.
    pub fn losses(&self) -> usize {
        self.records.iter().filter(|r| r.lost).count()
    }

    /// Mean and standard deviation of message sizes per event label
    /// (Table 1); labels with no transmitted messages are omitted.
    pub fn size_stats_by_label(&self) -> Vec<(usize, f64, f64, usize)> {
        let obs = self.observations();
        let max_label = obs.iter().map(|&(l, _)| l).max();
        let Some(max_label) = max_label else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for label in 0..=max_label {
            let sizes: Vec<f64> = obs
                .iter()
                .filter(|&&(l, _)| l == label)
                .map(|&(_, s)| s as f64)
                .collect();
            if sizes.is_empty() {
                continue;
            }
            let n = sizes.len();
            let mean = sizes.iter().sum::<f64>() / n as f64;
            let var = sizes.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
            out.push((label, mean, var.sqrt(), n));
        }
        out
    }
}

/// Caches a generated dataset, fitted thresholds, and the trained Skip RNN,
/// and runs (policy × defense × budget) experiments over its test split.
///
/// The caches live behind [`Mutex`]es so a `&Runner` can be shared across
/// sweep worker threads (see [`crate::sweep`]); all fitting is
/// deterministic, so concurrent fill-in always converges to the same
/// values regardless of thread interleaving.
pub struct Runner {
    data: Dataset,
    batch_cfg: BatchConfig,
    energy: EnergyModel,
    seed: u64,
    train_count: usize,
    bounds: (f64, f64),
    fit_margin: f64,
    thresholds: Mutex<HashMap<(PolicyKind, u32), f64>>,
    skip_rnn: Mutex<Option<SkipRnn>>,
}

impl Runner {
    /// Fraction of sequences used for offline threshold/model fitting.
    const TRAIN_FRAC: f64 = 0.3;
    /// Hidden units of the Skip RNN policy.
    const RNN_HIDDEN: usize = 12;

    /// Generates the dataset and prepares an experiment runner.
    pub fn new(kind: DatasetKind, scale: Scale, seed: u64) -> Self {
        Self::with_dataset(Dataset::generate(kind, scale, seed), seed)
            .expect("generated datasets hold enough sequences with Table 3 specs")
    }

    /// Prepares a runner over an existing dataset — including one built
    /// from real recordings via [`Dataset::from_sequences`].
    ///
    /// # Errors
    ///
    /// Fails if the dataset's spec is not a valid batch configuration, or
    /// if it holds fewer than two sequences: at least one is needed to fit
    /// thresholds on and one to evaluate.
    pub fn with_dataset(data: Dataset, seed: u64) -> Result<Self, String> {
        let spec = *data.spec();
        let batch_cfg = BatchConfig::new(spec.seq_len, spec.features, spec.format)
            .map_err(|e| format!("dataset `{}`: {e}", spec.name))?;
        let len = data.sequences().len();
        if len < 2 {
            return Err(format!(
                "dataset `{}` has {len} sequence(s); a runner needs at least 2 \
                 (one to fit on, one to evaluate)",
                spec.name
            ));
        }
        let train_count = ((len as f64 * Self::TRAIN_FRAC) as usize).clamp(1, len - 1);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for seq in data.sequences() {
            for &v in &seq.values {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        Ok(Runner {
            data,
            batch_cfg,
            energy: EnergyModel::msp430(),
            seed,
            train_count,
            bounds: (lo, hi),
            fit_margin: Self::FIT_MARGIN,
            thresholds: Mutex::new(HashMap::new()),
            skip_rnn: Mutex::new(None),
        })
    }

    /// Overrides the offline-fit safety margin (default
    /// [`Runner::FIT_MARGIN`]); `1.0` targets the budget rate exactly.
    /// Clears any cached thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is outside `(0, 1]`.
    pub fn with_fit_margin(mut self, margin: f64) -> Self {
        assert!(margin > 0.0 && margin <= 1.0, "margin must be in (0, 1]");
        self.fit_margin = margin;
        self.thresholds
            .get_mut()
            .expect("no other runner handles")
            .clear();
        self
    }

    /// The generated dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// The batching configuration derived from Table 3.
    pub fn batch_config(&self) -> &BatchConfig {
        &self.batch_cfg
    }

    /// The energy model in use.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Test-split sequences (everything after the training prefix).
    pub fn test_sequences(&self) -> &[Sequence] {
        &self.data.sequences()[self.train_count..]
    }

    /// Instantiates a cipher for `choice` (the keys the simulator uses).
    pub fn cipher(&self, choice: CipherChoice) -> Box<dyn Cipher> {
        choice.build()
    }

    fn train_slices(&self) -> Vec<&[f64]> {
        self.data.sequences()[..self.train_count]
            .iter()
            .map(|s| s.values.as_slice())
            .collect()
    }

    /// Per-sequence energy budget at a collection rate: Uniform sampling's
    /// cost with the given cipher (§5.1).
    pub fn budget_per_seq(&self, rate: f64, cipher: CipherChoice) -> MilliJoules {
        let spec = self.data.spec();
        let cipher = cipher.build();
        let k = ((rate * spec.seq_len as f64) as usize).clamp(1, spec.seq_len);
        let plain = self.batch_cfg.standard_message_bytes(k);
        self.energy
            .uniform_budget(spec.seq_len, spec.features, rate, cipher.message_len(plain))
    }

    /// Builds (and caches the tuning of) a policy at a collection rate.
    pub fn policy(&self, kind: PolicyKind, rate: f64) -> Box<dyn Policy> {
        let spec = self.data.spec();
        let d = spec.features;
        match kind {
            PolicyKind::Uniform => Box::new(UniformPolicy::new(rate.clamp(1e-3, 1.0))),
            PolicyKind::Random => Box::new(RandomPolicy::new(rate.clamp(1e-3, 1.0), self.seed)),
            PolicyKind::Linear => {
                // Bound collection gaps relative to the sequence length —
                // unbounded periods on long, flat stretches produce gaps the
                // server cannot interpolate across.
                let cap = (spec.seq_len / 10).max(5);
                let thr = self.fitted_threshold(PolicyKind::Linear, rate, |t| {
                    Box::new(LinearPolicy::new(t).with_max_period(cap))
                });
                Box::new(LinearPolicy::new(thr).with_max_period(cap))
            }
            PolicyKind::Deviation => {
                // Doubling dynamics need a cap proportional to the sequence:
                // a period of 16 on Tiselac's 23-step sequences skips nearly
                // the whole batch in one decision.
                let cap = (spec.seq_len / 8).clamp(4, 16);
                let thr = self.fitted_threshold(PolicyKind::Deviation, rate, |t| {
                    Box::new(DeviationPolicy::new(t).with_max_period(cap))
                });
                Box::new(DeviationPolicy::new(thr).with_max_period(cap))
            }
            PolicyKind::SkipRnn => {
                let model = self.trained_rnn();
                let key = (PolicyKind::SkipRnn, (rate * 1000.0) as u32);
                let cached = self
                    .thresholds
                    .lock()
                    .expect("no poisoned fits")
                    .get(&key)
                    .copied();
                let bias = cached.unwrap_or_else(|| {
                    // Fit outside the lock; a concurrent duplicate fit is
                    // deterministic, so last-writer-wins is harmless.
                    let bias = fit_gate_bias(
                        &model,
                        &self.train_slices(),
                        d,
                        (rate * Self::FIT_MARGIN).clamp(1e-3, 1.0),
                        18,
                    );
                    self.thresholds
                        .lock()
                        .expect("no poisoned fits")
                        .insert(key, bias);
                    bias
                });
                Box::new(SkipRnnPolicy::new(model, bias))
            }
        }
    }

    /// Safety margin on the fitted collection rate: the offline fit targets
    /// slightly under the budget's rate so train/test generalization error
    /// does not push the realized energy over the long-term budget (a
    /// handful of randomized tail sequences would dominate the MAE).
    pub const FIT_MARGIN: f64 = 0.96;

    fn fitted_threshold<F>(&self, kind: PolicyKind, rate: f64, make: F) -> f64
    where
        F: Fn(f64) -> Box<dyn Policy>,
    {
        let key = (kind, (rate * 1000.0) as u32);
        if let Some(&thr) = self.thresholds.lock().expect("no poisoned fits").get(&key) {
            return thr;
        }
        // Fit outside the lock so sweep workers fitting different cells
        // don't serialize; the fit is deterministic, so two threads racing
        // on the same key insert the same value.
        let span = (self.bounds.1 - self.bounds.0).max(1e-6);
        let hi = span * self.data.spec().features as f64;
        let train = self.train_slices();
        let thr = fit_threshold(
            |t| PolicyRef(make(t)),
            &train,
            self.data.spec().features,
            (rate * self.fit_margin).clamp(1e-3, 1.0),
            hi,
            22,
        );
        self.thresholds
            .lock()
            .expect("no poisoned fits")
            .insert(key, thr);
        thr
    }

    fn trained_rnn(&self) -> SkipRnn {
        // Unlike threshold fits, training is expensive enough that we hold
        // the lock for its duration rather than risk duplicate work.
        let mut cache = self.skip_rnn.lock().expect("no poisoned training");
        if let Some(model) = cache.as_ref() {
            return model.clone();
        }
        let d = self.data.spec().features;
        // Cap BPTT cost on long datasets: train on sequence prefixes.
        let cap = 400 * d;
        let train: Vec<&[f64]> = self
            .train_slices()
            .into_iter()
            .map(|s| if s.len() > cap { &s[..cap] } else { s })
            .collect();
        let model = Trainer::new(d, Self::RNN_HIDDEN, self.seed ^ 0xD1CE)
            .epochs(2)
            .target_rate(0.5)
            .rate_weight(2.0)
            .train(&train);
        *cache = Some(model.clone());
        model
    }

    /// Builds the defense's encoder for a budget rate. Fixed-length targets
    /// derive from the paper's `M_B` minus AGE's §4.5 self-financing
    /// reduction, adapted to the cipher's framing.
    fn encoder(
        &self,
        defense: Defense,
        rate: f64,
        cipher: &dyn Cipher,
        policy: &dyn Policy,
        test: &[Sequence],
    ) -> Box<dyn Encoder> {
        let d = self.data.spec().features;
        match defense {
            Defense::Standard => Box::new(StandardEncoder),
            Defense::Padded => {
                // Minimal padding: the largest batch in the evaluation data.
                let max_k = test
                    .iter()
                    .map(|s| policy.sample(&s.values, d).len())
                    .max()
                    .unwrap_or(self.batch_cfg.max_len());
                Box::new(PaddedEncoder::new(
                    self.batch_cfg.standard_message_bytes(max_k),
                ))
            }
            fixed => {
                let plain = target::age_plaintext_bytes(
                    &self.batch_cfg,
                    rate,
                    cipher.kind(),
                    cipher.overhead(),
                );
                match fixed {
                    Defense::Age => Box::new(AgeEncoder::new(plain)),
                    Defense::Single => Box::new(SingleEncoder::new(plain)),
                    Defense::Unshifted => Box::new(UnshiftedEncoder::new(plain)),
                    Defense::Pruned => Box::new(PrunedEncoder::new(plain)),
                    _ => unreachable!("variable-length defenses handled above"),
                }
            }
        }
    }

    /// Derives an independent, reproducible fault-stream seed for one
    /// experiment cell: a pure function of the runner seed, the plan seed,
    /// and the cell coordinates, so sweeps stay byte-identical at any
    /// thread count while no two cells share a fault pattern.
    fn transport_seed(&self, cell: &SweepCell, plan_seed: u64) -> u64 {
        let mut s = self.seed
            ^ plan_seed.rotate_left(31)
            ^ cell.rate.to_bits().rotate_left(13)
            ^ ((cell.policy as u64) << 3)
            ^ ((cell.defense as u64) << 7)
            ^ ((cell.cipher as u64) << 11);
        // SplitMix64 finalizer to decorrelate neighbouring cells.
        s = (s ^ (s >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s = (s ^ (s >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        s ^ (s >> 31)
    }

    /// Builds the fault-injected link for a cell: channel, retry policy,
    /// optional epoch ratchet, and optional journal with its power-cut
    /// schedule.
    fn transport_step(&self, cell: &SweepCell, setup: FaultSetup) -> TransportStep {
        let channel_seed = self.transport_seed(cell, setup.plan.seed);
        let channel = FaultChannel::with_seed(setup.plan, channel_seed);
        let (mut sensor, receiver) = match setup.rekey_interval {
            Some(interval) => {
                // Both endpoints ratchet from the same per-cell root on
                // the same schedule (phase 0).
                let root =
                    age_crypto::kdf::sensor_root(&age_crypto::kdf::fleet_secret(channel_seed), 0);
                (
                    Sensor::with_rekey(root, interval, 0, chacha20poly1305_factory),
                    Receiver::with_rekey(root, interval, 0, chacha20poly1305_factory),
                )
            }
            None => (
                Sensor::new(cell.cipher.build()),
                Receiver::new(cell.cipher.build()),
            ),
        };
        // With a brownout schedule the sensor sends through the NVM
        // journal, and an independent seeded stream decides where the
        // power cuts fall. Both streams are pure functions of the cell
        // coordinates, like the channel's.
        let mut cuts = None;
        if let Some(power) = setup.power {
            let base = self.transport_seed(cell, power.seed);
            let nvm = NvmStore::with_seed(power.nvm, base ^ 0xA5A5_5A5A_0F0F_F0F0);
            sensor = sensor.with_journal(SequenceJournal::new(nvm, power.block));
            cuts = Some((
                DetRng::seed_from_u64(base ^ 0x0FF1_CE00_D15E_A5ED),
                power.reset_rate,
            ));
        }
        let link = Link::with_parts(sensor, receiver, channel, setup.retry);
        TransportStep {
            nvm_writes: 0,
            link,
            retry: setup.retry,
            rekeying: setup.rekey_interval.is_some(),
            cuts,
        }
    }

    /// Runs one experiment cell over the test split, or over its first
    /// `cell.limit` sequences (the MCU experiments use 75, §5.7).
    ///
    /// Every sequence is sampled, encoded and handed to the link step;
    /// once all messages are out, the server decodes and interpolates what
    /// arrived, in evaluation order. `cell.enforce_budget` applies the
    /// long-term energy budget with the paper's violation semantics;
    /// `false` evaluates rate-targeted sampling without budgets (the Skip
    /// RNN study, §5.5).
    ///
    /// With `cell.faults: None` each message is sealed and opened directly.
    /// With `Some(setup)` it goes through the real [`age_transport`] link:
    /// frames are sealed under per-sequence nonces, pushed through a
    /// deterministic fault channel, retried with exponential backoff
    /// (retransmission energy is charged against the same budget), and
    /// decoded only if the receiver accepts them. Undelivered or
    /// undecodable sequences become `lost` records — the server substitutes
    /// a guess, exactly like a budget violation, but the energy stays spent
    /// and the attacker still saw the frames.
    pub fn run(&self, cell: &SweepCell) -> ExperimentResult {
        let spec = self.data.spec();
        let d = spec.features;
        let cipher = cell.cipher.build();
        let policy = self.policy(cell.policy, cell.rate);
        let test_all = self.test_sequences();
        let test = match cell.limit {
            Some(n) => &test_all[..n.min(test_all.len())],
            None => test_all,
        };
        let encoder = self.encoder(
            cell.defense,
            cell.rate,
            cipher.as_ref(),
            policy.as_ref(),
            test,
        );
        let budget_per_seq = self.budget_per_seq(cell.rate, cell.cipher);
        let mut rng = DetRng::seed_from_u64(self.seed ^ 0xBAD_B0D6E7);

        // Name the telemetry stream for this experiment cell; the encoders
        // stamp every per-batch record with it (through the scratch's
        // stream context) and the link step every wire record. The
        // collection rate is part
        // of the name because the fixed message target (AGE, Padded) is
        // chosen per rate — pooling rates would show size variance that no
        // eavesdropper of a single deployment ever observes.
        let label = format!(
            "{}/{}/{}/r{:.2}",
            spec.name,
            cell.policy.name(),
            cell.defense.name(),
            cell.rate
        );
        let mut state = CellState {
            energy: &self.energy,
            defense: cell.defense,
            features: d,
            enforce_budget: cell.enforce_budget,
            ledger: BudgetLedger::new(budget_per_seq * test.len() as f64),
            // Virtual time for this cell. Advancement is unconditional, so
            // every run walks the same schedule and produces identical
            // `sent_at_us` stamps whether or not anything is listening.
            clock: VirtualClock::new(ClockModel::default()),
            tracer: Tracer::new(&label),
            arrived: HashMap::new(),
            nonces: FleetNonceAudit::new(),
            label,
        };
        let mut link = match cell.faults {
            None => LinkStep::Direct {
                cipher,
                message: Vec::new(),
            },
            Some(setup) => LinkStep::Transport(Box::new(self.transport_step(cell, setup))),
        };

        // Pass 1 — the sensor: sample, encode, and hand each message to
        // the link step. The scratch is this run's own, so its records
        // are numbered from 0 and its context dies with the run.
        let mut scratch = EncodeScratch::new();
        scratch.context.label.clone_from(&state.label);
        let mut plaintext = Vec::new();
        let mut pending = Vec::with_capacity(test.len());
        for (i, seq) in test.iter().enumerate() {
            let truth = &seq.values;
            state.tracer.begin("sequence", "sim", state.clock.now_us());
            // The sensing window ticks whether or not the message later
            // clears the budget: sampling time is spent either way.
            state.span("sample", "sim", |clock| {
                clock.advance_samples(spec.seq_len as u64);
            });
            let batch = Batch::gather(policy.sample(truth, d), truth, d)
                .expect("policy output is a valid batch");
            let k = batch.len();
            // Stamp the ground-truth event so per-batch records and wire
            // records can be correlated against it by the audit.
            scratch.context.event = Some(seq.label);
            scratch.context.virtual_time = state.clock.now_us();
            state.span("encode", "encode", |clock| {
                encoder
                    .encode_into(&batch, &self.batch_cfg, &mut scratch, &mut plaintext)
                    .expect("experiment encoders are configured with feasible targets");
                clock.advance_encode();
            });
            pending.push(link.transmit(&mut state, i as u64, seq.label, k, &plaintext));
            state.tracer.end(state.clock.now_us());
        }
        let mut transport = link.finish(&mut state.arrived);
        age_telemetry::emit_nonces(&state.label, &state.nonces);

        // Pass 2 — the server: decode what arrived, in evaluation order.
        let mut decode_failed = 0;
        let records = test
            .iter()
            .zip(pending)
            .map(|(seq, sent)| {
                let truth = &seq.values;
                let violated = sent.wire_seq.is_none();
                let decoded = sent
                    .wire_seq
                    .and_then(|wire_seq| state.arrived.remove(&wire_seq))
                    .and_then(|payload| {
                        // Graceful degradation: an undecodable payload
                        // (possible under unauthenticated ciphers) skips
                        // the batch instead of panicking.
                        let batch = encoder.decode(&payload, &self.batch_cfg);
                        decode_failed += usize::from(batch.is_err());
                        batch.ok()
                    });
                let recon = match &decoded {
                    Some(batch) => interpolate(batch.indices(), batch.values(), spec.seq_len, d),
                    // Over budget, lost in transit, or mangled beyond
                    // decoding: the server can only guess within the data
                    // range (§5.1).
                    None => (0..truth.len())
                        .map(|_| rng.gen_range(self.bounds.0..=self.bounds.1))
                        .collect(),
                };
                SequenceRecord {
                    label: seq.label,
                    message_bytes: sent.message_bytes,
                    mae: mae(&recon, truth),
                    weight: std_deviation(truth),
                    energy_mj: sent.energy_mj,
                    violated,
                    collected: sent.collected,
                    attempts: sent.attempts,
                    lost: !violated && decoded.is_none(),
                    sent_at_us: sent.sent_at_us,
                    epoch: sent.epoch,
                }
            })
            .collect();
        if let Some(transport) = transport.as_mut() {
            transport.decode_failed = decode_failed;
        }

        ExperimentResult {
            records,
            rate: cell.rate,
            policy: cell.policy.name(),
            defense: cell.defense.name(),
            budget_per_seq,
            transport,
        }
    }
}

/// Per-cell state the per-sequence loop and its link step advance together.
struct CellState<'r> {
    energy: &'r EnergyModel,
    defense: Defense,
    features: usize,
    enforce_budget: bool,
    ledger: BudgetLedger,
    clock: VirtualClock,
    tracer: Tracer,
    /// Payloads the server accepted, keyed by wire sequence number: a
    /// reordered frame can surface during a later send, or only at the
    /// final flush.
    arrived: HashMap<u64, Vec<u8>>,
    /// The stream label stamped onto this cell's records.
    label: String,
    /// The frames this run sealed while a sink was active, as `(sender 0,
    /// key epoch, sequence)`. Every run seals under its own keys, so nonce
    /// uniqueness is checked per run and handed to the sinks once.
    nonces: FleetNonceAudit,
}

impl CellState<'_> {
    /// Runs `step` on the virtual clock inside a trace span.
    fn span<T>(
        &mut self,
        name: &str,
        cat: &'static str,
        step: impl FnOnce(&mut VirtualClock) -> T,
    ) -> T {
        self.tracer.begin(name, cat, self.clock.now_us());
        let out = step(&mut self.clock);
        self.tracer.end(self.clock.now_us());
        out
    }

    /// Hands a frame that went on the air to the leakage audit, as the
    /// eavesdropper saw it, and records its nonce in the run's audit.
    fn emit_wire(
        &mut self,
        seq: u64,
        epoch: u64,
        event: usize,
        wire_bytes: usize,
        virtual_time: u64,
    ) {
        if age_telemetry::active() {
            self.nonces.observe(0, epoch, seq);
            age_telemetry::emit_wire(&WireRecord {
                label: self.label.clone(),
                encoder: self.defense.name().to_string(),
                seq,
                event,
                wire_bytes,
                epoch,
                virtual_time,
            });
        }
    }

    /// The sensor's energy for a `k`-step batch sent as `frame_len` bytes.
    fn sequence_cost(&self, k: usize, frame_len: usize) -> MilliJoules {
        self.energy
            .sequence_cost(k, k * self.features, frame_len, self.defense.encoder_cost())
    }
}

/// One sequence's link-step outcome, pending the server's decode pass.
#[derive(Default)]
struct Pending {
    /// Sequence number the payload arrives under; `None` if the budget
    /// vetoed the message.
    wire_seq: Option<u64>,
    message_bytes: usize,
    collected: usize,
    attempts: u32,
    energy_mj: f64,
    sent_at_us: u64,
    epoch: u64,
}

impl Pending {
    /// A sequence lost to the energy budget: nothing sent, nothing spent.
    fn violated(epoch: u64) -> Self {
        Pending {
            epoch,
            ..Pending::default()
        }
    }
}

/// How a cell's sealed messages travel from sensor to server.
enum LinkStep {
    /// Seal and open under the cell's cipher: frames are numbered by
    /// evaluation index and every message arrives on its first attempt.
    Direct {
        cipher: Box<dyn Cipher>,
        message: Vec<u8>,
    },
    /// The fault-injected [`age_transport::Link`].
    Transport(Box<TransportStep>),
}

/// The transport link plus the per-cell schedules that drive it.
struct TransportStep {
    link: Link,
    retry: RetryPolicy,
    rekeying: bool,
    /// Power-cut stream and per-message cut probability.
    cuts: Option<(DetRng, f64)>,
    /// Journal write attempts already billed.
    nvm_writes: usize,
}

impl LinkStep {
    /// Sends sequence `index`'s encoded `plaintext` (`k` collected steps,
    /// ground-truth event `label`), charging its energy to the cell's
    /// ledger and its time to the cell's clock.
    fn transmit(
        &mut self,
        state: &mut CellState,
        index: u64,
        label: usize,
        k: usize,
        plaintext: &[u8],
    ) -> Pending {
        match self {
            LinkStep::Direct { cipher, message } => {
                state.span("seal", "crypto", |clock| {
                    cipher.seal_into(index, plaintext, message);
                    clock.advance_seal();
                });
                let cost = state.sequence_cost(k, message.len());
                if state.enforce_budget && !state.ledger.try_spend(cost) {
                    return Pending::violated(0);
                }
                // Budget cleared: the sealed message is transmitted. Its
                // on-air size — and the send time that size shapes — is
                // what the audit must correlate with events.
                let sent_at_us = state.span("attempt", "link", |clock| {
                    clock.advance_radio(message.len())
                });
                state.emit_wire(index, 0, label, message.len(), sent_at_us);
                state.span("ack", "link", VirtualClock::advance_ack);
                let payload = cipher.open(message).expect("sealed messages always open");
                state.arrived.insert(index, payload);
                Pending {
                    wire_seq: Some(index),
                    message_bytes: message.len(),
                    collected: k,
                    attempts: 1,
                    energy_mj: cost.0,
                    sent_at_us,
                    epoch: 0,
                }
            }
            LinkStep::Transport(step) => step.transmit(state, index, label, k, plaintext),
        }
    }

    /// Releases frames a reordering fault still holds and returns the
    /// transport counters (`None` on the direct path).
    fn finish(self, arrived: &mut HashMap<u64, Vec<u8>>) -> Option<TransportSummary> {
        let LinkStep::Transport(mut step) = self else {
            return None;
        };
        for (seq_no, payload) in step.link.flush() {
            arrived.entry(seq_no).or_insert(payload);
        }
        Some(TransportSummary {
            link: step.link.stats(),
            channel: *step.link.channel_stats(),
            decode_failed: 0,
            reuse_risked: step.link.sensor().reuse_risked(),
        })
    }
}

impl TransportStep {
    fn transmit(
        &mut self,
        state: &mut CellState,
        index: u64,
        label: usize,
        k: usize,
        plaintext: &[u8],
    ) -> Pending {
        let link = &mut self.link;
        let frame_len = link.sensor().frame_len(plaintext.len());
        let base_cost = state.sequence_cost(k, frame_len);
        // Brownout injection: before this message goes out, the schedule
        // may cut power — either before anything happened (a plain reboot)
        // or in the torn window after the journal reserved a sequence and
        // sealed the frame but before the radio fired. Both draws happen
        // unconditionally so the schedule never depends on earlier
        // outcomes.
        if let Some((cut_rng, reset_rate)) = self.cuts.as_mut() {
            let cut = cut_rng.gen_bool(*reset_rate);
            let torn_window = cut_rng.gen_bool(0.5);
            if cut {
                if torn_window {
                    link.abort_send(plaintext);
                } else {
                    link.reboot_sensor();
                }
            }
        }
        if state.enforce_budget && !state.ledger.try_spend(base_cost) {
            return Pending::violated(link.sensor().epoch());
        }
        state.span("seal", "crypto", VirtualClock::advance_seal);
        // With a journal the link hands out the persisted sequence; without
        // one, sequences track the evaluation index. Rekeying links route
        // through `send` even without a journal: the RAM counter produces
        // the same 0,1,2,… numbering as the evaluation index, and `send` is
        // where the watermark rotation lives.
        let delivery = if link.sensor().journal().is_some() || self.rekeying {
            link.send(plaintext)
        } else {
            link.send_as(index, plaintext)
        };
        // Journal flash writes (reservations, plus any brownout recovery
        // work since the last send) precede the radio. This reads the same
        // write counter the energy block below settles, so the two see an
        // identical per-sequence delta.
        let writes = link
            .sensor()
            .journal()
            .map_or(0, |j| j.nvm_stats().writes_attempted);
        let flash_writes = writes - self.nvm_writes;
        self.nvm_writes = writes;
        if flash_writes > 0 {
            state.span("flash", "nvm", |clock| {
                clock.advance_flash(flash_writes as u64);
            });
        }
        // Replay the link's attempt schedule on the virtual clock: each
        // retransmission waits its capped backoff and then radiates the
        // same frame. The wire record is stamped with the *first*
        // radiation's completion — the instant an eavesdropper first sees
        // the message — while every retry gets its own trace span.
        let mut sent_at_us = 0;
        for attempt in 0..delivery.attempts {
            if attempt > 0 {
                state
                    .clock
                    .advance_backoff_ms(self.retry.timeout_ms(attempt - 1));
            }
            let done = state.span("attempt", "link", |clock| {
                clock.advance_radio(delivery.frame_len)
            });
            if attempt == 0 {
                sent_at_us = done;
            }
        }
        if delivery.delivered {
            state.span("ack", "link", VirtualClock::advance_ack);
        }
        // Audit the *sealed* frame as the eavesdropper saw it — the frame
        // went on the air even if it was later lost in transit. Zero
        // attempts means the journal's NVM write was exhausted and nothing
        // ever radiated, so there is nothing to observe.
        if delivery.attempts > 0 {
            debug_assert_eq!(delivery.frame_len, frame_len);
            state.emit_wire(
                delivery.sequence,
                delivery.epoch,
                label,
                delivery.frame_len,
                sent_at_us,
            );
        }
        // The radio spends retransmission energy before the sensor can veto
        // it; charging it may exhaust the ledger and violate *later*
        // sequences. Journal flash writes (cuts and reservations alike) are
        // billed against the same ledger.
        let retrans = state
            .energy
            .retransmission_cost(frame_len, delivery.attempts.saturating_sub(1));
        let journal_mj = state.energy.journal_write_cost(flash_writes);
        for extra in [retrans, journal_mj] {
            if state.enforce_budget && extra.0 > 0.0 {
                let _ = state.ledger.try_spend(extra);
            }
        }
        for (seq_no, payload) in delivery.payloads {
            state.arrived.entry(seq_no).or_insert(payload);
        }
        Pending {
            wire_seq: Some(delivery.sequence),
            message_bytes: if delivery.attempts > 0 { frame_len } else { 0 },
            collected: k,
            attempts: delivery.attempts,
            energy_mj: base_cost.0 + retrans.0 + journal_mj.0,
            sent_at_us,
            epoch: delivery.epoch,
        }
    }
}

/// Adapter letting `fit_threshold` construct boxed policies.
#[derive(Debug)]
struct PolicyRef(Box<dyn Policy>);

impl Policy for PolicyRef {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn is_adaptive(&self) -> bool {
        self.0.is_adaptive()
    }
    fn sample(&self, values: &[f64], features: usize) -> Vec<usize> {
        self.0.sample(values, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runner() -> Runner {
        Runner::new(DatasetKind::Epilepsy, Scale::Small, 7)
    }

    #[test]
    fn age_messages_have_constant_size() {
        let r = runner();
        let res = r.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5)
        });
        let sizes: Vec<usize> = res.observations().iter().map(|&(_, s)| s).collect();
        assert!(!sizes.is_empty());
        assert!(
            sizes.windows(2).all(|w| w[0] == w[1]),
            "sizes vary: {sizes:?}"
        );
        assert_eq!(res.nmi(), 0.0);
    }

    #[test]
    fn standard_adaptive_messages_vary_and_leak() {
        let r = runner();
        let res = r.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, Defense::Standard, 0.5)
        });
        let sizes: Vec<usize> = res.observations().iter().map(|&(_, s)| s).collect();
        let distinct: std::collections::HashSet<usize> = sizes.iter().copied().collect();
        assert!(distinct.len() > 3, "adaptive sizes should vary");
        assert!(res.nmi() > 0.05, "nmi={}", res.nmi());
    }

    #[test]
    fn uniform_messages_do_not_leak() {
        let r = runner();
        let res = r.run(&SweepCell::new(PolicyKind::Uniform, Defense::Standard, 0.5));
        assert_eq!(res.nmi(), 0.0);
        assert_eq!(res.violations(), 0, "uniform exactly meets its own budget");
    }

    #[test]
    fn padding_violates_tight_budgets() {
        let r = runner();
        let padded = r.run(&SweepCell::new(PolicyKind::Linear, Defense::Padded, 0.3));
        let age = r.run(&SweepCell::new(PolicyKind::Linear, Defense::Age, 0.3));
        assert!(
            padded.violations() > 0,
            "padding should blow the 30% budget"
        );
        assert_eq!(age.violations(), 0, "AGE must fit the budget");
        assert!(age.mean_mae() < padded.mean_mae());
    }

    #[test]
    fn age_error_close_to_standard() {
        let r = runner();
        let std_res = r.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, Defense::Standard, 0.7)
        });
        let age_res = r.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.7)
        });
        // AGE is lossy but must stay close (paper: ~1% median penalty; we
        // allow a loose factor at small scale).
        assert!(
            age_res.mean_mae() <= std_res.mean_mae() * 1.6 + 1e-4,
            "AGE {} vs Std {}",
            age_res.mean_mae(),
            std_res.mean_mae()
        );
    }

    #[test]
    fn block_cipher_keeps_fixed_sizes() {
        let r = runner();
        let res = r.run(&SweepCell {
            cipher: CipherChoice::Aes128Cbc,
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Deviation, Defense::Age, 0.5)
        });
        let sizes: Vec<usize> = res.observations().iter().map(|&(_, s)| s).collect();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]));
        // CBC framing: IV + padded body.
        assert_eq!(sizes[0] % 16, 0);
    }

    #[test]
    fn size_stats_by_label_cover_events() {
        let r = runner();
        let res = r.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, Defense::Standard, 0.5)
        });
        let stats = res.size_stats_by_label();
        assert!(
            stats.len() >= 3,
            "expected most epilepsy events, got {stats:?}"
        );
        for &(_, mean, std, n) in &stats {
            assert!(mean > 0.0 && std >= 0.0 && n > 0);
        }
    }

    #[test]
    fn limited_runs_use_fewer_sequences() {
        let r = runner();
        let res = r.run(&SweepCell {
            enforce_budget: false,
            limit: Some(5),
            ..SweepCell::new(PolicyKind::Uniform, Defense::Standard, 0.5)
        });
        assert_eq!(res.records.len(), 5);
    }

    #[test]
    fn skip_rnn_policy_runs_end_to_end() {
        let r = runner();
        let res = r.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::SkipRnn, Defense::Age, 0.5)
        });
        assert!(!res.records.is_empty());
        assert_eq!(res.nmi(), 0.0);
        let std_res = r.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::SkipRnn, Defense::Standard, 0.5)
        });
        // The learned policy's collection count varies across sequences.
        let counts: std::collections::HashSet<usize> =
            std_res.records.iter().map(|r| r.collected).collect();
        assert!(counts.len() > 1, "Skip RNN should be data-dependent");
    }

    #[test]
    fn with_dataset_needs_a_sequence_to_fit_and_one_to_test() {
        let generated = Dataset::generate(DatasetKind::Epilepsy, Scale::Small, 7);
        let first = |n: usize| {
            Dataset::from_sequences(DatasetKind::Epilepsy, generated.sequences()[..n].to_vec())
                .expect("valid sequences")
        };
        let err = Runner::with_dataset(first(1), 7)
            .err()
            .expect("one sequence cannot be split into fit and test");
        assert!(err.contains("at least 2"), "{err}");
        let runner = Runner::with_dataset(first(2), 7).expect("two sequences split 1 + 1");
        assert_eq!(runner.test_sequences().len(), 1);
    }

    #[test]
    fn thresholds_are_cached() {
        let r = runner();
        let _ = r.policy(PolicyKind::Linear, 0.5);
        let before = r.thresholds.lock().unwrap().len();
        let _ = r.policy(PolicyKind::Linear, 0.5);
        assert_eq!(r.thresholds.lock().unwrap().len(), before);
    }
}
