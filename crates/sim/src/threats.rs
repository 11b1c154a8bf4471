//! Threat-model extensions: network faults and multi-event batches.
//!
//! Two settings the paper discusses but does not evaluate:
//!
//! - **Faults** (§4.5): AGE guarantees fixed-length messages *absent
//!   external faults*; a dropped packet shows the attacker a missing
//!   message. AGE's security argument is that faults occur independently of
//!   the sensed events — a [`SweepCell`](crate::SweepCell) with `faults`
//!   set runs over an unreliable link, and
//!   [`ExperimentResult::delivered_nmi`](crate::ExperimentResult::delivered_nmi)
//!   and
//!   [`drop_indicator_nmi`](crate::ExperimentResult::drop_indicator_nmi)
//!   check that the delivered sizes and the drop pattern carry no
//!   information.
//! - **Multi-event batches** (§3.1): the paper's evaluation gives the
//!   attacker the easiest setting (one event per batch) and notes the
//!   defense extends to batches spanning multiple events.
//!   [`run_multi_event`] concatenates consecutive sequences into longer
//!   batches labelled by their dominant event.

use age_core::{target, AgeEncoder, Batch, BatchConfig, EncodeScratch, Encoder, StandardEncoder};

use age_datasets::Sequence;

use crate::runner::{CipherChoice, Defense, PolicyKind, Runner};

/// Result of a multi-event batching run.
#[derive(Debug, Clone)]
pub struct MultiEventRun {
    /// `(dominant label, message size)` per batch.
    pub observations: Vec<(usize, usize)>,
    /// Whether every message had the same size.
    pub fixed_length: bool,
}

impl MultiEventRun {
    /// NMI between the dominant label and the message size.
    pub fn nmi(&self) -> f64 {
        age_attack::nmi(&self.observations)
    }
}

/// Runs the sensor pipeline with batches spanning `events_per_batch`
/// consecutive test sequences (so each message mixes several events). The
/// batch is labelled by its first event — the attacker's best handle.
///
/// # Panics
///
/// Panics if `events_per_batch` is zero or the combined sequence exceeds
/// the 16-bit batching limit.
pub fn run_multi_event(
    runner: &Runner,
    policy: PolicyKind,
    defense: Defense,
    rate: f64,
    cipher: CipherChoice,
    events_per_batch: usize,
) -> MultiEventRun {
    assert!(events_per_batch > 0, "need at least one event per batch");
    let spec = runner.dataset().spec();
    let d = spec.features;
    let long_len = spec.seq_len * events_per_batch;
    let cfg = BatchConfig::new(long_len, d, spec.format)
        .expect("combined batch length must stay within 16 bits");

    let mut scratch = EncodeScratch::new();
    scratch.context.label = format!(
        "multievent{events_per_batch}:{}/{}/{}/r{rate:.2}",
        spec.name,
        policy.name(),
        defense.name()
    );
    let policy = runner.policy(policy, rate);
    let cipher = runner.cipher(cipher);
    let encoder: Box<dyn Encoder> = match defense {
        Defense::Standard => Box::new(StandardEncoder),
        Defense::Age => Box::new(AgeEncoder::new(target::age_plaintext_bytes(
            &cfg,
            rate,
            cipher.kind(),
            cipher.overhead(),
        ))),
        other => panic!(
            "multi-event runs support Standard and AGE, not {}",
            other.name()
        ),
    };

    let test: Vec<&Sequence> = runner.test_sequences().iter().collect();
    let mut observations = Vec::new();
    let mut sizes = std::collections::HashSet::new();
    let mut plaintext = Vec::new();
    for (i, chunk) in test.chunks_exact(events_per_batch).enumerate() {
        let mut values = Vec::with_capacity(long_len * d);
        for seq in chunk {
            values.extend_from_slice(&seq.values);
        }
        let label = chunk[0].label;
        let indices = policy.sample(&values, d);
        let mut collected = Vec::with_capacity(indices.len() * d);
        for &t in &indices {
            collected.extend_from_slice(&values[t * d..(t + 1) * d]);
        }
        let batch = Batch::new(indices, collected).expect("policy output is valid");
        encoder
            .encode_into(&batch, &cfg, &mut scratch, &mut plaintext)
            .expect("multi-event targets are feasible");
        let message = cipher.seal(i as u64, &plaintext);
        sizes.insert(message.len());
        observations.push((label, message.len()));
    }
    MultiEventRun {
        observations,
        fixed_length: sizes.len() <= 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentResult, FaultSetup, SweepCell};
    use age_datasets::{DatasetKind, Scale};
    use age_transport::{FaultPlan, RetryPolicy};

    fn runner() -> Runner {
        Runner::new(DatasetKind::Epilepsy, Scale::Small, 17)
    }

    /// An unbudgeted Linear run at 50% over a link dropping frames.
    fn run_with_drops(
        r: &Runner,
        defense: Defense,
        cipher: CipherChoice,
        plan: FaultPlan,
        retry: RetryPolicy,
    ) -> ExperimentResult {
        r.run(&SweepCell {
            cipher,
            enforce_budget: false,
            faults: Some(FaultSetup::new(plan).with_retry(retry)),
            ..SweepCell::new(PolicyKind::Linear, defense, 0.5)
        })
    }

    #[test]
    fn age_sizes_stay_constant_under_faults() {
        let r = runner();
        let run = run_with_drops(
            &r,
            Defense::Age,
            CipherChoice::ChaCha20,
            FaultPlan::drops(0.3, 1),
            RetryPolicy::none(),
        );
        assert!(run.records.iter().any(|r| !r.lost));
        assert_eq!(run.delivered_nmi(), 0.0);
        assert!(run.losses() > 0);
    }

    #[test]
    fn independent_faults_carry_little_information() {
        let r = runner();
        let run = run_with_drops(
            &r,
            Defense::Age,
            CipherChoice::ChaCha20,
            FaultPlan::drops(0.2, 2),
            RetryPolicy::none(),
        );
        // Small-sample noise only: far below the standard policy's leakage.
        assert!(
            run.drop_indicator_nmi() < 0.15,
            "nmi={}",
            run.drop_indicator_nmi()
        );
    }

    #[test]
    fn standard_still_leaks_under_faults() {
        let r = runner();
        let run = run_with_drops(
            &r,
            Defense::Standard,
            CipherChoice::ChaCha20,
            FaultPlan::drops(0.2, 3),
            RetryPolicy::none(),
        );
        assert!(run.delivered_nmi() > 0.1);
    }

    #[test]
    fn retries_recover_most_messages() {
        let r = runner();
        let fire_and_forget = run_with_drops(
            &r,
            Defense::Age,
            CipherChoice::ChaCha20Poly1305,
            FaultPlan::drops(0.4, 9),
            RetryPolicy::none(),
        );
        let with_retries = run_with_drops(
            &r,
            Defense::Age,
            CipherChoice::ChaCha20Poly1305,
            FaultPlan::drops(0.4, 9),
            RetryPolicy::default(),
        );
        assert!(
            with_retries.losses() < fire_and_forget.losses(),
            "retries must recover messages: {} vs {}",
            with_retries.losses(),
            fire_and_forget.losses()
        );
        assert_eq!(with_retries.delivered_nmi(), 0.0);
    }

    #[test]
    fn multi_event_age_is_fixed_length() {
        let r = runner();
        let run = run_multi_event(
            &r,
            PolicyKind::Linear,
            Defense::Age,
            0.5,
            CipherChoice::ChaCha20,
            2,
        );
        assert!(run.fixed_length);
        assert_eq!(run.nmi(), 0.0);
        assert!(!run.observations.is_empty());
    }

    #[test]
    fn multi_event_standard_still_leaks() {
        let r = runner();
        let run = run_multi_event(
            &r,
            PolicyKind::Linear,
            Defense::Standard,
            0.5,
            CipherChoice::ChaCha20,
            2,
        );
        assert!(!run.fixed_length);
        assert!(run.nmi() > 0.05, "nmi={}", run.nmi());
    }

    #[test]
    #[should_panic(expected = "multi-event runs support")]
    fn multi_event_rejects_other_defenses() {
        let r = runner();
        let _ = run_multi_event(
            &r,
            PolicyKind::Linear,
            Defense::Padded,
            0.5,
            CipherChoice::ChaCha20,
            2,
        );
    }
}
