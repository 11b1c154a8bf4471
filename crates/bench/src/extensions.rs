//! Extension experiments beyond the paper's tables: robustness probes and
//! the paper's "mentioned but rejected" design alternatives.

use std::fmt::Write as _;
use std::sync::Arc;

use age_attack::{AttackModel, ClassifierAttack, TimingAttack};
use age_core::{target, AgeEncoder, Batch, Encoder};
use age_datasets::DatasetKind;
use age_energy::{Battery, MilliJoules};
use age_sampling::FeedbackPolicy;
use age_sim::{
    rekey_scenario, run_cells, run_multi_event, CipherChoice, Defense, ExperimentResult, FaultPlan,
    FaultSetup, PolicyKind, PowerFaults, Runner, SweepCell, TransportSummary,
};
use age_telemetry::NonceAuditSink;

use crate::report::{stream_scratch, Settings};

/// Extension experiment ids (run via `repro -- <id>` like the paper ones).
pub const EXTENSIONS: &[&str] = &[
    "attackers",
    "timing",
    "faults",
    "resets",
    "rekey",
    "multievent",
    "refine",
    "feedback",
    "lifetime",
    "compression",
    "utility",
    "importance",
    "harvest",
    "design",
];

/// Dispatches an extension id.
pub fn run_extension(id: &str, s: &Settings) -> Option<String> {
    match id {
        "attackers" => Some(attackers(s)),
        "timing" => Some(timing(s)),
        "faults" => Some(faults(s)),
        "resets" => Some(resets(s)),
        "rekey" => Some(rekey(s)),
        "multievent" => Some(multievent(s)),
        "refine" => Some(refine(s)),
        "feedback" => Some(feedback(s)),
        "lifetime" => Some(lifetime(s)),
        "compression" => Some(compression(s)),
        "utility" => Some(utility(s)),
        "importance" => Some(importance(s)),
        "harvest" => Some(harvest(s)),
        "design" => Some(design(s)),
        _ => None,
    }
}

/// Three attacker model families against the same observations: the paper
/// calls its AdaBoost result a lower bound; AGE must defeat all of them.
pub fn attackers(s: &Settings) -> String {
    let runner = Runner::new(DatasetKind::Epilepsy, s.scale, s.seed);
    let mut out = String::from("Extension: attacker model families (Epilepsy, Linear, 70% rate)\n");
    let _ = writeln!(
        out,
        "  {:<10} {:>12} {:>12} {:>10}",
        "Model", "Std acc(%)", "AGE acc(%)", "baseline"
    );
    for model in [
        AttackModel::AdaBoost,
        AttackModel::Knn,
        AttackModel::Logistic,
    ] {
        let attack = ClassifierAttack {
            total_samples: s.attack_samples,
            n_estimators: s.attack_estimators,
            model,
            seed: s.seed,
            ..Default::default()
        };
        let std_res = runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, Defense::Standard, 0.7)
        });
        let age_res = runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.7)
        });
        let std_out = attack.run(&std_res.observations());
        let age_out = attack.run(&age_res.observations());
        let _ = writeln!(
            out,
            "  {:<10} {:>12.1} {:>12.1} {:>9.1}%",
            model.name(),
            std_out.mean_accuracy() * 100.0,
            age_out.mean_accuracy() * 100.0,
            age_out.baseline * 100.0
        );
    }
    out.push_str("  (every model family breaks the standard policy; none beats the\n");
    out.push_str("   most-frequent-event baseline against AGE)\n");
    out
}

/// The timing-only eavesdropper: an attacker who cannot demodulate frames
/// — no sizes, no payloads — and observes only *when* energy appears on
/// the air (the virtual clock's send stamps). Std's variable-length frames
/// stretch the schedule through radio serialization, so the size leak
/// survives as a timing leak; constant-size defenses tick a metronome.
pub fn timing(s: &Settings) -> String {
    let runner = Runner::new(DatasetKind::Epilepsy, s.scale, s.seed);
    let mut out =
        String::from("Extension: timing-only attacker (virtual clock, Epilepsy, Linear, 70%)\n");
    let _ = writeln!(
        out,
        "  {:<10} {:>7} {:>12} {:>12} {:>10}",
        "Defense", "gaps", "timing NMI", "attack (%)", "baseline"
    );
    for defense in [Defense::Standard, Defense::Padded, Defense::Age] {
        let res = runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, defense, 0.7)
        });
        let sends: Vec<(usize, u64)> = res
            .records
            .iter()
            .filter(|r| !r.violated && r.sent_at_us > 0)
            .map(|r| (r.label, r.sent_at_us))
            .collect();
        let attack = TimingAttack {
            classifier: ClassifierAttack {
                total_samples: s.attack_samples,
                n_estimators: s.attack_estimators,
                seed: s.seed,
                ..Default::default()
            },
        };
        let outcome = attack.run(&sends);
        let _ = writeln!(
            out,
            "  {:<10} {:>7} {:>12.3} {:>12.1} {:>9.1}%",
            defense.name(),
            res.timing_observations().len(),
            res.timing_nmi(),
            outcome.mean_accuracy() * 100.0,
            outcome.baseline * 100.0
        );
    }
    out.push_str("  (inter-transmission gaps inherit the size channel through radio\n");
    out.push_str("   serialization time; fixed-size defenses flatten both at once)\n");
    out
}

/// Dropped packets (§4.5), now through the real transport: frames cross a
/// deterministic fault channel (drops + bit corruption) with retransmission
/// and backoff; delivered AGE messages stay constant-size and independent
/// faults leak (almost) nothing. `--faults <rate>` overrides the 20% rate.
pub fn faults(s: &Settings) -> String {
    let rate = s.fault_rate.unwrap_or(0.2);
    let runner = Runner::new(DatasetKind::Epilepsy, s.scale, s.seed);
    let mut out = format!(
        "Extension: unreliable link ({:.0}% drops + {:.0}% corruption, AEAD, 4 attempts)\n",
        rate * 100.0,
        rate * 100.0
    );
    let _ = writeln!(
        out,
        "  {:<10} {:>14} {:>16} {:>9} {:>9}",
        "Defense", "delivered NMI", "drop-flag NMI", "lost", "retries"
    );
    let plan = FaultPlan {
        drop_rate: rate,
        corrupt_rate: rate,
        seed: s.seed,
        ..FaultPlan::NONE
    };
    let results: Vec<ExperimentResult> = [Defense::Standard, Defense::Age]
        .iter()
        .map(|&defense| {
            runner.run(&SweepCell {
                cipher: CipherChoice::ChaCha20Poly1305,
                enforce_budget: false,
                faults: Some(FaultSetup::new(plan)),
                ..SweepCell::new(PolicyKind::Linear, defense, 0.7)
            })
        })
        .collect();
    for result in &results {
        let retried = result.transport.map_or(0, |t| t.link.frames_retried);
        let _ = writeln!(
            out,
            "  {:<10} {:>14.3} {:>16.3} {:>9} {:>9}",
            result.defense,
            result.delivered_nmi(),
            result.drop_indicator_nmi(),
            result.losses(),
            retried
        );
    }
    out.push_str("  (faults independent of events add no usable signal — §4.5's\n");
    out.push_str("   assumption, now measured over the retrying transport)\n");
    transport_totals(&mut out, &results);
    out
}

/// A nonce auditor of the extension's own, or `None` when the caller has
/// a sink installed.
fn private_nonce_audit() -> Option<Arc<NonceAuditSink>> {
    (!age_telemetry::active()).then(|| Arc::new(NonceAuditSink::new()))
}

/// Appends one line totalling the cells' transport counters, so the counts
/// sit beside the experiment that produced them.
fn transport_totals(out: &mut String, results: &[ExperimentResult]) {
    let mut total = TransportSummary::default();
    for transport in results.iter().filter_map(|r| r.transport.as_ref()) {
        total.merge(transport);
    }
    let _ = writeln!(out, "  transport totals: {total}");
}

/// Device resets: brownouts cut power mid-run — sometimes between the NVM
/// journal write and the radio — and the sequence-reservation journal must
/// keep every nonce unique across reboots. Sweeps defenses through
/// `run_cells` (so `--threads` applies), reports recovery counters, and
/// audits every sealed frame for (epoch, sequence) reuse.
/// `--power-faults <rate>` overrides the 5% cut rate.
pub fn resets(s: &Settings) -> String {
    let rate = s.power_fault_rate.unwrap_or(0.05);
    let runner = Runner::new(DatasetKind::Epilepsy, s.scale, s.seed);
    let power = PowerFaults::at_rate(rate, s.seed);
    let mut out = format!(
        "Extension: device resets ({:.1}% power-cut rate, journal block {}, torn NVM, AEAD)\n",
        rate * 100.0,
        power.block
    );
    let _ = writeln!(
        out,
        "  {:<10} {:>8} {:>8} {:>8} {:>5} {:>10} {:>11}",
        "Defense", "reboots", "flushes", "skipped", "lost", "delivered", "fixed-size"
    );
    let cells: Vec<SweepCell> = [Defense::Standard, Defense::Padded, Defense::Age]
        .iter()
        .map(|&defense| {
            let mut cell = SweepCell::new(PolicyKind::Linear, defense, 0.7);
            cell.cipher = CipherChoice::ChaCha20Poly1305;
            cell.enforce_budget = false;
            cell.faults = Some(
                FaultSetup::new(FaultPlan {
                    drop_rate: 0.05,
                    corrupt_rate: 0.02,
                    seed: s.seed,
                    ..FaultPlan::NONE
                })
                .with_power(power),
            );
            cell
        })
        .collect();

    // A private sink would shadow the caller's sinks (repro's run-wide
    // nonce auditor among them), so the extension only audits privately
    // when nothing is listening.
    let sink = private_nonce_audit();
    let results = {
        let _guard = sink.clone().map(|sink| age_telemetry::install_thread(sink));
        run_cells(&runner, &cells, s.threads)
    };
    for result in &results {
        let t = result.transport.unwrap_or_default();
        let _ = writeln!(
            out,
            "  {:<10} {:>8} {:>8} {:>8} {:>5} {:>10} {:>11}",
            result.defense,
            t.link.sensor_reboots,
            t.link.journal_flushes,
            t.link.sequences_skipped,
            t.link.messages_lost,
            t.link.frames_delivered,
            if t.channel.wire_lengths_constant() {
                "yes"
            } else {
                "no (leaks)"
            }
        );
    }
    match sink {
        Some(sink) => {
            let audit = sink.take();
            let _ = writeln!(
                out,
                "  nonce audit: {} sealed frames, {} distinct (epoch, seq) pairs, {} reused",
                audit.frames(),
                audit.distinct(),
                audit.violations().len()
            );
            if audit.is_clean() {
                out.push_str("  (every reboot resumed above the journal's high-water mark —\n");
                out.push_str("   no (key, nonce) pair was ever used twice)\n");
            } else {
                out.push_str("  NONCE AUDIT FAILED — reboot recovery reused a (key, nonce) pair\n");
            }
        }
        None => {
            out.push_str("  (sealed frames streamed to the process-wide nonce auditor;\n");
            out.push_str("   the run fails at exit if any (key, nonce) pair repeated)\n");
        }
    }
    transport_totals(&mut out, &results);
    out
}

/// Epoch rekeying under fire: the link ratchets to a fresh key every N
/// sequence numbers while the channel drops and corrupts frames and
/// brownouts cut power (torn NVM writes included). The receiver must
/// follow every rotation, no (key, nonce) pair may repeat across epochs,
/// and the wire must stay byte-constant through every boundary.
/// `--rekey-interval <n>` overrides the 16-sequence epoch;
/// `--power-faults <rate>` overrides the 5% cut rate.
pub fn rekey(s: &Settings) -> String {
    let interval = s.rekey_interval.unwrap_or(16);
    let rate = s.power_fault_rate.unwrap_or(0.05);
    let runner = Runner::new(DatasetKind::Epilepsy, s.scale, s.seed);
    let mut out = format!(
        "Extension: epoch rekeying under fire (interval {interval}, {:.1}% power cuts, \
         5% drops + 2% corruption, AEAD)\n",
        rate * 100.0
    );
    let _ = writeln!(
        out,
        "  {:<10} {:>9} {:>9} {:>8} {:>10} {:>11}",
        "Defense", "rotations", "deferred", "reboots", "delivered", "fixed-size"
    );
    let cells: Vec<SweepCell> = [Defense::Standard, Defense::Age]
        .iter()
        .map(|&defense| {
            let mut cell = SweepCell::new(PolicyKind::Linear, defense, 0.7);
            cell.cipher = CipherChoice::ChaCha20Poly1305;
            cell.enforce_budget = false;
            cell.faults = Some(rekey_scenario(interval, rate, s.seed));
            cell
        })
        .collect();

    // Like `resets`: audit privately only when the caller's nonce auditor
    // is not already listening.
    let sink = private_nonce_audit();
    let results = {
        let _guard = sink.clone().map(|sink| age_telemetry::install_thread(sink));
        run_cells(&runner, &cells, s.threads)
    };
    for result in &results {
        let t = result.transport.unwrap_or_default();
        let _ = writeln!(
            out,
            "  {:<10} {:>9} {:>9} {:>8} {:>10} {:>11}",
            result.defense,
            t.link.rotations,
            t.link.rotations_deferred,
            t.link.sensor_reboots,
            t.link.frames_delivered,
            if t.channel.wire_lengths_constant() {
                "yes"
            } else {
                "no"
            }
        );
    }
    match sink {
        Some(sink) => {
            let audit = sink.take();
            let _ = writeln!(
                out,
                "  nonce audit: {} sealed frames over {} key epochs, {} reused",
                audit.frames(),
                audit.epochs(),
                audit.violations().len()
            );
            if audit.is_clean() {
                out.push_str("  (every rotation moved to a fresh key with the counter intact —\n");
                out.push_str("   no (key, nonce) pair was ever used twice)\n");
            } else {
                out.push_str("  NONCE AUDIT FAILED — a rotation reused a (key, nonce) pair\n");
            }
        }
        None => {
            out.push_str("  (sealed frames streamed to the process-wide nonce auditor;\n");
            out.push_str("   the run fails at exit if any (key, nonce) pair repeated)\n");
        }
    }
    transport_totals(&mut out, &results);
    out
}

/// Batches spanning several events (§3.1): AGE stays fixed-length.
pub fn multievent(s: &Settings) -> String {
    let runner = Runner::new(DatasetKind::Epilepsy, s.scale, s.seed);
    let mut out = String::from("Extension: multi-event batches\n");
    let _ = writeln!(
        out,
        "  {:<8} {:<10} {:>7} {:>13}",
        "events", "Defense", "NMI", "fixed-length"
    );
    for events in [1usize, 2, 3] {
        for defense in [Defense::Standard, Defense::Age] {
            let run = run_multi_event(
                &runner,
                PolicyKind::Linear,
                defense,
                0.7,
                CipherChoice::ChaCha20,
                events,
            );
            let _ = writeln!(
                out,
                "  {:<8} {:<10} {:>7.3} {:>13}",
                events,
                defense.name(),
                run.nmi(),
                run.fixed_length
            );
        }
    }
    out
}

/// The refinements the paper mentions and rejects (§4.2/§4.3): measure the
/// error benefit and the compute cost, reproducing the "not worth it" call.
pub fn refine(s: &Settings) -> String {
    use std::time::Instant;
    let runner = Runner::new(DatasetKind::Activity, s.scale, s.seed);
    let cfg = *runner.batch_config();
    let d = cfg.features();
    let policy = runner.policy(PolicyKind::Deviation, 0.9);
    // A target far below the policy's rate so pruning and merging both fire.
    let m_b = target::target_bytes(&cfg, 0.3);
    let plain = target::plaintext_budget(
        target::reduced_target_bytes(m_b),
        age_crypto::CipherKind::Stream,
        12,
        16,
    );
    let base = AgeEncoder::new(plain);
    let refined = AgeEncoder::new(plain).with_refinement(true);

    let mut err = [0.0f64; 2];
    let mut time_us = [0.0f64; 2];
    let mut scratches = ["AGE", "AGE-rescoring"]
        .map(|defense| stream_scratch(format!("refine:Activity/Deviation/{defense}/r0.90")));
    let mut msg = Vec::new();
    let mut batches = 0usize;
    for seq in runner.test_sequences() {
        let batch = Batch::gather(policy.sample(&seq.values, d), &seq.values, d)
            .expect("policy output is valid");
        for (i, enc) in [&base, &refined].into_iter().enumerate() {
            let start = Instant::now();
            enc.encode_into(&batch, &cfg, &mut scratches[i], &mut msg)
                .expect("feasible target");
            time_us[i] += start.elapsed().as_secs_f64() * 1e6;
            let decoded = enc.decode(&msg, &cfg).expect("own message");
            let recon =
                age_reconstruct::interpolate(decoded.indices(), decoded.values(), cfg.max_len(), d);
            err[i] += age_reconstruct::mae(&recon, &seq.values);
        }
        batches += 1;
    }
    let n = batches as f64;
    let mut out = String::from("Extension: paper-rejected refinements (§4.2/§4.3 rescoring)\n");
    let _ = writeln!(
        out,
        "  {:<22} {:>10} {:>14}",
        "Encoder", "MAE", "encode µs/batch"
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>10.4} {:>14.1}",
        "AGE (one-shot)",
        err[0] / n,
        time_us[0] / n
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>10.4} {:>14.1}",
        "AGE (rescoring)",
        err[1] / n,
        time_us[1] / n
    );
    let _ = writeln!(
        out,
        "  error delta {:+.2}%, compute delta {:+.0}% — the paper's call stands",
        100.0 * (err[1] - err[0]) / err[0].max(1e-12),
        100.0 * (time_us[1] - time_us[0]) / time_us[0].max(1e-12),
    );
    out
}

/// Online budget feedback: rate convergence without offline fitting, and
/// the leakage it still produces (hence still needing AGE).
pub fn feedback(s: &Settings) -> String {
    let runner = Runner::new(DatasetKind::Epilepsy, s.scale, s.seed);
    let spec = runner.dataset().spec();
    let d = spec.features;
    let mut out = String::from("Extension: online budget-feedback sampling (no offline fit)\n");
    let _ = writeln!(
        out,
        "  {:>7} {:>14} {:>10}",
        "target", "realized rate", "NMI(Std)"
    );
    for target_rate in [0.3, 0.5, 0.7] {
        let mut policy = FeedbackPolicy::new(target_rate);
        // Warm-up on the training split.
        for seq in &runner.dataset().sequences()[..8] {
            let _ = policy.sample_and_adapt(&seq.values, d);
        }
        let mut collected = 0usize;
        let mut total = 0usize;
        let mut observations = Vec::new();
        for seq in runner.test_sequences() {
            let indices = policy.sample_and_adapt(&seq.values, d);
            collected += indices.len();
            total += spec.seq_len;
            let cfg = runner.batch_config();
            observations.push((seq.label, cfg.standard_message_bytes(indices.len())));
        }
        let _ = writeln!(
            out,
            "  {:>6.0}% {:>13.1}% {:>10.3}",
            target_rate * 100.0,
            100.0 * collected as f64 / total as f64,
            age_attack::nmi(&observations)
        );
    }
    out.push_str("  (the controller hits the budget online, but its data-dependent\n");
    out.push_str("   rates leak like any adaptive policy — AGE still required)\n");
    out
}

/// Battery lifetime per defense: AGE's smaller messages extend deployment
/// life beyond both the standard policy and padding.
pub fn lifetime(s: &Settings) -> String {
    let runner = Runner::new(DatasetKind::Activity, s.scale, s.seed);
    let mut out = String::from("Extension: battery lifetime (230 mAh @ 3 V, one batch / 6 s)\n");
    let _ = writeln!(
        out,
        "  {:<10} {:>14} {:>14}",
        "Defense", "mJ/sequence", "lifetime (h)"
    );
    for defense in [Defense::Standard, Defense::Padded, Defense::Age] {
        let res = runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, defense, 0.7)
        });
        let cost = res.mean_energy();
        let battery = Battery::from_mah(230.0, 3.0);
        let hours = battery.lifetime_hours(MilliJoules(cost.0), 6.0);
        let _ = writeln!(
            out,
            "  {:<10} {:>14.2} {:>14.1}",
            defense.name(),
            cost.0,
            hours
        );
    }
    out.push_str("  (ZebraNet-style requirement: ≥ 72 h — all pass here, but AGE buys\n");
    out.push_str("   the longest deployment at equal security to padding)\n");
    out
}

/// The §7 pitfall measured: lossless compression leaks through message
/// sizes even with *non-adaptive* Uniform sampling, because compression
/// ratios are content-dependent.
pub fn compression(s: &Settings) -> String {
    use age_core::{DeltaCodec, StandardEncoder};
    let runner = Runner::new(DatasetKind::Epilepsy, s.scale, s.seed);
    let cfg = *runner.batch_config();
    let d = cfg.features();
    let policy = runner.policy(PolicyKind::Uniform, 0.7);
    let cipher = runner.cipher(CipherChoice::ChaCha20);

    let mut raw_obs = Vec::new();
    let mut compressed_obs = Vec::new();
    let mut scratch = stream_scratch("compression:Epilepsy/Uniform/Standard/r0.70".into());
    let mut plaintext = Vec::new();
    for (i, seq) in runner.test_sequences().iter().enumerate() {
        let batch = Batch::gather(policy.sample(&seq.values, d), &seq.values, d)
            .expect("policy output is valid");
        StandardEncoder
            .encode_into(&batch, &cfg, &mut scratch, &mut plaintext)
            .expect("fits");
        let raw = cipher.seal(i as u64, &plaintext);
        let packed = cipher.seal(i as u64, &DeltaCodec.encode(&batch, &cfg).expect("fits"));
        raw_obs.push((seq.label, raw.len()));
        compressed_obs.push((seq.label, packed.len()));
    }
    let mean = |obs: &[(usize, usize)]| {
        obs.iter().map(|&(_, m)| m as f64).sum::<f64>() / obs.len().max(1) as f64
    };
    let mut out =
        String::from("Extension: lossless compression leaks even under Uniform sampling (§7)\n");
    let _ = writeln!(
        out,
        "  {:<22} {:>11} {:>8}",
        "Encoding", "mean bytes", "NMI"
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>11.1} {:>8.3}",
        "raw (Uniform)",
        mean(&raw_obs),
        age_attack::nmi(&raw_obs)
    );
    let _ = writeln!(
        out,
        "  {:<22} {:>11.1} {:>8.3}",
        "delta-compressed",
        mean(&compressed_obs),
        age_attack::nmi(&compressed_obs)
    );
    out.push_str("  (content-dependent coding re-opens the size side-channel that\n");
    out.push_str("   Uniform sampling had closed — the CRIME effect on telemetry)\n");
    out
}

/// Downstream utility: the server's whole point is event detection from
/// reconstructed sequences. Train a classifier on true sequences, evaluate
/// it on each defense's reconstructions — AGE must preserve the accuracy,
/// because its ~1% extra MAE is useless if inference collapses.
pub fn utility(s: &Settings) -> String {
    use age_attack::Knn;
    let runner = Runner::new(DatasetKind::Epilepsy, s.scale, s.seed);
    let spec = runner.dataset().spec();
    let d = spec.features;

    // Sequence features the server's event detector uses: per-feature mean,
    // standard deviation, and mean absolute step.
    let featurize = |values: &[f64]| -> Vec<f64> {
        let len = values.len() / d;
        let mut out = Vec::with_capacity(3 * d);
        for f in 0..d {
            let col: Vec<f64> = (0..len).map(|t| values[t * d + f]).collect();
            let mean = col.iter().sum::<f64>() / len as f64;
            let var = col.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / len as f64;
            let step =
                col.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (len - 1).max(1) as f64;
            out.extend([mean, var.sqrt(), step]);
        }
        out
    };

    // Train on the (true) training split.
    let train_x: Vec<Vec<f64>> = runner.dataset().sequences()
        [..runner.dataset().sequences().len() / 3]
        .iter()
        .map(|seq| featurize(&seq.values))
        .collect();
    let train_y: Vec<usize> = runner.dataset().sequences()
        [..runner.dataset().sequences().len() / 3]
        .iter()
        .map(|seq| seq.label)
        .collect();
    let model = Knn::fit(&train_x, &train_y, 5);

    let mut out = String::from("Extension: server-side event detection on reconstructed data\n");
    let _ = writeln!(out, "  {:<12} {:>14}", "Input", "accuracy (%)");
    // Ground truth ceiling.
    let truth_acc = {
        let mut correct = 0usize;
        for seq in runner.test_sequences() {
            if model.predict(&featurize(&seq.values)) == seq.label {
                correct += 1;
            }
        }
        100.0 * correct as f64 / runner.test_sequences().len() as f64
    };
    let _ = writeln!(out, "  {:<12} {:>14.1}", "true data", truth_acc);

    for defense in [Defense::Standard, Defense::Age] {
        let result = runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, defense, 0.7)
        });
        // Re-run the pipeline to get reconstructions (the runner reports
        // errors, so rebuild reconstructions from the decoded batches).
        let cfg = runner.batch_config();
        let cipher = runner.cipher(CipherChoice::ChaCha20);
        let policy = runner.policy(PolicyKind::Linear, 0.7);
        let encoder: Box<dyn Encoder> = match defense {
            Defense::Standard => Box::new(age_core::StandardEncoder),
            _ => Box::new(AgeEncoder::new(target::age_plaintext_bytes(
                cfg,
                0.7,
                cipher.kind(),
                cipher.overhead(),
            ))),
        };
        let mut correct = 0usize;
        let mut scratch =
            stream_scratch(format!("utility:Epilepsy/Linear/{}/r0.70", defense.name()));
        let mut plaintext = Vec::new();
        for seq in runner.test_sequences() {
            let batch = Batch::gather(policy.sample(&seq.values, d), &seq.values, d)
                .expect("policy output is valid");
            encoder
                .encode_into(&batch, cfg, &mut scratch, &mut plaintext)
                .expect("feasible target");
            let decoded = encoder.decode(&plaintext, cfg).expect("own message");
            let recon =
                age_reconstruct::interpolate(decoded.indices(), decoded.values(), spec.seq_len, d);
            if model.predict(&featurize(&recon)) == seq.label {
                correct += 1;
            }
        }
        let acc = 100.0 * correct as f64 / runner.test_sequences().len() as f64;
        let _ = writeln!(out, "  {:<12} {:>14.1}", defense.name(), acc);
        let _ = result; // keep the fitted threshold cached
    }
    out.push_str("  (AGE's lossy encoding must not dent the server's event detector —\n");
    out.push_str("   the utility the sensor exists to provide)\n");
    out
}

/// Which message-size statistic the attacker leans on: permutation feature
/// importance of the §5.4 features (average, median, std, IQR).
pub fn importance(s: &Settings) -> String {
    use age_attack::permutation_importance;
    let runner = Runner::new(DatasetKind::Epilepsy, s.scale, s.seed);
    let attack = ClassifierAttack {
        total_samples: s.attack_samples,
        n_estimators: s.attack_estimators,
        seed: s.seed,
        ..Default::default()
    };
    let mut out =
        String::from("Extension: attack feature importance (Epilepsy, Linear, accuracy drop)\n");
    let _ = writeln!(
        out,
        "  {:<10} {:>9} {:>9} {:>9} {:>9}",
        "Defense", "average", "median", "std", "IQR"
    );
    for defense in [Defense::Standard, Defense::Age] {
        let res = runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, defense, 0.7)
        });
        let samples = attack.build_samples(&res.observations());
        let imp = permutation_importance(&samples, &attack, 3);
        let _ = writeln!(
            out,
            "  {:<10} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
            defense.name(),
            imp[0],
            imp[1],
            imp[2],
            imp[3]
        );
    }
    out.push_str("  (the mean and the spread of the size distribution both carry\n");
    out.push_str("   the leak; with AGE every column is worthless)\n");
    out
}

/// Intermittent power (§3.3): a solar-harvesting satellite in a 60%-sun
/// orbit. Cheaper messages let AGE downlink more batches per orbit than
/// either the standard policy or padding.
pub fn harvest(s: &Settings) -> String {
    use age_energy::{EncoderCost, Harvester};
    let runner = Runner::new(DatasetKind::Tiselac, s.scale, s.seed);
    let model = *runner.energy_model();
    let mut out =
        String::from("Extension: energy harvesting (Tiselac downlink, 60% sunlight orbit)\n");
    let _ = writeln!(
        out,
        "  {:<10} {:>10} {:>12} {:>10}",
        "Defense", "batches", "skipped", "NMI"
    );
    for defense in [Defense::Standard, Defense::Padded, Defense::Age] {
        let res = runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, defense, 0.7)
        });
        // Replay the per-sequence costs against a harvested store; income
        // is set just below the standard policy's mean cost so eclipse
        // periods force hard choices.
        let mut harvester = Harvester::new(MilliJoules(200.0), MilliJoules(38.0));
        let mut sent = 0usize;
        let mut skipped = 0usize;
        let mut observations = Vec::new();
        for (i, record) in res.records.iter().enumerate() {
            harvester.step(i % 5 < 3); // 60% illumination duty cycle
            let cost = model.sequence_cost(
                record.collected,
                record.collected * runner.dataset().spec().features,
                record.message_bytes,
                if defense == Defense::Age {
                    EncoderCost::Age
                } else {
                    EncoderCost::Standard
                },
            );
            if harvester.try_spend(cost) {
                sent += 1;
                observations.push((record.label, record.message_bytes));
            } else {
                skipped += 1;
            }
        }
        let _ = writeln!(
            out,
            "  {:<10} {:>10} {:>12} {:>10.3}",
            defense.name(),
            sent,
            skipped,
            age_attack::nmi(&observations)
        );
    }
    out.push_str("  (AGE downlinks the most batches per orbit and still leaks nothing)\n");
    out
}

/// Ablations of this implementation's own design choices (the deviations
/// DESIGN.md documents): the group-split utilization pass, the small-batch
/// cap on the §4.5 target reduction, and the offline-fit safety margin.
pub fn design(s: &Settings) -> String {
    use age_core::inspect_message;
    let mut out = String::from("Extension: ablations of this implementation's design choices\n");

    // --- (a) group-split pass: padding fraction and MAE on Activity. ---
    {
        let runner = Runner::new(DatasetKind::Activity, s.scale, s.seed);
        let cfg = *runner.batch_config();
        let d = cfg.features();
        let policy = runner.policy(PolicyKind::Linear, 0.9);
        let m_b = target::target_bytes(&cfg, 0.5);
        let plain = target::plaintext_budget(
            target::reduced_target_bytes(m_b),
            age_crypto::CipherKind::Stream,
            12,
            16,
        );
        let _ = writeln!(
            out,
            "  (a) group-split utilization pass (Activity, 50% target):"
        );
        let _ = writeln!(
            out,
            "      {:<12} {:>10} {:>12}",
            "variant", "MAE", "padding (%)"
        );
        for (name, split) in [("with split", true), ("without", false)] {
            let enc = AgeEncoder::new(plain).with_group_splitting(split);
            let defense = if split { "AGE" } else { "AGE-unsplit" };
            let mut scratch = stream_scratch(format!("design:Activity/Linear/{defense}/r0.90"));
            let mut msg = Vec::new();
            let mut err = 0.0;
            let mut pad = 0.0;
            let mut n = 0usize;
            for seq in runner.test_sequences() {
                let batch = Batch::gather(policy.sample(&seq.values, d), &seq.values, d)
                    .expect("policy output is valid");
                enc.encode_into(&batch, &cfg, &mut scratch, &mut msg)
                    .expect("feasible target");
                pad += inspect_message(&msg, &cfg)
                    .expect("own message")
                    .padding_fraction();
                let decoded = enc.decode(&msg, &cfg).expect("own message");
                let recon = age_reconstruct::interpolate(
                    decoded.indices(),
                    decoded.values(),
                    cfg.max_len(),
                    d,
                );
                err += age_reconstruct::mae(&recon, &seq.values);
                n += 1;
            }
            let _ = writeln!(
                out,
                "      {:<12} {:>10.4} {:>12.2}",
                name,
                err / n as f64,
                100.0 * pad / n as f64
            );
        }
    }

    // --- (b) reduction cap on a small-batch dataset (Pavement). ---
    {
        let runner = Runner::new(DatasetKind::Pavement, s.scale, s.seed);
        let cfg = *runner.batch_config();
        let d = cfg.features();
        let policy = runner.policy(PolicyKind::Linear, 0.5);
        let m_b = target::target_bytes(&cfg, 0.3);
        let _ = writeln!(
            out,
            "  (b) §4.5 reduction cap (Pavement, M_B = {m_b} bytes):"
        );
        let _ = writeln!(
            out,
            "      {:<18} {:>8} {:>10}",
            "schedule", "target", "MAE"
        );
        for (name, defense, reduced) in [
            ("capped (M_B/8)", "AGE", target::reduced_target_bytes(m_b)),
            (
                "paper-literal",
                "AGE-uncapped",
                target::reduced_target_bytes_uncapped(m_b),
            ),
        ] {
            let plain = target::plaintext_budget(reduced, age_crypto::CipherKind::Stream, 12, 16)
                .max(AgeEncoder::min_target_bytes(&cfg));
            let enc = AgeEncoder::new(plain);
            let mut scratch = stream_scratch(format!("design:Pavement/Linear/{defense}/r0.50"));
            let mut msg = Vec::new();
            let mut err = 0.0;
            let mut n = 0usize;
            for seq in runner.test_sequences() {
                let batch = Batch::gather(policy.sample(&seq.values, d), &seq.values, d)
                    .expect("policy output is valid");
                enc.encode_into(&batch, &cfg, &mut scratch, &mut msg)
                    .expect("feasible target");
                let decoded = enc.decode(&msg, &cfg).expect("own message");
                let recon = age_reconstruct::interpolate(
                    decoded.indices(),
                    decoded.values(),
                    cfg.max_len(),
                    d,
                );
                err += age_reconstruct::mae(&recon, &seq.values);
                n += 1;
            }
            let _ = writeln!(
                out,
                "      {:<18} {:>8} {:>10.4}",
                name,
                plain,
                err / n as f64
            );
        }
    }

    // --- (c) offline-fit safety margin (Password, budget enforced). ---
    {
        let _ = writeln!(
            out,
            "  (c) offline-fit margin (Password, Linear, 50% budget):"
        );
        let _ = writeln!(
            out,
            "      {:<10} {:>12} {:>10}",
            "margin", "violations", "MAE"
        );
        for margin in [1.0, Runner::FIT_MARGIN] {
            let runner =
                Runner::new(DatasetKind::Password, s.scale, s.seed).with_fit_margin(margin);
            let res = runner.run(&SweepCell::new(PolicyKind::Linear, Defense::Standard, 0.5));
            let _ = writeln!(
                out,
                "      {:<10.2} {:>7}/{:<4} {:>10.4}",
                margin,
                res.violations(),
                res.records.len(),
                res.mean_mae()
            );
        }
    }
    out.push_str("  (each choice buys measurable error/robustness; see DESIGN.md)\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extension_ids_dispatch() {
        let s = Settings::quick();
        assert!(run_extension("nope", &s).is_none());
        let out = run_extension("lifetime", &s).expect("known id");
        assert!(out.contains("lifetime"));
    }

    #[test]
    fn feedback_extension_reports_rates() {
        let out = feedback(&Settings::quick());
        assert!(out.contains("realized rate"));
    }

    #[test]
    fn resets_totals_line_is_identical_at_any_thread_count() {
        let totals = |threads| {
            let out = resets(&Settings {
                threads,
                ..Settings::quick()
            });
            let line = out.lines().find(|l| l.contains("transport totals:"));
            line.expect("resets prints a totals line").to_string()
        };
        let one = totals(1);
        assert!(!one.contains(" 0 sent"), "{one}");
        assert_eq!(one, totals(4));
    }

    #[test]
    fn timing_extension_reports_the_gap_channel() {
        let out = timing(&Settings::quick());
        assert!(out.contains("timing NMI"));
        assert!(out.contains("Std") && out.contains("AGE"));
    }
}
