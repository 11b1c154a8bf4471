//! Table and figure regeneration.

use std::fmt::Write as _;

use age_attack::{permutation_test, welch_t_test, ClassifierAttack};
use age_core::{AgeEncoder, Batch, EncodeScratch, Encoder, StandardEncoder};
use age_datasets::{DatasetKind, Scale};
use age_reconstruct::{interpolate, mae, median, quartiles};
use age_sampling::{LinearPolicy, Policy, RandomPolicy};
use age_sim::{run_cells, CipherChoice, Defense, PolicyKind, Runner, SweepCell};

/// The eight per-dataset energy budgets (§5.1): Uniform sampling's energy
/// at these collection rates.
pub const RATES: [f64; 8] = [0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Experiment ids accepted by the `repro` binary, in paper order.
pub const EXPERIMENTS: &[&str] = &[
    "fig1", "table1", "table3", "table4", "table5", "fig5", "table6", "fig6", "fig7", "table7",
    "table8", "table9", "table10", "overhead",
];

/// Scale and statistical-effort knobs for the experiment drivers.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Dataset scale (sequence counts).
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Attack samples per classifier evaluation (paper: 10,000).
    pub attack_samples: usize,
    /// Boosted trees per attack model (paper: 50).
    pub attack_estimators: usize,
    /// Permutations per NMI significance test (paper: 15,000).
    pub permutations: usize,
    /// Worker threads for dataset/cell parallelism; `0` sizes the pool by
    /// [`age_sim::default_threads`]. Never affects results, only wall-clock.
    pub threads: usize,
    /// Optional drop/corruption rate for the `faults` extension (the
    /// `--faults <rate>` repro knob); `None` uses the extension's default.
    pub fault_rate: Option<f64>,
    /// Optional per-message power-cut rate for the `resets` extension (the
    /// `--power-faults <rate>` repro knob); `None` uses the extension's
    /// default.
    pub power_fault_rate: Option<f64>,
    /// Optional epoch length for the `rekey` extension (the
    /// `--rekey-interval <n>` repro knob): the link rotates its ratchet
    /// every `n` sequence numbers. `None` uses the extension's default.
    pub rekey_interval: Option<u64>,
}

impl Settings {
    /// The harness default: reduced sequence counts, minutes per table.
    pub fn standard() -> Self {
        Settings {
            scale: Scale::Default,
            seed: 2022,
            attack_samples: 1_500,
            attack_estimators: 50,
            permutations: 1_000,
            threads: 0,
            fault_rate: None,
            power_fault_rate: None,
            rekey_interval: None,
        }
    }

    /// Tiny runs for tests and Criterion timing.
    pub fn quick() -> Self {
        Settings {
            scale: Scale::Small,
            seed: 2022,
            attack_samples: 300,
            attack_estimators: 10,
            permutations: 60,
            threads: 0,
            fault_rate: None,
            power_fault_rate: None,
            rekey_interval: None,
        }
    }

    /// Paper-scale statistics (hours).
    pub fn full() -> Self {
        Settings {
            scale: Scale::Full,
            seed: 2022,
            attack_samples: 10_000,
            attack_estimators: 50,
            permutations: 15_000,
            threads: 0,
            fault_rate: None,
            power_fault_rate: None,
            rekey_interval: None,
        }
    }

    fn attack(&self) -> ClassifierAttack {
        ClassifierAttack {
            total_samples: self.attack_samples,
            n_estimators: self.attack_estimators,
            seed: self.seed ^ 0xA77AC4,
            ..Default::default()
        }
    }
}

/// Runs `f` for every dataset on the sweep pool ([`age_sim::par_map`];
/// `threads == 0` sizes it by [`age_sim::default_threads`]); each call
/// owns the `Runner`s it builds and results return in table order
/// regardless of which worker produced them.
pub(crate) fn per_dataset<T, F>(threads: usize, f: F) -> Vec<(DatasetKind, T)>
where
    T: Send,
    F: Fn(DatasetKind) -> T + Sync,
{
    age_sim::par_map(&DatasetKind::all(), threads, |&kind| (kind, f(kind)))
}

/// Dispatches an experiment id to its driver.
pub fn run_experiment(id: &str, s: &Settings) -> Option<String> {
    match id {
        "fig1" => Some(fig1(s)),
        "table1" => Some(table1(s)),
        "table3" => Some(table3()),
        "table4" => Some(table45(s).0),
        "table5" => Some(table45(s).1),
        "fig5" => Some(fig5(s)),
        "table6" => Some(table6(s)),
        "fig6" => Some(fig6(s)),
        "fig7" => Some(fig7(s)),
        "table7" => Some(table7(s)),
        "table8" => Some(table8(s)),
        "table9" => Some(table910(s).0),
        "table10" => Some(table910(s).1),
        "overhead" => Some(overhead(s)),
        _ => None,
    }
}

/// Figure 1: adaptive vs random sampling of two 25-step accelerometer
/// windows at a 70% budget.
pub fn fig1(s: &Settings) -> String {
    use age_datasets::LabelProfile;
    use age_telemetry::DetRng;

    let mut rng = DetRng::seed_from_u64(s.seed);
    // Walking-like and running-like profiles (the Epilepsy labels).
    let walking = LabelProfile {
        amp: 0.55,
        freq: 0.05,
        noise: 0.04,
        ar: 0.7,
        ..Default::default()
    };
    let running = LabelProfile {
        amp: 2.3,
        freq: 0.27,
        noise: 0.22,
        ar: 0.6,
        ..Default::default()
    };
    let len = 25usize;
    let seq_walk = walking.generate(len, 1, &mut rng);
    let seq_run = running.generate(len, 1, &mut rng);

    let random = RandomPolicy::new(0.7, s.seed);
    // One threshold for both windows, as a deployed policy would have.
    let train: Vec<&[f64]> = vec![&seq_walk, &seq_run];
    let thr = age_sampling::fit_threshold(LinearPolicy::new, &train, 1, 0.64, 6.0, 24);
    let adaptive = LinearPolicy::new(thr);

    let mut out = String::from("Figure 1: sampling two 25-step windows (70% budget)\n");
    for (name, seq) in [("walking", &seq_walk), ("running", &seq_run)] {
        let r_idx = random.sample(seq, 1);
        let a_idx = adaptive.sample(seq, 1);
        let gather = |idx: &[usize]| -> Vec<f64> { idx.iter().map(|&i| seq[i]).collect() };
        let r_err = mae(&interpolate(&r_idx, &gather(&r_idx), len, 1), seq);
        let a_err = mae(&interpolate(&a_idx, &gather(&a_idx), len, 1), seq);
        let _ = writeln!(
            out,
            "  {name:<8} Rand #: {:>2}  Adpt #: {:>2}   Rand MAE: {r_err:.4}  Adpt MAE: {a_err:.4}",
            r_idx.len(),
            a_idx.len(),
        );
    }
    out.push_str("  (the adaptive policy under-samples the calm window and spends\n");
    out.push_str("   the saved budget on the volatile one)\n");
    out
}

/// Table 1: mean (std) message size per event for the three adaptive
/// policies on Epilepsy.
pub fn table1(s: &Settings) -> String {
    let runner = Runner::new(DatasetKind::Epilepsy, s.scale, s.seed);
    let kind = runner.dataset().kind();
    let mut out = String::from("Table 1: message size by event, Epilepsy (mean ± std bytes)\n");
    let _ = writeln!(
        out,
        "  {:<10} {:>18} {:>18} {:>18}",
        "Event", "Linear", "Deviation", "Skip RNN"
    );
    let results: Vec<_> = [
        PolicyKind::Linear,
        PolicyKind::Deviation,
        PolicyKind::SkipRnn,
    ]
    .iter()
    .map(|&p| {
        runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(p, Defense::Standard, 0.7)
        })
    })
    .collect();
    let stats: Vec<_> = results.iter().map(|r| r.size_stats_by_label()).collect();
    for label in 0..4 {
        let mut row = format!("  {:<10}", kind.label_name(label));
        for st in &stats {
            match st.iter().find(|&&(l, ..)| l == label) {
                Some(&(_, mean, std, _)) => {
                    let _ = write!(row, " {:>10.1} (±{:>5.1})", mean, std);
                }
                None => {
                    let _ = write!(row, " {:>18}", "-");
                }
            }
        }
        out.push_str(&row);
        out.push('\n');
    }

    // §3.2: pairwise Welch's t-tests between conditional distributions.
    let mut significant = 0usize;
    let mut tested = 0usize;
    for result in &results {
        // Group sizes per label.
        let mut by_label: Vec<Vec<f64>> = vec![Vec::new(); 4];
        for &(l, m) in &result.observations() {
            if l < 4 {
                by_label[l].push(m as f64);
            }
        }
        for i in 0..4 {
            for j in i + 1..4 {
                if let Some(test) = welch_t_test(&by_label[i], &by_label[j]) {
                    tested += 1;
                    if test.significant(0.01) {
                        significant += 1;
                    }
                }
            }
        }
    }
    let _ = writeln!(
        out,
        "  pairwise Welch's t-tests significant at a=0.01: {significant}/{tested}"
    );
    out
}

/// Table 3: dataset properties.
pub fn table3() -> String {
    let mut out = String::from("Table 3: evaluation dataset properties\n");
    let _ = writeln!(
        out,
        "  {:<12} {:>8} {:>8} {:>7} {:>7} {:>12} {:>9}",
        "Dataset", "# Seq", "Seq Len", "# Feat", "Labels", "Bits (Frac)", "Range"
    );
    for kind in DatasetKind::all() {
        let spec = kind.spec();
        let _ = writeln!(
            out,
            "  {:<12} {:>8} {:>8} {:>7} {:>7} {:>7} ({:>2}) {:>9.1}",
            spec.name,
            spec.num_sequences,
            spec.seq_len,
            spec.features,
            spec.num_labels,
            spec.format.width(),
            spec.format.frac(),
            spec.range
        );
    }
    out
}

const ERROR_CONFIGS: [(PolicyKind, Defense); 6] = [
    (PolicyKind::Linear, Defense::Standard),
    (PolicyKind::Linear, Defense::Padded),
    (PolicyKind::Linear, Defense::Age),
    (PolicyKind::Deviation, Defense::Standard),
    (PolicyKind::Deviation, Defense::Padded),
    (PolicyKind::Deviation, Defense::Age),
];

/// Tables 4 and 5: mean (and deviation-weighted) reconstruction MAE across
/// all budgets, per dataset and configuration.
pub fn table45(s: &Settings) -> (String, String) {
    let header = format!(
        "  {:<12} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "Dataset", "Unif.", "Lin Std", "Lin Pad", "Lin AGE", "Dev Std", "Dev Pad", "Dev AGE"
    );
    let mut t4 = String::from("Table 4: arithmetic mean MAE across all budgets\n");
    let mut t5 = String::from("Table 5: deviation-weighted mean MAE across all budgets\n");
    t4.push_str(&header);
    t5.push_str(&header);

    // Per-dataset sweeps run on the worker pool; each dataset's 56-cell
    // grid (8 rates × [Uniform + 6 configs]) goes through the sim's sweep
    // queue and comes back in cell order, then folds into row sums plus
    // the percent-vs-uniform cells for the Overall rows.
    type SweepOut = ([f64; 7], [f64; 7], Vec<Vec<f64>>, Vec<Vec<f64>>);
    let sweeps = per_dataset(s.threads, |kind| -> SweepOut {
        let runner = Runner::new(kind, s.scale, s.seed);
        let mut cells = Vec::with_capacity(RATES.len() * (1 + ERROR_CONFIGS.len()));
        for &rate in &RATES {
            cells.push(SweepCell::new(PolicyKind::Uniform, Defense::Standard, rate));
            for &(p, d) in &ERROR_CONFIGS {
                cells.push(SweepCell::new(p, d, rate));
            }
        }
        // Dataset-level parallelism already fills the pool; each dataset
        // grid runs on its worker's own thread.
        let results = run_cells(&runner, &cells, 1);

        let mut sums4 = [0.0f64; 7];
        let mut sums5 = [0.0f64; 7];
        let mut pct4: Vec<Vec<f64>> = vec![Vec::new(); ERROR_CONFIGS.len()];
        let mut pct5: Vec<Vec<f64>> = vec![Vec::new(); ERROR_CONFIGS.len()];
        for per_rate in results.chunks(1 + ERROR_CONFIGS.len()) {
            let unif = &per_rate[0];
            sums4[0] += unif.mean_mae();
            sums5[0] += unif.weighted_mae();
            for (c, res) in per_rate[1..].iter().enumerate() {
                sums4[c + 1] += res.mean_mae();
                sums5[c + 1] += res.weighted_mae();
                if unif.mean_mae() > 0.0 {
                    pct4[c].push(100.0 * (res.mean_mae() - unif.mean_mae()) / unif.mean_mae());
                }
                if unif.weighted_mae() > 0.0 {
                    pct5[c].push(
                        100.0 * (res.weighted_mae() - unif.weighted_mae()) / unif.weighted_mae(),
                    );
                }
            }
        }
        (sums4, sums5, pct4, pct5)
    });

    let mut pct4: Vec<Vec<f64>> = vec![Vec::new(); ERROR_CONFIGS.len()];
    let mut pct5: Vec<Vec<f64>> = vec![Vec::new(); ERROR_CONFIGS.len()];
    let n = RATES.len() as f64;
    for (kind, (sums4, sums5, p4, p5)) in sweeps {
        let fmt_row = |sums: &[f64; 7]| -> String {
            let mut row = format!("  {:<12}", kind.spec().name);
            for v in sums {
                let _ = write!(row, " {:>9.4}", v / n);
            }
            row.push('\n');
            row
        };
        t4.push_str(&fmt_row(&sums4));
        t5.push_str(&fmt_row(&sums5));
        for (acc, cells) in pct4.iter_mut().zip(p4) {
            acc.extend(cells);
        }
        for (acc, cells) in pct5.iter_mut().zip(p5) {
            acc.extend(cells);
        }
    }

    let overall = |pcts: &[Vec<f64>]| -> String {
        let mut row = format!("  {:<12} {:>9}", "Overall (%)", "0.00");
        for cell in pcts {
            let _ = write!(row, " {:>9.2}", median(cell).unwrap_or(0.0));
        }
        row.push('\n');
        row
    };
    t4.push_str(&overall(&pct4));
    t5.push_str(&overall(&pct5));
    t4.push_str("  (Overall row: median % error relative to Uniform; lower is better)\n");
    t5.push_str("  (Overall row: median % error relative to Uniform; lower is better)\n");
    (t4, t5)
}

/// Figure 5: MAE for each budget on the Activity dataset.
pub fn fig5(s: &Settings) -> String {
    let runner = Runner::new(DatasetKind::Activity, s.scale, s.seed);
    let mut out = String::from("Figure 5: MAE per energy budget, Activity\n");
    let _ = writeln!(
        out,
        "  {:>10} {:>6} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "budget", "rate", "Uniform", "Lin Std", "Lin AGE", "Dev Std", "Dev AGE"
    );
    for &rate in &RATES {
        let budget = runner.budget_per_seq(rate, CipherChoice::ChaCha20);
        let maes: Vec<f64> = [
            (PolicyKind::Uniform, Defense::Standard),
            (PolicyKind::Linear, Defense::Standard),
            (PolicyKind::Linear, Defense::Age),
            (PolicyKind::Deviation, Defense::Standard),
            (PolicyKind::Deviation, Defense::Age),
        ]
        .iter()
        .map(|&(p, d)| runner.run(&SweepCell::new(p, d, rate)).mean_mae())
        .collect();
        let _ = writeln!(
            out,
            "  {:>7.1}mJ {:>5.0}% {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            budget.0,
            rate * 100.0,
            maes[0],
            maes[1],
            maes[2],
            maes[3],
            maes[4]
        );
    }
    out
}

/// Table 6: median / maximum NMI between message size and event label, plus
/// the fraction of budgets where the permutation test is significant.
pub fn table6(s: &Settings) -> String {
    let mut out = String::from("Table 6: median / max NMI(message size, event) across budgets\n");
    let _ = writeln!(
        out,
        "  {:<12} {:>13} {:>8} {:>13} {:>8} {:>10}",
        "Dataset", "Linear Std", "LinAGE", "Dev Std", "DevAGE", "sig(p<.01)"
    );
    type Table6Row = (Vec<f64>, Vec<f64>, f64, f64, usize, usize);
    let rows = per_dataset(s.threads, |kind| -> Table6Row {
        let runner = Runner::new(kind, s.scale, s.seed);
        let mut lin = Vec::new();
        let mut dev = Vec::new();
        let mut lin_age: f64 = 0.0;
        let mut dev_age: f64 = 0.0;
        let mut significant = 0usize;
        let mut tested = 0usize;
        for &rate in &RATES {
            for (p, store) in [
                (PolicyKind::Linear, &mut lin),
                (PolicyKind::Deviation, &mut dev),
            ] {
                let res = runner.run(&SweepCell {
                    enforce_budget: false,
                    ..SweepCell::new(p, Defense::Standard, rate)
                });
                store.push(res.nmi());
                let p_value = permutation_test(&res.observations(), s.permutations, s.seed);
                tested += 1;
                if p_value < 0.01 {
                    significant += 1;
                }
            }
            lin_age = lin_age.max(
                runner
                    .run(&SweepCell {
                        enforce_budget: false,
                        ..SweepCell::new(PolicyKind::Linear, Defense::Age, rate)
                    })
                    .nmi(),
            );
            dev_age = dev_age.max(
                runner
                    .run(&SweepCell {
                        enforce_budget: false,
                        ..SweepCell::new(PolicyKind::Deviation, Defense::Age, rate)
                    })
                    .nmi(),
            );
        }
        (lin, dev, lin_age, dev_age, significant, tested)
    });
    for (kind, (lin, dev, lin_age, dev_age, significant, tested)) in rows {
        let mx = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
        let _ = writeln!(
            out,
            "  {:<12} {:>6.2} /{:>5.2} {:>8.2} {:>6.2} /{:>5.2} {:>8.2} {:>9.0}%",
            kind.spec().name,
            median(&lin).unwrap_or(0.0),
            mx(&lin),
            lin_age,
            median(&dev).unwrap_or(0.0),
            mx(&dev),
            dev_age,
            100.0 * significant as f64 / tested as f64,
        );
    }
    out.push_str("  (Padded and AGE show zero NMI: message sizes are constant)\n");
    out
}

/// Figure 6: attacker event-detection accuracy per dataset (median, IQR,
/// and max across budgets).
pub fn fig6(s: &Settings) -> String {
    let attack = s.attack();
    let mut out = String::from("Figure 6: attacker accuracy across budgets (%)\n");
    let _ = writeln!(
        out,
        "  {:<12} {:>22} {:>10} {:>22} {:>10} {:>9}",
        "Dataset", "Linear med[q1,q3]/max", "Lin AGE", "Dev med[q1,q3]/max", "Dev AGE", "baseline"
    );
    let rows = per_dataset(s.threads, |kind| -> (Vec<String>, f64) {
        let runner = Runner::new(kind, s.scale, s.seed);
        let mut cells: Vec<String> = Vec::new();
        let mut baseline = 0.0;
        for (p, d) in [
            (PolicyKind::Linear, Defense::Standard),
            (PolicyKind::Linear, Defense::Age),
            (PolicyKind::Deviation, Defense::Standard),
            (PolicyKind::Deviation, Defense::Age),
        ] {
            let mut accs = Vec::new();
            for &rate in &RATES {
                let res = runner.run(&SweepCell {
                    enforce_budget: false,
                    ..SweepCell::new(p, d, rate)
                });
                let outcome = attack.run(&res.observations());
                accs.push(outcome.mean_accuracy() * 100.0);
                baseline = outcome.baseline * 100.0;
            }
            let med = median(&accs).unwrap_or(0.0);
            let (q1, q3) = quartiles(&accs).unwrap_or((0.0, 0.0));
            let mx = accs.iter().cloned().fold(0.0f64, f64::max);
            if d == Defense::Age {
                cells.push(format!("{med:>10.1}"));
            } else {
                cells.push(format!("{med:>6.1} [{q1:>4.1},{q3:>5.1}]/{mx:>5.1}"));
            }
        }
        (cells, baseline)
    });
    for (kind, (cells, baseline)) in rows {
        let _ = writeln!(
            out,
            "  {:<12} {:>22} {} {:>22} {} {:>8.1}%",
            kind.spec().name,
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            baseline
        );
    }
    out.push_str("  (AGE columns: median accuracy — equal to the most-frequent-event rate)\n");
    out
}

/// Figure 7: seizure-detection confusion matrices, Linear vs Linear+AGE on
/// Epilepsy at a single budget.
pub fn fig7(s: &Settings) -> String {
    let runner = Runner::new(DatasetKind::Epilepsy, s.scale, s.seed);
    let attack = s.attack();
    let mut out =
        String::from("Figure 7: seizure confusion matrices (Epilepsy, Linear, one budget)\n");
    for defense in [Defense::Standard, Defense::Age] {
        let res = runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, defense, 0.7)
        });
        let outcome = attack.run(&res.observations());
        // Collapse the 4-class confusion into seizure (label 0) vs other.
        let m = &outcome.confusion;
        let mut cells = [[0usize; 2]; 2];
        for truth in 0..m.n_classes() {
            for pred in 0..m.n_classes() {
                cells[usize::from(truth != 0)][usize::from(pred != 0)] += m.get(truth, pred);
            }
        }
        let _ = writeln!(out, "  -- {} --", res.defense);
        let _ = writeln!(out, "     Tr\\Pr  {:>8} {:>8}", "Seizure", "Other");
        let _ = writeln!(out, "     Seizure {:>8} {:>8}", cells[0][0], cells[0][1]);
        let _ = writeln!(out, "     Other   {:>8} {:>8}", cells[1][0], cells[1][1]);
    }
    out.push_str("  (AGE forces every prediction into the most frequent event)\n");
    out
}

/// Table 7: Skip RNN results — average MAE, max NMI, and max attack
/// accuracy with and without AGE.
pub fn table7(s: &Settings) -> String {
    let attack = s.attack();
    let mut out = String::from("Table 7: Skip RNN sampling (rates 30%-100%)\n");
    let _ = writeln!(
        out,
        "  {:<12} {:>9} {:>9} {:>6} {:>6} {:>9} {:>9}",
        "Dataset", "MAE Std", "MAE AGE", "NMI", "NMIAGE", "Atk(%)", "AtkAGE(%)"
    );
    let rows = per_dataset(s.threads, |kind| -> [f64; 6] {
        let runner = Runner::new(kind, s.scale, s.seed);
        let mut mae_std = 0.0;
        let mut mae_age = 0.0;
        let mut nmi_std: f64 = 0.0;
        let mut nmi_age: f64 = 0.0;
        let mut atk_std: f64 = 0.0;
        let mut atk_age: f64 = 0.0;
        for &rate in &RATES {
            let std_res = runner.run(&SweepCell {
                enforce_budget: false,
                ..SweepCell::new(PolicyKind::SkipRnn, Defense::Standard, rate)
            });
            let age_res = runner.run(&SweepCell {
                enforce_budget: false,
                ..SweepCell::new(PolicyKind::SkipRnn, Defense::Age, rate)
            });
            mae_std += std_res.mean_mae();
            mae_age += age_res.mean_mae();
            nmi_std = nmi_std.max(std_res.nmi());
            nmi_age = nmi_age.max(age_res.nmi());
            atk_std = atk_std.max(attack.run(&std_res.observations()).mean_accuracy() * 100.0);
            atk_age = atk_age.max(attack.run(&age_res.observations()).mean_accuracy() * 100.0);
        }
        let n = RATES.len() as f64;
        [mae_std / n, mae_age / n, nmi_std, nmi_age, atk_std, atk_age]
    });
    for (kind, row) in rows {
        let _ = writeln!(
            out,
            "  {:<12} {:>9.4} {:>9.4} {:>6.2} {:>6.2} {:>9.2} {:>9.2}",
            kind.spec().name,
            row[0],
            row[1],
            row[2],
            row[3],
            row[4],
            row[5]
        );
    }
    out
}

/// Table 8: ablation — median percent error of the Single / Unshifted /
/// Pruned variants relative to full AGE.
pub fn table8(s: &Settings) -> String {
    let variants = [Defense::Single, Defense::Unshifted, Defense::Pruned];
    let per_kind = per_dataset(s.threads, |kind| -> Vec<Vec<Vec<f64>>> {
        let runner = Runner::new(kind, s.scale, s.seed);
        let mut pct: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 2]; variants.len()];
        for &rate in &RATES {
            for (pi, policy) in [PolicyKind::Linear, PolicyKind::Deviation]
                .into_iter()
                .enumerate()
            {
                let age_res = runner.run(&SweepCell::new(policy, Defense::Age, rate));
                let base = age_res.mean_mae();
                if base <= 0.0 {
                    continue;
                }
                for (vi, &variant) in variants.iter().enumerate() {
                    let res = runner.run(&SweepCell::new(policy, variant, rate));
                    pct[vi][pi].push(100.0 * (res.mean_mae() - base) / base);
                }
            }
        }
        pct
    });
    let mut pct: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); 2]; variants.len()];
    for (_, kind_pct) in per_kind {
        for (acc_v, cells_v) in pct.iter_mut().zip(kind_pct) {
            for (acc_p, cells_p) in acc_v.iter_mut().zip(cells_v) {
                acc_p.extend(cells_p);
            }
        }
    }
    let mut out = String::from("Table 8: median % error above AGE across all budgets and tasks\n");
    let _ = writeln!(
        out,
        "  {:<12} {:>10} {:>10}",
        "Variant", "Linear", "Deviation"
    );
    for (vi, variant) in variants.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<12} {:>9.3}% {:>9.3}%",
            variant.name(),
            median(&pct[vi][0]).unwrap_or(0.0),
            median(&pct[vi][1]).unwrap_or(0.0)
        );
    }
    let _ = writeln!(out, "  {:<12} {:>9.3}% {:>9.3}%", "AGE", 0.0, 0.0);
    out
}

const MCU_RATES: [f64; 3] = [0.4, 0.7, 1.0];
const MCU_SEQS: usize = 75;

/// Tables 9 and 10: the MCU deployment — energy per sequence and MAE over
/// 75 sequences at three budgets, AES-128 block cipher.
pub fn table910(s: &Settings) -> (String, String) {
    let mut t9 = String::from("Table 9: average energy per sequence (mJ), 75 sequences, AES-128\n");
    let mut t10 = String::from("Table 10: MAE, 75 sequences, AES-128\n");
    let configs: [(&str, PolicyKind, Defense); 7] = [
        ("Uniform", PolicyKind::Uniform, Defense::Standard),
        ("Linear", PolicyKind::Linear, Defense::Standard),
        ("  Padded", PolicyKind::Linear, Defense::Padded),
        ("  AGE", PolicyKind::Linear, Defense::Age),
        ("Deviation", PolicyKind::Deviation, Defense::Standard),
        ("  Padded", PolicyKind::Deviation, Defense::Padded),
        ("  AGE", PolicyKind::Deviation, Defense::Age),
    ];
    for kind in [DatasetKind::Activity, DatasetKind::Tiselac] {
        let runner = Runner::new(kind, s.scale, s.seed);
        let budgets: Vec<String> = MCU_RATES
            .iter()
            .map(|&r| {
                format!(
                    "{:.3}J",
                    runner.budget_per_seq(r, CipherChoice::Aes128Cbc).0 * MCU_SEQS as f64 / 1000.0
                )
            })
            .collect();
        for out in [&mut t9, &mut t10] {
            let _ = writeln!(
                out,
                "  -- {} (total budgets: {} / {} / {}) --",
                kind.spec().name,
                budgets[0],
                budgets[1],
                budgets[2]
            );
        }
        // Uniform's per-sequence energies per rate, for the §5.7 one-sided
        // Welch violation check.
        let uniform_energy: Vec<Vec<f64>> = MCU_RATES
            .iter()
            .map(|&rate| {
                runner
                    .run(&SweepCell {
                        cipher: CipherChoice::Aes128Cbc,
                        limit: Some(MCU_SEQS),
                        ..SweepCell::new(PolicyKind::Uniform, Defense::Standard, rate)
                    })
                    .records
                    .iter()
                    .filter(|r| !r.violated)
                    .map(|r| r.energy_mj)
                    .collect()
            })
            .collect();
        let mut flagged: Vec<String> = Vec::new();
        for (name, p, d) in configs {
            let mut row9 = format!("  {name:<10}");
            let mut row10 = format!("  {name:<10}");
            for (ri, &rate) in MCU_RATES.iter().enumerate() {
                let res = runner.run(&SweepCell {
                    cipher: CipherChoice::Aes128Cbc,
                    limit: Some(MCU_SEQS),
                    ..SweepCell::new(p, d, rate)
                });
                let _ = write!(row9, " {:>8.2}", res.mean_energy().0);
                let _ = write!(row10, " {:>8.4}", res.mean_mae());
                // §5.7: flag energy significantly above Uniform's (one-sided,
                // a = 0.05).
                let energies: Vec<f64> = res
                    .records
                    .iter()
                    .filter(|r| !r.violated)
                    .map(|r| r.energy_mj)
                    .collect();
                if let Some(test) = welch_t_test(&energies, &uniform_energy[ri]) {
                    if test.p_greater() < 0.05 {
                        flagged.push(format!("{} @{:.0}%", name.trim(), rate * 100.0));
                    }
                }
            }
            t9.push_str(&row9);
            t9.push('\n');
            t10.push_str(&row10);
            t10.push('\n');
        }
        let _ = writeln!(
            t9,
            "  over-budget vs Uniform (one-sided Welch, a=0.05): {}",
            if flagged.is_empty() {
                "none".to_string()
            } else {
                flagged.join(", ")
            }
        );
    }
    (t9, t10)
}

/// A scratch whose batch records belong to the stream `label`. Experiments
/// that encode outside `Runner::run` name their streams with it, as
/// `experiment:dataset/policy/defense/r<rate>`, so no record is unlabelled.
pub(crate) fn stream_scratch(label: String) -> EncodeScratch {
    let mut scratch = EncodeScratch::new();
    scratch.context.label = label;
    scratch
}

/// §5.8: encoding-compute overhead vs communication savings.
pub fn overhead(s: &Settings) -> String {
    use std::time::Instant;

    let runner = Runner::new(DatasetKind::Activity, s.scale, s.seed);
    let cfg = *runner.batch_config();
    let seq = &runner.dataset().sequences()[0];
    let d = cfg.features();
    let batch = Batch::new(
        (0..cfg.max_len()).collect(),
        seq.values[..cfg.max_len() * d].to_vec(),
    )
    .expect("full batch is valid");
    let age = AgeEncoder::new(300);
    let standard = StandardEncoder;

    // Mean µs per encode over 400 reps, each stream through its own scratch.
    let mut message = Vec::new();
    let mut time_encode = |enc: &dyn Encoder, defense: &str| -> f64 {
        let mut scratch = stream_scratch(format!("overhead:Activity/full/{defense}"));
        let reps = 400usize;
        let start = Instant::now();
        for _ in 0..reps {
            enc.encode_into(&batch, &cfg, &mut scratch, &mut message)
                .expect("feasible");
            std::hint::black_box(message.len());
        }
        start.elapsed().as_secs_f64() * 1e6 / reps as f64
    };
    let age_us = time_encode(&age, "AGE");
    let std_us = time_encode(&standard, "Standard");

    let model = runner.energy_model();
    let values = cfg.max_len() * d;
    let age_mj = model.encode_age_per_value.0 * values as f64;
    let std_mj = model.encode_standard_per_value.0 * values as f64;
    let saving = model.comm_per_byte.0 * 30.0;

    let mut out = String::from("Overhead analysis (§5.8), full Activity sequence\n");
    let _ = writeln!(
        out,
        "  AGE encode:      {age_us:>8.1} µs  ({age_mj:.4} mJ modelled, ×4 charged in sim)"
    );
    let _ = writeln!(
        out,
        "  standard encode: {std_us:>8.1} µs  ({std_mj:.4} mJ modelled)"
    );
    let _ = writeln!(
        out,
        "  30-byte communication reduction saves {saving:.4} mJ per batch"
    );
    let _ = writeln!(
        out,
        "  net effect: {:.4} mJ saved per batch even at the 4x compute factor",
        saving - (age_mj * model.age_compute_factor - std_mj)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_id_dispatches() {
        let s = Settings::quick();
        // Only check the cheap ones end-to-end; the heavy ones are covered
        // by the repro binary and benches.
        for id in ["fig1", "table3"] {
            let out = run_experiment(id, &s).expect("known id");
            assert!(out.len() > 40, "{id} produced: {out}");
        }
        assert!(run_experiment("nope", &s).is_none());
        for id in EXPERIMENTS {
            assert!(EXPERIMENTS.contains(id));
        }
    }

    #[test]
    fn fig1_shows_adaptive_budget_shifting() {
        let out = fig1(&Settings::quick());
        assert!(out.contains("walking"));
        assert!(out.contains("running"));
    }

    #[test]
    fn table1_reports_all_events() {
        let out = table1(&Settings::quick());
        for event in ["seizure", "walking", "running", "sawing"] {
            assert!(out.contains(event), "missing {event} in:\n{out}");
        }
    }

    #[test]
    fn table3_matches_spec_shapes() {
        let out = table3();
        assert!(out.contains("Tiselac"));
        assert!(out.contains("11119"));
        assert!(out.contains("1250"));
    }

    #[test]
    fn overhead_reports_net_savings() {
        let out = overhead(&Settings::quick());
        assert!(out.contains("net effect"));
    }
}
