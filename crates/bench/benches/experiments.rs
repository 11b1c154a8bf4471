//! One benchmark per paper experiment, timing a representative cell at
//! reduced scale. The full tables come from the `repro` binary
//! (`cargo run -p age-bench --release --bin repro -- all`).

use age_bench::{run_experiment, Harness, Settings};
use age_datasets::{DatasetKind, Scale};
use age_sim::{CipherChoice, Defense, PolicyKind, Runner, SweepCell};
use std::time::Duration;

fn main() {
    // These cells are orders of magnitude slower than the microbenches;
    // keep the windows tight so the suite stays tractable.
    let mut h =
        Harness::from_args().with_windows(Duration::from_millis(100), Duration::from_millis(500));

    // Figure 1 and Table 3 are cheap enough to run whole.
    let s = Settings::quick();
    for id in ["fig1", "table3", "overhead"] {
        h.bench(&format!("experiment/{id}"), || {
            run_experiment(id, &s).expect("known id")
        });
    }

    // Table 1 cell: per-event size statistics of one adaptive policy.
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 3);
    h.bench("experiment/table1_cell", || {
        let res = runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, Defense::Standard, 0.7)
        });
        res.size_stats_by_label()
    });

    // Table 4/5 cell: one dataset × one budget × the seven error configs.
    h.bench("experiment/table45_cell", || {
        let mut total = 0.0;
        for (p, d) in [
            (PolicyKind::Uniform, Defense::Standard),
            (PolicyKind::Linear, Defense::Standard),
            (PolicyKind::Linear, Defense::Padded),
            (PolicyKind::Linear, Defense::Age),
            (PolicyKind::Deviation, Defense::Standard),
            (PolicyKind::Deviation, Defense::Padded),
            (PolicyKind::Deviation, Defense::Age),
        ] {
            let res = runner.run(&SweepCell::new(p, d, 0.5));
            total += res.mean_mae() + res.weighted_mae();
        }
        total
    });

    // Figure 5 cell: one budget's series on Activity.
    let activity = Runner::new(DatasetKind::Activity, Scale::Small, 3);
    h.bench("experiment/fig5_cell", || {
        let std_res = activity.run(&SweepCell::new(PolicyKind::Linear, Defense::Standard, 0.5));
        let age_res = activity.run(&SweepCell::new(PolicyKind::Linear, Defense::Age, 0.5));
        (std_res.mean_mae(), age_res.mean_mae())
    });

    // Table 6 cell: NMI plus a reduced permutation test.
    let pavement = Runner::new(DatasetKind::Pavement, Scale::Small, 3);
    let res = pavement.run(&SweepCell {
        enforce_budget: false,
        ..SweepCell::new(PolicyKind::Linear, Defense::Standard, 0.5)
    });
    let obs = res.observations();
    h.bench("experiment/table6_cell", || {
        age_attack::permutation_test(&obs, 60, 1)
    });

    // Figure 6 / Figure 7 cell: one classifier attack evaluation.
    let epilepsy_res = runner.run(&SweepCell {
        enforce_budget: false,
        ..SweepCell::new(PolicyKind::Linear, Defense::Standard, 0.5)
    });
    let epilepsy_obs = epilepsy_res.observations();
    let attack = age_attack::ClassifierAttack {
        total_samples: 300,
        n_estimators: 10,
        ..Default::default()
    };
    h.bench("experiment/fig6_fig7_cell", || attack.run(&epilepsy_obs));

    // Table 7 cell: a Skip RNN run with and without AGE.
    let strawberry = Runner::new(DatasetKind::Strawberry, Scale::Small, 3);
    // Train once outside the timing loop (the paper trains offline too).
    let _ = strawberry.run(&SweepCell {
        enforce_budget: false,
        ..SweepCell::new(PolicyKind::SkipRnn, Defense::Standard, 0.5)
    });
    h.bench("experiment/table7_cell", || {
        let std_res = strawberry.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::SkipRnn, Defense::Standard, 0.5)
        });
        let age_res = strawberry.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::SkipRnn, Defense::Age, 0.5)
        });
        (std_res.nmi(), age_res.nmi())
    });

    // Table 8 cell: the three ablation variants against AGE.
    let tiselac = Runner::new(DatasetKind::Tiselac, Scale::Small, 3);
    h.bench("experiment/table8_cell", || {
        let mut total = 0.0;
        for d in [
            Defense::Age,
            Defense::Single,
            Defense::Unshifted,
            Defense::Pruned,
        ] {
            total += tiselac
                .run(&SweepCell::new(PolicyKind::Linear, d, 0.5))
                .mean_mae();
        }
        total
    });

    // Table 9/10 cell: one MCU-mode run (75 sequences, AES-128 CBC).
    h.bench("experiment/table910_cell", || {
        let res = activity.run(&SweepCell {
            cipher: CipherChoice::Aes128Cbc,
            limit: Some(75),
            ..SweepCell::new(PolicyKind::Linear, Defense::Age, 0.7)
        });
        (res.mean_energy(), res.mean_mae())
    });

    h.finish();
}
