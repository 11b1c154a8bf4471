//! The ZebraNet/wearable scenario (§2.2, Figure 5): activity tracking with
//! an accelerometer. Compares Uniform sampling against adaptive policies
//! with and without AGE across energy budgets, and shows the leakage each
//! configuration exposes.
//!
//! ```text
//! cargo run --release --example activity_tracker
//! ```

use age::attack::ClassifierAttack;
use age::datasets::{DatasetKind, Scale};
use age::sim::{Defense, PolicyKind, Runner, SweepCell};

fn main() {
    println!("== Activity tracker (Activity dataset) ==\n");
    let runner = Runner::new(DatasetKind::Activity, Scale::Default, 11);

    // Figure 5: MAE for each budget.
    println!("MAE per energy budget:");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "rate", "Uniform", "Linear", "Linear+AGE", "Deviation", "Dev+AGE"
    );
    for pct in [30u32, 40, 50, 60, 70, 80, 90, 100] {
        let rate = pct as f64 / 100.0;
        let row: Vec<f64> = [
            (PolicyKind::Uniform, Defense::Standard),
            (PolicyKind::Linear, Defense::Standard),
            (PolicyKind::Linear, Defense::Age),
            (PolicyKind::Deviation, Defense::Standard),
            (PolicyKind::Deviation, Defense::Age),
        ]
        .iter()
        .map(|&(p, d)| runner.run(&SweepCell::new(p, d, rate)).mean_mae())
        .collect();
        println!(
            "{:>5}% {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            pct, row[0], row[1], row[2], row[3], row[4]
        );
    }

    // Leakage at a representative budget.
    println!("\nLeakage at the 50% budget:");
    let attack = ClassifierAttack {
        total_samples: 2_000,
        ..Default::default()
    };
    for (policy, defense) in [
        (PolicyKind::Uniform, Defense::Standard),
        (PolicyKind::Linear, Defense::Standard),
        (PolicyKind::Linear, Defense::Age),
    ] {
        let res = runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(policy, defense, 0.5)
        });
        let outcome = attack.run(&res.observations());
        println!(
            "  {:<10} {:<5}  NMI {:.3}   attack {:.1}% (baseline {:.1}%)",
            res.policy,
            res.defense,
            res.nmi(),
            outcome.mean_accuracy() * 100.0,
            outcome.baseline * 100.0
        );
    }

    println!("\nAdaptive sampling beats Uniform on error; AGE keeps that win");
    println!("while reducing the attack to blind guessing.");
}
