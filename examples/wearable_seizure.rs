//! The paper's motivating scenario (§3, Figure 7): a medical wearable whose
//! message sizes reveal epileptic seizures — and how AGE stops it.
//!
//! ```text
//! cargo run --release --example wearable_seizure
//! ```

use age::attack::ClassifierAttack;
use age::datasets::{DatasetKind, Scale};
use age::sim::{Defense, PolicyKind, Runner, SweepCell};

fn main() {
    println!("== Wearable seizure monitor (Epilepsy dataset) ==\n");
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Default, 2022);
    let kind = runner.dataset().kind();

    for defense in [Defense::Standard, Defense::Age] {
        let result = runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(PolicyKind::Linear, defense, 0.7)
        });

        println!("-- Linear policy, defense: {} --", result.defense);
        println!("   mean reconstruction MAE: {:.4}", result.mean_mae());
        println!("   message sizes by event:");
        for (label, mean, std, n) in result.size_stats_by_label() {
            println!(
                "     {:<8} {:7.1} bytes (±{:5.1})  [{} sequences]",
                kind.label_name(label),
                mean,
                std,
                n
            );
        }
        println!("   NMI(size, event): {:.3}", result.nmi());

        // The attacker groups ten same-event messages and classifies.
        let attack = ClassifierAttack {
            total_samples: 2_000,
            ..Default::default()
        };
        let outcome = attack.run(&result.observations());
        println!(
            "   attack accuracy: {:.1}% (blind guessing: {:.1}%)",
            outcome.mean_accuracy() * 100.0,
            outcome.baseline * 100.0
        );

        // Figure 7: the seizure row of the confusion matrix.
        let m = &outcome.confusion;
        let seizure = 0usize;
        let detected = m.get(seizure, seizure);
        let missed: usize = (0..m.n_classes())
            .filter(|&p| p != seizure)
            .map(|p| m.get(seizure, p))
            .sum();
        println!("   seizures classified correctly: {detected}, misclassified: {missed}\n");
    }

    println!("AGE keeps the adaptive policy's low error while making every");
    println!("message the same size, so the attacker can do no better than");
    println!("predicting the most frequent event.");
}
