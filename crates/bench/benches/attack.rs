//! Attacker-side costs: NMI estimation, permutation testing, AdaBoost.

use age_attack::{nmi, permutation_test, AdaBoost, ClassifierAttack};
use age_bench::Harness;

fn observations(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .map(|i| (i % 4, 200 + (i % 4) * 40 + (i * 31) % 25))
        .collect()
}

fn main() {
    let mut h = Harness::from_args();

    let obs = observations(1000);
    h.bench("nmi/1000_messages", || nmi(&obs));
    h.bench("permutation_test/100_perms", || {
        permutation_test(&obs, 100, 7)
    });

    let x: Vec<Vec<f64>> = (0..800)
        .map(|i| {
            let l = (i % 4) as f64;
            vec![l * 10.0 + (i % 7) as f64, l * 5.0, (i % 13) as f64, l]
        })
        .collect();
    let y: Vec<usize> = (0..800).map(|i| i % 4).collect();
    h.bench("adaboost/fit_20x800", || AdaBoost::fit(&x, &y, 4, 20));
    let model = AdaBoost::fit(&x, &y, 4, 20);
    h.bench("adaboost/predict", || model.predict(&x[13]));

    let attack_obs = observations(400);
    let attack = ClassifierAttack {
        total_samples: 300,
        n_estimators: 10,
        ..Default::default()
    };
    h.bench("classifier_attack/5fold_300", || attack.run(&attack_obs));

    h.finish();
}
