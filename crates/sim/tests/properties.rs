//! Randomized tests for the experiment runner: the security invariant
//! must hold for every dataset, cipher, policy, and budget combination.
//! Driven by the workspace's deterministic PRNG (no external test deps).

use age_datasets::{DatasetKind, Scale};
use age_sim::{CipherChoice, Defense, PolicyKind, Runner, SweepCell};
use age_telemetry::DetRng;

const CASES: usize = 12;

fn random_kind(rng: &mut DetRng) -> DatasetKind {
    let all = DatasetKind::all();
    all[rng.gen_range(0usize..all.len())]
}

fn random_cipher(rng: &mut DetRng) -> CipherChoice {
    match rng.gen_range(0u32..4) {
        0 => CipherChoice::ChaCha20,
        1 => CipherChoice::ChaCha20Poly1305,
        2 => CipherChoice::Aes128Ctr,
        _ => CipherChoice::Aes128Cbc,
    }
}

fn random_policy(rng: &mut DetRng) -> PolicyKind {
    // Skip RNN excluded here: training per case is too slow.
    match rng.gen_range(0u32..3) {
        0 => PolicyKind::Uniform,
        1 => PolicyKind::Linear,
        _ => PolicyKind::Deviation,
    }
}

fn random_fixed_defense(rng: &mut DetRng) -> Defense {
    match rng.gen_range(0u32..4) {
        0 => Defense::Age,
        1 => Defense::Single,
        2 => Defense::Unshifted,
        _ => Defense::Pruned,
    }
}

/// THE invariant, over the whole configuration space: fixed-length
/// defenses produce one message size and zero NMI for every dataset,
/// cipher, policy, and budget.
#[test]
fn fixed_defenses_never_leak() {
    let mut rng = DetRng::seed_from_u64(0x51A1);
    for _ in 0..CASES {
        let kind = random_kind(&mut rng);
        let cipher = random_cipher(&mut rng);
        let policy = random_policy(&mut rng);
        let defense = random_fixed_defense(&mut rng);
        let rate_pct = rng.gen_range(30u32..=100);
        let runner = Runner::new(kind, Scale::Small, 5);
        let res = runner.run(&SweepCell {
            cipher,
            enforce_budget: false,
            ..SweepCell::new(policy, defense, f64::from(rate_pct) / 100.0)
        });
        let sizes: std::collections::HashSet<usize> =
            res.observations().iter().map(|&(_, s)| s).collect();
        assert!(
            sizes.len() <= 1,
            "{kind} {cipher:?} {policy:?} {defense:?}: {sizes:?}"
        );
        assert_eq!(res.nmi(), 0.0);
    }
}

/// Reconstruction errors are always finite and non-negative, and the
/// records cover the whole test split.
#[test]
fn runs_are_well_formed() {
    let mut rng = DetRng::seed_from_u64(0x51A2);
    for _ in 0..CASES {
        let kind = random_kind(&mut rng);
        let policy = random_policy(&mut rng);
        let rate_pct = rng.gen_range(30u32..=100);
        let enforce = rng.gen_bool(0.5);
        let runner = Runner::new(kind, Scale::Small, 6);
        let res = runner.run(&SweepCell {
            enforce_budget: enforce,
            ..SweepCell::new(policy, Defense::Standard, f64::from(rate_pct) / 100.0)
        });
        assert_eq!(res.records.len(), runner.test_sequences().len());
        for r in &res.records {
            assert!(r.mae.is_finite() && r.mae >= 0.0);
            assert!(r.energy_mj >= 0.0);
            assert!(r.violated == (r.message_bytes == 0));
        }
    }
}

/// Without budget enforcement nothing is ever lost.
#[test]
fn unenforced_runs_never_violate() {
    let mut rng = DetRng::seed_from_u64(0x51A3);
    for _ in 0..CASES {
        let kind = random_kind(&mut rng);
        let policy = random_policy(&mut rng);
        let rate_pct = rng.gen_range(30u32..=100);
        let runner = Runner::new(kind, Scale::Small, 7);
        let res = runner.run(&SweepCell {
            enforce_budget: false,
            ..SweepCell::new(policy, Defense::Age, f64::from(rate_pct) / 100.0)
        });
        assert_eq!(res.violations(), 0);
    }
}
