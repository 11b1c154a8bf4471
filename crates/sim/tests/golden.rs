//! Golden digests of whole experiment results.
//!
//! Each cell's `ExperimentResult` is serialized with `Debug` (every record,
//! every float bit, the transport counters) and hashed with FNV-1a. A
//! change to the experiment path that moves a single byte of any result —
//! a budget decision, an RNG guess, a send stamp, a sequence number or an
//! epoch — fails here and names the cell. Refactors must keep these
//! digests; a deliberate behaviour change re-pins them and says why.
//!
//! The grid covers every branch of the loop: budget violations under the
//! variable-length (Std), padded and AGE defenses, an unbudgeted capped
//! run, a block cipher, a lossy channel with retries (one payload there
//! arrives undecodable), journaled brownouts, and rekeying under fire.

use age_datasets::{DatasetKind, Scale};
use age_sim::{
    rekey_scenario, run_cells, CipherChoice, Defense, FaultPlan, FaultSetup, PolicyKind,
    PowerFaults, RetryPolicy, Runner, SweepCell,
};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn grid() -> Vec<(&'static str, SweepCell, u64)> {
    use CipherChoice::*;
    use Defense::*;
    use PolicyKind::*;
    let lossy = FaultSetup::new(FaultPlan::lossy(0.2, 5));
    let brownouts = FaultSetup::new(FaultPlan::drops(0.1, 3))
        .with_retry(RetryPolicy::none())
        .with_power(PowerFaults::at_rate(0.1, 3));
    vec![
        (
            "std-budget",
            SweepCell::new(Linear, Standard, 0.4),
            0x3ffc_2a66_de7f_56d2,
        ),
        (
            "padded-budget",
            SweepCell::new(Linear, Padded, 0.4),
            0xe9cb_fe3d_40e0_b18a,
        ),
        (
            "age-budget",
            SweepCell::new(Deviation, Age, 0.3),
            0xa0d6_76fa_d958_5699,
        ),
        (
            "unbudgeted-limit",
            SweepCell {
                enforce_budget: false,
                limit: Some(9),
                ..SweepCell::new(Deviation, Standard, 0.5)
            },
            0xfd01_ef83_a03d_8009,
        ),
        (
            "aes-cbc",
            SweepCell {
                cipher: Aes128Cbc,
                ..SweepCell::new(Deviation, Age, 0.5)
            },
            0xc873_72b9_b0b3_71d9,
        ),
        (
            "lossy-age",
            SweepCell {
                enforce_budget: false,
                faults: Some(lossy),
                ..SweepCell::new(Linear, Age, 0.5)
            },
            0xcc2e_13c8_8ac2_04d6,
        ),
        (
            "lossy-std-budget",
            SweepCell {
                faults: Some(lossy.with_retry(RetryPolicy::none())),
                ..SweepCell::new(Linear, Standard, 0.4)
            },
            0x017f_e0d7_8a89_5b5e,
        ),
        (
            "power-faults",
            SweepCell {
                cipher: ChaCha20Poly1305,
                faults: Some(brownouts),
                ..SweepCell::new(Linear, Padded, 0.4)
            },
            0xa4c0_1db7_39c8_82fe,
        ),
        (
            "rekey-scenario",
            SweepCell {
                cipher: ChaCha20Poly1305,
                faults: Some(rekey_scenario(8, 0.05, 3)),
                ..SweepCell::new(Linear, Age, 0.5)
            },
            0xee4e_3007_6e49_983a,
        ),
    ]
}

#[test]
fn experiment_results_match_pinned_digests() {
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let grid = grid();
    let cells: Vec<SweepCell> = grid.iter().map(|&(_, cell, _)| cell).collect();
    let results = run_cells(&runner, &cells, 0);
    let mut mismatches = Vec::new();
    for ((name, _, want), result) in grid.iter().zip(&results) {
        let got = fnv1a(format!("{result:?}").as_bytes());
        if got != *want {
            mismatches.push(format!("{name}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn the_grid_reaches_every_branch() {
    let runner = Runner::new(DatasetKind::Epilepsy, Scale::Small, 7);
    let grid = grid();
    let cells: Vec<SweepCell> = grid.iter().map(|&(_, cell, _)| cell).collect();
    let results = run_cells(&runner, &cells, 0);
    let by_name = |n: &str| &results[grid.iter().position(|(name, ..)| *name == n).unwrap()];
    for n in [
        "std-budget",
        "padded-budget",
        "lossy-std-budget",
        "power-faults",
        "rekey-scenario",
    ] {
        assert!(by_name(n).violations() > 0, "{n} has no budget violations");
    }
    for n in ["lossy-age", "lossy-std-budget", "power-faults"] {
        assert!(by_name(n).losses() > 0, "{n} loses nothing in transit");
    }
    assert_eq!(by_name("unbudgeted-limit").records.len(), 9);
    let lossy = by_name("lossy-age").transport.expect("transport summary");
    assert!(lossy.decode_failed > 0, "no payload failed to decode");
    let rekeyed = by_name("rekey-scenario");
    assert!(rekeyed.records.iter().any(|r| r.epoch > 0), "no rotation");
    let link = rekeyed.transport.expect("transport summary").link;
    assert!(link.sensor_reboots > 0, "no brownout");
}
