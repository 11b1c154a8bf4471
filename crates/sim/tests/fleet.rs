//! Fleet-scale determinism: the gateway's reports must be byte-identical
//! at any shard count and any thread count, and the aggregated fleet
//! traffic must hold the paper's two-channel leakage guarantee.
//!
//! These tests are the contract CI's determinism leg re-checks with
//! `cmp` on real report files; here the same comparisons run in-process
//! across more shard/thread combinations.

use age_gateway::Gateway;
use age_sim::fleet::{fleet_gateway_config, generate, provisioned_gateway, FleetConfig};

const SENSORS: u64 = 400;
const SEED: u64 = 2022;

fn run_fleet(config: &FleetConfig, shards: usize, threads: usize) -> Gateway {
    let traffic = generate(config);
    let mut gateway = provisioned_gateway(config, fleet_gateway_config(config, shards));
    gateway.run(&traffic.frames, threads);
    gateway
}

/// The staggered-rekey fleet: long enough that every sensor crosses
/// several epoch boundaries at its own splitmix phase.
fn rekey_config() -> FleetConfig {
    let mut config = FleetConfig::new(SENSORS, SEED);
    config.frames_per_sensor = 10;
    config.rekey_interval = Some(4);
    config
}

#[test]
fn fleet_report_is_byte_identical_across_shards_and_threads() {
    let config = FleetConfig::new(SENSORS, SEED);
    let reference = run_fleet(&config, 1, 1).fleet_report().to_json();
    for (shards, threads) in [(4, 1), (4, 4), (8, 3), (2, 8)] {
        let report = run_fleet(&config, shards, threads).fleet_report().to_json();
        assert_eq!(
            report, reference,
            "fleet report diverged at {shards} shards / {threads} threads"
        );
    }
}

#[test]
fn rekeying_fleet_report_is_byte_identical_across_shards_and_threads() {
    let config = rekey_config();
    let reference_gateway = run_fleet(&config, 1, 1);
    let reference = reference_gateway.fleet_report().to_json();
    let stats = reference_gateway.fleet_stats();
    assert_eq!(
        stats.accepted, stats.frames,
        "rekeying fleet fully accepted"
    );
    assert!(
        stats.rotations >= 2 * SENSORS,
        "interval 4 over 10 frames crosses ≥2 boundaries per sensor, saw {}",
        stats.rotations
    );
    for (shards, threads) in [(4, 1), (4, 4), (8, 3)] {
        let report = run_fleet(&config, shards, threads).fleet_report().to_json();
        assert_eq!(
            report, reference,
            "rekeying fleet report diverged at {shards} shards / {threads} threads"
        );
    }
}

#[test]
fn every_generated_frame_is_accepted() {
    let config = FleetConfig::new(SENSORS, SEED);
    let gateway = run_fleet(&config, 4, 4);
    let report = gateway.fleet_report();
    assert_eq!(report.stats.frames, SENSORS * 4);
    assert_eq!(report.stats.accepted, report.stats.frames);
    assert_eq!(report.stats.rejected(), 0);
    assert_eq!(report.sensors, SENSORS);
    assert_eq!(report.active_sensors, SENSORS);
    // Shard counters and per-receiver counters tell the same story.
    let receivers = gateway.receiver_stats();
    assert_eq!(receivers.accepted, report.stats.accepted);
    assert_eq!(receivers.rejected(), 0);
}

#[test]
fn defended_cohort_is_constant_size_baseline_is_not() {
    let config = FleetConfig::new(SENSORS, SEED);
    let report = run_fleet(&config, 4, 2).fleet_report();
    let age = &report.cohorts[0];
    let std_cohort = &report.cohorts[1];
    assert_eq!(age.name, "AGE");
    assert!(age.stats.wire_constant(), "AGE wire size must be constant");
    assert_eq!(std_cohort.name, "Std");
    assert!(
        !std_cohort.stats.wire_constant(),
        "the Std baseline must vary in size or the gate is vacuous"
    );
}

#[test]
fn shard_occupancy_partitions_the_fleet() {
    let config = FleetConfig::new(SENSORS, SEED);
    let gateway = provisioned_gateway(&config, fleet_gateway_config(&config, 8));
    let occupancy: Vec<usize> = gateway.shard_reports().iter().map(|r| r.sessions).collect();
    assert_eq!(occupancy.len(), 8);
    assert_eq!(occupancy.iter().sum::<usize>() as u64, SENSORS);
    assert!(
        occupancy.iter().all(|&n| n > 0),
        "no shard sits empty at 400 sensors"
    );
}

mod audits {
    use super::*;
    use age_telemetry::LeakageGate;

    /// Moderate permutation count: enough resolution for p-values well
    /// under the 0.05 gate, small enough to keep the test quick.
    const PERMUTATIONS: usize = 200;

    fn leakage_json(shards: usize, threads: usize) -> String {
        let config = FleetConfig::new(SENSORS, SEED);
        let gateway = run_fleet(&config, shards, threads);
        gateway.leakage_audit().report(PERMUTATIONS, SEED).to_json()
    }

    #[test]
    fn leakage_report_is_byte_identical_across_shards_and_threads() {
        let reference = leakage_json(1, 1);
        for (shards, threads) in [(4, 1), (4, 4), (6, 2)] {
            assert_eq!(
                leakage_json(shards, threads),
                reference,
                "LEAKAGE json diverged at {shards} shards / {threads} threads"
            );
        }
    }

    #[test]
    fn two_channel_gate_is_green_on_aggregated_fleet_traffic() {
        let config = FleetConfig::new(SENSORS, SEED);
        let gateway = run_fleet(&config, 4, 4);
        let report = gateway.leakage_audit().report(PERMUTATIONS, SEED);
        let gate = LeakageGate {
            nmi_threshold: 0.05,
            p_threshold: 0.05,
            min_observations: 30,
            defended: vec!["AGE".to_string()],
            baseline: vec!["Std".to_string()],
        };
        let outcome = gate.evaluate(&report.entries);
        assert!(outcome.passed, "fleet leakage gate failed:\n{report}",);
        assert!(outcome.defended_checked >= 1);
        assert!(outcome.baseline_checked >= 1);
    }

    #[test]
    fn two_channel_gate_is_green_on_a_rekeying_fleet() {
        // Rotations must be invisible to both leakage channels: same
        // frame sizes, same send cadence, only the key material moves.
        let config = rekey_config();
        let gateway = run_fleet(&config, 4, 4);
        let report = gateway.leakage_audit().report(PERMUTATIONS, SEED);
        let gate = LeakageGate {
            nmi_threshold: 0.05,
            p_threshold: 0.05,
            min_observations: 30,
            defended: vec!["AGE".to_string()],
            baseline: vec!["Std".to_string()],
        };
        let outcome = gate.evaluate(&report.entries);
        assert!(outcome.passed, "rekeying fleet leaked:\n{report}");
    }

    #[test]
    fn rekeying_nonce_audits_are_clean_on_both_sides() {
        let config = rekey_config();
        let traffic = generate(&config);
        assert!(traffic.sealed_nonces.is_clean(), "seal-side audit");
        assert!(
            traffic.sealed_nonces.cells() > SENSORS as usize,
            "sensors must seal under more than one epoch"
        );
        let mut gateway = provisioned_gateway(&config, fleet_gateway_config(&config, 4));
        gateway.run(&traffic.frames, 4);
        let accepted_side = gateway.nonce_audit();
        assert!(accepted_side.is_clean(), "gateway-side audit");
        assert_eq!(accepted_side.distinct(), traffic.sealed_nonces.distinct());
        assert_eq!(accepted_side.cells(), traffic.sealed_nonces.cells());
    }

    #[test]
    fn nonce_audits_are_clean_and_account_for_every_frame() {
        let config = FleetConfig::new(SENSORS, SEED);
        let traffic = generate(&config);
        assert!(traffic.sealed_nonces.is_clean(), "seal-side audit");
        assert_eq!(traffic.sealed_nonces.frames(), SENSORS * 4);
        assert_eq!(traffic.sealed_nonces.sensors(), SENSORS as usize);

        let mut gateway = provisioned_gateway(&config, fleet_gateway_config(&config, 4));
        gateway.run(&traffic.frames, 4);
        let accepted_side = gateway.nonce_audit();
        assert!(accepted_side.is_clean(), "gateway-side audit");
        assert_eq!(accepted_side.distinct(), traffic.sealed_nonces.distinct());
        assert_eq!(accepted_side.sensors(), SENSORS as usize);
    }

    #[test]
    fn nonce_audit_is_identical_across_shard_counts() {
        let config = FleetConfig::new(SENSORS, SEED);
        let traffic = generate(&config);
        let audits: Vec<_> = [(1usize, 1usize), (4, 4), (8, 2)]
            .into_iter()
            .map(|(shards, threads)| {
                let mut gateway =
                    provisioned_gateway(&config, fleet_gateway_config(&config, shards));
                gateway.run(&traffic.frames, threads);
                gateway.nonce_audit()
            })
            .collect();
        assert_eq!(audits[0], audits[1]);
        assert_eq!(audits[1], audits[2]);
    }

    #[test]
    fn gateway_config_shard_count_never_reaches_the_report() {
        // The config admits 0 shards; the gateway normalizes to 1 and
        // the report stays comparable with every other count.
        let config = FleetConfig::new(50, 9);
        let traffic = generate(&config);
        let mut zero = Gateway::new(fleet_gateway_config(&config, 0));
        for id in 0..config.sensors {
            zero.provision(id, config.cohort_of(id))
                .expect("cohort in range");
        }
        zero.run(&traffic.frames, 3);
        let mut one = provisioned_gateway(&config, fleet_gateway_config(&config, 1));
        one.run(&traffic.frames, 1);
        assert_eq!(zero.fleet_report().to_json(), one.fleet_report().to_json());
    }
}
