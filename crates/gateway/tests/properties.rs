//! Property tests for the gateway's pure routing layer.
//!
//! Shard assignment must be (1) a pure function of the sensor id and
//! shard count, (2) stable across restarts — pinned here as literal
//! expected values, so any change to the hash is a deliberate,
//! test-breaking act — and (3) balanced: over any large id population,
//! random or adversarially sequential, no shard carries more than 1.3×
//! the occupancy of the lightest shard.

use std::collections::BTreeSet;

use age_core::{AgeEncoder, BatchConfig};
use age_fixed::Format;
use age_gateway::{derive_key, shard_of, Cohort, Gateway, GatewayConfig};
use age_telemetry::DetRng;

/// Max/min shard-occupancy ratio the router must stay under at 10k ids.
const BALANCE_RATIO: f64 = 1.3;
const POPULATION: u64 = 10_000;

#[test]
fn shard_assignment_is_pinned_across_restarts() {
    // (sensor id, shard at 2, at 4, at 8). These literals are the
    // restart-stability contract: a provisioned sensor must land on the
    // same shard in every future process.
    let pins: [(u64, usize, usize, usize); 8] = [
        (0, 1, 3, 7),
        (1, 1, 1, 1),
        (2, 0, 2, 6),
        (7, 1, 3, 7),
        (42, 1, 1, 5),
        (1000, 0, 0, 0),
        (123_456_789, 1, 1, 1),
        (u64::MAX, 0, 0, 0),
    ];
    for (id, at2, at4, at8) in pins {
        assert_eq!(shard_of(id, 2), at2, "sensor {id} at 2 shards");
        assert_eq!(shard_of(id, 4), at4, "sensor {id} at 4 shards");
        assert_eq!(shard_of(id, 8), at8, "sensor {id} at 8 shards");
    }
    // Wider pin: a weighted checksum over the first 1024 ids at 8
    // shards, so a hash change cannot hide in the sampled ids above.
    let checksum: u64 = (0..1024u64)
        .map(|id| shard_of(id, 8) as u64 * (id + 1))
        .sum();
    assert_eq!(checksum, 1_883_153);
}

#[test]
fn shard_assignment_is_pure() {
    let mut rng = DetRng::seed_from_u64(99);
    let ids: Vec<u64> = (0..1000).map(|_| rng.next_u64()).collect();
    for shards in [1usize, 2, 3, 8, 64] {
        let forward: Vec<usize> = ids.iter().map(|&id| shard_of(id, shards)).collect();
        let backward: Vec<usize> = ids.iter().rev().map(|&id| shard_of(id, shards)).collect();
        // Same answers regardless of evaluation order or repetition.
        assert!(forward
            .iter()
            .zip(backward.iter().rev())
            .all(|(a, b)| a == b));
        assert!(forward.iter().all(|&s| s < shards));
    }
}

fn occupancy_of(ids: impl Iterator<Item = u64>, shards: usize) -> Vec<u64> {
    let mut counts = vec![0u64; shards];
    for id in ids {
        counts[shard_of(id, shards)] += 1;
    }
    counts
}

fn assert_balanced(counts: &[u64], what: &str) {
    let max = counts.iter().copied().max().unwrap_or(0);
    let min = counts.iter().copied().min().unwrap_or(0);
    assert!(min > 0, "{what}: a shard got zero sensors: {counts:?}");
    let ratio = max as f64 / min as f64;
    assert!(
        ratio <= BALANCE_RATIO,
        "{what}: occupancy ratio {ratio:.3} exceeds {BALANCE_RATIO} ({counts:?})"
    );
}

#[test]
fn random_ids_balance_across_shards() {
    let mut rng = DetRng::seed_from_u64(2022);
    let ids: Vec<u64> = (0..POPULATION).map(|_| rng.next_u64()).collect();
    for shards in [2usize, 4, 8] {
        assert_balanced(
            &occupancy_of(ids.iter().copied(), shards),
            &format!("{POPULATION} random ids at {shards} shards"),
        );
    }
}

#[test]
fn sequential_ids_balance_across_shards() {
    // Fleets provision ids 0..N in a loop; the mixer must spread the
    // arithmetic structure as well as it spreads random ids.
    for shards in [2usize, 4, 8] {
        assert_balanced(
            &occupancy_of(0..POPULATION, shards),
            &format!("{POPULATION} sequential ids at {shards} shards"),
        );
    }
    // Strided ids (e.g. even-only deployments) must balance too.
    for shards in [2usize, 4, 8] {
        assert_balanced(
            &occupancy_of((0..POPULATION).map(|i| i * 2), shards),
            &format!("{POPULATION} even ids at {shards} shards"),
        );
    }
}

#[test]
fn provisioning_follows_the_pure_router() {
    let batch = BatchConfig::new(25, 2, Format::new(16, 10).unwrap()).unwrap();
    let config = GatewayConfig::new(
        batch,
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        7,
        8,
    );
    let mut gateway = Gateway::new(config);
    for id in 0..2000u64 {
        gateway.provision(id, 0).unwrap();
    }
    let expected: Vec<usize> = occupancy_of(0..2000, 8)
        .iter()
        .map(|&n| n as usize)
        .collect();
    let sessions: Vec<usize> = gateway.shard_reports().iter().map(|r| r.sessions).collect();
    assert_eq!(sessions, expected);
    assert_eq!(gateway.sessions(), 2000);
}

#[test]
fn derived_keys_are_deterministic_and_collision_free() {
    let mut keys = BTreeSet::new();
    for id in 0..2000u64 {
        assert!(
            keys.insert(derive_key(2022, id)),
            "key collision at sensor {id}"
        );
        assert_eq!(derive_key(2022, id), derive_key(2022, id));
    }
    // Different fleet seeds produce disjoint key material.
    for id in 0..200u64 {
        assert!(
            keys.insert(derive_key(2023, id)),
            "cross-seed collision at {id}"
        );
    }
}
