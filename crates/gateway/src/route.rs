//! Pure routing and provisioning functions.
//!
//! Shard assignment must be a pure function of the sensor id alone —
//! never of arrival order, shard load, or any other runtime state —
//! because the determinism guarantee ("byte-identical reports at any
//! shard/thread count") and restart stability ("a sensor lands on the
//! same shard after every gateway restart") both reduce to routing
//! purity. The property tests in `tests/properties.rs` pin these
//! invariants and the balance of the hash.

use age_telemetry::DetRng;

/// SplitMix64 finalizer: a full-avalanche bijection on `u64`, the same
/// mixer `DetRng` seeds itself with. Sensor ids are often sequential
/// (provisioned in a loop), so the router must not use the raw id
/// modulo the shard count — that maps contiguous ranges to contiguous
/// shards and any id-assignment pattern straight into load imbalance.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The shard a sensor's frames are always routed to.
///
/// Pure in `sensor_id` and `shards`; `shards == 0` is treated as a
/// single shard so the router cannot divide by zero.
pub fn shard_of(sensor_id: u64, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    (mix(sensor_id) % shards as u64) as usize
}

/// Derives the per-sensor session key from the fleet provisioning seed.
///
/// This is the *simulation's* stand-in for a real provisioning-time KDF
/// (HKDF over a fleet master secret): it is deterministic, collision-free
/// in practice across a fleet (distinct `sensor_id`s land in distinct
/// `DetRng` streams), and lets a seeded fleet driver and the gateway
/// agree on every key without shipping key material around.
pub fn derive_key(fleet_seed: u64, sensor_id: u64) -> [u8; 32] {
    // Bind both inputs before expansion so (seed, id) and (id, seed)
    // collisions cannot happen by accident.
    let mut rng = DetRng::seed_from_u64(mix(fleet_seed) ^ mix(sensor_id ^ 0xa5a5_a5a5_a5a5_a5a5));
    let mut key = [0u8; 32];
    for chunk in key.chunks_mut(8) {
        chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    key
}

/// Derives the per-sensor *root* key for rekeying fleets: the real
/// HKDF-style extract/expand chain (`age_crypto::kdf`) over the fleet
/// secret, from which each sensor's per-epoch keys ratchet forward.
/// Static fleets keep using [`derive_key`] so their artifacts are
/// byte-for-byte unchanged.
pub fn derive_root(fleet_seed: u64, sensor_id: u64) -> [u8; 32] {
    age_crypto::kdf::sensor_root(&age_crypto::kdf::fleet_secret(fleet_seed), sensor_id)
}

/// The per-sensor rotation phase for a staggered fleet rekey.
///
/// If every sensor rotated at the same sequence watermark, a fleet-wide
/// rekey would be one synchronized burst — a thundering herd on the
/// gateway's forward-probe path and a glaring fleet-level timing
/// artifact. Staggering spreads the boundaries uniformly across
/// `0..interval`, purely as a function of `(fleet_seed, sensor_id)`, so
/// the schedule survives restarts on both ends without coordination.
pub fn stagger_phase(fleet_seed: u64, sensor_id: u64, interval: u64) -> u64 {
    if interval == 0 {
        return 0;
    }
    mix(mix(fleet_seed) ^ sensor_id ^ 0x5742_6001_c3a5_9d21) % interval
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_shard_route_everything_to_zero() {
        for id in [0u64, 1, 7, u64::MAX] {
            assert_eq!(shard_of(id, 0), 0);
            assert_eq!(shard_of(id, 1), 0);
        }
    }

    #[test]
    fn routing_is_total_and_in_range() {
        for shards in [2usize, 3, 8, 17] {
            for id in 0..1000u64 {
                assert!(shard_of(id, shards) < shards);
            }
        }
    }

    #[test]
    fn derived_keys_differ_by_sensor_and_seed() {
        let a = derive_key(1, 100);
        let b = derive_key(1, 101);
        let c = derive_key(2, 100);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_key(1, 100), "derivation is deterministic");
    }

    #[test]
    fn root_keys_come_from_the_kdf_and_differ_from_legacy_keys() {
        let root = derive_root(1, 100);
        assert_eq!(root, derive_root(1, 100), "derivation is deterministic");
        assert_ne!(root, derive_root(1, 101));
        assert_ne!(root, derive_root(2, 100));
        assert_ne!(root, derive_key(1, 100), "rekey fleets get fresh roots");
    }

    #[test]
    fn stagger_phases_spread_across_the_interval() {
        let interval = 64u64;
        let mut seen = [0u32; 64];
        for id in 0..640u64 {
            let phase = stagger_phase(7, id, interval);
            assert!(phase < interval);
            seen[phase as usize] += 1;
        }
        let hit = seen.iter().filter(|&&n| n > 0).count();
        assert!(hit > 48, "only {hit}/64 phases used — rekeys would herd");
        assert_eq!(stagger_phase(7, 11, 0), 0, "non-rotating fleets");
        assert_eq!(
            stagger_phase(7, 11, interval),
            stagger_phase(7, 11, interval),
            "phase is a pure function of (seed, id)"
        );
    }
}
