//! Known-answer and property tests for the HKDF-style ratchet.
//!
//! The construction is from scratch, so there is no external vector suite
//! to borrow. Two defenses instead:
//!
//! 1. **Committed self-generated vectors.** The hex strings below were
//!    produced by the implementation once and committed; any later change
//!    to the permutation, the absorb framing, or the labels breaks them.
//! 2. **An independent reference implementation.** `ref_hchacha20` below
//!    is written directly from the RFC 7539 quarter-round pseudocode —
//!    scalar, index-based, sharing no code with the crate's lane-sliced
//!    permutation — and must agree with `hchacha20` on random inputs.
//!
//! One anchor is external: the permutation underneath `hchacha20` is the
//! ChaCha20 block function without its feed-forward, so its output is pinned
//! to the RFC 7539 §2.3.2 test vector (`hchacha20_matches_rfc7539_2_3_2`).

use age_crypto::kdf::{expand, extract, fleet_secret, hchacha20, sensor_root, EpochRatchet};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

// --- committed known-answer vectors -----------------------------------

#[test]
fn hchacha20_known_answer() {
    let key: [u8; 32] = core::array::from_fn(|i| i as u8);
    let input: [u8; 16] = core::array::from_fn(|i| (0xf0 + i) as u8);
    assert_eq!(
        hex(&hchacha20(&key, &input)),
        "969e1d9115842722d5eae8d284f3b3df60f137195872dc2cfb786bf75a22054d"
    );
}

#[test]
fn hchacha20_matches_rfc7539_2_3_2() {
    // RFC 7539 §2.3.2: key 00..1f, block counter 1, nonce
    // 000000090000004a00000000. Each expected word is the section's
    // serialized block output word minus the initial state word
    // (`wrapping_sub`), i.e. the state after 20 rounds before the
    // feed-forward; hchacha20 returns words 0..4 and 12..16 of it.
    let key: [u8; 32] = core::array::from_fn(|i| i as u8);
    let mut input = [0u8; 16];
    input[..4].copy_from_slice(&1u32.to_le_bytes());
    input[4..].copy_from_slice(&[0, 0, 0, 0x09, 0, 0, 0, 0x4a, 0, 0, 0, 0]);
    // Words 0..4, then words 12..16.
    let words: [u32; 8] = [
        0x8377_78ab,
        0xe238_d763,
        0xa67a_e21e,
        0x5950_bb2f,
        0xd19c_12b4,
        0xb04e_16de,
        0x9e83_d0cb,
        0x4e3c_50a2,
    ];
    let expected: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    assert_eq!(hchacha20(&key, &input).as_slice(), expected.as_slice());
}

#[test]
fn extract_known_answers() {
    assert_eq!(
        hex(&extract(b"", b"")),
        "60296672920a67516a305044bfad19bb1d237d10a0d40c5a4502515b774b3931"
    );
    assert_eq!(
        hex(&extract(b"salt", b"input keying material")),
        "9c8eb8845ad4dcf607c860555deca84555e4c5e5560ac0b637f95c0a8726b157"
    );
}

#[test]
fn expand_known_answer() {
    let prk = extract(b"salt", b"input keying material");
    let mut okm = [0u8; 64];
    expand(&prk, b"age kat", &mut okm);
    assert_eq!(
        hex(&okm),
        "5ec50ca7aaf5e105d96c2d95a271a79fa8e62c68ee938dde01842f961b614cc2\
         ee4b6250f423a44abbf30d81f82e732eedf66c182dc17187d462719a7edd304a"
    );
}

#[test]
fn lifecycle_known_answers() {
    assert_eq!(
        hex(&fleet_secret(2022)),
        "017a88bf2b4299c90782753f01ab4385caa71f5419eae0be0ce35995a9b82811"
    );
    let root = sensor_root(&fleet_secret(2022), 7);
    assert_eq!(
        hex(&root),
        "37d51ad8700e33501d2efdb1b4a73c70f2df8d1c3e988eeffbe6bc322cd159c6"
    );
    let mut ratchet = EpochRatchet::new(root);
    assert_eq!(
        hex(&ratchet.key()),
        "199ce04ac5fe1ad45992abcbadc59f581e31e168240e9c2ab5fd1484702e4b15"
    );
    ratchet.advance();
    assert_eq!(
        hex(&ratchet.key()),
        "a9a52d7c912e76e6756f57c34c2034c21326cd0daf6f735f6d5c501cb64c4ae2"
    );
    ratchet.seek(5);
    assert_eq!(
        hex(&ratchet.key()),
        "ce27c72a6754c468d53f27290391661789ce0679fab5c77244cde8a984d665a7"
    );
}

// --- independent reference implementation -----------------------------

/// RFC 7539 §2.1 quarter round, written scalar and index-based — the
/// crate's implementation works on four-lane rows instead, so agreement
/// is a genuine cross-check rather than the same code twice.
fn ref_quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// HChaCha20 from the spec: constants ‖ key ‖ input, 20 rounds, no final
/// addition, output words 0..4 and 12..16.
fn ref_hchacha20(key: &[u8; 32], input: &[u8; 16]) -> [u8; 32] {
    let mut state = [0u32; 16];
    state[0] = 0x6170_7865;
    state[1] = 0x3320_646e;
    state[2] = 0x7962_2d32;
    state[3] = 0x6b20_6574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().unwrap());
    }
    for i in 0..4 {
        state[12 + i] = u32::from_le_bytes(input[4 * i..4 * i + 4].try_into().unwrap());
    }
    for _ in 0..10 {
        ref_quarter_round(&mut state, 0, 4, 8, 12);
        ref_quarter_round(&mut state, 1, 5, 9, 13);
        ref_quarter_round(&mut state, 2, 6, 10, 14);
        ref_quarter_round(&mut state, 3, 7, 11, 15);
        ref_quarter_round(&mut state, 0, 5, 10, 15);
        ref_quarter_round(&mut state, 1, 6, 11, 12);
        ref_quarter_round(&mut state, 2, 7, 8, 13);
        ref_quarter_round(&mut state, 3, 4, 9, 14);
    }
    let mut out = [0u8; 32];
    for i in 0..4 {
        out[4 * i..4 * i + 4].copy_from_slice(&state[i].to_le_bytes());
        out[16 + 4 * i..16 + 4 * i + 4].copy_from_slice(&state[12 + i].to_le_bytes());
    }
    out
}

/// A tiny deterministic byte generator for the cross-check inputs (no
/// external RNG crate; splitmix64 over a counter).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fill(seed: u64, out: &mut [u8]) {
    for (i, chunk) in out.chunks_mut(8).enumerate() {
        let word = mix(seed.wrapping_add(i as u64)).to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

#[test]
fn hchacha20_matches_reference_on_random_inputs() {
    for seed in 0..200u64 {
        let mut key = [0u8; 32];
        let mut input = [0u8; 16];
        fill(mix(seed), &mut key);
        fill(mix(seed ^ 0xdead_beef), &mut input);
        assert_eq!(
            hchacha20(&key, &input),
            ref_hchacha20(&key, &input),
            "divergence at seed {seed}"
        );
    }
}

// --- property tests ----------------------------------------------------

#[test]
fn distinct_sensor_epoch_pairs_get_distinct_keys() {
    use std::collections::HashSet;

    let secret = fleet_secret(0xA11CE);
    let mut seen: HashSet<[u8; 32]> = HashSet::new();
    for sensor in 0..24u64 {
        let root = sensor_root(&secret, sensor);
        let mut ratchet = EpochRatchet::new(root);
        for _epoch in 0..24u64 {
            assert!(
                seen.insert(ratchet.key()),
                "key collision at sensor {sensor} epoch {}",
                ratchet.epoch()
            );
            ratchet.advance();
        }
    }
    // 24 sensors × 24 epochs, all pairwise distinct.
    assert_eq!(seen.len(), 24 * 24);
}

#[test]
fn old_epoch_key_is_not_derivable_from_advanced_state() {
    // Forward secrecy, operationally: from a ratchet at epoch e+1 there
    // is no API that returns epoch e's key, and seeking backward refuses
    // to move. (The cryptographic guarantee is the one-way chain step;
    // this pins the API surface that enforces it.)
    let root = sensor_root(&fleet_secret(9), 3);
    let mut ratchet = EpochRatchet::new(root);
    let old_key = ratchet.key();
    ratchet.advance();
    ratchet.seek(0);
    assert_eq!(ratchet.epoch(), 1);
    assert_ne!(ratchet.key(), old_key);
}

#[test]
fn fleet_secrets_differ_across_seeds() {
    assert_ne!(fleet_secret(1), fleet_secret(2));
    assert_ne!(
        sensor_root(&fleet_secret(1), 0),
        sensor_root(&fleet_secret(1), 1)
    );
}
