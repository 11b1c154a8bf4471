//! Differential tests for the four- and eight-block ChaCha20 keystream and the
//! 64-bit-limb Poly1305 behind the AEAD.
//!
//! Every expected value here is self-generated: the fast paths are compared
//! against test-local references — one [`chacha20_block`] call per block,
//! and the earlier 26-bit-limb Poly1305, same arithmetic as a one-shot
//! function below — and, for the
//! reduction edge cases, against tags worked out by hand. None of these are
//! published vectors. The RFC 7539 Appendix A.3 Poly1305 vectors are not in
//! the repository; they belong in `tests/vectors.rs` once they are. The
//! published vectors that are there (§2.3.2, §2.4.2, §2.5.2, §2.6.2) still
//! run in `tests/vectors.rs` and the unit tests.

use age_crypto::{chacha20_block, poly1305, ChaCha20, ChaCha20Poly1305, Cipher, OpenError};
use age_telemetry::DetRng;

// --- references -----------------------------------------------------------

/// Poly1305 with five 26-bit limbs: the arithmetic the crate shipped before
/// the 44/44/42-bit form (including its branching final select), kept as
/// the reference.
fn reference_poly1305(key: &[u8; 32], message: &[u8]) -> [u8; 16] {
    let le32 = |b: &[u8]| u32::from_le_bytes(b.try_into().expect("4 bytes"));
    let mut rb = [0u8; 16];
    rb.copy_from_slice(&key[..16]);
    for i in [3, 7, 11, 15] {
        rb[i] &= 15;
    }
    for i in [4, 8, 12] {
        rb[i] &= 252;
    }
    let r = [
        le32(&rb[0..4]) & 0x3ff_ffff,
        (le32(&rb[3..7]) >> 2) & 0x3ff_ff03,
        (le32(&rb[6..10]) >> 4) & 0x3ff_c0ff,
        (le32(&rb[9..13]) >> 6) & 0x3f0_3fff,
        (le32(&rb[12..16]) >> 8) & 0x00f_ffff,
    ];
    let s = [0, r[1] * 5, r[2] * 5, r[3] * 5, r[4] * 5];
    let mut h = [0u32; 5];

    let mut process = |block: &[u8; 16], hibit: u32| {
        h[0] = h[0].wrapping_add(le32(&block[0..4]) & 0x3ff_ffff);
        h[1] = h[1].wrapping_add((le32(&block[3..7]) >> 2) & 0x3ff_ffff);
        h[2] = h[2].wrapping_add((le32(&block[6..10]) >> 4) & 0x3ff_ffff);
        h[3] = h[3].wrapping_add((le32(&block[9..13]) >> 6) & 0x3ff_ffff);
        h[4] = h[4].wrapping_add((le32(&block[12..16]) >> 8) | (hibit << 24));
        let m = |a: u32, b: u32| u64::from(a) * u64::from(b);
        let d = [
            m(h[0], r[0]) + m(h[1], s[4]) + m(h[2], s[3]) + m(h[3], s[2]) + m(h[4], s[1]),
            m(h[0], r[1]) + m(h[1], r[0]) + m(h[2], s[4]) + m(h[3], s[3]) + m(h[4], s[2]),
            m(h[0], r[2]) + m(h[1], r[1]) + m(h[2], r[0]) + m(h[3], s[4]) + m(h[4], s[3]),
            m(h[0], r[3]) + m(h[1], r[2]) + m(h[2], r[1]) + m(h[3], r[0]) + m(h[4], s[4]),
            m(h[0], r[4]) + m(h[1], r[3]) + m(h[2], r[2]) + m(h[3], r[1]) + m(h[4], r[0]),
        ];
        let mut carry = 0u64;
        for (limb, wide) in h.iter_mut().zip(d) {
            let wide = wide + carry;
            carry = wide >> 26;
            *limb = (wide & 0x3ff_ffff) as u32;
        }
        h[0] += carry as u32 * 5;
        h[1] += h[0] >> 26;
        h[0] &= 0x3ff_ffff;
    };

    let mut chunks = message.chunks_exact(16);
    for chunk in chunks.by_ref() {
        process(chunk.try_into().expect("16 bytes"), 1);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut block = [0u8; 16];
        block[..rest.len()].copy_from_slice(rest);
        block[rest.len()] = 1;
        process(&block, 0);
    }

    // Final reduction.
    let mut c = h[1] >> 26;
    h[1] &= 0x3ff_ffff;
    for limb in &mut h[2..] {
        *limb += c;
        c = *limb >> 26;
        *limb &= 0x3ff_ffff;
    }
    h[0] += c * 5;
    c = h[0] >> 26;
    h[0] &= 0x3ff_ffff;
    h[1] += c;
    let mut g = [0u32; 5];
    c = 5;
    for i in 0..4 {
        g[i] = h[i].wrapping_add(c);
        c = g[i] >> 26;
        g[i] &= 0x3ff_ffff;
    }
    g[4] = h[4].wrapping_add(c).wrapping_sub(1 << 26);
    if g[4] >> 31 == 0 {
        h = g;
    }
    let value = u128::from(h[0])
        | (u128::from(h[1]) << 26)
        | (u128::from(h[2]) << 52)
        | (u128::from(h[3]) << 78)
        | (u128::from(h[4]) << 104);
    let pad = u128::from_le_bytes(key[16..].try_into().expect("16 bytes"));
    value.wrapping_add(pad).to_le_bytes()
}

/// ChaCha20-Poly1305 seal built from one `chacha20_block` call per block
/// and the 26-bit reference MAC over a heap-assembled transcript.
fn reference_seal(key: &[u8; 32], sequence: u64, plaintext: &[u8]) -> Vec<u8> {
    let mut nonce = [0u8; 12];
    nonce[4..].copy_from_slice(&sequence.to_le_bytes());
    let mut ciphertext = plaintext.to_vec();
    for (i, chunk) in ciphertext.chunks_mut(64).enumerate() {
        let block = chacha20_block(key, 1 + i as u32, &nonce);
        for (byte, ks) in chunk.iter_mut().zip(block) {
            *byte ^= ks;
        }
    }
    let poly_key: [u8; 32] = chacha20_block(key, 0, &nonce)[..32]
        .try_into()
        .expect("32 bytes");
    let mut transcript = ciphertext.clone();
    transcript.resize(ciphertext.len().div_ceil(16) * 16, 0);
    transcript.extend_from_slice(&0u64.to_le_bytes());
    transcript.extend_from_slice(&(ciphertext.len() as u64).to_le_bytes());

    let mut sealed = nonce.to_vec();
    sealed.extend_from_slice(&ciphertext);
    sealed.extend_from_slice(&reference_poly1305(&poly_key, &transcript));
    sealed
}

fn random_array<const N: usize>(rng: &mut DetRng) -> [u8; N] {
    core::array::from_fn(|_| rng.next_u64() as u8)
}

fn random_bytes(rng: &mut DetRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

// --- ChaCha20 --------------------------------------------------------------

/// One 256-byte `apply_keystream` call is exactly one four-block keystream
/// pass and one 512-byte call one eight-block pass; over 10k seeded (key,
/// nonce, counter) states each must equal block-function calls at
/// consecutive counters. Every tenth state starts in `u32::MAX - 7..=u32::MAX`,
/// so one or more blocks wrap to counter 0.
#[test]
fn four_block_keystream_matches_four_block_calls() {
    let mut rng = DetRng::seed_from_u64(0xC4A4);
    for case in 0..10_000u32 {
        let key: [u8; 32] = random_array(&mut rng);
        let nonce: [u8; 12] = random_array(&mut rng);
        let counter = if case % 10 == 0 {
            u32::MAX - case / 10 % 8
        } else {
            rng.next_u64() as u32
        };
        for len in [256, 512] {
            let mut keystream = vec![0u8; len];
            ChaCha20::new(key).apply_keystream(&nonce, counter, &mut keystream);
            for (lane, block) in keystream.chunks_exact(64).enumerate() {
                let expected = chacha20_block(&key, counter.wrapping_add(lane as u32), &nonce);
                assert_eq!(
                    block, expected,
                    "case {case}, counter {counter}, {len} bytes, lane {lane}"
                );
            }
        }
    }
}

// --- AEAD --------------------------------------------------------------------

/// Seal is byte-identical to the reference for every plaintext length from
/// 0 to 700 — one four-block pass (≤ 192 B), one eight-block pass (≤ 448
/// B), two passes — and open inverts it.
#[test]
fn seal_matches_reference_for_every_length_up_to_700() {
    let mut rng = DetRng::seed_from_u64(0xAEAD);
    let mut sealed = Vec::new();
    let mut opened = Vec::new();
    for len in 0..=700 {
        let key: [u8; 32] = random_array(&mut rng);
        let sequence = rng.next_u64();
        let plaintext = random_bytes(&mut rng, len);
        let aead = ChaCha20Poly1305::new(key);
        aead.seal_into(sequence, &plaintext, &mut sealed);
        assert_eq!(
            sealed,
            reference_seal(&key, sequence, &plaintext),
            "len {len}"
        );
        aead.open_into(&sealed, &mut opened)
            .expect("authentic frame");
        assert_eq!(opened, plaintext, "len {len}");
    }
}

/// Every single-bit flip of a sealed frame — nonce, ciphertext or tag — is
/// rejected, and a rejected open leaves the output buffer untouched: no
/// unauthenticated plaintext is ever written.
#[test]
fn every_single_bit_flip_is_rejected() {
    let mut rng = DetRng::seed_from_u64(0xF11B);
    let aead = ChaCha20Poly1305::new(random_array(&mut rng));
    let sentinel = b"untouched".to_vec();
    for len in [0usize, 1, 15, 16, 17, 160, 191, 192, 193, 328] {
        let plaintext = random_bytes(&mut rng, len);
        let sealed = aead.seal(rng.next_u64(), &plaintext);
        for bit in 0..sealed.len() * 8 {
            let mut forged = sealed.clone();
            forged[bit / 8] ^= 1 << (bit % 8);
            let mut out = sentinel.clone();
            assert_eq!(
                aead.open_into(&forged, &mut out),
                Err(OpenError::TagMismatch),
                "len {len}, bit {bit} accepted"
            );
            assert_eq!(out, sentinel, "len {len}, bit {bit} wrote to out");
        }
    }
}

/// The AEAD holds only its key: every gateway session boxes one, so the
/// struct must not grow.
#[test]
fn aead_is_only_its_key() {
    assert_eq!(core::mem::size_of::<ChaCha20Poly1305>(), 32);
}

// --- Poly1305 edge classes -----------------------------------------------------

/// A key whose `r` half is `r_value` (clamped by the MAC) and whose `s`
/// half is `s`.
fn key_with(r_value: u128, s: u128) -> [u8; 32] {
    let mut key = [0u8; 32];
    key[..16].copy_from_slice(&r_value.to_le_bytes());
    key[16..].copy_from_slice(&s.to_le_bytes());
    key
}

/// Seeded keys and messages of every length from 0 to 100 bytes.
#[test]
fn poly1305_matches_reference_on_random_inputs() {
    let mut rng = DetRng::seed_from_u64(0x1305);
    for case in 0..2_000 {
        let key: [u8; 32] = random_array(&mut rng);
        let message = random_bytes(&mut rng, case % 101);
        assert_eq!(
            poly1305(&key, &message),
            reference_poly1305(&key, &message),
            "case {case}"
        );
    }
}

/// All-`0xFF` messages (the largest limbs every block can add) under the
/// maximally clamped `r` (`key[..16]` all `0xFF`), under random `r`, and
/// with `s` all `0xFF`, so `h + s` wraps 2¹²⁸ for all but the smallest `h`.
#[test]
fn poly1305_saturated_inputs_match_reference() {
    let mut rng = DetRng::seed_from_u64(0xFF);
    let ones = [0xFFu8; 16];
    let random_half: [u8; 16] = random_array(&mut rng);
    let keys = [
        [0xFFu8; 32],
        key_with(u128::from_le_bytes(ones), u128::from_le_bytes(random_half)),
        key_with(u128::from_le_bytes(random_half), u128::MAX),
    ];
    for key in keys {
        for len in 0..=96 {
            let message = vec![0xFFu8; len];
            assert_eq!(
                poly1305(&key, &message),
                reference_poly1305(&key, &message),
                "len {len}"
            );
        }
    }
}

/// With `r = 1` the accumulator is the plain sum of the padded blocks, so
/// two full blocks `2¹²⁸ − 1` and `2¹²⁸ − k` leave `h = 2¹³⁰ − 1 − k` before
/// the final reduction: inside `[p, 2¹³⁰)` for `k ≤ 4` (where the reduced
/// value is `4 − k`) and just below `p = 2¹³⁰ − 5` otherwise (where it is
/// `h mod 2¹²⁸ = 2¹²⁸ − 1 − k`). The expected tags are computed by hand and
/// by the reference, for `s = 0` and for an `s` that makes `h + s` wrap.
#[test]
fn poly1305_final_reduction_around_p() {
    for s in [
        0u128,
        u128::MAX - 2,
        0x0123_4567_89ab_cdef_0123_4567_89ab_cdef,
    ] {
        let key = key_with(1, s);
        for k in 1u128..=8 {
            let mut message = u128::MAX.to_le_bytes().to_vec();
            message.extend_from_slice(&(u128::MAX - (k - 1)).to_le_bytes());
            let reduced = if k <= 4 { 4 - k } else { u128::MAX - k };
            let expected = reduced.wrapping_add(s).to_le_bytes();
            assert_eq!(poly1305(&key, &message), expected, "k {k}, s {s:#x}");
            assert_eq!(reference_poly1305(&key, &message), expected, "k {k}");
        }
    }
}
