//! ChaCha20 stream cipher, RFC 7539 variant (96-bit nonce, 32-bit counter).
//!
//! Keystream is produced in passes of four or eight blocks by [`keystream`]:
//! one AVX2 pass (the `avx2` submodule, one kernel generic over its number
//! of block pairs) on an `x86_64` CPU that has AVX2, four or eight scalar
//! [`block_words`] calls on any other CPU. Both [`ChaCha20`] and
//! [`crate::ChaCha20Poly1305`] go through it, and the AEAD sizes its first
//! pass from the payload: a 160-byte fleet frame costs one four-block pass
//! (block 0 is the Poly1305 key, blocks 1–3 cover the payload), a 328-byte
//! Epilepsy frame one eight-block pass.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use crate::cipher::{Cipher, CipherKind, OpenError};

#[cfg(target_arch = "x86_64")]
mod avx2;

/// Size of the RFC 7539 nonce in bytes.
const NONCE_LEN: usize = 12;

/// The ChaCha20 stream cipher with RFC 7539 parameters.
///
/// Each sealed message is framed as `nonce (12 bytes) || ciphertext`, so the
/// on-air length is `plaintext length + 12`. The nonce is derived from the
/// caller-supplied message sequence number, which is how a sensor with no
/// entropy source keeps nonces unique.
///
/// # Examples
///
/// ```
/// use age_crypto::{ChaCha20, Cipher};
///
/// let cipher = ChaCha20::new([0u8; 32]);
/// let msg = cipher.seal(1, b"hello");
/// assert_eq!(msg.len(), 5 + 12);
/// assert_eq!(cipher.open(&msg).unwrap(), b"hello");
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    key: [u8; 32],
}

impl ChaCha20 {
    /// Creates a cipher with a 256-bit key.
    pub fn new(key: [u8; 32]) -> Self {
        ChaCha20 { key }
    }

    /// Applies the keystream for (`key`, `nonce`, starting `counter`) to
    /// `data` in place. Encryption and decryption are the same operation.
    ///
    /// The data is processed in eight-block (512-byte) keystream passes
    /// while more than 256 bytes remain, and one four-block pass for the
    /// rest; the counter wraps like the in-state `u32` does.
    pub fn apply_keystream(&self, nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
        xor_keystream(base_state(&self.key, counter, nonce), data);
    }

    fn nonce_for(&self, sequence: u64) -> [u8; NONCE_LEN] {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[4..].copy_from_slice(&sequence.to_le_bytes());
        nonce
    }
}

impl Cipher for ChaCha20 {
    fn kind(&self) -> CipherKind {
        CipherKind::Stream
    }

    fn overhead(&self) -> usize {
        NONCE_LEN
    }

    fn message_len(&self, plaintext_len: usize) -> usize {
        plaintext_len + NONCE_LEN
    }

    fn seal(&self, sequence: u64, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        self.seal_into(sequence, plaintext, &mut out);
        out
    }

    fn open(&self, message: &[u8]) -> Result<Vec<u8>, OpenError> {
        let mut out = Vec::new();
        self.open_into(message, &mut out)?;
        Ok(out)
    }

    fn seal_into(&self, sequence: u64, plaintext: &[u8], out: &mut Vec<u8>) {
        let nonce = self.nonce_for(sequence);
        out.clear();
        out.reserve(plaintext.len() + NONCE_LEN);
        out.extend_from_slice(&nonce);
        out.extend_from_slice(plaintext);
        // RFC 7539 uses counter 1 for the first data block in AEAD; as a raw
        // stream cipher we start at 0.
        let (_, body) = out.split_at_mut(NONCE_LEN);
        self.apply_keystream(&nonce, 0, body);
    }

    fn open_into(&self, message: &[u8], out: &mut Vec<u8>) -> Result<(), OpenError> {
        let Some((nonce, body)) = message.split_first_chunk::<NONCE_LEN>() else {
            return Err(OpenError::Truncated {
                len: message.len(),
                min: NONCE_LEN,
            });
        };
        out.clear();
        out.extend_from_slice(body);
        self.apply_keystream(nonce, 0, out);
        Ok(())
    }

    fn sequence_of(&self, message: &[u8]) -> Option<u64> {
        let bytes: [u8; 8] = message.get(4..NONCE_LEN)?.try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    }
}

/// Computes one 64-byte ChaCha20 keystream block (RFC 7539 §2.3).
pub fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    words_to_bytes(&block_words(&base_state(key, counter, nonce)))
}

/// Assembles the 16-word initial state for (`key`, `counter`, `nonce`).
/// Shared with the `kdf` module, whose HChaCha20-style PRF runs the same
/// permutation over the same state layout.
pub(crate) fn base_state(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u32; 16] {
    let key = key.as_chunks::<4>().0;
    let nonce = nonce.as_chunks::<4>().0;
    core::array::from_fn(|i| match i {
        // "expand 32-byte k"
        0 => 0x6170_7865,
        1 => 0x3320_646e,
        2 => 0x7962_2d32,
        3 => 0x6b20_6574,
        4..=11 => key.get(i - 4).map_or(0, |word| u32::from_le_bytes(*word)),
        12 => counter,
        _ => nonce
            .get(i - 13)
            .map_or(0, |word| u32::from_le_bytes(*word)),
    })
}

/// Two consecutive keystream blocks, words `0..16` and `16..32`: the unit a
/// keystream pass is counted in.
pub(crate) type BlockPair = [u32; 32];

/// One keystream pass of `PAIRS` block pairs: blocks at counters
/// `state[12]` to `state[12] + 2 * PAIRS - 1` (wrapping), block *l* in
/// words `16 * l..16 * l + 16` of the flattened pairs. The crate runs two
/// passes, `keystream::<2>` (four blocks) and `keystream::<4>` (eight).
///
/// Each call checks for AVX2 once (`is_x86_feature_detected!` reads a
/// cached flag): with it, this is one AVX2 pass; without it, and on every
/// other architecture, it is [`scalar_keystream`], the reference the AVX2
/// pass is tested against.
pub(crate) fn keystream<const PAIRS: usize>(state: &[u32; 16]) -> [BlockPair; PAIRS] {
    #[cfg(target_arch = "x86_64")]
    if let Some(blocks) = avx2::keystream(state) {
        return blocks;
    }
    scalar_keystream(state)
}

/// [`keystream`] as `2 * PAIRS` scalar [`block_words`] calls.
fn scalar_keystream<const PAIRS: usize>(state: &[u32; 16]) -> [BlockPair; PAIRS] {
    let mut out = [[0u32; 32]; PAIRS];
    let mut lane = *state;
    for block in out.as_flattened_mut().as_chunks_mut::<16>().0 {
        *block = block_words(&lane);
        lane[12] = lane[12].wrapping_add(1);
    }
    out
}

/// XORs `data` with the keystream starting at block `state[12]`: one
/// eight-block pass per 512 bytes while more than 256 remain, then one
/// four-block pass for the rest.
pub(crate) fn xor_keystream(mut state: [u32; 16], data: &mut [u8]) {
    let mut rest = data;
    while rest.len() > 256 {
        let (chunk, tail) = rest.split_at_mut(rest.len().min(512));
        xor_words(chunk, keystream::<4>(&state).as_flattened());
        state[12] = state[12].wrapping_add(8);
        rest = tail;
    }
    if !rest.is_empty() {
        xor_words(rest, keystream::<2>(&state).as_flattened());
    }
}

/// XORs `data` with `keystream` serialized little-endian; bytes past
/// `4 * keystream.len()` are left as they are.
pub(crate) fn xor_words(data: &mut [u8], keystream: &[u32]) {
    let (words, tail) = data.as_chunks_mut::<4>();
    for (bytes, word) in words.iter_mut().zip(keystream) {
        *bytes = (u32::from_le_bytes(*bytes) ^ word).to_le_bytes();
    }
    if let Some(word) = keystream.get(words.len()) {
        for (byte, ks) in tail.iter_mut().zip(word.to_le_bytes()) {
            *byte ^= ks;
        }
    }
}

/// Serializes the first `B / 4` keystream words little-endian.
pub(crate) fn words_to_bytes<const B: usize>(words: &[u32]) -> [u8; B] {
    let mut out = [0u8; B];
    for (bytes, word) in out.as_chunks_mut::<4>().0.iter_mut().zip(words) {
        *bytes = word.to_le_bytes();
    }
    out
}

/// Runs the 20 ChaCha rounds and the final state addition, returning the
/// keystream block as 16 little-endian-ready words.
fn block_words(state: &[u32; 16]) -> [u32; 16] {
    let mut out = permuted_words(state);
    for (word, input) in out.iter_mut().zip(state) {
        *word = word.wrapping_add(*input);
    }
    out
}

/// The bare 20-round ChaCha permutation *without* the final feed-forward
/// addition. This is the HChaCha20 core (RFC draft-irtf-cfrg-xchacha):
/// omitting the addition makes the function invertible as a permutation but
/// still one-way once half the output is discarded, which is exactly what
/// the `kdf` module's extract/expand construction relies on.
///
/// The state rows are kept as four `[u32; 4]` lanes: a column round is one
/// lane-wise quarter-round, and a diagonal round is the same operation after
/// rotating rows b/c/d left by 1/2/3 lanes. This is a portable single-block
/// path: it compiles to scalar rotates, not SIMD. It serves
/// [`chacha20_block`], the KDF and [`scalar_keystream`], the passes of a
/// CPU without AVX2; every keystream byte [`ChaCha20`] and the AEAD use
/// comes from a [`keystream`] pass.
pub(crate) fn permuted_words(state: &[u32; 16]) -> [u32; 16] {
    let [a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3] = *state;
    let mut a = [a0, a1, a2, a3];
    let mut b = [b0, b1, b2, b3];
    let mut c = [c0, c1, c2, c3];
    let mut d = [d0, d1, d2, d3];

    for _ in 0..10 {
        // Column round: quarter-rounds on the four columns at once.
        lane_quarter_round(&mut a, &mut b, &mut c, &mut d);
        // Diagonal round: rotate rows so the diagonals line up as columns.
        b = [b[1], b[2], b[3], b[0]];
        c = [c[2], c[3], c[0], c[1]];
        d = [d[3], d[0], d[1], d[2]];
        lane_quarter_round(&mut a, &mut b, &mut c, &mut d);
        b = [b[3], b[0], b[1], b[2]];
        c = [c[2], c[3], c[0], c[1]];
        d = [d[1], d[2], d[3], d[0]];
    }

    [
        a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3], c[0], c[1], c[2], c[3], d[0], d[1], d[2],
        d[3],
    ]
}

#[inline]
fn lane_quarter_round(a: &mut [u32; 4], b: &mut [u32; 4], c: &mut [u32; 4], d: &mut [u32; 4]) {
    add_xor_rotate(a, b, d, 16);
    add_xor_rotate(c, d, b, 12);
    add_xor_rotate(a, b, d, 8);
    add_xor_rotate(c, d, b, 7);
}

/// One quarter-round step on four lanes: `x += y; z = (z ^ x) <<< rotation`.
#[inline]
fn add_xor_rotate(x: &mut [u32; 4], y: &[u32; 4], z: &mut [u32; 4], rotation: u32) {
    for ((x, y), z) in x.iter_mut().zip(y).zip(z) {
        *x = x.wrapping_add(*y);
        *z = (*z ^ *x).rotate_left(rotation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both passes, as selected and as the AVX2 instantiation called
    /// directly when this CPU has AVX2, equal the scalar fallback's block
    /// calls on raw states, constants row included, with the counter
    /// wrapping after every block offset 0–7 of a pass.
    #[test]
    fn keystream_passes_match_scalar_blocks() {
        fn check<const PAIRS: usize>(state: &[u32; 16]) {
            let blocks = scalar_keystream::<PAIRS>(state);
            assert_eq!(
                keystream::<PAIRS>(state),
                blocks,
                "{PAIRS} pairs, {state:?}"
            );
            #[cfg(target_arch = "x86_64")]
            if let Some(simd) = avx2::keystream::<PAIRS>(state) {
                assert_eq!(simd, blocks, "AVX2, {PAIRS} pairs, {state:?}");
            }
        }

        let mut seed = 0x9e37_79b9_u32;
        for case in 0..4_000u32 {
            let mut state = [0u32; 16];
            for word in &mut state {
                seed ^= seed << 13;
                seed ^= seed >> 17;
                seed ^= seed << 5;
                *word = seed;
            }
            if case % 4 == 0 {
                // Block `case / 4 % 8` counts `u32::MAX`; the next wraps.
                state[12] = u32::MAX - case / 4 % 8;
            }
            check::<2>(&state);
            check::<4>(&state);
        }
    }

    /// The AEAD's frames do not depend on the backend that ran: for every
    /// payload length 0..=1,500 (one, two and three passes; 160- and
    /// 328-byte fleet and Epilepsy frames and 1,444-byte Std frames among
    /// them) `seal_into` equals a frame built from scalar blocks alone, and
    /// `open_into` returns the payload.
    #[test]
    fn aead_frames_match_the_scalar_backend() {
        use crate::{ChaCha20Poly1305, Poly1305};

        let mut sealed = Vec::new();
        let mut opened = Vec::new();
        for len in 0..=1_500usize {
            let key: [u8; 32] = core::array::from_fn(|i| (i * 31 + len) as u8);
            let sequence = (len as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 + len) as u8).collect();

            let mut nonce = [0u8; NONCE_LEN];
            nonce[4..].copy_from_slice(&sequence.to_le_bytes());
            let mut state = base_state(&key, 0, &nonce);
            let poly_key: [u8; 32] = words_to_bytes(&block_words(&state));
            let mut ciphertext = payload.clone();
            state[12] = 1;
            for chunk in ciphertext.chunks_mut(64) {
                xor_words(chunk, &block_words(&state));
                state[12] += 1;
            }
            let mut mac = Poly1305::new(&poly_key);
            mac.update(&ciphertext);
            mac.update(&[0u8; 16][..(16 - len % 16) % 16]);
            mac.update(&[[0u8; 8], (len as u64).to_le_bytes()].concat());
            let expected = [&nonce[..], &ciphertext, &mac.finalize()].concat();

            let aead = ChaCha20Poly1305::new(key);
            aead.seal_into(sequence, &payload, &mut sealed);
            assert_eq!(sealed, expected, "len {len}");
            aead.open_into(&expected, &mut opened)
                .expect("authentic frame");
            assert_eq!(opened, payload, "len {len}");
        }
    }

    /// RFC 7539 §2.3.2 test vector.
    #[test]
    fn block_function_matches_rfc_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha20_block(&key, 1, &nonce);
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(block, expected);
    }

    /// RFC 7539 §2.4.2 encryption test vector.
    #[test]
    fn encryption_matches_rfc_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        let cipher = ChaCha20::new(key);
        cipher.apply_keystream(&nonce, 1, &mut data);
        let expected_head = [
            0x6e, 0x2e, 0x35, 0x9a, 0x25, 0x68, 0xf9, 0x80, 0x41, 0xba, 0x07, 0x28, 0xdd, 0x0d,
            0x69, 0x81,
        ];
        let expected_tail = [0x87, 0x4d];
        assert_eq!(&data[..16], &expected_head);
        assert_eq!(&data[data.len() - 2..], &expected_tail);
        // Round trips.
        cipher.apply_keystream(&nonce, 1, &mut data);
        assert_eq!(&data, plaintext);
    }

    #[test]
    fn seal_open_roundtrip() {
        let cipher = ChaCha20::new([0xAB; 32]);
        for len in [0usize, 1, 63, 64, 65, 300] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let sealed = cipher.seal(len as u64, &plaintext);
            assert_eq!(sealed.len(), len + 12);
            assert_eq!(cipher.open(&sealed).unwrap(), plaintext);
        }
    }

    #[test]
    fn distinct_sequences_produce_distinct_ciphertexts() {
        let cipher = ChaCha20::new([1; 32]);
        let a = cipher.seal(1, b"same plaintext");
        let b = cipher.seal(2, b"same plaintext");
        assert_ne!(a, b);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn open_rejects_truncated_message() {
        let cipher = ChaCha20::new([1; 32]);
        let err = cipher.open(&[0u8; 5]).unwrap_err();
        assert!(matches!(err, OpenError::Truncated { len: 5, min: 12 }));
    }

    #[test]
    fn message_len_is_linear_in_plaintext() {
        let cipher = ChaCha20::new([9; 32]);
        assert_eq!(cipher.message_len(0), 12);
        assert_eq!(cipher.message_len(100), 112);
        assert_eq!(cipher.overhead(), 12);
        assert_eq!(cipher.kind(), CipherKind::Stream);
    }
}
