//! HKDF-style key derivation and the per-epoch key ratchet.
//!
//! A deployed sensor outlives one key: sequence space is finite and a
//! captured device must not expose traffic it sealed months earlier. This
//! module builds the key lifecycle from the primitives the workspace
//! already trusts — no hash function is imported; the one-way compression
//! step is the bare 20-round ChaCha permutation with half its output
//! discarded (the HChaCha20 construction), keyed like a PRF.
//!
//! Three layers, mirroring HKDF's shape (RFC 5869):
//!
//! 1. [`hchacha20`] — the PRF core: 32-byte key + 16-byte input → 32-byte
//!    output. One ChaCha permutation, no feed-forward, output words 0..4
//!    and 12..16. Discarding half the state is what makes it one-way.
//! 2. [`extract`] / [`expand`] — extract condenses (salt, input keying
//!    material) into a 32-byte PRK by absorbing domain-tagged 14-byte
//!    blocks through an iterated PRF chain; expand stretches a PRK into up
//!    to 255 × 32 bytes of output keyed by an info string, HKDF-style
//!    (every output block is re-keyed by the PRK, so holding one block
//!    never yields the next).
//! 3. [`EpochRatchet`] — the forward-secure chain: each epoch's AEAD key
//!    is derived from the chain value under one label, and advancing the
//!    ratchet replaces the chain with its image under another label. The
//!    chain step is one-way, so epoch `e`'s key is unrecoverable from any
//!    state held at epoch `e + 1` — compromise discloses the future, never
//!    the past.
//!
//! Per-sensor roots come from [`sensor_root`], which walks the same
//! extract/expand path from a fleet master secret ([`fleet_secret`] for
//! the simulator's integer seeds), so any two distinct `(sensor, epoch)`
//! pairs land on independent keys.
//!
//! # Examples
//!
//! ```
//! use age_crypto::kdf::{fleet_secret, sensor_root, EpochRatchet};
//!
//! let root = sensor_root(&fleet_secret(2022), 7);
//! let mut sensor = EpochRatchet::new(root);
//! let mut receiver = EpochRatchet::new(root);
//! let k0 = sensor.key();
//! sensor.advance();
//! receiver.seek(sensor.epoch());
//! assert_eq!(sensor.key(), receiver.key());
//! assert_ne!(sensor.key(), k0);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use crate::chacha20::{base_state, permuted_words};

/// Domain-separation tags for the absorb phases. Each tagged block is
/// unambiguous: a tag switch marks a field boundary, so `extract("ab", "c")`
/// and `extract("a", "bc")` absorb different block sequences.
const DOMAIN_SALT: u8 = 0x01;
const DOMAIN_IKM: u8 = 0x02;
const DOMAIN_PREV: u8 = 0x03;
const DOMAIN_INFO: u8 = 0x04;
const DOMAIN_BLOCK: u8 = 0x05;

/// Payload bytes carried per absorbed block (16-byte block minus the
/// domain tag and the length byte).
const CHUNK: usize = 14;

/// Longest output `expand` can produce: 255 blocks of 32 bytes, matching
/// HKDF's `255 * HashLen` ceiling.
pub const MAX_OKM_LEN: usize = 255 * 32;

/// The HChaCha20 PRF core: 20 ChaCha rounds over (constants ‖ key ‖
/// input) with **no** feed-forward addition, returning state words 0..4
/// and 12..16 serialized little-endian.
///
/// This is the subkey-derivation function from the XChaCha construction
/// (draft-irtf-cfrg-xchacha §2.2): the permutation is public, but with the
/// middle half of the output discarded, recovering the key from the output
/// requires inverting a truncated permutation — the same hardness the
/// ChaCha20 block function itself rests on.
pub fn hchacha20(key: &[u8; 32], input: &[u8; 16]) -> [u8; 32] {
    let [c0, c1, c2, c3, nonce @ ..] = *input;
    let counter = u32::from_le_bytes([c0, c1, c2, c3]);
    let [w0, w1, w2, w3, _, _, _, _, _, _, _, _, w12, w13, w14, w15] =
        permuted_words(&base_state(key, counter, &nonce));
    let mut out = [0u8; 32];
    for (bytes, word) in out
        .chunks_exact_mut(4)
        .zip([w0, w1, w2, w3, w12, w13, w14, w15])
    {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Absorbs `data` into the chain under `domain`, one tagged 14-byte chunk
/// per PRF call. Empty input still absorbs one zero-length block so field
/// boundaries survive in the transcript.
fn absorb(mut chain: [u8; 32], domain: u8, data: &[u8]) -> [u8; 32] {
    let mut chunks = data.chunks(CHUNK);
    loop {
        let chunk = chunks.next().unwrap_or(&[]);
        let mut block = [0u8; 16];
        let [tag, len, body @ ..] = &mut block;
        *tag = domain;
        *len = chunk.len() as u8;
        body.iter_mut().zip(chunk).for_each(|(b, &c)| *b = c);
        chain = hchacha20(&chain, &block);
        if chunk.len() < CHUNK {
            break;
        }
    }
    chain
}

/// Condenses `(salt, ikm)` into a 32-byte pseudorandom key.
///
/// The HKDF-Extract analogue: the chain starts at zero, absorbs the salt,
/// then the input keying material, each under its own domain tag. The
/// result is suitable as the `prk` input to [`expand`].
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; 32] {
    absorb(absorb([0u8; 32], DOMAIN_SALT, salt), DOMAIN_IKM, ikm)
}

/// Stretches `prk` into `okm.len()` bytes of output keyed by `info`.
///
/// The HKDF-Expand analogue: block `i` is
/// `PRF*(prk, T(i-1) ‖ info ‖ i)` — every block is re-keyed from the PRK,
/// so possession of output blocks alone never yields another block.
/// `okm` longer than [`MAX_OKM_LEN`] is truncated to that ceiling (the
/// excess is left untouched); callers in this workspace only ever ask for
/// 32 bytes.
pub fn expand(prk: &[u8; 32], info: &[u8], okm: &mut [u8]) {
    let mut previous = [0u8; 32];
    // MAX_OKM_LEN is a whole number of 32-byte blocks.
    for (index, chunk) in okm.chunks_mut(32).take(MAX_OKM_LEN / 32).enumerate() {
        let mut chain = absorb(*prk, DOMAIN_PREV, if index == 0 { &[] } else { &previous });
        chain = absorb(chain, DOMAIN_INFO, info);
        previous = hchacha20(&chain, &{
            let mut block = [0u8; 16];
            block[0] = DOMAIN_BLOCK;
            block[1] = (index + 1) as u8;
            block
        });
        chunk.iter_mut().zip(previous).for_each(|(o, p)| *o = p);
    }
}

/// One extract-free `expand` to a 32-byte key — the common case.
pub fn derive_key32(prk: &[u8; 32], info: &[u8]) -> [u8; 32] {
    let mut key = [0u8; 32];
    expand(prk, info, &mut key);
    key
}

/// Expands a simulator-style integer seed into a fleet master secret.
///
/// Real deployments provision the master secret out of band; the
/// simulator's fleets are keyed by a `u64` seed, so this is the bridge.
pub fn fleet_secret(seed: u64) -> [u8; 32] {
    extract(b"age/v1/fleet-secret", &seed.to_le_bytes())
}

/// Derives the per-sensor root key a ratchet starts from.
pub fn sensor_root(fleet_secret: &[u8; 32], sensor_id: u64) -> [u8; 32] {
    let prk = extract(b"age/v1/sensor-root", fleet_secret);
    let mut info = [0u8; 8];
    info.copy_from_slice(&sensor_id.to_le_bytes());
    let mut root = [0u8; 32];
    expand(&prk, &info, &mut root);
    root
}

/// Info label under which an epoch's AEAD key is derived from the chain.
const EPOCH_KEY_INFO: &[u8] = b"age/v1/epoch-key";
/// Info label under which the chain steps to the next epoch.
const CHAIN_STEP_INFO: &[u8] = b"age/v1/chain-step";

/// The forward-secure epoch chain.
///
/// The chain value at epoch `e` yields (a) epoch `e`'s AEAD key, under
/// the `age/v1/epoch-key` label, and (b) the chain value at epoch `e + 1`,
/// under `age/v1/chain-step`. The two labels are distinct, so an epoch key never
/// reveals the chain, and the chain step is one-way, so advancing destroys
/// the ability to recompute any earlier epoch's key.
///
/// The ratchet only moves forward: [`seek`](EpochRatchet::seek) walks
/// the chain toward a later epoch; there is deliberately no way back.
#[derive(Clone)]
pub struct EpochRatchet {
    chain: [u8; 32],
    epoch: u64,
}

impl EpochRatchet {
    /// A ratchet at epoch 0, chained from `root`.
    pub fn new(root: [u8; 32]) -> EpochRatchet {
        EpochRatchet {
            chain: root,
            epoch: 0,
        }
    }

    /// A ratchet wound forward to `epoch` (a fresh chain walked from the
    /// root — the cost is one chain step per epoch skipped).
    pub fn at_epoch(root: [u8; 32], epoch: u64) -> EpochRatchet {
        let mut ratchet = EpochRatchet::new(root);
        ratchet.seek(epoch);
        ratchet
    }

    /// The epoch this ratchet currently sits at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The AEAD key for the current epoch.
    pub fn key(&self) -> [u8; 32] {
        derive_key32(&self.chain, EPOCH_KEY_INFO)
    }

    /// Steps to the next epoch, overwriting the chain with its one-way
    /// image: after this returns, the previous epoch's key can no longer
    /// be derived from this ratchet.
    pub fn advance(&mut self) {
        self.chain = derive_key32(&self.chain, CHAIN_STEP_INFO);
        self.epoch += 1;
    }

    /// Advances until the ratchet sits at `epoch`. A target at or behind
    /// the current epoch is a no-op — the chain cannot rewind.
    pub fn seek(&mut self, epoch: u64) {
        while self.epoch < epoch {
            self.advance();
        }
    }
}

/// The chain value is key material; `Debug` deliberately shows only the
/// epoch so ratchets can appear in logs and assert messages safely.
impl core::fmt::Debug for EpochRatchet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EpochRatchet")
            .field("epoch", &self.epoch)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_separates_field_boundaries() {
        // Same concatenated bytes, different (salt, ikm) split.
        assert_ne!(extract(b"ab", b"c"), extract(b"a", b"bc"));
        assert_ne!(extract(b"", b"abc"), extract(b"abc", b""));
    }

    #[test]
    fn expand_blocks_are_position_dependent() {
        let prk = extract(b"salt", b"ikm");
        let mut okm = [0u8; 96];
        expand(&prk, b"info", &mut okm);
        assert_ne!(okm[0..32], okm[32..64]);
        assert_ne!(okm[32..64], okm[64..96]);
        // A shorter request is a prefix of a longer one.
        let mut short = [0u8; 40];
        expand(&prk, b"info", &mut short);
        assert_eq!(short[..], okm[..40]);
    }

    #[test]
    fn expand_depends_on_info() {
        let prk = extract(b"salt", b"ikm");
        assert_ne!(derive_key32(&prk, b"a"), derive_key32(&prk, b"b"));
        assert_ne!(derive_key32(&prk, b""), derive_key32(&prk, b"a"));
    }

    #[test]
    fn ratchet_is_forward_only_and_deterministic() {
        let root = sensor_root(&fleet_secret(1), 9);
        let mut a = EpochRatchet::new(root);
        let k0 = a.key();
        a.advance();
        a.advance();
        assert_eq!(a.epoch(), 2);
        assert_eq!(a.key(), EpochRatchet::at_epoch(root, 2).key());
        assert_ne!(a.key(), k0);
        // Seeking backward is a no-op, not a rewind.
        a.seek(1);
        assert_eq!(a.epoch(), 2);
    }

    #[test]
    fn epoch_key_differs_from_chain_step() {
        // The two labels must not collide: if the epoch key equalled the
        // next chain value, publishing a key would unzip the ratchet.
        let mut r = EpochRatchet::new([7u8; 32]);
        let key = r.key();
        r.advance();
        assert_ne!(key, r.chain);
        assert_ne!(key, r.key());
    }

    #[test]
    fn debug_hides_the_chain() {
        let r = EpochRatchet::at_epoch([3u8; 32], 5);
        let shown = format!("{r:?}");
        assert!(shown.contains("epoch: 5"));
        assert!(!shown.contains("chain"));
    }
}
