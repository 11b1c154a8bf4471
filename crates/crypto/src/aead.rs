//! ChaCha20-Poly1305 AEAD (RFC 7539 §2.8).
//!
//! The full authenticated construction: the one-time Poly1305 key comes
//! from ChaCha20 block 0, the payload is encrypted with counter 1, and the
//! tag covers `aad || pad || ciphertext || pad || len(aad) || len(ct)`.
//! Message framing: `nonce (12) || ciphertext || tag (16)` — 28 bytes of
//! constant overhead, so AGE's fixed-length property passes through intact.
//!
//! The first keystream pass at counter 0 yields both the Poly1305 key
//! (block 0) and the first payload bytes, and it is sized from the payload:
//! up to 192 bytes (a fleet frame), one four-block pass covers blocks 1–3;
//! up to 448 bytes (an Epilepsy AGE frame), one eight-block pass covers
//! blocks 1–7; longer payloads take that pass and continue in eight-block
//! passes from counter 8.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use crate::chacha20::{base_state, keystream, words_to_bytes, xor_keystream, xor_words, BlockPair};
use crate::cipher::{Cipher, CipherKind, OpenError};
use crate::poly1305::{tags_equal, Poly1305};

const NONCE_LEN: usize = 12;
const TAG_LEN: usize = 16;

/// The RFC 7539 AEAD: ChaCha20 encryption with a Poly1305 tag.
///
/// # Examples
///
/// ```
/// use age_crypto::{ChaCha20Poly1305, Cipher};
///
/// let aead = ChaCha20Poly1305::new([9u8; 32]);
/// let sealed = aead.seal(5, b"batch");
/// assert_eq!(sealed.len(), 5 + 12 + 16);
/// assert_eq!(aead.open(&sealed).unwrap(), b"batch");
///
/// // Any corruption is detected.
/// let mut forged = sealed.clone();
/// forged[14] ^= 1;
/// assert!(aead.open(&forged).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; 32],
}

/// Payload bytes the four-block first pass covers (blocks 1–3); a longer
/// payload takes the eight-block pass.
const FOUR_BLOCK_PAYLOAD: usize = 192;

/// The first keystream pass of a message: `PAIRS` block pairs at counter 0,
/// held on the stack. `FirstPass::<2>` is the four-block pass and
/// `FirstPass::<4>` the eight-block one.
struct FirstPass<const PAIRS: usize> {
    state: [u32; 16],
    blocks: [BlockPair; PAIRS],
}

impl<const PAIRS: usize> FirstPass<PAIRS> {
    fn new(key: &[u8; 32], nonce: &[u8; NONCE_LEN]) -> Self {
        let state = base_state(key, 0, nonce);
        FirstPass {
            blocks: keystream(&state),
            state,
        }
    }

    /// The one-time Poly1305 key (RFC 7539 §2.6): the first 32 bytes of
    /// block 0.
    fn poly_key(&self) -> [u8; 32] {
        words_to_bytes(self.blocks.as_flattened())
    }

    /// XORs the payload keystream (counter 1 onward) into `data`: blocks
    /// 1 to `2 * PAIRS - 1` of this pass, then fresh passes from counter
    /// `2 * PAIRS`.
    fn apply(&self, data: &mut [u8]) {
        let payload = self.blocks.as_flattened().get(16..).unwrap_or_default();
        let (head, tail) = data.split_at_mut(data.len().min(4 * payload.len()));
        xor_words(head, payload);
        if !tail.is_empty() {
            let mut next = self.state;
            next[12] = 2 * PAIRS as u32;
            xor_keystream(next, tail);
        }
    }

    /// Encrypts `body` in place and returns its tag.
    fn seal(&self, body: &mut [u8]) -> [u8; TAG_LEN] {
        self.apply(body);
        tag(&self.poly_key(), body)
    }

    /// Checks `received` against `body`'s tag, then decrypts `body` into
    /// `out`; no unauthenticated plaintext reaches `out`.
    fn open(
        &self,
        body: &[u8],
        received: &[u8; TAG_LEN],
        out: &mut Vec<u8>,
    ) -> Result<(), OpenError> {
        if !tags_equal(&tag(&self.poly_key(), body), received) {
            return Err(OpenError::TagMismatch);
        }
        out.clear();
        out.extend_from_slice(body);
        self.apply(out);
        Ok(())
    }
}

/// Tags the authenticated transcript `ciphertext || pad || len(aad) ||
/// len(ct)`: whole ciphertext blocks go straight into [`Poly1305`], then one
/// zero-padded block and one length block (the AAD is empty here — the
/// sensor protocol has no unencrypted header besides the nonce).
fn tag(poly_key: &[u8; 32], ciphertext: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(poly_key);
    mac.update(ciphertext);
    let pad = (16 - ciphertext.len() % 16) % 16;
    mac.update([0u8; 16].get(..pad).unwrap_or_default());
    let mut lengths = [0u8; 16];
    lengths[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
    mac.update(&lengths);
    mac.finalize()
}

impl ChaCha20Poly1305 {
    /// Creates an AEAD with a 256-bit key.
    pub fn new(key: [u8; 32]) -> Self {
        ChaCha20Poly1305 { key }
    }

    fn nonce_for(sequence: u64) -> [u8; NONCE_LEN] {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[4..].copy_from_slice(&sequence.to_le_bytes());
        nonce
    }
}

impl Cipher for ChaCha20Poly1305 {
    fn kind(&self) -> CipherKind {
        CipherKind::Stream
    }

    fn overhead(&self) -> usize {
        NONCE_LEN + TAG_LEN
    }

    fn message_len(&self, plaintext_len: usize) -> usize {
        plaintext_len + NONCE_LEN + TAG_LEN
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
        let nonce = Self::nonce_for(sequence);
        out.clear();
        out.reserve(self.message_len(plaintext.len()));
        out.extend_from_slice(&nonce);
        out.extend_from_slice(plaintext);
        // The nonce was just written, so the body slice always exists.
        let body = out.get_mut(NONCE_LEN..).unwrap_or_default();
        let tag = if body.len() <= FOUR_BLOCK_PAYLOAD {
            FirstPass::<2>::new(&self.key, &nonce).seal(body)
        } else {
            FirstPass::<4>::new(&self.key, &nonce).seal(body)
        };
        out.extend_from_slice(&tag);
    }

    fn open_into(&self, message: &[u8], out: &mut Vec<u8>) -> Result<(), OpenError> {
        let truncated = OpenError::Truncated {
            len: message.len(),
            min: NONCE_LEN + TAG_LEN,
        };
        let Some((nonce, rest)) = message.split_first_chunk::<NONCE_LEN>() else {
            return Err(truncated);
        };
        let Some((body, received)) = rest.split_last_chunk::<TAG_LEN>() else {
            return Err(truncated);
        };
        if body.len() <= FOUR_BLOCK_PAYLOAD {
            FirstPass::<2>::new(&self.key, nonce).open(body, received, out)
        } else {
            FirstPass::<4>::new(&self.key, nonce).open(body, received, out)
        }
    }

    fn sequence_of(&self, message: &[u8]) -> Option<u64> {
        let bytes: [u8; 8] = message.get(4..NONCE_LEN)?.try_into().ok()?;
        Some(u64::from_le_bytes(bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7539 §2.6.2 Poly1305 key-generation test vector.
    #[test]
    fn rfc_keystream_and_poly_key() {
        let key: [u8; 32] = core::array::from_fn(|i| 0x80 + i as u8);
        let nonce = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
        ];
        let poly_key = FirstPass::<2>::new(&key, &nonce).poly_key();
        // RFC 7539 §2.6.2 one-time key vector.
        let expected: [u8; 32] = [
            0x8a, 0xd5, 0xa0, 0x8b, 0x90, 0x5f, 0x81, 0xcc, 0x81, 0x50, 0x40, 0x27, 0x4a, 0xb2,
            0x94, 0x71, 0xa8, 0x33, 0xb6, 0x37, 0xe3, 0xfd, 0x0d, 0xa5, 0x08, 0xdb, 0xb8, 0xe2,
            0xfd, 0xd1, 0xa6, 0x46,
        ];
        assert_eq!(poly_key, expected);
        // The eight-block first pass starts with the same block 0.
        assert_eq!(FirstPass::<4>::new(&key, &nonce).poly_key(), expected);
    }

    #[test]
    fn roundtrip_various_lengths() {
        let aead = ChaCha20Poly1305::new([0x42; 32]);
        for len in [0usize, 1, 15, 16, 17, 64, 300] {
            let plaintext: Vec<u8> = (0..len).map(|i| (i * 11) as u8).collect();
            let sealed = aead.seal(len as u64, &plaintext);
            assert_eq!(sealed.len(), aead.message_len(len));
            assert_eq!(aead.open(&sealed).unwrap(), plaintext);
        }
    }

    #[test]
    fn corruption_anywhere_is_detected() {
        let aead = ChaCha20Poly1305::new([0x42; 32]);
        let sealed = aead.seal(9, b"sensor batch contents");
        for i in 0..sealed.len() {
            let mut forged = sealed.clone();
            forged[i] ^= 0x01;
            assert!(
                aead.open(&forged).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn fixed_length_property_passes_through() {
        let aead = ChaCha20Poly1305::new([0x42; 32]);
        let a = aead.seal(1, &[0u8; 220]);
        let b = aead.seal(2, &[0xFFu8; 220]);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), 220 + 28);
    }

    #[test]
    fn truncated_messages_rejected() {
        let aead = ChaCha20Poly1305::new([1; 32]);
        assert!(matches!(
            aead.open(&[0u8; 27]),
            Err(OpenError::Truncated { .. })
        ));
    }
}
