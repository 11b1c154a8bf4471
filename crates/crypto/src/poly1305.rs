//! Poly1305 one-time authenticator (RFC 7539 §2.5).
//!
//! Implemented with three 44/44/42-bit limbs and `u128` products (the
//! poly1305-donna-64 form): a block costs nine 64×64→128 multiplies
//! instead of the 26-bit form's twenty-five 32×32→64. The final reduction
//! selects `h` or `h − p` with a mask, not a branch, so its timing does not
//! depend on the secret accumulator. The incremental [`Poly1305`] state
//! lets [`crate::ChaCha20Poly1305`] authenticate the RFC transcript
//! (`ciphertext || pad || lengths`) piecewise without assembling it in a
//! heap buffer; a forged or corrupted message is rejected before decoding.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;

/// Incremental Poly1305 state: feed the message with [`Poly1305::update`]
/// in arbitrary pieces, then consume with [`Poly1305::finalize`].
///
/// Equivalent to the one-shot [`poly1305`] over the concatenated input.
///
/// # Examples
///
/// ```
/// use age_crypto::{poly1305, Poly1305};
///
/// let key = [7u8; 32];
/// let mut mac = Poly1305::new(&key);
/// mac.update(b"split ");
/// mac.update(b"message");
/// assert_eq!(mac.finalize(), poly1305(&key, b"split message"));
/// ```
#[derive(Debug, Clone)]
pub struct Poly1305 {
    /// Clamped `r` in 44/44/42-bit limbs.
    r: [u64; 3],
    /// `20·r1`, `20·r2`: the folding terms for limb products at or above
    /// 2¹³⁰ (2¹³⁰ ≡ 5, and the 44/44/42 split adds a factor 4).
    s: [u64; 2],
    h: [u64; 3],
    pad: u128,
    buffer: [u8; 16],
    buffered: usize,
}

/// Splits a 128-bit value into 44/44/42-bit limbs.
fn limbs(value: u128) -> [u64; 3] {
    [
        value as u64 & MASK44,
        (value >> 44) as u64 & MASK44,
        (value >> 88) as u64,
    ]
}

impl Poly1305 {
    /// Starts a MAC computation under a 32-byte one-time key.
    pub fn new(key: &[u8; 32]) -> Self {
        let half = |at: usize| {
            u128::from_le_bytes(core::array::from_fn(|i| {
                key.get(at + i).copied().unwrap_or_default()
            }))
        };
        // r is clamped per the RFC.
        let r = limbs(half(0) & 0x0fff_fffc_0fff_fffc_0fff_fffc_0fff_ffff);
        Poly1305 {
            r,
            s: [r[1] * 20, r[2] * 20],
            h: [0; 3],
            pad: half(16),
            buffer: [0u8; 16],
            buffered: 0,
        }
    }

    /// Absorbs one 16-byte block; `hibit` is 1 for full message blocks and
    /// 0 for the final padded partial block (whose padding bit sits inside
    /// the 16 bytes).
    #[inline(always)]
    fn process(&mut self, block: &[u8; 16], hibit: u64) {
        let [r0, r1, r2] = self.r.map(u128::from);
        let [s1, s2] = self.s.map(u128::from);
        let [t0, t1, t2] = limbs(u128::from_le_bytes(*block));

        // Add the block (with its high bit at 2^128) to the accumulator.
        let h0 = u128::from(self.h[0] + t0);
        let h1 = u128::from(self.h[1] + t1);
        let h2 = u128::from(self.h[2] + (t2 | (hibit << 40)));

        // h *= r (mod 2^130 - 5), schoolbook with 20·r folding.
        let d0 = h0 * r0 + h1 * s2 + h2 * s1;
        let d1 = h0 * r1 + h1 * r0 + h2 * s2;
        let d2 = h0 * r2 + h1 * r1 + h2 * r0;

        // Partial carry propagation: limbs end up at most a few bits over.
        let d1 = d1 + (d0 >> 44);
        let d2 = d2 + (d1 >> 44);
        let mut h0 = (d0 as u64 & MASK44) + (d2 >> 42) as u64 * 5;
        let h1 = (d1 as u64 & MASK44) + (h0 >> 44);
        h0 &= MASK44;
        self.h = [h0, h1, d2 as u64 & MASK42];
    }

    /// Feeds message bytes into the MAC.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let (head, rest) = data.split_at((16 - self.buffered).min(data.len()));
            for (slot, byte) in self.buffer.iter_mut().skip(self.buffered).zip(head) {
                *slot = *byte;
            }
            self.buffered += head.len();
            data = rest;
            if self.buffered < 16 {
                return;
            }
            let block = self.buffer;
            self.process(&block, 1);
            self.buffered = 0;
        }
        let (blocks, rest) = data.as_chunks::<16>();
        for block in blocks {
            self.process(block, 1);
        }
        for (slot, byte) in self.buffer.iter_mut().zip(rest) {
            *slot = *byte;
        }
        self.buffered = rest.len();
    }

    /// Completes the computation and returns the 16-byte tag.
    pub fn finalize(mut self) -> [u8; 16] {
        if self.buffered > 0 {
            // The buffered bytes, then the padding bit inside the 16-byte
            // window, then zeros over whatever the buffer held before.
            let mut block = self.buffer;
            for (i, byte) in block.iter_mut().enumerate().skip(self.buffered) {
                *byte = u8::from(i == self.buffered);
            }
            self.process(&block, 0);
        }

        // Fully carry h; it is then below 2^130 but may still be >= p.
        let [mut h0, mut h1, mut h2] = self.h;
        h1 += h0 >> 44;
        h0 &= MASK44;
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;
        h2 += h1 >> 44;
        h1 &= MASK44;

        // g = h + 5 - 2^130 = h - p; keep g iff it did not borrow, chosen
        // with a mask so no branch depends on the secret accumulator.
        let mut g0 = h0 + 5;
        let mut g1 = h1 + (g0 >> 44);
        g0 &= MASK44;
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        g1 &= MASK44;
        let keep_g = (g2 >> 63).wrapping_sub(1);
        let h0 = (h0 & !keep_g) | (g0 & keep_g);
        let h1 = (h1 & !keep_g) | (g1 & keep_g);
        let h2 = (h2 & !keep_g) | (g2 & keep_g);

        // Serialize h mod 2^128 and add s = key[16..32] (mod 2^128).
        let h = u128::from(h0) | (u128::from(h1) << 44) | (u128::from(h2) << 88);
        h.wrapping_add(self.pad).to_le_bytes()
    }
}

/// Computes the Poly1305 tag of `message` under a 32-byte one-time key.
///
/// # Examples
///
/// ```
/// use age_crypto::poly1305;
///
/// let tag = poly1305(&[0u8; 32], b"anything");
/// assert_eq!(tag, [0u8; 16]); // zero key gives a zero tag
/// ```
pub fn poly1305(key: &[u8; 32], message: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(key);
    mac.update(message);
    mac.finalize()
}

/// Constant-time tag comparison (bitwise OR of differences).
pub fn tags_equal(a: &[u8; 16], b: &[u8; 16]) -> bool {
    a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 7539 §2.5.2 test vector.
    #[test]
    fn rfc_vector() {
        let key: [u8; 32] = [
            0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
            0x06, 0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf,
            0x41, 0x49, 0xf5, 0x1b,
        ];
        let message = b"Cryptographic Forum Research Group";
        let expected = [
            0xa8, 0x06, 0x1d, 0xc1, 0x30, 0x51, 0x36, 0xc6, 0xc2, 0x2b, 0x8b, 0xaf, 0x0c, 0x01,
            0x27, 0xa9,
        ];
        assert_eq!(poly1305(&key, message), expected);
    }

    #[test]
    fn zero_key_zero_tag() {
        assert_eq!(poly1305(&[0u8; 32], b"any message at all"), [0u8; 16]);
    }

    #[test]
    fn tag_depends_on_every_byte() {
        let key = [7u8; 32];
        let base = poly1305(&key, b"hello world sensor batch");
        let mut altered = *b"hello world sensor batch";
        altered[3] ^= 1;
        assert_ne!(poly1305(&key, &altered), base);
    }

    #[test]
    fn empty_and_partial_blocks() {
        let key = [9u8; 32];
        // Must not panic and must differ across lengths.
        let tags: Vec<[u8; 16]> = (0..40).map(|n| poly1305(&key, &vec![0xAA; n])).collect();
        for w in tags.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn incremental_updates_match_one_shot_for_every_split() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 37 + 11) as u8);
        let message: Vec<u8> = (0..75).map(|i| (i * 29 + 3) as u8).collect();
        let expected = poly1305(&key, &message);
        // Every two-piece split, including empty pieces.
        for cut in 0..=message.len() {
            let mut mac = Poly1305::new(&key);
            mac.update(&message[..cut]);
            mac.update(&message[cut..]);
            assert_eq!(mac.finalize(), expected, "split at {cut}");
        }
        // Byte-at-a-time.
        let mut mac = Poly1305::new(&key);
        for &byte in &message {
            mac.update(&[byte]);
        }
        assert_eq!(mac.finalize(), expected);
        // Three uneven pieces crossing block boundaries.
        let mut mac = Poly1305::new(&key);
        mac.update(&message[..7]);
        mac.update(&message[7..40]);
        mac.update(&message[40..]);
        assert_eq!(mac.finalize(), expected);
    }

    #[test]
    fn constant_time_compare() {
        let a = [1u8; 16];
        let mut b = a;
        assert!(tags_equal(&a, &b));
        b[15] ^= 0x80;
        assert!(!tags_equal(&a, &b));
    }
}
