//! Encryption substrate for the AGE sensor pipeline.
//!
//! The paper's simulator encrypts batched messages with a ChaCha20 stream
//! cipher (IETF RFC 7539) and the microcontroller deployment uses AES-128
//! (FIPS-197). Both are implemented here from scratch, together with a
//! [`Cipher`] abstraction that reports the exact on-air message length for a
//! given plaintext length — the quantity the side-channel attacker observes.
//!
//! AGE only needs two properties from this layer (§4.5 of the paper):
//!
//! 1. The ciphertext length must be a deterministic function of the
//!    plaintext length (stream: `len + nonce`; block: padded to the block
//!    size plus an IV), so that fixed-length plaintexts yield fixed-length
//!    messages.
//! 2. The framing overhead must be known so AGE can subtract it from the
//!    space available for measurement data.
//!
//! # Examples
//!
//! ```
//! use age_crypto::{ChaCha20, Cipher};
//!
//! let cipher = ChaCha20::new([7u8; 32]);
//! let sealed = cipher.seal(42, b"batch bytes");
//! assert_eq!(sealed.len(), cipher.message_len(11));
//! let opened = cipher.open(&sealed).expect("framing is valid");
//! assert_eq!(opened, b"batch bytes");
//! ```

#![deny(unsafe_code)]

mod aead;
mod aes;
mod chacha20;
mod cipher;
pub mod kdf;
mod poly1305;

pub use aead::ChaCha20Poly1305;
pub use aes::{Aes128, AesCbc, AesCtr};
pub use chacha20::{chacha20_block, ChaCha20};
pub use cipher::{Cipher, CipherKind, OpenError};
pub use kdf::EpochRatchet;
pub use poly1305::{poly1305, tags_equal, Poly1305};
