//! The cipher abstraction used by the sensor pipeline.

use std::fmt;

/// Whether a cipher is a stream or block construction, which determines how
/// AGE rounds its target message size (§4.5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CipherKind {
    /// Ciphertext length equals plaintext length plus a fixed overhead.
    Stream,
    /// Ciphertext is padded up to a multiple of [`CipherKind::Block`]'s size.
    Block,
}

impl fmt::Display for CipherKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CipherKind::Stream => f.write_str("stream"),
            CipherKind::Block => f.write_str("block"),
        }
    }
}

/// Error returned by [`Cipher::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenError {
    /// The message is shorter than the cipher's minimum framing.
    Truncated {
        /// Observed message length.
        len: usize,
        /// Minimum valid length.
        min: usize,
    },
    /// The message body is not aligned to the cipher's block size.
    Misaligned {
        /// Observed body length.
        len: usize,
        /// Required alignment.
        block: usize,
    },
    /// Padding bytes were malformed (block ciphers with PKCS#7).
    BadPadding,
    /// The authentication tag does not match the message (AEAD ciphers):
    /// the frame was forged, corrupted, or sealed under another key.
    TagMismatch,
}

impl fmt::Display for OpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            OpenError::Truncated { len, min } => {
                write!(
                    f,
                    "message of {len} bytes is shorter than the {min}-byte framing"
                )
            }
            OpenError::Misaligned { len, block } => {
                write!(
                    f,
                    "message body of {len} bytes is not a multiple of the {block}-byte block"
                )
            }
            OpenError::BadPadding => f.write_str("invalid block padding"),
            OpenError::TagMismatch => f.write_str("authentication tag mismatch"),
        }
    }
}

impl std::error::Error for OpenError {}

/// A symmetric cipher with deterministic message framing.
///
/// Implementations must guarantee that [`Cipher::seal`] produces exactly
/// [`Cipher::message_len`]`(plaintext.len())` bytes: the attacker in the
/// paper's threat model observes only this length, so the simulator relies
/// on it being exact.
///
/// `Send + Sync` is a supertrait so boxed ciphers (and the sessions that
/// hold them) can migrate across the gateway's shard worker threads;
/// every cipher here is plain key material plus counters, so this costs
/// implementations nothing.
pub trait Cipher: Send + Sync {
    /// Stream or block construction.
    fn kind(&self) -> CipherKind;

    /// Fixed per-message framing overhead in bytes (nonce or IV).
    fn overhead(&self) -> usize;

    /// Exact on-air message length for a plaintext of `plaintext_len` bytes.
    fn message_len(&self, plaintext_len: usize) -> usize;

    /// Encrypts `plaintext` for message number `sequence`, returning the
    /// framed message (`nonce/IV || ciphertext`).
    fn seal(&self, sequence: u64, plaintext: &[u8]) -> Vec<u8>;

    /// Decrypts a framed message.
    ///
    /// # Errors
    ///
    /// Returns [`OpenError`] if the framing is malformed.
    fn open(&self, message: &[u8]) -> Result<Vec<u8>, OpenError>;

    /// Encrypts `plaintext` into `out`, reusing its allocation.
    ///
    /// `out` is cleared first and holds exactly the framed message on
    /// return — byte-identical to [`Cipher::seal`]. The default delegates to
    /// `seal`; every workspace cipher overrides it to seal without touching
    /// the heap once `out` has grown to the message length, which is what
    /// keeps the transport send path allocation-free.
    fn seal_into(&self, sequence: u64, plaintext: &[u8], out: &mut Vec<u8>) {
        *out = self.seal(sequence, plaintext);
    }

    /// Decrypts a framed message into `out`, reusing its allocation.
    ///
    /// On success `out` holds exactly the plaintext, byte-identical to
    /// [`Cipher::open`]; on error its contents are unspecified. The default
    /// delegates to `open`; workspace ciphers override it to open without
    /// allocating.
    ///
    /// # Errors
    ///
    /// Returns [`OpenError`] if the framing is malformed.
    fn open_into(&self, message: &[u8], out: &mut Vec<u8>) -> Result<(), OpenError> {
        *out = self.open(message)?;
        Ok(())
    }

    /// Recovers the sequence number a framed message was sealed with, if
    /// the framing carries one (`None` if the message is too short to hold
    /// the nonce/IV). All workspace ciphers derive their nonce or IV
    /// deterministically from the sequence number, so the receiver's replay
    /// window can read it straight off the wire.
    fn sequence_of(&self, message: &[u8]) -> Option<u64> {
        let _ = message;
        None
    }
}

/// A boxed cipher is a cipher: every method forwards to the box's
/// contents, the allocation-free `*_into` paths and `sequence_of`
/// included (the trait defaults would allocate or read no sequence).
/// This is what lets a receiver generic over its cipher keep taking
/// `Box<dyn Cipher>` where the cipher is chosen at run time.
impl<C: Cipher + ?Sized> Cipher for Box<C> {
    fn kind(&self) -> CipherKind {
        (**self).kind()
    }

    fn overhead(&self) -> usize {
        (**self).overhead()
    }

    fn message_len(&self, plaintext_len: usize) -> usize {
        (**self).message_len(plaintext_len)
    }

    fn seal(&self, sequence: u64, plaintext: &[u8]) -> Vec<u8> {
        (**self).seal(sequence, plaintext)
    }

    fn open(&self, message: &[u8]) -> Result<Vec<u8>, OpenError> {
        (**self).open(message)
    }

    fn seal_into(&self, sequence: u64, plaintext: &[u8], out: &mut Vec<u8>) {
        (**self).seal_into(sequence, plaintext, out);
    }

    fn open_into(&self, message: &[u8], out: &mut Vec<u8>) -> Result<(), OpenError> {
        (**self).open_into(message, out)
    }

    fn sequence_of(&self, message: &[u8]) -> Option<u64> {
        (**self).sequence_of(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_impls_are_informative() {
        assert_eq!(CipherKind::Stream.to_string(), "stream");
        assert_eq!(CipherKind::Block.to_string(), "block");
        let e = OpenError::Truncated { len: 3, min: 12 };
        assert!(e.to_string().contains("3 bytes"));
        let e = OpenError::Misaligned { len: 17, block: 16 };
        assert!(e.to_string().contains("16-byte block"));
        assert!(OpenError::BadPadding.to_string().contains("padding"));
        assert!(OpenError::TagMismatch.to_string().contains("tag mismatch"));
    }
}
