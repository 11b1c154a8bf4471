//! Error types for batch construction, encoding, and decoding.

use std::fmt;

use age_fixed::BitReaderError;

/// Error constructing a [`crate::Batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// Collected indices were not strictly increasing.
    UnsortedIndices,
    /// `values.len()` was not a multiple of `indices.len()`.
    LengthMismatch {
        /// Number of collected indices.
        indices: usize,
        /// Number of values supplied.
        values: usize,
    },
    /// A gathered index had no measurement in the source buffer.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Measurements the source buffer holds.
        len: usize,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BatchError::UnsortedIndices => {
                f.write_str("collected indices must be strictly increasing")
            }
            BatchError::LengthMismatch { indices, values } => write!(
                f,
                "value count {values} is not a multiple of index count {indices}"
            ),
            BatchError::IndexOutOfRange { index, len } => {
                write!(
                    f,
                    "index {index} is past the {len} measurements gathered from"
                )
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// Error returned by [`crate::Encoder::encode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// The batch holds more measurements than the configuration's `max_len`.
    BatchTooLarge {
        /// Measurements in the batch.
        len: usize,
        /// Configured maximum (`T`).
        max: usize,
    },
    /// A collected index is at or beyond `max_len`.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// Configured maximum (`T`).
        max: usize,
    },
    /// The batch's per-measurement feature count differs from the
    /// configuration.
    FeatureMismatch {
        /// Features per measurement in the batch.
        got: usize,
        /// Configured feature count (`d`).
        expected: usize,
    },
    /// The fixed-length target cannot hold even the encoder's own framing
    /// (headers, bitmask, group directory).
    TargetTooSmall {
        /// Configured target in bytes.
        target: usize,
        /// Minimum feasible target for this configuration.
        min: usize,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EncodeError::BatchTooLarge { len, max } => {
                write!(
                    f,
                    "batch of {len} measurements exceeds the maximum of {max}"
                )
            }
            EncodeError::IndexOutOfRange { index, max } => {
                write!(f, "collected index {index} is outside 0..{max}")
            }
            EncodeError::FeatureMismatch { got, expected } => {
                write!(
                    f,
                    "batch has {got} features per measurement, expected {expected}"
                )
            }
            EncodeError::TargetTooSmall { target, min } => {
                write!(
                    f,
                    "target of {target} bytes is below the {min}-byte framing minimum"
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Error returned by [`crate::Encoder::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The message's byte length does not match the encoder's framing — a
    /// truncated or oversized message. Every encoder checks this up front
    /// so length tampering is reported structurally, not as a bit-level
    /// read failure deep inside the payload.
    Length {
        /// Observed message length in bytes.
        len: usize,
        /// Length the encoder's framing requires.
        expected: usize,
    },
    /// The message ended before all declared fields were read.
    Truncated(BitReaderError),
    /// A structural invariant failed (e.g. group counts disagree with the
    /// measurement count, or an invalid width field).
    Corrupt(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Length { len, expected } => write!(
                f,
                "message of {len} bytes does not match the {expected}-byte framing"
            ),
            DecodeError::Truncated(e) => write!(f, "message truncated: {e}"),
            DecodeError::Corrupt(what) => write!(f, "message corrupt: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Truncated(e) => Some(e),
            DecodeError::Length { .. } | DecodeError::Corrupt(_) => None,
        }
    }
}

impl From<BitReaderError> for DecodeError {
    fn from(e: BitReaderError) -> Self {
        DecodeError::Truncated(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_specific() {
        let e = BatchError::LengthMismatch {
            indices: 3,
            values: 10,
        };
        assert!(e.to_string().contains("10"));
        let e = EncodeError::TargetTooSmall { target: 4, min: 11 };
        assert!(e.to_string().contains("11-byte"));
        let e = DecodeError::Corrupt("group counts exceed k");
        assert!(e.to_string().starts_with("message corrupt"));
        let e = DecodeError::Length {
            len: 7,
            expected: 220,
        };
        assert!(e.to_string().contains("220-byte"));
        assert!(std::error::Error::source(&e).is_none());
    }
}
