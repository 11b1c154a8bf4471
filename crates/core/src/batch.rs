//! Batches of collected measurements and their static configuration.

use age_fixed::Format;

use crate::error::{BatchError, EncodeError};
use crate::sample::Sample;

/// Static description of a sensor's batching setup (the paper's §4.1
/// notation): at most `T` measurements per batch, `d` features each, stored
/// in the fixed-point [`Format`] `(w0, n0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    max_len: usize,
    features: usize,
    format: Format,
}

/// Error constructing a [`BatchConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigError(&'static str);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid batch configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl BatchConfig {
    /// Creates a configuration for batches of up to `max_len` measurements
    /// (`T`), each with `features` values (`d`) in `format` (`w0`/`n0`).
    ///
    /// # Errors
    ///
    /// Returns an error if `max_len` is zero or above `u16::MAX` (the header
    /// stores `k` in 16 bits) or `features` is zero.
    pub fn new(max_len: usize, features: usize, format: Format) -> Result<Self, ConfigError> {
        if max_len == 0 {
            return Err(ConfigError("max_len must be positive"));
        }
        if max_len > usize::from(u16::MAX) {
            return Err(ConfigError("max_len must fit in 16 bits"));
        }
        if features == 0 {
            return Err(ConfigError("features must be positive"));
        }
        Ok(BatchConfig {
            max_len,
            features,
            format,
        })
    }

    /// Maximum measurements per batch (the paper's `T`).
    pub fn max_len(&self) -> usize {
        self.max_len
    }

    /// Features per measurement (the paper's `d`).
    pub fn features(&self) -> usize {
        self.features
    }

    /// The original fixed-point format (`w0` bits, `n0` non-fractional).
    pub fn format(&self) -> Format {
        self.format
    }

    /// Bits needed to store a measurement index (`ceil(log2(T))`, min 1).
    pub fn index_bits(&self) -> u8 {
        bits_for(self.max_len.saturating_sub(1) as u64)
    }

    /// Bits needed to store a per-group measurement count (`0..=T`).
    pub fn count_bits(&self) -> u8 {
        bits_for(self.max_len as u64)
    }

    /// Bytes of the collected-index bitmask (`ceil(T / 8)`).
    pub fn bitmask_bytes(&self) -> usize {
        self.max_len.div_ceil(8)
    }

    /// Size in bytes of a standard (unencoded) message for `k` collected
    /// measurements: a 16-bit count plus, per measurement, an index and `d`
    /// full-width values.
    pub fn standard_message_bytes(&self, k: usize) -> usize {
        let bits = 16
            + k * (usize::from(self.index_bits())
                + self.features * usize::from(self.format.width()));
        bits.div_ceil(8)
    }
}

/// Bits required to represent `value` (min 1).
fn bits_for(value: u64) -> u8 {
    let bits = 64 - value.leading_zeros();
    bits.max(1) as u8
}

/// A batch of collected measurements: strictly increasing original indices
/// `α_t` and a row-major value buffer of `k · d` entries, as `f64` values
/// or, on the MCU path, raw fixed-point integers ([`crate::mcu::RawBatch`]).
///
/// # Examples
///
/// ```
/// use age_core::Batch;
///
/// // Two 3-feature measurements collected at steps 4 and 9.
/// let batch = Batch::new(vec![4, 9], vec![0.1, 0.2, 0.3, 1.1, 1.2, 1.3])?;
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.measurement(1), &[1.1, 1.2, 1.3]);
/// # Ok::<(), age_core::BatchError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch<S = f64> {
    indices: Vec<usize>,
    values: Vec<S>,
}

impl<S: Sample> Batch<S> {
    /// Creates a batch from collected indices and a row-major value buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::UnsortedIndices`] if `indices` is not strictly
    /// increasing, or [`BatchError::LengthMismatch`] if `values.len()` is not
    /// a positive multiple of `indices.len()` (unless both are empty).
    pub fn new(indices: Vec<usize>, values: Vec<S>) -> Result<Self, BatchError> {
        if indices.windows(2).any(|w| w[0] >= w[1]) {
            return Err(BatchError::UnsortedIndices);
        }
        if indices.is_empty() {
            if values.is_empty() {
                return Ok(Batch { indices, values });
            }
            return Err(BatchError::LengthMismatch {
                indices: 0,
                values: values.len(),
            });
        }
        if !values.len().is_multiple_of(indices.len()) || values.is_empty() {
            return Err(BatchError::LengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        Ok(Batch { indices, values })
    }

    /// An empty batch (the policy collected nothing).
    pub fn empty() -> Self {
        Batch {
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of collected measurements (the paper's `k`).
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// `true` if no measurements were collected.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Features per measurement, or 0 for an empty batch.
    pub fn features(&self) -> usize {
        if self.indices.is_empty() {
            0
        } else {
            self.values.len() / self.indices.len()
        }
    }

    /// The collected original indices `α_0 < α_1 < …`.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The row-major value buffer (`k · d` entries).
    pub fn values(&self) -> &[S] {
        &self.values
    }

    /// The `t`-th collected measurement as a feature slice.
    ///
    /// # Panics
    ///
    /// Panics if `t >= self.len()`.
    pub fn measurement(&self, t: usize) -> &[S] {
        let d = self.features();
        &self.values[t * d..(t + 1) * d]
    }

    /// Checks the batch against `cfg`: at most `T` measurements, every
    /// index below `T`, and `d` features per measurement.
    pub(crate) fn validate(&self, cfg: &BatchConfig) -> Result<(), EncodeError> {
        if self.len() > cfg.max_len() {
            return Err(EncodeError::BatchTooLarge {
                len: self.len(),
                max: cfg.max_len(),
            });
        }
        if let Some(&last) = self.indices.last() {
            if last >= cfg.max_len() {
                return Err(EncodeError::IndexOutOfRange {
                    index: last,
                    max: cfg.max_len(),
                });
            }
        }
        if !self.is_empty() && self.features() != cfg.features() {
            return Err(EncodeError::FeatureMismatch {
                got: self.features(),
                expected: cfg.features(),
            });
        }
        Ok(())
    }

    /// [`Batch::validate`] for a fixed-length encoder, which also needs
    /// its `target` message size to hold at least its `min` framing bytes.
    pub(crate) fn validate_fixed(
        &self,
        cfg: &BatchConfig,
        target: usize,
        min: usize,
    ) -> Result<(), EncodeError> {
        self.validate(cfg)?;
        if target < min {
            return Err(EncodeError::TargetTooSmall { target, min });
        }
        Ok(())
    }

    /// Mutable access to the raw index/value buffers, for in-crate decoders
    /// that rebuild a batch in place without allocating. Callers must uphold
    /// the [`Batch::new`] invariants: strictly increasing indices and a value
    /// count that is a multiple of the index count.
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<usize>, &mut Vec<S>) {
        (&mut self.indices, &mut self.values)
    }

    /// Removes all measurements, keeping the buffers' allocations.
    pub(crate) fn clear(&mut self) {
        self.indices.clear();
        self.values.clear();
    }

    /// Copies `src` into `self`, reusing this batch's buffer allocations
    /// (the derived `Clone::clone_from` would clone-and-replace instead).
    pub(crate) fn copy_from(&mut self, src: &Batch<S>) {
        self.indices.clone_from(&src.indices);
        self.values.clone_from(&src.values);
    }

    /// Clears `out` and fills it with only the measurements at `keep`
    /// positions (positions into this batch, not original indices),
    /// preserving order and reusing `out`'s buffers.
    pub(crate) fn retain_positions_into(&self, keep: &[bool], out: &mut Batch<S>) {
        debug_assert_eq!(keep.len(), self.len());
        out.clear();
        for (t, &flag) in keep.iter().enumerate() {
            if flag {
                out.indices.push(self.indices[t]);
                out.values.extend_from_slice(self.measurement(t));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt16() -> Format {
        Format::new(16, 13).unwrap()
    }

    #[test]
    fn config_validates_bounds() {
        assert!(BatchConfig::new(0, 1, fmt16()).is_err());
        assert!(BatchConfig::new(70000, 1, fmt16()).is_err());
        assert!(BatchConfig::new(50, 0, fmt16()).is_err());
        assert!(BatchConfig::new(50, 6, fmt16()).is_ok());
    }

    #[test]
    fn index_and_count_bits() {
        let cfg = BatchConfig::new(50, 6, fmt16()).unwrap();
        assert_eq!(cfg.index_bits(), 6); // indices 0..=49
        assert_eq!(cfg.count_bits(), 6); // counts 0..=50
        let cfg = BatchConfig::new(1250, 1, fmt16()).unwrap();
        assert_eq!(cfg.index_bits(), 11);
        assert_eq!(cfg.count_bits(), 11);
        let cfg = BatchConfig::new(1, 1, fmt16()).unwrap();
        assert_eq!(cfg.index_bits(), 1);
        assert_eq!(cfg.bitmask_bytes(), 1);
    }

    #[test]
    fn standard_message_size_matches_paper_scale() {
        // Activity: T=50, d=6, w0=16. A full batch is ~600 data bytes.
        let cfg = BatchConfig::new(50, 6, fmt16()).unwrap();
        let full = cfg.standard_message_bytes(50);
        assert!(full > 600 && full < 650, "full batch is {full} bytes");
        assert!(cfg.standard_message_bytes(10) < cfg.standard_message_bytes(20));
    }

    #[test]
    fn batch_construction_validates() {
        assert!(Batch::new(vec![3, 3], vec![0.0, 0.0]).is_err());
        assert!(Batch::new(vec![5, 2], vec![0.0, 0.0]).is_err());
        assert!(Batch::new(vec![1, 2], vec![0.0, 0.0, 0.0]).is_err());
        assert!(Batch::new(vec![], vec![1.0]).is_err());
        assert!(Batch::<f64>::new(vec![], vec![]).is_ok());
        let b = Batch::new(vec![1, 2], vec![0.0; 6]).unwrap();
        assert_eq!(b.features(), 3);
    }

    #[test]
    fn retain_positions_filters_rows() {
        let b = Batch::new(vec![0, 3, 7], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let mut kept = Batch::new(vec![9], vec![0.0, 0.0]).unwrap();
        b.retain_positions_into(&[true, false, true], &mut kept);
        assert_eq!(kept.indices(), &[0, 7]);
        assert_eq!(kept.values(), &[1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn empty_batch_accessors() {
        let b: Batch = Batch::empty();
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
        assert_eq!(b.features(), 0);
    }
}
