//! Helpers shared by the decoder test binaries.

use age_core::{Batch, DecodeError};
use age_telemetry::DetRng;

/// A decode result in a form compared exactly: `Ok` batches by indices and
/// the `f64::to_bits` of every value, errors by value.
pub fn exact(result: Result<Batch, DecodeError>) -> Result<(Vec<usize>, Vec<u64>), DecodeError> {
    result.map(|b| {
        let bits = b.values().iter().map(|v| v.to_bits()).collect();
        (b.indices().to_vec(), bits)
    })
}

/// Applies one random mutation: truncate, extend with noise, or flip bits.
pub fn mutate(rng: &mut DetRng, message: &[u8]) -> Vec<u8> {
    let mut out = message.to_vec();
    match rng.gen_range(0u32..3) {
        0 => {
            // Truncate to a strictly shorter prefix (possibly empty).
            let keep = rng.gen_range(0usize..out.len().max(1));
            out.truncate(keep);
        }
        1 => {
            // Extend with random trailing bytes.
            let extra = rng.gen_range(1usize..32);
            out.extend((0..extra).map(|_| rng.gen_range(0u32..256) as u8));
        }
        _ => {
            // Flip one to four random bits in place.
            if !out.is_empty() {
                for _ in 0..rng.gen_range(1u32..=4) {
                    let byte = rng.gen_range(0usize..out.len());
                    let bit = rng.gen_range(0u32..8);
                    out[byte] ^= 1 << bit;
                }
            }
        }
    }
    out
}
