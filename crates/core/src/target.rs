//! Target message sizes (paper §4.1 and §4.5).
//!
//! The target size `M_B` for an energy budget `B` is the space needed to
//! encode `⌊ρ_B · T · d⌋` values at the original width `w0`, where `ρ_B` is
//! the average collection rate that meets the budget. AGE then *reduces*
//! this target to pay for its own compute overhead out of communication
//! savings: about 30 bytes, plus 20 more for every 500-byte multiple.

use age_crypto::CipherKind;

use crate::batch::BatchConfig;

/// The paper's target message size `M_B`: bytes to encode `⌊rate · T · d⌋`
/// values at the original width.
///
/// # Examples
///
/// ```
/// use age_core::{target, BatchConfig};
/// use age_fixed::Format;
///
/// let cfg = BatchConfig::new(50, 6, Format::new(16, 13)?)?;
/// // 70% of 300 values at 16 bits = 420 bytes.
/// assert_eq!(target::target_bytes(&cfg, 0.7), 420);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn target_bytes(cfg: &BatchConfig, rate: f64) -> usize {
    let rate = rate.clamp(0.0, 1.0);
    let values = (rate * cfg.max_len() as f64 * cfg.features() as f64).floor() as usize;
    (values * usize::from(cfg.format().width())).div_ceil(8)
}

/// Floor below which the reduction never shrinks a target (§7 of the paper
/// observes AGE is the superior defense only for batches of ≳100 bytes).
pub const MIN_REDUCED_TARGET: usize = 16;

/// AGE's reduced target (§4.5): `M_B − 30 − 20·⌊M_B / 500⌋`, with the
/// reduction capped at `M_B / 8` (the paper's §7 notes the flat 30-byte cut
/// is only sensible for batches of ≳100 bytes; smaller batches also carry
/// proportionally less encode-compute to repay, so an eighth of the target
/// still over-covers the 4×-charged compute in the energy model) and the
/// result clamped to [`MIN_REDUCED_TARGET`].
pub fn reduced_target_bytes(m_b: usize) -> usize {
    let reduction = (30 + 20 * (m_b / 500)).min((m_b / 8).max(4));
    m_b.saturating_sub(reduction)
        .max(MIN_REDUCED_TARGET.min(m_b))
}

/// The paper's reduction schedule taken literally, with no small-batch cap:
/// `M_B − 30 − 20·⌊M_B / 500⌋` (floored at [`MIN_REDUCED_TARGET`]). Used by
/// the `design` ablation experiment to quantify what the cap buys.
pub fn reduced_target_bytes_uncapped(m_b: usize) -> usize {
    let reduction = 30 + 20 * (m_b / 500);
    m_b.saturating_sub(reduction)
        .max(MIN_REDUCED_TARGET.min(m_b))
}

/// Plaintext budget for a cipher so the *on-air* message stays within
/// `message_budget` bytes.
///
/// - Stream ciphers: `message_budget − overhead` (the nonce).
/// - Block ciphers: the largest plaintext whose PKCS#7-padded body plus IV
///   fits; AGE rounds to the block structure rather than wasting padding.
pub fn plaintext_budget(
    message_budget: usize,
    kind: CipherKind,
    overhead: usize,
    block: usize,
) -> usize {
    match kind {
        CipherKind::Stream => message_budget.saturating_sub(overhead),
        CipherKind::Block => {
            let body = message_budget.saturating_sub(overhead);
            let blocks = body / block.max(1);
            // PKCS#7 always adds at least one byte, so a body of `blocks`
            // blocks carries at most `blocks·block − 1` plaintext bytes.
            (blocks * block).saturating_sub(1)
        }
    }
}

/// AGE's plaintext target at a budget rate: the reduced `M_B`
/// ([`reduced_target_bytes`] of [`target_bytes`]) fitted to the cipher's
/// framing with 16-byte blocks ([`plaintext_budget`]), and never below the
/// smallest target the encoder accepts
/// ([`AgeEncoder::min_target_bytes`](crate::AgeEncoder::min_target_bytes)).
///
/// # Examples
///
/// ```
/// use age_core::{target, BatchConfig};
/// use age_crypto::CipherKind;
/// use age_fixed::Format;
///
/// let cfg = BatchConfig::new(50, 6, Format::new(16, 13)?)?;
/// // M_B = 420 bytes, reduced by 30; a 12-byte nonce leaves 378.
/// assert_eq!(target::age_plaintext_bytes(&cfg, 0.7, CipherKind::Stream, 12), 378);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn age_plaintext_bytes(
    cfg: &BatchConfig,
    rate: f64,
    kind: CipherKind,
    overhead: usize,
) -> usize {
    let on_air = reduced_target_bytes(target_bytes(cfg, rate));
    plaintext_budget(on_air, kind, overhead, 16).max(crate::AgeEncoder::min_target_bytes(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use age_fixed::Format;

    fn cfg(t: usize, d: usize, w: u8) -> BatchConfig {
        BatchConfig::new(t, d, Format::new(w, 0).unwrap()).unwrap()
    }

    #[test]
    fn target_scales_with_rate() {
        let c = cfg(100, 2, 16);
        assert_eq!(target_bytes(&c, 1.0), 400);
        assert_eq!(target_bytes(&c, 0.5), 200);
        assert_eq!(target_bytes(&c, 0.0), 0);
        // Rates are clamped.
        assert_eq!(target_bytes(&c, 2.0), 400);
    }

    #[test]
    fn target_floors_value_count() {
        let c = cfg(23, 10, 16);
        // 0.3 * 230 = 69 values at 16 bits = 138 bytes.
        assert_eq!(target_bytes(&c, 0.3), 138);
    }

    #[test]
    fn odd_widths_round_up_to_bytes() {
        let c = cfg(10, 1, 9);
        // 10 values * 9 bits = 90 bits = 12 bytes.
        assert_eq!(target_bytes(&c, 1.0), 12);
    }

    #[test]
    fn reduction_matches_paper_schedule() {
        assert_eq!(reduced_target_bytes(400), 400 - 30);
        assert_eq!(reduced_target_bytes(600), 600 - 50);
        assert_eq!(reduced_target_bytes(1200), 1200 - 70);
        // Small targets lose at most an eighth (min 4 bytes), never
        // everything.
        assert_eq!(reduced_target_bytes(220), 220 - 27);
        assert_eq!(reduced_target_bytes(72), 72 - 9);
        assert_eq!(reduced_target_bytes(40), 35);
        // Below the floor the target passes through unchanged.
        assert_eq!(reduced_target_bytes(10), 10);
    }

    #[test]
    fn plaintext_budget_stream_subtracts_nonce() {
        assert_eq!(plaintext_budget(200, CipherKind::Stream, 12, 0), 188);
        assert_eq!(plaintext_budget(5, CipherKind::Stream, 12, 0), 0);
    }

    #[test]
    fn plaintext_budget_block_respects_padding() {
        // 200 budget, 16 IV => 184 body => 11 blocks => 176 − 1 plaintext.
        assert_eq!(plaintext_budget(200, CipherKind::Block, 16, 16), 175);
        // Round trip: message_len(175) = 16 + (175/16+1)*16 = 192 <= 200,
        // while one more byte would overflow (message_len(176) = 208).
        let msg_len = |p: usize| 16 + (p / 16 + 1) * 16;
        assert!(msg_len(175) <= 200);
        assert!(msg_len(176) > 200);
    }
}
