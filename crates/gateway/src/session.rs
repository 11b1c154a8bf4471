//! One sensor's server-side session state.
//!
//! The session table maps sensor id → (receive keys, replay window,
//! epoch, per-sensor leakage histograms). Everything a shard rolls up
//! at report time is either kept here per sensor or merged
//! commutatively, which is what lets the fleet report come out
//! byte-identical at any shard or thread count.

use age_crypto::ChaCha20Poly1305;
use age_telemetry::LeakageStream;
use age_transport::{chacha20poly1305_factory, epoch_skip_budget, Receiver};

/// The far-future skip tolerance, shared with every single-link receiver:
/// one definition in `age-transport` ([`age_transport::MAX_SKIP`]) so the
/// gateway and the link sims cannot drift apart.
pub(crate) use age_transport::MAX_SKIP;

/// Server-side state for one provisioned sensor.
pub(crate) struct Session {
    /// Authenticates and replay-checks this sensor's frames.
    pub(crate) receiver: Receiver,
    /// Index into the gateway's cohort table (selects the decoder and
    /// the leakage stream name).
    pub(crate) cohort: usize,
    /// Latest key epoch the receiver has followed; rekeying sessions
    /// refresh it after every accept, static sessions keep the
    /// provisioned value (0). The nonce audit keys on the epoch each
    /// frame actually *opened* under, so reuse across a rekey is
    /// distinguishable from reuse within one.
    pub(crate) epoch: u64,
    /// Virtual send stamp of the last *accepted* frame; the anchor for
    /// per-sensor inter-transmission gaps. Kept per session because the
    /// fleet interleaves sensors arbitrarily — a shared gap clock would
    /// measure the interleaving, not any sensor's cadence.
    pub(crate) last_send_us: Option<u64>,
    /// Size histogram of this sensor's accepted frames.
    pub(crate) sizes: LeakageStream,
    /// Gap histogram of this sensor's accepted frames.
    pub(crate) gaps: LeakageStream,
}

impl Session {
    /// A fresh session over `key` in `cohort`.
    pub(crate) fn new(key: [u8; 32], cohort: usize, epoch: u64) -> Session {
        Session {
            receiver: Receiver::with_max_skip(Box::new(ChaCha20Poly1305::new(key)), MAX_SKIP),
            cohort,
            epoch,
            last_send_us: None,
            sizes: LeakageStream::default(),
            gaps: LeakageStream::default(),
        }
    }

    /// A rekey-capable session: keys ratchet from `root`, and the
    /// receiver tolerates the epoch skew a sensor rotating every
    /// `interval` sequence numbers can produce across brownouts.
    pub(crate) fn with_rekey(root: [u8; 32], interval: u64, cohort: usize) -> Session {
        Session {
            receiver: Receiver::with_ratchet(
                root,
                MAX_SKIP,
                epoch_skip_budget(MAX_SKIP, interval),
                chacha20poly1305_factory,
            ),
            cohort,
            epoch: 0,
            last_send_us: None,
            sizes: LeakageStream::default(),
            gaps: LeakageStream::default(),
        }
    }

    /// Feeds one accepted frame into the session's leakage histograms:
    /// the wire size always, and — when this is not the session's first
    /// frame and the stamp advanced — the gap since the previous accept,
    /// labeled with the arriving frame's event (matching
    /// `LeakageAudit::observe_timed` semantics exactly).
    ///
    /// Returns the gap that was recorded, if any, so the shard can feed
    /// the same observation into its windowed monitor without
    /// re-deriving the session's gap-anchor rules.
    pub(crate) fn observe_accepted(
        &mut self,
        event: usize,
        wire_len: usize,
        sent_at_us: u64,
    ) -> Option<u64> {
        let gap_us = match self.last_send_us {
            Some(prev) if sent_at_us > prev => Some(sent_at_us - prev),
            _ => None,
        };
        self.sizes.observe(event, wire_len);
        if let Some(gap) = gap_us {
            self.gaps.observe(event, gap as usize);
        }
        // A non-advancing stamp is a sensor clock restart; no gap is
        // recorded across the seam, same as `LeakageAudit::observe_timed`.
        self.last_send_us = Some(sent_at_us);
        gap_us
    }
}
