//! One sensor's server-side session state.
//!
//! A session holds only what receiving needs: the receive keys and
//! replay window, the cohort, and the gap anchor. Every gateway session
//! runs ChaCha20-Poly1305, so its [`Receiver`] holds that cipher inline
//! (32 bytes of key), and the shard's [`SessionTable`](crate::table::SessionTable) stores sessions
//! by value: provisioning a static session touches the heap only when
//! its storage block is new. The leakage histograms its accepted frames
//! feed live in the shard, one size and one gap stream per cohort, and
//! merge commutatively with every other shard's — which is what lets
//! the fleet report come out byte-identical at any shard or thread
//! count.

use age_crypto::ChaCha20Poly1305;
use age_transport::Receiver;

/// Server-side state for one provisioned sensor.
pub(crate) struct Session {
    /// Authenticates and replay-checks this sensor's frames.
    pub(crate) receiver: Receiver<ChaCha20Poly1305>,
    /// Index into the gateway's cohort table (selects the decoder and
    /// the leakage streams its frames feed).
    pub(crate) cohort: usize,
    /// Virtual send stamp of the last *accepted* frame; the anchor for
    /// per-sensor inter-transmission gaps. Kept per session because the
    /// fleet interleaves sensors arbitrarily — a shared gap clock would
    /// measure the interleaving, not any sensor's cadence.
    last_send_us: Option<u64>,
}

impl Session {
    /// A fresh session over `key` in `cohort`.
    pub(crate) fn new(key: [u8; 32], cohort: usize) -> Session {
        Session {
            receiver: Receiver::new(ChaCha20Poly1305::new(key)),
            cohort,
            last_send_us: None,
        }
    }

    /// A rekey-capable session: keys ratchet from `root` on the sensor's
    /// schedule (every `interval` sequence numbers from `phase`), and the
    /// receiver tolerates the epoch skew that schedule can produce across
    /// brownouts.
    pub(crate) fn with_rekey(root: [u8; 32], interval: u64, phase: u64, cohort: usize) -> Session {
        Session {
            receiver: Receiver::with_rekey(root, interval, phase, ChaCha20Poly1305::new),
            cohort,
            last_send_us: None,
        }
    }

    /// Moves the gap anchor to an accepted frame's send stamp and
    /// returns the gap since the previous accept: `None` for the
    /// session's first frame, and for a non-advancing stamp (a sensor
    /// clock restart; no gap is recorded across the seam), matching
    /// `LeakageAudit::observe_timed` exactly.
    pub(crate) fn gap_to(&mut self, sent_at_us: u64) -> Option<u64> {
        let gap_us = match self.last_send_us {
            Some(prev) if sent_at_us > prev => Some(sent_at_us - prev),
            _ => None,
        };
        self.last_send_us = Some(sent_at_us);
        gap_us
    }
}
