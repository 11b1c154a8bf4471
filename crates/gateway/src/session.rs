//! One sensor's server-side session state.
//!
//! A session holds only what receiving needs: the receive keys and
//! replay window, the cohort, the gap anchor and the nonce ledger of the
//! sequences it accepted. Every gateway session runs ChaCha20-Poly1305,
//! so its [`Receiver`] holds that cipher inline (32 bytes of key), and
//! the shard's [`SessionTable`](crate::table::SessionTable) stores
//! sessions by value: provisioning a static session touches the heap
//! only when its storage block is new, and its first accepted frame
//! allocates its ledger. The leakage histograms its accepted frames feed
//! live in the shard, one size and one gap stream per cohort, and merge
//! commutatively with every other shard's — which is what lets the fleet
//! report come out byte-identical at any shard or thread count.
//!
//! Provisioning writes every session, so its size is a provisioning
//! cost: the ledger sits behind one pointer, paid for by storing the gap
//! anchor as a plain `u64`, and a session stays at 168 bytes.

use age_crypto::ChaCha20Poly1305;
use age_telemetry::NonceLedger;
use age_transport::Receiver;

/// The gap anchor of a session that has accepted no frame yet. No stamp
/// is greater, so the first frame records no gap.
const NO_FRAME: u64 = u64::MAX;

/// Server-side state for one provisioned sensor.
pub(crate) struct Session {
    /// Authenticates and replay-checks this sensor's frames.
    pub(crate) receiver: Receiver<ChaCha20Poly1305>,
    /// Index into the gateway's cohort table (selects the decoder and
    /// the leakage streams its frames feed).
    pub(crate) cohort: usize,
    /// Virtual send stamp of the last *accepted* frame ([`NO_FRAME`]
    /// before the first); the anchor for per-sensor inter-transmission
    /// gaps. Kept per session because the fleet interleaves sensors
    /// arbitrarily — a shared gap clock would measure the interleaving,
    /// not any sensor's cadence.
    last_send_us: u64,
    /// `(epoch, sequence)` of every accepted frame, allocated by the
    /// first.
    pub(crate) nonces: Option<Box<NonceLedger>>,
}

impl Session {
    /// A fresh session over `key` in `cohort`.
    pub(crate) fn new(key: [u8; 32], cohort: usize) -> Session {
        Session {
            receiver: Receiver::new(ChaCha20Poly1305::new(key)),
            cohort,
            last_send_us: NO_FRAME,
            nonces: None,
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
            last_send_us: NO_FRAME,
            nonces: None,
        }
    }

    /// Moves the gap anchor to an accepted frame's send stamp and
    /// returns the gap since the previous accept: `None` for the
    /// session's first frame, and for a non-advancing stamp (a sensor
    /// clock restart; no gap is recorded across the seam), matching
    /// `LeakageAudit::observe_timed` exactly.
    pub(crate) fn gap_to(&mut self, sent_at_us: u64) -> Option<u64> {
        let gap_us = (sent_at_us > self.last_send_us).then(|| sent_at_us - self.last_send_us);
        self.last_send_us = sent_at_us;
        gap_us
    }

    /// Replaces this session with `new` and returns the old one. The
    /// nonce ledger stays, so the gateway's nonce audit still catches a
    /// sequence accepted both before and after re-provisioning.
    pub(crate) fn reprovision(&mut self, mut new: Session) -> Session {
        new.nonces = self.nonces.take();
        std::mem::replace(self, new)
    }

    /// Enters an accepted frame's `sequence` under `epoch` in the nonce
    /// ledger; `false` if the ledger already held it (a nonce reuse).
    pub(crate) fn record_nonce(&mut self, epoch: u64, sequence: u64) -> bool {
        match self.nonces.as_deref_mut() {
            Some(ledger) => ledger.insert(epoch, sequence),
            None => {
                self.nonces = Some(Box::new(NonceLedger::new(epoch, sequence)));
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_session_fits_in_168_bytes() {
        assert!(
            std::mem::size_of::<Session>() <= 168,
            "a session is {} bytes",
            std::mem::size_of::<Session>()
        );
    }

    #[test]
    fn the_first_frame_records_no_gap() {
        let mut session = Session::new([1; 32], 0);
        for stamp in [0, 5, u64::MAX] {
            let mut fresh = Session::new([1; 32], 0);
            assert_eq!(fresh.gap_to(stamp), None);
        }
        assert_eq!(session.gap_to(100), None);
        assert_eq!(session.gap_to(160), Some(60));
        assert_eq!(session.gap_to(160), None, "a non-advancing stamp");
        assert_eq!(session.gap_to(10), None, "a clock restart");
        assert_eq!(session.gap_to(15), Some(5));
    }
}
