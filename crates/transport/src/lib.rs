//! Fault-tolerant framed transport between an AGE sensor and its server.
//!
//! AGE closes the message-*size* side channel by making every batch leave
//! the sensor as a fixed-length encrypted message (§4.5 of the paper). This
//! crate supplies the link those messages actually cross:
//!
//! - [`Sensor`] seals each payload with a [`Cipher`](age_crypto::Cipher)
//!   (normally ChaCha20Poly1305) whose nonce derives deterministically from
//!   a per-session sequence number, so a frame is
//!   `payload + overhead` bytes — constant when the payload is.
//! - [`FaultChannel`] injects drop / bit-corruption / duplication /
//!   reordering faults from a [`DetRng`](age_telemetry::DetRng) stream, so
//!   every run is byte-reproducible per seed at any thread count. Faults
//!   never change a frame's length.
//! - [`Receiver`] authenticates, enforces an RFC 4303-style
//!   [`ReplayWindow`], guards against far-future sequence numbers, and
//!   turns every malformed frame into a [`ReceiveError`] instead of a
//!   panic.
//! - [`Link`] joins the three with the retry/timeout/exponential-backoff
//!   loop ([`RetryPolicy`]); retransmissions reuse the sequence number (the
//!   replay window absorbs the duplicates) and their radio energy is
//!   charged by the simulator against the same budget as the first send.
//!
//! Retransmissions and drops are themselves a discrete-time channel that
//! can leak, so the per-session [`LinkStats`] / [`ChannelStats`] make retry
//! behavior measurable; `age-sim` re-measures NMI leakage under faults on
//! top of this crate. See `docs/robustness.md` for the frame format and
//! fault model.
//!
//! Low-power sensors also brown out: a [`SequenceJournal`] over a simulated
//! [`NvmStore`] ([`Sensor::with_journal`]) persists sequence reservations
//! in blocks (one flash write per `K` frames), so [`Sensor::reboot`]
//! recovers past the reserved high-water mark and no nonce is ever reused
//! across power cycles — the "Surviving resets" section of
//! `docs/robustness.md` records the journal format and recovery invariants.
//!
//! # Examples
//!
//! ```
//! use age_crypto::ChaCha20Poly1305;
//! use age_transport::{FaultPlan, Link, RetryPolicy};
//!
//! let key = [0x42; 32];
//! let mut link = Link::new(
//!     Box::new(ChaCha20Poly1305::new(key)),
//!     Box::new(ChaCha20Poly1305::new(key)),
//!     FaultPlan::lossy(0.2, 7),
//!     RetryPolicy::default(),
//! );
//! for batch in 0..10u8 {
//!     let delivery = link.send(&[batch; 220]); // fixed-size AGE payload
//!     assert_eq!(delivery.frame_len, 220 + 28, "nonce + tag overhead");
//! }
//! // Every frame on the wire had the sealed fixed size, faults included.
//! assert!(link.channel_stats().wire_lengths_constant());
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

mod fault;
mod link;
mod persist;
mod replay;

pub use fault::{ChannelStats, FaultChannel, FaultPlan};
pub use link::{
    chacha20poly1305_factory, epoch_of, CipherFactory, Delivery, Link, LinkStats, ReceiveError,
    Receiver, ReceiverStats, RetryPolicy, Sensor, MAX_SKIP,
};
pub use persist::{
    JournalError, JournalStats, NvmFaultPlan, NvmStats, NvmStore, RecoveredState, SequenceJournal,
};
pub use replay::{ReplayError, ReplayWindow};

#[cfg(test)]
mod tests {
    use age_crypto::ChaCha20Poly1305;

    use super::*;

    fn run_session(seed: u64, messages: usize) -> (Vec<Delivery>, LinkStats, ChannelStats) {
        let mut link = Link::new(
            Box::new(ChaCha20Poly1305::new([0x42; 32])),
            Box::new(ChaCha20Poly1305::new([0x42; 32])),
            FaultPlan::lossy(0.25, seed),
            RetryPolicy::default(),
        );
        let deliveries: Vec<Delivery> = (0..messages)
            .map(|i| link.send(&[(i % 251) as u8; 64]))
            .collect();
        (deliveries, link.stats(), *link.channel_stats())
    }

    #[test]
    fn sessions_are_byte_reproducible_per_seed() {
        assert_eq!(run_session(123, 150), run_session(123, 150));
        let (_, a, _) = run_session(123, 150);
        let (_, b, _) = run_session(124, 150);
        assert_ne!(a, b, "different seeds must produce different faults");
    }

    #[test]
    fn stats_account_for_every_frame() {
        let (deliveries, stats, channel) = run_session(9, 200);
        let attempts: usize = deliveries.iter().map(|d| d.attempts as usize).sum();
        assert_eq!(stats.frames_sent, attempts);
        assert_eq!(stats.frames_sent, channel.frames_in);
        assert_eq!(
            stats.frames_delivered
                + stats.auth_failed
                + stats.replay_rejected
                + stats.rejected_other,
            // Frames still held in the channel at session end never reached
            // the receiver.
            channel.frames_out
        );
        assert!(stats.frames_retried > 0, "a 25% loss rate forces retries");
    }
}
