//! The receiver's anti-replay sliding window.
//!
//! Retransmissions and duplicated frames mean the server legitimately sees
//! the same sequence number more than once; an attacker replaying captured
//! frames looks exactly the same on the wire. RFC 4303-style windowing
//! resolves both: a bitmap over the last [`ReplayWindow::SIZE`] sequence
//! numbers accepts each number exactly once and rejects anything older than
//! the window.

/// Why the replay window rejected a sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The sequence number was already accepted once.
    Replayed {
        /// The repeated sequence number.
        sequence: u64,
    },
    /// The sequence number is older than the window tracks.
    TooOld {
        /// The stale sequence number.
        sequence: u64,
        /// The oldest sequence number still accepted.
        horizon: u64,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ReplayError::Replayed { sequence } => {
                write!(f, "sequence {sequence} was already accepted")
            }
            ReplayError::TooOld { sequence, horizon } => {
                write!(
                    f,
                    "sequence {sequence} is older than the replay horizon {horizon}"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// A sliding bitmap over the most recent sequence numbers.
///
/// Bit `i` of the mask marks `highest - i` as seen; numbers more than
/// [`ReplayWindow::SIZE`] behind the highest accepted number are rejected
/// unconditionally.
///
/// # Examples
///
/// ```
/// use age_transport::{ReplayError, ReplayWindow};
///
/// let mut window = ReplayWindow::new();
/// assert!(window.observe(5).is_ok());
/// assert!(window.observe(4).is_ok()); // out of order, inside the window
/// assert_eq!(
///     window.observe(5),
///     Err(ReplayError::Replayed { sequence: 5 })
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayWindow {
    highest: u64,
    mask: u64,
    primed: bool,
    /// `SIZE` minus the numbers this window distinguishes (0 by default).
    narrowed: u8,
}

impl ReplayWindow {
    /// Sequence numbers the window distinguishes (one bitmap word).
    pub const SIZE: u64 = 64;

    /// An empty window that accepts any first sequence number.
    pub fn new() -> Self {
        ReplayWindow::default()
    }

    /// An empty window over only the last `size` numbers (clamped to
    /// `1..=SIZE`), small enough for a model checker to reach the horizon.
    pub fn with_size(size: u64) -> Self {
        ReplayWindow {
            narrowed: (Self::SIZE - size.clamp(1, Self::SIZE)) as u8,
            ..ReplayWindow::default()
        }
    }

    /// The highest sequence number accepted so far, if any.
    pub fn highest(&self) -> Option<u64> {
        self.primed.then_some(self.highest)
    }

    /// Accepts `sequence` if it has not been seen and is not older than the
    /// window, advancing the window when the number is new territory.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Replayed`] for repeats, [`ReplayError::TooOld`] for
    /// numbers behind the horizon.
    pub fn observe(&mut self, sequence: u64) -> Result<(), ReplayError> {
        if !self.primed {
            self.primed = true;
            self.highest = sequence;
            self.mask = 1;
            return Ok(());
        }
        let size = Self::SIZE - u64::from(self.narrowed);
        if sequence > self.highest {
            let shift = sequence - self.highest;
            self.mask = if shift >= size { 0 } else { self.mask << shift };
            self.mask |= 1;
            self.highest = sequence;
            return Ok(());
        }
        let behind = self.highest - sequence;
        if behind >= size {
            return Err(ReplayError::TooOld {
                sequence,
                horizon: self.highest - (size - 1),
            });
        }
        let bit = 1u64 << behind;
        if self.mask & bit != 0 {
            return Err(ReplayError::Replayed { sequence });
        }
        self.mask |= bit;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_monotone_sequences() {
        let mut w = ReplayWindow::new();
        for seq in 0..200 {
            assert!(w.observe(seq).is_ok(), "seq {seq}");
        }
        assert_eq!(w.highest(), Some(199));
    }

    #[test]
    fn rejects_every_duplicate() {
        let mut w = ReplayWindow::new();
        for seq in 0..10 {
            w.observe(seq).unwrap();
        }
        for seq in 0..10 {
            assert_eq!(w.observe(seq), Err(ReplayError::Replayed { sequence: seq }));
        }
    }

    #[test]
    fn accepts_out_of_order_within_window() {
        let mut w = ReplayWindow::new();
        w.observe(10).unwrap();
        w.observe(7).unwrap();
        w.observe(9).unwrap();
        assert_eq!(w.observe(7), Err(ReplayError::Replayed { sequence: 7 }));
    }

    #[test]
    fn rejects_sequences_behind_the_horizon() {
        let mut w = ReplayWindow::new();
        w.observe(100).unwrap();
        assert_eq!(
            w.observe(100 - ReplayWindow::SIZE),
            Err(ReplayError::TooOld {
                sequence: 100 - ReplayWindow::SIZE,
                horizon: 100 - (ReplayWindow::SIZE - 1),
            })
        );
        // The edge of the window is still fine.
        assert!(w.observe(100 - (ReplayWindow::SIZE - 1)).is_ok());
    }

    #[test]
    fn large_jumps_clear_the_bitmap() {
        let mut w = ReplayWindow::new();
        w.observe(1).unwrap();
        w.observe(1000).unwrap();
        // 1 is now far behind the horizon.
        assert!(matches!(w.observe(1), Err(ReplayError::TooOld { .. })));
        // Unseen numbers near the new highest are accepted once.
        assert!(w.observe(999).is_ok());
        assert!(w.observe(999).is_err());
    }

    #[test]
    fn first_observation_primes_at_any_number() {
        let mut w = ReplayWindow::new();
        assert_eq!(w.highest(), None);
        w.observe(41).unwrap();
        assert_eq!(w.highest(), Some(41));
    }

    #[test]
    fn acceptance_flips_exactly_at_the_64_entry_boundary() {
        // With highest = SIZE - 1, sequence 0 is the last number inside the
        // window; one more step of the highest pushes it behind the horizon.
        let mut w = ReplayWindow::new();
        w.observe(0).unwrap();
        w.observe(ReplayWindow::SIZE - 1).unwrap();
        assert_eq!(
            w.observe(0),
            Err(ReplayError::Replayed { sequence: 0 }),
            "at distance SIZE - 1 the number is still tracked"
        );
        assert!(w.observe(1).is_ok(), "unseen, exactly on the window edge");
        w.observe(ReplayWindow::SIZE).unwrap();
        assert_eq!(
            w.observe(0),
            Err(ReplayError::TooOld {
                sequence: 0,
                horizon: 1,
            }),
            "one past the boundary the bitmap no longer distinguishes it"
        );
        assert_eq!(
            w.observe(1),
            Err(ReplayError::Replayed { sequence: 1 }),
            "the new horizon entry is still tracked"
        );
    }

    #[test]
    fn saturates_cleanly_near_u64_max() {
        let mut w = ReplayWindow::new();
        w.observe(u64::MAX - 1).unwrap();
        w.observe(u64::MAX).unwrap();
        assert_eq!(w.highest(), Some(u64::MAX));
        assert_eq!(
            w.observe(u64::MAX),
            Err(ReplayError::Replayed { sequence: u64::MAX })
        );
        // The whole top of the sequence space is still one-shot acceptable.
        for behind in 2..ReplayWindow::SIZE {
            assert!(w.observe(u64::MAX - behind).is_ok(), "behind {behind}");
        }
        let too_old = u64::MAX - ReplayWindow::SIZE;
        assert_eq!(
            w.observe(too_old),
            Err(ReplayError::TooOld {
                sequence: too_old,
                horizon: u64::MAX - (ReplayWindow::SIZE - 1),
            })
        );
        // Priming directly at the maximum works too.
        let mut fresh = ReplayWindow::new();
        fresh.observe(u64::MAX).unwrap();
        assert_eq!(fresh.highest(), Some(u64::MAX));
        assert!(fresh.observe(u64::MAX - 1).is_ok());
    }

    #[test]
    fn highest_is_unchanged_by_out_of_order_acceptance() {
        let mut w = ReplayWindow::new();
        w.observe(50).unwrap();
        for seq in (45..50).rev() {
            w.observe(seq).unwrap();
            assert_eq!(
                w.highest(),
                Some(50),
                "filling in old numbers must not move the window"
            );
        }
        w.observe(51).unwrap();
        assert_eq!(w.highest(), Some(51));
    }
}
