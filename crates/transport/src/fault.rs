//! Deterministic fault injection between sensor and server.
//!
//! The paper's security argument assumes faults strike independently of the
//! sensed events (§4.5); to test that assumption the channel must be able to
//! misbehave *reproducibly*. [`FaultChannel`] applies drop, bit-corruption,
//! duplication, and reordering faults drawn from a [`DetRng`] seeded by the
//! [`FaultPlan`], so a run is a pure function of its seed — byte-identical
//! at any thread count, matching the sweep's determinism contract.
//!
//! Faults never change a frame's length: corruption flips bits in place and
//! duplication re-sends the same sealed frame, so the attacker-visible wire
//! size stays exactly the sealed fixed size.

use age_telemetry::DetRng;

/// Fault rates for a simulated link, all probabilities per sent frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability a frame vanishes in flight.
    pub drop_rate: f64,
    /// Probability 1–3 random bits of a frame flip in flight.
    pub corrupt_rate: f64,
    /// Probability the receiver sees a frame twice.
    pub duplicate_rate: f64,
    /// Probability a frame is held back and delivered after its successor.
    pub reorder_rate: f64,
    /// Seed of the fault stream; same plan + same seed ⇒ same faults.
    pub seed: u64,
}

impl FaultPlan {
    /// A perfectly reliable channel.
    pub const NONE: FaultPlan = FaultPlan {
        drop_rate: 0.0,
        corrupt_rate: 0.0,
        duplicate_rate: 0.0,
        reorder_rate: 0.0,
        seed: 0,
    };

    /// A channel that only drops frames, at `drop_rate`.
    pub fn drops(drop_rate: f64, seed: u64) -> Self {
        FaultPlan {
            drop_rate,
            seed,
            ..FaultPlan::NONE
        }
    }

    /// A generally unreliable channel: drops and corrupts at `rate`, with
    /// half-`rate` duplication and reordering.
    pub fn lossy(rate: f64, seed: u64) -> Self {
        FaultPlan {
            drop_rate: rate,
            corrupt_rate: rate,
            duplicate_rate: rate / 2.0,
            reorder_rate: rate / 2.0,
            seed,
        }
    }

    /// `true` if every fault rate is zero.
    pub fn is_noop(&self) -> bool {
        self.drop_rate <= 0.0
            && self.corrupt_rate <= 0.0
            && self.duplicate_rate <= 0.0
            && self.reorder_rate <= 0.0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// What the channel did to the traffic so far. Deterministic per seed, so
/// it is safe to include in byte-compared reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStats {
    /// Frames the sensor handed to the channel.
    pub frames_in: usize,
    /// Frames that reached the receiver (including duplicates).
    pub frames_out: usize,
    /// Frames dropped in flight.
    pub dropped: usize,
    /// Frames with flipped bits.
    pub corrupted: usize,
    /// Extra copies delivered.
    pub duplicated: usize,
    /// Frames held back behind their successor.
    pub reordered: usize,
    /// Shortest frame radiated on the wire, if any.
    pub wire_min_len: Option<usize>,
    /// Longest frame radiated on the wire, if any.
    pub wire_max_len: Option<usize>,
}

impl ChannelStats {
    fn record_wire(&mut self, len: usize) {
        self.wire_min_len = Some(self.wire_min_len.map_or(len, |m| m.min(len)));
        self.wire_max_len = Some(self.wire_max_len.map_or(len, |m| m.max(len)));
    }

    /// `true` if every frame observed on the wire had the same length.
    pub fn wire_lengths_constant(&self) -> bool {
        self.wire_min_len == self.wire_max_len
    }

    /// Folds another channel's counters in: counts add, the wire-length
    /// extremes widen, so merge order never matters.
    pub fn merge(&mut self, other: &ChannelStats) {
        self.frames_in += other.frames_in;
        self.frames_out += other.frames_out;
        self.dropped += other.dropped;
        self.corrupted += other.corrupted;
        self.duplicated += other.duplicated;
        self.reordered += other.reordered;
        if let (Some(min), Some(max)) = (other.wire_min_len, other.wire_max_len) {
            self.record_wire(min);
            self.record_wire(max);
        }
    }
}

/// A lossy link applying [`FaultPlan`] faults from a deterministic stream.
///
/// Fault decisions are drawn in a fixed order per frame (drop, corrupt,
/// duplicate, reorder), so the stream — and therefore the entire run — is a
/// pure function of the plan and seed.
///
/// # Examples
///
/// ```
/// use age_transport::{FaultChannel, FaultPlan};
///
/// let mut channel = FaultChannel::new(FaultPlan::drops(1.0, 7));
/// assert!(channel.transmit(b"frame").is_empty()); // always dropped
/// assert_eq!(channel.stats().dropped, 1);
/// ```
#[derive(Debug, Clone)]
pub struct FaultChannel {
    plan: FaultPlan,
    rng: DetRng,
    held: Option<Vec<u8>>,
    stats: ChannelStats,
}

impl FaultChannel {
    /// A channel seeded from `plan.seed`.
    pub fn new(plan: FaultPlan) -> Self {
        Self::with_seed(plan, plan.seed)
    }

    /// A channel whose fault stream is seeded from `seed` instead of
    /// `plan.seed` — sweep cells mix their cell identity in so every cell
    /// sees an independent (but reproducible) fault pattern.
    pub fn with_seed(plan: FaultPlan, seed: u64) -> Self {
        FaultChannel {
            plan,
            rng: DetRng::seed_from_u64(seed),
            held: None,
            stats: ChannelStats::default(),
        }
    }

    /// The faults applied so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// Sends one frame through the channel and returns the frames arriving
    /// at the receiver *now* — possibly empty (dropped or held back),
    /// possibly more than one (a duplicate, or a previously held frame
    /// released by this transmission).
    pub fn transmit(&mut self, frame: &[u8]) -> Vec<Vec<u8>> {
        self.stats.frames_in += 1;
        self.stats.record_wire(frame.len());

        let mut arriving = Vec::new();
        // A frame held back by an earlier reorder was already in flight; it
        // lands ahead of (i.e. swapped with) the current transmission.
        if let Some(held) = self.held.take() {
            arriving.push(held);
        }

        if self.rng.gen_bool(self.plan.drop_rate) {
            self.stats.dropped += 1;
        } else {
            let mut copy = frame.to_vec();
            if self.rng.gen_bool(self.plan.corrupt_rate) {
                self.corrupt(&mut copy);
                self.stats.corrupted += 1;
            }
            if self.rng.gen_bool(self.plan.duplicate_rate) {
                // The duplicate radiates as its own wire frame, same bytes.
                self.stats.record_wire(copy.len());
                self.stats.duplicated += 1;
                arriving.push(copy.clone());
            }
            if self.held.is_none() && self.rng.gen_bool(self.plan.reorder_rate) {
                self.stats.reordered += 1;
                self.held = Some(copy);
            } else {
                arriving.push(copy);
            }
        }

        self.stats.frames_out += arriving.len();
        arriving
    }

    /// Releases a held frame at the end of a session, if one is in flight.
    pub fn flush(&mut self) -> Option<Vec<u8>> {
        let held = self.held.take();
        if held.is_some() {
            self.stats.frames_out += 1;
        }
        held
    }

    /// Flips 1–3 bits at deterministic positions; the length never changes.
    fn corrupt(&mut self, frame: &mut [u8]) {
        if frame.is_empty() {
            return;
        }
        let flips = self.rng.gen_range(1usize..=3);
        for _ in 0..flips {
            let bit = self.rng.gen_range(0..frame.len() * 8);
            frame[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_channel_passes_everything_through() {
        let mut ch = FaultChannel::new(FaultPlan::NONE);
        for i in 0..50u8 {
            let out = ch.transmit(&[i; 10]);
            assert_eq!(out, vec![vec![i; 10]]);
        }
        assert_eq!(ch.stats().frames_in, 50);
        assert_eq!(ch.stats().frames_out, 50);
        assert_eq!(ch.stats().dropped + ch.stats().corrupted, 0);
        assert!(ch.stats().wire_lengths_constant());
    }

    #[test]
    fn same_seed_same_faults() {
        let plan = FaultPlan::lossy(0.3, 99);
        let run = |_: ()| {
            let mut ch = FaultChannel::new(plan);
            let mut out = Vec::new();
            for i in 0..200u8 {
                out.push(ch.transmit(&[i; 8]));
            }
            out.push(ch.flush().into_iter().collect());
            (out, *ch.stats())
        };
        assert_eq!(run(()), run(()));
    }

    #[test]
    fn corruption_preserves_length_and_flips_bits() {
        let plan = FaultPlan {
            corrupt_rate: 1.0,
            ..FaultPlan::NONE
        };
        let mut ch = FaultChannel::with_seed(plan, 3);
        let frame = [0u8; 32];
        let mut changed = 0;
        for _ in 0..20 {
            let out = ch.transmit(&frame);
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].len(), frame.len());
            if out[0] != frame {
                changed += 1;
            }
        }
        assert_eq!(changed, 20, "every frame must actually be corrupted");
        assert_eq!(ch.stats().corrupted, 20);
    }

    #[test]
    fn duplicates_arrive_twice() {
        let plan = FaultPlan {
            duplicate_rate: 1.0,
            ..FaultPlan::NONE
        };
        let mut ch = FaultChannel::with_seed(plan, 4);
        let out = ch.transmit(&[7; 4]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], out[1]);
        assert_eq!(ch.stats().duplicated, 1);
    }

    #[test]
    fn reordering_swaps_adjacent_frames() {
        let plan = FaultPlan {
            reorder_rate: 1.0,
            ..FaultPlan::NONE
        };
        let mut ch = FaultChannel::with_seed(plan, 5);
        assert!(ch.transmit(&[1]).is_empty(), "first frame is held");
        let out = ch.transmit(&[2]);
        // The held frame lands first; the second is now held in its place.
        assert_eq!(out, vec![vec![1]]);
        assert_eq!(ch.flush(), Some(vec![2]));
        assert_eq!(ch.stats().reordered, 2);
    }

    #[test]
    fn drop_rate_one_drops_everything() {
        let mut ch = FaultChannel::new(FaultPlan::drops(1.0, 6));
        for _ in 0..10 {
            assert!(ch.transmit(&[0; 16]).is_empty());
        }
        assert_eq!(ch.stats().dropped, 10);
        assert_eq!(ch.stats().frames_out, 0);
        // Dropped frames were still radiated by the sensor.
        assert_eq!(ch.stats().wire_min_len, Some(16));
    }

    #[test]
    fn plan_helpers_cover_the_rates() {
        assert!(FaultPlan::NONE.is_noop());
        assert!(FaultPlan::default().is_noop());
        let lossy = FaultPlan::lossy(0.2, 1);
        assert!(!lossy.is_noop());
        assert_eq!(lossy.duplicate_rate, 0.1);
        assert!(!FaultPlan::drops(0.5, 1).is_noop());
    }
}
