//! Differential test of the rekeying receiver's epoch probe.
//!
//! `Receiver::with_ratchet` keeps the ciphers it derives for future
//! epochs and reuses them across frames. The reference below keeps
//! nothing: every trial rebuilds its candidate key from the root with
//! `EpochRatchet::at_epoch`, in the order the receiver promises (current
//! epoch, previous epoch, then each future epoch up to the skip budget).
//! Both receivers see one seeded stream mixing in-order frames,
//! previous-epoch stragglers, post-brownout jumps, burst losses,
//! forgeries, replays from older epochs and frames sealed under another
//! sensor's root, and after every frame they must agree on the verdict,
//! the epoch state and every counter.

use age_crypto::kdf::{fleet_secret, sensor_root};
use age_crypto::{Cipher, EpochRatchet, OpenError};
use age_telemetry::DetRng;
use age_transport::{
    chacha20poly1305_factory, epoch_of, epoch_skip_budget, ReceiveError, Receiver, ReceiverStats,
    ReplayWindow, Sensor, MAX_SKIP,
};

/// The receiver's trial-open with no state beyond the epoch: each
/// candidate cipher is derived from the root for every trial.
struct NaiveReceiver {
    root: [u8; 32],
    skip: u64,
    epoch: u64,
    last_epoch: u64,
    window: ReplayWindow,
    stats: ReceiverStats,
}

impl NaiveReceiver {
    fn new(root: [u8; 32], skip: u64) -> Self {
        NaiveReceiver {
            root,
            skip,
            epoch: 0,
            last_epoch: 0,
            window: ReplayWindow::new(),
            stats: ReceiverStats::default(),
        }
    }

    fn cipher(&self, epoch: u64) -> Box<dyn Cipher> {
        chacha20poly1305_factory(EpochRatchet::at_epoch(self.root, epoch).key())
    }

    fn opens(&self, epoch: u64, frame: &[u8], payload: &mut Vec<u8>) -> bool {
        self.cipher(epoch).open_into(frame, payload).is_ok()
    }

    fn open(&mut self, frame: &[u8], payload: &mut Vec<u8>) -> Result<u64, OpenError> {
        let err = match self.cipher(self.epoch).open_into(frame, payload) {
            Ok(()) => return Ok(self.epoch),
            Err(err) => err,
        };
        // The receiver holds a previous-epoch key once it has advanced.
        if self.epoch > 0 && self.opens(self.epoch - 1, frame, payload) {
            self.stats.epoch_behind += 1;
            return Ok(self.epoch - 1);
        }
        for ahead in 1..=self.skip {
            if self.opens(self.epoch + ahead, frame, payload) {
                self.epoch += ahead;
                self.stats.epoch_advances += 1;
                return Ok(self.epoch);
            }
        }
        Err(err)
    }

    fn receive(&mut self, frame: &[u8]) -> Result<(u64, Vec<u8>), ReceiveError> {
        let Some(sequence) = self.cipher(self.epoch).sequence_of(frame) else {
            self.stats.missing_sequence += 1;
            return Err(ReceiveError::MissingSequence);
        };
        let mut payload = Vec::new();
        let opened = self.open(frame, &mut payload).map_err(|e| {
            self.stats.auth_failed += 1;
            ReceiveError::Cipher(e)
        })?;
        let limit = self
            .window
            .highest()
            .map_or(MAX_SKIP, |h| h.saturating_add(MAX_SKIP));
        if sequence > limit {
            self.stats.far_future += 1;
            return Err(ReceiveError::FarFuture { sequence, limit });
        }
        self.window.observe(sequence).map_err(|e| {
            self.stats.replay_rejected += 1;
            ReceiveError::Replay(e)
        })?;
        self.stats.accepted += 1;
        self.last_epoch = opened;
        Ok((sequence, payload))
    }
}

/// A seeded arrival stream for one sensor rotating every `interval`
/// sequence numbers, with every kind of frame the probe has to handle.
fn stream(seed: u64, interval: u64, frames: usize) -> ([u8; 32], Vec<Vec<u8>>) {
    let secret = fleet_secret(seed);
    let root = sensor_root(&secret, 1);
    let phase = seed % interval;
    let mut rng = DetRng::seed_from_u64(seed);
    let mut sensor = Sensor::with_rekey(root, interval, phase, chacha20poly1305_factory);
    let mut stranger = Sensor::with_rekey(
        sensor_root(&secret, 2),
        interval,
        phase,
        chacha20poly1305_factory,
    );
    // Every genuine frame sealed so far, with the epoch it was sealed in.
    let mut sealed: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut held: Option<Vec<u8>> = None;
    let mut out = Vec::with_capacity(frames);
    while out.len() < frames {
        let payload: Vec<u8> = (0..24).map(|_| rng.next_u64() as u8).collect();
        match rng.gen_range(0..200u32) {
            // In order; a frame sealed just before a rotation is
            // sometimes held back and delivered as a straggler later.
            0..=150 => {
                let rotating = sensor.rotation_due(sensor.next_sequence() + 1).is_some();
                let (_, frame) = sensor.seal(&payload);
                sealed.push((sensor.epoch(), frame.clone()));
                if rotating && held.is_none() && rng.gen_bool(0.5) {
                    held = Some(frame);
                } else {
                    out.push(frame);
                }
            }
            151..=170 => {
                if let Some(frame) = held.take() {
                    out.push(frame);
                }
            }
            // A brownout: the sensor resumes up to MAX_SKIP sequence
            // numbers ahead, crossing as many epochs as that spans.
            171 => {
                let jump = rng.gen_range(1..=MAX_SKIP);
                sensor.reboot_at(sensor.next_sequence() + jump);
                assert_eq!(
                    sensor.epoch(),
                    epoch_of(sensor.next_sequence(), interval, phase)
                );
            }
            // A burst loss: frames sealed but never delivered, so the next
            // arrival moves the receiver several epochs ahead while frames
            // from the epochs it skipped can still be replayed.
            172 => {
                for _ in 0..rng.gen_range(1..=3 * interval) {
                    let (_, frame) = sensor.seal(&payload);
                    sealed.push((sensor.epoch(), frame));
                }
            }
            // Forgeries: a flipped bit in a genuine frame, or noise of a
            // genuine frame's length.
            173..=181 => {
                let (_, mut frame) = sensor.seal(&payload);
                if rng.gen_bool(0.5) {
                    let at = rng.gen_range(0..frame.len());
                    frame[at] ^= 1 << rng.gen_range(0..8u32);
                } else {
                    frame.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
                }
                out.push(frame);
            }
            // A replay from one to five epochs back.
            182..=193 => {
                let back = rng.gen_range(1..=5u64);
                let target = sensor.epoch().saturating_sub(back);
                let old: Vec<&Vec<u8>> = sealed
                    .iter()
                    .filter(|(epoch, _)| *epoch == target)
                    .map(|(_, frame)| frame)
                    .collect();
                if !old.is_empty() {
                    out.push(old[rng.gen_range(0..old.len())].clone());
                }
            }
            // Another sensor's traffic, on the same schedule.
            _ => {
                if stranger.next_sequence() < sensor.next_sequence() {
                    stranger.reboot_at(sensor.next_sequence());
                }
                out.push(stranger.seal(&payload).1);
            }
        }
    }
    (root, out)
}

/// Feeds one stream to both receivers, comparing them after every frame.
/// Returns the cached receiver's counters and the largest number of
/// epochs it crossed in one step.
fn differential_round(seed: u64, interval: u64, frames: usize) -> (ReceiverStats, u64) {
    let (root, stream) = stream(seed, interval, frames);
    let skip = epoch_skip_budget(MAX_SKIP, interval);
    let mut cached = Receiver::with_ratchet(root, MAX_SKIP, skip, chacha20poly1305_factory);
    let mut naive = NaiveReceiver::new(root, skip);
    let mut widest_step = 0;
    for (i, frame) in stream.iter().enumerate() {
        let before = cached.epoch();
        let got = cached.receive(frame);
        widest_step = widest_step.max(cached.epoch() - before);
        let want = naive.receive(frame);
        let at = format!("seed {seed}, interval {interval}, frame {i}");
        assert_eq!(got, want, "verdict differs at {at}");
        assert_eq!(cached.epoch(), naive.epoch, "epoch differs at {at}");
        assert_eq!(
            cached.last_epoch(),
            naive.last_epoch,
            "last epoch differs at {at}"
        );
        assert_eq!(
            cached.highest_sequence(),
            naive.window.highest(),
            "highest sequence differs at {at}"
        );
        assert_eq!(*cached.stats(), naive.stats, "stats differ at {at}");
    }
    (*cached.stats(), widest_step)
}

#[test]
fn cached_probe_matches_per_trial_derivation() {
    let mut total = ReceiverStats::default();
    let mut widest_step = 0;
    for seed in 1..=4 {
        let (interval, frames) = if seed % 2 == 0 { (64, 300) } else { (16, 200) };
        let (stats, widest) = differential_round(seed, interval, frames);
        total.merge(&stats);
        widest_step = widest_step.max(widest);
    }
    // The stream really exercised every branch of the probe.
    assert!(total.accepted > 0, "{total:?}");
    assert!(total.epoch_advances > 0, "{total:?}");
    assert!(total.epoch_behind > 0, "{total:?}");
    assert!(total.auth_failed > 0, "{total:?}");
    assert!(total.replay_rejected > 0, "{total:?}");
    assert!(widest_step > 16, "no brownout jumped several epochs");
}
