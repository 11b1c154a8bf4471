//! Differential test of the rekeying receiver's key choice.
//!
//! `Receiver::with_rekey` opens every frame under the one key of its
//! watermark epoch and keeps the ciphers it derives for future epochs
//! across frames. The reference (`common::NaiveReceiver`) does neither: it
//! tries the current epoch, the previous epoch, then each future epoch up
//! to the skip budget on every frame, and rebuilds every candidate key
//! from the root with `EpochRatchet::at_epoch`. Its replay check is a set of accepted
//! numbers instead of a bitmap. Both receivers see one seeded stream
//! mixing in-order frames, previous-epoch stragglers, post-brownout jumps,
//! burst losses, forgeries, replays from older epochs and frames sealed
//! under another sensor's root, and after every frame they must agree on
//! the verdict, the epoch state and every counter.

mod common;

use age_crypto::kdf::{fleet_secret, sensor_root};
use age_crypto::EpochRatchet;
use age_telemetry::DetRng;
use age_transport::{
    chacha20poly1305_factory, epoch_of, Receiver, ReceiverStats, ReplayWindow, Sensor, MAX_SKIP,
};
use common::{assert_windows_agree, NaiveReceiver};

/// A seeded arrival stream for one sensor rotating every `interval`
/// sequence numbers, with every kind of frame the receiver has to handle.
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
                let rotating =
                    epoch_of(sensor.next_sequence() + 1, interval, phase) > sensor.epoch();
                let (_, frame) = sensor.seal(&payload).unwrap();
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
                    let (_, frame) = sensor.seal(&payload).unwrap();
                    sealed.push((sensor.epoch(), frame));
                }
            }
            // Forgeries: a flipped bit in a genuine frame, or noise of a
            // genuine frame's length.
            173..=181 => {
                let (_, mut frame) = sensor.seal(&payload).unwrap();
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
                out.push(stranger.seal(&payload).unwrap().1);
            }
        }
    }
    (root, out)
}

/// Feeds one stream to both receivers, comparing them after every frame,
/// and the stream's sequence numbers to both replay windows. Returns the
/// one-key receiver's counters and the largest number of epochs it crossed
/// in one step.
fn differential_round(seed: u64, interval: u64, frames: usize) -> (ReceiverStats, u64) {
    let phase = seed % interval;
    let (root, stream) = stream(seed, interval, frames);
    let mut receiver = Receiver::with_rekey(root, interval, phase, chacha20poly1305_factory);
    let mut naive = NaiveReceiver::rekeying(
        move |epoch| chacha20poly1305_factory(EpochRatchet::at_epoch(root, epoch).key()),
        interval,
        MAX_SKIP,
        ReplayWindow::SIZE,
    );
    let mut widest_step = 0;
    for (i, frame) in stream.iter().enumerate() {
        let before = receiver.epoch();
        let _ = naive.receive_beside(
            &mut receiver,
            frame,
            &format!("seed {seed}, interval {interval}, frame {i}"),
        );
        widest_step = widest_step.max(receiver.epoch() - before);
    }
    let probe = chacha20poly1305_factory([0; 32]);
    for size in [ReplayWindow::SIZE, 4] {
        assert_windows_agree(
            stream.iter().filter_map(|frame| probe.sequence_of(frame)),
            size,
            &format!("seed {seed}, interval {interval}"),
        );
    }
    (*receiver.stats(), widest_step)
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
    // The stream really exercised every branch of the key choice.
    assert!(total.accepted > 0, "{total:?}");
    assert!(total.epoch_advances > 0, "{total:?}");
    assert!(total.epoch_behind > 0, "{total:?}");
    assert!(total.auth_failed > 0, "{total:?}");
    assert!(total.replay_rejected > 0, "{total:?}");
    assert!(widest_step > 16, "no brownout jumped several epochs");
}
