//! Differential test of the receiver's cipher parameter.
//!
//! `Receiver<C>` holds its cipher by value: the gateway stores
//! `Receiver<ChaCha20Poly1305>` inline, while links keep the default
//! `Receiver<Box<dyn Cipher>>`. The choice must change nothing a caller
//! can see. Both receivers get the same root, interval and phase and one
//! seeded hostile stream: in-order frames, in-window and stale replays,
//! forgeries, brownout jumps into epochs the receiver has never seen (some
//! past the far-future guard) and truncated frames. After every frame the
//! verdict, the error variant, the payload, `epoch()`, `last_epoch()`,
//! the replay window's high mark and the `ReceiverStats` must be equal.
//! A `Box<C>` forwarding impl that missed `sequence_of` fails here on
//! the first frame; one that missed `seal_into` or `open_into` falls back
//! to the allocating trait default, which the last test catches.

use age_crypto::kdf::{fleet_secret, sensor_root};
use age_crypto::{ChaCha20Poly1305, Cipher};
use age_telemetry::alloc::{self, CountingAllocator};
use age_telemetry::DetRng;
use age_transport::{chacha20poly1305_factory, Receiver, Sensor, MAX_SKIP};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// A seeded arrival stream from a sensor built by `make`, plus its
/// attacker and the sensor's own brownouts.
fn hostile_stream(make: impl Fn() -> Sensor, seed: u64, frames: usize) -> Vec<Vec<u8>> {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut sensor = make();
    let mut sealed: Vec<Vec<u8>> = Vec::new();
    let mut out = Vec::with_capacity(frames);
    while out.len() < frames {
        let payload: Vec<u8> = (0..rng.gen_range(0..40usize))
            .map(|_| rng.next_u64() as u8)
            .collect();
        match rng.gen_range(0..100u32) {
            0..=59 => {
                let (_, frame) = sensor.seal(&payload).unwrap();
                sealed.push(frame.clone());
                out.push(frame);
            }
            // Replays: mostly from inside the replay window, some from far
            // behind it (and from older epochs).
            60..=71 => {
                if !sealed.is_empty() {
                    let back = if rng.gen_bool(0.7) {
                        rng.gen_range(0..48usize)
                    } else {
                        rng.gen_range(0..sealed.len())
                    };
                    let at = sealed.len() - 1 - back.min(sealed.len() - 1);
                    out.push(sealed[at].clone());
                }
            }
            // Forgeries: a flipped bit, or noise of a genuine frame's
            // length.
            72..=81 => {
                let (_, mut frame) = sensor.seal(&payload).unwrap();
                if rng.gen_bool(0.5) {
                    let at = rng.gen_range(0..frame.len());
                    frame[at] ^= 1 << rng.gen_range(0..8u32);
                } else {
                    frame.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
                }
                out.push(frame);
            }
            // A brownout: the sensor resumes ahead, into epochs the
            // receiver has not derived yet.
            82..=84 => {
                let jump = rng.gen_range(1..=MAX_SKIP / 2);
                sensor.reboot_at(sensor.next_sequence() + jump);
            }
            // A genuine frame from past the far-future guard and every
            // rekeying receiver's derivation budget (a replayed frame from
            // a cloned sensor, say): rejected without an open.
            85 => {
                let mut ghost = make();
                ghost.reboot_at(
                    sensor.next_sequence() + rng.gen_range(2 * MAX_SKIP + 1..=4 * MAX_SKIP),
                );
                out.push(ghost.seal(&payload).unwrap().1);
            }
            // Frames sealed but lost: later arrivals skip epochs.
            86..=89 => {
                for _ in 0..rng.gen_range(1..=40u32) {
                    sealed.push(sensor.seal(&payload).unwrap().1);
                }
            }
            // Truncations of a genuine frame, down to the empty datagram.
            _ => {
                let (_, frame) = sensor.seal(&payload).unwrap();
                let keep = rng.gen_range(0..frame.len());
                out.push(frame[..keep].to_vec());
            }
        }
    }
    out
}

/// Feeds `stream` to both receivers and compares everything observable
/// after each frame. Returns how many frames were accepted.
fn run_beside(
    mut inline: Receiver<ChaCha20Poly1305>,
    mut boxed: Receiver<Box<dyn Cipher>>,
    stream: &[Vec<u8>],
    context: &str,
) -> u64 {
    for (i, frame) in stream.iter().enumerate() {
        let a = inline.receive(frame);
        let b = boxed.receive(frame);
        assert_eq!(a, b, "{context}, frame {i}: verdicts differ");
        assert_eq!(inline.epoch(), boxed.epoch(), "{context}, frame {i}");
        assert_eq!(
            inline.last_epoch(),
            boxed.last_epoch(),
            "{context}, frame {i}"
        );
        assert_eq!(
            inline.highest_sequence(),
            boxed.highest_sequence(),
            "{context}, frame {i}"
        );
        assert_eq!(inline.stats(), boxed.stats(), "{context}, frame {i}");
    }
    inline.stats().accepted
}

#[test]
fn inline_and_boxed_rekeying_receivers_agree() {
    for seed in 0..3u64 {
        for interval in [0u64, 4, 16, 64] {
            let root = sensor_root(&fleet_secret(seed), 9);
            let phase = if interval == 0 {
                0
            } else {
                seed * 5 % interval
            };
            let stream = hostile_stream(
                || Sensor::with_rekey(root, interval, phase, chacha20poly1305_factory),
                seed ^ interval,
                1_000,
            );
            let inline = Receiver::with_rekey(root, interval, phase, ChaCha20Poly1305::new);
            let boxed = Receiver::with_rekey(root, interval, phase, chacha20poly1305_factory);
            let accepted = run_beside(
                inline,
                boxed,
                &stream,
                &format!("seed {seed}, interval {interval}"),
            );
            assert!(
                accepted > 300,
                "seed {seed}, interval {interval}: {accepted}"
            );
        }
    }
}

#[test]
fn inline_and_boxed_static_receivers_agree() {
    for seed in 0..4u64 {
        let key = sensor_root(&fleet_secret(seed), 3);
        let stream = hostile_stream(
            || Sensor::new(Box::new(ChaCha20Poly1305::new(key))),
            seed,
            1_000,
        );
        let accepted = run_beside(
            Receiver::new(ChaCha20Poly1305::new(key)),
            Receiver::new(Box::new(ChaCha20Poly1305::new(key))),
            &stream,
            &format!("static seed {seed}"),
        );
        assert!(accepted > 300, "static seed {seed}: {accepted}");
    }
}

/// Boxed ciphers seal and open through `Box<C>`'s `seal_into` and
/// `open_into`, which must reach the cipher's allocation-free paths.
#[test]
fn boxed_ciphers_seal_and_open_without_allocating() {
    let key = [5; 32];
    let mut sensor = Sensor::new(Box::new(ChaCha20Poly1305::new(key)));
    let mut receiver: Receiver = Receiver::new(Box::new(ChaCha20Poly1305::new(key)));
    let mut frame = Vec::new();
    let mut payload = Vec::new();
    sensor.seal_into(&[0; 32], &mut frame).unwrap();
    assert_eq!(receiver.receive_into(&frame, &mut payload), Ok(0));

    let before = alloc::snapshot();
    for i in 1..20u8 {
        sensor.seal_into(&[i; 32], &mut frame).unwrap();
        assert_eq!(
            receiver.receive_into(&frame, &mut payload),
            Ok(u64::from(i))
        );
    }
    let delta = alloc::snapshot().since(before);
    assert_eq!(delta.allocations, 0, "{} bytes", delta.bytes);
}
