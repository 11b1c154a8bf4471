//! Fuzzes `Receiver::receive` across a reboot boundary: frames a journaled
//! `Sensor` seals before and after its recovery are interleaved with
//! corrupted mutants (truncations, extensions, bit flips) in a shuffled
//! order, and the receiver must never panic, must accept every genuine
//! frame exactly once, and must hand back byte-exact payloads. Beside it
//! runs the trial-open reference (`common::NaiveReceiver`, a set-based
//! replay check), which must reach the same verdict on every frame.

mod common;

use std::collections::BTreeSet;

use age_crypto::kdf::{fleet_secret, sensor_root};
use age_crypto::{AesCbc, ChaCha20Poly1305, Cipher};
use age_telemetry::{DetRng, SliceShuffle};
use age_transport::{
    chacha20poly1305_factory, NvmFaultPlan, NvmStore, ReceiveError, Receiver, ReplayWindow, Sensor,
    SequenceJournal, MAX_SKIP,
};
use common::{assert_windows_agree, epoch_keys, NaiveReceiver};

const KEY: [u8; 32] = [0xC3; 32];

/// NVM that refuses one write attempt in ten and tears one record in four.
const FAULTY_NVM: NvmFaultPlan = NvmFaultPlan {
    fail_rate: 0.1,
    torn_rate: 0.25,
    seed: 0,
};

/// One frame of the fuzz corpus: the genuine bytes or a mutant.
struct Case {
    frame: Vec<u8>,
    genuine: bool,
    payload: Vec<u8>,
}

/// Seals `count` frames of random payload through the sensor's own send
/// path (journal reservation, any due rotation, seal).
fn seal_window(sensor: &mut Sensor, count: usize, rng: &mut DetRng, cases: &mut Vec<Case>) {
    for _ in 0..count {
        let len = rng.gen_range(8..=64);
        let payload: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        // NVM write exhaustion loses the message without radiating;
        // nothing for the receiver to see.
        if let Ok((_, frame)) = sensor.seal(&payload) {
            cases.push(Case {
                frame,
                genuine: true,
                payload,
            });
        }
    }
}

/// Derives corrupted mutants from a genuine frame: truncation, extension,
/// and single-bit flips at seeded positions.
fn mutants(frame: &[u8], rng: &mut DetRng, cases: &mut Vec<Case>) {
    let mut truncated = frame.to_vec();
    truncated.truncate(rng.gen_range(0..=frame.len().saturating_sub(1)));
    cases.push(Case {
        frame: truncated,
        genuine: false,
        payload: Vec::new(),
    });
    let mut extended = frame.to_vec();
    extended.extend_from_slice(&[0xEE; 7]);
    cases.push(Case {
        frame: extended,
        genuine: false,
        payload: Vec::new(),
    });
    let mut flipped = frame.to_vec();
    let at = rng.gen_range(0..flipped.len());
    flipped[at] ^= 1u8 << rng.gen_range(0..8u32);
    cases.push(Case {
        frame: flipped,
        genuine: false,
        payload: Vec::new(),
    });
}

/// Runs one fuzz round: seal frames, reboot mid-window, seal more, mutate,
/// shuffle, and feed everything to a fresh receiver.
fn fuzz_round(seed: u64) {
    let mut rng = DetRng::seed_from_u64(seed);
    let journal = SequenceJournal::new(NvmStore::with_seed(FAULTY_NVM, seed), 8);
    let mut sensor = Sensor::new(Box::new(ChaCha20Poly1305::new(KEY))).with_journal(journal);

    let mut cases = Vec::new();
    seal_window(&mut sensor, 20, &mut rng, &mut cases);
    // The reboot boundary: power is lost (possibly tearing the last NVM
    // record) and the sensor resumes from the journal's high-water mark.
    sensor.reboot();
    seal_window(&mut sensor, 20, &mut rng, &mut cases);

    // Derive mutants from a third of the genuine frames, then shuffle the
    // whole corpus so corrupted and out-of-order frames interleave.
    let genuine_frames: Vec<Vec<u8>> = cases.iter().map(|c| c.frame.clone()).collect();
    for frame in genuine_frames.iter().step_by(3) {
        mutants(frame, &mut rng, &mut cases);
    }
    cases.shuffle(&mut rng);

    let mut receiver: Receiver = Receiver::new(Box::new(ChaCha20Poly1305::new(KEY)));
    let mut naive = NaiveReceiver::new(
        |_| Box::new(ChaCha20Poly1305::new(KEY)),
        0,
        MAX_SKIP,
        ReplayWindow::SIZE,
    );
    let mut accepted = BTreeSet::new();
    let mut delivered = 0usize;
    for (i, case) in cases.iter().enumerate() {
        // The contract under fuzz: receive returns an error, never panics.
        match naive.receive_beside(
            &mut receiver,
            &case.frame,
            &format!("seed {seed}, frame {i}"),
        ) {
            Ok((sequence, payload)) => {
                assert!(
                    accepted.insert(sequence),
                    "sequence {sequence} accepted twice (seed {seed})"
                );
                if case.genuine {
                    assert_eq!(payload, case.payload, "payload mangled (seed {seed})");
                    delivered += 1;
                } else {
                    panic!("a corrupted frame authenticated (seed {seed})");
                }
            }
            Err(
                ReceiveError::Cipher(_)
                | ReceiveError::MissingSequence
                | ReceiveError::Replay(_)
                | ReceiveError::FarFuture { .. },
            ) => {}
        }
    }
    // Shuffling can push a genuine frame behind the replay horizon or past
    // the far-future guard, but most of the window must get through.
    assert!(
        delivered * 2 >= cases.iter().filter(|c| c.genuine).count(),
        "too few genuine frames survived the shuffle (seed {seed})"
    );
    assert_corpus_windows_agree(&cases, seed);
}

/// The corpus's sequence numbers, in arrival order, through both replay
/// windows.
fn assert_corpus_windows_agree(cases: &[Case], seed: u64) {
    let probe = ChaCha20Poly1305::new(KEY);
    for size in [ReplayWindow::SIZE, 4] {
        assert_windows_agree(
            cases.iter().filter_map(|c| probe.sequence_of(&c.frame)),
            size,
            &format!("seed {seed}"),
        );
    }
}

#[test]
fn receiver_survives_shuffled_corrupt_frames_across_a_reboot() {
    for seed in 0..50 {
        fuzz_round(seed);
    }
}

/// Fuzzes the rotation window itself: repeated brownouts land between the
/// first seal under a new key and the radio (and everywhere else), on NVM
/// that tears or refuses records. Frames arrive in order with
/// corrupted mutants interleaved; the rekeying receiver must follow every
/// epoch jump, accept every genuine frame exactly once with byte-exact
/// payloads, and never authenticate a mutant.
fn rotation_fuzz_round(seed: u64) {
    let mut rng = DetRng::seed_from_u64(seed);
    let root = sensor_root(&fleet_secret(seed), 1);
    let interval = rng.gen_range(3..=9);
    let journal = SequenceJournal::new(NvmStore::with_seed(FAULTY_NVM, seed ^ 0x5A), 4);
    let mut sensor =
        Sensor::with_rekey(root, interval, 0, chacha20poly1305_factory).with_journal(journal);

    let mut cases = Vec::new();
    for _ in 0..12 {
        let burst = rng.gen_range(2..=6);
        seal_window(&mut sensor, burst, &mut rng, &mut cases);
        // Half the brownouts strike *inside* the rotation window: the
        // reservation has just been journaled (perhaps torn on the way
        // down) and a frame sealed, but nothing radiates under the new
        // key.
        if rng.gen_bool(0.5) {
            let _ = sensor.abort(b"never radiates", &mut Vec::new());
        } else {
            sensor.reboot();
        }
    }

    // Interleave mutants in place (no shuffle: epoch tracking is forward-
    // only, so this corpus models an ordered link with corruption).
    let mut corpus: Vec<Case> = Vec::new();
    for case in cases {
        let mutate = case.genuine && rng.gen_bool(0.33);
        let frame = case.frame.clone();
        corpus.push(case);
        if mutate {
            mutants(&frame, &mut rng, &mut corpus);
        }
    }

    // The one-key receiver must reach the trial-open reference's verdict.
    let mut receiver = Receiver::with_rekey(root, interval, 0, chacha20poly1305_factory);
    let mut naive = NaiveReceiver::rekeying(
        epoch_keys(root, chacha20poly1305_factory),
        interval,
        MAX_SKIP,
        ReplayWindow::SIZE,
    );
    let mut accepted = BTreeSet::new();
    let genuine = corpus.iter().filter(|c| c.genuine).count();
    for (i, case) in corpus.iter().enumerate() {
        match naive.receive_beside(
            &mut receiver,
            &case.frame,
            &format!("seed {seed}, frame {i}"),
        ) {
            Ok((sequence, payload)) => {
                assert!(
                    accepted.insert(sequence),
                    "sequence {sequence} accepted twice (seed {seed})"
                );
                assert!(
                    case.genuine,
                    "a corrupted frame authenticated (seed {seed})"
                );
                assert_eq!(payload, case.payload, "payload mangled (seed {seed})");
            }
            Err(
                ReceiveError::Cipher(_)
                | ReceiveError::MissingSequence
                | ReceiveError::Replay(_)
                | ReceiveError::FarFuture { .. },
            ) => {
                assert!(
                    !case.genuine,
                    "in-order genuine frame rejected across a rotation (seed {seed})"
                );
            }
        }
    }
    assert_eq!(
        accepted.len(),
        genuine,
        "a genuine frame went missing (seed {seed})"
    );
    assert!(
        receiver.stats().epoch_advances > 0,
        "the corpus must actually cross epoch boundaries (seed {seed})"
    );
    assert_corpus_windows_agree(&corpus, seed);
}

#[test]
fn rekeying_receiver_survives_brownouts_inside_the_rotation_window() {
    for seed in 0..50 {
        rotation_fuzz_round(seed);
    }
}

/// The same boundary under an unauthenticated cipher: corrupted frames may
/// decrypt to garbage (that is the documented trade-off), but the receiver
/// still must not panic and must never accept one sequence twice.
#[test]
fn unauthenticated_ciphers_never_panic_across_a_reboot() {
    for seed in 100..120 {
        let mut rng = DetRng::seed_from_u64(seed);
        let key16 = [0xC3; 16];
        let mut sensor =
            Sensor::new(Box::new(AesCbc::new(key16))).with_journal(SequenceJournal::reliable());
        let mut cases = Vec::new();
        seal_window(&mut sensor, 12, &mut rng, &mut cases);
        sensor.reboot();
        seal_window(&mut sensor, 12, &mut rng, &mut cases);
        let genuine_frames: Vec<Vec<u8>> = cases.iter().map(|c| c.frame.clone()).collect();
        for frame in &genuine_frames {
            mutants(frame, &mut rng, &mut cases);
        }
        cases.shuffle(&mut rng);

        let mut receiver: Receiver = Receiver::new(Box::new(AesCbc::new(key16)));
        let mut naive = NaiveReceiver::new(
            move |_| Box::new(AesCbc::new(key16)),
            0,
            MAX_SKIP,
            ReplayWindow::SIZE,
        );
        let mut accepted = BTreeSet::new();
        for (i, case) in cases.iter().enumerate() {
            let at = format!("seed {seed}, frame {i}");
            if let Ok((sequence, _)) = naive.receive_beside(&mut receiver, &case.frame, &at) {
                assert!(accepted.insert(sequence), "sequence accepted twice");
            }
        }
    }
}
