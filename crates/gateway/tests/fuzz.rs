//! Cross-sensor confusion fuzzing for the gateway ingest boundary.
//!
//! The addressing header is outside the AEAD envelope, so an attacker
//! can write anything into it; everything else on the wire is theirs to
//! mangle too. This battery replays frames across sensor ids, truncates
//! and oversizes datagrams, corrupts bytes, duplicates, and interleaves
//! sequences out of order — and asserts three things throughout:
//!
//! 1. every rejection is a *structured* [`GatewayError`], never a panic;
//! 2. the counters account for every arrival (`frames == accepted +
//!    rejected`), with each scenario landing in its designated counter;
//! 3. the fleet report stays byte-identical across shard counts even on
//!    hostile traffic.
//!
//! The seeded soak at the bottom is the cargo-test soak leg: thousands
//! of randomized mutations per run, deterministic per seed.

use age_core::{AgeEncoder, Batch, BatchConfig, Encoder, StandardEncoder};
use age_crypto::ChaCha20Poly1305;
use age_fixed::Format;
use age_gateway::{
    derive_key, Cohort, FleetFrame, Gateway, GatewayConfig, GatewayError, HeaderError, HEADER_LEN,
};
use age_telemetry::DetRng;
use age_transport::{ReceiveError, Sensor};

const SEED: u64 = 2022;
const MAX_DATAGRAM: usize = 4096;

fn batch_cfg() -> BatchConfig {
    BatchConfig::new(25, 2, Format::new(16, 10).unwrap()).unwrap()
}

fn gateway(sensors: u64, shards: usize) -> Gateway {
    let config = GatewayConfig::new(
        batch_cfg(),
        vec![
            Cohort::new("AGE", Box::new(AgeEncoder::new(160))),
            Cohort::new("Std", Box::new(StandardEncoder)),
        ],
        SEED,
        shards,
    );
    let mut gateway = Gateway::new(config);
    for id in 0..sensors {
        gateway.provision(id, (id % 5 == 4) as usize).unwrap();
    }
    gateway
}

/// Seals `frames_per_sensor` valid frames for each of `sensors` sensors,
/// interleaved round-robin (sensor 0, 1, .., n-1, 0, 1, ..).
fn valid_traffic(sensors: u64, frames_per_sensor: usize) -> Vec<FleetFrame> {
    let cfg = batch_cfg();
    let age = AgeEncoder::new(160);
    let std_enc = StandardEncoder;
    let mut senders: Vec<Sensor> = (0..sensors)
        .map(|id| Sensor::new(Box::new(ChaCha20Poly1305::new(derive_key(SEED, id)))))
        .collect();
    let mut rng = DetRng::seed_from_u64(SEED ^ 0xf1ee);
    let mut frames = Vec::new();
    for round in 0..frames_per_sensor {
        for id in 0..sensors {
            let event = rng.gen_range(0..3usize);
            let kept = 6 + event * 8;
            let batch = Batch::new(
                (0..kept).collect(),
                (0..kept * 2).map(|_| rng.gen_range(-8.0..8.0)).collect(),
            )
            .unwrap();
            let payload = if id % 5 == 4 {
                std_enc.encode(&batch, &cfg).unwrap()
            } else {
                age.encode(&batch, &cfg).unwrap()
            };
            let mut sealed = Vec::new();
            senders[id as usize]
                .seal_into(&payload, &mut sealed)
                .unwrap();
            let sent_at = (round as u64 * sensors + id + 1) * 10_000;
            frames.push(FleetFrame::encode(id, &sealed, event, sent_at));
        }
    }
    frames
}

#[test]
fn cross_sensor_header_rewrite_is_rejected_as_auth_failure() {
    let mut gw = gateway(10, 4);
    let frames = valid_traffic(10, 2);
    // Replay sensor 0's frame under every other sensor's id: routing
    // honors the forged header, but the target session's key refuses
    // the frame.
    for victim in 1..10u64 {
        let mut forged = frames[0].clone();
        forged.wire[..HEADER_LEN].copy_from_slice(&victim.to_le_bytes());
        let err = gw.ingest(&forged).unwrap_err();
        assert!(
            matches!(err, GatewayError::Receive(ReceiveError::Cipher(_))),
            "forged header for sensor {victim} produced {err:?}"
        );
    }
    let report = gw.fleet_report();
    assert_eq!(report.stats.auth_failed, 9);
    assert_eq!(report.stats.accepted, 0);
    assert_eq!(report.stats.frames, 9);
}

#[test]
fn truncated_and_oversized_datagrams_are_counted_and_rejected() {
    let mut gw = gateway(4, 2);
    for len in 0..HEADER_LEN {
        let runt = FleetFrame {
            wire: vec![0xAB; len],
            event: 0,
            sent_at_us: 0,
        };
        let err = gw.ingest(&runt).unwrap_err();
        assert_eq!(err, GatewayError::Header(HeaderError::Truncated { len }));
    }
    let oversized = FleetFrame {
        wire: vec![0u8; MAX_DATAGRAM + 1],
        event: 0,
        sent_at_us: 0,
    };
    let err = gw.ingest(&oversized).unwrap_err();
    assert_eq!(
        err,
        GatewayError::Header(HeaderError::Oversized {
            len: MAX_DATAGRAM + 1,
            max: MAX_DATAGRAM
        })
    );
    let report = gw.fleet_report();
    assert_eq!(report.stats.header_truncated, HEADER_LEN as u64);
    assert_eq!(report.stats.header_oversized, 1);
    assert_eq!(report.stats.rejected(), report.stats.frames);
}

#[test]
fn unknown_sensors_and_corrupted_frames_are_structured_errors() {
    let mut gw = gateway(10, 4);
    let frames = valid_traffic(10, 1);

    // Unknown sensor id: valid header shape, no session.
    let mut unknown = frames[0].clone();
    unknown.wire[..HEADER_LEN].copy_from_slice(&999u64.to_le_bytes());
    assert_eq!(
        gw.ingest(&unknown).unwrap_err(),
        GatewayError::UnknownSensor { sensor_id: 999 }
    );

    // Every single-byte corruption of the sealed region must fail
    // authentication (AEAD covers the whole frame).
    let mut corrupted_count = 0u64;
    for position in HEADER_LEN..frames[1].wire.len() {
        let mut corrupt = frames[1].clone();
        corrupt.wire[position] ^= 0x40;
        let err = gw.ingest(&corrupt).unwrap_err();
        assert!(
            matches!(
                err,
                GatewayError::Receive(ReceiveError::Cipher(_))
                    | GatewayError::Receive(ReceiveError::FarFuture { .. })
            ),
            "corrupt byte at {position} produced {err:?}"
        );
        corrupted_count += 1;
    }
    let report = gw.fleet_report();
    assert_eq!(report.stats.unknown_sensor, 1);
    assert_eq!(
        report.stats.auth_failed + report.stats.far_future,
        corrupted_count
    );
    assert_eq!(report.stats.accepted, 0);
}

#[test]
fn duplicates_are_replay_rejected_and_sealed_garbage_fails_decode() {
    let mut gw = gateway(10, 4);
    let frames = valid_traffic(10, 1);

    // First arrival accepted, exact duplicate replay-rejected.
    gw.ingest(&frames[0]).unwrap();
    assert!(matches!(
        gw.ingest(&frames[0]).unwrap_err(),
        GatewayError::Receive(ReceiveError::Replay(_))
    ));

    // A frame sealed under the *correct* key whose payload is not a
    // valid encoding authenticates but fails decode.
    let mut sensor = Sensor::new(Box::new(ChaCha20Poly1305::new(derive_key(SEED, 3))));
    let mut sealed = Vec::new();
    sensor.seal_into(&[0u8; 10], &mut sealed).unwrap();
    let garbage = FleetFrame::encode(3, &sealed, 0, 50);
    assert!(matches!(
        gw.ingest(&garbage).unwrap_err(),
        GatewayError::Decode(_)
    ));

    let report = gw.fleet_report();
    assert_eq!(report.stats.accepted, 1);
    assert_eq!(report.stats.replay_rejected, 1);
    assert_eq!(report.stats.decode_failed, 1);
}

#[test]
fn out_of_order_interleaving_is_absorbed_by_the_replay_window() {
    let frames = valid_traffic(20, 4);
    let mut in_order = gateway(20, 4);
    in_order.run(&frames, 2);

    // Reverse each sensor's sequence order and interleave adversarially
    // (whole trace reversed): the 64-entry replay window accepts every
    // frame, and the deterministic report matches the in-order run.
    let reversed: Vec<FleetFrame> = frames.iter().rev().cloned().collect();
    let mut shuffled = gateway(20, 4);
    shuffled.run(&reversed, 2);

    assert_eq!(in_order.fleet_report().stats.accepted, 20 * 4);
    assert_eq!(
        shuffled.fleet_report().stats.accepted,
        20 * 4,
        "out-of-order arrival within the window must not drop frames"
    );
    assert_eq!(
        in_order.fleet_report().to_json(),
        shuffled.fleet_report().to_json(),
        "arrival order must not reach the deterministic report"
    );
}

/// One randomized mutation of a valid frame; returns whether the result
/// can still be accepted (i.e. the mutation was the identity).
fn mutate(rng: &mut DetRng, frame: &mut FleetFrame, sensors: u64) -> bool {
    match rng.gen_range(0..6u32) {
        0 => {
            // Cross-sensor rewrite.
            let target = rng.gen_range(0..sensors);
            frame.wire[..HEADER_LEN].copy_from_slice(&target.to_le_bytes());
            false
        }
        1 => {
            // Truncate somewhere, possibly below the header.
            let keep = rng.gen_range(0..frame.wire.len());
            frame.wire.truncate(keep);
            false
        }
        2 => {
            // Oversize with trailing garbage.
            let extra = rng.gen_range(1..64usize);
            frame
                .wire
                .extend(std::iter::repeat_n(0xEE, MAX_DATAGRAM + extra));
            false
        }
        3 => {
            // Flip one byte anywhere.
            let position = rng.gen_range(0..frame.wire.len());
            frame.wire[position] ^= 1 << rng.gen_range(0..8u32);
            false
        }
        4 => {
            // Address an unprovisioned sensor.
            let ghost = sensors + rng.gen_range(1..1000u64);
            frame.wire[..HEADER_LEN].copy_from_slice(&ghost.to_le_bytes());
            false
        }
        _ => true, // leave valid
    }
}

#[test]
fn fuzz_soak_structured_errors_full_accounting_any_shard_count() {
    for seed in 0..8u64 {
        let mut rng = DetRng::seed_from_u64(seed);
        let sensors = 30u64;
        let mut frames = valid_traffic(sensors, 4);
        let mut duplicates = Vec::new();
        for frame in frames.iter_mut() {
            if rng.gen_bool(0.1) {
                duplicates.push(frame.clone());
            }
            if rng.gen_bool(0.4) {
                mutate(&mut rng, frame, sensors);
            }
        }
        frames.extend(duplicates);
        let total = frames.len() as u64;

        // Single-frame path: every outcome is a structured error.
        let mut single = gateway(sensors, 1);
        let mut accepted = 0u64;
        for frame in &frames {
            match single.ingest(frame) {
                Ok(_) => accepted += 1,
                Err(
                    GatewayError::Header(_)
                    | GatewayError::UnknownSensor { .. }
                    | GatewayError::UnknownCohort { .. }
                    | GatewayError::Receive(_)
                    | GatewayError::Decode(_),
                ) => {}
            }
        }
        let report = single.fleet_report();
        assert_eq!(
            report.stats.frames, total,
            "seed {seed}: every arrival counted"
        );
        assert_eq!(report.stats.accepted, accepted);
        assert_eq!(
            report.stats.accepted + report.stats.rejected(),
            total,
            "seed {seed}: counters must partition arrivals"
        );
        assert!(accepted > 0, "seed {seed}: soak kept no valid traffic");

        // The same hostile trace through 4 shards / 4 threads folds to
        // the same bytes.
        let mut sharded = gateway(sensors, 4);
        sharded.run(&frames, 4);
        assert_eq!(
            sharded.fleet_report().to_json(),
            report.to_json(),
            "seed {seed}: hostile traffic broke shard determinism"
        );
    }
}
