//! The gateway-side nonce audit, rebuilt from the sessions' ledgers.
//!
//! Each session enters its accepted `(epoch, sequence)` pairs in its own
//! nonce ledger, and [`Gateway::nonce_audit`] folds the ledgers back into
//! one `FleetNonceAudit` at report time. Two checks here:
//!
//! - on clean fleets (1 and 4 shards, static keys and a 16-frame rekey
//!   interval) the audit holds exactly one distinct triple per accepted
//!   frame, and a rekeying fleet shows more `(sensor, epoch)` cells than
//!   sensors;
//! - on seeded hostile streams the rebuilt audit equals a reference
//!   `FleetNonceAudit` fed every accepted frame through `observe`, keyed
//!   on the epoch its sensor sealed it under, and its violations equal
//!   the maximal reuse runs of a plain multiset model. The streams mix
//!   in-order frames, reorders inside the 64-frame replay window,
//!   replayed duplicates, stragglers from the epoch before the
//!   receiver's, brownout epoch jumps and re-provisioning mid-stream
//!   (after which a replay of the sensor's recent frames is accepted
//!   again: a recorded reuse).

use std::collections::BTreeMap;

use age_core::{AgeEncoder, Batch, BatchConfig, Encoder};
use age_crypto::ChaCha20Poly1305;
use age_fixed::Format;
use age_gateway::{
    derive_key, derive_root, stagger_phase, Cohort, FleetFrame, Gateway, GatewayConfig,
};
use age_telemetry::{DetRng, FleetNonceAudit, FleetNonceReuse};
use age_transport::{chacha20poly1305_factory, Sensor};

const SEED: u64 = 31;
const INTERVAL: u64 = 16;

fn batch_cfg() -> BatchConfig {
    BatchConfig::new(25, 2, Format::new(16, 10).unwrap()).unwrap()
}

fn gateway(shards: usize, rekey_interval: Option<u64>) -> Gateway {
    let mut config = GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        shards,
    );
    config.rekey_interval = rekey_interval;
    Gateway::new(config)
}

fn sensor(id: u64, rekey_interval: Option<u64>) -> Sensor {
    match rekey_interval {
        Some(interval) => Sensor::with_rekey(
            derive_root(SEED, id),
            interval,
            stagger_phase(SEED, id, interval),
            chacha20poly1305_factory,
        ),
        None => Sensor::new(Box::new(ChaCha20Poly1305::new(derive_key(SEED, id)))),
    }
}

/// One AGE payload per event class.
fn payloads() -> Vec<Vec<u8>> {
    let cfg = batch_cfg();
    let age = AgeEncoder::new(160);
    (0..3)
        .map(|event| {
            let kept = 6 + event * 8;
            let batch = Batch::new(
                (0..kept).collect(),
                (0..kept * 2).map(|v| (v as f64) * 0.25 - 3.0).collect(),
            )
            .unwrap();
            age.encode(&batch, &cfg).unwrap()
        })
        .collect()
}

/// Seals the next frame of sensor `id`; returns it with the epoch it was
/// sealed under.
fn seal(id: u64, sensor: &mut Sensor, payloads: &[Vec<u8>], stamp: u64) -> (FleetFrame, u64) {
    let event = (stamp as usize / 7) % payloads.len();
    let mut sealed = Vec::new();
    sensor.seal_into(&payloads[event], &mut sealed).unwrap();
    (
        FleetFrame::encode(id, &sealed, event, stamp * 1_000),
        sensor.epoch(),
    )
}

#[test]
fn clean_fleets_hold_one_triple_per_accepted_frame() {
    const SENSORS: u64 = 40;
    const FRAMES: u64 = 48;
    let payloads = payloads();
    for rekey_interval in [None, Some(INTERVAL)] {
        let mut sensors: Vec<Sensor> = (0..SENSORS).map(|id| sensor(id, rekey_interval)).collect();
        let mut traffic = Vec::new();
        for round in 0..FRAMES {
            for (id, sensor) in sensors.iter_mut().enumerate() {
                let stamp = round * SENSORS + id as u64 + 1;
                traffic.push(seal(id as u64, sensor, &payloads, stamp).0);
            }
        }
        let mut audits = Vec::new();
        for shards in [1, 4] {
            let mut gateway = gateway(shards, rekey_interval);
            for id in 0..SENSORS {
                gateway.provision(id, 0).unwrap();
            }
            gateway.run(&traffic, shards);
            let accepted = gateway.fleet_report().stats.accepted;
            assert_eq!(
                accepted,
                SENSORS * FRAMES,
                "{shards} shards, {rekey_interval:?}"
            );
            let audit = gateway.nonce_audit();
            assert_eq!(
                audit.frames(),
                accepted,
                "{shards} shards, {rekey_interval:?}"
            );
            assert_eq!(
                audit.distinct(),
                accepted,
                "{shards} shards, {rekey_interval:?}"
            );
            assert_eq!(audit.sensors(), SENSORS as usize);
            assert!(audit.is_clean() && gateway.nonces_clean());
            if rekey_interval.is_some() {
                assert!(
                    audit.cells() > audit.sensors(),
                    "a rekeying fleet seals under more than one epoch per sensor"
                );
            } else {
                assert_eq!(audit.cells(), audit.sensors());
            }
            audits.push(audit);
        }
        assert_eq!(audits[0], audits[1], "the audit depends on the shard count");
    }
}

/// One step of a sensor's hostile stream, in arrival order.
enum Arrival {
    Frame(FleetFrame),
    /// The gateway re-provisions the sensor.
    Reprovision(u64),
}

/// A seeded arrival stream from `sensors` rekeying sensors, and the epoch
/// each `(sensor, sequence)` was sealed under.
fn hostile_stream(seed: u64, sensors: u64) -> (Vec<Arrival>, BTreeMap<(u64, u64), u64>) {
    let payloads = payloads();
    let mut rng = DetRng::seed_from_u64(seed);
    let mut fleet: Vec<Sensor> = (0..sensors).map(|id| sensor(id, Some(INTERVAL))).collect();
    // Per sensor: every frame it sealed, and one it holds back.
    let mut sealed: Vec<Vec<FleetFrame>> = vec![Vec::new(); sensors as usize];
    let mut held: Vec<Option<FleetFrame>> = vec![None; sensors as usize];
    let mut epochs = BTreeMap::new();
    let mut out = Vec::new();
    let mut stamp = 0u64;
    for _ in 0..600 {
        let id = rng.gen_range(0..sensors);
        let slot = id as usize;
        match rng.gen_range(0..100u32) {
            // A burst, shuffled: reorders inside the window, and stragglers
            // when the burst straddles a rotation.
            0..=59 => {
                let mut burst = Vec::new();
                for _ in 0..rng.gen_range(1..=6usize) {
                    stamp += 1;
                    let (frame, epoch) = seal(id, &mut fleet[slot], &payloads, stamp);
                    epochs.insert((id, fleet[slot].next_sequence() - 1), epoch);
                    sealed[slot].push(frame.clone());
                    burst.push(frame);
                }
                for i in (1..burst.len()).rev() {
                    burst.swap(i, rng.gen_range(0..=i));
                }
                out.extend(burst.into_iter().map(Arrival::Frame));
                if let Some(frame) = held[slot].take() {
                    out.push(Arrival::Frame(frame));
                }
            }
            // Hold one frame back until the sensor's next burst.
            60..=69 => {
                if held[slot].is_none() {
                    stamp += 1;
                    let (frame, epoch) = seal(id, &mut fleet[slot], &payloads, stamp);
                    epochs.insert((id, fleet[slot].next_sequence() - 1), epoch);
                    sealed[slot].push(frame.clone());
                    held[slot] = Some(frame);
                }
            }
            // A replayed duplicate from inside or behind the window.
            70..=81 => {
                if let Some(frame) = sealed[slot].iter().rev().nth(rng.gen_range(0..48usize)) {
                    out.push(Arrival::Frame(frame.clone()));
                }
            }
            // A brownout: the sensor resumes ahead, epochs later.
            82..=93 => {
                let next = fleet[slot].next_sequence();
                fleet[slot].reboot_at(next + rng.gen_range(1..=3 * INTERVAL));
            }
            // Re-provisioning, then a replay of the sensor's recent frames
            // in shuffled order: the fresh receiver accepts them again.
            _ => {
                out.push(Arrival::Reprovision(id));
                let recent = sealed[slot].len().saturating_sub(rng.gen_range(1..=8usize));
                let mut replay: Vec<FleetFrame> = sealed[slot][recent..].to_vec();
                for i in (1..replay.len()).rev() {
                    replay.swap(i, rng.gen_range(0..=i));
                }
                out.extend(replay.into_iter().map(Arrival::Frame));
            }
        }
    }
    (out, epochs)
}

/// The maximal runs of sequences a `(sensor, epoch)` cell accepted more
/// than once, in `(sensor, epoch, sequence)` order.
fn model_violations(model: &BTreeMap<(u64, u64), BTreeMap<u64, u32>>) -> Vec<FleetNonceReuse> {
    let mut out: Vec<FleetNonceReuse> = Vec::new();
    for (&(sensor_id, epoch), seqs) in model {
        for (&seq, _) in seqs.iter().filter(|(_, &n)| n > 1) {
            match out.last_mut() {
                Some(last)
                    if (last.sensor_id, last.epoch) == (sensor_id, epoch)
                        && last.last + 1 == seq =>
                {
                    last.last = seq
                }
                _ => out.push(FleetNonceReuse {
                    sensor_id,
                    epoch,
                    first: seq,
                    last: seq,
                }),
            }
        }
    }
    out
}

#[test]
fn the_rebuilt_audit_matches_per_frame_observation() {
    const SENSORS: u64 = 5;
    let mut stragglers = 0;
    let mut reuses = 0;
    for seed in 0..8u64 {
        let (stream, epochs) = hostile_stream(seed, SENSORS);
        for shards in [1, 4] {
            let mut gateway = gateway(shards, Some(INTERVAL));
            for id in 0..SENSORS {
                gateway.provision(id, 0).unwrap();
            }
            let mut reference = FleetNonceAudit::new();
            let mut model: BTreeMap<(u64, u64), BTreeMap<u64, u32>> = BTreeMap::new();
            for arrival in &stream {
                match arrival {
                    Arrival::Reprovision(id) => gateway.provision(*id, 0).unwrap(),
                    Arrival::Frame(frame) => {
                        let Ok(seq) = gateway.ingest(frame) else {
                            continue;
                        };
                        let id = age_gateway::sensor_id_of(&frame.wire).unwrap();
                        let epoch = epochs[&(id, seq)];
                        reference.observe(id, epoch, seq);
                        *model
                            .entry((id, epoch))
                            .or_default()
                            .entry(seq)
                            .or_default() += 1;
                    }
                }
                assert_eq!(gateway.nonces_clean(), reference.is_clean());
            }
            let audit = gateway.nonce_audit();
            let context = format!("seed {seed}, {shards} shards");
            assert_eq!(audit, reference, "{context}");
            assert_eq!(audit.violations(), reference.violations(), "{context}");
            assert_eq!(audit.violations(), model_violations(&model), "{context}");
            assert_eq!(audit.frames(), gateway.fleet_report().stats.accepted);
            let distinct: usize = model.values().map(BTreeMap::len).sum();
            assert_eq!(audit.distinct(), distinct as u64, "{context}");
            assert_eq!(audit.cells(), model.len(), "{context}");
            stragglers += gateway.receiver_stats().epoch_behind;
            reuses += audit.violations().len();
        }
    }
    // The streams really exercised the paths the ledger must get right.
    assert!(
        stragglers > 0,
        "no frame opened behind its receiver's epoch"
    );
    assert!(reuses > 0, "no re-provisioned replay was accepted twice");
}

#[test]
fn a_re_provisioned_session_accepts_a_sensor_past_the_skip_limit() {
    // An empty replay window applies no far-future limit, so a session
    // provisioned again for a sensor already past `MAX_SKIP` resumes.
    let payloads = payloads();
    let mut gateway = gateway(1, None);
    gateway.provision(3, 0).unwrap();
    let mut sensor = sensor(3, None);
    for stamp in 1..=1500 {
        let (frame, _) = seal(3, &mut sensor, &payloads, stamp);
        assert!(gateway.ingest(&frame).is_ok());
    }
    gateway.provision(3, 0).unwrap();
    let (frame, _) = seal(3, &mut sensor, &payloads, 1501);
    assert_eq!(gateway.ingest(&frame), Ok(1500));
}
