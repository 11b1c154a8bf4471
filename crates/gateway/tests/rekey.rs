//! Fleet-wide staggered rekey, end to end: ratcheting sensors rotate on
//! their own staggered watermarks, the gateway opens each frame under
//! the key of its watermark epoch with no epoch byte on the wire, and the
//! report artifacts stay byte-identical at any shard or thread count.

use age_core::{AgeEncoder, Batch, BatchConfig, Encoder};
use age_fixed::Format;
use age_gateway::{derive_root, stagger_phase, Cohort, FleetFrame, Gateway, GatewayConfig};
use age_transport::{chacha20poly1305_factory, Sensor};

const SEED: u64 = 2022;
const SENSORS: u64 = 12;
const FRAMES_PER_SENSOR: usize = 40;
const INTERVAL: u64 = 9;

fn batch_cfg() -> BatchConfig {
    BatchConfig::new(25, 2, Format::new(16, 10).unwrap()).unwrap()
}

fn rekey_config(shards: usize) -> GatewayConfig {
    let mut config = GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        shards,
    );
    config.rekey_interval = Some(INTERVAL);
    config
}

/// The whole fleet's traffic in arrival order: sensors interleaved
/// round-robin, each sealing with its own ratchet and rotating at its
/// staggered watermark. Every sensor crosses several epoch boundaries.
fn rekey_traffic() -> Vec<FleetFrame> {
    let cfg = batch_cfg();
    let age = AgeEncoder::new(160);
    let mut sensors: Vec<Sensor> = (0..SENSORS)
        .map(|id| {
            Sensor::with_rekey(
                derive_root(SEED, id),
                INTERVAL,
                stagger_phase(SEED, id, INTERVAL),
                chacha20poly1305_factory,
            )
        })
        .collect();
    let mut traffic = Vec::with_capacity(SENSORS as usize * FRAMES_PER_SENSOR);
    for round in 0..FRAMES_PER_SENSOR {
        for (id, sensor) in sensors.iter_mut().enumerate() {
            let event = (round + id) % 3;
            let kept = 6 + event * 8;
            let batch = Batch::new(
                (0..kept).collect(),
                (0..kept * 2).map(|v| (v as f64) * 0.25 - 3.0).collect(),
            )
            .unwrap();
            let payload = age.encode(&batch, &cfg).unwrap();
            let mut sealed = Vec::new();
            sensor.seal_into(&payload, &mut sealed).unwrap();
            let stamp = (round as u64 * SENSORS + id as u64 + 1) * 20_000;
            traffic.push(FleetFrame::encode(id as u64, &sealed, event, stamp));
        }
    }
    // Every sensor ends well past epoch 0 — the run really exercises
    // rotation, not just the static path with a ratchet bolted on.
    for sensor in &sensors {
        assert!(
            sensor.epoch() >= 3,
            "sensor ended at epoch {} — traffic too short to rekey",
            sensor.epoch()
        );
    }
    traffic
}

fn run_gateway(shards: usize, threads: usize, traffic: &[FleetFrame]) -> Gateway {
    let mut gateway = Gateway::new(rekey_config(shards));
    for id in 0..SENSORS {
        gateway.provision(id, 0).unwrap();
    }
    gateway.run(traffic, threads);
    gateway
}

#[test]
fn rekeying_fleet_is_fully_accepted_and_nonce_clean() {
    let traffic = rekey_traffic();
    let gateway = run_gateway(4, 1, &traffic);
    let stats = gateway.fleet_stats();
    assert_eq!(stats.frames, traffic.len() as u64);
    assert_eq!(stats.accepted, traffic.len() as u64, "{stats:?}");
    // Interval 9 over 40 frames: each sensor crosses at least 3
    // boundaries, and every crossing is counted exactly once.
    assert!(
        stats.rotations >= 3 * SENSORS,
        "only {} rotations followed",
        stats.rotations
    );
    // Global sequence numbers: epochs partition the same per-sensor
    // sequence stream, so the audit sees every sensor across multiple
    // epochs with zero overlap.
    let audit = gateway.nonce_audit();
    assert!(audit.is_clean(), "{audit}");
    assert!(audit.cells() > SENSORS as usize);
}

#[test]
fn epoch_boundaries_leave_no_wire_size_signature() {
    // The AGE encoder pads every event to the same payload size, and a
    // rotation swaps the key without touching the frame layout — so all
    // frames in a rekeying run are byte-constant on the wire and the
    // rotation schedule is invisible to a size channel.
    let lens: Vec<usize> = rekey_traffic().iter().map(|f| f.wire.len()).collect();
    assert!(
        lens.windows(2).all(|w| w[0] == w[1]),
        "wire sizes vary: min {:?} max {:?}",
        lens.iter().min(),
        lens.iter().max()
    );
}

#[test]
fn report_is_byte_identical_across_shard_and_thread_counts() {
    let traffic = rekey_traffic();
    let baseline = run_gateway(1, 1, &traffic);
    let reference = baseline.fleet_report().to_json();
    assert!(reference.contains("\"rotations\":"));
    for (shards, threads) in [(4usize, 1usize), (4, 4), (8, 3)] {
        let gateway = run_gateway(shards, threads, &traffic);
        assert_eq!(
            gateway.fleet_report().to_json(),
            reference,
            "report diverged at {shards} shards / {threads} threads"
        );
        assert!(gateway.nonce_audit().is_clean());
    }
}

#[test]
fn static_fleet_report_still_renders_zero_rotations() {
    // The legacy path: no rekey interval, same key list and a literal
    // rotations counter of 0 — downstream parsers see one schema.
    let mut gateway = Gateway::new(GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        2,
    ));
    gateway.provision(1, 0).unwrap();
    let json = gateway.fleet_report().to_json();
    assert!(json.contains("\"rotations\": 0"), "{json}");
}
