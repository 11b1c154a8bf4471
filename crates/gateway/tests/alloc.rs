//! Allocation regression for the per-shard steady-state ingest path.
//!
//! A gateway holding 100k+ sessions processes millions of frames; any
//! per-frame allocation is a throughput cliff and a fragmentation
//! hazard. After a warm-up pass has grown the shard's payload buffer,
//! decode scratch, and created every histogram bin the traffic will
//! touch (one size and one gap key per event class, the session's
//! nonce run, the per-sensor BTree nodes), the full frame → open →
//! decode → rollup path must not allocate at all.
//!
//! This test binary owns its `#[global_allocator]`; the counting
//! allocator's counters are thread-local, so measurement runs on the
//! single-frame `ingest` path (the multi-threaded `run` would spread
//! counts across worker threads).

use age_core::{AgeEncoder, Batch, BatchConfig, Encoder};
use age_crypto::ChaCha20Poly1305;
use age_fixed::Format;
use age_gateway::{
    derive_key, derive_root, stagger_phase, Cohort, FleetFrame, Gateway, GatewayConfig,
    GatewayError,
};
use age_telemetry::alloc::{self, CountingAllocator};
use age_transport::{chacha20poly1305_factory, ReceiveError, Sensor};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

const SEED: u64 = 7;
const SENSOR: u64 = 5;

fn batch_cfg() -> BatchConfig {
    BatchConfig::new(25, 2, Format::new(16, 10).unwrap()).unwrap()
}

/// Valid frames from one AGE sensor on a constant cadence, cycling the
/// three event classes. Constant frame size (AGE) + constant cadence
/// means the session's histograms see exactly one (event, size) and one
/// (event, gap) key per class — all created during warm-up.
fn frames(count: usize) -> Vec<FleetFrame> {
    sealed_frames(
        Sensor::new(Box::new(ChaCha20Poly1305::new(derive_key(SEED, SENSOR)))),
        count,
    )
}

/// [`frames`] from a sensor of its own.
fn sealed_frames(mut sensor: Sensor, count: usize) -> Vec<FleetFrame> {
    let cfg = batch_cfg();
    let age = AgeEncoder::new(160);
    (0..count)
        .map(|i| {
            let event = i % 3;
            let kept = 6 + event * 8;
            let batch = Batch::new(
                (0..kept).collect(),
                (0..kept * 2).map(|v| (v as f64) * 0.25 - 3.0).collect(),
            )
            .unwrap();
            let payload = age.encode(&batch, &cfg).unwrap();
            let mut sealed = Vec::new();
            sensor.seal_into(&payload, &mut sealed);
            FleetFrame::encode(SENSOR, &sealed, event, (i as u64 + 1) * 260_000)
        })
        .collect()
}

#[test]
fn steady_state_ingest_is_allocation_free() {
    let config = GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        1,
    );
    let mut gateway = Gateway::new(config);
    gateway.provision(SENSOR, 0).unwrap();

    let all = frames(4 + 30);
    // Warm-up: first frame of each event class plus one wrap-around, so
    // every histogram key — (event, size) and (event, gap) for events
    // 0, 1, 2 — and the session's nonce run exist before measurement.
    let (warmup, steady) = all.split_at(4);
    for frame in warmup {
        gateway.ingest(frame).expect("warm-up frame accepted");
    }

    let before = alloc::snapshot();
    for frame in steady {
        gateway.ingest(frame).expect("steady-state frame accepted");
    }
    let delta = alloc::snapshot().since(before);
    assert_eq!(
        delta.allocations,
        0,
        "steady-state ingest allocated {} times ({} bytes) over {} frames",
        delta.allocations,
        delta.bytes,
        steady.len(),
    );

    let report = gateway.fleet_report();
    assert_eq!(report.stats.accepted, all.len() as u64);
    assert_eq!(report.stats.rejected(), 0);
}

/// The streaming monitor and flight recorder ride the same hot path,
/// so arming them must not reintroduce heap traffic: the recorder ring
/// is preallocated and the monitor's histogram keys are all created by
/// the same warm-up that grows the session's. One giant window keeps
/// the monitor from rolling (a roll allocates fresh window state, which
/// is fine once per window but must not happen per frame).
#[cfg(feature = "telemetry")]
#[test]
fn monitored_steady_state_ingest_is_allocation_free() {
    use age_telemetry::MonitorConfig;

    let mut config = GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        1,
    );
    config.monitor = Some(MonitorConfig {
        // One window spans the whole trace: no mid-steady rolls.
        window_us: 1 << 40,
        ..MonitorConfig::default()
    });
    config.recorder_capacity = 256;
    let mut gateway = Gateway::new(config);
    gateway.provision(SENSOR, 0).unwrap();

    let all = frames(4 + 30);
    let (warmup, steady) = all.split_at(4);
    for frame in warmup {
        gateway.ingest(frame).expect("warm-up frame accepted");
    }

    let before = alloc::snapshot();
    for frame in steady {
        gateway.ingest(frame).expect("steady-state frame accepted");
    }
    let delta = alloc::snapshot().since(before);
    assert_eq!(
        delta.allocations,
        0,
        "monitored steady-state ingest allocated {} times ({} bytes) over {} frames",
        delta.allocations,
        delta.bytes,
        steady.len(),
    );

    // The monitor and recorder really were live the whole time.
    let monitor = gateway.monitor().expect("monitor armed");
    let score = monitor.score(0, 0).expect("window 0 scored");
    assert_eq!(score.observations, all.len() as u64);
    let (records, dropped) = gateway.flight_records();
    assert_eq!(records.len(), all.len());
    assert_eq!(dropped, 0);
}

/// Rejections on the hot path must not allocate either: a flood of
/// garbage datagrams is exactly when the gateway can least afford heap
/// traffic.
#[test]
fn steady_state_rejections_are_allocation_free() {
    let config = GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        1,
    );
    let mut gateway = Gateway::new(config);
    gateway.provision(SENSOR, 0).unwrap();

    let valid = frames(8);
    // Warm the accept path (grows payload/scratch buffers).
    for frame in &valid[..4] {
        gateway.ingest(frame).expect("warm-up frame accepted");
    }
    // Pre-built hostile datagrams: truncated, unknown sensor, corrupted.
    let truncated = FleetFrame {
        wire: vec![1, 2, 3],
        event: 0,
        sent_at_us: 0,
    };
    let mut unknown = valid[4].clone();
    unknown.wire[..8].copy_from_slice(&999u64.to_le_bytes());
    let mut corrupt = valid[5].clone();
    corrupt.wire[20] ^= 0xFF;
    // Warm-up pass over each rejection class (counters are plain
    // fields, but the first corrupt open may grow the payload buffer).
    for frame in [&truncated, &unknown, &corrupt] {
        gateway.ingest(frame).expect_err("hostile frame rejected");
    }

    let before = alloc::snapshot();
    for _ in 0..10 {
        for frame in [&truncated, &unknown, &corrupt] {
            gateway.ingest(frame).expect_err("hostile frame rejected");
        }
    }
    let delta = alloc::snapshot().since(before);
    assert_eq!(
        delta.allocations, 0,
        "steady-state rejection allocated {} times ({} bytes)",
        delta.allocations, delta.bytes,
    );
}

/// Forged frames and stale replays fail every key a rekeying session
/// holds, so each one probes the whole epoch skip budget. The session
/// derives those probe ciphers once and keeps them: after the first
/// forgery has filled its probe cache, further forgeries and replays
/// from more than one epoch back must not touch the heap.
#[test]
fn rekeying_rejections_reuse_the_probe_cache() {
    const INTERVAL: u64 = 16;
    let mut config = GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        1,
    );
    config.rekey_interval = Some(INTERVAL);
    let mut gateway = Gateway::new(config);
    gateway.provision(SENSOR, 0).unwrap();

    let sensor = Sensor::with_rekey(
        derive_root(SEED, SENSOR),
        INTERVAL,
        stagger_phase(SEED, SENSOR, INTERVAL),
        chacha20poly1305_factory,
    );
    // Five epochs of genuine traffic: the session ends at epoch 4 or 5,
    // so the first sixteen frames are at least two epochs old.
    let valid = sealed_frames(sensor, 5 * INTERVAL as usize);
    for frame in &valid {
        gateway.ingest(frame).expect("genuine frame accepted");
    }
    let mut forged = valid[valid.len() - 1].clone();
    forged.wire[30] ^= 0x40;
    let stale = &valid[..10];
    // The first forgery derives the probe cache.
    gateway.ingest(&forged).expect_err("forged frame rejected");

    let before = alloc::snapshot();
    for frame in std::iter::repeat_n(&forged, 10).chain(stale) {
        let verdict = gateway.ingest(frame);
        assert!(
            matches!(verdict, Err(GatewayError::Receive(ReceiveError::Cipher(_)))),
            "{verdict:?}"
        );
    }
    let delta = alloc::snapshot().since(before);
    assert_eq!(
        delta.allocations, 0,
        "rejecting forged and stale frames allocated {} times ({} bytes)",
        delta.allocations, delta.bytes,
    );
    let report = gateway.fleet_report();
    assert_eq!(report.stats.accepted, valid.len() as u64);
    assert_eq!(report.stats.rejected(), 21);
}
