//! Allocation regression for the per-shard steady-state ingest path.
//!
//! A gateway holding 100k+ sessions processes millions of frames; any
//! per-frame allocation is a throughput cliff and a fragmentation
//! hazard. After a warm-up pass has grown the shard's payload buffer,
//! decode scratch, and created every histogram bin the traffic will
//! touch (one size and one gap key per event class in the cohort's
//! histograms, the session's nonce ledger), the full frame → open →
//! decode → rollup path must not allocate at all. A freshly provisioned
//! session joins histograms that already hold its cohort's keys, so its
//! first frames cost only its own nonce ledger.
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
/// means the cohort's histograms see exactly one (event, size) and one
/// (event, gap) key per class — all created during warm-up.
fn frames(count: usize) -> Vec<FleetFrame> {
    frames_of(SENSOR, count)
}

/// [`frames`] from static-key sensor `sensor_id`.
fn frames_of(sensor_id: u64, count: usize) -> Vec<FleetFrame> {
    sealed_frames(
        sensor_id,
        Sensor::new(Box::new(ChaCha20Poly1305::new(derive_key(SEED, sensor_id)))),
        count,
    )
}

/// [`frames`] from a sensor of its own.
fn sealed_frames(sensor_id: u64, mut sensor: Sensor, count: usize) -> Vec<FleetFrame> {
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
            sensor.seal_into(&payload, &mut sealed).unwrap();
            FleetFrame::encode(sensor_id, &sealed, event, (i as u64 + 1) * 260_000)
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
    // 0, 1, 2 — and the session's nonce ledger exist before measurement.
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

/// A sensor's first frames feed histograms its cohort already holds,
/// so a fresh session allocates only its own bookkeeping: one nonce
/// ledger, created by its first frame and extended in place by the
/// rest of a monotone stream.
#[test]
fn fresh_sessions_join_the_cohort_histograms() {
    const SESSIONS: u64 = 100;
    const FRAMES: usize = 4;
    let config = GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        1,
    );
    let mut gateway = Gateway::new(config);
    let warm: Vec<FleetFrame> = (0..SESSIONS).flat_map(|id| frames_of(id, FRAMES)).collect();
    let fresh: Vec<FleetFrame> = (SESSIONS..2 * SESSIONS)
        .flat_map(|id| frames_of(id, FRAMES))
        .collect();
    for id in 0..2 * SESSIONS {
        gateway.provision(id, 0).unwrap();
    }
    for frame in &warm {
        gateway.ingest(frame).expect("warm-up frame accepted");
    }

    let before = alloc::snapshot();
    for frame in &fresh {
        gateway.ingest(frame).expect("fresh-session frame accepted");
    }
    let delta = alloc::snapshot().since(before);
    let per_session = delta.allocations as f64 / SESSIONS as f64;
    assert!(
        per_session <= 1.0,
        "fresh sessions allocated {per_session:.2} times each ({} bytes in all)",
        delta.bytes,
    );
    let report = gateway.fleet_report();
    assert_eq!(report.stats.accepted, 2 * SESSIONS * FRAMES as u64);
}

/// Sessions live by value in 64-session blocks with their ciphers
/// inline, so provisioning static sessions allocates per block and per
/// index doubling, not per sensor.
#[test]
fn provisioning_allocates_per_block_not_per_session() {
    const SESSIONS: u64 = 10_000;
    for shards in [1, 4] {
        let config = GatewayConfig::new(
            batch_cfg(),
            vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
            SEED,
            shards,
        );
        let mut gateway = Gateway::new(config);
        let before = alloc::snapshot();
        for id in 0..SESSIONS {
            gateway.provision(id, 0).unwrap();
        }
        let delta = alloc::snapshot().since(before);
        assert!(
            delta.allocations <= SESSIONS / 32 + 64,
            "provisioning {SESSIONS} sessions on {shards} shards allocated {} times ({} bytes)",
            delta.allocations,
            delta.bytes,
        );
        assert_eq!(gateway.sessions(), SESSIONS);
    }
}

/// The streaming monitor and flight recorder ride the same hot path,
/// so arming them must not reintroduce heap traffic: the recorder ring
/// is preallocated and the monitor's histogram keys are all created by
/// the same warm-up that grows the session's. One giant window keeps
/// the monitor from rolling (a roll allocates fresh window state, which
/// is fine once per window but must not happen per frame).
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

/// A rekeying session tries no key newer than a frame's watermark epoch,
/// so a forgery at a current sequence number tries at most two keys and a
/// replay from more than one epoch back none. Only a forgery claiming a
/// far-ahead sequence probes the whole epoch skip budget; the session
/// derives those probe ciphers once and keeps them. After the first such
/// forgery, further forgeries and stale replays must not touch the heap.
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
    let valid = sealed_frames(SENSOR, sensor, 5 * INTERVAL as usize);
    for frame in &valid {
        gateway.ingest(frame).expect("genuine frame accepted");
    }
    let mut forged = valid[valid.len() - 1].clone();
    forged.wire[30] ^= 0x40;
    // The same forgery with its nonce rewritten to claim a sequence number
    // 2,048 ahead (the sequence sits in wire bytes 12..20).
    let mut far = forged.clone();
    far.wire[12..20].copy_from_slice(&(valid.len() as u64 + 2048).to_le_bytes());
    let stale = &valid[..10];
    // The first far-ahead forgery derives the probe cache.
    gateway.ingest(&forged).expect_err("forged frame rejected");
    gateway.ingest(&far).expect_err("forged frame rejected");

    let before = alloc::snapshot();
    let forgeries = std::iter::repeat_n(&forged, 10).chain(std::iter::repeat_n(&far, 10));
    for frame in forgeries.chain(stale) {
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
    assert_eq!(report.stats.rejected(), 32);
}
