//! Gateway ingest span emission: with a trace sink installed and span
//! collection enabled *before* the gateway is built (shard tracers
//! snapshot the switch at construction), every frame yields a span tree
//! on its shard's track — `ingest → {decode, audit}` when accepted, a
//! short lone `ingest` when rejected — with the schematic virtual
//! durations pinned, and the rendered Chrome trace is byte-identical
//! across runs.
use std::sync::{Arc, Mutex};

use age_core::{AgeEncoder, Batch, BatchConfig, Encoder};
use age_crypto::ChaCha20Poly1305;
use age_fixed::Format;
use age_gateway::{derive_key, Cohort, FleetFrame, Gateway, GatewayConfig};
use age_telemetry::{install_thread, render_chrome_json, set_trace_enabled, SpanEvent, TraceSink};
use age_transport::Sensor;

const SEED: u64 = 7;

/// Serializes the tests in this binary: the trace switch is
/// process-global, so two tests toggling it concurrently would leak
/// spans into each other's thread-local sinks.
static TRACE_SERIAL: Mutex<()> = Mutex::new(());

fn batch_cfg() -> BatchConfig {
    BatchConfig::new(25, 2, Format::new(16, 10).unwrap()).unwrap()
}

/// One sealed frame per listed sensor, 260 ms apart, cycling events.
fn frames(sensors: &[u64]) -> Vec<FleetFrame> {
    let cfg = batch_cfg();
    let age = AgeEncoder::new(160);
    sensors
        .iter()
        .enumerate()
        .map(|(i, &sensor_id)| {
            let event = i % 3;
            let kept = 6 + event * 8;
            let batch = Batch::new(
                (0..kept).collect(),
                (0..kept * 2).map(|v| (v as f64) * 0.25 - 3.0).collect(),
            )
            .unwrap();
            let payload = age.encode(&batch, &cfg).unwrap();
            let mut sensor =
                Sensor::new(Box::new(ChaCha20Poly1305::new(derive_key(SEED, sensor_id))));
            let mut sealed = Vec::new();
            sensor.seal_into(&payload, &mut sealed);
            FleetFrame::encode(sensor_id, &sealed, event, (i as u64 + 1) * 260_000)
        })
        .collect()
}

/// Runs one traced gateway pass and returns (spans, rendered JSON).
fn traced_run() -> (Vec<SpanEvent>, String) {
    let sink = Arc::new(TraceSink::new());
    let _guard = install_thread(sink.clone());
    set_trace_enabled(true);
    let config = GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        4,
    );
    let mut gateway = Gateway::new(config);
    for sensor_id in 0..8u64 {
        gateway.provision(sensor_id, 0).unwrap();
    }
    for frame in frames(&[0, 1, 2, 3, 4, 5, 6, 7]) {
        gateway.ingest(&frame).expect("valid frame accepted");
    }
    // One hostile datagram: its lone truncated-header `ingest` span must
    // still appear, just without decode/audit children.
    let truncated = FleetFrame {
        wire: vec![1, 2, 3],
        event: 0,
        sent_at_us: 9_000_000,
    };
    gateway
        .ingest(&truncated)
        .expect_err("truncated frame rejected");
    set_trace_enabled(false);
    let spans = sink.take();
    let json = render_chrome_json(&spans);
    (spans, json)
}

#[test]
fn ingest_spans_form_a_deterministic_per_shard_tree() {
    let _serial = TRACE_SERIAL.lock().unwrap();
    let (spans, json) = traced_run();

    // Every shard announced its track at construction.
    let mut meta: Vec<&str> = spans
        .iter()
        .filter(|s| s.cat == "meta")
        .map(|s| s.name.as_str())
        .collect();
    meta.sort_unstable();
    assert_eq!(
        meta,
        [
            "gateway/shard-00",
            "gateway/shard-01",
            "gateway/shard-02",
            "gateway/shard-03"
        ]
    );
    // Frames really spread over more than one shard track.
    let mut tracks: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "ingest")
        .map(|s| s.track)
        .collect();
    tracks.sort_unstable();
    tracks.dedup();
    assert!(tracks.len() >= 2, "all frames landed on one shard");

    // 8 accepted + 1 rejected: 9 ingest roots, 8 decode/audit children.
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("ingest"), 9);
    assert_eq!(count("decode"), 8);
    assert_eq!(count("audit"), 8);

    // The schematic durations: decode 60 µs then audit 40 µs under a
    // 100 µs accepted ingest; a rejection closes after 20 µs.
    for span in &spans {
        match (span.name.as_str(), span.dur_us) {
            ("decode", 60) | ("audit", 40) => assert_eq!(span.depth, 1),
            ("ingest", 100) | ("ingest", 20) => assert_eq!(span.depth, 0),
            ("ingest", dur) => panic!("unexpected ingest duration {dur}"),
            _ => {}
        }
    }
    let rejected = spans
        .iter()
        .filter(|s| s.name == "ingest" && s.dur_us == 20)
        .count();
    assert_eq!(rejected, 1);

    // Rendered bytes are stable across complete re-runs.
    let (_, again) = traced_run();
    assert_eq!(json, again, "Chrome-trace render is not byte-deterministic");
    assert!(json.contains("\"thread_name\""));
    assert!(json.contains("gateway/shard-00"));
}

/// A gateway built while tracing is disabled emits nothing, even if the
/// switch is flipped on afterwards — enablement is snapshotted at
/// construction, which is what keeps the hot path at two branches.
#[test]
fn tracer_snapshot_means_late_enable_is_silent() {
    let _serial = TRACE_SERIAL.lock().unwrap();
    let sink = Arc::new(TraceSink::new());
    let _guard = install_thread(sink.clone());
    let config = GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        1,
    );
    let mut gateway = Gateway::new(config);
    gateway.provision(0, 0).unwrap();
    set_trace_enabled(true);
    for frame in frames(&[0]) {
        gateway.ingest(&frame).expect("valid frame accepted");
    }
    set_trace_enabled(false);
    assert!(sink.take().is_empty(), "late enable must not emit spans");
}
