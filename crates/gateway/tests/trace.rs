//! Gateway ingest span emission: with a trace sink installed *before* the
//! gateway is built (shard tracers capture the current sink at
//! construction), every frame yields a span tree on its shard's track —
//! `ingest → {decode, audit}` when accepted, a short lone `ingest` when
//! rejected — with the schematic virtual durations pinned, and the
//! rendered Chrome trace is byte-identical across runs and drain thread
//! counts.
use std::sync::Arc;

use age_core::{AgeEncoder, Batch, BatchConfig, Encoder};
use age_crypto::ChaCha20Poly1305;
use age_fixed::Format;
use age_gateway::{derive_key, Cohort, FleetFrame, Gateway, GatewayConfig};
use age_telemetry::{install_thread, render_chrome_json, LeakageSink, SpanEvent, TraceSink};
use age_transport::Sensor;

const SEED: u64 = 7;

fn batch_cfg() -> BatchConfig {
    BatchConfig::new(25, 2, Format::new(16, 10).unwrap()).unwrap()
}

fn gateway_config(shards: usize) -> GatewayConfig {
    GatewayConfig::new(
        batch_cfg(),
        vec![Cohort::new("AGE", Box::new(AgeEncoder::new(160)))],
        SEED,
        shards,
    )
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
            sensor.seal_into(&payload, &mut sealed).unwrap();
            FleetFrame::encode(sensor_id, &sealed, event, (i as u64 + 1) * 260_000)
        })
        .collect()
}

/// Runs one traced gateway pass and returns (spans, rendered JSON).
fn traced_run() -> (Vec<SpanEvent>, String) {
    let sink = Arc::new(TraceSink::new());
    let _guard = install_thread(sink.clone());
    let mut gateway = Gateway::new(gateway_config(4));
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
    let spans = sink.take();
    let json = render_chrome_json(&spans);
    (spans, json)
}

#[test]
fn ingest_spans_form_a_deterministic_per_shard_tree() {
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

/// Drains `SENSORS` sensors' frames through a gateway built under a
/// trace sink, on `threads` drain workers; returns the spans the shard
/// tracers handed the sink.
fn drained_spans(threads: usize) -> Vec<SpanEvent> {
    const SENSORS: u64 = 32;
    let sink = Arc::new(TraceSink::new());
    let mut gateway = {
        let _guard = install_thread(sink.clone());
        Gateway::new(gateway_config(4))
    };
    for sensor_id in 0..SENSORS {
        gateway.provision(sensor_id, 0).unwrap();
    }
    let ids: Vec<u64> = (0..SENSORS).collect();
    gateway.run(&frames(&ids), threads);
    assert_eq!(gateway.fleet_report().stats.accepted, SENSORS);
    sink.take()
}

/// The drain workers install no sink of their own: their spans reach the
/// caller's trace sink through the tracers, from every shard, and render
/// to the same bytes at one and at four drain threads.
#[test]
fn traced_runs_render_identically_at_one_and_four_drain_threads() {
    let one = drained_spans(1);
    let four = drained_spans(4);
    let mut tracks: Vec<u64> = four
        .iter()
        .filter(|s| s.name == "ingest")
        .map(|s| s.track)
        .collect();
    tracks.sort_unstable();
    tracks.dedup();
    assert_eq!(tracks.len(), 4, "a shard's ingest spans are missing");
    assert_eq!(
        four.iter().filter(|s| s.name == "ingest").count(),
        one.iter().filter(|s| s.name == "ingest").count()
    );
    assert_eq!(render_chrome_json(&one), render_chrome_json(&four));
}

/// A gateway built with only an audit sink installed emits no spans,
/// even once a trace sink is installed afterwards: the tracers capture
/// their sink at construction, which is what keeps the hot path at two
/// branches.
#[test]
fn gateway_built_without_a_span_sink_emits_no_spans() {
    let leakage = Arc::new(LeakageSink::new());
    let _leakage_guard = install_thread(leakage);
    let mut gateway = Gateway::new(gateway_config(1));
    gateway.provision(0, 0).unwrap();
    let late = Arc::new(TraceSink::new());
    let _late_guard = install_thread(late.clone());
    for frame in frames(&[0]) {
        gateway.ingest(&frame).expect("valid frame accepted");
    }
    assert!(
        late.take().is_empty(),
        "a late trace sink must not see spans"
    );
}
