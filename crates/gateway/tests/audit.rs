//! Which cohorts the fleet leakage audit reports, and which frames it
//! counts for them.
//!
//! Each shard keeps one size and one gap histogram per cohort, and
//! sessions feed them as their frames are accepted. So:
//!
//! - frames a sensor delivered stay counted after it is re-provisioned
//!   (an eavesdropper saw them whatever the gateway did next);
//! - a cohort nobody was provisioned into gets no entry;
//! - a cohort with sensors but no accepted frames gets an empty entry.

use age_core::{AgeEncoder, Batch, BatchConfig, Encoder, StandardEncoder};
use age_crypto::ChaCha20Poly1305;
use age_fixed::Format;
use age_gateway::{derive_key, Cohort, FleetFrame, Gateway, GatewayConfig, FLEET_LABEL as LABEL};
use age_transport::Sensor;

const SEED: u64 = 11;

fn batch_cfg() -> BatchConfig {
    BatchConfig::new(25, 2, Format::new(16, 10).unwrap()).unwrap()
}

/// A gateway over an `AGE` cohort (0) and a `Std` cohort (1).
fn gateway(shards: usize) -> Gateway {
    Gateway::new(GatewayConfig::new(
        batch_cfg(),
        vec![
            Cohort::new("AGE", Box::new(AgeEncoder::new(160))),
            Cohort::new("Std", Box::new(StandardEncoder)),
        ],
        SEED,
        shards,
    ))
}

/// `count` AGE frames from a fresh static-key sensor, cycling three
/// event classes on a constant 260 ms cadence that starts at 260 ms.
fn frames(sensor_id: u64, count: usize) -> Vec<FleetFrame> {
    let cfg = batch_cfg();
    let age = AgeEncoder::new(160);
    let mut sensor = Sensor::new(Box::new(ChaCha20Poly1305::new(derive_key(SEED, sensor_id))));
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

fn ingest_all(gateway: &mut Gateway, frames: &[FleetFrame]) {
    for frame in frames {
        gateway.ingest(frame).expect("frame accepted");
    }
}

#[test]
fn reprovisioning_keeps_delivered_frames_in_the_audit() {
    for shards in [1, 4] {
        let mut gateway = gateway(shards);
        gateway.provision(3, 0).unwrap();
        ingest_all(&mut gateway, &frames(3, 4));
        // Re-keying the sensor replaces its session; the four frames it
        // already delivered stay in the AGE histograms.
        gateway.provision(3, 0).unwrap();
        let audit = gateway.leakage_audit();
        let sizes = audit.stream(LABEL, "AGE").expect("AGE entry");
        assert_eq!(sizes.total(), 4, "at {shards} shards");
        assert_eq!(audit.gap_stream(LABEL, "AGE").map(|g| g.total()), Some(3));

        // The new session starts a fresh gap anchor: its first frame
        // adds a size but no gap, its second one of each.
        ingest_all(&mut gateway, &frames(3, 2));
        let audit = gateway.leakage_audit();
        assert_eq!(audit.stream(LABEL, "AGE").map(|s| s.total()), Some(6));
        assert_eq!(audit.gap_stream(LABEL, "AGE").map(|g| g.total()), Some(4));
    }
}

#[test]
fn frames_stay_with_the_cohort_they_were_accepted_in() {
    let mut gateway = gateway(2);
    gateway.provision(8, 0).unwrap();
    ingest_all(&mut gateway, &frames(8, 5));
    // Moving the sensor to `Std` leaves `AGE` with no sensor in it,
    // but its frames are still audited under `AGE`; `Std` gets an
    // entry for its new member, empty until that sensor's frames
    // arrive.
    gateway.provision(8, 1).unwrap();
    let report = gateway.leakage_audit().report(10, 1);
    let entries: Vec<(&str, u64, u64)> = report
        .entries
        .iter()
        .map(|e| (e.encoder.as_str(), e.observations, e.gap_observations))
        .collect();
    assert_eq!(entries, [("AGE", 5, 4), ("Std", 0, 0)]);
    let fleet = gateway.fleet_report();
    assert_eq!(fleet.cohorts[0].stats.sensors, 0);
    assert_eq!(fleet.cohorts[1].stats.sensors, 1);
}

#[test]
fn a_cohort_without_sensors_gets_no_entry() {
    let mut gateway = gateway(4);
    for id in 0..6 {
        gateway.provision(id, 0).unwrap();
        ingest_all(&mut gateway, &frames(id, 3));
    }
    let audit = gateway.leakage_audit();
    assert_eq!(audit.len(), 1);
    assert!(audit.stream(LABEL, "Std").is_none());
    assert!(audit.gap_stream(LABEL, "Std").is_none());
    assert_eq!(audit.stream(LABEL, "AGE").map(|s| s.total()), Some(18));
}

#[test]
fn a_cohort_with_sensors_but_no_frames_gets_an_empty_entry() {
    for shards in [1, 3] {
        let mut gateway = gateway(shards);
        gateway.provision(1, 0).unwrap();
        gateway.provision(2, 1).unwrap();
        gateway.provision(4, 1).unwrap();
        ingest_all(&mut gateway, &frames(1, 3));
        let report = gateway.leakage_audit().report(10, 1);
        assert_eq!(report.entries.len(), 2, "at {shards} shards");
        let std = &report.entries[1];
        assert_eq!(std.encoder, "Std");
        assert_eq!(
            (std.observations, std.distinct_sizes, std.gap_observations),
            (0, 0, 0)
        );
        assert_eq!((std.min_wire_bytes, std.max_wire_bytes), (0, 0));
        assert_eq!((std.nmi, std.p_value), (0.0, 1.0));
        assert_eq!((std.timing_nmi, std.timing_p_value), (0.0, 1.0));
    }
}
