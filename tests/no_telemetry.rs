//! The disabled-instrumentation contract: built with `--no-default-features`
//! the encoders must not emit a single record even with a sink installed,
//! because every telemetry call site is compiled out. This is a security
//! property, not just a cost one — instrumentation that survived into MCU
//! builds could itself become a timing side channel.
//!
//! Only compiled when the `telemetry` feature is off; the CI leg running
//! `cargo test --no-default-features` is what exercises it.

#![cfg(not(feature = "telemetry"))]

use std::sync::Arc;

use age::core::{AgeEncoder, Batch, BatchConfig, Encoder, PaddedEncoder, StandardEncoder};
use age::fixed::Format;
use age::telemetry::{install_thread, RecordingSink};

#[test]
fn encoders_emit_nothing_when_the_feature_is_off() {
    let cfg = BatchConfig::new(50, 2, Format::new(16, 12).unwrap()).unwrap();
    let values: Vec<f64> = (0..40).map(|i| (i as f64) * 0.05 - 1.0).collect();
    let batch = Batch::new((0..20).collect(), values).unwrap();

    let sink = Arc::new(RecordingSink::new());
    {
        let _guard = install_thread(sink.clone());
        let encoders: Vec<Box<dyn Encoder>> = vec![
            Box::new(AgeEncoder::new(200)),
            Box::new(StandardEncoder),
            Box::new(PaddedEncoder::for_config(&cfg)),
        ];
        for enc in &encoders {
            let msg = enc.encode(&batch, &cfg).unwrap();
            assert!(!msg.is_empty());
        }
    }
    assert!(
        sink.is_empty(),
        "no-default-features builds must compile out every emit site"
    );
}
