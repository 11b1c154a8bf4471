//! Allocation-regression tests for the encode hot path.
//!
//! `Encoder::encode_into` with a reused `EncodeScratch` and output buffer
//! must perform **zero heap allocations** in steady state — after one
//! warm-up call has grown every scratch buffer to its working size. A
//! low-power sensor loop encodes thousands of batches; any per-batch
//! allocation is a deterministic regression this test binary catches with a
//! counting global allocator.
//!
//! This test binary owns its `#[global_allocator]`, so these checks live
//! here rather than in the telemetry crate's unit tests. Counters are
//! thread-local and each libtest test runs on its own thread, so the tests
//! do not interfere with each other.

use age_core::mcu::RawBatch;
use age_core::{
    AgeEncoder, Batch, BatchConfig, DeltaCodec, EncodeError, EncodeScratch, Encoder, PaddedEncoder,
    PrunedEncoder, Sample, SingleEncoder, StandardEncoder, UnshiftedEncoder,
};
use age_fixed::Format;
use age_telemetry::alloc::{self, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

fn cfg() -> BatchConfig {
    BatchConfig::new(50, 6, Format::new(16, 13).unwrap()).unwrap()
}

/// Deterministic batch of `k` measurements whose values ramp across several
/// magnitudes, so grouping/merging/splitting all do real work.
fn ramp_batch(k: usize, features: usize) -> Batch {
    let indices: Vec<usize> = (0..k).collect();
    let values: Vec<f64> = (0..k * features)
        .map(|i| {
            let x = i as f64;
            (x * 0.17).sin() * (1.0 + (i % 7) as f64) - 2.5
        })
        .collect();
    Batch::new(indices, values).unwrap()
}

fn test_batches() -> Vec<Batch> {
    vec![
        Batch::empty(),
        ramp_batch(1, 6),
        ramp_batch(25, 6),
        ramp_batch(50, 6),
    ]
}

/// After warming up on every batch once, re-encoding any of them must not
/// touch the heap at all.
fn assert_zero_alloc(name: &str, encoder: &dyn Encoder, batches: &[Batch], cfg: &BatchConfig) {
    let mut scratch = EncodeScratch::new();
    assert_steady_state_zero_alloc(name, batches, |batch, out| {
        encoder.encode_into(batch, cfg, &mut scratch, out)
    });
}

/// [`assert_zero_alloc`] for any encode call that reuses its own buffers.
fn assert_steady_state_zero_alloc<S: Sample>(
    name: &str,
    batches: &[Batch<S>],
    mut encode: impl FnMut(&Batch<S>, &mut Vec<u8>) -> Result<(), EncodeError>,
) {
    let mut out = Vec::new();
    // Warm-up: grows every scratch buffer to its high-water mark.
    for batch in batches {
        encode(batch, &mut out).unwrap_or_else(|e| panic!("{name}: warm-up encode failed: {e}"));
    }
    for (bi, batch) in batches.iter().enumerate() {
        let before = alloc::snapshot();
        for _ in 0..5 {
            encode(batch, &mut out)
                .unwrap_or_else(|e| panic!("{name}: steady-state encode failed: {e}"));
        }
        let delta = alloc::snapshot().since(before);
        assert_eq!(
            delta.allocations,
            0,
            "{name}: batch #{bi} (k={}) allocated {} times ({} bytes) in steady state",
            batch.len(),
            delta.allocations,
            delta.bytes,
        );
    }
}

#[test]
fn age_encoder_is_allocation_free_in_steady_state() {
    // Roomy target: no pruning needed.
    assert_zero_alloc("AGE/220", &AgeEncoder::new(220), &test_batches(), &cfg());
}

#[test]
fn age_encoder_prune_path_is_allocation_free() {
    // Tight target: forces the §4.2 prune stage on full batches.
    assert_zero_alloc("AGE/35", &AgeEncoder::new(35), &test_batches(), &cfg());
}

#[test]
fn age_encoder_without_splitting_is_allocation_free() {
    assert_zero_alloc(
        "AGE/no-split",
        &AgeEncoder::new(220).with_group_splitting(false),
        &test_batches(),
        &cfg(),
    );
}

/// The MCU path — the same encoder on raw `i64` batches, through a reused
/// `EncodeScratch<i64>` — shares every stage and buffer with the `f64`
/// path, so it is allocation-free too.
#[test]
fn mcu_integer_path_is_allocation_free_in_steady_state() {
    let cfg = cfg();
    let batches: Vec<RawBatch> = test_batches()
        .iter()
        .map(|b| RawBatch::from_batch(b, &cfg))
        .collect();
    for (name, encoder) in [
        ("AGE/220", AgeEncoder::new(220)),
        ("AGE/35", AgeEncoder::new(35)),
        (
            "AGE/no-split",
            AgeEncoder::new(220).with_group_splitting(false),
        ),
    ] {
        let mut scratch = EncodeScratch::default();
        assert_steady_state_zero_alloc(&format!("i64 {name}"), &batches, |batch, out| {
            encoder.encode_samples(batch, &cfg, &mut scratch, out)
        });
    }
}

#[test]
fn standard_encoder_is_allocation_free_in_steady_state() {
    assert_zero_alloc("Standard", &StandardEncoder, &test_batches(), &cfg());
}

#[test]
fn padded_encoder_is_allocation_free_in_steady_state() {
    let cfg = cfg();
    assert_zero_alloc(
        "Padded",
        &PaddedEncoder::for_config(&cfg),
        &test_batches(),
        &cfg,
    );
}

#[test]
fn ablation_encoders_are_allocation_free_in_steady_state() {
    let cfg = cfg();
    assert_zero_alloc("Single", &SingleEncoder::new(220), &test_batches(), &cfg);
    assert_zero_alloc(
        "Unshifted",
        &UnshiftedEncoder::new(220),
        &test_batches(),
        &cfg,
    );
    assert_zero_alloc("Pruned", &PrunedEncoder::new(35), &test_batches(), &cfg);
    assert_zero_alloc("Delta", &DeltaCodec, &test_batches(), &cfg);
}

/// The whole sensor-to-server path — encode, seal, transfer, open, decode —
/// must be allocation-free in steady state. This is the property the paper's
/// MCU deployment depends on: a sensor sampling for months cannot afford a
/// heap that fragments, and the receiving server amortizes one buffer set
/// across millions of frames.
fn assert_round_trip_allocation_free(name: &str, encoder: &dyn Encoder) {
    use age_crypto::ChaCha20Poly1305;
    use age_transport::{Receiver, Sensor};

    let cfg = cfg();
    let key = [0x42u8; 32];
    let mut sensor = Sensor::new(Box::new(ChaCha20Poly1305::new(key)));
    let mut receiver = Receiver::new(Box::new(ChaCha20Poly1305::new(key)));
    let batches = test_batches();

    let mut scratch = EncodeScratch::new();
    let mut message = Vec::new();
    let mut frame = Vec::new();
    let mut opened = Vec::new();
    let mut decoded = Batch::empty();

    let mut round_trip = |batch: &Batch,
                          scratch: &mut EncodeScratch,
                          message: &mut Vec<u8>,
                          frame: &mut Vec<u8>,
                          opened: &mut Vec<u8>,
                          decoded: &mut Batch| {
        encoder
            .encode_into(batch, &cfg, scratch, message)
            .expect("bench batches encode");
        sensor.seal_into(message, frame);
        receiver
            .receive_into(frame, opened)
            .expect("sealed frames open");
        encoder
            .decode_into(opened, &cfg, scratch, decoded)
            .expect("sealed messages decode");
        assert_eq!(
            decoded.indices(),
            batch.indices(),
            "round trip lost indices"
        );
    };

    // Warm-up: grow every buffer (scratch, frame, replay window) to its
    // working size.
    for batch in &batches {
        round_trip(
            batch,
            &mut scratch,
            &mut message,
            &mut frame,
            &mut opened,
            &mut decoded,
        );
    }
    for (bi, batch) in batches.iter().enumerate() {
        let before = alloc::snapshot();
        for _ in 0..5 {
            round_trip(
                batch,
                &mut scratch,
                &mut message,
                &mut frame,
                &mut opened,
                &mut decoded,
            );
        }
        let delta = alloc::snapshot().since(before);
        assert_eq!(
            delta.allocations,
            0,
            "{name} round trip: batch #{bi} (k={}) allocated {} times ({} bytes) in steady state",
            batch.len(),
            delta.allocations,
            delta.bytes,
        );
    }
}

#[test]
fn full_round_trip_is_allocation_free_in_steady_state() {
    assert_round_trip_allocation_free("AGE", &AgeEncoder::new(220));
}

/// The fleet's second cohort: the gateway decodes its leaky baseline frames
/// with `StandardEncoder::decode_into`. The padded defense shares its loop.
#[test]
fn standard_layout_round_trips_are_allocation_free_in_steady_state() {
    assert_round_trip_allocation_free("Standard", &StandardEncoder);
    assert_round_trip_allocation_free("Padded", &PaddedEncoder::for_config(&cfg()));
}

#[test]
fn encode_into_matches_encode_bytes() {
    let cfg = cfg();
    let encoders: Vec<Box<dyn Encoder>> = vec![
        Box::new(AgeEncoder::new(220)),
        Box::new(AgeEncoder::new(35)),
        Box::new(StandardEncoder),
        Box::new(PaddedEncoder::for_config(&cfg)),
        Box::new(SingleEncoder::new(220)),
        Box::new(UnshiftedEncoder::new(220)),
        Box::new(PrunedEncoder::new(35)),
        Box::new(DeltaCodec),
    ];
    let mut scratch = EncodeScratch::new();
    let mut out = Vec::new();
    for encoder in &encoders {
        for batch in &test_batches() {
            let fresh = encoder.encode(batch, &cfg).unwrap();
            encoder
                .encode_into(batch, &cfg, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(
                fresh,
                out,
                "{}: encode and encode_into disagree for k={}",
                encoder.name(),
                batch.len()
            );
        }
    }
}
