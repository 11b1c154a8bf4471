//! Randomized property tests for the AGE encoder and its variants, driven
//! by the workspace's deterministic PRNG (no external test deps).
//!
//! The central security property: for a fixed configuration and target, the
//! message length is a constant — independent of how many measurements the
//! adaptive policy collected and of the values themselves. A single
//! counterexample would reopen the side-channel.

use age_core::{
    inspect_message, AgeEncoder, Batch, BatchConfig, Encoder, PaddedEncoder, PrunedEncoder,
    SingleEncoder, StandardEncoder, UnshiftedEncoder,
};
use age_fixed::Format;
use age_telemetry::{DetRng, SliceShuffle};

const CASES: usize = 128;

/// A random batch configuration plus a consistent batch.
fn config_and_batch(rng: &mut DetRng) -> (BatchConfig, Batch) {
    let max_len = rng.gen_range(2usize..200);
    let features = rng.gen_range(1usize..8);
    let width = rng.gen_range(4u32..=24) as u8;
    let n = rng.gen_range(0i64..20) as i16;
    let n = (n % i16::from(width)).max(1);
    let fmt = Format::from_integer_bits(width, n as u8).expect("valid by construction");
    let cfg = BatchConfig::new(max_len, features, fmt).expect("valid by construction");
    let k = rng.gen_range(0usize..=max_len);
    let lo = cfg.format().min_value();
    let hi = cfg.format().max_value();
    let values: Vec<f64> = (0..k * cfg.features())
        .map(|_| rng.gen_range(lo..hi))
        .collect();
    let mut all: Vec<usize> = (0..cfg.max_len()).collect();
    all.shuffle(rng);
    all.truncate(k);
    all.sort_unstable();
    let batch = Batch::new(all, values).expect("generator builds valid batches");
    (cfg, batch)
}

/// THE security property: every batch encodes to exactly the target.
#[test]
fn age_messages_are_always_target_sized() {
    let mut rng = DetRng::seed_from_u64(0xA6E1);
    for _ in 0..CASES {
        let (cfg, batch) = config_and_batch(&mut rng);
        let extra = rng.gen_range(0usize..300);
        let target = AgeEncoder::min_target_bytes(&cfg) + extra;
        let enc = AgeEncoder::new(target);
        let msg = enc.encode(&batch, &cfg).unwrap();
        assert_eq!(msg.len(), target);
    }
}

/// Decoding an AGE message always succeeds and yields a subset of the
/// collected indices, in order.
#[test]
fn age_decodes_to_an_ordered_index_subset() {
    let mut rng = DetRng::seed_from_u64(0xA6E2);
    for _ in 0..CASES {
        let (cfg, batch) = config_and_batch(&mut rng);
        let extra = rng.gen_range(0usize..300);
        let target = AgeEncoder::min_target_bytes(&cfg) + extra;
        let enc = AgeEncoder::new(target);
        let out = enc
            .decode(&enc.encode(&batch, &cfg).unwrap(), &cfg)
            .unwrap();
        assert!(out.len() <= batch.len());
        assert!(out.indices().windows(2).all(|w| w[0] < w[1]));
        let mut iter = batch.indices().iter();
        for idx in out.indices() {
            assert!(iter.any(|i| i == idx), "decoded index {idx} not collected");
        }
    }
}

/// Per-value error of surviving measurements is bounded by the half-step
/// of the *narrowest* width AGE may assign (given its pruning floor) —
/// as long as the target gives every value at least MIN_WIDTH bits plus
/// framing, i.e. whenever pruning is a no-op.
#[test]
fn age_error_bounded_when_pruning_is_inactive() {
    let mut rng = DetRng::seed_from_u64(0xA6E3);
    for _ in 0..CASES {
        let (cfg, batch) = config_and_batch(&mut rng);
        // A target generous enough that pruning never fires and the base
        // width is at least MIN_WIDTH.
        let generous = AgeEncoder::min_target_bytes(&cfg)
            + 300  // room for the full group directory
            + batch.len() * cfg.features() * usize::from(cfg.format().width()).div_ceil(8);
        let enc = AgeEncoder::new(generous);
        let out = enc
            .decode(&enc.encode(&batch, &cfg).unwrap(), &cfg)
            .unwrap();
        assert_eq!(out.len(), batch.len(), "no pruning under a generous budget");
        // Worst case: min(MIN_WIDTH, w0) bits (assigned widths never exceed
        // the original width) with a merged exponent of at most the format's
        // n0, so the step is at most 2^(n0 - min(MIN_WIDTH, w0)).
        let n0 = i32::from(cfg.format().integer_bits());
        let worst_width = AgeEncoder::MIN_WIDTH.min(cfg.format().width());
        let worst_step = f64::powi(2.0, n0 - i32::from(worst_width));
        for (a, b) in batch.values().iter().zip(out.values()) {
            assert!(
                (a - b).abs() <= worst_step / 2.0 + 1e-9,
                "value {} decoded {} exceeds bound {}",
                a,
                b,
                worst_step / 2.0
            );
        }
    }
}

/// The round-trip error bound, per group: every decoded value sits within
/// half the quantization step its own group's directory entry declares —
/// for any target, pruning active or not. This is tighter than the
/// worst-case bound above: each group's `(exponent, width)` pair defines
/// the step that bounds exactly the measurements in that group.
#[test]
fn decoded_values_respect_per_group_quantization_error() {
    let mut rng = DetRng::seed_from_u64(0xA6EA);
    for _ in 0..CASES {
        let (cfg, batch) = config_and_batch(&mut rng);
        let extra = rng.gen_range(0usize..300);
        let target = AgeEncoder::min_target_bytes(&cfg) + extra;
        let enc = AgeEncoder::new(target);
        let msg = enc.encode(&batch, &cfg).unwrap();
        let out = enc.decode(&msg, &cfg).unwrap();
        let layout = inspect_message(&msg, &cfg).unwrap();
        assert_eq!(layout.measurements, out.len());
        // Walk the decoded measurements group by group, in wire order.
        let mut t = 0;
        for group in &layout.groups {
            let step = f64::powi(2.0, i32::from(group.exponent) - i32::from(group.width));
            for _ in 0..group.count {
                let index = out.indices()[t];
                let original = batch
                    .indices()
                    .iter()
                    .position(|&i| i == index)
                    .expect("decoded indices are a subset of the collected ones");
                // The group's signed range tops out at 2^(n-1) - step; a
                // value in the clamp gap just below 2^(n-1) saturates and
                // loses up to a full step instead of half.
                let max_repr = f64::powi(2.0, i32::from(group.exponent) - 1) - step;
                for f in 0..cfg.features() {
                    let a = batch.values()[original * cfg.features() + f];
                    let b = out.values()[t * cfg.features() + f];
                    let bound = if a > max_repr { step } else { step / 2.0 };
                    assert!(
                        (a - b).abs() <= bound + 1e-9,
                        "index {index}: {a} decoded as {b}, outside ±{bound} \
                         (group n={} w={})",
                        group.exponent,
                        group.width
                    );
                }
                t += 1;
            }
        }
        assert_eq!(t, out.len(), "groups must cover every decoded measurement");
    }
}

/// The fixed-length property survives sealing: the transport frame around
/// an AGE message has one constant on-air size, whatever the batch held.
#[test]
fn sealed_transport_frames_have_constant_size() {
    use age_crypto::ChaCha20Poly1305;
    use age_transport::Sensor;

    let mut rng = DetRng::seed_from_u64(0xA6EB);
    let cfg = BatchConfig::new(50, 6, Format::new(16, 13).unwrap()).unwrap();
    let enc = AgeEncoder::new(220);
    let mut sensor = Sensor::new(Box::new(ChaCha20Poly1305::new([7u8; 32])));
    let mut frame_sizes = std::collections::HashSet::new();
    for _ in 0..64 {
        let k = rng.gen_range(0usize..=cfg.max_len());
        let lo = cfg.format().min_value();
        let hi = cfg.format().max_value();
        let values: Vec<f64> = (0..k * cfg.features())
            .map(|_| rng.gen_range(lo..hi))
            .collect();
        let mut all: Vec<usize> = (0..cfg.max_len()).collect();
        all.shuffle(&mut rng);
        all.truncate(k);
        all.sort_unstable();
        let batch = Batch::new(all, values).unwrap();
        let msg = enc.encode(&batch, &cfg).unwrap();
        let (_, frame) = sensor.seal(&msg);
        assert_eq!(frame.len(), sensor.frame_len(msg.len()));
        frame_sizes.insert(frame.len());
    }
    assert_eq!(
        frame_sizes.len(),
        1,
        "sealed AGE frames must share one size: {frame_sizes:?}"
    );
}

/// Variants share the fixed-length property.
#[test]
fn variants_are_fixed_length() {
    let mut rng = DetRng::seed_from_u64(0xA6E4);
    for _ in 0..CASES {
        let (cfg, batch) = config_and_batch(&mut rng);
        let extra = rng.gen_range(8usize..300);
        let base = AgeEncoder::min_target_bytes(&cfg).max((16 + cfg.max_len() + 6 * 6).div_ceil(8));
        let target = base + extra;
        for enc in [
            Box::new(SingleEncoder::new(target)) as Box<dyn Encoder>,
            Box::new(UnshiftedEncoder::new(target)),
            Box::new(PrunedEncoder::new(target)),
        ] {
            let msg = enc.encode(&batch, &cfg).unwrap();
            assert_eq!(msg.len(), target, "{}", enc.name());
            // And they all decode without error.
            enc.decode(&msg, &cfg).unwrap();
        }
    }
}

/// The standard encoder's size is a strictly increasing function of k —
/// this is exactly the leak AGE closes.
#[test]
fn standard_size_leaks_k() {
    let mut rng = DetRng::seed_from_u64(0xA6E5);
    for _ in 0..CASES {
        let (cfg, batch) = config_and_batch(&mut rng);
        let enc = StandardEncoder;
        let msg = enc.encode(&batch, &cfg).unwrap();
        assert_eq!(msg.len(), cfg.standard_message_bytes(batch.len()));
        let out = enc.decode(&msg, &cfg).unwrap();
        assert_eq!(out.indices(), batch.indices());
    }
}

/// Standard decoding is lossless for format-representable values.
#[test]
fn standard_roundtrip_is_lossless() {
    let mut rng = DetRng::seed_from_u64(0xA6E6);
    for _ in 0..CASES {
        let (cfg, batch) = config_and_batch(&mut rng);
        let fmt = cfg.format();
        let snapped: Vec<f64> = batch.values().iter().map(|&x| fmt.round_trip(x)).collect();
        let b = Batch::new(batch.indices().to_vec(), snapped.clone()).unwrap();
        let enc = StandardEncoder;
        let out = enc.decode(&enc.encode(&b, &cfg).unwrap(), &cfg).unwrap();
        for (a, b) in snapped.iter().zip(out.values()) {
            assert_eq!(a, b);
        }
    }
}

/// Padded messages are constant-length and lossless.
#[test]
fn padded_is_fixed_and_lossless() {
    let mut rng = DetRng::seed_from_u64(0xA6E7);
    for _ in 0..CASES {
        let (cfg, batch) = config_and_batch(&mut rng);
        let enc = PaddedEncoder::for_config(&cfg);
        let msg = enc.encode(&batch, &cfg).unwrap();
        assert_eq!(msg.len(), cfg.standard_message_bytes(cfg.max_len()));
        let out = enc.decode(&msg, &cfg).unwrap();
        assert_eq!(out.indices(), batch.indices());
    }
}

/// The MCU path — `AgeEncoder::encode_samples` on raw `i64` values — is
/// bit-identical to the `f64` encoder on format-exact inputs: plain,
/// refined and unsplit encoders, at roomy targets and at targets that
/// force §4.2 pruning, each side through its own reused scratch.
#[test]
fn mcu_integer_path_matches_float_path() {
    use age_core::mcu::RawBatch;
    use age_core::EncodeScratch;
    let mut rng = DetRng::seed_from_u64(0xA6E8);
    let (mut float_scratch, mut raw_scratch) = (EncodeScratch::new(), EncodeScratch::default());
    let (mut float_msg, mut int_msg) = (Vec::new(), Vec::new());
    let mut refined_prunes = 0;
    for case in 0..4 * CASES {
        let (cfg, batch) = config_and_batch(&mut rng);
        let fmt = cfg.format();
        // Snap values to the format (the ADC would deliver exactly these).
        let snapped: Vec<f64> = batch.values().iter().map(|&x| fmt.round_trip(x)).collect();
        let fb = Batch::new(batch.indices().to_vec(), snapped).unwrap();
        let rb = RawBatch::from_batch(&fb, &cfg);
        // Half the targets leave less than `MIN_WIDTH` bits per value.
        let min = AgeEncoder::min_target_bytes(&cfg);
        let squeezed = fb.len() * cfg.features() * usize::from(AgeEncoder::MIN_WIDTH) / 8;
        let target = if rng.gen_range(0u32..2) == 0 {
            min + rng.gen_range(0usize..300)
        } else {
            min + rng.gen_range(0..=squeezed)
        };
        let refined = rng.gen_range(0u32..2) == 0;
        let split = rng.gen_range(0u32..2) == 0;
        let enc = AgeEncoder::new(target)
            .with_refinement(refined)
            .with_group_splitting(split);
        enc.encode_into(&fb, &cfg, &mut float_scratch, &mut float_msg)
            .unwrap();
        enc.encode_samples(&rb, &cfg, &mut raw_scratch, &mut int_msg)
            .unwrap();
        assert_eq!(
            float_msg,
            int_msg,
            "case {case}: {fmt} k={} target={target} refined={refined} split={split}",
            fb.len()
        );
        let kept = usize::from(u16::from_be_bytes([int_msg[0], int_msg[1]]));
        refined_prunes += usize::from(refined && kept + 1 < fb.len());
    }
    assert!(
        refined_prunes >= CASES / 4,
        "only {refined_prunes} refined cases dropped two or more measurements"
    );
}

/// Decoding never panics on arbitrary bytes (errors are fine).
#[test]
fn age_decode_is_panic_free_on_garbage() {
    let mut rng = DetRng::seed_from_u64(0xA6E9);
    for _ in 0..CASES {
        let len = rng.gen_range(0usize..400);
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0u32..256) as u8).collect();
        let cfg = BatchConfig::new(50, 6, Format::new(16, 13).unwrap()).unwrap();
        let _ = AgeEncoder::new(220).decode(&bytes, &cfg);
        let _ = StandardEncoder.decode(&bytes, &cfg);
        let _ = SingleEncoder::new(220).decode(&bytes, &cfg);
        let _ = UnshiftedEncoder::new(220).decode(&bytes, &cfg);
        let _ = PrunedEncoder::new(220).decode(&bytes, &cfg);
    }
}
