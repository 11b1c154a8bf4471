//! Microbenchmarks of the encoders: the per-batch cost an MCU would pay.

use age_bench::Harness;
use age_core::mcu::RawBatch;
use age_core::{
    AgeEncoder, Batch, BatchConfig, DeltaCodec, EncodeScratch, Encoder, PaddedEncoder,
    PrunedEncoder, SingleEncoder, StandardEncoder, UnshiftedEncoder,
};
use age_fixed::Format;

fn activity_config() -> BatchConfig {
    BatchConfig::new(50, 6, Format::new(16, 13).expect("valid")).expect("valid")
}

fn batch(k: usize, d: usize) -> Batch {
    let values: Vec<f64> = (0..k * d)
        .map(|i| ((i as f64) * 0.37).sin() * 2.0)
        .collect();
    Batch::new((0..k).collect(), values).expect("valid")
}

fn main() {
    let mut h = Harness::from_args();
    let cfg = activity_config();
    // Every encoder runs through one reused scratch and message buffer,
    // the way a sensor loop runs it.
    let mut scratch = EncodeScratch::new();
    let mut message = Vec::new();

    for k in [5usize, 25, 50] {
        let b = batch(k, 6);
        let encoders: Vec<(&str, Box<dyn Encoder>)> = vec![
            ("age", Box::new(AgeEncoder::new(220))),
            ("standard", Box::new(StandardEncoder)),
            ("padded", Box::new(PaddedEncoder::for_config(&cfg))),
            ("single", Box::new(SingleEncoder::new(220))),
            ("unshifted", Box::new(UnshiftedEncoder::new(220))),
            ("pruned", Box::new(PrunedEncoder::new(220))),
        ];
        for (name, enc) in &encoders {
            h.bench(&format!("encode/{name}/{k}"), || {
                enc.encode_into(&b, &cfg, &mut scratch, &mut message)
                    .expect("feasible")
            });
        }
    }

    let b = batch(50, 6);
    // The AGE pipeline's `i64` instantiation, to set beside `encode/age/50`.
    let rb = RawBatch::from_batch(&b, &cfg);
    let age = AgeEncoder::new(220);
    let mut raw_scratch = EncodeScratch::default();
    h.bench("encode/age_mcu_integer_50", || {
        age.encode_samples(&rb, &cfg, &mut raw_scratch, &mut message)
            .expect("feasible")
    });
    h.bench("encode/delta_codec_50", || {
        DeltaCodec
            .encode_into(&b, &cfg, &mut scratch, &mut message)
            .expect("feasible")
    });

    let msg = age.encode(&b, &cfg).expect("feasible");
    h.bench("decode/age_full_batch", || {
        age.decode(&msg, &cfg).expect("own message")
    });
    let std_msg = StandardEncoder.encode(&b, &cfg).expect("feasible");
    h.bench("decode/standard_full_batch", || {
        StandardEncoder.decode(&std_msg, &cfg).expect("own message")
    });

    h.finish();
}
