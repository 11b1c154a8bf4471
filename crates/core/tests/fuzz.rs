//! Deterministic decoder fuzz smoke test: byte-level mutations of *valid*
//! messages across every encoder. The receiver-side contract is that
//! `decode` either returns an error or a structurally valid batch — it never
//! panics and never fabricates out-of-range indices, whatever a faulty link
//! does to the bytes.
//!
//! Mutations are drawn from the workspace's deterministic PRNG with a fixed
//! seed and iteration count, so a failure reproduces exactly.

mod common;

use age_core::{
    AgeEncoder, Batch, BatchConfig, EncodeScratch, Encoder, PaddedEncoder, PrunedEncoder,
    SingleEncoder, StandardEncoder, UnshiftedEncoder,
};
use age_fixed::Format;
use age_telemetry::{DetRng, SliceShuffle};
use common::{exact, mutate};

const CASES: usize = 96;
const MUTATIONS_PER_MESSAGE: usize = 12;

/// A random batch configuration plus a consistent batch (mirrors the
/// generator in `properties.rs`).
fn config_and_batch(rng: &mut DetRng) -> (BatchConfig, Batch) {
    let max_len = rng.gen_range(2usize..120);
    let features = rng.gen_range(1usize..6);
    let width = rng.gen_range(4u32..=24) as u8;
    let n = rng.gen_range(0i64..20) as i16;
    let n = (n % i16::from(width)).max(1);
    let fmt = Format::from_integer_bits(width, n as u8).expect("valid by construction");
    let cfg = BatchConfig::new(max_len, features, fmt).expect("valid by construction");
    let k = rng.gen_range(1usize..=max_len);
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

/// A fixed-length target with random headroom over what every encoder's
/// framing needs.
fn fixed_target(rng: &mut DetRng, cfg: &BatchConfig) -> usize {
    let extra = rng.gen_range(8usize..200);
    AgeEncoder::min_target_bytes(cfg).max((16 + cfg.max_len() + 6 * 6).div_ceil(8)) + extra
}

/// Every encoder, fixed-length ones at `target` bytes.
fn encoders(cfg: &BatchConfig, target: usize) -> Vec<Box<dyn Encoder>> {
    vec![
        Box::new(AgeEncoder::new(target)),
        Box::new(StandardEncoder),
        Box::new(PaddedEncoder::for_config(cfg)),
        Box::new(SingleEncoder::new(target)),
        Box::new(UnshiftedEncoder::new(target)),
        Box::new(PrunedEncoder::new(target)),
    ]
}

/// Whatever `decode` accepted must be a structurally valid batch for `cfg`:
/// indices strictly ascending and in range, values shaped `k * features`,
/// every value representable (finite).
fn assert_valid(batch: &Batch, cfg: &BatchConfig, encoder: &str) {
    assert!(
        batch.indices().windows(2).all(|w| w[0] < w[1]),
        "{encoder}: decoded indices not strictly ascending"
    );
    assert!(
        batch.indices().iter().all(|&i| i < cfg.max_len()),
        "{encoder}: decoded index out of range"
    );
    assert_eq!(
        batch.values().len(),
        batch.indices().len() * cfg.features(),
        "{encoder}: value count does not match index count"
    );
    assert!(
        batch.values().iter().all(|v| v.is_finite()),
        "{encoder}: decoded a non-finite value"
    );
}

#[test]
fn mutated_messages_never_panic_the_decoders() {
    let mut rng = DetRng::seed_from_u64(0xF0_22ED);
    for _ in 0..CASES {
        let (cfg, batch) = config_and_batch(&mut rng);
        let target = fixed_target(&mut rng, &cfg);
        for enc in &encoders(&cfg, target) {
            let valid = enc.encode(&batch, &cfg).expect("valid batches encode");
            for _ in 0..MUTATIONS_PER_MESSAGE {
                let mutated = mutate(&mut rng, &valid);
                if let Ok(decoded) = enc.decode(&mutated, &cfg) {
                    assert_valid(&decoded, &cfg, enc.name());
                }
            }
        }
    }
}

#[test]
fn unmutated_messages_still_decode() {
    // Guard against the fuzz passing vacuously because decode rejects
    // everything: the untouched message must round-trip for every encoder.
    let mut rng = DetRng::seed_from_u64(0xF0_22EE);
    for _ in 0..16 {
        let (cfg, batch) = config_and_batch(&mut rng);
        let target = fixed_target(&mut rng, &cfg);
        for enc in &encoders(&cfg, target) {
            let msg = enc.encode(&batch, &cfg).expect("valid batches encode");
            let decoded = enc
                .decode(&msg, &cfg)
                .unwrap_or_else(|e| panic!("{} rejected its own message: {e}", enc.name()));
            assert_valid(&decoded, &cfg, enc.name());
        }
    }
}

#[test]
fn decode_and_decode_into_agree_on_every_mutation() {
    // The simulator decodes with `decode`, the gateway with `decode_into`
    // into a reused batch: the same bytes must get the same verdict, down to
    // the error value and the bits of every decoded value.
    let mut rng = DetRng::seed_from_u64(0xF0_22EF);
    let mut scratch = EncodeScratch::new();
    let mut reused = Batch::empty();
    let mut checked = 0usize;
    for _ in 0..CASES {
        let (cfg, batch) = config_and_batch(&mut rng);
        let target = fixed_target(&mut rng, &cfg);
        for enc in &encoders(&cfg, target) {
            let valid = enc.encode(&batch, &cfg).expect("valid batches encode");
            for m in 0..=MUTATIONS_PER_MESSAGE {
                let message = if m == 0 {
                    valid.clone()
                } else {
                    mutate(&mut rng, &valid)
                };
                let into = enc
                    .decode_into(&message, &cfg, &mut scratch, &mut reused)
                    .map(|()| reused.clone());
                assert_eq!(
                    exact(enc.decode(&message, &cfg)),
                    exact(into),
                    "{}: decode and decode_into disagree on mutation {m}",
                    enc.name()
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, CASES * 6 * (MUTATIONS_PER_MESSAGE + 1));
}
