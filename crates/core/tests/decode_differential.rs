//! Differential test for the lane decoders: `AgeEncoder`, `StandardEncoder`
//! and `PaddedEncoder` decode each group lane (or measurement) with one
//! `BitReader::read_dequantized` pass. The per-field decoders they replaced
//! — one `read_bits` → `from_bits` → `dequantize` per value — are kept here
//! as references, and every decode must return the identical `Result`:
//! the same error value, or the same indices and the same bits of every
//! value.
//!
//! Inputs are seeded valid messages (widths 1–32, 1–6 features, `k` from 0
//! to `max_len`, roomy, pruning and tight AGE targets) and the byte-level
//! mutations of `fuzz.rs`.

mod common;

use age_core::{
    AgeEncoder, Batch, BatchConfig, DecodeError, EncodeScratch, Encoder, PaddedEncoder,
    StandardEncoder,
};
use age_fixed::{BitReader, Format};
use age_telemetry::{DetRng, SliceShuffle};
use common::{exact, mutate};

const CASES: usize = 1000;
const MUTATIONS_PER_MESSAGE: usize = 8;

/// The AGE directory's exponent and width fields (`encoder.rs`).
const EXP_BITS: u8 = 6;
const WIDTH_BITS: u8 = 6;

/// The per-field AGE decoder. Returns the result and the bits left unread
/// after the last lane.
fn reference_age(
    message: &[u8],
    cfg: &BatchConfig,
    target_bytes: usize,
) -> (Result<Batch, DecodeError>, usize) {
    let mut r = BitReader::new(message);
    let result = reference_age_body(&mut r, message, cfg, target_bytes);
    (result, r.remaining_bits())
}

fn reference_age_body(
    r: &mut BitReader<'_>,
    message: &[u8],
    cfg: &BatchConfig,
    target_bytes: usize,
) -> Result<Batch, DecodeError> {
    if message.len() != target_bytes {
        return Err(DecodeError::Length {
            len: message.len(),
            expected: target_bytes,
        });
    }
    let d = cfg.features();
    let k = usize::from(r.read_u16()?);
    if k > cfg.max_len() {
        return Err(DecodeError::Corrupt(
            "measurement count exceeds batch maximum",
        ));
    }
    let mut indices = Vec::new();
    for t in 0..cfg.max_len() {
        if r.read_bits(1)? == 1 {
            indices.push(t);
        }
    }
    if indices.len() != k {
        return Err(DecodeError::Corrupt(
            "bitmask population differs from header count",
        ));
    }
    let num_groups = usize::from(r.read_u8()?);
    let mut groups = Vec::new();
    let mut total = 0usize;
    for _ in 0..num_groups {
        let count = r.read_bits(cfg.count_bits())? as usize;
        let exponent = r.read_bits(EXP_BITS)? as u8;
        let width = r.read_bits(WIDTH_BITS)? as u8;
        if exponent == 0 {
            return Err(DecodeError::Corrupt("group exponent of zero"));
        }
        if width > Format::MAX_WIDTH {
            return Err(DecodeError::Corrupt("group width exceeds format maximum"));
        }
        total += count;
        groups.push((count, exponent, width));
    }
    if total != k {
        return Err(DecodeError::Corrupt(
            "group counts disagree with measurement count",
        ));
    }
    let mut values = Vec::new();
    for (count, exponent, width) in groups {
        if width == 0 {
            values.extend(std::iter::repeat_n(0.0, count * d));
            continue;
        }
        let fmt = Format::new(width, i16::from(width) - i16::from(exponent))
            .map_err(|_| DecodeError::Corrupt("group width/exponent pair is invalid"))?;
        for _ in 0..count * d {
            values.push(fmt.dequantize(fmt.from_bits(r.read_bits(width)?)));
        }
    }
    Batch::new(indices, values).map_err(|_| DecodeError::Corrupt("decoded batch failed validation"))
}

/// The per-field standard-layout decoder. With `exact` the declared count
/// must match the message length (standard); without, trailing bytes are
/// padding (the padded defense checks its fixed length first).
fn reference_standard(
    message: &[u8],
    cfg: &BatchConfig,
    exact: bool,
) -> Result<Batch, DecodeError> {
    let fmt = cfg.format();
    let mut r = BitReader::new(message);
    let k = usize::from(r.read_u16()?);
    if k > cfg.max_len() {
        return Err(DecodeError::Corrupt(
            "measurement count exceeds batch maximum",
        ));
    }
    let expected = cfg.standard_message_bytes(k);
    if exact && message.len() != expected {
        return Err(DecodeError::Length {
            len: message.len(),
            expected,
        });
    }
    let mut indices: Vec<usize> = Vec::new();
    let mut values = Vec::new();
    for _ in 0..k {
        let index = r.read_bits(cfg.index_bits())? as usize;
        if index >= cfg.max_len() {
            return Err(DecodeError::Corrupt("decoded index out of range"));
        }
        if indices.last().is_some_and(|&prev| prev >= index) {
            return Err(DecodeError::Corrupt("decoded indices not increasing"));
        }
        indices.push(index);
        for _ in 0..cfg.features() {
            values.push(fmt.dequantize(fmt.from_bits(r.read_bits(fmt.width())?)));
        }
    }
    Ok(Batch::new(indices, values).expect("checked while decoding"))
}

fn reference_padded(
    message: &[u8],
    cfg: &BatchConfig,
    pad_to: usize,
) -> Result<Batch, DecodeError> {
    if message.len() != pad_to {
        return Err(DecodeError::Length {
            len: message.len(),
            expected: pad_to,
        });
    }
    reference_standard(message, cfg, false)
}

/// A random configuration (every width 1–32, 1–6 features) and a batch of
/// `k` in `0..=max_len` measurements whose magnitudes vary by up to 2^7, so
/// AGE forms groups of several widths.
fn config_and_batch(rng: &mut DetRng) -> (BatchConfig, Batch) {
    let max_len = rng.gen_range(1usize..=96);
    let features = rng.gen_range(1usize..=6);
    let width = rng.gen_range(1u32..=32) as u8;
    let n = rng.gen_range(1u32..=u32::from(width).min(12)) as u8;
    let fmt = Format::from_integer_bits(width, n).expect("valid by construction");
    let cfg = BatchConfig::new(max_len, features, fmt).expect("valid by construction");
    let k = rng.gen_range(0usize..=max_len);
    // Up to one step past the largest value, so saturation is exercised.
    let (lo, hi) = (fmt.min_value(), fmt.max_value() + fmt.step());
    let values: Vec<f64> = (0..k * features)
        .map(|_| rng.gen_range(lo..hi) / f64::from(1u32 << rng.gen_range(0u32..8)))
        .collect();
    let mut all: Vec<usize> = (0..max_len).collect();
    all.shuffle(rng);
    all.truncate(k);
    all.sort_unstable();
    let batch = Batch::new(all, values).expect("generator builds valid batches");
    (cfg, batch)
}

/// Shrinks an AGE target by the whole bytes its padding holds until the
/// last lane ends in the message's final 8 bytes (or the minimum target is
/// reached).
fn tight_target(cfg: &BatchConfig, batch: &Batch, start: usize) -> usize {
    let min = AgeEncoder::min_target_bytes(cfg);
    let mut target = start;
    for _ in 0..8 {
        let message = AgeEncoder::new(target)
            .encode(batch, cfg)
            .expect("targets at or above the minimum encode");
        let unread = reference_age(&message, cfg, target).1;
        let next = (target - unread / 8).max(min);
        if unread < 64 || next == target {
            break;
        }
        target = next;
    }
    target
}

/// Which reference decoder an encoder's messages are checked against.
#[derive(Clone, Copy)]
enum Reference {
    Age { target_bytes: usize },
    Standard,
    Padded { pad_to: usize },
}

impl Reference {
    fn decode(self, message: &[u8], cfg: &BatchConfig) -> Result<Batch, DecodeError> {
        match self {
            Reference::Age { target_bytes } => reference_age(message, cfg, target_bytes).0,
            Reference::Standard => reference_standard(message, cfg, true),
            Reference::Padded { pad_to } => reference_padded(message, cfg, pad_to),
        }
    }
}

/// Decodes `message` with both entry points (the second into a reused,
/// dirty batch) and checks both against the reference.
fn check(
    enc: &dyn Encoder,
    reference: Reference,
    message: &[u8],
    cfg: &BatchConfig,
    reused: &mut Batch,
    scratch: &mut EncodeScratch,
    case: &str,
) {
    let want = exact(reference.decode(message, cfg));
    assert_eq!(exact(enc.decode(message, cfg)), want, "{case}: decode");
    let into = enc
        .decode_into(message, cfg, scratch, reused)
        .map(|()| reused.clone());
    assert_eq!(exact(into), want, "{case}: decode_into");
}

#[test]
fn lane_decoders_match_the_per_field_references() {
    let mut rng = DetRng::seed_from_u64(0xDEC0DE);
    let mut scratch = EncodeScratch::new();
    let mut reused = Batch::empty();
    let (mut pruned, mut ends_in_last_word) = (0usize, 0usize);
    let mut widths_seen = [false; 33];
    for case in 0..CASES {
        let (cfg, batch) = config_and_batch(&mut rng);
        widths_seen[usize::from(cfg.format().width())] = true;
        let min = AgeEncoder::min_target_bytes(&cfg);
        let roomy = min + cfg.standard_message_bytes(batch.len()) + rng.gen_range(0usize..16);
        let squeezed = min + rng.gen_range(0usize..=batch.len() * cfg.features() / 2);
        let mut encoders: Vec<(Box<dyn Encoder>, Reference)> = [roomy, squeezed]
            .into_iter()
            .chain([tight_target(&cfg, &batch, roomy)])
            .map(|target_bytes| {
                let enc: Box<dyn Encoder> = Box::new(AgeEncoder::new(target_bytes));
                (enc, Reference::Age { target_bytes })
            })
            .collect();
        let padded = PaddedEncoder::for_config(&cfg);
        encoders.push((Box::new(StandardEncoder), Reference::Standard));
        encoders.push((
            Box::new(padded),
            Reference::Padded {
                pad_to: padded.pad_to(),
            },
        ));
        for (enc, reference) in &encoders {
            let message = enc.encode(&batch, &cfg).expect("valid batches encode");
            if let Reference::Age { target_bytes } = *reference {
                let (kept, unread) = reference_age(&message, &cfg, target_bytes);
                let kept = kept.expect("valid messages decode").len();
                pruned += usize::from(kept < batch.len());
                ends_in_last_word += usize::from(unread < 64);
            }
            // Input 0 is the valid message, the rest its mutations.
            for m in 0..=MUTATIONS_PER_MESSAGE {
                let input = if m == 0 {
                    message.clone()
                } else {
                    mutate(&mut rng, &message)
                };
                let label = format!("case {case} {} {} input {m}", enc.name(), cfg.format());
                let (reused, scratch) = (&mut reused, &mut scratch);
                check(&**enc, *reference, &input, &cfg, reused, scratch, &label);
            }
        }
    }
    // The generator reaches what the test claims to cover.
    assert!(widths_seen[1..].iter().all(|&seen| seen), "{widths_seen:?}");
    assert!(pruned >= CASES / 4, "only {pruned} pruned AGE messages");
    assert!(
        ends_in_last_word >= CASES / 2,
        "only {ends_in_last_word} AGE messages end in their final 8 bytes"
    );
}
