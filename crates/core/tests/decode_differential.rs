//! Differential test for the lane decoders: `AgeEncoder`, `StandardEncoder`,
//! `PaddedEncoder` and the ablation variants (`SingleEncoder`,
//! `UnshiftedEncoder`, `PrunedEncoder`) decode each group lane (or
//! measurement) with one `BitReader::read_dequantized` pass. The per-field
//! decoders they replaced
//! — one `read_bits` → `from_bits` → `dequantize` per value — are kept here
//! as references, and every decode must return the identical `Result`:
//! the same error value, or the same indices and the same bits of every
//! value.
//!
//! Inputs are seeded valid messages (widths 1–32, 1–6 features, `k` from 0
//! to `max_len`, roomy, pruning and tight AGE targets, roomy and squeezed
//! variant targets) and the byte-level mutations of `fuzz.rs`, plus a
//! deterministic boundary sweep that raises one header or directory field
//! at a time so that the first field that no longer fits lands at every
//! position of the AGE directory, the AGE lanes and the standard rows.

mod common;

use age_core::{
    AgeEncoder, Batch, BatchConfig, DecodeError, EncodeScratch, Encoder, PaddedEncoder,
    PrunedEncoder, SingleEncoder, StandardEncoder, UnshiftedEncoder,
};
use age_fixed::{BitReader, Format};
use age_telemetry::{DetRng, SliceShuffle};
use common::{exact, mutate};

const CASES: usize = 1000;
const MUTATIONS_PER_MESSAGE: usize = 8;

/// The AGE directory's exponent and width fields (`encoder.rs`); the
/// variants' width fields have the same size (`variants.rs`).
const EXP_BITS: u8 = 6;
const WIDTH_BITS: u8 = 6;
/// The `k` header field every fixed-length layout starts with.
const K_BITS: usize = 16;
/// `UnshiftedEncoder`'s fixed group count.
const UNSHIFTED_GROUPS: usize = 6;

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

/// Which ablation variant a message came from.
#[derive(Clone, Copy)]
enum Variant {
    Single,
    Unshifted,
    Pruned,
}

/// The per-field decoder of the ablation variants: the `k` header and a
/// one-bit-per-step bitmask, then each variant's width fields and values.
fn reference_variant(
    variant: Variant,
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
    let mut r = BitReader::new(message);
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
    let d = cfg.features();
    let n0 = cfg.format().integer_bits();
    // (measurements, width) per lane, in message order.
    let lanes: Vec<(usize, u8)> = match variant {
        Variant::Single => {
            let width = r.read_bits(WIDTH_BITS)? as u8;
            if width > Format::MAX_WIDTH {
                return Err(DecodeError::Corrupt("width exceeds format maximum"));
            }
            if k == 0 {
                return Ok(Batch::empty());
            }
            if width == 0 {
                return Err(DecodeError::Corrupt("zero width with a non-empty batch"));
            }
            vec![(k, width)]
        }
        Variant::Unshifted => {
            let mut widths = Vec::new();
            for _ in 0..UNSHIFTED_GROUPS {
                let width = r.read_bits(WIDTH_BITS)? as u8;
                if width > Format::MAX_WIDTH {
                    return Err(DecodeError::Corrupt("width exceeds format maximum"));
                }
                widths.push(width);
            }
            let counts = (0..UNSHIFTED_GROUPS)
                .map(|i| k / UNSHIFTED_GROUPS + usize::from(i < k % UNSHIFTED_GROUPS));
            counts.zip(widths).collect()
        }
        Variant::Pruned => vec![(k, cfg.format().width())],
    };
    let mut values = Vec::new();
    for (count, width) in lanes {
        if count > 0 && width == 0 {
            return Err(DecodeError::Corrupt("zero width for a populated group"));
        }
        if count == 0 {
            continue;
        }
        let fmt = match variant {
            Variant::Pruned => cfg.format(),
            _ => Format::from_integer_bits(width, n0.min(width))
                .map_err(|_| DecodeError::Corrupt("invalid width field"))?,
        };
        for _ in 0..count * d {
            values.push(fmt.dequantize(fmt.from_bits(r.read_bits(width)?)));
        }
    }
    Batch::new(indices, values).map_err(|_| DecodeError::Corrupt("decoded batch invalid"))
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
    Age {
        target_bytes: usize,
    },
    Standard,
    Padded {
        pad_to: usize,
    },
    Variant {
        variant: Variant,
        target_bytes: usize,
    },
}

impl Reference {
    fn decode(self, message: &[u8], cfg: &BatchConfig) -> Result<Batch, DecodeError> {
        match self {
            Reference::Age { target_bytes } => reference_age(message, cfg, target_bytes).0,
            Reference::Standard => reference_standard(message, cfg, true),
            Reference::Padded { pad_to } => reference_padded(message, cfg, pad_to),
            Reference::Variant {
                variant,
                target_bytes,
            } => reference_variant(variant, message, cfg, target_bytes),
        }
    }
}

/// Decodes `message` with both entry points (the second into a reused,
/// dirty batch), checks both against the reference and returns the
/// reference's error, if any.
fn check(
    enc: &dyn Encoder,
    reference: Reference,
    message: &[u8],
    cfg: &BatchConfig,
    reused: &mut Batch,
    scratch: &mut EncodeScratch,
    case: &str,
) -> Option<DecodeError> {
    let want = exact(reference.decode(message, cfg));
    assert_eq!(exact(enc.decode(message, cfg)), want, "{case}: decode");
    let into = enc
        .decode_into(message, cfg, scratch, reused)
        .map(|()| reused.clone());
    assert_eq!(exact(into), want, "{case}: decode_into");
    want.err()
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
        // Every variant's framing fits in the Unshifted minimum.
        let variant_min =
            (K_BITS + cfg.max_len() + UNSHIFTED_GROUPS * usize::from(WIDTH_BITS)).div_ceil(8);
        for target_bytes in [roomy, squeezed.max(variant_min)] {
            let variants: [(Box<dyn Encoder>, Variant); 3] = [
                (Box::new(SingleEncoder::new(target_bytes)), Variant::Single),
                (
                    Box::new(UnshiftedEncoder::new(target_bytes)),
                    Variant::Unshifted,
                ),
                (Box::new(PrunedEncoder::new(target_bytes)), Variant::Pruned),
            ];
            for (enc, variant) in variants {
                let reference = Reference::Variant {
                    variant,
                    target_bytes,
                };
                encoders.push((enc, reference));
            }
        }
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

/// Writes the low `bits` bits of `value` at bit `pos` of `message`, MSB
/// first.
fn set_field(message: &mut [u8], pos: usize, bits: u8, value: u64) {
    for i in 0..usize::from(bits) {
        let bit = (value >> (usize::from(bits) - 1 - i)) & 1;
        let at = pos + i;
        let mask = 0x80u8 >> (at % 8);
        if bit == 1 {
            message[at / 8] |= mask;
        } else {
            message[at / 8] &= !mask;
        }
    }
}

/// Reads the `bits`-bit field at bit `pos` of `message`, MSB first.
fn get_field(message: &[u8], pos: usize, bits: u8) -> u64 {
    (pos..pos + usize::from(bits)).fold(0, |acc, at| {
        (acc << 1) | u64::from(message[at / 8] >> (7 - at % 8) & 1)
    })
}

/// Where a decode error stopped: for truncations, which field ran out and
/// how many of its bits were left.
fn truncated_field(error: Option<DecodeError>) -> Option<(u8, usize)> {
    match error {
        Some(DecodeError::Truncated(e)) => Some((e.requested, e.remaining)),
        _ => None,
    }
}

/// Raises the fields that decide how far a decoder reads, one at a time,
/// and compares `decode` and `decode_into` (values and errors) with the
/// per-field references:
///
/// - AGE: the group count, to 255 over a frame whose bits after the real
///   directory are refilled with valid empty entries (count 0, exponent 1,
///   width 0), cut to one entry's worth of lengths, so the directory runs
///   out at every bit of an entry; the same count, raised by one to four
///   and to 255, over the real lanes; and each group's width, to every
///   value the field holds (widths past 32 are refused). The unmodified
///   frame cut to every length inside its lanes is a directory that
///   claims more lane bits than the frame holds: the lanes run out at
///   every byte.
/// - Padded: a count that claims every row, on frames cut to one row's
///   worth of lengths, so the rows run out at every bit of a row; the
///   count raised past the rows and past `max_len`; and raised by one over
///   the zero padding, cut inside the extra row.
/// - Std: the count raised, which only changes the expected length.
#[test]
fn raised_fields_fail_where_the_per_field_references_do() {
    let mut rng = DetRng::seed_from_u64(0xB0_0DA7);
    let mut scratch = EncodeScratch::new();
    let mut reused = Batch::empty();
    // (field, bits left) pairs of the truncations the sweep reached.
    let (mut directory, mut lanes, mut rows) = (Vec::new(), Vec::new(), Vec::new());
    for case in 0..300 {
        let (cfg, batch) = config_and_batch(&mut rng);
        let mut check = |enc: &dyn Encoder, reference, input: &[u8], label: &str| {
            let (reused, scratch) = (&mut reused, &mut scratch);
            let label = format!("case {case} {} {label}", enc.name());
            truncated_field(check(enc, reference, input, &cfg, reused, scratch, &label))
        };
        let count_bits = cfg.count_bits();
        let entry_bits = usize::from(count_bits + EXP_BITS + WIDTH_BITS);
        let count_at = K_BITS + cfg.max_len();
        let directory_at = count_at + 8;
        let min = AgeEncoder::min_target_bytes(&cfg);
        let roomy = min + cfg.standard_message_bytes(batch.len());
        for target in [roomy, tight_target(&cfg, &batch, roomy)] {
            let age = |len| (AgeEncoder::new(len), Reference::Age { target_bytes: len });
            let message = AgeEncoder::new(target)
                .encode(&batch, &cfg)
                .expect("valid batches encode");
            let groups = get_field(&message, count_at, 8) as usize;
            let directory_end = directory_at + groups * entry_bits;
            let lanes_end = 8 * target - reference_age(&message, &cfg, target).1;

            // 255 groups over refilled entries: the directory runs out.
            let mut refilled = message.clone();
            set_field(&mut refilled, count_at, 8, 255);
            for at in (directory_end..8 * target).step_by(entry_bits) {
                let entry = (1 << WIDTH_BITS) as u64;
                let bits = (8 * target - at).min(entry_bits);
                set_field(&mut refilled, at, bits as u8, entry >> (entry_bits - bits));
            }
            let first = directory_end / 8;
            for len in first..=(first + entry_bits).min(target) {
                let (enc, reference) = age(len);
                let cut = &refilled[..len];
                directory.extend(check(&enc, reference, cut, &format!("255 groups, {len} B")));
            }
            // A few more groups over the real lanes.
            for raised_to in (groups + 1..=255).take(4).chain([255]) {
                let mut raised = message.clone();
                set_field(&mut raised, count_at, 8, raised_to as u64);
                let (enc, reference) = age(target);
                check(&enc, reference, &raised, &format!("{raised_to} groups"));
            }
            // The frame cut inside its lanes: the lanes run out. Again with
            // the first group's width zeroed, so an empty lane precedes
            // the one that runs out.
            let mut unwidened = message.clone();
            if groups > 1 {
                let width_at = directory_at + entry_bits - usize::from(WIDTH_BITS);
                set_field(&mut unwidened, width_at, WIDTH_BITS, 0);
            }
            for frame in [&message, &unwidened] {
                for len in first..lanes_end.div_ceil(8) {
                    let (enc, reference) = age(len);
                    lanes.extend(check(&enc, reference, &frame[..len], &format!("{len} B")));
                }
            }
            // Every width for each group.
            for group in 0..groups {
                let width_at = directory_at + (group + 1) * entry_bits - usize::from(WIDTH_BITS);
                for width in 0..1u64 << WIDTH_BITS {
                    let mut raised = message.clone();
                    set_field(&mut raised, width_at, WIDTH_BITS, width);
                    let (enc, reference) = age(target);
                    let label = format!("group {group} width {width}");
                    lanes.extend(check(&enc, reference, &raised, &label));
                }
            }
        }

        let message = StandardEncoder
            .encode(&batch, &cfg)
            .expect("valid batches encode");
        // A count that claims rows the frame does not hold, then a count
        // raised past the rows and past `max_len`.
        let row_bits =
            usize::from(cfg.index_bits()) + cfg.features() * usize::from(cfg.format().width());
        for len in 0..=message.len().min(2 + row_bits) {
            let (enc, reference) = (PaddedEncoder::new(len), Reference::Padded { pad_to: len });
            rows.extend(check(&enc, reference, &message[..len], &format!("{len} B")));
        }
        let padded = PaddedEncoder::for_config(&cfg);
        let padded_message = padded.encode(&batch, &cfg).expect("valid batches encode");
        let pad_to = padded.pad_to();
        for count in batch.len() + 1..=cfg.max_len() + 1 {
            for (enc, reference, frame) in [
                (
                    &padded as &dyn Encoder,
                    Reference::Padded { pad_to },
                    &padded_message,
                ),
                (&StandardEncoder, Reference::Standard, &message),
            ] {
                let mut raised = frame.clone();
                set_field(&mut raised, 0, K_BITS as u8, count as u64);
                check(enc, reference, &raised, &format!("count {count}"));
            }
        }
        // One row more than the frame holds, over the zero padding and cut
        // inside that row: its index is read (0, out of order unless it is
        // the first) before its values run out.
        let mut raised = padded_message.clone();
        set_field(&mut raised, 0, K_BITS as u8, batch.len() as u64 + 1);
        for len in message.len()..=pad_to.min(message.len() + row_bits.div_ceil(8)) {
            let (enc, reference) = (PaddedEncoder::new(len), Reference::Padded { pad_to: len });
            rows.extend(check(&enc, reference, &raised[..len], &format!("{len} B")));
        }
    }
    // The sweep reaches every bit of a directory entry's 6-bit exponent
    // and width fields, and the first and last bit of a lane value and of
    // a row's index or value field at every width.
    for left in 0..usize::from(EXP_BITS) {
        assert!(
            directory.contains(&(EXP_BITS, left)),
            "directory: {left} bits left"
        );
    }
    for (what, seen, widths) in [("lane", &lanes, 2..=32u8), ("row", &rows, 1..=32)] {
        for width in widths {
            for left in [0, usize::from(width) - 1] {
                let field = (width, left);
                assert!(
                    seen.contains(&field),
                    "{what}: no {width}-bit field with {left} bits left"
                );
            }
        }
    }
}
