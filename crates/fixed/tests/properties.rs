//! Randomized property tests for fixed-point formats and bit packing,
//! driven by the workspace's deterministic PRNG (no external test deps).

use age_fixed::{required_integer_bits, BitReader, BitWriter, Format};
use age_telemetry::DetRng;

const CASES: usize = 512;

/// A valid random format: width 1..=32, integer bits 1..=40.
fn random_format(rng: &mut DetRng) -> Format {
    let width = rng.gen_range(1u32..=32) as u8;
    let n = rng.gen_range(1i64..=40) as i16;
    let frac = i16::from(width) - n;
    Format::new(width, frac).expect("generator produces valid formats")
}

#[test]
fn quantize_never_leaves_raw_range() {
    let mut rng = DetRng::seed_from_u64(0xF1);
    for _ in 0..CASES {
        let fmt = random_format(&mut rng);
        let x = rng.gen_range(-1e12f64..1e12);
        let raw = fmt.quantize(x);
        assert!(raw >= fmt.min_raw(), "{fmt:?} x={x} raw={raw}");
        assert!(raw <= fmt.max_raw(), "{fmt:?} x={x} raw={raw}");
    }
}

#[test]
fn quantize_is_idempotent() {
    let mut rng = DetRng::seed_from_u64(0xF2);
    for _ in 0..CASES {
        let fmt = random_format(&mut rng);
        let x = rng.gen_range(-1e9f64..1e9);
        let once = fmt.round_trip(x);
        let twice = fmt.round_trip(once);
        assert_eq!(once, twice, "{fmt:?} x={x}");
    }
}

#[test]
fn in_range_error_bounded_by_half_step() {
    let mut rng = DetRng::seed_from_u64(0xF3);
    for _ in 0..CASES {
        let fmt = random_format(&mut rng);
        let t = rng.gen_range(0.0f64..1.0);
        // Pick x inside the representable range.
        let x = fmt.min_value() + t * (fmt.max_value() - fmt.min_value());
        let err = (fmt.round_trip(x) - x).abs();
        assert!(
            err <= fmt.half_step() * (1.0 + 1e-9),
            "x={} err={} half_step={}",
            x,
            err,
            fmt.half_step()
        );
    }
}

#[test]
fn bits_roundtrip() {
    let mut rng = DetRng::seed_from_u64(0xF4);
    for _ in 0..CASES {
        let fmt = random_format(&mut rng);
        // Derive an in-range raw value from a random draw.
        let span = (fmt.max_raw() - fmt.min_raw()) as u64 + 1;
        let raw = fmt.min_raw() + (rng.next_u64() % span) as i64;
        assert_eq!(fmt.from_bits(fmt.to_bits(raw)), raw, "{fmt:?} raw={raw}");
    }
}

#[test]
fn required_bits_is_sufficient() {
    let mut rng = DetRng::seed_from_u64(0xF5);
    for _ in 0..CASES {
        let x = rng.gen_range(-1e6f64..1e6);
        let n = required_integer_bits(x, 40);
        // A format with n integer bits and plenty of width represents x
        // without saturating.
        let width = (n + 20).min(32);
        if let Ok(fmt) = Format::new(width, i16::from(width) - i16::from(n)) {
            let err = (fmt.round_trip(x) - x).abs();
            assert!(err <= fmt.half_step() + 1e-9, "x={x} n={n} err={err}");
        }
    }
}

#[test]
fn required_bits_is_minimal() {
    let mut rng = DetRng::seed_from_u64(0xF6);
    for _ in 0..CASES {
        let x = rng.gen_range(-1e6f64..1e6);
        let n = required_integer_bits(x, 40);
        if n > 1 {
            // One fewer integer bit must fail to cover x.
            let hi = f64::powi(2.0, i32::from(n) - 2);
            assert!(x >= hi || x < -hi, "x={x} n={n}");
        }
    }
}

#[test]
fn writer_reader_roundtrip() {
    let mut rng = DetRng::seed_from_u64(0xF7);
    for _ in 0..CASES {
        let n_fields = rng.gen_range(0usize..50);
        let fields: Vec<(u64, u8)> = (0..n_fields)
            .map(|_| (rng.next_u64(), rng.gen_range(1u32..=64) as u8))
            .collect();
        let mut w = BitWriter::new();
        for &(v, c) in &fields {
            w.write_bits(v, c);
        }
        let expected_bits: usize = fields.iter().map(|&(_, c)| usize::from(c)).sum();
        assert_eq!(w.bit_len(), expected_bits);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), expected_bits.div_ceil(8));
        let mut r = BitReader::new(&bytes);
        for &(v, c) in &fields {
            let mask = if c == 64 { u64::MAX } else { (1u64 << c) - 1 };
            assert_eq!(r.read_bits(c).unwrap(), v & mask);
        }
    }
}

/// The original bit-at-a-time writer/reader, kept verbatim as a reference
/// oracle: the word-level implementation in `age_fixed::bits` must stay
/// byte-identical to this for every input sequence.
mod reference {
    pub struct SlowWriter {
        bytes: Vec<u8>,
        /// Number of valid bits in the final partial byte (0 = none pending).
        pending_bits: u8,
    }

    impl SlowWriter {
        pub fn new() -> Self {
            SlowWriter {
                bytes: Vec::new(),
                pending_bits: 0,
            }
        }

        pub fn bit_len(&self) -> usize {
            if self.pending_bits == 0 {
                self.bytes.len() * 8
            } else {
                (self.bytes.len() - 1) * 8 + usize::from(8 - self.pending_bits)
            }
        }

        pub fn byte_len(&self) -> usize {
            self.bytes.len()
        }

        pub fn write_bits(&mut self, value: u64, count: u8) {
            assert!(count <= 64);
            for i in (0..count).rev() {
                let bit = ((value >> i) & 1) as u8;
                if self.pending_bits == 0 {
                    self.bytes.push(0);
                    self.pending_bits = 8;
                }
                let byte = self.bytes.last_mut().expect("pushed above");
                *byte |= bit << (self.pending_bits - 1);
                self.pending_bits -= 1;
            }
        }

        pub fn pad_to_bytes(&mut self, target_bytes: usize) {
            assert!(self.bit_len() <= target_bytes * 8);
            while !self.bit_len().is_multiple_of(8) {
                self.write_bits(0, 1);
            }
            self.bytes.resize(target_bytes, 0);
            self.pending_bits = 0;
        }

        pub fn into_bytes(self) -> Vec<u8> {
            self.bytes
        }
    }

    pub struct SlowReader<'a> {
        bytes: &'a [u8],
        bit_pos: usize,
    }

    impl<'a> SlowReader<'a> {
        pub fn new(bytes: &'a [u8]) -> Self {
            SlowReader { bytes, bit_pos: 0 }
        }

        pub fn remaining_bits(&self) -> usize {
            self.bytes.len() * 8 - self.bit_pos
        }

        pub fn read_bits(&mut self, count: u8) -> Option<u64> {
            assert!(count <= 64);
            if usize::from(count) > self.remaining_bits() {
                return None;
            }
            let mut out = 0u64;
            for _ in 0..count {
                let byte = self.bytes[self.bit_pos / 8];
                let bit = (byte >> (7 - (self.bit_pos % 8))) & 1;
                out = (out << 1) | u64::from(bit);
                self.bit_pos += 1;
            }
            Some(out)
        }
    }
}

#[test]
fn word_writer_matches_reference_on_random_sequences() {
    let mut rng = DetRng::seed_from_u64(0xF9);
    for _ in 0..CASES {
        let n_fields = rng.gen_range(0usize..60);
        let mut word = BitWriter::new();
        let mut slow = reference::SlowWriter::new();
        for _ in 0..n_fields {
            let c = rng.gen_range(0u32..=64) as u8;
            let v = rng.next_u64();
            word.write_bits(v, c);
            slow.write_bits(v, c);
            assert_eq!(word.bit_len(), slow.bit_len());
            assert_eq!(word.byte_len(), slow.byte_len());
        }
        if rng.gen_range(0u32..2) == 1 {
            let target = word.bit_len().div_ceil(8) + rng.gen_range(0usize..8);
            word.pad_to_bytes(target);
            slow.pad_to_bytes(target);
        }
        assert_eq!(word.into_bytes(), slow.into_bytes());
    }
}

#[test]
fn word_reader_matches_reference_on_random_streams() {
    let mut rng = DetRng::seed_from_u64(0xFA);
    for _ in 0..CASES {
        let len = rng.gen_range(0usize..40);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let mut word = BitReader::new(&bytes);
        let mut slow = reference::SlowReader::new(&bytes);
        for _ in 0..20 {
            let c = rng.gen_range(0u32..=64) as u8;
            match (word.read_bits(c), slow.read_bits(c)) {
                (Ok(a), Some(b)) => assert_eq!(a, b, "count={c}"),
                (Err(e), None) => {
                    // Exhaustion must report the same error fields and leave
                    // both readers at the same (unconsumed) position.
                    assert_eq!(e.requested, c);
                    assert_eq!(e.remaining, slow.remaining_bits());
                }
                (a, b) => panic!("readers disagree on exhaustion: {a:?} vs {b:?}"),
            }
            assert_eq!(word.remaining_bits(), slow.remaining_bits());
        }
    }
}

#[test]
fn bit_len_exhaustive_at_flush_boundaries() {
    // Every lead length that brackets both the 8-bit byte boundary and the
    // 64-bit accumulator flush boundary, crossed with every legal width.
    for lead in 0usize..=65 {
        for width in 0u8..=64 {
            let mut word = BitWriter::new();
            let mut slow = reference::SlowWriter::new();
            for _ in 0..lead {
                word.write_bits(1, 1);
                slow.write_bits(1, 1);
            }
            assert_eq!(word.bit_len(), lead);
            assert_eq!(word.byte_len(), lead.div_ceil(8));
            word.write_bits(u64::MAX, width);
            slow.write_bits(u64::MAX, width);
            assert_eq!(word.bit_len(), lead + usize::from(width));
            assert_eq!(word.byte_len(), (lead + usize::from(width)).div_ceil(8));
            assert_eq!(
                word.into_bytes(),
                slow.into_bytes(),
                "lead={lead} width={width}"
            );
        }
    }
}

#[test]
fn interleaved_widths_cross_boundaries_like_reference() {
    // A fixed adversarial width schedule that repeatedly straddles the
    // accumulator flush: wide-narrow alternation plus exact-fill widths.
    let widths: &[u8] = &[64, 1, 63, 2, 62, 31, 33, 7, 57, 8, 56, 16, 48, 5, 64, 64, 3];
    let mut word = BitWriter::new();
    let mut slow = reference::SlowWriter::new();
    for (i, &c) in widths.iter().enumerate() {
        let v = (i as u64).wrapping_mul(0x0123_4567_89AB_CDEF) | 1;
        word.write_bits(v, c);
        slow.write_bits(v, c);
        assert_eq!(word.bit_len(), slow.bit_len(), "after field {i}");
    }
    assert_eq!(word.into_bytes(), slow.into_bytes());
}

#[test]
fn write_run_and_fields_match_reference() {
    let mut rng = DetRng::seed_from_u64(0xFB);
    for _ in 0..CASES {
        let mut word = BitWriter::new();
        let mut slow = reference::SlowWriter::new();
        let lead = rng.gen_range(0u32..=9) as u8;
        word.write_bits(0x155, lead);
        slow.write_bits(0x155, lead);
        // A run of one repeated field...
        let (rv, rc, reps) = (
            rng.next_u64(),
            rng.gen_range(1u32..=64) as u8,
            rng.gen_range(0usize..100),
        );
        word.write_run(rv, rc, reps);
        for _ in 0..reps {
            slow.write_bits(rv, rc);
        }
        // ...then a uniform-width lane batch.
        let fc = rng.gen_range(1u32..=64) as u8;
        let lanes: Vec<u64> = (0..rng.gen_range(0usize..50))
            .map(|_| rng.next_u64())
            .collect();
        word.write_fields(&lanes, fc);
        for &v in &lanes {
            slow.write_bits(v, fc);
        }
        assert_eq!(word.bit_len(), slow.bit_len());
        assert_eq!(word.into_bytes(), slow.into_bytes());
    }
}

#[test]
fn write_quantized_matches_the_per_field_loop() {
    // Every width at every lead offset, values spanning saturation in both
    // directions, exact halves and non-finite inputs; pinned to the
    // per-field composition and to the bit-serial oracle.
    let mut rng = DetRng::seed_from_u64(0xFD);
    for width in 1..=32u8 {
        for lead in 0..=63u8 {
            let n = rng.gen_range(1i64..=40) as i16;
            let fmt = Format::new(width, i16::from(width) - n).expect("valid by construction");
            let span = (fmt.max_value() - fmt.min_value()) * 1.5;
            let values: Vec<f64> = (0..rng.gen_range(0usize..=40))
                .map(|_| match rng.gen_range(0u32..8) {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => fmt.step() * (rng.gen_range(-64i64..64) as f64 + 0.5),
                    _ => rng.gen_range(-span..span),
                })
                .collect();
            let mut lane = BitWriter::new();
            let mut looped = BitWriter::new();
            let mut slow = reference::SlowWriter::new();
            lane.write_bits(0x2A5, lead);
            looped.write_bits(0x2A5, lead);
            slow.write_bits(0x2A5, lead);
            lane.write_quantized(fmt, &values);
            for &x in &values {
                looped.write_bits(fmt.to_bits(fmt.quantize(x)), width);
                slow.write_bits(fmt.to_bits(fmt.quantize(x)), width);
            }
            let case = format!("{fmt} lead={lead} fields={}", values.len());
            assert_eq!(lane.bit_len(), slow.bit_len(), "{case}");
            let bytes = lane.into_bytes();
            assert_eq!(bytes, looped.into_bytes(), "{case}");
            assert_eq!(bytes, slow.into_bytes(), "{case}");
        }
    }
}

#[test]
fn pad_to_bytes_is_byte_exact() {
    let mut rng = DetRng::seed_from_u64(0xF8);
    for _ in 0..CASES {
        let n_fields = rng.gen_range(0usize..20);
        let mut w = BitWriter::new();
        for _ in 0..n_fields {
            let c = rng.gen_range(1u32..=16) as u8;
            w.write_bits(rng.next_u64(), c);
        }
        let extra = rng.gen_range(0usize..16);
        let target = w.bit_len().div_ceil(8) + extra;
        w.pad_to_bytes(target);
        assert_eq!(w.into_bytes().len(), target);
    }
}

/// The per-field loop `read_dequantized` replaces: `read_bits` → `from_bits`
/// → `dequantize` into each slot, stopping at the first failing read.
fn per_field_lane(
    r: &mut BitReader<'_>,
    fmt: Format,
    out: &mut [f64],
) -> Result<(), age_fixed::BitReaderError> {
    for slot in out {
        *slot = fmt.dequantize(fmt.from_bits(r.read_bits(fmt.width())?));
    }
    Ok(())
}

#[test]
fn read_dequantized_matches_the_per_field_loop() {
    // Every width at every lead offset. Each lane is read from slices that
    // end 0..=7 whole bytes after it (so its last field sits in the final
    // 1..=8 bytes, through the zero-padded tail window) and from one slice
    // too short to hold it.
    let mut rng = DetRng::seed_from_u64(0xFC);
    for width in 1..=32u8 {
        for lead in 0..=63u8 {
            let n = rng.gen_range(1i64..=40) as i16;
            let fmt = Format::new(width, i16::from(width) - n).expect("valid by construction");
            let fields = rng.gen_range(0usize..=40);
            let needed = (usize::from(lead) + fields * usize::from(width)).div_ceil(8);
            let lead_bytes = usize::from(lead).div_ceil(8);
            let mut lengths: Vec<usize> = (0..8).map(|extra| needed + extra).collect();
            if lead_bytes < needed {
                lengths.push(rng.gen_range(lead_bytes..needed));
            }
            for len in lengths {
                let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let mut lane = BitReader::new(&bytes);
                let mut looped = BitReader::new(&bytes);
                lane.read_bits(lead).expect("the slice holds the lead");
                looped.read_bits(lead).expect("the slice holds the lead");
                // Sentinels show which slots each side wrote.
                let mut got = vec![f64::NAN; fields];
                let mut want = vec![f64::NAN; fields];
                let case = format!("{fmt} lead={lead} fields={fields} len={len}");
                assert_eq!(
                    lane.read_dequantized(fmt, &mut got),
                    per_field_lane(&mut looped, fmt, &mut want),
                    "{case}"
                );
                assert_eq!(lane.remaining_bits(), looped.remaining_bits(), "{case}");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{case}");
                // Both readers stopped at the same bit: what follows matches.
                let rest = lane.remaining_bits().min(64) as u8;
                assert_eq!(lane.read_bits(rest), looped.read_bits(rest), "{case}");
                // The kernel and `read_bits` share the window load, so pin
                // the slots to the bit-serial oracle too: every field it can
                // read, then untouched sentinels.
                let mut slow = reference::SlowReader::new(&bytes);
                slow.read_bits(lead);
                for (i, &value) in got.iter().enumerate() {
                    match slow.read_bits(width) {
                        Some(b) => assert_eq!(
                            value.to_bits(),
                            fmt.dequantize(fmt.from_bits(b)).to_bits(),
                            "{case} slot {i}"
                        ),
                        None => assert!(value.is_nan(), "{case} slot {i} written"),
                    }
                }
            }
        }
    }
}
