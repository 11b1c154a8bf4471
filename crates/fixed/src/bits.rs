//! MSB-first bit packing into byte buffers.
//!
//! AGE assembles messages at bit granularity (per-group widths are not byte
//! multiples), then pads to a byte-exact target length. The writer and reader
//! here use MSB-first order within each byte, matching how a microcontroller
//! would shift bits onto a radio buffer.
//!
//! The writer shifts fields into the low end of a `u64` accumulator and
//! spills eight big-endian bytes per 64-bit flush, and
//! [`BitWriter::write_quantized`] quantizes and packs a whole fixed-point
//! lane that way in one pass. The reader is a bit cursor: each read loads
//! the eight bytes under the cursor as one word and shifts the field out
//! of it, and [`BitReader::read_dequantized`] decodes a whole fixed-point
//! lane straight to `f64` that way. A decoder that checks a frame's bit
//! budget once ([`BitReader::check_at`]) can also read fields at computed
//! bit positions ([`BitReader::bits_at`], [`BitReader::signed_bits_at`])
//! without moving the cursor. The wire format is identical to a
//! bit-at-a-time implementation (property tests in `tests/properties.rs`
//! pin both sides against a reference oracle) — only the number of memory
//! operations changes.

use std::fmt;

use crate::Format;

/// Accumulates bit fields into a byte vector, MSB first.
///
/// Internally the writer keeps a `u64` accumulator holding the trailing
/// `acc_bits` bits of the stream in its low positions; `bytes` always holds a
/// whole number of fully flushed bytes. Writing is a shift/OR per field with
/// one eight-byte spill per 64 bits written.
///
/// # Examples
///
/// ```
/// use age_fixed::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0b0001, 4);
/// assert_eq!(w.bit_len(), 7);
/// let bytes = w.into_bytes(); // padded with zero bits to a byte boundary
/// assert_eq!(bytes, vec![0b1010_0010]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    /// Fully flushed bytes. Never holds a partial byte; trailing bits live in
    /// `acc` until a flush or [`BitWriter::into_bytes`].
    bytes: Vec<u8>,
    /// Pending bits, right-aligned: the low `acc_bits` bits are valid and the
    /// oldest pending bit is the most significant of them.
    acc: u64,
    /// Number of valid bits in `acc` (always `< 64`; a full word is spilled
    /// to `bytes` eagerly).
    acc_bits: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Creates an empty writer with capacity for `bytes` output bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bytes),
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Creates an empty writer backed by `bytes`, reusing its allocation.
    ///
    /// The vector's contents are cleared but its capacity is kept, so a
    /// buffer recovered from [`BitWriter::into_bytes`] can be cycled through
    /// repeated encodes without reallocating.
    pub fn from_vec(mut bytes: Vec<u8>) -> Self {
        bytes.clear();
        BitWriter {
            bytes,
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + usize::from(self.acc_bits)
    }

    /// Number of bytes the current content occupies (rounding up).
    pub fn byte_len(&self) -> usize {
        self.bytes.len() + usize::from(self.acc_bits).div_ceil(8)
    }

    /// Appends the low `count` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn write_bits(&mut self, value: u64, count: u8) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        let value = value & mask_low(count);
        let free = 64 - u32::from(self.acc_bits);
        if u32::from(count) < free {
            self.acc = (self.acc << count) | value;
            self.acc_bits += count;
        } else {
            // Fill the accumulator to exactly 64 bits, spill it, and keep the
            // remaining low bits of `value` as the new pending tail.
            let rest = u32::from(count) - free;
            let word = if free == 64 {
                value
            } else {
                (self.acc << free) | (value >> rest)
            };
            self.bytes.extend_from_slice(&word.to_be_bytes());
            self.acc = value & mask_low(rest as u8);
            self.acc_bits = rest as u8;
        }
    }

    /// Appends `repeats` copies of the same `count`-bit field.
    ///
    /// Copies are packed into whole words first, so long runs (e.g. the zero
    /// gaps of a collection bitmask) cost one memory write per 64 bits rather
    /// than one per field. Output is identical to calling
    /// [`BitWriter::write_bits`] `repeats` times.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn write_run(&mut self, value: u64, count: u8, repeats: usize) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        if count == 0 || repeats == 0 {
            return;
        }
        let per_word = usize::from(64 / count);
        if per_word <= 1 || repeats == 1 {
            for _ in 0..repeats {
                self.write_bits(value, count);
            }
            return;
        }
        let value = value & mask_low(count);
        let mut packed = value;
        for _ in 1..per_word {
            packed = (packed << count) | value;
        }
        let packed_bits = (per_word as u8) * count;
        let mut left = repeats;
        while left >= per_word {
            self.write_bits(packed, packed_bits);
            left -= per_word;
        }
        if left > 0 {
            self.write_bits(packed, (left as u8) * count);
        }
    }

    /// Appends every element of `values` as a `count`-bit field, most
    /// significant bits first (a group-level batch write).
    ///
    /// Equivalent to calling [`BitWriter::write_bits`] per element.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    pub fn write_fields(&mut self, values: &[u64], count: u8) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        self.write_lane(values.iter().copied(), count);
    }

    /// Quantizes every element of `values` to `fmt` and appends it as a
    /// `fmt.width()`-bit two's complement field: a group's whole lane
    /// quantized and packed in one pass, the encode-side mirror of
    /// [`BitReader::read_dequantized`].
    ///
    /// Bit-identical to calling
    /// `self.write_bits(fmt.to_bits(fmt.quantize(x)), fmt.width())` per
    /// element.
    pub fn write_quantized(&mut self, fmt: Format, values: &[f64]) {
        let quantize = fmt.quantizer();
        // The field mask keeps the low `width` bits of the raw integer,
        // which is its two's complement pattern (`Format::to_bits`).
        self.write_lane(values.iter().map(|&x| quantize(x) as u64), fmt.width());
    }

    /// The lane loop behind [`BitWriter::write_fields`] and
    /// [`BitWriter::write_quantized`]: keeping the accumulator in locals
    /// lets the compiler hold it in registers across the whole lane.
    #[inline(always)]
    fn write_lane(&mut self, fields: impl Iterator<Item = u64>, count: u8) {
        if count == 0 {
            return;
        }
        let mask = mask_low(count);
        let mut acc = self.acc;
        let mut acc_bits = u32::from(self.acc_bits);
        for raw in fields {
            let value = raw & mask;
            let free = 64 - acc_bits;
            if u32::from(count) < free {
                acc = (acc << count) | value;
                acc_bits += u32::from(count);
            } else {
                let rest = u32::from(count) - free;
                let word = if free == 64 {
                    value
                } else {
                    (acc << free) | (value >> rest)
                };
                self.bytes.extend_from_slice(&word.to_be_bytes());
                acc = value & mask_low(rest as u8);
                acc_bits = rest;
            }
        }
        self.acc = acc;
        self.acc_bits = acc_bits as u8;
    }

    /// Appends a full byte (convenience for headers).
    pub fn write_u8(&mut self, value: u8) {
        self.write_bits(u64::from(value), 8);
    }

    /// Appends a big-endian `u16`.
    pub fn write_u16(&mut self, value: u16) {
        self.write_bits(u64::from(value), 16);
    }

    /// Appends zero bits until the total length reaches `target_bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the content already exceeds `target_bytes`.
    pub fn pad_to_bytes(&mut self, target_bytes: usize) {
        let current = self.bit_len();
        let target = target_bytes * 8;
        assert!(
            current <= target,
            "content of {current} bits exceeds pad target of {target} bits"
        );
        // Close the partial byte, then extend with zero bytes directly.
        self.flush_partial();
        self.bytes.resize(target_bytes, 0);
    }

    /// Spills the pending accumulator bits to `bytes`, zero-padding the
    /// final partial byte.
    fn flush_partial(&mut self) {
        if self.acc_bits > 0 {
            let whole = usize::from(self.acc_bits).div_ceil(8);
            // Left-align the pending bits in the word; acc_bits < 64 so the
            // shift is in 1..=63.
            let word = self.acc << (64 - u32::from(self.acc_bits));
            self.bytes.extend_from_slice(&word.to_be_bytes()[..whole]);
            self.acc = 0;
            self.acc_bits = 0;
        }
    }

    /// Finishes the stream, zero-padding the final partial byte.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.flush_partial();
        self.bytes
    }
}

/// Mask selecting the low `count` bits (`count <= 64`).
#[inline]
fn mask_low(count: u8) -> u64 {
    if count >= 64 {
        u64::MAX
    } else {
        (1u64 << count) - 1
    }
}

/// Error returned by [`BitReader`] when the stream is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitReaderError {
    /// Bits requested by the failed read.
    pub requested: u8,
    /// Bits that remained in the stream.
    pub remaining: usize,
}

impl fmt::Display for BitReaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bit stream exhausted: requested {} bits with {} remaining",
            self.requested, self.remaining
        )
    }
}

impl std::error::Error for BitReaderError {}

/// Reads bit fields from a byte slice, MSB first.
///
/// The mirror of [`BitWriter`], kept as a plain bit cursor: every read loads
/// the eight big-endian bytes under the cursor as one word and shifts the
/// field out of it, so a read touches memory once per field, not once per
/// bit. [`BitReader::read_dequantized`] decodes a whole fixed-point lane the
/// same way in one pass.
///
/// # Examples
///
/// ```
/// use age_fixed::BitReader;
///
/// let mut r = BitReader::new(&[0b1010_0010]);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// assert_eq!(r.read_bits(4)?, 0b0001);
/// # Ok::<(), age_fixed::BitReaderError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Bits consumed so far; the next field starts `pos % 8` bits below the
    /// top of byte `pos / 8`.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Bits not yet consumed.
    pub fn remaining_bits(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// The eight bytes from byte `index` on as a big-endian word; the last
    /// few bytes of the slice are zero-padded to a whole word.
    #[inline]
    fn window(&self, index: usize) -> u64 {
        let tail = self.bytes.get(index..).unwrap_or_default();
        match tail.first_chunk::<8>() {
            Some(chunk) => u64::from_be_bytes(*chunk),
            None => {
                let mut word = [0u8; 8];
                word[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(word)
            }
        }
    }

    /// Reads `count` bits as the low bits of a `u64`, most significant first.
    ///
    /// # Errors
    ///
    /// Returns [`BitReaderError`] if fewer than `count` bits remain. A failed
    /// read consumes nothing.
    pub fn read_bits(&mut self, count: u8) -> Result<u64, BitReaderError> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        if usize::from(count) > self.remaining_bits() {
            return Err(BitReaderError {
                requested: count,
                remaining: self.remaining_bits(),
            });
        }
        if count == 0 {
            return Ok(0);
        }
        let (index, lead) = (self.pos / 8, self.pos % 8);
        // The window holds the next `64 - lead` bits; a field wider than
        // that takes its last bits from the ninth byte.
        let mut word = self.window(index) << lead;
        if usize::from(count) > 64 - lead {
            word |= u64::from(self.bytes.get(index + 8).copied().unwrap_or(0)) >> (8 - lead);
        }
        self.pos += usize::from(count);
        Ok(word >> (64 - u32::from(count)))
    }

    /// Reads `out.len()` consecutive `fmt.width()`-bit two's complement
    /// fields and stores each one's real value in its slot: a group's whole
    /// lane decoded in one pass.
    ///
    /// Bit-identical to filling each slot with
    /// `fmt.dequantize(fmt.from_bits(self.read_bits(fmt.width())?))`,
    /// including on failure: if the stream ends inside the lane, the fields
    /// that fit are stored, the reader stops after them, and the error is
    /// the one the first failing per-field read returns.
    ///
    /// # Errors
    ///
    /// Returns [`BitReaderError`] if fewer than `out.len() * fmt.width()`
    /// bits remain.
    pub fn read_dequantized(&mut self, fmt: Format, out: &mut [f64]) -> Result<(), BitReaderError> {
        let width = usize::from(fmt.width());
        let fits = out.len().min(self.remaining_bits() / width);
        let step = fmt.step();
        let mut pos = self.pos;
        for slot in &mut out[..fits] {
            *slot = self.signed_bits_at(pos, fmt.width()) as f64 * step;
            pos += width;
        }
        self.pos = pos;
        if fits < out.len() {
            return Err(BitReaderError {
                requested: fmt.width(),
                remaining: self.remaining_bits(),
            });
        }
        Ok(())
    }

    /// Bits consumed so far: where the next read starts.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The `count`-bit field that starts `pos` bits into the stream, as
    /// the low bits of a `u64`, most significant first; the cursor does not
    /// move. A decoder that has checked its bit budget (with
    /// [`BitReader::check_at`]) reads whole rows of fields this way at
    /// positions it computes.
    ///
    /// `count` must be in `1..=57`: a field that starts fewer than 8 bits
    /// into a byte and is at most 57 bits wide lies in the eight bytes from
    /// that byte on, which one load fetches. Bits past the end of the
    /// stream read as zero. Debug builds panic on a `count` outside
    /// `1..=57`; wider fields need [`BitReader::read_bits`].
    #[inline]
    pub fn bits_at(&self, pos: usize, count: u8) -> u64 {
        debug_assert!((1..=57).contains(&count), "field of {count} bits");
        (self.window(pos / 8) << (pos % 8)) >> (64 - u32::from(count))
    }

    /// [`BitReader::bits_at`] read as a `count`-bit two's complement
    /// integer: the field lands at the top of the shifted window and the
    /// arithmetic shift brings it down sign-extended. Equal to
    /// `Format::from_bits` of the field in any format `count` bits wide.
    #[inline]
    pub fn signed_bits_at(&self, pos: usize, count: u8) -> i64 {
        debug_assert!((1..=57).contains(&count), "field of {count} bits");
        ((self.window(pos / 8) << (pos % 8)) as i64) >> (64 - u32::from(count))
    }

    /// Checks that per-field reads of `fields` (bit counts, in order)
    /// starting at bit `pos` all fit in the stream.
    ///
    /// # Errors
    ///
    /// Returns the error the first read that does not fit would return:
    /// its bit count and the bits left before it.
    pub fn check_at(
        &self,
        pos: usize,
        fields: impl IntoIterator<Item = u8>,
    ) -> Result<(), BitReaderError> {
        let mut remaining = (self.bytes.len() * 8).saturating_sub(pos);
        for count in fields {
            remaining = remaining
                .checked_sub(usize::from(count))
                .ok_or(BitReaderError {
                    requested: count,
                    remaining,
                })?;
        }
        Ok(())
    }

    /// Reads a full byte.
    ///
    /// # Errors
    ///
    /// Returns [`BitReaderError`] if fewer than 8 bits remain.
    pub fn read_u8(&mut self) -> Result<u8, BitReaderError> {
        Ok(self.read_bits(8)? as u8)
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`BitReaderError`] if fewer than 16 bits remain.
    pub fn read_u16(&mut self) -> Result<u16, BitReaderError> {
        Ok(self.read_bits(16)? as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_writer_yields_no_bytes() {
        assert!(BitWriter::new().into_bytes().is_empty());
    }

    #[test]
    fn single_bits_pack_msb_first() {
        let mut w = BitWriter::new();
        for bit in [1u64, 0, 1, 1] {
            w.write_bits(bit, 1);
        }
        assert_eq!(w.into_bytes(), vec![0b1011_0000]);
    }

    #[test]
    fn cross_byte_fields() {
        let mut w = BitWriter::new();
        w.write_bits(0x3FF, 10); // ten ones
        w.write_bits(0, 3);
        w.write_bits(0b11, 2);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0xFF, 0b1100_0110]);
    }

    #[test]
    fn write_then_read_various_widths() {
        let fields: Vec<(u64, u8)> = vec![
            (0b1, 1),
            (0xABCD, 16),
            (0x1F, 5),
            (0, 7),
            (0xFFFF_FFFF_FFFF_FFFF, 64),
            (42, 13),
        ];
        let mut w = BitWriter::new();
        for &(v, c) in &fields {
            w.write_bits(v, c);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, c) in &fields {
            let mask = if c == 64 { u64::MAX } else { (1 << c) - 1 };
            assert_eq!(r.read_bits(c).unwrap(), v & mask);
        }
    }

    #[test]
    fn from_vec_reuses_capacity_and_clears_content() {
        let mut w = BitWriter::new();
        w.write_u16(0xBEEF);
        w.pad_to_bytes(64);
        let recovered = w.into_bytes();
        let cap = recovered.capacity();
        let ptr = recovered.as_ptr();
        let mut w = BitWriter::from_vec(recovered);
        assert_eq!(w.bit_len(), 0);
        w.write_u8(0x7E);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0x7E]);
        assert_eq!(bytes.capacity(), cap);
        assert_eq!(bytes.as_ptr(), ptr);
    }

    #[test]
    fn pad_to_bytes_reaches_exact_length() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.pad_to_bytes(5);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 5);
        assert_eq!(bytes[0], 0b1010_0000);
        assert!(bytes[1..].iter().all(|&b| b == 0));
    }

    #[test]
    #[should_panic(expected = "exceeds pad target")]
    fn pad_to_bytes_panics_when_too_small() {
        let mut w = BitWriter::new();
        w.write_bits(0xFFFF, 16);
        w.pad_to_bytes(1);
    }

    #[test]
    fn reader_reports_exhaustion() {
        let mut r = BitReader::new(&[0xAA]);
        assert_eq!(r.read_bits(6).unwrap(), 0b101010);
        let err = r.read_bits(3).unwrap_err();
        assert_eq!(err.requested, 3);
        assert_eq!(err.remaining, 2);
        // Error is not destructive beyond position: the 2 bits remain.
        assert_eq!(r.read_bits(2).unwrap(), 0b10);
    }

    #[test]
    fn u8_u16_helpers() {
        let mut w = BitWriter::new();
        w.write_u8(0x12);
        w.write_u16(0x3456);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0x12, 0x34, 0x56]);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0x12);
        assert_eq!(r.read_u16().unwrap(), 0x3456);
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0, 3);
        assert_eq!(w.bit_len(), 3);
        w.write_bits(0, 5);
        assert_eq!(w.bit_len(), 8);
        w.write_bits(0, 1);
        assert_eq!(w.bit_len(), 9);
        assert_eq!(w.byte_len(), 2);
    }

    #[test]
    fn write_run_matches_repeated_writes() {
        for &(value, count, repeats) in &[
            (0u64, 1u8, 0usize),
            (1, 1, 1),
            (1, 1, 63),
            (0, 1, 200),
            (0b101, 3, 41),
            (0xABC, 12, 17),
            (0x12345, 20, 5),
            (u64::MAX, 64, 3),
            (0x7F, 7, 64),
        ] {
            let mut batched = BitWriter::new();
            batched.write_bits(0b11, 2); // start unaligned
            batched.write_run(value, count, repeats);
            let mut looped = BitWriter::new();
            looped.write_bits(0b11, 2);
            for _ in 0..repeats {
                looped.write_bits(value, count);
            }
            assert_eq!(batched.bit_len(), looped.bit_len());
            assert_eq!(
                batched.into_bytes(),
                looped.into_bytes(),
                "value={value:#x} count={count} repeats={repeats}"
            );
        }
    }

    #[test]
    fn write_fields_matches_write_bits_loop() {
        let values: Vec<u64> = (0..97).map(|i| (i as u64).wrapping_mul(0x9E37)).collect();
        for count in 1..=64u8 {
            for lead in [0u8, 3, 7, 13] {
                let mut batched = BitWriter::new();
                batched.write_bits(0, lead);
                batched.write_fields(&values, count);
                let mut looped = BitWriter::new();
                looped.write_bits(0, lead);
                for &v in &values {
                    looped.write_bits(v, count);
                }
                assert_eq!(batched.bit_len(), looped.bit_len());
                assert_eq!(
                    batched.into_bytes(),
                    looped.into_bytes(),
                    "count={count} lead={lead}"
                );
            }
        }
    }

    #[test]
    fn reads_straddle_refill_boundaries() {
        // 24 bytes so reads start in several different windows; widths that
        // never divide 64 evenly force reads that straddle a window's end.
        let bytes: Vec<u8> = (0..24).map(|i| (i as u8).wrapping_mul(37) ^ 0x5A).collect();
        let mut word = BitReader::new(&bytes);
        let mut slow_pos = 0usize;
        for &count in [13u8, 7, 64, 1, 3, 33, 17, 30, 24].iter() {
            let got = word.read_bits(count).unwrap();
            // Reference: extract the same bit range by address arithmetic.
            let mut expect = 0u64;
            for i in 0..count {
                let pos = slow_pos + usize::from(i);
                let bit = (bytes[pos / 8] >> (7 - pos % 8)) & 1;
                expect = (expect << 1) | u64::from(bit);
            }
            slow_pos += usize::from(count);
            assert_eq!(got, expect, "count={count} at bit {slow_pos}");
        }
        assert_eq!(word.remaining_bits(), 24 * 8 - slow_pos);
    }
}
