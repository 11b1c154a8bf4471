//! Four-block ChaCha20 keystream in AVX2, chosen at run time.
//!
//! The state is held in rows, not transposed: each 256-bit register holds
//! one row of two consecutive blocks, the lower 128 bits for the even block
//! and the upper 128 bits for the odd one. Two such register quartets carry
//! blocks 0–1 and 2–3, so the whole pass lives in eight registers. A
//! column round is one lane-wise quarter-round on the four rows; a diagonal
//! round is the same after `vpshufd` rotates rows b/c/d left by 1/2/3
//! words, the row-lane form of the scalar [`super::permuted_words`].
//! Rotations by 16 and 8 are one `vpshufb` byte shuffle each; by 12 and 7
//! a shift pair and an OR. At the end each block's four rows are two
//! 128-bit halves apart, so one `vperm2i128` per 32-byte store puts them
//! back in block order.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m256i, _mm256_add_epi32, _mm256_or_si256, _mm256_permute2x128_si256, _mm256_setr_epi32,
    _mm256_setr_epi8, _mm256_shuffle_epi32, _mm256_shuffle_epi8, _mm256_slli_epi32,
    _mm256_srli_epi32, _mm256_storeu_si256, _mm256_xor_si256,
};

/// [`super::keystream4`] in one AVX2 pass, or `None` when this CPU has no
/// AVX2 (the caller then runs the scalar blocks).
pub(super) fn keystream4(state: &[u32; 16]) -> Option<[u32; 64]> {
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `keystream4_avx2` enables only AVX2, and the
        // `is_x86_feature_detected!("avx2")` check just above saw that this
        // CPU supports it.
        Some(unsafe { keystream4_avx2(state) })
    } else {
        None
    }
}

#[target_feature(enable = "avx2")]
fn keystream4_avx2(state: &[u32; 16]) -> [u32; 64] {
    let [a0, a1, a2, a3, b0, b1, b2, b3, c0, c1, c2, c3, d0, d1, d2, d3] =
        state.map(|word| word as i32);
    let (a, b) = (row_pair([a0, a1, a2, a3]), row_pair([b0, b1, b2, b3]));
    let (c, d) = (row_pair([c0, c1, c2, c3]), row_pair([d0, d1, d2, d3]));
    // Block l counts `state[12] + l`; `vpaddd` wraps like the scalar
    // counter.
    let d01 = _mm256_add_epi32(d, _mm256_setr_epi32(0, 0, 0, 0, 1, 0, 0, 0));
    let d23 = _mm256_add_epi32(d, _mm256_setr_epi32(2, 0, 0, 0, 3, 0, 0, 0));
    let input = [[a, b, c, d01], [a, b, c, d23]];

    let mut x = input;
    for _ in 0..10 {
        quarter_round(&mut x);
        // Diagonal round: rotate rows b/c/d so the diagonals line up as
        // columns, then rotate them back.
        for [_, b, c, d] in &mut x {
            *b = _mm256_shuffle_epi32::<0b00_11_10_01>(*b);
            *c = _mm256_shuffle_epi32::<0b01_00_11_10>(*c);
            *d = _mm256_shuffle_epi32::<0b10_01_00_11>(*d);
        }
        quarter_round(&mut x);
        for [_, b, c, d] in &mut x {
            *b = _mm256_shuffle_epi32::<0b10_01_00_11>(*b);
            *c = _mm256_shuffle_epi32::<0b01_00_11_10>(*c);
            *d = _mm256_shuffle_epi32::<0b00_11_10_01>(*d);
        }
    }

    let mut out = [0u32; 64];
    let mut halves = out.as_chunks_mut::<8>().0.iter_mut();
    for ([a, b, c, d], [sa, sb, sc, sd]) in x.into_iter().zip(input) {
        let (a, b) = (_mm256_add_epi32(a, sa), _mm256_add_epi32(b, sb));
        let (c, d) = (_mm256_add_epi32(c, sc), _mm256_add_epi32(d, sd));
        // Rows a‖b then c‖d of the even block (lower halves), then of the
        // odd block (upper halves).
        let words = [
            _mm256_permute2x128_si256::<0x20>(a, b),
            _mm256_permute2x128_si256::<0x20>(c, d),
            _mm256_permute2x128_si256::<0x31>(a, b),
            _mm256_permute2x128_si256::<0x31>(c, d),
        ];
        // `words` leads the zip so it stops without taking a fifth chunk.
        for (v, dst) in words.into_iter().zip(halves.by_ref()) {
            // SAFETY: `dst` is a live, writable `[u32; 8]`, exactly the 32
            // bytes `_mm256_storeu_si256` writes, and the store has no
            // alignment requirement; AVX2 itself is present because this
            // function only runs after the `is_x86_feature_detected!("avx2")`
            // check in `keystream4`.
            unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) };
        }
    }
    out
}

/// One state row, repeated for two blocks.
#[target_feature(enable = "avx2")]
#[inline]
fn row_pair([w0, w1, w2, w3]: [i32; 4]) -> __m256i {
    _mm256_setr_epi32(w0, w1, w2, w3, w0, w1, w2, w3)
}

/// The quarter-round on the four columns of both block pairs.
#[target_feature(enable = "avx2")]
#[inline]
fn quarter_round(x: &mut [[__m256i; 4]; 2]) {
    for [a, b, c, d] in x.iter_mut() {
        *a = _mm256_add_epi32(*a, *b);
        *d = rotl16(_mm256_xor_si256(*d, *a));
        *c = _mm256_add_epi32(*c, *d);
        *b = rotl::<12, 20>(_mm256_xor_si256(*b, *c));
        *a = _mm256_add_epi32(*a, *b);
        *d = rotl8(_mm256_xor_si256(*d, *a));
        *c = _mm256_add_epi32(*c, *d);
        *b = rotl::<7, 25>(_mm256_xor_si256(*b, *c));
    }
}

/// Rotates each 32-bit lane left by 16: byte `i` of a word takes byte
/// `(i + 2) % 4`.
#[target_feature(enable = "avx2")]
#[inline]
fn rotl16(v: __m256i) -> __m256i {
    _mm256_shuffle_epi8(
        v,
        _mm256_setr_epi8(
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13, //
            2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13,
        ),
    )
}

/// Rotates each 32-bit lane left by 8: byte `i` of a word takes byte
/// `(i + 3) % 4`.
#[target_feature(enable = "avx2")]
#[inline]
fn rotl8(v: __m256i) -> __m256i {
    _mm256_shuffle_epi8(
        v,
        _mm256_setr_epi8(
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14, //
            3, 0, 1, 2, 7, 4, 5, 6, 11, 8, 9, 10, 15, 12, 13, 14,
        ),
    )
}

/// Rotates each 32-bit lane left by `L` (`R` must be `32 - L`).
#[target_feature(enable = "avx2")]
#[inline]
fn rotl<const L: i32, const R: i32>(v: __m256i) -> __m256i {
    _mm256_or_si256(_mm256_slli_epi32::<L>(v), _mm256_srli_epi32::<R>(v))
}
