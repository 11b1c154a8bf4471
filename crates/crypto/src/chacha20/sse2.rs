//! Four-block ChaCha20 keystream in SSE2, which every `x86_64` CPU has.
//!
//! The state is held transposed: register `x[i]` carries state word `i` of
//! four blocks, lane *l* being the block at counter `state[12] + l`. A
//! quarter-round on four registers then advances the same quarter-round of
//! all four blocks at once, so the column and diagonal rounds are the
//! scalar index pattern with no lane shuffles. Rotation by 16 swaps the
//! 16-bit halves of each lane (`pshuflw`/`pshufhw`); the other rotations
//! are a shift pair and an OR. At the end, four 4×4 transposes turn word
//! lanes back into consecutive blocks.

#![allow(unsafe_code)]

use core::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_or_si128, _mm_set1_epi32, _mm_set_epi32, _mm_shufflehi_epi16,
    _mm_shufflelo_epi16, _mm_slli_epi32, _mm_srli_epi32, _mm_storeu_si128, _mm_unpackhi_epi32,
    _mm_unpackhi_epi64, _mm_unpacklo_epi32, _mm_unpacklo_epi64, _mm_xor_si128,
};

/// See [`super::keystream4`].
pub(super) fn keystream4(state: &[u32; 16]) -> [u32; 64] {
    // SAFETY: SSE2 is part of the x86_64 baseline target, so every CPU this
    // module is compiled for supports the instructions `keystream4_sse2`
    // enables.
    unsafe { keystream4_sse2(state) }
}

#[target_feature(enable = "sse2")]
fn keystream4_sse2(state: &[u32; 16]) -> [u32; 64] {
    let mut input: [__m128i; 16] = core::array::from_fn(|i| _mm_set1_epi32(state[i] as i32));
    // Lane l counts block c + l; `paddd` wraps like the scalar counter.
    input[12] = _mm_add_epi32(input[12], _mm_set_epi32(3, 2, 1, 0));

    let mut x = input;
    for _ in 0..10 {
        quarter_round(&mut x, 0, 4, 8, 12);
        quarter_round(&mut x, 1, 5, 9, 13);
        quarter_round(&mut x, 2, 6, 10, 14);
        quarter_round(&mut x, 3, 7, 11, 15);
        quarter_round(&mut x, 0, 5, 10, 15);
        quarter_round(&mut x, 1, 6, 11, 12);
        quarter_round(&mut x, 2, 7, 8, 13);
        quarter_round(&mut x, 3, 4, 9, 14);
    }
    for (word, start) in x.iter_mut().zip(input) {
        *word = _mm_add_epi32(*word, start);
    }

    let mut out = [0u32; 64];
    for (group, words) in x.as_chunks::<4>().0.iter().enumerate() {
        let [a, b, c, d] = *words;
        // 4×4 transpose: lane l of words 4g..4g+4 becomes block l's row g.
        let ab_lo = _mm_unpacklo_epi32(a, b);
        let cd_lo = _mm_unpacklo_epi32(c, d);
        let ab_hi = _mm_unpackhi_epi32(a, b);
        let cd_hi = _mm_unpackhi_epi32(c, d);
        let rows = [
            _mm_unpacklo_epi64(ab_lo, cd_lo),
            _mm_unpackhi_epi64(ab_lo, cd_lo),
            _mm_unpacklo_epi64(ab_hi, cd_hi),
            _mm_unpackhi_epi64(ab_hi, cd_hi),
        ];
        for (block, row) in out.as_chunks_mut::<16>().0.iter_mut().zip(rows) {
            let dst = &mut block.as_chunks_mut::<4>().0[group];
            // SAFETY: `dst` is a live, writable `[u32; 4]`, exactly the 16
            // bytes `_mm_storeu_si128` writes; the store has no alignment
            // requirement.
            unsafe { _mm_storeu_si128(dst.as_mut_ptr().cast(), row) };
        }
    }
    out
}

#[target_feature(enable = "sse2")]
#[inline]
fn quarter_round(x: &mut [__m128i; 16], a: usize, b: usize, c: usize, d: usize) {
    x[a] = _mm_add_epi32(x[a], x[b]);
    x[d] = rotl16(_mm_xor_si128(x[d], x[a]));
    x[c] = _mm_add_epi32(x[c], x[d]);
    x[b] = rotl::<12, 20>(_mm_xor_si128(x[b], x[c]));
    x[a] = _mm_add_epi32(x[a], x[b]);
    x[d] = rotl::<8, 24>(_mm_xor_si128(x[d], x[a]));
    x[c] = _mm_add_epi32(x[c], x[d]);
    x[b] = rotl::<7, 25>(_mm_xor_si128(x[b], x[c]));
}

/// Rotates each 32-bit lane left by 16: swap its two 16-bit halves.
#[target_feature(enable = "sse2")]
#[inline]
fn rotl16(v: __m128i) -> __m128i {
    const SWAP_HALVES: i32 = 0b10_11_00_01;
    _mm_shufflehi_epi16::<SWAP_HALVES>(_mm_shufflelo_epi16::<SWAP_HALVES>(v))
}

/// Rotates each 32-bit lane left by `L` (`R` must be `32 - L`).
#[target_feature(enable = "sse2")]
#[inline]
fn rotl<const L: i32, const R: i32>(v: __m128i) -> __m128i {
    _mm_or_si128(_mm_slli_epi32::<L>(v), _mm_srli_epi32::<R>(v))
}
