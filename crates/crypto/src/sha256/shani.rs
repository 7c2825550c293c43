//! SHA-256 block compression on the x86 SHA extensions (SHA-NI).
//!
//! `sha256rnds2` runs two rounds on the state held as the register pair
//! ABEF/CDGH; `sha256msg1` and `sha256msg2` extend the message schedule
//! four words at a time. This module holds the crate's only `unsafe`
//! code: pointer loads and stores of SIMD registers, and the one call
//! into the kernel, which run-time feature detection guards.

use std::arch::x86_64::{
    __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
    _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
    _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
};

use super::K;

/// Whether this CPU has every extension the kernel is compiled for.
/// `std` caches the CPUID probe, so this costs a few relaxed loads.
pub(super) fn detected() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Compresses every 64-byte block of `blocks` into `state` in one kernel
/// call. Returns `false`, leaving `state` untouched, when the CPU lacks
/// the extensions.
pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !detected() {
        return false;
    }
    // SAFETY: `detected` confirmed that the CPU supports every feature
    // `compress_blocks` is compiled with.
    unsafe { compress_blocks(state, blocks) };
    true
}

/// The kernel: every whole 64-byte block of `blocks`, in order.
///
/// # Safety
///
/// Outside code compiled with these target features, callers must first
/// confirm the CPU supports them ([`detected`]); running the instructions
/// on a CPU without them is undefined behaviour.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    // Reverses the bytes of each 32-bit lane: message words are big-endian.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
    // SAFETY: `state` is 8 contiguous `u32`s, so both 16-byte loads stay in
    // bounds; `loadu` has no alignment requirement.
    let (dcba, hgfe) = unsafe {
        let p = state.as_ptr().cast::<__m128i>();
        (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
    };
    // Repack a..h into the ABEF/CDGH pair the round instruction expects.
    let cdab = _mm_shuffle_epi32(dcba, 0xB1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `block` is 64 readable bytes, so the four 16-byte loads
        // stay in bounds; `loadu` has no alignment requirement.
        let mut w = unsafe {
            let p = block.as_ptr().cast::<__m128i>();
            [
                _mm_loadu_si128(p),
                _mm_loadu_si128(p.add(1)),
                _mm_loadu_si128(p.add(2)),
                _mm_loadu_si128(p.add(3)),
            ]
        };
        for word in &mut w {
            *word = _mm_shuffle_epi8(*word, be_words);
        }
        // Sixteen groups of four rounds over a rolling window of the last
        // sixteen schedule words (four registers).
        for group in 0..16 {
            if group >= 4 {
                w[group % 4] = schedule(
                    w[group % 4],
                    w[(group + 1) % 4],
                    w[(group + 2) % 4],
                    w[(group + 3) % 4],
                );
            }
            rounds4(&mut abef, &mut cdgh, w[group % 4], group);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    let hgef = _mm_alignr_epi8(dchg, feba, 8);
    // SAFETY: `state` is 8 contiguous `u32`s, so both 16-byte stores stay
    // in bounds; `storeu` has no alignment requirement.
    unsafe {
        let p = state.as_mut_ptr().cast::<__m128i>();
        _mm_storeu_si128(p, dcba);
        _mm_storeu_si128(p.add(1), hgef);
    }
}

/// Next four schedule words W[t..t+4] from W[t-16..t] held in `w0..w3`.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
    let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
    _mm_sha256msg2_epu32(t, w3)
}

/// Rounds `4 * group .. 4 * group + 4` with schedule words `w`.
#[inline]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
    let k = &K[4 * group..4 * group + 4];
    let wk = _mm_add_epi32(
        w,
        _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
    );
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
}
