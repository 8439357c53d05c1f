//! The payload generator: splitmix64 in counter form, one block loop
//! compiled twice.
//!
//! Every pristine chunk the data plane checks repaired bytes against is
//! generated here ([`Stripe::patterned_seeded`](crate::Stripe::patterned_seeded)).
//! Byte `k` of a chunk whose stream starts at `base` is
//!
//! ```text
//! buf[k] = mix(base + (k + 1)·γ) >> 56
//! ```
//!
//! with `γ` = [`GAMMA`] and `mix` splitmix64's output function — a
//! function of `k` alone, not of byte `k − 1`. The generator fills 64-lane
//! blocks: lane `i` of a block starting at byte `b` is
//! `mix(base + b·γ + (i + 1)·γ)`, and the next block steps every lane by
//! `64·γ`. With no loop-carried dependency the block vectorises; the
//! sequential `x += γ` loop this replaced, byte for byte the same
//! sequence, is the differential oracle in `tests/fill_diff.rs`.
//!
//! The block loop is compiled twice: as written for the baseline target,
//! and as a clone with `avx512f,avx512dq` enabled, whose 64-bit lane
//! multiply (`vpmullq`) the baseline lacks. [`fill`] runs the clone when
//! the CPU probe in [`simd`](crate::simd) reports AVX-512; [`fill_with`]
//! pins a tier for tests.

use crate::simd::{self, Kernel};

/// splitmix64's increment: the odd golden-ratio constant each step adds.
pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Bytes per block: one per lane.
const LANES: usize = 64;

/// `(i + 1)·γ` for each lane `i` of a block.
const LANE_OFFSETS: [u64; LANES] = {
    let mut out = [0u64; LANES];
    let mut i = 0;
    while i < LANES {
        out[i] = GAMMA.wrapping_mul(i as u64 + 1);
        i += 1;
    }
    out
};

/// splitmix64's output function.
#[inline(always)]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fill `buf` with the stream that starts at `base`:
/// `buf[k] = mix(base + (k + 1)·γ) >> 56`.
pub fn fill(buf: &mut [u8], base: u64) {
    fill_with(simd::detected(), buf, base)
}

/// [`fill`] on the widest clone at or below `kernel`, clamped to what the
/// CPU supports: below `Avx512` that is the portable loop.
pub fn fill_with(kernel: Kernel, buf: &mut [u8], base: u64) {
    match kernel.min(simd::detected()) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamped to the detected tier, so the CPU has AVX-512F/DQ.
        Kernel::Avx512 => unsafe { fill_avx512(buf, base) },
        _ => fill_blocks(buf, base),
    }
}

/// The block loop both kernels compile.
#[inline(always)]
fn fill_blocks(buf: &mut [u8], base: u64) {
    let mut block_base = base;
    let mut blocks = buf.chunks_exact_mut(LANES);
    for block in &mut blocks {
        for (b, off) in block.iter_mut().zip(LANE_OFFSETS) {
            *b = (mix(block_base.wrapping_add(off)) >> 56) as u8;
        }
        block_base = block_base.wrapping_add(GAMMA.wrapping_mul(LANES as u64));
    }
    for (b, off) in blocks.into_remainder().iter_mut().zip(LANE_OFFSETS) {
        *b = (mix(block_base.wrapping_add(off)) >> 56) as u8;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn fill_avx512(buf: &mut [u8], base: u64) {
    fill_blocks(buf, base)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_bytes_follow_the_stream() {
        let base = 0x1234_5678;
        let mut buf = [0u8; 3];
        fill(&mut buf, base);
        for (k, &b) in buf.iter().enumerate() {
            let x = base.wrapping_add(GAMMA.wrapping_mul(k as u64 + 1));
            assert_eq!(b, (mix(x) >> 56) as u8, "byte {k}");
        }
    }

    #[test]
    fn every_kernel_agrees_across_a_block_edge() {
        // Small enough for Miri; the 0..=4096 and 32 KiB cases live in the
        // differential suite.
        let mut want = vec![0u8; LANES * 2 + 5];
        fill_with(Kernel::Portable, &mut want, 7);
        for kernel in [Kernel::Portable, Kernel::Avx2, Kernel::Avx512] {
            let mut got = vec![0xEEu8; want.len()];
            fill_with(kernel, &mut got, 7);
            assert_eq!(got, want, "{kernel:?}");
        }
    }
}
