//! XOR kernels: one portable loop per operation, compiled twice, with a
//! scalar differential oracle.
//!
//! Everything in a 3DFT code — encoding, chain repair, full decode,
//! verify — reduces to two primitives: `dst ^= src` ([`xor_into`]) and the
//! all-zero scan ([`is_zero`]). Each is written once as a safe loop that
//! the compiler vectorises for the baseline target (SSE2 on `x86_64`, NEON
//! on `aarch64`), and compiled a second time as a
//! `#[target_feature(enable = "avx2")]` clone. The CPU probe in
//! [`simd`](crate::simd) picks the clone; [`active_kernel`] names it. A
//! multi-source XOR ([`xor_many`]) copies its first source and XORs the
//! rest in one at a time — the same accumulator the data plane keeps per
//! worker.
//!
//! [`scalar`], the original word-wide loop (`align_to::<u64>` middle, byte
//! edges), is kept verbatim and is not dispatched: it is the oracle every
//! clone must match byte for byte (`tests/xor_diff.rs`).

use crate::simd::{self, Kernel};

/// Bytes per block of the all-zero scan, which stops at the first
/// non-zero block.
const ZERO_BLOCK: usize = 256;

/// The tier [`xor_into`] / [`xor_many`] / [`is_zero`] run: the widest XOR
/// clone the CPU supports (`Avx2` on an AVX-512 host).
pub fn active_kernel() -> Kernel {
    clone_for(simd::detected())
}

/// The widest XOR clone at or below `kernel`, clamped to the CPU.
fn clone_for(kernel: Kernel) -> Kernel {
    kernel.min(simd::detected()).min(Kernel::Avx2)
}

/// `dst ^= src`, element-wise. Panics if lengths differ.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    xor_into_with(simd::detected(), dst, src)
}

/// `dst = XOR(srcs)`: copy the first source, XOR the rest in one at a
/// time; no sources zeroes `dst`. Panics if any source's length differs
/// from `dst`'s.
pub fn xor_many(dst: &mut [u8], srcs: &[&[u8]]) {
    let Some((first, rest)) = srcs.split_first() else {
        dst.fill(0);
        return;
    };
    assert_eq!(dst.len(), first.len(), "xor_many length mismatch");
    dst.copy_from_slice(first);
    for s in rest {
        xor_into(dst, s);
    }
}

/// Returns true if the buffer is all zero — handy for parity-consistency
/// checks (`XOR of a whole chain must be zero`).
pub fn is_zero(buf: &[u8]) -> bool {
    is_zero_with(simd::detected(), buf)
}

/// [`xor_into`] on the widest clone at or below `kernel`, clamped to what
/// the CPU supports.
pub fn xor_into_with(kernel: Kernel, dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_into length mismatch");
    match clone_for(kernel) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamped to the detected tier, so the CPU has AVX2.
        Kernel::Avx2 => unsafe { xor_avx2(dst, src) },
        _ => xor_loop(dst, src),
    }
}

/// [`is_zero`] on the widest clone at or below `kernel`, clamped like
/// [`xor_into_with`].
pub fn is_zero_with(kernel: Kernel, buf: &[u8]) -> bool {
    match clone_for(kernel) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: clamped to the detected tier, so the CPU has AVX2.
        Kernel::Avx2 => unsafe { zero_avx2(buf) },
        _ => zero_loop(buf),
    }
}

/// `dst ^= src`: the loop every clone compiles.
#[inline(always)]
fn xor_loop(dst: &mut [u8], src: &[u8]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= *s;
    }
}

/// The all-zero scan every clone compiles: OR-reduce each block, stop at
/// the first non-zero one, then check the bytes after the last full block.
#[inline(always)]
fn zero_loop(buf: &[u8]) -> bool {
    let mut blocks = buf.chunks_exact(ZERO_BLOCK);
    for block in &mut blocks {
        if block.iter().fold(0, |acc, &b| acc | b) != 0 {
            return false;
        }
    }
    blocks.remainder().iter().fold(0, |acc, &b| acc | b) == 0
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn xor_avx2(dst: &mut [u8], src: &[u8]) {
    xor_loop(dst, src)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn zero_avx2(buf: &[u8]) -> bool {
    zero_loop(buf)
}

/// The original word-wide kernels, kept verbatim as the differential oracle.
/// `u64` words in the aligned middle of the buffers, bytes at the unaligned
/// edges — the standard allocation-free way to get LLVM to autovectorise.
pub mod scalar {
    /// `dst ^= src`, element-wise. Lengths already checked by the caller.
    pub fn xor_into(dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "xor_into length mismatch");
        // Split both buffers at u64 alignment. align_to_mut is safe to
        // *call*; reinterpreting u8 as u64 is valid for any bit pattern.
        let (d_head, d_mid, d_tail) = unsafe { dst.align_to_mut::<u64>() };
        let head_len = d_head.len();
        let mid_bytes = d_mid.len() * 8;
        let (s_head, s_rest) = src.split_at(head_len);
        let (s_mid, s_tail) = s_rest.split_at(mid_bytes);

        for (d, s) in d_head.iter_mut().zip(s_head) {
            *d ^= s;
        }
        // The source's middle section need not be aligned; read it per-word.
        for (i, d) in d_mid.iter_mut().enumerate() {
            let mut w = [0u8; 8];
            w.copy_from_slice(&s_mid[i * 8..i * 8 + 8]);
            *d ^= u64::from_ne_bytes(w);
        }
        for (d, s) in d_tail.iter_mut().zip(s_tail) {
            *d ^= s;
        }
    }

    /// `dst = XOR(srcs)`. Seeds `dst` by copying the first source (one
    /// `memcpy` instead of a `fill(0)` pass plus an extra XOR pass), then
    /// folds the rest in one at a time; no sources zeroes `dst`.
    pub fn xor_many(dst: &mut [u8], srcs: &[&[u8]]) {
        let Some((first, rest)) = srcs.split_first() else {
            dst.fill(0);
            return;
        };
        assert_eq!(dst.len(), first.len(), "xor_many length mismatch");
        dst.copy_from_slice(first);
        for s in rest {
            xor_into(dst, s);
        }
    }

    /// Word-wise all-zero scan.
    pub fn is_zero(buf: &[u8]) -> bool {
        let (head, mid, tail) = unsafe { buf.align_to::<u64>() };
        head.iter().all(|&b| b == 0) && mid.iter().all(|&w| w == 0) && tail.iter().all(|&b| b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every tier the host runs, plus the oracle: `None` is `scalar`.
    fn paths() -> Vec<Option<Kernel>> {
        std::iter::once(None)
            .chain(simd::supported().into_iter().map(Some))
            .collect()
    }

    fn xor_on(path: Option<Kernel>, dst: &mut [u8], src: &[u8]) {
        match path {
            Some(kernel) => xor_into_with(kernel, dst, src),
            None => scalar::xor_into(dst, src),
        }
    }

    fn zero_on(path: Option<Kernel>, buf: &[u8]) -> bool {
        match path {
            Some(kernel) => is_zero_with(kernel, buf),
            None => scalar::is_zero(buf),
        }
    }

    #[test]
    fn xor_into_basic() {
        let mut a = vec![0b1010_1010u8; 64];
        let b = vec![0b0101_0101u8; 64];
        xor_into(&mut a, &b);
        assert!(a.iter().all(|&x| x == 0xFF));
    }

    #[test]
    fn xor_into_self_inverse() {
        let src: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let orig: Vec<u8> = (0..1000).map(|i| (i * 7 % 251) as u8).collect();
        let mut buf = orig.clone();
        xor_into(&mut buf, &src);
        xor_into(&mut buf, &src);
        assert_eq!(buf, orig);
    }

    #[test]
    fn xor_into_odd_lengths_all_kernels() {
        // Awkward sizes around vector widths and the scan's block, on the
        // oracle and on every kernel the host supports.
        for path in paths() {
            for len in [0, 1, 3, 7, 8, 9, 15, 17, 31, 63, 64, 65, 127, 129, 255, 257] {
                let a_orig: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let b: Vec<u8> = (0..len).map(|i| (i * 3 + 1) as u8).collect();
                let mut a = a_orig.clone();
                xor_on(path, &mut a, &b);
                for i in 0..len {
                    assert_eq!(a[i], a_orig[i] ^ b[i], "{path:?} len={len} idx={i}");
                }
            }
        }
    }

    #[test]
    fn xor_into_unaligned_offsets() {
        // Force differing alignments of dst and src.
        let backing_a = [0xABu8; 80];
        let backing_b: Vec<u8> = (0..80).map(|i| i as u8).collect();
        for path in paths() {
            for off_a in 0..4 {
                for off_b in 0..4 {
                    let mut a = backing_a[off_a..off_a + 64].to_vec();
                    // Copy with offset to change the underlying alignment.
                    let b = &backing_b[off_b..off_b + 64];
                    let expect: Vec<u8> = a.iter().zip(b).map(|(x, y)| x ^ y).collect();
                    xor_on(path, &mut a, b);
                    assert_eq!(a, expect, "{path:?} off_a={off_a} off_b={off_b}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_into_length_mismatch_panics() {
        let mut a = vec![0u8; 8];
        xor_into(&mut a, &[0u8; 9]);
    }

    #[test]
    fn xor_many_computes_parity() {
        let a = vec![1u8; 32];
        let b = vec![2u8; 32];
        let c = vec![4u8; 32];
        let mut out = vec![0xFFu8; 32];
        xor_many(&mut out, &[&a, &b, &c]);
        assert!(out.iter().all(|&x| x == 7));
    }

    #[test]
    fn xor_many_zero_sources_zeroes_dst_on_every_kernel() {
        // Pinned: a zero-source decode zeroes dst on the dispatched path
        // and on the oracle alike.
        let mut out = vec![0xEEu8; 97];
        xor_many(&mut out, &[]);
        assert!(out.iter().all(|&x| x == 0));
        let mut out = vec![0xEEu8; 97];
        scalar::xor_many(&mut out, &[]);
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn xor_many_matches_scalar_for_six_source_decode() {
        // The paper's decode shape: 6 sources, one destination.
        let srcs: Vec<Vec<u8>> = (0..6u8)
            .map(|k| (0..1000).map(|i| (i as u8).wrapping_mul(k + 3)).collect())
            .collect();
        let refs: Vec<&[u8]> = srcs.iter().map(|v| v.as_slice()).collect();
        let mut want = vec![0u8; 1000];
        scalar::xor_many(&mut want, &refs);
        let mut got = vec![0x5Au8; 1000];
        xor_many(&mut got, &refs);
        assert_eq!(got, want);
    }

    #[test]
    fn every_kernel_variant_matches_scalar() {
        // Not only the supported kernels: an explicit kernel the CPU lacks
        // is clamped to the detected one, never dispatched.
        let dst: Vec<u8> = (0..333).map(|i| (i * 13 % 251) as u8).collect();
        let src: Vec<u8> = (0..333).map(|i| (i * 7 + 1) as u8).collect();
        let mut want = dst.clone();
        scalar::xor_into(&mut want, &src);
        for kernel in [Kernel::Portable, Kernel::Avx2, Kernel::Avx512] {
            let mut got = dst.clone();
            xor_into_with(kernel, &mut got, &src);
            assert_eq!(got, want, "{kernel:?}");
            for buf in [&dst[..], &[0u8; 333], &[]] {
                assert_eq!(
                    is_zero_with(kernel, buf),
                    scalar::is_zero(buf),
                    "{kernel:?}"
                );
            }
        }
    }

    #[test]
    fn is_zero_detects_on_every_kernel() {
        for path in paths() {
            assert!(zero_on(path, &[0u8; 16]), "{path:?}");
            assert!(!zero_on(path, &[0, 0, 1, 0]), "{path:?}");
            assert!(zero_on(path, &[]), "{path:?}");
            assert!(zero_on(path, &[0u8; 333]), "{path:?}");
            let mut buf = vec![0u8; 333];
            // Both blocks' edges and the bytes after the last full block.
            for poison in [0, 63, 64, 150, 255, 256, 300, 332] {
                buf[poison] = 1;
                assert!(!zero_on(path, &buf), "{path:?} poison={poison}");
                buf[poison] = 0;
            }
        }
    }

    #[test]
    fn active_kernel_is_supported() {
        assert!(simd::supported().contains(&active_kernel()));
        assert_eq!(active_kernel(), simd::detected().min(Kernel::Avx2));
    }
}
