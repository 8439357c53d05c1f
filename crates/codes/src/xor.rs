//! XOR kernels: runtime-dispatched SIMD with a scalar differential oracle.
//!
//! Everything in a 3DFT code — encoding, chain repair, full decode — reduces
//! to XOR-ing chunk buffers together. Three kernels implement the same
//! contract:
//!
//! * [`XorKernel::Scalar`] — the original word-wide loop (`align_to::<u64>`
//!   middle, byte edges). Kept verbatim in [`scalar`] as the differential
//!   oracle: every SIMD path must produce byte-identical output, enforced by
//!   the proptest suite in `tests/xor_diff.rs`.
//! * [`XorKernel::Sse2`] — 16-byte lanes, 64-byte strides, unaligned loads.
//! * [`XorKernel::Avx2`] — 32-byte lanes, 128-byte strides, unaligned loads.
//!
//! Each kernel has one primitive per operation: `dst ^= src` and the
//! all-zero scan. The active kernel is the best one the CPU supports
//! ([`active_kernel`], via `is_x86_feature_detected!`). A multi-source XOR
//! ([`xor_many`]) copies its first source and XORs the rest in one at a
//! time — the same accumulator the data plane keeps per worker.

/// An XOR kernel implementation, ordered weakest to strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum XorKernel {
    /// Word-wide (`u64`) loop; the differential oracle. Always available.
    Scalar,
    /// SSE2 128-bit lanes (baseline on `x86_64`).
    Sse2,
    /// AVX2 256-bit lanes.
    Avx2,
}

impl XorKernel {
    /// Stable lowercase name, recorded in bench snapshots (`machine.simd`).
    pub fn name(self) -> &'static str {
        match self {
            XorKernel::Scalar => "scalar",
            XorKernel::Sse2 => "sse2",
            XorKernel::Avx2 => "avx2",
        }
    }
}

/// The kernel used by [`xor_into`] / [`xor_many`] / [`is_zero`]: the best
/// the CPU supports (`is_x86_feature_detected!` probes once and caches).
/// Under Miri only the scalar path runs: runtime feature detection and
/// vendor intrinsics are not supported there, and the point of the Miri
/// job is the `align_to` surface of the oracle.
pub fn active_kernel() -> XorKernel {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        if is_x86_feature_detected!("avx2") {
            return XorKernel::Avx2;
        }
        if is_x86_feature_detected!("sse2") {
            return XorKernel::Sse2;
        }
    }
    XorKernel::Scalar
}

/// Every kernel the host supports, weakest first. Test suites iterate this
/// so a run on non-x86 hardware still exercises (trivially) the full matrix.
pub fn supported_kernels() -> Vec<XorKernel> {
    let best = active_kernel();
    let mut out = vec![XorKernel::Scalar];
    if best >= XorKernel::Sse2 {
        out.push(XorKernel::Sse2);
    }
    if best >= XorKernel::Avx2 {
        out.push(XorKernel::Avx2);
    }
    out
}

/// `dst ^= src`, element-wise. Panics if lengths differ.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    // SAFETY: the active kernel is the detected one.
    unsafe { xor_into_unchecked(active_kernel(), dst, src) }
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
    // SAFETY: the active kernel is the detected one.
    unsafe { is_zero_unchecked(active_kernel(), buf) }
}

/// [`xor_into`] on an explicit kernel, clamped to what the CPU supports:
/// asking for a kernel above [`active_kernel`] runs the active one.
pub fn xor_into_with(kernel: XorKernel, dst: &mut [u8], src: &[u8]) {
    // SAFETY: clamped to the detected kernel.
    unsafe { xor_into_unchecked(kernel.min(active_kernel()), dst, src) }
}

/// [`is_zero`] on an explicit kernel, clamped like [`xor_into_with`].
pub fn is_zero_with(kernel: XorKernel, buf: &[u8]) -> bool {
    // SAFETY: clamped to the detected kernel.
    unsafe { is_zero_unchecked(kernel.min(active_kernel()), buf) }
}

/// # Safety
/// `kernel` must be one of [`supported_kernels`].
unsafe fn xor_into_unchecked(kernel: XorKernel, dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor_into length mismatch");
    match kernel {
        XorKernel::Scalar => scalar::xor_into(dst, src),
        #[cfg(target_arch = "x86_64")]
        XorKernel::Sse2 => sse2::xor_into(dst, src),
        #[cfg(target_arch = "x86_64")]
        XorKernel::Avx2 => avx2::xor_into(dst, src),
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::xor_into(dst, src),
    }
}

/// # Safety
/// `kernel` must be one of [`supported_kernels`].
unsafe fn is_zero_unchecked(kernel: XorKernel, buf: &[u8]) -> bool {
    match kernel {
        XorKernel::Scalar => scalar::is_zero(buf),
        #[cfg(target_arch = "x86_64")]
        XorKernel::Sse2 => sse2::is_zero(buf),
        #[cfg(target_arch = "x86_64")]
        XorKernel::Avx2 => avx2::is_zero(buf),
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar::is_zero(buf),
    }
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

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::*;

    /// `dst ^= src` with 4×16-byte unrolled lanes per 64-byte stride.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports SSE2 (guaranteed on `x86_64`, but
    /// dispatch still checks) and `dst.len() == src.len()`. All loads/stores
    /// are unaligned-safe (`loadu`/`storeu`) and stay within the slices.
    #[target_feature(enable = "sse2")]
    pub unsafe fn xor_into(dst: &mut [u8], src: &[u8]) {
        const STRIDE: usize = 64;
        let len = dst.len();
        let main = len - len % STRIDE;
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut off = 0;
        while off < main {
            for lane in [0, 16, 32, 48] {
                let d = dp.add(off + lane) as *mut __m128i;
                let s = sp.add(off + lane) as *const __m128i;
                _mm_storeu_si128(d, _mm_xor_si128(_mm_loadu_si128(d), _mm_loadu_si128(s)));
            }
            off += STRIDE;
        }
        for (d, s) in dst[main..].iter_mut().zip(&src[main..]) {
            *d ^= s;
        }
    }

    /// All-zero scan, 64 bytes per iteration with an early exit per block.
    ///
    /// # Safety
    /// Caller must ensure SSE2; loads are unaligned-safe and in-bounds.
    #[target_feature(enable = "sse2")]
    pub unsafe fn is_zero(buf: &[u8]) -> bool {
        const STRIDE: usize = 64;
        let len = buf.len();
        let main = len - len % STRIDE;
        let bp = buf.as_ptr();
        let mut off = 0;
        while off < main {
            let a = _mm_or_si128(
                _mm_loadu_si128(bp.add(off) as *const __m128i),
                _mm_loadu_si128(bp.add(off + 16) as *const __m128i),
            );
            let b = _mm_or_si128(
                _mm_loadu_si128(bp.add(off + 32) as *const __m128i),
                _mm_loadu_si128(bp.add(off + 48) as *const __m128i),
            );
            let acc = _mm_or_si128(a, b);
            // SSE2 has no testz; compare against zero and check the mask.
            let eq = _mm_cmpeq_epi8(acc, _mm_setzero_si128());
            if _mm_movemask_epi8(eq) != 0xFFFF {
                return false;
            }
            off += STRIDE;
        }
        buf[main..].iter().all(|&b| b == 0)
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// `dst ^= src` with 4×32-byte unrolled lanes per 128-byte stride.
    ///
    /// # Safety
    /// Caller must ensure the CPU supports AVX2 (dispatch checks via
    /// `is_x86_feature_detected!`) and `dst.len() == src.len()`. All
    /// loads/stores are unaligned-safe (`loadu`/`storeu`) and stay within
    /// the slices.
    #[target_feature(enable = "avx2")]
    pub unsafe fn xor_into(dst: &mut [u8], src: &[u8]) {
        const STRIDE: usize = 128;
        let len = dst.len();
        let main = len - len % STRIDE;
        let (dp, sp) = (dst.as_mut_ptr(), src.as_ptr());
        let mut off = 0;
        while off < main {
            for lane in [0, 32, 64, 96] {
                let d = dp.add(off + lane) as *mut __m256i;
                let s = sp.add(off + lane) as *const __m256i;
                _mm256_storeu_si256(
                    d,
                    _mm256_xor_si256(_mm256_loadu_si256(d), _mm256_loadu_si256(s)),
                );
            }
            off += STRIDE;
        }
        for (d, s) in dst[main..].iter_mut().zip(&src[main..]) {
            *d ^= s;
        }
    }

    /// All-zero scan, 128 bytes per iteration with an early exit per block.
    ///
    /// # Safety
    /// Caller must ensure AVX2; loads are unaligned-safe and in-bounds.
    #[target_feature(enable = "avx2")]
    pub unsafe fn is_zero(buf: &[u8]) -> bool {
        const STRIDE: usize = 128;
        let len = buf.len();
        let main = len - len % STRIDE;
        let bp = buf.as_ptr();
        let mut off = 0;
        while off < main {
            let a = _mm256_or_si256(
                _mm256_loadu_si256(bp.add(off) as *const __m256i),
                _mm256_loadu_si256(bp.add(off + 32) as *const __m256i),
            );
            let b = _mm256_or_si256(
                _mm256_loadu_si256(bp.add(off + 64) as *const __m256i),
                _mm256_loadu_si256(bp.add(off + 96) as *const __m256i),
            );
            let acc = _mm256_or_si256(a, b);
            if _mm256_testz_si256(acc, acc) == 0 {
                return false;
            }
            off += STRIDE;
        }
        buf[main..].iter().all(|&b| b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Exercise the unaligned head/tail paths with awkward sizes, on
        // every kernel the host supports.
        for kernel in supported_kernels() {
            for len in [0, 1, 3, 7, 8, 9, 15, 17, 31, 63, 64, 65, 127, 129] {
                let a_orig: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let b: Vec<u8> = (0..len).map(|i| (i * 3 + 1) as u8).collect();
                let mut a = a_orig.clone();
                xor_into_with(kernel, &mut a, &b);
                for i in 0..len {
                    assert_eq!(a[i], a_orig[i] ^ b[i], "{kernel:?} len={len} idx={i}");
                }
            }
        }
    }

    #[test]
    fn xor_into_unaligned_offsets() {
        // Force differing alignments of dst and src.
        let backing_a = [0xABu8; 80];
        let backing_b: Vec<u8> = (0..80).map(|i| i as u8).collect();
        for kernel in supported_kernels() {
            for off_a in 0..4 {
                for off_b in 0..4 {
                    let mut a = backing_a[off_a..off_a + 64].to_vec();
                    // Copy with offset to change the underlying alignment.
                    let b = &backing_b[off_b..off_b + 64];
                    let expect: Vec<u8> = a.iter().zip(b).map(|(x, y)| x ^ y).collect();
                    xor_into_with(kernel, &mut a, b);
                    assert_eq!(a, expect, "{kernel:?} off_a={off_a} off_b={off_b}");
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
        for kernel in [XorKernel::Scalar, XorKernel::Sse2, XorKernel::Avx2] {
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
        for kernel in supported_kernels() {
            assert!(is_zero_with(kernel, &[0u8; 16]), "{kernel:?}");
            assert!(!is_zero_with(kernel, &[0, 0, 1, 0]), "{kernel:?}");
            assert!(is_zero_with(kernel, &[]), "{kernel:?}");
            assert!(is_zero_with(kernel, &[0u8; 333]), "{kernel:?}");
            let mut buf = vec![0u8; 333];
            for poison in [0, 63, 64, 150, 332] {
                buf[poison] = 1;
                assert!(!is_zero_with(kernel, &buf), "{kernel:?} poison={poison}");
                buf[poison] = 0;
            }
        }
    }

    #[test]
    fn active_kernel_is_supported() {
        assert!(supported_kernels().contains(&active_kernel()));
    }
}
