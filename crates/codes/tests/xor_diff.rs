//! Differential tests: every dispatchable XOR kernel vs the scalar
//! reference.
//!
//! `xor::scalar`, the original word-wise loop, is kept verbatim and never
//! dispatched so it can serve as the oracle here. The `xor_into` and
//! `is_zero` properties drive every tier the host runs
//! (`simd::supported()`: `[Portable]` on a host without AVX2, where the
//! suite checks the portable loop alone) over adversarial shapes: lengths
//! 0..=4096, which straddle every vector width and the zero scan's
//! 256-byte block, and buffers deliberately misaligned by 0..8 bytes.
//! `xor_many`, the dispatched copy-then-`xor_into` loop, is checked
//! against `scalar::xor_many`.

use fbf_codes::simd::supported;
use fbf_codes::xor::{is_zero_with, scalar, xor_into_with, xor_many};
use proptest::prelude::*;

/// Deterministic bytes from a seed — xorshift, one byte per step.
fn bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 24) as u8
        })
        .collect()
}

/// A buffer whose payload starts `off` bytes into the allocation, so
/// SIMD loads/stores see every alignment class.
fn offset_buf(seed: u64, off: usize, len: usize) -> (Vec<u8>, std::ops::Range<usize>) {
    (bytes(seed, off + len + 8), off..off + len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// `xor_into` (dst ^= src) is byte-identical to the scalar kernel on
    /// every supported kernel, at every length and misalignment.
    #[test]
    fn xor_into_matches_scalar(
        len in 0usize..=4096,
        dst_off in 0usize..8,
        src_off in 0usize..8,
        seed in 0u64..u64::MAX,
    ) {
        let (src_buf, src_r) = offset_buf(seed ^ 0xBEEF, src_off, len);
        let (dst_buf, dst_r) = offset_buf(seed, dst_off, len);

        let mut expected = dst_buf.clone();
        scalar::xor_into(&mut expected[dst_r.clone()], &src_buf[src_r.clone()]);

        for &k in &supported() {
            let mut got = dst_buf.clone();
            xor_into_with(k, &mut got[dst_r.clone()], &src_buf[src_r.clone()]);
            prop_assert_eq!(&got, &expected, "kernel {:?} diverged", k);
        }
    }

    /// `xor_many` (dst = ⊕ srcs) is byte-identical to the scalar oracle
    /// for 0..=13 misaligned sources, independent of the dst's prior
    /// contents.
    #[test]
    fn xor_many_matches_scalar(
        len in 0usize..=4096,
        dst_off in 0usize..8,
        src_offs in proptest::collection::vec(0usize..8, 0..14),
        seed in 0u64..u64::MAX,
    ) {
        let srcs: Vec<(Vec<u8>, std::ops::Range<usize>)> = src_offs
            .iter()
            .enumerate()
            .map(|(i, &off)| offset_buf(seed.wrapping_add(i as u64 * 0x9E37), off, len))
            .collect();
        let refs: Vec<&[u8]> = srcs.iter().map(|(b, r)| &b[r.clone()]).collect();

        let mut expected = vec![0u8; len];
        scalar::xor_many(&mut expected, &refs);

        // Poisoned dst: xor_many must fully overwrite it.
        let (mut got, dst_r) = offset_buf(!seed, dst_off, len);
        xor_many(&mut got[dst_r.clone()], &refs);
        prop_assert_eq!(&got[dst_r], &expected[..]);
    }

    /// `is_zero` agrees with the scalar kernel on all-zero buffers and on
    /// buffers poisoned at an arbitrary position.
    #[test]
    fn is_zero_matches_scalar(
        len in 0usize..=4096,
        off in 0usize..8,
        poison_sel in 0usize..8192,
        bit in 0u8..8,
    ) {
        // poison_sel >= 4096 means "no poison" (the stub proptest has no
        // Option strategy); otherwise it picks the poisoned byte.
        let mut buf = vec![0u8; off + len + 8];
        if poison_sel < 4096 && len > 0 {
            buf[off + poison_sel % len] = 1 << bit;
        }
        let slice = &buf[off..off + len];
        let expected = scalar::is_zero(slice);
        for &k in &supported() {
            prop_assert_eq!(is_zero_with(k, slice), expected, "kernel {:?} diverged", k);
        }
    }
}

/// Zero sources must zero the destination, on the dispatched path as on
/// the oracle (pinned here and in the unit suite).
#[test]
fn zero_sources_zero_the_dst_on_every_kernel() {
    for len in [0usize, 1, 7, 64, 4097] {
        let mut dst = vec![0xEEu8; len];
        xor_many(&mut dst, &[]);
        let mut expected = vec![0xEEu8; len];
        scalar::xor_many(&mut expected, &[]);
        assert_eq!(dst, expected, "len {len}");
        assert!(dst.iter().all(|&b| b == 0), "len {len}");
    }
}
