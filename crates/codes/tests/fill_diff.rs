//! Differential tests: every dispatchable payload-generator kernel vs the
//! sequential splitmix64 loop it replaced.
//!
//! The oracle below is that loop verbatim — one `x += γ` step, one `mix`
//! per byte — kept here, out of the library, because nothing but this
//! suite needs it. `fill_with` must reproduce it byte for byte on every
//! tier the host supports (`simd::supported()`; below AVX-512 each runs
//! the portable loop), at every length from empty through
//! several 64-lane blocks and at the data plane's 32 KiB chunk, and
//! `Stripe::patterned_seeded` must reproduce the stripe the oracle's
//! per-cell seeding built.

use fbf_codes::fill::fill_with;
use fbf_codes::simd::supported;
use fbf_codes::{CodeSpec, Stripe, StripeCode};
use proptest::prelude::*;

/// The sequential generator: `len` bytes of the stream whose state starts
/// at `x`.
fn oracle(mut x: u64, len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(len);
    let mut next = || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..len {
        buf.push((next() >> 56) as u8);
    }
    buf
}

/// The stripe the sequential generator built for `seed`: each data cell
/// from its own stream, parity cells zero.
fn oracle_stripe(code: &StripeCode, chunk_size: usize, extra: u64) -> Vec<Vec<u8>> {
    let layout = code.layout();
    layout
        .cells()
        .map(|cell| match layout.kind(cell).is_data() {
            true => {
                let seed = (cell.r() as u64) << 32
                    ^ (cell.c() as u64) << 8
                    ^ extra.wrapping_mul(0xD6E8_FEB8_6659_FD93);
                oracle(seed.wrapping_add(0x9E37_79B9_7F4A_7C15), chunk_size)
            }
            false => vec![0u8; chunk_size],
        })
        .collect()
}

fn assert_every_kernel_matches(base: u64, len: usize) {
    let want = oracle(base, len);
    for kernel in supported() {
        let mut got = vec![0xA5u8; len];
        fill_with(kernel, &mut got, base);
        assert!(
            got == want,
            "{kernel:?} diverged at {len} B, base {base:#x}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every length up to 64 blocks: empty, partial blocks, exact block
    /// multiples and every tail in between.
    #[test]
    fn fill_matches_the_sequential_loop(len in 0usize..=4096, base in 0u64..u64::MAX) {
        assert_every_kernel_matches(base, len);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The data plane's chunk size.
    #[test]
    fn fill_matches_the_sequential_loop_at_32_kib(base in 0u64..u64::MAX) {
        assert_every_kernel_matches(base, 32 << 10);
    }

    /// `patterned_seeded` seeds each data cell as the sequential
    /// generator did, for every code.
    #[test]
    fn patterned_seeded_matches_the_sequential_stripe(
        seed in 0u64..u64::MAX,
        chunk_size in 1usize..=300,
    ) {
        for spec in CodeSpec::ALL {
            let code = StripeCode::build(spec, 5).unwrap();
            let got = Stripe::patterned_seeded(code.layout(), chunk_size, seed);
            let want = oracle_stripe(&code, chunk_size, seed);
            for (cell, want) in code.layout().cells().zip(&want) {
                prop_assert_eq!(
                    &got.get(code.layout(), cell)[..],
                    &want[..],
                    "{} cell {} seed {}",
                    spec,
                    cell,
                    seed
                );
            }
        }
    }

    /// Refilling a used stripe in place gives the fresh stripe's bytes.
    #[test]
    fn refill_matches_a_fresh_stripe(first in 0u64..u64::MAX, second in 0u64..u64::MAX) {
        let code = StripeCode::build(CodeSpec::Tip, 7).unwrap();
        let mut reused = Stripe::patterned_seeded(code.layout(), 200, first);
        reused.refill_seeded(code.layout(), second);
        let fresh = Stripe::patterned_seeded(code.layout(), 200, second);
        for cell in code.layout().data_cells() {
            prop_assert_eq!(reused.get(code.layout(), cell), fresh.get(code.layout(), cell));
        }
    }
}
