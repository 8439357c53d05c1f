//! The array's pristine content, pinned chunk by chunk, on both of the
//! paths that produce it.
//!
//! The whole-stripe path is `Stripe::patterned_seeded` + `encode` (what
//! `FileBackend::format` writes); the per-chunk path is `SimBackend`'s
//! read, which fills a cell's data support and XORs it together.
//! `fbf client read` replies carry the `fnv1a` of such chunks. This suite
//! pins the `fnv1a` of every chunk both paths produce for every code at
//! p = 7, at two stripe ids and two chunk sizes (the data plane's 32 KiB
//! and an odd 1000 B that ends mid-block), against
//! `tests/pristine/fnv1a.txt`, and holds the two paths equal over every
//! code, larger primes, random stripe ids and odd chunk sizes. A faster
//! generator or encoder must leave the file unchanged. When the content
//! is meant to change, the failing test leaves the new text in
//! `target/tmp/pristine-fnv1a.txt`; review the diff and copy it over.

use fbf::codes::encode::encode;
use fbf::core::daemon::fnv1a;
use fbf::{ChunkId, CodeSpec, SimBackend, StorageBackend, Stripe, StripeCode};
use proptest::prelude::*;
use std::fmt::Write;
use std::path::Path;

const STRIPES: [u32; 2] = [3, 1000];
const CHUNK_BYTES: [usize; 2] = [32 << 10, 1000];

/// The whole-stripe oracle: stripe `stripe` filled and encoded.
fn encoded(code: &StripeCode, stripe: u32, chunk_bytes: usize) -> Stripe {
    let mut pristine = Stripe::patterned_seeded(code.layout(), chunk_bytes, u64::from(stripe));
    encode(code, &mut pristine).unwrap();
    pristine
}

/// The pinned digest lines, each chunk's bytes from `chunk(code, stripe,
/// chunk_bytes, cell)`.
fn digests(mut chunk: impl FnMut(&StripeCode, u32, usize, fbf::Cell) -> Vec<u8>) -> String {
    let mut actual = String::new();
    for spec in CodeSpec::ALL {
        let code = StripeCode::build(spec, 7).unwrap();
        for stripe in STRIPES {
            for chunk_bytes in CHUNK_BYTES {
                for cell in code.layout().cells() {
                    let digest = fnv1a(&chunk(&code, stripe, chunk_bytes, cell));
                    writeln!(actual, "{spec} {stripe} {chunk_bytes} {cell} {digest:016x}").unwrap();
                }
            }
        }
    }
    actual
}

fn assert_pinned(actual: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let expected =
        std::fs::read_to_string(root.join("tests/pristine/fnv1a.txt")).unwrap_or_default();
    if actual != expected {
        let out = root.join("target/tmp/pristine-fnv1a.txt");
        std::fs::create_dir_all(out.parent().unwrap()).unwrap();
        std::fs::write(&out, actual).unwrap();
        panic!(
            "pristine chunk digests moved; the new set is in {}",
            out.display()
        );
    }
}

#[test]
fn materialized_chunks_match_their_pinned_digests() {
    let mut last: Option<((CodeSpec, u32, usize), Stripe)> = None;
    assert_pinned(&digests(|code, stripe, chunk_bytes, cell| {
        let key = (code.spec(), stripe, chunk_bytes);
        if last.as_ref().is_none_or(|(k, _)| *k != key) {
            last = Some((key, encoded(code, stripe, chunk_bytes)));
        }
        let (_, pristine) = last.as_ref().unwrap();
        pristine.get(code.layout(), cell).to_vec()
    }));
}

/// Every chunk read through a fresh `SimBackend`, one read each.
#[test]
fn sim_backend_chunks_match_their_pinned_digests() {
    assert_pinned(&digests(|code, stripe, chunk_bytes, cell| {
        let mut sim = SimBackend::new(code.clone(), chunk_bytes, u64::from(stripe) + 1, []);
        let mut buf = vec![0u8; chunk_bytes];
        sim.read_chunk(ChunkId::new(stripe, cell), &mut buf)
            .unwrap();
        buf
    }));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every cell `SimBackend` serves equals the same cell of the
    /// whole-stripe encode: every shipped code, primes up to 13, any
    /// stripe id, odd chunk sizes that end mid-block.
    #[test]
    fn sim_backend_reads_equal_the_whole_stripe_encode(
        spec_idx in 0usize..6,
        p_idx in 0usize..4,
        stripe in 0u32..u32::MAX,
        half in 0usize..200,
    ) {
        let code = StripeCode::build(CodeSpec::EXTENDED[spec_idx], [5, 7, 11, 13][p_idx]).unwrap();
        let chunk_bytes = 2 * half + 1;
        let pristine = encoded(&code, stripe, chunk_bytes);
        let mut sim = SimBackend::new(code.clone(), chunk_bytes, u64::from(stripe) + 1, []);
        let mut buf = vec![0u8; chunk_bytes];
        for cell in code.layout().cells() {
            sim.read_chunk(ChunkId::new(stripe, cell), &mut buf).unwrap();
            prop_assert_eq!(&buf[..], &pristine.get(code.layout(), cell)[..]);
        }
    }
}
