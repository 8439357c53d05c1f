//! The array's pristine content, pinned chunk by chunk.
//!
//! Every byte a data-plane run is checked against comes from
//! `backend::materialize` (the seeded payload generator plus encode), and
//! `fbf client read` replies carry the `fnv1a` of such chunks. This suite
//! pins the `fnv1a` of every chunk `materialize` produces for every code
//! at p = 7, at two stripe ids and two chunk sizes (the data plane's
//! 32 KiB and an odd 1000 B that ends mid-block), against
//! `tests/pristine/fnv1a.txt`. A faster generator or encoder must leave
//! the file unchanged. When the content is meant to change, the failing
//! test leaves the new text in `target/tmp/pristine-fnv1a.txt`; review
//! the diff and copy it over.

use fbf::core::daemon::fnv1a;
use fbf::disksim::backend::materialize;
use fbf::{CodeSpec, StripeCode};
use std::fmt::Write;
use std::path::Path;

const STRIPES: [u32; 2] = [3, 1000];
const CHUNK_BYTES: [usize; 2] = [32 << 10, 1000];

#[test]
fn materialized_chunks_match_their_pinned_digests() {
    let mut actual = String::new();
    for spec in CodeSpec::ALL {
        let code = StripeCode::build(spec, 7).unwrap();
        for stripe in STRIPES {
            for chunk_bytes in CHUNK_BYTES {
                let pristine = materialize(&code, stripe, chunk_bytes);
                for cell in code.layout().cells() {
                    let digest = fnv1a(pristine.get(code.layout(), cell));
                    writeln!(actual, "{spec} {stripe} {chunk_bytes} {cell} {digest:016x}").unwrap();
                }
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let expected =
        std::fs::read_to_string(root.join("tests/pristine/fnv1a.txt")).unwrap_or_default();
    if actual != expected {
        let out = root.join("target/tmp/pristine-fnv1a.txt");
        std::fs::create_dir_all(out.parent().unwrap()).unwrap();
        std::fs::write(&out, &actual).unwrap();
        panic!(
            "pristine chunk digests moved; the new set is in {}",
            out.display()
        );
    }
}
