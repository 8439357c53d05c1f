//! Fig. 9 — number of disk read operations during recovery, TIP-code.
//!
//! Shapes to look for (paper §IV-B-2): reads fall as cache grows and
//! stabilise (stable point postponed as P grows); FBF reads least, with the
//! biggest margin at restricted cache sizes (up to ~22% fewer than LFU in
//! the paper).

use fbf_bench::{CACHE_MB, TIP_PRIMES};
use fbf_codes::CodeSpec;

fn main() {
    fbf_bench::main(|scale| {
        fbf_bench::figure(
            scale,
            "Fig.9 disk reads",
            "fig9",
            &[CodeSpec::Tip],
            &TIP_PRIMES,
            &CACHE_MB,
            |m| m.disk_reads.to_string(),
        )
    })
}
