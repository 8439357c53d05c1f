//! Generality check: FBF on RAID-6 codes (RDP, EVENODD).
//!
//! §IV-C claims FBF applies to "a wide range of storage arrays" since it
//! consumes only chain structure. With two chain directions instead of
//! three, the maximum share count per chunk drops, so the gap between FBF
//! and LRU narrows — but the ranking should hold. This bench runs the
//! Fig. 8-style hit-ratio sweep on both RAID-6 codes.

use fbf_bench::CACHE_MB;
use fbf_codes::CodeSpec;
use fbf_core::report::f;

fn main() {
    fbf_bench::main(|scale| {
        fbf_bench::figure(
            scale,
            "RAID-6 hit ratio",
            "raid6",
            &[CodeSpec::Rdp, CodeSpec::Evenodd],
            &[7, 13],
            &CACHE_MB,
            |m| f(m.hit_ratio, 4),
        )
    })
}
