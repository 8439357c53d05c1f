//! `--seed` is the only source of randomness: every campaign, placement
//! and fault seed a workload hands to the program under test is derived
//! here, by splitmix64, from the run seed, a stream name and an index.

/// One splitmix64 step (the same finaliser the repo's fault draws use).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th seed of the named stream under run seed `seed`.
/// Distinct streams (and distinct indices) give unrelated values; the
/// same triple always gives the same value.
pub fn derive(seed: u64, stream: &str, index: u64) -> u64 {
    let tag = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        splitmix64(h ^ u64::from(b))
    });
    splitmix64(splitmix64(seed ^ tag).wrapping_add(index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive(1, "campaign", 0), derive(1, "campaign", 0));
        let all = [
            derive(1, "campaign", 0),
            derive(1, "campaign", 1),
            derive(1, "fault", 0),
            derive(2, "campaign", 0),
        ];
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
