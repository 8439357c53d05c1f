//! Declustered data layouts: spreading stripe columns over a large array.
//!
//! A clustered array maps stripe column `c` to disk `c` (optionally
//! rotated RAID-5 style), so an `n`-disk array with `k`-column stripes
//! concentrates every rebuild read on the `k - 1` surviving columns no
//! matter how many disks the array has. Parity declustering (Muntz &
//! Lui; t-designs per Dau et al.; D3 per Xu et al.) instead gives every
//! stripe its own small subset of the `n` disks, chosen so rebuild reads
//! after a disk failure spread near-uniformly over *all* survivors.
//!
//! [`Placement`] selects the rule an
//! [`ArrayMapping`](crate::array::ArrayMapping) routes columns by — the
//! engine and the rebuild scheduler both place through it:
//!
//! * [`Placement::Fixed`] / [`Placement::Rotated`] — the original
//!   column-pinned (or rotated) placement, for baselines and small arrays;
//! * [`Placement::Declustered`] — a deterministic affine construction in
//!   the spirit of D3: stripe `s` maps column `c` to disk
//!   `(a_s + c·b_s) mod n` with `b_s` coprime to `n`, both derived from a
//!   splitmix64 draw on `(seed, s)`. Affine maps with invertible slope are
//!   permutations of `Z_n`, so the placement invariant below holds by
//!   construction.
//!
//! ## Placement invariant
//!
//! For every stripe, the layout restricted to that stripe's columns is
//! **injective**: no two chunks of one stripe share a disk (requires
//! `cols ≤ disks`). Combined with the stripe-major LBA scheme
//! (`lba = stripe·rows + r`) this makes chunk → `(disk, lba)` a bijection
//! onto its image — every chunk has exactly one home and no two chunks
//! collide. `tests/declust_props.rs` checks this over randomized
//! geometries for every placement here.

use crate::fault::splitmix64;
use std::sync::Arc;

/// The original clustered placement as a pure function: column `c` on
/// disk `c`, or shifted by one disk per stripe when `rotated` (HDD1 /
/// RAID-5 parity rotation).
#[inline]
pub fn clustered_disk(disks: usize, rotated: bool, stripe: u32, col: usize) -> usize {
    if rotated {
        (col + stripe as usize) % disks
    } else {
        col
    }
}

/// Deterministic affine declustering as a pure function: stripe `s`
/// places column `c` on disk `(a_s + c·b_s) mod n` (the D3 paper's
/// "deterministic data distribution" shape, seeded instead of
/// table-driven).
///
/// `a_s` and `b_s` come from one splitmix64 draw on `seed ^ stripe`;
/// `b_s` is stepped to the next unit of `Z_n`, so `c → (a_s + c·b_s)` is
/// injective for `c < n`.
///
/// This closed form is the *specification*: it pays a gcd loop per
/// call, so production placement goes through
/// [`ArrayMapping`](crate::array::ArrayMapping)'s per-array
/// [`slope_table`], and `tests/declust_props.rs` holds the two equal.
#[inline]
pub fn declustered_disk(disks: usize, seed: u64, stripe: u32, col: usize) -> usize {
    let n = disks as u64;
    if n == 1 {
        return 0;
    }
    let h = stripe_draw(seed, stripe);
    let a = h % n;
    let b = coprime_slope(h >> 32, n);
    ((a + (col as u64 % n) * b) % n) as usize
}

/// The one splitmix64 draw both of a stripe's coefficients come from.
#[inline]
fn stripe_draw(seed: u64, stripe: u32) -> u64 {
    splitmix64(seed ^ (u64::from(stripe).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// The first unit of `Z_n` at or after `1 + (draw mod (n-1))`, stepping
/// cyclically. Terminates because `gcd(1, n) == 1` guarantees at least
/// one unit in `1..n`.
#[inline]
fn coprime_slope(draw: u64, n: u64) -> u64 {
    let mut b = 1 + draw % (n - 1);
    while gcd(b, n) != 1 {
        b = if b + 1 < n { b + 1 } else { 1 };
    }
    b
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Every answer [`coprime_slope`] can give for a `disks`-disk array:
/// entry `i` is the slope of a draw with `draw mod (n-1) == i` (no entry
/// for one disk). The gcd stepping is the only expensive part of
/// [`declustered_disk`] and depends on the array alone, so a declustered
/// [`ArrayMapping`](crate::array::ArrayMapping) resolves it once — D3 and
/// the t-design layouts are per-array tables too — and shares it between
/// its clones.
pub(crate) fn slope_table(disks: usize) -> Arc<[u32]> {
    let n = u32::try_from(disks).expect("declustered placement indexes disks by u32");
    (0..n.saturating_sub(1))
        .map(|i| coprime_slope(u64::from(i), u64::from(n)) as u32)
        .collect()
}

/// Stripe `s`'s affine coefficients `(a_s, b_s)`, both below `n`, from
/// the array's [`slope_table`]: [`declustered_disk`] without the gcd loop.
#[inline]
pub(crate) fn coefficients(slopes: &[u32], seed: u64, stripe: u32) -> (usize, usize) {
    if slopes.is_empty() {
        return (0, 0);
    }
    let h = stripe_draw(seed, stripe);
    let b = slopes[((h >> 32) as u32 % slopes.len() as u32) as usize];
    ((h % (slopes.len() as u64 + 1)) as usize, b as usize)
}

/// Serializable placement selector carried by
/// [`ArrayMapping`](crate::array::ArrayMapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Column `c` on disk `c`.
    Fixed,
    /// Column→disk map shifted by one disk per stripe (HDD1).
    Rotated,
    /// D3 affine declustering under `seed`.
    Declustered {
        /// Placement seed.
        seed: u64,
    },
}

impl Placement {
    /// Short label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Placement::Fixed => "clustered",
            Placement::Rotated => "rotated",
            Placement::Declustered { .. } => "declustered",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::ArrayMapping;
    use std::collections::BTreeSet;

    /// The disks of one stripe, in column order.
    fn stripe_disks(m: &ArrayMapping, stripe: u32) -> Vec<usize> {
        (0..m.cols).map(|c| m.disk_of_col(stripe, c)).collect()
    }

    #[test]
    fn affine_map_is_injective_per_stripe() {
        let m = ArrayMapping::declustered(101, 4, 13, 42);
        for stripe in 0..512u32 {
            let disks: BTreeSet<usize> = stripe_disks(&m, stripe).into_iter().collect();
            assert_eq!(disks.len(), 13, "stripe {stripe} reuses a disk");
            assert!(disks.iter().all(|&d| d < 101));
        }
    }

    #[test]
    fn clustered_matches_the_legacy_rules() {
        let fixed = ArrayMapping::with_placement(100, 4, 7, Placement::Fixed);
        let rot = ArrayMapping::with_placement(100, 4, 7, Placement::Rotated);
        for s in 0..40u32 {
            for c in 0..7 {
                assert_eq!(fixed.disk_of_col(s, c), c);
                assert_eq!(rot.disk_of_col(s, c), (c + s as usize) % 100);
            }
        }
    }

    #[test]
    fn declustering_spreads_a_column_over_the_array() {
        // Column 0's physical home under D3 visits most of the array;
        // under fixed clustering it never leaves disk 0.
        let m = ArrayMapping::declustered(128, 4, 7, 7);
        let homes: BTreeSet<usize> = (0..2048u32).map(|s| m.disk_of_col(s, 0)).collect();
        assert!(
            homes.len() > 100,
            "column 0 touched only {} of 128 disks",
            homes.len()
        );
    }

    #[test]
    fn placement_is_deterministic_in_the_seed() {
        let a = ArrayMapping::declustered(100, 4, 7, 9);
        let b = ArrayMapping::declustered(100, 4, 7, 9);
        let c = ArrayMapping::declustered(100, 4, 7, 10);
        let sig = |m: &ArrayMapping| -> Vec<usize> {
            (0..256u32).flat_map(|s| stripe_disks(m, s)).collect()
        };
        assert_eq!(sig(&a), sig(&b));
        assert_ne!(sig(&a), sig(&c), "different seeds give different layouts");
    }

    #[test]
    fn one_disk_array_degenerates_cleanly() {
        assert_eq!(declustered_disk(1, 5, 9, 0), 0);
        let m = ArrayMapping::declustered(1, 4, 1, 0);
        assert_eq!(stripe_disks(&m, 3), vec![0]);
    }

    #[test]
    fn slope_is_always_a_unit() {
        for n in 2..200u64 {
            for draw in 0..50 {
                let b = coprime_slope(draw, n);
                assert!(b >= 1 && b < n);
                assert_eq!(gcd(b, n), 1, "slope {b} not coprime to {n}");
            }
        }
    }
}
