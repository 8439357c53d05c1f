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
//! [`DeclusteredLayout`] is the placement contract the engine's
//! [`ArrayMapping`](crate::array::ArrayMapping) and the rebuild scheduler
//! program against. Two constructions are provided:
//!
//! * [`ClusteredLayout`] — the original column-pinned (or rotated)
//!   placement, for baselines and small arrays;
//! * [`D3Layout`] — a deterministic affine construction in the spirit of
//!   D3: stripe `s` maps column `c` to disk `(a_s + c·b_s) mod n` with
//!   `b_s` coprime to `n`, both derived from a splitmix64 draw on
//!   `(seed, s)`. Affine maps with invertible slope are permutations of
//!   `Z_n`, so the placement invariant below holds by construction.
//!
//! ## Placement invariant
//!
//! For every stripe, the layout restricted to that stripe's columns is
//! **injective**: no two chunks of one stripe share a disk (requires
//! `cols ≤ disks`). Combined with the stripe-major LBA scheme
//! (`lba = stripe·rows + r`) this makes chunk → `(disk, lba)` a bijection
//! onto its image — every chunk has exactly one home and no two chunks
//! collide. `tests/declust_props.rs` checks this differentially over
//! randomized geometries for every layout here.

/// A stripe-column → physical-disk placement over an `n`-disk array.
///
/// Implementations must be pure functions of `(stripe, col)` (plus their
/// own immutable parameters): the engine, the rebuild scheduler's
/// admission projections, and the differential tests all evaluate the
/// same placement independently and must agree.
pub trait DeclusteredLayout {
    /// Physical disks in the array.
    fn disks(&self) -> usize;

    /// Columns per stripe (`cols() <= disks()`).
    fn cols(&self) -> usize;

    /// The disk holding column `col` of `stripe`. Must be `< disks()`
    /// and injective in `col` for any fixed `stripe`.
    fn disk_of(&self, stripe: u32, col: usize) -> usize;

    /// Short label for reports.
    fn name(&self) -> &'static str;

    /// The disks of one stripe, in column order.
    fn stripe_disks(&self, stripe: u32) -> Vec<usize> {
        (0..self.cols()).map(|c| self.disk_of(stripe, c)).collect()
    }
}

/// The original clustered placement: column `c` on disk `c`, or shifted
/// by one disk per stripe when `rotated` (HDD1 / RAID-5 parity rotation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusteredLayout {
    /// Physical disks.
    pub disks: usize,
    /// Stripe columns (`<= disks`).
    pub cols: usize,
    /// Shift the column→disk map by one per stripe.
    pub rotated: bool,
}

impl ClusteredLayout {
    /// Clustered placement of `cols`-column stripes on `disks` disks.
    pub fn new(disks: usize, cols: usize, rotated: bool) -> Self {
        assert!(disks > 0 && cols > 0 && cols <= disks);
        ClusteredLayout {
            disks,
            cols,
            rotated,
        }
    }
}

impl DeclusteredLayout for ClusteredLayout {
    fn disks(&self) -> usize {
        self.disks
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn disk_of(&self, stripe: u32, col: usize) -> usize {
        clustered_disk(self.disks, self.rotated, stripe, col)
    }

    fn name(&self) -> &'static str {
        if self.rotated {
            "rotated"
        } else {
            "clustered"
        }
    }
}

/// Deterministic affine declustering: stripe `s` places column `c` on
/// disk `(a_s + c·b_s) mod n`, with `b_s` coprime to `n` so the map is a
/// permutation of `Z_n` (the D3 paper's "deterministic data distribution"
/// shape, seeded instead of table-driven).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct D3Layout {
    /// Physical disks.
    pub disks: usize,
    /// Stripe columns (`<= disks`).
    pub cols: usize,
    /// Placement seed: two arrays with equal seeds place identically.
    pub seed: u64,
}

impl D3Layout {
    /// D3 placement of `cols`-column stripes on `disks` disks.
    pub fn new(disks: usize, cols: usize, seed: u64) -> Self {
        assert!(disks > 0 && cols > 0 && cols <= disks);
        D3Layout { disks, cols, seed }
    }
}

impl DeclusteredLayout for D3Layout {
    fn disks(&self) -> usize {
        self.disks
    }

    fn cols(&self) -> usize {
        self.cols
    }

    fn disk_of(&self, stripe: u32, col: usize) -> usize {
        declustered_disk(self.disks, self.seed, stripe, col)
    }

    fn name(&self) -> &'static str {
        "declustered"
    }
}

/// Clustered column→disk map as a pure function (shared by
/// [`ClusteredLayout`] and [`ArrayMapping`](crate::array::ArrayMapping)).
#[inline]
pub fn clustered_disk(disks: usize, rotated: bool, stripe: u32, col: usize) -> usize {
    if rotated {
        (col + stripe as usize) % disks
    } else {
        col
    }
}

/// D3 affine column→disk map as a pure function (shared by [`D3Layout`]
/// and [`ArrayMapping`](crate::array::ArrayMapping)).
///
/// `a_s` and `b_s` come from one splitmix64 draw on `seed ^ stripe`;
/// `b_s` is stepped to the next unit of `Z_n`, so `c → (a_s + c·b_s)` is
/// injective for `c < n`.
#[inline]
pub fn declustered_disk(disks: usize, seed: u64, stripe: u32, col: usize) -> usize {
    let n = disks as u64;
    if n == 1 {
        return 0;
    }
    let h = splitmix64(seed ^ (u64::from(stripe).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let a = h % n;
    let b = coprime_slope(h >> 32, n);
    ((a + (col as u64 % n) * b) % n) as usize
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

/// Sebastiano Vigna's splitmix64 — the same generator the fault plan
/// uses for per-chunk draws, so placement is stable across platforms.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
    use std::collections::BTreeSet;

    #[test]
    fn affine_map_is_injective_per_stripe() {
        let l = D3Layout::new(101, 13, 42);
        for stripe in 0..512u32 {
            let disks: BTreeSet<usize> = l.stripe_disks(stripe).into_iter().collect();
            assert_eq!(disks.len(), 13, "stripe {stripe} reuses a disk");
            assert!(disks.iter().all(|&d| d < 101));
        }
    }

    #[test]
    fn clustered_matches_the_legacy_rules() {
        let fixed = ClusteredLayout::new(100, 7, false);
        let rot = ClusteredLayout::new(100, 7, true);
        for s in 0..40u32 {
            for c in 0..7 {
                assert_eq!(fixed.disk_of(s, c), c);
                assert_eq!(rot.disk_of(s, c), (c + s as usize) % 100);
            }
        }
    }

    #[test]
    fn declustering_spreads_a_column_over_the_array() {
        // Column 0's physical home under D3 visits most of the array;
        // under fixed clustering it never leaves disk 0.
        let l = D3Layout::new(128, 7, 7);
        let homes: BTreeSet<usize> = (0..2048u32).map(|s| l.disk_of(s, 0)).collect();
        assert!(
            homes.len() > 100,
            "column 0 touched only {} of 128 disks",
            homes.len()
        );
    }

    #[test]
    fn placement_is_deterministic_in_the_seed() {
        let a = D3Layout::new(100, 7, 9);
        let b = D3Layout::new(100, 7, 9);
        let c = D3Layout::new(100, 7, 10);
        let sig =
            |l: &D3Layout| -> Vec<usize> { (0..256u32).flat_map(|s| l.stripe_disks(s)).collect() };
        assert_eq!(sig(&a), sig(&b));
        assert_ne!(sig(&a), sig(&c), "different seeds give different layouts");
    }

    #[test]
    fn one_disk_array_degenerates_cleanly() {
        assert_eq!(declustered_disk(1, 5, 9, 0), 0);
        let l = D3Layout::new(1, 1, 0);
        assert_eq!(l.stripe_disks(3), vec![0]);
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
