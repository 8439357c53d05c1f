//! Chunk-to-disk/LBA mapping for a striped array.
//!
//! A stripe's columns map onto physical disks either *fixed* (column `c`
//! always lives on disk `c` — TIP, Triple-STAR, STAR dedicate parity
//! columns to parity disks), *rotated* (HDD1: the mapping shifts by one
//! disk per stripe, RAID-5 style, spreading parity traffic), or
//! *declustered* ([`Placement::Declustered`]: a per-stripe affine
//! permutation from [`crate::declust`] spreads each stripe's columns over
//! an array with many more disks than columns, so rebuild reads after a
//! disk failure touch every survivor instead of hammering `k - 1` disks).

use crate::declust::{clustered_disk, coefficients, slope_table, Placement};
use fbf_codes::ChunkId;
use std::sync::Arc;

/// Maps chunks to (disk, LBA) addresses.
///
/// Build one with [`new`](Self::new) / [`with_placement`](Self::with_placement)
/// and treat the fields as read-only: a declustered mapping carries state
/// derived from `disks` at construction.
#[derive(Debug, Clone)]
pub struct ArrayMapping {
    /// Number of disks (>= stripe columns; equal for clustered arrays).
    pub disks: usize,
    /// Rows per stripe (`p - 1`).
    pub rows: usize,
    /// Stripe columns. Placement routes columns `0..cols` onto `disks`
    /// physical disks; clustered arrays have `cols == disks`.
    pub cols: usize,
    /// Column→disk placement rule.
    pub placement: Placement,
    /// The array's [`slope_table`], resolved once under
    /// [`Placement::Declustered`] and shared by every clone; the clustered
    /// placements carry nothing.
    slopes: Option<Arc<[u32]>>,
}

impl ArrayMapping {
    /// Mapping for an `n`-disk clustered array with `rows` chunks per
    /// stripe column (the original constructor: one disk per column).
    pub fn new(disks: usize, rows: usize, rotated: bool) -> Self {
        let placement = if rotated {
            Placement::Rotated
        } else {
            Placement::Fixed
        };
        Self::with_placement(disks, rows, disks, placement)
    }

    /// Mapping for `cols`-column stripes placed on `disks >= cols`
    /// physical disks under an explicit placement rule.
    pub fn with_placement(disks: usize, rows: usize, cols: usize, placement: Placement) -> Self {
        assert!(disks > 0 && rows > 0 && cols > 0);
        assert!(cols <= disks, "{cols} stripe columns need <= {disks} disks");
        let slopes = matches!(placement, Placement::Declustered { .. }).then(|| slope_table(disks));
        ArrayMapping {
            disks,
            rows,
            cols,
            placement,
            slopes,
        }
    }

    /// D3-declustered mapping of `cols`-column stripes over `disks` disks.
    pub fn declustered(disks: usize, rows: usize, cols: usize, seed: u64) -> Self {
        Self::with_placement(disks, rows, cols, Placement::Declustered { seed })
    }

    /// The physical disk holding `chunk`.
    pub fn disk_of(&self, chunk: ChunkId) -> usize {
        self.disk_of_col(chunk.stripe, chunk.cell.c())
    }

    /// Column-level placement, without needing a `ChunkId`.
    #[inline]
    pub fn disk_of_col(&self, stripe: u32, col: usize) -> usize {
        debug_assert!(
            col < self.cols,
            "column {col} outside {}-column stripe",
            self.cols
        );
        match self.placement {
            Placement::Fixed => clustered_disk(self.disks, false, stripe, col),
            Placement::Rotated => clustered_disk(self.disks, true, stripe, col),
            Placement::Declustered { seed } => {
                let (a, b) = coefficients(self.slopes(), seed, stripe);
                // a, b and col are all below disks <= u32::MAX.
                ((a as u64 + col as u64 * b as u64) % self.disks as u64) as usize
            }
        }
    }

    /// The disks of `stripe`'s columns `0..cols`, in column order, with
    /// the stripe's placement resolved once rather than per column (the
    /// rebuild driver's discover scan and footprint projection walk whole
    /// stripes). Every placement is affine in the column — disk
    /// `(a + c·b) mod disks` — so the walk is one addition per column.
    #[inline]
    pub fn stripe_disks(&self, stripe: u32) -> impl Iterator<Item = usize> {
        let (first, step) = match self.placement {
            Placement::Fixed => (0, 1),
            Placement::Rotated => (stripe as usize % self.disks, 1),
            Placement::Declustered { seed } => coefficients(self.slopes(), seed, stripe),
        };
        let disks = self.disks;
        // Both terms are below `disks`, so one subtraction wraps. Taken as
        // a `min` (an unneeded subtraction underflows to something huge)
        // because the wrap is a coin flip to a branch predictor.
        std::iter::successors(Some(first), move |&disk| {
            let next = disk + step;
            Some(next.min(next.wrapping_sub(disks)))
        })
        .take(self.cols)
    }

    #[inline]
    fn slopes(&self) -> &[u32] {
        self.slopes
            .as_deref()
            .expect("a declustered mapping is built by with_placement")
    }

    /// The chunk-granular LBA of `chunk` on its disk: stripes are laid out
    /// consecutively, each contributing up to `rows` chunks per disk. Any
    /// per-stripe-permutation placement puts at most one column of a
    /// stripe on a disk, so (disk, LBA) never collides across chunks.
    pub fn lba_of(&self, chunk: ChunkId) -> u64 {
        chunk.stripe as u64 * self.rows as u64 + chunk.cell.r() as u64
    }

    /// LBA of the spare area where a recovered chunk is rewritten: a region
    /// past the data zone on the same disk (the paper repairs sector/chunk
    /// errors "by writing recovered data to spare sectors or blocks instead
    /// of replacing the whole disk", §II-C).
    pub fn spare_lba_of(&self, chunk: ChunkId, data_stripes: u64) -> u64 {
        data_stripes * self.rows as u64 + self.lba_of(chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_codes::Cell;

    fn chunk(stripe: u32, r: usize, c: usize) -> ChunkId {
        ChunkId::new(stripe, Cell::new(r, c))
    }

    #[test]
    fn fixed_mapping_pins_columns() {
        let m = ArrayMapping::new(8, 6, false);
        assert_eq!(m.disk_of(chunk(0, 0, 3)), 3);
        assert_eq!(m.disk_of(chunk(99, 5, 3)), 3);
    }

    #[test]
    fn rotated_mapping_shifts_per_stripe() {
        let m = ArrayMapping::new(8, 6, true);
        assert_eq!(m.disk_of(chunk(0, 0, 3)), 3);
        assert_eq!(m.disk_of(chunk(1, 0, 3)), 4);
        assert_eq!(m.disk_of(chunk(5, 0, 3)), 0);
    }

    #[test]
    fn rotation_spreads_a_column_over_all_disks() {
        let m = ArrayMapping::new(6, 4, true);
        let disks: std::collections::HashSet<usize> =
            (0..6u32).map(|s| m.disk_of(chunk(s, 0, 5))).collect();
        assert_eq!(disks.len(), 6, "parity column must visit every disk");
    }

    #[test]
    fn lba_is_stripe_major() {
        let m = ArrayMapping::new(8, 6, false);
        assert_eq!(m.lba_of(chunk(0, 0, 2)), 0);
        assert_eq!(m.lba_of(chunk(0, 5, 2)), 5);
        assert_eq!(m.lba_of(chunk(2, 1, 2)), 13);
    }

    #[test]
    fn spare_lba_is_past_data_zone() {
        let m = ArrayMapping::new(8, 6, false);
        let data_stripes = 100;
        let s = m.spare_lba_of(chunk(3, 2, 0), data_stripes);
        assert_eq!(s, 600 + 20);
        assert!(s >= data_stripes * 6);
    }

    #[test]
    fn declustered_mapping_is_injective_per_stripe() {
        let m = ArrayMapping::declustered(128, 4, 7, 11);
        for s in 0..256u32 {
            let disks: std::collections::HashSet<usize> =
                (0..7).map(|c| m.disk_of_col(s, c)).collect();
            assert_eq!(disks.len(), 7, "stripe {s} reuses a disk");
            assert!(disks.iter().all(|&d| d < 128));
        }
    }

    #[test]
    fn declustered_disk_lba_addresses_never_collide() {
        // Across many stripes, (disk, lba) uniquely identifies a chunk
        // even though the placement permutes columns per stripe.
        let m = ArrayMapping::declustered(32, 4, 7, 3);
        let mut seen = std::collections::HashSet::new();
        for s in 0..64u32 {
            for r in 0..4 {
                for c in 0..7 {
                    let ch = chunk(s, r, c);
                    assert!(
                        seen.insert((m.disk_of(ch), m.lba_of(ch))),
                        "chunk {ch:?} collides on (disk, lba)"
                    );
                }
            }
        }
    }

    #[test]
    fn legacy_constructor_keeps_cols_equal_to_disks() {
        let m = ArrayMapping::new(8, 6, false);
        assert_eq!(m.cols, 8);
        assert_eq!(m.placement, Placement::Fixed);
        let r = ArrayMapping::new(8, 6, true);
        assert_eq!(r.placement, Placement::Rotated);
    }
}
