//! Property tests for the declustered placement layer
//! (`crates/disksim/src/declust.rs` + `ArrayMapping`), over randomized
//! array geometries.
//!
//! The rebuild scheduler's admission projections and the engine's routing
//! evaluate the same column→disk map through `ArrayMapping`; these
//! properties pin the contracts they rely on:
//!
//! 1. **Per-stripe injectivity** — restricted to one stripe, every
//!    placement is an injection into the disk set (the placement
//!    invariant on the module), so `(disk, lba)` is collision-free.
//! 2. **Differential agreement** — the engine's chunk view
//!    (`ArrayMapping::disk_of`), the scheduler's column view
//!    (`disk_of_col`) and the rebuild driver's stripe walk
//!    (`stripe_disks`) equal the module's closed-form maps for every
//!    placement, geometry, and seed: the views never drift. For D3 this
//!    is the slope table against its specification, `declustered_disk`,
//!    including through a clone and on another thread (the table is
//!    shared, not rebuilt). Mutation-checked: indexing the table one
//!    entry off fails it.
//! 3. **Permutation shape** — a D3 stripe's map extended to all `n`
//!    columns is a full permutation of `Z_n` (affine with unit slope),
//!    which is *why* injectivity holds for any `cols <= disks`.
//! 4. **Determinism** — placement is a pure function of
//!    `(geometry, seed, stripe, col)`; equal inputs agree across
//!    separately constructed mappings.

use fbf_codes::{Cell, ChunkId};
use fbf_disksim::declust::{clustered_disk, declustered_disk};
use fbf_disksim::{ArrayMapping, Placement};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Randomized geometry: `2..=160` disks with `1..=min(disks, 17)`
/// stripe columns (3DFT stripes are narrow; arrays are wide).
fn geometry() -> impl Strategy<Value = (usize, usize)> {
    (2usize..=160, 0usize..10_000).prop_map(|(disks, draw)| {
        let max_cols = disks.min(17);
        (disks, 1 + draw % max_cols)
    })
}

/// Disk counts whose unit groups differ most: tiny, prime (every slope
/// a unit), powers of two (every other one), highly composite (long runs
/// of non-units to step over).
const SHAPED_DISKS: [usize; 13] = [2, 3, 4, 97, 1009, 4093, 64, 1024, 4096, 60, 720, 2520, 5040];

/// Randomized geometry for the differential test: a shaped or arbitrary
/// disk count up to a few thousand, with narrow stripes or `cols == disks`.
fn wide_geometry() -> impl Strategy<Value = (usize, usize)> {
    (2usize..=4096, 0usize..10_000, 0usize..6).prop_map(|(any, draw, shape)| {
        let disks = if shape < 2 {
            any
        } else {
            SHAPED_DISKS[draw % SHAPED_DISKS.len()]
        };
        let cols = if shape % 2 == 0 {
            disks
        } else {
            1 + draw % disks.min(17)
        };
        (disks, cols)
    })
}

/// The disks of one stripe, in column order.
fn stripe_disks(mapping: &ArrayMapping, stripe: u32) -> Vec<usize> {
    (0..mapping.cols)
        .map(|c| mapping.disk_of_col(stripe, c))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every placement puts one stripe's columns on distinct disks, all
    /// inside the array.
    #[test]
    fn every_layout_is_injective_per_stripe(
        geom in geometry(),
        seed in 0u64..=u64::MAX,
        stripe in 0u32..10_000,
    ) {
        let (disks, cols) = geom;
        for placement in [Placement::Fixed, Placement::Rotated, Placement::Declustered { seed }] {
            let homes = stripe_disks(&ArrayMapping::with_placement(disks, 4, cols, placement), stripe);
            prop_assert!(homes.iter().all(|&d| d < disks), "{}: disk out of range", placement.name());
            let distinct: BTreeSet<usize> = homes.iter().copied().collect();
            prop_assert_eq!(
                distinct.len(),
                cols,
                "{}: stripe {} reuses a disk: {:?}",
                placement.name(),
                stripe,
                homes
            );
        }
    }

    /// Every view of an `ArrayMapping` — chunk, column, whole-stripe walk,
    /// through a clone, on another thread — is the placement's closed-form
    /// map, cell by cell.
    #[test]
    fn array_mapping_matches_the_layout_structs(
        geom in wide_geometry(),
        seed in 0u64..=u64::MAX,
        stripes in proptest::collection::vec(0u32..=u32::MAX, 1..40),
    ) {
        let (disks, cols) = geom;
        // Wide stripes get fewer of them: the closed form pays a gcd loop
        // per cell.
        let stripes = &stripes[..stripes.len().min(1 + 4096 / cols)];
        for placement in [Placement::Fixed, Placement::Rotated, Placement::Declustered { seed }] {
            let mapping = ArrayMapping::with_placement(disks, 4, cols, placement);
            let cloned = mapping.clone();
            let walked_elsewhere: Vec<Vec<usize>> = std::thread::scope(|scope| {
                let moved = mapping.clone();
                scope
                    .spawn(move || stripes.iter().map(|&s| moved.stripe_disks(s).collect()).collect())
                    .join()
                    .expect("placement does not panic")
            });
            for (&stripe, walked) in stripes.iter().zip(&walked_elsewhere) {
                prop_assert_eq!(walked.len(), cols);
                for (col, &walked_disk) in walked.iter().enumerate() {
                    let expect = match placement {
                        Placement::Fixed => clustered_disk(disks, false, stripe, col),
                        Placement::Rotated => clustered_disk(disks, true, stripe, col),
                        Placement::Declustered { seed } => declustered_disk(disks, seed, stripe, col),
                    };
                    prop_assert_eq!(
                        mapping.disk_of_col(stripe, col),
                        expect,
                        "{} mapping drifts from the layout at stripe {} col {} of {} disks",
                        placement.name(),
                        stripe,
                        col,
                        disks
                    );
                    prop_assert_eq!(
                        mapping.disk_of(ChunkId::new(stripe, Cell::new(3, col))),
                        expect
                    );
                    prop_assert_eq!(cloned.disk_of_col(stripe, col), expect);
                    prop_assert_eq!(walked_disk, expect, "the stripe walk drifts");
                }
            }
        }
    }

    /// A D3 stripe's affine map, extended over all `n` columns, is a
    /// permutation of the whole disk set — the structural reason the
    /// injectivity property holds for any stripe width.
    #[test]
    fn d3_stripe_map_is_a_full_permutation(
        disks in 2usize..=160,
        seed in 0u64..=u64::MAX,
        stripe in 0u32..10_000,
    ) {
        let full = ArrayMapping::declustered(disks, 4, disks, seed);
        let image: BTreeSet<usize> = stripe_disks(&full, stripe).into_iter().collect();
        prop_assert_eq!(image.len(), disks, "stripe {} is not a permutation", stripe);
        prop_assert_eq!(image.into_iter().max(), Some(disks - 1));
    }

    /// Placement is pure: separately constructed mappings with equal
    /// parameters agree everywhere, and the rotated placement matches its
    /// closed form.
    #[test]
    fn placement_is_a_pure_function_of_its_parameters(
        geom in geometry(),
        seed in 0u64..=u64::MAX,
        stripe in 0u32..100_000,
    ) {
        let (disks, cols) = geom;
        let a = ArrayMapping::declustered(disks, 4, cols, seed);
        let b = ArrayMapping::declustered(disks, 4, cols, seed);
        prop_assert_eq!(stripe_disks(&a, stripe), stripe_disks(&b, stripe));
        let rot = ArrayMapping::with_placement(disks, 4, cols, Placement::Rotated);
        for col in 0..cols {
            prop_assert_eq!(rot.disk_of_col(stripe, col), (col + stripe as usize) % disks);
        }
    }
}
