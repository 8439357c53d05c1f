//! Partial-stripe error campaign generation (§IV-A's synthetic traces).

use crate::rng::SeededRng;
use fbf_codes::hash::FxHashSet;
use fbf_codes::StripeCode;
use fbf_recovery::{ErrorGroup, PartialStripeError};

/// Configuration of one error campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorGenConfig {
    /// Stripes in the array's data zone.
    pub stripes: u32,
    /// Number of partial stripe errors to produce (each on a distinct
    /// stripe).
    pub count: usize,
    /// Probability that an error lands near the previous one (spatial
    /// locality of latent sector errors; 0 disables clustering).
    pub clustering: f64,
    /// "Near" means within this many stripes.
    pub cluster_span: u32,
    /// Probability that a damaged stripe carries a *second* error on
    /// another disk (the spatially correlated multi-disk case; 0 disables).
    ///
    /// Note: chain-by-chain repair can be unorderable for some two-column
    /// patterns on STAR (its adjuster chains span many columns); such
    /// campaigns surface `SchemeError::Unschedulable` from planning and
    /// would be handled by joint decoding in a real controller. The
    /// adjuster-free codes (TIP/HDD1/Triple-STAR) schedule all two-column
    /// damage.
    pub multi_col_prob: f64,
    /// RNG seed — campaigns are fully reproducible.
    pub seed: u64,
}

impl ErrorGenConfig {
    /// A sensible default shaped like the paper's runs: moderate clustering,
    /// one column per stripe.
    pub fn paper_default(stripes: u32, count: usize, seed: u64) -> Self {
        ErrorGenConfig {
            stripes,
            count,
            clustering: 0.5,
            cluster_span: 16,
            multi_col_prob: 0.0,
            seed,
        }
    }
}

/// Generate a campaign of partial stripe errors for `code`.
///
/// Every error sits on its own stripe (same-stripe damage merges into one
/// run in practice); the failed column, start row and length are sampled
/// per [`ErrorGenConfig`]. Lengths are uniform on `[1, p-1]`, the paper's
/// setting: "the sizes of partial stripe errors obeys uniform
/// distribution, with the average number lies in the half size of the
/// stripe". Panics if `count` exceeds `stripes` (cannot
/// place distinct-stripe errors).
pub fn generate_errors(code: &StripeCode, cfg: &ErrorGenConfig) -> ErrorGroup {
    assert!(
        cfg.count as u64 <= cfg.stripes as u64,
        "cannot place {} errors on {} stripes",
        cfg.count,
        cfg.stripes
    );
    let rows = code.rows();
    let max_len = rows; // p - 1 chunks
    let mut rng = SeededRng::new(cfg.seed);
    let mut used: FxHashSet<u32> =
        FxHashSet::with_capacity_and_hasher(cfg.count, Default::default());
    let mut group = ErrorGroup::new();
    let mut last_stripe: Option<u32> = None;

    while used.len() < cfg.count {
        let stripe = match last_stripe {
            Some(prev) if rng.bool(cfg.clustering) => {
                // Spatially local: within cluster_span of the previous error.
                let lo = prev.saturating_sub(cfg.cluster_span);
                let hi = (prev.saturating_add(cfg.cluster_span)).min(cfg.stripes - 1);
                lo + rng.below(u64::from(hi - lo) + 1) as u32
            }
            _ => rng.below(u64::from(cfg.stripes)) as u32,
        };
        if !used.insert(stripe) {
            // Stripe already damaged; in a real array the runs would merge.
            // Resample (termination is guaranteed since count <= stripes and
            // the uniform branch eventually hits every free stripe).
            continue;
        }
        let col = rng.below(code.cols() as u64) as usize;
        let len = sample_length(&mut rng, max_len);
        let first_row = rng.below((rows - len + 1) as u64) as usize;
        let e = PartialStripeError::new(code, stripe, col, first_row, len)
            .expect("sampled within bounds");
        group.push(e);
        // Spatially correlated second failure on another disk of the same
        // stripe (counted within `count`: it damages no new stripe).
        if rng.bool(cfg.multi_col_prob) {
            let col2 = (col + 1 + rng.below(code.cols() as u64 - 1) as usize) % code.cols();
            let len2 = sample_length(&mut rng, max_len);
            let first2 = rng.below((rows - len2 + 1) as u64) as usize;
            group.push(
                PartialStripeError::new(code, stripe, col2, first2, len2)
                    .expect("sampled within bounds"),
            );
        }
        last_stripe = Some(stripe);
    }
    group
}

/// A run length uniform on `[1, max_len]`.
fn sample_length(rng: &mut SeededRng, max_len: usize) -> usize {
    1 + rng.below(max_len as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbf_codes::CodeSpec;

    fn code() -> StripeCode {
        StripeCode::build(CodeSpec::Tip, 7).unwrap()
    }

    #[test]
    fn generates_requested_count_on_distinct_stripes() {
        let cfg = ErrorGenConfig::paper_default(1000, 200, 42);
        let g = generate_errors(&code(), &cfg);
        assert_eq!(g.len(), 200);
        let stripes: FxHashSet<u32> = g.errors.iter().map(|e| e.stripe).collect();
        assert_eq!(stripes.len(), 200, "one error per stripe");
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = ErrorGenConfig::paper_default(500, 100, 7);
        let a = generate_errors(&code(), &cfg);
        let b = generate_errors(&code(), &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = ErrorGenConfig::paper_default(500, 100, 7);
        let a = generate_errors(&code(), &cfg);
        cfg.seed = 8;
        let b = generate_errors(&code(), &cfg);
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_lengths_cover_full_range_and_average_half() {
        let cfg = ErrorGenConfig {
            clustering: 0.0,
            ..ErrorGenConfig::paper_default(20_000, 5_000, 3)
        };
        let c = code();
        let g = generate_errors(&c, &cfg);
        let lens: Vec<usize> = g.errors.iter().map(|e| usize::from(e.len)).collect();
        assert_eq!(*lens.iter().min().unwrap(), 1);
        assert_eq!(*lens.iter().max().unwrap(), c.rows());
        let mean = lens.iter().sum::<usize>() as f64 / lens.len() as f64;
        let expect = (1 + c.rows()) as f64 / 2.0;
        assert!(
            (mean - expect).abs() < 0.15,
            "mean length {mean} should approximate {expect}"
        );
    }

    #[test]
    fn errors_fit_inside_stripes() {
        let c = code();
        let cfg = ErrorGenConfig::paper_default(300, 300, 11);
        let g = generate_errors(&c, &cfg);
        for e in &g.errors {
            assert!(usize::from(e.first_row + e.len) <= c.rows());
            assert!(usize::from(e.col) < c.cols());
            assert!(e.len >= 1);
        }
    }

    #[test]
    fn clustering_concentrates_stripes() {
        let c = code();
        let spread = |clustering: f64| -> f64 {
            let cfg = ErrorGenConfig {
                clustering,
                cluster_span: 4,
                ..ErrorGenConfig::paper_default(100_000, 500, 99)
            };
            let g = generate_errors(&c, &cfg);
            let mut gaps: Vec<u64> = g
                .errors
                .windows(2)
                .map(|w| w[0].stripe.abs_diff(w[1].stripe) as u64)
                .collect();
            gaps.sort_unstable();
            gaps[gaps.len() / 2] as f64 // median consecutive gap
        };
        assert!(
            spread(0.9) < spread(0.0),
            "clustered campaigns must have smaller consecutive-stripe gaps"
        );
    }

    #[test]
    fn multi_col_damage_lands_on_distinct_disks() {
        let c = code();
        let cfg = ErrorGenConfig {
            multi_col_prob: 1.0,
            ..ErrorGenConfig::paper_default(1000, 100, 77)
        };
        let g = generate_errors(&c, &cfg);
        assert_eq!(g.errors.len(), 200, "every stripe gets a second error");
        let damages = g.damage_by_stripe();
        assert_eq!(damages.len(), 100);
        for d in &damages {
            let cols: FxHashSet<u16> = d.cells.iter().map(|c| c.col).collect();
            assert_eq!(
                cols.len(),
                2,
                "stripe {} damage on {} disks",
                d.stripe,
                cols.len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn too_many_errors_rejected() {
        let cfg = ErrorGenConfig::paper_default(10, 11, 0);
        generate_errors(&code(), &cfg);
    }
}
