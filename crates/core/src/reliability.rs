//! Reliability analysis: MTTDL and the window of vulnerability.
//!
//! The paper's motivation chain is: partial stripe errors → longer
//! effective reconstruction → wider *window of vulnerability* (WOV) →
//! lower mean time to data loss (MTTDL). FBF shortens reconstruction,
//! which narrows the WOV; this module quantifies by how much that moves
//! MTTDL.
//!
//! The model is the standard absorbing birth–death Markov chain for an
//! `n`-disk array tolerating `k` concurrent failures: state `i` means `i`
//! failed disks, failure rate `(n - i)·λ` out of state `i`, repair rate
//! `μ` back towards state `i - 1`, absorption (data loss) at state
//! `k + 1`. The expected time to absorption from state 0 is computed
//! exactly by solving the linear system of mean first-passage times — no
//! asymptotic shortcuts — with a tiny dense Gaussian elimination.

/// Inputs of the MTTDL model.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityParams {
    /// Number of disks in the array.
    pub disks: usize,
    /// Faults tolerated concurrently (3 for 3DFTs).
    pub fault_tolerance: usize,
    /// Mean time to failure of one disk, hours.
    pub disk_mttf_hours: f64,
    /// Mean time to repair one failure, hours — the WOV. Reconstruction
    /// acceleration acts here.
    pub mttr_hours: f64,
}

impl ReliabilityParams {
    /// A 3DFT array of nearline disks (1.2M-hour MTTF, 10-hour rebuild).
    pub fn nearline_3dft(disks: usize) -> Self {
        ReliabilityParams {
            disks,
            fault_tolerance: 3,
            disk_mttf_hours: 1_200_000.0,
            mttr_hours: 10.0,
        }
    }
}

/// Mean time to data loss in hours, exact for the birth–death model.
fn mttdl_hours(p: &ReliabilityParams) -> f64 {
    assert!(p.fault_tolerance >= 1);
    assert!(
        p.disks > p.fault_tolerance,
        "array smaller than its fault tolerance"
    );
    assert!(p.disk_mttf_hours > 0.0 && p.mttr_hours > 0.0);

    let k = p.fault_tolerance;
    let lambda = 1.0 / p.disk_mttf_hours;
    let mu = 1.0 / p.mttr_hours;

    // Transient states 0..=k; absorbing state k+1.
    // T_i = expected time to absorption from state i:
    //   (f_i + r_i) T_i = 1 + f_i T_{i+1} + r_i T_{i-1}
    // with f_i = (n - i) λ, r_i = μ for i >= 1 (single repair crew; the
    // repair of the most recent failure restores state i-1), r_0 = 0,
    // T_{k+1} = 0.
    let n = p.disks as f64;
    let dim = k + 1;
    let mut a = vec![vec![0.0f64; dim]; dim];
    let mut b = vec![0.0f64; dim];
    for i in 0..dim {
        let f = (n - i as f64) * lambda;
        let r = if i == 0 { 0.0 } else { mu };
        a[i][i] = f + r;
        if i + 1 < dim {
            a[i][i + 1] = -f;
        }
        if i >= 1 {
            a[i][i - 1] = -r;
        }
        b[i] = 1.0;
    }
    solve_dense(&mut a, &mut b);
    b[0]
}

/// In-place Gaussian elimination with partial pivoting; `b` becomes the
/// solution.
#[allow(clippy::needless_range_loop)] // indices address `a` and `b` together
fn solve_dense(a: &mut [Vec<f64>], b: &mut [f64]) {
    let n = b.len();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .expect("non-empty");
        a.swap(col, pivot);
        b.swap(col, pivot);
        let pv = a[col][col];
        assert!(pv.abs() > 0.0, "singular reliability system");
        for row in 0..n {
            if row != col && a[row][col] != 0.0 {
                let factor = a[row][col] / pv;
                for c2 in col..n {
                    let v = a[col][c2];
                    a[row][c2] -= factor * v;
                }
                b[row] -= factor * b[col];
            }
        }
    }
    for i in 0..n {
        b[i] /= a[i][i];
    }
}

/// MTTDL in years (the customary reporting unit).
pub fn mttdl_years(p: &ReliabilityParams) -> f64 {
    mttdl_hours(p) / (24.0 * 365.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mttdl_positive_and_astronomical_for_3dft() {
        let p = ReliabilityParams::nearline_3dft(8);
        let years = mttdl_years(&p);
        // 3DFT with 10-hour rebuilds: MTTDL far beyond any disk lifetime.
        assert!(years > 1e9, "got {years} years");
    }

    #[test]
    fn more_disks_lower_mttdl() {
        let small = mttdl_hours(&ReliabilityParams::nearline_3dft(6));
        let large = mttdl_hours(&ReliabilityParams::nearline_3dft(24));
        assert!(large < small);
    }

    #[test]
    fn shorter_repair_raises_mttdl() {
        let slow = ReliabilityParams {
            mttr_hours: 20.0,
            ..ReliabilityParams::nearline_3dft(8)
        };
        let fast = ReliabilityParams {
            mttr_hours: 5.0,
            ..ReliabilityParams::nearline_3dft(8)
        };
        assert!(mttdl_hours(&fast) > mttdl_hours(&slow));
    }

    #[test]
    fn higher_fault_tolerance_raises_mttdl() {
        let raid5 = ReliabilityParams {
            fault_tolerance: 1,
            ..ReliabilityParams::nearline_3dft(8)
        };
        let raid6 = ReliabilityParams {
            fault_tolerance: 2,
            ..ReliabilityParams::nearline_3dft(8)
        };
        let threedft = ReliabilityParams::nearline_3dft(8);
        let (m1, m2, m3) = (
            mttdl_hours(&raid5),
            mttdl_hours(&raid6),
            mttdl_hours(&threedft),
        );
        assert!(m1 < m2 && m2 < m3, "{m1} {m2} {m3}");
    }

    #[test]
    fn mttdl_matches_asymptotic_formula_within_factor() {
        // For μ >> λ the chain's MTTDL approaches
        // μ^k / (λ^{k+1} · Π_{i=0..k} (n - i)).
        let p = ReliabilityParams::nearline_3dft(8);
        let lambda = 1.0 / p.disk_mttf_hours;
        let mu = 1.0 / p.mttr_hours;
        let n = p.disks as f64;
        let approx = mu.powi(3) / (lambda.powi(4) * n * (n - 1.0) * (n - 2.0) * (n - 3.0));
        let exact = mttdl_hours(&p);
        let ratio = exact / approx;
        assert!(
            (0.5..2.0).contains(&ratio),
            "exact {exact:.3e} vs approx {approx:.3e}"
        );
    }

    #[test]
    fn gain_scales_superlinearly_with_wov() {
        let base = ReliabilityParams::nearline_3dft(10);
        // A 15% reconstruction speedup (the paper's Fig. 11 best case) —
        // MTTDL grows by ~(1/0.85)^3 ≈ 1.63 for a 3DFT.
        let gain = |speedup: f64| {
            let fast = ReliabilityParams {
                mttr_hours: base.mttr_hours * speedup,
                ..base
            };
            mttdl_hours(&fast) / mttdl_hours(&base)
        };
        assert!(gain(0.85) > 1.5 && gain(0.85) < 1.8, "gain {}", gain(0.85));
        // No speedup, no gain.
        assert!((gain(1.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "smaller than its fault tolerance")]
    fn degenerate_array_rejected() {
        mttdl_hours(&ReliabilityParams {
            disks: 3,
            ..ReliabilityParams::nearline_3dft(8)
        });
    }
}
