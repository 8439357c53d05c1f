//! Order statistics shared by every workload: medians, the tail-percentile
//! rule, and the quartile spread the contract judges steadiness by.

/// Linear-interpolated quantile `q` in `[0, 1]` of `sorted` (ascending).
/// Empty input reads 0.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Ascending copy of `values` (all benchmark samples are finite).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values`; the aggregation used for per-pass throughput,
/// repeated set-ups, and per-round end-to-end values.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The tail quantile a sample of `n` latencies supports: the highest of
/// 95 / 90 / 75 / 50 % that leaves at least ten samples beyond it. With
/// ≥ 200 ops pooled `op_p95_ms` really is the 95th percentile; a smaller
/// sample degrades instead of reporting a percentile it cannot back.
pub fn tail_quantile(n: usize) -> f64 {
    const BEYOND: usize = 10;
    [95usize, 90, 75]
        .into_iter()
        .find(|pct| n * (100 - pct) >= BEYOND * 100)
        .map_or(0.5, |pct| pct as f64 / 100.0)
}

/// Median and supported tail of a pooled latency sample.
pub fn p50_and_tail(latencies: &[f64]) -> (f64, f64) {
    let s = sorted(latencies);
    (
        quantile_sorted(&s, 0.5),
        quantile_sorted(&s, tail_quantile(s.len())),
    )
}

/// Relative difference of `b` against `a` (0 when both are 0).
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else if a == 0.0 {
        f64::INFINITY
    } else {
        (b - a) / a.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond_the_percentile() {
        assert_eq!(tail_quantile(1000), 0.95);
        assert_eq!(tail_quantile(200), 0.95); // 10 beyond p95
        assert_eq!(tail_quantile(199), 0.90); // 9.95 beyond p95
        assert_eq!(tail_quantile(100), 0.90); // 10 beyond p90
        assert_eq!(tail_quantile(99), 0.75);
        assert_eq!(tail_quantile(40), 0.75);
        assert_eq!(tail_quantile(39), 0.5);
        assert_eq!(tail_quantile(0), 0.5);
    }

    #[test]
    fn median_aggregates_passes_and_ignores_one_outlier() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // One stalled pass out of nine does not move the pass median.
        let mut passes = vec![100.0; 8];
        passes.push(5.0);
        assert_eq!(median(&passes), 100.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let s = sorted(&[40.0, 10.0, 30.0, 20.0]);
        assert_eq!(quantile_sorted(&s, 0.0), 10.0);
        assert_eq!(quantile_sorted(&s, 1.0), 40.0);
        assert_eq!(quantile_sorted(&s, 0.5), 25.0);
        let (p50, tail) = p50_and_tail(&[1.0, 2.0, 3.0]);
        assert_eq!((p50, tail), (2.0, 2.0)); // 3 samples only back a median
    }

    #[test]
    fn rel_diff_handles_zero_base() {
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert_eq!(rel_diff(2.0, 3.0), 0.5);
        assert!(rel_diff(0.0, 1.0).is_infinite());
    }
}
