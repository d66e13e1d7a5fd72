//! Order statistics for timing samples.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps a product like 0.9 × 100 from rounding up a rank.
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest percentile, on a 0.1 grid, that leaves at least ten samples
/// beyond it: the tail a sample of `n` can support. The maximum (p100)
/// below 11 samples, which support no tail.
pub fn highest_tail(n: usize) -> f64 {
    if n <= 10 {
        return 100.0;
    }
    let mut p = (1000.0 * (n - 10) as f64 / n as f64).floor() / 10.0;
    while beyond(n, p) < 10 {
        p -= 0.1;
    }
    p
}

/// `a / b`, or 0 when `b` is not positive (nothing was counted).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `values` sorted ascending, for repeated percentile queries.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(highest_tail(10), 100.0);
        assert_eq!(highest_tail(11), 9.0);
        assert_eq!(highest_tail(100), 90.0);
        assert_eq!(highest_tail(1000), 99.0);
        assert_eq!(highest_tail(2000), 99.5);
        for n in 11..3000 {
            let p = highest_tail(n);
            assert!(beyond(n, p) >= 10, "n={n} p={p}");
            // The next grid step up would leave fewer than ten.
            assert!(
                beyond(n, p + 0.1) < 10 || p + 0.1 > 100.0,
                "n={n} p={p} is not the highest"
            );
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(beyond(100, 99.0), 1);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
    }
}
