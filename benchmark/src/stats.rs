//! Order statistics the benchmark reports: medians, quartiles and a tail
//! percentile that always has samples beyond it.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample set ascending (NaN-free by construction: every sample
/// is a duration or a count).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of an unsorted sample set; 0 when empty (a layer that did no
/// work on this workload).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The tail of an ascending latency sample set: p99, or with fewer than
/// 1 000 samples the highest percentile that still has ten samples
/// beyond it (choosing-metrics §1). Below twenty samples nothing past
/// the median is resolved. Returns `(percentile, value)`.
///
/// # Panics
/// Panics on an empty slice.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n >= 1000 {
        (0.99, percentile(sorted, 0.99))
    } else if n >= 20 {
        ((n - 10) as f64 / n as f64, sorted[n - 11])
    } else {
        (0.5, percentile(sorted, 0.5))
    }
}

/// First quartile, median and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive), so spreads
/// printed here match the ones the acceptance check computes.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the ends,
        // linearly interpolated.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + (s[lo] - s[lo - 1]) * frac
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median (0 for a zero median).
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(v);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<f64>>();
        // 1 000 samples resolve p99 exactly: ten lie beyond it.
        assert_eq!(tail(&ramp(1000)), (0.99, 990.0));
        assert_eq!(tail(&ramp(5000)), (0.99, 4950.0));
        // Fewer samples fall back to the highest resolved percentile.
        for n in [20usize, 60, 250, 999] {
            let s = ramp(n);
            let (q, v) = tail(&s);
            assert_eq!(s.iter().filter(|&&x| x > v).count(), 10, "n = {n}");
            assert!(q < 0.99);
        }
        assert_eq!(tail(&ramp(19)), (0.5, 10.0));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q2, q3) = quartiles(&[4.0, 1.0, 2.0]);
        assert_eq!((q1, q2, q3), (1.0, 2.0, 4.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }
}
