//! Order statistics over the timed passes and over repeated runs.

/// The three quartile cut points of `values`, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spread this benchmark prints is the one a reviewer recomputes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// The median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The smallest value: the best of a set of timings. Interference from
/// the host only ever adds time, and on a shared VM it comes in bursts of
/// seconds that move a median of passes by tens of percent; the fastest
/// sample is the steady one (and the repo's own convention for native
/// timings).
pub fn best(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "best of no values");
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// the benchmark's bounds are judged against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
    }

    #[test]
    fn best_is_the_smallest() {
        assert_eq!(best(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    fn spread_is_the_iqr_over_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), (8.25 - 2.75) / 5.5);
    }
}
