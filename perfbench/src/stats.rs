//! Medians and quartiles of timed samples.

/// Median, quartiles and sample count of a set of timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarize `samples`; `None` when there are none. Quartiles follow
    /// Python's `statistics.quantiles(data, n=4)` (the "exclusive"
    /// method), so they match the figures a reader computes from the
    /// printed samples; a single sample is its own quartiles.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let median = match n {
            0 => return None,
            _ if n % 2 == 1 => s[n / 2],
            _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
        };
        let (q1, q3) = if n == 1 { (s[0], s[0]) } else { (quantile(&s, 1), quantile(&s, 3)) };
        Some(Summary { median, q1, q3, n })
    }
}

/// The `i`-th of three cut points of sorted `s` (`s.len() >= 2`),
/// interpolated as `statistics.quantiles(s, n=4)` does.
fn quantile(s: &[f64], i: usize) -> f64 {
    let m = s.len() + 1;
    let j = (i * m / 4).clamp(1, s.len() - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Summary::of(&s).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Summary::of(&[2.0, 1.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_and_empty_samples() {
        let q = Summary::of(&[4.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (4.0, 4.0, 4.0, 1));
        assert!(Summary::of(&[]).is_none());
    }
}
