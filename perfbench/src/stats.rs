//! Order statistics over wall-clock samples.

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Samples every measured loop collects, however short `--seconds` is:
/// enough for [`tail`] to leave ten samples above a rank at or over the
/// median, so its percentile moves smoothly with the sample count.
pub const MIN_SAMPLES: usize = 21;

/// The tail latency the benchmark reports: the highest order statistic
/// with at least ten samples above it. Below [`MIN_SAMPLES`] that rank
/// would sit under the median, so the maximum is reported instead;
/// `pct` says which one it is.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample value.
    pub value: f64,
    /// Its percentile rank, 0..=100.
    pub pct: f64,
    /// Samples it was taken from.
    pub n: usize,
}

/// See [`Tail`].
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            pct: 0.0,
            n,
        };
    }
    let idx = if n >= MIN_SAMPLES { n - 11 } else { n - 1 };
    Tail {
        value: s[idx],
        pct: 100.0 * (idx + 1) as f64 / n as f64,
        n,
    }
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_above() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 30.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), 10);
        assert_eq!(tail(&[1.0, 5.0, 2.0]).value, 5.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty).value, 20.0);
    }
}
