//! Order statistics over trial times.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Ascending copy of a sample.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// The tail of a sample: the highest percentile with at least
/// [`TAIL_BEYOND`] samples above it, i.e. the `TAIL_BEYOND + 1`-th largest
/// sample. Below `TAIL_BEYOND + 1` samples no percentile qualifies and the
/// maximum stands in, flagged by `supported == false`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value sits at (0–100).
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Number of samples the tail was taken over.
    pub count: usize,
    /// Whether at least `TAIL_BEYOND` samples lie beyond the value.
    pub supported: bool,
}

/// How many samples must lie beyond the reported tail.
pub const TAIL_BEYOND: usize = 10;

/// Computes the [`Tail`] of a non-empty sample.
pub fn tail(values: &[f64]) -> Tail {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "tail of an empty sample");
    if n <= TAIL_BEYOND {
        return Tail {
            percentile: 100.0,
            value: s[n - 1],
            count: n,
            supported: false,
        };
    }
    let k = n - 1 - TAIL_BEYOND;
    Tail {
        percentile: 100.0 * k as f64 / (n - 1) as f64,
        value: s[k],
        count: n,
        supported: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile_sorted(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let t = tail(&v);
        assert!(t.supported);
        assert_eq!(t.value, 89.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        let short = tail(&[1.0, 5.0, 3.0]);
        assert!(!short.supported);
        assert_eq!(short.value, 5.0);
    }
}
