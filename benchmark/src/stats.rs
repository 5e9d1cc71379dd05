//! Order statistics the benchmark reports: medians, quartiles, percentiles.
//!
//! Owned here (not borrowed from `crates/bench`) so the measuring stick does
//! not move when the product's own reporting code does.

/// Five-number summary plus the sample count of one timing metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median (the reported value).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one rep.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points exactly as Python's
/// `statistics.quantiles(values, n=4)` (default *exclusive* method) gives
/// them, so `compare` applies the same noise criterion as the driver.
/// `None` below two samples (Python raises there).
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        // j, delta = divmod(i * (n + 1), 4), with j clamped to [1, n - 1].
        let scaled = i * (n + 1);
        let j = (scaled / 4).clamp(1, n - 1);
        let delta = scaled as f64 - 4.0 * j as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the spread the noise
/// criterion bounds. `None` below two samples or for a zero median.
pub fn relative_iqr(samples: &[f64]) -> Option<f64> {
    let q = quartiles(samples)?;
    (q[1] != 0.0).then(|| (q[2] - q[0]) / q[1].abs())
}

/// Summary of a non-empty sample set. With a single sample every field is
/// that sample.
pub fn summarize(samples: &[f64]) -> Summary {
    let v = sorted(samples);
    let med = median(&v);
    let (q1, q3) = match quartiles(&v) {
        Some(q) => (q[0].max(v[0]), q[2].min(v[v.len() - 1])),
        None => (med, med),
    };
    Summary { median: med, min: v[0], q1, q3, max: v[v.len() - 1], n: v.len() }
}

/// Linear-interpolated percentile `p` (0–100) of `samples`; 0 for an empty
/// slice (a layer that did no work reports 0).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let v = sorted(samples);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// The highest percentile of the ladder 50 / 90 / 99 / 99.9 that still has
/// at least ten samples beyond it in a set of `n` — the tail figure that is
/// honest to quote at that sample count. Below 20 samples only the median
/// qualifies.
pub fn tail_percentile(n: usize) -> f64 {
    // Per-mille, so "samples beyond" is exact integer arithmetic.
    const LADDER: [usize; 4] = [500, 900, 990, 999];
    let best = LADDER.iter().rev().find(|&&pm| n * (1000 - pm) / 1000 >= 10).unwrap_or(&LADDER[0]);
    *best as f64 / 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 3.0, 1.0, 2.0, 4.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_iqr_is_spread_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_iqr(&v), Some(1.0));
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0]), Some(0.0));
        assert_eq!(relative_iqr(&[0.0, 0.0]), None);
    }

    #[test]
    fn summary_clamps_quartiles_into_the_sample_range() {
        let s = summarize(&[1.0, 2.0]);
        assert_eq!((s.min, s.q1, s.median, s.q3, s.max, s.n), (1.0, 1.0, 1.5, 2.0, 2.0, 2));
        let one = summarize(&[4.0]);
        assert_eq!((one.q1, one.median, one.q3, one.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 30.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
        assert_eq!(percentile(&v, 25.0), 20.0);
        assert_eq!(percentile(&v, 90.0), 46.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0); // 10 beyond the median, 2 beyond p90
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }
}
