//! Summary statistics the benchmark reports: medians and quartiles of
//! repeated measurements, tail percentiles with enough samples behind
//! them, interpolated quantiles of the engine's log-linear histograms,
//! and the metric-name rule.

use telemetry::LogLinearHistogram;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values for an even
/// count). `None` when empty.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles by the "exclusive" method — the one
/// Python's `statistics.quantiles(values, n=4)` uses by default, so the
/// benchmark's spread and a reader's re-computation agree. Needs at
/// least two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the benchmark's bounds are set against.
#[must_use]
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid)
}

/// The highest of the conventional tail percentiles (p50, p90, p99,
/// p99.9, p99.99) that still has at least [`MIN_TAIL_SAMPLES`] of
/// `samples` beyond it, or `None` if not even the median does.
#[must_use]
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= MIN_TAIL_SAMPLES as f64 - 1e-9)
}

/// `p`-th percentile of a log-linear histogram, interpolated linearly
/// inside the bucket the rank falls in and clamped to the recorded
/// min/max. The histogram's own [`LogLinearHistogram::quantile`]
/// returns bucket upper bounds, which move in steps of up to 12.5%;
/// interpolation keeps run-to-run comparisons continuous.
#[must_use]
pub fn hist_quantile(h: &LogLinearHistogram, p: f64) -> Option<f64> {
    if h.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0) * h.count() as f64;
    let mut below = 0.0;
    let mut last = None;
    for (idx, count) in h.nonzero_buckets() {
        let (lo, hi) = h.bucket_range(idx);
        let count = count as f64;
        last = Some(hi as f64);
        if below + count >= rank {
            let frac = ((rank - below) / count).clamp(0.0, 1.0);
            let v = lo as f64 + frac * (hi as f64 + 1.0 - lo as f64);
            let (min, max) = (h.min()? as f64, h.max()? as f64);
            return Some(v.clamp(min, max));
        }
        below += count;
    }
    last
}

/// Epoch-time quantiles that one noisy stretch of a run cannot drag:
/// repetitions' histograms are pooled into blocks just large enough
/// for a p99 with [`MIN_TAIL_SAMPLES`] beyond it, each block yields its
/// p50 and p99, and the result is the median over blocks. A leftover
/// block too small for a p99 is dropped.
#[derive(Debug, Default)]
pub struct BlockQuantiles {
    block: LogLinearHistogram,
    p50: Vec<f64>,
    p99: Vec<f64>,
    samples: u64,
}

impl BlockQuantiles {
    /// Adds one repetition's histogram.
    ///
    /// # Panics
    ///
    /// Panics if `h` has another mantissa width than the default.
    pub fn add(&mut self, h: &LogLinearHistogram) {
        stat4_core::Mergeable::merge_from(&mut self.block, h).expect("default histogram geometry");
        self.samples += h.count();
        if tail_percentile(self.block.count() as usize).is_some_and(|p| p >= 99.0) {
            let block = std::mem::take(&mut self.block);
            self.p50.extend(hist_quantile(&block, 50.0));
            self.p99.extend(hist_quantile(&block, 99.0));
        }
    }

    /// Median over blocks of the block p50.
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        median(&self.p50)
    }

    /// Median over blocks of the block p99.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        median(&self.p99)
    }

    /// Complete blocks so far.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.p99.len()
    }

    /// Samples added so far, in complete blocks or not.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples
    }
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates beyond tiny samples.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = iqr_share(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn hist_quantile_interpolates_within_bounds() {
        let mut h = LogLinearHistogram::default();
        assert_eq!(hist_quantile(&h, 50.0), None);
        for v in 1000..2000u64 {
            h.record(v);
        }
        let p50 = hist_quantile(&h, 50.0).unwrap();
        // Within one bucket width (12.5%) of the exact median 1499.5.
        assert!((p50 - 1499.5).abs() < 1499.5 * 0.125, "p50 {p50}");
        let p99 = hist_quantile(&h, 99.0).unwrap();
        assert!((p99 - 1989.0).abs() < 1989.0 * 0.125, "p99 {p99}");
        assert!(p50 < p99);
        assert_eq!(hist_quantile(&h, 100.0), Some(1999.0));
        let mut one = LogLinearHistogram::default();
        one.record(777);
        assert_eq!(hist_quantile(&one, 50.0), Some(777.0));
    }

    #[test]
    fn block_quantiles_take_the_median_over_full_blocks() {
        let mut b = BlockQuantiles::default();
        let rep = |base: u64| {
            let mut h = LogLinearHistogram::default();
            for v in 0..600u64 {
                h.record(base + v);
            }
            h
        };
        b.add(&rep(10_000));
        assert_eq!((b.blocks(), b.p99()), (0, None));
        b.add(&rep(10_000)); // 1200 samples: first block closes
        b.add(&rep(10_000));
        b.add(&rep(10_000)); // second block
        b.add(&rep(1_000_000)); // an outlier block
        b.add(&rep(1_000_000));
        b.add(&rep(10_000)); // leftover, dropped
        assert_eq!(b.blocks(), 3);
        assert_eq!(b.samples(), 7 * 600);
        let p50 = b.p50().unwrap();
        assert!((10_000.0..10_600.0).contains(&p50), "p50 {p50}");
        let p99 = b.p99().unwrap();
        assert!((10_500.0..10_700.0).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn metric_names() {
        for ok in [
            "throughput_pps",
            "replay.parse_frame.ns_per_pkt",
            "p4sim.steps-per_pkt",
            "9a",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/y",
            "µs",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }
}
