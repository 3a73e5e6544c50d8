//! Measurement capture and summary statistics for experiments.
//!
//! The experiment harness needs the same few tools everywhere: time series
//! of samples, percentiles/means over trials, and fixed-width histograms
//! (Fig. 8 is a histogram of job wall-clock times). They live here so every
//! bench binary reports numbers computed the same way.

use crate::time::SimTime;

/// A time-stamped series of f64 samples.
#[derive(Clone, Debug, Default)]
pub struct Series {
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// An empty series.
    pub fn new() -> Self {
        Series::default()
    }

    /// Append a sample. Samples are expected in nondecreasing time order.
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|(t, _)| *t <= at),
            "series samples out of order"
        );
        self.points.push((at, value));
    }

    /// All samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Just the values.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        self.points.iter().map(|(_, v)| *v)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Sample standard deviation (n−1 denominator); `None` below two samples.
pub fn stddev(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    Some(var.sqrt())
}

/// The `p`-th percentile (0..=100) by nearest-rank on a sorted copy;
/// `None` for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// A fixed-width histogram over `[lo, hi)`, with underflow/overflow buckets.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    width: f64,
    counts: Vec<u64>,
    /// Samples below `lo`.
    pub underflow: u64,
    /// Samples at or above `hi`.
    pub overflow: u64,
    total: u64,
}

impl Histogram {
    /// A histogram with `bins` equal buckets covering `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0 && hi > lo, "degenerate histogram");
        Histogram {
            lo,
            width: (hi - lo) / bins as f64,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
        } else {
            let idx = ((x - self.lo) / self.width) as usize;
            match self.counts.get_mut(idx) {
                Some(c) => *c += 1,
                None => self.overflow += 1,
            }
        }
    }

    /// Total samples recorded (including under/overflow).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Iterate over (bucket centre, count, fraction-of-total).
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64, f64)> + '_ {
        let total = self.total.max(1) as f64;
        self.counts.iter().enumerate().map(move |(i, &c)| {
            let centre = self.lo + (i as f64 + 0.5) * self.width;
            (centre, c, c as f64 / total)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_collects_in_order() {
        let mut s = Series::new();
        s.push(SimTime::from_secs(1), 10.0);
        s.push(SimTime::from_secs(2), 20.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.values().sum::<f64>(), 30.0);
    }

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
        assert_eq!(stddev(&[1.0]), None);
        // Known sample stddev: [2,4,4,4,5,5,7,9] → mean 5, sample var 32/7.
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = stddev(&xs).unwrap();
        assert!((s - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&xs, 30.0), Some(20.0));
        assert_eq!(percentile(&xs, 100.0), Some(50.0));
        assert_eq!(percentile(&xs, 0.0), Some(15.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_is_order_insensitive() {
        let a = [3.0, 1.0, 2.0];
        let b = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&a, 50.0), percentile(&b, 50.0));
    }

    #[test]
    fn histogram_buckets_and_flows() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [-1.0, 0.5, 1.5, 2.5, 9.9, 10.0, 11.0] {
            h.record(x);
        }
        assert_eq!(h.total(), 7);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets.len(), 5);
        assert_eq!(buckets[0], (1.0, 2, 2.0 / 7.0)); // 0.5 and 1.5 fall in [0,2)
        assert_eq!(buckets[1].1, 1); // 2.5
        assert_eq!(buckets[4].1, 1); // 9.9
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn histogram_rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }
}
