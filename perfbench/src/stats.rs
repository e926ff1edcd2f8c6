//! Exact latency percentiles over every recorded sample.
//!
//! A percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it, so a tail figure is always backed by real
//! observations rather than a histogram bucket edge.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A set of samples (any unit), sorted on demand.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty set.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile `q` in (0, 1), or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn pct(&mut self, q: f64) -> Option<f64> {
        let n = self.values.len();
        let rank = (q * n as f64).ceil() as usize;
        if rank == 0 || n - rank < MIN_BEYOND {
            return None;
        }
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        Some(self.values[rank - 1])
    }

    /// Arithmetic mean, or `None` without samples.
    pub fn mean(&self) -> Option<f64> {
        let n = self.values.len();
        (n > 0).then(|| self.values.iter().sum::<f64>() / n as f64)
    }

    /// Median of the samples, or `None` when there are too few.
    pub fn median(&mut self) -> Option<f64> {
        self.pct(0.5)
    }
}

/// Median of a short list of repeated measurements (no tail rule: the
/// median of a handful of repeats is what is reported, e.g. set-up).
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
