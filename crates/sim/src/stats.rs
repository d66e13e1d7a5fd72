//! Statistics collection for simulation models.

use serde::{Deserialize, Serialize};

/// A last-value-wins instantaneous metric (utilization fraction, queue depth
/// at end of run, configured rate).
///
/// It moves in both directions and has no time axis: it remembers the most
/// recent value along with the extremes seen, which is what summary
/// exporters want for "final state" readouts.
///
/// # Example
///
/// ```
/// use trainbox_sim::Gauge;
///
/// let mut util = Gauge::new("link0.util");
/// util.set(0.75);
/// util.set(0.40);
/// assert_eq!(util.value(), 0.40);
/// assert_eq!(util.max(), Some(0.75));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gauge {
    name: String,
    value: f64,
    min: f64,
    max: f64,
    updates: u64,
}

impl Gauge {
    /// Create a gauge with a diagnostic name, starting at 0 with no updates.
    pub fn new(name: impl Into<String>) -> Self {
        Gauge {
            name: name.into(),
            value: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            updates: 0,
        }
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record a new value.
    pub fn set(&mut self, v: f64) {
        self.value = v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.updates += 1;
    }

    /// Adjust the value by `delta`.
    pub fn adjust(&mut self, delta: f64) {
        let v = self.value + delta;
        self.set(v);
    }

    /// Most recently set value (0 before any update).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Smallest value ever set (`None` before any update).
    pub fn min(&self) -> Option<f64> {
        (self.updates > 0).then_some(self.min)
    }

    /// Largest value ever set (`None` before any update).
    pub fn max(&self) -> Option<f64> {
        (self.updates > 0).then_some(self.max)
    }

    /// Number of updates recorded.
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

/// A fixed-bucket histogram over `f64` observations.
///
/// Buckets are `[lo + i*width, lo + (i+1)*width)`, with underflow and
/// overflow counted separately.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    name: String,
    lo: f64,
    width: f64,
    buckets: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Create a histogram spanning `[lo, hi)` with `buckets` equal bins.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `buckets == 0`.
    pub fn new(name: impl Into<String>, lo: f64, hi: f64, buckets: usize) -> Self {
        assert!(hi > lo, "histogram range must be nonempty");
        assert!(buckets > 0, "histogram needs at least one bucket");
        Histogram {
            name: name.into(),
            lo,
            width: (hi - lo) / buckets as f64,
            buckets: vec![0; buckets],
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v < self.lo {
            self.underflow += 1;
        } else {
            let idx = ((v - self.lo) / self.width) as usize;
            if idx >= self.buckets.len() {
                self.overflow += 1;
            } else {
                self.buckets[idx] += 1;
            }
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Minimum observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate quantile `q in [0,1]` from bucket boundaries.
    ///
    /// Returns `None` when empty. Underflow observations clamp to `lo`,
    /// overflow to the upper bound.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.lo);
        }
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return Some(self.lo + (i as u64 + 1) as f64 * self.width);
            }
        }
        Some(self.lo + self.buckets.len() as f64 * self.width)
    }

    /// Counts in `(underflow, buckets, overflow)` form.
    pub fn raw_counts(&self) -> (u64, &[u64], u64) {
        (self.underflow, &self.buckets, self.overflow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new("lat", 0.0, 10.0, 10);
        for v in [1.5, 2.5, 2.6, 7.0, -1.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(-1.0));
        assert_eq!(h.max(), Some(100.0));
        let (u, b, o) = h.raw_counts();
        assert_eq!(u, 1);
        assert_eq!(o, 1);
        assert_eq!(b[1], 1);
        assert_eq!(b[2], 2);
        assert_eq!(b[7], 1);
    }

    #[test]
    fn histogram_quantiles_bracket_data() {
        let mut h = Histogram::new("q", 0.0, 100.0, 100);
        for i in 0..100 {
            h.observe(i as f64 + 0.5);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((45.0..=55.0).contains(&median), "median={median}");
        assert_eq!(h.quantile(1.0).unwrap(), 100.0);
        assert!(Histogram::new("e", 0.0, 1.0, 2).quantile(0.5).is_none());
    }

    #[test]
    fn gauge_tracks_last_value_and_extremes() {
        let mut g = Gauge::new("util");
        assert_eq!(g.value(), 0.0);
        assert_eq!(g.min(), None);
        assert_eq!(g.max(), None);
        g.set(0.75);
        g.set(0.25);
        g.adjust(0.05);
        assert!((g.value() - 0.30).abs() < 1e-12);
        assert_eq!(g.min(), Some(0.25));
        assert_eq!(g.max(), Some(0.75));
        assert_eq!(g.updates(), 3);
        assert_eq!(g.name(), "util");
    }

    #[test]
    fn histogram_mean() {
        let mut h = Histogram::new("m", 0.0, 10.0, 2);
        assert!(h.mean().is_none());
        h.observe(2.0);
        h.observe(4.0);
        assert_eq!(h.mean(), Some(3.0));
    }
}
