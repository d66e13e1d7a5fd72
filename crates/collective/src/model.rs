//! Analytic latency model of the chunked ring all-reduce (Fig 2b).
//!
//! The paper's synchronization model (§VI-A: *"we carefully built a
//! performance model based on the ring communication and assumed an
//! NVLink-like interface"*) is a chunked ring: `2(n-1)` pipeline steps, each
//! moving a `M/n`-byte segment over every link, with a per-hop cost paid per
//! chunk during pipeline fill:
//!
//! ```text
//! T(n) = 2(n-1) · (M/n)/B      (bandwidth term — saturates at 2M/B)
//!      + 2(n-1) · (α + c/B)    (pipeline-fill term — per-hop latency)
//! ```
//!
//! With 4 KB chunks on an NVLink-class fabric the fill term is small, so the
//! latency normalized to `T(2)` rises from 1 toward ~2 and flattens — the
//! exact shape of Figure 2b.

use serde::{Deserialize, Serialize};
use trainbox_sim::SimTime;

/// Chunked-ring all-reduce latency model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RingModel {
    /// Per-direction link bandwidth of the accelerator fabric, bytes/s.
    pub link_bytes_per_sec: f64,
    /// Per-hop propagation + switch latency, seconds.
    pub hop_latency_secs: f64,
    /// Pipeline chunk size, bytes (the paper uses 4 KB).
    pub chunk_bytes: u64,
}

impl RingModel {
    /// The paper's working configuration: 300 GB/s NVLink-class links,
    /// 100 ns per hop, 4 KB chunks.
    pub fn nvlink_default() -> Self {
        RingModel {
            link_bytes_per_sec: 300e9,
            hop_latency_secs: 100e-9,
            chunk_bytes: 4096,
        }
    }

    /// All-reduce latency for `model_bytes` of gradients over `n`
    /// accelerators. Zero for `n <= 1`.
    ///
    /// # Panics
    ///
    /// Panics if the model's bandwidth is not positive.
    pub fn allreduce_secs(&self, model_bytes: u64, n: usize) -> f64 {
        assert!(self.link_bytes_per_sec > 0.0, "bandwidth must be positive");
        if n <= 1 {
            return 0.0;
        }
        let nf = n as f64;
        let steps = 2.0 * (nf - 1.0);
        let bandwidth_term = steps * (model_bytes as f64 / nf) / self.link_bytes_per_sec;
        let fill_term = steps
            * (self.hop_latency_secs + self.chunk_bytes as f64 / self.link_bytes_per_sec);
        bandwidth_term + fill_term
    }

    /// Same, as a [`SimTime`] for the simulator.
    pub fn allreduce_time(&self, model_bytes: u64, n: usize) -> SimTime {
        SimTime::from_secs_f64(self.allreduce_secs(model_bytes, n))
    }

    /// Per-step time boundaries of the `2(n-1)`-step ring, as offsets from
    /// the start of the all-reduce: element `i` is when step `i` completes.
    ///
    /// The chunked ring spends the same time in every step — each moves an
    /// `M/n`-byte segment over every link and pays one hop fill — so the
    /// boundaries are a uniform partition of [`RingModel::allreduce_secs`];
    /// the last boundary equals the total latency (up to rounding). Empty for
    /// `n <= 1`. This feeds per-step collective spans in the trace layer; the
    /// simulator's aggregate timing uses only the total, so tracing cannot
    /// perturb results.
    pub fn allreduce_steps(&self, model_bytes: u64, n: usize) -> Vec<f64> {
        if n <= 1 {
            return Vec::new();
        }
        let total = self.allreduce_secs(model_bytes, n);
        let steps = 2 * (n - 1);
        let per_step = total / steps as f64;
        (1..=steps).map(|i| per_step * i as f64).collect()
    }

    /// Latency normalized to the two-accelerator latency — the y-axis of
    /// Figure 2b.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (the normalization base needs two accelerators).
    pub fn normalized_latency(&self, model_bytes: u64, n: usize) -> f64 {
        assert!(n >= 2, "normalization requires n >= 2");
        self.allreduce_secs(model_bytes, n) / self.allreduce_secs(model_bytes, 2)
    }

    /// The Figure 2b series: normalized latency at each accelerator count.
    pub fn figure_2b_series(&self, model_bytes: u64, counts: &[usize]) -> Vec<(usize, f64)> {
        counts
            .iter()
            .map(|&n| (n, self.normalized_latency(model_bytes, n.max(2))))
            .collect()
    }
}

/// Latency of a binomial-tree all-reduce (reduce to a root, then broadcast):
/// `2·⌈log₂ n⌉` rounds, each moving the full gradient over one link. This is
/// the pre-ring baseline the paper's Fig 3 "+Synch. Optimization" step
/// replaces; unlike the ring it does **not** saturate — per-link traffic
/// stays `O(M log n)`.
pub fn tree_allreduce_secs(
    model_bytes: u64,
    n: usize,
    link_bytes_per_sec: f64,
    hop_latency_secs: f64,
) -> f64 {
    assert!(link_bytes_per_sec > 0.0, "bandwidth must be positive");
    if n <= 1 {
        return 0.0;
    }
    let rounds = (n as f64).log2().ceil();
    2.0 * rounds * (model_bytes as f64 / link_bytes_per_sec + hop_latency_secs)
}

/// Bytes each link carries during a ring all-reduce of `model_bytes` over
/// `n` participants: `2(n-1)/n × model_bytes` (the quantity that saturates).
pub fn ring_bytes_per_link(model_bytes: u64, n: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    2.0 * (n as f64 - 1.0) / n as f64 * model_bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RingModel {
        RingModel::nvlink_default()
    }

    #[test]
    fn tree_grows_with_log_n_and_loses_to_ring() {
        let m = 97_500_000u64;
        let b = 300e9;
        let t2 = tree_allreduce_secs(m, 2, b, 1e-6);
        let t256 = tree_allreduce_secs(m, 256, b, 1e-6);
        assert!((t256 / t2 - 8.0).abs() < 0.01, "log ratio");
        // At scale the ring is far cheaper than the tree on the same links.
        let ring = model().allreduce_secs(m, 256);
        assert!(ring < t256 / 2.0, "ring={ring} tree={t256}");
        assert_eq!(tree_allreduce_secs(m, 1, b, 0.0), 0.0);
    }

    #[test]
    fn zero_for_single_accelerator() {
        assert_eq!(model().allreduce_secs(100_000_000, 1), 0.0);
        assert_eq!(model().allreduce_secs(100_000_000, 0), 0.0);
    }

    #[test]
    fn two_node_latency_is_model_over_bandwidth_plus_fill() {
        let m = model();
        let bytes = 300_000_000u64; // exactly 1 ms of link time at 300 GB/s
        let t = m.allreduce_secs(bytes, 2);
        // 2(n-1)/n = 1 -> bandwidth term = 1.0 ms; fill negligible.
        assert!((t - 1.0e-3).abs() < 1e-6, "t={t}");
    }

    #[test]
    fn figure_2b_saturates_near_two() {
        // ResNet-50-sized model: 97.5 MB.
        let m = model();
        let bytes = 97_500_000u64;
        let series = m.figure_2b_series(bytes, &[2, 4, 8, 16, 32, 64, 128, 256]);
        assert!((series[0].1 - 1.0).abs() < 1e-9);
        // Monotone nondecreasing.
        for w in series.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        let last = series.last().unwrap().1;
        assert!(last > 1.8, "should approach 2x: {last}");
        assert!(last < 2.5, "paper's axis tops at 2.5: {last}");
    }

    #[test]
    fn latency_grows_sublinearly() {
        // Doubling accelerators far less than doubles latency at scale.
        let m = model();
        let bytes = 548_000_000u64; // VGG-19
        let t64 = m.allreduce_secs(bytes, 64);
        let t128 = m.allreduce_secs(bytes, 128);
        assert!(t128 / t64 < 1.1);
    }

    #[test]
    fn step_boundaries_partition_the_total() {
        let m = model();
        let bytes = 97_500_000u64;
        for n in [2usize, 4, 16] {
            let steps = m.allreduce_steps(bytes, n);
            assert_eq!(steps.len(), 2 * (n - 1));
            let total = m.allreduce_secs(bytes, n);
            assert!((steps.last().unwrap() - total).abs() < 1e-12 * total.max(1.0));
            for w in steps.windows(2) {
                assert!(w[1] > w[0]);
            }
        }
        assert!(m.allreduce_steps(bytes, 1).is_empty());
        assert!(m.allreduce_steps(bytes, 0).is_empty());
    }

    #[test]
    fn sim_time_conversion() {
        let m = model();
        let t = m.allreduce_time(300_000_000, 2);
        assert!((t.as_secs_f64() - 1.0e-3).abs() < 1e-6);
    }

    #[test]
    fn per_link_traffic_saturates_at_2x_model() {
        let m = 1_000_000u64;
        assert_eq!(ring_bytes_per_link(m, 1), 0.0);
        assert!((ring_bytes_per_link(m, 2) - 1e6).abs() < 1.0);
        let big = ring_bytes_per_link(m, 256);
        assert!(big < 2e6);
        assert!(big > 1.99e6);
    }

    #[test]
    fn consistent_with_ring_link_traffic() {
        // The model's bandwidth term equals bytes-per-link / bandwidth.
        let m = model();
        let bytes = 10_000_000u64;
        for n in [2usize, 8, 64] {
            let traffic = ring_bytes_per_link(bytes, n);
            let bw_term = traffic / m.link_bytes_per_sec;
            let full = m.allreduce_secs(bytes, n);
            assert!(full >= bw_term);
            assert!(full - bw_term < 1e-3, "fill term should be small");
        }
    }
}
