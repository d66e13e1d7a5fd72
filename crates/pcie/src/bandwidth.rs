//! Link-speed types.
//!
//! Bandwidth figures follow the paper's working numbers: PCIe Gen3 x16 ≈
//! 16 GB/s per direction (§IV-D: "100Gbps=12.5GB/s vs. 16GB/s"), Gen4 doubles
//! that, the DGX-2 class accelerator fabric is 300 GB/s (§III-A), and the
//! prep-pool network is 100 Gb Ethernet.

use serde::{Deserialize, Serialize};
use trainbox_sim::SimTime;

/// A link bandwidth in bytes per second.
///
/// # Example
///
/// ```
/// use trainbox_pcie::Bandwidth;
/// use trainbox_sim::SimTime;
///
/// let bw = Bandwidth::from_gbytes_per_sec(16.0);
/// // 16 MB over a 16 GB/s link takes 1 ms.
/// assert_eq!(bw.transfer_time(16_000_000), SimTime::from_millis(1));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Construct from raw bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bps` is zero: a zero-bandwidth link can never transfer data
    /// and always indicates a configuration bug.
    pub fn from_bytes_per_sec(bps: u64) -> Self {
        assert!(bps > 0, "bandwidth must be positive");
        Bandwidth(bps)
    }

    /// Construct from GB/s (decimal gigabytes).
    pub fn from_gbytes_per_sec(gbps: f64) -> Self {
        assert!(gbps.is_finite() && gbps > 0.0, "bandwidth must be positive");
        Bandwidth((gbps * 1e9).round() as u64)
    }

    /// PCIe Gen3 x16: 16 GB/s per direction (the paper's general-purpose link).
    pub fn gen3_x16() -> Self {
        Generation::Gen3.lanes(16)
    }

    /// PCIe Gen3 x8: 8 GB/s per direction.
    pub fn gen3_x8() -> Self {
        Generation::Gen3.lanes(8)
    }

    /// PCIe Gen3 x4: 4 GB/s per direction (typical NVMe SSD attach).
    pub fn gen3_x4() -> Self {
        Generation::Gen3.lanes(4)
    }

    /// 100 Gb Ethernet: 12.5 GB/s (§IV-D, the prep-pool network).
    pub fn ethernet_100g() -> Self {
        Bandwidth::from_gbytes_per_sec(12.5)
    }

    /// Raw bytes per second.
    pub fn bytes_per_sec(self) -> u64 {
        self.0
    }

    /// Bandwidth in GB/s.
    pub fn gbytes_per_sec(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to move `bytes` at this bandwidth (no protocol overhead).
    pub fn transfer_time(self, bytes: u64) -> SimTime {
        // Picoseconds per byte = 1e12 / bps; computed in u128 to avoid overflow.
        let ps = (bytes as u128 * 1_000_000_000_000u128) / self.0 as u128;
        SimTime::from_picos(ps as u64)
    }

    /// Scale by a dimensionless factor (e.g. protocol efficiency).
    pub fn scale(self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor > 0.0, "scale factor must be positive");
        Bandwidth::from_bytes_per_sec(((self.0 as f64) * factor).round().max(1.0) as u64)
    }
}

impl std::fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} GB/s", self.gbytes_per_sec())
    }
}

/// PCIe generation: determines per-lane throughput.
///
/// Rates are the usable data rates the paper works with (Gen3 x16 = 16 GB/s),
/// i.e. ~1 GB/s per Gen3 lane after encoding overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Generation {
    /// PCIe 3.x — 1 GB/s per lane usable.
    Gen3,
    /// PCIe 4.x — 2 GB/s per lane usable.
    Gen4,
    /// PCIe 5.x — 4 GB/s per lane usable (for forward-looking sweeps).
    Gen5,
}

impl Generation {
    /// Usable bandwidth per lane.
    pub fn per_lane(self) -> Bandwidth {
        match self {
            Generation::Gen3 => Bandwidth::from_gbytes_per_sec(1.0),
            Generation::Gen4 => Bandwidth::from_gbytes_per_sec(2.0),
            Generation::Gen5 => Bandwidth::from_gbytes_per_sec(4.0),
        }
    }

    /// Bandwidth of a link with `n` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn lanes(self, n: u32) -> Bandwidth {
        assert!(n > 0, "a link needs at least one lane");
        Bandwidth::from_bytes_per_sec(self.per_lane().bytes_per_sec() * n as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_rates() {
        assert_eq!(Bandwidth::gen3_x16().gbytes_per_sec(), 16.0);
        assert_eq!(Generation::Gen4.lanes(16).gbytes_per_sec(), 32.0);
        assert_eq!(Generation::Gen5.lanes(16).gbytes_per_sec(), 64.0);
        assert_eq!(Bandwidth::gen3_x4().gbytes_per_sec(), 4.0);
    }

    #[test]
    fn paper_link_ratios() {
        // §IV-D: Ethernet is comparable to PCIe (12.5 vs 16 GB/s).
        assert!(Bandwidth::ethernet_100g().gbytes_per_sec() < Bandwidth::gen3_x16().gbytes_per_sec());
        assert!(Bandwidth::ethernet_100g().gbytes_per_sec() > 0.7 * Bandwidth::gen3_x16().gbytes_per_sec());
    }

    #[test]
    fn transfer_time_exact() {
        let bw = Bandwidth::from_gbytes_per_sec(1.0);
        assert_eq!(bw.transfer_time(1_000_000_000), SimTime::from_secs(1));
        assert_eq!(bw.transfer_time(0), SimTime::ZERO);
        assert_eq!(bw.transfer_time(1), SimTime::from_nanos(1));
    }

    #[test]
    fn transfer_time_no_overflow_on_huge_transfers() {
        let bw = Bandwidth::from_gbytes_per_sec(16.0);
        // 1 PB transfer should not overflow intermediate math.
        let t = bw.transfer_time(1_000_000_000_000_000);
        assert!((t.as_secs_f64() - 62500.0).abs() < 1.0);
    }

    #[test]
    fn scale_rounds_and_stays_positive() {
        let bw = Bandwidth::from_bytes_per_sec(10);
        assert_eq!(bw.scale(0.05).bytes_per_sec(), 1);
        assert_eq!(bw.scale(2.0).bytes_per_sec(), 20);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        Bandwidth::from_bytes_per_sec(0);
    }

    #[test]
    fn display_format() {
        assert_eq!(Bandwidth::gen3_x16().to_string(), "16.00 GB/s");
    }
}
