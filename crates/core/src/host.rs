//! Host-resource accounting: per-sample usage by datapath and the
//! required-resource curves of Figure 10.
//!
//! §III-C profiles three host resources — CPU cores, memory bandwidth, and
//! PCIe bandwidth at the root complex — and decomposes each by operation
//! class (Fig 11). §VI-E then shows how each TrainBox optimization removes a
//! slice (Fig 22). This module computes all of those numbers.

use crate::calib::{cpu_driver_secs_per_sample, DGX2};
use crate::profile::{lower_legacy, PrepProfile};
use serde::{Deserialize, Serialize};
use trainbox_nn::{InputKind, Workload};

/// Which datapath the server uses for preparation — the property that
/// determines host-resource usage (maps 1:1 onto the Fig 22 x-axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Datapath {
    /// Baseline: CPUs prepare data, host memory buffers everything.
    HostCpu,
    /// Step 1: prep accelerators, but transfers staged through host memory.
    HostStagedAccel,
    /// Step 2: prep accelerators with P2P transfers (no host memory), but
    /// traffic still crosses the root complex between boxes.
    P2pAccel,
    /// Step 3: clustered train boxes — preparation traffic never reaches
    /// the host.
    Clustered,
}

/// An endpoint of a datapath transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Site {
    /// The SSD the chunk is read from.
    Ssd,
    /// Host memory, behind the root complex.
    Host,
    /// The device that prepares the chunk.
    Prep,
    /// The accelerator that trains on the chunk.
    Accel,
}

/// One transfer of a chunk, `(from, to)`.
pub(crate) type Leg = (Site, Site);

impl Datapath {
    /// The transfers a chunk takes on this datapath, before and after its
    /// preparation (§IV, Figs 13–15). Pre-legs carry the stored sample,
    /// post-legs the prepared tensor.
    pub(crate) fn legs(self) -> (&'static [Leg], &'static [Leg]) {
        use Site::*;
        match self {
            Datapath::HostCpu => (&[(Ssd, Host)], &[(Host, Accel)]),
            Datapath::HostStagedAccel => {
                (&[(Ssd, Host), (Host, Prep)], &[(Prep, Host), (Host, Accel)])
            }
            Datapath::P2pAccel | Datapath::Clustered => (&[(Ssd, Prep)], &[(Prep, Accel)]),
        }
    }
}

/// Per-sample usage of one host resource, by operation class (the legend of
/// Figures 11 and 22: SSD read / formatting / augmentation / data load /
/// data copy / others).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Breakdown {
    /// NVMe reads and their buffering/driver work.
    pub ssd_read: f64,
    /// Data formatting.
    pub formatting: f64,
    /// Data augmentation.
    pub augmentation: f64,
    /// Staging the prepared tensor into the accelerator.
    pub data_load: f64,
    /// Host-mediated staging to/from prep accelerators.
    pub data_copy: f64,
    /// Bookkeeping and everything else.
    pub others: f64,
}

impl Breakdown {
    /// Sum over classes.
    pub fn total(&self) -> f64 {
        self.ssd_read + self.formatting + self.augmentation + self.data_load + self.data_copy + self.others
    }

    /// The six `(label, value)` pairs in figure-legend order.
    pub fn classes(&self) -> [(&'static str, f64); 6] {
        [
            ("SSD read", self.ssd_read),
            ("Data formatting", self.formatting),
            ("Data augmentation", self.augmentation),
            ("Data load", self.data_load),
            ("Data copy", self.data_copy),
            ("Others", self.others),
        ]
    }
}

/// Per-sample host-resource usage: CPU core-seconds, host-memory bytes, and
/// root-complex PCIe bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerSampleUsage {
    /// CPU core-seconds by class.
    pub cpu_secs: Breakdown,
    /// Host DRAM bytes moved by class.
    pub mem_bytes: Breakdown,
    /// Bytes crossing the root complex by class (both directions summed).
    pub rc_pcie_bytes: Breakdown,
}

impl PerSampleUsage {
    /// Usage of one sample of `input` under `path` — the modality-keyed
    /// entry point, profiling the [`lower_legacy`] graph of the input's
    /// calibration exactly as a flat workload does.
    pub fn new(path: Datapath, input: InputKind) -> PerSampleUsage {
        PerSampleUsage::of_profile(path, &PrepProfile::of_graph(input, &lower_legacy(input)))
    }

    /// Usage of one sample whose preparation is described by `profile`,
    /// under `path`. All datapath arithmetic lives here; the profile
    /// supplies the per-sample costs and sizes.
    pub fn of_profile(path: Datapath, p: &PrepProfile) -> PerSampleUsage {
        let s = p.sizes;
        match path {
            Datapath::HostCpu => {
                let m = p.mem;
                PerSampleUsage {
                    cpu_secs: p.cpu,
                    mem_bytes: Breakdown {
                        ssd_read: m.ssd_read,
                        formatting: m.formatting,
                        augmentation: m.augmentation,
                        data_load: m.data_load,
                        data_copy: m.data_copy,
                        others: m.others,
                    },
                    rc_pcie_bytes: Breakdown {
                        ssd_read: s.stored,
                        data_load: s.tensor,
                        ..Breakdown::default()
                    },
                }
            }
            Datapath::HostStagedAccel => {
                let c = cpu_driver_secs_per_sample(false);
                PerSampleUsage {
                    cpu_secs: Breakdown {
                        ssd_read: c * 0.4,
                        data_load: c * 0.3,
                        data_copy: c * 0.2,
                        others: c * 0.1,
                        ..Breakdown::default()
                    },
                    // SSD→host (write+read to prep) and prep→host (write) +
                    // host→acc (read): 2×stored + 2×tensor.
                    mem_bytes: Breakdown {
                        ssd_read: s.stored,
                        data_copy: s.stored + s.tensor,
                        data_load: s.tensor,
                        ..Breakdown::default()
                    },
                    // The datapath SSD→RC→prep→RC→acc doubles RC pressure
                    // over the baseline (§IV-D).
                    rc_pcie_bytes: Breakdown {
                        ssd_read: s.stored,
                        data_copy: s.stored + s.tensor,
                        data_load: s.tensor,
                        ..Breakdown::default()
                    },
                }
            }
            Datapath::P2pAccel => {
                let c = cpu_driver_secs_per_sample(true);
                PerSampleUsage {
                    cpu_secs: Breakdown {
                        data_load: c * 0.5,
                        others: c * 0.5,
                        ..Breakdown::default()
                    },
                    // P2P removes host memory from the transfer path
                    // entirely (§IV-C); only bookkeeping remains.
                    mem_bytes: Breakdown { others: 10_000.0, ..Breakdown::default() },
                    // But between chained boxes every byte still crosses
                    // the root complex, so PCIe pressure stays doubled —
                    // which is why P2P alone does not raise throughput
                    // (§VI-C).
                    rc_pcie_bytes: Breakdown {
                        ssd_read: 2.0 * s.stored,
                        data_load: 2.0 * s.tensor,
                        ..Breakdown::default()
                    },
                }
            }
            Datapath::Clustered => PerSampleUsage {
                cpu_secs: Breakdown {
                    others: cpu_driver_secs_per_sample(true) * 0.5,
                    ..Breakdown::default()
                },
                mem_bytes: Breakdown { others: 10_000.0, ..Breakdown::default() },
                // Control messages only: the data never leaves the box.
                rc_pcie_bytes: Breakdown { others: 2_000.0, ..Breakdown::default() },
            },
        }
    }
}

/// Host resources required to *sustain the full target throughput* of `n`
/// accelerators on the baseline datapath, normalized to the DGX-2 reference
/// — the y-axes of Figures 10a–c.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RequiredResources {
    /// CPU cores needed (absolute).
    pub cpu_cores: f64,
    /// Memory bandwidth needed, bytes/s.
    pub mem_bytes_per_sec: f64,
    /// Root-complex PCIe bandwidth needed, bytes/s.
    pub rc_pcie_bytes_per_sec: f64,
}

impl RequiredResources {
    /// Baseline requirement for `workload` at `n` accelerators.
    pub fn baseline(workload: &Workload, n: usize) -> RequiredResources {
        let usage = PerSampleUsage::of_profile(Datapath::HostCpu, &PrepProfile::of(workload));
        let demand = workload.aggregate_demand(n);
        RequiredResources {
            cpu_cores: demand * usage.cpu_secs.total(),
            mem_bytes_per_sec: demand * usage.mem_bytes.total(),
            rc_pcie_bytes_per_sec: demand * usage.rc_pcie_bytes.total(),
        }
    }

    /// Normalized to the DGX-2 reference (cores / 48, mem / 239 GB/s, PCIe /
    /// the reference RC bandwidth).
    pub fn normalized(&self) -> (f64, f64, f64) {
        (
            self.cpu_cores / DGX2.cpu_cores,
            self.mem_bytes_per_sec / DGX2.mem_bytes_per_sec,
            self.rc_pcie_bytes_per_sec / DGX2.rc_pcie_bytes_per_sec,
        )
    }
}

/// The Figure 22 series: per-sample host-resource usage of each datapath,
/// normalized to the baseline, with per-class decomposition. Returns rows of
/// `(datapath, cpu, mem, pcie)` usages.
pub fn figure22_rows(input: InputKind) -> Vec<(Datapath, PerSampleUsage)> {
    [
        Datapath::HostCpu,
        Datapath::HostStagedAccel,
        Datapath::P2pAccel,
        Datapath::Clustered,
    ]
    .into_iter()
    .map(|d| (d, PerSampleUsage::new(d, input)))
    .collect()
}

/// SSD count the baseline provisions for `n` accelerators (an SSD box per
/// two accelerator boxes, at least one box — storage is never the headline
/// bottleneck in the paper's evaluation).
pub fn baseline_ssd_count(n_accels: usize) -> usize {
    (n_accels / 16).max(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::{baseline_mem_bytes_per_sample, cpu_secs_per_sample, SampleSizes};

    #[test]
    fn baseline_breakdowns_match_calibration() {
        for input in [InputKind::Image, InputKind::Audio] {
            let u = PerSampleUsage::new(Datapath::HostCpu, input);
            assert!((u.cpu_secs.total() - cpu_secs_per_sample(input)).abs() < 1e-12);
            assert!(
                (u.mem_bytes.total() - baseline_mem_bytes_per_sample(input).total()).abs() < 1.0
            );
            let s = SampleSizes::for_input(input);
            assert!((u.rc_pcie_bytes.total() - (s.stored + s.tensor)).abs() < 1.0);
        }
    }

    #[test]
    fn staged_accel_doubles_rc_pcie() {
        for input in [InputKind::Image, InputKind::Audio] {
            let base = PerSampleUsage::new(Datapath::HostCpu, input);
            let acc = PerSampleUsage::new(Datapath::HostStagedAccel, input);
            let ratio = acc.rc_pcie_bytes.total() / base.rc_pcie_bytes.total();
            assert!((ratio - 2.0).abs() < 1e-9, "ratio={ratio}");
        }
    }

    #[test]
    fn p2p_removes_memory_but_not_pcie() {
        let staged = PerSampleUsage::new(Datapath::HostStagedAccel, InputKind::Image);
        let p2p = PerSampleUsage::new(Datapath::P2pAccel, InputKind::Image);
        assert!(p2p.mem_bytes.total() < 0.05 * staged.mem_bytes.total());
        assert!((p2p.rc_pcie_bytes.total() - staged.rc_pcie_bytes.total()).abs() < 1.0);
    }

    #[test]
    fn clustering_removes_everything() {
        let base = PerSampleUsage::new(Datapath::HostCpu, InputKind::Image);
        let tb = PerSampleUsage::new(Datapath::Clustered, InputKind::Image);
        assert!(tb.cpu_secs.total() < 0.01 * base.cpu_secs.total());
        assert!(tb.mem_bytes.total() < 0.01 * base.mem_bytes.total());
        assert!(tb.rc_pcie_bytes.total() < 0.01 * base.rc_pcie_bytes.total());
    }

    #[test]
    fn acceleration_slashes_cpu() {
        // Fig 22: computation acceleration removes almost all CPU use.
        let base = PerSampleUsage::new(Datapath::HostCpu, InputKind::Audio);
        let acc = PerSampleUsage::new(Datapath::HostStagedAccel, InputKind::Audio);
        assert!(acc.cpu_secs.total() < 0.01 * base.cpu_secs.total());
        // And P2P reduces CPU further (NVMe driver offloaded, §VI-E).
        let p2p = PerSampleUsage::new(Datapath::P2pAccel, InputKind::Audio);
        assert!(p2p.cpu_secs.total() < acc.cpu_secs.total());
    }

    #[test]
    fn required_resources_scale_linearly_with_n() {
        let w = Workload::resnet50();
        let r64 = RequiredResources::baseline(&w, 64);
        let r256 = RequiredResources::baseline(&w, 256);
        assert!((r256.cpu_cores / r64.cpu_cores - 4.0).abs() < 1e-9);
        assert!((r256.mem_bytes_per_sec / r64.mem_bytes_per_sec - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fig10_normalized_maxima() {
        // The paper's headline: at 256 accelerators, up to ~100.7x cores,
        // ~17.9x memory BW, ~18x PCIe BW over DGX-2.
        let mut cpu_max = 0.0f64;
        let mut mem_max = 0.0f64;
        let mut pcie_max = 0.0f64;
        for w in Workload::all() {
            let (c, m, p) = RequiredResources::baseline(&w, 256).normalized();
            cpu_max = cpu_max.max(c);
            mem_max = mem_max.max(m);
            pcie_max = pcie_max.max(p);
        }
        assert!((cpu_max - 100.7).abs() < 1.0, "cpu={cpu_max}");
        assert!((mem_max - 17.9).abs() < 1.0, "mem={mem_max}");
        assert!((pcie_max - 18.0).abs() < 1.5, "pcie={pcie_max}");
    }

    #[test]
    fn breakdown_classes_cover_total() {
        let u = PerSampleUsage::new(Datapath::HostStagedAccel, InputKind::Image);
        let sum: f64 = u.mem_bytes.classes().iter().map(|(_, v)| v).sum();
        assert!((sum - u.mem_bytes.total()).abs() < 1e-9);
    }

    #[test]
    fn ssd_provisioning() {
        assert_eq!(baseline_ssd_count(16), 8);
        assert_eq!(baseline_ssd_count(256), 16);
    }
}
