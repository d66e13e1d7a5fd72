//! Server configurations and the analytic bottleneck throughput model.
//!
//! A training server's steady-state throughput under next-batch prefetching
//! is the minimum of the accelerator side (model computation + ring
//! synchronization) and the data-preparation side (whichever host or device
//! resource binds first) — §I: "the longest step ... becomes the performance
//! bottleneck". This module evaluates that minimum for every design the
//! paper compares (Figures 8, 19, 20, 21).

use crate::calib::{batch_efficiency, DGX2, ETHERNET_BYTES_PER_SEC, SSD_READ_BYTES_PER_SEC};
use crate::host::{baseline_ssd_count, Datapath, PerSampleUsage};
use crate::profile::PrepProfile;
use serde::{Deserialize, Serialize};
use trainbox_collective::{AllToAllModel, PsModel, RingModel, SyncModel};
use trainbox_nn::{SyncPattern, Workload};
use trainbox_pcie::boxes::{
    PrepPoolNet, ServerBuilder, ServerTopology, ACCS_PER_TRAIN_BOX, PREPS_PER_TRAIN_BOX,
};
use trainbox_pcie::Generation;

/// The server designs evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServerKind {
    /// Fig 7 / Fig 12: CPU data preparation, chained acc + SSD boxes.
    Baseline,
    /// Fig 13 ("B+Acc"): FPGA prep boxes, host-staged transfers.
    AccFpga,
    /// Fig 21's GPU arm: GPU prep boxes, host-staged transfers.
    AccGpu,
    /// Fig 14 ("B+Acc+P2P"): FPGA prep boxes with peer-to-peer transfers.
    AccFpgaP2p,
    /// "B+Acc+P2P+Gen4": the P2P design on PCIe Gen4 links.
    AccFpgaP2pGen4,
    /// Fig 15 without the Ethernet prep-pool.
    TrainBoxNoPool,
    /// Fig 15/18: clustered train boxes plus the prep-pool.
    TrainBox,
}

impl ServerKind {
    /// The five-step Fig 19 comparison, in order.
    pub fn figure19_order() -> [ServerKind; 5] {
        [
            ServerKind::Baseline,
            ServerKind::AccFpga,
            ServerKind::AccFpgaP2p,
            ServerKind::AccFpgaP2pGen4,
            ServerKind::TrainBox,
        ]
    }

    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            ServerKind::Baseline => "Baseline (B)",
            ServerKind::AccFpga => "B+Acc",
            ServerKind::AccGpu => "B+Acc (GPU)",
            ServerKind::AccFpgaP2p => "B+Acc+P2P",
            ServerKind::AccFpgaP2pGen4 => "B+Acc+P2P+Gen4",
            ServerKind::TrainBoxNoPool => "TrainBox w/o prep-pool",
            ServerKind::TrainBox => "TrainBox",
        }
    }

    /// The host datapath this design uses (for resource accounting).
    pub fn datapath(self) -> Datapath {
        match self {
            ServerKind::Baseline => Datapath::HostCpu,
            ServerKind::AccFpga | ServerKind::AccGpu => Datapath::HostStagedAccel,
            ServerKind::AccFpgaP2p | ServerKind::AccFpgaP2pGen4 => Datapath::P2pAccel,
            ServerKind::TrainBoxNoPool | ServerKind::TrainBox => Datapath::Clustered,
        }
    }

    /// Samples/s one of this design's prep accelerators sustains: a GPU's on
    /// the GPU arm, an FPGA's everywhere else.
    pub(crate) fn prep_accel_rate(self, profile: &PrepProfile) -> f64 {
        match self {
            ServerKind::AccGpu => profile.gpu_samples_per_sec,
            _ => profile.fpga_samples_per_sec,
        }
    }

    fn pcie_generation(self) -> Generation {
        match self {
            ServerKind::AccFpgaP2pGen4 => Generation::Gen4,
            _ => Generation::Gen3,
        }
    }
}

/// Why a [`ServerConfig`] cannot be built into a [`Server`].
///
/// Each variant names the offending request field (dotted path into the
/// canonical [`crate::request::SimRequest`] JSON form) via
/// [`ConfigError::field`], so API layers can return field-level messages.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ConfigError {
    /// `n_accels` was zero — a server needs at least one accelerator.
    NoAccelerators,
    /// An explicit batch-size override of zero.
    ZeroBatch,
    /// A prep-pool was requested on a design that has no Ethernet prep
    /// network (only [`ServerKind::TrainBox`] attaches one; on every other
    /// kind the pool would silently distort the analytic model while the
    /// simulated datapath ignores it).
    PoolWithoutPrepNet {
        /// The kind that cannot host a pool.
        kind: ServerKind,
        /// The pool size that was requested.
        pool_fpgas: usize,
    },
    /// The synchronization-fabric override is unphysical (non-finite or
    /// non-positive bandwidth / negative hop latency / zero chunk).
    BadRing {
        /// Which `RingModel` field is out of range.
        field: &'static str,
    },
}

impl ConfigError {
    /// Dotted path of the offending field in the canonical request form.
    pub fn field(&self) -> &'static str {
        match self {
            ConfigError::NoAccelerators => "server.n_accels",
            ConfigError::ZeroBatch => "server.batch_size",
            ConfigError::PoolWithoutPrepNet { .. } => "server.pool_fpgas",
            ConfigError::BadRing { field } => match *field {
                "link_bytes_per_sec" => "server.ring.link_bytes_per_sec",
                "hop_latency_secs" => "server.ring.hop_latency_secs",
                _ => "server.ring.chunk_bytes",
            },
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoAccelerators => {
                write!(f, "a server needs at least one accelerator")
            }
            ConfigError::ZeroBatch => write!(f, "batch size must be positive"),
            ConfigError::PoolWithoutPrepNet { kind, pool_fpgas } => write!(
                f,
                "{pool_fpgas} prep-pool FPGAs requested, but {} has no Ethernet prep network",
                kind.label()
            ),
            ConfigError::BadRing { field } => {
                write!(f, "ring model field `{field}` is out of range")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for a [`Server`].
///
/// # Example
///
/// ```
/// use trainbox_core::arch::{ServerConfig, ServerKind};
///
/// let server = ServerConfig::new(ServerKind::TrainBox, 64)
///     .pool_fpgas(32)
///     .build();
/// assert_eq!(server.n_accels(), 64);
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    kind: ServerKind,
    n_accels: usize,
    batch_override: Option<u64>,
    pool_fpgas: Option<usize>,
    ring: RingModel,
}

impl ServerConfig {
    /// A server of `kind` with `n_accels` neural-network accelerators.
    ///
    /// Construction never fails; validation happens in [`Self::try_build`]
    /// (or panics in [`Self::build`]), so an invalid count can surface as a
    /// typed [`ConfigError`] instead of a panic mid-request.
    pub fn new(kind: ServerKind, n_accels: usize) -> Self {
        ServerConfig {
            kind,
            n_accels,
            batch_override: None,
            pool_fpgas: None,
            ring: RingModel::nvlink_default(),
        }
    }

    /// Override the per-accelerator batch size (defaults to each workload's
    /// Table-I batch). Used for the Fig 20 sweep.
    pub fn batch_size(mut self, batch: u64) -> Self {
        self.batch_override = Some(batch);
        self
    }

    /// Number of prep-pool FPGAs available (defaults: 256 for
    /// [`ServerKind::TrainBox`], 0 otherwise).
    pub fn pool_fpgas(mut self, pool: usize) -> Self {
        self.pool_fpgas = Some(pool);
        self
    }

    /// Override the synchronization fabric model.
    pub fn ring_model(mut self, ring: RingModel) -> Self {
        self.ring = ring;
        self
    }

    /// The design kind this configuration builds.
    pub fn kind(&self) -> ServerKind {
        self.kind
    }

    /// The requested accelerator count.
    pub fn n_accels(&self) -> usize {
        self.n_accels
    }

    /// The explicit batch-size override, if one was set.
    pub fn batch_override(&self) -> Option<u64> {
        self.batch_override
    }

    /// The explicit prep-pool size override, if one was set.
    pub fn pool_override(&self) -> Option<usize> {
        self.pool_fpgas
    }

    /// The synchronization fabric model in effect.
    pub fn ring(&self) -> &RingModel {
        &self.ring
    }

    /// Validate the configuration. `Ok(())` iff [`Self::try_build`] would
    /// succeed.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.n_accels == 0 {
            return Err(ConfigError::NoAccelerators);
        }
        if self.batch_override == Some(0) {
            return Err(ConfigError::ZeroBatch);
        }
        if let Some(pool) = self.pool_fpgas {
            if pool > 0 && self.kind != ServerKind::TrainBox {
                return Err(ConfigError::PoolWithoutPrepNet { kind: self.kind, pool_fpgas: pool });
            }
        }
        let r = &self.ring;
        if !(r.link_bytes_per_sec.is_finite() && r.link_bytes_per_sec > 0.0) {
            return Err(ConfigError::BadRing { field: "link_bytes_per_sec" });
        }
        if !(r.hop_latency_secs.is_finite() && r.hop_latency_secs >= 0.0) {
            return Err(ConfigError::BadRing { field: "hop_latency_secs" });
        }
        if r.chunk_bytes == 0 {
            return Err(ConfigError::BadRing { field: "chunk_bytes" });
        }
        Ok(())
    }

    /// Build the server, materializing its PCIe topology, after checking
    /// that the configuration is self-consistent.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] when the configuration cannot describe a real server:
    /// zero accelerators, a zero batch override, a prep-pool on a design
    /// without an Ethernet prep network, or an unphysical ring model.
    pub fn try_build(self) -> Result<Server, ConfigError> {
        self.validate()?;
        let gen = self.kind.pcie_generation();
        let builder = ServerBuilder::new(gen);
        let n = self.n_accels;
        let n_ssd = baseline_ssd_count(n);
        let n_prep = n.div_ceil(4);
        let (topology, prep_pool) = match self.kind {
            ServerKind::Baseline => (builder.baseline(n, n_ssd), None),
            ServerKind::AccFpga | ServerKind::AccFpgaP2p | ServerKind::AccFpgaP2pGen4 => {
                (builder.with_prep_boxes(n, n_ssd, n_prep, false), None)
            }
            ServerKind::AccGpu => (builder.with_prep_boxes(n, n_ssd, n_prep, true), None),
            ServerKind::TrainBoxNoPool | ServerKind::TrainBox => {
                let boxes = n.div_ceil(ACCS_PER_TRAIN_BOX);
                let topo = builder.train_boxes(boxes);
                let pool = self.effective_pool();
                let net = PrepPoolNet::new(boxes * PREPS_PER_TRAIN_BOX, pool);
                (topo, Some(net))
            }
        };
        Ok(Server { config: self, topology, prep_pool })
    }

    /// Build the server, materializing its PCIe topology.
    ///
    /// # Panics
    ///
    /// Panics where [`Self::try_build`] reports a [`ConfigError`].
    pub fn build(self) -> Server {
        match self.try_build() {
            Ok(server) => server,
            Err(e) => panic!("invalid server configuration: {e}"),
        }
    }

    fn effective_pool(&self) -> usize {
        self.pool_fpgas.unwrap_or(match self.kind {
            ServerKind::TrainBox => 256,
            _ => 0,
        })
    }
}

/// Which resource limits throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Bottleneck {
    /// The accelerators themselves (the target — preparation keeps up).
    Accelerators,
    /// Host CPU cores doing preparation (or driver work).
    HostCpu,
    /// Host memory bandwidth.
    HostMemory,
    /// PCIe bandwidth at the root complex.
    RcPcie,
    /// Data-preparation accelerator compute (FPGA/GPU), including any
    /// prep-pool assist.
    PrepAccel,
    /// SSD read bandwidth.
    Ssd,
}

impl Bottleneck {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Bottleneck::Accelerators => "accelerators",
            Bottleneck::HostCpu => "host CPU",
            Bottleneck::HostMemory => "host memory BW",
            Bottleneck::RcPcie => "PCIe at root complex",
            Bottleneck::PrepAccel => "prep accelerators",
            Bottleneck::Ssd => "SSD read BW",
        }
    }
}

/// The analytic throughput result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Throughput {
    /// Steady-state training throughput, samples/s.
    pub samples_per_sec: f64,
    /// The binding resource.
    pub bottleneck: Bottleneck,
    /// Every candidate ceiling that was considered, samples/s.
    pub ceilings: Vec<(Bottleneck, f64)>,
}

/// A built server: configuration plus materialized interconnect.
#[derive(Debug, Clone)]
pub struct Server {
    config: ServerConfig,
    topology: ServerTopology,
    prep_pool: Option<PrepPoolNet>,
}

impl Server {
    /// The design kind.
    pub fn kind(&self) -> ServerKind {
        self.config.kind
    }

    /// Number of NN accelerators.
    pub fn n_accels(&self) -> usize {
        self.config.n_accels
    }

    /// The PCIe topology (for DES simulation and inspection).
    pub fn topology(&self) -> &ServerTopology {
        &self.topology
    }

    /// The Ethernet prep network, when this design has one.
    pub fn prep_pool(&self) -> Option<&PrepPoolNet> {
        self.prep_pool.as_ref()
    }

    /// The synchronization model in use.
    pub fn ring_model(&self) -> &RingModel {
        &self.config.ring
    }

    /// The synchronization model `workload` declares, realized on this
    /// server's fabric: the configured ring for
    /// [`SyncPattern::RingAllReduce`] (bit-identical to the pre-DSL path),
    /// or a parameter-server / all-to-all latency model sharing the ring's
    /// link bandwidth and hop latency.
    pub fn sync_model(&self, workload: &Workload) -> SyncModel {
        let ring = &self.config.ring;
        match workload.sync {
            SyncPattern::RingAllReduce => SyncModel::Ring(*ring),
            SyncPattern::ParameterServer => {
                SyncModel::Ps(PsModel::on_fabric(ring, PsModel::DEFAULT_SHARDS))
            }
            SyncPattern::AllToAll => SyncModel::AllToAll(AllToAllModel::on_fabric(ring)),
        }
    }

    /// Effective batch size for `workload`.
    pub fn batch_for(&self, workload: &Workload) -> u64 {
        self.config.batch_override.unwrap_or(workload.batch_size)
    }

    /// Accelerator-side throughput: `n` accelerators computing batches and
    /// ring-synchronizing between them (samples/s). This is the *target*
    /// data preparation must match.
    pub fn accelerator_side(&self, workload: &Workload) -> f64 {
        let n = self.config.n_accels;
        let batch = self.batch_for(workload);
        let eff = batch_efficiency(batch, workload.batch_size);
        let per_acc = workload.accel_samples_per_sec * eff;
        let t_comp = batch as f64 / per_acc;
        let t_sync = self.sync_model(workload).sync_secs(workload.model_bytes(), n);
        n as f64 * batch as f64 / (t_comp + t_sync)
    }

    /// Number of data-preparation accelerators on the PCIe tree (0 for the
    /// baseline; GPU or FPGA count otherwise).
    pub fn n_prep_accels(&self) -> usize {
        self.topology.preps.len()
    }

    /// The preparation-side ceilings for `workload`, in samples/s.
    fn prep_ceilings(&self, workload: &Workload) -> Vec<(Bottleneck, f64)> {
        let profile = PrepProfile::of(workload);
        let sizes = profile.sizes;
        let usage = PerSampleUsage::of_profile(self.kind().datapath(), &profile);
        let n = self.config.n_accels;
        let mut ceilings = Vec::new();

        // Host resources bind through the per-sample usage of the datapath.
        let cpu_per_sample = usage.cpu_secs.total();
        if cpu_per_sample > 0.0 {
            ceilings.push((Bottleneck::HostCpu, DGX2.cpu_cores / cpu_per_sample));
        }
        let mem_per_sample = usage.mem_bytes.total();
        if mem_per_sample > 0.0 {
            ceilings.push((Bottleneck::HostMemory, DGX2.mem_bytes_per_sec / mem_per_sample));
        }
        let gen_scale = match self.kind().pcie_generation() {
            Generation::Gen3 => 1.0,
            Generation::Gen4 => 2.0,
            Generation::Gen5 => 4.0,
        };
        let pcie_per_sample = usage.rc_pcie_bytes.total();
        if pcie_per_sample > 0.0 {
            ceilings.push((
                Bottleneck::RcPcie,
                gen_scale * DGX2.rc_pcie_bytes_per_sec / pcie_per_sample,
            ));
        }

        match self.kind().datapath() {
            // The baseline prepares on the host CPUs, bound above.
            Datapath::HostCpu => {}
            Datapath::HostStagedAccel | Datapath::P2pAccel => {
                let per = self.kind().prep_accel_rate(&profile);
                ceilings.push((Bottleneck::PrepAccel, self.n_prep_accels() as f64 * per));
            }
            Datapath::Clustered => {
                let boxes = n.div_ceil(ACCS_PER_TRAIN_BOX) as f64;
                let f = profile.fpga_samples_per_sec;
                let in_box = PREPS_PER_TRAIN_BOX as f64 * f;
                // Offload capacity: each in-box FPGA can ship raw input to
                // the pool and receive prepared tensors back over its
                // 100 GbE link, bounded by the pool compute available to
                // this box.
                let eth_cap = PREPS_PER_TRAIN_BOX as f64 * ETHERNET_BYTES_PER_SEC
                    / profile.ethernet_bytes_per_offloaded_sample();
                let pool = self.config.effective_pool() as f64 * f / boxes;
                let boost = eth_cap.min(pool);
                let prep_rate = boxes * (in_box + boost);
                ceilings.push((Bottleneck::PrepAccel, prep_rate));
            }
        }
        // Every design reads from its SSDs; in train boxes they feed both
        // local and offloaded samples.
        let ssd_rate = self.topology.ssds.len() as f64 * SSD_READ_BYTES_PER_SEC / sizes.stored;
        ceilings.push((Bottleneck::Ssd, ssd_rate));
        ceilings
    }

    /// Steady-state training throughput for `workload` with next-batch
    /// prefetching: the minimum of the accelerator side and every
    /// preparation-side ceiling.
    pub fn throughput(&self, workload: &Workload) -> Throughput {
        // Tenanted workloads evaluate as their blended flat aggregate (the
        // prep side blends through `PrepProfile::of` either way).
        let workload = &crate::profile::effective_workload(workload);
        let mut ceilings = self.prep_ceilings(workload);
        ceilings.push((Bottleneck::Accelerators, self.accelerator_side(workload)));
        let (bottleneck, samples_per_sec) = ceilings
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("ceilings are finite"))
            .expect("at least the accelerator ceiling exists");
        Throughput { samples_per_sec, bottleneck, ceilings }
    }

    /// Throughput relative to a reference server on the same workload.
    pub fn speedup_over(&self, reference: &Server, workload: &Workload) -> f64 {
        self.throughput(workload).samples_per_sec / reference.throughput(workload).samples_per_sec
    }
}

/// Evaluate the throughput of `kind` at `n` accelerators for `workload` —
/// shorthand used by the figure binaries.
///
/// Routed through the canonical [`crate::request::SimRequest`] entry point,
/// so every analytic figure exercises exactly the code path the
/// `trainbox-serve` service answers queries with.
pub fn throughput_of(kind: ServerKind, n: usize, workload: &Workload) -> Throughput {
    let req = crate::request::SimRequest::analytic(kind, n, workload.clone());
    match req.run().map(|resp| resp.outcome) {
        Ok(crate::request::SimOutcome::Analytic(t)) => t,
        Ok(_) => unreachable!("analytic request produced a non-analytic outcome"),
        Err(e) => panic!("invalid server configuration: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trainbox_nn::InputKind;

    fn tp(kind: ServerKind, n: usize, w: &Workload) -> f64 {
        throughput_of(kind, n, w).samples_per_sec
    }

    #[test]
    fn baseline_is_cpu_bound_at_scale() {
        let w = Workload::resnet50();
        let t = throughput_of(ServerKind::Baseline, 256, &w);
        assert_eq!(t.bottleneck, Bottleneck::HostCpu);
        // 48 cores / 1.5705 ms = ~30.6k samples/s.
        assert!((t.samples_per_sec - 30_563.0).abs() < 200.0, "{}", t.samples_per_sec);
    }

    #[test]
    fn baseline_small_scale_is_accelerator_bound() {
        let w = Workload::inception_v4();
        let t = throughput_of(ServerKind::Baseline, 4, &w);
        assert_eq!(t.bottleneck, Bottleneck::Accelerators);
    }

    #[test]
    fn baseline_saturation_points_match_fig21() {
        // Inception-v4 saturates around 18.3 accelerators, TF-SR around 4.4.
        let inc = Workload::inception_v4();
        let sat = tp(ServerKind::Baseline, 256, &inc) / inc.accel_samples_per_sec;
        assert!((sat - 18.3).abs() < 0.5, "sat={sat}");
        let sr = Workload::transformer_sr();
        let sat = tp(ServerKind::Baseline, 256, &sr) / sr.accel_samples_per_sec;
        assert!((sat - 4.4).abs() < 0.2, "sat={sat}");
    }

    #[test]
    fn acc_alone_is_pcie_bound() {
        let w = Workload::resnet50();
        let t = throughput_of(ServerKind::AccFpga, 256, &w);
        assert_eq!(t.bottleneck, Bottleneck::RcPcie);
        // Acceleration still beats the baseline (~3x, §VI-C).
        let gain = t.samples_per_sec / tp(ServerKind::Baseline, 256, &w);
        assert!((2.0..5.0).contains(&gain), "gain={gain}");
    }

    #[test]
    fn p2p_alone_does_not_help() {
        // §VI-C: "the P2P communication does not increase the system
        // throughput since the acceleration increases the PCIe overhead".
        let w = Workload::resnet50();
        let acc = tp(ServerKind::AccFpga, 256, &w);
        let p2p = tp(ServerKind::AccFpgaP2p, 256, &w);
        assert!((p2p / acc - 1.0).abs() < 0.01, "p2p={p2p} acc={acc}");
    }

    #[test]
    fn gen4_doubles_the_p2p_design() {
        let w = Workload::resnet50();
        let p2p = tp(ServerKind::AccFpgaP2p, 256, &w);
        let gen4 = tp(ServerKind::AccFpgaP2pGen4, 256, &w);
        assert!((gen4 / p2p - 2.0).abs() < 0.05, "ratio={}", gen4 / p2p);
    }

    #[test]
    fn trainbox_beats_gen4_without_faster_links() {
        // §VI-C: "TrainBox without Gen4 shows even higher improvement,
        // indicating that the bottleneck stems from the inefficient datapath".
        let w = Workload::resnet50();
        assert!(tp(ServerKind::TrainBox, 256, &w) > tp(ServerKind::AccFpgaP2pGen4, 256, &w));
    }

    #[test]
    fn trainbox_reaches_target_for_inception_without_pool() {
        // §VI-D / Fig 21a.
        let w = Workload::inception_v4();
        let t = throughput_of(ServerKind::TrainBoxNoPool, 256, &w);
        assert_eq!(t.bottleneck, Bottleneck::Accelerators);
        let normalized = t.samples_per_sec / w.accel_samples_per_sec;
        assert!(normalized > 250.0, "normalized={normalized}");
    }

    #[test]
    fn tf_sr_needs_the_pool() {
        // §VI-D / Fig 21b: without the pool TF-SR falls short; with it the
        // target is reached using ~54% extra FPGA resources.
        let w = Workload::transformer_sr();
        let without = throughput_of(ServerKind::TrainBoxNoPool, 256, &w);
        assert_eq!(without.bottleneck, Bottleneck::PrepAccel);
        let with = throughput_of(ServerKind::TrainBox, 256, &w);
        assert_eq!(with.bottleneck, Bottleneck::Accelerators);
        assert!(with.samples_per_sec / without.samples_per_sec > 1.3);
    }

    #[test]
    fn trainbox_average_speedup_in_paper_regime() {
        // §VI-C: 44.4x average, 84.3x maximum (TF-AA). Our calibration lands
        // in the same regime; the maximum workload must be TF-AA.
        let mut speedups = Vec::new();
        for w in Workload::all() {
            let s = tp(ServerKind::TrainBox, 256, &w) / tp(ServerKind::Baseline, 256, &w);
            speedups.push((w.name, s));
        }
        let mean = speedups.iter().map(|(_, s)| s).sum::<f64>() / speedups.len() as f64;
        assert!((35.0..65.0).contains(&mean), "mean={mean} ({speedups:?})");
        let max = speedups
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(max.0, "TF-AA", "max should be TF-AA: {speedups:?}");
        assert!((max.1 - 84.0).abs() < 3.0, "max={}", max.1);
    }

    #[test]
    fn gpu_prep_loses_at_small_scale_wins_later() {
        // Fig 21a: GPU-based prep is below the CPU baseline at small scale
        // (1:4 device ratio starves it), above it at larger scale.
        let w = Workload::inception_v4();
        assert!(tp(ServerKind::AccGpu, 16, &w) < tp(ServerKind::Baseline, 16, &w));
        assert!(tp(ServerKind::AccGpu, 128, &w) > tp(ServerKind::Baseline, 128, &w));
        // And FPGA prep dominates GPU prep at small scale (Fig 21).
        assert!(tp(ServerKind::AccFpga, 16, &w) >= tp(ServerKind::AccGpu, 16, &w));
    }

    #[test]
    fn bigger_batches_widen_trainbox_advantage() {
        // Fig 20's shape.
        let w = Workload::resnet50();
        let speedup = |batch: u64| {
            let tb = ServerConfig::new(ServerKind::TrainBox, 256)
                .batch_size(batch)
                .build();
            let base = ServerConfig::new(ServerKind::Baseline, 256)
                .batch_size(batch)
                .build();
            tb.speedup_over(&base, &w)
        };
        let s8 = speedup(8);
        let s512 = speedup(512);
        let s8192 = speedup(8192);
        assert!(s8 < s512 && s512 < s8192, "{s8} {s512} {s8192}");
        assert!(s8192 > 30.0);
    }

    #[test]
    fn throughput_reports_all_ceilings() {
        let w = Workload::vgg19();
        let t = throughput_of(ServerKind::TrainBox, 64, &w);
        assert!(t.ceilings.len() >= 4);
        assert!(t
            .ceilings
            .iter()
            .any(|(b, _)| *b == Bottleneck::Accelerators));
        // The reported throughput is the minimum ceiling.
        let min = t
            .ceilings
            .iter()
            .map(|&(_, v)| v)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(t.samples_per_sec, min);
    }

    #[test]
    fn topology_matches_design() {
        let s = ServerConfig::new(ServerKind::TrainBox, 64).build();
        assert_eq!(s.topology().accs.len(), 64);
        assert_eq!(s.topology().preps.len(), 16);
        assert!(s.prep_pool().is_some());
        let b = ServerConfig::new(ServerKind::Baseline, 64).build();
        assert!(b.prep_pool().is_none());
        assert!(b.topology().preps.is_empty());
        assert_eq!(b.kind(), ServerKind::Baseline);
        assert_eq!(b.n_accels(), 64);
    }

    #[test]
    fn audio_fpga_count_and_pool_interplay() {
        // TF-AA needs even more pool than TF-SR; with a large pool it reaches
        // target, with zero pool it is prep-bound.
        let w = Workload::transformer_aa();
        let with = ServerConfig::new(ServerKind::TrainBox, 256)
            .pool_fpgas(256)
            .build();
        assert_eq!(with.throughput(&w).bottleneck, Bottleneck::Accelerators);
        let starved = ServerConfig::new(ServerKind::TrainBox, 256)
            .pool_fpgas(4)
            .build();
        assert_eq!(starved.throughput(&w).bottleneck, Bottleneck::PrepAccel);
        let _ = InputKind::Audio;
    }

    #[test]
    fn try_build_rejects_zero_accelerators() {
        let err = ServerConfig::new(ServerKind::Baseline, 0).try_build().unwrap_err();
        assert_eq!(err, ConfigError::NoAccelerators);
        assert_eq!(err.field(), "server.n_accels");
    }

    #[test]
    fn try_build_rejects_zero_batch() {
        let err = ServerConfig::new(ServerKind::TrainBox, 16)
            .batch_size(0)
            .try_build()
            .unwrap_err();
        assert_eq!(err, ConfigError::ZeroBatch);
        assert_eq!(err.field(), "server.batch_size");
    }

    #[test]
    fn try_build_rejects_pool_without_prep_net() {
        // A pool on TrainBoxNoPool would feed the analytic model while the
        // simulated datapath has no Ethernet fabric to carry it.
        for kind in [
            ServerKind::Baseline,
            ServerKind::AccFpga,
            ServerKind::AccGpu,
            ServerKind::AccFpgaP2p,
            ServerKind::AccFpgaP2pGen4,
            ServerKind::TrainBoxNoPool,
        ] {
            let err = ServerConfig::new(kind, 16).pool_fpgas(8).try_build().unwrap_err();
            assert_eq!(err, ConfigError::PoolWithoutPrepNet { kind, pool_fpgas: 8 });
            assert_eq!(err.field(), "server.pool_fpgas");
        }
        // An explicitly *empty* pool is fine anywhere — it changes nothing.
        assert!(ServerConfig::new(ServerKind::TrainBoxNoPool, 16)
            .pool_fpgas(0)
            .try_build()
            .is_ok());
    }

    #[test]
    fn try_build_rejects_unphysical_ring() {
        let mut ring = RingModel::nvlink_default();
        ring.link_bytes_per_sec = 0.0;
        let err = ServerConfig::new(ServerKind::TrainBox, 16)
            .ring_model(ring)
            .try_build()
            .unwrap_err();
        assert_eq!(err.field(), "server.ring.link_bytes_per_sec");

        let mut ring = RingModel::nvlink_default();
        ring.hop_latency_secs = f64::NAN;
        let err = ServerConfig::new(ServerKind::TrainBox, 16)
            .ring_model(ring)
            .try_build()
            .unwrap_err();
        assert_eq!(err.field(), "server.ring.hop_latency_secs");

        let mut ring = RingModel::nvlink_default();
        ring.chunk_bytes = 0;
        let err = ServerConfig::new(ServerKind::TrainBox, 16)
            .ring_model(ring)
            .try_build()
            .unwrap_err();
        assert_eq!(err.field(), "server.ring.chunk_bytes");
    }

    #[test]
    #[should_panic(expected = "at least one accelerator")]
    fn build_panics_on_invalid_config() {
        let _ = ServerConfig::new(ServerKind::Baseline, 0).build();
    }

    #[test]
    fn config_accessors_reflect_builder_calls() {
        let cfg = ServerConfig::new(ServerKind::TrainBox, 64).batch_size(512).pool_fpgas(32);
        assert_eq!(cfg.kind(), ServerKind::TrainBox);
        assert_eq!(cfg.n_accels(), 64);
        assert_eq!(cfg.batch_override(), Some(512));
        assert_eq!(cfg.pool_override(), Some(32));
        assert!(cfg.ring().link_bytes_per_sec > 0.0);
        assert!(cfg.validate().is_ok());
    }
}
