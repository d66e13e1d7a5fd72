//! Discrete-event simulation of the full training datapath.
//!
//! The analytic model in [`crate::arch`] is a closed-form bottleneck
//! analysis; this module *simulates* the same server at chunk granularity —
//! SSD reads through queued devices, DMA transfers as fluid flows over the
//! actual PCIe tree (with max-min fair link sharing), preparation on queued
//! CPU/FPGA servers, accelerator compute, and a global ring-synchronization
//! barrier with next-batch prefetching. Contention *emerges* from the
//! topology here instead of being assumed, which is how we cross-validate
//! the analytic model (and how the paper validated its own simulator against
//! a prototype, §VI-A).
//!
//! Granularity: samples move in chunks (default 256 samples) to bound the
//! event count. Each accelerator keeps at most `prefetch_batches × batch`
//! samples buffered or in flight ([`SimConfig::prefetch_batches`], one batch
//! by default): the next-batch prefetching, the overlap discipline of §II-B.
//!
//! This module holds the model and its results; it does not step an engine.
//! The one DES driver, `crate::barrier`, runs every question as logical
//! processes, each a `PipelineModel` in a `BarrierMode`: the whole server
//! (a sequential run), one lane of it, or one server of a cluster.

use crate::arch::Server;
use crate::calib::{SampleSizes, DGX2, SSD_READ_BYTES_PER_SEC};
use crate::faults::{FaultDomain, FaultDowntime, FaultKind, FaultPlan, FaultStats, RetryPolicy};
use crate::host::{Datapath, Leg, Site};
use crate::profile::PrepProfile;
use trainbox_collective::SyncModel;
use trainbox_nn::Workload;
use trainbox_pcie::boxes::{PrepPoolNet, ServerTopology};
use trainbox_pcie::flow::{ClassId, FlowId, FlowNet, FlowSim, FlowSpec};
use trainbox_pcie::{LinkId, NodeId, Topology};
use trainbox_sim::{
    Component, FifoServer, FxHashMap, Model, NoopTracer, Scheduler, SeqTable,
    SimError, SimTime, Tracer,
};

/// Configuration of one DES run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Samples per chunk (event granularity).
    pub chunk_samples: u64,
    /// Batches each accelerator must complete before the run ends.
    pub batches: u64,
    /// Batches to skip at the start when measuring steady-state throughput.
    pub warmup_batches: u64,
    /// Prefetch credit per accelerator, in batches (1 = the paper's
    /// next-batch prefetching).
    pub prefetch_batches: u64,
    /// Safety valve on processed events, per engine: the single engine stops
    /// after this many, and in a partitioned run (cluster servers,
    /// intra-server lanes) each logical process may process this many of
    /// its own, so the run as a whole may process up to `max_events` times
    /// the partition count.
    pub max_events: u64,
    /// Worker threads for the parallel DES runner (`trainbox_sim::par`).
    /// `0` or `1` selects the sequential reference; any value produces
    /// byte-identical results (the parallel path only changes which thread
    /// advances each partition, never the merge order). Cluster runs
    /// partition per server; eligible single-server runs partition into
    /// intra-server lanes (`crate::intraserver`) — the partition itself is
    /// chosen by the request, never by the worker count, so `0` remains the
    /// byte-identical reference for every configuration.
    ///
    /// Like `deadline_ms` on a request, this is a quality-of-service hint,
    /// **not part of the question**: it is excluded from the canonical
    /// serialization and hash, so parallel and sequential spellings of the
    /// same what-if share one cache entry.
    pub parallel_workers: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            chunk_samples: 256,
            batches: 8,
            warmup_batches: 4,
            prefetch_batches: 1,
            max_events: 20_000_000,
            parallel_workers: 0,
        }
    }
}

// Hand-written (not derived) to keep `parallel_workers` out of the canonical
// form: the canonical bytes answer "what is being asked", and the worker
// count only says how the host should compute the (identical) answer. Fields
// appear in declaration order.
impl serde::Serialize for SimConfig {
    fn to_json(&self) -> serde::json::Json {
        serde::json::Json::Object(vec![
            ("chunk_samples".to_string(), serde::Serialize::to_json(&self.chunk_samples)),
            ("batches".to_string(), serde::Serialize::to_json(&self.batches)),
            ("warmup_batches".to_string(), serde::Serialize::to_json(&self.warmup_batches)),
            ("prefetch_batches".to_string(), serde::Serialize::to_json(&self.prefetch_batches)),
            ("max_events".to_string(), serde::Serialize::to_json(&self.max_events)),
        ])
    }
}

// Hand-written so requests may state only the knobs they care about; every
// omitted field falls back to [`SimConfig::default`].
impl serde::Deserialize for SimConfig {
    fn from_json(v: &serde::json::Json) -> Result<Self, serde::json::JsonError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::json::JsonError::type_mismatch("SimConfig", "object"))?;
        let mut cfg = SimConfig::default();
        for (key, val) in obj {
            match key.as_str() {
                "chunk_samples" => cfg.chunk_samples = serde::Deserialize::from_json(val)?,
                "batches" => cfg.batches = serde::Deserialize::from_json(val)?,
                "warmup_batches" => cfg.warmup_batches = serde::Deserialize::from_json(val)?,
                "prefetch_batches" => cfg.prefetch_batches = serde::Deserialize::from_json(val)?,
                "max_events" => cfg.max_events = serde::Deserialize::from_json(val)?,
                "parallel_workers" => {
                    cfg.parallel_workers = serde::Deserialize::from_json(val)?
                }
                _ => {
                    return Err(serde::json::JsonError::type_mismatch(
                        "SimConfig",
                        "known field",
                    ))
                }
            }
        }
        Ok(cfg)
    }
}

/// Per-tenant outcome of a mixed-tenancy run: how the shared box's
/// throughput divides between the tenants, and what each gave up relative
/// to running alone.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TenantShare {
    /// Tenant workload name.
    pub name: String,
    /// Fraction of the interleaved sample stream that is this tenant's
    /// (its batch share).
    pub share: f64,
    /// Samples/s this tenant achieved inside the mixture.
    pub samples_per_sec: f64,
    /// Analytic samples/s the tenant would achieve running the box alone
    /// (same server configuration), scaled to its share of the batch.
    pub solo_samples_per_sec: f64,
    /// `solo / achieved` — ≥ 1 when interference costs the tenant
    /// throughput.
    pub slowdown: f64,
}

/// Interference and fairness accounting for a mixed-tenancy run.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct TenancyStats {
    /// One entry per tenant, in declaration order.
    pub tenants: Vec<TenantShare>,
    /// Jain's fairness index over the tenants' normalized rates
    /// (`achieved / solo`); 1.0 = perfectly even interference.
    pub jain_fairness: f64,
}

impl TenancyStats {
    /// Compute the tenancy decomposition of `result` on `server`:
    /// per-tenant achieved rates (batch-share split of the mixture's
    /// throughput), solo analytic rates, slowdowns, and Jain's index.
    pub fn of(server: &Server, tenants: &[Workload], total_samples_per_sec: f64) -> TenancyStats {
        let total_batch: f64 = tenants.iter().map(|t| t.batch_size as f64).sum();
        let mut shares = Vec::with_capacity(tenants.len());
        for t in tenants {
            let share = t.batch_size as f64 / total_batch;
            let achieved = share * total_samples_per_sec;
            let solo = share * server.throughput(t).samples_per_sec;
            let slowdown = if achieved > 0.0 { solo / achieved } else { f64::INFINITY };
            shares.push(TenantShare {
                name: t.name.clone(),
                share,
                samples_per_sec: achieved,
                solo_samples_per_sec: solo,
                slowdown,
            });
        }
        let norm: Vec<f64> = shares
            .iter()
            .map(|s| {
                if s.solo_samples_per_sec > 0.0 {
                    s.samples_per_sec / s.solo_samples_per_sec
                } else {
                    0.0
                }
            })
            .collect();
        let sum: f64 = norm.iter().sum();
        let sq: f64 = norm.iter().map(|x| x * x).sum();
        let jain = if sq > 0.0 { sum * sum / (norm.len() as f64 * sq) } else { 0.0 };
        TenancyStats { tenants: shares, jain_fairness: jain }
    }
}

/// Result of a DES run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Steady-state throughput over the measured window, samples/s.
    pub samples_per_sec: f64,
    /// Completion time of every global batch (after synchronization).
    pub batch_done_at: Vec<SimTime>,
    /// Events processed.
    pub events: u64,
    /// Max-min rate recomputations performed across both flow simulators —
    /// a simulator-core work counter that `bench_counters` records.
    pub recomputes: u64,
    /// Total bytes carried by each directed PCIe link over the whole run,
    /// indexed like the topology's links.
    pub link_bytes: Vec<f64>,
    /// Bytes that crossed the root complex (sum over RC-incident links).
    pub rc_bytes: f64,
    /// What the fault layer injected and observed (all-zero for a run
    /// without a fault plan).
    pub faults: FaultStats,
    /// Mixed-tenancy decomposition — present only when the simulated
    /// workload declared tenants.
    pub tenancy: Option<TenancyStats>,
}

// Hand-written so the `tenancy` key is emitted only when present: every
// pre-DSL result serializes to exactly the bytes the derived impl produced
// (same fields, declaration order), keeping cached single-workload result
// JSON byte-identical.
impl serde::Serialize for SimResult {
    fn to_json(&self) -> serde::json::Json {
        let mut fields = vec![
            ("samples_per_sec".to_string(), serde::Serialize::to_json(&self.samples_per_sec)),
            ("batch_done_at".to_string(), serde::Serialize::to_json(&self.batch_done_at)),
            ("events".to_string(), serde::Serialize::to_json(&self.events)),
            ("recomputes".to_string(), serde::Serialize::to_json(&self.recomputes)),
            ("link_bytes".to_string(), serde::Serialize::to_json(&self.link_bytes)),
            ("rc_bytes".to_string(), serde::Serialize::to_json(&self.rc_bytes)),
            ("faults".to_string(), serde::Serialize::to_json(&self.faults)),
        ];
        if let Some(t) = &self.tenancy {
            fields.push(("tenancy".to_string(), serde::Serialize::to_json(t)));
        }
        serde::json::Json::Object(fields)
    }
}

/// Where a chunk currently is in the datapath.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    /// Read from its SSD, or in flight over the PCIe tree, on leg `k` of
    /// the server's datapath ([`Datapath::legs`]: pre-legs first, then
    /// post-legs). A `u8` keeps `Chunk` at 56 bytes; a `usize` grows it to
    /// 64, which measurably raises the peak memory of large lane and
    /// cluster runs.
    Leg(u8),
    /// Queued/processing on the preparation device.
    Prep,
    /// In flight over Ethernet toward a prep-pool FPGA (TrainBox offload).
    EthToPool,
    /// Queued/processing on a prep-pool FPGA.
    PoolPrep,
    /// Prepared tensor returning over Ethernet to the in-box FPGA.
    EthFromPool,
    /// Waiting out a retry backoff after a transiently failed prep request.
    PrepRetryWait,
}

#[derive(Debug, Clone, Copy)]
struct Chunk {
    acc: usize,
    samples: u64,
    stage: Stage,
    prep_dev: usize,
    ssd: usize,
    /// Prep-pool FPGA handling this chunk (only meaningful mid-offload).
    pool_dev: usize,
    /// Dispatch attempt, bumped on retries and crash re-dispatch; it sets
    /// the retry budget and backoff, and resets to 0 when retries run out
    /// and the chunk is read again.
    attempt: u32,
    /// Dispatch generation: bumped with `attempt` but never reset, so prep
    /// completions stamped with an older generation are recognizably stale
    /// even after the attempt count starts over.
    generation: u32,
}

impl Chunk {
    /// Count one more dispatch attempt, staling any completion in flight.
    fn redispatch(&mut self) {
        self.attempt = self.attempt.saturating_add(1);
        self.generation = self.generation.saturating_add(1);
    }
}

/// One class of identical queued devices — the SSDs, the prep devices or
/// the pool FPGAs — whose service slots own consecutive FIFO lanes of the
/// engine, from `lane0` on.
///
/// A slot's completions are nondecreasing ([`FifoServer::enqueue`]), so
/// each completion event goes on its slot's lane
/// ([`Scheduler::schedule_fifo_at`]) and the heap holds one event per busy
/// slot instead of every completion a prefetch window has queued.
struct Devices {
    servers: Vec<FifoServer>,
    lane0: usize,
}

impl Devices {
    /// `n` devices of `slots` service slots each, on lanes from `lane0`.
    fn new(n: usize, slots: usize, lane0: usize) -> Self {
        Devices { servers: (0..n).map(|_| FifoServer::new(slots)).collect(), lane0 }
    }

    fn len(&self) -> usize {
        self.servers.len()
    }

    /// First lane past this class's.
    fn lane_end(&self) -> usize {
        self.lane0 + self.servers.iter().map(FifoServer::servers).sum::<usize>()
    }

    /// Admit a job on device `dev`: its completion time and the FIFO lane
    /// of the slot serving it.
    fn enqueue(&mut self, dev: usize, arrival: SimTime, service: SimTime) -> (SimTime, usize) {
        let server = &mut self.servers[dev];
        let (done, slot) = server.enqueue(arrival, service);
        (done, self.lane0 + dev * server.servers() + slot)
    }
}

/// Ethernet prep-pool state for the DES (its flows run on the Ethernet
/// [`FlowPlane`]).
struct EthPool {
    net: PrepPoolNet,
    pool_servers: Devices,
    pool_service: SimTime,
    /// Offload every `period`-th chunk per in-box FPGA (0 = never).
    period: u64,
    counters: Vec<u64>,
    rr_pool: usize,
}

/// A bandwidth-shared network chunk data moves over.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Plane {
    /// The server's PCIe tree.
    Pcie,
    /// The Ethernet star joining the in-box FPGAs to the prep pool.
    Eth,
}

/// One flow plane of the DES: the fluid flow simulator of a [`Plane`], its
/// completion check (armed on the engine timer numbered by the plane), the
/// flow class of each leg it has carried, and the chunk each in-flight flow
/// carries. The two planes' [`FlowSim`]s have independent flow-id spaces,
/// so each keeps its own table.
struct FlowPlane {
    plane: Plane,
    sim: FlowSim,
    /// The class of each `(from, to)` leg, interned at its first flow: a
    /// later flow on the leg builds no route and hashes no link list.
    legs: FxHashMap<(NodeId, NodeId), ClassId>,
    /// The completion `(at, flow)` the plane's timer is armed for. Every
    /// mutation of `sim` re-arms the timer, so when its `FlowCheck` fires
    /// this is still the simulator's next completion.
    check: Option<(SimTime, FlowId)>,
    /// The chunk each in-flight flow carries and the flow's start instant
    /// (a trace span's start), by [`FlowId::seq`].
    cont: SeqTable<(u64, SimTime)>,
}

impl FlowPlane {
    fn new(plane: Plane, net: FlowNet, traced: bool) -> Self {
        let mut sim = FlowSim::new(net);
        sim.set_trace(traced);
        FlowPlane {
            plane,
            sim,
            legs: FxHashMap::default(),
            check: None,
            cont: SeqTable::new(),
        }
    }

    /// The class of leg `from → to` over `topo`, interned at its first use.
    /// A node-local hand-off (an empty route) is sequenced through the flow
    /// machinery at an effectively infinite rate.
    fn leg_class(&mut self, topo: &Topology, from: NodeId, to: NodeId) -> ClassId {
        *self.legs.entry((from, to)).or_insert_with(|| {
            let route = topo.route(from, to);
            self.sim.class_of(if route.is_empty() {
                FlowSpec::with_demand(route, 1e15)
            } else {
                FlowSpec::new(route)
            })
        })
    }

    /// Start a flow of `bytes` in `class` carrying chunk `cont`, then
    /// re-arm.
    fn add(
        &mut self,
        now: SimTime,
        class: ClassId,
        bytes: f64,
        cont: u64,
        sched: &mut Scheduler<Ev>,
    ) {
        let fid = self.sim.add_flow_in(now, class, bytes.max(1.0));
        self.cont.insert(fid.seq(), (cont, now));
        self.rearm(sched);
    }

    /// Re-arm the plane's timer for the earliest flow completion under the
    /// current rate set. The previous check (if still pending) is
    /// superseded: the engine overwrites the timer's slot, so a redundant
    /// re-arm costs one slot write.
    fn rearm(&mut self, sched: &mut Scheduler<Ev>) {
        self.check = self.sim.next_completion();
        let next = self.check.map(|(at, _)| (at, Ev::FlowCheck(self.plane)));
        sched.rearm(self.plane as usize, next);
    }

    /// Complete the flow the fired check was armed for, returning the chunk
    /// it carried and its start instant. Only the latest check can fire:
    /// [`Self::rearm`] superseded the others.
    fn complete(&mut self) -> Option<(u64, SimTime)> {
        let (at, flow) = self.check.take()?;
        debug_assert_eq!(self.sim.next_completion(), Some((at, flow)));
        self.sim.complete(at.max(self.sim.now()), flow);
        Some(self.cont.remove(flow.seq()).expect("every flow has a continuation"))
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct AccelState {
    /// Prepared samples buffered at the accelerator, ready to consume.
    buffered: u64,
    /// Samples issued to the pipeline but not yet delivered.
    in_flight: u64,
    /// Samples issued over this accelerator's lifetime.
    issued_total: u64,
    /// Currently computing a batch.
    computing: bool,
    /// Batches fully computed (waiting on or past sync).
    batches_computed: u64,
}

#[derive(Debug)]
pub(crate) enum Ev {
    /// Prime the pipeline at t = 0.
    Start,
    /// An SSD finished reading a chunk.
    SsdDone(u64),
    /// Re-examine a flow plane (on the plane's timer; superseded checks
    /// never fire).
    FlowCheck(Plane),
    /// A prep-pool FPGA finished a chunk.
    PoolPrepDone(u64),
    /// A preparation device finished a chunk (generation-stamped;
    /// completions from before a re-dispatch are stale and ignored).
    PrepDone(u64, u32),
    /// An accelerator finished computing its current batch.
    ComputeDone(usize),
    /// The ring synchronization for the current generation completed.
    SyncDone,
    /// Injection instant of fault plan entry `i`.
    Fault(usize),
    /// End of fault plan entry `i`'s degradation window.
    FaultRecover(usize),
    /// Backoff elapsed: re-dispatch the chunk's prep request.
    PrepRetry(u64),
    /// Barrier modes only: the barrier runner released the synchronization
    /// barrier — close the generation at the global release time.
    Release,
}

/// How a [`PipelineModel`] closes a generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BarrierMode {
    /// One LP driving every device: the local ring sync closes the
    /// generation, and the model never parks.
    Solo,
    /// One lane of a partitioned server: drive only these accelerators
    /// (plus their nominally assigned SSD and prep device) and park once
    /// they arrive, *before* any [`Ev::SyncDone`] — the ring spans every
    /// lane, so the runner's release (`max(arrivals) + t_sync`)
    /// stands in for the sync.
    Lane(std::ops::Range<usize>),
    /// One server of a cluster: run the local ring sync, then park until
    /// the runner's release (`max(arrivals) + cross_sync`).
    Cluster,
}

/// Mutable degraded-mode state: who is alive, how fast, and what the fault
/// layer has observed so far. Constructed all-healthy; an empty plan leaves
/// it untouched for the whole run.
struct FaultRuntime {
    /// The plan, sorted by injection time.
    events: Vec<(SimTime, FaultKind)>,
    retry: RetryPolicy,
    accel_alive: Vec<bool>,
    prep_alive: Vec<bool>,
    /// Speed multiplier per prep device (1.0 nominal; < 1 while throttled).
    prep_speed: Vec<f64>,
    /// Until when each prep device rejects new requests.
    prep_flaky_until: Vec<SimTime>,
    /// Chunks assigned to each prep device's local queue and not yet
    /// prepared — the load metric for greedy max-min rebalancing.
    prep_outstanding: Vec<u64>,
    /// Nominal capacity of every PCIe link, for restoring after degradation.
    nominal_caps: Vec<f64>,
    stats: FaultStats,
}

impl FaultRuntime {
    fn new(plan: &FaultPlan, n_accels: usize, n_preps: usize, nominal_caps: Vec<f64>) -> Self {
        FaultRuntime {
            events: plan
                .sorted_events()
                .iter()
                .map(|ev| (SimTime::from_secs_f64(ev.at_secs), ev.kind))
                .collect(),
            retry: plan.retry,
            accel_alive: vec![true; n_accels],
            prep_alive: vec![true; n_preps],
            prep_speed: vec![1.0; n_preps],
            prep_flaky_until: vec![SimTime::ZERO; n_preps],
            prep_outstanding: vec![0; n_preps],
            nominal_caps,
            stats: FaultStats::default(),
        }
    }

    fn alive_accels(&self) -> usize {
        self.accel_alive.iter().filter(|&&a| a).count()
    }

    /// Least-loaded surviving prep device (greedy water-filling; ties break
    /// toward the lowest index for determinism).
    ///
    /// # Panics
    ///
    /// Panics if no prep device survives.
    fn least_loaded_prep(&self) -> usize {
        self.prep_alive
            .iter()
            .enumerate()
            .filter(|&(_, &alive)| alive)
            .min_by_key(|&(dev, _)| self.prep_outstanding[dev])
            .map(|(dev, _)| dev)
            .expect("no preparation device survives its faults")
    }
}

pub(crate) struct PipelineModel<T: Tracer> {
    path: Datapath,
    topo: ServerTopology,
    sizes: SampleSizes,
    chunk: u64,
    batch: u64,
    prefetch: u64,
    target_batches: u64,
    t_comp: SimTime,
    t_sync: SimTime,

    pcie: FlowPlane,
    link_bytes: Vec<f64>,

    /// Ethernet prep network (TrainBox with pool): its flows over the star
    /// topology, then the pool FPGA queues and the offload cadence. Without
    /// a pool the plane has no links and is never armed.
    ethernet: FlowPlane,
    eth: Option<EthPool>,

    ssds: Devices,
    preps: Devices,
    prep_service: SimTime,

    /// In-flight chunks, by the id `next_chunk` gave them.
    chunks: SeqTable<Chunk>,
    next_chunk: u64,
    accels: Vec<AccelState>,
    sync_gen: u64,
    sync_in_progress: bool,
    batch_done_at: Vec<SimTime>,
    /// Samples contributed by each completed generation (surviving
    /// accelerators x batch at sync time).
    batch_samples: Vec<u64>,
    rr_ssd: usize,
    rr_prep: usize,
    done: bool,

    /// How a generation closes: locally, or at a barrier the partitioned
    /// runner (`crate::barrier`) releases.
    barrier: BarrierMode,
    /// Parked at the barrier, waiting for [`Ev::Release`].
    /// Read-and-cleared by the barrier runner.
    at_barrier: bool,

    /// Synchronization latency model (ring, parameter server, or
    /// all-to-all, per the workload's declared pattern) and gradient size,
    /// kept so the synchronization time can be recomputed when the group
    /// re-forms over the survivors after a dropout.
    sync: SyncModel,
    model_bytes: u64,
    faults: FaultRuntime,

    /// Structured trace sink. With [`NoopTracer`] every hook below guards on
    /// `enabled()` (a constant `false`) and monomorphizes to nothing, so the
    /// untraced simulation is bit-identical to the pre-trace code.
    tracer: T,
}

/// The PCIe node `site` stands for on the route of a chunk read from SSD
/// `ssd`, prepared on device `prep` and delivered to accelerator `acc`.
pub(crate) fn site_node(
    topo: &ServerTopology,
    site: Site,
    ssd: usize,
    prep: usize,
    acc: usize,
) -> NodeId {
    match site {
        Site::Ssd => topo.ssds[ssd],
        Site::Host => topo.topo.root(),
        Site::Prep => topo.preps[prep],
        Site::Accel => topo.accs[acc],
    }
}

/// Trace track (lane) for a fault instant: the index of the device or link
/// the fault targets.
fn fault_track(kind: FaultKind) -> u32 {
    match kind {
        FaultKind::SsdStall { ssd, .. } => ssd as u32,
        FaultKind::PrepCrash { dev }
        | FaultKind::PrepSlowdown { dev, .. }
        | FaultKind::PrepTransient { dev, .. } => dev as u32,
        FaultKind::LinkDegrade { link, .. } => link as u32,
        FaultKind::AccelDropout { acc } => acc as u32,
    }
}

impl<T: Tracer> PipelineModel<T> {
    pub(crate) fn new(
        server: &Server,
        workload: &Workload,
        cfg: &SimConfig,
        plan: &FaultPlan,
        tracer: T,
    ) -> Self {
        // Tenanted workloads simulate as their blended flat aggregate; the
        // prep profile blends the per-sample costs the same way.
        let workload = &crate::profile::effective_workload(workload);
        let kind = server.kind();
        let path = kind.datapath();
        let topo = server.topology().clone();
        let profile = PrepProfile::of(workload);
        let sizes = profile.sizes;
        let batch = server.batch_for(workload);
        let n = server.n_accels();
        let eff = crate::calib::batch_efficiency(batch, workload.batch_size);
        let t_comp =
            SimTime::from_secs_f64(batch as f64 / (workload.accel_samples_per_sec * eff));
        let sync = server.sync_model(workload);
        let t_sync = sync.sync_time(workload.model_bytes(), n);

        let n_links = topo.topo.link_count();
        let traced = tracer.enabled();
        let pcie = FlowPlane::new(Plane::Pcie, FlowNet::from_topology(&topo.topo), traced);
        // Queued devices, one FIFO lane per service slot: the SSDs', then
        // the prep devices', then (with a pool) the pool FPGAs'.
        let ssds = Devices::new(topo.ssds.len(), 1, 0);
        let (preps, prep_service) = match path {
            Datapath::HostCpu => {
                // One fluid CPU pool: each chunk occupies one of the 48
                // core-slots for `chunk x per-sample-core-time`.
                let per = profile.cpu_secs_per_sample;
                (
                    Devices::new(1, DGX2.cpu_cores as usize, ssds.lane_end()),
                    SimTime::from_secs_f64(cfg.chunk_samples as f64 * per),
                )
            }
            Datapath::HostStagedAccel | Datapath::P2pAccel | Datapath::Clustered => {
                let per = kind.prep_accel_rate(&profile);
                (
                    Devices::new(topo.preps.len(), 1, ssds.lane_end()),
                    SimTime::from_secs_f64(cfg.chunk_samples as f64 / per),
                )
            }
        };
        // TrainBox-with-pool (the only design whose prep network has pool
        // FPGAs): set up the Ethernet network and the offload cadence from
        // the initializer's deficit analysis.
        let eth = server
            .prep_pool()
            .filter(|net| !net.pool_nics.is_empty())
            .and_then(|net| {
                let f = profile.fpga_samples_per_sec;
                let plan = crate::initializer::plan(server, workload, net.pool_nics.len());
                let demand = plan.required_prep_rate;
                let local = plan.in_box_prep_rate;
                if demand <= local {
                    return None;
                }
                // Offload fraction of all chunks = deficit / demand; send
                // every period-th chunk to the pool.
                let frac = ((demand - local) / demand).clamp(0.0, 1.0);
                let period = (1.0 / frac).round().max(1.0) as u64;
                Some(EthPool {
                    pool_servers: Devices::new(net.pool_nics.len(), 1, preps.lane_end()),
                    pool_service: SimTime::from_secs_f64(cfg.chunk_samples as f64 / f),
                    period,
                    counters: vec![0; net.box_nics.len()],
                    rr_pool: 0,
                    net: net.clone(),
                })
            });
        let eth_net = match &eth {
            Some(pool) => FlowNet::from_topology(&pool.net.topo),
            None => FlowNet::from_capacities(Vec::new()),
        };
        let ethernet = FlowPlane::new(Plane::Eth, eth_net, traced);

        let domain = fault_domain(server);
        debug_assert_eq!(domain.n_ssds, ssds.len());
        debug_assert_eq!(domain.n_preps, preps.len());
        debug_assert_eq!(domain.n_links, n_links);
        if let Err(e) = plan.validate(&domain) {
            panic!("invalid fault plan: {e}");
        }
        let nominal_caps: Vec<f64> = (0..n_links)
            .map(|i| pcie.sim.net().capacity(LinkId::from_index(i)))
            .collect();
        let faults = FaultRuntime::new(plan, n, preps.len(), nominal_caps);

        PipelineModel {
            path,
            topo,
            sizes,
            chunk: cfg.chunk_samples,
            batch,
            prefetch: cfg.prefetch_batches,
            target_batches: cfg.batches,
            t_comp,
            t_sync,
            link_bytes: vec![0.0; n_links],
            pcie,
            ethernet,
            eth,
            ssds,
            preps,
            prep_service,
            chunks: SeqTable::new(),
            next_chunk: 0,
            accels: vec![AccelState::default(); n],
            sync_gen: 0,
            sync_in_progress: false,
            batch_done_at: Vec::new(),
            batch_samples: Vec::new(),
            rr_ssd: 0,
            rr_prep: 0,
            done: false,
            barrier: BarrierMode::Solo,
            at_barrier: false,
            sync,
            model_bytes: workload.model_bytes(),
            faults,
            tracer,
        }
    }

    // --- barrier-runner interface (crate-private) -------------------------
    //
    // The DES driver in `crate::barrier` drives one `PipelineModel` per
    // logical process (the whole server, a lane, or a cluster server): it
    // switches the model into its barrier mode, observes/clears the barrier
    // flag, and pulls the per-generation records out at the end.

    /// Switch how generations close (see [`BarrierMode`]).
    pub(crate) fn set_barrier(&mut self, mode: BarrierMode) {
        if let BarrierMode::Lane(lane) = &mode {
            debug_assert!(!lane.is_empty() && lane.end <= self.accels.len());
        }
        self.barrier = mode;
    }

    /// The accelerator indices this model instance drives: the lane in lane
    /// mode, every accelerator otherwise.
    fn lane_range(&self) -> std::ops::Range<usize> {
        match &self.barrier {
            BarrierMode::Lane(lane) => lane.clone(),
            BarrierMode::Solo | BarrierMode::Cluster => 0..self.accels.len(),
        }
    }

    /// Full-group synchronization time at the initial device complement.
    pub(crate) fn t_sync(&self) -> SimTime {
        self.t_sync
    }

    /// Bytes moved over each directed PCIe link so far.
    pub(crate) fn link_bytes(&self) -> &[f64] {
        &self.link_bytes
    }

    /// Parked at the global barrier? (Read-only form for run predicates.)
    pub(crate) fn at_barrier(&self) -> bool {
        self.at_barrier
    }

    /// Read **and clear** the barrier flag. Clearing keeps the runner's
    /// "advance until barrier or done" predicate from re-firing before the
    /// resume event is processed.
    pub(crate) fn take_barrier(&mut self) -> bool {
        std::mem::take(&mut self.at_barrier)
    }

    /// Whether the run reached its target batches.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// When each generation closed: the local sync completion in solo
    /// mode, the runner's release in the barrier modes.
    pub(crate) fn batch_done_at(&self) -> &[SimTime] {
        &self.batch_done_at
    }

    /// Samples synchronized by each closed generation.
    pub(crate) fn batch_samples(&self) -> &[u64] {
        &self.batch_samples
    }

    /// Accelerators this model instance drives (its lane's, or all).
    pub(crate) fn n_accels(&self) -> usize {
        self.lane_range().len()
    }

    /// Per-accelerator batch size.
    pub(crate) fn batch_size(&self) -> u64 {
        self.batch
    }

    fn plane(&mut self, plane: Plane) -> &mut FlowPlane {
        match plane {
            Plane::Pcie => &mut self.pcie,
            Plane::Eth => &mut self.ethernet,
        }
    }

    /// Max-min recomputations across both flow simulators.
    pub(crate) fn recompute_count(&self) -> u64 {
        self.pcie.sim.recomputes() + self.ethernet.sim.recomputes()
    }

    /// `(class_scans, domain_solves)` of the PCIe and the Ethernet flow
    /// simulator.
    #[cfg(test)]
    pub(crate) fn flow_work(&self) -> [(u64, u64); 2] {
        [&self.pcie.sim, &self.ethernet.sim].map(|sim| (sim.class_scans(), sim.domain_solves()))
    }

    /// Fault-layer statistics observed so far.
    pub(crate) fn fault_stats(&self) -> &FaultStats {
        &self.faults.stats
    }

    /// Drain any pending flow-trace counters and hand back the tracer.
    pub(crate) fn into_tracer(mut self) -> T {
        if self.tracer.enabled() {
            self.drain_flow_trace();
        }
        self.tracer
    }

    /// Convert accumulated flow-rate recompute logs into counter records.
    /// Called once per handled event (and once at the end of a run) while
    /// the tracer is enabled; a no-op drain otherwise.
    fn drain_flow_trace(&mut self) {
        for (plane, [active, min_rate, max_rate]) in [
            (&mut self.pcie, ["pcie_active_flows", "pcie_min_rate", "pcie_max_rate"]),
            (&mut self.ethernet, ["eth_active_flows", "eth_min_rate", "eth_max_rate"]),
        ] {
            for ev in plane.sim.take_trace() {
                self.tracer.counter(Component::Flow, active, ev.at, ev.active as f64);
                self.tracer.counter(Component::Flow, min_rate, ev.at, ev.min_rate);
                self.tracer.counter(Component::Flow, max_rate, ev.at, ev.max_rate);
            }
        }
    }

    /// The SSD and prep device serving accelerator `acc`. A preferred prep
    /// device that has crashed is replaced by the least-loaded survivor
    /// (greedy max-min rebalancing of future work).
    fn assign_devices(&mut self, acc: usize) -> (usize, usize) {
        let (ssd, prep) = self.assign_devices_nominal(acc);
        if self.faults.prep_alive[prep] {
            (ssd, prep)
        } else {
            (ssd, self.faults.least_loaded_prep())
        }
    }

    fn assign_devices_nominal(&mut self, acc: usize) -> (usize, usize) {
        match self.path {
            Datapath::Clustered => crate::intraserver::lane_devices(acc),
            Datapath::HostCpu => {
                let ssd = self.rr_ssd % self.ssds.len();
                self.rr_ssd += 1;
                (ssd, 0)
            }
            Datapath::HostStagedAccel | Datapath::P2pAccel => {
                let ssd = self.rr_ssd % self.ssds.len();
                self.rr_ssd += 1;
                let prep = self.rr_prep % self.preps.len();
                self.rr_prep += 1;
                (ssd, prep)
            }
        }
    }

    /// Spawn chunks for `acc` while prefetch credit remains.
    fn refill(&mut self, now: SimTime, acc: usize, sched: &mut Scheduler<Ev>) {
        if self.done || !self.faults.accel_alive[acc] {
            return;
        }
        let credit = self.prefetch * self.batch;
        loop {
            let st = &self.accels[acc];
            let lifetime_target = self.target_batches * self.batch;
            if st.issued_total >= lifetime_target || st.buffered + st.in_flight >= credit {
                return;
            }
            let samples = self.chunk.min(lifetime_target - st.issued_total);
            let (ssd, prep_dev) = self.assign_devices(acc);
            self.faults.prep_outstanding[prep_dev] += 1;
            let id = self.next_chunk;
            self.next_chunk += 1;
            self.chunks.insert(
                id,
                Chunk {
                    acc,
                    samples,
                    stage: Stage::Leg(0),
                    prep_dev,
                    ssd,
                    pool_dev: 0,
                    attempt: 0,
                    generation: 0,
                },
            );
            let st = &mut self.accels[acc];
            st.in_flight += samples;
            st.issued_total += samples;
            let read = SimTime::from_secs_f64(
                samples as f64 * self.sizes.stored / SSD_READ_BYTES_PER_SEC,
            );
            let (done_at, lane) = self.ssds.enqueue(ssd, now, read);
            if self.tracer.enabled() {
                // The FIFO server may start the read after `now`; the span
                // covers the service interval, not the queueing delay.
                self.tracer.span(
                    Component::Pipeline,
                    "ssd_read",
                    ssd as u32,
                    done_at.saturating_sub(read),
                    done_at,
                );
            }
            sched.schedule_fifo_at(lane, done_at, Ev::SsdDone(id));
        }
    }

    fn add_flow(
        &mut self,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        bytes: f64,
        cont: u64,
        sched: &mut Scheduler<Ev>,
    ) {
        let class = self.pcie.leg_class(&self.topo.topo, from, to);
        for l in self.pcie.sim.route_of(class) {
            self.link_bytes[l.index()] += bytes;
        }
        self.pcie.add(now, class, bytes, cont, sched);
    }

    fn queue_prep(&mut self, now: SimTime, id: u64, sched: &mut Scheduler<Ev>) {
        let chunk = self.chunks[id];
        // TrainBox with a pool: ship every period-th chunk of this in-box
        // FPGA to the pool over Ethernet instead of preparing locally.
        if let Some(eth) = self.eth.as_mut() {
            let dev = chunk.prep_dev;
            eth.counters[dev] += 1;
            if eth.period > 0 && eth.counters[dev] % eth.period == 0 {
                let pool_idx = eth.rr_pool % eth.pool_servers.len();
                eth.rr_pool += 1;
                let (from, to) = (eth.net.box_nics[dev], eth.net.pool_nics[pool_idx]);
                let class = self.ethernet.leg_class(&eth.net.topo, from, to);
                // The chunk carries its pool device for the pool's service
                // queue and the return leg.
                let c = &mut self.chunks[id];
                c.stage = Stage::EthToPool;
                c.pool_dev = pool_idx;
                let bytes = chunk.samples as f64 * self.sizes.stored;
                // Offloaded chunks never touch the local prep queue.
                self.faults.prep_outstanding[dev] = self.faults.prep_outstanding[dev].saturating_sub(1);
                self.ethernet.add(now, class, bytes, id, sched);
                return;
            }
        }
        self.dispatch_prep(now, id, sched);
    }

    /// Hand the chunk to its prep device's queue, handling a crashed target
    /// (data re-routed to the least-loaded survivor) and a transiently
    /// failing one (retry with exponential backoff per the plan's policy).
    fn dispatch_prep(&mut self, now: SimTime, id: u64, sched: &mut Scheduler<Ev>) {
        let chunk = self.chunks[id];
        let dev = chunk.prep_dev;
        if !self.faults.prep_alive[dev] {
            // The device died while this chunk was in flight toward it: move
            // the data to a surviving device and restart from the transfer.
            let new_dev = self.faults.least_loaded_prep();
            self.faults.prep_outstanding[dev] =
                self.faults.prep_outstanding[dev].saturating_sub(1);
            self.faults.prep_outstanding[new_dev] += 1;
            let c = &mut self.chunks[id];
            c.prep_dev = new_dev;
            c.redispatch();
            self.reroute_to_prep(now, id, dev, sched);
            return;
        }
        if now < self.faults.prep_flaky_until[dev] {
            // Request rejected. Retry after timeout + exponential backoff,
            // or give up and re-read the chunk from its SSD.
            let attempt = chunk.attempt;
            let c = &mut self.chunks[id];
            c.redispatch();
            if attempt < self.faults.retry.max_retries {
                c.stage = Stage::PrepRetryWait;
                self.faults.stats.retries += 1;
                let delay = SimTime::from_secs_f64(
                    self.faults.retry.timeout_secs + self.faults.retry.backoff_secs(attempt),
                );
                sched.schedule_in(now, delay, Ev::PrepRetry(id));
            } else {
                // Retries exhausted: the read is wasted; fetch a fresh copy.
                c.attempt = 0;
                c.stage = Stage::Leg(0);
                self.faults.stats.failed_requests += 1;
                self.faults.stats.wasted_samples += chunk.samples;
                let read = SimTime::from_secs_f64(
                    chunk.samples as f64 * self.sizes.stored / SSD_READ_BYTES_PER_SEC,
                );
                let (done_at, lane) = self.ssds.enqueue(chunk.ssd, now, read);
                sched.schedule_fifo_at(lane, done_at, Ev::SsdDone(id));
            }
            return;
        }
        let c = &mut self.chunks[id];
        c.stage = Stage::Prep;
        let generation = c.generation;
        let service =
            SimTime::from_secs_f64(self.prep_service.as_secs_f64() / self.faults.prep_speed[dev]);
        let (done, lane) = self.preps.enqueue(dev, now, service);
        if self.tracer.enabled() {
            self.tracer.span(
                Component::Pipeline,
                "prep",
                dev as u32,
                done.saturating_sub(service),
                done,
            );
        }
        sched.schedule_fifo_at(lane, done, Ev::PrepDone(id, generation));
    }

    /// Model the data movement that re-dispatching a chunk from crashed
    /// device `old_dev` to its new `prep_dev` requires: repeat the
    /// datapath's last pre-leg, re-sending the copy held in host memory
    /// when that leg starts there (staged designs) and moving it from the
    /// dead device otherwise (P2P/clustered designs).
    fn reroute_to_prep(
        &mut self,
        now: SimTime,
        id: u64,
        old_dev: usize,
        sched: &mut Scheduler<Ev>,
    ) {
        let k = self.n_pre_legs() - 1;
        let from = match self.leg(k).0 {
            Site::Host => self.topo.topo.root(),
            _ => self.topo.preps[old_dev],
        };
        self.send(now, id, k, from, sched);
    }

    /// A retry backoff elapsed: re-pick the best target and dispatch again.
    fn on_prep_retry(&mut self, now: SimTime, id: u64, sched: &mut Scheduler<Ev>) {
        let Some(&chunk) = self.chunks.get(id) else { return };
        debug_assert_eq!(chunk.stage, Stage::PrepRetryWait);
        // Prefer a healthy (alive, not flaky) device; if all survivors are
        // flaky the dispatch fails again and backs off further.
        let healthy = self
            .faults
            .prep_alive
            .iter()
            .enumerate()
            .filter(|&(dev, &alive)| alive && now >= self.faults.prep_flaky_until[dev])
            .min_by_key(|&(dev, _)| self.faults.prep_outstanding[dev])
            .map(|(dev, _)| dev);
        let target = healthy.unwrap_or_else(|| self.faults.least_loaded_prep());
        if target != chunk.prep_dev {
            self.faults.prep_outstanding[chunk.prep_dev] =
                self.faults.prep_outstanding[chunk.prep_dev].saturating_sub(1);
            self.faults.prep_outstanding[target] += 1;
            self.chunks[id].prep_dev = target;
        }
        self.dispatch_prep(now, id, sched);
    }

    fn on_eth_flow_done(&mut self, now: SimTime, id: u64, sched: &mut Scheduler<Ev>) {
        let chunk = self.chunks[id];
        match chunk.stage {
            Stage::EthToPool => {
                self.chunks[id].stage = Stage::PoolPrep;
                let eth = self.eth.as_mut().expect("ethernet pool active");
                let service = eth.pool_service;
                let (done, lane) = eth.pool_servers.enqueue(chunk.pool_dev, now, service);
                if self.tracer.enabled() {
                    self.tracer.span(
                        Component::Pipeline,
                        "pool_prep",
                        chunk.pool_dev as u32,
                        done.saturating_sub(service),
                        done,
                    );
                }
                sched.schedule_fifo_at(lane, done, Ev::PoolPrepDone(id));
            }
            // Back at the in-box FPGA: on to the post-prep legs.
            Stage::EthFromPool => self.start_leg(now, id, self.n_pre_legs(), sched),
            other => unreachable!("unexpected ethernet completion in {other:?}"),
        }
    }

    fn on_pool_prep_done(&mut self, now: SimTime, id: u64, sched: &mut Scheduler<Ev>) {
        let chunk = self.chunks[id];
        let net = &self.eth.as_ref().expect("ethernet pool active").net;
        let (from, to) = (net.pool_nics[chunk.pool_dev], net.box_nics[chunk.prep_dev]);
        let class = self.ethernet.leg_class(&net.topo, from, to);
        let tensor = chunk.samples as f64 * self.sizes.tensor;
        self.chunks[id].stage = Stage::EthFromPool;
        self.ethernet.add(now, class, tensor, id, sched);
    }

    /// Legs before preparation; leg `n_pre_legs()` is the first after it.
    fn n_pre_legs(&self) -> usize {
        self.path.legs().0.len()
    }

    /// Leg `k` of the datapath, counting the pre-legs first.
    fn leg(&self, k: usize) -> Leg {
        let (pre, post) = self.path.legs();
        pre.get(k).copied().unwrap_or_else(|| post[k - pre.len()])
    }

    /// Trace span name of a transfer, keyed by the stage the chunk was in
    /// when its flow completed. A leg's name follows from its sites, so a
    /// crash re-dispatch traces under the name of the leg it repeats.
    fn xfer_name(&self, stage: Stage) -> &'static str {
        match stage {
            Stage::Leg(k) => match self.leg(k.into()) {
                (Site::Ssd, _) => "xfer:to_prep",
                (Site::Host, Site::Prep) => "xfer:host_to_prep",
                (Site::Prep, Site::Host) => "xfer:prep_to_host",
                (_, Site::Accel) => "xfer:to_accel",
                _ => "xfer",
            },
            Stage::EthToPool => "eth:to_pool",
            Stage::EthFromPool => "eth:from_pool",
            _ => "xfer",
        }
    }

    /// Start chunk `id` on leg `k` from the leg's own source.
    fn start_leg(&mut self, now: SimTime, id: u64, k: usize, sched: &mut Scheduler<Ev>) {
        let c = self.chunks[id];
        let from = site_node(&self.topo, self.leg(k).0, c.ssd, c.prep_dev, c.acc);
        self.send(now, id, k, from, sched);
    }

    /// Move chunk `id` over leg `k`, leaving from node `from`: the stored
    /// sample before preparation, the prepared tensor after.
    fn send(&mut self, now: SimTime, id: u64, k: usize, from: NodeId, sched: &mut Scheduler<Ev>) {
        let c = &mut self.chunks[id];
        c.stage = Stage::Leg(k as u8);
        let c = *c;
        let per_sample = if k < self.n_pre_legs() {
            self.sizes.stored
        } else {
            self.sizes.tensor
        };
        let to = site_node(&self.topo, self.leg(k).1, c.ssd, c.prep_dev, c.acc);
        self.add_flow(now, from, to, c.samples as f64 * per_sample, id, sched);
    }

    /// A PCIe leg completed: start the next one, hand the chunk to its prep
    /// device after the last pre-leg, or deliver it after the last post-leg.
    fn on_flow_done(&mut self, now: SimTime, id: u64, sched: &mut Scheduler<Ev>) {
        let Stage::Leg(k) = self.chunks[id].stage else {
            unreachable!("PCIe flows carry chunks on datapath legs")
        };
        let k = usize::from(k);
        let (pre, post) = self.path.legs();
        if k + 1 == pre.len() {
            self.queue_prep(now, id, sched);
        } else if k + 1 == pre.len() + post.len() {
            self.deliver(now, id, sched);
        } else {
            self.start_leg(now, id, k + 1, sched);
        }
    }

    fn on_prep_done(
        &mut self,
        now: SimTime,
        id: u64,
        generation: u32,
        sched: &mut Scheduler<Ev>,
    ) {
        let Some(&chunk) = self.chunks.get(id) else { return };
        if chunk.generation != generation {
            // A completion from before this chunk was re-dispatched (its
            // device crashed with the chunk queued): stale, ignore.
            return;
        }
        self.faults.prep_outstanding[chunk.prep_dev] =
            self.faults.prep_outstanding[chunk.prep_dev].saturating_sub(1);
        self.start_leg(now, id, self.n_pre_legs(), sched);
    }

    fn deliver(&mut self, now: SimTime, id: u64, sched: &mut Scheduler<Ev>) {
        let chunk = self.chunks.remove(id).expect("chunk exists");
        let st = &mut self.accels[chunk.acc];
        st.in_flight -= chunk.samples;
        if !self.faults.accel_alive[chunk.acc] {
            // Delivered to a dropped accelerator: the prepared data is lost.
            self.faults.stats.wasted_samples += chunk.samples;
            return;
        }
        st.buffered += chunk.samples;
        self.try_start_compute(now, chunk.acc, sched);
        self.refill(now, chunk.acc, sched);
    }

    fn try_start_compute(&mut self, now: SimTime, acc: usize, sched: &mut Scheduler<Ev>) {
        if self.sync_in_progress || self.done || !self.faults.accel_alive[acc] {
            return;
        }
        let st = &mut self.accels[acc];
        // Lockstep generations: an accelerator computes batch g only after
        // the global sync of batch g-1, with a full batch buffered.
        if !st.computing && st.batches_computed == self.sync_gen && st.buffered >= self.batch {
            st.buffered -= self.batch;
            st.computing = true;
            sched.schedule_in(now, self.t_comp, Ev::ComputeDone(acc));
            if self.tracer.enabled() {
                self.tracer.span(
                    Component::Pipeline,
                    "compute",
                    acc as u32,
                    now,
                    now.saturating_add(self.t_comp),
                );
            }
            // Consuming a batch frees prefetch credit: start preparing the
            // next batch right away (next-batch prefetching).
            self.refill(now, acc, sched);
        }
    }

    fn on_compute_done(&mut self, now: SimTime, acc: usize, sched: &mut Scheduler<Ev>) {
        if !self.faults.accel_alive[acc] {
            // The device died mid-batch: its result is discarded.
            self.faults.stats.wasted_samples += self.batch;
            return;
        }
        self.accels[acc].computing = false;
        self.accels[acc].batches_computed += 1;
        self.refill(now, acc, sched);
        self.maybe_start_sync(now, sched);
    }

    /// Start the ring synchronization once every *surviving* accelerator has
    /// finished the current generation. (A dropout can satisfy the barrier
    /// retroactively when the dead device was the holdout.)
    fn maybe_start_sync(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        if self.sync_in_progress || self.done {
            return;
        }
        let r = self.lane_range();
        let all_arrived = self.accels[r.clone()]
            .iter()
            .zip(&self.faults.accel_alive[r])
            .all(|(st, &alive)| !alive || st.batches_computed > self.sync_gen);
        if all_arrived {
            self.sync_in_progress = true;
            if matches!(self.barrier, BarrierMode::Lane(_)) {
                // Lane mode: the ring spans *all* lanes, so this lane cannot
                // know when the sync completes — park at the barrier and let
                // the runner release it at max(lane arrivals) + t_sync, exactly
                // what the solo path's SyncDone would compute.
                self.at_barrier = true;
                return;
            }
            sched.schedule_in(now, self.t_sync, Ev::SyncDone);
            self.trace_sync(now);
        }
    }

    /// Trace one synchronization that starts at `start`: the whole span, then
    /// per-step spans over the surviving devices. Step boundaries come from
    /// the same analytic model that produced `t_sync`, so they partition the
    /// span exactly.
    fn trace_sync(&mut self, start: SimTime) {
        if !self.tracer.enabled() {
            return;
        }
        let end = start.saturating_add(self.t_sync);
        self.tracer.span(Component::Collective, self.sync.span_label(), 0, start, end);
        let survivors = self.faults.alive_accels();
        let mut prev = 0.0;
        for b in self.sync.steps(self.model_bytes, survivors) {
            self.tracer.span(
                Component::Collective,
                self.sync.step_label(),
                1,
                start.saturating_add(SimTime::from_secs_f64(prev)),
                start.saturating_add(SimTime::from_secs_f64(b)),
            );
            prev = b;
        }
    }

    fn on_sync_done(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        self.sync_in_progress = false;
        if self.barrier == BarrierMode::Cluster {
            // The local (intra-server) ring reduction is done, but in a
            // cluster the generation only closes once every server has
            // finished and the cross-server phase has run — park at the
            // barrier and let the runner release it.
            self.at_barrier = true;
            return;
        }
        self.finish_generation(now, sched);
    }

    /// Close the current generation at `now`: record it, and either finish
    /// the run or start the next generation's compute. In solo mode `now` is
    /// the local sync completion; in barrier modes it is the runner's global
    /// release time.
    fn finish_generation(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        self.sync_gen += 1;
        if self.tracer.enabled() {
            self.tracer.instant(Component::Collective, "batch_sync", 0, now);
        }
        self.batch_done_at.push(now);
        // In lane mode each lane records only its own accelerators' samples;
        // the runner sums the lanes into the full server's per-generation
        // counts.
        let counted = match &self.barrier {
            BarrierMode::Lane(r) => {
                self.faults.accel_alive[r.clone()].iter().filter(|&&a| a).count()
            }
            BarrierMode::Solo | BarrierMode::Cluster => self.faults.alive_accels(),
        };
        self.batch_samples.push(counted as u64 * self.batch);
        if self.sync_gen >= self.target_batches {
            self.done = true;
            return;
        }
        for acc in self.lane_range() {
            self.try_start_compute(now, acc, sched);
        }
    }

    /// The barrier runner's release arrived ([`Ev::Release`]).
    ///
    /// Cluster mode: the local sync already completed (`on_sync_done` parked
    /// at the barrier), so this just closes the generation at the global
    /// release time. Lane mode: the lane parked *before* any [`Ev::SyncDone`]
    /// was scheduled — the ring sync is implicit in the release time
    /// (`max(lane arrivals) + t_sync`) — so the in-progress flag is cleared
    /// here, and lane 0 emits the global all-reduce spans the solo path
    /// would have traced.
    fn on_resume(&mut self, now: SimTime, sched: &mut Scheduler<Ev>) {
        if matches!(self.barrier, BarrierMode::Lane(_)) {
            self.sync_in_progress = false;
            if self.lane_range().start == 0 {
                // `now - t_sync` is exactly the global max arrival: the same
                // sync the solo path traces when the last device arrives.
                self.trace_sync(now.saturating_sub(self.t_sync));
            }
        }
        self.finish_generation(now, sched);
    }

    /// Inject fault plan entry `i`.
    fn on_fault(&mut self, now: SimTime, i: usize, sched: &mut Scheduler<Ev>) {
        let (_, kind) = self.faults.events[i];
        self.faults.stats.injected += 1;
        let at_secs = now.as_secs_f64();
        let label = kind.label();
        if self.tracer.enabled() {
            self.tracer.instant(Component::Fault, label, fault_track(kind), now);
        }
        // Windowed faults know their downtime up front; permanent losses are
        // recorded as NaN and resolved to time-to-end-of-run afterwards.
        let downtime = |secs: f64, stats: &mut FaultStats| {
            stats.downtime.push(FaultDowntime { at_secs, kind: label, secs });
        };
        match kind {
            FaultKind::SsdStall { ssd, secs } => {
                // The stall occupies the device queue like a zero-value job:
                // reads already queued finish first, later ones wait it out.
                // It schedules no event, so the slot's lane stays monotone.
                let _ = self.ssds.enqueue(ssd, now, SimTime::from_secs_f64(secs));
                downtime(secs, &mut self.faults.stats);
            }
            FaultKind::PrepCrash { dev } => {
                if !self.faults.prep_alive[dev] {
                    downtime(0.0, &mut self.faults.stats);
                    return;
                }
                self.faults.prep_alive[dev] = false;
                self.faults.stats.preps_lost += 1;
                downtime(f64::NAN, &mut self.faults.stats);
                // Re-dispatch the chunks queued on the dead device to the
                // least-loaded survivors (greedy max-min water-filling).
                // The table yields ids in ascending order, which keeps the
                // event sequence deterministic.
                let stranded: Vec<u64> = self
                    .chunks
                    .iter()
                    .filter(|(_, c)| c.prep_dev == dev && c.stage == Stage::Prep)
                    .map(|(id, _)| id)
                    .collect();
                for id in stranded {
                    let new_dev = self.faults.least_loaded_prep();
                    self.faults.prep_outstanding[dev] =
                        self.faults.prep_outstanding[dev].saturating_sub(1);
                    self.faults.prep_outstanding[new_dev] += 1;
                    let c = &mut self.chunks[id];
                    c.prep_dev = new_dev;
                    c.redispatch(); // stale the old completion
                    self.reroute_to_prep(now, id, dev, sched);
                }
                // Chunks still in flight toward the dead device re-route when
                // they arrive (dispatch_prep checks liveness); chunks waiting
                // on a retry backoff re-pick their target when the timer
                // fires.
            }
            FaultKind::PrepSlowdown { dev, factor, secs } => {
                if self.faults.prep_alive[dev] {
                    self.faults.prep_speed[dev] = factor;
                    sched.schedule_in(now, SimTime::from_secs_f64(secs), Ev::FaultRecover(i));
                }
                downtime(secs, &mut self.faults.stats);
            }
            FaultKind::LinkDegrade { link, fraction, secs } => {
                let cap = self.faults.nominal_caps[link] * fraction;
                self.pcie.sim.set_capacity(now, LinkId::from_index(link), cap);
                self.pcie.rearm(sched);
                sched.schedule_in(now, SimTime::from_secs_f64(secs), Ev::FaultRecover(i));
                downtime(secs, &mut self.faults.stats);
            }
            FaultKind::AccelDropout { acc } => {
                if !self.faults.accel_alive[acc] {
                    downtime(0.0, &mut self.faults.stats);
                    return;
                }
                self.faults.accel_alive[acc] = false;
                self.faults.stats.accels_lost += 1;
                downtime(f64::NAN, &mut self.faults.stats);
                // Prepared samples buffered at the dead device are lost; data
                // in flight toward it is counted when it arrives.
                let st = &mut self.accels[acc];
                self.faults.stats.wasted_samples += st.buffered;
                st.buffered = 0;
                let survivors = self.faults.alive_accels();
                assert!(survivors > 0, "all accelerators dropped out");
                // Re-form the synchronization group over the survivors: the
                // latency from here on is the smaller group's (a smaller
                // ring, fewer PS pushers, fewer all-to-all peers).
                self.t_sync = self.sync.sync_time(self.model_bytes, survivors);
                // The dead device may have been the barrier holdout.
                self.maybe_start_sync(now, sched);
            }
            FaultKind::PrepTransient { dev, secs } => {
                if self.faults.prep_alive[dev] {
                    let until = now + SimTime::from_secs_f64(secs);
                    self.faults.prep_flaky_until[dev] =
                        self.faults.prep_flaky_until[dev].max(until);
                }
                downtime(secs, &mut self.faults.stats);
            }
        }
    }

    /// End of fault plan entry `i`'s degradation window.
    fn on_fault_recover(&mut self, now: SimTime, i: usize, sched: &mut Scheduler<Ev>) {
        let (_, kind) = self.faults.events[i];
        if self.tracer.enabled() {
            self.tracer.instant(Component::Fault, "recover", fault_track(kind), now);
        }
        match kind {
            FaultKind::PrepSlowdown { dev, .. } => {
                if self.faults.prep_alive[dev] {
                    self.faults.prep_speed[dev] = 1.0;
                }
            }
            FaultKind::LinkDegrade { link, .. } => {
                let cap = self.faults.nominal_caps[link];
                self.pcie.sim.set_capacity(now, LinkId::from_index(link), cap);
                self.pcie.rearm(sched);
            }
            other => unreachable!("no recovery scheduled for {other:?}"),
        }
    }
}

impl<T: Tracer> Model for PipelineModel<T> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Start => {
                for i in 0..self.faults.events.len() {
                    let (at, _) = self.faults.events[i];
                    sched.schedule_at(at, Ev::Fault(i));
                }
                for acc in self.lane_range() {
                    self.refill(now, acc, sched);
                }
            }
            Ev::SsdDone(id) => self.start_leg(now, id, 0, sched),
            Ev::FlowCheck(plane) => {
                let Some((cont, start)) = self.plane(plane).complete() else { return };
                if self.tracer.enabled() {
                    let (name, track) = match (self.chunks.get(cont), plane) {
                        (Some(c), Plane::Pcie) => (self.xfer_name(c.stage), c.acc as u32),
                        (Some(c), Plane::Eth) => (self.xfer_name(c.stage), c.pool_dev as u32),
                        (None, Plane::Pcie) => ("xfer", 0),
                        (None, Plane::Eth) => ("eth", 0),
                    };
                    self.tracer.span(Component::Flow, name, track, start, now);
                }
                match plane {
                    Plane::Pcie => self.on_flow_done(now, cont, sched),
                    Plane::Eth => self.on_eth_flow_done(now, cont, sched),
                }
                self.plane(plane).rearm(sched);
            }
            Ev::PoolPrepDone(id) => self.on_pool_prep_done(now, id, sched),
            Ev::PrepDone(id, generation) => self.on_prep_done(now, id, generation, sched),
            Ev::ComputeDone(acc) => self.on_compute_done(now, acc, sched),
            Ev::SyncDone => self.on_sync_done(now, sched),
            Ev::Fault(i) => self.on_fault(now, i, sched),
            Ev::FaultRecover(i) => self.on_fault_recover(now, i, sched),
            Ev::PrepRetry(id) => self.on_prep_retry(now, id, sched),
            Ev::Release => self.on_resume(now, sched),
        }
        if self.tracer.enabled() {
            self.drain_flow_trace();
        }
    }
}

/// The fault-plan domain `server` exposes to the DES: the device and
/// directed-link counts exactly as the pipeline will see them, with an
/// unbounded horizon (a plan may schedule faults at any time).
///
/// [`FaultPlan::validate`] against this domain accepts precisely the plans
/// the simulation entry points accept; the request layer uses it to turn
/// what would be a panic into a typed error before the run starts.
pub fn fault_domain(server: &Server) -> FaultDomain {
    let topo = server.topology();
    // The baseline preps on the host: one fluid CPU pool, not per-device
    // prep servers, so it exposes a single prep target.
    let n_preps = match server.kind().datapath() {
        Datapath::HostCpu => 1,
        Datapath::HostStagedAccel | Datapath::P2pAccel | Datapath::Clustered => topo.preps.len(),
    };
    FaultDomain {
        n_ssds: topo.ssds.len(),
        n_preps,
        n_accels: server.n_accels(),
        n_links: topo.topo.link_count(),
        horizon_secs: f64::INFINITY,
    }
}

/// Why a deadline-aware DES run could not complete, with whatever the fault
/// layer had observed by then. The partial statistics let a timed-out
/// request report *how degraded* the simulated server already was instead
/// of discarding everything the run learned.
#[derive(Debug, Clone)]
pub(crate) struct DesFailure {
    /// The engine's typed failure (deadline, stall, or time overflow).
    pub(crate) error: SimError,
    /// Events processed before the run gave up.
    pub(crate) events: u64,
    /// Fault-layer statistics accumulated up to the failure point.
    pub(crate) partial_faults: FaultStats,
}

impl std::fmt::Display for DesFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({} faults injected)", self.error, self.partial_faults.injected)
    }
}

impl std::error::Error for DesFailure {}

/// The measured window needs a closed warm-up generation to start from and
/// at least one generation after it, and the pipeline needs chunks that
/// carry samples (a zero-sample chunk never fills the prefetch window).
pub(crate) fn check_window(cfg: &SimConfig) {
    assert!(cfg.warmup_batches >= 1, "need at least one warmup batch");
    assert!(cfg.batches > cfg.warmup_batches, "need batches after warmup");
    assert!(cfg.chunk_samples >= 1, "need at least one sample per chunk");
}

/// Steady-state throughput and closed fault accounting over the measured
/// window — the one closer behind solo, lane and cluster results.
///
/// `batch_done_at[g]` is when generation `g` closed and `batch_samples[g]`
/// the samples it synchronized (summed over partitions); `n_accels` is the
/// initial accelerator complement across all of them. Returns the effective
/// samples/s and `faults` with permanent losses' NaN downtime resolved to
/// the end of the run, and nominal throughput and goodput filled in.
pub(crate) fn steady_state(
    cfg: &SimConfig,
    batch_done_at: &[SimTime],
    batch_samples: &[u64],
    n_accels: usize,
    batch: u64,
    mut faults: FaultStats,
) -> (f64, FaultStats) {
    let warm = cfg.warmup_batches as usize;
    let first = batch_done_at[warm - 1];
    let last = *batch_done_at.last().expect("batches completed");
    let batches_measured = (cfg.batches - cfg.warmup_batches) as f64;
    let window = (last - first).as_secs_f64();
    // Samples actually synchronized in the measured window (with dropouts,
    // later generations contribute fewer samples than the first).
    let samples: u64 = batch_samples[warm..].iter().sum();
    let effective = samples as f64 / window;
    // Permanent losses were logged with NaN downtime; they lasted from
    // injection to the end of the run.
    let end = last.as_secs_f64();
    for d in &mut faults.downtime {
        if d.secs.is_nan() {
            d.secs = (end - d.at_secs).max(0.0);
        }
    }
    // Nominal: what the initial device complement would have synchronized
    // over the same window. Goodput: achieved throughput discounted by the
    // fraction of prepared/computed work that was thrown away.
    faults.nominal_samples_per_sec = batches_measured * n_accels as f64 * batch as f64 / window;
    let useful: u64 = batch_samples.iter().sum();
    faults.goodput_samples_per_sec = if faults.wasted_samples == 0 {
        effective
    } else {
        effective * useful as f64 / (useful + faults.wasted_samples) as f64
    };
    (effective, faults)
}

/// Diagnostic entry for benchmarks: if `(server, plan)` is eligible for the
/// intra-server lane partition, run the simulation once lane-partitioned and
/// return `(lanes, RunStats)` — the window runner's per-LP and per-window
/// event accounting, which feeds the deterministic load-imbalance and
/// work-span figures `bench_counters` and the benchmark report. `None` when
/// the configuration runs as one LP (in which case there is no partition to
/// account for).
///
/// The stats are a property of the partition, not of the clock: they are
/// byte-identical across worker counts and across runs.
///
/// # Panics
///
/// Panics on an invalid configuration or fault plan, or if the lane run
/// fails (benchmarks run healthy, deadline-free configurations).
pub fn intra_server_run_stats(
    server: &Server,
    workload: &Workload,
    cfg: &SimConfig,
    plan: &FaultPlan,
) -> Option<(usize, trainbox_sim::par::RunStats)> {
    let part = crate::intraserver::LanePartition::of(server, plan)?;
    let lanes = part.lanes;
    let partition = crate::barrier::Partition::Lanes(part);
    let (_, _, stats) =
        crate::barrier::simulate(server, workload, cfg, plan, partition, NoopTracer, None)
            .unwrap_or_else(|e| panic!("lane-partitioned run failed: {e}"));
    Some((lanes, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ServerConfig, ServerKind};
    use crate::barrier::simulate_server;

    /// Run the DES untraced and without a deadline, panicking on failure.
    fn run(server: &Server, workload: &Workload, cfg: &SimConfig, plan: &FaultPlan) -> SimResult {
        simulate_server(server, workload, cfg, plan, NoopTracer)
            .unwrap_or_else(|f| panic!("simulation failed: {f}"))
            .0
    }

    fn quick_cfg() -> SimConfig {
        SimConfig {
            chunk_samples: 128,
            batches: 8,
            warmup_batches: 4,
            prefetch_batches: 1,
            max_events: 5_000_000,
            parallel_workers: 0,
        }
    }

    /// Build a scaled-down server: n accelerators, reduced batch.
    fn sim_tp(kind: ServerKind, n: usize, w: &Workload, batch: u64) -> f64 {
        let server = ServerConfig::new(kind, n).batch_size(batch).build();
        run(&server, w, &quick_cfg(), &FaultPlan::empty()).samples_per_sec
    }

    fn analytic_tp(kind: ServerKind, n: usize, w: &Workload, batch: u64) -> f64 {
        ServerConfig::new(kind, n)
            .batch_size(batch)
            .build()
            .throughput(w)
            .samples_per_sec
    }

    #[test]
    fn des_matches_analytic_when_accelerator_bound() {
        // Small scale: accelerators bind; DES must track the analytic value.
        let w = Workload::inception_v4();
        let des = sim_tp(ServerKind::Baseline, 8, &w, 512);
        let ana = analytic_tp(ServerKind::Baseline, 8, &w, 512);
        let err = (des - ana).abs() / ana;
        assert!(err < 0.1, "des={des} ana={ana} err={err}");
    }

    #[test]
    fn des_matches_analytic_when_cpu_bound() {
        // 64 accelerators on the baseline: host CPU binds.
        let w = Workload::inception_v4();
        let des = sim_tp(ServerKind::Baseline, 64, &w, 256);
        let ana = analytic_tp(ServerKind::Baseline, 64, &w, 256);
        let err = (des - ana).abs() / ana;
        assert!(err < 0.15, "des={des} ana={ana} err={err}");
    }

    #[test]
    fn des_trainbox_matches_analytic() {
        let w = Workload::inception_v4();
        let des = sim_tp(ServerKind::TrainBoxNoPool, 32, &w, 512);
        let ana = analytic_tp(ServerKind::TrainBoxNoPool, 32, &w, 512);
        let err = (des - ana).abs() / ana;
        assert!(err < 0.1, "des={des} ana={ana} err={err}");
    }

    #[test]
    fn des_reproduces_the_ordering_baseline_acc_trainbox() {
        // The Fig 19 ordering must emerge from the simulated datapath alone.
        let w = Workload::resnet50();
        let base = sim_tp(ServerKind::Baseline, 64, &w, 1024);
        let acc = sim_tp(ServerKind::AccFpga, 64, &w, 1024);
        let tb = sim_tp(ServerKind::TrainBoxNoPool, 64, &w, 1024);
        assert!(acc > base, "acc={acc} base={base}");
        assert!(tb > acc, "tb={tb} acc={acc}");
    }

    #[test]
    fn des_p2p_removes_no_rc_traffic_vs_staged() {
        // P2P between chained boxes still crosses the root complex: the
        // simulated throughput must not improve materially over staged.
        let w = Workload::resnet50();
        let staged = sim_tp(ServerKind::AccFpga, 32, &w, 1024);
        let p2p = sim_tp(ServerKind::AccFpgaP2p, 32, &w, 1024);
        let ratio = p2p / staged;
        assert!((0.8..1.6).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn des_audio_workload_runs() {
        let w = Workload::transformer_sr();
        let des = sim_tp(ServerKind::TrainBoxNoPool, 16, &w, 128);
        assert!(des > 0.0);
        // Prep-bound at this scale: 4 FPGAs x 5200 = 20.8k.
        let ana = analytic_tp(ServerKind::TrainBoxNoPool, 16, &w, 128);
        let err = (des - ana).abs() / ana;
        assert!(err < 0.2, "des={des} ana={ana}");
    }

    #[test]
    fn batch_completion_times_are_monotone() {
        let w = Workload::rnn_s();
        let server = ServerConfig::new(ServerKind::Baseline, 8)
            .batch_size(256)
            .build();
        let r = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        assert_eq!(r.batch_done_at.len(), 8);
        for w in r.batch_done_at.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(r.events > 0);
    }

    #[test]
    fn clustering_eliminates_rc_traffic_in_the_des() {
        // The Step-3 mechanism, *measured* from the simulated flows: the
        // baseline pushes every byte through the root complex; the train-box
        // design keeps the RC share at zero.
        let w = Workload::inception_v4();
        let base_server = ServerConfig::new(ServerKind::Baseline, 16)
            .batch_size(512)
            .build();
        let base = run(&base_server, &w, &quick_cfg(), &FaultPlan::empty());
        assert!(base.rc_bytes > 0.0);
        let rc_share = base.rc_bytes / base.link_bytes.iter().sum::<f64>();
        assert!(rc_share > 0.3, "rc share {rc_share}");
        let tb_server = ServerConfig::new(ServerKind::TrainBoxNoPool, 16)
            .batch_size(512)
            .build();
        let tb = run(&tb_server, &w, &quick_cfg(), &FaultPlan::empty());
        assert_eq!(tb.rc_bytes, 0.0, "clustered prep traffic must stay in-box");
        assert!(tb.link_bytes.iter().sum::<f64>() > 0.0, "data did move");
    }

    #[test]
    fn staged_design_doubles_simulated_rc_bytes_per_sample() {
        // §IV-D's doubling argument, measured: per delivered sample, the
        // staged design moves ~2x the baseline's bytes through the RC.
        let w = Workload::inception_v4();
        let cfg = quick_cfg();
        let run = |kind| {
            let s = ServerConfig::new(kind, 16).batch_size(512).build();
            let r = run(&s, &w, &cfg, &FaultPlan::empty());
            r.rc_bytes / (cfg.batches as f64 * 16.0 * 512.0)
        };
        let base = run(ServerKind::Baseline);
        let staged = run(ServerKind::AccFpga);
        let ratio = staged / base;
        assert!((1.8..2.2).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn des_is_deterministic() {
        let w = Workload::rnn_s();
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 8)
            .batch_size(256)
            .build();
        let a = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        let b = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        assert_eq!(a, b);
    }

    /// TF-SR on a 16-accelerator TrainBox: prep-bound without the pool.
    fn pool_cfg() -> SimConfig {
        SimConfig {
            chunk_samples: 64,
            batches: 8,
            warmup_batches: 4,
            prefetch_batches: 1,
            max_events: 5_000_000,
            parallel_workers: 0,
        }
    }

    #[test]
    fn tracing_observes_without_perturbing() {
        use trainbox_sim::{Component, RingTracer, TraceRecord};
        // A traced run must produce the identical SimResult and emit spans
        // from the pipeline, flow, and collective components.
        let w = Workload::inception_v4();
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 16)
            .batch_size(512)
            .build();
        let plain = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        let tracer = RingTracer::new(1 << 20);
        let (traced, tracer) =
            simulate_server(&server, &w, &quick_cfg(), &FaultPlan::empty(), tracer)
                .expect("traced run completes");
        assert_eq!(plain, traced);
        let records = tracer.into_records();
        assert!(!records.is_empty());
        for component in [Component::Pipeline, Component::Flow, Component::Collective] {
            assert!(
                records.iter().any(|r| r.component() == component
                    && matches!(r, TraceRecord::Span { .. })),
                "no span from {component:?}"
            );
        }
        assert!(records.iter().any(|r| r.name() == "ssd_read"));
        assert!(records.iter().any(|r| r.name() == "prep"));
        assert!(records.iter().any(|r| r.name() == "compute"));
        assert!(records.iter().any(|r| r.name() == "allreduce"));
        assert!(records.iter().any(|r| r.name() == "ring_step"));
        assert!(records.iter().any(|r| r.name() == "pcie_active_flows"));

        // A pooled TrainBox also moves chunks over the Ethernet plane.
        let w = Workload::transformer_sr();
        let pooled = ServerConfig::new(ServerKind::TrainBox, 16).pool_fpgas(8).build();
        let plain = run(&pooled, &w, &pool_cfg(), &FaultPlan::empty());
        let tracer = RingTracer::new(1 << 20);
        let (traced, tracer) =
            simulate_server(&pooled, &w, &pool_cfg(), &FaultPlan::empty(), tracer)
                .expect("traced pooled run completes");
        assert_eq!(plain, traced);
        let records = tracer.into_records();
        for name in ["eth:to_pool", "eth:from_pool", "pool_prep"] {
            assert!(
                records.iter().any(|r| r.name() == name && matches!(r, TraceRecord::Span { .. })),
                "no {name} span"
            );
        }
        assert!(records.iter().any(|r| r.name() == "eth_active_flows"));
    }

    /// Trace one DES and count its flow spans by name.
    fn flow_span_counts(
        server: &Server,
        w: &Workload,
        cfg: &SimConfig,
        plan: &FaultPlan,
    ) -> Vec<(&'static str, usize)> {
        use trainbox_sim::{Component, RingTracer, TraceRecord};
        let (_, tracer) = simulate_server(server, w, cfg, plan, RingTracer::new(1 << 20))
            .expect("traced run completes");
        let mut counts = std::collections::BTreeMap::new();
        for r in tracer.records() {
            if r.component() == Component::Flow && matches!(r, TraceRecord::Span { .. }) {
                *counts.entry(r.name()).or_insert(0) += 1;
            }
        }
        counts.into_iter().collect()
    }

    #[test]
    fn flow_spans_name_each_designs_legs() {
        // Every chunk takes each leg of its design's datapath exactly once,
        // and each leg traces under its own name.
        let w = Workload::inception_v4();
        let chunks = 8 * 8 * 256 / 128;
        let staged = vec![
            ("xfer:host_to_prep", chunks),
            ("xfer:prep_to_host", chunks),
            ("xfer:to_accel", chunks),
            ("xfer:to_prep", chunks),
        ];
        let direct = vec![("xfer:to_accel", chunks), ("xfer:to_prep", chunks)];
        for (kind, want) in [
            (ServerKind::Baseline, &direct),
            (ServerKind::AccFpga, &staged),
            (ServerKind::AccGpu, &staged),
            (ServerKind::AccFpgaP2p, &direct),
            (ServerKind::TrainBoxNoPool, &direct),
        ] {
            let server = ServerConfig::new(kind, 8).batch_size(256).build();
            let got = flow_span_counts(&server, &w, &quick_cfg(), &FaultPlan::empty());
            assert_eq!(&got, want, "{kind:?}");
        }
        // The pooled TrainBox ships every third chunk of each FPGA through
        // the pool and back over Ethernet; every chunk still crosses PCIe
        // twice.
        let w = Workload::transformer_sr();
        let pooled = ServerConfig::new(ServerKind::TrainBox, 16)
            .pool_fpgas(8)
            .build();
        let got = flow_span_counts(&pooled, &w, &pool_cfg(), &FaultPlan::empty());
        assert_eq!(
            got,
            [
                ("eth:from_pool", 340),
                ("eth:to_pool", 340),
                ("xfer:to_accel", 1024),
                ("xfer:to_prep", 1024)
            ]
        );
    }

    #[test]
    fn prep_crash_redispatch_traces_the_datapaths_last_pre_leg() {
        // Staged designs re-send a stranded chunk from host memory; P2P
        // designs move it from the dead device to a survivor. Either way the
        // extra transfer traces under the name of the leg it repeats.
        let w = Workload::transformer_sr();
        let chunks = 16 * 8 * 512 / 128;
        for (kind, want) in [
            (
                ServerKind::AccFpga,
                vec![
                    ("xfer:host_to_prep", chunks + 50),
                    ("xfer:prep_to_host", chunks),
                    ("xfer:to_accel", chunks),
                    ("xfer:to_prep", chunks),
                ],
            ),
            (
                ServerKind::AccFpgaP2p,
                vec![("xfer:to_accel", chunks), ("xfer:to_prep", chunks + 47)],
            ),
        ] {
            let server = ServerConfig::new(kind, 16).build();
            let healthy = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
            let horizon = healthy.batch_done_at.last().unwrap().as_secs_f64();
            let mut plan = FaultPlan::empty();
            for dev in 0..3 {
                let at = horizon * (0.13 + 0.11 * dev as f64);
                plan = plan.at(at, FaultKind::PrepCrash { dev });
            }
            let got = flow_span_counts(&server, &w, &quick_cfg(), &plan);
            assert_eq!(got, want, "{kind:?}");
        }
    }

    #[test]
    fn traced_fault_storm_matches_untraced_and_records_injections() {
        use trainbox_sim::{Component, RingTracer};
        let w = Workload::inception_v4();
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 16)
            .batch_size(512)
            .build();
        let probe = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        let horizon = probe.batch_done_at.last().unwrap().as_secs_f64();
        let domain = crate::faults::FaultDomain {
            n_ssds: 4,
            n_preps: 4,
            n_accels: 16,
            n_links: probe.link_bytes.len(),
            horizon_secs: horizon,
        };
        let plan = FaultPlan::seeded(7, 4.0 / horizon, &domain);
        let plain = run(&server, &w, &quick_cfg(), &plan);
        let tracer = RingTracer::new(1 << 20);
        let (traced, tracer) = simulate_server(&server, &w, &quick_cfg(), &plan, tracer)
            .expect("traced run completes");
        assert_eq!(plain, traced);
        let injected = tracer
            .records()
            .filter(|r| r.component() == Component::Fault && r.name() != "recover")
            .count() as u64;
        assert_eq!(injected, traced.faults.injected);
    }

    #[test]
    fn exhausted_event_budget_is_a_typed_stall() {
        use trainbox_sim::SimError;
        let w = Workload::inception_v4();
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 16)
            .batch_size(512)
            .build();
        let cfg = SimConfig { max_events: 50, ..quick_cfg() };
        let err = simulate_server(&server, &w, &cfg, &FaultPlan::empty(), NoopTracer)
            .expect_err("50 events cannot complete 8 batches")
            .error;
        assert!(matches!(err, SimError::Stalled { events: 50, .. }), "{err:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(10))]

        /// Tracing is purely observational: for ANY seeded fault plan and
        /// server kind, the traced run produces the identical `SimResult` to
        /// the untraced one (the `NoopTracer` monomorphization and the
        /// `RingTracer` one drive the same event sequence).
        #[test]
        fn tracing_is_observational_under_random_fault_plans(
            seed in proptest::prelude::any::<u64>(),
            faults_per_run in 0u64..10,
            kind_idx in 0usize..3,
        ) {
            use trainbox_sim::RingTracer;
            let w = Workload::inception_v4();
            let kind = [ServerKind::Baseline, ServerKind::TrainBoxNoPool, ServerKind::AccFpga]
                [kind_idx];
            let server = ServerConfig::new(kind, 8).batch_size(256).build();
            let cfg = SimConfig { batches: 6, warmup_batches: 2, ..quick_cfg() };
            let probe = run(&server, &w, &cfg, &FaultPlan::empty());
            let horizon = probe.batch_done_at.last().unwrap().as_secs_f64();
            let domain = crate::faults::FaultDomain {
                n_ssds: server.topology().ssds.len(),
                n_preps: server.topology().preps.len(),
                n_accels: server.n_accels(),
                n_links: probe.link_bytes.len(),
                horizon_secs: horizon,
            };
            let plan = FaultPlan::seeded(seed, faults_per_run as f64 / horizon, &domain);
            let plain = run(&server, &w, &cfg, &plan);
            let tracer = RingTracer::new(1 << 18);
            let (traced, tracer) =
                simulate_server(&server, &w, &cfg, &plan, tracer).expect("traced run completes");
            proptest::prop_assert_eq!(plain, traced);
            proptest::prop_assert!(tracer.records().next().is_some());
        }
    }

    #[test]
    fn pool_offload_raises_simulated_audio_throughput() {
        // Fig 21b, simulated: TF-SR on 16 accelerators is prep-bound without
        // the pool; with pool FPGAs the DES throughput rises toward the
        // accelerator side.
        let w = Workload::transformer_sr();
        let cfg = pool_cfg();
        let no_pool = ServerConfig::new(ServerKind::TrainBoxNoPool, 16).build();
        let without = run(&no_pool, &w, &cfg, &FaultPlan::empty()).samples_per_sec;
        let with_pool = ServerConfig::new(ServerKind::TrainBox, 16)
            .pool_fpgas(8)
            .build();
        let with = run(&with_pool, &w, &cfg, &FaultPlan::empty()).samples_per_sec;
        assert!(
            with > without * 1.2,
            "pool should raise simulated throughput: {without} -> {with}"
        );
        // And it should approach the analytic TrainBox value.
        let ana = with_pool.throughput(&w).samples_per_sec;
        let err = (with - ana).abs() / ana;
        assert!(err < 0.25, "with={with} ana={ana}");
    }

    #[test]
    #[should_panic(expected = "need batches after warmup")]
    fn bad_sim_config_rejected() {
        let w = Workload::resnet50();
        let server = ServerConfig::new(ServerKind::Baseline, 8).build();
        let cfg = SimConfig { batches: 2, warmup_batches: 2, ..quick_cfg() };
        run(&server, &w, &cfg, &FaultPlan::empty());
    }

    #[test]
    #[should_panic(expected = "need at least one sample per chunk")]
    fn zero_sample_chunks_rejected() {
        let w = Workload::resnet50();
        let server = ServerConfig::new(ServerKind::Baseline, 8).build();
        let cfg = SimConfig { chunk_samples: 0, ..quick_cfg() };
        run(&server, &w, &cfg, &FaultPlan::empty());
    }

    #[test]
    fn empty_fault_plan_reproduces_the_fault_free_run() {
        // The fault layer must be strictly additive: an empty plan yields
        // the identical result, counters and all.
        let w = Workload::inception_v4();
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 16)
            .batch_size(512)
            .build();
        let plain = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        let faulted = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        assert_eq!(plain, faulted);
        assert_eq!(plain.faults.injected, 0);
        assert_eq!(plain.faults.wasted_samples, 0);
        assert_eq!(plain.faults.goodput_samples_per_sec, plain.samples_per_sec);
        assert_eq!(plain.faults.nominal_samples_per_sec, plain.samples_per_sec);
    }

    #[test]
    fn seeded_fault_storm_is_deterministic() {
        let w = Workload::inception_v4();
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 16)
            .batch_size(512)
            .build();
        let probe = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        let horizon = probe.batch_done_at.last().unwrap().as_secs_f64();
        let domain = crate::faults::FaultDomain {
            n_ssds: 4,
            n_preps: 4,
            n_accels: 16,
            n_links: probe.link_bytes.len(),
            horizon_secs: horizon,
        };
        let plan = FaultPlan::seeded(42, 6.0 / horizon, &domain);
        assert!(!plan.is_empty());
        let a = run(&server, &w, &quick_cfg(), &plan);
        let b = run(&server, &w, &quick_cfg(), &plan);
        assert_eq!(a, b);
        assert_eq!(a.faults.injected, plan.events.len() as u64);
    }

    #[test]
    fn accel_dropout_reforms_the_ring_within_the_analytic_bound() {
        // Drop half the accelerators of a 16-accel train-box server at the
        // very start: the survivors re-form an 8-way ring and the steady
        // state must approach the analytic 8-accel configuration.
        let w = Workload::inception_v4();
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 16)
            .batch_size(512)
            .build();
        let mut plan = FaultPlan::empty();
        for acc in 8..16 {
            plan = plan.at(1e-9, FaultKind::AccelDropout { acc });
        }
        let r = run(&server, &w, &quick_cfg(), &plan);
        assert_eq!(r.faults.accels_lost, 8);
        assert!(r.faults.wasted_samples > 0, "in-flight data to dead devices is wasted");
        let ana = analytic_tp(ServerKind::TrainBoxNoPool, 8, &w, 512);
        let err = (r.samples_per_sec - ana).abs() / ana;
        assert!(err < 0.15, "des={} ana={ana} err={err}", r.samples_per_sec);
        // Accounting invariants: achieved <= nominal, goodput <= achieved.
        assert!(r.samples_per_sec < r.faults.nominal_samples_per_sec);
        assert!(r.faults.goodput_samples_per_sec < r.samples_per_sec);
        // Dropouts are permanent: downtime runs to the end of the run.
        let end = r.batch_done_at.last().unwrap().as_secs_f64();
        for d in &r.faults.downtime {
            assert_eq!(d.kind, "accel-dropout");
            assert!((d.secs - end).abs() < 1e-6);
        }
    }

    #[test]
    fn prep_crash_rebalances_work_onto_survivors() {
        // Crash one of the four FPGAs mid-run: the run still completes, the
        // work lands on the survivors, and throughput does not exceed the
        // fault-free value.
        let w = Workload::inception_v4();
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 16)
            .batch_size(512)
            .build();
        let healthy = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        let horizon = healthy.batch_done_at.last().unwrap().as_secs_f64();
        let plan = FaultPlan::empty().at(horizon * 0.25, FaultKind::PrepCrash { dev: 0 });
        let r = run(&server, &w, &quick_cfg(), &plan);
        assert_eq!(r.faults.preps_lost, 1);
        assert_eq!(r.batch_done_at.len(), quick_cfg().batches as usize);
        assert!(
            r.samples_per_sec <= healthy.samples_per_sec * 1.001,
            "losing a prep device cannot speed the server up: {} vs {}",
            r.samples_per_sec,
            healthy.samples_per_sec
        );
    }

    #[test]
    fn degrading_the_hottest_links_lowers_throughput() {
        // Find the busiest links of a baseline run, then throttle them to 2%
        // for the whole run: the simulated throughput must drop.
        let w = Workload::inception_v4();
        let server = ServerConfig::new(ServerKind::Baseline, 16).batch_size(512).build();
        let healthy = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        let mut hot: Vec<usize> = (0..healthy.link_bytes.len()).collect();
        hot.sort_by(|&a, &b| healthy.link_bytes[b].total_cmp(&healthy.link_bytes[a]));
        let mut plan = FaultPlan::empty();
        for &link in hot.iter().take(4) {
            plan = plan.at(0.0, FaultKind::LinkDegrade { link, fraction: 0.02, secs: 1e3 });
        }
        let r = run(&server, &w, &quick_cfg(), &plan);
        assert!(
            r.samples_per_sec < healthy.samples_per_sec * 0.9,
            "degraded {} vs healthy {}",
            r.samples_per_sec,
            healthy.samples_per_sec
        );
    }

    #[test]
    fn link_degradation_with_recovery_is_transient() {
        // A short degradation delays early batches but the server recovers:
        // the run completes and later batches proceed at full pace.
        let w = Workload::inception_v4();
        let server = ServerConfig::new(ServerKind::Baseline, 16).batch_size(512).build();
        let healthy = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        let hot = (0..healthy.link_bytes.len())
            .max_by(|&a, &b| healthy.link_bytes[a].total_cmp(&healthy.link_bytes[b]))
            .unwrap();
        let window = healthy.batch_done_at[0].as_secs_f64();
        let plan = FaultPlan::empty()
            .at(0.0, FaultKind::LinkDegrade { link: hot, fraction: 0.05, secs: window });
        let r = run(&server, &w, &quick_cfg(), &plan);
        assert!(r.batch_done_at[0] >= healthy.batch_done_at[0]);
        assert_eq!(r.batch_done_at.len(), healthy.batch_done_at.len());
    }

    #[test]
    fn transient_prep_failures_retry_with_backoff() {
        // Make one FPGA reject requests early on: affected chunks retry
        // (rerouting to the healthy sibling) and the run completes.
        let w = Workload::inception_v4();
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 8)
            .batch_size(512)
            .build();
        let healthy = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        let horizon = healthy.batch_done_at.last().unwrap().as_secs_f64();
        let plan = FaultPlan::empty()
            .at(0.0, FaultKind::PrepTransient { dev: 0, secs: horizon * 0.3 });
        let r = run(&server, &w, &quick_cfg(), &plan);
        assert!(r.faults.retries > 0, "flaky device must force retries");
        assert_eq!(r.batch_done_at.len(), quick_cfg().batches as usize);
        let again = run(&server, &w, &quick_cfg(), &plan);
        assert_eq!(r, again);
    }

    #[test]
    fn ssd_stall_delays_the_run() {
        // Stall every SSD for most of the run: reads issued after the stall
        // wait it out (the initial prefetched wave is already queued ahead),
        // so the run must finish later than the healthy one.
        let w = Workload::inception_v4();
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 16)
            .batch_size(512)
            .build();
        let healthy = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        let horizon = healthy.batch_done_at.last().unwrap().as_secs_f64();
        let mut plan = FaultPlan::empty();
        for ssd in 0..4 {
            plan = plan.at(0.0, FaultKind::SsdStall { ssd, secs: horizon });
        }
        let r = run(&server, &w, &quick_cfg(), &plan);
        assert!(
            *r.batch_done_at.last().unwrap() > *healthy.batch_done_at.last().unwrap(),
            "stalled SSDs must delay the run"
        );
        assert_eq!(r.batch_done_at.len(), healthy.batch_done_at.len());
    }

    #[test]
    fn prep_slowdown_throttles_a_prep_bound_workload() {
        let w = Workload::transformer_sr();
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 16).build();
        let healthy = run(&server, &w, &quick_cfg(), &FaultPlan::empty());
        let horizon = healthy.batch_done_at.last().unwrap().as_secs_f64();
        // Quarter every FPGA for far longer than the run: TF-SR is
        // prep-bound at this scale, so the measured window sees the full
        // slowdown.
        let mut plan = FaultPlan::empty();
        for dev in 0..4 {
            plan = plan
                .at(0.0, FaultKind::PrepSlowdown { dev, factor: 0.25, secs: horizon * 20.0 });
        }
        let r = run(&server, &w, &quick_cfg(), &plan);
        assert!(
            r.samples_per_sec < healthy.samples_per_sec * 0.6,
            "throttled {} vs healthy {}",
            r.samples_per_sec,
            healthy.samples_per_sec
        );
    }

    #[test]
    #[should_panic(expected = "invalid fault plan")]
    fn out_of_range_fault_target_rejected() {
        let w = Workload::resnet50();
        let server = ServerConfig::new(ServerKind::Baseline, 8).build();
        let plan = FaultPlan::empty().at(0.0, FaultKind::AccelDropout { acc: 99 });
        run(&server, &w, &quick_cfg(), &plan);
    }
}
