//! The canonical what-if query API.
//!
//! Every question this reproduction can answer — "what does workload W
//! sustain on server S, analytically or under the DES, with or without a
//! fault storm?" — is one [`SimRequest`] answered by [`SimRequest::run`].
//! The figure binaries, the test suites, and the `trainbox-serve` HTTP
//! service all speak this one type. [`SimRequest::run_des_with_tracer`]
//! exposes the same DES path with a caller-supplied tracer, and
//! [`crate::pipeline::intra_server_run_stats`] its lane-runner accounting;
//! there is no other public way to run the simulator.
//!
//! # Canonical form and content hashing
//!
//! A request accepts lenient JSON on the way in (omitted knobs fall back to
//! defaults, workloads may be named instead of spelled out) and normalizes
//! to a *canonical form* on parse: [`SimRequest::canonical_json`]
//! re-serializes the parsed struct with every field present, fields in
//! declaration order, and named workloads resolved to their full Table-I
//! parameter sets. [`SimRequest::canonical_hash`] is FNV-1a 64 over those
//! bytes, so two clients asking the same question — regardless of key
//! order, whitespace, spelling a workload by name or by value, or stating
//! a default explicitly as `null` — produce the same hash. The serving
//! layer uses that hash as its cache and coalescing key; correctness rests
//! on the simulator's determinism (same request, same answer, always).
//!
//! ```
//! use trainbox_core::request::SimRequest;
//!
//! let req = SimRequest::from_json_str(
//!     r#"{"server": {"kind": "TrainBox", "n_accels": 256},
//!         "workload": "Resnet-50"}"#,
//! )
//! .unwrap();
//! let resp = req.run().unwrap();
//! assert_eq!(resp.config_hash, req.hash_hex());
//! ```

use std::sync::OnceLock;
use std::time::Instant;

use crate::arch::{ConfigError, Server, ServerConfig, ServerKind, Throughput};
use crate::faults::FaultPlan;
use crate::faults::FaultStats;
use crate::barrier::Partition;
use crate::pipeline::{fault_domain, DesFailure, SimConfig, SimResult};
use crate::scaleout::{ClusterResult, ClusterSpec, ClusterThroughput};
use serde::{Deserialize, Serialize};
use trainbox_collective::RingModel;
use trainbox_nn::Workload;
use trainbox_sim::{NoopTracer, RingTracer, TraceSummary, Tracer};

/// The server half of a request: which design, at what scale, with which
/// overrides. Mirrors [`ServerConfig`]'s builder knobs as plain data.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServerSpec {
    /// Which of the paper's seven designs to build.
    pub kind: ServerKind,
    /// Accelerator count.
    pub n_accels: usize,
    /// Per-accelerator batch override (`null`/omitted = the workload's
    /// Table-I batch).
    pub batch_size: Option<u64>,
    /// Prep-pool FPGA count (`null`/omitted = 256 for
    /// [`ServerKind::TrainBox`], 0 otherwise).
    pub pool_fpgas: Option<usize>,
    /// Synchronization-fabric override (`null`/omitted = the NVLink-class
    /// default).
    pub ring: Option<RingModel>,
}

impl ServerSpec {
    /// A spec with no overrides.
    pub fn new(kind: ServerKind, n_accels: usize) -> Self {
        ServerSpec { kind, n_accels, batch_size: None, pool_fpgas: None, ring: None }
    }

    /// The equivalent [`ServerConfig`] builder state.
    pub fn to_config(&self) -> ServerConfig {
        let mut cfg = ServerConfig::new(self.kind, self.n_accels);
        if let Some(batch) = self.batch_size {
            cfg = cfg.batch_size(batch);
        }
        if let Some(pool) = self.pool_fpgas {
            cfg = cfg.pool_fpgas(pool);
        }
        if let Some(ring) = self.ring {
            cfg = cfg.ring_model(ring);
        }
        cfg
    }
}

// Lenient: only `kind` and `n_accels` are required.
impl Deserialize for ServerSpec {
    fn from_json(v: &serde::json::Json) -> Result<Self, serde::json::JsonError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::json::JsonError::type_mismatch("ServerSpec", "object"))?;
        let mut kind = None;
        let mut spec = ServerSpec::new(ServerKind::Baseline, 0);
        for (key, val) in obj {
            match key.as_str() {
                "kind" => kind = Some(Deserialize::from_json(val)?),
                "n_accels" => spec.n_accels = Deserialize::from_json(val)?,
                "batch_size" => spec.batch_size = Deserialize::from_json(val)?,
                "pool_fpgas" => spec.pool_fpgas = Deserialize::from_json(val)?,
                "ring" => spec.ring = Deserialize::from_json(val)?,
                other => {
                    return Err(serde::json::JsonError::new(format!(
                        "unknown field `{other}` in server spec"
                    )))
                }
            }
        }
        spec.kind = kind
            .ok_or_else(|| serde::json::JsonError::missing_field("ServerSpec", "kind"))?;
        if !obj.iter().any(|(k, _)| k == "n_accels") {
            return Err(serde::json::JsonError::missing_field("ServerSpec", "n_accels"));
        }
        Ok(spec)
    }
}

/// The workload half of a request, always resolved to a full [`Workload`].
///
/// On the wire it may be a Table-I name (`"Resnet-50"`, case-insensitive)
/// or a complete workload object; both parse to the same canonical value,
/// so they hash — and cache — identically.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec(pub Workload);

impl WorkloadSpec {
    /// Resolve a Table-I workload name (case-insensitive).
    pub fn named(name: &str) -> Option<Self> {
        Workload::by_name(name).map(WorkloadSpec)
    }

    /// The resolved workload.
    pub fn workload(&self) -> &Workload {
        &self.0
    }
}

impl From<Workload> for WorkloadSpec {
    fn from(w: Workload) -> Self {
        WorkloadSpec(w)
    }
}

impl Serialize for WorkloadSpec {
    fn to_json(&self) -> serde::json::Json {
        self.0.to_json()
    }
}

impl Deserialize for WorkloadSpec {
    fn from_json(v: &serde::json::Json) -> Result<Self, serde::json::JsonError> {
        if let Some(name) = v.as_str() {
            return WorkloadSpec::named(name).ok_or_else(|| {
                let known: Vec<&str> =
                    Workload::presets().iter().map(|w| w.name.as_str()).collect();
                serde::json::JsonError::new(format!(
                    "unknown workload `{name}` (known: {})",
                    known.join(", ")
                ))
            });
        }
        // Inline specs (flat, stage-graph, or tenanted) must pass the DSL's
        // own validation so a malformed workload fails the parse with a
        // field-level message instead of panicking mid-simulation.
        let w = Workload::from_json(v)?;
        w.validate().map_err(|e| {
            serde::json::JsonError::new(format!("invalid workload: {e} (field `{}`)", e.field()))
        })?;
        Ok(WorkloadSpec(w))
    }
}

/// How to answer the question: the closed-form bottleneck model or the
/// discrete-event simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SimMode {
    /// The analytic throughput model ([`Server::throughput`]); instant, no
    /// fault support.
    Analytic,
    /// The full DES ([`crate::pipeline`]) under the given configuration.
    Des(SimConfig),
}

/// One canonical what-if question.
///
/// Parse with [`Self::from_json_str`] (lenient), answer with [`Self::run`],
/// key caches with [`Self::canonical_hash`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimRequest {
    /// Which server to ask about.
    pub server: ServerSpec,
    /// Which workload to train.
    pub workload: WorkloadSpec,
    /// Analytic model or DES (omitted = analytic).
    pub sim: SimMode,
    /// Faults to replay during a DES run (omitted = fault-free; rejected
    /// for analytic runs, which cannot exercise them).
    pub faults: Option<FaultPlan>,
    /// Collect a structured execution trace during a DES run and attach its
    /// per-component utilization summary to the response. Ignored by
    /// analytic runs. Never changes the simulation result.
    pub trace: bool,
    /// Wall-clock budget for answering, in milliseconds (omitted = no
    /// deadline). A DES run checks the clock cooperatively and fails with
    /// [`SimError::DeadlineExceeded`] once it expires; a run that completes
    /// in time produces exactly the untimed answer.
    ///
    /// A deadline is a quality-of-service hint, **not part of the
    /// question**: it is excluded from [`Self::canonical_json`] and
    /// [`Self::canonical_hash`], so timed and untimed spellings of the same
    /// what-if share one cache entry.
    pub deadline_ms: Option<u64>,
    /// Ask about a multi-server cluster of identical `server`s instead of a
    /// single server (omitted = single server). Analytic requests answer
    /// with [`ClusterSpec::analytic`]; DES requests simulate every server as
    /// a logical process under the conservative parallel runner and a
    /// fault plan replays on server 0.
    ///
    /// Unlike `deadline_ms` this *is* part of the question and of the
    /// canonical form — but it is emitted only when present, so existing
    /// single-server requests keep their canonical bytes and hashes.
    pub cluster: Option<ClusterSpec>,
}

// Hand-written (not derived) to keep `deadline_ms` out of the canonical
// form: the canonical bytes answer "what is being asked", and a deadline
// only says how long the asker will wait.
impl Serialize for SimRequest {
    fn to_json(&self) -> serde::json::Json {
        let mut fields = vec![
            ("server".to_string(), self.server.to_json()),
            ("workload".to_string(), self.workload.to_json()),
            ("sim".to_string(), self.sim.to_json()),
            ("faults".to_string(), self.faults.to_json()),
            ("trace".to_string(), self.trace.to_json()),
        ];
        // Emitted only when present so single-server requests keep the
        // canonical bytes (and hashes) they had before clusters existed.
        if let Some(cluster) = &self.cluster {
            fields.push(("cluster".to_string(), cluster.to_json()));
        }
        serde::json::Json::Object(fields)
    }
}

// Lenient: `server` and `workload` are required, everything else defaults.
impl Deserialize for SimRequest {
    fn from_json(v: &serde::json::Json) -> Result<Self, serde::json::JsonError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::json::JsonError::type_mismatch("SimRequest", "object"))?;
        let mut server = None;
        let mut workload = None;
        let mut sim = SimMode::Analytic;
        let mut faults = None;
        let mut trace = false;
        let mut deadline_ms = None;
        let mut cluster = None;
        for (key, val) in obj {
            match key.as_str() {
                "server" => server = Some(Deserialize::from_json(val)?),
                "workload" => workload = Some(Deserialize::from_json(val)?),
                "sim" => {
                    if !matches!(val, serde::json::Json::Null) {
                        sim = Deserialize::from_json(val)?;
                    }
                }
                "faults" => faults = Deserialize::from_json(val)?,
                "trace" => {
                    if !matches!(val, serde::json::Json::Null) {
                        trace = Deserialize::from_json(val)?;
                    }
                }
                "deadline_ms" => deadline_ms = Deserialize::from_json(val)?,
                "cluster" => cluster = Deserialize::from_json(val)?,
                other => {
                    return Err(serde::json::JsonError::new(format!(
                        "unknown field `{other}` in request"
                    )))
                }
            }
        }
        Ok(SimRequest {
            server: server
                .ok_or_else(|| serde::json::JsonError::missing_field("SimRequest", "server"))?,
            workload: workload
                .ok_or_else(|| serde::json::JsonError::missing_field("SimRequest", "workload"))?,
            sim,
            faults,
            trace,
            deadline_ms,
            cluster,
        })
    }
}

/// What went wrong answering a [`SimRequest`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SimError {
    /// The request body was not valid JSON or not a valid request shape.
    Parse(String),
    /// The server spec cannot describe a real server.
    Config(ConfigError),
    /// The fault plan does not fit the server it targets.
    InvalidPlan(String),
    /// The DES configuration is self-contradictory (e.g. no batches left
    /// after warmup).
    InvalidSim(String),
    /// The cluster spec cannot describe a real cluster (zero servers,
    /// non-positive fabric bandwidth, …).
    InvalidCluster(String),
    /// Faults were supplied with the analytic model, which cannot replay
    /// them; ignoring them silently would misreport degraded throughput.
    FaultsRequireDes,
    /// The engine could not complete the run (event-budget exhaustion,
    /// simulated-time overflow).
    Engine(String),
    /// The request's wall-clock deadline expired before the DES finished.
    /// Carries what the run had observed so far rather than a bare timeout.
    DeadlineExceeded {
        /// The deadline that expired, milliseconds.
        deadline_ms: u64,
        /// Events the engine processed before giving up.
        events: u64,
        /// Fault-layer statistics accumulated up to the cancellation point
        /// (all-zero for a fault-free run).
        partial_faults: FaultStats,
    },
}

impl SimError {
    /// Dotted path of the request field at fault, for field-level HTTP 400
    /// messages ("body" when the problem precedes field resolution).
    pub fn field(&self) -> &'static str {
        match self {
            SimError::Parse(_) => "body",
            SimError::Config(e) => e.field(),
            SimError::InvalidPlan(_) | SimError::FaultsRequireDes => "faults",
            SimError::InvalidSim(_) => "sim",
            SimError::InvalidCluster(_) => "cluster",
            SimError::Engine(_) => "sim",
            SimError::DeadlineExceeded { .. } => "deadline_ms",
        }
    }

    /// Whether the request itself was at fault (an HTTP 400), as opposed to
    /// the engine failing to complete a well-formed request.
    pub fn is_client_error(&self) -> bool {
        !matches!(self, SimError::Engine(_) | SimError::DeadlineExceeded { .. })
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Parse(msg) => write!(f, "invalid request: {msg}"),
            SimError::Config(e) => write!(f, "invalid server config: {e}"),
            SimError::InvalidPlan(msg) => write!(f, "invalid fault plan: {msg}"),
            SimError::InvalidSim(msg) => write!(f, "invalid sim config: {msg}"),
            SimError::InvalidCluster(msg) => write!(f, "invalid cluster spec: {msg}"),
            SimError::FaultsRequireDes => {
                write!(f, "fault plans require a DES sim mode; the analytic model cannot replay them")
            }
            SimError::Engine(msg) => write!(f, "simulation failed: {msg}"),
            SimError::DeadlineExceeded { deadline_ms, events, partial_faults } => write!(
                f,
                "deadline of {deadline_ms} ms exceeded after {events} events \
                 ({} faults observed)",
                partial_faults.injected
            ),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

/// The answer payload: which model produced it and what it said.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum SimOutcome {
    /// Closed-form bottleneck analysis.
    Analytic(Throughput),
    /// Discrete-event simulation.
    Des(SimResult),
    /// Closed-form cluster analysis ([`ClusterSpec::analytic`]).
    ClusterAnalytic(ClusterThroughput),
    /// Cluster discrete-event simulation (one logical process per server
    /// under the conservative parallel runner).
    Cluster(ClusterResult),
}

impl SimOutcome {
    /// Steady-state throughput, samples/s, whichever model produced it.
    pub fn samples_per_sec(&self) -> f64 {
        match self {
            SimOutcome::Analytic(t) => t.samples_per_sec,
            SimOutcome::Des(r) => r.samples_per_sec,
            SimOutcome::ClusterAnalytic(t) => t.samples_per_sec,
            SimOutcome::Cluster(r) => r.samples_per_sec,
        }
    }
}

/// A [`SimRequest`]'s answer plus provenance: enough to tell *which code*
/// answered *which question*, and what it cost.
#[derive(Debug, Clone, Serialize)]
pub struct SimResponse {
    /// [`SimRequest::hash_hex`] of the canonical request — the cache key
    /// this answer is stored under.
    pub config_hash: String,
    /// The answer.
    pub outcome: SimOutcome,
    /// `git describe --always --dirty` of the serving tree ("unknown"
    /// outside a git checkout).
    pub git_describe: String,
    /// Crate version of the answering engine.
    pub version: String,
    /// Wall-clock time the computation took, milliseconds. Provenance, not
    /// part of the deterministic answer.
    pub wall_ms: f64,
    /// True when a serving layer answered a DES question with the cheaper
    /// analytic model because the DES tier was unavailable or out of
    /// deadline budget. [`SimRequest::run`] itself always sets this false;
    /// degradation is a serving-policy decision, flagged honestly in the
    /// provenance so a degraded answer can never masquerade as the real one.
    pub degraded: bool,
    /// Per-component utilization rollup of the traced run (DES with
    /// `trace: true` only).
    pub trace: Option<TraceSummary>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// `git describe --always --dirty` of the working tree, computed once per
/// process. "unknown" when git or the checkout is unavailable.
pub fn git_describe() -> &'static str {
    static DESCRIBE: OnceLock<String> = OnceLock::new();
    DESCRIBE.get_or_init(|| {
        std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

impl SimRequest {
    /// An analytic request with no overrides — the shorthand behind
    /// [`crate::arch::throughput_of`].
    pub fn analytic(kind: ServerKind, n_accels: usize, workload: Workload) -> Self {
        SimRequest {
            server: ServerSpec::new(kind, n_accels),
            workload: WorkloadSpec(workload),
            sim: SimMode::Analytic,
            faults: None,
            trace: false,
            deadline_ms: None,
            cluster: None,
        }
    }

    /// A DES request with no faults and no overrides.
    pub fn des(kind: ServerKind, n_accels: usize, workload: Workload, cfg: SimConfig) -> Self {
        SimRequest {
            server: ServerSpec::new(kind, n_accels),
            workload: WorkloadSpec(workload),
            sim: SimMode::Des(cfg),
            faults: None,
            trace: false,
            deadline_ms: None,
            cluster: None,
        }
    }

    /// Builder-style deadline: the run must answer within `ms` milliseconds
    /// or fail with [`SimError::DeadlineExceeded`].
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Builder-style cluster: ask about `spec.servers` copies of the server
    /// joined by `spec`'s Ethernet fabric instead of a single server.
    pub fn with_cluster(mut self, spec: ClusterSpec) -> Self {
        self.cluster = Some(spec);
        self
    }

    /// Parse a request from lenient JSON text (the HTTP wire format).
    pub fn from_json_str(text: &str) -> Result<Self, SimError> {
        let value = trainbox_sim::json::parse(text)
            .map_err(|e| SimError::Parse(e.to_string()))?;
        Deserialize::from_json(&value).map_err(|e| SimError::Parse(e.to_string()))
    }

    /// The canonical serialization: every field present, declaration order,
    /// named workloads resolved. Equal requests — under any wire spelling —
    /// produce equal canonical bytes.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("request serialization is infallible")
    }

    /// FNV-1a 64 over [`Self::canonical_json`] — the cache/coalescing key.
    pub fn canonical_hash(&self) -> u64 {
        fnv1a64(self.canonical_json().as_bytes())
    }

    /// [`Self::canonical_hash`] as fixed-width lowercase hex.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.canonical_hash())
    }

    /// Validate and build the server this request targets.
    pub fn build_server(&self) -> Result<Server, SimError> {
        Ok(self.server.to_config().try_build()?)
    }

    /// Answer the question.
    ///
    /// This is *the* simulation entry point: analytic requests evaluate the
    /// bottleneck model, DES requests run the event-driven datapath (with
    /// faults and tracing as requested). Every failure mode is a typed
    /// [`SimError`]; nothing panics on bad input.
    pub fn run(&self) -> Result<SimResponse, SimError> {
        let started = Instant::now();
        // The deadline clock starts when the engine does, covering server
        // construction and the full DES; the analytic model is closed-form
        // (microseconds), so no deadline can be "too tight" for it.
        let deadline = self
            .deadline_ms
            .map(|ms| started + std::time::Duration::from_millis(ms));
        let server = self.checked_server()?;
        let workload = self.workload.workload();
        let (outcome, trace) = match self.sim {
            SimMode::Analytic => {
                if self.faults.as_ref().is_some_and(|p| !p.is_empty()) {
                    return Err(SimError::FaultsRequireDes);
                }
                let outcome = match &self.cluster {
                    Some(c) => SimOutcome::ClusterAnalytic(c.analytic(&server, workload)),
                    None => SimOutcome::Analytic(server.throughput(workload)),
                };
                (outcome, None)
            }
            SimMode::Des(cfg) if self.trace => {
                // Partitioned runs merge their per-LP streams in LP-index
                // order, so the summary does not depend on how many workers
                // advanced them.
                let tracer = RingTracer::new(RingTracer::DEFAULT_CAPACITY);
                let (outcome, tracer) = self.des_outcome(&server, &cfg, tracer, deadline)?;
                let records: Vec<_> = tracer.records().cloned().collect();
                (outcome, Some(TraceSummary::from_records(&records, tracer.dropped())))
            }
            SimMode::Des(cfg) => (self.des_outcome(&server, &cfg, NoopTracer, deadline)?.0, None),
        };
        Ok(SimResponse {
            config_hash: self.hash_hex(),
            outcome,
            git_describe: git_describe().to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            degraded: false,
            trace,
        })
    }

    /// DES with a caller-supplied tracer (the figure binaries' `--trace`
    /// export path, which needs the raw records, not just the summary):
    /// the same run, and the same [`SimOutcome`], as [`Self::run`]'s.
    ///
    /// # Errors
    ///
    /// As [`Self::run`]; additionally [`SimError::InvalidSim`] when the
    /// request's mode is analytic.
    pub fn run_des_with_tracer<T: Tracer + Send>(
        &self,
        tracer: T,
    ) -> Result<(SimOutcome, T), SimError> {
        let server = self.checked_server()?;
        let SimMode::Des(cfg) = self.sim else {
            return Err(SimError::InvalidSim(
                "run_des_with_tracer needs a DES sim mode".to_string(),
            ));
        };
        let deadline = self
            .deadline_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms));
        self.des_outcome(&server, &cfg, tracer, deadline)
    }

    /// The server, once it builds and the request's cluster (if any) is
    /// valid.
    fn checked_server(&self) -> Result<Server, SimError> {
        let server = self.build_server()?;
        if let Some(cluster) = &self.cluster {
            cluster.validate().map_err(SimError::InvalidCluster)?;
        }
        Ok(server)
    }

    /// Validate everything the engine would otherwise assert on, then run
    /// the DES partitioned as [`Partition::of`] picks: one server (solo or
    /// lanes), or every server of the request's cluster as a logical
    /// process. A cluster's fault plan is validated against one server's
    /// domain — it replays on server 0 only.
    fn des_outcome<T: Tracer + Send>(
        &self,
        server: &Server,
        cfg: &SimConfig,
        tracer: T,
        deadline: Option<Instant>,
    ) -> Result<(SimOutcome, T), SimError> {
        let plan = self.validated_plan(server, cfg)?;
        let partition = Partition::of(server, &plan, self.cluster.as_ref());
        let workload = self.workload.workload();
        crate::barrier::simulate(server, workload, cfg, &plan, partition, tracer, deadline)
            .map(|(outcome, tracer, _)| (outcome, tracer))
            .map_err(|failure| self.des_error(failure))
    }

    /// The checks every DES run needs: a warm-up batch to measure from, at
    /// least one measured batch after it, at least one sample per chunk,
    /// and a fault plan (empty when absent) that fits one `server`.
    fn validated_plan(&self, server: &Server, cfg: &SimConfig) -> Result<FaultPlan, SimError> {
        if cfg.warmup_batches == 0 || cfg.batches <= cfg.warmup_batches {
            return Err(SimError::InvalidSim(format!(
                "need at least one warmup batch and one measured batch after it \
                 (batches = {}, warmup_batches = {})",
                cfg.batches, cfg.warmup_batches
            )));
        }
        if cfg.chunk_samples == 0 {
            // A zero-sample chunk never fills the prefetch window, so the
            // pipeline would create chunks forever inside one event.
            return Err(SimError::InvalidSim(
                "chunk_samples must be at least 1".to_string(),
            ));
        }
        let plan = self.faults.clone().unwrap_or_default();
        plan.validate(&fault_domain(server)).map_err(SimError::InvalidPlan)?;
        Ok(plan)
    }

    /// The typed request error for a DES run that could not complete.
    fn des_error(&self, failure: DesFailure) -> SimError {
        match failure.error {
            trainbox_sim::SimError::DeadlineExceeded { .. } => SimError::DeadlineExceeded {
                deadline_ms: self.deadline_ms.unwrap_or(0),
                events: failure.events,
                partial_faults: failure.partial_faults,
            },
            other => SimError::Engine(other.to_string()),
        }
    }
}

/// FNV-1a 64 over arbitrary canonical bytes — the same function behind
/// [`SimRequest::canonical_hash`], exported so callers that already hold
/// the canonical JSON (the serving tier's verified cache) can key without
/// re-serializing.
pub fn canonical_hash_of(canonical_json: &str) -> u64 {
    fnv1a64(canonical_json.as_bytes())
}

/// The preset catalog behind `GET /workloads`: every preset (seven Table-I
/// workloads plus the DSL families), each with its canonical workload JSON
/// and the stage-graph DSL it lowers to. Flat presets are lowered through
/// [`crate::profile::lower_legacy`]; DSL presets show their own graph;
/// tenanted presets blend rather than lower, so their `lowered_stages` is
/// `null`. Built on first use and kept for the life of the process.
pub fn workload_catalog_json() -> &'static str {
    static CATALOG: OnceLock<String> = OnceLock::new();
    CATALOG.get_or_init(build_workload_catalog_json)
}

fn build_workload_catalog_json() -> String {
    use serde::json::Json;
    let entries: Vec<Json> = Workload::presets()
        .iter()
        .map(|w| {
            let lowered = match &w.stages {
                Some(g) => g.to_json(),
                None if w.tenants.is_empty() => crate::profile::lower_legacy(w.input).to_json(),
                None => Json::Null,
            };
            Json::Object(vec![
                ("name".to_string(), Json::Str(w.name.clone())),
                ("sync".to_string(), w.sync.to_json()),
                ("workload".to_string(), w.to_json()),
                ("lowered_stages".to_string(), lowered),
            ])
        })
        .collect();
    serde_json::to_string(&Json::Object(vec![(
        "workloads".to_string(),
        Json::Array(entries),
    )]))
    .expect("catalog serialization is infallible")
}

/// A parameter grid swept over one [`SimRequest`] template: the cross
/// product workload × batch size × accelerator count × link generation
/// (ring model) × fault plan. An omitted (or `null`) axis keeps the
/// template's value; a present axis must be non-empty. `faults` entries may
/// be `null` for the fault-free point; `workload` entries are anything the
/// `workload` request field accepts (preset names or inline specs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepGrid {
    pub workload: Vec<WorkloadSpec>,
    pub batch_size: Vec<u64>,
    pub n_accels: Vec<usize>,
    pub ring: Vec<RingModel>,
    pub faults: Vec<Option<FaultPlan>>,
}

impl SweepGrid {
    /// Number of grid points ( = the product of present axis lengths).
    pub fn n_points(&self) -> usize {
        let len = |n: usize| n.max(1);
        len(self.workload.len())
            * len(self.batch_size.len())
            * len(self.n_accels.len())
            * len(self.ring.len())
            * len(self.faults.len())
    }
}

impl Deserialize for SweepGrid {
    fn from_json(v: &serde::json::Json) -> Result<Self, serde::json::JsonError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::json::JsonError::type_mismatch("SweepGrid", "object"))?;
        let mut grid = SweepGrid::default();
        fn axis<T: Deserialize>(
            name: &str,
            val: &serde::json::Json,
        ) -> Result<Vec<T>, serde::json::JsonError> {
            let parsed: Vec<T> = Deserialize::from_json(val)?;
            if parsed.is_empty() {
                return Err(serde::json::JsonError::new(format!(
                    "sweep axis `{name}` must be non-empty when present \
                     (omit the axis to keep the template's value)"
                )));
            }
            Ok(parsed)
        }
        for (key, val) in obj {
            if matches!(val, serde::json::Json::Null) {
                continue; // null axis = omitted
            }
            match key.as_str() {
                "workload" => grid.workload = axis(key, val)?,
                "batch_size" => grid.batch_size = axis(key, val)?,
                "n_accels" => grid.n_accels = axis(key, val)?,
                "ring" => grid.ring = axis(key, val)?,
                "faults" => grid.faults = axis(key, val)?,
                other => {
                    return Err(serde::json::JsonError::new(format!(
                        "unknown axis `{other}` in sweep grid \
                         (known: workload, batch_size, n_accels, ring, faults)"
                    )))
                }
            }
        }
        Ok(grid)
    }
}

/// One expanded grid point: the concrete [`SimRequest`] to answer plus the
/// axis values that produced it (per-point provenance for the stream).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Position in the expansion order (row-major: workload outermost, then
    /// batch_size, n_accels, ring, faults innermost).
    pub index: usize,
    /// The template with this point's axis values applied. Canonically
    /// hashable like any request — a sweep point and an individual
    /// `/simulate` asking the same question share one cache entry.
    pub request: SimRequest,
    /// Compact JSON object naming exactly the applied axis values.
    pub params: String,
}

/// A [`SimRequest`] template plus a [`SweepGrid`] to expand over it —
/// the body of `POST /sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRequest {
    pub template: SimRequest,
    pub grid: SweepGrid,
}

impl SweepRequest {
    /// Hard ceiling on expanded points, independent of any serving-layer
    /// cap: a grid beyond this is a typo or an attack, not an experiment.
    pub const MAX_POINTS: usize = 65_536;

    /// Parse from lenient wire JSON: `{"template": {...}, "grid": {...}}`.
    /// `grid` may be omitted (a one-point sweep). Validated before return.
    pub fn from_json_str(text: &str) -> Result<Self, SimError> {
        let value = trainbox_sim::json::parse(text)
            .map_err(|e| SimError::Parse(e.to_string()))?;
        let obj = value
            .as_object()
            .ok_or_else(|| SimError::Parse("sweep request must be an object".to_string()))?;
        let mut template = None;
        let mut grid = SweepGrid::default();
        for (key, val) in obj {
            match key.as_str() {
                "template" => {
                    template = Some(
                        SimRequest::from_json(val).map_err(|e| SimError::Parse(e.to_string()))?,
                    )
                }
                "grid" => {
                    if !matches!(val, serde::json::Json::Null) {
                        grid = SweepGrid::from_json(val)
                            .map_err(|e| SimError::Parse(e.to_string()))?;
                    }
                }
                other => {
                    return Err(SimError::Parse(format!(
                        "unknown field `{other}` in sweep request (known: template, grid)"
                    )))
                }
            }
        }
        let sweep = SweepRequest {
            template: template
                .ok_or_else(|| SimError::Parse("missing field `template`".to_string()))?,
            grid,
        };
        sweep.validate()?;
        Ok(sweep)
    }

    /// Shape checks beyond parsing: the template must not carry a deadline
    /// (deadlines are per-request QoS, not part of a sweep's question) and
    /// the expansion must stay under [`Self::MAX_POINTS`].
    pub fn validate(&self) -> Result<(), SimError> {
        if self.template.deadline_ms.is_some() {
            return Err(SimError::Parse(
                "sweep template must not set deadline_ms; a sweep streams at \
                 the pool's pace and each point answers untimed"
                    .to_string(),
            ));
        }
        let points = self.grid.n_points();
        if points > Self::MAX_POINTS {
            return Err(SimError::Parse(format!(
                "sweep expands to {points} points, over the limit of {}",
                Self::MAX_POINTS
            )));
        }
        Ok(())
    }

    /// Number of points this sweep expands to.
    pub fn n_points(&self) -> usize {
        self.grid.n_points()
    }

    /// Expand the grid in deterministic row-major order (`workload`
    /// outermost, then `batch_size`, `n_accels`, `ring`, `faults`
    /// innermost). Every point is a full [`SimRequest`] plus the
    /// compact-JSON `params` provenance.
    pub fn expand(&self) -> Vec<SweepPoint> {
        use serde::json::Json;
        let works: Vec<Option<&WorkloadSpec>> = if self.grid.workload.is_empty() {
            vec![None]
        } else {
            self.grid.workload.iter().map(Some).collect()
        };
        let batch: Vec<Option<u64>> = if self.grid.batch_size.is_empty() {
            vec![None]
        } else {
            self.grid.batch_size.iter().map(|&b| Some(b)).collect()
        };
        let accels: Vec<Option<usize>> = if self.grid.n_accels.is_empty() {
            vec![None]
        } else {
            self.grid.n_accels.iter().map(|&a| Some(a)).collect()
        };
        let rings: Vec<Option<RingModel>> = if self.grid.ring.is_empty() {
            vec![None]
        } else {
            self.grid.ring.iter().map(|&r| Some(r)).collect()
        };
        let faults: Vec<Option<&Option<FaultPlan>>> = if self.grid.faults.is_empty() {
            vec![None]
        } else {
            self.grid.faults.iter().map(Some).collect()
        };
        let mut points = Vec::with_capacity(self.n_points());
        for &w in &works {
        for &b in &batch {
            for &a in &accels {
                for &r in &rings {
                    for &f in &faults {
                        let mut request = self.template.clone();
                        let mut params: Vec<(String, Json)> = Vec::new();
                        if let Some(w) = w {
                            request.workload = w.clone();
                            // Provenance names the point by workload name;
                            // the request itself carries the full spec.
                            params.push((
                                "workload".to_string(),
                                Json::Str(w.workload().name.clone()),
                            ));
                        }
                        if let Some(b) = b {
                            request.server.batch_size = Some(b);
                            params.push(("batch_size".to_string(), Json::U64(b)));
                        }
                        if let Some(a) = a {
                            request.server.n_accels = a;
                            params.push(("n_accels".to_string(), Json::U64(a as u64)));
                        }
                        if let Some(r) = r {
                            request.server.ring = Some(r);
                            params.push(("ring".to_string(), r.to_json()));
                        }
                        if let Some(f) = f {
                            request.faults = f.clone();
                            let rendered = match f {
                                Some(plan) => plan.to_json(),
                                None => Json::Null,
                            };
                            params.push(("faults".to_string(), rendered));
                        }
                        let params = serde_json::to_string(&Json::Object(params))
                            .expect("params serialization is infallible");
                        points.push(SweepPoint { index: points.len(), request, params });
                    }
                }
            }
        }
        }
        points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultDomain, FaultKind};

    #[test]
    fn minimal_request_parses_with_defaults() {
        let req = SimRequest::from_json_str(
            r#"{"server": {"kind": "Baseline", "n_accels": 4}, "workload": "VGG-19"}"#,
        )
        .unwrap();
        assert_eq!(req.server.kind, ServerKind::Baseline);
        assert_eq!(req.server.n_accels, 4);
        assert_eq!(req.server.batch_size, None);
        assert_eq!(req.sim, SimMode::Analytic);
        assert_eq!(req.faults, None);
        assert!(!req.trace);
        assert_eq!(req.workload.workload().name, "VGG-19");
    }

    #[test]
    fn wire_spelling_does_not_change_the_hash() {
        // Key order, whitespace, workload-by-name vs by-value, explicit
        // nulls, and explicit defaults (`sim`, `trace`) all normalize away.
        let a = SimRequest::from_json_str(
            r#"{"server": {"kind": "TrainBox", "n_accels": 256}, "workload": "Resnet-50"}"#,
        )
        .unwrap();
        let spelled = serde_json::to_string(&Workload::resnet50()).unwrap();
        let b = SimRequest::from_json_str(&format!(
            r#"{{
                "workload": {spelled},
                "trace": false,
                "sim": "Analytic",
                "faults": null,
                "server": {{"ring": null, "n_accels": 256, "kind": "TrainBox"}}
            }}"#
        ))
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a.canonical_json(), b.canonical_json());
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn integer_literals_survive_canonicalization_digit_for_digit() {
        let des = |max_events: &str| {
            SimRequest::from_json_str(&format!(
                r#"{{"server": {{"kind": "TrainBox", "n_accels": 16}}, "workload": "Resnet-50",
                    "sim": {{"Des": {{"max_events": {max_events}}}}}}}"#
            ))
            .unwrap_or_else(|e| panic!("max_events {max_events}: {e}"))
        };
        // Past 2^53 an f64 cannot hold these, yet the cache key must name
        // the question the client asked.
        for literal in ["9007199254740993", "18446744073709551615"] {
            let canonical = des(literal).canonical_json();
            let field = format!(r#""max_events":{literal}"#);
            assert!(canonical.contains(&field), "{literal} canonicalized as {canonical}");
        }
        // Integral values spelled with an exponent or fraction still count.
        for spelling in ["2e7", "20000000.0"] {
            let SimMode::Des(cfg) = des(spelling).sim else { panic!("a DES request") };
            assert_eq!(cfg.max_events, 20_000_000, "{spelling}");
        }
    }

    #[test]
    fn different_questions_hash_differently() {
        let a = SimRequest::analytic(ServerKind::TrainBox, 256, Workload::resnet50());
        let mut b = a.clone();
        b.server.n_accels = 128;
        assert_ne!(a.canonical_hash(), b.canonical_hash());
        let mut c = a.clone();
        c.sim = SimMode::Des(SimConfig::default());
        assert_ne!(a.canonical_hash(), c.canonical_hash());
        let mut d = a.clone();
        d.trace = true;
        assert_ne!(a.canonical_hash(), d.canonical_hash());
    }

    #[test]
    fn serde_round_trip_preserves_the_request() {
        let mut req = SimRequest::des(
            ServerKind::TrainBoxNoPool,
            16,
            Workload::inception_v4(),
            SimConfig { batches: 6, warmup_batches: 2, ..SimConfig::default() },
        );
        req.server.batch_size = Some(512);
        req.faults = Some(FaultPlan::empty().at(0.5, FaultKind::PrepCrash { dev: 1 }));
        req.trace = true;
        let text = req.canonical_json();
        let back = SimRequest::from_json_str(&text).unwrap();
        assert_eq!(req, back);
        assert_eq!(req.canonical_hash(), back.canonical_hash());
    }

    #[test]
    fn analytic_run_matches_the_throughput_model() {
        let req = SimRequest::analytic(ServerKind::TrainBox, 256, Workload::resnet50());
        let resp = req.run().unwrap();
        let direct = ServerConfig::new(ServerKind::TrainBox, 256)
            .build()
            .throughput(&Workload::resnet50());
        match resp.outcome {
            SimOutcome::Analytic(t) => assert_eq!(t, direct),
            other => panic!("analytic request answered with {other:?}"),
        }
        assert_eq!(resp.config_hash, req.hash_hex());
        assert!(resp.trace.is_none());
    }

    #[test]
    fn errors_are_typed_not_panics() {
        let zero = SimRequest::analytic(ServerKind::Baseline, 0, Workload::vgg19());
        assert_eq!(zero.run().unwrap_err(), SimError::Config(ConfigError::NoAccelerators));

        let mut faulted = SimRequest::analytic(ServerKind::TrainBox, 16, Workload::vgg19());
        faulted.faults =
            Some(FaultPlan::empty().at(0.1, FaultKind::PrepCrash { dev: 0 }));
        assert_eq!(faulted.run().unwrap_err(), SimError::FaultsRequireDes);

        let mut warm = SimRequest::des(
            ServerKind::TrainBox,
            16,
            Workload::vgg19(),
            SimConfig { batches: 4, warmup_batches: 4, ..SimConfig::default() },
        );
        assert!(matches!(warm.run().unwrap_err(), SimError::InvalidSim(_)));
        // No warm-up generation leaves no start for the measured window, on
        // the single-engine, lane-partitioned and cluster paths alike.
        let cold = SimConfig { batches: 4, warmup_batches: 0, ..SimConfig::default() };
        for req in [
            SimRequest::des(ServerKind::TrainBox, 16, Workload::vgg19(), cold),
            SimRequest::des(ServerKind::TrainBoxNoPool, 16, Workload::vgg19(), cold),
            SimRequest::des(ServerKind::TrainBoxNoPool, 16, Workload::vgg19(), cold)
                .with_cluster(ClusterSpec::rack_default(2)),
        ] {
            let err = req.run().unwrap_err();
            assert!(matches!(err, SimError::InvalidSim(_)), "{err:?}");
            assert_eq!(err.field(), "sim");
        }
        // A zero-sample chunk is refused before any event runs, on every
        // DES path.
        let empty = SimConfig { chunk_samples: 0, ..SimConfig::default() };
        for req in [
            SimRequest::des(ServerKind::Baseline, 8, Workload::vgg19(), empty),
            SimRequest::des(ServerKind::TrainBoxNoPool, 16, Workload::vgg19(), empty),
            SimRequest::des(ServerKind::TrainBoxNoPool, 16, Workload::vgg19(), empty)
                .with_cluster(ClusterSpec::rack_default(2)),
        ] {
            let err = req.run().unwrap_err();
            assert!(matches!(err, SimError::InvalidSim(_)), "{err:?}");
            assert_eq!(err.field(), "sim");
        }
        warm.sim = SimMode::Des(SimConfig::default());
        warm.faults =
            Some(FaultPlan::empty().at(0.1, FaultKind::PrepCrash { dev: 999 }));
        let err = warm.run().unwrap_err();
        assert!(matches!(err, SimError::InvalidPlan(_)), "{err:?}");
        assert_eq!(err.field(), "faults");
        assert!(err.is_client_error());
    }

    #[test]
    fn unknown_workload_lists_the_known_names() {
        let err = SimRequest::from_json_str(
            r#"{"server": {"kind": "Baseline", "n_accels": 4}, "workload": "AlexNet"}"#,
        )
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("unknown workload `AlexNet`"), "{msg}");
        assert!(msg.contains("Resnet-50"), "{msg}");
    }

    #[test]
    fn cluster_requests_hash_differently_and_round_trip() {
        let solo = SimRequest::analytic(ServerKind::TrainBox, 16, Workload::resnet50());
        let clustered = solo.clone().with_cluster(ClusterSpec::rack_default(4));
        assert_ne!(solo.canonical_hash(), clustered.canonical_hash());
        let mut other = clustered.clone();
        other.cluster.as_mut().unwrap().servers = 8;
        assert_ne!(clustered.canonical_hash(), other.canonical_hash());
        // Canonical JSON of a single-server request never mentions clusters.
        assert!(!solo.canonical_json().contains("cluster"));
        let back = SimRequest::from_json_str(&clustered.canonical_json()).unwrap();
        assert_eq!(clustered, back);
        assert_eq!(clustered.canonical_hash(), back.canonical_hash());
    }

    #[test]
    fn cluster_requests_run_both_modes() {
        let spec = ClusterSpec::rack_default(4);
        let analytic = SimRequest::analytic(ServerKind::TrainBoxNoPool, 16, Workload::rnn_s())
            .with_cluster(spec);
        let resp = analytic.run().unwrap();
        let SimOutcome::ClusterAnalytic(t) = resp.outcome else {
            panic!("expected a cluster-analytic outcome");
        };
        assert_eq!(t.servers, 4);
        assert!(t.samples_per_sec > 0.0);

        let mut des = SimRequest::des(
            ServerKind::TrainBoxNoPool,
            4,
            Workload::rnn_s(),
            SimConfig {
                batches: 4,
                warmup_batches: 1,
                parallel_workers: 2,
                ..SimConfig::default()
            },
        )
        .with_cluster(ClusterSpec::rack_default(2));
        des.server.batch_size = Some(64);
        des.trace = true;
        let resp = des.run().unwrap();
        let SimOutcome::Cluster(r) = &resp.outcome else {
            panic!("expected a cluster DES outcome");
        };
        assert_eq!(r.servers, 2);
        assert_eq!(r.batch_done_at.len(), 4);
        assert!(resp.trace.is_some(), "traced cluster run returns a summary");
        // The caller-supplied-tracer path answers the same cluster question.
        let (outcome, _) = des.run_des_with_tracer(NoopTracer).unwrap();
        assert_eq!(outcome, resp.outcome);

        let invalid = analytic.clone().with_cluster(ClusterSpec::rack_default(0));
        let err = invalid.run().unwrap_err();
        assert!(matches!(err, SimError::InvalidCluster(_)), "{err:?}");
        let des_invalid = des.clone().with_cluster(ClusterSpec::rack_default(0));
        let err = des_invalid.run_des_with_tracer(NoopTracer).unwrap_err();
        assert!(matches!(err, SimError::InvalidCluster(_)), "{err:?}");
        assert_eq!(err.field(), "cluster");
        assert!(err.is_client_error());
    }

    #[test]
    fn sweep_expands_row_major_with_provenance() {
        let sweep = SweepRequest::from_json_str(
            r#"{"template": {"server": {"kind": "TrainBox", "n_accels": 16},
                             "workload": "Resnet-50"},
                "grid": {"batch_size": [8, 32], "n_accels": [16, 64, 256]}}"#,
        )
        .unwrap();
        assert_eq!(sweep.n_points(), 6);
        let points = sweep.expand();
        assert_eq!(points.len(), 6);
        // Row-major: batch_size outermost, n_accels inner.
        let got: Vec<(Option<u64>, usize)> = points
            .iter()
            .map(|p| (p.request.server.batch_size, p.request.server.n_accels))
            .collect();
        let want = vec![
            (Some(8), 16),
            (Some(8), 64),
            (Some(8), 256),
            (Some(32), 16),
            (Some(32), 64),
            (Some(32), 256),
        ];
        assert_eq!(got, want);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
        }
        assert_eq!(points[0].params, r#"{"batch_size":8,"n_accels":16}"#);
        // Every point hashes like the individually-spelled request.
        let mut individual = SimRequest::analytic(ServerKind::TrainBox, 64, Workload::resnet50());
        individual.server.batch_size = Some(32);
        assert_eq!(points[4].request.canonical_hash(), individual.canonical_hash());
        // All six points are distinct questions.
        let mut hashes: Vec<u64> = points.iter().map(|p| p.request.canonical_hash()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 6);
    }

    #[test]
    fn sweep_grid_defaults_axes_to_the_template() {
        let sweep = SweepRequest::from_json_str(
            r#"{"template": {"server": {"kind": "Baseline", "n_accels": 8, "batch_size": 128},
                             "workload": "VGG-19"}}"#,
        )
        .unwrap();
        let points = sweep.expand();
        assert_eq!(points.len(), 1, "no grid = a one-point sweep");
        assert_eq!(points[0].request, sweep.template);
        assert_eq!(points[0].params, "{}", "no axes applied, empty provenance");
    }

    #[test]
    fn sweep_faults_axis_carries_null_and_plans() {
        let sweep = SweepRequest::from_json_str(
            r#"{"template": {"server": {"kind": "TrainBoxNoPool", "n_accels": 16},
                             "workload": "Resnet-50",
                             "sim": {"Des": {"batches": 4, "warmup_batches": 1}}},
                "grid": {"faults": [null,
                                    {"events": [{"at_secs": 0.5,
                                                 "kind": {"PrepCrash": {"dev": 0}}}]}]}}"#,
        )
        .unwrap();
        let points = sweep.expand();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].request.faults, None);
        assert!(points[0].params.contains("\"faults\":null"), "{}", points[0].params);
        assert!(points[1].request.faults.is_some());
        assert_ne!(
            points[0].request.canonical_hash(),
            points[1].request.canonical_hash(),
            "fault-free and faulted points are different questions"
        );
    }

    #[test]
    fn sweep_validation_rejects_bad_shapes() {
        let deadline = SweepRequest::from_json_str(
            r#"{"template": {"server": {"kind": "TrainBox", "n_accels": 16},
                             "workload": "Resnet-50", "deadline_ms": 100}}"#,
        )
        .unwrap_err();
        assert!(deadline.to_string().contains("deadline_ms"), "{deadline}");

        let empty_axis = SweepRequest::from_json_str(
            r#"{"template": {"server": {"kind": "TrainBox", "n_accels": 16},
                             "workload": "Resnet-50"},
                "grid": {"batch_size": []}}"#,
        )
        .unwrap_err();
        assert!(empty_axis.to_string().contains("non-empty"), "{empty_axis}");

        let unknown_axis = SweepRequest::from_json_str(
            r#"{"template": {"server": {"kind": "TrainBox", "n_accels": 16},
                             "workload": "Resnet-50"},
                "grid": {"pool_fpgas": [1, 2]}}"#,
        )
        .unwrap_err();
        assert!(unknown_axis.to_string().contains("unknown axis"), "{unknown_axis}");

        let huge: Vec<String> = (0..300).map(|i| i.to_string()).collect();
        let over_cap = SweepRequest::from_json_str(&format!(
            r#"{{"template": {{"server": {{"kind": "TrainBox", "n_accels": 16}},
                              "workload": "Resnet-50"}},
                 "grid": {{"batch_size": [{0}], "n_accels": [{0}]}}}}"#,
            huge.join(",")
        ))
        .unwrap_err();
        assert!(over_cap.to_string().contains("over the limit"), "{over_cap}");
    }

    #[test]
    fn canonical_hash_of_matches_the_method() {
        let req = SimRequest::analytic(ServerKind::TrainBox, 256, Workload::resnet50());
        assert_eq!(canonical_hash_of(&req.canonical_json()), req.canonical_hash());
    }

    #[test]
    fn workload_catalog_body_is_pinned() {
        // FNV-1a of the `GET /workloads` body as it was when every request
        // rebuilt it; building it once must not move a byte.
        let body = workload_catalog_json();
        assert_eq!((canonical_hash_of(body), body.len()), (0x8139_15f6_60e4_c7d4, 11_809));
        assert!(std::ptr::eq(body, workload_catalog_json()), "built once per process");
    }

    #[test]
    fn fault_domain_matches_engine_acceptance() {
        // A plan the domain accepts must not panic the engine; one it
        // rejects must be exactly what the engine would have asserted on.
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 16).build();
        let domain = fault_domain(&server);
        assert_eq!(domain.n_accels, 16);
        assert!(domain.n_preps > 0);
        assert!(domain.n_links > 0);
        let _ = FaultDomain { ..domain };
    }
}
