//! Workload descriptions: the seven Table-I presets and the composable
//! stage-graph DSL they lower to.
//!
//! Table I of the paper:
//!
//! | Type | Name | Task | Batch | Model (MB) | Throughput (sample/s) |
//! |------|------|------|-------|-----------|----------------------|
//! | CNN | VGG-19 | Image classification | 2,048 | 548.0 | 3,062 |
//! | CNN | Resnet-50 | Image classification | 8,192 | 97.5 | 7,431 |
//! | CNN | Inception-v4 | Image classification | 2,048 | 162.7 | 1,669 |
//! | RNN | RNN-S | Image captioning | 4,096 | 1.0 | 12,022 |
//! | RNN | RNN-L | Image captioning | 2,048 | 16.0 | 6,495 |
//! | TF | TF-SR | Speech recognition | 512 | 268.3 | 2,001 |
//! | TF | TF-AA | Audio analysis | 512 | 162.5 | 2,889 |
//!
//! Throughput is the measured rate of one TPU v3-8 at the largest batch it
//! can run (§III-B1); batch size is that largest batch. These numbers drive
//! every evaluation figure.
//!
//! # The stage-graph DSL
//!
//! Beyond the fixed table, a [`Workload`] may carry an explicit
//! [`StageGraph`]: named preparation stages with per-stage byte flows and
//! cost models ([`StageCost`]), plus a declared synchronization pattern
//! ([`SyncPattern`]). The seven Table-I names stay presets that *lower* to
//! the same DSL (the lowering lives in `trainbox-core`, next to the
//! calibration constants it copies); four additional families —
//! LLM training, embedding-dominated recsys, video pipelines, and mixed
//! tenancy — ship as presets whose graphs are spelled out here.
//!
//! Serialization is hash-compatible by construction: the DSL fields
//! (`sync`, `stages`, `tenants`) are emitted **only when they differ from
//! their defaults**, so a legacy workload's canonical JSON — and therefore
//! every `SimRequest::canonical_hash` over it — is byte-identical to what
//! the flat struct produced before the DSL existed.

use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Neural-network family (Table I "NN Type", plus families the DSL adds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NnKind {
    /// Convolutional network.
    Cnn,
    /// LSTM-based recurrent network.
    Rnn,
    /// Transformer.
    Transformer,
    /// Embedding-table-dominated model (recommendation systems).
    Embedding,
}

/// Input data modality, which selects the data-preparation pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InputKind {
    /// JPEG images (ImageNet-style).
    Image,
    /// PCM audio streams (LibriSpeech-style).
    Audio,
    /// UTF-8 text shards (LLM pretraining corpora).
    Text,
    /// Multi-frame video clips (MJPEG-style shards).
    Video,
    /// Tabular click logs (recsys embedding lookups).
    Tabular,
}

/// How gradients (or embeddings) are exchanged at batch boundaries.
///
/// Serialized as a bare string (`"ParameterServer"`); the default
/// [`SyncPattern::RingAllReduce`] is omitted from a workload's canonical
/// form so legacy requests keep their bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyncPattern {
    /// The paper's chunked ring all-reduce (Fig 2b).
    #[default]
    RingAllReduce,
    /// Sharded parameter servers: push gradients, pull fresh weights.
    ParameterServer,
    /// Pairwise all-to-all exchange (embedding-style synchronization).
    AllToAll,
}

/// Which preparation resource class a stage's host-CPU time accounts
/// against. Mirrors the paper's Figure-4 breakdown (§III-B2) so lowered
/// Table-I presets keep their per-class CPU products bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrepClass {
    /// Reading records off SSD (driver + checksum time).
    SsdRead,
    /// Decode / parse (JPEG, PCM, tokenization, frame demux).
    Formatting,
    /// Randomized augmentation (crop, flip, noise, negative sampling).
    Augmentation,
    /// Batching + tensor layout for the accelerator copy.
    DataLoad,
    /// Everything else (bookkeeping, shuffle indices).
    Others,
}

impl PrepClass {
    /// All classes, in the fixed Figure-4 accounting order.
    pub fn all() -> [PrepClass; 5] {
        [
            PrepClass::SsdRead,
            PrepClass::Formatting,
            PrepClass::Augmentation,
            PrepClass::DataLoad,
            PrepClass::Others,
        ]
    }
}

/// What one stage costs per sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StageCost {
    /// Host CPU seconds per sample (accounted against the stage's
    /// [`PrepClass`]).
    HostCpuSecs(f64),
    /// The stage runs on a preparation accelerator at this rate.
    AccelSamplesPerSec(f64),
    /// FLOP-derived: `flops_per_sample / device_flops_per_sec` seconds on
    /// the preparation device.
    Flops {
        flops_per_sample: f64,
        device_flops_per_sec: f64,
    },
}

impl StageCost {
    /// Host-CPU seconds this cost contributes per sample (zero for
    /// device-resident costs).
    pub fn host_cpu_secs(&self) -> f64 {
        match self {
            StageCost::HostCpuSecs(s) => *s,
            StageCost::AccelSamplesPerSec(_) | StageCost::Flops { .. } => 0.0,
        }
    }

    fn validate(&self) -> Result<(), String> {
        let ok = |x: f64| x.is_finite() && x >= 0.0;
        match self {
            StageCost::HostCpuSecs(s) => {
                if !ok(*s) {
                    return Err(format!("HostCpuSecs must be finite and >= 0, got {s}"));
                }
            }
            StageCost::AccelSamplesPerSec(r) => {
                if !(r.is_finite() && *r > 0.0) {
                    return Err(format!("AccelSamplesPerSec must be finite and > 0, got {r}"));
                }
            }
            StageCost::Flops { flops_per_sample, device_flops_per_sec } => {
                if !ok(*flops_per_sample) {
                    return Err(format!(
                        "flops_per_sample must be finite and >= 0, got {flops_per_sample}"
                    ));
                }
                if !(device_flops_per_sec.is_finite() && *device_flops_per_sec > 0.0) {
                    return Err(format!(
                        "device_flops_per_sec must be finite and > 0, got {device_flops_per_sec}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// One named stage of a preparation graph.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StageSpec {
    /// Stage name, unique within its graph.
    pub name: String,
    /// Resource class the stage's host-CPU time accounts against.
    pub class: PrepClass,
    /// Bytes read per sample on entry (the first stage's `bytes_in` is the
    /// workload's stored-record size).
    pub bytes_in: u64,
    /// Bytes produced per sample (the last producing stage's `bytes_out`
    /// is the tensor size shipped to accelerators).
    pub bytes_out: u64,
    /// Per-sample cost model.
    pub cost: StageCost,
    /// Parallelism hint: how many ways the stage splits across workers.
    pub parallelism: u32,
    /// Names of stages that must complete first (the graph must be
    /// acyclic).
    pub after: Vec<String>,
}

impl StageSpec {
    /// A stage with the given name, class, and cost; bytes default to zero,
    /// parallelism to 1, no predecessors.
    pub fn new(name: impl Into<String>, class: PrepClass, cost: StageCost) -> Self {
        StageSpec {
            name: name.into(),
            class,
            bytes_in: 0,
            bytes_out: 0,
            cost,
            parallelism: 1,
            after: Vec::new(),
        }
    }

    /// Set the per-sample byte flow.
    pub fn bytes(mut self, bytes_in: u64, bytes_out: u64) -> Self {
        self.bytes_in = bytes_in;
        self.bytes_out = bytes_out;
        self
    }

    /// Set the parallelism hint.
    pub fn parallelism(mut self, ways: u32) -> Self {
        self.parallelism = ways;
        self
    }

    /// Add a predecessor by name.
    pub fn after(mut self, stage: impl Into<String>) -> Self {
        self.after.push(stage.into());
        self
    }
}

// Lenient: `name`, `class`, and `cost` are required; bytes, parallelism,
// and predecessors default.
impl Deserialize for StageSpec {
    fn from_json(v: &serde::json::Json) -> Result<Self, serde::json::JsonError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::json::JsonError::type_mismatch("StageSpec", "object"))?;
        let mut name: Option<String> = None;
        let mut class: Option<PrepClass> = None;
        let mut cost: Option<StageCost> = None;
        let mut bytes_in = 0u64;
        let mut bytes_out = 0u64;
        let mut parallelism = 1u32;
        let mut after = Vec::new();
        for (key, val) in obj {
            if matches!(val, serde::json::Json::Null) {
                continue;
            }
            match key.as_str() {
                "name" => name = Some(Deserialize::from_json(val)?),
                "class" => class = Some(Deserialize::from_json(val)?),
                "cost" => cost = Some(Deserialize::from_json(val)?),
                "bytes_in" => bytes_in = Deserialize::from_json(val)?,
                "bytes_out" => bytes_out = Deserialize::from_json(val)?,
                "parallelism" => parallelism = Deserialize::from_json(val)?,
                "after" => after = Deserialize::from_json(val)?,
                other => {
                    return Err(serde::json::JsonError::new(format!(
                        "unknown field `{other}` in stage spec"
                    )))
                }
            }
        }
        Ok(StageSpec {
            name: name
                .ok_or_else(|| serde::json::JsonError::missing_field("StageSpec", "name"))?,
            class: class
                .ok_or_else(|| serde::json::JsonError::missing_field("StageSpec", "class"))?,
            bytes_in,
            bytes_out,
            cost: cost
                .ok_or_else(|| serde::json::JsonError::missing_field("StageSpec", "cost"))?,
            parallelism,
            after,
        })
    }
}

/// A validated preparation graph: named stages plus optional declared
/// aggregates.
///
/// The declared aggregates exist for bit-exactness: a lowered Table-I
/// preset must reproduce the calibrated totals *without* re-deriving them
/// from per-stage values (floating-point recombination is not bitwise
/// stable), so the lowering declares the calibrated total CPU seconds and
/// device rates verbatim and the graph validates that the stage sum agrees
/// within tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct StageGraph {
    /// The stages, in declaration order.
    pub stages: Vec<StageSpec>,
    /// Declared total host-CPU seconds per sample (omitted = the sum of
    /// the stages' host-CPU costs).
    pub cpu_secs_per_sample: Option<f64>,
    /// Declared FPGA preparation rate, samples/s (omitted = the modality
    /// calibration for the workload's `input`).
    pub fpga_samples_per_sec: Option<f64>,
    /// Declared GPU preparation rate, samples/s (omitted = the modality
    /// calibration for the workload's `input`).
    pub gpu_samples_per_sec: Option<f64>,
}

impl StageGraph {
    /// A graph over the given stages with no declared aggregates.
    pub fn new(stages: Vec<StageSpec>) -> Self {
        StageGraph {
            stages,
            cpu_secs_per_sample: None,
            fpga_samples_per_sec: None,
            gpu_samples_per_sec: None,
        }
    }

    /// Sum of the stages' host-CPU costs, seconds per sample.
    pub fn stage_cpu_sum(&self) -> f64 {
        self.stages.iter().map(|s| s.cost.host_cpu_secs()).sum()
    }

    /// Effective total host-CPU seconds per sample: the declared aggregate
    /// when present, otherwise the stage sum.
    pub fn total_cpu_secs_per_sample(&self) -> f64 {
        self.cpu_secs_per_sample.unwrap_or_else(|| self.stage_cpu_sum())
    }

    /// Host-CPU seconds per sample accounted against `class` (sum over the
    /// class's stages, in declaration order).
    pub fn class_cpu_secs(&self, class: PrepClass) -> f64 {
        self.stages
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.cost.host_cpu_secs())
            .sum()
    }

    /// Stored-record bytes per sample: `bytes_in` of the first stage.
    pub fn stored_bytes(&self) -> u64 {
        self.stages.first().map_or(0, |s| s.bytes_in)
    }

    /// Tensor bytes per sample shipped to accelerators: `bytes_out` of the
    /// last stage that produces any (a trailing zero-byte bookkeeping
    /// stage does not zero the tensor).
    pub fn tensor_bytes(&self) -> u64 {
        self.stages
            .iter()
            .rev()
            .map(|s| s.bytes_out)
            .find(|&b| b > 0)
            .unwrap_or(0)
    }

    fn validate(&self) -> Result<(), WorkloadError> {
        if self.stages.is_empty() {
            return Err(WorkloadError::EmptyStages);
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.name.is_empty() {
                return Err(WorkloadError::Stage {
                    index: i,
                    stage: s.name.clone(),
                    reason: "stage name must be non-empty".to_string(),
                });
            }
            if self.stages[..i].iter().any(|p| p.name == s.name) {
                return Err(WorkloadError::Stage {
                    index: i,
                    stage: s.name.clone(),
                    reason: "duplicate stage name".to_string(),
                });
            }
            if s.parallelism == 0 {
                return Err(WorkloadError::Stage {
                    index: i,
                    stage: s.name.clone(),
                    reason: "parallelism must be >= 1".to_string(),
                });
            }
            if let Err(reason) = s.cost.validate() {
                return Err(WorkloadError::Stage { index: i, stage: s.name.clone(), reason });
            }
            for dep in &s.after {
                if !self.stages.iter().any(|p| &p.name == dep) {
                    return Err(WorkloadError::Stage {
                        index: i,
                        stage: s.name.clone(),
                        reason: format!("unknown predecessor `{dep}`"),
                    });
                }
            }
        }
        self.check_acyclic()?;
        for (field, v) in [
            ("cpu_secs_per_sample", self.cpu_secs_per_sample),
            ("fpga_samples_per_sec", self.fpga_samples_per_sec),
            ("gpu_samples_per_sec", self.gpu_samples_per_sec),
        ] {
            if let Some(v) = v {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(WorkloadError::Graph {
                        field,
                        reason: format!("must be finite and >= 0, got {v}"),
                    });
                }
            }
        }
        if let Some(declared) = self.cpu_secs_per_sample {
            let sum = self.stage_cpu_sum();
            let scale = declared.abs().max(sum.abs()).max(1e-12);
            if (declared - sum).abs() > 1e-3 * scale {
                return Err(WorkloadError::Graph {
                    field: "cpu_secs_per_sample",
                    reason: format!(
                        "declared aggregate {declared} disagrees with the stage sum {sum} \
                         by more than 0.1%"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Kahn's algorithm over the `after` edges; an unprocessable residue
    /// is a cycle.
    fn check_acyclic(&self) -> Result<(), WorkloadError> {
        let n = self.stages.len();
        let idx_of = |name: &str| self.stages.iter().position(|s| s.name == name);
        let mut indegree = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, s) in self.stages.iter().enumerate() {
            for dep in &s.after {
                let d = idx_of(dep).expect("validated above");
                indegree[i] += 1;
                out[d].push(i);
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(i) = queue.pop() {
            seen += 1;
            for &j in &out[i] {
                indegree[j] -= 1;
                if indegree[j] == 0 {
                    queue.push(j);
                }
            }
        }
        if seen != n {
            let stuck = (0..n).find(|&i| indegree[i] > 0).unwrap_or(0);
            return Err(WorkloadError::Stage {
                index: stuck,
                stage: self.stages[stuck].name.clone(),
                reason: "dependency cycle through this stage".to_string(),
            });
        }
        Ok(())
    }
}

// Declared aggregates are emitted only when present, so a graph's
// canonical form does not grow `null` fields.
impl Serialize for StageGraph {
    fn to_json(&self) -> serde::json::Json {
        let mut fields =
            vec![("stages".to_string(), self.stages.to_json())];
        if let Some(v) = self.cpu_secs_per_sample {
            fields.push(("cpu_secs_per_sample".to_string(), v.to_json()));
        }
        if let Some(v) = self.fpga_samples_per_sec {
            fields.push(("fpga_samples_per_sec".to_string(), v.to_json()));
        }
        if let Some(v) = self.gpu_samples_per_sec {
            fields.push(("gpu_samples_per_sec".to_string(), v.to_json()));
        }
        serde::json::Json::Object(fields)
    }
}

impl Deserialize for StageGraph {
    fn from_json(v: &serde::json::Json) -> Result<Self, serde::json::JsonError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::json::JsonError::type_mismatch("StageGraph", "object"))?;
        let mut graph = StageGraph::new(Vec::new());
        let mut saw_stages = false;
        for (key, val) in obj {
            if matches!(val, serde::json::Json::Null) {
                continue;
            }
            match key.as_str() {
                "stages" => {
                    graph.stages = Deserialize::from_json(val)?;
                    saw_stages = true;
                }
                "cpu_secs_per_sample" => {
                    graph.cpu_secs_per_sample = Some(Deserialize::from_json(val)?)
                }
                "fpga_samples_per_sec" => {
                    graph.fpga_samples_per_sec = Some(Deserialize::from_json(val)?)
                }
                "gpu_samples_per_sec" => {
                    graph.gpu_samples_per_sec = Some(Deserialize::from_json(val)?)
                }
                other => {
                    return Err(serde::json::JsonError::new(format!(
                        "unknown field `{other}` in stage graph"
                    )))
                }
            }
        }
        if !saw_stages {
            return Err(serde::json::JsonError::missing_field("StageGraph", "stages"));
        }
        Ok(graph)
    }
}

/// What is wrong with a workload description. Mirrors
/// `trainbox_core::arch::ConfigError`: every variant names the field at
/// fault so the serving tier can emit field-level 400s.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadError {
    /// The display name is empty.
    EmptyName,
    /// A scalar field must be positive (and finite) but is not.
    NonPositive { field: &'static str, value: f64 },
    /// A stage graph was given with no stages.
    EmptyStages,
    /// One stage is invalid (duplicate name, bad cost, unknown
    /// predecessor, cycle, zero parallelism).
    Stage { index: usize, stage: String, reason: String },
    /// A graph-level declared aggregate is invalid or inconsistent.
    Graph { field: &'static str, reason: String },
    /// Mixed tenancy needs at least two tenants.
    TooFewTenants { count: usize },
    /// Tenants cannot themselves be tenanted (one level of sharing only).
    NestedTenants { index: usize },
    /// One tenant is itself invalid.
    Tenant { index: usize, source: Box<WorkloadError> },
}

impl WorkloadError {
    /// Dotted path of the workload field at fault (relative to the
    /// workload object), e.g. `stages.stages[2]` or `tenants[1].batch_size`.
    pub fn field(&self) -> String {
        match self {
            WorkloadError::EmptyName => "name".to_string(),
            WorkloadError::NonPositive { field, .. } => (*field).to_string(),
            WorkloadError::EmptyStages => "stages.stages".to_string(),
            WorkloadError::Stage { index, .. } => format!("stages.stages[{index}]"),
            WorkloadError::Graph { field, .. } => format!("stages.{field}"),
            WorkloadError::TooFewTenants { .. } | WorkloadError::NestedTenants { .. } => {
                "tenants".to_string()
            }
            WorkloadError::Tenant { index, source } => {
                format!("tenants[{index}].{}", source.field())
            }
        }
    }
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::EmptyName => write!(f, "workload name must be non-empty"),
            WorkloadError::NonPositive { field, value } => {
                write!(f, "{field} must be finite and > 0, got {value}")
            }
            WorkloadError::EmptyStages => write!(f, "stage graph must have at least one stage"),
            WorkloadError::Stage { index, stage, reason } => {
                write!(f, "stage {index} (`{stage}`): {reason}")
            }
            WorkloadError::Graph { field, reason } => write!(f, "{field}: {reason}"),
            WorkloadError::TooFewTenants { count } => {
                write!(f, "mixed tenancy needs at least 2 tenants, got {count}")
            }
            WorkloadError::NestedTenants { index } => {
                write!(f, "tenant {index} has tenants of its own; sharing is one level deep")
            }
            WorkloadError::Tenant { index, source } => write!(f, "tenant {index}: {source}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// One training workload: a Table-I row, or a composed description built
/// through [`Workload::builder`].
///
/// Construct presets with the named constructors ([`Workload::resnet50`],
/// [`Workload::llm`], …) or custom workloads with the validated builder;
/// direct struct construction is deprecated in favor of the builder (the
/// struct grew DSL fields, and the builder is what validates them).
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Display name, exactly as the paper prints it for Table-I rows.
    pub name: String,
    /// Network family.
    pub kind: NnKind,
    /// Input modality.
    pub input: InputKind,
    /// Task description.
    pub task: String,
    /// Batch size (largest a single TPU v3-8 runs).
    pub batch_size: u64,
    /// Model parameter size in MB.
    pub model_mbytes: f64,
    /// Per-accelerator training throughput, samples/s.
    pub accel_samples_per_sec: f64,
    /// Synchronization pattern (default: the paper's ring all-reduce).
    pub sync: SyncPattern,
    /// Explicit preparation graph (`None` = the modality's calibrated
    /// legacy pipeline).
    pub stages: Option<StageGraph>,
    /// Co-located workloads sharing this server (empty = single tenant).
    /// When non-empty, the flat fields above describe the blended
    /// aggregate and the engine reports per-tenant fairness statistics.
    pub tenants: Vec<Workload>,
}

// Hand-written: the seven legacy fields always, in their historical order;
// DSL fields only when they differ from their defaults. A pre-DSL workload
// therefore serializes to exactly the bytes the flat struct produced, which
// is what keeps every legacy `canonical_hash` (and the serving tier's
// verified cache) valid.
impl Serialize for Workload {
    fn to_json(&self) -> serde::json::Json {
        let mut fields = vec![
            ("name".to_string(), self.name.to_json()),
            ("kind".to_string(), self.kind.to_json()),
            ("input".to_string(), self.input.to_json()),
            ("task".to_string(), self.task.to_json()),
            ("batch_size".to_string(), self.batch_size.to_json()),
            ("model_mbytes".to_string(), self.model_mbytes.to_json()),
            (
                "accel_samples_per_sec".to_string(),
                self.accel_samples_per_sec.to_json(),
            ),
        ];
        if self.sync != SyncPattern::RingAllReduce {
            fields.push(("sync".to_string(), self.sync.to_json()));
        }
        if let Some(stages) = &self.stages {
            fields.push(("stages".to_string(), stages.to_json()));
        }
        if !self.tenants.is_empty() {
            fields.push(("tenants".to_string(), self.tenants.to_json()));
        }
        serde::json::Json::Object(fields)
    }
}

// Lenient like the old derived impl (unknown keys ignored, so clients that
// annotate workload objects keep parsing); the seven legacy fields are
// required, DSL fields default.
impl Deserialize for Workload {
    fn from_json(v: &serde::json::Json) -> Result<Self, serde::json::JsonError> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::json::JsonError::type_mismatch("Workload", "object"))?;
        let mut name: Option<String> = None;
        let mut kind: Option<NnKind> = None;
        let mut input: Option<InputKind> = None;
        let mut task: Option<String> = None;
        let mut batch_size: Option<u64> = None;
        let mut model_mbytes: Option<f64> = None;
        let mut accel: Option<f64> = None;
        let mut sync = SyncPattern::default();
        let mut stages = None;
        let mut tenants = Vec::new();
        for (key, val) in obj {
            if matches!(val, serde::json::Json::Null) {
                continue;
            }
            match key.as_str() {
                "name" => name = Some(Deserialize::from_json(val)?),
                "kind" => kind = Some(Deserialize::from_json(val)?),
                "input" => input = Some(Deserialize::from_json(val)?),
                "task" => task = Some(Deserialize::from_json(val)?),
                "batch_size" => batch_size = Some(Deserialize::from_json(val)?),
                "model_mbytes" => model_mbytes = Some(Deserialize::from_json(val)?),
                "accel_samples_per_sec" => accel = Some(Deserialize::from_json(val)?),
                "sync" => sync = Deserialize::from_json(val)?,
                "stages" => stages = Some(Deserialize::from_json(val)?),
                "tenants" => tenants = Deserialize::from_json(val)?,
                _ => {} // unknown keys ignored, as the derived impl did
            }
        }
        let missing = |f| serde::json::JsonError::missing_field("Workload", f);
        Ok(Workload {
            name: name.ok_or_else(|| missing("name"))?,
            kind: kind.ok_or_else(|| missing("kind"))?,
            input: input.ok_or_else(|| missing("input"))?,
            task: task.ok_or_else(|| missing("task"))?,
            batch_size: batch_size.ok_or_else(|| missing("batch_size"))?,
            model_mbytes: model_mbytes.ok_or_else(|| missing("model_mbytes"))?,
            accel_samples_per_sec: accel.ok_or_else(|| missing("accel_samples_per_sec"))?,
            sync,
            stages,
            tenants,
        })
    }
}

/// Validated step-by-step construction of a [`Workload`].
///
/// ```
/// use trainbox_nn::workload::{PrepClass, StageCost, StageSpec, Workload};
///
/// let w = Workload::builder("My-CNN")
///     .task("Image classification")
///     .batch_size(1024)
///     .model_mbytes(120.0)
///     .accel_samples_per_sec(5000.0)
///     .stage(
///         StageSpec::new("decode", PrepClass::Formatting, StageCost::HostCpuSecs(1.0e-3))
///             .bytes(35_000, 602_112),
///     )
///     .try_build()
///     .unwrap();
/// assert_eq!(w.name, "My-CNN");
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    w: Workload,
    stages: Vec<StageSpec>,
    cpu_secs_per_sample: Option<f64>,
    fpga_samples_per_sec: Option<f64>,
    gpu_samples_per_sec: Option<f64>,
}

impl WorkloadBuilder {
    /// Network family (default [`NnKind::Cnn`]).
    pub fn kind(mut self, kind: NnKind) -> Self {
        self.w.kind = kind;
        self
    }

    /// Input modality (default [`InputKind::Image`]).
    pub fn input(mut self, input: InputKind) -> Self {
        self.w.input = input;
        self
    }

    /// Task description.
    pub fn task(mut self, task: impl Into<String>) -> Self {
        self.w.task = task.into();
        self
    }

    /// Batch size.
    pub fn batch_size(mut self, batch: u64) -> Self {
        self.w.batch_size = batch;
        self
    }

    /// Model parameter size, MB.
    pub fn model_mbytes(mut self, mb: f64) -> Self {
        self.w.model_mbytes = mb;
        self
    }

    /// Per-accelerator training throughput, samples/s.
    pub fn accel_samples_per_sec(mut self, rate: f64) -> Self {
        self.w.accel_samples_per_sec = rate;
        self
    }

    /// Synchronization pattern (default ring all-reduce).
    pub fn sync(mut self, sync: SyncPattern) -> Self {
        self.w.sync = sync;
        self
    }

    /// Append one preparation stage (building an explicit graph).
    pub fn stage(mut self, stage: StageSpec) -> Self {
        self.stages.push(stage);
        self
    }

    /// Use a complete pre-built graph (replaces any staged-in stages).
    pub fn stage_graph(mut self, graph: StageGraph) -> Self {
        self.stages = graph.stages;
        self.cpu_secs_per_sample = graph.cpu_secs_per_sample;
        self.fpga_samples_per_sec = graph.fpga_samples_per_sec;
        self.gpu_samples_per_sec = graph.gpu_samples_per_sec;
        self
    }

    /// Declare the graph's total host-CPU seconds per sample.
    pub fn cpu_secs_per_sample(mut self, secs: f64) -> Self {
        self.cpu_secs_per_sample = Some(secs);
        self
    }

    /// Declare the graph's FPGA preparation rate, samples/s.
    pub fn fpga_samples_per_sec(mut self, rate: f64) -> Self {
        self.fpga_samples_per_sec = Some(rate);
        self
    }

    /// Declare the graph's GPU preparation rate, samples/s.
    pub fn gpu_samples_per_sec(mut self, rate: f64) -> Self {
        self.gpu_samples_per_sec = Some(rate);
        self
    }

    /// Add a co-located tenant workload.
    pub fn tenant(mut self, tenant: Workload) -> Self {
        self.w.tenants.push(tenant);
        self
    }

    /// Validate and build.
    pub fn try_build(mut self) -> Result<Workload, WorkloadError> {
        if !self.stages.is_empty() {
            self.w.stages = Some(StageGraph {
                stages: self.stages,
                cpu_secs_per_sample: self.cpu_secs_per_sample,
                fpga_samples_per_sec: self.fpga_samples_per_sec,
                gpu_samples_per_sec: self.gpu_samples_per_sec,
            });
        }
        self.w.validate()?;
        Ok(self.w)
    }

    /// Build, panicking on an invalid description (use [`Self::try_build`]
    /// for a `Result`).
    pub fn build(self) -> Workload {
        self.try_build().unwrap_or_else(|e| panic!("invalid workload: {e}"))
    }
}

impl Workload {
    /// Start a validated workload description. Defaults: CNN over images,
    /// batch 1, 1 MB model, 1 sample/s — callers set what matters and
    /// [`WorkloadBuilder::try_build`] validates the result.
    pub fn builder(name: impl Into<String>) -> WorkloadBuilder {
        WorkloadBuilder {
            w: Workload {
                name: name.into(),
                kind: NnKind::Cnn,
                input: InputKind::Image,
                task: String::new(),
                batch_size: 1,
                model_mbytes: 1.0,
                accel_samples_per_sec: 1.0,
                sync: SyncPattern::default(),
                stages: None,
                tenants: Vec::new(),
            },
            stages: Vec::new(),
            cpu_secs_per_sample: None,
            fpga_samples_per_sec: None,
            gpu_samples_per_sec: None,
        }
    }

    /// Validate this description (the builder calls this; wire parsing
    /// does too, so a hand-assembled struct can be checked explicitly).
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.name.is_empty() {
            return Err(WorkloadError::EmptyName);
        }
        if self.batch_size == 0 {
            return Err(WorkloadError::NonPositive { field: "batch_size", value: 0.0 });
        }
        for (field, v) in [
            ("model_mbytes", self.model_mbytes),
            ("accel_samples_per_sec", self.accel_samples_per_sec),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return Err(WorkloadError::NonPositive { field, value: v });
            }
        }
        if let Some(graph) = &self.stages {
            graph.validate()?;
        }
        if !self.tenants.is_empty() {
            if self.tenants.len() < 2 {
                return Err(WorkloadError::TooFewTenants { count: self.tenants.len() });
            }
            for (i, t) in self.tenants.iter().enumerate() {
                if !t.tenants.is_empty() {
                    return Err(WorkloadError::NestedTenants { index: i });
                }
                t.validate()
                    .map_err(|e| WorkloadError::Tenant { index: i, source: Box::new(e) })?;
            }
        }
        Ok(())
    }

    /// A legacy flat row: the seven Table-I fields, default sync, no graph.
    fn table1(
        name: &str,
        kind: NnKind,
        input: InputKind,
        task: &str,
        batch_size: u64,
        model_mbytes: f64,
        accel_samples_per_sec: f64,
    ) -> Self {
        Workload {
            name: name.to_string(),
            kind,
            input,
            task: task.to_string(),
            batch_size,
            model_mbytes,
            accel_samples_per_sec,
            sync: SyncPattern::default(),
            stages: None,
            tenants: Vec::new(),
        }
    }

    /// VGG-19 image classification.
    pub fn vgg19() -> Self {
        Workload::table1("VGG-19", NnKind::Cnn, InputKind::Image, "Image classification", 2048, 548.0, 3062.0)
    }

    /// ResNet-50 image classification.
    pub fn resnet50() -> Self {
        Workload::table1("Resnet-50", NnKind::Cnn, InputKind::Image, "Image classification", 8192, 97.5, 7431.0)
    }

    /// Inception-v4 image classification.
    pub fn inception_v4() -> Self {
        Workload::table1("Inception-v4", NnKind::Cnn, InputKind::Image, "Image classification", 2048, 162.7, 1669.0)
    }

    /// Small LSTM captioning model.
    pub fn rnn_s() -> Self {
        Workload::table1("RNN-S", NnKind::Rnn, InputKind::Image, "Image captioning", 4096, 1.0, 12022.0)
    }

    /// Large LSTM captioning model.
    pub fn rnn_l() -> Self {
        Workload::table1("RNN-L", NnKind::Rnn, InputKind::Image, "Image captioning", 2048, 16.0, 6495.0)
    }

    /// Transformer speech recognition.
    pub fn transformer_sr() -> Self {
        Workload::table1("TF-SR", NnKind::Transformer, InputKind::Audio, "Speech recognition", 512, 268.3, 2001.0)
    }

    /// Transformer audio analysis.
    pub fn transformer_aa() -> Self {
        Workload::table1("TF-AA", NnKind::Transformer, InputKind::Audio, "Audio analysis", 512, 162.5, 2889.0)
    }

    /// LLM pretraining: activation-heavy transformer over long text
    /// sequences, with tokenization dominating preparation. One "sample"
    /// is one packed 2048-token sequence (~16 KB of UTF-8 in, 8 KB of
    /// `u32` token ids out); BPE-style tokenization of long sequences is
    /// the formatting cost.
    pub fn llm() -> Self {
        Workload::builder("LLM-7B")
            .kind(NnKind::Transformer)
            .input(InputKind::Text)
            .task("Language modeling")
            .batch_size(2048)
            .model_mbytes(14_000.0)
            .accel_samples_per_sec(48.0)
            .stage(
                StageSpec::new("shard_read", PrepClass::SsdRead, StageCost::HostCpuSecs(6.0e-5))
                    .bytes(16_384, 16_384),
            )
            .stage(
                StageSpec::new(
                    "tokenize",
                    PrepClass::Formatting,
                    StageCost::HostCpuSecs(trainbox_dataprep::tokenize::LLM_TOKENIZE_SECS),
                )
                .bytes(
                    trainbox_dataprep::tokenize::LLM_SEQ_BYTES,
                    trainbox_dataprep::tokenize::LLM_TOKEN_BYTES,
                )
                .parallelism(8)
                .after("shard_read"),
            )
            .stage(
                StageSpec::new("pack_sequences", PrepClass::DataLoad, StageCost::HostCpuSecs(2.4e-4))
                    .bytes(8_192, 8_192)
                    .after("tokenize"),
            )
            .build()
    }

    /// Embedding-dominated recommendation training: tiny dense samples,
    /// irregular embedding-lookup traffic, and an all-to-all exchange in
    /// place of the ring (each accelerator owns a shard of the embedding
    /// tables, so every batch shuffles activations and gradients pairwise
    /// — the Parameter-Box-style pattern).
    pub fn recsys() -> Self {
        Workload::builder("DLRM")
            .kind(NnKind::Embedding)
            .input(InputKind::Tabular)
            .task("Click-through prediction")
            .batch_size(65_536)
            .model_mbytes(2_000.0)
            .accel_samples_per_sec(220_000.0)
            .sync(SyncPattern::AllToAll)
            .stage(
                StageSpec::new("log_read", PrepClass::SsdRead, StageCost::HostCpuSecs(1.2e-6))
                    .bytes(512, 512),
            )
            .stage(
                StageSpec::new("embedding_lookup", PrepClass::DataLoad, StageCost::HostCpuSecs(6.5e-6))
                    .bytes(512, 2_048)
                    .parallelism(16)
                    .after("log_read"),
            )
            .stage(
                StageSpec::new("negative_sample", PrepClass::Augmentation, StageCost::HostCpuSecs(1.8e-6))
                    .bytes(2_048, 2_176)
                    .after("embedding_lookup"),
            )
            .build()
    }

    /// Video understanding: multi-frame decode dominates preparation. One
    /// sample is an 8-frame clip sampled from an MJPEG-style shard; each
    /// frame pays an image-decode-class cost, so formatting carries ~8x
    /// the single-image decode time.
    pub fn video() -> Self {
        Workload::builder("Video-TF")
            .kind(NnKind::Transformer)
            .input(InputKind::Video)
            .task("Video understanding")
            .batch_size(256)
            .model_mbytes(300.0)
            .accel_samples_per_sec(900.0)
            .stage(
                StageSpec::new("clip_demux", PrepClass::SsdRead, StageCost::HostCpuSecs(1.6e-4))
                    .bytes(280_000, 280_000),
            )
            .stage(
                StageSpec::new(
                    "frame_decode",
                    PrepClass::Formatting,
                    StageCost::HostCpuSecs(trainbox_dataprep::video::CLIP_DECODE_SECS),
                )
                .bytes(280_000, 4_816_896)
                .parallelism(8)
                .after("clip_demux"),
            )
            .stage(
                StageSpec::new("temporal_sample", PrepClass::Augmentation, StageCost::HostCpuSecs(4.0e-4))
                    .bytes(4_816_896, 4_816_896)
                    .after("frame_decode"),
            )
            .stage(
                StageSpec::new("tensorize", PrepClass::DataLoad, StageCost::HostCpuSecs(5.5e-4))
                    .bytes(4_816_896, 4_816_896)
                    .after("temporal_sample"),
            )
            .build()
    }

    /// Two workloads sharing one box: ResNet-50 alongside TF-SR. The flat
    /// fields are the blended aggregate ([`Workload::blended_flat`]); the
    /// engine reports per-tenant interference and fairness statistics.
    pub fn mixed() -> Self {
        let tenants = vec![Workload::resnet50(), Workload::transformer_sr()];
        Workload::blended_flat("Mixed-RN50-TFSR", tenants)
    }

    /// Blend tenants into an aggregate flat description: batches and model
    /// sizes sum (each tenant synchronizes its own gradients on the shared
    /// fabric), the compute rate is the time-shared harmonic blend, and
    /// kind/input follow the largest-batch tenant. The preparation-side
    /// blend (a merged stage graph) is applied by the engine, which owns
    /// the calibration constants.
    pub fn blended_flat(name: impl Into<String>, tenants: Vec<Workload>) -> Workload {
        assert!(tenants.len() >= 2, "mixed tenancy needs at least 2 tenants");
        let batch: u64 = tenants.iter().map(|t| t.batch_size).sum();
        let model: f64 = tenants.iter().map(|t| t.model_mbytes).sum();
        let time: f64 = tenants
            .iter()
            .map(|t| t.batch_size as f64 / t.accel_samples_per_sec)
            .sum();
        let dominant = tenants
            .iter()
            .max_by_key(|t| t.batch_size)
            .expect("at least two tenants");
        Workload {
            name: name.into(),
            kind: dominant.kind,
            input: dominant.input,
            task: "Mixed tenancy".to_string(),
            batch_size: batch,
            model_mbytes: model,
            accel_samples_per_sec: batch as f64 / time,
            sync: SyncPattern::default(),
            stages: None,
            tenants,
        }
    }

    /// All seven Table-I workloads, in the paper's order.
    pub fn all() -> Vec<Workload> {
        vec![
            Workload::vgg19(),
            Workload::resnet50(),
            Workload::inception_v4(),
            Workload::rnn_s(),
            Workload::rnn_l(),
            Workload::transformer_sr(),
            Workload::transformer_aa(),
        ]
    }

    /// The full preset catalog: Table I plus the DSL scenario families.
    /// Built on first use and kept for the life of the process.
    pub fn presets() -> &'static [Workload] {
        static PRESETS: OnceLock<Vec<Workload>> = OnceLock::new();
        PRESETS.get_or_init(|| {
            let mut all = Workload::all();
            all.push(Workload::llm());
            all.push(Workload::recsys());
            all.push(Workload::video());
            all.push(Workload::mixed());
            all
        })
    }

    /// Look up a preset by name (case-insensitive; Table I and the DSL
    /// families). Clones only the match.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::presets().iter().find(|w| w.name.eq_ignore_ascii_case(name)).cloned()
    }

    /// Model size in bytes.
    pub fn model_bytes(&self) -> u64 {
        (self.model_mbytes * 1e6) as u64
    }

    /// Aggregate demand of `n` accelerators in samples/s (the data-prep
    /// throughput required to keep them fed).
    pub fn aggregate_demand(&self, n_accels: usize) -> f64 {
        self.accel_samples_per_sec * n_accels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_seven_rows_in_paper_order() {
        let all = Workload::all();
        assert_eq!(all.len(), 7);
        let names: Vec<&str> = all.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["VGG-19", "Resnet-50", "Inception-v4", "RNN-S", "RNN-L", "TF-SR", "TF-AA"]
        );
    }

    #[test]
    fn modality_split_matches_paper() {
        // Five image-input workloads (CNNs + caption RNNs), two audio.
        let all = Workload::all();
        assert_eq!(all.iter().filter(|w| w.input == InputKind::Image).count(), 5);
        assert_eq!(all.iter().filter(|w| w.input == InputKind::Audio).count(), 2);
        assert!(all
            .iter()
            .filter(|w| w.kind == NnKind::Transformer)
            .all(|w| w.input == InputKind::Audio));
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(Workload::by_name("resnet-50").unwrap().name, "Resnet-50");
        assert_eq!(Workload::by_name("TF-sr").unwrap().name, "TF-SR");
        assert_eq!(Workload::by_name("dlrm").unwrap().name, "DLRM");
        assert!(Workload::by_name("AlexNet").is_none());
        // Every preset, under any ASCII case, is its constructor's value.
        let constructors: [fn() -> Workload; 11] = [
            Workload::vgg19,
            Workload::resnet50,
            Workload::inception_v4,
            Workload::rnn_s,
            Workload::rnn_l,
            Workload::transformer_sr,
            Workload::transformer_aa,
            Workload::llm,
            Workload::recsys,
            Workload::video,
            Workload::mixed,
        ];
        assert_eq!(constructors.len(), Workload::presets().len());
        for make in constructors {
            let w = make();
            for name in [w.name.to_lowercase(), w.name.to_uppercase(), w.name.clone()] {
                assert_eq!(Workload::by_name(&name).as_ref(), Some(&w), "{name}");
            }
        }
    }

    #[test]
    fn derived_quantities() {
        let r = Workload::resnet50();
        assert_eq!(r.model_bytes(), 97_500_000);
        assert!((r.aggregate_demand(256) - 256.0 * 7431.0).abs() < 1e-6);
    }

    #[test]
    fn rnn_s_is_fastest_per_accelerator() {
        let all = Workload::all();
        let fastest = all
            .iter()
            .max_by(|a, b| a.accel_samples_per_sec.partial_cmp(&b.accel_samples_per_sec).unwrap())
            .unwrap();
        assert_eq!(fastest.name, "RNN-S");
    }

    #[test]
    fn legacy_serialization_is_the_flat_seven_field_object() {
        // The exact pre-DSL bytes: new fields must not appear for a
        // Table-I row. This is what preserves every legacy canonical hash.
        let json = serde_json::to_string(&Workload::resnet50()).unwrap();
        assert_eq!(
            json,
            "{\"name\":\"Resnet-50\",\"kind\":\"Cnn\",\"input\":\"Image\",\
             \"task\":\"Image classification\",\"batch_size\":8192,\
             \"model_mbytes\":97.5,\"accel_samples_per_sec\":7431.0}"
        );
    }

    #[test]
    fn dsl_fields_round_trip() {
        for preset in [Workload::llm(), Workload::recsys(), Workload::video(), Workload::mixed()] {
            let json = serde_json::to_string(&preset).unwrap();
            let parsed = trainbox_sim_free_parse(&json);
            let back = Workload::from_json(&parsed).unwrap();
            assert_eq!(preset, back, "{} must round-trip", preset.name);
            back.validate().unwrap();
        }
    }

    /// Parse JSON text into the vendored data model without depending on
    /// trainbox-sim (nn sits below it): a minimal recursive-descent parse
    /// via serde_json's own renderer is unavailable, so re-parse through
    /// the test-only helper below.
    fn trainbox_sim_free_parse(text: &str) -> serde::json::Json {
        json_parse(&mut text.chars().peekable()).expect("test JSON parses")
    }

    fn json_parse(
        it: &mut std::iter::Peekable<std::str::Chars<'_>>,
    ) -> Option<serde::json::Json> {
        use serde::json::Json;
        while matches!(it.peek(), Some(c) if c.is_whitespace()) {
            it.next();
        }
        match *it.peek()? {
            '{' => {
                it.next();
                let mut fields = Vec::new();
                loop {
                    while matches!(it.peek(), Some(c) if c.is_whitespace() || *c == ',') {
                        it.next();
                    }
                    if it.peek() == Some(&'}') {
                        it.next();
                        return Some(Json::Object(fields));
                    }
                    let Json::Str(key) = json_parse(it)? else { return None };
                    while matches!(it.peek(), Some(c) if c.is_whitespace() || *c == ':') {
                        it.next();
                    }
                    fields.push((key, json_parse(it)?));
                }
            }
            '[' => {
                it.next();
                let mut items = Vec::new();
                loop {
                    while matches!(it.peek(), Some(c) if c.is_whitespace() || *c == ',') {
                        it.next();
                    }
                    if it.peek() == Some(&']') {
                        it.next();
                        return Some(Json::Array(items));
                    }
                    items.push(json_parse(it)?);
                }
            }
            '"' => {
                it.next();
                let mut s = String::new();
                loop {
                    match it.next()? {
                        '"' => return Some(Json::Str(s)),
                        '\\' => s.push(it.next()?),
                        c => s.push(c),
                    }
                }
            }
            't' => {
                for _ in 0..4 {
                    it.next();
                }
                Some(Json::Bool(true))
            }
            'f' => {
                for _ in 0..5 {
                    it.next();
                }
                Some(Json::Bool(false))
            }
            'n' => {
                for _ in 0..4 {
                    it.next();
                }
                Some(Json::Null)
            }
            _ => {
                let mut s = String::new();
                while matches!(it.peek(), Some(c) if c.is_ascii_digit() || "+-.eE".contains(*c)) {
                    s.push(it.next()?);
                }
                let x: f64 = s.parse().ok()?;
                if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
                    if x >= 0.0 {
                        Some(Json::U64(x as u64))
                    } else {
                        Some(Json::I64(x as i64))
                    }
                } else {
                    Some(Json::F64(x))
                }
            }
        }
    }

    #[test]
    fn builder_validates_field_by_field() {
        let empty = Workload::builder("").try_build().unwrap_err();
        assert_eq!(empty.field(), "name");

        let zero_rate =
            Workload::builder("X").accel_samples_per_sec(0.0).try_build().unwrap_err();
        assert_eq!(zero_rate.field(), "accel_samples_per_sec");
        assert!(zero_rate.to_string().contains("accel_samples_per_sec"));

        let dup = Workload::builder("X")
            .stage(StageSpec::new("a", PrepClass::SsdRead, StageCost::HostCpuSecs(1e-6)))
            .stage(StageSpec::new("a", PrepClass::Others, StageCost::HostCpuSecs(1e-6)))
            .try_build()
            .unwrap_err();
        assert_eq!(dup.field(), "stages.stages[1]");
        assert!(dup.to_string().contains("duplicate"), "{dup}");

        let dangling = Workload::builder("X")
            .stage(
                StageSpec::new("a", PrepClass::SsdRead, StageCost::HostCpuSecs(1e-6))
                    .after("ghost"),
            )
            .try_build()
            .unwrap_err();
        assert!(dangling.to_string().contains("ghost"), "{dangling}");

        let cycle = Workload::builder("X")
            .stage(StageSpec::new("a", PrepClass::SsdRead, StageCost::HostCpuSecs(1e-6)).after("b"))
            .stage(StageSpec::new("b", PrepClass::Others, StageCost::HostCpuSecs(1e-6)).after("a"))
            .try_build()
            .unwrap_err();
        assert!(cycle.to_string().contains("cycle"), "{cycle}");

        let drift = Workload::builder("X")
            .stage(StageSpec::new("a", PrepClass::SsdRead, StageCost::HostCpuSecs(1.0e-3)))
            .cpu_secs_per_sample(2.0e-3)
            .try_build()
            .unwrap_err();
        assert_eq!(drift.field(), "stages.cpu_secs_per_sample");

        let bad_cost = Workload::builder("X")
            .stage(StageSpec::new("a", PrepClass::SsdRead, StageCost::AccelSamplesPerSec(-1.0)))
            .try_build()
            .unwrap_err();
        assert_eq!(bad_cost.field(), "stages.stages[0]");
    }

    #[test]
    fn tenancy_validation() {
        let one = Workload {
            tenants: vec![Workload::resnet50()],
            ..Workload::resnet50()
        };
        assert_eq!(one.validate().unwrap_err().field(), "tenants");

        let nested = Workload {
            tenants: vec![Workload::mixed(), Workload::resnet50()],
            ..Workload::resnet50()
        };
        assert!(matches!(nested.validate().unwrap_err(), WorkloadError::NestedTenants { index: 0 }));

        let mut bad_tenant = Workload::transformer_sr();
        bad_tenant.model_mbytes = f64::NAN;
        let mixed = Workload {
            tenants: vec![Workload::resnet50(), bad_tenant],
            ..Workload::resnet50()
        };
        let err = mixed.validate().unwrap_err();
        assert_eq!(err.field(), "tenants[1].model_mbytes");
    }

    #[test]
    fn new_presets_are_valid_and_distinctive() {
        let llm = Workload::llm();
        llm.validate().unwrap();
        let g = llm.stages.as_ref().unwrap();
        // Tokenization dominates LLM preparation.
        assert!(g.class_cpu_secs(PrepClass::Formatting) > 0.8 * g.total_cpu_secs_per_sample());
        assert_eq!(g.stored_bytes(), 16_384);
        assert_eq!(g.tensor_bytes(), 8_192);

        let rec = Workload::recsys();
        rec.validate().unwrap();
        assert_eq!(rec.sync, SyncPattern::AllToAll);
        // Irregular lookup traffic: DataLoad is the recsys prep center.
        let g = rec.stages.as_ref().unwrap();
        assert!(
            g.class_cpu_secs(PrepClass::DataLoad) > g.class_cpu_secs(PrepClass::Formatting)
        );

        let vid = Workload::video();
        vid.validate().unwrap();
        let g = vid.stages.as_ref().unwrap();
        // Multi-frame decode dominates video preparation.
        assert!(g.class_cpu_secs(PrepClass::Formatting) > 0.7 * g.total_cpu_secs_per_sample());
        // 8 frames of 224x224x3 floats.
        assert_eq!(g.tensor_bytes(), 8 * 602_112);

        let mixed = Workload::mixed();
        mixed.validate().unwrap();
        assert_eq!(mixed.tenants.len(), 2);
        assert_eq!(mixed.batch_size, 8192 + 512);
        // Harmonic blend sits between the tenants' rates.
        assert!(mixed.accel_samples_per_sec > 2001.0);
        assert!(mixed.accel_samples_per_sec < 7431.0);
    }

    #[test]
    fn preset_catalog_is_table1_plus_four_families() {
        let presets = Workload::presets();
        assert_eq!(presets.len(), 11);
        let names: Vec<String> = presets.iter().map(|w| w.name.clone()).collect();
        let table1: Vec<String> = Workload::all().iter().map(|w| w.name.clone()).collect();
        assert_eq!(&names[..7], table1.as_slice());
        assert_eq!(&names[7..], &["LLM-7B", "DLRM", "Video-TF", "Mixed-RN50-TFSR"]);
        // Names are unique (the catalog doubles as a lookup table).
        let mut sorted: Vec<String> = names.iter().map(|n| n.to_lowercase()).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), presets.len());
    }

    #[test]
    fn sync_pattern_serializes_as_bare_string() {
        assert_eq!(serde_json::to_string(&SyncPattern::ParameterServer).unwrap(), "\"ParameterServer\"");
        let json = serde_json::to_string(&Workload::recsys()).unwrap();
        assert!(json.contains("\"sync\":\"AllToAll\""), "{json}");
        // Ring is the default and stays off the wire.
        assert!(!serde_json::to_string(&Workload::vgg19()).unwrap().contains("sync"));
    }
}
