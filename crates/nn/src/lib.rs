//! Minimal neural-network training substrate and the paper's workload models.
//!
//! Two roles in the reproduction:
//!
//! 1. [`workload`] defines the seven Table-I workloads (name, type, batch
//!    size, model size, per-accelerator throughput) that parameterize every
//!    evaluation figure.
//! 2. [`tensor`], [`layers`], and [`train`] form a small but real training
//!    stack (dense layers, softmax cross-entropy, SGD with momentum) used to
//!    reproduce Figure 5 — *training with data augmentation shows higher
//!    accuracy than training without it* — with the actual augmentation
//!    kernels from `trainbox-dataprep` in the loop.
//!
//! The stack is deliberately CPU-sized: the paper treats model computation as
//! a black-box throughput number measured on TPUs (§VI-A); what must be real
//! here is the *data preparation's effect on accuracy*, not TPU-scale math.

mod lane;
pub mod layers;
pub mod tensor;
pub mod train;
pub mod workload;

pub use tensor::{Matrix, MatrixView};
pub use workload::{
    InputKind, NnKind, PrepClass, StageCost, StageGraph, StageSpec, SyncPattern, Workload,
    WorkloadBuilder, WorkloadError,
};
