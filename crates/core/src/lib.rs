//! The TrainBox server architecture — the paper's primary contribution.
//!
//! This crate models a large-scale neural-network training server end to
//! end and evaluates the paper's three optimizations:
//!
//! 1. **Data-preparation acceleration** (§IV-B): offload formatting and
//!    augmentation from host CPUs to an array of FPGA (or GPU) accelerators
//!    in chained prep boxes.
//! 2. **Peer-to-peer communication** (§IV-C): move data SSD→prep→accelerator
//!    directly over PCIe, bypassing host memory.
//! 3. **Communication-aware clustering** (§IV-D): co-locate SSDs, prep
//!    accelerators, and NN accelerators in *train boxes* so preparation
//!    traffic never crosses the root complex, with an Ethernet *prep-pool*
//!    absorbing workload variability.
//!
//! Modules:
//!
//! * [`calib`] — every calibration constant, each derived from a specific
//!   figure or sentence of the paper;
//! * [`fpga`] — the XCVU9P resource model reproducing Tables II/III;
//! * [`host`] — host-resource demand accounting (Figures 10, 11, 22);
//! * [`arch`] — server configurations and the analytic bottleneck
//!   throughput model (Figures 8, 19, 20, 21);
//! * [`analytic`] — latency decomposition (Figures 3, 9);
//! * [`initializer`] — the §V-A train initializer (prep-pool sizing);
//! * [`pipeline`] — a discrete-event simulation of the full datapath that
//!   cross-validates the analytic model;
//! * [`faults`] — deterministic fault injection (SSD stalls, prep crashes
//!   and slowdowns, link degradation, accelerator dropout, transient
//!   request failures) and the degraded-mode accounting the pipeline
//!   reports;
//! * [`request`] — the canonical what-if query API: one [`SimRequest`]
//!   subsumes every analytic and DES entry point, with a stable
//!   content hash that the `trainbox-serve` HTTP service keys its result
//!   cache on.
//!
//! # Quickstart
//!
//! ```
//! use trainbox_core::arch::{ServerConfig, ServerKind};
//! use trainbox_nn::Workload;
//!
//! let w = Workload::resnet50();
//! let baseline = ServerConfig::new(ServerKind::Baseline, 256).build();
//! let trainbox = ServerConfig::new(ServerKind::TrainBox, 256).build();
//! let speedup = trainbox.throughput(&w).samples_per_sec
//!     / baseline.throughput(&w).samples_per_sec;
//! assert!(speedup > 30.0);
//! ```

pub mod analytic;
pub mod arch;
pub(crate) mod barrier;
pub mod calib;
pub mod faults;
pub mod fpga;
pub mod host;
pub mod initializer;
pub(crate) mod intraserver;
pub mod multijob;
pub mod pipeline;
pub mod profile;
pub mod request;
pub mod scaleout;
pub mod staticprep;

pub use arch::{Bottleneck, ConfigError, Server, ServerConfig, ServerKind, Throughput};
pub use profile::{effective_workload, lower_legacy, PrepProfile};
pub use request::{SimMode, SimOutcome, SimRequest, SimResponse};
