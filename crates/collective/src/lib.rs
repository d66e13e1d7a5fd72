//! Model synchronization: collective communication algorithms and their
//! latency models.
//!
//! §II-B of the paper: model synchronization shares each accelerator's
//! gradients with all others. NCCL-style *ring* reduction exploits the
//! all-to-all pattern so that latency saturates at about **twice the 2-node
//! latency** regardless of scale (Fig 2b) — the property that shifts the
//! bottleneck to data preparation in the first place.
//!
//! * [`model`] — the analytic chunked-ring latency model used by the server
//!   simulator, which reproduces Fig 2b's saturation shape, plus the
//!   binomial-tree baseline it replaces;
//! * [`hierarchical`] — rings composed across tiers (intra-server fabric,
//!   then the network between servers);
//! * [`sync`] — the [`SyncModel`] the simulator dispatches on: ring,
//!   hierarchical, all-to-all or parameter server.

pub mod hierarchical;
pub mod model;
pub mod sync;

pub use hierarchical::{HierarchicalModel, Tier};
pub use model::RingModel;
pub use sync::{AllToAllModel, PsModel, SyncModel};
