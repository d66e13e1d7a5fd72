//! PCIe interconnect model for the TrainBox reproduction.
//!
//! The paper (§II-C, §III-A, §IV) models a neural-network server as a PCIe
//! tree: the root complex (RC) at the root, switches as internal nodes, and
//! devices (SSDs, neural-network accelerators, data-preparation accelerators)
//! at the leaves. This crate implements that model:
//!
//! * [`topology`] — the tree itself, with typed nodes and per-direction links;
//! * [`addr`] — boot-time address-window assignment and address-based packet
//!   routing exactly as real PCIe switches forward TLPs (§IV-C of the paper);
//! * [`flow`] — a fluid-flow bandwidth model: concurrent DMA transfers share
//!   each link max-min fairly, with an event-driven transfer simulator;
//! * [`boxes`] — the paper's "box" constructions (Fig 7, 13, 15, 18): acc
//!   boxes, SSD boxes, prep boxes, and clustered train boxes chained from the
//!   root complex;
//! * [`bandwidth`] — link-speed types (PCIe Gen3/Gen4 per-lane rates, NVLink
//!   class accelerator fabric, 100 GbE for the prep-pool network).
//!
//! The key architectural behaviour reproduced here is that **peer-to-peer
//! traffic only occupies links up to the lowest common ancestor switch** of
//! the two endpoints. That is the mechanism behind the paper's Step 3
//! (communication-aware clustering): placing SSDs, prep accelerators, and NN
//! accelerators under the same switch keeps all data-preparation traffic off
//! the root complex.
//!
//! # Example
//!
//! ```
//! use trainbox_pcie::bandwidth::Bandwidth;
//! use trainbox_pcie::topology::{EndpointKind, Topology};
//!
//! let mut topo = Topology::new();
//! let sw = topo.add_switch(topo.root(), Bandwidth::gen3_x16());
//! let ssd = topo.add_endpoint(sw, EndpointKind::Ssd, Bandwidth::gen3_x4());
//! let acc = topo.add_endpoint(sw, EndpointKind::NnAccel, Bandwidth::gen3_x16());
//! // P2P route between siblings never touches the root complex.
//! let route = topo.route(ssd, acc);
//! assert!(route.iter().all(|&l| !topo.link_touches(l, topo.root())));
//! ```

pub mod addr;
pub mod bandwidth;
pub mod boxes;
pub mod flow;
pub mod topology;

/// Test-only helpers (public so doctests and downstream test suites can build
/// raw ids); not part of the stable API.
#[doc(hidden)]
pub mod test_util {
    use crate::topology::{LinkId, NodeId};

    /// Build a raw [`LinkId`] from an index.
    pub fn link(index: u32) -> LinkId {
        LinkId(index)
    }

    /// Build a raw [`NodeId`] from an index.
    pub fn node(index: u32) -> NodeId {
        NodeId(index)
    }
}

pub use bandwidth::{Bandwidth, Generation};
pub use flow::{ClassId, FlowId, FlowNet, FlowSim};
pub use topology::{EndpointKind, LinkId, NodeId, Topology};
