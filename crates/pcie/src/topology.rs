//! The PCIe tree: typed nodes, per-direction links, and LCA routing.
//!
//! PCIe forms a strict tree (§II-C): the root complex at the root, switches
//! as internal nodes, devices at the leaves. Each tree edge is a full-duplex
//! link modeled as **two directed links** (up toward the root, down toward
//! the leaves) so that simultaneous transfers in opposite directions do not
//! contend — matching real PCIe, which has independent lanes per direction.

use crate::bandwidth::Bandwidth;
use serde::{Deserialize, Serialize};

/// Identifier of a node in the PCIe tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Raw index (stable for the lifetime of the topology).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a **directed** link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// Raw index (stable for the lifetime of the topology).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a link id from a raw index, e.g. one recorded in a fault
    /// plan. The caller is responsible for the index naming a link of the
    /// topology it is used against (out-of-range ids panic at use sites).
    pub fn from_index(index: usize) -> Self {
        LinkId(u32::try_from(index).expect("link index fits in u32"))
    }
}

/// What kind of device sits at an endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EndpointKind {
    /// NVMe SSD (data source).
    Ssd,
    /// Neural-network accelerator (TPU/GPU class).
    NnAccel,
    /// Data-preparation accelerator (FPGA in the paper's implementation).
    PrepAccel,
    /// GPU used as a data-preparation accelerator (Fig 21 comparison).
    GpuPrep,
    /// Network interface (prep-pool Ethernet attach).
    Nic,
}

/// Node payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// The PCIe root complex; DMA to/from host memory terminates here.
    RootComplex,
    /// A PCIe switch.
    Switch,
    /// A leaf device.
    Endpoint(EndpointKind),
}

#[derive(Debug, Clone, Serialize, Deserialize)]
struct Node {
    kind: NodeKind,
    parent: Option<NodeId>,
    /// Link from parent down to this node / from this node up to parent.
    down_link: Option<LinkId>,
    up_link: Option<LinkId>,
    children: Vec<NodeId>,
    depth: u32,
}

/// A directed link with its capacity.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Link {
    /// Upstream node (closer to the root).
    pub upstream: NodeId,
    /// Downstream node (further from the root).
    pub downstream: NodeId,
    /// `true` if this directed link carries traffic toward the root.
    pub toward_root: bool,
    /// Capacity in this direction.
    pub bandwidth: Bandwidth,
}

/// The PCIe tree.
///
/// Construct with [`Topology::new`], then grow with [`Topology::add_switch`]
/// and [`Topology::add_endpoint`]. Routes are computed over directed links
/// via the lowest common ancestor, which is how PCIe P2P traffic actually
/// flows: up from the source to the LCA switch, then down to the destination.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
}

impl Default for Topology {
    fn default() -> Self {
        Self::new()
    }
}

impl Topology {
    /// Create a topology containing only the root complex. Capacity limits
    /// are carried by the links hanging off it.
    pub fn new() -> Self {
        Topology {
            nodes: vec![Node {
                kind: NodeKind::RootComplex,
                parent: None,
                down_link: None,
                up_link: None,
                children: Vec::new(),
                depth: 0,
            }],
            links: Vec::new(),
        }
    }

    /// The root complex.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    fn add_node(&mut self, parent: NodeId, kind: NodeKind, bandwidth: Bandwidth) -> NodeId {
        assert!(
            !matches!(self.nodes[parent.index()].kind, NodeKind::Endpoint(_)),
            "cannot attach children to an endpoint"
        );
        let id = NodeId(self.nodes.len() as u32);
        let depth = self.nodes[parent.index()].depth + 1;
        let down = LinkId(self.links.len() as u32);
        self.links.push(Link {
            upstream: parent,
            downstream: id,
            toward_root: false,
            bandwidth,
        });
        let up = LinkId(self.links.len() as u32);
        self.links.push(Link {
            upstream: parent,
            downstream: id,
            toward_root: true,
            bandwidth,
        });
        self.nodes.push(Node {
            kind,
            parent: Some(parent),
            down_link: Some(down),
            up_link: Some(up),
            children: Vec::new(),
            depth,
        });
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Attach a switch under `parent` via a full-duplex link of `bandwidth`
    /// per direction. Returns the new switch's id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is an endpoint.
    pub fn add_switch(&mut self, parent: NodeId, bandwidth: Bandwidth) -> NodeId {
        self.add_node(parent, NodeKind::Switch, bandwidth)
    }

    /// Attach a device endpoint under `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is an endpoint.
    pub fn add_endpoint(
        &mut self,
        parent: NodeId,
        kind: EndpointKind,
        bandwidth: Bandwidth,
    ) -> NodeId {
        self.add_node(parent, NodeKind::Endpoint(kind), bandwidth)
    }

    /// Number of nodes (including the root complex).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node payload kind.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.nodes[node.index()].kind
    }

    /// Parent of `node` (`None` for the root complex).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node.index()].parent
    }

    /// Children of `node`, in attach order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node.index()].children
    }

    /// Depth of `node` (root complex = 0).
    pub fn depth(&self, node: NodeId) -> u32 {
        self.nodes[node.index()].depth
    }

    /// Directed link data.
    pub fn link(&self, link: LinkId) -> Link {
        self.links[link.index()]
    }

    /// All directed links.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, Link)> + '_ {
        self.links
            .iter()
            .enumerate()
            .map(|(i, &l)| (LinkId(i as u32), l))
    }

    /// All endpoints of a given kind, in creation order.
    pub fn endpoints_of_kind(&self, kind: EndpointKind) -> Vec<NodeId> {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| self.kind(n) == NodeKind::Endpoint(kind))
            .collect()
    }

    /// Does the directed link attach to `node` on either side?
    pub fn link_touches(&self, link: LinkId, node: NodeId) -> bool {
        let l = self.link(link);
        l.upstream == node || l.downstream == node
    }

    /// Lowest common ancestor of two nodes.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        while self.depth(a) > self.depth(b) {
            a = self.parent(a).expect("non-root node has a parent");
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b).expect("non-root node has a parent");
        }
        while a != b {
            a = self.parent(a).expect("non-root node has a parent");
            b = self.parent(b).expect("non-root node has a parent");
        }
        a
    }

    /// The directed-link route of a transfer from `src` to `dst`: up-links
    /// from `src` to the LCA, then down-links from the LCA to `dst`.
    ///
    /// Either end may be the root complex itself (DMA to/from host memory).
    /// Returns an empty route when `src == dst`.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Vec<LinkId> {
        let lca = self.lca(src, dst);
        let mut up = Vec::new();
        let mut n = src;
        while n != lca {
            up.push(self.nodes[n.index()].up_link.expect("non-root has up link"));
            n = self.parent(n).expect("non-root has parent");
        }
        let mut down = Vec::new();
        let mut n = dst;
        while n != lca {
            down.push(self.nodes[n.index()].down_link.expect("non-root has down link"));
            n = self.parent(n).expect("non-root has parent");
        }
        down.reverse();
        up.extend(down);
        up
    }

    /// Does the route from `src` to `dst` pass **through** the root complex
    /// (i.e. is the RC the LCA of a transfer between two distinct non-root
    /// nodes, or one end of the transfer)?
    pub fn route_crosses_root(&self, src: NodeId, dst: NodeId) -> bool {
        src == self.root() || dst == self.root() || self.lca(src, dst) == self.root()
    }

    /// Number of physical ports a switch uses: its children plus the uplink
    /// to its parent. Real parts bound this (the paper's PEX8796 has six
    /// links: one up, five down — §V-D).
    pub fn switch_radix(&self, node: NodeId) -> usize {
        let up = usize::from(self.parent(node).is_some());
        self.children(node).len() + up
    }

    /// Every switch whose port count exceeds `max_links` (the root complex
    /// is exempt: it is not a switch part). Empty when the topology is
    /// buildable from `max_links`-port switches.
    pub fn radix_violations(&self, max_links: usize) -> Vec<(NodeId, usize)> {
        (1..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| matches!(self.kind(n), NodeKind::Switch))
            .map(|n| (n, self.switch_radix(n)))
            .filter(|&(_, r)| r > max_links)
            .collect()
    }
}

/// Port budget of the high-end switch part the paper assumes (PEX8796,
/// §V-D: "up to six links (five for downlinks and one for an uplink)").
pub const PEX8796_MAX_LINKS: usize = 6;

#[cfg(test)]
mod tests {
    use super::*;

    fn bw() -> Bandwidth {
        Bandwidth::gen3_x16()
    }

    /// RC -> sw1 -> {ssd, sw2 -> {acc1, acc2}}
    fn sample() -> (Topology, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let sw1 = t.add_switch(t.root(), bw());
        let ssd = t.add_endpoint(sw1, EndpointKind::Ssd, Bandwidth::gen3_x4());
        let sw2 = t.add_switch(sw1, bw());
        let acc1 = t.add_endpoint(sw2, EndpointKind::NnAccel, bw());
        let acc2 = t.add_endpoint(sw2, EndpointKind::NnAccel, bw());
        (t, sw1, ssd, sw2, acc1, acc2)
    }

    #[test]
    fn tree_structure() {
        let (t, sw1, ssd, sw2, acc1, _) = sample();
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.link_count(), 10); // 5 edges x 2 directions
        assert_eq!(t.parent(sw1), Some(t.root()));
        assert_eq!(t.parent(ssd), Some(sw1));
        assert_eq!(t.children(sw1), &[ssd, sw2]);
        assert_eq!(t.depth(acc1), 3);
        assert_eq!(t.kind(ssd), NodeKind::Endpoint(EndpointKind::Ssd));
    }

    #[test]
    fn lca_cases() {
        let (t, sw1, ssd, sw2, acc1, acc2) = sample();
        assert_eq!(t.lca(acc1, acc2), sw2);
        assert_eq!(t.lca(ssd, acc1), sw1);
        assert_eq!(t.lca(ssd, ssd), ssd);
        assert_eq!(t.lca(t.root(), acc1), t.root());
    }

    #[test]
    fn route_between_siblings_stays_local() {
        let (t, _, _, sw2, acc1, acc2) = sample();
        let route = t.route(acc1, acc2);
        assert_eq!(route.len(), 2);
        // up from acc1 to sw2, down from sw2 to acc2
        let l0 = t.link(route[0]);
        let l1 = t.link(route[1]);
        assert!(l0.toward_root && l0.downstream == acc1 && l0.upstream == sw2);
        assert!(!l1.toward_root && l1.downstream == acc2 && l1.upstream == sw2);
        assert!(!t.route_crosses_root(acc1, acc2));
    }

    #[test]
    fn route_to_host_memory_crosses_root() {
        let (t, _, ssd, _, acc1, _) = sample();
        let route = t.route(ssd, t.root());
        assert_eq!(route.len(), 2); // ssd->sw1, sw1->rc (both up-links)
        assert!(route.iter().all(|&l| t.link(l).toward_root));
        assert!(t.route_crosses_root(ssd, t.root()));
        // P2P ssd -> acc does NOT cross the root (LCA is sw1).
        assert!(!t.route_crosses_root(ssd, acc1));
    }

    #[test]
    fn route_direction_links_are_disjoint() {
        let (t, _, ssd, _, acc1, _) = sample();
        let there = t.route(ssd, acc1);
        let back = t.route(acc1, ssd);
        assert_eq!(there.len(), back.len());
        for l in &there {
            assert!(!back.contains(l), "up and down directions must use distinct links");
        }
        assert!(t.route(ssd, ssd).is_empty());
    }

    #[test]
    fn endpoints_of_kind_filters() {
        let (t, ..) = sample();
        assert_eq!(t.endpoints_of_kind(EndpointKind::NnAccel).len(), 2);
        assert_eq!(t.endpoints_of_kind(EndpointKind::Ssd).len(), 1);
        assert!(t.endpoints_of_kind(EndpointKind::PrepAccel).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot attach children to an endpoint")]
    fn endpoint_cannot_have_children() {
        let (mut t, _, ssd, ..) = sample();
        t.add_switch(ssd, bw());
    }
}
