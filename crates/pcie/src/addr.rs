//! Boot-time address assignment and address-based routing.
//!
//! §IV-C of the paper: *"At the boot time, the system assigns a unique PCIe
//! address range to each PCIe device and port of PCIe switches. Later, PCIe
//! switches forward (rather than broadcast) packages based on their
//! destination address and the address range of each port."*
//!
//! This module reproduces that mechanism: a depth-first enumeration assigns
//! each endpoint a BAR window and each switch port the covering range of its
//! subtree, and [`AddressMap::route_by_addr`] forwards a packet hop by hop
//! using only those per-port ranges — never global knowledge. A test in this
//! module (and a property test in the crate's integration suite) checks that
//! address-based forwarding reproduces exactly the LCA route used by the
//! bandwidth model, which is the correctness condition for modeling P2P as
//! LCA-confined traffic.

use crate::topology::{LinkId, NodeId, NodeKind, Topology};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A half-open PCIe address window `[base, base + size)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AddrRange {
    /// First address in the window.
    pub base: u64,
    /// Window length in bytes.
    pub size: u64,
}

impl AddrRange {
    /// Does the window contain `addr`?
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr - self.base < self.size
    }

    /// Exclusive end of the window.
    pub fn end(&self) -> u64 {
        self.base + self.size
    }
}

/// The result of boot-time enumeration: a window per node.
///
/// Endpoints get a window of `window` bytes; every switch (and the root
/// complex) covers the union of its children — contiguous by construction,
/// exactly like firmware assigns bridge windows.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AddressMap {
    ranges: Vec<AddrRange>,
    window: u64,
}

impl AddressMap {
    /// Enumerate `topo`, giving each endpoint a `window`-byte BAR.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn assign(topo: &Topology, window: u64) -> Self {
        assert!(window > 0, "endpoint window must be positive");
        let mut ranges = vec![AddrRange { base: 0, size: 0 }; topo.node_count()];
        let mut cursor = 0x1_0000_0000u64; // start above legacy space, cosmetic
        fn dfs(
            topo: &Topology,
            node: NodeId,
            window: u64,
            cursor: &mut u64,
            ranges: &mut [AddrRange],
        ) {
            let base = *cursor;
            if matches!(topo.kind(node), NodeKind::Endpoint(_)) {
                ranges[node.index()] = AddrRange { base, size: window };
                *cursor += window;
                return;
            }
            for &child in topo.children(node) {
                dfs(topo, child, window, cursor, ranges);
            }
            ranges[node.index()] = AddrRange { base, size: *cursor - base };
        }
        dfs(topo, topo.root(), window, &mut cursor, &mut ranges);
        AddressMap { ranges, window }
    }

    /// The window assigned to `node`.
    pub fn range(&self, node: NodeId) -> AddrRange {
        self.ranges[node.index()]
    }

    /// A representative DMA target address inside `node`'s window.
    pub fn addr_of(&self, node: NodeId) -> u64 {
        self.ranges[node.index()].base
    }

    /// Endpoint BAR window size used at assignment.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Which node owns `addr`, if any endpoint window contains it.
    pub fn resolve(&self, topo: &Topology, addr: u64) -> Option<NodeId> {
        (0..topo.node_count() as u32)
            .map(NodeId)
            .find(|n| matches!(topo.kind(*n), NodeKind::Endpoint(_)) && self.range(*n).contains(addr))
    }

    /// Forward a packet from `src` toward destination address `addr` hop by
    /// hop, using only per-port ranges at each switch — the PCIe switch
    /// forwarding algorithm. Returns the directed links traversed.
    ///
    /// A packet whose address matches no downstream port range is forwarded
    /// upstream (toward the root complex); a packet arriving at the root
    /// complex with an unmatched address targets host memory and terminates
    /// there.
    ///
    /// # Panics
    ///
    /// Panics if `addr` falls inside `src`'s own window (a device does not
    /// send packets to itself).
    pub fn route_by_addr(&self, topo: &Topology, src: NodeId, addr: u64) -> AddrRoute {
        assert!(
            !self.range(src).contains(addr) || matches!(topo.kind(src), NodeKind::RootComplex),
            "packet addressed to its own sender"
        );
        let mut links = Vec::new();
        let mut here = src;
        // A device first sends the TLP up to its parent port.
        loop {
            match topo.kind(here) {
                NodeKind::Endpoint(_) => {
                    // Endpoints have exactly one port: upstream.
                    let parent = topo.parent(here).expect("endpoint has parent");
                    links.push(up_link(topo, here));
                    here = parent;
                }
                NodeKind::Switch | NodeKind::RootComplex => {
                    // Check each downstream port's range.
                    let mut forwarded = false;
                    for &child in topo.children(here) {
                        if self.range(child).contains(addr) {
                            links.push(down_link(topo, child));
                            here = child;
                            forwarded = true;
                            break;
                        }
                    }
                    if forwarded {
                        if matches!(topo.kind(here), NodeKind::Endpoint(_)) {
                            return AddrRoute { links, terminus: Terminus::Endpoint(here) };
                        }
                        continue;
                    }
                    // No downstream match.
                    match topo.parent(here) {
                        Some(parent) => {
                            links.push(up_link(topo, here));
                            here = parent;
                        }
                        None => {
                            // Root complex: unmatched address = host memory.
                            return AddrRoute { links, terminus: Terminus::HostMemory };
                        }
                    }
                }
            }
        }
    }
}

fn up_link(topo: &Topology, node: NodeId) -> LinkId {
    topo.links()
        .find(|(_, l)| l.toward_root && l.downstream == node)
        .map(|(id, _)| id)
        .expect("non-root node has an up link")
}

fn down_link(topo: &Topology, node: NodeId) -> LinkId {
    topo.links()
        .find(|(_, l)| !l.toward_root && l.downstream == node)
        .map(|(id, _)| id)
        .expect("non-root node has a down link")
}

/// Where an address-routed packet ended up, and through which links.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddrRoute {
    /// Directed links traversed, in order.
    pub links: Vec<LinkId>,
    /// Final destination.
    pub terminus: Terminus,
}

/// Terminal of an address-routed packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Terminus {
    /// Delivered to a device endpoint.
    Endpoint(NodeId),
    /// Absorbed by the root complex (host memory DMA).
    HostMemory,
}

/// Convenience: check that address-based routing agrees with LCA routing for
/// every ordered endpoint pair in `topo`. Returns the number of pairs checked.
///
/// This is the invariant that lets the bandwidth model use [`Topology::route`]
/// while the paper's mechanism is per-switch address forwarding.
pub fn verify_addr_routing_matches_lca(topo: &Topology, map: &AddressMap) -> usize {
    let endpoints: Vec<NodeId> = (0..topo.node_count() as u32)
        .map(NodeId)
        .filter(|&n| matches!(topo.kind(n), NodeKind::Endpoint(_)))
        .collect();
    let mut checked = 0;
    let mut by_pair: HashMap<(NodeId, NodeId), Vec<LinkId>> = HashMap::new();
    for &a in &endpoints {
        for &b in &endpoints {
            if a == b {
                continue;
            }
            let lca_route = topo.route(a, b);
            let addr_route = map.route_by_addr(topo, a, map.addr_of(b));
            assert_eq!(
                addr_route.terminus,
                Terminus::Endpoint(b),
                "address routing must deliver to the addressed endpoint"
            );
            assert_eq!(
                addr_route.links, lca_route,
                "address routing must match LCA routing for {a:?}->{b:?}"
            );
            by_pair.insert((a, b), lca_route);
            checked += 1;
        }
    }
    checked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bandwidth::Bandwidth;
    use crate::topology::EndpointKind;

    fn sample() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let sw1 = t.add_switch(t.root(), Bandwidth::gen3_x16());
        let ssd = t.add_endpoint(sw1, EndpointKind::Ssd, Bandwidth::gen3_x4());
        let sw2 = t.add_switch(sw1, Bandwidth::gen3_x16());
        let acc = t.add_endpoint(sw2, EndpointKind::NnAccel, Bandwidth::gen3_x16());
        let _acc2 = t.add_endpoint(sw2, EndpointKind::NnAccel, Bandwidth::gen3_x16());
        (t, ssd, sw2, acc)
    }

    #[test]
    fn windows_nest_and_do_not_overlap() {
        let (t, ssd, _, acc) = sample();
        let m = AddressMap::assign(&t, 1 << 24);
        let root_range = m.range(t.root());
        // Every endpoint window nests inside the root window.
        for n in [ssd, acc] {
            let r = m.range(n);
            assert!(root_range.contains(r.base));
            assert!(root_range.contains(r.end() - 1));
        }
        // Sibling endpoint windows are disjoint.
        let (a, b) = (m.range(ssd), m.range(acc));
        assert!(a.end() <= b.base || b.end() <= a.base);
        assert_eq!(m.window(), 1 << 24);
    }

    #[test]
    fn resolve_finds_owner() {
        let (t, ssd, _, acc) = sample();
        let m = AddressMap::assign(&t, 4096);
        assert_eq!(m.resolve(&t, m.addr_of(ssd)), Some(ssd));
        assert_eq!(m.resolve(&t, m.addr_of(acc) + 4095), Some(acc));
        assert_eq!(m.resolve(&t, 0), None);
    }

    #[test]
    fn addr_routing_matches_lca_everywhere() {
        let (t, ..) = sample();
        let m = AddressMap::assign(&t, 4096);
        let pairs = verify_addr_routing_matches_lca(&t, &m);
        assert_eq!(pairs, 6); // 3 endpoints, ordered pairs
    }

    #[test]
    fn unmatched_address_terminates_at_host_memory() {
        let (t, ssd, ..) = sample();
        let m = AddressMap::assign(&t, 4096);
        let r = m.route_by_addr(&t, ssd, 0xdead); // below all windows
        assert_eq!(r.terminus, Terminus::HostMemory);
        // Every hop is an up-link ending at the RC.
        assert!(r.links.iter().all(|&l| t.link(l).toward_root));
        assert_eq!(t.link(*r.links.last().unwrap()).upstream, t.root());
    }

    #[test]
    fn p2p_packet_turns_at_lca_switch() {
        let (t, ssd, sw2, acc) = sample();
        let m = AddressMap::assign(&t, 4096);
        let r = m.route_by_addr(&t, ssd, m.addr_of(acc));
        // ssd -> sw1 (up), sw1 -> sw2 (down), sw2 -> acc (down): never reaches RC.
        assert_eq!(r.links.len(), 3);
        assert!(!r.links.iter().any(|&l| t.link_touches(l, t.root())));
        let mid = t.link(r.links[1]);
        assert_eq!(mid.downstream, sw2);
    }

    #[test]
    #[should_panic(expected = "packet addressed to its own sender")]
    fn self_addressed_packet_rejected() {
        let (t, ssd, ..) = sample();
        let m = AddressMap::assign(&t, 4096);
        m.route_by_addr(&t, ssd, m.addr_of(ssd));
    }
}
