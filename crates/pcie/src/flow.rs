//! Fluid bandwidth sharing: max-min fair rates and an event-driven transfer
//! simulator.
//!
//! Concurrent DMA transfers that share a directed link split its capacity.
//! PCIe switches arbitrate per-port roughly fairly, so we model the steady
//! state as the classic **max-min fair allocation** computed by progressive
//! filling: all flows grow at the same rate; when a link saturates, the flows
//! crossing it freeze at their current rate; repeat. Flows can additionally
//! carry a *demand cap* (a device that cannot source data faster than its own
//! throughput), which progressive filling honors by freezing a flow when it
//! reaches its demand.
//!
//! [`FlowSim`] layers finite-size transfers on top: it tracks the remaining
//! bytes of each active flow, recomputes rates whenever the flow set changes,
//! and exposes the next completion instant for a discrete-event driver. Its
//! domain-incremental solver is the only allocator the simulator runs;
//! [`FlowNet::max_min_rates_ref`] is the per-flow oracle it is tested
//! against, bit for bit.
//!
//! Flows live in per-route-class queues sorted by remaining bytes. Members
//! of a class share one rate, so draining subtracts the same `rate * dt`
//! from each and (IEEE subtraction being monotone) never reorders a queue,
//! and completion time is monotone in remaining bytes. Per event the
//! simulator therefore pays O(live classes) to find the next completion and
//! nothing per flow to publish new rates; only [`FlowSim::advance`] still
//! touches every active flow, as one contiguous subtraction per member.

use crate::topology::{LinkId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use trainbox_sim::{FxHashMap, SimTime};

/// Identifier of an active flow in a [`FlowSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(u64);

/// Specification of one flow for a rate computation.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// Directed links the flow traverses (may be empty for node-local copies).
    pub route: Vec<LinkId>,
    /// Optional source/sink throughput cap in bytes/s.
    pub demand: Option<f64>,
}

impl FlowSpec {
    /// A flow over `route` limited only by the network.
    pub fn new(route: Vec<LinkId>) -> Self {
        FlowSpec { route, demand: None }
    }

    /// A flow over `route` that additionally cannot exceed `demand` bytes/s.
    ///
    /// # Panics
    ///
    /// Panics if `demand` is not finite and positive.
    pub fn with_demand(route: Vec<LinkId>, demand: f64) -> Self {
        assert!(demand.is_finite() && demand > 0.0, "demand must be positive");
        FlowSpec { route, demand: Some(demand) }
    }
}

/// The link-capacity view used for rate computations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlowNet {
    /// Capacity of each directed link in bytes/s, indexed by [`LinkId`].
    capacity: Vec<f64>,
}

impl FlowNet {
    /// Capacities taken from a topology's directed links.
    pub fn from_topology(topo: &Topology) -> Self {
        FlowNet {
            capacity: topo
                .links()
                .map(|(_, l)| l.bandwidth.bytes_per_sec() as f64)
                .collect(),
        }
    }

    /// Capacities given directly (mainly for tests).
    ///
    /// # Panics
    ///
    /// Panics if any capacity is not finite and positive.
    pub fn from_capacities(capacity: Vec<f64>) -> Self {
        assert!(
            capacity.iter().all(|&c| c.is_finite() && c > 0.0),
            "link capacities must be positive"
        );
        FlowNet { capacity }
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.capacity.len()
    }

    /// Capacity of one link in bytes/s.
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.capacity[link.index()]
    }

    /// Change one link's capacity — the fault-injection hook for modeling a
    /// degraded PCIe link (e.g. retraining to fewer lanes or a lower rate).
    ///
    /// # Panics
    ///
    /// Panics if `link` is unknown or `bytes_per_sec` is not finite and
    /// positive.
    pub fn set_capacity(&mut self, link: LinkId, bytes_per_sec: f64) {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "link capacity must be positive"
        );
        assert!(link.index() < self.capacity.len(), "unknown link");
        self.capacity[link.index()] = bytes_per_sec;
    }

    /// Batched capacity change: apply every `(link, bytes_per_sec)` update in
    /// one call. The fault-injection hook for a *storm* of link degradations
    /// — callers holding a [`FlowSim`] get a single rate recomputation for
    /// the whole batch instead of one per link.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`FlowNet::set_capacity`].
    pub fn set_capacities(&mut self, updates: &[(LinkId, f64)]) {
        for &(link, bytes_per_sec) in updates {
            self.set_capacity(link, bytes_per_sec);
        }
    }

    fn validate(&self, f: &FlowSpec) {
        assert!(
            !f.route.is_empty() || f.demand.is_some(),
            "a flow with an empty route needs a demand cap"
        );
        for l in &f.route {
            assert!(l.index() < self.capacity.len(), "route references unknown link");
        }
    }

    /// Reference max-min allocator: max-min fair rates (bytes/s) for
    /// `flows`, honoring demand caps, by direct per-flow progressive filling.
    /// All unfrozen flows grow together; the binding constraint each round
    /// is either a saturating link or a flow hitting its demand.
    ///
    /// This is the oracle, not the simulator's allocator: [`FlowSim`]'s
    /// domain-incremental solver must match it bit for bit when it is run on
    /// each link domain's flows alone (checked in debug builds on every
    /// solve, and by the property tests).
    ///
    /// # Panics
    ///
    /// Panics if a flow has an empty route and no demand, or if a route
    /// references an unknown link.
    pub fn max_min_rates_ref(&self, flows: &[FlowSpec]) -> Vec<f64> {
        for f in flows {
            self.validate(f);
        }
        let n = flows.len();
        let mut rate = vec![0.0f64; n];
        let mut frozen = vec![false; n];
        let mut residual = self.capacity.clone();
        // Flows crossing each link.
        let mut on_link: Vec<Vec<usize>> = vec![Vec::new(); self.capacity.len()];
        for (i, f) in flows.iter().enumerate() {
            for l in &f.route {
                on_link[l.index()].push(i);
            }
        }

        // Per-round unfrozen counts, allocated once and refilled in place.
        let mut unfrozen_on: Vec<usize> = vec![0; self.capacity.len()];
        loop {
            // Unfrozen flow count per link.
            for (li, fl) in on_link.iter().enumerate() {
                unfrozen_on[li] = fl.iter().filter(|&&i| !frozen[i]).count();
            }
            // Smallest head-room per unfrozen flow: link constraint.
            let mut inc = f64::INFINITY;
            for li in 0..self.capacity.len() {
                if unfrozen_on[li] > 0 {
                    inc = inc.min(residual[li] / unfrozen_on[li] as f64);
                }
            }
            // Demand constraints.
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                if let Some(d) = f.demand {
                    inc = inc.min(d - rate[i]);
                }
            }
            if !inc.is_finite() {
                // No unfrozen flow crosses any link and none has a demand gap
                // left: all remaining flows are empty-route demand flows that
                // were already frozen, or there are no unfrozen flows at all.
                break;
            }
            let inc = inc.max(0.0);
            // Apply the increment.
            let mut progressed = false;
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                rate[i] += inc;
                progressed = true;
                for l in &f.route {
                    residual[l.index()] -= inc;
                }
            }
            if !progressed {
                break;
            }
            // Freeze: flows at demand, and flows crossing a saturated link.
            const EPS: f64 = 1e-9;
            for (i, f) in flows.iter().enumerate() {
                if frozen[i] {
                    continue;
                }
                let at_demand = f.demand.is_some_and(|d| rate[i] >= d - EPS * d.max(1.0));
                let on_saturated = f.route.iter().any(|l| {
                    residual[l.index()] <= EPS * self.capacity[l.index()]
                });
                if at_demand || on_saturated {
                    frozen[i] = true;
                }
            }
            if frozen.iter().all(|&f| f) {
                break;
            }
        }
        rate
    }

    /// Total traffic each link carries (bytes/s) under the given rates —
    /// useful for utilization accounting and for checking feasibility.
    pub fn link_loads(&self, flows: &[FlowSpec], rates: &[f64]) -> Vec<f64> {
        assert_eq!(flows.len(), rates.len(), "flows and rates must correspond");
        let mut load = vec![0.0; self.capacity.len()];
        for (f, &r) in flows.iter().zip(rates) {
            for l in &f.route {
                load[l.index()] += r;
            }
        }
        load
    }
}

/// Identity of a flow class: flows sharing a route and demand cap are
/// interchangeable to the max-min allocator. Demand is keyed by its bit
/// pattern so `HashMap` lookups stay exact (the allocator never treats two
/// different f64 values as the same class).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ClassKey {
    route: Vec<LinkId>,
    demand_bits: u64,
}

impl ClassKey {
    fn of(spec: &FlowSpec) -> Self {
        ClassKey {
            route: spec.route.clone(),
            // All NaN/None collisions are impossible: demand is validated
            // finite-positive, and u64::MAX is not a finite f64's bit pattern.
            demand_bits: spec.demand.map_or(u64::MAX, f64::to_bits),
        }
    }
}

/// One equivalence class of flows for the allocator, holding its members.
#[derive(Debug, Clone)]
struct FlowClass {
    route: Vec<LinkId>,
    demand: Option<f64>,
    /// Active members as `(id, remaining bytes)`, sorted by remaining bytes;
    /// empty marks a tombstoned (reusable) slot.
    queue: VecDeque<(FlowId, f64)>,
}

impl FlowClass {
    fn members(&self) -> usize {
        self.queue.len()
    }
}

/// Persistent scratch for the domain-incremental solver ([`FlowSim`]'s hot
/// path). The link-indexed vectors are full-size but only the entries of the
/// domain being solved are ever touched, so a recompute costs O(domain), not
/// O(links), and allocates nothing once warm.
#[derive(Debug, Clone, Default)]
struct DomainScratch {
    /// Links of the domain under solve (deduplicated via `link_epoch`).
    links: Vec<usize>,
    /// Dedup stamps for `links`; a link is in the current domain's list iff
    /// its stamp equals the current epoch. Never cleared, only outdated.
    link_epoch: Vec<u64>,
    epoch: u64,
    /// Residual capacity, refreshed per solve on domain links only.
    residual: Vec<f64>,
    /// Unfrozen member count per link; zeroed back after every solve so the
    /// next domain starts clean without a full sweep.
    unfrozen_on: Vec<usize>,
    /// Per-domain-class state, indexed by position in the solve's class list.
    rate: Vec<f64>,
    frozen: Vec<bool>,
    /// Class ids of the dirty domains, grouped per root.
    class_ids: Vec<usize>,
    /// Dirty domain roots of the current recompute (deduplicated).
    dirty_roots: Vec<usize>,
    root_epoch: Vec<u64>,
}

/// Monotone union-find over link indices: links sharing a route are merged
/// when a class first appears and never split, so the partition only
/// coarsens. Coarser-than-necessary domains cost extra solve work, never
/// wrong rates — and in the DES the route set is fixed after warm-up, so the
/// partition converges to the connected components of the routes in use.
#[derive(Debug, Clone, Default)]
struct LinkDomains {
    parent: Vec<usize>,
}

impl LinkDomains {
    fn new(n_links: usize) -> Self {
        LinkDomains { parent: (0..n_links).collect() }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic tie-break: smaller index wins the root, so the
            // domain structure is a pure function of the interning history.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Progressive filling over a single link domain, touching only the
/// domain's links. `ds.class_ids` names the domain's live classes
/// (ascending class index); rates land in `class_rate`.
///
/// Bit-identical to [`FlowNet::max_min_rates_ref`] run on the domain's flows
/// alone, by construction:
///
/// * within a round every unfrozen flow receives the *same* increment, so a
///   link crossed by `k` unfrozen flows ends the round after `k` identical
///   subtractions — the result depends only on `k`, not on which flows or in
///   what order, and the per-member subtraction loop below replays exactly
///   that chain;
/// * members of a class have bit-equal rates at every round (same start,
///   same increments), so tracking one rate per class loses nothing;
/// * the round increment is a `min` over link head-rooms and demand gaps,
///   which is order-independent for finite f64 values;
/// * restricting the round scan to the domain's links loses nothing — every
///   link with a nonzero unfrozen count is in the domain by construction.
///
/// Per-link unfrozen counts are maintained incrementally (decremented when a
/// class freezes) instead of rescanned from the flow list each round, and
/// the link-indexed scratch vectors are refreshed only on the domain's links
/// (epoch-stamped dedup), so a solve costs O(domain), independent of the
/// fabric size.
fn solve_domain(
    capacity: &[f64],
    classes: &[FlowClass],
    ds: &mut DomainScratch,
    class_rate: &mut [f64],
) {
    let n = ds.class_ids.len();
    ds.links.clear();
    ds.rate.clear();
    ds.rate.resize(n, 0.0);
    ds.frozen.clear();
    ds.frozen.resize(n, false);
    for k in 0..n {
        let cl = &classes[ds.class_ids[k]];
        for l in &cl.route {
            let li = l.index();
            if ds.link_epoch[li] != ds.epoch {
                ds.link_epoch[li] = ds.epoch;
                ds.links.push(li);
                ds.residual[li] = capacity[li];
                ds.unfrozen_on[li] = 0;
            }
            ds.unfrozen_on[li] += cl.members();
        }
    }
    let mut unfrozen = n;
    while unfrozen > 0 {
        let mut inc = f64::INFINITY;
        for &li in &ds.links {
            if ds.unfrozen_on[li] > 0 {
                inc = inc.min(ds.residual[li] / ds.unfrozen_on[li] as f64);
            }
        }
        for k in 0..n {
            if ds.frozen[k] {
                continue;
            }
            if let Some(d) = classes[ds.class_ids[k]].demand {
                inc = inc.min(d - ds.rate[k]);
            }
        }
        if !inc.is_finite() {
            // Mirrors the reference's termination guard; unreachable while a
            // validated unfrozen class remains (its links bound the round).
            break;
        }
        let inc = inc.max(0.0);
        for k in 0..n {
            if ds.frozen[k] {
                continue;
            }
            ds.rate[k] += inc;
            let cl = &classes[ds.class_ids[k]];
            for l in &cl.route {
                let r = &mut ds.residual[l.index()];
                for _ in 0..cl.members() {
                    *r -= inc;
                }
            }
        }
        const EPS: f64 = 1e-9;
        for k in 0..n {
            if ds.frozen[k] {
                continue;
            }
            let cl = &classes[ds.class_ids[k]];
            let at_demand = cl.demand.is_some_and(|d| ds.rate[k] >= d - EPS * d.max(1.0));
            let on_saturated = cl
                .route
                .iter()
                .any(|l| ds.residual[l.index()] <= EPS * capacity[l.index()]);
            if at_demand || on_saturated {
                ds.frozen[k] = true;
                unfrozen -= 1;
                for l in &cl.route {
                    ds.unfrozen_on[l.index()] -= cl.members();
                }
            }
        }
    }
    for k in 0..n {
        class_rate[ds.class_ids[k]] = ds.rate[k];
    }
    // Leave the unfrozen counts zeroed for the next solve (they already are
    // unless the termination guard broke the loop early).
    for &li in &ds.links {
        ds.unfrozen_on[li] = 0;
    }
}

/// Event-driven finite-transfer simulator over a [`FlowNet`].
///
/// Drive it from a DES loop: add flows as transfers start, query
/// [`FlowSim::next_completion`], advance to that instant, and call
/// [`FlowSim::complete`] on the finished flow.
///
/// # Example
///
/// ```
/// use trainbox_pcie::flow::{FlowNet, FlowSim, FlowSpec};
/// use trainbox_pcie::topology::LinkId;
/// use trainbox_sim::SimTime;
///
/// // One 1 GB/s link shared by two 1 MB transfers: each gets 0.5 GB/s,
/// // both complete at 2 ms.
/// let net = FlowNet::from_capacities(vec![1e9]);
/// let mut sim = FlowSim::new(net);
/// let l = trainbox_pcie::test_util::link(0);
/// let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![l]), 1_000_000.0);
/// let b = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![l]), 1_000_000.0);
/// let (t, first) = sim.next_completion().unwrap();
/// assert_eq!(t, SimTime::from_millis(2));
/// assert!(first == a || first == b);
/// ```
#[derive(Debug, Clone)]
pub struct FlowSim {
    net: FlowNet,
    /// Flow classes (route + demand equivalence) with their member queues;
    /// tombstoned slots are reused so indices stay stable while flows churn.
    classes: Vec<FlowClass>,
    class_index: FxHashMap<ClassKey, usize>,
    free_classes: Vec<usize>,
    /// Class of each active flow.
    flow_class: FxHashMap<FlowId, usize>,
    /// Set when the flow set or a capacity changed since the last
    /// recomputation; a clean simulator skips the allocator entirely.
    dirty: bool,
    /// Monotone link partition: which links can currently share a bottleneck.
    domains: LinkDomains,
    /// Links whose domain must be re-solved at the next recomputation
    /// (route links of added/completed flows, links with capacity changes).
    dirty_links: Vec<usize>,
    /// Set when a link-free class (empty route, demand-capped) appeared or
    /// disappeared; such classes form their own pseudo-domains.
    dirty_nolink: bool,
    /// Per-class rate from the last solve of that class's domain; classes in
    /// clean domains keep their rates without any allocator work. The only
    /// copy of the rates: every member of a class drains at its class's.
    class_rate: Vec<f64>,
    dscratch: DomainScratch,
    recomputes: u64,
    domain_solves: u64,
    now: SimTime,
    next_id: u64,
    /// When enabled, every allocator recomputation appends one
    /// [`FlowTraceEvent`] here; the trace layer drains it with
    /// [`FlowSim::take_trace`]. Off by default — recording only observes the
    /// rates already computed, never affects them.
    trace: bool,
    trace_log: Vec<FlowTraceEvent>,
}

/// One allocator recomputation observed by [`FlowSim`] rate tracing
/// ([`FlowSim::set_trace`]): the instant, the population, and the spread of
/// the max-min allocation that resulted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowTraceEvent {
    /// Simulated time of the recomputation.
    pub at: SimTime,
    /// Active flows after the triggering change.
    pub active: usize,
    /// Smallest allocated rate, bytes/s (0 when no flows are active).
    pub min_rate: f64,
    /// Largest allocated rate, bytes/s (0 when no flows are active).
    pub max_rate: f64,
}

impl FlowSim {
    /// Create a simulator over `net` at time zero with no flows.
    pub fn new(net: FlowNet) -> Self {
        let n_links = net.link_count();
        FlowSim {
            net,
            classes: Vec::new(),
            class_index: FxHashMap::default(),
            free_classes: Vec::new(),
            flow_class: FxHashMap::default(),
            dirty: false,
            domains: LinkDomains::new(n_links),
            dirty_links: Vec::new(),
            dirty_nolink: false,
            class_rate: Vec::new(),
            dscratch: DomainScratch::default(),
            recomputes: 0,
            domain_solves: 0,
            now: SimTime::ZERO,
            next_id: 0,
            trace: false,
            trace_log: Vec::new(),
        }
    }

    /// Current simulator time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of active flows.
    pub fn active(&self) -> usize {
        self.flow_class.len()
    }

    /// Borrow the capacity view.
    pub fn net(&self) -> &FlowNet {
        &self.net
    }

    /// Number of rate recomputations performed so far — a simulator-core
    /// work counter (`results/bench_counters.json` records it per scenario).
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// Number of per-domain allocator solves performed so far. One
    /// recomputation re-solves only the *dirty* domains, so on a server whose
    /// links split into several independent groups this grows slower than
    /// `recomputes × domains` — the domain-incremental win.
    pub fn domain_solves(&self) -> u64 {
        self.domain_solves
    }

    /// Enable (or disable) rate-change tracing: each allocator recomputation
    /// appends one [`FlowTraceEvent`] to an internal log. Purely
    /// observational — the rates themselves are identical with tracing on or
    /// off. Disabling clears the log.
    pub fn set_trace(&mut self, on: bool) {
        self.trace = on;
        if !on {
            self.trace_log = Vec::new();
        }
    }

    /// Drain the rate-change trace log accumulated since the last call
    /// (empty unless [`FlowSim::set_trace`] enabled tracing).
    pub fn take_trace(&mut self) -> Vec<FlowTraceEvent> {
        std::mem::take(&mut self.trace_log)
    }

    /// Find or create the class for `spec`, consuming its route. Marks the
    /// class's domain dirty and merges the route's links into one domain
    /// (they now share a potential bottleneck). The caller queues the member.
    fn intern_class(&mut self, spec: FlowSpec) -> usize {
        let key = ClassKey::of(&spec);
        if let Some(&c) = self.class_index.get(&key) {
            self.mark_route_dirty(c);
            return c;
        }
        if let Some((&first, rest)) = spec.route.split_first() {
            for l in rest {
                self.domains.union(first.index(), l.index());
            }
        }
        let c = match self.free_classes.pop() {
            Some(slot) => {
                // Keep the slot's (empty) queue and its allocation.
                let cl = &mut self.classes[slot];
                cl.route = spec.route;
                cl.demand = spec.demand;
                slot
            }
            None => {
                self.classes.push(FlowClass {
                    route: spec.route,
                    demand: spec.demand,
                    queue: VecDeque::new(),
                });
                self.classes.len() - 1
            }
        };
        if self.class_rate.len() <= c {
            self.class_rate.resize(c + 1, 0.0);
        }
        self.class_rate[c] = 0.0;
        self.class_index.insert(key, c);
        self.mark_route_dirty(c);
        c
    }

    /// Mark class `c`'s domain dirty (its member set or environment changed).
    fn mark_route_dirty(&mut self, c: usize) {
        let route = &self.classes[c].route;
        if route.is_empty() {
            self.dirty_nolink = true;
        } else {
            // One route link suffices: every link of the route is already in
            // the same domain by the union in `intern_class`.
            self.dirty_links.push(route[0].index());
        }
        self.dirty = true;
    }

    /// Note that class `c` lost a member, tombstoning the slot when empty.
    fn release_class(&mut self, c: usize) {
        self.mark_route_dirty(c);
        let cl = &mut self.classes[c];
        if cl.queue.is_empty() {
            let key = ClassKey {
                route: std::mem::take(&mut cl.route),
                demand_bits: cl.demand.map_or(u64::MAX, f64::to_bits),
            };
            self.class_index.remove(&key);
            self.free_classes.push(c);
        }
    }

    /// Re-solve the max-min allocation **incrementally**: only the domains a
    /// change touched since the last recomputation are solved; every other
    /// domain's classes keep their persistent rates untouched. Domains are
    /// max-min-independent by construction (no shared link ⇒ no shared
    /// bottleneck), so solving them separately gives the same allocation a
    /// joint solve would.
    fn recompute(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.recomputes += 1;
        self.solve_dirty_domains();
        if self.trace {
            let mut min_rate = f64::INFINITY;
            let mut max_rate = 0.0f64;
            for (cl, &r) in self.classes.iter().zip(&self.class_rate) {
                if !cl.queue.is_empty() {
                    min_rate = min_rate.min(r);
                    max_rate = max_rate.max(r);
                }
            }
            let active = self.active();
            if active == 0 {
                min_rate = 0.0;
            }
            self.trace_log.push(FlowTraceEvent {
                at: self.now,
                active,
                min_rate,
                max_rate,
            });
        }
    }

    /// Solve every domain marked dirty since the last recomputation,
    /// updating the persistent `class_rate` table in place.
    fn solve_dirty_domains(&mut self) {
        let n_links = self.net.capacity.len();
        let ds = &mut self.dscratch;
        if ds.link_epoch.len() < n_links {
            ds.link_epoch.resize(n_links, 0);
            ds.root_epoch.resize(n_links, 0);
            ds.residual.resize(n_links, 0.0);
            ds.unfrozen_on.resize(n_links, 0);
        }
        ds.epoch += 1;
        ds.dirty_roots.clear();
        for &l in &self.dirty_links {
            let r = self.domains.find(l);
            if ds.root_epoch[r] != ds.epoch {
                ds.root_epoch[r] = ds.epoch;
                ds.dirty_roots.push(r);
            }
        }
        self.dirty_links.clear();
        // Dirty marks arrive in event order; solve in root order so the
        // allocator's work schedule is a function of the state, not the
        // history that produced it.
        ds.dirty_roots.sort_unstable();

        // Link-free classes are their own pseudo-domains: crossing no link,
        // their max-min rate is exactly the (validated, mandatory) demand —
        // the same value the reference allocator assigns them solved alone.
        if self.dirty_nolink {
            self.dirty_nolink = false;
            for (c, cl) in self.classes.iter().enumerate() {
                if !cl.queue.is_empty() && cl.route.is_empty() {
                    self.class_rate[c] =
                        cl.demand.expect("validated: a link-free flow carries a demand");
                }
            }
        }

        for ri in 0..self.dscratch.dirty_roots.len() {
            let root = self.dscratch.dirty_roots[ri];
            // The domain's live classes, in class-index order. Finding the
            // root of one route link suffices: `intern_class` unioned every
            // route into a single domain.
            self.dscratch.class_ids.clear();
            for (c, cl) in self.classes.iter().enumerate() {
                if cl.queue.is_empty() || cl.route.is_empty() {
                    continue;
                }
                if self.domains.find(cl.route[0].index()) == root {
                    self.dscratch.class_ids.push(c);
                }
            }
            if self.dscratch.class_ids.is_empty() {
                continue;
            }
            self.domain_solves += 1;
            solve_domain(
                &self.net.capacity,
                &self.classes,
                &mut self.dscratch,
                &mut self.class_rate,
            );
            #[cfg(debug_assertions)]
            self.assert_domain_matches_reference(root);
        }
    }

    /// Debug-build cross-check of the domain-incremental solver: the
    /// domain's rates must match [`FlowNet::max_min_rates_ref`] run on the
    /// domain's flows alone, bit for bit. The oracle's rates do not depend
    /// on the order of its flows, so they are listed class by class.
    #[cfg(debug_assertions)]
    fn assert_domain_matches_reference(&mut self, root: usize) {
        let mut cids = Vec::new();
        let mut specs = Vec::new();
        for (c, cl) in self.classes.iter().enumerate() {
            if cl.route.is_empty() || self.domains.find(cl.route[0].index()) != root {
                continue;
            }
            for _ in 0..cl.members() {
                cids.push(c);
                specs.push(FlowSpec { route: cl.route.clone(), demand: cl.demand });
            }
        }
        let rates = self.net.max_min_rates_ref(&specs);
        for (c, r) in cids.iter().zip(&rates) {
            debug_assert!(
                self.class_rate[*c].to_bits() == r.to_bits(),
                "domain-incremental solve diverged from max_min_rates_ref \
                 (class {c}: solver {} vs reference {r})",
                self.class_rate[*c],
            );
        }
    }

    /// Advance the clock to `now`, draining bytes at current rates.
    ///
    /// # Panics
    ///
    /// Panics if `now` is in the past.
    pub fn advance(&mut self, now: SimTime) {
        assert!(now >= self.now, "FlowSim cannot go backwards in time");
        let dt = (now - self.now).as_secs_f64();
        if dt > 0.0 {
            for (cl, &rate) in self.classes.iter_mut().zip(&self.class_rate) {
                let drained = rate * dt;
                for (_, remaining) in &mut cl.queue {
                    *remaining = (*remaining - drained).max(0.0);
                }
            }
        }
        self.now = now;
    }

    /// Start a transfer of `bytes` over `spec` at time `now` (advancing the
    /// clock there first). Returns the flow's id.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not finite and positive, or `now` is in the past.
    pub fn add_flow(&mut self, now: SimTime, spec: FlowSpec, bytes: f64) -> FlowId {
        assert!(bytes.is_finite() && bytes > 0.0, "transfer size must be positive");
        self.net.validate(&spec);
        self.advance(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let class = self.intern_class(spec);
        let queue = &mut self.classes[class].queue;
        let at = queue.partition_point(|&(_, remaining)| remaining <= bytes);
        queue.insert(at, (id, bytes));
        self.flow_class.insert(id, class);
        self.recompute();
        id
    }

    /// Change one link's capacity at time `now` and redistribute the active
    /// flows' rates max-min fairly over the new capacities. Bytes already in
    /// flight drain at the old rates up to `now`, then at the new ones — the
    /// fluid analogue of a PCIe link degrading (or recovering) mid-transfer.
    ///
    /// Setting a link to its current capacity is a no-op (no recomputation).
    ///
    /// # Panics
    ///
    /// Panics if `link` is unknown, `bytes_per_sec` is not finite and
    /// positive, or `now` is in the past.
    pub fn set_capacity(&mut self, now: SimTime, link: LinkId, bytes_per_sec: f64) {
        self.set_capacities(now, &[(link, bytes_per_sec)]);
    }

    /// Apply a batch of capacity changes at time `now` with a *single* rate
    /// redistribution — a fault storm degrading N links costs one
    /// recomputation instead of N. Updates that leave a link's capacity
    /// unchanged are ignored; if the whole batch is no-op the allocator is
    /// skipped entirely.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`FlowSim::set_capacity`].
    pub fn set_capacities(&mut self, now: SimTime, updates: &[(LinkId, f64)]) {
        self.advance(now);
        for &(link, bytes_per_sec) in updates {
            assert!(link.index() < self.net.capacity.len(), "unknown link");
            if self.net.capacity(link) != bytes_per_sec {
                self.net.set_capacity(link, bytes_per_sec);
                self.dirty_links.push(link.index());
                self.dirty = true;
            }
        }
        self.recompute();
    }

    /// Remaining bytes of a flow (`None` if unknown/completed).
    pub fn remaining(&self, id: FlowId) -> Option<f64> {
        let c = *self.flow_class.get(&id)?;
        self.classes[c]
            .queue
            .iter()
            .find(|&&(f, _)| f == id)
            .map(|&(_, r)| r)
    }

    /// Current rate of a flow in bytes/s (`None` if unknown).
    pub fn rate(&self, id: FlowId) -> Option<f64> {
        self.flow_class.get(&id).map(|&c| self.class_rate[c])
    }

    /// The earliest `(time, flow)` completion under current rates, if any
    /// flow is active. Ties break toward the earliest-started flow.
    ///
    /// Only the head of each class queue, and the members tied with it, are
    /// examined: a class's completion times ascend along its queue. Flow ids
    /// are issued in arrival order, so the smallest id among the flows with
    /// the minimum time is the earliest-started one.
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        let mut best: Option<(SimTime, FlowId)> = None;
        for (cl, &rate) in self.classes.iter().zip(&self.class_rate) {
            if rate <= 0.0 {
                continue;
            }
            let finish = |remaining: f64| self.now + SimTime::from_secs_f64(remaining / rate);
            let mut members = cl.queue.iter();
            let Some(&(head, remaining)) = members.next() else {
                continue;
            };
            let t = finish(remaining);
            let first = members
                .take_while(|&&(_, remaining)| finish(remaining) == t)
                .fold(head, |first, &(id, _)| first.min(id));
            if best.is_none_or(|b| (t, first) < b) {
                best = Some((t, first));
            }
        }
        best
    }

    /// Remove a completed (or cancelled) flow at time `now` and recompute
    /// remaining rates.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not active or `now` is in the past.
    pub fn complete(&mut self, now: SimTime, id: FlowId) {
        self.advance(now);
        let Some(c) = self.flow_class.remove(&id) else {
            panic!("unknown flow {id:?}")
        };
        let queue = &mut self.classes[c].queue;
        // Usually the head: completions leave a class in queue order.
        let at = queue
            .iter()
            .position(|&(f, _)| f == id)
            .expect("active flow is queued");
        queue.remove(at);
        self.release_class(c);
        self.recompute();
    }

    /// Run all active flows to completion, returning `(time, flow)` pairs in
    /// completion order.
    pub fn drain(&mut self) -> Vec<(SimTime, FlowId)> {
        let mut done = Vec::new();
        while let Some((t, id)) = self.next_completion() {
            self.complete(t, id);
            done.push((t, id));
        }
        done
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::test_util::link;
    use proptest::prelude::*;

    /// Max-min rates of `flows` on `net` as the simulator computes them:
    /// load every flow into a [`FlowSim`] at time zero and read its rate.
    pub(crate) fn sim_rates(net: &FlowNet, flows: &[FlowSpec]) -> Vec<f64> {
        let mut sim = FlowSim::new(net.clone());
        let ids: Vec<FlowId> =
            flows.iter().map(|f| sim.add_flow(SimTime::ZERO, f.clone(), 1.0)).collect();
        ids.iter().map(|&id| sim.rate(id).expect("flow is active")).collect()
    }

    /// The oracle for a [`FlowSim`]'s rates: [`FlowNet::max_min_rates_ref`]
    /// run on each link domain's `active` flows alone, in arrival order.
    /// Domains are the connected components of every route in `seen` (the
    /// simulator's partition only ever coarsens, so routes of completed
    /// flows still count); a link-free flow is a domain of its own.
    fn reference_rates(net: &FlowNet, seen: &[Vec<LinkId>], active: &[FlowSpec]) -> Vec<f64> {
        fn find(parent: &[usize], mut x: usize) -> usize {
            while parent[x] != x {
                x = parent[x];
            }
            x
        }
        let mut parent: Vec<usize> = (0..net.link_count()).collect();
        for pair in seen.iter().flat_map(|route| route.windows(2)) {
            let (a, b) = (find(&parent, pair[0].index()), find(&parent, pair[1].index()));
            parent[a.max(b)] = a.min(b);
        }
        let domain: Vec<Option<usize>> = active
            .iter()
            .map(|f| f.route.first().map(|l| find(&parent, l.index())))
            .collect();
        let mut rates = vec![0.0; active.len()];
        for (i, f) in active.iter().enumerate() {
            let Some(root) = domain[i] else {
                rates[i] = net.max_min_rates_ref(std::slice::from_ref(f))[0];
                continue;
            };
            if domain[..i].contains(&Some(root)) {
                continue; // solved with the domain's first flow
            }
            let members: Vec<usize> =
                (i..active.len()).filter(|&j| domain[j] == Some(root)).collect();
            let specs: Vec<FlowSpec> = members.iter().map(|&j| active[j].clone()).collect();
            for (&j, r) in members.iter().zip(net.max_min_rates_ref(&specs)) {
                rates[j] = r;
            }
        }
        rates
    }

    /// A random flow over `links` links: capped at `demand` when `capped`,
    /// and always when the route is empty (an uncapped empty route is
    /// rejected).
    fn random_flow(route: Vec<u32>, links: u32, capped: bool, demand: f64) -> FlowSpec {
        let route: Vec<LinkId> = route.into_iter().map(|l| link(l % links)).collect();
        if capped || route.is_empty() {
            FlowSpec::with_demand(route, demand)
        } else {
            FlowSpec::new(route)
        }
    }

    #[test]
    fn equal_flows_split_a_link_evenly() {
        let net = FlowNet::from_capacities(vec![10.0]);
        let flows = vec![FlowSpec::new(vec![link(0)]); 4];
        for r in sim_rates(&net, &flows) {
            assert!((r - 2.5).abs() < 1e-9);
        }
    }

    #[test]
    fn domain_rates_are_independent_across_domains() {
        // Two disjoint domains: squeezing a link in one must not move rates
        // in the other — the property that lets the simulator re-solve only
        // the domain a change touched.
        let net = FlowNet::from_capacities(vec![10.0, 10.0, 8.0, 8.0]);
        let flows = vec![
            FlowSpec::new(vec![link(0), link(1)]),
            FlowSpec::new(vec![link(1)]),
            FlowSpec::new(vec![link(2), link(3)]),
        ];
        let before = sim_rates(&net, &flows);
        let mut squeezed = net.clone();
        squeezed.set_capacity(link(2), 1.0);
        let after = sim_rates(&squeezed, &flows);
        assert_eq!(before[0], after[0]);
        assert_eq!(before[1], after[1]);
        assert!(after[2] < before[2]);
    }

    #[test]
    fn classic_max_min_example() {
        // Links: L0 cap 10 shared by f0,f1,f2; L1 cap 4 crossed by f2 only.
        // f2 is limited to 4 by L1? No: progressive filling freezes at
        // min(10/3, 4/1) = 10/3 on L0 first; all freeze at 10/3.
        let net = FlowNet::from_capacities(vec![10.0, 4.0]);
        let flows = vec![
            FlowSpec::new(vec![link(0)]),
            FlowSpec::new(vec![link(0)]),
            FlowSpec::new(vec![link(0), link(1)]),
        ];
        let rates = sim_rates(&net, &flows);
        for r in &rates {
            assert!((r - 10.0 / 3.0).abs() < 1e-9, "rates={rates:?}");
        }
    }

    #[test]
    fn bottlenecked_flow_releases_capacity_to_others() {
        // L0 cap 10 shared by f0,f1; f1 also crosses L1 cap 2.
        // f1 freezes at 2 (L1 saturates), f0 then takes 8.
        let net = FlowNet::from_capacities(vec![10.0, 2.0]);
        let flows = vec![
            FlowSpec::new(vec![link(0)]),
            FlowSpec::new(vec![link(0), link(1)]),
        ];
        let rates = sim_rates(&net, &flows);
        assert!((rates[1] - 2.0).abs() < 1e-9);
        assert!((rates[0] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn demand_caps_respected_and_redistributed() {
        let net = FlowNet::from_capacities(vec![10.0]);
        let flows = vec![
            FlowSpec::with_demand(vec![link(0)], 1.0),
            FlowSpec::new(vec![link(0)]),
        ];
        let rates = sim_rates(&net, &flows);
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 9.0).abs() < 1e-9);
    }

    #[test]
    fn empty_route_flow_runs_at_demand() {
        let net = FlowNet::from_capacities(vec![10.0]);
        let flows = vec![FlowSpec::with_demand(vec![], 3.5)];
        let rates = sim_rates(&net, &flows);
        assert!((rates[0] - 3.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty route needs a demand cap")]
    fn unconstrained_empty_flow_rejected() {
        let net = FlowNet::from_capacities(vec![10.0]);
        sim_rates(&net, &[FlowSpec::new(vec![])]);
    }

    #[test]
    fn no_link_oversubscribed() {
        let net = FlowNet::from_capacities(vec![7.0, 3.0, 11.0]);
        let flows = vec![
            FlowSpec::new(vec![link(0), link(1)]),
            FlowSpec::new(vec![link(0), link(2)]),
            FlowSpec::new(vec![link(1), link(2)]),
            FlowSpec::with_demand(vec![link(2)], 2.0),
        ];
        let rates = sim_rates(&net, &flows);
        let loads = net.link_loads(&flows, &rates);
        for (li, &l) in loads.iter().enumerate() {
            assert!(
                l <= net.capacity[li] * (1.0 + 1e-6),
                "link {li} oversubscribed: {l} > {}",
                net.capacity[li]
            );
        }
    }

    #[test]
    fn flow_sim_shares_then_speeds_up() {
        // 1 GB/s link; two 1 MB transfers start together. After the first
        // completes at 2ms... they tie; complete one, the other finishes at
        // the same instant since both drained together.
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 1e6);
        let b = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 1e6);
        assert!((sim.rate(a).unwrap() - 5e8).abs() < 1.0);
        let done = sim.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0, SimTime::from_millis(2));
        assert_eq!(done[1].0, SimTime::from_millis(2));
        let _ = b;
    }

    #[test]
    fn late_flow_slows_early_flow() {
        // 1 GB/s link. Flow A (2 MB) alone for 1 ms (1 MB done), then B
        // (0.5 MB) joins: both at 0.5 GB/s. B finishes at 1ms + 1ms = 2ms;
        // A has 0.5 MB left at 2ms, alone again -> finishes at 2.5ms.
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 2e6);
        let b = sim.add_flow(SimTime::from_millis(1), FlowSpec::new(vec![link(0)]), 5e5);
        let done = sim.drain();
        assert_eq!(done[0].1, b);
        assert_eq!(done[0].0, SimTime::from_millis(2));
        assert_eq!(done[1].1, a);
        assert_eq!(done[1].0, SimTime::from_micros(2500));
    }

    #[test]
    fn completion_order_follows_remaining_bytes_then_arrival() {
        // 1 GB/s link. A (4 MB) runs alone for 1 ms, then B (1 MB) joins on
        // the same route: B, later-started and smaller, completes first.
        let net = FlowNet::from_capacities(vec![1e9, 1e9]);
        let mut sim = FlowSim::new(net);
        let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 4e6);
        let b = sim.add_flow(SimTime::from_millis(1), FlowSpec::new(vec![link(0)]), 1e6);
        assert_eq!(sim.next_completion(), Some((SimTime::from_millis(3), b)));
        sim.complete(SimTime::from_millis(3), b);
        assert_eq!(sim.next_completion(), Some((SimTime::from_millis(5), a)));
        sim.complete(SimTime::from_millis(5), a);

        // Equal flows complete earliest-started first, within a class (C
        // then D on link 0) and across classes (E on link 1 before F).
        let t0 = sim.now();
        let c = sim.add_flow(t0, FlowSpec::new(vec![link(0)]), 1e6);
        let e = sim.add_flow(t0, FlowSpec::new(vec![link(1)]), 1e6);
        let d = sim.add_flow(t0, FlowSpec::new(vec![link(0)]), 1e6);
        let f = sim.add_flow(t0, FlowSpec::new(vec![link(1)]), 1e6);
        let order: Vec<FlowId> = sim.drain().into_iter().map(|(_, id)| id).collect();
        assert_eq!(order, vec![c, e, d, f]);

        // Flows drained to zero tie whatever their sizes were: G, larger
        // and earlier, completes before H although H heads the queue.
        let t0 = sim.now();
        let g = sim.add_flow(t0, FlowSpec::new(vec![link(0)]), 2e6);
        let h = sim.add_flow(t0, FlowSpec::new(vec![link(0)]), 1e6);
        let t1 = t0 + SimTime::from_millis(10);
        sim.advance(t1);
        assert_eq!(sim.remaining(g), Some(0.0));
        assert_eq!(sim.remaining(h), Some(0.0));
        assert_eq!(sim.next_completion(), Some((t1, g)));
    }

    #[test]
    fn cancelling_a_queued_flow_leaves_its_class_in_order() {
        // Three flows share one route; cancelling the middle one (not the
        // queue head) speeds up the other two and keeps their order.
        let net = FlowNet::from_capacities(vec![3e9]);
        let mut sim = FlowSim::new(net);
        let small = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 1.5e6);
        let big = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 4.5e6);
        let mid = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 3e6);
        sim.complete(SimTime::ZERO, mid);
        assert_eq!(sim.remaining(mid), None);
        assert_eq!(sim.rate(small), Some(1.5e9));
        let done = sim.drain();
        assert_eq!(
            done,
            vec![
                (SimTime::from_millis(1), small),
                (SimTime::from_millis(2), big)
            ]
        );
    }

    #[test]
    fn completion_frees_bandwidth() {
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 1e6);
        let _b = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 2e6);
        let (t, id) = sim.next_completion().unwrap();
        assert_eq!(id, a);
        sim.complete(t, a);
        // b now runs at full rate.
        let (_tb, idb) = sim.next_completion().unwrap();
        assert!((sim.rate(idb).unwrap() - 1e9).abs() < 1.0);
        assert_eq!(sim.active(), 1);
    }

    #[test]
    fn rate_trace_records_recomputes_without_affecting_rates() {
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut traced = FlowSim::new(net.clone());
        traced.set_trace(true);
        let mut plain = FlowSim::new(net);

        for sim in [&mut traced, &mut plain] {
            let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 1e6);
            let _b = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 2e6);
            let (t, id) = sim.next_completion().unwrap();
            assert_eq!(id, a);
            sim.complete(t, id);
        }
        // Identical completions either way.
        assert_eq!(traced.next_completion(), plain.next_completion());

        let log = traced.take_trace();
        assert_eq!(log.len(), 3, "add, add, complete each recompute");
        // Two flows sharing 1 GB/s: min == max == 0.5 GB/s.
        assert_eq!(log[1].active, 2);
        assert!((log[1].min_rate - 0.5e9).abs() < 1.0);
        assert!((log[1].max_rate - 0.5e9).abs() < 1.0);
        // Survivor gets the full link.
        assert_eq!(log[2].active, 1);
        assert!((log[2].max_rate - 1e9).abs() < 1.0);
        assert!(traced.take_trace().is_empty(), "drained");
        assert!(plain.take_trace().is_empty(), "off by default");
    }

    #[test]
    fn degrading_a_link_slows_the_flow_crossing_it() {
        // 1 GB/s link, 2 MB transfer. After 1 ms (1 MB done) the link
        // degrades to a quarter: the remaining 1 MB takes 4 ms -> 5 ms total.
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        let f = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 2e6);
        sim.set_capacity(SimTime::from_millis(1), link(0), 0.25e9);
        let (t, id) = sim.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(t, SimTime::from_millis(5));
    }

    #[test]
    fn restoring_a_link_speeds_the_flow_back_up() {
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        let f = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 2e6);
        sim.set_capacity(SimTime::ZERO, link(0), 0.5e9);
        sim.set_capacity(SimTime::from_millis(2), link(0), 1e9);
        // 1 MB drained in the degraded first 2 ms, 1 MB at full rate after.
        let (t, id) = sim.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(t, SimTime::from_millis(3));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let mut net = FlowNet::from_capacities(vec![1e9]);
        net.set_capacity(link(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "cannot go backwards")]
    fn flow_sim_rejects_time_travel() {
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        sim.advance(SimTime::from_millis(5));
        sim.advance(SimTime::from_millis(1));
    }

    #[test]
    fn batched_capacity_change_recomputes_once() {
        let net = FlowNet::from_capacities(vec![10.0, 10.0, 10.0]);
        let mut sim = FlowSim::new(net);
        let _ = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0), link(1)]), 100.0);
        let _ = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(2)]), 100.0);
        let before = sim.recomputes();
        sim.set_capacities(
            SimTime::ZERO,
            &[(link(0), 5.0), (link(1), 4.0), (link(2), 2.0)],
        );
        assert_eq!(sim.recomputes(), before + 1, "storm must cost one recompute");
        assert!((sim.rate(FlowId(0)).unwrap() - 4.0).abs() < 1e-9);
        assert!((sim.rate(FlowId(1)).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_change_resolves_only_the_dirty_domain() {
        // Two flows on disjoint links form two independent domains. Squeezing
        // link 0 must cost exactly one domain solve, and the untouched
        // domain's rate must come out bit-identical — not merely close.
        let net = FlowNet::from_capacities(vec![1e9, 1e9]);
        let mut sim = FlowSim::new(net);
        let a = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 1e6);
        let b = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(1)]), 1e6);
        let b_rate = sim.rate(b).unwrap();
        let solves = sim.domain_solves();
        sim.set_capacity(SimTime::ZERO, link(0), 0.5e9);
        assert_eq!(
            sim.domain_solves(),
            solves + 1,
            "only link 0's domain is dirty; link 1's must not be re-solved"
        );
        assert_eq!(sim.rate(b).unwrap().to_bits(), b_rate.to_bits());
        assert!((sim.rate(a).unwrap() - 0.5e9).abs() < 1e-9);
    }

    #[test]
    fn noop_capacity_change_skips_the_allocator() {
        let net = FlowNet::from_capacities(vec![10.0]);
        let mut sim = FlowSim::new(net);
        let f = sim.add_flow(SimTime::ZERO, FlowSpec::new(vec![link(0)]), 100.0);
        let before = sim.recomputes();
        sim.set_capacity(SimTime::from_millis(1), link(0), 10.0);
        sim.set_capacities(SimTime::from_millis(2), &[]);
        assert_eq!(sim.recomputes(), before, "unchanged capacities must be free");
        assert!((sim.rate(f).unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn class_slots_are_reclaimed() {
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        for _ in 0..100 {
            let f = sim.add_flow(sim.now(), FlowSpec::new(vec![link(0)]), 1e3);
            let (t, _) = sim.next_completion().unwrap();
            sim.complete(t, f);
        }
        assert!(
            sim.classes.len() <= 1,
            "churning one route must reuse its tombstoned class slot"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On random flow sets — shared links, repeated classes, demand
        /// caps, empty routes — the simulator's rates equal the per-flow
        /// oracle run on each domain, bit for bit (the byte-identical
        /// `results/` invariant rides on it), and no link is oversubscribed.
        #[test]
        fn fast_matches_reference_on_random_inputs(
            caps in proptest::collection::vec(0.5f64..1e4, 1..8),
            flow_picks in proptest::collection::vec(
                (proptest::collection::vec(0u32..8, 0..5), any::<bool>(), 0.1f64..1e3),
                0..24,
            ),
        ) {
            let n_links = caps.len() as u32;
            let net = FlowNet::from_capacities(caps);
            let flows: Vec<FlowSpec> = flow_picks
                .into_iter()
                .map(|(route, capped, d)| random_flow(route, n_links, capped, d))
                .collect();
            let got = sim_rates(&net, &flows);
            let routes: Vec<Vec<LinkId>> = flows.iter().map(|f| f.route.clone()).collect();
            let want = reference_rates(&net, &routes, &flows);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "flow {}: sim={} ref={}", i, g, w);
            }
            let loads = net.link_loads(&flows, &got);
            for (li, &l) in loads.iter().enumerate() {
                prop_assert!(l <= net.capacity[li] * (1.0 + 1e-6));
            }
        }

        /// After every step of a random add/complete/degrade history, each
        /// active flow's rate equals the per-domain oracle's, bit for bit;
        /// its remaining bytes equal a ledger drained at the oracle's rates;
        /// and `next_completion` equals a brute-force scan over the active
        /// flows in arrival order: minimum time, then earliest-started.
        /// Transfer sizes and time steps come from small sets, so flows of
        /// one class with equal remaining bytes, and flows drained to zero,
        /// actually occur.
        #[test]
        fn flow_sim_histories_match_reference(
            ops in proptest::collection::vec(
                (
                    0u8..3,
                    proptest::collection::vec(0u32..4, 0..4),
                    any::<bool>(),
                    1u64..1_000_000,
                    0usize..4,
                    0usize..4,
                ),
                1..30,
            ),
        ) {
            const SIZES: [f64; 4] = [1.0, 64.0, 4096.0, 65536.0];
            const STEPS_NS: [u64; 4] = [0, 0, 1, 977];
            let mut sim = FlowSim::new(FlowNet::from_capacities(vec![1e9, 2e9, 0.5e9, 1e9]));
            let mut seen: Vec<Vec<LinkId>> = Vec::new();
            // (id, spec, remaining bytes) in arrival order, and the oracle's
            // rate of each.
            let mut active: Vec<(FlowId, FlowSpec, f64)> = Vec::new();
            let mut want: Vec<f64> = Vec::new();
            let mut t = SimTime::ZERO;
            for (op, route, capped, v, size, step) in ops {
                t += SimTime::from_nanos(STEPS_NS[step]);
                if op == 1 {
                    match sim.next_completion() {
                        Some((ct, _)) => t = ct.max(t),
                        None => continue,
                    }
                }
                // Every operation below first drains the flows up to `t`.
                let dt = (t - sim.now()).as_secs_f64();
                if dt > 0.0 {
                    for ((_, _, remaining), rate) in active.iter_mut().zip(&want) {
                        *remaining = (*remaining - rate * dt).max(0.0);
                    }
                }
                match op {
                    0 => {
                        // Every third add joins the previous flow's class.
                        let spec = match active.last() {
                            Some((_, last, _)) if v % 3 == 0 => last.clone(),
                            _ => random_flow(route, 4, capped, 1e8 + v as f64 * 1e3),
                        };
                        seen.push(spec.route.clone());
                        let id = sim.add_flow(t, spec.clone(), SIZES[size]);
                        active.push((id, spec, SIZES[size]));
                    }
                    1 => {
                        let (_, id) = sim.next_completion().expect("checked above");
                        sim.complete(t, id);
                        active.retain(|&(a, _, _)| a != id);
                    }
                    _ => {
                        let l = route.first().map_or(0, |l| l % 4);
                        sim.set_capacity(t, link(l), 0.25e9 + v as f64);
                    }
                }
                let specs: Vec<FlowSpec> = active.iter().map(|(_, s, _)| s.clone()).collect();
                want = reference_rates(sim.net(), &seen, &specs);
                let mut brute: Option<(SimTime, FlowId)> = None;
                for ((id, _, remaining), w) in active.iter().zip(&want) {
                    let g = sim.rate(*id).expect("flow is active");
                    prop_assert_eq!(g.to_bits(), w.to_bits(), "{:?}: sim={} ref={}", id, g, w);
                    let r = sim.remaining(*id).expect("flow is active");
                    prop_assert_eq!(r.to_bits(), remaining.to_bits(), "{:?} remaining", id);
                    if *w > 0.0 {
                        let done = sim.now() + SimTime::from_secs_f64(remaining / w);
                        if brute.is_none_or(|(bt, _)| done < bt) {
                            brute = Some((done, *id));
                        }
                    }
                }
                prop_assert_eq!(sim.next_completion(), brute);
            }
        }
    }
}
