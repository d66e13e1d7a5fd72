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
//! and completion time is monotone in remaining bytes. A class, once
//! interned ([`FlowSim::class_of`]), persists for the simulator's lifetime,
//! so a caller that keeps its [`ClassId`] adds flows with no route to build
//! or hash. Each link domain keeps a *live list* of its classes that have
//! members and caches its earliest completion, so finding the next
//! completion costs O(domains) plus one queue-head look per live class of
//! the domains re-solved since the last query — all live classes only when
//! the clock has moved since then. Idle classes cost nothing anywhere.
//! Publishing new rates costs nothing per flow; only [`FlowSim::advance`]
//! still touches every active flow, as one contiguous subtraction per
//! member.
//!
//! A domain solve works per class and per link, not per flow. The oracle
//! subtracts each round's increment from a link's residual once per flow
//! crossing it; the solver decides each link's saturation test from an
//! exact error bound on that chain of subtractions and replays the chain
//! only when the bound cannot decide, or when a later round of the same
//! solve reads that link's residual. A solve that ends in one round
//! replays a chain only where a saturation test lands inside the bound.
//!
//! Most domain solves end in one round with one link, crossed by every
//! member, saturating first. The simulator keeps what that first round
//! reads — per-link member counts and per-domain member totals and link
//! lists — up to date on every add and completion, so such a solve closes
//! from them without walking a route.

use crate::topology::{LinkId, Topology};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use trainbox_sim::{FxHashMap, SeqTable, SimTime};

/// Identifier of an active flow in a [`FlowSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(u64);

impl FlowId {
    /// Sequence number: a [`FlowSim`] numbers its flows 0, 1, 2, … in the
    /// order they are added, so callers can keep per-flow state in a
    /// [`SeqTable`].
    pub fn seq(self) -> u64 {
        self.0
    }
}

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

/// Handle of a flow class interned by [`FlowSim::class_of`]: flows with the
/// same route and demand cap share one class, and its handle stays valid
/// for the simulator's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClassId(u32);

impl ClassId {
    fn index(self) -> usize {
        self.0 as usize
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
    /// The key of `spec`'s class, taking over its route.
    fn of(spec: FlowSpec) -> Self {
        ClassKey {
            route: spec.route,
            // All NaN/None collisions are impossible: demand is validated
            // finite-positive, and u64::MAX is not a finite f64's bit pattern.
            demand_bits: spec.demand.map_or(u64::MAX, f64::to_bits),
        }
    }
}

/// One equivalence class of flows for the allocator, holding its members.
/// A class persists once interned; it is *live* while it has members.
#[derive(Debug, Clone)]
struct FlowClass {
    route: Vec<LinkId>,
    demand: Option<f64>,
    /// Active members as `(id, remaining bytes)`, sorted by remaining bytes.
    queue: VecDeque<(FlowId, f64)>,
    /// Position in its domain record's `live` list while the class is live
    /// (stale while idle).
    live_at: usize,
    /// Whether the one-round exit must not close a solve while the class is
    /// live: it is demand-capped, or its route crosses a link twice.
    blocks_exit: bool,
}

impl FlowClass {
    fn members(&self) -> usize {
        self.queue.len()
    }

    /// The earliest `(time, flow)` completion among the members at `rate`
    /// from `now`: the queue head's instant and the smallest id among the
    /// members tied with it (completion times ascend along the queue).
    fn earliest(&self, rate: f64, now: SimTime) -> Option<(SimTime, FlowId)> {
        if rate <= 0.0 {
            return None;
        }
        let finish = |remaining: f64| now + SimTime::from_secs_f64(remaining / rate);
        let mut members = self.queue.iter();
        let &(head, remaining) = members.next()?;
        let t = finish(remaining);
        let first = members
            .take_while(|&&(_, remaining)| finish(remaining) == t)
            .fold(head, |first, &(id, _)| first.min(id));
        Some((t, first))
    }
}

/// Keep the earlier of `best` and `candidate` in `best` (`(time, FlowId)`
/// order: minimum time, then earliest-started flow).
fn keep_earlier(best: &mut Option<(SimTime, FlowId)>, candidate: Option<(SimTime, FlowId)>) {
    if let Some(c) = candidate {
        if best.is_none_or(|b| c < b) {
            *best = Some(c);
        }
    }
}

/// Record index of the link-free pseudo-domain: classes with an empty route
/// (demand-capped, crossing no link) are listed in `FlowSim::records[0]`.
const LINK_FREE: usize = 0;
/// `FlowSim::link_record` entry of a root whose domain has no record yet.
const NO_RECORD: u32 = u32::MAX;
/// `DomainRecord::fresh_at` of a record whose cache must be recomputed; the
/// clock epoch starts above it.
const STALE: u64 = 0;

/// One link domain's live classes and its cached earliest completion.
#[derive(Debug, Clone)]
struct DomainRecord {
    /// The domain's root link in [`LinkDomains`] (unused for the link-free
    /// record).
    root: usize,
    /// The domain's classes that have members, each once, in no particular
    /// order: a class joins when it gains its first member and is
    /// swap-removed when it loses its last. Everything that walks a
    /// domain's classes — draining, completion queries, solves — walks
    /// this list, and none of it depends on the order.
    live: Vec<usize>,
    /// Earliest completion among the live classes, as of `fresh_at`.
    earliest: Option<(SimTime, FlowId)>,
    /// Clock epoch at which `earliest` was computed, or [`STALE`] when the
    /// domain was re-solved since.
    fresh_at: u64,
    /// Every link on an interned route of the domain, once each.
    links: Vec<usize>,
    /// Members of the live classes.
    members: usize,
    /// Live classes that block the one-round exit ([`FlowClass::blocks_exit`]).
    blockers: usize,
}

impl DomainRecord {
    fn new(root: usize) -> Self {
        DomainRecord {
            root,
            live: Vec::new(),
            earliest: None,
            fresh_at: STALE,
            links: Vec::new(),
            members: 0,
            blockers: 0,
        }
    }
}

/// Persistent scratch for the domain-incremental solver ([`FlowSim`]'s hot
/// path). The link-indexed vectors are full-size but only the entries of the
/// domain being solved are ever touched, so a recompute costs O(domain), not
/// O(links), and allocates nothing once warm.
#[derive(Debug, Clone, Default)]
struct DomainScratch {
    /// Residual capacity, refreshed per solve on domain links only. Exact
    /// (the chain's value) at the start of every round on the links that
    /// still carry unfrozen members; elsewhere possibly owing subtractions.
    residual: Vec<f64>,
    /// Subtractions of the round increment a link's `residual` still owes.
    owed: Vec<usize>,
    /// Whether a link saturated in the current round (the freeze test).
    saturated: Vec<bool>,
    /// Unfrozen member count per link, copied from `FlowSim::link_members`
    /// at the start of a solve.
    unfrozen_on: Vec<usize>,
    /// Per-domain-class state, indexed by position in the solve's class list.
    rate: Vec<f64>,
    frozen: Vec<bool>,
    /// Dirty domain roots of the current recompute, deduplicated: a root is
    /// listed iff its `root_epoch` stamp equals `epoch`. Stamps are never
    /// cleared, only outdated.
    dirty_roots: Vec<usize>,
    root_epoch: Vec<u64>,
    epoch: u64,
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

    /// Merge the domains of `a` and `b`. When they were distinct, returns
    /// `(root, absorbed)`: the surviving root and the root it absorbed.
    fn union(&mut self, a: usize, b: usize) -> Option<(usize, usize)> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        // Deterministic tie-break: smaller index wins the root, so the
        // domain structure is a pure function of the interning history.
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo;
        Some((lo, hi))
    }
}

/// `r0` after `k` rounded subtractions of `inc`, one at a time: the value
/// the per-flow oracle leaves on a link that `k` unfrozen flows cross.
fn subtract_chain(r0: f64, inc: f64, k: usize) -> f64 {
    let mut r = r0;
    for _ in 0..k {
        r -= inc;
    }
    r
}

/// Whether [`subtract_chain`]`(r0, inc, k) <= threshold`, decided without
/// running the chain: `Some(answer)` when an error bound on the chain
/// settles it, `None` when the chain must be replayed to tell.
///
/// With `u = 2⁻⁵³` and `k ≤ 2³²`, each of the chain's subtractions rounds
/// off at most `u · |xᵢ − inc| ≤ u · S · (1 + 2⁻²⁰)`, where
/// `S = |r0| + k·|inc|` (a sum whose result is subnormal is exact). The
/// closed form `a = r0 − k·inc`, computed with one product and one
/// difference, is off by at most `2u · S` plus half the smallest subnormal.
/// So the chain lies within `E = (k + 2) · u · S · (1 + 2⁻²⁰) + 2⁻¹⁰⁷⁴` of
/// `a`. The bound used, `m = (k + 2) · S · 2u + f64::MIN_POSITIVE`, is
/// about twice `E` or more, its own rounding included. `d = a − threshold`
/// rounds with the sign of the exact difference and
/// `|d| ≤ (1 + u) · |a − threshold|`, so whenever `|d| > m` the chain is on
/// the same side of `threshold` as `a`. Non-finite intermediates fail
/// `|d| > m` and fall back to `None`; so do counts above 2³², where `k·u`
/// stops being negligible.
fn saturation_decided(r0: f64, inc: f64, k: usize, threshold: f64) -> Option<bool> {
    if k as u64 > 1 << 32 {
        return None;
    }
    let kf = k as f64;
    let s = r0.abs() + kf * inc.abs();
    let m = (kf + 2.0) * s * f64::EPSILON + f64::MIN_POSITIVE;
    let d = (r0 - kf * inc) - threshold;
    (d.abs() > m).then_some(d < 0.0)
}

/// Relative saturation threshold of the solver: a link saturates when its
/// residual falls to `EPS * capacity`, as in [`FlowNet::max_min_rates_ref`].
const EPS: f64 = 1e-9;

/// The one-round exit of a domain solve: the rate every live class of
/// `rec`'s domain gets, when [`solve_domain`] would freeze them all in its
/// first round at that rate, or `None` when the full solve must run.
///
/// `link_members` holds each link's live members, counted once per route
/// occurrence, which is the first round's `unfrozen_on`. The increment is
/// the first round's: the `min` over the links with members of
/// `capacity / members`, order-independent for finite positive values, and
/// `0.0 + inc` is `inc`. The exit needs no demand-capped class (no demand
/// gap enters the `min`) and no route crossing a link twice (so a link
/// whose count equals the member total is crossed by every member), and a
/// link so covered whose first-round saturation test decides `true` — the
/// test, with the same arguments, that round 1 makes. Every class crosses
/// that saturated link, so round 1 freezes them all at `inc`: bit for bit
/// the full solve's rates. The covered link tested is the one with the
/// smallest quotient, the one most likely to saturate.
fn covered_increment(capacity: &[f64], link_members: &[usize], rec: &DomainRecord) -> Option<f64> {
    if rec.blockers > 0 {
        return None;
    }
    let total = rec.members;
    let mut inc = f64::INFINITY;
    let mut cover: Option<(usize, f64)> = None;
    for &li in &rec.links {
        let k = link_members[li];
        if k == 0 {
            continue;
        }
        let quotient = capacity[li] / k as f64;
        inc = inc.min(quotient);
        if k == total && cover.is_none_or(|(_, q)| quotient < q) {
            cover = Some((li, quotient));
        }
    }
    let inc = inc.max(0.0);
    let (li, _) = cover?;
    let saturates = saturation_decided(capacity[li], inc, total, EPS * capacity[li]);
    (saturates == Some(true)).then_some(inc)
}

/// Progressive filling over a single link domain, touching only the
/// domain's links: `rec`'s live classes, in any order, over `rec`'s links,
/// with `link_members` as the first round's unfrozen counts. Rates land in
/// `class_rate`. Returns how many residual chains it replayed.
///
/// Bit-identical to [`FlowNet::max_min_rates_ref`] run on the domain's flows
/// alone, by construction, and independent of the order of the classes and
/// of the links:
///
/// * within a round every unfrozen flow receives the *same* increment, so a
///   link crossed by `k` unfrozen flows ends the round after `k` identical
///   subtractions — the result depends only on `k`, not on which flows or in
///   what order ([`subtract_chain`]);
/// * the round's residuals are read only by the freeze test
///   `residual <= EPS * capacity` and, on links still crossed by unfrozen
///   flows, by the next round's head-room. The freeze test is decided from
///   an error bound on the chain ([`saturation_decided`]) and the chain is
///   replayed only when the bound cannot tell; after the freeze pass, the
///   links that still carry unfrozen flows replay their owed chain before
///   the next round reads it. Every decided comparison is the chain's own
///   and every residual read is the chain's value;
/// * members of a class have bit-equal rates at every round (same start,
///   same increments), so tracking one rate per class loses nothing;
/// * the round increment is a `min` over link head-rooms and demand gaps,
///   which is order-independent for finite f64 values; the saturation
///   tests read integer member counts and chains that depend only on
///   their count, and the freeze pass reads flags set before it;
/// * restricting the round scan to the domain's links loses nothing — every
///   link with a nonzero unfrozen count is in the domain by construction,
///   and a domain link no live class crosses has a zero count throughout.
///
/// Per-link unfrozen counts start from the simulator's persistent counts
/// and are decremented when a class freezes, instead of rescanned from the
/// flow list each round, and the link-indexed scratch vectors are refreshed
/// only on the domain's links, so a round costs O(domain links + domain
/// classes), independent of the fabric size and of the member count, plus
/// the length of any chain it replays.
fn solve_domain(
    capacity: &[f64],
    classes: &[FlowClass],
    rec: &DomainRecord,
    link_members: &[usize],
    ds: &mut DomainScratch,
    class_rate: &mut [f64],
) -> u64 {
    let (ids, links) = (&rec.live, &rec.links);
    let n = ids.len();
    ds.rate.clear();
    ds.rate.resize(n, 0.0);
    ds.frozen.clear();
    ds.frozen.resize(n, false);
    for &li in links {
        ds.residual[li] = capacity[li];
        ds.unfrozen_on[li] = link_members[li];
    }
    let mut replays = 0;
    let mut unfrozen = n;
    while unfrozen > 0 {
        let mut inc = f64::INFINITY;
        for &li in links {
            if ds.unfrozen_on[li] > 0 {
                inc = inc.min(ds.residual[li] / ds.unfrozen_on[li] as f64);
            }
        }
        for k in 0..n {
            if ds.frozen[k] {
                continue;
            }
            if let Some(d) = classes[ids[k]].demand {
                inc = inc.min(d - ds.rate[k]);
            }
        }
        if !inc.is_finite() {
            // Mirrors the reference's termination guard; unreachable while a
            // validated unfrozen class remains (its links bound the round).
            break;
        }
        let inc = inc.max(0.0);
        // Each link crossed by `k` unfrozen members owes `k` subtractions of
        // `inc`: settle its freeze test, replaying the chain only if needed.
        for &li in links {
            let k = ds.unfrozen_on[li];
            if k == 0 {
                continue;
            }
            let threshold = EPS * capacity[li];
            ds.saturated[li] = match saturation_decided(ds.residual[li], inc, k, threshold) {
                Some(saturated) => {
                    debug_assert_eq!(
                        saturated,
                        subtract_chain(ds.residual[li], inc, k) <= threshold,
                        "decided saturation of link {li} differs from the replayed chain"
                    );
                    ds.owed[li] = k;
                    saturated
                }
                None => {
                    ds.residual[li] = subtract_chain(ds.residual[li], inc, k);
                    ds.owed[li] = 0;
                    replays += 1;
                    ds.residual[li] <= threshold
                }
            };
        }
        for k in 0..n {
            if ds.frozen[k] {
                continue;
            }
            ds.rate[k] += inc;
            let cl = &classes[ids[k]];
            let at_demand = cl.demand.is_some_and(|d| ds.rate[k] >= d - EPS * d.max(1.0));
            let on_saturated = cl.route.iter().any(|l| ds.saturated[l.index()]);
            if at_demand || on_saturated {
                ds.frozen[k] = true;
                unfrozen -= 1;
                for l in &cl.route {
                    ds.unfrozen_on[l.index()] -= cl.members();
                }
            }
        }
        // The next round reads the residual of every link that still
        // carries unfrozen members: pay what those links owe.
        if unfrozen > 0 {
            for &li in links {
                if ds.unfrozen_on[li] > 0 && ds.owed[li] > 0 {
                    ds.residual[li] = subtract_chain(ds.residual[li], inc, ds.owed[li]);
                    ds.owed[li] = 0;
                    replays += 1;
                }
            }
        }
    }
    for k in 0..n {
        class_rate[ids[k]] = ds.rate[k];
    }
    replays
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
    /// Flow classes (route + demand equivalence) with their member queues,
    /// indexed by [`ClassId`]; a class is never removed.
    classes: Vec<FlowClass>,
    class_index: FxHashMap<ClassKey, ClassId>,
    /// Class of each active flow, by [`FlowId::seq`].
    flow_class: SeqTable<usize>,
    /// Set when the flow set or a capacity changed since the last
    /// recomputation; a clean simulator skips the allocator entirely.
    dirty: bool,
    /// Monotone link partition: which links can currently share a bottleneck.
    domains: LinkDomains,
    /// One record per domain that ever held a class, plus the link-free
    /// pseudo-domain's at [`LINK_FREE`]; dense, so a server with one domain
    /// keeps two.
    records: Vec<DomainRecord>,
    /// Record index of each root link's domain ([`NO_RECORD`] if none);
    /// entries of non-root links are stale and never read.
    link_record: Vec<u32>,
    /// Whether a link is on its domain record's `links` list.
    link_listed: Vec<bool>,
    /// Live members crossing each link, counted once per route occurrence.
    link_members: Vec<usize>,
    /// Clock epoch: bumped whenever [`FlowSim::advance`] moves the clock,
    /// which outdates every record's cached completion at once.
    clock: u64,
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
    covered_solves: u64,
    class_scans: u64,
    residual_replays: u64,
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
            flow_class: SeqTable::new(),
            dirty: false,
            domains: LinkDomains::new(n_links),
            records: vec![DomainRecord::new(usize::MAX)],
            link_record: vec![NO_RECORD; n_links],
            link_listed: vec![false; n_links],
            link_members: vec![0; n_links],
            clock: STALE + 1,
            dirty_links: Vec::new(),
            dirty_nolink: false,
            class_rate: Vec::new(),
            dscratch: DomainScratch::default(),
            recomputes: 0,
            domain_solves: 0,
            covered_solves: 0,
            class_scans: 0,
            residual_replays: 0,
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

    /// Number of domain solves closed by the one-round exit: every live
    /// class of the domain crosses one link that saturates first, so all
    /// take that link's share without the full solve. Each also counts in
    /// [`FlowSim::domain_solves`]. Exact, like it.
    pub fn covered_solves(&self) -> u64 {
        self.covered_solves
    }

    /// Number of live classes [`FlowSim::next_completion`] has examined so
    /// far. A query re-examines only the live classes of the domains
    /// re-solved since the previous one, or every live class once the clock
    /// has moved; cached domains and idle classes cost nothing. Exact, like
    /// [`FlowSim::domain_solves`].
    pub fn class_scans(&self) -> u64 {
        self.class_scans
    }

    /// Number of per-link residual chains the allocator has replayed so
    /// far. A solve decides each round's link saturations from an error
    /// bound and replays a link's chain of subtractions only when the bound
    /// cannot decide, or when a later round reads the link's residual; a
    /// solve that ends in one round usually replays none. Exact, like
    /// [`FlowSim::domain_solves`].
    pub fn residual_replays(&self) -> u64 {
        self.residual_replays
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

    /// The class of flows over `spec`'s route with its demand cap,
    /// interned on first use. A new class joins its route's links into one
    /// link domain for good, so intern a route when its first flow starts:
    /// the partition, and so every rate, is a function of that history.
    /// Interning changes no rate until the next flow change or capacity
    /// change re-solves the merged domain.
    ///
    /// # Panics
    ///
    /// Panics if the route is empty and `spec` has no demand cap, or if the
    /// route references an unknown link.
    pub fn class_of(&mut self, spec: FlowSpec) -> ClassId {
        self.net.validate(&spec);
        let demand = spec.demand;
        // The key takes the route: a known class, the common case, copies
        // nothing.
        let key = ClassKey::of(spec);
        if let Some(&c) = self.class_index.get(&key) {
            return c;
        }
        if let Some((&first, rest)) = key.route.split_first() {
            for l in rest {
                self.join(first.index(), l.index());
            }
            let r = self.record_for(Some(first));
            for l in &key.route {
                if !std::mem::replace(&mut self.link_listed[l.index()], true) {
                    self.records[r].links.push(l.index());
                }
            }
        }
        let route = &key.route;
        let repeats = (1..route.len()).any(|i| route[..i].contains(&route[i]));
        let c = ClassId(u32::try_from(self.classes.len()).expect("fewer than 2^32 classes"));
        self.classes.push(FlowClass {
            route: key.route.clone(),
            demand,
            queue: VecDeque::new(),
            live_at: 0,
            blocks_exit: demand.is_some() || repeats,
        });
        self.class_rate.push(0.0);
        self.class_index.insert(key, c);
        c
    }

    /// The route of class `class`.
    pub fn route_of(&self, class: ClassId) -> &[LinkId] {
        &self.classes[class.index()].route
    }

    /// Index of the record of the domain holding `link` (the link-free
    /// record for `None`), created when the domain gets its first class.
    fn record_for(&mut self, link: Option<LinkId>) -> usize {
        let Some(l) = link else { return LINK_FREE };
        let root = self.domains.find(l.index());
        if self.link_record[root] == NO_RECORD {
            self.link_record[root] = self.records.len() as u32;
            self.records.push(DomainRecord::new(root));
        }
        self.link_record[root] as usize
    }

    /// Union the domains of links `a` and `b`, merging their records. The
    /// absorbed record is swap-removed so records stay dense. The merged
    /// domain is marked dirty: its rates were solved as two domains, and
    /// the solve that follows marks the merged record's cache stale.
    fn join(&mut self, a: usize, b: usize) {
        let Some((root, absorbed)) = self.domains.union(a, b) else { return };
        self.dirty_links.push(root);
        self.dirty = true;
        let gone = std::mem::replace(&mut self.link_record[absorbed], NO_RECORD);
        if gone == NO_RECORD {
            return;
        }
        if self.link_record[root] == NO_RECORD {
            self.link_record[root] = gone;
            self.records[gone as usize].root = root;
            return;
        }
        let gone = gone as usize;
        let merged = self.records.swap_remove(gone);
        if let Some(moved) = self.records.get(gone) {
            self.link_record[moved.root] = gone as u32;
        }
        let keep = &mut self.records[self.link_record[root] as usize];
        for c in merged.live {
            self.classes[c].live_at = keep.live.len();
            keep.live.push(c);
        }
        keep.links.extend(merged.links);
        keep.members += merged.members;
        keep.blockers += merged.blockers;
    }

    /// Mark class `c`'s domain dirty (its member set or environment changed).
    fn mark_route_dirty(&mut self, c: usize) {
        let route = &self.classes[c].route;
        if route.is_empty() {
            self.dirty_nolink = true;
        } else {
            // One route link suffices: every link of the route is already in
            // the same domain by the union in `class_of`.
            self.dirty_links.push(route[0].index());
        }
        self.dirty = true;
    }

    /// Index of the record of class `c`'s domain.
    fn record_of(&mut self, c: usize) -> usize {
        self.record_for(self.classes[c].route.first().copied())
    }

    /// Put class `c`, which just gained its first member, on its domain's
    /// (record `r`'s) live list.
    fn go_live(&mut self, c: usize, r: usize) {
        let rec = &mut self.records[r];
        let cl = &mut self.classes[c];
        cl.live_at = rec.live.len();
        rec.live.push(c);
        rec.blockers += usize::from(cl.blocks_exit);
    }

    /// Take class `c`, which just lost its last member, off its domain's
    /// (record `r`'s) live list.
    fn go_idle(&mut self, c: usize, r: usize) {
        let rec = &mut self.records[r];
        let at = self.classes[c].live_at;
        debug_assert_eq!(rec.live[at], c, "a live class knows its place");
        rec.live.swap_remove(at);
        if let Some(&moved) = rec.live.get(at) {
            self.classes[moved].live_at = at;
        }
        rec.blockers -= usize::from(self.classes[c].blocks_exit);
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
            for &c in self.records.iter().flat_map(|rec| &rec.live) {
                min_rate = min_rate.min(self.class_rate[c]);
                max_rate = max_rate.max(self.class_rate[c]);
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
        if ds.root_epoch.len() < n_links {
            ds.root_epoch.resize(n_links, 0);
            ds.residual.resize(n_links, 0.0);
            ds.owed.resize(n_links, 0);
            ds.saturated.resize(n_links, false);
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
            let rec = &mut self.records[LINK_FREE];
            rec.fresh_at = STALE;
            for &c in &rec.live {
                self.class_rate[c] =
                    self.classes[c].demand.expect("validated: a link-free flow carries a demand");
            }
        }

        for ri in 0..self.dscratch.dirty_roots.len() {
            let root = self.dscratch.dirty_roots[ri];
            // A capacity change can dirty a domain that never held a class.
            let r = self.link_record[root];
            if r == NO_RECORD {
                continue;
            }
            let rec = &mut self.records[r as usize];
            rec.fresh_at = STALE;
            if rec.live.is_empty() {
                continue;
            }
            self.domain_solves += 1;
            if let Some(inc) = covered_increment(&self.net.capacity, &self.link_members, rec) {
                self.covered_solves += 1;
                for &c in &rec.live {
                    self.class_rate[c] = inc;
                }
            } else {
                self.residual_replays += solve_domain(
                    &self.net.capacity,
                    &self.classes,
                    rec,
                    &self.link_members,
                    &mut self.dscratch,
                    &mut self.class_rate,
                );
            }
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

    /// Advance the clock to `now`, draining bytes at current rates: one
    /// subtraction per member of every live class.
    ///
    /// # Panics
    ///
    /// Panics if `now` is in the past.
    pub fn advance(&mut self, now: SimTime) {
        assert!(now >= self.now, "FlowSim cannot go backwards in time");
        let dt = (now - self.now).as_secs_f64();
        if dt > 0.0 {
            self.clock += 1;
            for &c in self.records.iter().flat_map(|rec| &rec.live) {
                let drained = self.class_rate[c] * dt;
                for (_, remaining) in &mut self.classes[c].queue {
                    *remaining = (*remaining - drained).max(0.0);
                }
            }
        }
        self.now = now;
    }

    /// Start a transfer of `bytes` over `spec` at time `now` (advancing the
    /// clock there first): [`FlowSim::class_of`] then
    /// [`FlowSim::add_flow_in`]. Returns the flow's id.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of both.
    pub fn add_flow(&mut self, now: SimTime, spec: FlowSpec, bytes: f64) -> FlowId {
        let class = self.class_of(spec);
        self.add_flow_in(now, class, bytes)
    }

    /// Start a transfer of `bytes` in class `class` at time `now`
    /// (advancing the clock there first). Returns the flow's id.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not finite and positive, or `now` is in the past.
    pub fn add_flow_in(&mut self, now: SimTime, class: ClassId, bytes: f64) -> FlowId {
        assert!(bytes.is_finite() && bytes > 0.0, "transfer size must be positive");
        self.advance(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let c = class.index();
        let r = self.record_of(c);
        if self.classes[c].queue.is_empty() {
            self.go_live(c, r);
        }
        self.records[r].members += 1;
        let cl = &mut self.classes[c];
        for l in &cl.route {
            self.link_members[l.index()] += 1;
        }
        let at = cl.queue.partition_point(|&(_, remaining)| remaining <= bytes);
        cl.queue.insert(at, (id, bytes));
        self.flow_class.insert(id.0, c);
        self.mark_route_dirty(c);
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
        let c = *self.flow_class.get(id.0)?;
        self.classes[c]
            .queue
            .iter()
            .find(|&&(f, _)| f == id)
            .map(|&(_, r)| r)
    }

    /// Current rate of a flow in bytes/s (`None` if unknown).
    pub fn rate(&self, id: FlowId) -> Option<f64> {
        self.flow_class.get(id.0).map(|&c| self.class_rate[c])
    }

    /// The earliest `(time, flow)` completion under current rates, if any
    /// flow is active. Ties break toward the earliest-started flow.
    ///
    /// Only the head of each class queue, and the members tied with it, are
    /// examined: a class's completion times ascend along its queue. Flow ids
    /// are issued in arrival order, so the smallest id among the flows with
    /// the minimum time is the earliest-started one.
    ///
    /// Each domain record caches its live classes' minimum. A query
    /// refreshes only the records re-solved since the previous query, or
    /// all of them when the clock has moved, and returns the minimum over
    /// the records: the same `(time, FlowId)` a scan of every class finds,
    /// because an idle class has no completion and a clean domain's queues,
    /// rates and clock are the ones its cache saw.
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        let mut best = None;
        for rec in &mut self.records {
            if rec.fresh_at != self.clock {
                rec.fresh_at = self.clock;
                rec.earliest = None;
                for &c in &rec.live {
                    keep_earlier(
                        &mut rec.earliest,
                        self.classes[c].earliest(self.class_rate[c], self.now),
                    );
                }
                self.class_scans += rec.live.len() as u64;
            }
            keep_earlier(&mut best, rec.earliest);
        }
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            best,
            self.next_completion_ref(),
            "cached next completion diverged from the full class scan"
        );
        best
    }

    /// The oracle for [`FlowSim::next_completion`]: the same minimum taken
    /// over every class, with no cache (tests and debug builds only).
    #[cfg(any(test, debug_assertions))]
    fn next_completion_ref(&self) -> Option<(SimTime, FlowId)> {
        let mut best = None;
        for (cl, &rate) in self.classes.iter().zip(&self.class_rate) {
            keep_earlier(&mut best, cl.earliest(rate, self.now));
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
        let Some(c) = self.flow_class.remove(id.0) else {
            panic!("unknown flow {id:?}")
        };
        let r = self.record_of(c);
        self.records[r].members -= 1;
        let cl = &mut self.classes[c];
        for l in &cl.route {
            self.link_members[l.index()] -= 1;
        }
        // Usually the head: completions leave a class in queue order.
        let at = cl
            .queue
            .iter()
            .position(|&(f, _)| f == id)
            .expect("active flow is queued");
        cl.queue.remove(at);
        if cl.queue.is_empty() {
            self.go_idle(c, r);
        }
        self.mark_route_dirty(c);
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

    /// One step of a random history: the operation (0 add, 1 complete the
    /// next finisher, 2 degrade a link), raw route picks, whether an added
    /// flow is demand-capped, a value seeding demands and capacities, and
    /// indices into [`check_history`]'s transfer sizes and time steps.
    type HistoryOp = (u8, Vec<u32>, bool, u64, usize, usize);

    /// Replay `ops` on a [`FlowSim`] over links of capacity `caps`, with
    /// `route` turning an op's raw picks into link indices. After every
    /// step, each active flow's rate equals the per-domain oracle's, bit for
    /// bit; its remaining bytes equal a ledger drained at the oracle's
    /// rates; and `next_completion` equals a brute-force scan over the
    /// active flows in arrival order (minimum time, then earliest-started),
    /// twice at one instant, the second time from the caches alone.
    /// Transfer sizes and time steps come from small sets, so flows of one
    /// class with equal remaining bytes, and flows drained to zero, actually
    /// occur. Returns the simulator as the history left it.
    fn check_history(
        caps: Vec<f64>,
        ops: Vec<HistoryOp>,
        route: impl Fn(&[u32]) -> Vec<u32>,
    ) -> FlowSim {
        check_history_with(caps, ops, route, |_| {})
    }

    /// [`check_history`], also running `after_op` on the simulator after
    /// every step's checks.
    fn check_history_with(
        caps: Vec<f64>,
        ops: Vec<HistoryOp>,
        route: impl Fn(&[u32]) -> Vec<u32>,
        after_op: impl Fn(&FlowSim),
    ) -> FlowSim {
        const SIZES: [f64; 4] = [1.0, 64.0, 4096.0, 65536.0];
        const STEPS_NS: [u64; 4] = [0, 0, 1, 977];
        let links = caps.len() as u32;
        let mut sim = FlowSim::new(FlowNet::from_capacities(caps));
        let mut seen: Vec<Vec<LinkId>> = Vec::new();
        // (id, spec, remaining bytes) in arrival order, and the oracle's
        // rate of each.
        let mut active: Vec<(FlowId, FlowSpec, f64)> = Vec::new();
        let mut want: Vec<f64> = Vec::new();
        let mut t = SimTime::ZERO;
        for (op, picks, capped, v, size, step) in ops {
            let route = route(&picks);
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
                        _ => random_flow(route, links, capped, 1e8 + v as f64 * 1e3),
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
                    let l = route.first().map_or(0, |l| l % links);
                    sim.set_capacity(t, link(l), 0.25e9 + v as f64);
                }
            }
            let specs: Vec<FlowSpec> = active.iter().map(|(_, s, _)| s.clone()).collect();
            want = reference_rates(sim.net(), &seen, &specs);
            let mut brute: Option<(SimTime, FlowId)> = None;
            for ((id, _, remaining), w) in active.iter().zip(&want) {
                let g = sim.rate(*id).expect("flow is active");
                assert_eq!(g.to_bits(), w.to_bits(), "{id:?}: sim={g} ref={w}");
                let r = sim.remaining(*id).expect("flow is active");
                assert_eq!(r.to_bits(), remaining.to_bits(), "{id:?} remaining");
                if *w > 0.0 {
                    let done = sim.now() + SimTime::from_secs_f64(remaining / w);
                    if brute.is_none_or(|(bt, _)| done < bt) {
                        brute = Some((done, *id));
                    }
                }
            }
            assert_eq!(sim.next_completion(), brute);
            let scans = sim.class_scans();
            assert_eq!(sim.next_completion(), brute, "repeated query");
            assert_eq!(sim.class_scans(), scans, "a repeated query scans no class");
            after_op(&sim);
        }
        sim
    }

    /// Twelve links in four disjoint groups of three: a route stays inside
    /// the group its first pick names, and one route in twelve also
    /// crosses into the next group.
    fn grouped_route(picks: &[u32]) -> Vec<u32> {
        let Some(&first) = picks.first() else { return Vec::new() };
        let group = first % 4;
        let mut route: Vec<u32> = picks.iter().map(|p| 3 * group + p % 3).collect();
        if first < 4 {
            route.push(3 * ((group + 1) % 4) + first % 3);
        }
        route
    }

    /// Each domain record's live list holds exactly the classes of its
    /// domain that have members, once each, and every live class's
    /// `live_at` names its place in that list. The state the one-round
    /// exit reads matches a recount: each record's member total, its
    /// blocking classes and its links (those of every interned route of
    /// its domain), and each link's members once per route occurrence.
    fn assert_live_lists(sim: &FlowSim) {
        let root = |mut x: usize| {
            while sim.domains.parent[x] != x {
                x = sim.domains.parent[x];
            }
            x
        };
        let record = |route: &[LinkId]| match route.first() {
            None => LINK_FREE,
            Some(l) => sim.link_record[root(l.index())] as usize,
        };
        let mut want: Vec<Vec<usize>> = vec![Vec::new(); sim.records.len()];
        let mut links: Vec<Vec<usize>> = vec![Vec::new(); sim.records.len()];
        let mut members = vec![0; sim.records.len()];
        let mut blockers = vec![0; sim.records.len()];
        let mut link_members = vec![0; sim.net.link_count()];
        for (c, cl) in sim.classes.iter().enumerate() {
            let r = record(&cl.route);
            links[r].extend(cl.route.iter().map(|l| l.index()));
            if cl.queue.is_empty() {
                continue;
            }
            want[r].push(c);
            members[r] += cl.members();
            blockers[r] += usize::from(cl.blocks_exit);
            for l in &cl.route {
                link_members[l.index()] += cl.members();
            }
        }
        for (r, rec) in sim.records.iter().enumerate() {
            let mut live = rec.live.clone();
            live.sort_unstable();
            assert_eq!(live, want[r], "record {r}'s live list");
            for (at, &c) in rec.live.iter().enumerate() {
                assert_eq!(sim.classes[c].live_at, at, "class {c}'s live_at");
            }
            if r == LINK_FREE {
                continue;
            }
            let mut rec_links = rec.links.clone();
            rec_links.sort_unstable();
            links[r].sort_unstable();
            links[r].dedup();
            assert_eq!(rec_links, links[r], "record {r}'s links");
            assert_eq!(rec.members, members[r], "record {r}'s members");
            assert_eq!(rec.blockers, blockers[r], "record {r}'s blockers");
        }
        assert_eq!(sim.link_members, link_members, "per-link members");
    }

    /// Start one flow per spec at `now` and check every active flow's rate
    /// against [`FlowNet::max_min_rates_ref`] run on all of them, so the
    /// specs must form one link domain. Returns how many of the solves the
    /// one-round exit closed.
    fn add_and_check(
        sim: &mut FlowSim,
        flows: &mut Vec<(FlowId, FlowSpec)>,
        specs: &[FlowSpec],
    ) -> u64 {
        let before = sim.covered_solves();
        for spec in specs {
            let id = sim.add_flow(sim.now(), spec.clone(), 1e6);
            flows.push((id, spec.clone()));
        }
        assert_matches_ref(sim, flows);
        sim.covered_solves() - before
    }

    /// Every flow of `flows`, one link domain, has the rate
    /// [`FlowNet::max_min_rates_ref`] gives it, bit for bit, and the
    /// persistent counts match a recount.
    fn assert_matches_ref(sim: &FlowSim, flows: &[(FlowId, FlowSpec)]) {
        let specs: Vec<FlowSpec> = flows.iter().map(|(_, s)| s.clone()).collect();
        let want = sim.net().max_min_rates_ref(&specs);
        for ((id, _), w) in flows.iter().zip(&want) {
            let got = sim.rate(*id).expect("flow is active");
            assert_eq!(got.to_bits(), w.to_bits(), "{id:?}: sim={got} ref={w}");
        }
        assert_live_lists(sim);
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
    fn churn_on_one_route_keeps_one_class() {
        let net = FlowNet::from_capacities(vec![1e9]);
        let mut sim = FlowSim::new(net);
        for _ in 0..100 {
            let f = sim.add_flow(sim.now(), FlowSpec::new(vec![link(0)]), 1e3);
            let (t, _) = sim.next_completion().unwrap();
            sim.complete(t, f);
        }
        assert_eq!(sim.classes.len(), 1, "churning one route must keep its one class");
        assert!(sim.records.iter().all(|rec| rec.live.is_empty()), "no class stays live");
        let c = sim.class_of(FlowSpec::new(vec![link(0)]));
        assert_eq!(sim.route_of(c), [link(0)]);
    }

    #[test]
    fn completion_queries_rescan_only_changed_domains() {
        // Domain A is link 0 with two live classes, domain B link 1 with
        // three live classes and an idle one, whose only flow completed.
        let net = FlowNet::from_capacities(vec![1e9, 1e9]);
        let mut sim = FlowSim::new(net);
        let idle = sim.add_flow(SimTime::ZERO, FlowSpec::with_demand(vec![link(1)], 3e8), 1e6);
        sim.complete(SimTime::ZERO, idle);
        let a = FlowSpec::new(vec![link(0)]);
        let specs = [
            a.clone(),
            FlowSpec::with_demand(vec![link(0)], 1e8),
            FlowSpec::new(vec![link(1)]),
            FlowSpec::with_demand(vec![link(1)], 1e8),
            FlowSpec::with_demand(vec![link(1)], 2e8),
        ];
        for spec in specs {
            sim.add_flow(SimTime::ZERO, spec, 1e6);
        }
        assert_eq!(sim.classes.len(), 6);
        let scans = |sim: &mut FlowSim| {
            let before = sim.class_scans();
            let next = sim.next_completion();
            assert_eq!(next, sim.next_completion_ref());
            sim.class_scans() - before
        };
        assert_eq!(scans(&mut sim), 5, "the first query scans every live class");
        assert_eq!(scans(&mut sim), 0, "an unchanged state is answered from the caches");
        sim.add_flow(SimTime::ZERO, a, 2e6);
        assert_eq!(scans(&mut sim), 2, "a change in A at the same instant rescans A alone");
        sim.set_capacity(SimTime::ZERO, link(1), 0.5e9);
        assert_eq!(scans(&mut sim), 3, "a change in B at the same instant rescans B alone");
        sim.advance(SimTime::from_micros(1));
        assert_eq!(scans(&mut sim), 5, "a clock move rescans every live class");
    }

    #[test]
    fn single_round_solves_replay_no_chain() {
        // 700 flows of one class on one link: every solve, up to the one
        // over 700 members, ends in one round with the link decided as
        // saturated, so no residual chain is ever replayed.
        let net = FlowNet::from_capacities(vec![16e9]);
        let mut sim = FlowSim::new(net.clone());
        let spec = FlowSpec::new(vec![link(0)]);
        let ids: Vec<FlowId> =
            (0..700).map(|_| sim.add_flow(SimTime::ZERO, spec.clone(), 1e6)).collect();
        assert_eq!(sim.domain_solves(), 700);
        assert_eq!(sim.residual_replays(), 0);
        let want = net.max_min_rates_ref(&vec![spec; 700]);
        assert_eq!(sim.rate(ids[0]).unwrap().to_bits(), want[0].to_bits());
    }

    #[test]
    fn multi_round_solves_replay_the_surviving_links() {
        // Links 0 and 1 carry 8 demand-capped flows and 300 uncapped ones,
        // all crossing both. Round one freezes the capped class at its
        // demand and leaves the uncapped class on both links, so both links
        // replay their chain; round two saturates link 1 and freezes
        // everything, so nothing more is replayed.
        let net = FlowNet::from_capacities(vec![2e9, 1e9]);
        let mut sim = FlowSim::new(net.clone());
        let capped = FlowSpec::with_demand(vec![link(0), link(1)], 1e6);
        let open = FlowSpec::new(vec![link(0), link(1)]);
        let mut specs = vec![capped.clone(); 8];
        specs.extend(vec![open.clone(); 300]);
        for spec in &specs[..specs.len() - 1] {
            sim.add_flow(SimTime::ZERO, spec.clone(), 1e6);
        }
        let before = sim.residual_replays();
        let last = sim.add_flow(SimTime::ZERO, open, 1e6);
        assert_eq!(sim.residual_replays() - before, 2);
        let want = net.max_min_rates_ref(&specs);
        assert_eq!(sim.rate(last).unwrap().to_bits(), want[307].to_bits());
        assert_eq!(sim.rate(FlowId(0)).unwrap().to_bits(), want[0].to_bits());
        assert_eq!(want[0], 1e6);
    }

    #[test]
    fn realistic_saturations_are_decided() {
        // A link shared by `k` flows that saturate it lands within a few
        // ulps of zero, far below `EPS * capacity`; one left well short of
        // saturation stays far above it. Both are decided without a replay.
        for k in [1, 2, 3, 7, 100, 999, 4096, 100_000] {
            for cap in [0.5e9, 1e9, 16e9, 64e9, 3.0] {
                let threshold = 1e-9 * cap;
                let inc = cap / k as f64;
                assert_eq!(saturation_decided(cap, inc, k, threshold), Some(true));
                assert_eq!(saturation_decided(cap, inc / 2.0, k, threshold), Some(false));
            }
        }
    }

    #[test]
    fn a_route_crossing_a_link_twice_blocks_the_exit() {
        // A crosses link 0 twice and link 1 once, B crosses link 1 only.
        // Link 0 counts A twice, which equals the member total, yet B does
        // not cross it: A freezes at half of link 0 and B takes the rest
        // of link 1.
        let mut sim = FlowSim::new(FlowNet::from_capacities(vec![1e9, 4e9]));
        let mut flows = Vec::new();
        let a = FlowSpec::new(vec![link(0), link(1), link(0)]);
        assert_eq!(add_and_check(&mut sim, &mut flows, &[a]), 0);
        assert_eq!(add_and_check(&mut sim, &mut flows, &[FlowSpec::new(vec![link(1)])]), 0);
        assert_eq!(sim.rate(flows[0].0), Some(5e8));
        assert_eq!(sim.rate(flows[1].0), Some(3.5e9));
    }

    #[test]
    fn a_covering_link_tied_at_the_minimum_takes_the_exit() {
        // Link 0 (2 GB/s) is crossed by both flows, link 1 (1 GB/s) by A
        // alone: both quotients are 1 GB/s, both links saturate in round 1,
        // and every flow crosses link 0.
        let mut sim = FlowSim::new(FlowNet::from_capacities(vec![2e9, 1e9]));
        let mut flows = Vec::new();
        let specs = [FlowSpec::new(vec![link(0), link(1)]), FlowSpec::new(vec![link(0)])];
        assert_eq!(add_and_check(&mut sim, &mut flows, &specs), 2);
        assert_eq!(sim.rate(flows[1].0), Some(1e9));
    }

    #[test]
    fn a_routed_demand_cap_blocks_the_exit() {
        // A capped class on link 0 keeps every solve of the domain on the
        // full path, binding or not; once it leaves, the exit returns.
        let mut sim = FlowSim::new(FlowNet::from_capacities(vec![1e9]));
        let mut flows = Vec::new();
        let open = FlowSpec::new(vec![link(0)]);
        assert_eq!(add_and_check(&mut sim, &mut flows, std::slice::from_ref(&open)), 1);
        let binding = FlowSpec::with_demand(vec![link(0)], 1e8);
        assert_eq!(add_and_check(&mut sim, &mut flows, &[binding]), 0);
        assert_eq!(sim.rate(flows[1].0), Some(1e8));
        let loose = FlowSpec::with_demand(vec![link(0)], 8e8);
        assert_eq!(add_and_check(&mut sim, &mut flows, &[loose]), 0);
        let before = sim.covered_solves();
        for (id, _) in flows.drain(1..) {
            sim.complete(sim.now(), id);
        }
        assert_eq!(sim.covered_solves(), before + 1, "the last completion leaves A alone");
        assert_eq!(add_and_check(&mut sim, &mut flows, &[open]), 1);
    }

    #[test]
    fn a_join_of_two_live_domains_merges_their_counts() {
        // Links 0 and 1 start as two domains, each closing its solves by
        // the exit. A route over both merges them: no link is crossed by
        // every member of the merged domain until only that route's flows
        // are left.
        let mut sim = FlowSim::new(FlowNet::from_capacities(vec![1e9, 2e9]));
        let mut left = Vec::new();
        let mut right = Vec::new();
        let zero = FlowSpec::new(vec![link(0)]);
        let one = FlowSpec::new(vec![link(1)]);
        assert_eq!(add_and_check(&mut sim, &mut left, &[zero.clone(), zero]), 2);
        assert_eq!(add_and_check(&mut sim, &mut right, &[one]), 1);
        let mut flows: Vec<(FlowId, FlowSpec)> = left.into_iter().chain(right).collect();
        let both = FlowSpec::new(vec![link(0), link(1)]);
        assert_eq!(add_and_check(&mut sim, &mut flows, &[both.clone(), both]), 0);
        assert_eq!(sim.records.len(), 2, "one record per domain, the link-free one included");
        let before = sim.covered_solves();
        for (id, _) in flows.drain(..3) {
            sim.complete(sim.now(), id);
        }
        assert_matches_ref(&sim, &flows);
        assert_eq!(sim.covered_solves(), before + 1, "the last completion leaves one route");
    }

    #[test]
    fn a_degrade_that_moves_the_minimum_off_the_covering_link_blocks_the_exit() {
        // Link 0 is crossed by both flows and binds first, until link 1,
        // crossed by A alone, degrades below link 0's share.
        let mut sim = FlowSim::new(FlowNet::from_capacities(vec![1e9, 1e9]));
        let mut flows = Vec::new();
        let specs = [FlowSpec::new(vec![link(0), link(1)]), FlowSpec::new(vec![link(0)])];
        assert_eq!(add_and_check(&mut sim, &mut flows, &specs), 2);
        let before = sim.covered_solves();
        sim.set_capacity(sim.now(), link(1), 2e8);
        assert_eq!(sim.covered_solves(), before);
        assert_matches_ref(&sim, &flows);
        assert_eq!(sim.rate(flows[1].0), Some(8e8));
        sim.set_capacity(sim.now(), link(1), 1e9);
        assert_eq!(sim.covered_solves(), before + 1);
        assert_matches_ref(&sim, &flows);
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

        /// Random add/complete/degrade histories over four links checked by
        /// [`check_history`]. Most routes share a link, so the links
        /// usually merge into one domain early.
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
            check_history(vec![1e9, 2e9, 0.5e9, 1e9], ops, |picks| picks.to_vec());
        }

        /// The same check over twelve links in four disjoint groups of
        /// three. A route stays inside one group, so several domains stay
        /// alive with their own cached completions; one route in twelve also
        /// crosses into the next group, merging two cached domains late.
        #[test]
        fn flow_sim_histories_match_reference_across_domains(
            ops in proptest::collection::vec(
                (
                    0u8..3,
                    proptest::collection::vec(0u32..48, 0..4),
                    any::<bool>(),
                    1u64..1_000_000,
                    0usize..4,
                    0usize..4,
                ),
                1..60,
            ),
        ) {
            check_history([1e9, 2e9, 0.5e9].repeat(4), ops, grouped_route);
        }

        /// Random add/complete/degrade histories over four links where most
        /// solves can close by the one-round exit: every route crosses at
        /// least one link, one add in eight is demand-capped, and routes may
        /// cross a link twice. [`check_history`] compares every step with
        /// the oracle, and [`assert_live_lists`] recounts the state the exit
        /// reads. The history opens with an uncapped flow alone on link 0,
        /// a solve the exit must close.
        #[test]
        fn exit_histories_match_reference(
            ops in proptest::collection::vec(
                (
                    0u8..3,
                    proptest::collection::vec(0u32..4, 1..4),
                    0u8..8,
                    1u64..1_000_000,
                    0usize..4,
                    0usize..4,
                ),
                1..60,
            ),
        ) {
            let first = (0, vec![0], false, 1, 0, 0);
            let ops = std::iter::once(first)
                .chain(ops.into_iter().map(|(op, picks, capped, v, size, step)| {
                    (op, picks, capped == 0, v, size, step)
                }))
                .collect();
            let sim = check_history_with(
                vec![2e9, 1e9, 0.5e9, 1e9],
                ops,
                |picks| picks.to_vec(),
                assert_live_lists,
            );
            prop_assert!(sim.covered_solves() > 0, "the exit never fired");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random add/complete/degrade histories over the twelve links of
        /// `_across_domains`, with nearly as many completions as adds, so
        /// classes go idle and live again often and domains merge under
        /// live classes. Besides [`check_history`]'s checks, after every op
        /// each record's live list holds exactly its domain's classes with
        /// members.
        #[test]
        fn live_lists_track_the_classes_with_members(
            ops in proptest::collection::vec(
                (
                    0u8..8,
                    proptest::collection::vec(0u32..48, 0..4),
                    any::<bool>(),
                    1u64..1_000_000,
                    0usize..4,
                    0usize..4,
                ),
                1..60,
            ),
        ) {
            let ops = ops
                .into_iter()
                .map(|(op, picks, capped, v, size, step)| {
                    let op = match op {
                        0..=3 => 0,
                        4..=6 => 1,
                        _ => 2,
                    };
                    (op, picks, capped, v, size, step)
                })
                .collect();
            check_history_with(
                [1e9, 2e9, 0.5e9].repeat(4),
                ops,
                grouped_route,
                assert_live_lists,
            );
        }
    }

    proptest! {
        // Debug builds also cross-check every solve against the oracle, so
        // they run fewer of these long histories.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 8 } else { 32 }))]

        /// The same check on a Baseline-shaped server: every route crosses
        /// root link 0 (a 64 GB/s root complex), alone or after one of
        /// three narrower branch links. Most adds are uncapped flows on the
        /// root alone, so that class grows to a few hundred members, and
        /// one add in eight is demand-capped: caps that bind before the
        /// root saturates make solves of two or more rounds, which replay
        /// the surviving links' chains. Degrades hit branch links only.
        #[test]
        fn flow_sim_histories_match_reference_on_a_root_complex(
            ops in proptest::collection::vec(
                (
                    0u8..16,
                    proptest::collection::vec(0u32..16, 0..2),
                    0u8..8,
                    1u64..1_000_000,
                    0usize..4,
                    0usize..4,
                ),
                400..700,
            ),
        ) {
            let ops = ops
                .into_iter()
                .map(|(op, picks, capped, v, size, step)| match op {
                    0..=12 => (0, picks, capped == 0, v, size, step),
                    13..=14 => (1, picks, false, v, size, step),
                    _ => (2, vec![1 + (v % 3) as u32], false, v, size, step),
                })
                .collect();
            let sim = check_history(vec![64e9, 1e9, 2e9, 0.5e9], ops, |picks| {
                match picks.first() {
                    Some(&p) if p % 4 != 0 => vec![p % 4, 0],
                    _ => vec![0],
                }
            });
            prop_assert!(sim.residual_replays() > 0, "no multi-round solve occurred");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// [`saturation_decided`] never contradicts the chain it stands in
        /// for. The inputs are adversarial near-ties: `r0` is a few ulps
        /// off `k·inc`, so the chain ends near zero, and the threshold sits
        /// `t_ulps · 2^spread` ulps of `|r0| + k·inc` from the chain's end
        /// (or from `r0 − k·inc`), on either side of the error bound, so
        /// both decided and undecided cases occur. The shapes also include
        /// the solver's own `EPS·capacity` threshold with the chain landing
        /// next to it, `inc = 0`, `inc > r0`, and subnormal increments.
        #[test]
        fn saturation_decisions_match_the_chain(
            k in 1usize..4000,
            magnitude in 0usize..8,
            mantissa in 1.0f64..2.0,
            shape in 0u8..6,
            r0_ulps in -8i64..9,
            t_ulps in -4i64..5,
            spread in 0i32..40,
        ) {
            let step = |x: f64, n: i64| {
                let next = if n > 0 { f64::next_up } else { f64::next_down };
                (0..n.unsigned_abs()).fold(x, |x, _| next(x))
            };
            let ulp = |x: f64| x.abs().next_up() - x.abs();
            let kf = k as f64;
            let offset = t_ulps as f64 * 2f64.powi(spread);
            let near = |r0: f64, inc: f64, x: f64| x + offset * ulp(r0.abs() + kf * inc);
            let inc = mantissa * [1e-310, 1e-300, 1e-150, 1e-3, 1.0, 1e3, 1e6, 1e9][magnitude];
            let (r0, inc, threshold) = match shape {
                // The chain ends near zero, the threshold near its end.
                0 => {
                    let r0 = step(kf * inc, r0_ulps);
                    (r0, inc, near(r0, inc, subtract_chain(r0, inc, k)))
                }
                // The threshold near the closed form instead.
                1 => {
                    let r0 = step(kf * inc, r0_ulps);
                    (r0, inc, near(r0, inc, r0 - kf * inc))
                }
                // The solver's threshold, the chain landing near it.
                2 => {
                    let (cap, threshold) = (inc, 1e-9 * inc);
                    let inc = step((cap - threshold - offset * ulp(cap)) / kf, r0_ulps);
                    (cap, inc, threshold)
                }
                // A zero increment: the chain is `r0` itself.
                3 => (inc, 0.0, near(inc, 0.0, inc)),
                // An increment larger than `r0`: the chain goes negative.
                4 => {
                    let r0 = inc / 3.0;
                    (r0, inc, near(r0, inc, subtract_chain(r0, inc, k)))
                }
                // Subnormal increments, from a subnormal or a tiny normal
                // residual.
                _ => {
                    let inc = f64::from_bits(k as u64 * r0_ulps.unsigned_abs());
                    let r0 = if magnitude % 2 == 0 {
                        f64::from_bits(mantissa.to_bits() >> 40)
                    } else {
                        inc * 1e300
                    };
                    (r0, inc, near(r0, inc, subtract_chain(r0, inc, k)))
                }
            };
            let chain = subtract_chain(r0, inc, k);
            if let Some(saturated) = saturation_decided(r0, inc, k, threshold) {
                prop_assert_eq!(
                    saturated,
                    chain <= threshold,
                    "r0={:e} inc={:e} k={} threshold={:e} chain={:e}",
                    r0, inc, k, threshold, chain
                );
            }
        }
    }
}
