//! Intra-server parallel DES: one server's pipeline partitioned into lanes.
//!
//! The cluster scale-out layer (`crate::scaleout`) runs one logical process
//! per *server*; a single-server simulation was therefore still sequential.
//! This module partitions one server's
//! [`PipelineModel`](crate::pipeline::PipelineModel) along the seams the
//! TrainBox topology already draws: a **lane** is half a train box — four
//! accelerators plus the SSD and preparation FPGA nominally assigned to them
//! ([`lane_devices`] maps accelerator `a` to SSD/prep `a / 4`, for the DES
//! and the partition alike). Each lane's refill traffic — the clustered
//! datapath's legs between those devices — rides its own leaf-switch links,
//! so the flow domains are disjoint (checked, not assumed — see
//! [`LanePartition::of`]) and a lane's private [`FlowSim`] computes the same
//! max-min rates the global allocator would, bit for bit.
//!
//! The only cross-lane coupling is the ring synchronization: every
//! accelerator in the server joins one all-reduce per generation, which the
//! barrier runner (`crate::barrier`) replays exactly — the sync starts at
//! `max(lane arrivals)` and completes `t_sync` later. The lanes' value is
//! mostly the smaller per-lane [`FlowSim`], not the threads that advance
//! them. A completion query examines few classes in either engine, since
//! each link domain caches its earliest completion, but
//! [`FlowSim::advance`] drains every live class of the simulator on every
//! event, and a lane's simulator holds one lane's flows, not the server's.
//! At 0 workers on a 2-vCPU host (fastest of twenty alternating runs), the
//! 256-accelerator ResNet-50 server takes 193 ms lane-partitioned against
//! 440 ms through the single engine (about 2.3×), and the 64-accelerator
//! DLRM one 44 ms against 56 ms (1.3×).
//!
//! [`FlowSim`]: trainbox_pcie::flow::FlowSim
//! [`FlowSim::advance`]: trainbox_pcie::flow::FlowSim::advance

use crate::arch::{Server, ServerKind};
use crate::faults::{FaultKind, FaultPlan, FaultStats};
use crate::pipeline::site_node;

/// Accelerators per lane: half a train box (4 accelerators share one SSD
/// and one prep FPGA under [`lane_devices`]).
pub(crate) const ACCELS_PER_LANE: usize = 4;

/// The SSD and prep FPGA a clustered server nominally assigns accelerator
/// `acc`: its lane's, the pair on the accelerator's leaf switch.
pub(crate) fn lane_devices(acc: usize) -> (usize, usize) {
    let lane = acc / ACCELS_PER_LANE;
    (lane, lane)
}

/// A validated lane partition of one server: which lane owns each directed
/// PCIe link, derived from the nominal refill routes.
///
/// Existence of a `LanePartition` *is* the eligibility proof: it is a pure
/// function of `(server, plan)` — never of the worker count, the tracer, or
/// the simulation config — so every entry point takes the same partitioning
/// decision and results stay one canonical answer per request.
pub(crate) struct LanePartition {
    /// Number of lanes (`n_accels / ACCELS_PER_LANE`, at least 2).
    pub(crate) lanes: usize,
    /// `link_owner[i]` = the lane whose nominal legs traverse directed
    /// link `i`, `None` for links no lane touches (e.g. root-complex
    /// uplinks the clustered design never crosses).
    link_owner: Vec<Option<usize>>,
}

impl LanePartition {
    /// Partition `server` into lanes, or `None` when the configuration
    /// cannot be partitioned soundly:
    ///
    /// * Only [`ServerKind::TrainBoxNoPool`] qualifies — the clustered
    ///   design whose refill path is strictly SSD → prep → accelerator
    ///   within one box half. The pooled TrainBox shares a global Ethernet
    ///   star; staged designs funnel everything through host memory.
    /// * Device counts must match the nominal assignment (one SSD and one
    ///   prep per 4 accelerators) and yield at least 2 lanes.
    /// * The lanes' nominal legs must be pairwise link-disjoint —
    ///   verified against the actual topology, so an exotic geometry simply
    ///   falls back to the single-engine path.
    /// * Every fault in `plan` must be lane-local. Prep crashes and
    ///   transients re-dispatch work across the whole prep complement, and
    ///   accelerator dropouts re-form the global ring: any of those makes
    ///   the run ineligible (it falls back, it never loses fidelity).
    pub(crate) fn of(server: &Server, plan: &FaultPlan) -> Option<LanePartition> {
        if server.kind() != ServerKind::TrainBoxNoPool {
            return None;
        }
        let topo = server.topology();
        let n = server.n_accels();
        if !n.is_multiple_of(ACCELS_PER_LANE) {
            return None;
        }
        let lanes = n / ACCELS_PER_LANE;
        if lanes < 2 || topo.ssds.len() != lanes || topo.preps.len() != lanes {
            return None;
        }
        let (pre, post) = server.kind().datapath().legs();
        let mut link_owner: Vec<Option<usize>> = vec![None; topo.topo.link_count()];
        for acc in 0..n {
            let lane = acc / ACCELS_PER_LANE;
            let (ssd, prep) = lane_devices(acc);
            for &(from, to) in pre.iter().chain(post) {
                let from = site_node(topo, from, ssd, prep, acc);
                let to = site_node(topo, to, ssd, prep, acc);
                for link in topo.topo.route(from, to) {
                    match link_owner[link.index()] {
                        Some(owner) if owner != lane => return None, // shared link
                        _ => link_owner[link.index()] = Some(lane),
                    }
                }
            }
        }
        let part = LanePartition { lanes, link_owner };
        if plan.events.iter().any(|ev| part.fault_owner(ev.kind).is_none()) {
            return None;
        }
        Some(part)
    }

    /// The lane that must inject `kind`, or `None` when the fault's effect
    /// crosses lanes (which disqualifies the whole partition).
    fn fault_owner(&self, kind: FaultKind) -> Option<usize> {
        match kind {
            FaultKind::SsdStall { ssd, .. } => (ssd < self.lanes).then_some(ssd),
            FaultKind::PrepSlowdown { dev, .. } => (dev < self.lanes).then_some(dev),
            // A degraded link only reshapes flows that cross it; a link no
            // lane uses still gets injected (once, by lane 0) so the fault
            // statistics match the solo path.
            FaultKind::LinkDegrade { link, .. } => {
                Some(self.link_owner.get(link).copied().flatten().unwrap_or(0))
            }
            FaultKind::PrepCrash { .. }
            | FaultKind::PrepTransient { .. }
            | FaultKind::AccelDropout { .. } => None,
        }
    }

    /// Merge the lanes' fault statistics (lane order) into the single
    /// engine's: counters add up, and downtime is recorded in the order the
    /// single engine injects the faults — the plan's time-sorted order. Each
    /// lane's list is the injected prefix of its own sub-plan in that same
    /// order, so walking the sorted plan and taking the owner lane's next
    /// entry interleaves them exactly (equal-instant faults included).
    pub(crate) fn merge_fault_stats(
        &self,
        plan: &FaultPlan,
        mut lanes: Vec<FaultStats>,
    ) -> FaultStats {
        let mut queues: Vec<_> =
            lanes.iter_mut().map(|s| std::mem::take(&mut s.downtime).into_iter()).collect();
        let mut merged = crate::barrier::merge_fault_stats(lanes);
        merged.downtime = plan
            .sorted_events()
            .iter()
            .filter_map(|ev| queues[self.fault_owner(ev.kind)?].next())
            .collect();
        merged
    }

    /// The sub-plan lane `lane` replays: exactly the events it owns, same
    /// retry policy. Filtering preserves order, and every event lands in
    /// exactly one lane, so the merged fault statistics equal the solo
    /// path's ([`Self::merge_fault_stats`]).
    pub(crate) fn plan_for_lane(&self, plan: &FaultPlan, lane: usize) -> FaultPlan {
        FaultPlan {
            events: plan
                .events
                .iter()
                .copied()
                .filter(|ev| self.fault_owner(ev.kind) == Some(lane))
                .collect(),
            retry: plan.retry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::ServerConfig;
    use crate::faults::FaultEvent;
    use crate::pipeline::{simulate_solo, try_simulate_traced_deadline, SimConfig};
    use trainbox_nn::Workload;
    use trainbox_sim::NoopTracer;

    fn trainbox_nopool(n: usize) -> Server {
        ServerConfig::new(ServerKind::TrainBoxNoPool, n).build()
    }

    #[test]
    fn eligibility_is_a_pure_function_of_server_and_plan() {
        let empty = FaultPlan::empty();
        let part = LanePartition::of(&trainbox_nopool(16), &empty)
            .expect("16-accel TrainBoxNoPool partitions");
        assert_eq!(part.lanes, 4);

        // One lane is not a partition; the solo engine handles it.
        assert!(LanePartition::of(&trainbox_nopool(4), &empty).is_none());
        // The pooled TrainBox shares a global Ethernet star.
        let pooled = ServerConfig::new(ServerKind::TrainBox, 16).build();
        assert!(LanePartition::of(&pooled, &empty).is_none());
        // Staged designs funnel refill traffic through host memory.
        let base = ServerConfig::new(ServerKind::Baseline, 16).build();
        assert!(LanePartition::of(&base, &empty).is_none());
    }

    #[test]
    fn cross_lane_faults_disqualify_lane_local_ones_do_not() {
        let server = trainbox_nopool(16);
        let local = FaultPlan {
            events: vec![
                FaultEvent { at_secs: 1e-4, kind: FaultKind::SsdStall { ssd: 1, secs: 1e-4 } },
                FaultEvent {
                    at_secs: 2e-4,
                    kind: FaultKind::PrepSlowdown { dev: 2, factor: 0.5, secs: 1e-4 },
                },
                FaultEvent {
                    at_secs: 3e-4,
                    kind: FaultKind::LinkDegrade { link: 0, fraction: 0.5, secs: 1e-4 },
                },
            ],
            retry: Default::default(),
        };
        let part = LanePartition::of(&server, &local).expect("lane-local plan qualifies");
        assert_eq!(part.fault_owner(local.events[0].kind), Some(1));
        assert_eq!(part.fault_owner(local.events[1].kind), Some(2));

        for kind in [
            FaultKind::PrepCrash { dev: 0 },
            FaultKind::AccelDropout { acc: 3 },
            FaultKind::PrepTransient { dev: 1, secs: 1e-4 },
        ] {
            let plan = FaultPlan {
                events: vec![FaultEvent { at_secs: 1e-4, kind }],
                retry: Default::default(),
            };
            assert!(
                LanePartition::of(&server, &plan).is_none(),
                "{} must fall back to the single engine",
                kind.label()
            );
        }
    }

    #[test]
    fn every_fault_lands_in_exactly_one_lane() {
        let server = trainbox_nopool(32);
        let plan = FaultPlan {
            events: (0..8)
                .map(|i| FaultEvent {
                    at_secs: 1e-4 * i as f64,
                    kind: FaultKind::SsdStall { ssd: i % 8, secs: 1e-5 },
                })
                .collect(),
            retry: Default::default(),
        };
        let part = LanePartition::of(&server, &plan).expect("eligible");
        let total: usize =
            (0..part.lanes).map(|l| part.plan_for_lane(&plan, l).events.len()).sum();
        assert_eq!(total, plan.events.len());
    }

    #[test]
    fn lane_releases_are_spaced_by_at_least_the_lookahead() {
        // End-to-end: in a real partitioned run, consecutive generation
        // closes are separated by at least one full-ring sync — the next
        // generation's last arrival cannot precede the previous release.
        let server = trainbox_nopool(8);
        let w = Workload::resnet50();
        let cfg = SimConfig {
            chunk_samples: 128,
            batches: 4,
            warmup_batches: 1,
            max_events: 5_000_000,
            ..SimConfig::default()
        };
        let t_sync = server.ring_model().allreduce_time(w.model_bytes(), 8);
        let (result, _) =
            try_simulate_traced_deadline(&server, &w, &cfg, &FaultPlan::empty(), NoopTracer, None)
                .expect("run completes");
        assert_eq!(result.batch_done_at.len(), 4);
        for pair in result.batch_done_at.windows(2) {
            assert!(
                pair[1] >= pair[0].saturating_add(t_sync),
                "generations must be separated by the ring sync"
            );
        }
    }

    #[test]
    fn lane_run_equals_the_single_engine_except_event_count() {
        // The lane partition is canonical because it changes no answer:
        // every `SimResult` field but `events` (each lane schedules its own
        // barrier and release events) matches the single engine bit for bit,
        // fault-free and under lane-local faults — downtime order included.
        let w = Workload::resnet50();
        for n in [8usize, 16, 64] {
            let server = ServerConfig::new(ServerKind::TrainBoxNoPool, n).batch_size(64).build();
            let cfg = SimConfig {
                chunk_samples: 32,
                batches: 4,
                warmup_batches: 1,
                ..SimConfig::default()
            };
            let lanes = n / ACCELS_PER_LANE;
            let local = FaultPlan {
                events: vec![
                    // Two lanes' faults at one instant, the later lane's
                    // first in the plan, and a lane-0 fault after lane 1's.
                    FaultEvent {
                        at_secs: 1e-3,
                        kind: FaultKind::SsdStall { ssd: lanes - 1, secs: 2e-3 },
                    },
                    FaultEvent { at_secs: 1e-3, kind: FaultKind::SsdStall { ssd: 0, secs: 1e-3 } },
                    FaultEvent {
                        at_secs: 2e-3,
                        kind: FaultKind::PrepSlowdown { dev: 1, factor: 0.5, secs: 5e-3 },
                    },
                    FaultEvent {
                        at_secs: 3e-3,
                        kind: FaultKind::LinkDegrade { link: 0, fraction: 0.5, secs: 1e-3 },
                    },
                ],
                retry: Default::default(),
            };
            for plan in [FaultPlan::empty(), local] {
                assert!(LanePartition::of(&server, &plan).is_some(), "n={n} must partition");
                let (lane, _) =
                    try_simulate_traced_deadline(&server, &w, &cfg, &plan, NoopTracer, None)
                        .expect("lane run");
                let (mut solo, _) = simulate_solo(&server, &w, &cfg, &plan, NoopTracer, None)
                    .expect("single-engine run");
                assert_ne!(solo.events, lane.events, "n={n}: lanes add barrier events");
                solo.events = lane.events;
                assert_eq!(solo, lane, "n={n} faults={}", plan.events.len());
            }
        }
    }
}
