//! The partitioned DES: one barrier runner for intra-server lanes and
//! cluster servers.
//!
//! Both partitions cut a run along the gradient synchronization, the only
//! point where their parts interact. Each part is one logical process (a
//! private engine over a [`PipelineModel`] in a [`BarrierMode`]) that runs
//! until it parks at the barrier; `sim::par::run_windows` then releases
//! every part at `max(arrivals) + hold`:
//!
//! * **Lanes** (`crate::intraserver`) — half a train box each. A lane parks
//!   before its sync starts, because the ring spans every lane; `hold` is
//!   the full-ring all-reduce time, so the release is exactly the solo
//!   path's `SyncDone` instant.
//! * **Cluster servers** — one full server each. A server runs its local
//!   ring sync, then parks; `hold` is the cross-server phase
//!   ([`ClusterSpec::cross_sync_secs`]).
//!
//! Determinism discipline is inherited wholesale from `sim::par`: park
//! times are folded and releases applied in LP-index order at every barrier,
//! and per-LP trace streams merge in LP-index order, so `parallel_workers: 0`
//! is byte-identical to any worker count by construction (pinned by
//! `crates/core/tests/parallel_equivalence.rs`).

use std::time::Instant;

use crate::arch::Server;
use crate::faults::{FaultPlan, FaultStats};
use crate::intraserver::{LanePartition, ACCELS_PER_LANE};
use crate::pipeline::{
    check_window, steady_state, BarrierMode, DesFailure, Ev, PipelineModel, SimConfig, SimResult,
};
use crate::scaleout::{ClusterResult, ClusterSpec, CLUSTER_TRACK_STRIDE};
use trainbox_nn::Workload;
use trainbox_sim::par::{self, RunStats};
use trainbox_sim::{Engine, SimError, SimTime, Tracer};

/// Simulate one server with its pipeline partitioned into lanes. Called
/// for every eligible `(server, plan)`; `cfg.parallel_workers` only selects
/// how many threads advance the lanes.
///
/// # Errors
///
/// A [`DesFailure`] exactly like the single-engine path's.
pub(crate) fn simulate_lanes<T: Tracer + Send>(
    server: &Server,
    workload: &Workload,
    cfg: &SimConfig,
    plan: &FaultPlan,
    part: &LanePartition,
    mut tracer: T,
    deadline: Option<Instant>,
) -> Result<(SimResult, T, RunStats), DesFailure> {
    let models = lane_models(server, workload, cfg, plan, part, &tracer);
    // The model's own `t_sync`: releases are bit-identical to the solo
    // path's SyncDone times. Lane mode excludes the dropouts that re-form
    // the ring, so it holds for the whole run.
    let hold = models[0].t_sync();
    let merge_faults = |lanes| part.merge_fault_stats(plan, lanes);
    let run = run(models, hold, cfg, deadline, &mut tracer, merge_faults)?;
    let rc_bytes = server
        .topology()
        .rc_links()
        .iter()
        .map(|l| run.link_bytes[l.index()])
        .sum();
    let result = SimResult {
        samples_per_sec: run.samples_per_sec,
        batch_done_at: run.batch_done_at,
        events: run.stats.total_events(),
        recomputes: run.recomputes,
        link_bytes: run.link_bytes,
        rc_bytes,
        faults: run.faults,
        tenancy: None,
    };
    Ok((result, tracer, run.stats))
}

/// One lane-mode model per lane of `part`, each with its lane's share of
/// `plan` and a fork of `tracer`.
fn lane_models<T: Tracer>(
    server: &Server,
    workload: &Workload,
    cfg: &SimConfig,
    plan: &FaultPlan,
    part: &LanePartition,
    tracer: &T,
) -> Vec<PipelineModel<T>> {
    (0..part.lanes)
        .map(|l| {
            let lane_plan = part.plan_for_lane(plan, l);
            let mut model =
                PipelineModel::new(server, workload, cfg, &lane_plan, tracer.fork());
            model.set_barrier(BarrierMode::Lane(l * ACCELS_PER_LANE..(l + 1) * ACCELS_PER_LANE));
            model
        })
        .collect()
}

/// Simulate a cluster of `cluster.servers` identical `server`s at full DES
/// fidelity, one logical process per server.
///
/// The fault `plan` replays on **server 0 only** — a fault storm strikes
/// specific hardware, not every rack identically — which also makes the
/// load imbalance observable.
///
/// # Errors
///
/// A [`DesFailure`] exactly like the solo path's: `DeadlineExceeded` when
/// the shared wall-clock deadline expires (no panic, no deadlock — the
/// window barrier is the only synchronization point), `Stalled` when a
/// server exhausts the event budget.
///
/// # Panics
///
/// Under the conditions of [`crate::pipeline::try_simulate_traced_deadline`]
/// (invalid config or fault plan), or if `cluster` fails
/// [`ClusterSpec::validate`].
pub(crate) fn simulate_cluster<T: Tracer + Send>(
    server: &Server,
    workload: &Workload,
    cfg: &SimConfig,
    plan: &FaultPlan,
    cluster: &ClusterSpec,
    mut tracer: T,
    deadline: Option<Instant>,
) -> Result<(ClusterResult, T), DesFailure> {
    if let Err(e) = cluster.validate() {
        panic!("invalid cluster spec: {e}");
    }
    let cross_secs = cluster.cross_sync_secs(workload.model_bytes());
    let empty_plan = FaultPlan::empty();
    let models = (0..cluster.servers)
        .map(|i| {
            let lp_plan = if i == 0 { plan } else { &empty_plan };
            let mut model = PipelineModel::new(server, workload, cfg, lp_plan, tracer.fork());
            model.set_barrier(BarrierMode::Cluster);
            model
        })
        .collect();
    let hold = SimTime::from_secs_f64(cross_secs);
    let run = run(models, hold, cfg, deadline, &mut tracer, merge_fault_stats)?;
    let result = ClusterResult {
        samples_per_sec: run.samples_per_sec,
        batch_done_at: run.batch_done_at,
        events: run.stats.total_events(),
        recomputes: run.recomputes,
        windows: run.stats.windows,
        cross_sync_secs: cross_secs,
        servers: cluster.servers,
        imbalance: par::imbalance(&run.stats.lp_events),
        work_span_speedup_4: par::work_span_speedup(&run.stats.window_events, 4),
        server_events: run.stats.lp_events,
        faults: run.faults,
    };
    Ok((result, tracer))
}

/// A finished barrier run, merged over its logical processes.
struct BarrierRun {
    /// The barrier's release of every generation.
    batch_done_at: Vec<SimTime>,
    /// Steady-state throughput over the measured window, all LPs.
    samples_per_sec: f64,
    /// Merged fault statistics, closed by [`steady_state`].
    faults: FaultStats,
    /// Max-min recomputations across every LP's flow simulators.
    recomputes: u64,
    /// Per-link bytes summed elementwise over LPs. Lanes never share a
    /// link, so for them this reproduces the solo path's totals exactly.
    link_bytes: Vec<f64>,
    stats: RunStats,
}

/// Run `models` (each already in its [`BarrierMode`], forked from `tracer`)
/// to completion under the window runner, releasing each generation at
/// `max(arrivals) + hold`, then merge them — fault statistics (LP-index
/// order) through `merge_faults` — and fold their trace streams back into
/// `tracer` in LP-index order.
fn run<T: Tracer + Send>(
    models: Vec<PipelineModel<T>>,
    hold: SimTime,
    cfg: &SimConfig,
    deadline: Option<Instant>,
    tracer: &mut T,
    merge_faults: impl FnOnce(Vec<FaultStats>) -> FaultStats,
) -> Result<BarrierRun, DesFailure> {
    check_window(cfg);
    let mut lps = lp_engines(models, cfg, deadline);
    let (stats, releases) = match par::run_windows(&mut lps, hold, cfg.parallel_workers) {
        Ok(run) => run,
        Err(error) => {
            let events = lps.iter().map(|lp| lp.engine.events_processed()).sum();
            let partial = merge_faults(
                lps.iter().map(|lp| lp.engine.model().fault_stats().clone()).collect(),
            );
            return Err(DesFailure { error, events, partial_faults: partial });
        }
    };
    debug_assert_eq!(releases.len() as u64, cfg.batches, "one release per generation");

    let models: Vec<PipelineModel<T>> =
        lps.into_iter().map(|lp| lp.engine.into_model()).collect();
    // Each LP recorded only its own accelerators; per-generation sums
    // reconstruct the whole partition's counts.
    let batch_samples: Vec<u64> = (0..releases.len())
        .map(|g| models.iter().map(|m| m.batch_samples()[g]).sum())
        .collect();
    let n_accels = models.iter().map(PipelineModel::n_accels).sum();
    let (samples_per_sec, faults) = steady_state(
        cfg,
        &releases,
        &batch_samples,
        n_accels,
        models[0].batch_size(),
        merge_faults(models.iter().map(|m| m.fault_stats().clone()).collect()),
    );
    let mut link_bytes = vec![0.0f64; models[0].link_bytes().len()];
    for m in &models {
        for (slot, b) in link_bytes.iter_mut().zip(m.link_bytes()) {
            *slot += b;
        }
    }
    let recomputes = models.iter().map(PipelineModel::recompute_count).sum();
    tracer.absorb(
        models.into_iter().map(PipelineModel::into_tracer).collect(),
        CLUSTER_TRACK_STRIDE,
    );
    Ok(BarrierRun {
        batch_done_at: releases,
        samples_per_sec,
        faults,
        recomputes,
        link_bytes,
        stats,
    })
}

/// Sum per-LP fault counters and concatenate their downtime in LP order.
pub(crate) fn merge_fault_stats(parts: Vec<FaultStats>) -> FaultStats {
    let mut merged = FaultStats::default();
    for s in parts {
        merged.injected += s.injected;
        merged.retries += s.retries;
        merged.failed_requests += s.failed_requests;
        merged.wasted_samples += s.wasted_samples;
        merged.accels_lost += s.accels_lost;
        merged.preps_lost += s.preps_lost;
        merged.downtime.extend(s.downtime);
    }
    merged
}

/// Each of `models` as a logical process, started at time zero.
fn lp_engines<T: Tracer>(
    models: Vec<PipelineModel<T>>,
    cfg: &SimConfig,
    deadline: Option<Instant>,
) -> Vec<LpEngine<T>> {
    models
        .into_iter()
        .map(|model| {
            let mut engine = Engine::new(model);
            engine.schedule_at(SimTime::ZERO, Ev::Start);
            LpEngine { engine, max_events: cfg.max_events, deadline }
        })
        .collect()
}

/// One barrier-parking partition as a logical process: a private engine,
/// the event budget (each LP may process up to `cfg.max_events` events of
/// its own) and the shared wall-clock deadline.
struct LpEngine<T: Tracer> {
    engine: Engine<PipelineModel<T>>,
    max_events: u64,
    deadline: Option<Instant>,
}

impl<T: Tracer + Send> par::BarrierLp for LpEngine<T> {
    fn advance(&mut self) -> Result<Option<SimTime>, SimError> {
        if self.engine.model().is_done() {
            return Ok(None);
        }
        let budget = self.max_events.saturating_sub(self.engine.events_processed());
        let hit = self.engine.run_while_deadline(budget, self.deadline, |m| {
            m.is_done() || m.at_barrier()
        })?;
        if !hit {
            return Err(SimError::Stalled {
                events: self.engine.events_processed(),
                queued: self.engine.queued(),
            });
        }
        // Identical target batches keep the partitions in generation
        // lockstep: every LP parks, or every LP is done.
        Ok(self.engine.model_mut().take_barrier().then(|| self.engine.now()))
    }

    fn release(&mut self, at: SimTime) {
        self.engine.schedule_at(at, Ev::Release);
    }

    fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ServerConfig, ServerKind};
    use crate::faults::FaultKind;
    use crate::pipeline::try_simulate_traced_deadline;
    use trainbox_sim::NoopTracer;

    fn quick_cfg(workers: usize) -> SimConfig {
        SimConfig {
            chunk_samples: 128,
            batches: 6,
            warmup_batches: 2,
            prefetch_batches: 1,
            max_events: 5_000_000,
            parallel_workers: workers,
        }
    }

    /// `(class_scans, domain_solves)` of the PCIe and the Ethernet flow
    /// plane, summed over `models` run to completion as barrier LPs.
    fn flow_work(models: Vec<PipelineModel<NoopTracer>>, cfg: &SimConfig) -> [(u64, u64); 2] {
        let hold = models[0].t_sync();
        let mut lps = lp_engines(models, cfg, None);
        par::run_windows(&mut lps, hold, 0).expect("the run completes");
        let mut sum = [(0, 0); 2];
        for lp in &lps {
            for (s, (scans, solves)) in sum.iter_mut().zip(lp.engine.model().flow_work()) {
                *s = (s.0 + scans, s.1 + solves);
            }
        }
        sum
    }

    /// The flow simulators' exact work on two shapes: a TrainBox-with-pool
    /// run like a point of the benchmark's `/sweep` (8 accelerators, TF-SR,
    /// 64-sample chunks, 3 batches) and a lane-partitioned run. Walking
    /// idle classes, or re-solving more domains, moves these counts.
    #[test]
    fn flow_work_counters_are_pinned() {
        let cfg = SimConfig {
            chunk_samples: 64,
            batches: 3,
            warmup_batches: 1,
            ..SimConfig::default()
        };
        let empty = FaultPlan::empty();
        let pooled = ServerConfig::new(ServerKind::TrainBox, 8).build();
        let tf_sr = Workload::by_name("TF-SR").expect("a Table-I workload");
        let model = PipelineModel::new(&pooled, &tf_sr, &cfg, &empty, NoopTracer);
        assert_eq!(flow_work(vec![model], &cfg), [(873, 402), (308, 128)]);

        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 16).build();
        let part = LanePartition::of(&server, &empty).expect("16 accelerators make 4 lanes");
        let models = lane_models(&server, &Workload::resnet50(), &cfg, &empty, &part, &NoopTracer);
        assert_eq!(flow_work(models, &cfg), [(23532, 12288), (0, 0)]);
    }

    #[test]
    fn cluster_des_is_worker_count_invariant() {
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 4)
            .batch_size(64)
            .build();
        let w = Workload::rnn_s();
        let spec = ClusterSpec::rack_default(3);
        let plan = FaultPlan::empty()
            .at(1e-4, FaultKind::PrepSlowdown { dev: 0, factor: 0.5, secs: 0.05 })
            .at(2e-4, FaultKind::AccelDropout { acc: 1 });
        let reference = simulate_cluster(
            &server,
            &w,
            &quick_cfg(0),
            &plan,
            &spec,
            NoopTracer,
            None,
        )
        .expect("sequential reference")
        .0;
        for workers in [1usize, 2, 3, 8] {
            let got = simulate_cluster(
                &server,
                &w,
                &quick_cfg(workers),
                &plan,
                &spec,
                NoopTracer,
                None,
            )
            .expect("parallel run")
            .0;
            assert_eq!(got, reference, "workers={workers} diverged");
        }
        assert_eq!(reference.servers, 3);
        assert_eq!(reference.batch_done_at.len(), 6);
        assert_eq!(reference.server_events.len(), 3);
        // The storm replays on server 0 only, so it carries more events.
        assert!(reference.imbalance >= 1.0);
        assert!(reference.faults.injected > 0);
    }

    #[test]
    fn one_server_cluster_matches_the_solo_des() {
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 4)
            .batch_size(64)
            .build();
        let w = Workload::rnn_s();
        let cfg = quick_cfg(2);
        let solo = try_simulate_traced_deadline(
            &server,
            &w,
            &cfg,
            &FaultPlan::empty(),
            NoopTracer,
            None,
        )
        .expect("solo run")
        .0;
        let cluster = simulate_cluster(
            &server,
            &w,
            &cfg,
            &FaultPlan::empty(),
            &ClusterSpec::rack_default(1),
            NoopTracer,
            None,
        )
        .expect("cluster run")
        .0;
        // A 1-server cluster pays no cross-server phase: the barrier releases
        // at the local sync time, so throughput matches the solo engine.
        assert_eq!(cluster.cross_sync_secs, 0.0);
        assert!(
            (cluster.samples_per_sec - solo.samples_per_sec).abs()
                < 1e-9 * solo.samples_per_sec,
            "cluster {} vs solo {}",
            cluster.samples_per_sec,
            solo.samples_per_sec
        );
    }

    #[test]
    fn expired_deadline_fails_cleanly_at_any_worker_count() {
        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 4)
            .batch_size(64)
            .build();
        let w = Workload::rnn_s();
        let expired = Some(Instant::now() - std::time::Duration::from_secs(1));
        for workers in [0usize, 4] {
            let err = simulate_cluster(
                &server,
                &w,
                &quick_cfg(workers),
                &FaultPlan::empty(),
                &ClusterSpec::rack_default(2),
                NoopTracer,
                expired,
            )
            .expect_err("deadline must trip");
            assert!(
                matches!(err.error, SimError::DeadlineExceeded { .. }),
                "workers={workers}: {:?}",
                err.error
            );
        }
    }
}
