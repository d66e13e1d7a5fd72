//! The DES driver: every run is a barrier run of logical processes.
//!
//! A run is cut into logical processes (LPs), each a private engine over a
//! [`PipelineModel`] in a [`BarrierMode`] that runs until it finishes or
//! parks at the gradient synchronization, the only point where parts of a
//! run interact.
//! `sim::par::run_windows` then releases every part at
//! `max(arrivals) + hold`. [`Partition::of`] picks the cut from
//! `(server, plan, cluster)` alone:
//!
//! * **Solo** — one LP drives every device and never parks: its local ring
//!   sync closes each generation, and `run_windows` advances it inline on
//!   the calling thread in one window.
//! * **Lanes** (`crate::intraserver`) — half a train box each. A lane parks
//!   before its sync starts, because the ring spans every lane; `hold` is
//!   the full-ring all-reduce time, so the release is exactly the instant
//!   the solo LP's sync completes.
//! * **Cluster servers** — one full server each. A server runs its local
//!   ring sync, then parks; `hold` is the cross-server phase
//!   ([`ClusterSpec::cross_sync_secs`]).
//!
//! Every result closes from the models' own `batch_done_at`: a model
//! records the instant it closes each generation, which in a barrier mode
//! is the runner's release. Determinism discipline is inherited wholesale
//! from `sim::par`: park times are folded and releases applied in LP-index
//! order at every barrier, and per-LP trace streams merge in LP-index order,
//! so `parallel_workers: 0` is byte-identical to any worker count by
//! construction (pinned by `crates/core/tests/parallel_equivalence.rs`).

use std::time::Instant;

use crate::arch::Server;
use crate::faults::{FaultPlan, FaultStats};
use crate::intraserver::{LanePartition, ACCELS_PER_LANE};
use crate::pipeline::{
    check_window, steady_state, BarrierMode, DesFailure, Ev, PipelineModel, SimConfig, SimResult,
    TenancyStats,
};
use crate::request::SimOutcome;
use crate::scaleout::{ClusterResult, ClusterSpec, CLUSTER_TRACK_STRIDE};
use trainbox_nn::Workload;
use trainbox_sim::par::{self, RunStats};
use trainbox_sim::{Engine, SimError, SimTime, Tracer};

/// How a DES run is cut into logical processes.
pub(crate) enum Partition<'a> {
    /// One LP drives every device.
    Solo,
    /// One LP per lane of a lane-partitioned server.
    Lanes(LanePartition),
    /// One LP per server of a cluster. The fault plan replays on
    /// **server 0 only** — a fault storm strikes specific hardware, not
    /// every rack identically — which also makes the load imbalance
    /// observable.
    Cluster(&'a ClusterSpec),
}

impl<'a> Partition<'a> {
    /// The canonical partition of a request: its cluster when it names
    /// one, else lanes when `(server, plan)` is eligible
    /// ([`LanePartition::of`]), else one LP. It is part of the canonical
    /// result; `cfg.parallel_workers` only picks how many threads advance
    /// the LPs.
    pub(crate) fn of(
        server: &Server,
        plan: &FaultPlan,
        cluster: Option<&'a ClusterSpec>,
    ) -> Partition<'a> {
        match cluster {
            Some(spec) => Partition::Cluster(spec),
            None => LanePartition::of(server, plan).map_or(Partition::Solo, Partition::Lanes),
        }
    }
}

/// Run the DES cut by `partition`, with a caller-supplied [`Tracer`]
/// attached, under an optional wall-clock deadline. The crate's one DES
/// entry point: [`crate::request::SimRequest`] validates its input, picks
/// the partition with [`Partition::of`] and maps failures to typed request
/// errors on top of it. Returns a [`SimOutcome::Des`] for one server and a
/// [`SimOutcome::Cluster`] for a cluster, the tracer, and the window
/// runner's load accounting.
///
/// The tracer observes the simulation — span events for every pipeline
/// stage (SSD reads, transfers, preparation, compute), collective
/// synchronization steps, fault injections, and flow-rate counters — but
/// never affects it: the traced run produces a result identical to the
/// untraced one. With [`trainbox_sim::NoopTracer`] every hook
/// monomorphizes away. The solo LP records into the caller's tracer
/// itself, so its stream keeps the order it was recorded in; lanes and
/// servers record into forks that are absorbed back in LP-index order.
///
/// `plan`'s faults replay deterministically (an empty plan is the
/// fault-free run, with all-zero [`FaultStats`]):
///
/// * crashed prep devices have their queued and future work re-dispatched
///   max-min fairly (greedy water-filling) over the survivors;
/// * dropped accelerators leave the barrier, and the synchronization ring
///   re-forms over the survivors at the smaller ring's latency;
/// * degraded links reshape every transfer's max-min fair rate until they
///   recover;
/// * transiently failing prep requests retry with exponential backoff and,
///   after `plan.retry.max_retries`, re-read their chunk from the SSD.
///
/// With `deadline: None` the engines never read the clock. With a
/// deadline, each checks the wall clock cooperatively (every
/// [`Engine::DEADLINE_CHECK_INTERVAL`] events for a `PipelineModel`) and
/// the run is cancelled once it expires; failures carry the partial
/// [`FaultStats`] so callers can surface what the run had already observed.
///
/// # Errors
///
/// A [`DesFailure`] wrapping [`SimError::DeadlineExceeded`] when the
/// deadline expires (no panic, no deadlock — the window barrier is the only
/// synchronization point), [`SimError::Stalled`] if an LP's event queue
/// drains or it exceeds `cfg.max_events` (a per-LP budget) before the
/// requested batches complete, or [`SimError::TimeOverflow`] if simulated
/// time overflows [`SimTime::MAX`].
///
/// # Panics
///
/// Panics on invalid input — `cfg.warmup_batches == 0`,
/// `cfg.batches <= cfg.warmup_batches`, `cfg.chunk_samples == 0`, an
/// invalid fault plan (see [`FaultPlan::validate`]) or a cluster that fails
/// [`ClusterSpec::validate`] — and if every prep device or accelerator is
/// lost to faults.
pub(crate) fn simulate<T: Tracer + Send>(
    server: &Server,
    workload: &Workload,
    cfg: &SimConfig,
    plan: &FaultPlan,
    partition: Partition<'_>,
    tracer: T,
    deadline: Option<Instant>,
) -> Result<(SimOutcome, T, RunStats), DesFailure> {
    check_window(cfg);
    let (models, hold, parent) = partition_models(&partition, server, workload, cfg, plan, tracer);
    let merge_faults = |parts: Vec<FaultStats>| match &partition {
        Partition::Lanes(part) => part.merge_fault_stats(plan, parts),
        Partition::Solo | Partition::Cluster(_) => merge_fault_stats(parts),
    };
    let mut lps = lp_engines(models, cfg, deadline);
    let stats = par::run_windows(&mut lps, hold, cfg.parallel_workers).map_err(|error| {
        DesFailure {
            error,
            events: lps.iter().map(|lp| lp.engine.events_processed()).sum(),
            partial_faults: merge_faults(
                lps.iter().map(|lp| lp.engine.model().fault_stats().clone()).collect(),
            ),
        }
    })?;

    let models: Vec<PipelineModel<T>> =
        lps.into_iter().map(|lp| lp.engine.into_model()).collect();
    // Every LP closed each generation at the same instant: the release, or
    // the solo LP's own sync.
    let batch_done_at = models[0].batch_done_at().to_vec();
    // Each LP recorded only its own accelerators; per-generation sums
    // reconstruct the whole partition's counts.
    let batch_samples: Vec<u64> = (0..batch_done_at.len())
        .map(|g| models.iter().map(|m| m.batch_samples()[g]).sum())
        .collect();
    let n_accels = models.iter().map(PipelineModel::n_accels).sum();
    let (samples_per_sec, faults) = steady_state(
        cfg,
        &batch_done_at,
        &batch_samples,
        n_accels,
        models[0].batch_size(),
        merge_faults(models.iter().map(|m| m.fault_stats().clone()).collect()),
    );
    // Per-link bytes summed elementwise over LPs. Lanes never share a link,
    // so this reproduces the solo LP's totals exactly.
    let mut link_bytes = vec![0.0f64; models[0].link_bytes().len()];
    for m in &models {
        for (slot, b) in link_bytes.iter_mut().zip(m.link_bytes()) {
            *slot += b;
        }
    }
    let recomputes = models.iter().map(PipelineModel::recompute_count).sum();
    let mut tracers = models.into_iter().map(PipelineModel::into_tracer);
    let tracer = match parent {
        Some(mut tracer) => {
            tracer.absorb(tracers.collect(), CLUSTER_TRACK_STRIDE);
            tracer
        }
        None => tracers.next().expect("the solo LP"),
    };
    let events = stats.total_events();
    let outcome = match partition {
        Partition::Cluster(spec) => SimOutcome::Cluster(ClusterResult {
            samples_per_sec,
            batch_done_at,
            events,
            recomputes,
            windows: stats.windows,
            cross_sync_secs: spec.cross_sync_secs(workload.model_bytes()),
            servers: spec.servers,
            imbalance: par::imbalance(&stats.lp_events),
            work_span_speedup_4: par::work_span_speedup(&stats.window_events, 4),
            server_events: stats.lp_events.clone(),
            faults,
        }),
        Partition::Solo | Partition::Lanes(_) => {
            let rc_bytes =
                server.topology().rc_links().iter().map(|l| link_bytes[l.index()]).sum();
            // Tenanted workloads get their interference decomposition.
            let tenancy = (!workload.tenants.is_empty())
                .then(|| TenancyStats::of(server, &workload.tenants, samples_per_sec));
            SimOutcome::Des(SimResult {
                samples_per_sec,
                batch_done_at,
                events,
                recomputes,
                link_bytes,
                rc_bytes,
                faults,
                tenancy,
            })
        }
    };
    Ok((outcome, tracer, stats))
}

/// The LPs' models for `partition`, each already in its [`BarrierMode`],
/// and the barrier's `hold`. The solo model takes `tracer` itself; lanes
/// and servers take forks of it, and `tracer` comes back to absorb them.
fn partition_models<T: Tracer>(
    partition: &Partition<'_>,
    server: &Server,
    workload: &Workload,
    cfg: &SimConfig,
    plan: &FaultPlan,
    tracer: T,
) -> (Vec<PipelineModel<T>>, SimTime, Option<T>) {
    let model = |plan: &FaultPlan, tracer: T, mode: BarrierMode| {
        let mut model = PipelineModel::new(server, workload, cfg, plan, tracer);
        model.set_barrier(mode);
        model
    };
    match partition {
        // Never parks, so no release and no hold.
        Partition::Solo => (vec![model(plan, tracer, BarrierMode::Solo)], SimTime::ZERO, None),
        Partition::Lanes(part) => {
            let models: Vec<_> = (0..part.lanes)
                .map(|l| {
                    let mode = BarrierMode::Lane(l * ACCELS_PER_LANE..(l + 1) * ACCELS_PER_LANE);
                    model(&part.plan_for_lane(plan, l), tracer.fork(), mode)
                })
                .collect();
            // The model's own `t_sync`: releases are bit-identical to the
            // solo LP's sync completions. Lane mode excludes the dropouts
            // that re-form the ring, so it holds for the whole run.
            let hold = models[0].t_sync();
            (models, hold, Some(tracer))
        }
        Partition::Cluster(spec) => {
            if let Err(e) = spec.validate() {
                panic!("invalid cluster spec: {e}");
            }
            let empty = FaultPlan::empty();
            let models = (0..spec.servers)
                .map(|i| {
                    let lp_plan = if i == 0 { plan } else { &empty };
                    model(lp_plan, tracer.fork(), BarrierMode::Cluster)
                })
                .collect();
            let hold = SimTime::from_secs_f64(spec.cross_sync_secs(workload.model_bytes()));
            (models, hold, Some(tracer))
        }
    }
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

/// One partition as a logical process: a private engine, the event budget
/// (each LP may process up to `cfg.max_events` events of its own) and the
/// shared wall-clock deadline. The only code that steps an
/// `Engine<PipelineModel>`.
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

/// One server's DES, partitioned as a request's would be
/// ([`Partition::of`]): the unit tests' direct path to [`simulate`].
#[cfg(test)]
pub(crate) fn simulate_server<T: Tracer + Send>(
    server: &Server,
    workload: &Workload,
    cfg: &SimConfig,
    plan: &FaultPlan,
    tracer: T,
) -> Result<(SimResult, T), DesFailure> {
    let partition = Partition::of(server, plan, None);
    match simulate(server, workload, cfg, plan, partition, tracer, None)? {
        (SimOutcome::Des(result), tracer, _) => Ok((result, tracer)),
        (other, ..) => unreachable!("one server answered {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::{ServerConfig, ServerKind};
    use crate::faults::FaultKind;
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

    /// A cluster DES through [`simulate`].
    fn simulate_cluster<T: Tracer + Send>(
        server: &Server,
        workload: &Workload,
        cfg: &SimConfig,
        plan: &FaultPlan,
        spec: &ClusterSpec,
        tracer: T,
        deadline: Option<Instant>,
    ) -> Result<(ClusterResult, T), DesFailure> {
        let partition = Partition::Cluster(spec);
        match simulate(server, workload, cfg, plan, partition, tracer, deadline)? {
            (SimOutcome::Cluster(result), tracer, _) => Ok((result, tracer)),
            (other, ..) => unreachable!("a cluster answered {other:?}"),
        }
    }

    /// `partition`'s LPs run to completion, untraced.
    fn run_lps(
        partition: &Partition<'_>,
        server: &Server,
        workload: &Workload,
        cfg: &SimConfig,
        plan: &FaultPlan,
    ) -> Vec<LpEngine<NoopTracer>> {
        let (models, hold, _) =
            partition_models(partition, server, workload, cfg, plan, NoopTracer);
        let mut lps = lp_engines(models, cfg, None);
        par::run_windows(&mut lps, hold, 0).expect("the run completes");
        lps
    }

    /// `(class_scans, domain_solves, covered_solves)` of the PCIe and the
    /// Ethernet flow plane, summed over `lps`.
    fn flow_work(lps: &[LpEngine<NoopTracer>]) -> [(u64, u64, u64); 2] {
        let mut sum = [(0, 0, 0); 2];
        for lp in lps {
            for (s, (scans, solves, covered)) in sum.iter_mut().zip(lp.engine.model().flow_work()) {
                *s = (s.0 + scans, s.1 + solves, s.2 + covered);
            }
        }
        sum
    }

    /// The flow simulators' exact work on two shapes: a TrainBox-with-pool
    /// run like a point of the benchmark's `/sweep` (8 accelerators, TF-SR,
    /// 64-sample chunks, 3 batches) and a lane-partitioned run. Walking
    /// idle classes, or re-solving more domains, moves these counts; every
    /// solve of both runs closes by the one-round exit, so a change that
    /// stops it firing moves the third count.
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
        let lps = run_lps(&Partition::Solo, &pooled, &tf_sr, &cfg, &empty);
        assert_eq!(flow_work(&lps), [(873, 402, 402), (308, 128, 128)]);

        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 16).build();
        let part = LanePartition::of(&server, &empty).expect("16 accelerators make 4 lanes");
        let lps = run_lps(&Partition::Lanes(part), &server, &Workload::resnet50(), &cfg, &empty);
        assert_eq!(flow_work(&lps), [(23532, 12288, 12288), (0, 0, 0)]);
    }

    /// A barrier LP that records every release the runner hands it.
    struct Recorded(LpEngine<NoopTracer>, Vec<SimTime>);

    impl par::BarrierLp for Recorded {
        fn advance(&mut self) -> Result<Option<SimTime>, SimError> {
            self.0.advance()
        }

        fn release(&mut self, at: SimTime) {
            self.1.push(at);
            self.0.release(at);
        }

        fn events_processed(&self) -> u64 {
            self.0.events_processed()
        }
    }

    /// Results close from the models' own `batch_done_at`, so every LP
    /// must have recorded each generation at exactly the release the runner
    /// handed it; the solo LP is never released and records its own syncs.
    #[test]
    fn every_lp_closes_generations_at_the_release() {
        let cfg = quick_cfg(0);
        let w = Workload::resnet50();
        let lanes = ServerConfig::new(ServerKind::TrainBoxNoPool, 16).batch_size(64).build();
        let node = ServerConfig::new(ServerKind::TrainBoxNoPool, 4).batch_size(64).build();
        let spec = ClusterSpec::rack_default(3);
        let storm = FaultPlan::empty()
            .at(1e-4, FaultKind::PrepSlowdown { dev: 0, factor: 0.5, secs: 0.05 })
            .at(2e-4, FaultKind::AccelDropout { acc: 1 });
        let part = LanePartition::of(&lanes, &FaultPlan::empty()).expect("4 lanes");
        for (partition, server, plan) in [
            (Partition::Solo, &node, &storm),
            (Partition::Lanes(part), &lanes, &FaultPlan::empty()),
            (Partition::Cluster(&spec), &node, &storm),
        ] {
            let (models, hold, _) =
                partition_models(&partition, server, &w, &cfg, plan, NoopTracer);
            let mut lps: Vec<Recorded> = lp_engines(models, &cfg, None)
                .into_iter()
                .map(|lp| Recorded(lp, Vec::new()))
                .collect();
            par::run_windows(&mut lps, hold, 0).expect("the run completes");
            let solo = matches!(partition, Partition::Solo);
            let outcome = simulate(server, &w, &cfg, plan, partition, NoopTracer, None)
                .expect("the run completes")
                .0;
            let closed = match &outcome {
                SimOutcome::Des(r) => &r.batch_done_at,
                SimOutcome::Cluster(r) => &r.batch_done_at,
                other => unreachable!("{other:?}"),
            };
            assert_eq!(closed.len() as u64, cfg.batches);
            for Recorded(lp, releases) in &lps {
                assert_eq!(lp.engine.model().batch_done_at(), closed.as_slice());
                if solo {
                    assert!(releases.is_empty(), "the solo LP never parks");
                } else {
                    assert_eq!(releases, closed);
                }
            }
        }
    }

    /// FNV-1a digests of a traced run's Chrome export and of its serialized
    /// [`trainbox_sim::TraceSummary`].
    fn trace_digests(
        server: &Server,
        workload: &Workload,
        cfg: &SimConfig,
        plan: &FaultPlan,
        cluster: Option<&ClusterSpec>,
    ) -> [u64; 2] {
        use crate::request::canonical_hash_of;
        use trainbox_sim::{chrome_trace_json, RingTracer, TraceSummary};
        let tracer = RingTracer::new(RingTracer::DEFAULT_CAPACITY);
        let partition = Partition::of(server, plan, cluster);
        let (_, tracer, _) = simulate(server, workload, cfg, plan, partition, tracer, None)
            .expect("traced run");
        let dropped = tracer.dropped();
        let records = tracer.into_records();
        let summary = serde_json::to_string(&TraceSummary::from_records(&records, dropped))
            .expect("summary serializes");
        [canonical_hash_of(&chrome_trace_json(&records)), canonical_hash_of(&summary)]
    }

    /// The exact bytes every driver traces. `TraceSummary::from_records`
    /// depends on record order, so these digests pin the order in which a
    /// run hands back its records as well as the records themselves: a
    /// pooled TrainBox on the single engine (both flow planes' rate
    /// counters), a seeded fault storm on the single engine, a
    /// lane-partitioned server, and 1- and 3-server clusters.
    #[test]
    fn traced_answers_are_pinned() {
        let cfg = SimConfig {
            chunk_samples: 64,
            batches: 3,
            warmup_batches: 1,
            ..SimConfig::default()
        };
        let empty = FaultPlan::empty();
        let mut got = Vec::new();

        let pooled = ServerConfig::new(ServerKind::TrainBox, 8).build();
        let tf_sr = Workload::by_name("TF-SR").expect("a Table-I workload");
        got.push(trace_digests(&pooled, &tf_sr, &cfg, &empty, None));

        let server = ServerConfig::new(ServerKind::TrainBoxNoPool, 8).batch_size(256).build();
        let inception = Workload::inception_v4();
        let storm_cfg = quick_cfg(0);
        let probe = simulate_server(&server, &inception, &storm_cfg, &empty, NoopTracer)
            .expect("probe run")
            .0;
        let domain = crate::faults::FaultDomain {
            horizon_secs: probe.batch_done_at.last().unwrap().as_secs_f64(),
            ..crate::pipeline::fault_domain(&server)
        };
        let storm = FaultPlan::seeded(7, 6.0 / domain.horizon_secs, &domain);
        assert!(storm.events.len() >= 4);
        assert!(LanePartition::of(&server, &storm).is_none(), "the storm runs on one engine");
        got.push(trace_digests(&server, &inception, &storm_cfg, &storm, None));

        let lanes = ServerConfig::new(ServerKind::TrainBoxNoPool, 16).batch_size(64).build();
        assert!(LanePartition::of(&lanes, &empty).is_some());
        got.push(trace_digests(&lanes, &Workload::resnet50(), &cfg, &empty, None));

        let node = ServerConfig::new(ServerKind::TrainBoxNoPool, 4).batch_size(64).build();
        let plan = FaultPlan::empty()
            .at(1e-4, FaultKind::PrepSlowdown { dev: 0, factor: 0.5, secs: 0.05 })
            .at(2e-4, FaultKind::AccelDropout { acc: 1 });
        for (servers, plan) in [(1, &empty), (3, &plan)] {
            let spec = ClusterSpec::rack_default(servers);
            got.push(trace_digests(&node, &Workload::rnn_s(), &quick_cfg(0), plan, Some(&spec)));
        }

        let pinned = [
            [0xb0e9_2704_2e7f_40e1, 0x527d_9014_96c0_5c85],
            [0x1bf8_7759_ac3f_3123, 0xf2aa_3f19_756e_568b],
            [0x38bd_df0e_95f7_f81a, 0x0856_4bef_95c3_518c],
            [0xda7a_6663_fe74_cd04, 0xb634_218e_0d72_fdb1],
            [0x2b7e_657e_c246_5cbf, 0xfd85_dd24_0ff9_468e],
        ];
        assert_eq!(got, pinned);
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
        let solo = simulate_server(&server, &w, &cfg, &FaultPlan::empty(), NoopTracer)
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
