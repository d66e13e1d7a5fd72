//! `des_contended` and `des_lanes`: named DES questions answered directly
//! through `SimRequest::run`, a few passes each.
//!
//! * `des_contended` (`parallel_workers: 0`): questions whose host time
//!   goes to `pcie::flow` max-min solves over large shared domains. An
//!   allocator optimization shows here; the serve tier does no work.
//! * `des_lanes` (`parallel_workers: nproc`): the bench_sim lane scenario,
//!   a lane-partitioned DLRM server and a 32-server cluster. Allocator
//!   domains are tiny; the event loop, scheduler and `sim::par` window
//!   sync dominate.
//!
//! Every outcome must match the FNV-1a digest pinned in `expected.json`
//! for its question, in every pass.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trainbox_core::arch::ServerKind;
use trainbox_core::faults::FaultPlan;
use trainbox_core::pipeline::{fault_domain, intra_server_run_stats, SimConfig};
use trainbox_core::request::{SimError, SimMode, SimOutcome, SimRequest, SimResponse};
use trainbox_core::scaleout::ClusterSpec;
use trainbox_nn::Workload;
use trainbox_sim::json::Value;
use trainbox_sim::{par, RingTracer};

use crate::check::outcome_digest;
use crate::spans::Recorder;
use crate::{cpu, stats, Opts, Report};

/// Pinned outcome digests of the named questions.
const EXPECTED: &str = include_str!("../expected.json");

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Set {
    Contended,
    Lanes,
}

struct Question {
    name: &'static str,
    req: SimRequest,
}

fn cfg(chunk_samples: u64, batches: u64, parallel_workers: usize) -> SimConfig {
    SimConfig {
        chunk_samples,
        batches,
        warmup_batches: 1,
        max_events: 50_000_000,
        parallel_workers,
        ..SimConfig::default()
    }
}

fn question(
    name: &'static str,
    kind: ServerKind,
    n: usize,
    w: Workload,
    sim: SimConfig,
) -> Question {
    Question {
        name,
        req: SimRequest::des(kind, n, w, sim),
    }
}

/// The named questions of `set`. Each set's question times are spread
/// apart (README: "Workloads"), and a default run's passes fill about ten
/// seconds on the 2-vCPU calibration host.
fn questions(set: Set, cores: usize) -> Vec<Question> {
    match set {
        Set::Contended => {
            let mut storm = question(
                "trainbox_storm_16",
                ServerKind::TrainBox,
                16,
                Workload::resnet50(),
                cfg(256, 2, 0),
            );
            // bench_sim's storm recipe: seed 0x5eed_0b5e, sixteen faults
            // over the run's horizon (here estimated analytically).
            storm.req.faults = Some(seeded_plan(&storm.req, 0x5eed_0b5e, 16.0));
            vec![
                question(
                    "baseline_dlrm_8",
                    ServerKind::Baseline,
                    8,
                    Workload::recsys(),
                    cfg(96, 2, 0),
                ),
                question(
                    "trainbox_resnet50_16",
                    ServerKind::TrainBox,
                    16,
                    Workload::resnet50(),
                    cfg(64, 2, 0),
                ),
                question(
                    "trainbox_rnns_16",
                    ServerKind::TrainBox,
                    16,
                    Workload::rnn_s(),
                    cfg(64, 2, 0),
                ),
                question(
                    "baseline_resnet50_16",
                    ServerKind::Baseline,
                    16,
                    Workload::resnet50(),
                    cfg(64, 2, 0),
                ),
                question(
                    "trainbox_dlrm_16",
                    ServerKind::TrainBox,
                    16,
                    Workload::recsys(),
                    cfg(512, 2, 0),
                ),
                question(
                    "baseline_llm7b_64",
                    ServerKind::Baseline,
                    64,
                    Workload::llm(),
                    cfg(128, 2, 0),
                ),
                storm,
            ]
        }
        Set::Lanes => {
            let mut lanes = question(
                "nopool_resnet50_256",
                ServerKind::TrainBoxNoPool,
                256,
                Workload::resnet50(),
                cfg(32, 2, cores),
            );
            lanes.req.server.batch_size = Some(16_384);
            let mut cluster = question(
                "cluster_32x8",
                ServerKind::TrainBoxNoPool,
                8,
                Workload::inception_v4(),
                cfg(16, 2, cores),
            );
            cluster.req.server.batch_size = Some(1024);
            cluster.req.cluster = Some(ClusterSpec::rack_default(32));
            vec![
                lanes,
                question(
                    "nopool_dlrm_64",
                    ServerKind::TrainBoxNoPool,
                    64,
                    Workload::recsys(),
                    cfg(128, 2, cores),
                ),
                cluster,
            ]
        }
    }
}

/// A seeded storm of `faults` faults over `req`'s simulated horizon,
/// estimated with the analytic model.
pub fn seeded_plan(req: &SimRequest, seed: u64, faults: f64) -> FaultPlan {
    let server = req.build_server().expect("benchmark questions build");
    let SimMode::Des(cfg) = req.sim else {
        unreachable!("only DES questions carry faults")
    };
    let analytic = SimRequest {
        sim: SimMode::Analytic,
        faults: None,
        deadline_ms: None,
        ..req.clone()
    };
    let sps = analytic
        .run()
        .expect("the analytic twin answers")
        .outcome
        .samples_per_sec();
    let batch = req
        .server
        .batch_size
        .unwrap_or(req.workload.workload().batch_size);
    let horizon = cfg.batches as f64 * (batch * req.server.n_accels as u64) as f64 / sps;
    let mut domain = fault_domain(&server);
    domain.horizon_secs = horizon;
    FaultPlan::seeded(seed, faults / horizon, &domain)
}

/// Share of the run's seconds spent on timed passes; a pass in progress
/// when it runs out is finished.
const MEASURED_SHARE: f64 = 0.75;
/// Timed passes however slow the host.
const MIN_PASSES: usize = 3;

pub struct Des {
    questions: Vec<Question>,
    expected: Vec<Option<String>>,
}

impl Des {
    pub fn setup(set: Set, opts: &Opts) -> Des {
        let questions = questions(set, opts.cores);
        let pinned = trainbox_sim::json::parse(EXPECTED).expect("expected.json is JSON");
        let expected = questions
            .iter()
            .map(|q| {
                pinned
                    .get(q.name)
                    .and_then(Value::as_str)
                    .map(str::to_string)
            })
            .collect();
        Des {
            questions,
            expected,
        }
    }

    /// One untimed pass: the first runs in a process pay for growing the
    /// heap, which a long-running asker pays once.
    fn warm_up(&self, report: &mut Report) {
        for i in 0..self.questions.len() {
            self.account(i, self.questions[i].req.run(), report);
        }
    }

    fn account(&self, i: usize, answer: Result<SimResponse, SimError>, report: &mut Report) {
        report.attempted += 1;
        match answer {
            Ok(resp) => self.check(i, &resp.outcome, report),
            Err(e) => {
                report.failed += 1;
                eprintln!("{}: {e}", self.questions[i].name);
            }
        }
    }

    /// Check one answer's digest against the pinned one.
    fn check(&self, i: usize, outcome: &SimOutcome, report: &mut Report) {
        let got = outcome_digest(outcome);
        let q = &self.questions[i];
        match &self.expected[i] {
            Some(want) if *want == got => {}
            Some(want) => report
                .gate
                .fail(format!("{}: outcome digest {got}, pinned {want}", q.name)),
            None => report.gate.fail(format!(
                "{}: no digest pinned in expected.json (got {got})",
                q.name
            )),
        }
    }
}

impl crate::Workload for Des {
    fn measure(&mut self, opts: &Opts, report: &mut Report) {
        self.warm_up(report);
        let until = Instant::now() + Duration::from_secs_f64(opts.secs(MEASURED_SHARE));
        let min_passes = if opts.smoke { 1 } else { MIN_PASSES };
        let mut passes = 0;
        let mut latencies = Vec::new();
        let mut op_cpu = vec![Vec::new(); self.questions.len()];
        let mut jobs = Vec::new();
        let mut order: Vec<usize> = (0..self.questions.len()).collect();
        let mut rng = StdRng::seed_from_u64(opts.seed);
        while passes < min_passes || Instant::now() < until {
            passes += 1;
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut answers = Vec::with_capacity(order.len());
            let (mut pass_cpu, pass) = (0.0, Instant::now());
            for &i in &order {
                report.tick();
                // Process CPU time: `des_lanes` runs on worker threads.
                let (cpu0, t0) = (cpu::process(), Instant::now());
                answers.push((i, self.questions[i].req.run()));
                latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                let cpu = cpu::process() - cpu0;
                op_cpu[i].push(cpu * 1e3);
                pass_cpu += cpu;
            }
            jobs.push((pass_cpu, pass.elapsed().as_secs_f64()));
            for (i, answer) in answers {
                self.account(i, answer, report);
            }
        }
        report.fix("passes", passes as f64);
        report.fix("questions", self.questions.len() as f64);
        let tail = stats::highest_tail(latencies.len());
        report.latency(&[latencies], tail);
        // Questions differ in size by up to 100×: the geometric mean of their
        // medians weighs each alike, where a pass is dominated by the largest.
        let medians: Vec<f64> = op_cpu.iter().map(|q| stats::median(q)).collect();
        report.ops(stats::geomean(&medians), passes * medians.len());
        report.job(&jobs);
    }

    fn trace(&mut self, _opts: &Opts, report: &mut Report, rec: &mut Recorder) {
        self.warm_up(report);
        let mut tally = Tally::default();
        let mut par = ParTally::default();
        for (i, q) in self.questions.iter().enumerate() {
            let answer = rec.time("des.run", i as u64, None, || q.req.run());
            let wall = rec.last_ns();
            if let Ok(resp) = &answer {
                report.set(&format!("des.run_ms.{}", q.name), wall as f64 / 1e6);
                tally.add(&resp.outcome, wall);
                tally.overhead(&q.req, wall);
                par.add(&q.req, &resp.outcome);
            }
            self.account(i, answer, report);
        }
        tally.report(report);
        par.report(report);
    }

    fn finish(self: Box<Self>) {}
}

/// DES work counters and host time summed over traced runs.
#[derive(Debug, Default)]
pub struct Tally {
    events: u64,
    recomputes: u64,
    wall_ns: u64,
    /// Untraced and ring-traced wall time of the same runs.
    plain_ns: u64,
    traced_ns: u64,
}

impl Tally {
    pub fn add(&mut self, outcome: &SimOutcome, wall_ns: u64) {
        let (events, recomputes) = match outcome {
            SimOutcome::Des(r) => (r.events, r.recomputes),
            SimOutcome::Cluster(r) => (r.events, r.recomputes),
            _ => return,
        };
        self.events += events;
        self.recomputes += recomputes;
        self.wall_ns += wall_ns;
    }

    /// Rerun `req` with the ring tracer attached; `plain_ns` is the wall
    /// time of its untraced run.
    pub fn overhead(&mut self, req: &SimRequest, plain_ns: u64) {
        let t0 = Instant::now();
        let traced = if req.cluster.is_some() {
            SimRequest {
                trace: true,
                ..req.clone()
            }
            .run()
            .map(drop)
        } else {
            req.run_des_with_tracer(RingTracer::new(RingTracer::DEFAULT_CAPACITY))
                .map(drop)
        };
        if traced.is_ok() {
            self.traced_ns += t0.elapsed().as_nanos() as u64;
            self.plain_ns += plain_ns;
        }
    }

    pub fn report(&self, report: &mut Report) {
        let ratio = |a: u64, b: u64| stats::ratio(a as f64, b as f64);
        report.set("des.events", self.events as f64);
        report.set("des.recomputes", self.recomputes as f64);
        report.set("des.ns_per_event", ratio(self.wall_ns, self.events));
        report.set(
            "des.us_per_recompute",
            ratio(self.wall_ns, self.recomputes) / 1e3,
        );
        report.set("des.trace_overhead", ratio(self.traced_ns, self.plain_ns));
    }
}

/// Partition counters of the parallel runners, summed over questions.
#[derive(Debug, Default)]
struct ParTally {
    windows: u64,
    imbalance: f64,
    events: u64,
    /// Σ events / work-span bound: the critical path at four workers.
    span: f64,
}

impl ParTally {
    fn note(&mut self, windows: u64, imbalance: f64, events: u64, work_span_4: f64) {
        self.windows += windows;
        self.imbalance = self.imbalance.max(imbalance);
        self.events += events;
        self.span += events as f64 / work_span_4;
    }

    fn add(&mut self, req: &SimRequest, outcome: &SimOutcome) {
        if let SimOutcome::Cluster(r) = outcome {
            self.note(r.windows, r.imbalance, r.events, r.work_span_speedup_4);
            return;
        }
        let SimMode::Des(cfg) = req.sim else { return };
        let server = req.build_server().expect("named questions build");
        let plan = req.faults.clone().unwrap_or_default();
        // Lane-eligible servers run partitioned; others have no windows.
        if let Some((_, stats)) =
            intra_server_run_stats(&server, req.workload.workload(), &cfg, &plan)
        {
            self.note(
                stats.windows,
                par::imbalance(&stats.lp_events),
                stats.total_events(),
                par::work_span_speedup(&stats.window_events, 4),
            );
        }
    }

    fn report(&self, report: &mut Report) {
        report.set("par.windows", self.windows as f64);
        report.set("par.imbalance", self.imbalance);
        report.set(
            "par.work_span_4",
            stats::ratio(self.events as f64, self.span),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_question_has_a_pinned_digest() {
        let pinned = trainbox_sim::json::parse(EXPECTED).unwrap();
        for set in [Set::Contended, Set::Lanes] {
            for q in questions(set, 2) {
                assert!(
                    pinned.get(q.name).and_then(Value::as_str).is_some(),
                    "{}",
                    q.name
                );
                assert!(crate::PER_LAYER
                    .iter()
                    .any(|(m, _)| *m == format!("des.run_ms.{}", q.name)));
            }
        }
    }
}
