//! `serve_hot` and `serve_des`: an in-process `trainbox_serve::serve`
//! instance under open-loop `POST /simulate` traffic from this process.
//!
//! * `serve_hot` asks a hot set of 128 questions (96 analytic, 32 small
//!   DES), drawn Zipf(1.1) and respelled on every request (key order, name
//!   case, explicit nulls), plus 2% novel analytic questions. The hot set
//!   fits the 256-entry cache and is warmed during set-up, so the serve
//!   layers (parse, canonicalize and hash, verified cache read, write) do
//!   nearly all the work and the DES does none.
//! * `serve_des` asks cold DES questions with unique batch sizes: mostly
//!   fast ones, some whose time goes to the PCIe allocator, exact repeats
//!   of recent questions (coalesced or served from cache), seeded fault
//!   plans and generous deadlines. Its reference job is a cold 256-point
//!   `POST /sweep`.
//!
//! The traced run replays the measured request stream in-process through
//! the public calls the server's answer path makes, in its order:
//! `RequestParser::feed`, `SimRequest::from_json_str`, `canonical_json` +
//! `canonical_hash_of`, `ShardedLru::get`, `SimRequest::run`,
//! `serde_json::to_string` + `http::response_bytes`, `ShardedLru::insert`.

use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trainbox_core::arch::ServerKind;
use trainbox_core::faults::FaultKind;
use trainbox_core::pipeline::SimConfig;
use trainbox_core::request::{canonical_hash_of, SimMode, SimRequest, SimResponse, SweepRequest};
use trainbox_nn::Workload;
use trainbox_serve::cache::{Lookup, ShardedLru};
use trainbox_serve::http::{self, ParseStatus, RequestParser};
use trainbox_serve::{ServeConfig, ServeHandle};
use trainbox_sim::json::Value;

use crate::check::{self, Gate};
use crate::des::Tally;
use crate::loadgen::{self, Phase, Replies, Reply, Sample, Shot};
use crate::spans::Recorder;
use crate::{cpu, stats, Opts, Report};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    Hot,
    Des,
}

/// Fixed load and size settings of one serve workload. The rates are
/// fractions of the capacity measured on the calibration host and then
/// frozen, so every commit is measured at the same offered load.
struct Plan {
    /// Open-loop rate of the untraced phase of a traced run: the unloaded
    /// latency the layer self-times are subtracted from.
    rate_low: f64,
    /// Open-loop rate of the measured phase: the server's CPU time per
    /// request there is `op_cpu_ms`, beside the wall latencies.
    rate_high: f64,
    /// Share of the run's seconds spent at `rate_high`.
    high_share: f64,
    /// Reference jobs (`job_cpu_s`) per default-length run. The open-loop
    /// phase is cut into as many chunks, one before each job, so both
    /// sample the whole run rather than one stretch of it.
    jobs: usize,
    /// Tail percentile; at least ten samples lie beyond it in every chunk
    /// (`tail_per_chunk`) or in the whole phase.
    tail_pct: f64,
    /// Take the tail in every chunk and report the median, so one host
    /// stall moves one chunk's tail and not the reported one; needs enough
    /// samples per chunk.
    tail_per_chunk: bool,
    /// Requests the traced run replays.
    replay: usize,
}

const HOT: Plan = Plan {
    rate_low: 1500.0,
    rate_high: 4000.0,
    high_share: 0.6,
    jobs: 10,
    tail_pct: 90.0,
    tail_per_chunk: true,
    replay: 4000,
};

const DES: Plan = Plan {
    rate_low: 20.0,
    rate_high: 60.0,
    high_share: 0.6,
    jobs: 8,
    tail_pct: 94.0,
    tail_per_chunk: false,
    replay: 48,
};

const HOT_ANALYTIC: usize = 96;
const HOT_DES: usize = 32;
/// The hot set and its popularity order are the same under every seed:
/// the cost of a request depends mostly on which question it asks, so a
/// seeded hot set would make each seed's run cost differently (by ±10%).
/// The seed draws the stream from it: arrivals, picks, spellings and the
/// novel questions.
const HOT_SET_SEED: u64 = 0x407_5E7;
const ZIPF_S: f64 = 1.1;
const NOVEL_SHARE: f64 = 0.02;
/// Requests in one closed-loop burst, `serve_hot`'s reference job.
const BURST: usize = 3000;

/// `serve_des` request mix, as shares of all requests.
const REPEAT_SHARE: f64 = 0.10;
const ALLOC_SHARE: f64 = 0.05;
/// Shares of the DES questions carrying a fault plan, and a deadline.
const FAULT_SHARE: f64 = 0.10;
const DEADLINE_SHARE: f64 = 0.20;
/// Generous enough never to expire: exercises the deadline'd path.
const DEADLINE_MS: u64 = 20_000;
const SWEEP_POINTS: usize = 256;
/// Sweep points checked against a direct run, per sweep.
const SWEEP_CHECKS: usize = 8;
/// Distinct `serve_des` questions checked against a direct run.
const DES_CHECKS: usize = 32;

pub struct Serve {
    mix: Mix,
    plan: &'static Plan,
    handle: Option<ServeHandle>,
    addr: SocketAddr,
    gen: Generator,
    /// The measured open-loop stream in consecutive chunks, one before each
    /// reference job. Each chunk is drawn on its own, so every chunk asks
    /// the same request mix. Built during set-up so the traced run replays
    /// exactly the requests the measured run sends.
    chunks: Vec<Vec<Shot>>,
}

impl Serve {
    pub fn setup(mix: Mix, opts: &Opts) -> Result<Serve, String> {
        let plan = match mix {
            Mix::Hot => &HOT,
            Mix::Des => &DES,
        };
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: opts.cores,
            loops: 1,
            ..ServeConfig::default()
        };
        let handle = trainbox_serve::serve(cfg).map_err(|e| format!("start server: {e}"))?;
        let addr = handle.addr();
        let mut gen = Generator::new(mix, opts.seed);
        if mix == Mix::Hot {
            // Warm the cache with the hot set, so the measured phases see
            // the steady state of a long-running server.
            for q in 0..gen.hot {
                let body = gen.questions[q].canonical_json();
                let reply = loadgen::exchange(addr, &loadgen::post_bytes("/simulate", &body))?;
                if reply.status != 200 {
                    return Err(format!(
                        "warm-up of hot question {q} answered {}",
                        reply.status
                    ));
                }
            }
        }
        let n = opts.count(plan.jobs, 1);
        let chunk_secs = opts.secs(plan.high_share) / n as f64;
        let chunks = (0..n)
            .map(|j| gen.open_loop(plan.rate_high, chunk_secs, 1000 + j as u64))
            .collect();
        Ok(Serve {
            mix,
            plan,
            handle: Some(handle),
            addr,
            gen,
            chunks,
        })
    }

    fn metrics(&self) -> Result<Value, String> {
        let reply = loadgen::get(self.addr, "/metrics")?;
        trainbox_sim::json::parse(&reply.body).map_err(|e| format!("/metrics is not JSON: {e}"))
    }
}

/// Count a phase's requests and keep its distinct replies for the
/// correctness check.
fn account(phase: Phase, report: &mut Report, seen: &mut Replies) -> Vec<Sample> {
    for s in &phase.samples {
        report.attempted += 1;
        if s.failed() {
            report.failed += 1;
            eprintln!("request {} failed: {:?}", s.shot, s.status);
        }
    }
    for (k, r) in phase.replies {
        seen.entry(k).or_insert(r);
    }
    phase.samples
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Latencies from due time; a refused or failed request counts as over
/// any limit.
fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .map(|s| {
            if s.failed() {
                f64::INFINITY
            } else {
                ms(s.latency)
            }
        })
        .collect()
}

fn p99(values: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(values), 99.0)
}

impl crate::Workload for Serve {
    fn measure(&mut self, opts: &Opts, report: &mut Report) {
        let plan = self.plan;
        report.fix("rate_high_rps", plan.rate_high);
        report.fix("generator_threads", opts.cores as f64);
        let mut seen = Replies::new();
        let mut latencies = Vec::new();
        let mut lags = Vec::new();
        let mut op_cpu = Vec::new();
        let mut jobs = Vec::new();
        for (j, chunk) in self.chunks.iter().enumerate() {
            // The server's CPU time per request; its requests overlap, so
            // per chunk rather than per request.
            report.tick();
            let cpu0 = cpu::process();
            let phase = loadgen::open_loop(self.addr, chunk, opts.cores);
            let server_cpu = cpu::process() - cpu0 - phase.generator_cpu_s;
            op_cpu.push(server_cpu * 1e3 / chunk.len().max(1) as f64);
            let samples = account(phase, report, &mut seen);
            latencies.push(latencies_ms(&samples));
            lags.extend(samples.iter().map(|s| ms(s.lag)));
            report.tick();
            match self.mix {
                // A closed-loop burst: capacity for this traffic.
                Mix::Hot => {
                    let burst = self
                        .gen
                        .burst(if opts.smoke { 200 } else { BURST }, 100 + j as u64);
                    let cpu0 = cpu::process();
                    let (wall, phase) = loadgen::closed_loop(self.addr, &burst, opts.cores);
                    let server_cpu = cpu::process() - cpu0 - phase.generator_cpu_s;
                    account(phase, report, &mut seen);
                    jobs.push((server_cpu, wall.as_secs_f64()));
                    report.fix("burst_requests", burst.len() as f64);
                }
                // A cold sweep, streamed.
                Mix::Des => {
                    let points = if opts.smoke { 16 } else { SWEEP_POINTS };
                    report.attempted += 1;
                    match sweep(
                        self.addr,
                        &self.gen.sweep_body(points, j as u64),
                        &mut report.gate,
                    ) {
                        Some(job) => jobs.push(job),
                        None => report.failed += 1,
                    }
                    report.fix("sweep_points", points as f64);
                }
            }
        }
        if !plan.tail_per_chunk {
            latencies = vec![latencies.concat()];
        }
        report.latency(&latencies, plan.tail_pct);
        report.ops(stats::median(&op_cpu), op_cpu.len());
        report.job(&jobs);
        report.fix("generator_lag_p99_ms", p99(&lags));
        self.verify(&seen, opts, &mut report.gate);
    }

    fn trace(&mut self, opts: &Opts, report: &mut Report, rec: &mut Recorder) {
        let plan = self.plan;
        // Untraced low-rate phase: unloaded latency, generator lag, and the
        // server's own cache and coalescing counters.
        let low = self.gen.open_loop(plan.rate_low, opts.secs(0.35), 2);
        let before = self.metrics();
        let phase = loadgen::open_loop(self.addr, &low, opts.cores);
        let after = self.metrics();
        let mut seen = Replies::new();
        let samples = account(phase, report, &mut seen);
        self.verify(&seen, opts, &mut report.gate);
        report.set(
            "gen.lag_ms.p99",
            p99(&samples.iter().map(|s| ms(s.lag)).collect::<Vec<_>>()),
        );
        match (before, after) {
            (Ok(b), Ok(a)) => {
                let d = |k: &str| {
                    a.get(k).and_then(Value::as_f64).unwrap_or(0.0)
                        - b.get(k).and_then(Value::as_f64).unwrap_or(0.0)
                };
                let lookups = d("cache_hits") + d("cache_misses");
                report.set("cache.hit_ratio", stats::ratio(d("cache_hits"), lookups));
                report.set(
                    "coalesce.share",
                    stats::ratio(d("coalesced_waits"), d("simulate_requests")),
                );
            }
            (Err(e), _) | (_, Err(e)) => report.gate.fail(format!("/metrics: {e}")),
        }

        // Traced replay of the measured stream's first requests, against a
        // cache warmed like the server's.
        let stream = self.chunks.concat();
        let n = stream.len().min(if opts.smoke { 20 } else { plan.replay });
        let cache = ShardedLru::new(ServeConfig::default().cache_capacity, 8);
        for req in &self.gen.questions[..self.gen.hot] {
            let canonical = req.canonical_json();
            let resp = req.run().expect("hot questions answer");
            let body = serde_json::to_string(&resp).expect("response serialization is infallible");
            cache.insert(canonical_hash_of(&canonical), &canonical, Arc::new(body));
        }
        let mut tally = Tally::default();
        let sums = replay(&stream[..n], &cache, rec, &mut tally, &mut report.gate);
        report.attempted += n as u64;
        let layers_us = stats::median(&sums.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>());
        let unloaded_us = stats::median(&latencies_ms(&samples)) * 1e3;
        report.set("serve.residual_us", unloaded_us - layers_us);
        for (metric, span) in [
            ("serve.http.parse_us", "serve.http.parse"),
            ("request.decode_us", "request.decode"),
            ("request.canonical_us", "request.canonical"),
            ("cache.get_us", "cache.get"),
            ("cache.insert_us", "cache.insert"),
            ("response.encode_us", "response.encode"),
            ("analytic.run_us", "analytic.run"),
        ] {
            report.set(metric, rec.mean_self_us(span));
        }
        tally.report(report);
    }

    fn finish(mut self: Box<Self>) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

impl Serve {
    /// Check served answers. All answers to one question must agree, and
    /// must match a direct in-process run of the question as built:
    /// `serve_hot` checks every question answered, `serve_des` a seeded
    /// sample (each check costs a full DES run). A degraded answer must
    /// say so in its body and its `x-degraded` header, and match the
    /// analytic twin.
    fn verify(&self, seen: &Replies, opts: &Opts, gate: &mut Gate) {
        let mut by_question: BTreeMap<usize, Vec<&Reply>> = BTreeMap::new();
        for ((q, _), reply) in seen {
            if reply.status == 200 {
                by_question.entry(*q).or_default().push(reply);
            }
        }
        for (q, replies) in &by_question {
            let mut first: Option<(Value, Value)> = None;
            for reply in replies {
                let Ok(v) = trainbox_sim::json::parse(&reply.body) else {
                    gate.fail(format!("question {q}: served body is not JSON"));
                    continue;
                };
                let degraded = v.get("degraded").and_then(Value::as_bool) == Some(true);
                if degraded != reply.header("x-degraded").is_some() {
                    gate.fail(format!(
                        "question {q}: degraded flag and x-degraded header disagree"
                    ));
                }
                if degraded {
                    continue;
                }
                let key = (
                    v.get("outcome").cloned().unwrap_or(Value::Null),
                    v.get("config_hash").cloned().unwrap_or(Value::Null),
                );
                match &first {
                    None => first = Some(key),
                    Some(f) if *f != key => {
                        gate.fail(format!("question {q}: two answers disagree"))
                    }
                    Some(_) => {}
                }
            }
        }
        let mut targets: Vec<usize> = by_question.keys().copied().collect();
        if self.mix == Mix::Des {
            shuffle(&mut targets, &mut StdRng::seed_from_u64(opts.seed ^ 0xC4EC));
            targets.truncate(if opts.smoke { 4 } else { DES_CHECKS });
        }
        let questions = &self.gen.questions;
        for (&q, want) in targets
            .iter()
            .zip(direct_answers(&targets, questions, opts.cores))
        {
            let want = match want {
                Ok(w) => w,
                Err(e) => {
                    gate.fail(format!("question {q}: direct run failed: {e}"));
                    continue;
                }
            };
            for reply in &by_question[&q] {
                if reply.header("x-degraded").is_some() {
                    gate.check(check::body_matches(
                        &reply.body,
                        &degraded_twin(&questions[q]),
                    ));
                } else {
                    gate.check(check::body_matches(&reply.body, &want));
                }
            }
        }
    }
}

/// Direct in-process answers to `targets`, on `threads` threads.
fn direct_answers(
    targets: &[usize],
    questions: &[SimRequest],
    threads: usize,
) -> Vec<Result<SimResponse, String>> {
    let mut out: Vec<Option<Result<SimResponse, String>>> =
        (0..targets.len()).map(|_| None).collect();
    let chunk = targets.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|s| {
        for (slots, qs) in out.chunks_mut(chunk).zip(targets.chunks(chunk)) {
            s.spawn(move || {
                for (slot, &q) in slots.iter_mut().zip(qs) {
                    *slot = Some(questions[q].run().map_err(|e| e.to_string()));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("every target was answered"))
        .collect()
}

/// The answer a server degrading `req` to the analytic model must give.
fn degraded_twin(req: &SimRequest) -> SimResponse {
    let twin = SimRequest {
        sim: SimMode::Analytic,
        faults: None,
        trace: false,
        deadline_ms: None,
        ..req.clone()
    };
    let mut resp = twin
        .run()
        .expect("the analytic twin of a valid question answers");
    resp.degraded = true;
    resp.config_hash = req.hash_hex();
    resp
}

/// POST one sweep, check its stream, and return the server's CPU seconds
/// and the wall seconds from request to the last chunk; `None` when the
/// sweep was refused or failed. Sampled points are checked against a
/// direct run.
fn sweep(addr: SocketAddr, body: &str, gate: &mut Gate) -> Option<(f64, f64)> {
    let bytes = loadgen::post_bytes("/sweep", body);
    let (cpu0, client0, start) = (cpu::process(), cpu::thread(), Instant::now());
    let raw = loadgen::exchange_raw(addr, &bytes);
    let wall = start.elapsed().as_secs_f64();
    let job = (cpu::process() - cpu0 - (cpu::thread() - client0), wall);
    let reply = match raw.and_then(|r| loadgen::parse_reply(&r)) {
        Ok(r) if r.status == 200 => r,
        Ok(r) => {
            eprintln!("sweep answered {}: {}", r.status, r.body);
            return None;
        }
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return None;
        }
    };
    let points = SweepRequest::from_json_str(body)
        .expect("the benchmark's sweep body parses")
        .expand();
    let text = match loadgen::dechunk(&reply.body) {
        Ok(t) => t,
        Err(e) => {
            gate.fail(format!("sweep stream: {e}"));
            return Some(job);
        }
    };
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() != points.len() + 1 {
        gate.fail(format!(
            "sweep streamed {} lines for {} points",
            lines.len(),
            points.len()
        ));
        return Some(job);
    }
    let summary = trainbox_sim::json::parse(lines[points.len()]).ok();
    let errors = summary
        .as_ref()
        .and_then(|v| v.get("errors"))
        .and_then(Value::as_f64);
    if errors != Some(0.0) {
        gate.fail(format!("sweep summary reports {errors:?} errors"));
    }
    let step = (points.len() / SWEEP_CHECKS).max(1);
    for (i, (line, point)) in lines.iter().zip(&points).enumerate() {
        let Ok(v) = trainbox_sim::json::parse(line) else {
            gate.fail(format!("sweep point {i} is not JSON"));
            continue;
        };
        if v.get("point").and_then(Value::as_f64) != Some(i as f64) {
            gate.fail(format!("sweep line {i} is out of grid order"));
        }
        if i % step == 0 {
            match (v.get("response"), point.request.run()) {
                (Some(resp), Ok(want)) => gate.check(check::served_matches(resp, &want)),
                (None, _) => gate.fail(format!("sweep point {i} carries no response")),
                (_, Err(e)) => gate.fail(format!("sweep point {i}: direct run failed: {e}")),
            }
        }
    }
    Some(job)
}

/// Replay `shots` through the server's answer path, one span per layer
/// call, one trace id per request; returns each request's summed layer
/// self-time in nanoseconds.
fn replay(
    shots: &[Shot],
    cache: &ShardedLru,
    rec: &mut Recorder,
    tally: &mut Tally,
    gate: &mut Gate,
) -> Vec<u64> {
    let first_span = rec.spans().len();
    let mut des_runs = Vec::new();
    for (t, shot) in shots.iter().enumerate() {
        let t = t as u64;
        let root = rec.start("serve.request", t, None);
        let mut parser = RequestParser::new();
        let parsed = rec.time("serve.http.parse", t, Some(root), || {
            parser.feed(&shot.bytes)
        });
        let Ok(ParseStatus::Done(request)) = parsed else {
            gate.fail(format!("replayed request {t} did not parse: {parsed:?}"));
            rec.end(root);
            continue;
        };
        let req = match rec.time("request.decode", t, Some(root), || {
            SimRequest::from_json_str(&request.body)
        }) {
            Ok(r) => r,
            Err(e) => {
                gate.fail(format!("replayed request {t} did not decode: {e}"));
                rec.end(root);
                continue;
            }
        };
        let (canonical, key) = rec.time("request.canonical", t, Some(root), || {
            let c = req.canonical_json();
            let k = canonical_hash_of(&c);
            (c, k)
        });
        let hit = rec.time("cache.get", t, Some(root), || {
            match cache.get(key, &canonical) {
                Lookup::Hit(body) => Some(body),
                _ => None,
            }
        });
        // One encode span per request: the body serialization (a miss
        // only) and the response head. The server inserts into the cache
        // between the two; the order does not change either cost.
        let bytes = match hit {
            Some(body) => rec.time("response.encode", t, Some(root), || {
                http::response_bytes(200, &[("x-cache", "hit")], &body)
            }),
            None => {
                let analytic = matches!(req.sim, SimMode::Analytic);
                let layer = if analytic { "analytic.run" } else { "des.run" };
                let resp = match rec.time(layer, t, Some(root), || req.run()) {
                    Ok(r) => r,
                    Err(e) => {
                        gate.fail(format!("replayed request {t} failed: {e}"));
                        rec.end(root);
                        continue;
                    }
                };
                if !analytic {
                    let wall = rec.last_ns();
                    tally.add(&resp.outcome, wall);
                    des_runs.push((req.clone(), wall));
                }
                let (body, bytes) = rec.time("response.encode", t, Some(root), || {
                    let body = Arc::new(
                        serde_json::to_string(&resp).expect("response serialization is infallible"),
                    );
                    let bytes = http::response_bytes(200, &[("x-cache", "miss")], &body);
                    (body, bytes)
                });
                rec.time("cache.insert", t, Some(root), || {
                    cache.insert(key, &canonical, body)
                });
                bytes
            }
        };
        std::hint::black_box(bytes);
        rec.end(root);
    }
    let self_ns = rec.self_times_ns();
    let mut sums = vec![0u64; shots.len()];
    for (span, ns) in rec.spans()[first_span..].iter().zip(&self_ns[first_span..]) {
        if span.parent.is_some() {
            sums[span.trace as usize] += ns;
        }
    }
    // Outside the replayed requests' spans: the cost of tracing the DES.
    for (req, wall) in &des_runs {
        tally.overhead(req, *wall);
    }
    sums
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// `share` of `n`, rounded.
fn share(n: usize, share: f64) -> usize {
    (n as f64 * share).round() as usize
}

/// `n` flags, `k` of them set, in seeded order.
fn deck(n: usize, k: usize, rng: &mut StdRng) -> Vec<bool> {
    let mut flags: Vec<bool> = (0..n).map(|i| i < k).collect();
    shuffle(&mut flags, rng);
    flags
}

fn pick<T: Clone>(items: &[T], rng: &mut StdRng) -> T {
    items[rng.gen_range(0..items.len())].clone()
}

const ALL_KINDS: [ServerKind; 7] = [
    ServerKind::Baseline,
    ServerKind::AccFpga,
    ServerKind::AccGpu,
    ServerKind::AccFpgaP2p,
    ServerKind::AccFpgaP2pGen4,
    ServerKind::TrainBoxNoPool,
    ServerKind::TrainBox,
];
const ACCELS: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// `serve_des` fast question classes: {TrainBox, TrainBoxNoPool} × {16,
/// 32, 64} accelerators plus Baseline at 16, × four workload families.
const FAST: [(ServerKind, usize, &str); 28] = {
    const DESIGNS: [(ServerKind, usize); 7] = [
        (ServerKind::TrainBox, 16),
        (ServerKind::TrainBox, 32),
        (ServerKind::TrainBox, 64),
        (ServerKind::TrainBoxNoPool, 16),
        (ServerKind::TrainBoxNoPool, 32),
        (ServerKind::TrainBoxNoPool, 64),
        (ServerKind::Baseline, 16),
    ];
    const LOADS: [&str; 4] = ["Inception-v4", "TF-SR", "LLM-7B", "Video-TF"];
    let mut out = [(ServerKind::Baseline, 0, ""); 28];
    let mut i = 0;
    while i < 28 {
        out[i] = (DESIGNS[i / 4].0, DESIGNS[i / 4].1, LOADS[i % 4]);
        i += 1;
    }
    out
};

/// `serve_des` allocator-bound question classes, all at 16 accelerators.
const ALLOC: [(ServerKind, &str); 4] = [
    (ServerKind::TrainBox, "Resnet-50"),
    (ServerKind::TrainBox, "RNN-S"),
    (ServerKind::Baseline, "Resnet-50"),
    (ServerKind::Baseline, "RNN-S"),
];

/// Builds the questions and their seeded request streams.
struct Generator {
    mix: Mix,
    seed: u64,
    /// Every question asked so far; shots refer to them by index. For
    /// `serve_hot` the hot set comes first.
    questions: Vec<SimRequest>,
    hot: usize,
    /// Zipf CDF over the hot set.
    zipf: Vec<f64>,
    /// (class, batch size) pairs already used: every fresh question is a
    /// distinct cache key.
    used: HashSet<(u8, u64)>,
}

impl Generator {
    fn new(mix: Mix, seed: u64) -> Generator {
        let mut gen = Generator {
            mix,
            seed,
            questions: Vec::new(),
            hot: 0,
            zipf: Vec::new(),
            used: HashSet::new(),
        };
        if mix == Mix::Hot {
            let mut rng = StdRng::seed_from_u64(HOT_SET_SEED);
            let mut keys = HashSet::new();
            let mut hot = Vec::new();
            while hot.len() < HOT_ANALYTIC {
                let req = analytic_question(&mut rng, None);
                if keys.insert(req.canonical_hash()) {
                    hot.push(req);
                }
            }
            let des_loads = [
                Workload::inception_v4(),
                Workload::vgg19(),
                Workload::transformer_sr(),
                Workload::transformer_aa(),
                Workload::video(),
                Workload::llm(),
            ];
            let cfg = SimConfig {
                chunk_samples: 64,
                batches: 3,
                warmup_batches: 1,
                ..SimConfig::default()
            };
            while hot.len() < HOT_ANALYTIC + HOT_DES {
                let kind = pick(
                    &[
                        ServerKind::TrainBox,
                        ServerKind::TrainBoxNoPool,
                        ServerKind::AccFpgaP2p,
                    ],
                    &mut rng,
                );
                let mut req = SimRequest::des(
                    kind,
                    pick(&[4, 8, 16], &mut rng),
                    pick(&des_loads, &mut rng),
                    cfg,
                );
                req.server.batch_size = Some(64 * rng.gen_range(1..=8u64));
                if keys.insert(req.canonical_hash()) {
                    hot.push(req);
                }
            }
            shuffle(&mut hot, &mut rng);
            gen.hot = hot.len();
            gen.questions = hot;
            let weights: Vec<f64> = (1..=gen.hot).map(|k| (k as f64).powf(-ZIPF_S)).collect();
            let total: f64 = weights.iter().sum();
            gen.zipf = weights
                .iter()
                .scan(0.0, |acc, w| {
                    *acc += w / total;
                    Some(*acc)
                })
                .collect();
        }
        gen
    }

    /// A batch size no earlier question of `class` used, from `lo..lo+span`.
    fn unique_batch(&mut self, rng: &mut StdRng, class: u8, lo: u64, span: u64) -> u64 {
        loop {
            let b = lo + rng.gen_range(0..span);
            if self.used.insert((class, b)) {
                return b;
            }
        }
    }

    /// A fresh `serve_des` question of class `class` (an index into
    /// [`FAST`], or past its end into [`ALLOC`]).
    fn des_question(
        &mut self,
        rng: &mut StdRng,
        class: usize,
        faulted: bool,
        deadlined: bool,
    ) -> SimRequest {
        let mut req = match FAST.get(class) {
            Some(&(kind, n, workload)) => {
                // Eight chunks per batch whatever its size: the run's cost
                // depends on the class, not on the unique batch.
                let batch = self.unique_batch(rng, 0, 256, 4096);
                let cfg = SimConfig {
                    chunk_samples: batch / 8,
                    batches: 3,
                    warmup_batches: 1,
                    ..SimConfig::default()
                };
                let mut r =
                    SimRequest::des(kind, n, Workload::by_name(workload).expect("a preset"), cfg);
                r.server.batch_size = Some(batch);
                r
            }
            None => {
                // Many concurrent flows over one shared PCIe domain: the
                // max-min allocator dominates these runs.
                let (kind, workload) = ALLOC[class - FAST.len()];
                let batch = self.unique_batch(rng, 1, 3584, 256);
                let cfg = SimConfig {
                    chunk_samples: 64,
                    batches: 2,
                    warmup_batches: 1,
                    ..SimConfig::default()
                };
                let mut r = SimRequest::des(
                    kind,
                    16,
                    Workload::by_name(workload).expect("a preset"),
                    cfg,
                );
                r.server.batch_size = Some(batch);
                r
            }
        };
        if faulted {
            let mut plan = crate::des::seeded_plan(&req, rng.gen(), 4.0);
            // Transient prep rejections overlapping crashes of the other prep
            // devices panic the DES (README, "Known defect"); leave them out
            // so no request fails.
            plan.events
                .retain(|e| !matches!(e.kind, FaultKind::PrepTransient { .. }));
            req.faults = Some(plan);
        }
        if deadlined {
            req.deadline_ms = Some(DEADLINE_MS);
        }
        req
    }

    fn push(&mut self, req: SimRequest) -> usize {
        self.questions.push(req);
        self.questions.len() - 1
    }

    /// The next `serve_hot` question: Zipf over the hot set, or (2%) a
    /// novel analytic question.
    fn hot_pick(&mut self, rng: &mut StdRng) -> usize {
        if rng.gen_bool(NOVEL_SHARE) {
            // Batch sizes far above the hot set's keep novel questions novel.
            let batch = self.unique_batch(rng, 2, 4096, 1 << 20);
            let req = analytic_question(rng, Some(batch));
            return self.push(req);
        }
        let u: f64 = rng.gen();
        self.zipf.partition_point(|&c| c < u).min(self.hot - 1)
    }

    fn shot(&self, due: Duration, q: usize, rng: &mut StdRng) -> Shot {
        let body = respell(&self.questions[q], rng);
        Shot {
            due,
            question: q,
            bytes: loadgen::post_bytes("/simulate", &body).into(),
        }
    }

    fn rng(&self, tag: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A closed-loop burst of `n` `serve_hot` requests.
    fn burst(&mut self, n: usize, tag: u64) -> Vec<Shot> {
        let mut rng = self.rng(tag);
        (0..n)
            .map(|_| {
                let q = self.hot_pick(&mut rng);
                self.shot(Duration::ZERO, q, &mut rng)
            })
            .collect()
    }

    /// Open-loop arrivals at `rate` per second over `secs` seconds: a
    /// Poisson stream conditioned on its expected count (that many uniform
    /// due times), so every seed offers the same load. `serve_des` deals
    /// its request classes from shuffled decks, so every seed also asks
    /// the same mix.
    fn open_loop(&mut self, rate: f64, secs: f64, tag: u64) -> Vec<Shot> {
        let mut rng = self.rng(tag);
        let n = (rate * secs).round() as usize;
        let repeats = if self.mix == Mix::Des {
            share(n, REPEAT_SHARE)
        } else {
            0
        };
        let fresh = n - repeats;
        let mut times: Vec<f64> = (0..fresh).map(|_| rng.gen::<f64>() * secs).collect();
        times.sort_by(f64::total_cmp);
        let mut shots = Vec::with_capacity(n);
        match self.mix {
            Mix::Hot => {
                for t in times {
                    let q = self.hot_pick(&mut rng);
                    shots.push(self.shot(Duration::from_secs_f64(t), q, &mut rng));
                }
            }
            Mix::Des => {
                // Classes dealt round-robin, then shuffled: every class is
                // asked equally often under any seed.
                let n_alloc = share(n, ALLOC_SHARE);
                let mut classes: Vec<usize> = (0..fresh - n_alloc)
                    .map(|i| i % FAST.len())
                    .chain((0..n_alloc).map(|i| FAST.len() + i % ALLOC.len()))
                    .collect();
                shuffle(&mut classes, &mut rng);
                let faulted = deck(fresh, share(fresh, FAULT_SHARE), &mut rng);
                let deadlined = deck(fresh, share(fresh, DEADLINE_SHARE), &mut rng);
                let repeated = deck(fresh, repeats, &mut rng);
                for (i, t) in times.into_iter().enumerate() {
                    let req = self.des_question(&mut rng, classes[i], faulted[i], deadlined[i]);
                    let q = self.push(req);
                    let due = Duration::from_secs_f64(t);
                    let shot = self.shot(due, q, &mut rng);
                    // An exact repeat shortly after: coalesced while the
                    // first is still running, a cache hit once it finished.
                    if repeated[i] {
                        let again = due + Duration::from_micros(rng.gen_range(1_000..20_000));
                        shots.push(Shot {
                            due: again,
                            ..shot.clone()
                        });
                    }
                    shots.push(shot);
                }
            }
        }
        shots.sort_by_key(|s| s.due);
        shots
    }

    /// A cold sweep body: `points` grid points of small DES questions
    /// whose batch sizes no other question uses.
    fn sweep_body(&mut self, points: usize, tag: u64) -> String {
        let mut rng = self.rng(0x5EE9 + tag);
        let batches: Vec<String> = (0..(points / 4).max(1))
            .map(|_| self.unique_batch(&mut rng, 3, 3072, 512).to_string())
            .collect();
        format!(
            "{{\"template\": {{\"server\": {{\"kind\": \"TrainBox\", \"n_accels\": 16}}, \
             \"workload\": \"Inception-v4\", \
             \"sim\": {{\"Des\": {{\"chunk_samples\": 64, \"batches\": 3, \"warmup_batches\": 1}}}}}}, \
             \"grid\": {{\"workload\": [\"Inception-v4\", \"TF-SR\"], \"n_accels\": [8, 16], \
             \"batch_size\": [{}]}}}}",
            batches.join(", ")
        )
    }
}

/// A valid analytic question over any design, scale and preset; `batch`
/// overrides the Table-I batch.
fn analytic_question(rng: &mut StdRng, batch: Option<u64>) -> SimRequest {
    let presets = Workload::presets();
    loop {
        let mut req = SimRequest::analytic(
            pick(&ALL_KINDS, rng),
            pick(&ACCELS, rng),
            pick(&presets, rng),
        );
        req.server.batch_size =
            batch.or_else(|| rng.gen_bool(0.3).then(|| 32 * rng.gen_range(1..=32u64)));
        if req.build_server().is_ok() {
            return req;
        }
    }
}

fn json<T: serde::Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("serialization is infallible")
}

/// One wire spelling of `req`: shuffled key order, the preset name in a
/// random letter case, and absent fields sometimes spelled as explicit
/// nulls. Every spelling parses back to `req`, so all share its cache key.
fn respell(req: &SimRequest, rng: &mut StdRng) -> String {
    let mut server: Vec<(&str, String)> = vec![
        ("kind", json(&req.server.kind)),
        ("n_accels", req.server.n_accels.to_string()),
    ];
    for (key, value) in [
        ("batch_size", req.server.batch_size.map(|b| b.to_string())),
        ("pool_fpgas", req.server.pool_fpgas.map(|p| p.to_string())),
        ("ring", req.server.ring.as_ref().map(json)),
    ] {
        match value {
            Some(v) => server.push((key, v)),
            None if rng.gen_bool(0.3) => server.push((key, "null".to_string())),
            None => {}
        }
    }
    shuffle(&mut server, rng);

    let name = &req.workload.workload().name;
    let name = match rng.gen_range(0..3) {
        0 => name.to_lowercase(),
        1 => name.to_uppercase(),
        _ => name.clone(),
    };
    let mut fields: Vec<(&str, String)> =
        vec![("server", object(&server)), ("workload", json(&name))];
    match req.sim {
        SimMode::Des(_) => fields.push(("sim", json(&req.sim))),
        SimMode::Analytic => match rng.gen_range(0..3) {
            0 => fields.push(("sim", "\"Analytic\"".to_string())),
            1 => fields.push(("sim", "null".to_string())),
            _ => {}
        },
    }
    match &req.faults {
        Some(plan) => fields.push(("faults", json(plan))),
        None if rng.gen_bool(0.3) => fields.push(("faults", "null".to_string())),
        None => {}
    }
    if rng.gen_bool(0.3) {
        fields.push(("trace", json(&req.trace)));
    }
    if let Some(ms) = req.deadline_ms {
        fields.push(("deadline_ms", ms.to_string()));
    }
    shuffle(&mut fields, rng);
    object(&fields)
}

fn object(fields: &[(&str, String)]) -> String {
    let inner: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", inner.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_bytes(mix: Mix, seed: u64) -> Vec<Vec<u8>> {
        let mut gen = Generator::new(mix, seed);
        let rate = if mix == Mix::Hot { 2000.0 } else { 40.0 };
        gen.open_loop(rate, 1.0, 1)
            .iter()
            .map(|s| s.bytes.to_vec())
            .collect()
    }

    #[test]
    fn the_same_seed_gives_the_same_stream() {
        for mix in [Mix::Hot, Mix::Des] {
            assert_eq!(stream_bytes(mix, 7), stream_bytes(mix, 7));
            assert_ne!(stream_bytes(mix, 7), stream_bytes(mix, 8));
        }
    }

    #[test]
    fn every_spelling_asks_the_question_as_built() {
        for mix in [Mix::Hot, Mix::Des] {
            let mut gen = Generator::new(mix, 3);
            let shots = gen.open_loop(if mix == Mix::Hot { 500.0 } else { 60.0 }, 1.0, 1);
            for shot in &shots {
                let text = std::str::from_utf8(&shot.bytes).unwrap();
                let body = text.split_once("\r\n\r\n").unwrap().1;
                let parsed = SimRequest::from_json_str(body).unwrap();
                let built = &gen.questions[shot.question];
                assert_eq!(&parsed, built, "{body}");
                assert_eq!(parsed.canonical_hash(), built.canonical_hash());
            }
        }
    }

    #[test]
    fn serve_des_keys_are_unique_and_shares_hold() {
        let mut gen = Generator::new(Mix::Des, 11);
        let shots = gen.open_loop(200.0, 20.0, 1);
        let n = shots.len() as f64;
        let mut first_due = BTreeMap::new();
        let mut repeats = 0;
        for s in &shots {
            match first_due.get(&s.question) {
                Some(&d) => {
                    repeats += 1;
                    assert!(
                        s.due - d <= Duration::from_millis(20),
                        "a repeat follows within 20 ms"
                    );
                }
                None => {
                    first_due.insert(s.question, s.due);
                }
            }
        }
        let fresh: Vec<&SimRequest> = first_due.keys().map(|&q| &gen.questions[q]).collect();
        let keys: HashSet<u64> = fresh.iter().map(|r| r.canonical_hash()).collect();
        assert_eq!(
            keys.len(),
            fresh.len(),
            "every fresh question is a distinct cache key"
        );
        let frac = |count: usize| count as f64 / n;
        assert!(
            (frac(repeats) - REPEAT_SHARE).abs() < 0.001,
            "repeat share {}",
            frac(repeats)
        );
        let alloc = fresh
            .iter()
            .filter(|r| {
                r.server.n_accels == 16
                    && matches!(r.workload.workload().name.as_str(), "Resnet-50" | "RNN-S")
            })
            .count();
        assert!(
            (frac(alloc) - ALLOC_SHARE).abs() < 0.001,
            "allocator-bound share {}",
            frac(alloc)
        );
        let faulted =
            fresh.iter().filter(|r| r.faults.is_some()).count() as f64 / fresh.len() as f64;
        assert!(
            (faulted - FAULT_SHARE).abs() < 0.001,
            "fault share {faulted}"
        );
    }

    #[test]
    fn every_tail_holds_ten_samples_beyond_it() {
        for plan in [&HOT, &DES] {
            let phase = plan.rate_high * plan.high_share * crate::DEFAULT_SECONDS;
            let samples = if plan.tail_per_chunk {
                phase / plan.jobs as f64
            } else {
                phase
            };
            assert!(
                crate::stats::beyond(samples as usize, plan.tail_pct) >= 10,
                "{samples} samples"
            );
        }
    }

    #[test]
    fn the_hot_set_fits_the_cache() {
        let gen = Generator::new(Mix::Hot, 5);
        assert_eq!(gen.hot, HOT_ANALYTIC + HOT_DES);
        assert!(gen.hot < ServeConfig::default().cache_capacity);
        let des = gen
            .questions
            .iter()
            .filter(|q| matches!(q.sim, SimMode::Des(_)))
            .count();
        assert_eq!(des, HOT_DES);
    }
}
