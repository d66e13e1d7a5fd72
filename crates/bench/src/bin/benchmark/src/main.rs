//! `benchmark`: one command for the whole TrainBox stack.
//!
//! ```text
//! benchmark --workload NAME --seed N [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! benchmark --seed N [--out FILE] [--smoke]        # every workload, each in a child process
//! ```
//!
//! Five workloads each load a different layer of the stack through its
//! public entry points (see `README.md` next to this file for why each was
//! chosen and which layer metric should move on which workload):
//!
//! * `serve_hot`, `serve_des` — an in-process `trainbox_serve::serve`
//!   instance under open-loop HTTP load from this process;
//! * `des_contended`, `des_lanes` — named questions through
//!   `SimRequest::run`;
//! * `offline_repro` — `PrepPipeline` through `BatchExecutor`, then the
//!   figure binaries regenerating `results/`.
//!
//! With `--trace 0` a run measures the end-to-end metrics with no tracing;
//! with `--trace 1` it runs the traced pass instead and reports the
//! per-layer metrics. The end-to-end timings are CPU time (`cpu.rs`) scaled
//! to a reference host speed (`speed.rs`); wall-clock latencies are
//! measured too and recorded beside them, ungated.
//! Every answer is checked; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`, and the exit
//! code is non-zero on any mismatch.

mod check;
mod cpu;
mod des;
mod loadgen;
mod offline;
mod serve;
mod spans;
mod speed;
mod stats;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use serde::Serialize;

use check::Gate;
use spans::Recorder;

pub const WORKLOADS: [&str; 5] = [
    "serve_hot",
    "serve_des",
    "des_contended",
    "des_lanes",
    "offline_repro",
];

/// Run length the fixed work sizes were calibrated for (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// End-to-end metrics: every workload reports every one (see README.md
/// for what an operation and the reference job are on each workload).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_cpu_ms", "ms"),
    ("job_cpu_s", "s"),
];

/// The end-to-end metrics that are CPU times, scaled to the reference speed.
const CPU_TIMED: [&str; 3] = ["setup_s", "op_cpu_ms", "job_cpu_s"];

/// Per-layer metrics from the traced run. A workload that never enters a
/// layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("serve.http.parse_us", "us"),
    ("request.decode_us", "us"),
    ("request.canonical_us", "us"),
    ("cache.get_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("coalesce.share", "ratio"),
    ("response.encode_us", "us"),
    ("serve.residual_us", "us"),
    ("gen.lag_ms.p99", "ms"),
    ("analytic.run_us", "us"),
    ("des.run_ms.baseline_dlrm_8", "ms"),
    ("des.run_ms.trainbox_resnet50_16", "ms"),
    ("des.run_ms.trainbox_rnns_16", "ms"),
    ("des.run_ms.baseline_resnet50_16", "ms"),
    ("des.run_ms.trainbox_dlrm_16", "ms"),
    ("des.run_ms.baseline_llm7b_64", "ms"),
    ("des.run_ms.trainbox_storm_16", "ms"),
    ("des.run_ms.nopool_resnet50_256", "ms"),
    ("des.run_ms.nopool_dlrm_64", "ms"),
    ("des.run_ms.cluster_32x8", "ms"),
    ("des.events", "count"),
    ("des.recomputes", "count"),
    ("des.us_per_recompute", "us"),
    ("des.ns_per_event", "ns"),
    ("des.trace_overhead", "ratio"),
    ("par.windows", "count"),
    ("par.imbalance", "ratio"),
    ("par.work_span_4", "ratio"),
    ("prep.jpeg_decode_ms", "ms"),
    ("prep.crop_ms", "ms"),
    ("prep.mirror_ms", "ms"),
    ("prep.gaussian_noise_ms", "ms"),
    ("prep.cast_ms", "ms"),
    ("prep.spectrogram_ms", "ms"),
    ("prep.mel_ms", "ms"),
    ("prep.masking_ms", "ms"),
    ("prep.norm_ms", "ms"),
    ("prep.executor_efficiency", "ratio"),
    ("regen.batch_lr_ms", "ms"),
    ("regen.fig05_ms", "ms"),
    ("regen.ablation_faults_ms", "ms"),
    ("regen.ablation_prefetch_ms", "ms"),
    ("regen.ablation_sync_ms", "ms"),
    ("regen.fig19_ms", "ms"),
    ("regen.fig20_ms", "ms"),
    ("regen.fig21_ms", "ms"),
    ("regen.fig21_cluster_ms", "ms"),
    ("regen.rest_ms", "ms"),
];

/// Settings every workload reads.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Measured-phase budget, seconds.
    pub seconds: f64,
    /// Tiny sizes through the same code: checks the benchmark still runs.
    pub smoke: bool,
    /// Hardware threads: generator threads, server workers, DES and prep
    /// workers are all sized from it.
    pub cores: usize,
}

impl Opts {
    /// A count calibrated for a [`DEFAULT_SECONDS`] run, scaled to this
    /// run's budget (`smoke` in smoke mode).
    pub fn count(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            ((full as f64 * self.seconds / DEFAULT_SECONDS).round() as usize).max(1)
        }
    }

    /// `share` of the measured budget (a quarter second in smoke mode).
    pub fn secs(&self, share: f64) -> f64 {
        if self.smoke {
            0.25
        } else {
            share * self.seconds
        }
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub gate: Gate,
    pub metrics: BTreeMap<String, f64>,
    /// Measured beside the metrics and recorded, not gated: wall-clock
    /// timings (`wall.*`), the CPU times before scaling (`cpu.*`) and the
    /// reference kernels' times (`ref.*`).
    pub ungated: BTreeMap<String, f64>,
    /// Sample count behind each timing metric.
    pub samples: BTreeMap<String, u64>,
    /// Fixed rates and sizes the run used.
    pub fixed: BTreeMap<String, f64>,
    /// The host-speed reference, sampled throughout the run.
    pub speed: speed::Speed,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn fix(&mut self, name: &str, value: f64) {
        self.fixed.insert(name.to_string(), value);
    }

    /// Sample the host-speed reference if it is due; workloads call this
    /// between operations.
    pub fn tick(&mut self) {
        if let Err(e) = self.speed.tick() {
            self.gate.fail(e);
        }
    }

    /// Divide the CPU-time metrics by the host's slowdown against the
    /// reference speed (`speed.rs`), keeping the measured values as `cpu.*`.
    fn scale_to_reference(&mut self) {
        let (Some(slowdown), Some((events, sockets, n))) =
            (self.speed.slowdown(), self.speed.medians())
        else {
            self.gate
                .fail("the speed reference was never sampled".to_string());
            return;
        };
        for metric in CPU_TIMED {
            if let Some(v) = self.metrics.get_mut(metric) {
                self.ungated.insert(format!("cpu.{metric}"), *v);
                *v /= slowdown;
            }
        }
        self.ungated
            .insert("ref.events_ms".to_string(), events * 1e3);
        self.ungated
            .insert("ref.sockets_ms".to_string(), sockets * 1e3);
        self.ungated.insert("ref.slowdown".to_string(), slowdown);
        self.samples.insert("ref".to_string(), n as u64);
    }

    /// `op_cpu_ms`: the CPU time of one operation, in milliseconds, a
    /// summary of `samples` per-operation measurements.
    pub fn ops(&mut self, cpu_ms: f64, samples: usize) {
        if samples == 0 {
            self.gate.fail("no operation was measured".to_string());
            return;
        }
        self.set("op_cpu_ms", cpu_ms);
        self.samples.insert("op_cpu_ms".to_string(), samples as u64);
    }

    /// Median and tail of per-operation wall latencies (milliseconds), given
    /// in consecutive windows: the median is over every sample, the tail is
    /// the median over windows of each window's fixed tail percentile. One
    /// host stall then moves one window's tail, not the reported one. The
    /// percentile must leave at least ten samples beyond it in a window.
    pub fn latency(&mut self, windows: &[Vec<f64>], tail_pct: f64) {
        let all: Vec<f64> = windows.concat();
        if all.is_empty() {
            self.gate.fail("no latency samples were taken".to_string());
            return;
        }
        let tails: Vec<f64> = windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                if stats::beyond(w.len(), tail_pct) < 10 {
                    eprintln!(
                        "warning: p{tail_pct} of {} samples has fewer than ten beyond it",
                        w.len()
                    );
                }
                stats::percentile(&stats::sorted(w), tail_pct)
            })
            .collect();
        self.ungated
            .insert("wall.latency_p50_ms".to_string(), stats::median(&all));
        self.ungated
            .insert("wall.latency_tail_ms".to_string(), stats::median(&tails));
        self.samples
            .insert("latency_ms".to_string(), all.len() as u64);
        self.samples
            .insert("latency_windows".to_string(), tails.len() as u64);
        self.fix("tail_percentile", tail_pct);
    }

    /// `job_cpu_s`, and the wall `job_s` beside it: medians over the
    /// reference jobs run, each given as (CPU seconds, wall seconds).
    pub fn job(&mut self, jobs: &[(f64, f64)]) {
        if jobs.is_empty() {
            self.gate.fail("no reference job completed".to_string());
            return;
        }
        let (cpu, wall): (Vec<f64>, Vec<f64>) = jobs.iter().copied().unzip();
        self.set("job_cpu_s", stats::median(&cpu));
        self.ungated
            .insert("wall.job_s".to_string(), stats::median(&wall));
        self.samples
            .insert("job_cpu_s".to_string(), jobs.len() as u64);
    }
}

/// A workload instance: set up once, then measured or traced.
pub trait Workload {
    fn measure(&mut self, opts: &Opts, report: &mut Report);
    fn trace(&mut self, opts: &Opts, report: &mut Report, rec: &mut Recorder);
    /// Stop every thread and process the workload started.
    fn finish(self: Box<Self>);
}

/// The timed set-up: everything a workload does before its first timed
/// operation, including lazy initialization.
fn setup(name: &str, opts: &Opts) -> Result<Box<dyn Workload>, String> {
    // Provenance every answer carries: computing it spawns `git`, once per
    // process, so it belongs to set-up, not to the first timed answer.
    trainbox_core::request::git_describe();
    Ok(match name {
        "serve_hot" => Box::new(serve::Serve::setup(serve::Mix::Hot, opts)?),
        "serve_des" => Box::new(serve::Serve::setup(serve::Mix::Des, opts)?),
        "des_contended" => Box::new(des::Des::setup(des::Set::Contended, opts)),
        "des_lanes" => Box::new(des::Des::setup(des::Set::Lanes, opts)),
        "offline_repro" => Box::new(offline::Offline::setup(opts)?),
        other => {
            return Err(format!(
                "unknown workload {other:?} (known: {})",
                WORKLOADS.join(", ")
            ))
        }
    })
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    setup_only: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--out FILE] [--smoke]\n  workloads: {}",
        WORKLOADS.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        smoke: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")),
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--seconds" => {
                args.seconds = value("--seconds")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seconds"));
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                args.trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("--out"))),
            "--smoke" => args.smoke = true,
            "--setup-only" => args.setup_only = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            usage(&format!("unknown workload {w:?}"));
        }
    }
    args
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where the benchmark keeps its scratch files (span files, regenerated
/// figures): under the Cargo target directory, which version control
/// ignores.
pub fn scratch_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

/// Time one round of fresh set-ups of `name`, each in a child process that
/// reports when its first operation could start: at least three, then more
/// until a quarter second has gone by (at most 12), so a set-up of a few
/// milliseconds is the median of many boots. Each boot adds (CPU seconds
/// the child had spent by then, with its own children; wall seconds from
/// spawn) to `times`.
fn time_setups(name: &str, opts: &Opts, times: &mut Vec<(f64, f64)>) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (min_boots, max_boots) = if opts.smoke { (1, 1) } else { (3, 12) };
    let started = Instant::now();
    let mut boots = 0;
    while boots < min_boots || (boots < max_boots && started.elapsed().as_secs_f64() < 0.25) {
        boots += 1;
        let start = Instant::now();
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--setup-only",
            "--workload",
            name,
            "--seed",
            &opts.seed.to_string(),
        ])
        .args(["--seconds", &opts.seconds.to_string()])
        .stdout(Stdio::piped());
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn set-up child: {e}"))?;
        let mut line = String::new();
        let stdout = child.stdout.take().expect("stdout was piped");
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read set-up child: {e}"))?;
        let elapsed = start.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("wait set-up child: {e}"))?;
        let cpu = line
            .trim()
            .strip_prefix("ready ")
            .and_then(|s| s.parse::<f64>().ok());
        match cpu {
            Some(cpu) if status.success() => times.push((cpu, elapsed)),
            _ => {
                return Err(format!(
                    "set-up child for {name} failed ({status}, said {line:?})"
                ))
            }
        }
    }
    Ok(())
}

// Map types behind aliases: the vendored derive splits field types at
// commas.
type Metrics = BTreeMap<String, MetricOut>;
type Values = BTreeMap<String, f64>;
type Counts = BTreeMap<String, u64>;

#[derive(Clone, Serialize)]
struct MetricOut {
    value: f64,
    unit: &'static str,
}

/// The verdict, the last line of standard output: exactly these keys, in
/// this order.
#[derive(Serialize)]
struct Verdict {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// The full record written by `--out`.
#[derive(Serialize)]
struct Record {
    schema: &'static str,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    host_cores: usize,
    git_describe: String,
    attempted: u64,
    failed: u64,
    mismatches: usize,
    fixed: Values,
    samples: Counts,
    metrics: Metrics,
    /// Recorded beside the metrics, not gated.
    ungated: Values,
}

/// Run one workload in this process and print its verdict.
fn run_one(name: &str, args: &Args) -> i32 {
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        cores: host_cores(),
    };
    if args.setup_only {
        return match setup(name, &opts) {
            Ok(w) => {
                println!("ready {}", cpu::process() + cpu::children());
                w.finish();
                0
            }
            Err(e) => {
                eprintln!("error: {e}");
                1
            }
        };
    }

    let mut report = Report::default();
    // Set-up is timed in rounds before and after the measured run, so its
    // median spans the run like the other metrics do. The speed reference
    // is sampled next to each round and throughout the run.
    let mut setup_times = Vec::new();
    if !args.trace {
        report.tick();
        if let Err(e) = time_setups(name, &opts, &mut setup_times) {
            eprintln!("error: {e}");
            return 1;
        }
    }
    let mut workload = match setup(name, &opts) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let table: &[(&str, &str)] = if args.trace {
        let mut rec = Recorder::default();
        workload.trace(&opts, &mut report, &mut rec);
        let path = scratch_dir().join(format!("spans-{name}-seed{}.jsonl", opts.seed));
        match rec.write(&path) {
            Ok(()) => eprintln!("(wrote {} spans to {})", rec.spans().len(), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        &PER_LAYER
    } else {
        workload.measure(&opts, &mut report);
        &END_TO_END
    };
    workload.finish();
    if !args.trace {
        if let Err(e) = time_setups(name, &opts, &mut setup_times) {
            eprintln!("error: {e}");
            return 1;
        }
        if let Err(e) = report.speed.sample() {
            report.gate.fail(e);
        }
        let (cpu, wall): (Vec<f64>, Vec<f64>) = setup_times.iter().copied().unzip();
        report.set("setup_s", stats::median(&cpu));
        report
            .ungated
            .insert("wall.setup_s".to_string(), stats::median(&wall));
        report
            .samples
            .insert("setup_s".to_string(), setup_times.len() as u64);
        report.set("peak_rss_mb", peak_rss_mb());
        report.scale_to_reference();
    }

    let mut metrics = BTreeMap::new();
    for &(metric, unit) in table {
        let value = report.metrics.get(metric).copied().unwrap_or(0.0);
        // Every end-to-end metric is a positive measurement; per-layer ones
        // are 0 for a layer the workload never enters.
        let measured = value.is_finite() && value > 0.0;
        if !(args.trace || measured) {
            report.gate.fail(format!(
                "end-to-end metric {metric} was not measured ({value})"
            ));
        }
        println!("{name:<14} {metric:<34} {value:>14.6} {unit}");
        metrics.insert(metric.to_string(), MetricOut { value, unit });
    }
    for (k, v) in &report.ungated {
        println!("{name:<14} {k:<34} {v:>14.6} (not gated)");
    }
    for (k, v) in &report.samples {
        println!("{name:<14} samples.{k:<26} {v:>14}");
    }
    let mismatches = report.gate.count();
    println!(
        "{name:<14} attempted {} failed {} mismatches {mismatches}",
        report.attempted, report.failed
    );

    if let Some(out) = &args.out {
        let record = Record {
            schema: "trainbox.benchmark.v1",
            workload: name.to_string(),
            seed: opts.seed,
            seconds: opts.seconds,
            trace: args.trace,
            smoke: opts.smoke,
            host_cores: opts.cores,
            git_describe: trainbox_core::request::git_describe().to_string(),
            attempted: report.attempted,
            failed: report.failed,
            mismatches,
            fixed: report.fixed.clone(),
            samples: report.samples.clone(),
            metrics: metrics.clone(),
            ungated: report.ungated.clone(),
        };
        let text =
            serde_json::to_string_pretty(&record).expect("record serialization is infallible");
        if let Err(e) = std::fs::write(out, text + "\n") {
            eprintln!("error: could not write {}: {e}", out.display());
            return 1;
        }
    }

    let verdict = Verdict {
        correct: mismatches == 0,
        attempted: report.attempted,
        failed: report.failed,
        metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&verdict).expect("verdict serialization is infallible")
    );
    i32::from(mismatches > 0)
}

/// Run every workload, each in a fresh child process so its set-up time
/// and peak memory are its own.
fn run_all(args: &Args) -> i32 {
    let exe = std::env::current_exe().expect("current_exe");
    let mut code = 0;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut metrics = BTreeMap::new();
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stdout(Stdio::piped());
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(out) = &args.out {
            cmd.arg("--out")
                .arg(out.with_extension(format!("{name}.json")));
        }
        let output = cmd.output().expect("spawn workload child");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last = stdout.lines().last().unwrap_or_default();
        let parsed = trainbox_sim::json::parse(last).ok();
        let field = |k: &str| {
            parsed
                .as_ref()
                .and_then(|v| v.get(k))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        attempted += field("attempted") as u64;
        failed += field("failed") as u64;
        let correct = parsed
            .as_ref()
            .and_then(|v| v.get("correct"))
            .and_then(|v| v.as_bool())
            == Some(true);
        if !output.status.success() || !correct {
            eprintln!("workload {name} failed ({})", output.status);
            code = 1;
        }
        if let Some(m) = parsed
            .as_ref()
            .and_then(|v| v.get("metrics"))
            .and_then(|v| v.as_object())
        {
            for (k, v) in m {
                let value = v.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
                let unit = table_unit(k);
                metrics.insert(format!("{name}.{k}"), MetricOut { value, unit });
            }
        }
    }
    let verdict = Verdict {
        correct: code == 0,
        attempted,
        failed,
        metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&verdict).expect("verdict serialization is infallible")
    );
    code
}

fn table_unit(metric: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(m, _)| *m == metric)
        .map_or("", |&(_, u)| u)
}

fn main() {
    let args = parse_args();
    let code = match &args.workload {
        Some(name) => run_one(name, &args),
        None => run_all(&args),
    };
    std::process::exit(code);
}
