//! Shared plumbing for the figure/table regeneration binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (or, for `bench_counters`, the simulator core's exact work counters): it
//! prints the same rows/series the paper reports and, when
//! `TRAINBOX_RESULTS_DIR` is set, also writes a machine-readable copy for
//! EXPERIMENTS.md tooling.

use serde::Serialize;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

use trainbox_core::arch::ServerKind;
use trainbox_core::pipeline::SimConfig;
use trainbox_core::request::SimRequest;
use trainbox_nn::Workload;
use trainbox_sim::{chrome_trace_json, RingTracer, TraceSummary};

/// Print a figure/table banner.
pub fn banner(id: &str, caption: &str) {
    println!("==== {id} — {caption} ====");
}

/// Standard accelerator-count sweep used by the scalability figures.
pub const ACCEL_SWEEP: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Where to put JSON result dumps, if requested.
///
/// Reads `TRAINBOX_RESULTS_DIR`; when the variable is unset, results are not
/// dumped (stdout remains the artifact).
pub fn results_dir() -> Option<PathBuf> {
    std::env::var_os("TRAINBOX_RESULTS_DIR").map(PathBuf::from)
}

/// Serialize `value` to `<results_dir>/<name>.json` when a results dir is
/// configured. A failed write exits with status 1: `scripts/reproduce.sh`
/// and CI diff the written files against `results/`, so a binary that wrote
/// nothing must not report success.
pub fn emit_json<T: Serialize>(name: &str, value: &T) {
    let Some(dir) = results_dir() else {
        return;
    };
    let path = dir.join(format!("{name}.json"));
    let run = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut f = std::fs::File::create(&path)?;
        let body = serde_json::to_string_pretty(value)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        f.write_all(body.as_bytes())?;
        Ok(())
    };
    match run() {
        Ok(()) => eprintln!("(wrote {})", path.display()),
        Err(e) => {
            eprintln!("error: could not write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// A `paper vs measured` comparison line for EXPERIMENTS.md-style reporting.
pub fn compare(metric: &str, paper: f64, measured: f64) {
    let ratio = if paper != 0.0 { measured / paper } else { f64::NAN };
    println!("  {metric:<44} paper {paper:>10.2}   measured {measured:>10.2}   (x{ratio:.2})");
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: <fig-binary> [-j N | --jobs N] [--print-jobs] [--trace out.json] \
         [--sim-workers N]"
    );
    std::process::exit(2);
}

/// `--trace PATH` destination parsed by [`bench_cli`], if any.
static TRACE_OUT: OnceLock<Option<PathBuf>> = OnceLock::new();

/// Where `--trace` asked for a Chrome trace-event dump, if it did.
/// `None` until [`bench_cli`] has run, or when the flag was absent.
pub fn trace_out() -> Option<PathBuf> {
    TRACE_OUT.get().cloned().flatten()
}

/// `--sim-workers N` parsed by [`bench_cli`], if any.
static SIM_WORKERS: OnceLock<usize> = OnceLock::new();

/// Worker threads for the parallel DES engine inside each simulation
/// (`SimConfig::parallel_workers` on cluster runs). `0` — the default —
/// selects the sequential reference engine. Distinct from `-j`, which runs
/// *independent sweep points* concurrently: `-j` parallelism multiplies
/// with `--sim-workers`, so `-j 4 --sim-workers 4` asks for 16 runnable
/// threads — oversubscription unless the host has the cores. Results are
/// byte-identical for any value; only wall-clock changes.
pub fn sim_workers() -> usize {
    SIM_WORKERS.get().copied().unwrap_or(0)
}

fn parse_jobs(s: &str) -> usize {
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => n,
        _ => usage_exit(&format!("invalid job count {s:?} (want an integer >= 1)")),
    }
}

/// Unlike jobs, 0 is legal here: it names the sequential reference.
fn parse_sim_workers(s: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        usage_exit(&format!("invalid sim worker count {s:?} (want an integer >= 0)"))
    })
}

/// Parse the standard figure-binary command line, returning the requested
/// sweep parallelism for [`run_sweep`].
///
/// Accepted: `-j N` / `-jN` / `--jobs N` / `--jobs=N` (also via the
/// `TRAINBOX_JOBS` env var, with the flag taking precedence),
/// `--trace PATH` / `--trace=PATH` (record a structured trace of a
/// representative DES run and write it as Chrome trace-event JSON to `PATH`;
/// retrieve with [`trace_out`]), `--sim-workers N` / `--sim-workers=N`
/// (also via `TRAINBOX_SIM_WORKERS`; retrieve with [`sim_workers`]), and
/// `--print-jobs`, which prints `jobs=N` and exits 0 — `scripts/reproduce.sh`
/// probes it so a binary that silently ignores `-j` fails the run instead of
/// quietly degrading to sequential. Unknown arguments and malformed values,
/// from flags and env vars alike, exit with status 2.
pub fn bench_cli() -> usize {
    let mut jobs: usize = std::env::var("TRAINBOX_JOBS")
        .ok()
        .map(|v| parse_jobs(&v))
        .unwrap_or(1);
    let mut sim_workers: usize = std::env::var("TRAINBOX_SIM_WORKERS")
        .ok()
        .map(|v| parse_sim_workers(&v))
        .unwrap_or(0);
    let mut trace: Option<PathBuf> = None;
    let mut print_jobs = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "-j" | "--jobs" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_exit("missing value after -j/--jobs"));
                jobs = parse_jobs(&v);
            }
            "--trace" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_exit("missing value after --trace"));
                trace = Some(PathBuf::from(v));
            }
            "--sim-workers" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_exit("missing value after --sim-workers"));
                sim_workers = parse_sim_workers(&v);
            }
            "--print-jobs" => print_jobs = true,
            s if s.starts_with("--jobs=") => jobs = parse_jobs(&s["--jobs=".len()..]),
            s if s.starts_with("--trace=") => {
                trace = Some(PathBuf::from(&s["--trace=".len()..]));
            }
            s if s.starts_with("--sim-workers=") => {
                sim_workers = parse_sim_workers(&s["--sim-workers=".len()..]);
            }
            s if s.starts_with("-j") => jobs = parse_jobs(&s[2..]),
            other => usage_exit(&format!("unknown argument {other:?}")),
        }
    }
    if print_jobs {
        println!("jobs={jobs}");
        std::process::exit(0);
    }
    let _ = TRACE_OUT.set(trace);
    let _ = SIM_WORKERS.set(sim_workers);
    jobs
}

/// Whether a figure body already exported its own scenario trace, so
/// [`figure_main`]'s fallback [`emit_default_trace`] must not clobber it.
static SCENARIO_TRACED: AtomicBool = AtomicBool::new(false);

/// Run one DES request with a [`RingTracer`] attached and write the Chrome
/// trace-event JSON to the `--trace` destination. No-op when `--trace` was
/// not passed, so binaries call this unconditionally; tracing happens in a
/// *separate* instrumented run, leaving the figure's own output (stdout and
/// any `results/` JSON) byte-identical with or without the flag.
///
/// `req.sim` must be a DES mode ([`trainbox_core::request::SimMode::Des`]).
pub fn emit_scenario_trace(req: &SimRequest) {
    let Some(path) = trace_out() else { return };
    let (_, tracer) = req
        .run_des_with_tracer(RingTracer::new(RingTracer::DEFAULT_CAPACITY))
        .unwrap_or_else(|e| panic!("trace scenario failed: {e}"));
    SCENARIO_TRACED.store(true, Ordering::Relaxed);
    write_chrome_trace(&path, tracer);
}

/// The canonical `--trace` scenario — a 16-accelerator TrainBox (no pool)
/// training Inception-v4 at batch 512 — for binaries whose own sweep is
/// analytic-only and has no DES configuration to borrow.
pub fn default_trace_request() -> SimRequest {
    let mut req = SimRequest::des(
        ServerKind::TrainBoxNoPool,
        16,
        Workload::inception_v4(),
        SimConfig::default(),
    );
    req.server.batch_size = Some(512);
    req
}

/// [`emit_scenario_trace`] on [`default_trace_request`], unless the figure
/// body already exported a scenario of its own.
pub fn emit_default_trace() {
    if trace_out().is_none() || SCENARIO_TRACED.load(Ordering::Relaxed) {
        return;
    }
    emit_scenario_trace(&default_trace_request());
}

/// The figure-binary main: parse the standard CLI ([`bench_cli`]), print the
/// banner, run the figure body with the requested sweep parallelism, then
/// honor `--trace` ([`emit_default_trace`] — a no-op when the body already
/// exported its own scenario via [`emit_scenario_trace`]).
///
/// Every binary in `src/bin/` is exactly
/// `fn main() { figure_main("fig NN", "caption", body) }`; the shared
/// prologue/epilogue lives here so CLI behavior cannot drift between
/// figures.
pub fn figure_main(id: &str, caption: &str, body: impl FnOnce(usize)) {
    let jobs = bench_cli();
    banner(id, caption);
    body(jobs);
    emit_default_trace();
}

/// Serialize `tracer`'s records as Chrome trace-event JSON to `path` and
/// print the per-component utilization summary to stderr (stdout stays
/// reserved for the figure's own rows).
pub fn write_chrome_trace(path: &Path, tracer: RingTracer) {
    let dropped = tracer.dropped();
    let records = tracer.into_records();
    let summary = TraceSummary::from_records(&records, dropped);
    let json = chrome_trace_json(&records);
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("(wrote {} trace records to {})", records.len(), path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    eprint!("{}", summary.render());
}

/// Run `f` over every sweep point on up to `jobs` scoped worker threads and
/// return the results **in item order**.
///
/// Same determinism contract as `dataprep`'s BatchExecutor: every point's
/// result is a pure function of `(index, item)` — workers pull from a shared
/// queue but results land in per-index slots, so the output is byte-identical
/// to the sequential run for *any* worker count. Sweep points must therefore
/// not share mutable state; the figure binaries' points are independently
/// seeded simulations, which satisfy this by construction.
///
/// # Panics
///
/// A panicking sweep point propagates out of the scope (no detached threads,
/// no half-written output).
pub fn run_sweep<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs.clamp(1, n.max(1));
    if workers <= 1 {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let work = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
        for _ in 0..workers {
            let tx = tx.clone();
            let work = &work;
            let f = &f;
            s.spawn(move || loop {
                let next = work.lock().expect("sweep queue poisoned").next();
                let Some((i, item)) = next else { break };
                if tx.send((i, f(i, item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            slots[i] = Some(r);
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every sweep point produced a result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both tests below set `TRAINBOX_RESULTS_DIR`; the harness runs tests
    /// on parallel threads of one process, so they take turns.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn results_dir_respects_env() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        std::env::remove_var("TRAINBOX_RESULTS_DIR");
        assert!(results_dir().is_none());
        std::env::set_var("TRAINBOX_RESULTS_DIR", "/tmp/tb-results");
        assert_eq!(results_dir().unwrap(), PathBuf::from("/tmp/tb-results"));
        std::env::remove_var("TRAINBOX_RESULTS_DIR");
    }

    #[test]
    fn run_sweep_preserves_item_order() {
        let items: Vec<u64> = (0..57).collect();
        let out = run_sweep(8, items, |i, x| (i as u64) * 1000 + x * x);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64) * 1000 + (i as u64) * (i as u64));
        }
    }

    #[test]
    fn run_sweep_handles_degenerate_shapes() {
        assert!(run_sweep(4, Vec::<u32>::new(), |_, x| x).is_empty());
        assert_eq!(run_sweep(16, vec![9u32], |_, x| x + 1), vec![10]);
        assert_eq!(run_sweep(1, vec![1u32, 2, 3], |_, x| x * 2), vec![2, 4, 6]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// The sweep-runner contract: output byte-identical to sequential for
        /// any `-j`, with per-point work that's deliberately uneven so fast
        /// points overtake slow ones.
        #[test]
        fn run_sweep_matches_sequential_for_any_jobs(
            items in proptest::collection::vec(0u64..1_000_000, 0..40),
            jobs in 1usize..9,
        ) {
            let point = |i: usize, x: u64| -> u64 {
                // Uneven, deterministic work per point.
                let mut h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i as u64;
                for _ in 0..(x % 97) {
                    h = h.rotate_left(13).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
                }
                h
            };
            let sequential: Vec<u64> =
                items.iter().copied().enumerate().map(|(i, x)| point(i, x)).collect();
            let parallel = run_sweep(jobs, items, point);
            proptest::prop_assert_eq!(parallel, sequential);
        }
    }

    #[test]
    fn emit_json_writes_when_configured() {
        let _env = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let dir = std::env::temp_dir().join(format!("tb-bench-test-{}", std::process::id()));
        std::env::set_var("TRAINBOX_RESULTS_DIR", &dir);
        emit_json("unit-test", &vec![1, 2, 3]);
        let body = std::fs::read_to_string(dir.join("unit-test.json")).unwrap();
        assert!(body.contains('1'));
        std::env::remove_var("TRAINBOX_RESULTS_DIR");
        let _ = std::fs::remove_dir_all(dir);
    }
}
