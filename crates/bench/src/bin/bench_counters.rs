//! Exact work counters of the simulator core, gated byte for byte by CI.
//!
//! Four fixed DES scenarios run once each at `--sim-workers`: a TrainBox
//! server, the same server under a seeded fault storm, a 16-server cluster
//! and a 64-lane fig20-scale server. Each records deterministic work
//! counters and an FNV-1a digest of its serialized result; nothing is timed
//! (speed is the whole-stack benchmark's: `crates/bench/src/bin/benchmark/`).
//! Every field is independent of the worker count, so the ledger
//! `scripts/reproduce.sh` writes to `results/bench_counters.json` must diff
//! equal at any `--sim-workers`.

use serde::Serialize;
use trainbox_bench::{emit_json, figure_main, sim_workers};
use trainbox_core::arch::ServerKind::{self, TrainBox, TrainBoxNoPool};
use trainbox_core::faults::{FaultDomain, FaultPlan};
use trainbox_core::pipeline::{intra_server_run_stats, SimConfig, SimResult};
use trainbox_core::request::{canonical_hash_of, SimOutcome, SimRequest};
use trainbox_core::scaleout::ClusterSpec;
use trainbox_nn::Workload;
use trainbox_sim::par;

/// A single-engine run (`injected` is 0 without a fault plan).
#[derive(Serialize)]
struct Solo {
    events: u64,
    recomputes: u64,
    injected: u64,
    /// FNV-1a 64 of the serialized `SimResult`, as hex.
    digest: String,
}

/// A run partitioned into logical processes: cluster servers or lanes.
#[derive(Serialize)]
struct Partitioned {
    lps: usize,
    events: u64,
    recomputes: u64,
    windows: u64,
    /// Max/mean ratio of per-LP event totals.
    imbalance: f64,
    work_span_speedup_4: f64,
    /// FNV-1a 64 of the serialized `SimResult` / `ClusterResult`, as hex.
    digest: String,
}

#[derive(Serialize)]
struct Ledger {
    schema: &'static str,
    des: Solo,
    fault_storm: Solo,
    cluster: Partitioned,
    lanes: Partitioned,
}

fn digest<T: Serialize>(result: &T) -> String {
    let text = serde_json::to_string(result).expect("results serialize");
    format!("{:016x}", canonical_hash_of(&text))
}

fn request(kind: ServerKind, n: usize, w: Workload, batch: u64, sim: SimConfig) -> SimRequest {
    let mut req = SimRequest::des(kind, n, w, sim);
    req.server.batch_size = Some(batch);
    req
}

fn cfg(chunk_samples: u64, batches: u64, warmup_batches: u64) -> SimConfig {
    SimConfig {
        chunk_samples,
        batches,
        warmup_batches,
        prefetch_batches: 1,
        max_events: 50_000_000,
        parallel_workers: sim_workers(),
    }
}

fn run(req: &SimRequest) -> SimOutcome {
    req.run().unwrap_or_else(|e| panic!("simulation failed: {e}")).outcome
}

fn run_des(req: &SimRequest) -> SimResult {
    let SimOutcome::Des(r) = run(req) else { unreachable!("a DES request answers DES") };
    r
}

fn solo(r: &SimResult) -> Solo {
    let (events, recomputes, injected) = (r.events, r.recomputes, r.faults.injected);
    Solo { events, recomputes, injected, digest: digest(r) }
}

fn main() {
    figure_main("bench_counters", "exact work counters of the simulator core", |_jobs| {
        let mut req = request(TrainBox, 16, Workload::inception_v4(), 512, cfg(32, 10, 4));
        let healthy = run_des(&req);

        // The same server under a seeded storm of 16 faults over its horizon.
        let server = req.build_server().unwrap_or_else(|e| panic!("invalid server: {e}"));
        let horizon = healthy.batch_done_at.last().expect("batches ran").as_secs_f64();
        let domain = FaultDomain {
            n_ssds: server.topology().ssds.len(),
            n_preps: server.topology().preps.len(),
            n_accels: server.n_accels(),
            n_links: healthy.link_bytes.len(),
            horizon_secs: horizon,
        };
        req.faults = Some(FaultPlan::seeded(0x5eed_0b5e, 16.0 / horizon, &domain));
        let stormy = run_des(&req);

        // A rack of 16 TrainBox (no pool) servers, one logical process each.
        let req = request(TrainBoxNoPool, 8, Workload::inception_v4(), 256, cfg(64, 5, 1));
        let SimOutcome::Cluster(c) = run(&req.with_cluster(ClusterSpec::rack_default(16))) else {
            unreachable!("a cluster request answers Cluster")
        };

        // One fig20-scale TrainBox (no pool) server, one logical process per
        // lane; the partition's accounting comes from a second lane run.
        let (resnet, sim) = (Workload::resnet50(), cfg(32, 3, 1));
        let req = request(TrainBoxNoPool, 256, resnet.clone(), 8_192, sim);
        let lane_run = run_des(&req);
        let server = req.build_server().unwrap_or_else(|e| panic!("invalid server: {e}"));
        let (lanes, stats) = intra_server_run_stats(&server, &resnet, &sim, &FaultPlan::empty())
            .expect("a fig20-scale TrainBoxNoPool server partitions into lanes");

        let ledger = Ledger {
            schema: "trainbox.bench_counters.v1",
            des: solo(&healthy),
            fault_storm: solo(&stormy),
            cluster: Partitioned {
                lps: c.servers,
                events: c.events,
                recomputes: c.recomputes,
                windows: c.windows,
                imbalance: c.imbalance,
                work_span_speedup_4: c.work_span_speedup_4,
                digest: digest(&c),
            },
            lanes: Partitioned {
                lps: lanes,
                events: lane_run.events,
                recomputes: lane_run.recomputes,
                windows: stats.windows,
                imbalance: par::imbalance(&stats.lp_events),
                work_span_speedup_4: par::work_span_speedup(&stats.window_events, 4),
                digest: digest(&lane_run),
            },
        };
        println!("{}", serde_json::to_string_pretty(&ledger).expect("ledger serializes"));
        emit_json("bench_counters", &ledger);
    });
}
