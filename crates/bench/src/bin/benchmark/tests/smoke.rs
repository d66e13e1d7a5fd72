//! Drive `benchmark --smoke` end to end, so the benchmark cannot rot: every
//! workload runs through the code a measured run uses, at tiny sizes, in a
//! child process of its own, and every answer it gives is checked.
//!
//! The figure binaries must be built first (`cargo build --release
//! --workspace` at the repository root); `offline_repro` runs them.

use std::process::Command;

use trainbox_sim::json::{self, Value};

const WORKLOADS: [&str; 5] = [
    "serve_hot",
    "serve_des",
    "des_contended",
    "des_lanes",
    "offline_repro",
];
const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "op_cpu_ms", "job_cpu_s"];

fn smoke(trace: &str) -> Value {
    let scratch =
        std::env::temp_dir().join(format!("benchmark-smoke-{}-{trace}", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--smoke", "--seed", "3", "--trace", trace])
        .env("CARGO_TARGET_DIR", &scratch)
        .output()
        .expect("run the benchmark");
    let _ = std::fs::remove_dir_all(&scratch);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let verdict =
        json::parse(stdout.lines().last().expect("a verdict line")).expect("the verdict is JSON");
    assert_eq!(
        verdict.get("correct").and_then(Value::as_bool),
        Some(true),
        "{stdout}"
    );
    assert_eq!(
        verdict.get("failed").and_then(Value::as_f64),
        Some(0.0),
        "{stdout}"
    );
    assert!(
        verdict
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            > 0.0
    );
    verdict
}

#[test]
fn every_workload_runs_and_answers_correctly() {
    let verdict = smoke("0");
    let metrics = verdict.get("metrics").expect("metrics");
    for w in WORKLOADS {
        for m in END_TO_END {
            let value = metrics
                .get(&format!("{w}.{m}"))
                .and_then(|v| v.get("value"))
                .and_then(Value::as_f64);
            assert!(value.is_some_and(|v| v > 0.0), "{w}.{m} = {value:?}");
        }
    }
}

#[test]
fn every_workload_traces_and_loads_its_layer() {
    let verdict = smoke("1");
    let metric = |w: &str, m: &str| {
        verdict
            .get("metrics")
            .and_then(|ms| ms.get(&format!("{w}.{m}")))
            .and_then(|v| v.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{w}.{m} missing"))
    };
    // Each workload enters the layer it was chosen for...
    assert!(metric("serve_hot", "cache.get_us") > 0.0);
    assert!(metric("serve_des", "des.events") > 0.0);
    assert!(metric("des_contended", "des.run_ms.baseline_dlrm_8") > 0.0);
    assert!(metric("des_lanes", "par.windows") > 0.0);
    assert!(metric("offline_repro", "prep.spectrogram_ms") > 0.0);
    // ...and not the ones it was chosen to leave alone.
    assert_eq!(metric("serve_hot", "des.events"), 0.0);
    assert_eq!(metric("des_contended", "par.windows"), 0.0);
    assert_eq!(metric("des_contended", "cache.get_us"), 0.0);
    // The allocator-bound questions cost far more host time per event.
    assert!(
        metric("des_contended", "des.ns_per_event")
            > 20.0 * metric("des_lanes", "des.ns_per_event")
    );
}
