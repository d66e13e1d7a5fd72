//! The figure-binary CLI from the outside: bad input must fail the run, not
//! quietly fall back to something that still exits 0.

use std::process::{Command, Output};

/// Run `table01` with the CLI's env knobs cleared, then `envs` set.
fn table01(envs: &[(&str, &std::ffi::OsStr)], args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table01"));
    for var in ["TRAINBOX_JOBS", "TRAINBOX_SIM_WORKERS", "TRAINBOX_RESULTS_DIR"] {
        cmd.env_remove(var);
    }
    cmd.envs(envs.iter().copied()).args(args).output().expect("spawn table01")
}

#[test]
fn malformed_sim_workers_env_is_a_usage_error() {
    let out = table01(&[("TRAINBOX_SIM_WORKERS", "two".as_ref())], &["--print-jobs"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn failed_results_write_fails_the_run() {
    // A directory path below a regular file cannot be created, whoever runs
    // the test.
    let file = std::env::temp_dir().join(format!("tb-cli-test-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("create blocker file");
    let out = table01(&[("TRAINBOX_RESULTS_DIR", file.join("results").as_os_str())], &[]);
    std::fs::remove_file(&file).expect("remove blocker file");
    assert!(!out.status.success(), "unwritable results dir still exited {}", out.status);
}
