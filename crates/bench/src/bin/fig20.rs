//! Figure 20 — TrainBox's effectiveness vs batch size (ResNet-50, 256
//! accelerators), normalized to the baseline at each batch size.

use trainbox_bench::{compare, emit_json, figure_main};
use trainbox_core::arch::ServerKind;
use trainbox_core::request::SimRequest;
use trainbox_nn::Workload;

/// One analytic what-if through the canonical request API — the exact
/// question (and code path) `trainbox-serve` answers over HTTP.
fn samples_per_sec(kind: ServerKind, batch: u64) -> f64 {
    let mut req = SimRequest::analytic(kind, 256, Workload::resnet50());
    req.server.batch_size = Some(batch);
    req.run()
        .unwrap_or_else(|e| panic!("invalid server configuration: {e}"))
        .outcome
        .samples_per_sec()
}

fn main() {
    // Sequential body: runs too quickly to benefit from the sweep-runner.
    figure_main("Figure 20", "TrainBox vs baseline across batch sizes (ResNet-50)", |_jobs| {
        println!("{:>8} {:>14} {:>14} {:>10}", "batch", "baseline", "trainbox", "speedup");
        let mut series = Vec::new();
        for batch in [8u64, 32, 128, 512, 2048, 8192] {
            let base = samples_per_sec(ServerKind::Baseline, batch);
            let tb = samples_per_sec(ServerKind::TrainBox, batch);
            println!("{batch:>8} {base:>14.0} {tb:>14.0} {:>9.1}x", tb / base);
            series.push((batch, tb / base));
        }
        compare(
            "speedup at the largest batch (paper: ~60x on its axis)",
            60.0,
            series.last().unwrap().1,
        );
        emit_json("fig20", &series);
    });
}
