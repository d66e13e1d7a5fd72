//! Companion experiment to §II-B's third fold: large batches need a
//! retuned (larger) learning rate (Goyal et al., the paper's \[13\]) — the
//! algorithmic advance that makes large-batch training viable and thereby
//! shifts the bottleneck toward data preparation.

use trainbox_bench::{emit_json, figure_main, run_sweep};
use trainbox_nn::train::{
    batch_scaling_points, prepare_scaling, reduce_batch_scaling, run_distinct_points,
    run_with_batch_prepared, AugExperimentConfig,
};

fn main() {
    figure_main(
        "Batch/LR",
        "Large-batch accuracy: base learning rate vs retuned rate",
        |jobs| {
            let cfg = AugExperimentConfig {
                epochs: 16,
                ..AugExperimentConfig::default()
            };
            // Each (batch, lr) training run is independent and self-seeded, so
            // the sweep fans out across threads and folds back
            // deterministically. The test set, initial weights, and augmented
            // sample stream are identical at every point, so they are
            // generated once and shared, and a point the rate grid repeats
            // runs once.
            let batches = [32usize, 128, 256];
            let points = batch_scaling_points(32, &batches, cfg.lr);
            let prep = prepare_scaling(&cfg);
            let accs = run_distinct_points(&points, |distinct| {
                run_sweep(jobs, distinct, |_, (batch, lr)| {
                    run_with_batch_prepared(&prep, batch, lr)
                })
            });
            let rows = reduce_batch_scaling(32, &batches, cfg.lr, &accs);
            println!(
                "{:>8} {:>16} {:>16} {:>10}",
                "batch", "base-lr top-1", "tuned-lr top-1", "best lr"
            );
            for (batch, fixed, tuned, lr) in &rows {
                println!("{batch:>8} {fixed:>16.3} {tuned:>16.3} {lr:>10.3}");
            }
            println!(
                "\n(the accuracy a large batch loses at the base rate is recovered by a\n\
                 larger rate — §II-B: \"using a proper learning rate can remove such\n\
                 instability\", which enables the batch sizes of Table I)"
            );
            emit_json("batch_lr", &rows);
        },
    );
}
