//! Figure 21 — scalability test for Inception-v4 and TF-SR across
//! preparation designs: Baseline (CPU), B+Acc (GPU), B+Acc (FPGA),
//! TrainBox without prep-pool, TrainBox.

use trainbox_bench::{compare, emit_json, figure_main, ACCEL_SWEEP};
use trainbox_core::arch::{throughput_of, ServerKind};
use trainbox_nn::Workload;

fn main() {
    // Sequential body: runs too quickly to benefit from the sweep-runner.
    figure_main(
        "Figure 21",
        "Scalability for Inception-v4 and TF-SR (normalized to 1 accelerator)",
        |_jobs| {
            let designs = [
                ServerKind::Baseline,
                ServerKind::AccGpu,
                ServerKind::AccFpga,
                ServerKind::TrainBoxNoPool,
                ServerKind::TrainBox,
            ];
            let mut dump = Vec::new();
            for w in [Workload::inception_v4(), Workload::transformer_sr()] {
                println!("\n({})", w.name);
                print!("{:<8}", "n");
                for d in designs {
                    print!(" {:>22}", d.label());
                }
                println!();
                for n in ACCEL_SWEEP {
                    print!("{n:<8}");
                    for d in designs {
                        let v = throughput_of(d, n, &w).samples_per_sec / w.accel_samples_per_sec;
                        print!(" {v:>22.1}");
                        dump.push((w.name.clone(), d.label(), n, v));
                    }
                    println!();
                }
            }
            let inc = Workload::inception_v4();
            let sr = Workload::transformer_sr();
            println!();
            compare(
                "Inception-v4 baseline saturation (paper: 18.3 accelerators)",
                18.3,
                throughput_of(ServerKind::Baseline, 256, &inc).samples_per_sec
                    / inc.accel_samples_per_sec,
            );
            compare(
                "TF-SR baseline saturation (paper: 4.4 accelerators)",
                4.4,
                throughput_of(ServerKind::Baseline, 256, &sr).samples_per_sec
                    / sr.accel_samples_per_sec,
            );
            compare(
                "TF-SR TrainBox at 256 (paper: reaches ~256)",
                256.0,
                throughput_of(ServerKind::TrainBox, 256, &sr).samples_per_sec
                    / sr.accel_samples_per_sec,
            );
            emit_json("fig21", &dump);
        },
    );
}
