//! `offline_repro`: the paper-reproduction path. Image and audio
//! `PrepPipeline`s through `BatchExecutor` at `nproc` workers over
//! synthetic corpora, then full regenerations of every figure binary into
//! a scratch directory, each checked byte-for-byte against the committed
//! `results/`.

use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use trainbox_dataprep::executor::{BatchExecutor, ExecutorConfig};
use trainbox_dataprep::pipeline::{DataItem, PrepPipeline};
use trainbox_dataprep::synth;

use crate::spans::{Recorder, Span};
use crate::{cpu, stats, Opts, Report};

/// The figure and table binaries of `scripts/reproduce.sh`, in its order.
const FIGURES: [&str; 24] = [
    "table01",
    "fig02b",
    "fig03",
    "fig05",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "table02",
    "table03",
    "fig19",
    "fig20",
    "fig21",
    "fig21_cluster",
    "fig22",
    "ablation_ring",
    "ablation_boxes",
    "ablation_nextgen",
    "ablation_prepnet",
    "ablation_prefetch",
    "batch_lr",
    "scale_up_vs_out",
    "ablation_faults",
    "ablation_sync",
];

/// Figures timed on their own in the traced run (`regen.<name>_ms`); the
/// rest are summed into `regen.rest_ms`.
const TRACED_FIGURES: [&str; 9] = [
    "batch_lr",
    "fig05",
    "ablation_faults",
    "ablation_prefetch",
    "ablation_sync",
    "fig19",
    "fig20",
    "fig21",
    "fig21_cluster",
];

/// Prep stage names → per-layer metric names.
const STAGES: [(&str, &str); 9] = [
    ("jpeg-decode", "prep.jpeg_decode_ms"),
    ("crop", "prep.crop_ms"),
    ("mirror", "prep.mirror_ms"),
    ("gaussian-noise", "prep.gaussian_noise_ms"),
    ("cast", "prep.cast_ms"),
    ("spectrogram", "prep.spectrogram_ms"),
    ("mel-filterbank", "prep.mel_ms"),
    ("masking", "prep.masking_ms"),
    ("norm", "prep.norm_ms"),
];

const IMAGES: usize = 32;
const CLIPS: usize = 8;
/// Share of the run's seconds spent on timed prep steps and
/// regenerations; the cycle in progress when it runs out is finished. The
/// rest is for the set-up rounds, a few seconds here.
const MEASURED_SHARE: f64 = 0.6;
/// Prep steps (one image batch then one audio batch) between two full
/// figure regenerations (the reference job): about 1.5 s per cycle on the
/// calibration host, so both sample the whole run.
const STEPS_PER_REGEN: usize = 20;
/// Regenerations however slow the host.
const MIN_REGENS: usize = 3;

/// The repository root this benchmark was built in.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..")
}

/// The directory holding the figure binaries: next to this executable when
/// both were built into one target directory, else the workspace's default
/// release directory.
fn figure_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let candidates = [
        exe.parent().map(Path::to_path_buf),
        Some(repo_root().join("target/release")),
    ];
    candidates
        .into_iter()
        .flatten()
        .find(|d| FIGURES.iter().all(|f| d.join(f).is_file()))
        .ok_or_else(|| {
            "figure binaries not found: run `cargo build --release --workspace` first".to_string()
        })
}

pub struct Offline {
    images: Vec<DataItem>,
    clips: Vec<DataItem>,
    image: PrepPipeline,
    audio: PrepPipeline,
    executor: BatchExecutor,
    figures: PathBuf,
}

impl Offline {
    pub fn setup(opts: &Opts) -> Result<Offline, String> {
        let base = opts.seed.wrapping_mul(1_000);
        Ok(Offline {
            images: (0..IMAGES as u64)
                .map(|i| DataItem::EncodedImage(synth::imagenet_like_jpeg(base + i)))
                .collect(),
            clips: (0..CLIPS as u64)
                .map(|i| DataItem::Waveform(synth::librispeech_like_clip(base + i)))
                .collect(),
            image: PrepPipeline::standard_image(),
            audio: PrepPipeline::standard_audio(),
            executor: BatchExecutor::new(ExecutorConfig {
                workers: opts.cores,
                queue_depth: 8,
            }),
            figures: figure_dir()?,
        })
    }

    /// A fresh copy of the corpora for one step (the executor consumes
    /// its batch), made outside the timed region.
    fn batches(&self) -> (Vec<DataItem>, Vec<DataItem>) {
        (self.images.clone(), self.clips.clone())
    }

    /// One prep step: the image batch, then the audio batch.
    fn step(
        &self,
        executor: &BatchExecutor,
        seed: u64,
        (images, clips): (Vec<DataItem>, Vec<DataItem>),
    ) -> Result<Vec<DataItem>, String> {
        let mut out = executor
            .run(&self.image, images, seed)
            .map_err(|e| e.to_string())?;
        out.extend(
            executor
                .run(&self.audio, clips, seed)
                .map_err(|e| e.to_string())?,
        );
        Ok(out)
    }

    /// Run every figure binary into `dir`; returns each one's wall time.
    fn regenerate(&self, dir: &Path, jobs: usize) -> Result<Vec<(&'static str, u64, u64)>, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let epoch = Instant::now();
        let mut times = Vec::with_capacity(FIGURES.len());
        for name in FIGURES {
            let start = epoch.elapsed().as_nanos() as u64;
            let status = Command::new(self.figures.join(name))
                .args(["-j", &jobs.to_string()])
                .env("TRAINBOX_RESULTS_DIR", dir)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .map_err(|e| format!("run {name}: {e}"))?;
            if !status.success() {
                return Err(format!("{name} exited with {status}"));
            }
            times.push((name, start, epoch.elapsed().as_nanos() as u64));
        }
        Ok(times)
    }
}

/// Hash of prepared tensors, to compare executor runs.
fn tensor_digest(items: &[DataItem]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for item in items {
        let data = match item {
            DataItem::FloatImage(f) => f.data(),
            DataItem::Spectrogram(s) => s.data(),
            other => panic!("prep produced a {}", other.kind_name()),
        };
        data.iter().for_each(|x| x.to_bits().hash(&mut h));
    }
    h.finish()
}

/// Every regenerated file must equal its committed twin in `results/`.
fn compare_to_results(dir: &Path) -> Result<(), String> {
    let results = repo_root().join("results");
    let mut files = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().expect("directory entries have names");
        let got = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let want = std::fs::read(results.join(name))
            .map_err(|e| format!("results/{} is missing: {e}", name.to_string_lossy()))?;
        if got != want {
            return Err(format!("{} differs from results/", name.to_string_lossy()));
        }
        files += 1;
    }
    if files != FIGURES.len() {
        return Err(format!(
            "{files} figure files regenerated, {} expected",
            FIGURES.len()
        ));
    }
    Ok(())
}

impl Offline {
    /// One full regeneration, timed and checked against `results/`; its CPU
    /// time is the figure binaries'.
    fn timed_regen(&self, j: usize, opts: &Opts, report: &mut Report, jobs: &mut Vec<(f64, f64)>) {
        report.attempted += 1;
        let dir = regen_dir(j);
        let (cpu0, t0) = (cpu::children(), Instant::now());
        let ran = self.regenerate(&dir, opts.cores);
        let job = (cpu::children() - cpu0, t0.elapsed().as_secs_f64());
        match ran {
            Ok(_) => {
                jobs.push(job);
                report.gate.check(compare_to_results(&dir));
            }
            Err(e) => {
                report.failed += 1;
                eprintln!("regeneration {j}: {e}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn regen_dir(j: usize) -> PathBuf {
    crate::scratch_dir().join(format!("regen-{}-{j}", std::process::id()))
}

impl crate::Workload for Offline {
    fn measure(&mut self, opts: &Opts, report: &mut Report) {
        let until = Instant::now() + Duration::from_secs_f64(opts.secs(MEASURED_SHARE));
        let (per_regen, min_regens) = if opts.smoke {
            (5, 1)
        } else {
            (STEPS_PER_REGEN, MIN_REGENS)
        };
        let mut latencies = Vec::new();
        let mut step_cpu = Vec::new();
        let mut jobs = Vec::new();
        let mut first = None;
        let mut s = 0;
        while s < min_regens * per_regen || Instant::now() < until {
            report.attempted += 1;
            report.tick();
            let batches = self.batches();
            // Process CPU time: the executor's workers are threads.
            let (cpu0, t0) = (cpu::process(), Instant::now());
            let out = self.step(&self.executor, s as u64, batches);
            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
            step_cpu.push((cpu::process() - cpu0) * 1e3);
            match out {
                Ok(items) if s == 0 => first = Some(tensor_digest(&items)),
                Ok(_) => {}
                Err(e) => {
                    report.failed += 1;
                    eprintln!("prep step {s}: {e}");
                }
            }
            s += 1;
            if s % per_regen == 0 {
                report.tick();
                self.timed_regen(s / per_regen, opts, report, &mut jobs);
            }
        }
        // The executor's contract: any worker count prepares the same bytes.
        let one = BatchExecutor::new(ExecutorConfig {
            workers: 1,
            queue_depth: 8,
        });
        match (first, self.step(&one, 0, self.batches())) {
            (Some(a), Ok(items)) if a == tensor_digest(&items) => {}
            (a, b) => report.gate.fail(format!(
                "prep tensors differ between 1 and {} workers ({a:?} vs {:?})",
                opts.cores,
                b.map(|i| tensor_digest(&i))
            )),
        }
        report.fix("image_batch", IMAGES as f64);
        report.fix("audio_batch", CLIPS as f64);
        report.fix("prep_workers", opts.cores as f64);
        report.fix("figures", FIGURES.len() as f64);
        let tail = stats::highest_tail(latencies.len());
        report.latency(&[latencies], tail);
        report.ops(stats::median(&step_cpu), step_cpu.len());
        report.job(&jobs);
    }

    fn trace(&mut self, opts: &Opts, report: &mut Report, rec: &mut Recorder) {
        // Single-thread cost of every stage, per sample.
        for (pipeline, items) in [(&self.image, &self.images), (&self.audio, &self.clips)] {
            let mut rng = StdRng::seed_from_u64(opts.seed);
            match pipeline.measure(items.clone(), &mut rng) {
                Ok(costs) => {
                    for c in costs {
                        if let Some((_, metric)) = STAGES.iter().find(|(stage, _)| *stage == c.name)
                        {
                            report.set(metric, c.mean_secs() * 1e3);
                        }
                    }
                }
                Err(e) => report.gate.fail(format!("PrepPipeline::measure: {e}")),
            }
        }

        // Executor efficiency: nproc-worker throughput over nproc times the
        // single-worker throughput, on the same steps.
        let one = BatchExecutor::new(ExecutorConfig {
            workers: 1,
            queue_depth: 8,
        });
        let reps = opts.count(10, 2);
        let mut time = |ex: &BatchExecutor| {
            let mut secs = 0.0;
            for s in 0..reps {
                report.attempted += 1;
                let batches = self.batches();
                let t0 = Instant::now();
                if self.step(ex, s as u64, batches).is_err() {
                    report.failed += 1;
                }
                secs += t0.elapsed().as_secs_f64();
            }
            secs
        };
        let (t1, tn) = (time(&one), time(&self.executor));
        report.set("prep.executor_efficiency", t1 / tn / opts.cores as f64);

        // One regeneration, one span per figure binary.
        let dir = regen_dir(0);
        report.attempted += 1;
        match self.regenerate(&dir, opts.cores) {
            Ok(times) => {
                let mut rest = 0.0;
                for (t, (name, start_ns, end_ns)) in times.into_iter().enumerate() {
                    rec.push(Span {
                        name,
                        trace: t as u64,
                        parent: None,
                        start_ns,
                        end_ns,
                    });
                    let ms = (end_ns - start_ns) as f64 / 1e6;
                    if TRACED_FIGURES.contains(&name) {
                        report.set(&format!("regen.{name}_ms"), ms);
                    } else {
                        rest += ms;
                    }
                }
                report.set("regen.rest_ms", rest);
                report.gate.check(compare_to_results(&dir));
            }
            Err(e) => {
                report.failed += 1;
                eprintln!("regeneration: {e}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn finish(self: Box<Self>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_traced_figure_is_a_figure_with_a_metric() {
        for name in TRACED_FIGURES {
            assert!(FIGURES.contains(&name));
            assert!(crate::PER_LAYER
                .iter()
                .any(|(m, _)| *m == format!("regen.{name}_ms")));
        }
        for (_, metric) in STAGES {
            assert!(crate::PER_LAYER.iter().any(|(m, _)| *m == metric));
        }
    }
}
