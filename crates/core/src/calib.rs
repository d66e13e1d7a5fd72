//! Calibration constants, each derived from a specific statement or figure
//! of the paper.
//!
//! The paper profiled a real 48-core prototype (§III-B1); we cannot reproduce
//! its absolute numbers, so every constant here is *anchored* to a number the
//! paper reports and the derivation is recorded next to it. The claims under
//! test are shapes — who wins, where curves saturate, which resource binds —
//! not absolute samples/s.

use trainbox_nn::InputKind;

/// The DGX-2-class reference host the paper normalizes against (§III-C).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceHost {
    /// Physical CPU cores ("our machine having two-socket Xeon CPUs (i.e.,
    /// 48 physical cores)", §III-B1).
    pub cpu_cores: f64,
    /// Host memory bandwidth ("what DGX-2 provides (i.e., 239 GB/s)",
    /// §III-C).
    pub mem_bytes_per_sec: f64,
    /// Aggregate root-complex PCIe bandwidth, both directions. DGX-2 attaches
    /// its device tree through multiple x16 Gen3 root ports across two CPUs;
    /// 112 GB/s (7 × x16) makes the paper's Fig 10c normalizations come out
    /// (max ≈ 18×, mean ≈ 7×) with our per-sample traffic model.
    pub rc_pcie_bytes_per_sec: f64,
}

/// The reference host used throughout the evaluation.
pub const DGX2: ReferenceHost = ReferenceHost {
    cpu_cores: 48.0,
    mem_bytes_per_sec: 239e9,
    rc_pcie_bytes_per_sec: 112e9,
};

/// Per-sample data sizes along the preparation path, bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleSizes {
    /// On-SSD stored size (compressed JPEG / 16-bit PCM).
    pub stored: f64,
    /// Accelerator-ready tensor size (the "data load" of Fig 11).
    pub tensor: f64,
}

impl SampleSizes {
    /// Sizes for a given input modality.
    ///
    /// * Image: 256×256 JPEG ≈ 35 KB stored, a typical ImageNet train-set
    ///   file. The synthetic corpus (`synth::imagenet_like_jpeg`) is
    ///   smoother than photographs and encodes to about 9,340 B; the model
    ///   keeps the ImageNet size. The 224×224×3 float tensor is 602,112 B —
    ///   the paper's "0.15 MB" u8 crop (§III-D) amplified 4× by the
    ///   char→float cast (§III-C).
    /// * Audio: 6.96 s × 16 kHz × 2 B = 222,720 B stored (§III-B1); the
    ///   float log-Mel tensor (693 frames × 128 bins × 4 B) is 354,816 B —
    ///   the "amplified data size due to ... SFFT for Mel spectrogram"
    ///   (§III-C). The standard audio pipeline keeps 80 Mel bands
    ///   (693 × 80 × 4 = 221,760 B for a 6.96 s clip); the model keeps the
    ///   128-bin tensor.
    ///
    /// The DSL modalities (no paper row; anchored to their preset graphs):
    ///
    /// * Text: one packed 2048-token sequence ≈ 16 KB of UTF-8 in, 8 KB of
    ///   `u32` token ids out (tokenization *compresses*, the one modality
    ///   that does).
    /// * Video: an 8-frame MJPEG clip ≈ 280 KB stored; 8 frames of the
    ///   image tensor (8 × 602,112 B) out.
    /// * Tabular: a 512 B click-log record in; dense features + looked-up
    ///   embedding rows (2,176 B) out.
    pub fn for_input(input: InputKind) -> SampleSizes {
        match input {
            InputKind::Image => SampleSizes { stored: 35_000.0, tensor: 602_112.0 },
            InputKind::Audio => SampleSizes { stored: 222_720.0, tensor: 354_816.0 },
            InputKind::Text => SampleSizes { stored: 16_384.0, tensor: 8_192.0 },
            InputKind::Video => SampleSizes { stored: 280_000.0, tensor: 4_816_896.0 },
            InputKind::Tabular => SampleSizes { stored: 512.0, tensor: 2_176.0 },
        }
    }
}

/// CPU core-seconds to prepare one sample on the baseline (formatting +
/// augmentation + load management, per §III-C).
///
/// Derivations:
/// * Image: Fig 10a's maximum is "4,833 cores (100.7× DGX-2)" at 256
///   accelerators, which our workload table hits for RNN-S (the highest
///   per-accelerator throughput): `4833 / (256 × 12022 sample/s) = 1.5705 ms`.
///   Cross-check: Inception-v4's baseline then saturates at
///   `48 / (1669 × 1.5705 ms) = 18.3` accelerators — exactly Fig 21a.
/// * Audio: Fig 21b says the TF-SR baseline saturates at 4.4 accelerators:
///   `48 / (2001 × c) = 4.4 ⇒ c = 5.452 ms`. Cross-check: TF-AA's TrainBox
///   speedup then comes out at `256×2889 / (48/5.452ms) = 84.0×` — the
///   paper's 84.3× maximum (§VI-C).
///
/// The DSL modalities equal their preset stage-graph sums (so a flat
/// workload over the new modality and the preset's explicit graph agree):
/// Text = BPE tokenization of a long sequence; Video = 8 per-frame decodes
/// plus demux/sampling; Tabular = microseconds of lookup assembly.
pub fn cpu_secs_per_sample(input: InputKind) -> f64 {
    match input {
        InputKind::Image => 1.5705e-3,
        InputKind::Audio => 5.452e-3,
        InputKind::Text => 2.9e-3,
        InputKind::Video => 8.01e-3,
        InputKind::Tabular => 9.5e-6,
    }
}

/// CPU core-seconds per sample once preparation is offloaded (driver and
/// orchestration only). The P2P step further reduces it by offloading the
/// NVMe interactions to the prep accelerator's P2P handler (§VI-E).
pub fn cpu_driver_secs_per_sample(p2p: bool) -> f64 {
    if p2p {
        15e-6
    } else {
        40e-6
    }
}

/// Host memory traffic per sample on the **baseline** (bytes read+written),
/// decomposed as in Fig 11.
///
/// Image: stored(35K) + formatting/augmentation passes (688K) + data load
/// (602K) = 1.325 MB. With this, Fig 10b's maximum required memory bandwidth
/// at 256 accelerators is `256 × 12022 × 1.325 MB / 239 GB/s = 17.1×` DGX-2 —
/// the paper reports "up to 17.9×".
///
/// Audio: data load (355K) is 21.1% of memory traffic per Fig 11b ⇒ total
/// 1.682 MB, split stored(222.7K) + formatting/augmentation (1.104 MB) +
/// load (355K).
pub fn baseline_mem_bytes_per_sample(input: InputKind) -> MemBreakdown {
    let s = SampleSizes::for_input(input);
    match input {
        InputKind::Image => MemBreakdown {
            ssd_read: s.stored,
            formatting: 458_000.0,
            augmentation: 230_000.0,
            data_load: s.tensor,
            data_copy: 0.0,
            others: 30_000.0,
        },
        InputKind::Audio => MemBreakdown {
            ssd_read: s.stored,
            formatting: 773_000.0,
            augmentation: 331_000.0,
            data_load: s.tensor,
            data_copy: 0.0,
            others: 30_000.0,
        },
        // DSL modalities: working-set passes scaled from the preset
        // graphs' byte flows (tokenize buffers ~3x the text; video decode
        // touches the frame tensor; tabular is lookup-table reads).
        InputKind::Text => MemBreakdown {
            ssd_read: s.stored,
            formatting: 48_000.0,
            augmentation: 0.0,
            data_load: s.tensor,
            data_copy: 0.0,
            others: 8_000.0,
        },
        InputKind::Video => MemBreakdown {
            ssd_read: s.stored,
            formatting: 3_700_000.0,
            augmentation: 1_000_000.0,
            data_load: s.tensor,
            data_copy: 0.0,
            others: 30_000.0,
        },
        InputKind::Tabular => MemBreakdown {
            ssd_read: s.stored,
            formatting: 0.0,
            augmentation: 2_176.0,
            data_load: s.tensor,
            data_copy: 0.0,
            others: 512.0,
        },
    }
}

/// A per-operation-class decomposition of one resource (the legend of
/// Figures 11 and 22).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemBreakdown {
    /// SSD → host transfer buffering.
    pub ssd_read: f64,
    /// Data formatting passes (decode, cast, STFT, Mel).
    pub formatting: f64,
    /// Data augmentation passes (crop, mirror, noise, masking).
    pub augmentation: f64,
    /// Host → accelerator staging of the prepared tensor.
    pub data_load: f64,
    /// Host-mediated staging to/from prep accelerators (Step-1 designs).
    pub data_copy: f64,
    /// Bookkeeping, queues, metadata.
    pub others: f64,
}

impl MemBreakdown {
    /// Total bytes per sample.
    pub fn total(&self) -> f64 {
        self.ssd_read + self.formatting + self.augmentation + self.data_load + self.data_copy + self.others
    }
}

/// Fraction of baseline prep CPU time by operation class (Fig 11 "CPU").
/// Set proportions, normalized to sum to 1 (JPEG decode dominates the image
/// path; STFT dominates audio). They are calibration constants, not
/// measurements of this repository's kernels. A traced run of the standard
/// pipelines splits image formatting to augmentation about 0.61 : 0.39,
/// close to the 0.63 : 0.37 here, but audio about 0.99 : 0.01 against
/// 0.75 : 0.25 here: masking, the audio pipeline's one augmentation stage,
/// costs far less than its STFT and Mel stages.
pub fn cpu_fractions(input: InputKind) -> CpuFractions {
    match input {
        InputKind::Image => CpuFractions {
            ssd_read: 0.03,
            formatting: 0.55,
            augmentation: 0.32,
            data_load: 0.07,
            others: 0.03,
        },
        InputKind::Audio => CpuFractions {
            ssd_read: 0.02,
            formatting: 0.66,
            augmentation: 0.22,
            data_load: 0.07,
            others: 0.03,
        },
        // DSL modalities, proportioned like their preset graphs:
        // tokenization dominates text, per-frame decode dominates video,
        // and tabular prep is mostly irregular lookup/data-load time.
        InputKind::Text => CpuFractions {
            ssd_read: 0.02,
            formatting: 0.90,
            augmentation: 0.0,
            data_load: 0.08,
            others: 0.0,
        },
        InputKind::Video => CpuFractions {
            ssd_read: 0.02,
            formatting: 0.86,
            augmentation: 0.05,
            data_load: 0.07,
            others: 0.0,
        },
        InputKind::Tabular => CpuFractions {
            ssd_read: 0.13,
            formatting: 0.0,
            augmentation: 0.19,
            data_load: 0.68,
            others: 0.0,
        },
    }
}

/// CPU-time fractions by operation class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuFractions {
    /// NVMe driver / IO submission.
    pub ssd_read: f64,
    /// Formatting kernels.
    pub formatting: f64,
    /// Augmentation kernels.
    pub augmentation: f64,
    /// DMA staging for the accelerator load.
    pub data_load: f64,
    /// Everything else.
    pub others: f64,
}

/// Throughput of one FPGA data-preparation accelerator, samples/s.
///
/// Derivations:
/// * Audio: §VI-D says TF-SR reaches the 256-accelerator target with "54%
///   more FPGA resources from the prep-pool". Per train box the demand is
///   8 × 2001 = 16,008 sample/s against 2 in-box FPGAs:
///   `2f × 1.54 = 16,008 ⇒ f ≈ 5,200`.
/// * Image: chosen so a train box's two FPGAs cover Inception-v4 and VGG-19
///   locally (§VI-D: Inception "reaches the target throughput without the
///   prep-pool") while ResNet-50 and the caption RNNs need pool help:
///   20,000 sample/s ≈ 0.7 GB/s of JPEG input per FPGA, ~31× one Xeon core —
///   in line with the paper's claim that a few FPGAs replace dozens of cores.
///
/// DSL modalities: tokenization pipelines on FPGAs stream ~24k
/// sequences/s; video decode is 8 image decodes per clip (20,000/8 =
/// 2,500 clips/s); tabular assembly is bandwidth-bound and very fast.
pub fn fpga_samples_per_sec(input: InputKind) -> f64 {
    match input {
        InputKind::Image => 20_000.0,
        InputKind::Audio => 5_200.0,
        InputKind::Text => 24_000.0,
        InputKind::Video => 2_500.0,
        InputKind::Tabular => 1_500_000.0,
    }
}

/// Throughput of one GPU used for data preparation, samples/s (the Fig 21
/// comparison arm). Much lower than the FPGA on images because Huffman
/// decoding resists GPU parallelization (§V-B, citing \[40\]); somewhat lower
/// on audio because many small FFTs favor FPGAs (§V-B, citing \[39\]).
pub fn gpu_prep_samples_per_sec(input: InputKind) -> f64 {
    match input {
        InputKind::Image => 4_500.0,
        InputKind::Audio => 2_600.0,
        // Branchy BPE merges resist GPU parallelization even more than
        // Huffman decode; video inherits the image decode gap per frame;
        // tabular gather/scatter maps well but stays below the FPGA NIC
        // path.
        InputKind::Text => 3_000.0,
        InputKind::Video => 560.0,
        InputKind::Tabular => 900_000.0,
    }
}

/// Sustained NVMe SSD read bandwidth, bytes/s (Gen3 x4 class device).
pub const SSD_READ_BYTES_PER_SEC: f64 = 3.2e9;

/// 100 GbE payload bandwidth per prep-accelerator NIC (§IV-D: "100Gbs =
/// 12.5GB/s").
pub const ETHERNET_BYTES_PER_SEC: f64 = 12.5e9;

/// Per-sample bytes over the prep-pool Ethernet when offloading one sample:
/// the raw input travels to the pool FPGA and the prepared tensor comes
/// back. We charge the full round trip (stored + tensor) against one NIC
/// budget — the port is a single shared MAC/protocol engine (Fig 17), so RX
/// and TX contend for the same packet-processing pipeline.
pub fn ethernet_bytes_per_offloaded_sample(input: InputKind) -> f64 {
    let s = SampleSizes::for_input(input);
    s.stored + s.tensor
}

/// Efficiency of a neural-network accelerator as a function of batch size,
/// relative to its Table-I throughput (measured at the largest batch). The
/// paper's Fig 20 notes "better efficiency of neural network accelerators
/// (i.e., higher resource utilization with a larger batch)"; we model the
/// standard saturating form `eff(b) = (b/(b+k)) / (B/(B+k))` with `k` =
/// half the Table-I batch, so `eff(B) = 1`.
pub fn batch_efficiency(batch: u64, table_batch: u64) -> f64 {
    assert!(batch > 0 && table_batch > 0, "batch sizes must be positive");
    let k = table_batch as f64 / 2.0;
    let b = batch as f64;
    let full = table_batch as f64;
    (b / (b + k)) / (full / (full + k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use trainbox_nn::Workload;

    #[test]
    fn image_cpu_cost_reproduces_paper_anchors() {
        let c = cpu_secs_per_sample(InputKind::Image);
        // Fig 10a max: RNN-S at 256 accelerators needs ~4,833 cores (100.7x).
        let cores = 256.0 * Workload::rnn_s().accel_samples_per_sec * c;
        assert!((cores - 4833.0).abs() < 30.0, "cores={cores}");
        assert!((cores / 48.0 - 100.7).abs() < 1.0);
        // Fig 21a: Inception-v4 baseline saturates at ~18.3 accelerators.
        let sat = 48.0 / (Workload::inception_v4().accel_samples_per_sec * c);
        assert!((sat - 18.3).abs() < 0.2, "sat={sat}");
    }

    #[test]
    fn audio_cpu_cost_reproduces_paper_anchors() {
        let c = cpu_secs_per_sample(InputKind::Audio);
        // Fig 21b: TF-SR saturates at ~4.4 accelerators.
        let sat = 48.0 / (Workload::transformer_sr().accel_samples_per_sec * c);
        assert!((sat - 4.4).abs() < 0.1, "sat={sat}");
        // §VI-C: the largest TrainBox improvement is TF-AA at ~84x.
        let baseline = 48.0 / c;
        let speedup = 256.0 * Workload::transformer_aa().accel_samples_per_sec / baseline;
        assert!((speedup - 84.3).abs() < 2.0, "speedup={speedup}");
    }

    #[test]
    fn memory_model_reproduces_fig10b_max() {
        let m = baseline_mem_bytes_per_sample(InputKind::Image).total();
        let ratio = 256.0 * Workload::rnn_s().accel_samples_per_sec * m / DGX2.mem_bytes_per_sec;
        // Paper: "up to 17.9x higher memory bandwidth than DGX-2".
        assert!((ratio - 17.9).abs() < 1.0, "ratio={ratio}");
    }

    #[test]
    fn audio_mem_breakdown_matches_fig11b_load_share() {
        let m = baseline_mem_bytes_per_sample(InputKind::Audio);
        let share = m.data_load / m.total();
        // Fig 11b: data load is 21.1% of audio memory traffic.
        assert!((share - 0.211).abs() < 0.01, "share={share}");
    }

    #[test]
    fn pcie_model_reproduces_fig10c_regime() {
        // Per-sample RC traffic on the baseline: stored up + tensor down.
        let mut ratios = Vec::new();
        for w in Workload::all() {
            let s = SampleSizes::for_input(w.input);
            let per_sample = s.stored + s.tensor;
            ratios.push(256.0 * w.accel_samples_per_sec * per_sample / DGX2.rc_pcie_bytes_per_sec);
        }
        let max = ratios.iter().copied().fold(0.0f64, f64::max);
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        // Paper: up to 18.0x, 7.1x on average.
        assert!((max - 18.0).abs() < 1.5, "max={max}");
        assert!((mean - 7.1).abs() < 1.0, "mean={mean}");
    }

    #[test]
    fn prep_pool_share_for_tf_sr_is_54_percent() {
        // §VI-D: TF-SR reaches target with 54% more FPGA resources.
        let demand_per_box = 8.0 * Workload::transformer_sr().accel_samples_per_sec;
        let in_box = 2.0 * fpga_samples_per_sec(InputKind::Audio);
        let extra = (demand_per_box - in_box) / in_box;
        assert!((extra - 0.54).abs() < 0.01, "extra={extra}");
    }

    #[test]
    fn cast_amplification_is_4x() {
        let s = SampleSizes::for_input(InputKind::Image);
        // 224*224*3 u8 = 150,528; float = 602,112.
        assert_eq!(s.tensor, 150_528.0 * 4.0);
    }

    #[test]
    fn cpu_fractions_sum_to_one() {
        for input in [InputKind::Image, InputKind::Audio] {
            let f = cpu_fractions(input);
            let sum = f.ssd_read + f.formatting + f.augmentation + f.data_load + f.others;
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(f.formatting > f.augmentation, "formatting dominates (Fig 11)");
        }
    }

    #[test]
    fn batch_efficiency_saturates() {
        assert!((batch_efficiency(8192, 8192) - 1.0).abs() < 1e-12);
        assert!(batch_efficiency(8, 8192) < 0.01);
        assert!(batch_efficiency(2048, 8192) < batch_efficiency(4096, 8192));
        // Larger-than-table batches are allowed and slightly exceed 1.
        assert!(batch_efficiency(16384, 8192) > 1.0);
    }

    #[test]
    fn gpu_prep_slower_than_fpga() {
        for input in [InputKind::Image, InputKind::Audio] {
            assert!(gpu_prep_samples_per_sec(input) < fpga_samples_per_sec(input));
        }
        // The image gap is larger (Huffman irregularity, §V-B).
        let img_gap = fpga_samples_per_sec(InputKind::Image) / gpu_prep_samples_per_sec(InputKind::Image);
        let aud_gap = fpga_samples_per_sec(InputKind::Audio) / gpu_prep_samples_per_sec(InputKind::Audio);
        assert!(img_gap > aud_gap);
    }
}
