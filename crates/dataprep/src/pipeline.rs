//! Composable data-preparation pipelines mirroring the FPGA engine layout of
//! Fig 17, with per-stage wall-clock and byte measurement.
//!
//! A [`PrepStage`] corresponds to one engine on the paper's accelerator
//! (decoder, crop, mirror, Gaussian noise, cast; spectrogram, Mel filter
//! bank, masking, norm). A [`PrepPipeline`] chains them, checking item types
//! at each hop, and can measure the CPU cost and data amplification of every
//! stage — the numbers the paper's Figure 11 decomposes.

use crate::audio::{stft, MelBank, Spectrogram, StftConfig, Waveform};
use crate::error::PrepError;
use crate::image::{FloatImage, Image};
use crate::jpeg;
use rand::RngCore;
use std::fmt;
use std::time::Instant;

/// A unit of data moving through preparation.
#[derive(Debug, Clone, PartialEq)]
pub enum DataItem {
    /// A compressed JPEG byte stream (the on-SSD image format).
    EncodedImage(Vec<u8>),
    /// A decoded 8-bit RGB image.
    Image(Image),
    /// A float tensor ready for an accelerator.
    FloatImage(FloatImage),
    /// A PCM waveform (the on-SSD audio format).
    Waveform(Waveform),
    /// A time–frequency matrix (power STFT or log-Mel).
    Spectrogram(Spectrogram),
}

impl DataItem {
    /// Short type name for error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            DataItem::EncodedImage(_) => "encoded image",
            DataItem::Image(_) => "image",
            DataItem::FloatImage(_) => "float image",
            DataItem::Waveform(_) => "waveform",
            DataItem::Spectrogram(_) => "spectrogram",
        }
    }

    /// In-memory payload size in bytes (what buffering/DMA would move).
    pub fn byte_len(&self) -> usize {
        match self {
            DataItem::EncodedImage(b) => b.len(),
            DataItem::Image(i) => i.byte_len(),
            DataItem::FloatImage(f) => f.byte_len(),
            DataItem::Waveform(w) => w.stored_byte_len(),
            DataItem::Spectrogram(s) => s.byte_len(),
        }
    }
}

/// Whether a stage is data *formatting* or data *augmentation* — the paper
/// accounts for them separately (Figs 9, 11, 22).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageClass {
    /// Required format conversion (decode, crop-to-size, cast, STFT, Mel,
    /// per-feature normalization).
    Formatting,
    /// Accuracy-enhancing randomized transforms (random crop basis, mirror,
    /// noise, masking).
    Augmentation,
}

/// One data-preparation engine.
pub trait PrepStage: fmt::Debug {
    /// Engine name (matches the rows of Tables II/III where applicable).
    fn name(&self) -> &'static str;

    /// Formatting or augmentation.
    fn class(&self) -> StageClass;

    /// Transform one item.
    ///
    /// # Errors
    ///
    /// [`PrepError::TypeMismatch`] when fed the wrong item type, or any
    /// stage-specific failure (e.g. decode errors).
    fn apply(&self, item: DataItem, rng: &mut dyn RngCore) -> Result<DataItem, PrepError>;
}

fn mismatch(stage: &dyn PrepStage, expected: &'static str, got: &DataItem) -> PrepError {
    PrepError::TypeMismatch {
        stage: stage.name().to_string(),
        expected,
        got: got.kind_name(),
    }
}

/// JPEG decode (the dominant engine of Table II).
#[derive(Debug, Clone, Copy, Default)]
pub struct JpegDecode;

impl PrepStage for JpegDecode {
    fn name(&self) -> &'static str {
        "jpeg-decode"
    }
    fn class(&self) -> StageClass {
        StageClass::Formatting
    }
    fn apply(&self, item: DataItem, _rng: &mut dyn RngCore) -> Result<DataItem, PrepError> {
        thread_local! {
            // One reusable plane-buffer set per worker thread: steady-state
            // batch decoding allocates nothing but the output image.
            static SCRATCH: std::cell::RefCell<jpeg::Scratch> =
                std::cell::RefCell::new(jpeg::Scratch::default());
        }
        match item {
            DataItem::EncodedImage(bytes) => SCRATCH.with(|s| {
                Ok(DataItem::Image(jpeg::decode_with(&bytes, &mut s.borrow_mut())?))
            }),
            other => Err(mismatch(self, "encoded image", &other)),
        }
    }
}

/// Random-basis crop to `width × height` (formatting size match + crop-basis
/// augmentation rolled together, as §II-A notes they cannot be separated).
#[derive(Debug, Clone, Copy)]
pub struct RandomCrop {
    /// Output width.
    pub width: usize,
    /// Output height.
    pub height: usize,
}

impl PrepStage for RandomCrop {
    fn name(&self) -> &'static str {
        "crop"
    }
    fn class(&self) -> StageClass {
        StageClass::Augmentation
    }
    fn apply(&self, item: DataItem, rng: &mut dyn RngCore) -> Result<DataItem, PrepError> {
        match item {
            DataItem::Image(img) => Ok(DataItem::Image(img.random_crop(self.width, self.height, rng)?)),
            other => Err(mismatch(self, "image", &other)),
        }
    }
}

/// Horizontal mirror with probability `prob`.
#[derive(Debug, Clone, Copy)]
pub struct Mirror {
    /// Flip probability in `[0, 1]`.
    pub prob: f64,
}

impl PrepStage for Mirror {
    fn name(&self) -> &'static str {
        "mirror"
    }
    fn class(&self) -> StageClass {
        StageClass::Augmentation
    }
    fn apply(&self, item: DataItem, rng: &mut dyn RngCore) -> Result<DataItem, PrepError> {
        match item {
            DataItem::Image(img) => {
                let flip = rand::Rng::gen_bool(rng, self.prob.clamp(0.0, 1.0));
                Ok(DataItem::Image(if flip { img.mirror() } else { img }))
            }
            other => Err(mismatch(self, "image", &other)),
        }
    }
}

/// Gaussian pixel noise of standard deviation `sigma` (8-bit counts).
#[derive(Debug, Clone, Copy)]
pub struct GaussianNoise {
    /// Noise standard deviation.
    pub sigma: f32,
}

impl PrepStage for GaussianNoise {
    fn name(&self) -> &'static str {
        "gaussian-noise"
    }
    fn class(&self) -> StageClass {
        StageClass::Augmentation
    }
    fn apply(&self, item: DataItem, rng: &mut dyn RngCore) -> Result<DataItem, PrepError> {
        match item {
            DataItem::Image(img) => Ok(DataItem::Image(img.gaussian_noise(self.sigma, rng))),
            other => Err(mismatch(self, "image", &other)),
        }
    }
}

/// `u8 → f32` cast and scale — the 4× data amplification of §III-C.
#[derive(Debug, Clone, Copy, Default)]
pub struct CastFloat;

impl PrepStage for CastFloat {
    fn name(&self) -> &'static str {
        "cast"
    }
    fn class(&self) -> StageClass {
        StageClass::Formatting
    }
    fn apply(&self, item: DataItem, _rng: &mut dyn RngCore) -> Result<DataItem, PrepError> {
        match item {
            DataItem::Image(img) => Ok(DataItem::FloatImage(img.to_float())),
            other => Err(mismatch(self, "image", &other)),
        }
    }
}

/// Power STFT (the "Spectrogram" engine of Table III).
#[derive(Debug, Clone, Copy)]
pub struct SpectrogramStage {
    /// STFT parameters.
    pub cfg: StftConfig,
}

impl PrepStage for SpectrogramStage {
    fn name(&self) -> &'static str {
        "spectrogram"
    }
    fn class(&self) -> StageClass {
        StageClass::Formatting
    }
    fn apply(&self, item: DataItem, _rng: &mut dyn RngCore) -> Result<DataItem, PrepError> {
        match item {
            DataItem::Waveform(w) => Ok(DataItem::Spectrogram(stft(&w, self.cfg)?)),
            other => Err(mismatch(self, "waveform", &other)),
        }
    }
}

/// Mel filter bank over a power spectrogram (Table III's "Mel Filter bank").
///
/// The triangle weights depend only on `(n_mels, bins, sample_rate)`, so the
/// stage builds the bank once on first use and reuses it for every sample —
/// rebuilding per item used to dominate the audio pipeline's cost.
#[derive(Debug)]
pub struct MelStage {
    /// Number of Mel bands.
    pub n_mels: usize,
    /// Input sample rate used to place the triangles.
    pub sample_rate: u32,
    bank: std::sync::OnceLock<MelBank>,
}

impl MelStage {
    /// A Mel stage of `n_mels` bands for inputs sampled at `sample_rate` Hz.
    pub fn new(n_mels: usize, sample_rate: u32) -> Self {
        MelStage { n_mels, sample_rate, bank: std::sync::OnceLock::new() }
    }
}

impl Clone for MelStage {
    fn clone(&self) -> Self {
        MelStage::new(self.n_mels, self.sample_rate)
    }
}

impl PrepStage for MelStage {
    fn name(&self) -> &'static str {
        "mel-filterbank"
    }
    fn class(&self) -> StageClass {
        StageClass::Formatting
    }
    fn apply(&self, item: DataItem, _rng: &mut dyn RngCore) -> Result<DataItem, PrepError> {
        match item {
            DataItem::Spectrogram(s) => {
                if self.bank.get().is_none() {
                    // Fallible first-time init: a bad (n_mels, bins, rate)
                    // combination is the item's problem, not the worker's.
                    let fresh = MelBank::new(self.n_mels, s.bins(), self.sample_rate)?;
                    let _ = self.bank.set(fresh);
                }
                // invariant: set above (or by a racing worker) before get.
                let bank = self.bank.get().expect("mel bank initialized above");
                if bank.n_bins() != s.bins() {
                    // Bin count changed between items; rebuild rather than
                    // feed the cached bank a mismatched spectrogram.
                    let fresh = MelBank::new(self.n_mels, s.bins(), self.sample_rate)?;
                    return Ok(DataItem::Spectrogram(fresh.apply(&s)));
                }
                Ok(DataItem::Spectrogram(bank.apply(&s)))
            }
            other => Err(mismatch(self, "spectrogram", &other)),
        }
    }
}

/// SpecAugment-style masking (Table III's "Masking").
#[derive(Debug, Clone, Copy)]
pub struct MaskStage {
    /// Number of time masks.
    pub n_time: usize,
    /// Maximum width of a time mask, frames.
    pub max_time: usize,
    /// Number of frequency masks.
    pub n_freq: usize,
    /// Maximum width of a frequency mask, bins.
    pub max_freq: usize,
}

impl PrepStage for MaskStage {
    fn name(&self) -> &'static str {
        "masking"
    }
    fn class(&self) -> StageClass {
        StageClass::Augmentation
    }
    fn apply(&self, item: DataItem, rng: &mut dyn RngCore) -> Result<DataItem, PrepError> {
        match item {
            DataItem::Spectrogram(s) => Ok(DataItem::Spectrogram(s.masked(
                self.n_time,
                self.max_time,
                self.n_freq,
                self.max_freq,
                rng,
            ))),
            other => Err(mismatch(self, "spectrogram", &other)),
        }
    }
}

/// Per-bin normalization (Table III's "Norm").
#[derive(Debug, Clone, Copy, Default)]
pub struct NormalizeStage;

impl PrepStage for NormalizeStage {
    fn name(&self) -> &'static str {
        "norm"
    }
    fn class(&self) -> StageClass {
        StageClass::Formatting
    }
    fn apply(&self, item: DataItem, _rng: &mut dyn RngCore) -> Result<DataItem, PrepError> {
        match item {
            DataItem::Spectrogram(s) => Ok(DataItem::Spectrogram(s.normalized())),
            other => Err(mismatch(self, "spectrogram", &other)),
        }
    }
}

/// A chain of preparation engines.
#[derive(Debug, Default)]
pub struct PrepPipeline {
    stages: Vec<Box<dyn PrepStage + Send + Sync>>,
}

impl PrepPipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        PrepPipeline { stages: Vec::new() }
    }

    /// Append a stage (builder style).
    pub fn then(mut self, stage: impl PrepStage + Send + Sync + 'static) -> Self {
        self.stages.push(Box::new(stage));
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Run an item through every stage.
    ///
    /// # Errors
    ///
    /// The first stage failure, if any.
    pub fn run(&self, mut item: DataItem, rng: &mut dyn RngCore) -> Result<DataItem, PrepError> {
        for s in &self.stages {
            item = s.apply(item, rng)?;
        }
        Ok(item)
    }

    /// Run `items` through the pipeline measuring each stage's wall-clock
    /// cost and data sizes. Returns per-stage aggregates. The simulator does
    /// not read them: `core::calib`'s constants are paper-anchored.
    ///
    /// # Errors
    ///
    /// The first stage failure, if any.
    pub fn measure(
        &self,
        items: Vec<DataItem>,
        rng: &mut dyn RngCore,
    ) -> Result<Vec<StageCost>, PrepError> {
        let mut costs: Vec<StageCost> = self
            .stages
            .iter()
            .map(|s| StageCost {
                name: s.name(),
                class: s.class(),
                total_secs: 0.0,
                items: 0,
                in_bytes: 0,
                out_bytes: 0,
            })
            .collect();
        for mut item in items {
            for (si, s) in self.stages.iter().enumerate() {
                let in_bytes = item.byte_len();
                let t0 = Instant::now();
                item = s.apply(item, rng)?;
                let dt = t0.elapsed().as_secs_f64();
                let c = &mut costs[si];
                c.total_secs += dt;
                c.items += 1;
                c.in_bytes += in_bytes as u64;
                c.out_bytes += item.byte_len() as u64;
            }
        }
        Ok(costs)
    }

    /// The standard image path of Fig 17: decode → random crop 224² →
    /// mirror → Gaussian noise → cast.
    pub fn standard_image() -> Self {
        PrepPipeline::new()
            .then(JpegDecode)
            .then(RandomCrop { width: 224, height: 224 })
            .then(Mirror { prob: 0.5 })
            .then(GaussianNoise { sigma: 2.0 })
            .then(CastFloat)
    }

    /// The standard audio path of Fig 17 / Table III: spectrogram → Mel
    /// filter bank → masking → norm.
    pub fn standard_audio() -> Self {
        let cfg = StftConfig::speech_default();
        PrepPipeline::new()
            .then(SpectrogramStage { cfg })
            .then(MelStage::new(80, crate::synth::SPEECH_SAMPLE_RATE))
            .then(MaskStage { n_time: 2, max_time: 40, n_freq: 2, max_freq: 15 })
            .then(NormalizeStage)
    }
}

/// Aggregated measurement of one stage over a set of items.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCost {
    /// Engine name.
    pub name: &'static str,
    /// Formatting or augmentation.
    pub class: StageClass,
    /// Total wall-clock seconds across items.
    pub total_secs: f64,
    /// Number of items processed.
    pub items: u64,
    /// Total input bytes.
    pub in_bytes: u64,
    /// Total output bytes.
    pub out_bytes: u64,
}

impl StageCost {
    /// Mean seconds per item.
    pub fn mean_secs(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.total_secs / self.items as f64
        }
    }

    /// Output/input size amplification.
    pub fn amplification(&self) -> f64 {
        if self.in_bytes == 0 {
            0.0
        } else {
            self.out_bytes as f64 / self.in_bytes as f64
        }
    }
}

/// Convenience: produce the accelerator-ready tensor for one synthetic
/// ImageNet-like sample.
///
/// # Errors
///
/// Propagates pipeline failures (none expected on generated data).
pub fn prepare_image_sample(seed: u64, rng: &mut dyn RngCore) -> Result<DataItem, PrepError> {
    PrepPipeline::standard_image().run(
        DataItem::EncodedImage(crate::synth::imagenet_like_jpeg(seed)),
        rng,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn image_pipeline_produces_224_float_tensor() {
        let mut rng = StdRng::seed_from_u64(0);
        let out = prepare_image_sample(5, &mut rng).unwrap();
        match out {
            DataItem::FloatImage(f) => {
                assert_eq!((f.width(), f.height()), (224, 224));
                assert_eq!(f.byte_len(), 224 * 224 * 3 * 4);
            }
            other => panic!("expected float image, got {}", other.kind_name()),
        }
    }

    #[test]
    fn audio_pipeline_produces_mel_features() {
        let mut rng = StdRng::seed_from_u64(0);
        let clip = DataItem::Waveform(crate::synth::librispeech_like_clip(5));
        let out = PrepPipeline::standard_audio().run(clip, &mut rng).unwrap();
        match out {
            DataItem::Spectrogram(s) => {
                assert_eq!(s.bins(), 80);
                assert!(s.frames() > 400);
            }
            other => panic!("expected spectrogram, got {}", other.kind_name()),
        }
    }

    #[test]
    fn type_mismatch_reports_stage() {
        let mut rng = StdRng::seed_from_u64(0);
        let err = PrepPipeline::standard_audio()
            .run(DataItem::EncodedImage(vec![1, 2, 3]), &mut rng)
            .unwrap_err();
        match err {
            PrepError::TypeMismatch { stage, expected, got } => {
                assert_eq!(stage, "spectrogram");
                assert_eq!(expected, "waveform");
                assert_eq!(got, "encoded image");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn decode_failure_propagates() {
        let mut rng = StdRng::seed_from_u64(0);
        let err = PrepPipeline::standard_image()
            .run(DataItem::EncodedImage(vec![0, 1, 2]), &mut rng)
            .unwrap_err();
        assert!(matches!(err, PrepError::Decode(_)));
    }

    #[test]
    fn measure_reports_amplification() {
        let mut rng = StdRng::seed_from_u64(1);
        let items: Vec<DataItem> = (0..3)
            .map(|i| DataItem::EncodedImage(crate::synth::imagenet_like_jpeg(i)))
            .collect();
        let costs = PrepPipeline::standard_image().measure(items, &mut rng).unwrap();
        assert_eq!(costs.len(), 5);
        let decode = &costs[0];
        assert_eq!(decode.name, "jpeg-decode");
        assert_eq!(decode.items, 3);
        // Decode amplifies compressed -> raw substantially.
        assert!(decode.amplification() > 2.0, "amp={}", decode.amplification());
        let cast = costs.last().unwrap();
        assert_eq!(cast.name, "cast");
        assert!((cast.amplification() - 4.0).abs() < 1e-9);
        assert!(decode.mean_secs() > 0.0);
    }

    fn stage_classes(p: &PrepPipeline) -> Vec<(&'static str, StageClass)> {
        p.stages.iter().map(|s| (s.name(), s.class())).collect()
    }

    #[test]
    fn stage_classes_partition_pipeline() {
        // Pinned (name, class) lists: augmentation is exactly the randomized
        // stages; normalization is deterministic, so it is formatting.
        use StageClass::{Augmentation as A, Formatting as F};
        let p = PrepPipeline::standard_image();
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        assert_eq!(
            stage_classes(&p),
            vec![("jpeg-decode", F), ("crop", A), ("mirror", A), ("gaussian-noise", A), ("cast", F)]
        );
        let a = PrepPipeline::standard_audio();
        assert_eq!(
            stage_classes(&a),
            vec![("spectrogram", F), ("mel-filterbank", F), ("masking", A), ("norm", F)]
        );
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let item = DataItem::EncodedImage(vec![9, 9]);
        let out = PrepPipeline::new().run(item.clone(), &mut rng).unwrap();
        assert_eq!(out, item);
    }
}
