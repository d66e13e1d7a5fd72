//! Real data-preparation kernels for the TrainBox reproduction.
//!
//! §II-A of the paper: data preparation *"prepares input data with
//! corresponding labels from a training dataset... a batch of data is loaded
//! from the storage devices, and transformed into the forms specified by a
//! neural network model (data formatting)... Another important role of data
//! preparation is data augmentation."*
//!
//! This crate implements the actual kernels the paper's data-preparation
//! accelerator runs (Fig 17):
//!
//! * **Image formatting** — a from-scratch baseline JPEG encoder/decoder
//!   ([`jpeg`]), cropping, and type casting ([`image`]);
//! * **Image augmentation** — random crop basis selection, horizontal mirror,
//!   Gaussian noise ([`image`]);
//! * **Audio formatting** — radix-2 FFT, Hann STFT, Mel spectrogram
//!   extraction, and per-feature normalization ([`audio`]);
//! * **Audio augmentation** — SpecAugment-style time/frequency masking
//!   ([`audio`]);
//! * **Pipelines** — composable stage graphs mirroring the FPGA engine layout
//!   of Fig 17, with per-stage wall-clock and byte measurement
//!   ([`pipeline`]);
//! * **Synthetic datasets** — procedural ImageNet-like JPEGs and
//!   LibriSpeech-like waveforms ([`synth`]), substituting for the real
//!   datasets which cannot ship with this repository. They exercise the
//!   identical code paths with the paper's sizes (256×256 JPEG inputs,
//!   ~6.96 s audio clips).

pub mod audio;
pub mod error;
pub mod executor;
pub mod image;
pub mod jpeg;
pub mod pipeline;
pub mod shard;
pub mod synth;
pub mod tokenize;
pub mod video;
pub mod wav;
pub mod ziggurat;

pub use error::{DecodeError, PrepError};
pub use image::{FloatImage, Image};
