//! Synthetic dataset generators.
//!
//! The paper evaluates on ImageNet (256×256 JPEGs) and LibriSpeech (sound
//! streams of 6.96 s on average) — datasets we cannot redistribute. These
//! generators produce *procedural* stand-ins with the same sizes and the same
//! downstream code paths: smooth photo-like images that compress like
//! photographs, and speech-like waveforms with pitch, formant-ish resonances,
//! and noise so the Mel-spectrogram path sees realistic structure.

use crate::audio::Waveform;
use crate::image::Image;
use crate::jpeg;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// ImageNet-style stored image edge length (§III-B1: "stored in 256×256 JPEG").
pub const IMAGENET_EDGE: usize = 256;
/// LibriSpeech-style mean clip duration in seconds (§III-B1: 6.96 s).
pub const LIBRISPEECH_MEAN_SECS: f64 = 6.96;
/// Standard speech sample rate.
pub const SPEECH_SAMPLE_RATE: u32 = 16_000;

/// A smooth, photo-like RGB image: a sum of random low-frequency sinusoidal
/// fields per channel plus mild per-pixel noise. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if a dimension is zero.
pub fn synthetic_image(width: usize, height: usize, seed: u64) -> Image {
    assert!(width > 0 && height > 0, "image dimensions must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    // Per-channel: base level + 4 sinusoidal components.
    struct Wave {
        fx: f32,
        fy: f32,
        phase: f32,
        amp: f32,
    }
    let mut channels = Vec::new();
    for _ in 0..3 {
        let base: f32 = rng.gen_range(64.0..192.0);
        let waves: Vec<Wave> = (0..4)
            .map(|_| Wave {
                fx: rng.gen_range(0.5..4.0),
                fy: rng.gen_range(0.5..4.0),
                phase: rng.gen_range(0.0..std::f32::consts::TAU),
                amp: rng.gen_range(8.0..40.0),
            })
            .collect();
        channels.push((base, waves));
    }
    let mut data = Vec::with_capacity(width * height * 3);
    for y in 0..height {
        for x in 0..width {
            let u = x as f32 / width as f32;
            let v = y as f32 / height as f32;
            for (base, waves) in &channels {
                let mut s = *base;
                for w in waves {
                    s += w.amp
                        * (std::f32::consts::TAU * (w.fx * u + w.fy * v) + w.phase).sin();
                }
                s += rng.gen_range(-3.0..3.0);
                data.push(s.round().clamp(0.0, 255.0) as u8);
            }
        }
    }
    Image::from_rgb(width, height, data)
}

/// An ImageNet-like stored sample: a 256×256 procedural image encoded as a
/// quality-90 baseline JPEG — the on-SSD format of the paper's image path.
pub fn imagenet_like_jpeg(seed: u64) -> Vec<u8> {
    jpeg::encode(&synthetic_image(IMAGENET_EDGE, IMAGENET_EDGE, seed), 90)
}

/// A speech-like waveform: a pitch-modulated harmonic stack shaped by two
/// formant-ish amplitude resonances, syllabic energy modulation, and a noise
/// floor. Deterministic in `seed`.
///
/// # Panics
///
/// Panics if `duration_secs` or `sample_rate` is not positive.
pub fn speech_like_waveform(duration_secs: f64, sample_rate: u32, seed: u64) -> Waveform {
    assert!(duration_secs > 0.0, "duration must be positive");
    assert!(sample_rate > 0, "sample rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let n = (duration_secs * sample_rate as f64).round() as usize;
    let f0_base: f32 = rng.gen_range(90.0..220.0); // speaker pitch
    let vibrato: f32 = rng.gen_range(2.0..6.0);
    let syllable_rate: f32 = rng.gen_range(2.5..5.0);
    let formant1: f32 = rng.gen_range(400.0..800.0);
    let formant2: f32 = rng.gen_range(1200.0..2400.0);
    let mut samples = Vec::with_capacity(n);
    let mut phase = 0.0f32;
    for i in 0..n {
        let t = i as f32 / sample_rate as f32;
        // Slow pitch contour.
        let f0 = f0_base * (1.0 + 0.05 * (std::f32::consts::TAU * vibrato * t).sin());
        phase += std::f32::consts::TAU * f0 / sample_rate as f32;
        // Harmonic stack weighted by distance from the two formants.
        let mut s = 0.0f32;
        for h in 1..=12 {
            let fh = f0 * h as f32;
            let w1 = (-((fh - formant1) / 300.0).powi(2)).exp();
            let w2 = (-((fh - formant2) / 500.0).powi(2)).exp();
            let w = 0.2 / h as f32 + 0.8 * (w1 + 0.6 * w2);
            s += w * (phase * h as f32).sin();
        }
        // Syllabic energy envelope (voiced/unvoiced alternation).
        let env = 0.5 * (1.0 + (std::f32::consts::TAU * syllable_rate * t).sin());
        let noise: f32 = rng.gen_range(-1.0..1.0);
        samples.push(0.25 * env * s + 0.02 * noise);
    }
    // Guarantee headroom for 16-bit storage: normalize peaks above -0.45 dBFS
    // so the WAV path (and any fixed-point engine) never clips.
    let peak = samples.iter().fold(0.0f32, |a, &s| a.max(s.abs()));
    if peak > 0.95 {
        let g = 0.95 / peak;
        for s in &mut samples {
            *s *= g;
        }
    }
    // invariant: the duration/rate asserts above guarantee n >= 1 samples at
    // a positive rate, so construction cannot fail.
    Waveform::new(samples, sample_rate).expect("synthesized clip is non-empty at a positive rate")
}

/// A LibriSpeech-like clip: `~6.96 s` at 16 kHz with ±20% length jitter —
/// the paper's mean audio input.
pub fn librispeech_like_clip(seed: u64) -> Waveform {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let dur = LIBRISPEECH_MEAN_SECS * rng.gen_range(0.8..1.2);
    speech_like_waveform(dur, SPEECH_SAMPLE_RATE, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_image_is_deterministic() {
        let a = synthetic_image(64, 64, 5);
        let b = synthetic_image(64, 64, 5);
        assert_eq!(a, b);
        let c = synthetic_image(64, 64, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn synthetic_image_has_photo_like_variation() {
        let img = synthetic_image(128, 128, 9);
        let mean: f64 = img.data().iter().map(|&b| b as f64).sum::<f64>() / img.data().len() as f64;
        assert!((30.0..225.0).contains(&mean));
        let var: f64 = img
            .data()
            .iter()
            .map(|&b| (b as f64 - mean).powi(2))
            .sum::<f64>()
            / img.data().len() as f64;
        assert!(var > 100.0, "image should not be flat, var={var}");
    }

    #[test]
    fn imagenet_like_jpeg_decodes_to_256() {
        let bytes = imagenet_like_jpeg(3);
        let img = jpeg::decode(&bytes).unwrap();
        assert_eq!((img.width(), img.height()), (256, 256));
        // Stored size should be in the tens-of-KB regime like real ImageNet.
        assert!(bytes.len() > 4_000 && bytes.len() < 120_000, "len={}", bytes.len());
    }

    #[test]
    fn waveform_shape_and_determinism() {
        let w = speech_like_waveform(1.0, 16_000, 4);
        assert_eq!(w.samples().len(), 16_000);
        assert_eq!(w.sample_rate(), 16_000);
        assert!(w.samples().iter().all(|s| s.abs() <= 1.0));
        let w2 = speech_like_waveform(1.0, 16_000, 4);
        assert_eq!(w.samples(), w2.samples());
    }

    #[test]
    fn librispeech_clip_duration_near_mean() {
        let w = librispeech_like_clip(0);
        let secs = w.samples().len() as f64 / w.sample_rate() as f64;
        assert!((5.0..9.0).contains(&secs), "secs={secs}");
    }

    #[test]
    fn waveform_is_not_silent() {
        let w = speech_like_waveform(0.5, 16_000, 8);
        let energy: f32 = w.samples().iter().map(|s| s * s).sum();
        assert!(energy > 1.0);
    }
}
