//! Audio formatting and augmentation: FFT → STFT → Mel spectrogram →
//! SpecAugment masking → normalization.
//!
//! The STFT keeps power only (`|X[k]|²`, no phase) and takes each real
//! `n_fft`-point frame through one `n_fft/2`-point complex FFT plus a split
//! step (see [`stft`]).
//!
//! This is the audio path of the paper's data-preparation engine (Fig 17 and
//! Table III: spectrogram, masking, norm, Mel filter bank). §II-A: *"For
//! audio, we convert a stream of sound into a 'Mel spectrogram', which is the
//! STFT-based feature set of frames in the stream."* The masking stage is the
//! SpecAugment-style time/frequency masking the paper cites (\[35\]).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Invalid input or configuration reaching the audio path's public
/// constructors and kernels.
///
/// These conditions depend on caller-supplied data (sample rates, FFT
/// lengths, band counts), so they are reported as values instead of
/// panicking — a malformed clip must not take down a preparation worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AudioError {
    /// A waveform needs at least one sample.
    EmptyWaveform,
    /// Sample rates must be positive.
    ZeroSampleRate,
    /// FFT lengths must be powers of two.
    FftLengthNotPowerOfTwo {
        /// The rejected length.
        n: usize,
    },
    /// The STFT hop must be positive.
    ZeroHop,
    /// A Mel bank needs at least one band.
    NoMelBands,
    /// A Mel bank needs strictly more linear bins than Mel bands.
    TooFewBins {
        /// Requested Mel bands.
        n_mels: usize,
        /// Available linear bins.
        n_bins: usize,
    },
}

impl std::fmt::Display for AudioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            AudioError::EmptyWaveform => write!(f, "waveform must not be empty"),
            AudioError::ZeroSampleRate => write!(f, "sample rate must be positive"),
            AudioError::FftLengthNotPowerOfTwo { n } => {
                write!(f, "FFT length must be a power of two, got {n}")
            }
            AudioError::ZeroHop => write!(f, "hop must be positive"),
            AudioError::NoMelBands => write!(f, "need at least one mel band"),
            AudioError::TooFewBins { n_mels, n_bins } => {
                write!(f, "need more linear bins than mel bands, got {n_bins} bins for {n_mels} bands")
            }
        }
    }
}

impl std::error::Error for AudioError {}

/// A mono PCM waveform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Waveform {
    samples: Vec<f32>,
    sample_rate: u32,
}

impl Waveform {
    /// Wrap raw samples at `sample_rate` Hz.
    ///
    /// # Errors
    ///
    /// [`AudioError::EmptyWaveform`] if `samples` is empty,
    /// [`AudioError::ZeroSampleRate`] if `sample_rate` is zero.
    pub fn new(samples: Vec<f32>, sample_rate: u32) -> Result<Self, AudioError> {
        if samples.is_empty() {
            return Err(AudioError::EmptyWaveform);
        }
        if sample_rate == 0 {
            return Err(AudioError::ZeroSampleRate);
        }
        Ok(Waveform { samples, sample_rate })
    }

    /// The PCM samples.
    pub fn samples(&self) -> &[f32] {
        &self.samples
    }

    /// Sample rate in Hz.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// Duration in seconds.
    pub fn duration_secs(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate as f64
    }

    /// Size in bytes when stored as 16-bit PCM (the on-SSD format).
    pub fn stored_byte_len(&self) -> usize {
        self.samples.len() * 2
    }

}

/// A complex number for the FFT (kept minimal on purpose).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f32,
    /// Imaginary part.
    pub im: f32,
}

impl Complex {
    /// Construct from parts.
    pub fn new(re: f32, im: f32) -> Self {
        Complex { re, im }
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }

    fn mul(self, o: Complex) -> Complex {
        Complex::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }

    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }

    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

/// A precomputed radix-2 FFT plan for one transform size: twiddle factors
/// and the bit-reversal permutation. Building a plan costs one trig call per
/// twiddle; every subsequent transform is pure table lookups and butterflies
/// — the layout of the paper's FPGA "Spectrogram" engine, which similarly
/// bakes its twiddles into ROM.
///
/// Plans are cheap to share (`Arc`); [`fft`]/[`ifft`] keep a process-wide
/// cache keyed by size so casual callers never rebuild tables.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// Bit-reversed index of each position (identity-filtered swaps applied
    /// in order).
    bitrev: Vec<u32>,
    /// Forward twiddles laid out stage by stage: the butterflies of
    /// half-length `h` read `e^(-2πik/2h)`, `k < h`, from `fwd[h - 1..2h - 1]`.
    /// Every entry is a copy of `e^(-2πik/n)` for some `k < n/2`, so all
    /// stages share one set of values.
    fwd: Vec<Complex>,
    /// Inverse twiddles `e^(+2πik/2h)` in the same layout.
    inv: Vec<Complex>,
}

impl FftPlan {
    /// Build a plan for `n`-point transforms.
    ///
    /// # Errors
    ///
    /// [`AudioError::FftLengthNotPowerOfTwo`] if `n` is not a power of two.
    pub fn new(n: usize) -> Result<Self, AudioError> {
        if !n.is_power_of_two() {
            return Err(AudioError::FftLengthNotPowerOfTwo { n });
        }
        let bits = n.trailing_zeros();
        let bitrev = (0..n)
            .map(|i| {
                if n <= 1 {
                    0
                } else {
                    (i.reverse_bits() >> (usize::BITS - bits)) as u32
                }
            })
            .collect();
        let (fwd, inv): (Vec<Complex>, Vec<Complex>) = (0..n / 2)
            .map(|k| {
                let ang = std::f32::consts::TAU * k as f32 / n as f32;
                let (s, c) = ang.sin_cos();
                (Complex::new(c, -s), Complex::new(c, s))
            })
            .unzip();
        Ok(FftPlan { n, bitrev, fwd: by_stage(&fwd), inv: by_stage(&inv) })
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the degenerate 1-point plan.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// In-place forward FFT.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan size.
    pub fn forward(&self, buf: &mut [Complex]) {
        self.run(buf, &self.fwd);
    }

    /// In-place inverse FFT, scaled by `1/n`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len()` differs from the plan size.
    pub fn inverse(&self, buf: &mut [Complex]) {
        self.run(buf, &self.inv);
        let s = 1.0 / self.n as f32;
        for c in buf.iter_mut() {
            c.re *= s;
            c.im *= s;
        }
    }

    fn run(&self, buf: &mut [Complex], tw: &[Complex]) {
        let n = self.n;
        assert_eq!(buf.len(), n, "buffer length must match plan size");
        if n <= 1 {
            return;
        }
        // Bit-reversal permutation from the precomputed table.
        for (i, &j) in self.bitrev.iter().enumerate() {
            let j = j as usize;
            if j > i {
                buf.swap(i, j);
            }
        }
        // Butterflies, stage by stage. Every butterfly multiplies by its
        // twiddle, `w = 1` included: skipping that multiply would flip the
        // sign of some zero outputs and break bit-equality with the reference.
        let mut h = 1;
        while h < n {
            let tw = &tw[h - 1..2 * h - 1];
            for block in buf.chunks_exact_mut(2 * h) {
                let (lo, hi) = block.split_at_mut(h);
                for ((u, v), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let a = *u;
                    let t = v.mul(w);
                    *u = a.add(t);
                    *v = a.sub(t);
                }
            }
            h <<= 1;
        }
    }
}

/// Lay out the `n/2` twiddles `e^(∓2πik/n)` stage by stage: for each
/// half-length `h = 1, 2, 4, …, n/2`, the `h` entries `table[k · n/2h]`.
fn by_stage(table: &[Complex]) -> Vec<Complex> {
    let half = table.len();
    let mut out = Vec::with_capacity(2 * half);
    let mut h = 1;
    while h <= half {
        out.extend(table.iter().step_by(half / h));
        h <<= 1;
    }
    out
}

/// One process-wide table per key, built on first use.
type Cache<T> = OnceLock<Mutex<HashMap<usize, Arc<T>>>>;

fn cached<T>(cache: &Cache<T>, n: usize, build: impl FnOnce() -> T) -> Arc<T> {
    let mut map = cache.get_or_init(Default::default).lock().unwrap_or_else(|e| e.into_inner());
    map.entry(n).or_insert_with(|| Arc::new(build())).clone()
}

fn plan_cache(n: usize) -> Arc<FftPlan> {
    static CACHE: Cache<FftPlan> = OnceLock::new();
    cached(&CACHE, n, || FftPlan::new(n).unwrap_or_else(|e| panic!("{e}")))
}

/// In-place iterative radix-2 Cooley–Tukey FFT (precomputed-table plan,
/// cached per size).
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn fft(buf: &mut [Complex]) {
    plan_cache(buf.len()).forward(buf);
}

/// Inverse FFT (scaled by `1/n`).
///
/// # Panics
///
/// Panics if the length is not a power of two.
pub fn ifft(buf: &mut [Complex]) {
    plan_cache(buf.len()).inverse(buf);
}

/// Out-of-place recursive radix-2 decimation-in-time FFT — the
/// obviously-correct reference oracle for [`FftPlan`]. Shares the plan's
/// twiddle table, so the iterative transform matches it **bit-for-bit**: both
/// evaluate the identical butterfly expression tree per output, only in a
/// different loop order.
pub fn fft_recursive_ref(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
    let plan = plan_cache(n);
    let mut out = input.to_vec();
    rec_fft(&mut out, &plan.fwd);
    out
}

fn rec_fft(buf: &mut [Complex], tw: &[Complex]) {
    let m = buf.len();
    if m <= 1 {
        return;
    }
    let half = m / 2;
    let mut even: Vec<Complex> = (0..half).map(|i| buf[2 * i]).collect();
    let mut odd: Vec<Complex> = (0..half).map(|i| buf[2 * i + 1]).collect();
    rec_fft(&mut even, tw);
    rec_fft(&mut odd, tw);
    let stage = &tw[half - 1..m - 1];
    for k in 0..half {
        let v = odd[k].mul(stage[k]);
        buf[k] = even[k].add(v);
        buf[k + half] = even[k].sub(v);
    }
}

/// STFT parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StftConfig {
    /// FFT size (power of two).
    pub n_fft: usize,
    /// Hop between frames in samples.
    pub hop: usize,
}

impl StftConfig {
    /// The common speech setting: 25 ms windows, 10 ms hop at 16 kHz,
    /// rounded up to a 512-point FFT.
    pub fn speech_default() -> Self {
        StftConfig { n_fft: 512, hop: 160 }
    }

    /// Number of frames produced for `n_samples` input samples.
    pub fn frames(&self, n_samples: usize) -> usize {
        if n_samples < self.n_fft {
            return if n_samples == 0 { 0 } else { 1 };
        }
        (n_samples - self.n_fft) / self.hop + 1
    }
}

/// A time–frequency matrix, `frames × bins`, row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Spectrogram {
    frames: usize,
    bins: usize,
    data: Vec<f32>,
}

impl Spectrogram {
    /// Wrap raw data.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn new(frames: usize, bins: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), frames * bins, "spectrogram shape mismatch");
        Spectrogram { frames, bins, data }
    }

    /// Number of time frames.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Number of frequency bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Value at `(frame, bin)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn at(&self, frame: usize, bin: usize) -> f32 {
        assert!(frame < self.frames && bin < self.bins, "index out of bounds");
        self.data[frame * self.bins + bin]
    }

    /// Raw row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Size in bytes when shipped to an accelerator.
    pub fn byte_len(&self) -> usize {
        self.data.len() * 4
    }

    /// SpecAugment-style masking: `n_time_masks` random time stripes of up to
    /// `max_time` frames and `n_freq_masks` stripes of up to `max_freq` bins
    /// are zeroed.
    pub fn masked<R: Rng + ?Sized>(
        &self,
        n_time_masks: usize,
        max_time: usize,
        n_freq_masks: usize,
        max_freq: usize,
        rng: &mut R,
    ) -> Spectrogram {
        let mut out = self.clone();
        for _ in 0..n_time_masks {
            if self.frames == 0 || max_time == 0 {
                break;
            }
            let w = rng.gen_range(1..=max_time.min(self.frames));
            let t0 = rng.gen_range(0..=self.frames - w);
            for t in t0..t0 + w {
                for b in 0..self.bins {
                    out.data[t * self.bins + b] = 0.0;
                }
            }
        }
        for _ in 0..n_freq_masks {
            if self.bins == 0 || max_freq == 0 {
                break;
            }
            let w = rng.gen_range(1..=max_freq.min(self.bins));
            let b0 = rng.gen_range(0..=self.bins - w);
            for t in 0..self.frames {
                for b in b0..b0 + w {
                    out.data[t * self.bins + b] = 0.0;
                }
            }
        }
        out
    }

    /// Per-bin zero-mean unit-variance normalization across frames (the
    /// "Norm" engine of Table III). Row-major passes; each bin's `f64` sums
    /// still run over the frames in ascending order.
    pub fn normalized(&self) -> Spectrogram {
        if self.bins == 0 {
            return self.clone();
        }
        let count = self.frames.max(1) as f64;
        let rows = || self.data.chunks_exact(self.bins);
        let mut mean = vec![0.0f64; self.bins];
        for row in rows() {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v as f64;
            }
        }
        mean.iter_mut().for_each(|m| *m /= count);
        let mut std = vec![0.0f64; self.bins];
        for row in rows() {
            for ((s, &m), &v) in std.iter_mut().zip(&mean).zip(row) {
                *s += (v as f64 - m).powi(2);
            }
        }
        std.iter_mut().for_each(|s| *s = (*s / count).sqrt().max(1e-8));
        let mut data = Vec::with_capacity(self.data.len());
        for row in rows() {
            for ((&v, &m), &s) in row.iter().zip(&mean).zip(&std) {
                data.push(((v as f64 - m) / s) as f32);
            }
        }
        Spectrogram::new(self.frames, self.bins, data)
    }
}

/// The tables [`stft`] needs for one `n_fft = n ≥ 2`, built once per size:
/// the `n/2`-point plan, the Hann window and the split twiddles.
struct StftPlan {
    half: Arc<FftPlan>,
    window: Vec<f32>,
    /// `e^(-2πik/n)` for `k < n/2`.
    split: Vec<Complex>,
}

fn hann(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| 0.5 - 0.5 * (std::f32::consts::TAU * i as f32 / n as f32).cos())
        .collect()
}

fn stft_plan(n: usize) -> Arc<StftPlan> {
    static CACHE: Cache<StftPlan> = OnceLock::new();
    cached(&CACHE, n, || StftPlan {
        half: plan_cache(n / 2),
        window: hann(n),
        // The last stage of the `n`-point plan's table.
        split: plan_cache(n).fwd[n / 2 - 1..].to_vec(),
    })
}

/// Hann-windowed power STFT: `frames × (n_fft/2 + 1)` power values `|X[k]|²`
/// (no phase).
///
/// The frames are real, so each `n`-point spectrum comes from one
/// `n/2`-point complex FFT: the windowed frame is packed as
/// `z[j] = x[2j] + i·x[2j+1]`, and a split step recovers
/// `X[k] = E[k] + e^(-2πik/n)·O[k]` from the spectra `E`, `O` of the even and
/// odd samples, which are the conjugate-symmetric and antisymmetric parts of
/// `Z`. A clip shorter than `n_fft` gives one zero-padded frame.
///
/// # Errors
///
/// [`AudioError::FftLengthNotPowerOfTwo`] if `cfg.n_fft` is not a power of
/// two, [`AudioError::ZeroHop`] if `cfg.hop` is zero.
pub fn stft(wave: &Waveform, cfg: StftConfig) -> Result<Spectrogram, AudioError> {
    if !cfg.n_fft.is_power_of_two() {
        return Err(AudioError::FftLengthNotPowerOfTwo { n: cfg.n_fft });
    }
    if cfg.hop == 0 {
        return Err(AudioError::ZeroHop);
    }
    let n = cfg.n_fft;
    let samples = wave.samples();
    let nframes = cfg.frames(samples.len());
    if n == 1 {
        // One bin, the windowed sample itself.
        let w = hann(1)[0];
        let data = samples.iter().step_by(cfg.hop).map(|&s| (s * w) * (s * w)).collect();
        return Ok(Spectrogram::new(nframes, 1, data));
    }
    let m = n / 2;
    let bins = m + 1;
    let plan = stft_plan(n);
    let (window, split) = (&plan.window[..], &plan.split[..]);
    let mut z = vec![Complex::default(); m];
    let mut data = vec![0.0f32; nframes * bins];
    for (f, row) in data.chunks_exact_mut(bins).enumerate() {
        let start = f * cfg.hop;
        let frame = &samples[start..samples.len().min(start + n)];
        if frame.len() == n {
            let pairs = frame.chunks_exact(2).zip(window.chunks_exact(2));
            for (zj, (x, w)) in z.iter_mut().zip(pairs) {
                *zj = Complex::new(x[0] * w[0], x[1] * w[1]);
            }
        } else {
            let at = |i: usize| frame.get(i).map_or(0.0, |&x| x * window[i]);
            for (j, zj) in z.iter_mut().enumerate() {
                *zj = Complex::new(at(2 * j), at(2 * j + 1));
            }
        }
        plan.half.forward(&mut z);
        // k = 0 and k = n/2: E[0] = Re Z[0], O[0] = Im Z[0].
        let z0 = z[0];
        row[0] = (z0.re + z0.im) * (z0.re + z0.im);
        row[m] = (z0.re - z0.im) * (z0.re - z0.im);
        // 0 < k < n/2: pair Z[k] with Z[n/2 - k].
        let pairs = z[1..].iter().zip(z[1..].iter().rev());
        for ((p, (a, b)), &w) in row[1..m].iter_mut().zip(pairs).zip(&split[1..]) {
            let even = Complex::new(0.5 * (a.re + b.re), 0.5 * (a.im - b.im));
            let odd = Complex::new(0.5 * (a.im + b.im), 0.5 * (b.re - a.re));
            *p = even.add(w.mul(odd)).norm_sq();
        }
    }
    Ok(Spectrogram::new(nframes, bins, data))
}

/// Hz → Mel (HTK formula).
pub fn hz_to_mel(hz: f32) -> f32 {
    2595.0 * (1.0 + hz / 700.0).log10()
}

/// Mel → Hz (HTK formula).
pub fn mel_to_hz(mel: f32) -> f32 {
    700.0 * (10f32.powf(mel / 2595.0) - 1.0)
}

/// Frames per block in [`MelBank::apply`]: one accumulator per frame, 16
/// `f32` lanes.
const MEL_BLOCK: usize = 16;

/// A triangular Mel filter bank mapping `n_fft/2+1` linear bins to `n_mels`
/// Mel bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MelBank {
    n_mels: usize,
    n_bins: usize,
    /// `n_mels × n_bins` filter weights, row-major.
    weights: Vec<f32>,
    /// Per-filter `[start, end)` range of nonzero bins. Each triangle only
    /// touches a narrow bin band, so [`MelBank::apply`] iterates these slices
    /// instead of the full row (~30× less work for speech-sized banks).
    support: Vec<(u32, u32)>,
}

impl MelBank {
    /// Build a bank of `n_mels` triangular filters for spectra of `n_bins`
    /// linear bins covering `[0, sample_rate/2]` Hz.
    ///
    /// # Errors
    ///
    /// [`AudioError::NoMelBands`] if `n_mels` is zero,
    /// [`AudioError::TooFewBins`] unless `n_bins > n_mels` (each triangle
    /// needs its own bin band), [`AudioError::ZeroSampleRate`] if
    /// `sample_rate` is zero.
    pub fn new(n_mels: usize, n_bins: usize, sample_rate: u32) -> Result<Self, AudioError> {
        if n_mels == 0 {
            return Err(AudioError::NoMelBands);
        }
        if n_bins <= n_mels {
            return Err(AudioError::TooFewBins { n_mels, n_bins });
        }
        if sample_rate == 0 {
            return Err(AudioError::ZeroSampleRate);
        }
        let f_max = sample_rate as f32 / 2.0;
        let m_max = hz_to_mel(f_max);
        // n_mels + 2 edge points, evenly spaced in Mel.
        let edges_hz: Vec<f32> = (0..n_mels + 2)
            .map(|i| mel_to_hz(m_max * i as f32 / (n_mels + 1) as f32))
            .collect();
        let bin_hz = |b: usize| b as f32 * f_max / (n_bins - 1) as f32;
        let mut weights = vec![0.0f32; n_mels * n_bins];
        let mut support = Vec::with_capacity(n_mels);
        for m in 0..n_mels {
            let (lo, mid, hi) = (edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]);
            let (mut first, mut last) = (n_bins, 0usize);
            for b in 0..n_bins {
                let f = bin_hz(b);
                let w = if f <= lo || f >= hi {
                    0.0
                } else if f <= mid {
                    (f - lo) / (mid - lo).max(1e-6)
                } else {
                    (hi - f) / (hi - mid).max(1e-6)
                };
                if w > 0.0 {
                    first = first.min(b);
                    last = b + 1;
                }
                weights[m * n_bins + b] = w;
            }
            support.push((first.min(last) as u32, last as u32));
        }
        Ok(MelBank { n_mels, n_bins, weights, support })
    }

    /// Number of Mel bands.
    pub fn n_mels(&self) -> usize {
        self.n_mels
    }

    /// Number of linear input bins this bank was built for.
    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Apply to a power spectrogram, producing a log-Mel spectrogram
    /// (`frames × n_mels`, natural log with a small floor).
    ///
    /// Works on blocks of 16 frames: the block is copied
    /// bin-major, so each band's weighted sum runs over all the block's
    /// frames at once, one accumulator per frame. Every output still adds
    /// its products in ascending bin order starting from `-0.0`, as
    /// `Iterator::sum::<f32>` over one frame does, so the result is the
    /// per-frame loop's to the bit.
    ///
    /// # Panics
    ///
    /// Panics if the spectrogram's bin count differs from this bank's.
    pub fn apply(&self, spec: &Spectrogram) -> Spectrogram {
        assert_eq!(spec.bins(), self.n_bins, "bin count mismatch");
        let (n_bins, n_mels) = (self.n_bins, self.n_mels);
        let mut data = vec![0.0f32; spec.frames() * n_mels];
        // `cols[b][f]` = bin `b` of the block's frame `f`. Lanes past the end
        // of a short last block hold stale bins and are never written out.
        let mut cols = vec![[0.0f32; MEL_BLOCK]; n_bins];
        let row_blocks = spec.data().chunks(MEL_BLOCK * n_bins);
        for (rows, out) in row_blocks.zip(data.chunks_mut(MEL_BLOCK * n_mels)) {
            for (f, row) in rows.chunks_exact(n_bins).enumerate() {
                for (col, &p) in cols.iter_mut().zip(row) {
                    col[f] = p;
                }
            }
            for (m, &(b0, b1)) in self.support.iter().enumerate() {
                let (b0, b1) = (b0 as usize, b1 as usize);
                let w = &self.weights[m * n_bins + b0..m * n_bins + b1];
                let mut acc = [-0.0f32; MEL_BLOCK];
                for (&w, col) in w.iter().zip(&cols[b0..b1]) {
                    for (a, &p) in acc.iter_mut().zip(col) {
                        *a += w * p;
                    }
                }
                for (o, &s) in out[m..].iter_mut().step_by(n_mels).zip(&acc) {
                    *o = (s + 1e-10).ln();
                }
            }
        }
        Spectrogram::new(spec.frames(), n_mels, data)
    }
}

/// Full audio formatting path: waveform → power STFT → log-Mel spectrogram.
///
/// # Errors
///
/// Any error of [`stft`] or [`MelBank::new`] for the given configuration.
pub fn mel_spectrogram(
    wave: &Waveform,
    cfg: StftConfig,
    n_mels: usize,
) -> Result<Spectrogram, AudioError> {
    let spec = stft(wave, cfg)?;
    Ok(MelBank::new(n_mels, spec.bins(), wave.sample_rate())?.apply(&spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tone(freq: f32, secs: f32, rate: u32) -> Waveform {
        let n = (secs * rate as f32) as usize;
        Waveform::new(
            (0..n)
                .map(|i| (std::f32::consts::TAU * freq * i as f32 / rate as f32).sin())
                .collect(),
            rate,
        )
        .unwrap()
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Complex::default(); 8];
        buf[0] = Complex::new(1.0, 0.0);
        fft(&mut buf);
        for c in &buf {
            assert!((c.re - 1.0).abs() < 1e-5 && c.im.abs() < 1e-5);
        }
    }

    #[test]
    fn fft_peaks_at_tone_bin() {
        // 64-sample FFT of sin at bin 5.
        let n = 64;
        let mut buf: Vec<Complex> = (0..n)
            .map(|i| Complex::new((std::f32::consts::TAU * 5.0 * i as f32 / n as f32).sin(), 0.0))
            .collect();
        fft(&mut buf);
        let mags: Vec<f32> = buf.iter().map(|c| c.norm_sq().sqrt()).collect();
        let peak = mags
            .iter()
            .enumerate()
            .take(n / 2)
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, 5);
        assert!((mags[5] - 32.0).abs() < 1e-3); // n/2 for a unit sine
    }

    #[test]
    fn ifft_inverts_fft() {
        let mut rng = StdRng::seed_from_u64(3);
        use rand::Rng;
        let orig: Vec<Complex> = (0..128)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        let mut buf = orig.clone();
        fft(&mut buf);
        ifft(&mut buf);
        for (a, b) in orig.iter().zip(&buf) {
            assert!((a.re - b.re).abs() < 1e-4 && (a.im - b.im).abs() < 1e-4);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut buf = vec![Complex::default(); 12];
        fft(&mut buf);
    }

    #[test]
    fn iterative_fft_matches_recursive_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(11);
        use rand::Rng;
        for n in [1usize, 2, 4, 8, 64, 512, 1024] {
            let orig: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let mut iterative = orig.clone();
            fft(&mut iterative);
            let recursive = fft_recursive_ref(&orig);
            for (i, (a, b)) in iterative.iter().zip(&recursive).enumerate() {
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "n={n} bin {i} re");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "n={n} bin {i} im");
            }
        }
    }

    #[test]
    fn plan_reuse_is_consistent_with_free_function() {
        let plan = FftPlan::new(256).unwrap();
        assert_eq!(plan.len(), 256);
        assert!(!plan.is_empty());
        let mut rng = StdRng::seed_from_u64(4);
        use rand::Rng;
        let orig: Vec<Complex> = (0..256)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), 0.0))
            .collect();
        let mut a = orig.clone();
        let mut b = orig.clone();
        plan.forward(&mut a);
        fft(&mut b);
        assert_eq!(a, b);
        plan.inverse(&mut a);
        for (x, y) in a.iter().zip(&orig) {
            assert!((x.re - y.re).abs() < 1e-5 && (x.im - y.im).abs() < 1e-5);
        }
    }

    #[test]
    fn stft_shape_matches_config() {
        let w = tone(440.0, 1.0, 16_000);
        let cfg = StftConfig::speech_default();
        let s = stft(&w, cfg).unwrap();
        assert_eq!(s.bins(), 257);
        assert_eq!(s.frames(), cfg.frames(16_000));
        assert_eq!(s.frames(), (16_000 - 512) / 160 + 1);
    }

    #[test]
    fn stft_localizes_tone_frequency() {
        let rate = 16_000;
        let w = tone(1000.0, 0.5, rate);
        let cfg = StftConfig::speech_default();
        let s = stft(&w, cfg).unwrap();
        // Expected bin: 1000 Hz / (16000/512) = 32.
        let mid = s.frames() / 2;
        let peak = (0..s.bins()).max_by(|&a, &b| s.at(mid, a).partial_cmp(&s.at(mid, b)).unwrap()).unwrap();
        assert!((peak as i32 - 32).abs() <= 1, "peak bin {peak}");
    }

    /// The per-frame loop [`MelBank::apply`] replaced: one sequential
    /// `Iterator::sum` per (frame, band).
    fn mel_apply_ref(bank: &MelBank, spec: &Spectrogram) -> Spectrogram {
        let n_bins = bank.n_bins;
        let mut data = Vec::with_capacity(spec.frames() * bank.n_mels);
        for row in spec.data().chunks_exact(n_bins) {
            for (m, &(b0, b1)) in bank.support.iter().enumerate() {
                let (b0, b1) = (b0 as usize, b1 as usize);
                let w = &bank.weights[m * n_bins + b0..m * n_bins + b1];
                let s: f32 = w.iter().zip(&row[b0..b1]).map(|(&w, &p)| w * p).sum();
                data.push((s + 1e-10).ln());
            }
        }
        Spectrogram::new(spec.frames(), bank.n_mels, data)
    }

    /// Shape and every value's bits, so NaN and `-0.0` compare exactly.
    fn bits(s: &Spectrogram) -> (usize, usize, Vec<u32>) {
        (s.frames(), s.bins(), s.data().iter().map(|v| v.to_bits()).collect())
    }

    #[test]
    fn mel_apply_matches_per_frame_reference_on_speech() {
        for seed in 0..3 {
            let clip = crate::synth::librispeech_like_clip(seed);
            let spec = stft(&clip, StftConfig::speech_default()).unwrap();
            let bank = MelBank::new(40, spec.bins(), 16_000).unwrap();
            assert_eq!(bits(&bank.apply(&spec)), bits(&mel_apply_ref(&bank, &spec)), "seed {seed}");
        }
    }

    /// The test-only oracle for [`stft`]: a full `n_fft`-point complex FFT
    /// of each real, zero-imaginary frame, keeping bins `0..=n_fft/2`.
    fn stft_complex_ref(wave: &Waveform, cfg: StftConfig) -> Spectrogram {
        let n = cfg.n_fft;
        let window = hann(n);
        let samples = wave.samples();
        let frames = cfg.frames(samples.len());
        let mut data = Vec::new();
        for f in 0..frames {
            let at = |i: usize| samples.get(f * cfg.hop + i).map_or(0.0, |&x| x * window[i]);
            let frame: Vec<Complex> = (0..n).map(|i| Complex::new(at(i), 0.0)).collect();
            data.extend(fft_recursive_ref(&frame).iter().take(n / 2 + 1).map(|c| c.norm_sq()));
        }
        Spectrogram::new(frames, n / 2 + 1, data)
    }

    #[test]
    fn stft_pins_dc_and_nyquist_bins() {
        // Bins 0 and n/2 come from Z[0] alone. A constant frame puts all of
        // its windowed sum in bin 0, an alternating one all of it in bin
        // n/2 (for n = 2 the window [0, 1] leaves one sample, in both).
        for n in [2usize, 4, 512] {
            let sum = (n / 2) as f32;
            let full = sum * sum;
            let (dc, nyq): (f32, f32) = if n == 2 { (1.0, 1.0) } else { (full, 0.0) };
            let cfg = StftConfig { n_fft: n, hop: n };
            let constant = Waveform::new(vec![1.0; n], 16_000).unwrap();
            let signs = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
            let alternating = Waveform::new(signs, 16_000).unwrap();
            for (wave, want0, want_nyq) in [(constant, dc, nyq), (alternating, nyq, dc)] {
                let s = stft(&wave, cfg).unwrap();
                assert_eq!((s.frames(), s.bins()), (1, n / 2 + 1));
                let tol = 1e-5 * full;
                let (got0, got_nyq) = (s.at(0, 0), s.at(0, n / 2));
                assert!((got0 - want0).abs() <= tol, "n={n} bin 0: {got0} vs {want0}");
                assert!((got_nyq - want_nyq).abs() <= tol, "n={n} nyquist: {got_nyq} vs {want_nyq}");
            }
        }
    }

    #[test]
    fn mel_scale_round_trips() {
        for hz in [0.0f32, 100.0, 440.0, 4000.0, 8000.0] {
            assert!((mel_to_hz(hz_to_mel(hz)) - hz).abs() < 0.5);
        }
        assert!(hz_to_mel(1000.0) > hz_to_mel(500.0));
    }

    #[test]
    fn mel_bank_rows_cover_spectrum() {
        let bank = MelBank::new(40, 257, 16_000).unwrap();
        assert_eq!(bank.n_mels(), 40);
        // Every filter has some mass; interior bins are covered by >= 1 filter.
        for m in 0..40 {
            let sum: f32 = (0..257).map(|b| bank.weights[m * 257 + b]).sum();
            assert!(sum > 0.0, "empty mel filter {m}");
        }
    }

    #[test]
    fn mel_spectrogram_shape_for_librispeech_clip() {
        let w = crate::synth::librispeech_like_clip(1);
        let cfg = StftConfig::speech_default();
        let mel = mel_spectrogram(&w, cfg, 80).unwrap();
        assert_eq!(mel.bins(), 80);
        assert!(mel.frames() > 400, "frames={}", mel.frames());
        // ~100 frames/s at 10ms hop.
        let fps = mel.frames() as f64 / w.duration_secs();
        assert!((95.0..105.0).contains(&fps), "fps={fps}");
    }

    #[test]
    fn masking_zeroes_stripes_only() {
        let s = Spectrogram::new(20, 10, vec![1.0; 200]);
        let mut rng = StdRng::seed_from_u64(2);
        let m = s.masked(1, 4, 1, 3, &mut rng);
        let zeros = m.data().iter().filter(|&&v| v == 0.0).count();
        assert!(zeros > 0);
        assert!(zeros < 200, "masking must not erase everything");
        // Unmasked entries are untouched.
        assert!(m.data().iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn masking_zero_masks_is_identity() {
        let s = Spectrogram::new(5, 4, (0..20).map(|i| i as f32).collect());
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.masked(0, 5, 0, 5, &mut rng), s);
    }

    #[test]
    fn normalization_centers_bins() {
        let w = crate::synth::speech_like_waveform(1.0, 16_000, 6);
        let mel = mel_spectrogram(&w, StftConfig::speech_default(), 40).unwrap().normalized();
        for b in 0..mel.bins() {
            let mean: f64 = (0..mel.frames()).map(|t| mel.at(t, b) as f64).sum::<f64>()
                / mel.frames() as f64;
            assert!(mean.abs() < 1e-3, "bin {b} mean {mean}");
        }
    }

    /// The per-bin reference [`Spectrogram::normalized`] must match bit for
    /// bit: one bin at a time, frames in ascending order.
    fn normalized_per_bin_ref(s: &Spectrogram) -> Spectrogram {
        let mut out = s.clone();
        for b in 0..s.bins() {
            let mut mean = 0.0f64;
            for t in 0..s.frames() {
                mean += s.at(t, b) as f64;
            }
            mean /= s.frames().max(1) as f64;
            let mut var = 0.0f64;
            for t in 0..s.frames() {
                var += (s.at(t, b) as f64 - mean).powi(2);
            }
            var /= s.frames().max(1) as f64;
            let std = var.sqrt().max(1e-8);
            for t in 0..s.frames() {
                out.data[t * s.bins() + b] = ((s.at(t, b) as f64 - mean) / std) as f32;
            }
        }
        out
    }

    #[test]
    fn normalization_matches_per_bin_reference_bit_for_bit() {
        let w = crate::synth::speech_like_waveform(1.0, 16_000, 9);
        let mel = mel_spectrogram(&w, StftConfig::speech_default(), 40).unwrap();
        let constant_bin = Spectrogram::new(3, 2, vec![1.0, 0.5, 1.0, -0.5, 1.0, 2.0]);
        let (no_frames, no_bins) = (Spectrogram::new(0, 4, vec![]), Spectrogram::new(3, 0, vec![]));
        for s in [mel, constant_bin, no_frames, no_bins] {
            let got = s.normalized();
            let want = normalized_per_bin_ref(&s);
            assert_eq!((got.frames(), got.bins()), (want.frames(), want.bins()));
            for (a, b) in got.data().iter().zip(want.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn constructors_reject_bad_inputs_as_values() {
        assert_eq!(Waveform::new(vec![], 8000), Err(AudioError::EmptyWaveform));
        assert_eq!(Waveform::new(vec![0.0], 0), Err(AudioError::ZeroSampleRate));
        assert!(matches!(
            FftPlan::new(12),
            Err(AudioError::FftLengthNotPowerOfTwo { n: 12 })
        ));
        let w = tone(440.0, 0.1, 8000);
        assert_eq!(
            stft(&w, StftConfig { n_fft: 100, hop: 10 }),
            Err(AudioError::FftLengthNotPowerOfTwo { n: 100 })
        );
        assert_eq!(
            stft(&w, StftConfig { n_fft: 128, hop: 0 }),
            Err(AudioError::ZeroHop)
        );
        assert_eq!(MelBank::new(0, 257, 16_000), Err(AudioError::NoMelBands));
        assert_eq!(
            MelBank::new(40, 40, 16_000),
            Err(AudioError::TooFewBins { n_mels: 40, n_bins: 40 })
        );
        assert_eq!(MelBank::new(4, 9, 0), Err(AudioError::ZeroSampleRate));
        // Errors render the same diagnostics the old asserts carried.
        let msg = AudioError::FftLengthNotPowerOfTwo { n: 12 }.to_string();
        assert!(msg.contains("power of two"), "{msg}");
    }

    proptest! {
        #[test]
        fn iterative_fft_matches_recursive_on_random_sizes(
            log_n in 0u32..11,
            seed in 0u64..1_000,
        ) {
            let n = 1usize << log_n;
            let mut rng = StdRng::seed_from_u64(seed);
            use rand::Rng;
            // Every third case is all signed zeros. A zero's sign reaches
            // an output only when every term summed into that output is
            // zero, so zeros scattered among nonzero inputs would not show
            // a butterfly that skips its `w = 1` multiply; whole-zero inputs
            // do.
            let zero = |rng: &mut StdRng| if rng.gen::<bool>() { 0.0 } else { -0.0 };
            let orig: Vec<Complex> = (0..n)
                .map(|_| {
                    if seed % 3 == 0 {
                        Complex::new(zero(&mut rng), zero(&mut rng))
                    } else {
                        Complex::new(rng.gen_range(-8.0..8.0), rng.gen_range(-8.0..8.0))
                    }
                })
                .collect();
            let mut iterative = orig.clone();
            fft(&mut iterative);
            let recursive = fft_recursive_ref(&orig);
            for (a, b) in iterative.iter().zip(&recursive) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }

        /// The real-input STFT against a full `n_fft`-point complex FFT of
        /// every frame (`fft_recursive_ref`), for every size up to 1024,
        /// every hop up to `n_fft` and clips shorter than one frame.
        #[test]
        fn stft_matches_complex_reference(
            log_n in 0u32..11,
            hop_pick in any::<usize>(),
            len_pick in any::<usize>(),
            amp in 1e-3f32..1e3,
            seed in 0u64..1_000,
        ) {
            let n_fft = 1usize << log_n;
            let hop = 1 + hop_pick % n_fft;
            // Up to nine frames; lengths below `n_fft` give one padded frame.
            let len = 1 + len_pick % (n_fft + 8 * hop);
            let mut rng = StdRng::seed_from_u64(seed);
            use rand::Rng;
            let samples = (0..len).map(|_| amp * rng.gen_range(-1.0f32..1.0)).collect();
            let wave = Waveform::new(samples, 16_000).unwrap();
            let cfg = StftConfig { n_fft, hop };
            let got = stft(&wave, cfg).unwrap();
            let want = stft_complex_ref(&wave, cfg);
            prop_assert_eq!((got.frames(), got.bins()), (want.frames(), want.bins()));
            for (g, w) in got.data().chunks(got.bins()).zip(want.data().chunks(want.bins())) {
                let peak = w.iter().fold(0.0f32, |a, &p| a.max(p));
                for (k, (&g, &w)) in g.iter().zip(w).enumerate() {
                    prop_assert!(
                        (g - w).abs() <= 1e-5 * peak + 1e-12,
                        "n_fft {} hop {} len {} bin {}: {} vs {}", n_fft, hop, len, k, g, w
                    );
                }
            }
        }

        /// The blocked Mel bank against the per-frame loop, bit for bit,
        /// over random banks and frame counts (none, fewer than a block,
        /// and non-multiples of it), with zero and huge bins mixed in.
        #[test]
        fn mel_apply_matches_per_frame_reference(
            n_mels in 1usize..64,
            extra_bins in 1usize..400,
            rate in 1u32..50_000,
            frames in 0usize..50,
            seed in 0u64..1_000,
        ) {
            use rand::Rng;
            let n_bins = n_mels + extra_bins;
            let bank = MelBank::new(n_mels, n_bins, rate).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let data = (0..frames * n_bins)
                .map(|_| match rng.gen_range(0u32..8) {
                    0 => 0.0,
                    1 => rng.gen_range(0.0f32..1e30),
                    _ => rng.gen_range(0.0f32..10.0),
                })
                .collect();
            let spec = Spectrogram::new(frames, n_bins, data);
            prop_assert_eq!(bits(&bank.apply(&spec)), bits(&mel_apply_ref(&bank, &spec)));
        }

        /// Satellite property: adversarial configurations reaching the audio
        /// path's public constructors and kernels are rejected as
        /// [`AudioError`] values — never as panics.
        #[test]
        fn adversarial_audio_configs_never_panic(
            n_samples in 0usize..400,
            rate in 0u32..50_000,
            n_fft in 0usize..700,
            hop in 0usize..80,
            n_mels in 0usize..80,
        ) {
            let _ = FftPlan::new(n_fft);
            let _ = MelBank::new(n_mels, n_fft, rate);
            if let Ok(w) = Waveform::new(vec![0.25; n_samples], rate) {
                let cfg = StftConfig { n_fft, hop };
                if let Ok(spec) = stft(&w, cfg) {
                    if let Ok(bank) = MelBank::new(n_mels, spec.bins(), rate) {
                        let want = mel_apply_ref(&bank, &spec);
                        prop_assert_eq!(bits(&bank.apply(&spec)), bits(&want));
                    }
                }
                let _ = mel_spectrogram(&w, cfg, n_mels);
            }
        }

        #[test]
        fn stft_frames_formula(n in 1usize..60_000) {
            let cfg = StftConfig::speech_default();
            let f = cfg.frames(n);
            if n >= cfg.n_fft {
                prop_assert!(f >= 1);
                // Last frame fits entirely.
                prop_assert!((f - 1) * cfg.hop + cfg.n_fft <= n);
                // One more frame would not fit.
                prop_assert!(f * cfg.hop + cfg.n_fft > n);
            } else {
                prop_assert_eq!(f, 1);
            }
        }
    }
}
