//! Image types and the formatting/augmentation kernels of Fig 17.
//!
//! The image path of the paper's data-preparation engine is: JPEG decode →
//! crop (256×256 → 224×224, with a random basis as augmentation) → mirror →
//! Gaussian noise → cast (`u8` → `f32`). All of those kernels live here
//! except the decoder (see [`crate::jpeg`]).

use crate::error::PrepError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An 8-bit interleaved RGB image (row-major, `height * width * 3` bytes).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Image {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl Image {
    /// Create an image from raw interleaved RGB bytes.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * height * 3` or a dimension is zero.
    pub fn from_rgb(width: usize, height: usize, data: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        assert_eq!(data.len(), width * height * 3, "RGB buffer size mismatch");
        Image { width, height, data }
    }

    /// A solid-color image.
    pub fn filled(width: usize, height: usize, rgb: [u8; 3]) -> Self {
        let mut data = Vec::with_capacity(width * height * 3);
        for _ in 0..width * height {
            data.extend_from_slice(&rgb);
        }
        Image::from_rgb(width, height, data)
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw interleaved RGB bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Size of the raw buffer in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn pixel(&self, x: usize, y: usize) -> [u8; 3] {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = (y * self.width + x) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Set pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set_pixel(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = (y * self.width + x) * 3;
        self.data[i..i + 3].copy_from_slice(&rgb);
    }

    /// Crop the `cw × ch` window whose top-left corner is `(cx, cy)`.
    ///
    /// # Errors
    ///
    /// Returns [`PrepError::InvalidParam`] if the window exceeds the image.
    pub fn crop(&self, cx: usize, cy: usize, cw: usize, ch: usize) -> Result<Image, PrepError> {
        if cw == 0 || ch == 0 || cx + cw > self.width || cy + ch > self.height {
            return Err(PrepError::InvalidParam(format!(
                "crop {cw}x{ch}+{cx}+{cy} exceeds image {}x{}",
                self.width, self.height
            )));
        }
        let mut data = Vec::with_capacity(cw * ch * 3);
        for y in cy..cy + ch {
            let row = &self.data[(y * self.width + cx) * 3..(y * self.width + cx + cw) * 3];
            data.extend_from_slice(row);
        }
        Ok(Image::from_rgb(cw, ch, data))
    }

    /// Crop a `cw × ch` window with a random basis — the paper's example
    /// augmentation (§III-D: 256×256 → 32×32 distinct 224×224 crops).
    ///
    /// # Errors
    ///
    /// Returns [`PrepError::InvalidParam`] if the window exceeds the image.
    pub fn random_crop<R: Rng + ?Sized>(&self, cw: usize, ch: usize, rng: &mut R) -> Result<Image, PrepError> {
        if cw == 0 || ch == 0 || cw > self.width || ch > self.height {
            return Err(PrepError::InvalidParam(format!(
                "crop {cw}x{ch} exceeds image {}x{}",
                self.width, self.height
            )));
        }
        let cx = rng.gen_range(0..=self.width - cw);
        let cy = rng.gen_range(0..=self.height - ch);
        self.crop(cx, cy, cw, ch)
    }

    /// Horizontally mirrored copy (the flip augmentation of §II-A).
    pub fn mirror(&self) -> Image {
        let mut data = Vec::with_capacity(self.data.len());
        for y in 0..self.height {
            for x in (0..self.width).rev() {
                let i = (y * self.width + x) * 3;
                data.extend_from_slice(&self.data[i..i + 3]);
            }
        }
        Image::from_rgb(self.width, self.height, data)
    }

    /// Add zero-mean Gaussian noise with standard deviation `sigma` (in
    /// 8-bit counts), clamping to `[0, 255]`. Ziggurat sampling
    /// (Marsaglia–Tsang) over the provided RNG: one random word, one table
    /// compare, and one multiply per pair of bytes on the fast path, against
    /// the ln/sqrt/sincos per pair that Box–Muller pays.
    ///
    /// Two passes per fixed stack chunk: a draw pass
    /// ([`crate::ziggurat::fill_standard_normal`]) and an apply pass that
    /// vectorizes. Byte `i` always gets normal `i` of the stream, so the
    /// chunking changes neither the output nor the words drawn. A normal is
    /// finite and so is `sigma`, so the sum fed to `round_to_u8` is never
    /// NaN.
    pub fn gaussian_noise<R: Rng + ?Sized>(&self, sigma: f32, rng: &mut R) -> Image {
        assert!(sigma >= 0.0 && sigma.is_finite(), "sigma must be nonnegative");
        // Even, so only the last chunk can hold an odd byte count.
        const CHUNK: usize = 256;
        let mut data = Vec::with_capacity(self.data.len());
        let mut rng = crate::ziggurat::BufferedRng::new(rng);
        let mut noise = [0.0f32; CHUNK];
        for src in self.data.chunks(CHUNK) {
            let noise = &mut noise[..src.len()];
            crate::ziggurat::fill_standard_normal(&mut rng, noise);
            let noisy = src.iter().zip(noise.iter()).map(|(&b, &n)| b as f32 + n * sigma + 0.5);
            data.extend(noisy.map(round_to_u8));
        }
        Image::from_rgb(self.width, self.height, data)
    }

    /// Cast to `f32` and scale to `[0, 1]` in CHW layout — the paper's
    /// `char → float` type cast that amplifies data volume 4× (§III-C).
    pub fn to_float(&self) -> FloatImage {
        let (w, h) = (self.width, self.height);
        let plane = w * h;
        let mut data = vec![0.0f32; plane * 3];
        // One pass over the interleaved source, three sequential plane
        // writes: no per-pixel index arithmetic in the inner loop.
        let (r_plane, rest) = data.split_at_mut(plane);
        let (g_plane, b_plane) = rest.split_at_mut(plane);
        const INV: f32 = 1.0 / 255.0;
        for (((src, r), g), b) in self
            .data
            .chunks_exact(3)
            .zip(r_plane.iter_mut())
            .zip(g_plane.iter_mut())
            .zip(b_plane.iter_mut())
        {
            *r = src[0] as f32 * INV;
            *g = src[1] as f32 * INV;
            *b = src[2] as f32 * INV;
        }
        FloatImage { width: w, height: h, data }
    }
}

/// `x` truncated toward zero and clamped to `[0, 255]`: the saturating
/// `x as u8` for every non-NaN `x`, so `round_to_u8(v + 0.5)` rounds `v`
/// half up — `f32::round` is not a single instruction on x86-64.
///
/// Written as lane-wise float and integer ops so a loop over it
/// vectorizes, which a saturating float-to-int cast does not: adding 2^23
/// leaves the nearest integer to the clamped `y` in the low mantissa bits,
/// and one is taken off when that rounded up. Shared by the Gaussian noise
/// kernel and the JPEG decoder's sample store.
#[inline]
pub(crate) fn round_to_u8(x: f32) -> u8 {
    const TWO_23: f32 = 8_388_608.0;
    let y = x.clamp(0.0, 255.0);
    let m = y + TWO_23;
    (m.to_bits() as u8) - u8::from(m - TWO_23 > y)
}

/// An `f32` image in planar CHW layout, values nominally in `[0, 1]` —
/// the tensor format fed to a neural-network accelerator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FloatImage {
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl FloatImage {
    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Planar CHW data (`3 * height * width` floats).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Size in bytes when shipped to an accelerator.
    pub fn byte_len(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Channel-`c` value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn at(&self, c: usize, x: usize, y: usize) -> f32 {
        assert!(c < 3 && x < self.width && y < self.height, "index out of bounds");
        self.data[c * self.width * self.height + y * self.width + x]
    }

    /// Per-channel mean/std normalization (ImageNet-style).
    pub fn normalize(&self, mean: [f32; 3], std: [f32; 3]) -> FloatImage {
        assert!(std.iter().all(|&s| s > 0.0), "std must be positive");
        let plane = self.width * self.height;
        let mut data = self.data.clone();
        for c in 0..3 {
            for v in &mut data[c * plane..(c + 1) * plane] {
                *v = (*v - mean[c]) / std[c];
            }
        }
        FloatImage { width: self.width, height: self.height, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn gradient(w: usize, h: usize) -> Image {
        let mut img = Image::filled(w, h, [0, 0, 0]);
        for y in 0..h {
            for x in 0..w {
                img.set_pixel(x, y, [(x * 7 % 256) as u8, (y * 11 % 256) as u8, ((x + y) % 256) as u8]);
            }
        }
        img
    }

    #[test]
    fn crop_extracts_window() {
        let img = gradient(16, 12);
        let c = img.crop(4, 2, 8, 6).unwrap();
        assert_eq!(c.width(), 8);
        assert_eq!(c.height(), 6);
        assert_eq!(c.pixel(0, 0), img.pixel(4, 2));
        assert_eq!(c.pixel(7, 5), img.pixel(11, 7));
    }

    #[test]
    fn crop_out_of_bounds_is_error() {
        let img = gradient(8, 8);
        assert!(img.crop(5, 0, 4, 4).is_err());
        assert!(img.crop(0, 0, 0, 4).is_err());
        assert!(img.crop(0, 0, 8, 9).is_err());
    }

    #[test]
    fn random_crop_respects_bounds_and_seed() {
        let img = gradient(256, 256);
        let mut rng = StdRng::seed_from_u64(7);
        let a = img.random_crop(224, 224, &mut rng).unwrap();
        assert_eq!((a.width(), a.height()), (224, 224));
        let mut rng2 = StdRng::seed_from_u64(7);
        let b = img.random_crop(224, 224, &mut rng2).unwrap();
        assert_eq!(a, b, "same seed must give the same crop");
    }

    #[test]
    fn mirror_is_involutive() {
        let img = gradient(9, 5);
        assert_eq!(img.mirror().mirror(), img);
        assert_eq!(img.mirror().pixel(0, 0), img.pixel(8, 0));
    }

    #[test]
    fn gaussian_noise_zero_sigma_is_identity() {
        let img = gradient(8, 8);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(img.gaussian_noise(0.0, &mut rng), img);
    }

    #[test]
    fn gaussian_noise_perturbs_but_bounded() {
        let img = Image::filled(32, 32, [128, 128, 128]);
        let mut rng = StdRng::seed_from_u64(2);
        let noisy = img.gaussian_noise(5.0, &mut rng);
        assert_ne!(noisy, img);
        let mean: f64 = noisy.data().iter().map(|&b| b as f64).sum::<f64>() / noisy.data().len() as f64;
        assert!((mean - 128.0).abs() < 1.0, "noise should be zero-mean, got {mean}");
    }

    /// The per-pair noise loop the chunked draw/apply passes replaced: one
    /// word per pair of bytes, then one word for an odd last byte.
    fn gaussian_noise_ref<R: Rng + ?Sized>(img: &Image, sigma: f32, rng: &mut R) -> Image {
        let mut data = vec![0u8; img.data.len()];
        let mut rng = crate::ziggurat::BufferedRng::new(rng);
        let mut out_pairs = data.chunks_exact_mut(2);
        let src_pairs = img.data.chunks_exact(2);
        let src_rem = src_pairs.remainder();
        for (out, src) in (&mut out_pairs).zip(src_pairs) {
            let (n0, n1) = crate::ziggurat::standard_normal_pair(&mut rng);
            out[0] = (src[0] as f32 + n0 * sigma + 0.5) as u8;
            out[1] = (src[1] as f32 + n1 * sigma + 0.5) as u8;
        }
        for (out, &b) in out_pairs.into_remainder().iter_mut().zip(src_rem) {
            let n = crate::ziggurat::standard_normal(&mut rng);
            *out = (b as f32 + n * sigma + 0.5) as u8;
        }
        Image::from_rgb(img.width, img.height, data)
    }

    #[test]
    fn round_to_u8_is_the_saturating_cast() {
        let mut xs = vec![0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MAX, f32::MIN];
        xs.extend([f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1e-45, -1e-45, 1e9, -1e9]);
        // Every multiple of 2^-12 over [-2, 258], and the floats either side
        // of each: integers, halves and the steps between them.
        for k in -(2 << 12)..(258 << 12) {
            let x = k as f32 / 4096.0;
            xs.extend([x, x.next_down(), x.next_up()]);
        }
        // The JPEG decoder's sample store, `round_to_u8(s + 128.5)`: every
        // 1/8 step over [-1100, 1400], which holds the level-shifted IDCT
        // output of 8-bit samples with a wide margin for ringing, and the
        // floats either side of each.
        for k in -(1100 << 3)..(1400 << 3) {
            let x = k as f32 / 8.0;
            xs.extend([x, x.next_down(), x.next_up()]);
        }
        for x in xs {
            assert_eq!(round_to_u8(x), x as u8, "{x:e}");
        }
    }

    proptest::proptest! {
        /// The chunked noise against the per-pair reference, byte for byte,
        /// and the caller's generator state after the call: sizes from 1×1
        /// up (odd byte counts, non-multiples of the chunk, several buffer
        /// refills), `sigma = 1e6` saturating both ends.
        #[test]
        fn gaussian_noise_matches_per_pair_reference(
            w in 1usize..48,
            h in 1usize..48,
            sigma_pick in 0usize..3,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let sigma = [0.0, 2.0, 1e6][sigma_pick];
            let img = gradient(w, h);
            let mut got_rng = StdRng::seed_from_u64(seed);
            let mut want_rng = got_rng.clone();
            let got = img.gaussian_noise(sigma, &mut got_rng);
            let want = gaussian_noise_ref(&img, sigma, &mut want_rng);
            proptest::prop_assert_eq!(got.data(), want.data());
            proptest::prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
        }
    }

    #[test]
    fn to_float_is_chw_and_scaled() {
        let mut img = Image::filled(2, 2, [0, 0, 0]);
        img.set_pixel(1, 0, [255, 51, 102]);
        let f = img.to_float();
        assert_eq!(f.byte_len(), 2 * 2 * 3 * 4);
        assert!((f.at(0, 1, 0) - 1.0).abs() < 1e-6);
        assert!((f.at(1, 1, 0) - 0.2).abs() < 1e-6);
        assert!((f.at(2, 1, 0) - 0.4).abs() < 1e-6);
        assert_eq!(f.at(0, 0, 0), 0.0);
    }

    #[test]
    fn float_amplification_matches_paper_claim() {
        // §III-C: data load is amplified over SSD read by decompression and
        // char->float casting. A 224x224 u8 image is 147 KB; float is 588 KB.
        let img = gradient(224, 224);
        let f = img.to_float();
        assert_eq!(f.byte_len(), img.byte_len() * 4);
        assert_eq!(img.byte_len(), 150_528);
    }

    #[test]
    fn normalize_centers_channels() {
        let img = Image::filled(4, 4, [255, 0, 127]);
        let f = img.to_float().normalize([1.0, 0.0, 0.5], [2.0, 1.0, 1.0]);
        assert!((f.at(0, 0, 0) - 0.0).abs() < 1e-6);
        assert!((f.at(1, 0, 0) - 0.0).abs() < 1e-6);
        assert!((f.at(2, 0, 0) - (127.0 / 255.0 - 0.5)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "RGB buffer size mismatch")]
    fn bad_buffer_rejected() {
        Image::from_rgb(4, 4, vec![0; 10]);
    }
}
