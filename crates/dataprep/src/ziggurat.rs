//! Ziggurat sampler for the standard normal distribution.
//!
//! The Gaussian-noise augmentation stage draws one normal variate per byte of
//! image data, which made the Box–Muller transform (one `ln`, one `sqrt`, one
//! `sin_cos` per pair of variates) the hottest kernel in the image pipeline.
//! The Marsaglia–Tsang ziggurat replaces that with, on ~98.5% of draws, a
//! single 64-bit random word, one table lookup, one compare, and one multiply.
//!
//! Layout: 256 horizontal layers of equal area `V` covering the right half of
//! the density `f(x) = e^{-x²/2}` (unnormalized), with `R = 3.6541528853610088`
//! the x-coordinate of the base layer and `V = 0.00492867323399` the common
//! area. The base layer's excess area over `[0, R]` is folded into an
//! exponential-tail fallback (Marsaglia's method). Tables are built once via
//! `OnceLock` — no `const fn` transcendentals needed and no build script.

use rand::{Rng, RngCore};
use std::sync::OnceLock;

/// Words [`BufferedRng`] pulls from its inner generator per refill.
const WORDS: usize = 64;

/// Amortizes RNG dispatch overhead: pulls 64 words at a time from the inner
/// generator via one `fill_bytes` call straight into the word slots, then
/// serves `next_u64` from the local buffer. Matters when the inner generator
/// sits behind `&mut dyn RngCore` (as in
/// [`crate::pipeline::PrepStage::apply`]). On a 2-vCPU 2.0 GHz x86-64 host
/// a virtual `next_u64` costs ~2.1 ns per word, while a refill through the
/// vendored `StdRng::fill_bytes` costs ~1.5 ns per word, the xoshiro256++
/// chain itself, since that fill stores whole words (4.4 ns per word when
/// it copied each word with a variable-length copy); a buffered word is
/// then one load.
///
/// The word stream is identical to calling `next_u64` on the inner generator
/// directly (for generators whose `fill_bytes` emits little-endian
/// `next_u64` output, as the vendored `StdRng` does); unconsumed buffered
/// words are discarded on drop, so the *inner* generator advances in whole
/// 64-word blocks, further than the words consumed.
pub struct BufferedRng<'a, R: RngCore + ?Sized> {
    inner: &'a mut R,
    buf: [[u8; 8]; WORDS],
    pos: usize,
}

impl<'a, R: RngCore + ?Sized> BufferedRng<'a, R> {
    pub fn new(inner: &'a mut R) -> Self {
        Self { inner, buf: [[0; 8]; WORDS], pos: WORDS }
    }

    fn refill(&mut self) {
        self.inner.fill_bytes(self.buf.as_flattened_mut());
        self.pos = 0;
    }
}

impl<R: RngCore + ?Sized> RngCore for BufferedRng<'_, R> {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.pos == WORDS {
            self.refill();
        }
        let w = u64::from_le_bytes(self.buf[self.pos]);
        self.pos += 1;
        w
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let b = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&b[..chunk.len()]);
        }
    }
}

const LAYERS: usize = 256;
const R: f64 = 3.654_152_885_361_009;
const V: f64 = 4.928_673_233_974_655e-3;

struct Tables {
    /// `x[i]` = right edge of layer `i`, descending: `x[0]` is the pseudo-edge
    /// `V/f(R)` of the base strip, `x[1] = R`, and the edges fall to ~0 at
    /// `x[256]`. Stored as f32 for the fast-path multiply.
    x: [f32; LAYERS + 1],
    /// `f(x[i])` — density at each edge, for the wedge rejection test.
    f: [f32; LAYERS + 1],
    /// `floor(x[i+1]/x[i] * 2^23)` — threshold on a 23-bit uniform mantissa
    /// for the "inside the rectangle" fast path. A draw consumes 32 bits
    /// (8 layer + 1 sign + 23 mantissa), so one `next_u64` yields **two**
    /// draws, and `u32 → f32` is a single instruction on x86-64 where
    /// `u64 → f32` is not.
    k: [u32; LAYERS],
    /// `x[i] / 2^23` — folds the mantissa normalization into the layer width
    /// so the fast path is one integer compare and one multiply.
    w: [f32; LAYERS],
}

/// Uniform mantissa bits per draw; see [`Tables::k`].
const MANTISSA_BITS: u32 = 23;

fn density(x: f64) -> f64 {
    (-0.5 * x * x).exp()
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        // Edges descend: x[0] is a pseudo-edge sized so the base strip
        // (rectangle out to R plus the tail) has area V; x[1] = R; then each
        // layer above has equal area V, so f(x[i]) = f(x[i-1]) + V / x[i-1]
        // and x[i] = f^{-1}(that) = sqrt(-2 ln f).
        let mut xd = [0.0f64; LAYERS + 1];
        xd[0] = V / density(R);
        xd[1] = R;
        let mut fi = density(R);
        for i in 2..=LAYERS {
            fi += V / xd[i - 1];
            xd[i] = if fi >= 1.0 { 0.0 } else { (-2.0 * fi.ln()).sqrt() };
        }

        let mut t = Tables {
            x: [0.0; LAYERS + 1],
            f: [0.0; LAYERS + 1],
            k: [0; LAYERS],
            w: [0.0; LAYERS],
        };
        for (i, &x) in xd.iter().enumerate() {
            t.x[i] = x as f32;
            t.f[i] = density(x) as f32;
        }
        for i in 0..LAYERS {
            let ratio = if xd[i] > 0.0 { xd[i + 1] / xd[i] } else { 0.0 };
            t.k[i] = (ratio * (1u32 << MANTISSA_BITS) as f64) as u32;
            t.w[i] = (xd[i] / (1u32 << MANTISSA_BITS) as f64) as f32;
        }
        t
    })
}

/// Whether draw word `h` lands inside its layer's rectangle (~98.5% of
/// draws), the fast path of [`rect`].
#[inline]
fn in_rect(t: &Tables, h: u32) -> bool {
    (h >> 9) < t.k[(h & 0xff) as usize]
}

/// The fast-path variate of a draw word inside its rectangle: one
/// int→float convert and one multiply. The sign is applied by XOR-ing the
/// random bit into the f32 sign bit rather than branching on it — a 50/50
/// branch would mispredict half the time.
#[inline]
fn rect(t: &Tables, h: u32) -> f32 {
    let xf = (h >> 9) as f32 * t.w[(h & 0xff) as usize];
    let sign_bit = (h & 0x100) << 23;
    f32::from_bits(xf.to_bits() ^ sign_bit)
}

/// Resolve one 32-bit draw word: layer index in bits 0..8, sign in bit 8,
/// mantissa in bits 9..32.
#[inline]
fn from_word<G: Rng + ?Sized>(t: &Tables, h: u32, rng: &mut G) -> f32 {
    if in_rect(t, h) {
        return rect(t, h);
    }
    edge_case(t, h, rng)
}

/// Tail and wedge handling (~1.5% of draws).
#[cold]
fn edge_case<G: Rng + ?Sized>(t: &Tables, h: u32, rng: &mut G) -> f32 {
    let i = (h & 0xff) as usize;
    let u23 = h >> 9;
    let sign = if h & 0x100 != 0 { -1.0f32 } else { 1.0f32 };
    if i == 0 {
        // Base strip: sample the exponential tail beyond R.
        loop {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(f32::EPSILON..1.0);
            let x = -u1.ln() / R as f32;
            let y = -u2.ln();
            if y + y >= x * x {
                return sign * (R as f32 + x);
            }
        }
    }
    // Wedge: accept with probability proportional to the density gap;
    // reject by redrawing from scratch.
    let xf = u23 as f32 * t.w[i];
    let fy: f32 = rng.gen();
    if t.f[i + 1] + fy * (t.f[i] - t.f[i + 1]) < (-0.5 * xf * xf).exp() {
        return sign * xf;
    }
    standard_normal(rng)
}

/// Draw one standard normal variate.
#[inline]
pub fn standard_normal<G: Rng + ?Sized>(rng: &mut G) -> f32 {
    let t = tables();
    let bits = rng.next_u64();
    from_word(t, bits as u32, rng)
}

/// Draw two standard normal variates from a single 64-bit word, low half
/// first. [`fill_standard_normal`] is the bulk form; this per-pair form is
/// its test reference.
#[cfg(test)]
pub(crate) fn standard_normal_pair<G: Rng + ?Sized>(rng: &mut G) -> (f32, f32) {
    let t = tables();
    let bits = rng.next_u64();
    let a = from_word(t, bits as u32, rng);
    let b = from_word(t, (bits >> 32) as u32, rng);
    (a, b)
}

/// Fill `out` with standard normal variates: the bulk path for per-byte
/// noise. Draws exactly what one word per pair of slots (low half first)
/// and then [`standard_normal`] for an odd last slot would: the same words
/// in the same order, and the same words consumed by edge cases. The
/// per-pair loop survives as the tests' reference.
///
/// The loop walks the buffered words with a local cursor and tests both
/// halves of a word against their rectangles together, so a pair costs one
/// well-predicted branch. Only a word with a half outside (~3% of words)
/// leaves the loop for `edge_pair`, which draws through the same buffer
/// (and may refill it mid-draw).
pub fn fill_standard_normal<R: RngCore + ?Sized>(rng: &mut BufferedRng<'_, R>, out: &mut [f32]) {
    let t = tables();
    let (pairs, odd) = out.split_at_mut(out.len() & !1);
    let mut pos = rng.pos;
    for pair in pairs.chunks_exact_mut(2) {
        if pos == WORDS {
            rng.refill();
            pos = 0;
        }
        let w = u64::from_le_bytes(rng.buf[pos]);
        pos += 1;
        let (lo, hi) = (w as u32, (w >> 32) as u32);
        if in_rect(t, lo) & in_rect(t, hi) {
            pair[0] = rect(t, lo);
            pair[1] = rect(t, hi);
        } else {
            rng.pos = pos;
            (pair[0], pair[1]) = edge_pair(t, lo, hi, rng);
            pos = rng.pos;
        }
    }
    rng.pos = pos;
    if let Some(last) = odd.first_mut() {
        *last = standard_normal(rng);
    }
}

/// Both halves of a word with at least one half outside its rectangle, low
/// half first, drawing any extra words from `rng`.
#[cold]
#[inline(never)]
fn edge_pair<G: Rng + ?Sized>(t: &Tables, lo: u32, hi: u32, rng: &mut G) -> (f32, f32) {
    let a = from_word(t, lo, rng);
    (a, from_word(t, hi, rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table_construction_is_sane() {
        let t = tables();
        // Edges descend monotonically from the pseudo-edge to ~0.
        for i in 1..LAYERS {
            assert!(t.x[i] > t.x[i + 1], "x[{i}]={} x[{}]={}", t.x[i], i + 1, t.x[i + 1]);
        }
        assert!((t.x[1] - R as f32).abs() < 1e-6);
        assert!(t.x[LAYERS] < 0.02, "top edge should approach 0: {}", t.x[LAYERS]);
        // Densities ascend as x descends.
        for i in 1..LAYERS {
            assert!(t.f[i + 1] >= t.f[i]);
        }
    }

    #[test]
    fn moments_match_standard_normal() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000usize;
        let (mut s1, mut s2, mut s4) = (0.0f64, 0.0f64, 0.0f64);
        let mut tail = 0usize;
        // Exercise the bulk path: both halves of each word.
        let mut zs = vec![0.0f32; n];
        fill_standard_normal(&mut BufferedRng::new(&mut rng), &mut zs);
        for z in zs.into_iter().map(f64::from) {
            s1 += z;
            s2 += z * z;
            s4 += z * z * z * z;
            if z.abs() > 3.0 {
                tail += 1;
            }
        }
        let mean = s1 / n as f64;
        let var = s2 / n as f64 - mean * mean;
        let kurt = s4 / n as f64 / (var * var);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
        assert!((kurt - 3.0).abs() < 0.15, "kurtosis {kurt}");
        // P(|Z|>3) ≈ 0.0027; allow generous slack at this sample size.
        let tail_frac = tail as f64 / n as f64;
        assert!(tail_frac > 0.0015 && tail_frac < 0.0045, "tail {tail_frac}");
    }

    #[test]
    fn tail_path_produces_values_beyond_r() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen_tail = false;
        for _ in 0..2_000_000 {
            if standard_normal(&mut rng).abs() > R as f32 {
                seen_tail = true;
                break;
            }
        }
        assert!(seen_tail, "tail beyond R={R} never sampled");
    }

    /// A generator that hands out scripted words at scripted indices and
    /// fast-path words everywhere else, counting the words it hands out.
    /// Its other words keep `StdRng`'s bits except that each half's layer
    /// is forced into 1..=128 and its mantissa below 2^21, inside every one
    /// of those rectangles, so the output index of a scripted word is known.
    struct Scripted {
        base: StdRng,
        script: Vec<(usize, u64)>,
        drawn: usize,
    }

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            let w = self.base.next_u64();
            let w = (w & !0xC000_00FF_C000_00FF) | ((w & 0x7F_0000_007F) + 0x1_0000_0001);
            let at = self.drawn;
            self.drawn += 1;
            self.script.iter().find(|&&(i, _)| i == at).map_or(w, |&(_, s)| s)
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                let n = chunk.len();
                chunk.copy_from_slice(&bytes[..n]);
            }
        }
    }

    /// Draw word of layer `i` with the largest mantissa, which is outside
    /// every rectangle: a wedge draw for `i > 0`, a tail draw for `i = 0`.
    fn edge_word(i: u32) -> u64 {
        u64::from(i | (((1 << MANTISSA_BITS) - 1) << 9))
    }

    #[test]
    fn edge_cases_refill_mid_draw_like_the_per_pair_path() {
        // Word 63 is the last of the first buffer: wedge low half, tail high
        // half, so `edge_case` refills before either resolves. Word 127 ends
        // the second buffer with a wedge alone, and word 130 puts both in
        // the middle of the third.
        assert!(tables().k[1..=128].iter().all(|&k| k >= 1 << 21), "unscripted words are fast");
        let (wedge, tail) = (edge_word(5), edge_word(0));
        let script = vec![
            (63, wedge | tail << 32),
            (127, 3 << 32 | edge_word(200)),
            (130, tail | wedge << 32),
        ];
        let scripted = || Scripted { base: StdRng::seed_from_u64(3), script: script.clone(), drawn: 0 };
        for len in [128usize, 255, 256, 300] {
            let (mut got_inner, mut want_inner) = (scripted(), scripted());
            let mut got = vec![0.0f32; len];
            fill_standard_normal(&mut BufferedRng::new(&mut got_inner), &mut got);
            let mut want = Vec::with_capacity(len);
            let mut rng = BufferedRng::new(&mut want_inner);
            for _ in 0..len / 2 {
                let (a, b) = standard_normal_pair(&mut rng);
                want.extend([a, b]);
            }
            if len % 2 == 1 {
                want.push(standard_normal(&mut rng));
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "length {len}");
            assert_eq!(got_inner.drawn, want_inner.drawn, "inner words drawn at length {len}");
            assert_eq!(got_inner.drawn % WORDS, 0, "whole 64-word blocks");
            assert!(got[127].abs() > R as f32, "word 63's high half is a tail draw");
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert_eq!(standard_normal(&mut r1), standard_normal(&mut r2));
        }
    }
}
