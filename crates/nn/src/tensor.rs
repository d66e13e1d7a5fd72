//! A minimal row-major `f32` matrix and the one GEMM core every product in
//! the trainer runs through.

use serde::{Deserialize, Serialize};

/// A dense row-major matrix.
///
/// # Example
///
/// ```
/// use trainbox_nn::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// A borrowed row-major matrix: rows of a larger buffer used as a product's
/// left operand without copying them out.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatrixView<'a> {
    /// View `data` as `rows × cols`, row-major.
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        MatrixView { rows, cols, data }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "matmul dimension mismatch");
        let lhs = Lhs { data: self.data, row_stride: self.cols, k_stride: 1 };
        gemm(lhs, self.rows, &rhs.data, rhs.rows, rhs.cols)
    }

    /// Matrix product `selfᵀ × rhs`, reading `self` column by column instead
    /// of building its transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self` and `rhs` differ in row count.
    pub fn t_matmul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.rows, rhs.rows, "t_matmul dimension mismatch");
        let lhs = Lhs { data: self.data, row_stride: 1, k_stride: self.cols };
        gemm(lhs, self.cols, &rhs.data, rhs.rows, rhs.cols)
    }
}

/// Output rows computed together. Each rhs strip load is shared by this many
/// rows, and `ROW_BLOCK × STRIP` accumulators (24 eight-lane vectors) stay in
/// registers across the whole k loop.
const ROW_BLOCK: usize = 4;

/// Output columns per accumulator strip.
const STRIP: usize = 48;

/// A product's left operand: element `(r, k)` is
/// `data[r * row_stride + k * k_stride]`, so a transposed read is a stride
/// swap, not a copy.
#[derive(Clone, Copy)]
struct Lhs<'a> {
    data: &'a [f32],
    row_stride: usize,
    k_stride: usize,
}

impl Lhs<'_> {
    #[inline(always)]
    fn at(&self, r: usize, k: usize) -> f32 {
        self.data[r * self.row_stride + k * self.k_stride]
    }
}

/// The GEMM core: `lhs (m × kd) × rhs (kd × n)`, row-major `rhs`.
///
/// Every output element sums its terms in ascending-k order from `+0.0`, one
/// rounded multiply and one rounded add per term (rustc never contracts them
/// into an FMA), and skips the term of each zero lhs entry: exactly the naive
/// triple loop, so results are bit-identical to it for every input, `inf` and
/// `NaN` included. Only the order in which *independent* elements are
/// computed changes: a block of rows times a strip of columns at a time.
fn gemm(lhs: Lhs<'_>, m: usize, rhs: &[f32], kd: usize, n: usize) -> Matrix {
    let mut out = Matrix::zeros(m, n);
    let mut r = 0;
    while r + ROW_BLOCK <= m {
        row_block::<ROW_BLOCK>(lhs, r, rhs, kd, n, &mut out.data);
        r += ROW_BLOCK;
    }
    while r < m {
        row_block::<1>(lhs, r, rhs, kd, n, &mut out.data);
        r += 1;
    }
    out
}

/// Output rows `r0..r0 + R`, one column strip at a time.
#[inline(always)]
fn row_block<const R: usize>(
    lhs: Lhs<'_>,
    r0: usize,
    rhs: &[f32],
    kd: usize,
    n: usize,
    out: &mut [f32],
) {
    let mut c0 = 0;
    while c0 + STRIP <= n {
        full_strip::<R>(lhs, r0, rhs, kd, n, c0, out);
        c0 += STRIP;
    }
    if c0 < n {
        tail_strip::<R>(lhs, r0, rhs, kd, n, c0, out);
    }
}

/// Columns `c0..c0 + STRIP` of rows `r0..r0 + R`. The compile-time width,
/// and an `acc` no slice ever borrows, keep the accumulators in vector
/// registers across the k loop.
#[inline(always)]
fn full_strip<const R: usize>(
    lhs: Lhs<'_>,
    r0: usize,
    rhs: &[f32],
    kd: usize,
    n: usize,
    c0: usize,
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; STRIP]; R];
    for k in 0..kd {
        let base = k * n + c0;
        let strip: &[f32; STRIP] =
            rhs[base..base + STRIP].try_into().expect("strip-sized slice");
        for (i, acc) in acc.iter_mut().enumerate() {
            let a = lhs.at(r0 + i, k);
            if a == 0.0 {
                continue;
            }
            for (t, &b) in acc.iter_mut().zip(strip) {
                *t += a * b;
            }
        }
    }
    for (i, acc) in acc.into_iter().enumerate() {
        let at = (r0 + i) * n + c0;
        let dst: &mut [f32; STRIP] =
            (&mut out[at..at + STRIP]).try_into().expect("strip-sized slice");
        *dst = acc;
    }
}

/// The ragged last strip, columns `c0..n` with `n - c0 < STRIP`.
#[inline(always)]
fn tail_strip<const R: usize>(
    lhs: Lhs<'_>,
    r0: usize,
    rhs: &[f32],
    kd: usize,
    n: usize,
    c0: usize,
    out: &mut [f32],
) {
    let w = n - c0;
    let mut acc = [[0.0f32; STRIP]; R];
    for k in 0..kd {
        let strip = &rhs[k * n + c0..k * n + n];
        for (i, acc) in acc.iter_mut().enumerate() {
            let a = lhs.at(r0 + i, k);
            if a == 0.0 {
                continue;
            }
            for (t, &b) in acc[..w].iter_mut().zip(strip) {
                *t += a * b;
            }
        }
    }
    for (i, acc) in acc.iter().enumerate() {
        let at = (r0 + i) * n + c0;
        out[at..at + w].copy_from_slice(&acc[..w]);
    }
}

impl Matrix {
    /// A `rows × cols` zero matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Build from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Build from row slices.
    ///
    /// # Panics
    ///
    /// Panics on ragged input or empty rows.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix { rows: rows.len(), cols, data }
    }

    /// Wrap an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |r, c| if r == c { 1.0 } else { 0.0 })
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw data, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data, row-major.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow as a [`MatrixView`].
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView { rows: self.rows, cols: self.cols, data: &self.data }
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn at(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self × rhs`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        self.view().matmul(rhs)
    }

    /// Matrix product `self × rhsᵀ`. The core reads its right operand by
    /// rows, so `rhsᵀ` is packed first: `O(rhs)` copying against the
    /// product's `O(self.rows × rhs)` multiply-adds.
    ///
    /// # Panics
    ///
    /// Panics if `self` and `rhs` differ in column count.
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.cols, "matmul_t dimension mismatch");
        let (n, kd) = (rhs.rows, rhs.cols);
        let mut packed = vec![0.0f32; kd * n];
        for (c, row) in rhs.data.chunks_exact(kd).enumerate() {
            for (k, &v) in row.iter().enumerate() {
                packed[k * n + c] = v;
            }
        }
        let lhs = Lhs { data: &self.data, row_stride: kd, k_stride: 1 };
        gemm(lhs, self.rows, &packed, kd, n)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The naive triple loop the GEMM core must match bit for bit:
    /// ascending k from `+0.0`, zero lhs entries skipped.
    fn matmul_ref(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows);
        let mut out = Matrix::zeros(a.rows, b.cols);
        for r in 0..a.rows {
            for k in 0..a.cols {
                let x = a.at(r, k);
                if x == 0.0 {
                    continue;
                }
                for c in 0..b.cols {
                    out.data[r * b.cols + c] += x * b.at(k, c);
                }
            }
        }
        out
    }

    fn transpose(a: &Matrix) -> Matrix {
        Matrix::from_fn(a.cols, a.rows, |r, c| a.at(c, r))
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.data.iter().map(|v| v.to_bits()).collect()
    }

    /// Seeded values with scattered `0.0` and `-0.0` entries, so the
    /// zero-skip runs on both signs.
    fn seeded(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32);
        assert_eq!(a.matmul(&Matrix::identity(5)), a);
        assert_eq!(Matrix::identity(3).matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_shape_checked() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "t_matmul dimension mismatch")]
    fn t_matmul_shape_checked() {
        let _ = Matrix::zeros(2, 3).view().t_matmul(&Matrix::zeros(3, 2));
    }

    #[test]
    #[should_panic(expected = "matmul_t dimension mismatch")]
    fn matmul_t_shape_checked() {
        let _ = Matrix::zeros(2, 3).matmul_t(&Matrix::zeros(3, 2));
    }

    #[test]
    fn norm_is_frobenius() {
        assert_eq!(Matrix::from_rows(&[&[3.0, 4.0]]).norm(), 5.0);
    }

    #[test]
    fn rows_accessor() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.row(1), &[3.0, 4.0]);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 2);
    }

    #[test]
    fn view_of_rows_multiplies_like_the_copy() {
        let mut rng = StdRng::seed_from_u64(3);
        let all = seeded(9, 5, &mut rng);
        let w = seeded(5, 50, &mut rng);
        let rows = MatrixView::new(4, 5, &all.data()[2 * 5..6 * 5]);
        let copy = Matrix::from_vec(4, 5, all.data()[2 * 5..6 * 5].to_vec());
        assert_eq!(bits(&rows.matmul(&w)), bits(&matmul_ref(&copy, &w)));
        assert_eq!((rows.rows(), rows.cols()), (4, 5));
    }

    #[test]
    fn zero_lhs_entries_skip_inf_and_nan_rhs_rows() {
        // Rows 1 and 3 of the rhs hold inf/NaN, and every lhs entry that
        // meets them is ±0: skipped, so no output turns NaN. A plain
        // multiply-add would give 0 × inf = NaN in every element.
        let mut rng = StdRng::seed_from_u64(5);
        let mut a = seeded(7, 4, &mut rng);
        for r in 0..7 {
            a.set(r, 1, if r % 2 == 0 { 0.0 } else { -0.0 });
            a.set(r, 3, 0.0);
        }
        let mut b = seeded(4, 53, &mut rng);
        for c in 0..53 {
            b.set(1, c, if c % 3 == 0 { f32::NAN } else { f32::INFINITY });
            b.set(3, c, f32::NEG_INFINITY);
        }
        let want = matmul_ref(&a, &b);
        assert!(want.data().iter().all(|v| v.is_finite()));
        assert_eq!(bits(&a.matmul(&b)), bits(&want));
        assert_eq!(bits(&transpose(&a).view().t_matmul(&b)), bits(&want));
        assert_eq!(bits(&a.matmul_t(&transpose(&b))), bits(&want));
        // A nonzero entry meeting the same rows does propagate inf/NaN.
        a.set(0, 1, 1.0);
        let got = a.matmul(&b);
        assert_eq!(bits(&got), bits(&matmul_ref(&a, &b)));
        assert!(got.row(0).iter().all(|v| !v.is_finite()));
    }

    proptest! {
        #[test]
        fn matmul_distributes_over_addition(
            seed in 0u64..1000,
        ) {
            // (A+B)C == AC + BC within float tolerance, on small random matrices.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut gen = |r: usize, c: usize| Matrix::from_fn(r, c, |_, _| rng.gen_range(-1.0..1.0));
            let a = gen(3, 4);
            let b = gen(3, 4);
            let c = gen(4, 2);
            let ab = Matrix::from_fn(3, 4, |r, k| a.at(r, k) + b.at(r, k));
            let lhs = ab.matmul(&c);
            let (ac, bc) = (a.matmul(&c), b.matmul(&c));
            let rhs = Matrix::from_fn(3, 2, |r, k| ac.at(r, k) + bc.at(r, k));
            for (x, y) in lhs.data().iter().zip(rhs.data()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn gemm_matches_the_naive_loop_bit_for_bit(
            m in 1usize..=70,
            k in 1usize..=70,
            n in 1usize..=70,
            seed: u64,
        ) {
            // Every m, k and n in 1..=70, plus the strip edges (47/48/49,
            // 96) and the trainer's 8-wide logits on every case; m ranges
            // over row counts that are and are not whole row blocks.
            let mut rng = StdRng::seed_from_u64(seed);
            let a = seeded(m, k, &mut rng);
            for n in [n, 8, 47, 48, 49, 96] {
                let b = seeded(k, n, &mut rng);
                let want = bits(&matmul_ref(&a, &b));
                prop_assert_eq!(bits(&a.matmul(&b)), want.clone());
                prop_assert_eq!(bits(&transpose(&a).view().t_matmul(&b)), want.clone());
                prop_assert_eq!(bits(&a.matmul_t(&transpose(&b))), want);
            }
        }
    }
}
