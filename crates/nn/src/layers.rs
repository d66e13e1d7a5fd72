//! Dense layers, activations, loss, and SGD — enough of a training stack to
//! run the Fig 5 augmentation-accuracy experiment for real.

use crate::tensor::{Matrix, MatrixView};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fully connected layer `y = xW + b`, trained by SGD with momentum.
///
/// The layer keeps no activations: [`Mlp`] holds what backprop needs and
/// hands each layer its input back.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    // Momentum buffers.
    vw: Matrix,
    vb: Vec<f32>,
}

impl Dense {
    /// He-initialized layer mapping `inputs` features to `outputs`.
    pub fn new<R: Rng + ?Sized>(inputs: usize, outputs: usize, rng: &mut R) -> Self {
        let scale = (2.0 / inputs as f32).sqrt();
        let w = Matrix::from_fn(inputs, outputs, |_, _| {
            // Box–Muller standard normal.
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos() * scale
        });
        Dense {
            vw: Matrix::zeros(inputs, outputs),
            vb: vec![0.0; outputs],
            b: vec![0.0; outputs],
            w,
        }
    }

    /// Number of input features.
    pub fn inputs(&self) -> usize {
        self.w.rows()
    }

    /// Number of output features.
    pub fn outputs(&self) -> usize {
        self.w.cols()
    }

    /// Forward pass over a batch (`batch × inputs`).
    ///
    /// # Panics
    ///
    /// Panics on feature-count mismatch.
    pub fn forward(&self, x: MatrixView<'_>) -> Matrix {
        let mut y = x.matmul(&self.w);
        let cols = y.cols();
        for row in y.data_mut().chunks_exact_mut(cols) {
            for (v, &b) in row.iter_mut().zip(&self.b) {
                *v += b;
            }
        }
        y
    }

    /// Backward pass for the batch `x` this layer last saw forward: given
    /// `dL/dy`, update the parameters with SGD+momentum and return `dL/dx`
    /// when `need_dx` asks for it. The first layer of a network has no
    /// upstream to feed, so it skips that `dy · Wᵀ` product.
    ///
    /// # Panics
    ///
    /// Panics if `x` and `dy` differ in row count or do not fit the layer.
    /// The caller keeps `x`: the layer stores no activations.
    pub fn backward(
        &mut self,
        x: MatrixView<'_>,
        dy: &Matrix,
        lr: f32,
        momentum: f32,
        need_dx: bool,
    ) -> Option<Matrix> {
        assert_eq!(
            (x.cols(), dy.cols()),
            (self.inputs(), self.outputs()),
            "backward shape mismatch"
        );
        let batch = x.rows() as f32;
        let dw = x.t_matmul(dy);
        let mut db = vec![0.0f32; self.b.len()];
        let cols = dy.cols();
        for row in dy.data().chunks_exact(cols) {
            for (d, &v) in db.iter_mut().zip(row) {
                *d += v / batch;
            }
        }
        let dx = if need_dx { Some(dy.matmul_t(&self.w)) } else { None };
        // Momentum update in one pass: per element, the batch mean, then
        // `v = v * momentum + (-lr) * d` and `w += v`, each op rounded in
        // this order.
        let params = self.w.data_mut().iter_mut().zip(self.vw.data_mut());
        for ((w, v), &g) in params.zip(dw.data()) {
            let d = g / batch;
            *v = *v * momentum + -lr * d;
            *w += *v;
        }
        for ((vb, b), &d) in self.vb.iter_mut().zip(&mut self.b).zip(&db) {
            *vb = momentum * *vb - lr * d;
            *b += *vb;
        }
        dx
    }
}

/// ReLU, in place.
fn relu(y: &mut Matrix) {
    for v in y.data_mut() {
        *v = v.max(0.0);
    }
}

/// ReLU's backward pass, in place: `dy` times the mask of the layer's
/// positive outputs. A ReLU output `h = max(x, 0)` is positive exactly where
/// its input was, so the activation doubles as the mask.
fn relu_backward(dy: &mut Matrix, h: &Matrix) {
    for (d, &h) in dy.data_mut().iter_mut().zip(h.data()) {
        *d *= if h > 0.0 { 1.0 } else { 0.0 };
    }
}

/// Softmax over rows followed by cross-entropy against integer labels.
///
/// Returns `(loss, dlogits)` where `dlogits` is ready to feed backward.
///
/// # Panics
///
/// Panics if `labels.len() != logits.rows()` or a label is out of range.
pub fn softmax_cross_entropy(logits: &Matrix, labels: &[usize]) -> (f32, Matrix) {
    assert_eq!(labels.len(), logits.rows(), "one label per row");
    let classes = logits.cols();
    let mut dlogits = Matrix::zeros(logits.rows(), classes);
    let mut loss = 0.0f64;
    for (r, &label) in labels.iter().enumerate() {
        assert!(label < classes, "label {label} out of range");
        let row = logits.row(r);
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = row.iter().map(|&v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        for (c, &e) in exps.iter().enumerate() {
            let p = e / sum;
            dlogits.set(r, c, p - if c == label { 1.0 } else { 0.0 });
            if c == label {
                loss -= (p.max(1e-12)).ln() as f64;
            }
        }
    }
    (loss as f32 / logits.rows() as f32, dlogits)
}

/// A small multi-layer perceptron classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Build with the given layer widths, e.g. `&[432, 64, 10]`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new<R: Rng + ?Sized>(widths: &[usize], rng: &mut R) -> Self {
        assert!(widths.len() >= 2, "an MLP needs input and output widths");
        let layers = widths
            .windows(2)
            .map(|w| Dense::new(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Number of dense layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Logits for a batch, keeping nothing for backprop.
    pub fn infer(&self, x: MatrixView<'_>) -> Matrix {
        self.forward(x, None)
    }

    /// The forward pass. `hidden`, when given, receives each hidden layer's
    /// post-ReLU activations: the next layer's input and that ReLU's
    /// backward mask.
    fn forward(&self, x: MatrixView<'_>, mut hidden: Option<&mut Vec<Matrix>>) -> Matrix {
        let mut h = self.layers[0].forward(x);
        for layer in &self.layers[1..] {
            relu(&mut h);
            let next = layer.forward(h.view());
            let prev = std::mem::replace(&mut h, next);
            if let Some(hidden) = hidden.as_deref_mut() {
                hidden.push(prev);
            }
        }
        h
    }

    /// One SGD step on a batch; returns the loss.
    pub fn train_step(
        &mut self,
        x: MatrixView<'_>,
        labels: &[usize],
        lr: f32,
        momentum: f32,
    ) -> f32 {
        let mut hidden = Vec::with_capacity(self.layers.len() - 1);
        let logits = self.forward(x, Some(&mut hidden));
        let (loss, mut grad) = softmax_cross_entropy(&logits, labels);
        for i in (1..self.layers.len()).rev() {
            let h = &hidden[i - 1];
            let mut dx = self.layers[i]
                .backward(h.view(), &grad, lr, momentum, true)
                .expect("dx requested");
            relu_backward(&mut dx, h);
            grad = dx;
        }
        self.layers[0].backward(x, &grad, lr, momentum, false);
        loss
    }

    /// Top-`k` accuracy of the current model on a labeled batch.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or exceeds the class count.
    pub fn top_k_accuracy(&self, x: MatrixView<'_>, labels: &[usize], k: usize) -> f64 {
        self.top_k_accuracies(x, labels, &[k])[0]
    }

    /// Top-`k` accuracy for several `k` values from a *single* inference
    /// pass — evaluating top-1 and top-5 per epoch costs one, not two.
    ///
    /// # Panics
    ///
    /// Panics if any `k` is zero or exceeds the class count.
    pub fn top_k_accuracies(
        &self,
        x: MatrixView<'_>,
        labels: &[usize],
        ks: &[usize],
    ) -> Vec<f64> {
        let logits = self.infer(x);
        assert_eq!(labels.len(), logits.rows(), "one label per row");
        for &k in ks {
            assert!(k >= 1 && k <= logits.cols(), "invalid k");
        }
        let mut hits = vec![0usize; ks.len()];
        let mut idx: Vec<usize> = Vec::new();
        for (r, label) in labels.iter().enumerate() {
            let row = logits.row(r);
            idx.clear();
            idx.extend(0..row.len());
            idx.sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap());
            for (h, &k) in hits.iter_mut().zip(ks) {
                if idx[..k].contains(label) {
                    *h += 1;
                }
            }
        }
        hits.iter().map(|&h| h as f64 / logits.rows() as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dense_forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = Dense::new(3, 2, &mut rng);
        assert_eq!((d.inputs(), d.outputs()), (3, 2));
        let x = Matrix::zeros(4, 3);
        let y = d.forward(x.view());
        assert_eq!((y.rows(), y.cols()), (4, 2));
        // Zero input -> output equals bias (zero-initialized).
        assert!(y.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn softmax_loss_at_uniform_is_log_classes() {
        let logits = Matrix::zeros(2, 4);
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 3]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient rows sum to zero.
        for r in 0..2 {
            let s: f32 = grad.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        // Check dL/dlogits from softmax_cross_entropy numerically.
        let logits = Matrix::from_rows(&[&[0.3, -0.7, 1.2]]);
        let labels = [2usize];
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        let eps = 1e-3f32;
        for c in 0..3 {
            let mut plus = logits.clone();
            plus.set(0, c, logits.at(0, c) + eps);
            let mut minus = logits.clone();
            minus.set(0, c, logits.at(0, c) - eps);
            let (lp, _) = softmax_cross_entropy(&plus, &labels);
            let (lm, _) = softmax_cross_entropy(&minus, &labels);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - grad.at(0, c)).abs() < 1e-3,
                "c={c}: numeric {num} vs analytic {}",
                grad.at(0, c)
            );
        }
    }

    #[test]
    fn relu_masks_gradient() {
        let mut y = Matrix::from_rows(&[&[-1.0, 2.0, -3.0, 4.0]]);
        relu(&mut y);
        assert_eq!(y, Matrix::from_rows(&[&[0.0, 2.0, 0.0, 4.0]]));
        let mut dy = Matrix::from_rows(&[&[1.0, 1.0, 1.0, 1.0]]);
        relu_backward(&mut dy, &y);
        assert_eq!(dy, Matrix::from_rows(&[&[0.0, 1.0, 0.0, 1.0]]));
    }

    #[test]
    fn backward_matches_the_unfused_update() {
        // Per element: dw = Σ_r x·dy over nonzero x, then v *= momentum,
        // v += -lr · dw / batch, w += 1 · v — the three separate passes the
        // fused loop replaces, bit for bit; dx reads the pre-update weights.
        let mut rng = StdRng::seed_from_u64(9);
        let mut d = Dense::new(5, 3, &mut rng);
        let x = Matrix::from_fn(4, 5, |r, c| ((r * 7 + c * 3) % 5) as f32 * 0.3 - 0.6);
        let dy = Matrix::from_fn(4, 3, |r, c| ((r + 2 * c) % 3) as f32 * 0.25 - 0.25);
        let (lr, momentum) = (0.05f32, 0.9f32);
        for _ in 0..3 {
            let (w0, v0) = (d.w.clone(), d.vw.clone());
            let dx = d.backward(x.view(), &dy, lr, momentum, true).expect("dx requested");
            for i in 0..5 {
                for j in 0..3 {
                    let mut g = 0.0f32;
                    for r in 0..4 {
                        if x.at(r, i) != 0.0 {
                            g += x.at(r, i) * dy.at(r, j);
                        }
                    }
                    g /= 4.0;
                    let mut v = v0.at(i, j);
                    v *= momentum;
                    v += -lr * g;
                    assert_eq!(d.vw.at(i, j).to_bits(), v.to_bits());
                    assert_eq!(d.w.at(i, j).to_bits(), (w0.at(i, j) + 1.0 * v).to_bits());
                }
            }
            for r in 0..4 {
                for i in 0..5 {
                    let mut s = 0.0f32;
                    for j in 0..3 {
                        if dy.at(r, j) != 0.0 {
                            s += dy.at(r, j) * w0.at(i, j);
                        }
                    }
                    assert_eq!(dx.at(r, i).to_bits(), s.to_bits());
                }
            }
        }
    }

    #[test]
    fn inference_logits_equal_training_forward_logits() {
        // After training has driven some hidden units negative, the
        // no-cache path must still give the training forward's exact bits.
        let mut rng = StdRng::seed_from_u64(4);
        let mut mlp = Mlp::new(&[13, 50, 9, 5], &mut rng);
        let x = Matrix::from_fn(11, 13, |r, c| ((r * 13 + c * 5) % 7) as f32 / 7.0 - 0.3);
        let labels: Vec<usize> = (0..11).map(|i| i % 5).collect();
        for _ in 0..5 {
            mlp.train_step(x.view(), &labels, 0.1, 0.9);
        }
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut hidden = Vec::new();
        let logits = mlp.forward(x.view(), Some(&mut hidden));
        assert_eq!(bits(&mlp.infer(x.view())), bits(&logits));
        assert_eq!(hidden.len(), 2);
        assert!(hidden.iter().all(|h| h.data().contains(&0.0)));
    }

    #[test]
    fn mlp_learns_xor() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut mlp = Mlp::new(&[2, 8, 2], &mut rng);
        assert_eq!(mlp.depth(), 2);
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let labels = [0usize, 1, 1, 0];
        let mut last = f32::INFINITY;
        for epoch in 0..2000 {
            last = mlp.train_step(x.view(), &labels, 0.1, 0.9);
            if epoch % 500 == 0 && last < 0.01 {
                break;
            }
        }
        assert!(last < 0.05, "XOR did not converge: loss={last}");
        assert_eq!(mlp.top_k_accuracy(x.view(), &labels, 1), 1.0);
    }

    #[test]
    fn top_k_accuracy_monotone_in_k() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&[4, 6], &mut rng);
        let x = Matrix::from_fn(10, 4, |r, c| ((r * 3 + c) % 5) as f32 / 5.0);
        let labels: Vec<usize> = (0..10).map(|i| i % 6).collect();
        let a1 = mlp.top_k_accuracy(x.view(), &labels, 1);
        let a3 = mlp.top_k_accuracy(x.view(), &labels, 3);
        let a6 = mlp.top_k_accuracy(x.view(), &labels, 6);
        assert!(a1 <= a3 && a3 <= a6);
        assert_eq!(a6, 1.0);
    }

    #[test]
    #[should_panic(expected = "label 9 out of range")]
    fn bad_label_rejected() {
        let logits = Matrix::zeros(1, 3);
        softmax_cross_entropy(&logits, &[9]);
    }
}
