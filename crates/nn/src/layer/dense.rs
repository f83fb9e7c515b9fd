//! Fully-connected (dense) layer.

use super::{Layer, TRAIN_GEMM};
use crate::gemm::{gemm_nn_accumulate, gemm_nt_with, BiasMode, GemmScratch};
use crate::init;
use crate::tensor::Tensor;

/// A fully-connected layer computing `y = x · Wᵀ + b` on batched inputs.
///
/// * weights have shape `[out_features, in_features]`,
/// * bias has shape `[out_features]`,
/// * inputs have shape `[batch, in_features]` and outputs `[batch, out_features]`.
///
/// # Examples
///
/// ```
/// use berry_nn::layer::{Dense, Layer};
/// use berry_nn::tensor::Tensor;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), berry_nn::NnError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut layer = Dense::new(3, 2, &mut rng);
/// let x = Tensor::from_vec(vec![4, 3], vec![0.1; 12])?;
/// let y = layer.forward(&x);
/// assert_eq!(y.shape(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Dense {
    /// Creates a dense layer with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `in_features` or `out_features` is zero.
    pub fn new<R: rand::Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        assert!(in_features > 0, "in_features must be positive");
        assert!(out_features > 0, "out_features must be positive");
        let weight = init::he_normal(&[out_features, in_features], in_features, rng);
        Self {
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            bias: Tensor::zeros(&[out_features]),
            weight,
            cached_input: None,
            in_features,
            out_features,
        }
    }

    /// Creates a dense layer with Xavier-uniform weights (appropriate for an
    /// output head that is not followed by a ReLU).
    ///
    /// # Panics
    ///
    /// Panics if `in_features` or `out_features` is zero.
    pub fn new_xavier<R: rand::Rng + ?Sized>(
        in_features: usize,
        out_features: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_features > 0, "in_features must be positive");
        assert!(out_features > 0, "out_features must be positive");
        let weight = init::xavier_uniform(
            &[out_features, in_features],
            in_features,
            out_features,
            rng,
        );
        Self {
            grad_weight: Tensor::zeros(&[out_features, in_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            bias: Tensor::zeros(&[out_features]),
            weight,
            cached_input: None,
            in_features,
            out_features,
        }
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Borrow of the weight tensor (`[out_features, in_features]`).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Borrow of the bias tensor (`[out_features]`).
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Scalar reference kernel: per-row dot products with the same output
    /// as [`Layer::infer_with`] at the Reference tier, bit for bit.  Not on
    /// any production path; the GEMM-vs-scalar tests and benches compare
    /// the GEMM core against it.
    pub fn infer_scalar(&self, input: &Tensor, out: &mut Tensor) {
        assert_eq!(input.rank(), 2, "Dense expects [batch, features] input");
        assert_eq!(
            input.shape()[1],
            self.in_features,
            "Dense input feature mismatch"
        );
        let batch = input.shape()[0];
        let (in_f, out_f) = (self.in_features, self.out_features);
        out.reset(&[batch, out_f]);
        let w = self.weight.data();
        let b = self.bias.data();
        let x = input.data();
        let y = out.data_mut();
        for n in 0..batch {
            let row = &x[n * in_f..(n + 1) * in_f];
            for o in 0..out_f {
                let w_row = &w[o * in_f..(o + 1) * in_f];
                // Accumulate over k ascending, skipping exact-zero
                // activations, then add the bias last.
                let mut acc = 0.0f32;
                for (&xv, &wv) in row.iter().zip(w_row.iter()) {
                    if xv == 0.0 {
                        continue;
                    }
                    acc += xv * wv;
                }
                y[n * out_f + o] = acc + b[o];
            }
        }
    }
}

impl Layer for Dense {
    fn infer_with(&self, input: &Tensor, out: &mut Tensor, gemm: &mut GemmScratch) {
        assert_eq!(input.rank(), 2, "Dense expects [batch, features] input");
        assert_eq!(
            input.shape()[1],
            self.in_features,
            "Dense input feature mismatch"
        );
        let batch = input.shape()[0];
        out.reset(&[batch, self.out_features]);
        // y = x · Wᵀ + b through the tiered GEMM: both operands are
        // already stored as rows over the contraction dimension.  At the
        // default Reference tier each element accumulates k-ascending with
        // the bias added last, so the bits match `infer_scalar`
        // (exact-zero activations that the reference skips
        // contribute ±0.0, which cannot change a +0.0-initialized
        // accumulator); the Fast tier follows the scratch's precision
        // setting instead.
        let (packs, precision) = gemm.packs_precision();
        gemm_nt_with(
            batch,
            self.out_features,
            self.in_features,
            input.data(),
            self.weight.data(),
            BiasMode::ColAfter(self.bias.data()),
            out.data_mut(),
            precision,
            packs,
        );
    }

    fn remember(&mut self, input: &Tensor, _output: &Tensor) {
        self.cached_input
            .get_or_insert_with(Tensor::default)
            .copy_from(input);
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward on Dense");
        assert_eq!(grad_output.rank(), 2, "Dense gradient must be rank 2");
        assert_eq!(grad_output.shape()[0], input.shape()[0]);
        assert_eq!(grad_output.shape()[1], self.out_features);
        let batch = grad_output.shape()[0];
        let (in_f, out_f) = (self.in_features, self.out_features);
        let dy = grad_output.data();
        let mut grad_input = Tensor::zeros(&[batch, in_f]);
        TRAIN_GEMM.with_borrow_mut(|gemm| {
            let buf = gemm.col_buffer(out_f * batch + out_f * in_f);
            let (dy_t, product) = buf.split_at_mut(out_f * batch);
            // grad_w += dyᵀ · x: the batch sum from +0.0 (batch ascending),
            // then added onto the accumulated gradient once.
            transpose_into(dy, batch, out_f, dy_t);
            product.fill(0.0);
            gemm_nn_accumulate(out_f, in_f, batch, dy_t, input.data(), product);
            for (g, &p) in self.grad_weight.data_mut().iter_mut().zip(product.iter()) {
                *g += p;
            }
        });
        // dx = dy · W, over the output features ascending.
        let weight = self.weight.data();
        gemm_nn_accumulate(batch, in_f, out_f, dy, weight, grad_input.data_mut());

        // grad_b += column sums of dy
        for row in dy.chunks_exact(out_f) {
            for (gb, &g) in self.grad_bias.data_mut().iter_mut().zip(row) {
                *gb += g;
            }
        }
        grad_input
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.grad_weight, &self.grad_bias]
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.grad_weight, &mut self.grad_bias]
    }

    fn zero_grad(&mut self) {
        self.grad_weight.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "Dense"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Writes the transpose of the row-major `rows×cols` matrix `src` into
/// `dst` (`cols×rows`).
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    for (i, row) in src[..rows * cols].chunks_exact(cols).enumerate() {
        for (j, &v) in row.iter().enumerate() {
            dst[j * rows + i] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::with_signed_zeros;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut r = rng();
        let mut layer = Dense::new(4, 3, &mut r);
        // Zero the weights so output equals the bias.
        layer.params_mut()[0].fill(0.0);
        layer.params_mut()[1].data_mut()[1] = 2.5;
        let x = Tensor::ones(&[2, 4]);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(y.at2(0, 1), 2.5);
        assert_eq!(y.at2(1, 0), 0.0);
    }

    #[test]
    fn param_count_matches_dimensions() {
        let mut r = rng();
        let layer = Dense::new(10, 7, &mut r);
        assert_eq!(layer.param_count(), 10 * 7 + 7);
        assert_eq!(layer.in_features(), 10);
        assert_eq!(layer.out_features(), 7);
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        let mut r = rng();
        let mut layer = Dense::new(7, 5, &mut r);
        let mut x = Tensor::rand_uniform(&[3, 7], -1.0, 1.0, &mut r);
        // Include exact zeros so the reference's zero-skip is exercised.
        x.data_mut()[0] = 0.0;
        x.data_mut()[10] = 0.0;
        let expected = layer.forward(&x);
        let mut out = Tensor::default();
        layer.infer_scalar(&x, &mut out);
        assert_eq!(out.shape(), expected.shape());
        for (a, b) in out.data().iter().zip(expected.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn gemm_path_matches_scalar_reference_bitwise_across_shapes() {
        let mut r = rng();
        let mut gemm = GemmScratch::new();
        for &(in_f, out_f, batch) in &[
            (1usize, 1usize, 1usize),
            (7, 5, 3),
            (13, 9, 8),
            (64, 25, 6),
            (200, 64, 11),
            (3, 17, 4),
        ] {
            let mut layer = Dense::new(in_f, out_f, &mut r);
            let mut x = Tensor::rand_uniform(&[batch, in_f], -1.0, 1.0, &mut r);
            // Exact zeros (and a negative zero) exercise the reference
            // path's zero-skip, which the GEMM must match bitwise anyway.
            x.data_mut()[0] = 0.0;
            if x.len() > 2 {
                x.data_mut()[2] = -0.0;
            }
            let expected = layer.forward(&x);
            let mut scalar = Tensor::default();
            layer.infer_scalar(&x, &mut scalar);
            let mut gemmed = Tensor::default();
            layer.infer_with(&x, &mut gemmed, &mut gemm);
            assert_eq!(gemmed.shape(), expected.shape());
            for (i, ((g, sc), f)) in gemmed
                .data()
                .iter()
                .zip(scalar.data())
                .zip(expected.data())
                .enumerate()
            {
                assert_eq!(
                    g.to_bits(),
                    sc.to_bits(),
                    "gemm vs scalar at ({in_f},{out_f},{batch}) elem {i}"
                );
                assert_eq!(
                    g.to_bits(),
                    f.to_bits(),
                    "gemm vs forward at ({in_f},{out_f},{batch}) elem {i}"
                );
            }
        }
    }

    /// The matrix-product backward `Dense::backward` ran before it moved
    /// onto the GEMM core, kept as its bitwise oracle: a row-by-row
    /// product that skips exact-zero left-hand terms, for
    /// `grad_w += (dyᵀ·x)` (summed from `+0.0`, then added once) and
    /// `dx = dy·W`.
    fn backward_matmul(layer: &mut Dense, grad_output: &Tensor) -> Tensor {
        fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
            let mut out = vec![0.0f32; m * n];
            for i in 0..m {
                for p in 0..k {
                    let av = a[i * k + p];
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..n {
                        out[i * n + j] += av * b[p * n + j];
                    }
                }
            }
            out
        }
        let x = layer.cached_input.as_ref().expect("forward first").clone();
        let (batch, in_f, out_f) = (x.shape()[0], layer.in_features, layer.out_features);
        let dy = grad_output.data();
        let mut dy_t = vec![0.0f32; out_f * batch];
        transpose_into(dy, batch, out_f, &mut dy_t);
        let gw = matmul(&dy_t, x.data(), out_f, batch, in_f);
        for (g, &p) in layer.grad_weight.data_mut().iter_mut().zip(&gw) {
            *g += 1.0 * p;
        }
        for n in 0..batch {
            for o in 0..out_f {
                layer.grad_bias.data_mut()[o] += dy[n * out_f + o];
            }
        }
        let dx = matmul(dy, layer.weight.data(), batch, out_f, in_f);
        Tensor::from_vec(vec![batch, in_f], dx).unwrap()
    }

    #[test]
    fn gemm_backward_matches_matmul_oracle_bitwise() {
        let mut r = rng();
        // (in_features, out_features, batch): the C3F2/C5F4 dense layers at
        // batch 32, odd sizes, batch 1 and 7.
        for &(in_f, out_f, batch) in &[
            (400usize, 64usize, 32usize),
            (600, 96, 32),
            (64, 25, 32),
            (1, 1, 1),
            (7, 5, 7),
            (13, 9, 1),
            (3, 17, 7),
        ] {
            let mut gemm = Dense::new(in_f, out_f, &mut r);
            let x = with_signed_zeros(&[batch, in_f], &mut r);
            gemm.forward(&x);
            let mut oracle = gemm.clone();
            // Two passes without zero_grad: the second accumulates.
            for pass in 0..2 {
                let dy = with_signed_zeros(&[batch, out_f], &mut r);
                let gx = gemm.backward(&dy);
                let gx_oracle = backward_matmul(&mut oracle, &dy);
                for (what, got, want) in [
                    ("grad_input", &gx, &gx_oracle),
                    ("grad_weight", &gemm.grad_weight, &oracle.grad_weight),
                    ("grad_bias", &gemm.grad_bias, &oracle.grad_bias),
                ] {
                    assert_eq!(got.shape(), want.shape());
                    for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "({in_f},{out_f},{batch}) pass {pass} {what} element {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut r = rng();
        let mut layer = Dense::new(3, 2, &mut r);
        let x = Tensor::rand_uniform(&[2, 3], -1.0, 1.0, &mut r);
        // Loss = sum(forward(x)) so dL/dy = ones.
        let y = layer.forward(&x);
        let base_loss: f32 = y.sum();
        layer.backward(&Tensor::ones(&[2, 2]));
        let analytic = layer.grads()[0].clone();

        let eps = 1e-3;
        let mut max_err = 0.0f32;
        for idx in 0..layer.weight.len() {
            let mut perturbed = layer.clone();
            perturbed.params_mut()[0].data_mut()[idx] += eps;
            let y2 = perturbed.forward(&x);
            let num = (y2.sum() - base_loss) / eps;
            let ana = analytic.data()[idx];
            max_err = max_err.max((num - ana).abs());
        }
        assert!(max_err < 1e-2, "max finite-difference error {max_err}");
    }

    #[test]
    fn bias_gradient_is_batch_sum() {
        let mut r = rng();
        let mut layer = Dense::new(2, 2, &mut r);
        let x = Tensor::rand_uniform(&[5, 2], -1.0, 1.0, &mut r);
        layer.forward(&x);
        let dy = Tensor::ones(&[5, 2]);
        layer.backward(&dy);
        let gb = layer.grads()[1].clone();
        assert!((gb.data()[0] - 5.0).abs() < 1e-5);
        assert!((gb.data()[1] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut r = rng();
        let mut layer = Dense::new(2, 2, &mut r);
        let x = Tensor::ones(&[1, 2]);
        layer.forward(&x);
        layer.backward(&Tensor::ones(&[1, 2]));
        let g1 = layer.grads()[0].clone();
        layer.forward(&x);
        layer.backward(&Tensor::ones(&[1, 2]));
        let g2 = layer.grads()[0].clone();
        for (a, b) in g1.data().iter().zip(g2.data().iter()) {
            assert!((b - 2.0 * a).abs() < 1e-5);
        }
        layer.zero_grad();
        assert!(layer.grads()[0].data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn input_gradient_shape_matches_input() {
        let mut r = rng();
        let mut layer = Dense::new(6, 4, &mut r);
        let x = Tensor::rand_uniform(&[3, 6], -1.0, 1.0, &mut r);
        layer.forward(&x);
        let gx = layer.backward(&Tensor::ones(&[3, 4]));
        assert_eq!(gx.shape(), &[3, 6]);
    }

    #[test]
    #[should_panic(expected = "in_features must be positive")]
    fn zero_in_features_panics() {
        let mut r = rng();
        let _ = Dense::new(0, 4, &mut r);
    }
}
