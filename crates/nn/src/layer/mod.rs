//! Neural-network layers with explicit forward and backward passes.
//!
//! Each layer has exactly one forward computation, [`Layer::infer_with`].
//! Training's [`Layer::forward`] runs it at the Reference tier and then lets
//! the layer remember whatever a subsequent [`Layer::backward`] call needs
//! to produce parameter gradients and the gradient with respect to the layer
//! input.  Gradients accumulate until [`Layer::zero_grad`] is called, which
//! is what lets the BERRY trainer *average* the clean-pass and
//! perturbed-pass gradients (Algorithm 1 line 19) simply by running two
//! backward passes before one optimizer step.

mod conv;
mod dense;

pub use conv::Conv2d;
pub use dense::Dense;

use std::cell::RefCell;

use crate::gemm::GemmScratch;
use crate::tensor::Tensor;

thread_local! {
    /// im2col and gradient buffers for [`Layer::forward`] and
    /// [`Layer::backward`], whose signatures carry no scratch.  Never
    /// switched off the default Reference tier.
    static TRAIN_GEMM: RefCell<GemmScratch> = RefCell::new(GemmScratch::new());
}

/// A differentiable network layer.
///
/// Layers operate on *batched* inputs: dense layers expect `[batch, features]`
/// tensors and convolutions expect `[batch, channels, height, width]`.
///
/// `Send + Sync` is part of the contract so whole networks can be shared
/// by reference across the data-parallel fault-map evaluation workers;
/// layers are plain buffers of `f32`, so every implementation satisfies it
/// automatically.
pub trait Layer: Send + Sync {
    /// Runs the training forward pass: [`Layer::infer_with`] at
    /// [`Precision::Reference`](crate::gemm::Precision::Reference), then
    /// [`Layer::remember`] to cache what [`Layer::backward`] reads.
    ///
    /// The tier is fixed whatever tier any caller's inference scratch uses,
    /// so training trajectories — and the store fingerprints derived from
    /// them — are tier-agnostic.  Because training and Reference inference
    /// run the same code, their outputs are bitwise identical by
    /// construction.  Implementations do not override this method.
    fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        TRAIN_GEMM.with_borrow_mut(|gemm| self.infer_with(input, &mut out, gemm));
        self.remember(input, &out);
        out
    }

    /// The layer's forward computation: an immutable, cache-free pass
    /// writing the output into the caller-owned `out` tensor (resized in
    /// place).
    ///
    /// It takes `&self`, so one network can be shared by reference across
    /// data-parallel fault-map workers, and it allocates nothing once `out`
    /// and `gemm` have reached their steady-state capacity.  Layers with a
    /// matrix-product forward (dense, convolution) route through
    /// [`crate::gemm::gemm_nt_with`] at the tier `gemm` carries, using its
    /// im2col patch buffers; element-wise layers ignore `gemm`.  At the
    /// Reference tier the GEMM accumulates each output element's terms in
    /// the same ascending order as the scalar reference kernels
    /// ([`Conv2d::infer_scalar`], [`Dense::infer_scalar`]), and the
    /// GEMM-vs-scalar layer tests pin that bitwise equality.
    fn infer_with(&self, input: &Tensor, out: &mut Tensor, gemm: &mut GemmScratch);

    /// Stores what [`Layer::backward`] reads from the forward pass that
    /// mapped `input` to `output`, reusing the previous cache's buffers.
    fn remember(&mut self, input: &Tensor, output: &Tensor);

    /// Runs the backward pass for the most recent forward input, accumulating
    /// parameter gradients and returning the gradient with respect to the
    /// layer input.
    ///
    /// Layers with a matrix-product forward (dense, convolution) run their
    /// gradients on the GEMM core's Reference-tier product
    /// (`gemm_nn_accumulate`), reusing a thread-local scratch, so a
    /// steady-state call allocates only the returned input gradient.  Each
    /// gradient element takes its terms in the ascending order of a direct
    /// scalar loop and skips exact-zero output gradients as that loop
    /// does, so the gradients equal the loop's bit for bit; each layer's
    /// unit tests keep the loop as their oracle.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before any forward pass.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Borrowed views of the layer's trainable parameters (possibly empty).
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable views of the layer's trainable parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Borrowed views of the accumulated parameter gradients, in the same
    /// order as [`Layer::params`].
    fn grads(&self) -> Vec<&Tensor>;

    /// Mutable views of the accumulated parameter gradients, in the same
    /// order as [`Layer::params`] (empty for parameter-free layers).
    fn grads_mut(&mut self) -> Vec<&mut Tensor>;

    /// Resets all accumulated gradients to zero.
    fn zero_grad(&mut self);

    /// Human-readable layer name used in summaries.
    fn name(&self) -> &'static str;

    /// Total number of trainable scalar parameters.
    fn param_count(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Clones the layer into a boxed trait object (parameters and gradients
    /// included), enabling target-network copies and perturbed snapshots.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The (leaky) ReLU gain at `v`: the mask value `backward` multiplies by,
/// and the factor the forward applies (ReLU is `slope == 0.0`).
fn rectifier_gain(v: f32, slope: f32) -> f32 {
    if v > 0.0 {
        1.0
    } else {
        slope
    }
}

/// Forward of a (leaky) ReLU: `v * gain`, a multiply rather than a select
/// so negative inputs map to a signed zero.
fn rectify(input: &Tensor, out: &mut Tensor, slope: f32) {
    out.reset(input.shape());
    for (o, &v) in out.data_mut().iter_mut().zip(input.data()) {
        *o = v * rectifier_gain(v, slope);
    }
}

/// Refills a (leaky) ReLU's cached mask from the forward input.
fn remember_mask(mask: &mut Option<Tensor>, input: &Tensor, slope: f32) {
    let mask = mask.get_or_insert_with(Tensor::default);
    mask.copy_from(input);
    mask.map_in_place(|v| rectifier_gain(v, slope));
}

/// Rectified linear unit activation, applied element-wise.
///
/// # Examples
///
/// ```
/// use berry_nn::layer::{Layer, Relu};
/// use berry_nn::tensor::Tensor;
/// # fn main() -> Result<(), berry_nn::NnError> {
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![1, 3], vec![-1.0, 0.0, 2.0])?;
/// let y = relu.forward(&x);
/// assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Tensor>,
}

impl Relu {
    /// Creates a new ReLU activation layer.
    pub fn new() -> Self {
        Self { mask: None }
    }
}

impl Layer for Relu {
    fn infer_with(&self, input: &Tensor, out: &mut Tensor, _gemm: &mut GemmScratch) {
        rectify(input, out, 0.0);
    }

    fn remember(&mut self, input: &Tensor, _output: &Tensor) {
        remember_mask(&mut self.mask, input, 0.0);
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("backward called before forward on Relu");
        grad_output
            .mul(mask)
            .expect("gradient must share the forward shape")
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "Relu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Leaky rectified linear unit with configurable negative slope.
#[derive(Debug, Clone)]
pub struct LeakyRelu {
    slope: f32,
    mask: Option<Tensor>,
}

impl LeakyRelu {
    /// Creates a leaky ReLU with the given negative-side slope.
    pub fn new(slope: f32) -> Self {
        Self { slope, mask: None }
    }

    /// The configured negative-side slope.
    pub fn slope(&self) -> f32 {
        self.slope
    }
}

impl Default for LeakyRelu {
    fn default() -> Self {
        Self::new(0.01)
    }
}

impl Layer for LeakyRelu {
    fn infer_with(&self, input: &Tensor, out: &mut Tensor, _gemm: &mut GemmScratch) {
        rectify(input, out, self.slope);
    }

    fn remember(&mut self, input: &Tensor, _output: &Tensor) {
        remember_mask(&mut self.mask, input, self.slope);
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mask = self
            .mask
            .as_ref()
            .expect("backward called before forward on LeakyRelu");
        grad_output
            .mul(mask)
            .expect("gradient must share the forward shape")
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "LeakyRelu"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Hyperbolic-tangent activation, applied element-wise.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    output: Option<Tensor>,
}

impl Tanh {
    /// Creates a new tanh activation layer.
    pub fn new() -> Self {
        Self { output: None }
    }
}

impl Layer for Tanh {
    fn infer_with(&self, input: &Tensor, out: &mut Tensor, _gemm: &mut GemmScratch) {
        out.reset(input.shape());
        for (o, &v) in out.data_mut().iter_mut().zip(input.data()) {
            *o = v.tanh();
        }
    }

    fn remember(&mut self, _input: &Tensor, output: &Tensor) {
        self.output
            .get_or_insert_with(Tensor::default)
            .copy_from(output);
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let out = self
            .output
            .as_ref()
            .expect("backward called before forward on Tanh");
        let deriv = out.map(|y| 1.0 - y * y);
        grad_output
            .mul(&deriv)
            .expect("gradient must share the forward shape")
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "Tanh"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Flattens `[batch, ...]` inputs into `[batch, features]`, remembering the
/// original shape so the gradient can be restored on the backward pass.
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    input_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a new flatten layer.
    pub fn new() -> Self {
        Self { input_shape: None }
    }
}

impl Layer for Flatten {
    fn infer_with(&self, input: &Tensor, out: &mut Tensor, _gemm: &mut GemmScratch) {
        let shape = input.shape();
        assert!(
            !shape.is_empty(),
            "Flatten requires an input with at least one dimension"
        );
        let batch = shape[0];
        let features: usize = shape[1..].iter().product();
        out.reset(&[batch, features]);
        out.data_mut().copy_from_slice(input.data());
    }

    fn remember(&mut self, input: &Tensor, _output: &Tensor) {
        let shape = self.input_shape.get_or_insert_with(Vec::new);
        shape.clear();
        shape.extend_from_slice(input.shape());
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let shape = self
            .input_shape
            .as_ref()
            .expect("backward called before forward on Flatten");
        grad_output
            .reshape(shape)
            .expect("flatten gradient preserves element count")
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn grads_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn zero_grad(&mut self) {}

    fn name(&self) -> &'static str {
        "Flatten"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform values in `[-1, 1)` with about a quarter of the cells set to
    /// an exact `+0.0` or `-0.0`: the zero cases of the GEMM backward's
    /// bitwise oracle tests.
    pub(super) fn with_signed_zeros(shape: &[usize], r: &mut rand::rngs::StdRng) -> Tensor {
        use rand::Rng;
        let mut t = Tensor::rand_uniform(shape, -1.0, 1.0, r);
        for v in t.data_mut() {
            let u: f32 = r.gen();
            if u < 0.125 {
                *v = 0.0;
            } else if u < 0.25 {
                *v = -0.0;
            }
        }
        t
    }

    #[test]
    fn relu_forward_and_backward() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![1, 4], vec![-2.0, -0.5, 0.5, 2.0]).unwrap();
        let y = relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 2.0]);
        let g = Tensor::ones(&[1, 4]);
        let gx = relu.backward(&g);
        assert_eq!(gx.data(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn leaky_relu_passes_scaled_negatives() {
        let mut l = LeakyRelu::new(0.1);
        let x = Tensor::from_vec(vec![1, 2], vec![-1.0, 1.0]).unwrap();
        let y = l.forward(&x);
        assert!((y.data()[0] + 0.1).abs() < 1e-6);
        assert!((y.data()[1] - 1.0).abs() < 1e-6);
        let gx = l.backward(&Tensor::ones(&[1, 2]));
        assert!((gx.data()[0] - 0.1).abs() < 1e-6);
        assert!((gx.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tanh_gradient_matches_analytic_derivative() {
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![1, 3], vec![-1.0, 0.0, 0.5]).unwrap();
        let y = t.forward(&x);
        let gx = t.backward(&Tensor::ones(&[1, 3]));
        for (out, grad) in y.data().iter().zip(gx.data().iter()) {
            assert!((grad - (1.0 - out * out)).abs() < 1e-6);
        }
    }

    #[test]
    fn flatten_round_trips_gradient_shape() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let y = f.forward(&x);
        assert_eq!(y.shape(), &[2, 48]);
        let gx = f.backward(&Tensor::ones(&[2, 48]));
        assert_eq!(gx.shape(), &[2, 3, 4, 4]);
    }

    #[test]
    fn activations_have_no_parameters() {
        let relu = Relu::new();
        assert_eq!(relu.param_count(), 0);
        assert!(relu.params().is_empty());
        assert!(relu.grads().is_empty());
        let tanh = Tanh::new();
        assert_eq!(tanh.param_count(), 0);
        let flat = Flatten::new();
        assert_eq!(flat.param_count(), 0);
    }

    #[test]
    fn infer_matches_forward_bitwise_for_parameter_free_layers() {
        let x =
            Tensor::from_vec(vec![2, 3], vec![-2.0, -0.0, 0.0, 0.5, 1.5, -0.25]).unwrap();
        let layers: Vec<Box<dyn Layer>> = vec![
            Box::new(Relu::new()),
            Box::new(LeakyRelu::new(0.1)),
            Box::new(Tanh::new()),
            Box::new(Flatten::new()),
        ];
        for mut layer in layers {
            let expected = layer.forward(&x);
            let mut out = Tensor::default();
            layer.infer_with(&x, &mut out, &mut GemmScratch::new());
            assert_eq!(out.shape(), expected.shape(), "{}", layer.name());
            for (a, b) in out.data().iter().zip(expected.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", layer.name());
            }
        }
    }

    #[test]
    fn reused_training_cache_matches_a_fresh_layer_bitwise() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(40);
        let planes = |batch, rng: &mut rand::rngs::StdRng| {
            Tensor::rand_uniform(&[batch, 2, 5, 5], -1.0, 1.0, rng)
        };
        let rows = |batch, rng: &mut rand::rngs::StdRng| {
            Tensor::rand_uniform(&[batch, 6], -1.0, 1.0, rng)
        };
        let (planes4, planes2) = (planes(4, &mut rng), planes(2, &mut rng));
        let (rows4, rows2) = (rows(4, &mut rng), rows(2, &mut rng));
        let cases: Vec<(Box<dyn Layer>, &Tensor, &Tensor)> = vec![
            (Box::new(Conv2d::new(2, 3, 3, 2, 1, &mut rng)), &planes4, &planes2),
            (Box::new(Dense::new(6, 4, &mut rng)), &rows4, &rows2),
            (Box::new(Relu::new()), &rows4, &rows2),
            (Box::new(LeakyRelu::new(0.1)), &rows4, &rows2),
            (Box::new(Tanh::new()), &rows4, &rows2),
            (Box::new(Flatten::new()), &planes4, &planes2),
        ];
        let bits = |t: &Tensor| {
            let data: Vec<u32> = t.data().iter().map(|v| v.to_bits()).collect();
            (t.shape().to_vec(), data)
        };
        for (mut reused, large, small) in cases {
            let mut fresh = reused.clone();
            reused.forward(large);
            let y = reused.forward(small);
            let grad_output = Tensor::rand_uniform(y.shape(), -1.0, 1.0, &mut rng);
            let reused_gx = reused.backward(&grad_output);
            fresh.forward(small);
            let fresh_gx = fresh.backward(&grad_output);
            let name = reused.name();
            assert_eq!(bits(&reused_gx), bits(&fresh_gx), "{name}: input gradient");
            for (a, b) in reused.grads().into_iter().zip(fresh.grads()) {
                assert_eq!(bits(a), bits(b), "{name}: parameter gradient");
            }
        }
    }

    #[test]
    fn boxed_layer_clone_is_independent() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, -1.0]).unwrap();
        relu.forward(&x);
        let boxed: Box<dyn Layer> = Box::new(relu);
        let mut cloned = boxed.clone();
        // The clone can run its own forward/backward without touching the original.
        let y = cloned.forward(&x);
        assert_eq!(y.data(), &[1.0, 0.0]);
    }
}
