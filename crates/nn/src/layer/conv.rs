//! 2-D convolution layer (im2col + GEMM forward, direct backward).

use super::Layer;
use crate::gemm::{gemm_nt_with, im2col, BiasMode, GemmScratch, Im2colShape};
use crate::init;
use crate::tensor::Tensor;

/// A 2-D convolution over `[batch, channels, height, width]` inputs.
///
/// Weights have shape `[out_channels, in_channels, kernel, kernel]` and the
/// bias `[out_channels]`.  The forward pass lowers each sample to an im2col
/// patch matrix and multiplies it through the shared GEMM core
/// ([`Layer::infer_with`]); the backward pass is a direct loop over output
/// positions and kernel taps.  [`Conv2d::infer_scalar`] keeps a direct
/// scalar kernel as the bitwise reference the GEMM path is tested against.
///
/// # Examples
///
/// ```
/// use berry_nn::layer::{Conv2d, Layer};
/// use berry_nn::tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
/// let x = Tensor::zeros(&[1, 2, 9, 9]);
/// let y = conv.forward(&x);
/// assert_eq!(y.shape(), &[1, 4, 9, 9]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor,
    bias: Tensor,
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
}

impl Conv2d {
    /// Creates a convolution layer with He-normal weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if any of `in_channels`, `out_channels`, `kernel` or `stride`
    /// is zero.
    pub fn new<R: rand::Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        assert!(in_channels > 0, "in_channels must be positive");
        assert!(out_channels > 0, "out_channels must be positive");
        assert!(kernel > 0, "kernel must be positive");
        assert!(stride > 0, "stride must be positive");
        let fan_in = in_channels * kernel * kernel;
        let weight = init::he_normal(
            &[out_channels, in_channels, kernel, kernel],
            fan_in,
            rng,
        );
        Self {
            grad_weight: Tensor::zeros(&[out_channels, in_channels, kernel, kernel]),
            grad_bias: Tensor::zeros(&[out_channels]),
            bias: Tensor::zeros(&[out_channels]),
            weight,
            cached_input: None,
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
        }
    }

    /// Output spatial size for a given input spatial size.
    ///
    /// Follows the usual `floor((size + 2·padding − kernel) / stride) + 1`
    /// convention.
    pub fn output_size(&self, input_size: usize) -> usize {
        (input_size + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel size (square kernels only).
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Convolution stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding applied to each spatial border.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Number of multiply–accumulate operations required for one forward
    /// pass over a single sample with the given input spatial size.
    ///
    /// Used by the `berry-hw` energy model to cost the layer on a systolic
    /// accelerator.
    pub fn macs_per_sample(&self, height: usize, width: usize) -> usize {
        let oh = self.output_size(height);
        let ow = self.output_size(width);
        oh * ow * self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    /// The im2col geometry of this layer over an `h×w` input plane.
    fn im2col_shape(&self, height: usize, width: usize) -> Im2colShape {
        Im2colShape {
            channels: self.in_channels,
            height,
            width,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            out_h: self.output_size(height),
            out_w: self.output_size(width),
        }
    }

    #[inline]
    fn w_at(&self, oc: usize, ic: usize, kh: usize, kw: usize) -> f32 {
        let k = self.kernel;
        self.weight.data()[((oc * self.in_channels + ic) * k + kh) * k + kw]
    }

    #[inline]
    fn gw_index(&self, oc: usize, ic: usize, kh: usize, kw: usize) -> usize {
        let k = self.kernel;
        ((oc * self.in_channels + ic) * k + kh) * k + kw
    }

    /// Scalar reference kernel: a loop-reordered direct convolution with
    /// the same output as [`Layer::infer_with`] at the Reference tier, bit
    /// for bit.  Not on any production path; the GEMM-vs-scalar tests and
    /// benches compare the GEMM core against it.
    pub fn infer_scalar(&self, input: &Tensor, out: &mut Tensor) {
        assert_eq!(input.rank(), 4, "Conv2d expects [batch, c, h, w] input");
        let (batch, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        assert_eq!(c, self.in_channels, "Conv2d input channel mismatch");
        let oh = self.output_size(h);
        let ow = self.output_size(w);
        out.reset(&[batch, self.out_channels, oh, ow]);
        let in_data = input.data();
        let out_data = out.data_mut();
        let w_data = self.weight.data();
        let k = self.kernel;
        let s = self.stride;
        let p = self.padding;
        // One weight tap is hoisted and swept across a whole output row.
        // Every output element still starts from the bias and receives its
        // in-bounds taps in (ic, kh, kw) ascending order — each (ic, kh, kw)
        // iteration touches each accumulator at most once — which is the
        // GEMM's accumulation order over the im2col patch columns.
        // Out-of-bounds taps are range-clipped; the GEMM adds their zero
        // products instead, which leave the accumulator's bits unchanged.
        for n in 0..batch {
            for oc in 0..self.out_channels {
                let bias = self.bias.data()[oc];
                let out_base = ((n * self.out_channels + oc) * oh) * ow;
                let out_block = &mut out_data[out_base..out_base + oh * ow];
                out_block.fill(bias);
                for ic in 0..self.in_channels {
                    let plane_base = ((n * c + ic) * h) * w;
                    let plane = &in_data[plane_base..plane_base + h * w];
                    let w_base = ((oc * self.in_channels + ic) * k) * k;
                    for kh in 0..k {
                        for kw in 0..k {
                            let wv = w_data[w_base + kh * k + kw];
                            let kwp = kw as isize - p as isize;
                            // Output columns whose input column ix = ox*s + kwp
                            // lands inside [0, w).
                            let ox_lo = if kwp >= 0 {
                                0
                            } else {
                                ((-kwp) as usize).div_ceil(s)
                            };
                            let ox_hi = if (w as isize) > kwp {
                                (((w as isize - 1 - kwp) / s as isize + 1) as usize).min(ow)
                            } else {
                                0
                            };
                            if ox_lo >= ox_hi {
                                continue;
                            }
                            let span = ox_hi - ox_lo;
                            for oy in 0..oh {
                                let iy = (oy * s + kh) as isize - p as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                let in_row =
                                    &plane[iy as usize * w..iy as usize * w + w];
                                let acc_row =
                                    &mut out_block[oy * ow + ox_lo..oy * ow + ox_hi];
                                let ix_lo = (ox_lo * s) as isize + kwp;
                                if s == 1 {
                                    let ix_lo = ix_lo as usize;
                                    for (acc, &iv) in acc_row
                                        .iter_mut()
                                        .zip(in_row[ix_lo..ix_lo + span].iter())
                                    {
                                        *acc += iv * wv;
                                    }
                                } else {
                                    let mut ix = ix_lo as usize;
                                    for acc in acc_row.iter_mut() {
                                        *acc += in_row[ix] * wv;
                                        ix += s;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn infer_with(&self, input: &Tensor, out: &mut Tensor, gemm: &mut GemmScratch) {
        assert_eq!(input.rank(), 4, "Conv2d expects [batch, c, h, w] input");
        let (batch, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        assert_eq!(c, self.in_channels, "Conv2d input channel mismatch");
        let shape = self.im2col_shape(h, w);
        let (oh, ow) = (shape.out_h, shape.out_w);
        let (rows, taps) = (shape.rows(), shape.cols());
        out.reset(&[batch, self.out_channels, oh, ow]);
        let in_data = input.data();
        let out_data = out.data_mut();
        let w_data = self.weight.data();
        let bias = self.bias.data();
        let (col, packs, precision) = gemm.col_packs_precision(rows * taps);
        // im2col + GEMM lowering: out[n][oc][p] = bias[oc] + w_row(oc)·col_row(p).
        // Patch columns follow the (ic, kh, kw) tap order.  At the default
        // Reference tier the GEMM accumulates them ascending, so every
        // output element replays the scalar reference kernel's
        // floating-point sequence exactly (padding cells contribute +0.0
        // products, which never change a bias-initialized accumulator's
        // bits); the Fast tier follows the scratch's precision setting and
        // trades that bitwise identity for SIMD throughput.
        for n in 0..batch {
            let plane = &in_data[n * c * h * w..(n + 1) * c * h * w];
            im2col(plane, &shape, col);
            let out_block =
                &mut out_data[n * self.out_channels * rows..(n + 1) * self.out_channels * rows];
            gemm_nt_with(
                self.out_channels,
                rows,
                taps,
                w_data,
                col,
                BiasMode::RowInit(bias),
                out_block,
                precision,
                packs,
            );
        }
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
            .expect("backward called before forward on Conv2d");
        let (batch, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let oh = self.output_size(h);
        let ow = self.output_size(w);
        assert_eq!(
            grad_output.shape(),
            &[batch, self.out_channels, oh, ow],
            "Conv2d gradient shape mismatch"
        );

        let mut grad_input = Tensor::zeros(&[batch, c, h, w]);
        let in_data = input.data();
        let go_data = grad_output.data();

        for n in 0..batch {
            for oc in 0..self.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = go_data[((n * self.out_channels + oc) * oh + oy) * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        self.grad_bias.data_mut()[oc] += go;
                        for ic in 0..self.in_channels {
                            for kh in 0..self.kernel {
                                let iy = (oy * self.stride + kh) as isize - self.padding as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kw in 0..self.kernel {
                                    let ix =
                                        (ox * self.stride + kw) as isize - self.padding as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let in_idx =
                                        ((n * c + ic) * h + iy as usize) * w + ix as usize;
                                    let gw_idx = self.gw_index(oc, ic, kh, kw);
                                    self.grad_weight.data_mut()[gw_idx] += go * in_data[in_idx];
                                    grad_input.data_mut()[in_idx] +=
                                        go * self.w_at(oc, ic, kh, kw);
                                }
                            }
                        }
                    }
                }
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
        "Conv2d"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(21)
    }

    #[test]
    fn output_size_follows_convention() {
        let mut r = rng();
        let conv = Conv2d::new(1, 1, 3, 1, 1, &mut r);
        assert_eq!(conv.output_size(9), 9);
        let conv2 = Conv2d::new(1, 1, 3, 2, 1, &mut r);
        assert_eq!(conv2.output_size(9), 5);
        let conv3 = Conv2d::new(1, 1, 3, 1, 0, &mut r);
        assert_eq!(conv3.output_size(9), 7);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut r);
        // Set the kernel to a centred delta so the convolution is identity.
        conv.params_mut()[0].fill(0.0);
        conv.params_mut()[1].fill(0.0);
        {
            let w = conv.params_mut().remove(0);
            // index [0,0,1,1] in a 3x3 kernel
            w.data_mut()[4] = 1.0;
        }
        let x = Tensor::rand_uniform(&[1, 1, 5, 5], -1.0, 1.0, &mut r);
        let y = conv.forward(&x);
        for (a, b) in x.data().iter().zip(y.data().iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn known_small_convolution() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut r);
        conv.params_mut()[0]
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        conv.params_mut()[1].fill(0.5);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = conv.forward(&x);
        // 1*1 + 2*2 + 3*3 + 4*4 + 0.5 = 30.5
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert!((y.data()[0] - 30.5).abs() < 1e-6);
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, &mut r);
        let x = Tensor::rand_uniform(&[2, 2, 9, 9], -1.0, 1.0, &mut r);
        let expected = conv.forward(&x);
        let mut out = Tensor::default();
        conv.infer_scalar(&x, &mut out);
        assert_eq!(out.shape(), expected.shape());
        for (a, b) in out.data().iter().zip(expected.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn gemm_path_matches_scalar_reference_bitwise_across_shapes() {
        let mut r = rng();
        let mut gemm = GemmScratch::new();
        // (in_c, out_c, kernel, stride, padding, h, w, batch) — odd sizes,
        // stride 1/2/3, padding 0..=2, kernels larger than the input.
        for &(ic, oc, k, s, p, h, w, batch) in &[
            (1usize, 1usize, 1usize, 1usize, 0usize, 1usize, 1usize, 1usize),
            (2, 3, 3, 1, 1, 9, 9, 2),
            (3, 5, 3, 2, 1, 9, 7, 3),
            (2, 4, 5, 3, 2, 11, 13, 1),
            (4, 2, 3, 1, 0, 5, 5, 5),
            (1, 7, 3, 2, 2, 4, 4, 2),
            (2, 2, 5, 1, 2, 3, 3, 1),
        ] {
            let mut conv = Conv2d::new(ic, oc, k, s, p, &mut r);
            let x = Tensor::rand_uniform(&[batch, ic, h, w], -1.0, 1.0, &mut r);
            let expected = conv.forward(&x);
            let mut scalar = Tensor::default();
            conv.infer_scalar(&x, &mut scalar);
            let mut gemmed = Tensor::default();
            conv.infer_with(&x, &mut gemmed, &mut gemm);
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
                    "gemm vs scalar at ({ic},{oc},{k},{s},{p},{h},{w},{batch}) elem {i}"
                );
                assert_eq!(
                    g.to_bits(),
                    f.to_bits(),
                    "gemm vs forward at ({ic},{oc},{k},{s},{p},{h},{w},{batch}) elem {i}"
                );
            }
        }
    }

    #[test]
    fn weight_gradients_match_finite_differences() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 2, 3, 1, 1, &mut r);
        let x = Tensor::rand_uniform(&[1, 2, 4, 4], -1.0, 1.0, &mut r);
        let y = conv.forward(&x);
        let base: f32 = y.sum();
        let go = Tensor::ones(&[1, 2, 4, 4]);
        conv.backward(&go);
        let analytic = conv.grads()[0].clone();

        let eps = 1e-2;
        let mut max_err = 0.0f32;
        for idx in (0..conv.weight.len()).step_by(7) {
            let mut p = conv.clone();
            p.params_mut()[0].data_mut()[idx] += eps;
            let y2 = p.forward(&x);
            let num = (y2.sum() - base) / eps;
            let ana = analytic.data()[idx];
            max_err = max_err.max((num - ana).abs());
        }
        assert!(max_err < 5e-2, "max finite-difference error {max_err}");
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut r);
        let x = Tensor::rand_uniform(&[1, 1, 4, 4], -1.0, 1.0, &mut r);
        let y = conv.forward(&x);
        let base: f32 = y.sum();
        let gx = conv.backward(&Tensor::ones(&[1, 2, 4, 4]));

        let eps = 1e-2;
        let mut max_err = 0.0f32;
        for idx in 0..x.len() {
            let mut x2 = x.clone();
            x2.data_mut()[idx] += eps;
            let y2 = conv.forward(&x2);
            let num = (y2.sum() - base) / eps;
            let ana = gx.data()[idx];
            max_err = max_err.max((num - ana).abs());
        }
        assert!(max_err < 5e-2, "max finite-difference error {max_err}");
    }

    #[test]
    fn strided_convolution_downsamples() {
        let mut r = rng();
        let mut conv = Conv2d::new(3, 8, 3, 2, 1, &mut r);
        let x = Tensor::zeros(&[2, 3, 9, 9]);
        let y = conv.forward(&x);
        assert_eq!(y.shape(), &[2, 8, 5, 5]);
        let gx = conv.backward(&Tensor::ones(&[2, 8, 5, 5]));
        assert_eq!(gx.shape(), &[2, 3, 9, 9]);
    }

    #[test]
    fn macs_per_sample_counts_kernel_work() {
        let mut r = rng();
        let conv = Conv2d::new(2, 4, 3, 1, 1, &mut r);
        // 9x9 output, 4 out channels, 2 in channels, 3x3 kernel
        assert_eq!(conv.macs_per_sample(9, 9), 81 * 4 * 2 * 9);
    }

    #[test]
    fn param_count_matches_dimensions() {
        let mut r = rng();
        let conv = Conv2d::new(3, 5, 3, 1, 1, &mut r);
        assert_eq!(conv.param_count(), 5 * 3 * 9 + 5);
    }

    #[test]
    fn gradients_accumulate_and_reset() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut r);
        let x = Tensor::ones(&[1, 1, 3, 3]);
        conv.forward(&x);
        conv.backward(&Tensor::ones(&[1, 1, 3, 3]));
        let g1: f32 = conv.grads()[0].sum();
        conv.forward(&x);
        conv.backward(&Tensor::ones(&[1, 1, 3, 3]));
        let g2: f32 = conv.grads()[0].sum();
        assert!((g2 - 2.0 * g1).abs() < 1e-4);
        conv.zero_grad();
        assert_eq!(conv.grads()[0].sum(), 0.0);
    }
}
