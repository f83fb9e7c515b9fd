//! 2-D convolution layer (im2col + GEMM forward and backward).

use super::{Layer, TRAIN_GEMM};
use crate::gemm::{gemm_nn_accumulate, gemm_nt_with, im2col, BiasMode, GemmScratch, Im2colShape};
use crate::init;
use crate::tensor::Tensor;

/// A 2-D convolution over `[batch, channels, height, width]` inputs.
///
/// Weights have shape `[out_channels, in_channels, kernel, kernel]` and the
/// bias `[out_channels]`.  The forward pass lowers each sample to an im2col
/// patch matrix and multiplies it through the shared GEMM core
/// ([`Layer::infer_with`]).  The backward pass runs on the same core: the
/// weight gradient accumulates, sample by sample, the product of the
/// output gradient with the im2col patch matrix; the input gradient is a
/// transposed convolution, one product per stride phase.  Each gradient
/// element takes its terms in the order the direct backward loop added
/// them, so the gradients are that loop's bit for bit (its unit tests
/// keep the loop as their oracle).  [`Conv2d::infer_scalar`] keeps a
/// direct scalar kernel as the bitwise reference the GEMM forward is
/// tested against.
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
        let shape = self.im2col_shape(h, w);
        let oc = self.out_channels;
        assert_eq!(
            grad_output.shape(),
            &[batch, oc, shape.out_h, shape.out_w],
            "Conv2d gradient shape mismatch"
        );
        let go = grad_output.data();
        let mut grad_input = Tensor::zeros(&[batch, c, h, w]);
        TRAIN_GEMM.with_borrow_mut(|gemm| {
            // Bias and weight gradients, sample by sample, so every element
            // takes its terms in (n, oy, ox) order.
            let (rows, taps) = (shape.rows(), shape.cols());
            let col = gemm.col_buffer(rows * taps);
            let samples = input.data().chunks_exact(c * h * w);
            for (sample, go_n) in samples.zip(go.chunks_exact(oc * rows)) {
                let grad_bias = self.grad_bias.data_mut();
                for (gb, row) in grad_bias.iter_mut().zip(go_n.chunks_exact(rows)) {
                    let mut acc = *gb;
                    for &g in row {
                        acc += g;
                    }
                    *gb = acc;
                }
                im2col(sample, &shape, col);
                gemm_nn_accumulate(oc, taps, rows, go_n, col, self.grad_weight.data_mut());
            }

            let weight = self.weight.data();
            input_grad(weight, go, batch, oc, &shape, gemm, grad_input.data_mut());
        });
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

/// Copies `planes` row-major `h×w` planes into `dst` with `+0.0` borders
/// of `(top, bottom)` rows and `(left, right)` columns.
fn pad_planes(
    src: &[f32],
    planes: usize,
    (h, w): (usize, usize),
    (top, bottom): (usize, usize),
    (left, right): (usize, usize),
    dst: &mut [f32],
) {
    let (hp, wp) = (h + top + bottom, w + left + right);
    let dst_planes = dst[..planes * hp * wp].chunks_exact_mut(hp * wp);
    for (s_plane, d_plane) in src[..planes * h * w].chunks_exact(h * w).zip(dst_planes) {
        let (head, body) = d_plane.split_at_mut(top * wp);
        let (body, tail) = body.split_at_mut(h * wp);
        head.fill(0.0);
        tail.fill(0.0);
        for (s_row, d_row) in s_plane.chunks_exact(w).zip(body.chunks_exact_mut(wp)) {
            d_row[..left].fill(0.0);
            d_row[left..left + w].copy_from_slice(s_row);
            d_row[left + w..].fill(0.0);
        }
    }
}

/// One spatial axis of a stride phase of the input gradient.
///
/// The input positions `i` with `(i + padding) mod stride = r` receive
/// gradient only through the kernel taps `kk ≡ r (mod stride)`, from
/// output position `(i + padding − kk) / stride`.  Phase taps are indexed
/// by *descending* `kk`, so that the `j`-th input position of the phase
/// meets tap `t` at output position `out0 + j + t`: ascending taps walk
/// the output positions ascending.
struct PhaseAxis {
    /// First input position of the phase.
    first: usize,
    /// Input positions in the phase (`first`, `first + stride`, …).
    count: usize,
    /// Kernel taps of the phase.
    taps: usize,
    /// The largest kernel tap of the phase (tap index 0).
    top_tap: usize,
    stride: usize,
    /// Output position of input position `first` under tap index 0.
    out0: isize,
}

impl PhaseAxis {
    fn new(r: usize, size: usize, shape: &Im2colShape) -> Self {
        let (k, s, p) = (shape.kernel, shape.stride, shape.padding);
        let first = (r + s - p % s) % s;
        let count = if first < size {
            (size - 1 - first) / s + 1
        } else {
            0
        };
        let taps = if r < k { (k - 1 - r) / s + 1 } else { 0 };
        let top_tap = r + s * taps.saturating_sub(1);
        Self {
            first,
            count,
            taps,
            top_tap,
            stride: s,
            out0: ((first + p) as isize - top_tap as isize) / s as isize,
        }
    }

    /// The kernel tap of phase tap index `t`.
    fn kernel_tap(&self, t: usize) -> usize {
        self.top_tap - self.stride * t
    }

    /// Whether any tap reaches any input position of the phase.
    fn is_live(&self) -> bool {
        self.count > 0 && self.taps > 0
    }

    /// The zero border, before and after, that an `out`-long output axis
    /// needs so that every live phase's positions `out0 + j + t` land
    /// inside it.
    fn border(size: usize, out: usize, shape: &Im2colShape) -> (usize, usize) {
        let (mut lo, mut hi) = (0isize, out as isize - 1);
        for r in 0..shape.stride {
            let axis = Self::new(r, size, shape);
            if axis.is_live() {
                lo = lo.min(axis.out0);
                hi = hi.max(axis.out0 + (axis.count + axis.taps) as isize - 2);
            }
        }
        ((-lo) as usize, (hi + 1 - out as isize) as usize)
    }
}

/// The input gradient as a transposed convolution on the GEMM core:
/// `grad_input[n][ic][iy][ix] = Σ grad_output[n][oc][oy][ox] · W[oc][ic][kh][kw]`.
///
/// The input pixels split into `stride²` phases by
/// `((iy + padding) mod stride, (ix + padding) mod stride)`; each phase
/// is one product over only its own taps `(oc, kh↓, kw↓)`, which is
/// `(oc, oy, ox)` ascending — the order the direct loop added the terms
/// in.  Taps that fall outside the output plane read the `+0.0` border of
/// a padded copy of `grad_output`; like exact-zero gradients, the product
/// skips them, as the direct loop did.
#[allow(clippy::too_many_arguments)]
fn input_grad(
    weight: &[f32],
    grad_output: &[f32],
    batch: usize,
    out_channels: usize,
    shape: &Im2colShape,
    gemm: &mut GemmScratch,
    grad_input: &mut [f32],
) {
    let Im2colShape {
        channels,
        height,
        width,
        kernel,
        stride,
        out_h,
        out_w,
        ..
    } = *shape;
    let (top, bottom) = PhaseAxis::border(height, out_h, shape);
    let (left, right) = PhaseAxis::border(width, out_w, shape);
    let (hp, wp) = (out_h + top + bottom, out_w + left + right);
    let padded_len = batch * out_channels * hp * wp;
    // The padded copy heads the scratch buffer; growing the buffer for a
    // phase keeps it.
    pad_planes(
        grad_output,
        batch * out_channels,
        (out_h, out_w),
        (top, bottom),
        (left, right),
        gemm.col_buffer(padded_len),
    );
    for ry in 0..stride {
        let rows = PhaseAxis::new(ry, height, shape);
        for rx in 0..stride {
            let cols = PhaseAxis::new(rx, width, shape);
            if !rows.is_live() || !cols.is_live() {
                // No tap reaches these pixels; their gradient stays +0.0.
                continue;
            }
            let taps = out_channels * rows.taps * cols.taps;
            let positions = batch * rows.count * cols.count;
            let phase_len = (channels + positions) * taps + positions * channels;
            let buf = gemm.col_buffer(padded_len + phase_len);
            let (padded, rest) = buf.split_at_mut(padded_len);
            let (w_flip, rest) = rest.split_at_mut(taps * channels);
            let (patches, out) = rest.split_at_mut(positions * taps);
            // w_flip[(oc, ty, tx)][ic]: the kernel-flipped weights of the
            // phase's taps.
            let mut flipped_rows = w_flip.chunks_exact_mut(channels);
            for oc in 0..out_channels {
                for ty in 0..rows.taps {
                    for tx in 0..cols.taps {
                        let tap = rows.kernel_tap(ty) * kernel + cols.kernel_tap(tx);
                        let dst = flipped_rows.next().expect("one row per phase tap");
                        for (ic, d) in dst.iter_mut().enumerate() {
                            *d = weight[(oc * channels + ic) * kernel * kernel + tap];
                        }
                    }
                }
            }
            // patches[(n, jy, jx)][(oc, ty, tx)] = grad_output[n][oc][oy][ox].
            let mut patch_rows = patches.chunks_exact_mut(taps);
            for sample in padded.chunks_exact(out_channels * hp * wp) {
                for jy in 0..rows.count {
                    let oy = (rows.out0 + (top + jy) as isize) as usize;
                    for jx in 0..cols.count {
                        let ox = (cols.out0 + (left + jx) as isize) as usize;
                        let row = patch_rows.next().expect("one patch row per pixel");
                        for (block, plane) in row
                            .chunks_exact_mut(rows.taps * cols.taps)
                            .zip(sample.chunks_exact(hp * wp))
                        {
                            for (ty, dst) in block.chunks_exact_mut(cols.taps).enumerate() {
                                let src = &plane[(oy + ty) * wp + ox..][..cols.taps];
                                for (d, &v) in dst.iter_mut().zip(src) {
                                    *d = v;
                                }
                            }
                        }
                    }
                }
            }
            out.fill(0.0);
            gemm_nn_accumulate(positions, channels, taps, patches, w_flip, out);
            // Scatter out[(n, jy, jx)][ic] to the phase's input pixels.
            let mut pixels = out.chunks_exact(channels);
            for sample in grad_input.chunks_exact_mut(channels * height * width) {
                for jy in 0..rows.count {
                    let iy = rows.first + jy * stride;
                    for jx in 0..cols.count {
                        let pixel = iy * width + cols.first + jx * stride;
                        let src = pixels.next().expect("one output row per pixel");
                        for (plane, &v) in sample.chunks_exact_mut(height * width).zip(src) {
                            plane[pixel] = v;
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::tests::with_signed_zeros;
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

    /// The direct loop `Conv2d::backward` ran before it moved onto the GEMM
    /// core, kept as its bitwise oracle: output elements in
    /// `(n, oc, oy, ox)` order, exact-zero gradients skipped, every
    /// in-bounds tap's terms added straight into the gradients.
    fn backward_scalar(conv: &mut Conv2d, grad_output: &Tensor) -> Tensor {
        let input = conv.cached_input.as_ref().expect("forward first");
        let (batch, c, h, w) = (
            input.shape()[0],
            input.shape()[1],
            input.shape()[2],
            input.shape()[3],
        );
        let (oh, ow) = (conv.output_size(h), conv.output_size(w));
        let (k, s, p) = (conv.kernel, conv.stride, conv.padding);
        let mut grad_input = Tensor::zeros(&[batch, c, h, w]);
        let in_data = input.data();
        let go_data = grad_output.data();
        for n in 0..batch {
            for oc in 0..conv.out_channels {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = go_data[((n * conv.out_channels + oc) * oh + oy) * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        conv.grad_bias.data_mut()[oc] += go;
                        for ic in 0..c {
                            for kh in 0..k {
                                let iy = (oy * s + kh) as isize - p as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kw in 0..k {
                                    let ix = (ox * s + kw) as isize - p as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let in_idx = ((n * c + ic) * h + iy as usize) * w + ix as usize;
                                    let w_idx = ((oc * c + ic) * k + kh) * k + kw;
                                    conv.grad_weight.data_mut()[w_idx] += go * in_data[in_idx];
                                    grad_input.data_mut()[in_idx] += go * conv.weight.data()[w_idx];
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_input
    }

    fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: element {i}: {a} vs {b}");
        }
    }

    #[test]
    fn gemm_backward_matches_scalar_oracle_bitwise() {
        let mut r = rng();
        // (in_c, out_c, kernel, stride, padding, h, w, batch): the C3F2 and
        // C5F4 convolutions at batch 32, then odd channel counts, batch
        // 1/7, stride 1/2/3 against every padding 0..=k, and kernels
        // larger than the input.
        let mut cases = vec![
            (2, 8, 3, 1, 1, 9, 9, 32),
            (8, 16, 3, 2, 1, 9, 9, 32),
            (16, 16, 3, 1, 1, 5, 5, 32),
            (16, 24, 3, 1, 1, 5, 5, 7),
            (24, 24, 3, 1, 1, 5, 5, 1),
            (1, 1, 1, 1, 0, 1, 1, 1),
            (1, 3, 2, 3, 2, 5, 4, 7),
        ];
        for s in 1..=3 {
            for p in 0..=3 {
                cases.push((3, 5, 3, s, p, 5, 6, 7));
            }
            for p in 2..=5 {
                cases.push((2, 3, 5, s, p, 3, 2, 1));
            }
            cases.push((5, 3, 4, s, 4, 3, 3, 1));
        }
        for (ic, oc, k, s, p, h, w, batch) in cases {
            let label = format!("({ic},{oc},{k},{s},{p},{h},{w},{batch})");
            let mut gemm = Conv2d::new(ic, oc, k, s, p, &mut r);
            let x = with_signed_zeros(&[batch, ic, h, w], &mut r);
            gemm.forward(&x);
            let mut scalar = gemm.clone();
            let (oh, ow) = (gemm.output_size(h), gemm.output_size(w));
            // Two passes without zero_grad: the second accumulates onto
            // the first's gradients, as the BERRY dual pass does.
            for pass in 0..2 {
                let go = with_signed_zeros(&[batch, oc, oh, ow], &mut r);
                let gi = gemm.backward(&go);
                let gi_scalar = backward_scalar(&mut scalar, &go);
                assert_bits_eq(&gi, &gi_scalar, &format!("{label} pass {pass} grad_input"));
                assert_bits_eq(
                    &gemm.grad_weight,
                    &scalar.grad_weight,
                    &format!("{label} pass {pass} grad_weight"),
                );
                assert_bits_eq(
                    &gemm.grad_bias,
                    &scalar.grad_bias,
                    &format!("{label} pass {pass} grad_bias"),
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
