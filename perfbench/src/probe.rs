//! Layer probe: C3F2/C5F4 rebuilt from public layer constructors, timed one
//! layer at a time.
//!
//! `Sequential` runs its layers as one call, so the probe rebuilds the
//! architecture layer by layer (the same constructors
//! `QNetworkSpec::build` uses), copies a trained network's parameters in,
//! and proves its layer chain reproduces `Sequential::infer_into` bit for
//! bit before any of its timings are reported.

use crate::trace::{self, span};
use berry_nn::gemm::{
    gemm_nt_with, im2col, BiasMode, GemmScratch, Im2colShape, PackScratch, Precision,
};
use berry_nn::layer::{Conv2d, Dense, Flatten, Layer, Relu};
use berry_nn::network::{InferScratch, Sequential};
use berry_nn::tensor::Tensor;
use berry_rl::policy::QNetworkSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One rebuilt layer, kept concrete so convolutions expose their geometry.
pub enum ProbeLayer {
    /// A convolution.
    Conv(Conv2d),
    /// A fully-connected layer.
    Dense(Dense),
    /// A ReLU.
    Relu(Relu),
    /// The conv → dense reshape.
    Flatten(Flatten),
}

impl ProbeLayer {
    fn layer(&self) -> &dyn Layer {
        match self {
            ProbeLayer::Conv(l) => l,
            ProbeLayer::Dense(l) => l,
            ProbeLayer::Relu(l) => l,
            ProbeLayer::Flatten(l) => l,
        }
    }

    fn layer_mut(&mut self) -> &mut dyn Layer {
        match self {
            ProbeLayer::Conv(l) => l,
            ProbeLayer::Dense(l) => l,
            ProbeLayer::Relu(l) => l,
            ProbeLayer::Flatten(l) => l,
        }
    }

    /// Layer-type label used in metric names (`None` for the reshape,
    /// which the ledger does not report).
    fn kind(&self) -> Option<&'static str> {
        match self {
            ProbeLayer::Conv(_) => Some("conv"),
            ProbeLayer::Dense(_) => Some("dense"),
            ProbeLayer::Relu(_) => Some("relu"),
            ProbeLayer::Flatten(_) => None,
        }
    }
}

/// Metric-name label of an architecture.
pub fn arch(spec: &QNetworkSpec) -> &'static str {
    match spec {
        QNetworkSpec::C3F2 => "c3f2",
        QNetworkSpec::C5F4 => "c5f4",
        QNetworkSpec::Mlp { .. } => "mlp",
    }
}

fn conv_out(size: usize) -> usize {
    // 3×3 kernel, stride 2, padding 1 — the downsampling conv of both specs.
    (size + 2 - 3) / 2 + 1
}

/// Rebuilds `spec` for a `[c, h, w]` observation from public layer
/// constructors, mirroring `QNetworkSpec::build`.
pub fn rebuild(spec: &QNetworkSpec, shape: &[usize], actions: usize) -> Vec<ProbeLayer> {
    let mut rng = StdRng::seed_from_u64(0);
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let (h2, w2) = (conv_out(h), conv_out(w));
    let mut layers = Vec::new();
    let convs: &[(usize, usize, usize)] = match spec {
        QNetworkSpec::C5F4 => &[(c, 8, 1), (8, 16, 2), (16, 16, 1), (16, 24, 1), (24, 24, 1)],
        _ => &[(c, 8, 1), (8, 16, 2), (16, 16, 1)],
    };
    for &(cin, cout, stride) in convs {
        layers.push(ProbeLayer::Conv(Conv2d::new(
            cin, cout, 3, stride, 1, &mut rng,
        )));
        layers.push(ProbeLayer::Relu(Relu::new()));
    }
    layers.push(ProbeLayer::Flatten(Flatten::new()));
    let last_channels = convs.last().map_or(c, |&(_, cout, _)| cout);
    let hidden: &[usize] = match spec {
        QNetworkSpec::C5F4 => &[96, 64, 32],
        _ => &[64],
    };
    let mut prev = last_channels * h2 * w2;
    for &width in hidden {
        layers.push(ProbeLayer::Dense(Dense::new(prev, width, &mut rng)));
        layers.push(ProbeLayer::Relu(Relu::new()));
        prev = width;
    }
    layers.push(ProbeLayer::Dense(Dense::new_xavier(
        prev, actions, &mut rng,
    )));
    layers
}

/// Copies `net`'s parameters into the rebuilt layers.  Returns `false` if
/// the parameter lists do not line up.
fn load(layers: &mut [ProbeLayer], net: &Sequential) -> bool {
    let source = net.params();
    let mut i = 0;
    for layer in layers.iter_mut() {
        for param in layer.layer_mut().params_mut() {
            match source.get(i) {
                Some(src) if src.shape() == param.shape() => {
                    param.data_mut().copy_from_slice(src.data());
                }
                _ => return false,
            }
            i += 1;
        }
    }
    i == source.len()
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn rows(input: &Tensor, n: usize) -> Tensor {
    let per: usize = input.shape()[1..].iter().product();
    let mut shape = input.shape().to_vec();
    shape[0] = n;
    Tensor::from_vec(shape, input.data()[..n * per].to_vec()).expect("row slice matches its shape")
}

/// Floating-point operations per sample and weight bytes of the rebuilt
/// network over an `h×w` observation.
pub fn cost(layers: &[ProbeLayer], h: usize, w: usize) -> (f64, f64) {
    let mut flops = 0usize;
    let (mut h, mut w) = (h, w);
    let mut params = 0usize;
    for layer in layers {
        params += layer.layer().param_count();
        match layer {
            ProbeLayer::Conv(c) => {
                flops += 2 * c.macs_per_sample(h, w);
                h = c.output_size(h);
                w = c.output_size(w);
            }
            ProbeLayer::Dense(d) => flops += 2 * d.in_features() * d.out_features(),
            _ => {}
        }
    }
    (flops as f64, (params * std::mem::size_of::<f32>()) as f64)
}

fn rebuilt_for(spec: &QNetworkSpec, net: &Sequential, input: &Tensor) -> Option<Vec<ProbeLayer>> {
    let actions = net.infer(&rows(input, 1)).shape()[1];
    let mut layers = rebuild(spec, &input.shape()[1..], actions);
    load(&mut layers, net).then_some(layers)
}

fn record_cost(spec: &QNetworkSpec, layers: &[ProbeLayer], input: &Tensor) {
    let (flops, bytes) = cost(layers, input.shape()[2], input.shape()[3]);
    let a = arch(spec);
    trace::count_max(trace::intern(&format!("nn.{a}.flops_per_sample")), flops);
    trace::count_max(trace::intern(&format!("nn.{a}.weight_bytes")), bytes);
}

/// Whether the rebuilt chain's Reference-tier output equals
/// `Sequential::infer_into` on `input`, bit for bit.
pub fn chain_matches(layers: &[ProbeLayer], net: &Sequential, input: &Tensor) -> bool {
    let mut gemm = GemmScratch::new();
    let mut x = input.clone();
    for layer in layers {
        let mut out = Tensor::default();
        layer.layer().infer_with(&x, &mut out, &mut gemm);
        x = out;
    }
    let mut scratch = InferScratch::new();
    bits(&x) == bits(net.infer_into(input, &mut scratch))
}

/// Training-side probe: per-layer `forward` and `backward` at the batch
/// the trainer presented (`states`), `reps` times.  Returns whether the
/// rebuilt chain reproduced `net` bit for bit.
pub fn training(spec: &QNetworkSpec, net: &Sequential, states: &Tensor, reps: usize) -> bool {
    let Some(mut layers) = rebuilt_for(spec, net, states) else {
        return false;
    };
    if !chain_matches(&layers, net, states) {
        return false;
    }
    record_cost(spec, &layers, states);
    let a = arch(spec);
    for _ in 0..reps {
        let mut x = states.clone();
        for layer in layers.iter_mut() {
            let _s = layer
                .kind()
                .map(|k| span(trace::intern(&format!("nn.{a}.{k}.forward"))));
            x = layer.layer_mut().forward(&x);
        }
        let mut g = Tensor::from_vec(x.shape().to_vec(), vec![1.0; x.len()]).expect("shape of x");
        for layer in layers.iter_mut().rev() {
            let _s = layer
                .kind()
                .map(|k| span(trace::intern(&format!("nn.{a}.{k}.backward"))));
            g = layer.layer_mut().backward(&g);
        }
    }
    true
}

/// The conv layer's im2col + GEMM lowering, timed as two stages; returns
/// the layer output.
fn conv_split(
    conv: &Conv2d,
    input: &Tensor,
    precision: Precision,
    a: &str,
    col: &mut Vec<f32>,
    packs: &mut PackScratch,
) -> Tensor {
    let (batch, c, h, w) = (
        input.shape()[0],
        input.shape()[1],
        input.shape()[2],
        input.shape()[3],
    );
    let shape = Im2colShape {
        channels: c,
        height: h,
        width: w,
        kernel: conv.kernel(),
        stride: conv.stride(),
        padding: conv.padding(),
        out_h: conv.output_size(h),
        out_w: conv.output_size(w),
    };
    let (rows, taps) = (shape.rows(), shape.cols());
    let oc = conv.out_channels();
    let params = conv.params();
    let (weight, bias) = (params[0].data(), params[1].data());
    col.resize(rows * taps, 0.0);
    let mut out = Tensor::zeros(&[batch, oc, shape.out_h, shape.out_w]);
    let gemm_name = trace::intern(&format!("nn.{a}.conv.gemm_{}", precision.name()));
    let im2col_name = trace::intern(&format!("nn.{a}.conv.im2col"));
    for n in 0..batch {
        {
            let _s = span(im2col_name);
            im2col(
                &input.data()[n * c * h * w..(n + 1) * c * h * w],
                &shape,
                col,
            );
        }
        let _s = span(gemm_name);
        gemm_nt_with(
            oc,
            rows,
            taps,
            weight,
            col,
            BiasMode::RowInit(bias),
            &mut out.data_mut()[n * oc * rows..(n + 1) * oc * rows],
            precision,
            packs,
        );
    }
    out
}

/// Evaluation-side probe: per-layer `infer_with` at both tiers, plus the
/// conv layers' im2col / GEMM split, over the batch sizes the lockstep
/// rollouts presented (`histogram[b]` = calls at batch `b`).  `lanes` holds
/// at least as many stacked observations as the largest batch.  Returns
/// whether the chain and the conv split reproduce the network bit for bit.
pub fn inference(
    spec: &QNetworkSpec,
    net: &Sequential,
    lanes: &Tensor,
    histogram: &[u64],
    budget: u64,
) -> bool {
    let Some(layers) = rebuilt_for(spec, net, lanes) else {
        return false;
    };
    if !chain_matches(&layers, net, lanes) {
        return false;
    }
    record_cost(spec, &layers, lanes);
    let a = arch(spec);
    let total: u64 = histogram.iter().sum();
    let mut ok = true;
    let mut col = Vec::new();
    let mut packs = PackScratch::new();
    for (batch, &calls) in histogram.iter().enumerate() {
        if calls == 0 || batch == 0 || batch > lanes.shape()[0] {
            continue;
        }
        let reps = (calls * budget).div_ceil(total.max(1));
        let input = rows(lanes, batch);
        for precision in [Precision::Reference, Precision::Fast] {
            let mut gemm = GemmScratch::with_precision(precision);
            let tier = precision.name();
            for _ in 0..reps {
                let mut x = input.clone();
                for layer in &layers {
                    let mut out = Tensor::default();
                    {
                        let _s = layer
                            .kind()
                            .map(|k| span(trace::intern(&format!("nn.{a}.{k}.infer_{tier}"))));
                        layer.layer().infer_with(&x, &mut out, &mut gemm);
                    }
                    if let ProbeLayer::Conv(conv) = layer {
                        let split = conv_split(conv, &x, precision, a, &mut col, &mut packs);
                        ok &= bits(&split) == bits(&out);
                    }
                    x = out;
                }
            }
        }
    }
    ok
}
