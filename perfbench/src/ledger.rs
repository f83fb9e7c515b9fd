//! The per-layer ledger: every per-layer metric, its unit and where it
//! comes from.
//!
//! Every traced run reports the whole ledger, so a layer a workload does
//! not exercise reads 0 calls there — that is the "predict no change" side
//! of the layer → end-to-end table in the README.

use crate::report::Metric;
use crate::trace::Trace;

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Mean self time per call of a span name, scaled from ns by the
    /// divisor; also reported as `<span>.calls`.
    Span(&'static str, f64),
    /// A trace counter (or a value the workload fills in afterwards).
    Value,
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// The per-span metrics: (metric name, span name, unit, ns divisor).
const SPANS: &[(&str, &str, &str, f64)] = &[
    ("nn.train_forward_ms", "nn.train_forward", "ms", MS),
    ("nn.train_backward_ms", "nn.train_backward", "ms", MS),
    ("nn.loss_us", "nn.loss", "us", US),
    ("nn.optim_us", "nn.optim", "us", US),
    ("nn.infer_reference_us", "nn.infer_reference", "us", US),
    ("nn.infer_fast_us", "nn.infer_fast", "us", US),
    ("core.perturb_refresh_us", "core.perturb_refresh", "us", US),
    ("core.grad_merge_us", "core.grad_merge", "us", US),
    ("core.context_ms", "core.context", "ms", MS),
    ("core.inject_us", "core.inject", "us", US),
    ("core.campaign_direct_ms", "core.campaign_direct", "ms", MS),
    ("core.rows_parse_us", "core.rows_parse", "us", US),
    ("faults.train_map_us", "faults.train_map", "us", US),
    ("faults.sample_map_us", "faults.sample_map", "us", US),
    ("rl.act_us", "rl.act", "us", US),
    ("rl.replay_us", "rl.replay", "us", US),
    ("rl.rollout_ms", "rl.rollout", "ms", MS),
    ("rl.vecenv_step_us", "rl.vecenv_step", "us", US),
    ("rl.stack_us", "rl.stack", "us", US),
    ("uav.env_step_us", "uav.env_step", "us", US),
    ("uav.flight_us", "uav.flight", "us", US),
    ("hw.accelerator_us", "hw.accelerator", "us", US),
    ("serve.connect_us", "serve.connect", "us", US),
    ("serve.reply_us", "serve.reply", "us", US),
];

/// Architectures and per-layer stages of the layer probe.
const ARCHS: &[&str] = &["c3f2", "c5f4"];
const KINDS: &[&str] = &["conv", "dense", "relu"];
const STAGES: &[&str] = &["infer_reference", "infer_fast", "forward", "backward"];
const CONV_STAGES: &[&str] = &["im2col", "gemm_reference", "gemm_fast"];

/// Counter-valued metrics: (name, unit).  Filled from trace counters of
/// the same name, or set by the workload after the run.
const VALUES: &[(&str, &str)] = &[
    ("nn.rows_per_infer", "rows"),
    ("faults.bits_flipped", "count"),
    ("core.store_load_ms", "ms"),
    ("core.store_hit_ratio", "ratio"),
    ("core.store_inflight_joins", "count"),
    ("core.store_trained", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.overload_sheds", "count"),
    ("serve.timeouts", "count"),
    ("serve.stream_errors", "count"),
    ("rayon.busy_ratio", "ratio"),
    ("rayon.steals", "count"),
    ("rayon.idle_tail_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

fn entries() -> Vec<(String, &'static str, Source)> {
    let mut out = Vec::new();
    for &(name, span, unit, div) in SPANS {
        out.push((name.to_string(), unit, Source::Span(span, div)));
    }
    for a in ARCHS {
        for k in KINDS {
            for s in STAGES {
                let span = crate::trace::intern(&format!("nn.{a}.{k}.{s}"));
                out.push((format!("{span}_us"), "us", Source::Span(span, US)));
            }
        }
        for s in CONV_STAGES {
            let span = crate::trace::intern(&format!("nn.{a}.conv.{s}"));
            out.push((format!("{span}_us"), "us", Source::Span(span, US)));
        }
        out.push((format!("nn.{a}.flops_per_sample"), "flop", Source::Value));
        out.push((format!("nn.{a}.weight_bytes"), "bytes", Source::Value));
    }
    for &(name, unit) in VALUES {
        out.push((name.to_string(), unit, Source::Value));
    }
    out
}

/// Every per-layer metric name with its unit, in report order (call
/// counts follow their per-call metric).
pub fn names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (name, unit, source) in entries() {
        out.push((name, unit));
        if let Source::Span(span, _) = source {
            out.push((format!("{span}.calls"), "count"));
        }
    }
    out
}

/// The full ledger of a trace: span metrics from self times, values from
/// counters (0 where the workload recorded nothing).
pub fn per_layer(trace: &Trace) -> Vec<Metric> {
    let totals = trace.totals();
    let mut out = Vec::new();
    for (name, unit, source) in entries() {
        match source {
            Source::Span(span, div) => {
                let t = totals.get(span).copied().unwrap_or_default();
                out.push(Metric::new(name, t.mean_self_ns() / div, unit));
                out.push(Metric::new(
                    format!("{span}.calls"),
                    t.calls as f64,
                    "count",
                ));
            }
            Source::Value => {
                let v = trace.counters.get(name.as_str()).copied().unwrap_or(0.0);
                out.push(Metric::new(name, v, unit));
            }
        }
    }
    out
}

/// Summed wall time of the root spans named `root` and the share of it
/// that ledger spans cover: the time the per-layer ledger attributes.
pub fn coverage(trace: &Trace, root: &str) -> (u64, f64) {
    let spans: Vec<&'static str> = entries()
        .into_iter()
        .filter_map(|(_, _, source)| match source {
            Source::Span(span, _) => Some(span),
            Source::Value => None,
        })
        .collect();
    trace.coverage(root, |name| spans.contains(&name))
}

/// Sets a ledger value computed outside the trace.
///
/// # Panics
///
/// Panics if `name` is not a ledger metric (a typo in the benchmark).
pub fn set(ledger: &mut [Metric], name: &str, value: f64) {
    let metric = ledger
        .iter_mut()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"));
    metric.value = value;
}
