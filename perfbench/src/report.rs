//! The result of one benchmark run and its JSON rendering.

use crate::calib::Sample;
use berry_core::{encode_json_f64, encode_json_string};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json` or the README.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit of `value`.
    pub unit: &'static str,
    /// How many samples the value summarises, where that is meaningful.
    pub samples: Option<usize>,
}

impl Metric {
    /// A metric without a sample count.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
            samples: None,
        }
    }

    /// A metric summarising `samples` observations.
    pub fn sampled(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) -> Self {
        Self {
            samples: Some(samples),
            ..Self::new(name, value, unit)
        }
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (pairs, operating points, requests).
    pub attempted: u64,
    /// Operations that failed, correctness gates included.
    pub failed: u64,
    /// One line per failed correctness gate.
    pub gate_failures: Vec<String>,
    /// The workload's named metrics (untraced) or ledger extras (traced),
    /// printed in the report line.  Untraced, it holds `setup_s` too.
    pub report: Vec<Metric>,
    /// Name of the report metric that the result line carries as the
    /// bounded `work_per_s` (untraced runs only).
    pub work_metric: &'static str,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Peak resident set in MiB at the end of the timed part, before the
    /// correctness gates (which would otherwise set it); `None` means
    /// "read it when the run ends".
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    /// Records a failed gate (counted as one failed operation).
    pub fn gate(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failed += 1;
            self.gate_failures.push(what.into());
        }
    }

    /// The result line's end-to-end metrics, taken from the report:
    /// `work_per_s` (the workload's bounded rate, under its report name
    /// there), `setup_s` and `peak_rss_mb`.  Metrics a failed run never
    /// measured are left out.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let find = |name: &str| self.report.iter().find(|m| m.name == name);
        let mut out = Vec::new();
        if let Some(work) = find(self.work_metric) {
            out.push(Metric::new("work_per_s", work.value, work.unit));
        }
        for name in ["setup_s", "peak_rss_mb"] {
            if let Some(m) = find(name) {
                out.push(Metric::new(name, m.value, m.unit));
            }
        }
        out
    }

    /// Reports the set-up repetitions: `setup_s`, their median calibrated
    /// CPU time (see `calib`), and `setup_cpu_s`, their median CPU time.
    pub fn push_setup(&mut self, setups: &[Sample]) {
        let m = crate::calib::medians(setups).unwrap_or(Sample {
            raw_s: 0.0,
            calibrated_s: 0.0,
        });
        self.report.push(Metric::sampled(
            "setup_s",
            m.calibrated_s,
            "s",
            setups.len(),
        ));
        self.report
            .push(Metric::sampled("setup_cpu_s", m.raw_s, "s", setups.len()));
    }

    /// Whether every gate passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gate_failures.is_empty()
    }
}

/// `{"name": {"value": v, "unit": u[, "samples": n]}, ...}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            let samples = m
                .samples
                .map_or(String::new(), |n| format!(", \"samples\": {n}"));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                encode_json_string(&m.name),
                encode_json_f64(m.value),
                encode_json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}
