//! Tiny-size self-test of the benchmark: the order-statistics, self-time,
//! coverage, calibration and CPU-clock helpers, the ledger's agreement with
//! `BENCHMARK.json`, and every workload end to end, untraced and traced.
//!
//! Run with `cargo test --release` from this directory.

use berry_perfbench::calib::{self, Sample, CALIBRATED_KERNEL_S};
use berry_perfbench::report::Outcome;
use berry_perfbench::stats::{
    interquartile_mean, median, percentile_with_tail, quantile_sorted, sorted,
};
use berry_perfbench::trace::{covered_ns, SpanRecord, Trace};
use berry_perfbench::{ledger, serve, sweep, train};
use std::path::PathBuf;

#[test]
fn quantiles_interpolate_like_python_inclusive() {
    let v = sorted(&[4.0, 1.0, 3.0, 2.0]);
    assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
    assert_eq!(quantile_sorted(&v, 1.0), Some(4.0));
    assert_eq!(quantile_sorted(&v, 0.5), Some(2.5));
    assert_eq!(quantile_sorted(&v, 0.25), Some(1.75));
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[7.0]), Some(7.0));
    assert_eq!(
        interquartile_mean(&[100.0, 2.0, 3.0, 1.0, 4.0, 0.0, 5.0, 6.0]),
        Some(3.5)
    );
    assert_eq!(interquartile_mean(&[9.0]), Some(9.0));
    assert_eq!(interquartile_mean(&[]), None);
}

#[test]
fn percentiles_need_ten_samples_beyond() {
    let nineteen: Vec<f64> = (0..19).map(f64::from).collect();
    assert_eq!(percentile_with_tail(&nineteen, 0.5), None);
    let twenty: Vec<f64> = (0..20).map(f64::from).collect();
    assert_eq!(percentile_with_tail(&twenty, 0.5), Some(9.5));
    let ninety_nine: Vec<f64> = (0..99).map(f64::from).collect();
    assert_eq!(percentile_with_tail(&ninety_nine, 0.9), None);
    let hundred: Vec<f64> = (0..100).map(f64::from).collect();
    let p90 = percentile_with_tail(&hundred, 0.9).expect("100 samples allow p90");
    assert!((p90 - 89.1).abs() < 1e-9);
}

#[test]
fn calibration_rescales_to_the_calibrated_host() {
    // Work measured while the kernel ran twice as slow as on the
    // calibrated host took half as long there.
    let slow = Sample::new(2.0, 2.0 * CALIBRATED_KERNEL_S);
    assert_eq!(slow.raw_s, 2.0);
    assert!((slow.calibrated_s - 1.0).abs() < 1e-12);
    let m = calib::medians(&[slow, Sample::new(3.0, CALIBRATED_KERNEL_S), slow])
        .expect("three samples");
    assert_eq!(m.raw_s, 2.0);
    assert!((m.calibrated_s - 1.0).abs() < 1e-12);
    assert_eq!(calib::medians(&[]), None);
    assert!(calib::kernel_s() > 0.0);
    assert!(calib::kernel_parallel_s(2) > 0.0);
}

#[test]
fn process_cpu_clock_counts_busy_work_of_every_thread() {
    let busy = |seconds: f64| {
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_secs_f64() < seconds {
            x = std::hint::black_box(x.wrapping_add(1));
        }
    };
    let before = calib::process_cpu_s().expect("a CPU clock");
    // A thread that has ended still counts.
    let ((), time) = calib::cpu_timed(|| {
        std::thread::scope(|s| {
            s.spawn(|| busy(0.3));
        });
    });
    assert!(time.wall_s >= 0.3);
    assert!(time.cpu_s >= 0.2, "cpu {} s for 0.3 s busy", time.cpu_s);
    assert!(calib::process_cpu_s().expect("a CPU clock") >= before + time.cpu_s - 1e-9);
}

fn rec(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRecord {
    SpanRecord {
        id,
        parent,
        op: 0,
        name,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // root [0,100): children [10,40) and [30,60) overlap (parallel
    // workers), [90,120) sticks out past the root's end.
    let trace = Trace {
        spans: vec![
            rec(2, Some(1), "child", 10, 40),
            rec(3, Some(1), "child", 30, 60),
            rec(4, Some(1), "tail", 90, 120),
            rec(5, Some(2), "grandchild", 15, 25),
            rec(1, None, "root", 0, 100),
        ],
        ..Trace::default()
    };
    let totals = trace.totals();
    assert_eq!(totals["root"].self_ns, 100 - 50 - 10);
    assert_eq!(totals["root"].calls, 1);
    assert_eq!(totals["child"].calls, 2);
    assert_eq!(totals["child"].self_ns, (30 - 10) + 30);
    assert_eq!(totals["child"].mean_self_ns(), 25.0);
    assert_eq!(totals["grandchild"].self_ns, 10);
    let (wall, share) = trace.coverage("root", |_| true);
    assert_eq!(wall, 100);
    assert!((share - 0.6).abs() < 1e-12);
    // Only the grandchild counts: it is covered though its parent is not.
    let (_, share) = trace.coverage("root", |n| n == "grandchild");
    assert!((share - 0.1).abs() < 1e-12);
    assert_eq!(covered_ns(&mut [(5, 8), (0, 3), (2, 4)], 0, 10), 7);
}

#[test]
fn coverage_counts_only_ledger_spans() {
    // A root wrapped in one catch-all span that is not in the ledger
    // attributes nothing, and fails the 0.9 gate ...
    let unattributed = Trace {
        spans: vec![
            rec(2, Some(1), "catch.all", 0, 100),
            rec(3, Some(2), "nn.optim", 10, 15),
            rec(1, None, "root", 0, 100),
        ],
        ..Trace::default()
    };
    let (wall, share) = ledger::coverage(&unattributed, "root");
    assert_eq!(wall, 100);
    assert!((share - 0.05).abs() < 1e-12);
    assert!(share < 0.9);
    // ... while ledger spans nested under it, on any thread, count once.
    let attributed = Trace {
        spans: vec![
            rec(2, Some(1), "catch.all", 0, 100),
            rec(3, Some(2), "rl.rollout", 0, 60),
            rec(4, Some(2), "rl.rollout", 40, 95),
            rec(5, Some(3), "rl.vecenv_step", 10, 20),
            rec(1, None, "root", 0, 100),
        ],
        ..Trace::default()
    };
    let (_, share) = ledger::coverage(&attributed, "root");
    assert!((share - 0.95).abs() < 1e-12);
}

#[test]
fn ledger_matches_benchmark_json() {
    let names = ledger::names();
    let unique: std::collections::BTreeSet<&String> = names.iter().map(|(n, _)| n).collect();
    assert_eq!(unique.len(), names.len(), "ledger names must be unique");
    assert!(names.len() <= 128);
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
    for (name, unit) in &names {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
        assert!(
            per_layer.contains(&entry),
            "BENCHMARK.json lacks per-layer metric {name} [{unit}]"
        );
    }
    assert_eq!(
        per_layer.matches("\"name\"").count(),
        names.len(),
        "BENCHMARK.json lists extra per-layer metrics"
    );
}

fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "berry-perfbench-selftest-{name}-{}",
        std::process::id()
    ))
}

fn check(outcome: &Outcome, traced: bool, e2e: &[&str]) {
    assert!(
        outcome.correct(),
        "gates failed: {:?}",
        outcome.gate_failures
    );
    assert!(outcome.attempted > 0);
    if traced {
        let names: Vec<String> = ledger::names().into_iter().map(|(n, _)| n).collect();
        let got: Vec<String> = outcome.per_layer.iter().map(|m| m.name.clone()).collect();
        assert_eq!(
            got, names,
            "a traced run reports the whole ledger, in order"
        );
    } else {
        assert!(
            outcome.report.iter().any(|m| m.name == outcome.work_metric),
            "work_per_s aliases a report metric"
        );
        let end_to_end = outcome.end_to_end();
        for name in e2e {
            let m = end_to_end
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("missing {name}"));
            assert!(m.value.is_finite() && m.value > 0.0, "{name} = {}", m.value);
        }
    }
}

/// All workloads in one test: the traced runs share the process-wide
/// span recorder, so they must not overlap.
#[test]
fn every_workload_runs_at_tiny_size() {
    let dir = scratch("train");
    check(
        &train::run(&train::TrainSize::tiny(), 1, 0.01, &dir, false),
        false,
        &["work_per_s", "setup_s"],
    );
    let traced = train::run(&train::TrainSize::tiny(), 1, 0.01, &dir, true);
    check(&traced, true, &[]);
    let calls = |o: &Outcome, n: &str| {
        o.per_layer
            .iter()
            .find(|m| m.name == n)
            .map_or(0.0, |m| m.value)
    };
    assert!(calls(&traced, "nn.train_forward.calls") > 0.0);
    assert!(calls(&traced, "nn.c5f4.conv.backward.calls") > 0.0);
    assert_eq!(
        calls(&traced, "nn.infer_fast.calls"),
        0.0,
        "train does no Fast-tier inference"
    );
    let _ = std::fs::remove_dir_all(&dir);

    check(
        &sweep::run(&sweep::SweepSize::tiny(), 1, 0.01, false),
        false,
        &["work_per_s", "setup_s"],
    );
    let traced = sweep::run(&sweep::SweepSize::tiny(), 1, 0.01, true);
    check(&traced, true, &[]);
    assert!(calls(&traced, "nn.infer_fast.calls") > 0.0);
    assert!(calls(&traced, "nn.c3f2.conv.gemm_fast.calls") > 0.0);
    assert_eq!(
        calls(&traced, "nn.train_forward.calls"),
        0.0,
        "sweep does no training"
    );

    let dir = scratch("serve");
    check(
        &serve::run(&serve::ServeSize::tiny(), 1, 0.5, &dir, false),
        false,
        &["work_per_s", "setup_s"],
    );
    let traced = serve::run(&serve::ServeSize::tiny(), 1, 0.5, &dir, true);
    check(&traced, true, &[]);
    assert!(calls(&traced, "serve.connect.calls") > 0.0);
    let _ = std::fs::remove_dir_all(&dir);
}
