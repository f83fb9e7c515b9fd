//! `serve`: an in-process `berry-serve` server under a closed loop of
//! clients.
//!
//! The server listens on 127.0.0.1 over an on-disk store, warmed in
//! set-up.  `nproc` clients (no think time, each waiting for its reply)
//! send a seeded mix of Smoke-scale requests: warm campaign requests for
//! cell subsets, warm axes requests, and a fixed share of campaign
//! requests with a never-seen base seed, which miss the store, train and
//! persist.  Both clients walk the same sequence of new seeds, so when
//! they reach one together the second request joins the first's
//! in-flight training.  This is the only workload through the protocol,
//! server, campaign planning, rows and store hits and misses; its MLP
//! policies and tiny evaluations make it the no-change control for conv
//! and GEMM work.

use crate::calib::{self, CpuSample, Sample};
use crate::report::{Metric, Outcome};
use crate::stats;
use crate::trace::{self, span};
use berry_core::campaign::{run_scenario_in, scenario_seed};
use berry_core::campaign::{CampaignConfig, CompletedSet, EvalAxis, OperatingPoint, PolicyRole};
use berry_core::experiment::ExperimentScale;
use berry_core::{run_grid_resumable_in, run_grid_serial_in, ParsedRow, PolicyStore};
use berry_nn::gemm::Precision;
use berry_serve::client;
use berry_serve::protocol::Request;
use berry_serve::server::Server;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sizes of one `serve` run.
#[derive(Debug, Clone)]
pub struct ServeSize {
    /// Grid and per-cell compute of every request.
    pub scale: ExperimentScale,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Warm base seeds (trained in set-up).
    pub warm_seeds: u64,
    /// Every `miss_every`-th request of a client uses the next new seed.
    pub miss_every: u64,
    /// Share of the remaining requests that are axes requests.
    pub axes_share: f64,
    /// Set-up repetitions (`setup_s` is their median).
    pub setups: usize,
}

impl ServeSize {
    /// The measured size: Smoke scale, one client per core.
    pub fn full() -> Self {
        Self {
            scale: ExperimentScale::Smoke,
            clients: std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get),
            warm_seeds: 3,
            miss_every: 40,
            axes_share: 0.2,
            setups: 7,
        }
    }

    /// A seconds-long size for the self-test.
    pub fn tiny() -> Self {
        Self {
            clients: 2,
            warm_seeds: 1,
            miss_every: 4,
            setups: 1,
            ..Self::full()
        }
    }
}

/// What a request was, for the latency split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Warm,
    Axes,
    /// First request for a never-seen seed.
    Miss,
    /// A later request for a seed another client just introduced (joins
    /// the in-flight training or hits the fresh slot).
    Follow,
}

fn warm_seed(seed: u64, j: u64) -> u64 {
    berry_core::seed::splitmix64(seed.wrapping_mul(31).wrapping_add(j))
}

fn miss_seed(seed: u64, k: u64) -> u64 {
    berry_core::seed::splitmix64(!seed).wrapping_add(k)
}

fn axes_for(rng: &mut StdRng) -> Vec<EvalAxis> {
    let options = [
        EvalAxis::new(
            "error-free",
            PolicyRole::Classical,
            OperatingPoint::ErrorFree,
        ),
        EvalAxis::new("ber-1e-2", PolicyRole::Berry, OperatingPoint::Ber(0.01)),
        EvalAxis::new(
            "deploy",
            PolicyRole::Berry,
            OperatingPoint::MissionAtDeployVoltage,
        ),
    ];
    let first = rng.gen_range(0..options.len());
    let mut axes = vec![options[first].clone()];
    if rng.gen::<bool>() {
        axes.push(options[(first + 1) % options.len()].clone());
    }
    axes
}

/// State shared by the clients of one load phase.
struct Shared {
    /// First served bytes of every (seed, cell) campaign row.
    rows: Mutex<BTreeMap<(u64, usize), String>>,
    /// New seeds already requested by some client.
    introduced: Mutex<BTreeSet<u64>>,
    /// (kind, latency seconds, rows) of every finished request.
    done: Mutex<Vec<(Kind, f64, usize)>>,
    failures: Mutex<Vec<String>>,
}

impl Shared {
    fn new() -> Self {
        Self {
            rows: Mutex::new(BTreeMap::new()),
            introduced: Mutex::new(BTreeSet::new()),
            done: Mutex::new(Vec::new()),
            failures: Mutex::new(Vec::new()),
        }
    }

    fn fail(&self, what: String) {
        self.failures.lock().expect("failure list").push(what);
    }
}

/// Sends one request; returns its row count or a failure description.
fn send(addr: &str, request: &Request, seed: u64, shared: &Shared) -> Result<usize, String> {
    let stream = {
        let _s = span("serve.connect");
        TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?
    };
    let is_campaign = matches!(request, Request::Campaign { .. });
    let mut rows = 0usize;
    let terminal = {
        let _s = span("serve.reply");
        client::stream_request(stream, request, |line| {
            rows += 1;
            if is_campaign {
                let parsed = {
                    let _s = span("core.rows_parse");
                    ParsedRow::parse(line)
                };
                let index = parsed
                    .map_err(|e| berry_serve::ServeError::Protocol(e.to_string()))?
                    .index;
                let mut seen = shared.rows.lock().expect("row table");
                let first = seen
                    .entry((seed, index))
                    .or_insert_with(|| line.to_string());
                if first != line {
                    shared.fail(format!(
                        "seed {seed} cell {index}: served row bytes differ between requests"
                    ));
                }
            }
            Ok(())
        })
        .map_err(|e| format!("stream: {e}"))?
    };
    if terminal.status != "ok" {
        return Err(format!(
            "terminal `{}`: {:?}",
            terminal.status, terminal.error
        ));
    }
    if terminal.rows != rows {
        return Err(format!(
            "terminal says {} rows, {rows} received",
            terminal.rows
        ));
    }
    Ok(rows)
}

/// One load phase: its id (separating its new seeds from other phases')
/// and deadline.
#[derive(Clone, Copy)]
struct Phase {
    id: u64,
    deadline: Instant,
}

/// One closed-loop client until the phase's deadline.
fn client_loop(
    addr: &str,
    size: &ServeSize,
    seed: u64,
    client: u64,
    phase: Phase,
    shared: &Shared,
) {
    let Phase {
        id: phase,
        deadline,
    } = phase;
    let grid_len = CampaignConfig::at_scale(size.scale).grid().len();
    let mut rng =
        StdRng::seed_from_u64(berry_core::seed::splitmix64(seed ^ (phase << 32) ^ client));
    let mut n = 0u64;
    while Instant::now() < deadline {
        n += 1;
        let (kind, base, request) = if n.is_multiple_of(size.miss_every) {
            let k = (phase << 32) | (n / size.miss_every);
            let base = miss_seed(seed, k);
            let cell = (k as usize) % grid_len;
            let first = shared.introduced.lock().expect("seed set").insert(base);
            let kind = if first { Kind::Miss } else { Kind::Follow };
            (
                kind,
                base,
                Request::Campaign {
                    scale: size.scale,
                    base_seed: base,
                    cells: Some(vec![cell]),
                },
            )
        } else {
            let base = warm_seed(seed, rng.gen_range(0..size.warm_seeds));
            if rng.gen::<f64>() < size.axes_share {
                (
                    Kind::Axes,
                    base,
                    Request::Axes {
                        scale: size.scale,
                        base_seed: base,
                        axes: axes_for(&mut rng),
                    },
                )
            } else {
                let mask = rng.gen_range(1..(1u32 << grid_len));
                let cells = (0..grid_len).filter(|i| mask & (1 << i) != 0).collect();
                (
                    Kind::Warm,
                    base,
                    Request::Campaign {
                        scale: size.scale,
                        base_seed: base,
                        cells: Some(cells),
                    },
                )
            }
        };
        let t = Instant::now();
        let outcome = {
            let _root = trace::span_in("serve.request", None, (client << 48) | n);
            send(addr, &request, base, shared)
        };
        let latency = t.elapsed().as_secs_f64();
        match outcome {
            Ok(rows) => shared
                .done
                .lock()
                .expect("done list")
                .push((kind, latency, rows)),
            Err(e) => shared.fail(format!("client {client} request {n}: {e}")),
        }
    }
}

/// Runs the clients of one phase to `seconds`, recording into `shared`,
/// and returns the phase's wall time.
fn load(addr: &str, size: &ServeSize, seed: u64, phase: u64, seconds: f64, shared: &Shared) -> f64 {
    let start = Instant::now();
    let phase = Phase {
        id: phase,
        deadline: start + Duration::from_secs_f64(seconds),
    };
    std::thread::scope(|scope| {
        for c in 0..size.clients as u64 {
            scope.spawn(move || client_loop(addr, size, seed, c, phase, shared));
        }
    });
    start.elapsed().as_secs_f64()
}

/// Length of one load phase.
const PHASE_S: f64 = 1.0;

/// One untraced load phase as measured.
struct PhaseTime {
    /// Rows served in the phase.
    rows: usize,
    /// The phase's wall and process CPU seconds.
    time: CpuSample,
    /// The calibration kernel's time over the phase: the mean of the runs
    /// at its two ends.
    kernel_s: f64,
}

/// The untraced load: phases of [`PHASE_S`] until `seconds` have passed,
/// each timed by the process CPU clock, with the calibration kernel run on
/// one thread per client — every vCPU — between them, while the server is
/// idle (see `calib`; alongside the load it would measure contention
/// instead of the host's speed).  Returns the total wall time and every
/// phase.
fn load_phases(
    addr: &str,
    size: &ServeSize,
    seed: u64,
    seconds: f64,
    shared: &Shared,
) -> (f64, Vec<PhaseTime>) {
    let start = Instant::now();
    let mut kernel = calib::kernel_parallel_s(size.clients);
    let mut phases = Vec::new();
    while phases.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let first = shared.done.lock().expect("done list").len();
        let (_, time) =
            calib::cpu_timed(|| load(addr, size, seed, phases.len() as u64, PHASE_S, shared));
        let rows = shared.done.lock().expect("done list")[first..]
            .iter()
            .map(|d| d.2)
            .sum();
        let after = calib::kernel_parallel_s(size.clients);
        phases.push(PhaseTime {
            rows,
            time,
            kernel_s: 0.5 * (kernel + after),
        });
        kernel = after;
    }
    (start.elapsed().as_secs_f64(), phases)
}

/// Set-up requests: every warm seed's full grid and one axes request.
fn warm(addr: &str, size: &ServeSize, seed: u64) -> Result<(), String> {
    let shared = Shared::new();
    let mut rng = StdRng::seed_from_u64(seed);
    for j in 0..size.warm_seeds {
        let base = warm_seed(seed, j);
        send(
            addr,
            &Request::Campaign {
                scale: size.scale,
                base_seed: base,
                cells: None,
            },
            base,
            &shared,
        )?;
        send(
            addr,
            &Request::Axes {
                scale: size.scale,
                base_seed: base,
                axes: axes_for(&mut rng),
            },
            base,
            &shared,
        )?;
    }
    Ok(())
}

fn latencies(done: &[(Kind, f64, usize)], kinds: &[Kind]) -> Vec<f64> {
    done.iter()
        .filter(|d| kinds.contains(&d.0))
        .map(|d| d.1 * 1e3)
        .collect()
}

/// Gate: every served campaign row is byte-identical to the same cell of
/// `run_grid_serial_in` for its seed.  Warm seeds (every cell served) run
/// the whole serial grid; a missed seed served one cell, so only that
/// cell's serial step runs — `run_scenario_in` at the cell's grid position
/// and scenario seed, as `run_grid_serial_in` calls it — instead of
/// training every other cell of the grid just to discard it.
fn gate_rows(store: &PolicyStore, size: &ServeSize, seed: u64, shared: &Shared, out: &mut Outcome) {
    let grid = CampaignConfig::at_scale(size.scale).grid();
    let rows = shared.rows.lock().expect("row table");
    let seeds: BTreeSet<u64> = rows.keys().map(|&(s, _)| s).collect();
    let warm: BTreeSet<u64> = (0..size.warm_seeds).map(|j| warm_seed(seed, j)).collect();
    for base in seeds {
        let served = rows.range((base, 0)..=(base, usize::MAX));
        if warm.contains(&base) {
            match run_grid_serial_in(&grid, size.scale, base, store) {
                Ok(direct) => {
                    for ((_, cell), line) in served {
                        let same = direct
                            .get(*cell)
                            .is_some_and(|row| row.to_json_line() == *line);
                        out.gate(same, format!("seed {base} cell {cell}: served row differs from run_grid_serial_in"));
                    }
                }
                Err(e) => out.gate(
                    false,
                    format!("seed {base}: run_grid_serial_in failed: {e}"),
                ),
            }
            continue;
        }
        for ((_, cell), line) in served {
            let direct = grid
                .get(*cell)
                .ok_or_else(|| "cell out of range".to_string())
                .and_then(|scenario| {
                    run_scenario_in(
                        scenario,
                        *cell,
                        size.scale,
                        scenario_seed(base, *cell as u64),
                        base,
                        store,
                        &[],
                        Precision::Reference,
                    )
                    .map_err(|e| e.to_string())
                });
            match direct {
                Ok(row) => out.gate(
                    row.to_json_line() == *line,
                    format!("seed {base} cell {cell}: served row differs from the serial cell run"),
                ),
                Err(e) => out.gate(
                    false,
                    format!("seed {base} cell {cell}: serial cell run failed: {e}"),
                ),
            }
        }
    }
}

/// Runs `serve` for about `seconds`.
pub fn run(size: &ServeSize, seed: u64, seconds: f64, dir: &Path, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    for rep in 0..size.setups.max(1) {
        let last = rep + 1 == size.setups.max(1);
        if dir.exists() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let kernel_before = calib::kernel_parallel_s(size.clients);
        let cpu_before = calib::process_cpu_s();
        let t = Instant::now();
        let bound = PolicyStore::with_dir(dir)
            .map_err(|e| e.to_string())
            .and_then(|store| Server::bind("127.0.0.1:0", store).map_err(|e| e.to_string()));
        let server = match bound {
            Ok(server) => server,
            Err(e) => {
                out.attempted += 1;
                out.gate(false, format!("serve set-up: {e}"));
                return out;
            }
        };
        let addr = match server.local_addr() {
            Ok(a) => a.to_string(),
            Err(e) => {
                out.attempted += 1;
                out.gate(false, format!("serve set-up: {e}"));
                return out;
            }
        };
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.run());
            match warm(&addr, size, seed) {
                Ok(()) => {
                    let wall_s = t.elapsed().as_secs_f64();
                    let cpu_s = match (cpu_before, calib::process_cpu_s()) {
                        (Some(before), Some(after)) => after - before,
                        _ => wall_s,
                    };
                    let kernel_s = 0.5 * (kernel_before + calib::kernel_parallel_s(size.clients));
                    setup_times.push(Sample::new(cpu_s, kernel_s));
                    // A panic while measuring must still reach the
                    // shutdown below, or the scope would wait on the
                    // server forever.
                    let measured = last.then(|| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            measure(&server, &addr, size, seed, seconds, traced, &mut out);
                        }))
                    });
                    if let Some(Err(_)) = measured {
                        out.gate(false, "serve measurement panicked");
                    }
                }
                Err(e) => {
                    out.attempted += 1;
                    out.gate(false, format!("serve warm-up: {e}"));
                }
            }
            if let Err(e) = client::shutdown(&addr) {
                out.gate(false, format!("shutdown: {e}"));
            }
            match running.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => out.gate(false, format!("server: {e}")),
                Err(_) => out.gate(false, "server thread panicked"),
            }
        });
    }
    if !traced {
        out.push_setup(&setup_times);
    }
    out
}

fn measure(
    server: &Server,
    addr: &str,
    size: &ServeSize,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) {
    if traced {
        trace::enable();
    }
    let shared = Shared::new();
    let (wall, phases) = if traced {
        (load(addr, size, seed, 0, seconds, &shared), Vec::new())
    } else {
        load_phases(addr, size, seed, seconds, &shared)
    };
    out.peak_rss_mb = stats::peak_rss_mb();
    let trace = trace::take();
    trace::disable();
    let done = shared.done.lock().expect("done list").clone();
    let failures = shared.failures.lock().expect("failure list").clone();
    out.attempted += (done.len() + failures.len()) as u64;
    out.failed += failures.len() as u64;
    out.gate_failures.extend(failures.iter().take(20).cloned());
    let gates = Instant::now();
    gate_rows(server.store(), size, seed, &shared, out);
    out.report.push(Metric::new("timed_s", wall, "s"));
    out.report
        .push(Metric::new("gates_s", gates.elapsed().as_secs_f64(), "s"));

    let all = latencies(&done, &[Kind::Warm, Kind::Axes, Kind::Miss, Kind::Follow]);
    let rows: usize = done.iter().map(|d| d.2).sum();
    if !traced {
        // Rows per second of each phase — per wall second, and per
        // calibrated CPU second of the process (see `calib`) — as the mean
        // of the middle half of the phases, so a burst of load from
        // elsewhere on the host does not move the rate.
        let rate = |time: fn(&PhaseTime) -> f64| {
            let rates: Vec<f64> = phases.iter().map(|p| p.rows as f64 / time(p)).collect();
            stats::interquartile_mean(&rates).unwrap_or(0.0)
        };
        out.work_metric = "serve_rows_per_cpu_s_calibrated";
        let p = |v: &[f64], q: f64| stats::percentile_with_tail(v, q).unwrap_or(f64::NAN);
        let miss = latencies(&done, &[Kind::Miss]);
        let axes = latencies(&done, &[Kind::Axes]);
        out.report.push(Metric::sampled(
            "serve_request_ms_p50",
            p(&all, 0.5),
            "ms",
            all.len(),
        ));
        out.report.push(Metric::sampled(
            "serve_request_ms_p90",
            p(&all, 0.9),
            "ms",
            all.len(),
        ));
        out.report.push(Metric::sampled(
            "serve_miss_request_ms_p50",
            p(&miss, 0.5),
            "ms",
            miss.len(),
        ));
        out.report.push(Metric::sampled(
            "serve_axes_request_ms_p50",
            p(&axes, 0.5),
            "ms",
            axes.len(),
        ));
        out.report.push(Metric::sampled(
            "serve_rows_per_s",
            rate(|p| p.time.wall_s),
            "1/s",
            phases.len(),
        ));
        out.report.push(Metric::sampled(
            "serve_rows_per_cpu_s_calibrated",
            rate(|p| Sample::new(p.time.cpu_s, p.kernel_s).calibrated_s),
            "1/s",
            phases.len(),
        ));
        out.report.push(Metric::new(
            "serve_rows_per_s_mean",
            rows as f64 / wall,
            "1/s",
        ));
        out.report
            .push(Metric::new("serve_requests", done.len() as f64, "count"));
        out.report.push(Metric::new(
            "serve_requests_failed",
            failures.len() as f64,
            "count",
        ));
        let follows = done.iter().filter(|d| d.0 == Kind::Follow).count();
        out.report.push(Metric::new(
            "serve_follow_requests",
            follows as f64,
            "count",
        ));
        return;
    }

    // Per-layer extras: the server's own counters, the store's, and the
    // same warm request run in-process with no server.
    let coverage = crate::ledger::coverage(&trace, "serve.request").1;
    out.per_layer = crate::ledger::per_layer(&trace);
    match client::fetch_metrics(addr) {
        Ok(m) => {
            for (field, name) in [
                ("max_queue_depth", "serve.queue_depth_max"),
                ("overload_sheds", "serve.overload_sheds"),
                ("timeouts", "serve.timeouts"),
                ("stream_errors", "serve.stream_errors"),
            ] {
                let v = m.value.u64_field(field).map_or(f64::NAN, |v| v as f64);
                crate::ledger::set(&mut out.per_layer, name, v);
            }
        }
        Err(e) => out.gate(false, format!("metrics request: {e}")),
    }
    let st = server.store().stats();
    let lookups = (st.trained + st.memory_hits + st.disk_hits).max(1) as f64;
    crate::ledger::set(
        &mut out.per_layer,
        "core.store_hit_ratio",
        (st.memory_hits + st.disk_hits) as f64 / lookups,
    );
    crate::ledger::set(
        &mut out.per_layer,
        "core.store_inflight_joins",
        st.inflight_joins as f64,
    );
    crate::ledger::set(&mut out.per_layer, "core.store_trained", st.trained as f64);

    trace::enable();
    let grid = CampaignConfig::at_scale(size.scale).grid();
    let base = warm_seed(seed, 0);
    for _ in 0..20 {
        let _s = trace::span_in("core.campaign_direct", None, 0);
        let direct = run_grid_resumable_in(
            &grid,
            size.scale,
            base,
            server.store(),
            &[],
            &CompletedSet::empty(),
            &|_| {},
            |_, _| Ok(()),
        );
        if let Err(e) = direct {
            out.gate(false, format!("direct campaign: {e}"));
        }
    }
    let direct = trace::take()
        .totals()
        .get("core.campaign_direct")
        .copied()
        .unwrap_or_default();
    crate::ledger::set(
        &mut out.per_layer,
        "core.campaign_direct_ms",
        direct.mean_self_ns() / 1e6,
    );
    if let Some(m) = out
        .per_layer
        .iter_mut()
        .find(|m| m.name == "core.campaign_direct.calls")
    {
        m.value = direct.calls as f64;
    }

    // Tracing overhead: the same load, untraced, for a short window.
    trace::disable();
    let traced_mean = all.iter().sum::<f64>() / all.len().max(1) as f64;
    let plain = Shared::new();
    load(addr, size, seed, 1, (seconds / 5.0).clamp(0.5, 5.0), &plain);
    let plain_done = plain.done.lock().expect("done list").clone();
    let plain_all = latencies(
        &plain_done,
        &[Kind::Warm, Kind::Axes, Kind::Miss, Kind::Follow],
    );
    let plain_mean = plain_all.iter().sum::<f64>() / plain_all.len().max(1) as f64;
    crate::ledger::set(&mut out.per_layer, "trace.coverage", coverage);
    crate::ledger::set(
        &mut out.per_layer,
        "trace.overhead",
        if plain_mean > 0.0 {
            traced_mean / plain_mean
        } else {
            0.0
        },
    );
    out.gate(
        coverage >= 0.9,
        format!("serve ledger spans cover {coverage:.3} < 0.9 of traced wall"),
    );
}
