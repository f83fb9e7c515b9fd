//! `sweep`: a Table II / Fig. 7-shaped voltage sweep of trained pairs.
//!
//! Set-up trains a C3F2 pair (offline, generic chip) and a C5F4 pair
//! (on-device, `chip2_column_aligned`) briefly.  The timed part evaluates
//! both policies of each pair with `evaluate_mission_seeded` in its
//! mission context — C3F2 on `crazyflie_c3f2`, C5F4 on `tello_c5f4` with
//! the column-aligned chip — at voltages from near Vmin (high bit-error
//! rate) to nominal, under the Quick evaluation protocol (25 maps × 2
//! episodes × 45 steps, 8 lanes), once at the Reference and once at the
//! Fast GEMM tier, with the maps spread over the rayon workers.  No
//! training happens in the timed part.

use crate::calib::{self, Sample};
use crate::probe;
use crate::report::{Metric, Outcome};
use crate::stats;
use crate::trace::{self, span};
use crate::train::{self, TrainSize};
use berry_core::evaluate::{
    evaluate_mission_seeded, evaluate_under_faults_seeded, evaluate_under_faults_serial,
    fault_map_seed, FaultEvaluationConfig, MissionContext, MissionEvaluation,
};
use berry_core::experiment::ExperimentScale;
use berry_core::perturb::NetworkPerturber;
use berry_core::PolicyStore;
use berry_faults::chip::ChipProfile;
use berry_nn::gemm::Precision;
use berry_nn::network::{InferScratch, Sequential};
use berry_nn::tensor::{argmax_slice, Tensor};
use berry_rl::env::TerminalKind;
use berry_rl::eval::EvalStats;
use berry_rl::policy::QNetworkSpec;
use berry_rl::vecenv::{EpisodeRecord, VecEnv};
use berry_uav::env::{NavigationConfig, NavigationEnv};
use berry_uav::flight::{compute_power_w, FlightEnergyModel};
use berry_uav::physics::FlightPhysics;
use berry_uav::world::ObstacleDensity;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::time::Instant;

/// Sizes of one `sweep` run.
#[derive(Debug, Clone)]
pub struct SweepSize {
    /// Brief training of the pairs in set-up.
    pub train: TrainSize,
    /// Evaluation protocol per operating point (the tier is set per point).
    pub eval: FaultEvaluationConfig,
    /// Normalized voltages, near Vmin to nominal.
    pub voltages: Vec<f64>,
    /// Navigation environment of the rollouts.
    pub env: NavigationConfig,
}

impl SweepSize {
    /// The measured size: the Quick protocol at four voltages.
    pub fn full() -> Self {
        let mut train = TrainSize::full();
        train.trainer.episodes = 1;
        // The fixture trains in a fraction of a second, so more set-ups
        // cost little and steady `setup_s`.
        train.setups = 11;
        Self {
            train,
            eval: ExperimentScale::Quick.evaluation_config(),
            voltages: vec![0.68, 0.74, 0.80, 1.4286],
            env: ExperimentScale::Quick.navigation_config(ObstacleDensity::Medium),
        }
    }

    /// A seconds-long size for the self-test.
    pub fn tiny() -> Self {
        Self {
            train: TrainSize::tiny(),
            eval: FaultEvaluationConfig {
                fault_maps: 4,
                episodes_per_map: 2,
                max_steps: 24,
                ..FaultEvaluationConfig::default()
            },
            voltages: vec![0.70, 1.4286],
            env: ExperimentScale::Quick.navigation_config(ObstacleDensity::Medium),
        }
    }
}

/// One policy in its mission context.
struct Subject {
    spec: QNetworkSpec,
    label: &'static str,
    policy: Sequential,
    context: MissionContext,
}

/// One operating point of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    subject: usize,
    voltage: f64,
    precision: Precision,
}

/// Seed of the policies under evaluation.  They are the sweep's fixture,
/// trained in set-up: `--seed` drives the inputs evaluated against them
/// (fault maps and episodes), so a run's cost does not hinge on how long
/// one seed's briefly trained policies happen to survive.
pub const FIXTURE_SEED: u64 = 2023;

fn subjects(size: &SweepSize) -> Result<Vec<Subject>, String> {
    let store = PolicyStore::in_memory();
    let [c3f2, c5f4] = train::round_requests(&size.train, FIXTURE_SEED, 0);
    let c3f2_pair = store.get_or_train(&c3f2).map_err(|e| e.to_string())?;
    let c5f4_pair = store.get_or_train(&c5f4).map_err(|e| e.to_string())?;
    let tello = MissionContext {
        chip: ChipProfile::chip2_column_aligned(),
        ..MissionContext::tello_c5f4()
    };
    Ok(vec![
        Subject {
            spec: QNetworkSpec::C3F2,
            label: "c3f2-classical",
            policy: c3f2_pair.classical.clone(),
            context: MissionContext::crazyflie_c3f2(),
        },
        Subject {
            spec: QNetworkSpec::C3F2,
            label: "c3f2-berry",
            policy: c3f2_pair.berry.clone(),
            context: MissionContext::crazyflie_c3f2(),
        },
        Subject {
            spec: QNetworkSpec::C5F4,
            label: "c5f4-classical",
            policy: c5f4_pair.classical.clone(),
            context: tello.clone(),
        },
        Subject {
            spec: QNetworkSpec::C5F4,
            label: "c5f4-berry",
            policy: c5f4_pair.berry.clone(),
            context: tello,
        },
    ])
}

/// Every point of one pass, tiers adjacent so both see the same
/// conditions.
fn points(size: &SweepSize, subjects: usize) -> Vec<Point> {
    let mut out = Vec::new();
    for subject in 0..subjects {
        for &voltage in &size.voltages {
            for precision in [Precision::Reference, Precision::Fast] {
                out.push(Point {
                    subject,
                    voltage,
                    precision,
                });
            }
        }
    }
    out
}

fn point_seed(seed: u64, pass: u64, index: usize) -> u64 {
    berry_core::seed::splitmix64(
        berry_core::seed::splitmix64(seed ^ 0x5eed_5eed).wrapping_add(pass << 20 | index as u64),
    )
}

fn config(size: &SweepSize, precision: Precision) -> FaultEvaluationConfig {
    FaultEvaluationConfig {
        precision,
        ..size.eval
    }
}

/// Bitwise equality of two statistics blocks.
pub fn same_stats(a: &EvalStats, b: &EvalStats) -> bool {
    let f = |s: &EvalStats| {
        [
            s.success_rate,
            s.collision_rate,
            s.timeout_rate,
            s.mean_return,
            s.mean_steps,
            s.mean_distance,
            s.mean_success_distance,
        ]
        .map(f64::to_bits)
    };
    a.episodes == b.episodes && f(a) == f(b)
}

/// Runs `sweep` for about `seconds`.
pub fn run(size: &SweepSize, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    let mut subjects_built = None;
    for _ in 0..size.train.setups.max(1) {
        let (built, time) = calib::timed(rayon::current_num_threads(), || subjects(size));
        match built {
            Ok(s) => subjects_built = Some(s),
            Err(e) => {
                out.attempted += 1;
                out.gate(false, format!("sweep set-up: {e}"));
                return out;
            }
        }
        setup_times.push(time);
    }
    let subjects = subjects_built.expect("at least one set-up ran");
    let env = match NavigationEnv::new(size.env.clone()) {
        Ok(env) => env,
        Err(e) => {
            out.attempted += 1;
            out.gate(false, format!("sweep env: {e}"));
            return out;
        }
    };
    if traced {
        run_traced(size, seed, seconds, &subjects, &env, &mut out);
        return out;
    }

    let points = points(size, subjects.len());
    let start = Instant::now();
    // Wall and process CPU time of every point in every pass
    // (times[point][pass]), the CPU time calibrated by a kernel run on
    // every worker right before the point.
    let mut times: Vec<Vec<(f64, Sample)>> = vec![Vec::new(); points.len()];
    let workers = rayon::current_num_threads();
    let mut steps = 0.0f64;
    let mut first_pass: Vec<Option<MissionEvaluation>> = Vec::new();
    let mut pass = 0u64;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, p) in points.iter().enumerate() {
            let s = &subjects[p.subject];
            out.attempted += 1;
            let kernel_s = calib::kernel_parallel_s(workers);
            let (result, time) = calib::cpu_timed(|| {
                evaluate_mission_seeded(
                    &s.policy,
                    &env,
                    &s.context,
                    p.voltage,
                    &config(size, p.precision),
                    point_seed(seed, pass, i),
                )
            });
            times[i].push((time.wall_s, Sample::new(time.cpu_s, kernel_s)));
            match result {
                Ok(r) => {
                    steps += (r.navigation.mean_steps * r.navigation.episodes as f64).round();
                    if pass == 0 {
                        first_pass.push(Some(r));
                    }
                }
                Err(e) => {
                    out.gate(false, format!("{} at {} V: {e}", s.label, p.voltage));
                    if pass == 0 {
                        first_pass.push(None);
                    }
                }
            }
        }
        pass += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    out.peak_rss_mb = stats::peak_rss_mb();
    gate_serial(size, seed, &subjects, &env, &points, &first_pass, &mut out);
    out.report.push(Metric::new("timed_s", wall, "s"));
    out.report.push(Metric::new(
        "gates_s",
        start.elapsed().as_secs_f64() - wall,
        "s",
    ));

    // Maps per second of a typical pass: each point at its median time
    // over the passes, so a burst of load from elsewhere on the host that
    // slows a few passes does not move the rate.  Wall per tier, and both
    // tiers per calibrated CPU second (see `calib`) for the bounded figure.
    let maps_per_point = size.eval.fault_maps as f64;
    let rate = |tier: Option<Precision>| {
        let chosen: Vec<usize> = (0..points.len())
            .filter(|&i| tier.is_none_or(|t| points[i].precision == t))
            .collect();
        let seconds: f64 = chosen
            .iter()
            .filter_map(|&i| {
                if tier.is_none() {
                    let cpu: Vec<Sample> = times[i].iter().map(|t| t.1).collect();
                    calib::medians(&cpu).map(|m| m.calibrated_s)
                } else {
                    let wall: Vec<f64> = times[i].iter().map(|t| t.0).collect();
                    stats::median(&wall)
                }
            })
            .sum();
        if seconds > 0.0 {
            chosen.len() as f64 * maps_per_point / seconds
        } else {
            0.0
        }
    };
    let maps = (points.len() as u64 * pass) * size.eval.fault_maps as u64;
    let per_tier = maps as usize / 2;
    out.work_metric = "sweep_maps_per_cpu_s_calibrated";
    out.push_setup(&setup_times);
    out.report.push(Metric::sampled(
        "sweep_maps_per_s_reference",
        rate(Some(Precision::Reference)),
        "1/s",
        per_tier,
    ));
    out.report.push(Metric::sampled(
        "sweep_maps_per_s_fast",
        rate(Some(Precision::Fast)),
        "1/s",
        per_tier,
    ));
    out.report.push(Metric::sampled(
        "sweep_maps_per_cpu_s_calibrated",
        rate(None),
        "1/s",
        maps as usize,
    ));
    out.report.push(Metric::sampled(
        "sweep_maps_per_s_mean",
        maps as f64 / wall,
        "1/s",
        maps as usize,
    ));
    out.report
        .push(Metric::new("sweep_passes", pass as f64, "count"));
    out.report
        .push(Metric::new("sweep_env_steps_per_s", steps / wall, "1/s"));
    out.report.push(Metric::new(
        "sweep_steps_per_map",
        steps / maps.max(1) as f64,
        "count",
    ));
    out
}

/// Gate: one seed-chosen Reference point of the first pass gives
/// bit-identical statistics on the parallel path, on
/// `evaluate_under_faults_serial`, and inside the timed mission result.
fn gate_serial(
    size: &SweepSize,
    seed: u64,
    subjects: &[Subject],
    env: &NavigationEnv,
    points: &[Point],
    first_pass: &[Option<MissionEvaluation>],
    out: &mut Outcome,
) {
    let reference: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].precision == Precision::Reference)
        .collect();
    let i = reference[(seed % reference.len() as u64) as usize];
    let p = points[i];
    let s = &subjects[p.subject];
    let base = point_seed(seed, 0, i);
    let cfg = config(size, p.precision);
    let checked = s
        .context
        .chip
        .ber_at_voltage(p.voltage)
        .map_err(|e| e.to_string())
        .and_then(|ber| {
            let parallel =
                evaluate_under_faults_seeded(&s.policy, env, &s.context.chip, ber, &cfg, base)
                    .map_err(|e| e.to_string())?;
            let serial =
                evaluate_under_faults_serial(&s.policy, env, &s.context.chip, ber, &cfg, base)
                    .map_err(|e| e.to_string())?;
            Ok((parallel, serial))
        });
    match (checked, first_pass.get(i)) {
        (Ok((parallel, serial)), Some(Some(timed))) => out.gate(
            same_stats(&parallel, &serial) && same_stats(&parallel, &timed.navigation),
            format!(
                "{} at {} V: parallel and serial evaluation differ",
                s.label, p.voltage
            ),
        ),
        (Err(e), _) => out.gate(false, format!("serial gate: {e}")),
        (_, _) => out.gate(false, "serial gate: the sampled point has no timed result"),
    }
}

// ---------------------------------------------------------------------------
// Traced run: `evaluate_mission_seeded` re-driven through public functions.
// ---------------------------------------------------------------------------

/// Folds episode records in episode order exactly as the rollout engine
/// does, so the re-drive's statistics can be compared bit for bit.
fn fold(records: &[EpisodeRecord]) -> EvalStats {
    let episodes = records.len();
    if episodes == 0 {
        return EvalStats::empty();
    }
    let (mut successes, mut collisions, mut timeouts) = (0usize, 0usize, 0usize);
    let (mut total_return, mut total_distance, mut success_distance) = (0.0f64, 0.0f64, 0.0f64);
    let mut total_steps = 0usize;
    for r in records {
        total_return += r.ret;
        total_steps += r.steps;
        total_distance += r.distance;
        match r.terminal {
            Some(TerminalKind::Goal) => {
                successes += 1;
                success_distance += r.distance;
            }
            Some(TerminalKind::Collision) => collisions += 1,
            _ => timeouts += 1,
        }
    }
    let n = episodes as f64;
    EvalStats {
        episodes,
        success_rate: successes as f64 / n,
        collision_rate: collisions as f64 / n,
        timeout_rate: timeouts as f64 / n,
        mean_return: total_return / n,
        mean_steps: total_steps as f64 / n,
        mean_distance: total_distance / n,
        mean_success_distance: if successes > 0 {
            success_distance / successes as f64
        } else {
            0.0
        },
    }
}

/// The lockstep rollout (`evaluate_policy_batched`) re-driven through
/// `VecEnv` and `infer_into`.  `hist[b]` counts inferences at batch `b`.
#[allow(clippy::too_many_arguments)]
fn rollout(
    policy: &Sequential,
    env: &NavigationEnv,
    cfg: &FaultEvaluationConfig,
    map_seed: u64,
    scratch: &mut InferScratch,
    hist: &mut [u64],
) -> EvalStats {
    let infer_name = match cfg.precision {
        Precision::Reference => "nn.infer_reference",
        Precision::Fast => "nn.infer_fast",
    };
    let mut vec_env = VecEnv::new(
        env,
        cfg.episodes_per_map,
        cfg.max_steps,
        cfg.lanes,
        map_seed,
    );
    let mut records: Vec<Option<EpisodeRecord>> = vec![None; cfg.episodes_per_map];
    let mut actions = Vec::new();
    let mut finished = Vec::new();
    let mut batch = Tensor::default();
    while !vec_env.is_done() {
        {
            let _s = span("rl.stack");
            vec_env.stack_observations(&mut batch);
        }
        let rows = batch.shape()[0];
        if let Some(slot) = hist.get_mut(rows) {
            *slot += 1;
        }
        trace::count("nn.infer_rows", rows as f64);
        {
            let _s = span(infer_name);
            let q = policy.infer_into(&batch, scratch);
            let cols = q.shape()[1];
            actions.clear();
            for r in 0..rows {
                actions.push(argmax_slice(&q.data()[r * cols..(r + 1) * cols]).expect("actions"));
            }
        }
        {
            let _s = span("rl.vecenv_step");
            vec_env.step(&actions, &mut finished);
        }
        for record in finished.drain(..) {
            let slot = record.episode;
            records[slot] = Some(record);
        }
    }
    let records: Vec<EpisodeRecord> = records
        .into_iter()
        .map(|r| r.expect("every episode finished"))
        .collect();
    fold(&records)
}

/// Rayon scheduler totals over the traced points.
#[derive(Default)]
struct RayonTotals {
    busy_s: f64,
    capacity_s: f64,
    steals: f64,
    idle_tail_s: f64,
    runs: f64,
}

/// `evaluate_mission_seeded` for one point, re-driven with spans.
fn redrive_point(
    s: &Subject,
    env: &NavigationEnv,
    p: &Point,
    cfg: &FaultEvaluationConfig,
    base: u64,
    hist: &mut [u64],
    rayon_totals: &mut RayonTotals,
) -> Result<EvalStats, String> {
    let ber = s
        .context
        .chip
        .ber_at_voltage(p.voltage)
        .map_err(|e| e.to_string())?;
    let context = {
        let _s = span("core.context");
        NetworkPerturber::new(cfg.quant_bits)
            .and_then(|perturber| perturber.context(&s.policy))
            .map_err(|e| e.to_string())?
    };
    // The fan-out's own span holds the per-map spans of every worker; its
    // self time is the scheduler's spawn, claim and merge overhead.
    let fan_out = span("rayon.fan_out");
    let (parent, op) = trace::context();
    let t = Instant::now();
    let per_map: Vec<Result<(EvalStats, Vec<u64>), String>> = (0..cfg.fault_maps)
        .into_par_iter()
        .map(|i| {
            let _m = trace::span_in("sweep.map", parent, op);
            let map_seed = fault_map_seed(base, i as u64);
            let mut rng = StdRng::seed_from_u64(map_seed);
            let map = {
                let _s = span("faults.sample_map");
                context
                    .sample_fault_map(&s.context.chip, ber, &mut rng)
                    .map_err(|e| e.to_string())?
            };
            trace::count("faults.bits_flipped", map.len() as f64);
            let mut scratch = {
                let _s = span("core.inject");
                let mut scratch = context.checkout();
                context
                    .perturb_map_into(&map, &mut scratch)
                    .map_err(|e| e.to_string())?;
                scratch
            };
            let mut local = vec![0u64; cfg.lanes + 1];
            let stats = {
                let _s = span("rl.rollout");
                let (network, infer) = scratch.network_and_infer();
                infer.set_precision(cfg.precision);
                rollout(network, env, cfg, map_seed, infer, &mut local)
            };
            context.checkin(scratch);
            Ok((stats, local))
        })
        .collect();
    let par_wall = t.elapsed().as_secs_f64();
    drop(fan_out);
    if let Some(run) = rayon::last_run_stats() {
        let busy: f64 = run.per_worker_busy_s.iter().sum();
        let max = run.per_worker_busy_s.iter().copied().fold(0.0, f64::max);
        let min = run
            .per_worker_busy_s
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        rayon_totals.busy_s += busy;
        rayon_totals.capacity_s += par_wall * run.per_worker_busy_s.len().max(1) as f64;
        rayon_totals.steals += run.steals as f64;
        rayon_totals.idle_tail_s += if min.is_finite() { max - min } else { 0.0 };
        rayon_totals.runs += 1.0;
    }
    let mut merged = EvalStats::empty();
    for result in per_map {
        let (stats, local) = result?;
        for (h, l) in hist.iter_mut().zip(local) {
            *h += l;
        }
        merged = merged.merge(&stats);
    }
    let processing = {
        let _s = span("hw.accelerator");
        s.context
            .accelerator
            .evaluate(&s.context.workload, p.voltage)
            .map_err(|e| e.to_string())?
    };
    {
        let _s = span("uav.flight");
        let physics = FlightPhysics::new(s.context.platform.clone(), s.context.physics)
            .map_err(|e| e.to_string())?;
        let condition = physics
            .condition(processing.heatsink_mass_g)
            .map_err(|e| e.to_string())?;
        let compute_w = compute_power_w(
            &s.context.platform,
            s.context.policy_mac_ratio(),
            processing.savings_vs_nominal,
        )
        .map_err(|e| e.to_string())?;
        let mut distance = merged.mean_success_distance;
        if distance <= 0.0 {
            distance = merged.mean_distance.max(1.0);
        }
        FlightEnergyModel::new(s.context.platform.clone())
            .quality_of_flight(&condition, merged.success_rate, distance, compute_w)
            .map_err(|e| e.to_string())?;
    }
    Ok(merged)
}

fn run_traced(
    size: &SweepSize,
    seed: u64,
    seconds: f64,
    subjects: &[Subject],
    env: &NavigationEnv,
    out: &mut Outcome,
) {
    trace::enable();
    let points = points(size, subjects.len());
    let mut hist = vec![0u64; size.eval.lanes + 1];
    let mut rayon_totals = RayonTotals::default();
    let mut first_pass = Vec::new();
    let mut traced_s = 0.0;
    let start = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, p) in points.iter().enumerate() {
            out.attempted += 1;
            let base = point_seed(seed, pass, i);
            let t = Instant::now();
            let result = {
                let _root = trace::span_in("sweep.point", None, (pass << 20) | i as u64);
                redrive_point(
                    &subjects[p.subject],
                    env,
                    p,
                    &config(size, p.precision),
                    base,
                    &mut hist,
                    &mut rayon_totals,
                )
            };
            if pass == 0 {
                traced_s += t.elapsed().as_secs_f64();
            }
            match result {
                Ok(stats) => {
                    if pass == 0 {
                        first_pass.push(stats);
                    }
                }
                Err(e) => out.gate(false, format!("traced point {i}: {e}")),
            }
        }
        pass += 1;
    }

    // The real entry point on the first pass, untraced: the re-drive must
    // reproduce its statistics bit for bit (step counts and returns
    // included), and the time ratio is the tracing overhead.
    let mut untraced_s = 0.0;
    for (i, (p, stats)) in points.iter().zip(&first_pass).enumerate() {
        let s = &subjects[p.subject];
        let t = Instant::now();
        let real = evaluate_mission_seeded(
            &s.policy,
            env,
            &s.context,
            p.voltage,
            &config(size, p.precision),
            point_seed(seed, 0, i),
        );
        untraced_s += t.elapsed().as_secs_f64();
        match real {
            Ok(real) => out.gate(
                same_stats(stats, &real.navigation),
                format!(
                    "{} at {} V ({}): re-drive differs from evaluate_mission_seeded",
                    s.label,
                    p.voltage,
                    p.precision.name()
                ),
            ),
            Err(e) => out.gate(false, format!("untraced point {i}: {e}")),
        }
    }

    // Layer probe over the lane histogram the rollouts presented.
    let lanes = {
        let mut vec_env = VecEnv::new(
            env,
            size.eval.lanes,
            size.eval.max_steps,
            size.eval.lanes,
            seed,
        );
        let mut batch = Tensor::default();
        vec_env.stack_observations(&mut batch);
        batch
    };
    let mut probe_ok = true;
    for s in subjects.iter().step_by(2) {
        probe_ok &= probe::inference(&s.spec, &s.policy, &lanes, &hist, 64);
    }
    out.gate(probe_ok, "layer probe differs from Sequential::infer_into");

    let trace = trace::take();
    trace::disable();
    let (wall_ns, coverage) = crate::ledger::coverage(&trace, "sweep.point");
    out.per_layer = crate::ledger::per_layer(&trace);
    let totals = trace.totals();
    let infer_calls = ["nn.infer_reference", "nn.infer_fast"]
        .iter()
        .map(|n| totals.get(n).map_or(0, |t| t.calls))
        .sum::<u64>();
    let rows = trace.counters.get("nn.infer_rows").copied().unwrap_or(0.0);
    crate::ledger::set(
        &mut out.per_layer,
        "nn.rows_per_infer",
        rows / infer_calls.max(1) as f64,
    );
    if rayon_totals.runs > 0.0 {
        crate::ledger::set(
            &mut out.per_layer,
            "rayon.busy_ratio",
            rayon_totals.busy_s / rayon_totals.capacity_s.max(1e-12),
        );
        crate::ledger::set(&mut out.per_layer, "rayon.steals", rayon_totals.steals);
        crate::ledger::set(
            &mut out.per_layer,
            "rayon.idle_tail_ms",
            1e3 * rayon_totals.idle_tail_s / rayon_totals.runs,
        );
    }
    crate::ledger::set(&mut out.per_layer, "trace.coverage", coverage);
    out.report
        .push(Metric::new("trace.wall_s", wall_ns as f64 / 1e9, "s"));
    crate::ledger::set(
        &mut out.per_layer,
        "trace.overhead",
        if untraced_s > 0.0 {
            traced_s / untraced_s
        } else {
            0.0
        },
    );
    out.gate(
        coverage >= 0.9,
        format!("sweep ledger spans cover {coverage:.3} < 0.9 of traced wall"),
    );
}
