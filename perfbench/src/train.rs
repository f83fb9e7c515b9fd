//! `train`: cold Classical+BERRY pair training into a fresh on-disk store.
//!
//! Each round trains two cold pairs, one at a time on one thread: C3F2
//! offline on the generic chip and C5F4 on-device on
//! `chip2_column_aligned`, both on the Quick navigation env with the Quick
//! trainer shapes and a cut episode budget.  Every pair is trained twice:
//! re-driven through the public functions `train_pair` calls, with the
//! stretch of training loop up to each optimizer update timed, and through
//! `PolicyStore::get_or_train` into the round's fresh on-disk store, which
//! must return the same weights bit for bit.  Training is the dominant cold-campaign cost, so this workload is
//! the one that moves when the training path gets faster.

use crate::calib::{self, Sample};
use crate::probe;
use crate::report::{Metric, Outcome};
use crate::stats;
use crate::trace::{self, span};
use berry_core::experiment::ExperimentScale;
use berry_core::perturb::{NetworkPerturber, PerturbContext, PerturbScratch};
use berry_core::robust::{
    berry_update_step_with_scratch, BerryConfig, DualPassScratch, LearningMode,
};
use berry_core::{PairRequest, PolicyStore, TrainedPair};
use berry_faults::chip::ChipProfile;
use berry_faults::fault_map::FaultMap;
use berry_nn::loss::masked_mse_loss;
use berry_nn::network::{InferScratch, Sequential};
use berry_nn::tensor::Tensor;
use berry_rl::dqn::DqnAgent;
use berry_rl::env::{Environment, Transition};
use berry_rl::policy::QNetworkSpec;
use berry_rl::replay::ReplayBuffer;
use berry_rl::trainer::TrainerConfig;
use berry_uav::env::{NavigationConfig, NavigationEnv};
use berry_uav::world::ObstacleDensity;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// On-device learning voltage of the C5F4 pair (the medium-density deploy
/// voltage of the scenario grid).
pub const ONDEVICE_VOLTAGE: f64 = 0.77;

/// Episodes per policy.  Learning starts as soon as one batch is
/// buffered, so nearly all of a pair's time is optimizer updates.
pub const EPISODES: usize = 3;

/// Updates of each kind a run gathers before it stops, even past
/// `--seconds` (up to [`MAX_SECONDS_FACTOR`] times it): a seed's short
/// episodes can leave a kind with no update at all in a round, and a
/// median needs samples.
pub const MIN_UPDATES_PER_KIND: usize = 20;

/// How far past `--seconds` a run may go to gather
/// [`MIN_UPDATES_PER_KIND`]; it keeps 22 runs of every workload within
/// the benchmark's time budget.
const MAX_SECONDS_FACTOR: f64 = 2.0;

/// Training budgets of one `train` run.
#[derive(Debug, Clone)]
pub struct TrainSize {
    /// Trainer of every pair, the set-up's warm-up pair included.
    pub trainer: TrainerConfig,
    /// Navigation environment both policies train on.
    pub env: NavigationConfig,
    /// Set-up repetitions (`setup_s` is their median).
    pub setups: usize,
}

impl TrainSize {
    /// The measured size: Quick env and Quick trainer shapes (batch 32,
    /// Quick ε schedule and target sync) with the episode budget cut so a
    /// round of two pairs takes a few seconds.
    pub fn full() -> Self {
        let quick = ExperimentScale::Quick.trainer_config();
        Self {
            trainer: TrainerConfig {
                episodes: EPISODES,
                learning_starts: quick.dqn.batch_size,
                ..quick
            },
            env: ExperimentScale::Quick.navigation_config(ObstacleDensity::Medium),
            setups: 5,
        }
    }

    /// A seconds-long size for the self-test.
    pub fn tiny() -> Self {
        let mut trainer = ExperimentScale::Quick.trainer_config();
        trainer.episodes = 1;
        trainer.max_steps_per_episode = 8;
        trainer.learning_starts = 4;
        trainer.dqn.batch_size = 4;
        Self {
            trainer,
            env: ExperimentScale::Quick.navigation_config(ObstacleDensity::Medium),
            setups: 1,
        }
    }
}

/// The two cold pairs of round `round`: C3F2 offline on the generic chip,
/// then C5F4 on-device on `chip2_column_aligned`.
pub fn round_requests(size: &TrainSize, seed: u64, round: u64) -> [PairRequest; 2] {
    let base = berry_core::seed::splitmix64(berry_core::seed::splitmix64(seed).wrapping_add(round));
    [
        PairRequest::new(
            QNetworkSpec::C3F2,
            size.env.clone(),
            size.trainer.clone(),
            LearningMode::offline(ExperimentScale::Quick.train_ber()),
            ChipProfile::generic(),
            8,
            base,
        ),
        PairRequest::new(
            QNetworkSpec::C5F4,
            size.env.clone(),
            size.trainer.clone(),
            LearningMode::on_device(ONDEVICE_VOLTAGE),
            ChipProfile::chip2_column_aligned(),
            8,
            base,
        ),
    ]
}

/// The set-up's warm-up pair.  Its seed is fixed: it is set-up work, not a
/// workload input, and its cost must not vary with `--seed`.  Two
/// episodes per policy run optimizer updates and touch every lazy path
/// (store, persist, both networks) while keeping a set-up short.
fn warmup_request(size: &TrainSize) -> PairRequest {
    let mut trainer = size.trainer.clone();
    trainer.episodes = 2;
    let [c3f2, _] = round_requests(
        &TrainSize {
            trainer,
            ..size.clone()
        },
        WARMUP_SEED,
        0,
    );
    c3f2
}

const WARMUP_SEED: u64 = 2023;

fn bits(weights: &[f32]) -> Vec<u32> {
    weights.iter().map(|w| w.to_bits()).collect()
}

/// Whether two networks hold bit-identical weights.
pub fn same_bits(a: &Sequential, b: &Sequential) -> bool {
    bits(&a.to_flat_weights()) == bits(&b.to_flat_weights())
}

fn finite(net: &Sequential) -> bool {
    net.to_flat_weights().iter().all(|w| w.is_finite())
}

fn berry_config(request: &PairRequest) -> BerryConfig {
    BerryConfig {
        trainer: request.trainer.clone(),
        mode: request.mode,
        chip: request.chip.clone(),
        quant_bits: request.quant_bits,
    }
}

/// Set-up: a warm-up pair through a throwaway on-disk store, so lazy
/// initialisation and allocator warm-up are not timed as training.
fn setup(size: &TrainSize, dir: &Path) -> Result<(), String> {
    let clear = || match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot clear {}: {e}", dir.display()))
        }
        _ => Ok(()),
    };
    clear()?;
    let store = PolicyStore::with_dir(dir.join("warm-up")).map_err(|e| e.to_string())?;
    let pair = store
        .get_or_train(&warmup_request(size))
        .map_err(|e| format!("warm-up pair failed: {e}"))?;
    if !finite(&pair.classical) || !finite(&pair.berry) {
        return Err("warm-up pair has non-finite weights".to_string());
    }
    clear()
}

/// The fresh on-disk store of one round.  A store keeps every pair it
/// served in memory, so one store per round keeps the run's footprint from
/// growing with the number of rounds a faster build fits in.
fn round_store(dir: &Path, round: u64) -> Result<PolicyStore, String> {
    PolicyStore::with_dir(dir.join(format!("round-{round}"))).map_err(|e| e.to_string())
}

/// Runs `train` for about `seconds`, untraced (end-to-end metrics) or
/// traced (per-layer ledger).
///
/// Each pair is trained twice, both times cold: re-driven through public
/// functions with the loop up to every optimizer update timed — untraced,
/// each update runs through `DqnAgent::train_on_batch` or
/// `berry_update_step_with_scratch`, as in `train_pair`; traced, through
/// the hand-split [`td_pass`] with spans — then through
/// `PolicyStore::get_or_train` into the round's fresh on-disk store, which
/// must return bit-identical weights.  The bounded rate comes from the
/// per-update medians on the calibrated host (see `calib`): a seed's
/// episode lengths change how many updates of each kind a pair runs, not
/// what one costs, and the calibration takes out the host's slow spells,
/// which last as long as a pair and would otherwise catch all of a kind's
/// updates in a run.  The pair times of `get_or_train` give `train_pair_s`.
pub fn run(size: &TrainSize, seed: u64, seconds: f64, dir: &Path, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_times = Vec::new();
    for _ in 0..size.setups.max(1) {
        let (done, time) = calib::timed(1, || setup(size, dir));
        if let Err(e) = done {
            out.attempted += 1;
            out.gate(false, format!("train set-up: {e}"));
            return out;
        }
        setup_times.push(time);
    }
    if traced {
        trace::enable();
    }
    let start = Instant::now();
    // Update seconds per [arch][classical = 0, BERRY = 1], pair seconds per
    // arch, and the re-drive / get_or_train wall totals.
    let mut update_s: [[Vec<Sample>; 2]; 2] = Default::default();
    let mut pair_s: [Vec<f64>; 2] = Default::default();
    let mut round_s = Vec::new();
    let (mut redrive_total, mut store_total) = (0.0, 0.0);
    let (mut trained, mut hits, mut joins) = (0u64, 0u64, 0u64);
    let mut first: Option<(PairRequest, Arc<TrainedPair>)> = None;
    let mut probe_inputs: Vec<(QNetworkSpec, Sequential, Tensor)> = Vec::new();
    let mut round = 0u64;
    let enough =
        |u: &[[Vec<Sample>; 2]; 2]| u.iter().flatten().all(|v| v.len() >= MIN_UPDATES_PER_KIND);
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if round > 0
            && (elapsed >= MAX_SECONDS_FACTOR * seconds
                || (elapsed >= seconds && enough(&update_s)))
        {
            break;
        }
        let store = match round_store(dir, round) {
            Ok(store) => store,
            Err(e) => {
                out.attempted += 1;
                out.gate(false, format!("round {round} store: {e}"));
                break;
            }
        };
        let mut this_round = 0.0;
        for (arch, request) in round_requests(size, seed, round).into_iter().enumerate() {
            out.attempted += 1;
            let op = request.fingerprint_hash();
            let t = Instant::now();
            let redriven = {
                let _root = trace::span_in("train.pair", None, op);
                redrive_pair(&request)
            };
            redrive_total += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let stored = store.get_or_train(&request);
            let stored_s = t.elapsed().as_secs_f64();
            store_total += stored_s;
            this_round += stored_s;
            let (r, pair) = match (redriven, stored) {
                (Ok(r), Ok(pair)) => (r, pair),
                (Err(e), _) => {
                    out.gate(false, format!("pair {op:016x}: re-drive: {e}"));
                    continue;
                }
                (_, Err(e)) => {
                    out.gate(false, format!("pair {op:016x}: get_or_train: {e}"));
                    continue;
                }
            };
            out.gate(
                r.losses.iter().all(|l| l.is_finite()),
                format!("pair {op:016x}: non-finite loss"),
            );
            out.gate(
                finite(&pair.classical) && finite(&pair.berry),
                format!("pair {op:016x}: non-finite weights"),
            );
            out.gate(
                r.berry_update_s.len() as u64 == pair.robust_updates
                    && same_bits(&r.classical, &pair.classical)
                    && same_bits(&r.berry, &pair.berry),
                format!("pair {op:016x}: re-drive differs from get_or_train"),
            );
            update_s[arch][0].extend(&r.classical_update_s);
            update_s[arch][1].extend(&r.berry_update_s);
            pair_s[arch].push(stored_s);
            if traced {
                if let Some(states) = r.last_states {
                    if !probe_inputs
                        .iter()
                        .any(|(spec, _, _)| *spec == request.spec)
                    {
                        probe_inputs.push((request.spec.clone(), pair.classical.clone(), states));
                    }
                }
            }
            if first.is_none() {
                first = Some((request, pair));
            }
        }
        let stats = store.stats();
        trained += stats.trained;
        hits += stats.memory_hits + stats.disk_hits;
        joins += stats.inflight_joins;
        round_s.push(this_round);
        round += 1;
    }
    out.peak_rss_mb = stats::peak_rss_mb();
    let load_s = first.as_ref().map_or(0.0, |(request, pair)| {
        gate_reload(dir, request, pair, &mut out)
    });

    if traced {
        // Layer probe at the batch size training presented.
        let mut probe_ok = true;
        for (spec, net, states) in &probe_inputs {
            probe_ok &= probe::training(spec, net, states, 3);
        }
        out.gate(
            probe_ok,
            "layer probe chain differs from Sequential::infer_into",
        );
        let trace = trace::take();
        trace::disable();
        let (wall_ns, coverage) = crate::ledger::coverage(&trace, "train.pair");
        out.per_layer = crate::ledger::per_layer(&trace);
        let ledger = &mut out.per_layer;
        crate::ledger::set(ledger, "core.store_load_ms", load_s * 1e3);
        crate::ledger::set(
            ledger,
            "core.store_hit_ratio",
            hits as f64 / (trained + hits).max(1) as f64,
        );
        crate::ledger::set(ledger, "core.store_trained", trained as f64);
        crate::ledger::set(ledger, "core.store_inflight_joins", joins as f64);
        crate::ledger::set(ledger, "trace.coverage", coverage);
        let overhead = if store_total > 0.0 {
            redrive_total / store_total
        } else {
            0.0
        };
        crate::ledger::set(ledger, "trace.overhead", overhead);
        out.report
            .push(Metric::new("trace.wall_s", wall_ns as f64 / 1e9, "s"));
        out.gate(
            coverage >= 0.9,
            format!("train ledger spans cover {coverage:.3} < 0.9 of traced wall"),
        );
        return out;
    }

    // Optimizer updates per second over an equal mix of the four update
    // kinds — C3F2 and C5F4, classical and BERRY — each at its median
    // interval (the loop's env steps and replay work included), on the
    // calibrated host (see `calib`).
    let medians: Vec<Option<Sample>> = update_s
        .iter()
        .flatten()
        .map(|v| calib::medians(v))
        .collect();
    let update_mix = match medians[..] {
        [Some(a), Some(b), Some(c), Some(d)] => {
            4.0 / (a.calibrated_s + b.calibrated_s + c.calibrated_s + d.calibrated_s)
        }
        _ => {
            out.gate(false, "an update kind ran no update in the run");
            0.0
        }
    };
    let updates: usize = update_s.iter().flatten().map(Vec::len).sum();
    out.work_metric = "train_updates_per_s_calibrated";
    out.report.push(Metric::sampled(
        "train_updates_per_s_calibrated",
        update_mix,
        "1/s",
        updates,
    ));
    out.push_setup(&setup_times);
    let half_rounds: Vec<f64> = round_s.iter().map(|r| r / 2.0).collect();
    let median_or_nan = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    out.report.push(Metric::sampled(
        "train_pair_s",
        median_or_nan(&half_rounds),
        "s",
        round_s.len(),
    ));
    out.report.push(Metric::sampled(
        "train_pair_s_c3f2",
        median_or_nan(&pair_s[0]),
        "s",
        pair_s[0].len(),
    ));
    out.report.push(Metric::sampled(
        "train_pair_s_c5f4",
        median_or_nan(&pair_s[1]),
        "s",
        pair_s[1].len(),
    ));
    out.report.push(Metric::sampled(
        "train_updates_per_s",
        updates as f64 / store_total.max(f64::MIN_POSITIVE),
        "1/s",
        updates,
    ));
    for (i, name) in [
        "train_update_interval_ms_c3f2_classical",
        "train_update_interval_ms_c3f2_berry",
        "train_update_interval_ms_c5f4_classical",
        "train_update_interval_ms_c5f4_berry",
    ]
    .into_iter()
    .enumerate()
    {
        let v = &update_s[i / 2][i % 2];
        let wall = calib::medians(v).map_or(f64::NAN, |m| m.raw_s);
        out.report
            .push(Metric::sampled(name, 1e3 * wall, "ms", v.len()));
    }
    out.report
        .push(Metric::new("timed_s", start.elapsed().as_secs_f64(), "s"));
    out
}

/// Gate: a fresh store over the first round's directory loads the first
/// pair from disk, bit-identical to the trained pair.  Returns the load
/// time.
fn gate_reload(dir: &Path, request: &PairRequest, pair: &TrainedPair, out: &mut Outcome) -> f64 {
    let reopened = match round_store(dir, 0) {
        Ok(store) => store,
        Err(e) => {
            out.gate(false, format!("reopen store: {e}"));
            return 0.0;
        }
    };
    let t = Instant::now();
    let loaded = reopened.get_or_train(request);
    let load_s = t.elapsed().as_secs_f64();
    match loaded {
        Ok(loaded) => out.gate(
            reopened.stats().disk_hits == 1
                && reopened.stats().trained == 0
                && same_bits(&loaded.classical, &pair.classical)
                && same_bits(&loaded.berry, &pair.berry),
            "reload from the on-disk store is not a bit-identical disk hit",
        ),
        Err(e) => out.gate(false, format!("reload: {e}")),
    }
    load_s
}

// ---------------------------------------------------------------------------
// `train_pair` re-driven through public functions.
// ---------------------------------------------------------------------------

/// A re-driven pair: final networks, every loss and the wall time of
/// every optimizer update.
pub struct Redriven {
    /// Classical policy.
    pub classical: Sequential,
    /// BERRY policy.
    pub berry: Sequential,
    /// Classical TD losses, then BERRY dual-pass losses.
    pub losses: Vec<f32>,
    /// Time from the end of the previous classical update to the end of
    /// each one (env steps, action choices, replay work and the update).
    pub classical_update_s: Vec<Sample>,
    /// The same for each BERRY dual-pass update (its fault map included).
    pub berry_update_s: Vec<Sample>,
    /// The last training batch, stacked (the layer probe's input).
    pub last_states: Option<Tensor>,
}

fn stack(batch: &[Transition], shape: &[usize], next: bool) -> Tensor {
    let per_obs: usize = shape.iter().product();
    let mut dims = Vec::with_capacity(shape.len() + 1);
    dims.push(batch.len());
    dims.extend_from_slice(shape);
    let mut out = Tensor::zeros(&dims);
    for (i, t) in batch.iter().enumerate() {
        let obs = if next { &t.next_state } else { &t.state };
        out.data_mut()[i * per_obs..(i + 1) * per_obs].copy_from_slice(obs.data());
    }
    out
}

/// `accumulate_td_gradients`, split at the layer boundaries it crosses.
fn td_pass(
    q_net: &mut Sequential,
    target_net: &mut Sequential,
    batch: &[Transition],
    shape: &[usize],
    num_actions: usize,
    gamma: f32,
    last_states: &mut Option<Tensor>,
) -> f32 {
    let (states, next_states) = {
        let _s = span("rl.stack");
        (stack(batch, shape, false), stack(batch, shape, true))
    };
    let next_q = {
        let _s = span("nn.train_forward");
        target_net.forward(&next_states)
    };
    let pred = {
        let _s = span("nn.train_forward");
        q_net.forward(&states)
    };
    let (loss, grad) = {
        let _s = span("nn.loss");
        let mut target = pred.clone();
        let mut mask = Tensor::zeros(pred.shape());
        for (j, t) in batch.iter().enumerate() {
            let mut max_next = f32::NEG_INFINITY;
            for a in 0..num_actions {
                max_next = max_next.max(next_q.at2(j, a));
            }
            let bootstrap = if t.done { 0.0 } else { gamma * max_next };
            *target.at2_mut(j, t.action) = t.reward + bootstrap;
            *mask.at2_mut(j, t.action) = 1.0;
        }
        masked_mse_loss(&pred, &target, &mask)
    };
    {
        let _s = span("nn.train_backward");
        q_net.backward(&grad);
    }
    *last_states = Some(states);
    loss
}

/// Where a BERRY update's fault map comes from.
enum MapSource<'a> {
    Classical,
    Offline { chip: &'a ChipProfile, ber: f64 },
    OnDevice(&'a FaultMap),
}

type Slot = Option<(PerturbContext, PerturbScratch)>;

fn perturb_slot(slot: &mut Slot, net: &Sequential, bits: u8, map: &FaultMap) -> Result<(), String> {
    if let Some((context, scratch)) = slot {
        context.refresh(net).map_err(|e| e.to_string())?;
        context
            .perturb_map_into(map, scratch)
            .map_err(|e| e.to_string())?;
    } else {
        let context = PerturbContext::new(net, bits).map_err(|e| e.to_string())?;
        let mut scratch = context.checkout();
        context
            .perturb_map_into(map, &mut scratch)
            .map_err(|e| e.to_string())?;
        *slot = Some((context, scratch));
    }
    Ok(())
}

/// What the re-driven loops record besides the weights.
#[derive(Default)]
struct Log {
    losses: Vec<f32>,
    last_states: Option<Tensor>,
    /// Time from the end of the previous optimizer update (or the loop's
    /// start) to the end of each update: the env steps, action choices and
    /// replay work between updates, the fault map and the update itself.
    /// Untraced, each is rescaled by a calibration timed right before the
    /// update; traced, the calibration is skipped and both times are wall.
    update_s: Vec<Sample>,
}

/// The per-update scratch of one loop: the program's dual-pass scratch for
/// untraced updates, the hand-split perturbation slots for traced ones.
#[derive(Default)]
struct UpdateScratch {
    dual: DualPassScratch,
    q: Slot,
    target: Slot,
}

/// One optimizer update through the functions `train_pair` runs:
/// `DqnAgent::train_on_batch` (classical) or
/// `berry_update_step_with_scratch` (BERRY).  Returns the loss the
/// program's loop records.
fn program_update(
    agent: &mut DqnAgent,
    batch: &[Transition],
    map: Option<&FaultMap>,
    perturber: &NetworkPerturber,
    scratch: &mut UpdateScratch,
) -> Result<f32, String> {
    match map {
        None => agent.train_on_batch(batch).map_err(|e| e.to_string()),
        Some(map) => {
            let (clean, perturbed) =
                berry_update_step_with_scratch(agent, batch, perturber, map, &mut scratch.dual)
                    .map_err(|e| e.to_string())?;
            Ok(0.5 * (clean + perturbed))
        }
    }
}

/// The same update split at the layer boundaries it crosses, for the
/// traced run: `accumulate_td_gradients` as [`td_pass`], the dual-pass
/// perturbation, gradient merge and optimizer step each in their own span.
fn traced_update(
    agent: &mut DqnAgent,
    batch: &[Transition],
    map: Option<&FaultMap>,
    bits: u8,
    scratch: &mut UpdateScratch,
    last_states: &mut Option<Tensor>,
) -> Result<f32, String> {
    let _update = span("train.update");
    let shape = agent.observation_shape().to_vec();
    let num_actions = agent.num_actions();
    let gamma = agent.config().gamma;
    let loss = match map {
        None => {
            agent.q_net_mut().zero_grad();
            let (q, target) = agent.nets_mut();
            td_pass(q, target, batch, &shape, num_actions, gamma, last_states)
        }
        Some(map) => {
            trace::count("faults.bits_flipped", map.len() as f64);
            {
                let _s = span("core.perturb_refresh");
                perturb_slot(&mut scratch.q, agent.q_net(), bits, map)?;
                perturb_slot(&mut scratch.target, agent.target_net(), bits, map)?;
            }
            agent.q_net_mut().zero_grad();
            let clean = {
                let (q, target) = agent.nets_mut();
                td_pass(q, target, batch, &shape, num_actions, gamma, last_states)
            };
            let (Some((_, q_scratch)), Some((_, target_scratch))) =
                (scratch.q.as_mut(), scratch.target.as_mut())
            else {
                return Err("perturbation slots not prepared".to_string());
            };
            let q_perturbed = q_scratch.network_mut();
            q_perturbed.zero_grad();
            let perturbed = td_pass(
                q_perturbed,
                target_scratch.network_mut(),
                batch,
                &shape,
                num_actions,
                gamma,
                last_states,
            );
            {
                let _s = span("core.grad_merge");
                agent
                    .q_net_mut()
                    .add_gradients_from(q_scratch.network(), 1.0)
                    .map_err(|e| e.to_string())?;
            }
            0.5 * (clean + perturbed)
        }
    };
    let _s = span("nn.optim");
    agent.apply_accumulated_gradients();
    Ok(loss)
}

/// One training loop (the classical `continue_training` or BERRY's
/// `run_berry_loop`) over public pieces.  Untraced, each update runs
/// through the program's own update functions; traced, through
/// [`traced_update`].
fn redrive_loop(
    env: &mut NavigationEnv,
    agent: &mut DqnAgent,
    config: &TrainerConfig,
    source: &MapSource<'_>,
    perturber: &NetworkPerturber,
    rng: &mut StdRng,
    log: &mut Log,
) -> Result<(), String> {
    let traced = trace::enabled();
    let mut buffer = ReplayBuffer::new(config.buffer_capacity).map_err(|e| e.to_string())?;
    let mut infer = InferScratch::new();
    let mut scratch = UpdateScratch::default();
    let mut env_steps = 0u64;
    let mut since_update = Instant::now();
    for _ in 0..config.episodes {
        let mut obs = {
            let _s = span("uav.env_reset");
            env.reset(rng)
        };
        for _ in 0..config.max_steps_per_episode {
            let epsilon = config.epsilon.value(env_steps);
            let action = {
                let _s = span("rl.act");
                agent.act_epsilon_with_scratch(&obs, epsilon, rng, &mut infer)
            };
            let outcome = {
                let _s = span("uav.env_step");
                env.step(action, rng)
            };
            {
                let _s = span("rl.replay");
                buffer.push(Transition {
                    state: obs.clone(),
                    action,
                    reward: outcome.reward,
                    next_state: outcome.observation.clone(),
                    done: outcome.is_terminal(),
                });
            }
            obs = outcome.observation;
            env_steps += 1;
            if buffer.len() >= config.learning_starts.max(config.dqn.batch_size)
                && env_steps.is_multiple_of(config.train_every as u64)
            {
                let batch = {
                    let _s = span("rl.replay");
                    buffer
                        .sample(config.dqn.batch_size, rng)
                        .map_err(|e| e.to_string())?
                };
                let sampled;
                let map = match source {
                    MapSource::Classical => None,
                    MapSource::Offline { chip, ber } => {
                        let _s = span("faults.train_map");
                        sampled = perturber
                            .sample_fault_map(agent.q_net(), chip, *ber, rng)
                            .map_err(|e| e.to_string())?;
                        Some(sampled)
                    }
                    MapSource::OnDevice(map) => {
                        let _s = span("faults.train_map");
                        Some((*map).clone())
                    }
                };
                let kernel_start = Instant::now();
                let kernel_s = if traced { 0.0 } else { calib::kernel_s() };
                let kernel_wall_s = kernel_start.elapsed().as_secs_f64();
                let loss = if traced {
                    let bits = perturber.bits();
                    let last = &mut log.last_states;
                    traced_update(agent, &batch, map.as_ref(), bits, &mut scratch, last)?
                } else {
                    program_update(agent, &batch, map.as_ref(), perturber, &mut scratch)?
                };
                let wall_s = since_update.elapsed().as_secs_f64() - kernel_wall_s;
                log.update_s.push(Sample::new(wall_s, kernel_s));
                since_update = Instant::now();
                log.losses.push(loss);
            }
            if outcome.terminal.is_some() {
                break;
            }
        }
    }
    Ok(())
}

/// Re-drives `train_pair` for `request` through public functions.
///
/// # Errors
///
/// Returns a description of the first failing call.
pub fn redrive_pair(request: &PairRequest) -> Result<Redriven, String> {
    let mut rng = StdRng::seed_from_u64(request.seed);
    let mut log = Log::default();
    let perturber = NetworkPerturber::new(request.quant_bits).map_err(|e| e.to_string())?;
    let mut env = NavigationEnv::new(request.env.clone()).map_err(|e| e.to_string())?;
    request.trainer.validate().map_err(|e| e.to_string())?;
    let mut classical = DqnAgent::new(
        &request.spec,
        &env.observation_shape(),
        env.num_actions(),
        request.trainer.dqn,
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    redrive_loop(
        &mut env,
        &mut classical,
        &request.trainer,
        &MapSource::Classical,
        &perturber,
        &mut rng,
        &mut log,
    )?;

    let classical_updates = log.update_s.len();
    let config = berry_config(request);
    config.validate().map_err(|e| e.to_string())?;
    let mut env = NavigationEnv::new(request.env.clone()).map_err(|e| e.to_string())?;
    let mut berry = DqnAgent::new(
        &request.spec,
        &env.observation_shape(),
        env.num_actions(),
        request.trainer.dqn,
        &mut rng,
    )
    .map_err(|e| e.to_string())?;
    let persistent;
    let source = match request.mode {
        LearningMode::Offline { train_ber } => MapSource::Offline {
            chip: &request.chip,
            ber: train_ber,
        },
        LearningMode::OnDevice { voltage_norm } => {
            let _s = span("faults.train_map");
            persistent = request
                .chip
                .fault_map_at_voltage(&mut rng, perturber.memory_bits(berry.q_net()), voltage_norm)
                .map_err(|e| e.to_string())?;
            MapSource::OnDevice(&persistent)
        }
    };
    redrive_loop(
        &mut env,
        &mut berry,
        &request.trainer,
        &source,
        &perturber,
        &mut rng,
        &mut log,
    )?;
    let berry_update_s = log.update_s.split_off(classical_updates);
    Ok(Redriven {
        classical: classical.q_net().clone(),
        berry: berry.q_net().clone(),
        losses: log.losses,
        classical_update_s: log.update_s,
        berry_update_s,
        last_states: log.last_states,
    })
}
