//! Serial-vs-parallel determinism of the fault-map evaluation sweep.
//!
//! The evaluation protocol seeds every fault map's RNG from
//! `fault_map_seed(base_seed, map_index)` and merges per-map statistics in
//! map order, so the aggregate must be **bitwise identical** no matter how
//! the maps are scheduled: the serial reference path, the parallel path
//! with one worker, and the parallel path with many workers all have to
//! agree exactly.

use berry_core::evaluate::{
    evaluate_under_faults, evaluate_under_faults_seeded, evaluate_under_faults_serial,
    fault_map_seed, FaultEvaluationConfig,
};
use berry_faults::chip::ChipProfile;
use berry_nn::gemm::Precision;
use berry_rl::eval::EvalStats;
use berry_rl::Environment;
use berry_uav::env::{NavigationConfig, NavigationEnv};
use berry_uav::world::ObstacleDensity;
use rand::SeedableRng;

const BASE_SEED: u64 = 0xBE55_11E5;

fn fixture() -> (berry_nn::network::Sequential, NavigationEnv, ChipProfile) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let env = NavigationEnv::new(NavigationConfig::with_density(ObstacleDensity::Sparse)).unwrap();
    let policy = berry_rl::policy::QNetworkSpec::mlp(vec![32])
        .build(&env.observation_shape(), env.num_actions(), &mut rng)
        .unwrap();
    (policy, env, ChipProfile::generic())
}

fn eval_config() -> FaultEvaluationConfig {
    FaultEvaluationConfig {
        fault_maps: 12,
        episodes_per_map: 2,
        max_steps: 25,
        quant_bits: 8,
        lanes: 2,
        precision: Precision::Reference,
    }
}

fn assert_bitwise_identical(a: &EvalStats, b: &EvalStats, label: &str) {
    assert_eq!(a.episodes, b.episodes, "{label}: episodes");
    for (name, x, y) in [
        ("success_rate", a.success_rate, b.success_rate),
        ("collision_rate", a.collision_rate, b.collision_rate),
        ("timeout_rate", a.timeout_rate, b.timeout_rate),
        ("mean_return", a.mean_return, b.mean_return),
        ("mean_steps", a.mean_steps, b.mean_steps),
        ("mean_distance", a.mean_distance, b.mean_distance),
        (
            "mean_success_distance",
            a.mean_success_distance,
            b.mean_success_distance,
        ),
    ] {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: {name} differs ({x} vs {y})"
        );
    }
}

#[test]
fn serial_and_parallel_paths_are_bitwise_identical() {
    let (policy, env, chip) = fixture();
    let cfg = eval_config();
    let serial =
        evaluate_under_faults_serial(&policy, &env, &chip, 0.005, &cfg, BASE_SEED).unwrap();
    let parallel =
        evaluate_under_faults_seeded(&policy, &env, &chip, 0.005, &cfg, BASE_SEED).unwrap();
    assert_bitwise_identical(&serial, &parallel, "serial vs parallel");
    // The statistics are non-trivial: 12 maps × 2 episodes were evaluated.
    assert_eq!(serial.episodes, 24);
}

#[test]
fn one_worker_and_many_workers_are_bitwise_identical() {
    let (policy, env, chip) = fixture();
    let cfg = eval_config();
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| evaluate_under_faults_seeded(&policy, &env, &chip, 0.01, &cfg, BASE_SEED))
        .unwrap();
    let many = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .unwrap()
        .install(|| evaluate_under_faults_seeded(&policy, &env, &chip, 0.01, &cfg, BASE_SEED))
        .unwrap();
    assert_bitwise_identical(&one, &many, "1 thread vs 8 threads");
}

#[test]
fn rng_driven_entry_point_is_reproducible() {
    let (policy, env, chip) = fixture();
    let cfg = eval_config();
    let mut rng_a = rand::rngs::StdRng::seed_from_u64(99);
    let mut rng_b = rand::rngs::StdRng::seed_from_u64(99);
    let env_a = env.clone();
    let env_b = env.clone();
    let a = evaluate_under_faults(&policy, &env_a, &chip, 0.02, &cfg, &mut rng_a).unwrap();
    let b = evaluate_under_faults(&policy, &env_b, &chip, 0.02, &cfg, &mut rng_b).unwrap();
    assert_bitwise_identical(&a, &b, "same seed, two runs");
}

#[test]
fn fault_map_seeds_are_distinct_across_indices() {
    let seeds: std::collections::HashSet<u64> =
        (0..1000).map(|i| fault_map_seed(BASE_SEED, i)).collect();
    assert_eq!(seeds.len(), 1000, "per-map seeds must not collide");
}

/// The batched lockstep rollout engine must produce **bitwise identical**
/// statistics for every lane count: episode `i` always consumes the RNG
/// stream seeded by `episode_seed(map_seed, i)`, and the GEMM inference
/// core guarantees each batch row equals the same row computed alone, so
/// lane scheduling can never leak into the results.
#[test]
fn lane_count_never_changes_the_statistics() {
    let (policy, env, chip) = fixture();
    let base = eval_config();
    let reference =
        evaluate_under_faults_seeded(&policy, &env, &chip, 0.004, &base, BASE_SEED).unwrap();
    for lanes in [1usize, 3, 8, 32] {
        let cfg = FaultEvaluationConfig { lanes, ..base };
        let stats =
            evaluate_under_faults_seeded(&policy, &env, &chip, 0.004, &cfg, BASE_SEED).unwrap();
        assert_bitwise_identical(&reference, &stats, &format!("{lanes} lanes vs 2 lanes"));
    }
    // ...and the serial per-episode reference engine lands on the same bits.
    let serial =
        evaluate_under_faults_serial(&policy, &env, &chip, 0.004, &base, BASE_SEED).unwrap();
    assert_bitwise_identical(&reference, &serial, "batched vs serial reference engine");
}

/// The work-stealing campaign engine under **deliberately skewed** cell
/// runtimes: per-cell delays reshuffle which worker executes which cell,
/// but seeds are drawn up front from global grid indices and rows merge
/// in grid order, so 1-, 3- and 8-worker pools must all land bitwise on
/// the serial reference rows — and the streaming sink must still see the
/// rows in grid order.
#[test]
fn skewed_campaign_rows_are_bitwise_identical_across_worker_counts() {
    use berry_core::campaign::{run_grid_resumable_in, run_grid_serial_in, CompletedSet};
    use berry_core::experiment::ExperimentScale;
    use berry_core::{PolicyStore, Scenario};

    let grid = Scenario::smoke_grid();
    let store = PolicyStore::in_memory();
    let serial = run_grid_serial_in(&grid, ExperimentScale::Smoke, BASE_SEED, &store).unwrap();
    // Skew pattern chosen so the first-claimed cell finishes *last*: a
    // scheduler that merged by completion order instead of grid order
    // would emit 3,2,1,0 here.
    let skew_ms = [40u64, 20, 10, 0];
    for workers in [1usize, 3, 8] {
        let mut sink_order = Vec::new();
        let (rows, stats) = rayon::ThreadPoolBuilder::new()
            .num_threads(workers)
            .build()
            .unwrap()
            .install(|| {
                run_grid_resumable_in(
                    &grid,
                    ExperimentScale::Smoke,
                    BASE_SEED,
                    &store,
                    &[],
                    &CompletedSet::empty(),
                    &|index: usize| {
                        std::thread::sleep(std::time::Duration::from_millis(skew_ms[index]))
                    },
                    |index, _| {
                        sink_order.push(index);
                        Ok(())
                    },
                )
            })
            .unwrap();
        assert_eq!(
            rows, serial,
            "{workers}-worker skewed campaign diverged from the serial reference"
        );
        for (a, b) in rows.iter().zip(&serial) {
            assert_eq!(a.to_json_line(), b.to_json_line(), "row bytes differ");
        }
        assert_eq!(sink_order, vec![0, 1, 2, 3], "sink must flush in grid order");
        assert_eq!(stats.workers, workers);
        assert_eq!(stats.mode, "work-stealing");
        assert_eq!(stats.per_worker_cells.iter().sum::<usize>(), grid.len());
    }
}

/// `episode_seed` streams must be distinct across episodes and must not
/// collide with the `fault_map_seed` stream they are derived from.
#[test]
fn episode_seeds_are_distinct_and_disjoint_from_map_seeds() {
    use berry_rl::episode_seed;
    let mut all = std::collections::HashSet::new();
    for map in 0..50u64 {
        let map_seed = fault_map_seed(BASE_SEED, map);
        assert!(all.insert(map_seed), "map seed collision at {map}");
        for episode in 0..20u64 {
            assert!(
                all.insert(episode_seed(map_seed, episode)),
                "episode seed collision at map {map} episode {episode}"
            );
        }
    }
}

/// The campaign engine's `scenario_seed` derivation joins the seed-family
/// stack above `fault_map_seed` and `episode_seed`: one scenario stream per
/// grid cell, each feeding per-map streams, each feeding per-episode
/// streams.  The three families must be distinct within themselves *and*
/// mutually disjoint, or a grid cell could replay another cell's fault
/// maps or episodes.
#[test]
fn scenario_seeds_are_distinct_and_disjoint_from_map_and_episode_seeds() {
    use berry_core::campaign::scenario_seed;
    use berry_rl::episode_seed;
    let mut all = std::collections::HashSet::new();
    for cell in 0..216u64 {
        let cell_seed = scenario_seed(BASE_SEED, cell);
        assert!(all.insert(cell_seed), "scenario seed collision at {cell}");
    }
    // The downstream families derived from the first few cells never
    // collide with any scenario seed or with each other.
    for cell in 0..4u64 {
        let cell_seed = scenario_seed(BASE_SEED, cell);
        for map in 0..20u64 {
            let map_seed = fault_map_seed(cell_seed, map);
            assert!(
                all.insert(map_seed),
                "map seed collision at cell {cell} map {map}"
            );
            for episode in 0..10u64 {
                assert!(
                    all.insert(episode_seed(map_seed, episode)),
                    "episode seed collision at cell {cell} map {map} episode {episode}"
                );
            }
        }
    }
    // Identical cell indices under different base seeds stay unrelated.
    assert_ne!(scenario_seed(1, 0), scenario_seed(2, 0));
    // And the same (base, index) pair never aliases the other derivations.
    assert_ne!(scenario_seed(BASE_SEED, 3), fault_map_seed(BASE_SEED, 3));
    assert_ne!(scenario_seed(BASE_SEED, 3), episode_seed(BASE_SEED, 3));
}

/// The policy store's `pair_seed` is the fourth seed family (training
/// streams, keyed by fingerprint hash rather than grid index).  It must be
/// internally collision-free over many fingerprints and never alias the
/// scenario / fault-map / episode families on the same inputs.
#[test]
fn pair_seeds_are_distinct_and_disjoint_from_the_other_families() {
    use berry_core::campaign::scenario_seed;
    use berry_core::store::pair_seed;
    use berry_rl::episode_seed;
    let mut all = std::collections::HashSet::new();
    for hash in 0..1000u64 {
        assert!(
            all.insert(pair_seed(BASE_SEED, hash)),
            "pair seed collision at hash {hash}"
        );
    }
    for i in 0..64u64 {
        assert_ne!(pair_seed(BASE_SEED, i), scenario_seed(BASE_SEED, i));
        assert_ne!(pair_seed(BASE_SEED, i), fault_map_seed(BASE_SEED, i));
        assert_ne!(pair_seed(BASE_SEED, i), episode_seed(BASE_SEED, i));
    }
    assert_ne!(pair_seed(1, 7), pair_seed(2, 7));
}

/// The immutable inference path must agree bitwise with the caching
/// `forward` path for every layer type — the fault-map workers roll out
/// episodes through `infer_into` while training uses `forward`, and the
/// averaged statistics may not depend on which one ran.  Both run each
/// layer's one forward computation (`Layer::infer_with`), so this pins
/// that `forward` stays on it at the Reference tier and that the
/// ping-pong driver chains layers exactly as the training pass does.
#[test]
fn infer_path_matches_forward_path_bitwise_across_all_layer_types() {
    use berry_nn::layer::{Conv2d, Dense, Flatten, LeakyRelu, Relu, Tanh};
    use berry_nn::network::{InferScratch, Sequential};
    use berry_nn::tensor::Tensor;

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD15C05EED);

    // A stack exercising Conv2d, Relu, Flatten, Dense, LeakyRelu and Tanh.
    let mut all_layers = Sequential::new();
    all_layers.push(Conv2d::new(2, 4, 3, 1, 1, &mut rng));
    all_layers.push(Relu::new());
    all_layers.push(Conv2d::new(4, 8, 3, 2, 1, &mut rng));
    all_layers.push(LeakyRelu::new(0.05));
    all_layers.push(Flatten::new());
    all_layers.push(Dense::new(8 * 5 * 5, 24, &mut rng));
    all_layers.push(Tanh::new());
    all_layers.push(Dense::new(24, 6, &mut rng));
    let conv_input = Tensor::rand_uniform(&[3, 2, 9, 9], -1.0, 1.0, &mut rng);

    // The paper's policies, as built by the policy factory.
    let c3f2 = berry_rl::policy::QNetworkSpec::C3F2
        .build(&[2, 9, 9], 25, &mut rng)
        .unwrap();
    let mlp = berry_rl::policy::QNetworkSpec::mlp(vec![32, 16])
        .build(&[7], 4, &mut rng)
        .unwrap();
    let mlp_input = Tensor::rand_uniform(&[5, 7], -1.0, 1.0, &mut rng);
    let c5f4 = berry_rl::policy::QNetworkSpec::C5F4
        .build(&[2, 9, 9], 25, &mut rng)
        .unwrap();

    let mut scratch = InferScratch::new();
    for (label, mut net, input) in [
        ("all-layer-types", all_layers, conv_input.clone()),
        ("C3F2", c3f2, conv_input.clone()),
        ("C5F4", c5f4, conv_input),
        ("MLP", mlp, mlp_input),
    ] {
        let expected = net.forward(&input);
        let inferred = net.infer_into(&input, &mut scratch);
        assert_eq!(inferred.shape(), expected.shape(), "{label}: shape");
        for (i, (a, b)) in inferred.data().iter().zip(expected.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: element {i} differs ({a} vs {b})"
            );
        }
    }
}
