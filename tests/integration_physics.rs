//! Link-physics subsystem guarantees, pinned at the workspace level.
//!
//! 1. **Ideal-physics byte identity**: the campaign JSONL for an all-ideal
//!    grid is byte-for-byte what the pre-physics stack produced
//!    (`tests/data/golden_ideal_campaign.jsonl` was captured from the
//!    `campaign` binary immediately before the physics subsystem landed),
//!    and the default 108-scenario grid keeps its pre-physics fingerprint —
//!    so legacy caches and shard files stay valid. A second capture,
//!    `tests/data/golden_gossip_campaign.jsonl`, pins the stale-knowledge
//!    paths the ideal golden never reaches: balancer scans over gossip
//!    `KnowledgeView`s and over the gossip-aware age-discounted view, at
//!    integer and fractional distillation overheads. A third,
//!    `tests/data/golden_decoherent_campaign.jsonl`, pins the lot store:
//!    expiry purges, fidelity-floor rejections and per-edge `lab` fabric
//!    link overrides under decoherent physics.
//! 2. **Decoherent campaigns** populate the `fidelity_*` columns and
//!    expired-pair counters, and stay deterministic across worker-thread
//!    counts and shard partitions.
//! 3. **Cache-key safety**: grids differing only in `PhysicsModel` get
//!    distinct fingerprints, and a warm cache replays a decoherent grid
//!    with zero simulations.

use qnet::campaign::{
    aggregate, merge_shards, read_shard, run_campaign, run_campaign_cached,
    run_scenarios_streaming, shard_to_string, to_jsonl_string, OutcomeCache, ShardSpec,
};
use qnet::core::classical::KnowledgeModel;
use qnet::core::physics::{ConsumeOrder, PhysicsModel};
use qnet::prelude::*;
use qnet_topology::{FabricSpec, Topology};

/// The exact grid `campaign --topologies cycle:7,torus:3 --modes
/// oblivious,planned,hybrid --dist 1,2 --pairs 5 --requests 5 --replicates 2
/// --horizon 600 --seed 3` built when the golden file was captured.
fn golden_grid() -> ScenarioGrid {
    ScenarioGrid::new(3)
        .with_topologies(vec![
            Topology::Cycle { nodes: 7 },
            Topology::TorusGrid { side: 3 },
        ])
        .with_modes(vec![
            PolicyId::OBLIVIOUS,
            PolicyId::PLANNED,
            PolicyId::HYBRID,
        ])
        .with_distillations(vec![1.0, 2.0])
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 5, 5)])
        .with_replicates(2)
        .with_horizon_s(600.0)
}

/// The exact grid `campaign --topologies cycle:7,torus:3 --modes
/// oblivious,hybrid,gossip-aware --dist 1,1.5,2 --knowledge
/// global,gossip:2:0.5 --requests 6 --replicates 2 --horizon 1000 --seed 3`
/// built when the gossip golden file was captured.
fn golden_gossip_grid() -> ScenarioGrid {
    ScenarioGrid::new(3)
        .with_topologies(vec![
            Topology::Cycle { nodes: 7 },
            Topology::TorusGrid { side: 3 },
        ])
        .with_modes(vec![
            PolicyId::OBLIVIOUS,
            PolicyId::HYBRID,
            PolicyId::GOSSIP_AWARE,
        ])
        .with_distillations(vec![1.0, 1.5, 2.0])
        .with_knowledge(vec![
            KnowledgeModel::Global,
            KnowledgeModel::parse("gossip:2:0.5").unwrap(),
        ])
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 10, 6)])
        .with_replicates(2)
        .with_horizon_s(1_000.0)
}

/// The exact grid `campaign --topologies cycle:7,torus:3 --modes
/// oblivious,planned,hybrid --physics decoherent:1.5,decoherent:0.5:0.8
/// --fabric none,lab --requests 6 --replicates 2 --horizon 600 --seed 5`
/// built when the decoherent golden file was captured.
fn golden_decoherent_grid() -> ScenarioGrid {
    ScenarioGrid::new(5)
        .with_topologies(vec![
            Topology::Cycle { nodes: 7 },
            Topology::TorusGrid { side: 3 },
        ])
        .with_modes(vec![
            PolicyId::OBLIVIOUS,
            PolicyId::PLANNED,
            PolicyId::HYBRID,
        ])
        .with_distillations(vec![1.0, 2.0])
        .with_physics(vec![
            PhysicsModel::decoherent(1.5),
            PhysicsModel::decoherent(0.5).with_fidelity_floor(0.8),
        ])
        .with_fabrics(vec![None, Some(FabricSpec::parse("lab").unwrap())])
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 10, 6)])
        .with_replicates(2)
        .with_horizon_s(600.0)
}

fn decoherent_grid() -> ScenarioGrid {
    ScenarioGrid::new(11)
        .with_topologies(vec![Topology::Cycle { nodes: 7 }])
        .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::PLANNED])
        .with_physics(vec![
            PhysicsModel::Ideal,
            PhysicsModel::decoherent(0.5).with_fidelity_floor(0.8),
        ])
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 4, 4)])
        .with_replicates(2)
        .with_horizon_s(200.0)
}

#[test]
fn ideal_campaign_reproduces_the_prephysics_golden_bytes() {
    let grid = golden_grid();
    let report = aggregate(&grid, &run_campaign(&grid, &RunnerConfig::default()));
    let jsonl = to_jsonl_string(&report);
    let golden = include_str!("data/golden_ideal_campaign.jsonl");
    assert_eq!(
        jsonl, golden,
        "ideal-physics campaign bytes drifted from the pre-physics capture"
    );
}

#[test]
fn gossip_campaign_reproduces_the_golden_bytes() {
    let grid = golden_gossip_grid();
    assert_eq!(grid.scenario_count(), 72);
    let report = aggregate(&grid, &run_campaign(&grid, &RunnerConfig::default()));
    let jsonl = to_jsonl_string(&report);
    let golden = include_str!("data/golden_gossip_campaign.jsonl");
    assert_eq!(
        jsonl, golden,
        "stale-knowledge campaign bytes drifted from the golden capture"
    );
}

#[test]
fn decoherent_campaign_reproduces_the_golden_bytes() {
    let grid = golden_decoherent_grid();
    assert_eq!(grid.scenario_count(), 96);
    let report = aggregate(&grid, &run_campaign(&grid, &RunnerConfig::default()));
    let jsonl = to_jsonl_string(&report);
    let golden = include_str!("data/golden_decoherent_campaign.jsonl");
    assert_eq!(
        jsonl, golden,
        "decoherent campaign bytes drifted from the golden capture"
    );
}

#[test]
fn default_grids_keep_their_prephysics_fingerprints() {
    // Captured from the pre-physics build: the `campaign` CLI's default
    // 108-scenario grid. The all-ideal physics axis is omitted from the
    // canonical grid JSON, so this hash — and with it every existing cache
    // file and shard header — must never move.
    let default_108 = ScenarioGrid::new(1)
        .with_topologies(vec![
            Topology::Cycle { nodes: 9 },
            Topology::RandomConnectedGrid { side: 3 },
            Topology::WattsStrogatz {
                nodes: 9,
                neighbors: 4,
                rewire_probability: 0.2,
            },
        ])
        .with_modes(vec![
            PolicyId::OBLIVIOUS,
            PolicyId::PLANNED,
            PolicyId::HYBRID,
        ])
        .with_distillations(vec![1.0, 2.0])
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 10, 12)])
        .with_replicates(6)
        .with_horizon_s(4_000.0);
    assert_eq!(default_108.scenario_count(), 108);
    assert_eq!(default_108.fingerprint().to_hex(), "3d0ceedd6e2ff513");
}

#[test]
fn physics_only_grid_differences_produce_distinct_fingerprints() {
    // Stale-cache poisoning guard: every physics variation must move the
    // content address, or a decoherent sweep could silently replay ideal
    // outcomes (and vice versa).
    let base = decoherent_grid();
    let ideal = decoherent_grid().with_physics(vec![PhysicsModel::Ideal]);
    assert_ne!(base.fingerprint(), ideal.fingerprint());

    let other_t2 = decoherent_grid().with_physics(vec![
        PhysicsModel::Ideal,
        PhysicsModel::decoherent(1.0).with_fidelity_floor(0.8),
    ]);
    assert_ne!(base.fingerprint(), other_t2.fingerprint());

    let other_floor = decoherent_grid().with_physics(vec![
        PhysicsModel::Ideal,
        PhysicsModel::decoherent(0.5).with_fidelity_floor(0.7),
    ]);
    assert_ne!(base.fingerprint(), other_floor.fingerprint());

    let other_order = decoherent_grid().with_physics(vec![
        PhysicsModel::Ideal,
        PhysicsModel::decoherent(0.5)
            .with_fidelity_floor(0.8)
            .with_consume_order(ConsumeOrder::NewestFirst),
    ]);
    assert_ne!(base.fingerprint(), other_order.fingerprint());

    // And the descriptor round-trips through JSON with the axis intact.
    let text = serde_json::to_string(&base).unwrap();
    let back: ScenarioGrid = serde_json::from_str(&text).unwrap();
    assert_eq!(back, base);
    assert_eq!(back.fingerprint(), base.fingerprint());
}

#[test]
fn decoherent_campaign_populates_fidelity_columns_and_expires_pairs() {
    let grid = decoherent_grid();
    let report = aggregate(&grid, &run_campaign(&grid, &RunnerConfig::serial()));
    let mut decoherent_cells = 0;
    for cell in &report.cell_reports {
        match cell.key.physics {
            None => {
                assert_eq!(cell.fidelity_mean, None, "ideal cells carry no fidelity");
                assert_eq!(cell.expired_pairs_total, 0);
            }
            Some(physics) => {
                decoherent_cells += 1;
                assert!(!physics.is_ideal());
                assert!(
                    cell.expired_pairs_total > 0,
                    "T2 = 0.5 s with a derived cutoff must expire pairs: {cell:?}"
                );
                if let Some(mean) = cell.fidelity_mean {
                    assert!((0.8..=1.0).contains(&mean), "deliveries meet the floor");
                    let (p50, p95) = (cell.fidelity_p50.unwrap(), cell.fidelity_p95.unwrap());
                    assert!(p50 <= p95 + 1e-12);
                }
            }
        }
    }
    assert_eq!(decoherent_cells, 2);
    // The JSONL surface carries the new columns for decoherent cells only.
    let jsonl = to_jsonl_string(&report);
    let (mut with_fid, mut without) = (0, 0);
    for line in jsonl.lines().filter(|l| l.contains("\"kind\":\"cell\"")) {
        if line.contains("\"physics\"") {
            assert!(line.contains("\"expired_pairs_total\""), "{line}");
            with_fid += 1;
        } else {
            assert!(!line.contains("fidelity"), "{line}");
            without += 1;
        }
    }
    assert_eq!((with_fid, without), (2, 2));
}

#[test]
fn decoherent_campaigns_are_thread_count_and_shard_deterministic() {
    let grid = decoherent_grid();
    let serial = run_campaign(&grid, &RunnerConfig::serial());
    let parallel = run_campaign(&grid, &RunnerConfig::with_threads(4));
    assert_eq!(serial.outcomes, parallel.outcomes);
    let serial_jsonl = to_jsonl_string(&aggregate(&grid, &serial));
    let parallel_jsonl = to_jsonl_string(&aggregate(&grid, &parallel));
    assert_eq!(serial_jsonl, parallel_jsonl);

    // Any shard partition recombines to the same bytes.
    let shards: Vec<_> = (0..3)
        .map(|i| {
            let spec = ShardSpec::new(i, 3).expect("valid shard");
            let run = run_scenarios_streaming(
                &grid,
                &RunnerConfig::serial(),
                &spec.ids(grid.scenario_count()),
                None,
                |_| {},
            )
            .expect("no cache I/O");
            read_shard(&shard_to_string(&grid, spec, &run.outcomes)).expect("round-trips")
        })
        .collect();
    let (merged_grid, merged) = merge_shards(shards).expect("complete partition");
    assert_eq!(
        to_jsonl_string(&aggregate(&merged_grid, &merged)),
        serial_jsonl,
        "sharded decoherent campaign must merge to the single-process bytes"
    );
}

#[test]
fn decoherent_grid_cache_replays_cold_to_warm() {
    let dir = std::env::temp_dir().join(format!("qnet-physics-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let grid = decoherent_grid();

    let mut cache = OutcomeCache::open(&dir, &grid).unwrap();
    let cold = run_campaign_cached(&grid, &RunnerConfig::serial(), &mut cache, |_, _| {}).unwrap();
    assert_eq!(cold.simulated, grid.scenario_count());

    let mut warm_cache = OutcomeCache::open(&dir, &grid).unwrap();
    let warm =
        run_campaign_cached(&grid, &RunnerConfig::serial(), &mut warm_cache, |_, _| {}).unwrap();
    assert_eq!(warm.simulated, 0, "warm decoherent runs must not simulate");
    assert_eq!(warm.cache_hits, grid.scenario_count());
    assert_eq!(
        to_jsonl_string(&aggregate(&grid, &cold)),
        to_jsonl_string(&aggregate(&grid, &warm)),
    );
    // The physics columns survive the cache round-trip exactly.
    assert_eq!(cold.outcomes, warm.outcomes);
    assert!(cold.outcomes.iter().any(|o| o.expired_pairs > 0));

    // A grid differing only in physics opens a *different* cache file and
    // simulates from scratch — no cross-axis poisoning.
    let other = decoherent_grid().with_physics(vec![
        PhysicsModel::Ideal,
        PhysicsModel::decoherent(1.0).with_fidelity_floor(0.8),
    ]);
    let mut other_cache = OutcomeCache::open(&dir, &other).unwrap();
    let other_run =
        run_campaign_cached(&other, &RunnerConfig::serial(), &mut other_cache, |_, _| {}).unwrap();
    assert_eq!(other_run.simulated, other.scenario_count());
    assert_eq!(other_run.cache_hits, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shorter_coherence_times_deliver_lower_fidelity() {
    // The physics knee in miniature: the same world at T2 ∈ {8 s, 0.8 s}
    // (no cutoff, no floor — pure decay) must deliver strictly worse
    // fidelity at the shorter coherence time.
    let run = |t2: f64| {
        let config = ExperimentConfig {
            network: NetworkConfig::new(Topology::Cycle { nodes: 7 })
                .with_physics(PhysicsModel::decoherent(t2)),
            workload: WorkloadSpec::closed_loop(7, 5, 6),
            mode: PolicyId::OBLIVIOUS,
            knowledge: KnowledgeModel::Global,
            seed: 9,
            max_sim_time_s: 2_000.0,
        };
        Experiment::new(config).run()
    };
    let long = run(8.0);
    let short = run(0.8);
    assert!(!long.metrics.satisfied.is_empty());
    assert!(!short.metrics.satisfied.is_empty());
    let mean = |r: &ExperimentResult| {
        let stats = r.metrics.fidelity_stats();
        assert!(stats.count() > 0);
        stats.mean()
    };
    let (f_long, f_short) = (mean(&long), mean(&short));
    assert!(
        f_short < f_long,
        "T2 = 0.8 s must deliver worse fidelity than 8 s ({f_short} vs {f_long})"
    );
    assert!((0.25..=1.0).contains(&f_short));
    // Every delivery is within physical Werner bounds.
    for s in long
        .metrics
        .satisfied
        .iter()
        .chain(&short.metrics.satisfied)
    {
        let f = s.fidelity.unwrap();
        assert!((0.25..=1.0).contains(&f));
    }
}
