//! Byte layouts of the omit-when-default types, pinned as literals.
//!
//! Cache files, shard files, grid descriptors and JSONL reports are read
//! back across versions, and grid fingerprints hash the canonical grid
//! JSON, so the exact key order and the set of omitted keys are part of
//! the on-disk contract. Each row below serializes a minimal value (every
//! omittable field at its default) and a fully populated one, compares the
//! text against a literal, and decodes the literal back. Minimal literals
//! are also decoded with their omittable keys present as `null`, which
//! must give the same value as leaving them out.

use qnet_campaign::{CellKey, CellReport, ScenarioGrid, ScenarioOutcome};
use qnet_core::classical::{ClassicalStats, KnowledgeModel};
use qnet_core::config::NetworkConfig;
use qnet_core::metrics::{RunMetrics, SatisfiedRequest};
use qnet_core::physics::PhysicsModel;
use qnet_core::policy::PolicyId;
use qnet_core::workload::{PairSelection, TrafficModel, WorkloadSpec};
use qnet_sim::SimTime;
use qnet_topology::{FabricSpec, HardwarePreset, NodeId, NodePair, Topology};
use serde::{Deserialize, Serialize, Value};
use std::fmt::Debug;

/// Serialize `value`, compare with `literal`, and check that `literal`
/// decodes to a value that re-encodes to the same bytes.
fn pin<T>(label: &str, value: &T, literal: &str)
where
    T: Serialize + Deserialize + Debug,
{
    assert_eq!(
        serde_json::to_string(value).unwrap(),
        literal,
        "{label}: layout"
    );
    let back: T = serde_json::from_str(literal).unwrap();
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        literal,
        "{label}: decode"
    );
}

/// [`pin`], plus: decoding `literal` with each of `omitted` (a `/`-separated
/// key path into nested objects) present as an explicit `null` gives the
/// same value as leaving the key out. Values are compared through `Debug`,
/// so a NaN decoded both ways compares equal.
fn pin_minimal<T>(label: &str, value: &T, literal: &str, omitted: &[&str])
where
    T: Serialize + Deserialize + Debug,
{
    pin(label, value, literal);
    let mut with_nulls: Value = serde_json::from_str(literal).unwrap();
    for path in omitted {
        let mut node = &mut with_nulls;
        let mut keys = path.split('/').peekable();
        while let Some(key) = keys.next() {
            let Value::Map(entries) = node else {
                panic!("{label}: {path} does not address an object");
            };
            if keys.peek().is_none() {
                assert!(
                    entries.iter().all(|(k, _)| k != key),
                    "{label}: {path} is not omitted"
                );
                entries.push((key.to_string(), Value::Null));
                break;
            }
            node = &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1;
        }
    }
    let absent: T = serde_json::from_str(literal).unwrap();
    let nulls: T = serde_json::from_value(with_nulls).unwrap();
    assert_eq!(
        format!("{nulls:?}"),
        format!("{absent:?}"),
        "{label}: explicit nulls decode as defaults"
    );
}

fn minimal_cell_key() -> CellKey {
    CellKey {
        cell: 3,
        topology: "cycle-7".to_string(),
        nodes: 7,
        mode: PolicyId::OBLIVIOUS,
        distillation: 1.0,
        knowledge: KnowledgeModel::Global,
        consumer_pairs: 5,
        requests: 6,
        discipline: PairSelection::UniformRandom,
        coherence_time_s: None,
        physics: None,
        traffic: None,
        fabric: None,
    }
}

fn full_cell_key() -> CellKey {
    CellKey {
        mode: PolicyId::HYBRID,
        distillation: 1.5,
        knowledge: KnowledgeModel::Gossip {
            peers_per_refresh: 2,
            refresh_period_s: 0.5,
        },
        requests: 50,
        discipline: PairSelection::ZipfSkew { s: 1.1 },
        coherence_time_s: Some(4.0),
        physics: Some(PhysicsModel::decoherent(0.5).with_fidelity_floor(0.8)),
        traffic: Some(TrafficModel::OpenLoopPoisson {
            rate_hz: 0.05,
            horizon_s: 1000.0,
        }),
        fabric: Some(FabricSpec::new(HardwarePreset::Lab)),
        ..minimal_cell_key()
    }
}

fn minimal_outcome() -> ScenarioOutcome {
    ScenarioOutcome {
        id: 5,
        cell: 2,
        replicate: 1,
        seed: 42,
        swap_overhead: None,
        satisfied_requests: 0,
        arrived_requests: 6,
        unsatisfied_requests: 6,
        swaps_performed: 0,
        pairs_generated: 17,
        simulated_seconds: 1000.0,
        count_update_messages: 0,
        latency_mean_s: None,
        latency_p50_s: None,
        latency_p95_s: None,
        fidelity_mean: None,
        fidelity_p50: None,
        fidelity_p95: None,
        expired_pairs: 0,
        fidelity_rejected: 0,
        missed_swaps: 0,
        stale_row_age_mean_s: None,
        stale_row_age_p95_s: None,
        sketch_quantiles: false,
    }
}

fn full_outcome() -> ScenarioOutcome {
    ScenarioOutcome {
        swap_overhead: Some(1.25),
        satisfied_requests: 4,
        unsatisfied_requests: 1,
        swaps_performed: 20,
        count_update_messages: 9,
        latency_mean_s: Some(2.5),
        latency_p50_s: Some(2.0),
        latency_p95_s: Some(7.75),
        fidelity_mean: Some(0.875),
        fidelity_p50: Some(0.9),
        fidelity_p95: Some(0.95),
        expired_pairs: 3,
        fidelity_rejected: 1,
        missed_swaps: 2,
        stale_row_age_mean_s: Some(0.25),
        stale_row_age_p95_s: Some(0.75),
        sketch_quantiles: true,
        ..minimal_outcome()
    }
}

fn minimal_cell_report() -> CellReport {
    CellReport {
        key: minimal_cell_key(),
        replicates: 2,
        overhead_samples: 0,
        overhead_mean: None,
        overhead_variance: None,
        overhead_ci95: None,
        overhead_p10: None,
        overhead_p50: None,
        overhead_p90: None,
        overhead_min: None,
        overhead_max: None,
        satisfaction_mean: 0.5,
        swaps_total: 10,
        pairs_generated_total: 30,
        simulated_seconds_mean: 600.0,
        count_update_messages_total: 0,
        latency_mean_s: None,
        latency_ci95_s: None,
        latency_p50_s: None,
        latency_p95_s: None,
        fidelity_mean: None,
        fidelity_ci95: None,
        fidelity_p50: None,
        fidelity_p95: None,
        expired_pairs_total: 0,
        fidelity_rejected_total: 0,
        missed_swaps_total: 0,
        stale_row_age_mean_s: None,
        stale_row_age_p95_s: None,
    }
}

fn full_cell_report() -> CellReport {
    CellReport {
        key: full_cell_key(),
        overhead_samples: 2,
        overhead_mean: Some(1.5),
        overhead_variance: Some(0.125),
        overhead_ci95: Some(0.49),
        overhead_p10: Some(1.25),
        overhead_p50: Some(1.5),
        overhead_p90: Some(1.75),
        overhead_min: Some(1.25),
        overhead_max: Some(1.75),
        count_update_messages_total: 40,
        latency_mean_s: Some(3.5),
        latency_ci95_s: Some(0.5),
        latency_p50_s: Some(3.0),
        latency_p95_s: Some(9.0),
        fidelity_mean: Some(0.875),
        fidelity_ci95: Some(0.01),
        fidelity_p50: Some(0.88),
        fidelity_p95: Some(0.93),
        expired_pairs_total: 7,
        fidelity_rejected_total: 2,
        missed_swaps_total: 5,
        stale_row_age_mean_s: Some(0.25),
        stale_row_age_p95_s: Some(0.5),
        ..minimal_cell_report()
    }
}

fn minimal_request() -> SatisfiedRequest {
    SatisfiedRequest {
        sequence: 4,
        pair: NodePair::new(NodeId(1), NodeId(5)),
        arrival_time: SimTime::ZERO,
        satisfied_at: SimTime::from_millis(2500),
        shortest_path_hops: 3,
        repair_swaps: 0,
        fidelity: None,
    }
}

fn full_request() -> SatisfiedRequest {
    SatisfiedRequest {
        arrival_time: SimTime::from_millis(500),
        repair_swaps: 2,
        fidelity: Some(0.9),
        ..minimal_request()
    }
}

fn minimal_metrics() -> RunMetrics {
    RunMetrics {
        distillation_overhead: 1.0,
        swaps_performed: 12,
        pairs_generated: 40,
        pairs_lost: 0,
        expired_pairs: 0,
        satisfied: vec![minimal_request()],
        streamed: None,
        arrived_requests: 2,
        unsatisfied_requests: 1,
        dropped_requests: 0,
        fidelity_rejected_requests: 0,
        classical: ClassicalStats {
            correction_messages: 12,
            correction_bits: 26,
            count_update_messages: 5,
            teleport_messages: 1,
        },
        ended_at: SimTime::from_secs(100),
        leftover_pairs: 9,
        missed_swaps: 0,
        stale_row_age_mean_s: None,
        stale_row_age_p95_s: None,
    }
}

fn full_metrics() -> RunMetrics {
    RunMetrics {
        distillation_overhead: 2.0,
        pairs_lost: 3,
        expired_pairs: 4,
        satisfied: vec![full_request(), minimal_request()],
        dropped_requests: 1,
        fidelity_rejected_requests: 2,
        missed_swaps: 6,
        stale_row_age_mean_s: Some(0.125),
        stale_row_age_p95_s: Some(0.5),
        ..minimal_metrics()
    }
}

/// The exact grid `campaign --replicates 2 --workload
/// closed:6,open-loop:0.05@zipf:1.1 --gossip 2 --horizon 1000` builds.
fn cli_open_gossip_grid() -> ScenarioGrid {
    ScenarioGrid::new(1)
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
        .with_knowledge(vec![
            KnowledgeModel::Global,
            KnowledgeModel::Gossip {
                peers_per_refresh: 2,
                refresh_period_s: 0.0,
            },
        ])
        .with_workloads(vec![
            WorkloadSpec::closed_loop(0, 10, 6),
            WorkloadSpec::open_loop(0, 10, 0.05, 1000.0)
                .with_discipline(PairSelection::ZipfSkew { s: 1.1 }),
        ])
        .with_replicates(2)
        .with_horizon_s(1000.0)
}

/// The decoherent golden grid of `tests/integration_physics.rs`.
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

/// The gossip golden grid of `tests/integration_physics.rs`.
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

/// The planned-family golden grid of `tests/integration_policy.rs`.
fn golden_planned_grid() -> ScenarioGrid {
    ScenarioGrid::new(3)
        .with_topologies(vec![
            Topology::Cycle { nodes: 16 },
            Topology::RandomConnectedGrid { side: 4 },
        ])
        .with_modes(vec![
            PolicyId::PLANNED,
            PolicyId::CONNECTIONLESS,
            PolicyId::GREEDY,
        ])
        .with_distillations(vec![1.0, 2.0])
        .with_knowledge(vec![
            KnowledgeModel::Global,
            KnowledgeModel::parse("gossip:1:2").unwrap(),
        ])
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 8, 20)])
        .with_replicates(2)
        .with_horizon_s(4_000.0)
}

#[test]
fn knowledge_model_layouts() {
    pin("global", &KnowledgeModel::Global, r#""Global""#);
    pin_minimal(
        "gossip at period 0",
        &KnowledgeModel::Gossip {
            peers_per_refresh: 2,
            refresh_period_s: 0.0,
        },
        r#"{"Gossip":{"peers_per_refresh":2}}"#,
        &["Gossip/refresh_period_s"],
    );
    pin(
        "gossip at period 0.5",
        &KnowledgeModel::Gossip {
            peers_per_refresh: 2,
            refresh_period_s: 0.5,
        },
        r#"{"Gossip":{"peers_per_refresh":2,"refresh_period_s":0.5}}"#,
    );
}

#[test]
fn network_config_layouts() {
    pin_minimal(
        "ideal homogeneous",
        &NetworkConfig::new(Topology::Cycle { nodes: 5 }),
        r#"{"topology":{"Cycle":{"nodes":5}},"topology_seed":0,"generation_rate":1.0,"poisson_generation":true,"swap_scan_rate":4.0,"distillation":{"Uniform":1.0},"loss_factor":1.0,"qec_overhead":1.0,"decoherence":{"coherence_time_s":null},"buffer_limit":null}"#,
        &["physics", "fabric"],
    );
    pin(
        "decoherent on a fabric",
        &NetworkConfig::new(Topology::Cycle { nodes: 5 })
            .with_physics(PhysicsModel::decoherent(0.5).with_fidelity_floor(0.8))
            .with_fabric(FabricSpec::new(HardwarePreset::MetroFiber)),
        r#"{"topology":{"Cycle":{"nodes":5}},"topology_seed":0,"generation_rate":1.0,"poisson_generation":true,"swap_scan_rate":4.0,"distillation":{"Uniform":1.0},"loss_factor":1.0,"qec_overhead":1.0,"decoherence":{"coherence_time_s":0.5},"buffer_limit":512,"physics":{"Decoherent":{"initial_fidelity":0.98,"coherence_time_s":0.5,"cutoff_s":0.14156312795796003,"fidelity_floor":0.8,"order":"OldestFirst"}},"fabric":"metro-fiber"}"#,
    );
}

#[test]
fn satisfied_request_layouts() {
    pin_minimal(
        "ideal",
        &minimal_request(),
        r#"{"sequence":4,"pair":{"lo":1,"hi":5},"arrival_time":0,"satisfied_at":2500000000,"shortest_path_hops":3,"repair_swaps":0}"#,
        &["fidelity"],
    );
    pin(
        "with a fidelity",
        &full_request(),
        r#"{"sequence":4,"pair":{"lo":1,"hi":5},"arrival_time":500000000,"satisfied_at":2500000000,"shortest_path_hops":3,"repair_swaps":2,"fidelity":0.9}"#,
    );
}

#[test]
fn run_metrics_layouts() {
    pin_minimal(
        "ideal global",
        &minimal_metrics(),
        r#"{"distillation_overhead":1.0,"swaps_performed":12,"pairs_generated":40,"pairs_lost":0,"satisfied":[{"sequence":4,"pair":{"lo":1,"hi":5},"arrival_time":0,"satisfied_at":2500000000,"shortest_path_hops":3,"repair_swaps":0}],"arrived_requests":2,"unsatisfied_requests":1,"dropped_requests":0,"classical":{"correction_messages":12,"correction_bits":26,"count_update_messages":5,"teleport_messages":1},"ended_at":100000000000,"leftover_pairs":9}"#,
        &[
            "expired_pairs",
            "fidelity_rejected_requests",
            "missed_swaps",
            "stale_row_age_mean_s",
            "stale_row_age_p95_s",
            "streamed",
        ],
    );
    pin(
        "every optional counter",
        &full_metrics(),
        r#"{"distillation_overhead":2.0,"swaps_performed":12,"pairs_generated":40,"pairs_lost":3,"satisfied":[{"sequence":4,"pair":{"lo":1,"hi":5},"arrival_time":500000000,"satisfied_at":2500000000,"shortest_path_hops":3,"repair_swaps":2,"fidelity":0.9},{"sequence":4,"pair":{"lo":1,"hi":5},"arrival_time":0,"satisfied_at":2500000000,"shortest_path_hops":3,"repair_swaps":0}],"arrived_requests":2,"unsatisfied_requests":1,"dropped_requests":1,"classical":{"correction_messages":12,"correction_bits":26,"count_update_messages":5,"teleport_messages":1},"ended_at":100000000000,"leftover_pairs":9,"expired_pairs":4,"fidelity_rejected_requests":2,"missed_swaps":6,"stale_row_age_mean_s":0.125,"stale_row_age_p95_s":0.5}"#,
    );
}

#[test]
fn cell_key_layouts() {
    pin_minimal(
        "closed loop",
        &minimal_cell_key(),
        r#"{"cell":3,"topology":"cycle-7","nodes":7,"mode":"Oblivious","distillation":1.0,"knowledge":"Global","consumer_pairs":5,"requests":6,"discipline":"UniformRandom","coherence_time_s":null}"#,
        &["physics", "traffic", "fabric"],
    );
    pin(
        "open loop",
        &full_cell_key(),
        r#"{"cell":3,"topology":"cycle-7","nodes":7,"mode":"Hybrid","distillation":1.5,"knowledge":{"Gossip":{"peers_per_refresh":2,"refresh_period_s":0.5}},"consumer_pairs":5,"requests":50,"discipline":{"ZipfSkew":{"s":1.1}},"coherence_time_s":4.0,"physics":{"Decoherent":{"initial_fidelity":0.98,"coherence_time_s":0.5,"cutoff_s":0.14156312795796003,"fidelity_floor":0.8,"order":"OldestFirst"}},"traffic":{"OpenLoopPoisson":{"rate_hz":0.05,"horizon_s":1000.0}},"fabric":"lab"}"#,
    );
}

#[test]
fn scenario_outcome_layouts() {
    pin_minimal(
        "ideal global closed loop",
        &minimal_outcome(),
        r#"{"id":5,"cell":2,"replicate":1,"seed":42,"swap_overhead":null,"satisfied_requests":0,"arrived_requests":6,"unsatisfied_requests":6,"swaps_performed":0,"pairs_generated":17,"simulated_seconds":1000.0,"count_update_messages":0,"latency_mean_s":null,"latency_p50_s":null,"latency_p95_s":null}"#,
        &[
            "fidelity_mean",
            "fidelity_p50",
            "fidelity_p95",
            "expired_pairs",
            "fidelity_rejected",
            "missed_swaps",
            "stale_row_age_mean_s",
            "stale_row_age_p95_s",
            "sketch_quantiles",
        ],
    );
    pin(
        "every column",
        &full_outcome(),
        r#"{"id":5,"cell":2,"replicate":1,"seed":42,"swap_overhead":1.25,"satisfied_requests":4,"arrived_requests":6,"unsatisfied_requests":1,"swaps_performed":20,"pairs_generated":17,"simulated_seconds":1000.0,"count_update_messages":9,"latency_mean_s":2.5,"latency_p50_s":2.0,"latency_p95_s":7.75,"fidelity_mean":0.875,"fidelity_p50":0.9,"fidelity_p95":0.95,"expired_pairs":3,"fidelity_rejected":1,"missed_swaps":2,"stale_row_age_mean_s":0.25,"stale_row_age_p95_s":0.75,"sketch_quantiles":true}"#,
    );
}

#[test]
fn cell_report_layouts() {
    pin_minimal(
        "ideal global closed loop",
        &minimal_cell_report(),
        r#"{"key":{"cell":3,"topology":"cycle-7","nodes":7,"mode":"Oblivious","distillation":1.0,"knowledge":"Global","consumer_pairs":5,"requests":6,"discipline":"UniformRandom","coherence_time_s":null},"replicates":2,"overhead_samples":0,"overhead_mean":null,"overhead_variance":null,"overhead_ci95":null,"overhead_p10":null,"overhead_p50":null,"overhead_p90":null,"overhead_min":null,"overhead_max":null,"satisfaction_mean":0.5,"swaps_total":10,"pairs_generated_total":30,"simulated_seconds_mean":600.0,"count_update_messages_total":0}"#,
        &[
            "key/physics",
            "key/traffic",
            "key/fabric",
            "latency_mean_s",
            "latency_ci95_s",
            "latency_p50_s",
            "latency_p95_s",
            "fidelity_mean",
            "fidelity_ci95",
            "fidelity_p50",
            "fidelity_p95",
            "expired_pairs_total",
            "fidelity_rejected_total",
            "missed_swaps_total",
            "stale_row_age_mean_s",
            "stale_row_age_p95_s",
        ],
    );
    pin(
        "every column",
        &full_cell_report(),
        r#"{"key":{"cell":3,"topology":"cycle-7","nodes":7,"mode":"Hybrid","distillation":1.5,"knowledge":{"Gossip":{"peers_per_refresh":2,"refresh_period_s":0.5}},"consumer_pairs":5,"requests":50,"discipline":{"ZipfSkew":{"s":1.1}},"coherence_time_s":4.0,"physics":{"Decoherent":{"initial_fidelity":0.98,"coherence_time_s":0.5,"cutoff_s":0.14156312795796003,"fidelity_floor":0.8,"order":"OldestFirst"}},"traffic":{"OpenLoopPoisson":{"rate_hz":0.05,"horizon_s":1000.0}},"fabric":"lab"},"replicates":2,"overhead_samples":2,"overhead_mean":1.5,"overhead_variance":0.125,"overhead_ci95":0.49,"overhead_p10":1.25,"overhead_p50":1.5,"overhead_p90":1.75,"overhead_min":1.25,"overhead_max":1.75,"satisfaction_mean":0.5,"swaps_total":10,"pairs_generated_total":30,"simulated_seconds_mean":600.0,"count_update_messages_total":40,"latency_mean_s":3.5,"latency_ci95_s":0.5,"latency_p50_s":3.0,"latency_p95_s":9.0,"fidelity_mean":0.875,"fidelity_ci95":0.01,"fidelity_p50":0.88,"fidelity_p95":0.93,"expired_pairs_total":7,"fidelity_rejected_total":2,"missed_swaps_total":5,"stale_row_age_mean_s":0.25,"stale_row_age_p95_s":0.5}"#,
    );
}

#[test]
fn scenario_grid_layouts() {
    pin_minimal(
        "paper defaults",
        &ScenarioGrid::new(1),
        r#"{"topologies":[{"Cycle":{"nodes":9}}],"modes":["Oblivious"],"distillations":[1.0],"knowledge":["Global"],"coherence_times_s":[null],"workloads":[{"node_count":9,"consumer_pairs":35,"requests":35,"discipline":"UniformRandom"}],"replicates":1,"master_seed":1,"max_sim_time_s":20000.0,"generation_rate":1.0,"swap_scan_rate":4.0}"#,
        &["physics", "fabrics"],
    );
    pin(
        "physics and fabric axes",
        &ScenarioGrid::new(1)
            .with_physics(vec![PhysicsModel::Ideal, PhysicsModel::decoherent(1.5)])
            .with_fabrics(vec![None, Some(FabricSpec::new(HardwarePreset::Lab))]),
        r#"{"topologies":[{"Cycle":{"nodes":9}}],"modes":["Oblivious"],"distillations":[1.0],"knowledge":["Global"],"coherence_times_s":[null],"physics":["Ideal",{"Decoherent":{"initial_fidelity":0.98,"coherence_time_s":1.5,"cutoff_s":null,"fidelity_floor":null,"order":"OldestFirst"}}],"fabrics":[null,"lab"],"workloads":[{"node_count":9,"consumer_pairs":35,"requests":35,"discipline":"UniformRandom"}],"replicates":1,"master_seed":1,"max_sim_time_s":20000.0,"generation_rate":1.0,"swap_scan_rate":4.0}"#,
    );
}

#[test]
fn grid_fingerprints_are_pinned() {
    for (label, grid, hex) in [
        (
            "decoherent golden",
            golden_decoherent_grid(),
            "1c5b2d21f6e5ceec",
        ),
        ("gossip golden", golden_gossip_grid(), "c4a12ba2ed70262f"),
        ("planned golden", golden_planned_grid(), "4661f590ae5e5026"),
        (
            "open-loop gossip CLI grid",
            cli_open_gossip_grid(),
            "9a7c3f8afdf7cafc",
        ),
    ] {
        assert_eq!(grid.fingerprint().to_hex(), hex, "{label}");
    }
}
