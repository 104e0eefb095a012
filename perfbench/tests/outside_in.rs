//! The outside-in loop must reproduce `Experiment::run` exactly, and its
//! per-kind event counts must account for every pop.

use perfbench::median;
use perfbench::outside_in::{check_accounting, drive, drive_and_compare};
use perfbench::workloads::Run;
use qnet_core::classical::KnowledgeModel;
use qnet_core::config::NetworkConfig;
use qnet_core::experiment::{Experiment, ExperimentConfig};
use qnet_core::physics::PhysicsModel;
use qnet_core::policy::PolicyId;
use qnet_core::workload::WorkloadSpec;
use qnet_topology::Topology;

fn small_open_loop() -> Run {
    let topology = Topology::Cycle { nodes: 7 };
    Run::streamed(ExperimentConfig {
        network: NetworkConfig::new(topology).with_generation_rate(20.0),
        // Enough arrivals to cross several lazy arrival batches.
        workload: WorkloadSpec::open_loop(topology.node_count(), 6, 30.0, 100.0),
        mode: PolicyId::OBLIVIOUS,
        knowledge: KnowledgeModel::Global,
        seed: 3,
        max_sim_time_s: 150.0,
    })
}

fn small_gossip_closed_loop() -> Run {
    let topology = Topology::TorusGrid { side: 3 };
    Run::streamed(ExperimentConfig {
        network: NetworkConfig::new(topology)
            .with_topology_seed(5)
            .with_physics(PhysicsModel::parse("decoherent:50").expect("valid spec")),
        workload: WorkloadSpec::closed_loop(topology.node_count(), 4, 8),
        mode: PolicyId::HYBRID,
        knowledge: KnowledgeModel::parse("gossip:2:1").expect("valid spec"),
        seed: 5,
        max_sim_time_s: 5_000.0,
    })
}

#[test]
fn driven_open_loop_run_equals_experiment_run() {
    let run = small_open_loop();
    let (driven, trace) = drive(&run);
    assert_eq!(driven, Experiment::new(run.config).run());
    assert!(trace.kind("arrival_wake").events > 1, "{trace:?}");
    assert_eq!(
        trace.kind("request_arrival").events,
        driven.metrics.arrived_requests
    );
    assert_eq!(trace.events(), trace.pops);
    check_accounting(&driven).unwrap();
}

#[test]
fn driven_gossip_closed_loop_run_equals_experiment_run() {
    let run = small_gossip_closed_loop();
    let (driven, trace) = drive(&run);
    assert_eq!(driven, Experiment::new(run.config).run());
    assert!(trace.kind("gossip_exchange").events > 0, "{trace:?}");
    assert!(trace.kind("swap_execute").events > 0, "{trace:?}");
    assert_eq!(trace.kind("arrival_wake").events, 0);
    assert_eq!(trace.events(), trace.pops);
    check_accounting(&driven).unwrap();
}

#[test]
fn driven_pinned_traffic_run_equals_run_with_workload() {
    // A pinned request sequence is scheduled eagerly: no arrival wakes, and
    // the same result as handing the generated workload to the experiment.
    let run = Run {
        traffic_seed: Some(11),
        ..small_open_loop()
    };
    let (driven, trace) = drive(&run);
    let workload = run.pinned_workload().unwrap();
    assert_eq!(
        driven,
        Experiment::new(run.config).run_with_workload(workload)
    );
    assert_ne!(driven, Experiment::new(run.config).run());
    assert_eq!(trace.kind("arrival_wake").events, 0);
    assert_eq!(trace.events(), trace.pops);
}

#[test]
fn horizon_stop_matches_the_engine() {
    // A horizon that cuts the run short: the driven loop must stop on the
    // same event and report the same simulated seconds as the engine.
    let mut run = small_open_loop();
    run.config.max_sim_time_s = 20.0;
    let (reference, _, trace) = drive_and_compare(&run).unwrap();
    assert_eq!(reference.simulated_seconds, 20.0);
    assert_eq!(trace.events(), trace.pops);
}

#[test]
fn merged_traces_sum_their_counts() {
    let (_, a) = drive(&small_open_loop());
    let (_, b) = drive(&small_gossip_closed_loop());
    let mut merged = a.clone();
    merged.merge(&b);
    assert_eq!(merged.pops, a.pops + b.pops);
    assert_eq!(merged.events(), merged.pops);
    assert_eq!(merged.queue_len_max, a.queue_len_max.max(b.queue_len_max));
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}
