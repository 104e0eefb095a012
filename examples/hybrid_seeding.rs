//! The §6 "hybrid oblivious with minimal planning" idea: compare pure
//! oblivious balancing, the hybrid repair variant, and the planned-path
//! baselines on the same workload and topology, on one seed.
//!
//! ```sh
//! cargo run -p qnet --example hybrid_seeding --release
//! ```

use qnet::prelude::*;

fn main() {
    let topology = Topology::RandomConnectedGrid { side: 4 };
    let base = ExperimentConfig {
        network: NetworkConfig::new(topology).with_topology_seed(3),
        workload: WorkloadSpec::paper_default(topology.node_count()).with_requests(25),
        mode: PolicyId::OBLIVIOUS,
        knowledge: KnowledgeModel::Global,
        seed: 3,
        max_sim_time_s: 8_000.0,
    };

    println!(
        "Topology: {} ({} nodes)",
        topology.label(),
        topology.node_count()
    );
    println!(
        "Workload: {} sequential consumption requests\n",
        base.workload.nominal_requests()
    );
    println!(
        "{:>28} {:>10} {:>9} {:>11} {:>9} {:>12}",
        "mode", "overhead", "swaps", "satisfied", "repairs", "sim seconds"
    );
    // Every named planned/oblivious discipline, by policy name — the
    // greedy nested-ordering policy rides along purely through the policy
    // table.
    for mode in ["oblivious", "hybrid", "greedy", "planned", "connectionless"] {
        let mode = PolicyId::parse(mode).expect("a name in the policy table");
        let config = ExperimentConfig { mode, ..base };
        let r = Experiment::new(config).run();
        println!(
            "{:>28} {:>10} {:>9} {:>11} {:>9} {:>12.1}",
            format!("{mode:?}"),
            r.swap_overhead()
                .map(|o| format!("{o:.3}"))
                .unwrap_or_else(|| "n/a".into()),
            r.swaps_performed,
            format!(
                "{}/{}",
                r.satisfied_requests,
                r.satisfied_requests as u64 + r.unsatisfied_requests
            ),
            r.metrics.repair_swaps(),
            r.simulated_seconds,
        );
    }

    println!(
        "\nReading guide: the hybrid mode finishes the workload in less simulated time than \
         pure oblivious balancing because a consumer that is not directly served can close \
         the gap with a couple of swaps over the *already seeded* pairs — the mitigation \
         §6 proposes for the starvation effect."
    );
}
