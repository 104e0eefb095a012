//! Quickstart: run one path-oblivious swapping experiment on the paper's
//! cycle topology and print the headline numbers.
//!
//! ```sh
//! cargo run -p qnet --example quickstart --release
//! ```

use qnet::prelude::*;

fn main() {
    // A 25-node cycle generation graph with g = 1 on every edge, D = 1, the
    // paper's 35-consumer-pair sequential workload, and the §4 max-min
    // balancing protocol with global buffer knowledge.
    let topology = Topology::Cycle { nodes: 25 };
    let config = ExperimentConfig {
        network: NetworkConfig::new(topology).with_distillation(DistillationSpec::Uniform(1.0)),
        workload: WorkloadSpec::paper_default(topology.node_count()),
        // Policies are selected by name; `PolicyId::parse("oblivious")`
        // accepts the same strings as the campaign CLI's --modes axis.
        mode: PolicyId::OBLIVIOUS,
        knowledge: KnowledgeModel::Global,
        seed: 2025,
        max_sim_time_s: 20_000.0,
    };

    println!("Running path-oblivious swapping on {} …", topology.label());
    let result = Experiment::new(config).run();

    println!("{}", result.summary_line());
    println!();
    println!("satisfied requests : {}", result.satisfied_requests);
    println!("unsatisfied        : {}", result.unsatisfied_requests);
    println!("swaps performed    : {}", result.swaps_performed);
    println!("pairs generated    : {}", result.metrics.pairs_generated);
    println!("leftover pairs     : {}", result.metrics.leftover_pairs);
    println!(
        "swap overhead      : {}",
        result
            .swap_overhead()
            .map(|o| format!(
                "{o:.3} (≥ 1 by construction; 1 would be the nested-swapping optimum)"
            ))
            .unwrap_or_else(|| "n/a".into())
    );
    println!(
        "classical messages : {} ({} correction bits)",
        result.metrics.classical.total_messages(),
        result.metrics.classical.correction_bits
    );
    println!("simulated time     : {:.1} s", result.simulated_seconds);
}
