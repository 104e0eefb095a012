//! The decoherence knee: satisfaction ratio and delivered fidelity vs.
//! memory coherence time, for every registered swapping discipline.
//!
//! The paper's evaluation treats Bell pairs as interchangeable tokens; this
//! example turns on the link-physics subsystem
//! ([`qnet::core::physics::PhysicsModel::Decoherent`]) and watches what
//! memory decay does to each discipline on the cycle-9 baseline. The
//! physics sharpens the paper's core comparison: oblivious balancing seeds
//! pairs *ahead of demand*, so its inventory is systematically **older**
//! than a planner's just-in-time pairs — and decoherence punishes exactly
//! that. Watch the knee: at long T2 the disciplines order as in the ideal
//! evaluation; as T2 shrinks toward the swap-scan period, the oblivious
//! families' satisfaction collapses first while the planned baselines
//! degrade gracefully.
//!
//! ```sh
//! cargo run -p qnet --example decoherence_knee --release
//! ```
//!
//! The campaign-grade version of the same sweep (replicates, CIs, JSONL
//! `fidelity_*` columns) is printed at the end.

use qnet::core::physics::PhysicsModel;
use qnet::prelude::*;

fn main() {
    let topology = Topology::Cycle { nodes: 9 };
    let coherence_times_s = [f64::INFINITY, 8.0, 2.0, 0.5];
    let policies = ["oblivious", "hybrid", "greedy", "planned", "connectionless"];
    let requests = 12;

    println!(
        "Decoherent link physics on {} ({requests} closed-loop requests, F0 = {}, no cutoff)\n",
        topology.label(),
        PhysicsModel::DEFAULT_INITIAL_FIDELITY,
    );
    println!(
        "{:>16} {:>9} {:>11} {:>10} {:>10} {:>10}",
        "policy", "T2", "satisfied", "fid mean", "fid p50", "fid p95"
    );

    for policy in policies {
        let mode = PolicyId::parse(policy).expect("a name in the policy table");
        for t2 in coherence_times_s {
            let network = if t2.is_finite() {
                NetworkConfig::new(topology).with_physics(PhysicsModel::decoherent(t2))
            } else {
                NetworkConfig::new(topology) // ideal: the paper's semantics
            };
            let config = ExperimentConfig {
                network,
                workload: WorkloadSpec::closed_loop(0, 10, requests),
                mode,
                knowledge: KnowledgeModel::Global,
                seed: 7,
                max_sim_time_s: 2_000.0,
            };
            let r = Experiment::new(config).run();
            let fmt = |f: Option<f64>| {
                f.map(|v| format!("{v:10.4}"))
                    .unwrap_or_else(|| format!("{:>10}", "n/a"))
            };
            let stats = r.metrics.fidelity_stats();
            println!(
                "{:>16} {:>9} {:>7}/{:<3} {} {} {}",
                policy,
                if t2.is_finite() {
                    format!("{t2}s")
                } else {
                    "ideal".to_string()
                },
                r.satisfied_requests,
                requests,
                fmt((stats.count() > 0).then(|| stats.mean())),
                fmt(r.metrics.fidelity_percentile(0.50)),
                fmt(r.metrics.fidelity_percentile(0.95)),
            );
        }
        println!();
    }

    println!(
        "With a fidelity floor, decay becomes a hard failure class: pairs past\n\
         their useful age expire (expired_pairs), and deliveries below the floor\n\
         are rejected (fidelity_rejected_requests) instead of satisfied.\n"
    );
    println!(
        "The same sweep, campaign-grade (replicates, CIs, fidelity_* columns):\n  \
         cargo run --release -p qnet-campaign --bin campaign -- \\\n    \
         --physics ideal,decoherent:8,decoherent:2,decoherent:0.5 \\\n    \
         --modes oblivious,hybrid,greedy,planned,connectionless"
    );
}
