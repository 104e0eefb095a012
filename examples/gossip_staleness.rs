//! The §6 staleness trade-off curve: gossip refresh period vs. classical
//! message volume, believed-row age, missed swaps and swap overhead.
//!
//! The paper relaxes the oblivious discipline's global-knowledge assumption
//! with BitTorrent-like gossip: each node periodically pulls the buffer-count
//! rows of a few rotating peers instead of hearing every change instantly.
//! Messages get cheaper as the refresh period grows — but the believed counts
//! age, swaps proposed on stale rows start missing, and the overhead climbs.
//! This example walks that curve on the paper's 9-node cycle, for both the
//! oblivious balancer (which takes believed counts at face value) and the
//! gossip-aware variant (which discounts them by row age).
//!
//! ```sh
//! cargo run -p qnet --example gossip_staleness --release
//! ```

use qnet::prelude::*;

fn main() {
    let topology = Topology::Cycle { nodes: 9 };
    let peers_per_refresh = 2;
    let periods_s = [0.25, 0.5, 1.0, 2.0, 4.0];
    let policies = ["oblivious", "gossip-aware"];

    println!(
        "Gossip staleness trade-off on {} (K = {peers_per_refresh} peers per refresh, \
         12 closed-loop requests)\n",
        topology.label()
    );
    println!(
        "{:>14} {:>12} {:>10} {:>10} {:>9} {:>9} {:>9} {:>10}",
        "policy", "knowledge", "msgs", "satisfied", "overhead", "age mean", "age p95", "missed"
    );

    for policy in policies {
        let mode = PolicyId::parse(policy).expect("a name in the policy table");
        let run = |knowledge: KnowledgeModel| {
            Experiment::new(ExperimentConfig {
                network: NetworkConfig::new(topology),
                workload: WorkloadSpec::closed_loop(topology.node_count(), 10, 12),
                mode,
                knowledge,
                seed: 13,
                max_sim_time_s: 6_000.0,
            })
            .run()
        };
        let fmt_opt = |v: Option<f64>| {
            v.map(|v| format!("{v:8.2}s"))
                .unwrap_or_else(|| "n/a".into())
        };
        let row = |knowledge: KnowledgeModel| {
            let r = run(knowledge);
            println!(
                "{:>14} {:>12} {:>10} {:>10} {:>9} {:>9} {:>9} {:>10}",
                policy,
                knowledge.label(),
                r.metrics.classical.count_update_messages,
                r.satisfied_requests,
                r.swap_overhead()
                    .map(|o| format!("{o:7.2}"))
                    .unwrap_or_else(|| "n/a".into()),
                fmt_opt(r.metrics.stale_row_age_mean_s),
                fmt_opt(r.metrics.stale_row_age_p95_s),
                r.metrics.missed_swaps,
            );
        };
        // The global-knowledge anchor: every change broadcast, zero age.
        row(KnowledgeModel::Global);
        for period in periods_s {
            row(KnowledgeModel::Gossip {
                peers_per_refresh,
                refresh_period_s: period,
            });
        }
        println!();
    }

    println!(
        "Reading the curve: message volume falls with the refresh period while\n\
         believed-row age, missed swaps and overhead climb — the paper's §6 knob.\n\
         The campaign-grade sweep (replicates, CIs, JSONL) behind\n\
         results/gossip_staleness.jsonl:\n  \
         cargo run --release -p qnet-campaign --bin campaign -- \\\n    \
         --topologies cycle:25 --fabric deployed-fiber \\\n    \
         --modes oblivious,gossip-aware \\\n    \
         --knowledge global,gossip:2:0.25,gossip:2:1,gossip:2:4,gossip:8:0.25,gossip:8:1,gossip:8:4"
    );
}
