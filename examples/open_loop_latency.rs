//! Offered-load sweep: satisfaction ratio and sojourn latency vs. arrival
//! rate, for every registered swapping discipline.
//!
//! The paper's §5 evaluation is closed-loop (a fixed batch of requests, all
//! pending at t = 0); this example drives the same network with *open-loop*
//! Poisson traffic and watches the two quantities a production quantum
//! internet would be judged on: what fraction of requests is served, and
//! how long a request waits from arrival to satisfaction (p50 / p95).
//!
//! ```sh
//! cargo run -p qnet --example open_loop_latency --release
//! ```

use qnet::core::workload::TrafficModel;
use qnet::prelude::*;

fn main() {
    let topology = Topology::Cycle { nodes: 9 };
    let arrival_horizon_s = 600.0;
    let rates_hz = [1.0, 3.0, 5.0, 8.0];
    let policies = ["oblivious", "hybrid", "greedy", "planned", "connectionless"];

    println!(
        "Open-loop Poisson traffic on {} (arrivals for {arrival_horizon_s} s, 10 consumer pairs)\n",
        topology.label()
    );
    println!(
        "{:>16} {:>9} {:>9} {:>11} {:>10} {:>10}",
        "policy", "rate", "arrived", "satisfied", "p50 lat", "p95 lat"
    );

    for policy in policies {
        let mode = PolicyId::parse(policy).expect("a name in the policy table");
        for rate_hz in rates_hz {
            let config = ExperimentConfig {
                network: NetworkConfig::new(topology),
                workload: WorkloadSpec::open_loop(0, 10, rate_hz, arrival_horizon_s),
                mode,
                knowledge: KnowledgeModel::Global,
                seed: 7,
                // Run past the arrival horizon so the queue can drain.
                max_sim_time_s: arrival_horizon_s * 2.0,
            };
            debug_assert!(matches!(
                config.workload.traffic,
                TrafficModel::OpenLoopPoisson { .. }
            ));
            let r = Experiment::new(config).run();
            let fmt_latency = |l: Option<f64>| {
                l.map(|v| format!("{v:8.1}s"))
                    .unwrap_or_else(|| "n/a".into())
            };
            println!(
                "{:>16} {:>6.2}Hz {:>9} {:>7}/{:<3} {:>10} {:>10}",
                policy,
                rate_hz,
                r.metrics.arrived_requests,
                r.satisfied_requests,
                r.metrics.arrived_requests,
                fmt_latency(r.latency_p50_s()),
                fmt_latency(r.latency_p95_s()),
            );
        }
        println!();
    }

    println!(
        "The same sweep, campaign-grade (replicates, CIs, JSONL):\n  \
         cargo run --release -p qnet-campaign --bin campaign -- \\\n    \
         --workload open-loop:0.25,open-loop:0.5,open-loop:1,open-loop:2 \\\n    \
         --modes oblivious,hybrid,greedy,planned,connectionless"
    );
}
