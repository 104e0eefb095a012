//! Regenerate the Figure 4 and Figure 5 sweeps and the §5 swap-scan-rate
//! ablation through the `qnet-campaign` engine: one declarative grid per
//! figure panel, executed in parallel, reported as per-cell statistics
//! with confidence intervals.
//!
//! ```sh
//! cargo run --release -p qnet-bench --bin campaign_figures            # paper scale
//! cargo run --release -p qnet-bench --bin campaign_figures -- --quick # CI scale
//! cargo run --release -p qnet-bench --bin campaign_figures -- \
//!     --cache-dir target/figure-cache                     # incremental reruns
//! ```
//!
//! With `--cache-dir`, every grid's outcomes are read from / appended to
//! the content-addressed campaign cache, so re-running the paper-scale
//! sweeps after an interruption (or after adding one more size to the Fig 5
//! family) only simulates the scenarios that are genuinely new — each grid
//! prints how many scenarios it simulated vs served from cache.

use qnet_campaign::{
    aggregate, run_campaign, run_campaign_cached, CampaignReport, CampaignResult, OutcomeCache,
    RunnerConfig, ScenarioGrid,
};
use qnet_core::policy::PolicyId;
use qnet_core::workload::WorkloadSpec;
use qnet_topology::Topology;
use std::path::PathBuf;

/// The parameters of one sweep size: the paper's §5 scale or the reduced
/// `--quick` scale for CI.
struct Scale {
    replicates: u32,
    requests: usize,
    horizon_s: f64,
    /// The §5 network size of Figure 4 and of the swap-scan-rate ablation.
    nodes: usize,
    /// Figure 4: the distillation overheads swept.
    fig4_distillations: &'static [f64],
    /// Figure 5: the network sizes swept at `D = 1`.
    fig5_sizes: &'static [usize],
}

const PAPER: Scale = Scale {
    replicates: 3,
    requests: 35,
    horizon_s: 40_000.0,
    nodes: 25,
    fig4_distillations: &[1.0, 2.0, 3.0],
    fig5_sizes: &[9, 16, 25, 36, 49],
};

const QUICK: Scale = Scale {
    replicates: 1,
    requests: 12,
    horizon_s: 4_000.0,
    nodes: 9,
    fig4_distillations: &[1.0, 2.0],
    fig5_sizes: &[9, 16],
};

/// Per-node swap-scan rates (per second) of the §5 ablation.
const SCAN_RATES: [f64; 5] = [1.0, 2.0, 4.0, 8.0, 16.0];

/// The paper's "three graphs" at `nodes` nodes: the cycle, the full
/// wraparound grid, and the random-connected wraparound grid.
fn figure_topologies(nodes: usize) -> Vec<Topology> {
    let side = (nodes as f64).sqrt().round() as usize;
    vec![
        Topology::Cycle { nodes },
        Topology::TorusGrid { side },
        Topology::RandomConnectedGrid { side },
    ]
}

/// An oblivious grid at the scale's workload, replicates and horizon; the
/// topology and distillation axes are the caller's.
fn oblivious_grid(scale: &Scale, topologies: Vec<Topology>) -> ScenarioGrid {
    ScenarioGrid::new(11)
        .with_topologies(topologies)
        .with_modes(vec![PolicyId::OBLIVIOUS])
        // node_count 0 is patched per topology at expansion time.
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 35, scale.requests)])
        .with_replicates(scale.replicates)
        .with_horizon_s(scale.horizon_s)
}

/// `--cache-dir DIR` from the command line, if given.
fn cache_dir_from_args() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--cache-dir" {
            return match args.next() {
                Some(dir) => Some(PathBuf::from(dir)),
                None => {
                    eprintln!("campaign_figures: --cache-dir needs a value");
                    std::process::exit(2);
                }
            };
        }
    }
    None
}

/// Run one figure grid, through the outcome cache when one is configured.
fn run_grid(label: &str, grid: &ScenarioGrid, cache_dir: Option<&PathBuf>) -> CampaignResult {
    let runner = RunnerConfig::default();
    let run = match cache_dir {
        Some(dir) => {
            let mut cache = OutcomeCache::open(dir, grid)
                .unwrap_or_else(|e| panic!("cannot open cache dir {}: {e}", dir.display()));
            run_campaign_cached(grid, &runner, &mut cache, |_, _| {})
                .unwrap_or_else(|e| panic!("cache append failed: {e}"))
        }
        None => run_campaign(grid, &runner),
    };
    eprintln!(
        "{label}: {} scenarios in {:.2}s on {} threads (simulated={} cache_hits={})",
        run.outcomes.len(),
        run.wall_seconds,
        run.threads_used,
        run.simulated,
        run.cache_hits,
    );
    run
}

fn print_report(title: &str, report: &CampaignReport) {
    println!("== {title} ==");
    println!(
        "{:<18} {:>5} {:>5} {:>10} {:>8} {:>10}",
        "topology", "N", "D", "overhead", "±95%", "satisfied"
    );
    for cell in &report.cell_reports {
        println!(
            "{:<18} {:>5} {:>5} {:>10} {:>8} {:>9.0}%",
            cell.key.topology,
            cell.key.nodes,
            cell.key.distillation,
            cell.overhead_mean
                .map(|m| format!("{m:.3}"))
                .unwrap_or_else(|| "n/a".into()),
            cell.overhead_ci95
                .map(|c| format!("{c:.3}"))
                .unwrap_or_else(|| "n/a".into()),
            cell.satisfaction_mean * 100.0,
        );
    }
    println!();
}

fn main() {
    let scale = if std::env::args().any(|a| a == "--quick") {
        &QUICK
    } else {
        &PAPER
    };
    let cache_dir = cache_dir_from_args();

    // Figure 4: overhead vs distillation overhead `D` at fixed |N|.
    let grid4 = oblivious_grid(scale, figure_topologies(scale.nodes))
        .with_distillations(scale.fig4_distillations.to_vec());
    let run4 = run_grid("fig4 campaign", &grid4, cache_dir.as_ref());
    print_report(
        "Figure 4 — swap overhead vs distillation overhead D (campaign engine)",
        &aggregate(&grid4, &run4),
    );

    // Figure 5: overhead vs network size |N| at `D = 1`.
    for &nodes in scale.fig5_sizes {
        let grid5 = oblivious_grid(scale, figure_topologies(nodes));
        let run5 = run_grid(
            &format!("fig5 campaign (N={nodes})"),
            &grid5,
            cache_dir.as_ref(),
        );
        print_report(
            &format!("Figure 5 — swap overhead at |N| = {nodes} (campaign engine)"),
            &aggregate(&grid5, &run5),
        );
    }

    // §5: "varying [the swap-scan] rate did not significantly alter the
    // results" — one grid per rate, so each rate keeps its own cache file.
    let cycle = Topology::Cycle { nodes: scale.nodes };
    for rate in SCAN_RATES {
        let grid = oblivious_grid(scale, vec![cycle]).with_swap_scan_rate(rate);
        let run = run_grid(
            &format!("swap-scan-rate campaign (rate={rate})"),
            &grid,
            cache_dir.as_ref(),
        );
        print_report(
            &format!("§5 ablation — swap overhead at swap-scan rate {rate} /s (campaign engine)"),
            &aggregate(&grid, &run),
        );
    }
}
