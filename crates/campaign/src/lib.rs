//! # qnet-campaign — parallel scenario campaigns for sweep experiments
//!
//! The paper's headline results (Figures 4 and 5: swap overhead vs.
//! distillation rounds and vs. network size) are parameter sweeps over
//! topology × workload × protocol mode. This crate turns such sweeps from
//! ad-hoc loops into declarative, parallel, reproducible **campaigns**:
//!
//! 1. **Declare** a [`ScenarioGrid`]: the cartesian product of topology
//!    families, swap policies (by registry name — see
//!    [`qnet_core::policy`]), distillation overheads, knowledge models,
//!    coherence times, link-physics models (see [`qnet_core::physics`])
//!    and workload specs, × a replicate count. The grid
//!    expands into dense, deterministic [`Scenario`]s whose RNG seeds
//!    derive from `(master seed, cell, replicate)`.
//! 2. **Execute** with [`run_campaign`]: a chunked `std::thread` pool claims
//!    scenario ids through an atomic cursor and runs each
//!    [`qnet_core::Experiment`] independently — thousands of runs saturate
//!    all cores with zero external dependencies.
//! 3. **Aggregate** with [`aggregate`]: per-cell Welford mean/variance,
//!    exact percentiles, 95% confidence intervals, satisfaction and
//!    classical-message totals, plus matched oblivious-vs-planned
//!    [`OverheadRatioRow`]s reproducing the Fig 4/5 comparisons.
//! 4. **Report** with [`write_jsonl`]: self-describing JSON-lines output
//!    that is byte-identical no matter how many worker threads ran the
//!    campaign (see the determinism tests).
//!
//! The `campaign` CLI binary wraps all four steps; `qnet-bench` adds micro
//! benchmarks and the `campaign_figures` binary (the paper's Figures 4/5
//! and the swap-scan-rate ablation) on top of the same API.
//!
//! ## Incremental and distributed campaigns
//!
//! Outcomes are pure functions of `(grid fingerprint, scenario id)` —
//! [`ScenarioGrid::fingerprint`] hashes every axis, the master seed and the
//! run parameters — which buys two more execution modes on top of the
//! in-process pool:
//!
//! * **Caching** ([`OutcomeCache`], [`run_campaign_cached`]): outcomes
//!   persist as append-only JSONL under a cache directory; re-running a
//!   grid replays cached scenarios without simulating (a fully warm run
//!   executes **zero** experiments), and overlapping sweeps only pay for
//!   what they add. Reports from cached and fresh outcomes are
//!   byte-identical.
//! * **Sharding** ([`ShardSpec`], [`write_shard`], [`merge_shards`]): the
//!   scenario id space partitions deterministically across processes or
//!   hosts (`campaign --shard I/N`); each shard writes a self-describing
//!   outcome file, and `campaign merge` recombines them into the exact
//!   single-process report — byte-identical for any partition.
//! * **Orchestration** ([`orchestrate`], [`resume_orchestrated`]): a
//!   supervisor spawns N worker subprocesses over a shared run directory
//!   and drives them to completion — heartbeat liveness, crash retry from
//!   the shared cache, live partial reports, and a final merge
//!   byte-identical to an uninterrupted run (`campaign orchestrate`).
//!
//! See the `qnet` facade docs ("Running sharded and incremental campaigns"
//! and "Running distributed campaigns") for worked examples.
//!
//! ## Example
//!
//! ```
//! use qnet_campaign::{aggregate, run_campaign, RunnerConfig, ScenarioGrid};
//! use qnet_core::policy::PolicyId;
//! use qnet_core::workload::WorkloadSpec;
//! use qnet_topology::Topology;
//!
//! let grid = ScenarioGrid::new(7)
//!     .with_topologies(vec![Topology::Cycle { nodes: 5 }])
//!     .with_modes(vec![PolicyId::OBLIVIOUS])
//!     // node_count 0 is patched per topology at expansion time.
//!     .with_workloads(vec![WorkloadSpec::closed_loop(0, 4, 4)])
//!     .with_replicates(2)
//!     .with_horizon_s(500.0);
//!
//! let result = run_campaign(&grid, &RunnerConfig::default());
//! let report = aggregate(&grid, &result);
//! assert_eq!(report.cell_reports.len(), 1);
//! assert_eq!(report.scenarios, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod grid;
pub mod orchestrator;
pub mod report;
pub mod runner;
pub mod shard;

use qnet_core::policy::{registered_policies, PolicyFamily};

/// The `campaign --list-policies` text: one line per policy in the
/// process-global registry (built-ins plus anything registered through
/// [`qnet_core::policy::register`]), in registration order.
pub fn policy_listing() -> String {
    let mut out = String::new();
    for entry in registered_policies() {
        let family = match entry.family {
            PolicyFamily::Oblivious => "oblivious",
            PolicyFamily::Planned => "planned",
        };
        let aliases = if entry.aliases.is_empty() {
            String::new()
        } else {
            format!("  [aliases: {}]", entry.aliases.join(", "))
        };
        out.push_str(&format!(
            "{:<16} {:<10} {}{}\n",
            entry.name, family, entry.summary, aliases
        ));
    }
    out
}

pub use cache::OutcomeCache;
pub use grid::{derive_seed, CellKey, GridFingerprint, Scenario, ScenarioGrid};
pub use orchestrator::{
    load_run_dir, orchestrate, resume as resume_orchestrated, InjectAbort, OrchestrateReport,
    OrchestratorConfig, RunDir,
};
pub use report::{
    aggregate, aggregate_covered, overhead_ratios, to_jsonl_string, write_jsonl, CampaignReport,
    CellReport, OverheadRatioRow,
};
pub use runner::{
    run_campaign, run_campaign_cached, run_scenarios_streaming, CampaignResult, OutcomeSource,
    RunnerConfig, ScenarioEvent, ScenarioOutcome,
};
pub use shard::{merge_shards, read_shard, shard_to_string, write_shard, ShardFile, ShardSpec};
