//! Per-cell streaming aggregation and report rendering.
//!
//! Aggregation consumes [`ScenarioOutcome`]s strictly in scenario-id order
//! (the runner guarantees that order regardless of thread count), folding
//! each cell's replicates into a [`CellReport`]: Welford mean/variance of
//! the swap overhead, exact percentiles over the replicate samples, a 95%
//! normal-approximation confidence interval, and satisfaction / swap /
//! message totals. A second pass pairs oblivious cells with their
//! planned-mode twins into [`OverheadRatioRow`]s — the oblivious-vs-planned
//! comparison behind the paper's Figures 4 and 5.
//!
//! Reports serialize to JSON lines: one self-describing object per line
//! (`"kind": "cell"` / `"ratio"` / `"campaign"`), so sweeps can be streamed,
//! `grep`ed and diffed. All numeric content derives from seeded simulation
//! only — byte-identical across runs and thread counts, and equally across
//! execution modes: outcomes replayed from the [`crate::cache::OutcomeCache`]
//! or recombined from shard files by [`crate::shard::merge_shards`] flow
//! through this exact aggregation path (the same `RunningStats` /
//! `ci95_half_width` machinery), so cold, warm and merged reports cannot
//! diverge.

use crate::grid::{CellKey, ScenarioGrid};
use crate::runner::{CampaignResult, ScenarioOutcome};
use qnet_core::metrics::is_zero;
use qnet_core::policy::{PolicyFamily, PolicyId};
use qnet_sim::stats::{percentile_of_sorted, RunningStats};
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// Aggregated statistics over one cell's replicates.
///
/// Serialization: the latency columns are emitted only when present
/// (open-loop cells), the fidelity/expiry columns only when populated
/// (decoherent-physics cells) and the staleness columns only for
/// stale-control-plane cells, so legacy reports keep the exact legacy byte
/// layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// The cell's axis values.
    pub key: CellKey,
    /// Replicates executed.
    pub replicates: u32,
    /// Replicates whose swap-overhead denominator was non-zero.
    pub overhead_samples: u64,
    /// Mean swap overhead over the valid samples (`None` if none).
    pub overhead_mean: Option<f64>,
    /// Unbiased sample variance of the swap overhead.
    pub overhead_variance: Option<f64>,
    /// Half-width of the 95% confidence interval on the mean
    /// (normal approximation, `1.96·σ/√n`; `None` below 2 samples).
    pub overhead_ci95: Option<f64>,
    /// 10th/50th/90th percentile of the swap overhead samples.
    pub overhead_p10: Option<f64>,
    /// Median swap overhead.
    pub overhead_p50: Option<f64>,
    /// 90th percentile swap overhead.
    pub overhead_p90: Option<f64>,
    /// Minimum observed overhead.
    pub overhead_min: Option<f64>,
    /// Maximum observed overhead.
    pub overhead_max: Option<f64>,
    /// Mean satisfaction ratio over all replicates.
    pub satisfaction_mean: f64,
    /// Total swaps across replicates.
    pub swaps_total: u64,
    /// Total Bell pairs generated across replicates.
    pub pairs_generated_total: u64,
    /// Mean simulated seconds per replicate.
    pub simulated_seconds_mean: f64,
    /// Total classical count-update messages across replicates.
    pub count_update_messages_total: u64,
    /// Mean of the per-replicate mean sojourn latencies, in simulated
    /// seconds (open-loop cells with at least one satisfaction only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency_mean_s: Option<f64>,
    /// Half-width of the 95% CI on the mean sojourn latency
    /// (`None` below 2 latency samples).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency_ci95_s: Option<f64>,
    /// Mean of the per-replicate median sojourn latencies.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency_p50_s: Option<f64>,
    /// Mean of the per-replicate 95th-percentile sojourn latencies.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub latency_p95_s: Option<f64>,
    /// Mean of the per-replicate mean delivered fidelities
    /// (decoherent-physics cells with at least one satisfaction only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fidelity_mean: Option<f64>,
    /// Half-width of the 95% CI on the mean delivered fidelity
    /// (`None` below 2 fidelity samples).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fidelity_ci95: Option<f64>,
    /// Mean of the per-replicate median delivered fidelities.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fidelity_p50: Option<f64>,
    /// Mean of the per-replicate 95th-percentile delivered fidelities.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fidelity_p95: Option<f64>,
    /// Total pairs discarded by the physics cutoff across replicates.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub expired_pairs_total: u64,
    /// Total deliveries rejected below the fidelity floor across
    /// replicates.
    #[serde(default, skip_serializing_if = "is_zero")]
    pub fidelity_rejected_total: u64,
    /// Total believed-feasible actions that failed against drifted truth
    /// across replicates (stale-control-plane cells only).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub missed_swaps_total: u64,
    /// Mean of the per-replicate mean believed-row ages at decision time,
    /// seconds (stale cells with at least one stale decision only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub stale_row_age_mean_s: Option<f64>,
    /// Mean of the per-replicate 95th-percentile believed-row ages.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub stale_row_age_p95_s: Option<f64>,
}

/// Oblivious-vs-planned comparison for one matched pair of cells.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverheadRatioRow {
    /// Topology label shared by both cells.
    pub topology: String,
    /// Node count.
    pub nodes: usize,
    /// Distillation overhead `D`.
    pub distillation: f64,
    /// Requests per run.
    pub requests: usize,
    /// The numerator policy (an oblivious-family policy).
    pub numerator_mode: PolicyId,
    /// The denominator policy (a planned-family policy).
    pub denominator_mode: PolicyId,
    /// Mean overhead of the numerator cell.
    pub numerator_overhead: f64,
    /// Mean overhead of the denominator cell.
    pub denominator_overhead: f64,
    /// `numerator / denominator` (the Fig 4/5 comparison).
    pub ratio: f64,
}

/// A whole campaign: header metadata plus the per-cell reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Master seed the grid ran with.
    pub master_seed: u64,
    /// Cells in the grid.
    pub cells: usize,
    /// Scenarios executed.
    pub scenarios: usize,
    /// Replicates per cell.
    pub replicates: u32,
    /// The per-cell aggregates, in cell order.
    pub cell_reports: Vec<CellReport>,
    /// Matched oblivious-vs-planned ratios.
    pub ratios: Vec<OverheadRatioRow>,
}

/// Fold one cell's outcomes (already in replicate order) into a report.
fn aggregate_cell<'a>(
    key: CellKey,
    outcomes: impl IntoIterator<Item = &'a ScenarioOutcome>,
) -> CellReport {
    let mut replicates = 0u32;
    let mut overhead = RunningStats::new();
    let mut samples: Vec<f64> = Vec::new();
    let mut satisfaction = 0.0f64;
    let mut swaps_total = 0u64;
    let mut pairs_total = 0u64;
    let mut sim_seconds = 0.0f64;
    let mut messages = 0u64;
    // Sojourn latency and delivered fidelity flow through the same
    // RunningStats/CI machinery as the swap overhead, so closed-/open-loop
    // and ideal-/decoherent-physics rows share one aggregation path (the
    // columns simply stay empty for cells whose outcomes carry no samples).
    let mut latency_mean = RunningStats::new();
    let mut latency_p50 = RunningStats::new();
    let mut latency_p95 = RunningStats::new();
    let mut fidelity_mean = RunningStats::new();
    let mut fidelity_p50 = RunningStats::new();
    let mut fidelity_p95 = RunningStats::new();
    let mut expired_total = 0u64;
    let mut rejected_total = 0u64;
    let mut missed_total = 0u64;
    let mut stale_age_mean = RunningStats::new();
    let mut stale_age_p95 = RunningStats::new();

    for o in outcomes {
        replicates += 1;
        if let Some(x) = o.swap_overhead {
            overhead.record(x);
            samples.push(x);
        }
        satisfaction += o.satisfaction_ratio();
        swaps_total += o.swaps_performed;
        pairs_total += o.pairs_generated;
        sim_seconds += o.simulated_seconds;
        messages += o.count_update_messages;
        if let Some(x) = o.latency_mean_s {
            latency_mean.record(x);
        }
        if let Some(x) = o.latency_p50_s {
            latency_p50.record(x);
        }
        if let Some(x) = o.latency_p95_s {
            latency_p95.record(x);
        }
        if let Some(x) = o.fidelity_mean {
            fidelity_mean.record(x);
        }
        if let Some(x) = o.fidelity_p50 {
            fidelity_p50.record(x);
        }
        if let Some(x) = o.fidelity_p95 {
            fidelity_p95.record(x);
        }
        expired_total += o.expired_pairs;
        rejected_total += o.fidelity_rejected;
        missed_total += o.missed_swaps;
        if let Some(x) = o.stale_row_age_mean_s {
            stale_age_mean.record(x);
        }
        if let Some(x) = o.stale_row_age_p95_s {
            stale_age_p95.record(x);
        }
    }
    samples.sort_by(f64::total_cmp);

    let n = overhead.count();
    let ci95 = overhead.ci95_half_width();

    CellReport {
        key,
        replicates,
        overhead_samples: n,
        overhead_mean: (n > 0).then(|| overhead.mean()),
        overhead_variance: (n > 1).then(|| overhead.variance()),
        overhead_ci95: ci95,
        overhead_p10: percentile_of_sorted(&samples, 0.10),
        overhead_p50: percentile_of_sorted(&samples, 0.50),
        overhead_p90: percentile_of_sorted(&samples, 0.90),
        overhead_min: overhead.min(),
        overhead_max: overhead.max(),
        satisfaction_mean: if replicates == 0 {
            1.0
        } else {
            satisfaction / replicates as f64
        },
        swaps_total,
        pairs_generated_total: pairs_total,
        simulated_seconds_mean: if replicates == 0 {
            0.0
        } else {
            sim_seconds / replicates as f64
        },
        count_update_messages_total: messages,
        latency_mean_s: (latency_mean.count() > 0).then(|| latency_mean.mean()),
        latency_ci95_s: latency_mean.ci95_half_width(),
        latency_p50_s: (latency_p50.count() > 0).then(|| latency_p50.mean()),
        latency_p95_s: (latency_p95.count() > 0).then(|| latency_p95.mean()),
        fidelity_mean: (fidelity_mean.count() > 0).then(|| fidelity_mean.mean()),
        fidelity_ci95: fidelity_mean.ci95_half_width(),
        fidelity_p50: (fidelity_p50.count() > 0).then(|| fidelity_p50.mean()),
        fidelity_p95: (fidelity_p95.count() > 0).then(|| fidelity_p95.mean()),
        expired_pairs_total: expired_total,
        fidelity_rejected_total: rejected_total,
        missed_swaps_total: missed_total,
        stale_row_age_mean_s: (stale_age_mean.count() > 0).then(|| stale_age_mean.mean()),
        stale_row_age_p95_s: (stale_age_p95.count() > 0).then(|| stale_age_p95.mean()),
    }
}

/// Pair each oblivious-family cell with every planned-family cell whose
/// key equals it apart from `cell` and `mode`, and compute the overhead
/// ratio. Every other key field — including any added later — is part of
/// the pairing.
pub fn overhead_ratios(cell_reports: &[CellReport]) -> Vec<OverheadRatioRow> {
    let mut rows = Vec::new();
    for num in cell_reports {
        if num.key.mode.family() != PolicyFamily::Oblivious {
            continue;
        }
        let Some(num_overhead) = num.overhead_mean else {
            continue;
        };
        for den in cell_reports {
            if den.key.mode.family() != PolicyFamily::Planned {
                continue;
            }
            let same_axes = CellKey {
                cell: num.key.cell,
                mode: num.key.mode,
                ..den.key.clone()
            } == num.key;
            if !same_axes {
                continue;
            }
            let Some(den_overhead) = den.overhead_mean else {
                continue;
            };
            if den_overhead <= 0.0 {
                continue;
            }
            rows.push(OverheadRatioRow {
                topology: num.key.topology.clone(),
                nodes: num.key.nodes,
                distillation: num.key.distillation,
                requests: num.key.requests,
                numerator_mode: num.key.mode,
                denominator_mode: den.key.mode,
                numerator_overhead: num_overhead,
                denominator_overhead: den_overhead,
                ratio: num_overhead / den_overhead,
            });
        }
    }
    rows
}

/// Aggregate a finished campaign into its deterministic report: the
/// fully covered case of [`aggregate_covered`].
///
/// # Panics
/// Panics if `result` does not cover the grid densely — a single shard's
/// result cannot be aggregated on its own; recombine the partition with
/// [`crate::shard::merge_shards`] first.
pub fn aggregate(grid: &ScenarioGrid, result: &CampaignResult) -> CampaignReport {
    assert_eq!(
        result.outcomes.len(),
        grid.scenario_count(),
        "aggregate needs the dense outcome vector (merge shard results first)"
    );
    aggregate_covered(grid, &result.outcomes)
}

/// Aggregate a **partially covered** campaign: only cells whose replicates
/// are all present produce a [`CellReport`] (and join the ratio pass);
/// incomplete cells are silently skipped. `outcomes` may arrive in any
/// order and may contain duplicates (later entries win, mirroring the
/// cache's supersede rule).
///
/// This is the live-merge path of the orchestrator: as shards seal, the
/// partial report grows cell by cell. [`aggregate`] is its fully covered
/// case: the `scenarios` header field counts covered scenarios, so a
/// fully covered partial report equals the final one byte for byte.
pub fn aggregate_covered(grid: &ScenarioGrid, outcomes: &[ScenarioOutcome]) -> CampaignReport {
    let replicates = grid.replicates as usize;
    let mut slots: Vec<Option<&ScenarioOutcome>> = vec![None; grid.scenario_count()];
    for o in outcomes {
        if let Some(slot) = slots.get_mut(o.id) {
            *slot = Some(o);
        }
    }
    let mut cell_reports = Vec::new();
    let mut covered = 0usize;
    for cell in 0..grid.cell_count() {
        let cell_slots = &slots[cell * replicates..(cell + 1) * replicates];
        if cell_slots.iter().all(Option::is_some) {
            let outcomes = cell_slots.iter().flatten().copied();
            cell_reports.push(aggregate_cell(grid.cell_key(cell), outcomes));
            covered += replicates;
        }
    }
    let ratios = overhead_ratios(&cell_reports);
    CampaignReport {
        master_seed: grid.master_seed,
        cells: grid.cell_count(),
        scenarios: covered,
        replicates: grid.replicates,
        cell_reports,
        ratios,
    }
}

/// Serialize a campaign report as JSON lines: one `campaign` header line,
/// one `cell` line per cell (cell order), one `ratio` line per matched
/// pair. Deterministic byte-for-byte for a given grid + master seed.
pub fn write_jsonl<W: Write>(report: &CampaignReport, out: &mut W) -> io::Result<()> {
    let header = serde_json::Value::Map(vec![
        ("kind".into(), serde_json::Value::Str("campaign".into())),
        (
            "master_seed".into(),
            serde_json::Value::U64(report.master_seed),
        ),
        ("cells".into(), serde_json::Value::U64(report.cells as u64)),
        (
            "scenarios".into(),
            serde_json::Value::U64(report.scenarios as u64),
        ),
        (
            "replicates".into(),
            serde_json::Value::U64(report.replicates as u64),
        ),
    ]);
    writeln!(
        out,
        "{}",
        serde_json::to_string(&header).expect("header to_string")
    )?;
    for cell in &report.cell_reports {
        writeln!(out, "{}", tagged_line("cell", cell))?;
    }
    for ratio in &report.ratios {
        writeln!(out, "{}", tagged_line("ratio", ratio))?;
    }
    Ok(())
}

/// Render the full report to a string (used by tests and the CLI).
pub fn to_jsonl_string(report: &CampaignReport) -> String {
    let mut buf = Vec::new();
    write_jsonl(report, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("JSON output is UTF-8")
}

/// One JSONL line: the record's fields prefixed with a `kind` tag.
fn tagged_line<T: serde::Serialize>(kind: &str, record: &T) -> String {
    let mut value = serde_json::to_value(record).expect("record to_value");
    if let serde_json::Value::Map(entries) = &mut value {
        entries.insert(0, ("kind".to_string(), serde_json::Value::Str(kind.into())));
    }
    serde_json::to_string(&value).expect("record to_string")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::derive_seed;
    use qnet_core::classical::KnowledgeModel;
    use qnet_core::workload::PairSelection;

    fn key(cell: usize, mode: PolicyId, d: f64) -> CellKey {
        CellKey {
            cell,
            topology: "cycle-7".into(),
            nodes: 7,
            mode,
            distillation: d,
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

    fn outcome(id: usize, cell: usize, replicate: u32, overhead: Option<f64>) -> ScenarioOutcome {
        ScenarioOutcome {
            id,
            cell,
            replicate,
            seed: derive_seed(1, cell as u64, replicate as u64),
            swap_overhead: overhead,
            satisfied_requests: 6,
            arrived_requests: 6,
            unsatisfied_requests: 0,
            swaps_performed: 10,
            pairs_generated: 40,
            simulated_seconds: 100.0,
            count_update_messages: 5,
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

    #[test]
    fn cell_aggregation_statistics() {
        let outcomes: Vec<ScenarioOutcome> = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .iter()
            .enumerate()
            .map(|(i, &x)| outcome(i, 0, i as u32, Some(x)))
            .collect();
        let report = aggregate_cell(key(0, PolicyId::OBLIVIOUS, 1.0), &outcomes);
        assert_eq!(report.replicates, 8);
        assert_eq!(report.overhead_samples, 8);
        assert!((report.overhead_mean.unwrap() - 5.0).abs() < 1e-12);
        assert!((report.overhead_variance.unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(report.overhead_min, Some(2.0));
        assert_eq!(report.overhead_max, Some(9.0));
        assert_eq!(report.overhead_p50, Some(4.0));
        assert_eq!(report.overhead_p90, Some(9.0));
        assert!(report.overhead_ci95.unwrap() > 0.0);
        assert_eq!(report.swaps_total, 80);
        assert_eq!(report.satisfaction_mean, 1.0);
    }

    #[test]
    fn none_overheads_are_excluded_from_stats_but_not_totals() {
        let outcomes = vec![
            outcome(0, 0, 0, Some(3.0)),
            outcome(1, 0, 1, None),
            outcome(2, 0, 2, Some(5.0)),
        ];
        let report = aggregate_cell(key(0, PolicyId::OBLIVIOUS, 1.0), &outcomes);
        assert_eq!(report.replicates, 3);
        assert_eq!(report.overhead_samples, 2);
        assert!((report.overhead_mean.unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(report.swaps_total, 30);
    }

    #[test]
    fn empty_cell_report_is_well_formed() {
        let report = aggregate_cell(key(0, PolicyId::OBLIVIOUS, 1.0), &[]);
        assert_eq!(report.overhead_samples, 0);
        assert!(report.overhead_mean.is_none());
        assert!(report.overhead_p50.is_none());
        assert_eq!(report.satisfaction_mean, 1.0);
    }

    #[test]
    fn ratio_pairs_matching_cells_only() {
        let mut oblivious = aggregate_cell(
            key(0, PolicyId::OBLIVIOUS, 1.0),
            &[outcome(0, 0, 0, Some(6.0))],
        );
        let mut planned = aggregate_cell(
            key(1, PolicyId::PLANNED, 1.0),
            &[outcome(1, 1, 0, Some(2.0))],
        );
        let other_d = aggregate_cell(
            key(2, PolicyId::PLANNED, 2.0),
            &[outcome(2, 2, 0, Some(2.0))],
        );
        let rows = overhead_ratios(&[oblivious.clone(), planned.clone(), other_d]);
        assert_eq!(rows.len(), 1, "only the matching-D pair forms a ratio");
        assert!((rows[0].ratio - 3.0).abs() < 1e-12);
        assert_eq!(rows[0].numerator_mode, PolicyId::OBLIVIOUS);

        // No ratio when either side lacks samples.
        oblivious.overhead_mean = None;
        assert!(overhead_ratios(&[oblivious.clone(), planned.clone()]).is_empty());
        oblivious.overhead_mean = Some(6.0);
        planned.overhead_mean = None;
        assert!(overhead_ratios(&[oblivious, planned]).is_empty());
    }

    #[test]
    fn latency_columns_aggregate_through_running_stats() {
        use qnet_core::workload::TrafficModel;
        let mut open_key = key(0, PolicyId::OBLIVIOUS, 1.0);
        open_key.traffic = Some(TrafficModel::OpenLoopPoisson {
            rate_hz: 2.0,
            horizon_s: 3.0,
        });
        let outcomes: Vec<ScenarioOutcome> = [(2.0, 1.5, 4.0), (4.0, 2.5, 8.0)]
            .iter()
            .enumerate()
            .map(|(i, &(mean, p50, p95))| ScenarioOutcome {
                latency_mean_s: Some(mean),
                latency_p50_s: Some(p50),
                latency_p95_s: Some(p95),
                ..outcome(i, 0, i as u32, Some(3.0))
            })
            .collect();
        let report = aggregate_cell(open_key, &outcomes);
        assert!((report.latency_mean_s.unwrap() - 3.0).abs() < 1e-12);
        assert!((report.latency_p50_s.unwrap() - 2.0).abs() < 1e-12);
        assert!((report.latency_p95_s.unwrap() - 6.0).abs() < 1e-12);
        // CI95 comes from the shared RunningStats machinery.
        let mut stats = RunningStats::new();
        stats.record(2.0);
        stats.record(4.0);
        assert_eq!(report.latency_ci95_s, stats.ci95_half_width());

        // Serialized open-loop rows carry the latency columns and the
        // traffic descriptor…
        let line = tagged_line("cell", &report);
        assert!(line.contains("\"latency_p95_s\""));
        assert!(line.contains("\"OpenLoopPoisson\""));
        // …and closed-loop rows keep the legacy byte layout (no latency
        // keys, no traffic key).
        let closed = aggregate_cell(
            key(0, PolicyId::OBLIVIOUS, 1.0),
            &[outcome(0, 0, 0, Some(3.0))],
        );
        let closed_line = tagged_line("cell", &closed);
        assert!(!closed_line.contains("latency"));
        assert!(!closed_line.contains("traffic"));
        // Deserialization tolerates both layouts.
        let back: CellReport = serde_json::from_str(&line).unwrap();
        assert_eq!(back.latency_p50_s, report.latency_p50_s);
        let back_closed: CellReport = serde_json::from_str(&closed_line).unwrap();
        assert_eq!(back_closed.latency_p50_s, None);
    }

    #[test]
    fn fidelity_columns_aggregate_through_running_stats() {
        use qnet_core::physics::PhysicsModel;
        let mut physical_key = key(0, PolicyId::OBLIVIOUS, 1.0);
        physical_key.physics = Some(PhysicsModel::decoherent(0.5).with_fidelity_floor(0.7));
        let outcomes: Vec<ScenarioOutcome> = [(0.9, 0.88, 0.95, 10, 2), (0.7, 0.72, 0.85, 30, 4)]
            .iter()
            .enumerate()
            .map(
                |(i, &(mean, p50, p95, expired, rejected))| ScenarioOutcome {
                    fidelity_mean: Some(mean),
                    fidelity_p50: Some(p50),
                    fidelity_p95: Some(p95),
                    expired_pairs: expired,
                    fidelity_rejected: rejected,
                    ..outcome(i, 0, i as u32, Some(3.0))
                },
            )
            .collect();
        let report = aggregate_cell(physical_key, &outcomes);
        assert!((report.fidelity_mean.unwrap() - 0.8).abs() < 1e-12);
        assert!((report.fidelity_p50.unwrap() - 0.8).abs() < 1e-12);
        assert!((report.fidelity_p95.unwrap() - 0.9).abs() < 1e-12);
        assert_eq!(report.expired_pairs_total, 40);
        assert_eq!(report.fidelity_rejected_total, 6);
        let mut stats = RunningStats::new();
        stats.record(0.9);
        stats.record(0.7);
        assert_eq!(report.fidelity_ci95, stats.ci95_half_width());

        // Serialized decoherent rows carry the fidelity columns and the
        // physics descriptor…
        let line = tagged_line("cell", &report);
        assert!(line.contains("\"fidelity_p95\""));
        assert!(line.contains("\"expired_pairs_total\""));
        assert!(line.contains("\"Decoherent\""));
        // …and ideal rows keep the legacy byte layout.
        let ideal = aggregate_cell(
            key(0, PolicyId::OBLIVIOUS, 1.0),
            &[outcome(0, 0, 0, Some(3.0))],
        );
        let ideal_line = tagged_line("cell", &ideal);
        assert!(!ideal_line.contains("fidelity"));
        assert!(!ideal_line.contains("expired"));
        assert!(!ideal_line.contains("physics"));
        // Deserialization tolerates both layouts.
        let back: CellReport = serde_json::from_str(&line).unwrap();
        assert_eq!(back.fidelity_p50, report.fidelity_p50);
        assert_eq!(back.expired_pairs_total, 40);
        let back_ideal: CellReport = serde_json::from_str(&ideal_line).unwrap();
        assert_eq!(back_ideal.fidelity_mean, None);
        assert_eq!(back_ideal.expired_pairs_total, 0);
    }

    #[test]
    fn ratios_do_not_pair_across_physics_models() {
        use qnet_core::physics::PhysicsModel;
        let oblivious = aggregate_cell(
            key(0, PolicyId::OBLIVIOUS, 1.0),
            &[outcome(0, 0, 0, Some(6.0))],
        );
        let mut decoherent_planned_key = key(1, PolicyId::PLANNED, 1.0);
        decoherent_planned_key.physics = Some(PhysicsModel::decoherent(1.0));
        let planned = aggregate_cell(decoherent_planned_key, &[outcome(1, 1, 0, Some(2.0))]);
        assert!(
            overhead_ratios(&[oblivious, planned]).is_empty(),
            "ideal numerator must not pair with a decoherent denominator"
        );
    }

    #[test]
    fn ratios_do_not_pair_across_traffic_models() {
        use qnet_core::workload::TrafficModel;
        let oblivious = aggregate_cell(
            key(0, PolicyId::OBLIVIOUS, 1.0),
            &[outcome(0, 0, 0, Some(6.0))],
        );
        let mut open_planned_key = key(1, PolicyId::PLANNED, 1.0);
        open_planned_key.traffic = Some(TrafficModel::OpenLoopPoisson {
            rate_hz: 1.0,
            horizon_s: 6.0,
        });
        let planned = aggregate_cell(open_planned_key, &[outcome(1, 1, 0, Some(2.0))]);
        assert!(
            overhead_ratios(&[oblivious, planned]).is_empty(),
            "closed-loop numerator must not pair with an open-loop denominator"
        );
    }

    #[test]
    fn ratios_pair_only_keys_equal_apart_from_cell_and_mode() {
        use qnet_core::physics::PhysicsModel;
        use qnet_core::workload::TrafficModel;
        use qnet_topology::{FabricSpec, HardwarePreset};
        let oblivious = aggregate_cell(
            key(0, PolicyId::OBLIVIOUS, 1.0),
            &[outcome(0, 0, 0, Some(6.0))],
        );
        let planned = |key| aggregate_cell(key, &[outcome(1, 1, 0, Some(2.0))]);
        let base = key(1, PolicyId::PLANNED, 1.0);
        // One row per non-mode key field: a planned twin that differs from
        // the oblivious cell in that field alone must not pair with it.
        for (field, den_key) in [
            (
                "topology",
                CellKey {
                    topology: "torus-3x3".into(),
                    ..base.clone()
                },
            ),
            (
                "nodes",
                CellKey {
                    nodes: 9,
                    ..base.clone()
                },
            ),
            (
                "distillation",
                CellKey {
                    distillation: 2.0,
                    ..base.clone()
                },
            ),
            (
                "knowledge",
                CellKey {
                    knowledge: KnowledgeModel::Gossip {
                        peers_per_refresh: 2,
                        refresh_period_s: 0.0,
                    },
                    ..base.clone()
                },
            ),
            (
                "consumer_pairs",
                CellKey {
                    consumer_pairs: 4,
                    ..base.clone()
                },
            ),
            (
                "requests",
                CellKey {
                    requests: 7,
                    ..base.clone()
                },
            ),
            (
                "discipline",
                CellKey {
                    discipline: PairSelection::RoundRobin,
                    ..base.clone()
                },
            ),
            (
                "coherence_time_s",
                CellKey {
                    coherence_time_s: Some(5.0),
                    ..base.clone()
                },
            ),
            (
                "physics",
                CellKey {
                    physics: Some(PhysicsModel::decoherent(1.0)),
                    ..base.clone()
                },
            ),
            (
                "traffic",
                CellKey {
                    traffic: Some(TrafficModel::OpenLoopPoisson {
                        rate_hz: 1.0,
                        horizon_s: 6.0,
                    }),
                    ..base.clone()
                },
            ),
            (
                "fabric",
                CellKey {
                    fabric: Some(FabricSpec::new(HardwarePreset::Lab)),
                    ..base.clone()
                },
            ),
        ] {
            assert!(
                overhead_ratios(&[oblivious.clone(), planned(den_key)]).is_empty(),
                "cells differing in {field} must not pair"
            );
        }
        // The twin equal apart from cell and mode pairs.
        assert_eq!(overhead_ratios(&[oblivious, planned(base)]).len(), 1);
    }

    #[test]
    fn aggregate_covered_reports_complete_cells_only() {
        use crate::runner::{run_campaign, RunnerConfig};
        use qnet_core::workload::WorkloadSpec;
        use qnet_topology::Topology;
        let grid = ScenarioGrid::new(13)
            .with_topologies(vec![Topology::Cycle { nodes: 5 }])
            .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::HYBRID])
            .with_workloads(vec![WorkloadSpec::closed_loop(0, 4, 4)])
            .with_replicates(3)
            .with_horizon_s(400.0);
        let full = run_campaign(&grid, &RunnerConfig::serial());

        // Full coverage reproduces `aggregate` exactly, even from shuffled
        // input.
        let mut shuffled = full.outcomes.clone();
        shuffled.reverse();
        let covered = aggregate_covered(&grid, &shuffled);
        assert_eq!(
            to_jsonl_string(&covered),
            to_jsonl_string(&aggregate(&grid, &full))
        );

        // Cell 0 complete, cell 1 missing a replicate → one cell report,
        // covered count excludes the incomplete cell.
        let partial: Vec<ScenarioOutcome> = full
            .outcomes
            .iter()
            .filter(|o| o.id != 4)
            .cloned()
            .collect();
        let report = aggregate_covered(&grid, &partial);
        assert_eq!(report.cell_reports.len(), 1);
        assert_eq!(report.cell_reports[0].key.cell, 0);
        assert_eq!(report.scenarios, 3);
        assert_eq!(report.cells, grid.cell_count());
        assert!(report.ratios.is_empty(), "the hybrid cell is incomplete");

        // No coverage at all → an empty (but well-formed) report.
        let empty = aggregate_covered(&grid, &[]);
        assert!(empty.cell_reports.is_empty());
        assert_eq!(empty.scenarios, 0);
    }

    #[test]
    fn jsonl_round_trips_and_is_tagged() {
        let cell = aggregate_cell(
            key(0, PolicyId::OBLIVIOUS, 1.0),
            &[outcome(0, 0, 0, Some(3.0)), outcome(1, 0, 1, Some(5.0))],
        );
        let report = CampaignReport {
            master_seed: 9,
            cells: 1,
            scenarios: 2,
            replicates: 2,
            cell_reports: vec![cell],
            ratios: vec![],
        };
        let text = to_jsonl_string(&report);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let header: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(header["kind"], "campaign");
        assert_eq!(header["scenarios"], 2);
        let cell_line: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(cell_line["kind"], "cell");
        assert_eq!(cell_line["key"]["topology"], "cycle-7");
        assert_eq!(cell_line["overhead_samples"], 2);
    }
}
