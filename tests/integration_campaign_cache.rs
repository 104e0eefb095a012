//! Workspace-level tests of the incremental campaign engine: the
//! content-addressed outcome cache, deterministic grid sharding and
//! resumable shard merging. The central contract, pinned byte-for-byte on
//! the CLI's default 108-scenario grid:
//!
//! cold single-process run ≡ warm (fully cached) run ≡ any `--shard I/N`
//! partition recombined with `merge_shards` — identical JSONL reports,
//! with the warm run executing **zero** simulations.

use qnet::campaign::{
    aggregate, merge_shards, read_shard, run_campaign, run_campaign_cached,
    run_scenarios_streaming, shard_to_string, to_jsonl_string, OutcomeCache, RunnerConfig,
    ScenarioGrid, ShardSpec,
};
use qnet::prelude::*;
use std::path::PathBuf;

/// The `campaign` CLI's default grid shape (3 topologies × 3 modes × 2 D ×
/// 6 replicates = 108 scenarios), at the CI smoke scale (6 requests,
/// 1000 s horizon) so the whole suite stays fast.
fn default_grid() -> ScenarioGrid {
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
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 10, 6)])
        .with_replicates(6)
        .with_horizon_s(1_000.0)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qnet-integration-cache-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn cold_warm_and_sharded_reports_are_byte_identical_on_the_default_grid() {
    let grid = default_grid();
    assert_eq!(grid.scenario_count(), 108, "the CLI's default grid");
    let dir = temp_dir("default-grid");

    // Cold run: everything simulates, the cache fills.
    let mut cache = OutcomeCache::open(&dir, &grid).unwrap();
    let cold = run_campaign_cached(&grid, &RunnerConfig::serial(), &mut cache, |_, _| {}).unwrap();
    assert_eq!(cold.simulated, 108);
    assert_eq!(cold.cache_hits, 0);
    let cold_jsonl = to_jsonl_string(&aggregate(&grid, &cold));

    // The cache matches an uncached run exactly.
    let uncached = run_campaign(&grid, &RunnerConfig::serial());
    assert_eq!(cold.outcomes, uncached.outcomes);

    // Warm run from a fresh cache handle: zero simulations, identical
    // bytes.
    let mut warm_cache = OutcomeCache::open(&dir, &grid).unwrap();
    assert_eq!(warm_cache.len(), 108);
    let warm = run_campaign_cached(
        &grid,
        &RunnerConfig::with_threads(4),
        &mut warm_cache,
        |_, _| {},
    )
    .unwrap();
    assert_eq!(warm.simulated, 0, "a fully warm run must not simulate");
    assert_eq!(warm.cache_hits, 108);
    let warm_jsonl = to_jsonl_string(&aggregate(&grid, &warm));
    assert_eq!(
        cold_jsonl, warm_jsonl,
        "cold and warm reports must match byte-for-byte"
    );

    // Shard the id space 3 ways (served from the warm cache), write
    // self-describing shard files, read them back, merge — byte-identical
    // again.
    let shards: Vec<_> = (0..3)
        .map(|i| {
            let spec = ShardSpec::new(i, 3).unwrap();
            let mut shard_cache = OutcomeCache::open(&dir, &grid).unwrap();
            let run = run_scenarios_streaming(
                &grid,
                &RunnerConfig::serial(),
                &spec.ids(grid.scenario_count()),
                Some(&mut shard_cache),
                |_| {},
            )
            .unwrap();
            assert_eq!(run.simulated, 0, "shards reuse the cache too");
            read_shard(&shard_to_string(&grid, spec, &run.outcomes)).unwrap()
        })
        .collect();
    let (merged_grid, merged) = merge_shards(shards).unwrap();
    assert_eq!(merged_grid, grid);
    let merged_jsonl = to_jsonl_string(&aggregate(&merged_grid, &merged));
    assert_eq!(
        cold_jsonl, merged_jsonl,
        "a 3-way shard partition must merge to the exact single-process report"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn freshly_executed_shard_partitions_merge_to_the_direct_report() {
    // Without any cache: shards genuinely execute their scenarios, and
    // every partition size recombines to the same bytes.
    let grid = ScenarioGrid::new(7)
        .with_topologies(vec![
            Topology::Cycle { nodes: 7 },
            Topology::RandomConnectedGrid { side: 3 },
        ])
        .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::PLANNED])
        .with_distillations(vec![1.0, 2.0])
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 6, 6)])
        .with_replicates(3)
        .with_horizon_s(1_500.0);
    let direct_jsonl = to_jsonl_string(&aggregate(
        &grid,
        &run_campaign(&grid, &RunnerConfig::serial()),
    ));
    for count in [2, 5] {
        let shards: Vec<_> = (0..count)
            .map(|i| {
                let spec = ShardSpec::new(i, count).unwrap();
                let run = run_scenarios_streaming(
                    &grid,
                    &RunnerConfig::with_threads(3),
                    &spec.ids(grid.scenario_count()),
                    None,
                    |_| {},
                )
                .unwrap();
                assert_eq!(run.simulated, run.outcomes.len());
                read_shard(&shard_to_string(&grid, spec, &run.outcomes)).unwrap()
            })
            .collect();
        let (merged_grid, merged) = merge_shards(shards).unwrap();
        let merged_jsonl = to_jsonl_string(&aggregate(&merged_grid, &merged));
        assert_eq!(direct_jsonl, merged_jsonl, "{count}-way partition");
    }
}

#[test]
fn poisoned_cache_entries_fall_back_to_recomputation_without_corrupting_the_report() {
    let grid = ScenarioGrid::new(23)
        .with_topologies(vec![Topology::Cycle { nodes: 5 }])
        .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::HYBRID])
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 4, 4)])
        .with_replicates(2)
        .with_horizon_s(500.0);
    let dir = temp_dir("poison");
    let reference_jsonl = to_jsonl_string(&aggregate(
        &grid,
        &run_campaign(&grid, &RunnerConfig::serial()),
    ));

    // Fill the cache, then damage it: truncate one record mid-line and
    // append garbage plus a record from a different grid.
    let mut cache = OutcomeCache::open(&dir, &grid).unwrap();
    run_campaign_cached(&grid, &RunnerConfig::serial(), &mut cache, |_, _| {}).unwrap();
    let path = cache.path().to_path_buf();
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), grid.scenario_count());
    let cut = lines[0].len() / 2;
    lines[0].truncate(cut); // truncated JSONL line
    lines.push("{\"kind\":\"outcome\"".to_string()); // unterminated JSON
    let foreign_grid = ScenarioGrid::new(24)
        .with_topologies(vec![Topology::Cycle { nodes: 5 }])
        .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::HYBRID])
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 4, 4)])
        .with_replicates(2)
        .with_horizon_s(500.0);
    let mut foreign_cache = OutcomeCache::open(&dir, &foreign_grid).unwrap();
    run_campaign_cached(
        &foreign_grid,
        &RunnerConfig::serial(),
        &mut foreign_cache,
        |_, _| {},
    )
    .unwrap();
    let foreign_text = std::fs::read_to_string(foreign_cache.path()).unwrap();
    lines.push(foreign_text.lines().next().unwrap().to_string()); // wrong fingerprint
    std::fs::write(&path, format!("{}\n", lines.join("\n"))).unwrap();

    // The damaged entries are rejected, the affected scenario recomputes,
    // and the report stays byte-identical.
    let mut damaged = OutcomeCache::open(&dir, &grid).unwrap();
    assert_eq!(damaged.rejected_lines(), 3);
    assert_eq!(damaged.len(), grid.scenario_count() - 1);
    let run = run_campaign_cached(&grid, &RunnerConfig::serial(), &mut damaged, |_, _| {}).unwrap();
    assert_eq!(run.simulated, 1, "only the poisoned scenario recomputes");
    assert_eq!(run.cache_hits, grid.scenario_count() - 1);
    assert_eq!(
        to_jsonl_string(&aggregate(&grid, &run)),
        reference_jsonl,
        "a damaged cache costs recomputation, never correctness"
    );

    // And the repair was persisted: the next open serves everything again.
    let repaired = OutcomeCache::open(&dir, &grid).unwrap();
    assert_eq!(repaired.len(), grid.scenario_count());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn out_of_range_cache_records_are_ignored_when_the_grid_shrinks() {
    // Cache a 2-replicate grid, then open the same directory with a
    // 1-replicate variant: the fingerprint differs, so nothing leaks
    // between the two files — and a hand-concatenated file with
    // out-of-range ids rejects cleanly.
    let grid_big = ScenarioGrid::new(9)
        .with_topologies(vec![Topology::Cycle { nodes: 5 }])
        .with_workloads(vec![WorkloadSpec::closed_loop(0, 4, 4)])
        .with_replicates(4)
        .with_horizon_s(300.0);
    let grid_small = grid_big.clone().with_replicates(2);
    let dir = temp_dir("shrink");

    let mut big_cache = OutcomeCache::open(&dir, &grid_big).unwrap();
    run_campaign_cached(
        &grid_big,
        &RunnerConfig::serial(),
        &mut big_cache,
        |_, _| {},
    )
    .unwrap();

    // Forge the small grid's cache from the big grid's records: same
    // line syntax, wrong fingerprint and out-of-range ids.
    let small_cache = OutcomeCache::open(&dir, &grid_small).unwrap();
    std::fs::copy(big_cache.path(), small_cache.path()).unwrap();
    let reopened = OutcomeCache::open(&dir, &grid_small).unwrap();
    assert!(reopened.is_empty(), "foreign records must not be served");
    assert_eq!(reopened.rejected_lines(), grid_big.scenario_count());

    // A run against the rejected cache recomputes and still matches the
    // direct report.
    let mut rejected = OutcomeCache::open(&dir, &grid_small).unwrap();
    let run = run_campaign_cached(
        &grid_small,
        &RunnerConfig::serial(),
        &mut rejected,
        |_, _| {},
    )
    .unwrap();
    assert_eq!(run.simulated, grid_small.scenario_count());
    assert_eq!(
        to_jsonl_string(&aggregate(&grid_small, &run)),
        to_jsonl_string(&aggregate(
            &grid_small,
            &run_campaign(&grid_small, &RunnerConfig::serial())
        )),
    );
    let _ = std::fs::remove_dir_all(&dir);
}
