//! The parallel campaign runner: work-chunked threads over a scenario grid.
//!
//! Scenarios are embarrassingly parallel (each `Experiment` is a
//! self-contained, seeded, single-threaded simulation), so the runner is a
//! classic chunked work-stealing pool built from `std::thread` and an
//! atomic cursor — no external dependencies:
//!
//! * the scenario id space `0..n` is claimed in contiguous chunks via a
//!   shared [`AtomicUsize`], which keeps cache-friendly locality and makes
//!   the claim operation a single `fetch_add`,
//! * workers re-materialise each [`crate::grid::Scenario`] from the grid by
//!   id (the grid
//!   is `Sync`; materialisation is cheap relative to a simulation run), run
//!   it, and send `(id, outcome)` back over an [`mpsc`] channel,
//! * the collector stores outcomes into a dense `Vec` slot per id.
//!
//! **Determinism:** outcomes carry no wall-clock data, every scenario's seed
//! comes from the grid (not from execution order), and downstream
//! aggregation consumes outcomes strictly in id order. Running with 1 or N
//! threads therefore produces byte-identical reports — the property the
//! `campaign_determinism` tests pin down.

use crate::cache::OutcomeCache;
use crate::grid::ScenarioGrid;
use qnet_core::experiment::{Experiment, ExperimentResult};
use qnet_core::metrics::is_zero;
use serde::{Deserialize, Serialize};
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// How the runner schedules work.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunnerConfig {
    /// Worker threads. `0` means "use available parallelism".
    pub threads: usize,
    /// Scenario ids claimed per cursor fetch. `0` picks a chunk size that
    /// gives each thread ~8 claims, clamped to `[1, 64]`.
    pub chunk_size: usize,
}

impl RunnerConfig {
    /// A serial runner (one worker, useful as the determinism baseline).
    pub fn serial() -> Self {
        RunnerConfig {
            threads: 1,
            chunk_size: 0,
        }
    }

    /// A runner with an explicit thread count.
    pub fn with_threads(threads: usize) -> Self {
        RunnerConfig {
            threads,
            chunk_size: 0,
        }
    }

    fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    fn resolved_chunk(&self, scenarios: usize, threads: usize) -> usize {
        if self.chunk_size > 0 {
            self.chunk_size
        } else {
            (scenarios / (threads * 8).max(1)).clamp(1, 64)
        }
    }
}

/// The outcome of one scenario: the replicate coordinates plus the scalar
/// measurements aggregation consumes. Deliberately wall-clock-free so
/// reports are deterministic.
///
/// Serialization: the physics columns — `fidelity_*`, `expired_pairs`,
/// `fidelity_rejected` — and the staleness columns are emitted only when
/// populated, so ideal-physics outcomes keep the exact legacy byte layout
/// in cache and shard files, and legacy lines load with those columns
/// empty. `swap_overhead` and the `latency_*` columns are always written,
/// as `null` when empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Scenario id.
    pub id: usize,
    /// Cell the scenario belongs to.
    pub cell: usize,
    /// Replicate index within the cell.
    pub replicate: u32,
    /// The derived seed the run used.
    pub seed: u64,
    /// The paper's swap-overhead metric (`None` if the denominator was 0).
    pub swap_overhead: Option<f64>,
    /// Satisfied requests.
    pub satisfied_requests: usize,
    /// Requests injected into the system before the run ended.
    pub arrived_requests: u64,
    /// Requests still pending at the end.
    pub unsatisfied_requests: u64,
    /// Total swaps performed.
    pub swaps_performed: u64,
    /// Bell pairs generated.
    pub pairs_generated: u64,
    /// Simulated seconds the run covered.
    pub simulated_seconds: f64,
    /// Classical count-update messages (knowledge-model cost).
    pub count_update_messages: u64,
    /// Mean sojourn latency (arrival → satisfaction) in simulated seconds;
    /// populated for open-loop scenarios with at least one satisfaction.
    pub latency_mean_s: Option<f64>,
    /// Median sojourn latency (open-loop scenarios only).
    pub latency_p50_s: Option<f64>,
    /// 95th-percentile sojourn latency (open-loop scenarios only).
    pub latency_p95_s: Option<f64>,
    /// Mean delivered end-to-end fidelity (decoherent-physics scenarios
    /// with at least one satisfaction only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fidelity_mean: Option<f64>,
    /// Median delivered fidelity (decoherent-physics scenarios only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fidelity_p50: Option<f64>,
    /// 95th-percentile delivered fidelity (decoherent-physics scenarios
    /// only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fidelity_p95: Option<f64>,
    /// Stored pairs discarded by the physics cutoff (0 under ideal physics).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub expired_pairs: u64,
    /// Deliveries rejected for falling below the fidelity floor (0 under
    /// ideal physics).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub fidelity_rejected: u64,
    /// Believed-feasible actions that failed against drifted ground truth
    /// (0 outside stale-control-plane scenarios).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub missed_swaps: u64,
    /// Mean age (seconds) of the believed rows stale decisions consulted
    /// (stale-control-plane scenarios with at least one decision only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub stale_row_age_mean_s: Option<f64>,
    /// 95th-percentile believed-row age at decision time (stale scenarios
    /// only).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub stale_row_age_p95_s: Option<f64>,
    /// True when the run crossed the metrics recorder's exact-sample
    /// threshold: its latency/fidelity quantiles come from the fixed-memory
    /// log-bucketed sketch (~0.4 % relative value error) instead of exact
    /// nearest-rank. Emitted only when true, so small-run outcomes keep the
    /// legacy byte layout.
    #[serde(default, skip_serializing_if = "std::ops::Not::not")]
    pub sketch_quantiles: bool,
}

impl ScenarioOutcome {
    fn from_result(
        id: usize,
        cell: usize,
        replicate: u32,
        seed: u64,
        open_loop: bool,
        result: &ExperimentResult,
    ) -> Self {
        // Sojourn-latency columns are reported for open-loop traffic only:
        // closed-loop sojourns are measured from t = 0 and would just repeat
        // the satisfaction times (and emitting them would perturb the
        // byte-stable legacy report layout). One pass + one sort serves the
        // mean and both percentiles.
        let sojourn_stats = open_loop.then(|| result.metrics.sojourn_stats());
        ScenarioOutcome {
            id,
            cell,
            replicate,
            seed,
            swap_overhead: result.swap_overhead(),
            satisfied_requests: result.satisfied_requests,
            arrived_requests: result.metrics.arrived_requests,
            unsatisfied_requests: result.unsatisfied_requests,
            swaps_performed: result.swaps_performed,
            pairs_generated: result.metrics.pairs_generated,
            simulated_seconds: result.simulated_seconds,
            count_update_messages: result.metrics.classical.count_update_messages,
            latency_mean_s: sojourn_stats
                .as_ref()
                .filter(|stats| stats.count() > 0)
                .map(|stats| stats.mean()),
            latency_p50_s: if open_loop {
                result.metrics.sojourn_percentile(0.50)
            } else {
                None
            },
            latency_p95_s: if open_loop {
                result.metrics.sojourn_percentile(0.95)
            } else {
                None
            },
            // Delivered-fidelity columns: non-empty exactly when the
            // scenario ran decoherent physics and satisfied something (ideal
            // deliveries carry no fidelity), so ideal rows stay legacy.
            fidelity_mean: {
                let stats = result.metrics.fidelity_stats();
                (stats.count() > 0).then(|| stats.mean())
            },
            fidelity_p50: result.metrics.fidelity_percentile(0.50),
            fidelity_p95: result.metrics.fidelity_percentile(0.95),
            expired_pairs: result.metrics.expired_pairs,
            fidelity_rejected: result.metrics.fidelity_rejected_requests,
            missed_swaps: result.metrics.missed_swaps,
            stale_row_age_mean_s: result.metrics.stale_row_age_mean_s,
            stale_row_age_p95_s: result.metrics.stale_row_age_p95_s,
            sketch_quantiles: result.metrics.is_streamed(),
        }
    }

    /// Fraction of requests satisfied (fidelity-rejected deliveries count
    /// against the ratio, matching
    /// [`qnet_core::metrics::RunMetrics::satisfaction_ratio`]).
    pub fn satisfaction_ratio(&self) -> f64 {
        let total =
            self.satisfied_requests as u64 + self.unsatisfied_requests + self.fidelity_rejected;
        if total == 0 {
            1.0
        } else {
            self.satisfied_requests as f64 / total as f64
        }
    }
}

/// How one requested scenario's outcome was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeSource {
    /// The scenario's `Experiment` executed this run.
    Simulated,
    /// The outcome was served from the content-addressed cache.
    CacheHit,
}

/// One per-scenario progress event from a streaming run.
///
/// Events are deliberately **wall-clock-free**: the only ordering datum is
/// `seq`, a dense 0-based ordinal assigned as events are delivered. Any
/// consumer that persists or merges progress streams must order by sequence
/// number, never by timestamps — that is what keeps progress logging fully
/// outside the deterministic result path (reports stay byte-identical
/// whether or not anyone listens).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioEvent<'a> {
    /// Dense per-run event ordinal (`0..ids.len()`), the merge-order key.
    pub seq: u64,
    /// The scenario the event is about.
    pub id: usize,
    /// Whether the outcome was simulated or replayed from the cache.
    pub source: OutcomeSource,
    /// The outcome itself.
    pub outcome: &'a ScenarioOutcome,
}

/// Everything a campaign run produced: the outcome vector (id order) plus
/// execution metadata that is *not* part of the deterministic report.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// One outcome per executed scenario, in scenario-id order. A full run
    /// is dense over `0..grid.scenario_count()`; a shard run covers only
    /// the shard's ids.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Worker threads actually used (`0` when every outcome came from the
    /// cache or a merge and nothing simulated).
    pub threads_used: usize,
    /// Wall-clock seconds the run took (informational only; never written
    /// into deterministic reports).
    pub wall_seconds: f64,
    /// Scenarios whose `Experiment` actually executed this run.
    pub simulated: usize,
    /// Scenarios served from the outcome cache without simulating.
    pub cache_hits: usize,
}

/// Execute the scenarios named by `ids` (sorted, deduplicated) in parallel
/// and return their outcomes in the same order. `on_outcome(pos, outcome)`
/// fires from the collector as each outcome lands (completion order).
fn execute_ids(
    grid: &ScenarioGrid,
    config: &RunnerConfig,
    ids: &[usize],
    mut on_outcome: impl FnMut(usize, &ScenarioOutcome),
) -> Vec<ScenarioOutcome> {
    let total = ids.len();
    let threads = config.resolved_threads().min(total.max(1));
    let chunk = config.resolved_chunk(total, threads);

    let mut slots: Vec<Option<ScenarioOutcome>> = Vec::new();
    slots.resize_with(total, || None);

    if total > 0 {
        // The cursor claims positions in `ids`, not raw scenario ids, so
        // chunks stay contiguous (and cache-friendly) even for strided
        // shard id sets.
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, ScenarioOutcome)>();

        thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let cursor = &cursor;
                scope.spawn(move || loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= total {
                        return;
                    }
                    let end = (start + chunk).min(total);
                    for (pos, &id) in ids.iter().enumerate().take(end).skip(start) {
                        let scenario = grid.scenario(id);
                        let result = Experiment::new(scenario.config).run();
                        let outcome = ScenarioOutcome::from_result(
                            scenario.id,
                            scenario.cell,
                            scenario.replicate,
                            scenario.seed,
                            scenario.config.workload.is_open_loop(),
                            &result,
                        );
                        if tx.send((pos, outcome)).is_err() {
                            return;
                        }
                    }
                });
            }
            drop(tx);

            while let Ok((pos, outcome)) = rx.recv() {
                debug_assert!(
                    slots[pos].is_none(),
                    "duplicate outcome for scenario {}",
                    outcome.id
                );
                on_outcome(pos, &outcome);
                slots[pos] = Some(outcome);
            }
        });
    }

    slots
        .into_iter()
        .enumerate()
        .map(|(pos, slot)| {
            slot.unwrap_or_else(|| panic!("scenario {} produced no outcome", ids[pos]))
        })
        .collect()
}

/// Run the scenarios named by `ids` (must be strictly increasing and in
/// range), consulting `cache` before simulating and appending each fresh
/// outcome to it **as it completes**. The returned outcomes follow the
/// order of `ids`; cache hits skip the `Experiment` entirely.
///
/// `on_event` fires once per requested scenario with a dense, wall-clock-
/// free sequence number: cache hits first (in id order), then simulated
/// outcomes in completion order. Incremental cache appends mean a run
/// killed mid-way loses at most the scenarios still in flight — everything
/// already reported is replayable from the cache, which is what makes
/// orchestrated shard retries cheap.
pub fn run_scenarios_streaming(
    grid: &ScenarioGrid,
    config: &RunnerConfig,
    ids: &[usize],
    mut cache: Option<&mut OutcomeCache>,
    mut on_event: impl FnMut(ScenarioEvent<'_>),
) -> io::Result<CampaignResult> {
    let scenario_count = grid.scenario_count();
    assert!(
        ids.windows(2).all(|w| w[0] < w[1]),
        "scenario ids must be strictly increasing"
    );
    assert!(
        ids.last().is_none_or(|&last| last < scenario_count),
        "scenario id out of range"
    );
    let started = std::time::Instant::now();
    let total = ids.len();

    let mut slots: Vec<Option<ScenarioOutcome>> = Vec::new();
    slots.resize_with(total, || None);
    let mut misses: Vec<usize> = Vec::new();
    let mut miss_positions: Vec<usize> = Vec::new();
    if let Some(cache) = cache.as_deref() {
        for (pos, &id) in ids.iter().enumerate() {
            match cache.get(id) {
                Some(outcome) => slots[pos] = Some(outcome.clone()),
                None => {
                    misses.push(id);
                    miss_positions.push(pos);
                }
            }
        }
    } else {
        misses.extend_from_slice(ids);
        miss_positions.extend(0..total);
    }
    let cache_hits = total - misses.len();

    let mut seq: u64 = 0;
    for (pos, &id) in ids.iter().enumerate() {
        if let Some(outcome) = slots[pos].as_ref() {
            on_event(ScenarioEvent {
                seq,
                id,
                source: OutcomeSource::CacheHit,
                outcome,
            });
            seq += 1;
        }
    }

    // The append error is latched (not returned mid-run) so the already-
    // claimed simulations still drain; a broken cache then fails the run
    // after the workers join instead of deadlocking the channel.
    let mut append_error: Option<io::Error> = None;
    let fresh = execute_ids(grid, config, &misses, |_, outcome| {
        if append_error.is_none() {
            if let Some(cache) = cache.as_deref_mut() {
                if let Err(e) = cache.append(std::slice::from_ref(outcome)) {
                    append_error = Some(e);
                }
            }
        }
        on_event(ScenarioEvent {
            seq,
            id: outcome.id,
            source: OutcomeSource::Simulated,
            outcome,
        });
        seq += 1;
    });
    if let Some(e) = append_error {
        return Err(e);
    }
    let simulated = fresh.len();
    for (pos, outcome) in miss_positions.into_iter().zip(fresh) {
        slots[pos] = Some(outcome);
    }

    let outcomes: Vec<ScenarioOutcome> = slots
        .into_iter()
        .map(|slot| slot.expect("every requested scenario has an outcome"))
        .collect();

    // Worker threads actually spawned: execute_ids caps at one per miss,
    // and a fully-cached run spawns none.
    let threads_used = if simulated == 0 {
        0
    } else {
        config.resolved_threads().min(simulated)
    };
    Ok(CampaignResult {
        outcomes,
        threads_used,
        wall_seconds: started.elapsed().as_secs_f64(),
        simulated,
        cache_hits,
    })
}

/// Execute every scenario of `grid` and return outcomes in id order.
pub fn run_campaign(grid: &ScenarioGrid, config: &RunnerConfig) -> CampaignResult {
    let ids: Vec<usize> = (0..grid.scenario_count()).collect();
    run_scenarios_streaming(grid, config, &ids, None, |_| {})
        .expect("cacheless runs perform no I/O")
}

/// Run the full grid through an outcome cache: scenarios already cached are
/// served without simulating, fresh outcomes are appended to the cache, and
/// the aggregate report is byte-identical to an uncached run. A fully warm
/// cache makes this a zero-simulation replay (`simulated == 0`).
///
/// `on_progress(done, total)` fires once per scenario, cache hits included.
pub fn run_campaign_cached(
    grid: &ScenarioGrid,
    config: &RunnerConfig,
    cache: &mut OutcomeCache,
    mut on_progress: impl FnMut(usize, usize),
) -> io::Result<CampaignResult> {
    let ids: Vec<usize> = (0..grid.scenario_count()).collect();
    run_scenarios_streaming(grid, config, &ids, Some(cache), |event| {
        on_progress(event.seq as usize + 1, ids.len())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnet_core::policy::PolicyId;
    use qnet_core::workload::WorkloadSpec;
    use qnet_topology::Topology;

    fn tiny_grid(replicates: u32) -> ScenarioGrid {
        ScenarioGrid::new(11)
            .with_topologies(vec![Topology::Cycle { nodes: 5 }])
            .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::HYBRID])
            .with_workloads(vec![WorkloadSpec::closed_loop(0, 4, 4)])
            .with_replicates(replicates)
            .with_horizon_s(500.0)
    }

    #[test]
    fn runs_every_scenario_exactly_once() {
        let grid = tiny_grid(3);
        let result = run_campaign(&grid, &RunnerConfig::with_threads(4));
        assert_eq!(result.outcomes.len(), grid.scenario_count());
        for (i, o) in result.outcomes.iter().enumerate() {
            assert_eq!(o.id, i);
            assert_eq!(o.cell, i / 3);
        }
        assert!(result.wall_seconds >= 0.0);
        assert!(result.threads_used >= 1);
    }

    #[test]
    fn serial_and_parallel_outcomes_are_identical() {
        let grid = tiny_grid(2);
        let serial = run_campaign(&grid, &RunnerConfig::serial());
        let parallel = run_campaign(&grid, &RunnerConfig::with_threads(4));
        assert_eq!(serial.outcomes, parallel.outcomes);
    }

    #[test]
    fn progress_reaches_total() {
        let grid = tiny_grid(1);
        let ids: Vec<usize> = (0..grid.scenario_count()).collect();
        let mut done = 0;
        let result =
            run_scenarios_streaming(&grid, &RunnerConfig::with_threads(2), &ids, None, |_| {
                done += 1;
                assert!(done <= ids.len());
            })
            .unwrap();
        assert_eq!(done, grid.scenario_count());
        assert_eq!(result.outcomes.len(), grid.scenario_count());
    }

    #[test]
    fn outcome_satisfaction_ratio() {
        let grid = tiny_grid(1);
        let result = run_campaign(&grid, &RunnerConfig::serial());
        for o in &result.outcomes {
            let r = o.satisfaction_ratio();
            assert!((0.0..=1.0).contains(&r));
        }
    }

    #[test]
    fn open_loop_scenarios_carry_latency_closed_loop_do_not() {
        let grid = tiny_grid(1).with_workloads(vec![
            WorkloadSpec::closed_loop(0, 4, 4),
            WorkloadSpec::open_loop(0, 4, 0.05, 400.0),
        ]);
        let result = run_campaign(&grid, &RunnerConfig::serial());
        let keys: Vec<_> = (0..grid.cell_count()).map(|c| grid.cell_key(c)).collect();
        let mut open_with_latency = 0;
        for o in &result.outcomes {
            let open = keys[o.cell].traffic.is_some();
            if !open {
                assert_eq!(o.latency_mean_s, None);
                assert_eq!(o.latency_p50_s, None);
                assert_eq!(o.latency_p95_s, None);
            } else if o.satisfied_requests > 0 {
                let (mean, p50, p95) = (
                    o.latency_mean_s.unwrap(),
                    o.latency_p50_s.unwrap(),
                    o.latency_p95_s.unwrap(),
                );
                assert!(p50 <= p95 && mean >= 0.0);
                open_with_latency += 1;
            }
            assert!(o.arrived_requests >= o.satisfied_requests as u64);
        }
        assert!(
            open_with_latency > 0,
            "open-loop cells must satisfy requests"
        );
    }

    #[test]
    fn subset_runs_return_outcomes_in_id_order() {
        let grid = tiny_grid(3);
        let full = run_campaign(&grid, &RunnerConfig::serial());
        assert_eq!(full.simulated, grid.scenario_count());
        assert_eq!(full.cache_hits, 0);
        let ids = [1usize, 2, 5];
        let subset =
            run_scenarios_streaming(&grid, &RunnerConfig::serial(), &ids, None, |_| {}).unwrap();
        assert_eq!(subset.outcomes.len(), 3);
        for (pos, &id) in ids.iter().enumerate() {
            assert_eq!(subset.outcomes[pos], full.outcomes[id]);
        }
    }

    #[test]
    #[should_panic]
    fn unsorted_id_sets_are_rejected() {
        let grid = tiny_grid(1);
        let _ = run_scenarios_streaming(&grid, &RunnerConfig::serial(), &[2, 1], None, |_| {});
    }

    #[test]
    fn warm_cache_runs_simulate_nothing_and_match_cold_runs() {
        let dir =
            std::env::temp_dir().join(format!("qnet-runner-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = tiny_grid(2);
        let uncached = run_campaign(&grid, &RunnerConfig::serial());

        let mut cache = crate::cache::OutcomeCache::open(&dir, &grid).unwrap();
        let cold =
            run_campaign_cached(&grid, &RunnerConfig::serial(), &mut cache, |_, _| {}).unwrap();
        assert_eq!(cold.simulated, grid.scenario_count());
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.outcomes, uncached.outcomes);

        // A fresh cache handle replays the run from disk: zero simulations,
        // identical outcomes.
        let mut warm_cache = crate::cache::OutcomeCache::open(&dir, &grid).unwrap();
        let mut progress = Vec::new();
        let warm = run_campaign_cached(&grid, &RunnerConfig::serial(), &mut warm_cache, |d, t| {
            progress.push((d, t))
        })
        .unwrap();
        assert_eq!(warm.simulated, 0, "warm runs must not simulate");
        assert_eq!(warm.cache_hits, grid.scenario_count());
        assert_eq!(warm.outcomes, uncached.outcomes);
        let total = grid.scenario_count();
        assert_eq!(
            progress,
            (1..=total).map(|d| (d, total)).collect::<Vec<_>>(),
            "warm runs report every cache hit as a progress step"
        );

        // A cached subset run is served entirely from the warm cache.
        let mut partial = crate::cache::OutcomeCache::open(&dir, &grid).unwrap();
        let half: Vec<usize> = (0..grid.scenario_count())
            .filter(|id| id % 2 == 0)
            .collect();
        let half_run = run_scenarios_streaming(
            &grid,
            &RunnerConfig::serial(),
            &half,
            Some(&mut partial),
            |_| {},
        )
        .unwrap();
        assert_eq!(half_run.simulated, 0);
        assert_eq!(half_run.cache_hits, half.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_events_carry_dense_sequence_numbers() {
        let dir =
            std::env::temp_dir().join(format!("qnet-runner-stream-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let grid = tiny_grid(2);
        let ids: Vec<usize> = (0..grid.scenario_count()).collect();

        // Prime the cache with the even-id half of the grid.
        let even: Vec<usize> = ids.iter().copied().filter(|id| id % 2 == 0).collect();
        let mut cache = crate::cache::OutcomeCache::open(&dir, &grid).unwrap();
        run_scenarios_streaming(
            &grid,
            &RunnerConfig::serial(),
            &even,
            Some(&mut cache),
            |_| {},
        )
        .unwrap();

        // The mixed run replays the evens and simulates the odds; events
        // are wall-clock-free and densely sequenced, cache hits first in
        // id order.
        let mut cache = crate::cache::OutcomeCache::open(&dir, &grid).unwrap();
        let mut events: Vec<(u64, usize, OutcomeSource)> = Vec::new();
        let result = run_scenarios_streaming(
            &grid,
            &RunnerConfig::serial(),
            &ids,
            Some(&mut cache),
            |e| {
                assert_eq!(e.outcome.id, e.id);
                events.push((e.seq, e.id, e.source));
            },
        )
        .unwrap();
        assert_eq!(result.cache_hits, even.len());
        assert_eq!(result.simulated, ids.len() - even.len());
        assert_eq!(events.len(), ids.len());
        for (pos, (seq, _, _)) in events.iter().enumerate() {
            assert_eq!(*seq, pos as u64, "sequence numbers are dense from 0");
        }
        let hits: Vec<usize> = events
            .iter()
            .filter(|(_, _, s)| *s == OutcomeSource::CacheHit)
            .map(|(_, id, _)| *id)
            .collect();
        assert_eq!(hits, even, "cache hits stream first, in id order");

        // Incremental appends: the simulated odds are replayable from the
        // cache by a fresh handle.
        let warm = crate::cache::OutcomeCache::open(&dir, &grid).unwrap();
        assert_eq!(warm.len(), ids.len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunk_resolution_bounds() {
        let c = RunnerConfig::default();
        assert!(c.resolved_chunk(1000, 8) >= 1);
        assert!(c.resolved_chunk(0, 1) >= 1);
        assert_eq!(
            RunnerConfig {
                threads: 2,
                chunk_size: 5
            }
            .resolved_chunk(1000, 2),
            5
        );
    }
}
