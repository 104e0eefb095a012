//! Content-addressed scenario-outcome cache.
//!
//! Scenario seeds derive from `(master seed, environment, replicate)`, so a
//! [`ScenarioOutcome`] is a pure function of its grid cell — the same
//! scenario re-run always produces the same outcome. That purity makes
//! outcomes cacheable by content: the cache key is
//! `(grid fingerprint, scenario id)`, where the fingerprint
//! ([`ScenarioGrid::fingerprint`]) covers every axis value, the master seed
//! and the run parameters. Repeated sweeps become incremental (a warm run
//! executes zero simulations), and overlapping sweeps only pay for the cells
//! they add.
//!
//! ## On-disk layout
//!
//! One append-only JSONL file per grid under the cache directory:
//!
//! ```text
//! <cache-dir>/outcomes-<fingerprint-hex>.jsonl
//! ```
//!
//! Each line is a self-describing record:
//!
//! ```json
//! {"kind":"outcome","fingerprint":"<16 hex digits>","outcome":{...}}
//! ```
//!
//! The fingerprint inside every line is deliberately redundant with the file
//! name: a record is only served if its own fingerprint matches the grid
//! being run, so a file renamed, concatenated or corrupted by a partial
//! write cannot poison a report. Unreadable lines, fingerprint mismatches,
//! out-of-range scenario ids and records whose `(cell, replicate)`
//! coordinates disagree with their id are all **rejected** (counted, never
//! served) and the runner falls back to recomputation — a damaged cache
//! costs time, never correctness.
//!
//! ## The cache is a set keyed by scenario id
//!
//! Runner threads append each outcome as it completes, so the **order of
//! lines follows thread scheduling** and differs between two runs of the
//! same grid (even on the same thread count). Only the content is part of
//! the contract: the set of records, one per scenario id (later lines win
//! when an id repeats). Readers index records by id and never depend on
//! line order; anything that compares two cache files must compare them
//! canonically, sorted by scenario id. Reports aggregated from a cache are
//! ordered by id and stay byte-identical.
//!
//! Floats round-trip exactly through the JSONL encoding (shortest
//! round-trip formatting), so a report aggregated from cached outcomes is
//! **byte-identical** to one aggregated from fresh simulations — the
//! property the warm-run integration tests pin down.

use crate::grid::{GridFingerprint, ScenarioGrid};
use crate::runner::ScenarioOutcome;
use serde::{Deserialize, Serialize};
use std::fs::{self, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// One cache line: an outcome tagged with the grid fingerprint it belongs
/// to. The `kind` tag is added/checked at the JSONL layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheRecord {
    /// The grid the outcome was computed under.
    fingerprint: GridFingerprint,
    /// The cached outcome (carries its own scenario id).
    outcome: ScenarioOutcome,
}

/// Encode one outcome as a self-describing cache/shard JSONL line.
pub(crate) fn encode_outcome_line(
    fingerprint: GridFingerprint,
    outcome: &ScenarioOutcome,
) -> String {
    let record = CacheRecord {
        fingerprint,
        outcome: outcome.clone(),
    };
    let mut value = serde_json::to_value(&record).expect("record to_value");
    if let serde_json::Value::Map(entries) = &mut value {
        entries.insert(
            0,
            ("kind".to_string(), serde_json::Value::Str("outcome".into())),
        );
    }
    serde_json::to_string(&value).expect("record to_string")
}

/// Decode one outcome line, enforcing every integrity check the cache
/// relies on. Returns the outcome only if the line is well-formed JSON,
/// tagged `"kind":"outcome"`, carries the expected fingerprint, addresses a
/// scenario inside `0..scenario_count`, and its `(cell, replicate)`
/// coordinates are consistent with its id under `replicates`.
pub(crate) fn decode_outcome_line(
    line: &str,
    expected: GridFingerprint,
    scenario_count: usize,
    replicates: u32,
) -> Option<ScenarioOutcome> {
    let value: serde_json::Value = serde_json::from_str(line).ok()?;
    if value.get_field("kind").and_then(|k| k.as_str()) != Some("outcome") {
        return None;
    }
    let record: CacheRecord = serde_json::from_value(value).ok()?;
    if record.fingerprint != expected {
        return None;
    }
    let outcome = record.outcome;
    if outcome.id >= scenario_count {
        return None;
    }
    let replicates = replicates.max(1) as usize;
    if outcome.cell != outcome.id / replicates
        || outcome.replicate as usize != outcome.id % replicates
    {
        return None;
    }
    Some(outcome)
}

/// A loaded outcome cache for one specific grid.
///
/// Open with [`OutcomeCache::open`]; the runner consults it with
/// [`OutcomeCache::get`] before simulating a scenario and appends fresh
/// outcomes with [`OutcomeCache::append`]. See the module docs for the
/// on-disk layout and integrity rules.
#[derive(Debug)]
pub struct OutcomeCache {
    path: PathBuf,
    fingerprint: GridFingerprint,
    /// Dense slot per scenario id (`None` = not cached).
    entries: Vec<Option<ScenarioOutcome>>,
    /// Lines rejected while loading (corrupt, foreign or out-of-range).
    rejected_lines: usize,
}

impl OutcomeCache {
    /// Open (creating the directory if needed) the cache file for `grid`
    /// under `dir` and load every valid record. Damaged or foreign lines
    /// are counted in [`OutcomeCache::rejected_lines`] and skipped.
    pub fn open(dir: &Path, grid: &ScenarioGrid) -> io::Result<OutcomeCache> {
        fs::create_dir_all(dir)?;
        let fingerprint = grid.fingerprint();
        let path = dir.join(format!("outcomes-{}.jsonl", fingerprint.to_hex()));
        let scenario_count = grid.scenario_count();
        let mut entries: Vec<Option<ScenarioOutcome>> = Vec::new();
        entries.resize_with(scenario_count, || None);
        let mut rejected_lines = 0usize;

        match fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines() {
                    if line.is_empty() {
                        continue;
                    }
                    match decode_outcome_line(line, fingerprint, scenario_count, grid.replicates) {
                        // Later lines win, so a re-appended correction
                        // supersedes an earlier record.
                        Some(outcome) => {
                            let id = outcome.id;
                            entries[id] = Some(outcome);
                        }
                        None => rejected_lines += 1,
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }

        Ok(OutcomeCache {
            path,
            fingerprint,
            entries,
            rejected_lines,
        })
    }

    /// The cache file this cache reads and appends.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fingerprint of the grid this cache serves.
    pub fn fingerprint(&self) -> GridFingerprint {
        self.fingerprint
    }

    /// The cached outcome for scenario `id`, if present.
    pub fn get(&self, id: usize) -> Option<&ScenarioOutcome> {
        self.entries.get(id).and_then(Option::as_ref)
    }

    /// Number of cached outcomes.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// True if no outcome is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(Option::is_none)
    }

    /// Lines skipped while loading because they were corrupt, carried a
    /// foreign fingerprint, or addressed a scenario outside the grid.
    pub fn rejected_lines(&self) -> usize {
        self.rejected_lines
    }

    /// Append freshly computed outcomes to the cache file (and the
    /// in-memory index). Append-only: existing bytes are never rewritten,
    /// so concurrent readers and interrupted writers cannot lose data —
    /// at worst a truncated final line is rejected on the next load.
    pub fn append(&mut self, outcomes: &[ScenarioOutcome]) -> io::Result<()> {
        if outcomes.is_empty() {
            return Ok(());
        }
        let mut buf = String::new();
        for outcome in outcomes {
            buf.push_str(&encode_outcome_line(self.fingerprint, outcome));
            buf.push('\n');
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(buf.as_bytes())?;
        for outcome in outcomes {
            if let Some(slot) = self.entries.get_mut(outcome.id) {
                *slot = Some(outcome.clone());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnet_core::policy::PolicyId;
    use qnet_core::workload::WorkloadSpec;
    use qnet_topology::Topology;

    fn test_grid() -> ScenarioGrid {
        ScenarioGrid::new(5)
            .with_topologies(vec![Topology::Cycle { nodes: 5 }])
            .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::PLANNED])
            .with_workloads(vec![WorkloadSpec::closed_loop(0, 4, 4)])
            .with_replicates(2)
            .with_horizon_s(300.0)
    }

    fn outcome(id: usize, replicates: usize) -> ScenarioOutcome {
        ScenarioOutcome {
            id,
            cell: id / replicates,
            replicate: (id % replicates) as u32,
            seed: 42,
            swap_overhead: Some(1.25),
            satisfied_requests: 4,
            arrived_requests: 4,
            unsatisfied_requests: 0,
            swaps_performed: 7,
            pairs_generated: 30,
            simulated_seconds: 123.456,
            count_update_messages: 9,
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

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("qnet-cache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn outcomes_round_trip_through_the_cache_file() {
        let dir = temp_dir("roundtrip");
        let grid = test_grid();
        let mut cache = OutcomeCache::open(&dir, &grid).unwrap();
        assert!(cache.is_empty());
        assert_eq!(cache.rejected_lines(), 0);

        let written = vec![outcome(0, 2), outcome(3, 2)];
        cache.append(&written).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(0), Some(&written[0]));
        assert_eq!(cache.get(1), None);

        // A fresh open reads the same records back, bit-exact floats
        // included.
        let reopened = OutcomeCache::open(&dir, &grid).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get(3), Some(&written[1]));
        assert_eq!(reopened.rejected_lines(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn caches_are_isolated_by_fingerprint() {
        let dir = temp_dir("isolated");
        let grid_a = test_grid();
        let mut grid_b = test_grid();
        grid_b.master_seed += 1;
        let mut cache_a = OutcomeCache::open(&dir, &grid_a).unwrap();
        cache_a.append(&[outcome(0, 2)]).unwrap();
        // Different fingerprint → different file → nothing shared.
        let cache_b = OutcomeCache::open(&dir, &grid_b).unwrap();
        assert_ne!(cache_a.path(), cache_b.path());
        assert!(cache_b.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_lines_are_rejected_not_served() {
        let dir = temp_dir("poison");
        let grid = test_grid();
        let fingerprint = grid.fingerprint();
        let mut cache = OutcomeCache::open(&dir, &grid).unwrap();
        cache.append(&[outcome(1, 2)]).unwrap();
        let path = cache.path().to_path_buf();

        // Poison the file four ways: a foreign-fingerprint record, a
        // truncated line, an out-of-range scenario id, and coordinates that
        // disagree with the id.
        let mut grid_other = test_grid();
        grid_other.master_seed += 99;
        let foreign = encode_outcome_line(grid_other.fingerprint(), &outcome(0, 2));
        let valid = encode_outcome_line(fingerprint, &outcome(2, 2));
        let truncated = &valid[..valid.len() / 2];
        let out_of_range = encode_outcome_line(fingerprint, &outcome(grid.scenario_count(), 2));
        let mut mismatched = outcome(3, 2);
        mismatched.cell = 0; // id 3 belongs to cell 1 under 2 replicates
        let mismatched = encode_outcome_line(fingerprint, &mismatched);
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str(&format!(
            "{foreign}\n{truncated}\n{out_of_range}\n{mismatched}\nnot json at all\n"
        ));
        fs::write(&path, text).unwrap();

        let reopened = OutcomeCache::open(&dir, &grid).unwrap();
        assert_eq!(reopened.len(), 1, "only the healthy record survives");
        assert_eq!(reopened.get(1), Some(&outcome(1, 2)));
        assert_eq!(reopened.get(0), None);
        assert_eq!(reopened.get(2), None);
        assert_eq!(reopened.get(3), None);
        assert_eq!(reopened.rejected_lines(), 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_lines_supersede_earlier_ones() {
        let dir = temp_dir("supersede");
        let grid = test_grid();
        let mut cache = OutcomeCache::open(&dir, &grid).unwrap();
        let mut first = outcome(0, 2);
        first.swaps_performed = 1;
        let mut second = outcome(0, 2);
        second.swaps_performed = 2;
        cache.append(&[first]).unwrap();
        cache.append(&[second.clone()]).unwrap();
        let reopened = OutcomeCache::open(&dir, &grid).unwrap();
        assert_eq!(reopened.get(0), Some(&second));
        let _ = fs::remove_dir_all(&dir);
    }
}
