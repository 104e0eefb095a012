//! Deterministic grid sharding and resumable shard merging.
//!
//! A [`ShardSpec`] `I/N` partitions the scenario id space by striding:
//! shard `I` owns every id with `id % N == I`. Striding (rather than
//! contiguous ranges) balances load across shards even when later cells are
//! systematically heavier (e.g. larger topologies sort last in the
//! expansion order), and the partition depends only on `(I, N)` — any
//! process, on any host, computes the same split.
//!
//! Each shard run writes a **self-describing shard file**: a JSONL header
//! carrying the grid descriptor, its fingerprint and the shard coordinates,
//! followed by one outcome line per scenario (the same record format the
//! outcome cache uses):
//!
//! ```text
//! {"kind":"shard","fingerprint":"…","shard":0,"shards":3,"scenarios":108,"grid":{…}}
//! {"kind":"outcome","fingerprint":"…","outcome":{…}}
//! …
//! ```
//!
//! [`merge_shards`] recombines shard files into the exact single-process
//! result: it re-derives each embedded grid, verifies that every header
//! fingerprint matches its own grid (and that all shards ran the *same*
//! grid), checks that the shard outcomes cover the id space exactly once,
//! and rebuilds the dense outcome vector. Aggregating that vector flows
//! through the same `RunningStats` / `ci95_half_width` machinery as a
//! single-process run, so the merged JSONL report is **byte-identical** to
//! it — the property the shard-merge integration tests and the CI smoke
//! job pin down.

use crate::cache::{decode_outcome_line, encode_outcome_line};
use crate::grid::{GridFingerprint, ScenarioGrid};
use crate::runner::{CampaignResult, ScenarioOutcome};
use serde::{Deserialize, Serialize};
use std::io::{self, Write};

/// One shard of an `N`-way deterministic partition of the scenario ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// This shard's index (`0 <= index < count`).
    pub index: usize,
    /// Total number of shards in the partition.
    pub count: usize,
}

impl ShardSpec {
    /// Build a shard spec, validating `index < count`.
    pub fn new(index: usize, count: usize) -> Result<ShardSpec, String> {
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shards (valid: 0..{count})"
            ));
        }
        Ok(ShardSpec { index, count })
    }

    /// Parse the CLI form `I/N` (e.g. `0/3`).
    pub fn parse(spec: &str) -> Result<ShardSpec, String> {
        let (index, count) = spec
            .split_once('/')
            .ok_or_else(|| format!("shard spec '{spec}' is not of the form I/N"))?;
        let index: usize = index
            .trim()
            .parse()
            .map_err(|_| format!("shard spec '{spec}': bad shard index"))?;
        let count: usize = count
            .trim()
            .parse()
            .map_err(|_| format!("shard spec '{spec}': bad shard count"))?;
        ShardSpec::new(index, count)
    }

    /// True if this shard owns scenario `id`.
    pub fn contains(&self, id: usize) -> bool {
        id % self.count == self.index
    }

    /// The scenario ids this shard owns, in increasing order.
    pub fn ids(&self, scenario_count: usize) -> Vec<usize> {
        (self.index..scenario_count).step_by(self.count).collect()
    }
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// A parsed, validated shard file: the grid it ran and its outcomes.
#[derive(Debug, Clone)]
pub struct ShardFile {
    /// The grid descriptor embedded in the header.
    pub grid: ScenarioGrid,
    /// The grid's fingerprint (verified against the embedded grid).
    pub fingerprint: GridFingerprint,
    /// Which shard of the partition this file holds.
    pub spec: ShardSpec,
    /// The shard's outcomes, in scenario-id order.
    pub outcomes: Vec<ScenarioOutcome>,
}

/// Serialize one shard's outcomes as a self-describing JSONL shard file.
///
/// `outcomes` must be exactly the outcomes of `spec.ids(grid.scenario_count())`,
/// in id order (the shard runner produces them in this shape).
pub fn write_shard<W: Write>(
    grid: &ScenarioGrid,
    spec: ShardSpec,
    outcomes: &[ScenarioOutcome],
    out: &mut W,
) -> io::Result<()> {
    let fingerprint = grid.fingerprint();
    let header = serde_json::Value::Map(vec![
        ("kind".into(), serde_json::Value::Str("shard".into())),
        (
            "fingerprint".into(),
            serde_json::Value::Str(fingerprint.to_hex()),
        ),
        ("shard".into(), serde_json::Value::U64(spec.index as u64)),
        ("shards".into(), serde_json::Value::U64(spec.count as u64)),
        (
            "scenarios".into(),
            serde_json::Value::U64(grid.scenario_count() as u64),
        ),
        (
            "grid".into(),
            serde_json::to_value(grid).expect("grid to_value"),
        ),
    ]);
    writeln!(
        out,
        "{}",
        serde_json::to_string(&header).expect("header to_string")
    )?;
    for outcome in outcomes {
        writeln!(out, "{}", encode_outcome_line(fingerprint, outcome))?;
    }
    Ok(())
}

/// Render a shard file to a string (used by the CLI and tests).
pub fn shard_to_string(
    grid: &ScenarioGrid,
    spec: ShardSpec,
    outcomes: &[ScenarioOutcome],
) -> String {
    let mut buf = Vec::new();
    write_shard(grid, spec, outcomes, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("JSON output is UTF-8")
}

/// Parse and validate one shard file.
///
/// Rejects (with a human-readable error): a missing or malformed header, a
/// header fingerprint that does not match the embedded grid (a corrupted or
/// hand-edited descriptor), outcome lines that fail the cache-layer
/// integrity checks, outcomes outside this shard's stride, duplicate ids,
/// and a file that does not contain exactly its shard's outcomes.
pub fn read_shard(text: &str) -> Result<ShardFile, String> {
    let mut lines = text.lines().filter(|l| !l.is_empty());
    let header_line = lines.next().ok_or("shard file is empty")?;
    let header: serde_json::Value =
        serde_json::from_str(header_line).map_err(|e| format!("shard header: {e}"))?;
    if header.get_field("kind").and_then(|k| k.as_str()) != Some("shard") {
        return Err("first line is not a shard header".to_string());
    }
    let grid: ScenarioGrid = serde_json::from_value(
        header
            .get_field("grid")
            .ok_or("shard header lacks a grid descriptor")?
            .clone(),
    )
    .map_err(|e| format!("shard header grid: {e}"))?;
    grid.check()
        .map_err(|e| format!("shard header grid: {e}"))?;
    let fingerprint = GridFingerprint::parse_hex(
        header
            .get_field("fingerprint")
            .and_then(|f| f.as_str())
            .ok_or("shard header lacks a fingerprint")?,
    )?;
    if fingerprint != grid.fingerprint() {
        return Err(format!(
            "shard header fingerprint {fingerprint} does not match its grid descriptor \
             ({}): corrupted or edited shard file",
            grid.fingerprint()
        ));
    }
    let spec = ShardSpec::new(
        header["shard"]
            .as_u64()
            .ok_or("shard header lacks a shard index")? as usize,
        header["shards"]
            .as_u64()
            .ok_or("shard header lacks a shard count")? as usize,
    )?;
    let scenario_count = grid.scenario_count();
    if header["scenarios"] != scenario_count as u64 {
        return Err(format!(
            "shard header claims {} scenarios but the grid expands to {scenario_count}",
            header["scenarios"].as_u64().unwrap_or(0)
        ));
    }

    let expected_ids = spec.ids(scenario_count);
    let mut outcomes: Vec<Option<ScenarioOutcome>> = vec![None; expected_ids.len()];
    for (line_no, line) in lines.enumerate() {
        let outcome = decode_outcome_line(line, fingerprint, scenario_count, grid.replicates)
            .ok_or_else(|| format!("shard outcome line {} is invalid", line_no + 2))?;
        if !spec.contains(outcome.id) {
            return Err(format!(
                "scenario {} does not belong to shard {spec}",
                outcome.id
            ));
        }
        let slot = outcome.id / spec.count;
        if outcomes[slot].is_some() {
            return Err(format!("duplicate outcome for scenario {}", outcome.id));
        }
        outcomes[slot] = Some(outcome);
    }
    let outcomes: Vec<ScenarioOutcome> = outcomes
        .into_iter()
        .enumerate()
        .map(|(slot, o)| {
            o.ok_or_else(|| {
                format!(
                    "shard {spec} is missing the outcome for scenario {}",
                    expected_ids[slot]
                )
            })
        })
        .collect::<Result<_, _>>()?;

    Ok(ShardFile {
        grid,
        fingerprint,
        spec,
        outcomes,
    })
}

/// Merge a complete set of shard files back into the single-process result.
///
/// Validates that every shard ran the same grid (equal fingerprints *and*
/// descriptors), that the shard coordinates form one complete `N`-way
/// partition (every index `0..N` present exactly once), and that the union
/// of outcomes covers the scenario id space exactly once. Returns the grid
/// and a dense [`CampaignResult`] whose aggregation (through the standard
/// `RunningStats`/`ci95_half_width` path) is byte-identical to a
/// single-process run.
pub fn merge_shards(shards: Vec<ShardFile>) -> Result<(ScenarioGrid, CampaignResult), String> {
    let first = shards.first().ok_or("no shard files to merge")?;
    let fingerprint = first.fingerprint;
    let grid = first.grid.clone();
    let count = first.spec.count;
    if shards.len() != count {
        return Err(format!(
            "partition is {count}-way but {} shard file(s) were provided",
            shards.len()
        ));
    }
    let mut seen = vec![false; count];
    for shard in &shards {
        if shard.fingerprint != fingerprint || shard.grid != grid {
            return Err(format!(
                "shard {} ran grid {} but shard {} ran grid {fingerprint}: \
                 refusing to merge different sweeps",
                shard.spec, shard.fingerprint, first.spec
            ));
        }
        if shard.spec.count != count {
            return Err(format!(
                "shard {} disagrees on the partition size ({} vs {count})",
                shard.spec, shard.spec.count
            ));
        }
        if seen[shard.spec.index] {
            return Err(format!("shard index {} appears twice", shard.spec.index));
        }
        seen[shard.spec.index] = true;
    }

    let scenario_count = grid.scenario_count();
    let mut slots: Vec<Option<ScenarioOutcome>> = vec![None; scenario_count];
    for shard in shards {
        for outcome in shard.outcomes {
            // read_shard established per-shard completeness and stride
            // membership; the index check here guards the cross-shard union.
            let id = outcome.id;
            debug_assert!(slots[id].is_none());
            slots[id] = Some(outcome);
        }
    }
    let outcomes: Vec<ScenarioOutcome> = slots
        .into_iter()
        .enumerate()
        .map(|(id, o)| o.ok_or_else(|| format!("no shard provided scenario {id}")))
        .collect::<Result<_, _>>()?;

    Ok((
        grid,
        CampaignResult {
            outcomes,
            threads_used: 0,
            wall_seconds: 0.0,
            simulated: 0,
            cache_hits: 0,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_campaign, run_scenarios_streaming, RunnerConfig};
    use proptest::prelude::*;
    use qnet_core::policy::PolicyId;
    use qnet_core::workload::WorkloadSpec;
    use qnet_topology::Topology;
    use std::sync::OnceLock;

    fn tiny_grid() -> ScenarioGrid {
        ScenarioGrid::new(17)
            .with_topologies(vec![Topology::Cycle { nodes: 5 }])
            .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::HYBRID])
            .with_workloads(vec![WorkloadSpec::closed_loop(0, 4, 4)])
            .with_replicates(3)
            .with_horizon_s(400.0)
    }

    fn run_shard_outcomes(grid: &ScenarioGrid, spec: ShardSpec) -> Vec<ScenarioOutcome> {
        let ids = spec.ids(grid.scenario_count());
        run_scenarios_streaming(grid, &RunnerConfig::serial(), &ids, None, |_| {})
            .unwrap()
            .outcomes
    }

    #[test]
    fn shard_spec_parses_and_partitions() {
        let spec = ShardSpec::parse("1/3").unwrap();
        assert_eq!(spec, ShardSpec { index: 1, count: 3 });
        assert_eq!(spec.ids(8), vec![1, 4, 7]);
        assert!(spec.contains(4) && !spec.contains(5));
        assert_eq!(spec.to_string(), "1/3");

        assert!(ShardSpec::parse("3/3").is_err(), "index out of range");
        assert!(ShardSpec::parse("0/0").is_err(), "zero shards");
        assert!(ShardSpec::parse("1-3").is_err(), "bad separator");
        assert!(ShardSpec::parse("a/3").is_err(), "bad index");

        // The 3-way partition of 0..10 covers every id exactly once.
        let mut all: Vec<usize> = (0..3)
            .flat_map(|i| ShardSpec::new(i, 3).unwrap().ids(10))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shard_files_round_trip() {
        let grid = tiny_grid();
        let spec = ShardSpec::new(1, 2).unwrap();
        let outcomes = run_shard_outcomes(&grid, spec);
        let text = shard_to_string(&grid, spec, &outcomes);
        let shard = read_shard(&text).unwrap();
        assert_eq!(shard.grid, grid);
        assert_eq!(shard.spec, spec);
        assert_eq!(shard.fingerprint, grid.fingerprint());
        assert_eq!(shard.outcomes, outcomes);
    }

    #[test]
    fn merged_shards_equal_the_single_process_run() {
        let grid = tiny_grid();
        let direct = run_campaign(&grid, &RunnerConfig::serial());
        for count in [1, 2, 5] {
            let shards: Vec<ShardFile> = (0..count)
                .map(|i| {
                    let spec = ShardSpec::new(i, count).unwrap();
                    let outcomes = run_shard_outcomes(&grid, spec);
                    read_shard(&shard_to_string(&grid, spec, &outcomes)).unwrap()
                })
                .collect();
            let (merged_grid, merged) = merge_shards(shards).unwrap();
            assert_eq!(merged_grid, grid);
            assert_eq!(merged.outcomes, direct.outcomes, "{count}-way partition");
        }
    }

    #[test]
    fn merge_rejects_incomplete_and_mixed_partitions() {
        let grid = tiny_grid();
        let shard = |i, n| {
            let spec = ShardSpec::new(i, n).unwrap();
            let outcomes = run_shard_outcomes(&grid, spec);
            read_shard(&shard_to_string(&grid, spec, &outcomes)).unwrap()
        };
        // Missing shard 1 of 2.
        assert!(merge_shards(vec![shard(0, 2)]).is_err());
        // The same shard twice.
        assert!(merge_shards(vec![shard(0, 2), shard(0, 2)]).is_err());
        // Mixed partition sizes.
        assert!(merge_shards(vec![shard(0, 2), shard(1, 3)]).is_err());
        // Shards of different grids.
        let mut other = tiny_grid();
        other.master_seed += 1;
        let other_spec = ShardSpec::new(1, 2).unwrap();
        let other_outcomes = run_scenarios_streaming(
            &other,
            &RunnerConfig::serial(),
            &other_spec.ids(other.scenario_count()),
            None,
            |_| {},
        )
        .unwrap()
        .outcomes;
        let foreign = read_shard(&shard_to_string(&other, other_spec, &other_outcomes)).unwrap();
        assert!(merge_shards(vec![shard(0, 2), foreign]).is_err());
        // Empty input.
        assert!(merge_shards(Vec::new()).is_err());
    }

    #[test]
    fn read_shard_rejects_a_grid_that_breaks_a_builder_rule() {
        // A header whose fingerprint matches its grid, but whose grid could
        // never have been built: the reader rejects it before any worker
        // runs it.
        let mut grid = tiny_grid();
        grid.swap_scan_rate = 0.0;
        let text = shard_to_string(&grid, ShardSpec::new(0, 1).unwrap(), &[]);
        let err = read_shard(&text).unwrap_err();
        assert!(err.contains("swap scan rate must be positive"), "{err}");
    }

    /// One cache line, one small shard file and one grid descriptor, all
    /// well-formed: the seeds of the reader fuzz property.
    fn fuzz_seeds() -> &'static [String; 3] {
        static SEEDS: OnceLock<[String; 3]> = OnceLock::new();
        SEEDS.get_or_init(|| {
            let grid = tiny_grid();
            let spec = ShardSpec::new(1, 3).unwrap();
            let outcomes = run_shard_outcomes(&grid, spec);
            [
                crate::cache::encode_outcome_line(grid.fingerprint(), &outcomes[0]),
                shard_to_string(&grid, spec, &outcomes),
                serde_json::to_string(&grid).unwrap(),
            ]
        })
    }

    /// Bytes that steer a mutation into the JSON grammar rather than
    /// straight into a syntax error.
    const JSON_BYTES: &[u8] = b"0123456789-+.eE\"{}[]:,nulltruefalse\\u \n";

    proptest! {
        /// Truncated and byte-mutated cache lines, shard files and grid
        /// descriptors are read to `Ok` or `Err`, never to a panic.
        #[test]
        fn readers_never_panic_on_truncated_or_mutated_input(
            keep in 0.0f64..1.5,
            flips in collection::vec((0.0f64..1.0, any::<bool>(), any::<u8>()), 0..4),
        ) {
            let [line, shard, descriptor] = fuzz_seeds();
            let grid = tiny_grid();
            for (which, seed) in [line, shard, descriptor].into_iter().enumerate() {
                let mut bytes = seed.as_bytes().to_vec();
                for &(at, from_grammar, byte) in &flips {
                    let i = (at * bytes.len() as f64) as usize;
                    bytes[i] = if from_grammar {
                        JSON_BYTES[byte as usize % JSON_BYTES.len()]
                    } else {
                        byte
                    };
                }
                if keep < 1.0 {
                    bytes.truncate((keep * bytes.len() as f64) as usize);
                }
                let text = String::from_utf8_lossy(&bytes);
                match which {
                    0 => {
                        let _ = crate::cache::decode_outcome_line(
                            &text,
                            grid.fingerprint(),
                            grid.scenario_count(),
                            grid.replicates,
                        );
                    }
                    1 => {
                        let _ = read_shard(&text);
                    }
                    _ => {
                        let _ = ScenarioGrid::from_json(&text);
                    }
                }
            }
        }
    }

    #[test]
    fn read_shard_rejects_corruption() {
        let grid = tiny_grid();
        let spec = ShardSpec::new(0, 2).unwrap();
        let outcomes = run_shard_outcomes(&grid, spec);
        let good = shard_to_string(&grid, spec, &outcomes);

        // Missing header.
        assert!(read_shard("").is_err());
        assert!(read_shard(good.lines().nth(1).unwrap()).is_err());
        // Truncated outcome line.
        let mut lines: Vec<&str> = good.lines().collect();
        let last = lines.pop().unwrap();
        let cut = &last[..last.len() / 2];
        let truncated = format!("{}\n{cut}\n", lines.join("\n"));
        assert!(read_shard(&truncated).is_err());
        // Missing outcome.
        let missing = format!("{}\n", lines.join("\n"));
        assert!(read_shard(&missing).is_err());
        // Header fingerprint that doesn't match the embedded grid.
        let tampered = good.replacen(&grid.fingerprint().to_hex(), "0000000000000000", 1);
        assert!(read_shard(&tampered).is_err());
        // An outcome from the other shard of the partition.
        let stray = run_shard_outcomes(&grid, ShardSpec::new(1, 2).unwrap());
        let stray_line = crate::cache::encode_outcome_line(grid.fingerprint(), &stray[0]);
        let polluted = format!("{good}{stray_line}\n");
        assert!(read_shard(&polluted).is_err());
    }
}
