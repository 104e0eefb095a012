//! Multi-process campaign orchestration: shard dispatch, supervision,
//! crash recovery and live merging.
//!
//! The orchestrator turns the crate's distribution primitives — the
//! content-addressed [`crate::cache::OutcomeCache`], deterministic
//! [`crate::shard::ShardSpec`] partitions and [`crate::shard::merge_shards`]
//! — into a supervised multi-process run. Given a [`ScenarioGrid`] and a
//! worker count `N`, it spawns `N` worker subprocesses (`campaign
//! --shard I/N --cache-dir …`) into a shared **run directory** and drives
//! them to completion:
//!
//! * **Liveness** is tracked through each worker's progress file (see
//!   [`events`]): workers append one flushed JSONL record per scenario, so
//!   the file growing *is* the heartbeat — no clocks in any file, no
//!   signal plumbing.
//! * **Crash recovery** is free by construction: every finished scenario is
//!   appended to the shared cache *as it completes*, so a worker that dies
//!   (or stalls past the heartbeat timeout and is killed) is simply
//!   respawned and replays its shard from the cache, recomputing only what
//!   is missing. A shard exhausting its attempts fails the run but leaves
//!   the run directory resumable.
//! * **Sealing**: workers write their shard file to
//!   `shards/shard-I.jsonl.partial`; the supervisor validates it with the
//!   same parser `campaign merge` uses ([`crate::shard::read_shard`]) and
//!   renames it to `shards/shard-I.jsonl`. Rename-after-validate means a
//!   sealed shard file is always complete and well-formed.
//! * **Live merging**: as shards seal, the supervisor rewrites
//!   `partial.jsonl` with [`crate::report::aggregate_covered`] (complete
//!   cells only) and, once every shard is sealed, runs the full
//!   [`crate::shard::merge_shards`] validation to produce `merged.jsonl` —
//!   **byte-identical** to an uninterrupted single-process run.
//!
//! ## Run directory layout
//!
//! ```text
//! RUN_DIR/
//!   manifest.json     worker count + grid fingerprint (resume validation)
//!   grid.json         the full grid descriptor workers run (--grid-file)
//!   cache/            shared outcome cache (crash-recovery ledger)
//!   progress/         shard-I.attempt-K.jsonl worker event streams
//!   shards/           shard-I.jsonl.partial → (validate+rename) shard-I.jsonl
//!   events.jsonl      seq-numbered machine-readable supervision record
//!   partial.jsonl     live partial report (complete cells so far)
//!   merged.jsonl      the final report, byte-identical to single-process
//! ```
//!
//! [`resume`] picks a run directory back up: sealed shards are kept,
//! valid leftover partials are sealed in place, and everything else is
//! respawned against the warm cache. The resumed `merged.jsonl` is
//! byte-identical to an uninterrupted run — the property the
//! `integration_orchestrator` test and the CI smoke job pin down.

pub mod events;
mod supervisor;

use crate::grid::ScenarioGrid;
use serde_json::Value;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Kill-switch injected into one worker attempt, for crash-recovery tests:
/// the selected shard's **first** attempt runs with
/// `--worker-abort-after N`, making the worker exit mid-shard after `N`
/// simulated scenarios. Retries (and resumed runs) get no injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectAbort {
    /// Shard index whose first attempt aborts.
    pub shard: usize,
    /// Simulated scenarios after which the worker exits.
    pub abort_after: usize,
}

impl InjectAbort {
    /// Parse the CLI form `SHARD:AFTER` (e.g. `1:5`).
    pub fn parse(spec: &str) -> Result<InjectAbort, String> {
        let (shard, after) = spec
            .split_once(':')
            .ok_or_else(|| format!("inject-abort spec '{spec}' is not of the form SHARD:AFTER"))?;
        Ok(InjectAbort {
            shard: shard
                .trim()
                .parse()
                .map_err(|_| format!("inject-abort spec '{spec}': bad shard index"))?,
            abort_after: after
                .trim()
                .parse()
                .map_err(|_| format!("inject-abort spec '{spec}': bad scenario count"))?,
        })
    }
}

/// How an orchestrated run is supervised.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Worker subprocesses to spawn — also the shard count `N` of the
    /// deterministic `I/N` partition.
    pub workers: usize,
    /// The shared run directory (created if missing; must not hold a
    /// different run).
    pub run_dir: PathBuf,
    /// The worker binary. `None` uses the current executable — the
    /// `campaign` binary orchestrating *is* the worker binary.
    pub worker_binary: Option<PathBuf>,
    /// `--threads` passed to each worker (default 1: the parallelism is
    /// across processes).
    pub worker_threads: usize,
    /// A worker whose progress file does not grow for this long is
    /// declared dead, killed and retried.
    pub heartbeat_timeout: Duration,
    /// Supervisor poll cadence.
    pub poll_interval: Duration,
    /// Spawn attempts per shard before the run fails (≥ 1).
    pub max_attempts: u32,
    /// Fault injection for crash-recovery tests.
    pub inject_abort: Option<InjectAbort>,
    /// Suppress the human progress line on stderr.
    pub quiet: bool,
}

impl OrchestratorConfig {
    /// A config with the defaults: 1 thread per worker, 60 s heartbeat
    /// timeout, 50 ms polls, 3 attempts per shard.
    pub fn new(workers: usize, run_dir: impl Into<PathBuf>) -> OrchestratorConfig {
        OrchestratorConfig {
            workers,
            run_dir: run_dir.into(),
            worker_binary: None,
            worker_threads: 1,
            heartbeat_timeout: Duration::from_secs(60),
            poll_interval: Duration::from_millis(50),
            max_attempts: 3,
            inject_abort: None,
            quiet: false,
        }
    }
}

/// What a finished orchestrated run produced.
#[derive(Debug, Clone)]
pub struct OrchestrateReport {
    /// The merged JSONL report — byte-identical to a single-process run.
    pub merged_jsonl: String,
    /// Scenarios in the grid.
    pub scenarios: usize,
    /// Scenario events observed from the attempts that sealed (simulated).
    pub simulated: usize,
    /// Scenario events observed from the attempts that sealed (cache hits).
    pub cache_hits: usize,
    /// Worker respawns (retries after a death, stall or bad shard file).
    pub retries: u32,
    /// Shards sealed (always the full partition on success).
    pub sealed_shards: usize,
}

/// Path helpers for the run-directory layout (see the module docs).
#[derive(Debug, Clone)]
pub struct RunDir {
    root: PathBuf,
}

impl RunDir {
    /// Wrap a run-directory root.
    pub fn new(root: impl Into<PathBuf>) -> RunDir {
        RunDir { root: root.into() }
    }

    /// The run-directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `manifest.json`: worker count + grid fingerprint.
    pub fn manifest_path(&self) -> PathBuf {
        self.root.join("manifest.json")
    }

    /// `grid.json`: the grid descriptor workers load via `--grid-file`.
    pub fn grid_path(&self) -> PathBuf {
        self.root.join("grid.json")
    }

    /// `cache/`: the shared outcome cache.
    pub fn cache_dir(&self) -> PathBuf {
        self.root.join("cache")
    }

    /// `events.jsonl`: the supervisor's machine-readable event log.
    pub fn events_path(&self) -> PathBuf {
        self.root.join("events.jsonl")
    }

    /// `partial.jsonl`: the live partial report.
    pub fn partial_report_path(&self) -> PathBuf {
        self.root.join("partial.jsonl")
    }

    /// `merged.jsonl`: the final merged report.
    pub fn merged_path(&self) -> PathBuf {
        self.root.join("merged.jsonl")
    }

    /// `shards/`: sealed shard files (and in-flight partials).
    pub fn shards_dir(&self) -> PathBuf {
        self.root.join("shards")
    }

    /// `progress/`: worker progress streams.
    pub fn progress_dir(&self) -> PathBuf {
        self.root.join("progress")
    }

    /// The in-flight shard file worker `index` writes.
    pub fn shard_partial(&self, index: usize) -> PathBuf {
        self.shards_dir()
            .join(format!("shard-{index}.jsonl.partial"))
    }

    /// The sealed (validated, renamed) shard file for `index`.
    pub fn shard_sealed(&self, index: usize) -> PathBuf {
        self.shards_dir().join(format!("shard-{index}.jsonl"))
    }

    /// The progress stream of shard `index`'s attempt number `attempt`.
    pub fn progress_file(&self, index: usize, attempt: u32) -> PathBuf {
        self.progress_dir()
            .join(format!("shard-{index}.attempt-{attempt}.jsonl"))
    }
}

fn manifest_value(grid: &ScenarioGrid, workers: usize) -> Value {
    Value::Map(vec![
        (
            "kind".to_string(),
            Value::Str("orchestrate-manifest".into()),
        ),
        (
            "fingerprint".to_string(),
            Value::Str(grid.fingerprint().to_hex()),
        ),
        ("workers".to_string(), Value::U64(workers as u64)),
        (
            "scenarios".to_string(),
            Value::U64(grid.scenario_count() as u64),
        ),
    ])
}

/// Load the grid and worker count a run directory was created with.
/// Validates that `grid.json` matches the fingerprint recorded in
/// `manifest.json`, so a hand-edited descriptor cannot silently change
/// what `--resume` runs.
pub fn load_run_dir(dir: &Path) -> Result<(ScenarioGrid, usize), String> {
    let layout = RunDir::new(dir);
    let grid_text = fs::read_to_string(layout.grid_path()).map_err(|e| {
        format!(
            "cannot read {}: {e} (not a run directory?)",
            layout.grid_path().display()
        )
    })?;
    let grid = ScenarioGrid::from_json(&grid_text)
        .map_err(|e| format!("{}: {e}", layout.grid_path().display()))?;
    let manifest_text = fs::read_to_string(layout.manifest_path())
        .map_err(|e| format!("cannot read {}: {e}", layout.manifest_path().display()))?;
    let manifest: Value = serde_json::from_str(&manifest_text)
        .map_err(|e| format!("{}: {e}", layout.manifest_path().display()))?;
    if manifest.get_field("kind").and_then(|k| k.as_str()) != Some("orchestrate-manifest") {
        return Err(format!(
            "{} is not an orchestrate manifest",
            layout.manifest_path().display()
        ));
    }
    let fingerprint = manifest
        .get_field("fingerprint")
        .and_then(|f| f.as_str())
        .ok_or("manifest lacks a fingerprint")?;
    if fingerprint != grid.fingerprint().to_hex() {
        return Err(format!(
            "manifest fingerprint {fingerprint} does not match grid.json ({}): \
             the run directory was tampered with",
            grid.fingerprint()
        ));
    }
    let workers = manifest
        .get_field("workers")
        .and_then(|w| w.as_u64())
        .ok_or("manifest lacks a worker count")? as usize;
    if workers == 0 {
        return Err("manifest records zero workers".to_string());
    }
    Ok((grid, workers))
}

/// Orchestrate a fresh run of `grid` under `config.run_dir`.
///
/// The run directory must be new (or empty): an existing run must be
/// picked up with [`resume`] instead, so a mistyped `--run-dir` cannot
/// clobber finished work. On success the merged report has been written to
/// `merged.jsonl` and is returned; on failure the run directory is left
/// resumable.
pub fn orchestrate(
    grid: &ScenarioGrid,
    config: &OrchestratorConfig,
) -> Result<OrchestrateReport, String> {
    if config.workers == 0 {
        return Err("orchestrate needs at least 1 worker".to_string());
    }
    if let Some(inject) = config.inject_abort.filter(|i| i.shard >= config.workers) {
        return Err(format!(
            "inject-abort shard {} is out of range for {} worker(s) (shards 0..{})",
            inject.shard, config.workers, config.workers
        ));
    }
    if config.max_attempts == 0 {
        return Err("max attempts must be at least 1".to_string());
    }
    let layout = RunDir::new(&config.run_dir);
    if layout.manifest_path().exists() {
        return Err(format!(
            "{} already holds a run (use --resume to pick it up)",
            layout.root().display()
        ));
    }
    fs::create_dir_all(layout.root()).map_err(|e| format!("cannot create run dir: {e}"))?;
    fs::create_dir_all(layout.shards_dir())
        .map_err(|e| format!("cannot create shards dir: {e}"))?;
    fs::create_dir_all(layout.progress_dir())
        .map_err(|e| format!("cannot create progress dir: {e}"))?;
    let grid_json = serde_json::to_string(&serde_json::to_value(grid).expect("grid to_value"))
        .expect("grid to_string");
    fs::write(layout.grid_path(), grid_json + "\n")
        .map_err(|e| format!("cannot write grid.json: {e}"))?;
    let manifest =
        serde_json::to_string(&manifest_value(grid, config.workers)).expect("manifest to_string");
    fs::write(layout.manifest_path(), manifest + "\n")
        .map_err(|e| format!("cannot write manifest.json: {e}"))?;
    supervisor::run(grid, config, &layout, false)
}

/// Resume a killed or failed run from its run directory.
///
/// The grid and worker count come from the directory's own
/// `manifest.json`/`grid.json` (validated against each other). Sealed
/// shards are kept as-is, a complete leftover `.partial` is sealed in
/// place, and the remaining shards are respawned against the warm cache —
/// so the resumed `merged.jsonl` is byte-identical to an uninterrupted
/// run. Fault injection is ignored on resume.
pub fn resume(config: &OrchestratorConfig) -> Result<OrchestrateReport, String> {
    let (grid, workers) = load_run_dir(&config.run_dir)?;
    let mut config = config.clone();
    config.workers = workers;
    config.inject_abort = None;
    let layout = RunDir::new(&config.run_dir);
    fs::create_dir_all(layout.shards_dir())
        .map_err(|e| format!("cannot create shards dir: {e}"))?;
    fs::create_dir_all(layout.progress_dir())
        .map_err(|e| format!("cannot create progress dir: {e}"))?;
    supervisor::run(&grid, &config, &layout, true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnet_core::policy::PolicyId;
    use qnet_core::workload::WorkloadSpec;
    use qnet_topology::Topology;

    fn tiny_grid() -> ScenarioGrid {
        ScenarioGrid::new(3)
            .with_topologies(vec![Topology::Cycle { nodes: 5 }])
            .with_modes(vec![PolicyId::OBLIVIOUS])
            .with_workloads(vec![WorkloadSpec::closed_loop(0, 4, 4)])
            .with_replicates(2)
            .with_horizon_s(300.0)
    }

    #[test]
    fn inject_abort_parses_and_rejects_nonsense() {
        assert_eq!(
            InjectAbort::parse("1:5").unwrap(),
            InjectAbort {
                shard: 1,
                abort_after: 5
            }
        );
        assert!(InjectAbort::parse("5").is_err());
        assert!(InjectAbort::parse("a:5").is_err());
        assert!(InjectAbort::parse("1:b").is_err());
    }

    #[test]
    fn run_dir_layout_is_stable() {
        let layout = RunDir::new("/tmp/run");
        assert_eq!(layout.grid_path(), Path::new("/tmp/run/grid.json"));
        assert_eq!(
            layout.shard_partial(2),
            Path::new("/tmp/run/shards/shard-2.jsonl.partial")
        );
        assert_eq!(
            layout.shard_sealed(2),
            Path::new("/tmp/run/shards/shard-2.jsonl")
        );
        assert_eq!(
            layout.progress_file(0, 3),
            Path::new("/tmp/run/progress/shard-0.attempt-3.jsonl")
        );
    }

    #[test]
    fn manifest_and_grid_round_trip_through_load_run_dir() {
        let dir = std::env::temp_dir().join(format!("qnet-orch-manifest-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let grid = tiny_grid();
        let layout = RunDir::new(&dir);
        fs::create_dir_all(layout.root()).unwrap();
        let grid_json = serde_json::to_string(&serde_json::to_value(&grid).unwrap()).unwrap();
        fs::write(layout.grid_path(), grid_json).unwrap();
        fs::write(
            layout.manifest_path(),
            serde_json::to_string(&manifest_value(&grid, 3)).unwrap(),
        )
        .unwrap();

        let (loaded, workers) = load_run_dir(&dir).unwrap();
        assert_eq!(loaded, grid);
        assert_eq!(workers, 3);

        // A tampered grid descriptor is rejected by the fingerprint check.
        let mut other = tiny_grid();
        other.master_seed += 1;
        let other_json = serde_json::to_string(&serde_json::to_value(&other).unwrap()).unwrap();
        fs::write(layout.grid_path(), other_json).unwrap();
        let err = load_run_dir(&dir).unwrap_err();
        assert!(err.contains("does not match"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_orchestrate_rejects_an_out_of_range_inject_abort() {
        // The hook would never fire, so the run would pass without ever
        // exercising a retry. It is rejected before the run directory is
        // made.
        let dir = std::env::temp_dir().join(format!("qnet-orch-inject-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut config = OrchestratorConfig::new(2, &dir);
        config.inject_abort = Some(InjectAbort {
            shard: 2,
            abort_after: 1,
        });
        let err = orchestrate(&tiny_grid(), &config).unwrap_err();
        assert_eq!(
            err,
            "inject-abort shard 2 is out of range for 2 worker(s) (shards 0..2)"
        );
        assert!(!dir.exists(), "no run directory is made");
    }

    #[test]
    fn fresh_orchestrate_refuses_an_existing_run() {
        let dir = std::env::temp_dir().join(format!("qnet-orch-refuse-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let grid = tiny_grid();
        fs::create_dir_all(&dir).unwrap();
        fs::write(RunDir::new(&dir).manifest_path(), "{}").unwrap();
        let err = orchestrate(&grid, &OrchestratorConfig::new(2, &dir)).unwrap_err();
        assert!(err.contains("--resume"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
