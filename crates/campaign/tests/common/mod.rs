//! Shared harness of the backend differential tests: run the real
//! `campaign` binary over the default 108-scenario paper grid and read back
//! what it wrote.

use std::fs;
use std::path::Path;
use std::process::Command;

pub fn campaign_bin() -> &'static str {
    env!("CARGO_BIN_EXE_campaign")
}

/// The default paper grid's fingerprint (`ScenarioGrid::fingerprint` over
/// every axis value, master seed, and replicate count). The cache file name
/// is part of the on-disk contract, so an accidental grid change would
/// silently orphan every existing cache.
const DEFAULT_GRID_FINGERPRINT: &str = "3d0ceedd6e2ff513";

/// Run the default grid with the backend variable `var` set to `backend`
/// (or removed for `None`), and return the aggregate report bytes plus the
/// outcome-cache lines sorted by scenario id.
pub fn run_default_grid(dir: &Path, var: &str, backend: Option<&str>) -> (Vec<u8>, Vec<String>) {
    let out = dir.join("report.jsonl");
    let cache = dir.join("cache");
    let mut cmd = Command::new(campaign_bin());
    cmd.arg("--out").arg(&out).arg("--cache-dir").arg(&cache);
    match backend {
        Some(b) => cmd.env(var, b),
        None => cmd.env_remove(var),
    };
    let status = cmd.status().expect("spawn campaign binary");
    assert!(status.success(), "campaign run failed ({var}={backend:?})");
    let outcomes = cache.join(format!("outcomes-{DEFAULT_GRID_FINGERPRINT}.jsonl"));
    assert!(
        outcomes.is_file(),
        "default grid fingerprint drifted: expected {}, cache dir holds {:?}",
        outcomes.display(),
        fs::read_dir(&cache)
            .map(|d| d
                .filter_map(|e| e.ok().map(|e| e.file_name()))
                .collect::<Vec<_>>())
            .unwrap_or_default()
    );
    (
        fs::read(&out).expect("read aggregate report"),
        lines_by_scenario_id(&fs::read_to_string(&outcomes).expect("read outcome cache")),
    )
}

/// The outcome cache is a set keyed by scenario id (see the `cache` module
/// docs): runner threads append lines in completion order, so two runs of
/// the same grid agree on the lines but not on their order. This is the
/// canonical form to compare: every line, sorted by its `outcome.id`.
fn lines_by_scenario_id(text: &str) -> Vec<String> {
    let mut keyed: Vec<(u64, String)> = text
        .lines()
        .map(|line| {
            let value: serde_json::Value = serde_json::from_str(line).expect("cache line is JSON");
            let id = value
                .get_field("outcome")
                .and_then(|o| o.get_field("id"))
                .and_then(serde_json::Value::as_u64)
                .expect("cache line carries outcome.id");
            (id, line.to_string())
        })
        .collect();
    keyed.sort_by_key(|&(id, _)| id);
    keyed.into_iter().map(|(_, line)| line).collect()
}
