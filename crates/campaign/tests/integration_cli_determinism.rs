//! End-to-end checks of the real `campaign` binary.
//!
//! The first two tests run the **default 108-scenario paper grid** with an
//! outcome cache and re-pin its on-disk contract: the cache file is named
//! after the grid fingerprint, holds one line per scenario, the report has
//! its usual 31 lines, and global knowledge never grows staleness columns.
//!
//! The third test is the stale-knowledge determinism smoke: a genuinely
//! gossiping grid (nonzero refresh period, so rows age and swaps can miss)
//! must be byte-identical cold, warm from its own outcome cache, and
//! recombined from a 2-way shard split.

use std::fs;
use std::path::Path;
use std::process::Command;

fn campaign_bin() -> &'static str {
    env!("CARGO_BIN_EXE_campaign")
}

/// The default paper grid's fingerprint (`ScenarioGrid::fingerprint` over
/// every axis value, master seed, and replicate count). The cache file name
/// is part of the on-disk contract, so an accidental grid change would
/// silently orphan every existing cache.
const DEFAULT_GRID_FINGERPRINT: &str = "3d0ceedd6e2ff513";

/// Run the default grid with an outcome cache under a fresh directory
/// named after `tag`; return the outcome-cache text (from the file named
/// after the grid fingerprint) and the aggregate report bytes.
fn run_default_grid(tag: &str) -> (String, Vec<u8>) {
    let base = std::env::temp_dir().join(format!("qnet-cli-{tag}-{}", std::process::id()));
    fs::create_dir_all(&base).unwrap();
    let out = base.join("report.jsonl");
    let cache = base.join("cache");
    let status = Command::new(campaign_bin())
        .arg("--out")
        .arg(&out)
        .arg("--cache-dir")
        .arg(&cache)
        .status()
        .expect("spawn campaign binary");
    assert!(status.success(), "default-grid campaign run failed");

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
    let cache_text = fs::read_to_string(&outcomes).expect("read outcome cache");
    let report = fs::read(&out).expect("read aggregate report");
    fs::remove_dir_all(&base).ok();
    (cache_text, report)
}

#[test]
fn default_grid_run_keeps_its_fingerprint_and_shape() {
    let (cache_text, report) = run_default_grid("default");
    // 108 outcome lines (the full default grid), 31 aggregate lines.
    assert_eq!(cache_text.lines().count(), 108);
    assert_eq!(report.iter().filter(|&&b| b == b'\n').count(), 31);
}

#[test]
fn default_grid_global_rows_have_no_staleness_columns() {
    let (cache_text, report) = run_default_grid("global-rows");
    let report = String::from_utf8(report).unwrap();
    for text in [&cache_text, &report] {
        assert!(
            !text.contains("stale_row_age") && !text.contains("missed_swaps"),
            "global-knowledge rows must not grow staleness columns"
        );
    }
}

/// The gossip flags for the staleness smoke: small enough to run in
/// seconds, stale enough (0.5 s refresh over a 7-cycle) that rows age
/// and the staleness columns actually appear.
const GOSSIP_FLAGS: [&str; 12] = [
    "--topologies",
    "cycle:7",
    "--modes",
    "oblivious,hybrid",
    "--knowledge",
    "gossip:2:0.5",
    "--replicates",
    "2",
    "--requests",
    "6",
    "--horizon",
    "1000",
];

fn run_gossip(dir: &Path, cache: Option<&Path>, shard: Option<&str>) -> Vec<u8> {
    let out = dir.join(match shard {
        Some(s) => format!("report-{}.jsonl", s.replace('/', "-")),
        None => "report.jsonl".to_string(),
    });
    let mut cmd = Command::new(campaign_bin());
    cmd.args(GOSSIP_FLAGS).arg("--out").arg(&out);
    if let Some(cache) = cache {
        cmd.arg("--cache-dir").arg(cache);
    }
    if let Some(shard) = shard {
        cmd.arg("--shard").arg(shard);
    }
    let status = cmd.status().expect("spawn campaign binary");
    assert!(status.success(), "gossip campaign run failed");
    fs::read(&out).expect("read gossip report")
}

#[test]
fn gossip_grid_is_deterministic_cold_warm_and_sharded() {
    let base = std::env::temp_dir().join(format!("qnet-knowledge-gossip-{}", std::process::id()));
    fs::create_dir_all(&base).unwrap();
    let cache = base.join("cache");

    // Cold run fills the outcome cache; the warm rerun replays it.
    let cold = run_gossip(&base, Some(&cache), None);
    let warm = run_gossip(&base, Some(&cache), None);
    assert!(cold == warm, "warm cache replay changed the gossip report");

    // A 2-way shard split (no cache, so the shard path genuinely runs)
    // must merge back to the same bytes.
    let shard0 = base.join("shard-0");
    let shard1 = base.join("shard-1");
    fs::create_dir_all(&shard0).unwrap();
    fs::create_dir_all(&shard1).unwrap();
    run_gossip(&shard0, None, Some("0/2"));
    run_gossip(&shard1, None, Some("1/2"));
    let merged = base.join("merged.jsonl");
    let status = Command::new(campaign_bin())
        .arg("merge")
        .arg(shard0.join("report-0-2.jsonl"))
        .arg(shard1.join("report-1-2.jsonl"))
        .arg("--out")
        .arg(&merged)
        .status()
        .expect("spawn campaign merge");
    assert!(status.success(), "campaign merge failed");
    let merged_bytes = fs::read(&merged).expect("read merged report");
    assert!(
        cold == merged_bytes,
        "2-way shard merge differs from the single-process gossip report"
    );

    // The stale plane really bit: staleness columns must be present.
    let text = String::from_utf8(cold).unwrap();
    assert!(
        text.contains("stale_row_age_mean_s"),
        "gossip report never aged a row — the smoke is not exercising staleness"
    );

    fs::remove_dir_all(&base).ok();
}

/// Grid descriptors that each break one rule: a distillation overhead
/// below 1, a gossip model that refreshes no peer, and an open-loop
/// workload arriving at rate 0. The last two used to pass the grid check
/// and then panic a worker thread.
const BAD_GRID_DESCRIPTORS: [&str; 3] = [
    r#"{"topologies":[{"Cycle":{"nodes":9}}],"modes":["Oblivious"],"distillations":[0.5],"knowledge":["Global"],"coherence_times_s":[null],"workloads":[{"node_count":9,"consumer_pairs":35,"requests":35,"discipline":"UniformRandom"}],"replicates":1,"master_seed":1,"max_sim_time_s":20000.0,"generation_rate":1.0,"swap_scan_rate":4.0}"#,
    r#"{"topologies":[{"Cycle":{"nodes":9}}],"modes":["Oblivious"],"distillations":[1.0],"knowledge":["Global",{"Gossip":{"peers_per_refresh":0}}],"coherence_times_s":[null],"workloads":[{"node_count":9,"consumer_pairs":35,"requests":35,"discipline":"UniformRandom"}],"replicates":1,"master_seed":1,"max_sim_time_s":20000.0,"generation_rate":1.0,"swap_scan_rate":4.0}"#,
    r#"{"topologies":[{"Cycle":{"nodes":9}}],"modes":["Oblivious"],"distillations":[1.0],"knowledge":["Global"],"coherence_times_s":[null],"workloads":[{"node_count":9,"consumer_pairs":35,"traffic":{"OpenLoopPoisson":{"rate_hz":0.0,"horizon_s":100.0}},"discipline":"UniformRandom"}],"replicates":1,"master_seed":1,"max_sim_time_s":20000.0,"generation_rate":1.0,"swap_scan_rate":4.0}"#,
];

#[test]
fn bad_input_exits_1_with_a_message_never_101() {
    let base = std::env::temp_dir().join(format!("qnet-bad-input-{}", std::process::id()));
    fs::create_dir_all(&base).unwrap();
    let descriptors: Vec<String> = BAD_GRID_DESCRIPTORS
        .iter()
        .enumerate()
        .map(|(i, text)| {
            let path = base.join(format!("bad-grid-{i}.json"));
            fs::write(&path, text).unwrap();
            path.to_str().unwrap().to_string()
        })
        .collect();
    let mut inputs = vec![
        vec!["--dist", "NaN", "--dry-run"],
        vec!["--horizon", "NaN", "--dry-run"],
    ];
    inputs.extend(descriptors.iter().map(|d| vec!["--grid-file", d.as_str()]));
    for args in inputs {
        let output = Command::new(campaign_bin())
            .args(&args)
            .output()
            .expect("spawn campaign binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("campaign: "), "{args:?}: {stderr}");
    }
    fs::remove_dir_all(&base).ok();
}
