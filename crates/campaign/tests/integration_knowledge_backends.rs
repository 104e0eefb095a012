//! Differential determinism tests over the knowledge backends.
//!
//! Global knowledge runs through the stale control plane by default (every
//! row refreshed synchronously, ages pinned at zero); the legacy truth
//! backend survives behind `QNET_KNOWLEDGE=truth`. The two must be
//! indistinguishable at the byte level: this spawns the real `campaign`
//! binary over the **default 108-scenario paper grid** once per backend and
//! compares the aggregate report byte for byte and the per-scenario outcome
//! cache line for line, sorted by scenario id (the cache is a set; its line
//! order follows thread scheduling). It also re-pins the default grid's
//! fingerprint (adding the knowledge axis must not have moved it).
//!
//! The second test is the stale-knowledge determinism smoke: a genuinely
//! gossiping grid (nonzero refresh period, so rows age and swaps can miss)
//! must be byte-identical cold, warm from its own outcome cache, and
//! recombined from a 2-way shard split.

mod common;

use common::{campaign_bin, run_default_grid};
use std::fs;
use std::path::Path;
use std::process::Command;

#[test]
fn default_grid_is_byte_identical_across_knowledge_backends() {
    let base = std::env::temp_dir().join(format!(
        "qnet-knowledge-backend-diff-{}",
        std::process::id()
    ));
    let truth_dir = base.join("truth");
    let stale_dir = base.join("stale");
    fs::create_dir_all(&truth_dir).unwrap();
    fs::create_dir_all(&stale_dir).unwrap();

    // Default (stale plane with zero-age global rows) vs the legacy escape.
    let (stale_report, stale_outcomes) = run_default_grid(&stale_dir, "QNET_KNOWLEDGE", None);
    let (truth_report, truth_outcomes) =
        run_default_grid(&truth_dir, "QNET_KNOWLEDGE", Some("truth"));

    assert!(
        stale_report == truth_report,
        "aggregate report differs between stale and truth knowledge backends"
    );
    assert!(
        stale_outcomes == truth_outcomes,
        "outcome cache differs between stale and truth knowledge backends"
    );
    // 108 outcome lines (the full default grid), 31 aggregate lines — and no
    // staleness columns anywhere: global rows never go stale.
    assert_eq!(stale_outcomes.len(), 108);
    assert_eq!(stale_report.iter().filter(|&&b| b == b'\n').count(), 31);
    let cache_text = stale_outcomes.concat();
    assert!(
        !cache_text.contains("stale_row_age") && !cache_text.contains("missed_swaps"),
        "global-knowledge rows must not grow staleness columns"
    );

    fs::remove_dir_all(&base).ok();
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
