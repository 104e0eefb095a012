//! End-to-end orchestrator tests over the real `campaign` binary.
//!
//! These spawn the compiled binary (via `CARGO_BIN_EXE_campaign`) exactly
//! as a user would, and pin the headline crash-recovery contract: a run
//! that loses a worker mid-shard — whether retried in-run or resumed after
//! the whole orchestrator failed — produces a merged report **byte-identical**
//! to an uninterrupted single-process run.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn campaign_bin() -> &'static str {
    env!("CARGO_BIN_EXE_campaign")
}

/// A tiny grid that still exercises multi-shard partitions: 2 topologies ×
/// 2 modes × 2 replicates = 8 scenarios across 4 cells, each scenario a
/// few milliseconds of simulation.
const GRID_FLAGS: &[&str] = &[
    "--topologies",
    "cycle:5,path:4",
    "--modes",
    "oblivious,planned",
    "--dist",
    "1",
    "--pairs",
    "3",
    "--requests",
    "4",
    "--replicates",
    "2",
    "--seed",
    "9",
    "--horizon",
    "300",
];

fn run(args: &[&str]) -> Output {
    Command::new(campaign_bin())
        .args(args)
        .output()
        .expect("spawn campaign binary")
}

fn run_ok(args: &[&str]) -> Output {
    let out = run(args);
    assert!(
        out.status.success(),
        "campaign {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qnet-orch-it-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn golden_report(dir: &Path) -> String {
    let golden = dir.join("golden.jsonl");
    let mut args = vec!["--threads", "1", "--out", golden.to_str().unwrap()];
    args.extend_from_slice(GRID_FLAGS);
    run_ok(&args);
    fs::read_to_string(&golden).unwrap()
}

#[test]
fn orchestrated_run_matches_single_process_byte_for_byte() {
    let dir = temp_dir("clean");
    let golden = golden_report(&dir);

    let run_dir = dir.join("run");
    let mut args = vec![
        "orchestrate",
        "--workers",
        "3",
        "--run-dir",
        run_dir.to_str().unwrap(),
        "--quiet",
    ];
    args.extend_from_slice(GRID_FLAGS);
    run_ok(&args);

    let merged = fs::read_to_string(run_dir.join("merged.jsonl")).unwrap();
    assert_eq!(merged, golden, "orchestrated merge must be byte-identical");
    // At full coverage the live partial report equals the final one.
    let partial = fs::read_to_string(run_dir.join("partial.jsonl")).unwrap();
    assert_eq!(partial, golden, "full-coverage partial equals the report");

    // `campaign merge` accepts the run directory directly (satellite: a
    // directory argument stands for the sealed shard files inside it).
    let via_merge = dir.join("via-merge.jsonl");
    run_ok(&[
        "merge",
        run_dir.to_str().unwrap(),
        "--out",
        via_merge.to_str().unwrap(),
    ]);
    assert_eq!(fs::read_to_string(&via_merge).unwrap(), golden);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn killed_worker_is_retried_in_run_and_report_is_identical() {
    let dir = temp_dir("retry");
    let golden = golden_report(&dir);

    // Shard 1's first attempt dies (exit 17) after one simulated scenario;
    // with attempts left, the supervisor respawns it against the warm
    // cache and the run completes on its own.
    let run_dir = dir.join("run");
    let mut args = vec![
        "orchestrate",
        "--workers",
        "3",
        "--run-dir",
        run_dir.to_str().unwrap(),
        "--inject-abort",
        "1:1",
        "--max-attempts",
        "3",
        "--quiet",
    ];
    args.extend_from_slice(GRID_FLAGS);
    run_ok(&args);

    let merged = fs::read_to_string(run_dir.join("merged.jsonl")).unwrap();
    assert_eq!(merged, golden, "in-run retry must not change the report");

    let events = fs::read_to_string(run_dir.join("events.jsonl")).unwrap();
    assert!(events.contains("\"event\":\"worker-lost\""), "{events}");
    // The dead worker's finished scenario survived in the cache, so the
    // retry replays it instead of recomputing.
    assert!(events.contains("\"source\":\"cache-hit\""), "{events}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn killed_run_resumes_byte_identical() {
    let dir = temp_dir("resume");
    let golden = golden_report(&dir);

    // With --max-attempts 1 the injected death exhausts shard 1's budget
    // and the whole orchestrator run fails, leaving the directory behind.
    let run_dir = dir.join("run");
    let mut args = vec![
        "orchestrate",
        "--workers",
        "3",
        "--run-dir",
        run_dir.to_str().unwrap(),
        "--inject-abort",
        "1:1",
        "--max-attempts",
        "1",
        "--quiet",
    ];
    args.extend_from_slice(GRID_FLAGS);
    let out = run(&args);
    assert!(
        !out.status.success(),
        "exhausted attempts must fail the run"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--resume"),
        "failure points at --resume: {stderr}"
    );
    assert!(
        !run_dir.join("merged.jsonl").exists(),
        "a failed run must not write merged.jsonl"
    );

    // Resume takes everything from the run directory: sealed shards are
    // kept, the dead shard replays its cached scenario and recomputes the
    // rest, and the merged report is byte-identical to the golden run.
    run_ok(&[
        "orchestrate",
        "--resume",
        run_dir.to_str().unwrap(),
        "--quiet",
    ]);
    let merged = fs::read_to_string(run_dir.join("merged.jsonl")).unwrap();
    assert_eq!(merged, golden, "resume must be byte-identical");

    // The event log carries both phases (append-continued seq) and never
    // any wall-clock field.
    let events = fs::read_to_string(run_dir.join("events.jsonl")).unwrap();
    assert!(events.contains("\"event\":\"run-failed\""), "{events}");
    assert!(events.contains("\"event\":\"run-resumed\""), "{events}");
    assert!(events.contains("\"event\":\"run-complete\""), "{events}");
    assert!(
        !events.contains("\"time"),
        "events are wall-clock-free: {events}"
    );

    // Fresh orchestrate refuses to clobber the finished run directory.
    let mut again = vec![
        "orchestrate",
        "--workers",
        "3",
        "--run-dir",
        run_dir.to_str().unwrap(),
        "--quiet",
    ];
    again.extend_from_slice(GRID_FLAGS);
    let out = run(&again);
    assert!(!out.status.success(), "existing run dir must be refused");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn orchestrate_rejects_flags_it_does_not_forward() {
    // Only grid flags and --grid-file reach the grid builder; a run flag
    // such as --dry-run used to be dropped (swallowing the argument after
    // it) while the full sweep ran anyway.
    let dir = temp_dir("unknown-flag");
    let run_dir = dir.join("run");
    for extra in [
        &["--dry-run"][..],
        &["--threads", "2"],
        &["--compare-serial"],
    ] {
        let mut args = vec![
            "orchestrate",
            "--workers",
            "1",
            "--run-dir",
            run_dir.to_str().unwrap(),
        ];
        args.extend_from_slice(extra);
        args.extend_from_slice(GRID_FLAGS);
        let out = run(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!(
                "campaign orchestrate: unknown argument '{}' (try --help)",
                extra[0]
            )),
            "{extra:?}: {stderr}"
        );
        assert!(
            !run_dir.exists(),
            "{extra:?} must not create a run directory"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn merge_directory_without_full_coverage_fails_clearly() {
    let dir = temp_dir("coverage");

    // Produce two of three shards directly (no orchestrator involved).
    for shard in ["0/3", "2/3"] {
        let out_file = dir.join(format!("shard-{}.jsonl", shard.chars().next().unwrap()));
        let mut args = vec!["--shard", shard, "--out", out_file.to_str().unwrap()];
        args.extend_from_slice(GRID_FLAGS);
        run_ok(&args);
    }

    let out = run(&["merge", dir.to_str().unwrap()]);
    assert!(!out.status.success(), "incomplete coverage must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("missing") || stderr.contains("incomplete") || stderr.contains("partition"),
        "error must say what is missing: {stderr}"
    );

    // An empty directory names the problem rather than merging nothing.
    let empty = dir.join("empty");
    fs::create_dir_all(&empty).unwrap();
    let out = run(&["merge", empty.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("no shard-"), "{stderr}");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn worker_progress_stream_is_sequenced_and_wall_clock_free() {
    let dir = temp_dir("progress");
    let progress = dir.join("progress.jsonl");
    let out_file = dir.join("shard.jsonl");
    let mut args = vec![
        "--shard",
        "0/2",
        "--progress",
        progress.to_str().unwrap(),
        "--out",
        out_file.to_str().unwrap(),
    ];
    args.extend_from_slice(GRID_FLAGS);
    run_ok(&args);

    let text = fs::read_to_string(&progress).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines
        .first()
        .unwrap()
        .contains("\"event\":\"shard-claimed\""));
    assert!(lines.last().unwrap().contains("\"event\":\"shard-sealed\""));
    // Dense 0-based seq, no timestamps anywhere.
    for (pos, line) in lines.iter().enumerate() {
        assert!(
            line.contains(&format!("\"seq\":{pos}")),
            "line {pos}: {line}"
        );
    }
    assert!(!text.contains("\"time"), "{text}");

    let _ = fs::remove_dir_all(&dir);
}
