//! Differential determinism test over the event-queue backends.
//!
//! The simulation promises byte-identical reports regardless of which
//! `EventQueue` backend runs underneath (the timing wheel by default, the
//! legacy `BinaryHeap` via `QNET_EVENT_QUEUE=heap`). This spawns the real
//! `campaign` binary over the **default 108-scenario paper grid** once per
//! backend and compares the aggregate report byte for byte and the
//! per-scenario outcome cache line for line, sorted by scenario id (the cache
//! is a set; its line order follows thread scheduling). It also re-pins the
//! default grid's fingerprint through the cache file name.

mod common;

use common::run_default_grid;
use std::fs;

#[test]
fn default_grid_is_byte_identical_across_queue_backends() {
    let base = std::env::temp_dir().join(format!("qnet-queue-backend-diff-{}", std::process::id()));
    let wheel_dir = base.join("wheel");
    let heap_dir = base.join("heap");
    fs::create_dir_all(&wheel_dir).unwrap();
    fs::create_dir_all(&heap_dir).unwrap();

    let (wheel_report, wheel_outcomes) =
        run_default_grid(&wheel_dir, "QNET_EVENT_QUEUE", Some("wheel"));
    let (heap_report, heap_outcomes) =
        run_default_grid(&heap_dir, "QNET_EVENT_QUEUE", Some("heap"));
    // And the backend default (no env var) must match the explicit wheel.
    let default_dir = base.join("default");
    fs::create_dir_all(&default_dir).unwrap();
    let (default_report, default_outcomes) =
        run_default_grid(&default_dir, "QNET_EVENT_QUEUE", None);

    assert!(
        wheel_report == heap_report,
        "aggregate report differs between wheel and heap backends"
    );
    assert!(
        wheel_outcomes == heap_outcomes,
        "outcome cache differs between wheel and heap backends"
    );
    assert!(wheel_report == default_report);
    assert!(wheel_outcomes == default_outcomes);
    // 108 outcome lines (the full default grid), 31 aggregate lines.
    assert_eq!(wheel_outcomes.len(), 108);
    assert_eq!(wheel_report.iter().filter(|&&b| b == b'\n').count(), 31);

    fs::remove_dir_all(&base).ok();
}
