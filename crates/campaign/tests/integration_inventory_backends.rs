//! Differential determinism test over the inventory backends.
//!
//! The simulation promises byte-identical reports regardless of which
//! inventory pool store runs underneath (the flat edge-indexed store by
//! default, the legacy `BTreeMap` via `QNET_INVENTORY=btree`). This spawns
//! the real `campaign` binary over the **default 108-scenario paper grid**
//! once per backend and compares the aggregate report byte for byte and the
//! per-scenario outcome cache line for line, sorted by scenario id (the cache
//! is a set; its line order follows thread scheduling). It also re-pins the
//! default grid's fingerprint through the cache file name.

mod common;

use common::run_default_grid;
use std::fs;

#[test]
fn default_grid_is_byte_identical_across_inventory_backends() {
    let base = std::env::temp_dir().join(format!(
        "qnet-inventory-backend-diff-{}",
        std::process::id()
    ));
    let flat_dir = base.join("flat");
    let btree_dir = base.join("btree");
    fs::create_dir_all(&flat_dir).unwrap();
    fs::create_dir_all(&btree_dir).unwrap();

    let (flat_report, flat_outcomes) = run_default_grid(&flat_dir, "QNET_INVENTORY", Some("flat"));
    let (btree_report, btree_outcomes) =
        run_default_grid(&btree_dir, "QNET_INVENTORY", Some("btree"));
    // And the backend default (no env var) must match the explicit flat.
    let default_dir = base.join("default");
    fs::create_dir_all(&default_dir).unwrap();
    let (default_report, default_outcomes) = run_default_grid(&default_dir, "QNET_INVENTORY", None);

    assert!(
        flat_report == btree_report,
        "aggregate report differs between flat and btree inventory backends"
    );
    assert!(
        flat_outcomes == btree_outcomes,
        "outcome cache differs between flat and btree inventory backends"
    );
    assert!(flat_report == default_report);
    assert!(flat_outcomes == default_outcomes);
    // 108 outcome lines (the full default grid), 31 aggregate lines.
    assert_eq!(flat_outcomes.len(), 108);
    assert_eq!(flat_report.iter().filter(|&&b| b == b'\n').count(), 31);

    fs::remove_dir_all(&base).ok();
}
