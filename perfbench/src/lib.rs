//! Goodput benchmark of the qnet simulator.
//!
//! The `perfbench` binary runs one named workload for a fixed host-time
//! budget and prints every metric with its name and unit; the last line of
//! its standard output is one JSON object. With `--trace 0` it reports the
//! end-to-end metrics of untraced runs; with `--trace 1` it drives the
//! simulator from outside through [`outside_in::drive`] and reports host time
//! and work by layer. See `perfbench/README.md` for the workloads, the
//! metrics and how to read them.

pub mod outside_in;
pub mod workloads;

use std::time::Instant;

/// The median of `values` (the mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Call `sample` repeatedly until `budget_s` host seconds have passed and
/// at least `min_reps` samples are taken, and return the samples.
pub fn sample_for(budget_s: f64, min_reps: usize, mut sample: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < budget_s {
        samples.push(sample());
    }
    samples
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc/self/status` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
