//! Statistics collectors.
//!
//! Small, allocation-light collectors used by simulation models and
//! campaign aggregation to accumulate results: running mean/variance
//! (Welford), the shared nearest-rank percentile, and fixed-memory
//! streaming quantiles (exact below a sample threshold, a log-bucket
//! sketch above it).

use serde::{Deserialize, Serialize};

/// Running mean and variance using Welford's algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// New, empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }
    /// Sample mean (0 if no observations).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Sample variance (unbiased; 0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merge another accumulator into this one (Chan et al.'s parallel
    /// Welford combination), as if every observation of `other` had been
    /// recorded here. Used by sweep aggregation to fold per-worker partial
    /// statistics without replaying samples.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * (n2 / total);
        self.m2 += other.m2 + delta * delta * (n1 * n2 / total);
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Half-width of the normal-approximation 95% confidence interval on
    /// the mean (`1.96·σ/√n`). `None` below two observations, where the
    /// sample deviation is undefined.
    pub fn ci95_half_width(&self) -> Option<f64> {
        if self.n < 2 {
            None
        } else {
            Some(1.96 * self.std_dev() / (self.n as f64).sqrt())
        }
    }
    /// Minimum observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.min)
        }
    }
    /// Maximum observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.max)
        }
    }
}

/// Nearest-rank percentile over an already **sorted** sample slice:
/// the smallest element whose rank is at least `⌈q·n⌉` (clamped to the
/// sample range). `None` when empty. The single quantile definition shared
/// by run-level metrics and campaign aggregation, so the two cannot
/// diverge.
pub fn percentile_of_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Number of mantissa bits retained per octave by [`LogQuantileSketch`]:
/// 2⁷ = 128 sub-buckets per power of two, giving a guaranteed relative
/// value error of at most 2⁻⁸ ≈ 0.4% for in-range magnitudes.
const SKETCH_SUB_BITS: u32 = 7;
/// Right-shift turning an `f64` bit pattern into a (exponent, sub-bucket)
/// key: keeps the sign-free 11 exponent bits plus the top
/// [`SKETCH_SUB_BITS`] mantissa bits.
const SKETCH_SHIFT: u32 = 52 - SKETCH_SUB_BITS;
/// Smallest biased exponent the sketch resolves (2⁻⁴⁰ ≈ 10⁻¹²; smaller
/// magnitudes clamp into the bottom bucket). Sojourn times are ≥ 1 ns =
/// 10⁻⁹ s and fidelities are 𝒪(1), so nothing the simulator records
/// underflows this in practice.
const SKETCH_MIN_EXP: u64 = 1023 - 40;
/// Largest biased exponent the sketch resolves (2⁵⁰ ≈ 10¹⁵; larger
/// magnitudes and infinities clamp into the top bucket).
const SKETCH_MAX_EXP: u64 = 1023 + 50;
const SKETCH_KEY_MIN: u64 = SKETCH_MIN_EXP << SKETCH_SUB_BITS;
/// Dense bucket count per sign: 91 octaves × 128 sub-buckets (≈ 91 KiB of
/// `u64` counts when materialized).
const SKETCH_BUCKETS: usize = (((SKETCH_MAX_EXP - SKETCH_MIN_EXP) as usize) + 1) << SKETCH_SUB_BITS;

/// A deterministic, fixed-memory quantile sketch over `f64` samples:
/// log-spaced buckets addressed straight from the floating-point bit
/// pattern (HDR-histogram style), so recording is two shifts and an add and
/// the memory ceiling is a compile-time constant regardless of stream
/// length.
///
/// Guarantees:
///
/// * **Value error, not rank error** — any reported quantile is the
///   midpoint of a bucket whose width is ≤ 2⁻⁷ of its magnitude, so the
///   result differs from the exact nearest-rank answer by a relative
///   error of at most 2⁻⁸ for magnitudes in `[2⁻⁴⁰, 2⁵⁰]` (clamped
///   outside; exact zero is tracked separately and reported exactly).
///   Results are additionally clamped into the observed `[min, max]`.
/// * **Determinism** — identical streams produce identical bucket counts
///   and therefore bit-identical quantiles.
/// * **Merge-order invariance** — [`LogQuantileSketch::merge`] adds bucket
///   counts, which is exactly commutative and associative (`u64` adds),
///   so sharded aggregation never depends on worker interleaving.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogQuantileSketch {
    /// Counts for positive magnitudes, lazily materialized on first use.
    pos: Vec<u64>,
    /// Counts for negative magnitudes (mirror indexing on `-x`), lazily
    /// materialized: sojourn/fidelity streams never touch it.
    neg: Vec<u64>,
    /// Exact zeros (`±0.0`).
    zeros: u64,
    total: u64,
    min: f64,
    max: f64,
}

/// Bucket index for a strictly positive, non-NaN magnitude.
fn sketch_index(x: f64) -> usize {
    let key = x.to_bits() >> SKETCH_SHIFT;
    (key.saturating_sub(SKETCH_KEY_MIN) as usize).min(SKETCH_BUCKETS - 1)
}

/// Midpoint of bucket `idx` (positive side).
fn sketch_midpoint(idx: usize) -> f64 {
    let key = SKETCH_KEY_MIN + idx as u64;
    let lo = f64::from_bits(key << SKETCH_SHIFT);
    let hi = f64::from_bits((key + 1) << SKETCH_SHIFT);
    0.5 * (lo + hi)
}

impl LogQuantileSketch {
    /// New, empty sketch. Allocation is deferred until the first sample of
    /// each sign, so an empty sketch costs a few words.
    pub fn new() -> Self {
        LogQuantileSketch {
            pos: Vec::new(),
            neg: Vec::new(),
            zeros: 0,
            total: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. NaN samples are ignored (they have no place
    /// in an order statistic); infinities clamp into the extreme buckets.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        if x == 0.0 {
            self.zeros += 1;
        } else if x > 0.0 {
            if self.pos.is_empty() {
                self.pos = vec![0; SKETCH_BUCKETS];
            }
            self.pos[sketch_index(x.min(f64::MAX))] += 1;
        } else {
            if self.neg.is_empty() {
                self.neg = vec![0; SKETCH_BUCKETS];
            }
            self.neg[sketch_index((-x).min(f64::MAX))] += 1;
        }
        self.total += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of recorded (non-NaN) observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Minimum observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Maximum observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Nearest-rank quantile (same rank convention as
    /// [`percentile_of_sorted`]): the bucket holding the sample of rank
    /// `⌈q·n⌉`, reported as its midpoint clamped into `[min, max]`.
    /// `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        // Ascending value order: most-negative → zero → most-positive.
        for idx in (0..self.neg.len()).rev() {
            cum += self.neg[idx];
            if cum >= target {
                return Some((-sketch_midpoint(idx)).clamp(self.min, self.max));
            }
        }
        cum += self.zeros;
        if cum >= target {
            return Some(0.0f64.clamp(self.min, self.max));
        }
        for (idx, &c) in self.pos.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(sketch_midpoint(idx).clamp(self.min, self.max));
            }
        }
        // Counts always sum to `total`; unreachable, but stay total.
        Some(self.max)
    }

    /// Merge another sketch into this one by adding bucket counts — exactly
    /// commutative and associative, so sharded/parallel aggregation is
    /// merge-order invariant.
    pub fn merge(&mut self, other: &LogQuantileSketch) {
        if other.total == 0 {
            return;
        }
        if !other.pos.is_empty() {
            if self.pos.is_empty() {
                self.pos = other.pos.clone();
            } else {
                for (a, b) in self.pos.iter_mut().zip(&other.pos) {
                    *a += b;
                }
            }
        }
        if !other.neg.is_empty() {
            if self.neg.is_empty() {
                self.neg = other.neg.clone();
            } else {
                for (a, b) in self.neg.iter_mut().zip(&other.neg) {
                    *a += b;
                }
            }
        }
        self.zeros += other.zeros;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Default number of samples [`StreamingQuantiles`] buffers exactly before
/// switching to the fixed-memory sketch. Chosen above every golden
/// workload's request count (the largest committed golden runs well under
/// 10⁴ requests) so existing reports stay byte-identical, while 10⁵–10⁷
/// request runs hold flat memory.
pub const DEFAULT_EXACT_SAMPLE_THRESHOLD: usize = 65_536;

/// Quantile estimation that is **exact below a threshold and fixed-memory
/// above it**: samples are buffered verbatim (and quantiles computed by
/// [`percentile_of_sorted`], bit-identical to the historical code path)
/// until the buffer would exceed the threshold, at which point the buffer
/// folds into a [`LogQuantileSketch`] and per-sample storage stops.
///
/// Merge semantics (used by sharded campaign aggregation) are defined for
/// every mode pairing:
///
/// * **exact ⊕ exact** — concatenates buffers; converts to a sketch only
///   if the union exceeds the threshold. Quantiles sort first, so the
///   result is independent of merge order.
/// * **exact ⊕ sketch / sketch ⊕ exact** — the exact side's samples fold
///   into the sketch; bucket counts don't care about recording order.
/// * **sketch ⊕ sketch** — bucket-count addition (commutative,
///   associative).
///
/// In all cases the merged result is the same as if every underlying
/// sample had been recorded into one collector (exactly when staying
/// exact; within the sketch's documented error once sketching).
#[derive(Debug, Clone, PartialEq)]
pub enum StreamingQuantiles {
    /// Buffering raw samples; quantiles are exact nearest-rank.
    Exact {
        /// The raw samples, in arrival order.
        samples: Vec<f64>,
        /// Buffer size beyond which the collector converts to a sketch.
        threshold: usize,
    },
    /// Fixed-memory mode; quantiles come from the log-bucketed sketch.
    Sketch(LogQuantileSketch),
}

impl Default for StreamingQuantiles {
    fn default() -> Self {
        StreamingQuantiles::new(DEFAULT_EXACT_SAMPLE_THRESHOLD)
    }
}

impl StreamingQuantiles {
    /// New collector that stays exact up to `threshold` samples. A
    /// threshold of 0 sketches from the first sample.
    pub fn new(threshold: usize) -> Self {
        StreamingQuantiles::Exact {
            samples: Vec::new(),
            threshold,
        }
    }

    /// Record one observation, converting to the sketch when the exact
    /// buffer would exceed its threshold.
    pub fn record(&mut self, x: f64) {
        match self {
            StreamingQuantiles::Exact { samples, threshold } => {
                if samples.len() >= *threshold {
                    let mut sketch = LogQuantileSketch::new();
                    for &s in samples.iter() {
                        sketch.record(s);
                    }
                    sketch.record(x);
                    *self = StreamingQuantiles::Sketch(sketch);
                } else {
                    samples.push(x);
                }
            }
            StreamingQuantiles::Sketch(sketch) => sketch.record(x),
        }
    }

    /// Number of recorded observations. (In sketch mode NaN samples are
    /// dropped rather than counted.)
    pub fn count(&self) -> u64 {
        match self {
            StreamingQuantiles::Exact { samples, .. } => samples.len() as u64,
            StreamingQuantiles::Sketch(sketch) => sketch.count(),
        }
    }

    /// True once the collector has given up per-sample storage. Surfaced
    /// in reports so readers know whether quantiles are exact or
    /// sketch-approximated.
    pub fn is_sketch(&self) -> bool {
        matches!(self, StreamingQuantiles::Sketch(_))
    }

    /// The raw sample buffer while still exact (`None` after conversion).
    pub fn exact_samples(&self) -> Option<&[f64]> {
        match self {
            StreamingQuantiles::Exact { samples, .. } => Some(samples),
            StreamingQuantiles::Sketch(_) => None,
        }
    }

    /// Nearest-rank quantile: exact (via [`percentile_of_sorted`]) while
    /// buffering, sketch-approximated after conversion. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        match self {
            StreamingQuantiles::Exact { samples, .. } => {
                let mut sorted = samples.clone();
                sorted.sort_by(f64::total_cmp);
                percentile_of_sorted(&sorted, q)
            }
            StreamingQuantiles::Sketch(sketch) => sketch.quantile(q),
        }
    }

    /// Convert to (or expose) the sketch form, folding buffered samples.
    fn to_sketch(&self) -> LogQuantileSketch {
        match self {
            StreamingQuantiles::Exact { samples, .. } => {
                let mut sketch = LogQuantileSketch::new();
                for &s in samples.iter() {
                    sketch.record(s);
                }
                sketch
            }
            StreamingQuantiles::Sketch(sketch) => sketch.clone(),
        }
    }

    /// Merge another collector into this one (see the type docs for the
    /// per-mode semantics).
    pub fn merge(&mut self, other: &StreamingQuantiles) {
        match (&mut *self, other) {
            (
                StreamingQuantiles::Exact { samples, threshold },
                StreamingQuantiles::Exact {
                    samples: other_samples,
                    ..
                },
            ) => {
                if samples.len() + other_samples.len() > *threshold {
                    let mut sketch = LogQuantileSketch::new();
                    for &s in samples.iter().chain(other_samples) {
                        sketch.record(s);
                    }
                    *self = StreamingQuantiles::Sketch(sketch);
                } else {
                    samples.extend_from_slice(other_samples);
                }
            }
            (StreamingQuantiles::Exact { .. }, StreamingQuantiles::Sketch(other_sketch)) => {
                let mut sketch = self.to_sketch();
                sketch.merge(other_sketch);
                *self = StreamingQuantiles::Sketch(sketch);
            }
            (StreamingQuantiles::Sketch(sketch), StreamingQuantiles::Exact { samples, .. }) => {
                for &s in samples.iter() {
                    sketch.record(s);
                }
            }
            (StreamingQuantiles::Sketch(sketch), StreamingQuantiles::Sketch(other_sketch)) => {
                sketch.merge(other_sketch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_of_sorted(&xs, 0.0), Some(1.0));
        assert_eq!(percentile_of_sorted(&xs, 0.25), Some(1.0));
        assert_eq!(percentile_of_sorted(&xs, 0.5), Some(2.0));
        assert_eq!(percentile_of_sorted(&xs, 1.0), Some(4.0));
        assert_eq!(percentile_of_sorted(&[], 0.5), None);
    }

    #[test]
    fn running_stats_known_values() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance of this classic data set is 4; the unbiased
        // sample variance is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut all = RunningStats::new();
        for &x in &xs {
            all.record(x);
        }
        // Split at every point and merge the halves.
        for split in 0..=xs.len() {
            let (left, right) = xs.split_at(split);
            let mut a = RunningStats::new();
            let mut b = RunningStats::new();
            left.iter().for_each(|&x| a.record(x));
            right.iter().for_each(|&x| b.record(x));
            a.merge(&b);
            assert_eq!(a.count(), all.count());
            assert!((a.mean() - all.mean()).abs() < 1e-12, "split {split}");
            assert!(
                (a.variance() - all.variance()).abs() < 1e-12,
                "split {split}"
            );
            assert_eq!(a.min(), all.min());
            assert_eq!(a.max(), all.max());
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.record(3.0);
        a.record(5.0);
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());
        let mut empty = RunningStats::new();
        empty.merge(&before);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn merge_empty_with_empty_stays_empty() {
        let mut a = RunningStats::new();
        a.merge(&RunningStats::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.variance(), 0.0);
        assert_eq!(a.min(), None);
        assert_eq!(a.max(), None);
        assert_eq!(a.ci95_half_width(), None);
        // Still usable after the no-op merge: recording proceeds normally.
        a.record(7.0);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 7.0);
    }

    #[test]
    fn merge_empty_into_nonempty_and_back_are_bit_identical() {
        // empty⊕x and x⊕empty must both reproduce x exactly (merge takes
        // the copy/early-return paths, so this is bit-equality, not just
        // approximate equality).
        let mut x = RunningStats::new();
        for v in [1.5, -2.25, 8.0] {
            x.record(v);
        }
        let mut left = RunningStats::new();
        left.merge(&x);
        let mut right = x;
        right.merge(&RunningStats::new());
        for merged in [left, right] {
            assert_eq!(merged.count(), x.count());
            assert_eq!(merged.mean().to_bits(), x.mean().to_bits());
            assert_eq!(merged.variance().to_bits(), x.variance().to_bits());
            assert_eq!(merged.min(), x.min());
            assert_eq!(merged.max(), x.max());
        }
    }

    #[test]
    fn merge_single_sample_sides() {
        // singleton ⊕ singleton: two-sample statistics in closed form.
        let mut a = RunningStats::new();
        a.record(2.0);
        let mut b = RunningStats::new();
        b.record(6.0);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!((a.mean() - 4.0).abs() < 1e-12);
        assert!((a.variance() - 8.0).abs() < 1e-12); // ((2-4)² + (6-4)²)/1
        assert_eq!(a.min(), Some(2.0));
        assert_eq!(a.max(), Some(6.0));
        assert!(a.ci95_half_width().unwrap() > 0.0);

        // singleton ⊕ many and many ⊕ singleton agree with sequential
        // recording to floating-point tolerance.
        let xs = [4.0, 5.0, 7.0, 9.0];
        let mut seq = RunningStats::new();
        seq.record(2.0);
        xs.iter().for_each(|&x| seq.record(x));
        let mut single = RunningStats::new();
        single.record(2.0);
        let mut many = RunningStats::new();
        xs.iter().for_each(|&x| many.record(x));
        let mut single_many = single;
        single_many.merge(&many);
        let mut many_single = many;
        many_single.merge(&single);
        for merged in [single_many, many_single] {
            assert_eq!(merged.count(), seq.count());
            assert!((merged.mean() - seq.mean()).abs() < 1e-12);
            assert!((merged.variance() - seq.variance()).abs() < 1e-12);
            assert_eq!(merged.min(), seq.min());
            assert_eq!(merged.max(), seq.max());
        }
    }

    #[test]
    fn ci95_shrinks_with_samples() {
        let mut a = RunningStats::new();
        a.record(1.0);
        assert!(a.ci95_half_width().is_none());
        a.record(3.0);
        let wide = a.ci95_half_width().unwrap();
        for _ in 0..98 {
            a.record(1.0);
            a.record(3.0);
        }
        let narrow = a.ci95_half_width().unwrap();
        assert!(narrow < wide);
        assert!(narrow > 0.0);
    }

    #[test]
    fn running_stats_empty() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    /// Relative-error bound the sketch documents: 2⁻⁸, plus float slop.
    const SKETCH_REL_ERR: f64 = 1.0 / 256.0 + 1e-12;

    fn assert_close(sketch: f64, exact: f64) {
        let tol = exact.abs() * SKETCH_REL_ERR;
        assert!(
            (sketch - exact).abs() <= tol,
            "sketch {sketch} vs exact {exact} (tol {tol})"
        );
    }

    #[test]
    fn sketch_quantiles_track_exact_nearest_rank() {
        let mut sketch = LogQuantileSketch::new();
        let mut samples: Vec<f64> = Vec::new();
        // Deterministic pseudo-stream spanning several octaves.
        let mut x = 1u64;
        for _ in 0..10_000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = 1e-6 + (x >> 11) as f64 / (1u64 << 53) as f64 * 1e3;
            sketch.record(v);
            samples.push(v);
        }
        samples.sort_by(f64::total_cmp);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_close(
                sketch.quantile(q).unwrap(),
                percentile_of_sorted(&samples, q).unwrap(),
            );
        }
        assert_eq!(sketch.count(), 10_000);
        assert_eq!(sketch.min(), samples.first().copied());
        assert_eq!(sketch.max(), samples.last().copied());
    }

    #[test]
    fn sketch_handles_zeros_negatives_and_constants() {
        let mut s = LogQuantileSketch::new();
        for _ in 0..5 {
            s.record(0.0);
        }
        assert_eq!(s.quantile(0.5), Some(0.0));

        let mut c = LogQuantileSketch::new();
        for _ in 0..100 {
            c.record(3.25);
        }
        // Constant stream: every quantile is the constant (min/max clamp
        // makes this exact, not just within relative error).
        assert_eq!(c.quantile(0.0), Some(3.25));
        assert_eq!(c.quantile(0.5), Some(3.25));
        assert_eq!(c.quantile(1.0), Some(3.25));

        let mut n = LogQuantileSketch::new();
        for v in [-4.0, -2.0, -1.0, 1.0, 2.0] {
            n.record(v);
        }
        assert_close(n.quantile(0.2).unwrap(), -4.0);
        assert_close(n.quantile(0.6).unwrap(), -1.0);
        assert_close(n.quantile(1.0).unwrap(), 2.0);
    }

    #[test]
    fn sketch_ignores_nan_and_clamps_infinities() {
        let mut s = LogQuantileSketch::new();
        s.record(f64::NAN);
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        s.record(1.0);
        s.record(f64::INFINITY);
        assert_eq!(s.count(), 2);
        assert!(s.quantile(1.0).unwrap().is_finite() || s.max() == Some(f64::INFINITY));
    }

    #[test]
    fn sketch_merge_is_commutative_and_matches_union() {
        let (mut a, mut b, mut union) = (
            LogQuantileSketch::new(),
            LogQuantileSketch::new(),
            LogQuantileSketch::new(),
        );
        for i in 0..500 {
            let v = 0.5 + i as f64;
            a.record(v);
            union.record(v);
        }
        for i in 0..300 {
            let v = 1e4 + 3.0 * i as f64;
            b.record(v);
            union.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, union);
    }

    #[test]
    fn streaming_quantiles_stay_exact_below_threshold() {
        let mut sq = StreamingQuantiles::new(8);
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            sq.record(v);
        }
        assert!(!sq.is_sketch());
        assert_eq!(sq.exact_samples().unwrap().len(), 5);
        // Bit-identical to the historical sorted-buffer path.
        assert_eq!(sq.quantile(0.5), Some(3.0));
        assert_eq!(sq.quantile(1.0), Some(5.0));
    }

    #[test]
    fn streaming_quantiles_convert_at_threshold() {
        let mut sq = StreamingQuantiles::new(4);
        for i in 0..4 {
            sq.record(i as f64 + 1.0);
        }
        assert!(!sq.is_sketch(), "exactly at threshold stays exact");
        sq.record(5.0);
        assert!(sq.is_sketch(), "threshold + 1 converts");
        assert_eq!(sq.count(), 5);
        assert!(sq.exact_samples().is_none());
        assert_close(sq.quantile(0.5).unwrap(), 3.0);
    }

    #[test]
    fn streaming_merge_semantics_all_mode_pairs() {
        let exact = |vals: &[f64], threshold: usize| {
            let mut sq = StreamingQuantiles::new(threshold);
            vals.iter().for_each(|&v| sq.record(v));
            sq
        };

        // exact ⊕ exact, union under threshold: still exact.
        let mut a = exact(&[1.0, 2.0], 10);
        a.merge(&exact(&[3.0, 4.0], 10));
        assert!(!a.is_sketch());
        assert_eq!(a.count(), 4);
        assert_eq!(a.quantile(0.5), Some(2.0));

        // exact ⊕ exact, union over threshold: converts.
        let mut b = exact(&[1.0, 2.0, 3.0], 4);
        b.merge(&exact(&[4.0, 5.0], 4));
        assert!(b.is_sketch());
        assert_eq!(b.count(), 5);
        assert_close(b.quantile(0.5).unwrap(), 3.0);

        // sketch ⊕ exact folds the samples in.
        let mut c = exact(&(0..20).map(f64::from).collect::<Vec<_>>(), 4);
        assert!(c.is_sketch());
        c.merge(&exact(&[100.0, 200.0], 10));
        assert_eq!(c.count(), 22);

        // exact ⊕ sketch converts the exact side.
        let mut d = exact(&[1.0, 2.0], 10);
        d.merge(&c);
        assert!(d.is_sketch());
        assert_eq!(d.count(), 24);

        // sketch ⊕ sketch adds counts; merge order does not matter.
        let s1 = exact(&(0..10).map(|i| f64::from(i) + 0.5).collect::<Vec<_>>(), 2);
        let s2 = exact(
            &(0..10)
                .map(|i| f64::from(i) * 7.0 + 1.0)
                .collect::<Vec<_>>(),
            2,
        );
        let mut m12 = s1.clone();
        m12.merge(&s2);
        let mut m21 = s2.clone();
        m21.merge(&s1);
        assert_eq!(m12, m21);
        assert_eq!(m12.count(), 20);
    }

    #[test]
    fn streaming_merge_matches_single_collector_within_error() {
        // Shard a stream three ways, merge in two different orders, and
        // compare against one collector that saw everything.
        let stream: Vec<f64> = (0..3_000)
            .map(|i| 1e-3 * f64::from(i % 997) + 1e-4)
            .collect();
        let mut whole = StreamingQuantiles::new(100);
        stream.iter().for_each(|&v| whole.record(v));
        let shards: Vec<StreamingQuantiles> = stream
            .chunks(1_000)
            .map(|chunk| {
                let mut sq = StreamingQuantiles::new(100);
                chunk.iter().for_each(|&v| sq.record(v));
                sq
            })
            .collect();
        let mut fwd = shards[0].clone();
        fwd.merge(&shards[1]);
        fwd.merge(&shards[2]);
        let mut rev = shards[2].clone();
        rev.merge(&shards[1]);
        rev.merge(&shards[0]);
        assert_eq!(fwd, rev, "merge order must not matter");
        assert_eq!(fwd.count(), whole.count());
        for q in [0.1, 0.5, 0.95, 0.99] {
            assert_close(fwd.quantile(q).unwrap(), whole.quantile(q).unwrap());
        }
    }
}
