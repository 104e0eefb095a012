//! Property-based tests of the simulation substrate: event ordering, time
//! arithmetic, RNG stream stability and statistics collectors.

use proptest::prelude::*;
use qnet_sim::event::EventQueue;
use qnet_sim::rng::SimRng;
use qnet_sim::stats::{percentile_of_sorted, LogQuantileSketch, RunningStats, StreamingQuantiles};
use qnet_sim::time::{SimDuration, SimTime};
use rand::RngCore;

proptest! {
    /// Events always pop in non-decreasing time order, regardless of the
    /// insertion order, and same-time events pop in insertion order.
    #[test]
    fn event_queue_is_stable_priority_queue(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut last_popped_time = None;
        while let Some(ev) = q.pop() {
            prop_assert!(ev.time >= last_time);
            if Some(ev.time) == last_popped_time {
                // Same timestamp: insertion index must increase.
                prop_assert!(seen_at_time.last().is_none_or(|&p| p < ev.event));
            } else {
                seen_at_time.clear();
            }
            seen_at_time.push(ev.event);
            last_time = ev.time;
            last_popped_time = Some(ev.time);
        }
        prop_assert!(q.is_empty());
    }

    /// Popping returns exactly as many events as were scheduled.
    #[test]
    fn event_queue_conserves_events(times in proptest::collection::vec(0u64..10_000, 0..300)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule_at(SimTime::from_nanos(t), ());
        }
        let mut popped = 0usize;
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
        prop_assert_eq!(q.scheduled_total(), times.len() as u64);
    }

    /// Time arithmetic: (t + d) - t == d for values that do not overflow.
    #[test]
    fn time_addition_round_trips(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let time = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((time + dur) - time, dur);
        prop_assert!(time.saturating_add(dur) >= time);
    }

    /// Float/second conversions agree to nanosecond precision for sane spans.
    #[test]
    fn time_float_round_trip(secs in 0.0f64..1.0e6) {
        let t = SimTime::from_secs_f64(secs);
        prop_assert!((t.as_secs_f64() - secs).abs() < 1e-6);
    }

    /// Identical seeds give identical streams; derived streams are stable.
    #[test]
    fn rng_streams_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let mut a = SimRng::new(seed).derive(&label);
        let mut b = SimRng::new(seed).derive(&label);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Exponential samples are positive and finite for positive rates.
    #[test]
    fn exponential_samples_positive(seed in any::<u64>(), rate in 0.01f64..1000.0) {
        let mut rng = SimRng::new(seed);
        for _ in 0..32 {
            let x = rng.sample_exponential(rate);
            prop_assert!(x >= 0.0 && x.is_finite());
        }
    }

    /// Shuffling preserves the multiset of elements.
    #[test]
    fn shuffle_is_permutation(seed in any::<u64>(), mut xs in proptest::collection::vec(0u32..1000, 0..64)) {
        let mut rng = SimRng::new(seed);
        let mut original = xs.clone();
        rng.shuffle(&mut xs);
        original.sort_unstable();
        xs.sort_unstable();
        prop_assert_eq!(original, xs);
    }

    /// Running statistics: the mean lies between the minimum and the maximum,
    /// and the variance is non-negative.
    #[test]
    fn running_stats_bounds(xs in proptest::collection::vec(-1.0e6f64..1.0e6, 1..200)) {
        let mut s = RunningStats::new();
        for &x in &xs {
            s.record(x);
        }
        prop_assert_eq!(s.count(), xs.len() as u64);
        prop_assert!(s.variance() >= -1e-9);
        let min = s.min().unwrap();
        let max = s.max().unwrap();
        prop_assert!(min <= max);
        prop_assert!(s.mean() >= min - 1e-6 && s.mean() <= max + 1e-6);
    }

    /// Shard-merge invariance: folding per-partition statistics left-to-right
    /// and merging them as a balanced tree must agree on every reported
    /// figure — exactly for counts/min/max, within a few ULPs for
    /// mean/variance (Chan's combination is not bit-associative), and to
    /// f64 bit-equality once rendered at the report's display precision —
    /// over random samples and random partition boundaries. This is the
    /// property that lets shard statistics recombine in any grouping.
    #[test]
    fn merge_order_never_changes_the_reported_statistics(
        xs in proptest::collection::vec(-1.0e3f64..1.0e3, 0..48),
        raw_cuts in proptest::collection::vec(0usize..48, 0..6),
    ) {
        // Random partition of xs into contiguous parts.
        let mut cuts: Vec<usize> = raw_cuts.iter().map(|&c| c.min(xs.len())).collect();
        cuts.push(0);
        cuts.push(xs.len());
        cuts.sort_unstable();
        cuts.dedup();
        let parts: Vec<RunningStats> = cuts
            .windows(2)
            .map(|w| {
                let mut s = RunningStats::new();
                xs[w[0]..w[1]].iter().for_each(|&x| s.record(x));
                s
            })
            .collect();

        // Left fold over the parts, in order.
        let mut left_fold = RunningStats::new();
        for part in &parts {
            left_fold.merge(part);
        }
        // Balanced tree: pairwise-merge rounds until one remains.
        let mut round = parts.clone();
        while round.len() > 1 {
            round = round
                .chunks(2)
                .map(|pair| {
                    let mut merged = pair[0];
                    if let Some(right) = pair.get(1) {
                        merged.merge(right);
                    }
                    merged
                })
                .collect();
        }
        let tree = round.pop().unwrap_or_default();

        prop_assert_eq!(left_fold.count(), tree.count());
        prop_assert_eq!(left_fold.count(), xs.len() as u64);
        // Chan's combination is not bit-associative, so the two groupings
        // may differ in the last ~floating-point digit relative to the
        // sample scale — but never more.
        let scale = xs.iter().fold(1.0f64, |acc, &x| acc.max(x.abs()));
        prop_assert!(
            (left_fold.mean() - tree.mean()).abs() <= 1e-12 * scale,
            "means diverge beyond rounding: {} vs {}",
            left_fold.mean(),
            tree.mean()
        );
        prop_assert!(
            (left_fold.variance() - tree.variance()).abs() <= 1e-11 * scale * scale,
            "variances diverge beyond rounding: {} vs {}",
            left_fold.variance(),
            tree.variance()
        );
        // Bit-equality of the final report formatting: rendered at the
        // report's display precision, both groupings produce identical
        // strings. (Gated away from exact cancellation, where a tiny mean
        // is pure rounding noise with no stable digits to format.)
        if left_fold.mean().abs() > 1e-9 * scale {
            prop_assert_eq!(
                format!("{:.6e}", left_fold.mean()),
                format!("{:.6e}", tree.mean())
            );
        }
        prop_assert_eq!(
            format!("{:.6e}", left_fold.variance()),
            format!("{:.6e}", tree.variance())
        );
        // Min/max and counts merge exactly in any order.
        prop_assert_eq!(left_fold.min(), tree.min());
        prop_assert_eq!(left_fold.max(), tree.max());
    }
}

/// Documented sketch error: relative value error ≤ 2⁻⁸ for in-range
/// magnitudes, plus float slop.
const SKETCH_REL_ERR: f64 = 1.0 / 256.0 + 1e-12;

/// Assert a sketch quantile is within the documented relative error of the
/// exact nearest-rank quantile over the same samples.
fn check_quantiles(sketch: &LogQuantileSketch, samples: &[f64]) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        let approx = sketch.quantile(q).unwrap();
        let exact = percentile_of_sorted(&sorted, q).unwrap();
        let tol = exact.abs() * SKETCH_REL_ERR;
        prop_assert!(
            (approx - exact).abs() <= tol,
            "q={q}: sketch {approx} vs exact {exact} (tol {tol})"
        );
    }
}

fn sketch_of(samples: &[f64]) -> LogQuantileSketch {
    let mut s = LogQuantileSketch::new();
    samples.iter().for_each(|&v| s.record(v));
    s
}

proptest! {
    /// p50/p95/p99 stay within the documented relative error of the exact
    /// nearest-rank answer on random streams.
    #[test]
    fn sketch_tracks_exact_on_random_streams(
        xs in proptest::collection::vec(1e-6f64..1e6, 1..500)
    ) {
        check_quantiles(&sketch_of(&xs), &xs);
    }

    /// Adversarial stream: already sorted ascending (worst case for
    /// single-pass estimators such as P²; harmless for bucket counts).
    #[test]
    fn sketch_tracks_exact_on_sorted_streams(
        xs in proptest::collection::vec(1e-3f64..1e3, 1..500)
    ) {
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        check_quantiles(&sketch_of(&sorted), &sorted);
    }

    /// Adversarial stream: a single repeated constant. Min/max clamping
    /// makes every quantile exactly the constant.
    #[test]
    fn sketch_is_exact_on_constant_streams(v in 1e-6f64..1e6, n in 1usize..400) {
        let xs = vec![v; n];
        let s = sketch_of(&xs);
        for q in [0.0, 0.5, 0.99, 1.0] {
            prop_assert_eq!(s.quantile(q), Some(v));
        }
    }

    /// Adversarial stream: bimodal with widely separated modes — quantiles
    /// must snap to the correct mode, never interpolate between them.
    #[test]
    fn sketch_tracks_exact_on_bimodal_streams(
        lo in proptest::collection::vec(1e-3f64..1e-2, 1..200),
        hi in proptest::collection::vec(1e3f64..1e4, 1..200),
        interleave in any::<bool>(),
    ) {
        let xs: Vec<f64> = if interleave {
            lo.iter().copied().chain(hi.iter().copied()).collect()
        } else {
            hi.iter().chain(lo.iter()).copied().collect()
        };
        check_quantiles(&sketch_of(&xs), &xs);
    }

    /// Merge-order invariance for sharded aggregation: folding shard
    /// sketches in any order yields identical bucket state, and the merged
    /// quantiles match a collector that saw the whole stream.
    #[test]
    fn sketch_merge_is_order_invariant(
        shards in proptest::collection::vec(
            proptest::collection::vec(1e-4f64..1e4, 1..80), 2..6),
        seed in any::<u64>(),
    ) {
        let sketches: Vec<LogQuantileSketch> =
            shards.iter().map(|s| sketch_of(s)).collect();
        let mut fwd = LogQuantileSketch::new();
        sketches.iter().for_each(|s| fwd.merge(s));
        // A deterministic pseudo-random permutation of the merge order.
        let mut order: Vec<usize> = (0..sketches.len()).collect();
        let mut state = seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        let mut perm = LogQuantileSketch::new();
        order.iter().for_each(|&i| perm.merge(&sketches[i]));
        prop_assert_eq!(&fwd, &perm);

        let all: Vec<f64> = shards.concat();
        prop_assert_eq!(&fwd, &sketch_of(&all));
        check_quantiles(&fwd, &all);
    }

    /// StreamingQuantiles is bit-exact below its threshold and within the
    /// sketch error above it; conversion happens exactly past the
    /// threshold.
    #[test]
    fn streaming_quantiles_exact_then_sketch(
        xs in proptest::collection::vec(1e-3f64..1e3, 1..300),
        threshold in 1usize..100,
    ) {
        let mut sq = StreamingQuantiles::new(threshold);
        xs.iter().for_each(|&v| sq.record(v));
        prop_assert_eq!(sq.is_sketch(), xs.len() > threshold);
        prop_assert_eq!(sq.count(), xs.len() as u64);
        let mut sorted = xs.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.5, 0.95, 0.99] {
            let got = sq.quantile(q).unwrap();
            let exact = percentile_of_sorted(&sorted, q).unwrap();
            if sq.is_sketch() {
                let tol = exact.abs() * SKETCH_REL_ERR;
                prop_assert!((got - exact).abs() <= tol, "q={q}: {got} vs {exact}");
            } else {
                prop_assert_eq!(got.to_bits(), exact.to_bits(), "exact mode must be bit-identical");
            }
        }
    }
}
