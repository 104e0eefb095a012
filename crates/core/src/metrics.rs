//! Experiment metrics, headed by the paper's swap-overhead measure.
//!
//! §5 defines **swap overhead** as the number of swaps the distributed
//! algorithm performs divided by `Σ_c s(ℓ(c))`: the nested-swapping optimum
//! summed over the satisfied consumption events' shortest-path lengths. The
//! measure is ≥ 1 by construction (the denominator is the minimum possible);
//! the paper notes it is conservative because practical planned-path systems
//! rarely achieve the optimum and because leftover swapped pairs retain
//! value.

use crate::classical::ClassicalStats;
use crate::nested::{nested_swap_cost, overhead_denominator};
use qnet_sim::stats::{RunningStats, StreamingQuantiles};
use qnet_sim::SimTime;
use qnet_topology::NodePair;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// One satisfied consumption event.
///
/// Serialization: the `fidelity` field is emitted only when present
/// (decoherent physics), so pre-physics results keep their exact bytes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SatisfiedRequest {
    /// Position in the request sequence.
    pub sequence: u64,
    /// The consuming pair.
    pub pair: NodePair,
    /// Simulated time at which the request arrived (always `t = 0` for
    /// closed-loop batches).
    pub arrival_time: SimTime,
    /// Simulated time of satisfaction.
    pub satisfied_at: SimTime,
    /// Hop count of the shortest generation-graph path between the pair's
    /// endpoints (the `ℓ(c)` of the overhead denominator).
    pub shortest_path_hops: usize,
    /// Swaps the hybrid repair step performed specifically for this request
    /// (0 in pure oblivious mode).
    pub repair_swaps: u64,
    /// End-to-end fidelity of the delivered entanglement (`None` under
    /// ideal physics, where pairs are noiseless tokens).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fidelity: Option<f64>,
}

/// Serialization predicate: counters that only some runs populate are
/// omitted while zero, so runs that never touch them keep their legacy
/// bytes.
pub fn is_zero(n: &u64) -> bool {
    *n == 0
}

impl SatisfiedRequest {
    /// The request's sojourn latency (arrival → satisfaction) in simulated
    /// seconds. For closed-loop batches this equals the satisfaction time.
    pub fn sojourn_s(&self) -> f64 {
        self.satisfied_at
            .saturating_since(self.arrival_time)
            .as_secs_f64()
    }
}

/// Fixed-memory summary of the satisfied-request stream.
///
/// The [`crate::observer::MetricsRecorder`] buffers [`SatisfiedRequest`]s
/// exactly up to its exact-sample threshold; the next satisfaction folds
/// the buffer (and everything after it) into this summary and per-request
/// storage stops. Every derived statistic [`RunMetrics`] reports remains
/// available: counts, repair swaps, the overhead denominator (via the
/// hop-count histogram — exact), inter-satisfaction timing (exact), means
/// (Welford — exact), and quantiles (via
/// [`qnet_sim::stats::LogQuantileSketch`] — within its documented ~0.4 %
/// relative value error). Memory is O(distinct hop counts + sketch
/// buckets), independent of the number of requests.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedSummary {
    count: u64,
    repair_swaps: u64,
    first_satisfied_at: SimTime,
    last_satisfied_at: SimTime,
    /// Satisfactions per shortest-path hop count (the exact multiset of
    /// `ℓ(c)` values, so the overhead denominator stays exact).
    hops_counts: BTreeMap<usize, u64>,
    sojourn_stats: RunningStats,
    sojourn_quantiles: StreamingQuantiles,
    fidelity_stats: RunningStats,
    fidelity_quantiles: StreamingQuantiles,
}

impl Default for StreamedSummary {
    fn default() -> Self {
        StreamedSummary::new()
    }
}

impl StreamedSummary {
    /// An empty summary whose quantile collectors sketch from the first
    /// sample (threshold 0): the buffering already happened in the
    /// recorder's exact phase.
    pub fn new() -> Self {
        StreamedSummary {
            count: 0,
            repair_swaps: 0,
            first_satisfied_at: SimTime::ZERO,
            last_satisfied_at: SimTime::ZERO,
            hops_counts: BTreeMap::new(),
            sojourn_stats: RunningStats::new(),
            sojourn_quantiles: StreamingQuantiles::new(0),
            fidelity_stats: RunningStats::new(),
            fidelity_quantiles: StreamingQuantiles::new(0),
        }
    }

    /// Fold one satisfaction into the summary.
    pub fn record(&mut self, r: &SatisfiedRequest) {
        if self.count == 0 {
            self.first_satisfied_at = r.satisfied_at;
        }
        self.last_satisfied_at = r.satisfied_at;
        self.count += 1;
        self.repair_swaps += r.repair_swaps;
        *self.hops_counts.entry(r.shortest_path_hops).or_insert(0) += 1;
        let sojourn = r.sojourn_s();
        self.sojourn_stats.record(sojourn);
        self.sojourn_quantiles.record(sojourn);
        if let Some(f) = r.fidelity {
            self.fidelity_stats.record(f);
            self.fidelity_quantiles.record(f);
        }
    }

    /// Satisfactions folded in.
    pub fn count(&self) -> u64 {
        self.count
    }
}

impl Serialize for StreamedSummary {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("count".to_string(), self.count.to_value()),
            ("repair_swaps".to_string(), self.repair_swaps.to_value()),
            (
                "first_satisfied_at".to_string(),
                self.first_satisfied_at.to_value(),
            ),
            (
                "last_satisfied_at".to_string(),
                self.last_satisfied_at.to_value(),
            ),
            (
                "hops_counts".to_string(),
                Value::Seq(
                    self.hops_counts
                        .iter()
                        .map(|(&h, &c)| Value::Seq(vec![h.to_value(), c.to_value()]))
                        .collect(),
                ),
            ),
            (
                "sojourn_mean_s".to_string(),
                self.sojourn_stats.mean().to_value(),
            ),
        ];
        for (label, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            entries.push((
                format!("sojourn_{label}_s"),
                self.sojourn_quantiles.quantile(q).to_value(),
            ));
        }
        if self.fidelity_stats.count() > 0 {
            entries.push((
                "fidelity_mean".to_string(),
                self.fidelity_stats.mean().to_value(),
            ));
            for (label, q) in [("p50", 0.50), ("p95", 0.95)] {
                entries.push((
                    format!("fidelity_{label}"),
                    self.fidelity_quantiles.quantile(q).to_value(),
                ));
            }
        }
        Value::Map(entries)
    }
}

/// The live sketches behind a [`StreamedSummary`] are not serialized, so a
/// summary document cannot be rehydrated: reading one always fails, which
/// makes `RunMetrics` documents with a `streamed` object write-only.
impl Deserialize for StreamedSummary {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        Err(DeError::expected(
            "buffered RunMetrics (streamed summaries are write-only)",
            value,
        ))
    }
}

/// Aggregate metrics of one simulation run.
///
/// Serialization: the physics counters (`expired_pairs`,
/// `fidelity_rejected_requests`) and the staleness columns are emitted
/// only when populated, so pre-physics results keep their exact bytes. A
/// streamed-summary run additionally emits a `streamed` object (the
/// summary's derived statistics); such documents are write-only — the live
/// sketches are not serialized, so they do not deserialize back into a
/// `RunMetrics`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Distillation overhead `D` used for the denominator.
    pub distillation_overhead: f64,
    /// Total swap operations performed (balancer + any planned/hybrid
    /// execution swaps).
    pub swaps_performed: u64,
    /// Bell pairs generated.
    pub pairs_generated: u64,
    /// Bell pairs lost to decoherence/loss before being stored.
    pub pairs_lost: u64,
    /// The satisfied requests, in satisfaction order. Empty in streamed
    /// mode (see `streamed`), where per-request storage was dropped for
    /// flat memory.
    pub satisfied: Vec<SatisfiedRequest>,
    /// Requests injected into the system (arrivals delivered before the run
    /// ended; open-loop arrivals beyond the run horizon never count).
    pub arrived_requests: u64,
    /// Requests that remained unsatisfied when the simulation ended.
    pub unsatisfied_requests: u64,
    /// Requests the policy dropped as unsatisfiable (e.g. disconnected
    /// endpoints); counted in neither `satisfied` nor `unsatisfied`.
    pub dropped_requests: u64,
    /// Classical message counters.
    pub classical: ClassicalStats,
    /// Simulated time at which the run ended.
    pub ended_at: SimTime,
    /// Pairs still stored in the inventory at the end of the run (the
    /// "leftover value" the paper's conservative-scoring note mentions).
    pub leftover_pairs: u64,
    /// Stored pairs discarded by the physics model's storage cutoff
    /// (decoherent physics only; 0 under ideal physics).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub expired_pairs: u64,
    /// Deliveries that consumed their pairs but fell below the physics
    /// model's end-to-end fidelity floor (decoherent physics only).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub fidelity_rejected_requests: u64,
    /// Swap actions that were believed feasible on stale counts but failed
    /// against drifted ground truth (gossip knowledge only; 0 under
    /// global knowledge).
    #[serde(default, skip_serializing_if = "is_zero")]
    pub missed_swaps: u64,
    /// Mean age in seconds of the believed knowledge rows consulted at
    /// decision time (`None` outside the stale control plane).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub stale_row_age_mean_s: Option<f64>,
    /// 95th-percentile believed-row age in seconds at decision time
    /// (`None` outside the stale control plane).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub stale_row_age_p95_s: Option<f64>,
    /// `Some` when the run crossed the recorder's exact-sample threshold
    /// and per-request buffering gave way to the fixed-memory
    /// [`StreamedSummary`]. All derived statistics below route through it
    /// when present; quantiles then come from a log-bucketed sketch instead
    /// of exact nearest-rank (surfaced in campaign reports as the
    /// `sketch_quantiles` column).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub streamed: Option<StreamedSummary>,
}

impl RunMetrics {
    /// Whether this run's per-request data was folded into a fixed-memory
    /// [`StreamedSummary`] (quantiles are then sketch-backed).
    pub fn is_streamed(&self) -> bool {
        self.streamed.is_some()
    }

    /// Number of satisfied requests.
    pub fn satisfied_count(&self) -> usize {
        match &self.streamed {
            Some(s) => s.count as usize,
            None => self.satisfied.len(),
        }
    }

    /// The swap-overhead denominator `Σ_c s(ℓ(c))`. Exact in both modes
    /// (the streamed summary keeps the full hop-count histogram).
    pub fn overhead_denominator(&self) -> f64 {
        if let Some(s) = &self.streamed {
            return s
                .hops_counts
                .iter()
                .map(|(&hops, &count)| {
                    count as f64 * nested_swap_cost(hops, self.distillation_overhead)
                })
                .sum();
        }
        let lengths: Vec<usize> = self
            .satisfied
            .iter()
            .map(|s| s.shortest_path_hops)
            .collect();
        overhead_denominator(&lengths, self.distillation_overhead)
    }

    /// The paper's swap-overhead metric. `None` when the denominator is zero
    /// (no satisfied request, or all satisfied requests were single-hop with
    /// `s(1) = 0`).
    pub fn swap_overhead(&self) -> Option<f64> {
        let denom = self.overhead_denominator();
        if denom <= 0.0 {
            None
        } else {
            Some(self.swaps_performed as f64 / denom)
        }
    }

    /// Mean time between consecutive satisfactions (a throughput proxy);
    /// `None` with fewer than two satisfactions. Exact in both modes.
    pub fn mean_inter_satisfaction_time(&self) -> Option<f64> {
        if let Some(s) = &self.streamed {
            if s.count < 2 {
                return None;
            }
            return Some(
                s.last_satisfied_at
                    .saturating_since(s.first_satisfied_at)
                    .as_secs_f64()
                    / (s.count - 1) as f64,
            );
        }
        if self.satisfied.len() < 2 {
            return None;
        }
        let first = self.satisfied.first().unwrap().satisfied_at;
        let last = self.satisfied.last().unwrap().satisfied_at;
        Some(last.saturating_since(first).as_secs_f64() / (self.satisfied.len() - 1) as f64)
    }

    /// Fraction of requests satisfied. Fidelity-rejected deliveries count
    /// against the ratio (the request consumed resources yet its user got
    /// entanglement below spec); under ideal physics the formula reduces to
    /// the legacy satisfied / (satisfied + unsatisfied).
    pub fn satisfaction_ratio(&self) -> f64 {
        let satisfied = self.satisfied_count() as u64;
        let total = satisfied + self.unsatisfied_requests + self.fidelity_rejected_requests;
        if total == 0 {
            1.0
        } else {
            satisfied as f64 / total as f64
        }
    }

    /// Total swaps spent on hybrid repairs. Exact in both modes.
    pub fn repair_swaps(&self) -> u64 {
        match &self.streamed {
            Some(s) => s.repair_swaps,
            None => self.satisfied.iter().map(|s| s.repair_swaps).sum(),
        }
    }

    /// The per-request sojourn latencies (arrival → satisfaction) in
    /// simulated seconds, in satisfaction order. Empty in streamed mode
    /// (per-request data is gone); use [`RunMetrics::sojourn_stats`] /
    /// [`RunMetrics::sojourn_percentile`], which work in both modes.
    pub fn sojourn_samples(&self) -> Vec<f64> {
        self.satisfied.iter().map(|s| s.sojourn_s()).collect()
    }

    /// Welford statistics over the sojourn latencies (empty accumulator if
    /// nothing was satisfied). Feeds the campaign aggregation's mean/CI
    /// machinery so closed- and open-loop rows share one path. Exact in
    /// both modes (the streamed summary keeps the running accumulator).
    pub fn sojourn_stats(&self) -> RunningStats {
        if let Some(s) = &self.streamed {
            return s.sojourn_stats;
        }
        let mut stats = RunningStats::new();
        for s in &self.satisfied {
            stats.record(s.sojourn_s());
        }
        stats
    }

    /// The `q`-quantile of the sojourn latencies: exact nearest-rank over
    /// the sorted samples in buffered mode, sketch-backed (documented
    /// ~0.4 % relative value error) in streamed mode. `None` when nothing
    /// was satisfied.
    pub fn sojourn_percentile(&self, q: f64) -> Option<f64> {
        if let Some(s) = &self.streamed {
            return s.sojourn_quantiles.quantile(q);
        }
        let mut samples = self.sojourn_samples();
        samples.sort_by(f64::total_cmp);
        qnet_sim::stats::percentile_of_sorted(&samples, q)
    }

    /// End-to-end fidelities of the delivered entanglement, in satisfaction
    /// order. Empty under ideal physics (deliveries carry no fidelity) and
    /// in streamed mode; use [`RunMetrics::fidelity_stats`] /
    /// [`RunMetrics::fidelity_percentile`], which work in both modes.
    pub fn delivered_fidelity_samples(&self) -> Vec<f64> {
        self.satisfied.iter().filter_map(|s| s.fidelity).collect()
    }

    /// Welford statistics over the delivered fidelities (empty accumulator
    /// under ideal physics). Shares the campaign aggregation's mean/CI
    /// machinery with the overhead and latency columns. Exact in both
    /// modes.
    pub fn fidelity_stats(&self) -> RunningStats {
        if let Some(s) = &self.streamed {
            return s.fidelity_stats;
        }
        let mut stats = RunningStats::new();
        for f in self.delivered_fidelity_samples() {
            stats.record(f);
        }
        stats
    }

    /// The `q`-quantile of the delivered fidelities: exact nearest-rank in
    /// buffered mode, sketch-backed in streamed mode. `None` when no
    /// delivery carried a fidelity.
    pub fn fidelity_percentile(&self, q: f64) -> Option<f64> {
        if let Some(s) = &self.streamed {
            return s.fidelity_quantiles.quantile(q);
        }
        let mut samples = self.delivered_fidelity_samples();
        samples.sort_by(f64::total_cmp);
        qnet_sim::stats::percentile_of_sorted(&samples, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnet_topology::NodeId;

    fn satisfied(seq: u64, hops: usize, at_secs: u64) -> SatisfiedRequest {
        SatisfiedRequest {
            sequence: seq,
            pair: NodePair::new(NodeId(0), NodeId(1)),
            arrival_time: SimTime::ZERO,
            satisfied_at: SimTime::from_secs(at_secs),
            shortest_path_hops: hops,
            repair_swaps: 0,
            fidelity: None,
        }
    }

    fn base_metrics() -> RunMetrics {
        RunMetrics {
            distillation_overhead: 1.0,
            swaps_performed: 10,
            pairs_generated: 100,
            pairs_lost: 0,
            expired_pairs: 0,
            satisfied: vec![satisfied(0, 2, 1), satisfied(1, 4, 3), satisfied(2, 3, 5)],
            streamed: None,
            arrived_requests: 4,
            unsatisfied_requests: 1,
            dropped_requests: 0,
            fidelity_rejected_requests: 0,
            classical: ClassicalStats::new(),
            ended_at: SimTime::from_secs(10),
            leftover_pairs: 7,
            missed_swaps: 0,
            stale_row_age_mean_s: None,
            stale_row_age_p95_s: None,
        }
    }

    #[test]
    fn denominator_and_overhead() {
        let m = base_metrics();
        // s(2)=1, s(4)=2, s(3)=1 at D=1 → denominator 4.
        assert!((m.overhead_denominator() - 4.0).abs() < 1e-12);
        assert!((m.swap_overhead().unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(m.satisfied_count(), 3);
    }

    #[test]
    fn overhead_none_when_denominator_zero() {
        let mut m = base_metrics();
        m.satisfied = vec![satisfied(0, 1, 1)];
        assert!(m.swap_overhead().is_none());
        m.satisfied.clear();
        assert!(m.swap_overhead().is_none());
    }

    #[test]
    fn distillation_scales_denominator() {
        let mut m = base_metrics();
        m.distillation_overhead = 2.0;
        // s(2)=2, s(4)=8, s(3)=4 → 14.
        assert!((m.overhead_denominator() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn satisfaction_ratio_and_timing() {
        let m = base_metrics();
        assert!((m.satisfaction_ratio() - 0.75).abs() < 1e-12);
        // Satisfactions at t = 1, 3, 5 → mean gap 2s.
        assert!((m.mean_inter_satisfaction_time().unwrap() - 2.0).abs() < 1e-9);
        let empty = RunMetrics {
            satisfied: vec![],
            unsatisfied_requests: 0,
            ..base_metrics()
        };
        assert_eq!(empty.satisfaction_ratio(), 1.0);
        assert!(empty.mean_inter_satisfaction_time().is_none());
    }

    #[test]
    fn repair_swaps_summed() {
        let mut m = base_metrics();
        m.satisfied[1].repair_swaps = 3;
        m.satisfied[2].repair_swaps = 2;
        assert_eq!(m.repair_swaps(), 5);
    }

    #[test]
    fn sojourn_latency_accounts_for_arrival_times() {
        let mut m = base_metrics();
        // Arrivals at t = 0, 2, 4; satisfactions at t = 1, 3, 5 → sojourns
        // 1, 1, 1 with arrival offsets; without offsets they are 1, 3, 5.
        assert_eq!(m.sojourn_samples(), vec![1.0, 3.0, 5.0]);
        m.satisfied[1].arrival_time = SimTime::from_secs(2);
        m.satisfied[2].arrival_time = SimTime::from_secs(4);
        assert_eq!(m.sojourn_samples(), vec![1.0, 1.0, 1.0]);
        let stats = m.sojourn_stats();
        assert_eq!(stats.count(), 3);
        assert!((stats.mean() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_stats_cover_only_deliveries_with_fidelity() {
        let mut m = base_metrics();
        assert!(m.delivered_fidelity_samples().is_empty());
        assert_eq!(m.fidelity_percentile(0.5), None);
        assert_eq!(m.fidelity_stats().count(), 0);
        m.satisfied[0].fidelity = Some(0.9);
        m.satisfied[2].fidelity = Some(0.7);
        assert_eq!(m.delivered_fidelity_samples(), vec![0.9, 0.7]);
        assert_eq!(m.fidelity_percentile(0.5), Some(0.7));
        assert_eq!(m.fidelity_percentile(0.95), Some(0.9));
        let stats = m.fidelity_stats();
        assert_eq!(stats.count(), 2);
        assert!((stats.mean() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn fidelity_rejections_count_against_satisfaction() {
        let mut m = base_metrics(); // 3 satisfied, 1 unsatisfied → 0.75
        assert!((m.satisfaction_ratio() - 0.75).abs() < 1e-12);
        m.fidelity_rejected_requests = 4; // 3 of 8 served to spec
        assert!((m.satisfaction_ratio() - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn physics_fields_keep_legacy_bytes_when_inactive() {
        let ideal = base_metrics();
        let v = ideal.to_value();
        assert!(v.get_field("expired_pairs").is_none());
        assert!(v.get_field("fidelity_rejected_requests").is_none());
        let sat = &v.get_field("satisfied").unwrap().as_seq().unwrap()[0];
        assert!(sat.get_field("fidelity").is_none());
        // Legacy documents (no physics keys) load with zeros/None implied.
        let back = RunMetrics::from_value(&v).unwrap();
        assert_eq!(back, ideal);

        // Decoherent metrics round-trip their physics fields.
        let mut physical = base_metrics();
        physical.expired_pairs = 5;
        physical.fidelity_rejected_requests = 2;
        physical.satisfied[1].fidelity = Some(0.83);
        let v = physical.to_value();
        assert_eq!(*v.get_field("expired_pairs").unwrap(), 5u64);
        let back = RunMetrics::from_value(&v).unwrap();
        assert_eq!(back, physical);
        assert_eq!(back.satisfied[1].fidelity, Some(0.83));
    }

    #[test]
    fn staleness_fields_keep_legacy_bytes_when_inactive() {
        let global = base_metrics();
        let v = global.to_value();
        assert!(v.get_field("missed_swaps").is_none());
        assert!(v.get_field("stale_row_age_mean_s").is_none());
        assert!(v.get_field("stale_row_age_p95_s").is_none());
        let back = RunMetrics::from_value(&v).unwrap();
        assert_eq!(back, global);

        let mut stale = base_metrics();
        stale.missed_swaps = 3;
        stale.stale_row_age_mean_s = Some(0.42);
        stale.stale_row_age_p95_s = Some(1.25);
        let v = stale.to_value();
        assert_eq!(*v.get_field("missed_swaps").unwrap(), 3u64);
        let back = RunMetrics::from_value(&v).unwrap();
        assert_eq!(back, stale);
    }

    #[test]
    fn streamed_documents_are_write_only() {
        let mut streamed = base_metrics();
        let mut summary = StreamedSummary::new();
        summary.record(&streamed.satisfied[0]);
        streamed.streamed = Some(summary);
        let v = streamed.to_value();
        assert!(v.get_field("streamed").is_some());
        let err = RunMetrics::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("write-only"), "{err}");
    }

    #[test]
    fn sojourn_percentiles_nearest_rank() {
        let m = base_metrics(); // sojourns 1, 3, 5
        assert_eq!(m.sojourn_percentile(0.5), Some(3.0));
        assert_eq!(m.sojourn_percentile(0.95), Some(5.0));
        assert_eq!(m.sojourn_percentile(0.0), Some(1.0));
        let empty = RunMetrics {
            satisfied: vec![],
            ..base_metrics()
        };
        assert_eq!(empty.sojourn_percentile(0.5), None);
        assert_eq!(empty.sojourn_stats().count(), 0);
    }
}
