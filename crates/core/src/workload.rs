//! Consumption workloads: traffic models over consumer-pair sets.
//!
//! The paper's evaluation (§5) draws **35 consumer pairs** from the set of
//! all `(|N| choose 2)` node pairs and builds "a sequence of consumption
//! requests from these pairs that must be satisfied in the order of the
//! sequence" — explicitly to avoid biasing the cost toward easy-to-satisfy
//! pairs. That closed-loop batch is one point in a larger workload space: a
//! production quantum internet serves *open-loop* load (requests arrive over
//! time at some offered rate, à la the asynchronous-routing evaluations of
//! Yang et al.) with *skewed* per-pair demand.
//!
//! [`WorkloadSpec`] factors that space into two orthogonal axes:
//!
//! * a [`TrafficModel`] — **when** requests arrive:
//!   [`TrafficModel::ClosedLoopBatch`] (the paper's semantics: a fixed batch,
//!   all pending at `t = 0`) or [`TrafficModel::OpenLoopPoisson`] (a Poisson
//!   arrival process at `rate_hz` over an arrival horizon), and
//! * a [`PairSelection`] — **which** consumer pair each request draws:
//!   uniform, round-robin, or Zipf-skewed by popularity rank.
//!
//! [`WorkloadSpec::generate`] materialises a spec into a [`Workload`]: the
//! consumer-pair set plus the full request sequence with per-request
//! [`ConsumptionRequest::arrival_time`]s. Closed-loop batches reproduce the
//! pre-traffic-model request streams byte-for-byte (same RNG draw order),
//! and legacy flat `WorkloadSpec` JSON (`node_count` / `consumer_pairs` /
//! `requests` / `discipline`) still round-trips — see the serialization
//! shim at the bottom of this module.

use qnet_sim::{SimRng, SimTime};
use qnet_topology::{NodeId, NodePair};
use serde::{DeError, Deserialize, Serialize, Value};

/// How requests are drawn from the consumer-pair set.
///
/// Serialized with the variant labels of the pre-traffic-model selection
/// enum (`"UniformRandom"` / `"RoundRobin"`), so existing configs and
/// campaign reports keep their bytes; [`PairSelection::ZipfSkew`] extends
/// the value space for skewed demand.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PairSelection {
    /// Each request is an independent uniform draw from the consumer pairs.
    UniformRandom,
    /// Requests cycle deterministically through the consumer pairs.
    RoundRobin,
    /// Zipf-distributed popularity: the rank-`r` consumer pair (in the
    /// generated consumer ordering) is drawn with probability proportional
    /// to `1 / r^s`. `s = 0` degenerates to uniform; larger `s` concentrates
    /// demand on a few hot pairs.
    ZipfSkew {
        /// The skew exponent `s ≥ 0`.
        s: f64,
    },
}

/// When consumption requests arrive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficModel {
    /// The paper's §5 semantics: a fixed batch of requests, all pending at
    /// `t = 0`, satisfied in sequence order.
    ClosedLoopBatch {
        /// Total number of consumption requests in the batch.
        requests: usize,
    },
    /// Open-loop offered load: requests arrive as a Poisson process at
    /// `rate_hz` for `horizon_s` simulated seconds. The request count is a
    /// random variable of the seed (mean `rate_hz × horizon_s`).
    OpenLoopPoisson {
        /// Mean arrival rate in requests per simulated second.
        rate_hz: f64,
        /// Arrivals stop after this many simulated seconds (the run itself
        /// may continue to its own horizon to drain the queue).
        horizon_s: f64,
    },
}

/// Specification of a consumption workload: a consumer-pair set, a traffic
/// model and a pair-selection discipline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Number of nodes in the network (pairs are drawn over these).
    pub node_count: usize,
    /// Number of distinct consumer pairs (the paper uses 35; capped at the
    /// number of available pairs for small networks).
    pub consumer_pairs: usize,
    /// When requests arrive.
    pub traffic: TrafficModel,
    /// How requests are drawn from the consumer pairs.
    pub selection: PairSelection,
}

impl WorkloadSpec {
    /// The paper's default: 35 consumer pairs, one closed-loop request per
    /// pair (sequential), uniform-random ordering.
    pub fn paper_default(node_count: usize) -> Self {
        WorkloadSpec {
            node_count,
            consumer_pairs: 35,
            traffic: TrafficModel::ClosedLoopBatch { requests: 35 },
            selection: PairSelection::UniformRandom,
        }
    }

    /// A closed-loop batch workload (the pre-traffic-model constructor).
    pub fn closed_loop(node_count: usize, consumer_pairs: usize, requests: usize) -> Self {
        WorkloadSpec {
            node_count,
            consumer_pairs,
            traffic: TrafficModel::ClosedLoopBatch { requests },
            selection: PairSelection::UniformRandom,
        }
    }

    /// An open-loop Poisson workload offering `rate_hz` requests per second
    /// for `horizon_s` simulated seconds.
    pub fn open_loop(
        node_count: usize,
        consumer_pairs: usize,
        rate_hz: f64,
        horizon_s: f64,
    ) -> Self {
        assert!(rate_hz > 0.0, "arrival rate must be positive");
        assert!(
            horizon_s > 0.0 && horizon_s.is_finite(),
            "arrival horizon must be positive and finite"
        );
        WorkloadSpec {
            node_count,
            consumer_pairs,
            traffic: TrafficModel::OpenLoopPoisson { rate_hz, horizon_s },
            selection: PairSelection::UniformRandom,
        }
    }

    /// Builder: make the workload a closed-loop batch of `requests`.
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.traffic = TrafficModel::ClosedLoopBatch { requests };
        self
    }

    /// Builder: set the pair-selection discipline.
    pub fn with_discipline(mut self, selection: PairSelection) -> Self {
        self.selection = selection;
        self
    }

    /// Builder: set the traffic model.
    pub fn with_traffic(mut self, traffic: TrafficModel) -> Self {
        self.traffic = traffic;
        self
    }

    /// Parse the campaign/CLI workload grammar over `pairs` consumer pairs:
    /// `closed[:REQUESTS]` or `open-loop:RATE_HZ[:HORIZON_S]`, optionally
    /// suffixed with a selection: `@uniform`, `@round-robin` or `@zipf:S`.
    /// An omitted request count or arrival horizon takes
    /// `default_requests` or `default_horizon_s`. The node count is left
    /// at 0 for grids to patch per topology. The value rules are
    /// [`WorkloadSpec::check`]'s.
    pub fn parse(
        spec: &str,
        pairs: usize,
        default_requests: usize,
        default_horizon_s: f64,
    ) -> Result<WorkloadSpec, String> {
        let (traffic_spec, selection_spec) = match spec.split_once('@') {
            Some((t, sel)) => (t, Some(sel)),
            None => (spec, None),
        };
        let parts: Vec<&str> = traffic_spec.split(':').collect();
        let traffic = match parts[0] {
            "closed" => {
                let requests = match parts.get(1) {
                    Some(r) => r
                        .parse()
                        .map_err(|_| format!("{spec}: bad request count"))?,
                    None => default_requests,
                };
                if parts.len() > 2 {
                    return Err(format!("{spec}: closed takes at most one parameter"));
                }
                TrafficModel::ClosedLoopBatch { requests }
            }
            "open-loop" => {
                let rate_hz: f64 = parts
                    .get(1)
                    .ok_or_else(|| format!("{spec}: open-loop needs a rate"))?
                    .parse()
                    .map_err(|_| format!("{spec}: bad arrival rate"))?;
                let horizon_s: f64 = match parts.get(2) {
                    Some(h) => h.parse().map_err(|_| format!("{spec}: bad horizon"))?,
                    None => default_horizon_s,
                };
                if parts.len() > 3 {
                    return Err(format!("{spec}: open-loop takes at most two parameters"));
                }
                TrafficModel::OpenLoopPoisson { rate_hz, horizon_s }
            }
            other => Err(format!(
                "unknown traffic model '{other}' (valid: closed, open-loop; \
                 see --list-workloads)"
            ))?,
        };
        let selection = match selection_spec {
            None | Some("uniform") => PairSelection::UniformRandom,
            Some("round-robin") => PairSelection::RoundRobin,
            Some(sel) => match sel.split_once(':') {
                Some(("zipf", s)) => PairSelection::ZipfSkew {
                    s: s.parse()
                        .map_err(|_| format!("{spec}: bad Zipf exponent"))?,
                },
                _ => {
                    return Err(format!(
                        "unknown selection '@{sel}' (valid: @uniform, @round-robin, \
                         @zipf:S; see --list-workloads)"
                    ))
                }
            },
        };
        let workload = WorkloadSpec {
            node_count: 0,
            consumer_pairs: pairs,
            traffic,
            selection,
        };
        workload.check().map_err(|e| format!("{spec}: {e}"))?;
        Ok(workload)
    }

    /// The value rules every runnable spec satisfies: at least one
    /// consumer pair; a closed-loop batch of at least one request; an
    /// open-loop rate and arrival horizon that are positive and finite; a
    /// Zipf exponent that is finite and `≥ 0`. NaN fails every rule. The
    /// node count is not checked: grids patch it per topology.
    pub fn check(&self) -> Result<(), String> {
        let positive = |x: f64| x > 0.0 && x.is_finite();
        let rule = match (self.traffic, self.selection) {
            _ if self.consumer_pairs < 1 => "a workload needs at least one consumer pair".into(),
            (TrafficModel::ClosedLoopBatch { requests: 0 }, _) => {
                "a closed-loop batch needs at least one request".into()
            }
            (TrafficModel::OpenLoopPoisson { rate_hz, .. }, _) if !positive(rate_hz) => {
                format!("open-loop arrival rate must be positive and finite (got {rate_hz})")
            }
            (TrafficModel::OpenLoopPoisson { horizon_s, .. }, _) if !positive(horizon_s) => {
                format!("open-loop arrival horizon must be positive and finite (got {horizon_s})")
            }
            (_, PairSelection::ZipfSkew { s }) if !(s >= 0.0 && s.is_finite()) => {
                format!("Zipf exponent must be finite and ≥ 0 (got {s})")
            }
            _ => return Ok(()),
        };
        Err(rule)
    }

    /// True for open-loop traffic models.
    pub fn is_open_loop(&self) -> bool {
        matches!(self.traffic, TrafficModel::OpenLoopPoisson { .. })
    }

    /// The nominal request count: the batch size for closed-loop traffic,
    /// the *expected* arrival count (`rate × horizon`, rounded) for
    /// open-loop traffic. Used for reporting; the realised open-loop count
    /// varies by seed.
    pub fn nominal_requests(&self) -> usize {
        match self.traffic {
            TrafficModel::ClosedLoopBatch { requests } => requests,
            TrafficModel::OpenLoopPoisson { rate_hz, horizon_s } => {
                (rate_hz * horizon_s).round() as usize
            }
        }
    }

    /// Materialise the workload with the given RNG seed.
    ///
    /// Closed-loop batches draw exactly the same RNG stream as the
    /// pre-traffic-model implementation (consumer shuffle, then one draw per
    /// uniform request), so legacy runs are byte-identical. Open-loop
    /// arrival gaps come from an independent derived stream (`"arrivals"`),
    /// so pair selection stays aligned across traffic models.
    ///
    /// This is [`WorkloadSpec::stream`] collected to a `Vec`: the lazy and
    /// eager paths share one generator, so they cannot drift apart.
    pub fn generate(&self, seed: u64) -> Workload {
        let mut stream = self.stream(seed);
        let mut requests = Vec::with_capacity(self.nominal_requests() + 1);
        while let Some(request) = stream.next_request() {
            requests.push(request);
        }
        Workload {
            consumers: stream.consumers,
            requests,
        }
    }

    /// Lazily generate the workload's request sequence.
    ///
    /// Yields exactly the requests [`WorkloadSpec::generate`] materialises,
    /// in order, with identical RNG draws: the consumer shuffle happens up
    /// front on the `"workload"` stream, pair selection continues on that
    /// stream one draw per request, and open-loop arrival gaps come from
    /// the independent `"arrivals"` stream — because the two streams are
    /// independent, interleaving their draws (one gap + one pair per
    /// request) produces the same values as the eager all-gaps-then-all-
    /// pairs order. This is what lets the simulation schedule 10⁶–10⁷
    /// Poisson arrivals in small batches without ever materialising the
    /// request vector.
    pub fn stream(&self, seed: u64) -> ArrivalStream {
        let max_pairs = self.node_count * self.node_count.saturating_sub(1) / 2;
        assert!(
            max_pairs > 0,
            "need at least two nodes to form consumer pairs"
        );
        let wanted = self.consumer_pairs.min(max_pairs).max(1);

        let mut rng = SimRng::new(seed).derive("workload");

        // Draw `wanted` distinct pairs uniformly from all (n choose 2) pairs
        // by shuffling the full pair list (n is experiment-scale, so this is
        // cheap and unbiased).
        let mut all: Vec<NodePair> = qnet_topology::pairs::all_pairs(self.node_count).collect();
        rng.shuffle(&mut all);
        // Shrink the buffer to the drawn prefix, or the stream would carry
        // all n(n−1)/2 pairs for the whole run. (Copying the prefix out and
        // freeing the buffer instead raised the 1000-node scale-free run's
        // peak RSS by 0.2 MiB: the allocator then places later allocations
        // differently.)
        let mut consumers = all;
        consumers.truncate(wanted);
        consumers.shrink_to_fit();
        consumers.sort_unstable();

        let picker = PairPicker {
            selection: self.selection,
            zipf_cdf: match self.selection {
                PairSelection::ZipfSkew { s } => Some(zipf_cdf(consumers.len(), s)),
                _ => None,
            },
            rng,
        };
        let source = match self.traffic {
            TrafficModel::ClosedLoopBatch { requests } => Source::Closed {
                picker,
                remaining: requests,
            },
            TrafficModel::OpenLoopPoisson { rate_hz, horizon_s } => {
                assert!(rate_hz > 0.0, "arrival rate must be positive");
                assert!(
                    horizon_s > 0.0 && horizon_s.is_finite(),
                    "arrival horizon must be positive and finite"
                );
                Source::Open {
                    picker,
                    rng: SimRng::new(seed).derive("arrivals"),
                    rate_hz,
                    horizon_s,
                    t: 0.0,
                    exhausted: false,
                }
            }
        };

        ArrivalStream {
            consumers,
            source,
            next_seq: 0,
        }
    }
}

/// Where an [`ArrivalStream`]'s requests come from: a materialised list,
/// or a traffic model whose requests are drawn one at a time (an arrival
/// time from the model, then a pair from the picker).
#[derive(Debug, Clone)]
enum Source {
    /// A materialised workload's requests, replayed in order with their
    /// own pairs.
    Listed(std::vec::IntoIter<ConsumptionRequest>),
    /// Closed-loop batch: `remaining` requests left, all at `t = 0`.
    Closed {
        picker: PairPicker,
        remaining: usize,
    },
    /// Open-loop Poisson: the `"arrivals"` RNG plus the current arrival
    /// clock, exhausted once a gap overshoots the horizon.
    Open {
        picker: PairPicker,
        rng: SimRng,
        rate_hz: f64,
        horizon_s: f64,
        t: f64,
        exhausted: bool,
    },
}

/// The pair-selection state of a drawn stream.
#[derive(Debug, Clone)]
struct PairPicker {
    selection: PairSelection,
    zipf_cdf: Option<Vec<f64>>,
    /// The `"workload"` RNG, positioned just past the consumer shuffle.
    rng: SimRng,
}

impl PairPicker {
    /// The pair of the `sequence`-th request.
    fn pick(&mut self, consumers: &[NodePair], sequence: u64) -> NodePair {
        match self.selection {
            PairSelection::UniformRandom => *self.rng.choose(consumers).expect("non-empty"),
            PairSelection::RoundRobin => consumers[(sequence as usize) % consumers.len()],
            PairSelection::ZipfSkew { .. } => {
                let cdf = self.zipf_cdf.as_deref().expect("computed at construction");
                consumers[sample_cdf(cdf, self.rng.uniform())]
            }
        }
    }
}

/// A lazily evaluated request sequence: the self-contained generator state
/// (consumer set, selection discipline, both RNG streams) that yields the
/// same [`ConsumptionRequest`]s [`WorkloadSpec::generate`] would
/// materialise, one at a time. Carried by the simulation world so arrivals
/// are scheduled in batches — memory stays flat no matter how many
/// requests the horizon implies. A materialised [`Workload`] converts into
/// a stream that replays it, so the world has one arrival path.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    consumers: Vec<NodePair>,
    source: Source,
    next_seq: u64,
}

impl ArrivalStream {
    /// The distinct consumer pairs (fixed at stream construction).
    pub fn consumers(&self) -> &[NodePair] {
        &self.consumers
    }

    /// Number of requests yielded so far.
    pub fn yielded(&self) -> u64 {
        self.next_seq
    }

    /// Whether the stream replays a materialised [`Workload`], whose
    /// requests are all in memory already.
    pub(crate) fn is_listed(&self) -> bool {
        matches!(self.source, Source::Listed(_))
    }

    /// The next request, or `None` once the traffic model is exhausted
    /// (permanently: the stream is fused).
    pub fn next_request(&mut self) -> Option<ConsumptionRequest> {
        let (picker, arrival_time) = match &mut self.source {
            Source::Listed(requests) => {
                let request = requests.next()?;
                self.next_seq += 1;
                return Some(request);
            }
            Source::Closed { picker, remaining } => {
                if *remaining == 0 {
                    return None;
                }
                *remaining -= 1;
                (picker, SimTime::ZERO)
            }
            Source::Open {
                picker,
                rng,
                rate_hz,
                horizon_s,
                t,
                exhausted,
            } => {
                if *exhausted {
                    return None;
                }
                *t += rng.sample_exponential(*rate_hz);
                if *t > *horizon_s {
                    *exhausted = true;
                    return None;
                }
                (picker, SimTime::from_secs_f64(*t))
            }
        };
        let sequence = self.next_seq;
        self.next_seq += 1;
        Some(ConsumptionRequest {
            sequence,
            pair: picker.pick(&self.consumers, sequence),
            arrival_time,
        })
    }
}

impl From<Workload> for ArrivalStream {
    /// Replay a materialised workload: its requests in order, each with
    /// its own pair and arrival time.
    fn from(workload: Workload) -> Self {
        ArrivalStream {
            consumers: workload.consumers,
            source: Source::Listed(workload.requests.into_iter()),
            next_seq: 0,
        }
    }
}

/// Cumulative Zipf weights: `cdf[r] = Σ_{i≤r} (i+1)^-s`, normalised to 1.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    assert!(n > 0, "Zipf needs at least one rank");
    assert!(s >= 0.0 && s.is_finite(), "Zipf exponent must be ≥ 0");
    let mut cdf = Vec::with_capacity(n);
    let mut total = 0.0f64;
    for rank in 1..=n {
        total += (rank as f64).powf(-s);
        cdf.push(total);
    }
    for w in &mut cdf {
        *w /= total;
    }
    cdf
}

/// Index of the first CDF entry ≥ `u` (binary search; `u ∈ [0, 1)`).
fn sample_cdf(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// One consumption request: the pair that wants a Bell pair for
/// teleportation, and when the request entered the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConsumptionRequest {
    /// Position in the arrival sequence (0-based). Closed-loop requests must
    /// be satisfied in this order.
    pub sequence: u64,
    /// The consuming pair.
    pub pair: NodePair,
    /// Simulated time at which the request arrives (always `t = 0` for
    /// closed-loop batches).
    pub arrival_time: SimTime,
}

/// A materialised workload: the consumer-pair set and the ordered request
/// sequence (non-decreasing arrival times).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// The distinct consumer pairs.
    pub consumers: Vec<NodePair>,
    /// The ordered request sequence.
    pub requests: Vec<ConsumptionRequest>,
}

impl Workload {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True if there are no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Build a workload directly from an explicit request list, all arriving
    /// at `t = 0` (used by tests and by the hybrid experiments).
    pub fn from_pairs(pairs: Vec<NodePair>) -> Self {
        let mut consumers = pairs.clone();
        consumers.sort_unstable();
        consumers.dedup();
        let requests = pairs
            .into_iter()
            .enumerate()
            .map(|(k, pair)| ConsumptionRequest {
                sequence: k as u64,
                pair,
                arrival_time: SimTime::ZERO,
            })
            .collect();
        Workload {
            consumers,
            requests,
        }
    }

    /// The distinct nodes that appear in at least one consumer pair.
    pub fn consumer_nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self
            .consumers
            .iter()
            .flat_map(|p| [p.lo(), p.hi()])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

// ---------------------------------------------------------------------------
// Serialization back-compat shim
// ---------------------------------------------------------------------------
//
// The pre-traffic-model `WorkloadSpec` was a flat struct serialized as
// `{node_count, consumer_pairs, requests, discipline}`. Closed-loop specs
// keep exactly that layout (so existing configs and campaign fingerprints
// stay byte-identical), with `discipline` now carrying the full
// `PairSelection` value space; open-loop specs add a `traffic` field in
// place of `requests`. Deserialization accepts both layouts.

impl Serialize for WorkloadSpec {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("node_count".to_string(), self.node_count.to_value()),
            ("consumer_pairs".to_string(), self.consumer_pairs.to_value()),
        ];
        match self.traffic {
            TrafficModel::ClosedLoopBatch { requests } => {
                entries.push(("requests".to_string(), requests.to_value()));
            }
            TrafficModel::OpenLoopPoisson { .. } => {
                entries.push(("traffic".to_string(), self.traffic.to_value()));
            }
        }
        entries.push(("discipline".to_string(), self.selection.to_value()));
        Value::Map(entries)
    }
}

impl Deserialize for WorkloadSpec {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        if value.as_map().is_none() {
            return Err(DeError::expected("WorkloadSpec object", value));
        }
        let field = |name: &str| value.get_field(name).unwrap_or(&Value::Null);
        let traffic = match value.get_field("traffic") {
            Some(t) => TrafficModel::from_value(t)?,
            None => TrafficModel::ClosedLoopBatch {
                requests: usize::from_value(field("requests"))?,
            },
        };
        Ok(WorkloadSpec {
            node_count: usize::from_value(field("node_count"))?,
            consumer_pairs: usize::from_value(field("consumer_pairs"))?,
            traffic,
            selection: PairSelection::from_value(field("discipline"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let spec = WorkloadSpec::paper_default(25);
        let w = spec.generate(1);
        assert_eq!(w.consumers.len(), 35);
        assert_eq!(w.len(), 35);
        // All consumers are distinct and canonical.
        let mut seen = w.consumers.clone();
        seen.dedup();
        assert_eq!(seen.len(), 35);
        // Every request comes from the consumer set and arrives at t = 0.
        assert!(w.requests.iter().all(|r| w.consumers.contains(&r.pair)));
        assert!(w.requests.iter().all(|r| r.arrival_time == SimTime::ZERO));
        // Sequence numbers are 0..n in order.
        assert!(w
            .requests
            .iter()
            .enumerate()
            .all(|(k, r)| r.sequence == k as u64));
    }

    #[test]
    fn small_networks_cap_consumer_pairs() {
        let spec = WorkloadSpec::paper_default(5);
        let w = spec.generate(3);
        assert_eq!(w.consumers.len(), 10, "5 choose 2");
        assert!(!w.is_empty());
    }

    /// The shuffled all-pairs buffer is shrunk to the consumer list, so a
    /// stream over 1000 nodes (499 500 candidate pairs) carries 35 pairs
    /// and not that buffer, and the draw is still the shuffle's prefix.
    #[test]
    fn consumer_list_capacity_stays_proportional_to_the_pairs_drawn() {
        let spec = WorkloadSpec::open_loop(1000, 35, 10.0, 100.0);
        let stream = spec.stream(7);
        assert_eq!(stream.consumers.len(), 35);
        assert!(stream.consumers.capacity() <= 2 * 35);
        assert!(spec.generate(7).consumers.capacity() <= 2 * 35);
        let mut all: Vec<NodePair> = qnet_topology::pairs::all_pairs(1000).collect();
        SimRng::new(7).derive("workload").shuffle(&mut all);
        let mut drawn = all[..35].to_vec();
        drawn.sort_unstable();
        assert_eq!(stream.consumers, drawn);
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = WorkloadSpec::paper_default(16).with_requests(100);
        let a = spec.generate(42);
        let b = spec.generate(42);
        let c = spec.generate(43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn round_robin_cycles_through_consumers() {
        let spec = WorkloadSpec::closed_loop(10, 4, 12).with_discipline(PairSelection::RoundRobin);
        let w = spec.generate(7);
        assert_eq!(w.consumers.len(), 4);
        for (k, r) in w.requests.iter().enumerate() {
            assert_eq!(r.pair, w.consumers[k % 4]);
        }
    }

    #[test]
    fn uniform_random_uses_all_consumers_eventually() {
        let spec = WorkloadSpec::closed_loop(10, 5, 500);
        let w = spec.generate(11);
        for c in &w.consumers {
            assert!(
                w.requests.iter().any(|r| r.pair == *c),
                "{c} never requested"
            );
        }
    }

    #[test]
    fn from_pairs_and_consumer_nodes() {
        let pairs = vec![
            NodePair::new(NodeId(3), NodeId(1)),
            NodePair::new(NodeId(1), NodeId(3)),
            NodePair::new(NodeId(0), NodeId(2)),
        ];
        let w = Workload::from_pairs(pairs);
        assert_eq!(w.len(), 3);
        assert_eq!(w.consumers.len(), 2, "duplicates removed");
        assert_eq!(
            w.consumer_nodes(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
    }

    #[test]
    #[should_panic]
    fn single_node_network_panics() {
        let _ = WorkloadSpec::paper_default(1).generate(0);
    }

    // --- open-loop traffic -------------------------------------------------

    #[test]
    fn poisson_arrivals_are_deterministic_per_seed() {
        let spec = WorkloadSpec::open_loop(10, 5, 2.0, 200.0);
        let a = spec.generate(9);
        let b = spec.generate(9);
        let c = spec.generate(10);
        assert_eq!(a, b, "same seed must reproduce the arrival sequence");
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn poisson_arrivals_are_ordered_and_bounded() {
        let spec = WorkloadSpec::open_loop(10, 5, 3.0, 100.0);
        let w = spec.generate(4);
        let horizon = SimTime::from_secs_f64(100.0);
        assert!(!w.is_empty());
        for pair in w.requests.windows(2) {
            assert!(pair[0].arrival_time <= pair[1].arrival_time);
        }
        assert!(w.requests.iter().all(|r| r.arrival_time <= horizon));
        assert!(w.requests.first().unwrap().arrival_time > SimTime::ZERO);
    }

    #[test]
    fn poisson_arrival_count_tracks_offered_load() {
        // 2 Hz over 500 s → 1000 expected arrivals; a 4-sigma band is
        // ±4·√1000 ≈ ±127.
        let spec = WorkloadSpec::open_loop(10, 5, 2.0, 500.0);
        let n = spec.generate(21).len() as f64;
        assert!((n - 1000.0).abs() < 130.0, "got {n} arrivals");
        assert_eq!(spec.nominal_requests(), 1000);
    }

    #[test]
    fn generate_matches_legacy_two_phase_draw_order() {
        // The pre-streaming implementation drew ALL arrival gaps from the
        // "arrivals" stream first, then ALL pair selections from the
        // "workload" stream. The interleaved generator must reproduce that
        // byte-for-byte because the two derived streams are independent.
        for seed in [1u64, 9, 77] {
            let spec = WorkloadSpec::open_loop(10, 5, 2.0, 200.0);

            let mut rng = SimRng::new(seed).derive("workload");
            let mut all: Vec<NodePair> = qnet_topology::pairs::all_pairs(10).collect();
            rng.shuffle(&mut all);
            let mut consumers: Vec<NodePair> = all.into_iter().take(5).collect();
            consumers.sort_unstable();

            // Phase 1: every arrival instant, before any pair draw.
            let mut arr = SimRng::new(seed).derive("arrivals");
            let mut times = Vec::new();
            let mut t = 0.0f64;
            loop {
                t += arr.sample_exponential(2.0);
                if t > 200.0 {
                    break;
                }
                times.push(SimTime::from_secs_f64(t));
            }
            // Phase 2: one uniform pair draw per request.
            let legacy: Vec<ConsumptionRequest> = times
                .iter()
                .enumerate()
                .map(|(k, &arrival_time)| ConsumptionRequest {
                    sequence: k as u64,
                    pair: *rng.choose(&consumers).unwrap(),
                    arrival_time,
                })
                .collect();

            let w = spec.generate(seed);
            assert_eq!(w.consumers, consumers);
            assert_eq!(w.requests, legacy);
        }
    }

    #[test]
    fn stream_is_fused_and_matches_generate() {
        let spec = WorkloadSpec::open_loop(10, 5, 2.0, 100.0);
        let w = spec.generate(13);
        let mut s = spec.stream(13);
        assert_eq!(s.consumers(), w.consumers.as_slice());
        let mut collected = Vec::new();
        while let Some(r) = s.next_request() {
            collected.push(r);
        }
        assert_eq!(collected, w.requests);
        assert_eq!(s.yielded(), w.len() as u64);
        assert!(s.next_request().is_none(), "stream is fused");
        assert!(s.next_request().is_none());
    }

    #[test]
    fn a_workload_stream_replays_the_workload() {
        let w = WorkloadSpec::open_loop(10, 5, 2.0, 100.0).generate(13);
        let mut s = ArrivalStream::from(w.clone());
        assert_eq!(s.consumers(), w.consumers.as_slice());
        let mut collected = Vec::new();
        while let Some(r) = s.next_request() {
            collected.push(r);
        }
        assert_eq!(collected, w.requests);
        assert_eq!(s.yielded(), w.len() as u64);
        assert!(s.next_request().is_none(), "stream is fused");
    }

    #[test]
    fn closed_loop_stream_matches_generate() {
        let spec = WorkloadSpec::closed_loop(12, 6, 300)
            .with_discipline(PairSelection::ZipfSkew { s: 1.2 });
        let w = spec.generate(5);
        let mut s = spec.stream(5);
        let mut collected = Vec::new();
        while let Some(r) = s.next_request() {
            collected.push(r);
        }
        assert_eq!(collected, w.requests);
    }

    #[test]
    fn zipf_selection_orders_frequencies_by_rank() {
        let spec = WorkloadSpec::closed_loop(12, 6, 3000)
            .with_discipline(PairSelection::ZipfSkew { s: 1.2 });
        let w = spec.generate(5);
        let counts: Vec<usize> = w
            .consumers
            .iter()
            .map(|c| w.requests.iter().filter(|r| r.pair == *c).count())
            .collect();
        // Rank 1 must dominate, and the head must far outweigh the tail.
        assert!(counts[0] > counts[counts.len() - 1]);
        assert!(
            counts[0] as f64 > 0.3 * w.len() as f64,
            "head pair got only {} of {}",
            counts[0],
            w.len()
        );
    }

    #[test]
    fn zipf_zero_skew_is_uniformish() {
        let spec = WorkloadSpec::closed_loop(12, 6, 6000)
            .with_discipline(PairSelection::ZipfSkew { s: 0.0 });
        let w = spec.generate(8);
        for c in &w.consumers {
            let share = w.requests.iter().filter(|r| r.pair == *c).count() as f64 / w.len() as f64;
            assert!((share - 1.0 / 6.0).abs() < 0.03, "share {share}");
        }
    }

    #[test]
    fn zipf_cdf_shape() {
        let cdf = zipf_cdf(4, 1.0);
        assert_eq!(cdf.len(), 4);
        assert!((cdf[3] - 1.0).abs() < 1e-12);
        // Harmonic weights 1, 1/2, 1/3, 1/4 over 25/12.
        assert!((cdf[0] - 12.0 / 25.0).abs() < 1e-12);
        assert_eq!(sample_cdf(&cdf, 0.0), 0);
        assert_eq!(sample_cdf(&cdf, 0.999999), 3);
    }

    // --- serialization shim ------------------------------------------------

    #[test]
    fn closed_loop_serializes_to_the_legacy_flat_layout() {
        let spec = WorkloadSpec::closed_loop(9, 10, 12);
        let v = spec.to_value();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            vec!["node_count", "consumer_pairs", "requests", "discipline"],
            "legacy byte layout"
        );
        assert_eq!(v["requests"], 12);
        assert_eq!(v["discipline"], "UniformRandom");
    }

    #[test]
    fn legacy_flat_maps_deserialize_into_closed_loop() {
        let legacy = Value::Map(vec![
            ("node_count".into(), Value::U64(9)),
            ("consumer_pairs".into(), Value::U64(10)),
            ("requests".into(), Value::U64(12)),
            ("discipline".into(), Value::Str("RoundRobin".into())),
        ]);
        let spec = WorkloadSpec::from_value(&legacy).unwrap();
        assert_eq!(spec.traffic, TrafficModel::ClosedLoopBatch { requests: 12 });
        assert_eq!(spec.selection, PairSelection::RoundRobin);
        // And it re-serializes to the same bytes.
        assert_eq!(spec.to_value(), legacy);
    }

    #[test]
    fn open_loop_specs_round_trip() {
        let spec = WorkloadSpec::open_loop(9, 10, 1.5, 400.0)
            .with_discipline(PairSelection::ZipfSkew { s: 0.9 });
        let v = spec.to_value();
        assert!(v.get_field("requests").is_none(), "no legacy key");
        let back = WorkloadSpec::from_value(&v).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn legacy_request_discipline_converts() {
        // The closed-loop selections keep the labels of the
        // pre-traffic-model enum, which cached JSON carries.
        for (selection, label) in [
            (PairSelection::UniformRandom, "UniformRandom"),
            (PairSelection::RoundRobin, "RoundRobin"),
        ] {
            assert_eq!(selection.to_value(), Value::Str(label.to_string()));
            assert_eq!(
                PairSelection::from_value(&selection.to_value()),
                Ok(selection)
            );
        }
    }
}
