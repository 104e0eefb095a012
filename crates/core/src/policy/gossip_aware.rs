//! A staleness-aware variant of the oblivious balancer, registered through
//! the [`SwapPolicy`] plugin API.
//!
//! Under the stale control plane the §4 balancer reads believed beneficiary
//! counts that may be many refresh periods old. A believed count read long
//! ago systematically *overstates* the surviving stock: consumption and
//! balancing keep draining pools between refreshes, while gossip only ever
//! reports the level at read time. The oblivious discipline takes the
//! number at face value and therefore under-serves exactly the pairs whose
//! rows refresh rarely. This policy instead discounts each believed count
//! by `exp(-age / τ)` before the preferable-swap test — an old row decays
//! toward zero, the pair looks as poor as it plausibly is, and the
//! balancer helps it sooner. Under global knowledge there are no ages and
//! the discipline degrades to exactly the oblivious balancer.

use super::{oblivious::ObliviousPolicy, PolicyCtx, PolicyId, PolicyParams};
use super::{RequestAction, SwapPolicy};
use crate::balancer::{BalancerPolicy, CountView, SwapCandidate};
use crate::control::KnowledgeView;
use crate::workload::ConsumptionRequest;
use qnet_sim::SimTime;
use qnet_topology::{NodeId, NodePair};

/// Default decay constant τ (seconds). Sized to the gossip refresh periods
/// the §6 sweeps use (0.25–4 s): a row one default-τ old keeps ~37 % of
/// its believed count.
pub const DEFAULT_TAU_S: f64 = 2.0;

/// [`KnowledgeView`] overlay that decays each believed count by the age of
/// the rows it came from: `⌊count · exp(-age/τ)⌋`. Each count is computed
/// on demand, so the view has no dense [`CountView::row`] and the balancer
/// probes it pair by pair.
#[derive(Debug, Clone, Copy)]
pub struct AgeDiscountedView<'a> {
    view: &'a KnowledgeView,
    now: SimTime,
    tau_s: f64,
}

impl<'a> AgeDiscountedView<'a> {
    /// Discount `view`'s counts as of `now` with decay constant `tau_s`.
    pub fn new(view: &'a KnowledgeView, now: SimTime, tau_s: f64) -> Self {
        assert!(tau_s > 0.0, "the decay constant must be positive");
        AgeDiscountedView { view, now, tau_s }
    }
}

impl CountView for AgeDiscountedView<'_> {
    fn count(&self, pair: NodePair) -> u64 {
        let believed = self.view.count(pair);
        if believed == 0 {
            return 0;
        }
        let age = self.view.pair_age_s(pair, self.now);
        (believed as f64 * (-age / self.tau_s).exp()).floor() as u64
    }
}

/// The gossip-aware balancing discipline: oblivious max-min balancing over
/// age-discounted believed counts.
#[derive(Debug)]
pub struct GossipAwarePolicy {
    balancer: BalancerPolicy,
    tau_s: f64,
}

impl Default for GossipAwarePolicy {
    fn default() -> Self {
        GossipAwarePolicy {
            balancer: BalancerPolicy,
            tau_s: DEFAULT_TAU_S,
        }
    }
}

impl GossipAwarePolicy {
    /// A fresh instance with the default decay constant.
    pub fn new() -> Self {
        GossipAwarePolicy::default()
    }

    /// Construct from serialized registry parameters. Recognised keys:
    /// `"tau_s": <positive seconds>`.
    pub fn from_params(params: &PolicyParams) -> Self {
        let tau_s = params
            .params
            .get_field("tau_s")
            .and_then(|v| v.as_f64())
            .filter(|t| *t > 0.0)
            .unwrap_or(DEFAULT_TAU_S);
        GossipAwarePolicy {
            balancer: BalancerPolicy,
            tau_s,
        }
    }

    /// The configured decay constant τ, seconds.
    pub fn tau_s(&self) -> f64 {
        self.tau_s
    }
}

impl SwapPolicy for GossipAwarePolicy {
    fn id(&self) -> PolicyId {
        PolicyId::GOSSIP_AWARE
    }

    fn schedules_swap_scans(&self) -> bool {
        true
    }

    fn on_swap_scan(&mut self, ctx: &mut PolicyCtx<'_>, node: NodeId) -> Option<SwapCandidate> {
        match ctx.control {
            Some(ctl) => {
                let view = ctl.view(node);
                let d = ctx.config.distillation_overhead();
                let overhead = move |_: NodePair| d;
                let discounted = AgeDiscountedView::new(view, ctx.now, self.tau_s);
                let candidate =
                    self.balancer
                        .find_preferable_swap(ctx.inventory, &discounted, node, &overhead);
                if let Some(c) = &candidate {
                    ctx.telemetry
                        .record_age(view.pair_age_s(c.beneficiary(), ctx.now));
                }
                candidate
            }
            // No ages to discount: identical to the oblivious balancer.
            None => ObliviousPolicy::scan(&self.balancer, ctx, node),
        }
    }

    fn on_blocked_request(
        &mut self,
        _ctx: &mut PolicyCtx<'_>,
        _request: &ConsumptionRequest,
    ) -> RequestAction {
        RequestAction::Wait
    }

    fn blocked_hook_is_inert(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inventory::Inventory;
    use qnet_topology::NodeId;
    use serde::Value;

    fn pair(a: u32, b: u32) -> NodePair {
        NodePair::new(NodeId(a), NodeId(b))
    }

    #[test]
    fn fresh_rows_pass_through_and_old_rows_decay() {
        let mut view = KnowledgeView::new(4);
        view.install_row(NodeId(2), SimTime::from_secs_f64(10.0), &[6, 0, 0, 0]);
        // Read just now: full believed count survives.
        let now = SimTime::from_secs_f64(10.0);
        let fresh = AgeDiscountedView::new(&view, now, 1.0);
        assert_eq!(fresh.count(pair(0, 2)), 6);
        // Two τ later the count has decayed to ⌊6·e⁻²⌋ = 0.
        let later = SimTime::from_secs_f64(12.0);
        let stale = AgeDiscountedView::new(&view, later, 1.0);
        assert_eq!(stale.count(pair(0, 2)), 0);
        // A larger τ keeps more of it: ⌊6·e^(-2/4)⌋ = 3.
        let patient = AgeDiscountedView::new(&view, later, 4.0);
        assert_eq!(patient.count(pair(0, 2)), 3);
    }

    #[test]
    fn discounting_revives_a_swap_a_stale_row_would_block() {
        // Node 1 has deep pools toward 0 and 2; the view believes (0,2)
        // already holds 5 pairs — but that row is ancient. Taken at face
        // value the swap is not preferable; discounted, it is.
        let mut inv = Inventory::new(3);
        for _ in 0..4 {
            inv.add_pair(pair(0, 1)).unwrap();
            inv.add_pair(pair(1, 2)).unwrap();
        }
        let mut view = KnowledgeView::new(3);
        view.install_row(NodeId(0), SimTime::ZERO, &[0, 0, 5]);
        view.install_row(NodeId(2), SimTime::ZERO, &[5, 0, 0]);
        let now = SimTime::from_secs_f64(20.0);
        let balancer = BalancerPolicy;
        let overhead = |_: NodePair| 1.0;
        assert!(
            balancer
                .find_preferable_swap(&inv, &view, NodeId(1), &overhead)
                .is_none(),
            "taken at face value, the believed count blocks the swap"
        );
        let discounted = AgeDiscountedView::new(&view, now, DEFAULT_TAU_S);
        let c = balancer
            .find_preferable_swap(&inv, &discounted, NodeId(1), &overhead)
            .expect("the decayed count frees the swap");
        assert_eq!(c.beneficiary(), pair(0, 2));
    }

    #[test]
    fn judged_against_oblivious_under_stale_gossip() {
        use crate::classical::KnowledgeModel;
        use crate::config::NetworkConfig;
        use crate::test_support::run_world_with_knowledge;
        use crate::workload::Workload;
        use qnet_topology::Topology;

        let config = NetworkConfig::new(Topology::Cycle { nodes: 9 });
        let knowledge = KnowledgeModel::Gossip {
            peers_per_refresh: 2,
            refresh_period_s: 1.0,
        };
        let workload =
            || Workload::from_pairs(vec![pair(0, 3), pair(2, 6), pair(4, 8), pair(1, 5)]);
        let run = |policy| {
            run_world_with_knowledge(config, workload(), policy, knowledge, 23, 900)
                .metrics()
                .clone()
        };
        let aware = run(PolicyId::GOSSIP_AWARE);
        let oblivious = run(PolicyId::OBLIVIOUS);
        // Both disciplines must make progress under the same stale plane...
        assert!(!aware.satisfied.is_empty());
        assert!(!oblivious.satisfied.is_empty());
        // ...the discount must not cost satisfied requests head-to-head...
        assert!(
            aware.satisfied.len() >= oblivious.satisfied.len(),
            "gossip-aware satisfied {} < oblivious {}",
            aware.satisfied.len(),
            oblivious.satisfied.len()
        );
        // ...and the discount genuinely changes decisions (otherwise the
        // policy is a rename, not a discipline).
        assert_ne!(
            (aware.swaps_performed, aware.pairs_generated),
            (oblivious.swaps_performed, oblivious.pairs_generated),
            "age discounting never altered a single balancing decision"
        );
        // Determinism: same seed, same believed world, same metrics.
        let again = run(PolicyId::GOSSIP_AWARE);
        assert_eq!(aware, again);
    }

    #[test]
    fn params_select_tau() {
        let defaults = GossipAwarePolicy::from_params(&PolicyParams::default());
        assert_eq!(defaults.tau_s(), DEFAULT_TAU_S);
        let custom = GossipAwarePolicy::from_params(&PolicyParams {
            params: Value::Map(vec![("tau_s".to_string(), Value::F64(0.5))]),
        });
        assert_eq!(custom.tau_s(), 0.5);
        // Nonsense values fall back to the default.
        let bogus = GossipAwarePolicy::from_params(&PolicyParams {
            params: Value::Map(vec![("tau_s".to_string(), Value::F64(-3.0))]),
        });
        assert_eq!(bogus.tau_s(), DEFAULT_TAU_S);
    }
}
