//! The path-oblivious balancing discipline (paper §4) as a [`SwapPolicy`].

use super::{PolicyCtx, PolicyId, RequestAction, SwapPolicy};
use crate::balancer::{BalancerPolicy, SwapCandidate};
use crate::workload::ConsumptionRequest;
use qnet_topology::{NodeId, NodePair};

/// Pure path-oblivious max-min balancing: every node periodically scans for
/// a *preferable* swap (the §4 criterion) and consumption takes only pairs
/// that already sit between the consuming endpoints.
#[derive(Debug, Default)]
pub struct ObliviousPolicy {
    balancer: BalancerPolicy,
}

impl ObliviousPolicy {
    /// A fresh instance.
    pub fn new() -> Self {
        ObliviousPolicy::default()
    }

    /// The scan decision shared with the hybrid discipline: consult the
    /// control-plane knowledge for remote counts when one exists, ground
    /// truth otherwise. Under the stale plane the beneficiary count comes
    /// from the scanning node's [`crate::control::KnowledgeView`]; the
    /// consulted row's age is recorded for the staleness metrics. Local
    /// margins always come from truth — a node knows its own buffers.
    pub(crate) fn scan(
        balancer: &BalancerPolicy,
        ctx: &mut PolicyCtx<'_>,
        node: NodeId,
    ) -> Option<SwapCandidate> {
        let d = ctx.config.distillation_overhead();
        let overhead = move |_: NodePair| d;
        match ctx.control {
            Some(ctl) => {
                let view = ctl.view(node);
                let candidate = balancer.find_preferable_swap(ctx.inventory, view, node, &overhead);
                if let Some(c) = &candidate {
                    ctx.telemetry
                        .record_age(view.pair_age_s(c.beneficiary(), ctx.now));
                }
                candidate
            }
            None => balancer.find_preferable_swap(ctx.inventory, &*ctx.inventory, node, &overhead),
        }
    }
}

impl SwapPolicy for ObliviousPolicy {
    fn id(&self) -> PolicyId {
        PolicyId::OBLIVIOUS
    }

    fn schedules_swap_scans(&self) -> bool {
        true
    }

    fn on_swap_scan(&mut self, ctx: &mut PolicyCtx<'_>, node: NodeId) -> Option<SwapCandidate> {
        ObliviousPolicy::scan(&self.balancer, ctx, node)
    }

    fn on_blocked_request(
        &mut self,
        _ctx: &mut PolicyCtx<'_>,
        _request: &ConsumptionRequest,
    ) -> RequestAction {
        // Path-oblivious consumption never plans: it waits for balancing to
        // deliver the pair.
        RequestAction::Wait
    }

    fn blocked_hook_is_inert(&self) -> bool {
        // The hook above is pure `Wait`: the world may skip it entirely on
        // the million-request hot path.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::test_support::{pair, run_world};
    use crate::workload::Workload;
    use qnet_topology::Topology;

    #[test]
    fn satisfies_neighbor_requests_quickly() {
        let config = NetworkConfig::new(Topology::Cycle { nodes: 5 });
        let workload = Workload::from_pairs(vec![pair(0, 1), pair(2, 3), pair(3, 4)]);
        let world = run_world(config, workload, PolicyId::OBLIVIOUS, 1, 60);
        assert!(world.is_done(), "neighbor pairs are directly generated");
        let m = world.metrics();
        assert_eq!(m.satisfied.len(), 3);
        assert!(m.pairs_generated > 0);
        // Requests were satisfied in sequence order.
        let seqs: Vec<u64> = m.satisfied.iter().map(|s| s.sequence).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn serves_distant_pairs_via_swaps() {
        let config = NetworkConfig::new(Topology::Cycle { nodes: 7 });
        let workload = Workload::from_pairs(vec![pair(0, 3)]);
        let world = run_world(config, workload, PolicyId::OBLIVIOUS, 3, 600);
        assert!(
            world.is_done(),
            "balancing must eventually reach pair (0,3)"
        );
        let m = world.metrics();
        assert!(m.swaps_performed > 0, "a 3-hop pair needs swaps");
        assert_eq!(m.satisfied[0].shortest_path_hops, 3);
        assert!(m.swap_overhead().unwrap() >= 1.0);
    }
}
