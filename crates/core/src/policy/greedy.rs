//! A greedy nested-swap-*ordering* discipline, à la Mai et al. ("Towards
//! Optimal Orders for Entanglement Swapping in Path Graphs").
//!
//! The balanced nested order always splits a path segment at its midpoint,
//! the order that minimises swap count when every pool starts empty. But
//! mid-path Bell pairs frequently *already exist* (earlier requests and
//! generation leave them behind), and then the swap **order** matters:
//! splitting where stock is deepest reuses those pairs instead of
//! rebuilding both halves from base pairs.
//!
//! **The split rule.** For a segment `path[from] .. path[to]` that lacks
//! pairs, this discipline splits at the interior node `j` with the deepest
//! `min(count(from, j), count(j, to))`; ties go to the split closest to the
//! midpoint, so on an empty inventory the order is exactly the balanced
//! one. Under global knowledge the counts are the build's own, as its
//! earlier swaps left them. Under the stale control plane they are the
//! consumer's believed counts, read once when the request is offered: the
//! *ordering* is then a decision made on possibly-out-of-date information,
//! while feasibility and the swaps themselves stay truth-checked.
//!
//! The split is the only thing that differs from the planned baselines:
//! the build runs through the one nested-swap executor of
//! [`crate::planned`] (plan on a count overlay, replay onto the inventory).
//! This was the first discipline added through the [`SwapPolicy`] plugin
//! API rather than a hard-coded protocol enum.

use super::planned::PathCache;
use super::{PolicyCtx, RequestAction, SwapPolicy};
use crate::planned::{plan_nested, Split};
use crate::workload::ConsumptionRequest;

/// The greedy-ordering planned discipline: connection-oriented queueing,
/// greedy split-point selection per request.
#[derive(Debug, Default)]
pub struct GreedyOrderPolicy {
    cache: PathCache,
}

impl GreedyOrderPolicy {
    /// A fresh instance.
    pub fn new() -> Self {
        GreedyOrderPolicy::default()
    }
}

impl SwapPolicy for GreedyOrderPolicy {
    fn on_blocked_request(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        request: &ConsumptionRequest,
    ) -> RequestAction {
        let Some(path) = self.cache.nodes(ctx, request.pair) else {
            return RequestAction::Drop;
        };
        let k = ctx.pairs_per_distilled();
        let truth = &*ctx.inventory;
        let plan = match ctx.control {
            None => plan_nested(truth, truth, Split::Deepest(None), path, k, k),
            Some(ctl) => {
                // The split ordering is decided on the consumer's believed
                // counts. A believed ordering that fails where the
                // fresh-knowledge ordering would have succeeded is damage
                // attributable to staleness: a miss.
                let consumer = request.pair.lo();
                let believed = ctl.view(consumer).for_owner(consumer, truth);
                let age = believed.path_age_s(path, ctx.now);
                let plan = plan_nested(truth, truth, Split::Deepest(Some(&believed)), path, k, k);
                if plan.is_some() {
                    ctx.telemetry.record_age(age);
                } else if plan_nested(truth, truth, Split::Deepest(None), path, k, k).is_some() {
                    ctx.telemetry.record_age(age);
                    ctx.telemetry.record_miss(request.pair);
                }
                plan
            }
        };
        match plan {
            Some(plan) => RequestAction::Repaired(plan.commit(ctx.inventory)),
            None => RequestAction::Wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::inventory::Inventory;
    use crate::planned::execute_nested_along_path;
    use crate::policy::PolicyId;
    use crate::test_support::{pair, run_world};
    use crate::workload::Workload;
    use qnet_topology::{NodeId, Topology};

    fn path_nodes(n: usize) -> Vec<NodeId> {
        (0..n as u32).map(NodeId).collect()
    }

    fn stocked(nodes: usize, per_edge: u64) -> Inventory {
        let mut inv = Inventory::new(nodes);
        for i in 0..nodes - 1 {
            for _ in 0..per_edge {
                inv.add_pair(pair(i as u32, i as u32 + 1)).unwrap();
            }
        }
        inv
    }

    /// The greedy build under global knowledge, committed.
    fn execute_greedy(
        inventory: &mut Inventory,
        path: &[NodeId],
        count: u64,
        k: u64,
    ) -> Option<u64> {
        let plan = plan_nested(inventory, inventory, Split::Deepest(None), path, count, k)?;
        Some(plan.commit(inventory))
    }

    #[test]
    fn empty_inventory_matches_balanced_nested_cost() {
        // With no seeded mid-level pairs the midpoint tie rule degrades to
        // exactly the balanced nested order.
        for hops in 2..7 {
            let mut greedy_inv = stocked(hops + 1, 8);
            let mut nested_inv = greedy_inv.clone();
            let g = execute_greedy(&mut greedy_inv, &path_nodes(hops + 1), 1, 1).unwrap();
            let n =
                execute_nested_along_path(&mut nested_inv, &path_nodes(hops + 1), 1, 1).unwrap();
            assert_eq!(g, n, "{hops} hops");
            assert_eq!(greedy_inv, nested_inv);
        }
    }

    #[test]
    fn seeded_mid_pair_changes_the_order_and_saves_swaps() {
        // Path 0—1—2—3—4 with a pre-seeded (0,3) pair. The balanced order
        // splits at 2 and cannot use it (it rebuilds (0,2) and (2,4)); the
        // greedy order splits at 3, reuses (0,3) and needs only the single
        // joining swap.
        let mut greedy_inv = stocked(5, 1);
        greedy_inv.add_pair(pair(0, 3)).unwrap();
        let mut nested_inv = greedy_inv.clone();

        let g = execute_greedy(&mut greedy_inv, &path_nodes(5), 1, 1).unwrap();
        let n = execute_nested_along_path(&mut nested_inv, &path_nodes(5), 1, 1).unwrap();
        assert_eq!(g, 1, "greedy joins the seeded (0,3) pair to (3,4)");
        assert_eq!(n, 3, "balanced ignores the seeded pair");
        assert_eq!(greedy_inv.count(pair(0, 4)), 1);
    }

    #[test]
    fn failure_is_atomic() {
        let mut inv = stocked(5, 1);
        inv.remove_pairs(pair(2, 3), 1).unwrap();
        let before = inv.clone();
        assert!(execute_greedy(&mut inv, &path_nodes(5), 1, 1).is_none());
        assert_eq!(inv, before);
    }

    #[test]
    fn greedy_runs_end_to_end_and_is_deterministic() {
        let config = NetworkConfig::new(Topology::Cycle { nodes: 7 });
        let workload = || Workload::from_pairs(vec![pair(0, 3), pair(1, 4)]);
        let a = run_world(config, workload(), PolicyId::GREEDY, 5, 600);
        let b = run_world(config, workload(), PolicyId::GREEDY, 5, 600);
        assert!(a.is_done());
        assert_eq!(a.metrics(), b.metrics());
        assert!(a.metrics().swaps_performed > 0);
    }
}
