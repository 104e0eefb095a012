//! The §6 hybrid "oblivious + minimal planning" discipline as a
//! [`SwapPolicy`].

use super::{oblivious::ObliviousPolicy, PolicyCtx, RequestAction, SwapPolicy};
use crate::balancer::{BalancerPolicy, CountView, SwapCandidate};
use crate::control::OwnerAwareView;
use crate::hybrid::{hybrid_repair, EntanglementSearch};
use crate::planned::execute_nested_along_path;
use crate::workload::ConsumptionRequest;
use qnet_topology::{NodeId, NodePair};

/// Oblivious balancing plus consumer-side repair: when the head request is
/// not directly satisfiable, search for a shortest path over the *existing*
/// Bell pairs (which balancing has been seeding) and close the gap with the
/// few swaps it needs.
///
/// A failed repair leaves a wait certificate naming the rows its search
/// read and, when it found a path, the path whose build failed.
#[derive(Debug, Default)]
pub struct HybridPolicy {
    balancer: BalancerPolicy,
    search: EntanglementSearch,
}

impl HybridPolicy {
    /// A fresh instance.
    pub fn new() -> Self {
        HybridPolicy::default()
    }
}

impl SwapPolicy for HybridPolicy {
    fn schedules_swap_scans(&self) -> bool {
        true
    }

    fn on_swap_scan(&mut self, ctx: &mut PolicyCtx<'_>, node: NodeId) -> Option<SwapCandidate> {
        ObliviousPolicy::scan(&self.balancer, ctx, node)
    }

    fn on_blocked_request(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        request: &ConsumptionRequest,
    ) -> RequestAction {
        let k = ctx.pairs_per_distilled();
        let Some(ctl) = ctx.control else {
            return match hybrid_repair(ctx.inventory, &mut self.search, request.pair, k, k) {
                Some(swaps) => RequestAction::Repaired(swaps),
                None if self.search.path().is_empty() => {
                    ctx.certificate.reached_no_path(self.search.expanded(), k);
                    RequestAction::Wait
                }
                None => {
                    ctx.certificate.read_rows(self.search.expanded(), k);
                    ctx.certificate.build_failed_along(self.search.path());
                    RequestAction::Wait
                }
            };
        };
        // The consumer plans its repair over the entanglement graph *it
        // believes in*: its own pools are exact, every remote-remote pair
        // comes from its stale knowledge view. A believed path whose pairs
        // were consumed while the row aged is a miss.
        let consumer = request.pair.lo();
        let known = ctl.view(consumer);
        let n = ctx.inventory.node_count();
        let found = {
            let view = known.for_owner(consumer, ctx.inventory);
            let found = self
                .search
                .run(n, request.pair, k, |u| believed_row(&view, n, u));
            if found {
                ctx.telemetry
                    .record_age(view.path_age_s(self.search.path(), ctx.now));
            }
            found
        };
        ctx.certificate.rests_on_view(consumer, known.revision());
        if !found {
            ctx.certificate.reached_no_path(self.search.expanded(), k);
            return RequestAction::Wait;
        }
        ctx.certificate.read_rows(self.search.expanded(), k);
        let path = self.search.path();
        match execute_nested_along_path(ctx.inventory, path, k, k) {
            Some(swaps) => RequestAction::Repaired(swaps),
            None => {
                ctx.telemetry.record_miss(request.pair);
                ctx.certificate.build_failed_along(path);
                ctx.certificate.replays_stale_miss();
                RequestAction::Wait
            }
        }
    }
}

/// Row `u` of the entanglement graph the consumer *believes in*, read from
/// `view` (exact for the owner's own pools, stale for remote-remote pairs)
/// by scanning `u`'s peers in ascending id: a search costs O(visited · n),
/// never more than the O(n²) scan of every believed pair that
/// materialising the graph would take.
fn believed_row<'v>(
    view: &'v OwnerAwareView<'_>,
    n: usize,
    u: NodeId,
) -> impl Iterator<Item = (NodeId, u64)> + 'v {
    (0..n)
        .map(NodeId::from)
        .filter(move |&v| v != u)
        .map(move |v| (v, view.count(NodePair::new(u, v))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::control::KnowledgeView;
    use crate::hybrid::entanglement_bfs;
    use crate::hybrid::reference::graph_from_pairs;
    use crate::inventory::Inventory;
    use crate::policy::PolicyId;
    use crate::test_support::{pair, run_world};
    use crate::workload::Workload;
    use proptest::prelude::*;
    use qnet_sim::SimTime;
    use qnet_topology::{bfs_path, Topology};

    #[test]
    fn repairs_from_seeded_pairs() {
        let config = NetworkConfig::new(Topology::Cycle { nodes: 9 });
        let workload = Workload::from_pairs(vec![pair(0, 4)]);
        let world = run_world(config, workload, PolicyId::HYBRID, 11, 600);
        assert!(world.is_done());
        let m = world.metrics();
        assert_eq!(m.satisfied.len(), 1);
    }

    proptest! {
        /// The stale-plane search finds exactly the path `bfs_path` finds
        /// over the materialised believed graph: remote-remote pairs from
        /// the stale view, the owner's own pools from ground truth.
        #[test]
        fn believed_path_matches_bfs_over_the_reference_graph(
            n in 2usize..41,
            rows in collection::vec((0usize..40, 0u64..100, collection::vec(0u64..4, 40)), 0..8),
            pools in collection::vec((0usize..40, 0usize..40, 1u64..4), 0..60),
            owner in 0usize..40,
            min_count in 1u64..4,
            ends in (0usize..40, 0usize..40),
        ) {
            let mut known = KnowledgeView::new(n);
            for (row_owner, read_at, row) in rows {
                let read_at = SimTime::from_secs_f64(read_at as f64);
                known.install_row(NodeId::from(row_owner % n), read_at, &row[..n]);
            }
            let mut truth = Inventory::new(n);
            for (a, b, copies) in pools {
                let (a, b) = (a % n, b % n);
                if a == b {
                    continue;
                }
                for _ in 0..copies {
                    truth.add_pair(NodePair::new(NodeId::from(a), NodeId::from(b))).unwrap();
                }
            }
            let owner = NodeId::from(owner % n);
            let (a, b) = (ends.0 % n, ends.1 % n);
            prop_assume!(a != b);
            let p = NodePair::new(NodeId::from(a), NodeId::from(b));

            let believed = known
                .nonzero_pairs()
                .into_iter()
                .filter(|(q, _)| !q.contains(owner))
                .chain(
                    truth
                        .peer_counts(owner)
                        .iter()
                        .map(|&(peer, count)| (NodePair::new(owner, peer), count)),
                );
            let expected = bfs_path(&graph_from_pairs(n, believed, min_count), p.lo(), p.hi())
                .map(|r| r.nodes);
            let view = known.for_owner(owner, &truth);
            let found = entanglement_bfs(n, p, min_count, |u| believed_row(&view, n, u));
            prop_assert_eq!(found, expected);
        }
    }
}
