//! The planned-path baselines as [`SwapPolicy`] implementations.
//!
//! Both execute balanced nested swapping along a request's shortest
//! generation-graph path ([`crate::planned::execute_nested_along_path`]);
//! they differ in queue discipline: the connection-oriented variant serves
//! requests strictly in sequence order, the connectionless variant lets any
//! pending request execute as soon as its path has the pairs.

use super::{PolicyCtx, PolicyId, QueueDiscipline, RequestAction, SwapPolicy};
use crate::planned::{dry_run_nested_along_path, execute_nested_along_path};
use crate::workload::ConsumptionRequest;
use qnet_topology::{NodeId, NodePair};
use std::collections::BTreeMap;

/// Memoized shortest generation-graph paths. The generation graph never
/// changes during a run, but an any-order queue re-offers every blocked
/// request on every inventory change — reconstructing even a cached-oracle
/// path each time would still allocate per offer, so the concrete node
/// vectors are pinned here. Cache misses resolve through the world's
/// [`qnet_topology::PathOracle`] (shared BFS rows, `O(path)` reconstruction)
/// instead of a fresh `O(V + E)` BFS per pair. `None` records a
/// disconnected pair (also worth remembering).
#[derive(Debug, Default)]
struct PathCache {
    paths: BTreeMap<NodePair, Option<Vec<NodeId>>>,
}

impl PathCache {
    fn nodes(&mut self, ctx: &PolicyCtx<'_>, pair: NodePair) -> Option<&[NodeId]> {
        self.paths
            .entry(pair)
            .or_insert_with(|| {
                ctx.oracle
                    .path(ctx.graph, pair.lo(), pair.hi())
                    .map(|p| p.nodes)
            })
            .as_deref()
    }
}

/// Shared repair step: nested swapping along the request's shortest path.
/// `None` means the endpoints are disconnected in the generation graph.
///
/// Under the stale control plane the consumer first dry-runs the build
/// against its *believed* counts: believed-infeasible requests wait without
/// touching truth (exactly what a real partial-knowledge consumer would
/// do), and believed-feasible builds that then fail against drifted ground
/// truth are recorded as missed swaps.
///
/// A failed build leaves a wait certificate on its path, and so does a
/// believed-infeasible dry run (together with the view it read). A
/// believed-feasible build that fails leaves none: its telemetry would
/// turn into a silent wait on a believed decrease that voids nothing.
fn nested_repair(
    ctx: &mut PolicyCtx<'_>,
    cache: &mut PathCache,
    request: &ConsumptionRequest,
) -> Option<RequestAction> {
    let k = ctx.pairs_per_distilled();
    let path = cache.nodes(ctx, request.pair)?;
    if let Some(ctl) = ctx.control {
        let consumer = request.pair.lo();
        let known = ctl.view(consumer);
        let view = known.for_owner(consumer, ctx.inventory);
        if !dry_run_nested_along_path(ctx.inventory, &view, path, k, k) {
            ctx.certificate.believed_build_failed_along(path);
            ctx.certificate.rests_on_view(consumer, known.revision());
            return Some(RequestAction::Wait);
        }
        // The consumer commits to the build on believed counts: record the
        // stalest base-pool row the decision rested on.
        ctx.telemetry.record_age(view.path_age_s(path, ctx.now));
        return Some(match execute_nested_along_path(ctx.inventory, path, k, k) {
            Some(swaps) => RequestAction::Repaired(swaps),
            None => {
                ctx.telemetry.record_miss(request.pair);
                RequestAction::Wait
            }
        });
    }
    Some(match execute_nested_along_path(ctx.inventory, path, k, k) {
        Some(swaps) => RequestAction::Repaired(swaps),
        None => {
            ctx.certificate.build_failed_along(path);
            RequestAction::Wait
        }
    })
}

/// Connection-oriented planned baseline: each request executes nested
/// swapping along its shortest path, in request order; unreachable
/// consumers are dropped so the simulation cannot livelock.
#[derive(Debug, Default)]
pub struct PlannedConnectionOrientedPolicy {
    cache: PathCache,
}

impl PlannedConnectionOrientedPolicy {
    /// A fresh instance.
    pub fn new() -> Self {
        PlannedConnectionOrientedPolicy::default()
    }
}

impl SwapPolicy for PlannedConnectionOrientedPolicy {
    fn id(&self) -> PolicyId {
        PolicyId::PLANNED
    }

    fn on_blocked_request(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        request: &ConsumptionRequest,
    ) -> RequestAction {
        nested_repair(ctx, &mut self.cache, request).unwrap_or(RequestAction::Drop)
    }
}

/// Connectionless planned baseline: every pending request may execute as
/// soon as its path has the pairs (no head-of-line blocking), competing for
/// pairs at shared links. Unreachable requests simply stay pending.
#[derive(Debug, Default)]
pub struct PlannedConnectionlessPolicy {
    cache: PathCache,
}

impl PlannedConnectionlessPolicy {
    /// A fresh instance.
    pub fn new() -> Self {
        PlannedConnectionlessPolicy::default()
    }
}

impl SwapPolicy for PlannedConnectionlessPolicy {
    fn id(&self) -> PolicyId {
        PolicyId::CONNECTIONLESS
    }

    fn queue_discipline(&self) -> QueueDiscipline {
        QueueDiscipline::AnyOrder
    }

    fn on_blocked_request(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        request: &ConsumptionRequest,
    ) -> RequestAction {
        nested_repair(ctx, &mut self.cache, request).unwrap_or(RequestAction::Wait)
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
    fn connection_oriented_executes_nested_swaps() {
        let config = NetworkConfig::new(Topology::Cycle { nodes: 7 });
        let workload = Workload::from_pairs(vec![pair(0, 3), pair(1, 4)]);
        let world = run_world(config, workload, PolicyId::PLANNED, 5, 600);
        assert!(world.is_done());
        let m = world.metrics();
        // Each 3-hop request takes exactly 2 swaps at D = 1 in planned mode.
        assert_eq!(m.swaps_performed, 4);
        assert!(m.satisfied.iter().all(|s| s.repair_swaps == 2));
    }

    #[test]
    fn connectionless_ignores_head_of_line_blocking() {
        // First request is between far-apart nodes; a later neighbor request
        // should still be served promptly in connectionless mode.
        let config = NetworkConfig::new(Topology::Cycle { nodes: 8 });
        let workload = Workload::from_pairs(vec![pair(0, 4), pair(5, 6)]);
        let world = run_world(config, workload, PolicyId::CONNECTIONLESS, 7, 600);
        let m = world.metrics();
        assert!(m.satisfied.iter().any(|s| s.pair == pair(5, 6)));
        // In connectionless mode satisfaction order need not follow sequence
        // order.
        if m.satisfied.len() == 2 {
            assert!(m.satisfied[0].pair == pair(5, 6) || m.satisfied[0].sequence == 0);
        }
    }
}
