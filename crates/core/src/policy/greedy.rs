//! A greedy nested-swap-*ordering* discipline, à la Mai et al. ("Towards
//! Optimal Orders for Entanglement Swapping in Path Graphs").
//!
//! The balanced nested executor ([`crate::planned`]) always splits a path
//! segment at its midpoint — the order that minimises swap count when every
//! pool starts empty. But mid-path Bell pairs frequently *already exist*
//! (earlier requests and generation leave them behind), and then the swap
//! **order** matters: splitting where stock is deepest reuses those pairs
//! instead of rebuilding both halves from base pairs. This policy chooses
//! each split point greedily by the current inventory — the first discipline
//! added through the [`SwapPolicy`] plugin API rather than a hard-coded
//! protocol enum, and the registry's proof of extensibility.

use super::{PolicyCtx, PolicyId, PolicyParams, RequestAction, SwapPolicy};
use crate::balancer::CountView;
use crate::inventory::Inventory;
use crate::workload::ConsumptionRequest;
use qnet_topology::{NodeId, NodePair};

/// How count ties between candidate split points are broken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Prefer the split closest to the segment midpoint (degrades to the
    /// balanced nested order on an empty inventory).
    #[default]
    Balanced,
    /// Prefer the leftmost split (a sequential, repeater-chain-like order).
    Leftmost,
}

/// Pick the interior split index `j ∈ (from, to)` whose two sub-pools
/// currently hold the most stock, measured by `min(count(from,j),
/// count(j,to))`. The counts come from ground truth under global
/// knowledge, or from the consumer's stale believed view under the
/// partial-knowledge control plane — the *ordering* is then a decision
/// made on possibly-out-of-date information.
fn choose_split(
    counts: &dyn CountView,
    path: &[NodeId],
    from: usize,
    to: usize,
    tie: TieBreak,
) -> usize {
    debug_assert!(to > from + 1);
    let mid2 = from + to; // 2 × the (possibly fractional) midpoint
    let mut best = from + 1;
    let mut best_stock = 0u64;
    for j in from + 1..to {
        let stock = counts
            .count(NodePair::new(path[from], path[j]))
            .min(counts.count(NodePair::new(path[j], path[to])));
        let better = stock > best_stock
            || (stock == best_stock
                && match tie {
                    TieBreak::Balanced => (2 * j).abs_diff(mid2) < (2 * best).abs_diff(mid2),
                    TieBreak::Leftmost => false,
                });
        if better {
            best = j;
            best_stock = stock;
        }
    }
    best
}

#[allow(clippy::too_many_arguments)]
fn build_segment_greedy(
    inventory: &mut Inventory,
    believed: Option<&dyn CountView>,
    path: &[NodeId],
    from: usize,
    to: usize,
    need: u64,
    k: u64,
    tie: TieBreak,
) -> Option<u64> {
    let pool = NodePair::new(path[from], path[to]);
    let have = inventory.count(pool);
    if have >= need {
        return Some(0);
    }
    if to == from + 1 {
        // Base segment: pairs can only come from generation.
        return None;
    }
    let missing = need - have;
    let j = match believed {
        Some(view) => choose_split(view, path, from, to, tie),
        None => choose_split(&*inventory, path, from, to, tie),
    };
    let mut swaps = 0;
    swaps += build_segment_greedy(inventory, believed, path, from, j, k * missing, k, tie)?;
    swaps += build_segment_greedy(inventory, believed, path, j, to, k * missing, k, tie)?;
    for _ in 0..missing {
        inventory
            .apply_swap(path[j], path[from], path[to], k, k)
            .ok()?;
        swaps += 1;
    }
    Some(swaps)
}

/// Produce `count` Bell pairs between the first and last node of `path` by
/// nested swapping whose split points are chosen greedily from the current
/// inventory, atomically: either the pairs are produced and `Some(swaps)`
/// is returned, or the inventory is left untouched.
pub fn execute_greedy_along_path(
    inventory: &mut Inventory,
    path: &[NodeId],
    count: u64,
    k: u64,
    tie: TieBreak,
) -> Option<u64> {
    assert!(path.len() >= 2, "a swap path needs at least two nodes");
    assert!(k >= 1, "the distillation draw factor is at least one");
    if count == 0 {
        return Some(0);
    }
    let mut trial = inventory.clone();
    let swaps = build_segment_greedy(&mut trial, None, path, 0, path.len() - 1, count, k, tie)?;
    *inventory = trial;
    Some(swaps)
}

/// [`execute_greedy_along_path`] with the split *ordering* decided on the
/// consumer's believed counts instead of ground truth: the stale-control-
/// plane variant. Feasibility checks and the swaps themselves still run
/// against truth (atomically, on a trial clone) — only the decision of
/// *where* to split is stale. The believed snapshot is fixed at entry (a
/// consumer plans the whole order from one read of its view, with its own
/// pools exact).
pub fn execute_greedy_along_path_stale(
    inventory: &mut Inventory,
    view: &crate::control::KnowledgeView,
    consumer: NodeId,
    path: &[NodeId],
    count: u64,
    k: u64,
    tie: TieBreak,
) -> Option<u64> {
    assert!(path.len() >= 2, "a swap path needs at least two nodes");
    assert!(k >= 1, "the distillation draw factor is at least one");
    if count == 0 {
        return Some(0);
    }
    let mut trial = inventory.clone();
    let swaps = {
        let believed = view.for_owner(consumer, inventory);
        build_segment_greedy(
            &mut trial,
            Some(&believed),
            path,
            0,
            path.len() - 1,
            count,
            k,
            tie,
        )
    }?;
    *inventory = trial;
    Some(swaps)
}

/// The greedy-ordering planned discipline: connection-oriented queueing,
/// greedy split-point selection per request.
#[derive(Debug, Default)]
pub struct GreedyOrderPolicy {
    tie_break: TieBreak,
    /// Memoized shortest paths (the generation graph is static per run);
    /// `None` marks a disconnected pair.
    paths: std::collections::BTreeMap<NodePair, Option<Vec<NodeId>>>,
}

impl GreedyOrderPolicy {
    /// A fresh instance with the default (balanced) tie-break.
    pub fn new() -> Self {
        GreedyOrderPolicy::default()
    }

    /// Construct from serialized registry parameters. Recognised keys:
    /// `"tie_break": "balanced" | "leftmost"`.
    pub fn from_params(params: &PolicyParams) -> Self {
        let tie_break = match params
            .params
            .get_field("tie_break")
            .and_then(|v| v.as_str())
        {
            Some("leftmost") => TieBreak::Leftmost,
            _ => TieBreak::Balanced,
        };
        GreedyOrderPolicy {
            tie_break,
            ..GreedyOrderPolicy::default()
        }
    }
}

impl SwapPolicy for GreedyOrderPolicy {
    fn id(&self) -> PolicyId {
        PolicyId::GREEDY
    }

    fn on_blocked_request(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        request: &ConsumptionRequest,
    ) -> RequestAction {
        let path = self
            .paths
            .entry(request.pair)
            .or_insert_with(|| {
                ctx.oracle
                    .path(ctx.graph, request.pair.lo(), request.pair.hi())
                    .map(|p| p.nodes)
            })
            .as_deref();
        let Some(path) = path else {
            return RequestAction::Drop;
        };
        let k = ctx.pairs_per_distilled();
        if let Some(ctl) = ctx.control {
            // The split ordering is decided on the consumer's believed
            // counts; execution stays truth-checked. A believed ordering
            // that fails where the fresh-knowledge ordering would have
            // succeeded is damage attributable to staleness: a miss.
            let consumer = request.pair.lo();
            let view = ctl.view(consumer);
            let age = view
                .for_owner(consumer, ctx.inventory)
                .path_age_s(path, ctx.now);
            return match execute_greedy_along_path_stale(
                ctx.inventory,
                view,
                consumer,
                path,
                k,
                k,
                self.tie_break,
            ) {
                Some(swaps) => {
                    ctx.telemetry.record_age(age);
                    RequestAction::Repaired(swaps)
                }
                None => {
                    let mut probe = ctx.inventory.clone();
                    if execute_greedy_along_path(&mut probe, path, k, k, self.tie_break).is_some() {
                        ctx.telemetry.record_age(age);
                        ctx.telemetry.record_miss(request.pair);
                    }
                    RequestAction::Wait
                }
            };
        }
        match execute_greedy_along_path(ctx.inventory, path, k, k, self.tie_break) {
            Some(swaps) => RequestAction::Repaired(swaps),
            None => RequestAction::Wait,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::test_support::{pair, run_world};
    use crate::workload::Workload;
    use qnet_topology::Topology;
    use serde::Value;

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

    #[test]
    fn empty_inventory_matches_balanced_nested_cost() {
        // With no seeded mid-level pairs the balanced tie-break degrades to
        // exactly the midpoint recursion of the classic executor.
        for hops in 2..7 {
            let mut greedy_inv = stocked(hops + 1, 8);
            let mut nested_inv = greedy_inv.clone();
            let g = execute_greedy_along_path(
                &mut greedy_inv,
                &path_nodes(hops + 1),
                1,
                1,
                TieBreak::Balanced,
            )
            .unwrap();
            let n = crate::planned::execute_nested_along_path(
                &mut nested_inv,
                &path_nodes(hops + 1),
                1,
                1,
            )
            .unwrap();
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

        let g =
            execute_greedy_along_path(&mut greedy_inv, &path_nodes(5), 1, 1, TieBreak::Balanced)
                .unwrap();
        let n = crate::planned::execute_nested_along_path(&mut nested_inv, &path_nodes(5), 1, 1)
            .unwrap();
        assert_eq!(g, 1, "greedy joins the seeded (0,3) pair to (3,4)");
        assert_eq!(n, 3, "balanced ignores the seeded pair");
        assert_eq!(greedy_inv.count(pair(0, 4)), 1);
    }

    #[test]
    fn failure_is_atomic() {
        let mut inv = stocked(5, 1);
        inv.remove_pairs(pair(2, 3), 1).unwrap();
        let before = inv.clone();
        assert!(
            execute_greedy_along_path(&mut inv, &path_nodes(5), 1, 1, TieBreak::Balanced).is_none()
        );
        assert_eq!(inv, before);
    }

    #[test]
    fn params_select_the_tie_break() {
        let defaults = GreedyOrderPolicy::from_params(&PolicyParams::default());
        assert_eq!(defaults.tie_break, TieBreak::Balanced);
        let leftmost = GreedyOrderPolicy::from_params(&PolicyParams {
            params: Value::Map(vec![(
                "tie_break".to_string(),
                Value::Str("leftmost".to_string()),
            )]),
        });
        assert_eq!(leftmost.tie_break, TieBreak::Leftmost);
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
