//! Planned-path baselines.
//!
//! The paper (§1, §7) classifies prior art into *connection-oriented*
//! planned-path protocols (a specific path is reserved per request, swaps are
//! performed along it) and *connectionless* variants (the path is chosen per
//! request but Bell pairs at shared links are competed for). This module
//! provides the executable machinery both share: nested swapping along a
//! concrete node path, drawing base pairs from the inventory pools of
//! consecutive path edges, with the distill-before-use cost model of paper
//! §3.2 (`⌈D⌉` pairs drawn per use, see
//! [`NetworkConfig::pairs_per_distilled`](crate::NetworkConfig::pairs_per_distilled)).
//!
//! The planned-path swap policies ([`crate::policy::planned`]) drive these
//! executors from inside the simulation harness; the pure analytic optimum
//! used by the swap-overhead metric lives in [`crate::nested`].

use crate::balancer::CountView;
use crate::inventory::Inventory;
use qnet_topology::{NodeId, NodePair};
use std::collections::BTreeMap;

/// A count-space scratch view over an inventory: reads fall through to the
/// base counts, writes land in small overlay maps. Whether a nested build
/// succeeds depends *only* on pool counts, node loads and the buffer limit
/// — never on the lot store — so a dry run against this overlay predicts
/// [`build_segment`]'s verdict exactly without cloning the inventory (whose
/// count matrix alone is N²/2 words — the clone per blocked request was
/// what dominated planned-baseline runs at |N| ≈ 10³). The base counts are
/// ground truth for the exact dry run, or a stale believed view
/// ([`crate::control::KnowledgeView`]) when predicting what a
/// partial-knowledge consumer would decide; loads and the buffer limit
/// always come from truth.
struct CountOverlay<'a> {
    truth: &'a Inventory,
    believed: &'a dyn CountView,
    counts: BTreeMap<NodePair, u64>,
    loads: BTreeMap<NodeId, u64>,
}

impl<'a> CountOverlay<'a> {
    fn new(truth: &'a Inventory) -> Self {
        CountOverlay::with_believed(truth, truth)
    }

    fn with_believed(truth: &'a Inventory, believed: &'a dyn CountView) -> Self {
        CountOverlay {
            truth,
            believed,
            counts: BTreeMap::new(),
            loads: BTreeMap::new(),
        }
    }

    fn count(&self, pair: NodePair) -> u64 {
        self.counts
            .get(&pair)
            .copied()
            .unwrap_or_else(|| self.believed.count(pair))
    }

    fn load(&self, node: NodeId) -> u64 {
        self.loads
            .get(&node)
            .copied()
            .unwrap_or_else(|| self.truth.node_load(node))
    }

    fn add_load(&mut self, node: NodeId, delta: i64) {
        let load = self.load(node) as i64 + delta;
        self.loads.insert(node, load as u64);
    }

    /// Mirror of [`Inventory::apply_swap`]'s count-space bookkeeping,
    /// including its check order: both removals are validated first, then
    /// the product insertion hits the buffer check with the loads already
    /// decremented by the removals.
    fn apply_swap(&mut self, repeater: NodeId, left: NodeId, right: NodeId, k: u64) -> bool {
        let left_pair = NodePair::new(repeater, left);
        let right_pair = NodePair::new(repeater, right);
        if self.count(left_pair) < k || self.count(right_pair) < k {
            return false;
        }
        for (pair, far) in [(left_pair, left), (right_pair, right)] {
            let c = self.count(pair) - k;
            self.counts.insert(pair, c);
            self.add_load(repeater, -(k as i64));
            self.add_load(far, -(k as i64));
        }
        let product = NodePair::new(left, right);
        if let Some(limit) = self.truth.buffer_limit() {
            if self.load(product.lo()) >= limit || self.load(product.hi()) >= limit {
                return false;
            }
        }
        let c = self.count(product) + 1;
        self.counts.insert(product, c);
        self.add_load(product.lo(), 1);
        self.add_load(product.hi(), 1);
        true
    }
}

/// Read-only twin of [`build_segment`]: same recursion, same decisions,
/// mutating only the overlay. Returns whether the build would succeed.
fn dry_run_segment(
    overlay: &mut CountOverlay<'_>,
    path: &[NodeId],
    from: usize,
    to: usize,
    need: u64,
    k: u64,
) -> bool {
    debug_assert!(to > from);
    let pool = NodePair::new(path[from], path[to]);
    let have = overlay.count(pool);
    if have >= need {
        return true;
    }
    if to == from + 1 {
        return false;
    }
    let missing = need - have;
    let mid = from + (to - from) / 2;
    if !dry_run_segment(overlay, path, from, mid, k * missing, k)
        || !dry_run_segment(overlay, path, mid, to, k * missing, k)
    {
        return false;
    }
    for _ in 0..missing {
        if !overlay.apply_swap(path[mid], path[from], path[to], k) {
            return false;
        }
    }
    true
}

/// Ensure at least `need` pairs exist in the pool spanning
/// `path[from] .. path[to]`, creating missing ones by nested swapping.
/// Returns the number of swap operations performed, or `None` if the
/// required base pairs are not available (in which case the inventory may
/// have been partially mutated — callers that need atomicity should work on
/// a clone, as [`execute_nested_along_path`] does).
fn build_segment(
    inventory: &mut Inventory,
    path: &[NodeId],
    from: usize,
    to: usize,
    need: u64,
    k: u64,
) -> Option<u64> {
    debug_assert!(to > from);
    let pool = NodePair::new(path[from], path[to]);
    let have = inventory.count(pool);
    if have >= need {
        return Some(0);
    }
    if to == from + 1 {
        // Base segment: pairs can only come from generation, which is not
        // under the executor's control.
        return None;
    }
    let missing = need - have;
    let mid = from + (to - from) / 2;
    let mut swaps = 0;
    swaps += build_segment(inventory, path, from, mid, k * missing, k)?;
    swaps += build_segment(inventory, path, mid, to, k * missing, k)?;
    for _ in 0..missing {
        inventory
            .apply_swap(path[mid], path[from], path[to], k, k)
            .ok()?;
        swaps += 1;
    }
    Some(swaps)
}

/// Produce `count` raw Bell pairs between the first and last node of `path`
/// by nested swapping along it, atomically: either the pairs are produced and
/// `Some(swap_count)` is returned, or the inventory is left untouched.
///
/// `k` is the `⌈D⌉` distill-before-use factor: each swap draws `k` pairs from
/// each of its two input pools.
pub fn execute_nested_along_path(
    inventory: &mut Inventory,
    path: &[NodeId],
    count: u64,
    k: u64,
) -> Option<u64> {
    assert!(path.len() >= 2, "a swap path needs at least two nodes");
    assert!(k >= 1, "the distillation draw factor is at least one");
    if count == 0 {
        return Some(0);
    }
    // Dry-run the build on a count-space overlay first: its verdict is
    // exact, so a failed attempt (the common case in a congested network)
    // costs a few map entries instead of a full inventory clone, and a
    // successful build can mutate the ground truth directly.
    let mut overlay = CountOverlay::new(inventory);
    if !dry_run_segment(&mut overlay, path, 0, path.len() - 1, count, k) {
        return None;
    }
    let swaps = build_segment(inventory, path, 0, path.len() - 1, count, k)
        .expect("dry run verified count-space feasibility");
    Some(swaps)
}

/// Dry-run the nested build over *believed* counts: whether a consumer that
/// trusts `believed` for pool counts would judge `count` pairs spanning
/// `path` buildable. Node loads and the buffer limit still come from
/// `truth` — they are local-node state every node knows exactly. Used by
/// the stale control plane to separate "believed infeasible, wait" from
/// "believed feasible but truth disagrees — a missed swap".
pub(crate) fn dry_run_nested_along_path(
    truth: &Inventory,
    believed: &dyn CountView,
    path: &[NodeId],
    count: u64,
    k: u64,
) -> bool {
    assert!(path.len() >= 2, "a swap path needs at least two nodes");
    if count == 0 {
        return true;
    }
    let mut overlay = CountOverlay::with_believed(truth, believed);
    dry_run_segment(&mut overlay, path, 0, path.len() - 1, count, k)
}

/// The number of swaps [`execute_nested_along_path`] performs when every base
/// pool is empty of higher-level pairs and fully stocked with generated
/// pairs — i.e. the executable planned-path cost for an `n`-hop path. Equals
/// `⌈D⌉ · swaps_for_one_raw(n)` where `swaps_for_one_raw` follows the nested
/// recursion with joining swaps included.
pub fn planned_path_swap_cost(hops: usize, k: u64) -> u64 {
    fn one_raw(hops: usize, k: u64) -> u64 {
        if hops <= 1 {
            0
        } else {
            let left = hops / 2;
            let right = hops - left;
            1 + k * (one_raw(left, k) + one_raw(right, k))
        }
    }
    k * one_raw(hops, k)
}

/// The number of generated (base) pairs consumed from each edge pool when a
/// full nested execution runs over an `n`-hop path with draw factor `k`:
/// `k^{depth of that edge in the recursion}` summed appropriately. Returned
/// as the total over all edges (useful for provisioning checks in tests and
/// the planned-mode simulator).
pub fn planned_path_base_pairs(hops: usize, k: u64) -> u64 {
    fn base_for(hops: usize, k: u64) -> u64 {
        if hops == 1 {
            1
        } else {
            let left = hops / 2;
            let right = hops - left;
            k * (base_for(left, k) + base_for(right, k))
        }
    }
    k * base_for(hops, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qnet_topology::NodeId;

    fn path_nodes(n: usize) -> Vec<NodeId> {
        (0..n as u32).map(NodeId).collect()
    }

    fn stocked_inventory(nodes: usize, per_edge: u64) -> Inventory {
        let mut inv = Inventory::new(nodes);
        for i in 0..nodes - 1 {
            for _ in 0..per_edge {
                inv.add_pair(NodePair::new(NodeId(i as u32), NodeId(i as u32 + 1)))
                    .unwrap();
            }
        }
        inv
    }

    #[test]
    fn two_hop_execution() {
        let mut inv = stocked_inventory(3, 2);
        let swaps = execute_nested_along_path(&mut inv, &path_nodes(3), 1, 1).unwrap();
        assert_eq!(swaps, 1);
        assert_eq!(inv.count(NodePair::new(NodeId(0), NodeId(2))), 1);
        assert_eq!(inv.count(NodePair::new(NodeId(0), NodeId(1))), 1);
        assert_eq!(inv.count(NodePair::new(NodeId(1), NodeId(2))), 1);
    }

    #[test]
    fn four_hop_unit_distillation_uses_three_swaps() {
        let mut inv = stocked_inventory(5, 1);
        let swaps = execute_nested_along_path(&mut inv, &path_nodes(5), 1, 1).unwrap();
        assert_eq!(swaps, 3, "n − 1 swaps for a 4-hop path at D = 1");
        assert_eq!(inv.count(NodePair::new(NodeId(0), NodeId(4))), 1);
        assert_eq!(inv.total_pairs(), 1, "all base pairs consumed");
    }

    #[test]
    fn insufficient_base_pairs_is_atomic() {
        let mut inv = stocked_inventory(5, 1);
        // Remove one base pair so the execution must fail.
        inv.remove_pairs(NodePair::new(NodeId(2), NodeId(3)), 1)
            .unwrap();
        let before = inv.clone();
        assert!(execute_nested_along_path(&mut inv, &path_nodes(5), 1, 1).is_none());
        assert_eq!(
            inv, before,
            "failed execution must not mutate the inventory"
        );
    }

    #[test]
    fn distillation_draw_factor_multiplies_requirements() {
        // k = 2 over 2 hops: one output pair needs 2 pairs on each edge and
        // exactly one swap per output; producing 2 outputs needs 4 per edge.
        let mut inv = stocked_inventory(3, 4);
        let swaps = execute_nested_along_path(&mut inv, &path_nodes(3), 2, 2).unwrap();
        assert_eq!(swaps, 2);
        assert_eq!(inv.count(NodePair::new(NodeId(0), NodeId(2))), 2);
        assert_eq!(inv.count(NodePair::new(NodeId(0), NodeId(1))), 0);
        // With only 3 pairs per edge the same request must fail.
        let mut poor = stocked_inventory(3, 3);
        assert!(execute_nested_along_path(&mut poor, &path_nodes(3), 2, 2).is_none());
    }

    #[test]
    fn four_hop_with_distillation_matches_cost_formula() {
        let k = 2;
        let hops = 4;
        let base_needed = planned_path_base_pairs(hops, k);
        // Per edge the deepest recursion level draws k² pairs; stock each
        // edge generously and check the executed swap count matches the
        // formula.
        let mut inv = stocked_inventory(5, base_needed);
        let swaps = execute_nested_along_path(&mut inv, &path_nodes(5), k, k).unwrap();
        assert_eq!(swaps, planned_path_swap_cost(hops, k));
        assert_eq!(inv.count(NodePair::new(NodeId(0), NodeId(4))), k);
    }

    #[test]
    fn existing_mid_level_pairs_are_reused() {
        // If balancing already produced a (0,2) pair, the executor should use
        // it instead of building a fresh one.
        let mut inv = stocked_inventory(3, 0);
        inv.add_pair(NodePair::new(NodeId(0), NodeId(2))).unwrap();
        let swaps = execute_nested_along_path(&mut inv, &path_nodes(3), 1, 1).unwrap();
        assert_eq!(swaps, 0, "no swap needed, the pair already exists");
    }

    #[test]
    fn cost_formulas_match_hand_computation() {
        // D = 1: planned cost is the textbook n − 1 swaps.
        for hops in 1..10 {
            assert_eq!(planned_path_swap_cost(hops, 1), (hops - 1) as u64);
        }
        // D = 2, 4 hops: top level needs 2 raw end-to-end pairs, each raw
        // pair = 1 swap + 2 raw pairs per half, each of those = 1 swap.
        // one_raw(4) = 1 + 2·(1 + 1) = 5; total = 2·5 = 10.
        assert_eq!(planned_path_swap_cost(4, 2), 10);
        // Base pairs at D = 2 over 2 hops: 2·(1+1)·... = k·k·2 = wait:
        // base_for(2) = 2·(1 + 1) = 4; total = 2·4 = 8.
        assert_eq!(planned_path_base_pairs(2, 2), 8);
        assert_eq!(planned_path_base_pairs(1, 3), 3);
    }

    /// A simple path through `len` distinct nodes of `0..n`, drawn from
    /// `picks` (each pick indexes the nodes not used yet).
    fn draw_path(n: usize, len: usize, picks: &[usize]) -> Vec<NodeId> {
        let mut free: Vec<u32> = (0..n as u32).collect();
        picks[..len]
            .iter()
            .map(|&p| NodeId(free.remove(p % free.len())))
            .collect()
    }

    /// Fill `inv` with the drawn pools, ignoring drops on full buffers.
    fn stock(inv: &mut Inventory, n: usize, pools: &[(usize, usize, u64)]) {
        for &(a, b, copies) in pools {
            let (a, b) = (a % n, b % n);
            if a != b {
                for _ in 0..copies {
                    let _ = inv.add_pair(NodePair::new(NodeId::from(a), NodeId::from(b)));
                }
            }
        }
    }

    proptest! {
        /// Without a buffer limit, a nested build that succeeds keeps
        /// succeeding when pools between path nodes gain pairs: a failed
        /// build can only be revived by such a gain.
        #[test]
        fn dry_run_success_is_upward_closed_in_path_counts(
            n in 3usize..9,
            len in 2usize..7,
            picks in collection::vec(0usize..9, 7),
            pools in collection::vec((0usize..9, 0usize..9, 1u64..4), 0..40),
            gains in collection::vec((0usize..7, 0usize..7, 1u64..4), 1..6),
            count in 1u64..3,
            k in 1u64..3,
        ) {
            let path = draw_path(n, len.min(n), &picks);
            let mut inv = Inventory::new(n);
            stock(&mut inv, n, &pools);
            let before = dry_run_nested_along_path(&inv, &inv, &path, count, k);
            for (i, j, copies) in gains {
                let (a, b) = (path[i % path.len()], path[j % path.len()]);
                if a != b {
                    for _ in 0..copies {
                        inv.add_pair(NodePair::new(a, b)).unwrap();
                    }
                }
            }
            let after = dry_run_nested_along_path(&inv, &inv, &path, count, k);
            prop_assert!(!before || after, "a gain between path nodes broke a build");
        }

        /// Under a buffer limit, a nested build that succeeds keeps
        /// succeeding when path nodes shed pairs leading off the path: the
        /// counts between path nodes stay put and only loads fall.
        #[test]
        fn dry_run_success_is_closed_under_lower_loads(
            n in 3usize..9,
            len in 2usize..7,
            picks in collection::vec(0usize..9, 7),
            pools in collection::vec((0usize..9, 0usize..9, 1u64..4), 0..40),
            sheds in collection::vec((0usize..9, 0usize..9, 1u64..4), 1..8),
            limit in 1u64..6,
            count in 1u64..3,
            k in 1u64..3,
        ) {
            let path = draw_path(n, len.min(n), &picks);
            let mut inv = Inventory::with_buffer_limit(n, limit);
            stock(&mut inv, n, &pools);
            let before = dry_run_nested_along_path(&inv, &inv, &path, count, k);
            let on_path = |x: usize| path.contains(&NodeId::from(x));
            for (a, b, copies) in sheds {
                let (a, b) = (a % n, b % n);
                if a != b && on_path(a) != on_path(b) {
                    let p = NodePair::new(NodeId::from(a), NodeId::from(b));
                    let _ = inv.remove_pairs(p, copies.min(inv.count(p)));
                }
            }
            let after = dry_run_nested_along_path(&inv, &inv, &path, count, k);
            prop_assert!(!before || after, "lower loads broke a build");
        }
    }

    #[test]
    #[should_panic]
    fn single_node_path_panics() {
        let mut inv = Inventory::new(2);
        let _ = execute_nested_along_path(&mut inv, &[NodeId(0)], 1, 1);
    }
}
