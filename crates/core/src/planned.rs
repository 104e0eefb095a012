//! Planned-path baselines: nested swapping along a concrete node path.
//!
//! The paper (§1, §7) classifies prior art into *connection-oriented*
//! planned-path protocols (a specific path is reserved per request, swaps are
//! performed along it) and *connectionless* variants (the path is chosen per
//! request but Bell pairs at shared links are competed for). This module
//! provides the one nested-swap executor both share, and the greedy
//! split-order discipline ([`crate::policy::greedy`]) too: it draws base
//! pairs from the inventory pools of consecutive path edges, with the
//! distill-before-use cost model of paper §3.2 (`⌈D⌉` pairs drawn per use, see
//! [`NetworkConfig::pairs_per_distilled`](crate::NetworkConfig::pairs_per_distilled)).
//!
//! **Plan on the overlay, replay; no clone.** A build is decided once, by a
//! dry run on a count-space overlay of the inventory that records every
//! swap it accepts. A failed dry run leaves the inventory untouched; a
//! successful one is replayed onto the inventory swap by swap. No inventory
//! is ever cloned, and since only the dry run decides, the plan and the
//! commit cannot disagree. The recursion's only variation is where it
//! splits a segment: at the midpoint (the balanced order), or where the
//! stock is deepest (the greedy order).
//!
//! The planned-path swap policies ([`crate::policy::planned`]) drive this
//! executor from inside the simulation harness; the pure analytic optimum
//! used by the swap-overhead metric lives in [`crate::nested`].

use crate::balancer::CountView;
use crate::inventory::Inventory;
use qnet_topology::{NodeId, NodePair};
use std::collections::BTreeMap;

/// A count-space scratch view over an inventory: reads fall through to the
/// base counts, writes land in small overlay maps. Whether a nested build
/// succeeds depends *only* on pool counts, node loads and the buffer limit
/// — never on the lot store — so a dry run against this overlay decides
/// the build exactly without cloning the inventory (whose count matrix
/// alone is N²/2 words). The base counts are ground truth for a build that
/// commits, or a stale believed view
/// ([`crate::control::KnowledgeView`]) when predicting what a
/// partial-knowledge consumer would decide; loads and the buffer limit
/// always come from truth. Every swap the overlay accepts is recorded, in
/// order, for the replay.
struct CountOverlay<'a> {
    truth: &'a Inventory,
    base: &'a dyn CountView,
    counts: BTreeMap<NodePair, u64>,
    loads: BTreeMap<NodeId, u64>,
    swaps: Vec<(NodeId, NodeId, NodeId)>,
}

impl<'a> CountOverlay<'a> {
    fn new(truth: &'a Inventory, base: &'a dyn CountView) -> Self {
        CountOverlay {
            truth,
            base,
            counts: BTreeMap::new(),
            loads: BTreeMap::new(),
            swaps: Vec::new(),
        }
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
    /// decremented by the removals. An accepted swap is recorded.
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
        self.swaps.push((repeater, left, right));
        true
    }
}

impl CountView for CountOverlay<'_> {
    fn count(&self, pair: NodePair) -> u64 {
        self.counts
            .get(&pair)
            .copied()
            .unwrap_or_else(|| self.base.count(pair))
    }
}

/// Where a nested build splits the segment `path[from] .. path[to]`: the
/// recursion's only variation.
#[derive(Clone, Copy)]
pub(crate) enum Split<'a> {
    /// At the midpoint: the balanced nested order, which minimises swaps
    /// when every pool starts empty.
    Midpoint,
    /// At the interior node `j` whose two sub-pools hold the most stock,
    /// `min(count(from, j), count(j, to))`; ties go to the split closest to
    /// the midpoint, so on an empty inventory this is the balanced order.
    /// The counts come from the given view (a consumer's believed counts,
    /// read once for the whole build) or, when `None`, from the build's
    /// own overlay as it stands at that point of the build.
    Deepest(Option<&'a dyn CountView>),
}

impl Split<'_> {
    fn at(self, overlay: &CountOverlay<'_>, path: &[NodeId], from: usize, to: usize) -> usize {
        debug_assert!(to > from + 1);
        let counts: &dyn CountView = match self {
            Split::Midpoint => return from + (to - from) / 2,
            Split::Deepest(Some(view)) => view,
            Split::Deepest(None) => overlay,
        };
        let mid2 = from + to; // 2 × the (possibly fractional) midpoint
        let mut best = from + 1;
        let mut best_stock = 0u64;
        for j in from + 1..to {
            let stock = counts
                .count(NodePair::new(path[from], path[j]))
                .min(counts.count(NodePair::new(path[j], path[to])));
            if stock > best_stock
                || (stock == best_stock && (2 * j).abs_diff(mid2) < (2 * best).abs_diff(mid2))
            {
                best = j;
                best_stock = stock;
            }
        }
        best
    }
}

/// The one nested-swap recursion: ensure at least `need` pairs exist in the
/// pool spanning `path[from] .. path[to]` on the overlay, creating missing
/// ones by nested swapping. Returns whether the build succeeds.
fn plan_segment(
    overlay: &mut CountOverlay<'_>,
    split: Split<'_>,
    path: &[NodeId],
    from: usize,
    to: usize,
    need: u64,
    k: u64,
) -> bool {
    debug_assert!(to > from);
    let have = overlay.count(NodePair::new(path[from], path[to]));
    if have >= need {
        return true;
    }
    if to == from + 1 {
        // Base segment: pairs can only come from generation, which is not
        // under the executor's control.
        return false;
    }
    let missing = need - have;
    let j = split.at(overlay, path, from, to);
    plan_segment(overlay, split, path, from, j, k * missing, k)
        && plan_segment(overlay, split, path, j, to, k * missing, k)
        && (0..missing).all(|_| overlay.apply_swap(path[j], path[from], path[to], k))
}

/// The swaps of a feasible nested build, in execution order, each
/// `(repeater, left, right)` drawing `k` pairs from both input pools.
#[must_use = "a plan does nothing until it is committed"]
pub(crate) struct NestedPlan {
    swaps: Vec<(NodeId, NodeId, NodeId)>,
    k: u64,
}

impl NestedPlan {
    /// Replay the plan onto the inventory it was planned on (unchanged
    /// since), returning the number of swaps performed.
    pub(crate) fn commit(self, inventory: &mut Inventory) -> u64 {
        for &(repeater, left, right) in &self.swaps {
            inventory
                .apply_swap(repeater, left, right, self.k, self.k)
                .expect("dry run verified count-space feasibility");
        }
        self.swaps.len() as u64
    }
}

/// Plan the build of `count` pairs between the first and last node of
/// `path`, splitting by `split`, without touching `truth`. Pool counts come
/// from `base` (truth itself, or a consumer's believed counts); node loads
/// and the buffer limit come from `truth`, local-node state every node
/// knows exactly. `None` means the build fails.
///
/// `k` is the `⌈D⌉` distill-before-use factor: each swap draws `k` pairs from
/// each of its two input pools.
pub(crate) fn plan_nested(
    truth: &Inventory,
    base: &dyn CountView,
    split: Split<'_>,
    path: &[NodeId],
    count: u64,
    k: u64,
) -> Option<NestedPlan> {
    assert!(path.len() >= 2, "a swap path needs at least two nodes");
    assert!(k >= 1, "the distillation draw factor is at least one");
    let mut overlay = CountOverlay::new(truth, base);
    let feasible = plan_segment(&mut overlay, split, path, 0, path.len() - 1, count, k);
    feasible.then_some(NestedPlan {
        swaps: overlay.swaps,
        k,
    })
}

/// Produce `count` raw Bell pairs between the first and last node of `path`
/// by balanced nested swapping along it, atomically: either the pairs are
/// produced and `Some(swap_count)` is returned, or the inventory is left
/// untouched.
///
/// `k` is the `⌈D⌉` distill-before-use factor: each swap draws `k` pairs from
/// each of its two input pools.
pub fn execute_nested_along_path(
    inventory: &mut Inventory,
    path: &[NodeId],
    count: u64,
    k: u64,
) -> Option<u64> {
    let plan = plan_nested(inventory, inventory, Split::Midpoint, path, count, k)?;
    Some(plan.commit(inventory))
}

/// Plan the balanced build over *believed* counts and do not commit it:
/// whether a consumer that trusts `believed` for pool counts would judge
/// `count` pairs spanning `path` buildable. Used by the stale control plane
/// to separate "believed infeasible, wait" from "believed feasible but
/// truth disagrees — a missed swap".
pub(crate) fn dry_run_nested_along_path(
    truth: &Inventory,
    believed: &dyn CountView,
    path: &[NodeId],
    count: u64,
    k: u64,
) -> bool {
    plan_nested(truth, believed, Split::Midpoint, path, count, k).is_some()
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
    use crate::nested::nested_swap_cost;
    use crate::physics::PhysicsModel;
    use proptest::prelude::*;
    use qnet_sim::SimTime;
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
        // Charging the joining swaps too, the executed cost dominates the
        // paper's recursion s(n), which charges only the lower levels.
        for hops in 1..16 {
            for d in [1.0, 1.5, 2.0, 3.0] {
                let k = f64::ceil(d) as u64;
                assert!(
                    planned_path_swap_cost(hops, k) as f64 >= nested_swap_cost(hops, d),
                    "{hops} hops, D = {d}"
                );
            }
        }
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

    /// Where the reference build splits: at the midpoint, greedily on the
    /// trial inventory as it mutates, or greedily on a fixed believed view.
    #[derive(Clone, Copy)]
    enum ReferenceSplit<'a> {
        Midpoint,
        Trial,
        Believed(&'a dyn CountView),
    }

    /// The greedy split rule, restated: the interior `j` with the deepest
    /// `min(count(from, j), count(j, to))`, ties closest to the midpoint.
    fn reference_deepest(counts: &dyn CountView, path: &[NodeId], from: usize, to: usize) -> usize {
        let mid2 = from + to;
        let mut best = from + 1;
        let mut best_stock = 0u64;
        for j in from + 1..to {
            let stock = counts
                .count(NodePair::new(path[from], path[j]))
                .min(counts.count(NodePair::new(path[j], path[to])));
            if stock > best_stock
                || (stock == best_stock && (2 * j).abs_diff(mid2) < (2 * best).abs_diff(mid2))
            {
                best = j;
                best_stock = stock;
            }
        }
        best
    }

    /// The clone-and-build executor the overlay plan replaced: it swaps on
    /// a trial inventory as it decides, and may leave the trial partially
    /// mutated on failure.
    fn reference_build(
        trial: &mut Inventory,
        split: ReferenceSplit<'_>,
        path: &[NodeId],
        from: usize,
        to: usize,
        need: u64,
        k: u64,
    ) -> Option<u64> {
        let have = trial.count(NodePair::new(path[from], path[to]));
        if have >= need {
            return Some(0);
        }
        if to == from + 1 {
            return None;
        }
        let missing = need - have;
        let j = match split {
            ReferenceSplit::Midpoint => from + (to - from) / 2,
            ReferenceSplit::Trial => reference_deepest(&*trial, path, from, to),
            ReferenceSplit::Believed(view) => reference_deepest(view, path, from, to),
        };
        let mut swaps = reference_build(trial, split, path, from, j, k * missing, k)?;
        swaps += reference_build(trial, split, path, j, to, k * missing, k)?;
        for _ in 0..missing {
            trial.apply_swap(path[j], path[from], path[to], k, k).ok()?;
            swaps += 1;
        }
        Some(swaps)
    }

    /// Atomic reference execution: build on a clone, keep it on success.
    fn reference_execute(
        inventory: &mut Inventory,
        split: ReferenceSplit<'_>,
        path: &[NodeId],
        count: u64,
        k: u64,
    ) -> Option<u64> {
        let mut trial = inventory.clone();
        let swaps = reference_build(&mut trial, split, path, 0, path.len() - 1, count, k)?;
        *inventory = trial;
        Some(swaps)
    }

    proptest! {
        /// The overlay plan replayed onto the inventory does what the
        /// clone-and-build reference does, under either split rule and
        /// either source of greedy counts: the same verdict, the same swap
        /// count and the same inventory, lot store included.
        #[test]
        fn nested_plan_replay_matches_the_clone_and_build_reference(
            n in 3usize..9,
            len in 2usize..9,
            picks in collection::vec(0usize..9, 8),
            edges in collection::vec(1u64..40, 8),
            pools in collection::vec((0usize..9, 0usize..9, 1u64..4), 0..12),
            seeded in collection::vec((0usize..8, 0usize..8, 1u64..4), 0..6),
            believed_pools in collection::vec((0usize..9, 0usize..9, 1u64..4), 0..40),
            limited in any::<bool>(),
            limit in 1u64..6,
            count in 1u64..3,
            k in 1u64..3,
            rule in 0u8..3,
            lots in any::<bool>(),
        ) {
            let path = draw_path(n, len.min(n), &picks);
            let mut inv = match limited {
                false => Inventory::new(n),
                true => Inventory::with_buffer_limit(n, limit),
            };
            if lots {
                inv.enable_lot_tracking(&PhysicsModel::decoherent(5.0));
            }
            // Path edges are stocked first, one pair per edge per round so
            // that a buffer limit splits each node between its two edges,
            // and many builds succeed. Pools stocked at successive times
            // carry distinct lots; the seeded pools join path nodes,
            // mid-path pairs among them.
            for round in 0..40 {
                for (w, &copies) in path.windows(2).zip(&edges) {
                    if round < copies {
                        let _ = inv.add_pair(NodePair::new(w[0], w[1]));
                    }
                }
            }
            for (t, chunk) in pools.chunks(4).enumerate() {
                inv.set_clock(SimTime::from_secs_f64(0.25 * t as f64));
                stock(&mut inv, n, chunk);
            }
            for &(i, j, copies) in &seeded {
                let (a, b) = (path[i % path.len()], path[j % path.len()]);
                if a != b {
                    for _ in 0..copies {
                        let _ = inv.add_pair(NodePair::new(a, b));
                    }
                }
            }
            inv.set_clock(SimTime::from_secs_f64(2.0));
            let mut believed = Inventory::new(n);
            stock(&mut believed, n, &believed_pools);
            let (split, reference_split) = match rule {
                0 => (Split::Midpoint, ReferenceSplit::Midpoint),
                1 => (Split::Deepest(None), ReferenceSplit::Trial),
                _ => (
                    Split::Deepest(Some(&believed)),
                    ReferenceSplit::Believed(&believed),
                ),
            };
            let mut reference = inv.clone();
            let expected = reference_execute(&mut reference, reference_split, &path, count, k);
            let got = plan_nested(&inv, &inv, split, &path, count, k).map(|plan| plan.commit(&mut inv));
            prop_assert_eq!(got, expected);
            prop_assert_eq!(inv, reference);
        }

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
