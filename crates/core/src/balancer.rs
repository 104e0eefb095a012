//! The max-min distributed swapping protocol (paper §4).
//!
//! Each node `x` maintains (or learns) the counts `C_x(y)` of Bell pairs it
//! shares with every other node. For any two entanglement peers `y` and `y'`,
//! the swap `y' ← x → y` is **preferable** when
//!
//! ```text
//! C_y(y') + 1 ≤ min( C_x(y) − D_{x,y} ,  C_x(y') − D_{x,y'} )
//! ```
//!
//! i.e. `x` only reduces its own counts if doing so aids a pair whose count
//! would still be no larger after the swap, leaving a distillation margin on
//! both of its own pools. If several candidates are preferable, `x` performs
//! the one with minimal `C_y(y')` (ties broken deterministically by the
//! target pair's node ids, so that simulations are reproducible).
//!
//! Were generation and consumption to cease, repeatedly applying preferable
//! swaps drives the inventory toward a max-min fair allocation: no pool's
//! count can be increased without decreasing one that is already smaller
//! (see `run_to_quiescence` and its tests).
//!
//! # The scan
//!
//! The inequality is evaluated in integers. For each peer `y` whose slack
//! `s_y = C_x(y) − D_{x,y}` is at least one (up to a `1e-12` tolerance
//! that absorbs f64 rounding in a fractional `D`), the scan stores the **cap**
//! `⌊s_y + 1e-12⌋ − 1`; a beneficiary count `t` is then preferable iff
//! `t ≤ min(cap_y, cap_y')`. This is exactly the f64 test
//! `t + 1 ≤ min(s_y, s_y') + 1e-12`: rounding is monotone, so adding the
//! tolerance to the minimum equals the minimum of the tolerated slacks,
//! and for an integer `t` the bound `t + 1 ≤ s` holds exactly when
//! `t ≤ ⌊s⌋ − 1`.
//!
//! Candidates come in ascending beneficiary order (the rich peers ascend by
//! id), so a strict `t < best` keeps the smallest pair among equal counts
//! and no separate tie-break is needed. That comparison runs first, since
//! once a poor beneficiary is found it rejects most later candidates.
//!
//! Beneficiary counts are read through [`CountView::row`] where the view
//! stores them densely: one contiguous slice per left peer, indexed by the
//! right peer, with no per-pair canonicalisation or offset arithmetic.

use crate::inventory::Inventory;
use qnet_topology::{NodeId, NodePair};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

thread_local! {
    /// Reusable rich-peer buffer for [`BalancerPolicy::find_preferable_swap`]:
    /// `(peer, cap)` per peer with slack for at least one swap. The scan runs
    /// once per swap-scan event (millions of times per simulation) and the
    /// buffer can hold every peer of a densely stocked node; keeping one
    /// buffer per thread makes the steady-state scan allocation-free.
    /// The buffer is `take`n for the duration of a scan rather than borrowed,
    /// so caller-supplied closures may re-enter the balancer safely.
    static RICH_SCRATCH: RefCell<Vec<(NodeId, u64)>> = const { RefCell::new(Vec::new()) };
}

/// A read-only view of pair counts. The ground-truth [`Inventory`] implements
/// it; the gossip layer's possibly-stale view (paper §6, "classical
/// overheads") implements it too.
pub trait CountView {
    /// The viewed count of Bell pairs between the endpoints of `pair`.
    fn count(&self, pair: NodePair) -> u64;

    /// The viewed counts of every pair `(lo, hi)` with `hi > lo`, as one
    /// contiguous slice: the count of `(lo, hi)` is `row[hi − lo − 1]`
    /// and must equal `count` for that pair. Views that store counts in a
    /// dense [`qnet_topology::PairMatrix`] return its
    /// [`row`](qnet_topology::PairMatrix::row); views that compute each
    /// count (an age discount, an overlay) have no such slice and return
    /// `None`, the default, so readers fall back to [`CountView::count`].
    fn row(&self, _lo: NodeId) -> Option<&[u64]> {
        None
    }
}

/// A swap the balancer has decided to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapCandidate {
    /// The repeater performing the swap (the paper's `x`).
    pub repeater: NodeId,
    /// One entanglement peer (the paper's `y`).
    pub left: NodeId,
    /// The other entanglement peer (the paper's `y'`).
    pub right: NodeId,
    /// The (viewed) count `C_y(y')` of the beneficiary pair at decision time.
    pub target_count: u64,
}

impl SwapCandidate {
    /// The pair that gains a Bell pair from this swap.
    pub fn beneficiary(&self) -> NodePair {
        NodePair::new(self.left, self.right)
    }
}

/// The §4 balancing policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct BalancerPolicy;

impl BalancerPolicy {
    /// Find the preferable swap node `x` should perform, if any.
    ///
    /// * `local` supplies `x`'s own pool counts and entanglement peers — a
    ///   node always knows its own buffers exactly.
    /// * `remote` supplies the counts of *other* pairs (`C_y(y')`), which may
    ///   be a stale gossip view.
    /// * `overhead` maps a pair to its distillation overhead `D`.
    ///
    /// Each peer's slack becomes an exact integer cap (see the module docs),
    /// so a candidate costs one count load and integer compares: first
    /// against the best count so far, then against both caps. The left
    /// peer's beneficiary counts are fetched once as a [`CountView::row`]
    /// slice when the view has one, and pair by pair otherwise.
    ///
    /// Generic (rather than `&dyn`) over the remote view and overhead map so
    /// the million-scan hot path monomorphizes: the beneficiary probe in the
    /// candidate loop inlines straight into a slice load instead of a
    /// virtual call per pair.
    pub fn find_preferable_swap<R, F>(
        &self,
        local: &Inventory,
        remote: &R,
        node: NodeId,
        overhead: &F,
    ) -> Option<SwapCandidate>
    where
        R: CountView + ?Sized,
        F: Fn(NodePair) -> f64 + ?Sized,
    {
        let peers = local.peer_counts(node);
        if peers.len() < 2 {
            return None;
        }

        // A peer can only take part in a preferable swap if its pool leaves
        // margin for the beneficiary: `C_y(y') ≥ 0` forces
        // `C_x(peer) − D ≥ 1`. Filtering first makes a scan O(peers) plus
        // O(rich²) instead of O(peers²) — on an internet-scale graph a hub's
        // peer list runs to hundreds, but almost every pool holds a single
        // pair, so `rich` stays tiny. (On a densely stocked node every peer
        // is rich, and the candidate loop below is the scan's whole cost.)
        // The counts ride inline in the peer index, so this pass is one
        // sequential walk with no matrix probes. The filter is exact (no
        // candidate that survives it is judged differently), so results are
        // bit-identical to the exhaustive scan.
        let mut rich = RICH_SCRATCH.with(|cell| std::mem::take(&mut *cell.borrow_mut()));
        rich.clear();
        for &(peer, count) in peers {
            let slack = count as f64 - overhead(NodePair::new(node, peer)) + 1e-12;
            if slack >= 1.0 {
                // `as` truncates, which is `⌊slack⌋` for a slack of at least
                // one, so the cap cannot underflow.
                rich.push((peer, slack as u64 - 1));
            }
        }

        // `u64::MAX` is never a preferable count (every cap is smaller), so
        // it stands for "nothing found yet".
        let mut best_count = u64::MAX;
        let mut best: Option<(NodeId, NodeId)> = None;
        'candidates: for (i, &(left, left_cap)) in rich.iter().enumerate() {
            let rights = &rich[i + 1..];
            if rights.is_empty() {
                break;
            }
            let row = remote.row(left);
            let base = left.index() + 1;
            for &(right, right_cap) in rights {
                let t = match row {
                    Some(row) => row[right.index() - base],
                    None => remote.count(NodePair::new(left, right)),
                };
                if t < best_count && t <= left_cap.min(right_cap) {
                    best_count = t;
                    best = Some((left, right));
                    // Nothing can beat a preferable candidate at the count
                    // floor: later ones tie at best and lose the beneficiary
                    // tie-break.
                    if t == 0 {
                        break 'candidates;
                    }
                }
            }
        }
        RICH_SCRATCH.with(|cell| *cell.borrow_mut() = rich);
        best.map(|(left, right)| SwapCandidate {
            repeater: node,
            left,
            right,
            target_count: best_count,
        })
    }

    /// Execute one balancing scan at `node`: if a preferable swap exists,
    /// apply it to the inventory (consuming `⌈D⌉` pairs on each side) and
    /// return it.
    pub fn scan_and_swap<F>(
        &self,
        inventory: &mut Inventory,
        node: NodeId,
        overhead: &F,
    ) -> Option<SwapCandidate>
    where
        F: Fn(NodePair) -> f64 + ?Sized,
    {
        let candidate = {
            let view: &Inventory = inventory;
            self.find_preferable_swap(view, view, node, overhead)?
        };
        let cost_left = overhead(NodePair::new(node, candidate.left)).ceil() as u64;
        let cost_right = overhead(NodePair::new(node, candidate.right)).ceil() as u64;
        inventory
            .apply_swap(node, candidate.left, candidate.right, cost_left, cost_right)
            .expect("preferable swap must be executable");
        Some(candidate)
    }

    /// Repeatedly apply preferable swaps (scanning nodes in id order, round
    /// after round) until no node has one. Returns the executed swaps.
    ///
    /// This is the "generation and consumption cease" setting of §4, used to
    /// check that the protocol converges to a max-min-fair balance; the live
    /// simulation interleaves scans with generation and consumption instead.
    pub fn run_to_quiescence<F>(
        &self,
        inventory: &mut Inventory,
        overhead: &F,
        max_swaps: usize,
    ) -> Vec<SwapCandidate>
    where
        F: Fn(NodePair) -> f64 + ?Sized,
    {
        let n = inventory.node_count();
        let mut executed = Vec::new();
        loop {
            let mut any = false;
            for node in (0..n).map(NodeId::from) {
                if executed.len() >= max_swaps {
                    return executed;
                }
                if let Some(c) = self.scan_and_swap(inventory, node, overhead) {
                    executed.push(c);
                    any = true;
                }
            }
            if !any {
                return executed;
            }
        }
    }
}

/// The f64 scan the integer-cap loop replaced, kept as the equality
/// reference for [`BalancerPolicy::find_preferable_swap`]: one canonical
/// [`CountView::count`] probe per candidate pair, an f64 margin test, then
/// an explicit (count, beneficiary) comparison against the best so far.
#[cfg(test)]
pub(crate) mod reference {
    use super::{CountView, SwapCandidate};
    use crate::inventory::Inventory;
    use qnet_topology::{NodeId, NodePair};

    pub(crate) fn find_preferable_swap<R, F>(
        local: &Inventory,
        remote: &R,
        node: NodeId,
        overhead: &F,
    ) -> Option<SwapCandidate>
    where
        R: CountView + ?Sized,
        F: Fn(NodePair) -> f64 + ?Sized,
    {
        let peers = local.peer_counts(node);
        if peers.len() < 2 {
            return None;
        }
        let mut rich: Vec<(NodeId, f64)> = Vec::new();
        for &(peer, count) in peers {
            let pair = NodePair::new(node, peer);
            let margin = count as f64 - overhead(pair);
            if margin + 1e-12 >= 1.0 {
                rich.push((peer, margin));
            }
        }

        let mut best: Option<SwapCandidate> = None;
        'candidates: for (i, &(left, left_margin)) in rich.iter().enumerate() {
            for &(right, right_margin) in &rich[i + 1..] {
                let beneficiary = NodePair::new(left, right);
                let target_count = remote.count(beneficiary);
                let preferable =
                    (target_count as f64 + 1.0) <= left_margin.min(right_margin) + 1e-12;
                if !preferable {
                    continue;
                }
                let candidate = SwapCandidate {
                    repeater: node,
                    left,
                    right,
                    target_count,
                };
                let better = match &best {
                    None => true,
                    Some(b) => {
                        target_count < b.target_count
                            || (target_count == b.target_count
                                && candidate.beneficiary() < b.beneficiary())
                    }
                };
                if better {
                    best = Some(candidate);
                    if target_count == 0 {
                        break 'candidates;
                    }
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::KnowledgeView;
    use crate::policy::gossip_aware::AgeDiscountedView;
    use proptest::prelude::*;
    use qnet_sim::SimTime;
    use qnet_topology::pairs::all_pairs;

    fn pair(a: u32, b: u32) -> NodePair {
        NodePair::new(NodeId(a), NodeId(b))
    }

    fn uniform(d: f64) -> impl Fn(NodePair) -> f64 {
        move |_| d
    }

    #[test]
    fn no_swap_without_two_peers() {
        let policy = BalancerPolicy;
        let mut inv = Inventory::new(4);
        inv.add_pair(pair(1, 0)).unwrap();
        inv.add_pair(pair(1, 0)).unwrap();
        assert!(policy
            .find_preferable_swap(&inv, &inv, NodeId(1), &uniform(1.0))
            .is_none());
    }

    #[test]
    fn preferable_swap_respects_margin() {
        let policy = BalancerPolicy;
        let mut inv = Inventory::new(3);
        // Node 1 shares 3 pairs with node 0 and 3 with node 2; pair (0,2) has
        // none. With D = 1: target 0 + 1 ≤ min(3−1, 3−1) = 2 → preferable.
        for _ in 0..3 {
            inv.add_pair(pair(0, 1)).unwrap();
            inv.add_pair(pair(1, 2)).unwrap();
        }
        let c = policy
            .find_preferable_swap(&inv, &inv, NodeId(1), &uniform(1.0))
            .expect("preferable");
        assert_eq!(c.repeater, NodeId(1));
        assert_eq!(c.beneficiary(), pair(0, 2));
        assert_eq!(c.target_count, 0);

        // With D = 2 the margin shrinks: 0 + 1 ≤ min(3−2, 3−2) = 1 → still
        // preferable (boundary case).
        assert!(policy
            .find_preferable_swap(&inv, &inv, NodeId(1), &uniform(2.0))
            .is_some());
        // With D = 3 the margin is 0 → not preferable.
        assert!(policy
            .find_preferable_swap(&inv, &inv, NodeId(1), &uniform(3.0))
            .is_none());
    }

    #[test]
    fn does_not_help_a_richer_pair() {
        let policy = BalancerPolicy;
        let mut inv = Inventory::new(3);
        for _ in 0..3 {
            inv.add_pair(pair(0, 1)).unwrap();
            inv.add_pair(pair(1, 2)).unwrap();
        }
        // The beneficiary pair already holds 4 pairs — more than either pool
        // of the repeater: not preferable.
        for _ in 0..4 {
            inv.add_pair(pair(0, 2)).unwrap();
        }
        assert!(policy
            .find_preferable_swap(&inv, &inv, NodeId(1), &uniform(1.0))
            .is_none());
    }

    #[test]
    fn picks_the_poorest_beneficiary() {
        let policy = BalancerPolicy;
        let mut inv = Inventory::new(4);
        // Node 0 shares plenty with 1, 2 and 3.
        for _ in 0..6 {
            inv.add_pair(pair(0, 1)).unwrap();
            inv.add_pair(pair(0, 2)).unwrap();
            inv.add_pair(pair(0, 3)).unwrap();
        }
        // Pair (1,2) already has 2; pair (1,3) has 1; pair (2,3) has none.
        inv.add_pair(pair(1, 2)).unwrap();
        inv.add_pair(pair(1, 2)).unwrap();
        inv.add_pair(pair(1, 3)).unwrap();
        let c = policy
            .find_preferable_swap(&inv, &inv, NodeId(0), &uniform(1.0))
            .expect("preferable");
        assert_eq!(c.beneficiary(), pair(2, 3));
        assert_eq!(c.target_count, 0);
    }

    #[test]
    fn tie_break_is_deterministic() {
        let policy = BalancerPolicy;
        let mut inv = Inventory::new(4);
        for _ in 0..5 {
            inv.add_pair(pair(0, 1)).unwrap();
            inv.add_pair(pair(0, 2)).unwrap();
            inv.add_pair(pair(0, 3)).unwrap();
        }
        // All beneficiaries have count 0; the smallest pair (1,2) wins.
        let c = policy
            .find_preferable_swap(&inv, &inv, NodeId(0), &uniform(1.0))
            .unwrap();
        assert_eq!(c.beneficiary(), pair(1, 2));
    }

    #[test]
    fn scan_and_swap_applies_distillation_cost() {
        let policy = BalancerPolicy;
        let mut inv = Inventory::new(3);
        for _ in 0..5 {
            inv.add_pair(pair(0, 1)).unwrap();
            inv.add_pair(pair(1, 2)).unwrap();
        }
        let c = policy
            .scan_and_swap(&mut inv, NodeId(1), &uniform(2.0))
            .expect("swap executed");
        assert_eq!(c.beneficiary(), pair(0, 2));
        assert_eq!(inv.count(pair(0, 1)), 3);
        assert_eq!(inv.count(pair(1, 2)), 3);
        assert_eq!(inv.count(pair(0, 2)), 1);
    }

    #[test]
    fn quiescence_on_a_path_spreads_pairs() {
        // Path 0—1—2 with a big stock on each generation edge: balancing
        // should populate the (0,2) pool until counts are (max-min) level.
        let policy = BalancerPolicy;
        let mut inv = Inventory::new(3);
        for _ in 0..9 {
            inv.add_pair(pair(0, 1)).unwrap();
            inv.add_pair(pair(1, 2)).unwrap();
        }
        let swaps = policy.run_to_quiescence(&mut inv, &uniform(1.0), 10_000);
        assert!(!swaps.is_empty());
        // After quiescence no preferable swap remains anywhere.
        for node in 0..3 {
            assert!(policy
                .find_preferable_swap(&inv, &inv, NodeId(node), &uniform(1.0))
                .is_none());
        }
        // Max-min property at the repeater: the beneficiary pool is within
        // one distillation margin of the donor pools.
        let c01 = inv.count(pair(0, 1));
        let c12 = inv.count(pair(1, 2));
        let c02 = inv.count(pair(0, 2));
        assert!(c02 >= 1, "some pairs must have been pushed to (0,2)");
        assert!(
            c02 + 1 > c01.min(c12).saturating_sub(1),
            "no further swap is preferable"
        );
        // Conservation: every swap destroys one net pair.
        assert_eq!((c01 + c12 + c02) as usize, 18 - swaps.len());
    }

    #[test]
    fn quiescence_respects_max_swaps_budget() {
        let policy = BalancerPolicy;
        let mut inv = Inventory::new(3);
        for _ in 0..50 {
            inv.add_pair(pair(0, 1)).unwrap();
            inv.add_pair(pair(1, 2)).unwrap();
        }
        let swaps = policy.run_to_quiescence(&mut inv, &uniform(1.0), 3);
        assert_eq!(swaps.len(), 3);
    }

    /// Uniform overheads at and beside integer boundaries, where the
    /// integer caps and the f64 margins could disagree if either were off
    /// by one tolerance step.
    const UNIFORM_D: [f64; 7] = [1.0, 1.5, 2.0, 2.25, 3.0, 1.0 - 1e-13, 2.0 + 1e-13];

    /// A remote view that believes every pair holds the same count (no
    /// dense rows: the balancer probes it pair by pair).
    struct Constant(u64);
    impl CountView for Constant {
        fn count(&self, _pair: NodePair) -> u64 {
            self.0
        }
    }

    proptest! {
        /// The integer-cap row scan chooses exactly the swap the f64
        /// reference chooses, at every node, for every overhead and every
        /// kind of remote view: the inventory and a `KnowledgeView` (dense
        /// rows), an `AgeDiscountedView` and a constant view (per-pair
        /// counts).
        #[test]
        fn find_preferable_swap_matches_the_reference(
            n in 2usize..31,
            cells in collection::vec((0u64..13, 0u8..4), 435),
            density in 1u8..5,
            believed in collection::vec(0u64..13, 900),
            constant in 0u64..13,
            d_choice in 0usize..8,
        ) {
            let mut inv = Inventory::new(n);
            for (pair, &(count, keep)) in all_pairs(n).zip(&cells) {
                if keep < density {
                    for _ in 0..count {
                        inv.add_pair(pair).unwrap();
                    }
                }
            }
            let mut known = KnowledgeView::new(n);
            for owner in 0..n {
                let read_at = SimTime::from_secs_f64(0.3 * owner as f64);
                let row = &believed[owner * 30..owner * 30 + n];
                known.install_row(NodeId::from(owner), read_at, row);
            }
            let discounted = AgeDiscountedView::new(&known, SimTime::from_secs_f64(5.0), 2.0);
            let overhead = move |p: NodePair| match UNIFORM_D.get(d_choice) {
                Some(&d) => d,
                None => 1.0 + ((p.lo().index() * 3 + p.hi().index()) % 5) as f64 * 0.5,
            };
            let policy = BalancerPolicy;
            for node in (0..n).map(NodeId::from) {
                let views: [&dyn CountView; 4] = [&inv, &known, &discounted, &Constant(constant)];
                for view in views {
                    prop_assert_eq!(
                        policy.find_preferable_swap(&inv, view, node, &overhead),
                        reference::find_preferable_swap(&inv, view, node, &overhead)
                    );
                }
            }
        }
    }

    #[test]
    fn stale_remote_view_changes_the_decision() {
        // A gossip view that believes pair (0,2) already has many pairs makes
        // the repeater skip the swap even though ground truth is zero.
        let policy = BalancerPolicy;
        let mut inv = Inventory::new(3);
        for _ in 0..5 {
            inv.add_pair(pair(0, 1)).unwrap();
            inv.add_pair(pair(1, 2)).unwrap();
        }
        assert!(policy
            .find_preferable_swap(&inv, &inv, NodeId(1), &uniform(1.0))
            .is_some());
        assert!(policy
            .find_preferable_swap(&inv, &Constant(100), NodeId(1), &uniform(1.0))
            .is_none());
    }
}
