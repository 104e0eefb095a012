//! Property-based tests of the protocol layer: inventory invariants under
//! arbitrary operation sequences, the §4 preferable-swap rule, nested-cost
//! monotonicity, workload generation and the planned-path executor.

use proptest::prelude::*;
use qnet_core::balancer::{BalancerPolicy, CountView};
use qnet_core::control::{PropagationDelays, StaleControl, PROCESSING_DELAY_S};
use qnet_core::inventory::{Inventory, InventoryError, PairLot};
use qnet_core::nested::nested_swap_cost;
use qnet_core::physics::{ConsumeOrder, PhysicsModel};
use qnet_core::planned::{execute_nested_along_path, planned_path_swap_cost};
use qnet_core::workload::{PairSelection, WorkloadSpec};
use qnet_quantum::decoherence::DecoherenceModel;
use qnet_quantum::swap::swap_werner_fidelity;
use qnet_sim::{SimDuration, SimTime};
use qnet_topology::{builders, NodeId, NodePair, PathOracle, Topology};
use std::collections::{BTreeMap, VecDeque};

/// Build a cycle-topology stale control plane plus the matching delay
/// table, and drive it through `rounds` synchronized exchange rounds at
/// the given period while `mutate` reshapes ground truth between rounds.
/// Returns the final exchange round's timestamp.
fn drive_gossip_rounds(
    ctl: &mut StaleControl,
    truth: &mut Inventory,
    rounds: usize,
    period_s: f64,
    mut mutate: impl FnMut(&mut Inventory, usize),
) -> SimTime {
    let n = ctl.node_count();
    let mut last = SimTime::ZERO;
    for round in 0..rounds {
        let now = SimTime::from_secs_f64(round as f64 * period_s);
        last = now;
        ctl.deliver_matured(now);
        mutate(truth, round);
        for node in (0..n).map(NodeId::from) {
            ctl.exchange(now, node, truth);
        }
    }
    last
}

fn stale_control_on_cycle(n: usize, peers: usize, period_s: f64) -> StaleControl {
    let graph = Topology::Cycle { nodes: n }.build(0);
    let oracle = PathOracle::new(&graph);
    let delays = PropagationDelays::new(&graph, None, &oracle);
    StaleControl::new(n, peers, period_s, delays)
}

/// Apply a random sequence of adds/removes/swaps and check the inventory's
/// global invariants at every step.
fn pair_from(n: usize, a: usize, b: usize) -> Option<NodePair> {
    let a = a % n;
    let b = b % n;
    if a == b {
        None
    } else {
        Some(NodePair::new(NodeId::from(a), NodeId::from(b)))
    }
}

proptest! {
    /// Node load always equals the number of stored pairs touching the node,
    /// totals reconcile with the add/remove counters, and a swap decreases
    /// the global pair count by exactly the pairs it consumes minus one.
    #[test]
    fn inventory_invariants_hold_under_random_ops(
        n in 3usize..8,
        ops in proptest::collection::vec((0usize..3, 0usize..8, 0usize..8, 0usize..8), 0..120),
    ) {
        let mut inv = Inventory::new(n);
        for (op, a, b, c) in ops {
            match op {
                0 => {
                    if let Some(p) = pair_from(n, a, b) {
                        inv.add_pair(p).unwrap();
                    }
                }
                1 => {
                    if let Some(p) = pair_from(n, a, b) {
                        let have = inv.count(p);
                        if have > 0 {
                            inv.remove_pairs(p, 1).unwrap();
                        } else {
                            prop_assert!(inv.remove_pairs(p, 1).is_err());
                        }
                    }
                }
                _ => {
                    let (r, l, x) = (a % n, b % n, c % n);
                    if r != l && r != x && l != x {
                        let total_before = inv.total_pairs();
                        let repeater = NodeId::from(r);
                        let left = NodeId::from(l);
                        let right = NodeId::from(x);
                        let ok = inv.apply_swap(repeater, left, right, 1, 1).is_ok();
                        if ok {
                            prop_assert_eq!(inv.total_pairs(), total_before - 1);
                        } else {
                            prop_assert_eq!(inv.total_pairs(), total_before);
                        }
                    }
                }
            }
            // Cross-check node loads against a recount from the pair table.
            for node in 0..n {
                let recount: u64 = inv
                    .nonzero_pairs()
                    .into_iter()
                    .filter(|(p, _)| p.contains(NodeId::from(node)))
                    .map(|(_, c)| c)
                    .sum();
                prop_assert_eq!(inv.node_load(NodeId::from(node)), recount);
            }
            prop_assert_eq!(inv.total_added() - inv.total_removed(), inv.total_pairs());
        }
    }

    /// Whenever the balancer proposes a swap, the §4 preferability inequality
    /// holds and the swap is executable; applying it never leaves a pool
    /// negative and benefits the poorest candidate pool. `D` runs over the
    /// quarters 1, 1.25, …, 3, integer and fractional; a swap draws `⌈D⌉`
    /// pairs from each side.
    #[test]
    fn proposed_swaps_satisfy_the_preferability_rule(
        n in 3usize..7,
        stock in proptest::collection::vec((0usize..7, 0usize..7, 1u64..6), 1..20),
        quarters in 4u32..13,
    ) {
        let d = f64::from(quarters) / 4.0;
        let cost = d.ceil() as u64;
        let mut inv = Inventory::new(n);
        for (a, b, count) in stock {
            if let Some(p) = pair_from(n, a, b) {
                for _ in 0..count {
                    inv.add_pair(p).unwrap();
                }
            }
        }
        let policy = BalancerPolicy;
        let overhead = move |_: NodePair| d;
        for node in (0..n).map(NodeId::from) {
            if let Some(c) = policy.find_preferable_swap(&inv, &inv, node, &overhead) {
                let left_pool = inv.count(NodePair::new(node, c.left));
                let right_pool = inv.count(NodePair::new(node, c.right));
                let target = inv.count(c.beneficiary());
                prop_assert_eq!(target, c.target_count);
                prop_assert!(
                    (target + 1) as f64 <= (left_pool as f64 - d).min(right_pool as f64 - d) + 1e-9
                );
                // Executable with the ⌈D⌉ draw on both sides.
                let mut clone = inv.clone();
                prop_assert!(clone.apply_swap(c.repeater, c.left, c.right, cost, cost).is_ok());
                prop_assert_eq!(clone.count(c.beneficiary()), target + 1);
            }
        }
    }

    /// Quiescence always terminates (bounded by the total pair count) and
    /// leaves no preferable swap anywhere.
    #[test]
    fn quiescence_terminates_with_no_preferable_swap(side in 2usize..4, per_edge in 1u64..8, seed in any::<u64>()) {
        let graph = builders::random_connected_grid(side, seed);
        let mut inv = Inventory::new(graph.node_count());
        for (a, b) in graph.edges() {
            for _ in 0..per_edge {
                inv.add_pair(NodePair::new(a, b)).unwrap();
            }
        }
        let policy = BalancerPolicy;
        let overhead = |_: NodePair| 1.0;
        let total = inv.total_pairs() as usize;
        let swaps = policy.run_to_quiescence(&mut inv, &overhead, total + 1);
        prop_assert!(swaps.len() <= total, "cannot swap more times than pairs exist");
        for node in graph.nodes() {
            prop_assert!(policy.find_preferable_swap(&inv, &inv, node, &overhead).is_none());
        }
    }

    /// The paper's nested cost is monotone in both arguments, dominated by
    /// the executed planned-path cost (which also charges the joining
    /// swaps), and matches the closed form at powers of two.
    #[test]
    fn nested_cost_properties(n in 1usize..64, d in 1.0f64..4.0) {
        let base = nested_swap_cost(n, d);
        prop_assert!(base >= 0.0);
        prop_assert!(nested_swap_cost(n + 1, d) + 1e-12 >= base);
        prop_assert!(nested_swap_cost(n, d + 0.5) + 1e-12 >= base);
        prop_assert!(planned_path_swap_cost(n, d.ceil() as u64) as f64 + 1e-12 >= base);
        if n.is_power_of_two() && n >= 2 {
            let levels = n.trailing_zeros() as i32;
            // s(2^k) = 2^{k-1} · D^k.
            let expected = 2f64.powi(levels - 1) * d.powi(levels);
            prop_assert!((base - expected).abs() < 1e-6, "n={n} d={d}: {base} vs {expected}");
        }
    }

    /// The planned-path executor's swap count matches the closed-form cost
    /// whenever the edge pools are stocked to the closed-form base-pair
    /// requirement, for unit draw factor.
    #[test]
    fn planned_executor_matches_cost_formula(hops in 1usize..7) {
        let nodes: Vec<NodeId> = (0..=hops as u32).map(NodeId).collect();
        let mut inv = Inventory::new(hops + 1);
        for w in nodes.windows(2) {
            inv.add_pair(NodePair::new(w[0], w[1])).unwrap();
        }
        let swaps = execute_nested_along_path(&mut inv, &nodes, 1, 1).unwrap();
        prop_assert_eq!(swaps, planned_path_swap_cost(hops, 1));
        prop_assert_eq!(inv.count(NodePair::new(nodes[0], nodes[hops])), 1);
        prop_assert_eq!(inv.total_pairs(), 1);
    }

    /// Workload generation: the requested number of distinct consumer pairs
    /// (capped by the number of node pairs), requests drawn only from that
    /// set, sequence numbers dense, and the result seed-stable.
    #[test]
    fn workloads_are_well_formed(nodes in 2usize..30, pairs in 1usize..50, requests in 0usize..80, seed in any::<u64>()) {
        let spec = WorkloadSpec::closed_loop(nodes, pairs, requests);
        let w = spec.generate(seed);
        let max_pairs = nodes * (nodes - 1) / 2;
        prop_assert_eq!(w.consumers.len(), pairs.min(max_pairs).max(1));
        prop_assert_eq!(w.requests.len(), requests);
        let mut sorted = w.consumers.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), w.consumers.len(), "consumers must be distinct");
        for (k, r) in w.requests.iter().enumerate() {
            prop_assert_eq!(r.sequence, k as u64);
            prop_assert!(w.consumers.contains(&r.pair));
        }
        prop_assert_eq!(spec.generate(seed), w);
    }

    /// Zipf-skewed selection: request frequencies follow popularity rank —
    /// the head (rank-1) consumer pair is requested at least as often as the
    /// tail pair, and with s ≥ 1 it dominates its expected uniform share.
    #[test]
    fn zipf_selection_frequencies_follow_rank(
        pairs in 2usize..10,
        s in 1.0f64..2.5,
        seed in any::<u64>(),
    ) {
        let requests = 2000;
        let spec = WorkloadSpec::closed_loop(12, pairs, requests)
            .with_discipline(PairSelection::ZipfSkew { s });
        let w = spec.generate(seed);
        prop_assert_eq!(w.requests.len(), requests);
        let count = |pair| w.requests.iter().filter(|r| r.pair == pair).count();
        let head = count(w.consumers[0]);
        let tail = count(*w.consumers.last().unwrap());
        prop_assert!(head >= tail, "head {} < tail {}", head, tail);
        // At s ≥ 1 the head pair's Zipf share (1/H_n ≥ 1/n · n/H_n) clearly
        // exceeds uniform; allow generous sampling noise.
        prop_assert!(
            head as f64 > requests as f64 / pairs as f64 * 1.2,
            "head share {} not skewed above uniform {}",
            head,
            requests / pairs
        );
        // Determinism rides along.
        prop_assert_eq!(spec.generate(seed), w);
    }

    /// Open-loop Poisson arrivals: sorted, within the horizon, seed-stable,
    /// and counts that scale with the offered load.
    #[test]
    fn poisson_arrivals_are_well_formed(
        rate in 0.2f64..5.0,
        horizon in 10.0f64..200.0,
        seed in any::<u64>(),
    ) {
        let spec = WorkloadSpec::open_loop(8, 5, rate, horizon);
        let w = spec.generate(seed);
        let bound = qnet_sim::SimTime::from_secs_f64(horizon);
        for r in &w.requests {
            prop_assert!(r.arrival_time <= bound);
        }
        for pair in w.requests.windows(2) {
            prop_assert!(pair[0].arrival_time <= pair[1].arrival_time);
        }
        // 6-sigma band around the Poisson mean.
        let mean = rate * horizon;
        let slack = 6.0 * mean.sqrt() + 1.0;
        prop_assert!(
            (w.requests.len() as f64 - mean).abs() < slack,
            "{} arrivals vs mean {}",
            w.requests.len(),
            mean
        );
        prop_assert_eq!(spec.generate(seed), w);
    }

    /// Differential pin of the flat-pool inventory against a B-tree
    /// reference model (`BTreeMap<NodePair, VecDeque<PairLot>>` plus the
    /// per-edge overrides): an arbitrary mutation sequence (adds, removes,
    /// swaps, expiry purges, clock advances) under either consume order
    /// drives both through identical observable states — counts, node
    /// loads, per-pool lot order, removal fidelities and refusals, purge
    /// results, `nonzero_pairs` and `peer_counts` order, and the earliest
    /// lot.
    #[test]
    fn flat_inventory_backend_matches_btree(
        n in 3usize..9,
        decoherent in any::<bool>(),
        newest_first in any::<bool>(),
        links in proptest::collection::vec((0usize..9, 0usize..9, 0u8..4), 0..4),
        ops in proptest::collection::vec(
            (0usize..5, 0usize..9, 0usize..9, 0usize..9, 1u64..5),
            0..150,
        ),
    ) {
        let order = if newest_first {
            ConsumeOrder::NewestFirst
        } else {
            ConsumeOrder::OldestFirst
        };
        let physics = PhysicsModel::decoherent(8.0).with_consume_order(order);
        let overrides: BTreeMap<NodePair, (f64, f64)> = links
            .iter()
            .filter_map(|&(a, b, v)| pair_from(n, a, b).map(|p| (p, (0.9, 2.0 + f64::from(v)))))
            .collect();
        let mut inv = Inventory::new(n);
        if decoherent {
            inv.enable_lot_tracking(&physics);
            inv.set_link_physics(overrides.iter().map(|(&p, &(f0, t2))| (p, f0, t2)));
        }
        let mut reference: BTreeMap<NodePair, VecDeque<PairLot>> = BTreeMap::new();
        let mut clock = SimTime::ZERO;
        let elementary = |p: NodePair, clock: SimTime| {
            let (birth_fidelity, coherence_time_s) = overrides
                .get(&p)
                .copied()
                .unwrap_or((physics.initial_fidelity(), 8.0));
            PairLot { created_at: clock, birth_fidelity, coherence_time_s }
        };
        // Pop `k` lots in the configured order: the best aged fidelity among
        // them and the worst memory among them.
        let take = |pool: &mut VecDeque<PairLot>, k: u64, clock: SimTime| {
            let mut best = f64::NEG_INFINITY;
            let mut weakest_t2 = f64::INFINITY;
            for _ in 0..k {
                let lot = match order {
                    ConsumeOrder::OldestFirst => pool.pop_front(),
                    ConsumeOrder::NewestFirst => pool.pop_back(),
                }
                .expect("count checked");
                let age = clock.saturating_since(lot.created_at).as_secs_f64();
                let decay = DecoherenceModel { coherence_time_s: lot.coherence_time_s };
                best = best.max(decay.fidelity_after(lot.birth_fidelity, age));
                weakest_t2 = weakest_t2.min(lot.coherence_time_s);
            }
            (best, weakest_t2)
        };
        let refused = |reference: &BTreeMap<NodePair, VecDeque<PairLot>>, p: NodePair, k: u64| {
            let available = reference.get(&p).map_or(0, |pool| pool.len() as u64);
            (available < k).then_some(InventoryError::InsufficientPairs { requested: k, available })
        };
        for (op, a, b, c, dt) in ops {
            match op {
                0 | 1 => {
                    if let Some(p) = pair_from(n, a, b) {
                        prop_assert_eq!(inv.add_pair(p), Ok(()));
                        reference.entry(p).or_default().push_back(elementary(p, clock));
                    }
                }
                2 => {
                    if let Some(p) = pair_from(n, a, b) {
                        let k = dt.min(2);
                        let want = match refused(&reference, p, k) {
                            Some(err) => Err(err),
                            None if k == 0 => Ok(None),
                            None => {
                                let (best, _) = take(reference.get_mut(&p).unwrap(), k, clock);
                                Ok(decoherent.then_some(best))
                            }
                        };
                        prop_assert_eq!(inv.remove_pairs_with_fidelity(p, k), want);
                    }
                }
                3 => {
                    let (r, l, x) = (a % n, b % n, c % n);
                    if r != l && r != x && l != x {
                        let (r, l, x) = (NodeId::from(r), NodeId::from(l), NodeId::from(x));
                        let (left, right) = (NodePair::new(r, l), NodePair::new(r, x));
                        let want = match refused(&reference, left, 1)
                            .or_else(|| refused(&reference, right, 1))
                        {
                            Some(err) => Err(err),
                            None => {
                                let (fa, ta) = take(reference.get_mut(&left).unwrap(), 1, clock);
                                let (fb, tb) = take(reference.get_mut(&right).unwrap(), 1, clock);
                                reference.entry(NodePair::new(l, x)).or_default().push_back(PairLot {
                                    created_at: clock,
                                    birth_fidelity: swap_werner_fidelity(fa, fb),
                                    coherence_time_s: ta.min(tb),
                                });
                                Ok(())
                            }
                        };
                        prop_assert_eq!(inv.apply_swap(r, l, x, 1, 1), want);
                    }
                }
                _ => {
                    clock += SimDuration::from_secs(dt);
                    inv.set_clock(clock);
                    let cutoff = SimDuration::from_secs(10);
                    let mut want = Vec::new();
                    if decoherent {
                        for (&p, pool) in reference.iter_mut() {
                            while pool.front().is_some_and(|lot| lot.created_at + cutoff <= clock) {
                                pool.pop_front();
                                want.push(p);
                            }
                        }
                    }
                    prop_assert_eq!(inv.purge_expired(cutoff), want);
                }
            }
            reference.retain(|_, pool| !pool.is_empty());
            for (lo, hi) in (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))) {
                let p = NodePair::new(NodeId::from(lo), NodeId::from(hi));
                let pool = reference.get(&p);
                prop_assert_eq!(inv.count(p), pool.map_or(0, |pool| pool.len() as u64));
                let lots: Vec<PairLot> = if decoherent {
                    pool.into_iter().flatten().copied().collect()
                } else {
                    Vec::new()
                };
                prop_assert_eq!(inv.lots_for(p).collect::<Vec<_>>(), lots, "lot order diverged for {}", p);
            }
        }
        let nonzero: Vec<(NodePair, u64)> =
            reference.iter().map(|(&p, pool)| (p, pool.len() as u64)).collect();
        prop_assert_eq!(inv.nonzero_pairs(), nonzero.clone());
        prop_assert_eq!(inv.total_pairs(), nonzero.iter().map(|&(_, c)| c).sum::<u64>());
        let mut rows: Vec<BTreeMap<NodeId, u64>> = vec![BTreeMap::new(); n];
        for &(p, c) in &nonzero {
            rows[p.lo().index()].insert(p.hi(), c);
            rows[p.hi().index()].insert(p.lo(), c);
        }
        for (node, row) in rows.into_iter().enumerate() {
            let node = NodeId::from(node);
            let peers: Vec<(NodeId, u64)> = row.into_iter().collect();
            prop_assert_eq!(inv.node_load(node), peers.iter().map(|&(_, c)| c).sum::<u64>());
            prop_assert_eq!(inv.peer_counts(node), peers.as_slice());
        }
        let earliest = if decoherent {
            reference.values().filter_map(|pool| pool.iter().map(|lot| lot.created_at).min()).min()
        } else {
            None
        };
        prop_assert_eq!(inv.earliest_lot_time(), earliest);
    }

    /// Stale-knowledge freshness bound: once every node has completed one
    /// full peer rotation, no believed row is ever older than the rotation
    /// window (⌈(n−1)/K⌉ refresh periods) plus the worst classical
    /// propagation delay plus the fixed processing delay — gossip never
    /// lets a view fall further behind than the schedule allows, no matter
    /// how truth mutates underneath.
    #[test]
    fn stale_row_age_is_bounded_by_rotation_window_plus_delay(
        n in 4usize..9,
        peers in 1usize..4,
        period_cs in 10u32..100,
        extra_rounds in 0usize..5,
        ops in proptest::collection::vec((0usize..9, 0usize..9, any::<bool>()), 0..60),
    ) {
        let period_s = period_cs as f64 / 100.0;
        let mut ctl = stale_control_on_cycle(n, peers, period_s);
        let mut truth = Inventory::new(n);
        let rotation = (n - 1).div_ceil(peers.min(n - 1));
        let rounds = rotation + extra_rounds + 1;
        let last = drive_gossip_rounds(&mut ctl, &mut truth, rounds, period_s, |inv, round| {
            for (a, b, add) in ops.iter().skip(round % 7) {
                if let Some(p) = pair_from(n, *a, *b) {
                    if *add {
                        inv.add_pair(p).unwrap();
                    } else if inv.count(p) > 0 {
                        inv.remove_pairs(p, 1).unwrap();
                    }
                }
            }
        });
        // Let every in-flight row land, then audit row ages.
        let max_delay = ctl.delays().max_delay_s() + PROCESSING_DELAY_S;
        let now = last + SimDuration::from_secs_f64(max_delay + 1e-9);
        ctl.deliver_matured(now);
        let bound = rotation as f64 * period_s + max_delay + 1e-6;
        for node in (0..n).map(NodeId::from) {
            // A node never pulls its own row (its local pools come from
            // ground truth, age zero); the bound covers every remote row.
            for owner in (0..n).map(NodeId::from).filter(|&o| o != node) {
                let age = now
                    .saturating_since(ctl.view(node).row_refreshed_at(owner))
                    .as_secs_f64();
                prop_assert!(
                    age <= bound,
                    "node {:?}: believed row of {:?} is {age} s old, bound {bound} s \
                     (n={n} K={peers} period={period_s})",
                    node,
                    owner
                );
            }
        }
    }

    /// Stale-knowledge convergence: when truth stops mutating and gossip
    /// keeps running for one full peer rotation (plus delivery time), every
    /// node's believed counts agree with ground truth pair for pair — the
    /// views are eventually consistent, staleness is purely transient.
    #[test]
    fn stale_views_converge_to_truth_once_mutations_stop(
        n in 4usize..9,
        peers in 1usize..4,
        period_cs in 10u32..100,
        churn_rounds in 1usize..6,
        ops in proptest::collection::vec((0usize..9, 0usize..9, any::<bool>()), 1..80),
    ) {
        let period_s = period_cs as f64 / 100.0;
        let mut ctl = stale_control_on_cycle(n, peers, period_s);
        let mut truth = Inventory::new(n);
        let rotation = (n - 1).div_ceil(peers.min(n - 1));
        // Churn phase: mutations land between exchanges, views drift.
        drive_gossip_rounds(&mut ctl, &mut truth, churn_rounds, period_s, |inv, round| {
            for (a, b, add) in ops.iter().skip(round) {
                if let Some(p) = pair_from(n, *a, *b) {
                    if *add {
                        inv.add_pair(p).unwrap();
                    } else if inv.count(p) > 0 {
                        inv.remove_pairs(p, 1).unwrap();
                    }
                }
            }
        });
        // Quiet phase: truth is frozen; one full rotation re-reads every row.
        let offset = churn_rounds as f64 * period_s;
        let mut last = SimTime::ZERO;
        for round in 0..rotation {
            let now = SimTime::from_secs_f64(offset + round as f64 * period_s);
            last = now;
            ctl.deliver_matured(now);
            for node in (0..n).map(NodeId::from) {
                ctl.exchange(now, node, &truth);
            }
        }
        let settle = ctl.delays().max_delay_s() + PROCESSING_DELAY_S + 1e-9;
        ctl.deliver_matured(last + SimDuration::from_secs_f64(settle));
        prop_assert_eq!(ctl.in_flight_len(), 0, "every delivery must mature");
        for node in (0..n).map(NodeId::from) {
            let view = ctl.view(node);
            for p in qnet_topology::pairs::all_pairs(n) {
                prop_assert_eq!(
                    view.count(p),
                    truth.count(p),
                    "node {:?} disagrees with truth on {} after quiescence",
                    node,
                    p
                );
            }
        }
    }
}
