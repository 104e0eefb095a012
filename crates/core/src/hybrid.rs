//! Hybrid oblivious + minimal planning — paper §6.
//!
//! Path-oblivious balancing can be viewed as *seeding*: when a consumption
//! request arrives and the needed pair is not immediately available, the
//! consuming pair can look for a shortest path **among the existing Bell
//! pairs** (which may be much shorter than the generation-graph path, thanks
//! to the seeding) and perform just the few swaps needed to close the gap.
//! The paper proposes this as a mitigation for the starvation effect it
//! observed; the hybrid ablation experiment measures how much it helps.
//!
//! The *entanglement graph* joins `x` and `y` whenever at least `min_count`
//! pairs `[x, y]` are stored. It is never materialised: an
//! [`EntanglementSearch`] walks each visited node's neighbour row in place
//! — the inventory's [`Inventory::peer_counts`] under global knowledge, a
//! scan of the believed counts under a stale control plane. Rows are
//! walked in ascending peer id, which is exactly the order of the sorted
//! adjacency lists of a materialised [`qnet_topology::Graph`], so the
//! search discovers nodes in the same order as [`qnet_topology::bfs_path`]
//! and breaks every tie the same way (smaller-id predecessor first): the
//! same paths, the same swaps.

use crate::inventory::Inventory;
use qnet_topology::{NodeId, NodePair};

/// Shortest (fewest-hops) path from `pair.lo()` to `pair.hi()` over the
/// entanglement graph on `n` nodes whose edges are the pools holding at
/// least `min_count` pairs (an empty pool is never an edge). Returns `None`
/// if the endpoints are not connected. A one-shot [`EntanglementSearch`].
pub fn entanglement_bfs<F, I>(
    n: usize,
    pair: NodePair,
    min_count: u64,
    neighbors: F,
) -> Option<Vec<NodeId>>
where
    F: FnMut(NodeId) -> I,
    I: IntoIterator<Item = (NodeId, u64)>,
{
    let mut search = EntanglementSearch::default();
    search
        .run(n, pair, min_count, neighbors)
        .then(|| search.path().to_vec())
}

/// A reusable breadth-first search over the entanglement graph: the
/// predecessor table, the queue and the found path stay allocated between
/// searches, and after a search it reports which rows it read.
///
/// `neighbors(u)` yields `(v, count)` for the pools at `u`, in ascending
/// `v`; pools below the threshold are skipped, and the search stops as
/// soon as it reaches the target. See the module docs for why ascending
/// order reproduces [`qnet_topology::bfs_path`]'s tie-breaks.
#[derive(Debug, Default)]
pub struct EntanglementSearch {
    /// `prev[v]` is v's BFS predecessor (`UNSEEN` when undiscovered); the
    /// source points at itself.
    prev: Vec<u32>,
    /// Nodes in discovery order: the queue, whose first `expanded` entries
    /// have been popped and had their rows read.
    order: Vec<NodeId>,
    expanded: usize,
    path: Vec<NodeId>,
}

const UNSEEN: u32 = u32::MAX;

impl EntanglementSearch {
    /// Search for a path from `pair.lo()` to `pair.hi()` on `n` nodes over
    /// pools of at least `min_count` pairs. Returns whether one was found
    /// ([`Self::path`]).
    pub fn run<F, I>(&mut self, n: usize, pair: NodePair, min_count: u64, mut neighbors: F) -> bool
    where
        F: FnMut(NodeId) -> I,
        I: IntoIterator<Item = (NodeId, u64)>,
    {
        for v in self.order.drain(..) {
            self.prev[v.index()] = UNSEEN;
        }
        self.prev.resize(n, UNSEEN);
        self.expanded = 0;
        self.path.clear();
        let (source, target) = (pair.lo(), pair.hi());
        if target.index() >= n {
            return false;
        }
        let min_count = min_count.max(1);
        self.prev[source.index()] = source.0;
        self.order.push(source);
        while let Some(&u) = self.order.get(self.expanded) {
            self.expanded += 1;
            for (v, count) in neighbors(u) {
                if count < min_count || self.prev[v.index()] != UNSEEN {
                    continue;
                }
                self.prev[v.index()] = u.0;
                self.order.push(v);
                if v == target {
                    let mut cur = target;
                    self.path.push(cur);
                    while cur != source {
                        cur = NodeId(self.prev[cur.index()]);
                        self.path.push(cur);
                    }
                    self.path.reverse();
                    return true;
                }
            }
        }
        false
    }

    /// The path the last search found (empty when it found none).
    pub fn path(&self) -> &[NodeId] {
        &self.path
    }

    /// The nodes whose rows the last search read, in the order it read
    /// them: every node it reached when it found no path.
    pub fn expanded(&self) -> &[NodeId] {
        &self.order[..self.expanded]
    }
}

/// Find the shortest path between the endpoints of `pair` in the entanglement
/// graph induced by pools holding at least `min_count` pairs. Returns `None`
/// if no such path exists.
pub fn entanglement_path(
    inventory: &Inventory,
    pair: NodePair,
    min_count: u64,
) -> Option<Vec<NodeId>> {
    entanglement_bfs(inventory.node_count(), pair, min_count, |u| {
        inventory.peer_counts(u).iter().copied()
    })
}

/// Attempt the §6 hybrid repair: if the consuming pair is not directly
/// satisfiable, find a shortest path over the existing Bell pairs and execute
/// nested swapping along it so that `need` pairs of `pair` become available.
/// Returns the number of repair swaps performed, or `None` if no
/// entanglement path could provide them: then `search` holds the rows it
/// read and the path whose build failed (empty when it found none).
pub fn hybrid_repair(
    inventory: &mut Inventory,
    search: &mut EntanglementSearch,
    pair: NodePair,
    need: u64,
    k: u64,
) -> Option<u64> {
    if inventory.count(pair) >= need {
        return Some(0);
    }
    // Require only k pairs per hop when searching; the nested executor will
    // verify exact availability (and is atomic on failure).
    let rows = &*inventory;
    if !search.run(inventory.node_count(), pair, k, |u| {
        rows.peer_counts(u).iter().copied()
    }) {
        return None;
    }
    crate::planned::execute_nested_along_path(inventory, search.path(), need, k)
}

/// The materialised entanglement graph the searches used to build on every
/// repair, kept as the oracle the property tests compare the in-place BFS
/// against.
#[cfg(test)]
pub(crate) mod reference {
    use qnet_topology::{Graph, NodePair};

    /// A graph on `n` nodes with an edge for every listed pool holding at
    /// least `min_count` pairs.
    pub(crate) fn graph_from_pairs(
        n: usize,
        pairs: impl IntoIterator<Item = (NodePair, u64)>,
        min_count: u64,
    ) -> Graph {
        let mut g = Graph::with_nodes(n);
        for (pair, count) in pairs {
            if count >= min_count {
                g.add_edge(pair.lo(), pair.hi());
            }
        }
        g
    }

    /// The entanglement graph of `inventory` at threshold `min_count`.
    pub(crate) fn entanglement_graph(inventory: &super::Inventory, min_count: u64) -> Graph {
        graph_from_pairs(inventory.node_count(), inventory.nonzero_pairs(), min_count)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::entanglement_graph;
    use super::*;
    use proptest::prelude::*;
    use qnet_topology::bfs_path;

    fn pair(a: u32, b: u32) -> NodePair {
        NodePair::new(NodeId(a), NodeId(b))
    }

    #[test]
    fn reference_entanglement_graph_reflects_counts() {
        let mut inv = Inventory::new(4);
        inv.add_pair(pair(0, 1)).unwrap();
        inv.add_pair(pair(0, 1)).unwrap();
        inv.add_pair(pair(1, 2)).unwrap();
        let g1 = entanglement_graph(&inv, 1);
        assert!(g1.has_edge(NodeId(0), NodeId(1)));
        assert!(g1.has_edge(NodeId(1), NodeId(2)));
        assert!(!g1.has_edge(NodeId(2), NodeId(3)));
        let g2 = entanglement_graph(&inv, 2);
        assert!(g2.has_edge(NodeId(0), NodeId(1)));
        assert!(!g2.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn entanglement_path_can_shortcut_the_generation_graph() {
        // Suppose balancing already produced a long-distance pair (0,3): the
        // entanglement path from 0 to 4 is then just 0—3—4, regardless of how
        // far apart they are in the generation graph.
        let mut inv = Inventory::new(5);
        inv.add_pair(pair(0, 3)).unwrap();
        inv.add_pair(pair(3, 4)).unwrap();
        let path = entanglement_path(&inv, pair(0, 4), 1).unwrap();
        assert_eq!(path, vec![NodeId(0), NodeId(3), NodeId(4)]);
        assert!(entanglement_path(&inv, pair(0, 2), 1).is_none());
    }

    #[test]
    fn hybrid_repair_produces_the_needed_pair() {
        let mut inv = Inventory::new(5);
        inv.add_pair(pair(0, 3)).unwrap();
        inv.add_pair(pair(3, 4)).unwrap();
        let mut search = EntanglementSearch::default();
        let swaps = hybrid_repair(&mut inv, &mut search, pair(0, 4), 1, 1).unwrap();
        assert_eq!(swaps, 1);
        assert_eq!(inv.count(pair(0, 4)), 1);
    }

    #[test]
    fn hybrid_repair_noop_when_already_available() {
        let mut inv = Inventory::new(3);
        inv.add_pair(pair(0, 2)).unwrap();
        let mut search = EntanglementSearch::default();
        assert_eq!(
            hybrid_repair(&mut inv, &mut search, pair(0, 2), 1, 1),
            Some(0)
        );
        assert_eq!(inv.count(pair(0, 2)), 1, "nothing consumed by the repair");
    }

    #[test]
    fn hybrid_repair_fails_gracefully() {
        let mut inv = Inventory::new(4);
        inv.add_pair(pair(0, 1)).unwrap();
        let mut search = EntanglementSearch::default();
        // No path from 0 to 3 over existing pairs: the search read the rows
        // of the nodes it reached.
        assert!(hybrid_repair(&mut inv, &mut search, pair(0, 3), 1, 1).is_none());
        assert_eq!(search.expanded(), [NodeId(0), NodeId(1)]);
        assert!(search.path().is_empty());
        // A path exists but lacks the quantity needed for k = 2: the nested
        // executor refuses and leaves the inventory untouched.
        inv.add_pair(pair(1, 3)).unwrap();
        let before = inv.clone();
        assert!(hybrid_repair(&mut inv, &mut search, pair(0, 3), 1, 2).is_none());
        assert_eq!(inv, before);
        // At k = 2 the search finds 0–1–3 over two pairs a hop, but two
        // products need 2 · 2 pairs a hop: the build fails on its path.
        inv.add_pair(pair(0, 1)).unwrap();
        inv.add_pair(pair(1, 3)).unwrap();
        let before = inv.clone();
        assert!(hybrid_repair(&mut inv, &mut search, pair(0, 3), 2, 2).is_none());
        assert_eq!(inv, before);
        assert_eq!(search.path(), [NodeId(0), NodeId(1), NodeId(3)]);
    }

    proptest! {
        /// The in-place search finds exactly the path `bfs_path` finds over
        /// the materialised entanglement graph: same reachability, same
        /// hop count, same tie-broken nodes.
        #[test]
        fn entanglement_path_matches_bfs_over_the_reference_graph(
            n in 2usize..41,
            pools in collection::vec((0usize..40, 0usize..40, 1u64..5), 0..160),
            min_count in 1u64..4,
            ends in (0usize..40, 0usize..40),
        ) {
            let mut inv = Inventory::new(n);
            for (a, b, copies) in pools {
                let (a, b) = (a % n, b % n);
                if a == b {
                    continue;
                }
                let p = NodePair::new(NodeId::from(a), NodeId::from(b));
                for _ in 0..copies {
                    inv.add_pair(p).unwrap();
                }
            }
            let (a, b) = (ends.0 % n, ends.1 % n);
            prop_assume!(a != b);
            let p = NodePair::new(NodeId::from(a), NodeId::from(b));
            let graph = entanglement_graph(&inv, min_count);
            let expected = bfs_path(&graph, p.lo(), p.hi()).map(|r| r.nodes);
            prop_assert_eq!(entanglement_path(&inv, p, min_count), expected.clone());

            // A search reused after another query answers the same, and one
            // that finds no path has read exactly the rows of the source's
            // component.
            let rows = |u: NodeId| inv.peer_counts(u).iter().copied();
            let mut search = EntanglementSearch::default();
            search.run(n, NodePair::new(NodeId(0), NodeId::from(n - 1)), 1, rows);
            let found = search.run(n, p, min_count, rows);
            prop_assert_eq!(found.then(|| search.path().to_vec()), expected);
            if !found {
                let mut component = vec![p.lo()];
                let mut i = 0;
                while let Some(&u) = component.get(i) {
                    i += 1;
                    for &v in graph.neighbors(u) {
                        if !component.contains(&v) {
                            component.push(v);
                        }
                    }
                }
                let mut read = search.expanded().to_vec();
                read.sort();
                component.sort();
                prop_assert_eq!(read, component);
            }
        }
    }
}
