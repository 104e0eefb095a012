//! Shortest paths on generation graphs.
//!
//! Two users in this workspace:
//!
//! * the **planned-path baselines** select the shortest path between the
//!   consumer endpoints and swap along it, and
//! * the **swap-overhead metric** (§5) divides the number of swaps performed
//!   by `Σ_c s(ℓ(c))` where `ℓ(c)` is the shortest-path hop count between the
//!   consumption pair's endpoints in the generation graph.
//!
//! Generation graphs are unweighted, so BFS is the workhorse.

use crate::graph::{Graph, NodeId};
use std::cell::RefCell;
use std::collections::VecDeque;

/// Result of a point-to-point path query.
#[derive(Debug, Clone, PartialEq)]
pub struct PathResult {
    /// The nodes along the path, starting at the source and ending at the
    /// target (inclusive).
    pub nodes: Vec<NodeId>,
    /// Total cost: the hop count.
    pub cost: f64,
}

impl PathResult {
    /// Number of hops (edges) along the path.
    pub fn hops(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }
}

/// Single-source BFS hop distances. Unreachable nodes get `None`.
pub fn bfs_distances(graph: &Graph, source: NodeId) -> Vec<Option<u32>> {
    let n = graph.node_count();
    let mut dist = vec![None; n];
    if source.index() >= n {
        return dist;
    }
    dist[source.index()] = Some(0);
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued node has distance");
        for &v in graph.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Shortest (fewest-hops) path between two nodes, or `None` if unreachable.
/// Ties are broken deterministically by preferring smaller-id predecessors.
pub fn bfs_path(graph: &Graph, source: NodeId, target: NodeId) -> Option<PathResult> {
    let n = graph.node_count();
    if source.index() >= n || target.index() >= n {
        return None;
    }
    if source == target {
        return Some(PathResult {
            nodes: vec![source],
            cost: 0.0,
        });
    }
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut visited = vec![false; n];
    visited[source.index()] = true;
    let mut queue = VecDeque::new();
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors(u) {
            if !visited[v.index()] {
                visited[v.index()] = true;
                prev[v.index()] = Some(u);
                if v == target {
                    return Some(reconstruct(&prev, source, target));
                }
                queue.push_back(v);
            }
        }
    }
    None
}

/// All-pairs hop distances (BFS from every node). `dist[i][j]` is `None` when
/// `j` is unreachable from `i`.
pub fn all_pairs_distances(graph: &Graph) -> Vec<Vec<Option<u32>>> {
    graph.nodes().map(|s| bfs_distances(graph, s)).collect()
}

fn reconstruct(prev: &[Option<NodeId>], source: NodeId, target: NodeId) -> PathResult {
    let mut nodes = vec![target];
    let mut cur = target;
    while cur != source {
        cur = prev[cur.index()].expect("path reconstruction hit a gap");
        nodes.push(cur);
    }
    nodes.reverse();
    let cost = (nodes.len() - 1) as f64;
    PathResult { nodes, cost }
}

/// One memoized BFS tree: hop distances and discovery predecessors from a
/// single source. `u32::MAX` is the "unreachable / no predecessor" sentinel.
#[derive(Debug, Clone)]
struct OracleRow {
    dist: Vec<u32>,
    prev: Vec<u32>,
}

impl OracleRow {
    const NONE: u32 = u32::MAX;

    /// Full BFS from `source`, visiting neighbors in ascending id order —
    /// the same discovery order (and therefore the same predecessor
    /// assignments) as [`bfs_path`]'s early-exit search, so paths
    /// reconstructed from this row are node-for-node identical to what
    /// `bfs_path` returns for any target.
    fn bfs(graph: &Graph, source: NodeId) -> Self {
        let n = graph.node_count();
        let mut dist = vec![Self::NONE; n];
        let mut prev = vec![Self::NONE; n];
        dist[source.index()] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()];
            for &v in graph.neighbors(u) {
                if dist[v.index()] == Self::NONE {
                    dist[v.index()] = du + 1;
                    prev[v.index()] = u.0;
                    queue.push_back(v);
                }
            }
        }
        OracleRow { dist, prev }
    }
}

/// Memoized shortest-path oracle over a frozen graph.
///
/// Replaces per-pair BFS memoization (`BTreeMap<NodePair, usize>` hop caches,
/// per-request `bfs_path` calls) with per-**source** BFS rows: one full BFS
/// answers hop and path queries to *every* target from that source. For
/// graphs up to [`PathOracle::ALL_PAIRS_THRESHOLD`] nodes all rows are
/// computed eagerly at construction (all-pairs BFS, `O(N·(N + E))` — cheap at
/// paper scale); above it rows fill lazily on first query from each source,
/// so internet-scale graphs pay only for the sources a workload actually
/// touches.
///
/// Queries take the graph by reference so the oracle can live alongside the
/// graph in one owning struct. Answers are memoized behind a `RefCell`, so
/// `&self` queries suffice; the type is deliberately not `Sync` (per-run
/// worlds are single-threaded; shard parallelism is process-level).
#[derive(Debug, Clone)]
pub struct PathOracle {
    rows: RefCell<Vec<Option<Box<OracleRow>>>>,
}

impl PathOracle {
    /// Node count up to which construction precomputes every BFS row.
    pub const ALL_PAIRS_THRESHOLD: usize = 128;

    /// Build an oracle for `graph`, precomputing all-pairs rows when the
    /// graph has at most [`Self::ALL_PAIRS_THRESHOLD`] nodes.
    pub fn new(graph: &Graph) -> Self {
        Self::with_threshold(graph, Self::ALL_PAIRS_THRESHOLD)
    }

    /// Build an oracle precomputing all rows iff `node_count <= threshold`
    /// (exposed so tests and benches can force either regime).
    pub fn with_threshold(graph: &Graph, threshold: usize) -> Self {
        let n = graph.node_count();
        let rows = if n <= threshold {
            graph
                .nodes()
                .map(|s| Some(Box::new(OracleRow::bfs(graph, s))))
                .collect()
        } else {
            vec![None; n]
        };
        PathOracle {
            rows: RefCell::new(rows),
        }
    }

    /// Number of BFS rows currently materialized (all of them in the eager
    /// regime; the touched sources in the lazy one).
    pub fn memoized_rows(&self) -> usize {
        self.rows.borrow().iter().filter(|r| r.is_some()).count()
    }

    /// Run `f` against `source`'s BFS row, computing it on first use.
    fn with_row<R>(&self, graph: &Graph, source: NodeId, f: impl FnOnce(&OracleRow) -> R) -> R {
        let mut rows = self.rows.borrow_mut();
        let slot = &mut rows[source.index()];
        if slot.is_none() {
            *slot = Some(Box::new(OracleRow::bfs(graph, source)));
        }
        f(slot.as_deref().expect("row just filled"))
    }

    /// Hop count of the shortest path `source → target`, `None` when
    /// unreachable or either id is out of range. Matches
    /// `bfs_path(graph, source, target).map(|p| p.hops())` exactly.
    pub fn hops(&self, graph: &Graph, source: NodeId, target: NodeId) -> Option<usize> {
        let n = graph.node_count();
        if source.index() >= n || target.index() >= n {
            return None;
        }
        self.with_row(graph, source, |row| match row.dist[target.index()] {
            OracleRow::NONE => None,
            d => Some(d as usize),
        })
    }

    /// The shortest path `source → target`, `None` when unreachable or out
    /// of range. Node-for-node identical to [`bfs_path`] (same ascending-id
    /// tie-breaking).
    pub fn path(&self, graph: &Graph, source: NodeId, target: NodeId) -> Option<PathResult> {
        let n = graph.node_count();
        if source.index() >= n || target.index() >= n {
            return None;
        }
        if source == target {
            return Some(PathResult {
                nodes: vec![source],
                cost: 0.0,
            });
        }
        self.with_row(graph, source, |row| {
            if row.dist[target.index()] == OracleRow::NONE {
                return None;
            }
            let mut nodes = vec![target];
            let mut cur = target;
            while cur != source {
                cur = NodeId(row.prev[cur.index()]);
                nodes.push(cur);
            }
            nodes.reverse();
            let cost = (nodes.len() - 1) as f64;
            Some(PathResult { nodes, cost })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{cycle, path, planar_grid, torus_grid};

    #[test]
    fn bfs_distances_on_path() {
        let g = path(5);
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bfs_distances_unreachable() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        let d = bfs_distances(&g, NodeId(0));
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
    }

    #[test]
    fn bfs_path_on_cycle_takes_short_way_round() {
        let g = cycle(10);
        let p = bfs_path(&g, NodeId(0), NodeId(3)).unwrap();
        assert_eq!(p.hops(), 3);
        assert_eq!(p.nodes, vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        let q = bfs_path(&g, NodeId(0), NodeId(7)).unwrap();
        assert_eq!(q.hops(), 3, "wraps around the other way");
        assert_eq!(q.nodes, vec![NodeId(0), NodeId(9), NodeId(8), NodeId(7)]);
    }

    #[test]
    fn bfs_path_same_node_is_trivial() {
        let g = cycle(4);
        let p = bfs_path(&g, NodeId(2), NodeId(2)).unwrap();
        assert_eq!(p.hops(), 0);
        assert_eq!(p.cost, 0.0);
    }

    #[test]
    fn bfs_path_none_when_disconnected_or_out_of_range() {
        let mut g = Graph::with_nodes(4);
        g.add_edge(NodeId(0), NodeId(1));
        assert!(bfs_path(&g, NodeId(0), NodeId(3)).is_none());
        assert!(bfs_path(&g, NodeId(0), NodeId(9)).is_none());
    }

    #[test]
    fn bfs_on_torus_uses_wraparound() {
        let g = torus_grid(5);
        // (0,0) to (0,4) is one hop across the wrap, not four.
        let p = bfs_path(&g, NodeId(0), NodeId(4)).unwrap();
        assert_eq!(p.hops(), 1);
        // Opposite corner (2,2) is 2+2 = 4 hops.
        let q = bfs_path(&g, NodeId(0), NodeId(12)).unwrap();
        assert_eq!(q.hops(), 4);
    }

    #[test]
    fn planar_grid_has_no_wraparound_shortcut() {
        let g = planar_grid(5);
        let p = bfs_path(&g, NodeId(0), NodeId(4)).unwrap();
        assert_eq!(p.hops(), 4);
    }

    #[test]
    fn all_pairs_is_symmetric() {
        let g = torus_grid(4);
        let d = all_pairs_distances(&g);
        for (i, row) in d.iter().enumerate() {
            for (j, &cell) in row.iter().enumerate() {
                assert_eq!(cell, d[j][i]);
            }
            assert_eq!(row[i], Some(0));
        }
    }

    #[test]
    fn path_result_endpoints_are_correct() {
        let g = planar_grid(4);
        for s in 0..16u32 {
            for t in 0..16u32 {
                let p = bfs_path(&g, NodeId(s), NodeId(t)).unwrap();
                assert_eq!(p.nodes[0], NodeId(s));
                assert_eq!(*p.nodes.last().unwrap(), NodeId(t));
                // Consecutive nodes must be adjacent.
                for w in p.nodes.windows(2) {
                    assert!(g.has_edge(w[0], w[1]));
                }
            }
        }
    }

    /// Oracle answers must be indistinguishable from fresh BFS on every
    /// pair, in both the eager (all-pairs) and lazy regimes.
    fn assert_oracle_matches_bfs(g: &Graph) {
        for oracle in [
            PathOracle::with_threshold(g, usize::MAX),
            PathOracle::with_threshold(g, 0),
        ] {
            for s in g.nodes() {
                for t in g.nodes() {
                    let fresh = bfs_path(g, s, t);
                    assert_eq!(
                        oracle.hops(g, s, t),
                        fresh.as_ref().map(|p| p.hops()),
                        "hops {s}->{t}"
                    );
                    assert_eq!(oracle.path(g, s, t), fresh, "path {s}->{t}");
                }
            }
        }
    }

    #[test]
    fn oracle_matches_bfs_on_cycle_torus_and_scale_free() {
        assert_oracle_matches_bfs(&cycle(11));
        assert_oracle_matches_bfs(&torus_grid(4));
        assert_oracle_matches_bfs(&crate::builders::scale_free(40, 2, 13));
    }

    #[test]
    fn oracle_matches_bfs_on_disconnected_graph() {
        let mut g = Graph::with_nodes(5);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(2), NodeId(3));
        assert_oracle_matches_bfs(&g);
        let oracle = PathOracle::new(&g);
        assert_eq!(oracle.hops(&g, NodeId(0), NodeId(3)), None);
        assert_eq!(oracle.path(&g, NodeId(0), NodeId(3)), None);
        // Out-of-range ids answer None rather than panicking, like bfs_path.
        assert_eq!(oracle.hops(&g, NodeId(0), NodeId(9)), None);
        assert_eq!(oracle.path(&g, NodeId(9), NodeId(0)), None);
    }

    #[test]
    fn oracle_rows_fill_lazily_above_threshold() {
        let g = cycle(10);
        let eager = PathOracle::with_threshold(&g, 10);
        assert_eq!(eager.memoized_rows(), 10);
        let lazy = PathOracle::with_threshold(&g, 9);
        assert_eq!(lazy.memoized_rows(), 0);
        assert_eq!(lazy.hops(&g, NodeId(3), NodeId(7)), Some(4));
        assert_eq!(lazy.memoized_rows(), 1, "one row per queried source");
        // A second query from the same source reuses the row.
        assert_eq!(lazy.hops(&g, NodeId(3), NodeId(4)), Some(1));
        assert_eq!(lazy.memoized_rows(), 1);
    }
}
