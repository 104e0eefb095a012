//! Topology builders.
//!
//! The paper's evaluation (§5) uses two generation-graph topologies:
//!
//! * a **cycle graph** over `|N|` nodes numbered `0 .. |N|-1` with
//!   `g(x, y) > 0 ⇔ y = x ± 1 (mod |N|)`, and
//! * an embedding on a **wraparound `√N × √N` grid** where generation edges
//!   are drawn uniformly at random from the torus edges *until the generation
//!   graph connects all nodes*.
//!
//! Both are provided here, along with the full torus, and a handful of other
//! standard topologies used by the workspace's ablation experiments.

use crate::connectivity::UnionFind;
use crate::graph::{Graph, NodeId};
use qnet_sim::SimRng;
use serde::{Deserialize, Serialize};

// The random builders draw from the simulator's seeded RNG: qnet-sim sits
// below qnet-topology in the layering (it depends only on serde and rand),
// so every random graph and every simulation share one stream definition.

/// A named topology recipe. `build` turns a recipe plus a seed into a
/// concrete [`Graph`]; deterministic recipes ignore the seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Topology {
    /// Cycle over `nodes` nodes: `i — i+1 (mod nodes)`.
    Cycle {
        /// Number of nodes.
        nodes: usize,
    },
    /// Simple path `0 — 1 — … — nodes-1`.
    Path {
        /// Number of nodes.
        nodes: usize,
    },
    /// Star: node 0 joined to every other node.
    Star {
        /// Number of nodes.
        nodes: usize,
    },
    /// Complete graph on `nodes` nodes.
    Complete {
        /// Number of nodes.
        nodes: usize,
    },
    /// Full wraparound (torus) grid of `side × side` nodes.
    TorusGrid {
        /// Side length; the node count is `side * side`.
        side: usize,
    },
    /// Non-wrapping (planar) grid of `side × side` nodes.
    PlanarGrid {
        /// Side length; the node count is `side * side`.
        side: usize,
    },
    /// The paper's grid construction: torus edges added uniformly at random
    /// until the graph is connected.
    RandomConnectedGrid {
        /// Side length; the node count is `side * side`.
        side: usize,
    },
    /// Erdős–Rényi `G(n, p)`, re-sampled with extra random edges until
    /// connected (so the result is always usable as a generation graph).
    ErdosRenyiConnected {
        /// Number of nodes.
        nodes: usize,
        /// Independent edge probability in `[0, 1]`.
        edge_probability: f64,
    },
    /// A uniformly random spanning tree (random connected graph with the
    /// minimum number of edges).
    RandomTree {
        /// Number of nodes.
        nodes: usize,
    },
    /// Watts–Strogatz small world: a ring lattice where each node connects
    /// to its `neighbors` nearest ring neighbours, with every lattice edge
    /// rewired to a uniformly random endpoint with probability
    /// `rewire_probability`, then patched back to connectivity. `p = 0`
    /// gives the regular lattice, `p = 1` approaches a random graph;
    /// intermediate values give the short-path/high-clustering regime
    /// quantum-internet backbones are often modelled with.
    WattsStrogatz {
        /// Number of nodes.
        nodes: usize,
        /// Ring-lattice degree: even, in `2..nodes`.
        neighbors: usize,
        /// Per-edge rewiring probability in `[0, 1]`.
        rewire_probability: f64,
    },
    /// Barabási–Albert preferential attachment: growth from a small seed
    /// clique with each new node attaching to `attach` distinct existing
    /// nodes chosen proportionally to degree. Produces the heavy-tailed
    /// degree distribution of internet-scale backbones — the regime where
    /// the paper argues path-oblivious swapping should shine.
    ScaleFree {
        /// Number of nodes.
        nodes: usize,
        /// Edges added per arriving node, in `1..nodes`.
        attach: usize,
    },
    /// The stylized NYC deployed-fiber template (Craddock et al.): a fixed
    /// 12-node metro graph whose heterogeneous link lengths live in
    /// [`crate::fabric::nyc_fiber_links`] and drive per-edge
    /// [`crate::fabric::LinkProfile`]s when a fabric is attached.
    DeployedFiber,
}

/// Every topology family [`Topology::parse`] accepts, with the fewest and
/// the most `:`-separated parameters it takes.
const TOPOLOGY_FAMILIES: [(&str, usize, usize); 12] = [
    ("cycle", 1, 1),
    ("path", 1, 1),
    ("star", 1, 1),
    ("complete", 1, 1),
    ("torus", 1, 1),
    ("grid", 1, 1),
    ("rand-grid", 1, 1),
    ("er", 2, 2),
    ("ws", 3, 3),
    ("tree", 1, 1),
    ("scale-free", 1, 2),
    ("nyc-fiber", 0, 0),
];

impl Topology {
    /// Human-readable label used in experiment reports.
    pub fn label(&self) -> String {
        match self {
            Topology::Cycle { nodes } => format!("cycle-{nodes}"),
            Topology::Path { nodes } => format!("path-{nodes}"),
            Topology::Star { nodes } => format!("star-{nodes}"),
            Topology::Complete { nodes } => format!("complete-{nodes}"),
            Topology::TorusGrid { side } => format!("torus-{side}x{side}"),
            Topology::PlanarGrid { side } => format!("grid-{side}x{side}"),
            Topology::RandomConnectedGrid { side } => format!("rand-grid-{side}x{side}"),
            Topology::ErdosRenyiConnected {
                nodes,
                edge_probability,
            } => format!("er-{nodes}-p{edge_probability}"),
            Topology::RandomTree { nodes } => format!("tree-{nodes}"),
            Topology::WattsStrogatz {
                nodes,
                neighbors,
                rewire_probability,
            } => format!("ws-{nodes}-k{neighbors}-p{rewire_probability}"),
            Topology::ScaleFree { nodes, attach } => format!("scale-free-{nodes}-m{attach}"),
            Topology::DeployedFiber => "nyc-fiber".to_string(),
        }
    }

    /// Number of nodes the built graph will have.
    pub fn node_count(&self) -> usize {
        match *self {
            Topology::Cycle { nodes }
            | Topology::Path { nodes }
            | Topology::Star { nodes }
            | Topology::Complete { nodes }
            | Topology::ErdosRenyiConnected { nodes, .. }
            | Topology::RandomTree { nodes }
            | Topology::WattsStrogatz { nodes, .. }
            | Topology::ScaleFree { nodes, .. } => nodes,
            Topology::TorusGrid { side }
            | Topology::PlanarGrid { side }
            | Topology::RandomConnectedGrid { side } => side.saturating_mul(side),
            Topology::DeployedFiber => crate::fabric::nyc_fiber_node_count(),
        }
    }

    /// Parse the campaign/CLI topology grammar: a family name followed by
    /// its `:`-separated parameters, e.g. `cycle:9`, `ws:9:4:0.2`,
    /// `scale-free:1000[:M]` or `nyc-fiber`; a spec with too few or too
    /// many parameters for its family is an error. The value rules are
    /// [`Topology::check`]'s.
    pub fn parse(spec: &str) -> Result<Topology, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let Some(&(family, least, most)) = TOPOLOGY_FAMILIES.iter().find(|f| f.0 == parts[0])
        else {
            let families: Vec<&str> = TOPOLOGY_FAMILIES.iter().map(|f| f.0).collect();
            return Err(format!(
                "unknown topology family '{}' (valid: {}; see --list-topologies)",
                parts[0],
                families.join(", ")
            ));
        };
        if !(least..=most).contains(&(parts.len() - 1)) {
            let count = if least == most {
                least.to_string()
            } else {
                format!("{least}–{most}")
            };
            let plural = if most == 1 { "" } else { "s" };
            return Err(format!("{spec}: {family} takes {count} parameter{plural}"));
        }
        let n = |i: usize| -> Result<usize, String> {
            parts[i]
                .parse()
                .map_err(|_| format!("{spec}: bad integer parameter"))
        };
        let f = |i: usize| -> Result<f64, String> {
            parts[i]
                .parse()
                .map_err(|_| format!("{spec}: bad float parameter"))
        };
        let topology = match family {
            "cycle" => Topology::Cycle { nodes: n(1)? },
            "path" => Topology::Path { nodes: n(1)? },
            "star" => Topology::Star { nodes: n(1)? },
            "complete" => Topology::Complete { nodes: n(1)? },
            "torus" => Topology::TorusGrid { side: n(1)? },
            "grid" => Topology::PlanarGrid { side: n(1)? },
            "rand-grid" => Topology::RandomConnectedGrid { side: n(1)? },
            "er" => Topology::ErdosRenyiConnected {
                nodes: n(1)?,
                edge_probability: f(2)?,
            },
            "ws" => Topology::WattsStrogatz {
                nodes: n(1)?,
                neighbors: n(2)?,
                rewire_probability: f(3)?,
            },
            "tree" => Topology::RandomTree { nodes: n(1)? },
            "scale-free" => Topology::ScaleFree {
                nodes: n(1)?,
                // Preferential attachment defaults to 2 edges per newcomer
                // (the classic internet-like Barabási–Albert setting).
                attach: if parts.len() > 2 { n(2)? } else { 2 },
            },
            "nyc-fiber" => Topology::DeployedFiber,
            _ => unreachable!("every family in TOPOLOGY_FAMILIES has an arm"),
        };
        topology.check()?;
        Ok(topology)
    }

    /// The parameter rules every runnable recipe satisfies: at least two
    /// nodes (consumer pairs need two endpoints), probabilities in
    /// `[0, 1]`, an even Watts–Strogatz degree `K` in `2..N` and a
    /// scale-free attachment `M` in `1..N`. The builders would otherwise
    /// clamp or round such values, silently building a graph other than
    /// the one the label names. NaN fails every rule.
    pub fn check(&self) -> Result<(), String> {
        let nodes = self.node_count();
        let rule = match *self {
            _ if nodes < 2 => "has fewer than 2 nodes; consumer pairs need at least 2".to_string(),
            Topology::ErdosRenyiConnected {
                edge_probability: p,
                ..
            }
            | Topology::WattsStrogatz {
                rewire_probability: p,
                ..
            } if !(0.0..=1.0).contains(&p) => format!("needs a probability P in [0, 1] (got {p})"),
            Topology::WattsStrogatz { neighbors: k, .. }
                if k % 2 != 0 || !(2..nodes).contains(&k) =>
            {
                format!("needs an even ring degree K in 2..={} (got {k})", nodes - 1)
            }
            Topology::ScaleFree { attach: m, .. } if !(1..nodes).contains(&m) => {
                format!("needs an attachment M in 1..={} (got {m})", nodes - 1)
            }
            _ => return Ok(()),
        };
        Err(format!("topology {} {rule}", self.label()))
    }

    /// True if the recipe uses randomness (i.e. the seed matters).
    pub fn is_random(&self) -> bool {
        matches!(
            self,
            Topology::RandomConnectedGrid { .. }
                | Topology::ErdosRenyiConnected { .. }
                | Topology::RandomTree { .. }
                | Topology::WattsStrogatz { .. }
                | Topology::ScaleFree { .. }
        )
    }

    /// Build the graph with the given seed.
    pub fn build(&self, seed: u64) -> Graph {
        match *self {
            Topology::Cycle { nodes } => cycle(nodes),
            Topology::Path { nodes } => path(nodes),
            Topology::Star { nodes } => star(nodes),
            Topology::Complete { nodes } => complete(nodes),
            Topology::TorusGrid { side } => torus_grid(side),
            Topology::PlanarGrid { side } => planar_grid(side),
            Topology::RandomConnectedGrid { side } => random_connected_grid(side, seed),
            Topology::ErdosRenyiConnected {
                nodes,
                edge_probability,
            } => erdos_renyi_connected(nodes, edge_probability, seed),
            Topology::RandomTree { nodes } => random_tree(nodes, seed),
            Topology::WattsStrogatz {
                nodes,
                neighbors,
                rewire_probability,
            } => watts_strogatz(nodes, neighbors, rewire_probability, seed),
            Topology::ScaleFree { nodes, attach } => scale_free(nodes, attach, seed),
            Topology::DeployedFiber => deployed_fiber(),
        }
    }

    /// Build a deterministic recipe (seed 0 is used for the random ones).
    pub fn build_deterministic(&self) -> Graph {
        self.build(0)
    }
}

/// Cycle graph on `n` nodes (`n ≥ 3` gives a true cycle; `n = 2` degenerates
/// to a single edge, `n ≤ 1` has no edges).
pub fn cycle(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    if n < 2 {
        return g;
    }
    for i in 0..n {
        let j = (i + 1) % n;
        if i != j {
            g.add_edge(NodeId::from(i), NodeId::from(j));
        }
    }
    g
}

/// Path graph on `n` nodes.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId::from(i - 1), NodeId::from(i));
    }
    g
}

/// Star graph: node 0 is the hub.
pub fn star(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId::from(0usize), NodeId::from(i));
    }
    g
}

/// Complete graph on `n` nodes.
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(NodeId::from(i), NodeId::from(j));
        }
    }
    g
}

/// Node id of grid coordinate `(row, col)` on a `side × side` grid.
pub fn grid_node(side: usize, row: usize, col: usize) -> NodeId {
    NodeId::from(row * side + col)
}

/// Grid coordinate of a node id on a `side × side` grid.
pub fn grid_coords(side: usize, node: NodeId) -> (usize, usize) {
    (node.index() / side, node.index() % side)
}

/// All edges of the wraparound (torus) `side × side` grid, each listed once.
pub fn torus_edges(side: usize) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::new();
    if side == 0 {
        return edges;
    }
    for r in 0..side {
        for c in 0..side {
            let here = grid_node(side, r, c);
            let right = grid_node(side, r, (c + 1) % side);
            let down = grid_node(side, (r + 1) % side, c);
            if here != right {
                edges.push(order(here, right));
            }
            if here != down {
                edges.push(order(here, down));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

fn order(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Full wraparound grid (torus) of `side × side` nodes.
pub fn torus_grid(side: usize) -> Graph {
    let mut g = Graph::with_nodes(side * side);
    for (a, b) in torus_edges(side) {
        g.add_edge(a, b);
    }
    g
}

/// Non-wrapping planar grid of `side × side` nodes.
pub fn planar_grid(side: usize) -> Graph {
    let mut g = Graph::with_nodes(side * side);
    for r in 0..side {
        for c in 0..side {
            if c + 1 < side {
                g.add_edge(grid_node(side, r, c), grid_node(side, r, c + 1));
            }
            if r + 1 < side {
                g.add_edge(grid_node(side, r, c), grid_node(side, r + 1, c));
            }
        }
    }
    g
}

/// The paper's grid construction (§5): starting from the empty graph on the
/// `side × side` torus, add torus edges uniformly at random (without
/// replacement) until the graph is connected.
pub fn random_connected_grid(side: usize, seed: u64) -> Graph {
    let mut g = Graph::with_nodes(side * side);
    if side * side <= 1 {
        return g;
    }
    let mut rng = SimRng::new(seed);
    let mut edges = torus_edges(side);
    rng.shuffle(&mut edges);
    let mut uf = UnionFind::new(side * side);
    for (a, b) in edges {
        g.add_edge(a, b);
        uf.union(a, b);
        if uf.component_count() == 1 {
            break;
        }
    }
    g
}

/// Erdős–Rényi `G(n, p)`, then patched to connectivity by joining random
/// representatives of distinct components until one component remains.
pub fn erdos_renyi_connected(n: usize, p: f64, seed: u64) -> Graph {
    let mut g = Graph::with_nodes(n);
    if n <= 1 {
        return g;
    }
    let mut rng = SimRng::new(seed);
    let p = p.clamp(0.0, 1.0);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.chance(p) {
                g.add_edge(NodeId::from(i), NodeId::from(j));
            }
        }
    }
    // Patch to connectivity.
    let mut uf = UnionFind::new(n);
    for (a, b) in g.edges().collect::<Vec<_>>() {
        uf.union(a, b);
    }
    while uf.component_count() > 1 {
        let a = NodeId::from(rng.index(n));
        let b = NodeId::from(rng.index(n));
        if a != b && !uf.connected(a, b) {
            g.add_edge(a, b);
            uf.union(a, b);
        }
    }
    g
}

/// Watts–Strogatz small-world graph over `n` nodes: a ring lattice of
/// degree `k` (each node joined to its `k/2` nearest neighbours on each
/// side), with each lattice edge independently rewired with probability `p`
/// to a uniformly random non-adjacent endpoint, then patched back to
/// connectivity by joining random representatives of distinct components
/// (the same patching used by [`erdos_renyi_connected`], so the result is
/// always usable as a generation graph).
pub fn watts_strogatz(n: usize, k: usize, p: f64, seed: u64) -> Graph {
    let mut g = Graph::with_nodes(n);
    if n <= 1 {
        return g;
    }
    let half = (k.max(2) / 2).min(n.saturating_sub(1) / 2).max(1);
    let p = p.clamp(0.0, 1.0);
    let mut rng = SimRng::new(seed);

    // Ring lattice: i — i+j (mod n) for j = 1..=half.
    for i in 0..n {
        for j in 1..=half {
            let t = (i + j) % n;
            if i != t {
                g.add_edge(NodeId::from(i), NodeId::from(t));
            }
        }
    }

    // Rewire pass in deterministic lattice order.
    for i in 0..n {
        for j in 1..=half {
            let old = (i + j) % n;
            if i == old || !rng.chance(p) {
                continue;
            }
            // Draw a replacement endpoint that is neither `i` nor already a
            // neighbour; bail after a few attempts on dense graphs.
            for _ in 0..8 {
                let t = NodeId::from(rng.index(n));
                let a = NodeId::from(i);
                if t != a && !g.has_edge(a, t) {
                    g.remove_edge(a, NodeId::from(old));
                    g.add_edge(a, t);
                    break;
                }
            }
        }
    }

    // Patch to connectivity (rewiring can strand components).
    let mut uf = UnionFind::new(n);
    for (a, b) in g.edges().collect::<Vec<_>>() {
        uf.union(a, b);
    }
    while uf.component_count() > 1 {
        let a = NodeId::from(rng.index(n));
        let b = NodeId::from(rng.index(n));
        if a != b && !uf.connected(a, b) {
            g.add_edge(a, b);
            uf.union(a, b);
        }
    }
    g
}

/// Barabási–Albert scale-free graph over `n` nodes: start from a complete
/// seed of `m + 1` nodes, then attach each arriving node to `m` distinct
/// existing nodes chosen proportionally to their current degree
/// (implemented with the classic repeated-endpoint urn). Always connected
/// by construction; the degree distribution is heavy-tailed, so a few hub
/// repeaters see most of the traffic — the irregular, internet-like regime
/// the paper targets.
pub fn scale_free(n: usize, m: usize, seed: u64) -> Graph {
    let mut g = Graph::with_nodes(n);
    if n <= 1 {
        return g;
    }
    let m = m.clamp(1, n - 1);
    let mut rng = SimRng::new(seed);
    // Urn of edge endpoints: each node appears once per unit of degree, so
    // sampling a uniform urn slot is degree-proportional sampling.
    let mut urn: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    let core = (m + 1).min(n);
    for i in 0..core {
        for j in (i + 1)..core {
            g.add_edge(NodeId::from(i), NodeId::from(j));
            urn.push(NodeId::from(i));
            urn.push(NodeId::from(j));
        }
    }
    for i in core..n {
        let newcomer = NodeId::from(i);
        let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
        while chosen.len() < m {
            let target = urn[rng.index(urn.len())];
            if target != newcomer && !chosen.contains(&target) {
                chosen.push(target);
            }
        }
        for target in chosen {
            g.add_edge(newcomer, target);
            urn.push(newcomer);
            urn.push(target);
        }
    }
    g
}

/// The stylized NYC deployed-fiber template: a fixed 12-node metro graph
/// built from [`crate::fabric::nyc_fiber_links`]. Deterministic (no seed);
/// the heterogeneous link lengths become per-edge profiles when a
/// [`crate::fabric::FabricSpec`] is realized over it.
pub fn deployed_fiber() -> Graph {
    let links = crate::fabric::nyc_fiber_links();
    let mut g = Graph::with_nodes(crate::fabric::nyc_fiber_node_count());
    for &(a, b, _km) in links {
        g.add_edge(NodeId::from(a), NodeId::from(b));
    }
    g
}

/// A random spanning tree over `n` nodes: each node `i ≥ 1` attaches to a
/// uniformly random earlier node (a random recursive tree).
pub fn random_tree(n: usize, seed: u64) -> Graph {
    let mut g = Graph::with_nodes(n);
    let mut rng = SimRng::new(seed);
    for i in 1..n {
        let parent = rng.index(i);
        g.add_edge(NodeId::from(parent), NodeId::from(i));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::is_connected;

    #[test]
    fn parse_holds_each_family_to_its_arity() {
        // Too few or too many parameters is an arity error; any other
        // outcome is left to the value rules.
        for (family, least, most) in TOPOLOGY_FAMILIES {
            for count in 0..=most + 2 {
                let spec: Vec<&str> = std::iter::once(family)
                    .chain(["9", "4", "0.2", "1", "2"].into_iter().take(count))
                    .collect();
                let spec = spec.join(":");
                let arity_error = Topology::parse(&spec)
                    .err()
                    .is_some_and(|e| e.starts_with(&format!("{spec}: {family} takes ")));
                assert_eq!(arity_error, !(least..=most).contains(&count), "{spec}");
            }
        }
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(25);
        assert_eq!(g.node_count(), 25);
        assert_eq!(g.edge_count(), 25);
        assert!(g.nodes().all(|v| g.degree(v) == 2));
        assert!(g.has_edge(NodeId(0), NodeId(24)), "wraparound edge present");
        assert!(is_connected(&g));
    }

    #[test]
    fn tiny_cycles() {
        assert_eq!(cycle(0).edge_count(), 0);
        assert_eq!(cycle(1).edge_count(), 0);
        let two = cycle(2);
        assert_eq!(two.edge_count(), 1);
    }

    #[test]
    fn path_star_complete_shapes() {
        let p = path(6);
        assert_eq!(p.edge_count(), 5);
        assert_eq!(p.degree(NodeId(0)), 1);
        assert_eq!(p.degree(NodeId(3)), 2);

        let s = star(6);
        assert_eq!(s.edge_count(), 5);
        assert_eq!(s.degree(NodeId(0)), 5);
        assert!(s.nodes().skip(1).all(|v| s.degree(v) == 1));

        let k = complete(6);
        assert_eq!(k.edge_count(), 15);
        assert!(k.nodes().all(|v| k.degree(v) == 5));
    }

    #[test]
    fn torus_grid_shape() {
        // 5x5 wraparound grid: every node has degree 4, 2*N edges.
        let g = torus_grid(5);
        assert_eq!(g.node_count(), 25);
        assert_eq!(g.edge_count(), 50);
        assert!(g.nodes().all(|v| g.degree(v) == 4));
        assert!(is_connected(&g));
        // Wraparound edges exist.
        assert!(g.has_edge(grid_node(5, 0, 0), grid_node(5, 0, 4)));
        assert!(g.has_edge(grid_node(5, 0, 0), grid_node(5, 4, 0)));
    }

    #[test]
    fn torus_grid_small_sides() {
        // side=2 torus collapses parallel edges; still connected.
        let g = torus_grid(2);
        assert_eq!(g.node_count(), 4);
        assert!(is_connected(&g));
        assert_eq!(torus_grid(1).edge_count(), 0);
        assert_eq!(torus_grid(0).node_count(), 0);
    }

    #[test]
    fn planar_grid_shape() {
        let g = planar_grid(4);
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.edge_count(), 24);
        assert!(is_connected(&g));
        assert_eq!(g.degree(grid_node(4, 0, 0)), 2);
        assert_eq!(g.degree(grid_node(4, 1, 1)), 4);
        assert!(!g.has_edge(grid_node(4, 0, 0), grid_node(4, 0, 3)));
    }

    #[test]
    fn grid_coordinate_round_trip() {
        for r in 0..5 {
            for c in 0..5 {
                assert_eq!(grid_coords(5, grid_node(5, r, c)), (r, c));
            }
        }
    }

    #[test]
    fn random_connected_grid_is_connected_subgraph_of_torus() {
        for seed in 0..10 {
            let g = random_connected_grid(5, seed);
            assert!(is_connected(&g), "seed {seed}");
            let torus = torus_grid(5);
            for (a, b) in g.edges() {
                assert!(torus.has_edge(a, b), "non-torus edge {a}-{b}");
            }
            // Connectivity needs at least a spanning tree.
            assert!(g.edge_count() >= 24);
            assert!(g.edge_count() <= 50);
        }
    }

    #[test]
    fn random_connected_grid_is_deterministic_per_seed() {
        let a = random_connected_grid(6, 42);
        let b = random_connected_grid(6, 42);
        let c = random_connected_grid(6, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn erdos_renyi_connected_always_connected() {
        for seed in 0..5 {
            let g = erdos_renyi_connected(30, 0.05, seed);
            assert_eq!(g.node_count(), 30);
            assert!(is_connected(&g), "seed {seed}");
        }
        // Even p = 0 must come out connected via patching.
        let g = erdos_renyi_connected(10, 0.0, 7);
        assert!(is_connected(&g));
        assert!(g.edge_count() >= 9);
    }

    #[test]
    fn random_tree_is_tree() {
        for seed in 0..5 {
            let g = random_tree(40, seed);
            assert_eq!(g.edge_count(), 39);
            assert!(is_connected(&g));
        }
        assert_eq!(random_tree(1, 0).edge_count(), 0);
        assert_eq!(random_tree(0, 0).node_count(), 0);
    }

    #[test]
    fn watts_strogatz_shapes() {
        // p = 0: the pure ring lattice of degree 4.
        let lattice = watts_strogatz(12, 4, 0.0, 1);
        assert_eq!(lattice.node_count(), 12);
        assert_eq!(lattice.edge_count(), 24);
        assert!(lattice.nodes().all(|v| lattice.degree(v) == 4));
        assert!(is_connected(&lattice));

        // Intermediate p: still connected, same node count, edge count close
        // to the lattice (rewiring moves edges; patching may add a few).
        for seed in 0..10 {
            let g = watts_strogatz(20, 4, 0.3, seed);
            assert_eq!(g.node_count(), 20);
            assert!(is_connected(&g), "seed {seed}");
            assert!(g.edge_count() >= 19, "at least spanning, seed {seed}");
            // No self-loops.
            for (a, b) in g.edges() {
                assert_ne!(a, b);
            }
        }

        // p = 1: heavy rewiring still yields a connected graph.
        let scrambled = watts_strogatz(16, 4, 1.0, 3);
        assert!(is_connected(&scrambled));

        // Determinism per seed.
        assert_eq!(watts_strogatz(15, 4, 0.5, 9), watts_strogatz(15, 4, 0.5, 9));
    }

    #[test]
    fn watts_strogatz_tiny_and_degenerate() {
        assert_eq!(watts_strogatz(0, 4, 0.5, 1).node_count(), 0);
        assert_eq!(watts_strogatz(1, 4, 0.5, 1).edge_count(), 0);
        let two = watts_strogatz(2, 4, 0.5, 1);
        assert!(is_connected(&two));
        // k larger than n is clamped.
        let clamped = watts_strogatz(5, 10, 0.0, 1);
        assert!(is_connected(&clamped));
    }

    #[test]
    fn scale_free_shape() {
        // n=50, m=2: seed clique K3 (3 edges) + 47 arrivals × 2 edges.
        let g = scale_free(50, 2, 11);
        assert_eq!(g.node_count(), 50);
        assert_eq!(g.edge_count(), 3 + 47 * 2);
        assert!(is_connected(&g));
        for (a, b) in g.edges() {
            assert_ne!(a, b);
        }
        // Preferential attachment concentrates degree: some hub clearly
        // exceeds the attachment parameter.
        let max_degree = g.nodes().map(|v| g.degree(v)).max().unwrap();
        assert!(max_degree >= 6, "hub degree {max_degree}");

        // Determinism per seed.
        assert_eq!(scale_free(50, 2, 11), scale_free(50, 2, 11));
        assert_ne!(scale_free(50, 2, 11), scale_free(50, 2, 12));

        // Degenerate sizes.
        assert_eq!(scale_free(0, 2, 1).node_count(), 0);
        assert_eq!(scale_free(1, 2, 1).edge_count(), 0);
        assert!(is_connected(&scale_free(2, 5, 1)));
    }

    #[test]
    fn deployed_fiber_shape() {
        let g = deployed_fiber();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 16);
        assert!(is_connected(&g));
        // Deterministic: the seed is ignored.
        assert_eq!(
            Topology::DeployedFiber.build(1),
            Topology::DeployedFiber.build(99)
        );
        assert!(!Topology::DeployedFiber.is_random());
    }

    #[test]
    fn topology_enum_roundtrip() {
        let topos = [
            Topology::Cycle { nodes: 25 },
            Topology::Path { nodes: 10 },
            Topology::Star { nodes: 10 },
            Topology::Complete { nodes: 8 },
            Topology::TorusGrid { side: 5 },
            Topology::PlanarGrid { side: 5 },
            Topology::RandomConnectedGrid { side: 5 },
            Topology::ErdosRenyiConnected {
                nodes: 20,
                edge_probability: 0.2,
            },
            Topology::RandomTree { nodes: 20 },
            Topology::WattsStrogatz {
                nodes: 20,
                neighbors: 4,
                rewire_probability: 0.25,
            },
            Topology::ScaleFree {
                nodes: 30,
                attach: 2,
            },
            Topology::DeployedFiber,
        ];
        for t in topos {
            let g = t.build(123);
            assert_eq!(g.node_count(), t.node_count(), "{}", t.label());
            assert!(is_connected(&g), "{}", t.label());
            assert!(!t.label().is_empty());
            assert_eq!(t.check(), Ok(()), "{}", t.label());
        }
        assert!(Topology::ScaleFree {
            nodes: 30,
            attach: 2
        }
        .is_random());
        assert!(Topology::RandomTree { nodes: 3 }.is_random());
        assert!(Topology::WattsStrogatz {
            nodes: 8,
            neighbors: 4,
            rewire_probability: 0.1
        }
        .is_random());
        assert!(!Topology::Cycle { nodes: 3 }.is_random());
    }

    #[test]
    fn check_rejects_parameters_the_builders_would_change() {
        let er = |p| Topology::ErdosRenyiConnected {
            nodes: 9,
            edge_probability: p,
        };
        let ws = |nodes, neighbors, p| Topology::WattsStrogatz {
            nodes,
            neighbors,
            rewire_probability: p,
        };
        let sf = |nodes, attach| Topology::ScaleFree { nodes, attach };
        for (bad, rule) in [
            (er(-1.0), "probability P in [0, 1]"),
            (er(2.0), "probability P"),
            (er(f64::NAN), "probability P"),
            (ws(9, 4, 1.5), "probability P"),
            (ws(5, 10, 0.2), "even ring degree K"),
            (ws(9, 3, 0.2), "even ring degree K"),
            (ws(9, 0, 0.2), "even ring degree K"),
            (sf(3, 0), "attachment M in"),
            (sf(5, 10), "attachment M in"),
            (sf(5, 5), "attachment M in"),
            (Topology::Cycle { nodes: 1 }, "fewer than 2 nodes"),
            (Topology::TorusGrid { side: 1 }, "fewer than 2 nodes"),
        ] {
            let err = bad.check().unwrap_err();
            assert!(err.contains(rule), "{}: {err}", bad.label());
        }
        // Boundary values the builders keep as given.
        for good in [
            er(0.0),
            er(1.0),
            ws(9, 8, 0.0),
            ws(3, 2, 1.0),
            sf(2, 1),
            sf(5, 4),
        ] {
            assert_eq!(good.check(), Ok(()), "{}", good.label());
        }
        // Oversized sides saturate instead of overflowing.
        assert_eq!(
            Topology::TorusGrid { side: usize::MAX }.node_count(),
            usize::MAX
        );
    }
}
