//! Property-based tests of the topology substrate: builder invariants,
//! shortest-path metric properties and pair-matrix indexing.

use proptest::prelude::*;
use qnet_topology::builders;
use qnet_topology::connectivity::{connected_components, is_connected};
use qnet_topology::fabric::HardwarePreset;
use qnet_topology::pairs::{all_pairs, NodePair, PairMatrix};
use qnet_topology::shortest_path::{all_pairs_distances, bfs_path};
use qnet_topology::{NodeId, Topology};

proptest! {
    /// Every builder produces a connected graph of the advertised size, with
    /// no self-loops and a consistent edge count.
    #[test]
    fn builders_produce_connected_graphs(nodes in 2usize..40, seed in any::<u64>()) {
        let side = ((nodes as f64).sqrt().ceil() as usize).max(2);
        let topologies = [
            Topology::Cycle { nodes },
            Topology::Path { nodes },
            Topology::Star { nodes },
            Topology::TorusGrid { side },
            Topology::RandomConnectedGrid { side },
            Topology::ErdosRenyiConnected { nodes, edge_probability: 0.1 },
            Topology::RandomTree { nodes },
            Topology::ScaleFree { nodes, attach: 2 },
        ];
        for t in topologies {
            let g = t.build(seed);
            prop_assert_eq!(g.node_count(), t.node_count(), "{}", t.label());
            prop_assert!(is_connected(&g), "{} not connected", t.label());
            let mut counted = 0;
            for (a, b) in g.edges() {
                prop_assert!(a != b);
                prop_assert!(g.has_edge(a, b) && g.has_edge(b, a));
                counted += 1;
            }
            prop_assert_eq!(counted, g.edge_count());
            // Handshake lemma.
            let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
            prop_assert_eq!(degree_sum, 2 * g.edge_count());
        }
    }

    /// The random-connected grid is always a subgraph of the torus and stops
    /// adding edges once connected (so it never exceeds the torus edge count).
    #[test]
    fn random_grid_is_torus_subgraph(side in 2usize..8, seed in any::<u64>()) {
        let g = builders::random_connected_grid(side, seed);
        let torus = builders::torus_grid(side);
        for (a, b) in g.edges() {
            prop_assert!(torus.has_edge(a, b));
        }
        prop_assert!(g.edge_count() >= side * side - 1);
        prop_assert!(g.edge_count() <= torus.edge_count());
        prop_assert!(is_connected(&g));
    }

    /// BFS distances form a metric on connected graphs: symmetric, zero on
    /// the diagonal, positive off it, and satisfying the triangle inequality.
    #[test]
    fn bfs_distances_form_a_metric(side in 2usize..6, seed in any::<u64>()) {
        let g = builders::random_connected_grid(side, seed);
        let n = g.node_count();
        let d = all_pairs_distances(&g);
        for i in 0..n {
            prop_assert_eq!(d[i][i], Some(0));
            for j in 0..n {
                prop_assert_eq!(d[i][j], d[j][i]);
                if i != j {
                    prop_assert!(d[i][j].unwrap() >= 1);
                }
                for k in 0..n {
                    let (dij, dik, dkj) = (d[i][j].unwrap(), d[i][k].unwrap(), d[k][j].unwrap());
                    prop_assert!(dij <= dik + dkj, "triangle inequality violated");
                }
            }
        }
    }

    /// A BFS path's hop count equals the BFS distance, its endpoints match
    /// the query, and consecutive nodes are adjacent.
    #[test]
    fn bfs_paths_are_consistent_with_distances(nodes in 3usize..30, seed in any::<u64>(), a in 0usize..30, b in 0usize..30) {
        let g = builders::erdos_renyi_connected(nodes, 0.15, seed);
        let a = NodeId::from(a % nodes);
        let b = NodeId::from(b % nodes);
        let path = bfs_path(&g, a, b).expect("connected graph");
        let dist = qnet_topology::bfs_distances(&g, a)[b.index()].unwrap();
        prop_assert_eq!(path.hops() as u32, dist);
        prop_assert_eq!(path.nodes[0], a);
        prop_assert_eq!(*path.nodes.last().unwrap(), b);
        for w in path.nodes.windows(2) {
            prop_assert!(g.has_edge(w[0], w[1]));
        }
    }

    /// Removing edges only ever splits components (monotonicity of
    /// connectivity under edge deletion).
    #[test]
    fn edge_removal_never_merges_components(side in 2usize..5, removals in proptest::collection::vec((0usize..100, 0usize..100), 0..10)) {
        let mut g = builders::torus_grid(side);
        let mut previous = connected_components(&g).len();
        for (a, b) in removals {
            let n = g.node_count();
            let a = NodeId::from(a % n);
            let b = NodeId::from(b % n);
            if a != b {
                g.remove_edge(a, b);
            }
            let now = connected_components(&g).len();
            prop_assert!(now >= previous);
            previous = now;
        }
    }

    /// PairMatrix indexing is a bijection: writing distinct values to every
    /// pair and reading them back loses nothing.
    #[test]
    fn pair_matrix_indexing_is_bijective(n in 2usize..30) {
        let mut m: PairMatrix<u64> = PairMatrix::new(n);
        for (k, p) in all_pairs(n).enumerate() {
            m.set(p, k as u64 + 1);
        }
        for (k, p) in all_pairs(n).enumerate() {
            prop_assert_eq!(*m.get(p), k as u64 + 1);
        }
        prop_assert_eq!(m.pair_count(), n * (n - 1) / 2);
    }

    /// Derived link profiles are monotone in length for every preset:
    /// longer links never generate faster or purer pairs, and the derived
    /// quantities stay inside their physical ranges.
    #[test]
    fn link_profiles_are_monotone_in_length(a in 0.0f64..200.0, b in 0.0f64..200.0) {
        let (short_km, long_km) = if a <= b { (a, b) } else { (b, a) };
        for preset in HardwarePreset::ALL {
            let short = preset.profile_for_length(short_km);
            let long = preset.profile_for_length(long_km);
            prop_assert!(short.generation_rate_hz >= long.generation_rate_hz);
            prop_assert!(short.initial_fidelity >= long.initial_fidelity);
            if long_km > short_km {
                prop_assert!(short.generation_rate_hz > long.generation_rate_hz);
                prop_assert!(short.initial_fidelity > long.initial_fidelity);
            }
            prop_assert!(long.generation_rate_hz > 0.0);
            prop_assert!(long.initial_fidelity > 0.5 && long.initial_fidelity < 1.0);
            prop_assert!(long.coherence_time_s > 0.0);
        }
    }

    /// NodePair canonicalisation: construction is order-insensitive and
    /// `other` inverts `contains`.
    #[test]
    fn node_pair_canonical(a in 0u32..1000, b in 0u32..1000) {
        prop_assume!(a != b);
        let p = NodePair::new(NodeId(a), NodeId(b));
        let q = NodePair::new(NodeId(b), NodeId(a));
        prop_assert_eq!(p, q);
        prop_assert!(p.lo() < p.hi());
        prop_assert_eq!(p.other(NodeId(a)), Some(NodeId(b)));
        prop_assert_eq!(p.other(NodeId(b)), Some(NodeId(a)));
    }
}
