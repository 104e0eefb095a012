//! # qnet-topology — generation-graph substrate
//!
//! The paper formulates path-oblivious swapping over a *generation graph*
//! `G`: an undirected graph over the repeater nodes with an edge `(x, y)`
//! wherever the pair can generate Bell pairs directly (`g(x, y) > 0`).
//! This crate provides:
//!
//! * a compact undirected [`Graph`] type with stable [`NodeId`]s,
//! * the topology builders used in the paper's evaluation (cycle graph,
//!   wraparound grid, random-connected grid) plus extras used in ablations
//!   (path, star, complete, Erdős–Rényi, random tree),
//! * shortest paths (BFS, and the memoizing [`PathOracle`]) used both by
//!   the planned-path baselines and by the swap-overhead metric's
//!   denominator,
//! * connectivity utilities (union-find, connected components), and
//! * [`NodePair`] / [`PairMatrix`], the canonical unordered-pair key and a
//!   symmetric matrix keyed by it — the natural container for `g(x, y)`,
//!   `c(x, y)` and the inventory counts `C_x(y)` (held in a [`CountMatrix`],
//!   which also keeps each row's minimum), and
//! * [`fabric`] — heterogeneous per-edge hardware profiles: named presets
//!   ([`HardwarePreset`]) whose generation rate and initial fidelity
//!   attenuate with link length, realized as a per-edge [`LinkProfile`]
//!   map ([`LinkFabric`]) over any built graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod connectivity;
pub mod edge_index;
pub mod fabric;
pub mod graph;
pub mod pairs;
pub mod shortest_path;

pub use builders::Topology;
pub use connectivity::UnionFind;
pub use edge_index::EdgeIndex;
pub use fabric::{FabricSpec, HardwarePreset, LinkFabric, LinkProfile};
pub use graph::{Graph, NodeId};
pub use pairs::{CountMatrix, CountRow, NodePair, PairMatrix};
pub use shortest_path::{bfs_distances, bfs_path, PathOracle, PathResult};
