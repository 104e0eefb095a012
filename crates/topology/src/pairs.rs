//! Unordered node pairs and symmetric pair-indexed matrices.
//!
//! Bell pairs are *interchangeable* (paper §1): any pair whose qubits reside
//! at nodes `x` and `y` is "a `[x, y]`", regardless of which endpoint is
//! listed first. [`NodePair`] canonicalises the ordering so `[x, y] == [y, x]`
//! by construction, and [`PairMatrix`] stores one value per unordered pair —
//! exactly the shape of the paper's `g(x, y)`, `c(x, y)` and `C_x(y)`.

use crate::graph::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An unordered pair of distinct nodes, stored as `(min, max)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodePair {
    lo: NodeId,
    hi: NodeId,
}

impl NodePair {
    /// Create the canonical pair for `{a, b}`.
    ///
    /// # Panics
    /// Panics if `a == b`: a Bell pair entangled "between" a single node
    /// carries no networking meaning (the paper sets `g(x,x) = c(x,x) = 0`).
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "a NodePair must join two distinct nodes");
        if a < b {
            NodePair { lo: a, hi: b }
        } else {
            NodePair { lo: b, hi: a }
        }
    }

    /// The smaller endpoint.
    pub fn lo(self) -> NodeId {
        self.lo
    }

    /// The larger endpoint.
    pub fn hi(self) -> NodeId {
        self.hi
    }

    /// Both endpoints as `(lo, hi)`.
    pub fn endpoints(self) -> (NodeId, NodeId) {
        (self.lo, self.hi)
    }

    /// True if `node` is one of the endpoints.
    pub fn contains(self, node: NodeId) -> bool {
        self.lo == node || self.hi == node
    }

    /// Given one endpoint, return the other; `None` if `node` is not an
    /// endpoint.
    pub fn other(self, node: NodeId) -> Option<NodeId> {
        if node == self.lo {
            Some(self.hi)
        } else if node == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }
}

impl fmt::Display for NodePair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// Enumerate every unordered pair of distinct nodes among `n` nodes, in
/// lexicographic order.
pub fn all_pairs(n: usize) -> impl Iterator<Item = NodePair> {
    (0..n).flat_map(move |i| {
        ((i + 1)..n).map(move |j| NodePair::new(NodeId::from(i), NodeId::from(j)))
    })
}

/// A symmetric matrix over unordered node pairs, with the diagonal excluded.
///
/// Storage is a flat upper-triangular vector of length `n(n-1)/2`, so lookups
/// are O(1) and the structure never distinguishes `(x, y)` from `(y, x)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairMatrix<T> {
    n: usize,
    data: Vec<T>,
}

impl<T: Clone + Default> PairMatrix<T> {
    /// Create a matrix for `n` nodes with all entries set to `T::default()`.
    pub fn new(n: usize) -> Self {
        let len = n * n.saturating_sub(1) / 2;
        PairMatrix {
            n,
            data: vec![T::default(); len],
        }
    }
}

impl<T> PairMatrix<T> {
    /// Number of nodes this matrix covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of unordered pairs (entries).
    pub fn pair_count(&self) -> usize {
        self.data.len()
    }

    fn offset(&self, pair: NodePair) -> usize {
        let i = pair.lo().index();
        let j = pair.hi().index();
        assert!(j < self.n, "pair {pair} out of range for {} nodes", self.n);
        // Row-major upper triangle: entries for row i start at
        // i*n - i(i+1)/2, columns i+1..n.
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// The entries of every pair `(lo, hi)` with `hi > lo`, as one
    /// contiguous slice of the row-major upper triangle: the entry for
    /// `(lo, hi)` is `row[hi − lo − 1]`, and the last node's row is empty.
    /// A scan over many pairs sharing their smaller endpoint reads this
    /// slice once instead of canonicalising and locating each pair.
    ///
    /// # Panics
    /// Panics if `lo` is not a node of this matrix.
    pub fn row(&self, lo: NodeId) -> &[T] {
        let i = lo.index();
        assert!(i < self.n, "row {lo} out of range for {} nodes", self.n);
        let start = i * self.n - i * (i + 1) / 2;
        &self.data[start..start + (self.n - i - 1)]
    }

    /// Immutable access to the entry for `pair`.
    pub fn get(&self, pair: NodePair) -> &T {
        &self.data[self.offset(pair)]
    }

    /// Mutable access to the entry for `pair`.
    pub fn get_mut(&mut self, pair: NodePair) -> &mut T {
        let off = self.offset(pair);
        &mut self.data[off]
    }

    /// Set the entry for `pair`.
    pub fn set(&mut self, pair: NodePair, value: T) {
        let off = self.offset(pair);
        self.data[off] = value;
    }

    /// Iterate over `(pair, &value)` in lexicographic pair order.
    pub fn iter(&self) -> impl Iterator<Item = (NodePair, &T)> + '_ {
        all_pairs(self.n).map(move |p| {
            let off = self.offset(p);
            (p, &self.data[off])
        })
    }
}

impl PairMatrix<f64> {
    /// Sum of all entries.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Pairs with a strictly positive entry.
    pub fn positive_pairs(&self) -> Vec<NodePair> {
        self.iter()
            .filter(|(_, &v)| v > 0.0)
            .map(|(p, _)| p)
            .collect()
    }
}

impl PairMatrix<u64> {
    /// Sum of all entries.
    pub fn total(&self) -> u64 {
        self.data.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_is_canonical() {
        let p = NodePair::new(NodeId(5), NodeId(2));
        let q = NodePair::new(NodeId(2), NodeId(5));
        assert_eq!(p, q);
        assert_eq!(p.lo(), NodeId(2));
        assert_eq!(p.hi(), NodeId(5));
        assert_eq!(p.endpoints(), (NodeId(2), NodeId(5)));
        assert_eq!(format!("{p}"), "[N2, N5]");
    }

    #[test]
    #[should_panic]
    fn degenerate_pair_panics() {
        let _ = NodePair::new(NodeId(3), NodeId(3));
    }

    #[test]
    fn contains_and_other() {
        let p = NodePair::new(NodeId(1), NodeId(4));
        assert!(p.contains(NodeId(1)));
        assert!(p.contains(NodeId(4)));
        assert!(!p.contains(NodeId(2)));
        assert_eq!(p.other(NodeId(1)), Some(NodeId(4)));
        assert_eq!(p.other(NodeId(4)), Some(NodeId(1)));
        assert_eq!(p.other(NodeId(9)), None);
    }

    #[test]
    fn all_pairs_count_and_order() {
        let pairs: Vec<_> = all_pairs(4).collect();
        assert_eq!(pairs.len(), 6);
        assert_eq!(pairs[0], NodePair::new(NodeId(0), NodeId(1)));
        assert_eq!(pairs[5], NodePair::new(NodeId(2), NodeId(3)));
        assert_eq!(all_pairs(0).count(), 0);
        assert_eq!(all_pairs(1).count(), 0);
    }

    #[test]
    fn pair_matrix_set_get_symmetric() {
        let mut m: PairMatrix<u64> = PairMatrix::new(5);
        assert_eq!(m.pair_count(), 10);
        m.set(NodePair::new(NodeId(1), NodeId(3)), 7);
        assert_eq!(*m.get(NodePair::new(NodeId(3), NodeId(1))), 7);
        *m.get_mut(NodePair::new(NodeId(1), NodeId(3))) += 1;
        assert_eq!(*m.get(NodePair::new(NodeId(1), NodeId(3))), 8);
        assert_eq!(m.total(), 8);
    }

    #[test]
    fn pair_matrix_every_offset_is_unique() {
        let n = 9;
        let mut m: PairMatrix<u64> = PairMatrix::new(n);
        for (k, p) in all_pairs(n).enumerate() {
            m.set(p, k as u64 + 1);
        }
        // If offsets collided, some value would have been overwritten and the
        // sum would fall short.
        let expected: u64 = (1..=m.pair_count() as u64).sum();
        assert_eq!(m.total(), expected);
    }

    #[test]
    fn pair_matrix_iter_matches_all_pairs() {
        let mut m: PairMatrix<f64> = PairMatrix::new(4);
        m.set(NodePair::new(NodeId(0), NodeId(2)), 2.5);
        let entries: Vec<_> = m.iter().map(|(p, &v)| (p, v)).collect();
        assert_eq!(entries.len(), 6);
        assert_eq!(entries[1], (NodePair::new(NodeId(0), NodeId(2)), 2.5));
        assert_eq!(
            m.positive_pairs(),
            vec![NodePair::new(NodeId(0), NodeId(2))]
        );
        assert!((m.total() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn pair_matrix_rows_are_the_upper_triangle() {
        let n = 6;
        let mut m: PairMatrix<u64> = PairMatrix::new(n);
        for (k, p) in all_pairs(n).enumerate() {
            m.set(p, k as u64);
        }
        for lo in 0..n {
            let row = m.row(NodeId::from(lo));
            assert_eq!(row.len(), n - lo - 1);
            for hi in lo + 1..n {
                let p = NodePair::new(NodeId::from(lo), NodeId::from(hi));
                assert_eq!(row[hi - lo - 1], *m.get(p));
            }
        }
    }

    #[test]
    #[should_panic]
    fn pair_matrix_row_out_of_range_panics() {
        let m: PairMatrix<u64> = PairMatrix::new(3);
        let _ = m.row(NodeId(3));
    }

    #[test]
    #[should_panic]
    fn pair_matrix_out_of_range_panics() {
        let m: PairMatrix<u64> = PairMatrix::new(3);
        let _ = m.get(NodePair::new(NodeId(0), NodeId(7)));
    }

    #[test]
    fn tiny_matrices() {
        let m0: PairMatrix<u64> = PairMatrix::new(0);
        assert_eq!(m0.pair_count(), 0);
        let m1: PairMatrix<u64> = PairMatrix::new(1);
        assert_eq!(m1.pair_count(), 0);
        let m2: PairMatrix<u64> = PairMatrix::new(2);
        assert_eq!(m2.pair_count(), 1);
    }
}
