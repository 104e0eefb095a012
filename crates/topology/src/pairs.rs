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
        &self.data[self.row_range(lo)]
    }

    fn row_range(&self, lo: NodeId) -> std::ops::Range<usize> {
        let i = lo.index();
        assert!(i < self.n, "row {lo} out of range for {} nodes", self.n);
        let start = i * self.n - i * (i + 1) / 2;
        start..start + (self.n - i - 1)
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

/// One row of a [`CountMatrix`]: the counts of every pair `(lo, hi)` with
/// `hi > lo`, together with their smallest value.
#[derive(Debug, Clone, Copy)]
pub struct CountRow<'a> {
    /// The count of `(lo, hi)` is `counts[hi − lo − 1]`, as in
    /// [`PairMatrix::row`].
    pub counts: &'a [u64],
    /// The smallest entry of `counts` (`u64::MAX` for the empty last row).
    pub min: u64,
}

/// A [`PairMatrix<u64>`] of counts that keeps, for every row, its minimum
/// entry and the leftmost column holding it (the *argmin*).
///
/// Every write goes through [`set`](CountMatrix::set), `add`, `sub` or
/// [`set_row`](CountMatrix::set_row), which keep the row minima exact. A
/// write that lowers an entry, or raises any entry but the argmin, costs
/// one compare. Raising the argmin entry searches the row forward from it
/// for another entry at the old minimum (every entry left of it is
/// larger), and rescans the whole row only if there is none, that is,
/// only when the minimum itself rises; on a 999-wide scale-free row of
/// mostly zeros the next zero is a step or two away.
#[derive(Debug, Clone, PartialEq)]
pub struct CountMatrix {
    counts: PairMatrix<u64>,
    /// `(min, argmin)` per row, `argmin` as a node index.
    row_min: Vec<(u64, u32)>,
}

impl CountMatrix {
    /// An all-zero matrix for `n` nodes.
    pub fn new(n: usize) -> Self {
        // Each row's leftmost zero is its first column; the last row is
        // empty. Stating this directly leaves the zeroed pages untouched.
        let row_min = (0..n)
            .map(|lo| {
                if lo + 1 < n {
                    (0, lo as u32 + 1)
                } else {
                    (u64::MAX, lo as u32)
                }
            })
            .collect();
        CountMatrix {
            counts: PairMatrix::new(n),
            row_min,
        }
    }

    /// The count for `pair`.
    pub fn get(&self, pair: NodePair) -> u64 {
        *self.counts.get(pair)
    }

    /// Row `lo` with its minimum (see [`PairMatrix::row`] for the layout).
    ///
    /// # Panics
    /// Panics if `lo` is not a node of this matrix.
    pub fn row(&self, lo: NodeId) -> CountRow<'_> {
        CountRow {
            counts: self.counts.row(lo),
            min: self.row_min[lo.index()].0,
        }
    }

    /// Set the count for `pair`, keeping its row's minimum exact.
    pub fn set(&mut self, pair: NodePair, value: u64) {
        self.update(pair, |_| value);
    }

    /// Overwrite row `lo` (the count of `(lo, hi)` becomes
    /// `values[hi − lo − 1]`) and recompute its minimum once, rather than
    /// once per entry.
    ///
    /// # Panics
    /// Panics if `values` is not exactly as long as the row.
    pub fn set_row(&mut self, lo: NodeId, values: &[u64]) {
        let range = self.counts.row_range(lo);
        let row = &mut self.counts.data[range];
        row.copy_from_slice(values);
        self.row_min[lo.index()] = leftmost_min(row, lo.index());
    }

    /// Add `delta` to the count for `pair` and return the new count.
    pub fn add(&mut self, pair: NodePair, delta: u64) -> u64 {
        self.update(pair, |c| c + delta)
    }

    /// Subtract `delta` from the count for `pair` and return the new count.
    ///
    /// # Panics
    /// Panics (in debug builds) if the count would go below zero.
    pub fn sub(&mut self, pair: NodePair, delta: u64) -> u64 {
        self.update(pair, |c| c - delta)
    }

    /// Replace the count for `pair` with `f(count)`, keeping its row's
    /// minimum exact, and return the new count.
    #[inline]
    fn update(&mut self, pair: NodePair, f: impl FnOnce(u64) -> u64) -> u64 {
        let entry = self.counts.get_mut(pair);
        let old = *entry;
        let value = f(old);
        *entry = value;
        let lo = pair.lo().index();
        let col = pair.hi().0;
        let (min, argmin) = self.row_min[lo];
        if value < min || (value == min && col < argmin) {
            self.row_min[lo] = (value, col);
        } else if col == argmin && value > old {
            // The minimum entry grew. Every entry left of it exceeds the
            // old minimum, so the next entry at the old minimum to its
            // right is the new leftmost minimum; failing that, the minimum
            // itself rose and the whole row is rescanned.
            let row = self.counts.row(pair.lo());
            let start = col as usize - lo;
            self.row_min[lo] = match row[start..].iter().position(|&c| c == old) {
                Some(k) => (old, col + 1 + k as u32),
                None => leftmost_min(row, lo),
            };
        }
        value
    }

    /// Iterate over `(pair, &count)` in lexicographic pair order.
    pub fn iter(&self) -> impl Iterator<Item = (NodePair, &u64)> + '_ {
        self.counts.iter()
    }

    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.counts.total()
    }
}

/// `(min, argmin)` of row `lo`: the smallest entry and the leftmost column
/// holding it, as a node index; `(u64::MAX, lo)` for an empty row.
fn leftmost_min(row: &[u64], lo: usize) -> (u64, u32) {
    let mut best = (u64::MAX, lo as u32);
    for (k, &c) in row.iter().enumerate() {
        if c < best.0 {
            best = (c, (lo + 1 + k) as u32);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    fn pair(a: u32, b: u32) -> NodePair {
        NodePair::new(NodeId(a), NodeId(b))
    }

    fn min_of(m: &CountMatrix, lo: u32) -> (u64, NodeId) {
        let (min, argmin) = m.row_min[lo as usize];
        assert_eq!(m.row(NodeId(lo)).min, min);
        (min, NodeId(argmin))
    }

    #[test]
    fn count_matrix_keeps_the_leftmost_row_minimum() {
        let mut m = CountMatrix::new(5);
        assert_eq!(min_of(&m, 0), (0, NodeId(1)));
        assert_eq!(min_of(&m, 4), (u64::MAX, NodeId(4)));
        for hi in 1..5 {
            m.set(pair(0, hi), 3);
        }
        assert_eq!(min_of(&m, 0), (3, NodeId(1)));
        // A decrease right of the argmin takes over; a tie right of it
        // does not.
        m.sub(pair(0, 3), 1);
        assert_eq!(min_of(&m, 0), (2, NodeId(3)));
        m.sub(pair(0, 4), 1);
        assert_eq!(min_of(&m, 0), (2, NodeId(3)));
        // Raising the argmin moves it to the next tie on its right…
        m.add(pair(0, 3), 5);
        assert_eq!(min_of(&m, 0), (2, NodeId(4)));
        // …and with no tie left, the whole row is rescanned.
        m.add(pair(0, 4), 5);
        assert_eq!(min_of(&m, 0), (3, NodeId(1)));
        // Writes to other rows leave this one alone.
        m.set(pair(1, 2), 9);
        assert_eq!(min_of(&m, 0), (3, NodeId(1)));
        assert_eq!(min_of(&m, 1), (0, NodeId(3)));
        assert_eq!(m.total(), 3 + 3 + 7 + 7 + 9);
    }

    proptest! {
        /// Every row's maintained `(min, argmin)` is its leftmost minimum
        /// after every write: random adds, subtractions, sets and
        /// whole-row writes over 2–40 nodes. Small counts make ties
        /// common, so the leftmost tie-break and the forward search are
        /// both exercised.
        #[test]
        fn count_matrix_row_minima_match_a_fresh_leftmost_pass(
            n in 2usize..41,
            ops in collection::vec((0u8..4, 0usize..40, 0usize..40, 0u64..4), 1..150),
            values in collection::vec(0u64..4, 80),
        ) {
            let mut m = CountMatrix::new(n);
            for &(kind, a, b, v) in &ops {
                let (a, b) = (a % n, b % n);
                if kind == 3 {
                    let len = n - a - 1;
                    m.set_row(NodeId::from(a), &values[b..b + len]);
                } else if a != b {
                    let pair = NodePair::new(NodeId::from(a), NodeId::from(b));
                    match kind {
                        0 => {
                            m.add(pair, v);
                        }
                        1 => {
                            m.sub(pair, v.min(m.get(pair)));
                        }
                        _ => m.set(pair, v),
                    }
                }
                for lo in 0..n {
                    let row = m.counts.row(NodeId::from(lo));
                    let (min, argmin) = m.row_min[lo];
                    if row.is_empty() {
                        prop_assert_eq!((min, argmin as usize), (u64::MAX, lo));
                        continue;
                    }
                    // The argmin holds the minimum, and everything left of
                    // it is strictly larger.
                    let k = argmin as usize - lo - 1;
                    prop_assert_eq!(row[k], min);
                    prop_assert!(row[..k].iter().all(|&c| c > min));
                    prop_assert!(row[k..].iter().all(|&c| c >= min));
                }
            }
        }
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
