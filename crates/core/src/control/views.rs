//! Per-node stale copies of the network-wide buffer-count state.
//!
//! Under [`crate::classical::KnowledgeModel::Global`] every policy decision
//! reads ground-truth [`Inventory`] counts. The stale control plane instead
//! gives each node a [`KnowledgeView`]: its possibly-out-of-date copy of
//! every other node's buffer-count *row*, stamped with the simulation time
//! at which that row was read at its owner. Policies decide on these
//! believed counts while the world keeps mutating the true ones — the gap
//! between the two is exactly the §6 staleness the paper's gossip
//! relaxation trades protocol messages against.

use crate::balancer::CountView;
use crate::inventory::Inventory;
use qnet_sim::SimTime;
use qnet_topology::pairs::all_pairs;
use qnet_topology::{CountMatrix, CountRow, NodeId, NodePair};

/// One node's stale copy of every node's buffer-count row.
///
/// A *row* is the set of pair counts involving one owner node; gossip
/// refreshes whole rows at a time, so freshness is tracked per row. The
/// count believed for a pair `(a, b)` is fresh as of the *newer* of the
/// two rows that contain it (either endpoint's row carries the pair).
#[derive(Debug, Clone)]
pub struct KnowledgeView {
    /// Believed counts, with each row's minimum kept current on every
    /// install (the balancer's row prune reads it).
    counts: CountMatrix,
    row_refreshed_at: Vec<SimTime>,
    n: usize,
    /// Number of accepted row installs so far.
    revision: u64,
}

impl KnowledgeView {
    /// An all-zero view over `n` nodes; every row starts "never refreshed"
    /// (timestamp zero), so ages grow from the start of the run.
    pub fn new(n: usize) -> Self {
        KnowledgeView {
            counts: CountMatrix::new(n),
            row_refreshed_at: vec![SimTime::ZERO; n],
            n,
            revision: 0,
        }
    }

    /// Number of nodes this view covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Install `owner`'s full row as read at `read_at`. `row[i]` is the
    /// believed count of the pair `(owner, i)`; `row[owner]` is ignored.
    /// Deliveries can overtake each other on heterogeneous links, so an
    /// install older than the row already held is dropped (latest read
    /// wins).
    pub fn install_row(&mut self, owner: NodeId, read_at: SimTime, row: &[u64]) {
        debug_assert_eq!(row.len(), self.n);
        if read_at < self.row_refreshed_at[owner.index()] {
            return;
        }
        self.row_refreshed_at[owner.index()] = read_at;
        self.revision += 1;
        // Pairs with a smaller endpoint sit in other nodes' rows, one entry
        // each; the rest are `owner`'s own row, written whole.
        let o = owner.index();
        for (other, &count) in row[..o].iter().enumerate() {
            self.counts
                .set(NodePair::new(NodeId::from(other), owner), count);
        }
        self.counts.set_row(owner, &row[o + 1..]);
    }

    /// How many row installs this view has accepted: a decision that read
    /// the view at one revision read the same believed counts and row
    /// times as long as the revision is unchanged.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// When `owner`'s row was last read at its owner ([`SimTime::ZERO`]
    /// if never refreshed).
    pub fn row_refreshed_at(&self, owner: NodeId) -> SimTime {
        self.row_refreshed_at[owner.index()]
    }

    /// When the believed count for `pair` was last read: the newer of its
    /// two endpoint rows (both carry the pair).
    pub fn pair_refreshed_at(&self, pair: NodePair) -> SimTime {
        self.row_refreshed_at[pair.lo().index()].max(self.row_refreshed_at[pair.hi().index()])
    }

    /// Age in seconds of the believed count for `pair` as of `now`.
    pub fn pair_age_s(&self, pair: NodePair, now: SimTime) -> f64 {
        now.saturating_since(self.pair_refreshed_at(pair))
            .as_secs_f64()
    }

    /// Age in seconds of the stalest row in the view as of `now`.
    pub fn max_row_age_s(&self, now: SimTime) -> f64 {
        self.row_refreshed_at
            .iter()
            .map(|&t| now.saturating_since(t).as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// All pairs with a nonzero *believed* count, in lexicographic pair
    /// order (the believed analogue of [`Inventory::nonzero_pairs`]). A
    /// full O(n²) scan: path repair reads single rows through
    /// [`CountView::count`] instead.
    pub fn nonzero_pairs(&self) -> Vec<(NodePair, u64)> {
        all_pairs(self.n)
            .filter_map(|p| {
                let c = self.counts.get(p);
                (c > 0).then_some((p, c))
            })
            .collect()
    }

    /// A view that answers pairs touching `owner` from ground truth: a
    /// node always knows its *own* pools exactly (they live in its local
    /// buffers), and only remote-remote pairs go through gossip.
    pub fn for_owner<'a>(&'a self, owner: NodeId, truth: &'a Inventory) -> OwnerAwareView<'a> {
        OwnerAwareView {
            view: self,
            owner,
            truth,
        }
    }
}

impl CountView for KnowledgeView {
    fn count(&self, pair: NodePair) -> u64 {
        self.counts.get(pair)
    }

    fn row(&self, lo: NodeId) -> Option<CountRow<'_>> {
        Some(self.counts.row(lo))
    }
}

/// [`KnowledgeView`] overlay that reads pairs containing the owning node
/// from ground truth (local buffers are always exact) and everything else
/// from the stale view.
#[derive(Debug, Clone, Copy)]
pub struct OwnerAwareView<'a> {
    view: &'a KnowledgeView,
    owner: NodeId,
    truth: &'a Inventory,
}

impl OwnerAwareView<'_> {
    /// Age in seconds of the believed count for `pair` as of `now`
    /// (zero for pairs the owner holds locally).
    pub fn pair_age_s(&self, pair: NodePair, now: SimTime) -> f64 {
        if pair.contains(self.owner) {
            0.0
        } else {
            self.view.pair_age_s(pair, now)
        }
    }

    /// Age in seconds of the stalest believed count among the consecutive
    /// pairs of `path` as of `now` — the row age a decision along that
    /// path rests on.
    pub fn path_age_s(&self, path: &[NodeId], now: SimTime) -> f64 {
        path.windows(2)
            .map(|w| self.pair_age_s(NodePair::new(w[0], w[1]), now))
            .fold(0.0, f64::max)
    }
}

impl CountView for OwnerAwareView<'_> {
    fn count(&self, pair: NodePair) -> u64 {
        if pair.contains(self.owner) {
            self.truth.count(pair)
        } else {
            self.view.count(pair)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(a: usize, b: usize) -> NodePair {
        NodePair::new(NodeId::from(a), NodeId::from(b))
    }

    #[test]
    fn rows_start_unrefreshed_and_age_from_zero() {
        let view = KnowledgeView::new(4);
        let now = SimTime::from_secs_f64(3.0);
        assert_eq!(view.count(pair(0, 2)), 0);
        assert!((view.pair_age_s(pair(0, 2), now) - 3.0).abs() < 1e-12);
        assert!((view.max_row_age_s(now) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn install_row_updates_counts_and_freshness() {
        let mut view = KnowledgeView::new(3);
        let read_at = SimTime::from_secs_f64(1.0);
        view.install_row(NodeId(1), read_at, &[5, 0, 7]);
        assert_eq!(view.count(pair(0, 1)), 5);
        assert_eq!(view.count(pair(1, 2)), 7);
        assert_eq!(view.count(pair(0, 2)), 0);
        let now = SimTime::from_secs_f64(1.5);
        assert!((view.pair_age_s(pair(0, 1), now) - 0.5).abs() < 1e-12);
        // Pair (0,2) is in neither refreshed row: still never-refreshed.
        assert!((view.pair_age_s(pair(0, 2), now) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn older_deliveries_lose_the_race() {
        let mut view = KnowledgeView::new(3);
        view.install_row(NodeId(1), SimTime::from_secs_f64(2.0), &[9, 0, 9]);
        view.install_row(NodeId(1), SimTime::from_secs_f64(1.0), &[1, 0, 1]);
        assert_eq!(view.count(pair(0, 1)), 9);
        assert_eq!(
            view.row_refreshed_at(NodeId(1)),
            SimTime::from_secs_f64(2.0)
        );
        assert_eq!(view.revision(), 1, "a dropped install is no revision");
    }

    #[test]
    fn nonzero_pairs_reports_believed_counts() {
        let mut view = KnowledgeView::new(3);
        view.install_row(NodeId(2), SimTime::from_secs_f64(1.0), &[4, 0, 0]);
        assert_eq!(view.nonzero_pairs(), vec![(pair(0, 2), 4)]);
    }
}
