//! Wait certificates: what a failed head-of-line offer read, so the world
//! re-offers that head only after a change that could alter its verdict.
//!
//! Head-of-line disciplines leave the oldest request blocked until the
//! network can serve it. Offered after every generation and balancing
//! swap anywhere in the network, it would answer `Wait` nearly every time
//! (hundreds of thousands of offers per campaign).
//! A policy whose `Wait` depends on a small, nameable part of the state
//! fills a [`WaitCertificate`] through [`super::PolicyCtx::certificate`]
//! while it decides:
//!
//! * **E**, the nodes whose entanglement-graph rows a breadth-first search
//!   read at threshold `k` ([`WaitCertificate::read_rows`]), or, for a
//!   search that found no path, every node it reached
//!   ([`WaitCertificate::reached_no_path`]);
//! * **P**, the nodes of a path whose nested build failed
//!   ([`WaitCertificate::build_failed_along`]), or was judged infeasible on
//!   believed counts ([`WaitCertificate::believed_build_failed_along`]);
//! * under the stale control plane, the consumer whose knowledge view the
//!   decision read ([`WaitCertificate::rests_on_view`]), and whether the
//!   offer emitted a believed-path age and a missed swap that a skipped
//!   offer must replay ([`WaitCertificate::replays_stale_miss`]).
//!
//! The world holds the certificate for that head and skips re-offers until
//! one of these voids it:
//!
//! 1. the count of a pair with an endpoint in E crosses `k` (the search's
//!    edge set changed) — or, when the search found no path, the count of
//!    a pair with exactly one endpoint in E rises to `k`: the reached set
//!    had no edge leaving it, so edges inside it and lost edges cannot
//!    reach the target, and only a new edge out of it can;
//! 2. the count of a pair with both endpoints in P rises (the nested build
//!    may now succeed: success is upward-closed in the path's counts);
//! 3. under a buffer limit, the count of a pair touching P falls (a lower
//!    node load can unblock a product insert: success is closed under
//!    lower loads) — or changes at all when the build was judged on
//!    believed counts, whose loads come from truth and need not cover them;
//! 4. an accepted row install lands in the consumer's knowledge view;
//! 5. the head changes.
//!
//! The world checks rules 1–3 where it changes counts outside a policy
//! hook: generation, balancing-swap execution and the cutoff purge. Each
//! check is one branch while no certificate is held. Consumption under
//! head-of-line always takes the head, so it releases the certificate
//! (rule 5), and rule 4 is checked against the view's revision when the
//! head would be offered.
//!
//! Changes that void nothing leave the search reading the same edges and
//! the build failing again, so a skipped offer is exactly the `Wait` it
//! would have returned. A policy that fills nothing is re-offered every
//! time, as before.

use qnet_topology::{NodeId, NodePair};

/// Mark bit: the node's row was read by the entanglement search (E).
const READ: u8 = 1;
/// Mark bit: the node lies on the failed build path (P).
const ON_PATH: u8 = 2;

/// The scratch pad a policy fills while deciding a blocked head-of-line
/// request, and the world keeps as that head's wait certificate. See the
/// module docs for the contract.
///
/// Node marks live in one reusable byte per node and are cleared through
/// the list of marked nodes, so recording and releasing a certificate
/// allocates nothing once the buffers have grown.
#[derive(Debug, Default)]
pub struct WaitCertificate {
    /// `READ` / `ON_PATH` bits per node.
    marks: Vec<u8>,
    /// Nodes with a nonzero mark, for an O(marked) reset.
    marked: Vec<NodeId>,
    /// The failed build path, in order (the replayed age is read along it).
    path: Vec<NodeId>,
    /// Entanglement-search threshold `k` (meaningful when a row is marked
    /// `READ`).
    threshold: u64,
    /// The search found no path: the `READ` nodes are its closed reached
    /// set.
    no_path: bool,
    /// The build was judged on believed counts rather than truth.
    believed_build: bool,
    /// The consumer whose knowledge view the verdict read, and the view's
    /// revision at the time.
    view: Option<(NodeId, u64)>,
    /// A skipped offer replays one stale decision along `path` and one
    /// missed swap of the request's pair.
    replay_miss: bool,
    /// The world accepts fills only while it offers a head-of-line request.
    recording: bool,
    /// Whether the policy filled anything during the current offer.
    filled: bool,
    /// Set when a buffer limit is configured (rule 3 applies).
    buffer_limited: bool,
    /// Sequence of the request the certificate is held for.
    held: Option<u64>,
    /// Voided certificates per request sequence.
    #[cfg(test)]
    pub(crate) voids: std::collections::BTreeMap<u64, u64>,
}

impl WaitCertificate {
    /// An empty pad for a network of `n` nodes; `buffer_limited` records
    /// whether node buffers are bounded.
    pub fn new(n: usize, buffer_limited: bool) -> Self {
        WaitCertificate {
            marks: vec![0; n],
            buffer_limited,
            ..WaitCertificate::default()
        }
    }

    /// The verdict read the entanglement-graph rows of `nodes` at threshold
    /// `k`, and the search found a path.
    pub fn read_rows(&mut self, nodes: &[NodeId], k: u64) {
        if !self.recording {
            return;
        }
        self.threshold = k.max(1);
        for &node in nodes {
            self.mark(node, READ);
        }
        self.filled = true;
    }

    /// An entanglement search at threshold `k` found no path: it reached
    /// exactly `reached` (and read all their rows).
    pub fn reached_no_path(&mut self, reached: &[NodeId], k: u64) {
        if self.recording {
            self.read_rows(reached, k);
            self.no_path = true;
        }
    }

    /// A nested build along `path` failed against ground truth.
    pub fn build_failed_along(&mut self, path: &[NodeId]) {
        if !self.recording {
            return;
        }
        self.path.clear();
        self.path.extend_from_slice(path);
        for &node in path {
            self.mark(node, ON_PATH);
        }
        self.filled = true;
    }

    /// A dry run of the nested build along `path` on believed counts (with
    /// node loads from truth) judged it infeasible.
    pub fn believed_build_failed_along(&mut self, path: &[NodeId]) {
        if !self.recording {
            return;
        }
        self.build_failed_along(path);
        self.believed_build = true;
    }

    /// The verdict read `consumer`'s knowledge view at `revision`
    /// ([`crate::control::KnowledgeView::revision`]).
    pub fn rests_on_view(&mut self, consumer: NodeId, revision: u64) {
        if !self.recording {
            return;
        }
        self.view = Some((consumer, revision));
        self.filled = true;
    }

    /// The offer recorded one stale-decision age (the stalest row along the
    /// build path, see [`crate::control::OwnerAwareView::path_age_s`]) and
    /// then one missed swap of the request's pair: a skipped offer must
    /// emit both again.
    pub fn replays_stale_miss(&mut self) {
        if self.recording {
            self.replay_miss = true;
        }
    }

    fn mark(&mut self, node: NodeId, bit: u8) {
        let m = &mut self.marks[node.index()];
        if *m == 0 {
            self.marked.push(node);
        }
        *m |= bit;
    }

    /// Start recording the offer of a head-of-line request (any certificate
    /// held so far is released and its marks cleared).
    pub(crate) fn begin(&mut self) {
        self.release();
        for node in self.marked.drain(..) {
            self.marks[node.index()] = 0;
        }
        self.path.clear();
        self.no_path = false;
        self.believed_build = false;
        self.view = None;
        self.replay_miss = false;
        self.filled = false;
        self.recording = true;
    }

    /// Stop recording; hold the certificate for request `sequence` when the
    /// offer returned `Wait` (`waited`) and the policy filled the pad.
    pub(crate) fn finish(&mut self, sequence: u64, waited: bool) {
        self.recording = false;
        if waited && self.filled {
            self.held = Some(sequence);
        }
    }

    /// Drop the held certificate (the next offer to any head is made).
    pub(crate) fn release(&mut self) {
        self.held = None;
    }

    /// Whether a certificate is held at all: the one branch every mutation
    /// site pays before [`Self::observe`].
    #[inline]
    pub(crate) fn is_held(&self) -> bool {
        self.held.is_some()
    }

    /// Whether the held certificate still covers request `sequence`, given
    /// the current revision of the knowledge view it rests on (if any); a
    /// view that accepted an install since voids it (rule 4).
    pub(crate) fn covers(&mut self, sequence: u64, view_revision: impl Fn(NodeId) -> u64) -> bool {
        if self.held != Some(sequence) {
            return false;
        }
        match self.view {
            Some((consumer, revision)) if view_revision(consumer) != revision => {
                self.void();
                false
            }
            _ => true,
        }
    }

    /// The consumer whose view a replayed stale miss reads, with the path
    /// its age is taken along; `None` when a skipped offer emits nothing.
    pub(crate) fn replay(&self) -> Option<(NodeId, &[NodeId])> {
        match self.view {
            Some((consumer, _)) if self.replay_miss => Some((consumer, &self.path)),
            _ => None,
        }
    }

    /// The count of `pair` changed from `old` to `new`: release the held
    /// certificate if the change could alter the verdict (rules 1–3 of the
    /// module docs). Call only while [`Self::is_held`].
    pub(crate) fn observe(&mut self, pair: NodePair, old: u64, new: u64) {
        let (a, b) = (self.marks[pair.lo().index()], self.marks[pair.hi().index()]);
        let any = a | b;
        if any == 0 {
            return;
        }
        let k = self.threshold;
        let read = if self.no_path {
            (a & READ != b & READ) && old < k && new >= k
        } else {
            any & READ != 0 && (old >= k) != (new >= k)
        };
        let voids = read
            || (a & b & ON_PATH != 0 && new > old)
            || (self.buffer_limited && any & ON_PATH != 0 && (new < old || self.believed_build));
        if voids {
            self.void();
        }
    }

    fn void(&mut self) {
        #[cfg(test)]
        if let Some(sequence) = self.held {
            *self.voids.entry(sequence).or_default() += 1;
        }
        self.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    fn pair(a: u32, b: u32) -> NodePair {
        NodePair::new(NodeId(a), NodeId(b))
    }

    fn held(cert: &mut WaitCertificate, fill: impl FnOnce(&mut WaitCertificate)) {
        cert.begin();
        fill(cert);
        cert.finish(7, true);
        assert!(cert.is_held());
    }

    #[test]
    fn unfilled_offers_hold_nothing() {
        let mut cert = WaitCertificate::new(4, false);
        cert.begin();
        cert.finish(7, true);
        assert!(!cert.is_held());
        // Fills outside an offer are ignored.
        cert.read_rows(&nodes(&[0]), 1);
        cert.begin();
        cert.finish(7, true);
        assert!(!cert.is_held());
    }

    #[test]
    fn search_rows_void_only_on_threshold_crossings() {
        let mut cert = WaitCertificate::new(6, false);
        held(&mut cert, |c| c.read_rows(&nodes(&[0, 1]), 2));
        cert.observe(pair(2, 3), 0, 5);
        cert.observe(pair(1, 4), 2, 3);
        cert.observe(pair(0, 5), 1, 0);
        assert!(cert.covers(7, |_| 0));
        assert!(!cert.covers(8, |_| 0), "another head is not covered");
        cert.observe(pair(1, 4), 1, 2);
        assert!(!cert.is_held());
    }

    #[test]
    fn a_failed_search_voids_only_on_new_edges_leaving_its_reach() {
        let mut cert = WaitCertificate::new(6, false);
        held(&mut cert, |c| c.reached_no_path(&nodes(&[0, 1, 2]), 2));
        cert.observe(pair(0, 1), 2, 0);
        cert.observe(pair(1, 2), 1, 2);
        cert.observe(pair(2, 4), 2, 1);
        cert.observe(pair(3, 4), 0, 5);
        cert.observe(pair(2, 5), 0, 1);
        assert!(cert.is_held());
        cert.observe(pair(2, 5), 1, 2);
        assert!(!cert.is_held());
    }

    #[test]
    fn path_voids_on_rises_inside_and_limited_drops_touching() {
        let mut cert = WaitCertificate::new(6, false);
        held(&mut cert, |c| c.build_failed_along(&nodes(&[0, 2, 4])));
        cert.observe(pair(0, 4), 3, 2);
        cert.observe(pair(2, 3), 0, 1);
        assert!(cert.is_held());
        cert.observe(pair(0, 2), 0, 1);
        assert!(!cert.is_held());

        let mut limited = WaitCertificate::new(6, true);
        held(&mut limited, |c| c.build_failed_along(&nodes(&[0, 2, 4])));
        limited.observe(pair(2, 3), 0, 1);
        assert!(limited.is_held());
        limited.observe(pair(2, 3), 1, 0);
        assert!(!limited.is_held());

        held(&mut limited, |c| {
            c.believed_build_failed_along(&nodes(&[0, 2]))
        });
        limited.observe(pair(2, 3), 0, 1);
        assert!(
            !limited.is_held(),
            "believed builds void on any load change"
        );
    }

    #[test]
    fn view_revisions_and_replays() {
        let mut cert = WaitCertificate::new(4, false);
        held(&mut cert, |c| {
            c.read_rows(&nodes(&[0]), 1);
            c.rests_on_view(NodeId(0), 3);
            c.build_failed_along(&nodes(&[0, 1, 3]));
            c.replays_stale_miss();
        });
        assert!(cert.covers(7, |_| 3));
        assert!(!cert.covers(7, |_| 4));
        assert_eq!(cert.replay(), Some((NodeId(0), &nodes(&[0, 1, 3])[..])));
        cert.begin();
        assert_eq!(cert.replay(), None);
        assert!(cert.marks.iter().all(|&m| m == 0));
    }
}
