//! Latency-aware gossip: rotating row pulls with in-flight deliveries.
//!
//! [`StaleControl`] models the paper's §6 BitTorrent-like relaxation. Each
//! node runs a periodic `GossipExchange`: it pulls the full buffer-count
//! rows of `peers_per_refresh` rotating peers (a deterministic round-robin
//! cursor: every node pulls `0, 1, 2, …` mod n, skipping itself), but the
//! pulled rows are *snapshots in flight* — they arrive after the classical
//! propagation delay of the node↔peer fibre path plus a fixed processing
//! delay, and are installed into the puller's [`KnowledgeView`] only once
//! matured. Between refreshes of a row, the believed count drifts from
//! truth; that drift is the staleness the §6 curves measure.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use qnet_sim::{SimDuration, SimTime};
use qnet_topology::{NodeId, NodePair};

use super::latency::{PropagationDelays, PROCESSING_DELAY_S};
use super::views::KnowledgeView;
use crate::inventory::Inventory;

/// A pulled row travelling the classical network: `owner`'s counts as read
/// at `read_at`, destined for `dest`'s view once `deliver_at` passes.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Delivery {
    deliver_at: SimTime,
    /// Issue order, breaking delivery-time ties deterministically.
    seq: u64,
    dest: u32,
    owner: u32,
    read_at: SimTime,
    row: Vec<u64>,
}

impl Ord for Delivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deliver_at, self.seq).cmp(&(other.deliver_at, other.seq))
    }
}

impl PartialOrd for Delivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The event-driven stale control plane: one [`KnowledgeView`] per node,
/// refreshed by periodic latency-delayed gossip exchanges.
#[derive(Debug)]
pub struct StaleControl {
    views: Vec<KnowledgeView>,
    cursor: Vec<usize>,
    peers_per_refresh: usize,
    period: SimDuration,
    delays: PropagationDelays,
    in_flight: BinaryHeap<Reverse<Delivery>>,
    seq: u64,
}

impl StaleControl {
    /// Build a control plane over `node_count` nodes where each exchange
    /// pulls `peers_per_refresh` rotating peers' rows and exchanges repeat
    /// every `refresh_period_s` seconds per node.
    ///
    /// # Panics
    /// If `peers_per_refresh` is zero or `refresh_period_s` is not
    /// strictly positive.
    pub fn new(
        node_count: usize,
        peers_per_refresh: usize,
        refresh_period_s: f64,
        delays: PropagationDelays,
    ) -> Self {
        assert!(
            peers_per_refresh >= 1,
            "gossip must refresh at least one peer per exchange"
        );
        assert!(
            refresh_period_s > 0.0,
            "gossip refresh period must be positive"
        );
        StaleControl {
            views: (0..node_count)
                .map(|_| KnowledgeView::new(node_count))
                .collect(),
            cursor: vec![0; node_count],
            peers_per_refresh,
            period: SimDuration::from_secs_f64(refresh_period_s),
            delays,
            in_flight: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Number of nodes covered.
    pub fn node_count(&self) -> usize {
        self.views.len()
    }

    /// Peers pulled per exchange.
    pub fn peers_per_refresh(&self) -> usize {
        self.peers_per_refresh
    }

    /// The per-node exchange period.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The classical propagation-delay table the plane was built with
    /// (also used to defer swap execution by coordination round-trips).
    pub fn delays(&self) -> &PropagationDelays {
        &self.delays
    }

    /// `node`'s current (possibly stale) view.
    pub fn view(&self, node: NodeId) -> &KnowledgeView {
        &self.views[node.index()]
    }

    /// Rows still in flight (delivered but not yet matured).
    pub fn in_flight_len(&self) -> usize {
        self.in_flight.len()
    }

    /// Run one gossip exchange for `node` at `now`: snapshot the rows of
    /// its next `peers_per_refresh` rotating peers from ground truth and
    /// put them in flight towards `node`'s view. Returns the number of
    /// row-transfer messages issued (the classical-overhead unit).
    ///
    /// Peers rotate round-robin: each node's cursor starts at node 0, skips
    /// the node itself, and advances one peer per pulled row.
    pub fn exchange(&mut self, now: SimTime, node: NodeId, truth: &Inventory) -> u64 {
        let n = self.node_count();
        if n <= 1 {
            return 0;
        }
        let mut issued = 0;
        for _ in 0..self.peers_per_refresh.min(n - 1) {
            let mut peer = self.cursor[node.index()] % n;
            if peer == node.index() {
                peer = (peer + 1) % n;
            }
            self.cursor[node.index()] = (peer + 1) % n;
            let peer_id = NodeId::from(peer);
            let row: Vec<u64> = (0..n)
                .map(|other| {
                    if other == peer {
                        0
                    } else {
                        truth.count(NodePair::new(peer_id, NodeId::from(other)))
                    }
                })
                .collect();
            let deliver_at = now
                + self.delays.duration(NodePair::new(node, peer_id))
                + SimDuration::from_secs_f64(PROCESSING_DELAY_S);
            self.seq += 1;
            self.in_flight.push(Reverse(Delivery {
                deliver_at,
                seq: self.seq,
                dest: node.index() as u32,
                owner: peer as u32,
                read_at: now,
                row,
            }));
            issued += 1;
        }
        issued
    }

    /// Install every in-flight row whose delivery time has passed.
    /// Called by the world before each decision so views are as fresh as
    /// the classical network allows — but never fresher.
    pub fn deliver_matured(&mut self, now: SimTime) {
        while let Some(Reverse(head)) = self.in_flight.peek() {
            if head.deliver_at > now {
                break;
            }
            let Reverse(d) = self.in_flight.pop().expect("peeked entry exists");
            self.views[d.dest as usize].install_row(NodeId(d.owner), d.read_at, &d.row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balancer::CountView;
    use crate::inventory::Inventory;
    use qnet_topology::{PathOracle, Topology};

    fn pair(a: usize, b: usize) -> NodePair {
        NodePair::new(NodeId::from(a), NodeId::from(b))
    }

    fn control(n: usize, peers: usize, period_s: f64) -> StaleControl {
        let graph = Topology::Cycle { nodes: n }.build(0);
        let oracle = PathOracle::new(&graph);
        let delays = PropagationDelays::new(&graph, None, &oracle);
        StaleControl::new(n, peers, period_s, delays)
    }

    fn seeded_inventory(n: usize) -> Inventory {
        let mut inv = Inventory::new(n);
        for _ in 0..3 {
            inv.add_pair(pair(0, 1)).unwrap();
        }
        inv.add_pair(pair(1, 2)).unwrap();
        inv
    }

    #[test]
    fn rows_arrive_only_after_the_propagation_delay() {
        let mut ctl = control(5, 1, 0.25);
        let inv = seeded_inventory(5);
        let t0 = SimTime::from_secs_f64(1.0);
        let issued = ctl.exchange(t0, NodeId(2), &inv);
        assert_eq!(issued, 1);
        assert_eq!(ctl.in_flight_len(), 1);
        // Immediately after the exchange nothing has matured.
        ctl.deliver_matured(t0);
        assert_eq!(ctl.in_flight_len(), 1);
        assert_eq!(ctl.view(NodeId(2)).count(pair(0, 1)), 0);
        // Well past the delay the row lands, stamped with its read time.
        let later = SimTime::from_secs_f64(1.1);
        ctl.deliver_matured(later);
        assert_eq!(ctl.in_flight_len(), 0);
        // Node 2's cursor starts at peer 0, whose row holds pair (0,1).
        assert_eq!(ctl.view(NodeId(2)).count(pair(0, 1)), 3);
        assert_eq!(ctl.view(NodeId(2)).row_refreshed_at(NodeId(0)), t0);
    }

    /// The explicit cursor rule, which every gossip golden pins: node `i`
    /// pulls peers `0, 1, 2, …` mod n, skipping `i`, `peers_per_refresh`
    /// per exchange, and each pulled row is truth's row as read at the
    /// exchange.
    #[test]
    fn rotation_matches_the_legacy_gossip_state() {
        let (n, peers) = (5, 2);
        let mut ctl = control(n, peers, 0.25);
        let inv = seeded_inventory(n);
        let rotation = |i: usize| (0..).map(move |k| k % n).filter(move |&p| p != i);
        for round in 0..4 {
            let now = SimTime::from_secs_f64(1.0 + round as f64);
            for i in 0..n {
                assert_eq!(ctl.exchange(now, NodeId::from(i), &inv), peers as u64);
            }
            // Every row matures well within the round.
            ctl.deliver_matured(now + SimDuration::from_secs_f64(0.5));
            for i in 0..n {
                let view = ctl.view(NodeId::from(i));
                let pulled: Vec<usize> = (0..n)
                    .filter(|&p| view.row_refreshed_at(NodeId::from(p)) == now)
                    .collect();
                let mut expected: Vec<usize> =
                    rotation(i).skip(round * peers).take(peers).collect();
                expected.sort_unstable();
                assert_eq!(pulled, expected, "node {i} round {round}");
                for &p in &pulled {
                    for other in (0..n).filter(|&o| o != p) {
                        assert_eq!(view.count(pair(p, other)), inv.count(pair(p, other)));
                    }
                }
            }
        }
    }
}
