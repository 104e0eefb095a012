//! The simulated classical control plane: stale knowledge, gossip, latency.
//!
//! The paper's §6 relaxes the oblivious discipline's global-knowledge
//! assumption with BitTorrent-like gossip. This module makes that
//! relaxation *simulable* instead of merely counted: under
//! [`crate::classical::KnowledgeModel::Gossip`] every node holds a
//! [`KnowledgeView`] — its possibly-stale copy of the network-wide
//! buffer-count state — refreshed by periodic latency-delayed gossip
//! exchanges ([`StaleControl`]), while the world keeps mutating ground
//! truth. Policies then decide on *believed* counts, and actions proposed
//! on stale rows can miss when truth has drifted — a distinct failure
//! class with its own observer hook, trace record, and run metrics.
//!
//! [`KnowledgeModel::Global`] never builds a control plane at all and stays
//! byte-identical everywhere.
//!
//! [`KnowledgeModel::Global`]: crate::classical::KnowledgeModel::Global

pub mod gossip;
pub mod latency;
pub mod views;

pub use gossip::StaleControl;
pub use latency::{PropagationDelays, DEFAULT_HOP_KM, FIBER_KM_PER_S, PROCESSING_DELAY_S};
pub use views::{KnowledgeView, OwnerAwareView};

use qnet_topology::NodePair;

/// Scratch pad the world hands policies (via
/// [`crate::policy::PolicyCtx`]) to report what their stale decisions
/// relied on. The world drains it into [`crate::observer::RunObserver`]
/// hooks after every policy call; under global knowledge it is never
/// written, which is what keeps `Global` runs byte-identical.
#[derive(Debug, Default)]
pub struct DecisionTelemetry {
    row_ages_s: Vec<f64>,
    missed: Vec<NodePair>,
}

impl DecisionTelemetry {
    /// Record the age (seconds) of a believed row a decision consulted.
    pub fn record_age(&mut self, age_s: f64) {
        self.row_ages_s.push(age_s);
    }

    /// Record a missed action: believed-feasible, but ground truth had
    /// drifted and the execution failed.
    pub fn record_miss(&mut self, pair: NodePair) {
        self.missed.push(pair);
    }

    /// `true` when there is nothing to drain.
    pub fn is_empty(&self) -> bool {
        self.row_ages_s.is_empty() && self.missed.is_empty()
    }

    /// The recorded row ages, in recording order.
    pub fn ages(&self) -> &[f64] {
        &self.row_ages_s
    }

    /// The recorded misses, in recording order.
    pub fn misses(&self) -> &[NodePair] {
        &self.missed
    }

    /// Forget everything recorded, keeping the buffers' capacity so the
    /// next stale decision records without allocating.
    pub fn clear(&mut self) {
        self.row_ages_s.clear();
        self.missed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnet_topology::NodeId;

    #[test]
    fn telemetry_drains_clean() {
        let mut t = DecisionTelemetry::default();
        assert!(t.is_empty());
        t.record_age(0.5);
        t.record_miss(NodePair::new(NodeId(0), NodeId(1)));
        assert!(!t.is_empty());
        assert_eq!(t.ages(), [0.5]);
        assert_eq!(t.misses().len(), 1);
        t.clear();
        assert!(t.is_empty());
        assert!(t.row_ages_s.capacity() > 0 && t.missed.capacity() > 0);
    }
}
