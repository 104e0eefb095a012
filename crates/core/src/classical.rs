//! Classical-communication cost accounting.
//!
//! Swapping, teleportation and distillation all require classical messages
//! (paper §2 "Classical overheads" and the §4 note about sharing the
//! `|N| choose 2` edge counts). The simulation does not model classical
//! latency — the paper argues high-speed classical networks make it feasible
//! — but it *does* count the messages and bits each knowledge model incurs,
//! so the §6 gossip experiment can quantify the savings.

use serde::{Deserialize, Serialize};

/// Accumulated classical-communication counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassicalStats {
    /// Messages carrying a swap's 2-bit Bell-measurement result to one of
    /// the newly entangled endpoints.
    pub correction_messages: u64,
    /// Total correction payload in bits (2 per correction message).
    pub correction_bits: u64,
    /// Messages carrying buffer-count updates between nodes.
    pub count_update_messages: u64,
    /// Messages used to deliver consumption (teleportation) corrections.
    pub teleport_messages: u64,
}

impl ClassicalStats {
    /// New, all-zero counters.
    pub fn new() -> Self {
        ClassicalStats::default()
    }

    /// Record the classical completion of one swap: the 2-bit measurement
    /// result is sent to one endpoint.
    pub fn record_swap_correction(&mut self) {
        self.correction_messages += 1;
        self.correction_bits += 2;
    }

    /// Record the classical completion of one teleportation (2 bits to the
    /// destination).
    pub fn record_teleportation(&mut self) {
        self.teleport_messages += 1;
        self.correction_bits += 2;
    }

    /// Record `messages` buffer-count update messages.
    pub fn record_count_updates(&mut self, messages: u64) {
        self.count_update_messages += messages;
    }

    /// Total messages of any kind.
    pub fn total_messages(&self) -> u64 {
        self.correction_messages + self.count_update_messages + self.teleport_messages
    }

    /// Merge another counter set into this one.
    pub fn merge(&mut self, other: &ClassicalStats) {
        self.correction_messages += other.correction_messages;
        self.correction_bits += other.correction_bits;
        self.count_update_messages += other.count_update_messages;
        self.teleport_messages += other.teleport_messages;
    }
}

/// How nodes learn the network-wide buffer counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum KnowledgeModel {
    /// The paper's baseline assumption: immediate global knowledge of every
    /// `C_x(y)`. Each inventory change is broadcast to all other nodes.
    Global,
    /// The §6 BitTorrent-like relaxation: nodes periodically pull the count
    /// rows of `peers_per_refresh` rotating peers. The stale control plane
    /// ([`crate::control`]) delivers the pulled rows after the classical
    /// propagation delay, and policies decide on the resulting stale
    /// views.
    Gossip {
        /// How many peers' count rows are refreshed per exchange.
        peers_per_refresh: usize,
        /// Seconds between a node's gossip exchanges. `0.0` (the legacy
        /// default, omitted from serialized form) couples the exchange to
        /// the swap-scan cadence: one exchange per `1 / swap_scan_rate`.
        #[serde(default, skip_serializing_if = "is_not_positive")]
        refresh_period_s: f64,
    },
}

/// Serialization predicate for `refresh_period_s`: the period is emitted
/// only when positive, so pre-period values keep their legacy bytes.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn is_not_positive(period_s: &f64) -> bool {
    !(*period_s > 0.0)
}

impl KnowledgeModel {
    /// Count-update messages incurred when one inventory change is
    /// disseminated under this model to a network of `n` nodes.
    pub fn messages_per_change(&self, n: usize) -> u64 {
        match self {
            // The two endpoints already know; everyone else must be told.
            KnowledgeModel::Global => n.saturating_sub(2) as u64,
            // Changes are *not* pushed; peers pull during their refresh.
            KnowledgeModel::Gossip { .. } => 0,
        }
    }

    /// Count-update messages incurred by one node's swap scan.
    pub fn messages_per_scan(&self) -> u64 {
        match self {
            KnowledgeModel::Global => 0,
            KnowledgeModel::Gossip {
                peers_per_refresh, ..
            } => *peers_per_refresh as u64,
        }
    }

    /// Parse the campaign/CLI knowledge grammar: `global`, `gossip:K`, or
    /// `gossip:K:PERIOD` (peers per refresh `K`, refresh period in
    /// seconds; omitted period couples exchanges to the swap-scan
    /// cadence). The value rules are [`KnowledgeModel::check`]'s.
    pub fn parse(spec: &str) -> Result<KnowledgeModel, String> {
        let spec = spec.trim();
        if spec.eq_ignore_ascii_case("global") {
            return Ok(KnowledgeModel::Global);
        }
        let rest = spec
            .strip_prefix("gossip:")
            .ok_or_else(|| format!("unknown knowledge model '{spec}' (expected 'global', 'gossip:K', or 'gossip:K:PERIOD')"))?;
        let (peers_part, period_part) = match rest.split_once(':') {
            Some((p, t)) => (p, Some(t)),
            None => (rest, None),
        };
        let peers_per_refresh: usize = peers_part
            .parse()
            .map_err(|_| format!("invalid gossip peer count '{peers_part}'"))?;
        let refresh_period_s = match period_part {
            None => 0.0,
            Some(t) => t
                .parse()
                .map_err(|_| format!("invalid gossip refresh period '{t}'"))?,
        };
        let model = KnowledgeModel::Gossip {
            peers_per_refresh,
            refresh_period_s,
        };
        model.check()?;
        Ok(model)
    }

    /// The value rules every runnable model satisfies: gossip refreshes at
    /// least one peer per exchange, and its period is finite and `≥ 0`
    /// (`0` couples exchanges to the swap-scan cadence). A positive period
    /// is at least one clock tick (1 ns), or an exchange would reschedule
    /// itself at the same instant forever. NaN fails.
    pub fn check(&self) -> Result<(), String> {
        match *self {
            KnowledgeModel::Gossip {
                peers_per_refresh: 0,
                ..
            } => Err("gossip peer count must be at least 1".to_string()),
            KnowledgeModel::Gossip {
                refresh_period_s: t,
                ..
            } if !(t >= 0.0 && t.is_finite()) => Err(format!(
                "gossip refresh period must be finite and ≥ 0 (got {t})"
            )),
            KnowledgeModel::Gossip {
                refresh_period_s: t,
                ..
            } if t > 0.0 && t < 1e-9 => Err(format!(
                "a positive gossip refresh period must be at least one 1 ns clock tick (got {t})"
            )),
            _ => Ok(()),
        }
    }

    /// The canonical grammar label for this model (inverse of
    /// [`KnowledgeModel::parse`]).
    pub fn label(&self) -> String {
        match self {
            KnowledgeModel::Global => "global".to_string(),
            KnowledgeModel::Gossip {
                peers_per_refresh,
                refresh_period_s,
            } => {
                if *refresh_period_s > 0.0 {
                    format!("gossip:{peers_per_refresh}:{refresh_period_s}")
                } else {
                    format!("gossip:{peers_per_refresh}")
                }
            }
        }
    }

    /// `true` for models whose runs consult stale believed counts (i.e.
    /// everything but `Global`).
    pub fn is_stale(&self) -> bool {
        !matches!(self, KnowledgeModel::Global)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = ClassicalStats::new();
        s.record_swap_correction();
        s.record_swap_correction();
        s.record_teleportation();
        s.record_count_updates(10);
        assert_eq!(s.correction_messages, 2);
        assert_eq!(s.correction_bits, 6);
        assert_eq!(s.teleport_messages, 1);
        assert_eq!(s.count_update_messages, 10);
        assert_eq!(s.total_messages(), 13);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = ClassicalStats::new();
        a.record_swap_correction();
        let mut b = ClassicalStats::new();
        b.record_count_updates(5);
        b.record_teleportation();
        a.merge(&b);
        assert_eq!(a.correction_messages, 1);
        assert_eq!(a.count_update_messages, 5);
        assert_eq!(a.teleport_messages, 1);
        assert_eq!(a.total_messages(), 7);
    }

    #[test]
    fn knowledge_model_message_counts() {
        let global = KnowledgeModel::Global;
        assert_eq!(global.messages_per_change(25), 23);
        assert_eq!(global.messages_per_change(2), 0);
        assert_eq!(global.messages_per_scan(), 0);

        let gossip = KnowledgeModel::Gossip {
            peers_per_refresh: 3,
            refresh_period_s: 0.0,
        };
        assert_eq!(gossip.messages_per_change(25), 0);
        assert_eq!(gossip.messages_per_scan(), 3);
    }

    #[test]
    fn knowledge_model_grammar_round_trips() {
        assert_eq!(KnowledgeModel::parse("global"), Ok(KnowledgeModel::Global));
        assert_eq!(
            KnowledgeModel::parse("gossip:3"),
            Ok(KnowledgeModel::Gossip {
                peers_per_refresh: 3,
                refresh_period_s: 0.0,
            })
        );
        assert_eq!(
            KnowledgeModel::parse("gossip:2:0.5"),
            Ok(KnowledgeModel::Gossip {
                peers_per_refresh: 2,
                refresh_period_s: 0.5,
            })
        );
        for spec in ["global", "gossip:3", "gossip:2:0.5"] {
            let model = KnowledgeModel::parse(spec).unwrap();
            assert_eq!(model.label(), spec);
            assert_eq!(KnowledgeModel::parse(&model.label()), Ok(model));
        }
        assert!(KnowledgeModel::parse("gossip:0").is_err());
        assert!(KnowledgeModel::parse("gossip:2:-1").is_err());
        assert!(KnowledgeModel::parse("gossip:2:1e-12").is_err());
        assert!(KnowledgeModel::parse("gossip:2:1e-9").is_ok());
        assert!(KnowledgeModel::parse("psychic").is_err());
    }

    #[test]
    fn knowledge_model_legacy_bytes_are_preserved() {
        // The period field must be invisible at its 0.0 default so legacy
        // grids/caches keep their exact bytes and fingerprints.
        let legacy = KnowledgeModel::Gossip {
            peers_per_refresh: 4,
            refresh_period_s: 0.0,
        };
        assert_eq!(
            serde_json::to_string(&legacy).unwrap(),
            "{\"Gossip\":{\"peers_per_refresh\":4}}"
        );
        assert_eq!(
            serde_json::to_string(&KnowledgeModel::Global).unwrap(),
            "\"Global\""
        );
        let timed = KnowledgeModel::Gossip {
            peers_per_refresh: 4,
            refresh_period_s: 0.5,
        };
        assert_eq!(
            serde_json::to_string(&timed).unwrap(),
            "{\"Gossip\":{\"peers_per_refresh\":4,\"refresh_period_s\":0.5}}"
        );
        for model in [KnowledgeModel::Global, legacy, timed] {
            let back = KnowledgeModel::from_value(&model.to_value()).unwrap();
            assert_eq!(back, model);
        }
    }
}
