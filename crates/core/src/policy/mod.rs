//! The swap-policy plugin API.
//!
//! The paper's core contribution is a *comparison between swapping
//! disciplines* (path-oblivious vs. planned vs. hybrid, §4–§5). This module
//! makes those disciplines first-class plugins instead of enum variants:
//!
//! * [`SwapPolicy`] — the trait a discipline implements. The simulation
//!   substrate ([`crate::network::QuantumNetworkWorld`]) owns generation,
//!   inventory, knowledge dissemination and the request queue; the policy
//!   owns every protocol *decision*: whether periodic swap scans run
//!   ([`SwapPolicy::schedules_swap_scans`]), which swap a scanning node
//!   performs ([`SwapPolicy::on_swap_scan`], consulting the control-plane
//!   knowledge via [`PolicyCtx`]), how a blocked consumption request is
//!   handled
//!   ([`SwapPolicy::on_blocked_request`]), in what order the request queue
//!   is drained ([`SwapPolicy::queue_discipline`]), and any end-of-run
//!   accounting ([`SwapPolicy::on_run_end`]).
//! * [`PolicyId`] — a cheap, `Copy` policy selector (an index into
//!   [`POLICIES`]) used by [`crate::experiment::ExperimentConfig`], the
//!   campaign grid axis and the `campaign` CLI. It serializes to the
//!   variant labels of the pre-plugin protocol enum so pre-existing configs
//!   and reports keep their exact bytes.
//! * [`POLICIES`] — the `const` table of named disciplines: canonical
//!   name, legacy label, aliases, report family, summary and constructor.
//!   A discipline becomes selectable by name in configs, grids and the CLI
//!   by gaining one row here. The table is compiled into every binary, so
//!   the worker subprocesses of `campaign orchestrate` resolve exactly the
//!   names their supervisor does. A discipline needs no row to run: hand an
//!   instance to [`crate::network::QuantumNetworkWorld::new`].
//!
//! The built-in disciplines live in the submodules [`oblivious`],
//! [`hybrid`], [`planned`] and [`greedy`] — the last one is a
//! nested-swap-*ordering* discipline in the spirit of Mai et al. ("Towards
//! Optimal Orders for Entanglement Swapping in Path Graphs") that was added
//! *through* this API as its proof of extensibility.

pub mod certificate;
pub mod gossip_aware;
pub mod greedy;
pub mod hybrid;
pub mod oblivious;
pub mod planned;

use crate::balancer::SwapCandidate;
use crate::config::NetworkConfig;
use crate::control::{DecisionTelemetry, StaleControl};
use crate::inventory::Inventory;
use crate::workload::ConsumptionRequest;
use qnet_sim::SimTime;
use qnet_topology::{Graph, NodeId, PathOracle};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

pub use certificate::WaitCertificate;

// ---------------------------------------------------------------------------
// The policy-facing view of the simulation substrate
// ---------------------------------------------------------------------------

/// The slice of the simulation world a policy may consult (and, for the
/// inventory, mutate) while making a decision.
///
/// The world hands a fresh `PolicyCtx` to every hook invocation; policies
/// must not retain state derived from stale contexts across events beyond
/// what their discipline genuinely needs.
pub struct PolicyCtx<'a> {
    /// The network configuration (rates, distillation overhead, buffers).
    pub config: &'a NetworkConfig,
    /// The generation graph.
    pub graph: &'a Graph,
    /// The ground-truth Bell-pair inventory. Policies mutate it only through
    /// swap executions; the world accounts for the classical cost of every
    /// swap a hook reports back.
    pub inventory: &'a mut Inventory,
    /// The classical control plane, when the run uses partial knowledge
    /// (`None` under global knowledge — consult the inventory directly, it
    /// is exact). Under gossip knowledge remote counts come from per-node
    /// [`crate::control::KnowledgeView`]s that lag ground truth.
    pub control: Option<&'a StaleControl>,
    /// The current simulated time (decision timestamp for staleness
    /// accounting).
    pub now: SimTime,
    /// Scratch pad for staleness telemetry: policies deciding on believed
    /// counts record consulted-row ages and believed-feasible-but-failed
    /// misses here; the world drains it into observer hooks after each
    /// policy call.
    pub telemetry: &'a mut DecisionTelemetry,
    /// Scratch pad for the wait certificate of a blocked head-of-line
    /// offer: what a `Wait` verdict read, so the world can skip re-offers
    /// until a change that could alter it (see
    /// [`SwapPolicy::on_blocked_request`]). Fills outside such an offer are
    /// ignored.
    pub certificate: &'a mut WaitCertificate,
    /// The world's shortest-path oracle over the immutable generation
    /// graph: memoized per-source BFS rows (all-pairs precomputed on small
    /// graphs). Planned/greedy disciplines query it instead of running
    /// their own BFS per consumer pair; answers are identical to
    /// [`qnet_topology::bfs_path`], tie-breaks included.
    pub oracle: &'a PathOracle,
}

impl<'a> PolicyCtx<'a> {
    /// The `⌈D⌉` distill-before-use draw factor every swap and consumption
    /// pays under the configured distillation spec.
    pub fn pairs_per_distilled(&self) -> u64 {
        self.config.pairs_per_distilled()
    }
}

/// What a policy decided about a consumption request that is not directly
/// satisfiable from the inventory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestAction {
    /// Nothing can be done now; leave the request pending.
    Wait,
    /// The policy performed this many repair swaps toward the request; the
    /// world re-checks availability, accounts the swaps' classical cost and
    /// consumes the pairs if they are now there.
    Repaired(u64),
    /// Give up on the request permanently (e.g. its endpoints are not
    /// connected in the generation graph).
    Drop,
}

/// In which order the world offers pending requests to the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueDiscipline {
    /// Strict head-of-line: only the oldest pending request may be
    /// satisfied; later requests wait behind it (the paper's sequential
    /// consumption semantics).
    HeadOfLine,
    /// Any pending request may be satisfied as soon as its pairs are
    /// available (the connectionless baselines' semantics).
    AnyOrder,
}

/// A swapping discipline: the per-event decision maker the simulation
/// substrate delegates to.
///
/// Implementations must be deterministic functions of the context they are
/// handed (plus their own state) — the reproducibility guarantees of the
/// whole stack rest on that.
pub trait SwapPolicy: fmt::Debug + Send {
    /// Whether the world should schedule the periodic per-node swap-scan
    /// events that drive [`SwapPolicy::on_swap_scan`]. Planned-path
    /// disciplines return `false`: they swap only on demand.
    fn schedules_swap_scans(&self) -> bool {
        false
    }

    /// How the pending request queue is drained.
    fn queue_discipline(&self) -> QueueDiscipline {
        QueueDiscipline::HeadOfLine
    }

    /// Whether [`SwapPolicy::on_blocked_request`] is inert: it always
    /// returns [`RequestAction::Wait`] and has no side effects. Declaring
    /// inertness lets the world skip the hook call on every blocked offer,
    /// under either [`QueueDiscipline`] — the observable behaviour is
    /// provably unchanged. Policies that repair, drop, or keep internal
    /// tallies must leave this `false` (the default).
    fn blocked_hook_is_inert(&self) -> bool {
        false
    }

    /// A node's periodic swap scan fired: decide which (if any) swap `node`
    /// performs. The returned candidate is executed and accounted by the
    /// world. Policies consult `ctx.control` for remote counts when present
    /// (a node always knows its own pools exactly via `ctx.inventory`).
    fn on_swap_scan(&mut self, _ctx: &mut PolicyCtx<'_>, _node: NodeId) -> Option<SwapCandidate> {
        None
    }

    /// The request `request` cannot be satisfied directly from the
    /// inventory: decide what to do. Repair swaps performed inside this hook
    /// must be reported back via [`RequestAction::Repaired`] so the world
    /// can account their classical cost.
    ///
    /// **Wait certificates.** Under [`QueueDiscipline::HeadOfLine`] the
    /// world offers the blocked head after every inventory gain. A hook
    /// that returns [`RequestAction::Wait`] may fill `ctx.certificate` with
    /// what the verdict read (see [`certificate`]): the rows an
    /// entanglement search expanded at threshold `k`, the path whose nested
    /// build failed, the consumer's knowledge view, and the stale telemetry
    /// the offer emitted. Filling it is a promise: while no count change
    /// and no view install that the certificate's rules name has happened,
    /// and the head is the same request, the hook would return `Wait`
    /// again, without side effects, recording exactly the telemetry the
    /// certificate says it replays. The world then skips those offers and
    /// replays that telemetry itself. A hook that fills nothing is offered
    /// every time.
    fn on_blocked_request(
        &mut self,
        ctx: &mut PolicyCtx<'_>,
        request: &ConsumptionRequest,
    ) -> RequestAction;

    /// The run ended (horizon reached or every request satisfied); a last
    /// chance for policy-side accounting. The built-in disciplines keep no
    /// hidden tallies, so their implementations are empty.
    fn on_run_end(&mut self, _ctx: &mut PolicyCtx<'_>) {}
}

// ---------------------------------------------------------------------------
// PolicyId — the Copy selector
// ---------------------------------------------------------------------------

/// Which family a policy belongs to, for report pairing: the Fig 4/5 ratio
/// rows divide an oblivious-family overhead by a planned-family overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyFamily {
    /// Path-oblivious balancing (and hybrids seeded by it) — ratio
    /// numerators.
    Oblivious,
    /// Planned-path execution along request paths — ratio denominators.
    Planned,
}

/// A copyable policy selector: the index of a row of [`POLICIES`].
///
/// [`crate::experiment::ExperimentConfig`] stays a flat `Copy` value that
/// sweep runners hand to worker threads by value. Obtain one from the
/// associated constants or from [`PolicyId::parse`] for CLI strings.
///
/// Serialization is compatible with the pre-plugin protocol enum: the
/// built-ins serialize to its variant labels (`"Oblivious"`,
/// `"PlannedConnectionOriented"`, …) and deserialize from either those
/// labels or the canonical names, so pre-refactor configs and campaign
/// reports keep byte-identical JSON.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyId(u8);

impl PolicyId {
    /// The paper's §4 path-oblivious max-min balancing protocol.
    pub const OBLIVIOUS: PolicyId = PolicyId(0);
    /// Oblivious balancing plus the §6 consumer-side repair.
    pub const HYBRID: PolicyId = PolicyId(1);
    /// Planned-path, connection-oriented baseline (nested swapping along
    /// the request path, in request order).
    pub const PLANNED: PolicyId = PolicyId(2);
    /// Planned-path, connectionless baseline (no head-of-line blocking).
    pub const CONNECTIONLESS: PolicyId = PolicyId(3);
    /// Greedy nested-swap-ordering discipline (à la Mai et al.), added
    /// through the plugin API as its extensibility proof.
    pub const GREEDY: PolicyId = PolicyId(4);
    /// Staleness-aware oblivious balancing: believed beneficiary counts are
    /// discounted by `exp(-age/τ)` before the §4 preferable-swap test.
    pub const GOSSIP_AWARE: PolicyId = PolicyId(5);

    fn entry(&self) -> &'static PolicyEntry {
        &POLICIES[self.0 as usize]
    }

    /// The canonical name (the CLI-facing spelling).
    pub fn name(&self) -> &'static str {
        self.entry().name
    }

    /// The display label used by `Debug`/`Display` and serialization — the
    /// legacy variant label for the four paper disciplines,
    /// a CamelCase form of the name otherwise.
    pub fn display_label(&self) -> &'static str {
        self.entry().display
    }

    /// The report family of this policy.
    pub fn family(&self) -> PolicyFamily {
        self.entry().family
    }

    /// One-line human description.
    pub fn summary(&self) -> &'static str {
        self.entry().summary
    }

    /// Resolve a name, alias or legacy variant label to a policy. Returns a
    /// human-readable error naming the known policies.
    pub fn parse(spec: &str) -> Result<PolicyId, String> {
        match POLICIES
            .iter()
            .position(|e| e.name == spec || e.display == spec || e.aliases.contains(&spec))
        {
            Some(index) => Ok(PolicyId(index as u8)),
            None => {
                let known: Vec<&str> = POLICIES.iter().map(|e| e.name).collect();
                Err(format!(
                    "unknown policy '{spec}' (known: {})",
                    known.join("|")
                ))
            }
        }
    }

    /// A fresh instance of this policy for one run.
    pub fn instantiate(&self) -> Box<dyn SwapPolicy> {
        (self.entry().constructor)()
    }
}

impl fmt::Debug for PolicyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_label())
    }
}

impl fmt::Display for PolicyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.display_label())
    }
}

impl std::str::FromStr for PolicyId {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicyId::parse(s)
    }
}

impl Serialize for PolicyId {
    fn to_value(&self) -> Value {
        Value::Str(self.display_label().to_string())
    }
}

impl Deserialize for PolicyId {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        let s = value
            .as_str()
            .ok_or_else(|| DeError::expected("policy name", value))?;
        PolicyId::parse(s).map_err(DeError::custom)
    }
}

// ---------------------------------------------------------------------------
// The policy table
// ---------------------------------------------------------------------------

/// Everything known about one named policy: one row of [`POLICIES`].
#[derive(Debug)]
pub struct PolicyEntry {
    /// Canonical name (CLI-facing, lowercase).
    pub name: &'static str,
    /// Display / serialization label (legacy variant label for the paper
    /// disciplines).
    pub display: &'static str,
    /// Alternate accepted spellings.
    pub aliases: &'static [&'static str],
    /// Report family.
    pub family: PolicyFamily,
    /// One-line human description.
    pub summary: &'static str,
    /// Builds a fresh policy instance for one run.
    pub constructor: fn() -> Box<dyn SwapPolicy>,
}

/// Every named policy, in [`PolicyId`] index order: the one table that
/// [`PolicyId::parse`], [`PolicyId::instantiate`], the campaign grid's
/// policy axis and `campaign --list-policies` read.
pub const POLICIES: &[PolicyEntry] = &[
    PolicyEntry {
        name: "oblivious",
        display: "Oblivious",
        aliases: &["path-oblivious"],
        family: PolicyFamily::Oblivious,
        summary: "path-oblivious max-min balancing (paper §4)",
        constructor: || Box::new(oblivious::ObliviousPolicy::new()),
    },
    PolicyEntry {
        name: "hybrid",
        display: "Hybrid",
        aliases: &[],
        family: PolicyFamily::Oblivious,
        summary: "oblivious balancing + consumer-side repair over seeded pairs (§6)",
        constructor: || Box::new(hybrid::HybridPolicy::new()),
    },
    PolicyEntry {
        name: "planned",
        display: "PlannedConnectionOriented",
        aliases: &["planned-co", "connection-oriented"],
        family: PolicyFamily::Planned,
        summary: "connection-oriented nested swapping along each request's path",
        constructor: || Box::new(planned::PlannedConnectionOrientedPolicy::new()),
    },
    PolicyEntry {
        name: "connectionless",
        display: "PlannedConnectionless",
        aliases: &["planned-cl"],
        family: PolicyFamily::Planned,
        summary: "connectionless planned swapping, no head-of-line blocking",
        constructor: || Box::new(planned::PlannedConnectionlessPolicy::new()),
    },
    PolicyEntry {
        name: "greedy",
        display: "GreedyNested",
        aliases: &["greedy-nested", "mai"],
        family: PolicyFamily::Planned,
        summary: "greedy nested-swap ordering exploiting seeded mid-path pairs \
                  (à la Mai et al.)",
        constructor: || Box::new(greedy::GreedyOrderPolicy::new()),
    },
    PolicyEntry {
        name: "gossip-aware",
        display: "GossipAware",
        aliases: &["stale-aware"],
        family: PolicyFamily::Oblivious,
        summary: "oblivious balancing over age-discounted believed counts \
                  (exp(-age/τ) decay)",
        constructor: || Box::new(gossip_aware::GossipAwarePolicy::new()),
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_ids_resolve_and_roundtrip() {
        for (id, name) in [
            (PolicyId::OBLIVIOUS, "oblivious"),
            (PolicyId::HYBRID, "hybrid"),
            (PolicyId::PLANNED, "planned"),
            (PolicyId::CONNECTIONLESS, "connectionless"),
            (PolicyId::GREEDY, "greedy"),
            (PolicyId::GOSSIP_AWARE, "gossip-aware"),
        ] {
            assert_eq!(id.name(), name);
            assert_eq!(PolicyId::parse(name).unwrap(), id);
            assert_eq!(PolicyId::parse(id.display_label()).unwrap(), id);
            let v = id.to_value();
            assert_eq!(PolicyId::from_value(&v).unwrap(), id);
        }
        assert!(PolicyId::parse("no-such-policy").is_err());
    }

    #[test]
    fn legacy_labels_serialize_identically_to_the_enum() {
        // The four paper disciplines keep the variant labels of the
        // pre-plugin enum, which cached JSON carries; both spellings
        // parse back.
        for (id, label) in [
            (PolicyId::OBLIVIOUS, "Oblivious"),
            (PolicyId::PLANNED, "PlannedConnectionOriented"),
            (PolicyId::CONNECTIONLESS, "PlannedConnectionless"),
            (PolicyId::HYBRID, "Hybrid"),
        ] {
            assert_eq!(id.to_value(), Value::Str(label.to_string()));
            assert_eq!(PolicyId::parse(label).unwrap(), id);
        }
        // And the Debug rendering (used by human summaries and CSVs) too.
        assert_eq!(format!("{:?}", PolicyId::OBLIVIOUS), "Oblivious");
        assert_eq!(
            format!("{:?}", PolicyId::PLANNED),
            "PlannedConnectionOriented"
        );
    }

    #[test]
    fn families_partition_the_builtins() {
        assert_eq!(PolicyId::OBLIVIOUS.family(), PolicyFamily::Oblivious);
        assert_eq!(PolicyId::HYBRID.family(), PolicyFamily::Oblivious);
        assert_eq!(PolicyId::PLANNED.family(), PolicyFamily::Planned);
        assert_eq!(PolicyId::CONNECTIONLESS.family(), PolicyFamily::Planned);
        assert_eq!(PolicyId::GREEDY.family(), PolicyFamily::Planned);
        assert_eq!(PolicyId::GOSSIP_AWARE.family(), PolicyFamily::Oblivious);
    }

    #[test]
    fn every_builtin_instantiates() {
        // Each row builds its own discipline. Oblivious-family disciplines
        // balance in periodic scans; planned ones swap only on demand.
        for (id, discipline) in [
            (PolicyId::OBLIVIOUS, "ObliviousPolicy"),
            (PolicyId::HYBRID, "HybridPolicy"),
            (PolicyId::PLANNED, "PlannedConnectionOrientedPolicy"),
            (PolicyId::CONNECTIONLESS, "PlannedConnectionlessPolicy"),
            (PolicyId::GREEDY, "GreedyOrderPolicy"),
            (PolicyId::GOSSIP_AWARE, "GossipAwarePolicy"),
        ] {
            let policy = id.instantiate();
            let built = format!("{policy:?}");
            assert!(built.starts_with(discipline), "{id}: {built}");
            let scans = id.family() == PolicyFamily::Oblivious;
            assert_eq!(policy.schedules_swap_scans(), scans, "{id}");
        }
        assert_eq!(POLICIES.len(), 6);
    }

    #[test]
    fn policy_spellings_are_unique() {
        // Every name, label and alias resolves to its own row, so no row
        // shadows another.
        let mut spellings = Vec::new();
        for entry in POLICIES {
            let id = PolicyId::parse(entry.name).unwrap();
            for spelling in [entry.name, entry.display].iter().chain(entry.aliases) {
                assert_eq!(PolicyId::parse(spelling).unwrap(), id, "{spelling}");
                spellings.push(*spelling);
            }
        }
        let count = spellings.len();
        spellings.sort_unstable();
        spellings.dedup();
        assert_eq!(spellings.len(), count);
    }
}
