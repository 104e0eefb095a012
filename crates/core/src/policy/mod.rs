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
//! * [`PolicyId`] — a cheap, `Copy` policy selector (an interned name) used
//!   by [`crate::experiment::ExperimentConfig`], the campaign grid axis and
//!   the `campaign` CLI. It serializes to the variant labels of the
//!   pre-registry protocol enum so pre-existing configs and reports keep
//!   their exact bytes.
//! * [`PolicyRegistry`] — a string-keyed registry mapping names (plus
//!   aliases and the legacy labels) to constructors. The four paper
//!   disciplines are pre-registered; external code adds its own with
//!   [`register`].
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
use std::sync::{OnceLock, RwLock};

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
    /// The registry identity of this policy.
    fn id(&self) -> PolicyId;

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

/// An interned, copyable policy selector.
///
/// A `PolicyId` is just the canonical registry name of a policy, so
/// [`crate::experiment::ExperimentConfig`] stays a flat `Copy` value that
/// sweep runners hand to worker threads by value. Obtain one from the
/// associated constants for the built-ins, from [`PolicyId::parse`] for CLI
/// strings, or from [`register`] for external policies.
///
/// Serialization is compatible with the pre-registry protocol enum: the
/// built-ins serialize to its variant labels (`"Oblivious"`,
/// `"PlannedConnectionOriented"`, …) and deserialize from either those
/// labels or the registry names, so pre-refactor configs and campaign
/// reports keep byte-identical JSON.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PolicyId {
    name: &'static str,
}

impl PolicyId {
    /// The paper's §4 path-oblivious max-min balancing protocol.
    pub const OBLIVIOUS: PolicyId = PolicyId { name: "oblivious" };
    /// Oblivious balancing plus the §6 consumer-side repair.
    pub const HYBRID: PolicyId = PolicyId { name: "hybrid" };
    /// Planned-path, connection-oriented baseline (nested swapping along
    /// the request path, in request order).
    pub const PLANNED: PolicyId = PolicyId { name: "planned" };
    /// Planned-path, connectionless baseline (no head-of-line blocking).
    pub const CONNECTIONLESS: PolicyId = PolicyId {
        name: "connectionless",
    };
    /// Greedy nested-swap-ordering discipline (à la Mai et al.), added
    /// through the plugin API as its extensibility proof.
    pub const GREEDY: PolicyId = PolicyId { name: "greedy" };
    /// Staleness-aware oblivious balancing: believed beneficiary counts are
    /// discounted by `exp(-age/τ)` before the §4 preferable-swap test.
    pub const GOSSIP_AWARE: PolicyId = PolicyId {
        name: "gossip-aware",
    };

    /// The canonical registry name (the CLI-facing spelling).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The display label used by `Debug`/`Display` and serialization — the
    /// legacy variant label for the four paper disciplines,
    /// a CamelCase form of the registry name otherwise.
    pub fn display_label(&self) -> &'static str {
        with_registry(|r| r.entry(self.name).map(|e| e.display)).unwrap_or(self.name)
    }

    /// The report family of this policy.
    pub fn family(&self) -> PolicyFamily {
        with_registry(|r| r.entry(self.name).map(|e| e.family)).unwrap_or(PolicyFamily::Oblivious)
    }

    /// One-line human description from the registry.
    pub fn summary(&self) -> &'static str {
        with_registry(|r| r.entry(self.name).map(|e| e.summary)).unwrap_or("")
    }

    /// Resolve a name, alias or legacy variant label to a registered
    /// policy. Returns a human-readable error naming the known policies.
    pub fn parse(spec: &str) -> Result<PolicyId, String> {
        with_registry(|r| {
            r.resolve(spec).ok_or_else(|| {
                format!(
                    "unknown policy '{spec}' (known: {})",
                    r.entries
                        .iter()
                        .map(|e| e.name)
                        .collect::<Vec<_>>()
                        .join("|")
                )
            })
        })
    }

    /// Instantiate this policy through the registry.
    pub fn instantiate(&self) -> Box<dyn SwapPolicy> {
        with_registry(|r| {
            let entry = r.entry(self.name).unwrap_or_else(|| {
                panic!(
                    "policy '{}' is not in the process-global registry \
                         (register it with qnet_core::policy::register)",
                    self.name
                )
            });
            (entry.constructor)()
        })
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
// Registry
// ---------------------------------------------------------------------------

/// A policy constructor: builds a fresh policy instance for one run.
pub type PolicyConstructor = fn() -> Box<dyn SwapPolicy>;

/// Everything the registry knows about one policy.
#[derive(Clone)]
pub struct PolicyEntry {
    /// Canonical registry name (CLI-facing, lowercase).
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
    /// Constructor.
    pub constructor: PolicyConstructor,
}

impl fmt::Debug for PolicyEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyEntry")
            .field("name", &self.name)
            .field("display", &self.display)
            .field("family", &self.family)
            .finish()
    }
}

/// The string-keyed policy registry.
///
/// A process-global instance pre-loaded with the built-ins backs
/// [`PolicyId::parse`] / [`PolicyId::instantiate`]; external code extends it
/// with [`register`].
#[derive(Debug, Clone)]
pub struct PolicyRegistry {
    entries: Vec<PolicyEntry>,
}

impl PolicyRegistry {
    /// A registry containing exactly the built-in disciplines.
    pub fn builtin() -> Self {
        PolicyRegistry {
            entries: vec![
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
            ],
        }
    }

    /// The entry with canonical name `name`, if registered.
    pub fn entry(&self, name: &str) -> Option<&PolicyEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Resolve a name, alias or display label to a [`PolicyId`].
    pub fn resolve(&self, spec: &str) -> Option<PolicyId> {
        self.entries
            .iter()
            .find(|e| e.name == spec || e.display == spec || e.aliases.contains(&spec))
            .map(|e| PolicyId { name: e.name })
    }

    /// All entries, in registration order.
    pub fn entries(&self) -> &[PolicyEntry] {
        &self.entries
    }

    /// Register a policy with *this* registry instance. Returns an error if
    /// the name (or any alias) collides with an existing entry.
    ///
    /// Note: the [`PolicyId`] convenience methods (`parse`, `instantiate`,
    /// `family`, …) always consult the **process-global** registry. An id
    /// minted by this method on a standalone registry is only meaningful
    /// through this instance's own `entry`/`resolve` lookups; to make a
    /// policy selectable by `ExperimentConfig`, the campaign grid and the
    /// CLI, use the free [`register`] function instead.
    pub fn register(&mut self, entry: PolicyEntry) -> Result<PolicyId, String> {
        let collides = |s: &str| self.resolve(s).is_some();
        if collides(entry.name) || collides(entry.display) {
            return Err(format!(
                "policy name '{}' is already registered",
                entry.name
            ));
        }
        if let Some(a) = entry.aliases.iter().find(|a| collides(a)) {
            return Err(format!("policy alias '{a}' is already registered"));
        }
        let id = PolicyId { name: entry.name };
        self.entries.push(entry);
        Ok(id)
    }
}

fn global_registry() -> &'static RwLock<PolicyRegistry> {
    static REGISTRY: OnceLock<RwLock<PolicyRegistry>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(PolicyRegistry::builtin()))
}

fn with_registry<T>(f: impl FnOnce(&PolicyRegistry) -> T) -> T {
    f(&global_registry().read().expect("policy registry poisoned"))
}

/// Register a policy with the process-global registry (the one
/// [`PolicyId::parse`] and every config/CLI lookup consults). Names must be
/// `'static`: plugins typically use literals; dynamically generated names
/// can be interned with `String::leak`.
pub fn register(entry: PolicyEntry) -> Result<PolicyId, String> {
    global_registry()
        .write()
        .expect("policy registry poisoned")
        .register(entry)
}

/// A snapshot of every registered policy, in registration order (built-ins
/// first). Backs `campaign --list-policies`.
pub fn registered_policies() -> Vec<PolicyEntry> {
    with_registry(|r| r.entries.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_ids_resolve_and_roundtrip() {
        for id in [
            PolicyId::OBLIVIOUS,
            PolicyId::HYBRID,
            PolicyId::PLANNED,
            PolicyId::CONNECTIONLESS,
            PolicyId::GREEDY,
            PolicyId::GOSSIP_AWARE,
        ] {
            assert_eq!(PolicyId::parse(id.name()).unwrap(), id);
            assert_eq!(PolicyId::parse(id.display_label()).unwrap(), id);
            let v = id.to_value();
            assert_eq!(PolicyId::from_value(&v).unwrap(), id);
        }
        assert!(PolicyId::parse("no-such-policy").is_err());
    }

    #[test]
    fn legacy_labels_serialize_identically_to_the_enum() {
        // The four paper disciplines keep the variant labels of the
        // pre-registry enum, which cached JSON carries; both spellings
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
        for entry in registered_policies() {
            let policy = (entry.constructor)();
            assert_eq!(policy.id().name(), entry.name);
        }
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let mut registry = PolicyRegistry::builtin();
        let dup = PolicyEntry {
            name: "oblivious",
            display: "Duplicate",
            aliases: &[],
            family: PolicyFamily::Oblivious,
            summary: "",
            constructor: || Box::new(oblivious::ObliviousPolicy::new()),
        };
        assert!(registry.register(dup).is_err());
        let alias_clash = PolicyEntry {
            name: "fresh",
            display: "Fresh",
            aliases: &["hybrid"],
            family: PolicyFamily::Oblivious,
            summary: "",
            constructor: || Box::new(oblivious::ObliviousPolicy::new()),
        };
        assert!(registry.register(alias_clash).is_err());
        let ok = PolicyEntry {
            name: "fresh2",
            display: "Fresh2",
            aliases: &[],
            family: PolicyFamily::Planned,
            summary: "a custom policy",
            constructor: || Box::new(planned::PlannedConnectionOrientedPolicy::new()),
        };
        let id = registry.register(ok).unwrap();
        assert_eq!(registry.resolve("fresh2"), Some(id));
    }
}
