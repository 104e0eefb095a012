//! Scenario grids: declarative cartesian products of experiment axes.
//!
//! A [`ScenarioGrid`] names eight axes — topology, mode, distillation,
//! knowledge, coherence time, physics, fabric and workload — plus a
//! replicate count and a master seed, and expands them into a deterministic
//! sequence of [`Scenario`]s. Each axis fact is stated once:
//!
//! * `axis_lens` gives the expansion order (topology outermost, replicate
//!   innermost); the cell count, the cell decode, the environment index and
//!   the empty-axis rule derive from it. Scenario ids are dense
//!   `0..grid.scenario_count()` indices into that order.
//! * Each axis value type with range rules owns a `check`, which both the
//!   CLI parsers and [`ScenarioGrid::check`] call.
//! * Scenario seeds derive from `(master seed, environment index,
//!   replicate)` with a SplitMix64-style mix. The *environment index* spans
//!   only `ENVIRONMENT_AXES`, the world-defining axes, and excludes the
//!   protocol axes (mode, knowledge). So the same grid + master seed always
//!   produces the same scenarios regardless of worker-thread count,
//!   replicates get decorrelated seeds without a global draw order, and
//!   cells that differ only in protocol run on **identical** graph instances
//!   and workloads — the oblivious-vs-planned ratio rows are properly
//!   paired rather than confounded by graph-instance variance.

use qnet_core::classical::KnowledgeModel;
use qnet_core::config::{DistillationSpec, NetworkConfig};
use qnet_core::experiment::ExperimentConfig;
use qnet_core::physics::PhysicsModel;
use qnet_core::policy::PolicyId;
use qnet_core::workload::{PairSelection, TrafficModel, WorkloadSpec};
use qnet_quantum::decoherence::DecoherenceModel;
use qnet_topology::{FabricSpec, Topology};
use serde::{Deserialize, Serialize};

/// The axis names in expansion order, as [`ScenarioGrid::check`] reports
/// an empty axis.
const AXIS_NAMES: [&str; 8] = [
    "topology",
    "mode",
    "distillation",
    "knowledge",
    "coherence-time",
    "physics",
    "fabric",
    "workload",
];

/// The axes that define the simulated world, in expansion order: every
/// axis but the protocol axes (mode, knowledge). Scenario seeds span only
/// these.
const ENVIRONMENT_AXES: [bool; 8] = [true, false, true, false, true, true, true, true];

/// One fully resolved cell of the grid: every axis pinned to a value.
///
/// Replicates share a cell; aggregation happens per cell.
///
/// Serialization: closed-loop cells keep the exact legacy byte layout; the
/// `traffic` field is emitted only for open-loop workloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellKey {
    /// Dense index of this cell in the grid's expansion order.
    pub cell: usize,
    /// Topology label (e.g. `cycle-25`).
    pub topology: String,
    /// Node count of the topology.
    pub nodes: usize,
    /// Swap policy (serialized under its legacy variant label for
    /// the built-ins, so pre-refactor reports keep their bytes).
    pub mode: PolicyId,
    /// Distillation overhead `D`.
    pub distillation: f64,
    /// Knowledge model.
    pub knowledge: KnowledgeModel,
    /// Consumer pairs in the workload.
    pub consumer_pairs: usize,
    /// Nominal requests in the workload (batch size for closed-loop cells,
    /// expected arrivals for open-loop cells).
    pub requests: usize,
    /// How requests are drawn from the consumer pairs.
    pub discipline: PairSelection,
    /// Memory coherence time in seconds (`None` = ideal memories).
    pub coherence_time_s: Option<f64>,
    /// The link-physics model, for decoherent cells (`None` = ideal
    /// physics, omitted from JSON so legacy reports keep their bytes).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub physics: Option<PhysicsModel>,
    /// The traffic model, for open-loop cells (`None` = closed-loop batch,
    /// omitted from JSON so legacy reports keep their bytes).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub traffic: Option<TrafficModel>,
    /// The link fabric, for hardware-calibrated cells (`None` =
    /// homogeneous links, omitted from JSON so legacy reports keep their
    /// bytes).
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fabric: Option<FabricSpec>,
}

/// One runnable scenario: a cell plus a replicate index and derived seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Dense scenario id (`0..grid.scenario_count()`).
    pub id: usize,
    /// The cell this scenario belongs to.
    pub cell: usize,
    /// Replicate index within the cell (`0..replicates`).
    pub replicate: u32,
    /// The derived RNG seed.
    pub seed: u64,
    /// The fully assembled experiment configuration.
    pub config: ExperimentConfig,
}

/// A stable, content-derived identity for a [`ScenarioGrid`].
///
/// The fingerprint is an FNV-1a hash of the grid's canonical JSON
/// serialization — every axis value, the master seed, the replicate count
/// and the run parameters (horizon, generation and swap-scan rates). Two
/// grids have equal fingerprints exactly when they expand to the same
/// scenarios with the same seeds, which is the precondition for sharing
/// cached [`crate::runner::ScenarioOutcome`]s and for merging shard files:
/// outcomes are pure functions of `(fingerprint, scenario id)`.
///
/// Stability: the hash runs over JSON text produced by pure integer/float
/// formatting, so it is identical across platforms, rustc versions and
/// worker-thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridFingerprint(u64);

impl GridFingerprint {
    /// The raw 64-bit hash value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The canonical textual form: 16 lowercase hex digits (used in cache
    /// file names and report headers).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse the canonical 16-hex-digit form back.
    pub fn parse_hex(s: &str) -> Result<Self, String> {
        if s.len() != 16 {
            return Err(format!("fingerprint '{s}' is not 16 hex digits"));
        }
        u64::from_str_radix(s, 16)
            .map(GridFingerprint)
            .map_err(|_| format!("fingerprint '{s}' is not 16 hex digits"))
    }
}

impl std::fmt::Display for GridFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl Serialize for GridFingerprint {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_hex())
    }
}

impl Deserialize for GridFingerprint {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let s = value
            .as_str()
            .ok_or_else(|| serde::DeError::expected("fingerprint hex string", value))?;
        GridFingerprint::parse_hex(s).map_err(serde::DeError::custom)
    }
}

/// A declarative sweep: cartesian product of axes × replicates.
///
/// Serialization: the grid serializes to a self-describing JSON object (all
/// axes plus the master seed and run parameters) — the descriptor embedded
/// in shard files so `campaign merge` can re-derive cell keys and verify
/// that every shard ran the same sweep. [`ScenarioGrid::fingerprint`]
/// hashes exactly this serialization. The `physics` axis is emitted only
/// when it differs from the all-ideal default, so pre-physics grids keep
/// their exact canonical JSON — and therefore their fingerprints, cache
/// files and shard files — while any grid that sweeps physics necessarily
/// gets a distinct fingerprint (the cache-poisoning guard for the new
/// axis). The `fabrics` axis follows the same rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioGrid {
    /// Topology axis (outermost loop).
    pub topologies: Vec<Topology>,
    /// Swap-policy axis.
    pub modes: Vec<PolicyId>,
    /// Distillation-overhead axis (`D ≥ 1`).
    pub distillations: Vec<f64>,
    /// Knowledge-model axis.
    pub knowledge: Vec<KnowledgeModel>,
    /// Memory coherence-time axis (`None` = ideal memories). Affects only
    /// the static [`NetworkConfig::decoherence`] field; live pair decay is
    /// driven by the `physics` axis.
    pub coherence_times_s: Vec<Option<f64>>,
    /// Link-physics axis (`PhysicsModel::Ideal` = today's token model).
    #[serde(
        default = "ideal_physics_axis",
        skip_serializing_if = "is_ideal_physics_axis"
    )]
    pub physics: Vec<PhysicsModel>,
    /// Link-fabric axis (`None` = homogeneous links at the grid's
    /// `generation_rate`; `Some(spec)` attaches hardware-calibrated
    /// per-edge profiles).
    #[serde(
        default = "homogeneous_fabric_axis",
        skip_serializing_if = "is_homogeneous_fabric_axis"
    )]
    pub fabrics: Vec<Option<FabricSpec>>,
    /// Consumer pairs / request counts; `node_count` is patched per
    /// topology at expansion time.
    pub workloads: Vec<WorkloadSpec>,
    /// Replicates per cell (innermost loop).
    pub replicates: u32,
    /// Master seed all scenario seeds derive from.
    pub master_seed: u64,
    /// Simulated-time horizon per run, in seconds.
    pub max_sim_time_s: f64,
    /// Bell-pair generation rate on every generation edge.
    pub generation_rate: f64,
    /// Per-node swap-scan rate.
    pub swap_scan_rate: f64,
}

/// The default physics axis: ideal physics only. Grids on it omit the axis
/// from their canonical JSON, so pre-physics fingerprints stay valid.
fn ideal_physics_axis() -> Vec<PhysicsModel> {
    vec![PhysicsModel::Ideal]
}

fn is_ideal_physics_axis(axis: &[PhysicsModel]) -> bool {
    axis == [PhysicsModel::Ideal]
}

/// The default fabric axis: homogeneous links only, omitted from the
/// canonical JSON like the default physics axis.
fn homogeneous_fabric_axis() -> Vec<Option<FabricSpec>> {
    vec![None]
}

fn is_homogeneous_fabric_axis(axis: &[Option<FabricSpec>]) -> bool {
    axis == [None]
}

impl ScenarioGrid {
    /// A grid with the paper's §5 defaults on every axis: one cycle-9
    /// topology, oblivious mode, `D = 1`, global knowledge, ideal memories,
    /// the paper-default workload, one replicate.
    pub fn new(master_seed: u64) -> Self {
        ScenarioGrid {
            topologies: vec![Topology::Cycle { nodes: 9 }],
            modes: vec![PolicyId::OBLIVIOUS],
            distillations: vec![1.0],
            knowledge: vec![KnowledgeModel::Global],
            coherence_times_s: vec![None],
            physics: vec![PhysicsModel::Ideal],
            fabrics: vec![None],
            workloads: vec![WorkloadSpec::paper_default(9)],
            replicates: 1,
            master_seed,
            max_sim_time_s: 20_000.0,
            generation_rate: 1.0,
            swap_scan_rate: 4.0,
        }
    }

    /// Builder: set the topology axis.
    pub fn with_topologies(mut self, topologies: impl Into<Vec<Topology>>) -> Self {
        self.topologies = topologies.into();
        self.checked()
    }

    /// Builder: set the swap-policy axis.
    pub fn with_modes(mut self, modes: impl Into<Vec<PolicyId>>) -> Self {
        self.modes = modes.into();
        self.checked()
    }

    /// Builder: set the distillation axis.
    pub fn with_distillations(mut self, ds: impl Into<Vec<f64>>) -> Self {
        self.distillations = ds.into();
        self.checked()
    }

    /// Builder: set the knowledge-model axis.
    pub fn with_knowledge(mut self, ks: impl Into<Vec<KnowledgeModel>>) -> Self {
        self.knowledge = ks.into();
        self.checked()
    }

    /// Builder: set the coherence-time axis (`None` = ideal memories).
    /// This axis sets only the *static* [`NetworkConfig::decoherence`]
    /// field (the LP extensions); live pair decay comes from the physics
    /// axis, whose models carry their own coherence times, so a
    /// non-trivial coherence axis cannot combine with decoherent physics
    /// (see [`ScenarioGrid::check`]).
    pub fn with_coherence_times(mut self, ts: impl Into<Vec<Option<f64>>>) -> Self {
        self.coherence_times_s = ts.into();
        self.checked()
    }

    /// Builder: set the link-physics axis.
    pub fn with_physics(mut self, ps: impl Into<Vec<PhysicsModel>>) -> Self {
        self.physics = ps.into();
        self.checked()
    }

    /// Builder: set the link-fabric axis (`None` = homogeneous links).
    pub fn with_fabrics(mut self, fs: impl Into<Vec<Option<FabricSpec>>>) -> Self {
        self.fabrics = fs.into();
        self.checked()
    }

    /// Builder: set the workload axis.
    pub fn with_workloads(mut self, ws: impl Into<Vec<WorkloadSpec>>) -> Self {
        self.workloads = ws.into();
        self.checked()
    }

    /// Builder: set replicates per cell.
    pub fn with_replicates(mut self, replicates: u32) -> Self {
        self.replicates = replicates;
        self.checked()
    }

    /// Builder: set the per-run horizon.
    pub fn with_horizon_s(mut self, horizon: f64) -> Self {
        self.max_sim_time_s = horizon;
        self.checked()
    }

    /// Builder: set the generation rate.
    pub fn with_generation_rate(mut self, rate: f64) -> Self {
        self.generation_rate = rate;
        self.checked()
    }

    /// Builder: set the swap-scan rate.
    pub fn with_swap_scan_rate(mut self, rate: f64) -> Self {
        self.swap_scan_rate = rate;
        self.checked()
    }

    /// The rules every runnable grid satisfies: no axis is empty; every
    /// axis value passes its type's own `check` (topologies, knowledge
    /// models, physics models and workloads; modes and fabrics have no
    /// range rules); distillation overheads are `≥ 1` and coherence
    /// times positive, both finite; a non-trivial coherence-time
    /// axis does not combine with decoherent physics; there is at least
    /// one replicate; the horizon and both rates are positive and finite;
    /// and the generation and swap-scan intervals `1/rate` are at least one
    /// clock tick (1 ns), or a process would reschedule itself at the same
    /// instant forever (a positive gossip refresh period obeys the same
    /// rule, in [`KnowledgeModel::check`]). NaN fails every numeric rule.
    /// Every float that passes survives the JSON round trip (a non-finite
    /// one would be written as `null`).
    ///
    /// The builders panic when a rule fails; grid descriptors read from
    /// files (`--grid-file`, shard headers, orchestrator run directories)
    /// return the error instead, so bad input never reaches a worker
    /// thread.
    pub fn check(&self) -> Result<(), String> {
        if let Some(axis) = self.axis_lens().iter().position(|&len| len == 0) {
            return Err(format!("{} axis cannot be empty", AXIS_NAMES[axis]));
        }
        self.topologies.iter().try_for_each(Topology::check)?;
        if let Some(d) = self
            .distillations
            .iter()
            .find(|d| !(1.0..f64::INFINITY).contains(*d))
        {
            return Err(format!(
                "distillation overheads must be ≥ 1 and finite (got {d})"
            ));
        }
        self.knowledge.iter().try_for_each(KnowledgeModel::check)?;
        let positive = |x: f64| x > 0.0 && x.is_finite();
        if let Some(t) = self
            .coherence_times_s
            .iter()
            .flatten()
            .find(|&&t| !positive(t))
        {
            return Err(format!(
                "coherence times must be positive and finite (got {t})"
            ));
        }
        self.physics.iter().try_for_each(PhysicsModel::check)?;
        self.workloads.iter().try_for_each(WorkloadSpec::check)?;
        // A non-trivial coherence-time axis alongside decoherent physics
        // would sweep a knob the decoherent cells ignore (their models
        // carry their own coherence times), forking seeds and report rows
        // for identical simulations.
        if !self.coherence_times_s.iter().all(Option::is_none)
            && !self.physics.iter().all(PhysicsModel::is_ideal)
        {
            return Err(
                "a non-trivial coherence-time axis cannot combine with decoherent physics \
                 (decoherent models carry their own coherence times; sweep --physics instead)"
                    .to_string(),
            );
        }
        if self.replicates < 1 {
            return Err("need at least one replicate per cell".to_string());
        }
        for (what, value) in [
            ("horizon", self.max_sim_time_s),
            ("generation rate", self.generation_rate),
            ("swap scan rate", self.swap_scan_rate),
        ] {
            if !positive(value) {
                return Err(format!("{what} must be positive and finite (got {value})"));
            }
        }
        for (what, rate) in [
            ("generation", self.generation_rate),
            ("swap scan", self.swap_scan_rate),
        ] {
            if 1.0 / rate < 1e-9 {
                return Err(format!(
                    "{what} interval must be at least one 1 ns clock tick (got rate {rate})"
                ));
            }
        }
        Ok(())
    }

    /// Builders' tail: panic unless the grid passes [`ScenarioGrid::check`].
    fn checked(self) -> Self {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
        self
    }

    /// Parse a JSON grid descriptor (as `campaign orchestrate` writes it)
    /// and [`ScenarioGrid::check`] it.
    pub fn from_json(text: &str) -> Result<ScenarioGrid, String> {
        let grid: ScenarioGrid = serde_json::from_str(text).map_err(|e| e.to_string())?;
        grid.check()?;
        Ok(grid)
    }

    /// The content-derived identity of this grid: a stable hash of every
    /// axis, the master seed, the replicate count and the run parameters.
    ///
    /// Equal fingerprints ⇒ identical scenario expansion (same configs,
    /// same seeds, same ids), so `(fingerprint, scenario id)` addresses a
    /// [`crate::runner::ScenarioOutcome`] content-wise — the key of the
    /// outcome cache and the compatibility check for shard merging.
    pub fn fingerprint(&self) -> GridFingerprint {
        let canonical = serde_json::to_string(self).expect("grid serialization cannot fail");
        // FNV-1a over the canonical JSON bytes: pure integer arithmetic on
        // fixed constants, stable across platforms and rustc versions.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &byte in canonical.as_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        GridFingerprint(hash)
    }

    /// Number of distinct cells.
    pub fn cell_count(&self) -> usize {
        self.axis_lens().iter().product()
    }

    /// Total number of scenarios (`cells × replicates`).
    pub fn scenario_count(&self) -> usize {
        self.cell_count() * self.replicates as usize
    }

    /// The axis lengths in expansion order (topology outermost), the
    /// order [`AXIS_NAMES`] and [`ENVIRONMENT_AXES`] follow.
    fn axis_lens(&self) -> [usize; 8] {
        [
            self.topologies.len(),
            self.modes.len(),
            self.distillations.len(),
            self.knowledge.len(),
            self.coherence_times_s.len(),
            self.physics.len(),
            self.fabrics.len(),
            self.workloads.len(),
        ]
    }

    /// Row-major decode of a cell index into per-axis indices, in
    /// [`ScenarioGrid::axis_lens`] order.
    fn decode_cell(&self, cell: usize) -> [usize; 8] {
        let lens = self.axis_lens();
        let mut index = [0; 8];
        let mut rest = cell;
        for axis in (0..8).rev() {
            index[axis] = rest % lens[axis];
            rest /= lens[axis];
        }
        assert!(rest == 0, "cell index out of range");
        index
    }

    /// The *environment* index of a cell with per-axis indices `index`:
    /// its row-major coordinates along the [`ENVIRONMENT_AXES`] only,
    /// excluding the protocol axes (mode, knowledge).
    ///
    /// Scenario seeds derive from this index, so cells that differ only in
    /// protocol run on **identical graph instances, workloads and arrival
    /// randomness** — the oblivious-vs-planned ratio rows compare protocols
    /// on the same worlds.
    fn environment_index(&self, index: [usize; 8]) -> u64 {
        let lens = self.axis_lens();
        (0..8)
            .filter(|&axis| ENVIRONMENT_AXES[axis])
            .fold(0, |env, axis| env * lens[axis] + index[axis]) as u64
    }

    /// The report key of cell `cell`.
    pub fn cell_key(&self, cell: usize) -> CellKey {
        let [t, m, d, k, c, p, f, w] = self.decode_cell(cell);
        let (topology, physics, workload) =
            (self.topologies[t], self.physics[p], self.workloads[w]);
        CellKey {
            cell,
            topology: topology.label(),
            nodes: topology.node_count(),
            mode: self.modes[m],
            distillation: self.distillations[d],
            knowledge: self.knowledge[k],
            consumer_pairs: workload.consumer_pairs,
            requests: workload.nominal_requests(),
            discipline: workload.selection,
            coherence_time_s: self.coherence_times_s[c],
            physics: (!physics.is_ideal()).then_some(physics),
            traffic: workload.is_open_loop().then_some(workload.traffic),
            fabric: self.fabrics[f],
        }
    }

    /// All cell keys, in expansion order.
    pub fn cell_keys(&self) -> Vec<CellKey> {
        (0..self.cell_count()).map(|c| self.cell_key(c)).collect()
    }

    /// Materialise scenario `id`.
    ///
    /// # Panics
    /// Panics if `id >= scenario_count()`.
    pub fn scenario(&self, id: usize) -> Scenario {
        assert!(id < self.scenario_count(), "scenario id out of range");
        let replicates = self.replicates as usize;
        let cell = id / replicates;
        let replicate = (id % replicates) as u32;
        let index = self.decode_cell(cell);
        let [t, m, d, k, c, p, f, w] = index;
        let (topology, physics) = (self.topologies[t], self.physics[p]);

        let seed = derive_seed(
            self.master_seed,
            self.environment_index(index),
            replicate as u64,
        );
        let mut workload = self.workloads[w];
        workload.node_count = topology.node_count();

        let mut network = NetworkConfig::new(topology)
            .with_topology_seed(seed)
            .with_generation_rate(self.generation_rate)
            .with_swap_scan_rate(self.swap_scan_rate)
            .with_distillation(DistillationSpec::Uniform(self.distillations[d]));
        if let Some(t) = self.coherence_times_s[c] {
            network.decoherence = DecoherenceModel::with_coherence_time(t);
        }
        if !physics.is_ideal() {
            network = network.with_physics(physics);
        }
        if let Some(fabric) = self.fabrics[f] {
            network = network.with_fabric(fabric);
        }

        Scenario {
            id,
            cell,
            replicate,
            seed,
            config: ExperimentConfig {
                network,
                workload,
                mode: self.modes[m],
                knowledge: self.knowledge[k],
                seed,
                max_sim_time_s: self.max_sim_time_s,
            },
        }
    }

    /// Iterate over every scenario in id order.
    pub fn scenarios(&self) -> impl Iterator<Item = Scenario> + '_ {
        (0..self.scenario_count()).map(|id| self.scenario(id))
    }
}

/// SplitMix64-style mixing of the master seed with cell and replicate
/// indices. Stable across platforms and rustc versions: the derivation is
/// pure integer arithmetic on fixed constants.
pub fn derive_seed(master: u64, cell: u64, replicate: u64) -> u64 {
    let mut z = master
        ^ cell.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ replicate.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnet_sim::SimDuration;
    use serde::Value;

    fn small_grid() -> ScenarioGrid {
        ScenarioGrid::new(7)
            .with_topologies(vec![
                Topology::Cycle { nodes: 7 },
                Topology::TorusGrid { side: 3 },
            ])
            .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::PLANNED])
            .with_distillations(vec![1.0, 2.0])
            .with_workloads(vec![WorkloadSpec::closed_loop(0, 5, 6)])
            .with_replicates(3)
    }

    #[test]
    fn counts_multiply() {
        let g = small_grid();
        assert_eq!(g.cell_count(), 2 * 2 * 2);
        assert_eq!(g.scenario_count(), 8 * 3);
        assert_eq!(g.scenarios().count(), 24);
    }

    #[test]
    fn expansion_is_deterministic_and_dense() {
        let g = small_grid();
        let a: Vec<Scenario> = g.scenarios().collect();
        let b: Vec<Scenario> = g.scenarios().collect();
        assert_eq!(a, b);
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.id, i);
            assert_eq!(s.cell, i / 3);
            assert_eq!(s.replicate as usize, i % 3);
            // Workload node counts are patched to the topology.
            assert_eq!(s.config.workload.node_count, s.config.network.node_count());
        }
    }

    #[test]
    fn seeds_are_decorrelated_across_environments() {
        // Distinct (topology, distillation, coherence, workload, replicate)
        // coordinates must get distinct seeds; the mode axis shares them by
        // design (see `environment_paired_seeds_across_modes`).
        let g = small_grid();
        let mut seeds: Vec<u64> = g.scenarios().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        // 2 topologies × 2 distillations × 1 workload × 3 replicates.
        assert_eq!(seeds.len(), 2 * 2 * 3, "environment seed collision");
    }

    #[test]
    fn environment_paired_seeds_across_modes() {
        // Cells differing only in mode share seeds, graphs and workloads,
        // so oblivious-vs-planned ratios compare identical worlds.
        let g = small_grid();
        let scenarios: Vec<Scenario> = g.scenarios().collect();
        for a in &scenarios {
            for b in &scenarios {
                let ka = g.cell_key(a.cell);
                let kb = g.cell_key(b.cell);
                let same_env = ka.topology == kb.topology
                    && ka.distillation == kb.distillation
                    && ka.coherence_time_s == kb.coherence_time_s
                    && ka.physics == kb.physics
                    && ka.consumer_pairs == kb.consumer_pairs
                    && ka.requests == kb.requests
                    && ka.discipline == kb.discipline
                    && a.replicate == b.replicate;
                if same_env {
                    assert_eq!(a.seed, b.seed, "cells {} vs {}", a.cell, b.cell);
                    assert_eq!(
                        a.config.network.topology_seed,
                        b.config.network.topology_seed
                    );
                    // Identical workload materialisation follows from the
                    // shared seed.
                    assert_eq!(
                        a.config.workload.generate(a.seed),
                        b.config.workload.generate(b.seed)
                    );
                }
            }
        }
        // And the pairing is non-trivial: the grid really does have
        // same-environment cells in different modes.
        assert!(scenarios
            .iter()
            .any(|s| g.cell_key(s.cell).mode != PolicyId::OBLIVIOUS));
    }

    #[test]
    fn different_master_seeds_differ() {
        let a = small_grid();
        let mut b = small_grid();
        b.master_seed = 8;
        let sa: Vec<u64> = a.scenarios().map(|s| s.seed).collect();
        let sb: Vec<u64> = b.scenarios().map(|s| s.seed).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn cell_keys_match_scenarios() {
        let g = small_grid();
        for s in g.scenarios() {
            let key = g.cell_key(s.cell);
            assert_eq!(key.cell, s.cell);
            assert_eq!(key.topology, s.config.network.topology.label());
            assert_eq!(key.mode, s.config.mode);
            assert_eq!(key.distillation, s.config.network.distillation_overhead());
            assert_eq!(key.requests, s.config.workload.nominal_requests());
        }
        assert_eq!(g.cell_keys().len(), g.cell_count());
    }

    #[test]
    fn axes_decode_row_major() {
        let g = small_grid();
        // Cell 0: first value of every axis; last cell: last values.
        let first = g.cell_key(0);
        assert_eq!(first.topology, "cycle-7");
        assert_eq!(first.mode, PolicyId::OBLIVIOUS);
        assert_eq!(first.distillation, 1.0);
        let last = g.cell_key(g.cell_count() - 1);
        assert_eq!(last.topology, "torus-3x3");
        assert_eq!(last.mode, PolicyId::PLANNED);
        assert_eq!(last.distillation, 2.0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_scenario_panics() {
        let g = small_grid();
        let _ = g.scenario(g.scenario_count());
    }

    #[test]
    fn fingerprint_is_stable_and_content_derived() {
        let g = small_grid();
        // Deterministic across calls and across logically equal grids.
        assert_eq!(g.fingerprint(), g.fingerprint());
        assert_eq!(g.fingerprint(), small_grid().fingerprint());

        // Every descriptor component moves the fingerprint.
        let base = g.fingerprint();
        let mut seed = small_grid();
        seed.master_seed += 1;
        assert_ne!(seed.fingerprint(), base, "master seed");
        assert_ne!(
            small_grid().with_replicates(4).fingerprint(),
            base,
            "replicates"
        );
        assert_ne!(
            small_grid().with_horizon_s(123.0).fingerprint(),
            base,
            "horizon"
        );
        assert_ne!(
            small_grid().with_swap_scan_rate(8.0).fingerprint(),
            base,
            "swap-scan rate"
        );
        assert_ne!(
            small_grid().with_generation_rate(2.0).fingerprint(),
            base,
            "generation rate"
        );
        assert_ne!(
            small_grid()
                .with_modes(vec![PolicyId::OBLIVIOUS])
                .fingerprint(),
            base,
            "mode axis"
        );
        assert_ne!(
            small_grid()
                .with_workloads(vec![WorkloadSpec::open_loop(0, 5, 2.0, 10.0)])
                .fingerprint(),
            base,
            "workload axis"
        );
        assert_ne!(
            small_grid()
                .with_physics(vec![PhysicsModel::decoherent(1.0)])
                .fingerprint(),
            base,
            "physics axis"
        );
    }

    #[test]
    #[should_panic]
    fn coherence_axis_cannot_combine_with_decoherent_physics() {
        // The static coherence axis is ignored by decoherent cells (their
        // physics carries its own T2); sweeping both would fork seeds for
        // identical simulations.
        let _ = small_grid()
            .with_physics(vec![PhysicsModel::decoherent(0.5)])
            .with_coherence_times(vec![None, Some(5.0)]);
    }

    /// Descriptors that break one builder rule each: the reader rejects
    /// them with the rule's message, where running them used to panic a
    /// worker thread.
    #[test]
    fn descriptors_breaking_a_builder_rule_are_rejected() {
        let valid = serde_json::to_value(&small_grid()).unwrap();
        let closed = |fields: &str| {
            format!(
                r#"[{{"node_count":0,"consumer_pairs":5,{fields},"discipline":"UniformRandom"}}]"#
            )
        };
        let open = |rate: &str, horizon: &str| {
            closed(&format!(
                r#""traffic":{{"OpenLoopPoisson":{{"rate_hz":{rate},"horizon_s":{horizon}}}}}"#
            ))
        };
        let decoherent = |f0: &str, t2: &str, cutoff: &str, floor: &str| {
            format!(
                r#"[{{"Decoherent":{{"initial_fidelity":{f0},"coherence_time_s":{t2},"cutoff_s":{cutoff},"fidelity_floor":{floor},"order":"OldestFirst"}}}}]"#
            )
        };
        for (key, bad, message) in [
            (
                "distillations",
                "[0.5]".to_string(),
                "distillation overheads must be ≥ 1",
            ),
            (
                "generation_rate",
                "0".to_string(),
                "generation rate must be positive",
            ),
            (
                "swap_scan_rate",
                "0".to_string(),
                "swap scan rate must be positive",
            ),
            (
                "topologies",
                r#"[{"Cycle":{"nodes":1}}]"#.to_string(),
                "fewer than 2 nodes",
            ),
            (
                "topologies",
                r#"[{"ErdosRenyiConnected":{"nodes":9,"edge_probability":2.0}}]"#.to_string(),
                "needs a probability P in [0, 1]",
            ),
            (
                "topologies",
                r#"[{"WattsStrogatz":{"nodes":9,"neighbors":3,"rewire_probability":0.2}}]"#
                    .to_string(),
                "needs an even ring degree K",
            ),
            (
                "topologies",
                r#"[{"ScaleFree":{"nodes":5,"attach":10}}]"#.to_string(),
                "needs an attachment M in",
            ),
            (
                "knowledge",
                r#"[{"Gossip":{"peers_per_refresh":0}}]"#.to_string(),
                "gossip peer count must be at least 1",
            ),
            (
                "knowledge",
                r#"[{"Gossip":{"peers_per_refresh":2,"refresh_period_s":-1.0}}]"#.to_string(),
                "gossip refresh period must be finite and ≥ 0",
            ),
            (
                "coherence_times_s",
                "[-3.0]".to_string(),
                "coherence times must be positive",
            ),
            (
                "physics",
                decoherent("0.98", "-1.0", "null", "null"),
                "coherence time must be positive and finite",
            ),
            (
                "physics",
                decoherent("0.98", "1.0", "null", "0.99"),
                "fidelity floor must be in [0.25, 0.98)",
            ),
            (
                "physics",
                decoherent("5.0", "1.0", "null", "null"),
                "initial fidelity must be in [0.25, 1]",
            ),
            (
                "physics",
                decoherent("0.98", "1.0", "-1.0", "null"),
                "cutoff age must be positive",
            ),
            (
                "workloads",
                closed(r#""requests":0"#),
                "a closed-loop batch needs at least one request",
            ),
            (
                "workloads",
                open("0.0", "10.0"),
                "open-loop arrival rate must be positive",
            ),
            (
                "workloads",
                open("2.0", "-1.0"),
                "open-loop arrival horizon must be positive",
            ),
            (
                "workloads",
                closed(r#""requests":6"#)
                    .replace(r#""UniformRandom""#, r#"{"ZipfSkew":{"s":-1.0}}"#),
                "Zipf exponent must be finite and ≥ 0",
            ),
            (
                "workloads",
                closed(r#""requests":6"#).replace(r#""consumer_pairs":5"#, r#""consumer_pairs":0"#),
                "at least one consumer pair",
            ),
            // 1e400 parses as +inf. A 1e10 Hz scan would reschedule itself
            // at the same nanosecond forever.
            (
                "swap_scan_rate",
                "1e400".to_string(),
                "swap scan rate must be positive and finite (got inf)",
            ),
            (
                "swap_scan_rate",
                "1e10".to_string(),
                "swap scan interval must be at least one 1 ns clock tick",
            ),
            // Periodic generation at 1e10 Hz, or a 1e-12 s gossip period,
            // rounds its interval to 0 ns the same way.
            (
                "generation_rate",
                "1e10".to_string(),
                "generation interval must be at least one 1 ns clock tick",
            ),
            (
                "knowledge",
                r#"[{"Gossip":{"peers_per_refresh":2,"refresh_period_s":1e-12}}]"#.to_string(),
                "a positive gossip refresh period must be at least one 1 ns clock tick",
            ),
            (
                "generation_rate",
                "1e400".to_string(),
                "generation rate must be positive and finite (got inf)",
            ),
            (
                "max_sim_time_s",
                "1e400".to_string(),
                "horizon must be positive and finite (got inf)",
            ),
            (
                "distillations",
                "[1e400]".to_string(),
                "distillation overheads must be ≥ 1 and finite (got inf)",
            ),
            (
                "coherence_times_s",
                "[1e400]".to_string(),
                "coherence times must be positive and finite (got inf)",
            ),
        ] {
            // The bad value is spliced in as raw text: a parsed non-finite
            // float would be written back as `null`.
            const SLOT: &str = "bad value slot";
            let mut descriptor = valid.clone();
            let Value::Map(entries) = &mut descriptor else {
                unreachable!("grids serialize to objects")
            };
            let slot = Value::Str(SLOT.to_string());
            match entries.iter_mut().find(|(k, _)| k == key) {
                Some(entry) => entry.1 = slot,
                None => entries.push((key.to_string(), slot)),
            }
            let text = serde_json::to_string(&descriptor)
                .unwrap()
                .replace(&format!("\"{SLOT}\""), &bad);
            let err = ScenarioGrid::from_json(&text).unwrap_err();
            assert!(err.contains(message), "{key}: {err}");
        }
        assert_eq!(
            ScenarioGrid::from_json(&serde_json::to_string(&valid).unwrap()).unwrap(),
            small_grid()
        );
    }

    #[test]
    fn only_environment_axes_move_the_seeds() {
        use qnet_topology::HardwarePreset;
        let base = ScenarioGrid::new(7)
            .with_workloads(vec![WorkloadSpec::closed_loop(0, 5, 6)])
            .with_replicates(2);
        let seeds = |g: &ScenarioGrid| g.scenarios().map(|s| s.seed).collect::<Vec<u64>>();
        // Each grid gives one axis a second value; its first value is the
        // base grid's, so cell 0 is the base cell.
        for (axis, grid) in [
            (
                "topology",
                base.clone().with_topologies(vec![
                    Topology::Cycle { nodes: 9 },
                    Topology::Cycle { nodes: 7 },
                ]),
            ),
            (
                "mode",
                base.clone()
                    .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::PLANNED]),
            ),
            (
                "distillation",
                base.clone().with_distillations(vec![1.0, 2.0]),
            ),
            (
                "knowledge",
                base.clone().with_knowledge(vec![
                    KnowledgeModel::Global,
                    KnowledgeModel::Gossip {
                        peers_per_refresh: 2,
                        refresh_period_s: 0.0,
                    },
                ]),
            ),
            (
                "coherence-time",
                base.clone().with_coherence_times(vec![None, Some(5.0)]),
            ),
            (
                "physics",
                base.clone()
                    .with_physics(vec![PhysicsModel::Ideal, PhysicsModel::decoherent(1.0)]),
            ),
            (
                "fabric",
                base.clone()
                    .with_fabrics(vec![None, Some(FabricSpec::new(HardwarePreset::Lab))]),
            ),
            (
                "workload",
                base.clone().with_workloads(vec![
                    WorkloadSpec::closed_loop(0, 5, 6),
                    WorkloadSpec::closed_loop(0, 5, 7),
                ]),
            ),
        ] {
            let position = AXIS_NAMES.iter().position(|name| *name == axis).unwrap();
            assert_eq!(grid.axis_lens()[position], 2, "{axis} is axis {position}");
            assert_eq!(grid.cell_count(), 2, "{axis}");
            let all = seeds(&grid);
            let (first, second) = all.split_at(2);
            assert_eq!(
                first,
                seeds(&base),
                "{axis}: the first value keeps the seeds"
            );
            let environment = !matches!(axis, "mode" | "knowledge");
            assert_eq!(first != second, environment, "{axis}");
        }
    }

    #[test]
    fn physics_axis_moves_the_fingerprint_and_cache_key() {
        // The cache-poisoning guard for the new axis: two grids identical
        // in every respect except the physics model must content-address
        // different outcome sets.
        let ideal = small_grid();
        let decoherent = small_grid().with_physics(vec![PhysicsModel::decoherent(0.5)]);
        assert_ne!(ideal.fingerprint(), decoherent.fingerprint());
        // Even two decoherent variants that differ only in a knob diverge.
        let floored =
            small_grid().with_physics(vec![PhysicsModel::decoherent(0.5).with_fidelity_floor(0.7)]);
        assert_ne!(decoherent.fingerprint(), floored.fingerprint());
        // And the all-ideal axis is canonical: it serializes identically to
        // a pre-physics grid (no `physics` key), so legacy fingerprints —
        // and therefore legacy cache and shard files — remain valid.
        assert!(ideal.to_value().get_field("physics").is_none());
        assert!(decoherent.to_value().get_field("physics").is_some());
    }

    #[test]
    fn physics_axis_expands_and_seeds_like_an_environment_axis() {
        let g = small_grid()
            .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::PLANNED])
            .with_physics(vec![PhysicsModel::Ideal, PhysicsModel::decoherent(1.0)]);
        assert_eq!(g.cell_count(), 2 * 2 * 2 * 2);
        // Ideal cells omit the key's physics; decoherent cells carry it.
        let ideal_cells = (0..g.cell_count())
            .map(|c| g.cell_key(c))
            .filter(|k| k.physics.is_none())
            .count();
        assert_eq!(ideal_cells, g.cell_count() / 2);
        // The physics axis is part of the environment: two cells that
        // differ only in physics get distinct seeds; two cells that differ
        // only in mode share them.
        let mut mode_pairs = 0;
        let mut physics_pairs = 0;
        for a in g.scenarios() {
            for b in g.scenarios() {
                let (ka, kb) = (g.cell_key(a.cell), g.cell_key(b.cell));
                if a.replicate != b.replicate || a.cell == b.cell {
                    continue;
                }
                let same_world_except_physics = ka.topology == kb.topology
                    && ka.distillation == kb.distillation
                    && ka.coherence_time_s == kb.coherence_time_s
                    && ka.consumer_pairs == kb.consumer_pairs
                    && ka.requests == kb.requests
                    && ka.discipline == kb.discipline;
                if !same_world_except_physics {
                    continue;
                }
                if ka.mode != kb.mode && ka.physics == kb.physics {
                    assert_eq!(a.seed, b.seed, "mode must not move the seed");
                    mode_pairs += 1;
                }
                if ka.mode == kb.mode && ka.physics != kb.physics {
                    assert_ne!(a.seed, b.seed, "physics must move the seed");
                    physics_pairs += 1;
                }
            }
        }
        assert!(
            mode_pairs > 0 && physics_pairs > 0,
            "pairing is non-trivial"
        );
        // Decoherent scenarios carry the physics into the network config.
        let decoherent = g
            .scenarios()
            .find(|s| !s.config.network.physics.is_ideal())
            .expect("half the grid is decoherent");
        assert_eq!(
            decoherent.config.network.physics,
            PhysicsModel::decoherent(1.0)
        );
        assert_eq!(decoherent.config.network.decoherence.coherence_time_s, 1.0);
    }

    #[test]
    fn fabric_axis_moves_the_fingerprint_and_stays_canonical_when_absent() {
        use qnet_topology::HardwarePreset;
        // The cache-poisoning guard for the fabric axis: adding a fabric
        // must content-address a different outcome set...
        let plain = small_grid();
        let fabric =
            small_grid().with_fabrics(vec![Some(FabricSpec::new(HardwarePreset::MetroFiber))]);
        assert_ne!(plain.fingerprint(), fabric.fingerprint());
        // ...and two presets diverge from each other.
        let lab = small_grid().with_fabrics(vec![Some(FabricSpec::new(HardwarePreset::Lab))]);
        assert_ne!(fabric.fingerprint(), lab.fingerprint());
        // The all-homogeneous axis is canonical: no `fabrics` key, so
        // pre-fabric fingerprints, cache files and shard files stay valid.
        assert!(plain.to_value().get_field("fabrics").is_none());
        assert!(fabric.to_value().get_field("fabrics").is_some());
    }

    #[test]
    fn fabric_axis_expands_and_seeds_like_an_environment_axis() {
        use qnet_topology::HardwarePreset;
        let g = small_grid().with_fabrics(vec![
            None,
            Some(FabricSpec::new(HardwarePreset::MetroFiber)),
        ]);
        assert_eq!(g.cell_count(), 2 * 2 * 2 * 2);
        // Homogeneous cells omit the key's fabric; calibrated cells carry it.
        let plain_cells = (0..g.cell_count())
            .map(|c| g.cell_key(c))
            .filter(|k| k.fabric.is_none())
            .count();
        assert_eq!(plain_cells, g.cell_count() / 2);
        // The fabric axis is part of the environment: two cells that differ
        // only in fabric get distinct seeds.
        let mut fabric_pairs = 0;
        for a in g.scenarios() {
            for b in g.scenarios() {
                let (ka, kb) = (g.cell_key(a.cell), g.cell_key(b.cell));
                if a.replicate != b.replicate || a.cell == b.cell {
                    continue;
                }
                if ka.topology == kb.topology
                    && ka.mode == kb.mode
                    && ka.distillation == kb.distillation
                    && ka.fabric != kb.fabric
                {
                    assert_ne!(a.seed, b.seed, "fabric must move the seed");
                    fabric_pairs += 1;
                }
            }
        }
        assert!(fabric_pairs > 0, "pairing is non-trivial");
        // Calibrated scenarios carry the fabric into the network config.
        let calibrated = g
            .scenarios()
            .find(|s| s.config.network.fabric.is_some())
            .expect("half the grid is calibrated");
        assert_eq!(
            calibrated.config.network.fabric,
            Some(FabricSpec::new(HardwarePreset::MetroFiber))
        );
        // The grid round-trips with the axis intact.
        let text = serde_json::to_string(&g).unwrap();
        let back: ScenarioGrid = serde_json::from_str(&text).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.fingerprint(), g.fingerprint());
    }

    #[test]
    fn fingerprint_hex_round_trips() {
        let fp = small_grid().fingerprint();
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 16);
        assert_eq!(GridFingerprint::parse_hex(&hex).unwrap(), fp);
        assert!(GridFingerprint::parse_hex("xyz").is_err());
        assert!(GridFingerprint::parse_hex("").is_err());
        // Serde round-trip through the string form.
        let back: GridFingerprint = serde::Deserialize::from_value(&fp.to_value()).unwrap();
        assert_eq!(back, fp);
    }

    #[test]
    fn grid_serialization_round_trips_with_fingerprint_intact() {
        let g = small_grid().with_workloads(vec![
            WorkloadSpec::closed_loop(0, 5, 6),
            WorkloadSpec::open_loop(0, 5, 2.0, 10.0)
                .with_discipline(PairSelection::ZipfSkew { s: 1.1 }),
        ]);
        let text = serde_json::to_string(&g).unwrap();
        let back: ScenarioGrid = serde_json::from_str(&text).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.fingerprint(), g.fingerprint());
        // The re-expanded scenarios are identical too.
        let a: Vec<Scenario> = g.scenarios().collect();
        let b: Vec<Scenario> = back.scenarios().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn open_loop_workloads_join_the_axis() {
        use qnet_core::workload::PairSelection;
        let g = small_grid().with_workloads(vec![
            WorkloadSpec::closed_loop(0, 5, 6),
            WorkloadSpec::open_loop(0, 5, 2.0, 10.0)
                .with_discipline(PairSelection::ZipfSkew { s: 1.1 }),
        ]);
        assert_eq!(g.cell_count(), 2 * 2 * 2 * 2);
        let closed = g.cell_key(0);
        assert_eq!(closed.traffic, None);
        assert_eq!(closed.requests, 6);
        let open = g.cell_key(1);
        assert_eq!(
            open.traffic,
            Some(TrafficModel::OpenLoopPoisson {
                rate_hz: 2.0,
                horizon_s: 10.0
            })
        );
        assert_eq!(open.requests, 20, "nominal = rate × horizon");
        assert_eq!(open.discipline, PairSelection::ZipfSkew { s: 1.1 });
        // The workload axis is part of the environment: closed- and
        // open-loop cells in the same mode get distinct seeds.
        let (a, b) = (g.scenario(0), g.scenario(g.replicates as usize));
        assert_eq!(a.cell, 0);
        assert_eq!(b.cell, 1);
        assert_ne!(a.seed, b.seed);
    }

    /// Floats a grid descriptor may carry: in range, out of range,
    /// non-finite (`1e400` parses as +inf, which a JSON round trip turns
    /// into `null`), and past the clock-tick limit of the rates and the
    /// gossip period.
    const FLOATS: [f64; 10] = [
        2.5,
        0.0,
        -1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1e10,
        1e300,
        5e-324,
        1e-12,
    ];

    /// `small_grid` with each float field taken from `values` where it
    /// holds one (`None` keeps the field's value).
    fn grid_with_floats(values: [Option<f64>; 6]) -> ScenarioGrid {
        let mut grid = small_grid();
        let [distillation, coherence, horizon, generation, scan, period] = values;
        grid.distillations = vec![1.0, distillation.unwrap_or(2.0)];
        grid.coherence_times_s = vec![coherence];
        grid.max_sim_time_s = horizon.unwrap_or(grid.max_sim_time_s);
        grid.generation_rate = generation.unwrap_or(grid.generation_rate);
        grid.swap_scan_rate = scan.unwrap_or(grid.swap_scan_rate);
        grid.knowledge = vec![KnowledgeModel::Gossip {
            peers_per_refresh: 1,
            refresh_period_s: period.unwrap_or(0.0),
        }];
        grid
    }

    proptest::proptest! {
        /// Every grid that passes `check` reads back from its own JSON
        /// descriptor (as `--grid-file`, shard headers and orchestrator
        /// run directories carry it) with an equal fingerprint, and none
        /// of its periodic processes (generation, swap scans, gossip
        /// exchanges) has an interval that rounds to 0 ns. Each case
        /// puts one of [`FLOATS`] into each float field in turn, then
        /// mixes values across all six fields.
        #[test]
        fn checked_grids_survive_the_json_round_trip(
            value in 0usize..FLOATS.len(),
            picks in proptest::collection::vec(0usize..2 * FLOATS.len(), 6),
        ) {
            let mut grids: Vec<ScenarioGrid> = (0..6)
                .map(|field| {
                    let mut values = [None; 6];
                    values[field] = Some(FLOATS[value]);
                    grid_with_floats(values)
                })
                .collect();
            grids.push(grid_with_floats(std::array::from_fn(|field| {
                FLOATS.get(picks[field]).copied()
            })));
            for grid in grids.into_iter().filter(|grid| grid.check().is_ok()) {
                let KnowledgeModel::Gossip { refresh_period_s, .. } = grid.knowledge[0] else {
                    unreachable!("grid_with_floats sets gossip knowledge")
                };
                let period = if refresh_period_s > 0.0 {
                    refresh_period_s
                } else {
                    1.0 / grid.swap_scan_rate
                };
                for interval in [1.0 / grid.generation_rate, 1.0 / grid.swap_scan_rate, period] {
                    proptest::prop_assert!(!SimDuration::from_secs_f64(interval).is_zero(), "{:?}", grid);
                }
                let text = serde_json::to_string(&grid).unwrap();
                let back = ScenarioGrid::from_json(&text);
                proptest::prop_assert!(back.is_ok(), "{:?} from {}", back, text);
                proptest::prop_assert_eq!(back.unwrap().fingerprint(), grid.fingerprint());
            }
        }
    }
}
