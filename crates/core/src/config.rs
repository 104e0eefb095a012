//! Network configuration.
//!
//! [`NetworkConfig`] bundles everything the simulation and the LP model need
//! to know about the physical substrate: the generation-graph topology, the
//! per-edge generation rate, the per-node swap-scan rate, and the overhead
//! models of §3.2 (distillation `D`, loss `L`, QEC `R`) plus optional memory
//! decoherence parameters used by the transport-layer extensions.

use crate::physics::PhysicsModel;
use crate::rates::RateMatrices;
use qnet_quantum::decoherence::DecoherenceModel;
use qnet_quantum::distill::{overhead_factor, DistillationProtocol};
use qnet_topology::{FabricSpec, Graph, LinkFabric, Topology};
use serde::{Deserialize, Serialize};

/// How the distillation overhead `D_{x,y}` is specified.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DistillationSpec {
    /// A uniform overhead applied to every pair (the paper's evaluation uses
    /// `D ∈ {1, 2, 3, …}`; `D = 1` means "no distillation needed").
    Uniform(f64),
    /// Derive the overhead from physics: raw pairs of fidelity `raw_fidelity`
    /// must be pumped to at least `target_fidelity` with the BBPSSW
    /// recurrence ([`qnet_quantum::distill`]).
    FromFidelity {
        /// Fidelity of freshly generated pairs.
        raw_fidelity: f64,
        /// Fidelity required before a pair may be consumed or swapped.
        target_fidelity: f64,
    },
}

impl DistillationSpec {
    /// Resolve the spec to a numeric overhead factor `D ≥ 1`.
    pub fn overhead(&self) -> f64 {
        match *self {
            DistillationSpec::Uniform(d) => {
                assert!(d >= 1.0, "distillation overhead must be ≥ 1");
                d
            }
            DistillationSpec::FromFidelity {
                raw_fidelity,
                target_fidelity,
            } => overhead_factor(DistillationProtocol::Bbpssw, raw_fidelity, target_fidelity)
                .expect("target fidelity unreachable from the raw fidelity")
                .max(1.0),
        }
    }
}

/// Full description of the simulated quantum network.
///
/// All-scalar and `Copy`: cloning is a register-width memcpy, so sweep
/// engines (`qnet-campaign`) can fan thousands of configs across worker
/// threads without allocation.
///
/// Serialization: the `physics` field is emitted only when it is not
/// [`PhysicsModel::Ideal`] and the `fabric` field only when set, so
/// pre-physics configs keep their exact bytes and legacy JSON deserializes
/// with ideal physics and homogeneous links implied.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Generation-graph topology recipe.
    pub topology: Topology,
    /// Seed used to instantiate random topologies.
    pub topology_seed: u64,
    /// Bell-pair generation rate on every generation edge (pairs per second).
    pub generation_rate: f64,
    /// Whether generation events arrive as a Poisson process (true) or at
    /// fixed intervals (false).
    pub poisson_generation: bool,
    /// Rate at which each node runs its swap scan (scans per second).
    pub swap_scan_rate: f64,
    /// Distillation overhead specification (the paper's `D`).
    pub distillation: DistillationSpec,
    /// Loss factor `L ≥ 1` of §3.2: for every usable arrival, `L` raw
    /// arrivals are needed (decoherence-induced discard).
    pub loss_factor: f64,
    /// QEC overhead `R ≥ 1` of §3.2: generation is thinned by this factor.
    pub qec_overhead: f64,
    /// Memory decoherence model (used by transport-layer cutoff extensions;
    /// the paper's core evaluation assumes ideal memories).
    pub decoherence: DecoherenceModel,
    /// Optional per-node buffer limit on stored qubit halves (`None` models
    /// the paper's limitless buffers).
    pub buffer_limit: Option<u64>,
    /// The physical model stored pairs obey during the live simulation:
    /// ageless tokens ([`PhysicsModel::Ideal`], the default — the paper's
    /// semantics, byte-identical results) or fidelity-tracked, decaying
    /// memories ([`PhysicsModel::Decoherent`]).
    #[serde(default, skip_serializing_if = "PhysicsModel::is_ideal")]
    pub physics: PhysicsModel,
    /// Optional heterogeneous link fabric: a hardware preset realized into
    /// per-edge [`qnet_topology::LinkProfile`]s over the built graph. `None`
    /// (the default) keeps the paper's homogeneous links and the legacy
    /// serialized bytes; `Some` gives every edge its own generation rate
    /// and — under decoherent physics — its own birth fidelity and `T2`.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub fabric: Option<FabricSpec>,
}

impl NetworkConfig {
    /// A configuration matching the paper's §5 defaults for the given
    /// topology: `g = 1` on every generation edge, Poisson generation,
    /// uniform `D = 1`, no loss, no QEC, ideal memories, unlimited buffers.
    pub fn new(topology: Topology) -> Self {
        NetworkConfig {
            topology,
            topology_seed: 0,
            generation_rate: 1.0,
            poisson_generation: true,
            swap_scan_rate: 4.0,
            distillation: DistillationSpec::Uniform(1.0),
            loss_factor: 1.0,
            qec_overhead: 1.0,
            decoherence: DecoherenceModel::ideal(),
            buffer_limit: None,
            physics: PhysicsModel::Ideal,
            fabric: None,
        }
    }

    /// Builder: set the topology seed.
    pub fn with_topology_seed(mut self, seed: u64) -> Self {
        self.topology_seed = seed;
        self
    }

    /// Builder: set the per-edge generation rate.
    pub fn with_generation_rate(mut self, rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "generation rate must be positive and finite"
        );
        self.generation_rate = rate;
        self
    }

    /// Builder: set the per-node swap-scan rate.
    pub fn with_swap_scan_rate(mut self, rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "swap scan rate must be positive and finite"
        );
        self.swap_scan_rate = rate;
        self
    }

    /// Builder: set the distillation spec.
    pub fn with_distillation(mut self, spec: DistillationSpec) -> Self {
        self.distillation = spec;
        self
    }

    /// Builder: set the §3.2 loss factor.
    pub fn with_loss_factor(mut self, loss: f64) -> Self {
        assert!(loss >= 1.0, "loss factor must be ≥ 1");
        self.loss_factor = loss;
        self
    }

    /// Builder: set the §3.2 QEC overhead.
    pub fn with_qec_overhead(mut self, overhead: f64) -> Self {
        assert!(overhead >= 1.0, "QEC overhead must be ≥ 1");
        self.qec_overhead = overhead;
        self
    }

    /// Builder: use fixed-interval rather than Poisson generation.
    pub fn with_deterministic_generation(mut self) -> Self {
        self.poisson_generation = false;
        self
    }

    /// Builder: cap per-node buffers.
    pub fn with_buffer_limit(mut self, limit: u64) -> Self {
        self.buffer_limit = Some(limit);
        self
    }

    /// Builder: set the link-physics model. For decoherent physics the
    /// static [`NetworkConfig::decoherence`] field is kept consistent with
    /// the model's coherence time (the LP extensions and the live lot store
    /// then describe the same memories).
    pub fn with_physics(mut self, physics: PhysicsModel) -> Self {
        self.physics = physics;
        self.decoherence = physics.decoherence_model();
        self
    }

    /// Builder: attach a heterogeneous link fabric. Per-edge generation
    /// rates replace the uniform [`NetworkConfig::generation_rate`], and
    /// under decoherent physics each edge also gets its own birth fidelity
    /// and memory coherence time. The preset also calibrates the node
    /// hardware around the links: [`NetworkConfig::swap_scan_rate`] is set
    /// to the preset's control-plane cadence and
    /// [`NetworkConfig::buffer_limit`] to its quantum-memory budget (call
    /// the respective builders *after* this to override either).
    pub fn with_fabric(mut self, fabric: FabricSpec) -> Self {
        self.fabric = Some(fabric);
        self.swap_scan_rate = fabric.preset.swap_scan_rate_hz();
        self.buffer_limit = fabric.preset.memory_qubits_per_node();
        self
    }

    /// Realize the configured fabric over the built graph (`None` when the
    /// config is homogeneous). Deterministic in `(topology, topology_seed,
    /// preset)`.
    pub fn build_fabric(&self, graph: &Graph) -> Option<LinkFabric> {
        self.fabric
            .map(|spec| spec.realize(&self.topology, graph, self.topology_seed))
    }

    /// Number of nodes in the configured topology.
    pub fn node_count(&self) -> usize {
        self.topology.node_count()
    }

    /// The resolved distillation overhead `D`.
    pub fn distillation_overhead(&self) -> f64 {
        self.distillation.overhead()
    }

    /// Number of raw pairs a swap or consumption must draw from a pool:
    /// `⌈D⌉` (the integer the discrete simulation uses; the LP uses the
    /// real-valued `D`).
    pub fn pairs_per_distilled(&self) -> u64 {
        self.distillation_overhead().ceil() as u64
    }

    /// Instantiate the generation graph.
    pub fn build_graph(&self) -> Graph {
        self.topology.build(self.topology_seed)
    }

    /// The rate matrices implied by this configuration (uniform generation on
    /// the generation graph, QEC-thinned; consumption left at zero — the
    /// discrete workload drives consumption in simulation, while LP
    /// experiments set consumption rates explicitly).
    pub fn rate_matrices(&self) -> RateMatrices {
        let graph = self.build_graph();
        RateMatrices::uniform_generation(&graph, self.generation_rate)
            .with_qec_thinning(self.qec_overhead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = NetworkConfig::new(Topology::Cycle { nodes: 25 });
        assert_eq!(c.node_count(), 25);
        assert_eq!(c.generation_rate, 1.0);
        assert_eq!(c.distillation_overhead(), 1.0);
        assert_eq!(c.pairs_per_distilled(), 1);
        assert_eq!(c.loss_factor, 1.0);
        assert_eq!(c.qec_overhead, 1.0);
        assert!(c.buffer_limit.is_none());
        let g = c.build_graph();
        assert_eq!(g.node_count(), 25);
        assert_eq!(g.edge_count(), 25);
    }

    #[test]
    fn builder_chain() {
        let c = NetworkConfig::new(Topology::TorusGrid { side: 4 })
            .with_topology_seed(9)
            .with_generation_rate(2.0)
            .with_swap_scan_rate(8.0)
            .with_distillation(DistillationSpec::Uniform(3.0))
            .with_loss_factor(1.5)
            .with_qec_overhead(2.0)
            .with_deterministic_generation()
            .with_buffer_limit(64);
        assert_eq!(c.topology_seed, 9);
        assert_eq!(c.generation_rate, 2.0);
        assert_eq!(c.swap_scan_rate, 8.0);
        assert_eq!(c.distillation_overhead(), 3.0);
        assert_eq!(c.pairs_per_distilled(), 3);
        assert!(!c.poisson_generation);
        assert_eq!(c.buffer_limit, Some(64));
        // QEC thinning shows up in the rate matrices.
        let r = c.rate_matrices();
        let e = r.generation_pairs()[0];
        assert!((r.generation(e) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fidelity_derived_distillation() {
        let spec = DistillationSpec::FromFidelity {
            raw_fidelity: 0.85,
            target_fidelity: 0.95,
        };
        let d = spec.overhead();
        assert!(d > 1.0, "pumping 0.85 → 0.95 requires real work, got {d}");
        let c = NetworkConfig::new(Topology::Cycle { nodes: 5 }).with_distillation(spec);
        assert!(c.pairs_per_distilled() >= 2);
    }

    #[test]
    fn ideal_physics_keeps_the_legacy_serialized_bytes() {
        let c = NetworkConfig::new(Topology::Cycle { nodes: 5 });
        let v = c.to_value();
        assert!(v.get_field("physics").is_none(), "ideal omits physics");
        assert!(v.get_field("fabric").is_none(), "no fabric omits fabric");
        // A legacy document (no physics key) loads with ideal implied.
        let back = NetworkConfig::from_value(&v).unwrap();
        assert!(back.physics.is_ideal());
        assert!(back.fabric.is_none());
        assert_eq!(back.topology, c.topology);
    }

    #[test]
    fn fabric_round_trips_and_realizes_per_edge_profiles() {
        use qnet_topology::HardwarePreset;
        let spec = FabricSpec::new(HardwarePreset::MetroFiber);
        let c = NetworkConfig::new(Topology::Cycle { nodes: 7 })
            .with_topology_seed(3)
            .with_fabric(spec);
        let v = c.to_value();
        assert_eq!(
            v.get_field("fabric").and_then(|f| f.as_str()),
            Some("metro-fiber")
        );
        let back = NetworkConfig::from_value(&v).unwrap();
        assert_eq!(back.fabric, Some(spec));
        // The preset calibrates the node hardware too: scan cadence and the
        // finite metro memory bank; explicit builder calls afterwards still
        // override.
        assert_eq!(c.swap_scan_rate, 4.0);
        assert_eq!(c.buffer_limit, Some(512));
        assert_eq!(c.with_swap_scan_rate(2.0).swap_scan_rate, 2.0);
        assert_eq!(c.with_buffer_limit(128).buffer_limit, Some(128));

        let graph = c.build_graph();
        let fabric = c.build_fabric(&graph).unwrap();
        assert_eq!(fabric.len(), graph.edge_count());
        // Rates are heterogeneous (different synthesized lengths) and
        // deterministic in the topology seed.
        let rates: Vec<f64> = fabric.iter().map(|(_, p)| p.generation_rate_hz).collect();
        assert!(rates.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9));
        assert_eq!(
            c.build_fabric(&graph),
            c.build_fabric(&graph),
            "realization is deterministic"
        );
        assert!(NetworkConfig::new(Topology::Cycle { nodes: 7 })
            .build_fabric(&graph)
            .is_none());
    }

    #[test]
    fn decoherent_physics_round_trips_through_config_json() {
        let physics = PhysicsModel::decoherent(0.5).with_fidelity_floor(0.7);
        let c = NetworkConfig::new(Topology::Cycle { nodes: 5 }).with_physics(physics);
        assert_eq!(c.decoherence.coherence_time_s, 0.5);
        let v = c.to_value();
        assert!(v.get_field("physics").is_some());
        let back = NetworkConfig::from_value(&v).unwrap();
        assert_eq!(back.physics, physics);
        assert_eq!(back.physics.fidelity_floor(), Some(0.7));
    }

    #[test]
    #[should_panic]
    fn uniform_distillation_below_one_panics() {
        let _ = DistillationSpec::Uniform(0.5).overhead();
    }

    #[test]
    #[should_panic]
    fn zero_generation_rate_panics() {
        let _ = NetworkConfig::new(Topology::Cycle { nodes: 3 }).with_generation_rate(0.0);
    }
}
