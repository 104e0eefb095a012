//! # qnet-core — path-oblivious entanglement swapping
//!
//! This crate implements the primary contribution of *"Path-Oblivious
//! Entanglement Swapping for the Quantum Internet"* (HotNets 2025):
//!
//! * the **steady-state LP formulation** of generation / swap / consumption
//!   rates (§3), including the decoherence / distillation / QEC extensions of
//!   §3.2 and the optimisation objectives of §3.3 ([`lp_model`]),
//! * the **max-min distributed balancing protocol** of §4 ([`balancer`]),
//! * the **planned-path baselines** the paper compares against — the nested
//!   swapping cost recursion used as the swap-overhead denominator, and
//!   executable connection-oriented / connectionless protocols ([`planned`],
//!   [`nested`]),
//! * the **simulation harness** of §5: generation and swapping processes on
//!   cycle / grid generation graphs, the 35-consumer-pair sequential
//!   workload, and the swap-overhead metric ([`network`], [`workload`],
//!   [`experiment`], [`metrics`]),
//! * the §6 extensions: hybrid oblivious + minimal planning ([`hybrid`]),
//!   classical-overhead accounting ([`classical`]), and partial-knowledge
//!   (gossip) dissemination of buffer counts as a simulated classical
//!   control plane — stale per-node knowledge views refreshed by
//!   latency-delayed gossip ([`control`]).
//!
//! ## Quick start
//!
//! ```
//! use qnet_core::config::{DistillationSpec, NetworkConfig};
//! use qnet_core::experiment::{Experiment, ExperimentConfig};
//! use qnet_core::policy::PolicyId;
//! use qnet_core::workload::WorkloadSpec;
//! use qnet_topology::Topology;
//!
//! let config = ExperimentConfig {
//!     network: NetworkConfig::new(Topology::Cycle { nodes: 9 })
//!         .with_distillation(DistillationSpec::Uniform(1.0)),
//!     workload: WorkloadSpec::paper_default(9).with_requests(40),
//!     mode: PolicyId::OBLIVIOUS,
//!     seed: 7,
//!     ..ExperimentConfig::default()
//! };
//! let result = Experiment::new(config).run();
//! assert!(result.satisfied_requests > 0);
//! assert!(result.swap_overhead().unwrap() >= 1.0);
//! ```
//!
//! Swapping disciplines are plugins: see [`policy`] for the [`SwapPolicy`]
//! trait, the registry, and the built-in implementations, and [`observer`]
//! for the metrics-sink hooks the simulation world fires.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balancer;
pub mod classical;
pub mod config;
pub mod control;
pub mod experiment;
pub mod hybrid;
pub mod inventory;
pub mod lp_model;
pub mod metrics;
pub mod nested;
pub mod network;
pub mod observer;
pub mod physics;
pub mod planned;
pub mod policy;
pub mod rates;
#[cfg(test)]
pub(crate) mod test_support;
pub mod trace;
pub mod workload;

pub use balancer::{BalancerPolicy, SwapCandidate};
pub use config::{DistillationSpec, NetworkConfig};
pub use experiment::{Experiment, ExperimentConfig, ExperimentResult};
pub use inventory::Inventory;
pub use lp_model::{LpObjective, SteadyStateModel};
pub use nested::nested_swap_cost;
pub use observer::{MetricsRecorder, RunObserver};
pub use physics::{ConsumeOrder, PhysicsModel};
pub use policy::{
    PolicyCtx, PolicyFamily, PolicyId, PolicyRegistry, QueueDiscipline, RequestAction, SwapPolicy,
};
pub use rates::RateMatrices;
pub use trace::TraceWriter;
pub use workload::{ConsumptionRequest, PairSelection, TrafficModel, Workload, WorkloadSpec};
