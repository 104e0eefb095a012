//! The experiment runner: configuration → simulation → results.
//!
//! [`Experiment`] owns the full recipe of one §5-style run (network
//! configuration, workload, swap policy, knowledge model, seed, horizon),
//! resolves the policy from the [`crate::policy`] registry, builds the
//! world into the queue that runs it, runs it to the horizon with
//! [`qnet_sim::run_until`] and returns an [`ExperimentResult`]
//! that carries both the headline swap-overhead number and the full
//! [`RunMetrics`] for deeper analysis. Sweeps (Figures 4 and 5, the
//! ablations) run many `Experiment`s in parallel through `qnet-campaign`.

use crate::classical::KnowledgeModel;
use crate::config::NetworkConfig;
use crate::metrics::RunMetrics;
use crate::network::{NetEvent, QuantumNetworkWorld};
pub use crate::policy::PolicyId;
use crate::workload::{Workload, WorkloadSpec};
use qnet_sim::{run_until, EventQueue, SimTime};
use qnet_topology::Topology;
use serde::{Deserialize, Serialize};

/// Everything needed to reproduce one simulation run.
///
/// `Copy + Send`: the whole recipe is a small, flat value (the policy is
/// selected by its interned [`PolicyId`] name and instantiated per run), so
/// parallel sweep runners can hand configs to worker threads by value (see
/// the `configs_are_cheap_to_clone_and_send` test for the compile-time
/// guarantees `qnet-campaign` relies on).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// The physical-network configuration.
    pub network: NetworkConfig,
    /// The consumption workload specification.
    pub workload: WorkloadSpec,
    /// Which swap policy to run, by registry name. (The field keeps its
    /// pre-plugin-API name `mode` so serialized configs round-trip.)
    pub mode: PolicyId,
    /// How nodes learn remote buffer counts.
    pub knowledge: KnowledgeModel,
    /// Root RNG seed (drives topology randomness, workload selection,
    /// generation arrivals and scan staggering).
    pub seed: u64,
    /// Simulated-time horizon in seconds; runs stop earlier if every
    /// injected request is satisfied and no arrival is outstanding. For
    /// open-loop workloads, arrivals scheduled beyond this horizon are never
    /// injected (they count as neither satisfied nor unsatisfied).
    pub max_sim_time_s: f64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        let topology = Topology::Cycle { nodes: 9 };
        ExperimentConfig {
            network: NetworkConfig::new(topology),
            workload: WorkloadSpec::paper_default(topology.node_count()),
            mode: PolicyId::OBLIVIOUS,
            knowledge: KnowledgeModel::Global,
            seed: 1,
            max_sim_time_s: 5_000.0,
        }
    }
}

impl ExperimentConfig {
    /// The paper's §5 configuration for a given topology and distillation
    /// overhead: `g = 1` on generation edges, 35 consumer pairs, sequential
    /// requests, oblivious protocol with global knowledge.
    pub fn paper_section5(topology: Topology, distillation: f64, seed: u64) -> Self {
        ExperimentConfig {
            network: NetworkConfig::new(topology)
                .with_topology_seed(seed)
                .with_distillation(crate::config::DistillationSpec::Uniform(distillation)),
            workload: WorkloadSpec::paper_default(topology.node_count()),
            mode: PolicyId::OBLIVIOUS,
            knowledge: KnowledgeModel::Global,
            seed,
            max_sim_time_s: 20_000.0,
        }
    }

    /// Builder: select the swap policy (anything convertible to a
    /// [`PolicyId`]).
    pub fn with_policy(mut self, policy: impl Into<PolicyId>) -> Self {
        self.mode = policy.into();
        self
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Label of the topology that was simulated.
    pub topology: String,
    /// Number of nodes.
    pub node_count: usize,
    /// The swap policy that ran.
    pub mode: PolicyId,
    /// Resolved distillation overhead `D`.
    pub distillation_overhead: f64,
    /// Number of satisfied consumption requests.
    pub satisfied_requests: usize,
    /// Number of requests still pending at the end.
    pub unsatisfied_requests: u64,
    /// Total swap operations performed.
    pub swaps_performed: u64,
    /// Simulated seconds the run covered.
    pub simulated_seconds: f64,
    /// The full metrics of the run.
    pub metrics: RunMetrics,
}

impl ExperimentResult {
    /// The paper's swap-overhead metric (`None` if the denominator is zero).
    pub fn swap_overhead(&self) -> Option<f64> {
        self.metrics.swap_overhead()
    }

    /// Median sojourn latency (arrival → satisfaction) in simulated seconds.
    pub fn latency_p50_s(&self) -> Option<f64> {
        self.metrics.sojourn_percentile(0.50)
    }

    /// 95th-percentile sojourn latency in simulated seconds.
    pub fn latency_p95_s(&self) -> Option<f64> {
        self.metrics.sojourn_percentile(0.95)
    }

    /// Fraction of requests satisfied.
    pub fn satisfaction_ratio(&self) -> f64 {
        self.metrics.satisfaction_ratio()
    }

    /// One line of human-readable summary (used by the figure binaries).
    pub fn summary_line(&self) -> String {
        format!(
            "{topo:>16}  N={n:<3} D={d:<4} mode={mode:?}  satisfied={sat}/{tot}  swaps={swaps}  overhead={overhead}",
            topo = self.topology,
            n = self.node_count,
            d = self.distillation_overhead,
            mode = self.mode,
            sat = self.satisfied_requests,
            tot = self.satisfied_requests as u64
                + self.unsatisfied_requests
                + self.metrics.fidelity_rejected_requests,
            swaps = self.swaps_performed,
            overhead = self
                .swap_overhead()
                .map(|o| format!("{o:.3}"))
                .unwrap_or_else(|| "n/a".to_string()),
        )
    }
}

/// A runnable experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    config: ExperimentConfig,
}

impl Experiment {
    /// Wrap a configuration.
    pub fn new(config: ExperimentConfig) -> Self {
        Experiment { config }
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Run the simulation to completion (all requests satisfied) or to the
    /// configured horizon, and collect the results.
    ///
    /// Arrivals, closed-loop and open-loop alike, stream lazily (see
    /// [`WorkloadSpec::stream`]): the request vector is never materialised,
    /// so a 10⁶-request horizon costs the same memory as a 10³-request one.
    /// The delivered arrival sequence — and the resulting metrics — are
    /// those of [`Experiment::run_with_workload`] on
    /// [`WorkloadSpec::generate`]'s workload.
    pub fn run(&self) -> ExperimentResult {
        // The workload spec's node count must match the topology.
        let mut spec = self.config.workload;
        spec.node_count = self.config.network.node_count();
        let config = &self.config;
        self.drive(|queue| {
            QuantumNetworkWorld::with_arrival_stream(
                config.network,
                spec.stream(config.seed),
                config.mode.instantiate(),
                config.knowledge,
                config.seed,
                queue,
            )
        })
    }

    /// Run with an explicitly supplied workload (used by ablations that pin
    /// the request sequence across configurations). Its requests go through
    /// the same arrival pump as [`Experiment::run`]'s stream, all at
    /// construction: they are in memory already.
    pub fn run_with_workload(&self, workload: Workload) -> ExperimentResult {
        let config = &self.config;
        self.drive(|queue| {
            QuantumNetworkWorld::new(
                config.network,
                workload,
                config.mode.instantiate(),
                config.knowledge,
                config.seed,
                queue,
            )
        })
    }

    /// Build the world into the queue that runs it, run it to the
    /// configured horizon, fire the policy's end-of-run hook and collect
    /// the metrics.
    fn drive(
        &self,
        build: impl FnOnce(&mut EventQueue<NetEvent>) -> QuantumNetworkWorld,
    ) -> ExperimentResult {
        let config = &self.config;
        let mut queue = EventQueue::new();
        let mut world = build(&mut queue);
        let horizon = SimTime::from_secs_f64(config.max_sim_time_s);
        let ended = run_until(&mut world, &mut queue, horizon);
        world.finish();
        let metrics = world.metrics();

        ExperimentResult {
            topology: config.network.topology.label(),
            node_count: config.network.node_count(),
            mode: config.mode,
            distillation_overhead: config.network.distillation_overhead(),
            satisfied_requests: metrics.satisfied_count(),
            unsatisfied_requests: metrics.unsatisfied_requests,
            swaps_performed: metrics.swaps_performed,
            simulated_seconds: ended.as_secs_f64(),
            metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistillationSpec;
    use crate::workload::TrafficModel;

    fn small_config() -> ExperimentConfig {
        ExperimentConfig {
            network: NetworkConfig::new(Topology::Cycle { nodes: 7 }),
            workload: WorkloadSpec::closed_loop(7, 6, 10),
            mode: PolicyId::OBLIVIOUS,
            knowledge: KnowledgeModel::Global,
            seed: 5,
            max_sim_time_s: 2_000.0,
        }
    }

    #[test]
    fn oblivious_run_completes_and_reports() {
        let result = Experiment::new(small_config()).run();
        assert_eq!(result.node_count, 7);
        assert_eq!(result.topology, "cycle-7");
        assert!(result.satisfied_requests >= 8, "{result:?}");
        assert!(result.swaps_performed > 0);
        if let Some(o) = result.swap_overhead() {
            assert!(o >= 1.0, "overhead {o}");
        }
        assert!(result.simulated_seconds > 0.0);
        assert!(!result.summary_line().is_empty());
    }

    #[test]
    fn identical_seeds_identical_results() {
        let a = Experiment::new(small_config()).run();
        let b = Experiment::new(small_config()).run();
        assert_eq!(a, b);
    }

    #[test]
    fn planned_mode_uses_fewer_or_equal_swaps_than_oblivious_spends() {
        // The planned baseline performs only the swaps each request needs;
        // the oblivious balancer spends extra swaps positioning pairs.
        let mut oblivious = small_config();
        oblivious.workload = oblivious.workload.with_requests(6);
        let planned = oblivious.with_policy(PolicyId::PLANNED);
        let ro = Experiment::new(oblivious).run();
        let rp = Experiment::new(planned).run();
        assert!(rp.satisfied_requests >= 5);
        assert!(ro.satisfied_requests >= 5);
        assert!(
            rp.swaps_performed <= ro.swaps_performed,
            "planned {} vs oblivious {}",
            rp.swaps_performed,
            ro.swaps_performed
        );
    }

    #[test]
    fn hybrid_mode_satisfies_at_least_as_many_requests() {
        let mut base = small_config();
        base.workload = base.workload.with_requests(8);
        base.max_sim_time_s = 400.0;
        let hybrid = base.with_policy(PolicyId::HYBRID);
        let rb = Experiment::new(base).run();
        let rh = Experiment::new(hybrid).run();
        assert!(rh.satisfied_requests >= rb.satisfied_requests);
    }

    #[test]
    fn higher_distillation_increases_overhead() {
        let mut d1 = small_config();
        d1.workload = d1.workload.with_requests(8);
        let mut d2 = d1;
        d2.network = d2.network.with_distillation(DistillationSpec::Uniform(2.0));
        let r1 = Experiment::new(d1).run();
        let r2 = Experiment::new(d2).run();
        let (o1, o2) = (r1.swap_overhead(), r2.swap_overhead());
        if let (Some(o1), Some(o2)) = (o1, o2) {
            assert!(o2 >= o1 * 0.8, "D=2 overhead {o2} vs D=1 {o1}");
        }
    }

    #[test]
    fn paper_section5_config_matches_description() {
        let c = ExperimentConfig::paper_section5(Topology::Cycle { nodes: 25 }, 2.0, 9);
        assert_eq!(c.network.node_count(), 25);
        assert_eq!(c.network.distillation_overhead(), 2.0);
        assert_eq!(c.workload.consumer_pairs, 35);
        assert_eq!(c.mode, PolicyId::OBLIVIOUS);
    }

    #[test]
    fn configs_are_cheap_to_clone_and_send() {
        // Compile-time guarantees the qnet-campaign parallel runner relies
        // on: configs and experiments are plain `Copy + Send + Sync` values
        // (no heap, no interior mutability), and results are `Send`.
        fn assert_copy_send_sync<T: Copy + Send + Sync + 'static>() {}
        fn assert_send<T: Send + 'static>() {}
        assert_copy_send_sync::<ExperimentConfig>();
        assert_copy_send_sync::<Experiment>();
        assert_copy_send_sync::<NetworkConfig>();
        assert_copy_send_sync::<WorkloadSpec>();
        assert_copy_send_sync::<PolicyId>();
        assert_send::<ExperimentResult>();
        // And "cheap" stays true: a config is a flat, zero-heap value. The
        // bound covers the original 256 bytes plus the ~64-byte physics
        // model the link-physics subsystem added.
        assert!(std::mem::size_of::<ExperimentConfig>() <= 320);
    }

    #[test]
    fn unreachable_horizon_reports_unsatisfied() {
        // A tiny horizon cannot satisfy far-apart requests.
        let mut c = small_config();
        c.max_sim_time_s = 0.05;
        let r = Experiment::new(c).run();
        assert!(r.unsatisfied_requests > 0);
        assert!(r.satisfaction_ratio() < 1.0);
    }

    #[test]
    fn open_loop_run_reports_sojourn_latency() {
        let mut c = small_config();
        c.workload = c.workload.with_traffic(TrafficModel::OpenLoopPoisson {
            rate_hz: 0.2,
            horizon_s: 500.0,
        });
        c.max_sim_time_s = 1_500.0;
        let r = Experiment::new(c).run();
        assert!(r.satisfied_requests > 0, "{r:?}");
        assert!(r.metrics.arrived_requests >= r.satisfied_requests as u64);
        let (p50, p95) = (r.latency_p50_s().unwrap(), r.latency_p95_s().unwrap());
        assert!(p50 <= p95, "p50 {p50} > p95 {p95}");
        assert!(p50 >= 0.0);
        // Open-loop sojourns are measured from arrival, not from t = 0: the
        // last satisfaction time is far beyond the p95 sojourn.
        let last = r.metrics.satisfied.last().unwrap();
        assert!(last.satisfied_at.as_secs_f64() > p95);
        // Identical configs still reproduce identical results.
        assert_eq!(r, Experiment::new(c).run());
    }

    /// The eager reference: every request scheduled up front and the
    /// queue re-staged (`QuantumNetworkWorld::with_eager_arrivals`), run
    /// through the same lifecycle as `Experiment::run`.
    fn eager_reference(c: ExperimentConfig, workload: Workload) -> ExperimentResult {
        Experiment::new(c).drive(|queue| {
            QuantumNetworkWorld::with_eager_arrivals(
                c.network,
                workload,
                c.mode.instantiate(),
                c.knowledge,
                c.seed,
                queue,
            )
        })
    }

    #[test]
    fn lazy_open_loop_matches_eager_scheduling() {
        // `run()` streams open-loop arrivals in batches, and
        // `run_with_workload` pumps the materialised workload whole through
        // the same pump. Full results (every satisfied request, every
        // counter) must equal the eager reference's across policies and
        // seeds — the differential pin for the batch pump.
        for mode in [
            PolicyId::OBLIVIOUS,
            PolicyId::HYBRID,
            PolicyId::PLANNED,
            PolicyId::CONNECTIONLESS,
        ] {
            for seed in [7u64, 21] {
                let mut c = small_config();
                c.mode = mode;
                c.seed = seed;
                c.workload = c.workload.with_traffic(TrafficModel::OpenLoopPoisson {
                    rate_hz: 0.5,
                    horizon_s: 400.0,
                });
                c.max_sim_time_s = 1_000.0;
                let mut spec = c.workload;
                spec.node_count = c.network.node_count();
                let eager = eager_reference(c, spec.generate(seed));
                let listed = Experiment::new(c).run_with_workload(spec.generate(seed));
                let lazy = Experiment::new(c).run();
                assert_eq!(lazy, eager, "lazy vs eager diverged: {mode:?} seed {seed}");
                assert_eq!(
                    listed, eager,
                    "listed vs eager diverged: {mode:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn lazy_arrivals_cross_many_batches() {
        // More requests than several ARRIVAL_BATCHes, so the generator wake
        // fires repeatedly mid-run; the run must still complete and satisfy.
        let mut c = small_config();
        c.workload = c.workload.with_traffic(TrafficModel::OpenLoopPoisson {
            rate_hz: 40.0,
            horizon_s: 120.0,
        });
        c.network.generation_rate = 500.0;
        c.max_sim_time_s = 300.0;
        let r = Experiment::new(c).run();
        assert!(
            r.metrics.arrived_requests as usize > 3 * crate::network::ARRIVAL_BATCH,
            "want multiple batches, got {} arrivals",
            r.metrics.arrived_requests
        );
        assert!(r.satisfied_requests > 0);
        assert_eq!(r, Experiment::new(c).run(), "lazy runs reproduce");
    }

    #[test]
    fn open_loop_arrivals_stop_at_the_run_horizon() {
        // The workload offers arrivals for 1000 s, but the run stops at 50 s:
        // only arrivals up to the run horizon are injected.
        let mut c = small_config();
        c.workload = c.workload.with_traffic(TrafficModel::OpenLoopPoisson {
            rate_hz: 1.0,
            horizon_s: 1_000.0,
        });
        c.max_sim_time_s = 50.0;
        let r = Experiment::new(c).run();
        let offered = c.workload.generate(c.seed).len() as u64;
        assert!(r.metrics.arrived_requests < offered);
        assert!(r.simulated_seconds <= 50.0 + 1e-9);
    }
}
