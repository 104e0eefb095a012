//! # qnet — path-oblivious entanglement swapping for the Quantum Internet
//!
//! Facade crate re-exporting the `qnet` workspace, a reproduction of
//! *"Path-Oblivious Entanglement Swapping for the Quantum Internet"*
//! (HotNets 2025). Depend on this crate to get the whole stack under one
//! namespace:
//!
//! * [`sim`] — deterministic discrete-event simulation engine,
//! * [`topology`] — generation-graph topologies, shortest paths, pair keys,
//! * [`quantum`] — state-vector/density-matrix substrate, teleportation,
//!   swapping, distillation, decoherence and QEC models,
//! * [`lp`] — two-phase simplex and max-min fairness helpers,
//! * [`core`] — the paper's contribution: the steady-state LP formulation,
//!   the §4 max-min balancer, planned-path baselines, and the §5 simulation
//!   and metrics,
//! * [`campaign`] — declarative scenario grids executed by a parallel
//!   runner, with deterministic per-cell aggregation and JSONL reports.
//!
//! ```
//! use qnet::core::experiment::{Experiment, ExperimentConfig};
//!
//! let result = Experiment::new(ExperimentConfig::default()).run();
//! assert!(result.satisfied_requests + result.unsatisfied_requests as usize > 0);
//! ```
//!
//! ## Running sweeps
//!
//! Single experiments answer single questions; the paper's figures — and
//! any scaling study — are *sweeps* over topology × protocol × parameter
//! grids. The [`campaign`] crate makes those first-class: declare a
//! [`campaign::ScenarioGrid`], run it across all cores with
//! [`campaign::run_campaign`], and aggregate into per-cell statistics with
//! [`campaign::aggregate`]. Reports are byte-identical regardless of the
//! worker-thread count, so sweep outputs can be diffed and cached.
//!
//! ```
//! use qnet::campaign::{aggregate, run_campaign, RunnerConfig, ScenarioGrid};
//! use qnet::prelude::*;
//!
//! let grid = ScenarioGrid::new(42)
//!     .with_topologies(vec![
//!         Topology::Cycle { nodes: 7 },
//!         Topology::TorusGrid { side: 3 },
//!     ])
//!     .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::HYBRID])
//!     // node_count 0 is patched per topology at expansion time.
//!     .with_workloads(vec![WorkloadSpec::closed_loop(0, 5, 5)])
//!     .with_replicates(2)
//!     .with_horizon_s(500.0);
//!
//! let result = run_campaign(&grid, &RunnerConfig::default());
//! let report = aggregate(&grid, &result);
//! assert_eq!(report.cell_reports.len(), 4);
//! ```
//!
//! The same engine backs the `campaign` CLI binary (`cargo run --release
//! -p qnet-campaign --bin campaign -- --help`), which emits the JSONL
//! report on stdout and a human summary (with an optional serial-vs-parallel
//! determinism check) on stderr. `campaign --list-policies` prints every
//! swapping discipline in the registry; `campaign --list-workloads` prints
//! the workload-spec grammar (e.g. `--workload open-loop:2@zipf:1.1`);
//! `campaign --list-topologies` prints the topology-spec grammar.
//!
//! ## Running sharded and incremental campaigns
//!
//! Scenario seeds derive from `(master seed, environment, replicate)`, so
//! every outcome is a pure function of its grid cell. Two consequences,
//! both keyed by [`campaign::ScenarioGrid::fingerprint`] (a stable hash of
//! every axis, the master seed and the run parameters):
//!
//! * **Incremental sweeps** — [`campaign::OutcomeCache`] persists outcomes
//!   as append-only JSONL (`<cache-dir>/outcomes-<fingerprint>.jsonl`);
//!   [`campaign::run_campaign_cached`] consults it before simulating and
//!   appends after, so re-running a grid replays cached scenarios without
//!   executing a single `Experiment`, and damaged cache lines are rejected
//!   and recomputed rather than trusted.
//! * **Sharded execution** — [`campaign::ShardSpec`] `I/N` partitions the
//!   scenario ids deterministically (`id % N == I`); each shard writes a
//!   self-describing file ([`campaign::write_shard`]) and
//!   [`campaign::merge_shards`] recombines any complete partition into the
//!   exact single-process result.
//!
//! The contract throughout is **byte-identity**: a cold run, a warm
//! fully-cached run, and any shard partition after merging produce the
//! same JSONL report, byte for byte. On the CLI this is
//! `campaign --cache-dir DIR`, `campaign --shard I/N` and
//! `campaign merge shard-*.jsonl`; the run summary's `simulated=`/
//! `cache_hits=` counters show what actually executed.
//!
//! ```
//! use qnet::campaign::{
//!     aggregate, merge_shards, read_shard, run_campaign_cached, run_scenarios_streaming,
//!     shard_to_string, to_jsonl_string, OutcomeCache, RunnerConfig, ScenarioGrid, ShardSpec,
//! };
//! use qnet::prelude::*;
//!
//! let grid = ScenarioGrid::new(7)
//!     .with_topologies(vec![Topology::Cycle { nodes: 5 }])
//!     .with_modes(vec![PolicyId::OBLIVIOUS, PolicyId::PLANNED])
//!     .with_workloads(vec![WorkloadSpec::closed_loop(0, 4, 4)])
//!     .with_replicates(2)
//!     .with_horizon_s(300.0);
//!
//! // Cold run: simulate everything, filling the cache.
//! let dir = std::env::temp_dir().join(format!("qnet-doc-cache-{}", std::process::id()));
//! let mut cache = OutcomeCache::open(&dir, &grid)?;
//! let cold = run_campaign_cached(&grid, &RunnerConfig::serial(), &mut cache, |_, _| {})?;
//! assert_eq!(cold.simulated, grid.scenario_count());
//!
//! // Warm run: zero simulations, byte-identical report.
//! let mut warm_cache = OutcomeCache::open(&dir, &grid)?;
//! let warm = run_campaign_cached(&grid, &RunnerConfig::serial(), &mut warm_cache, |_, _| {})?;
//! assert_eq!(warm.simulated, 0);
//! assert_eq!(
//!     to_jsonl_string(&aggregate(&grid, &cold)),
//!     to_jsonl_string(&aggregate(&grid, &warm)),
//! );
//!
//! // Shard 2 ways (each shard could run on a different host), merge, and
//! // get the same bytes again.
//! let shards: Vec<_> = (0..2)
//!     .map(|i| {
//!         let spec = ShardSpec::new(i, 2).expect("valid shard");
//!         let run = run_scenarios_streaming(
//!             &grid,
//!             &RunnerConfig::serial(),
//!             &spec.ids(grid.scenario_count()),
//!             None,
//!             |_| {},
//!         )
//!         .expect("no cache I/O");
//!         read_shard(&shard_to_string(&grid, spec, &run.outcomes)).expect("round-trips")
//!     })
//!     .collect();
//! let (merged_grid, merged) = merge_shards(shards).expect("complete partition");
//! assert_eq!(
//!     to_jsonl_string(&aggregate(&merged_grid, &merged)),
//!     to_jsonl_string(&aggregate(&grid, &cold)),
//! );
//! std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! ## Running distributed campaigns
//!
//! The orchestrator ([`campaign::orchestrate`]) combines the cache and the
//! shard partition into a supervised **multi-process** run: it spawns `N`
//! worker subprocesses (`campaign --shard I/N --cache-dir …`) into a shared
//! run directory and drives them to completion — progress-file heartbeats
//! for liveness, dead/straggler workers killed and their shards retried
//! (safe because every finished scenario is already in the shared cache),
//! sealed shards live-merged into a partial report, and a final validated
//! merge that is **byte-identical** to an uninterrupted single-process run.
//! On the CLI:
//!
//! ```text
//! campaign orchestrate --workers 3 --run-dir RUN --topologies cycle:25 …
//! campaign orchestrate --resume RUN        # pick a killed run back up
//! campaign merge RUN                       # a run dir merges directly
//! ```
//!
//! Everything the run leaves behind is machine-readable and wall-clock
//! free: worker progress streams and the supervision log
//! (`RUN/events.jsonl`) carry only dense `seq` ordinals, so two runs of the
//! same campaign are comparable record-for-record. The pure pieces — the
//! run-directory layout and the progress-event streams — are plain library
//! types:
//!
//! ```
//! use qnet::campaign::orchestrator::events::{
//!     parse_progress_line, ProgressBody, ProgressWriter,
//! };
//! use qnet::campaign::{OrchestratorConfig, OutcomeSource, RunDir, ShardSpec};
//!
//! // The supervision knobs: worker count, heartbeat timeout, retry budget.
//! let config = OrchestratorConfig::new(3, "/tmp/qnet-doc-run");
//! assert_eq!(config.workers, 3);
//! assert_eq!(config.max_attempts, 3);
//!
//! // The run-directory layout is a stable, documented contract.
//! let layout = RunDir::new(&config.run_dir);
//! assert!(layout.shard_sealed(1).ends_with("shards/shard-1.jsonl"));
//! assert!(layout
//!     .progress_file(1, 2)
//!     .ends_with("progress/shard-1.attempt-2.jsonl"));
//!
//! // Workers stream seq-numbered progress records; the supervisor tails
//! // them for liveness and re-parses them with `parse_progress_line`.
//! let dir = std::env::temp_dir().join(format!("qnet-doc-orch-{}", std::process::id()));
//! let path = dir.join("progress.jsonl");
//! let mut writer = ProgressWriter::create(&path)?;
//! writer.shard_claimed(ShardSpec::new(1, 3).expect("valid shard"), 4)?;
//! writer.scenario(1, OutcomeSource::Simulated)?;
//! writer.shard_sealed(4)?;
//!
//! let text = std::fs::read_to_string(&path)?;
//! let events: Vec<_> = text.lines().filter_map(parse_progress_line).collect();
//! assert_eq!(events.len(), 3);
//! assert_eq!(events[2].seq, 2, "dense 0-based ordinals, no timestamps");
//! assert_eq!(events[2].body, ProgressBody::ShardSealed { scenarios: 4 });
//! std::fs::remove_dir_all(&dir)?;
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! The committed `results/` directory at the repository root holds
//! paper-scale reports produced this way; `results/README.md` records the
//! exact regeneration commands.
//!
//! ## Writing a workload
//!
//! A [`core::workload::WorkloadSpec`] is two orthogonal choices over a
//! consumer-pair set:
//!
//! * a [`core::workload::TrafficModel`] — **when** requests arrive. The
//!   paper's closed-loop batch (`ClosedLoopBatch`: every request pending at
//!   `t = 0`, satisfied in sequence order) or open-loop Poisson offered
//!   load (`OpenLoopPoisson { rate_hz, horizon_s }`), where arrivals are
//!   injected into the simulation over time and interleave with generation
//!   and swap scans;
//! * a [`core::workload::PairSelection`] — **which** pair each request
//!   draws: `UniformRandom`, `RoundRobin`, or `ZipfSkew { s }` for skewed
//!   per-pair demand (rank-`r` pair drawn with probability ∝ `1/r^s`).
//!
//! Open-loop runs measure *sojourn latency* (arrival → satisfaction):
//! [`core::metrics::RunMetrics::sojourn_percentile`] and friends report it
//! per run, and campaign reports add `latency_p50_s` / `latency_p95_s`
//! columns for open-loop cells. Sweeping `rate_hz` across cells yields
//! offered-load curves — satisfaction ratio and latency vs arrival rate,
//! per discipline:
//!
//! ```
//! use qnet::core::workload::{PairSelection, TrafficModel};
//! use qnet::prelude::*;
//!
//! // 0.5 requests/s for 300 simulated seconds, Zipf-skewed over 10 pairs.
//! let workload = WorkloadSpec::open_loop(0, 10, 0.5, 300.0)
//!     .with_discipline(PairSelection::ZipfSkew { s: 1.1 });
//! assert!(workload.is_open_loop());
//! assert_eq!(workload.nominal_requests(), 150);
//!
//! let config = ExperimentConfig {
//!     workload,
//!     max_sim_time_s: 400.0, // run a little past the arrival horizon
//!     ..ExperimentConfig::default()
//! };
//! let result = Experiment::new(config).run();
//! assert!(result.metrics.arrived_requests > 0);
//! if let (Some(p50), Some(p95)) = (result.latency_p50_s(), result.latency_p95_s()) {
//!     assert!(p50 <= p95);
//! }
//!
//! // The closed-loop spec is the legacy shape; `TrafficModel` round-trips
//! // through the flat serialized layout older configs used.
//! let legacy = WorkloadSpec::paper_default(9);
//! assert_eq!(legacy.traffic, TrafficModel::ClosedLoopBatch { requests: 35 });
//! ```
//!
//! To stream per-event records (arrivals, satisfactions, drops, swaps) as
//! JSONL while a run executes, attach a [`core::trace::TraceWriter`] via
//! [`core::network::QuantumNetworkWorld::add_observer`].
//!
//! ## Scaling to millions of requests
//!
//! The hot path is engineered so that open-loop runs scale to 10⁶–10⁷
//! requests with **flat memory** — peak RSS is set by the topology, not
//! the request count:
//!
//! * **Timing-wheel event queue** — [`sim::EventQueue`] orders events on a
//!   hierarchical timing wheel (O(1) amortised schedule/pop) instead of a
//!   `BinaryHeap`, preserving the deterministic `(time, seq)` FIFO
//!   tie-break exactly, so it pops the same stream a heap would.
//! * **Lazy arrival streams** — `Experiment::run` draws arrivals, closed-
//!   and open-loop alike, from a [`core::workload::ArrivalStream`] in
//!   batches of [`core::network::ARRIVAL_BATCH`] by a self-rescheduling
//!   wake event, so the queue never holds more than one batch of future
//!   arrivals. A materialised workload (`Experiment::run_with_workload`)
//!   goes through the same pump in one batch, as its requests are in
//!   memory already, and the stream reproduces
//!   `WorkloadSpec::generate`'s draw order exactly: streamed and
//!   materialised runs are byte-identical.
//! * **Streaming metrics** — the metrics recorder buffers satisfied
//!   requests exactly up to a threshold (65 536 by default; the
//!   `QNET_EXACT_SAMPLES` environment variable overrides it), then folds
//!   them into a fixed-memory summary: counts, means, the swap-overhead
//!   denominator, and timing stay **exact**, while latency/fidelity
//!   quantiles come from a log-bucketed sketch
//!   ([`sim::stats::LogQuantileSketch`], ≤ ~0.4 % relative value error).
//!   Campaign rows produced this way carry a `sketch_quantiles` flag.
//!
//! ```
//! use qnet::prelude::*;
//!
//! // Force the recorder past its exact-sample threshold immediately so a
//! // tiny doctest exercises the streamed mode (production runs cross the
//! // 65 536-sample default on their own).
//! std::env::set_var("QNET_EXACT_SAMPLES", "0");
//! let config = ExperimentConfig {
//!     workload: WorkloadSpec::open_loop(0, 6, 0.5, 300.0),
//!     max_sim_time_s: 1_000.0,
//!     ..ExperimentConfig::default()
//! };
//! let result = Experiment::new(config).run();
//! std::env::remove_var("QNET_EXACT_SAMPLES");
//!
//! assert!(result.metrics.is_streamed());
//! assert!(result.metrics.satisfied_count() > 0);
//! // Exact columns stay exact; quantiles answer from the sketch. The
//! // per-request buffer is gone — that is where the memory went.
//! assert!(result.metrics.sojourn_percentile(0.95).is_some());
//! assert!(result.metrics.sojourn_samples().is_empty());
//! ```
//!
//! The `open_loop_million` benchmark group (`cargo bench -p qnet-bench
//! --bench sim_engine_micro`) drives 10⁵- and 10⁶-request open-loop runs
//! through this path, and the `open_loop_stress` example prints a one-line
//! summary for memory profiling:
//!
//! ```text
//! cargo run --release -p qnet-bench --example open_loop_stress -- \
//!     --topology cycle:25 --requests 1000000 --rate-hz 500 \
//!     --gen-rate 400 --scan-rate 200
//! ```
//!
//! ## Hot-path architecture
//!
//! Once the event stream is flat-memory, what is left is the per-event
//! constant — what one generation, one swap scan, one satisfaction check
//! actually costs. The steady-state loop is built from four flat, densely
//! indexed structures that it walks over and over without allocating:
//!
//! * **Timing wheel** — events come off the [`sim::EventQueue`] wheel in
//!   O(1) amortised;
//! * **Edge index** — [`topology::EdgeIndex`] numbers the generation
//!   graph's edges `0..E` with a CSR adjacency layout, so per-edge state
//!   (generation rates, link overrides) lives in plain vectors indexed by
//!   edge id instead of maps keyed by [`topology::NodePair`];
//! * **Flat inventory** — [`core::inventory::Inventory`] stores per-pair
//!   counts and lots in dense slab pools with an O(1) triangular
//!   pair→slot map, walked in sorted pair order (the balancer's scan loop
//!   is monomorphized over the concrete store so the O(rich²) beneficiary
//!   probe pays no virtual dispatch);
//! * **Path oracle** — [`topology::PathOracle`] serves shortest-path
//!   queries from per-source BFS rows (all-pairs eager up to 128 nodes,
//!   lazily memoized per source above), replacing the per-pair memoized
//!   BFS the planners used — same paths, node for node, with O(path)
//!   reconstruction per query.
//!
//! ```
//! use qnet::core::inventory::Inventory;
//! use qnet::topology::{bfs_path, builders, EdgeIndex, NodeId, NodePair, PathOracle};
//!
//! // Dense edge index over an internet-like graph: O(1) pair ↔ edge-id.
//! let graph = builders::scale_free(200, 2, 7);
//! let index = EdgeIndex::new(&graph);
//! assert_eq!(index.edge_count(), graph.edge_count());
//! let (peer, id) = index.incident(NodeId(0))[0];
//! assert_eq!(index.pair(id), NodePair::new(NodeId(0), peer));
//!
//! // The oracle answers exactly what a fresh BFS would, node for node.
//! let oracle = PathOracle::new(&graph);
//! let via_oracle = oracle.path(&graph, NodeId(3), NodeId(90)).unwrap();
//! let via_bfs = bfs_path(&graph, NodeId(3), NodeId(90)).unwrap();
//! assert_eq!(via_oracle.nodes, via_bfs.nodes);
//!
//! // Each node's entangled peers sit in one sorted contiguous row, counts
//! // inline: the slice the balancer scan walks.
//! let mut inv = Inventory::new(6);
//! inv.add_pair(NodePair::new(NodeId(1), NodeId(4))).unwrap();
//! inv.add_pair(NodePair::new(NodeId(0), NodeId(1))).unwrap();
//! inv.add_pair(NodePair::new(NodeId(0), NodeId(1))).unwrap();
//! assert_eq!(inv.peer_counts(NodeId(1)), &[(NodeId(0), 2), (NodeId(4), 1)]);
//! ```
//!
//! The `path_oracle` and `inventory_hot_scan` benchmark groups in
//! `sim_engine_micro` measure these structures in isolation; the
//! `open_loop_million` group measures them composed.
//!
//! ## Modeling link physics
//!
//! The paper's evaluation treats Bell pairs as interchangeable tokens; the
//! physics subsystem ([`core::physics`]) makes them first-class physical
//! objects. A [`core::physics::PhysicsModel`] travels on
//! [`core::NetworkConfig`]:
//!
//! * `Ideal` (the default) is exactly the paper's semantics — nothing new
//!   is simulated, results stay byte-identical to pre-physics reports;
//! * `Decoherent { .. }` gives every stored pair a creation timestamp and a
//!   birth fidelity. Stored pairs decay under the Werner model
//!   ([`quantum::decoherence::DecoherenceModel`]); a swap ages both inputs
//!   to the swap time and composes them with
//!   [`quantum::swap::swap_werner_fidelity`], restarting the product's
//!   clock; an optional storage cutoff discards expired pairs as timed
//!   events (the [`core::observer::RunObserver::on_pair_expired`] hook);
//!   and an optional end-to-end fidelity floor turns deliveries below
//!   threshold into a distinct failure class
//!   ([`core::metrics::RunMetrics::fidelity_rejected_requests`]).
//!
//! Which stored pair a consumption draws is the
//! [`core::physics::ConsumeOrder`] knob (oldest-first FIFO vs newest-first
//! LIFO). Delivered fidelities surface per run through
//! [`core::metrics::RunMetrics::fidelity_stats`] /
//! [`core::metrics::RunMetrics::fidelity_percentile`] and per campaign
//! through the `fidelity_mean`/`fidelity_p50`/`fidelity_p95` and
//! `expired_pairs_total` report columns (decoherent cells only — ideal
//! cells keep the legacy byte layout). On the CLI this is
//! `campaign --physics ideal,decoherent:T2[:FLOOR]` (see
//! `campaign --list-physics`).
//!
//! Physics sharpens the paper's central comparison: path-oblivious
//! balancing seeds pairs ahead of demand, so its inventory is
//! systematically *older* than a planner's just-in-time pairs — and
//! decoherence punishes exactly that (run
//! `cargo run --example decoherence_knee --release` to see the knee).
//!
//! ```
//! use qnet::core::physics::{ConsumeOrder, PhysicsModel};
//! use qnet::prelude::*;
//!
//! // T2 = 2 s memories, delivered fidelity must reach 0.7; pairs that can
//! // no longer meet the floor on their own are discarded by the derived
//! // storage cutoff.
//! let physics = PhysicsModel::decoherent(2.0)
//!     .with_fidelity_floor(0.7)
//!     .with_consume_order(ConsumeOrder::OldestFirst);
//! assert!(physics.cutoff_s().unwrap() > 0.0);
//!
//! let config = ExperimentConfig {
//!     network: NetworkConfig::new(Topology::Cycle { nodes: 7 }).with_physics(physics),
//!     workload: WorkloadSpec::closed_loop(7, 5, 6),
//!     mode: PolicyId::OBLIVIOUS,
//!     seed: 9,
//!     max_sim_time_s: 1_000.0,
//!     ..ExperimentConfig::default()
//! };
//! let result = Experiment::new(config).run();
//! // Every delivery that survived the floor carries its fidelity…
//! for s in &result.metrics.satisfied {
//!     assert!(s.fidelity.unwrap() >= 0.7);
//! }
//! // …and the physics failure classes are accounted separately.
//! let m = &result.metrics;
//! assert!(m.expired_pairs > 0 || m.fidelity_rejected_requests > 0 || !m.satisfied.is_empty());
//!
//! // Ideal physics is the default and changes nothing:
//! assert!(NetworkConfig::new(Topology::Cycle { nodes: 7 }).physics.is_ideal());
//! ```
//!
//! ## Building heterogeneous networks
//!
//! Everything above runs on *homogeneous* links: one generation rate, one
//! birth fidelity, one memory for every edge. Real deployments are nothing
//! like that — a metro fiber ring mixes 2 km and 25 km spans whose rates
//! and noise differ by integer factors. The link-fabric subsystem
//! ([`topology::fabric`]) closes that gap:
//!
//! * a [`topology::HardwarePreset`] (`lab`, `metro-fiber`) is a calibrated
//!   hardware family: a link-length range, a base generation rate, fiber
//!   attenuation, a zero-length fidelity and a memory coherence time;
//! * [`topology::HardwarePreset::profile_for_length`] derives a per-edge
//!   [`topology::LinkProfile`] — rate falls off as
//!   `base · 10^(−α·L/10)` and fidelity as
//!   `0.5 + (F₀ − 0.5)·e^(−L/ℓ)`, both strictly decreasing in length;
//! * a [`topology::FabricSpec`] on [`core::NetworkConfig`] (via
//!   [`core::NetworkConfig::with_fabric`]) realizes a
//!   [`topology::LinkFabric`] over the built graph: edge lengths are drawn
//!   seed-deterministically from the preset's range (or taken from the
//!   deployed-fiber table for [`topology::Topology::DeployedFiber`]), and
//!   the simulation then generates each edge at *its* rate and stores its
//!   pairs with *its* birth fidelity and memory.
//!
//! Two topology families target the internet-scale regime:
//! [`topology::Topology::ScaleFree`] (Barabási–Albert preferential
//! attachment — heavy-tail degrees like real network maps) and
//! [`topology::Topology::DeployedFiber`] (a 12-node NYC metro template
//! with measured-style heterogeneous spans). Configs without a fabric are
//! untouched — byte-identical serialization and event histories. On the
//! CLI this is `campaign --fabric scale-free:1000@metro-fiber` (see
//! `campaign --list-fabrics`).
//!
//! ```
//! use qnet::prelude::*;
//!
//! // A 200-node internet-like graph on metro-fiber hardware.
//! let spec = FabricSpec::new(HardwarePreset::MetroFiber);
//! let config = NetworkConfig::new(Topology::ScaleFree { nodes: 200, attach: 2 })
//!     .with_topology_seed(7)
//!     .with_fabric(spec);
//!
//! // The realized fabric covers every edge with a length-derived profile.
//! let graph = config.build_graph();
//! let fabric = config.build_fabric(&graph).expect("fabric configured");
//! assert_eq!(fabric.len(), graph.edge_count());
//! let (lo_km, hi_km) = HardwarePreset::MetroFiber.length_range_km();
//! for (_edge, profile) in fabric.iter() {
//!     assert!(profile.length_km >= lo_km && profile.length_km <= hi_km);
//!     assert!(profile.generation_rate_hz > 0.0);
//!     assert!(profile.initial_fidelity > 0.5 && profile.initial_fidelity < 1.0);
//! }
//!
//! // Longer links are slower and noisier — the heterogeneity the
//! // path-oblivious balancer is built to absorb.
//! let short = HardwarePreset::MetroFiber.profile_for_length(2.0);
//! let long = HardwarePreset::MetroFiber.profile_for_length(25.0);
//! assert!(short.generation_rate_hz > long.generation_rate_hz);
//! assert!(short.initial_fidelity > long.initial_fidelity);
//!
//! // Without a fabric nothing changes: the legacy homogeneous substrate.
//! assert!(NetworkConfig::new(Topology::Cycle { nodes: 7 })
//!     .build_fabric(&Topology::Cycle { nodes: 7 }.build(0))
//!     .is_none());
//! ```
//!
//! ## Modeling the classical control plane
//!
//! The paper's §6 concern is classical, not quantum: the oblivious
//! balancer assumes every node knows every buffer count, and the proposed
//! relaxation — BitTorrent-like gossip — was *counted* (messages saved)
//! but never *simulated*. The control-plane subsystem ([`core::control`])
//! simulates it. Under [`core::classical::KnowledgeModel::Gossip`] with a
//! nonzero refresh period, every node holds a
//! [`core::control::KnowledgeView`]: its possibly-stale copy of the
//! network-wide buffer-count rows, refreshed by a rotating-peer gossip
//! schedule ([`core::control::StaleControl`]) whose row transfers arrive
//! only after the classical propagation delay of the node↔peer fiber path
//! ([`core::control::PropagationDelays`]: link lengths from the fabric
//! when one is configured, 200 000 km/s in fiber, plus a fixed processing
//! delay). Policies decide on *believed* counts while the world mutates
//! the true ones, and three things become measurable:
//!
//! * **row age** — how old the believed rows behind real decisions were
//!   ([`core::metrics::RunMetrics::stale_row_age_mean_s`] / `_p95_s`);
//! * **missed swaps** — a distinct failure class
//!   ([`core::metrics::RunMetrics::missed_swaps`], the
//!   [`core::observer::RunObserver::on_swap_missed`] hook): an action
//!   that was believed-feasible but failed its ground-truth probe;
//! * **the trade-off** — messages fall as the refresh period grows, while
//!   age, misses and overhead climb (`cargo run --example gossip_staleness
//!   --release` walks the curve; `results/gossip_staleness.jsonl` is the
//!   campaign-grade sweep).
//!
//! [`core::classical::KnowledgeModel::Global`] never builds a control
//! plane and stays byte-identical to pre-subsystem reports. Gossip
//! knowledge always runs the latency-aware stale plane; a refresh period
//! of `0` couples each node's exchanges to its swap-scan cadence. On the
//! CLI the knowledge axis is
//! `campaign --knowledge global,gossip:K,gossip:K:PERIOD`, and gossip
//! cells grow `stale_row_age_mean_s` / `stale_row_age_p95_s` /
//! `missed_swaps_total` report columns (global cells keep the legacy
//! layout). The `gossip-aware` built-in discipline shows a policy
//! *using* the view's freshness: it discounts believed counts by row age
//! before the §4 preferable-swap test.
//!
//! ```
//! use qnet::prelude::*;
//!
//! let run = |knowledge| {
//!     Experiment::new(ExperimentConfig {
//!         network: NetworkConfig::new(Topology::Cycle { nodes: 9 }),
//!         workload: WorkloadSpec::closed_loop(9, 10, 10),
//!         mode: PolicyId::HYBRID,
//!         knowledge,
//!         seed: 13,
//!         max_sim_time_s: 6_000.0,
//!     })
//!     .run()
//! };
//!
//! // A 1-second refresh over 2 rotating peers: believed rows age, and
//! // some believed-feasible actions fail their ground-truth probe.
//! let gossip = run(KnowledgeModel::parse("gossip:2:1").unwrap());
//! assert!(gossip.metrics.stale_row_age_mean_s.unwrap() > 0.0);
//! assert!(gossip.metrics.missed_swaps > 0);
//!
//! // The same seed under global knowledge: no ages, no misses — and no
//! // change against pre-control-plane behavior.
//! let global = run(KnowledgeModel::Global);
//! assert_eq!(global.metrics.stale_row_age_mean_s, None);
//! assert_eq!(global.metrics.missed_swaps, 0);
//!
//! // Gossip without a period refreshes at every swap scan (the paper's
//! // original message accounting); the grammar round-trips through the
//! // CLI labels either way.
//! let counted = KnowledgeModel::parse("gossip:4").unwrap();
//! assert_eq!(counted.label(), "gossip:4");
//! assert_eq!(
//!     KnowledgeModel::parse("gossip:2:0.5").unwrap().label(),
//!     "gossip:2:0.5"
//! );
//! assert!(!KnowledgeModel::Global.is_stale());
//! ```
//!
//! ## Writing your own `SwapPolicy`
//!
//! Swapping disciplines are plugins: implement
//! [`core::policy::SwapPolicy`], register a constructor under a string
//! name, and every selection surface — [`core::ExperimentConfig`], the
//! campaign grid's policy axis, the `campaign` CLI — can run it. The
//! simulation world stays a policy-agnostic substrate; your policy makes
//! the decisions:
//!
//! * [`core::policy::SwapPolicy::schedules_swap_scans`] — whether nodes run
//!   periodic balancing scans (`true` for oblivious-style disciplines);
//! * [`core::policy::SwapPolicy::on_swap_scan`] — which swap a scanning
//!   node performs, consulting the stale gossip view in
//!   [`core::policy::PolicyCtx`] when partial knowledge is configured;
//! * [`core::policy::SwapPolicy::on_blocked_request`] — what to do when a
//!   consumption request cannot be served from the inventory: wait, repair
//!   (report the swaps you executed) or drop;
//! * [`core::policy::SwapPolicy::queue_discipline`] — head-of-line or
//!   any-order draining of the request queue.
//!
//! ```
//! use qnet::core::policy::{
//!     self, PolicyCtx, PolicyEntry, PolicyFamily, PolicyId, RequestAction, SwapPolicy,
//! };
//! use qnet::core::workload::ConsumptionRequest;
//! use qnet::core::{Experiment, ExperimentConfig};
//!
//! /// A do-nothing discipline: consume only directly generated pairs.
//! #[derive(Debug, Default)]
//! struct DirectOnly;
//!
//! impl SwapPolicy for DirectOnly {
//!     fn id(&self) -> PolicyId {
//!         PolicyId::parse("direct-only").expect("registered below")
//!     }
//!     fn on_blocked_request(
//!         &mut self,
//!         _ctx: &mut PolicyCtx<'_>,
//!         _request: &ConsumptionRequest,
//!     ) -> RequestAction {
//!         RequestAction::Wait
//!     }
//! }
//!
//! let id = policy::register(PolicyEntry {
//!     name: "direct-only",
//!     display: "DirectOnly",
//!     aliases: &[],
//!     family: PolicyFamily::Planned,
//!     summary: "never swaps; serves neighbor requests only",
//!     constructor: || Box::new(DirectOnly),
//! })
//! .expect("name is free");
//!
//! // The new policy is now selectable everywhere a built-in is.
//! let config = ExperimentConfig {
//!     mode: id,
//!     max_sim_time_s: 50.0,
//!     ..ExperimentConfig::default()
//! };
//! let result = Experiment::new(config).run();
//! assert_eq!(result.mode, PolicyId::parse("direct-only").unwrap());
//! ```
//!
//! The built-in disciplines (`oblivious`, `hybrid`, `planned`,
//! `connectionless`, and the greedy nested-ordering policy `greedy`) are
//! implemented the same way under [`core::policy`] — read them as worked
//! examples. To observe a run beyond the standard metrics, attach a
//! [`core::observer::RunObserver`] with
//! [`core::network::QuantumNetworkWorld::add_observer`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Parallel scenario-campaign engine for sweep experiments.
pub use qnet_campaign as campaign;
/// The paper's contribution: balancer, LP model, baselines, experiments.
pub use qnet_core as core;
/// Linear-programming substrate.
pub use qnet_lp as lp;
/// Quantum-state substrate.
pub use qnet_quantum as quantum;
/// Discrete-event simulation substrate.
pub use qnet_sim as sim;
/// Graph/topology substrate.
pub use qnet_topology as topology;

/// Commonly used items, for glob import in examples and quick experiments.
pub mod prelude {
    pub use qnet_campaign::{RunnerConfig, ScenarioGrid};
    pub use qnet_core::balancer::{BalancerPolicy, SwapCandidate};
    pub use qnet_core::classical::KnowledgeModel;
    pub use qnet_core::config::{DistillationSpec, NetworkConfig};
    pub use qnet_core::experiment::{Experiment, ExperimentConfig, ExperimentResult};
    pub use qnet_core::inventory::Inventory;
    pub use qnet_core::lp_model::{LpObjective, SteadyStateModel};
    pub use qnet_core::nested::nested_swap_cost;
    pub use qnet_core::observer::{MetricsRecorder, RunObserver};
    pub use qnet_core::physics::{ConsumeOrder, PhysicsModel};
    pub use qnet_core::policy::{PolicyCtx, PolicyFamily, PolicyId, RequestAction, SwapPolicy};
    pub use qnet_core::rates::RateMatrices;
    pub use qnet_core::trace::TraceWriter;
    pub use qnet_core::workload::{PairSelection, TrafficModel, Workload, WorkloadSpec};
    pub use qnet_sim::{SimDuration, SimRng, SimTime};
    pub use qnet_topology::{
        FabricSpec, Graph, HardwarePreset, LinkFabric, LinkProfile, NodeId, NodePair, Topology,
    };
}
