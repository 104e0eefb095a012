//! Microbenchmarks of the discrete-event engine: raw event throughput and
//! end-to-end simulation-steps-per-second of the quantum-network model.
//!
//! `BENCH_JSON=BENCH_sim_engine.json cargo bench -p qnet-bench --bench
//! sim_engine_micro` additionally appends one JSON record per benchmark —
//! how the committed `BENCH_sim_engine.json` baseline is produced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qnet_core::classical::KnowledgeModel;
use qnet_core::control::{PropagationDelays, StaleControl};
use qnet_core::experiment::{Experiment, ExperimentConfig};
use qnet_core::policy::PolicyId;
use qnet_core::workload::WorkloadSpec;
use qnet_core::{BalancerPolicy, Inventory, NetworkConfig, PhysicsModel};
use qnet_sim::{run_until, EventQueue, SimDuration, SimTime, World};
use qnet_topology::{
    bfs_path, builders, FabricSpec, HardwarePreset, NodeId, NodePair, PathOracle, Topology,
};
use std::collections::BTreeMap;

struct PingWorld {
    remaining: u64,
}

impl World for PingWorld {
    type Event = ();
    fn handle(&mut self, now: SimTime, _event: (), queue: &mut EventQueue<()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            queue.schedule_after(now, SimDuration::from_nanos(10), ());
        }
    }
}

/// `run_until` over a chain of `events` events, one in flight at a time,
/// each 10 ns after the last: the run loop's per-event cost (peek, pop,
/// handler call, one push into the tick being served). With a single
/// event in flight the queue never sorts, spills or skips a tick, so the
/// row does not measure the queue under load (`event_queue` does).
fn engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine");
    group.sample_size(30);
    for &events in &[10_000u64, 100_000] {
        group.bench_with_input(
            BenchmarkId::new("event_chain", events),
            &events,
            |b, &events| {
                b.iter(|| {
                    let mut world = PingWorld { remaining: events };
                    let mut queue = EventQueue::new();
                    queue.schedule_at(SimTime::ZERO, ());
                    run_until(&mut world, &mut queue, SimTime::MAX)
                })
            },
        );
    }
    group.finish();
}

/// Deterministic SplitMix-style stream for the queue benches (no RNG
/// dependency in the timed loops).
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One timing-wheel tick (2²⁰ ns), the queue's bucket width.
const TICK_NS: u64 = 1 << 20;

/// Pop `pops` events from a queue primed with `in_flight` events spread
/// over `[0, 2·mean_gap)`; each pop schedules one successor, a third of
/// them (when `current_tick_share` is set) a few nanoseconds after the
/// popped event, i.e. into the tick being served, and the rest a uniform
/// `[0, 2·mean_gap)` later.
fn churn(in_flight: u64, mean_gap: u64, pops: u64, current_tick_share: bool) -> u64 {
    let mut q = EventQueue::new();
    let mut state = 1;
    for i in 0..in_flight {
        q.schedule_at(SimTime::from_nanos(mix(&mut state) % (2 * mean_gap)), i);
    }
    let mut checksum = 0u64;
    for i in 0..pops {
        let ev = q.pop().expect("steady load");
        checksum = checksum.wrapping_add(ev.event);
        let r = mix(&mut state);
        let gap = if current_tick_share && r.is_multiple_of(3) {
            (r >> 32) % 64
        } else {
            (r >> 8) % (2 * mean_gap)
        };
        q.schedule_at(ev.time.saturating_add(SimDuration::from_nanos(gap)), i);
    }
    checksum
}

fn event_queue(c: &mut Criterion) {
    // The timing wheel on its own, in three regimes:
    // * `dense_ticks` — ≈ 16 pops per tick, as on the cycle:25 open-loop
    //   hot path: 43 in flight, a third of the pushes landing in the tick
    //   being served and the rest 0–8 ticks ahead (mean stay 2.7 ticks);
    //   10⁵ pops.
    // * `sparse` — one event per ≈ 50 ticks (64 in flight, gaps up to 6400
    //   ticks, so some pass the 4096-tick span into the overflow heap);
    //   10⁴ pops.
    // * `same_instant_burst` — 10⁵ events at one instant, then 10⁵ pops
    //   with a push at that same instant after every other pop: guards
    //   against any push into the tick being served costing O(n).
    let mut group = c.benchmark_group("event_queue");
    group.sample_size(20);
    group.bench_function("dense_ticks", |b| {
        b.iter(|| churn(43, 4 * TICK_NS, 100_000, true))
    });
    group.bench_function("sparse", |b| {
        b.iter(|| churn(64, 64 * 50 * TICK_NS, 10_000, false))
    });
    group.bench_function("same_instant_burst", |b| {
        b.iter(|| {
            let at = SimTime::from_nanos(3 * TICK_NS);
            let mut q = EventQueue::new();
            for i in 0..100_000u64 {
                q.schedule_at(at, i);
            }
            let mut checksum = 0u64;
            for i in 0..100_000u64 {
                checksum = checksum.wrapping_add(q.pop().expect("burst").event);
                if i % 2 == 0 {
                    q.schedule_at(at, i);
                }
            }
            checksum
        })
    });
    group.finish();
}

fn network_simulation_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("network_simulation");
    group.sample_size(10);
    for &nodes in &[9usize, 16] {
        let config = ExperimentConfig {
            network: NetworkConfig::new(Topology::Cycle { nodes }),
            workload: WorkloadSpec::paper_default(nodes).with_requests(10),
            mode: PolicyId::OBLIVIOUS,
            knowledge: KnowledgeModel::Global,
            seed: 3,
            max_sim_time_s: 1_500.0,
        };
        group.bench_with_input(
            BenchmarkId::new("oblivious_run", nodes),
            &config,
            |b, config| b.iter(|| Experiment::new(*config).run().swaps_performed),
        );
    }
    group.finish();
}

fn scale_free_pair_generation(c: &mut Criterion) {
    // Internet-scale pair generation: |N| = 1000 Barabási–Albert graph on
    // metro-fiber hardware, ~2000 heterogeneous edges each firing at its
    // own length-derived rate. Exercises the neighbor-indexed sparse
    // inventory (peer index + occupied-pool maps) — the structures that
    // replaced the dense per-pair scans for this regime.
    let mut group = c.benchmark_group("scale_free_pair_generation");
    group.sample_size(10);
    let nodes = 1000usize;
    let config = ExperimentConfig {
        network: NetworkConfig::new(Topology::ScaleFree { nodes, attach: 2 })
            .with_fabric(FabricSpec::new(HardwarePreset::MetroFiber)),
        workload: WorkloadSpec::closed_loop(nodes, 20, 10),
        mode: PolicyId::OBLIVIOUS,
        knowledge: KnowledgeModel::Global,
        seed: 11,
        max_sim_time_s: 5.0,
    };
    group.bench_with_input(
        BenchmarkId::new("metro_fiber_run", nodes),
        &config,
        |b, config| b.iter(|| Experiment::new(*config).run().metrics.pairs_generated),
    );
    group.finish();
}

fn open_loop_million(c: &mut Criterion) {
    // Million-flow hot path: lazily-streamed Poisson arrivals driven to full
    // satisfaction (cycle) or through a hardware-calibrated fabric
    // (scale-free @ metro fiber). Rates are tuned so the 25-node cycle
    // serves every arrival (scan capacity above offered load), which keeps
    // the pending queue bounded and pushes the metrics recorder past its
    // exact-sample threshold into sketch mode — the bench exercises the
    // timing wheel, the lazy arrival stream, and the streaming recorder
    // together.
    let mut group = c.benchmark_group("open_loop_million");
    let cycle_config = |requests: u64| {
        let nodes = 25usize;
        let rate_hz = 500.0;
        let horizon_s = requests as f64 / rate_hz;
        ExperimentConfig {
            network: NetworkConfig::new(Topology::Cycle { nodes })
                .with_generation_rate(400.0)
                .with_swap_scan_rate(200.0),
            workload: WorkloadSpec::open_loop(nodes, 35, rate_hz, horizon_s),
            mode: PolicyId::OBLIVIOUS,
            knowledge: KnowledgeModel::Global,
            seed: 7,
            max_sim_time_s: horizon_s * 2.0,
        }
    };
    let scale_free_config = |requests: u64| {
        let nodes = 1000usize;
        let rate_hz = 500.0;
        let horizon_s = requests as f64 / rate_hz;
        ExperimentConfig {
            network: NetworkConfig::new(Topology::ScaleFree { nodes, attach: 2 })
                .with_fabric(FabricSpec::new(HardwarePreset::MetroFiber)),
            workload: WorkloadSpec::open_loop(nodes, 35, rate_hz, horizon_s),
            mode: PolicyId::OBLIVIOUS,
            knowledge: KnowledgeModel::Global,
            seed: 7,
            max_sim_time_s: horizon_s * 2.0,
        }
    };
    for &requests in &[100_000u64, 1_000_000] {
        group.sample_size(if requests >= 1_000_000 { 2 } else { 5 });
        let config = cycle_config(requests);
        group.bench_with_input(
            BenchmarkId::new("cycle25_wheel", requests),
            &config,
            |b, config| b.iter(|| Experiment::new(*config).run().satisfied_requests),
        );
    }
    // The scale-free rows time balancing churn, not service: at the default
    // generation and scan rates the oblivious discipline satisfies 1 of the
    // 100 208 arrivals of the 10⁵ run (seed 7), while the balancer performs
    // ~3.6·10⁵ swaps.
    for &requests in &[100_000u64, 1_000_000] {
        group.sample_size(if requests >= 1_000_000 { 2 } else { 3 });
        let config = scale_free_config(requests);
        group.bench_with_input(
            BenchmarkId::new("scale_free1000_churn", requests),
            &config,
            |b, config| b.iter(|| Experiment::new(*config).run().metrics.arrived_requests),
        );
    }
    group.finish();
}

fn path_oracle_cold_vs_memoized_bfs(c: &mut Criterion) {
    // Shortest-path service on an internet-scale graph: the legacy approach
    // (one full BFS per distinct pair, memoized — what the planned/greedy
    // `PathCache`s used to do) against a cold `PathOracle` (shared per-source
    // BFS rows, O(path) reconstruction per query). The query mix mirrors what
    // the engine offers: a workload's consumer pairs draw from a small
    // endpoint set, so sources repeat across pairs — exactly where one
    // memoized row per source beats one memoized BFS per pair.
    let mut group = c.benchmark_group("path_oracle");
    group.sample_size(10);
    let nodes = 1000usize;
    let graph = builders::scale_free(nodes, 2, 7);
    // 2048 queries over 256 distinct pairs drawn from 32 consumer endpoints
    // (deterministic, no RNG).
    let queries: Vec<(NodeId, NodeId)> = (0..2048u32)
        .map(|i| {
            let k = i % 256;
            let a = ((k % 32).wrapping_mul(131) + 7) % nodes as u32;
            let b = (k.wrapping_mul(211) + 13) % nodes as u32;
            let b = if b == a { (b + 1) % nodes as u32 } else { b };
            (NodeId(a), NodeId(b))
        })
        .collect();
    group.bench_with_input(
        BenchmarkId::new("memoized_bfs", nodes),
        &queries,
        |b, queries| {
            b.iter(|| {
                let mut cache: BTreeMap<NodePair, Option<usize>> = BTreeMap::new();
                queries
                    .iter()
                    .filter_map(|&(s, t)| {
                        *cache
                            .entry(NodePair::new(s, t))
                            .or_insert_with(|| bfs_path(&graph, s, t).map(|p| p.nodes.len() - 1))
                    })
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("oracle_cold", nodes),
        &queries,
        |b, queries| {
            b.iter(|| {
                let oracle = PathOracle::new(&graph);
                queries
                    .iter()
                    .filter_map(|&(s, t)| oracle.hops(&graph, s, t))
                    .sum::<usize>()
            })
        },
    );
    group.finish();
}

fn inventory_hot_scan(c: &mut Criterion) {
    // The balancer's swap-scan inner loop on a hot 25-node world: every
    // node scans once and executes its preferable swap against a
    // well-stocked decoherent inventory. This is the per-event cost that
    // runs millions of times in the open-loop stress path — pool pushes,
    // FIFO takes, and slot recycling all included.
    let mut group = c.benchmark_group("inventory_hot_scan");
    group.sample_size(30);
    let n = 25usize;
    let mut stocked = Inventory::new(n);
    stocked.enable_lot_tracking(&PhysicsModel::decoherent(5.0));
    // Deep cycle-edge pools plus a sprinkling of mid-range pairs so
    // every node has several rich peers and scans find work.
    for i in 0..n as u32 {
        let next = (i + 1) % n as u32;
        for _ in 0..6 {
            stocked
                .add_pair(NodePair::new(NodeId(i), NodeId(next)))
                .unwrap();
        }
        stocked
            .add_pair(NodePair::new(NodeId(i), NodeId((i + 7) % n as u32)))
            .unwrap();
    }
    group.bench_with_input(
        BenchmarkId::new("scan_and_swap", "flat"),
        &stocked,
        |b, stocked| {
            b.iter(|| {
                let mut inv = stocked.clone();
                let policy = BalancerPolicy;
                let overhead = |_: NodePair| 1.0;
                let mut swaps = 0u32;
                for node in (0..n).map(NodeId::from) {
                    if policy.scan_and_swap(&mut inv, node, &overhead).is_some() {
                        swaps += 1;
                    }
                }
                swaps
            })
        },
    );
    group.finish();
}

fn knowledge_view(c: &mut Criterion) {
    // The stale control plane's hot loop and its end-to-end cost.
    //
    // `exchange_deliver` isolates the plane's own bookkeeping on a 100-node
    // cycle: one full round of rotating-peer exchanges (row snapshots into
    // the in-flight heap) followed by maturing every delivery into the
    // per-node views — the work the world does around each gossip tick,
    // with no simulation attached.
    //
    // `gossip_run` is a 25-node closed-loop experiment under 0.5 s gossip:
    // the plane's cost composed into a full run.
    let mut group = c.benchmark_group("knowledge_view");
    group.sample_size(20);
    {
        let n = 100usize;
        let graph = Topology::Cycle { nodes: n }.build(0);
        let oracle = PathOracle::new(&graph);
        let delays = PropagationDelays::new(&graph, None, &oracle);
        let mut truth = Inventory::new(n);
        for i in 0..n as u32 {
            let next = (i + 1) % n as u32;
            for _ in 0..4 {
                truth
                    .add_pair(NodePair::new(NodeId(i), NodeId(next)))
                    .unwrap();
            }
        }
        group.bench_with_input(
            BenchmarkId::new("exchange_deliver", n),
            &(delays, truth),
            |b, (delays, truth)| {
                b.iter(|| {
                    let mut ctl = StaleControl::new(n, 2, 0.25, delays.clone());
                    for round in 0..8u32 {
                        let now = SimTime::from_secs_f64(round as f64 * 0.25);
                        ctl.deliver_matured(now);
                        for node in (0..n).map(NodeId::from) {
                            ctl.exchange(now, node, truth);
                        }
                    }
                    ctl.deliver_matured(SimTime::from_secs_f64(10.0));
                    ctl.in_flight_len()
                })
            },
        );
    }
    {
        group.sample_size(10);
        let config = ExperimentConfig {
            network: NetworkConfig::new(Topology::Cycle { nodes: 25 }),
            workload: WorkloadSpec::closed_loop(25, 10, 12),
            mode: PolicyId::OBLIVIOUS,
            knowledge: KnowledgeModel::Gossip {
                peers_per_refresh: 2,
                refresh_period_s: 0.5,
            },
            seed: 11,
            max_sim_time_s: 4_000.0,
        };
        group.bench_with_input(
            BenchmarkId::new("gossip_run", "stale"),
            &config,
            |b, config| b.iter(|| Experiment::new(*config).run().satisfied_requests),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    engine_throughput,
    event_queue,
    network_simulation_throughput,
    scale_free_pair_generation,
    open_loop_million,
    path_oracle_cold_vs_memoized_bfs,
    inventory_hot_scan,
    knowledge_view
);
criterion_main!(benches);
