//! The outside-in traced loop.
//!
//! [`drive`] reproduces `Experiment::run` step by step through the
//! simulator's public API — the set-up constructors, [`EventQueue::pop`] and
//! [`World::handle`] — and times each call from the outside, grouping
//! handler time by [`NetEvent`] kind. The program itself carries no
//! instrumentation, so a traced run executes exactly the code an untraced
//! run does, plus one clock read at each call boundary.

use crate::workloads::Run;
use qnet_core::experiment::ExperimentResult;
use qnet_core::network::{NetEvent, QuantumNetworkWorld};
use qnet_sim::{EventQueue, SimTime, World};
use std::hint::black_box;
use std::time::Instant;

/// The [`NetEvent`] kinds, in the order [`Trace::kinds`] stores them.
pub const KINDS: [&str; 7] = [
    "generate",
    "swap_scan",
    "request_arrival",
    "arrival_wake",
    "gossip_exchange",
    "swap_execute",
    "cutoff_sweep",
];

fn kind_index(event: &NetEvent) -> usize {
    match event {
        NetEvent::Generate { .. } => 0,
        NetEvent::SwapScan { .. } => 1,
        NetEvent::RequestArrival { .. } => 2,
        NetEvent::ArrivalWake => 3,
        NetEvent::GossipExchange { .. } => 4,
        NetEvent::SwapExecute { .. } => 5,
        NetEvent::CutoffSweep => 6,
    }
}

/// Events handled and host seconds spent in [`World::handle`] for one kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindStats {
    /// Events of this kind handled.
    pub events: u64,
    /// Host seconds inside `handle` for this kind. The handler is a leaf
    /// seen from outside, so its self time is its whole duration.
    pub self_s: f64,
}

/// Host time and work counts of one driven run, by layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// `NetworkConfig::build_graph`.
    pub build_graph_s: f64,
    /// `NetworkConfig::build_fabric` on the built graph.
    pub build_fabric_s: f64,
    /// World construction (workload generation or arrival stream, world
    /// constructor) plus re-staging the seeded events onto the run queue.
    pub world_new_s: f64,
    /// Events popped off the run queue.
    pub pops: u64,
    /// Host seconds in `EventQueue::peek_time` + `EventQueue::pop`.
    pub pop_s: f64,
    /// Largest queue length seen before a pop.
    pub queue_len_max: usize,
    /// Per-kind handler statistics, indexed like [`KINDS`].
    pub kinds: [KindStats; 7],
    /// `QuantumNetworkWorld::finish` + `QuantumNetworkWorld::metrics`.
    pub finish_s: f64,
    /// Host seconds from the start of world construction to the extracted
    /// metrics, clock reads included: the traced counterpart of one
    /// untraced `Experiment::run`.
    pub total_s: f64,
}

impl Trace {
    /// Fold another run's trace into this one (sums, and the larger queue
    /// length).
    pub fn merge(&mut self, other: &Trace) {
        self.build_graph_s += other.build_graph_s;
        self.build_fabric_s += other.build_fabric_s;
        self.world_new_s += other.world_new_s;
        self.pops += other.pops;
        self.pop_s += other.pop_s;
        self.queue_len_max = self.queue_len_max.max(other.queue_len_max);
        for (mine, theirs) in self.kinds.iter_mut().zip(&other.kinds) {
            mine.events += theirs.events;
            mine.self_s += theirs.self_s;
        }
        self.finish_s += other.finish_s;
        self.total_s += other.total_s;
    }

    /// Events handled, summed over kinds.
    pub fn events(&self) -> u64 {
        self.kinds.iter().map(|k| k.events).sum()
    }

    /// Events of the named kind (0 for an unknown name).
    pub fn kind(&self, name: &str) -> KindStats {
        KINDS
            .iter()
            .position(|&k| k == name)
            .map(|i| self.kinds[i])
            .unwrap_or_default()
    }
}

/// A constructed world with its seeded run queue, ready for the first pop.
pub struct SetUp {
    /// The world.
    pub world: QuantumNetworkWorld,
    /// The run queue, holding the seeded events.
    pub queue: EventQueue<NetEvent>,
}

/// Build the world for `run` exactly as [`Run::run`] does, after building
/// the graph and the link fabric once from outside (a user's
/// config-to-first-event path). Returns the ready world and the three
/// set-up times `(build_graph_s, build_fabric_s, world_new_s)`.
pub fn set_up(run: &Run) -> (SetUp, [f64; 3]) {
    let config = &run.config;
    let t0 = Instant::now();
    let graph = black_box(config.network.build_graph());
    let t1 = Instant::now();
    black_box(config.network.build_fabric(&graph));
    let t2 = Instant::now();

    let mut spec = config.workload;
    spec.node_count = config.network.node_count();
    let mut staging = EventQueue::new();
    let world = if let Some(workload) = run.pinned_workload() {
        QuantumNetworkWorld::new(
            config.network,
            workload,
            config.mode.instantiate(),
            config.knowledge,
            config.seed,
            &mut staging,
        )
    } else if spec.is_open_loop() {
        QuantumNetworkWorld::with_arrival_stream(
            config.network,
            spec.stream(config.seed),
            config.mode.instantiate(),
            config.knowledge,
            config.seed,
            &mut staging,
        )
    } else {
        QuantumNetworkWorld::new(
            config.network,
            spec.generate(config.seed),
            config.mode.instantiate(),
            config.knowledge,
            config.seed,
            &mut staging,
        )
    };
    // Re-stage onto a fresh queue in (time, seq) order, as the experiment
    // runner does before handing the queue to its engine.
    let mut queue = EventQueue::new();
    while let Some(ev) = staging.pop() {
        queue.schedule_at(ev.time, ev.event);
    }
    let t3 = Instant::now();
    (
        SetUp { world, queue },
        [
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64(),
            (t3 - t2).as_secs_f64(),
        ],
    )
}

/// Run `run` to its horizon through the public event loop, timing every
/// pop and every handled event, and return the same [`ExperimentResult`]
/// [`Run::run`] returns together with the run's [`Trace`].
pub fn drive(run: &Run) -> (ExperimentResult, Trace) {
    let config = &run.config;
    let (
        SetUp {
            mut world,
            mut queue,
        },
        [graph_s, fabric_s, world_s],
    ) = set_up(run);
    let mut trace = Trace {
        build_graph_s: graph_s,
        build_fabric_s: fabric_s,
        world_new_s: world_s,
        ..Trace::default()
    };

    let horizon = SimTime::from_secs_f64(config.max_sim_time_s);
    let loop_start = Instant::now();
    let mut now = SimTime::ZERO;
    let mut t = loop_start;
    loop {
        trace.queue_len_max = trace.queue_len_max.max(queue.len());
        let Some(next) = queue.peek_time() else {
            break;
        };
        if next > horizon {
            // The engine advances its clock to the horizon when it stops
            // on one; the result's simulated seconds report that.
            now = horizon;
            break;
        }
        let scheduled = queue.pop().expect("peeked event must pop");
        let popped = Instant::now();
        trace.pops += 1;
        trace.pop_s += (popped - t).as_secs_f64();

        now = scheduled.time;
        let kind = kind_index(&scheduled.event);
        world.handle(now, scheduled.event, &mut queue);
        t = Instant::now();
        let stats = &mut trace.kinds[kind];
        stats.events += 1;
        stats.self_s += (t - popped).as_secs_f64();
    }
    // The final (failed or horizon-stopped) peek is queue time too.
    let loop_end = Instant::now();
    trace.pop_s += (loop_end - t).as_secs_f64();

    world.finish();
    let metrics = world.metrics();
    let end = Instant::now();
    trace.finish_s = (end - loop_end).as_secs_f64();
    trace.total_s = world_s + (end - loop_start).as_secs_f64();

    let network = config.network;
    let result = ExperimentResult {
        topology: network.topology.label(),
        node_count: network.node_count(),
        mode: config.mode,
        distillation_overhead: network.distillation_overhead(),
        satisfied_requests: metrics.satisfied_count(),
        unsatisfied_requests: metrics.unsatisfied_requests,
        swaps_performed: metrics.swaps_performed,
        simulated_seconds: now.as_secs_f64(),
        metrics,
    };
    (result, trace)
}

/// Check (2) of the benchmark: every arrived request is accounted for as
/// satisfied, unsatisfied, dropped or fidelity-rejected. Returns a message
/// naming the mismatch.
pub fn check_accounting(result: &ExperimentResult) -> Result<(), String> {
    let m = &result.metrics;
    let accounted = m.satisfied_count() as u64
        + m.unsatisfied_requests
        + m.dropped_requests
        + m.fidelity_rejected_requests;
    if m.arrived_requests == accounted {
        Ok(())
    } else {
        Err(format!(
            "{}: arrived {} != satisfied {} + unsatisfied {} + dropped {} + fidelity_rejected {}",
            result.topology,
            m.arrived_requests,
            m.satisfied_count(),
            m.unsatisfied_requests,
            m.dropped_requests,
            m.fidelity_rejected_requests
        ))
    }
}

/// Check (1) of the benchmark: the driven loop reproduces [`Run::run`]
/// (`Experiment::run` or `Experiment::run_with_workload`) exactly. Returns
/// the untraced result, its host seconds, and the trace.
pub fn drive_and_compare(run: &Run) -> Result<(ExperimentResult, f64, Trace), String> {
    let t = Instant::now();
    let reference = run.run();
    let untraced_s = t.elapsed().as_secs_f64();
    let (driven, trace) = drive(run);
    if driven != reference {
        return Err(format!(
            "{} seed {}: driven loop diverged from Experiment::run",
            reference.topology, run.config.seed
        ));
    }
    Ok((reference, untraced_s, trace))
}
