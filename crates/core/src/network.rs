//! The discrete-event simulation substrate of the quantum network (§5).
//!
//! The model wires together the physical substrates — Bell-pair generation
//! processes on every generation-graph edge, the inventory, the knowledge
//! (gossip) layer and the consumption workload — and delegates every
//! protocol *decision* to a pluggable [`SwapPolicy`]: which swap a scanning
//! node performs, how a blocked request is handled, and in which order the
//! request queue drains. Statistics are not baked in either: the world fires
//! [`crate::observer::RunObserver`] hooks, and the standard
//! [`MetricsRecorder`] observer folds them into [`RunMetrics`].
//!
//! Requests are **injected over simulated time**: every
//! [`ConsumptionRequest`] is scheduled as a [`NetEvent::RequestArrival`]
//! at its arrival time (a drawn stream [`ARRIVAL_BATCH`] at a time), so
//! open-loop traffic models interleave arrivals with generation and swap
//! scans, and the pending queue a policy sees can grow mid-run. Closed-loop batches
//! degenerate to all arrivals at `t = 0`, reproducing the paper's
//! sequential semantics (and the pre-traffic-model results) exactly. The
//! run ends when the horizon is reached or when the queue is drained *and*
//! no arrival is outstanding.
//!
//! It implements [`qnet_sim::World`]: a constructor seeds the queue it is
//! handed, and [`qnet_sim::run_until`] runs the world on that same queue.
//! [`crate::experiment`] resolves a policy from the registry, runs the
//! world to the horizon and extracts the metrics.

use crate::balancer::SwapCandidate;
use crate::classical::KnowledgeModel;
use crate::config::NetworkConfig;
use crate::control::{DecisionTelemetry, PropagationDelays, StaleControl, PROCESSING_DELAY_S};
use crate::inventory::Inventory;
use crate::metrics::{RunMetrics, SatisfiedRequest};
use crate::observer::{MetricsRecorder, RunObserver, SwapKind};
use crate::policy::{PolicyCtx, QueueDiscipline, RequestAction, SwapPolicy, WaitCertificate};
use crate::workload::{ArrivalStream, ConsumptionRequest, Workload};
use qnet_sim::{EventQueue, PoissonProcess, SimDuration, SimRng, SimTime, World};
use qnet_topology::{EdgeIndex, Graph, NodeId, NodePair, PathOracle};
use std::collections::VecDeque;

/// Events driving the network model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEvent {
    /// A Bell-pair generation attempt completes on a generation edge.
    Generate {
        /// The generation edge.
        edge: NodePair,
    },
    /// A node runs its swap scan.
    SwapScan {
        /// The scanning node.
        node: NodeId,
    },
    /// A consumption request enters the system.
    RequestArrival {
        /// The arriving request.
        request: ConsumptionRequest,
    },
    /// Discard stored pairs that outlived the physics cutoff (scheduled only
    /// under decoherent physics with a finite cutoff; never fires under the
    /// default ideal physics, keeping those runs byte-identical).
    CutoffSweep,
    /// Pump the next batch of arrivals out of the world's [`ArrivalStream`].
    /// Scheduled at the last arrival time of the previous batch (with a
    /// later tie-break seq, so it pops after that arrival) and handled
    /// without touching the clocked world state, so a run crossing a wake
    /// matches one that scheduled every arrival up front.
    ArrivalWake,
    /// A node runs one gossip exchange: it pulls `peers_per_refresh`
    /// rotating peers' count rows, which arrive after their classical
    /// propagation delay. Scheduled only under gossip knowledge; never
    /// fires under `Global` knowledge, keeping those runs byte-identical.
    GossipExchange {
        /// The exchanging (pulling) node.
        node: NodeId,
    },
    /// Execute a balancing swap proposed on a node's (possibly stale)
    /// believed counts. Scheduled one classical coordination round-trip
    /// after the scan that proposed it; by the time it fires, ground truth
    /// may have drifted and the swap can *miss*. Gossip knowledge only.
    SwapExecute {
        /// The proposed swap.
        candidate: SwapCandidate,
    },
}

/// How many arrivals are scheduled per [`NetEvent::ArrivalWake`]: large
/// enough to amortise the wake overhead, small enough that the event queue
/// never holds more than a sliver of a million-request horizon.
pub const ARRIVAL_BATCH: usize = 1024;

/// What serving one pending request did (see
/// [`QuantumNetworkWorld::serve`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Served {
    /// Its pairs were consumed: a satisfaction or a fidelity rejection.
    Consumed,
    /// The policy dropped it.
    Dropped,
    /// It stays pending.
    Blocked,
}

/// The simulation substrate: policy-agnostic world state plus the attached
/// policy and observers.
#[derive(Debug)]
pub struct QuantumNetworkWorld {
    config: NetworkConfig,
    policy: Box<dyn SwapPolicy>,
    knowledge: KnowledgeModel,
    graph: Graph,
    inventory: Inventory,
    /// The classical control plane: `None` under `Global` knowledge
    /// (instantaneous truth), the stale event-driven gossip plane otherwise
    /// (see [`crate::control`]).
    control: Option<StaleControl>,
    /// Scratch the policy fills with row ages / misses during stale
    /// decisions; drained into observer hooks after every policy call.
    telemetry: DecisionTelemetry,
    /// What the last blocked head-of-line offer read; while held, the
    /// head is not re-offered (see [`WaitCertificate`]).
    certificate: WaitCertificate,
    /// Re-offer the blocked head after every gain, holding no certificate:
    /// the reference drain the certificates are checked against.
    #[cfg(test)]
    always_reoffer: bool,
    /// Pending requests in arrival order. Head-of-line draining offers
    /// only the front; any-order draining offers each once per drain and
    /// rotates the blocked ones back, keeping their order.
    pending: VecDeque<ConsumptionRequest>,
    /// Requests scheduled as arrival events but not yet delivered.
    arrivals_outstanding: usize,
    /// Requests not yet scheduled; `None` once the stream is exhausted.
    arrival_stream: Option<ArrivalStream>,
    /// Cached [`SwapPolicy::blocked_hook_is_inert`] (the policy is behind a
    /// vtable; this sits on the per-blocked-offer hot path).
    inert_blocked_hook: bool,
    /// Memoised shortest-path rows over the immutable generation graph:
    /// `consume` needs the hop count of every satisfied request, and policy
    /// path caches need whole paths — one BFS row per touched source
    /// answers all of them (all-pairs precomputed on small graphs).
    oracle: PathOracle,
    /// Dense edge ids over the generation graph (frozen at construction).
    edge_index: EdgeIndex,
    /// Per-edge generation rates addressed by edge id: the fabric profile's
    /// rate or the homogeneous configured rate. Replaces a per-generation
    /// `BTreeMap` profile lookup on the hot path.
    edge_rates: Vec<f64>,
    rng: SimRng,
    recorder: MetricsRecorder,
    extra_observers: Vec<Box<dyn RunObserver>>,
    /// Storage-age cutoff of the physics model, if any.
    cutoff: Option<SimDuration>,
    /// End-to-end fidelity floor of the physics model, if any.
    fidelity_floor: Option<f64>,
    /// Whether a [`NetEvent::CutoffSweep`] is currently scheduled.
    sweep_pending: bool,
}

impl QuantumNetworkWorld {
    /// Build the model and seed `queue`, the queue that will run it, with
    /// the initial generation and scan events and every request of the
    /// workload (see [`Self::with_arrival_stream`]).
    pub fn new(
        config: NetworkConfig,
        workload: Workload,
        policy: Box<dyn SwapPolicy>,
        knowledge: KnowledgeModel,
        seed: u64,
        queue: &mut EventQueue<NetEvent>,
    ) -> Self {
        let stream = ArrivalStream::from(workload);
        Self::with_arrival_stream(config, stream, policy, knowledge, seed, queue)
    }

    /// Build the model with a lazy [`ArrivalStream`] instead of a
    /// materialised [`Workload`], so memory stays flat however long the
    /// open-loop horizon is. A drawn stream is scheduled [`ARRIVAL_BATCH`]
    /// arrivals at a time, with a self-rescheduling
    /// [`NetEvent::ArrivalWake`] pumping the next batch: closed-loop
    /// batches all arrive at t = 0, after every seeded event at that
    /// instant, and open-loop traffic interleaves with the physical
    /// processes. A listed stream (a [`Workload`], as [`Self::new`] passes
    /// it) is scheduled whole by the same pump, with no wake. A drawn
    /// stream yields exactly the requests
    /// [`crate::workload::WorkloadSpec::generate`] materialises, so both
    /// constructors run the same events.
    pub fn with_arrival_stream(
        config: NetworkConfig,
        stream: ArrivalStream,
        policy: Box<dyn SwapPolicy>,
        knowledge: KnowledgeModel,
        seed: u64,
        queue: &mut EventQueue<NetEvent>,
    ) -> Self {
        let mut world = Self::without_arrivals(config, policy, knowledge, seed, queue);
        world.arrival_stream = Some(stream);
        world.pump_arrivals(queue);
        world
    }

    /// The eager scheduling the batch pump replaced, kept as the reference
    /// it is checked against: every request is scheduled up front into a
    /// staging queue, which is then re-staged onto `queue` in `(time, seq)`
    /// order.
    #[cfg(test)]
    pub(crate) fn with_eager_arrivals(
        config: NetworkConfig,
        workload: Workload,
        policy: Box<dyn SwapPolicy>,
        knowledge: KnowledgeModel,
        seed: u64,
        queue: &mut EventQueue<NetEvent>,
    ) -> Self {
        let mut staging = EventQueue::new();
        let mut world = Self::without_arrivals(config, policy, knowledge, seed, &mut staging);
        world.arrivals_outstanding = workload.requests.len();
        for request in workload.requests {
            staging.schedule_at(request.arrival_time, NetEvent::RequestArrival { request });
        }
        while let Some(ev) = staging.pop() {
            queue.schedule_at(ev.time, ev.event);
        }
        world
    }

    fn without_arrivals(
        config: NetworkConfig,
        policy: Box<dyn SwapPolicy>,
        knowledge: KnowledgeModel,
        seed: u64,
        queue: &mut EventQueue<NetEvent>,
    ) -> Self {
        let graph = config.build_graph();
        let n = graph.node_count();
        let mut inventory = match config.buffer_limit {
            Some(limit) => Inventory::with_buffer_limit(n, limit),
            None => Inventory::new(n),
        };
        // Decoherent physics: pairs become age/fidelity-tracked lots. Under
        // the default ideal physics this is a no-op and every code path
        // below behaves exactly as the pre-physics stack.
        inventory.enable_lot_tracking(&config.physics);
        // A link fabric attaches hardware-calibrated per-edge profiles:
        // elementary pairs are born at the edge's fidelity and decay with
        // the edge's memory, instead of the global physics numbers.
        let fabric = config.build_fabric(&graph);
        if let Some(fabric) = &fabric {
            inventory.set_link_physics(
                fabric
                    .iter()
                    .map(|(pair, prof)| (pair, prof.initial_fidelity, prof.coherence_time_s)),
            );
        }
        let rng = SimRng::new(seed).derive("network");
        let inert_blocked_hook = policy.blocked_hook_is_inert();
        let oracle = PathOracle::new(&graph);
        let control = match knowledge {
            KnowledgeModel::Global => None,
            KnowledgeModel::Gossip {
                peers_per_refresh,
                refresh_period_s,
            } => {
                let delays = PropagationDelays::new(&graph, fabric.as_ref(), &oracle);
                // Period 0.0 couples exchanges to the swap-scan cadence.
                let period = if refresh_period_s > 0.0 {
                    refresh_period_s
                } else {
                    1.0 / config.swap_scan_rate
                };
                Some(StaleControl::new(n, peers_per_refresh, period, delays))
            }
        };
        let edge_index = EdgeIndex::new(&graph);
        let edge_rates = edge_index.table(|pair| {
            fabric
                .as_ref()
                .and_then(|f| f.profile(pair))
                .map(|p| p.generation_rate_hz)
                .unwrap_or(config.generation_rate)
        });

        let mut world = QuantumNetworkWorld {
            config,
            policy,
            knowledge,
            graph,
            inventory,
            control,
            telemetry: DecisionTelemetry::default(),
            certificate: WaitCertificate::new(n, config.buffer_limit.is_some()),
            #[cfg(test)]
            always_reoffer: false,
            pending: VecDeque::new(),
            arrivals_outstanding: 0,
            arrival_stream: None,
            inert_blocked_hook,
            oracle,
            edge_index,
            edge_rates,
            rng,
            recorder: MetricsRecorder::new(),
            extra_observers: Vec::new(),
            cutoff: config.physics.cutoff_s().map(SimDuration::from_secs_f64),
            fidelity_floor: config.physics.fidelity_floor(),
            sweep_pending: false,
        };
        world.seed_events(queue);
        world
    }

    /// Schedule up to [`ARRIVAL_BATCH`] requests from the arrival stream,
    /// plus one [`NetEvent::ArrivalWake`] at the last scheduled arrival time
    /// when the stream may have more to give. The wake is scheduled after
    /// its co-timed arrival (later seq), so the next batch is pumped exactly
    /// when the queue would otherwise run out of arrivals. A listed stream
    /// is already in memory and is scheduled whole, so its arrival times
    /// need not be ordered: a batch boundary would schedule the next batch
    /// at the last arrival time of this one.
    fn pump_arrivals(&mut self, queue: &mut EventQueue<NetEvent>) {
        let Some(stream) = self.arrival_stream.as_mut() else {
            return;
        };
        let batch = if stream.is_listed() {
            usize::MAX
        } else {
            ARRIVAL_BATCH
        };
        let mut last_at = None;
        for _ in 0..batch {
            match stream.next_request() {
                Some(request) => {
                    self.arrivals_outstanding += 1;
                    last_at = Some(request.arrival_time);
                    queue.schedule_at(request.arrival_time, NetEvent::RequestArrival { request });
                }
                None => {
                    self.arrival_stream = None;
                    return;
                }
            }
        }
        if let Some(at) = last_at {
            queue.schedule_at(at, NetEvent::ArrivalWake);
        }
    }

    /// Attach an additional [`RunObserver`]; hooks fire in attachment order
    /// after the built-in metrics recorder.
    pub fn add_observer(&mut self, observer: Box<dyn RunObserver>) {
        self.extra_observers.push(observer);
    }

    /// Fire an observer hook on the metrics recorder and every extra
    /// observer, in order.
    fn notify(&mut self, hook: impl FnMut(&mut dyn RunObserver)) {
        notify_all(&mut self.recorder, &mut self.extra_observers, hook);
    }

    fn seed_events(&mut self, queue: &mut EventQueue<NetEvent>) {
        let edges: Vec<(NodeId, NodeId)> = self.graph.edges().collect();
        for (a, b) in edges {
            let edge = NodePair::new(a, b);
            if let Some(at) = self.next_generation_time(SimTime::ZERO, edge) {
                queue.schedule_at(at, NetEvent::Generate { edge });
            }
        }
        if self.policy.schedules_swap_scans() {
            let scan_interval = SimDuration::from_secs_f64(1.0 / self.config.swap_scan_rate);
            for node in self.graph.nodes() {
                // Stagger the first scans so all nodes do not fire in lockstep.
                let offset = scan_interval.mul_f64(self.rng.uniform());
                queue.schedule_at(SimTime::ZERO + offset, NetEvent::SwapScan { node });
            }
        }
        // Stale gossip exchanges stagger deterministically (period · i/n)
        // with no RNG draws, so adding the control plane never perturbs the
        // draw sequence of the physical processes above.
        if let Some(ctl) = &self.control {
            let period = ctl.period();
            let n = self.graph.node_count();
            for (i, node) in self.graph.nodes().enumerate() {
                let offset = period.mul_f64(i as f64 / n as f64);
                queue.schedule_at(SimTime::ZERO + offset, NetEvent::GossipExchange { node });
            }
        }
    }

    /// Generation rate of `edge`: its fabric profile's rate when a link
    /// fabric is attached, the homogeneous configured rate otherwise.
    /// Served from the dense per-edge table (binary search over the sorted
    /// edge list — a dozen probes of one contiguous array, not a tree walk).
    fn generation_rate(&self, edge: NodePair) -> f64 {
        match self.edge_index.edge_id(edge) {
            Some(id) => self.edge_rates[id as usize],
            None => self.config.generation_rate,
        }
    }

    fn next_generation_time(&mut self, now: SimTime, edge: NodePair) -> Option<SimTime> {
        let rate = self.generation_rate(edge);
        if self.config.poisson_generation {
            // `PoissonProcess` is memoryless: one exponential draw per call,
            // so constructing it per edge keeps the RNG sequence identical
            // to the homogeneous path whenever the rates coincide.
            PoissonProcess::new(rate).next_arrival(now, &mut self.rng)
        } else {
            Some(now + SimDuration::from_secs_f64(1.0 / rate))
        }
    }

    /// True when every injected consumption request has been satisfied (or
    /// dropped) and no arrival is still outstanding.
    pub fn is_done(&self) -> bool {
        self.pending.is_empty() && self.arrivals_outstanding == 0 && self.arrival_stream.is_none()
    }

    /// Current inventory (read-only).
    pub fn inventory(&self) -> &Inventory {
        &self.inventory
    }

    /// The generation graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The attached policy.
    pub fn policy(&self) -> &dyn SwapPolicy {
        self.policy.as_ref()
    }

    /// Number of swaps performed so far.
    pub fn swaps_performed(&self) -> u64 {
        self.recorder.swaps_performed()
    }

    /// Shortest-path hop count between the endpoints of `pair` in the
    /// generation graph (memoised per source by the oracle; the graph never
    /// changes after construction).
    fn shortest_hops(&self, pair: NodePair) -> usize {
        self.oracle
            .hops(&self.graph, pair.lo(), pair.hi())
            .unwrap_or(usize::MAX)
    }

    fn record_inventory_change(&mut self, now: SimTime) {
        let msgs = self.knowledge.messages_per_change(self.graph.node_count());
        self.notify(|o| o.on_count_updates(now, msgs));
    }

    /// Run `decide` on the policy with a decision context over the
    /// split-borrowed substrate, then forward the telemetry it recorded.
    fn with_policy<R>(
        &mut self,
        now: SimTime,
        decide: impl FnOnce(&mut dyn SwapPolicy, &mut PolicyCtx<'_>) -> R,
    ) -> R {
        let result = {
            let QuantumNetworkWorld {
                policy,
                config,
                graph,
                inventory,
                control,
                telemetry,
                certificate,
                oracle,
                ..
            } = self;
            let mut ctx = PolicyCtx {
                config,
                graph,
                inventory,
                control: control.as_ref(),
                now,
                telemetry,
                certificate,
                oracle,
            };
            decide(policy.as_mut(), &mut ctx)
        };
        self.drain_decision_telemetry(now);
        result
    }

    fn blocked_request_action(
        &mut self,
        now: SimTime,
        request: &ConsumptionRequest,
    ) -> RequestAction {
        self.with_policy(now, |policy, ctx| policy.on_blocked_request(ctx, request))
    }

    /// Forward whatever row ages / misses the last policy call recorded to
    /// the observers, keeping the pad's buffers. A no-op (single branch)
    /// under global knowledge, where the telemetry pad is never written.
    fn drain_decision_telemetry(&mut self, now: SimTime) {
        if self.telemetry.is_empty() {
            return;
        }
        let QuantumNetworkWorld {
            telemetry,
            recorder,
            extra_observers,
            ..
        } = self;
        for &age_s in telemetry.ages() {
            notify_all(recorder, extra_observers, |o| {
                o.on_stale_decision(now, age_s)
            });
        }
        for &pair in telemetry.misses() {
            notify_all(recorder, extra_observers, |o| o.on_swap_missed(now, pair));
        }
        telemetry.clear();
    }

    /// Offer the blocked head `head` to the policy, unless the wait
    /// certificate its last offer left still holds: then the offer would
    /// return `Wait` again, and only the stale telemetry it would record
    /// is replayed.
    fn offer_head(&mut self, now: SimTime, head: &ConsumptionRequest) -> RequestAction {
        let control = &self.control;
        let covered = self.certificate.covers(head.sequence, |consumer| {
            control
                .as_ref()
                .map_or(0, |ctl| ctl.view(consumer).revision())
        });
        if covered {
            self.replay_wait(now, head);
            return RequestAction::Wait;
        }
        self.certificate.begin();
        let action = self.blocked_request_action(now, head);
        self.certificate
            .finish(head.sequence, action == RequestAction::Wait);
        #[cfg(test)]
        if self.always_reoffer {
            self.certificate.release();
        }
        action
    }

    /// Emit what a skipped offer would have recorded: for a stale believed
    /// path whose build failed, the path's row age as of `now` and a miss.
    fn replay_wait(&mut self, now: SimTime, head: &ConsumptionRequest) {
        let (Some((consumer, path)), Some(ctl)) = (self.certificate.replay(), &self.control) else {
            return;
        };
        let age_s = ctl
            .view(consumer)
            .for_owner(consumer, &self.inventory)
            .path_age_s(path, now);
        self.notify(|o| o.on_stale_decision(now, age_s));
        self.notify(|o| o.on_swap_missed(now, head.pair));
    }

    /// Account `swaps` repair swaps performed inside a policy hook.
    fn account_repair_swaps(&mut self, now: SimTime, swaps: u64) {
        for _ in 0..swaps {
            self.notify(|o| o.on_swap(now, SwapKind::Repair));
            self.notify(|o| o.on_swap_correction(now));
            self.record_inventory_change(now);
        }
    }

    /// Consume `k` pairs for `request` and record the outcome: a
    /// satisfaction, or — when the delivered fidelity falls below the
    /// physics model's floor — a fidelity rejection (the pairs are spent
    /// either way, exactly as a real teleportation would spend them).
    fn consume(&mut self, now: SimTime, request: ConsumptionRequest, k: u64, repair_swaps: u64) {
        let fidelity = self
            .inventory
            .remove_pairs_with_fidelity(request.pair, k)
            .expect("checked availability");
        self.notify(|o| o.on_teleportation(now));
        self.record_inventory_change(now);
        if let (Some(floor), Some(f)) = (self.fidelity_floor, fidelity) {
            if f < floor {
                self.notify(|o| o.on_fidelity_rejected(now, &request, f));
                return;
            }
        }
        let satisfied = SatisfiedRequest {
            sequence: request.sequence,
            pair: request.pair,
            arrival_time: request.arrival_time,
            satisfied_at: now,
            shortest_path_hops: self.shortest_hops(request.pair),
            repair_swaps,
            fidelity,
        };
        self.notify(|o| o.on_request_satisfied(now, &satisfied));
    }

    /// Drain the request queue under the policy's discipline.
    fn try_satisfy(&mut self, now: SimTime) {
        match self.policy.queue_discipline() {
            QueueDiscipline::HeadOfLine => self.try_satisfy_head_of_line(now),
            QueueDiscipline::AnyOrder => self.try_satisfy_any_order(now),
        }
    }

    /// Serve one pending request: consume its `k` pairs if the inventory
    /// holds them; otherwise ask the policy through `offer` (the
    /// discipline's way of offering a blocked request) and consume if a
    /// repair made them available.
    #[inline]
    fn serve(
        &mut self,
        now: SimTime,
        request: &ConsumptionRequest,
        offer: impl FnOnce(&mut Self, SimTime, &ConsumptionRequest) -> RequestAction,
    ) -> Served {
        let k = self.config.pairs_per_distilled();
        let mut repair_swaps = 0u64;
        if self.inventory.count(request.pair) < k {
            // An inert hook would return `Wait` without side effects:
            // skip the vtable call and the context construction.
            if self.inert_blocked_hook {
                return Served::Blocked;
            }
            match offer(self, now, request) {
                RequestAction::Wait => return Served::Blocked,
                RequestAction::Drop => {
                    self.notify(|o| o.on_request_dropped(now, request));
                    return Served::Dropped;
                }
                RequestAction::Repaired(swaps) => {
                    repair_swaps = swaps;
                    self.account_repair_swaps(now, swaps);
                    if self.inventory.count(request.pair) < k {
                        return Served::Blocked;
                    }
                }
            }
        }
        self.consume(now, *request, k, repair_swaps);
        Served::Consumed
    }

    /// Head-of-line draining: only the oldest pending request may proceed.
    /// A blocked head is offered through [`Self::offer_head`], so it is not
    /// re-offered while its wait certificate holds. Consuming or dropping
    /// the head changes the head, and any certificate goes with it.
    fn try_satisfy_head_of_line(&mut self, now: SimTime) {
        while let Some(head) = self.pending.front().copied() {
            if self.serve(now, &head, Self::offer_head) == Served::Blocked {
                return;
            }
            self.pending.pop_front();
            self.certificate.release();
        }
    }

    /// Any-order draining: offer every pending request once, in arrival
    /// order, satisfying any whose pairs are (or can be made) available;
    /// the blocked ones rotate back to the tail in their order.
    fn try_satisfy_any_order(&mut self, now: SimTime) {
        for _ in 0..self.pending.len() {
            let request = self.pending.pop_front().expect("rotating within len");
            if self.serve(now, &request, Self::blocked_request_action) == Served::Blocked {
                self.pending.push_back(request);
            }
        }
    }

    /// Make sure a cutoff sweep is scheduled whenever tracked pairs exist.
    /// The sweep chain is self-sustaining (each sweep schedules the next
    /// from the oldest surviving lot); this re-arms it after it dies out.
    fn arm_cutoff_sweep(&mut self, now: SimTime, queue: &mut EventQueue<NetEvent>) {
        let Some(cutoff) = self.cutoff else {
            return;
        };
        if !self.sweep_pending {
            queue.schedule_at(now + cutoff, NetEvent::CutoffSweep);
            self.sweep_pending = true;
        }
    }

    /// Discard every stored pair whose age reached the cutoff, then chain
    /// the next sweep to the oldest surviving lot's expiry time.
    fn handle_cutoff_sweep(&mut self, now: SimTime, queue: &mut EventQueue<NetEvent>) {
        self.sweep_pending = false;
        let cutoff = self.cutoff.expect("sweeps only scheduled with a cutoff");
        let expired = self.inventory.purge_expired(cutoff);
        if self.certificate.is_held() {
            // The purge reports each pool's expired lots consecutively and
            // has already applied them: one run is one net decrease.
            for run in expired.chunk_by(|a, b| a == b) {
                let new = self.inventory.count(run[0]);
                self.certificate
                    .observe(run[0], new + run.len() as u64, new);
            }
        }
        for pair in expired {
            self.notify(|o| o.on_pair_expired(now, pair));
            // An expiry changes buffer counts like any other mutation, so
            // the knowledge layer pays for disseminating it.
            self.record_inventory_change(now);
        }
        if !self.is_done() {
            if let Some(oldest) = self.inventory.earliest_lot_time() {
                // Survivors expire strictly after `now` (the purge was
                // inclusive), so the chain always advances.
                queue.schedule_at(oldest + cutoff, NetEvent::CutoffSweep);
                self.sweep_pending = true;
            }
        }
    }

    fn handle_generate(&mut self, now: SimTime, edge: NodePair, queue: &mut EventQueue<NetEvent>) {
        // §3.2 loss: only a fraction 1/L of raw generations survive to be
        // stored as usable pairs.
        let survives = self.rng.chance(1.0 / self.config.loss_factor);
        if survives && self.inventory.add_pair(edge).is_ok() {
            if self.certificate.is_held() {
                let new = self.inventory.count(edge);
                self.certificate.observe(edge, new - 1, new);
            }
            self.notify(|o| o.on_pair_generated(now, edge));
            self.record_inventory_change(now);
            self.arm_cutoff_sweep(now, queue);
            self.try_satisfy(now);
        } else {
            // Lost before storage, or dropped on a full buffer.
            self.notify(|o| o.on_pair_lost(now, edge));
        }
        if !self.is_done() {
            if let Some(at) = self.next_generation_time(now, edge) {
                queue.schedule_at(at, NetEvent::Generate { edge });
            }
        }
    }

    fn handle_swap_scan(&mut self, now: SimTime, node: NodeId, queue: &mut EventQueue<NetEvent>) {
        let candidate = self.with_policy(now, |policy, ctx| policy.on_swap_scan(ctx, node));

        if let Some(c) = candidate {
            match &self.control {
                // Gossip knowledge: the repeater must coordinate the swap
                // with both remote beneficiaries over the classical network,
                // so execution lands one round-trip later — against a truth
                // that may have drifted from the counts the scan believed.
                Some(ctl) => {
                    let delays = ctl.delays();
                    let worst = delays
                        .delay_s(NodePair::new(c.repeater, c.left))
                        .max(delays.delay_s(NodePair::new(c.repeater, c.right)));
                    let exec_delay = SimDuration::from_secs_f64(2.0 * worst + PROCESSING_DELAY_S);
                    queue.schedule_at(now + exec_delay, NetEvent::SwapExecute { candidate: c });
                }
                None => {
                    self.execute_balancing_swap(now, c, queue);
                }
            }
        }

        if !self.is_done() {
            let interval = SimDuration::from_secs_f64(1.0 / self.config.swap_scan_rate);
            queue.schedule_after(now, interval, NetEvent::SwapScan { node });
        }
    }

    /// Apply a balancing-swap candidate against ground truth and account
    /// it. Returns `false` when the inventory can no longer cover the swap
    /// (only possible when the candidate was decided on stale counts).
    fn execute_balancing_swap(
        &mut self,
        now: SimTime,
        c: SwapCandidate,
        queue: &mut EventQueue<NetEvent>,
    ) -> bool {
        let k = self.config.pairs_per_distilled();
        if self
            .inventory
            .apply_swap(c.repeater, c.left, c.right, k, k)
            .is_ok()
        {
            if self.certificate.is_held() {
                for far in [c.left, c.right] {
                    let input = NodePair::new(c.repeater, far);
                    let new = self.inventory.count(input);
                    self.certificate.observe(input, new + k, new);
                }
                let product = NodePair::new(c.left, c.right);
                let new = self.inventory.count(product);
                self.certificate.observe(product, new - 1, new);
            }
            self.notify(|o| o.on_swap(now, SwapKind::Balancing));
            self.notify(|o| o.on_swap_correction(now));
            self.record_inventory_change(now);
            self.arm_cutoff_sweep(now, queue);
            self.try_satisfy(now);
            true
        } else {
            false
        }
    }

    /// A deferred (stale-decided) swap reaches its execution time: apply it
    /// against ground truth, or record a miss when truth has drifted away
    /// from the counts the proposing scan believed.
    fn handle_swap_execute(
        &mut self,
        now: SimTime,
        c: SwapCandidate,
        queue: &mut EventQueue<NetEvent>,
    ) {
        if !self.execute_balancing_swap(now, c, queue) {
            self.notify(|o| o.on_swap_missed(now, NodePair::new(c.left, c.right)));
        }
    }

    /// A gossip exchange fires under gossip knowledge: pull the next
    /// rotating peers' rows (they arrive after their propagation delay) and
    /// charge the classical message cost.
    fn handle_gossip_exchange(
        &mut self,
        now: SimTime,
        node: NodeId,
        queue: &mut EventQueue<NetEvent>,
    ) {
        let Some(ctl) = &mut self.control else {
            return;
        };
        let period = ctl.period();
        let msgs = ctl.exchange(now, node, &self.inventory);
        self.notify(|o| o.on_count_updates(now, msgs));
        if !self.is_done() {
            queue.schedule_after(now, period, NetEvent::GossipExchange { node });
        }
    }

    fn handle_request_arrival(&mut self, now: SimTime, request: ConsumptionRequest) {
        self.arrivals_outstanding = self.arrivals_outstanding.saturating_sub(1);
        self.notify(|o| o.on_request_arrival(now, &request));
        // A request arriving into a stocked network may be satisfiable
        // immediately (open-loop traffic), but an arrival changes no
        // inventory, so requests already pending stay exactly as blocked as
        // they were at the last generation/swap event — re-offering them
        // would be O(queue) of provably redundant policy consultations.
        // Only the newcomer is offered: directly under any-order draining
        // (it joins the queue only when blocked); under head-of-line only
        // when it is the head, not behind a blocked one.
        match self.policy.queue_discipline() {
            QueueDiscipline::AnyOrder => {
                if self.serve(now, &request, Self::blocked_request_action) == Served::Blocked {
                    self.pending.push_back(request);
                }
            }
            QueueDiscipline::HeadOfLine => {
                self.pending.push_back(request);
                if self.pending.len() == 1 {
                    self.try_satisfy_head_of_line(now);
                }
            }
        }
    }

    /// Give the policy its end-of-run accounting hook.
    pub fn finish(&mut self) {
        let now = self.recorder.last_event_time();
        self.with_policy(now, |policy, ctx| policy.on_run_end(ctx));
    }

    /// Extract the run metrics (consumes nothing; can be called at any time).
    pub fn metrics(&self) -> RunMetrics {
        self.recorder.snapshot(
            self.config.distillation_overhead(),
            self.pending.len() as u64,
            self.inventory.total_pairs(),
        )
    }
}

/// Fire an observer hook on the metrics recorder and then on every extra
/// observer, in attachment order.
fn notify_all(
    recorder: &mut MetricsRecorder,
    extra: &mut [Box<dyn RunObserver>],
    mut hook: impl FnMut(&mut dyn RunObserver),
) {
    hook(recorder);
    for o in extra {
        hook(o.as_mut());
    }
}

impl World for QuantumNetworkWorld {
    type Event = NetEvent;

    fn handle(&mut self, now: SimTime, event: NetEvent, queue: &mut EventQueue<NetEvent>) {
        // The arrival wake is pure bookkeeping: it schedules the next
        // arrival batch without aging the inventory or firing observer
        // hooks, so a run crossing it sees exactly the clocked events a run
        // with every arrival scheduled up front would.
        if matches!(event, NetEvent::ArrivalWake) {
            self.pump_arrivals(queue);
            return;
        }
        // Age the lot store to the event time before anything mutates the
        // inventory (including policy hooks). A no-op under ideal physics.
        self.inventory.set_clock(now);
        self.notify(|o| o.on_event(now));
        // In-flight gossip rows mature before the event's decision logic,
        // so views are as fresh as the classical network allows — never
        // fresher. A single no-op branch under global knowledge.
        if let Some(ctl) = &mut self.control {
            ctl.deliver_matured(now);
        }
        match event {
            NetEvent::Generate { edge } => self.handle_generate(now, edge, queue),
            NetEvent::SwapScan { node } => self.handle_swap_scan(now, node, queue),
            NetEvent::RequestArrival { request } => self.handle_request_arrival(now, request),
            NetEvent::CutoffSweep => self.handle_cutoff_sweep(now, queue),
            NetEvent::ArrivalWake => unreachable!("intercepted above"),
            NetEvent::GossipExchange { node } => self.handle_gossip_exchange(now, node, queue),
            NetEvent::SwapExecute { candidate } => self.handle_swap_execute(now, candidate, queue),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistillationSpec;
    use crate::observer::EventCounts;
    use crate::policy::PolicyId;
    use crate::test_support::{self, pair, run_world, run_world_with_knowledge};
    use crate::workload::Workload;
    use proptest::prelude::{any, prop_assert, prop_assert_eq, proptest};
    use qnet_topology::Topology;
    use std::collections::BTreeMap;

    #[test]
    fn distillation_overhead_increases_work() {
        let workload = || Workload::from_pairs(vec![pair(0, 2), pair(1, 3)]);
        let base = NetworkConfig::new(Topology::Cycle { nodes: 6 });
        let d1 = run_world(base, workload(), PolicyId::OBLIVIOUS, 13, 900);
        let d2 = run_world(
            base.with_distillation(DistillationSpec::Uniform(2.0)),
            workload(),
            PolicyId::OBLIVIOUS,
            13,
            900,
        );
        let m1 = d1.metrics();
        let m2 = d2.metrics();
        assert!(!m1.satisfied.is_empty());
        assert!(!m2.satisfied.is_empty());
        // More raw pairs must be generated per satisfied request when D = 2.
        let per1 = m1.pairs_generated as f64 / m1.satisfied.len() as f64;
        let per2 = m2.pairs_generated as f64 / m2.satisfied.len() as f64;
        assert!(
            per2 > per1,
            "D=2 should consume more raw pairs ({per1} vs {per2})"
        );
    }

    #[test]
    fn buffer_limit_causes_losses() {
        let config = NetworkConfig::new(Topology::Cycle { nodes: 5 }).with_buffer_limit(2);
        // An unsatisfiable far request keeps the simulation generating.
        let workload = Workload::from_pairs(vec![pair(0, 2)]);
        let world = run_world(config, workload, PolicyId::OBLIVIOUS, 17, 120);
        let m = world.metrics();
        assert!(m.pairs_lost > 0, "full buffers must drop pairs");
    }

    #[test]
    fn gossip_knowledge_still_makes_progress() {
        let config = NetworkConfig::new(Topology::Cycle { nodes: 7 });
        let workload = Workload::from_pairs(vec![pair(0, 3)]);
        let world = run_world_with_knowledge(
            config,
            workload,
            PolicyId::OBLIVIOUS,
            KnowledgeModel::Gossip {
                peers_per_refresh: 2,
                refresh_period_s: 0.0,
            },
            19,
            600,
        );
        let m = world.metrics();
        assert_eq!(m.satisfied.len(), 1, "gossip view is stale but sufficient");
        assert!(
            m.classical.count_update_messages > 0,
            "gossip pulls cost messages"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let config = NetworkConfig::new(Topology::Cycle { nodes: 6 });
        let workload = Workload::from_pairs(vec![pair(0, 3), pair(1, 4)]);
        let a = run_world(config, workload.clone(), PolicyId::OBLIVIOUS, 23, 300);
        let b = run_world(config, workload.clone(), PolicyId::OBLIVIOUS, 23, 300);
        let c = run_world(config, workload, PolicyId::OBLIVIOUS, 24, 300);
        assert_eq!(a.metrics(), b.metrics());
        assert_ne!(a.metrics(), c.metrics());
    }

    #[test]
    fn decoherent_runs_deliver_fidelity_and_expire_pairs() {
        use crate::physics::PhysicsModel;
        // Aggressive decoherence: T2 = 1 s with a 2 s cutoff on a cycle-7
        // at 1 pair/s per edge — most stored pairs rot before use.
        let physics = PhysicsModel::decoherent(1.0).with_cutoff_age(2.0);
        let config = NetworkConfig::new(Topology::Cycle { nodes: 7 }).with_physics(physics);
        let workload = Workload::from_pairs(vec![pair(0, 3), pair(1, 4)]);
        let world = run_world(config, workload, PolicyId::OBLIVIOUS, 29, 900);
        let m = world.metrics();
        assert!(!m.satisfied.is_empty());
        for s in &m.satisfied {
            let f = s.fidelity.expect("decoherent deliveries carry fidelity");
            assert!((0.25..=1.0).contains(&f), "fidelity {f}");
        }
        assert!(m.expired_pairs > 0, "short cutoff must expire pairs");
        assert!(m.fidelity_stats().count() > 0);
    }

    #[test]
    fn decoherent_runs_are_deterministic() {
        use crate::physics::PhysicsModel;
        let physics = PhysicsModel::decoherent(0.8).with_fidelity_floor(0.6);
        let config = NetworkConfig::new(Topology::Cycle { nodes: 6 }).with_physics(physics);
        let workload = || Workload::from_pairs(vec![pair(0, 3), pair(1, 4)]);
        let a = run_world(config, workload(), PolicyId::OBLIVIOUS, 31, 600);
        let b = run_world(config, workload(), PolicyId::OBLIVIOUS, 31, 600);
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn fidelity_floor_rejects_low_quality_deliveries() {
        use crate::physics::PhysicsModel;
        // A punishing floor on a long chain: a 4-hop delivery composes four
        // Werner pairs (≈ 0.93 even when fresh at F₀ = 0.98), so every
        // delivery lands below 0.95. The cutoff is disabled so pairs live
        // long enough to be swapped at all — the floor alone does the work.
        let physics = PhysicsModel::decoherent(2.0)
            .with_fidelity_floor(0.95)
            .with_cutoff_age(f64::INFINITY);
        let config = NetworkConfig::new(Topology::Cycle { nodes: 8 }).with_physics(physics);
        let workload = Workload::from_pairs(vec![pair(0, 4)]);
        let world = run_world(config, workload, PolicyId::PLANNED, 37, 400);
        let m = world.metrics();
        assert!(
            m.fidelity_rejected_requests > 0,
            "a 0.95 floor at T2=0.5s must reject deliveries: {m:?}"
        );
        // Every delivery that did survive met the floor.
        for s in &m.satisfied {
            assert!(s.fidelity.unwrap() >= 0.95);
        }
    }

    #[test]
    fn ideal_physics_stays_byte_identical_to_the_prephysics_world() {
        use crate::physics::PhysicsModel;
        // `with_physics(Ideal)` and the default construction run the exact
        // same event sequence: no clocks, no sweeps, no fidelity.
        let base = NetworkConfig::new(Topology::Cycle { nodes: 6 });
        let explicit = base.with_physics(PhysicsModel::Ideal);
        let workload = || Workload::from_pairs(vec![pair(0, 3), pair(1, 4)]);
        let a = run_world(base, workload(), PolicyId::OBLIVIOUS, 23, 300);
        let b = run_world(explicit, workload(), PolicyId::OBLIVIOUS, 23, 300);
        let (ma, mb) = (a.metrics(), b.metrics());
        assert_eq!(ma, mb);
        assert_eq!(ma.expired_pairs, 0);
        assert_eq!(ma.fidelity_rejected_requests, 0);
        assert!(ma.satisfied.iter().all(|s| s.fidelity.is_none()));
    }

    #[test]
    fn link_fabric_drives_per_edge_rates_and_memories() {
        use crate::physics::PhysicsModel;
        use qnet_topology::{FabricSpec, HardwarePreset};
        // Metro fiber on the deployed NYC template: every edge gets its own
        // generation rate, birth fidelity and memory from its length.
        let physics = PhysicsModel::decoherent(10.0).with_cutoff_age(f64::INFINITY);
        let base = NetworkConfig::new(Topology::DeployedFiber).with_physics(physics);
        let fabric = base.with_fabric(FabricSpec::new(HardwarePreset::MetroFiber));
        let workload = || Workload::from_pairs(vec![pair(0, 4), pair(2, 7)]);
        let a = run_world(fabric, workload(), PolicyId::OBLIVIOUS, 41, 900);
        let b = run_world(fabric, workload(), PolicyId::OBLIVIOUS, 41, 900);
        assert_eq!(a.metrics(), b.metrics(), "fabric runs stay deterministic");
        let m = a.metrics();
        assert!(!m.satisfied.is_empty());
        for s in &m.satisfied {
            let f = s.fidelity.expect("fabric runs track fidelity");
            assert!((0.25..=1.0).contains(&f), "fidelity {f}");
        }
        // The per-edge rates actually differ from the homogeneous substrate:
        // the same seed produces a different event history without a fabric.
        let plain = run_world(base, workload(), PolicyId::OBLIVIOUS, 41, 900);
        assert_ne!(plain.metrics(), m, "fabric must change the physics");
    }

    #[test]
    fn scale_free_fabric_runs_end_to_end() {
        use qnet_topology::{FabricSpec, HardwarePreset};
        // Ideal physics on a Barabási–Albert graph: the fabric still drives
        // per-edge generation rates even without decoherence tracking.
        let config = NetworkConfig::new(Topology::ScaleFree {
            nodes: 40,
            attach: 2,
        })
        .with_fabric(FabricSpec::new(HardwarePreset::Lab));
        let workload = Workload::from_pairs(vec![pair(0, 9), pair(3, 17)]);
        let world = run_world(config, workload, PolicyId::OBLIVIOUS, 43, 600);
        let m = world.metrics();
        assert!(!m.satisfied.is_empty(), "scale-free fabric run satisfies");
        assert!(m.satisfied.iter().all(|s| s.fidelity.is_none()));
    }

    /// Wraps a policy, forcing any-order draining and overriding the
    /// inertness declaration — the two halves of the differential test for
    /// the inert skip in [`QuantumNetworkWorld::serve`].
    #[derive(Debug)]
    struct AnyOrderWrapper {
        inner: Box<dyn SwapPolicy>,
        inert: bool,
    }

    impl SwapPolicy for AnyOrderWrapper {
        fn id(&self) -> PolicyId {
            self.inner.id()
        }
        fn schedules_swap_scans(&self) -> bool {
            self.inner.schedules_swap_scans()
        }
        fn queue_discipline(&self) -> QueueDiscipline {
            QueueDiscipline::AnyOrder
        }
        fn blocked_hook_is_inert(&self) -> bool {
            self.inert
        }
        fn on_swap_scan(
            &mut self,
            ctx: &mut PolicyCtx<'_>,
            node: NodeId,
        ) -> Option<crate::SwapCandidate> {
            self.inner.on_swap_scan(ctx, node)
        }
        fn on_blocked_request(
            &mut self,
            ctx: &mut PolicyCtx<'_>,
            request: &ConsumptionRequest,
        ) -> RequestAction {
            self.inner.on_blocked_request(ctx, request)
        }
    }

    #[test]
    fn inert_skip_matches_the_hook_call_under_any_order() {
        use crate::workload::WorkloadSpec;

        // The oblivious hook is pure Wait, so running it as an any-order
        // policy with every blocked offer calling the hook (inert declared
        // false) and with the world skipping the call (inert true) must
        // produce identical metrics, satisfaction order included.
        let run = |inert: bool, seed: u64, workload: Workload| {
            let config = NetworkConfig::new(Topology::Cycle { nodes: 9 });
            let policy = Box::new(AnyOrderWrapper {
                inner: PolicyId::OBLIVIOUS.instantiate(),
                inert,
            });
            test_support::drive(900, |queue| {
                QuantumNetworkWorld::new(
                    config,
                    workload,
                    policy,
                    KnowledgeModel::Global,
                    seed,
                    queue,
                )
            })
            .metrics()
        };
        for seed in [3u64, 17, 42] {
            let closed = WorkloadSpec::closed_loop(9, 6, 40);
            let open = WorkloadSpec::open_loop(9, 6, 0.5, 300.0);
            for spec in [closed, open] {
                let called = run(false, seed, spec.generate(seed));
                let skipped = run(true, seed, spec.generate(seed));
                assert_eq!(called, skipped, "seed {seed} spec {spec:?}");
                assert!(
                    !called.satisfied.is_empty(),
                    "vacuous differential at seed {seed}"
                );
            }
        }
    }

    /// Every observer hook, in firing order, with its arguments.
    #[derive(Debug, Default)]
    struct HookLog(Vec<String>);

    impl RunObserver for HookLog {
        fn on_event(&mut self, now: SimTime) {
            self.0.push(format!("event {now:?}"));
        }
        fn on_pair_generated(&mut self, now: SimTime, edge: NodePair) {
            self.0.push(format!("generated {now:?} {edge:?}"));
        }
        fn on_pair_lost(&mut self, now: SimTime, edge: NodePair) {
            self.0.push(format!("lost {now:?} {edge:?}"));
        }
        fn on_pair_expired(&mut self, now: SimTime, pair: NodePair) {
            self.0.push(format!("expired {now:?} {pair:?}"));
        }
        fn on_swap(&mut self, now: SimTime, kind: SwapKind) {
            self.0.push(format!("swap {now:?} {kind:?}"));
        }
        fn on_swap_correction(&mut self, now: SimTime) {
            self.0.push(format!("correction {now:?}"));
        }
        fn on_teleportation(&mut self, now: SimTime) {
            self.0.push(format!("teleportation {now:?}"));
        }
        fn on_count_updates(&mut self, now: SimTime, messages: u64) {
            self.0.push(format!("count-updates {now:?} {messages}"));
        }
        fn on_request_arrival(&mut self, now: SimTime, request: &ConsumptionRequest) {
            self.0.push(format!("arrival {now:?} {request:?}"));
        }
        fn on_request_satisfied(&mut self, now: SimTime, request: &SatisfiedRequest) {
            self.0.push(format!("satisfied {now:?} {request:?}"));
        }
        fn on_request_dropped(&mut self, now: SimTime, request: &ConsumptionRequest) {
            self.0.push(format!("dropped {now:?} {request:?}"));
        }
        fn on_fidelity_rejected(&mut self, now: SimTime, request: &ConsumptionRequest, f: f64) {
            self.0.push(format!("rejected {now:?} {request:?} {f:?}"));
        }
        fn on_swap_missed(&mut self, now: SimTime, pair: NodePair) {
            self.0.push(format!("missed {now:?} {pair:?}"));
        }
        fn on_stale_decision(&mut self, now: SimTime, row_age_s: f64) {
            self.0.push(format!("stale {now:?} {row_age_s:?}"));
        }
    }

    /// Run a world to `horizon_s` (or completion) after `setup` has
    /// adjusted it, mirroring `Experiment::run`'s lifecycle.
    fn drive(
        config: NetworkConfig,
        workload: Workload,
        policy: Box<dyn SwapPolicy>,
        knowledge: KnowledgeModel,
        seed: u64,
        horizon_s: u64,
        setup: impl FnOnce(&mut QuantumNetworkWorld),
    ) -> QuantumNetworkWorld {
        test_support::drive(horizon_s, |queue| {
            let mut world =
                QuantumNetworkWorld::new(config, workload, policy, knowledge, seed, queue);
            setup(&mut world);
            world
        })
    }

    /// 64-bit FNV-1a over a hook stream, one `\n`-terminated line per hook.
    fn fnv1a(lines: &[String]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for line in lines {
            for &byte in line.as_bytes().iter().chain(b"\n") {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn request_drain_hook_streams_are_pinned() {
        use crate::workload::WorkloadSpec;
        use std::sync::{Arc, Mutex};

        // The whole observer hook stream of every drain path — head-of-line
        // with and without wait certificates, the any-order walk with its
        // repairs and drops, arrival offers, stale telemetry — on cycle:9
        // at seed 5, hashed, with the final pending count as the last line.
        // Order: mode × knowledge × buffer limit × workload.
        const PINNED: [u64; 32] = [
            0xc8d8_5a56_1d53_f7fe,
            0x5d8a_820a_2f8a_4c0d,
            0x2099_f7c0_4eb4_b4d8,
            0x537d_3ed2_a69b_42ac,
            0xeb93_93a9_360b_ae37,
            0x9222_999e_ff06_7bc1,
            0xb3f7_eaed_4eba_64f2,
            0x5cff_8977_10ea_dc86,
            0xf755_7b2f_08a6_a6f1,
            0xe304_4918_08ea_cc29,
            0x40ea_816d_b597_5fd3,
            0x27ca_7b4f_3bbb_86a4,
            0x2816_c6e0_0c69_f307,
            0x6358_5e0b_0528_6792,
            0xfe9e_7f8f_d73a_bae5,
            0x6535_fb08_bf5c_2b81,
            0x2cb3_6f85_23a4_21d0,
            0xe304_4918_08ea_cc29,
            0x0b6e_e3d0_0bc1_038e,
            0xf162_5518_d279_2cf5,
            0x7199_43c0_45cc_ec3b,
            0x0a30_903f_3474_1cd3,
            0x0aba_f6e5_6eb9_d4b5,
            0x8c31_a718_53fd_14c3,
            0x6d04_a7ea_e091_a74e,
            0xbd98_e989_9698_23f7,
            0x47fb_191b_74fb_ebd7,
            0x1267_53aa_651e_605b,
            0xf1b1_ddbc_7dd8_c4a3,
            0x166b_685d_d026_b8d9,
            0xb3f7_eaed_4eba_64f2,
            0x5cff_8977_10ea_dc86,
        ];
        let modes = [
            PolicyId::OBLIVIOUS,
            PolicyId::PLANNED,
            PolicyId::CONNECTIONLESS,
            PolicyId::HYBRID,
        ];
        let knowledges = [
            KnowledgeModel::Global,
            KnowledgeModel::Gossip {
                peers_per_refresh: 1,
                refresh_period_s: 2.0,
            },
        ];
        let specs = [
            WorkloadSpec::closed_loop(9, 6, 20),
            WorkloadSpec::open_loop(9, 6, 0.5, 300.0),
        ];
        let mut hashes = Vec::new();
        let mut satisfied = 0;
        for mode in modes {
            for knowledge in knowledges {
                for limit in [None, Some(3)] {
                    for spec in &specs {
                        let mut config = NetworkConfig::new(Topology::Cycle { nodes: 9 });
                        if let Some(limit) = limit {
                            config = config.with_buffer_limit(limit);
                        }
                        let log = Arc::new(Mutex::new(HookLog::default()));
                        let world = drive(
                            config,
                            spec.generate(5),
                            mode.instantiate(),
                            knowledge,
                            5,
                            400,
                            |world| world.add_observer(Box::new(Arc::clone(&log))),
                        );
                        let metrics = world.metrics();
                        satisfied += metrics.satisfied.len();
                        let mut hooks = std::mem::take(&mut log.lock().unwrap().0);
                        hooks.push(format!("pending {}", metrics.unsatisfied_requests));
                        hashes.push(fnv1a(&hooks));
                    }
                }
            }
        }
        assert!(satisfied > 0, "vacuous pin");
        assert_eq!(hashes, PINNED, "hook streams changed");
    }

    proptest! {
        /// Skipping certified re-offers is exact: on small cycles and tori,
        /// for planned and hybrid, global and gossip knowledge, ideal and
        /// decoherent-with-cutoff physics, with and without a buffer limit,
        /// at D = 1 and 2, the run's metrics and its whole observer hook
        /// stream equal those of the always-re-offer reference drain.
        #[test]
        fn reoffer_certificates_match_always_reoffer(
            shape in 0usize..7,
            hybrid in any::<bool>(),
            gossip in 0usize..3,
            decoherent in any::<bool>(),
            limited in any::<bool>(),
            distill in 1usize..3,
            open in any::<bool>(),
            seed in 0u64..1_000_000,
        ) {
            use crate::physics::PhysicsModel;
            use crate::workload::WorkloadSpec;
            use std::sync::{Arc, Mutex};

            // Cycles of 3..=8 nodes, or the 3 × 3 torus.
            let topology = match shape {
                6 => Topology::TorusGrid { side: 3 },
                n => Topology::Cycle { nodes: n + 3 },
            };
            let n = topology.node_count();
            let mut config = NetworkConfig::new(topology)
                .with_distillation(DistillationSpec::Uniform(distill as f64));
            if decoherent {
                config = config.with_physics(PhysicsModel::decoherent(4.0).with_cutoff_age(3.0));
            }
            if limited {
                config = config.with_buffer_limit(3);
            }
            let knowledge = match gossip {
                0 => KnowledgeModel::Global,
                peers => KnowledgeModel::Gossip {
                    peers_per_refresh: peers,
                    refresh_period_s: 1.0,
                },
            };
            let spec = if open {
                WorkloadSpec::open_loop(n, 4, 0.2, 100.0)
            } else {
                WorkloadSpec::closed_loop(n, 4, 12)
            };
            let mode = if hybrid { PolicyId::HYBRID } else { PolicyId::PLANNED };
            let run = |always_reoffer: bool| {
                let log = Arc::new(Mutex::new(HookLog::default()));
                let world = drive(
                    config,
                    spec.generate(seed),
                    mode.instantiate(),
                    knowledge,
                    seed,
                    300,
                    |world| {
                        world.always_reoffer = always_reoffer;
                        world.add_observer(Box::new(Arc::clone(&log)));
                    },
                );
                let hooks = std::mem::take(&mut log.lock().unwrap().0);
                (world.metrics(), hooks)
            };
            let (metrics, hooks) = run(false);
            let (reference_metrics, reference_hooks) = run(true);
            prop_assert_eq!(&metrics, &reference_metrics);
            prop_assert!(hooks == reference_hooks, "hook streams differ");
        }
    }

    /// Run the world `build` seeds for 15 s with a [`HookLog`] attached,
    /// and return its metrics and the FNV-1a of its whole hook stream.
    fn hooked_run(
        build: impl FnOnce(&mut EventQueue<NetEvent>) -> QuantumNetworkWorld,
    ) -> (RunMetrics, u64) {
        use std::sync::{Arc, Mutex};
        let log = Arc::new(Mutex::new(HookLog::default()));
        let world = test_support::drive(15, |queue| {
            let mut world = build(queue);
            world.add_observer(Box::new(Arc::clone(&log)));
            world
        });
        let hooks = std::mem::take(&mut log.lock().unwrap().0);
        (world.metrics(), fnv1a(&hooks))
    }

    proptest! {
        /// The batch pump is exact: a materialised workload handed to
        /// `new` and the same workload drawn lazily by
        /// `with_arrival_stream` give the metrics and the whole observer
        /// hook stream of the eager reference, which schedules every
        /// request up front and re-stages its queue onto the run queue.
        /// Closed batches and open-loop traffic both reach past
        /// `ARRIVAL_BATCH`, so drawn runs cross arrival wakes; the disciplines
        /// cover head-of-line and any-order draining, under global and
        /// `gossip:1:2` knowledge.
        #[test]
        fn arrival_pump_matches_eager_scheduling(
            nodes in 4usize..9,
            mode in 0usize..4,
            gossip in any::<bool>(),
            open in any::<bool>(),
            requests in 1usize..1800,
            seed in 0u64..1_000_000,
        ) {
            use crate::workload::WorkloadSpec;

            let config = NetworkConfig::new(Topology::Cycle { nodes });
            let mode = [
                PolicyId::OBLIVIOUS,
                PolicyId::PLANNED,
                PolicyId::CONNECTIONLESS,
                PolicyId::HYBRID,
            ][mode];
            let knowledge = if gossip {
                KnowledgeModel::Gossip {
                    peers_per_refresh: 1,
                    refresh_period_s: 2.0,
                }
            } else {
                KnowledgeModel::Global
            };
            // Open-loop traffic offers about `requests` arrivals in 10 s.
            let spec = if open {
                WorkloadSpec::open_loop(nodes, 4, requests as f64 / 10.0, 10.0)
            } else {
                WorkloadSpec::closed_loop(nodes, 4, requests)
            };
            let reference = hooked_run(|queue| {
                QuantumNetworkWorld::with_eager_arrivals(
                    config,
                    spec.generate(seed),
                    mode.instantiate(),
                    knowledge,
                    seed,
                    queue,
                )
            });
            let listed = hooked_run(|queue| {
                QuantumNetworkWorld::new(
                    config,
                    spec.generate(seed),
                    mode.instantiate(),
                    knowledge,
                    seed,
                    queue,
                )
            });
            let drawn = hooked_run(|queue| {
                QuantumNetworkWorld::with_arrival_stream(
                    config,
                    spec.stream(seed),
                    mode.instantiate(),
                    knowledge,
                    seed,
                    queue,
                )
            });
            prop_assert!(open || reference.0.arrived_requests == requests as u64);
            prop_assert_eq!(&listed, &reference);
            prop_assert_eq!(&drawn, &reference);
        }
    }

    #[test]
    fn a_listed_workload_is_scheduled_whole() {
        // More requests than `ARRIVAL_BATCH`, in descending arrival order.
        // A listed stream is scheduled at construction with no wake, as
        // the eager reference schedules it, so no later batch lands behind
        // an arrival time the run has already passed.
        use crate::workload::WorkloadSpec;

        let config = NetworkConfig::new(Topology::Cycle { nodes: 6 });
        let mut workload = WorkloadSpec::open_loop(6, 4, 300.0, 10.0).generate(3);
        assert!(workload.len() > 2 * ARRIVAL_BATCH, "{}", workload.len());
        workload.requests.reverse();
        let build = |eager: bool, queue: &mut EventQueue<NetEvent>| {
            let (policy, knowledge) = (PolicyId::OBLIVIOUS.instantiate(), KnowledgeModel::Global);
            if eager {
                QuantumNetworkWorld::with_eager_arrivals(
                    config,
                    workload.clone(),
                    policy,
                    knowledge,
                    3,
                    queue,
                )
            } else {
                QuantumNetworkWorld::new(config, workload.clone(), policy, knowledge, 3, queue)
            }
        };
        let mut queue = EventQueue::new();
        build(false, &mut queue);
        let (mut wakes, mut arrivals) = (0, 0);
        while let Some(ev) = queue.pop() {
            match ev.event {
                NetEvent::ArrivalWake => wakes += 1,
                NetEvent::RequestArrival { .. } => arrivals += 1,
                _ => {}
            }
        }
        assert_eq!((wakes, arrivals), (0, workload.len()));
        assert_eq!(
            hooked_run(|queue| build(false, queue)),
            hooked_run(|queue| build(true, queue))
        );
    }

    /// Counts the blocked-request offers each request sequence receives.
    #[derive(Debug)]
    struct OfferCounter {
        inner: Box<dyn SwapPolicy>,
        offers: std::sync::Arc<std::sync::Mutex<BTreeMap<u64, u64>>>,
    }

    impl SwapPolicy for OfferCounter {
        fn id(&self) -> PolicyId {
            self.inner.id()
        }
        fn schedules_swap_scans(&self) -> bool {
            self.inner.schedules_swap_scans()
        }
        fn queue_discipline(&self) -> QueueDiscipline {
            self.inner.queue_discipline()
        }
        fn on_swap_scan(
            &mut self,
            ctx: &mut PolicyCtx<'_>,
            node: NodeId,
        ) -> Option<crate::SwapCandidate> {
            self.inner.on_swap_scan(ctx, node)
        }
        fn on_blocked_request(
            &mut self,
            ctx: &mut PolicyCtx<'_>,
            request: &ConsumptionRequest,
        ) -> RequestAction {
            *self
                .offers
                .lock()
                .unwrap()
                .entry(request.sequence)
                .or_default() += 1;
            self.inner.on_blocked_request(ctx, request)
        }
    }

    #[test]
    fn certified_heads_are_offered_once_per_voiding_change() {
        use crate::workload::WorkloadSpec;
        use std::sync::{Arc, Mutex};

        // Hybrid at D = 2 on a cycle: the entanglement search usually finds
        // a path whose nested build lacks the k · missing pairs per pool,
        // so the head blocks for many events.
        let config = NetworkConfig::new(Topology::Cycle { nodes: 15 })
            .with_distillation(DistillationSpec::Uniform(2.0));
        let workload = || WorkloadSpec::closed_loop(15, 6, 20).generate(5);
        let run = |always_reoffer: bool| {
            let offers = Arc::new(Mutex::new(BTreeMap::new()));
            let policy = Box::new(OfferCounter {
                inner: PolicyId::HYBRID.instantiate(),
                offers: Arc::clone(&offers),
            });
            let world = drive(
                config,
                workload(),
                policy,
                KnowledgeModel::Global,
                5,
                400,
                |world| world.always_reoffer = always_reoffer,
            );
            let offers = std::mem::take(&mut *offers.lock().unwrap());
            (world, offers)
        };
        let (world, offers) = run(false);
        let (reference, reference_offers) = run(true);
        assert_eq!(world.metrics(), reference.metrics());
        assert!(!world.metrics().satisfied.is_empty());
        let voids = &world.certificate.voids;
        for (&sequence, &count) in &offers {
            let voided = voids.get(&sequence).copied().unwrap_or(0);
            assert!(
                count <= voided + 1,
                "request {sequence}: {count} offers after {voided} voiding changes"
            );
        }
        let total: u64 = offers.values().sum();
        let reference_total: u64 = reference_offers.values().sum();
        assert!(
            10 * total <= reference_total,
            "{total} offers against the reference drain's {reference_total}"
        );
    }

    #[test]
    fn extra_observers_see_the_run() {
        use std::sync::{Arc, Mutex};

        let config = NetworkConfig::new(Topology::Cycle { nodes: 7 });
        let workload = Workload::from_pairs(vec![pair(0, 3)]);
        let counts = Arc::new(Mutex::new(EventCounts::default()));
        let world = drive(
            config,
            workload,
            PolicyId::OBLIVIOUS.instantiate(),
            KnowledgeModel::Global,
            3,
            600,
            |world| world.add_observer(Box::new(Arc::clone(&counts))),
        );
        let metrics = world.metrics();
        let counts = counts.lock().unwrap();
        assert_eq!(counts.satisfied as usize, metrics.satisfied.len());
        assert_eq!(counts.swaps, metrics.swaps_performed);
        assert!(counts.events > 0);
    }
}
