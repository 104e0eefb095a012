//! The network-wide Bell-pair inventory.
//!
//! Because Bell pairs are interchangeable (paper §1), the global state the
//! protocol cares about is just the count `C_x(y) = C_y(x)` of pairs whose
//! qubits sit at `x` and `y`. [`Inventory`] stores those counts in a
//! [`CountMatrix`] and implements the three primitive mutations — generate,
//! swap, consume — with the bookkeeping (per-node qubit totals, cumulative
//! counters) the balancer, the buffer-limit model and the metrics need.
//!
//! ## The lot store (decoherent physics)
//!
//! Under [`crate::physics::PhysicsModel::Decoherent`] the inventory layers a
//! **lot store** over the counts: every stored pair additionally carries a
//! creation timestamp and a birth fidelity ([`PairLot`]). The store is
//! deliberately hidden behind the exact same mutation API the count-space
//! model uses — `add_pair`, `remove_pairs`, `apply_swap` — so every caller,
//! including swap policies that mutate the inventory directly through
//! [`crate::policy::PolicyCtx`], keeps ages and fidelities consistent
//! without knowing the store exists. The world advances the store's clock
//! ([`Inventory::set_clock`]) before dispatching each event; consumption
//! and swap inputs draw lots in the configured
//! [`crate::physics::ConsumeOrder`]; a swap ages both inputs to the swap
//! time, composes them with [`qnet_quantum::swap::swap_werner_fidelity`]
//! and restarts the product's clock. When the store is disabled (ideal
//! physics — the default) none of this code runs and behaviour is
//! bit-identical to the count-space model.

use crate::balancer::CountView;
use crate::physics::{ConsumeOrder, PhysicsModel};
use qnet_quantum::decoherence::DecoherenceModel;
use qnet_quantum::swap::swap_werner_fidelity;
use qnet_sim::{SimDuration, SimTime};
use qnet_topology::{CountMatrix, CountRow, NodeId, NodePair};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Reasons an inventory mutation can be refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InventoryError {
    /// Not enough pairs of the requested kind are stored.
    InsufficientPairs {
        /// How many were requested.
        requested: u64,
        /// How many are stored.
        available: u64,
    },
    /// A node's buffer limit would be exceeded.
    BufferFull {
        /// The node whose buffer is full.
        node: u32,
    },
}

/// One stored Bell pair tracked by the lot store: when it was created and
/// the fidelity it was born with. Its *current* fidelity is the birth value
/// decayed over its age by the configured decoherence model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairLot {
    /// Simulated time the pair was stored (generation or swap production).
    pub created_at: SimTime,
    /// Fidelity at creation (initial fidelity for elementary pairs, the
    /// Werner-composed value for swap products).
    pub birth_fidelity: f64,
    /// Memory coherence time governing this lot's decay. Elementary pairs
    /// inherit it from their generation edge (heterogeneous under a link
    /// fabric); a swap product inherits the *worst* input memory.
    pub coherence_time_s: f64,
}

/// The sentinel marking "no pool allocated" in [`FlatPools::slot_of`].
const NO_SLOT: u32 = u32::MAX;

/// The lot store's pool storage: a dense triangular `pair → slot` table
/// into a slab of pool queues, plus a sorted occupied-pair list so ordered
/// whole-store walks (cutoff sweeps, earliest-lot queries) visit pools in
/// lexicographic `NodePair` order — the order the original dense matrix
/// scan used, and the order a `BTreeMap<NodePair, _>` iterates in (the
/// reference the unit tests check it against).
///
/// Swap products entangle arbitrary node pairs, not just generation-graph
/// edges, so the slot table is **pair**-dense (N·(N−1)/2 entries) rather
/// than edge-dense: 4 bytes per potential pair buys O(1) pool addressing
/// with no hashing, no tree descent, and no per-node pointer chasing.
#[derive(Debug, Clone)]
struct FlatPools {
    n: usize,
    /// Triangular `pair → slab slot` table ([`NO_SLOT`] = no pool).
    slot_of: Vec<u32>,
    /// Pool queues; slots are recycled through `free` when a pool empties.
    slab: Vec<VecDeque<PairLot>>,
    /// Slab slots whose pools have emptied, available for reuse.
    free: Vec<u32>,
    /// Pairs with a non-empty pool, kept sorted (lexicographic order).
    occupied: Vec<NodePair>,
    /// Sorted per-edge `(pair, (birth_fidelity, coherence_time_s))`
    /// overrides; resolved by binary search at generation time.
    link_overrides: Vec<(NodePair, (f64, f64))>,
}

impl FlatPools {
    fn new(n: usize) -> Self {
        FlatPools {
            n,
            slot_of: vec![NO_SLOT; n * n.saturating_sub(1) / 2],
            slab: Vec::new(),
            free: Vec::new(),
            occupied: Vec::new(),
            link_overrides: Vec::new(),
        }
    }

    /// Index of `pair` in the triangular slot table (same layout as
    /// `PairMatrix`).
    fn tri(&self, pair: NodePair) -> usize {
        let (i, j) = (pair.lo().index(), pair.hi().index());
        debug_assert!(j < self.n, "pair out of range for flat pools");
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    fn pool(&self, pair: NodePair) -> Option<&VecDeque<PairLot>> {
        match self.slot_of[self.tri(pair)] {
            NO_SLOT => None,
            slot => Some(&self.slab[slot as usize]),
        }
    }

    fn push(&mut self, pair: NodePair, lot: PairLot) {
        let t = self.tri(pair);
        let slot = match self.slot_of[t] {
            NO_SLOT => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.slab.push(VecDeque::new());
                    (self.slab.len() - 1) as u32
                });
                self.slot_of[t] = slot;
                let pos = self.occupied.partition_point(|&p| p < pair);
                self.occupied.insert(pos, pair);
                slot
            }
            slot => slot,
        };
        self.slab[slot as usize].push_back(lot);
    }

    fn pool_mut(&mut self, pair: NodePair) -> Option<&mut VecDeque<PairLot>> {
        match self.slot_of[self.tri(pair)] {
            NO_SLOT => None,
            slot => Some(&mut self.slab[slot as usize]),
        }
    }

    /// Recycle `pair`'s slot if its pool has emptied.
    fn release_if_empty(&mut self, pair: NodePair) {
        let t = self.tri(pair);
        let slot = self.slot_of[t];
        if slot != NO_SLOT && self.slab[slot as usize].is_empty() {
            self.slot_of[t] = NO_SLOT;
            self.free.push(slot);
            if let Ok(pos) = self.occupied.binary_search(&pair) {
                self.occupied.remove(pos);
            }
        }
    }

    fn link_override(&self, pair: NodePair) -> Option<(f64, f64)> {
        self.link_overrides
            .binary_search_by_key(&pair, |&(p, _)| p)
            .ok()
            .map(|pos| self.link_overrides[pos].1)
    }

    fn set_link_overrides(&mut self, links: impl IntoIterator<Item = (NodePair, (f64, f64))>) {
        self.link_overrides = links.into_iter().collect();
        self.link_overrides.sort_unstable_by_key(|&(p, _)| p);
    }

    /// Creation time of the oldest lot across all pools.
    fn earliest(&self) -> Option<SimTime> {
        self.occupied
            .iter()
            .flat_map(|&pair| self.pool(pair).and_then(|pool| pool.front()))
            .map(|lot| lot.created_at)
            .min()
    }

    /// Pop every lot with `created_at + cutoff <= clock`, returning one
    /// entry per lot in lexicographic pair order, then recycle the slots of
    /// the pools the sweep emptied.
    fn purge(&mut self, cutoff: SimDuration, clock: SimTime) -> Vec<NodePair> {
        let mut expired = Vec::new();
        for k in 0..self.occupied.len() {
            let pair = self.occupied[k];
            let slot = self.slot_of[self.tri(pair)] as usize;
            let pool = &mut self.slab[slot];
            while let Some(front) = pool.front() {
                if front.created_at + cutoff <= clock {
                    pool.pop_front();
                    expired.push(pair);
                } else {
                    break;
                }
            }
        }
        let mut k = 0;
        while k < self.occupied.len() {
            let pair = self.occupied[k];
            let t = self.tri(pair);
            let slot = self.slot_of[t];
            if self.slab[slot as usize].is_empty() {
                self.slot_of[t] = NO_SLOT;
                self.free.push(slot);
                self.occupied.remove(k);
            } else {
                k += 1;
            }
        }
        expired
    }
}

impl PartialEq for FlatPools {
    /// Logical equality: same occupied pools with the same lots in the same
    /// order, and the same overrides — independent of slab layout, so two
    /// stores that converged through different histories still compare
    /// equal.
    fn eq(&self, other: &Self) -> bool {
        self.occupied == other.occupied
            && self.link_overrides == other.link_overrides
            && self
                .occupied
                .iter()
                .all(|&pair| self.pool(pair) == other.pool(pair))
    }
}

/// Per-pool age/fidelity bookkeeping, active only under decoherent physics.
/// Lots within a pool are kept in creation order (pushes always append and
/// creation times are monotone), so the pool front is always the oldest.
///
/// Pools hold only *occupied* pairs, so whole-store walks (cutoff sweeps,
/// earliest-lot queries) cost O(stored pairs) instead of O(N²) — the
/// difference between |N| = 49 and |N| = 10³ — and [`FlatPools`] walks
/// them in exactly the lexicographic `all_pairs` order the original dense
/// matrix scanned in, so expiry event order (and with it every decoherent
/// golden result) is unchanged.
#[derive(Debug, Clone, PartialEq)]
struct LotStore {
    decoherence: DecoherenceModel,
    initial_fidelity: f64,
    order: ConsumeOrder,
    clock: SimTime,
    pools: FlatPools,
}

/// Fidelity of `lot` at `clock`, decayed under the lot's own memory
/// coherence time (free function so pool borrows can overlap it).
fn aged_fidelity_at(clock: SimTime, lot: &PairLot) -> f64 {
    let age = clock.saturating_since(lot.created_at).as_secs_f64();
    DecoherenceModel {
        coherence_time_s: lot.coherence_time_s,
    }
    .fidelity_after(lot.birth_fidelity, age)
}

impl LotStore {
    fn new(physics: &PhysicsModel, n: usize) -> Self {
        LotStore {
            decoherence: physics.decoherence_model(),
            initial_fidelity: physics.initial_fidelity(),
            order: physics.consume_order(),
            clock: SimTime::ZERO,
            pools: FlatPools::new(n),
        }
    }

    /// Current fidelity of `lot` at the store clock, decayed under the
    /// lot's own memory coherence time.
    fn aged_fidelity(&self, lot: &PairLot) -> f64 {
        aged_fidelity_at(self.clock, lot)
    }

    /// Store one lot. `birth` is `Some((fidelity, t2))` for swap products
    /// (the composed values); elementary pairs pass `None` and inherit their
    /// generation edge's override, falling back to the global physics.
    fn push(&mut self, pair: NodePair, birth: Option<(f64, f64)>) {
        let (birth_fidelity, coherence_time_s) = birth.unwrap_or_else(|| {
            self.pools
                .link_override(pair)
                .unwrap_or((self.initial_fidelity, self.decoherence.coherence_time_s))
        });
        self.pools.push(
            pair,
            PairLot {
                created_at: self.clock,
                birth_fidelity,
                coherence_time_s,
            },
        );
    }

    /// Remove `count` lots from `pair`'s pool in the configured order and
    /// return the best aged fidelity among them (the pair that actually
    /// serves the request/swap; the rest are the `⌈D⌉` distillation fuel)
    /// together with the worst coherence time among them (a swap product is
    /// only as durable as its weakest input memory). Allocation-free: the
    /// folds run as lots pop.
    ///
    /// # Panics
    /// Panics if the pool holds fewer than `count` lots — count-space
    /// availability is always validated first, and the store mirrors the
    /// counts exactly.
    fn take(&mut self, pair: NodePair, count: u64) -> (f64, f64) {
        let clock = self.clock;
        let order = self.order;
        let mut best = 0.25f64;
        let mut weakest_t2 = f64::INFINITY;
        let Some(pool) = self.pools.pool_mut(pair) else {
            assert!(count == 0, "lot store out of sync with counts for {pair}");
            return (best, weakest_t2);
        };
        assert!(
            pool.len() as u64 >= count,
            "lot store out of sync with counts for {pair}"
        );
        for _ in 0..count {
            let lot = match order {
                ConsumeOrder::OldestFirst => pool.pop_front(),
                ConsumeOrder::NewestFirst => pool.pop_back(),
            }
            .expect("length checked");
            best = best.max(aged_fidelity_at(clock, &lot));
            weakest_t2 = weakest_t2.min(lot.coherence_time_s);
        }
        self.pools.release_if_empty(pair);
        (best, weakest_t2)
    }
}

/// The global Bell-pair count state.
#[derive(Debug, Clone, PartialEq)]
pub struct Inventory {
    /// `C_x(y)` for every pair, with each row's minimum kept current on
    /// every count mutation, so a swap scan can skip a whole beneficiary
    /// row without reading it (the row prune in the balancer's
    /// `# The scan` docs).
    counts: CountMatrix,
    /// Number of stored qubit halves per node (each stored pair contributes
    /// one half to each endpoint).
    node_load: Vec<u64>,
    /// Optional per-node buffer limit.
    buffer_limit: Option<u64>,
    /// Cumulative number of pairs ever added (generated or produced by swap).
    total_added: u64,
    /// Cumulative number of pairs ever removed (consumed or used by swap).
    total_removed: u64,
    /// Age/fidelity lots, present only under decoherent physics.
    lots: Option<LotStore>,
    /// Per-node sorted `(peer, count)` lists, mirrored on every count
    /// mutation. The swap-scan candidate search walks this contiguous slice
    /// in O(degree) — counts inline, so no random probes into the N²/2
    /// matrix — the structure that makes |N| ≈ 10³ swap scans tractable.
    /// Derived from `counts`.
    peer_index: Vec<Vec<(NodeId, u64)>>,
}

impl Inventory {
    /// An empty inventory over `n` nodes with unlimited buffers.
    pub fn new(n: usize) -> Self {
        Inventory {
            counts: CountMatrix::new(n),
            node_load: vec![0; n],
            buffer_limit: None,
            total_added: 0,
            total_removed: 0,
            lots: None,
            peer_index: vec![Vec::new(); n],
        }
    }

    /// Attach the age/fidelity lot store for decoherent physics. A no-op for
    /// [`PhysicsModel::Ideal`]; call before any pair is stored.
    pub fn enable_lot_tracking(&mut self, physics: &PhysicsModel) {
        if physics.is_ideal() {
            return;
        }
        assert_eq!(
            self.total_pairs(),
            0,
            "enable lot tracking on an empty inventory"
        );
        self.lots = Some(LotStore::new(physics, self.node_count()));
    }

    /// Attach per-edge `(pair, birth_fidelity, coherence_time_s)` overrides
    /// from a realized link fabric: elementary pairs generated on a listed
    /// edge are born at that edge's fidelity and decay under that edge's
    /// memory coherence time. A no-op without the lot store (ideal physics
    /// has no ages to track).
    pub fn set_link_physics<I>(&mut self, links: I)
    where
        I: IntoIterator<Item = (NodePair, f64, f64)>,
    {
        if let Some(store) = &mut self.lots {
            store
                .pools
                .set_link_overrides(links.into_iter().map(|(pair, f0, t2)| (pair, (f0, t2))));
        }
    }

    /// True when the age/fidelity lot store is active (decoherent physics).
    pub fn tracks_lots(&self) -> bool {
        self.lots.is_some()
    }

    /// Advance the lot store's clock to `now`. The simulation world calls
    /// this before dispatching each event so every mutation inside the event
    /// (including policy-driven swaps) ages and timestamps pairs correctly.
    /// A no-op without the lot store.
    pub fn set_clock(&mut self, now: SimTime) {
        if let Some(store) = &mut self.lots {
            store.clock = now;
        }
    }

    /// The stored lots for `pair`, oldest first (empty without the lot
    /// store). Exposed for observers and tests; counts remain the protocol's
    /// source of truth. Borrows the pool in place — no per-call `Vec`.
    pub fn lots_for(&self, pair: NodePair) -> impl Iterator<Item = PairLot> + '_ {
        self.lots
            .as_ref()
            .and_then(|store| store.pools.pool(pair))
            .into_iter()
            .flat_map(|pool| pool.iter().copied())
    }

    /// Current (aged) fidelity of every stored lot for `pair`, in storage
    /// order. Empty without the lot store. Borrows the pool in place — no
    /// per-call `Vec`.
    pub fn fidelities_for(&self, pair: NodePair) -> impl Iterator<Item = f64> + '_ {
        self.lots.as_ref().into_iter().flat_map(move |store| {
            store
                .pools
                .pool(pair)
                .into_iter()
                .flat_map(|pool| pool.iter())
                .map(|lot| store.aged_fidelity(lot))
        })
    }

    /// Creation time of the oldest stored lot across all pools (`None` when
    /// the store is absent or empty). Drives cutoff-sweep scheduling. Walks
    /// only the occupied pools.
    pub fn earliest_lot_time(&self) -> Option<SimTime> {
        self.lots.as_ref()?.pools.earliest()
    }

    /// Discard every lot whose storage age has reached `cutoff` at the
    /// current clock (`created_at + cutoff <= clock`, so a sweep scheduled
    /// exactly at an expiry time collects it). Returns one entry per expired
    /// pair; counts, node loads and the removed-total are updated. A no-op
    /// without the lot store.
    pub fn purge_expired(&mut self, cutoff: SimDuration) -> Vec<NodePair> {
        let Some(store) = &mut self.lots else {
            return Vec::new();
        };
        // Occupied pools are walked in lexicographic NodePair order — the
        // same order the old dense matrix scan produced.
        let expired = store.pools.purge(cutoff, store.clock);
        for &pair in &expired {
            let count = self.counts.sub(pair, 1);
            Self::set_peer_count(&mut self.peer_index, pair, count);
            self.node_load[pair.lo().index()] -= 1;
            self.node_load[pair.hi().index()] -= 1;
            self.total_removed += 1;
        }
        expired
    }

    /// An empty inventory with a per-node buffer limit.
    pub fn with_buffer_limit(n: usize, limit: u64) -> Self {
        Inventory {
            buffer_limit: Some(limit),
            ..Inventory::new(n)
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.node_load.len()
    }

    /// The per-node buffer limit, if one is configured.
    pub fn buffer_limit(&self) -> Option<u64> {
        self.buffer_limit
    }

    /// Count of stored pairs between the endpoints of `pair`.
    pub fn count(&self, pair: NodePair) -> u64 {
        self.counts.get(pair)
    }

    /// Number of stored qubit halves at `node`.
    pub fn node_load(&self, node: NodeId) -> u64 {
        self.node_load[node.index()]
    }

    /// Total number of stored pairs.
    pub fn total_pairs(&self) -> u64 {
        self.counts.total()
    }

    /// Cumulative number of pairs ever added.
    pub fn total_added(&self) -> u64 {
        self.total_added
    }

    /// Cumulative number of pairs ever removed.
    pub fn total_removed(&self) -> u64 {
        self.total_removed
    }

    /// The nodes that currently share at least one pair with `node`
    /// (its *entanglement neighbors*), in ascending id order.
    ///
    /// Served from the maintained per-node index — no allocation, no O(N)
    /// scan — so a swap scan at a node of degree d costs O(d) + O(rich²)
    /// regardless of network size.
    pub fn entangled_peers(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.peer_index[node.index()].iter().map(|&(peer, _)| peer)
    }

    /// `(peer, count)` for every entanglement neighbor of `node`, in
    /// ascending peer-id order. The counts are carried inline so a scan over
    /// a hub's peers is one sequential walk of a small contiguous slice —
    /// no per-peer random probe into the N²/2 count matrix, which is what
    /// dominates swap-scan cost at |N| ≈ 10³.
    pub fn peer_counts(&self, node: NodeId) -> &[(NodeId, u64)] {
        &self.peer_index[node.index()]
    }

    /// Mirror `pair`'s new count into both endpoints' peer lists: insert on
    /// 0 → nonzero, remove on nonzero → 0, plain write otherwise.
    ///
    /// In a dense row (the node shares pairs with every other node, as on
    /// an open-loop `cycle:25`) peer `p` of node `x` sits at index
    /// `p − [p > x]`, so that slot is checked first and the binary search
    /// runs only when it holds another peer.
    fn set_peer_count(peer_index: &mut [Vec<(NodeId, u64)>], pair: NodePair, count: u64) {
        for (node, peer) in [(pair.lo(), pair.hi()), (pair.hi(), pair.lo())] {
            let list = &mut peer_index[node.index()];
            let dense = peer.index() - usize::from(peer > node);
            let found = match list.get(dense) {
                Some(&(p, _)) if p == peer => Ok(dense),
                _ => list.binary_search_by_key(&peer, |&(p, _)| p),
            };
            match found {
                Ok(pos) => {
                    if count == 0 {
                        list.remove(pos);
                    } else {
                        list[pos].1 = count;
                    }
                }
                Err(pos) => {
                    if count > 0 {
                        list.insert(pos, (peer, count));
                    }
                }
            }
        }
    }

    /// All pairs with a non-zero count, in lexicographic pair order.
    ///
    /// Assembled from the peer index in O(N + occupied pools) — the same
    /// order a full scan of the N²/2 count matrix would produce, without
    /// touching it. A whole-inventory snapshot for reports and tests; hot
    /// paths (the balancer scan, hybrid path repair) walk single rows
    /// through [`Inventory::peer_counts`] instead.
    pub fn nonzero_pairs(&self) -> Vec<(NodePair, u64)> {
        let mut pairs = Vec::new();
        for (lo, peers) in self.peer_index.iter().enumerate() {
            let lo = NodeId::from(lo);
            for &(hi, count) in peers {
                if hi > lo {
                    pairs.push((NodePair::new(lo, hi), count));
                }
            }
        }
        pairs
    }

    /// Record the generation of one elementary pair between the endpoints of
    /// `pair` (born, under decoherent physics, at its generation edge's
    /// fidelity when a link fabric is attached and the configured global
    /// initial fidelity otherwise).
    pub fn add_pair(&mut self, pair: NodePair) -> Result<(), InventoryError> {
        self.add_pair_with_birth(pair, None)
    }

    /// Shared insertion path: `birth` is `Some((fidelity, coherence_time))`
    /// for swap products and `None` for elementary pairs (which resolve
    /// their birth values from the link fabric or the global physics).
    fn add_pair_with_birth(
        &mut self,
        pair: NodePair,
        birth: Option<(f64, f64)>,
    ) -> Result<(), InventoryError> {
        if let Some(limit) = self.buffer_limit {
            for node in [pair.lo(), pair.hi()] {
                if self.node_load[node.index()] >= limit {
                    return Err(InventoryError::BufferFull { node: node.0 });
                }
            }
        }
        let count = self.counts.add(pair, 1);
        Self::set_peer_count(&mut self.peer_index, pair, count);
        self.node_load[pair.lo().index()] += 1;
        self.node_load[pair.hi().index()] += 1;
        self.total_added += 1;
        if let Some(store) = &mut self.lots {
            store.push(pair, birth);
        }
        Ok(())
    }

    /// Remove `count` pairs between the endpoints of `pair` (consumption or
    /// swap input usage).
    pub fn remove_pairs(&mut self, pair: NodePair, count: u64) -> Result<(), InventoryError> {
        self.remove_pairs_with_fidelity(pair, count).map(|_| ())
    }

    /// Remove `count` pairs and report the best current (aged) fidelity
    /// among them — the fidelity actually delivered when the removal serves
    /// a consumption. `Ok(None)` without the lot store (ideal physics).
    pub fn remove_pairs_with_fidelity(
        &mut self,
        pair: NodePair,
        count: u64,
    ) -> Result<Option<f64>, InventoryError> {
        self.remove_pairs_full(pair, count)
            .map(|taken| taken.map(|(fidelity, _)| fidelity))
    }

    /// Removal path that also reports the worst coherence time among the
    /// removed lots (what a swap product inherits).
    fn remove_pairs_full(
        &mut self,
        pair: NodePair,
        count: u64,
    ) -> Result<Option<(f64, f64)>, InventoryError> {
        let available = self.count(pair);
        if available < count {
            return Err(InventoryError::InsufficientPairs {
                requested: count,
                available,
            });
        }
        if count > 0 {
            let remaining = self.counts.sub(pair, count);
            Self::set_peer_count(&mut self.peer_index, pair, remaining);
        }
        self.node_load[pair.lo().index()] -= count;
        self.node_load[pair.hi().index()] -= count;
        self.total_removed += count;
        Ok(self
            .lots
            .as_mut()
            .filter(|_| count > 0)
            .map(|store| store.take(pair, count)))
    }

    /// Perform the swap `y ← x → y'` in count space: consume `cost_left`
    /// pairs of `[x, y]` and `cost_right` pairs of `[x, y']`, produce one
    /// pair `[y, y']`.
    ///
    /// The costs are the `⌈D⌉` factors of the distill-before-swap model
    /// of paper §3.2 (see
    /// [`NetworkConfig::pairs_per_distilled`](crate::NetworkConfig::pairs_per_distilled));
    /// with `D = 1` this is the textbook swap that consumes one pair on each
    /// side.
    pub fn apply_swap(
        &mut self,
        repeater: NodeId,
        left: NodeId,
        right: NodeId,
        cost_left: u64,
        cost_right: u64,
    ) -> Result<(), InventoryError> {
        assert!(
            left != right && left != repeater && right != repeater,
            "degenerate swap"
        );
        let left_pair = NodePair::new(repeater, left);
        let right_pair = NodePair::new(repeater, right);
        // Validate both removals before mutating anything so a failure leaves
        // the inventory untouched.
        if self.count(left_pair) < cost_left {
            return Err(InventoryError::InsufficientPairs {
                requested: cost_left,
                available: self.count(left_pair),
            });
        }
        if self.count(right_pair) < cost_right {
            return Err(InventoryError::InsufficientPairs {
                requested: cost_right,
                available: self.count(right_pair),
            });
        }
        let f_left = self
            .remove_pairs_full(left_pair, cost_left)
            .expect("checked");
        let f_right = self
            .remove_pairs_full(right_pair, cost_right)
            .expect("checked");
        // Under decoherent physics the product pair's clock restarts now,
        // at the Werner-composed fidelity of the two (aged) inputs, decaying
        // under the worse of the two input memories.
        let composed = match (f_left, f_right) {
            (Some((fa, ta)), Some((fb, tb))) => Some((swap_werner_fidelity(fa, fb), ta.min(tb))),
            _ => None,
        };
        self.add_pair_with_birth(NodePair::new(left, right), composed)
    }

    /// The minimum pair count over a set of pairs (used by balance tests).
    pub fn min_count_over(&self, pairs: &[NodePair]) -> Option<u64> {
        pairs.iter().map(|&p| self.count(p)).min()
    }
}

impl CountView for Inventory {
    #[inline]
    fn count(&self, pair: NodePair) -> u64 {
        Inventory::count(self, pair)
    }

    #[inline]
    fn row(&self, lo: NodeId) -> Option<CountRow<'_>> {
        Some(self.counts.row(lo))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn pair(a: u32, b: u32) -> NodePair {
        NodePair::new(NodeId(a), NodeId(b))
    }

    #[test]
    fn add_and_count() {
        let mut inv = Inventory::new(4);
        inv.add_pair(pair(0, 1)).unwrap();
        inv.add_pair(pair(0, 1)).unwrap();
        inv.add_pair(pair(2, 3)).unwrap();
        assert_eq!(inv.count(pair(1, 0)), 2);
        assert_eq!(inv.count(pair(2, 3)), 1);
        assert_eq!(inv.count(pair(0, 2)), 0);
        assert_eq!(inv.total_pairs(), 3);
        assert_eq!(inv.total_added(), 3);
        assert_eq!(inv.node_load(NodeId(0)), 2);
        assert_eq!(inv.node_load(NodeId(3)), 1);
        assert_eq!(
            inv.entangled_peers(NodeId(0)).collect::<Vec<_>>(),
            vec![NodeId(1)]
        );
        assert_eq!(inv.nonzero_pairs().len(), 2);
    }

    #[test]
    fn remove_pairs_checks_availability() {
        let mut inv = Inventory::new(3);
        inv.add_pair(pair(0, 1)).unwrap();
        assert_eq!(
            inv.remove_pairs(pair(0, 1), 2),
            Err(InventoryError::InsufficientPairs {
                requested: 2,
                available: 1
            })
        );
        inv.remove_pairs(pair(0, 1), 1).unwrap();
        assert_eq!(inv.count(pair(0, 1)), 0);
        assert_eq!(inv.total_removed(), 1);
        assert_eq!(inv.node_load(NodeId(0)), 0);
    }

    #[test]
    fn swap_moves_entanglement() {
        // A—C and C—B become A—B (Fig. 2 of the paper).
        let mut inv = Inventory::new(3);
        let (a, c, b) = (NodeId(0), NodeId(2), NodeId(1));
        inv.add_pair(NodePair::new(a, c)).unwrap();
        inv.add_pair(NodePair::new(c, b)).unwrap();
        inv.apply_swap(c, a, b, 1, 1).unwrap();
        assert_eq!(inv.count(NodePair::new(a, b)), 1);
        assert_eq!(inv.count(NodePair::new(a, c)), 0);
        assert_eq!(inv.count(NodePair::new(c, b)), 0);
        // The repeater's qubits are measured out: its load drops to zero.
        assert_eq!(inv.node_load(c), 0);
        assert_eq!(inv.node_load(a), 1);
        assert_eq!(inv.node_load(b), 1);
    }

    #[test]
    fn swap_with_distillation_cost_consumes_more() {
        let mut inv = Inventory::new(3);
        let (a, c, b) = (NodeId(0), NodeId(2), NodeId(1));
        for _ in 0..3 {
            inv.add_pair(NodePair::new(a, c)).unwrap();
            inv.add_pair(NodePair::new(c, b)).unwrap();
        }
        inv.apply_swap(c, a, b, 2, 3).unwrap();
        assert_eq!(inv.count(NodePair::new(a, c)), 1);
        assert_eq!(inv.count(NodePair::new(c, b)), 0);
        assert_eq!(inv.count(NodePair::new(a, b)), 1);
    }

    #[test]
    fn swap_fails_atomically() {
        let mut inv = Inventory::new(3);
        let (a, c, b) = (NodeId(0), NodeId(2), NodeId(1));
        inv.add_pair(NodePair::new(a, c)).unwrap();
        // Missing the C—B pair entirely.
        let err = inv.apply_swap(c, a, b, 1, 1).unwrap_err();
        assert!(matches!(err, InventoryError::InsufficientPairs { .. }));
        // Nothing was consumed.
        assert_eq!(inv.count(NodePair::new(a, c)), 1);
        assert_eq!(inv.total_removed(), 0);
    }

    #[test]
    fn swap_never_increases_node_pair_total() {
        // Paper §3: "a swap never increases the number of Bell pairs held at
        // a node".
        let mut inv = Inventory::new(4);
        for _ in 0..5 {
            inv.add_pair(pair(0, 2)).unwrap();
            inv.add_pair(pair(2, 3)).unwrap();
        }
        let before: Vec<u64> = (0..4).map(|i| inv.node_load(NodeId(i))).collect();
        inv.apply_swap(NodeId(2), NodeId(0), NodeId(3), 1, 1)
            .unwrap();
        for i in 0..4 {
            assert!(inv.node_load(NodeId(i)) <= before[i as usize]);
        }
        assert_eq!(inv.total_pairs(), 9);
    }

    #[test]
    fn buffer_limit_is_enforced() {
        let mut inv = Inventory::with_buffer_limit(3, 2);
        inv.add_pair(pair(0, 1)).unwrap();
        inv.add_pair(pair(0, 2)).unwrap();
        // Node 0 now holds two halves; a third is refused.
        assert_eq!(
            inv.add_pair(pair(0, 1)),
            Err(InventoryError::BufferFull { node: 0 })
        );
        // Other nodes still have room.
        inv.add_pair(pair(1, 2)).unwrap();
        assert_eq!(inv.total_pairs(), 3);
    }

    #[test]
    #[should_panic]
    fn degenerate_swap_panics() {
        let mut inv = Inventory::new(3);
        let _ = inv.apply_swap(NodeId(0), NodeId(1), NodeId(1), 1, 1);
    }

    fn decoherent_inventory(n: usize, t2: f64) -> Inventory {
        let mut inv = Inventory::new(n);
        inv.enable_lot_tracking(&PhysicsModel::decoherent(t2));
        inv
    }

    #[test]
    fn lot_store_is_off_by_default_and_for_ideal_physics() {
        let mut inv = Inventory::new(3);
        assert!(!inv.tracks_lots());
        inv.enable_lot_tracking(&PhysicsModel::Ideal);
        assert!(!inv.tracks_lots());
        inv.add_pair(pair(0, 1)).unwrap();
        assert!(inv.lots_for(pair(0, 1)).next().is_none());
        assert_eq!(inv.remove_pairs_with_fidelity(pair(0, 1), 1), Ok(None));
        assert_eq!(inv.earliest_lot_time(), None);
        assert!(inv.purge_expired(SimDuration::from_secs(1)).is_empty());
    }

    #[test]
    fn lots_mirror_counts_and_carry_timestamps() {
        let mut inv = decoherent_inventory(3, 10.0);
        inv.set_clock(SimTime::from_secs(1));
        inv.add_pair(pair(0, 1)).unwrap();
        inv.set_clock(SimTime::from_secs(3));
        inv.add_pair(pair(0, 1)).unwrap();
        let lots: Vec<PairLot> = inv.lots_for(pair(0, 1)).collect();
        assert_eq!(lots.len(), 2);
        assert_eq!(lots[0].created_at, SimTime::from_secs(1));
        assert_eq!(lots[1].created_at, SimTime::from_secs(3));
        assert_eq!(
            lots[0].birth_fidelity,
            PhysicsModel::DEFAULT_INITIAL_FIDELITY
        );
        assert_eq!(inv.earliest_lot_time(), Some(SimTime::from_secs(1)));
        // Aged fidelities decay with storage time: the older lot is worse.
        let fids: Vec<f64> = inv.fidelities_for(pair(0, 1)).collect();
        assert!(fids[0] < fids[1]);
        assert!(fids[1] < PhysicsModel::DEFAULT_INITIAL_FIDELITY + 1e-12);
    }

    #[test]
    fn consume_order_selects_which_lot_is_delivered() {
        for (order, expect_created) in [
            (ConsumeOrder::OldestFirst, SimTime::from_secs(0)),
            (ConsumeOrder::NewestFirst, SimTime::from_secs(5)),
        ] {
            let mut inv = Inventory::new(3);
            inv.enable_lot_tracking(&PhysicsModel::decoherent(10.0).with_consume_order(order));
            inv.set_clock(SimTime::ZERO);
            inv.add_pair(pair(0, 1)).unwrap();
            inv.set_clock(SimTime::from_secs(5));
            inv.add_pair(pair(0, 1)).unwrap();
            inv.set_clock(SimTime::from_secs(6));
            inv.remove_pairs(pair(0, 1), 1).unwrap();
            let remaining: Vec<PairLot> = inv.lots_for(pair(0, 1)).collect();
            assert_eq!(remaining.len(), 1);
            // The *other* lot was consumed.
            assert_ne!(remaining[0].created_at, expect_created);
        }
    }

    #[test]
    fn delivered_fidelity_is_the_best_aged_lot() {
        let mut inv = decoherent_inventory(3, 2.0);
        inv.set_clock(SimTime::ZERO);
        inv.add_pair(pair(0, 1)).unwrap();
        inv.set_clock(SimTime::from_secs(4));
        inv.add_pair(pair(0, 1)).unwrap();
        // Consuming both (D = 2 style) delivers the fresh pair's fidelity,
        // regardless of pop order.
        let f = inv
            .remove_pairs_with_fidelity(pair(0, 1), 2)
            .unwrap()
            .unwrap();
        assert!((f - PhysicsModel::DEFAULT_INITIAL_FIDELITY).abs() < 1e-12);
    }

    #[test]
    fn swap_ages_inputs_and_restarts_the_product_clock() {
        let (a, c, b) = (NodeId(0), NodeId(2), NodeId(1));
        let mut inv = decoherent_inventory(3, 1.0);
        inv.set_clock(SimTime::ZERO);
        inv.add_pair(NodePair::new(a, c)).unwrap();
        inv.add_pair(NodePair::new(c, b)).unwrap();
        let swap_at = SimTime::from_secs(1);
        inv.set_clock(swap_at);
        inv.apply_swap(c, a, b, 1, 1).unwrap();
        let product: Vec<PairLot> = inv.lots_for(NodePair::new(a, b)).collect();
        assert_eq!(product.len(), 1);
        assert_eq!(product[0].created_at, swap_at, "product clock restarts");
        // Both inputs aged one coherence time before composing.
        let model = DecoherenceModel::with_coherence_time(1.0);
        let aged = model.fidelity_after(PhysicsModel::DEFAULT_INITIAL_FIDELITY, 1.0);
        let expected = swap_werner_fidelity(aged, aged);
        assert!(
            (product[0].birth_fidelity - expected).abs() < 1e-12,
            "got {}, expected {expected}",
            product[0].birth_fidelity
        );
        // Composition can only lose fidelity relative to the aged inputs.
        assert!(product[0].birth_fidelity <= aged + 1e-12);
    }

    #[test]
    fn purge_expired_discards_old_lots_and_updates_counts() {
        let mut inv = decoherent_inventory(4, 10.0);
        inv.set_clock(SimTime::ZERO);
        inv.add_pair(pair(0, 1)).unwrap();
        inv.add_pair(pair(2, 3)).unwrap();
        inv.set_clock(SimTime::from_secs(4));
        inv.add_pair(pair(0, 1)).unwrap();

        inv.set_clock(SimTime::from_secs(5));
        let expired = inv.purge_expired(SimDuration::from_secs(5));
        // The two t = 0 lots have age exactly 5 (inclusive boundary); the
        // t = 4 lot survives.
        assert_eq!(expired.len(), 2);
        assert!(expired.contains(&pair(0, 1)) && expired.contains(&pair(2, 3)));
        assert_eq!(inv.count(pair(0, 1)), 1);
        assert_eq!(inv.count(pair(2, 3)), 0);
        assert_eq!(inv.total_removed(), 2);
        assert_eq!(inv.node_load(NodeId(2)), 0);
        assert_eq!(inv.earliest_lot_time(), Some(SimTime::from_secs(4)));
        // Nothing else is due yet.
        assert!(inv.purge_expired(SimDuration::from_secs(5)).is_empty());
    }

    #[test]
    fn peer_index_tracks_zero_nonzero_transitions() {
        let mut inv = Inventory::new(5);
        assert!(inv.peer_counts(NodeId(0)).is_empty());
        inv.add_pair(pair(0, 3)).unwrap();
        inv.add_pair(pair(0, 3)).unwrap();
        inv.add_pair(pair(0, 1)).unwrap();
        inv.add_pair(pair(2, 3)).unwrap();
        // Ascending order, as the balancer's tie-breaking requires, with
        // the pool counts mirrored inline.
        assert_eq!(
            inv.peer_counts(NodeId(0)),
            &[(NodeId(1), 1), (NodeId(3), 2)]
        );
        assert_eq!(
            inv.peer_counts(NodeId(3)),
            &[(NodeId(0), 2), (NodeId(2), 1)]
        );
        // Removing one of two pairs keeps the peer; removing the last drops it.
        inv.remove_pairs(pair(0, 3), 1).unwrap();
        assert_eq!(
            inv.peer_counts(NodeId(0)),
            &[(NodeId(1), 1), (NodeId(3), 1)]
        );
        inv.remove_pairs(pair(0, 3), 1).unwrap();
        assert_eq!(inv.peer_counts(NodeId(0)), &[(NodeId(1), 1)]);
        // A swap retargets the index: consuming 0—1 and 0—3 produces 1—3.
        inv.add_pair(pair(0, 3)).unwrap();
        inv.apply_swap(NodeId(0), NodeId(1), NodeId(3), 1, 1)
            .unwrap();
        assert!(inv.peer_counts(NodeId(0)).is_empty());
        assert_eq!(inv.peer_counts(NodeId(1)), &[(NodeId(3), 1)]);
        // Expiry transitions update the index too.
        let mut aged = decoherent_inventory(3, 10.0);
        aged.set_clock(SimTime::ZERO);
        aged.add_pair(pair(0, 1)).unwrap();
        aged.set_clock(SimTime::from_secs(9));
        assert_eq!(aged.peer_counts(NodeId(0)), &[(NodeId(1), 1)]);
        aged.purge_expired(SimDuration::from_secs(5));
        assert!(aged.peer_counts(NodeId(0)).is_empty());
    }

    #[test]
    fn link_physics_overrides_birth_fidelity_and_memory() {
        let mut inv = decoherent_inventory(3, 10.0);
        inv.set_link_physics([(pair(0, 1), 0.9, 0.5)]);
        inv.set_clock(SimTime::ZERO);
        inv.add_pair(pair(0, 1)).unwrap(); // fabric edge: f0 = 0.9, T2 = 0.5 s
        inv.add_pair(pair(1, 2)).unwrap(); // unlisted edge: global defaults
        let fabric_lot = inv.lots_for(pair(0, 1)).next().unwrap();
        assert_eq!(fabric_lot.birth_fidelity, 0.9);
        assert_eq!(fabric_lot.coherence_time_s, 0.5);
        let default_lot = inv.lots_for(pair(1, 2)).next().unwrap();
        assert_eq!(
            default_lot.birth_fidelity,
            PhysicsModel::DEFAULT_INITIAL_FIDELITY
        );
        assert_eq!(default_lot.coherence_time_s, 10.0);
        // The short-memory lot decays much faster than the default one.
        inv.set_clock(SimTime::from_secs(1));
        let fast = inv.fidelities_for(pair(0, 1)).next().unwrap();
        let slow = inv.fidelities_for(pair(1, 2)).next().unwrap();
        let expected_fast = DecoherenceModel::with_coherence_time(0.5).fidelity_after(0.9, 1.0);
        assert!((fast - expected_fast).abs() < 1e-12);
        assert!(slow > fast);
    }

    #[test]
    fn swap_product_inherits_the_weakest_input_memory() {
        let (a, c, b) = (NodeId(0), NodeId(2), NodeId(1));
        let mut inv = decoherent_inventory(3, 10.0);
        inv.set_link_physics([
            (NodePair::new(a, c), 0.95, 0.5),
            (NodePair::new(c, b), 0.95, 4.0),
        ]);
        inv.set_clock(SimTime::ZERO);
        inv.add_pair(NodePair::new(a, c)).unwrap();
        inv.add_pair(NodePair::new(c, b)).unwrap();
        inv.apply_swap(c, a, b, 1, 1).unwrap();
        let product: Vec<PairLot> = inv.lots_for(NodePair::new(a, b)).collect();
        assert_eq!(product.len(), 1);
        assert_eq!(product[0].coherence_time_s, 0.5, "worst memory dominates");
    }

    #[test]
    fn min_count_over_pairs() {
        let mut inv = Inventory::new(4);
        inv.add_pair(pair(0, 1)).unwrap();
        inv.add_pair(pair(0, 1)).unwrap();
        inv.add_pair(pair(1, 2)).unwrap();
        let pairs = [pair(0, 1), pair(1, 2), pair(2, 3)];
        assert_eq!(inv.min_count_over(&pairs), Some(0));
        assert_eq!(inv.min_count_over(&pairs[..2]), Some(1));
        assert_eq!(inv.min_count_over(&[]), None);
    }

    /// The pair `{a mod n, b mod n}`, if its endpoints differ.
    fn pair_in(n: usize, a: usize, b: usize) -> Option<NodePair> {
        let (a, b) = (a % n, b % n);
        (a != b).then(|| NodePair::new(NodeId::from(a), NodeId::from(b)))
    }

    proptest! {
        /// The flat store against a B-tree reference store
        /// (`BTreeMap<NodePair, VecDeque<PairLot>>`): pushes, takes from
        /// the front and the back, cutoff purges and override lookups give
        /// the same lots in the same order; the sorted `occupied` walk is
        /// the map's key order; and emptied slots are released and reused,
        /// so the slab never outgrows the peak number of occupied pools.
        #[test]
        fn flat_and_btree_backends_stay_identical(
            n in 2usize..9,
            overrides in collection::vec((0usize..9, 0usize..9, 0u8..4), 0..6),
            ops in collection::vec((0u8..6, 0usize..9, 0usize..9, 1u64..4), 0..200),
        ) {
            let mut flat = FlatPools::new(n);
            let mut reference: BTreeMap<NodePair, VecDeque<PairLot>> = BTreeMap::new();
            let link_overrides: BTreeMap<NodePair, (f64, f64)> = overrides
                .iter()
                .filter_map(|&(a, b, v)| pair_in(n, a, b).map(|p| (p, (0.9, 1.0 + f64::from(v)))))
                .collect();
            // Unsorted input: the store sorts it itself.
            flat.set_link_overrides(link_overrides.iter().rev().map(|(&p, &v)| (p, v)));
            let mut peak_occupied = 0;
            for (step, &(op, a, b, k)) in ops.iter().enumerate() {
                let clock = SimTime::from_secs(step as u64);
                let Some(p) = pair_in(n, a, b) else { continue };
                match op {
                    0 | 1 => {
                        let lot = PairLot {
                            created_at: clock,
                            birth_fidelity: 0.5 + step as f64 / 1e3,
                            coherence_time_s: 1.0,
                        };
                        flat.push(p, lot);
                        reference.entry(p).or_default().push_back(lot);
                    }
                    2 | 3 => {
                        let from_back = op == 3;
                        let take = |pool: &mut VecDeque<PairLot>| -> Vec<PairLot> {
                            (0..k)
                                .map_while(|_| if from_back { pool.pop_back() } else { pool.pop_front() })
                                .collect()
                        };
                        let got = flat.pool_mut(p).map(take).unwrap_or_default();
                        flat.release_if_empty(p);
                        let want = reference.get_mut(&p).map(take).unwrap_or_default();
                        reference.retain(|_, pool| !pool.is_empty());
                        prop_assert_eq!(got, want);
                    }
                    4 => {
                        let cutoff = SimDuration::from_secs(10 * k);
                        let mut want = Vec::new();
                        for (&pair, pool) in reference.iter_mut() {
                            while pool.front().is_some_and(|lot| lot.created_at + cutoff <= clock) {
                                pool.pop_front();
                                want.push(pair);
                            }
                        }
                        reference.retain(|_, pool| !pool.is_empty());
                        prop_assert_eq!(flat.purge(cutoff, clock), want);
                    }
                    _ => {
                        prop_assert_eq!(
                            flat.link_override(p),
                            link_overrides.get(&p).copied()
                        );
                    }
                }
                peak_occupied = peak_occupied.max(reference.len());
                prop_assert!(flat.occupied.iter().eq(reference.keys()));
                for (a, b) in (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))) {
                    let pair = NodePair::new(NodeId::from(a), NodeId::from(b));
                    prop_assert_eq!(flat.pool(pair), reference.get(&pair));
                }
                prop_assert_eq!(
                    flat.earliest(),
                    reference.values().filter_map(|pool| pool.front()).map(|lot| lot.created_at).min()
                );
                prop_assert_eq!(flat.slab.len(), flat.occupied.len() + flat.free.len());
                prop_assert!(flat.slab.len() <= peak_occupied);
                prop_assert!(flat.free.iter().all(|&slot| flat.slab[slot as usize].is_empty()));
            }
        }
    }

    proptest! {
        /// The peer index equals a rebuild from the counts after every
        /// add, removal and swap, on dense stocks (every node shares pairs
        /// with every other, so the `p − [p > x]` slot holds the peer) and
        /// on sparse ones (the binary search runs). Failed removals and
        /// swaps must leave the index untouched too.
        #[test]
        fn peer_index_matches_a_rebuild_from_the_counts(
            n in 3usize..12,
            dense in any::<bool>(),
            ops in collection::vec((0u8..3, 0usize..12, 0usize..12, 0usize..12, 1u64..3), 0..120),
        ) {
            let mut inv = Inventory::new(n);
            if dense {
                for (a, b) in (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))) {
                    for _ in 0..1 + (a + b) % 3 {
                        inv.add_pair(NodePair::new(NodeId::from(a), NodeId::from(b))).unwrap();
                    }
                }
            }
            for &(op, a, b, c, k) in &ops {
                let Some(p) = pair_in(n, a, b) else { continue };
                match op {
                    0 => inv.add_pair(p).unwrap(),
                    1 => {
                        let _ = inv.remove_pairs(p, k);
                    }
                    _ => {
                        let repeater = NodeId::from(c % n);
                        if repeater != p.lo() && repeater != p.hi() {
                            let _ = inv.apply_swap(repeater, p.lo(), p.hi(), 1, k);
                        }
                    }
                }
                for x in (0..n).map(NodeId::from) {
                    let rebuilt: Vec<(NodeId, u64)> = (0..n)
                        .map(NodeId::from)
                        .filter(|&y| y != x)
                        .map(|y| (y, inv.count(NodePair::new(x, y))))
                        .filter(|&(_, count)| count > 0)
                        .collect();
                    prop_assert_eq!(inv.peer_counts(x), &rebuilt[..]);
                }
            }
        }
    }
}
