//! The event queue.
//!
//! Events are ordered by `(time, sequence)`, where `sequence` is a
//! monotonically increasing insertion counter. Breaking ties by insertion
//! order (rather than arbitrarily, as a plain binary heap would) is what
//! makes simulations deterministic and therefore reproducible: two events
//! scheduled for the same instant are always delivered in the order they
//! were scheduled.
//!
//! The queue is a hierarchical **timing wheel**: near-O(1) schedule/pop for
//! the dense short-horizon event churn the network simulation generates.
//! It orders by the full `(time, seq)` key, so its pop sequence is exactly
//! that of a plain binary heap over [`ScheduledEvent`] — the reference the
//! unit tests check it against.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event that has been scheduled for delivery.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// Delivery time.
    pub time: SimTime,
    /// Insertion sequence number (tie-breaker; unique per queue).
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the earliest
        // (time, seq) at the top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Log₂ of the wheel bucket width in nanoseconds: 2²⁰ ns ≈ 1.05 ms, on the
/// order of the entanglement-generation and swap-scan intervals that
/// dominate the hot path.
const WHEEL_TICK_SHIFT: u32 = 20;
/// Number of wheel buckets (power of two): span ≈ 4096 × 1.05 ms ≈ 4.3 s.
/// Events beyond the span overflow into an auxiliary heap and migrate into
/// the wheel as it rotates forward.
const WHEEL_BUCKETS: usize = 4096;

/// The wheel tick an absolute time falls into.
fn wheel_tick(t: SimTime) -> u64 {
    t.as_nanos() >> WHEEL_TICK_SHIFT
}

/// Timing-wheel state. Invariant (restored by `settle` after every
/// mutation): whenever the wheel holds any event, `active` is non-empty and
/// contains every event with tick < `active_tick` — including the global
/// minimum — so `peek`/`pop` are straight heap operations on `active`.
///
/// * `active` — min-heap of imminent events (tick < `active_tick`).
/// * `buckets[τ % WHEEL_BUCKETS]` — unsorted events at tick τ for
///   τ ∈ [`active_tick`, `active_tick + WHEEL_BUCKETS`).
/// * `overflow` — min-heap of events at or beyond the wheel span.
#[derive(Debug, Clone)]
struct TimingWheel<E> {
    active: BinaryHeap<ScheduledEvent<E>>,
    buckets: Vec<Vec<ScheduledEvent<E>>>,
    /// Total events across all `buckets`.
    bucket_len: usize,
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// First tick not yet migrated into `active`.
    active_tick: u64,
}

impl<E> TimingWheel<E> {
    fn new() -> Self {
        TimingWheel {
            active: BinaryHeap::new(),
            buckets: std::iter::repeat_with(Vec::new)
                .take(WHEEL_BUCKETS)
                .collect(),
            bucket_len: 0,
            overflow: BinaryHeap::new(),
            active_tick: 0,
        }
    }

    fn len(&self) -> usize {
        self.active.len() + self.bucket_len + self.overflow.len()
    }

    fn push(&mut self, ev: ScheduledEvent<E>) {
        let tick = wheel_tick(ev.time);
        if tick < self.active_tick {
            // Imminent (or in the past relative to the wheel cursor):
            // straight into the sorted heap the pops come from.
            self.active.push(ev);
        } else if tick - self.active_tick < WHEEL_BUCKETS as u64 {
            self.buckets[(tick % WHEEL_BUCKETS as u64) as usize].push(ev);
            self.bucket_len += 1;
        } else {
            self.overflow.push(ev);
        }
        self.settle();
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.active.pop();
        self.settle();
        ev
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.active.peek().map(|s| s.time)
    }

    /// Rotate the wheel forward until `active` again holds the global
    /// minimum (or the wheel is empty). Each step migrates one tick's
    /// bucket, merged with any overflow events on that exact tick, into a
    /// freshly heapified `active`; when every bucket is empty the cursor
    /// jumps straight to the earliest overflow tick instead of sweeping
    /// empty buckets.
    fn settle(&mut self) {
        while self.active.is_empty() && (self.bucket_len > 0 || !self.overflow.is_empty()) {
            if self.bucket_len == 0 {
                // Only overflow events remain: jump to the earliest.
                let t = self.overflow.peek().expect("overflow non-empty").time;
                self.active_tick = wheel_tick(t);
            }
            let slot = (self.active_tick % WHEEL_BUCKETS as u64) as usize;
            let mut batch = std::mem::take(&mut self.buckets[slot]);
            self.bucket_len -= batch.len();
            while self
                .overflow
                .peek()
                .is_some_and(|ev| wheel_tick(ev.time) == self.active_tick)
            {
                batch.push(self.overflow.pop().expect("peeked"));
            }
            self.active_tick += 1;
            if !batch.is_empty() {
                // O(batch) heapify — cheaper than per-event pushes.
                self.active = BinaryHeap::from(batch);
            }
        }
    }

    fn clear(&mut self) {
        self.active.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.bucket_len = 0;
        self.overflow.clear();
    }
}

/// A deterministic future-event list.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    wheel: TimingWheel<E>,
    /// Next insertion sequence number, which is also the total number of
    /// events ever scheduled.
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            wheel: TimingWheel::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` for delivery at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.push(ScheduledEvent {
            time: at,
            seq,
            event,
        });
    }

    /// Schedule `event` for delivery `after` the given `now`.
    pub fn schedule_after(&mut self, now: SimTime, after: SimDuration, event: E) {
        self.schedule_at(now.saturating_add(after), event);
    }

    /// Remove and return the next event in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        self.wheel.pop()
    }

    /// Time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.wheel.peek_time()
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events ever scheduled on this queue.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Drop all pending events (the sequence counter keeps advancing so that
    /// determinism is preserved if the queue is reused).
    pub fn clear(&mut self) {
        self.wheel.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule_at(SimTime::from_secs(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|s| s.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_after_adds_to_now() {
        let mut q = EventQueue::new();
        q.schedule_after(SimTime::from_secs(5), SimDuration::from_millis(250), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5_250_000_000)));
    }

    #[test]
    fn counters_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_at(SimTime::ZERO, 1);
        q.schedule_at(SimTime::ZERO, 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), 10);
        q.schedule_at(SimTime::from_secs(1), 1);
        assert_eq!(q.pop().unwrap().event, 1);
        q.schedule_at(SimTime::from_secs(5), 5);
        q.schedule_at(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 5);
        assert_eq!(q.pop().unwrap().event, 10);
        assert!(q.pop().is_none());
    }

    /// Deterministic pseudo-random stream (SplitMix-style) for the
    /// differential tests — no RNG dependency inside the unit tests.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// The differential proof the wheel rests on: identical schedule/pop
    /// interleavings produce identical `(time, seq, event)` streams from
    /// the wheel and from a plain `BinaryHeap<ScheduledEvent>` (whose `Ord`
    /// is the `(time, seq)` contract itself), across time scales that
    /// exercise the wheel's active heap, its buckets, its overflow heap,
    /// and the overflow→bucket migration as the wheel rotates.
    #[test]
    fn wheel_and_heap_pop_identical_streams() {
        for (scale, seed) in [(1_u64, 1), (1 << 18, 2), (1 << 22, 3), (1 << 30, 4)] {
            let mut wheel = EventQueue::new();
            let mut heap = BinaryHeap::new();
            let schedule = |wheel: &mut EventQueue<u64>,
                            heap: &mut BinaryHeap<ScheduledEvent<u64>>,
                            at: u64,
                            event: u64| {
                let time = SimTime::from_nanos(at);
                let seq = wheel.scheduled_total();
                wheel.schedule_at(time, event);
                heap.push(ScheduledEvent { time, seq, event });
            };
            let mut state = seed;
            let mut now = 0u64;
            for round in 0..2_000u64 {
                let r = mix(&mut state);
                // Mixed workload: mostly schedules near `now`, some far
                // ahead, occasional bursts of exact ties, interleaved pops.
                match r % 10 {
                    0..=5 => schedule(&mut wheel, &mut heap, now + (r >> 32) % (64 * scale), round),
                    // Far future.
                    6 => schedule(&mut wheel, &mut heap, now + (r >> 32) % (1 << 34), round),
                    7 => {
                        for k in 0..4 {
                            schedule(&mut wheel, &mut heap, now + scale, round * 10 + k);
                        }
                    }
                    _ => {
                        let (a, b) = (wheel.pop(), heap.pop());
                        match (&a, &b) {
                            (Some(x), Some(y)) => {
                                assert_eq!(
                                    (x.time, x.seq, x.event),
                                    (y.time, y.seq, y.event),
                                    "diverged at round {round} scale {scale}"
                                );
                                now = now.max(x.time.as_nanos());
                            }
                            (None, None) => {}
                            _ => panic!("one queue empty, the other not"),
                        }
                    }
                }
                assert_eq!(wheel.len(), heap.len());
                assert_eq!(wheel.peek_time(), heap.peek().map(|s| s.time));
            }
            // Drain: remaining streams must match to the last event.
            loop {
                match (wheel.pop(), heap.pop()) {
                    (Some(x), Some(y)) => {
                        assert_eq!((x.time, x.seq), (y.time, y.seq));
                    }
                    (None, None) => break,
                    _ => panic!("queues disagree on emptiness"),
                }
            }
        }
    }

    #[test]
    fn wheel_survives_far_future_and_reuse_after_clear() {
        let mut q = EventQueue::new();
        // Far beyond the wheel span: overflow path.
        q.schedule_at(SimTime::from_secs(1_000_000), 1);
        q.schedule_at(SimTime::from_nanos(5), 0);
        assert_eq!(q.pop().unwrap().event, 0);
        assert_eq!(q.pop().unwrap().event, 1);
        // Reuse after clear, scheduling "in the past" relative to the
        // wheel cursor: still delivered, in order.
        q.schedule_at(SimTime::from_secs(2_000_000), 9);
        q.clear();
        assert!(q.is_empty());
        q.schedule_at(SimTime::from_secs(3), 3);
        q.schedule_at(SimTime::from_secs(1), 2);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
        assert!(q.pop().is_none());
    }
}
