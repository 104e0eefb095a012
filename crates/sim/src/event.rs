//! The event queue.
//!
//! Events are ordered by `(time, sequence)`, where `sequence` is a
//! monotonically increasing insertion counter. Breaking ties by insertion
//! order (rather than arbitrarily, as a plain binary heap would) is what
//! makes simulations deterministic and therefore reproducible: two events
//! scheduled for the same instant are always delivered in the order they
//! were scheduled.
//!
//! The queue is a **timing wheel** of 4096 buckets, each one tick
//! (2²⁰ ns ≈ 1.05 ms) wide, sized for the dense short-horizon event churn
//! the network simulation generates:
//!
//! * **Sorted run.** The events of the tick being served sit in one `Vec`
//!   sorted by `(time, seq)` with the earliest last, so a pop is
//!   `Vec::pop`: O(1). An event pushed into that tick (or earlier) after
//!   the run was sorted is appended to the run if it is earlier than all
//!   of it, O(1), and otherwise goes to a small side heap, O(log n); a pop
//!   takes the earlier of the two heads, and the run is never shifted.
//! * **Bitmap skip.** A 64-word occupancy bitmap (one bit per bucket)
//!   lets the cursor jump straight to the next non-empty bucket, or to
//!   the overflow heap's earliest tick, so empty ticks cost nothing.
//!   Refilling the run costs one bitmap walk (at most 65 word reads) plus
//!   sorting that tick's events.
//! * **Buffer recycling.** A drained bucket's buffer becomes the run, and
//!   the run's old buffer is kept as a spare for the next bucket that
//!   turns non-empty within 64 ticks of the cursor, so a steady tick
//!   allocates and frees nothing. At most 8 spares of at most 32 slots are
//!   kept, an empty bucket owns no buffer, and a bucket further ahead
//!   grows its own, so memory stays proportional to the events in flight.
//! * **Overflow.** Events at or beyond the 4096-tick span (≈ 4.3 s) wait
//!   in a binary heap, O(log n) per push, and join the run when the
//!   cursor reaches their tick.
//!
//! A push into a bucket is O(1). The wheel orders by the full
//! `(time, seq)` key, so its pop sequence is exactly that of a plain
//! binary heap over [`ScheduledEvent`] — the reference the unit tests and
//! properties check it against after every operation.

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
/// the run when the cursor reaches their tick.
const WHEEL_BUCKETS: usize = 4096;
/// Words of the bucket-occupancy bitmap (one bit per bucket).
const BITMAP_WORDS: usize = WHEEL_BUCKETS / 64;
/// Drained buffers kept for reuse: at most this many, each of at most
/// [`SPARE_SLOTS`] slots. A buffer that grew larger (a burst tick) is freed.
const SPARE_BUFFERS: usize = 8;
/// Largest capacity a drained buffer may have and still be kept.
const SPARE_SLOTS: usize = 32;
/// Only a bucket fewer than this many ticks (≈ 67 ms) ahead of the cursor
/// gets a spare: it drains soon and hands the buffer back. A bucket
/// further ahead grows its own buffer, so a spare is not parked for
/// seconds under one or two events. On the 1000-node scale-free open-loop
/// run, spares for every bucket raised peak RSS by 0.7 MiB and a 256-tick
/// horizon by 0.2 MiB; `cycle:25` schedules within about 20 ticks.
const SPARE_HORIZON: u64 = 64;

/// The wheel tick an absolute time falls into.
fn wheel_tick(t: SimTime) -> u64 {
    t.as_nanos() >> WHEEL_TICK_SHIFT
}

/// Timing-wheel state. Invariant (restored after every mutation): whenever
/// the wheel holds any event, `run` ∪ `late` is non-empty and holds every
/// event with tick < `active_tick`, and every other event has tick ≥
/// `active_tick`; so the earlier of the two heads is the global minimum.
///
/// * `run` — the imminent events (tick < `active_tick`) sorted by
///   `(time, seq)` with the earliest **last**, so a pop is `Vec::pop`.
/// * `late` — min-heap of events pushed at tick < `active_tick` (the
///   current tick or the past) after `run` was sorted, O(log n) each; a
///   push earlier than the run's earliest event is appended to `run`
///   instead, O(1). Never a memmove of `run`. A pop takes the earlier of
///   the two heads.
/// * `buckets[τ % WHEEL_BUCKETS]` — unsorted events at tick τ for
///   τ ∈ [`active_tick`, `active_tick + WHEEL_BUCKETS`), one tick per
///   bucket; bit `τ % WHEEL_BUCKETS` of `occupied` is set iff the bucket
///   is non-empty.
/// * `overflow` — min-heap of events at or beyond the wheel span at push
///   time.
/// * `spare` — drained buffers (at most [`SPARE_BUFFERS`], each of at most
///   [`SPARE_SLOTS`] slots) handed to the next bucket that turns non-empty
///   within [`SPARE_HORIZON`] ticks of the cursor.
#[derive(Debug, Clone)]
struct TimingWheel<E> {
    run: Vec<ScheduledEvent<E>>,
    late: BinaryHeap<ScheduledEvent<E>>,
    buckets: Vec<Vec<ScheduledEvent<E>>>,
    occupied: [u64; BITMAP_WORDS],
    /// Total events across all `buckets`.
    bucket_len: usize,
    overflow: BinaryHeap<ScheduledEvent<E>>,
    spare: Vec<Vec<ScheduledEvent<E>>>,
    /// First tick not yet moved into `run`.
    active_tick: u64,
}

impl<E> TimingWheel<E> {
    fn new() -> Self {
        TimingWheel {
            run: Vec::new(),
            late: BinaryHeap::new(),
            buckets: std::iter::repeat_with(Vec::new)
                .take(WHEEL_BUCKETS)
                .collect(),
            occupied: [0; BITMAP_WORDS],
            bucket_len: 0,
            overflow: BinaryHeap::new(),
            spare: Vec::new(),
            active_tick: 0,
        }
    }

    fn len(&self) -> usize {
        self.run.len() + self.late.len() + self.bucket_len + self.overflow.len()
    }

    fn push(&mut self, ev: ScheduledEvent<E>) {
        let tick = wheel_tick(ev.time);
        if tick < self.active_tick {
            // The current tick (or the past relative to the cursor). An
            // event earlier than the run's earliest extends the run in
            // place (greater means earlier); any other goes to `late`.
            if self.run.last().is_none_or(|earliest| ev > *earliest) {
                self.run.push(ev);
            } else {
                self.late.push(ev);
            }
            return;
        }
        if tick - self.active_tick < WHEEL_BUCKETS as u64 {
            let slot = (tick % WHEEL_BUCKETS as u64) as usize;
            let bucket = &mut self.buckets[slot];
            if bucket.is_empty() {
                self.occupied[slot / 64] |= 1 << (slot % 64);
                // An empty bucket owns no buffer (`settle` and `clear`
                // take it), so a spare replaces nothing.
                if tick - self.active_tick < SPARE_HORIZON {
                    if let Some(buf) = self.spare.pop() {
                        *bucket = buf;
                    }
                }
            }
            bucket.push(ev);
            self.bucket_len += 1;
        } else {
            self.overflow.push(ev);
        }
        if self.run.is_empty() && self.late.is_empty() {
            self.settle();
        }
    }

    fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        // `ScheduledEvent`'s order is reversed: greater means earlier.
        let ev = match (self.run.last(), self.late.peek()) {
            (Some(run), Some(late)) if late > run => self.late.pop(),
            (Some(_), _) => self.run.pop(),
            (None, _) => self.late.pop(),
        };
        if self.run.is_empty() && self.late.is_empty() {
            self.settle();
        }
        ev
    }

    fn peek_time(&self) -> Option<SimTime> {
        match (self.run.last(), self.late.peek()) {
            (Some(run), Some(late)) => Some(run.time.min(late.time)),
            (run, late) => run.or(late).map(|s| s.time),
        }
    }

    /// Refill the empty run with the earliest pending tick: the next
    /// occupied bucket (found in the bitmap) or the overflow's earliest
    /// tick, whichever comes first, together with any overflow events on
    /// that same tick. The cursor jumps straight there, so empty ticks cost
    /// nothing. The bucket's buffer becomes the run, and the run's drained
    /// buffer is kept as a spare.
    fn settle(&mut self) {
        let bucket_tick = self.next_bucket_tick();
        let overflow_tick = self.overflow.peek().map(|ev| wheel_tick(ev.time));
        let tick = match (bucket_tick, overflow_tick) {
            (Some(b), Some(o)) => b.min(o),
            (Some(t), None) | (None, Some(t)) => t,
            (None, None) => return,
        };
        if bucket_tick == Some(tick) {
            let slot = (tick % WHEEL_BUCKETS as u64) as usize;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
            let batch = std::mem::take(&mut self.buckets[slot]);
            self.bucket_len -= batch.len();
            let drained = std::mem::replace(&mut self.run, batch);
            keep_spare(&mut self.spare, drained);
        }
        while self
            .overflow
            .peek()
            .is_some_and(|ev| wheel_tick(ev.time) == tick)
        {
            self.run.push(self.overflow.pop().expect("peeked"));
        }
        self.active_tick = tick + 1;
        // Ascending in the reversed order: the earliest event ends up last.
        self.run.sort_unstable();
    }

    /// The tick of the first non-empty bucket at or after the cursor: the
    /// first set bit of `occupied` from the cursor's slot, wrapping once
    /// around (at most `BITMAP_WORDS + 1` word reads).
    fn next_bucket_tick(&self) -> Option<u64> {
        if self.bucket_len == 0 {
            return None;
        }
        let start = (self.active_tick % WHEEL_BUCKETS as u64) as usize;
        // The start word's bits from the cursor on, the other words, then
        // the start word again for its bits before the cursor.
        (0..=BITMAP_WORDS).find_map(|k| {
            let w = (start / 64 + k) % BITMAP_WORDS;
            let word = if k == 0 {
                self.occupied[w] & (!0 << (start % 64))
            } else {
                self.occupied[w]
            };
            (word != 0).then(|| {
                let slot = w * 64 + word.trailing_zeros() as usize;
                self.active_tick + ((slot + WHEEL_BUCKETS - start) % WHEEL_BUCKETS) as u64
            })
        })
    }

    fn clear(&mut self) {
        self.run.clear();
        self.late.clear();
        for bucket in &mut self.buckets {
            keep_spare(&mut self.spare, std::mem::take(bucket));
        }
        self.occupied = [0; BITMAP_WORDS];
        self.bucket_len = 0;
        self.overflow.clear();
    }
}

/// Keep an emptied buffer for reuse if the spare list has room and the
/// buffer is small; free it otherwise.
fn keep_spare<E>(spare: &mut Vec<Vec<E>>, mut buf: Vec<E>) {
    buf.clear();
    if (1..=SPARE_SLOTS).contains(&buf.capacity()) && spare.len() < SPARE_BUFFERS {
        spare.push(buf);
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
    use proptest::prelude::*;

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

    /// A steady load of about 16 events per tick, run for far more ticks
    /// than the wheel has buckets, holds buffers in proportion to the
    /// events in flight plus the capped spare list — not one buffer per
    /// bucket ever used.
    #[test]
    fn retained_buffers_stay_proportional_to_events_in_flight() {
        let tick = 1u64 << WHEEL_TICK_SHIFT;
        let mut q = EventQueue::new();
        let mut state = 5;
        for i in 0..64u64 {
            q.schedule_at(SimTime::from_nanos(mix(&mut state) % (8 * tick)), i);
        }
        for i in 0..200_000u64 {
            let at = q.pop().expect("steady load").time.as_nanos();
            q.schedule_at(SimTime::from_nanos(at + mix(&mut state) % (8 * tick)), i);
        }
        assert!(q.wheel.active_tick > 2 * WHEEL_BUCKETS as u64);
        assert!(q.wheel.spare.len() <= SPARE_BUFFERS);
        let w = &q.wheel;
        let slots = w.run.capacity()
            + w.buckets.iter().map(Vec::capacity).sum::<usize>()
            + w.spare.iter().map(Vec::capacity).sum::<usize>();
        assert!(
            slots <= 4 * q.len() + SPARE_BUFFERS * SPARE_SLOTS,
            "{slots} slots retained for {} events",
            q.len()
        );
    }

    proptest! {
        /// The wheel against the `BinaryHeap<ScheduledEvent>` reference
        /// after every operation (`pop`, `peek_time`, `len`). Pushes land
        /// near the cursor, into the current tick (after its run was
        /// sorted), beyond the 4096-tick span (overflow), and on a grid of
        /// shared ticks 0–4 half-spans ahead, so one tick can receive an
        /// overflow event early and a bucket event later. Pops let the
        /// cursor jump long gaps and wrap the bitmap many times over;
        /// `clear` is followed by reuse.
        #[test]
        fn wheel_matches_the_heap_after_every_operation(
            ops in collection::vec((0u8..16, 0u64..u64::MAX), 1..400),
        ) {
            let tick = 1u64 << WHEEL_TICK_SHIFT;
            let span = WHEEL_BUCKETS as u64 * tick;
            let mut wheel = EventQueue::new();
            let mut heap: BinaryHeap<ScheduledEvent<usize>> = BinaryHeap::new();
            let mut now = 0u64;
            for (round, &(kind, r)) in ops.iter().enumerate() {
                let at = match kind {
                    0..=3 => Some(now + r % (64 * tick)),
                    4 | 5 => Some(now + r % 3),
                    6 => Some(now + span + r % (3 * span)),
                    7 | 8 => Some((now / (span / 2) + 1 + r % 4) * (span / 2) + (r >> 32) % 4),
                    15 if r % 8 == 0 => {
                        wheel.clear();
                        heap.clear();
                        None
                    }
                    _ => {
                        let (a, b) = (wheel.pop(), heap.pop());
                        prop_assert_eq!(
                            a.as_ref().map(|x| (x.time, x.seq, x.event)),
                            b.as_ref().map(|y| (y.time, y.seq, y.event))
                        );
                        if let Some(x) = a {
                            now = x.time.as_nanos();
                        }
                        None
                    }
                };
                if let Some(at) = at {
                    let time = SimTime::from_nanos(at);
                    let seq = wheel.scheduled_total();
                    wheel.schedule_at(time, round);
                    heap.push(ScheduledEvent { time, seq, event: round });
                }
                prop_assert_eq!(wheel.len(), heap.len());
                prop_assert_eq!(wheel.peek_time(), heap.peek().map(|s| s.time));
            }
            loop {
                let (a, b) = (wheel.pop(), heap.pop());
                prop_assert_eq!(
                    a.as_ref().map(|x| (x.time, x.seq, x.event)),
                    b.as_ref().map(|y| (y.time, y.seq, y.event))
                );
                prop_assert_eq!(wheel.peek_time(), heap.peek().map(|s| s.time));
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
