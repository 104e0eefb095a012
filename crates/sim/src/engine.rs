//! The simulation engine: clock + event queue + model.
//!
//! A model implements [`World`]; the [`Engine`] owns the model, the clock and
//! the [`EventQueue`] and drives event delivery until a [`StopCondition`] is
//! met or the queue drains.

use crate::event::EventQueue;
use crate::time::SimTime;

/// A simulation model.
///
/// The engine calls [`World::handle`] for every delivered event; the handler
/// mutates model state and may schedule further events on the queue it is
/// handed. The handler must never schedule events in the past (this is
/// checked by the engine and treated as a programming error).
pub trait World {
    /// The event type delivered to this world.
    type Event;

    /// Handle one event occurring at simulated time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Why a [`Engine::run`] call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunResult {
    /// The event queue drained completely.
    QueueExhausted,
    /// The configured horizon time was reached.
    HorizonReached,
    /// The configured event budget was exhausted.
    EventBudgetExhausted,
}

/// Limits on a simulation run.
#[derive(Debug, Clone, Copy)]
pub struct StopCondition {
    /// Do not deliver events scheduled strictly after this time.
    pub horizon: SimTime,
    /// Deliver at most this many events.
    pub max_events: u64,
}

impl Default for StopCondition {
    fn default() -> Self {
        StopCondition {
            horizon: SimTime::MAX,
            max_events: u64::MAX,
        }
    }
}

impl StopCondition {
    /// Stop after the given horizon time.
    pub fn at_horizon(horizon: SimTime) -> Self {
        StopCondition {
            horizon,
            ..Default::default()
        }
    }

    /// Stop after delivering `max_events` events.
    pub fn after_events(max_events: u64) -> Self {
        StopCondition {
            max_events,
            ..Default::default()
        }
    }
}

/// The discrete-event simulation engine.
#[derive(Debug)]
pub struct Engine<W: World> {
    world: W,
    queue: EventQueue<W::Event>,
    now: SimTime,
    delivered: u64,
}

impl<W: World> Engine<W> {
    /// Create an engine around a model, with an empty queue and the clock at
    /// time zero.
    pub fn new(world: W) -> Self {
        Engine {
            world,
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            delivered: 0,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Immutable access to the model.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the event queue (e.g. for seeding initial events).
    pub fn queue_mut(&mut self) -> &mut EventQueue<W::Event> {
        &mut self.queue
    }

    /// Immutable access to the event queue.
    pub fn queue(&self) -> &EventQueue<W::Event> {
        &self.queue
    }

    /// Consume the engine and return the model.
    pub fn into_world(self) -> W {
        self.world
    }

    /// Run until the stop condition triggers or the queue drains.
    pub fn run(&mut self, stop: StopCondition) -> RunResult {
        let mut budget = stop.max_events;
        loop {
            if budget == 0 {
                return RunResult::EventBudgetExhausted;
            }
            let Some(next_time) = self.queue.peek_time() else {
                return RunResult::QueueExhausted;
            };
            if next_time > stop.horizon {
                // Leave the event in the queue so a later run() with a larger
                // horizon can still deliver it; advance the clock to the
                // horizon so time-weighted statistics cover the full window.
                self.now = stop.horizon;
                return RunResult::HorizonReached;
            }
            let scheduled = self.queue.pop().expect("peeked event must pop");
            debug_assert!(
                scheduled.time >= self.now,
                "event scheduled in the past: {} < {}",
                scheduled.time,
                self.now
            );
            self.now = scheduled.time;
            self.world
                .handle(self.now, scheduled.event, &mut self.queue);
            self.delivered += 1;
            budget -= 1;
        }
    }

    /// Run until the event queue is empty (no horizon, no event budget).
    pub fn run_to_completion(&mut self) -> RunResult {
        self.run(StopCondition::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Tick,
        Stop,
    }

    struct Clockwork {
        ticks: u32,
        last_seen: SimTime,
        stopped: bool,
    }

    impl World for Clockwork {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, queue: &mut EventQueue<Ev>) {
            assert!(now >= self.last_seen, "time went backwards");
            self.last_seen = now;
            match ev {
                Ev::Tick => {
                    self.ticks += 1;
                    if self.ticks < 5 {
                        queue.schedule_after(now, SimDuration::from_secs(1), Ev::Tick);
                    } else {
                        queue.schedule_after(now, SimDuration::from_secs(1), Ev::Stop);
                    }
                }
                Ev::Stop => self.stopped = true,
            }
        }
    }

    fn fresh() -> Engine<Clockwork> {
        let mut e = Engine::new(Clockwork {
            ticks: 0,
            last_seen: SimTime::ZERO,
            stopped: false,
        });
        e.queue_mut().schedule_at(SimTime::ZERO, Ev::Tick);
        e
    }

    #[test]
    fn runs_to_completion() {
        let mut e = fresh();
        let r = e.run_to_completion();
        assert_eq!(r, RunResult::QueueExhausted);
        assert_eq!(e.world().ticks, 5);
        assert!(e.world().stopped);
        assert_eq!(e.now(), SimTime::from_secs(5));
        assert_eq!(e.delivered(), 6);
    }

    #[test]
    fn horizon_stops_early_and_can_resume() {
        let mut e = fresh();
        let r = e.run(StopCondition::at_horizon(SimTime::from_millis(2500)));
        assert_eq!(r, RunResult::HorizonReached);
        assert_eq!(e.world().ticks, 3); // ticks at t=0,1,2
        assert_eq!(e.now(), SimTime::from_millis(2500));
        // Resume with no horizon: the remaining events still fire.
        let r2 = e.run_to_completion();
        assert_eq!(r2, RunResult::QueueExhausted);
        assert_eq!(e.world().ticks, 5);
        assert!(e.world().stopped);
    }

    #[test]
    fn event_budget_stops_early() {
        let mut e = fresh();
        let r = e.run(StopCondition::after_events(2));
        assert_eq!(r, RunResult::EventBudgetExhausted);
        assert_eq!(e.delivered(), 2);
        assert_eq!(e.world().ticks, 2);
    }

    #[test]
    fn empty_queue_returns_immediately() {
        let mut e = Engine::new(Clockwork {
            ticks: 0,
            last_seen: SimTime::ZERO,
            stopped: false,
        });
        assert_eq!(e.run_to_completion(), RunResult::QueueExhausted);
        assert_eq!(e.delivered(), 0);
        assert_eq!(e.now(), SimTime::ZERO);
    }

    #[test]
    fn into_world_returns_final_state() {
        let mut e = fresh();
        e.run_to_completion();
        let w = e.into_world();
        assert_eq!(w.ticks, 5);
    }
}
