//! The run loop: a model and the queue it was seeded into.
//!
//! A model implements [`World`]; [`run_until`] delivers the events of the
//! queue the model's constructor seeded, in `(time, seq)` order, until the
//! next one lies beyond a horizon or the queue drains.

use crate::event::EventQueue;
use crate::time::SimTime;

/// A simulation model.
///
/// [`run_until`] calls [`World::handle`] for every delivered event; the
/// handler mutates model state and may schedule further events on the
/// queue it is handed. The handler must never schedule events in the past
/// (checked in debug builds and treated as a programming error).
pub trait World {
    /// The event type delivered to this world.
    type Event;

    /// Handle one event occurring at simulated time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Deliver `queue`'s events to `world` until the next one lies beyond
/// `horizon` or the queue drains, and return the clock: `horizon` when an
/// event beyond it is left waiting, otherwise the time of the last event
/// this call delivered (`ZERO` when it delivered none).
///
/// Events beyond the horizon stay queued, so calling again with a later
/// horizon resumes the run.
pub fn run_until<W: World>(
    world: &mut W,
    queue: &mut EventQueue<W::Event>,
    horizon: SimTime,
) -> SimTime {
    let mut now = SimTime::ZERO;
    while let Some(next) = queue.peek_time() {
        if next > horizon {
            // The clock still advances to the horizon, so time-weighted
            // statistics cover the full window.
            return horizon;
        }
        let scheduled = queue.pop().expect("peeked event must pop");
        debug_assert!(
            scheduled.time >= now,
            "event scheduled in the past: {} < {}",
            scheduled.time,
            now
        );
        now = scheduled.time;
        world.handle(now, scheduled.event, queue);
    }
    now
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

    #[derive(Default)]
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

    fn seeded() -> (Clockwork, EventQueue<Ev>) {
        let mut queue = EventQueue::new();
        queue.schedule_at(SimTime::ZERO, Ev::Tick);
        (Clockwork::default(), queue)
    }

    #[test]
    fn runs_to_completion() {
        let (mut world, mut queue) = seeded();
        let ended = run_until(&mut world, &mut queue, SimTime::MAX);
        assert_eq!(world.ticks, 5);
        assert!(world.stopped);
        assert!(queue.is_empty());
        assert_eq!(ended, SimTime::from_secs(5));
    }

    #[test]
    fn horizon_stops_early_and_can_resume() {
        let (mut world, mut queue) = seeded();
        let ended = run_until(&mut world, &mut queue, SimTime::from_millis(2500));
        assert_eq!(world.ticks, 3); // ticks at t=0,1,2
        assert_eq!(ended, SimTime::from_millis(2500));
        assert_eq!(queue.peek_time(), Some(SimTime::from_secs(3)));
        // Resume with no horizon: the remaining events still fire.
        let ended = run_until(&mut world, &mut queue, SimTime::MAX);
        assert_eq!(world.ticks, 5);
        assert!(world.stopped);
        assert_eq!(ended, SimTime::from_secs(5));
    }

    #[test]
    fn an_event_at_the_horizon_is_delivered() {
        let (mut world, mut queue) = seeded();
        let ended = run_until(&mut world, &mut queue, SimTime::from_secs(2));
        assert_eq!(world.ticks, 3);
        assert_eq!(ended, SimTime::from_secs(2));
    }

    #[test]
    fn empty_queue_returns_immediately() {
        let mut world = Clockwork::default();
        let mut queue = EventQueue::new();
        assert_eq!(
            run_until(&mut world, &mut queue, SimTime::MAX),
            SimTime::ZERO
        );
        assert_eq!(world.ticks, 0);
    }
}
