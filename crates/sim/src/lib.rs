//! # qnet-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the simulation substrate used by the rest of the
//! `qnet` workspace. It is a classic event-queue discrete-event simulator
//! (DES): a monotonically increasing simulated clock, a priority queue of
//! scheduled events, and a handler that mutates model state and schedules
//! further events.
//!
//! Design goals (in the spirit of the smoltcp guidance followed by this
//! workspace):
//!
//! * **Simplicity and robustness** — no async runtime, no threads inside the
//!   engine, no unsafe code. The simulation is CPU-bound and single-threaded;
//!   parallelism, when wanted, is obtained by running independent replicas on
//!   separate threads (see `qnet-campaign`).
//! * **Determinism** — all randomness flows through [`SimRng`], a seeded
//!   ChaCha-based generator with labelled sub-streams. Two runs with the same
//!   seed produce bit-identical event orderings; ties in event time are broken
//!   by insertion sequence number.
//! * **Observability** — lightweight statistics collectors
//!   ([`stats::RunningStats`], [`stats::StreamingQuantiles`]).
//!
//! ## Quick example
//!
//! ```
//! use qnet_sim::{run_until, EventQueue, SimDuration, SimTime, World};
//!
//! #[derive(Debug, Clone, PartialEq, Eq)]
//! enum Ev { Ping(u32) }
//!
//! struct Model { pings: u32 }
//!
//! impl World for Model {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, ev: Ev, queue: &mut EventQueue<Ev>) {
//!         let Ev::Ping(n) = ev;
//!         self.pings += 1;
//!         if n < 10 {
//!             queue.schedule_after(now, SimDuration::from_millis(1), Ev::Ping(n + 1));
//!         }
//!     }
//! }
//!
//! // The queue a model is seeded into is the queue that runs it.
//! let mut model = Model { pings: 0 };
//! let mut queue = EventQueue::new();
//! queue.schedule_at(SimTime::ZERO, Ev::Ping(0));
//! let ended = run_until(&mut model, &mut queue, SimTime::MAX);
//! assert_eq!(model.pings, 11);
//! assert_eq!(ended, SimTime::from_millis(10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod process;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{run_until, World};
pub use event::{EventQueue, ScheduledEvent};
pub use process::PoissonProcess;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
