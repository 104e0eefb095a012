//! Arrival processes.
//!
//! Simulation models frequently need "this happens repeatedly at rate λ"
//! (Poisson). This helper produces the next arrival time; the model is
//! responsible for scheduling the corresponding event.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A Poisson (memoryless) arrival process with a fixed rate in events per
/// simulated second.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    rate_per_sec: f64,
}

impl PoissonProcess {
    /// Create a process with the given rate (events per second). Rates that
    /// are zero or negative yield a process that never fires.
    pub fn new(rate_per_sec: f64) -> Self {
        PoissonProcess { rate_per_sec }
    }

    /// The configured rate.
    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// True if this process never fires.
    pub fn is_silent(&self) -> bool {
        self.rate_per_sec <= 0.0
    }

    /// Sample the next arrival strictly after `now`, or `None` if the process
    /// never fires.
    pub fn next_arrival(&self, now: SimTime, rng: &mut SimRng) -> Option<SimTime> {
        if self.is_silent() {
            return None;
        }
        let gap = rng.sample_exponential(self.rate_per_sec);
        if !gap.is_finite() {
            return None;
        }
        Some(now.saturating_add(SimDuration::from_secs_f64(gap)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_interarrival_matches_rate() {
        let p = PoissonProcess::new(10.0);
        let mut rng = SimRng::new(99);
        let mut now = SimTime::ZERO;
        let n = 10_000;
        for _ in 0..n {
            now = p.next_arrival(now, &mut rng).unwrap();
        }
        let mean_gap = now.as_secs_f64() / n as f64;
        assert!((mean_gap - 0.1).abs() < 0.01, "mean gap {mean_gap}");
    }

    #[test]
    fn poisson_silent_never_fires() {
        let p = PoissonProcess::new(0.0);
        let mut rng = SimRng::new(1);
        assert!(p.is_silent());
        assert!(p.next_arrival(SimTime::ZERO, &mut rng).is_none());
    }

    #[test]
    fn poisson_arrivals_strictly_progress() {
        let p = PoissonProcess::new(1000.0);
        let mut rng = SimRng::new(3);
        let mut now = SimTime::ZERO;
        for _ in 0..1000 {
            let next = p.next_arrival(now, &mut rng).unwrap();
            assert!(next >= now);
            now = next;
        }
    }
}
