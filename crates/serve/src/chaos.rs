//! Deterministic fault injection for the serve engine.
//!
//! Compiled only with the `chaos` cargo feature (the crate's own tests
//! enable it; production consumers compile a hook-free engine). A
//! [`ChaosSchedule`] is an immutable table of faults keyed by
//! **submission sequence number** and **chunk index** — coordinates
//! that are deterministic for a given submission order no matter how
//! worker threads interleave — so every failure path has a repeatable
//! tier-1 test instead of folklore:
//!
//! * **injected panics** ([`Fault::Panic`]) fire inside the worker's
//!   per-request unwind boundary, exercising panic isolation, scratch
//!   discard, and supervisor respawn;
//! * **artificial slowness** ([`Fault::Slow`]) stretches one chunk past
//!   its request's deadline, exercising cooperative cancellation and
//!   partial responses;
//! * **forced queue saturation** ([`ChaosSchedule::rejects_submission`])
//!   makes a submission fail with `QueueFull` regardless of actual
//!   occupancy, exercising backpressure handling in callers.
//!
//! Schedules come from an explicit [`ChaosScheduleBuilder`] (targeted
//! tests) or from [`ChaosSchedule::seeded`] (randomized-but-repeatable
//! sweeps: the same seed always yields the same schedule).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// One injected fault at a `(request, chunk)` coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic the worker at the top of this chunk.
    Panic,
    /// Sleep this long before evaluating the chunk.
    Slow(Duration),
}

/// An immutable, deterministic fault schedule (see module docs).
#[derive(Debug, Clone, Default)]
pub struct ChaosSchedule {
    panics: HashSet<(u64, usize)>,
    slowdowns: HashMap<(u64, usize), Duration>,
    rejects: HashSet<u64>,
}

impl ChaosSchedule {
    /// Starts building an explicit schedule.
    #[must_use]
    pub fn builder() -> ChaosScheduleBuilder {
        ChaosScheduleBuilder { schedule: Self::default() }
    }

    /// Generates a randomized schedule from `seed`: for every request
    /// `0..requests` the submission is rejected with probability
    /// `knobs.reject_per_mille`/1000, and every chunk `0..chunks` of an
    /// accepted request panics or slows with the respective
    /// probabilities (panic drawn first). Identical seeds and knobs
    /// yield identical schedules.
    #[must_use]
    pub fn seeded(seed: u64, knobs: &ChaosKnobs) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = Self::default();
        for seq in 0..knobs.requests {
            if rng.gen_range(0..1000u32) < knobs.reject_per_mille {
                schedule.rejects.insert(seq);
                continue;
            }
            for chunk in 0..knobs.chunks_per_request {
                if rng.gen_range(0..1000u32) < knobs.panic_per_mille {
                    schedule.panics.insert((seq, chunk));
                } else if rng.gen_range(0..1000u32) < knobs.slow_per_mille {
                    schedule.slowdowns.insert((seq, chunk), knobs.slow_duration);
                }
            }
        }
        schedule
    }

    /// The fault injected at `(seq, chunk)`, if any. A panic scheduled
    /// on the same coordinate as a slowdown wins.
    #[must_use]
    pub fn fault(&self, seq: u64, chunk: usize) -> Option<Fault> {
        if self.panics.contains(&(seq, chunk)) {
            return Some(Fault::Panic);
        }
        self.slowdowns.get(&(seq, chunk)).map(|&d| Fault::Slow(d))
    }

    /// Whether submission `seq` is forced to fail with `QueueFull`.
    #[must_use]
    pub fn rejects_submission(&self, seq: u64) -> bool {
        self.rejects.contains(&seq)
    }

    /// Number of scheduled panic coordinates.
    #[must_use]
    pub fn scheduled_panics(&self) -> usize {
        self.panics.len()
    }

    /// Number of scheduled slowdown coordinates.
    #[must_use]
    pub fn scheduled_slowdowns(&self) -> usize {
        self.slowdowns.len()
    }

    /// Number of scheduled submission rejections.
    #[must_use]
    pub fn scheduled_rejections(&self) -> usize {
        self.rejects.len()
    }
}

/// Probabilities and shape for [`ChaosSchedule::seeded`].
#[derive(Debug, Clone)]
pub struct ChaosKnobs {
    /// Submission sequence numbers covered: `0..requests`.
    pub requests: u64,
    /// Chunk indices covered per request: `0..chunks_per_request`.
    pub chunks_per_request: usize,
    /// Per-chunk panic probability, in 1/1000.
    pub panic_per_mille: u32,
    /// Per-chunk slowdown probability, in 1/1000.
    pub slow_per_mille: u32,
    /// Sleep injected by each scheduled slowdown.
    pub slow_duration: Duration,
    /// Per-request submission-rejection probability, in 1/1000.
    pub reject_per_mille: u32,
}

/// Builder for explicit, targeted [`ChaosSchedule`]s.
#[derive(Debug, Clone, Default)]
pub struct ChaosScheduleBuilder {
    schedule: ChaosSchedule,
}

impl ChaosScheduleBuilder {
    /// Panics the worker at the top of chunk `chunk` of request `seq`.
    #[must_use]
    pub fn panic_on(mut self, seq: u64, chunk: usize) -> Self {
        self.schedule.panics.insert((seq, chunk));
        self
    }

    /// Sleeps `delay` before evaluating chunk `chunk` of request `seq`.
    #[must_use]
    pub fn slow_on(mut self, seq: u64, chunk: usize, delay: Duration) -> Self {
        self.schedule.slowdowns.insert((seq, chunk), delay);
        self
    }

    /// Forces submission `seq` to fail with `QueueFull`.
    #[must_use]
    pub fn reject_submission(mut self, seq: u64) -> Self {
        self.schedule.rejects.insert(seq);
        self
    }

    /// Finishes the schedule.
    #[must_use]
    pub fn build(self) -> ChaosSchedule {
        self.schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_targets_exact_coordinates() {
        let schedule = ChaosSchedule::builder()
            .panic_on(2, 0)
            .slow_on(3, 1, Duration::from_millis(50))
            .reject_submission(5)
            .build();
        assert_eq!(schedule.fault(2, 0), Some(Fault::Panic));
        assert_eq!(schedule.fault(3, 1), Some(Fault::Slow(Duration::from_millis(50))));
        assert_eq!(schedule.fault(2, 1), None);
        assert!(schedule.rejects_submission(5));
        assert!(!schedule.rejects_submission(2));
    }

    #[test]
    fn panic_wins_over_slowdown_on_the_same_coordinate() {
        let schedule = ChaosSchedule::builder()
            .slow_on(1, 1, Duration::from_millis(10))
            .panic_on(1, 1)
            .build();
        assert_eq!(schedule.fault(1, 1), Some(Fault::Panic));
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_seed_sensitive() {
        let knobs = ChaosKnobs {
            requests: 64,
            chunks_per_request: 8,
            panic_per_mille: 100,
            slow_per_mille: 100,
            slow_duration: Duration::from_millis(1),
            reject_per_mille: 100,
        };
        let a = ChaosSchedule::seeded(7, &knobs);
        let b = ChaosSchedule::seeded(7, &knobs);
        assert_eq!(a.panics, b.panics);
        assert_eq!(a.slowdowns, b.slowdowns);
        assert_eq!(a.rejects, b.rejects);
        assert!(
            a.scheduled_panics() + a.scheduled_slowdowns() + a.scheduled_rejections() > 0,
            "with 10% rates over 64x8 coordinates the schedule cannot be empty"
        );
        let c = ChaosSchedule::seeded(8, &knobs);
        assert!(
            a.panics != c.panics || a.slowdowns != c.slowdowns || a.rejects != c.rejects,
            "different seeds must yield different schedules"
        );
    }
}
