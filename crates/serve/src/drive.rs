//! The one in-process serving driver: every experiment cell that serves a
//! [`WorkloadGen`] through a [`PolicyDecisionService`] in process (E13,
//! E15, E16, E17's reference run, the CLI) runs it through
//! [`run_to_completion`], so they all stop by the same rule.

use apdm_ledger::SegmentedRecorder;
use apdm_par::WatchdogTrip;

use crate::request::Decision;
use crate::service::PolicyDecisionService;
use crate::workload::{WorkloadGen, WorkloadOracle};

/// What [`run_to_completion`] drove.
#[derive(Debug)]
pub struct Completion {
    /// Every decision rendered from the start tick on, in the order the
    /// service returned them (submit-time sheds interleaved in submit
    /// order).
    pub decisions: Vec<Decision>,
    /// The last tick driven, which the caller passes to
    /// [`PolicyDecisionService::finish_segmented`]. On a watchdog trip
    /// this is `max_ticks + 1`, the tick that was refused.
    pub final_tick: u64,
    /// Set when the run reached `max_ticks` with work left: the queue had
    /// not drained, and the tick past the bound was not run.
    pub watchdog: Option<WatchdogTrip>,
}

/// Drive a service from tick `start` until the generator's arrival window
/// (`gen.spec().arrival_ticks`) has passed and the queue is empty. Each
/// tick submits the generator's arrivals, then runs the service tick; then
/// `after_tick` observes the recorder (the E16 golden run persists to its
/// [`SimDisk`](crate::SimDisk) there).
///
/// The completion check runs *before* each tick, and depends only on
/// service state, so a run resumed from a checkpoint stops at exactly the
/// tick the uninterrupted run stops at: a checkpoint taken by a rotation
/// on the final tick restores to an already complete state, and must not
/// replay an extra empty tick.
///
/// `max_ticks` is an absolute tick bound, not a count from `start`: a tick
/// past it is never run, and the run returns with
/// [`watchdog`](Completion::watchdog) set instead.
pub fn run_to_completion(
    svc: &mut PolicyDecisionService<WorkloadOracle>,
    gen: &mut WorkloadGen,
    start: u64,
    max_ticks: u64,
    mut after_tick: impl FnMut(u64, &SegmentedRecorder),
) -> Completion {
    let arrival_ticks = gen.spec().arrival_ticks;
    let mut decisions = Vec::new();
    let mut now = start.saturating_sub(1);
    while now < arrival_ticks || svc.queue_depth() > 0 {
        now += 1;
        if now > max_ticks {
            return Completion {
                decisions,
                final_tick: now,
                watchdog: Some(WatchdogTrip { budget: max_ticks }),
            };
        }
        for req in gen.tick_requests(now) {
            if let Some(d) = svc.submit(req, now) {
                decisions.push(d);
            }
        }
        decisions.extend(svc.tick(now));
        after_tick(now, svc.recorder());
    }
    Completion {
        decisions,
        final_tick: now,
        watchdog: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use crate::workload::{standard_stacks, WorkloadSpec};

    fn service() -> PolicyDecisionService<WorkloadOracle> {
        let cfg = ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        };
        PolicyDecisionService::new(cfg, standard_stacks(2, true), WorkloadOracle, "drive")
    }

    fn workload(per_tick: usize) -> WorkloadGen {
        WorkloadGen::new(WorkloadSpec {
            per_tick,
            arrival_ticks: 6,
            ..WorkloadSpec::default()
        })
    }

    #[test]
    fn a_run_that_cannot_drain_stops_at_the_bound() {
        let (mut svc, mut gen) = (service(), workload(200));
        let mut ticks = Vec::new();
        let run = run_to_completion(&mut svc, &mut gen, 1, 4, |now, _| ticks.push(now));
        assert_eq!(run.watchdog, Some(WatchdogTrip { budget: 4 }));
        assert_eq!(run.final_tick, 5, "the refused tick");
        assert_eq!(ticks, [1, 2, 3, 4], "no tick past the bound runs");
    }

    #[test]
    fn the_completion_check_runs_before_each_tick() {
        // A service that is already complete at `start` runs no tick: the
        // run ends where it began.
        let (mut svc, mut gen) = (service(), workload(4));
        let mut ticks = 0;
        let run = run_to_completion(&mut svc, &mut gen, 7, 100, |_, _| ticks += 1);
        assert_eq!((ticks, run.final_tick), (0, 6));
        assert!(run.decisions.is_empty());
    }
}
