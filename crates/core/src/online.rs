//! SDEM-ON: the online heuristic for general task models (paper §6).
//!
//! Whenever a task arrives, the algorithm (1) drops completed tasks,
//! (2) treats every unfinished task's *remaining* work as a fresh task
//! released now, (3) solves the resulting common-release instance optimally
//! (§4.1 / §4.2 / §7 depending on the platform), (4) reads off each task's
//! planned execution time `p_j` and *latest start* `d_j − p_j`, and
//! (5) keeps the memory (and cores) asleep until the earliest latest start,
//! at which point **all** current tasks begin executing. Postponing this way
//! maximizes the chance that future arrivals overlap the busy interval —
//! the core idea separating SDEM-ON from race-to-completion baselines.
//!
//! Preemption is allowed in the online model: a new arrival re-plans the
//! speeds of running tasks, so placements may carry several segments.
//!
//! **Deviation from the paper's experimental setup** (documented in
//! `DESIGN.md`): tasks are assigned to the lowest-indexed *free* core
//! rather than blindly round-robin, so the produced schedule is always
//! per-core exclusive. The pool grows on demand; callers enforcing the
//! paper's 8-core assumption can check [`sdem_types::Schedule::cores_used`].

use sdem_power::Platform;
use sdem_types::{
    CoreId, Placement, Schedule, Segment, Speed, Task, TaskId, TaskRow, TaskSet, TaskSoa, Time,
    Workspace,
};

use crate::{common_release, overhead, SdemError};

/// Which inner common-release solver SDEM-ON re-runs at each arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InnerSolver {
    /// The §4.1 scheme (`α = 0`).
    AlphaZero,
    /// The §4.2 scheme (`α ≠ 0`).
    AlphaNonzero,
    /// The §7 overhead-aware scheme.
    Overhead,
}

impl InnerSolver {
    /// The platform's solver: §7 when any break-even time is non-zero,
    /// else §4.2 when `α ≠ 0`, else §4.1.
    fn for_platform(platform: &Platform) -> Self {
        let has_overhead = platform.core().break_even().value() > 0.0
            || platform.memory().break_even().value() > 0.0;
        if has_overhead {
            Self::Overhead
        } else if platform.core().is_alpha_zero() {
            Self::AlphaZero
        } else {
            Self::AlphaNonzero
        }
    }
}

/// The unfinished tasks tracked by the scheduler, as parallel pooled
/// columns over the task set's SoA view (one row per live task, removed
/// in lockstep on completion):
///
/// * `idx[k]` — row in the [`TaskSoa`] (id, deadline, work lookups),
/// * `placements[k]` — the accumulating result (task, core, segments),
/// * `remaining[k]` — work left, in cycles,
/// * `plans[k]` — the current plan `(id, start, end, speed)`; a NaN start
///   marks "no plan" (the row form has no `Option`).
struct LiveLists {
    idx: Vec<usize>,
    placements: Vec<Placement>,
    remaining: Vec<f64>,
    plans: Vec<TaskRow>,
}

impl LiveLists {
    const NO_PLAN: f64 = f64::NAN;

    fn take(ws: &mut Workspace) -> Self {
        Self {
            idx: ws.take_usizes(),
            placements: ws.take_placements(),
            remaining: ws.take_f64s(),
            plans: ws.take_rows(),
        }
    }

    fn recycle(mut self, ws: &mut Workspace) {
        ws.recycle_rows(self.plans);
        ws.recycle_f64s(self.remaining);
        // Rows survive to here only on error paths; tear their segment
        // buffers down into the pool rather than dropping them.
        for placement in self.placements.drain(..) {
            ws.recycle_segments(placement.into_segments());
        }
        ws.recycle_placements(self.placements);
        ws.recycle_usizes(self.idx);
    }

    fn len(&self) -> usize {
        self.placements.len()
    }

    fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    fn push(&mut self, soa_index: usize, placement: Placement, remaining: f64) {
        let id = placement.task();
        self.idx.push(soa_index);
        self.placements.push(placement);
        self.remaining.push(remaining);
        self.plans.push((id, Self::NO_PLAN, 0.0, 0.0));
    }

    /// Removes row `k` preserving order (completion order feeds the
    /// finished-placement order, which downstream meters sum in).
    fn remove(&mut self, k: usize) -> Placement {
        self.idx.remove(k);
        self.remaining.remove(k);
        self.plans.remove(k);
        self.placements.remove(k)
    }
}

/// Runs SDEM-ON over a general task set, producing the explicit schedule.
///
/// Arrivals are processed in release order; the returned schedule contains
/// one (possibly multi-segment) placement per task and validates against
/// the task set and the platform's maximum speed. Scratch buffers and the
/// returned schedule's arenas are drawn from `ws`.
///
/// # Errors
///
/// [`SdemError::InfeasibleTask`] if some (remaining) task cannot meet its
/// deadline at `s_up`.
///
/// # Examples
///
/// ```
/// use sdem_core::online::schedule_online_in;
/// use sdem_power::Platform;
/// use sdem_types::{Task, TaskSet, Time, Cycles, Workspace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::paper_defaults();
/// let tasks = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_millis(60.0), Cycles::new(1.0e7)),
///     Task::new(1, Time::from_millis(15.0), Time::from_millis(100.0), Cycles::new(2.0e7)),
/// ])?;
/// let schedule = schedule_online_in(&tasks, &platform, &mut Workspace::new())?;
/// schedule.validate(&tasks)?;
/// # Ok(())
/// # }
/// ```
pub fn schedule_online_in(
    tasks: &TaskSet,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<Schedule, SdemError> {
    schedule_online_impl(tasks, platform, None, ws)
}

/// Bounded-core SDEM-ON: like [`schedule_online_in`] but never uses more
/// than `max_cores` cores. An arrival finding every core claimed *waits*;
/// each time a core frees, the waiting task with the earliest deadline is
/// admitted and the common-release plan is recomputed. A waiting task's
/// window shrinks while it queues, so overload can make the instance
/// infeasible — exactly the burst failure mode §3 of the paper argues any
/// bounded real-time system exhibits.
///
/// With `max_cores ≥ tasks.len()` this is identical to the unbounded
/// heuristic.
///
/// # Errors
///
/// [`SdemError::NoCores`] if `max_cores == 0`;
/// [`SdemError::InfeasibleTask`] when a (possibly queued) task can no
/// longer meet its deadline at `s_up`.
///
/// # Examples
///
/// ```
/// use sdem_core::online::schedule_online_bounded_in;
/// use sdem_power::Platform;
/// use sdem_types::{Task, TaskSet, Time, Cycles, Workspace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::paper_defaults();
/// let tasks = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_millis(60.0), Cycles::new(1.0e7)),
///     Task::new(1, Time::ZERO, Time::from_millis(90.0), Cycles::new(1.2e7)),
///     Task::new(2, Time::ZERO, Time::from_millis(120.0), Cycles::new(8.0e6)),
/// ])?;
/// let schedule = schedule_online_bounded_in(&tasks, &platform, 2, &mut Workspace::new())?;
/// schedule.validate(&tasks)?;
/// assert!(schedule.cores_used() <= 2);
/// # Ok(())
/// # }
/// ```
pub fn schedule_online_bounded_in(
    tasks: &TaskSet,
    platform: &Platform,
    max_cores: usize,
    ws: &mut Workspace,
) -> Result<Schedule, SdemError> {
    if max_cores == 0 {
        return Err(SdemError::NoCores);
    }
    schedule_online_impl(tasks, platform, Some(max_cores), ws)
}

fn schedule_online_impl(
    tasks: &TaskSet,
    platform: &Platform,
    max_cores: Option<usize>,
    ws: &mut Workspace,
) -> Result<Schedule, SdemError> {
    let solver = InnerSolver::for_platform(platform);
    // SoA hot view: the event loop only ever reads one column at a time
    // (releases for the arrival scan, deadlines for admission order), and
    // live/waiting become index vectors over it.
    let mut soa = ws.take_soa();
    tasks.fill_soa(&mut soa);
    let mut order = ws.take_usizes();
    soa.arrival_order_into(&mut order);
    let mut finished: Vec<Placement> = ws.take_placements();
    finished.reserve(tasks.len());
    let mut live = LiveLists::take(ws);
    let mut cores_busy: Vec<bool> = ws.take_bools();
    // Tasks that arrived but found no free core (bounded mode only), as
    // SoA row indices.
    let mut waiting: Vec<usize> = ws.take_usizes();

    let mut i = 0;
    let mut now = order.first().map(|&j| soa.releases[j]).unwrap_or(0.0);
    let result = 'run: loop {
        // Next event: the next arrival, or — while tasks wait for a core —
        // the earliest planned completion.
        let next_arrival = order.get(i).map(|&j| soa.releases[j]);
        let next_completion = if waiting.is_empty() {
            None
        } else {
            live.plans
                .iter()
                .filter(|p| !p.1.is_nan())
                .map(|p| p.2)
                .min_by(f64::total_cmp)
        };
        now = match (next_arrival, next_completion) {
            (Some(a), Some(c)) => a.min(c),
            (Some(a), None) => a,
            (None, Some(c)) => c,
            (None, None) => break 'run Ok(()),
        }
        .max(now);

        // Advance existing plans up to the event (frees cores).
        advance(&mut live, &mut finished, &mut cores_busy, now);

        // Admit every task arriving exactly now.
        while i < order.len() && soa.releases[order[i]] <= now + 1e-15 {
            let j = order[i];
            i += 1;
            if !soa.flags[j] {
                // Zero-work tasks never execute: no core contention.
                finished.push(Placement::new(
                    TaskId(soa.ids[j]),
                    CoreId(0),
                    ws.take_segments(),
                ));
                continue;
            }
            waiting.push(j);
        }

        // Order waiting tasks earliest deadline first. The keyed argsort
        // (deadline, queue position) reproduces the stable sort without
        // its merge-buffer allocation.
        let mut keyed = ws.take_keyed();
        keyed.extend(
            waiting
                .iter()
                .enumerate()
                .map(|(pos, &j)| (soa.deadlines[j], pos)),
        );
        keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut scratch = ws.take_usizes();
        scratch.extend(keyed.iter().map(|&(_, pos)| waiting[pos]));
        core::mem::swap(&mut waiting, &mut scratch);
        ws.recycle_usizes(scratch);
        ws.recycle_keyed(keyed);

        // Move waiting tasks onto free cores.
        while !waiting.is_empty() {
            let pool_full = match max_cores {
                Some(c) => cores_busy.iter().filter(|&&b| b).count() >= c,
                None => false,
            };
            if pool_full {
                break;
            }
            let j = waiting.remove(0);
            let remaining = soa.works[j];
            // A queued task whose window closed is a hard failure.
            if soa.deadlines[j] <= now && remaining > 0.0 {
                break 'run Err(SdemError::InfeasibleTask(TaskId(soa.ids[j])));
            }
            let core = alloc_core(&mut cores_busy);
            live.push(
                j,
                Placement::new(TaskId(soa.ids[j]), CoreId(core), ws.take_segments()),
                remaining,
            );
        }

        if let Err(e) = replan(&mut live, &soa, platform, solver, Time::from_secs(now), ws) {
            break 'run Err(e);
        }
    };
    if result.is_ok() {
        // No more events: run every remaining plan to completion.
        advance(&mut live, &mut finished, &mut cores_busy, f64::INFINITY);
        debug_assert!(live.is_empty(), "all tasks must complete");
        debug_assert!(waiting.is_empty(), "no task may be left waiting");
    }
    ws.recycle_usizes(waiting);
    ws.recycle_bools(cores_busy);
    live.recycle(ws);
    ws.recycle_usizes(order);
    ws.recycle_soa(soa);
    match result {
        Ok(()) => Ok(Schedule::new(finished)),
        Err(e) => {
            // Error path: tear the partial schedule back down so even a
            // quarantined trial leaves the workspace warm.
            for placement in finished.drain(..) {
                ws.recycle_segments(placement.into_segments());
            }
            ws.recycle_placements(finished);
            Err(e)
        }
    }
}

/// Allocates the lowest-indexed free core.
fn alloc_core(cores: &mut Vec<bool>) -> usize {
    if let Some(idx) = cores.iter().position(|&b| !b) {
        cores[idx] = true;
        idx
    } else {
        cores.push(true);
        cores.len() - 1
    }
}

/// Executes current plans up to `until` (absolute seconds): extends
/// segments, reduces remaining work, finalizes completed tasks.
fn advance(live: &mut LiveLists, finished: &mut Vec<Placement>, cores: &mut [bool], until: f64) {
    let mut k = 0;
    while k < live.len() {
        let (_, start, end, speed) = live.plans[k];
        if !start.is_nan() {
            let run_end = end.min(until);
            if run_end > start {
                live.placements[k].push_segment(Segment::new(
                    Time::from_secs(start),
                    Time::from_secs(run_end),
                    Speed::from_hz(speed),
                ));
                live.remaining[k] -= speed * (run_end - start);
            }
            if end <= until || live.remaining[k] <= 1e-6 * live.remaining[k].abs().max(1.0) {
                // Completed: emit the placement and free the core.
                let done = live.remove(k);
                cores[done.core().0] = false;
                finished.push(done);
                continue;
            }
            live.plans[k].1 = LiveLists::NO_PLAN;
        }
        k += 1;
    }
}

/// Re-solves the common-release instance at `now` and installs fresh plans.
fn replan(
    live: &mut LiveLists,
    soa: &TaskSoa,
    platform: &Platform,
    solver: InnerSolver,
    now: Time,
    ws: &mut Workspace,
) -> Result<(), SdemError> {
    if live.is_empty() {
        return Ok(());
    }
    // Fresh common-release instance from the remaining work; the task
    // vector is recycled after the solve.
    let mut roster = ws.take_tasks();
    roster.extend(
        live.idx
            .iter()
            .zip(live.remaining.iter())
            .map(|(&j, &rem)| {
                Task::new(
                    soa.ids[j],
                    now,
                    Time::from_secs(soa.deadlines[j]),
                    sdem_types::Cycles::new(rem.max(0.0)),
                )
            }),
    );
    let instance = TaskSet::new_in(roster, ws).expect("live tasks have positive windows");

    let solution = match solver {
        InnerSolver::AlphaZero => common_release::schedule_alpha_zero_in(&instance, platform, ws)?,
        InnerSolver::AlphaNonzero => {
            common_release::schedule_alpha_nonzero_in(&instance, platform, ws)?
        }
        InnerSolver::Overhead => overhead::schedule_common_release_in(&instance, platform, ws)?,
    };

    // Latest start per task; the block wakes at the earliest of them.
    let mut wake = f64::INFINITY;
    let mut exec: Vec<f64> = ws.take_f64s();
    for (k, &j) in live.idx.iter().enumerate() {
        let p_j = solution
            .schedule()
            .placement(live.plans[k].0)
            .map(|p| p.busy_time().as_secs())
            .unwrap_or(0.0);
        exec.push(p_j);
        if p_j > 0.0 {
            wake = wake.min(soa.deadlines[j] - p_j);
        }
    }
    let wake = wake.max(now.as_secs());
    for (k, &p_j) in exec.iter().enumerate() {
        if p_j > 0.0 {
            live.plans[k] = (live.plans[k].0, wake, wake + p_j, live.remaining[k] / p_j);
        }
    }
    ws.recycle_f64s(exec);
    ws.recycle_schedule(solution.into_schedule());
    ws.recycle_tasks(instance.into_tasks());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_power::{CorePower, MemoryPower};
    use sdem_sim::{simulate, SleepPolicy};
    use sdem_types::{Cycles, Watts};

    fn sec(v: f64) -> Time {
        Time::from_secs(v)
    }

    fn platform(alpha: f64, alpha_m: f64) -> Platform {
        Platform::new(
            CorePower::simple(alpha, 1.0, 3.0),
            MemoryPower::new(Watts::new(alpha_m)),
        )
    }

    fn tset(specs: &[(f64, f64, f64)]) -> TaskSet {
        TaskSet::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(r, d, w))| Task::new(i, sec(r), sec(d), Cycles::new(w)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn single_task_matches_offline_optimum() {
        let p = platform(0.0, 4.0);
        let tasks = tset(&[(0.0, 10.0, 2.0)]);
        let sched = schedule_online_in(&tasks, &p, &mut Workspace::new()).unwrap();
        sched.validate(&tasks).unwrap();
        let online_e = simulate(&sched, &tasks, &p, SleepPolicy::WhenProfitable)
            .unwrap()
            .total();
        let offline =
            common_release::schedule_alpha_zero_in(&tasks, &p, &mut Workspace::new()).unwrap();
        assert!(
            (online_e.value() - offline.predicted_energy().value()).abs()
                < 1e-9 * offline.predicted_energy().value(),
            "online {online_e} vs offline {}",
            offline.predicted_energy()
        );
        // The single task is postponed: it should start strictly after 0.
        let pl = sched.placement(TaskId(0)).unwrap();
        assert!(pl.start().unwrap().as_secs() > 0.0);
    }

    #[test]
    fn common_release_instance_matches_offline() {
        // All tasks arrive together ⇒ one plan, never revised.
        let p = platform(0.0, 4.0);
        let tasks = tset(&[(0.0, 5.0, 1.0), (0.0, 9.0, 2.0), (0.0, 12.0, 1.5)]);
        let sched = schedule_online_in(&tasks, &p, &mut Workspace::new()).unwrap();
        sched.validate(&tasks).unwrap();
        let online_e = simulate(&sched, &tasks, &p, SleepPolicy::WhenProfitable)
            .unwrap()
            .total()
            .value();
        let offline = common_release::schedule_alpha_zero_in(&tasks, &p, &mut Workspace::new())
            .unwrap()
            .predicted_energy()
            .value();
        assert!(
            (online_e - offline).abs() < 1e-6 * offline,
            "online {online_e} vs offline {offline}"
        );
    }

    #[test]
    fn staggered_arrivals_meet_deadlines() {
        let p = platform(4.0, 6.0);
        let tasks = tset(&[
            (0.0, 6.0, 2.0),
            (1.0, 9.0, 3.0),
            (2.5, 14.0, 1.5),
            (8.0, 20.0, 4.0),
            (8.0, 25.0, 2.0),
        ]);
        let sched = schedule_online_in(&tasks, &p, &mut Workspace::new()).unwrap();
        sched.validate(&tasks).unwrap();
    }

    #[test]
    fn tasks_on_free_cores_never_overlap() {
        let p = platform(0.0, 2.0);
        let tasks = tset(&[
            (0.0, 4.0, 2.0),
            (0.5, 6.0, 2.0),
            (1.0, 8.0, 2.0),
            (6.5, 12.0, 2.0),
        ]);
        let sched = schedule_online_in(&tasks, &p, &mut Workspace::new()).unwrap();
        sched.validate(&tasks).unwrap(); // validate() checks core exclusivity
    }

    #[test]
    fn postponement_merges_bursty_arrivals() {
        // Task A alone would run early; task B arrives shortly after.
        // SDEM-ON should overlap them into one memory busy window.
        let p = platform(0.0, 10.0);
        let tasks = tset(&[(0.0, 20.0, 1.0), (1.0, 20.0, 1.0)]);
        let sched = schedule_online_in(&tasks, &p, &mut Workspace::new()).unwrap();
        sched.validate(&tasks).unwrap();
        assert_eq!(
            sched.memory_busy_intervals().len(),
            1,
            "bursty arrivals should share one busy interval"
        );
    }

    #[test]
    fn respects_max_speed_under_pressure() {
        let core = CorePower::simple(0.0, 1.0, 3.0).with_max_speed(Speed::from_hz(2.0));
        let p = Platform::new(core, MemoryPower::new(Watts::new(100.0)));
        let tasks = tset(&[(0.0, 3.0, 4.0), (1.0, 6.0, 6.0)]);
        let sched = schedule_online_in(&tasks, &p, &mut Workspace::new()).unwrap();
        sched
            .validate_with_limits(&tasks, None, Some(Speed::from_hz(2.0)))
            .unwrap();
    }

    #[test]
    fn infeasible_remaining_work_is_reported() {
        let core = CorePower::simple(0.0, 1.0, 3.0).with_max_speed(Speed::from_hz(1.0));
        let p = Platform::new(core, MemoryPower::new(Watts::new(1.0)));
        let tasks = tset(&[(0.0, 2.0, 5.0)]);
        assert!(matches!(
            schedule_online_in(&tasks, &p, &mut Workspace::new()),
            Err(SdemError::InfeasibleTask(_))
        ));
    }

    #[test]
    fn zero_work_tasks_complete_instantly() {
        let p = platform(0.0, 1.0);
        let tasks = tset(&[(0.0, 5.0, 0.0), (0.0, 5.0, 1.0)]);
        let sched = schedule_online_in(&tasks, &p, &mut Workspace::new()).unwrap();
        sched.validate(&tasks).unwrap();
        assert!(sched.placement(TaskId(0)).unwrap().segments().is_empty());
    }

    #[test]
    fn overhead_solver_is_selected_automatically() {
        let mem = MemoryPower::new(Watts::new(4.0)).with_break_even(sec(0.5));
        let p = Platform::new(CorePower::simple(1.0, 1.0, 3.0), mem);
        assert_eq!(InnerSolver::for_platform(&p), InnerSolver::Overhead);
        let p0 = platform(0.0, 4.0);
        assert_eq!(InnerSolver::for_platform(&p0), InnerSolver::AlphaZero);
        let p1 = platform(2.0, 4.0);
        assert_eq!(InnerSolver::for_platform(&p1), InnerSolver::AlphaNonzero);
        // And it runs end-to-end.
        let tasks = tset(&[(0.0, 6.0, 2.0), (1.0, 9.0, 3.0)]);
        let sched = schedule_online_in(&tasks, &p, &mut Workspace::new()).unwrap();
        sched.validate(&tasks).unwrap();
    }

    #[test]
    fn bounded_respects_core_cap_and_matches_unbounded_when_loose() {
        let p = platform(4.0, 6.0);
        let tasks = tset(&[
            (0.0, 6.0, 2.0),
            (0.0, 9.0, 3.0),
            (0.5, 14.0, 1.5),
            (1.0, 20.0, 4.0),
        ]);
        // Loose cap: identical to the unbounded heuristic.
        let unbounded = schedule_online_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let loose = schedule_online_bounded_in(&tasks, &p, 16, &mut Workspace::new()).unwrap();
        let e = |s: &Schedule| {
            sdem_sim::simulate(s, &tasks, &p, sdem_sim::SleepPolicy::WhenProfitable)
                .unwrap()
                .total()
                .value()
        };
        assert!((e(&unbounded) - e(&loose)).abs() <= 1e-9 * e(&unbounded));

        // Tight cap: still valid, never more than 2 cores.
        let tight = schedule_online_bounded_in(&tasks, &p, 2, &mut Workspace::new()).unwrap();
        tight.validate(&tasks).unwrap();
        assert!(tight.cores_used() <= 2, "used {} cores", tight.cores_used());
    }

    #[test]
    fn bounded_single_core_serializes_execution() {
        let p = platform(0.0, 2.0);
        let tasks = tset(&[(0.0, 10.0, 2.0), (0.0, 20.0, 2.0), (0.0, 30.0, 2.0)]);
        let sched = schedule_online_bounded_in(&tasks, &p, 1, &mut Workspace::new()).unwrap();
        sched.validate(&tasks).unwrap(); // per-core exclusivity included
        assert_eq!(sched.cores_used(), 1);
    }

    #[test]
    fn bounded_overload_is_reported_infeasible() {
        // Three same-deadline tasks, each needing half the window at s_up,
        // on one core: the third cannot fit.
        let core = CorePower::simple(0.0, 1.0, 3.0).with_max_speed(Speed::from_hz(1.0));
        let p = Platform::new(core, MemoryPower::new(Watts::new(1.0)));
        let tasks = tset(&[(0.0, 2.0, 1.0), (0.0, 2.0, 1.0), (0.0, 2.0, 1.0)]);
        assert!(schedule_online_bounded_in(&tasks, &p, 3, &mut Workspace::new()).is_ok());
        assert!(matches!(
            schedule_online_bounded_in(&tasks, &p, 2, &mut Workspace::new()),
            Err(SdemError::InfeasibleTask(_))
        ));
        assert_eq!(
            schedule_online_bounded_in(&tasks, &p, 0, &mut Workspace::new()),
            Err(SdemError::NoCores)
        );
    }

    #[test]
    fn preempted_tasks_carry_multiple_segments() {
        // With α_m = 2, task A's solo plan starts at ~0.1 and runs to its
        // deadline; task B arrives mid-flight at t = 1 and forces a replan,
        // so A's placement carries at least two segments.
        let p = platform(0.0, 2.0);
        let tasks = tset(&[(0.0, 2.0, 1.9), (1.0, 30.0, 1.0)]);
        let sched = schedule_online_in(&tasks, &p, &mut Workspace::new()).unwrap();
        sched.validate(&tasks).unwrap();
        assert!(
            sched.placement(TaskId(0)).unwrap().segments().len() >= 2,
            "expected a mid-flight replan to split task 0's execution"
        );
    }
}
