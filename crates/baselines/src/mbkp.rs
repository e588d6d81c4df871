//! MBKP: the paper's multi-core DVS baseline (after Albers, Müller and
//! Schmelzer, SPAA 2007).
//!
//! Tasks are assigned to cores in arrival order — round-robin, as in the
//! paper's experimental setup (§8.1.2), or to the least-loaded core — and
//! each core independently runs a DVS speed policy: *Optimal Available*
//! online (the evaluated configuration) or YDS offline. MBKP never sleeps
//! the memory; **MBKPS** is the identical schedule priced with the naive
//! always-sleep memory policy (`SleepPolicy::AlwaysSleep` in `sdem-sim`).

use sdem_power::Platform;
use sdem_types::{CoreId, Schedule, TaskId, TaskSet, Workspace};

use crate::job::{Job, Run};
use crate::oa::oa_runs_in;
use crate::yds::{assemble_in, clamp_to_min_speed, to_job, yds_runs_in};
use crate::BaselineError;

/// How arriving tasks are distributed over the cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Assignment {
    /// Task `k` (in arrival order) goes to core `k mod C` — the paper's
    /// experimental setup.
    #[default]
    RoundRobin,
    /// Each task goes to the core with the least total work assigned so
    /// far (a common practical variant; used as an ablation).
    LeastLoaded,
}

/// Computes the per-task core assignment in arrival order.
///
/// # Panics
///
/// Panics if `cores == 0` (public drivers guard this).
pub fn assign(tasks: &TaskSet, cores: usize, policy: Assignment) -> Vec<(TaskId, CoreId)> {
    assert!(cores > 0, "cores must be positive");
    let mut ws = Workspace::new();
    let mut arrivals = Vec::new();
    let mut core_of = Vec::new();
    assign_into(tasks, cores, policy, &mut ws, &mut arrivals, &mut core_of);
    arrivals
        .into_iter()
        .map(|i| (tasks.tasks()[i].id(), CoreId(core_of[i])))
        .collect()
}

/// Pooled assignment: fills `arrivals` with the task-set indices in
/// arrival order and `core_of` with each task's core, by task-set index,
/// drawing scratch from `ws`.
fn assign_into(
    tasks: &TaskSet,
    cores: usize,
    policy: Assignment,
    ws: &mut Workspace,
    arrivals: &mut Vec<usize>,
    core_of: &mut Vec<usize>,
) {
    let mut soa = ws.take_soa();
    tasks.fill_soa(&mut soa);
    soa.arrival_order_into(arrivals);
    core_of.clear();
    core_of.resize(soa.len(), 0);
    let mut loads = ws.take_f64s();
    loads.resize(cores, 0.0);
    for (k, &i) in arrivals.iter().enumerate() {
        let core = match policy {
            Assignment::RoundRobin => k % cores,
            Assignment::LeastLoaded => loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .expect("cores > 0"),
        };
        loads[core] += soa.works[i];
        core_of[i] = core;
    }
    ws.recycle_soa(soa);
    ws.recycle_f64s(loads);
}

/// Online MBKP: arrival-order assignment + per-core Optimal Available.
///
/// # Errors
///
/// [`BaselineError::NoCores`] if `cores == 0`;
/// [`BaselineError::Infeasible`] when some core's OA plan exceeds `s_up`
/// under this assignment.
///
/// # Examples
///
/// ```
/// use sdem_baselines::mbkp::{schedule_online, Assignment};
/// use sdem_power::Platform;
/// use sdem_types::{Task, TaskSet, Time, Cycles};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::paper_defaults();
/// let tasks = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_millis(60.0), Cycles::new(1.5e7)),
///     Task::new(1, Time::from_millis(5.0), Time::from_millis(90.0), Cycles::new(2.0e7)),
///     Task::new(2, Time::from_millis(30.0), Time::from_millis(140.0), Cycles::new(1.0e7)),
/// ])?;
/// let schedule = schedule_online(&tasks, &platform, 8, Assignment::RoundRobin)?;
/// schedule.validate(&tasks)?;
/// # Ok(())
/// # }
/// ```
pub fn schedule_online(
    tasks: &TaskSet,
    platform: &Platform,
    cores: usize,
    policy: Assignment,
) -> Result<Schedule, BaselineError> {
    schedule_online_in(tasks, platform, cores, policy, &mut Workspace::new())
}

/// [`schedule_online`] drawing every scratch buffer — and the returned
/// schedule's own placement/segment storage — from `ws`. Recycle the
/// schedule with [`Workspace::recycle_schedule`] to keep the next trial
/// allocation-free.
pub fn schedule_online_in(
    tasks: &TaskSet,
    platform: &Platform,
    cores: usize,
    policy: Assignment,
    ws: &mut Workspace,
) -> Result<Schedule, BaselineError> {
    schedule_with_in(tasks, platform, cores, policy, ws, oa_runs_in)
}

/// Offline MBKP: arrival-order assignment + per-core YDS. A clairvoyant
/// upper bound on the online variant's quality; used by ablation benches.
///
/// # Errors
///
/// Same as [`schedule_online`].
pub fn schedule_offline(
    tasks: &TaskSet,
    platform: &Platform,
    cores: usize,
    policy: Assignment,
) -> Result<Schedule, BaselineError> {
    schedule_offline_in(tasks, platform, cores, policy, &mut Workspace::new())
}

/// [`schedule_offline`] drawing every scratch buffer from `ws`.
pub fn schedule_offline_in(
    tasks: &TaskSet,
    platform: &Platform,
    cores: usize,
    policy: Assignment,
    ws: &mut Workspace,
) -> Result<Schedule, BaselineError> {
    schedule_with_in(tasks, platform, cores, policy, ws, yds_runs_in)
}

fn schedule_with_in(
    tasks: &TaskSet,
    platform: &Platform,
    cores: usize,
    policy: Assignment,
    ws: &mut Workspace,
    per_core: impl Fn(&[Job], &mut Workspace, &mut Vec<Run>),
) -> Result<Schedule, BaselineError> {
    if cores == 0 {
        return Err(BaselineError::NoCores);
    }
    // Arrival-order assignment never uses more cores than tasks, so a
    // larger budget changes no output, only the per-core scratch.
    let cores = cores.min(tasks.len());
    let mut arrivals = ws.take_usizes();
    let mut core_of = ws.take_usizes();
    assign_into(tasks, cores, policy, ws, &mut arrivals, &mut core_of);

    let s_up = platform.core().max_speed().as_hz();
    let mut all_runs = ws.take_rows();
    let mut jobs = ws.take_rows();
    let mut runs = ws.take_rows();
    let mut failed: Option<TaskId> = None;
    for c in 0..cores {
        // Per-core job lists in *task-set construction order* — the
        // order the per-core policies tie-break on.
        jobs.clear();
        jobs.extend(
            tasks
                .iter()
                .zip(&core_of)
                .filter(|&(_, &k)| k == c)
                .map(|(t, _)| to_job(t)),
        );
        if jobs.is_empty() {
            continue;
        }
        per_core(&jobs, ws, &mut runs);
        clamp_to_min_speed(&mut runs, platform);
        if let Some(r) = runs.iter().find(|r| r.3 > s_up * (1.0 + 1e-9)) {
            failed = Some(r.0);
            break;
        }
        all_runs.extend_from_slice(&runs);
    }
    let result = match failed {
        Some(id) => Err(BaselineError::Infeasible(id)),
        None => Ok(assemble_in(tasks, &all_runs, |i| CoreId(core_of[i]), ws)),
    };
    ws.recycle_rows(runs);
    ws.recycle_rows(jobs);
    ws.recycle_rows(all_runs);
    ws.recycle_usizes(core_of);
    ws.recycle_usizes(arrivals);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_power::{CorePower, MemoryPower};
    use sdem_sim::{simulate, SleepPolicy};
    use sdem_types::{Cycles, Task, Time, Watts};

    fn sec(v: f64) -> Time {
        Time::from_secs(v)
    }

    fn platform(alpha_m: f64) -> Platform {
        Platform::new(
            CorePower::simple(0.0, 1.0, 3.0),
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
    fn round_robin_cycles_cores() {
        let tasks = tset(&[
            (0.0, 9.0, 1.0),
            (1.0, 9.0, 1.0),
            (2.0, 9.0, 1.0),
            (3.0, 19.0, 1.0),
        ]);
        let a = assign(&tasks, 3, Assignment::RoundRobin);
        let cores: Vec<usize> = a.iter().map(|(_, c)| c.0).collect();
        assert_eq!(cores, vec![0, 1, 2, 0]);
    }

    #[test]
    fn least_loaded_balances_work() {
        let tasks = tset(&[(0.0, 9.0, 5.0), (1.0, 9.0, 1.0), (2.0, 9.0, 1.0)]);
        let a = assign(&tasks, 2, Assignment::LeastLoaded);
        // 5 → core 0; 1 → core 1; 1 → core 1 (load 1 < 5).
        let cores: Vec<usize> = a.iter().map(|(_, c)| c.0).collect();
        assert_eq!(cores, vec![0, 1, 1]);
    }

    #[test]
    fn online_schedule_is_valid_and_per_core_exclusive() {
        let p = platform(4.0);
        let tasks = tset(&[
            (0.0, 10.0, 2.0),
            (1.0, 12.0, 3.0),
            (2.0, 14.0, 1.0),
            (8.0, 22.0, 2.5),
            (9.0, 25.0, 1.5),
        ]);
        let sched = schedule_online(&tasks, &p, 2, Assignment::RoundRobin).unwrap();
        sched.validate(&tasks).unwrap();
        assert!(sched.cores_used() <= 2);
    }

    #[test]
    fn offline_never_worse_than_online_on_core_energy() {
        let p = platform(0.0);
        let tasks = tset(&[(0.0, 10.0, 1.0), (6.0, 10.0, 4.0), (7.0, 18.0, 2.0)]);
        let on = schedule_online(&tasks, &p, 1, Assignment::RoundRobin).unwrap();
        let off = schedule_offline(&tasks, &p, 1, Assignment::RoundRobin).unwrap();
        let e_on = simulate(&on, &tasks, &p, SleepPolicy::NeverSleep)
            .unwrap()
            .core_dynamic
            .value();
        let e_off = simulate(&off, &tasks, &p, SleepPolicy::NeverSleep)
            .unwrap()
            .core_dynamic
            .value();
        assert!(e_off <= e_on * (1.0 + 1e-9));
    }

    #[test]
    fn mbkps_saves_memory_energy_over_mbkp() {
        // Two far-apart tasks on one core: MBKP idles the memory awake
        // through the gap, MBKPS sleeps it (ξ_m = 0 here, so sleeping wins).
        let p = platform(4.0);
        let tasks = tset(&[(0.0, 2.0, 1.0), (50.0, 52.0, 1.0)]);
        let sched = schedule_online(&tasks, &p, 1, Assignment::RoundRobin).unwrap();
        let mbkp = simulate(&sched, &tasks, &p, SleepPolicy::NeverSleep).unwrap();
        let mbkps = simulate(&sched, &tasks, &p, SleepPolicy::AlwaysSleep).unwrap();
        assert!(
            mbkps.memory_total().value() < mbkp.memory_total().value(),
            "MBKPS {} should beat MBKP {}",
            mbkps.memory_total(),
            mbkp.memory_total()
        );
    }

    #[test]
    fn naive_sleep_can_lose_with_transition_overhead() {
        // Short gap + large ξ_m: AlwaysSleep pays a round trip dearer than
        // idling — exactly why MBKPS underperforms SDEM-ON at high load.
        let mem = MemoryPower::new(Watts::new(4.0)).with_break_even(sec(10.0));
        let p = Platform::new(CorePower::simple(0.0, 1.0, 3.0), mem);
        let tasks = tset(&[(0.0, 2.0, 1.0), (3.0, 6.0, 1.0)]);
        let sched = schedule_online(&tasks, &p, 1, Assignment::RoundRobin).unwrap();
        let naive = simulate(&sched, &tasks, &p, SleepPolicy::AlwaysSleep).unwrap();
        let smart = simulate(&sched, &tasks, &p, SleepPolicy::WhenProfitable).unwrap();
        assert!(
            naive.memory_total().value() > smart.memory_total().value(),
            "always-sleep {} should lose to when-profitable {}",
            naive.memory_total(),
            smart.memory_total()
        );
    }

    #[test]
    fn zero_cores_rejected() {
        let p = platform(1.0);
        let tasks = tset(&[(0.0, 5.0, 1.0)]);
        assert_eq!(
            schedule_online(&tasks, &p, 0, Assignment::RoundRobin),
            Err(BaselineError::NoCores)
        );
    }

    #[test]
    fn bad_assignment_detected_as_infeasible() {
        let core = CorePower::simple(0.0, 1.0, 3.0).with_max_speed(sdem_types::Speed::from_hz(1.0));
        let p = Platform::new(core, MemoryPower::new(Watts::new(1.0)));
        // Two dense tasks on one core: infeasible; on two cores: fine.
        let tasks = tset(&[(0.0, 2.0, 1.5), (0.0, 2.0, 1.5)]);
        assert!(matches!(
            schedule_online(&tasks, &p, 1, Assignment::RoundRobin),
            Err(BaselineError::Infeasible(_))
        ));
        assert!(schedule_online(&tasks, &p, 2, Assignment::RoundRobin).is_ok());
    }
}
