//! Event-driven reference simulator.
//!
//! Replays a schedule chronologically: every segment boundary is an event,
//! and between consecutive events every core and the memory is in a definite
//! state (`Busy`, `IdleAwake`, `Asleep`, or `Off`). Energy is integrated
//! slice by slice from the instantaneous power of each component, and sleep
//! round-trip overheads are charged per sleep episode.
//!
//! The states come from one chronological sweep ([`crate::timeline`]): the
//! runs of every core are tabled once with their dynamic power, and each
//! slice midpoint is classified by monotone cursors, one per core and one
//! for the memory. A call costs O(slices × cores) after an
//! O(segments · log segments) table build.
//!
//! This path exists as an independent cross-check of the closed-form meter
//! in [`crate::meter`]: the two must agree to floating-point tolerance on
//! every schedule (asserted by property tests). It never prices a gap in
//! closed form; it only integrates explicit per-component states.

use sdem_power::Platform;
use sdem_types::{Joules, Schedule, ScheduleError, TaskSet, Time, Workspace};

use crate::timeline::{State, Sweep};
use crate::{EnergyReport, SimOptions};

/// Event-driven counterpart of [`crate::simulate_with_options`].
///
/// Produces the same [`EnergyReport`] as the interval meter (up to
/// floating-point noise), computed by explicit chronological state sweeping.
///
/// # Errors
///
/// Returns [`ScheduleError`] when `options.validate` is set and the schedule
/// violates timing constraints or the platform's maximum speed.
///
/// # Examples
///
/// ```
/// use sdem_sim::{simulate_event_driven, SimOptions};
/// use sdem_power::Platform;
/// use sdem_types::{Task, TaskSet, Schedule, Placement, TaskId, CoreId, Time, Speed, Cycles};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::paper_defaults();
/// let tasks = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_millis(20.0), Cycles::new(8.0e6)),
/// ])?;
/// let schedule = Schedule::new(vec![Placement::single(
///     TaskId(0), CoreId(0), Time::ZERO, Time::from_millis(10.0), Speed::from_mhz(800.0),
/// )]);
/// let report = simulate_event_driven(&schedule, &tasks, &platform, SimOptions::default())?;
/// assert!(report.total().value() > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn simulate_event_driven(
    schedule: &Schedule,
    tasks: &TaskSet,
    platform: &Platform,
    options: SimOptions,
) -> Result<EnergyReport, ScheduleError> {
    simulate_event_driven_in(schedule, tasks, platform, options, &mut Workspace::new())
}

/// In-place [`simulate_event_driven`]: the validation scratch, the state
/// tables and the event list are drawn from `ws`, so a warmed workspace
/// makes the engine allocation-free.
///
/// # Errors
///
/// Same as [`simulate_event_driven`].
pub fn simulate_event_driven_in(
    schedule: &Schedule,
    tasks: &TaskSet,
    platform: &Platform,
    options: SimOptions,
    ws: &mut Workspace,
) -> Result<EnergyReport, ScheduleError> {
    if options.validate {
        schedule.validate_with_limits_in(tasks, None, Some(platform.core().max_speed()), ws)?;
    }

    let core_model = platform.core();
    let memory = platform.memory();
    let per_cycle = memory.access_energy_per_cycle();
    let mut report = EnergyReport::default();
    let mut sweep = Sweep::new_in(schedule, platform, options, ws);
    let (cores, mem) = (sweep.cores(), sweep.memory());

    // Event instants: every segment boundary (the memory's busy boundaries
    // are among them) plus the horizon.
    let mut events = ws.take_f64s();
    events.reserve(
        2 * schedule
            .placements()
            .iter()
            .map(|p| p.segments().len())
            .sum::<usize>()
            + 2,
    );
    for seg in schedule.placements().iter().flat_map(|p| p.segments()) {
        events.push(seg.start().as_secs());
        events.push(seg.end().as_secs());
    }
    if let Some((t0, t1)) = options.horizon {
        events.push(t0.as_secs());
        events.push(t1.as_secs());
    }
    events.sort_unstable_by(f64::total_cmp);
    events.dedup_by(|a, b| a == b);

    // Integrate power over each slice.
    for pair in events.windows(2) {
        let (t0, t1) = (Time::from_secs(pair[0]), Time::from_secs(pair[1]));
        let dt = t1 - t0;
        if dt.value() <= 0.0 {
            continue;
        }
        sweep.seek(t0 + dt * 0.5);
        for core in 0..cores {
            match sweep.state(core) {
                State::Busy(run) => {
                    let (speed, dynamic) = sweep.run(run);
                    report.core_dynamic += dynamic * dt;
                    report.core_static += core_model.alpha() * dt;
                    report.memory_dynamic += Joules::new(per_cycle * (speed * dt).value());
                }
                State::IdleAwake => report.core_static += core_model.alpha() * dt,
                State::Asleep | State::Off => {}
            }
        }
        match sweep.state(mem) {
            State::Busy(_) | State::IdleAwake => {
                report.memory_static += memory.awake_energy(dt);
                report.memory_awake_time += dt;
            }
            State::Asleep => report.memory_sleep_time += dt,
            State::Off => {}
        }
    }

    // Sleep round trips, charged per episode.
    for core in 0..cores {
        let n = sweep.sleeps(core);
        report.core_sleeps += n;
        report.core_transition += core_model.transition_energy() * n as f64;
    }
    let n = sweep.sleeps(mem);
    report.memory_sleeps = n;
    report.memory_transition += memory.transition_energy() * n as f64;

    ws.recycle_f64s(events);
    sweep.recycle(ws);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::{State, Sweep};
    use crate::{simulate_with_options, SleepPolicy};
    use sdem_power::{CorePower, MemoryPower};
    use sdem_types::{CoreId, Cycles, Placement, Speed, Task, TaskId, Watts};

    fn sec(v: f64) -> Time {
        Time::from_secs(v)
    }

    fn unit_platform(xi: f64, xi_m: f64) -> Platform {
        Platform::new(
            CorePower::simple(1.0, 1.0, 3.0).with_break_even(sec(xi)),
            MemoryPower::new(Watts::new(2.0)).with_break_even(sec(xi_m)),
        )
    }

    fn staggered_case() -> (TaskSet, Schedule) {
        let tasks = TaskSet::new(vec![
            Task::new(0, sec(0.0), sec(3.0), Cycles::new(2.0)),
            Task::new(1, sec(0.0), sec(12.0), Cycles::new(2.0)),
            Task::new(2, sec(0.0), sec(12.0), Cycles::new(3.0)),
        ])
        .unwrap();
        let sched = Schedule::new(vec![
            Placement::single(
                TaskId(0),
                CoreId(0),
                sec(0.0),
                sec(2.0),
                Speed::from_hz(1.0),
            ),
            Placement::single(
                TaskId(1),
                CoreId(0),
                sec(7.0),
                sec(9.0),
                Speed::from_hz(1.0),
            ),
            Placement::single(
                TaskId(2),
                CoreId(1),
                sec(1.0),
                sec(4.0),
                Speed::from_hz(1.0),
            ),
        ]);
        (tasks, sched)
    }

    #[test]
    fn agrees_with_interval_meter_on_all_policies() {
        let (tasks, sched) = staggered_case();
        for (xi, xi_m) in [(0.0, 0.0), (1.0, 2.0), (10.0, 10.0)] {
            let p = unit_platform(xi, xi_m);
            for policy in [
                SleepPolicy::NeverSleep,
                SleepPolicy::AlwaysSleep,
                SleepPolicy::WhenProfitable,
            ] {
                let opts = SimOptions::uniform(policy);
                let a = simulate_with_options(&sched, &tasks, &p, opts).unwrap();
                let b = simulate_event_driven(&sched, &tasks, &p, opts).unwrap();
                assert!(
                    (a.total().value() - b.total().value()).abs() < 1e-9,
                    "policy {policy:?} ξ={xi} ξm={xi_m}: meter {} vs engine {}",
                    a.total(),
                    b.total()
                );
                assert_eq!(a.memory_sleeps, b.memory_sleeps);
                assert_eq!(a.core_sleeps, b.core_sleeps);
                assert!((a.memory_sleep_time - b.memory_sleep_time).abs().value() < 1e-9);
            }
        }
    }

    #[test]
    fn memory_union_counted_once_in_engine() {
        let (tasks, sched) = staggered_case();
        let p = unit_platform(0.0, 0.0);
        let r = simulate_event_driven(&sched, &tasks, &p, SimOptions::default()).unwrap();
        // Memory busy union: [0,4] ∪ [7,9] = 6 s ⇒ 12 J. Gap slept free.
        assert!((r.memory_static.value() - 12.0).abs() < 1e-9);
        assert_eq!(r.memory_sleeps, 1);
        assert!((r.memory_sleep_time.as_secs() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn state_machine_classification() {
        let run = |task, start, end, hz| {
            Placement::single(
                TaskId(task),
                CoreId(0),
                sec(start),
                sec(end),
                Speed::from_hz(hz),
            )
        };
        // Stored out of start order: the table sorts them.
        let schedule = Schedule::new(vec![
            run(1, 5.0, 6.0, 2.0),
            run(0, 0.0, 2.0, 1.0),
            run(2, 6.5, 7.0, 3.0),
        ]);
        let platform = Platform::new(
            CorePower::simple(1.0, 1.0, 3.0).with_break_even(sec(1.0)),
            MemoryPower::new(Watts::new(2.0)),
        );
        let mut ws = Workspace::new();
        let mut sweep = Sweep::new_in(&schedule, &platform, SimOptions::default(), &mut ws);
        let mut at = |t: f64| {
            sweep.seek(sec(t));
            match sweep.state(0) {
                State::Busy(i) => Ok(sweep.run(i).0),
                idle => Err(idle),
            }
        };
        assert_eq!(at(1.0), Ok(Speed::from_hz(1.0)));
        assert_eq!(at(3.0), Err(State::Asleep)); // 3 s gap ≥ ξ
        assert_eq!(at(5.5), Ok(Speed::from_hz(2.0)));
        assert_eq!(at(6.2), Err(State::IdleAwake)); // 0.5 s gap < ξ
        assert_eq!(at(10.0), Err(State::Off));
        // Going back in time rewinds the cursors.
        assert_eq!(at(-1.0), Err(State::Off));
        assert_eq!(at(6.7), Ok(Speed::from_hz(3.0)));
        assert_eq!(at(f64::NAN), Err(State::Off));
        assert_eq!(sweep.sleeps(0), 1);
        sweep.recycle(&mut ws);
    }

    #[test]
    fn validation_respected() {
        let (tasks, _) = staggered_case();
        let p = unit_platform(0.0, 0.0);
        let incomplete = Schedule::new(vec![Placement::single(
            TaskId(0),
            CoreId(0),
            sec(0.0),
            sec(2.0),
            Speed::from_hz(1.0),
        )]);
        assert!(simulate_event_driven(&incomplete, &tasks, &p, SimOptions::default()).is_err());
        let opts = SimOptions {
            validate: false,
            ..SimOptions::default()
        };
        assert!(simulate_event_driven(&incomplete, &tasks, &p, opts).is_ok());
    }
}
