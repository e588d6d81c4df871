//! Instantaneous power traces: `P(t)` sampled over a schedule's span.
//!
//! Produces the data behind "power over time" plots: at each sample
//! instant, the total draw is the sum of every core's state power (busy →
//! `α + β·s^λ`, idle-awake → `α`, asleep/off → 0) plus the memory's
//! (`α_m` while awake). States come from the same chronological sweep as
//! the event engine ([`crate::timeline`]), so a component is powered
//! exactly when it is busy or inside a gap its [`crate::SleepPolicy`]
//! keeps awake, and integrating the trace recovers the metered energy (up
//! to transition overheads, which are impulses, and sampling resolution).

use sdem_power::Platform;
use sdem_types::{Schedule, Time, Watts, Workspace};

use crate::timeline::{State, Sweep};
use crate::SimOptions;

/// One sample of the system power trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Sample instant.
    pub time: Time,
    /// Summed core draw at that instant.
    pub cores: Watts,
    /// Memory draw at that instant.
    pub memory: Watts,
}

impl PowerSample {
    /// Total system draw.
    pub fn total(&self) -> Watts {
        self.cores + self.memory
    }
}

/// Samples the schedule's instantaneous power at `samples` uniformly
/// spaced instants across its span (or the explicit horizon in `options`).
///
/// Returns an empty vector for schedules with no executed segments.
///
/// # Panics
///
/// Panics if `samples == 0`.
///
/// # Examples
///
/// ```
/// use sdem_sim::{power_trace, SimOptions};
/// use sdem_power::Platform;
/// use sdem_types::{Schedule, Placement, TaskId, CoreId, Time, Speed};
///
/// let sched = Schedule::new(vec![Placement::single(
///     TaskId(0), CoreId(0), Time::ZERO, Time::from_millis(10.0), Speed::from_mhz(1000.0),
/// )]);
/// let trace = power_trace(&sched, &Platform::paper_defaults(), SimOptions::default(), 50);
/// assert_eq!(trace.len(), 50);
/// // While busy: memory 4 W + core (0.31 + 0.253) W.
/// assert!((trace[10].total().value() - 4.563).abs() < 1e-3);
/// ```
pub fn power_trace(
    schedule: &Schedule,
    platform: &Platform,
    options: SimOptions,
    samples: usize,
) -> Vec<PowerSample> {
    power_trace_in(schedule, platform, options, samples, &mut Workspace::new())
}

/// In-place [`power_trace`]: the state tables come from `ws`. The
/// returned sample vector itself still allocates (it is the output).
///
/// # Panics
///
/// Panics if `samples == 0`.
pub fn power_trace_in(
    schedule: &Schedule,
    platform: &Platform,
    options: SimOptions,
    samples: usize,
    ws: &mut Workspace,
) -> Vec<PowerSample> {
    assert!(samples > 0, "need at least one sample");
    let (t0, t1) = match options.horizon.or_else(|| schedule.span()) {
        Some(span) => span,
        None => return Vec::new(),
    };
    let span = (t1 - t0).as_secs();
    if span <= 0.0 {
        return Vec::new();
    }
    let core_model = platform.core();
    let alpha_m = platform.memory().alpha_m();
    let mut sweep = Sweep::new_in(schedule, platform, options, ws);
    let trace = (0..samples)
        .map(|k| {
            let t = t0 + Time::from_secs(span * (k as f64 + 0.5) / samples as f64);
            sweep.seek(t);
            let mut cores = Watts::ZERO;
            for core in 0..sweep.cores() {
                match sweep.state(core) {
                    State::Busy(run) => cores += core_model.alpha() + sweep.run(run).1,
                    State::IdleAwake => cores += core_model.alpha(),
                    State::Asleep | State::Off => {}
                }
            }
            let memory = match sweep.state(sweep.memory()) {
                State::Busy(_) | State::IdleAwake => alpha_m,
                State::Asleep | State::Off => Watts::ZERO,
            };
            PowerSample {
                time: t,
                cores,
                memory,
            }
        })
        .collect();
    sweep.recycle(ws);
    trace
}

/// Renders a trace as CSV (`time_s,cores_w,memory_w,total_w`).
pub fn trace_to_csv(trace: &[PowerSample]) -> String {
    let mut out = String::from("time_s,cores_w,memory_w,total_w\n");
    for s in trace {
        out.push_str(&format!(
            "{:.9},{:.6},{:.6},{:.6}\n",
            s.time.as_secs(),
            s.cores.value(),
            s.memory.value(),
            s.total().value(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate_with_options, SleepPolicy};
    use sdem_power::{CorePower, MemoryPower};
    use sdem_types::{CoreId, Cycles, Placement, Speed, Task, TaskId, TaskSet};

    fn sec(v: f64) -> Time {
        Time::from_secs(v)
    }

    fn unit_platform() -> Platform {
        Platform::new(
            CorePower::simple(1.0, 1.0, 3.0),
            MemoryPower::new(Watts::new(2.0)),
        )
    }

    #[test]
    fn busy_sample_includes_dynamic_power() {
        let sched = Schedule::new(vec![Placement::single(
            TaskId(0),
            CoreId(0),
            sec(0.0),
            sec(2.0),
            Speed::from_hz(2.0),
        )]);
        let trace = power_trace(&sched, &unit_platform(), SimOptions::default(), 4);
        // Everywhere busy: core 1 + 8, memory 2 → 11 W.
        for s in &trace {
            assert!((s.total().value() - 11.0).abs() < 1e-9, "{s:?}");
        }
    }

    #[test]
    fn gap_power_follows_policy() {
        let sched = Schedule::new(vec![
            Placement::single(
                TaskId(0),
                CoreId(0),
                sec(0.0),
                sec(1.0),
                Speed::from_hz(1.0),
            ),
            Placement::single(
                TaskId(1),
                CoreId(0),
                sec(3.0),
                sec(4.0),
                Speed::from_hz(1.0),
            ),
        ]);
        let p = unit_platform();
        // Profitable (ξ = 0): gap fully asleep → 0 W mid-gap.
        let t = power_trace(&sched, &p, SimOptions::default(), 16);
        let mid = &t[8]; // ~2.1 s, inside the gap
        assert_eq!(mid.total(), Watts::ZERO, "{mid:?}");
        // NeverSleep: idle core α = 1, memory 2 → 3 W mid-gap.
        let t = power_trace(&sched, &p, SimOptions::uniform(SleepPolicy::NeverSleep), 16);
        assert!((t[8].total().value() - 3.0).abs() < 1e-9, "{:?}", t[8]);
    }

    #[test]
    fn integrated_trace_approximates_metered_energy() {
        let tasks = TaskSet::new(vec![
            Task::new(0, sec(0.0), sec(2.0), Cycles::new(1.0)),
            Task::new(1, sec(0.0), sec(10.0), Cycles::new(2.0)),
        ])
        .unwrap();
        let sched = Schedule::new(vec![
            Placement::single(
                TaskId(0),
                CoreId(0),
                sec(0.0),
                sec(1.0),
                Speed::from_hz(1.0),
            ),
            Placement::single(
                TaskId(1),
                CoreId(1),
                sec(5.0),
                sec(7.0),
                Speed::from_hz(1.0),
            ),
        ]);
        let p = unit_platform();
        let opts = SimOptions::uniform(SleepPolicy::NeverSleep);
        let metered = simulate_with_options(&sched, &tasks, &p, opts)
            .unwrap()
            .total()
            .value();
        let samples = 20_000;
        let trace = power_trace(&sched, &p, opts, samples);
        let dt = 7.0 / samples as f64; // span [0, 7]
        let integrated: f64 = trace.iter().map(|s| s.total().value() * dt).sum();
        assert!(
            (integrated - metered).abs() < 1e-2 * metered,
            "integrated {integrated} vs metered {metered}"
        );
    }

    #[test]
    fn csv_has_header_and_rows() {
        let sched = Schedule::new(vec![Placement::single(
            TaskId(0),
            CoreId(0),
            sec(0.0),
            sec(1.0),
            Speed::from_hz(1.0),
        )]);
        let trace = power_trace(&sched, &unit_platform(), SimOptions::default(), 3);
        let csv = trace_to_csv(&trace);
        assert!(csv.starts_with("time_s,cores_w,memory_w,total_w\n"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn empty_schedule_yields_empty_trace() {
        let t = power_trace(
            &Schedule::empty(),
            &unit_platform(),
            SimOptions::default(),
            5,
        );
        assert!(t.is_empty());
    }
}
