//! The common result and error types of the SDEM schemes.

use core::fmt;

use sdem_power::Platform;
use sdem_types::{ErrorKind, Joules, Schedule, TaskId, Time, Workspace};

/// Result of an SDEM scheme: the explicit schedule plus the analytic
/// quantities the optimality proofs reason about.
///
/// `predicted_energy` is the scheme's closed-form energy under its own
/// accounting convention; tests cross-check it against the `sdem-sim`
/// meter on the same schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    schedule: Schedule,
    predicted_energy: Joules,
    memory_sleep: Time,
    degraded: bool,
}

impl Solution {
    /// Bundles a schedule with its analytic energy and total memory sleep.
    pub fn new(schedule: Schedule, predicted_energy: Joules, memory_sleep: Time) -> Self {
        Self {
            schedule,
            predicted_energy,
            memory_sleep,
            degraded: false,
        }
    }

    /// Returns a copy with the degraded-mode flag set. The fallback chain
    /// ([`crate::solve_or_fallback`]) marks its race-to-idle baseline
    /// solutions this way so aggregates can count them explicitly.
    #[must_use]
    pub fn with_degraded(mut self, degraded: bool) -> Self {
        self.degraded = degraded;
        self
    }

    /// Whether this solution came from the degraded-mode fallback rather
    /// than the requested scheme.
    #[inline]
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// The explicit schedule (one placement per task).
    #[inline]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Consumes the solution, returning the schedule.
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }

    /// The scheme's closed-form optimal energy.
    #[inline]
    pub fn predicted_energy(&self) -> Joules {
        self.predicted_energy
    }

    /// Total common idle time the memory sleeps (`Δ` for the common-release
    /// schemes; the sum of inter-block gaps for the agreeable DP).
    #[inline]
    pub fn memory_sleep(&self) -> Time {
        self.memory_sleep
    }

    /// Wraps a bare [`Schedule`] (e.g. from the online heuristics, which
    /// carry no analytic optimum) into a [`Solution`] by pricing it with
    /// the model's closed forms under the *gap convention* and profitable
    /// sleeping — the same accounting the `sdem-sim` meter applies with its
    /// default options, so the predicted energy here agrees with the meter
    /// to floating-point round-off:
    ///
    /// * per-segment dynamic energy `β·s^λ·len` plus memory access energy;
    /// * per-core static energy `α` over busy time, each idle gap priced
    ///   at the cheaper of idling awake (`α·g`) or one round trip (`α·ξ`);
    /// * memory static energy `α_m` over the busy-union, sleeping exactly
    ///   the gaps of length ≥ ξ_m (one `α_m·ξ_m` round trip each).
    pub fn from_schedule(schedule: Schedule, platform: &Platform) -> Self {
        Self::from_schedule_in(schedule, platform, &mut Workspace::new())
    }

    /// In-place [`Self::from_schedule`]: the per-core busy/gap interval
    /// buffers are drawn from `ws` instead of freshly allocated.
    pub fn from_schedule_in(schedule: Schedule, platform: &Platform, ws: &mut Workspace) -> Self {
        let (energy, sleep) = Self::price_in(&schedule, platform, ws);
        Self::new(schedule, energy, sleep)
    }

    /// The `(predicted energy, memory sleep)` [`Self::from_schedule_in`]
    /// attaches to `schedule`, priced by reference (no copy of the schedule).
    pub fn price_in(
        schedule: &Schedule,
        platform: &Platform,
        ws: &mut Workspace,
    ) -> (Joules, Time) {
        let core = platform.core();
        let memory = platform.memory();
        let per_cycle = memory.access_energy_per_cycle();

        let mut energy = Joules::ZERO;
        for placement in schedule.placements() {
            for seg in placement.segments() {
                energy += core.dynamic_power(seg.speed()) * seg.length();
                energy += Joules::new(per_cycle * seg.work().value());
            }
        }

        let mut cores = ws.take_core_ids();
        schedule.cores_into(&mut cores);
        let mut busy = ws.take_intervals();
        let mut gaps = ws.take_intervals();
        for &c in cores.iter() {
            schedule.core_busy_intervals_into(c, &mut busy);
            energy += core.alpha() * busy.total();
            busy.gaps_into(None, &mut gaps);
            for &(a, b) in gaps.iter() {
                energy += core.best_gap_energy(b - a);
            }
        }

        schedule.memory_busy_intervals_into(&mut busy);
        energy += memory.awake_energy(busy.total());
        busy.gaps_into(None, &mut gaps);
        let mut sleep = Time::ZERO;
        for &(a, b) in gaps.iter() {
            let gap = b - a;
            if memory.sleep_is_profitable(gap) {
                energy += memory.transition_energy();
                sleep += gap;
            } else {
                energy += memory.awake_energy(gap);
            }
        }
        ws.recycle_intervals(busy);
        ws.recycle_intervals(gaps);
        ws.recycle_core_ids(cores);
        (energy, sleep)
    }
}

/// Tears a finished [`Solution`] down into `ws`, repooling its schedule's
/// placement and segment buffers for the next trial. The counterpart of
/// [`Solution::from_schedule_in`] in the sweep's zero-alloc loop: a worker
/// that recycles every report it produces re-runs the full trial path on a
/// warm [`Workspace`] without touching the heap.
pub fn recycle_report(solution: Solution, ws: &mut Workspace) {
    ws.recycle_schedule(solution.into_schedule());
}

/// Errors from the SDEM schemes.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SdemError {
    /// The scheme requires tasks with a common release time.
    NotCommonRelease,
    /// The scheme requires agreeable deadlines.
    NotAgreeable,
    /// A task cannot meet its deadline even at the maximum speed
    /// (`s_f > s_up`), so no feasible schedule exists.
    InfeasibleTask(TaskId),
    /// The exact bounded-core solver only handles small instances.
    TooLarge {
        /// Number of tasks requested.
        tasks: usize,
        /// Maximum supported by the exact enumeration.
        limit: usize,
    },
    /// A positive number of cores is required.
    NoCores,
    /// The scheme only supports a restricted system model (e.g. the
    /// Lemma-3 closed forms require `α = 0`).
    UnsupportedModel(&'static str),
}

impl SdemError {
    /// Classifies this error in the workspace-wide [`ErrorKind`] taxonomy
    /// (the stable codes shared by the wire protocol, CLI exit codes and
    /// quarantine JSONL).
    pub const fn kind(&self) -> ErrorKind {
        match self {
            Self::InfeasibleTask(_) => ErrorKind::InfeasibleInput,
            Self::NotCommonRelease
            | Self::NotAgreeable
            | Self::TooLarge { .. }
            | Self::NoCores
            | Self::UnsupportedModel(_) => ErrorKind::SchemeError,
        }
    }
}

impl fmt::Display for SdemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotCommonRelease => {
                write!(f, "scheme requires all tasks to share one release time")
            }
            Self::NotAgreeable => write!(f, "scheme requires agreeable deadlines"),
            Self::InfeasibleTask(id) => write!(
                f,
                "task {id} misses its deadline even at maximum speed; no feasible schedule"
            ),
            Self::TooLarge { tasks, limit } => write!(
                f,
                "exact bounded-core solver handles at most {limit} tasks, got {tasks}"
            ),
            Self::NoCores => write!(f, "at least one core is required"),
            Self::UnsupportedModel(detail) => {
                write!(f, "unsupported system model: {detail}")
            }
        }
    }
}

impl std::error::Error for SdemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solution_accessors() {
        let s = Solution::new(Schedule::empty(), Joules::new(1.5), Time::from_millis(3.0));
        assert_eq!(s.predicted_energy(), Joules::new(1.5));
        assert!((s.memory_sleep().as_millis() - 3.0).abs() < 1e-12);
        assert!(s.schedule().placements().is_empty());
        let sched = s.into_schedule();
        assert!(sched.placements().is_empty());
    }

    #[test]
    fn error_messages() {
        assert!(SdemError::NotCommonRelease.to_string().contains("release"));
        assert!(SdemError::NotAgreeable.to_string().contains("agreeable"));
        assert!(SdemError::InfeasibleTask(TaskId(2))
            .to_string()
            .contains("T2"));
        assert!(SdemError::TooLarge {
            tasks: 20,
            limit: 12
        }
        .to_string()
        .contains("20"));
        assert!(SdemError::NoCores.to_string().contains("core"));
        assert!(SdemError::UnsupportedModel("needs α = 0")
            .to_string()
            .contains("α = 0"));
    }

    #[test]
    fn error_kinds_use_stable_taxonomy() {
        assert_eq!(SdemError::NotAgreeable.kind(), ErrorKind::SchemeError);
        assert_eq!(SdemError::NoCores.kind(), ErrorKind::SchemeError);
        assert_eq!(
            SdemError::InfeasibleTask(TaskId(0)).kind(),
            ErrorKind::InfeasibleInput
        );
        assert_eq!(SdemError::NotAgreeable.kind().code(), "scheme-error");
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<SdemError>();
    }
}
