//! Discrete speed levels: the Ishihara–Yasuura transform.
//!
//! The paper assumes continuously variable speeds and argues (§3, citing
//! Ishihara and Yasuura 1998) that a continuous schedule transfers to a
//! processor with discrete voltage levels by splitting each run between
//! the two levels adjacent to the continuous speed, preserving both the
//! work and the time window. This module implements that transform so SDEM
//! schedules can be deployed on real DVFS tables.
//!
//! For a segment of length `T` at continuous speed `s` with adjacent
//! levels `s₁ ≤ s ≤ s₂`, run `t₂ = T·(s − s₁)/(s₂ − s₁)` at `s₂` followed
//! by `T − t₂` at `s₁`: total work `s₁·t₁ + s₂·t₂ = s·T` and the segment
//! still ends exactly at its original end. By convexity of the power curve
//! the dynamic-energy increase is bounded by the gap between adjacent
//! levels and vanishes as the table densifies.

use sdem_power::CorePower;
use sdem_types::{Placement, Schedule, Segment, Speed, Workspace};

use crate::SdemError;

/// A validated, ascending set of discrete speed levels.
///
/// # Examples
///
/// ```
/// use sdem_core::discrete::SpeedLevels;
/// use sdem_types::Speed;
///
/// let levels = SpeedLevels::new(vec![
///     Speed::from_mhz(700.0),
///     Speed::from_mhz(1200.0),
///     Speed::from_mhz(1900.0),
/// ]);
/// assert_eq!(levels.max().as_mhz(), 1900.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedLevels {
    levels: Vec<Speed>,
}

impl SpeedLevels {
    /// Creates a level table (sorted and deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or contains a non-positive or
    /// non-finite speed.
    pub fn new(mut levels: Vec<Speed>) -> Self {
        assert!(!levels.is_empty(), "need at least one speed level");
        assert!(
            levels.iter().all(|s| s.is_finite() && s.value() > 0.0),
            "levels must be positive and finite"
        );
        levels.sort_by(Speed::total_cmp);
        levels.dedup();
        Self { levels }
    }

    /// An evenly spaced table of `n` levels across a core's
    /// `[min_speed, max_speed]` range (with a positive floor when the core
    /// has `min_speed = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `n < 1`.
    pub fn evenly_spaced(core: &CorePower, n: usize) -> Self {
        assert!(n >= 1, "need at least one level");
        let hi = core.max_speed().as_hz();
        let lo = core.min_speed().as_hz().max(hi / 1e3);
        let levels = (0..n)
            .map(|k| {
                let f = if n == 1 {
                    1.0
                } else {
                    k as f64 / (n - 1) as f64
                };
                Speed::from_hz(lo + (hi - lo) * f)
            })
            .collect();
        Self::new(levels)
    }

    /// The slowest level.
    pub fn min(&self) -> Speed {
        self.levels[0]
    }

    /// The fastest level.
    pub fn max(&self) -> Speed {
        *self.levels.last().expect("non-empty")
    }

    /// All levels, ascending.
    pub fn levels(&self) -> &[Speed] {
        &self.levels
    }

    /// The pair of adjacent levels bracketing `s`
    /// (`(level, level)` when `s` matches a level or falls outside the
    /// table on the low side).
    pub fn bracket(&self, s: Speed) -> (Speed, Speed) {
        if s <= self.min() {
            return (self.min(), self.min());
        }
        for pair in self.levels.windows(2) {
            if s <= pair[1] {
                if s == pair[1] {
                    return (pair[1], pair[1]);
                }
                return (pair[0], pair[1]);
            }
        }
        (self.max(), self.max())
    }
}

/// Quantizes a continuous-speed schedule onto discrete levels, preserving
/// each segment's work and end time.
///
/// Speeds below the lowest level run at the lowest level and finish early
/// (the remainder of the segment idles); this only shortens busy time.
///
/// # Errors
///
/// [`SdemError::InfeasibleTask`] if a segment's speed exceeds the fastest
/// level.
///
/// # Examples
///
/// ```
/// use sdem_core::discrete::{quantize_schedule, SpeedLevels};
/// use sdem_types::{Schedule, Placement, TaskId, CoreId, Time, Speed};
///
/// let continuous = Schedule::new(vec![Placement::single(
///     TaskId(0), CoreId(0), Time::ZERO, Time::from_millis(10.0), Speed::from_mhz(1000.0),
/// )]);
/// let levels = SpeedLevels::new(vec![Speed::from_mhz(700.0), Speed::from_mhz(1900.0)]);
/// let discrete = quantize_schedule(&continuous, &levels)?;
/// // Work is preserved: 1000 MHz × 10 ms = 1e7 cycles.
/// let executed = discrete.placements()[0].executed_work();
/// assert!((executed.value() - 1.0e7).abs() < 1.0);
/// # Ok::<(), sdem_core::SdemError>(())
/// ```
pub fn quantize_schedule(schedule: &Schedule, levels: &SpeedLevels) -> Result<Schedule, SdemError> {
    quantize_schedule_in(schedule, levels, &mut Workspace::new())
}

/// In-place [`quantize_schedule`]: the output schedule's placement and
/// segment vectors are drawn from `ws`. Recycle the returned schedule
/// back into `ws` (`Workspace::recycle_schedule`) to keep the hot path
/// allocation-free.
///
/// # Errors
///
/// Same as [`quantize_schedule`].
pub fn quantize_schedule_in(
    schedule: &Schedule,
    levels: &SpeedLevels,
    ws: &mut Workspace,
) -> Result<Schedule, SdemError> {
    let mut placements = ws.take_placements();
    for p in schedule.placements() {
        let mut segments: Vec<Segment> = ws.take_segments();
        segments.reserve(p.segments().len() * 2);
        for seg in p.segments() {
            let s = seg.speed();
            if s > levels.max() * (1.0 + 1e-9) {
                return Err(SdemError::InfeasibleTask(p.task()));
            }
            let (lo, hi) = levels.bracket(s);
            if lo == hi {
                // Exactly on a level, or below the floor: run at the level
                // long enough to preserve work, then idle.
                let len = seg.work() / lo;
                let len = len.min(seg.length());
                segments.push(Segment::new(seg.start(), seg.start() + len, lo));
                continue;
            }
            // Ishihara–Yasuura split: fast part first, slow part second.
            let frac = (s.as_hz() - lo.as_hz()) / (hi.as_hz() - lo.as_hz());
            let t_hi = seg.length() * frac;
            let mid = seg.start() + t_hi;
            if t_hi.value() > 0.0 {
                segments.push(Segment::new(seg.start(), mid, hi));
            }
            if (seg.end() - mid).value() > 0.0 {
                segments.push(Segment::new(mid, seg.end(), lo));
            }
        }
        placements.push(Placement::new(p.task(), p.core(), segments));
    }
    Ok(Schedule::new(placements))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_power::{MemoryPower, Platform};
    use sdem_sim::{simulate, SleepPolicy};
    use sdem_types::{CoreId, Cycles, Task, TaskId, TaskSet, Time, Watts};

    fn levels(v: &[f64]) -> SpeedLevels {
        SpeedLevels::new(v.iter().map(|&x| Speed::from_hz(x)).collect())
    }

    fn one_segment(speed: f64, len: f64) -> Schedule {
        Schedule::new(vec![Placement::single(
            TaskId(0),
            CoreId(0),
            Time::ZERO,
            Time::from_secs(len),
            Speed::from_hz(speed),
        )])
    }

    #[test]
    fn bracket_selection() {
        let l = levels(&[1.0, 2.0, 4.0]);
        assert_eq!(
            l.bracket(Speed::from_hz(0.5)),
            (Speed::from_hz(1.0), Speed::from_hz(1.0))
        );
        assert_eq!(
            l.bracket(Speed::from_hz(1.0)),
            (Speed::from_hz(1.0), Speed::from_hz(1.0))
        );
        assert_eq!(
            l.bracket(Speed::from_hz(1.5)),
            (Speed::from_hz(1.0), Speed::from_hz(2.0))
        );
        assert_eq!(
            l.bracket(Speed::from_hz(3.0)),
            (Speed::from_hz(2.0), Speed::from_hz(4.0))
        );
        assert_eq!(
            l.bracket(Speed::from_hz(9.0)),
            (Speed::from_hz(4.0), Speed::from_hz(4.0))
        );
    }

    #[test]
    fn split_preserves_work_and_window() {
        let sched = one_segment(1.5, 4.0); // 6 cycles
        let q = quantize_schedule(&sched, &levels(&[1.0, 2.0])).unwrap();
        let p = &q.placements()[0];
        assert_eq!(p.segments().len(), 2);
        assert!((p.executed_work().value() - 6.0).abs() < 1e-9);
        assert_eq!(p.end().unwrap(), Time::from_secs(4.0));
        // Fast half: t_hi = 4·(1.5−1)/(2−1) = 2 s at 2 Hz, then 2 s at 1 Hz.
        assert_eq!(p.segments()[0].speed(), Speed::from_hz(2.0));
        assert!((p.segments()[0].length().as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn below_floor_runs_at_floor_and_finishes_early() {
        let sched = one_segment(0.5, 4.0); // 2 cycles
        let q = quantize_schedule(&sched, &levels(&[1.0, 2.0])).unwrap();
        let p = &q.placements()[0];
        assert_eq!(p.segments().len(), 1);
        assert_eq!(p.segments()[0].speed(), Speed::from_hz(1.0));
        assert!((p.busy_time().as_secs() - 2.0).abs() < 1e-12);
        assert!((p.executed_work().value() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn above_ceiling_is_infeasible() {
        let sched = one_segment(5.0, 1.0);
        assert!(matches!(
            quantize_schedule(&sched, &levels(&[1.0, 2.0])),
            Err(SdemError::InfeasibleTask(TaskId(0)))
        ));
    }

    #[test]
    fn quantized_schedule_stays_valid_and_energy_converges() {
        // Quantize the §4.2 optimum onto coarser and finer tables: the
        // schedule stays valid and the energy approaches the continuous one.
        let core =
            sdem_power::CorePower::simple(4.0, 1.0, 3.0).with_max_speed(Speed::from_hz(10.0));
        let platform = Platform::new(core, MemoryPower::new(Watts::new(6.0)));
        let tasks = TaskSet::new(vec![
            Task::new(0, Time::ZERO, Time::from_secs(8.0), Cycles::new(2.0)),
            Task::new(1, Time::ZERO, Time::from_secs(12.0), Cycles::new(4.0)),
        ])
        .unwrap();
        let continuous =
            crate::solve(&tasks, &platform, crate::Scheme::CommonReleaseAlphaNonzero).unwrap();
        let e_cont = simulate(
            continuous.schedule(),
            &tasks,
            &platform,
            SleepPolicy::WhenProfitable,
        )
        .unwrap()
        .total()
        .value();

        let mut last_gap = f64::INFINITY;
        for n in [3usize, 9, 33, 129] {
            let table = SpeedLevels::evenly_spaced(&core, n);
            let q = quantize_schedule(continuous.schedule(), &table).unwrap();
            q.validate(&tasks).unwrap();
            let e_q = simulate(&q, &tasks, &platform, SleepPolicy::WhenProfitable)
                .unwrap()
                .total()
                .value();
            let gap = e_q - e_cont;
            assert!(gap >= -1e-9 * e_cont, "discrete beat continuous: {gap}");
            assert!(
                gap <= last_gap + 1e-9 * e_cont,
                "denser table did not converge: {gap} vs {last_gap}"
            );
            last_gap = gap;
        }
        assert!(last_gap <= 0.02 * e_cont, "129 levels still {last_gap} off");
    }

    #[test]
    fn evenly_spaced_covers_range() {
        let core = sdem_power::CorePower::cortex_a57();
        let t = SpeedLevels::evenly_spaced(&core, 5);
        assert_eq!(t.levels().len(), 5);
        assert!((t.min().as_mhz() - 700.0).abs() < 1e-9);
        assert!((t.max().as_mhz() - 1900.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one speed level")]
    fn rejects_empty_table() {
        let _ = SpeedLevels::new(vec![]);
    }
}
