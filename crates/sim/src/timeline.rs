//! Chronological component states, shared by the event engine and the
//! power trace.
//!
//! A [`Sweep`] tables a schedule once: every core's busy runs (its
//! segments with `start < end`, in placement-then-segment order,
//! stable-sorted by start, each with its dynamic power `β·s^λ`), the
//! memory's busy set, and every component's idle gaps under the powered
//! span convention in force (see [`IntervalSet::gaps_into`]) with the
//! [`SleepPolicy`](crate::SleepPolicy) decision for each. It then
//! classifies a non-decreasing sequence of instants with two monotone
//! cursors per component, one over its runs and one over its gaps. Each
//! stops at the first entry not yet ended, which holds the instant
//! exactly when it has started, so a pass over `n` instants costs
//! O(n × components) on top of the table build.
//!
//! The interval meter reads none of this: it prices its gaps with
//! [`SleepPolicy::price_gap`](crate::SleepPolicy::price_gap) over
//! [`IntervalSet::gaps_many_into`]. The engine's explicit per-component
//! states therefore stay an independent check of the meter.

use std::cmp::Ordering;

use sdem_power::Platform;
use sdem_types::{IntervalSet, Schedule, Segment, Speed, Time, Watts, Workspace};

use crate::SimOptions;

/// A component's state at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum State {
    /// Executing run `i` (see [`Sweep::run`]); for the memory, serving a
    /// busy core.
    Busy(usize),
    /// Powered and idle: static power accrues.
    IdleAwake,
    /// Sleeping inside the on-span: no power (round trip charged per
    /// episode).
    Asleep,
    /// Outside the component's on-span: off, free.
    Off,
}

/// Every component's busy runs and priced gaps, with a cursor each.
///
/// Components `0..cores()` are the schedule's cores in ascending id
/// order; component [`Sweep::memory`] is the shared memory.
pub(crate) struct Sweep {
    /// Busy runs, component by component: `runs[run_at[c]..run_at[c + 1]]`.
    /// The memory's are its coalesced busy intervals.
    runs: Vec<Segment>,
    /// `β·s^λ` of each run in watts (zero for the memory's).
    dynamic: Vec<f64>,
    run_at: Vec<usize>,
    /// Priced idle gaps and their sleep decisions, bucketed like the runs.
    gaps: Vec<(Time, Time)>,
    slept: Vec<bool>,
    gap_at: Vec<usize>,
    /// Per component, the first run and gap that may still contain an
    /// instant at or after `now`: everything before them ended by `now`.
    run_cursor: Vec<usize>,
    gap_cursor: Vec<usize>,
    now: Time,
}

impl Sweep {
    /// Tables `schedule` under `options` on `platform`; every buffer comes
    /// from `ws` (return them with [`Self::recycle`]).
    pub(crate) fn new_in(
        schedule: &Schedule,
        platform: &Platform,
        options: SimOptions,
        ws: &mut Workspace,
    ) -> Self {
        let core_model = platform.core();
        let mut cores = ws.take_core_ids();
        schedule.cores_into(&mut cores);
        let bucket = |p: &sdem_types::Placement| {
            cores
                .binary_search(&p.core())
                .expect("cores_into lists every core")
        };
        let is_run = |s: &&Segment| s.start() < s.end();

        // One count and one fill pass bucket the runs per core in
        // placement-then-segment order, keyed by (start, that order) so an
        // unstable sort reproduces the stable one.
        let mut run_at = ws.take_usizes();
        run_at.resize(cores.len() + 1, 0);
        for p in schedule.placements() {
            run_at[bucket(p) + 1] += p.segments().iter().filter(is_run).count();
        }
        for k in 0..cores.len() {
            run_at[k + 1] += run_at[k];
        }
        let mut run_cursor = ws.take_usizes();
        run_cursor.extend_from_slice(&run_at[..cores.len()]);
        let total = run_at[cores.len()];
        let mut order = ws.take_keyed();
        order.resize(total, (0.0, 0));
        let mut placed = ws.take_segments();
        placed.reserve(total);
        for p in schedule.placements() {
            let k = bucket(p);
            for seg in p.segments().iter().filter(is_run) {
                order[run_cursor[k]] = (seg.start().as_secs(), placed.len());
                run_cursor[k] += 1;
                placed.push(*seg);
            }
        }
        // The memory's coalesced busy intervals follow: at most as many.
        let mut runs = ws.take_segments();
        runs.reserve(2 * total);
        let mut dynamic = ws.take_f64s();
        dynamic.reserve(2 * total);
        for k in 0..cores.len() {
            let core_runs = &mut order[run_at[k]..run_at[k + 1]];
            core_runs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for &(_, i) in core_runs.iter() {
                let run = placed[i];
                runs.push(run);
                dynamic.push(core_model.dynamic_power(run.speed()).value());
            }
        }

        let mut busy = ws.take_intervals();
        let spans = runs.iter().map(|r| (r.start(), r.end()));
        IntervalSet::collect_into(spans, &mut busy);
        for &(a, b) in busy.iter() {
            runs.push(Segment::new(a, b, Speed::ZERO));
            dynamic.push(0.0);
        }
        run_at.push(runs.len());

        // Each component's gaps, from its busy set, priced by its policy: at
        // most one more than its runs.
        let mut gaps = ws.take_spans();
        gaps.reserve(runs.len() + cores.len() + 1);
        let mut slept = ws.take_bools();
        slept.reserve(runs.len() + cores.len() + 1);
        let mut gap_at = ws.take_usizes();
        gap_at.push(0);
        let mut idle = ws.take_intervals();
        for c in 0..=cores.len() {
            let (policy, xi) = if c < cores.len() {
                (options.core_policy, core_model.break_even())
            } else {
                (options.memory_policy, platform.memory().break_even())
            };
            let spans = runs[run_at[c]..run_at[c + 1]]
                .iter()
                .map(|r| (r.start(), r.end()));
            IntervalSet::collect_into(spans, &mut busy);
            busy.gaps_into(options.horizon, &mut idle);
            for &(a, b) in idle.iter() {
                gaps.push((a, b));
                slept.push(policy.sleeps(b - a, xi));
            }
            gap_at.push(gaps.len());
        }
        ws.recycle_core_ids(cores);
        ws.recycle_keyed(order);
        ws.recycle_segments(placed);
        ws.recycle_intervals(busy);
        ws.recycle_intervals(idle);

        let mut sweep = Self {
            runs,
            dynamic,
            run_at,
            gaps,
            slept,
            gap_at,
            run_cursor,
            gap_cursor: ws.take_usizes(),
            now: Time::ZERO,
        };
        sweep.rewind();
        sweep
    }

    /// Returns every owned buffer to the workspace.
    pub(crate) fn recycle(self, ws: &mut Workspace) {
        ws.recycle_segments(self.runs);
        ws.recycle_f64s(self.dynamic);
        ws.recycle_usizes(self.run_at);
        ws.recycle_spans(self.gaps);
        ws.recycle_bools(self.slept);
        ws.recycle_usizes(self.gap_at);
        ws.recycle_usizes(self.run_cursor);
        ws.recycle_usizes(self.gap_cursor);
    }

    /// Number of cores (components `0..cores()`).
    pub(crate) fn cores(&self) -> usize {
        self.run_at.len() - 2
    }

    /// The memory's component index.
    pub(crate) fn memory(&self) -> usize {
        self.cores()
    }

    /// Speed and dynamic power `β·s^λ` of run `i`.
    pub(crate) fn run(&self, i: usize) -> (Speed, Watts) {
        (self.runs[i].speed(), Watts::new(self.dynamic[i]))
    }

    /// Number of gaps component `c` sleeps through (one round trip each).
    pub(crate) fn sleeps(&self, c: usize) -> usize {
        self.slept[self.gap_at[c]..self.gap_at[c + 1]]
            .iter()
            .filter(|&&s| s)
            .count()
    }

    /// Moves every cursor to the instant `t`. Instants normally rise; one
    /// that does not (a midpoint pushed to `+∞` by an overflowing slice
    /// width, or a NaN) rewinds the cursors, so lookups stay exact.
    pub(crate) fn seek(&mut self, t: Time) {
        if matches!(t.partial_cmp(&self.now), None | Some(Ordering::Less)) {
            self.rewind();
        }
        self.now = t;
    }

    fn rewind(&mut self) {
        let components = self.run_at.len() - 1;
        self.run_cursor.clear();
        self.run_cursor
            .extend_from_slice(&self.run_at[..components]);
        self.gap_cursor.clear();
        self.gap_cursor
            .extend_from_slice(&self.gap_at[..components]);
        self.now = Time::from_secs(f64::NEG_INFINITY);
    }

    /// Component `c`'s state at the instant of the last [`Self::seek`]:
    /// busy in the first run (in start order) containing it, else asleep
    /// or awake in the gap containing it, else off.
    pub(crate) fn state(&mut self, c: usize) -> State {
        let t = self.now;
        // Every run before the cursor ends by `t` and the cursor's does
        // not. Runs are sorted by start, so `t` is in a run exactly when
        // the cursor's has started, and that run is the first holding it.
        // (Every comparison with a NaN instant fails: nothing holds it.)
        let (runs, i) = (self.run_at[c + 1], &mut self.run_cursor[c]);
        while *i < runs && self.runs[*i].end() <= t {
            *i += 1;
        }
        if *i < runs && self.runs[*i].start() <= t {
            return State::Busy(*i);
        }
        // Gaps are disjoint and sorted: the same holds for the cursor's.
        let (gaps, g) = (self.gap_at[c + 1], &mut self.gap_cursor[c]);
        while *g < gaps && self.gaps[*g].1 <= t {
            *g += 1;
        }
        if *g < gaps && self.gaps[*g].0 <= t {
            if self.slept[*g] {
                State::Asleep
            } else {
                State::IdleAwake
            }
        } else {
            State::Off
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_types::{CoreId, Placement, TaskId};

    fn sec(v: f64) -> Time {
        Time::from_secs(v)
    }

    #[test]
    fn equal_starts_resolve_in_placement_order() {
        let schedule = Schedule::new(vec![
            Placement::single(
                TaskId(0),
                CoreId(4),
                sec(1.0),
                sec(3.0),
                Speed::from_hz(5.0),
            ),
            Placement::single(
                TaskId(1),
                CoreId(4),
                sec(1.0),
                sec(2.0),
                Speed::from_hz(7.0),
            ),
            Placement::single(
                TaskId(2),
                CoreId(4),
                sec(0.0),
                sec(0.0),
                Speed::from_hz(9.0),
            ),
        ]);
        let mut ws = Workspace::new();
        let mut sweep = Sweep::new_in(
            &schedule,
            &Platform::paper_defaults(),
            SimOptions::default(),
            &mut ws,
        );
        assert_eq!(sweep.cores(), 1);
        sweep.seek(sec(1.5));
        let State::Busy(i) = sweep.state(0) else {
            panic!("core busy at 1.5 s");
        };
        assert_eq!(sweep.run(i).0, Speed::from_hz(5.0));
        assert!(matches!(sweep.state(sweep.memory()), State::Busy(_)));
        sweep.recycle(&mut ws);
    }
}
