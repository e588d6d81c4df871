//! Explicit schedules: which task runs where, when, and at what speed.
//!
//! Every scheduler in the workspace — the paper's optimal schemes, the
//! SDEM-ON heuristic, and the MBKP/MBKPS baselines — emits a [`Schedule`].
//! The simulator in `sdem-sim` replays schedules against a power model; the
//! validation here checks the *timing* contract (deadlines, per-core
//! exclusivity, workload completion, speed bounds) independently of energy.

use core::fmt;

use crate::{Cycles, IntervalSet, ScheduleError, Speed, Task, TaskId, TaskSet, Time, Workspace};

/// Relative tolerance used when checking workload completion and window
/// containment. Schedules are built from floating-point optimizations, so
/// exact equality is too strict.
const REL_TOL: f64 = 1e-6;

/// Identifier of a processor core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A maximal run of one task at one constant speed.
///
/// # Examples
///
/// ```
/// use sdem_types::{Segment, Time, Speed};
/// let seg = Segment::new(Time::from_millis(10.0), Time::from_millis(30.0), Speed::from_mhz(800.0));
/// assert!((seg.length().as_millis() - 20.0).abs() < 1e-9);
/// assert!((seg.work().value() - 1.6e7).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    start: Time,
    end: Time,
    speed: Speed,
}

impl Segment {
    /// Creates a segment running over `[start, end]` at `speed`.
    pub fn new(start: Time, end: Time, speed: Speed) -> Self {
        Self { start, end, speed }
    }

    /// Segment start instant.
    #[inline]
    pub fn start(&self) -> Time {
        self.start
    }

    /// Segment end instant.
    #[inline]
    pub fn end(&self) -> Time {
        self.end
    }

    /// Execution speed during the segment.
    #[inline]
    pub fn speed(&self) -> Speed {
        self.speed
    }

    /// Segment duration.
    #[inline]
    pub fn length(&self) -> Time {
        self.end - self.start
    }

    /// Work executed during the segment.
    #[inline]
    pub fn work(&self) -> Cycles {
        self.speed * self.length()
    }

    fn is_well_formed(&self) -> bool {
        self.start.is_finite()
            && self.end.is_finite()
            && self.speed.is_finite()
            && self.end > self.start
            && self.speed.value() >= 0.0
    }
}

/// The complete execution plan for a single task: its core and segments.
///
/// Segments must be ordered and non-overlapping; contiguous segments with
/// different speeds model the online algorithm's speed adjustments at task
/// arrivals. Offline schemes emit a single segment (non-preemptive model).
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    task: TaskId,
    core: CoreId,
    segments: Vec<Segment>,
}

impl Placement {
    /// Creates a placement of `task` on `core` executing `segments`.
    pub fn new(task: TaskId, core: CoreId, segments: Vec<Segment>) -> Self {
        Self {
            task,
            core,
            segments,
        }
    }

    /// Convenience constructor for the common single-window case.
    pub fn single(task: TaskId, core: CoreId, start: Time, end: Time, speed: Speed) -> Self {
        Self::new(task, core, vec![Segment::new(start, end, speed)])
    }

    /// The task being placed.
    #[inline]
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// The core the task runs on.
    #[inline]
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The execution segments, in time order.
    #[inline]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// First instant the task executes.
    pub fn start(&self) -> Option<Time> {
        self.segments.first().map(Segment::start)
    }

    /// Last instant the task executes (its completion time).
    pub fn end(&self) -> Option<Time> {
        self.segments.last().map(Segment::end)
    }

    /// Total work executed across all segments.
    pub fn executed_work(&self) -> Cycles {
        self.segments.iter().map(Segment::work).sum()
    }

    /// Total time the task occupies its core.
    pub fn busy_time(&self) -> Time {
        self.segments.iter().map(Segment::length).sum()
    }

    /// Appends a segment; the caller maintains the time-ordering
    /// invariant. This is how the online scheduler and the pooled
    /// baseline assemblers grow a placement in place instead of building
    /// a separate segment list and cloning it in.
    #[inline]
    pub fn push_segment(&mut self, segment: Segment) {
        self.segments.push(segment);
    }

    /// Consumes the placement, returning its segment buffer (so a
    /// `Workspace` can recycle the allocation).
    #[inline]
    pub fn into_segments(self) -> Vec<Segment> {
        self.segments
    }
}

/// A complete system schedule: one [`Placement`] per task.
///
/// # Examples
///
/// ```
/// use sdem_types::{Schedule, Placement, TaskId, CoreId, Time, Speed};
///
/// let sched = Schedule::new(vec![
///     Placement::single(TaskId(0), CoreId(0), Time::ZERO, Time::from_millis(20.0),
///                       Speed::from_mhz(100.0)),
///     Placement::single(TaskId(1), CoreId(1), Time::from_millis(5.0), Time::from_millis(25.0),
///                       Speed::from_mhz(150.0)),
/// ]);
/// // Memory is busy while any core is busy: one merged interval here.
/// let busy = sched.memory_busy_intervals();
/// assert_eq!(busy.len(), 1);
/// assert!((busy[0].1.as_millis() - 25.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    placements: Vec<Placement>,
}

impl Schedule {
    /// Creates a schedule from per-task placements.
    pub fn new(placements: Vec<Placement>) -> Self {
        Self { placements }
    }

    /// Creates an empty schedule (useful as an accumulator).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The placements, in insertion order.
    #[inline]
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Adds a placement.
    pub fn push(&mut self, placement: Placement) {
        self.placements.push(placement);
    }

    /// Looks up the placement of a task.
    pub fn placement(&self, task: TaskId) -> Option<&Placement> {
        self.placements.iter().find(|p| p.task() == task)
    }

    /// Consumes the schedule, returning its placement buffer (so a
    /// `Workspace` can recycle the allocations).
    #[inline]
    pub fn into_placements(self) -> Vec<Placement> {
        self.placements
    }

    /// Number of distinct cores used.
    pub fn cores_used(&self) -> usize {
        let mut cores: Vec<CoreId> = Vec::new();
        self.cores_into(&mut cores);
        cores.len()
    }

    /// All distinct cores, sorted.
    pub fn cores(&self) -> Vec<CoreId> {
        let mut cores: Vec<CoreId> = Vec::new();
        self.cores_into(&mut cores);
        cores
    }

    /// In-place [`Self::cores`]: clears `out` and fills it with the sorted,
    /// deduplicated core ids, reusing `out`'s allocation.
    pub fn cores_into(&self, out: &mut Vec<CoreId>) {
        out.clear();
        out.extend(self.placements.iter().map(Placement::core));
        out.sort_unstable();
        out.dedup();
    }

    /// Merged busy intervals of a single core, sorted by start.
    pub fn core_busy_intervals(&self, core: CoreId) -> IntervalSet {
        let mut out = IntervalSet::new();
        self.core_busy_intervals_into(core, &mut out);
        out
    }

    /// In-place [`Self::core_busy_intervals`] writing into a reusable
    /// buffer.
    pub fn core_busy_intervals_into(&self, core: CoreId, out: &mut IntervalSet) {
        IntervalSet::collect_into(
            self.placements
                .iter()
                .filter(|p| p.core() == core)
                .flat_map(|p| p.segments().iter().map(|s| (s.start(), s.end()))),
            out,
        );
    }

    /// Merged intervals during which at least one core is busy — exactly the
    /// intervals during which the shared memory must be awake.
    pub fn memory_busy_intervals(&self) -> IntervalSet {
        let mut out = IntervalSet::new();
        self.memory_busy_intervals_into(&mut out);
        out
    }

    /// In-place [`Self::memory_busy_intervals`] writing into a reusable
    /// buffer.
    pub fn memory_busy_intervals_into(&self, out: &mut IntervalSet) {
        IntervalSet::collect_into(
            self.placements
                .iter()
                .flat_map(|p| p.segments().iter().map(|s| (s.start(), s.end()))),
            out,
        );
    }

    /// Total time the memory must be awake (sum of merged busy intervals).
    pub fn memory_busy_time(&self) -> Time {
        self.memory_busy_intervals().total()
    }

    /// `(first execution instant, last execution instant)` over all tasks,
    /// or `None` for an empty schedule.
    pub fn span(&self) -> Option<(Time, Time)> {
        let starts = self
            .placements
            .iter()
            .filter_map(Placement::start)
            .min_by(Time::total_cmp)?;
        let ends = self
            .placements
            .iter()
            .filter_map(Placement::end)
            .max_by(Time::total_cmp)?;
        Some((starts, ends))
    }

    /// Validates timing only: segment shape, per-task window containment,
    /// workload completion, and per-core mutual exclusion.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScheduleError`] found. Energy-related checks
    /// (speed bounds) are available via [`Schedule::validate_with_limits`].
    pub fn validate(&self, tasks: &TaskSet) -> Result<(), ScheduleError> {
        self.validate_with_limits(tasks, None, None)
    }

    /// Validates timing plus optional platform speed limits.
    ///
    /// `max_speed`/`min_speed` bound every segment's speed when provided.
    /// A small relative tolerance absorbs floating-point noise from the
    /// optimizers.
    ///
    /// # Errors
    ///
    /// Returns the first [`ScheduleError`] found.
    pub fn validate_with_limits(
        &self,
        tasks: &TaskSet,
        min_speed: Option<Speed>,
        max_speed: Option<Speed>,
    ) -> Result<(), ScheduleError> {
        self.validate_with_limits_in(tasks, min_speed, max_speed, &mut Workspace::new())
    }

    /// Pooled [`Self::validate_with_limits`]: identical checks in the
    /// identical order (so the *first* error reported is the same), with
    /// the bookkeeping — the id join and the per-core exclusivity sort —
    /// running on workspace scratch. The simulator validates every
    /// metered schedule, which puts this on the sweep hot path.
    pub fn validate_with_limits_in(
        &self,
        tasks: &TaskSet,
        min_speed: Option<Speed>,
        max_speed: Option<Speed>,
        ws: &mut Workspace,
    ) -> Result<(), ScheduleError> {
        // Every placement refers to a known task, exactly once. Argsort the
        // placements and the tasks by id and walk both once: a complete
        // one-to-one match (task ids are unique) fills the placement→task
        // table the placement checks read. Anything else — a duplicate, an
        // unknown or a missing id — takes the quadratic scan in placement
        // order, which reports the first such id, while valid schedules
        // (the meter hot path) never pay for it.
        let placements = &self.placements;
        let all = tasks.tasks();
        let mut by_id = ws.take_usizes();
        by_id.extend(0..placements.len());
        by_id.sort_unstable_by_key(|&k| placements[k].task());
        let mut task_order = ws.take_usizes();
        task_order.extend(0..all.len());
        task_order.sort_unstable_by_key(|&i| all[i].id());
        let matched = placements.len() == all.len()
            && by_id
                .iter()
                .zip(&task_order)
                .all(|(&k, &i)| placements[k].task() == all[i].id());
        let mut task_of = ws.take_usizes();
        task_of.resize(placements.len(), 0);
        for (&k, &i) in by_id.iter().zip(&task_order) {
            task_of[k] = i;
        }
        ws.recycle_usizes(task_order);
        ws.recycle_usizes(by_id);
        let checked = if matched {
            placements
                .iter()
                .zip(&task_of)
                .try_for_each(|(p, &i)| self.validate_placement(p, &all[i], min_speed, max_speed))
        } else {
            self.first_id_error(tasks, ws)
        };
        ws.recycle_usizes(task_of);
        checked?;
        self.validate_core_exclusivity_in(ws)
    }

    /// The first unknown or duplicate placement, else the first task with
    /// no placement, in placement and task order (quadratic; error path
    /// only).
    fn first_id_error(&self, tasks: &TaskSet, ws: &mut Workspace) -> Result<(), ScheduleError> {
        let mut seen = ws.take_usizes();
        let mut result = Ok(());
        for p in &self.placements {
            if tasks.get(p.task()).is_none() || seen.contains(&p.task().0) {
                result = Err(ScheduleError::UnknownTask(p.task()));
                break;
            }
            seen.push(p.task().0);
        }
        if result.is_ok() {
            if let Some(t) = tasks.iter().find(|t| !seen.contains(&t.id().0)) {
                result = Err(ScheduleError::MissingTask(t.id()));
            }
        }
        ws.recycle_usizes(seen);
        debug_assert!(result.is_err(), "an unmatched id join always has an error");
        result
    }

    fn validate_placement(
        &self,
        p: &Placement,
        task: &Task,
        min_speed: Option<Speed>,
        max_speed: Option<Speed>,
    ) -> Result<(), ScheduleError> {
        let time_tol = Time::from_secs(task.deadline().as_secs().abs().max(1e-9) * REL_TOL);
        for seg in p.segments() {
            if !seg.is_well_formed() {
                return Err(ScheduleError::MalformedSegment(p.task()));
            }
            if seg.start() < task.release() - time_tol || seg.end() > task.deadline() + time_tol {
                return Err(ScheduleError::OutsideWindow(p.task()));
            }
            if let Some(smax) = max_speed {
                if seg.speed() > smax * (1.0 + REL_TOL) {
                    return Err(ScheduleError::SpeedAboveMax(p.task()));
                }
            }
            if let Some(smin) = min_speed {
                if seg.speed() < smin * (1.0 - REL_TOL) {
                    return Err(ScheduleError::SpeedBelowMin(p.task()));
                }
            }
        }
        for w in p.segments().windows(2) {
            if w[1].start() < w[0].end() - time_tol {
                return Err(ScheduleError::OverlappingSegments(p.task()));
            }
        }
        let executed = p.executed_work().value();
        let required = task.work().value();
        let work_tol = required.abs().max(1.0) * REL_TOL;
        if (executed - required).abs() > work_tol {
            return Err(ScheduleError::WorkMismatch {
                task: p.task(),
                executed,
                required,
            });
        }
        Ok(())
    }

    /// Per-core mutual exclusion on pooled scratch.
    ///
    /// The historical check gathered every `(core, start, end, task)` span
    /// and ran one global *stable* sort by `(core, start)`. Processing
    /// cores in ascending order and, within each core, argsorting by
    /// `(start, collection index)` visits the same adjacent pairs in the
    /// same order — the index tiebreak reproduces the stable tie order —
    /// so the first conflict reported is identical, without the stable
    /// sort's merge buffer.
    fn validate_core_exclusivity_in(&self, ws: &mut Workspace) -> Result<(), ScheduleError> {
        let mut cores = ws.take_core_ids();
        let mut spans = ws.take_spans();
        let mut owners = ws.take_usizes();
        let mut keyed = ws.take_keyed();
        self.cores_into(&mut cores);
        let mut result = Ok(());
        'cores: for &core in cores.iter() {
            spans.clear();
            owners.clear();
            keyed.clear();
            for p in self.placements.iter().filter(|p| p.core() == core) {
                for s in p.segments() {
                    keyed.push((s.start().as_secs(), spans.len()));
                    spans.push((s.start(), s.end()));
                    owners.push(p.task().0);
                }
            }
            keyed.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            for w in keyed.windows(2) {
                let (j0, j1) = (w[0].1, w[1].1);
                let (t0, t1) = (owners[j0], owners[j1]);
                if t0 != t1 {
                    let e0 = spans[j0].1;
                    let s1 = spans[j1].0;
                    let tol = Time::from_secs(e0.as_secs().abs().max(1e-9) * REL_TOL);
                    if s1 < e0 - tol {
                        result = Err(ScheduleError::CoreConflict(core, TaskId(t0), TaskId(t1)));
                        break 'cores;
                    }
                }
            }
        }
        ws.recycle_keyed(keyed);
        ws.recycle_usizes(owners);
        ws.recycle_spans(spans);
        ws.recycle_core_ids(cores);
        result
    }
}

impl FromIterator<Placement> for Schedule {
    fn from_iter<I: IntoIterator<Item = Placement>>(iter: I) -> Self {
        Self {
            placements: iter.into_iter().collect(),
        }
    }
}

impl Extend<Placement> for Schedule {
    fn extend<I: IntoIterator<Item = Placement>>(&mut self, iter: I) {
        self.placements.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Task;

    fn ms(v: f64) -> Time {
        Time::from_millis(v)
    }

    fn mhz(v: f64) -> Speed {
        Speed::from_mhz(v)
    }

    fn simple_tasks() -> TaskSet {
        TaskSet::new(vec![
            Task::new(0, ms(0.0), ms(50.0), Cycles::new(2.0e6)),
            Task::new(1, ms(0.0), ms(100.0), Cycles::new(3.0e6)),
        ])
        .unwrap()
    }

    #[test]
    fn segment_math() {
        let s = Segment::new(ms(0.0), ms(10.0), mhz(200.0));
        assert!((s.length().as_millis() - 10.0).abs() < 1e-12);
        assert!((s.work().value() - 2.0e6).abs() < 1.0);
    }

    #[test]
    fn placement_aggregates() {
        let p = Placement::new(
            TaskId(0),
            CoreId(0),
            vec![
                Segment::new(ms(0.0), ms(10.0), mhz(100.0)),
                Segment::new(ms(10.0), ms(20.0), mhz(100.0)),
            ],
        );
        assert_eq!(p.start().unwrap(), ms(0.0));
        assert_eq!(p.end().unwrap(), ms(20.0));
        assert!((p.executed_work().value() - 2.0e6).abs() < 1.0);
        assert!((p.busy_time().as_millis() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn valid_schedule_passes() {
        let tasks = simple_tasks();
        let sched = Schedule::new(vec![
            Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(20.0), mhz(100.0)),
            Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        sched.validate(&tasks).unwrap();
        sched
            .validate_with_limits(&tasks, Some(mhz(50.0)), Some(mhz(1900.0)))
            .unwrap();
    }

    #[test]
    fn detects_missing_and_unknown_tasks() {
        let tasks = simple_tasks();
        let missing = Schedule::new(vec![Placement::single(
            TaskId(0),
            CoreId(0),
            ms(0.0),
            ms(20.0),
            mhz(100.0),
        )]);
        assert_eq!(
            missing.validate(&tasks),
            Err(ScheduleError::MissingTask(TaskId(1)))
        );
        let unknown = Schedule::new(vec![
            Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(20.0), mhz(100.0)),
            Placement::single(TaskId(7), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        assert_eq!(
            unknown.validate(&tasks),
            Err(ScheduleError::UnknownTask(TaskId(7)))
        );
    }

    #[test]
    fn detects_deadline_miss() {
        let tasks = simple_tasks();
        let sched = Schedule::new(vec![
            Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(60.0), mhz(2.0e6 / 6.0e4)),
            Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        assert_eq!(
            sched.validate(&tasks),
            Err(ScheduleError::OutsideWindow(TaskId(0)))
        );
    }

    #[test]
    fn detects_work_mismatch() {
        let tasks = simple_tasks();
        let sched = Schedule::new(vec![
            Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(20.0), mhz(50.0)),
            Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        match sched.validate(&tasks) {
            Err(ScheduleError::WorkMismatch { task, .. }) => assert_eq!(task, TaskId(0)),
            other => panic!("expected WorkMismatch, got {other:?}"),
        }
    }

    #[test]
    fn detects_core_conflict() {
        let tasks = simple_tasks();
        let sched = Schedule::new(vec![
            Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(20.0), mhz(100.0)),
            Placement::single(TaskId(1), CoreId(0), ms(10.0), ms(40.0), mhz(100.0)),
        ]);
        match sched.validate(&tasks) {
            Err(ScheduleError::CoreConflict(core, _, _)) => assert_eq!(core, CoreId(0)),
            other => panic!("expected CoreConflict, got {other:?}"),
        }
    }

    #[test]
    fn back_to_back_on_same_core_is_fine() {
        let tasks = simple_tasks();
        let sched = Schedule::new(vec![
            Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(20.0), mhz(100.0)),
            Placement::single(TaskId(1), CoreId(0), ms(20.0), ms(50.0), mhz(100.0)),
        ]);
        sched.validate(&tasks).unwrap();
    }

    #[test]
    fn detects_speed_violations() {
        let tasks = simple_tasks();
        let sched = Schedule::new(vec![
            Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(1.0), mhz(2000.0)),
            Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        assert_eq!(
            sched.validate_with_limits(&tasks, None, Some(mhz(1900.0))),
            Err(ScheduleError::SpeedAboveMax(TaskId(0)))
        );
        assert_eq!(
            sched.validate_with_limits(&tasks, Some(mhz(700.0)), None),
            Err(ScheduleError::SpeedBelowMin(TaskId(1)))
        );
    }

    #[test]
    fn detects_malformed_and_overlapping_segments() {
        let tasks = simple_tasks();
        let bad = Schedule::new(vec![
            Placement::new(
                TaskId(0),
                CoreId(0),
                vec![Segment::new(ms(10.0), ms(5.0), mhz(100.0))],
            ),
            Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        assert_eq!(
            bad.validate(&tasks),
            Err(ScheduleError::MalformedSegment(TaskId(0)))
        );
        let overlapping = Schedule::new(vec![
            Placement::new(
                TaskId(0),
                CoreId(0),
                vec![
                    Segment::new(ms(0.0), ms(15.0), mhz(100.0)),
                    Segment::new(ms(10.0), ms(15.0), mhz(100.0)),
                ],
            ),
            Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        assert_eq!(
            overlapping.validate(&tasks),
            Err(ScheduleError::OverlappingSegments(TaskId(0)))
        );
    }

    #[test]
    fn detects_duplicate_placement_of_one_task() {
        let tasks = simple_tasks();
        // Task 0 placed twice (same work split across two placements) is a
        // duplicate reference, not a preemption.
        let sched = Schedule::new(vec![
            Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(10.0), mhz(100.0)),
            Placement::single(TaskId(0), CoreId(1), ms(10.0), ms(20.0), mhz(100.0)),
            Placement::single(TaskId(1), CoreId(2), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        assert_eq!(
            sched.validate(&tasks),
            Err(ScheduleError::UnknownTask(TaskId(0)))
        );
    }

    #[test]
    fn detects_non_finite_segments() {
        let tasks = simple_tasks();
        let nan_start = Schedule::new(vec![
            Placement::new(
                TaskId(0),
                CoreId(0),
                vec![Segment::new(
                    Time::from_secs(f64::NAN),
                    ms(20.0),
                    mhz(100.0),
                )],
            ),
            Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        assert_eq!(
            nan_start.validate(&tasks),
            Err(ScheduleError::MalformedSegment(TaskId(0)))
        );
        let inf_speed = Schedule::new(vec![
            Placement::new(
                TaskId(0),
                CoreId(0),
                vec![Segment::new(
                    ms(0.0),
                    ms(20.0),
                    Speed::from_hz(f64::INFINITY),
                )],
            ),
            Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        assert_eq!(
            inf_speed.validate(&tasks),
            Err(ScheduleError::MalformedSegment(TaskId(0)))
        );
    }

    #[test]
    fn detects_start_before_release() {
        let tasks = TaskSet::new(vec![
            Task::new(0, ms(10.0), ms(50.0), Cycles::new(2.0e6)),
            Task::new(1, ms(0.0), ms(100.0), Cycles::new(3.0e6)),
        ])
        .unwrap();
        let sched = Schedule::new(vec![
            Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(20.0), mhz(100.0)),
            Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        assert_eq!(
            sched.validate(&tasks),
            Err(ScheduleError::OutsideWindow(TaskId(0)))
        );
    }

    #[test]
    fn validation_tolerance_absorbs_float_noise_but_not_real_violations() {
        let tasks = simple_tasks();
        // Deadline overshoot within the relative tolerance passes…
        let end_s = 0.050 * (1.0 + 0.5 * REL_TOL);
        let within = Schedule::new(vec![
            Placement::single(
                TaskId(0),
                CoreId(0),
                ms(0.0),
                Time::from_secs(end_s),
                Speed::from_hz(2.0e6 / end_s),
            ),
            Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        within.validate(&tasks).unwrap();
        // …but a 10× tolerance overshoot is a miss.
        let beyond = Schedule::new(vec![
            Placement::single(
                TaskId(0),
                CoreId(0),
                ms(0.0),
                Time::from_secs(0.050 * (1.0 + 10.0 * REL_TOL)),
                Speed::from_hz(2.0e6 / (0.050 * (1.0 + 10.0 * REL_TOL))),
            ),
            Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        assert_eq!(
            beyond.validate(&tasks),
            Err(ScheduleError::OutsideWindow(TaskId(0)))
        );
        // Executed work within the relative tolerance passes; 10× fails.
        let near_work = Schedule::new(vec![
            Placement::single(
                TaskId(0),
                CoreId(0),
                ms(0.0),
                ms(20.0),
                Speed::from_hz(2.0e6 * (1.0 + 0.5 * REL_TOL) / 0.020),
            ),
            Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        near_work.validate(&tasks).unwrap();
        let off_work = Schedule::new(vec![
            Placement::single(
                TaskId(0),
                CoreId(0),
                ms(0.0),
                ms(20.0),
                Speed::from_hz(2.0e6 * (1.0 + 10.0 * REL_TOL) / 0.020),
            ),
            Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(30.0), mhz(100.0)),
        ]);
        assert!(matches!(
            off_work.validate(&tasks),
            Err(ScheduleError::WorkMismatch { .. })
        ));
    }

    #[test]
    fn memory_busy_merging() {
        let sched = Schedule::new(vec![
            Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(10.0), mhz(1.0)),
            Placement::single(TaskId(1), CoreId(1), ms(5.0), ms(20.0), mhz(1.0)),
            Placement::single(TaskId(2), CoreId(0), ms(30.0), ms(40.0), mhz(1.0)),
        ]);
        let busy = sched.memory_busy_intervals();
        assert_eq!(busy.len(), 2);
        assert!((busy[0].0.as_millis()).abs() < 1e-9);
        assert!((busy[0].1.as_millis() - 20.0).abs() < 1e-9);
        assert!((busy[1].0.as_millis() - 30.0).abs() < 1e-9);
        assert!((sched.memory_busy_time().as_millis() - 30.0).abs() < 1e-9);
        assert_eq!(sched.cores_used(), 2);
        assert_eq!(sched.cores(), vec![CoreId(0), CoreId(1)]);
        let (s, e) = sched.span().unwrap();
        assert_eq!(s, ms(0.0));
        assert_eq!(e, ms(40.0));
    }

    #[test]
    fn busy_intervals_drop_degenerate_segments() {
        // Zero-length and inverted segments contribute no busy time; the
        // kernel drops them during coalescing.
        let sched = Schedule::new(vec![Placement::new(
            TaskId(0),
            CoreId(0),
            vec![
                Segment::new(ms(5.0), ms(5.0), mhz(1.0)),
                Segment::new(ms(2.0), ms(1.0), mhz(1.0)),
                Segment::new(ms(0.0), ms(3.0), mhz(1.0)),
                Segment::new(ms(3.0), ms(4.0), mhz(1.0)),
            ],
        )]);
        assert_eq!(
            sched.memory_busy_intervals().as_slice(),
            &[(ms(0.0), ms(4.0))]
        );
    }

    #[test]
    fn schedule_collects_and_extends() {
        let p0 = Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(1.0), mhz(1.0));
        let p1 = Placement::single(TaskId(1), CoreId(1), ms(0.0), ms(1.0), mhz(1.0));
        let mut sched: Schedule = vec![p0].into_iter().collect();
        sched.extend(vec![p1]);
        assert_eq!(sched.placements().len(), 2);
        assert!(sched.placement(TaskId(1)).is_some());
        assert!(sched.placement(TaskId(9)).is_none());
        let mut empty = Schedule::empty();
        assert!(empty.span().is_none());
        empty.push(Placement::single(
            TaskId(2),
            CoreId(0),
            ms(0.0),
            ms(1.0),
            mhz(1.0),
        ));
        assert_eq!(empty.placements().len(), 1);
    }

    #[test]
    fn core_busy_intervals_are_per_core() {
        let sched = Schedule::new(vec![
            Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(10.0), mhz(1.0)),
            Placement::single(TaskId(1), CoreId(1), ms(5.0), ms(20.0), mhz(1.0)),
        ]);
        assert_eq!(sched.core_busy_intervals(CoreId(0)).len(), 1);
        assert_eq!(sched.core_busy_intervals(CoreId(1))[0], (ms(5.0), ms(20.0)));
        assert!(sched.core_busy_intervals(CoreId(2)).is_empty());
    }

    #[test]
    fn core_id_display() {
        assert_eq!(CoreId(3).to_string(), "core3");
    }

    #[test]
    fn validate_in_matches_allocating_validate_on_warm_workspace() {
        let tasks = simple_tasks();
        let ok = Schedule::new(vec![
            Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(20.0), mhz(100.0)),
            Placement::single(TaskId(1), CoreId(0), ms(20.0), ms(50.0), mhz(100.0)),
        ]);
        let conflict = Schedule::new(vec![
            Placement::single(TaskId(0), CoreId(0), ms(0.0), ms(20.0), mhz(100.0)),
            Placement::single(TaskId(1), CoreId(0), ms(10.0), ms(40.0), mhz(100.0)),
        ]);
        let missing = Schedule::new(vec![Placement::single(
            TaskId(0),
            CoreId(0),
            ms(0.0),
            ms(20.0),
            mhz(100.0),
        )]);
        let mut ws = Workspace::new();
        // Reuse one workspace across all cases: results must match the
        // allocating path, including which error is reported first.
        for sched in [&ok, &conflict, &missing, &ok] {
            assert_eq!(
                sched.validate_with_limits_in(&tasks, None, Some(mhz(1900.0)), &mut ws),
                sched.validate_with_limits(&tasks, None, Some(mhz(1900.0)))
            );
        }
    }

    /// The validator as it stood before the merge-joined id check: sorted
    /// placement ids for duplicates, an argsort of the tasks, then two
    /// binary searches per placement. Kept as the differential reference.
    fn reference_validate(
        sched: &Schedule,
        tasks: &TaskSet,
        min_speed: Option<Speed>,
        max_speed: Option<Speed>,
        ws: &mut Workspace,
    ) -> Result<(), ScheduleError> {
        let mut sorted_pids = ws.take_usizes();
        sorted_pids.extend(sched.placements.iter().map(|p| p.task().0));
        sorted_pids.sort_unstable();
        let duplicate = sorted_pids.windows(2).any(|w| w[0] == w[1]);
        let mut task_order = ws.take_usizes();
        task_order.extend(0..tasks.len());
        task_order.sort_unstable_by_key(|&i| tasks.tasks()[i].id().0);
        let find = |id: usize| -> Option<&Task> {
            task_order
                .binary_search_by_key(&id, |&i| tasks.tasks()[i].id().0)
                .ok()
                .map(|pos| &tasks.tasks()[task_order[pos]])
        };
        let unknown = sorted_pids.iter().any(|&id| find(id).is_none());
        let missing = !duplicate && !unknown && sorted_pids.len() != tasks.len();
        let mut result = Ok(());
        if duplicate || unknown || missing {
            let mut seen = ws.take_usizes();
            for p in &sched.placements {
                if tasks.get(p.task()).is_none() || seen.contains(&p.task().0) {
                    result = Err(ScheduleError::UnknownTask(p.task()));
                    break;
                }
                seen.push(p.task().0);
            }
            if result.is_ok() {
                for t in tasks.iter() {
                    if !seen.contains(&t.id().0) {
                        result = Err(ScheduleError::MissingTask(t.id()));
                        break;
                    }
                }
            }
            ws.recycle_usizes(seen);
        }
        ws.recycle_usizes(sorted_pids);
        if let Err(e) = result {
            ws.recycle_usizes(task_order);
            return Err(e);
        }
        for p in &sched.placements {
            let task = find(p.task().0).expect("checked above");
            sched.validate_placement(p, task, min_speed, max_speed)?;
        }
        ws.recycle_usizes(task_order);
        sched.validate_core_exclusivity_in(ws)
    }

    /// One seeded hostile case: 1–8 tasks with dense, sparse, huge or
    /// shuffled ids, a mostly valid schedule on 1–3 cores, then up to
    /// three defects (duplicate, unknown or missing placements, shuffled
    /// order, malformed or non-finite segments, shifted, overlapping or
    /// rescaled segments, crowded cores) and optional speed limits.
    fn hostile_case(seed: u64) -> (TaskSet, Schedule, Option<Speed>, Option<Speed>) {
        use sdem_prng::{Rng, SeedableRng, SplitMix64};
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut pick = |n: u64| (rng.next_u64() % n) as usize;
        let n = 1 + pick(8);
        let id_base = [0, 1000, usize::MAX - 512, 1 << 40][pick(4)];
        let stride = 1 + pick(3) * 17;
        let mut ids: Vec<usize> = (0..n).map(|k| id_base + k * stride).collect();
        for k in (1..n).rev() {
            ids.swap(k, pick(k as u64 + 1));
        }
        let tasks = TaskSet::new(
            ids.iter()
                .map(|&id| {
                    let r = pick(4) as f64 * 5.0;
                    let d = r + 10.0 + pick(40) as f64;
                    let w = if pick(5) == 0 {
                        0.0
                    } else {
                        1.0e5 * (1 + pick(40)) as f64
                    };
                    Task::new(id, ms(r), ms(d), Cycles::new(w))
                })
                .collect(),
        )
        .expect("distinct ids, positive windows");
        let cores = 1 + pick(3);
        let mut placements: Vec<Placement> = tasks
            .iter()
            .map(|t| {
                let (r, d) = (t.release().as_secs(), t.deadline().as_secs());
                let parts = if t.work().value() == 0.0 {
                    0
                } else {
                    1 + pick(3)
                };
                let len = (d - r) / (2 * parts.max(1)) as f64;
                let segs = (0..parts)
                    .map(|k| {
                        let a = r + 2.0 * k as f64 * len;
                        let speed = t.work().value() / (len * parts as f64);
                        Segment::new(
                            Time::from_secs(a),
                            Time::from_secs(a + len),
                            Speed::from_hz(speed),
                        )
                    })
                    .collect();
                Placement::new(t.id(), CoreId(pick(cores as u64)), segs)
            })
            .collect();
        let bad = |x: usize| [f64::NAN, f64::INFINITY, -1.0e-3, 1.0e3][x];
        for _ in 0..pick(4) {
            let k = pick(placements.len().max(1) as u64);
            match pick(11) {
                0 if !placements.is_empty() => placements.push(placements[k].clone()),
                1 if !placements.is_empty() => {
                    let extra = [id_base + n * stride, id_base.wrapping_sub(1), 7][pick(3)];
                    let p = &placements[k];
                    placements[k] = Placement::new(TaskId(extra), p.core(), p.segments().to_vec());
                }
                2 if !placements.is_empty() => {
                    placements.remove(k);
                }
                3 => {
                    for j in (1..placements.len()).rev() {
                        placements.swap(j, pick(j as u64 + 1));
                    }
                }
                v if v >= 4 && !placements.is_empty() && !placements[k].segments().is_empty() => {
                    let p = &placements[k];
                    let mut segs = p.segments().to_vec();
                    let j = pick(segs.len() as u64);
                    let g = segs[j];
                    let (a, b, sp) = (g.start().as_secs(), g.end().as_secs(), g.speed().as_hz());
                    segs[j] = match v {
                        4 => Segment::new(g.end(), g.start(), g.speed()),
                        5 => match pick(3) {
                            0 => Segment::new(Time::from_secs(bad(pick(4))), g.end(), g.speed()),
                            1 => Segment::new(g.start(), Time::from_secs(bad(pick(4))), g.speed()),
                            _ => Segment::new(g.start(), g.end(), Speed::from_hz(bad(pick(4)))),
                        },
                        6 => {
                            let shift = [-0.02, 0.05, 1.0e-9, -1.0e-9][pick(4)];
                            Segment::new(
                                Time::from_secs(a + shift),
                                Time::from_secs(b + shift),
                                g.speed(),
                            )
                        }
                        7 => Segment::new(
                            g.start(),
                            g.end(),
                            Speed::from_hz(sp * [0.5, 1.0 + 1e-7, 2.0][pick(3)]),
                        ),
                        8 => {
                            segs.push(Segment::new(
                                Time::from_secs(a),
                                Time::from_secs(b),
                                Speed::from_hz(0.0),
                            ));
                            g
                        }
                        9 => Segment::new(g.start(), g.start(), g.speed()),
                        _ => Segment::new(g.start(), Time::from_secs(a + (b - a) * 3.0), g.speed()),
                    };
                    placements[k] = Placement::new(p.task(), p.core(), segs);
                }
                _ => {}
            }
        }
        let limit = |x: usize| {
            [Some(Speed::from_hz(1.0e6)), Some(Speed::from_hz(5.0e8))]
                .get(x)
                .copied()
                .flatten()
        };
        (
            tasks,
            Schedule::new(placements),
            limit(pick(5)),
            limit(pick(5)),
        )
    }

    /// Runs `cases` seeded hostile cases through the validator and the
    /// reference on warm workspaces and asserts the same `Result`, first
    /// error included; returns how many each error kind was reported.
    fn differential(cases: u64) -> std::collections::BTreeMap<String, usize> {
        let (mut ws, mut reference_ws) = (Workspace::new(), Workspace::new());
        let mut kinds = std::collections::BTreeMap::new();
        for seed in 0..cases {
            let (tasks, sched, min, max) = hostile_case(seed);
            let got = sched.validate_with_limits_in(&tasks, min, max, &mut ws);
            let want = reference_validate(&sched, &tasks, min, max, &mut reference_ws);
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "seed {seed}");
            let kind = match got {
                Ok(()) => "Ok".to_string(),
                Err(e) => format!("{e:?}")
                    .split(['(', ' '])
                    .next()
                    .unwrap_or("")
                    .to_string(),
            };
            *kinds.entry(kind).or_insert(0) += 1;
        }
        kinds
    }

    #[test]
    fn validator_matches_the_reference_on_hostile_schedules() {
        let kinds = differential(20_000);
        for kind in [
            "Ok",
            "UnknownTask",
            "MissingTask",
            "MalformedSegment",
            "OverlappingSegments",
            "OutsideWindow",
            "WorkMismatch",
            "CoreConflict",
            "SpeedAboveMax",
            "SpeedBelowMin",
        ] {
            assert!(
                kinds.get(kind).copied().unwrap_or(0) >= 100,
                "{kind} rare: {kinds:?}"
            );
        }
    }

    #[test]
    #[ignore = "200,000 cases; run in release"]
    fn validator_matches_the_reference_on_200k_hostile_schedules() {
        let kinds = differential(200_000);
        assert_eq!(kinds.values().sum::<usize>(), 200_000);
    }

    #[test]
    fn push_segment_extends_in_place() {
        let mut p = Placement::new(TaskId(0), CoreId(1), Vec::new());
        p.push_segment(Segment::new(ms(0.0), ms(5.0), mhz(10.0)));
        p.push_segment(Segment::new(ms(5.0), ms(9.0), mhz(20.0)));
        assert_eq!(p.segments().len(), 2);
        assert_eq!(p.end(), Some(ms(9.0)));
    }
}
