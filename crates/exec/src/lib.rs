//! The parallel sweep evaluation engine for SDEM experiments.
//!
//! The paper's evaluation (Figs. 6–7) is thousands of independent
//! `(task set × utilization × scheme)` trials. This crate fans such a grid
//! across worker threads while keeping the results **bit-identical to a
//! serial run**:
//!
//! * **Deterministic seeding** — every trial owns an independent seed
//!   stream derived from `(grid_seed, trial_index, attempt)` through
//!   [`sdem_prng::SplitMix64`], so no trial's randomness depends on
//!   scheduling order or thread count.
//! * **Lock-free reduction** — workers pull trial indices from one atomic
//!   cursor and buffer results locally; buffers are merged and sorted by
//!   trial index after the join. No mutex is held while trials run.
//! * **Bounded in-flight memory** — at any instant each worker holds at
//!   most one running trial; the only growing allocation is the result
//!   vector the caller asked for.
//! * **Fault isolation** — a trial returns `Result<T, TrialFailure>`, and
//!   a panicking trial is contained with `catch_unwind` (the poisoned
//!   worker state is discarded): every failure becomes a replayable
//!   [`QuarantineRecord`] instead of aborting the sweep. A panic carrying
//!   [`FATAL_PANIC_PREFIX`] surfaces as [`SweepError::WorkerPanicked`]
//!   after every worker has been joined.
//! * **Checkpoint/resume** — [`SweepRunner::run_checkpointed`] logs each
//!   finished trial to a [`CheckpointJournal`] as it completes, and a
//!   resumed sweep replays the journal and executes only the remainder,
//!   bit-identically to an uninterrupted run (seeds are derived, never
//!   sequential). The file discipline is `sdem_obs::journal`'s, shared
//!   with the replay journal: a torn final line is skipped and ended
//!   before the next record, so a sweep can be killed and resumed any
//!   number of times.
//!
//! The entry point is [`SweepRunner::run`], which takes the grid points,
//! the replication count, a per-worker state constructor and the trial
//! closure, and returns the per-point results, the quarantine and
//! wall-clock/throughput statistics ([`SweepStats`]).
//!
//! # Examples
//!
//! ```
//! use sdem_exec::SweepRunner;
//!
//! // 3 grid points × 4 replications, trial = seeded pseudo-measurement.
//! let points = [1.0f64, 2.0, 3.0];
//! let run = |threads: usize| {
//!     SweepRunner::new()
//!         .with_threads(threads)
//!         .run(&points, 4, 0xD00D, || (), |&p, ctx, _| Ok(p * ctx.seed(0) as f64))
//!         .expect("no fatal panic")
//! };
//! let serial = run(1);
//! let parallel = run(4);
//! assert_eq!(serial.per_point, parallel.per_point); // bit-identical
//! assert_eq!(serial.stats.trials, 12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod fault;

pub use checkpoint::CheckpointJournal;
pub use fault::{QuarantineRecord, SweepError, TrialFailure, FATAL_PANIC_PREFIX};
pub use sdem_types::payload_text;

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sdem_prng::SplitMix64;
use sdem_types::ErrorKind;

/// Per-worker observability accumulator: plain (non-atomic) latency
/// histograms plus trial tallies, owned by exactly one worker while the
/// sweep runs and merged into the global `sdem-obs` registry at join —
/// in worker-index order, so the aggregate is deterministic for any
/// thread count (histogram merges are integer adds, which commute).
///
/// Only populated when observability was enabled when the engine
/// started; otherwise every field stays empty and [`WorkerObs::publish`]
/// is a no-op.
#[derive(Debug)]
struct WorkerObs {
    /// Wall latency of each trial closure invocation, nanoseconds.
    trial_ns: sdem_obs::Histogram,
    /// Wall latency of each sink call (checkpoint journaling /
    /// quarantine recording overhead), nanoseconds.
    sink_ns: sdem_obs::Histogram,
    /// Trials this worker ran.
    trials: u64,
    /// Trials that ended in a failure.
    faults: u64,
}

impl WorkerObs {
    fn new() -> Self {
        Self {
            trial_ns: sdem_obs::Histogram::new(),
            sink_ns: sdem_obs::Histogram::new(),
            trials: 0,
            faults: 0,
        }
    }

    /// Merges this worker's histograms and tallies into the global
    /// registry (no-op when they are empty or observability is off).
    fn publish(self) {
        use sdem_obs::registry::{self, Counter};
        registry::merge_histogram("exec/trial_ns", &self.trial_ns);
        registry::merge_histogram("exec/sink_ns", &self.sink_ns);
        registry::add(Counter::TrialsRun, self.trials);
        registry::add(Counter::TrialsFaulted, self.faults);
    }
}
/// The identity of one trial inside a sweep, carrying its deterministic
/// seed stream.
///
/// Trials are numbered row-major: `trial_index = point * replications +
/// replicate`. The seed for attempt `a` is a pure function of
/// `(grid_seed, trial_index, a)` — independent of which worker runs the
/// trial and of how many workers exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialCtx {
    grid_seed: u64,
    point: usize,
    replicate: usize,
    trial_index: usize,
}

impl TrialCtx {
    /// Builds the context for one `(point, replicate)` cell.
    pub fn new(grid_seed: u64, point: usize, replicate: usize, replications: usize) -> Self {
        Self {
            grid_seed,
            point,
            replicate,
            trial_index: point * replications + replicate,
        }
    }

    /// Index of the grid point this trial belongs to.
    #[inline]
    pub fn point(&self) -> usize {
        self.point
    }

    /// Replicate number within the point (`0..replications`).
    #[inline]
    pub fn replicate(&self) -> usize {
        self.replicate
    }

    /// Flat trial index across the whole grid.
    #[inline]
    pub fn trial_index(&self) -> usize {
        self.trial_index
    }

    /// The deterministic seed for retry `attempt` of this trial. Trials
    /// that resample on infeasible instances draw `seed(0)`, `seed(1)`, …
    /// — a private stream that never collides with other trials'.
    pub fn seed(&self, attempt: u64) -> u64 {
        SplitMix64::mix(&[self.grid_seed, self.trial_index as u64, attempt])
    }

    /// An infinite iterator over this trial's seed stream.
    pub fn seeds(&self) -> impl Iterator<Item = u64> + '_ {
        (0u64..).map(|a| self.seed(a))
    }
}

/// Wall-clock and throughput statistics of one sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepStats {
    /// Grid points evaluated.
    pub points: usize,
    /// Replications requested per point.
    pub replications: usize,
    /// Total trials in the grid (`points × replications`).
    pub trials: usize,
    /// Trials quarantined (structured trial failure, contained panic, …).
    pub quarantined: usize,
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall-clock time of the sweep.
    pub wall: Duration,
    /// `trials / wall` in trials per second.
    pub trials_per_sec: f64,
}

impl std::fmt::Display for SweepStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} trials ({} points × {} reps) in {:.2} s on {} thread(s) — {:.1} trials/s",
            self.trials,
            self.points,
            self.replications,
            self.wall.as_secs_f64(),
            self.threads,
            self.trials_per_sec,
        )?;
        if self.quarantined > 0 {
            write!(f, " [{} quarantined]", self.quarantined)?;
        }
        Ok(())
    }
}

/// The result of a sweep: per-point results, the quarantine and
/// statistics.
///
/// Failed trials are excluded from the aggregates and described by one
/// [`QuarantineRecord`] each, sorted by trial index — so the quarantine
/// list (and its `quarantine.jsonl` serialization) is byte-identical for
/// any worker-thread count.
#[derive(Debug, Clone)]
pub struct SweepOutcome<T> {
    /// `per_point[p]` holds the successful replicate results of point `p`
    /// in replicate order (failed replicates are skipped, preserving the
    /// order of the rest).
    pub per_point: Vec<Vec<T>>,
    /// One record per quarantined trial, sorted by trial index.
    pub quarantine: Vec<QuarantineRecord>,
    /// Wall-clock/throughput statistics (`stats.quarantined` counts the
    /// records in `quarantine`).
    pub stats: SweepStats,
    /// Trials accounted for — executed this run plus any preloaded from
    /// a checkpoint. Less than `stats.trials` only when a trial budget
    /// stopped the sweep early.
    pub completed: usize,
}

impl<T> SweepOutcome<T> {
    /// Whether the sweep stopped before covering the whole grid (trial
    /// budget exhausted). Partial outcomes carry valid but incomplete
    /// aggregates; resume from the checkpoint to finish.
    pub fn is_partial(&self) -> bool {
        self.completed < self.stats.trials
    }
}

/// One finished trial: its flat index and how it ended.
type Finished<T> = (usize, Result<T, TrialFailure>);

/// Observer called once per newly finished trial, from worker threads
/// (the checkpoint journal's append hook).
type TrialSink<'a, T> = &'a (dyn Fn(usize, &Result<T, TrialFailure>) + Sync);

/// Builds the [`QuarantineRecord`] for a failed trial, recomputing the
/// grid coordinates and falling back to the trial's `seed(0)` when the
/// failure did not name the exact failing attempt.
fn record_from(
    grid_seed: u64,
    replications: usize,
    trial_index: usize,
    failure: TrialFailure,
) -> QuarantineRecord {
    let reps = replications.max(1);
    let (point, replicate) = (trial_index / reps, trial_index % reps);
    let seed = failure
        .seed
        .unwrap_or_else(|| TrialCtx::new(grid_seed, point, replicate, replications).seed(0));
    QuarantineRecord {
        trial_index,
        point,
        replicate,
        grid_seed,
        seed,
        kind: failure.kind,
        detail: failure.detail,
        config: failure.config,
    }
}

/// The parallel sweep engine. Construct, optionally bound the thread
/// count or the trial budget, then [`run`](Self::run) a grid.
#[derive(Debug, Clone, Default)]
pub struct SweepRunner {
    threads: Option<NonZeroUsize>,
    trial_budget: Option<NonZeroUsize>,
}

impl SweepRunner {
    /// A runner that uses every available hardware thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the worker count; `0` restores the hardware default.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = NonZeroUsize::new(threads);
        self
    }

    /// Caps the number of trials a sweep newly executes (`0` =
    /// unlimited). Hitting the cap produces a *partial* [`SweepOutcome`]
    /// — the supported way to simulate an interrupted sweep when
    /// exercising checkpoint/resume.
    #[must_use]
    pub fn with_trial_budget(mut self, budget: usize) -> Self {
        self.trial_budget = NonZeroUsize::new(budget);
        self
    }

    /// The worker count a grid of `total` trials uses.
    fn resolved_threads(&self, total: usize) -> usize {
        let hw = self
            .threads
            .map(NonZeroUsize::get)
            .or_else(|| {
                std::thread::available_parallelism()
                    .ok()
                    .map(NonZeroUsize::get)
            })
            .unwrap_or(1);
        hw.min(total.max(1))
    }

    /// Evaluates `trial` over every `(point, replicate)` cell of the grid,
    /// fanning cells across worker threads.
    ///
    /// `trial` receives the grid point, the trial's [`TrialCtx`] and the
    /// worker's state. Each worker owns one state value built by `init`
    /// and reused across its trials — how callers thread a scratch arena
    /// (e.g. `sdem_types::Workspace`) through the sweep with no sharing
    /// and no locking. The state must not influence results (trials stay
    /// pure functions of `(point, ctx)`), which a scratch arena satisfies
    /// by construction: buffers are handed out empty.
    ///
    /// * A trial's `Err` becomes a [`QuarantineRecord`] instead of
    ///   aborting the sweep.
    /// * A panicking trial is contained with `catch_unwind`: the worker
    ///   state (possibly half-mutated by the unwind) is **discarded and
    ///   rebuilt** via `init`, and the panic becomes a `solver-panic`
    ///   record carrying the trial's `seed(0)`.
    /// * A trial budget ([`with_trial_budget`](Self::with_trial_budget))
    ///   may stop the sweep early, yielding a partial outcome.
    ///
    /// Results are regrouped per point in replicate order and the
    /// quarantine is sorted by trial index, so the outcome is **identical
    /// for any thread count** as long as `trial` derives all randomness
    /// from the context.
    ///
    /// # Errors
    ///
    /// [`SweepError::WorkerPanicked`] when a trial panics with a payload
    /// starting with [`FATAL_PANIC_PREFIX`], reported after every worker
    /// has been joined.
    pub fn run<P: Sync, T: Send, S>(
        &self,
        points: &[P],
        replications: usize,
        grid_seed: u64,
        init: impl Fn() -> S + Sync,
        trial: impl Fn(&P, &TrialCtx, &mut S) -> Result<T, TrialFailure> + Sync,
    ) -> Result<SweepOutcome<T>, SweepError> {
        self.sweep(
            points,
            replications,
            grid_seed,
            &init,
            &trial,
            Vec::new(),
            None,
        )
    }

    /// [`run`](Self::run) that journals every finished trial to `journal`
    /// and skips the trials it already holds.
    ///
    /// `encode`/`decode` translate a successful trial result to/from the
    /// journal's line payload; to keep a resumed run bit-identical to an
    /// uninterrupted one they must round-trip results **exactly** (for
    /// floats: `f64::to_bits` hex, not decimal formatting). Pass a journal
    /// from [`CheckpointJournal::new`] to start fresh or from
    /// [`CheckpointJournal::resume`] to continue an interrupted sweep.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run); plus [`SweepError::CheckpointMismatch`] when
    /// a resumed journal was recorded for another grid seed or shape, and
    /// [`SweepError::Checkpoint`] when the journal cannot be written or
    /// holds a result `decode` rejects (the file is left as it was).
    #[allow(clippy::too_many_arguments)]
    pub fn run_checkpointed<P: Sync, T: Send, S>(
        &self,
        points: &[P],
        replications: usize,
        grid_seed: u64,
        init: impl Fn() -> S + Sync,
        trial: impl Fn(&P, &TrialCtx, &mut S) -> Result<T, TrialFailure> + Sync,
        encode: impl Fn(&T) -> String + Sync,
        decode: impl Fn(&str) -> Option<T>,
        journal: &mut CheckpointJournal,
    ) -> Result<SweepOutcome<T>, SweepError> {
        let preloaded = journal.prepare(grid_seed, points.len(), replications, &decode)?;
        let journal: &CheckpointJournal = journal;
        let sink = |i: usize, result: &Result<T, TrialFailure>| match result {
            Ok(t) => journal.append_ok(i, &encode(t)),
            Err(f) => journal.append_fault(i, &record_from(grid_seed, replications, i, f.clone())),
        };
        let outcome = self.sweep(
            points,
            replications,
            grid_seed,
            &init,
            &trial,
            preloaded,
            Some(&sink),
        )?;
        journal.take_error().map_or(Ok(outcome), Err)
    }

    /// [`run`](Self::run) for a trial that returns `None` when it fails.
    /// Kept only for perfbench's `sweep` workload, which ROADMAP.md plans
    /// to move to `run`; the wrapper goes with that move.
    ///
    /// # Panics
    ///
    /// After every worker has been joined, if any trial returned `None`
    /// or panicked, naming the first such trial and its payload.
    pub fn run_with_state<P: Sync, T: Send, S>(
        &self,
        points: &[P],
        replications: usize,
        grid_seed: u64,
        init: impl Fn() -> S + Sync,
        trial: impl Fn(&P, &TrialCtx, &mut S) -> Option<T> + Sync,
    ) -> SweepOutcome<T> {
        let declined =
            || TrialFailure::of(ErrorKind::RetryBudgetExhausted, "the trial returned None");
        let outcome = self
            .run(points, replications, grid_seed, init, |p, ctx, s| {
                trial(p, ctx, s).ok_or_else(declined)
            })
            .unwrap_or_else(|e| panic!("{e}"));
        if let Some(first) = outcome.quarantine.first() {
            panic!(
                "{} trial(s) failed, first: {first}",
                outcome.quarantine.len()
            );
        }
        outcome
    }

    /// The one engine body behind every run method: skips the
    /// `preloaded` trials, fans the rest across workers (containing
    /// per-trial panics and honouring the trial budget), hands each newly
    /// finished trial to `sink`, and regroups the results per point.
    #[allow(clippy::too_many_arguments)]
    fn sweep<P: Sync, T: Send, S>(
        &self,
        points: &[P],
        replications: usize,
        grid_seed: u64,
        init: &(impl Fn() -> S + Sync),
        trial: &(impl Fn(&P, &TrialCtx, &mut S) -> Result<T, TrialFailure> + Sync),
        preloaded: Vec<Finished<T>>,
        sink: Option<TrialSink<'_, T>>,
    ) -> Result<SweepOutcome<T>, SweepError> {
        let total = points.len() * replications;
        let threads = self.resolved_threads(total);
        let started = Instant::now();

        // Mark preloaded (checkpointed) trials done so workers skip them;
        // first occurrence wins if a journal ever repeated an index.
        let mut done = vec![false; total];
        let mut flat = Vec::with_capacity(total);
        for (i, result) in preloaded {
            if i < total && !done[i] {
                done[i] = true;
                flat.push((i, result));
            }
        }

        let cursor = AtomicUsize::new(0);
        let budget = AtomicUsize::new(self.trial_budget.map_or(usize::MAX, NonZeroUsize::get));
        let next = || -> Option<usize> {
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    return None;
                }
                if !done[i] {
                    let claimed = budget
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| b.checked_sub(1))
                        .is_ok();
                    return claimed.then_some(i);
                }
            }
        };

        // One flag read for the whole sweep: per-worker latency
        // histograms are kept only when observability is on at start.
        let obs_on = sdem_obs::registry::enabled();

        let reps = replications.max(1);
        let run_one = |i: usize, state: &mut S, obs: &mut WorkerObs| -> Finished<T> {
            let ctx = TrialCtx::new(grid_seed, i / reps, i % reps, replications);
            let trial_clock = obs_on.then(Instant::now);
            let _span = sdem_obs::trace::span("exec/trial");
            // AssertUnwindSafe: on a caught panic the worker state is
            // discarded and rebuilt, so no half-mutated state is ever
            // observed after the unwind.
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                trial(&points[ctx.point()], &ctx, state)
            }));
            let result = attempt.unwrap_or_else(|payload| {
                let text = payload_text(payload.as_ref());
                if text.starts_with(FATAL_PANIC_PREFIX) {
                    resume_unwind(payload);
                }
                *state = init();
                Err(TrialFailure::panic(text).with_seed(ctx.seed(0)))
            });
            if result.is_err() {
                sdem_obs::trace::instant("exec/trial-fault");
            }
            if let Some(start) = trial_clock {
                obs.trial_ns.record(start.elapsed().as_nanos() as u64);
                obs.trials += 1;
                obs.faults += u64::from(result.is_err());
            }
            if let Some(sink) = sink {
                let sink_clock = obs_on.then(Instant::now);
                sink(i, &result);
                if let Some(start) = sink_clock {
                    obs.sink_ns.record(start.elapsed().as_nanos() as u64);
                }
            }
            (i, result)
        };

        let mut first_panic: Option<(usize, String)> = None;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut state = init();
                        // The work-stealing cursor lets a fast worker
                        // claim more than its even share; size for the
                        // whole sweep so pushes never reallocate.
                        let mut local = Vec::with_capacity(total);
                        let mut obs = WorkerObs::new();
                        while let Some(i) = next() {
                            local.push(run_one(i, &mut state, &mut obs));
                        }
                        (local, obs)
                    })
                })
                .collect();
            // Join every worker before deciding the outcome: one dead
            // worker must not abort the merge while the rest still run.
            // Workers are joined (and their local observability
            // histograms published) in worker-index order, so the
            // metrics merge is as deterministic as the result merge.
            for (worker, handle) in handles.into_iter().enumerate() {
                match handle.join() {
                    Ok((local, obs)) => {
                        obs.publish();
                        flat.extend(local);
                    }
                    Err(payload) => {
                        first_panic.get_or_insert((worker, payload_text(payload.as_ref())));
                    }
                }
            }
        });
        if let Some((worker, payload)) = first_panic {
            return Err(SweepError::WorkerPanicked { worker, payload });
        }
        flat.sort_unstable_by_key(|&(i, _)| i);
        let wall = started.elapsed();

        let completed = flat.len();
        let mut per_point: Vec<Vec<T>> = (0..points.len())
            .map(|_| Vec::with_capacity(replications))
            .collect();
        let mut quarantine = Vec::new();
        for (i, result) in flat {
            match result {
                Ok(t) => per_point[i / reps].push(t),
                Err(f) => quarantine.push(record_from(grid_seed, replications, i, f)),
            }
        }
        let secs = wall.as_secs_f64();
        let stats = SweepStats {
            points: points.len(),
            replications,
            trials: total,
            quarantined: quarantine.len(),
            threads,
            wall,
            trials_per_sec: if secs > 0.0 { total as f64 / secs } else { 0.0 },
        };
        Ok(SweepOutcome {
            per_point,
            quarantine,
            stats,
            completed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_prng::{ChaCha8Rng, Rng, SeedableRng};

    fn measurement(point: &f64, ctx: &TrialCtx, _: &mut ()) -> Result<f64, TrialFailure> {
        // Simulate "infeasible seed" resampling: reject attempt 0 for odd
        // trial indices so the retry path is exercised.
        let attempt = u64::from(ctx.trial_index() % 2 == 1);
        let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed(attempt));
        Ok(point * rng.gen_range(0.0..1.0))
    }

    #[test]
    fn outcome_is_thread_count_invariant() {
        let points: Vec<f64> = (1..=7).map(f64::from).collect();
        let baseline = SweepRunner::new()
            .with_threads(1)
            .run(&points, 5, 99, || (), measurement)
            .unwrap();
        for threads in [2, 4, 8] {
            let parallel = SweepRunner::new()
                .with_threads(threads)
                .run(&points, 5, 99, || (), measurement)
                .unwrap();
            assert_eq!(baseline.per_point, parallel.per_point, "{threads} threads");
            assert_eq!(parallel.stats.trials, 35);
            assert!(parallel.stats.trials_per_sec > 0.0);
        }
    }

    #[test]
    fn seeds_are_unique_across_trials_and_attempts() {
        let mut seen = std::collections::HashSet::new();
        for point in 0..16 {
            for replicate in 0..16 {
                let ctx = TrialCtx::new(7, point, replicate, 16);
                for attempt in 0..4 {
                    assert!(seen.insert(ctx.seed(attempt)), "seed collision");
                }
            }
        }
        // A different grid seed shifts every stream.
        let a = TrialCtx::new(7, 0, 0, 16).seed(0);
        let b = TrialCtx::new(8, 0, 0, 16).seed(0);
        assert_ne!(a, b);
    }

    #[test]
    fn per_worker_state_is_reused_and_results_stay_invariant() {
        let points: Vec<f64> = (1..=6).map(f64::from).collect();
        // The state is a scratch Vec each trial fills and drains — results
        // must not depend on it, and the outcome must stay thread-count
        // invariant.
        let run = |threads: usize| {
            SweepRunner::new().with_threads(threads).run_with_state(
                &points,
                4,
                42,
                Vec::<f64>::new,
                |&p, ctx, scratch| {
                    scratch.push(p);
                    let r = p * ctx.seed(0) as f64;
                    scratch.clear();
                    Some(r)
                },
            )
        };
        let serial = run(1);
        for threads in [2, 8] {
            assert_eq!(
                serial.per_point,
                run(threads).per_point,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn failures_are_counted_and_skipped() {
        let points = [0usize, 1, 2];
        let outcome = SweepRunner::new()
            .with_threads(2)
            .run(
                &points,
                4,
                0,
                || (),
                |&p, ctx, _| {
                    // Point 1 always fails; others succeed.
                    (p != 1)
                        .then_some(ctx.replicate())
                        .ok_or_else(|| TrialFailure::new("declined", "point 1"))
                },
            )
            .unwrap();
        assert_eq!(outcome.stats.quarantined, 4);
        assert_eq!(outcome.per_point[0], vec![0, 1, 2, 3]);
        assert!(outcome.per_point[1].is_empty());
        assert_eq!(outcome.per_point[2], vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_grid_is_fine() {
        let outcome = SweepRunner::new()
            .run(&[] as &[f64], 3, 0, || (), |_, _, _| Ok(0.0))
            .unwrap();
        assert!(outcome.per_point.is_empty());
        assert_eq!(outcome.stats.trials, 0);
        let outcome = SweepRunner::new()
            .run(&[1.0], 0, 0, || (), |_, _, _| Ok(0.0))
            .unwrap();
        assert_eq!(outcome.per_point.len(), 1);
        assert!(outcome.per_point[0].is_empty());
    }

    #[test]
    fn stats_display_is_informative() {
        let outcome = SweepRunner::new()
            .with_threads(2)
            .run(&[1.0, 2.0], 2, 0, || (), |&p, _, _| Ok(p))
            .unwrap();
        let s = outcome.stats.to_string();
        assert!(s.contains("4 trials"));
        assert!(s.contains("trials/s"));
        assert!(!s.contains("quarantined"));

        let mut stats = outcome.stats;
        stats.quarantined = 3;
        assert!(stats.to_string().contains("[3 quarantined]"));
    }

    /// A trial that panics on every index ≡ 0 (mod 5), returns a
    /// structured failure on every index ≡ 1 (mod 5), and succeeds
    /// otherwise — selection is a pure function of the trial index so
    /// every thread count injects the same set.
    fn faulty_trial(point: &f64, ctx: &TrialCtx, _: &mut ()) -> Result<u64, TrialFailure> {
        match ctx.trial_index() % 5 {
            0 => panic!("injected fault: solver panic (trial {})", ctx.trial_index()),
            1 => Err(TrialFailure::new("non-finite-energy", "injected NaN")
                .with_seed(ctx.seed(3))
                .with_config("--injected")),
            _ => Ok(ctx.seed(0) ^ point.to_bits()),
        }
    }

    #[test]
    fn quarantine_contains_faults_and_stays_thread_invariant() {
        let points: Vec<f64> = (1..=5).map(f64::from).collect();
        let run = |threads: usize| {
            SweepRunner::new()
                .with_threads(threads)
                .run(&points, 4, 0xFA11, || (), faulty_trial)
                .expect("no fatal error")
        };
        let baseline = run(1);
        assert_eq!(baseline.stats.trials, 20);
        assert_eq!(baseline.stats.quarantined, 8); // 4 panics + 4 failures
        assert!(!baseline.is_partial());
        let kinds: Vec<&str> = baseline
            .quarantine
            .iter()
            .map(|r| r.kind.as_str())
            .collect();
        assert_eq!(kinds.iter().filter(|k| **k == "solver-panic").count(), 4);
        assert_eq!(
            kinds.iter().filter(|k| **k == "non-finite-energy").count(),
            4
        );
        // Structured failures keep the attempt seed they reported; panics
        // fall back to seed(0).
        for record in &baseline.quarantine {
            let ctx = TrialCtx::new(0xFA11, record.point, record.replicate, 4);
            let expected = if record.kind == "solver-panic" {
                ctx.seed(0)
            } else {
                ctx.seed(3)
            };
            assert_eq!(record.seed, expected);
            assert!(record.detail.contains("injected"));
        }
        for threads in [4, 8] {
            let parallel = run(threads);
            assert_eq!(baseline.per_point, parallel.per_point, "{threads} threads");
            assert_eq!(
                baseline.quarantine, parallel.quarantine,
                "{threads} threads"
            );
            let serialize = |o: &SweepOutcome<u64>| {
                o.quarantine
                    .iter()
                    .map(|r| r.to_json_line())
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(serialize(&baseline), serialize(&parallel));
        }
    }

    #[test]
    fn poisoned_worker_state_is_discarded_and_rebuilt() {
        // The trial marks the state dirty *before* panicking; if the
        // engine reused the unwound state, later trials would see the
        // mark and report "leaked".
        let outcome = SweepRunner::new()
            .with_threads(1)
            .run(
                &[0u8; 3],
                4,
                7,
                || false,
                |_, ctx, dirty: &mut bool| {
                    if *dirty {
                        return Err(TrialFailure::new("leaked", "saw poisoned state"));
                    }
                    if ctx.trial_index() == 2 {
                        *dirty = true;
                        panic!("injected fault");
                    }
                    Ok(ctx.trial_index())
                },
            )
            .expect("no fatal error");
        assert_eq!(outcome.stats.quarantined, 1);
        assert_eq!(outcome.quarantine[0].kind, "solver-panic");
        assert!(outcome.quarantine.iter().all(|r| r.kind != "leaked"));
    }

    #[test]
    fn fatal_panics_escalate_to_worker_panicked() {
        for threads in [1, 2] {
            let result = SweepRunner::new().with_threads(threads).run(
                &[0u8; 2],
                3,
                1,
                || (),
                |_, ctx, _| -> Result<(), TrialFailure> {
                    if ctx.trial_index() == 4 {
                        panic!("{FATAL_PANIC_PREFIX}sim-oracle failure: injected");
                    }
                    Ok(())
                },
            );
            match result {
                Err(SweepError::WorkerPanicked { payload, .. }) => {
                    assert!(payload.contains("sim-oracle failure"), "{payload}");
                }
                other => panic!("expected WorkerPanicked at {threads} threads, got {other:?}"),
            }
        }
    }

    #[test]
    fn uncontained_worker_panic_is_drained_and_reported() {
        // A fatal panic kills its worker; the others drain the grid before
        // the sweep reports it.
        let ran = AtomicUsize::new(0);
        let result = SweepRunner::new().with_threads(4).run(
            &[0u8; 4],
            4,
            9,
            || (),
            |_, ctx, _| {
                ran.fetch_add(1, Ordering::Relaxed);
                if ctx.trial_index() == 7 {
                    panic!("{FATAL_PANIC_PREFIX}boom at trial 7");
                }
                Ok(ctx.trial_index())
            },
        );
        match result {
            Err(SweepError::WorkerPanicked { payload, .. }) => {
                assert!(payload.contains("boom at trial 7"), "{payload}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        assert_eq!(ran.load(Ordering::Relaxed), 16);

        // The `Option` wrapper aborts after the join, naming the failed
        // trial and its payload.
        let caught = std::panic::catch_unwind(|| {
            SweepRunner::new().with_threads(4).run_with_state(
                &[0u8; 4],
                4,
                9,
                || (),
                |_, ctx, _| {
                    if ctx.trial_index() == 7 {
                        panic!("boom at trial 7");
                    }
                    Some(ctx.trial_index())
                },
            )
        })
        .unwrap_err();
        let text = payload_text(caught.as_ref());
        assert!(text.contains("trial 7 (point 1, replicate 3)"), "{text}");
        assert!(text.contains("boom at trial 7"), "{text}");
    }

    fn checkpoint_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sdem_exec_{tag}_{}.jsonl", std::process::id()))
    }

    fn encode_u64(v: &u64) -> String {
        format!("{v:016x}")
    }

    fn decode_u64(s: &str) -> Option<u64> {
        u64::from_str_radix(s, 16).ok()
    }

    #[test]
    fn checkpointed_halt_then_resume_is_bit_identical() {
        let points: Vec<f64> = (1..=4).map(f64::from).collect();
        let path = checkpoint_path("resume");

        // Uninterrupted reference run (no checkpoint involved).
        let reference = SweepRunner::new()
            .with_threads(2)
            .run(&points, 5, 0xC0DE, || (), faulty_trial)
            .expect("no fatal error");

        // Interrupted run: the budget halts after 7 newly executed trials.
        let mut journal = CheckpointJournal::new(&path);
        let partial = SweepRunner::new()
            .with_threads(2)
            .with_trial_budget(7)
            .run_checkpointed(
                &points,
                5,
                0xC0DE,
                || (),
                faulty_trial,
                encode_u64,
                decode_u64,
                &mut journal,
            )
            .expect("no fatal error");
        assert!(partial.is_partial());
        assert_eq!(partial.completed, 7);

        // Resume with a different thread count; the union must match the
        // uninterrupted run exactly.
        let mut journal = CheckpointJournal::resume(&path).expect("journal parses");
        assert_eq!(journal.preloaded(), 7);
        let resumed = SweepRunner::new()
            .with_threads(3)
            .run_checkpointed(
                &points,
                5,
                0xC0DE,
                || (),
                faulty_trial,
                encode_u64,
                decode_u64,
                &mut journal,
            )
            .expect("no fatal error");
        assert!(!resumed.is_partial());
        assert_eq!(resumed.per_point, reference.per_point);
        assert_eq!(resumed.quarantine, reference.quarantine);
        assert_eq!(resumed.stats.quarantined, reference.stats.quarantined);

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_grids() {
        let path = checkpoint_path("mismatch");
        let mut journal = CheckpointJournal::new(&path);
        SweepRunner::new()
            .with_threads(1)
            .run_checkpointed(
                &[1.0f64, 2.0],
                2,
                111,
                || (),
                faulty_trial,
                encode_u64,
                decode_u64,
                &mut journal,
            )
            .expect("no fatal error");

        let mut journal = CheckpointJournal::resume(&path).expect("journal parses");
        let err = SweepRunner::new()
            .with_threads(1)
            .run_checkpointed(
                &[1.0f64, 2.0],
                2,
                222, // different grid seed
                || (),
                faulty_trial,
                encode_u64,
                decode_u64,
                &mut journal,
            )
            .expect_err("grid seed mismatch must be rejected");
        assert!(
            matches!(err, SweepError::CheckpointMismatch { .. }),
            "{err}"
        );

        // Missing file is a checkpoint error, not a panic.
        let missing = CheckpointJournal::resume(checkpoint_path("missing"));
        assert!(matches!(missing, Err(SweepError::Checkpoint { .. })));

        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn undecodable_journaled_result_fails_the_resume_and_keeps_the_file() {
        // A record that parses as JSON but whose `ok` payload the decoder
        // rejects was written by another encoder: the resume fails naming
        // the trial instead of rerunning it, and writes nothing.
        let path = checkpoint_path("undecodable");
        let header = "{\"sdem_checkpoint\":1,\"grid_seed\":\"0x0000000000000005\",\
                      \"points\":1,\"replications\":2}";
        let text = format!("{header}\n{{\"trial\":1,\"ok\":\"not hex\"}}\n");
        std::fs::write(&path, &text).unwrap();
        let mut journal = CheckpointJournal::resume(&path).expect("journal parses");
        assert_eq!(journal.preloaded(), 1);
        let err = SweepRunner::new()
            .run_checkpointed(
                &[0u8],
                2,
                5,
                || (),
                |_, ctx, _| Ok(ctx.seed(0)),
                encode_u64,
                decode_u64,
                &mut journal,
            )
            .expect_err("an undecodable result must fail the resume");
        match err {
            SweepError::Checkpoint { detail, .. } => {
                assert!(detail.contains("trial 1: undecodable"), "{detail}");
            }
            other => panic!("expected a checkpoint error, got {other}"),
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trial_budget_zero_means_unlimited() {
        let outcome = SweepRunner::new()
            .with_trial_budget(0)
            .run(&[1.0f64], 4, 3, || (), |_, ctx, _| Ok(ctx.seed(0)))
            .expect("no fatal error");
        assert!(!outcome.is_partial());
        assert_eq!(outcome.completed, 4);
    }
}
