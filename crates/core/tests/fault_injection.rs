//! Fault-injection double for the quarantined sweep path.
//!
//! [`FaultyScheduler`] wraps a real scheme behind the [`Scheduler`] trait
//! and, on seed-selected trials, panics mid-solve, returns a NaN
//! predicted energy, or reports the instance infeasible. Driving it
//! through `sdem-exec`'s sweep engine pins the robustness contract
//! end to end:
//!
//! * the sweep completes (exit-0 semantics) despite every injected fault,
//! * the quarantine matches the injected fault set **exactly** — same
//!   trials, same kinds, same seeds — and is identical at any thread
//!   count,
//! * surviving trials are bit-identical to a fault-free run, and
//! * the degraded-mode fallback chain converts scheme rejections into an
//!   explicit degraded-trial count instead of holes in the aggregate.

use sdem_core::{solve_or_fallback_with, Scheduler, Scheme, SdemError, Solution, TrialError};
use sdem_exec::{SweepOutcome, SweepRunner, TrialCtx, TrialFailure};
use sdem_power::Platform;
use sdem_types::{Joules, TaskSet, Time, Workspace};
use sdem_workload::synthetic::{common_release, sporadic, SyntheticConfig};

/// Grid seed shared by the injected and clean sweeps. Chosen so the
/// seed-selection rule below draws at least one fault of every kind
/// (asserted, not assumed, in `quarantine_matches_injected_fault_set`).
const GRID_SEED: u64 = 0xFA_017;
const REPS: usize = 6;
/// Grid points: task count per synthetic instance.
const POINTS: [usize; 4] = [4, 6, 8, 10];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    Panic,
    NanEnergy,
    Infeasible,
}

impl Fault {
    /// The quarantine `kind` this fault must surface as.
    fn expected_kind(self) -> &'static str {
        match self {
            Self::Panic => "solver-panic",
            Self::NanEnergy => "non-finite-energy",
            Self::Infeasible => "scheme-error",
        }
    }
}

/// Seed-selected fault injection: pure in the trial seed, so the
/// selection is invariant under the worker-thread count and the
/// assertions can recompute the injected set independently.
fn fault_for(seed: u64) -> Option<Fault> {
    match seed % 7 {
        0 => Some(Fault::Panic),
        1 => Some(Fault::NanEnergy),
        2 => Some(Fault::Infeasible),
        _ => None,
    }
}

/// Every fault the grid draws, as `(trial_index, fault)` sorted by
/// trial index — the shape the quarantine list must match exactly.
fn injected_set() -> Vec<(usize, Fault)> {
    let mut faults = Vec::new();
    for point in 0..POINTS.len() {
        for replicate in 0..REPS {
            let ctx = TrialCtx::new(GRID_SEED, point, replicate, REPS);
            if let Some(fault) = fault_for(ctx.seed(0)) {
                faults.push((ctx.trial_index(), fault));
            }
        }
    }
    faults
}

/// Test double: a real scheme with one optional injected fault.
struct FaultyScheduler {
    inner: Scheme,
    fault: Option<Fault>,
}

impl Scheduler for FaultyScheduler {
    fn solve_into(
        &self,
        tasks: &TaskSet,
        platform: &Platform,
        ws: &mut Workspace,
    ) -> Result<Solution, SdemError> {
        match self.fault {
            Some(Fault::Panic) => panic!("injected fault: solver panic"),
            Some(Fault::Infeasible) => Err(SdemError::InfeasibleTask(tasks.tasks()[0].id())),
            Some(Fault::NanEnergy) => {
                let sound = self.inner.solve_into(tasks, platform, ws)?;
                let sleep = sound.memory_sleep();
                Ok(Solution::new(
                    sound.into_schedule(),
                    Joules::new(f64::NAN),
                    sleep,
                ))
            }
            None => self.inner.solve_into(tasks, platform, ws),
        }
    }
}

fn make_tasks(n: usize, seed: u64) -> TaskSet {
    common_release(&SyntheticConfig::paper(n, Time::from_millis(250.0)), seed)
}

/// One quarantined trial: solve, recycle the schedule, and insist the
/// predicted energy is finite (the NaN injection must not survive into
/// the aggregates).
fn run_one(
    scheduler: &FaultyScheduler,
    tasks: &TaskSet,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<u64, TrialError> {
    let solution = scheduler.solve_into(tasks, platform, ws)?;
    let energy = solution.predicted_energy();
    ws.recycle_schedule(solution.into_schedule());
    if !energy.value().is_finite() {
        return Err(TrialError::NonFiniteEnergy {
            context: "faulty-scheduler predicted energy",
            value: energy.value(),
        });
    }
    Ok(energy.value().to_bits())
}

/// Runs the grid with (`inject = true`) or without the fault double,
/// returning `(trial_index, energy_bits)` per surviving trial.
fn sweep(inject: bool, threads: usize) -> SweepOutcome<(usize, u64)> {
    let platform = Platform::paper_defaults();
    SweepRunner::new()
        .with_threads(threads)
        .run(&POINTS, REPS, GRID_SEED, Workspace::new, |&n, ctx, ws| {
            let seed = ctx.seed(0);
            let scheduler = FaultyScheduler {
                inner: Scheme::Auto,
                fault: inject.then(|| fault_for(seed)).flatten(),
            };
            let tasks = make_tasks(n, seed);
            run_one(&scheduler, &tasks, &platform, ws)
                .map(|bits| (ctx.trial_index(), bits))
                .map_err(|e| TrialFailure::new(e.kind(), e.to_string()).with_seed(seed))
        })
        .expect("quarantined sweep must complete despite injected faults")
}

#[test]
fn quarantine_matches_injected_fault_set() {
    let expected = injected_set();
    // The grid seed must actually draw every fault kind, or the test
    // proves less than it claims.
    for kind in [Fault::Panic, Fault::NanEnergy, Fault::Infeasible] {
        assert!(
            expected.iter().any(|&(_, f)| f == kind),
            "grid seed never draws {kind:?}; pick another GRID_SEED"
        );
    }

    let outcome = sweep(true, 2);
    assert_eq!(outcome.quarantine.len(), expected.len());
    assert_eq!(outcome.stats.quarantined, expected.len());
    assert!(!outcome.is_partial());

    for (record, &(trial_index, fault)) in outcome.quarantine.iter().zip(&expected) {
        assert_eq!(record.trial_index, trial_index);
        assert_eq!(record.kind, fault.expected_kind());
        // Every record carries the exact SplitMix64 seed of the trial,
        // ready for `sdem repro --seed`.
        let ctx = TrialCtx::new(GRID_SEED, record.point, record.replicate, REPS);
        assert_eq!(record.seed, ctx.seed(0));
        assert_eq!(record.grid_seed, GRID_SEED);
        match fault {
            Fault::Panic => assert!(
                record.detail.contains("injected fault"),
                "{}",
                record.detail
            ),
            Fault::NanEnergy => assert!(record.detail.contains("NaN"), "{}", record.detail),
            Fault::Infeasible => assert!(record.detail.contains("feasible"), "{}", record.detail),
        }
    }
}

#[test]
fn survivors_are_bit_identical_to_a_clean_run_at_any_thread_count() {
    let clean = sweep(false, 2);
    assert!(clean.quarantine.is_empty(), "clean run must not quarantine");

    let injected_1 = sweep(true, 1);
    let injected_4 = sweep(true, 4);

    // Thread invariance: identical survivors and byte-identical records.
    assert_eq!(injected_1.per_point, injected_4.per_point);
    let lines = |o: &SweepOutcome<(usize, u64)>| {
        o.quarantine
            .iter()
            .map(|r| r.to_json_line())
            .collect::<Vec<_>>()
    };
    assert_eq!(lines(&injected_1), lines(&injected_4));

    // Every survivor reproduces the clean run's energy bit for bit.
    let reference: std::collections::BTreeMap<usize, u64> =
        clean.per_point.iter().flatten().copied().collect();
    assert_eq!(reference.len(), POINTS.len() * REPS);
    let mut survivors = 0;
    for &(trial_index, bits) in injected_1.per_point.iter().flatten() {
        assert_eq!(
            Some(&bits),
            reference.get(&trial_index),
            "trial {trial_index} diverged from the clean run"
        );
        survivors += 1;
    }
    // Nothing is lost: survivors + quarantined cover the whole grid.
    assert_eq!(survivors + injected_1.quarantine.len(), POINTS.len() * REPS);
}

#[test]
fn fallback_chain_reports_an_explicit_degraded_count() {
    // Odd trials draw staggered-release (sporadic) sets the strict
    // common-release scheme rejects; the fallback chain must absorb the
    // rejection as a flagged race-to-idle solution, so the aggregate
    // completes over the full grid with a degraded count — not holes.
    let platform = Platform::paper_defaults();
    let outcome = SweepRunner::new()
        .with_threads(2)
        .run(&POINTS, REPS, GRID_SEED, Workspace::new, |&n, ctx, ws| {
            let seed = ctx.seed(0);
            let config = SyntheticConfig::paper(n, Time::from_millis(250.0));
            let tasks = if ctx.trial_index() % 2 == 0 {
                common_release(&config, seed)
            } else {
                sporadic(&config, seed)
            };
            let solution =
                solve_or_fallback_with(&Scheme::CommonReleaseAlphaNonzero, &tasks, &platform, ws)
                    .map_err(|e| {
                    TrialFailure::new(TrialError::from(e.clone()).kind(), e.to_string())
                        .with_seed(seed)
                })?;
            let energy = solution.predicted_energy().value();
            let degraded = solution.is_degraded();
            ws.recycle_schedule(solution.into_schedule());
            if !energy.is_finite() {
                return Err(TrialFailure::new("non-finite-energy", "NaN energy").with_seed(seed));
            }
            Ok((ctx.trial_index(), degraded))
        })
        .expect("fallback sweep must complete");

    // The aggregate is whole: every trial produced a finite solution.
    assert!(outcome.quarantine.is_empty());
    let trials: Vec<(usize, bool)> = outcome.per_point.iter().flatten().copied().collect();
    assert_eq!(trials.len(), POINTS.len() * REPS);

    // The degraded count is explicit and exactly the injected half.
    let degraded: Vec<usize> = trials
        .iter()
        .filter(|&&(_, d)| d)
        .map(|&(i, _)| i)
        .collect();
    let expected: Vec<usize> = (0..POINTS.len() * REPS).filter(|i| i % 2 == 1).collect();
    assert_eq!(degraded, expected);
}

#[test]
fn faulty_scheduler_panic_is_absorbed_by_the_fallback_chain() {
    // `solve_or_fallback_with` contains even a panicking scheduler: the
    // workspace is rebuilt and the race-to-idle baseline answers,
    // flagged degraded.
    let platform = Platform::paper_defaults();
    let tasks = make_tasks(6, 42);
    let mut ws = Workspace::new();
    let panicky = FaultyScheduler {
        inner: Scheme::Auto,
        fault: Some(Fault::Panic),
    };
    let solution = solve_or_fallback_with(&panicky, &tasks, &platform, &mut ws)
        .expect("fallback must absorb the panic");
    assert!(solution.is_degraded());
    assert!(solution.predicted_energy().value().is_finite());

    // A NaN-energy scheduler is likewise replaced by the baseline.
    let nan = FaultyScheduler {
        inner: Scheme::Auto,
        fault: Some(Fault::NanEnergy),
    };
    let solution = solve_or_fallback_with(&nan, &tasks, &platform, &mut ws)
        .expect("fallback must absorb the NaN energy");
    assert!(solution.is_degraded());
    assert!(solution.predicted_energy().value().is_finite());
}
