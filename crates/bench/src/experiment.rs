//! One evaluation trial: schedule the same task set with SDEM-ON, MBKP and
//! MBKPS and meter all three on the same platform.
//!
//! Trial failures are reported through the workspace-wide
//! [`TrialError`] taxonomy (re-exported from `sdem-core`); the quarantined
//! entry points additionally convert them into the string-based
//! [`sdem_exec::TrialFailure`] records the sweep engine journals.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use sdem_baselines::mbkp::{self, Assignment};
use sdem_core::online::schedule_online_in;
pub use sdem_core::TrialError;
use sdem_core::{relative_divergence, Solution};
use sdem_exec::{payload_text, TrialCtx, TrialFailure, FATAL_PANIC_PREFIX};
use sdem_power::Platform;
use sdem_sim::{
    simulate_event_driven_in, simulate_with_options_in, EnergyReport, SimOptions, SleepPolicy,
};
use sdem_types::{Joules, TaskSet, Time, Workspace};

/// The metered schedules of one trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// SDEM-ON (the paper's heuristic): memory sleeps when profitable.
    pub sdem_on: EnergyReport,
    /// MBKP: multi-core OA, memory never sleeps.
    pub mbkp: EnergyReport,
    /// MBKPS: the MBKP schedule with opportunistic memory sleeping — it
    /// sleeps whatever common idle the schedule happens to have (without
    /// shaping it), skipping gaps shorter than the break-even time. This
    /// matches the paper's observation that MBKPS degenerates to MBKP at
    /// high utilization rather than falling below it.
    pub mbkps: EnergyReport,
    /// Ablation: MBKPS pricing sleep *literally* on every gap, paying the
    /// round trip even when unprofitable.
    pub mbkps_always: EnergyReport,
    /// Peak number of cores SDEM-ON used (the paper assumes ≤ 8).
    pub sdem_cores_used: usize,
}

impl TrialResult {
    /// System-wide energy saving of SDEM-ON relative to MBKP:
    /// `1 − E_SDEM / E_MBKP`.
    pub fn sdem_system_saving_vs_mbkp(&self) -> f64 {
        1.0 - self.sdem_on.total().value() / self.mbkp.total().value()
    }

    /// System-wide energy saving of MBKPS relative to MBKP.
    pub fn mbkps_system_saving_vs_mbkp(&self) -> f64 {
        1.0 - self.mbkps.total().value() / self.mbkp.total().value()
    }

    /// Memory static-energy saving of SDEM-ON relative to MBKP (Fig. 6a).
    pub fn sdem_memory_saving_vs_mbkp(&self) -> f64 {
        1.0 - self.sdem_on.memory_total().value() / self.mbkp.memory_total().value()
    }

    /// Memory static-energy saving of MBKPS relative to MBKP (Fig. 6a).
    pub fn mbkps_memory_saving_vs_mbkp(&self) -> f64 {
        1.0 - self.mbkps.memory_total().value() / self.mbkp.memory_total().value()
    }

    /// Relative system-energy improvement of SDEM-ON over MBKPS
    /// (the Fig. 7 metric): `1 − E_SDEM / E_MBKPS`.
    pub fn sdem_improvement_over_mbkps(&self) -> f64 {
        1.0 - self.sdem_on.total().value() / self.mbkps.total().value()
    }

    /// Checks every metered system total for NaN/∞, returning the first
    /// offender as a [`TrialError::NonFiniteEnergy`]. The quarantined sweep
    /// path runs this on every trial so a poisoned simulation is recorded
    /// instead of silently skewing the aggregates.
    pub fn ensure_finite(&self) -> Result<(), TrialError> {
        for (context, report) in [
            ("SDEM-ON system energy", &self.sdem_on),
            ("MBKP system energy", &self.mbkp),
            ("MBKPS system energy", &self.mbkps),
            ("MBKPS-always system energy", &self.mbkps_always),
        ] {
            let value = report.total().value();
            if !value.is_finite() {
                return Err(TrialError::NonFiniteEnergy { context, value });
            }
        }
        Ok(())
    }
}

/// How a trial treats the sim-oracle cross-check: the one oracle value
/// the CLI builds from `--oracle`, `--oracle-tol` and
/// `--oracle-keep-going` and hands to every trial.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum OracleCheck {
    /// No cross-check.
    #[default]
    Off,
    /// Cross-check at the given relative tolerance; divergence panics with
    /// the [`FATAL_PANIC_PREFIX`] so even a panic-containing sweep worker
    /// re-raises it (a diverging oracle is a correctness bug, not a bad
    /// seed). This is the historical default.
    FailFast(f64),
    /// Cross-check at the given relative tolerance; divergence is returned
    /// as [`TrialError::OracleDivergence`] carrying both energies, so the
    /// sweep can quarantine the trial and keep going.
    Quarantine(f64),
}

impl OracleCheck {
    /// The relative tolerance of an armed check, or `None` when off.
    pub fn tolerance(self) -> Option<f64> {
        match self {
            Self::Off => None,
            Self::FailFast(t) | Self::Quarantine(t) => Some(t),
        }
    }

    /// One comparison: `predicted` against `metered` through
    /// [`relative_divergence`] at `tol`. On divergence `name` names the
    /// check — called only then, so a passing check allocates nothing —
    /// and the [`TrialError::OracleDivergence`] is raised according to
    /// the mode: fail-fast panics (with the fatal prefix), quarantine
    /// returns it.
    fn check(
        self,
        tol: f64,
        predicted: Joules,
        metered: Joules,
        name: impl FnOnce() -> String,
    ) -> Result<(), TrialError> {
        let relative = relative_divergence(predicted, metered);
        if relative <= tol {
            return Ok(());
        }
        let err = TrialError::OracleDivergence {
            check: name(),
            predicted: predicted.value(),
            metered: metered.value(),
            relative,
            tolerance: tol,
        };
        if let Self::FailFast(_) = self {
            panic!("{FATAL_PANIC_PREFIX}{err}");
        }
        Err(err)
    }
}

/// [`run_trial_checked_in`] with a fresh workspace — the allocating entry
/// point the `sdem repro` subcommand uses to replay a quarantined seed.
///
/// # Errors
///
/// Returns the trial's [`TrialError`]; see [`run_trial_checked_in`].
pub fn run_trial_checked(
    tasks: &TaskSet,
    platform: &Platform,
    cores: usize,
    oracle: OracleCheck,
) -> Result<TrialResult, TrialError> {
    run_trial_checked_in(tasks, platform, cores, oracle, &mut Workspace::new())
}

/// The single trial implementation behind the sweeps' replicate runner
/// [`run_trial_quarantined_in`] and `sdem repro`: schedules SDEM-ON and
/// MBKP, meters SDEM-ON with `WhenProfitable` memory sleeping and the
/// MBKP schedule three ways (MBKP: `NeverSleep`; MBKPS: `WhenProfitable`;
/// the ablation: `AlwaysSleep`), all with profitable core sleeping,
/// optionally cross-checks against the oracle, and reports every failure
/// through the [`TrialError`] taxonomy.
///
/// All scheduling and metering scratch comes from `ws`, and both
/// schedules are recycled back into it before returning, so a sweep
/// worker reusing one workspace runs its trials without growing the heap.
///
/// # Panics
///
/// Only with [`OracleCheck::FailFast`], on oracle divergence — using the
/// [`FATAL_PANIC_PREFIX`] so panic-containing sweeps re-raise it.
///
/// # Errors
///
/// * [`TrialError::Scheme`] / [`TrialError::Baseline`] when a scheduler
///   finds the instance infeasible (resamplable);
/// * [`TrialError::Simulation`] when a produced schedule fails the meter's
///   validation;
/// * [`TrialError::NonFiniteEnergy`] when any metered total is NaN/∞;
/// * [`TrialError::OracleDivergence`] (quarantine mode only) when the
///   analytic accounting, interval meter and event engine disagree.
pub fn run_trial_checked_in(
    tasks: &TaskSet,
    platform: &Platform,
    cores: usize,
    oracle: OracleCheck,
    ws: &mut Workspace,
) -> Result<TrialResult, TrialError> {
    // Per-scheme solve latency + trace spans for the sweep's two actual
    // solver invocations (one relaxed load each when observability is
    // off; `Scheme::solve_into` covers the CLI's generic path the same
    // way).
    let clock = sdem_obs::registry::maybe_start();
    let sdem_schedule = {
        let _span = sdem_obs::trace::span("solve/sdem-on");
        schedule_online_in(tasks, platform, ws)?
    };
    sdem_obs::registry::record_elapsed("solve/sdem-on", clock);
    let clock = sdem_obs::registry::maybe_start();
    let mbkp_schedule = {
        let _span = sdem_obs::trace::span("solve/mbkp");
        mbkp::schedule_online_in(tasks, platform, cores, Assignment::RoundRobin, ws)
            .map_err(|e| TrialError::Baseline(e.to_string()))?
    };
    sdem_obs::registry::record_elapsed("solve/mbkp", clock);

    let profit = SimOptions::uniform(SleepPolicy::WhenProfitable);
    let never = SimOptions {
        memory_policy: SleepPolicy::NeverSleep,
        ..profit
    };
    let always = SimOptions {
        memory_policy: SleepPolicy::AlwaysSleep,
        ..profit
    };

    let clock = sdem_obs::registry::maybe_start();
    let _span = sdem_obs::trace::span("simulate/trial-meters");
    let sdem_on = simulate_with_options_in(&sdem_schedule, tasks, platform, profit, ws)?;
    let mbkp_report = simulate_with_options_in(&mbkp_schedule, tasks, platform, never, ws)?;
    let mbkps_report = simulate_with_options_in(&mbkp_schedule, tasks, platform, profit, ws)?;
    let mbkps_always = simulate_with_options_in(&mbkp_schedule, tasks, platform, always, ws)?;
    sdem_obs::registry::record_elapsed("simulate/trial-meters", clock);
    drop(_span);

    if let Some(tol) = oracle.tolerance() {
        // Analytic accounting vs the interval meter: the closed form priced
        // on the SDEM-ON schedule against the `profit` report metered above
        // (the same schedule and options, so a second meter pass would
        // return the same bits). A divergence is counted before it is
        // raised.
        sdem_obs::registry::incr(sdem_obs::Counter::OracleChecks);
        {
            let _span = sdem_obs::trace::span("oracle/verify");
            let (predicted, _) = Solution::price_in(&sdem_schedule, platform, ws);
            oracle.check(tol, predicted, sdem_on.total(), || {
                sdem_obs::registry::incr(sdem_obs::Counter::OracleFailures);
                "SDEM-ON analytic vs meter".to_string()
            })?;
        }
        // Interval meter vs the event-driven engine on both schedules.
        for (name, schedule, opts, metered) in [
            ("SDEM-ON/profitable", &sdem_schedule, profit, &sdem_on),
            ("MBKP/never-sleep", &mbkp_schedule, never, &mbkp_report),
            ("MBKPS/profitable", &mbkp_schedule, profit, &mbkps_report),
        ] {
            let engine = simulate_event_driven_in(schedule, tasks, platform, opts, ws)?;
            oracle.check(tol, engine.total(), metered.total(), || {
                format!("{name} event engine vs meter")
            })?;
        }
    }

    let sdem_cores_used = {
        let mut cores = ws.take_core_ids();
        sdem_schedule.cores_into(&mut cores);
        let n = cores.len();
        ws.recycle_core_ids(cores);
        n
    };
    ws.recycle_schedule(sdem_schedule);
    ws.recycle_schedule(mbkp_schedule);

    let result = TrialResult {
        sdem_on,
        mbkp: mbkp_report,
        mbkps: mbkps_report,
        mbkps_always,
        sdem_cores_used,
    };
    result.ensure_finite()?;
    Ok(result)
}

/// Seed-resampling budget of one replicate: a trial draws at most this
/// many seeds from its private stream before it is recorded as failed.
pub const MAX_ATTEMPTS_PER_TRIAL: usize = 16;

/// Which synthetic fault an injected trial suffers. Selection is a pure
/// function of the trial index, so injection is thread-count invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InjectedFault {
    /// Panic inside the trial closure before any work happens.
    Panic,
    /// Poison the finished result with a NaN energy.
    NanEnergy,
}

/// Deterministic fault injection for robustness smokes: the first
/// `panics` trial indices panic inside the solver, the next `nans` return
/// a NaN energy. Because selection keys on the trial index alone, the
/// same trials fault at any thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Trials `0..panics` panic mid-trial.
    pub panics: usize,
    /// Trials `panics..panics+nans` produce a NaN system energy.
    pub nans: usize,
}

impl FaultInjection {
    /// Parses a `key=N[,key=N]` spec, e.g. `panics=3,nans=2`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed parts or unknown
    /// keys (the CLI prints it verbatim).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = Self::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad injection `{part}`; expected key=N"))?;
            let count: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("bad injection count `{}`", value.trim()))?;
            match key.trim() {
                "panics" => out.panics = count,
                "nans" => out.nans = count,
                other => {
                    return Err(format!(
                        "unknown injection kind `{other}` (expected panics or nans)"
                    ))
                }
            }
        }
        Ok(out)
    }

    /// Whether no faults are injected at all.
    pub fn is_empty(&self) -> bool {
        self.panics == 0 && self.nans == 0
    }

    fn kind_for(&self, trial_index: usize) -> Option<InjectedFault> {
        if trial_index < self.panics {
            Some(InjectedFault::Panic)
        } else if trial_index < self.panics + self.nans {
            Some(InjectedFault::NanEnergy)
        } else {
            None
        }
    }
}

/// Runs one replicate of a sweep: draws task sets from the trial's private
/// seed stream until one is feasible (at most [`MAX_ATTEMPTS_PER_TRIAL`]
/// seeds; because the stream belongs to the trial alone, the result does
/// not depend on scheduling order or thread count), and converts every
/// non-resamplable failure — a solver panic (caught per attempt, so the
/// [`TrialFailure`] carries the exact seed that crashed), a NaN energy, an
/// oracle divergence in keep-going mode, or an exhausted retry budget —
/// into a structured [`TrialFailure`] for the quarantine journal.
///
/// With an armed `oracle`, every attempt is cross-checked; see
/// [`run_trial_checked_in`].
///
/// `config` builds an opaque reproduction string (typically the
/// equivalent `sdem repro` flags) stored verbatim in the failure record;
/// it is called only when the replicate fails. `inject` deterministically
/// fabricates faults for robustness smokes; pass
/// [`FaultInjection::default`] for none.
///
/// # Panics
///
/// Re-raises panics carrying the [`FATAL_PANIC_PREFIX`] — in particular
/// oracle divergence under [`OracleCheck::FailFast`] — so genuine
/// correctness bugs still abort the sweep.
///
/// # Errors
///
/// Returns the structured [`TrialFailure`] to be quarantined.
#[allow(clippy::too_many_arguments)]
pub fn run_trial_quarantined_in(
    make_tasks: impl Fn(u64) -> TaskSet,
    platform: &Platform,
    cores: usize,
    ctx: &TrialCtx,
    oracle: OracleCheck,
    inject: FaultInjection,
    config: impl Fn() -> String,
    ws: &mut Workspace,
) -> Result<TrialResult, TrialFailure> {
    let injected = inject.kind_for(ctx.trial_index());
    let quarantine = |e: &TrialError, seed: u64| {
        TrialFailure::new(e.kind(), e.to_string())
            .with_seed(seed)
            .with_config(config())
    };

    for (attempt, seed) in ctx.seeds().take(MAX_ATTEMPTS_PER_TRIAL).enumerate() {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if attempt == 0 && injected == Some(InjectedFault::Panic) {
                panic!("injected fault: solver panic (trial {})", ctx.trial_index());
            }
            // The drawn set is dropped, not recycled: the trial takes no
            // task arena back out, so recycling it would grow the pool by
            // one buffer per replicate.
            run_trial_checked_in(&make_tasks(seed), platform, cores, oracle, ws)
        }));
        match outcome {
            Err(payload) => {
                let text = payload_text(payload.as_ref());
                if text.starts_with(FATAL_PANIC_PREFIX) {
                    resume_unwind(payload);
                }
                // The unwind may have left half-recycled pools behind;
                // rebuild the workspace before anyone reuses it.
                *ws = Workspace::new();
                return Err(TrialFailure::panic(text)
                    .with_seed(seed)
                    .with_config(config()));
            }
            Ok(Ok(mut result)) => {
                if injected == Some(InjectedFault::NanEnergy) {
                    result.sdem_on.core_dynamic = Joules::new(f64::NAN);
                }
                if let Err(e) = result.ensure_finite() {
                    return Err(quarantine(&e, seed));
                }
                return Ok(result);
            }
            Ok(Err(e)) if e.is_resamplable() => {
                sdem_obs::registry::incr(sdem_obs::Counter::TrialsResampled);
                continue;
            }
            Ok(Err(e)) => return Err(quarantine(&e, seed)),
        }
    }
    let e = TrialError::RetryBudgetExhausted {
        attempts: MAX_ATTEMPTS_PER_TRIAL,
    };
    Err(quarantine(&e, ctx.seed(0)))
}

/// Encodes a [`TrialResult`] as one deterministic, bit-exact text line for
/// the checkpoint journal: 41 space-separated tokens — for each of the
/// four reports, six energies and two times as 16-hex-digit `f64::to_bits`
/// plus two decimal counters, then the peak core count.
pub fn encode_trial_result(r: &TrialResult) -> String {
    let mut tokens: Vec<String> = Vec::with_capacity(41);
    for report in [&r.sdem_on, &r.mbkp, &r.mbkps, &r.mbkps_always] {
        for joules in [
            report.core_dynamic,
            report.core_static,
            report.core_transition,
            report.memory_static,
            report.memory_dynamic,
            report.memory_transition,
        ] {
            tokens.push(format!("{:016x}", joules.value().to_bits()));
        }
        for time in [report.memory_awake_time, report.memory_sleep_time] {
            tokens.push(format!("{:016x}", time.value().to_bits()));
        }
        tokens.push(report.memory_sleeps.to_string());
        tokens.push(report.core_sleeps.to_string());
    }
    tokens.push(r.sdem_cores_used.to_string());
    tokens.join(" ")
}

fn next_bits(tokens: &mut std::str::SplitAsciiWhitespace<'_>) -> Option<f64> {
    Some(f64::from_bits(
        u64::from_str_radix(tokens.next()?, 16).ok()?,
    ))
}

fn next_count(tokens: &mut std::str::SplitAsciiWhitespace<'_>) -> Option<usize> {
    tokens.next()?.parse().ok()
}

fn next_report(tokens: &mut std::str::SplitAsciiWhitespace<'_>) -> Option<EnergyReport> {
    Some(EnergyReport {
        core_dynamic: Joules::new(next_bits(tokens)?),
        core_static: Joules::new(next_bits(tokens)?),
        core_transition: Joules::new(next_bits(tokens)?),
        memory_static: Joules::new(next_bits(tokens)?),
        memory_dynamic: Joules::new(next_bits(tokens)?),
        memory_transition: Joules::new(next_bits(tokens)?),
        memory_awake_time: Time::from_secs(next_bits(tokens)?),
        memory_sleep_time: Time::from_secs(next_bits(tokens)?),
        memory_sleeps: next_count(tokens)?,
        core_sleeps: next_count(tokens)?,
    })
}

/// Inverse of [`encode_trial_result`]. Returns `None` on any malformed or
/// missing token. A resumed sweep does not rerun such a trial: the resume
/// fails with a `checkpoint-error` naming the trial, since a record that
/// parses but whose payload does not decode was written by another
/// encoder.
pub fn decode_trial_result(line: &str) -> Option<TrialResult> {
    let mut tokens = line.split_ascii_whitespace();
    let result = TrialResult {
        sdem_on: next_report(&mut tokens)?,
        mbkp: next_report(&mut tokens)?,
        mbkps: next_report(&mut tokens)?,
        mbkps_always: next_report(&mut tokens)?,
        sdem_cores_used: next_count(&mut tokens)?,
    };
    if tokens.next().is_some() {
        return None;
    }
    Some(result)
}

/// Mean of a per-trial metric; NaN when `results` is empty (a figure
/// point whose every replicate was quarantined shows a hole).
pub fn mean(results: &[TrialResult], metric: impl Fn(&TrialResult) -> f64) -> f64 {
    results.iter().map(metric).sum::<f64>() / results.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_exec::SweepRunner;
    use sdem_types::Time;
    use sdem_workload::synthetic::{sporadic, SyntheticConfig};

    /// `trials` replicates of `cfg` on the paper platform, swept as one
    /// grid point; every replicate must succeed.
    fn replicates(
        runner: &SweepRunner,
        cfg: &SyntheticConfig,
        trials: usize,
        grid_seed: u64,
        oracle: OracleCheck,
    ) -> Vec<TrialResult> {
        let platform = Platform::paper_defaults();
        let (inject, tasks) = (FaultInjection::default(), |s| sporadic(cfg, s));
        let outcome = runner.run(&[()], trials, grid_seed, Workspace::new, |_, ctx, ws| {
            run_trial_quarantined_in(tasks, &platform, 8, ctx, oracle, inject, String::new, ws)
        });
        let results = outcome.expect("sweep").per_point.concat();
        assert_eq!(results.len(), trials, "a replicate was quarantined");
        results
    }

    #[test]
    fn trial_produces_sane_orderings() {
        let cfg = SyntheticConfig::paper(24, Time::from_millis(400.0));
        let results = replicates(&SweepRunner::new(), &cfg, 3, 100, OracleCheck::Off);
        for r in &results {
            // Sleeping never *increases* the pure memory bill relative to
            // never-sleeping when the policy is profitable.
            assert!(
                r.sdem_on.total().value() > 0.0
                    && r.mbkp.total().value() > 0.0
                    && r.mbkps.total().value() > 0.0
            );
            // Both schedules execute identical work; dynamic energies are
            // positive and finite.
            assert!(r.sdem_on.core_dynamic.value().is_finite());
            // SDEM-ON should not lose to MBKPS on total energy in this
            // low-utilization configuration.
            assert!(
                r.sdem_improvement_over_mbkps() > -0.05,
                "SDEM-ON unexpectedly much worse: {}",
                r.sdem_improvement_over_mbkps()
            );
        }
    }

    #[test]
    fn oracle_sweep_agrees_at_any_thread_count() {
        let cfg = SyntheticConfig::paper(12, Time::from_millis(600.0));
        let run = |threads: usize| {
            let runner = SweepRunner::new().with_threads(threads);
            let oracle = OracleCheck::FailFast(sdem_core::DEFAULT_ORACLE_TOLERANCE);
            replicates(&runner, &cfg, 3, 42, oracle)
        };
        // The oracle passes (no panic) and stays thread-count invariant.
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.sdem_on.total(), b.sdem_on.total());
        }
    }

    #[test]
    #[should_panic(expected = "sim-oracle failure")]
    fn oracle_trips_on_zero_tolerance_engine_disagreement() {
        // With tolerance 0 even benign FP summation-order differences
        // between the meter and the engine trip the oracle, proving the
        // failure path is loud rather than silently resampled.
        let platform = Platform::paper_defaults();
        let cfg = SyntheticConfig::paper(24, Time::from_millis(400.0));
        for seed in 0..20 {
            let tasks = sporadic(&cfg, seed);
            let _ = run_trial_checked(&tasks, &platform, 8, OracleCheck::FailFast(0.0));
        }
        // If no seed trips a zero tolerance the two simulators are
        // bit-identical here; treat that as vacuous success.
        panic!("sim-oracle failure: vacuous (simulators bit-identical)");
    }

    #[test]
    fn quarantine_mode_returns_divergence_instead_of_panicking() {
        // The same zero-tolerance disagreement, routed through the
        // taxonomy: no panic, a typed OracleDivergence carrying both
        // energies. At least one of the 20 seeds must trip (otherwise the
        // fail-fast test above would be reporting vacuous success too).
        let platform = Platform::paper_defaults();
        let cfg = SyntheticConfig::paper(24, Time::from_millis(400.0));
        let mut divergences = 0;
        for seed in 0..20 {
            let tasks = sporadic(&cfg, seed);
            if let Err(TrialError::OracleDivergence {
                predicted,
                metered,
                relative,
                ..
            }) = run_trial_checked(&tasks, &platform, 8, OracleCheck::Quarantine(0.0))
            {
                assert!(predicted.is_finite() && metered.is_finite());
                assert!(relative > 0.0);
                divergences += 1;
            }
        }
        assert!(divergences > 0, "zero-tolerance oracle never tripped");
    }

    #[test]
    fn fault_injection_spec_parses_and_selects_by_trial_index() {
        let inject = FaultInjection::parse("panics=3,nans=2").expect("spec");
        assert_eq!(inject.panics, 3);
        assert_eq!(inject.nans, 2);
        assert!(!inject.is_empty());
        assert_eq!(inject.kind_for(0), Some(InjectedFault::Panic));
        assert_eq!(inject.kind_for(2), Some(InjectedFault::Panic));
        assert_eq!(inject.kind_for(3), Some(InjectedFault::NanEnergy));
        assert_eq!(inject.kind_for(4), Some(InjectedFault::NanEnergy));
        assert_eq!(inject.kind_for(5), None);

        assert!(FaultInjection::parse("").expect("empty").is_empty());
        assert!(FaultInjection::parse("panics=x").is_err());
        assert!(FaultInjection::parse("oops=1").is_err());
        assert!(FaultInjection::parse("panics").is_err());
    }

    #[test]
    fn quarantined_trial_records_injected_faults_with_seeds() {
        let platform = Platform::paper_defaults();
        let cfg = SyntheticConfig::paper(12, Time::from_millis(600.0));
        let inject = FaultInjection { panics: 1, nans: 1 };
        let mut ws = Workspace::new();

        // Trial 0: injected panic, quarantined with the exact seed.
        let ctx = TrialCtx::new(99, 0, 0, 2);
        let f = run_trial_quarantined_in(
            |s| sporadic(&cfg, s),
            &platform,
            8,
            &ctx,
            OracleCheck::Off,
            inject,
            || "--demo".to_string(),
            &mut ws,
        )
        .expect_err("injected panic must quarantine");
        assert_eq!(f.kind, "solver-panic");
        assert!(f.detail.contains("injected fault"), "{}", f.detail);
        assert_eq!(f.seed, Some(ctx.seed(0)));
        assert_eq!(f.config, "--demo");

        // Trial 1: NaN poisoning, quarantined as non-finite energy.
        let ctx = TrialCtx::new(99, 0, 1, 2);
        let f = run_trial_quarantined_in(
            |s| sporadic(&cfg, s),
            &platform,
            8,
            &ctx,
            OracleCheck::Off,
            inject,
            || "--demo".to_string(),
            &mut ws,
        )
        .expect_err("injected NaN must quarantine");
        assert_eq!(f.kind, "non-finite-energy");
        assert!(f.seed.is_some());

        // Trial 2: clean — identical to a direct trial on the first
        // feasible seed of its stream.
        let ctx = TrialCtx::new(99, 1, 0, 2);
        let clean = run_trial_quarantined_in(
            |s| sporadic(&cfg, s),
            &platform,
            8,
            &ctx,
            OracleCheck::Off,
            inject,
            || "--demo".to_string(),
            &mut ws,
        )
        .expect("clean trial");
        let reference = ctx
            .seeds()
            .take(MAX_ATTEMPTS_PER_TRIAL)
            .find_map(|s| {
                run_trial_checked(&sporadic(&cfg, s), &platform, 8, OracleCheck::Off).ok()
            })
            .expect("reference");
        assert_eq!(encode_trial_result(&clean), encode_trial_result(&reference));
    }

    #[test]
    fn trial_result_codec_round_trips_bit_exactly() {
        let platform = Platform::paper_defaults();
        let cfg = SyntheticConfig::paper(12, Time::from_millis(600.0));
        let tasks = sporadic(&cfg, 5);
        let r = run_trial_checked(&tasks, &platform, 8, OracleCheck::Off).expect("trial");
        let encoded = encode_trial_result(&r);
        assert_eq!(encoded.split_ascii_whitespace().count(), 41);
        let decoded = decode_trial_result(&encoded).expect("decode");
        assert_eq!(encode_trial_result(&decoded), encoded);

        assert!(decode_trial_result("").is_none());
        assert!(decode_trial_result(&encoded[..encoded.len() - 4]).is_none());
        assert!(decode_trial_result(&format!("{encoded} 7")).is_none());
    }

    #[test]
    fn mean_helper() {
        let cfg = SyntheticConfig::paper(12, Time::from_millis(600.0));
        let results = replicates(&SweepRunner::new(), &cfg, 2, 7, OracleCheck::Off);
        let m = mean(&results, |r| r.sdem_system_saving_vs_mbkp());
        assert!(m.is_finite());
    }
}
