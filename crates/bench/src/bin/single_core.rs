//! Single-core bridge study (beyond the paper's evaluation): on one core
//! the SDEM problem collapses to the system-wide single-processor problem
//! of the paper's related work (Jejurikar–Gupta, Zhong–Xu). This binary
//! compares, on sporadic workloads:
//!
//! * **YDS** — processor-optimal, memory-oblivious;
//! * **CSS** — YDS clamped to the joint critical speed (prior art);
//! * **SDEM-ON (1 core)** — the paper's heuristic with `max_cores = 1`.
//!
//! Expectation: CSS recovers most of the memory savings over YDS, and
//! SDEM-ON adds postponement (consolidating idle into fewer, longer sleeps)
//! on top.
//!
//! Usage: `cargo run -p sdem-bench --release --bin single_core`

use std::process::ExitCode;

use sdem_baselines::{css, yds};
use sdem_bench::experiment::MAX_ATTEMPTS_PER_TRIAL;
use sdem_bench::stats::summarize;
use sdem_bench::{exit_if_empty, runner_from_env};
use sdem_core::{solve, Scheme, Solution};
use sdem_exec::{TrialCtx, TrialFailure};
use sdem_power::Platform;
use sdem_sim::{simulate_with_options, SimOptions, SleepPolicy};
use sdem_types::{ErrorKind, Time};
use sdem_workload::synthetic::{sporadic, SyntheticConfig};

/// One replicate: the CSS and SDEM-ON (1 core) energies relative to YDS,
/// resampling from the trial's seed stream until all three schedulers
/// accept the instance.
fn trial(cfg: &SyntheticConfig, ctx: &TrialCtx, _: &mut ()) -> Result<(f64, f64), TrialFailure> {
    let platform = Platform::paper_defaults();
    let profit = SimOptions::uniform(SleepPolicy::WhenProfitable);
    let found = ctx.seeds().take(MAX_ATTEMPTS_PER_TRIAL).find_map(|seed| {
        let tasks = sporadic(cfg, seed);
        let (Ok(y), Ok(c), Ok(s)) = (
            yds::schedule_single_core(&tasks, &platform),
            css::schedule_single_core_css(&tasks, &platform),
            solve(&tasks, &platform, Scheme::OnlineBounded(1)).map(Solution::into_schedule),
        ) else {
            return None;
        };
        let e = |sched: &sdem_types::Schedule| {
            simulate_with_options(sched, &tasks, &platform, profit)
                .expect("valid schedule")
                .total()
                .value()
        };
        let base = e(&y);
        Some((e(&c) / base, e(&s) / base))
    });
    found.ok_or_else(|| TrialFailure::of(ErrorKind::RetryBudgetExhausted, "no feasible seed"))
}

fn main() -> ExitCode {
    // Enough replicates that the CSS-vs-SDEM-ON gap (~0.3 % of E_YDS)
    // clears the confidence interval.
    let trials: usize = std::env::var("SDEM_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    let tasks_n: usize = std::env::var("SDEM_TASKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24);
    // Sparse arrivals so a single core suffices.
    let x_ms = 800.0;
    let cfg = SyntheticConfig::paper(tasks_n, Time::from_millis(x_ms));

    // One replicate per trial, fanned across workers.
    let outcome = runner_from_env()
        .run(&[cfg], trials, 0x51C0, || (), trial)
        .unwrap_or_else(|e| panic!("{e}"));
    eprintln!("sweep: {}", outcome.stats);
    if let Some(code) = exit_if_empty(&outcome) {
        return code;
    }
    let feasible = outcome.per_point.into_iter().next().unwrap_or_default();
    let css_ratio: Vec<f64> = feasible.iter().map(|&(c, _)| c).collect();
    let sdem_ratio: Vec<f64> = feasible.iter().map(|&(_, s)| s).collect();

    println!(
        "single-core study: {tasks_n} sporadic tasks, x = {x_ms} ms, {} feasible trials",
        feasible.len()
    );
    println!("{:28} {:>14}", "scheme", "E / E_YDS");
    println!("{:28} {:>14.3}", "YDS (memory-oblivious)", 1.0);
    let c = summarize(&css_ratio);
    println!(
        "{:28} {:>14.3} (±{:.3})",
        "CSS (prior art)",
        c.mean,
        c.ci95()
    );
    let s = summarize(&sdem_ratio);
    println!(
        "{:28} {:>14.3} (±{:.3})",
        "SDEM-ON, 1 core",
        s.mean,
        s.ci95()
    );
    println!(
        "\nCSS recovers the race-to-idle gain; SDEM-ON's postponement adds\n\
         idle consolidation on top (fewer, longer memory sleeps)."
    );
    ExitCode::SUCCESS
}
