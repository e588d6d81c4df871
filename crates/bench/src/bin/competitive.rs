//! Empirical competitive-ratio study for SDEM-ON (beyond the paper's
//! evaluation): on *agreeable-deadline* instances the §5 DP is provably
//! optimal, so `E_online / E_offline-optimal` measures how much the online
//! heuristic gives up for not knowing the future.
//!
//! Usage: `cargo run -p sdem-bench --release --bin competitive`
//! (env overrides: `SDEM_TASKS`, `SDEM_SEEDS`, `SDEM_X_MS`).

use std::process::ExitCode;

use sdem_bench::stats::{percentile, summarize};
use sdem_bench::{exit_if_empty, runner_from_env};
use sdem_core::{solve, Scheme, Solution};
use sdem_exec::{TrialCtx, TrialFailure};
use sdem_power::Platform;
use sdem_sim::{simulate_with_options, SimOptions, SleepPolicy};
use sdem_types::{ErrorKind, Time};
use sdem_workload::synthetic::{self, SyntheticConfig};

/// One replicate: `E_online / E_offline-optimal` on the agreeable
/// instance of `cfg` seeded by the replicate number.
fn trial(cfg: &SyntheticConfig, ctx: &TrialCtx, _: &mut ()) -> Result<f64, TrialFailure> {
    let platform = Platform::paper_defaults();
    let opts = SimOptions::uniform(SleepPolicy::WhenProfitable);
    let rejected = |_| TrialFailure::of(ErrorKind::InfeasibleInput, "a scheme rejected the seed");
    let tasks = synthetic::agreeable(cfg, ctx.replicate() as u64);
    let online_sched = solve(&tasks, &platform, Scheme::Online)
        .map(Solution::into_schedule)
        .map_err(rejected)?;
    let offline = solve(&tasks, &platform, Scheme::Agreeable).map_err(rejected)?;
    let e_on = simulate_with_options(&online_sched, &tasks, &platform, opts)
        .expect("online schedule validates")
        .total()
        .value();
    let e_off = simulate_with_options(offline.schedule(), &tasks, &platform, opts)
        .expect("offline schedule validates")
        .total()
        .value();
    Ok(e_on / e_off)
}

fn main() -> ExitCode {
    let tasks_n: usize = std::env::var("SDEM_TASKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let seeds: u64 = std::env::var("SDEM_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40);
    let x_ms: f64 = std::env::var("SDEM_X_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200.0);

    let cfg = SyntheticConfig::paper(tasks_n, Time::from_millis(x_ms));

    // One replicate per seed, fanned across workers; a seed either scheme
    // rejects is quarantined, so it is skipped as in a serial `0..seeds`
    // loop.
    let outcome = runner_from_env()
        .run(&[cfg], seeds as usize, 0, || (), trial)
        .unwrap_or_else(|e| panic!("{e}"));
    eprintln!("sweep: {}", outcome.stats);
    if let Some(code) = exit_if_empty(&outcome) {
        return code;
    }
    let ratios = outcome.per_point.into_iter().next().unwrap_or_default();

    let s = summarize(&ratios);
    println!(
        "SDEM-ON vs offline-optimal (agreeable DP), {} instances of {} tasks, x = {} ms",
        s.n, tasks_n, x_ms
    );
    println!(
        "competitive ratio: mean {:.4} ± {:.4}, median {:.4}, p95 {:.4}, worst {:.4}",
        s.mean,
        s.ci95(),
        percentile(&ratios, 0.5),
        percentile(&ratios, 0.95),
        s.max
    );
    if s.min < 1.0 - 1e-6 {
        println!(
            "note: min ratio {:.4} < 1 — the DP optimizes its analytic block model, \
             the simulator prices actual gaps (see DESIGN.md deviation 3)",
            s.min
        );
    }
    ExitCode::SUCCESS
}
