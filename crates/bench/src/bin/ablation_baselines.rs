//! Ablation for the two baseline-modelling decisions documented in
//! DESIGN.md (deviation 2):
//!
//! 1. **MBKPS pricing** — opportunistic (sleep gaps ≥ ξ_m, the shipped
//!    model) vs literal always-sleep (pay a round trip on every gap);
//! 2. **DVS floor** — clamping the baselines' dispatch speeds to the
//!    platform's 700 MHz minimum vs letting OA crawl arbitrarily slowly.
//!
//! The output shows why the shipped choices are the ones that make the
//! paper's comparison meaningful: literal always-sleep drives MBKPS far
//! *below* MBKP (contradicting the paper's plots), and removing the floor
//! inflates SDEM-ON's advantage implausibly.
//!
//! Usage: `cargo run -p sdem-bench --release --bin ablation_baselines`

use std::process::ExitCode;

use sdem_baselines::mbkp::{self, Assignment};
use sdem_bench::experiment::MAX_ATTEMPTS_PER_TRIAL;
use sdem_bench::stats::summarize;
use sdem_bench::{exit_if_empty, runner_from_env};
use sdem_core::{solve, Scheme, Solution};
use sdem_exec::{TrialCtx, TrialFailure};
use sdem_power::{CorePower, MemoryPower, Platform};
use sdem_sim::{simulate_with_options, SimOptions, SleepPolicy};
use sdem_types::{ErrorKind, TaskSet, Time, Watts};
use sdem_workload::dspstone::{stream, Benchmark};
use sdem_workload::paper;

/// One ablation variant: its name, platform and MBKPS sleep policy.
type Variant<'a> = (&'static str, &'a Platform, SleepPolicy);

/// The high-utilization DSPstone workload (U = 2, 8 streams) drawn from
/// `seed`: common idle gaps are short relative to ξ_m, which is where the
/// modelling decisions bite.
fn make_tasks(seed: u64) -> TaskSet {
    let (fft, matmul) = (Benchmark::fft_1024(), Benchmark::matrix_24());
    let benches = [fft, matmul, fft, matmul, fft, matmul, fft, matmul];
    stream(&benches, 2.0, 15, seed)
}

/// One replicate of a variant: its energy relative to MBKP (never-sleep),
/// resampling from the trial's seed stream until feasible.
fn trial(
    &(name, platform, policy): &Variant,
    ctx: &TrialCtx,
    _: &mut (),
) -> Result<f64, TrialFailure> {
    let found = ctx.seeds().take(MAX_ATTEMPTS_PER_TRIAL).find_map(|seed| {
        let tasks = make_tasks(seed);
        let mbkp_schedule =
            mbkp::schedule_online(&tasks, platform, paper::NUM_CORES, Assignment::RoundRobin)
                .ok()?;
        let profit = SimOptions::uniform(SleepPolicy::WhenProfitable);
        let never = SimOptions {
            memory_policy: SleepPolicy::NeverSleep,
            ..profit
        };
        let e_mbkp = simulate_with_options(&mbkp_schedule, &tasks, platform, never)
            .expect("valid schedule")
            .total()
            .value();
        let subject = if name.starts_with("SDEM-ON") {
            let s = solve(&tasks, platform, Scheme::Online)
                .map(Solution::into_schedule)
                .ok()?;
            simulate_with_options(&s, &tasks, platform, profit)
                .expect("valid schedule")
                .total()
                .value()
        } else {
            let opts = SimOptions {
                memory_policy: policy,
                ..profit
            };
            simulate_with_options(&mbkp_schedule, &tasks, platform, opts)
                .expect("valid schedule")
                .total()
                .value()
        };
        Some(subject / e_mbkp)
    });
    found.ok_or_else(|| TrialFailure::of(ErrorKind::RetryBudgetExhausted, "no feasible seed"))
}

fn main() -> ExitCode {
    let trials: u64 = std::env::var("SDEM_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let floored = Platform::paper_defaults().with_memory(
        MemoryPower::new(Watts::new(paper::DEFAULT_ALPHA_M_W))
            .with_break_even(Time::from_millis(paper::DEFAULT_XI_M_MS)),
    );
    // Identical platform but with the DVS floor removed (min speed ~0).
    let unfloored = floored.with_core(CorePower::from_paper_units(
        310.0, 2.53e-7, 3.0, 1e-6, 1900.0,
    ));

    let variants = [
        (
            "MBKPS, opportunistic sleep (shipped)",
            &floored,
            SleepPolicy::WhenProfitable,
        ),
        (
            "MBKPS, literal always-sleep",
            &floored,
            SleepPolicy::AlwaysSleep,
        ),
        (
            "SDEM-ON, with 700 MHz floor (shipped)",
            &floored,
            SleepPolicy::WhenProfitable,
        ),
        (
            "SDEM-ON, baselines unfloored",
            &unfloored,
            SleepPolicy::WhenProfitable,
        ),
    ];
    // One grid point per variant, `trials` replicates each; every
    // replicate resamples from its private seed stream until feasible.
    let outcome = runner_from_env()
        .run(&variants, trials as usize, 0xAB1A, || (), trial)
        .unwrap_or_else(|e| panic!("{e}"));
    eprintln!("sweep: {}", outcome.stats);
    if let Some(code) = exit_if_empty(&outcome) {
        return code;
    }

    println!(
        "ablation: DSPstone U = 2 (high utilization), 8 streams × 15 instances, {} cores, {trials} trials\n",
        paper::NUM_CORES
    );
    println!(
        "{:44} {:>12} {:>12}",
        "variant", "E/MBKP mean", "(min..max)"
    );
    for ((name, _, _), ratios) in variants.iter().zip(&outcome.per_point) {
        let s = summarize(ratios);
        println!("{:44} {:>12.3} ({:.3}..{:.3})", name, s.mean, s.min, s.max);
    }
    println!(
        "\nreading: ratios are energies relative to MBKP (never-sleep); > 1 means\n\
         worse than never sleeping at all. Literal always-sleep pays a round trip\n\
         on every short gap; removing the DVS floor lets the baselines crawl,\n\
         stretching MBKP's busy time and flattering SDEM-ON's relative numbers —\n\
         both distort the comparison the paper reports, hence the shipped choices."
    );
    ExitCode::SUCCESS
}
