//! `sweep`: the paper-reproduction batch on `SweepRunner::run_with_state`.
//!
//! One round is one `run_with_state` call over a fixed grid: Fig. 7a trials
//! (α_m × x, 60-task sporadic sets, 8 cores, sim-oracle armed) interleaved
//! with federated DAG cells that put one heavy DAG beside light paper DAGs.
//! Every round repeats the same seeded inputs, so each round's outcomes
//! must equal the first round's bit for bit.

use std::time::Instant;

use sdem_baselines::mbkp::{self, Assignment};
use sdem_core::dag::{recycle_dag_report, solve_dags_in};
use sdem_core::online::schedule_online_in;
use sdem_core::{
    recycle_report, OracleError, OracleOptions, SdemError, Solution, TrialError,
    DEFAULT_ORACLE_TOLERANCE,
};
use sdem_exec::{SweepRunner, TrialCtx};
use sdem_power::{MemoryPower, Platform};
use sdem_prng::SplitMix64;
use sdem_sim::{simulate_event_driven, simulate_with_options_in, SimOptions, SleepPolicy};
use sdem_types::{TaskSet, Time, Watts, Workspace};
use sdem_workload::dag::{suite, DagConfig};
use sdem_workload::paper;
use sdem_workload::synthetic::{sporadic, SyntheticConfig};

use crate::tracer::{self, span};
use crate::{Layered, RoundClock, RunConfig, Workload, WARMUP_SEED};

/// Sweep workers: one per core of the 2-core reference host.
const WORKERS: usize = 2;
/// Tasks per Fig. 7a trial (the paper's task-set size).
const TASKS_PER_TRIAL: usize = 60;
/// Fig. 7a trials per grid point per round (64 points); with the DAG
/// cells below, the two halves of a round take comparable time.
const REPS_PER_POINT: usize = 8;
/// Seed budget per trial, as in the figure sweeps.
const MAX_ATTEMPTS: usize = 16;
/// DAG suites per round, each solved under one of the core budgets
/// below in turn; suites vary more in cost than budgets, so a round
/// spans many of them.
const DAG_SUITES: usize = 12;
const DAG_CORES: [usize; 3] = [4, 6, 8];
/// The heavy DAG: 12 nodes in an 18 ms window, usually more work than one
/// core does at s_up in that window.
const HEAVY_NODES: usize = 12;
const HEAVY_WINDOW_MS: f64 = 18.0;
/// Light paper-config DAGs sharing one 120 ms frame.
const LIGHT_DAGS: usize = 3;
const LIGHT_NODES: usize = 9;
const LIGHT_FRAME_MS: f64 = 120.0;

const TAG_GRID: u64 = 0x5EE9_F16A;
const TAG_HEAVY: u64 = 0x4EA7_DA60;
const TAG_LIGHT: u64 = 0x116B_DA60;

#[derive(Debug, Clone, Copy)]
enum Item {
    Trial { alpha_m: f64, x_ms: f64 },
    Dag { suite: usize, cores: usize },
}

/// What one grid item produced; everything but `busy_ns` is a pure
/// function of the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Outcome {
    dag: bool,
    failed: bool,
    infeasible: bool,
    /// SDEM-ON system energy of a trial, or the metered federated energy
    /// of a feasible DAG cell, as IEEE bits.
    energy_bits: u64,
    /// Seeds drawn by a trial.
    attempts: u32,
    clusters: u32,
    busy_ns: u64,
}

impl Outcome {
    fn same_answer(&self, other: &Self) -> bool {
        Self {
            busy_ns: 0,
            ..*self
        } == Self {
            busy_ns: 0,
            ..*other
        }
    }
}

/// One round's grid: `REPS_PER_POINT` trials per Fig. 7a point with the
/// DAG cells spread evenly between them, so no worker is left with a
/// tail of long cells.
fn grid() -> Vec<Item> {
    let trials: Vec<Item> = fig7a_points()
        .flat_map(|item| std::iter::repeat_n(item, REPS_PER_POINT))
        .collect();
    let cells: Vec<Item> = (0..DAG_SUITES)
        .map(|suite| Item::Dag {
            suite,
            cores: DAG_CORES[suite % DAG_CORES.len()],
        })
        .collect();
    let stride = trials.len() / cells.len();
    let mut items = Vec::with_capacity(trials.len() + cells.len());
    for (i, cell) in cells.iter().enumerate() {
        items.extend_from_slice(&trials[i * stride..(i + 1) * stride]);
        items.push(*cell);
    }
    items.extend_from_slice(&trials[cells.len() * stride..]);
    items
}

fn fig7a_points() -> impl Iterator<Item = Item> {
    paper::ALPHA_M_POINTS_W.iter().flat_map(|&alpha_m| {
        paper::X_POINTS_MS
            .iter()
            .map(move |&x_ms| Item::Trial { alpha_m, x_ms })
    })
}

fn fig7a_platform(alpha_m: f64) -> Platform {
    Platform::paper_defaults().with_memory(
        MemoryPower::new(Watts::new(alpha_m))
            .with_break_even(Time::from_millis(paper::DEFAULT_XI_M_MS)),
    )
}

/// The public calls `sdem_bench::experiment::run_trial_checked_in` makes
/// with the oracle in quarantine mode, each wrapped in its layer's span.
/// Returns the SDEM-ON system energy in joules.
fn checked_trial(
    tasks: &TaskSet,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<f64, TrialError> {
    let tol = DEFAULT_ORACLE_TOLERANCE;
    let sdem_schedule = {
        let _s = span(tracer::SDEM_ON);
        schedule_online_in(tasks, platform, ws)?
    };
    let mbkp_schedule = {
        let _s = span(tracer::MBKP);
        mbkp::schedule_online_in(
            tasks,
            platform,
            paper::NUM_CORES,
            Assignment::RoundRobin,
            ws,
        )
        .map_err(|e| TrialError::Baseline(e.to_string()))?
    };
    let profit = SimOptions::uniform(SleepPolicy::WhenProfitable);
    let never = SimOptions {
        memory_policy: SleepPolicy::NeverSleep,
        ..profit
    };
    let always = SimOptions {
        memory_policy: SleepPolicy::AlwaysSleep,
        ..profit
    };
    let meter = |schedule, opts, ws: &mut Workspace| {
        let _s = span(tracer::METER);
        simulate_with_options_in(schedule, tasks, platform, opts, ws)
    };
    let sdem_on = meter(&sdem_schedule, profit, ws)?;
    let mbkp_report = meter(&mbkp_schedule, never, ws)?;
    let mbkps_report = meter(&mbkp_schedule, profit, ws)?;
    let mbkps_always = meter(&mbkp_schedule, always, ws)?;

    {
        let _s = span(tracer::ORACLE);
        let analytic = Solution::from_schedule_in(sdem_schedule.clone(), platform, ws);
        let verdict = analytic.verify_against_meter(
            tasks,
            platform,
            OracleOptions::with_sim(profit).with_tolerance(tol),
        );
        recycle_report(analytic, ws);
        match verdict {
            Ok(_) => {}
            Err(OracleError::Schedule(e)) => return Err(TrialError::Simulation(e)),
            Err(OracleError::Mismatch {
                predicted,
                metered,
                relative,
                tolerance,
            }) => {
                return Err(TrialError::OracleDivergence {
                    check: "SDEM-ON analytic vs meter".to_string(),
                    predicted: predicted.value(),
                    metered: metered.value(),
                    relative,
                    tolerance,
                })
            }
            Err(other) => {
                return Err(TrialError::SolverPanic {
                    payload: format!("unknown oracle error: {other}"),
                })
            }
        }
    }
    for (schedule, opts, metered) in [
        (&sdem_schedule, profit, &sdem_on),
        (&mbkp_schedule, never, &mbkp_report),
        (&mbkp_schedule, profit, &mbkps_report),
    ] {
        let engine = {
            let _s = span(tracer::ENGINE);
            simulate_event_driven(schedule, tasks, platform, opts)?
        };
        let (a, b) = (engine.total().value(), metered.total().value());
        let scale = a.abs().max(b.abs());
        let relative = if scale == 0.0 {
            0.0
        } else {
            (a - b).abs() / scale
        };
        if relative > tol {
            return Err(TrialError::OracleDivergence {
                check: "event engine vs meter".to_string(),
                predicted: a,
                metered: b,
                relative,
                tolerance: tol,
            });
        }
    }
    ws.recycle_schedule(sdem_schedule);
    ws.recycle_schedule(mbkp_schedule);
    for report in [&sdem_on, &mbkp_report, &mbkps_report, &mbkps_always] {
        let value = report.total().value();
        if !value.is_finite() {
            return Err(TrialError::NonFiniteEnergy {
                context: "metered system energy",
                value,
            });
        }
    }
    Ok(sdem_on.total().value())
}

/// One Fig. 7a replicate: resample infeasible seeds from the trial's
/// private stream, as the figure sweeps do.
fn fig7a_trial(alpha_m: f64, x_ms: f64, ctx: &TrialCtx, ws: &mut Workspace) -> Outcome {
    let platform = fig7a_platform(alpha_m);
    let cfg = SyntheticConfig::paper(TASKS_PER_TRIAL, Time::from_millis(x_ms));
    for (attempt, seed) in ctx.seeds().take(MAX_ATTEMPTS).enumerate() {
        let tasks = {
            let _s = span(tracer::SPORADIC);
            sporadic(&cfg, seed)
        };
        let result = checked_trial(&tasks, &platform, ws);
        ws.recycle_tasks(tasks.into_tasks());
        let attempts = attempt as u32 + 1;
        match result {
            Ok(joules) => {
                return Outcome {
                    energy_bits: joules.to_bits(),
                    attempts,
                    ..Outcome::default()
                }
            }
            Err(e) if e.is_resamplable() => continue,
            Err(e) => {
                eprintln!("sweep: trial {} failed: {e}", ctx.trial_index());
                return Outcome {
                    failed: true,
                    attempts,
                    ..Outcome::default()
                };
            }
        }
    }
    eprintln!("sweep: trial {} found no feasible seed", ctx.trial_index());
    Outcome {
        failed: true,
        attempts: MAX_ATTEMPTS as u32,
        ..Outcome::default()
    }
}

fn dag_cell(run_seed: u64, suite_index: usize, cores: usize, ws: &mut Workspace) -> Outcome {
    let platform = Platform::paper_defaults();
    let dags = {
        let _s = span(tracer::DAG_GEN);
        // Resample until the heavy DAG is heavy: a light one would have to
        // share the light DAGs' frame, which its window does not match.
        let heavy = DagConfig::paper(HEAVY_NODES, Time::from_millis(HEAVY_WINDOW_MS));
        let s_up = platform.core().max_speed();
        let mut dags = (0u64..)
            .map(|k| {
                let seed = SplitMix64::mix(&[run_seed, TAG_HEAVY, suite_index as u64, k]);
                suite(&heavy, 1, seed)
            })
            .find(|d| d[0].is_heavy(s_up))
            .expect("a heavy DAG turns up within a few seeds");
        let light_seed = SplitMix64::mix(&[run_seed, TAG_LIGHT, suite_index as u64]);
        dags.extend(suite(
            &DagConfig::paper(LIGHT_NODES, Time::from_millis(LIGHT_FRAME_MS)),
            LIGHT_DAGS,
            light_seed,
        ));
        dags
    };
    let solved = {
        let _s = span(tracer::DAG_SOLVE);
        solve_dags_in(&dags, &platform, cores, ws)
    };
    let cell = Outcome {
        dag: true,
        ..Outcome::default()
    };
    match solved {
        Ok(report) => {
            let verdict = {
                let _s = span(tracer::ORACLE);
                report.verify_against_meter(&platform, OracleOptions::default())
            };
            let clusters = report.clusters as u32;
            recycle_dag_report(report, ws);
            match verdict {
                Ok(joules) => Outcome {
                    energy_bits: joules.value().to_bits(),
                    clusters,
                    ..cell
                },
                Err(e) => {
                    eprintln!("sweep: DAG suite {suite_index} on {cores} cores: {e}");
                    Outcome {
                        failed: true,
                        ..cell
                    }
                }
            }
        }
        Err(SdemError::NoCores | SdemError::InfeasibleTask(_)) => Outcome {
            infeasible: true,
            ..cell
        },
        Err(e) => {
            eprintln!("sweep: DAG suite {suite_index} on {cores} cores: {e}");
            Outcome {
                failed: true,
                ..cell
            }
        }
    }
}

fn run_round(runner: &SweepRunner, items: &[Item], seed: u64) -> (Vec<Outcome>, u64) {
    let started = Instant::now();
    let outcome = runner.run_with_state(
        items,
        1,
        SplitMix64::mix(&[seed, TAG_GRID]),
        Workspace::new,
        |item, ctx, ws| {
            let begin = Instant::now();
            tracer::set_op(ctx.trial_index() as u64);
            let root = span(tracer::TRIAL);
            let mut out = match *item {
                Item::Trial { alpha_m, x_ms } => fig7a_trial(alpha_m, x_ms, ctx, ws),
                Item::Dag { suite, cores } => dag_cell(seed, suite, cores, ws),
            };
            drop(root);
            out.busy_ns = begin.elapsed().as_nanos() as u64;
            if tracer::enabled() {
                tracer::flush();
            }
            Some(out)
        },
    );
    let wall_ns = started.elapsed().as_nanos() as u64;
    let outcomes = outcome.per_point.into_iter().flatten().collect();
    (outcomes, wall_ns)
}

pub fn run(cfg: &RunConfig) -> Workload {
    let items = grid();
    // Set-up: runner construction plus a warm-up pass (one trial per grid
    // point and one DAG cell, from a fixed seed) that builds and fills the
    // workers' workspaces. Timed before every round on a runner that is
    // then dropped, so that the samples spread over the whole run.
    let warm: Vec<Item> = fig7a_points()
        .chain(std::iter::once(Item::Dag { suite: 0, cores: 8 }))
        .collect();
    let set_up = || {
        let started = Instant::now();
        let runner = SweepRunner::new().with_threads(WORKERS);
        std::hint::black_box(run_round(&runner, &warm, WARMUP_SEED));
        started.elapsed().as_secs_f64()
    };
    let runner = SweepRunner::new().with_threads(WORKERS);

    let mut w = Workload::new("sweep", Vec::new());
    let mut reference: Option<Vec<Outcome>> = None;
    let mut layered = Layered::default();
    let mut clock = RoundClock::start(cfg);
    while clock.next_round() {
        let traced = clock.traced_round();
        w.setup_s.push(set_up());
        tracer::set_enabled(traced);
        let (outcomes, wall_ns) = run_round(&runner, &items, cfg.seed);
        tracer::set_enabled(false);
        let ops = outcomes.len() as u64;
        w.attempted += ops;
        w.failed += outcomes.iter().filter(|o| o.failed).count() as u64;
        if let Some(first) = &reference {
            let diverged = outcomes
                .iter()
                .zip(first)
                .filter(|(a, b)| !a.same_answer(b))
                .count();
            if diverged > 0 || outcomes.len() != first.len() {
                w.fail_check(format!(
                    "round {} diverged from round 0 in {diverged} of {ops} outcomes",
                    clock.round()
                ));
                w.failed += diverged as u64;
            }
        }
        let busy_ns: u64 = outcomes.iter().map(|o| o.busy_ns).sum();
        let throughput = ops as f64 / (wall_ns as f64 / 1e9);
        let mut trial_ns: Vec<u64> = outcomes
            .iter()
            .filter(|o| !o.dag)
            .map(|o| o.busy_ns)
            .collect();
        if traced {
            let idle_ns = (WORKERS as u64 * wall_ns).saturating_sub(busy_ns);
            layered.push_round(
                tracer::take_totals(),
                idle_ns as i64,
                ops,
                WORKERS as u64 * wall_ns,
                throughput,
            );
        } else {
            layered.untraced_throughput.push(throughput);
            w.throughput.push(throughput);
            w.p50_us
                .push(crate::stats::percentile(&mut trial_ns, 50.0) / 1e3);
            w.p90_us
                .push(crate::stats::percentile(&mut trial_ns, 90.0) / 1e3);
        }
        if reference.is_none() {
            record_counts(&mut w, &outcomes);
            reference = Some(outcomes);
        }
    }
    clock.finish(&mut w);
    if cfg.trace {
        let layers = layered.finish("exec.idle", &mut w, cfg);
        w.layers = Some(layers);
    }
    w
}

/// Exact per-round counts and the energy guard, from the first round
/// (every later round is checked equal to it).
fn record_counts(w: &mut Workload, outcomes: &[Outcome]) {
    let trials: Vec<&Outcome> = outcomes.iter().filter(|o| !o.dag && !o.failed).collect();
    let cells: Vec<&Outcome> = outcomes.iter().filter(|o| o.dag).collect();
    let drawn: u64 = outcomes
        .iter()
        .filter(|o| !o.dag)
        .map(|o| u64::from(o.attempts))
        .sum();
    let feasible_cells: Vec<&&Outcome> = cells
        .iter()
        .filter(|o| !o.infeasible && !o.failed)
        .collect();
    let energy_j: f64 = trials
        .iter()
        .map(|o| f64::from_bits(o.energy_bits))
        .chain(feasible_cells.iter().map(|o| f64::from_bits(o.energy_bits)))
        .sum();
    let answers = trials.len() + feasible_cells.len();
    w.energy_mj_mean = 1e3 * energy_j / answers.max(1) as f64;
    w.count(
        "workload.sporadic.seeds_resampled",
        (drawn - trials.len() as u64) as f64,
    );
    w.count(
        "workload.sporadic.accept_ratio",
        trials.len() as f64 / drawn.max(1) as f64,
    );
    w.count(
        "core.dag.clusters",
        cells.iter().map(|o| f64::from(o.clusters)).sum(),
    );
    w.count(
        "core.dag.cells_infeasible",
        cells.iter().filter(|o| o.infeasible).count() as f64,
    );
}
