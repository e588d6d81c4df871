//! Subcommand implementations.

use std::fs;

use sdem_baselines::mbkp::{self, Assignment};
use sdem_baselines::{avr, css, oa, yds};
use sdem_bench::experiment::{
    mean, run_trial_checked, run_trial_quarantined_in, FaultInjection, OracleCheck,
};
use sdem_bench::figures::{self, RobustOptions};
use sdem_core::dag::DagAssignment;
use sdem_core::{solve, OracleOptions, Scheme, DEFAULT_ORACLE_TOLERANCE};
use sdem_exec::{CheckpointJournal, SweepRunner};
use sdem_power::Platform;
use sdem_serve::{api, ChaosSpec, ReplayConfig, ServiceConfig, SupervisorConfig};
use sdem_sim::{
    power_trace, render_gantt, schedule_stats, simulate_with_options, trace_to_csv, SimOptions,
    SleepPolicy,
};
use sdem_types::{ErrorKind, Schedule, TaskSet, Time, Workspace};
use sdem_workload::dag::{self as dagmod, DagConfig};
use sdem_workload::dspstone::{stream, Benchmark};
use sdem_workload::synthetic::{self, SyntheticConfig};
use sdem_workload::textfmt as io;
use sdem_workload::trace::TraceSpec;

use crate::args::Args;
use crate::error::CliError;

const HELP: &str = "\
sdem-cli — SDEM energy-minimization toolkit

USAGE:
  sdem-cli generate [--kind synthetic|dspstone|common-release|agreeable]
                    [--tasks N] [--x-ms X] [--u U] [--instances N]
                    [--seed S] [--out FILE]
  sdem-cli schedule --input FILE [--scheme NAME] [--alpha-m W] [--xi-m MS]
                    [--cores N] [--gantt] [--quiet] [--fallback]
  sdem-cli compare  --input FILE [--alpha-m W] [--xi-m MS] [--cores N]
  sdem-cli trace    --input FILE [--scheme NAME] [--samples N] [--out FILE]
                    [--cores N] [--alpha-m W] [--xi-m MS]
                    power-over-time CSV (time_s,cores_w,memory_w,total_w)
  sdem-cli sweep    [--figure fig6|fig7a|fig7b] [--trials N] [--tasks N]
                    [--instances N] [--threads N] [--csv FILE]
                    [--svg PREFIX] [--metrics FILE] [--trace FILE]
                    [--oracle] [--oracle-tol REL] [--oracle-keep-going]
                    [--quarantine FILE] [--inject panics=N,nans=N]
                    [--checkpoint FILE | --resume FILE] [--halt-after N]
                    regenerate a paper figure (defaults: the paper's 10
                    trials/point, 60 tasks, 30 instances/stream); fig7a
                    and fig7b are sized by --tasks, fig6 by --instances,
                    and the other figure's option is a usage error; --svg
                    writes its charts to PREFIX[a|b].svg
  sdem-cli stats    --input FILE [--check]
                    summarize a --metrics JSON or --trace JSONL file
  sdem-cli repro    --seed S [--kind synthetic|dspstone|fig6] [--tasks N]
                    [--x-ms X] [--u U] [--instances N] [--cores N]
                    [--alpha-m W] [--xi-m MS] [--oracle] [--oracle-tol REL]
                    replay one quarantined trial from its exact seed
  sdem-cli serve    [--workers N] [--queue N] [--cache N] [--metrics FILE]
                    persistent scheduling daemon: JSONL requests on stdin,
                    JSONL responses on stdout, drains cleanly at EOF
  sdem-cli replay   [--trace SPEC] --events N [--workers N] [--queue N]
                    [--cache N] [--chaos SPEC] [--journal FILE | --resume FILE]
                    [--halt-after N] [--max-restarts N] [--backoff-ms N]
                    [--metrics FILE]
                    stream a generated arrival trace through the daemon,
                    crash-recoverable via the response journal
  sdem-cli experiment [--kind synthetic|dspstone] [--tasks N] [--x-ms X]
                    [--u U] [--instances N] [--cores N] [--trials N]
                    [--threads N] [--seed S] [--alpha-m W] [--xi-m MS]
                    [--oracle] [--oracle-tol REL] [--oracle-keep-going]
                    one grid point, parallel replicates, summary savings
  sdem-cli dag generate [--count N] [--nodes N] [--frame-ms MS] [--seed S]
                    [--out FILE]
                    seeded random DAG suite as YAML (stdout without --out)
  sdem-cli dag solve --input FILE [--cores N] [--alpha-m W] [--xi-m MS]
                    [--oracle] [--oracle-tol REL]
                    federated allocation + per-core SDEM solve of a YAML
                    DAG suite: cluster sizes, per-core energy, aggregate
  sdem-cli dag sweep [--suites N] [--dags N] [--nodes N] [--threads N]
                    [--csv FILE]
                    energy vs core budget over seeded DAG suites, every
                    cell oracle-verified; identical at any --threads
                    (defaults: the committed 3 suites x 4 nine-node DAGs)
  sdem-cli help

Sweeps and experiments fan trials across worker threads; results are
identical for any --threads value (deterministic per-trial seeding).
--oracle cross-checks every trial against the simulator: the SDEM-ON
schedule's analytic energy must match the interval meter, and the meter
must match the event-driven engine, within --oracle-tol (default 1e-6
relative); divergence aborts the sweep. Example:
  sdem-cli sweep --figure fig7a --trials 2 --tasks 12 --oracle

Robust sweeps: every sweep and experiment is fault-isolated — a
panicking, NaN-producing or (with --oracle-keep-going) oracle-diverging
trial is quarantined instead of aborting the sweep. --quarantine FILE
writes one JSON record per quarantined trial (sorted by trial index,
byte-identical for any --threads value), each carrying the exact seed and
a `repro` config string. --checkpoint FILE journals every finished trial;
--resume FILE continues a halted sweep bit-identically to an
uninterrupted run. --halt-after N stops after N trials (for testing
resume) and needs --checkpoint or --resume. --inject panics=N,nans=N
fabricates deterministic faults for smoke tests. Replay a record:
  sdem-cli repro --seed 0x1f2e3d4c... --kind synthetic --tasks 40

Observability: sweep --metrics FILE exports the run's counters, energy
gauges and log2-bucket latency histograms as JSON; --trace FILE exports
a JSONL span/instant trace with monotonic timestamps. Both are off by
default, cost nothing when off, and never touch stdout — the sweep table
stays byte-identical with or without them, at any --threads value.
Inspect either file with `sdem-cli stats --input FILE`; --check
additionally validates the file's internal consistency (version, bucket
sums, percentile monotonicity, gauge bit patterns).

schedule --fallback routes through the degraded-mode chain: when the
chosen scheme rejects the instance, the always-feasible race-to-idle
baseline (all tasks at s_max) is used instead and reported as degraded.

serve answers solve requests as a persistent service: one JSON object per
stdin line (`{\"v\":1,\"id\":7,\"scheme\":\"auto\",\"tasks\":[[id,release_ms,
deadline_ms,work_cycles],...]}`), one response per stdout line, emitted in
request order and byte-identical for any --workers count. A full --queue
sheds with an `overloaded` error instead of blocking; a request whose
`deadline_ms` elapses before a worker picks it up is answered
`deadline-expired`. Repeated (and permuted) task sets hit a canonicalized
solve cache of --cache entries. --metrics FILE exports the run's request
counters and latency histograms at shutdown, same format as sweep's.
Errors carry stable `kind` codes; the CLI maps the same codes onto its
exit codes (usage 2, bad-request 3, scheme-error 4, ...).

replay streams a seeded arrival trace (millions of events, generated —
never materialized) through the same service. --trace takes a
`seed=0x…,sets=N,tasks=N,poisson=P,shapes=N` spec: hyperperiod-expanded
periodic request sets merged with an open-loop Poisson mix. Responses go
to stdout, byte-identical for any --workers count. --journal FILE appends
every response (write-ahead, flushed per line) so a killed replay
restarted with --resume FILE skips completed seqs — counted as
serve/recovered_seqs — and emits output byte-identical to an
uninterrupted run. --chaos `seed=0x…,panics=N,poison=N,queue-full=N,
latency=N` injects worker panics (contained by the supervisor:
--max-restarts budget, exponential backoff from --backoff-ms, then
fail-fast), poisoned request fields, forced degradations through the
race-to-idle tier (`degraded: true` responses) and artificial latency;
observed serve/{worker_restarts,degraded_responses} counters must match
the injected plan exactly or the replay exits with an error. Example:
  sdem-cli replay --trace seed=0x7ace,sets=4,tasks=6,poisson=0.25,shapes=32 \\
    --events 1000000 --workers 4 --journal replay.journal

SCHEMES:
  auto                 route from the task-set shape (common release →
                       §4/§7, agreeable → §5 DP, general → SDEM-ON)
  sdem-on (default)    paper §6 online heuristic, bounded to --cores
  cr-alpha-zero        paper §4.1 (common release, α = 0 model)
  cr-alpha-nonzero     paper §4.2 (common release, core sleeping)
  cr-overhead          paper §7 (transition overheads)
  agreeable            paper §5 DP (agreeable deadlines)
  agreeable-strict     §5 DP with overlap-free block repair
  bounded-auto         paper §3 bounded cores, strongest tier the size
                       admits (exact → branch-and-bound → LPT + refine)
  bounded-exact        paper §3 exact partition enumeration (small n)
  bounded-bnb          paper §3 branch-and-bound (exact, larger n)
  bounded-refined      paper §3 LPT + local-search refinement (any n)
  bounded-lpt          paper §3 plain LPT heuristic
  dag-federated        federated LPT packing onto --cores, each core's
                       chopped windows solved by auto (one shared window)
  mbkp | mbkps         baseline: round-robin + per-core Optimal Available
  yds | oa | avr | css single-core substrate policies (css = YDS clamped
                       to the joint critical speed; system-wide baseline)

The platform is the paper's: 8 × Cortex-A57 + 50 nm DRAM; --alpha-m and
--xi-m override the memory model (defaults 4 W, 40 ms).
";

/// Dispatches a full command line.
///
/// # Errors
///
/// A typed [`CliError`] — the kind carries the taxonomy code that becomes
/// the process exit status, the message stays human-readable.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        println!("{HELP}");
        return Ok(());
    };
    // `dag` takes a positional action (`generate|solve|sweep`) before its
    // options, so it owns its own parse instead of the flat one below.
    if command == "dag" {
        return dag(&argv[1..]);
    }
    let handler: fn(&Args) -> Result<(), CliError> = match command.as_str() {
        "generate" => generate,
        "schedule" => schedule,
        "compare" => compare,
        "trace" => trace,
        "sweep" => sweep,
        "stats" => stats,
        "experiment" => experiment,
        "repro" => repro,
        "serve" => serve,
        "replay" => replay,
        "help" | "--help" | "-h" => help,
        other => return Err(format!("unknown command `{other}`").into()),
    };
    handler(&Args::parse(&argv[1..], &usage_keys(command))?)
}

/// The options `command`'s USAGE entry in [`HELP`] lists, read from its
/// `sdem-cli <command>` line and the continuation lines that start with
/// `[` or `-`. The parser accepts exactly these, so HELP and the parser
/// cannot drift.
fn usage_keys(command: &str) -> Vec<&'static str> {
    let mut lines = HELP.lines().map(str::trim_start);
    let entry = lines.find(|line| {
        line.strip_prefix("sdem-cli ")
            .and_then(|rest| rest.strip_prefix(command))
            .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
    });
    let continued = lines.take_while(|line| line.starts_with(['[', '-']));
    entry
        .into_iter()
        .chain(continued)
        .flat_map(|line| line.split("--").skip(1))
        .flat_map(|option| option.split([' ', ']']).next())
        .collect()
}

fn help(_: &Args) -> Result<(), CliError> {
    println!("{HELP}");
    Ok(())
}

/// Builds the platform from `--alpha-m`/`--xi-m` through the serve API's
/// boundary validator, so the CLI and the daemon accept exactly the same
/// parameter space (finite, non-negative, validated platform).
fn platform_from(args: &Args) -> Result<Platform, CliError> {
    let alpha_m = args.get_f64("alpha-m", api::DEFAULT_ALPHA_M_W)?;
    let xi_m = args.get_f64("xi-m", api::DEFAULT_XI_M_MS)?;
    api::platform_for(alpha_m, xi_m).map_err(Into::into)
}

fn load_tasks(args: &Args) -> Result<TaskSet, String> {
    let path = args
        .get("input")
        .ok_or_else(|| "`--input FILE` is required".to_string())?;
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    io::from_text(&text)
}

fn generate(args: &Args) -> Result<(), CliError> {
    let kind = args.get_or("kind", "synthetic");
    let seed = args.get_u64("seed", 1)?;
    let tasks = match kind {
        "synthetic" => {
            let cfg = SyntheticConfig::paper(
                args.get_usize("tasks", 40)?,
                Time::from_millis(args.get_f64("x-ms", 400.0)?),
            );
            synthetic::sporadic(&cfg, seed)
        }
        "common-release" => {
            let cfg = SyntheticConfig::paper(args.get_usize("tasks", 40)?, Time::ZERO);
            synthetic::common_release(&cfg, seed)
        }
        "agreeable" => {
            let cfg = SyntheticConfig::paper(
                args.get_usize("tasks", 40)?,
                Time::from_millis(args.get_f64("x-ms", 400.0)?),
            );
            synthetic::agreeable(&cfg, seed)
        }
        "dspstone" => stream(
            &[Benchmark::fft_1024(), Benchmark::matrix_24()],
            args.get_f64("u", 4.0)?,
            args.get_usize("instances", 20)?,
            seed,
        ),
        other => return Err(format!("unknown workload kind `{other}`").into()),
    };
    let text = io::to_text(&tasks);
    match args.get("out") {
        Some(path) => {
            fs::write(path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote {} tasks to {path}", tasks.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Builds a schedule for any scheme name. SDEM schemes route through the
/// serve API's name mapping and the `solve` entry point; the baseline
/// policies keep their direct entry points (they are batch-only and never
/// cross the wire protocol).
fn build_schedule(
    scheme: &str,
    tasks: &TaskSet,
    platform: &Platform,
    cores: usize,
) -> Result<Schedule, String> {
    if let Ok(s) = api::scheme_from_name(scheme, cores) {
        return solve(tasks, platform, s)
            .map(sdem_core::Solution::into_schedule)
            .map_err(|e| e.to_string());
    }
    match scheme {
        "mbkp" | "mbkps" => mbkp::schedule_online(tasks, platform, cores, Assignment::RoundRobin)
            .map_err(|e| e.to_string()),
        "yds" => yds::schedule_single_core(tasks, platform).map_err(|e| e.to_string()),
        "oa" => oa::schedule_single_core_online(tasks, platform).map_err(|e| e.to_string()),
        "avr" => avr::schedule_single_core(tasks, platform).map_err(|e| e.to_string()),
        "css" => css::schedule_single_core_css(tasks, platform).map_err(|e| e.to_string()),
        other => Err(format!("unknown scheme `{other}`")),
    }
}

/// `--scheme` when the flag is absent: SDEM-ON on the `--cores` budget.
fn default_scheme() -> &'static str {
    Scheme::OnlineBounded(0)
        .wire_name()
        .expect("SCHEMES names SDEM-ON")
}

fn sim_options(scheme: &str) -> SimOptions {
    let profit = SimOptions::uniform(SleepPolicy::WhenProfitable);
    match scheme {
        "mbkp" | "yds" | "oa" | "avr" => SimOptions {
            memory_policy: SleepPolicy::NeverSleep,
            ..profit
        },
        _ => profit,
    }
}

fn schedule(args: &Args) -> Result<(), CliError> {
    let tasks = load_tasks(args)?;
    let platform = platform_from(args)?;
    let scheme = args.get_or("scheme", default_scheme());
    let cores = args.get_usize("cores", 8)?;
    // SDEM schemes go through the same request/execute path the daemon
    // uses (canonicalize → solve → summarize), so batch and serve answers
    // come from one code path; the baselines stay batch-only.
    let (sched, degraded) = match api::scheme_from_name(scheme, cores) {
        Ok(s) => {
            let req = api::SolveRequest {
                id: 0,
                scheme: s,
                scheme_name: scheme.to_string(),
                cores,
                alpha_m_w: args.get_f64("alpha-m", api::DEFAULT_ALPHA_M_W)?,
                xi_m_ms: args.get_f64("xi-m", api::DEFAULT_XI_M_MS)?,
                deadline_ms: None,
                fallback: args.has_flag("fallback"),
                tasks: tasks.clone(),
            };
            let executed = api::execute_in(&req, &platform, &mut Workspace::new())?;
            let degraded = executed.response.degraded;
            (executed.solution.into_schedule(), degraded)
        }
        Err(_) if args.has_flag("fallback") => {
            return Err(CliError::new(
                ErrorKind::BadRequest,
                format!(
                    "--fallback supports the SDEM schemes only ({}), not `{scheme}`",
                    api::scheme_names()
                ),
            ))
        }
        Err(_) => (build_schedule(scheme, &tasks, &platform, cores)?, false),
    };
    sched.validate(&tasks).map_err(|e| e.to_string())?;
    if degraded {
        eprintln!(
            "degraded: scheme `{scheme}` rejected the instance; race-to-idle \
             fallback (all tasks at s_max) applied"
        );
    }
    let report = simulate_with_options(&sched, &tasks, &platform, sim_options(scheme))
        .map_err(|e| e.to_string())?;

    if !args.has_flag("quiet") {
        println!(
            "scheme: {scheme}  tasks: {}  cores used: {}",
            tasks.len(),
            sched.cores_used()
        );
        for p in sched.placements() {
            match (p.start(), p.end()) {
                (Some(s), Some(e)) => println!(
                    "  {} on {}: [{:9.3}, {:9.3}] ms, {} segment(s), avg {:7.1} MHz",
                    p.task(),
                    p.core(),
                    s.as_millis(),
                    e.as_millis(),
                    p.segments().len(),
                    (p.executed_work() / p.busy_time()).as_mhz(),
                ),
                _ => println!("  {} on {}: (zero work)", p.task(), p.core()),
            }
        }
    }
    println!("energy: {report}");
    if let Some(stats) = schedule_stats(&sched) {
        println!(
            "stats: span [{:.3}, {:.3}] ms, {} cores, core util {:.1}%, memory util {:.1}%, \
             mean speed {:.1} MHz, peak {:.1} MHz",
            stats.start.as_millis(),
            stats.end.as_millis(),
            stats.cores_used,
            stats.core_utilization * 100.0,
            stats.memory_utilization * 100.0,
            stats.mean_speed.as_mhz(),
            stats.peak_speed.as_mhz(),
        );
    }
    if args.has_flag("gantt") {
        println!("{}", render_gantt(&sched, 96));
    }
    Ok(())
}

fn compare(args: &Args) -> Result<(), CliError> {
    let tasks = load_tasks(args)?;
    let platform = platform_from(args)?;
    let cores = args.get_usize("cores", 8)?;

    println!(
        "{:16} {:>12} {:>12} {:>12} {:>8}",
        "scheme", "total [J]", "memory [J]", "cores [J]", "sleeps"
    );
    let mut reference: Option<f64> = None;
    let sdem = [Scheme::OnlineBounded(cores), Scheme::BoundedAuto(cores)];
    let sdem_names = sdem.iter().filter_map(|s| s.wire_name());
    for scheme in ["mbkp", "mbkps"].into_iter().chain(sdem_names) {
        match build_schedule(scheme, &tasks, &platform, cores) {
            Ok(sched) => {
                let report = simulate_with_options(&sched, &tasks, &platform, sim_options(scheme))
                    .map_err(|e| e.to_string())?;
                let total = report.total().value();
                let vs = match reference {
                    None => {
                        reference = Some(total);
                        String::new()
                    }
                    Some(r) => format!("  ({:+.1}% vs MBKP)", (total / r - 1.0) * 100.0),
                };
                println!(
                    "{:16} {:>12.4} {:>12.4} {:>12.4} {:>8}{vs}",
                    scheme,
                    total,
                    report.memory_total().value(),
                    report.core_total().value(),
                    report.memory_sleeps,
                );
            }
            Err(e) => println!("{scheme:16} infeasible: {e}"),
        }
    }
    Ok(())
}

fn dag(rest: &[String]) -> Result<(), CliError> {
    let Some(action) = rest.first() else {
        return Err(CliError::new(
            ErrorKind::Usage,
            "dag requires an action: `dag generate|solve|sweep [options]`",
        ));
    };
    let handler: fn(&Args) -> Result<(), CliError> = match action.as_str() {
        "generate" => dag_generate,
        "solve" => dag_solve,
        "sweep" => dag_sweep,
        other => {
            let expected = "expected generate, solve or sweep";
            return Err(format!("unknown dag action `{other}` ({expected})").into());
        }
    };
    let keys = usage_keys(&format!("dag {action}"));
    handler(&Args::parse(&rest[1..], &keys)?)
}

fn dag_generate(args: &Args) -> Result<(), CliError> {
    let count = args.get_usize("count", 4)?;
    let nodes = args.get_usize("nodes", 9)?;
    let frame = Time::from_millis(args.get_f64("frame-ms", 120.0)?);
    let seed = args.get_u64("seed", 1)?;
    if count == 0 || nodes == 0 {
        return Err(CliError::new(
            ErrorKind::Usage,
            "--count and --nodes must be positive",
        ));
    }
    let dags = dagmod::suite(&DagConfig::paper(nodes, frame), count, seed);
    let yaml = dagmod::dags_to_yaml(&dags);
    if let Some(path) = args.get("out") {
        fs::write(path, &yaml).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!(
            "wrote {count} DAGs ({nodes} nodes each, {:.0} ms frame, seed {seed}) to {path}",
            frame.as_millis()
        );
    } else {
        print!("{yaml}");
    }
    Ok(())
}

fn dag_solve(args: &Args) -> Result<(), CliError> {
    let oracle = oracle_from(args)?;
    let path = args
        .get("input")
        .ok_or_else(|| "`--input FILE` is required".to_string())?;
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let dags =
        dagmod::dags_from_yaml(&text).map_err(|e| CliError::new(e.error_kind(), e.to_string()))?;
    let platform = platform_from(args)?;
    let cores = args.get_usize("cores", 8)?;
    let report = sdem_core::dag::solve_dags(&dags, &platform, cores)
        .map_err(|e| CliError::new(e.kind(), format!("federated solve failed: {e}")))?;

    for (dag, assignment) in dags.iter().zip(&report.assignments) {
        match assignment {
            DagAssignment::Dedicated { first_core, cores } => println!(
                "dag {:24} heavy: dedicated cluster of {cores} core(s) starting at core {first_core}",
                dag.name()
            ),
            DagAssignment::Shared { core } => {
                println!("dag {:24} light: shared core {core}", dag.name());
            }
            _ => {}
        }
    }
    println!();
    println!(
        "{:>5} {:>6} {:>12} {:>10}",
        "core", "tasks", "energy_j", "sleep_ms"
    );
    for c in &report.per_core {
        println!(
            "{:>5} {:>6} {:>12.6} {:>10.3}",
            c.core.0,
            c.tasks,
            c.energy.value(),
            c.memory_sleep.as_millis()
        );
    }
    println!();
    println!(
        "aggregate: {:.6} J, memory sleep {:.3} ms, {} of {cores} core(s) busy, {} dedicated cluster(s)",
        report.solution.predicted_energy().value(),
        report.solution.memory_sleep().as_millis(),
        report.cores_used,
        report.clusters
    );
    if let Some(tol) = oracle.tolerance() {
        let options = OracleOptions::default().with_tolerance(tol);
        let metered = report
            .verify_against_meter(&platform, options)
            .map_err(|e| CliError::new(ErrorKind::OracleDivergence, e.to_string()))?;
        println!(
            "oracle: meter agrees at {:.6} J (rel tol {tol})",
            metered.value()
        );
    }
    Ok(())
}

fn dag_sweep(args: &Args) -> Result<(), CliError> {
    let mut config = figures::DagSweepConfig::paper();
    config.suites = args.get_usize("suites", config.suites)?;
    config.dags_per_suite = args.get_usize("dags", config.dags_per_suite)?;
    config.nodes = args.get_usize("nodes", config.nodes)?;
    if config.suites == 0 || config.dags_per_suite == 0 || config.nodes == 0 {
        return Err(CliError::new(
            ErrorKind::Usage,
            "--suites, --dags and --nodes must be positive",
        ));
    }
    let runner = runner_from(args)?;
    let (rows, stats) = figures::dag_energy_with(&config, &runner);
    eprintln!("sweep: {stats}");
    print!("{}", figures::dag_energy_text(&config, &rows));
    if let Some(path) = args.get("csv") {
        fs::write(path, figures::dag_energy_to_csv(&rows))
            .map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("wrote CSV to {path}");
    }
    Ok(())
}

/// `--trials N`, which must be positive: a sweep of no trials has no
/// table to print.
fn trials_from(args: &Args, default: usize) -> Result<usize, CliError> {
    match args.get_usize("trials", default)? {
        0 => Err("option `--trials` must be positive".into()),
        trials => Ok(trials),
    }
}

fn runner_from(args: &Args) -> Result<SweepRunner, String> {
    Ok(SweepRunner::new().with_threads(args.get_usize("threads", 0)?))
}

/// The one parser of `--oracle`, `--oracle-tol REL` and
/// `--oracle-keep-going`; a tolerance that is not finite and
/// non-negative is a usage error.
fn oracle_from(args: &Args) -> Result<OracleCheck, CliError> {
    if !args.has_flag("oracle") && args.get("oracle-tol").is_none() {
        return Ok(OracleCheck::Off);
    }
    let tol = args.get_f64("oracle-tol", DEFAULT_ORACLE_TOLERANCE)?;
    if !tol.is_finite() || tol < 0.0 {
        return Err(
            format!("option `--oracle-tol` expects a non-negative number, got `{tol}`").into(),
        );
    }
    Ok(if args.has_flag("oracle-keep-going") {
        OracleCheck::Quarantine(tol)
    } else {
        OracleCheck::FailFast(tol)
    })
}

/// Entry point for `sweep`: arms the metrics registry and/or trace sink
/// when `--metrics`/`--trace` are given, runs the sweep, then exports the
/// files. All observability output goes to side files and stderr — the
/// sweep's stdout is byte-identical with or without these flags.
fn sweep(args: &Args) -> Result<(), CliError> {
    let metrics = args.get("metrics").map(str::to_string);
    let trace_out = args.get("trace").map(str::to_string);
    if metrics.is_some() {
        // Fresh registry so the export reflects only this run, even when
        // several sweeps share one process (e.g. the test harness).
        sdem_obs::registry::reset();
        sdem_obs::registry::set_enabled(true);
    }
    if trace_out.is_some() {
        sdem_obs::trace::set_enabled(true);
    }
    let outcome = sweep_dispatch(args);
    // Quiesce before exporting so the snapshot/drain see a stable world,
    // and so a failed sweep never leaves global instrumentation armed.
    // Only what this call armed is disarmed: the switches are
    // process-global, and another sweep in the same process may be
    // recording.
    if metrics.is_some() {
        sdem_obs::registry::set_enabled(false);
    }
    if trace_out.is_some() {
        sdem_obs::trace::set_enabled(false);
    }
    outcome?;
    if let Some(path) = metrics {
        let json = sdem_obs::registry::snapshot().to_json();
        fs::write(&path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("metrics: wrote {path}");
    }
    if let Some(path) = trace_out {
        let jsonl = sdem_obs::trace::drain_jsonl();
        fs::write(&path, jsonl).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("trace: wrote {path}");
    }
    Ok(())
}

/// The figure sweep: quarantines failed trials, optionally journals
/// every finished trial for checkpoint/resume, and keeps stdout
/// byte-identical for any thread count (including the quarantine file,
/// which is sorted by trial index).
fn sweep_dispatch(args: &Args) -> Result<(), CliError> {
    let figure = args.get_or("figure", "fig7a");
    // Each figure reads one sizing option; the other one would be
    // silently ignored.
    let foreign = match figure {
        "fig6" => Some("tasks"),
        "fig7a" | "fig7b" => Some("instances"),
        _ => None,
    };
    if let Some(foreign) = foreign.filter(|&key| args.get(key).is_some()) {
        return Err(format!(
            "option `--{foreign}` does not size `--figure {figure}` \
             (fig6 takes --instances, fig7a and fig7b take --tasks)"
        )
        .into());
    }
    let trials = trials_from(args, figures::TRIALS)?;
    let mut runner = runner_from(args)?;
    let halt_after = args.get_usize("halt-after", 0)?;
    if halt_after > 0 {
        if args.get("checkpoint").is_none() && args.get("resume").is_none() {
            return Err("--halt-after needs --checkpoint FILE or --resume FILE: \
                        a halted sweep is finished from its checkpoint"
                .into());
        }
        runner = runner.with_trial_budget(halt_after);
    }
    let options = RobustOptions {
        oracle: oracle_from(args)?,
        inject: match args.get("inject") {
            Some(spec) => FaultInjection::parse(spec)?,
            None => FaultInjection::default(),
        },
    };
    let mut journal = match (args.get("checkpoint"), args.get("resume")) {
        (Some(_), Some(_)) => {
            return Err(
                "--checkpoint and --resume are mutually exclusive (--resume reopens \
                 an existing checkpoint and keeps appending to it)"
                    .into(),
            )
        }
        (Some(path), None) => Some(CheckpointJournal::new(path)),
        (None, Some(path)) => Some(CheckpointJournal::resume(path)?),
        (None, None) => None,
    };
    if let Some(j) = &journal {
        if j.preloaded() > 0 {
            eprintln!(
                "resume: {} trial(s) preloaded from checkpoint",
                j.preloaded()
            );
        }
    }

    // A halted sweep has no rows, so it renders (and prints) nothing.
    let (artifacts, quarantine, stats, completed) = match figure {
        "fig6" => {
            let instances = args.get_usize("instances", figures::INSTANCES)?;
            let f = figures::fig6(instances, trials, &runner, options, journal.as_mut())?;
            let artifacts = f
                .rows
                .as_deref()
                .map(|rows| figures::fig6_artifacts(rows, instances, trials));
            (artifacts, f.quarantine, f.stats, f.completed)
        }
        "fig7a" => {
            let tasks = args.get_usize("tasks", figures::TASKS)?;
            let f = figures::fig7a(tasks, trials, &runner, options, journal.as_mut())?;
            let artifacts = f
                .rows
                .as_deref()
                .map(|cells| figures::fig7a_artifacts(cells, tasks, trials));
            (artifacts, f.quarantine, f.stats, f.completed)
        }
        "fig7b" => {
            let tasks = args.get_usize("tasks", figures::TASKS)?;
            let f = figures::fig7b(tasks, trials, &runner, options, journal.as_mut())?;
            let artifacts = f
                .rows
                .as_deref()
                .map(|cells| figures::fig7b_artifacts(cells, tasks, trials));
            (artifacts, f.quarantine, f.stats, f.completed)
        }
        other => return Err(format!("unknown figure `{other}`").into()),
    };

    match artifacts {
        Some(artifacts) => {
            print!("{}", artifacts.text);
            if let Some(path) = args.get("csv") {
                fs::write(path, &artifacts.csv)
                    .map_err(|e| format!("cannot write `{path}`: {e}"))?;
                eprintln!("wrote CSV to {path}");
            }
            if let Some(prefix) = args.get("svg") {
                for (suffix, svg) in &artifacts.svgs {
                    let path = format!("{prefix}{suffix}.svg");
                    fs::write(&path, svg).map_err(|e| format!("cannot write `{path}`: {e}"))?;
                    eprintln!("wrote {path}");
                }
                if artifacts.svgs.is_empty() {
                    eprintln!("svg: every trial was quarantined; no chart to write");
                }
            }
        }
        None => eprintln!(
            "sweep halted after {completed}/{} trials; finish it with --resume <checkpoint>",
            stats.trials
        ),
    }
    eprintln!("sweep: {stats}");
    if let Some(path) = args.get("quarantine") {
        let mut text = String::new();
        for record in &quarantine {
            text.push_str(&record.to_json_line());
            text.push('\n');
        }
        fs::write(path, &text).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("quarantine: wrote {} record(s) to {path}", quarantine.len());
    }
    if !quarantine.is_empty() {
        eprintln!(
            "quarantine: {} trial(s) failed; replay one with `sdem-cli repro --seed <seed> \
             <config flags from its record>`",
            quarantine.len()
        );
    }
    Ok(())
}

/// Summarizes an observability file written by `sweep --metrics` (JSON)
/// or `sweep --trace` (JSONL), auto-detected from the first line. Both
/// formats are validated while being read, so a corrupt file always
/// errors; `--check` additionally prints the validation verdict (for
/// CI assertions).
fn stats(args: &Args) -> Result<(), CliError> {
    use sdem_obs::json::{self, Value};

    let path = args
        .get("input")
        .ok_or_else(|| "`--input FILE` is required".to_string())?;
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let first = text.lines().next().unwrap_or("");

    if first.contains("\"sdem_trace\"") {
        let verdict =
            json::validate_trace(&text).map_err(|e| format!("invalid trace `{path}`: {e}"))?;
        println!(
            "trace: {} event(s), {} span(s)",
            verdict.events, verdict.spans
        );
        // Per-name tallies with total span time, sorted by name.
        let mut by_name: std::collections::BTreeMap<String, (u64, u64)> =
            std::collections::BTreeMap::new();
        for line in text.lines().skip(1).filter(|l| !l.is_empty()) {
            let event = json::parse(line).map_err(|e| e.to_string())?;
            let name = event.get("name").and_then(Value::as_str).unwrap_or("?");
            let dur = event.get("dur_ns").and_then(Value::as_u64).unwrap_or(0);
            let entry = by_name.entry(name.to_string()).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += dur;
        }
        for (name, (count, dur_ns)) in &by_name {
            println!("  {name}: {count} event(s), {dur_ns} ns total");
        }
        if args.has_flag("check") {
            println!("check: OK");
        }
        return Ok(());
    }

    let doc = json::parse(&text).map_err(|e| format!("invalid JSON `{path}`: {e}"))?;
    let verdict =
        json::validate_metrics(&doc).map_err(|e| format!("invalid metrics `{path}`: {e}"))?;
    println!(
        "metrics: {} counter(s), {} gauge(s), {} histogram(s)",
        verdict.counters, verdict.gauges, verdict.histograms
    );
    let section = |key: &str| doc.get(key).and_then(Value::as_obj).unwrap_or(&[]);
    for (name, value) in section("counters") {
        if let Some(n) = value.as_u64() {
            if n != 0 {
                println!("  counter {name} = {n}");
            }
        }
    }
    for (label, g) in section("gauges") {
        if let Some(v) = g.get("value").and_then(Value::as_f64) {
            println!("  gauge {label} = {v:e}");
        }
    }
    for (label, h) in section("histograms") {
        let field = |key: &str| h.get(key).and_then(Value::as_u64).unwrap_or(0);
        println!(
            "  histogram {label}: count={} p50<={} p90<={} p99<={} max={}",
            field("count"),
            field("p50"),
            field("p90"),
            field("p99"),
            field("max"),
        );
    }
    if args.has_flag("check") {
        println!("check: OK");
    }
    Ok(())
}

/// Replays one trial from the exact seed a quarantine record carries —
/// no resampling, no injection — and reports either the per-scheme
/// energies (the fault did not reproduce, e.g. it was injected) or the
/// structured trial error as a failure.
fn repro(args: &Args) -> Result<(), CliError> {
    if args.get("seed").is_none() {
        return Err(
            "`--seed S` is required (quarantine records carry the exact trial seed as 0x…)".into(),
        );
    }
    let seed = args.get_u64("seed", 0)?;
    let kind = args.get_or("kind", "synthetic");
    let cores = args.get_usize("cores", 8)?;
    let platform = platform_from(args)?;
    // Replay reports divergence as a structured error, never a panic.
    let oracle = match oracle_from(args)?.tolerance() {
        Some(tol) => OracleCheck::Quarantine(tol),
        None => OracleCheck::Off,
    };
    let tasks = match kind {
        "synthetic" => synthetic::sporadic(
            &SyntheticConfig::paper(
                args.get_usize("tasks", 40)?,
                Time::from_millis(args.get_f64("x-ms", 400.0)?),
            ),
            seed,
        ),
        "dspstone" => stream(
            &[Benchmark::fft_1024(), Benchmark::matrix_24()],
            args.get_f64("u", 4.0)?,
            args.get_usize("instances", 20)?,
            seed,
        ),
        // The Fig. 6 sweep's workload (quarantine configs from
        // `sweep --figure fig6` name this kind).
        "fig6" => figures::fig6_tasks(
            args.get_f64("u", 4.0)?,
            args.get_usize("instances", 15)?,
            seed,
        ),
        other => return Err(format!("unknown workload kind `{other}`").into()),
    };

    println!(
        "repro: seed {seed:#018x} kind={kind} tasks={} cores={cores}",
        tasks.len()
    );
    match run_trial_checked(&tasks, &platform, cores, oracle) {
        Ok(r) => {
            println!(
                "  SDEM-ON {:.6} J   MBKP {:.6} J   MBKPS {:.6} J   (cores used: {})",
                r.sdem_on.total().value(),
                r.mbkp.total().value(),
                r.mbkps.total().value(),
                r.sdem_cores_used,
            );
            println!("  trial ok — the quarantined fault did not reproduce");
            Ok(())
        }
        // The exit code carries the reproduced fault's taxonomy kind, so
        // a quarantine triage script can branch without parsing stderr.
        Err(e) => Err(CliError::new(
            e.error_kind(),
            format!("reproduced {}: {e}", e.kind()),
        )),
    }
}

/// The persistent scheduling daemon: JSONL requests on stdin, JSONL
/// responses on stdout (in request order), clean drain at EOF. With
/// `--metrics FILE` the run's request counters, cache counters and
/// latency histograms are exported at shutdown.
fn serve(args: &Args) -> Result<(), CliError> {
    let cfg = ServiceConfig {
        workers: args.get_usize("workers", 4)?.max(1),
        queue_depth: args.get_usize("queue", 1024)?.max(1),
        cache_capacity: args.get_usize("cache", 4096)?,
        ..Default::default()
    };
    let metrics = args.get("metrics").map(str::to_string);
    if metrics.is_some() {
        sdem_obs::registry::reset();
        sdem_obs::registry::set_enabled(true);
    }
    let stdin = std::io::stdin();
    let outcome = sdem_serve::run_session(cfg, stdin.lock(), Box::new(std::io::stdout()));
    sdem_obs::registry::set_enabled(false);
    let stats =
        outcome.map_err(|e| CliError::new(ErrorKind::Io, format!("serve: stdin read: {e}")))?;
    if let Some(path) = metrics {
        let json = sdem_obs::registry::snapshot().to_json();
        fs::write(&path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("metrics: wrote {path}");
    }
    eprintln!(
        "serve: {} request(s) — {} admitted, {} shed, {} rejected; cache: {} hit(s), \
         {} miss(es), {} eviction(s)",
        stats.submitted,
        stats.admitted,
        stats.shed,
        stats.rejected,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
    );
    Ok(())
}

/// Online trace replay through the daemon: a seeded arrival stream is
/// generated (never materialized), solved in order, and optionally
/// journaled so a killed run restarted with `--resume` emits output
/// byte-identical to an uninterrupted one. `--chaos` injects a seeded
/// fault plan whose observed ledger must match exactly.
fn replay(args: &Args) -> Result<(), CliError> {
    let trace = match args.get("trace") {
        Some(spec) => TraceSpec::parse(spec).map_err(|e| format!("replay: --trace: {e}"))?,
        None => TraceSpec::default(),
    };
    if args.get("events").is_none() {
        return Err(CliError::new(
            ErrorKind::Usage,
            "replay: --events N is required",
        ));
    }
    let events = args.get_u64("events", 0)?;
    let chaos = match args.get("chaos") {
        Some(spec) => Some(ChaosSpec::parse(spec).map_err(|e| format!("replay: --chaos: {e}"))?),
        None => None,
    };
    if args.get("journal").is_some() && args.get("resume").is_some() {
        return Err(CliError::new(
            ErrorKind::Usage,
            "replay: --journal and --resume are mutually exclusive \
             (--resume FILE already names the journal)",
        ));
    }
    let (journal, resume) = match args.get("resume") {
        Some(path) => (Some(std::path::PathBuf::from(path)), true),
        None => (args.get("journal").map(std::path::PathBuf::from), false),
    };
    let halt_after = match args.get("halt-after") {
        Some(_) => Some(args.get_u64("halt-after", 0)?),
        None => None,
    };
    let backoff = args.get_u64("backoff-ms", 5)?;
    let cfg = ReplayConfig {
        service: ServiceConfig {
            workers: args.get_usize("workers", 4)?.max(1),
            queue_depth: args.get_usize("queue", 1024)?.max(1),
            cache_capacity: args.get_usize("cache", 4096)?,
            supervisor: SupervisorConfig {
                max_restarts: args.get_u64("max-restarts", 8)? as u32,
                backoff_base_ms: backoff,
                backoff_cap_ms: backoff.saturating_mul(40).max(backoff),
            },
            ..Default::default()
        },
        trace,
        events,
        chaos,
        journal,
        resume,
        halt_after,
    };
    let metrics = args.get("metrics").map(str::to_string);
    if metrics.is_some() {
        sdem_obs::registry::reset();
        sdem_obs::registry::set_enabled(true);
    }
    let outcome = sdem_serve::replay(&cfg, Box::new(std::io::stdout()));
    sdem_obs::registry::set_enabled(false);
    let report = outcome.map_err(CliError::from)?;
    if let Some(path) = metrics {
        let json = sdem_obs::registry::snapshot().to_json();
        fs::write(&path, json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("metrics: wrote {path}");
    }
    eprintln!(
        "replay: {} event(s) — {} recovered, {} executed{}; {} worker restart(s), \
         {} degraded, {} rejected{}",
        report.events,
        report.recovered,
        report.executed,
        if report.halted { " (halted)" } else { "" },
        report.stats.worker_restarts,
        report.stats.degraded,
        report.stats.rejected,
        if report.stats.failed {
            "; FAILED FAST (restart budget exhausted)"
        } else {
            ""
        },
    );
    Ok(())
}

fn experiment(args: &Args) -> Result<(), CliError> {
    let kind = args.get_or("kind", "synthetic");
    let cores = args.get_usize("cores", 8)?;
    let trials = trials_from(args, 10)?;
    let seed = args.get_u64("seed", 0x5DE0)?;
    let platform = platform_from(args)?;
    let runner = runner_from(args)?;
    let oracle = oracle_from(args)?;

    let tasks_n = args.get_usize("tasks", 40)?;
    let x_ms = args.get_f64("x-ms", 400.0)?;
    let u = args.get_f64("u", 4.0)?;
    let instances = args.get_usize("instances", 20)?;
    let make_tasks = |s: u64| match kind {
        "synthetic" => Ok(synthetic::sporadic(
            &SyntheticConfig::paper(tasks_n, Time::from_millis(x_ms)),
            s,
        )),
        "dspstone" => Ok(stream(
            &[Benchmark::fft_1024(), Benchmark::matrix_24()],
            u,
            instances,
            s,
        )),
        other => Err(format!("unknown workload kind `{other}`")),
    };
    make_tasks(0)?; // Surface an unknown kind before spawning workers.
    let repro = format!(
        "--kind {kind} --tasks {tasks_n} --x-ms {x_ms} --u {u} --instances {instances} \
         --cores {cores} --alpha-m {} --xi-m {}",
        args.get_f64("alpha-m", api::DEFAULT_ALPHA_M_W)?,
        args.get_f64("xi-m", api::DEFAULT_XI_M_MS)?,
    );

    let outcome = runner.run(&[()], trials, seed, Workspace::new, |_, ctx, ws| {
        run_trial_quarantined_in(
            |s| make_tasks(s).expect("kind validated above"),
            &platform,
            cores,
            ctx,
            oracle,
            FaultInjection::default(),
            || repro.clone(),
            ws,
        )
    })?;
    for record in &outcome.quarantine {
        eprintln!(
            "quarantine: {record}; replay with `sdem-cli repro --seed {:#x} {}`",
            record.seed, record.config
        );
    }
    if let Some((kind, detail)) = sdem_bench::empty_study(&outcome) {
        return Err(CliError::new(kind, detail));
    }
    let results = &outcome.per_point[0];
    println!(
        "experiment: kind={kind} trials={} cores={cores} (seed {seed:#x})",
        results.len()
    );
    println!(
        "  SDEM-ON vs MBKP   system saving: {:6.2}%   memory saving: {:6.2}%",
        mean(results, |r| r.sdem_system_saving_vs_mbkp()) * 100.0,
        mean(results, |r| r.sdem_memory_saving_vs_mbkp()) * 100.0,
    );
    println!(
        "  MBKPS   vs MBKP   system saving: {:6.2}%   memory saving: {:6.2}%",
        mean(results, |r| r.mbkps_system_saving_vs_mbkp()) * 100.0,
        mean(results, |r| r.mbkps_memory_saving_vs_mbkp()) * 100.0,
    );
    println!(
        "  SDEM-ON vs MBKPS  improvement:   {:6.2}%",
        mean(results, |r| r.sdem_improvement_over_mbkps()) * 100.0,
    );
    eprintln!("sweep: {}", outcome.stats);
    Ok(())
}

fn trace(args: &Args) -> Result<(), CliError> {
    let tasks = load_tasks(args)?;
    let platform = platform_from(args)?;
    let scheme = args.get_or("scheme", default_scheme());
    let cores = args.get_usize("cores", 8)?;
    let samples = args.get_usize("samples", 500)?;
    let sched = build_schedule(scheme, &tasks, &platform, cores)?;
    sched.validate(&tasks).map_err(|e| e.to_string())?;
    let csv = trace_to_csv(&power_trace(
        &sched,
        &platform,
        sim_options(scheme),
        samples,
    ));
    match args.get("out") {
        Some(path) => {
            fs::write(path, &csv).map_err(|e| format!("cannot write `{path}`: {e}"))?;
            eprintln!("wrote {samples}-sample power trace to {path}");
        }
        None => print!("{csv}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_core::SCHEMES;

    fn sv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn help_schemes_block_matches_the_scheme_table() {
        // Names sit in columns 2..23 of HELP's SCHEMES block; wrapped
        // descriptions are indented past them.
        let block = HELP.split("SCHEMES:\n").nth(1).unwrap();
        let block = block.split("\n\n").next().unwrap();
        let listed: Vec<&str> = block
            .lines()
            .filter_map(|line| line.get(2..23).filter(|col| !col.starts_with(' ')))
            .flat_map(str::split_whitespace)
            .filter(|token| !matches!(*token, "|" | "(default)"))
            .collect();
        for name in SCHEMES.iter().filter_map(|e| e.wire) {
            assert!(
                listed.contains(&name),
                "HELP's SCHEMES block omits `{name}`"
            );
        }
        // Every listed SDEM name parses; the rest are batch-only baselines.
        for name in listed {
            let baseline = matches!(name, "mbkp" | "mbkps" | "yds" | "oa" | "avr" | "css");
            assert!(
                baseline || api::scheme_from_name(name, 8).is_ok(),
                "HELP lists `{name}`, which does not parse"
            );
        }
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&sv(&["help"])).is_ok());
        assert!(run(&[]).is_ok());
        assert!(run(&sv(&["frobnicate"])).is_err());
    }

    #[test]
    fn usage_keys_are_read_from_the_help_entries() {
        assert_eq!(
            usage_keys("trace"),
            ["input", "scheme", "samples", "out", "cores", "alpha-m", "xi-m"]
        );
        assert_eq!(
            usage_keys("dag solve"),
            ["input", "cores", "alpha-m", "xi-m", "oracle", "oracle-tol"]
        );
        assert_eq!(usage_keys("sweep").len(), 17);
        assert!(usage_keys("help").is_empty());
        assert!(!usage_keys("repro").contains(&"oracle-keep-going"));
    }

    #[test]
    fn dag_generate_solve_sweep_round_trip() {
        let dir = std::env::temp_dir().join("sdem-cli-dag-test");
        fs::create_dir_all(&dir).unwrap();
        let suite = dir.join("suite.yaml");
        let suite_path = suite.to_str().unwrap().to_string();

        run(&sv(&[
            "dag",
            "generate",
            "--count",
            "3",
            "--nodes",
            "7",
            "--seed",
            "11",
            "--out",
            &suite_path,
        ]))
        .unwrap();
        run(&sv(&[
            "dag",
            "solve",
            "--input",
            &suite_path,
            "--cores",
            "4",
            "--oracle",
        ]))
        .unwrap();

        // The sweep's CSV must be byte-identical across worker counts.
        let csv_for = |threads: &str| {
            let out = dir.join(format!("sweep-{threads}.csv"));
            let out_path = out.to_str().unwrap().to_string();
            run(&sv(&[
                "dag",
                "sweep",
                "--suites",
                "2",
                "--threads",
                threads,
                "--csv",
                &out_path,
            ]))
            .unwrap();
            fs::read_to_string(out).unwrap()
        };
        let serial = csv_for("1");
        assert_eq!(serial, csv_for("4"));
        assert!(serial.starts_with("suite,seed,cores,feasible"));

        // Usage errors carry the usage taxonomy code.
        let missing = run(&sv(&["dag"])).unwrap_err();
        assert_eq!(missing.kind, ErrorKind::Usage);
        let unknown = run(&sv(&["dag", "frobnicate"])).unwrap_err();
        assert_eq!(unknown.kind, ErrorKind::Usage);
    }

    #[test]
    fn generate_schedule_compare_round_trip() {
        let dir = std::env::temp_dir().join("sdem-cli-test");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("tasks.txt");
        let path = file.to_str().unwrap().to_string();

        run(&sv(&[
            "generate",
            "--kind",
            "synthetic",
            "--tasks",
            "12",
            "--seed",
            "3",
            "--out",
            &path,
        ]))
        .unwrap();
        run(&sv(&[
            "schedule", "--input", &path, "--scheme", "sdem-on", "--quiet",
        ]))
        .unwrap();
        run(&sv(&[
            "schedule", "--input", &path, "--scheme", "mbkp", "--quiet",
        ]))
        .unwrap();
        run(&sv(&["compare", "--input", &path])).unwrap();
        let csv = dir.join("trace.csv");
        let csv_path = csv.to_str().unwrap().to_string();
        run(&sv(&[
            "trace",
            "--input",
            &path,
            "--samples",
            "50",
            "--out",
            &csv_path,
        ]))
        .unwrap();
        let text = fs::read_to_string(&csv).unwrap();
        assert!(text.starts_with("time_s,"));
        assert_eq!(text.lines().count(), 51);
        fs::remove_file(&csv).ok();
        fs::remove_file(&file).ok();
    }

    #[test]
    fn common_release_schemes_require_common_release_input() {
        let dir = std::env::temp_dir().join("sdem-cli-test2");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("cr.txt");
        let path = file.to_str().unwrap().to_string();
        run(&sv(&[
            "generate",
            "--kind",
            "common-release",
            "--tasks",
            "6",
            "--out",
            &path,
        ]))
        .unwrap();
        run(&sv(&[
            "schedule",
            "--input",
            &path,
            "--scheme",
            "cr-alpha-nonzero",
            "--quiet",
        ]))
        .unwrap();
        run(&sv(&[
            "schedule",
            "--input",
            &path,
            "--scheme",
            "cr-overhead",
            "--quiet",
            "--gantt",
        ]))
        .unwrap();
        fs::remove_file(&file).ok();
    }

    #[test]
    fn experiment_command_and_error_paths() {
        run(&sv(&[
            "experiment",
            "--trials",
            "2",
            "--tasks",
            "12",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert!(run(&sv(&["sweep", "--figure", "fig9"])).is_err());
        assert!(run(&sv(&["experiment", "--kind", "quantum"])).is_err());
    }

    #[test]
    fn oracle_flag_and_tolerance_are_wired() {
        run(&sv(&[
            "experiment",
            "--trials",
            "2",
            "--tasks",
            "12",
            "--oracle",
        ]))
        .unwrap();
        // A bare --oracle-tol also enables the oracle.
        run(&sv(&[
            "experiment",
            "--trials",
            "1",
            "--tasks",
            "12",
            "--oracle-tol",
            "1e-5",
        ]))
        .unwrap();
        assert!(run(&sv(&[
            "experiment",
            "--trials",
            "1",
            "--oracle-tol",
            "-1.0",
        ]))
        .is_err());
        // At zero tolerance round-off diverges: fail-fast kills the
        // replicates, --oracle-keep-going quarantines them instead.
        let zero = [
            "experiment",
            "--trials",
            "4",
            "--tasks",
            "12",
            "--oracle-tol",
            "0",
        ];
        let fatal = run(&sv(&zero)).unwrap_err();
        assert_eq!(fatal.kind, ErrorKind::WorkerPanic);
        let kept = run(&sv(&[&zero[..], &["--oracle-keep-going"]].concat()));
        assert!(kept.map_or_else(|e| e.kind != ErrorKind::WorkerPanic, |()| true));
    }

    #[test]
    fn schedule_fallback_degrades_on_scheme_mismatch() {
        let dir = std::env::temp_dir().join("sdem-cli-fallback");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("staggered.txt");
        let path = file.to_str().unwrap().to_string();
        // Sporadic releases are NOT common-release, so cr-alpha-nonzero
        // rejects the instance outright…
        run(&sv(&[
            "generate",
            "--kind",
            "synthetic",
            "--tasks",
            "8",
            "--seed",
            "2",
            "--out",
            &path,
        ]))
        .unwrap();
        assert!(run(&sv(&[
            "schedule",
            "--input",
            &path,
            "--scheme",
            "cr-alpha-nonzero",
            "--quiet",
        ]))
        .is_err());
        // …but the fallback chain degrades to race-to-idle and completes.
        run(&sv(&[
            "schedule",
            "--input",
            &path,
            "--scheme",
            "cr-alpha-nonzero",
            "--fallback",
            "--quiet",
        ]))
        .unwrap();
        // Baselines have no fallback route.
        assert!(run(&sv(&[
            "schedule",
            "--input",
            &path,
            "--scheme",
            "mbkp",
            "--fallback",
            "--quiet",
        ]))
        .is_err());
        fs::remove_file(&file).ok();
    }

    #[test]
    fn robust_sweep_quarantines_and_repro_replays() {
        let dir = std::env::temp_dir().join("sdem-cli-robust");
        fs::create_dir_all(&dir).unwrap();
        let q = dir.join("quarantine.jsonl");
        let qp = q.to_str().unwrap().to_string();
        run(&sv(&[
            "sweep",
            "--figure",
            "fig6",
            "--instances",
            "4",
            "--trials",
            "2",
            "--threads",
            "2",
            "--inject",
            "panics=2,nans=1",
            "--quarantine",
            &qp,
        ]))
        .unwrap();
        let text = fs::read_to_string(&q).unwrap();
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.contains("solver-panic"));
        assert!(text.contains("non-finite-energy"));
        assert!(text.contains("--kind fig6"));

        // Replay the first record's exact seed: the fault was injected, so
        // the replayed trial is clean and repro exits successfully.
        let seed = text
            .lines()
            .next()
            .unwrap()
            .split("\"seed\":\"")
            .nth(1)
            .unwrap()
            .split('"')
            .next()
            .unwrap()
            .to_string();
        run(&sv(&[
            "repro",
            "--seed",
            &seed,
            "--kind",
            "fig6",
            "--instances",
            "4",
            "--u",
            "2",
        ]))
        .unwrap();
        assert!(run(&sv(&["repro"])).is_err());
        assert!(run(&sv(&["sweep", "--inject", "gremlins=1"])).is_err());
        fs::remove_file(&q).ok();
    }

    #[test]
    fn sweep_metrics_trace_and_stats_round_trip() {
        let dir = std::env::temp_dir().join("sdem-cli-obs");
        fs::create_dir_all(&dir).unwrap();
        let metrics = dir.join("metrics.json");
        let trace = dir.join("trace.jsonl");
        let mp = metrics.to_str().unwrap().to_string();
        let tp = trace.to_str().unwrap().to_string();
        run(&sv(&[
            "sweep",
            "--figure",
            "fig7a",
            "--trials",
            "1",
            "--tasks",
            "8",
            "--threads",
            "2",
            "--metrics",
            &mp,
            "--trace",
            &tp,
        ]))
        .unwrap();

        // Both files validate and summarize (other tests in this binary
        // may sweep concurrently while the registry is armed, so only
        // structural facts are asserted — exact counts live in the
        // single-process obs_identity suite).
        run(&sv(&["stats", "--input", &mp, "--check"])).unwrap();
        run(&sv(&["stats", "--input", &tp, "--check"])).unwrap();
        let text = fs::read_to_string(&metrics).unwrap();
        assert!(text.contains("\"sdem_metrics\": 1"));
        assert!(text.contains("trials_run"));
        assert!(text.contains("energy/sdem_on_total_j"));
        assert!(fs::read_to_string(&trace)
            .unwrap()
            .starts_with("{\"sdem_trace\":1"));

        // A corrupt file must fail validation, and stats needs --input.
        let torn = dir.join("torn.json");
        fs::write(&torn, &text[..text.len() / 2]).unwrap();
        assert!(run(&sv(&[
            "stats",
            "--input",
            torn.to_str().unwrap(),
            "--check"
        ]))
        .is_err());
        assert!(run(&sv(&["stats"])).is_err());
        assert!(run(&sv(&["stats", "--input", "/nonexistent/x.json"])).is_err());

        for f in [&metrics, &trace, &torn] {
            fs::remove_file(f).ok();
        }
    }

    #[test]
    fn checkpointed_sweep_halts_and_resumes() {
        let dir = std::env::temp_dir().join("sdem-cli-ckpt");
        fs::create_dir_all(&dir).unwrap();
        let cp = dir.join("ckpt.jsonl");
        let cpp = cp.to_str().unwrap().to_string();
        run(&sv(&[
            "sweep",
            "--figure",
            "fig6",
            "--instances",
            "4",
            "--trials",
            "2",
            "--threads",
            "2",
            "--checkpoint",
            &cpp,
            "--halt-after",
            "5",
        ]))
        .unwrap();
        run(&sv(&[
            "sweep",
            "--figure",
            "fig6",
            "--instances",
            "4",
            "--trials",
            "2",
            "--threads",
            "4",
            "--resume",
            &cpp,
        ]))
        .unwrap();
        assert!(run(&sv(&[
            "sweep",
            "--checkpoint",
            "a.jsonl",
            "--resume",
            "b.jsonl",
        ]))
        .is_err());
        // Resuming under a different grid is rejected.
        assert!(run(&sv(&[
            "sweep",
            "--figure",
            "fig6",
            "--instances",
            "4",
            "--trials",
            "3",
            "--resume",
            &cpp,
        ]))
        .is_err());
        fs::remove_file(&cp).ok();
    }

    #[test]
    fn unknown_scheme_and_kind_are_reported() {
        assert!(run(&sv(&["generate", "--kind", "quantum"])).is_err());
        let dir = std::env::temp_dir().join("sdem-cli-test3");
        fs::create_dir_all(&dir).unwrap();
        let file = dir.join("t.txt");
        let path = file.to_str().unwrap().to_string();
        run(&sv(&["generate", "--tasks", "4", "--out", &path])).unwrap();
        assert!(run(&sv(&["schedule", "--input", &path, "--scheme", "magic"])).is_err());
        fs::remove_file(&file).ok();
    }
}
