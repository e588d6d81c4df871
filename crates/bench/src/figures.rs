//! The paper's figure sweeps (Fig. 6a/6b, Fig. 7a, Fig. 7b) and the DAG
//! energy-vs-cores table, fanned across worker threads by [`SweepRunner`]
//! at *trial* granularity, and the renderers that turn their rows into
//! the committed `results/` artifacts. Per-trial deterministic seeding
//! makes every sweep's output identical for any thread count.

use sdem_core::dag::{recycle_dag_report, solve_dags_in};
use sdem_core::{OracleOptions, SdemError};
use sdem_exec::{
    CheckpointJournal, QuarantineRecord, SweepError, SweepRunner, SweepStats, TrialCtx,
    TrialFailure,
};
use sdem_power::{MemoryPower, Platform};
use sdem_prng::SplitMix64;
use sdem_types::{ErrorKind, TaskSet, Time, Watts, Workspace};
use sdem_workload::dag::{suite as dag_suite, DagConfig};
use sdem_workload::dspstone::{stream, Benchmark};
use sdem_workload::paper;
use sdem_workload::synthetic::{sporadic, SyntheticConfig};

use crate::experiment::{
    decode_trial_result, encode_trial_result, mean, run_trial_quarantined_in, FaultInjection,
    OracleCheck, TrialResult,
};
use crate::plot::{line_chart, ChartOptions, Series};

/// Replicates per grid point in the paper configuration.
pub const TRIALS: usize = paper::TRIALS_PER_POINT;
/// Tasks per Fig. 7 trial in the paper configuration.
pub const TASKS: usize = 60;
/// Benchmark instances per Fig. 6 stream in the paper configuration.
pub const INSTANCES: usize = 30;

/// Grid seed of the Fig. 6 sweep.
pub const FIG6_GRID_SEED: u64 = 0xF16_6000;
/// Grid seed of the Fig. 7a (`α_m × x`) sweep.
pub const FIG7A_GRID_SEED: u64 = 0xF17_A000;
/// Grid seed of the Fig. 7b (`ξ_m × x`) sweep.
pub const FIG7B_GRID_SEED: u64 = 0xF17_B000;

/// One row of Fig. 6 (both panels share the x-axis `U`).
#[derive(Debug, Clone, Copy)]
pub struct Fig6Row {
    /// Utilization scale `U` (larger = lower utilization).
    pub u: f64,
    /// Fig. 6a: memory static-energy saving of SDEM-ON vs MBKP (fraction).
    pub sdem_memory_saving: f64,
    /// Fig. 6a: memory saving of MBKPS vs MBKP.
    pub mbkps_memory_saving: f64,
    /// Fig. 6b: system-wide saving of SDEM-ON vs MBKP.
    pub sdem_system_saving: f64,
    /// Fig. 6b: system-wide saving of MBKPS vs MBKP.
    pub mbkps_system_saving: f64,
}

/// The Fig. 6 workload at utilization scale `u`: eight sporadic streams
/// (four FFT-1024, four matrix-multiply) populate the eight-core
/// platform, matching §8.1.2's premise that at `U = 2` (high
/// utilization) "all 8 cores are most likely to be used at any time".
pub fn fig6_tasks(u: f64, instances_per_stream: usize, seed: u64) -> TaskSet {
    let (fft, matmul) = (Benchmark::fft_1024(), Benchmark::matrix_24());
    let streams = [fft, matmul, fft, matmul, fft, matmul, fft, matmul];
    stream(&streams, u, instances_per_stream, seed)
}

/// Publishes exact sweep-wide energy totals to the `sdem-obs` gauge
/// registry (no-op when observability is off).
///
/// The sums are computed here, *after* the engine's deterministic merge,
/// by folding the per-trial reports in sorted trial order — the same
/// order an untraced sweep aggregates in — so each gauge matches the
/// untraced aggregate bit for bit at any thread count. (The meter's own
/// counters accumulate integer nanojoules concurrently instead, which
/// is order-independent but rounded.)
pub fn publish_energy_gauges(per_point: &[Vec<TrialResult>]) {
    use sdem_obs::registry::{enabled, set_gauge};
    if !enabled() {
        return;
    }
    let mut totals = [(0.0f64, 0.0f64); 4]; // (core, memory) per scheme
    for results in per_point {
        for r in results {
            for (acc, report) in
                totals
                    .iter_mut()
                    .zip([&r.sdem_on, &r.mbkp, &r.mbkps, &r.mbkps_always])
            {
                acc.0 += report.core_total().value();
                acc.1 += report.memory_total().value();
            }
        }
    }
    let labels: [(&str, &str, &str); 4] = [
        (
            "energy/sdem_on_core_j",
            "energy/sdem_on_memory_j",
            "energy/sdem_on_total_j",
        ),
        (
            "energy/mbkp_core_j",
            "energy/mbkp_memory_j",
            "energy/mbkp_total_j",
        ),
        (
            "energy/mbkps_core_j",
            "energy/mbkps_memory_j",
            "energy/mbkps_total_j",
        ),
        (
            "energy/mbkps_always_core_j",
            "energy/mbkps_always_memory_j",
            "energy/mbkps_always_total_j",
        ),
    ];
    for ((core, memory), (core_label, memory_label, total_label)) in totals.iter().zip(labels) {
        set_gauge(core_label, *core);
        set_gauge(memory_label, *memory);
        set_gauge(total_label, core + memory);
    }
}

/// One cell of the Fig. 7 sweeps.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Cell {
    /// Maximum inter-arrival `x` (ms) — utilization axis.
    pub x_ms: f64,
    /// The swept parameter (`α_m` in W for 7a, `ξ_m` in ms for 7b).
    pub param: f64,
    /// System-wide improvement of SDEM-ON over MBKPS (fraction).
    pub improvement: f64,
}

/// Fault-handling options of the figure sweeps.
#[derive(Debug, Clone, Copy, Default)]
pub struct RobustOptions {
    /// The sim-oracle every trial runs (off by default); with
    /// [`OracleCheck::Quarantine`] a divergence is quarantined instead of
    /// aborting the sweep.
    pub oracle: OracleCheck,
    /// Deterministic fault injection for robustness smokes.
    pub inject: FaultInjection,
}

/// Result of a figure sweep: the aggregate rows (absent when a trial
/// budget stopped the sweep early), the quarantine journal, and the
/// sweep statistics.
#[derive(Debug)]
pub struct RobustFigure<Row> {
    /// Aggregated figure rows; `None` when the sweep is partial (resume
    /// from the checkpoint to finish). A row whose every replicate was
    /// quarantined carries NaN means rather than aborting the figure.
    pub rows: Option<Vec<Row>>,
    /// One record per quarantined trial, sorted by trial index —
    /// identical for any thread count.
    pub quarantine: Vec<QuarantineRecord>,
    /// Wall-clock/throughput statistics (including the quarantine count).
    pub stats: SweepStats,
    /// Trials accounted for (executed plus checkpoint-preloaded).
    pub completed: usize,
}

impl<Row> RobustFigure<Row> {
    /// The rows and statistics of a sweep that must run clean, as the
    /// goldens require.
    ///
    /// # Panics
    ///
    /// Panics naming the first quarantined trial, or if the sweep is
    /// partial.
    pub fn expect_clean(self) -> (Vec<Row>, SweepStats) {
        if let Some(first) = self.quarantine.first() {
            panic!(
                "{} trial(s) quarantined, first: {first}",
                self.quarantine.len()
            );
        }
        (self.rows.expect("sweep stopped early"), self.stats)
    }
}

/// Runs one replicate per `(point, trial)` on [`SweepRunner::run`] —
/// checkpointed when a journal is supplied, through the bit-exact
/// [`encode_trial_result`] / [`decode_trial_result`] codec so a resumed
/// run reproduces an uninterrupted one byte for byte — and aggregates
/// each point's surviving replicates into a row.
fn run_figure<P: Sync, Row>(
    runner: &SweepRunner,
    points: &[P],
    trials: usize,
    grid_seed: u64,
    journal: Option<&mut CheckpointJournal>,
    trial: impl Fn(&P, &TrialCtx, &mut Workspace) -> Result<TrialResult, TrialFailure> + Sync,
    row: impl Fn(&P, &[TrialResult]) -> Row,
) -> Result<RobustFigure<Row>, SweepError> {
    let outcome = match journal {
        Some(journal) => runner.run_checkpointed(
            points,
            trials,
            grid_seed,
            Workspace::new,
            trial,
            encode_trial_result,
            decode_trial_result,
            journal,
        ),
        None => runner.run(points, trials, grid_seed, Workspace::new, trial),
    }?;
    publish_energy_gauges(&outcome.per_point);
    let rows = (!outcome.is_partial()).then(|| {
        points
            .iter()
            .zip(&outcome.per_point)
            .map(|(point, results)| row(point, results))
            .collect()
    });
    Ok(RobustFigure {
        rows,
        quarantine: outcome.quarantine,
        stats: outcome.stats,
        completed: outcome.completed,
    })
}

/// Fig. 6 sweep: [`fig6_tasks`] over the `U` grid on the default
/// platform (Table 4 stars), `trials` replicates per point.
///
/// Panicking, NaN-producing or diverging trials are quarantined (with
/// their exact seed and a `sdem repro` config string) instead of
/// aborting the sweep, and the sweep optionally journals every finished
/// trial to `journal` for checkpoint/resume.
///
/// # Errors
///
/// Returns a [`SweepError`] on worker death (a fatal panic) or a
/// checkpoint I/O / mismatch problem.
pub fn fig6(
    instances_per_stream: usize,
    trials: usize,
    runner: &SweepRunner,
    options: RobustOptions,
    journal: Option<&mut CheckpointJournal>,
) -> Result<RobustFigure<Fig6Row>, SweepError> {
    let platform = Platform::paper_defaults();
    run_figure(
        runner,
        &paper::U_POINTS,
        trials,
        FIG6_GRID_SEED,
        journal,
        |&u, ctx, ws| {
            run_trial_quarantined_in(
                |seed| fig6_tasks(u, instances_per_stream, seed),
                &platform,
                paper::NUM_CORES,
                ctx,
                options.oracle,
                options.inject,
                || format!("--kind fig6 --instances {instances_per_stream} --u {u}"),
                ws,
            )
        },
        |&u, results| Fig6Row {
            u,
            sdem_memory_saving: mean(results, |r| r.sdem_memory_saving_vs_mbkp()),
            mbkps_memory_saving: mean(results, |r| r.mbkps_memory_saving_vs_mbkp()),
            sdem_system_saving: mean(results, |r| r.sdem_system_saving_vs_mbkp()),
            mbkps_system_saving: mean(results, |r| r.mbkps_system_saving_vs_mbkp()),
        },
    )
}

/// Fig. 7a sweep: `α_m × x`, default `ξ_m`; see [`fig6`] for the fault
/// handling.
///
/// # Errors
///
/// Returns a [`SweepError`] on worker death or checkpoint problems.
pub fn fig7a(
    tasks_per_trial: usize,
    trials: usize,
    runner: &SweepRunner,
    options: RobustOptions,
    journal: Option<&mut CheckpointJournal>,
) -> Result<RobustFigure<Fig7Cell>, SweepError> {
    fig7(
        tasks_per_trial,
        trials,
        &paper::ALPHA_M_POINTS_W,
        FIG7A_GRID_SEED,
        runner,
        options,
        journal,
        |alpha_m| (alpha_m, paper::DEFAULT_XI_M_MS),
    )
}

/// Fig. 7b sweep: `ξ_m × x`, default `α_m`; see [`fig6`] for the fault
/// handling.
///
/// # Errors
///
/// Returns a [`SweepError`] on worker death or checkpoint problems.
pub fn fig7b(
    tasks_per_trial: usize,
    trials: usize,
    runner: &SweepRunner,
    options: RobustOptions,
    journal: Option<&mut CheckpointJournal>,
) -> Result<RobustFigure<Fig7Cell>, SweepError> {
    fig7(
        tasks_per_trial,
        trials,
        &paper::XI_M_POINTS_MS,
        FIG7B_GRID_SEED,
        runner,
        options,
        journal,
        |xi_m| (paper::DEFAULT_ALPHA_M_W, xi_m),
    )
}

/// A Fig. 7 sweep over `params × x`, where `memory_of` maps a parameter
/// to the memory's `(α_m in W, ξ_m in ms)`.
#[allow(clippy::too_many_arguments)]
fn fig7(
    tasks_per_trial: usize,
    trials: usize,
    params: &[f64],
    grid_seed: u64,
    runner: &SweepRunner,
    options: RobustOptions,
    journal: Option<&mut CheckpointJournal>,
    memory_of: impl Fn(f64) -> (f64, f64) + Sync,
) -> Result<RobustFigure<Fig7Cell>, SweepError> {
    // One grid point per (param, x); the runner fans the replicates of
    // every point across workers and regroups them deterministically.
    let grid: Vec<(f64, f64)> = params
        .iter()
        .flat_map(|&param| paper::X_POINTS_MS.iter().map(move |&x| (param, x)))
        .collect();
    run_figure(
        runner,
        &grid,
        trials,
        grid_seed,
        journal,
        |&(param, x_ms), ctx, ws| {
            let (alpha_m, xi_m) = memory_of(param);
            let platform = Platform::paper_defaults().with_memory(
                MemoryPower::new(Watts::new(alpha_m)).with_break_even(Time::from_millis(xi_m)),
            );
            let cfg = SyntheticConfig::paper(tasks_per_trial, Time::from_millis(x_ms));
            run_trial_quarantined_in(
                |seed| sporadic(&cfg, seed),
                &platform,
                paper::NUM_CORES,
                ctx,
                options.oracle,
                options.inject,
                || {
                    format!(
                        "--kind synthetic --tasks {tasks_per_trial} --x-ms {x_ms} \
                         --alpha-m {alpha_m} --xi-m {xi_m}"
                    )
                },
                ws,
            )
        },
        |&(param, x_ms), results| Fig7Cell {
            x_ms,
            param,
            improvement: mean(results, |r| r.sdem_improvement_over_mbkps()),
        },
    )
}

/// Grid seed of the DAG federated energy-vs-cores sweep.
pub const DAG_GRID_SEED: u64 = 0xDA6_0000;

/// Configuration of the DAG federated energy-vs-cores sweep.
#[derive(Debug, Clone)]
pub struct DagSweepConfig {
    /// Number of independently seeded DAG suites (rows per core count).
    pub suites: usize,
    /// DAGs per suite, sharing one frame window.
    pub dags_per_suite: usize,
    /// Nodes per DAG (forwarded to [`sdem_workload::dag::DagConfig::paper`]).
    pub nodes: usize,
    /// Frame window (common deadline and period) of every DAG.
    pub frame: Time,
    /// Core budgets to sweep, one column per entry.
    pub cores: Vec<usize>,
    /// Master seed; per-suite seeds are mixed from it with `SplitMix64`.
    pub seed: u64,
}

impl DagSweepConfig {
    /// The committed default: three suites of four nine-node DAGs in a
    /// 120 ms frame, swept over 2–8 cores.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            suites: 3,
            dags_per_suite: 4,
            nodes: 9,
            frame: Time::from_millis(120.0),
            cores: vec![2, 3, 4, 6, 8],
            seed: DAG_GRID_SEED,
        }
    }
}

/// One cell of the DAG sweep: one suite solved under one core budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagEnergyRow {
    /// Suite index within the sweep.
    pub suite: usize,
    /// The suite's derived generator seed (replayable in isolation).
    pub seed: u64,
    /// Core budget handed to the federated allocator.
    pub cores: usize,
    /// Whether the allocator found a feasible allocation in this budget.
    pub feasible: bool,
    /// Aggregate metered energy of the merged schedule (0 if infeasible).
    pub energy_j: f64,
    /// Memory sleep achieved by the merged schedule, in milliseconds.
    pub memory_sleep_ms: f64,
    /// Dedicated clusters granted to heavy DAGs.
    pub clusters: usize,
    /// Cores carrying at least one segment.
    pub cores_used: usize,
}

/// Solves every `(suite, core budget)` cell of the grid with
/// [`sdem_core::dag::solve_dags_in`] and cross-checks each feasible
/// solution against the sim-oracle meter. Infeasible budgets become
/// `feasible = false` rows rather than failures, so the CSV shows where
/// the federated bound stops fitting.
///
/// Every trial is a pure function of `(config, cell)`, so the rows are
/// bit-identical for any thread count.
///
/// # Panics
///
/// On the first failed cell (oracle divergence, unexpected solver error
/// or solver panic), naming its suite and core budget: the sweep is a
/// correctness gate, not a best-effort report.
pub fn dag_energy_with(
    config: &DagSweepConfig,
    runner: &SweepRunner,
) -> (Vec<DagEnergyRow>, SweepStats) {
    let platform = Platform::paper_defaults();
    let points: Vec<(usize, usize)> = (0..config.suites)
        .flat_map(|s| config.cores.iter().map(move |&c| (s, c)))
        .collect();
    let outcome = runner.run(
        &points,
        1,
        config.seed,
        Workspace::new,
        |&(suite, cores), _ctx, ws| {
            let seed = SplitMix64::mix(&[config.seed, suite as u64]);
            let dag_config = DagConfig::paper(config.nodes, config.frame);
            let dags = dag_suite(&dag_config, config.dags_per_suite, seed);
            let row = match solve_dags_in(&dags, &platform, cores, ws) {
                Ok(report) => {
                    let metered = report
                        .verify_against_meter(&platform, OracleOptions::default())
                        .map_err(|e| {
                            TrialFailure::of(ErrorKind::OracleDivergence, e.to_string())
                        })?;
                    let row = DagEnergyRow {
                        suite,
                        seed,
                        cores,
                        feasible: true,
                        energy_j: metered.value(),
                        memory_sleep_ms: report.solution.memory_sleep().as_millis(),
                        clusters: report.clusters,
                        cores_used: report.cores_used,
                    };
                    recycle_dag_report(report, ws);
                    row
                }
                Err(SdemError::NoCores | SdemError::InfeasibleTask(_)) => DagEnergyRow {
                    suite,
                    seed,
                    cores,
                    feasible: false,
                    energy_j: 0.0,
                    memory_sleep_ms: 0.0,
                    clusters: 0,
                    cores_used: 0,
                },
                Err(e) => return Err(TrialFailure::of(e.kind(), e.to_string())),
            };
            Ok(row)
        },
    );
    let outcome = outcome.unwrap_or_else(|e| panic!("{e}"));
    if let Some(first) = outcome.quarantine.first() {
        let (suite, cores) = points[first.point];
        panic!(
            "suite {suite} at {cores} cores: {}: {}",
            first.kind, first.detail
        );
    }
    let rows = outcome
        .per_point
        .into_iter()
        .map(|mut cell| cell.pop().expect("one replicate per cell"))
        .collect();
    (rows, outcome.stats)
}

/// Renders the DAG sweep as CSV (one row per `(suite, cores)` cell).
pub fn dag_energy_to_csv(rows: &[DagEnergyRow]) -> String {
    let mut out =
        String::from("suite,seed,cores,feasible,energy_j,memory_sleep_ms,clusters,cores_used\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{:.6},{:.6},{},{}\n",
            r.suite,
            r.seed,
            r.cores,
            u8::from(r.feasible),
            r.energy_j,
            r.memory_sleep_ms,
            r.clusters,
            r.cores_used,
        ));
    }
    out
}

/// Renders Fig. 6 rows as CSV.
pub fn fig6_to_csv(rows: &[Fig6Row]) -> String {
    let mut out = String::from(
        "u,sdem_memory_saving,mbkps_memory_saving,sdem_system_saving,mbkps_system_saving\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{:.6}\n",
            r.u,
            r.sdem_memory_saving,
            r.mbkps_memory_saving,
            r.sdem_system_saving,
            r.mbkps_system_saving,
        ));
    }
    out
}

/// Renders a Fig. 7 sweep as CSV (`param,x_ms,improvement`).
pub fn fig7_to_csv(cells: &[Fig7Cell], param_name: &str) -> String {
    let mut out = format!("{param_name},x_ms,improvement\n");
    for c in cells {
        out.push_str(&format!("{},{},{:.6}\n", c.param, c.x_ms, c.improvement));
    }
    out
}

/// Formats a Fig. 7 sweep as an aligned table (`param` rows × `x` columns).
fn format_fig7(cells: &[Fig7Cell], param_name: &str) -> String {
    let mut params: Vec<f64> = cells.iter().map(|c| c.param).collect();
    params.dedup();
    let mut xs: Vec<f64> = cells.iter().map(|c| c.x_ms).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup();

    let mut out = String::new();
    out.push_str(&format!("{param_name:>10} |"));
    for x in &xs {
        out.push_str(&format!(" x={x:>5.0}ms"));
    }
    out.push('\n');
    out.push_str(&"-".repeat(12 + 10 * xs.len()));
    out.push('\n');
    for p in &params {
        out.push_str(&format!("{p:>10.1} |"));
        for x in &xs {
            let cell = cells
                .iter()
                .find(|c| c.param == *p && c.x_ms == *x)
                .expect("complete sweep");
            out.push_str(&format!(" {:>8.2}%", cell.improvement * 100.0));
        }
        out.push('\n');
    }
    let avg = cells.iter().map(|c| c.improvement).sum::<f64>() / cells.len() as f64;
    out.push_str(&format!(
        "average SDEM-ON improvement over MBKPS: {:.2}%\n",
        avg * 100.0
    ));
    out
}

/// A figure sweep's output, rendered from its rows: the text `sdem-cli
/// sweep` prints, the CSV it writes with `--csv`, and the charts it
/// writes with `--svg PREFIX`.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// Header, table and averages.
    pub text: String,
    /// The rows as CSV.
    pub csv: String,
    /// `(suffix, svg)` per chart, written to `PREFIX<suffix>.svg`. A
    /// chart with no finite point (every replicate quarantined) is left
    /// out.
    pub svgs: Vec<(&'static str, String)>,
}

/// A line chart, or `None` when no point is finite.
fn chart(series: &[Series], options: &ChartOptions) -> Option<String> {
    let mut points = series.iter().flat_map(|s| &s.points);
    points
        .any(|(x, y)| x.is_finite() && y.is_finite())
        .then(|| line_chart(series, options))
}

/// Fig. 6's artifacts: both panels as tables with their average gap
/// over MBKPS and the paper's, and one chart per panel (`a`, `b`).
pub fn fig6_artifacts(rows: &[Fig6Row], instances: usize, trials: usize) -> Artifacts {
    let n = rows.len() as f64;
    let memory_gap = rows
        .iter()
        .map(|r| r.sdem_memory_saving - r.mbkps_memory_saving)
        .sum::<f64>()
        / n;
    let system_gap = rows
        .iter()
        .map(|r| 1.0 - (1.0 - r.sdem_system_saving) / (1.0 - r.mbkps_system_saving))
        .sum::<f64>()
        / n;
    let mut out = Artifacts {
        text: format!(
            "Fig. 6 — DSPstone FFT-1024 + MatMul, {instances} instances/stream, \
             {trials} trials/point\n\
             platform: Cortex-A57 ×{}, α_m = {} W, ξ_m = {} ms (Table 4 defaults)\n\n",
            paper::NUM_CORES,
            paper::DEFAULT_ALPHA_M_W,
            paper::DEFAULT_XI_M_MS
        ),
        csv: fig6_to_csv(rows),
        svgs: Vec::new(),
    };
    fig6_panel(&mut out, rows, "a", "memory static-energy saving", |r| {
        (r.sdem_memory_saving, r.mbkps_memory_saving)
    });
    out.text.push_str(&format!(
        "average memory-saving improvement of SDEM-ON over MBKPS: {:.2}%  (paper: 10.02%)\n\n",
        memory_gap * 100.0
    ));
    fig6_panel(&mut out, rows, "b", "system-wide energy saving", |r| {
        (r.sdem_system_saving, r.mbkps_system_saving)
    });
    out.text.push_str(&format!(
        "average system-energy saving of SDEM-ON over MBKPS: {:.2}%  (paper: 23.45%)\n",
        system_gap * 100.0
    ));
    out
}

/// Appends one Fig. 6 panel: its table of the `(SDEM-ON, MBKPS)` savings
/// `saving` reads from each row, and its chart.
fn fig6_panel(
    out: &mut Artifacts,
    rows: &[Fig6Row],
    panel: &'static str,
    what: &str,
    saving: impl Fn(&Fig6Row) -> (f64, f64),
) {
    let title = format!("Fig. 6{panel} — {what}");
    out.text.push_str(&format!(
        "{title} vs MBKP\n{:>4} {:>12} {:>12}\n",
        "U", "SDEM-ON", "MBKPS"
    ));
    let (sdem, mbkps): (Vec<_>, Vec<_>) = rows
        .iter()
        .map(|r| {
            let (sdem, mbkps) = saving(r);
            ((r.u, sdem), (r.u, mbkps))
        })
        .unzip();
    for (&(u, sdem), &(_, mbkps)) in sdem.iter().zip(&mbkps) {
        out.text.push_str(&format!(
            "{u:>4} {:>11.2}% {:>11.2}%\n",
            sdem * 100.0,
            mbkps * 100.0
        ));
    }
    let series = [
        Series {
            label: "SDEM-ON".into(),
            points: sdem,
        },
        Series {
            label: "MBKPS".into(),
            points: mbkps,
        },
    ];
    let options = ChartOptions {
        title,
        x_label: "U (larger = lower utilization)".into(),
        y_label: "energy saving vs MBKP".into(),
        ..Default::default()
    };
    out.svgs
        .extend(chart(&series, &options).map(|svg| (panel, svg)));
}

/// Fig. 7a's artifacts: the `α_m × x` table under a header naming the
/// configuration and the paper's average, and one chart.
pub fn fig7a_artifacts(cells: &[Fig7Cell], tasks: usize, trials: usize) -> Artifacts {
    let title = format!(
        "Fig. 7a — SDEM-ON improvement over MBKPS, α_m sweep (ξ_m = {} ms)",
        paper::DEFAULT_XI_M_MS
    );
    let names = ["alpha_m[W]", "alpha_m_w", "alpha_m [W]"];
    fig7_artifacts(cells, &title, tasks, trials, "9.74%", names)
}

/// Fig. 7b's artifacts: the `ξ_m × x` table, as [`fig7a_artifacts`].
pub fn fig7b_artifacts(cells: &[Fig7Cell], tasks: usize, trials: usize) -> Artifacts {
    let title = format!(
        "Fig. 7b — SDEM-ON improvement over MBKPS, ξ_m sweep (α_m = {} W)",
        paper::DEFAULT_ALPHA_M_W
    );
    let names = ["xi_m[ms]", "xi_m_ms", "xi_m [ms]"];
    fig7_artifacts(cells, &title, tasks, trials, "10.52%", names)
}

/// A Fig. 7 panel's artifacts; `axis`, `column` and `legend` name the
/// swept parameter in the table, the CSV and the chart.
fn fig7_artifacts(
    cells: &[Fig7Cell],
    title: &str,
    tasks: usize,
    trials: usize,
    paper_average: &str,
    [axis, column, legend]: [&str; 3],
) -> Artifacts {
    let text = format!(
        "{title}, {tasks} tasks, {trials} trials/point  (paper average: {paper_average})\n\n{}",
        format_fig7(cells, axis)
    );
    let mut params: Vec<f64> = cells.iter().map(|c| c.param).collect();
    params.dedup();
    let series: Vec<Series> = params
        .iter()
        .map(|&p| Series {
            label: format!("{legend} = {p}"),
            points: cells
                .iter()
                .filter(|c| c.param == p)
                .map(|c| (c.x_ms, c.improvement))
                .collect(),
        })
        .collect();
    let options = ChartOptions {
        title: "SDEM-ON improvement over MBKPS".into(),
        x_label: "max inter-arrival x [ms]".into(),
        y_label: "improvement".into(),
        width: 760,
        height: 480,
    };
    Artifacts {
        text,
        csv: fig7_to_csv(cells, column),
        svgs: chart(&series, &options)
            .map(|svg| ("", svg))
            .into_iter()
            .collect(),
    }
}

/// The DAG sweep's text: a header naming the grid, then one line per
/// `(suite, cores)` cell.
pub fn dag_energy_text(config: &DagSweepConfig, rows: &[DagEnergyRow]) -> String {
    let mut out = format!(
        "DAG federated sweep — {} suites × {} DAGs × {} nodes, {:.0} ms frame, cores {:?}\n\
         {:>5} {:>5} {:>9} {:>12} {:>10} {:>8} {:>10}\n",
        config.suites,
        config.dags_per_suite,
        config.nodes,
        config.frame.as_millis(),
        config.cores,
        "suite",
        "cores",
        "feasible",
        "energy_j",
        "sleep_ms",
        "clusters",
        "cores_used"
    );
    for r in rows {
        out.push_str(&format!(
            "{:>5} {:>5} {:>9} {:>12.6} {:>10.3} {:>8} {:>10}\n",
            r.suite, r.cores, r.feasible, r.energy_j, r.memory_sleep_ms, r.clusters, r.cores_used
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_tiny_run_has_expected_shape() {
        let sweep = fig6(6, 2, &SweepRunner::new(), Default::default(), None);
        let (rows, _) = sweep.expect("sweep").expect_clean();
        assert_eq!(rows.len(), paper::U_POINTS.len());
        for r in &rows {
            // SDEM-ON must save at least as much memory energy as the naive
            // MBKPS on average (the paper's headline).
            assert!(
                r.sdem_memory_saving >= r.mbkps_memory_saving - 0.02,
                "U={}: SDEM {} < MBKPS {}",
                r.u,
                r.sdem_memory_saving,
                r.mbkps_memory_saving
            );
            assert!(r.sdem_system_saving.is_finite());
        }
    }

    #[test]
    fn fig6_quarantines_injected_faults_thread_invariantly() {
        let options = RobustOptions {
            inject: FaultInjection { panics: 2, nans: 1 },
            ..Default::default()
        };
        let run = |threads: usize| {
            let runner = SweepRunner::new().with_threads(threads);
            fig6(6, 2, &runner, options, None).expect("sweep")
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.quarantine.len(), 3);
        assert_eq!(serial.stats.quarantined, 3);
        let lines = |f: &RobustFigure<Fig6Row>| {
            f.quarantine
                .iter()
                .map(|r| r.to_json_line())
                .collect::<Vec<_>>()
        };
        assert_eq!(lines(&serial), lines(&parallel));
        // Every record carries a replayable seed and a repro config.
        for r in &serial.quarantine {
            assert_ne!(r.seed, 0);
            assert!(r.config.contains("--kind"), "{}", r.config);
        }
        // Point 0 lost both replicates (trials 0 and 1 panicked) — its row
        // becomes a NaN hole rather than aborting the figure. Point 1 lost
        // one replicate (trial 2 NaN-poisoned) but keeps its survivor, and
        // every later point is untouched.
        let rows = serial.rows.expect("complete");
        assert!(rows[0].sdem_system_saving.is_nan());
        for row in &rows[1..] {
            assert!(row.sdem_system_saving.is_finite());
        }
    }

    #[test]
    fn dag_energy_rows_are_thread_invariant_and_oracle_clean() {
        let mut config = DagSweepConfig::paper();
        config.suites = 2;
        config.cores = vec![1, 3, 6];
        let run =
            |threads: usize| dag_energy_with(&config, &SweepRunner::new().with_threads(threads)).0;
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), config.suites * config.cores.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.suite, b.suite);
            assert_eq!(a.cores, b.cores);
            assert_eq!(a.feasible, b.feasible);
            assert_eq!(a.energy_j.to_bits(), b.energy_j.to_bits());
            assert_eq!(a.memory_sleep_ms.to_bits(), b.memory_sleep_ms.to_bits());
        }
        // The suites fit comfortably at every budget here, and granting
        // more cores can only relax the per-core windows.
        for r in &serial {
            assert!(r.feasible, "suite {} at {} cores", r.suite, r.cores);
            assert!(r.energy_j > 0.0);
            assert!(r.cores_used <= r.cores);
        }
        let csv = dag_energy_to_csv(&serial);
        assert!(csv.starts_with("suite,seed,cores,feasible"));
        assert_eq!(csv.lines().count(), serial.len() + 1);
    }

    #[test]
    fn fig7_format_contains_all_cells() {
        let cells = vec![
            Fig7Cell {
                x_ms: 100.0,
                param: 1.0,
                improvement: 0.05,
            },
            Fig7Cell {
                x_ms: 200.0,
                param: 1.0,
                improvement: 0.10,
            },
        ];
        let s = format_fig7(&cells, "alpha_m");
        assert!(s.contains("alpha_m"));
        assert!(s.contains("5.00%"));
        assert!(s.contains("10.00%"));
        assert!(s.contains("average"));
    }
}
