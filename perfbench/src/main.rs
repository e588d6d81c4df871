//! `sdem-perfbench`: the seeded end-to-end and per-layer benchmark.
//!
//! ```text
//! sdem-perfbench --workload <sweep|serve-hot|serve-cold|all> [--seed N]
//!                [--seconds S] [--trace 0|1]
//! sdem-perfbench --diff A.jsonl B.jsonl
//! ```
//!
//! A run builds its inputs from `--seed`, then repeats fixed, seeded rounds
//! of work, each after a timed set-up, for `--seconds` and averages over
//! the rounds.
//! Every output it times is checked; an operation whose output is wrong
//! counts as failed. The last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.
//!
//! A traced run alternates untraced and traced rounds: the untraced rounds
//! give the baseline for `trace.overhead_pct`, the traced ones the layer
//! times. It appends its layer report to `perfbench-runs/layers.jsonl` and
//! writes its span log beside it (replacing the last one), under the
//! build's target directory; `--diff` compares two such reports.

mod diff;
mod host;
mod serve;
mod stats;
mod sweep;
mod tracer;

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use tracer::{Totals, LAYERS};

/// Rounds every run makes whatever `--seconds` says: the first round is
/// the reference the others must reproduce.
const MIN_ROUNDS: usize = 3;
/// Rounds a traced run makes at least (two traced, two untraced).
const MIN_TRACED_ROUNDS: usize = 4;
/// Seed of the set-up warm-up inputs: fixed, so that set-up time does not
/// vary with `--seed`.
pub const WARMUP_SEED: u64 = 0x5E7_0B00;
/// Share of a traced phase that may go unattributed to any layer.
pub const UNACCOUNTED_LIMIT_PCT: f64 = 5.0;

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where journals, layer reports and span logs go.
    pub runs_dir: PathBuf,
}

/// Everything one workload run measured.
pub struct Workload {
    pub name: &'static str,
    pub setup_s: Vec<f64>,
    /// Per untraced round.
    pub throughput: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p90_us: Vec<f64>,
    pub energy_mj_mean: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failed_checks: Vec<String>,
    /// Exact per-round counts of the first round, by metric name.
    pub counts: Vec<(String, f64)>,
    pub rounds: usize,
    pub timed_s: f64,
    pub steal_pct: f64,
    pub peak_rss_mb: f64,
    pub layers: Option<Vec<Metric>>,
    /// The layer report line a traced run appends to `layers.jsonl`.
    pub report: Option<String>,
}

impl Workload {
    pub fn new(name: &'static str, setup_s: Vec<f64>) -> Self {
        Self {
            name,
            setup_s,
            throughput: Vec::new(),
            p50_us: Vec::new(),
            p90_us: Vec::new(),
            energy_mj_mean: 0.0,
            attempted: 0,
            failed: 0,
            failed_checks: Vec::new(),
            counts: Vec::new(),
            rounds: 0,
            timed_s: 0.0,
            steal_pct: 0.0,
            peak_rss_mb: 0.0,
            layers: None,
            report: None,
        }
    }

    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.push((name.to_string(), value));
    }

    /// Records a failed output check (printed on stderr; the run is then
    /// not correct).
    pub fn fail_check(&mut self, what: String) {
        eprintln!("{}: check failed: {what}", self.name);
        self.failed_checks.push(what);
    }

    fn counted(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The end-to-end metrics. A shared host's speed drifts between fast
    /// and slow phases lasting seconds; a mean over rounds follows the
    /// share of time spent in each, where a median jumps between them, so
    /// rates and percentiles are averaged over rounds (on a 2-vCPU KVM
    /// guest this halved the spread between 30 s windows).
    fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::new("setup_s", "s", stats::median(&self.setup_s)),
            Metric::new(
                "throughput_per_s",
                "ops/s",
                stats::harmonic_mean(&self.throughput),
            ),
            Metric::new("latency_p50_us", "us", stats::mean(&self.p50_us)),
            Metric::new("latency_p90_us", "us", stats::mean(&self.p90_us)),
            Metric::new("peak_rss_mb", "MB", self.peak_rss_mb),
            Metric::new("energy_mj_mean", "mJ", self.energy_mj_mean),
        ]
    }
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.into(),
            unit,
            value,
        }
    }
}

/// Paces a run's rounds and takes the host readings around them.
pub struct RoundClock {
    started: Instant,
    seconds: f64,
    min_rounds: usize,
    trace: bool,
    round: usize,
    cpu: host::CpuTimes,
}

impl RoundClock {
    pub fn start(cfg: &RunConfig) -> Self {
        Self {
            started: Instant::now(),
            seconds: cfg.seconds,
            min_rounds: if cfg.trace {
                MIN_TRACED_ROUNDS
            } else {
                MIN_ROUNDS
            },
            trace: cfg.trace,
            round: usize::MAX,
            cpu: host::CpuTimes::read(),
        }
    }

    /// Advances to the next round; `false` once the run's time is up.
    pub fn next_round(&mut self) -> bool {
        let next = self.round.wrapping_add(1);
        if next >= self.min_rounds && self.started.elapsed().as_secs_f64() >= self.seconds {
            return false;
        }
        self.round = next;
        true
    }

    /// Index of the current round.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Whether this round records spans: odd rounds of a traced run.
    pub fn traced_round(&self) -> bool {
        self.trace && self.round % 2 == 1
    }

    /// Ends the timed phase: records its length, the stolen CPU share and
    /// the peak resident memory.
    pub fn finish(&self, w: &mut Workload) {
        w.rounds = self.round.wrapping_add(1);
        w.timed_s = self.started.elapsed().as_secs_f64();
        w.steal_pct = self.cpu.steal_pct_until(&host::CpuTimes::read());
        match host::peak_rss_mb() {
            Some(mb) => w.peak_rss_mb = mb,
            None => w.fail_check("peak resident memory unreadable".to_string()),
        }
    }
}

/// Per-round layer totals of a traced run.
#[derive(Default)]
pub struct Layered {
    rounds: Vec<Totals>,
    /// `exec.idle` or `serve.residual` of each traced round.
    residual_ns: Vec<i64>,
    ops: Vec<u64>,
    /// The time each traced round's layers must account for.
    phase_ns: Vec<u64>,
    traced_throughput: Vec<f64>,
    pub untraced_throughput: Vec<f64>,
}

impl Layered {
    pub fn push_round(
        &mut self,
        totals: Totals,
        residual_ns: i64,
        ops: u64,
        phase_ns: u64,
        throughput: f64,
    ) {
        self.rounds.push(totals);
        self.residual_ns.push(residual_ns);
        self.ops.push(ops);
        self.phase_ns.push(phase_ns);
        self.traced_throughput.push(throughput);
    }

    /// The per-layer metrics and the layer report line. `residual` names
    /// the derived layer (`exec.idle` or `serve.residual`).
    pub fn finish(self, residual: &str, w: &mut Workload, cfg: &RunConfig) -> Vec<Metric> {
        let mut metrics = Vec::new();
        let mut report = String::new();
        let _ = write!(
            report,
            "{{\"workload\":\"{}\",\"seed\":{},\"traced_rounds\":{},\"layers\":{{",
            w.name,
            cfg.seed,
            self.rounds.len()
        );
        let mut first = true;
        let mut layer_json = |name: &str, calls: u64, per_round_ms: &[f64], mean_us: f64| {
            let (q1, med, q3) = stats::quartiles(per_round_ms);
            let _ = write!(
                report,
                "{}\"{name}\":{{\"calls\":{calls},\"self_ms\":{med},\"self_ms_q1\":{q1},\
                 \"self_ms_q3\":{q3},\"mean_us\":{mean_us}}}",
                if first { "" } else { "," }
            );
            first = false;
            med
        };
        for (layer, name) in LAYERS.iter().enumerate().take(tracer::TRIAL) {
            let calls = self.rounds.first().map_or(0, |t| t[layer].calls);
            if self.rounds.iter().any(|t| t[layer].calls != calls) {
                w.fail_check(format!("{name}.calls differ between traced rounds"));
            }
            let per_round: Vec<f64> = self
                .rounds
                .iter()
                .map(|t| t[layer].self_ns as f64 / 1e6)
                .collect();
            let total_calls: u64 = self.rounds.iter().map(|t| t[layer].calls).sum();
            let self_ns: u64 = self.rounds.iter().map(|t| t[layer].self_ns).sum();
            let mean_us = if total_calls == 0 {
                0.0
            } else {
                self_ns as f64 / total_calls as f64 / 1e3
            };
            let self_ms = layer_json(name, calls, &per_round, mean_us);
            metrics.push(Metric::new(format!("{name}.calls"), "count", calls as f64));
            metrics.push(Metric::new(format!("{name}.self_ms"), "ms", self_ms));
            metrics.push(Metric::new(format!("{name}.mean_us"), "us", mean_us));
        }
        let ops: u64 = self.ops.iter().sum();
        let residual_ms: Vec<f64> = self.residual_ns.iter().map(|&r| r as f64 / 1e6).collect();
        let residual_mean_us =
            self.residual_ns.iter().sum::<i64>() as f64 / ops.max(1) as f64 / 1e3;
        for derived in ["exec.idle", "serve.residual"] {
            let (per_round, mean) = if derived == residual {
                (residual_ms.clone(), residual_mean_us)
            } else {
                (vec![0.0], 0.0)
            };
            let self_ms = layer_json(derived, 0, &per_round, mean);
            metrics.push(Metric::new(format!("{derived}.self_ms"), "ms", self_ms));
            metrics.push(Metric::new(format!("{derived}.mean_us"), "us", mean));
        }
        // What no layer or `exec.idle` accounts for: the sweep's
        // trial-closure glue, the self time of its `exec.trial` root span.
        // `serve.residual` is by definition the rest of a serve phase, so
        // nothing is left unaccounted there; it goes negative when the
        // submitting thread's layers overlapped the worker's on the
        // second core.
        let phase_ms = stats::median(
            &self
                .phase_ns
                .iter()
                .map(|&p| p as f64 / 1e6)
                .collect::<Vec<_>>(),
        );
        let unaccounted_ms = if residual == "exec.idle" {
            stats::median(
                &self
                    .rounds
                    .iter()
                    .map(|t| t[tracer::TRIAL].self_ns as f64 / 1e6)
                    .collect::<Vec<_>>(),
            )
        } else {
            0.0
        };
        let unaccounted_pct = 100.0 * unaccounted_ms / phase_ms.max(f64::MIN_POSITIVE);
        if unaccounted_pct > UNACCOUNTED_LIMIT_PCT {
            w.fail_check(format!(
                "layers account for the traced phase only within {unaccounted_pct:.2}% \
                 (limit {UNACCOUNTED_LIMIT_PCT}%)"
            ));
        }
        let overhead_pct = 100.0
            * (stats::harmonic_mean(&self.untraced_throughput)
                / stats::harmonic_mean(&self.traced_throughput).max(f64::MIN_POSITIVE)
                - 1.0);
        let mut counts = vec![
            ("serve.cache.hits", "count"),
            ("serve.cache.misses", "count"),
            ("serve.cache.hit_ratio", "ratio"),
            ("serve.cache.evictions", "count"),
            ("workload.sporadic.seeds_resampled", "count"),
            ("workload.sporadic.accept_ratio", "ratio"),
            ("core.dag.clusters", "count"),
            ("core.dag.cells_infeasible", "count"),
        ]
        .into_iter()
        .map(|(name, unit)| Metric::new(name, unit, w.counted(name)))
        .collect::<Vec<_>>();
        counts.extend([
            Metric::new("trace.overhead_pct", "%", overhead_pct),
            Metric::new("trace.unaccounted_pct", "%", unaccounted_pct),
            Metric::new("trace.phase_ms", "ms", phase_ms),
            Metric::new("host.nproc", "count", host::nproc() as f64),
            Metric::new("host.steal_pct", "%", w.steal_pct),
        ]);
        report.push_str("},\"counts\":{");
        for (i, m) in counts.iter().enumerate() {
            let _ = write!(
                report,
                "{}\"{}\":{}",
                if i == 0 { "" } else { "," },
                m.name,
                json_num(m.value)
            );
        }
        report.push_str("}}");
        metrics.extend(counts);
        w.report = Some(report);
        metrics
    }
}

/// A finite JSON number with every digit `f64` carries.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sdem-perfbench --workload <sweep|serve-hot|serve-cold|all> [--seed N] \
         [--seconds S] [--trace 0|1]\n       sdem-perfbench --diff A.jsonl B.jsonl"
    );
    ExitCode::from(2)
}

/// `<target>/perfbench-runs`, next to the build that produced this binary.
fn runs_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe
        .parent()
        .and_then(Path::parent)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    target.join("perfbench-runs")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--diff") {
        return match args.as_slice() {
            [_, a, b] => diff::run(Path::new(a), Path::new(b)),
            _ => usage(),
        };
    }
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--seconds" => value
                .parse()
                .map(|v: f64| seconds = v)
                .is_ok_and(|()| seconds.is_finite() && seconds >= 0.0),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let name = match workload.as_deref() {
        Some("all") => return run_all(seed, seconds, trace),
        Some(w @ ("sweep" | "serve-hot" | "serve-cold")) => w.to_string(),
        _ => return usage(),
    };
    let cfg = RunConfig {
        seed,
        seconds,
        trace,
        runs_dir: runs_dir(),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.runs_dir) {
        eprintln!("cannot create {}: {e}", cfg.runs_dir.display());
        return ExitCode::FAILURE;
    }
    let w = match name.as_str() {
        "sweep" => sweep::run(&cfg),
        "serve-hot" => serve::run_hot(&cfg),
        _ => serve::run_cold(&cfg),
    };
    print_workload(&w, &cfg);
    let correct = w.failed == 0 && w.failed_checks.is_empty();
    let list = if trace {
        w.layers.unwrap_or_default()
    } else {
        w.end_to_end()
    };
    let metrics: Vec<String> = list
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        w.attempted.max(1),
        w.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// `--workload all`: each workload in a process of its own (so its peak
/// memory is its own), then one combined result line with the metric
/// names prefixed by the workload.
fn run_all(seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for name in ["sweep", "serve-hot", "serve-cold"] {
        let child = std::process::Command::new(&exe)
            .args(["--workload", name, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output();
        let stdout = match child {
            Ok(out) if out.status.success() => String::from_utf8_lossy(&out.stdout).into_owned(),
            Ok(out) => {
                eprintln!("{name}: exited with {}", out.status);
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("{name}: cannot run: {e}");
                return ExitCode::FAILURE;
            }
        };
        let (table, last) = stdout
            .trim_end()
            .rsplit_once('\n')
            .unwrap_or(("", stdout.trim_end()));
        println!("{table}");
        let Ok(result) = sdem_obs::json::parse(last) else {
            eprintln!("{name}: unreadable result line");
            return ExitCode::FAILURE;
        };
        correct &= result.get("correct") == Some(&sdem_obs::json::Value::Bool(true));
        attempted += result
            .get("attempted")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        failed += result.get("failed").and_then(|v| v.as_u64()).unwrap_or(0);
        for (metric, v) in result
            .get("metrics")
            .and_then(|m| m.as_obj())
            .unwrap_or_default()
        {
            let value = v.get("value").and_then(|x| x.as_f64()).unwrap_or(0.0);
            let unit = v.get("unit").and_then(|x| x.as_str()).unwrap_or("");
            metrics.push(format!(
                "\"{name}.{metric}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

fn print_workload(w: &Workload, cfg: &RunConfig) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {}  seed {}  {} rounds in {:.2} s  attempted {}  failed {}  host: nproc {} steal {:.2}%",
        w.name,
        cfg.seed,
        w.rounds,
        w.timed_s,
        w.attempted,
        w.failed,
        host::nproc(),
        w.steal_pct
    );
    for m in w.end_to_end() {
        let rounds = match m.name.as_str() {
            "throughput_per_s" => &w.throughput[..],
            "latency_p50_us" => &w.p50_us[..],
            "latency_p90_us" => &w.p90_us[..],
            _ => &[],
        };
        let mut note = String::new();
        if !rounds.is_empty() {
            let (q1, _, q3) = stats::quartiles(rounds);
            let _ = write!(note, "  rounds q1 {q1:.1} q3 {q3:.1} n {}", rounds.len());
        }
        if w.name == "sweep" && m.name.starts_with("latency") {
            note.push_str("  (one Fig. 7a trial)");
        }
        let _ = writeln!(
            out,
            "  {:<24} {:>14.4} {:<6}{note}",
            m.name, m.value, m.unit
        );
    }
    for (name, value) in &w.counts {
        let _ = writeln!(out, "  count {name} = {value}");
    }
    if let Some(layers) = &w.layers {
        let _ = writeln!(out, "  per-layer (traced rounds, per round):");
        for m in layers {
            if m.value != 0.0 {
                let _ = writeln!(out, "    {:<44} {:>14.4} {}", m.name, m.value, m.unit);
            }
        }
    }
    print!("{out}");
    if let Some(report) = &w.report {
        let path = cfg.runs_dir.join("layers.jsonl");
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut f| writeln!(f, "{report}"));
        match appended {
            Ok(()) => eprintln!("{}: layer report appended to {}", w.name, path.display()),
            Err(e) => eprintln!("{}: cannot write {}: {e}", w.name, path.display()),
        }
        write_spans(w.name, cfg);
    }
}

/// Writes the span log kept in memory during the traced rounds.
fn write_spans(workload: &str, cfg: &RunConfig) {
    let path = cfg.runs_dir.join(format!("spans-{workload}.jsonl"));
    let spans = tracer::take_log();
    let mut text = String::with_capacity(spans.len() * 96);
    for s in &spans {
        let parent = if s.parent == u64::MAX {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        let _ = writeln!(
            text,
            "{{\"span\":{},\"parent\":{parent},\"op\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.op, LAYERS[usize::from(s.layer)], s.start_ns, s.end_ns
        );
    }
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!(
            "{workload}: {} spans written to {}",
            spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("{workload}: cannot write {}: {e}", path.display()),
    }
}
