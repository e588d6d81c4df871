//! Regenerates Fig. 7a: system-wide energy-saving improvement of SDEM-ON
//! over MBKPS across memory static powers `α_m ∈ {1..8} W` and utilization
//! levels `x ∈ {100..800} ms` (synthetic tasks, Table 4 grid).

use sdem_bench::figures::{self, fig7a, format_fig7};
use sdem_bench::runner_from_env;
use sdem_workload::paper;

fn main() {
    let tasks = std::env::var("SDEM_TASKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60usize);
    let trials = std::env::var("SDEM_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(paper::TRIALS_PER_POINT);
    let metrics_path = std::env::var("SDEM_METRICS").ok();
    if metrics_path.is_some() {
        sdem_obs::registry::reset();
        sdem_obs::registry::set_enabled(true);
    }
    println!("Fig. 7a — SDEM-ON improvement over MBKPS, α_m sweep (ξ_m = {} ms), {tasks} tasks, {trials} trials/point  (paper average: 9.74%)\n", paper::DEFAULT_XI_M_MS);
    let runner = runner_from_env();
    let sweep = fig7a(tasks, trials, &runner, Default::default(), None);
    let (cells, stats) = sweep.expect("sweep").expect_clean();
    eprintln!("sweep: {stats}\n");
    print!("{}", format_fig7(&cells, "alpha_m[W]"));
    if let Some(path) = metrics_path {
        sdem_obs::registry::set_enabled(false);
        let snapshot = sdem_obs::registry::snapshot();
        std::fs::write(&path, snapshot.to_json()).expect("write metrics");
        // Surface the per-trial latency percentiles on stderr so
        // `update_bench.sh`-style harnesses can scrape them alongside
        // the trials/s line above.
        for (label, h) in &snapshot.histograms {
            eprintln!(
                "metrics: {label} p50<={} p90<={} p99<={} max={} ns (n={})",
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
                h.max(),
                h.count()
            );
        }
        eprintln!("metrics: wrote {path}");
    }

    if let Ok(prefix) = std::env::var("SDEM_SVG") {
        use sdem_bench::plot::{line_chart, ChartOptions, Series};
        let mut params: Vec<f64> = cells.iter().map(|c| c.param).collect();
        params.dedup();
        let series: Vec<Series> = params
            .iter()
            .map(|&p| Series {
                label: format!("alpha_m [W] = {p}"),
                points: cells
                    .iter()
                    .filter(|c| c.param == p)
                    .map(|c| (c.x_ms, c.improvement))
                    .collect(),
            })
            .collect();
        let svg = line_chart(
            &series,
            &ChartOptions {
                title: "SDEM-ON improvement over MBKPS".into(),
                x_label: "max inter-arrival x [ms]".into(),
                y_label: "improvement".into(),
                width: 760,
                height: 480,
            },
        );
        std::fs::write(format!("{prefix}.svg"), svg).expect("write SVG");
        eprintln!("wrote {prefix}.svg");
    }
    if let Ok(path) = std::env::var("SDEM_CSV") {
        std::fs::write(&path, figures::fig7_to_csv(&cells, "alpha_m_w")).expect("write CSV");
        eprintln!("wrote CSV to {path}");
    }
}
