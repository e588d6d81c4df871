//! Regenerates Fig. 7b: system-wide energy-saving improvement of SDEM-ON
//! over MBKPS across memory break-even times `ξ_m ∈ {15..70} ms` and
//! utilization levels `x ∈ {100..800} ms` (synthetic tasks, Table 4 grid).

use sdem_bench::figures::{self, fig7b, format_fig7};
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
    println!("Fig. 7b — SDEM-ON improvement over MBKPS, ξ_m sweep (α_m = {} W), {tasks} tasks, {trials} trials/point  (paper average: 10.52%)\n", paper::DEFAULT_ALPHA_M_W);
    let runner = runner_from_env();
    let sweep = fig7b(tasks, trials, &runner, Default::default(), None);
    let (cells, stats) = sweep.expect("sweep").expect_clean();
    eprintln!("sweep: {stats}\n");
    print!("{}", format_fig7(&cells, "xi_m[ms]"));

    if let Ok(prefix) = std::env::var("SDEM_SVG") {
        use sdem_bench::plot::{line_chart, ChartOptions, Series};
        let mut params: Vec<f64> = cells.iter().map(|c| c.param).collect();
        params.dedup();
        let series: Vec<Series> = params
            .iter()
            .map(|&p| Series {
                label: format!("xi_m [ms] = {p}"),
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
        std::fs::write(&path, figures::fig7_to_csv(&cells, "xi_m_ms")).expect("write CSV");
        eprintln!("wrote CSV to {path}");
    }
}
