//! Regenerates Fig. 6a (memory static-energy saving) and Fig. 6b
//! (system-wide energy saving) of the paper: FFT-1024 + matrix-multiply
//! benchmark streams over the utilization grid `U ∈ {2..9}`.

use sdem_bench::figures::{self, fig6};
use sdem_bench::runner_from_env;
use sdem_workload::paper;

fn main() {
    let instances = std::env::var("SDEM_INSTANCES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30usize);
    let trials = std::env::var("SDEM_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(paper::TRIALS_PER_POINT);

    println!(
        "Fig. 6 — DSPstone FFT-1024 + MatMul, {instances} instances/stream, {trials} trials/point"
    );
    println!(
        "platform: Cortex-A57 ×{}, α_m = {} W, ξ_m = {} ms (Table 4 defaults)\n",
        paper::NUM_CORES,
        paper::DEFAULT_ALPHA_M_W,
        paper::DEFAULT_XI_M_MS
    );

    let runner = runner_from_env();
    let sweep = fig6(instances, trials, &runner, Default::default(), None);
    let (rows, stats) = sweep.expect("sweep").expect_clean();
    eprintln!("sweep: {stats}\n");

    println!("Fig. 6a — memory static-energy saving vs MBKP");
    println!("{:>4} {:>12} {:>12}", "U", "SDEM-ON", "MBKPS");
    for r in &rows {
        println!(
            "{:>4} {:>11.2}% {:>11.2}%",
            r.u,
            r.sdem_memory_saving * 100.0,
            r.mbkps_memory_saving * 100.0
        );
    }
    let mem_gap = rows
        .iter()
        .map(|r| r.sdem_memory_saving - r.mbkps_memory_saving)
        .sum::<f64>()
        / rows.len() as f64;
    println!(
        "average memory-saving improvement of SDEM-ON over MBKPS: {:.2}%  (paper: 10.02%)\n",
        mem_gap * 100.0
    );

    println!("Fig. 6b — system-wide energy saving vs MBKP");
    println!("{:>4} {:>12} {:>12}", "U", "SDEM-ON", "MBKPS");
    for r in &rows {
        println!(
            "{:>4} {:>11.2}% {:>11.2}%",
            r.u,
            r.sdem_system_saving * 100.0,
            r.mbkps_system_saving * 100.0
        );
    }
    let sys_gap = rows
        .iter()
        .map(|r| 1.0 - (1.0 - r.sdem_system_saving) / (1.0 - r.mbkps_system_saving))
        .sum::<f64>()
        / rows.len() as f64;
    println!(
        "average system-energy saving of SDEM-ON over MBKPS: {:.2}%  (paper: 23.45%)",
        sys_gap * 100.0
    );

    if let Ok(path) = std::env::var("SDEM_CSV") {
        std::fs::write(&path, figures::fig6_to_csv(&rows)).expect("write CSV");
        eprintln!("wrote CSV to {path}");
    }
    if let Ok(prefix) = std::env::var("SDEM_SVG") {
        use sdem_bench::plot::{line_chart, ChartOptions, Series};
        let panel = |title: &str, sdem: Vec<(f64, f64)>, mbkps: Vec<(f64, f64)>| {
            line_chart(
                &[
                    Series {
                        label: "SDEM-ON".into(),
                        points: sdem,
                    },
                    Series {
                        label: "MBKPS".into(),
                        points: mbkps,
                    },
                ],
                &ChartOptions {
                    title: title.into(),
                    x_label: "U (larger = lower utilization)".into(),
                    y_label: "energy saving vs MBKP".into(),
                    ..Default::default()
                },
            )
        };
        let a = panel(
            "Fig. 6a — memory static-energy saving",
            rows.iter().map(|r| (r.u, r.sdem_memory_saving)).collect(),
            rows.iter().map(|r| (r.u, r.mbkps_memory_saving)).collect(),
        );
        let b = panel(
            "Fig. 6b — system-wide energy saving",
            rows.iter().map(|r| (r.u, r.sdem_system_saving)).collect(),
            rows.iter().map(|r| (r.u, r.mbkps_system_saving)).collect(),
        );
        std::fs::write(format!("{prefix}a.svg"), a).expect("write SVG");
        std::fs::write(format!("{prefix}b.svg"), b).expect("write SVG");
        eprintln!("wrote {prefix}a.svg and {prefix}b.svg");
    }
}
