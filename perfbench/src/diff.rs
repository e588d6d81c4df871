//! `--diff A B`: compares the layer reports of two traced runs.
//!
//! Each file holds one or more report lines (`layers.jsonl`, or several
//! concatenated). Per workload and layer it prints the change in `self_ms`
//! and `mean_us`, and flags a layer whose `self_ms` moved by more than its
//! run-to-run spread: the larger of the two sides' spreads, each the
//! distance between the quartiles of its samples — its report lines'
//! medians when it has several runs, else its per-round values. Exact
//! counts (`calls`) that differ are flagged too.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use sdem_obs::json::{self, Value};

use crate::stats;

/// One layer of one workload, over the runs a file holds.
#[derive(Default)]
struct Side {
    self_ms: Vec<f64>,
    round_q1: Vec<f64>,
    round_q3: Vec<f64>,
    mean_us: Vec<f64>,
    calls: Vec<u64>,
}

impl Side {
    fn median(&self) -> f64 {
        stats::median(&self.self_ms)
    }

    fn spread(&self) -> f64 {
        if self.self_ms.len() > 1 {
            let (q1, _, q3) = stats::quartiles(&self.self_ms);
            q3 - q1
        } else {
            self.round_q3.first().copied().unwrap_or(0.0)
                - self.round_q1.first().copied().unwrap_or(0.0)
        }
    }
}

type Layers = BTreeMap<String, BTreeMap<String, Side>>;

fn load(path: &Path) -> Result<Layers, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out: Layers = BTreeMap::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), n + 1))?;
        let workload = doc
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}:{}: no workload", path.display(), n + 1))?;
        let layers = doc
            .get("layers")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{}:{}: no layers", path.display(), n + 1))?;
        let entry = out.entry(workload.to_string()).or_default();
        for (name, v) in layers {
            let num = |k: &str| v.get(k).and_then(Value::as_f64).unwrap_or(0.0);
            let side = entry.entry(name.clone()).or_default();
            side.self_ms.push(num("self_ms"));
            side.round_q1.push(num("self_ms_q1"));
            side.round_q3.push(num("self_ms_q3"));
            side.mean_us.push(num("mean_us"));
            side.calls
                .push(v.get("calls").and_then(Value::as_u64).unwrap_or(0));
        }
    }
    Ok(out)
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let (before, after) = match (load(a), load(b)) {
        (Ok(x), Ok(y)) => (x, y),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("diff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut flagged = 0;
    for (workload, layers) in &before {
        let Some(other) = after.get(workload) else {
            println!("== {workload}: only in {}", a.display());
            continue;
        };
        println!("== {workload}");
        println!(
            "  {:<36} {:>11} {:>11} {:>9} {:>9} {:>10} {:>10}  flag",
            "layer", "self_ms A", "self_ms B", "delta%", "spread", "mean_us A", "mean_us B"
        );
        for (name, x) in layers {
            let Some(y) = other.get(name) else { continue };
            let (ma, mb) = (x.median(), y.median());
            if ma == 0.0 && mb == 0.0 {
                continue;
            }
            let spread = x.spread().max(y.spread());
            let delta = mb - ma;
            let mut flag = String::new();
            if delta.abs() > spread {
                flag.push_str(if delta > 0.0 { "SLOWER" } else { "FASTER" });
            }
            if x.calls.first() != y.calls.first() {
                flag.push_str(" CALLS-CHANGED");
            }
            if !flag.is_empty() {
                flagged += 1;
            }
            println!(
                "  {:<36} {:>11.3} {:>11.3} {:>+8.1}% {:>9.3} {:>10.3} {:>10.3}  {}",
                name,
                ma,
                mb,
                if ma == 0.0 { 0.0 } else { 100.0 * delta / ma },
                spread,
                stats::median(&x.mean_us),
                stats::median(&y.mean_us),
                flag.trim()
            );
        }
    }
    println!("{flagged} layer(s) moved by more than their run-to-run spread");
    ExitCode::SUCCESS
}
