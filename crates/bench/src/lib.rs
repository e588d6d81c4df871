//! Experiment harness regenerating every figure of the paper's evaluation
//! (§8): Fig. 6a/6b (DSPstone benchmarks over utilization `U`), Fig. 7a
//! (`α_m × x` sweep) and Fig. 7b (`ξ_m × x` sweep), plus the Table 4
//! parameter grid the sweeps read from `sdem-workload::paper`.
//!
//! [`figures`] runs each sweep and renders its rows into the committed
//! `results/` artifacts (text, CSV, SVG); `sdem-cli sweep --figure
//! fig6|fig7a|fig7b` and `sdem-cli dag sweep` are their front end, and
//! `results/README.md` gives the command per file. Every sweep fans its
//! trials across worker threads through [`sdem_exec::SweepRunner`]; the
//! output is bit-identical for any thread count.
//!
//! Every figure sweep runs its replicates through
//! [`experiment::run_trial_quarantined_in`], so a failed trial becomes a
//! quarantine record instead of aborting the figure; the goldens require
//! an empty one ([`figures::RobustFigure::expect_clean`]).
//!
//! Three study binaries have no CLI twin: `competitive`, `single_core`
//! and `ablation_baselines` (`SDEM_THREADS` bounds their worker count).
//!
//! Plain benches (`cargo bench -p sdem-bench`) time the algorithms and
//! the harness via [`microbench`]; the ablation benches compare design
//! alternatives called out in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiment;
pub mod figures;
pub mod microbench;
pub mod plot;
pub mod stats;

use std::process::ExitCode;

use sdem_exec::SweepOutcome;
use sdem_types::ErrorKind;

/// Builds a [`sdem_exec::SweepRunner`] honouring the `SDEM_THREADS`
/// environment variable (unset or `0` = all hardware threads).
pub fn runner_from_env() -> sdem_exec::SweepRunner {
    let threads = std::env::var("SDEM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0usize);
    sdem_exec::SweepRunner::new().with_threads(threads)
}

/// Why a study has nothing to summarize, or `None` when every point of
/// `outcome` kept a replicate: the kind of the first empty point's first
/// quarantine record (`usage` when that point ran no trial), and a
/// message naming the point and its quarantined trials.
pub fn empty_study<T>(outcome: &SweepOutcome<T>) -> Option<(ErrorKind, String)> {
    let point = outcome.per_point.iter().position(Vec::is_empty)?;
    let mut records = outcome.quarantine.iter().filter(|r| r.point == point);
    let Some(first) = records.next() else {
        return Some((
            ErrorKind::Usage,
            format!("point {point}: no trials requested"),
        ));
    };
    let kind = ErrorKind::from_code(&first.kind).unwrap_or(ErrorKind::Internal);
    let detail = format!(
        "point {point}: all {} trials quarantined (first: {})",
        1 + records.count(),
        first.kind
    );
    Some((kind, detail))
}

/// A study bin's exit when [`empty_study`] finds a point it cannot
/// summarize: prints `error[<kind>]: <detail>` to stderr and returns the
/// kind's exit code, as `sdem-cli experiment` does for an all-quarantined
/// run.
pub fn exit_if_empty<T>(outcome: &SweepOutcome<T>) -> Option<ExitCode> {
    let (kind, detail) = empty_study(outcome)?;
    eprintln!("error[{}]: {detail}", kind.code());
    Some(ExitCode::from(kind.exit_code()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_exec::{SweepRunner, TrialFailure};

    #[test]
    fn an_empty_point_is_reported_with_its_first_record_kind() {
        let runner = SweepRunner::new().with_threads(2);
        let outcome = runner
            .run(
                &[0usize, 1],
                3,
                7,
                || (),
                |&p, ctx, _| match (p, ctx.replicate()) {
                    (0, _) => Ok(1.0),
                    (_, 1) => Err(TrialFailure::of(ErrorKind::InfeasibleInput, "rejected")),
                    _ => Err(TrialFailure::of(ErrorKind::RetryBudgetExhausted, "no seed")),
                },
            )
            .unwrap();
        let (kind, detail) = empty_study(&outcome).unwrap();
        assert_eq!(kind, ErrorKind::RetryBudgetExhausted);
        assert_eq!(
            detail,
            "point 1: all 3 trials quarantined (first: retry-budget-exhausted)"
        );

        let full = runner
            .run(&[0usize], 2, 7, || (), |_, _, _| Ok(1.0))
            .unwrap();
        assert_eq!(empty_study(&full), None);
        let none = runner
            .run(&[0usize], 0, 7, || (), |_, _, _| Ok(1.0))
            .unwrap();
        assert_eq!(empty_study(&none).unwrap().0, ErrorKind::Usage);
    }
}
