//! Byte-exact regression net for the committed `results/` artifacts.
//!
//! Each test regenerates a figure's CSV with the exact configuration its
//! binary uses by default (`fig6`: 30 instances/stream; `fig7a`/`fig7b`:
//! 60 tasks; all at `paper::TRIALS_PER_POINT` trials) and compares it
//! against the checked-in golden with `assert_eq!` on the raw bytes — not
//! a tolerance. The sweep engine's per-trial seeding makes the outputs
//! bit-identical across thread counts and build profiles, so any byte of
//! drift here is a semantic change to a generator, solver, baseline or
//! meter, and must be reconciled with `results/README.md` and
//! `EXPERIMENTS.md` before the golden is re-recorded.

use sdem_bench::figures::{self, dag_energy_with, DagSweepConfig, RobustFigure};
use sdem_exec::{SweepError, SweepRunner};
use sdem_workload::paper::TRIALS_PER_POINT as TRIALS;

/// Committed goldens, bundled at compile time so the test is hermetic.
const GOLDEN_FIG6: &str = include_str!("../../../results/fig6.csv");
const GOLDEN_FIG7A: &str = include_str!("../../../results/fig7a.csv");
const GOLDEN_FIG7B: &str = include_str!("../../../results/fig7b.csv");
const GOLDEN_DAG: &str = include_str!("../../../results/dag_energy_vs_cores.csv");

/// The rows of a figure sweep on a default runner; every trial must
/// succeed, as the figure's binary requires.
fn clean<Row>(
    sweep: impl FnOnce(&SweepRunner) -> Result<RobustFigure<Row>, SweepError>,
) -> Vec<Row> {
    sweep(&SweepRunner::new()).expect("sweep").expect_clean().0
}

fn assert_bytes_equal(regenerated: &str, golden: &str, figure: &str) {
    if regenerated == golden {
        return;
    }
    // Locate the first diverging line so the failure is actionable
    // without dumping two whole files.
    for (i, (new, old)) in regenerated.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            new,
            old,
            "{figure}: first divergence at line {} (regenerate with the \
             command in results/README.md if the change is intentional)",
            i + 1
        );
    }
    panic!(
        "{figure}: line counts differ ({} regenerated vs {} golden)",
        regenerated.lines().count(),
        golden.lines().count()
    );
}

#[test]
fn fig6_csv_matches_committed_golden_byte_for_byte() {
    let rows = clean(|r| figures::fig6(30, TRIALS, r, Default::default(), None));
    assert_bytes_equal(&figures::fig6_to_csv(&rows), GOLDEN_FIG6, "fig6.csv");
}

#[test]
fn fig7a_csv_matches_committed_golden_byte_for_byte() {
    let cells = clean(|r| figures::fig7a(60, TRIALS, r, Default::default(), None));
    assert_bytes_equal(
        &figures::fig7_to_csv(&cells, "alpha_m_w"),
        GOLDEN_FIG7A,
        "fig7a.csv",
    );
}

#[test]
fn dag_energy_csv_matches_committed_golden_byte_for_byte() {
    let (rows, _) = dag_energy_with(&DagSweepConfig::paper(), &SweepRunner::new());
    assert_bytes_equal(
        &figures::dag_energy_to_csv(&rows),
        GOLDEN_DAG,
        "dag_energy_vs_cores.csv",
    );
}

#[test]
fn fig7b_csv_matches_committed_golden_byte_for_byte() {
    let cells = clean(|r| figures::fig7b(60, TRIALS, r, Default::default(), None));
    assert_bytes_equal(
        &figures::fig7_to_csv(&cells, "xi_m_ms"),
        GOLDEN_FIG7B,
        "fig7b.csv",
    );
}
