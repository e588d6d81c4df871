//! Byte-exact regression net for the committed `results/` artifacts.
//!
//! Each test runs a figure's sweep once at the paper configuration that
//! `sdem-cli sweep` defaults to (`figures::{INSTANCES, TASKS, TRIALS}`),
//! renders every artifact from those rows — CSV, the printed text and
//! the SVG charts — and compares each against the checked-in golden with
//! `assert_eq!` on the raw bytes — not a tolerance. The sweep engine's per-trial seeding makes the outputs
//! bit-identical across thread counts and build profiles, so any byte of
//! drift here is a semantic change to a generator, solver, baseline or
//! meter, and must be reconciled with `results/README.md` and
//! `EXPERIMENTS.md` before the golden is re-recorded.

use sdem_bench::figures::{
    self, dag_energy_with, Artifacts, DagSweepConfig, RobustFigure, INSTANCES, TASKS, TRIALS,
};
use sdem_exec::{SweepError, SweepRunner};

/// Committed goldens, bundled at compile time so the test is hermetic.
const GOLDEN_FIG6: &str = include_str!("../../../results/fig6.csv");
const GOLDEN_FIG7A: &str = include_str!("../../../results/fig7a.csv");
const GOLDEN_FIG7B: &str = include_str!("../../../results/fig7b.csv");
const GOLDEN_DAG: &str = include_str!("../../../results/dag_energy_vs_cores.csv");
const GOLDEN_FIG6_TXT: &str = include_str!("../../../results/fig6.txt");
const GOLDEN_FIG7A_TXT: &str = include_str!("../../../results/fig7a.txt");
const GOLDEN_FIG7B_TXT: &str = include_str!("../../../results/fig7b.txt");
const GOLDEN_FIG6A_SVG: &str = include_str!("../../../results/fig6a.svg");
const GOLDEN_FIG6B_SVG: &str = include_str!("../../../results/fig6b.svg");
const GOLDEN_FIG7A_SVG: &str = include_str!("../../../results/fig7a.svg");
const GOLDEN_FIG7B_SVG: &str = include_str!("../../../results/fig7b.svg");

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

/// The printed text and the charts, each against its golden; `svgs`
/// pairs a chart's file-name suffix with its golden and file name.
fn assert_rendered(artifacts: &Artifacts, text: (&str, &str), svgs: &[(&str, &str, &str)]) {
    assert_bytes_equal(&artifacts.text, text.0, text.1);
    let rendered: Vec<&str> = artifacts.svgs.iter().map(|(suffix, _)| *suffix).collect();
    let expected: Vec<&str> = svgs.iter().map(|(suffix, _, _)| *suffix).collect();
    assert_eq!(rendered, expected, "chart file names");
    for ((_, svg), (_, golden, file)) in artifacts.svgs.iter().zip(svgs) {
        assert_bytes_equal(svg, golden, file);
    }
}

#[test]
fn fig6_csv_matches_committed_golden_byte_for_byte() {
    let rows = clean(|r| figures::fig6(INSTANCES, TRIALS, r, Default::default(), None));
    assert_bytes_equal(&figures::fig6_to_csv(&rows), GOLDEN_FIG6, "fig6.csv");
    assert_rendered(
        &figures::fig6_artifacts(&rows, INSTANCES, TRIALS),
        (GOLDEN_FIG6_TXT, "fig6.txt"),
        &[
            ("a", GOLDEN_FIG6A_SVG, "fig6a.svg"),
            ("b", GOLDEN_FIG6B_SVG, "fig6b.svg"),
        ],
    );
}

#[test]
fn fig7a_csv_matches_committed_golden_byte_for_byte() {
    let cells = clean(|r| figures::fig7a(TASKS, TRIALS, r, Default::default(), None));
    assert_bytes_equal(
        &figures::fig7_to_csv(&cells, "alpha_m_w"),
        GOLDEN_FIG7A,
        "fig7a.csv",
    );
    assert_rendered(
        &figures::fig7a_artifacts(&cells, TASKS, TRIALS),
        (GOLDEN_FIG7A_TXT, "fig7a.txt"),
        &[("", GOLDEN_FIG7A_SVG, "fig7a.svg")],
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
    let cells = clean(|r| figures::fig7b(TASKS, TRIALS, r, Default::default(), None));
    assert_bytes_equal(
        &figures::fig7_to_csv(&cells, "xi_m_ms"),
        GOLDEN_FIG7B,
        "fig7b.csv",
    );
    assert_rendered(
        &figures::fig7b_artifacts(&cells, TASKS, TRIALS),
        (GOLDEN_FIG7B_TXT, "fig7b.txt"),
        &[("", GOLDEN_FIG7B_SVG, "fig7b.svg")],
    );
}
