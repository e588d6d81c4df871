//! Observability must be a pure side channel.
//!
//! Three contracts, each enforced bit-for-bit:
//!
//! * arming the metrics registry and the trace sink does not perturb a
//!   sweep's results — every cell is bit-identical to an untraced run;
//! * the exported energy gauges equal the untraced aggregate — a fold
//!   over the merged per-trial reports in sorted trial order — exactly,
//!   not to a tolerance;
//! * the gauges and the integer energy/sleep counters are identical for
//!   any worker-thread count (latency histograms measure wall time, so
//!   only their sample *counts* are compared);
//! * arming the sim-oracle changes neither the cells nor any counter but
//!   `oracle_checks`, one per trial: the oracle compares the reports the
//!   trial already holds and meters nothing twice.
//!
//! The registry and trace sink are process-global, so these assertions
//! live in one serialized test: integration tests get their own process,
//! and nothing else in this binary touches `sdem-obs`.

use sdem_bench::experiment::{run_trial_checked, OracleCheck};
use sdem_bench::figures::{self, Fig7Cell, RobustOptions};
use sdem_core::DEFAULT_ORACLE_TOLERANCE;
use sdem_exec::SweepRunner;
use sdem_types::Time;
use sdem_workload::synthetic::{sporadic, SyntheticConfig};

fn fig7a(threads: usize) -> Vec<Fig7Cell> {
    fig7a_with(threads, RobustOptions::default())
}

fn fig7a_with(threads: usize, options: RobustOptions) -> Vec<Fig7Cell> {
    let runner = SweepRunner::new().with_threads(threads);
    let sweep = figures::fig7a(12, 2, &runner, options, None);
    sweep.expect("sweep").expect_clean().0
}

/// Asserts two sweeps' cells are bit-identical.
fn assert_same_cells(a: &[Fig7Cell], b: &[Fig7Cell], what: &str) {
    assert_eq!(a.len(), b.len());
    for (a, b) in a.iter().zip(b) {
        assert_eq!(a.param.to_bits(), b.param.to_bits());
        assert_eq!(a.x_ms.to_bits(), b.x_ms.to_bits());
        assert_eq!(
            a.improvement.to_bits(),
            b.improvement.to_bits(),
            "{what} changed the result at (α_m={}, x={})",
            a.param,
            a.x_ms
        );
    }
}

#[test]
fn observability_is_bit_transparent_and_gauges_match_untraced_fold() {
    // --- Untraced reference sweep -----------------------------------
    let plain = fig7a(2);

    // --- Same sweep, fully instrumented -----------------------------
    sdem_obs::registry::reset();
    sdem_obs::registry::set_enabled(true);
    sdem_obs::trace::set_enabled(true);
    let metered = fig7a(2);
    sdem_obs::registry::set_enabled(false);
    sdem_obs::trace::set_enabled(false);
    let two_threads = sdem_obs::registry::snapshot();
    let events = sdem_obs::trace::drain();

    assert_same_cells(&plain, &metered, "instrumentation");
    assert!(!events.is_empty(), "trace sink captured no spans");
    assert!(!two_threads.histograms.is_empty(), "no latency histograms");

    // --- Same sweep, one worker: the aggregate must not move ---------
    sdem_obs::registry::reset();
    sdem_obs::registry::set_enabled(true);
    let _ = fig7a(1);
    sdem_obs::registry::set_enabled(false);
    let one_thread = sdem_obs::registry::snapshot();

    assert_eq!(one_thread.counters, two_threads.counters);
    assert_eq!(one_thread.gauges.len(), two_threads.gauges.len());
    assert_eq!(one_thread.histograms.len(), two_threads.histograms.len());
    for ((la, a), (lb, b)) in one_thread.gauges.iter().zip(&two_threads.gauges) {
        assert_eq!(la, lb);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "gauge {la} drifted between 1 and 2 worker threads"
        );
    }
    for ((la, a), (lb, b)) in one_thread.histograms.iter().zip(&two_threads.histograms) {
        assert_eq!(la, lb);
        assert_eq!(a.count(), b.count(), "histogram {la} lost samples");
    }

    // --- Same sweep, oracle armed: only `oracle_checks` moves ----------
    sdem_obs::registry::reset();
    sdem_obs::registry::set_enabled(true);
    let oracle = OracleCheck::FailFast(DEFAULT_ORACLE_TOLERANCE);
    let armed = fig7a_with(
        2,
        RobustOptions {
            oracle,
            ..Default::default()
        },
    );
    sdem_obs::registry::set_enabled(false);
    let armed_counters = sdem_obs::registry::snapshot().counters;

    assert_same_cells(&plain, &armed, "arming the oracle");
    let trials_run = two_threads
        .counters
        .iter()
        .find(|(name, _)| *name == "trials_run")
        .expect("trials_run counter")
        .1;
    assert_eq!(trials_run, 128, "64 cells × 2 trials");
    assert_eq!(armed_counters.len(), two_threads.counters.len());
    for ((name, armed), (other, unarmed)) in armed_counters.iter().zip(&two_threads.counters) {
        assert_eq!(name, other);
        if *name == "oracle_checks" {
            assert_eq!(*unarmed, 0);
            assert_eq!(*armed, trials_run, "one oracle check per trial");
        } else {
            assert_eq!(armed, unarmed, "arming the oracle moved counter {name}");
        }
    }

    // --- Gauges equal an independent fold over the raw reports -------
    // Hand-built per-point results (outside any sweep machinery), folded
    // here exactly the way an untraced consumer would sum them; the
    // published gauges must reproduce those bits.
    let platform = sdem_power::Platform::paper_defaults();
    let cfg = SyntheticConfig::paper(12, Time::from_millis(300.0));
    let per_point: Vec<Vec<_>> = [[3u64, 5], [8, 13]]
        .iter()
        .map(|seeds| {
            seeds
                .iter()
                .filter_map(|&s| {
                    run_trial_checked(&sporadic(&cfg, s), &platform, 8, OracleCheck::Off).ok()
                })
                .collect()
        })
        .collect();
    assert!(per_point.iter().any(|p| !p.is_empty()), "no feasible seeds");

    let mut expected = [(0.0f64, 0.0f64); 4];
    for results in &per_point {
        for r in results {
            for (acc, report) in
                expected
                    .iter_mut()
                    .zip([&r.sdem_on, &r.mbkp, &r.mbkps, &r.mbkps_always])
            {
                acc.0 += report.core_total().value();
                acc.1 += report.memory_total().value();
            }
        }
    }

    sdem_obs::registry::reset();
    sdem_obs::registry::set_enabled(true);
    figures::publish_energy_gauges(&per_point);
    sdem_obs::registry::set_enabled(false);
    let snapshot = sdem_obs::registry::snapshot();
    let gauge = |label: &str| {
        snapshot
            .gauges
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("gauge {label} missing"))
            .1
    };
    for (scheme, (core, memory)) in ["sdem_on", "mbkp", "mbkps", "mbkps_always"]
        .iter()
        .zip(expected)
    {
        assert_eq!(
            gauge(&format!("energy/{scheme}_core_j")).to_bits(),
            core.to_bits(),
            "{scheme}: core gauge is not the untraced fold"
        );
        assert_eq!(
            gauge(&format!("energy/{scheme}_memory_j")).to_bits(),
            memory.to_bits(),
            "{scheme}: memory gauge is not the untraced fold"
        );
        assert_eq!(
            gauge(&format!("energy/{scheme}_total_j")).to_bits(),
            (core + memory).to_bits(),
            "{scheme}: total gauge is not core + memory"
        );
    }
}
