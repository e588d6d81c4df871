//! Golden-master regression net for the experiment pipeline: a tiny,
//! deterministic Fig. 6 configuration must keep producing exactly the
//! recorded series. Any change to the workload generator, the schedulers,
//! the baselines or the energy accounting shows up here first — and must
//! then be reconciled with EXPERIMENTS.md.
//!
//! Tolerance is loose enough (1e-6 relative) to survive benign
//! floating-point reassociation but tight enough to catch semantic drift.

use sdem_bench::figures::fig6;
use sdem_exec::SweepRunner;

/// `fig6` at 4 instances/stream and 2 trials, recorded under the sweep engine's
/// per-trial seeding (grid seed × trial index) — columns: (U, SDEM-ON mem,
/// MBKPS mem, SDEM-ON sys, MBKPS sys).
const GOLDEN_FIG6: [(f64, f64, f64, f64, f64); 8] = [
    (
        2.0,
        0.342542089191,
        0.143513478366,
        0.338448833768,
        0.142719500203,
    ),
    (
        3.0,
        0.425646396514,
        0.257389046242,
        0.422396673505,
        0.256359841048,
    ),
    (
        4.0,
        0.525895889562,
        0.356391519596,
        0.523273778550,
        0.355346328571,
    ),
    (
        5.0,
        0.554981492214,
        0.451656206561,
        0.552810993397,
        0.450658557936,
    ),
    (
        6.0,
        0.588684002802,
        0.479703850330,
        0.586547988559,
        0.478746991616,
    ),
    (
        7.0,
        0.674421822943,
        0.582519268012,
        0.672623305200,
        0.581616501716,
    ),
    (
        8.0,
        0.664557850643,
        0.575760394150,
        0.662918714760,
        0.574906610033,
    ),
    (
        9.0,
        0.716488975057,
        0.639370192892,
        0.715031320913,
        0.638553582462,
    ),
];

#[test]
fn fig6_tiny_configuration_is_bit_stable() {
    let sweep = fig6(4, 2, &SweepRunner::new(), Default::default(), None);
    let (rows, _) = sweep.expect("sweep").expect_clean();
    assert_eq!(rows.len(), GOLDEN_FIG6.len());
    for (row, golden) in rows.iter().zip(&GOLDEN_FIG6) {
        assert_eq!(row.u, golden.0);
        let pairs = [
            ("sdem_memory", row.sdem_memory_saving, golden.1),
            ("mbkps_memory", row.mbkps_memory_saving, golden.2),
            ("sdem_system", row.sdem_system_saving, golden.3),
            ("mbkps_system", row.mbkps_system_saving, golden.4),
        ];
        for (name, measured, expected) in pairs {
            assert!(
                (measured - expected).abs() <= 1e-6 * expected.abs().max(1e-6),
                "U = {}: {name} drifted: measured {measured:.12}, golden {expected:.12} \
                 — if intentional, regenerate results/ and update EXPERIMENTS.md",
                row.u
            );
        }
    }
}

#[test]
fn fig6_tiny_configuration_matches_paper_shape() {
    // The same invariants EXPERIMENTS.md claims, on the tiny config.
    for g in &GOLDEN_FIG6 {
        assert!(
            g.1 > g.2,
            "SDEM-ON must beat MBKPS on memory at U = {}",
            g.0
        );
        assert!(
            g.3 > g.4,
            "SDEM-ON must beat MBKPS on system at U = {}",
            g.0
        );
    }
    // Savings trend upward from U = 2 to U = 9 for both schemes.
    assert!(GOLDEN_FIG6[7].1 > GOLDEN_FIG6[0].1);
    assert!(GOLDEN_FIG6[7].2 > GOLDEN_FIG6[0].2);
}
