//! The sweep engine's contract: results are a pure function of the grid
//! seed — the worker count must never show up in the output.

use sdem_bench::figures::{fig6, fig7a};
use sdem_exec::SweepRunner;

#[test]
fn fig7a_is_thread_count_invariant() {
    let run = |threads| {
        let runner = SweepRunner::new().with_threads(threads);
        let sweep = fig7a(12, 2, &runner, Default::default(), None);
        sweep.expect("sweep").expect_clean()
    };
    let (serial, serial_stats) = run(1);
    let (parallel, parallel_stats) = run(4);
    assert_eq!(serial_stats.trials, parallel_stats.trials);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.x_ms.to_bits(), b.x_ms.to_bits(), "x drifted");
        assert_eq!(a.param.to_bits(), b.param.to_bits(), "α_m drifted");
        assert_eq!(
            a.improvement.to_bits(),
            b.improvement.to_bits(),
            "improvement differs at (α_m = {}, x = {}) between 1 and 4 threads",
            a.param,
            a.x_ms
        );
    }
}

#[test]
fn fig6_is_thread_count_invariant() {
    let run = |threads| {
        let runner = SweepRunner::new().with_threads(threads);
        let sweep = fig6(3, 2, &runner, Default::default(), None);
        sweep.expect("sweep").expect_clean().0
    };
    let (serial, parallel) = (run(1), run(8));
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            a.sdem_memory_saving.to_bits(),
            b.sdem_memory_saving.to_bits()
        );
        assert_eq!(
            a.mbkps_memory_saving.to_bits(),
            b.mbkps_memory_saving.to_bits()
        );
        assert_eq!(
            a.sdem_system_saving.to_bits(),
            b.sdem_system_saving.to_bits()
        );
        assert_eq!(
            a.mbkps_system_saving.to_bits(),
            b.mbkps_system_saving.to_bits()
        );
    }
}
