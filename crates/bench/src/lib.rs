//! Experiment harness regenerating every figure of the paper's evaluation
//! (§8): Fig. 6a/6b (DSPstone benchmarks over utilization `U`), Fig. 7a
//! (`α_m × x` sweep) and Fig. 7b (`ξ_m × x` sweep), plus the Table 4
//! parameter grid the sweeps read from `sdem-workload::paper`.
//!
//! Binaries:
//!
//! * `cargo run -p sdem-bench --release --bin fig6` — both panels of Fig. 6;
//! * `cargo run -p sdem-bench --release --bin fig7a`;
//! * `cargo run -p sdem-bench --release --bin fig7b`.
//!
//! Every binary fans its trials across worker threads through
//! [`sdem_exec::SweepRunner`]; set `SDEM_THREADS` to bound the worker
//! count (the output is bit-identical for any value).
//!
//! Every figure sweep runs its replicates through
//! [`experiment::run_trial_quarantined_in`], so a failed trial becomes a
//! quarantine record instead of aborting the figure; the binaries and
//! goldens require an empty one ([`figures::RobustFigure::expect_clean`]).
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

/// Builds a [`sdem_exec::SweepRunner`] honouring the `SDEM_THREADS`
/// environment variable (unset or `0` = all hardware threads).
pub fn runner_from_env() -> sdem_exec::SweepRunner {
    let threads = std::env::var("SDEM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0usize);
    sdem_exec::SweepRunner::new().with_threads(threads)
}
