//! The SDEM scheduling algorithms — the paper's primary contribution.
//!
//! Reproduces every scheme of Fu, Chau, Li and Xue, *"Race to idle or not:
//! balancing the memory sleep time with DVS for energy minimization"*:
//!
//! | Paper | Model | Here |
//! |---|---|---|
//! | §4.1 (Thm 2, Lemma 1) | common release, `α = 0` | [`common_release::schedule_alpha_zero_in`] |
//! | §4.2 (Lemma 2, Thm 3) | common release, `α ≠ 0` | [`common_release::schedule_alpha_nonzero_in`] |
//! | §5.1 (Lemma 3–4) | agreeable deadlines, `α = 0` | [`agreeable::schedule_in`] |
//! | §5.2 (Alg. 1, Thm 4) | agreeable deadlines, `α ≠ 0` | [`agreeable::schedule_in`] ([`agreeable::schedule_with_solver_in`] picks Algorithm 1) |
//! | §6 | general tasks, online | [`online::schedule_online_in`] (+ [`online::schedule_online_bounded_in`] for fixed core counts) |
//! | §7 (Thm 5, Table 3) | transition overheads | [`overhead`] |
//! | §3 (Thm 1) | bounded cores (NP-hard) | [`bounded`] (exact, branch-and-bound, LPT + refine, lower bound; size-routed via [`Scheme::BoundedAuto`]) |
//! | §4 closing remark | heterogeneous cores | [`common_release::schedule_heterogeneous`] |
//! | §3 (Ishihara–Yasuura citation) | discrete speed levels | [`discrete`] |
//! | federated extension | precedence DAGs on bounded cores | [`dag`] ([`dag::solve_dags_in`], [`Scheme::DagFederated`]) |
//! | §5.1.1 closed forms | Lemma-3 bisection block solver | [`agreeable::solve_single_block_lemma3`] |
//! | DESIGN.md deviation 3 | overlap-free DP variant | [`agreeable::schedule_strict_in`] |
//! | (all of the above) | unified entry point | [`Scheme`] enum, [`solve`], the [`SCHEMES`] name table |
//!
//! All offline schemes assume the paper's *unbounded* model: enough cores
//! that every task runs on its own core, so the only couplings between tasks
//! are the shared memory sleep window and, for `α ≠ 0`, the per-core sleep
//! decisions. The schemes return a [`Solution`] carrying the explicit
//! [`sdem_types::Schedule`] (verifiable with `sdem-sim`) plus the analytic
//! optimum energy.
//!
//! # Examples
//!
//! ```
//! use sdem_core::{solve, Scheme};
//! use sdem_power::Platform;
//! use sdem_types::{Task, TaskSet, Time, Cycles};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let platform = Platform::paper_defaults();
//! let tasks = TaskSet::new(vec![
//!     Task::new(0, Time::ZERO, Time::from_millis(30.0), Cycles::new(6.0e6)),
//!     Task::new(1, Time::ZERO, Time::from_millis(80.0), Cycles::new(9.0e6)),
//! ])?;
//! let solution = solve(&tasks, &platform, Scheme::CommonReleaseAlphaNonzero)?;
//! assert!(solution.memory_sleep().value() >= 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agreeable;
pub mod bounded;
pub mod common_release;
pub mod dag;
pub mod discrete;
mod fault;
pub mod online;
mod oracle;
pub mod overhead;
pub mod scheduler;
mod solution;

pub use fault::{
    schedule_race_to_idle, schedule_race_to_idle_in, solve_or_fallback, solve_or_fallback_in,
    solve_or_fallback_with, TrialError,
};
pub use oracle::{relative_divergence, OracleError, OracleOptions, DEFAULT_ORACLE_TOLERANCE};
pub use scheduler::{solve, solve_in, Scheduler, Scheme, SchemeEntry, SCHEMES};
pub use solution::{recycle_report, SdemError, Solution};
