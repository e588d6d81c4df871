//! # sdem — Race to Idle or Not
//!
//! A faithful, from-scratch Rust reproduction of Fu, Chau, Li and Xue,
//! *"Race to idle or not: balancing the memory sleep time with DVS for
//! energy minimization"* (DATE 2015 / Real-Time Systems 2017).
//!
//! This umbrella crate re-exports the whole workspace so that downstream
//! users depend on a single crate:
//!
//! * [`types`] — tasks, schedules and strongly-typed quantities;
//! * [`power`] — core/memory power models, critical speeds, device presets;
//! * [`workload`] — synthetic and DSPstone-like workload generators;
//! * [`sim`] — the multi-core + shared-memory simulator and energy meter;
//! * [`core`] — the paper's SDEM algorithms (offline optimal schemes for
//!   common-release and agreeable deadlines, transition-overhead variants,
//!   the SDEM-ON online heuristic in unbounded and bounded-core forms, the
//!   exact/LPT bounded-core solvers, plus the heterogeneous-core and
//!   discrete-voltage extensions);
//! * [`baselines`] — YDS, Optimal Available, AVR, critical-speed scaling
//!   and MBKP/MBKPS;
//! * [`exec`] — the parallel sweep engine (deterministic per-trial
//!   seeding, thread-count-invariant results);
//! * [`obs`] — opt-in counters, histograms and scoped tracing with a
//!   bit-transparent JSON export;
//! * [`serve`] — the persistent scheduling service: the versioned JSONL
//!   request/response API ([`serve::api`]), the canonicalized solve
//!   cache, and the worker-pool session runner behind `sdem-cli serve`;
//! * [`prng`] — the dependency-free seeded randomness behind workload
//!   generation and sweep seeding.
//!
//! # Quickstart
//!
//! ```
//! use sdem::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Platform: ARM Cortex-A57 cores + 4 W DRAM (the paper's defaults).
//! // The builder validates every knob (β > 0, λ > 1, break-evens ≥ 0).
//! let platform = PlatformBuilder::new().build()?;
//!
//! // Three tasks released together with individual deadlines.
//! let tasks = TaskSet::new(vec![
//!     Task::new(0, Time::ZERO, Time::from_millis(40.0), Cycles::new(8.0e6)),
//!     Task::new(1, Time::ZERO, Time::from_millis(70.0), Cycles::new(12.0e6)),
//!     Task::new(2, Time::ZERO, Time::from_millis(110.0), Cycles::new(20.0e6)),
//! ])?;
//!
//! // `Scheme::Auto` routes from the task-set shape: common release here,
//! // so the §7 overhead-aware optimal scheme runs.
//! let solution = solve(&tasks, &platform, Scheme::Auto)?;
//! let report = simulate(solution.schedule(), &tasks, &platform, SleepPolicy::WhenProfitable)?;
//! assert!(report.total().value() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use sdem_baselines as baselines;
pub use sdem_core as core;
pub use sdem_exec as exec;
pub use sdem_obs as obs;
pub use sdem_power as power;
pub use sdem_prng as prng;
pub use sdem_serve as serve;
pub use sdem_sim as sim;
pub use sdem_types as types;
pub use sdem_workload as workload;

/// One-stop imports for examples and applications.
///
/// This is the stable surface of the workspace: the `Scheme`-dispatched
/// solver entry points (`solve`/`solve_in` and their degradable
/// `solve_or_fallback` twins), the arena-backed [`Workspace`](sdem_types::Workspace), the power
/// and task vocabulary, and the serving API's wire types. Callers that
/// drive one scheme on a reused workspace can reach its `_in` function
/// under [`core`] (`core::online::schedule_online_in`, …).
pub mod prelude {
    pub use sdem_core::{
        solve, solve_in, solve_or_fallback, solve_or_fallback_in, Scheduler, Scheme, SdemError,
        Solution,
    };
    pub use sdem_power::{CorePower, MemoryPower, Platform, PlatformBuilder, PlatformError};
    pub use sdem_serve::{ApiError, SolveRequest, SolveResponse};
    pub use sdem_sim::{simulate, EnergyReport, SleepPolicy};
    pub use sdem_types::{
        CoreId, Cycles, ErrorKind, Joules, Placement, Schedule, Segment, Speed, Task, TaskId,
        TaskSet, Time, Watts, Workspace,
    };
}
