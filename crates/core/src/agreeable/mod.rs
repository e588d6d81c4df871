//! Optimal schemes for agreeable-deadline tasks (paper §5).
//!
//! Agreeable deadlines (`r_i ≤ r_j ⇒ d_i ≤ d_j`) admit an optimal solution
//! in which tasks, sorted by deadline, are partitioned into *blocks* of
//! consecutive tasks, each block executing inside one memory busy interval
//! `[s', e']` (Lemma 4). The scheme therefore has two layers:
//!
//! 1. a **block solver** finding the busy interval minimizing the energy of
//!    one task subset — [`block`] implements the production *best-response*
//!    solver (a single jointly-convex minimization; see that module's docs
//!    for the convexity argument), and [`algorithm1`] implements the paper's
//!    `(i, j)`-pair decomposition with the five-step iterative scheme of
//!    §5.2 (which doubles as the §5.1 solver when `α = 0`);
//! 2. a **dynamic program** over deadline-ordered prefixes choosing the
//!    partition (§5.1.2 / §5.2.2), in [`schedule_in`].
//!
//! The two block solvers are cross-checked against each other and against a
//! dense grid oracle in tests; an ablation bench compares their cost.
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
//!     Task::new(0, Time::ZERO, Time::from_millis(40.0), Cycles::new(8.0e6)),
//!     Task::new(1, Time::from_millis(60.0), Time::from_millis(120.0), Cycles::new(6.0e6)),
//! ])?;
//! let sol = solve(&tasks, &platform, Scheme::Agreeable)?;
//! sol.schedule().validate(&tasks)?;
//! # Ok(())
//! # }
//! ```

pub mod algorithm1;
pub mod block;
mod dp;
pub mod lemma3;

pub use dp::{
    schedule_in, schedule_strict_in, schedule_with_solver, schedule_with_solver_in, BlockSolverKind,
};
pub use lemma3::solve_single_block_lemma3;

use sdem_power::Platform;
use sdem_types::{Task, TaskSet, Workspace};

use crate::SdemError;

/// Solves the whole task set as a **single block** (one memory busy
/// interval) with the chosen solver, returning the block energy. This is
/// the §5.1.1/§5.2.1 subproblem in isolation — used by the ablation benches
/// and as an upper bound for the DP.
///
/// # Errors
///
/// Same preconditions as [`schedule_in`].
pub fn solve_single_block(
    tasks: &TaskSet,
    platform: &Platform,
    solver: BlockSolverKind,
) -> Result<sdem_types::Joules, SdemError> {
    let sorted = prepare(tasks, platform)?;
    let pw = PowerParams::of(platform);
    let bts: Vec<BlockTask> = sorted
        .iter()
        .enumerate()
        .map(|(index, t)| BlockTask {
            index,
            r: t.release().as_secs(),
            d: t.deadline().as_secs(),
            w: t.work().value(),
        })
        .collect();
    if solver == BlockSolverKind::PaperClosedForm && !platform.core().is_alpha_zero() {
        return Err(SdemError::UnsupportedModel(
            "the Lemma-3 closed-form block solver requires α = 0",
        ));
    }
    let sol = match solver {
        BlockSolverKind::BestResponse => block::solve(&bts, &pw),
        BlockSolverKind::PaperIterative => algorithm1::solve(&bts, &pw),
        BlockSolverKind::PaperClosedForm => lemma3::solve_block(&bts, &pw),
    };
    Ok(sdem_types::Joules::new(sol.energy))
}

/// Dense `grid × grid` oracle for the single-block subproblem — an
/// implementation-independent reference for tests and ablation benches.
///
/// # Errors
///
/// Same preconditions as [`schedule_in`].
pub fn single_block_oracle(
    tasks: &TaskSet,
    platform: &Platform,
    grid: usize,
) -> Result<sdem_types::Joules, SdemError> {
    let sorted = prepare(tasks, platform)?;
    let pw = PowerParams::of(platform);
    let bts: Vec<BlockTask> = sorted
        .iter()
        .enumerate()
        .map(|(index, t)| BlockTask {
            index,
            r: t.release().as_secs(),
            d: t.deadline().as_secs(),
            w: t.work().value(),
        })
        .collect();
    Ok(sdem_types::Joules::new(block::grid_oracle(&bts, &pw, grid)))
}

/// Scalar power parameters shared by the agreeable-deadline solvers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PowerParams {
    pub alpha: f64,
    pub beta: f64,
    pub lambda: f64,
    pub alpha_m: f64,
    pub s_up: f64,
    /// Unclamped core critical speed `s_m` (0 when `α = 0`).
    pub s_m: f64,
    /// Unclamped joint critical speed `s_cm` (Algorithm 1's `s₁` source).
    pub s_cm: f64,
}

impl PowerParams {
    pub(crate) fn of(platform: &Platform) -> Self {
        let core = platform.core();
        Self {
            alpha: core.alpha().value(),
            beta: core.beta(),
            lambda: core.lambda(),
            alpha_m: platform.memory().alpha_m().value(),
            s_up: core.max_speed().as_hz(),
            s_m: core.critical_speed_unclamped().as_hz(),
            s_cm: platform
                .memory_associated_critical_speed_unclamped()
                .as_hz(),
        }
    }
}

/// One task of a block, in absolute seconds/cycles.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockTask {
    /// Position of the task in the deadline-sorted global order.
    pub index: usize,
    pub r: f64,
    pub d: f64,
    pub w: f64,
}

/// Validates agreeability and feasibility; returns tasks sorted by deadline
/// with ties broken by release (which, by agreeability, also sorts releases
/// non-decreasingly).
pub(crate) fn prepare(tasks: &TaskSet, platform: &Platform) -> Result<Vec<Task>, SdemError> {
    prepare_in(tasks, platform, &mut Workspace::new())
}

/// In-place [`prepare`]: the sorted-task buffer comes from `ws`'s task
/// arena; recycle it with `ws.recycle_tasks` when done.
pub(crate) fn prepare_in(
    tasks: &TaskSet,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<Vec<Task>, SdemError> {
    if !tasks.is_agreeable() {
        return Err(SdemError::NotAgreeable);
    }
    // The block objective's own feasibility test on each full window, so
    // an admitted task always has a finite block (a looser guard here
    // would admit tasks the objective prices at +∞).
    let s_up = platform.core().max_speed().as_hz();
    for t in tasks.iter() {
        let window = t.deadline().as_secs() - t.release().as_secs();
        if block::window_too_short(t.work().value(), window, s_up) {
            return Err(SdemError::InfeasibleTask(t.id()));
        }
    }
    let mut sorted = ws.take_tasks();
    tasks.sorted_by_deadline_into(&mut sorted);
    debug_assert!(
        sorted.windows(2).all(|w| w[0].release() <= w[1].release()),
        "agreeable order must sort releases too"
    );
    Ok(sorted)
}
