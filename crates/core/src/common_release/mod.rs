//! Optimal schemes for tasks with a common release time (paper §4).
//!
//! All tasks release at the same instant `r₀`; each runs on its own core.
//! The only decision coupling tasks is the end of the memory busy interval
//! `T = |I| − Δ`: tasks "aligned" with the busy interval finish exactly at
//! `T`, the rest finish earlier and (when `α ≠ 0`) put their cores to sleep.
//!
//! * [`schedule_alpha_zero_in`] — §4.1, cores free when idle. The default
//!   entry point evaluates every case with closed forms (Eq. 4); the
//!   paper's sequential scan (Theorem 2) and `O(n log n)` binary search
//!   (Lemma 1) are provided as [`schedule_alpha_zero_scan`] and
//!   [`schedule_alpha_zero_binary_search`] and agree with it.
//! * [`schedule_alpha_nonzero_in`] — §4.2, cores sleep after finishing;
//!   tasks not aligned with the busy interval run at their critical speed
//!   `s₀` (Eq. 7–8, Lemma 2, Theorem 3).
//! * [`schedule_heterogeneous`] — the paper's §4 closing remark: the same
//!   case analysis with per-core power functions (per-task critical speeds,
//!   per-case energies summed per core and minimized numerically).
//! * [`reference_optimum`] — a dense grid search over the busy-interval
//!   length with per-task best responses; an independent oracle used by the
//!   test-suite and the ablation benches.

mod alpha_nonzero;
mod alpha_zero;
mod heterogeneous;
mod reference;

pub(crate) use alpha_nonzero::completion_order_into;
pub use alpha_nonzero::schedule_alpha_nonzero_in;
pub use alpha_zero::{
    schedule_alpha_zero_binary_search, schedule_alpha_zero_in, schedule_alpha_zero_scan,
};
pub use heterogeneous::schedule_heterogeneous;
pub use reference::reference_optimum;

use sdem_power::Platform;
use sdem_types::{Speed, Task, TaskSet, Time, Workspace};

use crate::SdemError;

/// A validated common-release instance in *relative* time: task deadlines
/// are measured from the shared release `r0`.
pub(crate) struct Instance {
    /// The shared release instant (add back when building schedules).
    pub release: Time,
    /// Tasks sorted by the order the scheme needs (deadline for §4.1,
    /// critical-speed completion for §4.2). Taken from the workspace's task
    /// arena; recycle via [`Instance::recycle`].
    pub tasks: Vec<Task>,
}

impl Instance {
    /// Returns the task arena to the workspace.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.recycle_tasks(self.tasks);
    }
}

/// Checks the common-release precondition and per-task feasibility
/// (`s_f ≤ s_up`), returning tasks sorted by deadline in a buffer drawn
/// from `ws`'s task arena.
pub(crate) fn prepare_in(
    tasks: &TaskSet,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<Instance, SdemError> {
    if !tasks.is_common_release() {
        return Err(SdemError::NotCommonRelease);
    }
    let s_up = platform.core().max_speed();
    for t in tasks.iter() {
        if exceeds(t.filled_speed(), s_up) {
            return Err(SdemError::InfeasibleTask(t.id()));
        }
    }
    let mut sorted = ws.take_tasks();
    tasks.sorted_by_deadline_into(&mut sorted);
    Ok(Instance {
        release: tasks.tasks()[0].release(),
        tasks: sorted,
    })
}

/// Allocating wrapper over [`prepare_in`] for the one-shot entry points.
pub(crate) fn prepare(tasks: &TaskSet, platform: &Platform) -> Result<Instance, SdemError> {
    prepare_in(tasks, platform, &mut Workspace::new())
}

/// Speed comparison with a relative guard for borderline-feasible tasks.
pub(crate) fn exceeds(speed: Speed, s_up: Speed) -> bool {
    speed.value() > s_up.value() * (1.0 + 1e-9)
}
