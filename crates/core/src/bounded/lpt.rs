//! The one-shot LPT tier: Longest Processing Time first.
//!
//! Tasks are walked in the shared LPT total order (decreasing work,
//! increasing index) and greedily placed on the least-loaded core — the
//! classic makespan heuristic, which for the Σ W_c^λ energy objective is
//! the natural balance-seeking greedy. The assignment is held in the
//! pooled [`Partition`] over the task set's SoA columns, the same state
//! the branch-and-bound and refine tiers search.

use sdem_power::Platform;
use sdem_types::{Partition, TaskSet, Workspace};

use super::{assemble_schedule, common_window, heaviest_task, lpt_order_into, partition_energy};
use crate::{SdemError, Solution};

/// LPT (Longest Processing Time first) heuristic for the bounded-core
/// case: assign tasks in decreasing workload to the least-loaded core,
/// then size the shared busy interval optimally (Eq. 2). Polynomial-time
/// companion to the NP-hard exact problem; property tests compare it with
/// [`solve_exact_in`](super::solve_exact_in) on small instances and with
/// [`lower_bound`](super::lower_bound) always.
///
/// Assignment scratch and the returned schedule's arenas are drawn from
/// `ws`, so a warmed workspace makes the solve allocation-free. Recycle
/// the solution's schedule back into `ws` when done with it.
///
/// # Errors
///
/// * [`SdemError::NoCores`] if `cores == 0`;
/// * [`SdemError::NotCommonRelease`] unless all releases and deadlines
///   coincide;
/// * [`SdemError::InfeasibleTask`] when the LPT assignment cannot meet the
///   deadline even at `s_up` (the exact solver may still succeed).
pub fn solve_lpt_in(
    tasks: &TaskSet,
    platform: &Platform,
    cores: usize,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    if cores == 0 {
        return Err(SdemError::NoCores);
    }
    let cores = cores.min(tasks.len());
    let list = tasks.tasks();
    let (r0, deadline) = common_window(tasks)?;

    let mut soa = ws.take_soa();
    tasks.fill_soa(&mut soa);
    let mut order = ws.take_usizes();
    lpt_order_into(&soa.works, &mut order);
    let mut part = ws.take_partition();
    lpt_assign(&soa.works, &order, cores, &mut part);

    // The historical LPT loads are insertion-order sums — keep them (not
    // the canonical index-order rebuild) so the tier's output is stable.
    let feasible = partition_energy(part.loads(), platform, deadline);
    let Some((interval, energy)) = feasible else {
        ws.recycle_usizes(order);
        ws.recycle_partition(part);
        ws.recycle_soa(soa);
        return Err(SdemError::InfeasibleTask(heaviest_task(list)));
    };

    let schedule = assemble_schedule(list, part.assignment(), part.loads(), interval, r0, ws);
    ws.recycle_usizes(order);
    ws.recycle_partition(part);
    ws.recycle_soa(soa);
    Ok(Solution::new(schedule, energy, deadline - interval))
}

/// The LPT greedy over a [`Partition`]: walk `order` and place each task
/// on the currently least-loaded core (first minimum, so the placement is
/// deterministic). Loads accumulate in placement order. Shared by the
/// LPT tier itself, the B&B incumbent seed, the refine tier's start and
/// the federated DAG packing.
pub(crate) fn lpt_assign(works: &[f64], order: &[usize], cores: usize, part: &mut Partition) {
    part.reset(works.len(), cores);
    for &k in order {
        let c = part.lightest_core();
        part.assign(k, c, works[k]);
    }
}
