//! The refine tier: LPT polished by deterministic move/swap local search.
//!
//! Starting from the LPT assignment, each round looks at the heaviest and
//! lightest cores only — by strict convexity of `x^λ`, shifting work from
//! the heaviest toward the lightest core is the steepest-descent direction
//! on the Σ W_c^λ objective — and considers two O(n)-discoverable steps:
//!
//! * **move** — relocate one task from the heaviest to the lightest core;
//!   the candidate is the task whose work lies closest to half the load
//!   gap (any work strictly inside `(0, gap)` improves; the midpoint
//!   improves most);
//! * **swap** — exchange one task from each core; the best net transfer
//!   `w_a − w_b` closest to half the gap is found by binary search over
//!   the lightest core's members, which the shared LPT order keeps sorted
//!   by decreasing work.
//!
//! The candidate with the larger actual Σ W_c^λ decrease is applied
//! (moves win ties); rounds stop at a fixed cap, when no candidate
//! improves, or when the cores are already balanced. Every choice breaks
//! ties by task index, so the refinement is a deterministic function of
//! the instance. An LPT start that misses the deadline can be repaired:
//! feasibility (Eq. 2) is judged on the final loads, not the initial ones.

use sdem_power::Platform;
use sdem_types::{TaskSet, Workspace};

use super::lpt::lpt_assign;
use super::{assemble_schedule, common_window, heaviest_task, lpt_order_into, partition_energy};
use crate::{SdemError, Solution};

/// Local-search round cap. Each round strictly decreases Σ W_c^λ (the
/// acceptance threshold filters ulp-level noise), so the cap only guards
/// pathological near-tie chains; in practice balance is reached far
/// earlier.
const REFINE_ROUNDS: usize = 64;

/// LPT + local-search bounded-core heuristic: the polynomial tier of
/// [`Scheme::BoundedAuto`](crate::Scheme::BoundedAuto), never worse than
/// [`solve_lpt_in`](super::solve_lpt_in) on the Σ W_c^λ objective and
/// deterministic for a given instance. Scratch and the returned schedule's
/// arenas come from `ws`.
///
/// # Errors
///
/// * [`SdemError::NoCores`] if `cores == 0`;
/// * [`SdemError::NotCommonRelease`] unless all releases and deadlines
///   coincide;
/// * [`SdemError::InfeasibleTask`] when the refined assignment still
///   cannot meet the deadline at `s_up`.
pub fn solve_refined_in(
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

    let lambda = platform.core().lambda();
    let works = &soa.works;
    let mut members_h = ws.take_usizes();
    let mut members_l = ws.take_usizes();
    let mut improvements = 0u64;
    for _ in 0..REFINE_ROUNDS {
        let h = part.heaviest_core();
        let l = part.lightest_core();
        if h == l {
            break;
        }
        let wh = part.loads()[h];
        let wl = part.loads()[l];
        let gap = wh - wl;
        if gap <= 0.0 {
            break;
        }
        let target = 0.5 * gap;

        // One pass over the LPT order keeps both member lists sorted by
        // decreasing work (index-ascending among equals) — the invariant
        // the swap binary search relies on.
        members_h.clear();
        members_l.clear();
        for &i in order.iter() {
            let c = part.core_of(i);
            if c == h {
                members_h.push(i);
            } else if c == l {
                members_l.push(i);
            }
        }

        // Best move: the task on the heavy core closest to half the gap.
        let mut mv: Option<(f64, usize)> = None;
        for &i in members_h.iter() {
            let w = works[i];
            if w > 0.0 && w < gap {
                let dist = (w - target).abs();
                if mv.is_none_or(|(bd, bi)| dist < bd || (dist == bd && i < bi)) {
                    mv = Some((dist, i));
                }
            }
        }

        // Best swap: for each heavy-core task `a`, the light-core task
        // whose work sits nearest `w_a − target` (the two binary-search
        // neighbors are the only candidates).
        let mut sw: Option<(f64, usize, usize)> = None;
        if !members_l.is_empty() {
            for &a in members_h.iter() {
                let wa = works[a];
                let want = wa - target;
                let p = members_l.partition_point(|&b| works[b] > want);
                for q in [p.checked_sub(1), Some(p)].into_iter().flatten() {
                    if q >= members_l.len() {
                        continue;
                    }
                    let b = members_l[q];
                    let delta = wa - works[b];
                    if delta > 0.0 && delta < gap {
                        let dist = (delta - target).abs();
                        if sw.is_none_or(|(bd, ba, bb)| {
                            dist < bd || (dist == bd && (a, b) < (ba, bb))
                        }) {
                            sw = Some((dist, a, b));
                        }
                    }
                }
            }
        }

        // Price both candidates by their actual Σ W_c^λ change and apply
        // the better one; the threshold rejects ulp-level noise.
        let base = wh.powf(lambda) + wl.powf(lambda);
        let gain = |delta: f64| (wh - delta).powf(lambda) + (wl + delta).powf(lambda) - base;
        let threshold = -1e-12 * base;
        let mv = mv.map(|(_, i)| (gain(works[i]), i));
        let sw = sw.map(|(_, a, b)| (gain(works[a] - works[b]), a, b));
        let swap_wins = match (mv, sw) {
            (Some((gm, _)), Some((gs, _, _))) => gs < gm,
            (None, Some(_)) => true,
            _ => false,
        };
        if swap_wins {
            let (gs, a, b) = sw.expect("swap_wins implies a swap candidate");
            if gs >= threshold {
                break;
            }
            part.swap_tasks(a, b, works[a], works[b]);
        } else {
            let Some((gm, i)) = mv else { break };
            if gm >= threshold {
                break;
            }
            part.move_task(i, l, works[i]);
        }
        improvements += 1;
    }
    ws.recycle_usizes(members_h);
    ws.recycle_usizes(members_l);
    ws.recycle_usizes(order);
    sdem_obs::registry::add(
        sdem_obs::registry::Counter::BoundedRefineImprovements,
        improvements,
    );

    // Canonical index-order loads for the final pricing and assembly (the
    // incremental sums drift by ulps as tasks move between cores).
    part.rebuild_loads(works);
    let Some((interval, energy)) = partition_energy(part.loads(), platform, deadline) else {
        ws.recycle_partition(part);
        ws.recycle_soa(soa);
        return Err(SdemError::InfeasibleTask(heaviest_task(list)));
    };
    let schedule = assemble_schedule(list, part.assignment(), part.loads(), interval, r0, ws);
    ws.recycle_partition(part);
    ws.recycle_soa(soa);
    Ok(Solution::new(schedule, energy, deadline - interval))
}
