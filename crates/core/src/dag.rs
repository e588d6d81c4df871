//! Federated scheduling of precedence DAGs with per-core SDEM energy
//! minimization.
//!
//! The classic federated decomposition (Li et al.) splits a DAG workload
//! in two: *heavy* DAGs — utilization above one even at `s_up` — each get
//! a dedicated cluster of cores, while *light* DAGs share the remaining
//! cores. This module layers the paper's energy machinery on top:
//!
//! 1. **Allocate.** Heavy DAGs claim `⌈(W − L)/(D − L)⌉` dedicated cores
//!    (escalated while the layered list schedule still misses the window
//!    — layer barriers can exceed the Graham-style bound); light DAGs are
//!    LPT-packed onto the shared cores.
//! 2. **Window.** Each DAG's window is chopped into sequential per-node
//!    windows: layer slots proportional to the per-layer heaviest core
//!    load, then per-(layer, core) member windows proportional to node
//!    work. Every edge crosses a layer boundary, so layer-ordered windows
//!    structurally satisfy every precedence constraint.
//! 3. **Solve.** Each physical core's window set is an ordinary SDEM
//!    instance (sequential windows are agreeable by construction) and is
//!    energy-minimized with [`Scheme::Auto`]; the DVS slack inside each
//!    window is exactly the paper's race-to-idle-or-not trade-off.
//! 4. **Price.** Per-core solutions are re-priced under the gap
//!    convention ([`Solution::from_schedule_in`]) and merged into one
//!    aggregate solution whose memory energy counts the cross-core busy
//!    union once — the same accounting the `sdem-sim` meter applies, so
//!    [`DagReport::verify_against_meter`] agrees to round-off.
//!
//! [`solve_federated_in`] is the lean [`Scheme::DagFederated`] path for
//! plain common-window task sets (each task a singleton light DAG); it
//! shares the chopping arithmetic with the general pipeline bit for bit,
//! which the differential suite pins.

use core::cmp::Ordering;

use sdem_obs::Counter;
use sdem_power::Platform;
use sdem_types::{
    CoreId, Cycles, Joules, Placement, Schedule, Speed, Task, TaskId, TaskSet, Time, Workspace,
};
use sdem_workload::dag::Dag;

use crate::bounded::{common_window, lpt_assign, lpt_order_into};
use crate::oracle::{OracleError, OracleOptions};
use crate::{solve_in, Scheme, SdemError, Solution};

/// Where the federated allocator placed one DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DagAssignment {
    /// A heavy DAG's dedicated cluster.
    Dedicated {
        /// First physical core of the cluster.
        first_core: usize,
        /// Cluster width in cores.
        cores: usize,
    },
    /// A light DAG's shared core.
    Shared {
        /// The physical core the whole DAG runs on.
        core: usize,
    },
}

/// Per-physical-core summary of a federated solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagCoreReport {
    /// The physical core.
    pub core: CoreId,
    /// Gap-convention energy of this core's sub-schedule viewed in
    /// isolation (its memory term counts only this core's busy union, so
    /// the sum over cores exceeds the aggregate, which prices the shared
    /// memory once).
    pub energy: Joules,
    /// Memory sleep of the isolated per-core view.
    pub memory_sleep: Time,
    /// Number of node windows scheduled on this core.
    pub tasks: usize,
}

/// Result of [`solve_dags_in`]: the merged energy-minimized schedule plus
/// the allocation decisions the federated pipeline made.
#[derive(Debug, Clone, PartialEq)]
pub struct DagReport {
    /// Aggregate solution over every core, priced under the gap
    /// convention (memory busy-union counted once).
    pub solution: Solution,
    /// The derived windowed tasks (global id = DAG id-base + node id) —
    /// exactly the set [`DagReport::verify_against_meter`] meters.
    pub tasks: TaskSet,
    /// Per-core summaries, ascending core id, busy cores only.
    pub per_core: Vec<DagCoreReport>,
    /// Allocation decision per input DAG, in input order.
    pub assignments: Vec<DagAssignment>,
    /// Physical cores that ended up with at least one segment.
    pub cores_used: usize,
    /// Dedicated clusters allocated (one per heavy DAG).
    pub clusters: usize,
}

impl DagReport {
    /// Meters the aggregate schedule with `sdem-sim` and checks the
    /// analytic prediction, exactly like
    /// [`Solution::verify_against_meter`].
    ///
    /// # Errors
    ///
    /// See [`Solution::verify_against_meter`].
    pub fn verify_against_meter(
        &self,
        platform: &Platform,
        options: OracleOptions,
    ) -> Result<Joules, OracleError> {
        self.solution
            .verify_against_meter(&self.tasks, platform, options)
    }
}

/// Tears a [`DagReport`] back down into the workspace pools (schedule
/// segments/placements and the derived task vector), keeping a trial loop
/// allocation-free.
pub fn recycle_dag_report(report: DagReport, ws: &mut Workspace) {
    let DagReport {
        solution, tasks, ..
    } = report;
    ws.recycle_schedule(solution.into_schedule());
    ws.recycle_tasks(tasks.into_tasks());
}

/// A cumulative-fraction chop boundary: `start + span·(cum/total)`,
/// snapped to `end` exactly on the final boundary so the last window
/// inherits the enclosing window's end bit-for-bit (`cum/total` reaches
/// exactly `1.0`, but `start + span` need not equal `end`).
fn chop_boundary(start: Time, end: Time, span: Time, cum: f64, total: f64) -> Time {
    if cum >= total {
        end
    } else {
        start + span * (cum / total)
    }
}

/// The infeasibility witness of a DAG: its heaviest node (lowest id among
/// equals), as a node id.
fn witness_node(dag: &Dag) -> usize {
    let mut best = 0;
    for v in 1..dag.node_count() {
        if dag.work_of(v).total_cmp(&dag.work_of(best)) == Ordering::Greater {
            best = v;
        }
    }
    best
}

/// Chops one DAG's window into sequential per-node windows on its cluster
/// and appends the derived tasks (global id `base + node`) onto the
/// physical-core arenas `arenas[first_core..first_core + m]`.
///
/// Layer slots split the window proportional to the per-layer heaviest
/// core load; within a (layer, core) pair, member windows split the slot
/// proportional to node work, with each window's start clamped to the
/// node's release offset.
#[allow(clippy::too_many_arguments)]
fn window_dag_into(
    dag: &Dag,
    base: usize,
    window: (Time, Time),
    m: usize,
    first_core: usize,
    s_up: Speed,
    arenas: &mut [Vec<Task>],
    assignment: &mut Vec<usize>,
    layer_loads: &mut Vec<Cycles>,
    core_loads: &mut Vec<Cycles>,
) -> Result<(), SdemError> {
    let (start, end) = window;
    let span = end - start;
    dag.assign_layered_into(m, assignment, layer_loads, core_loads);
    let mut total = 0.0;
    for load in layer_loads.iter() {
        total += load.value();
    }
    if Cycles::new(total) / s_up > span {
        sdem_obs::registry::incr(Counter::DagInfeasible);
        return Err(SdemError::InfeasibleTask(TaskId(base + witness_node(dag))));
    }
    let mut cum = 0.0;
    let mut slot_start = start;
    for (layer, load) in layer_loads.iter().enumerate() {
        cum += load.value();
        let slot_end = chop_boundary(start, end, span, cum, total);
        let slot_span = slot_end - slot_start;
        for cc in 0..m {
            let mut core_total = 0.0;
            for &v in dag.layer_members(layer) {
                if assignment[v] == cc {
                    core_total += dag.work_of(v).value();
                }
            }
            if core_total == 0.0 {
                continue;
            }
            let mut member_cum = 0.0;
            let mut window_start = slot_start;
            for &v in dag.layer_members(layer) {
                if assignment[v] != cc {
                    continue;
                }
                member_cum += dag.work_of(v).value();
                let window_end =
                    chop_boundary(slot_start, slot_end, slot_span, member_cum, core_total);
                let release = window_start.max(dag.release() + dag.offset_of(v));
                if release >= window_end || dag.work_of(v) / s_up > window_end - release {
                    sdem_obs::registry::incr(Counter::DagInfeasible);
                    return Err(SdemError::InfeasibleTask(TaskId(base + v)));
                }
                arenas[first_core + cc].push(Task::new(
                    base + v,
                    release,
                    window_end,
                    dag.work_of(v),
                ));
                window_start = window_end;
            }
        }
        slot_start = slot_end;
    }
    Ok(())
}

/// [`solve_dags_in`] on a fresh workspace.
///
/// # Errors
///
/// See [`solve_dags_in`].
pub fn solve_dags(dags: &[Dag], platform: &Platform, cores: usize) -> Result<DagReport, SdemError> {
    solve_dags_in(dags, platform, cores, &mut Workspace::new())
}

/// Runs the full federated pipeline: allocate cores, chop windows, solve
/// each core with [`Scheme::Auto`], and price the merged schedule.
///
/// Global task ids are `base_i + node_id` where `base_i` is the running
/// node count of the DAGs before `i`, so reports and error witnesses name
/// nodes unambiguously across the suite.
///
/// # Errors
///
/// * [`SdemError::NoCores`] — zero budget, a heavy cluster outgrowing the
///   remaining budget, or light DAGs left without a shared core.
/// * [`SdemError::InfeasibleTask`] — a DAG that misses its window even at
///   `s_up` on every affordable cluster width (witness: `base +` its
///   heaviest or offending node).
/// * [`SdemError::NotCommonRelease`] — light DAGs with mismatched
///   windows; sharing a chopped core requires one common frame.
/// * [`SdemError::UnsupportedModel`] — an empty DAG list.
pub fn solve_dags_in(
    dags: &[Dag],
    platform: &Platform,
    cores: usize,
    ws: &mut Workspace,
) -> Result<DagReport, SdemError> {
    if cores == 0 {
        return Err(SdemError::NoCores);
    }
    if dags.is_empty() {
        return Err(SdemError::UnsupportedModel("at least one DAG is required"));
    }
    let s_up = platform.core().max_speed();

    let mut bases = ws.take_usizes();
    let mut next_base = 0;
    for dag in dags {
        bases.push(next_base);
        next_base += dag.node_count();
    }

    // Pass 1 — classify and allocate. Heavy DAGs claim dedicated clusters
    // in input order; light DAGs queue for the shared cores.
    let mut assignment = ws.take_usizes();
    let mut layer_loads = ws.take_cycles();
    let mut core_loads = ws.take_cycles();
    let mut light = ws.take_usizes();
    let mut light_works = ws.take_f64s();
    let mut assignments = Vec::with_capacity(dags.len());
    let mut next_core = 0usize;
    let mut clusters = 0usize;
    for (i, dag) in dags.iter().enumerate() {
        if dag.federated_cores(s_up).is_none() {
            sdem_obs::registry::incr(Counter::DagInfeasible);
            return Err(SdemError::InfeasibleTask(TaskId(
                bases[i] + witness_node(dag),
            )));
        }
        if dag.is_heavy(s_up) {
            let bound = dag.federated_cores(s_up).expect("checked above").max(1);
            let budget = cores - next_core;
            if bound > budget {
                return Err(SdemError::NoCores);
            }
            // The federated bound ignores layer barriers; escalate until
            // the layered list schedule fits the window.
            let span = dag.span();
            let mut m = bound;
            loop {
                dag.assign_layered_into(m, &mut assignment, &mut layer_loads, &mut core_loads);
                let mut total = 0.0;
                for load in layer_loads.iter() {
                    total += load.value();
                }
                if Cycles::new(total) / s_up <= span {
                    break;
                }
                m += 1;
                // Past its node count a cluster's layered schedule stops
                // changing, so no wider cluster within the budget fits.
                if m > budget || m > dag.node_count() {
                    sdem_obs::registry::incr(Counter::DagInfeasible);
                    return Err(SdemError::InfeasibleTask(TaskId(
                        bases[i] + witness_node(dag),
                    )));
                }
            }
            assignments.push(DagAssignment::Dedicated {
                first_core: next_core,
                cores: m,
            });
            next_core += m;
            clusters += 1;
        } else {
            light.push(i);
            light_works.push(dag.total_work().value());
            // Placeholder; the shared core is decided by the LPT pass.
            assignments.push(DagAssignment::Shared { core: usize::MAX });
        }
    }
    sdem_obs::registry::add(Counter::DagClusters, clusters as u64);

    // Pass 2 — pack light DAGs onto the shared cores. LPT opens at most
    // one core per light DAG, always the lowest-indexed idle one, so a
    // budget past the light-DAG count changes no packing: clamp it there,
    // and per-core scratch stays the suite's size.
    let shared_first = next_core;
    let shared_cores = (cores - next_core).min(light.len());
    // The bounded tiers' LPT packing, so the light-DAG allocator and the
    // lean task-set path agree with them bit for bit.
    let mut order = ws.take_usizes();
    let mut packed = ws.take_partition();
    if !light.is_empty() {
        if shared_cores == 0 {
            return Err(SdemError::NoCores);
        }
        let first = &dags[light[0]];
        let (r0, d0) = (first.release(), first.deadline());
        if !light
            .iter()
            .all(|&i| dags[i].release() == r0 && dags[i].deadline() == d0)
        {
            return Err(SdemError::NotCommonRelease);
        }
        lpt_order_into(&light_works, &mut order);
        lpt_assign(&light_works, &order, shared_cores, &mut packed);
        for (k, &i) in light.iter().enumerate() {
            assignments[i] = DagAssignment::Shared {
                core: shared_first + packed.core_of(k),
            };
        }
    }

    // Pass 3 — chop every DAG's window into per-core sequential task
    // windows.
    let mut arenas = ws.take_task_list();
    for _ in 0..shared_first + shared_cores {
        let arena = ws.take_tasks();
        arenas.push(arena);
    }
    for (i, dag) in dags.iter().enumerate() {
        if let DagAssignment::Dedicated {
            first_core,
            cores: m,
        } = assignments[i]
        {
            window_dag_into(
                dag,
                bases[i],
                (dag.release(), dag.deadline()),
                m,
                first_core,
                s_up,
                &mut arenas,
                &mut assignment,
                &mut layer_loads,
                &mut core_loads,
            )?;
        }
    }
    for c in 0..shared_cores {
        // This core's light DAGs, in packing order; the core window is
        // chopped proportional to each DAG's total work.
        let mut core_total = 0.0;
        for &k in order.iter() {
            if packed.core_of(k) == c {
                core_total += light_works[k];
            }
        }
        if core_total == 0.0 {
            continue;
        }
        let first = &dags[light[0]];
        let (r0, d0) = (first.release(), first.deadline());
        let span = d0 - r0;
        let mut cum = 0.0;
        let mut window_start = r0;
        for &k in order.iter() {
            if packed.core_of(k) != c {
                continue;
            }
            cum += light_works[k];
            let window_end = chop_boundary(r0, d0, span, cum, core_total);
            window_dag_into(
                &dags[light[k]],
                bases[light[k]],
                (window_start, window_end),
                1,
                shared_first + c,
                s_up,
                &mut arenas,
                &mut assignment,
                &mut layer_loads,
                &mut core_loads,
            )?;
            window_start = window_end;
        }
    }
    ws.recycle_usizes(bases);
    ws.recycle_usizes(assignment);
    ws.recycle_cycles(layer_loads);
    ws.recycle_cycles(core_loads);
    ws.recycle_usizes(light);
    ws.recycle_f64s(light_works);
    ws.recycle_usizes(order);
    ws.recycle_partition(packed);

    // Pass 4 — solve each busy core with the Auto router, re-map its
    // placements onto the physical core, price the per-core view, and
    // merge.
    let mut merged = ws.take_placements();
    let mut per_core = Vec::new();
    let mut all_tasks = ws.take_tasks();
    for (c, slot) in arenas.iter_mut().enumerate() {
        let arena = core::mem::take(slot);
        if arena.is_empty() {
            *slot = arena;
            continue;
        }
        let count = arena.len();
        let set = TaskSet::new_in(arena, ws).expect("derived DAG windows form a valid task set");
        let solved = solve_in(&set, platform, Scheme::Auto, ws)?;
        let mut sub = ws.take_placements();
        let mut placements = solved.into_schedule().into_placements();
        for p in placements.drain(..) {
            let task = p.task();
            sub.push(Placement::new(task, CoreId(c), p.into_segments()));
        }
        ws.recycle_placements(placements);
        let priced = Solution::from_schedule_in(Schedule::new(sub), platform, ws);
        per_core.push(DagCoreReport {
            core: CoreId(c),
            energy: priced.predicted_energy(),
            memory_sleep: priced.memory_sleep(),
            tasks: count,
        });
        let mut sub = priced.into_schedule().into_placements();
        merged.append(&mut sub);
        ws.recycle_placements(sub);
        all_tasks.extend_from_slice(set.tasks());
        ws.recycle_tasks(set.into_tasks());
    }
    ws.recycle_task_list(arenas);

    let solution = Solution::from_schedule_in(Schedule::new(merged), platform, ws);
    let cores_used = solution.schedule().cores_used();
    let tasks =
        TaskSet::new_in(all_tasks, ws).expect("global DAG task ids are unique by construction");
    Ok(DagReport {
        solution,
        tasks,
        per_core,
        assignments,
        cores_used,
        clusters,
    })
}

/// The lean [`Scheme::DagFederated`] path: every task of a common-window
/// set is treated as a singleton light DAG and the whole set is
/// LPT-packed onto `cores` chopped cores, each energy-minimized with
/// [`Scheme::Auto`].
///
/// On singleton DAG suites this reproduces [`solve_dags_in`] bit for bit
/// (same packing, same chop arithmetic, same per-core solves); with a
/// warm workspace the call is allocation-free. Zero-work tasks get empty
/// placements on their packed core.
///
/// # Errors
///
/// [`SdemError::NoCores`] on a zero budget,
/// [`SdemError::NotCommonRelease`] without a common window, and
/// [`SdemError::InfeasibleTask`] when a task misses the window even at
/// `s_up` (its chopped share only shrinks from there).
pub fn solve_federated_in(
    tasks: &TaskSet,
    platform: &Platform,
    cores: usize,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    if cores == 0 {
        return Err(SdemError::NoCores);
    }
    let cores = cores.min(tasks.len());
    let (r0, span) = common_window(tasks)?;
    let list = tasks.tasks();
    let end = list[0].deadline();
    let s_up = platform.core().max_speed();

    let mut works = ws.take_f64s();
    works.extend(list.iter().map(|t| t.work().value()));
    let mut order = ws.take_usizes();
    lpt_order_into(&works, &mut order);
    let mut packed = ws.take_partition();
    lpt_assign(&works, &order, cores, &mut packed);

    let mut merged = ws.take_placements();
    for c in 0..cores {
        let mut core_total = 0.0;
        for &i in order.iter() {
            if packed.core_of(i) == c {
                core_total += works[i];
            }
        }
        if core_total > 0.0 {
            let mut arena = ws.take_tasks();
            let mut cum = 0.0;
            let mut window_start = r0;
            for &i in order.iter() {
                if packed.core_of(i) != c || works[i] == 0.0 {
                    continue;
                }
                cum += works[i];
                let window_end = chop_boundary(r0, end, span, cum, core_total);
                let release = window_start.max(r0);
                if release >= window_end || list[i].work() / s_up > window_end - release {
                    sdem_obs::registry::incr(Counter::DagInfeasible);
                    return Err(SdemError::InfeasibleTask(list[i].id()));
                }
                arena.push(Task::new(
                    list[i].id().0,
                    release,
                    window_end,
                    list[i].work(),
                ));
                window_start = window_end;
            }
            let set = TaskSet::new_in(arena, ws).expect("chopped windows form a valid task set");
            let solved = solve_in(&set, platform, Scheme::Auto, ws)?;
            let mut placements = solved.into_schedule().into_placements();
            for p in placements.drain(..) {
                let task = p.task();
                merged.push(Placement::new(task, CoreId(c), p.into_segments()));
            }
            ws.recycle_placements(placements);
            ws.recycle_tasks(set.into_tasks());
        }
        // Zero-work tasks contribute no demand: an empty placement on
        // their packed core keeps the schedule's task coverage complete.
        for &i in order.iter() {
            if packed.core_of(i) == c && works[i] == 0.0 {
                merged.push(Placement::new(list[i].id(), CoreId(c), ws.take_segments()));
            }
        }
    }
    ws.recycle_f64s(works);
    ws.recycle_usizes(order);
    ws.recycle_partition(packed);
    Ok(Solution::from_schedule_in(
        Schedule::new(merged),
        platform,
        ws,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_types::Task;
    use sdem_workload::dag::{random, DagConfig, DagNode};

    fn ms(v: f64) -> Time {
        Time::from_millis(v)
    }

    fn platform() -> Platform {
        Platform::paper_defaults()
    }

    fn diamond(name: &str, deadline: Time) -> Dag {
        Dag::new(
            name,
            Time::ZERO,
            deadline,
            None,
            vec![
                DagNode::new(0, Cycles::new(1.0e6)),
                DagNode::new(1, Cycles::new(2.0e6)),
                DagNode::new(2, Cycles::new(3.0e6)),
                DagNode::new(3, Cycles::new(1.5e6)),
            ],
            vec![(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        .unwrap()
    }

    #[test]
    fn light_suite_solves_and_verifies() {
        let platform = platform();
        let dags = vec![diamond("a", ms(100.0)), diamond("b", ms(100.0))];
        let report = solve_dags(&dags, &platform, 3).unwrap();
        assert_eq!(report.clusters, 0);
        assert_eq!(report.assignments.len(), 2);
        assert!(report.cores_used >= 1);
        assert_eq!(report.tasks.len(), 8);
        report
            .verify_against_meter(&platform, OracleOptions::default())
            .unwrap();
    }

    #[test]
    fn heavy_dag_gets_a_dedicated_cluster() {
        let platform = platform();
        // Wide fan-out: W far above the window at s_up, L well below.
        let wide = Dag::new(
            "wide",
            Time::ZERO,
            ms(100.0),
            None,
            (0..8)
                .map(|id| DagNode::new(id, Cycles::new(8.0e7)))
                .collect::<Vec<_>>(),
            vec![],
        )
        .unwrap();
        let s_up = platform.core().max_speed();
        assert!(wide.is_heavy(s_up));
        let report = solve_dags(&[wide, diamond("d", ms(100.0))], &platform, 8).unwrap();
        assert_eq!(report.clusters, 1);
        assert!(matches!(
            report.assignments[0],
            DagAssignment::Dedicated { first_core: 0, .. }
        ));
        assert!(matches!(
            report.assignments[1],
            DagAssignment::Shared { .. }
        ));
        report
            .verify_against_meter(&platform, OracleOptions::default())
            .unwrap();
    }

    #[test]
    fn windows_respect_precedence_layers() {
        let platform = platform();
        let dag = diamond("p", ms(100.0));
        let report = solve_dags(std::slice::from_ref(&dag), &platform, 2).unwrap();
        // Every edge's source window ends no later than its target's
        // window starts.
        let window = |id: usize| {
            let t = report
                .tasks
                .tasks()
                .iter()
                .find(|t| t.id().0 == id)
                .unwrap();
            (t.release(), t.deadline())
        };
        for &(from, to) in dag.edges() {
            assert!(
                window(from).1 <= window(to).0,
                "edge ({from}, {to}) windows overlap"
            );
        }
        recycle_dag_report(report, &mut Workspace::new());
    }

    #[test]
    fn budget_and_feasibility_errors_are_typed() {
        let platform = platform();
        let dag = diamond("x", ms(100.0));
        assert_eq!(
            solve_dags(std::slice::from_ref(&dag), &platform, 0),
            Err(SdemError::NoCores)
        );
        assert!(matches!(
            solve_dags(&[], &platform, 2),
            Err(SdemError::UnsupportedModel(_))
        ));
        // A window no speed can meet: critical path alone overruns.
        let tight = diamond("t", Time::from_secs(1e-6));
        assert!(matches!(
            solve_dags(&[tight], &platform, 4),
            Err(SdemError::InfeasibleTask(_))
        ));
        // Mismatched light windows cannot share chopped cores.
        let other = diamond("o", ms(80.0));
        assert_eq!(
            solve_dags(&[diamond("a", ms(100.0)), other], &platform, 2),
            Err(SdemError::NotCommonRelease)
        );
    }

    #[test]
    fn lean_path_matches_general_pipeline_bitwise_on_singletons() {
        let platform = platform();
        // Singleton DAGs with ids equal to their index: the general
        // pipeline's global ids coincide with the task ids.
        let works = [6.0e6, 9.0e6, 2.5e6, 4.0e6, 7.5e6];
        let deadline = ms(90.0);
        let dags: Vec<Dag> = works
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                Dag::new(
                    format!("t{i}"),
                    Time::ZERO,
                    deadline,
                    None,
                    vec![DagNode::new(0, Cycles::new(w))],
                    vec![],
                )
                .unwrap()
            })
            .collect();
        let tasks = TaskSet::new(
            works
                .iter()
                .enumerate()
                .map(|(i, &w)| Task::new(i, Time::ZERO, deadline, Cycles::new(w)))
                .collect(),
        )
        .unwrap();
        for cores in 1..=4 {
            let report = solve_dags(&dags, &platform, cores).unwrap();
            let mut ws = Workspace::new();
            let lean = solve_federated_in(&tasks, &platform, cores, &mut ws).unwrap();
            assert_eq!(
                report.solution.predicted_energy().value().to_bits(),
                lean.predicted_energy().value().to_bits(),
                "cores = {cores}"
            );
            assert_eq!(
                report.solution.schedule(),
                lean.schedule(),
                "cores = {cores}"
            );
        }
    }

    #[test]
    fn generated_suites_verify_against_the_meter() {
        let platform = platform();
        let cfg = DagConfig::paper(9, ms(120.0));
        let dags: Vec<Dag> = (0..4).map(|s| random(&cfg, s)).collect();
        let report = solve_dags(&dags, &platform, 4).unwrap();
        report
            .verify_against_meter(&platform, OracleOptions::default())
            .unwrap();
        // Aggregate counts the shared memory once: never above the sum of
        // isolated per-core views.
        let summed: f64 = report.per_core.iter().map(|c| c.energy.value()).sum();
        assert!(report.solution.predicted_energy().value() <= summed + 1e-9);
    }

    #[test]
    fn scheme_entry_point_routes_to_the_lean_path() {
        let platform = platform();
        let tasks = TaskSet::new(vec![
            Task::new(0, Time::ZERO, ms(50.0), Cycles::new(6.0e6)),
            Task::new(1, Time::ZERO, ms(50.0), Cycles::new(4.0e6)),
            Task::new(2, Time::ZERO, ms(50.0), Cycles::ZERO),
        ])
        .unwrap();
        let sol = crate::solve(&tasks, &platform, Scheme::DagFederated(2)).unwrap();
        sol.verify_against_meter(&tasks, &platform, OracleOptions::default())
            .unwrap();
        // The zero-work task holds an (empty) placement.
        assert!(sol.schedule().placement(TaskId(2)).is_some());
        assert_eq!(
            crate::solve(&tasks, &platform, Scheme::DagFederated(0)),
            Err(SdemError::NoCores)
        );
        // Mixed windows are rejected up front.
        let mixed = TaskSet::new(vec![
            Task::new(0, Time::ZERO, ms(50.0), Cycles::new(1.0e6)),
            Task::new(1, Time::ZERO, ms(60.0), Cycles::new(1.0e6)),
        ])
        .unwrap();
        assert_eq!(
            crate::solve(&mixed, &platform, Scheme::DagFederated(2)),
            Err(SdemError::NotCommonRelease)
        );
    }
}
