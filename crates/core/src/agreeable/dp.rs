//! Dynamic programming over deadline-ordered blocks (§5.1.2 / §5.2.2).
//!
//! Lemma 4: some optimal solution never schedules an earlier-deadline task
//! in a later block, so blocks are *contiguous ranges* of the
//! deadline-sorted task list and
//!
//! ```text
//! OPT(T_q) = min_{p ≤ q} { OPT(T_p) + E_min(T_{p+1} … T_q) (+ α_m·ξ_m) }
//! ```
//!
//! The transition charge `α_m·ξ_m` prices the memory sleep/wake round trip
//! between consecutive blocks (§7's revised DP); it is applied per *gap*
//! (one less than the paper's per-block count — a constant offset that
//! cannot change the argmin; see the `sdem-sim` crate docs). With
//! `ξ_m = 0` (the §5 assumption) the recurrence is exactly the paper's.
//!
//! The table of ranges is filled lazily: a range `[p, q)` is solved only
//! when `OPT(T_p)` plus a lower bound on its block energy (see
//! [`Terms::lower_bounds_into`]) can still beat the best candidate found
//! for `q`. The bound never exceeds the block energy, so the recurrence's
//! minimum and its first argmin — and every output bit — are those of the
//! exhaustive table; on chopped DAG cores about four ranges in five are
//! never solved.

use sdem_power::Platform;
use sdem_types::{CoreId, Joules, Placement, Schedule, Segment, Speed, TaskSet, Time, Workspace};

use super::block::{BlockSolution, Terms};
use super::{algorithm1, lemma3, prepare_in, BlockTask, PowerParams};
use crate::{SdemError, Solution};

/// Which block solver backs the DP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockSolverKind {
    /// The jointly-convex best-response minimization (production default).
    #[default]
    BestResponse,
    /// The paper's `(i, j)`-cell decomposition with the five-step iterative
    /// scheme of Algorithm 1 (§5.2.1). Slower; kept for fidelity and as an
    /// ablation baseline.
    PaperIterative,
    /// The §5.1.1 closed forms (Lemma 3, first-order conditions by
    /// bisection). Only valid for the `α = 0` model.
    PaperClosedForm,
}

/// The agreeable-deadline optimal scheme (generic over `α`): DP over blocks
/// with the default block solver.
///
/// With `platform.core().alpha() == 0` the block objective reduces exactly
/// to Eq. 12–14 of the paper (§5.1); with core sleeping (`α ≠ 0`, §5.2) it
/// is the best-response envelope whose flat region corresponds to the
/// paper's *Type-I* tasks running at the critical speed `s₀`.
///
/// The block terms, the flat `(s, e, energy)` range table, the DP scratch
/// and the returned schedule's arenas all come from `ws`, so a warmed
/// workspace solves a set stored in release order without allocating. Any
/// other storage order costs one sorted copy in [`TaskSet::is_agreeable`].
///
/// # Errors
///
/// [`SdemError::NotAgreeable`] for non-agreeable task sets,
/// [`SdemError::InfeasibleTask`] when a task exceeds `s_up`.
///
/// # Examples
///
/// ```
/// use sdem_core::agreeable::schedule_in;
/// use sdem_power::Platform;
/// use sdem_types::{Task, TaskSet, Time, Cycles, Workspace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::paper_defaults();
/// let tasks = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_millis(30.0), Cycles::new(6.0e6)),
///     Task::new(1, Time::from_millis(50.0), Time::from_millis(110.0), Cycles::new(9.0e6)),
/// ])?;
/// let sol = schedule_in(&tasks, &platform, &mut Workspace::new())?;
/// sol.schedule().validate(&tasks)?;
/// # Ok(())
/// # }
/// ```
pub fn schedule_in(
    tasks: &TaskSet,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    schedule_impl(tasks, platform, BlockSolverKind::BestResponse, false, ws)
}

/// The agreeable DP with an explicit block-solver choice.
///
/// # Errors
///
/// Same as [`schedule_in`].
pub fn schedule_with_solver(
    tasks: &TaskSet,
    platform: &Platform,
    solver: BlockSolverKind,
) -> Result<Solution, SdemError> {
    schedule_impl(tasks, platform, solver, false, &mut Workspace::new())
}

/// In-place [`schedule_with_solver`].
///
/// # Errors
///
/// Same as [`schedule_in`].
pub fn schedule_with_solver_in(
    tasks: &TaskSet,
    platform: &Platform,
    solver: BlockSolverKind,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    schedule_impl(tasks, platform, solver, false, ws)
}

/// The agreeable DP with a *strictness repair*: if the (paper-faithful)
/// recurrence ever selects consecutive blocks whose busy intervals
/// overlap in time — the published DP does not forbid this, see DESIGN.md
/// deviation 3 — the offending neighbours are merged into one block and
/// the energy recomputed, until all blocks are disjoint and ordered. The
/// result is never reported cheaper than it simulates.
///
/// On instances where the paper's DP already yields disjoint blocks (all
/// we have ever observed for optimal solutions), this is identical to
/// [`schedule_in`].
///
/// # Errors
///
/// Same as [`schedule_in`].
pub fn schedule_strict_in(
    tasks: &TaskSet,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    schedule_impl(tasks, platform, BlockSolverKind::BestResponse, true, ws)
}

/// The DP's state: the sorted tasks' memoized block terms and the table
/// of block ranges `[p, q)` solved so far.
struct Dp {
    solver: BlockSolverKind,
    pw: PowerParams,
    terms: Terms,
    /// The paper solvers' task slices (empty for the production solver,
    /// which reads `terms`).
    bts: Vec<BlockTask>,
    /// Row stride of the flat range tables: index `p·(n+1) + q`.
    stride: usize,
    /// `(s, e)` and energy of each solved range.
    interval: Vec<(f64, f64)>,
    energy: Vec<f64>,
    solved: Vec<bool>,
}

impl Dp {
    /// Block `[p, q)` as `(s, e, energy)`, solved on first use.
    fn block(&mut self, p: usize, q: usize) -> (f64, f64, f64) {
        let at = p * self.stride + q;
        if !self.solved[at] {
            let (s, e, energy) = match self.solver {
                BlockSolverKind::BestResponse => self.terms.solve(p, q),
                _ => {
                    let b = self.paper_block(p, q);
                    (b.s, b.e, b.energy)
                }
            };
            self.interval[at] = (s, e);
            self.energy[at] = energy;
            self.solved[at] = true;
        }
        let (s, e) = self.interval[at];
        (s, e, self.energy[at])
    }

    /// The paper solvers' full solution of block `[p, q)`, runs included.
    fn paper_block(&self, p: usize, q: usize) -> BlockSolution {
        match self.solver {
            BlockSolverKind::PaperIterative => algorithm1::solve(&self.bts[p..q], &self.pw),
            _ => lemma3::solve_block(&self.bts[p..q], &self.pw),
        }
    }
}

fn schedule_impl(
    tasks: &TaskSet,
    platform: &Platform,
    solver: BlockSolverKind,
    strict: bool,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    if solver == BlockSolverKind::PaperClosedForm && !platform.core().is_alpha_zero() {
        return Err(SdemError::UnsupportedModel(
            "the Lemma-3 closed-form block solver requires α = 0",
        ));
    }
    let sorted = prepare_in(tasks, platform, ws)?;
    let pw = PowerParams::of(platform);
    let n = sorted.len();
    let mut terms = Terms::take(pw, ws);
    for t in sorted.iter() {
        terms.push(
            t.release().as_secs(),
            t.deadline().as_secs(),
            t.work().value(),
        );
    }
    let bts: Vec<BlockTask> = if solver == BlockSolverKind::BestResponse {
        Vec::new()
    } else {
        sorted
            .iter()
            .enumerate()
            .map(|(index, t)| BlockTask {
                index,
                r: t.release().as_secs(),
                d: t.deadline().as_secs(),
                w: t.work().value(),
            })
            .collect()
    };
    let cells = n * (n + 1);
    let mut interval = ws.take_pairs();
    interval.resize(cells, (0.0, 0.0));
    let mut energy = ws.take_f64s();
    energy.resize(cells, 0.0);
    let mut solved = ws.take_bools();
    solved.resize(cells, false);
    let mut dp = Dp {
        solver,
        pw,
        terms,
        bts,
        stride: n + 1,
        interval,
        energy,
        solved,
    };

    // DP over prefixes. A memory round trip is charged per inter-block gap.
    //
    // A range is solved only while it can still win. The block that was
    // last at `q − 1`, extended by task `q − 1`, is solved first: its
    // candidate `upper` bounds `opt[q]` from above. The ascending scan
    // then skips `[p, q)` when `opt[p] + LB(p, q) + transition` reaches
    // the running minimum (the strict `<` could not take it) or exceeds
    // `upper` (it cannot be the minimum). `LB` never exceeds the block
    // energy and rounding is monotone, so a skipped candidate is at least
    // that floor: `opt` and the first argmin — every output bit — are
    // those of the exhaustive table.
    let transition = platform.memory().transition_energy().value();
    let mut opt = ws.take_f64s();
    opt.resize(n + 1, f64::INFINITY);
    let mut cut_from = ws.take_usizes();
    cut_from.resize(n + 1, 0);
    let mut bound = ws.take_f64s();
    opt[0] = 0.0;
    for q in 1..=n {
        dp.terms.lower_bounds_into(q, &mut bound);
        let hint = cut_from[q - 1];
        let hint_trans = if hint == 0 { 0.0 } else { transition };
        let upper = opt[hint] + dp.block(hint, q).2 + hint_trans;
        for p in 0..q {
            let trans = if p == 0 { 0.0 } else { transition };
            let cand = if p == hint {
                upper
            } else {
                let floor = opt[p] + bound[p] + trans;
                if floor >= opt[q] || floor > upper {
                    continue;
                }
                opt[p] + dp.block(p, q).2 + trans
            };
            if cand < opt[q] {
                opt[q] = cand;
                cut_from[q] = p;
            }
        }
    }

    // Reconstruct the partition.
    let mut cuts = ws.take_usizes();
    cuts.push(n);
    while *cuts.last().expect("non-empty") > 0 {
        let q = *cuts.last().expect("non-empty");
        cuts.push(cut_from[q]);
    }
    cuts.reverse();

    // Strictness repair: merge any consecutive blocks whose busy intervals
    // overlap, then recompute the total energy from the merged-block
    // solutions (solved here if the DP skipped them).
    let mut total_energy = opt[n];
    if strict {
        loop {
            let mut merged_any = false;
            let mut i = 0;
            while i + 2 < cuts.len() {
                let (_, a_e, _) = dp.block(cuts[i], cuts[i + 1]);
                let (b_s, _, _) = dp.block(cuts[i + 1], cuts[i + 2]);
                if b_s < a_e - 1e-12 * a_e.abs().max(1.0) {
                    cuts.remove(i + 1);
                    merged_any = true;
                } else {
                    i += 1;
                }
            }
            if !merged_any {
                break;
            }
        }
        total_energy = cuts
            .windows(2)
            .map(|pq| dp.block(pq[0], pq[1]).2)
            .sum::<f64>()
            + transition * (cuts.len().saturating_sub(2)) as f64;
    }

    // Assemble the schedule: one core per task (unbounded model). Runs
    // are rebuilt for the kept blocks only.
    let mut placements: Vec<Placement> = ws.take_placements();
    let mut sleep_time = 0.0f64;
    let mut prev_end: Option<f64> = None;
    for pq in cuts.windows(2) {
        let (p, q) = (pq[0], pq[1]);
        let (s, e, _) = dp.block(p, q);
        // A block of zero-work tasks keeps the memory busy for no time: its
        // interval (collapsed onto a deadline) may sit anywhere, even
        // inside a neighbour's, so it neither ends nor starts a sleep gap.
        if (p..q).any(|k| sorted[k].work().value() > 0.0) {
            if let Some(pe) = prev_end {
                // The DP assumes disjoint, ordered blocks; overlap would
                // mean the partition was suboptimal (see DESIGN.md §4,
                // deviation 3).
                debug_assert!(
                    s >= pe - 1e-9,
                    "blocks overlap: previous ends {pe}, next starts {s}"
                );
                sleep_time += (s - pe).max(0.0);
            }
            prev_end = Some(e.max(prev_end.unwrap_or(f64::NEG_INFINITY)));
        }
        let paper = (solver != BlockSolverKind::BestResponse).then(|| dp.paper_block(p, q));
        for (k, task) in sorted.iter().enumerate().take(q).skip(p) {
            let (start, len) = match &paper {
                Some(b) => b.runs[k - p],
                None => dp.terms.run(k, s, e),
            };
            let w = task.work().value();
            let mut segments = ws.take_segments();
            if w > 0.0 && len > 0.0 {
                segments.push(Segment::new(
                    Time::from_secs(start),
                    Time::from_secs(start + len),
                    Speed::from_hz(w / len),
                ));
            }
            placements.push(Placement::new(task.id(), CoreId(k), segments));
        }
    }

    let Dp {
        terms,
        interval,
        energy,
        solved,
        ..
    } = dp;
    terms.recycle(ws);
    ws.recycle_pairs(interval);
    ws.recycle_f64s(energy);
    ws.recycle_bools(solved);
    ws.recycle_f64s(bound);
    ws.recycle_f64s(opt);
    ws.recycle_usizes(cut_from);
    ws.recycle_usizes(cuts);
    ws.recycle_tasks(sorted);
    Ok(Solution::new(
        Schedule::new(placements),
        Joules::new(total_energy),
        Time::from_secs(sleep_time),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agreeable::block;
    use sdem_power::{CorePower, MemoryPower};
    use sdem_sim::{simulate, SleepPolicy};
    use sdem_types::{Cycles, Task, Watts};

    fn sec(v: f64) -> Time {
        Time::from_secs(v)
    }

    fn platform(alpha: f64, alpha_m: f64) -> Platform {
        Platform::new(
            CorePower::simple(alpha, 1.0, 3.0),
            MemoryPower::new(Watts::new(alpha_m)),
        )
    }

    fn tset(specs: &[(f64, f64, f64)]) -> TaskSet {
        TaskSet::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(r, d, w))| Task::new(i, sec(r), sec(d), Cycles::new(w)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn far_apart_tasks_split_into_blocks() {
        let p = platform(0.0, 4.0);
        let tasks = tset(&[(0.0, 2.0, 1.0), (50.0, 52.0, 1.0)]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        sol.schedule().validate(&tasks).unwrap();
        // Two separate busy blocks with a long sleep between them.
        assert_eq!(sol.schedule().memory_busy_intervals().len(), 2);
        assert!(sol.memory_sleep().as_secs() > 40.0);
    }

    #[test]
    fn overlapping_windows_merge_into_one_block() {
        let p = platform(0.0, 4.0);
        let tasks = tset(&[(0.0, 6.0, 2.0), (1.0, 8.0, 2.0), (2.0, 9.0, 2.0)]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        sol.schedule().validate(&tasks).unwrap();
        assert_eq!(sol.schedule().memory_busy_intervals().len(), 1);
    }

    #[test]
    fn predicted_energy_close_to_simulation_alpha_zero() {
        let p = platform(0.0, 3.0);
        let tasks = tset(&[(0.0, 5.0, 2.0), (1.0, 7.0, 1.5), (10.0, 18.0, 3.0)]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let report = simulate(sol.schedule(), &tasks, &p, SleepPolicy::WhenProfitable).unwrap();
        let predicted = sol.predicted_energy().value();
        // Simulation may only be cheaper (coverage holes inside a block).
        assert!(
            report.total().value() <= predicted * (1.0 + 1e-9),
            "sim {} vs predicted {predicted}",
            report.total()
        );
        assert!(
            report.total().value() >= predicted * 0.95,
            "sim {} unexpectedly far below predicted {predicted}",
            report.total()
        );
    }

    #[test]
    fn predicted_energy_close_to_simulation_alpha_nonzero() {
        let p = platform(4.0, 6.0);
        let tasks = tset(&[(0.0, 5.0, 2.0), (1.0, 7.0, 1.5), (20.0, 32.0, 3.0)]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let report = simulate(sol.schedule(), &tasks, &p, SleepPolicy::WhenProfitable).unwrap();
        let predicted = sol.predicted_energy().value();
        assert!(
            report.total().value() <= predicted * (1.0 + 1e-9),
            "sim {} vs predicted {predicted}",
            report.total()
        );
    }

    #[test]
    fn closed_form_solver_matches_on_alpha_zero_dp() {
        let p = platform(0.0, 4.0);
        let tasks = tset(&[(0.0, 5.0, 2.0), (1.0, 7.0, 1.5), (10.0, 18.0, 3.0)]);
        let a = schedule_with_solver(&tasks, &p, BlockSolverKind::BestResponse).unwrap();
        let c = schedule_with_solver(&tasks, &p, BlockSolverKind::PaperClosedForm).unwrap();
        c.schedule().validate(&tasks).unwrap();
        let (ea, ec) = (a.predicted_energy().value(), c.predicted_energy().value());
        assert!((ea - ec).abs() <= 1e-5 * ea.max(1.0), "{ea} vs {ec}");
        // And it refuses α ≠ 0.
        let p4 = platform(4.0, 4.0);
        assert!(matches!(
            schedule_with_solver(&tasks, &p4, BlockSolverKind::PaperClosedForm),
            Err(SdemError::UnsupportedModel(_))
        ));
    }

    #[test]
    fn both_solvers_agree_on_dp_optimum() {
        let p = platform(4.0, 6.0);
        let tasks = tset(&[
            (0.0, 5.0, 2.0),
            (1.0, 7.0, 1.5),
            (3.0, 11.0, 2.5),
            (20.0, 32.0, 3.0),
        ]);
        let a = schedule_with_solver(&tasks, &p, BlockSolverKind::BestResponse).unwrap();
        let b = schedule_with_solver(&tasks, &p, BlockSolverKind::PaperIterative).unwrap();
        let (ea, eb) = (a.predicted_energy().value(), b.predicted_energy().value());
        assert!(
            (ea - eb).abs() <= 1e-5 * ea.max(1.0),
            "solver disagreement: {ea} vs {eb}"
        );
    }

    #[test]
    fn dp_beats_single_block_and_all_singletons() {
        let p = platform(0.0, 4.0);
        let tasks = tset(&[(0.0, 4.0, 2.0), (6.0, 14.0, 3.0), (7.0, 16.0, 1.0)]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let pw = PowerParams::of(&p);
        let bts: Vec<BlockTask> = tasks
            .sorted_by_deadline()
            .iter()
            .enumerate()
            .map(|(index, t)| BlockTask {
                index,
                r: t.release().as_secs(),
                d: t.deadline().as_secs(),
                w: t.work().value(),
            })
            .collect();
        let single = block::solve(&bts, &pw).energy;
        let singletons: f64 = bts.iter().map(|t| block::solve(&[*t], &pw).energy).sum();
        let e = sol.predicted_energy().value();
        assert!(
            e <= single * (1.0 + 1e-9),
            "DP {e} worse than one block {single}"
        );
        assert!(
            e <= singletons * (1.0 + 1e-9),
            "DP {e} worse than singleton split {singletons}"
        );
    }

    #[test]
    fn dp_matches_brute_force_partitions_small_n() {
        let p = platform(4.0, 5.0);
        let tasks = tset(&[
            (0.0, 4.0, 1.5),
            (2.0, 9.0, 2.0),
            (8.0, 15.0, 1.0),
            (9.0, 20.0, 2.5),
        ]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let pw = PowerParams::of(&p);
        let bts: Vec<BlockTask> = tasks
            .sorted_by_deadline()
            .iter()
            .enumerate()
            .map(|(index, t)| BlockTask {
                index,
                r: t.release().as_secs(),
                d: t.deadline().as_secs(),
                w: t.work().value(),
            })
            .collect();
        // Enumerate all 2^{n−1} contiguous partitions.
        let n = bts.len();
        let mut best = f64::INFINITY;
        for mask in 0..(1u32 << (n - 1)) {
            let mut cuts = vec![0usize];
            for b in 0..n - 1 {
                if mask & (1 << b) != 0 {
                    cuts.push(b + 1);
                }
            }
            cuts.push(n);
            let mut total = 0.0;
            for w in cuts.windows(2) {
                total += block::solve(&bts[w[0]..w[1]], &pw).energy;
            }
            best = best.min(total);
        }
        let e = sol.predicted_energy().value();
        assert!(
            (e - best).abs() <= 1e-6 * best.max(1.0),
            "DP {e} vs brute-force partitions {best}"
        );
    }

    #[test]
    fn strict_matches_plain_dp_when_blocks_are_disjoint() {
        let p = platform(4.0, 6.0);
        let tasks = tset(&[(0.0, 5.0, 2.0), (1.0, 7.0, 1.5), (20.0, 32.0, 3.0)]);
        let plain = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let strict = schedule_strict_in(&tasks, &p, &mut Workspace::new()).unwrap();
        assert!(
            (plain.predicted_energy().value() - strict.predicted_energy().value()).abs()
                <= 1e-9 * plain.predicted_energy().value(),
            "strict {} vs plain {}",
            strict.predicted_energy().value(),
            plain.predicted_energy().value()
        );
        strict.schedule().validate(&tasks).unwrap();
    }

    #[test]
    fn strict_never_reports_cheaper_than_simulation() {
        let p = platform(2.0, 5.0);
        for seed_shift in 0..6 {
            let specs: Vec<(f64, f64, f64)> = (0..5)
                .map(|i| {
                    let f = (i + seed_shift) as f64;
                    (
                        f * 1.7,
                        f * 1.7 + 3.0 + (f * 0.9) % 2.0,
                        1.0 + (f * 1.3) % 2.5,
                    )
                })
                .collect();
            let tasks = tset(&specs);
            let strict = schedule_strict_in(&tasks, &p, &mut Workspace::new()).unwrap();
            let sim = simulate(strict.schedule(), &tasks, &p, SleepPolicy::WhenProfitable)
                .unwrap()
                .total()
                .value();
            assert!(
                sim <= strict.predicted_energy().value() * (1.0 + 1e-9),
                "strict under-reports: sim {sim} vs predicted {}",
                strict.predicted_energy().value()
            );
        }
    }

    /// Paper-magnitude platforms: the paper's, `α = 0`, and one whose
    /// memory dominates (so the bound's busy-gap term matters).
    fn seeded_platforms() -> [Platform; 3] {
        use sdem_power::PlatformBuilder;
        [
            Platform::paper_defaults(),
            PlatformBuilder::new()
                .alpha_mw(0.0)
                .memory_break_even(Time::ZERO)
                .build()
                .unwrap(),
            PlatformBuilder::new()
                .alpha_mw(2000.0)
                .memory_alpha_w(40.0)
                .build()
                .unwrap(),
        ]
    }

    #[test]
    fn range_lower_bound_never_exceeds_any_block_solver() {
        use sdem_prng::{ChaCha8Rng, SeedableRng};

        let platforms = seeded_platforms();
        let mut rng = ChaCha8Rng::seed_from_u64(0x10_B0_0D);
        let (mut ranges, mut bound) = (0usize, Vec::new());
        for case in 0..300 {
            let platform = &platforms[case % platforms.len()];
            let pw = PowerParams::of(platform);
            let n = 1 + case % 5;
            let bts = block::seeded_tasks(&mut rng, n);
            let mut terms = Terms::of(&bts, &pw);
            for q in 1..=n {
                terms.lower_bounds_into(q, &mut bound);
                for p in 0..q {
                    let mut energies = vec![
                        terms.solve(p, q).2,
                        algorithm1::solve(&bts[p..q], &pw).energy,
                    ];
                    if platform.core().is_alpha_zero() {
                        energies.push(lemma3::solve_block(&bts[p..q], &pw).energy);
                    }
                    for energy in energies {
                        assert!(
                            bound[p] <= energy,
                            "case {case} [{p}, {q}): bound {} > block energy {energy}",
                            bound[p]
                        );
                    }
                    ranges += 1;
                }
            }
        }
        assert!(ranges >= 900, "{ranges} ranges");
    }

    #[test]
    fn pruned_dp_equals_the_exhaustive_table_bit_for_bit() {
        use sdem_prng::{ChaCha8Rng, SeedableRng};

        let platforms = seeded_platforms();
        let mut rng = ChaCha8Rng::seed_from_u64(0xD9_7AB1E);
        for case in 0..300 {
            let platform = &platforms[case % platforms.len()];
            let pw = PowerParams::of(platform);
            let bts = block::seeded_tasks(&mut rng, 1 + case % 9);
            let n = bts.len();
            let tasks = TaskSet::new(
                bts.iter()
                    .map(|t| Task::new(t.index, sec(t.r), sec(t.d), Cycles::new(t.w)))
                    .collect(),
            )
            .unwrap();

            // The recurrence over every range, ascending p, strict `<`.
            let transition = platform.memory().transition_energy().value();
            let blocks: Vec<Vec<BlockSolution>> = (0..n)
                .map(|p| (p + 1..=n).map(|q| block::solve(&bts[p..q], &pw)).collect())
                .collect();
            let mut opt = vec![f64::INFINITY; n + 1];
            let mut cut_from = vec![0; n + 1];
            opt[0] = 0.0;
            for q in 1..=n {
                for p in 0..q {
                    let trans = if p == 0 { 0.0 } else { transition };
                    let cand = opt[p] + blocks[p][q - p - 1].energy + trans;
                    if cand < opt[q] {
                        opt[q] = cand;
                        cut_from[q] = p;
                    }
                }
            }
            let mut cuts = vec![n];
            while let Some(&q) = cuts.last().filter(|&&q| q > 0) {
                cuts.push(cut_from[q]);
            }
            cuts.reverse();
            // The memory sleeps between consecutive blocks that carry work.
            let mut sleep = 0.0f64;
            let mut prev_end: Option<f64> = None;
            for pq in cuts.windows(2) {
                if bts[pq[0]..pq[1]].iter().all(|t| t.w == 0.0) {
                    continue;
                }
                let blk = &blocks[pq[0]][pq[1] - pq[0] - 1];
                if let Some(pe) = prev_end {
                    sleep += (blk.s - pe).max(0.0);
                }
                prev_end = Some(blk.e.max(prev_end.unwrap_or(f64::NEG_INFINITY)));
            }

            let sol = schedule_in(&tasks, platform, &mut Workspace::new()).unwrap();
            assert_eq!(
                sol.predicted_energy().value().to_bits(),
                opt[n].to_bits(),
                "case {case}: energy"
            );
            assert_eq!(
                sol.memory_sleep().as_secs().to_bits(),
                sleep.to_bits(),
                "case {case}: memory sleep"
            );
        }
    }

    #[test]
    fn zero_work_blocks_leave_memory_sleep_alone() {
        // One task carries work. With ξ_m = 0 a separate block is free, so
        // zero-work task 0 forms a block of its own, collapsed onto its
        // 4 ms deadline some 34 ms before the working block starts. The
        // memory is busy once and never sleeps.
        let p = sdem_power::PlatformBuilder::new()
            .memory_break_even(Time::ZERO)
            .build()
            .unwrap();
        let ms = Time::from_millis;
        let tasks = TaskSet::new(vec![
            Task::new(0, ms(0.0), ms(4.0), Cycles::new(0.0)),
            Task::new(1, ms(0.0), ms(40.0), Cycles::new(3.6e6)),
            Task::new(2, ms(12.0), ms(50.0), Cycles::new(0.0)),
        ])
        .unwrap();
        let mut ws = Workspace::new();
        for sol in [
            schedule_in(&tasks, &p, &mut ws).unwrap(),
            schedule_strict_in(&tasks, &p, &mut ws).unwrap(),
        ] {
            sol.schedule().validate(&tasks).unwrap();
            assert_eq!(sol.schedule().memory_busy_intervals().len(), 1);
            assert_eq!(sol.memory_sleep(), Time::ZERO);
        }
    }

    #[test]
    fn memory_sleep_never_exceeds_the_simulated_gaps() {
        // Every block that carries work holds a run, so the gaps between
        // such blocks are gaps of the schedule too; the simulator, sleeping
        // every gap, may only find more (coverage holes inside a block).
        use sdem_prng::{ChaCha8Rng, SeedableRng};

        let platforms = seeded_platforms();
        let mut rng = ChaCha8Rng::seed_from_u64(0x51_EE9);
        let mut ws = Workspace::new();
        for case in 0..300 {
            let platform = &platforms[case % platforms.len()];
            let bts = block::seeded_tasks(&mut rng, 1 + case % 9);
            let tasks = TaskSet::new(
                bts.iter()
                    .map(|t| Task::new(t.index, sec(t.r), sec(t.d), Cycles::new(t.w)))
                    .collect(),
            )
            .unwrap();
            for sol in [
                schedule_in(&tasks, platform, &mut ws).unwrap(),
                schedule_strict_in(&tasks, platform, &mut ws).unwrap(),
            ] {
                let simulated =
                    simulate(sol.schedule(), &tasks, platform, SleepPolicy::AlwaysSleep)
                        .unwrap()
                        .memory_sleep_time
                        .as_secs();
                let reported = sol.memory_sleep().as_secs();
                assert!(
                    reported <= simulated + 1e-12,
                    "case {case}: reported sleep {reported} > simulated gaps {simulated}"
                );
            }
        }
    }

    #[test]
    fn borderline_feasible_tasks_are_rejected_or_solved_finitely() {
        // A task filling [0, 10 ms] at s_up·(1 + δ): admission and the
        // block objective share one tolerance, so the task is either
        // rejected or priced finitely — never admitted at +∞.
        let p = Platform::paper_defaults();
        let s_up = p.core().max_speed().as_hz();
        for delta in [0.0, 1e-13, 1e-11, 1e-10, 5e-10] {
            let tasks = TaskSet::new(vec![
                Task::new(
                    0,
                    Time::ZERO,
                    Time::from_millis(10.0),
                    Cycles::new(s_up * 0.010 * (1.0 + delta)),
                ),
                Task::new(
                    1,
                    Time::from_millis(5.0),
                    Time::from_millis(60.0),
                    Cycles::new(2.0e6),
                ),
            ])
            .unwrap();
            for scheme in [
                crate::Scheme::Auto,
                crate::Scheme::Agreeable,
                crate::Scheme::AgreeableStrict,
                crate::Scheme::AgreeableOverhead,
            ] {
                match crate::solve(&tasks, &p, scheme) {
                    Err(SdemError::InfeasibleTask(id)) => {
                        assert!(delta >= 1e-11, "δ = {delta:e} {scheme:?}: rejected");
                        assert_eq!(id, sdem_types::TaskId(0));
                    }
                    Ok(sol) => {
                        assert!(delta < 1e-11, "δ = {delta:e} {scheme:?}: admitted");
                        let energy = sol.predicted_energy().value();
                        assert!(energy.is_finite(), "δ = {delta:e} {scheme:?}: {energy}");
                        sol.schedule().validate(&tasks).unwrap();
                        sol.verify_against_meter(&tasks, &p, crate::OracleOptions::default())
                            .unwrap();
                    }
                    Err(e) => panic!("δ = {delta:e} {scheme:?}: unexpected {e:?}"),
                }
            }
        }
    }

    #[test]
    fn rejects_non_agreeable() {
        let p = platform(0.0, 1.0);
        let tasks = tset(&[(0.0, 100.0, 1.0), (10.0, 50.0, 1.0)]);
        assert_eq!(
            schedule_in(&tasks, &p, &mut Workspace::new()),
            Err(SdemError::NotAgreeable)
        );
    }

    #[test]
    fn common_release_is_a_special_case() {
        // Agreeable DP on a common-release set must match the §4 scheme.
        let p = platform(0.0, 4.0);
        let tasks = tset(&[(0.0, 3.0, 2.0), (0.0, 5.0, 1.0), (0.0, 9.0, 4.0)]);
        let dp = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let cr = crate::common_release::schedule_alpha_zero_in(&tasks, &p, &mut Workspace::new())
            .unwrap();
        let (ea, eb) = (dp.predicted_energy().value(), cr.predicted_energy().value());
        assert!(
            (ea - eb).abs() <= 1e-6 * eb.max(1.0),
            "agreeable {ea} vs common-release {eb}"
        );
    }

    #[test]
    fn transition_overhead_discourages_splitting() {
        // Two tasks with a small gap: with a huge ξ_m the DP should prefer
        // one merged block over two blocks + round trip.
        let mem = MemoryPower::new(Watts::new(4.0)).with_break_even(sec(100.0));
        let p = Platform::new(CorePower::simple(0.0, 1.0, 3.0), mem);
        let tasks = tset(&[(0.0, 3.0, 1.0), (4.0, 8.0, 1.0)]);
        let sol = schedule_in(&tasks, &p, &mut Workspace::new()).unwrap();
        // A merged block means the DP planned no inter-block sleep at all
        // (the hole between the two windows stays inside one busy interval).
        assert!(
            sol.memory_sleep().as_secs().abs() < 1e-9,
            "expected merged block under huge transition overhead, sleep = {}",
            sol.memory_sleep()
        );

        // With ξ_m = 0 the same instance must split.
        let p0 = Platform::new(
            CorePower::simple(0.0, 1.0, 3.0),
            MemoryPower::new(Watts::new(4.0)),
        );
        let sol0 = schedule_in(&tasks, &p0, &mut Workspace::new()).unwrap();
        assert!(sol0.memory_sleep().as_secs() > 0.0, "expected split blocks");
    }
}
