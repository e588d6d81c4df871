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
//! Both tables are filled lazily, from `q = n` down ([`Dp::price`]):
//!
//! * **Prefix floors.** Every block costs at least its tasks' terms on
//!   their full windows, so `floor[p] = (Σ_{k<p} E*_k(d_k − r_k))·(1 −
//!   1e-9) ≤ OPT(T_p)` ([`Terms::prefix_floors_into`]), known before any
//!   prefix is priced.
//! * **Single-block certificate.** When every split `p ≥ 1` has
//!   `floor[p] + LB(p, q) + α_m·ξ_m` at or above block `[0, q)`'s energy,
//!   no split can beat that block and it is `OPT(T_q)`. The block is
//!   solved only when those floors already reach `LB(0, q)`.
//! * **Otherwise** the bottom-up recurrence runs at `q`: the hint (the
//!   block last at `q − 1`, extended) first, then the ascending scan,
//!   which solves `[p, q)` only while `OPT(T_p)` plus the range's lower
//!   bound ([`Terms::push_lower_bounds`]) can still beat the best
//!   candidate. `OPT(T_p)` is priced first, the prefix waiting on a
//!   stack of open prefixes, only for a candidate its prefix floor did
//!   not already prune.
//!
//! No floor exceeds its candidate, so the minimum and its first argmin at
//! every priced prefix — and every output bit — are the exhaustive
//! table's; each priced prefix solves a subset of the ranges the
//! bottom-up loop solves there. A 2–4-task serve request whose optimum is
//! one block costs one block solve instead of one per prefix, and a
//! `dag-federated` request about half the solves.

use sdem_power::Platform;
use sdem_types::{
    CoreId, Joules, Placement, Schedule, Segment, Speed, Task, TaskSet, Time, Workspace,
};

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
/// The DP prices prefixes from the whole set down and solves a block only
/// when the answer needs it (see the module docs): a set whose optimum is
/// one block, certified by the prefix floors, costs a single block solve.
/// Its energy, memory sleep and placements are those of the exhaustive
/// bottom-up table, bit for bit.
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

/// The DP's state: the sorted tasks' memoized block terms, the table of
/// block ranges `[p, q)` solved so far and the prefixes priced so far.
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
    /// The memory round trip `α_m·ξ_m`, charged per inter-block gap.
    transition: f64,
    /// `OPT(T_q)` and its first argmin `p` (the last block starts at
    /// task `p`) for each prefix whose `done` flag is set; the running
    /// minimum and argmin for an open one.
    opt: Vec<f64>,
    cut_from: Vec<usize>,
    done: Vec<bool>,
    /// `floor[p] ≤ OPT(T_p)` ([`Terms::prefix_floors_into`]).
    floor: Vec<f64>,
    /// The prefixes being priced, deepest last, and for each the next
    /// candidate its scan tries.
    open: Vec<usize>,
    next: Vec<usize>,
    /// `LB(p, q)` for each open prefix `q`, stacked in `open`'s order:
    /// the deepest one's `q` bounds are the last `q` entries.
    bounds: Vec<f64>,
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

    /// The memory round trip owed by a last block starting at task `p`.
    fn trans(&self, p: usize) -> f64 {
        if p == 0 {
            0.0
        } else {
            self.transition
        }
    }

    /// The recurrence's candidate for `OPT(T_q)` whose last block is
    /// `[p, q)`; `OPT(T_p)` must be priced.
    fn candidate(&mut self, p: usize, q: usize) -> f64 {
        debug_assert!(self.done[p], "prefix {p} not priced");
        self.opt[p] + self.block(p, q).2 + self.trans(p)
    }

    /// The floor of [`Dp::candidate`] from the prefix floor, with the
    /// open prefix's bounds at `bounds[base..]`: no `OPT(T_p)` needed.
    fn prefix_floor(&self, base: usize, p: usize) -> f64 {
        self.floor[p] + self.bounds[base + p] + self.trans(p)
    }

    /// Prices `OPT(T_n)` and its first argmin — the exhaustive table's
    /// values, bit for bit — pricing only the smaller prefixes the answer
    /// needs.
    ///
    /// Each prefix first tries a single-block certificate: when no split
    /// `p ≥ 1` can go under `LB(0, q)`, block `[0, q)` is solved, and when
    /// no split can go under its energy either, it is the answer (`p = 0`
    /// is first in the ascending scan, so a tie keeps it). Otherwise the
    /// bottom-up recurrence runs at `q`: the hint is the block that was
    /// last at `q − 1`, extended by task `q − 1`, and its candidate
    /// `upper` bounds `OPT(T_q)` from above; the ascending scan skips
    /// `[p, q)` when a floor reaches the running minimum (the strict `<`
    /// could not take it) or exceeds `upper` (it cannot be the minimum).
    /// The prefix floor is tried before `OPT(T_p)` is priced, then the
    /// floor with it.
    ///
    /// Both floors are sums, in the candidate's order, of terms no larger
    /// than the candidate's (`floor[p] ≤ OPT(T_p)`, `LB ≤ E`), and
    /// rounding is monotone, so no floor exceeds its candidate: the
    /// minimum and its first argmin are the exhaustive table's. Each
    /// prefix priced solves a subset of the ranges the bottom-up loop
    /// solves at that prefix: the certificate is tried only when every
    /// split floor, and so the hint's candidate, reaches `LB(0, q)`,
    /// which is when the loop solves `[0, q)` too.
    ///
    /// A prefix that needs a smaller one waits on `open`, the stack of
    /// prefixes being priced (up to `n` deep), and resumes where it
    /// stopped once that one is priced.
    fn price(&mut self, n: usize) {
        let mut open = std::mem::take(&mut self.open);
        self.enter(n, &mut open);
        while let Some(&q) = open.last() {
            match self.step(q) {
                Some(p) => self.enter(p, &mut open),
                None => {
                    open.pop();
                }
            }
        }
        self.open = open;
    }

    /// Opens prefix `q`: stacks its bounds, then settles it by the
    /// single-block certificate or leaves it on `open` for the bottom-up
    /// step.
    fn enter(&mut self, q: usize, open: &mut Vec<usize>) {
        let base = self.bounds.len();
        self.terms.push_lower_bounds(q, &mut self.bounds);
        let split = (1..q)
            .map(|p| self.prefix_floor(base, p))
            .fold(f64::INFINITY, f64::min);
        if split >= self.bounds[base] {
            let single = self.candidate(0, q);
            if split >= single {
                self.opt[q] = single;
                self.cut_from[q] = 0;
                self.settle(q);
                return;
            }
        }
        open.push(q);
    }

    /// Runs the bottom-up step of the open prefix `q`, the deepest one,
    /// from candidate `next[q]` on, keeping the running minimum and its
    /// argmin in `opt[q]` and `cut_from[q]`. Returns the smaller prefix
    /// it must wait for, or `None` once `q` is settled.
    fn step(&mut self, q: usize) -> Option<usize> {
        if !self.done[q - 1] {
            return Some(q - 1);
        }
        let base = self.bounds.len() - q;
        let hint = self.cut_from[q - 1];
        let upper = self.candidate(hint, q);
        for p in self.next[q]..q {
            let cand = if p == hint {
                upper
            } else {
                let floor = self.prefix_floor(base, p);
                if floor >= self.opt[q] || floor > upper {
                    continue;
                }
                if !self.done[p] {
                    self.next[q] = p;
                    return Some(p);
                }
                let floor = self.opt[p] + self.bounds[base + p] + self.trans(p);
                if floor >= self.opt[q] || floor > upper {
                    continue;
                }
                self.candidate(p, q)
            };
            if cand < self.opt[q] {
                self.opt[q] = cand;
                self.cut_from[q] = p;
            }
        }
        self.settle(q);
        None
    }

    /// Marks `OPT(T_q)` priced and pops its bounds, the last `q` stacked.
    fn settle(&mut self, q: usize) {
        self.done[q] = true;
        self.bounds.truncate(self.bounds.len() - q);
    }

    /// The DP over the sorted tasks, with every table from `ws`.
    fn take(
        sorted: &[Task],
        platform: &Platform,
        solver: BlockSolverKind,
        ws: &mut Workspace,
    ) -> Self {
        let pw = PowerParams::of(platform);
        let n = sorted.len();
        let mut terms = Terms::take(pw, ws);
        for t in sorted {
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
        let mut opt = ws.take_f64s();
        opt.resize(n + 1, f64::INFINITY);
        opt[0] = 0.0;
        let mut cut_from = ws.take_usizes();
        cut_from.resize(n + 1, 0);
        let mut done = ws.take_bools();
        done.resize(n + 1, false);
        done[0] = true;
        let mut floor = ws.take_f64s();
        terms.prefix_floors_into(&mut floor);
        let mut next = ws.take_usizes();
        next.resize(n + 1, 0);
        Self {
            solver,
            pw,
            terms,
            bts,
            stride: n + 1,
            interval,
            energy,
            solved,
            transition: platform.memory().transition_energy().value(),
            opt,
            cut_from,
            done,
            floor,
            open: ws.take_usizes(),
            next,
            bounds: ws.take_f64s(),
        }
    }

    /// Returns every table to `ws`'s pools.
    fn recycle(self, ws: &mut Workspace) {
        self.terms.recycle(ws);
        ws.recycle_pairs(self.interval);
        for column in [self.energy, self.opt, self.floor, self.bounds] {
            ws.recycle_f64s(column);
        }
        ws.recycle_bools(self.solved);
        ws.recycle_bools(self.done);
        for column in [self.cut_from, self.open, self.next] {
            ws.recycle_usizes(column);
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
    let mut dp = Dp::take(&sorted, platform, solver, ws);
    dp.price(sorted.len());
    let solution = assemble(&mut dp, &sorted, strict, ws);
    dp.recycle(ws);
    ws.recycle_tasks(sorted);
    Ok(solution)
}

/// The solution of a priced DP: its partition (strictness-repaired when
/// `strict`), one core per task, and the planned memory sleep.
fn assemble(dp: &mut Dp, sorted: &[Task], strict: bool, ws: &mut Workspace) -> Solution {
    let n = sorted.len();
    // Reconstruct the partition.
    let mut cuts = ws.take_usizes();
    cuts.push(n);
    while *cuts.last().expect("non-empty") > 0 {
        let q = *cuts.last().expect("non-empty");
        cuts.push(dp.cut_from[q]);
    }
    cuts.reverse();

    // Strictness repair: merge any consecutive blocks whose busy intervals
    // overlap, then recompute the total energy from the merged-block
    // solutions (solved here if the DP skipped them).
    let mut total_energy = dp.opt[n];
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
            + dp.transition * (cuts.len().saturating_sub(2)) as f64;
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
        let paper = (dp.solver != BlockSolverKind::BestResponse).then(|| dp.paper_block(p, q));
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

    ws.recycle_usizes(cuts);
    Solution::new(
        Schedule::new(placements),
        Joules::new(total_energy),
        Time::from_secs(sleep_time),
    )
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
                bound.clear();
                terms.push_lower_bounds(q, &mut bound);
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

    /// The bottom-up table: every prefix priced in ascending order, the
    /// loop [`Dp::price`] replaced, kept verbatim as its reference.
    #[allow(clippy::needless_range_loop)]
    fn price_bottom_up(dp: &mut Dp) {
        let n = dp.stride - 1;
        let transition = dp.transition;
        let mut bound = Vec::new();
        for q in 1..=n {
            bound.clear();
            dp.terms.push_lower_bounds(q, &mut bound);
            let hint = dp.cut_from[q - 1];
            let hint_trans = if hint == 0 { 0.0 } else { transition };
            let upper = dp.opt[hint] + dp.block(hint, q).2 + hint_trans;
            for p in 0..q {
                let trans = if p == 0 { 0.0 } else { transition };
                let cand = if p == hint {
                    upper
                } else {
                    let floor = dp.opt[p] + bound[p] + trans;
                    if floor >= dp.opt[q] || floor > upper {
                        continue;
                    }
                    dp.opt[p] + dp.block(p, q).2 + trans
                };
                if cand < dp.opt[q] {
                    dp.opt[q] = cand;
                    dp.cut_from[q] = p;
                }
            }
        }
    }

    /// One table of the DP, lazy or bottom-up, and its solutions.
    struct Counted {
        /// The plain and the strictness-repaired solution.
        plain: Solution,
        strict: Solution,
        /// Ranges the table solved (strictness repairs excluded).
        ranges: usize,
        /// `OPT(T_q)` bits for every prefix the table priced.
        opt: Vec<Option<u64>>,
    }

    fn solve_counted(
        tasks: &TaskSet,
        platform: &Platform,
        solver: BlockSolverKind,
        bottom_up: bool,
    ) -> Counted {
        let mut ws = Workspace::new();
        let sorted = prepare_in(tasks, platform, &mut ws).unwrap();
        let mut dp = Dp::take(&sorted, platform, solver, &mut ws);
        if bottom_up {
            price_bottom_up(&mut dp);
            dp.done.fill(true);
        } else {
            dp.price(sorted.len());
        }
        let ranges = dp.solved.iter().filter(|&&s| s).count();
        let opt = (dp.opt.iter().zip(&dp.done))
            .map(|(o, &done)| done.then_some(o.to_bits()))
            .collect();
        Counted {
            plain: assemble(&mut dp, &sorted, false, &mut ws),
            strict: assemble(&mut dp, &sorted, true, &mut ws),
            ranges,
            opt,
        }
    }

    /// Every output bit of a solution: energy, memory sleep, then each
    /// placement's task, core and segments.
    fn output_bits(sol: &Solution) -> Vec<u64> {
        let mut bits = vec![
            sol.predicted_energy().value().to_bits(),
            sol.memory_sleep().as_secs().to_bits(),
        ];
        for p in sol.schedule().placements() {
            bits.extend([p.task().0 as u64, p.core().0 as u64]);
            for seg in p.segments() {
                bits.extend([
                    seg.start().as_secs().to_bits(),
                    seg.end().as_secs().to_bits(),
                    seg.speed().as_hz().to_bits(),
                ]);
            }
        }
        bits
    }

    fn ms_set(rows: &[(f64, f64, f64)]) -> TaskSet {
        let ms = Time::from_millis;
        TaskSet::new(
            rows.iter()
                .enumerate()
                .map(|(i, &(r, d, w))| Task::new(i, ms(r), ms(d), Cycles::new(w)))
                .collect(),
        )
        .unwrap()
    }

    /// `count` sets of `1 + k % 9` seeded block tasks (the pools above).
    fn seeded_sets(seed: u64, count: usize) -> Vec<TaskSet> {
        use sdem_prng::{ChaCha8Rng, SeedableRng};
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..count)
            .map(|k| {
                let bts = block::seeded_tasks(&mut rng, 1 + k % 9);
                TaskSet::new(
                    bts.iter()
                        .map(|t| Task::new(t.index, sec(t.r), sec(t.d), Cycles::new(t.w)))
                        .collect(),
                )
                .unwrap()
            })
            .collect()
    }

    /// Split-heavy sets: `n` single tasks (20–40 ms windows) released
    /// 60–80 ms apart, so every optimum has many blocks.
    fn separated_sets(seed: u64, count: usize, n: usize) -> Vec<TaskSet> {
        use sdem_prng::{ChaCha8Rng, Rng, SeedableRng};
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut r = 0.0f64;
                let rows: Vec<(f64, f64, f64)> = (0..n)
                    .map(|_| {
                        r += rng.gen_range(60.0f64..80.0);
                        let d = r + rng.gen_range(20.0f64..40.0);
                        (r, d, rng.gen_range(1.0e6f64..6.0e6))
                    })
                    .collect();
                ms_set(&rows)
            })
            .collect()
    }

    /// Clusters of 3–5 overlapping tasks, 60–100 ms apart.
    fn clustered_sets(seed: u64, count: usize) -> Vec<TaskSet> {
        use sdem_prng::{ChaCha8Rng, Rng, SeedableRng};
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..count)
            .map(|k| {
                let (mut start, mut d) = (0.0f64, 0.0f64);
                let mut rows = Vec::new();
                for _ in 0..2 + k % 5 {
                    start += rng.gen_range(60.0f64..100.0);
                    let mut r = start;
                    for _ in 0..3 + rng.next_u64() % 3 {
                        r += rng.gen_range(0.0f64..6.0);
                        d = d.max(r + rng.gen_range(15.0f64..30.0));
                        rows.push((r, d, rng.gen_range(1.0e6f64..6.0e6)));
                    }
                }
                ms_set(&rows)
            })
            .collect()
    }

    /// Serve-shaped sets: 2–4 tasks, each released 1–8 ms after the
    /// previous one, 15–60 ms windows, 1–6 Mcycles.
    fn serve_sets(seed: u64, count: usize) -> Vec<TaskSet> {
        use sdem_prng::{ChaCha8Rng, Rng, SeedableRng};
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..count)
            .map(|k| {
                let (mut r, mut d) = (0.0f64, 0.0f64);
                let rows: Vec<(f64, f64, f64)> = (0..2 + k % 3)
                    .map(|i| {
                        if i > 0 {
                            r += rng.gen_range(1.0f64..8.0);
                        }
                        d = (d + rng.gen_range(1.0f64..8.0)).max(r + rng.gen_range(15.0f64..60.0));
                        (r, d, rng.gen_range(1.0e6f64..6.0e6))
                    })
                    .collect();
                ms_set(&rows)
            })
            .collect()
    }

    /// The lazy DP against the bottom-up reference on `sets` (each on
    /// every seeded platform), under `Agreeable`, `AgreeableStrict` and
    /// every block solver (the paper solvers on every `paper_stride`-th
    /// set): every output bit and every priced `OPT(T_q)` equal, and
    /// never more ranges solved. Returns `(lazy, bottom-up)` range totals.
    fn differential(sets: &[TaskSet], paper_stride: usize) -> (usize, usize) {
        let platforms = seeded_platforms();
        let (mut lazy_total, mut reference_total) = (0, 0);
        for (k, tasks) in sets.iter().enumerate() {
            for platform in &platforms {
                let mut solvers = vec![BlockSolverKind::BestResponse];
                if k % paper_stride == 0 {
                    solvers.push(BlockSolverKind::PaperIterative);
                    if platform.core().is_alpha_zero() {
                        solvers.push(BlockSolverKind::PaperClosedForm);
                    }
                }
                for solver in solvers {
                    let lazy = solve_counted(tasks, platform, solver, false);
                    let reference = solve_counted(tasks, platform, solver, true);
                    let case = format!("set {k} ({} tasks), {solver:?}", tasks.len());
                    assert_eq!(
                        output_bits(&lazy.plain),
                        output_bits(&reference.plain),
                        "{case}: outputs"
                    );
                    assert_eq!(
                        output_bits(&lazy.strict),
                        output_bits(&reference.strict),
                        "{case}: strict outputs"
                    );
                    for (q, bits) in lazy.opt.iter().enumerate() {
                        if bits.is_some() {
                            assert_eq!(*bits, reference.opt[q], "{case}: OPT(T_{q})");
                        }
                    }
                    assert!(
                        lazy.ranges <= reference.ranges,
                        "{case}: {} ranges solved, bottom-up {}",
                        lazy.ranges,
                        reference.ranges
                    );
                    lazy_total += lazy.ranges;
                    reference_total += reference.ranges;
                }
            }
        }
        (lazy_total, reference_total)
    }

    #[test]
    fn lazy_dp_equals_the_bottom_up_table_and_solves_no_more_ranges() {
        let random = differential(&seeded_sets(0xD9_7AB1E, 300), 8);
        assert!(random.0 < random.1, "random pool: {random:?} ranges");
        // Split-heavy pools, where naive top-down orders solve far more
        // ranges than the bottom-up loop: many single-task blocks, and
        // clusters of overlapping tasks.
        differential(&separated_sets(0x5E9A, 6, 12), 3);
        differential(&separated_sets(0x005E_9A40, 2, 40), 2);
        let clustered = differential(&clustered_sets(0xC1_057E, 24), 6);
        assert!(
            clustered.0 < clustered.1,
            "clustered pool: {clustered:?} ranges"
        );
    }

    #[test]
    #[ignore = "20,000 cases; run in release"]
    fn lazy_dp_equals_the_bottom_up_table_on_20k_sets() {
        let random = differential(&seeded_sets(0x20_000, 16_000), 16);
        let separated = differential(&separated_sets(0x20_5E9A, 1_000, 12), 16);
        let long = differential(&separated_sets(0x205E_9A40, 200, 40), 16);
        let clustered = differential(&clustered_sets(0x20_C105, 2_800), 16);
        eprintln!("ranges (lazy, bottom-up): random {random:?}, separated {separated:?}, n = 40 {long:?}, clustered {clustered:?}");
    }

    #[test]
    fn a_single_block_optimum_of_a_serve_shaped_set_solves_one_range() {
        let platform = Platform::paper_defaults();
        let mut single = 0;
        for (k, tasks) in serve_sets(0x5E_2FE, 300).iter().enumerate() {
            let reference = solve_counted(tasks, &platform, BlockSolverKind::BestResponse, true);
            if reference.plain.schedule().memory_busy_intervals().len() > 1 {
                continue;
            }
            single += 1;
            let lazy = solve_counted(tasks, &platform, BlockSolverKind::BestResponse, false);
            assert_eq!(
                lazy.ranges, 1,
                "set {k}: {} ranges for a single-block optimum (bottom-up {})",
                lazy.ranges, reference.ranges
            );
        }
        assert!(single >= 250, "{single} single-block optima");
    }

    #[test]
    fn prefix_floors_never_exceed_the_prefix_optima() {
        let platforms = seeded_platforms();
        let mut sets = seeded_sets(0x9F_100D, 300);
        sets.extend(clustered_sets(0x9F_C105, 12));
        let mut checked = 0;
        for (k, tasks) in sets.iter().enumerate() {
            for platform in &platforms {
                let mut solvers = vec![BlockSolverKind::BestResponse];
                if k % 3 == 0 {
                    solvers.push(BlockSolverKind::PaperIterative);
                    if platform.core().is_alpha_zero() {
                        solvers.push(BlockSolverKind::PaperClosedForm);
                    }
                }
                for solver in solvers {
                    let mut ws = Workspace::new();
                    let sorted = prepare_in(tasks, platform, &mut ws).unwrap();
                    let mut dp = Dp::take(&sorted, platform, solver, &mut ws);
                    price_bottom_up(&mut dp);
                    for (p, (&floor, &opt)) in dp.floor.iter().zip(&dp.opt).enumerate() {
                        assert!(
                            floor <= opt,
                            "set {k}, {solver:?}: floor {floor} > OPT(T_{p}) {opt}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 5_000, "{checked} prefixes");
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
