//! §4.2 — common release time, non-negligible core static power (`α ≠ 0`).
//!
//! Each task has a *critical speed* `s₀ = min(max(s_m, s_f), s_up)` with
//! `s_m = (α/(β(λ−1)))^{1/λ}`: the per-core energy-optimal speed, clamped to
//! the task's feasibility window. Running every task at `s₀` gives
//! completion times `c_i = w_i / s₀ᵢ`; tasks are indexed by increasing `c_i`
//! and `|I|^{(α)} = c_n`.
//!
//! In *Case i* (`δ_i ≤ Δ < δ_{i−1}`, `δ_i = c_n − c_i`) tasks `i..n` align
//! with the memory busy interval (finish at `c_n − Δ`) while tasks `1..i−1`
//! keep their critical speed and put their cores to sleep on completion.
//! The aligned-plus-memory energy (Eq. 7) is convex with interior optimum
//! (Eq. 8):
//!
//! ```text
//! Δ^{(α)}_{m i} = |I|^{(α)} − ( β(λ−1) Σ_{j≥i} w_j^λ / ((n−i+1)α + α_m) )^{1/λ}
//! ```
//!
//! [`schedule_alpha_nonzero_in`] clamps Eq. 8 into every case's feasible
//! box (Lemma 2) and returns the minimum *full-system* energy over all
//! cases (Theorem 3), including the constant critical-speed terms that
//! differ between cases.

use sdem_power::Platform;
use sdem_types::{CoreId, Joules, Placement, Schedule, Segment, Speed, TaskSet, Time, Workspace};

use super::{prepare_in, Instance};
use crate::{SdemError, Solution};

struct NonzeroCases {
    /// Critical-speed completion times, sorted ascending (relative).
    c: Vec<f64>,
    /// `|I|^{(α)} = c_n`.
    interval: f64,
    /// Suffix sums of `w^λ`.
    s_wl: Vec<f64>,
    /// Suffix maxima of `w`.
    w_max: Vec<f64>,
    /// Prefix type-I energies: `Σ_{j<cut} (β w_j^λ c_j^{1−λ} + α c_j)`.
    type_i: Vec<f64>,
    alpha: f64,
    beta: f64,
    lambda: f64,
    alpha_m: f64,
    s_up: f64,
}

impl NonzeroCases {
    #[cfg(test)]
    fn new(sorted_c: &[f64], works: &[f64], platform: &Platform) -> Self {
        Self::new_in(sorted_c, works, platform, &mut Workspace::new())
    }

    /// Builds the case tables in buffers drawn from `ws`; return them with
    /// [`Self::recycle`].
    fn new_in(sorted_c: &[f64], works: &[f64], platform: &Platform, ws: &mut Workspace) -> Self {
        let core = platform.core();
        let (alpha, beta, lambda) = (core.alpha().value(), core.beta(), core.lambda());
        let n = sorted_c.len();
        let interval = sorted_c.last().copied().unwrap_or(0.0);
        let mut c = ws.take_f64s();
        c.extend_from_slice(sorted_c);
        let mut s_wl = ws.take_f64s();
        s_wl.resize(n + 1, 0.0);
        let mut w_max = ws.take_f64s();
        w_max.resize(n + 1, 0.0);
        for j in (0..n).rev() {
            s_wl[j] = s_wl[j + 1] + works[j].powf(lambda);
            w_max[j] = w_max[j + 1].max(works[j]);
        }
        let mut type_i = ws.take_f64s();
        type_i.resize(n + 1, 0.0);
        for j in 0..n {
            let e = if works[j] == 0.0 {
                0.0
            } else {
                beta * works[j].powf(lambda) * sorted_c[j].powf(1.0 - lambda) + alpha * sorted_c[j]
            };
            type_i[j + 1] = type_i[j] + e;
        }
        Self {
            c,
            interval,
            s_wl,
            w_max,
            type_i,
            alpha,
            beta,
            lambda,
            alpha_m: platform.memory().alpha_m().value(),
            s_up: core.max_speed().as_hz(),
        }
    }

    /// Returns the case tables to the workspace.
    fn recycle(self, ws: &mut Workspace) {
        ws.recycle_f64s(self.c);
        ws.recycle_f64s(self.s_wl);
        ws.recycle_f64s(self.w_max);
        ws.recycle_f64s(self.type_i);
    }

    fn n(&self) -> usize {
        self.c.len()
    }

    /// Full-system energy for case `cut` at sleep length `delta`.
    fn energy(&self, cut: usize, delta: f64) -> f64 {
        let window = self.interval - delta;
        let aligned_count = (self.n() - cut) as f64;
        let aligned_dyn = if self.s_wl[cut] == 0.0 {
            0.0
        } else {
            self.beta * self.s_wl[cut] * window.powf(1.0 - self.lambda)
        };
        (aligned_count * self.alpha + self.alpha_m) * window + aligned_dyn + self.type_i[cut]
    }

    /// Eq. 8 interior optimum for case `cut`.
    fn interior_optimum(&self, cut: usize) -> f64 {
        if self.s_wl[cut] == 0.0 {
            return f64::INFINITY;
        }
        let denom = (self.n() - cut) as f64 * self.alpha + self.alpha_m;
        self.interval
            - (self.beta * (self.lambda - 1.0) * self.s_wl[cut] / denom).powf(1.0 / self.lambda)
    }

    /// Feasible `Δ` box of case `cut` (classification range ∩ `s_up` cap).
    fn case_box(&self, cut: usize) -> Option<(f64, f64)> {
        let lo = (self.interval - self.c[cut]).max(0.0);
        let class_hi = if cut == 0 {
            self.interval
        } else {
            self.interval - self.c[cut - 1]
        };
        let speed_hi = if self.w_max[cut] == 0.0 {
            self.interval
        } else {
            self.interval - self.w_max[cut] / self.s_up
        };
        let hi = class_hi.min(speed_hi);
        (lo <= hi + 1e-15 * self.interval.max(1.0)).then_some((lo, hi.max(lo)))
    }

    fn case_optimum(&self, cut: usize) -> Option<(f64, f64)> {
        let (lo, hi) = self.case_box(cut)?;
        let delta = self.interior_optimum(cut).clamp(lo, hi);
        Some((delta, self.energy(cut, delta)))
    }
}

/// §4.2 optimal scheme for common-release tasks with core sleeping.
/// `O(n²)` worst case (`O(n log n)` here thanks to the prefix/suffix forms).
///
/// Every scratch buffer and the returned schedule's arenas are drawn
/// from `ws`, so a warmed workspace makes the solve allocation-free.
/// Recycle the solution's schedule back into `ws` when done with it.
///
/// # Errors
///
/// [`SdemError::NotCommonRelease`] if releases differ;
/// [`SdemError::InfeasibleTask`] if some task needs more than `s_up`.
///
/// # Examples
///
/// ```
/// use sdem_core::common_release::schedule_alpha_nonzero_in;
/// use sdem_power::Platform;
/// use sdem_types::{Task, TaskSet, Time, Cycles, Workspace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::paper_defaults();
/// let tasks = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_millis(50.0), Cycles::new(1.0e7)),
///     Task::new(1, Time::ZERO, Time::from_millis(90.0), Cycles::new(2.0e7)),
/// ])?;
/// let sol = schedule_alpha_nonzero_in(&tasks, &platform, &mut Workspace::new())?;
/// sol.schedule().validate(&tasks)?;
/// # Ok(())
/// # }
/// ```
pub fn schedule_alpha_nonzero_in(
    tasks: &TaskSet,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    let inst = prepare_in(tasks, platform, ws)?;
    // Critical-speed completion per task, then re-sort tasks by completion.
    let core = platform.core();
    let mut order = ws.take_keyed();
    completion_order_fill(
        &inst,
        |idx| core.critical_speed(inst.tasks[idx].filled_speed()),
        &mut order,
    );
    let mut sorted_c = ws.take_f64s();
    sorted_c.extend(order.iter().map(|&(c, _)| c));
    let mut works = ws.take_f64s();
    works.extend(order.iter().map(|&(_, idx)| inst.tasks[idx].work().value()));

    let cases = NonzeroCases::new_in(&sorted_c, &works, platform, ws);
    let (cut, delta, energy) = (0..cases.n())
        .filter_map(|cut| cases.case_optimum(cut).map(|(d, e)| (cut, d, e)))
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("the Δ = 0 case is always feasible");

    // Build the schedule: position k < cut keeps critical speed, k ≥ cut
    // aligns with the busy interval end.
    let r0 = inst.release;
    let window = cases.interval - delta;
    let mut placements = ws.take_placements();
    for (k, &(c_k, idx)) in order.iter().enumerate() {
        let t = &inst.tasks[idx];
        let mut segments = ws.take_segments();
        if t.work().value() > 0.0 {
            let len = if k >= cut { window } else { c_k };
            let end = r0 + Time::from_secs(len);
            let speed = t.work() / Time::from_secs(len);
            segments.push(Segment::new(r0, end, speed));
        }
        placements.push(Placement::new(t.id(), CoreId(idx), segments));
    }
    let solution = Solution::new(
        Schedule::new(placements),
        Joules::new(energy),
        Time::from_secs(delta),
    );
    cases.recycle(ws);
    ws.recycle_f64s(sorted_c);
    ws.recycle_f64s(works);
    ws.recycle_keyed(order);
    inst.recycle(ws);
    Ok(solution)
}

/// Critical-speed completion times for a prepared instance — exposed for
/// the §7 overhead scheme, which reuses the same case machinery with the
/// *constrained* critical speed. Clears and fills `out`.
pub(crate) fn completion_order_into(
    inst: &Instance,
    speeds: impl Fn(usize) -> Speed,
    out: &mut Vec<(f64, usize)>,
) {
    completion_order_fill(inst, speeds, out);
}

/// Shared body: `(completion, index)` pairs sorted by completion. The index
/// tiebreak makes the comparator a total order, so the unstable sort
/// reproduces the stable sort's insertion-order tie handling exactly.
fn completion_order_fill(
    inst: &Instance,
    speeds: impl Fn(usize) -> Speed,
    out: &mut Vec<(f64, usize)>,
) {
    out.clear();
    out.extend(inst.tasks.iter().enumerate().map(|(idx, t)| {
        let c = if t.work().value() == 0.0 {
            0.0
        } else {
            (t.work() / speeds(idx)).as_secs()
        };
        (c, idx)
    }));
    out.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_power::{CorePower, MemoryPower};
    use sdem_sim::{simulate, SleepPolicy};
    use sdem_types::{Cycles, Task, Watts};

    fn sec(v: f64) -> Time {
        Time::from_secs(v)
    }

    /// α = 4, β = 1, λ = 3 (s_m = 2^{1/3} ≈ 1.26), α_m configurable.
    fn platform(alpha_m: f64) -> Platform {
        Platform::new(
            CorePower::simple(4.0, 1.0, 3.0),
            MemoryPower::new(Watts::new(alpha_m)),
        )
    }

    fn tset(specs: &[(f64, f64)]) -> TaskSet {
        TaskSet::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(d, w))| Task::new(i, sec(0.0), sec(d), Cycles::new(w)))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn single_task_balances_core_and_memory() {
        // One task: optimal speed is the joint critical speed
        // s_1 = ((α+α_m)/(β(λ−1)))^{1/λ} (when feasible), §5.2's insight.
        let p = platform(12.0);
        let tasks = tset(&[(100.0, 4.0)]);
        let sol = schedule_alpha_nonzero_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let pl = sol.schedule().placement(sdem_types::TaskId(0)).unwrap();
        let s1 = ((4.0f64 + 12.0) / 2.0).powf(1.0 / 3.0);
        assert!(
            (pl.segments()[0].speed().as_hz() - s1).abs() < 1e-6,
            "speed {} vs s1 {s1}",
            pl.segments()[0].speed()
        );
        sol.schedule().validate(&tasks).unwrap();
    }

    #[test]
    fn zero_alpha_m_still_respects_core_sleep() {
        // With α_m = 0 the memory is free; every task should run at its own
        // critical speed (no reason to align).
        let p = platform(0.0);
        let tasks = tset(&[(50.0, 2.0), (60.0, 5.0), (80.0, 1.0)]);
        let sol = schedule_alpha_nonzero_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let s_m = 2.0f64.powf(1.0 / 3.0);
        for t in tasks.iter() {
            let pl = sol.schedule().placement(t.id()).unwrap();
            let s = pl.segments()[0].speed().as_hz();
            assert!((s - s_m).abs() < 1e-6, "task {} at {s}, s_m {s_m}", t.id());
        }
    }

    #[test]
    fn predicted_energy_matches_simulation() {
        let p = platform(6.0);
        let tasks = tset(&[(8.0, 2.0), (9.0, 4.0), (20.0, 3.0), (25.0, 1.0)]);
        let sol = schedule_alpha_nonzero_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let report = simulate(sol.schedule(), &tasks, &p, SleepPolicy::WhenProfitable).unwrap();
        let predicted = sol.predicted_energy().value();
        assert!(
            (report.total().value() - predicted).abs() < 1e-9 * predicted.max(1.0),
            "sim {} vs predicted {predicted}",
            report.total()
        );
    }

    #[test]
    fn tight_deadline_task_forces_filled_speed() {
        // A task denser than s_m must run at its filled speed (s_0 clamps up).
        let p = platform(1e-6);
        let tasks = tset(&[(1.0, 3.0), (50.0, 1.0)]);
        let sol = schedule_alpha_nonzero_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let pl = sol.schedule().placement(sdem_types::TaskId(0)).unwrap();
        assert!((pl.segments()[0].speed().as_hz() - 3.0).abs() < 1e-6);
        sol.schedule().validate(&tasks).unwrap();
    }

    #[test]
    fn alignment_beats_pure_critical_speed_when_memory_expensive() {
        // Expensive memory: aligning everything to one short busy interval
        // must not lose to the "all at s0" schedule.
        let p = platform(50.0);
        let tasks = tset(&[(40.0, 2.0), (40.0, 2.5), (40.0, 3.0)]);
        let sol = schedule_alpha_nonzero_in(&tasks, &p, &mut Workspace::new()).unwrap();

        // Hand-build the "all at s0" schedule and price it.
        let s_m = 2.0f64.powf(1.0 / 3.0);
        let sched_s0 = Schedule::new(
            tasks
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let len = t.work().value() / s_m;
                    Placement::single(t.id(), CoreId(i), sec(0.0), sec(len), Speed::from_hz(s_m))
                })
                .collect(),
        );
        let e_s0 = simulate(&sched_s0, &tasks, &p, SleepPolicy::WhenProfitable)
            .unwrap()
            .total()
            .value();
        let e_opt = simulate(sol.schedule(), &tasks, &p, SleepPolicy::WhenProfitable)
            .unwrap()
            .total()
            .value();
        assert!(
            e_opt <= e_s0 + 1e-9 * e_s0,
            "optimal {e_opt} worse than all-critical {e_s0}"
        );
        // And with α_m = 50 the memory dominates: expect actual alignment.
        assert!(sol.memory_sleep().value() > 0.0);
    }

    #[test]
    fn case_energy_continuous_at_boundaries() {
        let p = platform(6.0);
        let c = [1.0, 2.0, 4.0];
        let w = [1.5, 3.0, 6.0];
        let cases = NonzeroCases::new(&c, &w, &p);
        let b = cases.interval - c[1]; // boundary between cut 1 and cut 2
        assert!((cases.energy(1, b) - cases.energy(2, b)).abs() < 1e-9);
    }

    #[test]
    fn zero_work_tasks_get_empty_placements() {
        let p = platform(3.0);
        let tasks = tset(&[(5.0, 0.0), (10.0, 2.0)]);
        let sol = schedule_alpha_nonzero_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let pl = sol.schedule().placement(sdem_types::TaskId(0)).unwrap();
        assert!(pl.segments().is_empty());
        sol.schedule().validate(&tasks).unwrap();
    }

    #[test]
    fn optimum_beats_dense_grid() {
        let p = platform(6.0);
        let tasks = tset(&[(8.0, 2.0), (12.0, 4.0), (30.0, 3.0)]);
        let sol = schedule_alpha_nonzero_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let best = sol.predicted_energy().value();
        let oracle = super::super::reference_optimum(&tasks, &p, 4000).unwrap();
        assert!(
            best <= oracle.value() + 1e-6 * oracle.value(),
            "scheme {best} worse than grid oracle {}",
            oracle.value()
        );
        assert!(
            best >= oracle.value() - 1e-3 * oracle.value(),
            "scheme {best} suspiciously below continuum oracle {}",
            oracle.value()
        );
    }
}
