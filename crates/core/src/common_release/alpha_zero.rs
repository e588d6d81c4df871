//! §4.1 — common release time, negligible core static power (`α = 0`).
//!
//! Tasks are indexed by increasing deadline; `δ_i = d_n − d_i` is the slack
//! after task `i`'s feasible region. Under the assumption
//! `δ_i ≤ Δ < δ_{i−1}` (*Case i*), tasks `1..i−1` run at their filled speed
//! and tasks `i..n` finish together at `|I| − Δ`, giving (paper Eq. before
//! Eq. 4):
//!
//! ```text
//! E_i(Δ) = α_m(|I| − Δ) + β Σ_{j<i} w_j^λ |I_j|^{1−λ}
//!                        + β Σ_{k≥i} w_k^λ (|I| − Δ)^{1−λ}
//! ```
//!
//! which is convex in `Δ` with interior optimum (Eq. 4)
//!
//! ```text
//! Δ_{m i} = |I| − ( β(λ−1) Σ_{j≥i} w_j^λ / α_m )^{1/λ} .
//! ```
//!
//! Three equivalent drivers are provided:
//! [`schedule_alpha_zero_in`] clamps Eq. 4 into every case's feasible box and
//! takes the global minimum (linear after sorting);
//! [`schedule_alpha_zero_scan`] is the paper's Theorem-2 sequential scan
//! with early exit; [`schedule_alpha_zero_binary_search`] is the Lemma-1
//! `O(n log n)` binary search. Property tests assert all three agree.

use sdem_power::Platform;
use sdem_types::{CoreId, Joules, Placement, Schedule, Segment, Task, TaskSet, Time, Workspace};

use super::{prepare, prepare_in, Instance};
use crate::{SdemError, Solution};

/// Precomputed per-case data shared by the three drivers.
struct Cases {
    /// Relative deadlines, sorted ascending.
    d: Vec<f64>,
    /// `|I| = d_n` (relative).
    interval: f64,
    /// Suffix sums of `w^λ`: `s_wl[c] = Σ_{j≥c} w_j^λ`.
    s_wl: Vec<f64>,
    /// Suffix maxima of `w`: `w_max[c] = max_{j≥c} w_j`.
    w_max: Vec<f64>,
    /// Prefix filled dynamic energies:
    /// `filled[c] = β Σ_{j<c} w_j^λ d_j^{1−λ}`.
    filled: Vec<f64>,
    beta: f64,
    lambda: f64,
    alpha_m: f64,
    s_up: f64,
}

impl Cases {
    fn new(inst: &Instance, platform: &Platform) -> Self {
        Self::new_in(inst, platform, &mut Workspace::new())
    }

    /// Builds the case tables in buffers drawn from `ws`; return them with
    /// [`Self::recycle`].
    fn new_in(inst: &Instance, platform: &Platform, ws: &mut Workspace) -> Self {
        let core = platform.core();
        let (beta, lambda) = (core.beta(), core.lambda());
        let n = inst.tasks.len();
        let r0 = inst.release;
        let mut d = ws.take_f64s();
        d.extend(inst.tasks.iter().map(|t| (t.deadline() - r0).as_secs()));
        let interval = d[n - 1];
        let mut w = ws.take_f64s();
        w.extend(inst.tasks.iter().map(|t| t.work().value()));
        let mut s_wl = ws.take_f64s();
        s_wl.resize(n + 1, 0.0);
        let mut w_max = ws.take_f64s();
        w_max.resize(n + 1, 0.0);
        for j in (0..n).rev() {
            s_wl[j] = s_wl[j + 1] + w[j].powf(lambda);
            w_max[j] = w_max[j + 1].max(w[j]);
        }
        let mut filled = ws.take_f64s();
        filled.resize(n + 1, 0.0);
        for c in 0..n {
            let dyn_e = if w[c] == 0.0 {
                0.0
            } else {
                beta * w[c].powf(lambda) * d[c].powf(1.0 - lambda)
            };
            filled[c + 1] = filled[c] + dyn_e;
        }
        ws.recycle_f64s(w);
        Self {
            d,
            interval,
            s_wl,
            w_max,
            filled,
            beta,
            lambda,
            alpha_m: platform.memory().alpha_m().value(),
            s_up: core.max_speed().as_hz(),
        }
    }

    /// Returns the case tables to the workspace.
    fn recycle(self, ws: &mut Workspace) {
        ws.recycle_f64s(self.d);
        ws.recycle_f64s(self.s_wl);
        ws.recycle_f64s(self.w_max);
        ws.recycle_f64s(self.filled);
    }

    fn n(&self) -> usize {
        self.d.len()
    }

    /// Full-system energy in case `cut` (tasks `cut..n` aligned) at sleep
    /// length `delta`.
    fn energy(&self, cut: usize, delta: f64) -> f64 {
        let window = self.interval - delta;
        let aligned = if self.s_wl[cut] == 0.0 {
            0.0
        } else {
            self.beta * self.s_wl[cut] * window.powf(1.0 - self.lambda)
        };
        self.alpha_m * window + self.filled[cut] + aligned
    }

    /// The unconstrained interior optimum `Δ_m` of case `cut` (Eq. 4).
    /// `−∞` when `α_m = 0` (always clamps to the case's lower edge).
    fn interior_optimum(&self, cut: usize) -> f64 {
        if self.s_wl[cut] == 0.0 {
            // No aligned work: energy decreases linearly in window; sleep max.
            return f64::INFINITY;
        }
        self.interval
            - (self.beta * (self.lambda - 1.0) * self.s_wl[cut] / self.alpha_m)
                .powf(1.0 / self.lambda)
    }

    /// Feasible `Δ` box of case `cut`: classification bounds intersected
    /// with the `s_up` cap. `None` when empty.
    fn case_box(&self, cut: usize) -> Option<(f64, f64)> {
        let lo = (self.interval - self.d[cut]).max(0.0);
        let class_hi = if cut == 0 {
            self.interval
        } else {
            self.interval - self.d[cut - 1]
        };
        let speed_hi = if self.w_max[cut] == 0.0 {
            self.interval
        } else {
            self.interval - self.w_max[cut] / self.s_up
        };
        let hi = class_hi.min(speed_hi);
        (lo <= hi + 1e-15 * self.interval.max(1.0)).then_some((lo, hi.max(lo)))
    }

    /// Best `Δ` within case `cut`: Eq. 4 clamped into the case box.
    fn case_optimum(&self, cut: usize) -> Option<(f64, f64)> {
        let (lo, hi) = self.case_box(cut)?;
        let delta = self.interior_optimum(cut).clamp(lo, hi);
        Some((delta, self.energy(cut, delta)))
    }
}

/// Builds the explicit schedule for the winning `(cut, Δ)`.
fn build_solution(inst: &Instance, cases: &Cases, cut: usize, delta: f64, energy: f64) -> Solution {
    build_solution_in(inst, cases, cut, delta, energy, &mut Workspace::new())
}

/// [`build_solution`] with the placement/segment arenas drawn from `ws`.
fn build_solution_in(
    inst: &Instance,
    cases: &Cases,
    cut: usize,
    delta: f64,
    energy: f64,
    ws: &mut Workspace,
) -> Solution {
    let r0 = inst.release;
    let window = Time::from_secs(cases.interval - delta);
    let mut placements = ws.take_placements();
    for (idx, t) in inst.tasks.iter().enumerate() {
        let segments = ws.take_segments();
        placements.push(place_task(t, idx, r0, idx >= cut, window, segments));
    }
    Solution::new(
        Schedule::new(placements),
        Joules::new(energy),
        Time::from_secs(delta),
    )
}

fn place_task(
    t: &Task,
    idx: usize,
    r0: Time,
    aligned: bool,
    window: Time,
    mut segments: Vec<Segment>,
) -> Placement {
    if t.work().value() == 0.0 {
        // Zero-work tasks never execute; an empty placement avoids
        // degenerate zero-length segments when the busy window collapses.
        return Placement::new(t.id(), CoreId(idx), segments);
    }
    let end = if aligned { r0 + window } else { t.deadline() };
    let len = end - r0;
    let speed = if len.value() > 0.0 {
        t.work() / len
    } else {
        sdem_types::Speed::ZERO
    };
    segments.push(Segment::new(r0, end, speed));
    Placement::new(t.id(), CoreId(idx), segments)
}

/// §4.1 optimal scheme: evaluates every case's clamped closed form and
/// returns the global optimum. `O(n log n)` (dominated by the sort).
///
/// Scratch tables and the returned schedule's arenas are drawn from `ws`,
/// so a warmed workspace makes the solve allocation-free. Recycle the
/// solution's schedule back into `ws` when done with it.
///
/// # Errors
///
/// [`SdemError::NotCommonRelease`] if releases differ;
/// [`SdemError::InfeasibleTask`] if some task needs more than `s_up`.
///
/// # Examples
///
/// ```
/// use sdem_core::common_release::schedule_alpha_zero_in;
/// use sdem_power::{CorePower, MemoryPower, Platform};
/// use sdem_types::{Task, TaskSet, Time, Cycles, Workspace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::new(
///     CorePower::cortex_a57(),
///     MemoryPower::dram_50nm(),
/// );
/// let tasks = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_millis(40.0), Cycles::new(4.0e6)),
///     Task::new(1, Time::ZERO, Time::from_millis(100.0), Cycles::new(8.0e6)),
/// ])?;
/// let sol = schedule_alpha_zero_in(&tasks, &platform, &mut Workspace::new())?;
/// sol.schedule().validate(&tasks)?;
/// # Ok(())
/// # }
/// ```
pub fn schedule_alpha_zero_in(
    tasks: &TaskSet,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    let inst = prepare_in(tasks, platform, ws)?;
    let cases = Cases::new_in(&inst, platform, ws);
    let best = (0..cases.n())
        .filter_map(|cut| cases.case_optimum(cut).map(|(d, e)| (cut, d, e)))
        .min_by(|a, b| a.2.total_cmp(&b.2))
        .expect("the all-filled case is always feasible");
    let solution = build_solution_in(&inst, &cases, best.0, best.1, best.2, ws);
    cases.recycle(ws);
    inst.recycle(ws);
    Ok(solution)
}

/// §4.1 via the paper's Theorem-2 sequential scan: cases are visited from
/// *Case n* (only the last task aligned) down to *Case 1*; the scan stops at
/// the first case whose clamped optimum is *valid* (interior) or *just-fit*
/// (at the lower edge), which Theorem 2 proves global.
///
/// # Errors
///
/// Same as [`schedule_alpha_zero_in`].
pub fn schedule_alpha_zero_scan(
    tasks: &TaskSet,
    platform: &Platform,
) -> Result<Solution, SdemError> {
    let inst = prepare(tasks, platform)?;
    let cases = Cases::new(&inst, platform);
    // Paper Case i ⇔ cut = i − 1; Case n is cut = n − 1.
    let mut fallback: Option<(usize, f64, f64)> = None;
    for cut in (0..cases.n()).rev() {
        let Some((lo, hi)) = cases.case_box(cut) else {
            continue;
        };
        let dm = cases.interior_optimum(cut);
        let class_hi = if cut == 0 {
            f64::INFINITY
        } else {
            cases.interval - cases.d[cut - 1]
        };
        if dm < class_hi {
            // Valid (inside) or just-fit (below the lower edge): Theorem 2
            // says this case's clamped optimum is global — provided the
            // speed cap did not bite. If it did, the capped value is still
            // this case's best; keep it as a candidate and continue.
            let delta = dm.clamp(lo, hi);
            let e = cases.energy(cut, delta);
            let speed_limited = dm.min(class_hi) > hi + 1e-12 * cases.interval.max(1.0);
            if !speed_limited {
                return Ok(build_solution(&inst, &cases, cut, delta, e));
            }
            if fallback.is_none_or(|f| e < f.2) {
                fallback = Some((cut, delta, e));
            }
        } else {
            // Invalid: optimum beyond the upper edge; record the edge value
            // and move to the next (smaller-Δ) case, per Theorem 2.
            let delta = hi;
            let e = cases.energy(cut, delta);
            if fallback.is_none_or(|f| e < f.2) {
                fallback = Some((cut, delta, e));
            }
        }
    }
    let (cut, delta, e) = fallback.expect("at least one case is feasible");
    Ok(build_solution(&inst, &cases, cut, delta, e))
}

/// §4.1 via the Lemma-1 binary search over cases, `O(n log n)` with an
/// `O(log n)` number of case evaluations after the sort.
///
/// Classification per probe: *valid* (interior optimum in the case's
/// classification range) returns immediately; *just-fit* (`Δ_m` below the
/// range) moves toward later cases (larger Δ); *invalid* moves toward
/// earlier cases. Boundary candidates are tracked so the search also
/// terminates correctly when no case is valid.
///
/// # Errors
///
/// Same as [`schedule_alpha_zero_in`].
pub fn schedule_alpha_zero_binary_search(
    tasks: &TaskSet,
    platform: &Platform,
) -> Result<Solution, SdemError> {
    let inst = prepare(tasks, platform)?;
    let cases = Cases::new(&inst, platform);
    let mut best: Option<(usize, f64, f64)> = None;
    let consider = |cut: usize, delta: f64, e: f64, best: &mut Option<(usize, f64, f64)>| {
        if best.is_none_or(|b| e < b.2) {
            *best = Some((cut, delta, e));
        }
    };

    let (mut lo_cut, mut hi_cut) = (0usize, cases.n() - 1);
    loop {
        let cut = lo_cut + (hi_cut - lo_cut) / 2;
        if let Some((lo, hi)) = cases.case_box(cut) {
            let dm = cases.interior_optimum(cut);
            let class_lo = cases.interval - cases.d[cut];
            let class_hi = if cut == 0 {
                f64::INFINITY
            } else {
                cases.interval - cases.d[cut - 1]
            };
            let delta = dm.clamp(lo, hi);
            let e = cases.energy(cut, delta);
            consider(cut, delta, e, &mut best);
            if dm >= class_lo && dm < class_hi {
                // Valid: Lemma 1 proves the unique valid case is global —
                // unless the speed cap clipped it, in which case the clipped
                // candidate is already recorded and neighbours must still be
                // probed via the boundary candidates below.
                if delta == dm || (dm <= hi && dm >= lo) {
                    return Ok(build_solution(&inst, &cases, cut, delta, e));
                }
            }
            if dm < class_lo {
                // Just-fit: true optimum lies at this edge or in later cases.
                if cut == hi_cut {
                    break;
                }
                lo_cut = cut + 1;
                continue;
            }
            // Invalid: move toward earlier cases.
            if cut == lo_cut {
                break;
            }
            hi_cut = cut - 1;
        } else {
            // Empty box (speed cap): smaller Δ needed ⇒ earlier cases.
            if cut == lo_cut {
                break;
            }
            hi_cut = cut - 1;
        }
    }
    // Also probe the final bracket edges for the boundary optimum.
    for cut in [
        lo_cut,
        hi_cut,
        lo_cut.saturating_sub(1),
        (hi_cut + 1).min(cases.n() - 1),
    ] {
        if let Some((delta, e)) = cases.case_optimum(cut) {
            consider(cut, delta, e, &mut best);
        }
    }
    let (cut, delta, e) = best.expect("at least one case is feasible");
    Ok(build_solution(&inst, &cases, cut, delta, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_power::{CorePower, MemoryPower};
    use sdem_sim::{simulate, SleepPolicy};
    use sdem_types::{Cycles, Speed, Watts};

    fn sec(v: f64) -> Time {
        Time::from_secs(v)
    }

    /// β = 1, λ = 3, α = 0, α_m configurable, unbounded speeds.
    fn platform(alpha_m: f64) -> Platform {
        Platform::new(
            CorePower::simple(0.0, 1.0, 3.0),
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
    fn single_task_closed_form() {
        // One task, d = 10, w = 2, α_m = 4, β = 1, λ = 3.
        // E(Δ) = 4(10−Δ) + 8(10−Δ)^{−2} ⇒ window* = (2·8/4)^{1/3} = 4^{1/3}·... :
        // dE/dT = 4 − 16 T^{−3} = 0 ⇒ T = (16/4)^{1/3} = 4^{1/3}.
        let p = platform(4.0);
        let tasks = tset(&[(10.0, 2.0)]);
        let sol = schedule_alpha_zero_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let t_star = (2.0f64 * 8.0 / 4.0).powf(1.0 / 3.0);
        assert!((sol.memory_sleep().as_secs() - (10.0 - t_star)).abs() < 1e-9);
        sol.schedule().validate(&tasks).unwrap();
    }

    #[test]
    fn zero_memory_power_means_all_filled() {
        let p = platform(0.0);
        let tasks = tset(&[(4.0, 2.0), (6.0, 3.0), (10.0, 1.0)]);
        let sol = schedule_alpha_zero_in(&tasks, &p, &mut Workspace::new()).unwrap();
        // With α_m = 0 nothing is gained by sleeping: every task fills its
        // region.
        assert!(sol.memory_sleep().as_secs().abs() < 1e-9);
        for t in tasks.iter() {
            let pl = sol.schedule().placement(t.id()).unwrap();
            assert!((pl.end().unwrap() - t.deadline()).abs().value() < 1e-9);
        }
    }

    #[test]
    fn huge_memory_power_races_to_idle() {
        // Enormous α_m: compress everything as much as s_up allows.
        let core = CorePower::simple(0.0, 1.0, 3.0).with_max_speed(Speed::from_hz(4.0));
        let p = Platform::new(core, MemoryPower::new(Watts::new(1.0e9)));
        let tasks = tset(&[(4.0, 2.0), (10.0, 8.0)]);
        let sol = schedule_alpha_zero_in(&tasks, &p, &mut Workspace::new()).unwrap();
        // Fastest possible finish: max w/s_up = 8/4 = 2 ⇒ Δ = 8.
        assert!((sol.memory_sleep().as_secs() - 8.0).abs() < 1e-6);
        sol.schedule()
            .validate_with_limits(&tasks, None, Some(Speed::from_hz(4.0)))
            .unwrap();
    }

    #[test]
    fn predicted_energy_matches_simulation() {
        let p = platform(4.0);
        let tasks = tset(&[(3.0, 2.0), (5.0, 1.0), (9.0, 4.0), (12.0, 2.5)]);
        let sol = schedule_alpha_zero_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let report = simulate(sol.schedule(), &tasks, &p, SleepPolicy::WhenProfitable).unwrap();
        assert!(
            (report.total().value() - sol.predicted_energy().value()).abs()
                < 1e-9 * sol.predicted_energy().value().max(1.0),
            "sim {} vs predicted {}",
            report.total(),
            sol.predicted_energy()
        );
    }

    #[test]
    fn three_drivers_agree() {
        let p = platform(2.5);
        for specs in [
            vec![(10.0, 2.0)],
            vec![(4.0, 2.0), (6.0, 3.0), (10.0, 1.0)],
            vec![(1.0, 0.5), (2.0, 0.5), (3.0, 0.5), (4.0, 0.5), (20.0, 0.5)],
            vec![(5.0, 4.0), (5.5, 0.1), (6.0, 0.1), (30.0, 9.0)],
        ] {
            let tasks = tset(&specs);
            let a = schedule_alpha_zero_in(&tasks, &p, &mut Workspace::new()).unwrap();
            let b = schedule_alpha_zero_scan(&tasks, &p).unwrap();
            let c = schedule_alpha_zero_binary_search(&tasks, &p).unwrap();
            let e = a.predicted_energy().value();
            assert!(
                (b.predicted_energy().value() - e).abs() < 1e-9 * e.max(1.0),
                "scan disagrees on {specs:?}: {} vs {e}",
                b.predicted_energy().value()
            );
            assert!(
                (c.predicted_energy().value() - e).abs() < 1e-9 * e.max(1.0),
                "binary search disagrees on {specs:?}: {} vs {e}",
                c.predicted_energy().value()
            );
        }
    }

    #[test]
    fn rejects_non_common_release() {
        let p = platform(1.0);
        let tasks = TaskSet::new(vec![
            Task::new(0, sec(0.0), sec(5.0), Cycles::new(1.0)),
            Task::new(1, sec(1.0), sec(6.0), Cycles::new(1.0)),
        ])
        .unwrap();
        assert_eq!(
            schedule_alpha_zero_in(&tasks, &p, &mut Workspace::new()),
            Err(SdemError::NotCommonRelease)
        );
    }

    #[test]
    fn rejects_infeasible_density() {
        let core = CorePower::simple(0.0, 1.0, 3.0).with_max_speed(Speed::from_hz(1.0));
        let p = Platform::new(core, MemoryPower::new(Watts::new(1.0)));
        let tasks = tset(&[(2.0, 5.0)]);
        assert!(matches!(
            schedule_alpha_zero_in(&tasks, &p, &mut Workspace::new()),
            Err(SdemError::InfeasibleTask(_))
        ));
    }

    #[test]
    fn interior_optimum_monotone_in_case_index_eq5() {
        // Eq. (5): Δ_{m i} increases with i (suffix sums shrink).
        let p = platform(3.0);
        let tasks = tset(&[(2.0, 1.0), (4.0, 2.0), (7.0, 1.5), (9.0, 0.5)]);
        let inst = prepare(&tasks, &p).unwrap();
        let cases = Cases::new(&inst, &p);
        for cut in 1..cases.n() {
            assert!(
                cases.interior_optimum(cut) >= cases.interior_optimum(cut - 1),
                "Eq. 5 violated at cut {cut}"
            );
        }
    }

    #[test]
    fn energy_continuous_across_case_boundaries() {
        let p = platform(3.0);
        let tasks = tset(&[(2.0, 1.0), (4.0, 2.0), (7.0, 1.5)]);
        let inst = prepare(&tasks, &p).unwrap();
        let cases = Cases::new(&inst, &p);
        // Boundary between cut = 1 and cut = 2 is Δ = |I| − d_1.
        let b = cases.interval - cases.d[1];
        assert!((cases.energy(1, b) - cases.energy(2, b)).abs() < 1e-9);
    }

    #[test]
    fn optimal_beats_grid_of_alternatives() {
        let p = platform(4.0);
        let tasks = tset(&[(3.0, 2.0), (6.0, 1.0), (9.0, 3.0)]);
        let sol = schedule_alpha_zero_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let inst = prepare(&tasks, &p).unwrap();
        let cases = Cases::new(&inst, &p);
        let best = sol.predicted_energy().value();
        for cut in 0..cases.n() {
            let Some((lo, hi)) = cases.case_box(cut) else {
                continue;
            };
            for k in 0..=200 {
                let delta = lo + (hi - lo) * (k as f64) / 200.0;
                assert!(
                    cases.energy(cut, delta) >= best - 1e-9 * best.max(1.0),
                    "grid point beats optimum at cut {cut}, Δ = {delta}"
                );
            }
        }
    }
}
