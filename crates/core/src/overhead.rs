//! Transition-overhead-aware schemes (paper §7): `ξ_m ≠ 0`, `ξ ≠ 0`.
//!
//! When sleep round trips cost energy, the §4 analysis changes in two ways:
//!
//! * each task's baseline speed becomes the **constrained critical speed**
//!   `s_c` — `s_m` is only worth targeting when the idle tail it creates is
//!   at least the core's break-even `ξ`, otherwise the task fills its
//!   region ([`sdem_power::CorePower::constrained_critical_speed`]);
//! * whether the common idle tail `Δ` is worth creating at all depends on
//!   how `Δ` compares with `ξ` and `ξ_m` — the paper's **Table 3**.
//!
//! This module evaluates §7 under the *horizon convention* (see
//! `sdem-sim`): every core and the memory are powered across the whole
//! maximal interval `[0, |I|]`; each trailing idle gap is then priced at
//! `min(idle-awake, round-trip)`, which is exactly the component-wise
//! optimal decision Table 3 encodes. [`schedule_common_release_in`]
//! enumerates the §4.2-style cases with the `s_c` ordering and, per case,
//! evaluates the full candidate set {Eq. 8 optimum (cores sleep with the
//! memory), Eq. 4 optimum (cores idle awake), `ξ`, `ξ_m`, `0`, case
//! edges} with exact pricing — a superset of the paper's Table 3 rows, so
//! it is never worse.
//!
//! [`classify_table3`] reproduces the published decision table literally
//! and is unit-tested row by row.

use sdem_power::{CorePower, MemoryPower, Platform};
use sdem_types::{CoreId, Joules, Placement, Schedule, Segment, TaskSet, Time, Workspace};

use crate::common_release::{completion_order_into, prepare_in};
use crate::{SdemError, Solution};

/// The decision rows of the paper's Table 3 for a case optimum `Δ_mi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table3Row {
    /// `Δ_mi ≥ ξ, ξ_m`: sleep both — `Δ^{(ξ)} = Δ_mi`.
    SleepBoth,
    /// `ξ ≤ Δ_mi < ξ_m`: the memory round trip never pays off —
    /// `Δ^{(ξ)} = 0`, all cores execute at `s_c`.
    NoSleepAllCritical,
    /// `ξ_m ≤ Δ_mi < ξ`: evaluate the three subcases
    /// `{Δ_mi, ξ, 0}` and take the cheapest.
    Evaluate,
    /// `Δ_mi < ξ, ξ_m`: `Δ^{(ξ)} = 0`, all cores at `s_c`.
    NoSleepShortTail,
}

/// Classifies a case optimum per the paper's Table 3.
///
/// # Examples
///
/// ```
/// use sdem_core::overhead::{classify_table3, Table3Row};
/// use sdem_types::Time;
///
/// let ms = Time::from_millis;
/// assert_eq!(classify_table3(ms(50.0), ms(10.0), ms(40.0)), Table3Row::SleepBoth);
/// assert_eq!(classify_table3(ms(20.0), ms(10.0), ms(40.0)), Table3Row::NoSleepAllCritical);
/// assert_eq!(classify_table3(ms(20.0), ms(30.0), ms(15.0)), Table3Row::Evaluate);
/// assert_eq!(classify_table3(ms(5.0), ms(30.0), ms(15.0)), Table3Row::NoSleepShortTail);
/// ```
pub fn classify_table3(delta_m: Time, xi: Time, xi_m: Time) -> Table3Row {
    match (delta_m >= xi, delta_m >= xi_m) {
        (true, true) => Table3Row::SleepBoth,
        (true, false) => Table3Row::NoSleepAllCritical,
        (false, true) => Table3Row::Evaluate,
        (false, false) => Table3Row::NoSleepShortTail,
    }
}

struct OverheadCases {
    /// Constrained-critical-speed completions, sorted ascending (relative).
    c: Vec<f64>,
    /// Works in completion order.
    w: Vec<f64>,
    /// `|I| = d_n` (relative): §7 keeps the components powered over the
    /// maximal interval, not just until the last completion.
    interval: f64,
    /// Suffix sums of `w^λ` and suffix maxima of `w`.
    s_wl: Vec<f64>,
    w_max: Vec<f64>,
    /// `w_k^λ` per task — the power-law factor of the dynamic energy,
    /// identical across every `(cut, Δ)` evaluation.
    wl: Vec<f64>,
    /// `c_k^{1−λ}` per task: the prefix tasks (k < cut) always run for
    /// exactly `c_k`, so their factor never depends on `Δ`.
    run_pow: Vec<f64>,
    /// `best_gap_energy(|I| − c_k)` per task, for the same reason.
    run_gap: Vec<f64>,
    alpha: f64,
    beta: f64,
    lambda: f64,
    alpha_m: f64,
    s_up: f64,
    xi: f64,
    xi_m: f64,
    /// Latest completion at `s_c` — the busy-interval baseline `c_n`.
    c_max: f64,
    /// Power models for the shared min(idle-awake, round-trip) gap pricing.
    core_model: CorePower,
    mem_model: MemoryPower,
}

impl OverheadCases {
    fn n(&self) -> usize {
        self.c.len()
    }

    /// Exact §7 system energy for case `cut` at memory sleep `delta`,
    /// horizon convention over `[0, |I|]`. Trailing idle gaps are priced by
    /// the shared power-model `best_gap_energy` (idle awake vs round trip).
    fn energy(&self, cut: usize, delta: f64) -> f64 {
        let t_end = self.c_max - delta;
        let mut total = self.alpha_m * t_end
            + self
                .mem_model
                .best_gap_energy(Time::from_secs(self.interval - t_end))
                .value();
        // Every aligned task (k ≥ cut) runs for the same `t_end`, so its
        // power-law factor and trailing-gap price are shared; the prefix
        // tasks' factors are Δ-independent and precomputed at build time.
        // Hoisting changes neither the inputs to `powf`/`best_gap_energy`
        // nor the accumulation order, so the sum is bit-identical to the
        // naive per-task recomputation.
        let t_pow = t_end.powf(1.0 - self.lambda);
        let t_gap = self
            .core_model
            .best_gap_energy(Time::from_secs(self.interval - t_end))
            .value();
        for k in 0..self.n() {
            let aligned = k >= cut;
            if self.w[k] > 0.0 {
                let run_pow = if aligned { t_pow } else { self.run_pow[k] };
                total += self.beta * self.wl[k] * run_pow;
            }
            total += if aligned {
                self.alpha * t_end + t_gap
            } else {
                self.alpha * self.c[k] + self.run_gap[k]
            };
        }
        total
    }

    /// Eq. 8 optimum (aligned cores sleep together with the memory).
    fn eq8_optimum(&self, cut: usize) -> f64 {
        if self.s_wl[cut] == 0.0 {
            return f64::INFINITY;
        }
        let denom = (self.n() - cut) as f64 * self.alpha + self.alpha_m;
        self.c_max
            - (self.beta * (self.lambda - 1.0) * self.s_wl[cut] / denom).powf(1.0 / self.lambda)
    }

    /// Eq. 4 optimum (cores stay awake; only the memory sleeps).
    fn eq4_optimum(&self, cut: usize) -> f64 {
        if self.s_wl[cut] == 0.0 || self.alpha_m == 0.0 {
            return f64::INFINITY;
        }
        self.c_max
            - (self.beta * (self.lambda - 1.0) * self.s_wl[cut] / self.alpha_m)
                .powf(1.0 / self.lambda)
    }

    fn case_box(&self, cut: usize) -> Option<(f64, f64)> {
        let lo = (self.c_max - self.c[cut]).max(0.0);
        let class_hi = if cut == 0 {
            self.c_max
        } else {
            self.c_max - self.c[cut - 1]
        };
        let speed_hi = if self.w_max[cut] == 0.0 {
            self.c_max
        } else {
            self.c_max - self.w_max[cut] / self.s_up
        };
        let hi = class_hi.min(speed_hi);
        (lo <= hi + 1e-15 * self.c_max.max(1.0)).then_some((lo, hi.max(lo)))
    }
}

/// §7 optimal scheme for common-release tasks with non-negligible
/// transition overheads (Theorem 5 + Table 3, evaluated exactly).
///
/// With `ξ = ξ_m = 0` this reduces to the §4.2 scheme.
///
/// The case tables, sort scratch and the returned schedule's arenas are
/// all drawn from `ws`, so a warmed workspace makes the solve
/// allocation-free. Recycle the solution's schedule back into `ws` when
/// done with it.
///
/// # Errors
///
/// [`SdemError::NotCommonRelease`] if releases differ;
/// [`SdemError::InfeasibleTask`] if some task needs more than `s_up`.
///
/// # Examples
///
/// ```
/// use sdem_core::overhead::schedule_common_release_in;
/// use sdem_power::Platform;
/// use sdem_types::{Task, TaskSet, Time, Cycles, Workspace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::paper_defaults(); // ξ_m = 40 ms
/// let tasks = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_millis(60.0), Cycles::new(1.2e7)),
///     Task::new(1, Time::ZERO, Time::from_millis(100.0), Cycles::new(2.4e7)),
/// ])?;
/// let sol = schedule_common_release_in(&tasks, &platform, &mut Workspace::new())?;
/// sol.schedule().validate(&tasks)?;
/// # Ok(())
/// # }
/// ```
pub fn schedule_common_release_in(
    tasks: &TaskSet,
    platform: &Platform,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    let inst = prepare_in(tasks, platform, ws)?;
    let core = platform.core();
    let r0 = inst.release;
    let interval = (tasks.latest_deadline() - r0).as_secs();

    // Constrained critical speed per task (§7), then completion order.
    let (s_m, window) = (core.critical_speed_unclamped(), Time::from_secs(interval));
    let mut order = ws.take_keyed();
    completion_order_into(
        &inst,
        |idx| {
            let t = &inst.tasks[idx];
            core.constrained_critical_speed_at(s_m, t.work(), t.filled_speed(), window)
        },
        &mut order,
    );
    let mut sorted_c = ws.take_f64s();
    sorted_c.extend(order.iter().map(|&(c, _)| c));
    let mut works = ws.take_f64s();
    works.extend(order.iter().map(|&(_, idx)| inst.tasks[idx].work().value()));
    let n = sorted_c.len();
    let lambda = core.lambda();
    // Δ-independent per-task factors, computed once for the whole candidate
    // enumeration (see `OverheadCases::energy`). Only prefix tasks
    // (k < cut ≤ n − 1) read `run_pow`/`run_gap`, so the last task has
    // none; zero-work rows never read `run_pow`, so `0^{1−λ} = ∞` is inert.
    let mut wl = ws.take_f64s();
    wl.extend(works.iter().map(|w| w.powf(lambda)));
    let mut run_pow = ws.take_f64s();
    let mut run_gap = ws.take_f64s();
    for &c in &sorted_c[..n.saturating_sub(1)] {
        run_pow.push(c.powf(1.0 - lambda));
        run_gap.push(core.best_gap_energy(Time::from_secs(interval - c)).value());
    }
    let mut s_wl = ws.take_f64s();
    s_wl.resize(n + 1, 0.0);
    let mut w_max = ws.take_f64s();
    w_max.resize(n + 1, 0.0);
    for j in (0..n).rev() {
        s_wl[j] = s_wl[j + 1] + wl[j];
        w_max[j] = w_max[j + 1].max(works[j]);
    }
    let cases = OverheadCases {
        c_max: sorted_c.last().copied().unwrap_or(0.0),
        c: sorted_c,
        w: works,
        interval,
        s_wl,
        w_max,
        wl,
        run_pow,
        run_gap,
        alpha: core.alpha().value(),
        beta: core.beta(),
        lambda,
        alpha_m: platform.memory().alpha_m().value(),
        s_up: core.max_speed().as_hz(),
        xi: core.break_even().as_secs(),
        xi_m: platform.memory().break_even().as_secs(),
        core_model: *core,
        mem_model: *platform.memory(),
    };

    // Per case, evaluate the exact energy at every distinct Table-3
    // candidate. A clamped Δ with the bits of one already priced in this
    // case prices to the same energy, which cannot win a strict `<`.
    let mut best: Option<(usize, f64, f64)> = None;
    for cut in 0..cases.n() {
        let Some((lo, hi)) = cases.case_box(cut) else {
            continue;
        };
        let candidates = [
            cases.eq8_optimum(cut),
            cases.eq4_optimum(cut),
            cases.xi,
            cases.xi_m,
            lo,
            hi,
        ];
        let mut priced = [0u64; 6];
        let mut seen = 0;
        for cand in candidates {
            if !cand.is_finite() {
                continue;
            }
            let delta = cand.clamp(lo, hi);
            if priced[..seen].contains(&delta.to_bits()) {
                continue;
            }
            priced[seen] = delta.to_bits();
            seen += 1;
            let e = cases.energy(cut, delta);
            if best.is_none_or(|b| e < b.2) {
                best = Some((cut, delta, e));
            }
        }
    }
    let (cut, delta, energy) = best.expect("the Δ = 0 case is always feasible");

    // Build the schedule: aligned tasks end at c_max − Δ, the rest run at
    // their constrained critical speed.
    let t_end = cases.c_max - delta;
    let mut placements = ws.take_placements();
    for (k, &(c_k, idx)) in order.iter().enumerate() {
        let t = &inst.tasks[idx];
        let mut segments = ws.take_segments();
        if t.work().value() > 0.0 {
            let len = if k >= cut { t_end } else { c_k };
            segments.push(Segment::new(
                r0,
                r0 + Time::from_secs(len),
                t.work() / Time::from_secs(len),
            ));
        }
        placements.push(Placement::new(t.id(), CoreId(idx), segments));
    }
    let solution = Solution::new(
        Schedule::new(placements),
        Joules::new(energy),
        Time::from_secs(delta),
    );
    ws.recycle_f64s(cases.c);
    ws.recycle_f64s(cases.w);
    ws.recycle_f64s(cases.s_wl);
    ws.recycle_f64s(cases.w_max);
    ws.recycle_f64s(cases.wl);
    ws.recycle_f64s(cases.run_pow);
    ws.recycle_f64s(cases.run_gap);
    ws.recycle_keyed(order);
    inst.recycle(ws);
    Ok(solution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_power::{CorePower, MemoryPower};
    use sdem_sim::{simulate_with_options, SimOptions, SleepPolicy};
    use sdem_types::{Cycles, Task, Watts};

    fn sec(v: f64) -> Time {
        Time::from_secs(v)
    }

    fn platform(alpha: f64, alpha_m: f64, xi: f64, xi_m: f64) -> Platform {
        Platform::new(
            CorePower::simple(alpha, 1.0, 3.0).with_break_even(sec(xi)),
            MemoryPower::new(Watts::new(alpha_m)).with_break_even(sec(xi_m)),
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
    fn table3_rows() {
        let d = Time::from_millis;
        // Row 1: Δ ≥ ξ, ξ_m.
        assert_eq!(
            classify_table3(d(80.0), d(20.0), d(40.0)),
            Table3Row::SleepBoth
        );
        // Row 2: ξ ≤ Δ < ξ_m.
        assert_eq!(
            classify_table3(d(30.0), d(20.0), d(40.0)),
            Table3Row::NoSleepAllCritical
        );
        // Row 3: ξ_m ≤ Δ < ξ.
        assert_eq!(
            classify_table3(d(30.0), d(40.0), d(20.0)),
            Table3Row::Evaluate
        );
        // Row 4: Δ < ξ, ξ_m.
        assert_eq!(
            classify_table3(d(10.0), d(40.0), d(20.0)),
            Table3Row::NoSleepShortTail
        );
        // Boundaries are inclusive on the ≥ side.
        assert_eq!(
            classify_table3(d(20.0), d(20.0), d(20.0)),
            Table3Row::SleepBoth
        );
    }

    #[test]
    fn predicted_energy_matches_horizon_simulation() {
        let p = platform(2.0, 5.0, 1.5, 2.5);
        let tasks = tset(&[(10.0, 2.0), (14.0, 4.0), (30.0, 3.0)]);
        let sol = schedule_common_release_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let horizon_end = tasks.latest_deadline();
        let opts =
            SimOptions::uniform(SleepPolicy::WhenProfitable).with_horizon(Time::ZERO, horizon_end);
        let report = simulate_with_options(sol.schedule(), &tasks, &p, opts).unwrap();
        let predicted = sol.predicted_energy().value();
        assert!(
            (report.total().value() - predicted).abs() < 1e-9 * predicted.max(1.0),
            "sim {} vs predicted {predicted}",
            report.total()
        );
    }

    #[test]
    fn zero_overhead_matches_section_4_2_schedule() {
        // With ξ = ξ_m = 0 the §7 scheme must pick the same (cut, Δ) — the
        // horizon gap terms all cost zero.
        let p = platform(4.0, 6.0, 0.0, 0.0);
        let tasks = tset(&[(8.0, 2.0), (9.0, 4.0), (20.0, 3.0)]);
        let a = schedule_common_release_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let b = crate::solve(&tasks, &p, crate::Scheme::CommonReleaseAlphaNonzero).unwrap();
        assert!(
            (a.memory_sleep() - b.memory_sleep()).abs().as_secs() < 1e-9,
            "Δ mismatch: §7 {} vs §4.2 {}",
            a.memory_sleep(),
            b.memory_sleep()
        );
        assert!(
            (a.predicted_energy().value() - b.predicted_energy().value()).abs()
                < 1e-9 * b.predicted_energy().value(),
        );
    }

    #[test]
    fn huge_memory_break_even_suppresses_memory_sleep() {
        // ξ_m larger than any possible tail: sleeping the memory never pays
        // off; the schedule should keep the memory busy to the last
        // completion with no planned common idle (Δ ≈ 0 or the energy of
        // sleeping equals idling).
        let p = platform(0.5, 5.0, 0.0, 1e6);
        let tasks = tset(&[(10.0, 2.0), (14.0, 4.0)]);
        let sol = schedule_common_release_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let e = sol.predicted_energy().value();
        // Hand-priced "everything at the critical speed" alternative:
        // memory idles awake (ξ_m huge), cores sleep for free (ξ = 0).
        let s_m = (0.5f64 / 2.0).powf(1.0 / 3.0);
        let runs = [2.0 / s_m.max(2.0 / 10.0), 4.0 / s_m.max(4.0 / 14.0)];
        let mut manual = 5.0 * 14.0; // α_m · |I|, no profitable memory sleep
        for (w, run) in [2.0f64, 4.0].iter().zip(&runs) {
            manual += w.powi(3) / (run * run) + 0.5 * run; // β w³ run⁻² + α·run
        }
        assert!(
            e <= manual * (1.0 + 1e-6),
            "scheme {e} worse than manual all-critical {manual}"
        );
    }

    #[test]
    fn overhead_scheme_never_worse_than_overhead_naive() {
        // Price the §4.2 schedule (overhead-oblivious) under the overhead
        // platform; the §7 scheme must be at least as good.
        let p = platform(2.0, 5.0, 3.0, 4.0);
        let tasks = tset(&[(10.0, 2.0), (14.0, 4.0), (30.0, 3.0), (31.0, 1.0)]);
        let naive = crate::solve(&tasks, &p, crate::Scheme::CommonReleaseAlphaNonzero).unwrap();
        let aware = schedule_common_release_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let horizon_end = tasks.latest_deadline();
        let opts =
            SimOptions::uniform(SleepPolicy::WhenProfitable).with_horizon(Time::ZERO, horizon_end);
        let e_naive = simulate_with_options(naive.schedule(), &tasks, &p, opts)
            .unwrap()
            .total()
            .value();
        let e_aware = simulate_with_options(aware.schedule(), &tasks, &p, opts)
            .unwrap()
            .total()
            .value();
        assert!(
            e_aware <= e_naive * (1.0 + 1e-9),
            "overhead-aware {e_aware} worse than naive {e_naive}"
        );
    }

    #[test]
    fn constrained_speed_reverts_to_filled_when_tail_too_short() {
        // A single task nearly filling its region: with a big ξ the tail at
        // s_m would be shorter than ξ, so s_c = s_f and the task fills.
        let core = CorePower::simple(4.0, 1.0, 3.0).with_break_even(sec(9.0));
        let p = Platform::new(core, MemoryPower::new(Watts::new(0.1)));
        // s_m = 2^{1/3} ≈ 1.26; w = 10, |I| = 10 ⇒ tail ≈ 2.06 < 9.
        let tasks = tset(&[(10.0, 10.0)]);
        let sol = schedule_common_release_in(&tasks, &p, &mut Workspace::new()).unwrap();
        let pl = sol.schedule().placement(sdem_types::TaskId(0)).unwrap();
        assert!(
            (pl.segments()[0].speed().as_hz() - 1.0).abs() < 1e-9,
            "expected filled speed 1.0, got {}",
            pl.segments()[0].speed()
        );
    }

    #[test]
    fn agreeable_overhead_scheme_works() {
        let p = platform(0.0, 4.0, 0.0, 2.0);
        let tasks = TaskSet::new(vec![
            Task::new(0, sec(0.0), sec(3.0), Cycles::new(1.0)),
            Task::new(1, sec(5.0), sec(9.0), Cycles::new(1.0)),
        ])
        .unwrap();
        let sol = crate::solve(&tasks, &p, crate::Scheme::AgreeableOverhead).unwrap();
        sol.schedule().validate(&tasks).unwrap();
    }
}
