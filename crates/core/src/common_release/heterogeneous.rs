//! Heterogeneous-core extension of §4.2.
//!
//! The paper closes §4 with: *"all the proposed schemes in Sect. 4 can be
//! applied for heterogeneous cores with different power functions... Under
//! this case, different cores will have different critical speed `s₀`; and
//! when developing the optimal system energy `E_i^{(α)}` for Case `i`, the
//! dynamic power of different cores should be added up separately."*
//!
//! This module does exactly that: every task `j` is pinned to its own core
//! model `(α_j, β_j, λ_j)`, completions are computed at per-core critical
//! speeds, and the per-case energy — no longer a single closed form — is
//! minimized numerically over the sleep length `Δ` (each aligned term
//! `β_j w_j^{λ_j} T^{1−λ_j} + α_j T` is convex in `T`, so the case energy
//! is convex in `Δ` and golden-section search is exact).

use sdem_power::{CorePower, MemoryPower};
use sdem_types::numeric::minimize_unimodal;
use sdem_types::{CoreId, Joules, Placement, Schedule, TaskSet, Time};

use super::exceeds;
use crate::{SdemError, Solution};

/// §4.2 for heterogeneous cores: task `k` (in `tasks` construction order)
/// runs on a core with power model `cores[k]`.
///
/// # Errors
///
/// * [`SdemError::NotCommonRelease`] if releases differ;
/// * [`SdemError::InfeasibleTask`] if some task needs more than its own
///   core's maximum speed;
/// * [`SdemError::NoCores`] if `cores.len() != tasks.len()`.
///
/// # Examples
///
/// ```
/// use sdem_core::common_release::schedule_heterogeneous;
/// use sdem_power::{CorePower, MemoryPower};
/// use sdem_types::{Task, TaskSet, Time, Cycles, Watts};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let tasks = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_secs(8.0), Cycles::new(2.0)),
///     Task::new(1, Time::ZERO, Time::from_secs(12.0), Cycles::new(3.0)),
/// ])?;
/// // A big core (high static, shallow curve) and a little core.
/// let cores = [CorePower::simple(4.0, 0.5, 3.0), CorePower::simple(1.0, 2.0, 3.0)];
/// let memory = MemoryPower::new(Watts::new(5.0));
/// let sol = schedule_heterogeneous(&tasks, &cores, &memory)?;
/// sol.schedule().validate(&tasks)?;
/// # Ok(())
/// # }
/// ```
pub fn schedule_heterogeneous(
    tasks: &TaskSet,
    cores: &[CorePower],
    memory: &MemoryPower,
) -> Result<Solution, SdemError> {
    if cores.len() != tasks.len() {
        return Err(SdemError::NoCores);
    }
    if !tasks.is_common_release() {
        return Err(SdemError::NotCommonRelease);
    }
    for (t, core) in tasks.iter().zip(cores) {
        if exceeds(t.filled_speed(), core.max_speed()) {
            return Err(SdemError::InfeasibleTask(t.id()));
        }
    }
    let r0 = tasks.tasks()[0].release();

    // Per-task critical-speed completion on its own core.
    struct Job {
        idx: usize,
        c: f64,
        w: f64,
        alpha: f64,
        beta: f64,
        lambda: f64,
        s_up: f64,
    }
    let mut jobs: Vec<Job> = tasks
        .iter()
        .zip(cores)
        .enumerate()
        .map(|(idx, (t, core))| {
            let s0 = core.critical_speed(t.filled_speed());
            let w = t.work().value();
            let c = if w == 0.0 { 0.0 } else { w / s0.as_hz() };
            Job {
                idx,
                c,
                w,
                alpha: core.alpha().value(),
                beta: core.beta(),
                lambda: core.lambda(),
                s_up: core.max_speed().as_hz(),
            }
        })
        .collect();
    jobs.sort_by(|a, b| a.c.total_cmp(&b.c));
    let n = jobs.len();
    let c_max = jobs.last().expect("non-empty").c;
    let alpha_m = memory.alpha_m().value();

    // Energy of a job running over a window of length `t_run`.
    let run_energy = |j: &Job, t_run: f64| -> f64 {
        if j.w == 0.0 {
            return 0.0;
        }
        j.beta * j.w.powf(j.lambda) * t_run.powf(1.0 - j.lambda) + j.alpha * t_run
    };

    // Case `cut`: jobs `cut..n` aligned at `T = c_max − Δ`, the rest at s₀.
    let mut best: Option<(usize, f64, f64)> = None;
    let mut type_i_prefix = 0.0;
    for cut in 0..n {
        // Feasible Δ box (same construction as the homogeneous scheme, but
        // the speed cap is per-task).
        let lo = (c_max - jobs[cut].c).max(0.0);
        let class_hi = if cut == 0 {
            c_max
        } else {
            c_max - jobs[cut - 1].c
        };
        let speed_hi = jobs[cut..]
            .iter()
            .filter(|j| j.w > 0.0)
            .map(|j| c_max - j.w / j.s_up)
            .fold(c_max, f64::min);
        let hi = class_hi.min(speed_hi);
        if lo <= hi + 1e-15 * c_max.max(1.0) {
            let prefix = type_i_prefix;
            let energy_at = |delta: f64| -> f64 {
                let t_run = c_max - delta;
                let aligned: f64 = jobs[cut..].iter().map(|j| run_energy(j, t_run)).sum();
                alpha_m * t_run + aligned + prefix
            };
            let (delta, e) = minimize_unimodal(energy_at, lo, hi.max(lo), 1e-12);
            if best.is_none_or(|b| e < b.2) {
                best = Some((cut, delta, e));
            }
        }
        type_i_prefix += run_energy(&jobs[cut], jobs[cut].c);
    }
    let (cut, delta, energy) = best.expect("the Δ = 0 case is always feasible");

    // Assemble the schedule on per-task cores.
    let t_run = c_max - delta;
    let placements = jobs
        .iter()
        .enumerate()
        .map(|(k, j)| {
            let task = &tasks.tasks()[j.idx];
            if j.w == 0.0 {
                return Placement::new(task.id(), CoreId(j.idx), vec![]);
            }
            let len = if k >= cut { t_run } else { j.c };
            Placement::single(
                task.id(),
                CoreId(j.idx),
                r0,
                r0 + Time::from_secs(len),
                task.work() / Time::from_secs(len),
            )
        })
        .collect();
    Ok(Solution::new(
        Schedule::new(placements),
        Joules::new(energy),
        Time::from_secs(delta),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, Scheme};
    use sdem_power::Platform;
    use sdem_types::{Cycles, Task, Watts};

    fn sec(v: f64) -> Time {
        Time::from_secs(v)
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
    fn identical_cores_match_homogeneous_scheme() {
        let tasks = tset(&[(8.0, 2.0), (9.0, 4.0), (20.0, 3.0)]);
        let core = CorePower::simple(4.0, 1.0, 3.0);
        let memory = MemoryPower::new(Watts::new(6.0));
        let het = schedule_heterogeneous(&tasks, &[core, core, core], &memory).unwrap();
        let hom = solve(
            &tasks,
            &Platform::new(core, memory),
            Scheme::CommonReleaseAlphaNonzero,
        )
        .unwrap();
        let (a, b) = (
            het.predicted_energy().value(),
            hom.predicted_energy().value(),
        );
        assert!(
            (a - b).abs() < 1e-6 * b,
            "heterogeneous {a} vs homogeneous {b}"
        );
        assert!((het.memory_sleep() - hom.memory_sleep()).abs().as_secs() < 1e-6);
    }

    #[test]
    fn different_cores_get_different_critical_speeds() {
        let tasks = tset(&[(50.0, 2.0), (50.0, 2.0)]);
        // Core 0: s_m = (4/2)^{1/3} ≈ 1.26; core 1: s_m = (1/4)^{1/3} ≈ 0.63.
        let cores = [
            CorePower::simple(4.0, 1.0, 3.0),
            CorePower::simple(1.0, 2.0, 3.0),
        ];
        let memory = MemoryPower::new(Watts::new(1e-6)); // memory negligible
        let sol = schedule_heterogeneous(&tasks, &cores, &memory).unwrap();
        let s0 = sol
            .schedule()
            .placement(sdem_types::TaskId(0))
            .unwrap()
            .segments()[0]
            .speed();
        let s1 = sol
            .schedule()
            .placement(sdem_types::TaskId(1))
            .unwrap()
            .segments()[0]
            .speed();
        assert!((s0.as_hz() - 2.0f64.powf(1.0 / 3.0)).abs() < 1e-3, "{s0}");
        assert!((s1.as_hz() - 0.25f64.powf(1.0 / 3.0)).abs() < 1e-3, "{s1}");
    }

    #[test]
    fn heterogeneous_beats_grid_oracle() {
        let tasks = tset(&[(8.0, 2.0), (12.0, 4.0)]);
        let cores = [
            CorePower::simple(4.0, 0.5, 3.0),
            CorePower::simple(1.0, 2.0, 2.5),
        ];
        let memory = MemoryPower::new(Watts::new(5.0));
        let sol = schedule_heterogeneous(&tasks, &cores, &memory).unwrap();

        // Independent oracle: sweep the busy-interval end T; per task pick
        // the best run length in [w/s_up, min(d, T)] on its own core.
        let mut best = f64::INFINITY;
        for k in 1..4000 {
            let t_end = 12.0 * (k as f64) / 4000.0;
            let mut total = 5.0 * t_end;
            let mut ok = true;
            for (t, core) in tasks.iter().zip(&cores) {
                let w = t.work().value();
                let hi = t.deadline().as_secs().min(t_end);
                let lo = w / core.max_speed().as_hz();
                if lo > hi {
                    ok = false;
                    break;
                }
                let (lam, bet, alf) = (core.lambda(), core.beta(), core.alpha().value());
                let l_star = w / core.critical_speed_unclamped().as_hz();
                let l = l_star.clamp(lo, hi);
                total += bet * w.powf(lam) * l.powf(1.0 - lam) + alf * l;
            }
            if ok {
                best = best.min(total);
            }
        }
        let e = sol.predicted_energy().value();
        assert!(
            e <= best * (1.0 + 1e-6),
            "scheme {e} worse than oracle {best}"
        );
        assert!(
            e >= best * (1.0 - 1e-2),
            "scheme {e} far below oracle {best}"
        );
    }

    #[test]
    fn guards() {
        let tasks = tset(&[(8.0, 2.0), (12.0, 4.0)]);
        let core = CorePower::simple(1.0, 1.0, 3.0);
        let memory = MemoryPower::new(Watts::new(1.0));
        assert_eq!(
            schedule_heterogeneous(&tasks, &[core], &memory),
            Err(SdemError::NoCores)
        );
        let staggered = TaskSet::new(vec![
            Task::new(0, sec(0.0), sec(5.0), Cycles::new(1.0)),
            Task::new(1, sec(1.0), sec(6.0), Cycles::new(1.0)),
        ])
        .unwrap();
        assert_eq!(
            schedule_heterogeneous(&staggered, &[core, core], &memory),
            Err(SdemError::NotCommonRelease)
        );
        let slow = CorePower::simple(0.0, 1.0, 3.0).with_max_speed(sdem_types::Speed::from_hz(0.1));
        assert!(matches!(
            schedule_heterogeneous(&tasks, &[slow, core], &memory),
            Err(SdemError::InfeasibleTask(_))
        ));
    }
}
