//! Grid-search reference oracle for the common-release subproblems.
//!
//! For a *fixed* memory busy-interval end `T` (all execution inside
//! `[r₀, r₀+T]`), the tasks decouple: each independently picks the window
//! length `L ∈ [w/s_up, min(d, T)]` minimizing its own convex energy
//! `β w^λ L^{1−λ} + α L`, whose unclamped optimum is `w/s_m`. Sweeping `T`
//! over a dense grid therefore lower-bounds (to grid resolution) the true
//! optimum — an implementation completely independent of the paper's case
//! analysis, used to validate it.

use sdem_power::Platform;
use sdem_types::{Joules, TaskSet};

use super::{exceeds, prepare};
use crate::SdemError;

/// Dense grid search over the busy-interval length with per-task best
/// responses. `grid` is the number of sample points (≥ 2).
///
/// Returns the minimum sampled system energy. Intended for tests and
/// ablation benches; accuracy is `O(1/grid)` in `T`.
///
/// # Errors
///
/// Same preconditions as the §4 schemes: common release and per-task
/// feasibility at `s_up`.
///
/// # Panics
///
/// Panics if `grid < 2`.
///
/// # Examples
///
/// ```
/// use sdem_core::common_release::reference_optimum;
/// use sdem_core::{solve, Scheme};
/// use sdem_power::Platform;
/// use sdem_types::{Task, TaskSet, Time, Cycles};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::paper_defaults();
/// let tasks = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_millis(60.0), Cycles::new(2.0e7)),
/// ])?;
/// let oracle = reference_optimum(&tasks, &platform, 2000)?;
/// let scheme = solve(&tasks, &platform, Scheme::CommonReleaseAlphaNonzero)?;
/// assert!(scheme.predicted_energy().value() <= oracle.value() * (1.0 + 1e-6));
/// # Ok(())
/// # }
/// ```
pub fn reference_optimum(
    tasks: &TaskSet,
    platform: &Platform,
    grid: usize,
) -> Result<Joules, SdemError> {
    assert!(grid >= 2, "grid must have at least two points");
    let inst = prepare(tasks, platform)?;
    let core = platform.core();
    let (alpha, beta, lambda) = (core.alpha().value(), core.beta(), core.lambda());
    let alpha_m = platform.memory().alpha_m().value();
    let s_up = core.max_speed().as_hz();
    let s_m = core.critical_speed_unclamped().as_hz();
    let r0 = inst.release;

    struct Job {
        w: f64,
        d: f64,
    }
    let jobs: Vec<Job> = inst
        .tasks
        .iter()
        .map(|t| Job {
            w: t.work().value(),
            d: (t.deadline() - r0).as_secs(),
        })
        .collect();

    // T must at least cover the fastest possible run of the largest job.
    let t_min = jobs
        .iter()
        .map(|j| j.w / s_up)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let t_max = jobs.iter().map(|j| j.d).fold(0.0f64, f64::max);

    let task_energy = |job: &Job, t_end: f64| -> Option<f64> {
        if job.w == 0.0 {
            return Some(0.0);
        }
        let hi = job.d.min(t_end);
        let lo = job.w / s_up;
        if lo > hi * (1.0 + 1e-12) {
            return None;
        }
        // Unclamped optimum window: w/s_m (infinite when α = 0 ⇒ clamp hi).
        let l_star = if s_m > 0.0 {
            job.w / s_m
        } else {
            f64::INFINITY
        };
        let l = l_star.clamp(lo, hi);
        Some(beta * job.w.powf(lambda) * l.powf(1.0 - lambda) + alpha * l)
    };

    let mut best = f64::INFINITY;
    for k in 0..grid {
        let t_end = t_min + (t_max - t_min) * (k as f64) / ((grid - 1) as f64);
        let mut total = alpha_m * t_end;
        let mut feasible = true;
        for job in &jobs {
            match task_energy(job, t_end) {
                Some(e) => total += e,
                None => {
                    feasible = false;
                    break;
                }
            }
        }
        if feasible && total < best {
            best = total;
        }
    }
    debug_assert!(best.is_finite(), "grid contained no feasible point");
    // Feasibility precondition already verified in prepare(); re-check here
    // to keep the oracle standalone.
    for t in inst.tasks.iter() {
        if exceeds(t.filled_speed(), core.max_speed()) {
            return Err(SdemError::InfeasibleTask(t.id()));
        }
    }
    Ok(Joules::new(best))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, Scheme};
    use sdem_power::{CorePower, MemoryPower};
    use sdem_types::{Cycles, Task, Time, Watts};

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
    fn oracle_brackets_alpha_zero_scheme() {
        let p = Platform::new(
            CorePower::simple(0.0, 1.0, 3.0),
            MemoryPower::new(Watts::new(4.0)),
        );
        for specs in [
            vec![(10.0, 2.0)],
            vec![(4.0, 2.0), (6.0, 3.0), (10.0, 1.0)],
            vec![(3.0, 2.0), (5.0, 1.0), (9.0, 4.0), (12.0, 2.5)],
        ] {
            let tasks = tset(&specs);
            let scheme = solve(&tasks, &p, Scheme::CommonReleaseAlphaZero).unwrap();
            let oracle = reference_optimum(&tasks, &p, 5000).unwrap().value();
            let e = scheme.predicted_energy().value();
            assert!(
                e <= oracle * (1.0 + 1e-9),
                "{specs:?}: scheme {e} > oracle {oracle}"
            );
            assert!(
                e >= oracle * (1.0 - 5e-3),
                "{specs:?}: scheme {e} below oracle {oracle} by too much"
            );
        }
    }

    #[test]
    fn oracle_brackets_alpha_nonzero_scheme() {
        let p = Platform::new(
            CorePower::simple(4.0, 1.0, 3.0),
            MemoryPower::new(Watts::new(6.0)),
        );
        for specs in [
            vec![(100.0, 4.0)],
            vec![(8.0, 2.0), (12.0, 4.0), (30.0, 3.0)],
            vec![(8.0, 2.0), (9.0, 4.0), (20.0, 3.0), (25.0, 1.0)],
        ] {
            let tasks = tset(&specs);
            let scheme = solve(&tasks, &p, Scheme::CommonReleaseAlphaNonzero).unwrap();
            let oracle = reference_optimum(&tasks, &p, 5000).unwrap().value();
            let e = scheme.predicted_energy().value();
            assert!(
                e <= oracle * (1.0 + 1e-9),
                "{specs:?}: scheme {e} > oracle {oracle}"
            );
            assert!(
                e >= oracle * (1.0 - 5e-3),
                "{specs:?}: scheme {e} below oracle {oracle} by too much"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn rejects_tiny_grid() {
        let p = Platform::paper_defaults();
        let tasks = tset(&[(10.0, 1.0)]);
        let _ = reference_optimum(&tasks, &p, 1);
    }
}
