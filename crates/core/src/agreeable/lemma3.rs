//! The §5.1.1 closed-form block solver (`α = 0`), literal to Lemma 3.
//!
//! For an `(i, j)` pair without spanning (case-3) tasks the paper derives
//! separable first-order conditions (the display after Eq. 14):
//!
//! ```text
//! Σ_{k ≤ i} ( w_k / (d_k − Δ₁) )^λ
//!   = Σ_{k > n'−j} ( w_k / (d_{n'} − r_k − Δ₂) )^λ
//!   = α_m / (β (λ−1))
//! ```
//!
//! Each side is strictly increasing in its `Δ`, so a bisection per
//! coordinate finds the interior optimum; clamping to the pair's boundary
//! (`Δ₁ ∈ (r_i, r_{i+1}]`, `Δ₂ ∈ [d_{n'}−d_{n'−j+1}, d_{n'}−d_{n'−j})`)
//! gives the local minimum of Eq. 12/14 exactly as Lemma 3 prescribes.
//! Pairs *with* spanning tasks (Eq. 13, `∂²E/∂Δ₁∂Δ₂ ≠ 0`) fall back to the
//! same coordinate descent the other solvers use.
//!
//! This is the third implementation of the block subproblem — the
//! production convex solver ([`super::block`]) and the `(i, j)` iterative
//! scheme ([`super::algorithm1`]) are the other two — and all three are
//! property-tested equal on `α = 0` instances.

use sdem_power::Platform;
use sdem_types::numeric::{bisect_increasing, minimize_unimodal};
use sdem_types::{Joules, TaskSet};

use super::block::BlockSolution;
use super::{prepare, BlockTask, PowerParams};
use crate::SdemError;

/// Solves the whole task set as a single block with the Lemma-3 closed
/// forms. Requires the `α = 0` model.
///
/// # Errors
///
/// [`SdemError::UnsupportedModel`] when the platform has non-zero core
/// static power; otherwise the same preconditions as
/// [`super::schedule_in`].
pub fn solve_single_block_lemma3(
    tasks: &TaskSet,
    platform: &Platform,
) -> Result<Joules, SdemError> {
    if !platform.core().is_alpha_zero() {
        return Err(SdemError::UnsupportedModel(
            "the Lemma-3 closed forms require α = 0 (use the generic block solver otherwise)",
        ));
    }
    let sorted = prepare(tasks, platform)?;
    let pw = PowerParams::of(platform);
    let bts: Vec<BlockTask> = sorted
        .iter()
        .enumerate()
        .map(|(index, t)| BlockTask {
            index,
            r: t.release().as_secs(),
            d: t.deadline().as_secs(),
            w: t.work().value(),
        })
        .collect();
    Ok(Joules::new(solve(&bts, &pw)))
}

/// Block objective for `α = 0` at busy interval `[s, e]` (Eq. 12–14 with
/// the windows written through min/max).
fn energy(tasks: &[BlockTask], s: f64, e: f64, pw: &PowerParams) -> f64 {
    let mut total = pw.alpha_m * (e - s);
    for t in tasks {
        if t.w == 0.0 {
            continue;
        }
        let l = e.min(t.d) - s.max(t.r);
        if l <= 0.0 || l < t.w / pw.s_up * (1.0 - 1e-12) {
            return f64::INFINITY;
        }
        total += pw.beta * t.w.powf(pw.lambda) * l.powf(1.0 - pw.lambda);
    }
    total
}

/// DP-compatible entry point: the Lemma-3 optimum as a [`BlockSolution`]
/// (with `α = 0` every task is aligned, so its run fills its window).
pub(crate) fn solve_block(tasks: &[BlockTask], pw: &PowerParams) -> BlockSolution {
    let (s, e, energy) = solve_interval(tasks, pw);
    let runs = tasks
        .iter()
        .map(|t| {
            if t.w == 0.0 {
                return (t.r.max(s), 0.0);
            }
            let start = t.r.max(s);
            let len = (t.d.min(e) - start).max(t.w / pw.s_up);
            (start, len)
        })
        .collect();
    BlockSolution { s, e, energy, runs }
}

pub(crate) fn solve(tasks: &[BlockTask], pw: &PowerParams) -> f64 {
    solve_interval(tasks, pw).2
}

fn solve_interval(tasks: &[BlockTask], pw: &PowerParams) -> (f64, f64, f64) {
    let live: Vec<&BlockTask> = tasks.iter().filter(|t| t.w > 0.0).collect();
    if live.is_empty() {
        let s = tasks.first().map_or(0.0, |t| t.r);
        return (s, s, 0.0);
    }
    let r1 = live[0].r;
    let d1 = live.iter().map(|t| t.d).fold(f64::INFINITY, f64::min);
    let rn = live.iter().map(|t| t.r).fold(f64::NEG_INFINITY, f64::max);
    let dn = live.last().expect("non-empty").d;
    let rhs = pw.alpha_m / (pw.beta * (pw.lambda - 1.0));

    // Cell breakpoints exactly as the (i, j) pairs induce them.
    let mut s_bps: Vec<f64> = live.iter().map(|t| t.r).chain([d1]).collect();
    s_bps.retain(|x| (r1..=d1).contains(x));
    s_bps.sort_by(f64::total_cmp);
    s_bps.dedup();
    let mut e_bps: Vec<f64> = live.iter().map(|t| t.d).chain([rn]).collect();
    e_bps.retain(|x| (rn..=dn).contains(x));
    e_bps.sort_by(f64::total_cmp);
    e_bps.dedup();
    let cells = |bps: &[f64]| -> Vec<(f64, f64)> {
        if bps.len() >= 2 {
            bps.windows(2).map(|w| (w[0], w[1])).collect()
        } else {
            vec![(bps[0], bps[0])]
        }
    };

    let all: Vec<BlockTask> = live.iter().map(|&&t| t).collect();
    let mut best = (r1, dn, f64::INFINITY);
    for &(sa, sb) in &cells(&s_bps) {
        for &(ea, eb) in &cells(&e_bps) {
            if eb <= sa {
                continue;
            }
            // Classification for this pair.
            let case1: Vec<&BlockTask> = all
                .iter()
                .filter(|t| t.r <= sa + 1e-15 && t.d < eb - 1e-15)
                .collect();
            let case4: Vec<&BlockTask> = all
                .iter()
                .filter(|t| t.r > sa + 1e-15 && t.d >= eb - 1e-15)
                .collect();
            let has_case3 = all.iter().any(|t| t.r <= sa + 1e-15 && t.d >= eb - 1e-15);

            let (s_opt, e_opt) = if has_case3 {
                // Eq. 13: coupled — coordinate descent within the cell.
                coupled_cell_opt(&all, (sa, sb, ea, eb), pw)
            } else {
                // Eq. 12/14: separable first-order conditions.
                // dE/ds = −α_m + β(λ−1) Σ_case1 w^λ (d−s)^{−λ}, increasing
                // in s; root where Σ (w/(d−s))^λ = α_m/(β(λ−1)).
                let g_s = |s: f64| -> f64 {
                    case1
                        .iter()
                        .map(|t| (t.w / (t.d - s)).powf(pw.lambda))
                        .sum::<f64>()
                        - rhs
                };
                let s_opt = if case1.is_empty() {
                    // Energy decreases in s (only the α_m term): push right.
                    sb
                } else {
                    bisect_increasing(g_s, sa, sb, 1e-13).unwrap_or({
                        if g_s(sa) > 0.0 {
                            sa
                        } else {
                            sb
                        }
                    })
                };
                let g_e = |e: f64| -> f64 {
                    rhs - case4
                        .iter()
                        .map(|t| (t.w / (e - t.r)).powf(pw.lambda))
                        .sum::<f64>()
                };
                let e_opt = if case4.is_empty() {
                    ea.max(s_opt)
                } else {
                    bisect_increasing(g_e, ea.max(s_opt), eb, 1e-13).unwrap_or({
                        if g_e(eb) < 0.0 {
                            eb
                        } else {
                            ea.max(s_opt)
                        }
                    })
                };
                (s_opt, e_opt)
            };
            if e_opt > s_opt {
                let val = energy(&all, s_opt, e_opt, pw);
                if val < best.2 {
                    best = (s_opt, e_opt, val);
                }
            }
        }
    }
    best
}

/// Coordinate descent for the coupled (case-3) pairs, within one cell.
fn coupled_cell_opt(
    tasks: &[BlockTask],
    (sa, sb, ea, eb): (f64, f64, f64, f64),
    pw: &PowerParams,
) -> (f64, f64) {
    let (mut s, mut e) = (sa, eb);
    for _ in 0..40 {
        let (ps, pe) = (s, e);
        if sb > sa {
            let (xs, _) = minimize_unimodal(|x| energy(tasks, x, e, pw), sa, sb.min(e), 1e-13);
            s = xs;
        }
        if eb > ea {
            let (xe, _) = minimize_unimodal(|x| energy(tasks, s, x, pw), ea.max(s), eb, 1e-13);
            e = xe;
        }
        if (ps - s).abs() + (pe - e).abs() <= 1e-12 * (eb - sa).max(1.0) {
            break;
        }
    }
    (s, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agreeable::{solve_single_block, BlockSolverKind};
    use sdem_power::{CorePower, MemoryPower};
    use sdem_types::{Cycles, Task, Time, Watts};

    fn platform(alpha_m: f64) -> Platform {
        Platform::new(
            CorePower::simple(0.0, 1.0, 3.0),
            MemoryPower::new(Watts::new(alpha_m)),
        )
    }

    fn tset(specs: &[(f64, f64, f64)]) -> TaskSet {
        TaskSet::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(r, d, w))| {
                    Task::new(i, Time::from_secs(r), Time::from_secs(d), Cycles::new(w))
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn matches_the_other_block_solvers() {
        let p = platform(4.0);
        for specs in [
            vec![(0.0, 10.0, 2.0)],
            vec![(0.0, 6.0, 2.0), (1.0, 9.0, 3.0)],
            vec![(0.0, 5.0, 2.0), (2.0, 8.0, 1.0), (3.0, 12.0, 4.0)],
            vec![(0.0, 4.0, 1.0), (0.0, 8.0, 2.0)],
        ] {
            let tasks = tset(&specs);
            let lemma3 = solve_single_block_lemma3(&tasks, &p).unwrap().value();
            let br = solve_single_block(&tasks, &p, BlockSolverKind::BestResponse)
                .unwrap()
                .value();
            assert!(
                (lemma3 - br).abs() <= 1e-6 * br.max(1.0),
                "{specs:?}: Lemma 3 {lemma3} vs best-response {br}"
            );
        }
    }

    #[test]
    fn single_task_first_order_condition() {
        // One case-1 task [0, d]: (w/(d−Δ1))^λ = α_m/(β(λ−1)) at the
        // optimum ⇒ busy end at window (β(λ−1)w^λ/α_m)^{1/λ}... matches
        // the §4.1 single-task closed form.
        let p = platform(4.0);
        let tasks = tset(&[(0.0, 10.0, 2.0)]);
        let got = solve_single_block_lemma3(&tasks, &p).unwrap().value();
        let t_star = (2.0f64 * 8.0 / 4.0).powf(1.0 / 3.0);
        let expected = 4.0 * t_star + 8.0 / (t_star * t_star);
        assert!((got - expected).abs() < 1e-6, "{got} vs {expected}");
    }

    #[test]
    fn rejects_alpha_nonzero() {
        let p = Platform::new(
            CorePower::simple(2.0, 1.0, 3.0),
            MemoryPower::new(Watts::new(4.0)),
        );
        let tasks = tset(&[(0.0, 10.0, 2.0)]);
        assert!(matches!(
            solve_single_block_lemma3(&tasks, &p),
            Err(SdemError::UnsupportedModel(_))
        ));
    }
}
