//! Best-response block solver.
//!
//! For a fixed busy interval `[s, e]`, the cores decouple: task `k` with
//! window `L_k(s,e) = min(e, d_k) − max(s, r_k)` independently picks its run
//! length `l ∈ [w_k/s_up, L_k]` minimizing `β w^λ l^{1−λ} + α l`, whose
//! unclamped optimum is `w_k / s_m`. Substituting the per-task optimum gives
//! the *best-response energy*
//!
//! ```text
//! F(s, e) = α_m (e − s) + Σ_k E*_k( L_k(s, e) )
//! ```
//!
//! with `E*_k(L) = β w^λ l*^{1−λ} + α l*`, `l* = clamp(w/s_m, w/s_up, L)`.
//!
//! **Convexity.** `E*_k` is convex and non-increasing in `L` (strictly
//! decreasing below `w/s_m`, constant above — its flat region corresponds
//! exactly to the paper's Type-I tasks running at the critical speed `s₀`).
//! `L_k(s,e)` is concave (min of affine minus max of affine). A convex
//! non-increasing function of a concave argument is convex, so `F` is
//! jointly convex in `(s, e)` over the convex feasible region
//! `{ L_k(s,e) ≥ w_k/s_up ∀k }`. One coordinate-descent run (plus a
//! diagonal polish against corner stalls) therefore finds the block
//! optimum — the quantity the paper's `(i, j)` enumeration computes
//! piecewise. Tests verify agreement with [`crate::agreeable::algorithm1`]
//! and with a dense grid oracle.
//!
//! The solver evaluates `F` through `Terms`, which hoists each task's
//! constants once per DP and memoizes its term per window, bit-identical
//! to the from-scratch `objective` kept as the reference.

use sdem_types::numeric::minimize_unimodal;
use sdem_types::Workspace;

use super::{BlockTask, PowerParams};

/// Tolerance (relative) for the coordinate-descent stopping rule.
const DESCENT_TOL: f64 = 1e-12;
const MAX_SWEEPS: usize = 80;

/// Relative feasibility guard of the block objective: `w > 0` cycles fit
/// a window of length `L` iff `L ≥ (w/s_up)·(1 − WINDOW_TOL)`. Admission
/// ([`super::prepare_in`]) applies the same test to each task's full
/// window, so every admitted block is finite on its full interval.
pub(crate) const WINDOW_TOL: f64 = 1e-12;

/// Relative slack of the range and prefix lower bounds
/// ([`Terms::push_lower_bounds`], [`Terms::prefix_floors_into`]): each is
/// scaled by `1 − BOUND_SLACK` so that the rounding of the energy it
/// bounds (sums of `n` rounded terms, `powf` within an ulp) can never
/// lift the bound above the energy a solver returns.
const BOUND_SLACK: f64 = 1e-9;

/// Relative margin, against the largest `|time|` of a range, taken off
/// the bound's memory-busy gap: the gap and the windows behind it are
/// differences of absolute times, rounded at that magnitude.
const GAP_MARGIN: f64 = 1e-12;

/// The optimum of one block: busy interval and per-task runs.
#[derive(Debug, Clone)]
pub(crate) struct BlockSolution {
    /// Busy interval start (absolute seconds).
    pub s: f64,
    /// Busy interval end (absolute seconds).
    pub e: f64,
    /// Block energy: `α_m (e − s)` + per-task optimal run energies.
    pub energy: f64,
    /// Per-task `(start, length)` of the actual runs, parallel to the input
    /// task slice. Zero-work tasks get `(start, 0)`.
    pub runs: Vec<(f64, f64)>,
}

/// `true` when `w` cycles cannot fit a window of length `window` even at
/// `s_up` (never for zero work).
pub(crate) fn window_too_short(w: f64, window: f64, s_up: f64) -> bool {
    w != 0.0 && window < (w / s_up) * (1.0 - WINDOW_TOL)
}

/// Per-task best-response energy for a window of length `window`.
///
/// Returns `f64::INFINITY` when the window cannot accommodate the task even
/// at `s_up`.
pub(crate) fn task_best_energy(w: f64, window: f64, pw: &PowerParams) -> f64 {
    if w == 0.0 {
        return 0.0;
    }
    if window_too_short(w, window, pw.s_up) {
        return f64::INFINITY;
    }
    let l = best_run_length(w, window, pw);
    pw.beta * w.powf(pw.lambda) * l.powf(1.0 - pw.lambda) + pw.alpha * l
}

/// The per-task optimal run length inside a window of length `window`:
/// `clamp(w/s_m, w/s_up, window)`. With `α = 0` (`s_m = 0`) this fills the
/// window; otherwise it is the §4.2 critical-speed run, clamped.
pub(crate) fn best_run_length(w: f64, window: f64, pw: &PowerParams) -> f64 {
    let l_min = w / pw.s_up;
    let l_crit = if pw.s_m > 0.0 {
        w / pw.s_m
    } else {
        f64::INFINITY
    };
    l_crit.clamp(l_min, window.max(l_min))
}

/// Window length of task `k` for busy interval `[s, e]`.
#[inline]
pub(crate) fn window(t: &BlockTask, s: f64, e: f64) -> f64 {
    e.min(t.d) - s.max(t.r)
}

/// The best-response block objective `F(s, e)`, evaluated from scratch.
///
/// This is the reference [`Terms::objective`] must equal bit for bit; the
/// solvers themselves evaluate through the memo.
pub(crate) fn objective(tasks: &[BlockTask], s: f64, e: f64, pw: &PowerParams) -> f64 {
    let mut total = pw.alpha_m * (e - s);
    for t in tasks {
        total += task_best_energy(t.w, window(t, s, e), pw);
        if !total.is_finite() {
            return f64::INFINITY;
        }
    }
    total
}

/// The block objective's per-task terms over a DP's deadline-sorted
/// tasks, with the per-evaluation work hoisted out and memoized.
///
/// Built once per DP: each task's `l_min = w/s_up`, `β·w^λ`, flat
/// critical-speed run `max(w/s_m, l_min)` with that run's energy, and its
/// term on its full window. Each task then keeps a one-entry memo of its
/// last term keyed by the exact bits of its window, so a line search pays
/// `powf` only for tasks whose window moved off the flat region. Every
/// term comes from the same floating-point expression as
/// [`task_best_energy`], so [`Terms::objective`] equals [`objective`] bit
/// for bit and the solver retraces the reference's path exactly.
///
/// The columns come from `Workspace` pools; [`Terms::recycle`] returns
/// them.
pub(crate) struct Terms {
    pw: PowerParams,
    /// `1 − λ`, the exponent of every run-length power.
    exponent: f64,
    r: Vec<f64>,
    d: Vec<f64>,
    w: Vec<f64>,
    /// `w / s_up`.
    l_min: Vec<f64>,
    /// `β·w^λ`.
    bw: Vec<f64>,
    /// `max(w/s_m, l_min)`: the run on the flat region of `E*`.
    flat_run: Vec<f64>,
    /// The term at `flat_run`.
    flat_term: Vec<f64>,
    /// The term on the full window `d − r`.
    full_term: Vec<f64>,
    /// Last window evaluated per task (NaN: none yet) and its term.
    memo_window: Vec<f64>,
    memo_term: Vec<f64>,
}

impl Terms {
    /// Empty terms for `pw`, with columns from `ws`.
    pub(crate) fn take(pw: PowerParams, ws: &mut Workspace) -> Self {
        Self {
            pw,
            exponent: 1.0 - pw.lambda,
            r: ws.take_f64s(),
            d: ws.take_f64s(),
            w: ws.take_f64s(),
            l_min: ws.take_f64s(),
            bw: ws.take_f64s(),
            flat_run: ws.take_f64s(),
            flat_term: ws.take_f64s(),
            full_term: ws.take_f64s(),
            memo_window: ws.take_f64s(),
            memo_term: ws.take_f64s(),
        }
    }

    /// Terms of a block's task slice, on fresh buffers.
    pub(crate) fn of(tasks: &[BlockTask], pw: &PowerParams) -> Self {
        let mut terms = Self::take(*pw, &mut Workspace::new());
        for t in tasks {
            terms.push(t.r, t.d, t.w);
        }
        terms
    }

    /// Returns the columns to `ws`'s pools.
    pub(crate) fn recycle(self, ws: &mut Workspace) {
        for column in [
            self.r,
            self.d,
            self.w,
            self.l_min,
            self.bw,
            self.flat_run,
            self.flat_term,
            self.full_term,
            self.memo_window,
            self.memo_term,
        ] {
            ws.recycle_f64s(column);
        }
    }

    /// Appends the next task in deadline order.
    pub(crate) fn push(&mut self, r: f64, d: f64, w: f64) {
        let pw = &self.pw;
        let l_min = w / pw.s_up;
        let l_crit = if pw.s_m > 0.0 {
            w / pw.s_m
        } else {
            f64::INFINITY
        };
        let flat_run = l_crit.max(l_min);
        let bw = pw.beta * w.powf(pw.lambda);
        self.r.push(r);
        self.d.push(d);
        self.w.push(w);
        self.l_min.push(l_min);
        self.bw.push(bw);
        self.flat_run.push(flat_run);
        self.flat_term
            .push(bw * flat_run.powf(self.exponent) + pw.alpha * flat_run);
        self.memo_window.push(f64::NAN);
        self.memo_term.push(0.0);
        let k = self.w.len() - 1;
        let full = self.term(k, d - r);
        self.full_term.push(full);
    }

    /// Task `k`'s term for a window of length `window`: the value of
    /// [`task_best_energy`], from the hoisted constants.
    fn term(&self, k: usize, window: f64) -> f64 {
        let w = self.w[k];
        if w == 0.0 {
            return 0.0;
        }
        let l_min = self.l_min[k];
        if window < l_min * (1.0 - WINDOW_TOL) {
            return f64::INFINITY;
        }
        // `clamp(w/s_m, l_min, max(window, l_min))`, the run of
        // [`best_run_length`], written through the flat run.
        let l = self.flat_run[k].min(window.max(l_min));
        if l == self.flat_run[k] {
            self.flat_term[k]
        } else {
            self.bw[k] * l.powf(self.exponent) + self.pw.alpha * l
        }
    }

    /// `F(s, e)` over the tasks `lo..hi`: the same sum, in the same order,
    /// as [`objective`].
    pub(crate) fn objective(&mut self, lo: usize, hi: usize, s: f64, e: f64) -> f64 {
        let mut total = self.pw.alpha_m * (e - s);
        for k in lo..hi {
            let window = e.min(self.d[k]) - s.max(self.r[k]);
            if window.to_bits() != self.memo_window[k].to_bits() {
                self.memo_term[k] = self.term(k, window);
                self.memo_window[k] = window;
            }
            total += self.memo_term[k];
            if !total.is_finite() {
                return f64::INFINITY;
            }
        }
        total
    }

    /// Solves the block of tasks `lo..hi` to its optimal busy interval,
    /// returning `(s, e, energy)`.
    ///
    /// The tasks must be non-empty, deadline-sorted and agreeable
    /// (releases also sorted), each admitted by [`super::prepare_in`].
    pub(crate) fn solve(&mut self, lo: usize, hi: usize) -> (f64, f64, f64) {
        debug_assert!(lo < hi);
        let r1 = self.r[lo];
        let d1 = self.d[lo..hi].iter().copied().fold(f64::INFINITY, f64::min);
        let rn = self.r[lo..hi]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let dn = self.d[hi - 1];

        // Start from the full interval — always feasible.
        let (mut s, mut e) = (r1, dn);
        let mut best_f = self.objective(lo, hi, s, e);
        debug_assert!(best_f.is_finite(), "full interval must be feasible");

        for _ in 0..MAX_SWEEPS {
            let (ps, pe, pf) = (s, e, best_f);

            // s-step: s ∈ [r1, s_hi(e)] with s_hi from the window constraints.
            let s_hi = (lo..hi)
                .filter(|&k| self.w[k] > 0.0)
                .map(|k| e.min(self.d[k]) - self.l_min[k])
                .fold(d1.min(e), f64::min);
            if s_hi > r1 {
                let (xs, fx) = minimize_unimodal(|x| self.objective(lo, hi, x, e), r1, s_hi, 1e-13);
                if fx <= best_f {
                    s = xs;
                    best_f = fx;
                }
            }

            // e-step: e ∈ [e_lo(s), dn].
            let e_lo = (lo..hi)
                .filter(|&k| self.w[k] > 0.0)
                .map(|k| s.max(self.r[k]) + self.l_min[k])
                .fold(rn.max(s), f64::max);
            if e_lo < dn {
                let (xe, fx) = minimize_unimodal(|x| self.objective(lo, hi, s, x), e_lo, dn, 1e-13);
                if fx <= best_f {
                    e = xe;
                    best_f = fx;
                }
            }

            // Diagonal polish: slide the whole interval (guards against
            // coordinate-descent stalls on the coupled constraint corner).
            let width = e - s;
            let t_lo = r1 - s;
            let t_hi = dn - e;
            if t_hi > t_lo {
                let (t, ft) =
                    minimize_unimodal(|t| self.objective(lo, hi, s + t, e + t), t_lo, t_hi, 1e-13);
                if ft < best_f {
                    s += t;
                    e = s + width;
                    best_f = ft;
                }
            }
            let scale = best_f.abs().max(1.0);
            if (pf - best_f).abs() <= DESCENT_TOL * scale
                && (ps - s).abs() + (pe - e).abs() <= 1e-11 * (dn - r1).max(1.0)
            {
                break;
            }
        }
        (s, e, best_f)
    }

    /// Task `k`'s run `(start, length)` in busy interval `[s, e]`: it
    /// starts at `max(s, r)` and runs [`best_run_length`] (zero-work tasks
    /// get length 0).
    pub(crate) fn run(&self, k: usize, s: f64, e: f64) -> (f64, f64) {
        let start = s.max(self.r[k]);
        if self.w[k] == 0.0 {
            return (start, 0.0);
        }
        let window = e.min(self.d[k]) - start;
        (start, best_run_length(self.w[k], window, &self.pw))
    }

    /// Lower bounds on the energy of every block `[p, q)`, `p < q`,
    /// appended to `out` (`LB(p, q)` lands at `out[len + p]`).
    ///
    /// A task's window never exceeds its full window and `E*` is
    /// non-increasing, so `Σ_k E*_k(d_k − r_k)` bounds the tasks' terms;
    /// each working task `k` forces `e ≥ r_k + l_k` and `s ≤ d_k − l_k`
    /// with `l_k = (w_k/s_up)·(1 − WINDOW_TOL)`, the objective's own
    /// feasibility threshold, so the busy interval is at least
    /// `max_k(r_k + l_k) − min_k(d_k − l_k)` long. That gap is shrunk by
    /// `GAP_MARGIN` of the range's largest `|time|` and the sum by
    /// `BOUND_SLACK`, which keeps the bound at or below the energy any
    /// block solver returns despite rounding.
    pub(crate) fn push_lower_bounds(&self, q: usize, out: &mut Vec<f64>) {
        let base = out.len();
        out.resize(base + q, 0.0);
        let (mut sum, mut latest_end, mut earliest_start, mut t_abs) =
            (0.0, f64::NEG_INFINITY, f64::INFINITY, 0.0f64);
        for p in (0..q).rev() {
            sum += self.full_term[p];
            t_abs = t_abs.max(self.r[p].abs()).max(self.d[p].abs());
            if self.w[p] > 0.0 {
                let l = self.l_min[p] * (1.0 - WINDOW_TOL);
                latest_end = latest_end.max(self.r[p] + l);
                earliest_start = earliest_start.min(self.d[p] - l);
            }
            let gap = (latest_end - earliest_start - GAP_MARGIN * t_abs).max(0.0);
            out[base + p] = (sum + self.pw.alpha_m * gap) * (1.0 - BOUND_SLACK);
        }
    }

    /// Lower bounds on the DP's prefix optima into `out` (cleared):
    /// `out[p] = (Σ_{k<p} E*_k(d_k − r_k))·(1 − BOUND_SLACK) ≤ OPT(T_p)`
    /// for `p = 0..=n`. Every block of a partition of `T_p` costs at least
    /// its tasks' full-window terms, and memory energy and transitions
    /// are non-negative; `BOUND_SLACK` covers the rounding of the
    /// optimum's longer sum, as for [`Terms::push_lower_bounds`].
    pub(crate) fn prefix_floors_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.push(0.0);
        let mut sum = 0.0;
        for &term in &self.full_term {
            sum += term;
            out.push(sum * (1.0 - BOUND_SLACK));
        }
    }
}

/// Solves one block to its optimal busy interval.
///
/// `tasks` must be non-empty, deadline-sorted and agreeable (releases also
/// sorted); every task must satisfy `w/(d−r) ≤ s_up`.
pub(crate) fn solve(tasks: &[BlockTask], pw: &PowerParams) -> BlockSolution {
    let mut terms = Terms::of(tasks, pw);
    let (s, e, energy) = terms.solve(0, tasks.len());
    let runs = (0..tasks.len()).map(|k| terms.run(k, s, e)).collect();
    BlockSolution { s, e, energy, runs }
}

/// Dense grid oracle for one block: sweeps `(s, e)` over a `grid × grid`
/// lattice of the feasible rectangle. Used by tests and ablation benches.
pub(crate) fn grid_oracle(tasks: &[BlockTask], pw: &PowerParams, grid: usize) -> f64 {
    let r1 = tasks[0].r;
    let d1 = tasks.iter().map(|t| t.d).fold(f64::INFINITY, f64::min);
    let rn = tasks.iter().map(|t| t.r).fold(f64::NEG_INFINITY, f64::max);
    let dn = tasks.last().expect("non-empty").d;
    let mut best = f64::INFINITY;
    for a in 0..grid {
        let s = r1 + (d1 - r1) * (a as f64) / ((grid - 1) as f64);
        for b in 0..grid {
            let e = rn.max(s) + (dn - rn.max(s)) * (b as f64) / ((grid - 1) as f64);
            if e <= s {
                continue;
            }
            let f = objective(tasks, s, e, pw);
            if f < best {
                best = f;
            }
        }
    }
    best
}

/// Seeded deadline-sorted agreeable block tasks at the paper's magnitudes
/// (milliseconds windows, 0.1–6 Mcycles): overlapping, touching or
/// sequential windows, a fifth of them without work.
#[cfg(test)]
pub(crate) fn seeded_tasks(rng: &mut sdem_prng::ChaCha8Rng, n: usize) -> Vec<BlockTask> {
    use sdem_prng::Rng;
    let (mut r, mut d) = (0.0f64, 0.0f64);
    (0..n)
        .map(|index| {
            r += match rng.next_u64() % 3 {
                0 => 0.0,
                _ => rng.gen_range(0.0005f64..0.03),
            };
            d = (d + rng.gen_range(0.0f64..0.01)).max(r + rng.gen_range(0.004f64..0.05));
            let w = match rng.next_u64() % 5 {
                0 => 0.0,
                _ => rng.gen_range(1.0e5f64..6.0e6),
            };
            BlockTask { index, r, d, w }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_power::{CorePower, MemoryPower, Platform};
    use sdem_types::Watts;

    fn pw(alpha: f64, alpha_m: f64) -> PowerParams {
        PowerParams::of(&Platform::new(
            CorePower::simple(alpha, 1.0, 3.0),
            MemoryPower::new(Watts::new(alpha_m)),
        ))
    }

    fn bt(index: usize, r: f64, d: f64, w: f64) -> BlockTask {
        BlockTask { index, r, d, w }
    }

    #[test]
    fn memoized_objective_equals_the_reference_bit_for_bit() {
        use sdem_power::PlatformBuilder;
        use sdem_prng::{ChaCha8Rng, Rng, SeedableRng};

        let platforms = [
            Platform::paper_defaults(),
            PlatformBuilder::new().alpha_mw(0.0).build().unwrap(),
            PlatformBuilder::new()
                .alpha_mw(2000.0)
                .memory_alpha_w(40.0)
                .build()
                .unwrap(),
        ];
        let mut rng = ChaCha8Rng::seed_from_u64(0xB10C_0B1E);
        // Windows seen, by region: infeasible, clamped to l_min, sloped,
        // flat (critical run).
        let mut seen = [0usize; 4];
        for case in 0..300 {
            let p = PowerParams::of(&platforms[case % platforms.len()]);
            let n = 1 + (rng.next_u64() % 8) as usize;
            let tasks = seeded_tasks(&mut rng, n);
            let mut terms = Terms::of(&tasks, &p);
            let (r1, dn) = (tasks[0].r, tasks[n - 1].d);
            // Random points, then points placing one task's window exactly
            // on, just inside and just outside its l_min band.
            let mut points: Vec<(f64, f64)> = (0..40)
                .map(|_| {
                    let s = rng.gen_range(r1 - 0.01..dn);
                    (s, rng.gen_range(s..dn + 0.01))
                })
                .collect();
            for t in tasks.iter().filter(|t| t.w > 0.0) {
                let l_min = t.w / p.s_up;
                for f in [0.5, 1.0 - 5e-13, 1.0 - 2e-12, 1.0, 1.0 + 1e-9, 40.0] {
                    points.push((t.r, t.r + l_min * f));
                    points.push((t.d - l_min * f, t.d));
                }
            }
            // Every point twice, so the second pass reads the memo.
            let again = points.clone();
            points.extend(again);
            for (s, e) in points {
                for t in &tasks {
                    if t.w == 0.0 {
                        continue;
                    }
                    let win = window(t, s, e);
                    let l_min = t.w / p.s_up;
                    let l_crit = if p.s_m > 0.0 {
                        t.w / p.s_m
                    } else {
                        f64::INFINITY
                    };
                    seen[if window_too_short(t.w, win, p.s_up) {
                        0
                    } else if win <= l_min {
                        1
                    } else if win < l_crit.max(l_min) {
                        2
                    } else {
                        3
                    }] += 1;
                }
                let lo = (rng.next_u64() % n as u64) as usize;
                for (a, b) in [(0, n), (lo, n), (0, lo + 1)] {
                    let memo = terms.objective(a, b, s, e);
                    let reference = objective(&tasks[a..b], s, e, &p);
                    assert_eq!(
                        memo.to_bits(),
                        reference.to_bits(),
                        "case {case} [{a}, {b}) at ({s}, {e}): memo {memo} vs {reference}"
                    );
                }
            }
        }
        assert!(
            seen.iter().all(|&c| c > 0),
            "regions not all covered: {seen:?}"
        );
    }

    #[test]
    fn task_best_energy_flat_beyond_critical() {
        // α = 4, β = 1, λ = 3 ⇒ s_m = 2^{1/3}, critical run = w / s_m.
        let p = pw(4.0, 1.0);
        let w = 2.0;
        let l_crit = w / p.s_m;
        let e1 = task_best_energy(w, l_crit, &p);
        let e2 = task_best_energy(w, l_crit * 3.0, &p);
        assert!((e1 - e2).abs() < 1e-12, "flat region broken: {e1} vs {e2}");
        // Shorter windows cost more.
        assert!(task_best_energy(w, l_crit * 0.5, &p) > e1);
    }

    #[test]
    fn task_best_energy_infeasible_window() {
        let mut p = pw(0.0, 1.0);
        p.s_up = 1.0;
        assert_eq!(task_best_energy(3.0, 2.0, &p), f64::INFINITY);
        assert!(task_best_energy(3.0, 3.0, &p).is_finite());
    }

    #[test]
    fn single_task_block_matches_common_release() {
        // One task [0, 10], w = 2; α = 0, α_m = 4. The optimal busy interval
        // must end at T with α_m − 2βw³T^{−3} = 0 ⇒ T = (2·8/4)^{1/3}.
        let p = pw(0.0, 4.0);
        let tasks = [bt(0, 0.0, 10.0, 2.0)];
        let sol = solve(&tasks, &p);
        let t_star = (2.0f64 * 8.0 / 4.0).powf(1.0 / 3.0);
        // The busy-interval position is not unique for a single interior
        // task; only its width is determined.
        assert!(
            ((sol.e - sol.s) - t_star).abs() < 1e-6,
            "width {} vs {t_star}",
            sol.e - sol.s
        );
    }

    #[test]
    fn single_task_block_alpha_nonzero_uses_joint_speed() {
        // α = 4, α_m = 12 ⇒ joint speed s_cm = (16/2)^{1/3} = 2; the block
        // should shrink to w/s_cm = 1 s and the task runs at speed 2.
        let p = pw(4.0, 12.0);
        let tasks = [bt(0, 0.0, 50.0, 2.0)];
        let sol = solve(&tasks, &p);
        assert!(
            ((sol.e - sol.s) - 1.0).abs() < 1e-6,
            "block {}..{}",
            sol.s,
            sol.e
        );
        let (start, len) = sol.runs[0];
        assert!((len - 1.0).abs() < 1e-6);
        assert!(start >= sol.s - 1e-9);
    }

    #[test]
    fn solve_matches_grid_oracle() {
        let cases: Vec<(f64, f64, Vec<BlockTask>)> = vec![
            (0.0, 4.0, vec![bt(0, 0.0, 6.0, 2.0), bt(1, 1.0, 9.0, 3.0)]),
            (
                4.0,
                6.0,
                vec![
                    bt(0, 0.0, 5.0, 2.0),
                    bt(1, 2.0, 8.0, 1.0),
                    bt(2, 3.0, 12.0, 4.0),
                ],
            ),
            (1.0, 0.5, vec![bt(0, 0.0, 4.0, 1.0), bt(1, 0.5, 6.0, 2.0)]),
        ];
        for (alpha, alpha_m, tasks) in cases {
            let p = pw(alpha, alpha_m);
            let sol = solve(&tasks, &p);
            let oracle = grid_oracle(&tasks, &p, 300);
            assert!(
                sol.energy <= oracle * (1.0 + 1e-6),
                "α={alpha} αm={alpha_m}: solver {} > oracle {oracle}",
                sol.energy
            );
            assert!(
                sol.energy >= oracle * (1.0 - 2e-2),
                "α={alpha} αm={alpha_m}: solver {} ≪ oracle {oracle}",
                sol.energy
            );
        }
    }

    #[test]
    fn runs_fit_their_windows() {
        let p = pw(4.0, 6.0);
        let tasks = [
            bt(0, 0.0, 5.0, 2.0),
            bt(1, 2.0, 8.0, 1.0),
            bt(2, 3.0, 12.0, 4.0),
        ];
        let sol = solve(&tasks, &p);
        for (t, &(start, len)) in tasks.iter().zip(&sol.runs) {
            assert!(start >= t.r - 1e-9);
            assert!(start + len <= t.d + 1e-9);
            assert!(start >= sol.s - 1e-9);
            assert!(start + len <= sol.e + 1e-9, "run leaves block");
            let speed = t.w / len;
            assert!(speed <= p.s_up * (1.0 + 1e-9));
        }
    }

    #[test]
    fn speed_cap_binds() {
        let mut p = pw(0.0, 1e9);
        p.s_up = 2.0;
        // Huge memory power wants a tiny block, but s_up = 2 limits it.
        let tasks = [bt(0, 0.0, 10.0, 4.0), bt(1, 0.0, 10.0, 6.0)];
        let sol = solve(&tasks, &p);
        // Fastest possible block: max(w)/s_up = 3.
        assert!(
            (sol.e - sol.s - 3.0).abs() < 1e-6,
            "block {}",
            sol.e - sol.s
        );
    }

    #[test]
    fn zero_work_tasks_are_free() {
        let p = pw(0.0, 4.0);
        let with = solve(&[bt(0, 0.0, 10.0, 2.0), bt(1, 0.0, 10.0, 0.0)], &p);
        let without = solve(&[bt(0, 0.0, 10.0, 2.0)], &p);
        assert!((with.energy - without.energy).abs() < 1e-9);
        assert_eq!(with.runs[1].1, 0.0);
    }

    #[test]
    fn objective_is_infinite_when_infeasible() {
        let mut p = pw(0.0, 1.0);
        p.s_up = 1.0;
        let tasks = [bt(0, 0.0, 10.0, 5.0)];
        assert_eq!(objective(&tasks, 0.0, 2.0, &p), f64::INFINITY);
        assert!(objective(&tasks, 0.0, 6.0, &p).is_finite());
    }
}
