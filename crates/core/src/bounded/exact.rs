//! The exact tier: canonical enumeration of every task→core assignment.
//!
//! Assignments are walked as restricted-growth strings (task 0 on core 0;
//! task `k` may open at most one new core), so each set partition is
//! visited exactly once and the lexicographically-smallest canonical
//! string among energy-optimal assignments wins. This is the reference
//! semantics the branch-and-bound tier reproduces bit-for-bit.
//!
//! A leaf is priced only if it can win: once per incumbent, [`WlCeiling`]
//! turns the incumbent's energy into the largest `Σ W_c^λ` whose
//! deadline-aware Eq. 3 / clamped Eq. 2 price stays within a `1e-9`
//! relative slack of it (loosened by `1 − 1e-9` for rounding), and a leaf
//! whose kept-power sum is past that threshold is dropped before its two
//! interval `powf`s. Such a leaf prices above the incumbent, so the strict
//! `<` would have kept the incumbent anyway: the walk order, the strict
//! comparison and so the lex-first winner are unchanged.

use sdem_power::Platform;
use sdem_types::{TaskSet, Time, Workspace};

use super::{
    assemble_schedule, common_window, heaviest_task, partition_energy_of, WlCeiling, EXACT_LIMIT,
};
use crate::{SdemError, Solution};

/// Exact bounded-core optimum by enumerating all canonical assignments of
/// `n` tasks to at most `cores` cores. Tasks must share one release time
/// and one deadline (the Theorem 1 model); core static power is taken as
/// negligible (`α = 0` model — `platform.core().alpha()` is ignored).
///
/// The walk keeps each opened core's load and `W_c^λ` as tasks are
/// placed in index order, so a leaf sums the kept powers in core order —
/// the bits of [`super::partition_energy`] on that leaf's loads — and pays
/// only the interval's own `powf`s. Enumeration scratch (the assignment,
/// the per-core loads and powers, the incumbent best assignment) and the
/// returned schedule's arenas come from `ws`.
///
/// # Errors
///
/// * [`SdemError::TooLarge`] if `tasks.len() > EXACT_LIMIT`;
/// * [`SdemError::NoCores`] if `cores == 0`;
/// * [`SdemError::NotCommonRelease`] unless all releases and deadlines
///   coincide;
/// * [`SdemError::InfeasibleTask`] when even the fastest schedule misses
///   the deadline.
///
/// # Examples
///
/// ```
/// use sdem_core::bounded::solve_exact_in;
/// use sdem_power::{CorePower, MemoryPower, Platform};
/// use sdem_types::{Task, TaskSet, Time, Cycles, Watts, Workspace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let platform = Platform::new(
///     CorePower::simple(0.0, 1.0, 3.0),
///     MemoryPower::new(Watts::new(4.0)),
/// );
/// let tasks = TaskSet::new(vec![
///     Task::new(0, Time::ZERO, Time::from_secs(10.0), Cycles::new(3.0)),
///     Task::new(1, Time::ZERO, Time::from_secs(10.0), Cycles::new(2.0)),
///     Task::new(2, Time::ZERO, Time::from_secs(10.0), Cycles::new(1.0)),
/// ])?;
/// let sol = solve_exact_in(&tasks, &platform, 2, &mut Workspace::new())?;
/// sol.schedule().validate(&tasks)?;
/// // PARTITION structure: {3} vs {2, 1} balances the loads.
/// assert_eq!(sol.schedule().cores_used(), 2);
/// # Ok(())
/// # }
/// ```
pub fn solve_exact_in(
    tasks: &TaskSet,
    platform: &Platform,
    cores: usize,
    ws: &mut Workspace,
) -> Result<Solution, SdemError> {
    if cores == 0 {
        return Err(SdemError::NoCores);
    }
    let cores = cores.min(tasks.len());
    let n = tasks.len();
    if n > EXACT_LIMIT {
        return Err(SdemError::TooLarge {
            tasks: n,
            limit: EXACT_LIMIT,
        });
    }
    let list = tasks.tasks();
    let (r0, deadline) = common_window(tasks)?;
    let mut works = ws.take_f64s();
    works.extend(list.iter().map(|t| t.work().value()));

    // Canonical enumeration: task 0 on core 0; task k may use cores
    // 0..=min(max_used+1, cores−1), so at most `n` cores ever open.
    let mut walk = Walk {
        works: &works,
        platform,
        deadline,
        cores,
        lambda: platform.core().lambda(),
        ceiling: WlCeiling::new(platform, deadline),
        threshold: f64::INFINITY,
        assign: ws.take_usizes(),
        loads: ws.take_f64s(),
        powers: ws.take_f64s(),
        best_assign: ws.take_usizes(),
        best: None,
    };
    walk.assign.resize(n, 0);
    walk.loads.resize(n, 0.0);
    walk.powers.resize(n, 0.0);
    walk.loads[0] += works[0];
    walk.powers[0] = walk.loads[0].powf(walk.lambda);
    walk.place(1, 0);
    let Walk {
        assign,
        loads,
        powers,
        best_assign,
        best,
        ..
    } = walk;
    ws.recycle_f64s(loads);
    ws.recycle_f64s(powers);
    ws.recycle_usizes(assign);
    let Some((interval, energy)) = best else {
        ws.recycle_f64s(works);
        ws.recycle_usizes(best_assign);
        // No feasible assignment: the heaviest single task cannot fit.
        return Err(SdemError::InfeasibleTask(heaviest_task(list)));
    };
    let assignment = best_assign;

    // Build the schedule: each core runs its tasks back-to-back over
    // [r0, r0 + |I_b|] at the shared speed W_c / |I_b|.
    let mut core_loads = ws.take_f64s();
    core_loads.resize(cores, 0.0);
    for (k, &c) in assignment.iter().enumerate() {
        core_loads[c] += works[k];
    }
    let schedule = assemble_schedule(list, &assignment, &core_loads, interval, r0, ws);
    ws.recycle_f64s(works);
    ws.recycle_f64s(core_loads);
    ws.recycle_usizes(assignment);
    Ok(Solution::new(
        schedule,
        sdem_types::Joules::new(energy),
        deadline - interval,
    ))
}

/// The enumeration's state: the canonical assignment walked so far, each
/// opened core's load and `W^λ`, and the incumbent with its threshold.
struct Walk<'a> {
    works: &'a [f64],
    platform: &'a Platform,
    deadline: Time,
    cores: usize,
    lambda: f64,
    ceiling: WlCeiling,
    /// The incumbent's [`WlCeiling`]: leaves past it are not priced.
    threshold: f64,
    assign: Vec<usize>,
    loads: Vec<f64>,
    powers: Vec<f64>,
    best_assign: Vec<usize>,
    best: Option<(Time, f64)>,
}

impl Walk<'_> {
    /// Places tasks `k..` with cores `0..=max_used` opened so far.
    fn place(&mut self, k: usize, max_used: usize) {
        if k == self.works.len() {
            let used = max_used + 1;
            let sum_wl: f64 = self.powers[..used].iter().copied().sum();
            if sum_wl > self.threshold {
                return;
            }
            let w_max = self.loads[..used].iter().copied().fold(0.0f64, f64::max);
            if let Some((t, e)) = partition_energy_of(sum_wl, w_max, self.platform, self.deadline) {
                if self.best.as_ref().is_none_or(|b| e.value() < b.1) {
                    self.best_assign.clear();
                    self.best_assign.extend_from_slice(&self.assign);
                    self.best = Some((t, e.value()));
                    self.threshold = self.ceiling.of(e.value());
                }
            }
            return;
        }
        let limit = (max_used + 1).min(self.cores - 1);
        for c in 0..=limit {
            // Restored from copies, not by subtraction, so every load
            // is its tasks' index-order sum.
            let (load, power) = (self.loads[c], self.powers[c]);
            self.assign[k] = c;
            self.loads[c] = load + self.works[k];
            self.powers[c] = self.loads[c].powf(self.lambda);
            self.place(k + 1, max_used.max(c));
            self.loads[c] = load;
            self.powers[c] = power;
        }
        self.assign[k] = 0;
    }
}
