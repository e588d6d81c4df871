//! The branch-and-bound tier: exact results past the enumeration ceiling.
//!
//! A best-first depth-first search over the same assignment space as the
//! exact enumerator, with three additions that preserve its semantics
//! bit-for-bit while visiting a fraction of the tree:
//!
//! * **LPT incumbent** — the greedy LPT assignment, evaluated through the
//!   same canonical leaf path as every search leaf, seeds the cutoff, so
//!   pruning is effective from the first node;
//! * **water-filling bound** — for a partial assignment the remaining
//!   work is spread continuously to equalize the smallest loads (the
//!   convex relaxation of Σ W_c^λ), and the deadline-aware Eq. 3 energy
//!   of that relaxed vector is an admissible lower bound: no subtree
//!   containing an optimal leaf is ever pruned, because the prune test
//!   keeps a `1e-9` relative slack above the cutoff;
//! * **canonical leaf evaluation** — a leaf's loads are re-accumulated in
//!   original task-index order under first-use core relabeling, i.e. the
//!   exact float operation sequence of the enumerator's leaf, and ties on
//!   bitwise-equal energy resolve to the lexicographically smallest
//!   canonical restricted-growth string — the enumerator's DFS-first
//!   winner. Together these make [`solve_bnb_in`] bit-identical to
//!   [`solve_exact_in`](super::solve_exact_in) on every instance both
//!   accept.
//!
//! Tasks branch in the shared LPT total order (largest first), which both
//! tightens the bound early and reuses the one deterministic order the
//! LPT tier sorts by. Children of a node are expanded in ascending
//! lower-bound order (best-first), falling back to core index on ties.

use sdem_power::Platform;
use sdem_types::{Joules, TaskSet, Time, Workspace};

use super::lpt::lpt_assign;
use super::{
    assemble_schedule, common_window, heaviest_task, lpt_order_into, partition_energy, BNB_LIMIT,
    EXACT_LIMIT,
};
use crate::{SdemError, Solution};

/// Node budget for instances past [`EXACT_LIMIT`]: the search expands at
/// most this many nodes, then returns the best incumbent found so far
/// (still deterministic — the budget is a pure function of the input).
/// Within the enumerator's own range the budget is unlimited so the
/// bit-identity guarantee is unconditional.
const BNB_NODE_BUDGET: u64 = 2_000_000;

/// Branch-and-bound bounded-core optimum (see the module docs). Accepts
/// up to [`BNB_LIMIT`] tasks; on `n ≤` [`EXACT_LIMIT`] the result is
/// bit-identical to [`solve_exact_in`](super::solve_exact_in).
///
/// # Errors
///
/// * [`SdemError::TooLarge`] if `tasks.len() > BNB_LIMIT`;
/// * [`SdemError::NoCores`] if `cores == 0`;
/// * [`SdemError::NotCommonRelease`] unless all releases and deadlines
///   coincide;
/// * [`SdemError::InfeasibleTask`] when even the fastest schedule misses
///   the deadline.
pub fn solve_bnb_in(
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
    if n > BNB_LIMIT {
        return Err(SdemError::TooLarge {
            tasks: n,
            limit: BNB_LIMIT,
        });
    }
    let list = tasks.tasks();
    let (r0, deadline) = common_window(tasks)?;

    let mut soa = ws.take_soa();
    tasks.fill_soa(&mut soa);
    let mut order = ws.take_usizes();
    lpt_order_into(&soa.works, &mut order);

    // Seed the incumbent with the LPT assignment, evaluated through the
    // same canonical leaf path as every search leaf.
    let mut part = ws.take_partition();
    lpt_assign(&soa.works, &order, cores, &mut part);

    let mut relabel = ws.take_usizes();
    let mut rgs = ws.take_usizes();
    let mut leaf_loads = ws.take_f64s();
    let mut best_rgs = ws.take_usizes();
    let mut best: Option<(Time, f64)> = None;
    if let Some((t, e)) = canonical_eval(
        part.assignment(),
        &soa.works,
        platform,
        deadline,
        cores,
        &mut relabel,
        &mut rgs,
        &mut leaf_loads,
    ) {
        best_rgs.extend_from_slice(&rgs);
        best = Some((t, e.value()));
    }

    // Suffix sums of remaining work in branch (LPT) order.
    let mut rem = ws.take_f64s();
    rem.resize(n + 1, 0.0);
    for j in (0..n).rev() {
        rem[j] = rem[j + 1] + soa.works[order[j]];
    }

    let core = platform.core();
    let (beta, lambda) = (core.beta(), core.lambda());
    let alpha_m = platform.memory().alpha_m().value();
    let mut assignment = ws.take_usizes();
    assignment.resize(n, 0);
    let mut loads = ws.take_f64s();
    loads.resize(cores, 0.0);
    let mut search = Search {
        works: &soa.works,
        order: &order,
        rem: &rem,
        platform,
        deadline,
        d_secs: deadline.as_secs(),
        s_up: core.max_speed().as_hz(),
        beta,
        lambda,
        alpha_m,
        eq3_const: alpha_m.powf((lambda - 1.0) / lambda)
            * beta.powf(1.0 / lambda)
            * lambda
            * (lambda - 1.0).powf((1.0 - lambda) / lambda),
        cores,
        budget: if n <= EXACT_LIMIT {
            u64::MAX
        } else {
            BNB_NODE_BUDGET
        },
        nodes: 0,
        pruned: 0,
        assignment,
        loads,
        sort_scratch: ws.take_f64s(),
        relabel,
        rgs,
        leaf_loads,
        best_rgs,
        best,
        cutoff: best.map_or(f64::INFINITY, |(_, e)| e),
    };
    search.dfs(0, 0);

    sdem_obs::registry::add(
        sdem_obs::registry::Counter::BoundedNodesExpanded,
        search.nodes,
    );
    sdem_obs::registry::add(sdem_obs::registry::Counter::BoundedPruned, search.pruned);

    let Search {
        assignment,
        loads,
        sort_scratch,
        relabel,
        rgs,
        leaf_loads,
        best_rgs,
        best,
        ..
    } = search;
    ws.recycle_usizes(assignment);
    ws.recycle_f64s(loads);
    ws.recycle_f64s(sort_scratch);
    ws.recycle_usizes(relabel);
    ws.recycle_usizes(rgs);
    ws.recycle_f64s(leaf_loads);
    ws.recycle_usizes(order);
    ws.recycle_f64s(rem);
    ws.recycle_partition(part);

    let Some((interval, energy)) = best else {
        ws.recycle_usizes(best_rgs);
        ws.recycle_soa(soa);
        return Err(SdemError::InfeasibleTask(heaviest_task(list)));
    };

    // Canonical index-order loads of the winning assignment — the same
    // accumulation the leaf evaluation (and the enumerator) performed.
    let mut core_loads = ws.take_f64s();
    core_loads.resize(cores, 0.0);
    for (i, &c) in best_rgs.iter().enumerate() {
        core_loads[c] += soa.works[i];
    }
    let schedule = assemble_schedule(list, &best_rgs, &core_loads, interval, r0, ws);
    ws.recycle_f64s(core_loads);
    ws.recycle_usizes(best_rgs);
    ws.recycle_soa(soa);
    Ok(Solution::new(
        schedule,
        Joules::new(energy),
        deadline - interval,
    ))
}

/// Evaluates a complete assignment exactly as the enumerator evaluates a
/// leaf: cores are relabeled by first use in original task-index order,
/// loads are accumulated in that index order, and Eq. 2 prices the
/// result. `rgs` receives the canonical restricted-growth string (the
/// tie-break key); `relabel`/`leaf_loads` are scratch.
#[allow(clippy::too_many_arguments)]
fn canonical_eval(
    assignment: &[usize],
    works: &[f64],
    platform: &Platform,
    deadline: Time,
    cores: usize,
    relabel: &mut Vec<usize>,
    rgs: &mut Vec<usize>,
    leaf_loads: &mut Vec<f64>,
) -> Option<(Time, Joules)> {
    relabel.clear();
    relabel.resize(cores, usize::MAX);
    rgs.clear();
    let mut next = 0usize;
    for &c in assignment {
        if relabel[c] == usize::MAX {
            relabel[c] = next;
            next += 1;
        }
        rgs.push(relabel[c]);
    }
    leaf_loads.clear();
    leaf_loads.resize(next, 0.0);
    for (i, &c) in rgs.iter().enumerate() {
        leaf_loads[c] += works[i];
    }
    partition_energy(leaf_loads, platform, deadline)
}

struct Search<'a> {
    works: &'a [f64],
    order: &'a [usize],
    rem: &'a [f64],
    platform: &'a Platform,
    deadline: Time,
    d_secs: f64,
    s_up: f64,
    beta: f64,
    lambda: f64,
    alpha_m: f64,
    eq3_const: f64,
    cores: usize,
    budget: u64,
    nodes: u64,
    pruned: u64,
    assignment: Vec<usize>,
    loads: Vec<f64>,
    sort_scratch: Vec<f64>,
    relabel: Vec<usize>,
    rgs: Vec<usize>,
    leaf_loads: Vec<f64>,
    best_rgs: Vec<usize>,
    best: Option<(Time, f64)>,
    cutoff: f64,
}

impl Search<'_> {
    fn dfs(&mut self, depth: usize, used: usize) {
        if self.nodes >= self.budget {
            return;
        }
        if depth == self.order.len() {
            self.leaf();
            return;
        }
        let i = self.order[depth];
        let w = self.works[i];
        let after = self.rem[depth + 1];
        let limit = used.min(self.cores - 1);

        // Bound every admissible child, then expand best-first. The
        // children fit on the stack: canonical growth admits at most
        // depth + 1 ≤ BNB_LIMIT cores at this node.
        let mut children = [(0.0f64, 0usize); BNB_LIMIT];
        let mut count = 0usize;
        for c in 0..=limit {
            // A core already past the speed-cap capacity can only get
            // worse: every leaf below fails the Eq. 2 feasibility test.
            if (self.loads[c] + w) > self.s_up * self.d_secs * (1.0 + 1e-9) {
                self.pruned += 1;
                continue;
            }
            let saved = self.loads[c];
            self.loads[c] = saved + w;
            let lb = self.partial_bound(after);
            self.loads[c] = saved;
            if lb > self.cutoff * (1.0 + 1e-9) {
                self.pruned += 1;
                continue;
            }
            children[count] = (lb, c);
            count += 1;
        }
        children[..count].sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        for &(lb, c) in &children[..count] {
            // The cutoff may have tightened while earlier siblings ran.
            if lb > self.cutoff * (1.0 + 1e-9) {
                self.pruned += 1;
                continue;
            }
            if self.nodes >= self.budget {
                return;
            }
            self.nodes += 1;
            let saved = self.loads[c];
            self.loads[c] = saved + w;
            self.assignment[i] = c;
            self.dfs(depth + 1, if c == used { used + 1 } else { used });
            self.loads[c] = saved;
        }
    }

    fn leaf(&mut self) {
        let Some((t, e)) = canonical_eval(
            &self.assignment,
            self.works,
            self.platform,
            self.deadline,
            self.cores,
            &mut self.relabel,
            &mut self.rgs,
            &mut self.leaf_loads,
        ) else {
            return;
        };
        let e = e.value();
        let replace = match &self.best {
            None => true,
            Some((_, be)) => e < *be || (e == *be && self.rgs < self.best_rgs),
        };
        if replace {
            self.best_rgs.clear();
            self.best_rgs.extend_from_slice(&self.rgs);
            self.best = Some((t, e));
            self.cutoff = e;
        }
    }

    /// Admissible lower bound for the current partial loads plus
    /// `remaining` unassigned work: water-fill the remainder over the
    /// smallest loads (the continuous minimizer of Σ W_c^λ), then price
    /// the relaxed vector with the deadline-aware Eq. 3.
    fn partial_bound(&mut self, remaining: f64) -> f64 {
        self.sort_scratch.clear();
        self.sort_scratch.extend_from_slice(&self.loads);
        self.sort_scratch.sort_unstable_by(f64::total_cmp);
        let s = &self.sort_scratch;
        let mut level = s[0];
        let mut k = 1usize;
        let mut fill = remaining;
        while fill > 0.0 {
            let next = if k < self.cores { s[k] } else { f64::INFINITY };
            let need = (next - level) * k as f64;
            if need >= fill {
                level += fill / k as f64;
                break;
            }
            fill -= need;
            level = next;
            k += 1;
        }
        let mut sum_wl = k as f64 * level.powf(self.lambda);
        for &v in &s[k..] {
            sum_wl += v.powf(self.lambda);
        }
        self.bound_energy(sum_wl)
    }

    /// `min over t ∈ (0, deadline] of β·Σ·t^{1−λ} + α_m·t` — Eq. 3 when
    /// the interior optimum fits the window, the deadline-clamped Eq. 2
    /// energy otherwise (that branch also covers `α_m = 0`).
    fn bound_energy(&self, sum_wl: f64) -> f64 {
        if sum_wl <= 0.0 {
            return 0.0;
        }
        let interior = if self.alpha_m > 0.0 {
            (self.beta * (self.lambda - 1.0) * sum_wl / self.alpha_m).powf(1.0 / self.lambda)
        } else {
            f64::INFINITY
        };
        if interior <= self.d_secs {
            self.eq3_const * sum_wl.powf(1.0 / self.lambda)
        } else {
            self.beta * sum_wl * self.d_secs.powf(1.0 - self.lambda) + self.alpha_m * self.d_secs
        }
    }
}
