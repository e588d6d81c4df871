//! The branch-and-bound tier: exact results past the enumeration ceiling.
//!
//! A best-first depth-first search over the same assignment space as the
//! exact enumerator, with four additions that preserve its semantics
//! bit-for-bit while visiting a fraction of the tree:
//!
//! * **LPT incumbent** — the greedy LPT assignment, evaluated through the
//!   same canonical leaf path as every search leaf, seeds the cutoff, so
//!   pruning is effective from the first node;
//! * **a threshold in `Σ W^λ`** — a node is bounded by a lower bound on
//!   the `Σ_c W_c^λ` of every leaf below it, never priced in joules: once
//!   per incumbent, [`WlCeiling`] turns the incumbent's energy into the
//!   largest `Σ W^λ` whose deadline-aware Eq. 3 / clamped Eq. 2 price
//!   stays within the `1e-9` relative slack, loosened by `1 − 1e-9` for
//!   rounding. A node past it is pruned; children are expanded in
//!   ascending bound order (best-first), falling back to core index on
//!   ties. The bound is admissible, so no subtree containing an optimal
//!   leaf is ever pruned;
//! * **water-filling bound** — the remaining work is spread continuously
//!   to equalize the smallest loads, the convex minimizer of `Σ W^λ`. Once
//!   the level covers every core the bound is the per-solve constant
//!   `m · (W/m)^λ` (`W` the total work, `m` the cores);
//! * **two-core subset-sum bound** — on two cores (Theorem 1's PARTITION
//!   case) the fluid relaxation cannot see that the best final imbalance
//!   is a few hundred cycles among Mcycle tasks. Once per solve, the
//!   sorted subset sums of the [`TAIL`] smallest tasks (and of each
//!   suffix of them) are built by merging, not sorting. A node's final
//!   imbalance is then at least twice the distance from the amount that
//!   balances the two cores to the nearest sum reachable with the
//!   unassigned tail tasks placed whole and every other unassigned task
//!   as fluid. That imbalance, less `1e-10 · W` for the rounding of the
//!   table's sums, prices the node;
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
//! LPT tier sorts by; the tail tasks are therefore the last ones placed.
//!
//! **Budget contract.** Past [`EXACT_LIMIT`] the search stops after
//! [`BNB_NODE_BUDGET`] nodes and returns its incumbent. An instance whose
//! search finishes within the budget gets the enumerator's answer, the
//! same bits under any admissible bound. One that trips it gets the best
//! leaf its first nodes reached, which any change to the bound or to the
//! child order may move.

use sdem_power::Platform;
use sdem_types::{Joules, TaskSet, Time, Workspace};

use super::lpt::lpt_assign;
use super::{
    assemble_schedule, common_window, heaviest_task, lpt_order_into, partition_energy, WlCeiling,
    BNB_LIMIT, EXACT_LIMIT,
};
use crate::{SdemError, Solution};

/// Node budget for instances past [`EXACT_LIMIT`]: the search expands at
/// most this many nodes, then returns the best incumbent found so far
/// (still deterministic — the budget is a pure function of the input).
/// Within the enumerator's own range the budget is unlimited so the
/// bit-identity guarantee is unconditional.
const BNB_NODE_BUDGET: u64 = 2_000_000;

/// How many of the smallest tasks the two-core bound places whole: its
/// tables hold `2^(TAIL+1) − 1` subset sums. Of 6, 8, 10 and 12, 8 was
/// the fastest per solve on 300 paper-magnitude 15-task sets on 2 cores
/// (49, 24, 29 and 80 µs; 257, 114, 62 and 35 nodes).
const TAIL: usize = 8;

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
    let mut sums = ws.take_f64s();
    if cores == 2 {
        tail_sums_into(&soa.works, &order, &mut sums);
    }

    let core = platform.core();
    let lambda = core.lambda();
    let ceiling = WlCeiling::new(platform, deadline);
    let mut assignment = ws.take_usizes();
    assignment.resize(n, 0);
    let mut loads = ws.take_f64s();
    loads.resize(cores, 0.0);
    let mut search = Search {
        works: &soa.works,
        order: &order,
        rem: &rem,
        sums: &sums,
        platform,
        deadline,
        d_secs: deadline.as_secs(),
        s_up: core.max_speed().as_hz(),
        lambda,
        ceiling,
        balanced: cores as f64 * (rem[0] / cores as f64).powf(lambda),
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
        threshold: ceiling.of(best.map_or(f64::INFINITY, |(_, e)| e)),
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
    ws.recycle_f64s(sums);
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

/// The two-core bound's tables: for `k = 0..=min(TAIL, n)`, the sorted
/// subset sums of the `k` last tasks in branch order (the smallest), at
/// offset `2^k − 1`, each merged from the one before it and its shift by
/// the next task's work.
fn tail_sums_into(works: &[f64], order: &[usize], sums: &mut Vec<f64>) {
    sums.clear();
    sums.push(0.0);
    for k in 0..TAIL.min(order.len()) {
        let w = works[order[order.len() - 1 - k]];
        let (from, len) = ((1 << k) - 1, 1 << k);
        let (mut a, mut b) = (0, 0);
        while a < len || b < len {
            let shifted = if b < len {
                sums[from + b] + w
            } else {
                f64::INFINITY
            };
            if a < len && sums[from + a] <= shifted {
                sums.push(sums[from + a]);
                a += 1;
            } else {
                sums.push(shifted);
                b += 1;
            }
        }
    }
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
    /// The two-core tail tables ([`tail_sums_into`]); empty otherwise.
    sums: &'a [f64],
    platform: &'a Platform,
    deadline: Time,
    d_secs: f64,
    s_up: f64,
    lambda: f64,
    ceiling: WlCeiling,
    /// `m · (W/m)^λ`: the water-fill bound once the level covers every
    /// core.
    balanced: f64,
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
    /// The incumbent's [`WlCeiling`]: nodes bounded past it are pruned.
    threshold: f64,
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
            let lb = self.bound(depth + 1);
            self.loads[c] = saved;
            if lb > self.threshold {
                self.pruned += 1;
                continue;
            }
            children[count] = (lb, c);
            count += 1;
        }
        children[..count].sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        for &(lb, c) in &children[..count] {
            // The threshold may have tightened while earlier siblings ran.
            if lb > self.threshold {
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
            self.threshold = self.ceiling.of(e);
        }
    }

    /// Admissible lower bound on the `Σ W_c^λ` of every leaf below the
    /// current partial loads, with the tasks from `depth` on in branch
    /// order unassigned.
    fn bound(&mut self, depth: usize) -> f64 {
        if self.cores == 2 {
            self.two_core_bound(depth)
        } else {
            self.water_fill_bound(self.rem[depth])
        }
    }

    /// Water-fill `remaining` work over the smallest loads (the
    /// continuous minimizer of `Σ W_c^λ`).
    fn water_fill_bound(&mut self, remaining: f64) -> f64 {
        self.sort_scratch.clear();
        self.sort_scratch.extend_from_slice(&self.loads);
        self.sort_scratch.sort_unstable_by(f64::total_cmp);
        let s = &self.sort_scratch;
        let mut level = s[0];
        let mut k = 1usize;
        let mut fill = remaining;
        while fill > 0.0 {
            if k == self.cores {
                return self.balanced;
            }
            let need = (s[k] - level) * k as f64;
            if need >= fill {
                level += fill / k as f64;
                break;
            }
            fill -= need;
            level = s[k];
            k += 1;
        }
        let mut sum_wl = k as f64 * level.powf(self.lambda);
        for &v in &s[k..] {
            sum_wl += v.powf(self.lambda);
        }
        sum_wl
    }

    /// The two-core bound (module docs): the tail tasks still unassigned
    /// are placed whole, the rest are fluid, and the final loads are
    /// `(W ± D) / 2` for the smallest imbalance `D` they can reach.
    fn two_core_bound(&self, depth: usize) -> f64 {
        let n = self.order.len();
        let tail = n - n.saturating_sub(TAIL).max(depth);
        let table = &self.sums[(1 << tail) - 1..(1 << (tail + 1)) - 1];
        let fluid = self.rem[depth] - self.rem[n - tail];
        let total = self.rem[0];
        // Balancing amount: the work core 0 must still receive for the
        // two loads to meet.
        let target = (self.loads[1] + self.rem[depth] - self.loads[0]) / 2.0;
        // Reachable amounts are `[z, z + fluid]` for each table sum `z`.
        let above = table.partition_point(|&z| z <= target);
        let dist = match (above.checked_sub(1).map(|k| table[k]), table.get(above)) {
            (Some(lo), _) if target <= lo + fluid => 0.0,
            (Some(lo), Some(&hi)) => (target - lo - fluid).min(hi - target),
            (Some(lo), None) => target - lo - fluid,
            (None, Some(&hi)) => hi - target,
            (None, None) => unreachable!("every table holds the empty sum"),
        };
        let imbalance = (2.0 * dist - 1e-10 * total).clamp(0.0, total);
        ((total + imbalance) / 2.0).powf(self.lambda)
            + ((total - imbalance) / 2.0).powf(self.lambda)
    }
}
