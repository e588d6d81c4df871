//! Pins the bounded-core tiers' outputs bit for bit.
//!
//! `bounded_tiers.rs` checks that the branch-and-bound equals the exact
//! enumerator, which cannot notice both moving together. This suite folds
//! every output bit of the exact, branch-and-bound, LPT and refined tiers
//! over seeded common-window pools into FNV-1a digests and checks them
//! against absolute values:
//!
//! * `small`: 2–9 tasks on 1–4 cores, works with deliberate duplicates,
//!   generous and tight deadlines on a capped platform, so infeasible sets
//!   and deadline-clamped intervals both occur (all four tiers);
//! * `paper`: 3–9 tasks at the paper's magnitudes (Mcycles, a 60–100 ms
//!   window) on the paper platform, the `serve-cold` `bounded-auto` shape
//!   (all four tiers);
//! * `large`: 15–60 tasks on 2–8 cores (LPT and refined only);
//! * `beyond`: past the enumerator at paper magnitudes — 2 cores at 15–24
//!   tasks (Theorem 1's PARTITION case, and `serve-cold`'s `bounded-bnb`
//!   shape at 15) and 3–4 cores at 15–18 — every search finishing within
//!   the node budget (branch-and-bound only).
//!
//! An ignored `budget` pool holds 3-core sets at 20–24 tasks whose search
//! trips the node budget, so its answer is the best incumbent found
//! within it: a pruning change may lower its energy, never raise it.
//!
//! A digest folds the result kind, energy, memory-sleep, task, core and
//! segment start/end/speed bits of each solution, or the error. Do not
//! update a pinned value to make a change pass: a moved digest means the
//! change moved an output.

use sdem_core::bounded::{solve_bnb_in, solve_exact_in, solve_lpt_in, solve_refined_in};
use sdem_core::{SdemError, Solution};
use sdem_power::{CorePower, MemoryPower, Platform};
use sdem_prng::{Rng, SeedableRng, SplitMix64};
use sdem_types::{Cycles, Speed, Task, TaskSet, Time, Watts, Workspace};

/// FNV-1a over 64-bit words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn result(&mut self, result: Result<&Solution, &SdemError>) {
        match result {
            Ok(sol) => {
                self.eat(1);
                self.eat(sol.predicted_energy().value().to_bits());
                self.eat(sol.memory_sleep().as_secs().to_bits());
                let placements = sol.schedule().placements();
                self.eat(placements.len() as u64);
                for p in placements {
                    self.eat(p.task().0 as u64);
                    self.eat(p.core().0 as u64);
                    self.eat(p.segments().len() as u64);
                    for seg in p.segments() {
                        self.eat(seg.start().as_secs().to_bits());
                        self.eat(seg.end().as_secs().to_bits());
                        self.eat(seg.speed().as_hz().to_bits());
                    }
                }
            }
            Err(SdemError::InfeasibleTask(id)) => {
                self.eat(0xE770);
                self.eat(id.0 as u64);
            }
            Err(_) => self.eat(0xE771),
        }
    }
}

/// One pool entry: the set, its platform and the core budget.
type Case = (TaskSet, Platform, usize);

fn common_window(works: &[f64], deadline: Time) -> TaskSet {
    TaskSet::new(
        works
            .iter()
            .enumerate()
            .map(|(i, &w)| Task::new(i, Time::ZERO, deadline, Cycles::new(w)))
            .collect(),
    )
    .expect("non-empty seeded set")
}

/// Works in halves 0.5..8.0 (duplicates common), on `CorePower::simple`
/// platforms with `s_up` 1.5 or uncapped and `α_m` 0 or 4.
fn small_pool() -> Vec<Case> {
    let mut rng = SplitMix64::seed_from_u64(0xB0_D9_11);
    (0..120usize)
        .map(|i| {
            let n = 2 + (rng.next_u64() % 8) as usize;
            let works: Vec<f64> = (0..n)
                .map(|_| ((rng.gen_range(1.0..16.0) as u64) as f64 * 0.5).max(0.5))
                .collect();
            let deadline = Time::from_secs(rng.gen_range(2.0..50.0));
            let core = CorePower::simple(0.0, 1.0, 3.0);
            let core = if i % 3 == 0 {
                core
            } else {
                core.with_max_speed(Speed::from_hz(1.5))
            };
            let alpha_m = if i % 5 == 0 { 0.0 } else { 4.0 };
            let platform = Platform::new(core, MemoryPower::new(Watts::new(alpha_m)));
            (common_window(&works, deadline), platform, 1 + i % 4)
        })
        .collect()
}

/// Paper magnitudes: 1–6 Mcycles in a 60–100 ms common window.
fn paper_pool() -> Vec<Case> {
    let mut rng = SplitMix64::seed_from_u64(0xB0_9A9E);
    (0..90usize)
        .map(|i| {
            let n = 3 + i % 7;
            let deadline = Time::from_millis(rng.gen_range(60.0..100.0));
            let works: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0e6..6.0e6)).collect();
            (
                common_window(&works, deadline),
                Platform::paper_defaults(),
                2 + i % 3,
            )
        })
        .collect()
}

/// Paper magnitudes: `n` tasks of 1–6 Mcycles in a 60–100 ms common
/// window.
fn paper_set(n: usize, rng: &mut SplitMix64) -> TaskSet {
    let deadline = Time::from_millis(rng.gen_range(60.0..100.0));
    let works: Vec<f64> = (0..n).map(|_| rng.gen_range(1.0e6..6.0e6)).collect();
    common_window(&works, deadline)
}

/// Past the enumerator: one paper-magnitude set per shape, 2 cores at
/// 15–24 tasks, then 3 and 4 cores at 15–18.
fn beyond_pool() -> Vec<Case> {
    let mut rng = SplitMix64::seed_from_u64(0xB0_BE70D);
    let shapes = (15..=24)
        .map(|n| (n, 2))
        .chain((15..=18).flat_map(|n| [(n, 3), (n, 4)]));
    shapes
        .map(|(n, cores)| (paper_set(n, &mut rng), Platform::paper_defaults(), cores))
        .collect()
}

/// 3 cores at 20–24 paper-magnitude tasks: every search trips the node
/// budget.
fn budget_pool() -> Vec<Case> {
    let mut rng = SplitMix64::seed_from_u64(0xB0_B4D6E7);
    (0..8usize)
        .map(|i| {
            (
                paper_set(20 + i % 5, &mut rng),
                Platform::paper_defaults(),
                3,
            )
        })
        .collect()
}

/// Past the exact tiers: 15–60 tasks on 2–8 cores.
fn large_pool() -> Vec<Case> {
    let mut rng = SplitMix64::seed_from_u64(0xB0_1A26E);
    (0..24usize)
        .map(|i| {
            let n = 15 + (rng.next_u64() % 46) as usize;
            let works: Vec<f64> = (0..n)
                .map(|_| ((rng.gen_range(1.0..16.0) as u64) as f64 * 0.5).max(0.5))
                .collect();
            let platform = Platform::new(
                CorePower::simple(0.0, 1.0, 3.0),
                MemoryPower::new(Watts::new(4.0)),
            );
            (
                common_window(&works, Time::from_secs(200.0)),
                platform,
                2 + i % 7,
            )
        })
        .collect()
}

type Tier = fn(&TaskSet, &Platform, usize, &mut Workspace) -> Result<Solution, SdemError>;

const EXACT_TIERS: [(&str, Tier); 4] = [
    ("exact", solve_exact_in),
    ("bnb", solve_bnb_in),
    ("lpt", solve_lpt_in),
    ("refined", solve_refined_in),
];

fn digest(pool: &str, cases: &[Case], tiers: &[(&str, Tier)], out: &mut Vec<(String, u64)>) {
    let mut ws = Workspace::new();
    for (name, tier) in tiers {
        let mut h = Fnv::new();
        for (tasks, platform, cores) in cases {
            h.result(tier(tasks, platform, *cores, &mut ws).as_ref());
        }
        out.push((format!("{pool}/{name}"), h.0));
    }
}

fn all_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    digest("small", &small_pool(), &EXACT_TIERS, &mut out);
    digest("paper", &paper_pool(), &EXACT_TIERS, &mut out);
    digest("large", &large_pool(), &EXACT_TIERS[2..], &mut out);
    digest("beyond", &beyond_pool(), &EXACT_TIERS[1..2], &mut out);
    out
}

/// Digests recorded before the exact tier kept each core's `W^λ` across
/// its enumeration; `beyond/bnb` before the exact tiers compared
/// candidates on `Σ W^λ`.
const PINNED: &[(&str, u64)] = &[
    ("small/exact", 0x273005bdbbcca964),
    ("small/bnb", 0x273005bdbbcca964),
    ("small/lpt", 0x83ac11d0f234f1d7),
    ("small/refined", 0xa076425c4d0bef65),
    ("paper/exact", 0xfea6742f8b6f1425),
    ("paper/bnb", 0xfea6742f8b6f1425),
    ("paper/lpt", 0x3e2bdfd5118369e7),
    ("paper/refined", 0xcc0f0d0ac6002d52),
    ("large/lpt", 0xa1c25ee617e03db8),
    ("large/refined", 0x048ea312999b0539),
    ("beyond/bnb", 0x253d90c056b5dc9b),
];

/// The budget pool's energies before the exact tiers compared candidates
/// on `Σ W^λ`, when every search expanded its 2,000,000 nodes.
const BUDGET_PINNED: [u64; 8] = [
    0x3fbc91384decbcc0,
    0x3fbc50938d6327b0,
    0x3fbdfdfd070a6e6e,
    0x3fbf63360334dbfe,
    0x3fc0fe07f81f7b12,
    0x3fb9cb9845faa2fc,
    0x3fc02fdb869acc08,
    0x3fbcefc984e98bf0,
];

#[test]
fn bounded_outputs_match_the_pinned_digests() {
    let got = all_digests();
    let table: String = got
        .iter()
        .map(|(k, v)| format!("    (\"{k}\", 0x{v:016x}),\n"))
        .collect();
    assert_eq!(
        got.len(),
        PINNED.len(),
        "digest rows changed; computed:\n{table}"
    );
    let mut moved = String::new();
    for ((key, value), (pkey, pvalue)) in got.iter().zip(PINNED) {
        assert_eq!(key, pkey, "digest row order changed; computed:\n{table}");
        if value != pvalue {
            moved += &format!("{key}: digest 0x{value:016x}, pinned 0x{pvalue:016x}\n");
        }
    }
    assert!(moved.is_empty(), "outputs moved:\n{moved}");
}

/// A budget-tripped search returns its best incumbent, so a pruning
/// change may move the answer, but only to a lower energy. A moved row is
/// printed; a row that rises fails.
#[test]
#[ignore = "eight budget-tripping searches; run with --release -- --ignored"]
fn budget_tripped_searches_never_rise_in_energy() {
    let mut ws = Workspace::new();
    let mut risen = String::new();
    for (i, ((tasks, platform, cores), pinned)) in
        budget_pool().iter().zip(BUDGET_PINNED).enumerate()
    {
        let sol = solve_bnb_in(tasks, platform, *cores, &mut ws).expect("feasible");
        sol.schedule().validate(tasks).expect("valid schedule");
        let (got, was) = (sol.predicted_energy().value(), f64::from_bits(pinned));
        if got.to_bits() != pinned {
            println!(
                "budget row {i} (n = {}): {was:e} J -> {got:e} J",
                tasks.len()
            );
        }
        if got > was {
            risen += &format!("row {i}: {got:e} J above the pinned {was:e} J\n");
        }
    }
    assert!(risen.is_empty(), "budget-pool energies rose:\n{risen}");
}

#[test]
fn the_pools_reach_every_outcome() {
    // The digests only guard what the pools exercise: infeasible sets,
    // deadline-clamped and interior intervals must all occur.
    let mut ws = Workspace::new();
    let (mut infeasible, mut clamped, mut interior) = (0, 0, 0);
    for (tasks, platform, cores) in small_pool().iter().chain(&paper_pool()) {
        match solve_exact_in(tasks, platform, *cores, &mut ws) {
            Err(_) => infeasible += 1,
            Ok(sol) if sol.memory_sleep() == Time::ZERO => clamped += 1,
            Ok(_) => interior += 1,
        }
    }
    assert!(
        infeasible >= 5 && clamped >= 5 && interior >= 50,
        "infeasible {infeasible}, clamped {clamped}, interior {interior}"
    );
}
