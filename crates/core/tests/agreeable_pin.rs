//! Pins the agreeable-deadline DP's outputs bit for bit.
//!
//! The §5 DP (`OPT(T_q) = min_p OPT(T_p) + E_min(T_{p+1..q})`) is the
//! per-core solver of every federated DAG cell and of the
//! `agreeable-overhead` and `dag-federated` serve schemes. Its block
//! objective is memoized, its range table is pruned by a lower bound, and
//! its prefixes are priced lazily from the whole set down, a prefix whose
//! optimum is one block being settled by a single-block certificate from
//! prefix floors; none of these may move a single output bit. This suite
//! folds every output bit of those schemes over seeded pools into FNV-1a
//! digests and checks them against values recorded before any of these
//! optimizations existed:
//!
//! * serve-shaped agreeable sets of 2–4 tasks (staggered releases, long
//!   overlapping windows, times in milliseconds);
//! * the per-core chopped window sets `solve_dags` builds for one heavy
//!   plus three light generated DAGs on 4, 6 and 8 cores, and the merged
//!   DAG solutions themselves;
//! * random agreeable sets with zero-work tasks, whose free blocks make
//!   exact cost ties (and so the DP's tie-break) matter;
//! * flat common-window sets under `Scheme::DagFederated`.
//!
//! Each pool runs on the paper platform, on `α = 0`, on `ξ_m = 0` and on
//! both, under `Agreeable`, `AgreeableStrict`, `AgreeableOverhead` and
//! every `BlockSolverKind` (the Lemma-3 closed form only where `α = 0`).
//!
//! A digest folds the energy, memory-sleep, task, core and segment
//! start/end/speed bits of each solution. Do not update a pinned value to
//! make a change pass: a moved digest means the change moved an output.
//!
//! One deliberate move: the eleven `zero-work` rows of the best-response
//! DP were re-pinned when the DP stopped counting a zero-work block's
//! collapsed interval as the end or start of a memory-sleep gap. Only the
//! memory-sleep bits moved; with them left out, all rows hash as before.

use sdem_core::agreeable::{schedule_with_solver_in, BlockSolverKind};
use sdem_core::dag::solve_dags;
use sdem_core::{solve_in, Scheme, SdemError, Solution};
use sdem_power::{Platform, PlatformBuilder};
use sdem_prng::{ChaCha8Rng, Rng, SeedableRng, SplitMix64};
use sdem_types::{Cycles, Task, TaskSet, Time, Workspace};
use sdem_workload::dag::{suite, DagConfig};

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

    fn solution(&mut self, result: Result<&Solution, &SdemError>) {
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
            Err(_) => self.eat(0xE770),
        }
    }
}

/// The platforms every pool runs on: the paper's, then with core static
/// power `α = 0`, with no memory break-even (`ξ_m = 0`), and with both.
fn platforms() -> [(&'static str, Platform); 4] {
    let build = |b: PlatformBuilder| b.build().expect("valid platform");
    [
        ("paper", Platform::paper_defaults()),
        ("alpha0", build(PlatformBuilder::new().alpha_mw(0.0))),
        (
            "xim0",
            build(PlatformBuilder::new().memory_break_even(Time::ZERO)),
        ),
        (
            "alpha0-xim0",
            build(
                PlatformBuilder::new()
                    .alpha_mw(0.0)
                    .memory_break_even(Time::ZERO),
            ),
        ),
    ]
}

fn set(rows: &[(f64, f64, f64)]) -> TaskSet {
    TaskSet::new(
        rows.iter()
            .enumerate()
            .map(|(i, &(r, d, w))| {
                Task::new(
                    i,
                    Time::from_millis(r),
                    Time::from_millis(d),
                    Cycles::new(w),
                )
            })
            .collect(),
    )
    .expect("valid set")
}

/// Serve-shaped agreeable sets: 2–4 tasks, each released 1–8 ms after the
/// previous one, with 15–60 ms windows and 1–6 Mcycles of work.
fn serve_agreeable_sets(count: usize) -> Vec<TaskSet> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA9_2EE0);
    (0..count)
        .map(|k| {
            let (mut r, mut d) = (0.0f64, 0.0f64);
            let rows: Vec<(f64, f64, f64)> = (0..2 + k % 3)
                .map(|i| {
                    if i > 0 {
                        r += rng.gen_range(1.0f64..8.0);
                    }
                    d = (d + rng.gen_range(1.0f64..8.0)).max(r + rng.gen_range(15.0f64..60.0));
                    (r, d, rng.gen_range(1.0e6f64..6.0e6))
                })
                .collect();
            set(&rows)
        })
        .collect()
}

/// Random agreeable sets of 2–9 tasks where about a quarter of the tasks
/// carry no work; windows overlap, touch or leave gaps.
fn zero_work_sets(count: usize) -> Vec<TaskSet> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x2E_20F0);
    (0..count)
        .map(|_| {
            let n = 2 + (rng.next_u64() % 8) as usize;
            let (mut r, mut d) = (0.0f64, 0.0f64);
            let rows: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    r += match rng.next_u64() % 4 {
                        0 => 0.0,
                        _ => rng.gen_range(0.5f64..40.0),
                    };
                    d = (d + rng.gen_range(0.0f64..10.0)).max(r + rng.gen_range(4.0f64..50.0));
                    let w = match rng.next_u64() % 4 {
                        0 => 0.0,
                        _ => rng.gen_range(1.0e5f64..6.0e6),
                    };
                    (r, d, w)
                })
                .collect();
            set(&rows)
        })
        .collect()
}

/// Flat common-window sets of 3–8 tasks with a 2–4 core budget, the
/// shape of a `dag-federated` request.
fn federated_sets(count: usize) -> Vec<(TaskSet, usize)> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xFED_0000);
    (0..count)
        .map(|k| {
            let d = rng.gen_range(60.0f64..100.0);
            let rows: Vec<(f64, f64, f64)> = (0..3 + k % 6)
                .map(|_| (0.0, d, rng.gen_range(1.0e6f64..6.0e6)))
                .collect();
            (set(&rows), 2 + (k / 6) % 3)
        })
        .collect()
}

/// One heavy 12-node DAG in an 18 ms window plus three light 9-node DAGs
/// sharing a 120 ms frame, for `cell`.
fn dag_cell(cell: u64, platform: &Platform) -> Vec<sdem_workload::dag::Dag> {
    let s_up = platform.core().max_speed();
    let heavy = DagConfig::paper(12, Time::from_millis(18.0));
    let mut dags = (0u64..)
        .map(|k| suite(&heavy, 1, SplitMix64::mix(&[0x4EA7, cell, k])))
        .find(|d| d[0].is_heavy(s_up))
        .expect("a heavy DAG turns up within a few seeds");
    dags.extend(suite(
        &DagConfig::paper(9, Time::from_millis(120.0)),
        3,
        SplitMix64::mix(&[0x116B, cell]),
    ));
    dags
}

/// The per-core window sets of a solved DAG cell: each busy core's
/// chopped tasks, recovered from the merged schedule's placements.
fn per_core_sets(tasks: &TaskSet, sol: &Solution) -> Vec<TaskSet> {
    let mut cores: Vec<usize> = sol
        .schedule()
        .placements()
        .iter()
        .map(|p| p.core().0)
        .collect();
    cores.sort_unstable();
    cores.dedup();
    cores
        .into_iter()
        .map(|c| {
            let chosen: Vec<Task> = sol
                .schedule()
                .placements()
                .iter()
                .filter(|p| p.core().0 == c)
                .map(|p| *tasks.get(p.task()).expect("placed task exists"))
                .collect();
            TaskSet::new(chosen).expect("per-core windows form a valid set")
        })
        .collect()
}

/// The agreeable entry points the digests cover for one set.
const SCHEMES: [Scheme; 3] = [
    Scheme::Agreeable,
    Scheme::AgreeableStrict,
    Scheme::AgreeableOverhead,
];
const SOLVERS: [BlockSolverKind; 3] = [
    BlockSolverKind::BestResponse,
    BlockSolverKind::PaperIterative,
    BlockSolverKind::PaperClosedForm,
];

/// Digests of one pool: one row per platform and scheme, then one per
/// platform and block solver over every `stride`-th set (the paper's
/// iterative and closed-form solvers are far slower than the DP's own).
fn digest_pool(pool: &str, sets: &[TaskSet], stride: usize, out: &mut Vec<(String, u64)>) {
    let mut ws = Workspace::new();
    for (name, platform) in platforms() {
        for scheme in SCHEMES {
            let mut h = Fnv::new();
            for set in sets {
                h.solution(solve_in(set, &platform, scheme, &mut ws).as_ref());
            }
            out.push((format!("{pool}/{name}/{scheme:?}"), h.0));
        }
        for solver in SOLVERS {
            if solver == BlockSolverKind::PaperClosedForm && !platform.core().is_alpha_zero() {
                continue;
            }
            let mut h = Fnv::new();
            for set in sets.iter().step_by(stride) {
                h.solution(schedule_with_solver_in(set, &platform, solver, &mut ws).as_ref());
            }
            out.push((format!("{pool}/{name}/{solver:?}"), h.0));
        }
    }
}

fn all_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    digest_pool("serve", &serve_agreeable_sets(240), 4, &mut out);
    digest_pool("zero-work", &zero_work_sets(160), 4, &mut out);

    // DAG cells: the merged solutions, then every busy core's window set.
    let paper = Platform::paper_defaults();
    let mut merged = Fnv::new();
    let mut core_sets = Vec::new();
    for cell in 0..6u64 {
        let dags = dag_cell(cell, &paper);
        for cores in [4usize, 6, 8] {
            let report = solve_dags(&dags, &paper, cores);
            merged.solution(report.as_ref().map(|r| &r.solution));
            if let Ok(r) = &report {
                core_sets.extend(per_core_sets(&r.tasks, &r.solution));
            }
        }
    }
    out.push(("dag/paper/merged".to_string(), merged.0));
    digest_pool("dag-core", &core_sets, 8, &mut out);

    let mut ws = Workspace::new();
    for (name, platform) in platforms() {
        let mut h = Fnv::new();
        for (set, cores) in federated_sets(120) {
            h.solution(solve_in(&set, &platform, Scheme::DagFederated(cores), &mut ws).as_ref());
        }
        out.push((format!("federated/{name}/DagFederated"), h.0));
    }
    out
}

/// Digests recorded before the block-objective memo and the range
/// pruning existed (the `zero-work` best-response rows: after the
/// memory-sleep fix, see the module docs).
const PINNED: &[(&str, u64)] = &[
    ("serve/paper/Agreeable", 0xb6471679241d75bf),
    ("serve/paper/AgreeableStrict", 0xb6471679241d75bf),
    ("serve/paper/AgreeableOverhead", 0xb6471679241d75bf),
    ("serve/paper/BestResponse", 0x3f95ef5edab90557),
    ("serve/paper/PaperIterative", 0xd543042bc0abb75d),
    ("serve/alpha0/Agreeable", 0xcd5a79d8f34e021f),
    ("serve/alpha0/AgreeableStrict", 0xcd5a79d8f34e021f),
    ("serve/alpha0/AgreeableOverhead", 0xcd5a79d8f34e021f),
    ("serve/alpha0/BestResponse", 0xc60845855aeca51f),
    ("serve/alpha0/PaperIterative", 0x1d026837a09a10eb),
    ("serve/alpha0/PaperClosedForm", 0x1e2f832edfc98874),
    ("serve/xim0/Agreeable", 0x2545cada700c33a2),
    ("serve/xim0/AgreeableStrict", 0x2545cada700c33a2),
    ("serve/xim0/AgreeableOverhead", 0x2545cada700c33a2),
    ("serve/xim0/BestResponse", 0x6d6901f4fb58beea),
    ("serve/xim0/PaperIterative", 0x2959e3e60c619cee),
    ("serve/alpha0-xim0/Agreeable", 0x88214a8d1b3cc6f1),
    ("serve/alpha0-xim0/AgreeableStrict", 0x88214a8d1b3cc6f1),
    ("serve/alpha0-xim0/AgreeableOverhead", 0x88214a8d1b3cc6f1),
    ("serve/alpha0-xim0/BestResponse", 0x4b2797cdc50fd401),
    ("serve/alpha0-xim0/PaperIterative", 0x524d1f867a41507e),
    ("serve/alpha0-xim0/PaperClosedForm", 0x874c7d5bd3158e66),
    ("zero-work/paper/Agreeable", 0xf617dc9e323c8171),
    ("zero-work/paper/AgreeableStrict", 0xf617dc9e323c8171),
    ("zero-work/paper/AgreeableOverhead", 0xf617dc9e323c8171),
    ("zero-work/paper/BestResponse", 0xe71a9ecbb21e8bff),
    ("zero-work/paper/PaperIterative", 0x0be8411798169e2a),
    ("zero-work/alpha0/Agreeable", 0x2db095befed44cea),
    ("zero-work/alpha0/AgreeableStrict", 0x3a0bf88e2a470c4d),
    ("zero-work/alpha0/AgreeableOverhead", 0x2db095befed44cea),
    ("zero-work/alpha0/BestResponse", 0x602ed03d17cfa023),
    ("zero-work/alpha0/PaperIterative", 0x71c821680870bb2b),
    ("zero-work/alpha0/PaperClosedForm", 0xec01e0c1a38b04b4),
    ("zero-work/xim0/Agreeable", 0xd7e29f5239489541),
    ("zero-work/xim0/AgreeableStrict", 0x596e279fe36e2776),
    ("zero-work/xim0/AgreeableOverhead", 0xd7e29f5239489541),
    ("zero-work/xim0/BestResponse", 0x57ee246b5fbfd3a0),
    ("zero-work/xim0/PaperIterative", 0xe66bc6c67adf1bfb),
    ("zero-work/alpha0-xim0/Agreeable", 0xf283232641d2e0c2),
    ("zero-work/alpha0-xim0/AgreeableStrict", 0x56eba5cfd95dc88b),
    (
        "zero-work/alpha0-xim0/AgreeableOverhead",
        0xf283232641d2e0c2,
    ),
    ("zero-work/alpha0-xim0/BestResponse", 0xc66f2b01a9a6fc2f),
    ("zero-work/alpha0-xim0/PaperIterative", 0x2e5e637a7fa32efc),
    ("zero-work/alpha0-xim0/PaperClosedForm", 0xe391b158b2b4a6be),
    ("dag/paper/merged", 0x1646865f46f64c05),
    ("dag-core/paper/Agreeable", 0xcbe7fb2ba3659c6f),
    ("dag-core/paper/AgreeableStrict", 0xcbe7fb2ba3659c6f),
    ("dag-core/paper/AgreeableOverhead", 0xcbe7fb2ba3659c6f),
    ("dag-core/paper/BestResponse", 0x334843922e38fb71),
    ("dag-core/paper/PaperIterative", 0x5fd1edf77760d833),
    ("dag-core/alpha0/Agreeable", 0xd980beeca75dffd5),
    ("dag-core/alpha0/AgreeableStrict", 0xd980beeca75dffd5),
    ("dag-core/alpha0/AgreeableOverhead", 0xd980beeca75dffd5),
    ("dag-core/alpha0/BestResponse", 0x3187df9718420d2f),
    ("dag-core/alpha0/PaperIterative", 0xda8910c1d58bc864),
    ("dag-core/alpha0/PaperClosedForm", 0xc61397e5a735bf22),
    ("dag-core/xim0/Agreeable", 0xe2b18fea6f7a7cf3),
    ("dag-core/xim0/AgreeableStrict", 0xe2b18fea6f7a7cf3),
    ("dag-core/xim0/AgreeableOverhead", 0xe2b18fea6f7a7cf3),
    ("dag-core/xim0/BestResponse", 0xcbc48c27ecc18d66),
    ("dag-core/xim0/PaperIterative", 0x76e5a96b6c1c4e8c),
    ("dag-core/alpha0-xim0/Agreeable", 0xc854d80b64411153),
    ("dag-core/alpha0-xim0/AgreeableStrict", 0xc854d80b64411153),
    ("dag-core/alpha0-xim0/AgreeableOverhead", 0xc854d80b64411153),
    ("dag-core/alpha0-xim0/BestResponse", 0x5f5e6baab152a37d),
    ("dag-core/alpha0-xim0/PaperIterative", 0x1edc8f79ba716dff),
    ("dag-core/alpha0-xim0/PaperClosedForm", 0x1eded666b530e2e0),
    ("federated/paper/DagFederated", 0x75d30534f2d19b6e),
    ("federated/alpha0/DagFederated", 0x8eb1c1531a5effa3),
    ("federated/xim0/DagFederated", 0x99606b6c64b18510),
    ("federated/alpha0-xim0/DagFederated", 0xb41bba03909832e5),
];

#[test]
fn agreeable_outputs_match_the_pinned_digests() {
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
