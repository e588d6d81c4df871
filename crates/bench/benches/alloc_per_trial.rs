//! Allocation microbenchmark: heap traffic per trial, before vs after the
//! arena-backed [`sdem_types::Workspace`] hot path.
//!
//! Requires the `alloc-count` feature, which swaps in a counting global
//! allocator (the only `unsafe` in the crate, confined to this target):
//!
//! ```text
//! cargo bench -p sdem-bench --bench alloc_per_trial --features alloc-count
//! ```
//!
//! Each case runs one warm-up trial (to populate the workspace pools and
//! any lazily-allocated globals), then measures the steady state over a
//! fixed number of trials and reports mean allocations and bytes per
//! trial. The analytic common-release solvers, the full sweep trial with
//! the oracle off or armed, the sim-oracle's event engine and the serve
//! cache key's hash must reach **zero** allocations per trial on the
//! warmed path — those invariants are asserted here, so a regression
//! fails the bench run loudly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sdem_baselines::mbkp::{self, Assignment};
use sdem_bench::experiment::{
    run_trial_checked, run_trial_checked_in, run_trial_quarantined_in, FaultInjection, OracleCheck,
};
use sdem_core::{solve, solve_in, Scheme, DEFAULT_ORACLE_TOLERANCE};
use sdem_exec::TrialCtx;
use sdem_power::Platform;
use sdem_sim::{simulate_event_driven_in, SimOptions};
use sdem_types::{TaskSet, Time, Workspace};
use sdem_workload::paper;
use sdem_workload::synthetic::{sporadic, SyntheticConfig};
use sdem_workload::trace::{ArrivalTrace, TraceSpec};

/// A [`System`]-backed allocator that counts calls and bytes.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counters are side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Mean allocations and bytes per call of `f` over `iters` calls.
fn count_per_iter(iters: u64, mut f: impl FnMut()) -> (f64, f64) {
    let a0 = ALLOCATIONS.load(Ordering::Relaxed);
    let b0 = BYTES.load(Ordering::Relaxed);
    for _ in 0..iters {
        f();
    }
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - a0;
    let bytes = BYTES.load(Ordering::Relaxed) - b0;
    (allocs as f64 / iters as f64, bytes as f64 / iters as f64)
}

fn report(name: &str, (allocs, bytes): (f64, f64)) {
    println!("{name:<52} {allocs:>10.1} allocs/trial {bytes:>12.1} B/trial");
}

fn main() {
    const ITERS: u64 = 200;
    let platform = Platform::paper_defaults();

    // Common-release task set: all releases at 0 (the §4 analytic schemes
    // require it), deadlines staggered so the schedule is non-trivial.
    let common = {
        let cfg = SyntheticConfig::paper(24, Time::from_millis(400.0));
        let drawn = sporadic(&cfg, 7);
        TaskSet::new(
            drawn
                .iter()
                .map(|t| sdem_types::Task::new(t.id().0, Time::ZERO, t.deadline(), t.work()))
                .collect(),
        )
        .expect("non-empty set")
    };

    // Sporadic set for the full online trial (feasible seed found below).
    let cfg = SyntheticConfig::paper(24, Time::from_millis(400.0));
    let sporadic_set = (0..64)
        .map(|s| sporadic(&cfg, s))
        .find(|t| run_trial_checked(t, &platform, paper::NUM_CORES, OracleCheck::Off).is_ok())
        .expect("a feasible seed exists");

    println!("allocation traffic per trial (mean of {ITERS} steady-state trials)");
    println!();

    for scheme in [
        Scheme::CommonReleaseAlphaNonzero,
        Scheme::CommonReleaseOverhead,
    ] {
        let name = format!("{scheme:?}");
        let before = count_per_iter(ITERS, || {
            std::hint::black_box(solve(&common, &platform, scheme).unwrap());
        });
        report(&format!("solve/{name} (allocating)"), before);

        let mut ws = Workspace::new();
        // Warm the pools over a few trials (pool take/recycle order can
        // shuffle buffers, so one pass may leave a short buffer that only
        // grows on a later trial), then measure the steady state.
        for _ in 0..8 {
            let warm = solve_in(&common, &platform, scheme, &mut ws).unwrap();
            ws.recycle_schedule(warm.into_schedule());
        }
        let after = count_per_iter(ITERS, || {
            let s = solve_in(&common, &platform, scheme, &mut ws).unwrap();
            std::hint::black_box(&s);
            ws.recycle_schedule(s.into_schedule());
        });
        report(&format!("solve_in/{name} (warmed workspace)"), after);
        assert_eq!(
            after.0, 0.0,
            "analytic scheme {name} must be allocation-free on the warmed \
             workspace path (got {} allocs/trial)",
            after.0
        );
        println!();
    }

    // The bounded tiers, one size class per tier: BoundedAuto routes the
    // small set to the enumerator, the middle one to the branch-and-bound
    // and the large one to LPT + refine; two cores at 15 tasks is
    // `serve-cold`'s branch-and-bound shape, whose search builds its
    // subset-sum tables in a workspace buffer. Each must be
    // allocation-free on the warmed workspace path, searches included,
    // with the metrics registry off and armed (a solve adds its node
    // counters).
    for (scheme, label, n) in [
        (Scheme::BoundedAuto(4), "BoundedAuto->exact", 12usize),
        (Scheme::BoundedAuto(4), "BoundedAuto->bnb", 18),
        (Scheme::BoundedAuto(4), "BoundedAuto->refined", 200),
        (Scheme::BoundedAuto(2), "BoundedAuto(2)->bnb", 15),
    ] {
        let deadline = Time::from_millis(400.0);
        let bounded_set = TaskSet::new(
            (0..n)
                .map(|i| {
                    sdem_types::Task::new(
                        i,
                        Time::ZERO,
                        deadline,
                        sdem_types::Cycles::new(1.0e6 + (i % 7) as f64 * 1.0e6),
                    )
                })
                .collect(),
        )
        .expect("non-empty set");
        let mut ws = Workspace::new();
        for armed in [false, true] {
            sdem_obs::registry::set_enabled(armed);
            for _ in 0..8 {
                let warm = solve_in(&bounded_set, &platform, scheme, &mut ws).unwrap();
                ws.recycle_schedule(warm.into_schedule());
            }
            let after = count_per_iter(ITERS, || {
                let s = solve_in(&bounded_set, &platform, scheme, &mut ws).unwrap();
                std::hint::black_box(&s);
                ws.recycle_schedule(s.into_schedule());
            });
            let metrics = if armed { ", metrics armed" } else { "" };
            report(
                &format!("solve_in/{label} n={n} (warmed workspace{metrics})"),
                after,
            );
            assert_eq!(
                after.0, 0.0,
                "{label} (n = {n}) must be allocation-free on the warmed \
                 workspace path{metrics} (got {} allocs/trial)",
                after.0
            );
        }
        sdem_obs::registry::set_enabled(false);
    }
    println!();

    // The federated DAG lean path: LPT packing, window chopping, one
    // analytic solve per busy core and the merged repricing, all through
    // the workspace pools. With one task per core the per-core solves
    // route to the (asserted-zero above) common-release scheme, so this
    // case pins the federated scaffolding itself at zero.
    {
        let deadline = Time::from_millis(400.0);
        let federated_set = |n: usize| {
            TaskSet::new(
                (0..n)
                    .map(|i| {
                        sdem_types::Task::new(
                            i,
                            Time::ZERO,
                            deadline,
                            sdem_types::Cycles::new(2.0e6 + (i % 5) as f64 * 1.0e6),
                        )
                    })
                    .collect(),
            )
            .expect("non-empty set")
        };
        let measure = |set: &TaskSet, cores: usize| {
            let scheme = Scheme::DagFederated(cores);
            let mut ws = Workspace::new();
            for _ in 0..8 {
                let warm = solve_in(set, &platform, scheme, &mut ws).unwrap();
                ws.recycle_schedule(warm.into_schedule());
            }
            count_per_iter(ITERS, || {
                let s = solve_in(set, &platform, scheme, &mut ws).unwrap();
                std::hint::black_box(&s);
                ws.recycle_schedule(s.into_schedule());
            })
        };
        let scaffold = measure(&federated_set(24), 24);
        report(
            "solve_in/DagFederated(24) n=24 (warmed workspace)",
            scaffold,
        );
        assert_eq!(
            scaffold.0, 0.0,
            "the federated scaffolding (pack + chop + merge + reprice) must \
             be allocation-free on the warmed workspace path (got {} \
             allocs/trial)",
            scaffold.0
        );
        // Multi-task cores chop sequential windows, which route the
        // per-core solves to the agreeable DP: its block terms and range
        // table are pool-backed too.
        let chopped = measure(&federated_set(24), 4);
        report(
            "solve_in/DagFederated(4) n=24 (warmed, agreeable DP)",
            chopped,
        );
        assert_eq!(
            chopped.0, 0.0,
            "the federated path through the agreeable DP must be \
             allocation-free on the warmed workspace path (got {} \
             allocs/trial)",
            chopped.0
        );
    }

    // The agreeable DP on its own: twelve sequential 10 ms windows, the
    // shape of one chopped DAG core, through the §7 scheme. Allocation
    // free when warm, with the metrics registry off and armed.
    {
        let chopped = TaskSet::new(
            (0..12)
                .map(|i| {
                    sdem_types::Task::new(
                        i,
                        Time::from_millis(10.0 * i as f64),
                        Time::from_millis(10.0 * (i + 1) as f64),
                        sdem_types::Cycles::new(2.0e6 + (i % 5) as f64 * 1.0e6),
                    )
                })
                .collect(),
        )
        .expect("non-empty set");
        let scheme = Scheme::AgreeableOverhead;
        let mut ws = Workspace::new();
        for armed in [false, true] {
            sdem_obs::registry::set_enabled(armed);
            for _ in 0..8 {
                let warm = solve_in(&chopped, &platform, scheme, &mut ws).unwrap();
                ws.recycle_schedule(warm.into_schedule());
            }
            let after = count_per_iter(ITERS, || {
                let s = solve_in(&chopped, &platform, scheme, &mut ws).unwrap();
                std::hint::black_box(&s);
                ws.recycle_schedule(s.into_schedule());
            });
            let metrics = if armed {
                "metrics armed"
            } else {
                "metrics off"
            };
            report(
                &format!("solve_in/AgreeableOverhead n=12 chopped (warmed, {metrics})"),
                after,
            );
            assert_eq!(
                after.0, 0.0,
                "the agreeable DP must be allocation-free on the warmed \
                 workspace path with {metrics} (got {} allocs/trial)",
                after.0
            );
        }
        sdem_obs::registry::set_enabled(false);
        // The same windows stored out of release order: the agreeability
        // check sorts a copy of the set, so this row is reported only.
        let reversed =
            TaskSet::new(chopped.iter().rev().copied().collect()).expect("non-empty set");
        for _ in 0..8 {
            let warm = solve_in(&reversed, &platform, scheme, &mut ws).unwrap();
            ws.recycle_schedule(warm.into_schedule());
        }
        let unsorted = count_per_iter(ITERS, || {
            let s = solve_in(&reversed, &platform, scheme, &mut ws).unwrap();
            std::hint::black_box(&s);
            ws.recycle_schedule(s.into_schedule());
        });
        report(
            "solve_in/AgreeableOverhead n=12 chopped, reverse-stored (warmed)",
            unsorted,
        );

        // A serve-shaped request: three staggered, overlapping windows,
        // priced by the DP's single-block certificate.
        let serve = TaskSet::new(
            [(0.0, 40.0, 3.0e6), (4.0, 52.0, 2.0e6), (9.0, 61.0, 4.5e6)]
                .iter()
                .enumerate()
                .map(|(i, &(r, d, w))| {
                    sdem_types::Task::new(
                        i,
                        Time::from_millis(r),
                        Time::from_millis(d),
                        sdem_types::Cycles::new(w),
                    )
                })
                .collect(),
        )
        .expect("non-empty set");
        for _ in 0..8 {
            let warm = solve_in(&serve, &platform, scheme, &mut ws).unwrap();
            ws.recycle_schedule(warm.into_schedule());
        }
        let served = count_per_iter(ITERS, || {
            let s = solve_in(&serve, &platform, scheme, &mut ws).unwrap();
            std::hint::black_box(&s);
            ws.recycle_schedule(s.into_schedule());
        });
        report(
            "solve_in/AgreeableOverhead n=3 serve-shaped (warmed)",
            served,
        );
        assert_eq!(
            served.0, 0.0,
            "the agreeable DP on a serve-shaped set must be allocation-free \
             on the warmed workspace path (got {} allocs/trial)",
            served.0
        );
    }
    println!();

    let before = count_per_iter(ITERS, || {
        std::hint::black_box(
            run_trial_checked(&sporadic_set, &platform, paper::NUM_CORES, OracleCheck::Off)
                .unwrap(),
        );
    });
    report("sweep_trial (allocating)", before);

    let trial = |ws: &mut Workspace| {
        run_trial_checked_in(
            &sporadic_set,
            &platform,
            paper::NUM_CORES,
            OracleCheck::Off,
            ws,
        )
    };
    let mut ws = Workspace::new();
    for _ in 0..8 {
        let _ = trial(&mut ws);
    }
    let after = count_per_iter(ITERS, || {
        std::hint::black_box(trial(&mut ws).unwrap());
    });
    report("sweep_trial (warmed workspace)", after);
    assert_eq!(
        after.0, 0.0,
        "the full sweep trial (SDEM-ON + MBKP + four meters + report) must \
         be allocation-free on the warmed workspace path (got {} \
         allocs/trial, {} B/trial)",
        after.0, after.1
    );

    // The same trial with the sim-oracle armed: the analytic-vs-meter check
    // prices the SDEM-ON schedule by reference on the trial's workspace and
    // compares it with the report already metered, and the three
    // event-engine runs are pooled too (the engine is also asserted on its
    // own below).
    let oracle = |ws: &mut Workspace| {
        run_trial_checked_in(
            &sporadic_set,
            &platform,
            paper::NUM_CORES,
            OracleCheck::FailFast(DEFAULT_ORACLE_TOLERANCE),
            ws,
        )
    };
    for _ in 0..8 {
        let _ = oracle(&mut ws);
    }
    let armed = count_per_iter(ITERS, || {
        std::hint::black_box(oracle(&mut ws).unwrap());
    });
    report("sweep_trial (warmed workspace, oracle armed)", armed);
    assert_eq!(
        armed.0, 0.0,
        "the oracle-armed sweep trial must be allocation-free on the \
         warmed workspace path (got {} allocs/trial, {} B/trial)",
        armed.0, armed.1
    );

    // The event engine alone on a Fig. 7a MBKP schedule (60 tasks, 8
    // cores): its state tables and event list come from the workspace.
    {
        let cfg = SyntheticConfig::paper(60, Time::from_millis(paper::DEFAULT_X_MS));
        let (tasks, schedule) = (0..64)
            .find_map(|seed| {
                let tasks = sporadic(&cfg, seed);
                let mbkp = mbkp::schedule_online(
                    &tasks,
                    &platform,
                    paper::NUM_CORES,
                    Assignment::RoundRobin,
                );
                mbkp.ok().map(|schedule| (tasks, schedule))
            })
            .expect("a feasible seed exists");
        let engine = |ws: &mut Workspace| {
            simulate_event_driven_in(&schedule, &tasks, &platform, SimOptions::default(), ws)
                .unwrap()
        };
        let mut ws = Workspace::new();
        for _ in 0..8 {
            engine(&mut ws);
        }
        let warmed = count_per_iter(ITERS, || {
            std::hint::black_box(engine(&mut ws));
        });
        report(
            "simulate_event_driven_in/MBKP n=60 (warmed workspace)",
            warmed,
        );
        assert_eq!(
            warmed.0, 0.0,
            "the event engine must be allocation-free on the warmed \
             workspace path (got {} allocs/run)",
            warmed.0
        );
    }

    // The serve cache key: the solve cache hashes canonical task sets
    // only, and `canonical_hash` folds those where they lie. A 16-row
    // shape of a serve-hot trace (16 periodic systems plus the Poisson
    // pool), canonicalized, must hash allocation-free (17 allocs and
    // 1,624 B per call before the in-place fold, which filled a fresh SoA
    // view and argsort per call).
    {
        let spec = TraceSpec {
            sets: 16,
            ..TraceSpec::default()
        };
        let trace = ArrivalTrace::new(&spec).expect("valid trace spec");
        let rows = (0..trace.shape_count())
            .map(|s| trace.shape_rows(s))
            .find(|rows| rows.len() >= 16)
            .expect("a serve-hot trace has a shape of 16 rows or more");
        let set = TaskSet::new(
            rows[..16]
                .iter()
                .map(|r| {
                    sdem_types::Task::new(
                        r.id,
                        Time::from_millis(r.release_ms),
                        Time::from_millis(r.deadline_ms),
                        sdem_types::Cycles::new(r.work_cycles),
                    )
                })
                .collect(),
        )
        .expect("trace shapes are valid task sets")
        .canonicalize();
        let hashed = count_per_iter(ITERS, || {
            std::hint::black_box(std::hint::black_box(&set).canonical_hash());
        });
        report("TaskSet::canonical_hash n=16 canonical (serve-hot)", hashed);
        assert_eq!(
            hashed.0, 0.0,
            "hashing a canonical set must not allocate (got {} allocs/call)",
            hashed.0
        );

        // A decoded request's rows reach `TaskSet::new` rotated, so their
        // ids are not increasing; distinct ids below 1024 are checked on a
        // stack bitset, and the only allocation left is the row list's own
        // copy (the id sort made one more per call).
        let mut rotated = set.tasks().to_vec();
        rotated.sort_by_key(|t| t.id());
        rotated.rotate_left(5);
        let built = count_per_iter(ITERS, || {
            let rows = std::hint::black_box(&rotated).clone();
            std::hint::black_box(TaskSet::new(rows).expect("distinct ids"));
        });
        report("TaskSet::new n=16 rotated ids (serve decode)", built);
        assert_eq!(
            built.0, 1.0,
            "validating rotated rows must allocate only their copy (got {} allocs/call)",
            built.0
        );
    }

    // The sweep's replicate runner adds nothing to the trial: a warmed
    // replicate allocates exactly what drawing its task set does (its
    // repro string is built only when the replicate fails). The context is
    // one whose first seed is feasible, so no attempt is resampled.
    let ctx = (0..64)
        .map(|r| TrialCtx::new(0x5EED, 0, r, 64))
        .find(|ctx| {
            let tasks = sporadic(&cfg, ctx.seed(0));
            run_trial_checked(&tasks, &platform, paper::NUM_CORES, OracleCheck::Off).is_ok()
        })
        .expect("a feasible first seed exists");
    let draw = count_per_iter(ITERS, || {
        std::hint::black_box(sporadic(&cfg, ctx.seed(0)));
    });
    report("synthetic::sporadic (task-set draw alone)", draw);
    let mut replicate = || {
        run_trial_quarantined_in(
            |seed| sporadic(&cfg, seed),
            &platform,
            paper::NUM_CORES,
            &ctx,
            OracleCheck::Off,
            FaultInjection::default(),
            || format!("--seed {:#x}", ctx.seed(0)),
            &mut ws,
        )
        .unwrap()
    };
    for _ in 0..8 {
        replicate();
    }
    let replicated = count_per_iter(ITERS, || {
        std::hint::black_box(replicate());
    });
    report("sweep_replicate (warmed workspace)", replicated);
    assert_eq!(
        replicated.0, draw.0,
        "a warmed sweep replicate must allocate only its task-set draw \
         ({} vs {} allocs/trial)",
        replicated.0, draw.0
    );

    // Every solver, meter and sweep path above is instrumented with
    // sdem-obs, so all the numbers measured so far already pin the
    // *disabled* path: one relaxed atomic load per site, no clock reads,
    // no heap traffic. Make that explicit, then show the armed metrics
    // registry adds zero allocations too — recording is atomics into
    // static slots (only the opt-in trace sink allocates, and it stays
    // off here).
    assert!(
        !sdem_obs::registry::enabled() && !sdem_obs::trace::enabled(),
        "the baseline cases must run with observability disabled"
    );
    sdem_obs::registry::reset();
    sdem_obs::registry::set_enabled(true);
    // One warm-up pass registers the histogram label slots.
    let _ = trial(&mut ws);
    let metered = count_per_iter(ITERS, || {
        std::hint::black_box(trial(&mut ws).unwrap());
    });
    sdem_obs::registry::set_enabled(false);
    report("sweep_trial (warmed workspace, metrics armed)", metered);
    // The warmed baseline is exactly zero, so allow only noise headroom —
    // anything the registry allocated per record would overshoot this by
    // orders of magnitude (a trial records 4+ histogram samples and 10
    // counters).
    assert!(
        metered.0 <= after.0 + 0.5,
        "arming the metrics registry must not add heap traffic \
         ({} vs {} allocs/trial)",
        metered.0,
        after.0
    );
}
