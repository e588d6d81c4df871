//! Property tests for the extension features: the discrete-voltage
//! transform, heterogeneous cores, the §7 overhead scheme's dominance, the
//! periodic substrate and the power-trace export. Each property runs over
//! a fixed number of seeded cases (deterministic, offline).

use sdem::core::discrete::{quantize_schedule, SpeedLevels};
use sdem::core::{common_release, solve, Scheme, Solution};
use sdem::power::{CorePower, MemoryPower, Platform};
use sdem::prng::{ChaCha8Rng, Rng, SeedableRng};
use sdem::sim::{power_trace, simulate_with_options, SimOptions, SleepPolicy};
use sdem::types::{CoreId, Cycles, Placement, Schedule, Speed, Task, TaskId, TaskSet, Time, Watts};
use sdem::workload::periodic::{unroll, PeriodicTask};

const CASES: u64 = 40;

fn rng_for(property: u64, case: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0xE87E_0000 + property * 1000 + case)
}

fn platform(alpha: f64, alpha_m: f64) -> Platform {
    Platform::new(
        CorePower::simple(alpha, 1.0, 3.0).with_max_speed(Speed::from_hz(100.0)),
        MemoryPower::new(Watts::new(alpha_m)),
    )
}

fn sporadic_tasks(rng: &mut ChaCha8Rng, max_n: usize) -> TaskSet {
    let n = rng.gen_range(1usize..=max_n);
    let mut release = 0.0;
    TaskSet::new(
        (0..n)
            .map(|i| {
                let gap = rng.gen_range(0.0f64..6.0);
                let window = rng.gen_range(0.5f64..8.0);
                let w = rng.gen_range(0.1f64..4.0);
                release += gap;
                Task::new(
                    i,
                    Time::from_secs(release),
                    Time::from_secs(release + window),
                    Cycles::new(w),
                )
            })
            .collect(),
    )
    .expect("valid tasks")
}

fn common_release_specs(rng: &mut ChaCha8Rng, max_n: usize) -> TaskSet {
    let n = rng.gen_range(1usize..max_n);
    TaskSet::new(
        (0..n)
            .map(|i| {
                let d = rng.gen_range(1.0f64..20.0);
                let w = rng.gen_range(0.1f64..5.0);
                Task::new(i, Time::ZERO, Time::from_secs(d), Cycles::new(w))
            })
            .collect(),
    )
    .unwrap()
}

#[test]
fn quantized_online_schedules_stay_valid_and_cost_at_least_continuous() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let tasks = sporadic_tasks(&mut rng, 8);
        let alpha = rng.gen_range(0.0f64..4.0);
        let alpha_m = rng.gen_range(0.1f64..8.0);
        let n_levels = rng.gen_range(2usize..12);
        let p = platform(alpha, alpha_m);
        let continuous = solve(&tasks, &p, Scheme::Online)
            .map(Solution::into_schedule)
            .unwrap();
        let table = SpeedLevels::evenly_spaced(p.core(), n_levels);
        let q = quantize_schedule(&continuous, &table).unwrap();
        q.validate(&tasks).unwrap();
        let opts = SimOptions::uniform(SleepPolicy::WhenProfitable);
        let e_cont = simulate_with_options(&continuous, &tasks, &p, opts).unwrap();
        let e_disc = simulate_with_options(&q, &tasks, &p, opts).unwrap();
        // Same work, convex power ⇒ discrete dynamic energy can only grow;
        // busy time can only shrink (early finishes), so static/memory can
        // shrink — assert the dynamic share specifically.
        assert!(
            e_disc.core_dynamic.value() >= e_cont.core_dynamic.value() * (1.0 - 1e-9),
            "discrete dynamic {} below continuous {}",
            e_disc.core_dynamic.value(),
            e_cont.core_dynamic.value()
        );
    }
}

#[test]
fn heterogeneous_with_identical_cores_matches_homogeneous() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let tasks = common_release_specs(&mut rng, 8);
        let alpha = rng.gen_range(0.1f64..6.0);
        let alpha_m = rng.gen_range(0.1f64..10.0);
        let core = CorePower::simple(alpha, 1.0, 3.0);
        let memory = MemoryPower::new(Watts::new(alpha_m));
        let cores = vec![core; tasks.len()];
        let het = common_release::schedule_heterogeneous(&tasks, &cores, &memory).unwrap();
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
        assert!((a - b).abs() <= 1e-5 * b.max(1.0), "het {a} vs hom {b}");
    }
}

#[test]
fn overhead_scheme_dominates_naive_under_horizon_pricing() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let tasks = common_release_specs(&mut rng, 8);
        let alpha = rng.gen_range(0.1f64..5.0);
        let alpha_m = rng.gen_range(0.1f64..10.0);
        let xi = rng.gen_range(0.0f64..4.0);
        let xi_m = rng.gen_range(0.0f64..4.0);
        let p = Platform::new(
            CorePower::simple(alpha, 1.0, 3.0).with_break_even(Time::from_secs(xi)),
            MemoryPower::new(Watts::new(alpha_m)).with_break_even(Time::from_secs(xi_m)),
        );
        let opts = SimOptions::uniform(SleepPolicy::WhenProfitable)
            .with_horizon(Time::ZERO, tasks.latest_deadline());
        let aware = solve(&tasks, &p, Scheme::CommonReleaseOverhead).unwrap();
        let naive = solve(&tasks, &p, Scheme::CommonReleaseAlphaNonzero).unwrap();
        let e_aware = simulate_with_options(aware.schedule(), &tasks, &p, opts)
            .unwrap()
            .total()
            .value();
        let e_naive = simulate_with_options(naive.schedule(), &tasks, &p, opts)
            .unwrap()
            .total()
            .value();
        assert!(
            e_aware <= e_naive * (1.0 + 1e-9),
            "overhead-aware {e_aware} worse than naive {e_naive}"
        );
    }
}

#[test]
fn unrolled_periodic_systems_schedule_online() {
    let mut checked = 0u64;
    let mut case = 0u64;
    // Keep drawing until CASES sets survive the feasibility filters (the
    // proptest original used prop_assume! the same way).
    while checked < CASES && case < CASES * 20 {
        let mut rng = rng_for(4, case);
        case += 1;
        let n = rng.gen_range(1usize..4);
        let tasks: Vec<PeriodicTask> = (0..n)
            .map(|i| {
                let period = rng.gen_range(0.05f64..0.5);
                let w = rng.gen_range(0.01f64..2.0);
                PeriodicTask::implicit(i, Time::from_secs(period), Cycles::new(w))
            })
            .collect();
        let horizon = Time::from_secs(2.0);
        if !tasks
            .iter()
            .any(|t| t.offset() + t.relative_deadline() <= horizon)
        {
            continue;
        }
        let jobs = unroll(&tasks, horizon).unwrap();
        let p = platform(1.0, 4.0);
        if jobs.max_filled_speed() > p.core().max_speed() {
            continue;
        }
        let sched = solve(&jobs, &p, Scheme::Online)
            .map(Solution::into_schedule)
            .unwrap();
        sched.validate(&jobs).unwrap();
        checked += 1;
    }
    assert!(
        checked >= CASES / 2,
        "too few feasible periodic draws: {checked}"
    );
}

#[test]
fn memory_access_energy_is_schedule_invariant() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let tasks = sporadic_tasks(&mut rng, 6);
        let per_cycle = rng.gen_range(1e-12f64..1e-9);
        // The paper's justification for excluding memory dynamic energy:
        // every feasible schedule executes the same cycles, so the access
        // bill is identical across schedulers and cannot change rankings.
        let base = platform(1.0, 4.0);
        let p = base.with_memory(base.memory().with_access_energy(per_cycle));
        let opts = SimOptions::uniform(SleepPolicy::WhenProfitable);
        let a = solve(&tasks, &p, Scheme::Online)
            .map(Solution::into_schedule)
            .unwrap();
        let ra = simulate_with_options(&a, &tasks, &p, opts).unwrap();
        // A second, different schedule of the same tasks: everything at its
        // filled speed on its own core.
        let b = sdem::types::Schedule::new(
            tasks
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    sdem::types::Placement::single(
                        t.id(),
                        sdem::types::CoreId(i),
                        t.release(),
                        t.deadline(),
                        t.filled_speed(),
                    )
                })
                .collect(),
        );
        let rb = simulate_with_options(&b, &tasks, &p, opts).unwrap();
        let expected = per_cycle * tasks.total_work().value();
        assert!((ra.memory_dynamic.value() - expected).abs() <= 1e-9 * expected.max(1e-12));
        assert!(
            (ra.memory_dynamic.value() - rb.memory_dynamic.value()).abs()
                <= 1e-9 * expected.max(1e-12),
            "access energy differs across schedules of the same work"
        );
    }
}

#[test]
fn power_trace_integral_matches_meter() {
    let mut inputs = Vec::new();
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let tasks = sporadic_tasks(&mut rng, 6);
        let alpha = rng.gen_range(0.0f64..4.0);
        let alpha_m = rng.gen_range(0.1f64..8.0);
        let p = platform(alpha, alpha_m);
        let sched = solve(&tasks, &p, Scheme::Online)
            .map(Solution::into_schedule)
            .unwrap();
        inputs.push((
            tasks,
            sched,
            p,
            SimOptions::uniform(SleepPolicy::NeverSleep),
        ));
    }
    // Under a horizon, a component that never runs is never powered, as
    // both meters price it: a core holding only a zero-work placement
    // (metered 4.4 mJ of core energy) and the memory of an empty schedule
    // (metered 0) draw nothing. Neither case sleeps a gap with a
    // transition cost, so the integral has no impulses to miss.
    let paper = Platform::paper_defaults();
    let horizon = SimOptions::default().with_horizon(Time::ZERO, Time::from_millis(20.0));
    let window =
        |id: usize, w: f64| Task::new(id, Time::ZERO, Time::from_millis(20.0), Cycles::new(w));
    let pair = TaskSet::new(vec![window(0, 8.0e6), window(1, 0.0)]).unwrap();
    let idle_core = Schedule::new(vec![
        Placement::single(
            TaskId(0),
            CoreId(0),
            Time::ZERO,
            Time::from_millis(10.0),
            Speed::from_mhz(800.0),
        ),
        Placement::new(TaskId(1), CoreId(1), Vec::new()),
    ]);
    inputs.push((pair.clone(), idle_core, paper, horizon));
    let unvalidated = SimOptions {
        validate: false,
        ..horizon
    };
    inputs.push((pair, Schedule::empty(), paper, unvalidated));

    for (tasks, sched, p, opts) in inputs {
        let metered = simulate_with_options(&sched, &tasks, &p, opts)
            .unwrap()
            .total()
            .value();
        let Some((t0, t1)) = opts.horizon.or_else(|| sched.span()) else {
            continue;
        };
        let samples = 40_000;
        let trace = power_trace(&sched, &p, opts, samples);
        let dt = (t1 - t0).as_secs() / samples as f64;
        let integrated: f64 = trace.iter().map(|s| s.total().value() * dt).sum();
        // No transition impulses, so the integral converges to the
        // metered value as the sampling densifies.
        assert!(
            (integrated - metered).abs() <= 2e-2 * metered.max(1e-9),
            "integrated {integrated} vs metered {metered}"
        );
    }
}
