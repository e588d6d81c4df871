//! Randomized property tests for the foundation types: dimensional
//! arithmetic, interval merging invariants, schedule validation and the
//! numeric helpers. Each property runs over a fixed number of seeded
//! cases (deterministic, offline — no external property-test framework).

use sdem_prng::{ChaCha8Rng, Rng, SeedableRng};
use sdem_types::numeric::{bisect_increasing, minimize_unimodal};
use sdem_types::{
    CoreId, Cycles, IntervalSet, Placement, Schedule, Speed, Task, TaskId, TaskSet, Time,
};

const CASES: u64 = 128;

fn rng_for(property: u64, case: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0x7E57_0000 + property * 1000 + case)
}

#[test]
fn time_arithmetic_round_trips() {
    for case in 0..CASES {
        let mut rng = rng_for(1, case);
        let a = rng.gen_range(-1e6f64..1e6);
        let b = rng.gen_range(-1e6f64..1e6);
        let (ta, tb) = (Time::from_secs(a), Time::from_secs(b));
        let back = (ta + tb) - tb;
        assert!((back - ta).abs().as_secs() <= 1e-9 * a.abs().max(1.0));
        assert_eq!(ta.min(tb).min(ta.max(tb)), ta.min(tb));
    }
}

#[test]
fn work_speed_time_consistency() {
    for case in 0..CASES {
        let mut rng = rng_for(2, case);
        let w = rng.gen_range(1e3f64..1e9);
        let s = rng.gen_range(1e3f64..1e10);
        let work = Cycles::new(w);
        let speed = Speed::from_hz(s);
        let t = work / speed;
        let back = speed * t;
        assert!((back.value() - w).abs() <= 1e-9 * w);
        let s_back = work / t;
        assert!((s_back.as_hz() - s).abs() <= 1e-9 * s);
    }
}

#[test]
fn unit_conversions_round_trip() {
    for case in 0..CASES {
        let mut rng = rng_for(3, case);
        let ms = rng.gen_range(0.0f64..1e6);
        let mhz = rng.gen_range(0.0f64..1e5);
        let t = Time::from_millis(ms);
        assert!((t.as_millis() - ms).abs() <= 1e-9 * ms.max(1.0));
        let s = Speed::from_mhz(mhz);
        assert!((s.as_mhz() - mhz).abs() <= 1e-9 * mhz.max(1.0));
    }
}

#[test]
fn memory_busy_intervals_are_sorted_disjoint_and_cover_busy_time() {
    for case in 0..CASES {
        let mut rng = rng_for(4, case);
        let n = rng.gen_range(1usize..12);
        let spans: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0f64..100.0), rng.gen_range(0.01f64..10.0)))
            .collect();
        // Build one placement per span on distinct cores.
        let placements: Vec<Placement> = spans
            .iter()
            .enumerate()
            .map(|(i, &(start, len))| {
                Placement::single(
                    TaskId(i),
                    CoreId(i),
                    Time::from_secs(start),
                    Time::from_secs(start + len),
                    Speed::from_hz(1.0),
                )
            })
            .collect();
        let schedule = Schedule::new(placements);
        let merged = schedule.memory_busy_intervals();
        // Sorted, disjoint, non-degenerate.
        for w in merged.windows(2) {
            assert!(w[0].1 <= w[1].0, "intervals overlap: {w:?}");
        }
        for &(a, b) in &merged {
            assert!(b > a);
        }
        // Union length is between the longest span and the sum of spans.
        let total: f64 = merged.iter().map(|&(a, b)| (b - a).as_secs()).sum();
        let sum: f64 = spans.iter().map(|&(_, l)| l).sum();
        let longest = spans.iter().map(|&(_, l)| l).fold(0.0, f64::max);
        assert!(total <= sum * (1.0 + 1e-9));
        assert!(total >= longest * (1.0 - 1e-9));
        // And matches the reported busy time.
        assert!((schedule.memory_busy_time().as_secs() - total).abs() <= 1e-9 * total.max(1.0));
    }
}

#[test]
fn filled_speed_schedules_always_validate() {
    for case in 0..CASES {
        let mut rng = rng_for(5, case);
        let n = rng.gen_range(1usize..10);
        let specs: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0.0f64..50.0),
                    rng.gen_range(0.1f64..20.0),
                    rng.gen_range(0.0f64..100.0),
                )
            })
            .collect();
        let tasks = TaskSet::new(
            specs
                .iter()
                .enumerate()
                .map(|(i, &(r, win, w))| {
                    Task::new(
                        i,
                        Time::from_secs(r),
                        Time::from_secs(r + win),
                        Cycles::new(w),
                    )
                })
                .collect(),
        )
        .unwrap();
        // Every task filling its own region on its own core is feasible.
        let schedule = Schedule::new(
            tasks
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    if t.work().value() == 0.0 {
                        Placement::new(t.id(), CoreId(i), vec![])
                    } else {
                        Placement::single(
                            t.id(),
                            CoreId(i),
                            t.release(),
                            t.deadline(),
                            t.filled_speed(),
                        )
                    }
                })
                .collect(),
        );
        schedule.validate(&tasks).unwrap();
        // Shrinking any non-trivial segment's work breaks validation.
        if let Some(victim) = tasks.iter().find(|t| t.work().value() > 1.0) {
            let broken = Schedule::new(
                tasks
                    .iter()
                    .enumerate()
                    .map(|(i, t)| {
                        let speed = if t.id() == victim.id() {
                            t.filled_speed() * 0.5
                        } else {
                            t.filled_speed()
                        };
                        if t.work().value() == 0.0 {
                            Placement::new(t.id(), CoreId(i), vec![])
                        } else {
                            Placement::single(t.id(), CoreId(i), t.release(), t.deadline(), speed)
                        }
                    })
                    .collect(),
            );
            assert!(broken.validate(&tasks).is_err());
        }
    }
}

#[test]
fn golden_section_finds_quadratic_minima() {
    for case in 0..CASES {
        let mut rng = rng_for(6, case);
        let center = rng.gen_range(-50.0f64..50.0);
        let scale = rng.gen_range(0.1f64..10.0);
        let lo = rng.gen_range(-100.0f64..-60.0);
        let hi = rng.gen_range(60.0f64..100.0);
        let f = |x: f64| scale * (x - center).powi(2);
        let (x, v) = minimize_unimodal(f, lo, hi, 1e-12);
        assert!(
            (x - center).abs() <= 1e-5 * center.abs().max(1.0),
            "{x} vs {center}"
        );
        assert!(v <= f(center) + 1e-6 * scale);
    }
}

#[test]
fn golden_section_respects_boundary_minima() {
    for case in 0..CASES {
        let mut rng = rng_for(7, case);
        let slope = rng.gen_range(0.1f64..10.0);
        let lo = rng.gen_range(-5.0f64..0.0);
        // Strictly increasing function: minimum at lo.
        let (x, _) = minimize_unimodal(|x| slope * x, lo, lo + 10.0, 1e-12);
        assert!((x - lo).abs() <= 1e-6);
    }
}

#[test]
fn bisection_inverts_monotone_cubics() {
    for case in 0..CASES {
        let mut rng = rng_for(8, case);
        let root = rng.gen_range(-5.0f64..5.0);
        let gain = rng.gen_range(0.1f64..4.0);
        let g = |x: f64| gain * ((x - root) + (x - root).powi(3));
        let found = bisect_increasing(g, -10.0, 10.0, 1e-13).expect("sign change exists");
        assert!((found - root).abs() <= 1e-6, "{found} vs {root}");
    }
}

/// A random interval set with up to `max_n` raw spans over `[0, 100)`.
fn random_set(rng: &mut ChaCha8Rng, max_n: usize) -> IntervalSet {
    let n = rng.gen_range(0usize..max_n);
    (0..n)
        .map(|_| {
            let start = rng.gen_range(0.0f64..100.0);
            let len = rng.gen_range(0.0f64..10.0); // zero-length spans allowed
            (Time::from_secs(start), Time::from_secs(start + len))
        })
        .collect()
}

fn total_secs(set: &IntervalSet) -> f64 {
    set.total().as_secs()
}

#[test]
fn interval_union_is_commutative_idempotent_and_monotone() {
    for case in 0..CASES {
        let mut rng = rng_for(10, case);
        let a = random_set(&mut rng, 10);
        let b = random_set(&mut rng, 10);
        let ab = a.union(&b);
        let ba = b.union(&a);
        assert_eq!(ab.as_slice(), ba.as_slice(), "union must be commutative");
        assert_eq!(
            a.union(&a).as_slice(),
            a.as_slice(),
            "union with self must be the identity"
        );
        // The union covers both operands and no more than their sum.
        for set in [&a, &b] {
            for &(s, e) in set.iter() {
                let mid = s + (e - s) * 0.5;
                assert!(e <= s || ab.contains(mid), "union lost {s:?}..{e:?}");
            }
        }
        let (ta, tb, tu) = (total_secs(&a), total_secs(&b), total_secs(&ab));
        assert!(tu <= (ta + tb) * (1.0 + 1e-9) + 1e-12);
        assert!(tu >= ta.max(tb) * (1.0 - 1e-9));
    }
}

#[test]
fn interval_intersection_measure_obeys_inclusion_exclusion() {
    for case in 0..CASES {
        let mut rng = rng_for(11, case);
        let a = random_set(&mut rng, 10);
        let b = random_set(&mut rng, 10);
        let cap = a.intersect(&b);
        let cup = a.union(&b);
        // |A| + |B| = |A ∪ B| + |A ∩ B|.
        let lhs = total_secs(&a) + total_secs(&b);
        let rhs = total_secs(&cup) + total_secs(&cap);
        assert!(
            (lhs - rhs).abs() <= 1e-9 * lhs.max(1.0),
            "inclusion-exclusion violated: {lhs} vs {rhs}"
        );
        // The intersection is inside both operands.
        for &(s, e) in cap.iter() {
            let mid = s + (e - s) * 0.5;
            assert!(a.contains(mid) && b.contains(mid));
        }
        assert_eq!(a.intersect(&a).as_slice(), a.as_slice());
    }
}

#[test]
fn interval_complement_round_trips_within_span() {
    let span = (Time::from_secs(-10.0), Time::from_secs(120.0));
    let span_set: IntervalSet = [span].into_iter().collect();
    for case in 0..CASES {
        let mut rng = rng_for(12, case);
        let a = random_set(&mut rng, 10);
        let comp = a.complement_within(span);
        // Complement is disjoint from the set and together they tile the span.
        assert!(a.intersect(&comp).is_empty(), "complement overlaps set");
        let clipped = a.intersect(&span_set);
        let tiled = total_secs(&clipped) + total_secs(&comp);
        let span_len = (span.1 - span.0).as_secs();
        assert!(
            (tiled - span_len).abs() <= 1e-9 * span_len,
            "set + complement must tile the span: {tiled} vs {span_len}"
        );
        // Complementing twice restores the clipped set.
        assert_eq!(
            comp.complement_within(span).as_slice(),
            clipped.as_slice(),
            "double complement must round-trip"
        );
    }
}

#[test]
fn interval_coalescing_is_idempotent() {
    for case in 0..CASES {
        let mut rng = rng_for(13, case);
        let a = random_set(&mut rng, 12);
        // Rebuilding from the coalesced spans changes nothing.
        let rebuilt = IntervalSet::from_spans(a.as_slice().to_vec());
        assert_eq!(rebuilt.as_slice(), a.as_slice());
        // Invariants of the canonical form: sorted, disjoint, non-degenerate.
        for w in a.windows(2) {
            assert!(w[0].1 < w[1].0, "adjacent intervals must not touch: {w:?}");
        }
        for &(s, e) in a.iter() {
            assert!(e > s);
        }
    }
}

#[test]
fn interval_gap_counts_match_interval_counts() {
    for case in 0..CASES {
        let mut rng = rng_for(14, case);
        let a = random_set(&mut rng, 10);
        // Gap convention: exactly one gap between consecutive intervals.
        let inner = a.gaps(None);
        if a.is_empty() {
            assert!(inner.is_empty());
        } else {
            assert_eq!(inner.len(), a.len() - 1);
        }
        // Horizon strictly containing the span adds leading and trailing
        // gaps — except for the empty set, which has no gaps at all.
        let horizon = (Time::from_secs(-5.0), Time::from_secs(200.0));
        let all = a.gaps(Some(horizon));
        if a.is_empty() {
            assert!(all.is_empty(), "empty busy set must produce no gaps");
        } else {
            assert_eq!(all.len(), a.len() + 1);
            // Busy time plus gap time tiles the horizon.
            let tiled = total_secs(&a) + total_secs(&all);
            let span_len = (horizon.1 - horizon.0).as_secs();
            assert!((tiled - span_len).abs() <= 1e-9 * span_len);
        }
    }
}

#[test]
fn sorted_by_deadline_is_sorted_and_stable_permutation() {
    for case in 0..CASES {
        let mut rng = rng_for(9, case);
        let n = rng.gen_range(1usize..15);
        let tasks = TaskSet::new(
            (0..n)
                .map(|i| {
                    let r = rng.gen_range(0.0f64..50.0);
                    let win = rng.gen_range(0.1f64..20.0);
                    Task::new(
                        i,
                        Time::from_secs(r),
                        Time::from_secs(r + win),
                        Cycles::new(1.0),
                    )
                })
                .collect(),
        )
        .unwrap();
        let sorted = tasks.sorted_by_deadline();
        assert_eq!(sorted.len(), tasks.len());
        for w in sorted.windows(2) {
            assert!(w[0].deadline() <= w[1].deadline());
        }
        // Same multiset of ids.
        let mut ids: Vec<usize> = sorted.iter().map(|t| t.id().0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..tasks.len()).collect::<Vec<_>>());
    }
}

#[test]
fn task_sets_reject_any_non_finite_field_with_typed_errors() {
    use sdem_types::TaskSetError;

    let poisons = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    for case in 0..CASES {
        let mut rng = rng_for(15, case);
        let n = rng.gen_range(1usize..12);
        let mut tasks: Vec<Task> = (0..n)
            .map(|i| {
                let r = rng.gen_range(0.0f64..50.0);
                let win = rng.gen_range(0.1f64..20.0);
                Task::new(
                    i,
                    Time::from_secs(r),
                    Time::from_secs(r + win),
                    Cycles::new(rng.gen_range(1.0f64..1e6)),
                )
            })
            .collect();
        // The clean set always validates…
        TaskSet::new(tasks.clone()).expect("clean set");

        // …then poison exactly one field of one task with NaN/±∞ and the
        // constructor must reject it, naming the offending task.
        let victim = rng.gen_range(0usize..n);
        let poison = poisons[rng.gen_range(0usize..poisons.len())];
        let field = rng.gen_range(0usize..3);
        let t = &tasks[victim];
        tasks[victim] = match field {
            0 => Task::new(victim, Time::from_secs(poison), t.deadline(), t.work()),
            1 => Task::new(victim, t.release(), Time::from_secs(poison), t.work()),
            _ => Task::new(victim, t.release(), t.deadline(), Cycles::new(poison)),
        };
        match TaskSet::new(tasks) {
            Err(TaskSetError::InvalidTask(id)) => assert_eq!(id, TaskId(victim)),
            // A -∞ deadline (or +∞ release) can also trip the window check
            // first; either typed rejection is acceptable.
            Err(TaskSetError::EmptyWindow(id)) => assert_eq!(id, TaskId(victim)),
            other => panic!("poisoned set accepted or misreported: {other:?}"),
        }
    }
}

/// One random task set with ties, signed zeros and zero-work tasks —
/// hostile input for the SoA columns and their argsorts.
fn soa_case(rng: &mut ChaCha8Rng) -> TaskSet {
    let n = rng.gen_range(1usize..25);
    let tasks: Vec<Task> = (0..n)
        .map(|i| {
            let release = match rng.gen_range(0usize..4) {
                0 => 0.0,
                1 => -0.0,
                // Coarse grid so distinct tasks often tie on release.
                _ => rng.gen_range(0.0f64..4.0).floor(),
            };
            let deadline = release.abs() + rng.gen_range(0.5f64..8.0).floor() + 0.5;
            let work = if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(1.0f64..1e6)
            };
            Task::new(
                i,
                Time::from_secs(release),
                Time::from_secs(deadline),
                Cycles::new(work),
            )
        })
        .collect();
    TaskSet::new(tasks).expect("valid set")
}

#[test]
fn soa_round_trips_and_orders_match_aos_over_200_seeds() {
    use sdem_types::Workspace;
    let mut ws = Workspace::new();
    for case in 0..200 {
        let mut rng = rng_for(16, case);
        let set = soa_case(&mut rng);
        let mut soa = ws.take_soa();
        set.fill_soa(&mut soa);

        // AoS ↔ SoA round trip is bit-exact per task (signed zeros too).
        assert_eq!(soa.len(), set.len());
        for (i, t) in set.iter().enumerate() {
            let back = soa.task(i);
            assert_eq!(&back, t);
            assert_eq!(
                back.release().as_secs().to_bits(),
                t.release().as_secs().to_bits()
            );
        }

        // The argsorted views reproduce the AoS sorts exactly, ties and all.
        let mut order = ws.take_usizes();
        soa.arrival_order_into(&mut order);
        let arrivals: Vec<Task> = order.iter().map(|&i| soa.task(i)).collect();
        assert_eq!(arrivals, set.sorted_by_release());

        // The canonical copy, folded in place, hashes like the set in any
        // stored order, ties and signed zeros included (the byte sequence
        // itself is pinned in sdem-serve's canonical_hash_pin suite).
        let reversed = TaskSet::new(set.iter().rev().copied().collect()).expect("valid set");
        assert_eq!(set.canonicalize().canonical_hash(), set.canonical_hash());
        assert_eq!(reversed.canonical_hash(), set.canonical_hash());

        assert_eq!(soa.is_common_release(), set.is_common_release());
        ws.recycle_usizes(order);
        ws.recycle_soa(soa);
    }
}
