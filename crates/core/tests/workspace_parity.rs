//! Parity of a cold solve (`solve`, a fresh [`Workspace`] per call) with
//! the `_in` entry points on a reused workspace, on the discrete and
//! bounded solvers' edge cases.
//!
//! Both routes run one implementation, so parity is by construction —
//! these tests pin the contract anyway, exercising the shapes most likely
//! to break buffer reuse: single tasks, tasks pinned to `s_max`, zero
//! break-even platforms, and a workspace reused (warm) across several
//! differently-shaped solves.

use sdem_core::bounded::{solve_exact_in, solve_lpt_in};
use sdem_core::discrete::{quantize_schedule, quantize_schedule_in, SpeedLevels};
use sdem_core::{solve, solve_in, Scheme, SdemError, Solution};
use sdem_power::{CorePower, MemoryPower, Platform};
use sdem_types::{Cycles, Speed, Task, TaskSet, Time, Watts, Workspace};

/// Absolute energy-parity budget between the cold and in-place
/// entry points (they share one implementation, so this is headroom).
const TOL_J: f64 = 1e-12;

fn common_release(works: &[f64], deadline_s: f64) -> TaskSet {
    TaskSet::new(
        works
            .iter()
            .enumerate()
            .map(|(i, &w)| Task::new(i, Time::ZERO, Time::from_secs(deadline_s), Cycles::new(w)))
            .collect(),
    )
    .expect("non-empty, well-formed set")
}

/// A `ξ = ξ_m = 0` platform with a bounded speed range `[0, s_up]`.
fn zero_break_even_platform(s_up: f64) -> Platform {
    Platform::new(
        CorePower::simple(1.0, 1.0, 3.0).with_max_speed(Speed::from_hz(s_up)),
        MemoryPower::new(Watts::new(2.0)),
    )
}

fn assert_energy_parity(a: &Solution, b: &Solution) {
    assert!(
        (a.predicted_energy().value() - b.predicted_energy().value()).abs() <= TOL_J,
        "cold {} J vs in-place {} J",
        a.predicted_energy().value(),
        b.predicted_energy().value()
    );
    assert_eq!(
        a.schedule().placements().len(),
        b.schedule().placements().len()
    );
}

#[test]
fn empty_task_set_is_unrepresentable() {
    // The solvers never see an empty instance: `TaskSet::new` rejects it
    // at construction, which is the edge the `_in` paths rely on (e.g.
    // `solve_lpt_in` indexes `tasks()[0]`).
    assert!(TaskSet::new(vec![]).is_err());
}

#[test]
fn single_task_lpt_and_exact_parity() {
    let platform = zero_break_even_platform(4.0);
    let tasks = common_release(&[3.0], 2.0);
    let mut ws = Workspace::new();
    for cores in [1, 3] {
        let a = solve(&tasks, &platform, Scheme::BoundedLpt(cores)).unwrap();
        let b = solve_lpt_in(&tasks, &platform, cores, &mut ws).unwrap();
        assert_energy_parity(&a, &b);
        ws.recycle_schedule(b.into_schedule());

        let a = solve(&tasks, &platform, Scheme::BoundedExact(cores)).unwrap();
        let b = solve_exact_in(&tasks, &platform, cores, &mut ws).unwrap();
        assert_energy_parity(&a, &b);
        ws.recycle_schedule(b.into_schedule());
    }
}

#[test]
fn all_tasks_at_s_max_parity_and_infeasibility_edge() {
    // Four tasks on four cores, each sized to exactly `s_up · D`: every
    // core must run flat out at `s_max` for the whole window.
    let s_up = 2.0;
    let deadline = 1.5;
    let platform = zero_break_even_platform(s_up);
    let tasks = common_release(&[3.0, 3.0, 3.0, 3.0], deadline);
    let mut ws = Workspace::new();

    let a = solve(&tasks, &platform, Scheme::BoundedLpt(4)).unwrap();
    let b = solve_lpt_in(&tasks, &platform, 4, &mut ws).unwrap();
    assert_energy_parity(&a, &b);
    for p in b.schedule().placements() {
        for s in p.segments() {
            assert!((s.speed().as_hz() - s_up).abs() < 1e-9, "must run at s_max");
        }
    }
    ws.recycle_schedule(b.into_schedule());

    // One more cycle of work than `s_max` can deliver: both entry points
    // must agree the instance is infeasible.
    let over = common_release(&[3.0 + 1e-3, 3.0, 3.0, 3.0], deadline);
    assert!(matches!(
        solve(&over, &platform, Scheme::BoundedLpt(4)),
        Err(SdemError::InfeasibleTask(_))
    ));
    assert!(matches!(
        solve_lpt_in(&over, &platform, 4, &mut ws),
        Err(SdemError::InfeasibleTask(_))
    ));
}

#[test]
fn zero_break_even_scheme_parity() {
    // ξ = ξ_m = 0: the §7 overhead machinery degenerates to the plain §4
    // pricing; both routes must agree between entry points.
    let platform = zero_break_even_platform(8.0);
    let tasks = common_release(&[1.0, 2.0, 4.0], 3.0);
    let mut ws = Workspace::new();
    for scheme in [
        Scheme::Auto,
        Scheme::CommonReleaseAlphaNonzero,
        Scheme::CommonReleaseOverhead,
    ] {
        let a = solve(&tasks, &platform, scheme).unwrap();
        let b = solve_in(&tasks, &platform, scheme, &mut ws).unwrap();
        assert_energy_parity(&a, &b);
        ws.recycle_schedule(b.into_schedule());
    }
}

#[test]
fn quantize_parity_on_reused_workspace() {
    let platform = zero_break_even_platform(4.0);
    let levels = SpeedLevels::new(vec![
        Speed::from_hz(0.5),
        Speed::from_hz(1.0),
        Speed::from_hz(3.0),
    ]);
    let mut ws = Workspace::new();
    // Reuse one workspace across differently-sized instances so buffers
    // recycled by a large solve are handed to a smaller one.
    for works in [&[2.0_f64, 1.0, 0.25, 0.125][..], &[0.5][..]] {
        let tasks = common_release(works, 2.0);
        let solution = solve_lpt_in(&tasks, &platform, 2, &mut ws).unwrap();
        let a = quantize_schedule(solution.schedule(), &levels).unwrap();
        let b = quantize_schedule_in(solution.schedule(), &levels, &mut ws).unwrap();
        assert_eq!(a.placements().len(), b.placements().len());
        for (pa, pb) in a.placements().iter().zip(b.placements()) {
            assert_eq!(pa.segments(), pb.segments());
        }
        ws.recycle_schedule(b);
        ws.recycle_schedule(solution.into_schedule());
    }

    // A segment above the fastest level errors identically in both.
    let fast = common_release(&[7.9], 2.0); // forces ~3.95 Hz > 3.0 Hz
    let solution = solve_lpt_in(&fast, &platform, 1, &mut ws).unwrap();
    assert!(matches!(
        quantize_schedule(solution.schedule(), &levels),
        Err(SdemError::InfeasibleTask(_))
    ));
    assert!(matches!(
        quantize_schedule_in(solution.schedule(), &levels, &mut ws),
        Err(SdemError::InfeasibleTask(_))
    ));
}
