//! Pins the scheme table (`sdem::core::SCHEMES`). Its 13 wire names are
//! the serve protocol's `scheme` values and its 15 `solve/…` labels name
//! the observability sites, so neither may drift; and `Scheme::Auto` must
//! route every task-set shape to the scheme the shape analysis dictates,
//! bit-identically to solving that scheme directly.

use std::collections::HashSet;

use sdem::core::{solve, Scheme, SCHEMES};
use sdem::power::{CorePower, MemoryPower, Platform};
use sdem::serve::api::scheme_from_name;
use sdem::serve::ApiError;
use sdem::types::{Cycles, Task, TaskSet, Time, Watts};

#[test]
fn wire_names_round_trip() {
    let cores = 3;
    let expected = [
        ("auto", Scheme::Auto),
        ("sdem-on", Scheme::OnlineBounded(cores)),
        ("cr-alpha-zero", Scheme::CommonReleaseAlphaZero),
        ("cr-alpha-nonzero", Scheme::CommonReleaseAlphaNonzero),
        ("cr-overhead", Scheme::CommonReleaseOverhead),
        ("agreeable", Scheme::Agreeable),
        ("agreeable-strict", Scheme::AgreeableStrict),
        ("bounded-auto", Scheme::BoundedAuto(cores)),
        ("bounded-exact", Scheme::BoundedExact(cores)),
        ("bounded-bnb", Scheme::BoundedBnb(cores)),
        ("bounded-refined", Scheme::BoundedRefined(cores)),
        ("bounded-lpt", Scheme::BoundedLpt(cores)),
        ("dag-federated", Scheme::DagFederated(cores)),
    ];
    let table: Vec<&str> = SCHEMES.iter().filter_map(|e| e.wire).collect();
    assert_eq!(table, expected.map(|(name, _)| name));
    for (name, scheme) in expected {
        assert_eq!(scheme_from_name(name, cores), Ok(scheme), "`{name}`");
        assert_eq!(scheme.wire_name(), Some(name));
    }
    assert_eq!(Scheme::AgreeableOverhead.wire_name(), None);
    assert_eq!(Scheme::Online.wire_name(), None);
    assert_eq!(
        scheme_from_name("magic", cores),
        Err(ApiError::bad_request(
            "unknown scheme `magic` (expected auto, sdem-on, cr-alpha-zero, \
             cr-alpha-nonzero, cr-overhead, agreeable, agreeable-strict, \
             bounded-auto, bounded-exact, bounded-bnb, bounded-refined, \
             bounded-lpt or dag-federated)"
        ))
    );
}

#[test]
fn solve_labels_are_pinned_and_unique() {
    let pinned = [
        (Scheme::Auto, "solve/auto"),
        (
            Scheme::CommonReleaseAlphaZero,
            "solve/common-release-alpha-zero",
        ),
        (
            Scheme::CommonReleaseAlphaNonzero,
            "solve/common-release-alpha-nonzero",
        ),
        (
            Scheme::CommonReleaseOverhead,
            "solve/common-release-overhead",
        ),
        (Scheme::Agreeable, "solve/agreeable"),
        (Scheme::AgreeableStrict, "solve/agreeable-strict"),
        (Scheme::AgreeableOverhead, "solve/agreeable-overhead"),
        (Scheme::Online, "solve/online"),
        (Scheme::OnlineBounded(2), "solve/online-bounded"),
        (Scheme::BoundedLpt(2), "solve/bounded-lpt"),
        (Scheme::BoundedExact(2), "solve/bounded-exact"),
        (Scheme::BoundedBnb(2), "solve/bounded-bnb"),
        (Scheme::BoundedRefined(2), "solve/bounded-refined"),
        (Scheme::BoundedAuto(2), "solve/bounded-auto"),
        (Scheme::DagFederated(2), "solve/dag-federated"),
    ];
    for (scheme, label) in pinned {
        assert_eq!(scheme.solve_label(), label);
    }
    let labels: HashSet<&str> = pinned.iter().map(|&(_, label)| label).collect();
    assert_eq!(labels.len(), SCHEMES.len());
    assert_eq!(labels, SCHEMES.iter().map(|e| e.label).collect());
}

/// `Scheme::Auto` picks `expected` on `platform`, and solving Auto is
/// bit-identical to solving `expected`.
fn assert_auto_routes(tasks: &TaskSet, platform: &Platform, expected: Scheme) {
    assert_eq!(Scheme::Auto.resolve(tasks, platform), expected);
    let auto = solve(tasks, platform, Scheme::Auto).unwrap();
    let direct = solve(tasks, platform, expected).unwrap();
    assert_eq!(
        auto.predicted_energy().value().to_bits(),
        direct.predicted_energy().value().to_bits(),
        "{expected:?}"
    );
    assert_eq!(auto.memory_sleep(), direct.memory_sleep());
    assert_eq!(auto.schedule(), direct.schedule());
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
    .unwrap()
}

/// A zero-break-even platform (paper cores with core static power `alpha`
/// in mW) so the non-overhead schemes apply.
fn zero_overhead_platform(alpha: f64) -> Platform {
    Platform::new(
        CorePower::from_paper_units(alpha, 2.53e-7, 3.0, 700.0, 1900.0),
        MemoryPower::new(Watts::new(4.0)),
    )
}

#[test]
fn auto_routes_common_release_sets() {
    let tasks = set(&[
        (0.0, 40.0, 8.0e6),
        (0.0, 70.0, 12.0e6),
        (0.0, 110.0, 20.0e6),
    ]);
    assert_auto_routes(
        &tasks,
        &zero_overhead_platform(310.0),
        Scheme::CommonReleaseAlphaNonzero,
    );
    assert_auto_routes(
        &tasks,
        &zero_overhead_platform(0.0),
        Scheme::CommonReleaseAlphaZero,
    );
    assert_auto_routes(
        &tasks,
        &Platform::paper_defaults(),
        Scheme::CommonReleaseOverhead,
    );
}

#[test]
fn auto_routes_agreeable_sets() {
    let tasks = set(&[
        (0.0, 50.0, 6.0e6),
        (20.0, 90.0, 9.0e6),
        (60.0, 150.0, 14.0e6),
    ]);
    assert_auto_routes(&tasks, &zero_overhead_platform(310.0), Scheme::Agreeable);
    assert_auto_routes(
        &tasks,
        &Platform::paper_defaults(),
        Scheme::AgreeableOverhead,
    );
}

#[test]
fn auto_routes_general_sets() {
    // Neither common-release nor agreeable: the second task's window nests
    // inside the first's.
    let tasks = set(&[
        (0.0, 120.0, 10.0e6),
        (20.0, 60.0, 6.0e6),
        (80.0, 200.0, 12.0e6),
    ]);
    assert_auto_routes(&tasks, &zero_overhead_platform(310.0), Scheme::Online);
    assert_auto_routes(&tasks, &Platform::paper_defaults(), Scheme::Online);
}
