//! Pins the event-driven engine's reports bit for bit.
//!
//! [`simulate_event_driven`] is the sim-oracle's independent time
//! integration: it classifies every component's state at each slice
//! midpoint and accumulates power × time. How it finds those states may
//! change; what it reports may not. This suite folds every field of every
//! report (both sleep counts included) over seeded pools into FNV-1a
//! digests and checks them against values recorded before the engine was
//! rewritten around monotone cursors:
//!
//! * Fig. 7a-size schedules (60 sporadic tasks, 8 cores) from SDEM-ON and
//!   MBKP, on the paper platform, on `α = 0`, on `ξ = ξ_m = 0` and on a
//!   platform with a core break-even time and memory access energy, each
//!   under every [`SleepPolicy`] and both the gap and horizon conventions;
//! * unvalidated schedules (`validate: false`) with overlapping,
//!   touching, zero-length, negative-length and non-finite segments,
//!   equal starts on one core, huge magnitudes whose slice widths
//!   overflow, and cores that hold no positive-length run.
//!
//! On the validated pools the engine must also agree with the interval
//! meter to 1e-9 relative, field by field.
//!
//! [`power_trace`] classifies component states the same way, so its
//! samples are pinned too: on the Fig. 7a pools and on the unvalidated
//! pool, under both conventions. Under a horizon the unvalidated pool is
//! narrowed to the schedules in which every core, and so the memory, holds
//! a positive-length run: the trace of a component with none changed on
//! purpose (it used to be drawn awake across the whole horizon, and is now
//! off, as both meters price it).
//!
//! Do not update a pinned value to make a change pass: a moved digest
//! means the change moved an output.

use sdem_baselines::mbkp::{self, Assignment};
use sdem_core::online::schedule_online_in;
use sdem_power::{Platform, PlatformBuilder};
use sdem_prng::{ChaCha8Rng, Rng, SeedableRng};
use sdem_sim::{
    power_trace, simulate_event_driven, simulate_with_options, EnergyReport, PowerSample,
    SimOptions, SleepPolicy,
};
use sdem_types::{
    CoreId, Cycles, Placement, Schedule, Segment, Speed, Task, TaskId, TaskSet, Time, Workspace,
};
use sdem_workload::paper;
use sdem_workload::synthetic::{sporadic, SyntheticConfig};

/// FNV-1a over 64-bit words (little-endian bytes).
struct Fnv(u64);

/// The bits of `x`, every NaN folded to one: Rust leaves the sign and
/// payload of a NaN result unspecified, and they differ between build
/// profiles (`0 · ∞` from a slice of infinite width, say).
fn bits(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

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

    fn report(&mut self, report: &EnergyReport) {
        for joules in [
            report.core_dynamic,
            report.core_static,
            report.core_transition,
            report.memory_static,
            report.memory_dynamic,
            report.memory_transition,
        ] {
            self.eat(bits(joules.value()));
        }
        self.eat(bits(report.memory_awake_time.as_secs()));
        self.eat(bits(report.memory_sleep_time.as_secs()));
        self.eat(report.memory_sleeps as u64);
        self.eat(report.core_sleeps as u64);
    }

    fn trace(&mut self, trace: &[PowerSample]) {
        self.eat(trace.len() as u64);
        for sample in trace {
            self.eat(bits(sample.time.as_secs()));
            self.eat(bits(sample.cores.value()));
            self.eat(bits(sample.memory.value()));
        }
    }
}

/// The platforms every pool runs on: the paper's (`ξ = 0`, `ξ_m = 40`
/// ms), `α = 0`, `ξ = ξ_m = 0`, and a 2 ms core break-even time with 1 nJ
/// of memory access energy per cycle.
fn platforms() -> [(&'static str, Platform); 4] {
    let build = |b: PlatformBuilder| b.build().expect("valid platform");
    [
        ("paper", Platform::paper_defaults()),
        ("alpha0", build(PlatformBuilder::new().alpha_mw(0.0))),
        (
            "xi0",
            build(
                PlatformBuilder::new()
                    .core_break_even(Time::ZERO)
                    .memory_break_even(Time::ZERO),
            ),
        ),
        (
            "xi-access",
            build(
                PlatformBuilder::new()
                    .core_break_even(Time::from_millis(2.0))
                    .memory_access_energy(1.0e-9),
            ),
        ),
    ]
}

const POLICIES: [SleepPolicy; 3] = [
    SleepPolicy::NeverSleep,
    SleepPolicy::AlwaysSleep,
    SleepPolicy::WhenProfitable,
];

/// Every policy under the gap convention, then under the horizon one.
fn variants(horizon: (Time, Time), validate: bool) -> Vec<(String, SimOptions)> {
    let mut out = Vec::new();
    for (convention, window) in [("gap", None), ("horizon", Some(horizon))] {
        for policy in POLICIES {
            let options = SimOptions {
                validate,
                horizon: window,
                ..SimOptions::uniform(policy)
            };
            out.push((format!("{convention}/{policy:?}"), options));
        }
    }
    out
}

/// Seeded Fig. 7a-size instances: 60 tasks, `x` and the seed stepping
/// through the paper's grid. Seeds the platform cannot schedule are
/// skipped (the same ones at every commit).
fn fig7a_schedules(platform: &Platform, count: usize) -> Vec<(&'static str, TaskSet, Schedule)> {
    let mut ws = Workspace::new();
    let mut out = Vec::new();
    for k in 0..count as u64 {
        let x = paper::X_POINTS_MS[k as usize % paper::X_POINTS_MS.len()];
        let tasks = sporadic(
            &SyntheticConfig::paper(60, Time::from_millis(x)),
            0xE9_0000 + k,
        );
        if let Ok(s) = schedule_online_in(&tasks, platform, &mut ws) {
            out.push(("sdem-on", tasks.clone(), s));
        }
        let mbkp = mbkp::schedule_online_in(
            &tasks,
            platform,
            paper::NUM_CORES,
            Assignment::RoundRobin,
            &mut ws,
        );
        if let Ok(s) = mbkp {
            out.push(("mbkp", tasks, s));
        }
    }
    out
}

fn relative(a: f64, b: f64) -> f64 {
    let scale = a.abs().max(b.abs());
    if scale == 0.0 {
        0.0
    } else {
        (a - b).abs() / scale
    }
}

/// Asserts the interval meter and the engine agree on every field.
fn assert_meter_agrees(meter: &EnergyReport, engine: &EnergyReport, what: &str) {
    let pairs = [
        ("core_dynamic", meter.core_dynamic, engine.core_dynamic),
        ("core_static", meter.core_static, engine.core_static),
        (
            "core_transition",
            meter.core_transition,
            engine.core_transition,
        ),
        ("memory_static", meter.memory_static, engine.memory_static),
        (
            "memory_dynamic",
            meter.memory_dynamic,
            engine.memory_dynamic,
        ),
        (
            "memory_transition",
            meter.memory_transition,
            engine.memory_transition,
        ),
        ("total", meter.total(), engine.total()),
    ];
    for (field, a, b) in pairs {
        let rel = relative(a.value(), b.value());
        assert!(
            rel <= 1e-9,
            "{what}: meter {field} {} vs engine {} (relative {rel:e})",
            a.value(),
            b.value()
        );
    }
    for (field, a, b) in [
        (
            "memory_awake_time",
            meter.memory_awake_time,
            engine.memory_awake_time,
        ),
        (
            "memory_sleep_time",
            meter.memory_sleep_time,
            engine.memory_sleep_time,
        ),
    ] {
        let rel = relative(a.as_secs(), b.as_secs());
        assert!(
            rel <= 1e-9,
            "{what}: meter {field} {} vs engine {} (relative {rel:e})",
            a.as_secs(),
            b.as_secs()
        );
    }
    assert_eq!(meter.memory_sleeps, engine.memory_sleeps, "{what}");
    assert_eq!(meter.core_sleeps, engine.core_sleeps, "{what}");
}

/// One instant drawn from a hostile mix: mostly a coarse half-millisecond
/// grid (so starts tie and runs touch), sometimes a fine value, a signed
/// zero, an infinity, a NaN or a magnitude near `f64::MAX`.
fn hostile_time(rng: &mut ChaCha8Rng) -> f64 {
    match rng.next_u64() % 40 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 1.0e308,
        5 => -1.0e308,
        6 => 1.7e308,
        7..=13 => rng.gen_range(-0.002f64..0.022),
        _ => (rng.next_u64() % 40) as f64 * 5.0e-4,
    }
}

/// Unvalidated schedules: 1–4 cores (ids spread out, some holding only
/// degenerate runs), 1–6 placements of 0–4 segments each, then the
/// hand-made [`edge_schedules`].
fn hostile_schedules(count: usize) -> Vec<Schedule> {
    let mut rng = ChaCha8Rng::seed_from_u64(0xE9_6100);
    let mut out: Vec<Schedule> = (0..count)
        .map(|_| {
            let cores = 1 + rng.next_u64() % 4;
            let placements = 1 + rng.next_u64() % 6;
            Schedule::new(
                (0..placements as usize)
                    .map(|task| {
                        let core = CoreId((rng.next_u64() % cores) as usize * 3);
                        let segments = (0..rng.next_u64() % 5)
                            .map(|_| {
                                let start = hostile_time(&mut rng);
                                let end = match rng.next_u64() % 8 {
                                    0 => start,
                                    1 => start - (1 + rng.next_u64() % 6) as f64 * 5.0e-4,
                                    2 => hostile_time(&mut rng),
                                    _ => start + (1 + rng.next_u64() % 12) as f64 * 5.0e-4,
                                };
                                let speed = match rng.next_u64() % 16 {
                                    0 => 0.0,
                                    1 => f64::NAN,
                                    2 => f64::INFINITY,
                                    3 => -1.0e9,
                                    _ => rng.gen_range(7.0e8f64..1.9e9),
                                };
                                Segment::new(
                                    Time::from_secs(start),
                                    Time::from_secs(end),
                                    Speed::from_hz(speed),
                                )
                            })
                            .collect();
                        Placement::new(TaskId(task), core, segments)
                    })
                    .collect(),
            )
        })
        .collect();
    out.extend(edge_schedules());
    out
}

/// Schedules whose slice midpoints do not rise monotonically or are not
/// numbers: a slice from `-1e308` to `1e308` is infinitely wide, so its
/// midpoint (`+∞`) lies past the next slice's; a slice from `-∞` has a
/// NaN midpoint; equal starts on one core carry different speeds, on
/// few runs and on many.
fn edge_schedules() -> Vec<Schedule> {
    let run = |core: usize, start: f64, end: f64, mhz: f64| {
        Placement::new(
            TaskId(0),
            CoreId(core),
            vec![Segment::new(
                Time::from_secs(start),
                Time::from_secs(end),
                Speed::from_mhz(mhz),
            )],
        )
    };
    vec![
        Schedule::new(vec![
            run(0, -1.0e308, 1.0e308, 900.0),
            run(0, 1.2e308, 1.7e308, 1200.0),
        ]),
        Schedule::new(vec![
            run(0, -1.0e308, 1.0e308, 900.0),
            run(1, 1.2e308, 1.7e308, 1200.0),
            run(1, 0.001, 0.002, 1500.0),
        ]),
        Schedule::new(vec![
            run(0, f64::NEG_INFINITY, 0.001, 800.0),
            run(0, 0.002, 0.003, 1000.0),
            run(1, 0.0025, f64::NAN, 1000.0),
        ]),
        Schedule::new(vec![
            run(2, 0.001, 0.004, 1000.0),
            run(2, 0.001, 0.002, 1800.0),
            run(2, 0.003, 0.003, 700.0),
            run(2, 0.0015, 0.005, 1100.0),
        ]),
        // Forty overlapping runs on one core sharing four starts: the
        // first in placement order among equal starts sets the speed, a
        // tie order small-slice sorts keep by accident.
        Schedule::new(
            (0..40)
                .map(|k| {
                    let start = ((k * 7) % 4) as f64 * 1.0e-3;
                    let end = start + (1 + (k * 5) % 6) as f64 * 5.0e-4;
                    run(1, start, end, 700.0 + 25.0 * k as f64)
                })
                .collect(),
        ),
    ]
}

/// Whether every core of `schedule`, and so the memory, holds a run with
/// `start < end`.
fn every_component_runs(schedule: &Schedule) -> bool {
    let placements = schedule.placements();
    let runs_on = |core| {
        placements
            .iter()
            .filter(|p| p.core() == core)
            .flat_map(|p| p.segments())
            .any(|s| s.start() < s.end())
    };
    !placements.is_empty() && placements.iter().all(|p| runs_on(p.core()))
}

fn all_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (name, platform) in platforms() {
        let schedules = fig7a_schedules(&platform, 16);
        for scheme in ["sdem-on", "mbkp"] {
            let pooled = schedules.iter().filter(|(s, ..)| *s == scheme).count();
            assert!(pooled >= 12, "{name}/{scheme}: only {pooled} schedules");
            for (variant, options) in variants((Time::ZERO, Time::ZERO), true) {
                let (mut h, mut traces) = (Fnv::new(), Fnv::new());
                for (_, tasks, schedule) in schedules.iter().filter(|(s, ..)| *s == scheme) {
                    let options = SimOptions {
                        horizon: options
                            .horizon
                            .map(|_| (Time::ZERO, tasks.latest_deadline())),
                        ..options
                    };
                    let engine = simulate_event_driven(schedule, tasks, &platform, options)
                        .expect("solver output validates");
                    let meter = simulate_with_options(schedule, tasks, &platform, options)
                        .expect("solver output validates");
                    assert_meter_agrees(&meter, &engine, &format!("{name}/{scheme}/{variant}"));
                    h.report(&engine);
                    traces.trace(&power_trace(schedule, &platform, options, 256));
                }
                out.push((format!("fig7a/{name}/{scheme}/{variant}"), h.0));
                out.push((format!("trace/fig7a/{name}/{scheme}/{variant}"), traces.0));
            }
        }
    }

    // Any task set will do: nothing is validated.
    let tasks = TaskSet::new(vec![Task::new(
        0,
        Time::ZERO,
        Time::from_millis(20.0),
        Cycles::new(1.0),
    )])
    .expect("valid set");
    let hostile = hostile_schedules(1000);
    let covered = hostile.iter().filter(|s| every_component_runs(s)).count();
    assert!(
        covered >= 700,
        "only {covered} schedules run on every component"
    );
    for (name, platform) in platforms() {
        let window = (Time::from_millis(-1.0), Time::from_millis(21.0));
        for (variant, options) in variants(window, false) {
            let mut h = Fnv::new();
            for schedule in &hostile {
                let report = simulate_event_driven(schedule, &tasks, &platform, options)
                    .expect("validation is off");
                h.report(&report);
            }
            out.push((format!("hostile/{name}/{variant}"), h.0));
            let mut traces = Fnv::new();
            for schedule in &hostile {
                if options.horizon.is_none() || every_component_runs(schedule) {
                    traces.trace(&power_trace(schedule, &platform, options, 64));
                }
            }
            out.push((format!("trace/hostile/{name}/{variant}"), traces.0));
        }
    }
    out
}

/// Digests recorded before the cursor rewrite of the engine and the
/// power trace.
const PINNED: &[(&str, u64)] = &[
    ("fig7a/paper/sdem-on/gap/NeverSleep", 0x51df022fcd95f429),
    (
        "trace/fig7a/paper/sdem-on/gap/NeverSleep",
        0x5be78233390f8954,
    ),
    ("fig7a/paper/sdem-on/gap/AlwaysSleep", 0xa31668245ea0aad3),
    (
        "trace/fig7a/paper/sdem-on/gap/AlwaysSleep",
        0x8bb757c864a0b0a9,
    ),
    ("fig7a/paper/sdem-on/gap/WhenProfitable", 0x66b3412c69ace279),
    (
        "trace/fig7a/paper/sdem-on/gap/WhenProfitable",
        0x3e1a8e6d8c2caa59,
    ),
    ("fig7a/paper/sdem-on/horizon/NeverSleep", 0xc87d1755e1d3b8b7),
    (
        "trace/fig7a/paper/sdem-on/horizon/NeverSleep",
        0x453551f286e7b770,
    ),
    (
        "fig7a/paper/sdem-on/horizon/AlwaysSleep",
        0x17fe85b92ab2f675,
    ),
    (
        "trace/fig7a/paper/sdem-on/horizon/AlwaysSleep",
        0x6907845ecdd12b1a,
    ),
    (
        "fig7a/paper/sdem-on/horizon/WhenProfitable",
        0xecb810fde7876002,
    ),
    (
        "trace/fig7a/paper/sdem-on/horizon/WhenProfitable",
        0x33d2a85cb676eaea,
    ),
    ("fig7a/paper/mbkp/gap/NeverSleep", 0x7d9e26619816eefb),
    ("trace/fig7a/paper/mbkp/gap/NeverSleep", 0x849dfe755aba33b8),
    ("fig7a/paper/mbkp/gap/AlwaysSleep", 0x633305f19ae96b2d),
    ("trace/fig7a/paper/mbkp/gap/AlwaysSleep", 0x5a4a7861626fb4d2),
    ("fig7a/paper/mbkp/gap/WhenProfitable", 0x91ce86edda30a428),
    (
        "trace/fig7a/paper/mbkp/gap/WhenProfitable",
        0x813f46828a7da152,
    ),
    ("fig7a/paper/mbkp/horizon/NeverSleep", 0x44d6c7cc4e5722c8),
    (
        "trace/fig7a/paper/mbkp/horizon/NeverSleep",
        0x6b5f8cb8299fb0be,
    ),
    ("fig7a/paper/mbkp/horizon/AlwaysSleep", 0x140e196f81c25f80),
    (
        "trace/fig7a/paper/mbkp/horizon/AlwaysSleep",
        0x8438920a8dd7cab2,
    ),
    (
        "fig7a/paper/mbkp/horizon/WhenProfitable",
        0xb453ae69a972f6d7,
    ),
    (
        "trace/fig7a/paper/mbkp/horizon/WhenProfitable",
        0xb723cbf2c50ab432,
    ),
    ("fig7a/alpha0/sdem-on/gap/NeverSleep", 0x241b2227e25575c8),
    (
        "trace/fig7a/alpha0/sdem-on/gap/NeverSleep",
        0x1e72d6325b102b0b,
    ),
    ("fig7a/alpha0/sdem-on/gap/AlwaysSleep", 0xb7fcd4bea746d8eb),
    (
        "trace/fig7a/alpha0/sdem-on/gap/AlwaysSleep",
        0x56c3a3ace8e5eacb,
    ),
    (
        "fig7a/alpha0/sdem-on/gap/WhenProfitable",
        0x697d08531adcb387,
    ),
    (
        "trace/fig7a/alpha0/sdem-on/gap/WhenProfitable",
        0xc5542901aca181eb,
    ),
    (
        "fig7a/alpha0/sdem-on/horizon/NeverSleep",
        0xd26db7f344c936ec,
    ),
    (
        "trace/fig7a/alpha0/sdem-on/horizon/NeverSleep",
        0x5f65eeedbdc91325,
    ),
    (
        "fig7a/alpha0/sdem-on/horizon/AlwaysSleep",
        0xfa11de79c5e4b7a8,
    ),
    (
        "trace/fig7a/alpha0/sdem-on/horizon/AlwaysSleep",
        0xf9421e36579df645,
    ),
    (
        "fig7a/alpha0/sdem-on/horizon/WhenProfitable",
        0x3c6cd202339481ad,
    ),
    (
        "trace/fig7a/alpha0/sdem-on/horizon/WhenProfitable",
        0xd78b04b4c40ff4c5,
    ),
    ("fig7a/alpha0/mbkp/gap/NeverSleep", 0xe9d8cdf4fec2f674),
    ("trace/fig7a/alpha0/mbkp/gap/NeverSleep", 0xb6c2daca8786f286),
    ("fig7a/alpha0/mbkp/gap/AlwaysSleep", 0xc28609411c5be20b),
    (
        "trace/fig7a/alpha0/mbkp/gap/AlwaysSleep",
        0x2a45a3c07637b5c6,
    ),
    ("fig7a/alpha0/mbkp/gap/WhenProfitable", 0x7b23f62ae7379662),
    (
        "trace/fig7a/alpha0/mbkp/gap/WhenProfitable",
        0x44658b1977e6cb86,
    ),
    ("fig7a/alpha0/mbkp/horizon/NeverSleep", 0x946dd5ad6818b5f4),
    (
        "trace/fig7a/alpha0/mbkp/horizon/NeverSleep",
        0x8b432061ad52d4a7,
    ),
    ("fig7a/alpha0/mbkp/horizon/AlwaysSleep", 0xad0807348b12e1ba),
    (
        "trace/fig7a/alpha0/mbkp/horizon/AlwaysSleep",
        0x50b6fddf578b86b7,
    ),
    (
        "fig7a/alpha0/mbkp/horizon/WhenProfitable",
        0xe5799ec41b87eaf5,
    ),
    (
        "trace/fig7a/alpha0/mbkp/horizon/WhenProfitable",
        0xfc887a221094a537,
    ),
    ("fig7a/xi0/sdem-on/gap/NeverSleep", 0x6a919bf7cd0ff8a4),
    ("trace/fig7a/xi0/sdem-on/gap/NeverSleep", 0x6f6cfcd6ff49a791),
    ("fig7a/xi0/sdem-on/gap/AlwaysSleep", 0xed0e8b0981b541ef),
    (
        "trace/fig7a/xi0/sdem-on/gap/AlwaysSleep",
        0x101905eef482519b,
    ),
    ("fig7a/xi0/sdem-on/gap/WhenProfitable", 0xed0e8b0981b541ef),
    (
        "trace/fig7a/xi0/sdem-on/gap/WhenProfitable",
        0x101905eef482519b,
    ),
    ("fig7a/xi0/sdem-on/horizon/NeverSleep", 0x92a7be28b18a50d5),
    (
        "trace/fig7a/xi0/sdem-on/horizon/NeverSleep",
        0x459c58dbdcaea98f,
    ),
    ("fig7a/xi0/sdem-on/horizon/AlwaysSleep", 0x8ef395f4954e282e),
    (
        "trace/fig7a/xi0/sdem-on/horizon/AlwaysSleep",
        0x8e26169e1e8b4c89,
    ),
    (
        "fig7a/xi0/sdem-on/horizon/WhenProfitable",
        0x8ef395f4954e282e,
    ),
    (
        "trace/fig7a/xi0/sdem-on/horizon/WhenProfitable",
        0x8e26169e1e8b4c89,
    ),
    ("fig7a/xi0/mbkp/gap/NeverSleep", 0x7d9e26619816eefb),
    ("trace/fig7a/xi0/mbkp/gap/NeverSleep", 0x849dfe755aba33b8),
    ("fig7a/xi0/mbkp/gap/AlwaysSleep", 0x93dfb307056c19a2),
    ("trace/fig7a/xi0/mbkp/gap/AlwaysSleep", 0x5a4a7861626fb4d2),
    ("fig7a/xi0/mbkp/gap/WhenProfitable", 0x93dfb307056c19a2),
    (
        "trace/fig7a/xi0/mbkp/gap/WhenProfitable",
        0x5a4a7861626fb4d2,
    ),
    ("fig7a/xi0/mbkp/horizon/NeverSleep", 0x44d6c7cc4e5722c8),
    (
        "trace/fig7a/xi0/mbkp/horizon/NeverSleep",
        0x6b5f8cb8299fb0be,
    ),
    ("fig7a/xi0/mbkp/horizon/AlwaysSleep", 0xd22a05ae44d647cc),
    (
        "trace/fig7a/xi0/mbkp/horizon/AlwaysSleep",
        0x8438920a8dd7cab2,
    ),
    ("fig7a/xi0/mbkp/horizon/WhenProfitable", 0xd22a05ae44d647cc),
    (
        "trace/fig7a/xi0/mbkp/horizon/WhenProfitable",
        0x8438920a8dd7cab2,
    ),
    ("fig7a/xi-access/sdem-on/gap/NeverSleep", 0x971c3cfa96aa32b0),
    (
        "trace/fig7a/xi-access/sdem-on/gap/NeverSleep",
        0x5be78233390f8954,
    ),
    (
        "fig7a/xi-access/sdem-on/gap/AlwaysSleep",
        0xfd5358b0831b6b6b,
    ),
    (
        "trace/fig7a/xi-access/sdem-on/gap/AlwaysSleep",
        0x8bb757c864a0b0a9,
    ),
    (
        "fig7a/xi-access/sdem-on/gap/WhenProfitable",
        0xcf8feb81952b2e9d,
    ),
    (
        "trace/fig7a/xi-access/sdem-on/gap/WhenProfitable",
        0x3e1a8e6d8c2caa59,
    ),
    (
        "fig7a/xi-access/sdem-on/horizon/NeverSleep",
        0xd9415e871e7cf7f6,
    ),
    (
        "trace/fig7a/xi-access/sdem-on/horizon/NeverSleep",
        0x453551f286e7b770,
    ),
    (
        "fig7a/xi-access/sdem-on/horizon/AlwaysSleep",
        0xac1273d805495cce,
    ),
    (
        "trace/fig7a/xi-access/sdem-on/horizon/AlwaysSleep",
        0x6907845ecdd12b1a,
    ),
    (
        "fig7a/xi-access/sdem-on/horizon/WhenProfitable",
        0x0412734a903179b1,
    ),
    (
        "trace/fig7a/xi-access/sdem-on/horizon/WhenProfitable",
        0x33d2a85cb676eaea,
    ),
    ("fig7a/xi-access/mbkp/gap/NeverSleep", 0xc438775dd8176b5d),
    (
        "trace/fig7a/xi-access/mbkp/gap/NeverSleep",
        0x849dfe755aba33b8,
    ),
    ("fig7a/xi-access/mbkp/gap/AlwaysSleep", 0xd1a5e63f69fe3c93),
    (
        "trace/fig7a/xi-access/mbkp/gap/AlwaysSleep",
        0x5a4a7861626fb4d2,
    ),
    (
        "fig7a/xi-access/mbkp/gap/WhenProfitable",
        0x8179f69ade65336e,
    ),
    (
        "trace/fig7a/xi-access/mbkp/gap/WhenProfitable",
        0x813f46828a7da152,
    ),
    (
        "fig7a/xi-access/mbkp/horizon/NeverSleep",
        0x4c0f4248bc86dbd2,
    ),
    (
        "trace/fig7a/xi-access/mbkp/horizon/NeverSleep",
        0x6b5f8cb8299fb0be,
    ),
    (
        "fig7a/xi-access/mbkp/horizon/AlwaysSleep",
        0x81e646cd93d81936,
    ),
    (
        "trace/fig7a/xi-access/mbkp/horizon/AlwaysSleep",
        0x8438920a8dd7cab2,
    ),
    (
        "fig7a/xi-access/mbkp/horizon/WhenProfitable",
        0xb1c0465a1c8496e1,
    ),
    (
        "trace/fig7a/xi-access/mbkp/horizon/WhenProfitable",
        0xb723cbf2c50ab432,
    ),
    ("hostile/paper/gap/NeverSleep", 0x2527c5d98aaa61c0),
    ("trace/hostile/paper/gap/NeverSleep", 0x58ea3cd5ae511ca0),
    ("hostile/paper/gap/AlwaysSleep", 0xe259fa153d3be2d3),
    ("trace/hostile/paper/gap/AlwaysSleep", 0xe039a2253e3abdc2),
    ("hostile/paper/gap/WhenProfitable", 0x190d196c185417a4),
    ("trace/hostile/paper/gap/WhenProfitable", 0xdad3aff0f9cac282),
    ("hostile/paper/horizon/NeverSleep", 0x844508bea5c86483),
    ("trace/hostile/paper/horizon/NeverSleep", 0x81ea62b6b6007bfd),
    ("hostile/paper/horizon/AlwaysSleep", 0x604a938c2d4802e4),
    (
        "trace/hostile/paper/horizon/AlwaysSleep",
        0x735b3fa203fe8a2c,
    ),
    ("hostile/paper/horizon/WhenProfitable", 0x5e8d770adaa1cf4e),
    (
        "trace/hostile/paper/horizon/WhenProfitable",
        0x08309bb51bc9c85c,
    ),
    ("hostile/alpha0/gap/NeverSleep", 0x1cbcdadd1267b25a),
    ("trace/hostile/alpha0/gap/NeverSleep", 0x67c755cf519f255b),
    ("hostile/alpha0/gap/AlwaysSleep", 0xc3f3db9b6b035cb8),
    ("trace/hostile/alpha0/gap/AlwaysSleep", 0xc25b72519455787b),
    ("hostile/alpha0/gap/WhenProfitable", 0x3cbf35e99d7162d7),
    (
        "trace/hostile/alpha0/gap/WhenProfitable",
        0x67c755cf519f255b,
    ),
    ("hostile/alpha0/horizon/NeverSleep", 0xbe3af3530d09cb4a),
    (
        "trace/hostile/alpha0/horizon/NeverSleep",
        0xb9feb223b9c72a55,
    ),
    ("hostile/alpha0/horizon/AlwaysSleep", 0xe086465f7648d411),
    (
        "trace/hostile/alpha0/horizon/AlwaysSleep",
        0x4f22b0da1b6d16e5,
    ),
    ("hostile/alpha0/horizon/WhenProfitable", 0xcad00c9c074062cf),
    (
        "trace/hostile/alpha0/horizon/WhenProfitable",
        0xb9feb223b9c72a55,
    ),
    ("hostile/xi0/gap/NeverSleep", 0x2527c5d98aaa61c0),
    ("trace/hostile/xi0/gap/NeverSleep", 0x58ea3cd5ae511ca0),
    ("hostile/xi0/gap/AlwaysSleep", 0x8d782e28ef05f3c2),
    ("trace/hostile/xi0/gap/AlwaysSleep", 0xe039a2253e3abdc2),
    ("hostile/xi0/gap/WhenProfitable", 0x8d782e28ef05f3c2),
    ("trace/hostile/xi0/gap/WhenProfitable", 0xe039a2253e3abdc2),
    ("hostile/xi0/horizon/NeverSleep", 0x844508bea5c86483),
    ("trace/hostile/xi0/horizon/NeverSleep", 0x81ea62b6b6007bfd),
    ("hostile/xi0/horizon/AlwaysSleep", 0x078d3fba4c366150),
    ("trace/hostile/xi0/horizon/AlwaysSleep", 0x735b3fa203fe8a2c),
    ("hostile/xi0/horizon/WhenProfitable", 0x078d3fba4c366150),
    (
        "trace/hostile/xi0/horizon/WhenProfitable",
        0x735b3fa203fe8a2c,
    ),
    ("hostile/xi-access/gap/NeverSleep", 0x69de1c4a0f693d6a),
    ("trace/hostile/xi-access/gap/NeverSleep", 0x58ea3cd5ae511ca0),
    ("hostile/xi-access/gap/AlwaysSleep", 0x91d68bcc04d5a8b4),
    (
        "trace/hostile/xi-access/gap/AlwaysSleep",
        0xe039a2253e3abdc2,
    ),
    ("hostile/xi-access/gap/WhenProfitable", 0x0ca3440dc54ea603),
    (
        "trace/hostile/xi-access/gap/WhenProfitable",
        0xfcffb372353f659b,
    ),
    ("hostile/xi-access/horizon/NeverSleep", 0xe5306187fbd94bd3),
    (
        "trace/hostile/xi-access/horizon/NeverSleep",
        0x81ea62b6b6007bfd,
    ),
    ("hostile/xi-access/horizon/AlwaysSleep", 0xa674ba6b286cf15e),
    (
        "trace/hostile/xi-access/horizon/AlwaysSleep",
        0x735b3fa203fe8a2c,
    ),
    (
        "hostile/xi-access/horizon/WhenProfitable",
        0x2e46c0e6e76eb6e5,
    ),
    (
        "trace/hostile/xi-access/horizon/WhenProfitable",
        0x8972b5ebeaaa2cb7,
    ),
];

#[test]
fn engine_reports_match_the_pinned_digests() {
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
