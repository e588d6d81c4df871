//! Pins the Fig. 7a trial's solvers bit for bit.
//!
//! A Fig. 7a trial runs SDEM-ON, which re-solves the §7 common-release
//! problem at every arrival, and the MBKP baseline, which runs Optimal
//! Available (or YDS) per core and assembles the per-core runs into one
//! schedule. How those solvers find their answers may change; what they
//! return may not. This suite folds every output bit over seeded pools
//! into FNV-1a digests and checks them against values recorded before
//! MBKP's assembly was made linear and before the §7 solver priced each
//! distinct `Δ` candidate only once:
//!
//! * MBKP online (round-robin and least-loaded) and offline;
//! * the OA, YDS, AVR and CSS single-core schedulers (on the small pools
//!   only: one core cannot carry a Fig. 7a set);
//! * SDEM-ON, unbounded and bounded to three cores;
//! * `overhead::schedule_common_release_in`, on the common-release pools.
//!
//! The pools are seeded Fig. 7a sets (60 sporadic tasks), Fig. 6 sets
//! (eight DSPstone streams), small sets with tied releases, zero-work
//! tasks and non-dense ids, and small common-release sets, among them
//! sets whose §7 cases share a box edge. Each runs on
//! the paper platform, on `α = 0`, on `ξ = ξ_m = 0` and with a 2 ms core
//! break-even time (the paper's core `ξ` is 0, so only the last one takes
//! both branches of the constrained critical speed).
//!
//! A digest folds each placement's task and core ids and each segment's
//! start, end and speed bits, plus the predicted energy and memory-sleep
//! bits where the solver returns a `Solution`. Do not update a pinned
//! value to make a change pass: a moved digest means the change moved an
//! output.

use sdem_baselines::mbkp::{self, Assignment};
use sdem_baselines::{avr, css, oa, yds, BaselineError};
use sdem_bench::figures::fig6_tasks;
use sdem_core::online::{schedule_online_bounded_in, schedule_online_in};
use sdem_core::overhead::schedule_common_release_in;
use sdem_core::{SdemError, Solution};
use sdem_power::{Platform, PlatformBuilder};
use sdem_prng::{ChaCha8Rng, Rng, SeedableRng};
use sdem_types::{Cycles, Schedule, Task, TaskSet, Time, Workspace};
use sdem_workload::paper;
use sdem_workload::synthetic::{common_release, sporadic, SyntheticConfig};

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

    fn schedule(&mut self, schedule: &Schedule) {
        let placements = schedule.placements();
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

    fn baseline(&mut self, result: Result<Schedule, BaselineError>) {
        match result {
            Ok(s) => {
                self.eat(1);
                self.schedule(&s);
            }
            Err(e) => self.error(&e.to_string()),
        }
    }

    fn online(&mut self, result: Result<Schedule, SdemError>, ws: &mut Workspace) {
        match result {
            Ok(s) => {
                self.eat(1);
                self.schedule(&s);
                ws.recycle_schedule(s);
            }
            Err(e) => self.error(&e.to_string()),
        }
    }

    fn solution(&mut self, result: Result<Solution, SdemError>) {
        match result {
            Ok(sol) => {
                self.eat(1);
                self.eat(sol.predicted_energy().value().to_bits());
                self.eat(sol.memory_sleep().as_secs().to_bits());
                self.schedule(sol.schedule());
            }
            Err(e) => self.error(&e.to_string()),
        }
    }

    fn error(&mut self, text: &str) {
        self.eat(0xE770);
        for byte in text.bytes() {
            self.eat(u64::from(byte));
        }
    }
}

/// The platforms every pool runs on: the paper's (`ξ = 0`, `ξ_m = 40`
/// ms), `α = 0`, `ξ = ξ_m = 0`, and a 2 ms core break-even time.
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
            "xi2ms",
            build(PlatformBuilder::new().core_break_even(Time::from_millis(2.0))),
        ),
    ]
}

/// Seeded Fig. 7a sets: 60 sporadic tasks, `x` stepping through the grid.
fn fig7a_sets(count: u64) -> Vec<TaskSet> {
    (0..count)
        .map(|k| {
            let x = paper::X_POINTS_MS[k as usize % paper::X_POINTS_MS.len()];
            sporadic(
                &SyntheticConfig::paper(60, Time::from_millis(x)),
                0x5017_0000 + k,
            )
        })
        .collect()
}

/// Seeded Fig. 6 sets: eight DSPstone streams of three instances each,
/// `U` stepping through the grid.
fn fig6_sets(count: u64) -> Vec<TaskSet> {
    (0..count)
        .map(|k| {
            let u = paper::U_POINTS[k as usize % paper::U_POINTS.len()];
            fig6_tasks(u, 3, 0x5016_0000 + k)
        })
        .collect()
}

/// Small sets of 2–12 tasks: releases on a coarse grid (so they tie),
/// about a quarter of the tasks without work, and ids that are
/// non-dense, descending or huge. Every fourth set releases everything
/// at once.
fn edge_sets(count: usize) -> Vec<TaskSet> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5019_ED6E);
    (0..count)
        .map(|k| {
            let n = 2 + (rng.next_u64() % 11) as usize;
            let stride = 1 + k % 5 * 97;
            let tasks = (0..n)
                .map(|i| {
                    let id = match k % 3 {
                        0 => i * stride,
                        1 => (n - i) * stride,
                        _ => (1usize << 40) + (rng.next_u64() % 64) as usize * 64 + i,
                    };
                    let r = if k % 4 == 0 {
                        0.0
                    } else {
                        5.0 * (rng.next_u64() % 4) as f64
                    };
                    let d = r + rng.gen_range(15.0f64..120.0);
                    let w = match rng.next_u64() % 4 {
                        0 => 0.0,
                        _ => rng.gen_range(1.0e6f64..1.5e7),
                    };
                    Task::new(
                        id,
                        Time::from_millis(r),
                        Time::from_millis(d),
                        Cycles::new(w),
                    )
                })
                .collect();
            TaskSet::new(tasks).expect("ids are distinct and windows positive")
        })
        .collect()
}

/// Common-release sets `(deadline s, work cycles)` on which two adjacent
/// cases of the §7 enumeration share a box edge and the later case prices
/// it lower by rounding (found by a seeded search on `α = 0` and on the
/// 2 ms core break-even): each distinct `Δ` must be priced once per case,
/// not once per solve.
const SHARED_EDGE_SETS: &[&[(f64, f64)]] = &[
    &[
        (0.16508099112181004, 2124660.2072248566),
        (0.17114643406387023, 10986164.064669525),
        (0.007638244877368092, 13513368.28435047),
    ],
    &[
        (0.09624120053156178, 60695046.21761849),
        (0.11699883240341509, 834569.8519519757),
        (0.09342141705164035, 6553709.633554368),
        (0.03258157732438257, 57420238.32468669),
    ],
    &[
        (0.0783885614292278, 1788466.4120058576),
        (0.18295799318269546, 68586597.23670694),
        (0.12177852708480337, 167549.13455813794),
        (0.0576879064274698, 11630.45217271023),
        (0.049243492383590194, 89155082.20020871),
        (0.07748955554512259, 919261.5532144915),
    ],
    &[
        (0.03885123316730935, 131284.74483720452),
        (0.012938312942778087, 9249733.204924569),
        (0.10360445951203746, 39463.27607450403),
        (0.05610326293641108, 13190981.636115838),
        (0.11702493542853978, 1717153.6718288597),
        (0.007353544681862239, 5676712.385215511),
    ],
    &[
        (0.03041307228588794, 53722157.74986537),
        (0.003580626091260995, 601971.5657296919),
        (0.12575851011633118, 148120.30326365482),
        (0.10290425531698039, 13343300.577293525),
        (0.03452186631023498, 48938375.69474124),
    ],
    &[
        (0.17881460778998196, 18690541.252001837),
        (0.10313830138757034, 511861.5677502252),
        (0.11128046075166308, 56403100.253340155),
        (0.03214055524040813, 44919138.04631015),
        (0.14649858505207836, 473185.6970467611),
    ],
    &[
        (0.18345397600115187, 54210053.519048035),
        (0.0074582287696970916, 4450001.786643393),
        (0.03197377932344576, 47574176.64877294),
        (0.11317613570151774, 21552305.7943048),
    ],
    &[
        (0.04479257005469715, 44890641.301237285),
        (0.08277091517092816, 135302.73925182165),
        (0.029259598029892062, 49597191.313045815),
    ],
    &[
        (0.1288289462152104, 91266.4960441919),
        (0.16061425328327733, 10259438.743333539),
        (0.12375458093583677, 516952.7750824985),
        (0.009080794914133147, 16697130.484300144),
        (0.16621182899344053, 10451443.066528378),
        (0.14501617317485593, 2209522.7766866623),
    ],
    &[
        (0.12143164888566725, 39384.638261660955),
        (0.07694188498450992, 27794.69994298267),
        (0.04346007919963689, 79952908.46719724),
        (0.1495163980533509, 51555694.54545576),
        (0.17301444903732419, 10535859.565697432),
        (0.0854689562460571, 75064287.48810448),
    ],
    &[
        (0.05767252844488017, 51614369.390689),
        (0.1792514226884628, 4653435.109023373),
        (0.10451063277369461, 958527.9691440203),
        (0.03528238347488078, 59403884.69650129),
        (0.04525890383024997, 135875.50575709462),
    ],
    &[
        (0.003301626902358283, 5764661.791730564),
        (0.015066627929160394, 18259.85808120055),
        (0.08972570819121656, 3330996.857143026),
        (0.1400297120896823, 5896315.18673156),
        (0.006276149541067896, 289524.15446687385),
    ],
    &[
        (0.059790220998104354, 50661693.83277841),
        (0.027971273295221158, 41884531.05280536),
        (0.1739758611853544, 128699.87059795538),
        (0.12936422212106374, 25409.79356674688),
        (0.09662824974275057, 40297.16313756271),
    ],
];

/// Common-release sets of the sizes a SDEM-ON re-solve sees (1–8 tasks),
/// then the common-release edge sets and the shared-edge sets.
fn common_sets(count: u64) -> Vec<TaskSet> {
    let mut sets: Vec<TaskSet> = (0..count)
        .map(|k| {
            let x = paper::X_POINTS_MS[k as usize % paper::X_POINTS_MS.len()];
            let config = SyntheticConfig::paper(1 + k as usize % 8, Time::from_millis(x));
            common_release(&config, 0x5017_C000 + k)
        })
        .collect();
    sets.extend(edge_sets(120).into_iter().step_by(4));
    sets.extend(SHARED_EDGE_SETS.iter().map(|rows| {
        let tasks = rows
            .iter()
            .enumerate()
            .map(|(i, &(d, w))| Task::new(i, Time::ZERO, Time::from_secs(d), Cycles::new(w)));
        TaskSet::new(tasks.collect()).expect("valid set")
    }));
    sets
}

/// One digest row: a scheduler name and how it folds one set.
type Row = (
    &'static str,
    fn(&TaskSet, &Platform, &mut Workspace, &mut Fnv),
);

/// The multi-core schedulers, run on every pool.
const MULTI: [Row; 5] = [
    ("mbkp-online-rr", |t, p, ws, h| {
        h.baseline(mbkp::schedule_online_in(
            t,
            p,
            paper::NUM_CORES,
            Assignment::RoundRobin,
            ws,
        ))
    }),
    ("mbkp-online-ll", |t, p, ws, h| {
        h.baseline(mbkp::schedule_online_in(
            t,
            p,
            3,
            Assignment::LeastLoaded,
            ws,
        ))
    }),
    ("mbkp-offline", |t, p, ws, h| {
        h.baseline(mbkp::schedule_offline_in(
            t,
            p,
            3,
            Assignment::RoundRobin,
            ws,
        ))
    }),
    ("sdem-on", |t, p, ws, h| {
        let s = schedule_online_in(t, p, ws);
        h.online(s, ws);
    }),
    ("sdem-on-bounded3", |t, p, ws, h| {
        let s = schedule_online_bounded_in(t, p, 3, ws);
        h.online(s, ws);
    }),
];

/// The single-core schedulers, run on the small pools.
const SINGLE: [Row; 4] = [
    ("oa", |t, p, _, h| {
        h.baseline(oa::schedule_single_core_online(t, p))
    }),
    ("yds", |t, p, _, h| {
        h.baseline(yds::schedule_single_core(t, p))
    }),
    ("avr", |t, p, _, h| {
        h.baseline(avr::schedule_single_core(t, p))
    }),
    ("css", |t, p, _, h| {
        h.baseline(css::schedule_single_core_css(t, p))
    }),
];

fn all_digests() -> Vec<(String, u64)> {
    let (fig7a, fig6) = (fig7a_sets(16), fig6_sets(8));
    let (edge, common) = (edge_sets(120), common_sets(96));
    let mut out = Vec::new();
    let mut ws = Workspace::new();
    for (name, platform) in platforms() {
        for (row, run) in MULTI {
            for (pool, sets) in [
                ("fig7a", &fig7a),
                ("fig6", &fig6),
                ("edge", &edge),
                ("common", &common),
            ] {
                let mut h = Fnv::new();
                for set in sets.iter() {
                    run(set, &platform, &mut ws, &mut h);
                }
                out.push((format!("{row}/{pool}/{name}"), h.0));
            }
        }
        for (row, run) in SINGLE {
            for (pool, sets) in [("edge", &edge), ("common", &common)] {
                let mut h = Fnv::new();
                for set in sets.iter() {
                    run(set, &platform, &mut ws, &mut h);
                }
                out.push((format!("{row}/{pool}/{name}"), h.0));
            }
        }
        let mut h = Fnv::new();
        for set in &common {
            h.solution(schedule_common_release_in(set, &platform, &mut ws));
        }
        out.push((format!("common-release-overhead/common/{name}"), h.0));
    }
    out
}

/// Digests recorded before the linear MBKP assembly and the
/// once-per-distinct-`Δ` §7 pricing existed.
const PINNED: &[(&str, u64)] = &[
    ("mbkp-online-rr/fig7a/paper", 0xd5c7372ecf6c4ced),
    ("mbkp-online-rr/fig6/paper", 0x7db0b0477ce7cfdb),
    ("mbkp-online-rr/edge/paper", 0x0abd9a0220afcd6c),
    ("mbkp-online-rr/common/paper", 0x689cbb2a4ce91029),
    ("mbkp-online-ll/fig7a/paper", 0x8b37b8e740233fd8),
    ("mbkp-online-ll/fig6/paper", 0xeeebad9a0b57c5f2),
    ("mbkp-online-ll/edge/paper", 0x198788067cdef445),
    ("mbkp-online-ll/common/paper", 0xbedc9bc34b7ee0ac),
    ("mbkp-offline/fig7a/paper", 0xea4cd8ee94b65575),
    ("mbkp-offline/fig6/paper", 0x4cb98e5dd7cfe1c6),
    ("mbkp-offline/edge/paper", 0x6fb1130ed01a5589),
    ("mbkp-offline/common/paper", 0xf761deaa963288f0),
    ("sdem-on/fig7a/paper", 0xda51b6143b394a06),
    ("sdem-on/fig6/paper", 0x100c6f32c56d5d69),
    ("sdem-on/edge/paper", 0xf2a76634839094f2),
    ("sdem-on/common/paper", 0x9bcc629c5fb19efe),
    ("sdem-on-bounded3/fig7a/paper", 0xc397d4993b26090b),
    ("sdem-on-bounded3/fig6/paper", 0xad80c0c73fa41581),
    ("sdem-on-bounded3/edge/paper", 0xb69e700130bbbe5e),
    ("sdem-on-bounded3/common/paper", 0x974f45384ae765a7),
    ("oa/edge/paper", 0x2b08cb65f9439c6d),
    ("oa/common/paper", 0x6102d1518ac6d5d7),
    ("yds/edge/paper", 0xe7e9c1abad31dc8c),
    ("yds/common/paper", 0x6102d1518ac6d5d7),
    ("avr/edge/paper", 0x84be5905ccefb630),
    ("avr/common/paper", 0x6400ec045b4d343a),
    ("css/edge/paper", 0xaef867503c0d17a0),
    ("css/common/paper", 0xa9dcfa386ec15c37),
    ("common-release-overhead/common/paper", 0x3116f7eca477533e),
    ("mbkp-online-rr/fig7a/alpha0", 0xd5c7372ecf6c4ced),
    ("mbkp-online-rr/fig6/alpha0", 0x7db0b0477ce7cfdb),
    ("mbkp-online-rr/edge/alpha0", 0x0abd9a0220afcd6c),
    ("mbkp-online-rr/common/alpha0", 0x689cbb2a4ce91029),
    ("mbkp-online-ll/fig7a/alpha0", 0x8b37b8e740233fd8),
    ("mbkp-online-ll/fig6/alpha0", 0xeeebad9a0b57c5f2),
    ("mbkp-online-ll/edge/alpha0", 0x198788067cdef445),
    ("mbkp-online-ll/common/alpha0", 0xbedc9bc34b7ee0ac),
    ("mbkp-offline/fig7a/alpha0", 0xea4cd8ee94b65575),
    ("mbkp-offline/fig6/alpha0", 0x4cb98e5dd7cfe1c6),
    ("mbkp-offline/edge/alpha0", 0x6fb1130ed01a5589),
    ("mbkp-offline/common/alpha0", 0xf761deaa963288f0),
    ("sdem-on/fig7a/alpha0", 0x80d0eef586445e84),
    ("sdem-on/fig6/alpha0", 0xd8180cb9401d8907),
    ("sdem-on/edge/alpha0", 0x70a54f165c592360),
    ("sdem-on/common/alpha0", 0x735b76893238afca),
    ("sdem-on-bounded3/fig7a/alpha0", 0x40a77ad2b556b196),
    ("sdem-on-bounded3/fig6/alpha0", 0x59a7f51dda39c299),
    ("sdem-on-bounded3/edge/alpha0", 0xc213d1a9e2dd88fe),
    ("sdem-on-bounded3/common/alpha0", 0x3537f15ab6169e0f),
    ("oa/edge/alpha0", 0x2b08cb65f9439c6d),
    ("oa/common/alpha0", 0x6102d1518ac6d5d7),
    ("yds/edge/alpha0", 0xe7e9c1abad31dc8c),
    ("yds/common/alpha0", 0x6102d1518ac6d5d7),
    ("avr/edge/alpha0", 0x84be5905ccefb630),
    ("avr/common/alpha0", 0x6400ec045b4d343a),
    ("css/edge/alpha0", 0xaef867503c0d17a0),
    ("css/common/alpha0", 0xa9dcfa386ec15c37),
    ("common-release-overhead/common/alpha0", 0xe76638dc6aa428da),
    ("mbkp-online-rr/fig7a/xi0", 0xd5c7372ecf6c4ced),
    ("mbkp-online-rr/fig6/xi0", 0x7db0b0477ce7cfdb),
    ("mbkp-online-rr/edge/xi0", 0x0abd9a0220afcd6c),
    ("mbkp-online-rr/common/xi0", 0x689cbb2a4ce91029),
    ("mbkp-online-ll/fig7a/xi0", 0x8b37b8e740233fd8),
    ("mbkp-online-ll/fig6/xi0", 0xeeebad9a0b57c5f2),
    ("mbkp-online-ll/edge/xi0", 0x198788067cdef445),
    ("mbkp-online-ll/common/xi0", 0xbedc9bc34b7ee0ac),
    ("mbkp-offline/fig7a/xi0", 0xea4cd8ee94b65575),
    ("mbkp-offline/fig6/xi0", 0x4cb98e5dd7cfe1c6),
    ("mbkp-offline/edge/xi0", 0x6fb1130ed01a5589),
    ("mbkp-offline/common/xi0", 0xf761deaa963288f0),
    ("sdem-on/fig7a/xi0", 0x922496a91a541ec8),
    ("sdem-on/fig6/xi0", 0x366b0da8c62d844c),
    ("sdem-on/edge/xi0", 0x96512727c83f8b34),
    ("sdem-on/common/xi0", 0x4753fc31bce88ef5),
    ("sdem-on-bounded3/fig7a/xi0", 0x6239c86f163b453c),
    ("sdem-on-bounded3/fig6/xi0", 0x15f4dfef26cf470b),
    ("sdem-on-bounded3/edge/xi0", 0xf84183e45015acc5),
    ("sdem-on-bounded3/common/xi0", 0x6fc9d6f94d4515d5),
    ("oa/edge/xi0", 0x2b08cb65f9439c6d),
    ("oa/common/xi0", 0x6102d1518ac6d5d7),
    ("yds/edge/xi0", 0xe7e9c1abad31dc8c),
    ("yds/common/xi0", 0x6102d1518ac6d5d7),
    ("avr/edge/xi0", 0x84be5905ccefb630),
    ("avr/common/xi0", 0x6400ec045b4d343a),
    ("css/edge/xi0", 0xaef867503c0d17a0),
    ("css/common/xi0", 0xa9dcfa386ec15c37),
    ("common-release-overhead/common/xi0", 0x87612cdd9e697f47),
    ("mbkp-online-rr/fig7a/xi2ms", 0xd5c7372ecf6c4ced),
    ("mbkp-online-rr/fig6/xi2ms", 0x7db0b0477ce7cfdb),
    ("mbkp-online-rr/edge/xi2ms", 0x0abd9a0220afcd6c),
    ("mbkp-online-rr/common/xi2ms", 0x689cbb2a4ce91029),
    ("mbkp-online-ll/fig7a/xi2ms", 0x8b37b8e740233fd8),
    ("mbkp-online-ll/fig6/xi2ms", 0xeeebad9a0b57c5f2),
    ("mbkp-online-ll/edge/xi2ms", 0x198788067cdef445),
    ("mbkp-online-ll/common/xi2ms", 0xbedc9bc34b7ee0ac),
    ("mbkp-offline/fig7a/xi2ms", 0xea4cd8ee94b65575),
    ("mbkp-offline/fig6/xi2ms", 0x4cb98e5dd7cfe1c6),
    ("mbkp-offline/edge/xi2ms", 0x6fb1130ed01a5589),
    ("mbkp-offline/common/xi2ms", 0xf761deaa963288f0),
    ("sdem-on/fig7a/xi2ms", 0xda51b6143b394a06),
    ("sdem-on/fig6/xi2ms", 0x100c6f32c56d5d69),
    ("sdem-on/edge/xi2ms", 0xf2a76634839094f2),
    ("sdem-on/common/xi2ms", 0xabeb166e349ad7bb),
    ("sdem-on-bounded3/fig7a/xi2ms", 0xc397d4993b26090b),
    ("sdem-on-bounded3/fig6/xi2ms", 0xad80c0c73fa41581),
    ("sdem-on-bounded3/edge/xi2ms", 0xb69e700130bbbe5e),
    ("sdem-on-bounded3/common/xi2ms", 0x755aca2da0f0439e),
    ("oa/edge/xi2ms", 0x2b08cb65f9439c6d),
    ("oa/common/xi2ms", 0x6102d1518ac6d5d7),
    ("yds/edge/xi2ms", 0xe7e9c1abad31dc8c),
    ("yds/common/xi2ms", 0x6102d1518ac6d5d7),
    ("avr/edge/xi2ms", 0x84be5905ccefb630),
    ("avr/common/xi2ms", 0x6400ec045b4d343a),
    ("css/edge/xi2ms", 0xaef867503c0d17a0),
    ("css/common/xi2ms", 0xa9dcfa386ec15c37),
    ("common-release-overhead/common/xi2ms", 0x9b93690f87bfbed0),
];

#[test]
fn solver_outputs_match_the_pinned_digests() {
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
