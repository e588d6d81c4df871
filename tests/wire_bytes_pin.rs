//! Pins the bytes the serve and sweep layers write, as FNV-1a digests.
//!
//! A response line, a replay-journal record and a checkpoint record are
//! contracts: clients diff them, and a resumed run splices stored lines
//! into its own output. This suite folds those bytes into digests
//! recorded before the hit path and the journal encoder were rewritten:
//!
//! * the responses and the journal file of a seeded, journaled replay at
//!   1 and at 4 workers, with a cache small enough to evict, poisoned
//!   (rejected) lines and forced degraded answers, then the same replay
//!   halted part-way and resumed from its journal;
//! * the journal of a checkpointed sweep whose results and quarantine
//!   records hold every character class the escaper treats apart;
//! * `json::quote` over seeded strings covering every byte below 0x80
//!   and multi-byte UTF-8.
//!
//! Do not update a pinned value to make a change pass: a moved digest
//! means the change moved an output byte.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use sdem::exec::{CheckpointJournal, SweepRunner, TrialCtx, TrialFailure};
use sdem::obs::json;
use sdem::prng::{ChaCha8Rng, Rng, SeedableRng};
use sdem::serve::{replay, ChaosSpec, ReplayConfig, ServiceConfig};
use sdem::types::ErrorKind;
use sdem::workload::trace::TraceSpec;

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sdem-wire-pin-{tag}-{}", std::process::id()))
}

/// A sink the test reads back after the replay returns.
#[derive(Clone, Default)]
struct Sink(Arc<Mutex<Vec<u8>>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

const EVENTS: u64 = 1500;

/// One journaled replay of the pinned trace; returns its stdout bytes
/// and its journal file.
fn run_replay(
    tag: &str,
    workers: usize,
    resume: bool,
    halt_after: Option<u64>,
) -> (Vec<u8>, Vec<u8>) {
    let path = temp_path(tag);
    let cfg = ReplayConfig {
        service: ServiceConfig {
            workers,
            queue_depth: 64,
            cache_capacity: 6,
            ..ServiceConfig::default()
        },
        trace: TraceSpec {
            seed: 0x91E5,
            sets: 3,
            tasks: 5,
            poisson: 0.3,
            shapes: 12,
        },
        events: EVENTS,
        chaos: Some(ChaosSpec {
            seed: 0xB17E,
            poison: 9,
            queue_full: 7,
            ..ChaosSpec::default()
        }),
        journal: Some(path.clone()),
        resume,
        halt_after,
    };
    let sink = Sink::default();
    let report = replay(&cfg, Box::new(sink.clone())).unwrap();
    assert!(report.stats.rejected > 0 && report.stats.degraded > 0);
    if halt_after.is_none() {
        assert!(report.stats.cache_evictions > 0, "the cache must evict");
    }
    let out = sink.0.lock().unwrap().clone();
    (out, std::fs::read(&path).unwrap())
}

#[test]
fn replay_responses_and_journals_are_pinned() {
    let (out1, journal1) = run_replay("w1", 1, false, None);
    let (out4, journal4) = run_replay("w4", 4, false, None);
    assert_eq!(out1, out4, "responses differ across worker counts");
    assert_eq!(journal1, journal4, "journals differ across worker counts");
    assert_eq!(
        out1.iter().filter(|&&b| b == b'\n').count(),
        EVENTS as usize
    );

    let (halted, halted_journal) = run_replay("halt", 2, false, Some(600));
    let (resumed, resumed_journal) = run_replay("halt", 4, true, None);
    for tag in ["w1", "w4", "halt"] {
        std::fs::remove_file(temp_path(tag)).ok();
    }
    assert_eq!(
        resumed, out1,
        "a resumed replay must equal an uninterrupted one"
    );
    assert_eq!(resumed_journal, journal1, "so must its journal");

    let digests = [
        fnv(&out1),
        fnv(&journal1),
        fnv(&halted),
        fnv(&halted_journal),
    ];
    assert_eq!(
        digests,
        [
            0x987f_5d92_2f44_d130,
            0x8d26_e60f_e208_16e6,
            0x1cca_42a6_744a_6b44,
            0xe00b_57ee_3c8c_bb42,
        ],
        "{digests:#018x?}"
    );
}

/// Result and failure texts that exercise every escape class.
const TEXTS: [&str; 6] = [
    "plain",
    "quote \" and backslash \\",
    "tab\tnewline\nreturn\r",
    "controls \u{1}\u{8}\u{c}\u{1f}\u{7f}",
    "multi-byte é ∑ 🦀",
    "",
];

#[test]
fn checkpoint_journal_is_pinned() {
    let path = temp_path("sweep");
    let mut journal = CheckpointJournal::new(&path);
    let points = [0usize, 1, 2];
    let outcome = SweepRunner::new()
        .with_threads(1)
        .run_checkpointed(
            &points,
            4,
            0xC4EC_9017,
            || (),
            |&p, ctx: &TrialCtx, _| {
                let k = ctx.trial_index();
                if k % 5 == 3 {
                    let failure = TrialFailure::of(ErrorKind::InfeasibleInput, TEXTS[k % 6])
                        .with_config(format!("--point {p} \"{}\"", TEXTS[(k + 1) % 6]));
                    return Err(failure);
                }
                Ok(format!("{}|{:#x}", TEXTS[k % 6], ctx.seed(0)))
            },
            |s: &String| s.clone(),
            |s: &str| Some(s.to_string()),
            &mut journal,
        )
        .unwrap();
    assert_eq!(outcome.quarantine.len(), 2);
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(fnv(&bytes), 0x41a1_a924_26d6_2382, "{:#018x}", fnv(&bytes));
}

#[test]
fn quote_is_pinned_over_seeded_strings() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0A07E);
    let wide = [
        'é',
        'ß',
        '\u{7ff}',
        '\u{800}',
        '∑',
        '\u{ffff}',
        '\u{10000}',
        '🦀',
    ];
    let mut digest = fnv(b"");
    let mut fold = |quoted: &str| {
        for &b in quoted.as_bytes().iter().chain(b"\n") {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    // Every byte below 0x80 alone, then seeded mixes.
    for b in 0u8..0x80 {
        fold(&json::quote(&char::from(b).to_string()));
    }
    for _ in 0..2000 {
        let len = rng.gen_range(0..40usize);
        let s: String = (0..len)
            .map(|_| match rng.gen_range(0..4u32) {
                0 => char::from(rng.gen_range(0..0x20u32) as u8),
                1 => wide[rng.gen_range(0..wide.len())],
                _ => char::from(rng.gen_range(0x20..0x80u32) as u8),
            })
            .collect();
        fold(&json::quote(&s));
    }
    assert_eq!(digest, 0x8b1d_16a9_61dc_868f, "{digest:#018x}");
}
