//! Crash-recovery and chaos integration suite for the replay path.
//!
//! The invariants under test mirror `crates/exec/tests/torn_tail.rs` at
//! the serve layer:
//!
//! * a clean replay's output is byte-identical at any worker count;
//! * a replay halted mid-run and resumed from its journal emits output
//!   byte-identical to an uninterrupted run — including when the journal
//!   tail is truncated at **every byte offset** (the `kill -9` torn-tail
//!   case) and the same journal is then resumed a second time;
//! * with chaos-injected worker panics the daemon stays up, the
//!   restart/degraded/reject ledgers match the injected plan exactly,
//!   and every non-injected response is bit-identical to the clean run;
//! * when the restart budget is exhausted the service fails fast but
//!   still answers every sequence exactly once.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use sdem_serve::{replay, ChaosPlan, ChaosSpec, ReplayConfig, ServiceConfig, SupervisorConfig};
use sdem_types::ErrorKind;
use sdem_workload::trace::TraceSpec;

/// Small trace the debug-mode suite can afford: two periodic sets plus a
/// sporadic mix, all shapes a few tasks wide.
fn spec() -> TraceSpec {
    TraceSpec {
        seed: 0x7E57,
        sets: 2,
        tasks: 3,
        poisson: 0.3,
        shapes: 8,
    }
}

fn service_cfg(workers: usize) -> ServiceConfig {
    ServiceConfig {
        workers,
        queue_depth: 32,
        cache_capacity: 256,
        ..Default::default()
    }
}

fn replay_cfg(workers: usize, events: u64) -> ReplayConfig {
    ReplayConfig {
        service: service_cfg(workers),
        trace: spec(),
        events,
        chaos: None,
        journal: None,
        resume: false,
        halt_after: None,
    }
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sdem-recovery-{name}-{}", std::process::id()))
}

/// A `Write` sink that can be read back after the service finishes.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn run(cfg: &ReplayConfig) -> (String, sdem_serve::ReplayReport) {
    let buf = SharedBuf::default();
    let report = replay(cfg, Box::new(buf.clone())).expect("replay runs");
    (buf.contents(), report)
}

#[test]
fn clean_replay_is_byte_identical_at_1_4_8_workers() {
    const EVENTS: u64 = 48;
    let (one, report) = run(&replay_cfg(1, EVENTS));
    assert_eq!(report.executed, EVENTS);
    assert_eq!(one.lines().count() as u64, EVENTS, "every seq answered");
    let (four, _) = run(&replay_cfg(4, EVENTS));
    let (eight, _) = run(&replay_cfg(8, EVENTS));
    assert_eq!(one, four);
    assert_eq!(one, eight);
}

#[test]
fn halt_and_resume_is_byte_identical_at_every_worker_count() {
    const EVENTS: u64 = 48;
    let (clean, _) = run(&replay_cfg(4, EVENTS));

    for workers in [1usize, 4, 8] {
        let path = temp_path(&format!("halt-resume-{workers}"));

        // First run: journaled, "crashes" (halts) after 17 new events.
        let mut first = replay_cfg(workers, EVENTS);
        first.journal = Some(path.clone());
        first.halt_after = Some(17);
        let (partial, report) = run(&first);
        assert!(report.halted);
        assert_eq!(report.executed, 17);
        assert!(clean.starts_with(&partial), "partial output is a prefix");

        // Second run: resume from the journal with a different worker
        // count than the clean reference used.
        let mut second = replay_cfg(workers, EVENTS);
        second.journal = Some(path.clone());
        second.resume = true;
        let (resumed, report) = run(&second);
        assert_eq!(report.recovered, 17, "journaled prefix recovered");
        assert_eq!(report.executed, EVENTS - 17);
        assert_eq!(report.stats.recovered, 17);
        assert_eq!(
            resumed, clean,
            "resumed output must be byte-identical to an uninterrupted run"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn journal_truncated_at_every_tail_byte_offset_still_resumes_identically() {
    const EVENTS: u64 = 16;
    let (clean, _) = run(&replay_cfg(2, EVENTS));

    // A complete journaled run whose journal we will mutilate.
    let path = temp_path("torn-tail");
    let mut journaled = replay_cfg(2, EVENTS);
    journaled.journal = Some(path.clone());
    let (full, _) = run(&journaled);
    assert_eq!(full, clean);

    let intact = std::fs::read(&path).expect("journal written");
    let text = String::from_utf8(intact.clone()).unwrap();
    // Last record including its newline; `tail_start` points at its first byte.
    let body = text.strip_suffix('\n').expect("journal ends with newline");
    let tail_start = body.rfind('\n').expect("more than one line") + 1;

    for cut in tail_start..intact.len() {
        std::fs::write(&path, &intact[..cut]).unwrap();
        let mut resume = replay_cfg(2, EVENTS);
        resume.journal = Some(path.clone());
        resume.resume = true;
        let (resumed, report) = run(&resume);
        assert_eq!(resumed, clean, "cut at byte {cut} must not change output");
        // A torn tail record is skipped and its seq re-runs; a clean cut
        // (exactly at the record boundary) recovers every journaled seq.
        let expect_recovered = if cut == intact.len() - 1 && intact[cut] == b'\n' {
            EVENTS
        } else {
            EVENTS - 1
        };
        assert_eq!(report.recovered, expect_recovered, "cut at byte {cut}");

        // Crash twice: the re-run seq was journaled on a line of its own,
        // so a second resume of the same file recovers every seq.
        let (again, report) = run(&resume);
        assert_eq!(again, clean, "second resume after cut at byte {cut}");
        assert_eq!(
            report.recovered, EVENTS,
            "second resume after cut at byte {cut}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn chaos_survivors_are_bit_identical_and_the_ledger_is_exact() {
    const EVENTS: u64 = 60;
    let (clean, _) = run(&replay_cfg(2, EVENTS));
    let clean_lines: Vec<&str> = clean.lines().collect();

    let chaos = ChaosSpec {
        seed: 0x0DD5,
        panics: 3,
        poison: 2,
        queue_full: 2,
        latency: 4,
    };
    let plan = ChaosPlan::materialize(&chaos, EVENTS).unwrap();

    let mut chaotic_outputs = Vec::new();
    for workers in [1usize, 4] {
        let mut cfg = replay_cfg(workers, EVENTS);
        cfg.chaos = Some(chaos);
        let (out, report) = run(&cfg);
        // The daemon stayed up and the ledger matches the plan exactly
        // (replay() itself errors on drift; assert the totals anyway).
        assert!(!report.stats.failed, "restart budget must absorb 3 panics");
        assert_eq!(report.stats.worker_restarts, 3);
        assert_eq!(report.stats.degraded, 2);
        assert_eq!(report.stats.rejected, 2);

        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len() as u64, EVENTS, "every seq answered once");
        for seq in 0..EVENTS {
            let line = lines[seq as usize];
            if plan.panic_at(seq) {
                assert!(
                    line.contains("\"kind\":\"worker-panic\""),
                    "seq {seq}: {line}"
                );
            } else if plan.poison_at(seq) {
                assert!(
                    line.contains("\"kind\":\"bad-request\""),
                    "seq {seq}: {line}"
                );
            } else if plan.queue_full_at(seq) {
                assert!(line.contains("\"degraded\":true"), "seq {seq}: {line}");
                assert!(
                    line.contains("\"resolved\":\"degraded/race-to-idle\""),
                    "seq {seq}: {line}"
                );
            } else {
                // Survivors — latency-injected seqs included — must be
                // bit-identical to the clean run.
                assert_eq!(line, clean_lines[seq as usize], "seq {seq}");
            }
        }
        chaotic_outputs.push(out);
    }
    assert_eq!(
        chaotic_outputs[0], chaotic_outputs[1],
        "chaos output must itself be byte-identical across worker counts"
    );
}

#[test]
fn chaos_and_resume_compose_without_double_counting() {
    const EVENTS: u64 = 40;
    let chaos = ChaosSpec {
        seed: 0xB007,
        panics: 2,
        poison: 1,
        queue_full: 1,
        latency: 2,
    };
    let mut reference = replay_cfg(2, EVENTS);
    reference.chaos = Some(chaos);
    let (clean_chaos, _) = run(&reference);

    let path = temp_path("chaos-resume");
    let mut first = replay_cfg(2, EVENTS);
    first.chaos = Some(chaos);
    first.journal = Some(path.clone());
    first.halt_after = Some(15);
    run(&first);

    let mut second = replay_cfg(2, EVENTS);
    second.chaos = Some(chaos);
    second.journal = Some(path.clone());
    second.resume = true;
    let (resumed, report) = run(&second);
    assert_eq!(
        resumed, clean_chaos,
        "chaos replay resumes byte-identically"
    );
    // The ledger validation inside replay() already restricted the
    // expected counts to the re-executed suffix; spot-check the split.
    let expected = plan_counts_after(&chaos, EVENTS, report.recovered);
    assert_eq!(report.stats.worker_restarts, expected.0);
    assert_eq!(report.stats.rejected, expected.1);
    std::fs::remove_file(&path).ok();
}

fn plan_counts_after(chaos: &ChaosSpec, events: u64, from: u64) -> (u64, u64) {
    let plan = ChaosPlan::materialize(chaos, events).unwrap();
    let counts = plan.counts_from(from);
    (counts.panics, counts.poison)
}

#[test]
fn exhausted_restart_budget_fails_fast_but_answers_every_seq() {
    const EVENTS: u64 = 32;
    let chaos = ChaosSpec {
        seed: 0xDEAD,
        panics: 5,
        ..ChaosSpec::default()
    };
    let mut cfg = replay_cfg(1, EVENTS);
    cfg.chaos = Some(chaos);
    cfg.service.supervisor = SupervisorConfig {
        max_restarts: 2,
        backoff_base_ms: 1,
        backoff_cap_ms: 2,
    };
    let buf = SharedBuf::default();
    let report = replay(&cfg, Box::new(buf.clone())).expect("fail-fast is not a replay error");
    assert!(report.stats.failed, "budget of 2 cannot absorb 5 panics");
    assert_eq!(
        report.stats.worker_restarts, 3,
        "2 restarts + the fatal one"
    );
    let out = buf.contents();
    assert_eq!(
        out.lines().count() as u64,
        EVENTS,
        "every seq answered once"
    );
    assert!(
        out.contains("\"kind\":\"shutdown\""),
        "queued work drained with errors"
    );
}

#[test]
fn resume_under_a_different_identity_is_refused() {
    const EVENTS: u64 = 8;
    let path = temp_path("identity");
    let mut first = replay_cfg(1, EVENTS);
    first.journal = Some(path.clone());
    run(&first);

    // Different event count → different run identity.
    let mut second = replay_cfg(1, EVENTS + 1);
    second.journal = Some(path.clone());
    second.resume = true;
    let err = replay(&second, Box::new(std::io::sink())).unwrap_err();
    assert_eq!(err.kind, ErrorKind::CheckpointError);

    // Different trace seed → refused too.
    let mut third = replay_cfg(1, EVENTS);
    third.trace.seed ^= 1;
    third.journal = Some(path.clone());
    third.resume = true;
    let err = replay(&third, Box::new(std::io::sink())).unwrap_err();
    assert_eq!(err.kind, ErrorKind::CheckpointError);
    std::fs::remove_file(&path).ok();
}
