//! Process-level tests of the `sdem-cli serve` daemon and the taxonomy
//! exit codes: spawn the real binary, speak the JSONL protocol over its
//! stdin/stdout, kill it (by closing stdin) and restart it.

use std::io::Write;
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_sdem-cli");

fn run_daemon(args: &[&str], input: &str) -> (String, i32) {
    run_daemon_bytes(args, input.as_bytes())
}

fn run_daemon_bytes(args: &[&str], input: &[u8]) -> (String, i32) {
    let mut child = Command::new(BIN)
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sdem-cli");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(input)
        .expect("write requests");
    // Dropping stdin closes the pipe: EOF is the shutdown signal.
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        out.status.code().unwrap_or(-1),
    )
}

fn batch() -> String {
    let mut lines = Vec::new();
    for id in 0..24_u64 {
        let tasks = match id % 4 {
            0 => "[[0,0,40,8e6],[1,0,70,1.2e7]]",
            1 => "[[1,0,70,1.2e7],[0,0,40,8e6]]", // permutation of shape 0
            2 => "[[0,0,50,4e6],[1,10,80,6e6],[2,10,90,2e6]]",
            _ => "[[0,0,60,5e6]]",
        };
        lines.push(format!(
            "{{\"v\":1,\"id\":{id},\"scheme\":\"auto\",\"tasks\":{tasks}}}"
        ));
    }
    lines.push("this is not json".to_string());
    lines.push("{\"v\":99,\"id\":24,\"tasks\":[[0,0,60,5e6]]}".to_string());
    // Nested far past the parser's depth bound: a bad request, not a
    // stack overflow.
    lines.push("[".repeat(100_000));
    lines.join("\n") + "\n"
}

#[test]
fn daemon_drains_at_eof_and_restarts_byte_identically() {
    let input = batch();
    let (first, code) = run_daemon(&["serve", "--workers", "2"], &input);
    assert_eq!(code, 0, "clean drain must exit 0");
    assert_eq!(
        first.lines().count(),
        27,
        "every line answered exactly once:\n{first}"
    );
    assert!(first.contains("\"kind\":\"bad-request\""), "{first}");
    assert!(first.contains("\"ok\":true"), "{first}");

    // Kill-and-restart smoke: a fresh daemon (different worker count)
    // answers the same batch with the same bytes.
    let (second, code) = run_daemon(&["serve", "--workers", "5"], &input);
    assert_eq!(code, 0);
    assert_eq!(first, second, "responses must not depend on worker count");
}

#[test]
fn serve_metrics_exports_request_counters() {
    let dir = std::env::temp_dir().join("sdem-cli-serve-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve_metrics.json");
    let mp = path.to_str().unwrap();
    let (_, code) = run_daemon(&["serve", "--workers", "1", "--metrics", mp], &batch());
    assert_eq!(code, 0);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"requests_admitted\": 24"), "{text}");
    assert!(text.contains("\"requests_rejected\": 3"), "{text}");
    assert!(text.contains("\"cache_hits\""), "{text}");
    assert!(text.contains("serve/request_ns"), "{text}");

    // The exported file passes the stats validator.
    let status = Command::new(BIN)
        .args(["stats", "--input", mp, "--check"])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_lines_are_answered_in_order_and_the_session_goes_on() {
    // A line that is not UTF-8 used to end the session (exit 17) with
    // every later request unanswered. A line over the 1 MiB cap is
    // refused unread, so its id is not recovered; one under it is served.
    let ok = |id: u64| format!("{{\"v\":1,\"id\":{id},\"tasks\":[[0,0,60,5e6]]}}");
    let under_cap = format!(
        "{{\"v\":1,\"id\":1,\"note\":\"{}\",\"tasks\":[[0,0,60,5e6]]}}",
        "x".repeat(900_000)
    );
    let over_cap = format!(
        "{{\"v\":1,\"id\":4,\"scheme\":\"{}\"}}",
        "s".repeat(2 << 20)
    );
    let mut input = Vec::new();
    for line in [
        ok(0).as_bytes(),
        under_cap.as_bytes(),
        b"{\"v\":1,\"id\":2,\"scheme\":\"\xff\"}",
        ok(3).as_bytes(),
        over_cap.as_bytes(),
        ok(5).as_bytes(),
    ] {
        input.extend_from_slice(line);
        input.push(b'\n');
    }
    let (out, code) = run_daemon_bytes(&["serve", "--workers", "2"], &input);
    assert_eq!(code, 0, "bad lines must not end the session:\n{out}");
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 6, "every line answered exactly once:\n{out}");
    for (line, id) in lines.iter().zip(["0", "1", "null", "3", "null", "5"]) {
        assert!(
            line.starts_with(&format!("{{\"v\":1,\"id\":{id},")),
            "{line}"
        );
    }
    assert!(lines[1].contains("\"ok\":true"), "{}", lines[1]);
    assert!(lines[2].contains("request line is not valid UTF-8"));
    assert!(lines[4].contains("request line longer than 1048576 bytes"));
    assert!(lines[5].contains("\"ok\":true"));
}

fn run_replay(args: &[&str]) -> (String, i32) {
    let out = Command::new(BIN)
        .arg("replay")
        .args(args)
        .stderr(Stdio::null())
        .output()
        .expect("spawn sdem-cli replay");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn replay_resumes_from_its_journal_byte_identically() {
    let dir = std::env::temp_dir().join("sdem-cli-replay");
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("replay.journal");
    let jp = journal.to_str().unwrap();
    let trace = "seed=0x7e57,sets=2,tasks=3,poisson=0.3,shapes=8";

    let (clean, code) = run_replay(&["--trace", trace, "--events", "16", "--workers", "1"]);
    assert_eq!(code, 0);
    assert_eq!(clean.lines().count(), 16, "every seq answered:\n{clean}");

    // A journaled run "crashes" (halts) mid-stream…
    std::fs::remove_file(&journal).ok();
    let (partial, code) = run_replay(&[
        "--trace",
        trace,
        "--events",
        "16",
        "--workers",
        "2",
        "--journal",
        jp,
        "--halt-after",
        "6",
    ]);
    assert_eq!(code, 0);
    assert!(clean.starts_with(&partial), "partial output is a prefix");

    // …and a resumed run at yet another worker count replays the rest.
    let (resumed, code) = run_replay(&[
        "--trace",
        trace,
        "--events",
        "16",
        "--workers",
        "4",
        "--resume",
        jp,
    ]);
    assert_eq!(code, 0);
    assert_eq!(
        resumed, clean,
        "resume must be byte-identical to a clean run"
    );

    // --journal and --resume together is a usage error (exit 2).
    let (_, code) = run_replay(&[
        "--trace",
        trace,
        "--events",
        "16",
        "--journal",
        jp,
        "--resume",
        jp,
    ]);
    assert_eq!(code, 2);
    std::fs::remove_file(&journal).ok();
}

#[test]
fn replay_chaos_counters_export_and_validate() {
    let dir = std::env::temp_dir().join("sdem-cli-replay-chaos");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("replay_metrics.json");
    let mp = path.to_str().unwrap();
    let (out, code) = run_replay(&[
        "--events",
        "24",
        "--workers",
        "2",
        "--chaos",
        "seed=0x0dd5,panics=2,poison=1,queue-full=1,latency=2",
        "--metrics",
        mp,
    ]);
    assert_eq!(code, 0, "daemon must survive injected panics");
    assert_eq!(out.lines().count(), 24, "every seq answered once:\n{out}");
    assert!(out.contains("\"kind\":\"worker-panic\""), "{out}");
    assert!(out.contains("\"degraded\":true"), "{out}");

    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"serve/worker_restarts\": 2"), "{text}");
    assert!(text.contains("\"serve/degraded_responses\": 1"), "{text}");
    let status = Command::new(BIN)
        .args(["stats", "--input", mp, "--check"])
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success(), "exported metrics must pass stats --check");
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_core_budget_above_the_task_count_changes_no_output() {
    use sdem_baselines::mbkp::{schedule_online, Assignment};
    use sdem_core::dag::solve_dags;
    use sdem_core::{solve, Scheme, SCHEMES};
    use sdem_power::Platform;
    use sdem_types::{Cycles, Task, TaskSet, Time};
    use sdem_workload::dag::DagConfig;

    const HUGE: usize = 1_000_000_000_000_000;
    let ms = Time::from_millis;
    let tasks = TaskSet::new(vec![
        Task::new(0, ms(0.0), ms(80.0), Cycles::new(8e6)),
        Task::new(1, ms(0.0), ms(80.0), Cycles::new(1.2e7)),
        Task::new(2, ms(0.0), ms(80.0), Cycles::new(3e6)),
    ])
    .unwrap();
    let (platform, n) = (Platform::paper_defaults(), tasks.len());
    // `Debug` prints every float in full, so equal text is equal bits.
    let budgeted = SCHEMES
        .iter()
        .filter_map(|entry| entry.wire)
        .filter(|name| Scheme::from_wire_name(name, 1) != Scheme::from_wire_name(name, 2));
    let mut checked = 0;
    for name in budgeted {
        let at = |cores| {
            format!(
                "{:?}",
                solve(
                    &tasks,
                    &platform,
                    Scheme::from_wire_name(name, cores).unwrap()
                )
            )
        };
        assert_eq!(at(HUGE), at(n), "{name}");
        checked += 1;
    }
    assert_eq!(
        checked, 7,
        "sdem-on and the six bounded and federated schemes"
    );
    for policy in [Assignment::RoundRobin, Assignment::LeastLoaded] {
        let at = |cores| format!("{:?}", schedule_online(&tasks, &platform, cores, policy));
        assert_eq!(at(HUGE), at(n), "mbkp {policy:?}");
    }
    // The DAG pipeline takes per-core scratch for the cores its suite can
    // fill, not for the budget.
    let dags = sdem_workload::dag::suite(&DagConfig::paper(9, ms(120.0)), 4, 42);
    let nodes: usize = dags.iter().map(|dag| dag.node_count()).sum();
    let at = |cores| format!("{:?}", solve_dags(&dags, &platform, cores));
    assert!(at(nodes).starts_with("Ok("), "{}", at(nodes));
    assert_eq!(at(HUGE), at(nodes), "solve_dags");

    // The daemon answers the line and the one after it, the same way.
    let line = |id, cores| {
        format!(
            "{{\"v\":1,\"id\":{id},\"scheme\":\"bounded-lpt\",\"cores\":{cores},\
             \"tasks\":[[0,0,80,8e6],[1,0,80,1.2e7]]}}\n"
        )
    };
    let (out, code) = run_daemon(&["serve", "--workers", "1"], &(line(0, HUGE) + &line(1, 2)));
    assert_eq!(code, 0, "{out}");
    let answers: Vec<&str> = out.lines().collect();
    assert_eq!(answers.len(), 2, "{out}");
    assert!(answers[0].contains("\"ok\":true"), "{out}");
    assert_eq!(answers[0].replacen("\"id\":0", "\"id\":1", 1), answers[1]);
}

#[test]
fn exit_codes_follow_the_error_taxonomy() {
    // Usage mistakes exit 2.
    let status = Command::new(BIN)
        .arg("frobnicate")
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(2));

    // A scheme rejection exits with the scheme-error code (4).
    let dir = std::env::temp_dir().join("sdem-cli-serve-exit");
    std::fs::create_dir_all(&dir).unwrap();
    let tasks = dir.join("staggered.txt");
    let tp = tasks.to_str().unwrap();
    let status = Command::new(BIN)
        .args([
            "generate",
            "--kind",
            "synthetic",
            "--tasks",
            "6",
            "--seed",
            "2",
            "--out",
            tp,
        ])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    let status = Command::new(BIN)
        .args([
            "schedule",
            "--input",
            tp,
            "--scheme",
            "cr-alpha-nonzero",
            "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(4), "scheme-error must exit 4");
    std::fs::remove_file(&tasks).ok();

    // A sweep checkpoint that cannot be read exits with the
    // checkpoint-error code (15), as `replay --resume` does.
    let missing = dir.join("never-written.jsonl");
    let status = Command::new(BIN)
        .args(["sweep", "--resume", missing.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert_eq!(status.code(), Some(15), "checkpoint-error must exit 15");

    // A negative or non-finite `--oracle-tol` is a usage error on every
    // command that reads it, raised before any work: exit 2, no stdout.
    let suite = dir.join("suite.yaml");
    let sp = suite.to_str().unwrap();
    let status = Command::new(BIN)
        .args([
            "dag", "generate", "--count", "2", "--nodes", "5", "--out", sp,
        ])
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(status.success());
    for args in [
        &["dag", "solve", "--input", sp, "--oracle-tol", "-1"][..],
        &["sweep", "--oracle-tol", "nan"],
        &["experiment", "--oracle-tol", "-1"],
        &["repro", "--seed", "1", "--oracle-tol", "-1"],
    ] {
        let out = Command::new(BIN)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2 (usage)");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }
    // A core budget far past the suite's node count solves as usual and
    // is printed as requested.
    let out = Command::new(BIN)
        .args(["dag", "solve", "--input", sp, "--cores", "1000000000000"])
        .stderr(Stdio::null())
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(0),
        "a huge DAG core budget must exit 0"
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("of 1000000000000 core(s) busy"), "{text}");
    std::fs::remove_file(&suite).ok();

    // An option the command does not take (misspelt, or another
    // command's) and `--trials 0` are usage errors too, before any work.
    for args in [
        &[
            "experiment",
            "--trials",
            "1",
            "--tasks",
            "8",
            "--orcale-tol",
            "0",
        ][..],
        &["dag", "sweep", "--oracle-tol", "-1"],
        &["serve", "--worker", "2"],
        &["sweep", "--figure", "fig7a", "--trials", "0"],
        // Each figure takes one sizing option, not the other figure's.
        &[
            "sweep",
            "--figure",
            "fig6",
            "--instances",
            "2",
            "--trials",
            "1",
            "--tasks",
            "999",
        ],
        &[
            "sweep",
            "--figure",
            "fig7a",
            "--trials",
            "1",
            "--instances",
            "2",
        ],
        &[
            "sweep",
            "--figure",
            "fig7b",
            "--trials",
            "1",
            "--instances",
            "2",
        ],
        &["experiment", "--trials", "0"],
        // A halted sweep without a checkpoint could never be finished.
        &[
            "sweep",
            "--figure",
            "fig7a",
            "--trials",
            "2",
            "--tasks",
            "10",
            "--halt-after",
            "3",
        ],
    ] {
        let out = Command::new(BIN)
            .args(args)
            .stdin(Stdio::null())
            .stderr(Stdio::null())
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2 (usage)");
        assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    }

    // An experiment whose every trial is quarantined exits with the first
    // record's kind (a zero tolerance quarantines all four trials for
    // oracle divergence: 9), not as a usage error, and prints no table.
    let out = Command::new(BIN)
        .args([
            "experiment",
            "--trials",
            "4",
            "--tasks",
            "12",
            "--oracle-tol",
            "0",
            "--oracle-keep-going",
        ])
        .stderr(Stdio::null())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(9), "all-quarantined must exit 9");
    assert!(out.stdout.is_empty(), "all-quarantined printed a table");
}
