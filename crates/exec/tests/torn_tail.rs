//! Torn-tail resilience of the checkpoint journal, tested directly.
//!
//! A hard kill (SIGKILL, OOM, power loss) can leave the journal's last
//! line half-written. The resume contract says such a tail is *skipped*
//! — the affected trial simply reruns — and the resumed sweep is still
//! bit-identical to an uninterrupted one. These tests enforce that at
//! every possible tear point: the last journaled record is truncated at
//! **each byte offset** in turn, the journal is resumed, and the final
//! outcome is compared against the uninterrupted reference — then the
//! same file is resumed a second time, as after a second crash, and must
//! load every trial and reproduce the reference again.
//!
//! Two tails are exercised: a short `ok` record and a much longer
//! `fault` (quarantine) record, whose JSON payload offers many more
//! places for a tear to land inside a string, a number or an escape.

use sdem_exec::{CheckpointJournal, SweepRunner, TrialCtx, TrialFailure};

const GRID_SEED: u64 = 0x7EA2_0005;
const POINTS: [f64; 3] = [1.0, 2.0, 3.0];
const REPS: usize = 3;

/// Deterministic trial whose result is the trial's derived seed, so any
/// silently dropped or re-derived trial shows up as a value mismatch.
fn trial_ok(_p: &f64, ctx: &TrialCtx) -> Result<u64, TrialFailure> {
    Ok(ctx.seed(0))
}

fn encode(v: &u64) -> String {
    format!("{v:016x}")
}

fn decode(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

fn journal_path(tag: &str) -> std::path::PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("sdem-torn-tail-{tag}-{}.ckpt", std::process::id()));
    path
}

/// Runs the full grid through the checkpointed path with one thread so
/// journal lines land in trial-index order, returning the journal bytes.
fn full_checkpointed_run<F>(tag: &str, trial: F) -> (Vec<u8>, std::path::PathBuf)
where
    F: Fn(&f64, &TrialCtx) -> Result<u64, TrialFailure> + Sync,
{
    let path = journal_path(tag);
    let mut journal = CheckpointJournal::new(&path);
    SweepRunner::new()
        .with_threads(1)
        .run_checkpointed(
            &POINTS,
            REPS,
            GRID_SEED,
            || (),
            |p, ctx, _| trial(p, ctx),
            encode,
            decode,
            &mut journal,
        )
        .expect("full run succeeds");
    let bytes = std::fs::read(&path).expect("journal exists");
    (bytes, path)
}

/// Truncates the journal after `keep` bytes of its final record line and
/// resumes; the merged outcome must equal the uninterrupted reference.
fn assert_every_tear_resumes_identically<F>(tag: &str, trial: F)
where
    F: Fn(&f64, &TrialCtx) -> Result<u64, TrialFailure> + Sync + Copy,
{
    let reference = SweepRunner::new()
        .with_threads(1)
        .run(&POINTS, REPS, GRID_SEED, || (), |p, ctx, _| trial(p, ctx))
        .expect("reference run succeeds");

    let (bytes, path) = full_checkpointed_run(tag, trial);
    let text = std::str::from_utf8(&bytes).expect("journal is UTF-8");
    assert!(text.ends_with('\n'), "journal lines are newline-terminated");
    let body = &text[..text.len() - 1];
    let last_line_start = body.rfind('\n').map_or(0, |i| i + 1);
    let last_line_len = body.len() - last_line_start;
    assert!(last_line_start > 0, "journal has a header plus records");
    // Newlines inside `body` separate the header + records, so their
    // count is exactly the number of record lines.
    let full_records = body.matches('\n').count();
    assert_eq!(full_records, POINTS.len() * REPS);

    // Resumes the journal at `path` and finishes the sweep, returning how
    // many trials were preloaded; the outcome must equal the reference.
    let resume_and_finish = |keep: usize, pass: &str| {
        let mut journal = CheckpointJournal::resume(&path)
            .unwrap_or_else(|e| panic!("{tag}: {pass} resume failed at tear offset {keep}: {e}"));
        let preloaded = journal.preloaded();
        let resumed = SweepRunner::new()
            .with_threads(2)
            .run_checkpointed(
                &POINTS,
                REPS,
                GRID_SEED,
                || (),
                |p, ctx, _| trial(p, ctx),
                encode,
                decode,
                &mut journal,
            )
            .unwrap_or_else(|e| {
                panic!("{tag}: {pass} resumed run failed at tear offset {keep}: {e}")
            });
        assert!(!resumed.is_partial());
        assert_eq!(
            resumed.per_point, reference.per_point,
            "{tag}: results diverged after {pass} resume at tear offset {keep}"
        );
        assert_eq!(
            resumed.quarantine, reference.quarantine,
            "{tag}: quarantine diverged after {pass} resume at tear offset {keep}"
        );
        preloaded
    };

    // Tear at every byte of the final record: 0 (line vanished entirely,
    // no trailing newline) through len-1 (one byte short), plus the
    // untorn file as a control.
    for keep in 0..=last_line_len {
        let mut torn = bytes[..last_line_start + keep].to_vec();
        let intact = keep == last_line_len;
        if intact {
            torn.push(b'\n'); // the control: intact file
        }
        std::fs::write(&path, &torn).expect("write torn journal");

        // Every strict prefix of a record fails to parse — even one that
        // lost only its closing brace — so a tear always drops exactly the
        // last record, which reruns.
        let expected = if intact {
            full_records
        } else {
            full_records - 1
        };
        let preloaded = resume_and_finish(keep, "first");
        assert_eq!(preloaded, expected, "{tag}: tear at offset {keep}");

        // Crash twice: the rerun trial was journaled on a line of its own,
        // so resuming the same file again loads every trial.
        let preloaded = resume_and_finish(keep, "second");
        assert_eq!(
            preloaded, full_records,
            "{tag}: second resume at offset {keep}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_ok_tail_resumes_bit_identically_at_every_byte() {
    assert_every_tear_resumes_identically("ok-tail", trial_ok);
}

#[test]
fn torn_fault_tail_resumes_bit_identically_at_every_byte() {
    // The final trial (highest index) quarantines, so the journal's last
    // line is a fault record with a long JSON payload.
    fn trial(p: &f64, ctx: &TrialCtx) -> Result<u64, TrialFailure> {
        if *p == POINTS[POINTS.len() - 1] {
            return Err(
                TrialFailure::new("nan-energy", "synthetic fault for the torn-tail suite")
                    .with_seed(ctx.seed(0)),
            );
        }
        Ok(ctx.seed(0))
    }
    assert_every_tear_resumes_identically("fault-tail", trial);
}
