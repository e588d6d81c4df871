//! Crash-recoverable online trace replay: the driver behind `sdem replay`.
//!
//! A replay streams a seeded [`ArrivalTrace`] through a [`Service`],
//! optionally journaling every response (write-ahead, flushed per line)
//! and optionally injecting a [`ChaosPlan`]. The contract:
//!
//! * **Determinism** — the output is a pure function of `(trace spec,
//!   chaos spec, event count)`. The driver admits with
//!   [`Service::submit_blocking`] (backpressure, never sheds) and the
//!   emitter orders responses by seq, so worker count and timing never
//!   reach the bytes.
//! * **Recovery** — a replay killed at any point and restarted with
//!   `resume` loads the journal, emits the stored prefix verbatim
//!   ([`Service::emit_recovered`], counted as `serve/recovered_seqs`),
//!   re-runs the remainder and produces output byte-identical to an
//!   uninterrupted run.
//! * **Chaos accounting** — after a chaos run, observed service totals
//!   are compared against the plan restricted to the seqs this run
//!   actually executed: worker restarts must equal injected panics,
//!   degraded responses must equal injected queue-fulls, rejects must
//!   equal injected poisons. Any drift is an `internal` error — the
//!   ledger is exact, not approximate.

use std::fmt::Write as _;
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

use sdem_types::ErrorKind;
use sdem_workload::trace::{ArrivalEvent, ArrivalTrace, JobRow, TraceSpec};

use crate::api::{ApiError, API_VERSION};
use crate::chaos::{ChaosPlan, ChaosSpec};
use crate::journal::{JournalHeader, ReplayJournal};
use crate::service::{Service, ServiceConfig, ServiceStats};

/// Everything one replay run needs.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Service knobs (worker count, queue depth, cache size, …). The
    /// driver installs the chaos plan itself; leave `chaos` unset.
    pub service: ServiceConfig,
    /// The trace to generate.
    pub trace: TraceSpec,
    /// Number of arrival events to replay.
    pub events: u64,
    /// Chaos to inject, if any.
    pub chaos: Option<ChaosSpec>,
    /// Journal file for write-ahead durability; `None` runs unjournaled.
    pub journal: Option<PathBuf>,
    /// Resume from the journal (must exist and match the run identity)
    /// instead of starting fresh.
    pub resume: bool,
    /// Stop submitting after this many *newly executed* events — the
    /// test hook that simulates an interrupted run with a clean journal
    /// tail (CI's `kill -9` smoke covers the torn-tail case).
    pub halt_after: Option<u64>,
}

/// What a replay run did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayReport {
    /// Arrival events the full run covers.
    pub events: u64,
    /// Seqs recovered verbatim from the journal.
    pub recovered: u64,
    /// Seqs newly submitted this run.
    pub executed: u64,
    /// Whether `halt_after` stopped the run early.
    pub halted: bool,
    /// Service lifetime totals.
    pub stats: ServiceStats,
}

/// Runs one replay session end to end; responses stream to `out`.
///
/// # Errors
///
/// * `usage` — invalid trace/chaos parameters (e.g. more injections than
///   events);
/// * `checkpoint-error` — journal IO failures, header mismatches on
///   resume;
/// * `internal` — a chaos run whose observed counters disagree with the
///   injected plan.
pub fn replay(cfg: &ReplayConfig, out: Box<dyn Write + Send>) -> Result<ReplayReport, ApiError> {
    let usage = |detail: String| ApiError::new(ErrorKind::Usage, detail);
    let mut trace = ArrivalTrace::new(&cfg.trace).map_err(usage)?;
    let plan = match &cfg.chaos {
        Some(spec) => ChaosPlan::materialize(spec, cfg.events).map_err(usage)?,
        None => ChaosPlan::none(),
    };
    let header = JournalHeader {
        trace: cfg.trace.to_string(),
        chaos: cfg
            .chaos
            .as_ref()
            .map(ChaosSpec::to_string)
            .unwrap_or_default(),
        events: cfg.events,
    };

    let mut recovered_lines: Vec<String> = Vec::new();
    let journal = match (&cfg.journal, cfg.resume) {
        (Some(path), true) => {
            let mut journal = ReplayJournal::resume(path, &header)?;
            // Only a contiguous prefix is safely "done": lines are
            // journaled in seq order, so a gap can only follow a torn
            // tail — everything after it re-runs.
            let entries = journal.take_entries();
            for (seq, line) in entries {
                if seq == recovered_lines.len() as u64 {
                    recovered_lines.push(line);
                } else {
                    break;
                }
            }
            Some(Arc::new(journal))
        }
        (Some(path), false) => Some(Arc::new(ReplayJournal::create(path, header)?)),
        (None, true) => {
            return Err(ApiError::new(
                ErrorKind::Usage,
                "resume needs the journal file of the interrupted run",
            ))
        }
        (None, false) => None,
    };
    let recovered = (recovered_lines.len() as u64).min(cfg.events);

    let service_cfg = ServiceConfig {
        chaos: Some(Arc::new(plan.clone())),
        ..cfg.service.clone()
    };
    let service = match &journal {
        Some(journal) => {
            Service::start_with_journal(service_cfg, out, Arc::clone(journal), recovered)
        }
        None => Service::start(service_cfg, out),
    };

    for line in recovered_lines.iter().take(recovered as usize) {
        service.emit_recovered(line);
    }

    let mut lines = RequestLines::new(trace.shape_count());
    let mut executed = 0u64;
    let mut halted = false;
    let mut seq = 0u64;
    while seq < cfg.events {
        let event = trace.next().expect("arrival traces are infinite");
        debug_assert_eq!(event.seq, seq);
        if seq >= recovered {
            if cfg.halt_after.is_some_and(|n| executed >= n) {
                halted = true;
                break;
            }
            let rows = trace.shape_rows(event.shape);
            service.submit_blocking(lines.render(&event, rows, plan.poison_at(seq)));
            executed += 1;
        }
        seq += 1;
    }

    let stats = service.finish();
    if let Some(journal) = &journal {
        if let Some(error) = journal.take_error() {
            return Err(error);
        }
    }

    // The chaos ledger: every injection in the executed range must have
    // produced exactly one observable outcome. Skipped when the run
    // halted early (the plan's tail never ran) or failed fast (the
    // budget cut injection short by design).
    if cfg.chaos.is_some() && !halted && !stats.failed {
        let expected = plan.counts_from(recovered);
        let mut drift = Vec::new();
        if stats.worker_restarts != expected.panics {
            drift.push(format!(
                "worker_restarts {} != injected panics {}",
                stats.worker_restarts, expected.panics
            ));
        }
        if stats.degraded != expected.queue_full {
            drift.push(format!(
                "degraded {} != injected queue-fulls {}",
                stats.degraded, expected.queue_full
            ));
        }
        if stats.rejected != expected.poison {
            drift.push(format!(
                "rejected {} != injected poisons {}",
                stats.rejected, expected.poison
            ));
        }
        if !drift.is_empty() {
            return Err(ApiError::new(
                ErrorKind::Internal,
                format!("chaos ledger mismatch: {}", drift.join("; ")),
            ));
        }
    }

    Ok(ReplayReport {
        events: cfg.events,
        recovered,
        executed,
        halted,
        stats,
    })
}

/// Renders arrivals as wire request lines: `id` is the seq, the scheme
/// is `auto`, and the shape's rows are rotated by the event's rotation —
/// a permutation the solver canonicalizes away, which is what keeps
/// repeated shapes cache-hot while still exercising the canonicalization
/// path.
///
/// A trace draws every request from a fixed shape pool, so each shape's
/// rows are formatted once, the first time it is drawn, and kept with
/// the byte offset of every row; a line is its header plus those rows
/// spliced in rotated order, built in one reused buffer. The memo holds
/// at most one rendering per shape of the pool the trace already keeps.
struct RequestLines {
    /// Per shape: its rows as `[id,release,deadline,work]` joined by `,`,
    /// and the byte offset where each row starts.
    shapes: Vec<Option<(String, Vec<usize>)>>,
    line: String,
}

impl RequestLines {
    fn new(shapes: usize) -> Self {
        Self {
            shapes: vec![None; shapes],
            line: String::new(),
        }
    }

    /// The request line for `event`, whose shape has `rows`. A `poison`
    /// line carries a non-finite override the admission boundary must
    /// reject: deterministic bytes, typed `bad-request`.
    fn render(&mut self, event: &ArrivalEvent, rows: &[JobRow], poison: bool) -> &str {
        let (text, starts) = self.shapes[event.shape].get_or_insert_with(|| {
            let mut text = String::new();
            let mut starts = Vec::with_capacity(rows.len());
            for r in rows {
                if !text.is_empty() {
                    text.push(',');
                }
                starts.push(text.len());
                let _ = write!(
                    text,
                    "[{},{},{},{}]",
                    r.id, r.release_ms, r.deadline_ms, r.work_cycles
                );
            }
            (text, starts)
        });
        let line = &mut self.line;
        line.clear();
        let _ = write!(
            line,
            "{{\"v\":{API_VERSION},\"id\":{},\"scheme\":\"auto\",\"tasks\":[",
            event.seq
        );
        // Rows `rotation..n`, then rows `0..rotation` without the comma
        // that follows them in `text`.
        let cut = starts[event.rotation % starts.len()];
        line.push_str(&text[cut..]);
        if cut > 0 {
            line.push(',');
            line.push_str(&text[..cut - 1]);
        }
        line.push_str("]}");
        if poison {
            *line = line.replacen('{', "{\"alpha_m_w\":1e999,", 1);
        }
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::SolveRequest;

    /// The renderer the replay used before the shape memo, one `format!`
    /// per row: the reference its spliced lines are pinned against.
    fn request_line(event: &ArrivalEvent, rows: &[JobRow]) -> String {
        let n = rows.len();
        let mut out = String::with_capacity(64 + 40 * n);
        out.push_str(&format!(
            "{{\"v\":{API_VERSION},\"id\":{},\"scheme\":\"auto\",\"tasks\":[",
            event.seq
        ));
        for i in 0..n {
            let r = &rows[(i + event.rotation) % n];
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{},{},{},{}]",
                r.id, r.release_ms, r.deadline_ms, r.work_cycles
            ));
        }
        out.push_str("]}");
        out
    }

    #[test]
    fn rendered_request_lines_parse_and_rotate() {
        let rows = [
            JobRow {
                id: 0,
                release_ms: 0.0,
                deadline_ms: 40.0,
                work_cycles: 8e6,
            },
            JobRow {
                id: 1,
                release_ms: 5.0,
                deadline_ms: 70.0,
                work_cycles: 1.2e7,
            },
        ];
        let event = |rotation| ArrivalEvent {
            seq: 3,
            at_ms: 0.0,
            shape: 0,
            rotation,
        };
        let mut lines = RequestLines::new(1);
        let plain = lines.render(&event(0), &rows, false).to_string();
        let rotated = lines.render(&event(1), &rows, false).to_string();
        assert_eq!(plain, request_line(&event(0), &rows));
        assert_eq!(rotated, request_line(&event(1), &rows));
        assert_ne!(plain, rotated, "rotation must permute the rows");
        let a = SolveRequest::parse_line(&plain).unwrap();
        let b = SolveRequest::parse_line(&rotated).unwrap();
        assert_eq!(a.id, 3);
        assert_eq!(a.tasks.canonicalize(), b.tasks.canonicalize());

        // Every shape at every rotation of a seeded trace, then the
        // trace's own events with a chaos plan's poison seqs on a fresh
        // memo (filled as the replay fills it, at each shape's first
        // draw): the spliced line equals the reference byte for byte.
        let spec = TraceSpec {
            seed: 0x5EED_11E5,
            sets: 16,
            ..TraceSpec::default()
        };
        let mut trace = ArrivalTrace::new(&spec).unwrap();
        let mut lines = RequestLines::new(trace.shape_count());
        let mut checked = 0u64;
        for shape in 0..trace.shape_count() {
            let rows = trace.shape_rows(shape);
            for rotation in 0..rows.len() {
                let event = ArrivalEvent {
                    seq: u64::MAX - checked,
                    at_ms: 0.0,
                    shape,
                    rotation,
                };
                let want = request_line(&event, rows);
                assert_eq!(lines.render(&event, rows, false), want);
                checked += 1;
            }
        }
        assert!(checked > 16 * 4, "{checked} shape rotations");

        let events = 6000;
        let chaos = ChaosSpec {
            poison: 60,
            ..ChaosSpec::default()
        };
        let plan = ChaosPlan::materialize(&chaos, events).unwrap();
        let mut lines = RequestLines::new(trace.shape_count());
        let mut poisoned = 0;
        for _ in 0..events {
            let event = trace.next().unwrap();
            let rows = trace.shape_rows(event.shape);
            let poison = plan.poison_at(event.seq);
            let mut want = request_line(&event, rows);
            if poison {
                want = want.replacen('{', "{\"alpha_m_w\":1e999,", 1);
                poisoned += 1;
            }
            assert_eq!(lines.render(&event, rows, poison), want);
        }
        assert_eq!(poisoned, 60);
    }

    /// Per-line render cost of the reference `format!` renderer against
    /// the splice, over the same eight serve-hot-shaped traces (16
    /// periodic systems plus the Poisson pool, 6,000 events each), in
    /// alternating rounds; the splice starts each trace on a fresh memo,
    /// as a replay does. Timing only, so it runs on request:
    /// `cargo test --release -p sdem-serve --lib render_cost -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing microbench"]
    fn render_cost_per_line() {
        use std::time::Instant;
        let traces: Vec<(ArrivalTrace, Vec<ArrivalEvent>)> = (0..8)
            .map(|t| {
                let spec = TraceSpec {
                    seed: 0x407_7ACE + t,
                    sets: 16,
                    ..TraceSpec::default()
                };
                let mut trace = ArrivalTrace::new(&spec).unwrap();
                let events = (0..6000).map(|_| trace.next().unwrap()).collect();
                (trace, events)
            })
            .collect();
        let lines = traces.iter().map(|(_, e)| e.len()).sum::<usize>();
        let round = |splice: bool| -> (f64, usize) {
            let mut bytes = 0;
            let start = Instant::now();
            for (trace, events) in &traces {
                let mut memo = RequestLines::new(trace.shape_count());
                for event in events {
                    let rows = trace.shape_rows(event.shape);
                    bytes += if splice {
                        memo.render(event, rows, false).len()
                    } else {
                        request_line(event, rows).len()
                    };
                }
            }
            let ns = start.elapsed().as_nanos() as f64 / lines as f64;
            (ns, std::hint::black_box(bytes))
        };
        let (mut format, mut splice) = (Vec::new(), Vec::new());
        for _ in 0..9 {
            let (f, fb) = round(false);
            let (s, sb) = round(true);
            assert_eq!(fb, sb);
            format.push(f);
            splice.push(s);
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2]
        };
        let (format, splice) = (median(&mut format), median(&mut splice));
        let (_, bytes) = round(true);
        println!(
            "render per line over {lines} lines of {} bytes mean: format! {format:.0} ns, \
             splice {splice:.0} ns ({:.1}x)",
            bytes / lines,
            format / splice
        );
    }

    #[test]
    fn resume_without_a_journal_is_a_usage_error() {
        let cfg = ReplayConfig {
            service: ServiceConfig::default(),
            trace: TraceSpec::default(),
            events: 4,
            chaos: None,
            journal: None,
            resume: true,
            halt_after: None,
        };
        let err = replay(&cfg, Box::new(std::io::sink())).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Usage);
    }

    #[test]
    fn overfull_chaos_is_a_usage_error() {
        let cfg = ReplayConfig {
            service: ServiceConfig::default(),
            trace: TraceSpec::default(),
            events: 2,
            chaos: Some(ChaosSpec {
                panics: 5,
                ..ChaosSpec::default()
            }),
            journal: None,
            resume: false,
            halt_after: None,
        };
        let err = replay(&cfg, Box::new(std::io::sink())).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Usage);
    }
}
