//! Structured event-trace sink: spans and instants with monotonic
//! timestamps, exported as JSONL.
//!
//! Tracing is an explicit opt-in (`sdem sweep --trace out.jsonl`) and,
//! unlike the metrics registry, buffers events behind a `Mutex` — the
//! trade is documented: enabling a trace gives up the allocation-free
//! hot path in exchange for a per-event timeline. When disabled
//! (default) every site is a single relaxed load and records nothing,
//! so untraced runs stay bit-identical and allocation-free.
//!
//! Export format (one JSON object per line):
//!
//! ```text
//! {"sdem_trace":1,"events":N}
//! {"name":"solve/example","tid":0,"ts_ns":12345,"dur_ns":678}
//! {"name":"trial/fault","tid":1,"ts_ns":99999}
//! ```
//!
//! `ts_ns` is nanoseconds since the process-wide monotonic anchor
//! ([`crate::registry::now_nanos`]); span lines carry `dur_ns`, instant
//! events omit it. `tid` is a small per-thread ordinal assigned in
//! first-event order.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::escape_into;
use crate::registry::now_nanos;

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Site label, e.g. `"solve/example"`.
    pub name: &'static str,
    /// Small per-thread ordinal (first-event order).
    pub tid: u64,
    /// Nanoseconds since the process monotonic anchor.
    pub ts_ns: u64,
    /// Span duration; `None` for instant events.
    pub dur_ns: Option<u64>,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Relaxed);
}

/// Turns the trace sink on or off (off by default). Enabling pins the
/// monotonic anchor shared with the metrics registry.
pub fn set_enabled(on: bool) {
    if on {
        let _ = now_nanos();
    }
    TRACING.store(on, Relaxed);
}

/// Whether tracing is currently on (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    TRACING.load(Relaxed)
}

fn push(event: Event) {
    let mut buf = EVENTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    buf.push(event);
}

/// Records an instant event. No-op (one relaxed load) when disabled.
pub fn instant(name: &'static str) {
    if !enabled() {
        return;
    }
    push(Event {
        name,
        tid: TID.with(|t| *t),
        ts_ns: now_nanos(),
        dur_ns: None,
    });
}

/// An in-flight span; records one event with its duration on drop.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    ts_ns: u64,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        // Re-check: the sink may have been drained/disabled mid-span.
        if !enabled() {
            return;
        }
        push(Event {
            name: self.name,
            tid: TID.with(|t| *t),
            ts_ns: self.ts_ns,
            dur_ns: Some(self.start.elapsed().as_nanos() as u64),
        });
    }
}

/// Opens a span. Returns `None` (after one relaxed load) when disabled,
/// so the hot path never reads the clock.
#[inline]
pub fn span(name: &'static str) -> Option<Span> {
    if !enabled() {
        return None;
    }
    Some(Span {
        name,
        ts_ns: now_nanos(),
        start: Instant::now(),
    })
}

/// Number of buffered events.
pub fn len() -> usize {
    EVENTS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .len()
}

/// Drains the buffered events, returning them in a deterministic order:
/// sorted by `(ts_ns, tid, name)`. (Buffer order depends on thread
/// scheduling; the sort keys do not.)
pub fn drain() -> Vec<Event> {
    let mut events = std::mem::take(
        &mut *EVENTS
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()),
    );
    events.sort_by(|a, b| {
        (a.ts_ns, a.tid, a.name)
            .cmp(&(b.ts_ns, b.tid, b.name))
            .then(a.dur_ns.cmp(&b.dur_ns))
    });
    events
}

/// Drains the buffer and renders it as JSONL (header line first).
pub fn drain_jsonl() -> String {
    let events = drain();
    let mut out = String::new();
    let _ = writeln!(out, "{{\"sdem_trace\":1,\"events\":{}}}", events.len());
    for e in &events {
        out.push_str("{\"name\":\"");
        escape_into(e.name, &mut out);
        let _ = write!(out, "\",\"tid\":{},\"ts_ns\":{}", e.tid, e.ts_ns);
        if let Some(d) = e.dur_ns {
            let _ = write!(out, ",\"dur_ns\":{d}");
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The trace sink is process-global; serialise tests that toggle it.
    static TRACE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_sink_records_nothing() {
        let _guard = TRACE_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        set_enabled(false);
        let before = len();
        instant("test/instant");
        assert!(span("test/span").is_none());
        assert_eq!(len(), before);
    }

    #[test]
    fn spans_and_instants_round_trip_as_jsonl() {
        let _guard = TRACE_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        set_enabled(true);
        let _ = drain();
        {
            let _span = span("test/work");
            instant("test/mark");
        }
        let out = drain_jsonl();
        set_enabled(false);
        let mut lines = out.lines();
        assert_eq!(lines.next(), Some("{\"sdem_trace\":1,\"events\":2}"));
        let rest: Vec<&str> = lines.collect();
        assert_eq!(rest.len(), 2);
        assert!(rest
            .iter()
            .any(|l| l.contains("\"name\":\"test/mark\"") && !l.contains("dur_ns")));
        assert!(rest
            .iter()
            .any(|l| l.contains("\"name\":\"test/work\"") && l.contains("\"dur_ns\":")));
    }
}
