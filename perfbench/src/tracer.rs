//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each public call
//! into a layer; nothing inside the library is instrumented. Every thread
//! keeps its own span stack, per-layer totals and span log, and hands them
//! to one global collector at [`flush`], so recording takes no lock. With
//! tracing off a span costs one relaxed load.
//!
//! A layer's self time is its span's duration minus the part covered by
//! its child spans.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Layer names, indexed by the constants below. Layers are named after the
/// crate whose public call the span wraps.
pub const LAYERS: [&str; 24] = [
    "workload.sporadic",
    "workload.dag",
    "core.sdem_on",
    "baselines.mbkp",
    "sim.meter",
    "sim.engine",
    "core.oracle",
    "core.dag",
    "workload.trace",
    "serve.admit",
    "serve.parse",
    "types.canonicalize",
    "serve.cache_get",
    "serve.cache_insert",
    "core.solve.common-release-overhead",
    "core.solve.agreeable-overhead",
    "core.solve.online",
    "core.solve.bounded-exact",
    "core.solve.bounded-bnb",
    "core.solve.bounded-refined",
    "core.solve.dag-federated",
    "serve.render",
    "serve.journal",
    // Root span of one sweep trial; its self time is the part of the trial
    // closure no layer span covers.
    "exec.trial",
];

pub const SPORADIC: usize = 0;
pub const DAG_GEN: usize = 1;
pub const SDEM_ON: usize = 2;
pub const MBKP: usize = 3;
pub const METER: usize = 4;
pub const ENGINE: usize = 5;
pub const ORACLE: usize = 6;
pub const DAG_SOLVE: usize = 7;
pub const TRACE_NEXT: usize = 8;
pub const ADMIT: usize = 9;
pub const PARSE: usize = 10;
pub const CANONICALIZE: usize = 11;
pub const CACHE_GET: usize = 12;
pub const CACHE_INSERT: usize = 13;
pub const SOLVE_FIRST: usize = 14;
pub const SOLVE_LAST: usize = 20;
pub const RENDER: usize = 21;
pub const JOURNAL: usize = 22;
pub const TRIAL: usize = 23;

/// The solve layer of a response's `resolved` label, if it is one the
/// benchmark's workloads are built to reach.
pub fn solve_layer(resolved: &str) -> Option<usize> {
    let scheme = resolved.strip_prefix("solve/")?;
    (SOLVE_FIRST..=SOLVE_LAST).find(|&l| LAYERS[l].strip_prefix("core.solve.") == Some(scheme))
}

/// Per-layer totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    pub calls: u64,
    pub self_ns: u64,
}

pub type Totals = [Acc; LAYERS.len()];

/// One closed span, as written to the span log.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Unique span id: the recording thread in the high bits, its open
    /// order in the low 40.
    pub id: u64,
    /// Id of the causing (enclosing) span, or `u64::MAX` for a root.
    pub parent: u64,
    /// Trial index or request number shared by the spans of one operation.
    pub op: u64,
    pub layer: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept for the span log; totals keep counting past it.
const LOG_CAP: usize = 50_000;

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Set once the global span log holds [`LOG_CAP`] spans.
static LOG_FULL: AtomicBool = AtomicBool::new(false);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static GLOBAL: Mutex<Collected> = Mutex::new(Collected::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

struct Collected {
    totals: Totals,
    log: Vec<SpanRec>,
}

impl Collected {
    const fn new() -> Self {
        Self {
            totals: [Acc {
                calls: 0,
                self_ns: 0,
            }; LAYERS.len()],
            log: Vec::new(),
        }
    }
}

struct Open {
    layer: usize,
    id: u64,
    start: Instant,
    child_ns: u64,
}

struct Local {
    /// Next span id of this thread.
    next_id: u64,
    op: u64,
    stack: Vec<Open>,
    totals: Totals,
    log: Vec<SpanRec>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        next_id: u64::from(NEXT_THREAD.fetch_add(1, Ordering::Relaxed)) << 40,
        op: 0,
        stack: Vec::with_capacity(8),
        totals: [Acc::default(); LAYERS.len()],
        log: Vec::new(),
    });
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags the spans this thread opens next with `op`.
pub fn set_op(op: u64) {
    if enabled() {
        LOCAL.with(|l| l.borrow_mut().op = op);
    }
}

/// An open span; closes when dropped.
#[must_use]
pub struct Span {
    active: bool,
}

/// Opens a span of `layer` on this thread (a no-op when tracing is off).
pub fn span(layer: usize) -> Span {
    if !enabled() {
        return Span { active: false };
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let id = l.next_id;
        l.next_id += 1;
        l.stack.push(Open {
            layer,
            id,
            start: Instant::now(),
            child_ns: 0,
        });
    });
    Span { active: true }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end = Instant::now();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(open) = l.stack.pop() else { return };
            let dur = end.duration_since(open.start).as_nanos() as u64;
            let acc = &mut l.totals[open.layer];
            acc.calls += 1;
            acc.self_ns += dur.saturating_sub(open.child_ns);
            let parent = match l.stack.last_mut() {
                Some(p) => {
                    p.child_ns += dur;
                    p.id
                }
                None => u64::MAX,
            };
            if !LOG_FULL.load(Ordering::Relaxed) && l.log.len() < LOG_CAP {
                let base = epoch();
                let rec = SpanRec {
                    id: open.id,
                    parent,
                    op: l.op,
                    layer: open.layer as u8,
                    start_ns: open.start.duration_since(base).as_nanos() as u64,
                    end_ns: end.duration_since(base).as_nanos() as u64,
                };
                l.log.push(rec);
            }
        });
    }
}

/// Hands this thread's totals and span log to the global collector.
pub fn flush() {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let totals = std::mem::replace(&mut l.totals, [Acc::default(); LAYERS.len()]);
        let log = std::mem::take(&mut l.log);
        let mut g = GLOBAL.lock().expect("tracer collector poisoned");
        for (acc, add) in g.totals.iter_mut().zip(totals.iter()) {
            acc.calls += add.calls;
            acc.self_ns += add.self_ns;
        }
        let room = LOG_CAP.saturating_sub(g.log.len());
        g.log.extend(log.into_iter().take(room));
        if g.log.len() >= LOG_CAP {
            LOG_FULL.store(true, Ordering::Relaxed);
        }
    });
}

/// Takes the totals collected since the last call (the span log stays).
pub fn take_totals() -> Totals {
    let mut g = GLOBAL.lock().expect("tracer collector poisoned");
    std::mem::replace(&mut g.totals, [Acc::default(); LAYERS.len()])
}

/// Takes the span log collected so far.
pub fn take_log() -> Vec<SpanRec> {
    std::mem::take(&mut GLOBAL.lock().expect("tracer collector poisoned").log)
}
