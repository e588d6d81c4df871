//! Process-global, lock-free metrics registry.
//!
//! The registry is a set of `static` atomics: a fixed array of named
//! [`Counter`]s, plus fixed-capacity tables of labeled log2 histograms
//! and f64 gauges. Everything is guarded by a single `enabled` flag that
//! defaults to **off**: a disabled instrumentation site costs one relaxed
//! atomic load and never reads a clock, allocates, or writes anything, so
//! the hot path stays allocation-free and bit-identical to an
//! uninstrumented build.
//!
//! Determinism: counters and histograms only ever *add* integers
//! (nanoseconds, nanojoules, event counts), so their totals are
//! order-independent — the same sweep records the same aggregate at any
//! thread count. Gauges are plain stores of `f64::to_bits` and are used
//! for exact values computed once, in deterministic order, after a sweep
//! merges its results (e.g. total energies summed over sorted trials).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use std::time::Instant;

use crate::hist::{AtomicHistogram, Histogram};

/// Fixed set of process-wide event and quantity counters.
///
/// Quantities are integers so concurrent accumulation is exact and
/// order-independent: energies in nanojoules (`_nj`), times in
/// nanoseconds (`_ns`), everything else an event count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
#[non_exhaustive]
pub enum Counter {
    /// Trials started by the sweep engine.
    TrialsRun,
    /// Trials that ended in a quarantined fault.
    TrialsFaulted,
    /// Per-trial retry attempts after a resamplable failure.
    TrialsResampled,
    /// Solutions produced by the degraded-mode fallback chain.
    DegradedSolutions,
    /// Entries into the fallback chain (a primary solver failed).
    FallbackAttempts,
    /// Solver panics caught by the fallback chain or containment.
    SolverPanicsCaught,
    /// Sim-oracle cross-checks executed.
    OracleChecks,
    /// Sim-oracle divergences observed.
    OracleFailures,
    /// Energy-meter invocations (`simulate*` calls).
    MeterRuns,
    /// Memory sleep episodes summed over all metered schedules.
    MemorySleeps,
    /// Core sleep episodes summed over all metered schedules.
    CoreSleeps,
    /// Core dynamic energy, nanojoules.
    CoreDynamicNj,
    /// Core static (awake leakage) energy, nanojoules.
    CoreStaticNj,
    /// Core sleep/wake transition energy, nanojoules.
    CoreTransitionNj,
    /// Memory static (awake leakage) energy, nanojoules.
    MemoryStaticNj,
    /// Memory access (dynamic) energy, nanojoules.
    MemoryDynamicNj,
    /// Memory sleep/wake transition energy, nanojoules.
    MemoryTransitionNj,
    /// Total memory awake time, nanoseconds.
    MemoryAwakeNs,
    /// Total memory sleep time, nanoseconds.
    MemorySleepNs,
    /// Service requests admitted into the queue (`sdem serve`).
    RequestsAdmitted,
    /// Service requests shed because the queue was full.
    RequestsShed,
    /// Service requests dropped because their deadline expired in queue.
    RequestsExpired,
    /// Service requests answered with a typed protocol error.
    RequestsRejected,
    /// Solve-cache hits (canonicalized task-set key found).
    CacheHits,
    /// Solve-cache misses (cold solve performed).
    CacheMisses,
    /// Solve-cache evictions (capacity reached, oldest entry dropped).
    CacheEvictions,
    /// Bounded-core branch-and-bound search nodes expanded.
    BoundedNodesExpanded,
    /// Bounded-core branch-and-bound subtrees pruned (bound or
    /// feasibility cut before expansion).
    BoundedPruned,
    /// Bounded-core refine-tier local-search steps applied (moves and
    /// swaps that strictly improved the load balance).
    BoundedRefineImprovements,
    /// Serve worker-level panics contained by the supervisor; each one
    /// restarts the worker with a rebuilt workspace.
    ServeWorkerRestarts,
    /// Serve responses produced by the graceful-degradation tier
    /// (race-to-idle baseline, forced by a chaos `queue-full` injection).
    ServeDegradedResponses,
    /// Journaled responses replayed verbatim by `replay --resume`
    /// instead of being re-solved.
    ServeRecoveredSeqs,
    /// Dedicated core clusters allocated to heavy DAGs by the federated
    /// pipeline.
    DagClusters,
    /// DAG instances the federated pipeline rejected as infeasible.
    DagInfeasible,
}

/// Stable export names, indexed by `Counter as usize`.
const COUNTER_NAMES: &[&str] = &[
    "trials_run",
    "trials_faulted",
    "trials_resampled",
    "degraded_solutions",
    "fallback_attempts",
    "solver_panics_caught",
    "oracle_checks",
    "oracle_failures",
    "meter_runs",
    "memory_sleeps",
    "core_sleeps",
    "core_dynamic_nj",
    "core_static_nj",
    "core_transition_nj",
    "memory_static_nj",
    "memory_dynamic_nj",
    "memory_transition_nj",
    "memory_awake_ns",
    "memory_sleep_ns",
    "requests_admitted",
    "requests_shed",
    "requests_expired",
    "requests_rejected",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "bounded/nodes_expanded",
    "bounded/pruned",
    "bounded/refine_improvements",
    "serve/worker_restarts",
    "serve/degraded_responses",
    "serve/recovered_seqs",
    "dag/clusters",
    "dag/infeasible",
];

impl Counter {
    /// Stable snake_case name used in exported metrics JSON.
    pub fn name(self) -> &'static str {
        COUNTER_NAMES[self as usize]
    }
}

/// Maximum number of distinct histogram labels (first-come slots).
const MAX_HISTOGRAMS: usize = 32;
/// Maximum number of distinct gauge labels (first-come slots).
const MAX_GAUGES: usize = 32;

struct HistSlot {
    label: OnceLock<&'static str>,
    hist: AtomicHistogram,
}

struct GaugeSlot {
    label: OnceLock<&'static str>,
    bits: AtomicU64,
    set: AtomicBool,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNTERS: [AtomicU64; COUNTER_NAMES.len()] =
    [const { AtomicU64::new(0) }; COUNTER_NAMES.len()];
static HISTOGRAMS: [HistSlot; MAX_HISTOGRAMS] = [const {
    HistSlot {
        label: OnceLock::new(),
        hist: AtomicHistogram::new(),
    }
}; MAX_HISTOGRAMS];
static GAUGES: [GaugeSlot; MAX_GAUGES] = [const {
    GaugeSlot {
        label: OnceLock::new(),
        bits: AtomicU64::new(0),
        set: AtomicBool::new(false),
    }
}; MAX_GAUGES];
static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Turns metric recording on or off (off by default).
pub fn set_enabled(on: bool) {
    if on {
        // Pin the monotonic anchor before the first sample.
        let _ = ANCHOR.get_or_init(Instant::now);
    }
    ENABLED.store(on, Relaxed);
}

/// Whether metric recording is currently on (one relaxed load).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

/// Adds `n` to a counter. No-op (one relaxed load) when disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if enabled() && n != 0 {
        COUNTERS[counter as usize].fetch_add(n, Relaxed);
    }
}

/// Adds 1 to a counter. No-op (one relaxed load) when disabled.
#[inline]
pub fn incr(counter: Counter) {
    if enabled() {
        COUNTERS[counter as usize].fetch_add(1, Relaxed);
    }
}

/// Current value of a counter (reads even while disabled).
pub fn counter(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Relaxed)
}

/// Adds `joules` to an energy counter as whole nanojoules.
///
/// Non-finite and negative values are dropped — energy metering reports
/// only physical quantities, and the metrics layer must never panic.
#[inline]
pub fn add_joules(counter: Counter, joules: f64) {
    if enabled() && joules.is_finite() && joules > 0.0 {
        COUNTERS[counter as usize].fetch_add((joules * 1e9).round() as u64, Relaxed);
    }
}

/// Adds `seconds` to a time counter as whole nanoseconds.
#[inline]
pub fn add_seconds(counter: Counter, seconds: f64) {
    if enabled() && seconds.is_finite() && seconds > 0.0 {
        COUNTERS[counter as usize].fetch_add((seconds * 1e9).round() as u64, Relaxed);
    }
}

fn hist_slot(label: &'static str) -> Option<&'static AtomicHistogram> {
    for slot in &HISTOGRAMS {
        // `set` fails when another thread claimed the slot first; re-check
        // what actually landed there and move on when it is a different
        // label. A full table silently drops the sample — metrics must
        // never panic the host.
        let claimed = slot.label.get_or_init(|| label);
        if *claimed == label {
            return Some(&slot.hist);
        }
    }
    None
}

/// Records one sample into the histogram registered under `label`.
/// No-op when disabled or when all histogram slots are taken.
#[inline]
pub fn record_value(label: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    if let Some(h) = hist_slot(label) {
        h.record(value);
    }
}

/// Merges a locally accumulated histogram into the global one under
/// `label` (the per-worker deterministic merge at sweep join).
pub fn merge_histogram(label: &'static str, local: &Histogram) {
    if !enabled() || local.is_empty() {
        return;
    }
    if let Some(h) = hist_slot(label) {
        h.merge_from(local);
    }
}

/// Stores an exact `f64` value (by bits) under a gauge label.
pub fn set_gauge(label: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    for slot in &GAUGES {
        let claimed = slot.gauge_label(label);
        if claimed {
            slot.bits.store(value.to_bits(), Relaxed);
            slot.set.store(true, Relaxed);
            return;
        }
    }
}

impl GaugeSlot {
    fn gauge_label(&self, label: &'static str) -> bool {
        *self.label.get_or_init(|| label) == label
    }
}

/// Starts a latency measurement — `Some(Instant)` only when enabled, so
/// disabled sites never touch the clock.
#[inline]
pub fn maybe_start() -> Option<Instant> {
    if enabled() {
        Some(Instant::now())
    } else {
        None
    }
}

/// Records the elapsed nanoseconds since [`maybe_start`] under `label`.
#[inline]
pub fn record_elapsed(label: &'static str, since: Option<Instant>) {
    if let Some(start) = since {
        record_value(label, start.elapsed().as_nanos() as u64);
    }
}

/// Nanoseconds since the process-wide monotonic anchor (pinned on the
/// first [`set_enabled`]`(true)` or trace activation).
pub fn now_nanos() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Point-in-time copy of every registered metric, ready for export.
///
/// Counters appear in declaration order; histograms and gauges are
/// sorted by label, so the JSON rendering is deterministic regardless of
/// which thread registered a label first.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter, in [`Counter`] order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(label, histogram)` sorted by label; empty histograms omitted.
    pub histograms: Vec<(&'static str, Histogram)>,
    /// `(label, value)` sorted by label; unset gauges omitted.
    pub gauges: Vec<(&'static str, f64)>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as the `sdem_metrics` version-1 JSON
    /// document consumed by `sdem stats`.
    ///
    /// Counters are integers; each gauge carries both a decimal
    /// rendering and the exact `f64::to_bits` payload; each histogram
    /// exports its summary statistics (sample counts, saturating sum,
    /// exact min/max, log2-bucket percentiles) plus its non-empty
    /// `[bucket_index, count]` pairs.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("{\n  \"sdem_metrics\": 1,\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {value}", crate::json::quote(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (label, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            // `{:e}` round-trips exactly for finite values; non-finite
            // gauges keep only their exact bits (NaN is not JSON).
            let decimal = if value.is_finite() {
                format!("{value:e}")
            } else {
                "0e0".to_string()
            };
            let _ = write!(
                out,
                "{sep}\n    {}: {{\"value\": {decimal}, \"bits\": \"{:#018x}\"}}",
                crate::json::quote(label),
                value.to_bits()
            );
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (label, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p90\": {}, \"p99\": {}, \"buckets\": [",
                crate::json::quote(label),
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99),
            );
            let mut first = true;
            for (bucket, &n) in h.buckets().iter().enumerate() {
                if n != 0 {
                    let sep = if first { "" } else { ", " };
                    let _ = write!(out, "{sep}[{bucket}, {n}]");
                    first = false;
                }
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Snapshots every counter, histogram and gauge.
pub fn snapshot() -> MetricsSnapshot {
    let counters = COUNTER_NAMES
        .iter()
        .zip(COUNTERS.iter())
        .map(|(&name, value)| (name, value.load(Relaxed)))
        .collect();
    let mut histograms: Vec<(&'static str, Histogram)> = HISTOGRAMS
        .iter()
        .filter_map(|slot| {
            let label = slot.label.get()?;
            let h = slot.hist.snapshot();
            (!h.is_empty()).then_some((*label, h))
        })
        .collect();
    histograms.sort_by_key(|(label, _)| *label);
    let mut gauges: Vec<(&'static str, f64)> = GAUGES
        .iter()
        .filter_map(|slot| {
            let label = slot.label.get()?;
            slot.set
                .load(Relaxed)
                .then(|| (*label, f64::from_bits(slot.bits.load(Relaxed))))
        })
        .collect();
    gauges.sort_by_key(|(label, _)| *label);
    MetricsSnapshot {
        counters,
        histograms,
        gauges,
    }
}

/// Zeroes every counter, histogram and gauge value (labels stay
/// registered). Intended for test isolation and CLI start-of-run resets.
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Relaxed);
    }
    for slot in &HISTOGRAMS {
        slot.hist.reset();
    }
    for slot in &GAUGES {
        slot.set.store(false, Relaxed);
        slot.bits.store(0, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_cover_every_variant() {
        // A wrong COUNTER_NAMES length would misname or panic on the
        // last variants; pin the mapping explicitly.
        assert_eq!(Counter::TrialsRun.name(), "trials_run");
        assert_eq!(Counter::MemorySleepNs.name(), "memory_sleep_ns");
        assert_eq!(Counter::CacheEvictions.name(), "cache_evictions");
        assert_eq!(
            Counter::BoundedRefineImprovements.name(),
            "bounded/refine_improvements"
        );
        assert_eq!(Counter::ServeWorkerRestarts.name(), "serve/worker_restarts");
        assert_eq!(
            Counter::ServeDegradedResponses.name(),
            "serve/degraded_responses"
        );
        assert_eq!(Counter::ServeRecoveredSeqs.name(), "serve/recovered_seqs");
        assert_eq!(Counter::DagClusters.name(), "dag/clusters");
        assert_eq!(Counter::DagInfeasible.name(), "dag/infeasible");
        assert_eq!(
            COUNTER_NAMES.len(),
            Counter::DagInfeasible as usize + 1,
            "COUNTER_NAMES must have one entry per Counter variant"
        );
    }

    // Tests in this crate share the process-global registry and the
    // harness runs them in parallel; serialise the ones that toggle it.
    static REGISTRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_registry_records_nothing() {
        let _guard = REGISTRY_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        set_enabled(false);
        let before = counter(Counter::TrialsRun);
        incr(Counter::TrialsRun);
        add(Counter::TrialsRun, 7);
        add_joules(Counter::CoreDynamicNj, 1.0);
        record_value("test/disabled", 5);
        set_gauge("test/disabled_gauge", 1.0);
        assert_eq!(counter(Counter::TrialsRun), before);
        assert!(maybe_start().is_none());
        let snap = snapshot();
        assert!(!snap.histograms.iter().any(|(l, _)| *l == "test/disabled"));
        assert!(!snap.gauges.iter().any(|(l, _)| *l == "test/disabled_gauge"));
    }

    #[test]
    fn enabled_registry_round_trips() {
        let _guard = REGISTRY_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        set_enabled(true);
        reset();
        incr(Counter::OracleChecks);
        add(Counter::MemorySleeps, 3);
        add_joules(Counter::CoreDynamicNj, 1.5); // 1.5e9 nJ
        record_value("test/latency", 100);
        record_value("test/latency", 200);
        set_gauge("test/energy_j", 42.5);
        let snap = snapshot();
        set_enabled(false);
        let get = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("oracle_checks"), 1);
        assert_eq!(get("memory_sleeps"), 3);
        assert_eq!(get("core_dynamic_nj"), 1_500_000_000);
        let (_, h) = snap
            .histograms
            .iter()
            .find(|(l, _)| *l == "test/latency")
            .unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 300);
        let (_, g) = snap
            .gauges
            .iter()
            .find(|(l, _)| *l == "test/energy_j")
            .unwrap();
        assert_eq!(g.to_bits(), 42.5f64.to_bits());
        set_enabled(true);
        reset();
        set_enabled(false);
        assert!(snapshot().histograms.is_empty());
    }
}
