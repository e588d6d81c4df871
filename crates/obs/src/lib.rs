//! Zero-dependency observability for the `sdem` workspace.
//!
//! Two sinks behind **no-op defaults**, so an uninstrumented run is
//! bit-identical and allocation-free, plus the JSON codec and the journal
//! the workspace shares:
//!
//! * [`registry`] — a process-global, lock-free metrics registry:
//!   fixed [`Counter`]s, labeled f64 [gauges](registry::set_gauge) and
//!   labeled log2 latency [histograms](hist::Histogram). Disabled sites
//!   cost one relaxed atomic load. Counters and histograms accumulate
//!   integers only (nanoseconds / nanojoules / counts), so aggregates
//!   are order-independent and deterministic at any thread count.
//! * [`trace`] — a structured event sink: [`span`]s and
//!   [instants](trace::instant) with monotonic timestamps, exported as
//!   JSONL. Tracing explicitly trades the allocation-free hot path for
//!   a timeline; disabled (default) it records nothing.
//! * [`json`] — the minimal JSON writer/parser backing the exports,
//!   `sdem stats --check`, the serve wire protocol and the journals.
//! * [`journal`] — the one crash-safe JSONL journal (header line, one
//!   flushed record per line, torn tails skipped on resume) behind the
//!   sweep checkpoint and the replay response journal.
//!
//! # Instrumentation idiom
//!
//! ```
//! use sdem_obs::{registry, trace};
//!
//! fn solve_something() {
//!     let clock = registry::maybe_start(); // None when metrics are off
//!     let _span = trace::span("solve/example"); // None when tracing is off
//!     // … hot work, untouched …
//!     registry::record_elapsed("solve/example", clock);
//! }
//!
//! solve_something(); // both sinks disabled: two relaxed loads, nothing recorded
//! assert!(registry::snapshot().histograms.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod journal;
pub mod json;
pub mod registry;
pub mod trace;

pub use hist::Histogram;
pub use registry::{Counter, MetricsSnapshot};
pub use trace::{span, Span};
