//! sdem-serve — the persistent SDEM scheduling service.
//!
//! This crate turns the one-shot solver pipeline into a long-lived
//! daemon: a JSONL request/response protocol (the versioned [`api`]
//! module), a bounded-admission worker pool with warm per-worker
//! [`Workspace`](sdem_types::Workspace)s (the [`service`] module), and a
//! canonicalized task-set solve cache ([`cache`]) that makes repeated —
//! and permuted — workload shapes cost a hash lookup instead of a solve.
//!
//! The wire format is the crate's compatibility surface:
//!
//! * every message carries `"v": 1` ([`api::API_VERSION`]); unknown
//!   versions are rejected with `bad-request`;
//! * error responses carry a stable machine-readable `kind` drawn from
//!   [`sdem_types::ErrorKind`] — the same taxonomy used for CLI exit
//!   codes and quarantine journals;
//! * success responses expose energy and sleep both as decimals and as
//!   exact IEEE-754 bit patterns, so clients can assert bit-identity.
//!
//! Response bytes are a pure function of the request: cache hits replay
//! the cold solve's bits and responses are emitted in submission order,
//! so a session's output stream is byte-identical at any worker count.

//!
//! On top of the daemon sit the robustness layers: an injectable
//! [`clock`] for deterministic deadline handling, a [`supervisor`] that
//! restarts panicked workers with a budget and exponential backoff, a
//! write-ahead response [`journal`] that makes replay runs
//! crash-recoverable, a seeded [`chaos`] injection plan, and the
//! [`replay`](mod@replay) driver that streams a generated arrival trace
//! through the service with all of the above wired together.

pub mod api;
pub mod cache;
pub mod chaos;
pub mod clock;
pub mod journal;
pub mod replay;
pub mod service;
pub mod supervisor;

pub use api::{ApiError, Executed, SolveRequest, SolveResponse, API_VERSION, DEGRADED_RESOLVED};
pub use cache::{CacheParams, CachedSolve, SolveCache};
pub use chaos::{ChaosCounts, ChaosPlan, ChaosSpec};
pub use clock::{ManualClock, ServiceClock};
pub use journal::{JournalHeader, ReplayJournal};
pub use replay::{replay, ReplayConfig, ReplayReport};
pub use service::{
    run_session, Service, ServiceConfig, ServiceStats, MAX_LINE_BYTES, REQUEST_HISTOGRAM,
};
pub use supervisor::{Supervisor, SupervisorConfig, Verdict};
