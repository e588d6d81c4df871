//! Structured per-trial failures and fatal sweep errors.
//!
//! The sweep engine knows nothing about schedulers or energy models, so
//! the quarantine layer speaks in concrete, string-based records: a
//! [`TrialFailure`] is what a trial closure returns (or what the panic
//! containment synthesizes), and a [`QuarantineRecord`] is the
//! deterministic, replayable line written to `quarantine.jsonl`. Domain
//! layers (e.g. `sdem-bench`) convert their typed error taxonomies into
//! [`TrialFailure`]s at the sweep boundary.

use core::fmt;

use sdem_obs::json::{self, Value};
use sdem_types::ErrorKind;

/// Panic-message prefix that escalates a contained panic into a fatal
/// sweep abort.
///
/// The quarantine engine catches every panic a trial raises and records
/// it as a [`QuarantineRecord`] — except panics whose string payload
/// starts with this prefix, which are re-raised so the whole sweep fails
/// loudly ([`SweepError::WorkerPanicked`]). Domain layers use it for
/// failures that must never be swallowed per-trial, e.g. a fail-fast
/// sim-oracle divergence.
pub const FATAL_PANIC_PREFIX: &str = "sdem-fatal: ";

/// Why one trial failed, as reported to the quarantine engine.
///
/// `kind` is a stable machine-readable class (`"solver-panic"`,
/// `"oracle-divergence"`, `"non-finite-energy"`, …); `detail` is the
/// human-readable message. `seed` names the exact SplitMix64 seed of the
/// failing attempt when the trial layer knows it (the engine falls back
/// to the trial's `seed(0)`), and `config` is a free-form descriptor —
/// typically `sdem-cli repro` arguments — that makes the trial
/// replayable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFailure {
    /// Stable machine-readable failure class.
    pub kind: String,
    /// Human-readable detail (panic payload, divergence values, …).
    pub detail: String,
    /// Seed of the exact failing attempt, when known.
    pub seed: Option<u64>,
    /// Replay descriptor (e.g. a `sdem-cli repro` argument string).
    pub config: String,
}

impl TrialFailure {
    /// A failure of the given class with a human-readable detail.
    pub fn new(kind: impl Into<String>, detail: impl Into<String>) -> Self {
        Self {
            kind: kind.into(),
            detail: detail.into(),
            seed: None,
            config: String::new(),
        }
    }

    /// A failure classified by the workspace-wide [`ErrorKind`] taxonomy
    /// (`kind` is its stable string code).
    pub fn of(kind: ErrorKind, detail: impl Into<String>) -> Self {
        Self::new(kind.code(), detail)
    }

    /// A failure synthesized from a caught panic payload.
    pub fn panic(payload: impl Into<String>) -> Self {
        Self::of(ErrorKind::SolverPanic, payload)
    }

    /// Decodes `kind` back into the shared taxonomy; foreign or
    /// free-form kinds fold to [`ErrorKind::Internal`].
    pub fn error_kind(&self) -> ErrorKind {
        ErrorKind::from_code(&self.kind).unwrap_or(ErrorKind::Internal)
    }

    /// Returns a copy naming the exact seed of the failing attempt.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Returns a copy carrying a replay descriptor.
    #[must_use]
    pub fn with_config(mut self, config: impl Into<String>) -> Self {
        self.config = config.into();
        self
    }
}

/// One quarantined trial: everything needed to count, diagnose and
/// replay it.
///
/// Records serialize to single JSON lines ([`Self::to_json_line`]) and
/// the serialization is a pure function of the record, so a quarantine
/// file is byte-identical for any worker-thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineRecord {
    /// Flat trial index across the grid.
    pub trial_index: usize,
    /// Grid-point index of the trial.
    pub point: usize,
    /// Replicate number within the point.
    pub replicate: usize,
    /// The sweep's grid seed.
    pub grid_seed: u64,
    /// The exact SplitMix64 seed of the failing attempt.
    pub seed: u64,
    /// Stable machine-readable failure class.
    pub kind: String,
    /// Human-readable detail.
    pub detail: String,
    /// Replay descriptor (e.g. `sdem-cli repro` arguments).
    pub config: String,
}

impl QuarantineRecord {
    /// Serializes the record as one JSON object on one line.
    ///
    /// Seeds are emitted as fixed-width hex strings (`"0x…"`): JSON
    /// numbers cannot carry a full `u64` exactly.
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"trial\":{},\"point\":{},\"replicate\":{},\"grid_seed\":\"{:#018x}\",\
             \"seed\":\"{:#018x}\",\"kind\":{},\"detail\":{},\"config\":{}}}",
            self.trial_index,
            self.point,
            self.replicate,
            self.grid_seed,
            self.seed,
            json::quote(&self.kind),
            json::quote(&self.detail),
            json::quote(&self.config),
        )
    }

    /// Decodes the record's `kind` into the shared [`ErrorKind`]
    /// taxonomy; unknown codes fold to [`ErrorKind::Internal`].
    pub fn error_kind(&self) -> ErrorKind {
        ErrorKind::from_code(&self.kind).unwrap_or(ErrorKind::Internal)
    }

    /// Parses a record from a line produced by [`Self::to_json_line`].
    pub fn from_json_line(line: &str) -> Option<Self> {
        Self::from_json(&json::parse(line).ok()?)
    }

    /// The record a parsed [`Self::to_json_line`] object holds.
    pub(crate) fn from_json(doc: &Value) -> Option<Self> {
        let text = |key: &str| Some(doc.get(key)?.as_str()?.to_string());
        Some(Self {
            trial_index: usize_field(doc, "trial")?,
            point: usize_field(doc, "point")?,
            replicate: usize_field(doc, "replicate")?,
            grid_seed: hex_field(doc, "grid_seed")?,
            seed: hex_field(doc, "seed")?,
            kind: text("kind")?,
            detail: text("detail")?,
            config: text("config")?,
        })
    }
}

impl fmt::Display for QuarantineRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trial {} (point {}, replicate {}) seed {:#x}: {}: {}",
            self.trial_index, self.point, self.replicate, self.seed, self.kind, self.detail
        )
    }
}

/// Fatal, sweep-level errors (as opposed to per-trial quarantines).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SweepError {
    /// A worker thread died with an uncontained panic. The engine joins
    /// every remaining worker before reporting, so no results are
    /// merged from a half-finished sweep.
    WorkerPanicked {
        /// Index of the first worker observed panicking.
        worker: usize,
        /// The panic payload, rendered as text.
        payload: String,
    },
    /// A checkpoint file could not be read, written or parsed.
    Checkpoint {
        /// Path of the offending checkpoint file.
        path: String,
        /// What went wrong.
        detail: String,
    },
    /// A resumed checkpoint was recorded for a different sweep (grid
    /// seed or grid shape mismatch).
    CheckpointMismatch {
        /// What differs between the checkpoint and the requested sweep.
        detail: String,
    },
}

impl SweepError {
    /// Classifies this fatal error in the workspace-wide [`ErrorKind`]
    /// taxonomy (shared with quarantine records and the wire protocol).
    pub const fn kind(&self) -> ErrorKind {
        match self {
            Self::WorkerPanicked { .. } => ErrorKind::WorkerPanic,
            Self::Checkpoint { .. } | Self::CheckpointMismatch { .. } => ErrorKind::CheckpointError,
        }
    }
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WorkerPanicked { worker, payload } => {
                write!(f, "sweep worker {worker} panicked: {payload}")
            }
            Self::Checkpoint { path, detail } => {
                write!(f, "checkpoint `{path}`: {detail}")
            }
            Self::CheckpointMismatch { detail } => {
                write!(f, "checkpoint does not match this sweep: {detail}")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// `doc[key]` as a `usize`.
pub(crate) fn usize_field(doc: &Value, key: &str) -> Option<usize> {
    usize::try_from(doc.get(key)?.as_u64()?).ok()
}

/// `doc[key]` as a `u64` written as a `"0x…"` hex string (JSON numbers
/// cannot carry a full `u64` exactly).
pub(crate) fn hex_field(doc: &Value, key: &str) -> Option<u64> {
    u64::from_str_radix(doc.get(key)?.as_str()?.strip_prefix("0x")?, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdem_types::payload_text;

    #[test]
    fn record_round_trips_through_json() {
        let record = QuarantineRecord {
            trial_index: 42,
            point: 8,
            replicate: 2,
            grid_seed: 0xF17_A000,
            seed: u64::MAX - 3,
            kind: "solver-panic".into(),
            detail: "weird \"quoted\"\npayload\twith\\slashes".into(),
            config: "--kind synthetic --tasks 10 --x-ms 400".into(),
        };
        let line = record.to_json_line();
        assert!(!line.contains('\n'), "must stay one line: {line}");
        assert_eq!(QuarantineRecord::from_json_line(&line), Some(record));
    }

    #[test]
    fn serialization_is_deterministic() {
        let r = QuarantineRecord {
            trial_index: 1,
            point: 0,
            replicate: 1,
            grid_seed: 7,
            seed: 9,
            kind: "k".into(),
            detail: "d".into(),
            config: String::new(),
        };
        let line = r.to_json_line();
        assert_eq!(QuarantineRecord::from_json_line(&line), Some(r));
        assert!(line.contains("\"seed\":\"0x0000000000000009\""));
    }

    #[test]
    fn garbage_lines_do_not_parse() {
        assert_eq!(QuarantineRecord::from_json_line(""), None);
        assert_eq!(QuarantineRecord::from_json_line("{\"trial\":1}"), None);
        assert_eq!(QuarantineRecord::from_json_line("not json at all"), None);
    }

    #[test]
    fn failure_builders_compose() {
        let f = TrialFailure::panic("boom")
            .with_seed(5)
            .with_config("--x 1");
        assert_eq!(f.kind, "solver-panic");
        assert_eq!(f.seed, Some(5));
        assert_eq!(f.config, "--x 1");
        let e = SweepError::WorkerPanicked {
            worker: 3,
            payload: "boom".into(),
        };
        assert!(e.to_string().contains("sweep worker 3 panicked"));
    }

    #[test]
    fn kinds_round_trip_through_the_shared_taxonomy() {
        let f = TrialFailure::of(ErrorKind::OracleDivergence, "d");
        assert_eq!(f.kind, "oracle-divergence");
        assert_eq!(f.error_kind(), ErrorKind::OracleDivergence);
        // Free-form kinds written by domain layers fold to Internal.
        assert_eq!(
            TrialFailure::new("ad-hoc", "d").error_kind(),
            ErrorKind::Internal
        );
        let r = QuarantineRecord {
            trial_index: 0,
            point: 0,
            replicate: 0,
            grid_seed: 0,
            seed: 0,
            kind: "solver-panic".into(),
            detail: String::new(),
            config: String::new(),
        };
        assert_eq!(r.error_kind(), ErrorKind::SolverPanic);
        assert_eq!(
            SweepError::CheckpointMismatch { detail: "d".into() }.kind(),
            ErrorKind::CheckpointError
        );
        assert_eq!(
            SweepError::WorkerPanicked {
                worker: 0,
                payload: "p".into()
            }
            .kind(),
            ErrorKind::WorkerPanic
        );
    }

    #[test]
    fn payload_text_handles_common_payloads() {
        let caught = std::panic::catch_unwind(|| panic!("static message {}", 1 + 1)).unwrap_err();
        assert_eq!(payload_text(caught.as_ref()), "static message 2");
    }
}
