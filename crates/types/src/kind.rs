//! The workspace-wide error taxonomy.
//!
//! Every failure that can cross a process boundary — a wire-protocol error
//! response from `sdem serve`, a CLI exit code, a quarantine record in a
//! sweep journal — is classified by an [`ErrorKind`] with a **stable string
//! code**. The codes are a compatibility surface: external tooling greps
//! quarantine JSONL for `"kind":"solver-panic"` and shell scripts branch on
//! exit codes, so codes are append-only — existing ones never change
//! meaning, renumber, or disappear.
//!
//! Richer error types (`SdemError`, `TrialError`, `ApiError`) carry the
//! detail; `ErrorKind` is the part that is promised to stay put.

use core::fmt;

/// Stable classification of every error the workspace reports externally.
///
/// The wire protocol (`sdem-serve`), CLI exit codes (`sdem-cli`) and sweep
/// quarantine records (`sdem-exec`) all spell errors with these codes, so a
/// failure observed in one layer can be correlated with the same failure in
/// another without string matching on free-form messages.
///
/// # Examples
///
/// ```
/// use sdem_types::ErrorKind;
///
/// assert_eq!(ErrorKind::SolverPanic.code(), "solver-panic");
/// assert_eq!(ErrorKind::from_code("solver-panic"), Some(ErrorKind::SolverPanic));
/// assert_ne!(ErrorKind::SolverPanic.exit_code(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// A scheme rejected the input (wrong structure for the algorithm,
    /// unsupported model, too many tasks for an exact solver).
    SchemeError,
    /// The input admits no feasible schedule on the given platform.
    InfeasibleInput,
    /// A baseline scheduler failed.
    BaselineError,
    /// The simulator rejected a schedule that a solver produced.
    SimulationError,
    /// A solver or simulation produced a non-finite energy.
    NonFiniteEnergy,
    /// An oracle cross-check disagreed with the primary solver.
    OracleDivergence,
    /// A solver panicked and the panic was contained.
    SolverPanic,
    /// A trial kept failing after exhausting its retry budget.
    RetryBudgetExhausted,
    /// A request was malformed at the protocol boundary (bad JSON, missing
    /// fields, non-finite numbers).
    BadRequest,
    /// A request's deadline expired before a worker could start it.
    DeadlineExpired,
    /// The service shed the request because its queue was full.
    Overloaded,
    /// The service is draining and no longer admits requests.
    Shutdown,
    /// A sweep checkpoint journal was unreadable or inconsistent.
    CheckpointError,
    /// A sweep worker died outside the per-trial quarantine.
    WorkerPanic,
    /// The command line itself was malformed (unknown flag, bad value).
    Usage,
    /// An I/O operation (file, socket, pipe) failed.
    Io,
    /// A failure that fits no other bucket. Also the decode fallback for
    /// codes minted by a newer version of the workspace.
    Internal,
}

/// Every kind, in stable declaration order (handy for exhaustive tests).
pub const ERROR_KINDS: &[ErrorKind] = &[
    ErrorKind::SchemeError,
    ErrorKind::InfeasibleInput,
    ErrorKind::BaselineError,
    ErrorKind::SimulationError,
    ErrorKind::NonFiniteEnergy,
    ErrorKind::OracleDivergence,
    ErrorKind::SolverPanic,
    ErrorKind::RetryBudgetExhausted,
    ErrorKind::BadRequest,
    ErrorKind::DeadlineExpired,
    ErrorKind::Overloaded,
    ErrorKind::Shutdown,
    ErrorKind::CheckpointError,
    ErrorKind::WorkerPanic,
    ErrorKind::Usage,
    ErrorKind::Io,
    ErrorKind::Internal,
];

impl ErrorKind {
    /// The stable string code. Append-only: codes never change meaning.
    pub const fn code(self) -> &'static str {
        match self {
            Self::SchemeError => "scheme-error",
            Self::InfeasibleInput => "infeasible-input",
            Self::BaselineError => "baseline-error",
            Self::SimulationError => "simulation-error",
            Self::NonFiniteEnergy => "non-finite-energy",
            Self::OracleDivergence => "oracle-divergence",
            Self::SolverPanic => "solver-panic",
            Self::RetryBudgetExhausted => "retry-budget-exhausted",
            Self::BadRequest => "bad-request",
            Self::DeadlineExpired => "deadline-expired",
            Self::Overloaded => "overloaded",
            Self::Shutdown => "shutdown",
            Self::CheckpointError => "checkpoint-error",
            Self::WorkerPanic => "worker-panic",
            Self::Usage => "usage",
            Self::Io => "io-error",
            Self::Internal => "internal",
        }
    }

    /// Decodes a stable string code; `None` for unknown codes (callers that
    /// must not fail use `from_code(..).unwrap_or(ErrorKind::Internal)`).
    pub fn from_code(code: &str) -> Option<Self> {
        ERROR_KINDS.iter().copied().find(|k| k.code() == code)
    }

    /// The process exit code the CLI uses for this kind. `0` is reserved
    /// for success and `1` for untyped failures, so every kind maps to a
    /// distinct value `≥ 2`. Stable, like the string codes.
    pub const fn exit_code(self) -> u8 {
        match self {
            Self::Usage => 2,
            Self::BadRequest => 3,
            Self::SchemeError => 4,
            Self::InfeasibleInput => 5,
            Self::BaselineError => 6,
            Self::SimulationError => 7,
            Self::NonFiniteEnergy => 8,
            Self::OracleDivergence => 9,
            Self::SolverPanic => 10,
            Self::RetryBudgetExhausted => 11,
            Self::DeadlineExpired => 12,
            Self::Overloaded => 13,
            Self::Shutdown => 14,
            Self::CheckpointError => 15,
            Self::WorkerPanic => 16,
            Self::Io => 17,
            Self::Internal => 18,
        }
    }

    /// `true` for kinds that describe load conditions rather than bad input
    /// or broken solvers — a client may retry these verbatim.
    pub const fn is_retryable(self) -> bool {
        matches!(self, Self::Overloaded | Self::DeadlineExpired)
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Renders a caught panic payload as text (`&str` and `String` payloads
/// pass through; anything else becomes a placeholder) — the detail of a
/// contained `solver-panic` or `worker-panic`.
pub fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for &k in ERROR_KINDS {
            assert_eq!(ErrorKind::from_code(k.code()), Some(k), "{k:?}");
        }
        assert_eq!(ErrorKind::from_code("no-such-code"), None);
    }

    #[test]
    fn codes_are_unique_kebab_case() {
        for (i, a) in ERROR_KINDS.iter().enumerate() {
            assert!(a.code().chars().all(|c| c.is_ascii_lowercase() || c == '-'));
            for b in &ERROR_KINDS[i + 1..] {
                assert_ne!(a.code(), b.code());
            }
        }
    }

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        for (i, a) in ERROR_KINDS.iter().enumerate() {
            assert!(a.exit_code() >= 2, "{a:?} must not collide with 0/1");
            for b in &ERROR_KINDS[i + 1..] {
                assert_ne!(a.exit_code(), b.exit_code(), "{a:?} vs {b:?}");
            }
        }
    }

    // The codes below are pinned verbatim: quarantine JSONL written by
    // earlier releases already contains them, so changing any of these
    // strings breaks journal compatibility.
    #[test]
    fn legacy_quarantine_codes_are_pinned() {
        assert_eq!(ErrorKind::SchemeError.code(), "scheme-error");
        assert_eq!(ErrorKind::InfeasibleInput.code(), "infeasible-input");
        assert_eq!(ErrorKind::BaselineError.code(), "baseline-error");
        assert_eq!(ErrorKind::SimulationError.code(), "simulation-error");
        assert_eq!(ErrorKind::NonFiniteEnergy.code(), "non-finite-energy");
        assert_eq!(ErrorKind::OracleDivergence.code(), "oracle-divergence");
        assert_eq!(ErrorKind::SolverPanic.code(), "solver-panic");
        assert_eq!(
            ErrorKind::RetryBudgetExhausted.code(),
            "retry-budget-exhausted"
        );
    }

    #[test]
    fn retryable_split() {
        assert!(ErrorKind::Overloaded.is_retryable());
        assert!(ErrorKind::DeadlineExpired.is_retryable());
        assert!(!ErrorKind::BadRequest.is_retryable());
        assert!(!ErrorKind::SolverPanic.is_retryable());
    }

    #[test]
    fn display_is_the_code() {
        assert_eq!(ErrorKind::Overloaded.to_string(), "overloaded");
    }
}
