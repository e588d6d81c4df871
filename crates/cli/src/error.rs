//! The CLI's typed error: an [`ErrorKind`] from the shared taxonomy plus
//! a human-readable message.
//!
//! The kind drives the process exit code (`ErrorKind::exit_code`), so
//! scripts can distinguish usage mistakes (exit 2), protocol-level bad
//! requests (exit 3), scheme rejections (exit 4) and so on — the same
//! stable codes the serve wire protocol and quarantine records spell as
//! strings.

use sdem_exec::SweepError;
use sdem_serve::ApiError;
use sdem_types::ErrorKind;

/// A command failure: taxonomy kind + message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Stable machine-readable class; determines the exit code.
    pub kind: ErrorKind,
    /// Human-readable message printed to stderr.
    pub message: String,
}

impl CliError {
    /// An error of `kind` with a message.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

/// Legacy string errors are usage mistakes (exit 2), the CLI's historic
/// catch-all.
impl From<String> for CliError {
    fn from(message: String) -> Self {
        Self::new(ErrorKind::Usage, message)
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        Self::new(ErrorKind::Usage, message)
    }
}

impl From<ApiError> for CliError {
    fn from(e: ApiError) -> Self {
        Self::new(e.kind, e.detail)
    }
}

/// Sweep errors keep their taxonomy kind (checkpoint-error, worker-panic).
impl From<SweepError> for CliError {
    fn from(e: SweepError) -> Self {
        Self::new(e.kind(), e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_errors_default_to_usage() {
        let e: CliError = "bad flag".to_string().into();
        assert_eq!(e.kind, ErrorKind::Usage);
        assert_eq!(e.kind.exit_code(), 2);
        assert_eq!(e.to_string(), "bad flag");
    }

    #[test]
    fn api_errors_keep_their_kind() {
        let e: CliError = ApiError::new(ErrorKind::Overloaded, "queue full").into();
        assert_eq!(e.kind, ErrorKind::Overloaded);
        assert_eq!(e.kind.exit_code(), 13);
    }
}
