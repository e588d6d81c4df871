//! Sweep checkpoint journal: a line-oriented log of finished trials.
//!
//! The journal is written incrementally while a checkpointed sweep runs
//! (one line per finished trial, flushed immediately) so a killed sweep
//! can be resumed with `--resume`: already-journaled trials are loaded
//! back verbatim and only the remainder is executed. Because per-trial
//! seeds are derived — never sequential — the resumed run is
//! bit-identical to an uninterrupted one regardless of where the
//! original was interrupted or how many workers either run used.
//!
//! File format (one JSON object per line, written by this module only):
//!
//! ```text
//! {"sdem_checkpoint":1,"grid_seed":"0x…","points":P,"replications":R}
//! {"trial":7,"ok":"<domain-encoded result>"}
//! {"trial":9,"fault":{…quarantine record…}}
//! ```
//!
//! The file discipline is [`sdem_obs::journal`]'s: lines that fail to
//! parse (e.g. a torn tail from a hard kill) are skipped on resume — the
//! affected trial simply reruns — and ended before the next record.

use std::path::{Path, PathBuf};

use sdem_obs::journal::{Format, Journal};
use sdem_obs::json::{self, Value};

use crate::fault::{hex_field, usize_field, QuarantineRecord, SweepError, TrialFailure};
use crate::Finished;

/// Header key and format version of a sweep checkpoint file.
const FORMAT: Format = Format {
    key: "sdem_checkpoint",
    version: 1,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    grid_seed: u64,
    points: usize,
    replications: usize,
}

impl Header {
    /// The header members after the format key.
    fn fields(self) -> String {
        format!(
            "\"grid_seed\":\"{:#018x}\",\"points\":{},\"replications\":{}",
            self.grid_seed, self.points, self.replications
        )
    }

    fn from_json(doc: &Value) -> Option<Self> {
        Some(Self {
            grid_seed: hex_field(doc, "grid_seed")?,
            points: usize_field(doc, "points")?,
            replications: usize_field(doc, "replications")?,
        })
    }
}

/// One journaled trial as loaded on resume: its domain-encoded result, or
/// the failure it was quarantined with.
type Entry = (usize, Result<String, TrialFailure>);

fn entry_from_json(doc: &Value) -> Option<Entry> {
    let trial = usize_field(doc, "trial")?;
    if let Some(encoded) = doc.get("ok") {
        return Some((trial, Ok(encoded.as_str()?.to_string())));
    }
    let record = QuarantineRecord::from_json(doc.get("fault")?)?;
    let failure = TrialFailure::new(record.kind, record.detail)
        .with_seed(record.seed)
        .with_config(record.config);
    Some((trial, Err(failure)))
}

fn error(path: &Path, detail: String) -> SweepError {
    SweepError::Checkpoint {
        path: path.display().to_string(),
        detail,
    }
}

/// Incremental journal of finished sweep trials, for checkpoint/resume.
///
/// Create a fresh journal with [`CheckpointJournal::new`] (truncates any
/// existing file when the sweep starts) or load a previous run's journal
/// with [`CheckpointJournal::resume`]. Pass it to
/// [`SweepRunner::run_checkpointed`](crate::SweepRunner::run_checkpointed),
/// which journals every newly finished trial and skips the preloaded ones.
#[derive(Debug)]
pub struct CheckpointJournal {
    path: PathBuf,
    /// The loaded header; `None` for a fresh journal.
    resumed: Option<Header>,
    entries: Vec<Entry>,
    journal: Option<Journal>,
}

impl CheckpointJournal {
    /// A fresh journal at `path`. The file is created (truncating any
    /// previous contents) when the sweep starts.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            resumed: None,
            entries: Vec::new(),
            journal: None,
        }
    }

    /// Loads the journal of an interrupted sweep from `path`.
    ///
    /// Unparsable lines (torn tails from a hard kill) are skipped — the
    /// corresponding trials rerun. Fails if the file cannot be read or
    /// does not start with a checkpoint header. Nothing is written to the
    /// file until the sweep journals its first trial.
    pub fn resume(path: impl Into<PathBuf>) -> Result<Self, SweepError> {
        let path = path.into();
        let mut entries = Vec::new();
        let (journal, header) = Journal::resume(&path, FORMAT, |doc| {
            entries.extend(entry_from_json(doc));
        })
        .map_err(|e| error(&path, e))?;
        let header = Header::from_json(&header)
            .ok_or_else(|| error(&path, "missing or unreadable checkpoint header".into()))?;
        Ok(Self {
            path,
            resumed: Some(header),
            entries,
            journal: Some(journal),
        })
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of finished trials loaded from the journal on resume.
    pub fn preloaded(&self) -> usize {
        self.entries.len()
    }

    /// Validates the journal against the sweep's dimensions, decodes the
    /// loaded entries into preloaded results, and creates the file with a
    /// header when fresh. A result `decode` rejects fails the sweep.
    pub(crate) fn prepare<T>(
        &mut self,
        grid_seed: u64,
        points: usize,
        replications: usize,
        decode: &(impl Fn(&str) -> Option<T> + ?Sized),
    ) -> Result<Vec<Finished<T>>, SweepError> {
        let header = Header {
            grid_seed,
            points,
            replications,
        };
        let Some(stored) = self.resumed else {
            let journal = Journal::create(&self.path, FORMAT, &header.fields())
                .map_err(|e| error(&self.path, e))?;
            self.journal = Some(journal);
            return Ok(Vec::new());
        };
        if stored != header {
            return Err(SweepError::CheckpointMismatch {
                detail: format!(
                    "checkpoint recorded grid_seed {:#x}, {} points × {} reps; \
                     this sweep has grid_seed {:#x}, {} points × {} reps",
                    stored.grid_seed,
                    stored.points,
                    stored.replications,
                    header.grid_seed,
                    header.points,
                    header.replications
                ),
            });
        }
        let path = &self.path;
        std::mem::take(&mut self.entries)
            .into_iter()
            .map(|(trial, entry)| match entry {
                Ok(encoded) => match decode(&encoded) {
                    Some(result) => Ok((trial, Ok(result))),
                    None => Err(error(
                        path,
                        format!("trial {trial}: undecodable journaled result"),
                    )),
                },
                Err(failure) => Ok((trial, Err(failure))),
            })
            .collect()
    }

    /// Journals a successful trial. IO errors are latched (the sweep
    /// keeps running) and surfaced by [`Self::take_error`] at the end.
    pub(crate) fn append_ok(&self, trial: usize, encoded: &str) {
        self.append(&format!(
            "{{\"trial\":{trial},\"ok\":{}}}",
            json::quote(encoded)
        ));
    }

    /// Journals a quarantined trial.
    pub(crate) fn append_fault(&self, trial: usize, record: &QuarantineRecord) {
        self.append(&format!(
            "{{\"trial\":{trial},\"fault\":{}}}",
            record.to_json_line()
        ));
    }

    fn append(&self, record: &str) {
        if let Some(journal) = &self.journal {
            journal.append(record);
        }
    }

    /// First journaling IO error hit during the sweep, if any.
    pub(crate) fn take_error(&self) -> Option<SweepError> {
        let detail = self.journal.as_ref()?.take_error()?;
        Some(error(&self.path, format!("write failed: {detail}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(line: &str) -> Option<Entry> {
        entry_from_json(&json::parse(line).ok()?)
    }

    #[test]
    fn header_round_trips() {
        let h = Header {
            grid_seed: 0xF17_A000,
            points: 3,
            replications: 5,
        };
        let line = format!("{{\"sdem_checkpoint\":1,{}}}", h.fields());
        assert_eq!(Header::from_json(&json::parse(&line).unwrap()), Some(h));
        let record = json::parse("{\"trial\":1,\"ok\":\"x\"}").unwrap();
        assert_eq!(Header::from_json(&record), None);
    }

    #[test]
    fn entries_round_trip_and_torn_lines_are_skipped() {
        let ok = "{\"trial\":4,\"ok\":\"dead beef\"}";
        assert_eq!(entry(ok), Some((4, Ok("dead beef".into()))));
        let record = QuarantineRecord {
            trial_index: 9,
            point: 1,
            replicate: 4,
            grid_seed: 3,
            seed: 11,
            kind: "solver-panic".into(),
            detail: "boom".into(),
            config: "--x 1".into(),
        };
        let fault = format!("{{\"trial\":9,\"fault\":{}}}", record.to_json_line());
        let failure = TrialFailure::new("solver-panic", "boom")
            .with_seed(11)
            .with_config("--x 1");
        assert_eq!(entry(&fault), Some((9, Err(failure))));
        assert_eq!(entry("{\"trial\":9,\"ok\":\"tor"), None);
        assert_eq!(entry(""), None);
    }
}
