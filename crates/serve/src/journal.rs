//! Durable write-ahead response journal for replay runs.
//!
//! The journal makes `sdem replay` crash-recoverable: every response line
//! is appended (and flushed) *before* it is released to stdout, so after
//! a hard kill the journal holds a prefix of the output — possibly with a
//! torn final record. A restart with `--resume` loads the journal, skips
//! every seq it already holds (emitting the stored bytes verbatim), and
//! re-runs only the remainder. Because the stored lines are the exact
//! bytes the emitter would have produced, the resumed run's output is
//! byte-identical to an uninterrupted run at any worker count.
//!
//! File format (one JSON object per line):
//!
//! ```text
//! {"sdem_replay":1,"trace":"seed=0x7ace,…","chaos":"","events":N}
//! {"seq":0,"line":"{\"v\":1,\"id\":0,…}"}
//! {"seq":1,"line":"…"}
//! ```
//!
//! The header pins the run's identity — canonical trace spec, canonical
//! chaos spec and event count, all worker-count-independent — and resume
//! refuses a journal whose header disagrees with the requested replay.
//! The file discipline is [`sdem_obs::journal`]'s: lines that fail to
//! parse (a torn tail from `kill -9` mid-write) are skipped — the affected
//! seq simply re-runs — and ended before the next record.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use sdem_obs::journal::{Format, Journal};
use sdem_obs::json::{self, Value};
use sdem_types::ErrorKind;

use crate::api::ApiError;

/// Header key and format version of a replay journal file.
const FORMAT: Format = Format {
    key: "sdem_replay",
    version: 1,
};

/// The run identity a journal is bound to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// Canonical trace spec string ([`TraceSpec`](sdem_workload::trace::TraceSpec) `Display`).
    pub trace: String,
    /// Canonical chaos spec string; empty when the run is chaos-free.
    pub chaos: String,
    /// Number of arrival events the replay generates.
    pub events: u64,
}

impl JournalHeader {
    /// The header members after the format key.
    fn fields(&self) -> String {
        format!(
            "\"trace\":{},\"chaos\":{},\"events\":{}",
            json::quote(&self.trace),
            json::quote(&self.chaos),
            self.events
        )
    }

    fn from_json(doc: &Value) -> Option<Self> {
        Some(Self {
            trace: doc.get("trace")?.as_str()?.to_string(),
            chaos: doc.get("chaos")?.as_str()?.to_string(),
            events: doc.get("events")?.as_u64()?,
        })
    }
}

fn entry_from_json(doc: &Value) -> Option<(u64, String)> {
    let seq = doc.get("seq")?.as_u64()?;
    let stored = doc.get("line")?.as_str()?.to_string();
    Some((seq, stored))
}

/// Incremental write-ahead journal of emitted response lines.
///
/// Create a fresh journal with [`ReplayJournal::create`] or load an
/// interrupted run's with [`ReplayJournal::resume`]; hand it to
/// [`Service::start_with_journal`](crate::Service::start_with_journal) so
/// every emitted line is journaled before it reaches the sink.
#[derive(Debug)]
pub struct ReplayJournal {
    header: JournalHeader,
    entries: BTreeMap<u64, String>,
    journal: Journal,
}

/// A `checkpoint-error` naming the journal file.
fn error(path: &Path, detail: impl std::fmt::Display) -> ApiError {
    ApiError::new(
        ErrorKind::CheckpointError,
        format!("journal {}: {detail}", path.display()),
    )
}

impl ReplayJournal {
    /// Creates a fresh journal at `path` (truncating any previous file)
    /// and writes the header.
    ///
    /// # Errors
    ///
    /// `checkpoint-error` if the file cannot be created or the header
    /// cannot be written.
    pub fn create(path: impl Into<PathBuf>, header: JournalHeader) -> Result<Self, ApiError> {
        let path = path.into();
        let journal =
            Journal::create(&path, FORMAT, &header.fields()).map_err(|e| error(&path, e))?;
        Ok(Self {
            header,
            entries: BTreeMap::new(),
            journal,
        })
    }

    /// Loads an interrupted run's journal and reopens it for appending.
    ///
    /// The stored header must equal `expected` — resuming under a
    /// different trace, chaos plan or event count would stitch two
    /// unrelated runs together — and a refused journal is left untouched.
    /// Unparsable entry lines (torn tail) are skipped; their seqs re-run.
    ///
    /// # Errors
    ///
    /// `checkpoint-error` for unreadable files, missing headers and
    /// header mismatches.
    pub fn resume(path: impl Into<PathBuf>, expected: &JournalHeader) -> Result<Self, ApiError> {
        let path = path.into();
        let mut entries = BTreeMap::new();
        let (journal, header) = Journal::resume(&path, FORMAT, |doc| {
            entries.extend(entry_from_json(doc));
        })
        .map_err(|e| error(&path, e))?;
        let header = JournalHeader::from_json(&header)
            .ok_or_else(|| error(&path, "missing or unreadable replay header"))?;
        if header != *expected {
            return Err(error(
                &path,
                format!(
                    "journal recorded trace `{}`, chaos `{}`, {} events; this replay has trace \
                     `{}`, chaos `{}`, {} events",
                    header.trace,
                    header.chaos,
                    header.events,
                    expected.trace,
                    expected.chaos,
                    expected.events
                ),
            ));
        }
        Ok(Self {
            header,
            entries,
            journal,
        })
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// The run identity the journal is bound to.
    pub fn header(&self) -> &JournalHeader {
        &self.header
    }

    /// Number of completed seqs loaded on resume.
    pub fn preloaded(&self) -> usize {
        self.entries.len()
    }

    /// Drains the loaded entries (seq → exact response line) so the
    /// replay driver can emit them verbatim instead of re-solving.
    pub fn take_entries(&mut self) -> BTreeMap<u64, String> {
        std::mem::take(&mut self.entries)
    }

    /// Journals one emitted line (flushed immediately — write-ahead with
    /// respect to the response sink). IO errors are latched, not raised:
    /// the service keeps answering and [`Self::take_error`] surfaces the
    /// failure at the end of the run.
    ///
    /// The record `{"seq":N,"line":"<escaped line>"}` is encoded straight
    /// into the journal's buffer.
    pub fn append(&self, seq: u64, line: &str) {
        self.journal.append_with(|out| {
            write!(out, "{{\"seq\":{seq},\"line\":\"")?;
            json::write_escaped(line, out)?;
            out.write_all(b"\"}")
        });
    }

    /// First journaling IO error hit during the run, if any.
    pub fn take_error(&self) -> Option<ApiError> {
        let detail = self.journal.take_error()?;
        Some(error(self.path(), format!("write failed: {detail}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header() -> JournalHeader {
        JournalHeader {
            trace: "seed=0x7ace,sets=4,tasks=6,poisson=0.25,shapes=32".into(),
            chaos: String::new(),
            events: 100,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sdem-journal-{name}-{}", std::process::id()))
    }

    fn entry_from_line(line: &str) -> Option<(u64, String)> {
        entry_from_json(&json::parse(line).ok()?)
    }

    #[test]
    fn header_round_trips() {
        let h = header();
        let line = format!("{{\"sdem_replay\":1,{}}}", h.fields());
        assert_eq!(
            JournalHeader::from_json(&json::parse(&line).unwrap()),
            Some(h)
        );
        let record = json::parse("{\"seq\":0,\"line\":\"x\"}").unwrap();
        assert_eq!(JournalHeader::from_json(&record), None);
    }

    #[test]
    fn entries_round_trip_and_torn_lines_are_skipped() {
        let line = "{\"v\":1,\"id\":0,\"ok\":true,\"energy_bits\":\"0x3ff0000000000000\"}";
        let record = format!("{{\"seq\":7,\"line\":{}}}", json::quote(line));
        assert_eq!(entry_from_line(&record), Some((7, line.to_string())));
        // Torn prefixes of the record never parse.
        for cut in 0..record.len() {
            if let Some((seq, stored)) = entry_from_line(&record[..cut]) {
                panic!("torn prefix {cut} parsed as ({seq}, {stored})");
            }
        }
    }

    #[test]
    fn create_append_resume_round_trips_through_the_file() {
        let path = temp_path("roundtrip");
        let journal = ReplayJournal::create(&path, header()).unwrap();
        journal.append(0, "{\"id\":0}");
        journal.append(1, "{\"id\":1,\"text\":\"with \\\"quotes\\\"\"}");
        assert!(journal.take_error().is_none());
        drop(journal);

        let mut resumed = ReplayJournal::resume(&path, &header()).unwrap();
        assert_eq!(resumed.preloaded(), 2);
        let entries = resumed.take_entries();
        assert_eq!(entries.get(&0).map(String::as_str), Some("{\"id\":0}"));
        assert_eq!(
            entries.get(&1).map(String::as_str),
            Some("{\"id\":1,\"text\":\"with \\\"quotes\\\"\"}")
        );
        // Appends after resume extend the same file.
        resumed.append(2, "{\"id\":2}");
        drop(resumed);
        let mut again = ReplayJournal::resume(&path, &header()).unwrap();
        assert_eq!(again.preloaded(), 3);
        assert!(again.take_entries().contains_key(&2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_mismatched_headers_and_garbage() {
        let path = temp_path("mismatch");
        drop(ReplayJournal::create(&path, header()).unwrap());
        let mut other = header();
        other.events = 999;
        let before = std::fs::read(&path).unwrap();
        let err = ReplayJournal::resume(&path, &other).unwrap_err();
        assert_eq!(err.kind, ErrorKind::CheckpointError);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "refused resume wrote"
        );

        std::fs::write(&path, "not a journal\n").unwrap();
        let err = ReplayJournal::resume(&path, &header()).unwrap_err();
        assert_eq!(err.kind, ErrorKind::CheckpointError);

        std::fs::write(&path, "").unwrap();
        let err = ReplayJournal::resume(&path, &header()).unwrap_err();
        assert_eq!(err.kind, ErrorKind::CheckpointError);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_typed_error() {
        let err = ReplayJournal::resume(temp_path("never-created"), &header()).unwrap_err();
        assert_eq!(err.kind, ErrorKind::CheckpointError);
    }
}
