//! The one crash-safe JSONL journal, behind `sdem-exec`'s sweep
//! checkpoint and `sdem-serve`'s replay response journal.
//!
//! A journal is a header line whose magic key maps to a format version
//! (`{"sdem_checkpoint":1,…}`), then one JSON record per line. Every
//! append is flushed before it returns; a write error is latched for
//! [`Journal::take_error`] while the caller keeps running. A hard kill
//! can tear the final line: [`Journal::resume`] skips every line that
//! fails [`json::parse`], and ends an unterminated final line with `\n`
//! before the first new record, so no record ever lands on a torn one.
//! The file is never truncated, and nothing is written before the first
//! append, so a resume the caller refuses leaves the file untouched.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::json::{self, Value};

/// A journal format: the header's magic first key and the version it
/// maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// Magic first key of the header line, e.g. `"sdem_checkpoint"`.
    pub key: &'static str,
    /// Format version this build reads and writes.
    pub version: u64,
}

/// An append-only JSONL journal file; see the [module docs](self).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    sink: Mutex<Sink>,
}

#[derive(Debug)]
struct Sink {
    writer: BufWriter<File>,
    /// The file ends mid-line: end that line before the next record.
    torn: bool,
    /// First write error, latched until taken.
    error: Option<String>,
}

impl Journal {
    fn new(path: PathBuf, file: File, torn: bool) -> Self {
        let writer = BufWriter::new(file);
        let sink = Mutex::new(Sink {
            writer,
            torn,
            error: None,
        });
        Self { path, sink }
    }

    /// Creates a journal at `path` (truncating any previous file) whose
    /// header is `{"<key>":<version>,<fields>}`.
    ///
    /// # Errors
    ///
    /// A message when the file cannot be created or the header written.
    pub fn create(path: impl Into<PathBuf>, format: Format, fields: &str) -> Result<Self, String> {
        let path = path.into();
        let file = File::create(&path).map_err(|e| format!("cannot create: {e}"))?;
        let journal = Self::new(path, file, false);
        journal.append(&format!(
            "{{\"{}\":{},{fields}}}",
            format.key, format.version
        ));
        match journal.take_error() {
            Some(e) => Err(format!("cannot write header: {e}")),
            None => Ok(journal),
        }
    }

    /// Loads the journal at `path`, handing every record line that parses
    /// to `record` in file order, and returns it opened for appending
    /// together with its parsed header.
    ///
    /// # Errors
    ///
    /// A message when the file cannot be read, is empty, or does not start
    /// with a `format` header.
    pub fn resume(
        path: impl Into<PathBuf>,
        format: Format,
        mut record: impl FnMut(&Value),
    ) -> Result<(Self, Value), String> {
        let path = path.into();
        let file = File::open(&path).map_err(|e| format!("cannot open: {e}"))?;
        let mut reader = BufReader::new(file);
        let (mut line, mut header, mut torn) = (Vec::new(), None, false);
        loop {
            line.clear();
            let read = reader.read_until(b'\n', &mut line);
            if read.map_err(|e| format!("cannot read: {e}"))? == 0 {
                break;
            }
            torn = line.last() != Some(&b'\n');
            let doc = std::str::from_utf8(&line)
                .ok()
                .and_then(|l| json::parse(l).ok());
            match (&header, doc) {
                (None, doc) => {
                    let key = |d: &Value| d.get(format.key).and_then(Value::as_u64);
                    let doc = doc.filter(|d| key(d) == Some(format.version));
                    let missing = || format!("missing or unreadable `{}` header", format.key);
                    header = Some(doc.ok_or_else(missing)?);
                }
                (Some(_), Some(doc)) => record(&doc),
                (Some(_), None) => {}
            }
        }
        let header = header.ok_or("file is empty")?;
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(|e| format!("cannot reopen for append: {e}"))?;
        Ok((Self::new(path, file, torn), header))
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record (a one-line JSON object) and flushes it. A write
    /// error is latched, not raised; see [`take_error`](Self::take_error).
    pub fn append(&self, record: &str) {
        self.append_with(|writer| writer.write_all(record.as_bytes()));
    }

    /// Appends the record `encode` writes — a one-line JSON object,
    /// without its newline — and flushes it before returning, as
    /// [`append`](Self::append) does, so a caller can encode a record
    /// straight into the file's buffer.
    pub fn append_with(&self, encode: impl FnOnce(&mut dyn Write) -> io::Result<()>) {
        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let Sink {
            writer,
            torn,
            error,
        } = &mut *sink;
        let newline: &[u8] = if std::mem::take(torn) { b"\n" } else { b"" };
        let outcome = writer
            .write_all(newline)
            .and_then(|()| encode(writer))
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if let Err(e) = outcome {
            error.get_or_insert_with(|| e.to_string());
        }
    }

    /// The first write error since the last call, if any.
    pub fn take_error(&self) -> Option<String> {
        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        sink.error.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FORMAT: Format = Format {
        key: "test_journal",
        version: 2,
    };

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sdem-obs-journal-{name}-{}", std::process::id()))
    }

    /// Resumes `path`, returning the journal, its header and the `n`
    /// field of every loaded record.
    fn load(path: &Path) -> Result<(Journal, Value, Vec<u64>), String> {
        let mut records = Vec::new();
        let (journal, header) = Journal::resume(path, FORMAT, |doc| {
            records.push(doc.get("n").and_then(Value::as_u64).unwrap());
        })?;
        Ok((journal, header, records))
    }

    #[test]
    fn torn_tail_is_skipped_kept_and_ended_before_the_next_record() {
        let path = temp_path("torn");
        let journal = Journal::create(&path, FORMAT, "\"id\":\"x\"").unwrap();
        journal.append("{\"n\":0}");
        journal.append("{\"n\":1}");
        drop(journal);
        // A kill tears the last record.
        let torn = "{\"test_journal\":2,\"id\":\"x\"}\n{\"n\":0}\n{\"n\":1";
        assert!(std::fs::read_to_string(&path).unwrap().starts_with(torn));
        std::fs::write(&path, torn).unwrap();

        let (journal, header, records) = load(&path).unwrap();
        assert_eq!(header.get("id").and_then(Value::as_str), Some("x"));
        assert_eq!(records, [0]);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), torn, "load wrote");
        journal.append("{\"n\":1}");
        journal.append("{\"n\":2}");
        assert!(journal.take_error().is_none());
        drop(journal);
        // The torn bytes stay; the new records start on lines of their own,
        // so a second resume loads every record.
        let resumed = format!("{torn}\n{{\"n\":1}}\n{{\"n\":2}}\n");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), resumed);
        assert_eq!(load(&path).unwrap().2, [0, 1, 2]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn undecodable_lines_are_skipped() {
        let path = temp_path("garbage");
        let mut bytes = b"{\"test_journal\":2}\n{\"n\":0}\nnot json\n".to_vec();
        bytes.extend_from_slice(b"{\"n\":\xff}\n[[[[\n{\"n\":1}\n");
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(load(&path).unwrap().2, [0, 1]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_headers_are_refused_without_writing() {
        let path = temp_path("header");
        for text in [
            "",
            "not json\n{\"n\":0}\n",
            "{\"test_journal\":3}\n",
            "{\"other\":2}\n",
            "{\"test_journal\":2",
        ] {
            std::fs::write(&path, text).unwrap();
            assert!(load(&path).is_err(), "accepted {text:?}");
            assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        }
        std::fs::remove_file(&path).ok();
        assert!(load(&path).unwrap_err().starts_with("cannot open"));
    }
}
