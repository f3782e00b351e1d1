//! The write-ahead journal: every committed job result as one JSONL
//! line, so a killed campaign resumes from its last commit instead of
//! starting over.
//!
//! Format (version 1):
//!
//! ```text
//! {"kind": "farm-journal", "version": 1, "fingerprint": "<plan hash>", "jobs": N}
//! {"job": 0, "attempts": 1, "result": {<full job result>}}
//! {"job": 1, "attempts": 2, "result": {...}}
//! ...
//! ```
//!
//! The header pins the plan (a fingerprint over the plan's full
//! description and its job count), so a journal can only resume the
//! campaign that wrote it. Result lines are appended — and flushed —
//! in job-id order as the pool's in-order emitter commits them, so a
//! journal is always a *prefix* of the campaign: recovery truncates
//! the torn trailing line a `kill -9` may leave (a proper prefix of a
//! serialized line never parses as JSON — pinned by test in
//! `la1_core::json`) and replays the complete prefix.
//!
//! Unlike the `--serve` stream, which summarizes, a journal line
//! carries the *full* result payload — the detection-matrix cells, the
//! per-bin coverage statistics — because the merged report of a
//! resumed run must be byte-identical to an uninterrupted one.

use crate::job::{FailReason, FarmPlan, JobResult};
use la1_core::json::{Field, FieldError, Footer, FrameError, Framing, Json, Record};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Journal format version this build writes and reads.
pub const JOURNAL_VERSION: u64 = 1;

/// An append-only journal for one farm run. Appends are flushed per
/// line; an I/O error is reported once to stderr and journaling stops
/// (the run itself keeps computing — losing the journal must never
/// lose the campaign).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Option<File>,
}

impl Journal {
    /// Creates (truncating) a journal for `plan` at `path` and writes
    /// the header line.
    pub fn create(path: &Path, plan: &FarmPlan) -> std::io::Result<Journal> {
        let mut file = File::create(path)?;
        file.write_all(header_line(plan, plan.jobs().len()).as_bytes())?;
        file.flush()?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Some(file),
        })
    }

    /// Reopens a recovered journal for appending the remainder of the
    /// run; `valid_bytes` is the length of the intact prefix
    /// ([`load`] reports it) and anything beyond — the torn trailing
    /// line — is truncated away first.
    pub fn reopen(path: &Path, valid_bytes: u64) -> std::io::Result<Journal> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_bytes)?;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Some(file),
        })
    }

    /// Appends one committed result, flushed so a crash right after
    /// the commit point still finds the line on recovery.
    pub fn append(&mut self, job: usize, attempts: u32, result: &JobResult) {
        let mut line = Json::obj([
            ("job", job.encode()),
            ("attempts", attempts.encode()),
            ("result", result.encode()),
        ])
        .render();
        line.push('\n');
        self.append_line(&line);
    }

    fn append_line(&mut self, line: &str) {
        let Some(file) = &mut self.file else { return };
        if file
            .write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .is_err()
        {
            eprintln!(
                "farm journal: write to {} failed — journaling disabled, run continues",
                self.path.display()
            );
            self.file = None;
        }
    }
}

/// Why a journal could not be used to resume a plan.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read or rewritten.
    Io(std::io::Error),
    /// The journal belongs to a different plan (or format version) —
    /// resuming would silently mix campaigns, so this is a hard error
    /// rather than a fresh start.
    PlanMismatch {
        /// What the journal header pinned.
        found: String,
        /// What the resuming plan expects.
        expected: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::PlanMismatch { found, expected } => write!(
                f,
                "journal belongs to a different plan (journal {found}, plan {expected})"
            ),
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

/// The recovered state of a journal: the intact committed prefix.
#[derive(Debug)]
pub struct Recovered {
    /// `(result, attempts)` for jobs `0..results.len()`, in job-id
    /// order.
    pub results: Vec<(JobResult, u32)>,
    /// Length in bytes of the intact prefix (header + complete result
    /// lines); the file content beyond this is torn and must be
    /// truncated before appending resumes.
    pub valid_bytes: u64,
}

/// Loads and validates a journal for `plan`.
///
/// Recovery rules, in order:
/// * unreadable file → [`JournalError::Io`];
/// * header line torn, unparseable or foreign → nothing to trust: an
///   empty recovery (`valid_bytes` 0) that resumes as a fresh run;
/// * header intact but not the one `plan` writes (another plan or
///   format version) → [`JournalError::PlanMismatch`];
/// * result lines replay until the first torn, unparseable,
///   undecodable (a missing field, or a number out of its type's range)
///   or out-of-order line; everything after is discarded.
pub fn load(path: &Path, plan: &FarmPlan) -> Result<Recovered, JournalError> {
    let mut raw = Vec::new();
    File::open(path)?.read_to_end(&mut raw)?;
    // bytes past the first invalid UTF-8 sequence are as good as torn
    let text = match std::str::from_utf8(&raw) {
        Ok(text) => text,
        Err(e) => std::str::from_utf8(&raw[..e.valid_up_to()]).unwrap_or_default(),
    };
    let njobs = plan.jobs().len();
    let expected = header_line(plan, njobs);
    let frame = match JOURNAL.read(text) {
        Ok(frame) if text.starts_with(&expected) => frame,
        Ok(_) | Err(FrameError::VersionMismatch { .. }) => {
            return Err(JournalError::PlanMismatch {
                found: text.lines().next().unwrap_or_default().to_string(),
                expected: expected.trim_end().to_string(),
            })
        }
        Err(_) => {
            return Ok(Recovered {
                results: Vec::new(),
                valid_bytes: 0,
            })
        }
    };
    let mut results = Vec::new();
    let mut valid_bytes = frame.header.end;
    for line in &frame.body {
        let entry = line
            .record()
            .and_then(|r| Ok((r.get::<usize>("job")?, r.get("attempts")?, r.get("result")?)));
        // commits are strictly in job-id order; a gap means the line
        // belongs to some other history — stop trusting here
        let Ok((job, attempts, result)) = entry else {
            break;
        };
        if job != results.len() || job >= njobs {
            break;
        }
        results.push((result, attempts));
        valid_bytes = line.end;
    }
    Ok(Recovered {
        results,
        valid_bytes: valid_bytes as u64,
    })
}

/// The header a journal of `plan` (with `njobs` jobs) starts with: a
/// journal resumes only the plan whose header it carries byte for byte.
fn header_line(plan: &FarmPlan, njobs: usize) -> String {
    JOURNAL.header([
        ("fingerprint", Json::fingerprint(plan.fingerprint())),
        ("jobs", njobs.encode()),
    ])
}

/// The journal stream: a header pinning the plan, then one line per
/// committed result, no footer (it is append-only).
const JOURNAL: Framing = Framing {
    kind: "farm-journal",
    version: JOURNAL_VERSION,
    footer: Footer::None,
};

/// Every field the merge and the serve record consume — the journal's
/// round-trip contract. The closure and explore payloads are the
/// merged reports' own encoders behind a `kind` tag.
impl Field for JobResult {
    fn encode(&self) -> Json {
        let body = match self {
            JobResult::Campaign(m) => m.encode(),
            JobResult::Closure(r) => r.encode(),
            JobResult::Explore(s) => s.encode(),
            JobResult::Failed { job, reason } => {
                let (tag, detail) = match reason {
                    FailReason::Panic(msg) => ("panic", msg.encode()),
                    FailReason::Timeout { budget_ms } => ("timeout", budget_ms.encode()),
                };
                Json::obj([
                    ("job", job.encode()),
                    ("reason", Json::str(tag)),
                    ("detail", detail),
                ])
            }
        };
        Json::obj([("kind", Json::str(self.kind()))]).extend(body)
    }

    fn decode(j: &Json) -> Result<JobResult, FieldError> {
        let r = Record::new(j)?;
        match r.str("kind")? {
            "campaign" => Ok(JobResult::Campaign(Field::decode(j)?)),
            "closure" => Ok(JobResult::Closure(Field::decode(j)?)),
            "explore" => Ok(JobResult::Explore(Field::decode(j)?)),
            "failed" => {
                let reason = match r.str("reason")? {
                    "panic" => FailReason::Panic(r.get("detail")?),
                    "timeout" => FailReason::Timeout {
                        budget_ms: r.get("detail")?,
                    },
                    tag => return Err(r.unknown("reason", tag)),
                };
                Ok(JobResult::Failed {
                    job: r.get("job")?,
                    reason,
                })
            }
            tag => Err(r.unknown("kind", tag)),
        }
    }
}
