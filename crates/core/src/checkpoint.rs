//! Versioned, fingerprint-pinned checkpoint formats: [`Snapshot`]
//! (full model state at a cycle boundary) and [`Trace`] (a replayable
//! pin-vector recording).
//!
//! Both serialize as JSONL through [`crate::json`]'s shared
//! [`Framing`] — one self-contained object per line, a header line
//! first and an explicit `end` footer last:
//!
//! ```text
//! {"kind": "la1-snapshot", "version": 1, "level": "systemc", ...}
//! {"sec": "sc", ...}
//! {"sec": "bank", ...}
//! ...
//! {"end": true, "lines": 7}
//! ```
//!
//! The properties that make the format safe to use from the farm and
//! the staged-closure flow:
//!
//! * **Versioned** — the header carries a format version; a reader
//!   built for another version refuses with
//!   [`CheckpointError::VersionMismatch`] instead of misinterpreting.
//! * **Fingerprint-pinned** — the header carries a fingerprint of the
//!   `(level, LaConfig)` pair the state was captured from
//!   ([`config_fingerprint`]). Restoring into a model built from a
//!   different configuration fails with
//!   [`CheckpointError::FingerprintMismatch`] rather than producing a
//!   silently-diverging run.
//! * **Torn-line tolerant** — every line is a complete JSON object, and
//!   a proper prefix of one never parses, so a write cut short by a
//!   crash is detectable at any byte boundary. The strict parsers
//!   report [`CheckpointError::Truncated`]; [`Trace::recover`]
//!   additionally salvages every complete cycle before the tear.
//!
//! Restoring a snapshot rebuilds the model from its constructor (which
//! recreates all static structure: netlists, processes, monitors) and
//! then installs the captured dynamic state, so a restored model is
//! *structurally* a fresh model and *behaviourally* the checkpointed
//! one — the equivalence the differential test layer proves.

use std::fmt;

use la1_asm::{intern_sym, Value};
use la1_ovl::{MonitorKind, OvlDynState, OvlInstanceSnap, OvlSnap, OvlViolation, Severity};
use la1_psl::{MonitorSnap, ObSnap};
use la1_rtl::{BatchedRtlState, RtlState, LANES};

use crate::asm_model::{AsmSnap, LaAsmModel};
use crate::cycle_model::{CycleModel, RtlOvlSnap, RtlWithOvl};
use crate::json::{Field, FieldError, Footer, Frame, FrameError, Framing, Json, Record, Sections};
use crate::rtl_model::{LaRtl, LaRtlBatchDriver, LaRtlDriver, RtlBatchDriverSnap, RtlDriverSnap};
use crate::sc_model::{LaSystemC, ScBankSnap, ScSnap, ScViolation};
use crate::spec::{BankOp, LaConfig};
use crate::stimulus::{DriverSnap, DriverStats, SequenceItem};
use crate::uml::{ClockRef, ObservedMessage};
use crate::workloads::RandomMixSnap;

/// Snapshot format version written by this build.
pub const SNAPSHOT_VERSION: u64 = 1;
/// Trace format version written by this build.
pub const TRACE_VERSION: u64 = 1;

/// Why a checkpoint stream could not be loaded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// A line (other than a torn final one) is not the expected JSON
    /// shape. Lines are 1-based.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The stream ends early: a torn final line, a missing footer, or
    /// a footer whose line count disagrees with the lines present.
    Truncated,
    /// The header's format version is not the one this reader speaks.
    VersionMismatch {
        /// Version in the stream.
        found: u64,
        /// Version this build writes.
        expected: u64,
    },
    /// The snapshot was captured from a different `(level, LaConfig)`
    /// pair than the model it is being restored into.
    FingerprintMismatch {
        /// Fingerprint in the stream.
        found: u64,
        /// Fingerprint of the restore target.
        expected: u64,
    },
    /// The payload does not fit the restore target (wrong level, bank
    /// count, monitor lineup, …).
    Restore(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Malformed { line, reason } => {
                write!(f, "malformed checkpoint line {line}: {reason}")
            }
            CheckpointError::Truncated => f.write_str("truncated checkpoint stream"),
            CheckpointError::VersionMismatch { found, expected } => {
                write!(f, "checkpoint version {found}, reader speaks {expected}")
            }
            CheckpointError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:016x} does not match target {expected:016x}"
            ),
            CheckpointError::Restore(msg) => write!(f, "cannot restore checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<FrameError> for CheckpointError {
    fn from(e: FrameError) -> CheckpointError {
        match e {
            FrameError::Truncated => CheckpointError::Truncated,
            FrameError::Malformed { line, reason } => CheckpointError::Malformed { line, reason },
            FrameError::VersionMismatch { found, expected } => {
                CheckpointError::VersionMismatch { found, expected }
            }
        }
    }
}

impl From<FieldError> for CheckpointError {
    fn from(e: FieldError) -> CheckpointError {
        FrameError::from(e).into()
    }
}

/// FNV-1a over the level name and the configuration's `Debug`
/// rendering — any field added to [`LaConfig`] changes the fingerprint
/// automatically, the same scheme the farm uses to pin its journal to
/// a plan.
pub fn config_fingerprint(level: &str, cfg: &LaConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{level}|{cfg:?}").bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The level-specific payload of a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LevelSnap {
    /// ASM light-simulator state.
    Asm(AsmSnap),
    /// SystemC model state (signals, SRAM, kernel counters, PSL
    /// monitors).
    SystemC(ScSnap),
    /// Interpreted-RTL driver state.
    Rtl(RtlDriverSnap),
    /// RTL driver plus OVL bench state.
    RtlOvl(RtlOvlSnap),
    /// 64-lane batched RTL driver state.
    RtlBatch(RtlBatchDriverSnap),
}

/// A complete, restorable model state captured at a protocol-cycle
/// boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Pin to the `(level, LaConfig)` pair the state came from.
    pub fingerprint: u64,
    /// Protocol cycles completed when the state was captured.
    pub cycle: u64,
    /// The level-specific state.
    pub payload: LevelSnap,
}

impl Snapshot {
    /// The level tag written to the header (matches
    /// [`CycleModel::level`]).
    pub fn level(&self) -> &'static str {
        match &self.payload {
            LevelSnap::Asm(_) => "asm",
            LevelSnap::SystemC(_) => "systemc",
            LevelSnap::Rtl(_) => "rtl",
            LevelSnap::RtlOvl(_) => "rtl+ovl",
            LevelSnap::RtlBatch(_) => "rtl-batch",
        }
    }

    /// Captures an ASM model.
    pub fn of_asm(model: &LaAsmModel) -> Snapshot {
        Snapshot {
            fingerprint: config_fingerprint("asm", model.config()),
            cycle: model.cycles(),
            payload: LevelSnap::Asm(model.snapshot_state()),
        }
    }

    /// Captures a SystemC model at a settled cycle boundary.
    ///
    /// # Errors
    ///
    /// Fails if the event kernel is mid-delta (see
    /// [`LaSystemC::snapshot_state`]).
    pub fn of_systemc(cfg: &LaConfig, model: &LaSystemC) -> Result<Snapshot, CheckpointError> {
        Ok(Snapshot {
            fingerprint: config_fingerprint("systemc", cfg),
            cycle: model.cycles(),
            payload: LevelSnap::SystemC(model.snapshot_state().map_err(CheckpointError::Restore)?),
        })
    }

    /// Captures an interpreted-RTL driver.
    ///
    /// # Errors
    ///
    /// Fails with an armed X injection (see
    /// [`LaRtlDriver::snapshot_state`]).
    pub fn of_rtl(driver: &LaRtlDriver) -> Result<Snapshot, CheckpointError> {
        Ok(Snapshot {
            fingerprint: config_fingerprint("rtl", driver.config()),
            cycle: driver.cycles(),
            payload: LevelSnap::Rtl(driver.snapshot_state().map_err(CheckpointError::Restore)?),
        })
    }

    /// Captures an RTL+OVL model.
    ///
    /// # Errors
    ///
    /// Fails with an armed X injection.
    pub fn of_rtl_ovl(cfg: &LaConfig, model: &RtlWithOvl) -> Result<Snapshot, CheckpointError> {
        Ok(Snapshot {
            fingerprint: config_fingerprint("rtl+ovl", cfg),
            cycle: model.cycles(),
            payload: LevelSnap::RtlOvl(model.snapshot_state().map_err(CheckpointError::Restore)?),
        })
    }

    /// Captures a 64-lane batched RTL driver.
    ///
    /// # Errors
    ///
    /// Fails with an armed X injection in any lane.
    pub fn of_rtl_batch(driver: &LaRtlBatchDriver) -> Result<Snapshot, CheckpointError> {
        Ok(Snapshot {
            fingerprint: config_fingerprint("rtl-batch", driver.config()),
            cycle: driver.cycles(),
            payload: LevelSnap::RtlBatch(
                driver.snapshot_state().map_err(CheckpointError::Restore)?,
            ),
        })
    }

    fn check_pin(&self, level: &str, cfg: &LaConfig) -> Result<(), CheckpointError> {
        let expected = config_fingerprint(level, cfg);
        if self.fingerprint != expected {
            return Err(CheckpointError::FingerprintMismatch {
                found: self.fingerprint,
                expected,
            });
        }
        Ok(())
    }

    /// Builds a fresh ASM model for `cfg` and installs this state.
    ///
    /// # Errors
    ///
    /// Fails on a fingerprint or level mismatch, or when the payload
    /// does not fit the machine.
    pub fn into_asm(&self, cfg: &LaConfig) -> Result<LaAsmModel, CheckpointError> {
        self.check_pin("asm", cfg)?;
        let LevelSnap::Asm(snap) = &self.payload else {
            return Err(CheckpointError::Restore(format!(
                "snapshot level is {}, not asm",
                self.level()
            )));
        };
        let mut model = LaAsmModel::new(cfg);
        model.restore_state(snap).map_err(CheckpointError::Restore)?;
        Ok(model)
    }

    /// Builds a fresh SystemC model for `cfg` and installs this state.
    ///
    /// When the snapshot carries monitor state, the default
    /// cycle-level suite is attached first
    /// ([`LaSystemC::attach_default_monitors`]) — snapshots of models
    /// with a custom directive set must be restored by hand (build the
    /// model, attach the same directives, call
    /// [`LaSystemC::restore_state`]).
    ///
    /// # Errors
    ///
    /// Fails on a fingerprint or level mismatch, or when the monitor
    /// lineup does not match.
    pub fn into_systemc(&self, cfg: &LaConfig) -> Result<LaSystemC, CheckpointError> {
        self.check_pin("systemc", cfg)?;
        let LevelSnap::SystemC(snap) = &self.payload else {
            return Err(CheckpointError::Restore(format!(
                "snapshot level is {}, not systemc",
                self.level()
            )));
        };
        let mut model = LaSystemC::new(cfg);
        if !snap.monitors.is_empty() {
            model.attach_default_monitors();
        }
        model.restore_state(snap).map_err(CheckpointError::Restore)?;
        Ok(model)
    }

    /// Builds a fresh driver over `design` and installs this state.
    ///
    /// # Errors
    ///
    /// Fails on a fingerprint or level mismatch, or when the arena
    /// shape does not fit the design.
    pub fn into_rtl(&self, design: &LaRtl) -> Result<LaRtlDriver, CheckpointError> {
        self.check_pin("rtl", design.config())?;
        let LevelSnap::Rtl(snap) = &self.payload else {
            return Err(CheckpointError::Restore(format!(
                "snapshot level is {}, not rtl",
                self.level()
            )));
        };
        let mut driver = LaRtlDriver::new(design);
        driver
            .restore_state(snap)
            .map_err(CheckpointError::Restore)?;
        Ok(driver)
    }

    /// Builds a fresh RTL+OVL model over `design` and installs this
    /// state (the OVL suite re-attaches identically by construction).
    ///
    /// # Errors
    ///
    /// Fails on a fingerprint or level mismatch, or when the payload
    /// does not fit the design.
    pub fn into_rtl_ovl(&self, design: &LaRtl) -> Result<RtlWithOvl, CheckpointError> {
        self.check_pin("rtl+ovl", design.config())?;
        let LevelSnap::RtlOvl(snap) = &self.payload else {
            return Err(CheckpointError::Restore(format!(
                "snapshot level is {}, not rtl+ovl",
                self.level()
            )));
        };
        let mut model = RtlWithOvl::new(design);
        model.restore_state(snap).map_err(CheckpointError::Restore)?;
        Ok(model)
    }

    /// Builds a fresh batched driver over `design` and installs this
    /// state.
    ///
    /// # Errors
    ///
    /// Fails on a fingerprint or level mismatch, or when the payload
    /// does not fit the design.
    pub fn into_rtl_batch(&self, design: &LaRtl) -> Result<LaRtlBatchDriver, CheckpointError> {
        self.check_pin("rtl-batch", design.config())?;
        let LevelSnap::RtlBatch(snap) = &self.payload else {
            return Err(CheckpointError::Restore(format!(
                "snapshot level is {}, not rtl-batch",
                self.level()
            )));
        };
        let mut driver = LaRtlBatchDriver::new(design);
        driver
            .restore_state(snap)
            .map_err(CheckpointError::Restore)?;
        Ok(driver)
    }

    /// Renders the snapshot as a JSONL stream (trailing newline
    /// included). Byte-stable: `parse(to_jsonl(s)).to_jsonl()` is
    /// identical.
    pub fn to_jsonl(&self) -> String {
        let mut sections: Vec<Json> = Vec::new();
        match &self.payload {
            LevelSnap::Asm(s) => enc_asm(s, &mut sections),
            LevelSnap::SystemC(s) => enc_sc(s, &mut sections),
            LevelSnap::Rtl(s) => enc_rtl(s, &mut sections),
            LevelSnap::RtlOvl(s) => {
                enc_rtl(&s.driver, &mut sections);
                enc_ovl(&s.bench, &mut sections);
            }
            LevelSnap::RtlBatch(s) => enc_rtl_batch(s, &mut sections),
        }
        SNAPSHOT.write(
            [
                ("level", Json::str(self.level())),
                ("fingerprint", Json::fingerprint(self.fingerprint)),
                ("cycle", Json::num(self.cycle)),
            ],
            &sections,
        )
    }

    /// Parses a snapshot stream, strictly: every line must parse and
    /// the footer must be present with the right line count.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] when the stream is cut at any
    /// byte boundary or declares more sections than it holds,
    /// [`CheckpointError::VersionMismatch`] /
    /// [`CheckpointError::Malformed`] for wrong-format input. Never
    /// panics.
    pub fn parse(text: &str) -> Result<Snapshot, CheckpointError> {
        let frame = SNAPSHOT.read_strict(text)?;
        let header = frame.header.record()?;
        let mut secs = frame.sections();
        let payload = match header.str("level")? {
            "asm" => LevelSnap::Asm(dec_asm(&mut secs)?),
            "systemc" => LevelSnap::SystemC(dec_sc(&mut secs)?),
            "rtl" => LevelSnap::Rtl(dec_rtl(&mut secs)?),
            "rtl+ovl" => LevelSnap::RtlOvl(RtlOvlSnap {
                driver: dec_rtl(&mut secs)?,
                bench: dec_ovl(&mut secs)?,
            }),
            "rtl-batch" => LevelSnap::RtlBatch(dec_rtl_batch(&mut secs)?),
            other => return Err(header.unknown("level", other).into()),
        };
        secs.finish()?;
        Ok(Snapshot {
            fingerprint: header.fingerprint("fingerprint")?,
            cycle: header.get("cycle")?,
            payload,
        })
    }
}

/// A replayable recording of the pin vectors driven into a model, one
/// entry per protocol cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Pin to the `(level, LaConfig)` pair the trace drives.
    pub fingerprint: u64,
    /// The recorded operations, cycle by cycle (empty vectors are idle
    /// cycles and are preserved).
    pub cycles: Vec<Vec<BankOp>>,
}

impl Trace {
    /// An empty trace pinned to `fingerprint`.
    pub fn new(fingerprint: u64) -> Trace {
        Trace {
            fingerprint,
            cycles: Vec::new(),
        }
    }

    /// Records one cycle's operations.
    pub fn record(&mut self, ops: &[BankOp]) {
        self.cycles.push(ops.to_vec());
    }

    /// Drives every recorded cycle into `model`, in order.
    pub fn replay_into<M: CycleModel + ?Sized>(&self, model: &mut M) {
        for ops in &self.cycles {
            model.cycle(ops);
        }
    }

    /// Renders the trace as a JSONL stream (trailing newline
    /// included).
    pub fn to_jsonl(&self) -> String {
        let body: Vec<Json> = self
            .cycles
            .iter()
            .map(|ops| Json::obj([("ops", ops.encode())]))
            .collect();
        TRACE.write(
            [("fingerprint", Json::fingerprint(self.fingerprint))],
            &body,
        )
    }

    /// Parses a trace stream, strictly: the footer must be present and
    /// agree with the number of cycle lines.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] for any byte-boundary cut,
    /// [`CheckpointError::Malformed`] / `VersionMismatch` for
    /// wrong-format input. Never panics.
    pub fn parse(text: &str) -> Result<Trace, CheckpointError> {
        Trace::decode(&TRACE.read_strict(text)?).map(|(trace, _)| trace)
    }

    /// Parses a possibly-torn trace stream, salvaging every complete
    /// cycle line. Returns the trace and whether the stream was
    /// complete (footer present and consistent).
    ///
    /// # Errors
    ///
    /// Still fails when the header itself is torn or wrong — there is
    /// nothing to salvage without a header — and on a damaged line that
    /// more lines follow (damage, not a tear).
    pub fn recover(text: &str) -> Result<(Trace, bool), CheckpointError> {
        let mut frame = TRACE.read(text)?;
        if let Some(e) = frame.corrupt.take() {
            return Err(e.into());
        }
        Trace::decode(&frame)
    }

    fn decode(frame: &Frame) -> Result<(Trace, bool), CheckpointError> {
        let mut trace = Trace::new(frame.header.record()?.fingerprint("fingerprint")?);
        for line in &frame.body {
            trace.cycles.push(line.record()?.get("ops")?);
        }
        Ok((trace, frame.complete))
    }
}

/// The snapshot stream: header, one line per section, footer counting
/// the sections.
const SNAPSHOT: Framing = Framing {
    kind: "la1-snapshot",
    version: SNAPSHOT_VERSION,
    footer: Footer::Body("lines"),
};

/// The trace stream: header, one line per cycle, footer counting the
/// cycles.
const TRACE: Framing = Framing {
    kind: "la1-trace",
    version: TRACE_VERSION,
    footer: Footer::Body("cycles"),
};

// ---------------------------------------------------------------------
// stimulus records

crate::json_tagged!(BankOp, "op" {
    Read "r" { bank: "b", addr: "a" },
    Write "w" { bank: "b", addr: "a", data: "d", byte_en: "be" },
});

// The parked driver slots and queued sequencer items a stimulus
// snapshot carries.
crate::json_tagged!(SequenceItem, "it" {
    Read "r" { bank: "b", addr: "a" },
    Write "w" { bank: "b", addr: "a", data: "d", byte_en: "be" },
    Burst "burst" { bank: "b", addr: "a" },
    Idle "idle" {},
    InjectX "x" {},
    Raw "raw" (ops),
});

crate::json_record!(RandomMixSnap { rng, items });
crate::json_record!(DriverStats {
    reads_issued: "ri",
    writes_issued: "wi",
    idle_cycles: "ic",
    items_delayed: "dl",
    raw_cycles: "rc"
});
crate::json_record!(DriverSnap {
    cycle,
    last_read,
    rr_next,
    inject_x,
    pending,
    stats
});

// ---------------------------------------------------------------------
// ASM payload

/// `Value::Sym` holds a `&'static str`; the interner gives a decoded
/// name the required lifetime.
impl Field for &'static str {
    fn encode(&self) -> Json {
        Json::str(*self)
    }

    fn decode(j: &Json) -> Result<&'static str, FieldError> {
        Ok(intern_sym(&String::decode(j)?))
    }
}

crate::json_tagged!(Value, "t" {
    Bool "b" (v),
    Int "i" (v),
    Sym "s" (v),
});

fn enc_asm(s: &AsmSnap, out: &mut Vec<Json>) {
    out.push(Json::section(
        "asm",
        Json::obj([
            ("initialized", s.initialized.encode()),
            ("cycles", s.cycles.encode()),
        ]),
    ));
    out.push(Json::section(
        "values",
        Json::obj([("vals", s.values.encode())]),
    ));
}

fn dec_asm(secs: &mut Sections<'_>) -> Result<AsmSnap, CheckpointError> {
    let head = secs.next("asm")?.record()?;
    Ok(AsmSnap {
        initialized: head.get("initialized")?,
        cycles: head.get("cycles")?,
        values: secs.next("values")?.record()?.get("vals")?,
    })
}

// ---------------------------------------------------------------------
// SystemC payload

crate::json_record!(ScBankSnap {
    rd_req,
    rd_addr,
    wr_req,
    wr_addr,
    wr_data_lo,
    wr_data_hi,
    wr_byte_en,
    rv1,
    rv2,
    dv,
    out_lo,
    out_hi,
    out_par_lo,
    out_par_hi,
    perr,
    wv,
    wdone,
    ra1,
    ra2,
    word_hold,
    wa_c,
    wd_lo_c,
    wd_hi_c,
    be_c,
    hi_err,
    beat2,
    beat2_addr,
    sram
});
crate::json_record!(ScViolation { property, cycle });
crate::json_record!(ObservedMessage {
    from,
    to,
    method,
    cycle,
    clock
});

/// Decodes a fieldless enum written as its name: the one of `all`
/// whose `name` matches.
fn by_name<T: Copy>(j: &Json, all: &[T], name: impl Fn(T) -> String) -> Result<T, FieldError> {
    let found = String::decode(j)?;
    all.iter()
        .copied()
        .find(|&v| name(v) == found)
        .ok_or_else(|| FieldError::new(format!("unknown name `{found}`")))
}

impl Field for ClockRef {
    fn encode(&self) -> Json {
        Json::str(self.to_string())
    }

    fn decode(j: &Json) -> Result<ClockRef, FieldError> {
        by_name(j, &[ClockRef::K, ClockRef::KBar], |c| c.to_string())
    }
}

fn enc_sc(s: &ScSnap, out: &mut Vec<Json>) {
    let (t, ts, act, del, upd) = s.kernel;
    out.push(Json::section(
        "sc",
        Json::obj([
            ("k", s.k.encode()),
            ("k_bar", s.k_bar.encode()),
            ("trace_enabled", s.trace_enabled.encode()),
            ("parity_fault", s.parity_fault.encode()),
            ("kernel", vec![t, ts, act, del, upd].encode()),
            ("cycles", s.cycles.encode()),
            ("last_read", s.last_read.encode()),
            ("banks", s.banks.len().encode()),
            ("monitors", s.monitors.len().encode()),
        ]),
    ));
    out.extend(s.banks.iter().map(|b| Json::section("bank", b.encode())));
    out.push(Json::section(
        "trace",
        Json::obj([("msgs", s.trace.encode())]),
    ));
    out.push(Json::section(
        "sc-violations",
        Json::obj([("items", s.violations.encode())]),
    ));
    for (name, m) in &s.monitors {
        let named = Json::obj([("name", name.encode())]).extend(m.encode());
        out.push(Json::section("monitor", named));
    }
}

fn dec_sc(secs: &mut Sections<'_>) -> Result<ScSnap, CheckpointError> {
    let head = secs.next("sc")?.record()?;
    let [t, ts, act, del, upd] = head.get::<Vec<u64>>("kernel")?[..] else {
        return Err(head.error("kernel", "must have 5 counters").into());
    };
    let banks = secs.repeated("bank", head.get("banks")?)?;
    let trace = secs.next("trace")?.record()?.get("msgs")?;
    let violations = secs.next("sc-violations")?.record()?.get("items")?;
    let mut monitors = Vec::new();
    for _ in 0..head.get::<usize>("monitors")? {
        let line = secs.next("monitor")?;
        monitors.push((line.record()?.get("name")?, line.decode()?));
    }
    Ok(ScSnap {
        k: head.get("k")?,
        k_bar: head.get("k_bar")?,
        banks,
        trace,
        trace_enabled: head.get("trace_enabled")?,
        parity_fault: head.get("parity_fault")?,
        kernel: (t, ts, act, del, upd),
        monitors,
        violations,
        cycles: head.get("cycles")?,
        last_read: head.get("last_read")?,
    })
}

// ---------------------------------------------------------------------
// PSL monitor payload

crate::json_record!(MonitorSnap {
    cycle,
    failed_at,
    determined_holds,
    covered,
    obs
});

crate::json_tagged!(ObSnap, "ob" {
    Always "always" { body },
    Never "never" { sere, active },
    Eventually "eventually" { sere, active },
    SereStrong "sere-strong" { sere, active, fresh },
    Defer "defer" { remaining, strong, body },
    Until "until" { p, q, strong },
    Before "before" { p, q, strong },
    SuffixImpl "suffix-impl" { pre, active, post, overlap, persistent, fresh },
});

// ---------------------------------------------------------------------
// RTL payload

/// Decodes `n` RAM sections of `tag`, each carrying its index.
fn dec_rams<T>(
    secs: &mut Sections<'_>,
    tag: &str,
    n: usize,
    decode: impl Fn(&Record<'_>) -> Result<T, FieldError>,
) -> Result<Vec<T>, CheckpointError> {
    let mut rams = Vec::new();
    for i in 0..n {
        let r = secs.next(tag)?.record()?;
        if r.get::<usize>("idx")? != i {
            return Err(r
                .error("idx", format!("ram sections out of order at index {i}"))
                .into());
        }
        rams.push(decode(&r)?);
    }
    Ok(rams)
}

fn enc_rtl(s: &RtlDriverSnap, out: &mut Vec<Json>) {
    out.push(Json::section(
        "rtl",
        Json::obj([
            ("cycles", s.cycles.encode()),
            ("captured_lo", s.captured_lo[0].encode()),
            ("outputs", s.outputs[0].encode()),
            ("steps", s.sim.steps.encode()),
            ("evals", s.sim.evals.encode()),
            ("prev_clk", s.sim.prev_clk.encode()),
            ("rams", s.sim.rams.len().encode()),
        ]),
    ));
    out.push(Json::section(
        "rtl-vals",
        Json::obj([("vals", s.sim.vals.encode())]),
    ));
    for (i, words) in s.sim.rams.iter().enumerate() {
        out.push(Json::section(
            "rtl-ram",
            Json::obj([("idx", i.encode()), ("words", words.encode())]),
        ));
    }
}

fn dec_rtl(secs: &mut Sections<'_>) -> Result<RtlDriverSnap, CheckpointError> {
    let head = secs.next("rtl")?.record()?;
    let vals = secs.next("rtl-vals")?.record()?.get("vals")?;
    let rams = dec_rams(secs, "rtl-ram", head.get("rams")?, |r| r.get("words"))?;
    Ok(RtlDriverSnap {
        sim: RtlState {
            vals,
            rams,
            prev_clk: head.get("prev_clk")?,
            steps: head.get("steps")?,
            evals: head.get("evals")?,
        },
        cycles: head.get("cycles")?,
        captured_lo: vec![head.get("captured_lo")?],
        outputs: vec![head.get("outputs")?],
    })
}

// ---------------------------------------------------------------------
// OVL payload

impl Field for Severity {
    fn encode(&self) -> Json {
        Json::str(self.to_string())
    }

    fn decode(j: &Json) -> Result<Severity, FieldError> {
        use Severity::*;
        by_name(j, &[Note, Warning, Error, Fatal], |s| s.to_string())
    }
}

impl Field for MonitorKind {
    fn encode(&self) -> Json {
        Json::str(self.ovl_name())
    }

    fn decode(j: &Json) -> Result<MonitorKind, FieldError> {
        use MonitorKind::*;
        let all = [
            Always,
            Never,
            Proposition,
            Implication,
            Next,
            CycleSequence,
            Frame,
            Change,
            Unchange,
            OneHot,
            ZeroOneHot,
            Range,
            Time,
            EvenParity,
            Width,
        ];
        by_name(j, &all, |k| k.ovl_name().to_string())
    }
}

impl Field for OvlDynState {
    fn encode(&self) -> Json {
        let (tag, fields) = match self {
            OvlDynState::None => ("none", vec![]),
            OvlDynState::Counters(v) => ("counters", vec![("v", v.encode())]),
            OvlDynState::Threads(v) => ("threads", vec![("v", v.encode())]),
            OvlDynState::ValueCounters(v) => {
                let (vals, counts): (Vec<u64>, Vec<u32>) = v.iter().copied().unzip();
                ("valctr", vec![("v", vals.encode()), ("c", counts.encode())])
            }
            OvlDynState::Pulse(p) => ("pulse", vec![("v", p.encode())]),
        };
        Json::obj([("t", Json::str(tag))]).extend(Json::obj(fields))
    }

    fn decode(j: &Json) -> Result<OvlDynState, FieldError> {
        let r = Record::new(j)?;
        match r.str("t")? {
            "none" => Ok(OvlDynState::None),
            "counters" => Ok(OvlDynState::Counters(r.get("v")?)),
            "threads" => Ok(OvlDynState::Threads(r.get("v")?)),
            "valctr" => {
                let vals: Vec<u64> = r.get("v")?;
                let counts: Vec<u32> = r.get("c")?;
                if vals.len() != counts.len() {
                    return Err(r.error("c", "valctr arrays differ in length"));
                }
                Ok(OvlDynState::ValueCounters(
                    vals.into_iter().zip(counts).collect(),
                ))
            }
            "pulse" => Ok(OvlDynState::Pulse(r.get("v")?)),
            tag => Err(r.unknown("t", tag)),
        }
    }
}

crate::json_record!(OvlInstanceSnap {
    name,
    kind,
    failures,
    dyn_state: "dyn"
});
crate::json_record!(OvlViolation {
    monitor,
    kind,
    cycle,
    severity,
    message
});

fn enc_ovl(s: &OvlSnap, out: &mut Vec<Json>) {
    out.push(Json::section(
        "ovl",
        Json::obj([
            ("cycles", s.cycles.encode()),
            ("fatal", s.fatal.encode()),
            ("instances", s.instances.len().encode()),
        ]),
    ));
    out.extend(
        s.instances
            .iter()
            .map(|i| Json::section("ovl-inst", i.encode())),
    );
    out.push(Json::section(
        "ovl-violations",
        Json::obj([("items", s.violations.encode())]),
    ));
}

fn dec_ovl(secs: &mut Sections<'_>) -> Result<OvlSnap, CheckpointError> {
    let head = secs.next("ovl")?.record()?;
    Ok(OvlSnap {
        instances: secs.repeated("ovl-inst", head.get("instances")?)?,
        violations: secs.next("ovl-violations")?.record()?.get("items")?,
        cycles: head.get("cycles")?,
        fatal: head.get("fatal")?,
    })
}

// ---------------------------------------------------------------------
// batched RTL payload

/// A list of (value, x) packed plane pairs, one per batched state word.
type PlanePairs = Vec<(Vec<u64>, Vec<u64>)>;

/// The `a`/`b` plane arrays of a batched section.
fn enc_planes(pairs: &PlanePairs) -> Json {
    let (a, b): (Vec<Vec<u64>>, Vec<Vec<u64>>) = pairs.iter().cloned().unzip();
    Json::obj([("a", a.encode()), ("b", b.encode())])
}

fn dec_planes(r: &Record<'_>) -> Result<PlanePairs, FieldError> {
    let a: Vec<Vec<u64>> = r.get("a")?;
    let b: Vec<Vec<u64>> = r.get("b")?;
    if a.len() != b.len() {
        return Err(r.error("b", "plane arrays `a`/`b` differ in length"));
    }
    Ok(a.into_iter().zip(b).collect())
}

fn enc_rtl_batch(s: &RtlBatchDriverSnap, out: &mut Vec<Json>) {
    out.push(Json::section(
        "rtl-batch",
        Json::obj([
            ("cycles", s.cycles.encode()),
            ("captured_lo", s.captured_lo.encode()),
            ("steps", s.sim.steps.encode()),
            ("evals", s.sim.evals.encode()),
            ("prev_clk", s.sim.prev_clk.encode()),
            ("rams", s.sim.rams.len().encode()),
        ]),
    ));
    out.push(Json::section(
        "batch-outputs",
        Json::obj([("lanes", s.outputs.encode())]),
    ));
    out.push(Json::section("batch-vals", enc_planes(&s.sim.vals)));
    for (i, words) in s.sim.rams.iter().enumerate() {
        let idx = Json::obj([("idx", i.encode())]);
        out.push(Json::section("batch-ram", idx.extend(enc_planes(words))));
    }
}

fn dec_rtl_batch(secs: &mut Sections<'_>) -> Result<RtlBatchDriverSnap, CheckpointError> {
    let head = secs.next("rtl-batch")?.record()?;
    let captured_lo: Vec<Option<u64>> = head.get("captured_lo")?;
    if captured_lo.len() != LANES {
        return Err(head
            .error("captured_lo", format!("must have {LANES} lanes"))
            .into());
    }
    let outs = secs.next("batch-outputs")?.record()?;
    let outputs: Vec<Vec<Option<u64>>> = outs.get("lanes")?;
    if outputs.len() != LANES {
        return Err(outs
            .error("lanes", format!("outputs must have {LANES} lanes"))
            .into());
    }
    let vals = dec_planes(&secs.next("batch-vals")?.record()?)?;
    let rams = dec_rams(secs, "batch-ram", head.get("rams")?, dec_planes)?;
    Ok(RtlBatchDriverSnap {
        sim: BatchedRtlState {
            vals,
            rams,
            prev_clk: head.get("prev_clk")?,
            steps: head.get("steps")?,
            evals: head.get("evals")?,
        },
        cycles: head.get("cycles")?,
        captured_lo,
        outputs,
    })
}
