//! The workspace's one JSON codec. Every persisted format (snapshots,
//! traces, stage checkpoints, the farm journal) and every deterministic
//! report (detection matrices, closure and farm reports) is written and
//! read through this module, in four layers:
//!
//! * [`Json`] and [`parse`]: a small value tree and its parser. Numbers
//!   keep their source text and objects keep their key order, so 64-bit
//!   counters round-trip exactly and `parse(render(v)) == v`.
//! * [`Field`] and [`Record`]: typed fields. A `Field` type (the
//!   integers, `bool`, `String`, `Option<_>`, `Vec<_>`, pairs, and each
//!   format's own record types) has exactly one encoder and one decoder;
//!   a `Record` reads typed fields out of one object.
//! * [`Framing`]: JSONL framing shared by every persisted format. A
//!   header line (`kind`, `version`, then the format's own fields), one
//!   body line per record, and an optional `end` footer carrying a line
//!   count. [`Framing::read_strict`] accepts only a complete stream;
//!   [`Framing::read`] salvages the committed prefix of a torn one.
//! * [`Report`]: the multi-line layout of the deterministic reports.
//!
//! **Error contract.** Nothing here panics on any input. A field that
//! cannot be decoded is a [`FieldError`] naming the 1-based line and the
//! key path (`ops[2].b`); a stream that cannot be framed is a
//! [`FrameError`]: `Truncated` for a cut at any byte boundary (a proper
//! prefix of a rendered line never parses), `Malformed` with the line
//! for damage, `VersionMismatch` for another format version.

use std::fmt;

/// Escapes a string for embedding inside a JSON string literal (the
/// quotes are the caller's). Panic payloads and fault descriptions can
/// carry quotes, backslashes and newlines.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// A parsed JSON value. Numbers keep their source text (`Num`), so
/// 64-bit counters round-trip without a float detour; objects keep
/// their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source key order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (linear scan; the formats' objects are
    /// small).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, when it is a parseable `Num`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as one compact JSON line fragment (no
    /// newlines, `", "` / `": "` separators: the house style for JSONL
    /// records). Numbers render their source text verbatim and objects
    /// keep their key order, so `render(parse(s))` is byte-stable.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => {
                out.push('"');
                escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push('"');
                    escape_into(out, k);
                    out.push_str("\": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Builds a `Num` from an unsigned integer.
    pub fn num(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// Builds a `Str`.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Builds an `Obj` from `(key, value)` pairs, in order.
    pub fn obj<'k>(fields: impl IntoIterator<Item = (&'k str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A 64-bit fingerprint as the 16-hex-digit string every header
    /// carries (read back with [`Record::fingerprint`]).
    pub fn fingerprint(fp: u64) -> Json {
        Json::Str(format!("{fp:016x}"))
    }

    /// Appends the fields of `more` (an object) to this object.
    pub fn extend(mut self, more: Json) -> Json {
        if let (Json::Obj(fields), Json::Obj(rest)) = (&mut self, more) {
            fields.extend(rest);
        }
        self
    }

    /// This object without `key`.
    pub fn without(self, key: &str) -> Json {
        match self {
            Json::Obj(fields) => Json::Obj(fields.into_iter().filter(|(k, _)| k != key).collect()),
            other => other,
        }
    }

    /// A section line of a sectioned format: `{"sec": tag, ...body}`.
    pub fn section(tag: &str, body: Json) -> Json {
        Json::obj([("sec", Json::str(tag))]).extend(body)
    }
}

// ---------------------------------------------------------------------
// typed fields

/// A field that could not be decoded: where, which key, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldError {
    /// 1-based line of the record (0 when decoded outside a stream).
    pub line: usize,
    /// Key path from the record root, e.g. `ops[2].b` (empty for the
    /// record itself).
    pub key: String,
    /// What was wrong.
    pub reason: String,
}

impl FieldError {
    /// An error about the value being decoded (the enclosing
    /// [`Record::get`] fills in the key and line).
    pub fn new(reason: impl Into<String>) -> FieldError {
        FieldError {
            line: 0,
            key: String::new(),
            reason: reason.into(),
        }
    }

    /// Prefixes the key path with `seg` (a key, or `[i]` for an array
    /// element).
    fn within(mut self, seg: &str) -> FieldError {
        self.key = if self.key.is_empty() {
            seg.to_string()
        } else if self.key.starts_with('[') {
            format!("{seg}{}", self.key)
        } else {
            format!("{seg}.{}", self.key)
        };
        self
    }
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.key.is_empty() {
            f.write_str(&self.reason)
        } else {
            write!(f, "field `{}`: {}", self.key, self.reason)
        }
    }
}

impl std::error::Error for FieldError {}

/// A value type the persisted formats carry: one encoder, one decoder,
/// with `decode(&encode(v)) == v`.
pub trait Field: Sized {
    /// The value's JSON form.
    fn encode(&self) -> Json;
    /// Inverts [`Field::encode`]; never panics.
    fn decode(j: &Json) -> Result<Self, FieldError>;
}

/// Integers keep their exact decimal text; a value outside the type's
/// range is an error, never a silent truncation.
macro_rules! int_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn encode(&self) -> Json {
                Json::Num(self.to_string())
            }
            fn decode(j: &Json) -> Result<$t, FieldError> {
                let Json::Num(raw) = j else {
                    return Err(FieldError::new("expected an integer"));
                };
                raw.parse()
                    .map_err(|_| FieldError::new(format!("{raw} is not a {}", stringify!($t))))
            }
        }
    )*};
}
int_field!(u64, u32, usize, i64);

impl Field for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
    fn decode(j: &Json) -> Result<bool, FieldError> {
        match j {
            Json::Bool(b) => Ok(*b),
            _ => Err(FieldError::new("expected a bool")),
        }
    }
}

impl Field for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }
    fn decode(j: &Json) -> Result<String, FieldError> {
        match j {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(FieldError::new("expected a string")),
        }
    }
}

/// A pass-through for values a format carries verbatim.
impl Field for Json {
    fn encode(&self) -> Json {
        self.clone()
    }
    fn decode(j: &Json) -> Result<Json, FieldError> {
        Ok(j.clone())
    }
}

/// `None` is `null`.
impl<T: Field> Field for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, Field::encode)
    }
    fn decode(j: &Json) -> Result<Option<T>, FieldError> {
        match j {
            Json::Null => Ok(None),
            v => T::decode(v).map(Some),
        }
    }
}

impl<T: Field> Field for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(Field::encode).collect())
    }
    fn decode(j: &Json) -> Result<Vec<T>, FieldError> {
        let Json::Arr(items) = j else {
            return Err(FieldError::new("expected an array"));
        };
        items
            .iter()
            .enumerate()
            .map(|(i, v)| T::decode(v).map_err(|e| e.within(&format!("[{i}]"))))
            .collect()
    }
}

/// A pair is a two-element array.
impl<A: Field, B: Field> Field for (A, B) {
    fn encode(&self) -> Json {
        Json::Arr(vec![self.0.encode(), self.1.encode()])
    }
    fn decode(j: &Json) -> Result<(A, B), FieldError> {
        match j {
            Json::Arr(items) if items.len() == 2 => Ok((
                A::decode(&items[0]).map_err(|e| e.within("[0]"))?,
                B::decode(&items[1]).map_err(|e| e.within("[1]"))?,
            )),
            _ => Err(FieldError::new("expected a pair")),
        }
    }
}

/// An object of `value`'s listed fields, in the listed order. The key
/// is the field name unless given as `field: "key"`.
#[macro_export]
macro_rules! json_fields {
    ($value:expr, { $($field:ident $(: $key:literal)?),* $(,)? }) => {
        $crate::json::Json::obj([$((
            $crate::json_fields!(@key $field $($key)?),
            $crate::json::Field::encode(&$value.$field),
        )),*])
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
}

/// Implements [`Field`] for a struct as the object of
/// [`json_fields!`]; every field must be listed.
#[macro_export]
macro_rules! json_record {
    ($ty:ty { $($field:ident $(: $key:literal)?),* $(,)? }) => {
        impl $crate::json::Field for $ty {
            fn encode(&self) -> $crate::json::Json {
                $crate::json_fields!(self, { $($field $(: $key)?),* })
            }
            fn decode(j: &$crate::json::Json) -> Result<Self, $crate::json::FieldError> {
                let r = $crate::json::Record::new(j)?;
                Ok(Self { $($field: r.get($crate::json_fields!(@key $field $($key)?))?),* })
            }
        }
    };
}

/// Implements [`Field`] for an enum as an object tagged by `$tag`:
/// `{"<tag>": "<name>", ...fields}`. A struct or unit variant lists its
/// fields with [`json_fields!`] keys; a one-field tuple variant names its
/// field, which is also its key: `Raw "raw" (ops)`.
#[macro_export]
macro_rules! json_tagged {
    (@pat $v:ident, { $($f:ident $(: $k:literal)?),* $(,)? }) => { Self::$v { $($f),* } };
    (@pat $v:ident, ($f:ident)) => { Self::$v($f) };
    (@enc { $($f:ident $(: $k:literal)?),* $(,)? }) => {
        $crate::json::Json::obj([$((
            $crate::json_fields!(@key $f $($k)?),
            $crate::json::Field::encode($f),
        )),*])
    };
    (@enc ($f:ident)) => {
        $crate::json::Json::obj([(stringify!($f), $crate::json::Field::encode($f))])
    };
    (@dec $r:ident, $v:ident, { $($f:ident $(: $k:literal)?),* $(,)? }) => {
        Self::$v { $($f: $r.get($crate::json_fields!(@key $f $($k)?))?),* }
    };
    (@dec $r:ident, $v:ident, ($f:ident)) => { Self::$v($r.get(stringify!($f))?) };
    ($ty:ty, $tag:literal { $($var:ident $name:literal $fields:tt),* $(,)? }) => {
        impl $crate::json::Field for $ty {
            fn encode(&self) -> $crate::json::Json {
                match self {$(
                    $crate::json_tagged!(@pat $var, $fields) => {
                        $crate::json::Json::obj([($tag, $crate::json::Json::str($name))])
                            .extend($crate::json_tagged!(@enc $fields))
                    }
                )*}
            }
            fn decode(j: &$crate::json::Json) -> Result<Self, $crate::json::FieldError> {
                let r = $crate::json::Record::new(j)?;
                match r.str($tag)? {
                    $($name => Ok($crate::json_tagged!(@dec r, $var, $fields)),)*
                    other => Err(r.unknown($tag, other)),
                }
            }
        }
    };
}

/// A name-keyed map as rows `{"name": key, ...value fields}` (the value
/// encodes as an object), in key order.
impl<V: Field> Field for std::collections::BTreeMap<String, V> {
    fn encode(&self) -> Json {
        let row =
            |(name, v): (&String, &V)| Json::obj([("name", name.encode())]).extend(v.encode());
        Json::Arr(self.iter().map(row).collect())
    }
    fn decode(j: &Json) -> Result<Self, FieldError> {
        let rows: Vec<Json> = Field::decode(j)?;
        let entry = |row: &Json| Ok((Record::new(row)?.get("name")?, V::decode(row)?));
        rows.iter()
            .enumerate()
            .map(|(i, row)| entry(row).map_err(|e: FieldError| e.within(&format!("[{i}]"))))
            .collect()
    }
}

/// Typed reads over one JSON object. Errors carry the record's line and
/// the key.
#[derive(Debug, Clone, Copy)]
pub struct Record<'a> {
    line: usize,
    fields: &'a [(String, Json)],
}

impl<'a> Record<'a> {
    /// A record over `j`, which must be an object.
    pub fn new(j: &'a Json) -> Result<Record<'a>, FieldError> {
        match j {
            Json::Obj(fields) => Ok(Record { line: 0, fields }),
            _ => Err(FieldError::new("expected an object")),
        }
    }

    fn locate(&self, e: FieldError) -> FieldError {
        FieldError {
            line: self.line,
            ..e
        }
    }

    /// The raw value of `key`.
    fn raw(&self, key: &str) -> Result<&'a Json, FieldError> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| self.error(key, "missing"))
    }

    /// `key`, decoded as `T`.
    pub fn get<T: Field>(&self, key: &str) -> Result<T, FieldError> {
        T::decode(self.raw(key)?).map_err(|e| self.locate(e.within(key)))
    }

    /// `key` as a borrowed string (the enum tags).
    pub fn str(&self, key: &str) -> Result<&'a str, FieldError> {
        match self.raw(key)? {
            Json::Str(s) => Ok(s),
            _ => Err(self.error(key, "expected a string")),
        }
    }

    /// `key` as a 16-hex-digit fingerprint ([`Json::fingerprint`]).
    pub fn fingerprint(&self, key: &str) -> Result<u64, FieldError> {
        let s = self.str(key)?;
        (s.len() == 16)
            .then(|| u64::from_str_radix(s, 16).ok())
            .flatten()
            .ok_or_else(|| self.error(key, "not a 16-digit hex fingerprint"))
    }

    /// An error about `key` of this record.
    pub fn error(&self, key: &str, reason: impl Into<String>) -> FieldError {
        self.locate(FieldError::new(reason).within(key))
    }

    /// An error about an unknown tag in `key`.
    pub fn unknown(&self, key: &str, tag: &str) -> FieldError {
        self.error(key, format!("unknown tag `{tag}`"))
    }
}

// ---------------------------------------------------------------------
// JSONL framing

/// How a JSONL format closes its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footer {
    /// No footer: an open-ended, append-only stream (the farm journal).
    None,
    /// `{"end": true, "<key>": n}`, `n` counting the body lines.
    Body(&'static str),
    /// `{"end": true, "<key>": n}`, `n` counting every line, header and
    /// footer included.
    Total(&'static str),
}

impl Footer {
    /// The footer's key and count for a stream of `body` body lines.
    fn count(self, body: usize) -> Option<(&'static str, u64)> {
        match self {
            Footer::None => None,
            Footer::Body(key) => Some((key, body as u64)),
            Footer::Total(key) => Some((key, body as u64 + 2)),
        }
    }
}

/// A JSONL format: its header `kind`, its version and its footer.
#[derive(Debug, Clone, Copy)]
pub struct Framing {
    /// The header's `kind` tag.
    pub kind: &'static str,
    /// The format version this build writes and reads.
    pub version: u64,
    /// How the stream is closed.
    pub footer: Footer,
}

/// Why a JSONL stream could not be framed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The stream ends early: a torn final line, a missing footer, or a
    /// footer whose count disagrees with the lines present.
    Truncated,
    /// A line is not the expected shape (1-based line number).
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The header's version is not the one this reader speaks.
    VersionMismatch {
        /// Version in the stream.
        found: u64,
        /// Version this build writes.
        expected: u64,
    },
}

impl From<FieldError> for FrameError {
    fn from(e: FieldError) -> FrameError {
        FrameError::Malformed {
            line: e.line,
            reason: e.to_string(),
        }
    }
}

/// One complete line of a stream.
#[derive(Debug, Clone)]
pub struct Line {
    /// 1-based line number.
    pub no: usize,
    /// Byte offset just past this line's newline.
    pub end: usize,
    /// The parsed line.
    pub value: Json,
}

impl Line {
    /// The line as a record.
    pub fn record(&self) -> Result<Record<'_>, FieldError> {
        let mut r = Record::new(&self.value).map_err(|e| FieldError { line: self.no, ..e })?;
        r.line = self.no;
        Ok(r)
    }

    /// The line decoded as `T`.
    pub fn decode<T: Field>(&self) -> Result<T, FieldError> {
        T::decode(&self.value).map_err(|e| FieldError { line: self.no, ..e })
    }
}

/// A framed stream: the header, the body lines of the committed
/// prefix, and how the stream ended.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The header line (kind and version already checked).
    pub header: Line,
    /// Body lines in order, up to the footer or the first torn or
    /// unparseable line.
    pub body: Vec<Line>,
    /// Whether the stream closed properly: the footer is present, last,
    /// and its count agrees. For [`Footer::None`] streams: no
    /// unparseable line was met.
    pub complete: bool,
    /// An unparseable line that more lines follow: damage rather than
    /// a tear (salvage stopped there).
    pub corrupt: Option<FrameError>,
}

impl Frame {
    /// Sequential reader over the body's `sec`-tagged lines.
    pub fn sections(&self) -> Sections<'_> {
        Sections {
            lines: self.body.iter(),
        }
    }
}

/// Sequential reader over `{"sec": tag, ...}` body lines.
#[derive(Debug)]
pub struct Sections<'a> {
    lines: std::slice::Iter<'a, Line>,
}

impl<'a> Sections<'a> {
    /// The next line, which must be a `want` section.
    ///
    /// # Errors
    ///
    /// `Truncated` when the body is exhausted, `Malformed` for another
    /// section.
    pub fn next(&mut self, want: &str) -> Result<&'a Line, FrameError> {
        let line = self.lines.next().ok_or(FrameError::Truncated)?;
        match line.value.get("sec").and_then(Json::as_str) {
            Some(sec) if sec == want => Ok(line),
            found => Err(FrameError::Malformed {
                line: line.no,
                reason: format!("expected section `{want}`, found {found:?}"),
            }),
        }
    }

    /// `n` consecutive `tag` sections decoded as `T`. The count comes
    /// from the stream, so nothing is preallocated from it: a count
    /// larger than the body runs out of lines instead.
    pub fn repeated<T: Field>(&mut self, tag: &str, n: usize) -> Result<Vec<T>, FrameError> {
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.next(tag)?.decode()?);
        }
        Ok(out)
    }

    /// Checks that every body line was consumed.
    pub fn finish(mut self) -> Result<(), FrameError> {
        match self.lines.next() {
            None => Ok(()),
            Some(line) => Err(FrameError::Malformed {
                line: line.no,
                reason: "trailing payload lines".to_string(),
            }),
        }
    }
}

impl Framing {
    /// The header line (newline-terminated): `kind`, `version`, then
    /// `fields` in order.
    pub fn header<'k>(&self, fields: impl IntoIterator<Item = (&'k str, Json)>) -> String {
        let mut header = vec![
            ("kind", Json::str(self.kind)),
            ("version", Json::num(self.version)),
        ];
        header.extend(fields);
        let mut out = Json::obj(header).render();
        out.push('\n');
        out
    }

    /// A complete stream: the header, one line per body record, then
    /// the footer.
    pub fn write<'k>(
        &self,
        header: impl IntoIterator<Item = (&'k str, Json)>,
        body: &[Json],
    ) -> String {
        let mut out = self.header(header);
        for line in body {
            out.push_str(&line.render());
            out.push('\n');
        }
        if let Some((key, n)) = self.footer.count(body.len()) {
            out.push_str(&Json::obj([("end", Json::Bool(true)), (key, Json::num(n))]).render());
            out.push('\n');
        }
        out
    }

    /// Reads a complete stream: every line newline-terminated and
    /// parseable, the footer present, last and consistent.
    ///
    /// # Errors
    ///
    /// `Truncated` for a cut at any byte boundary, `Malformed` /
    /// `VersionMismatch` for damage or another format.
    pub fn read_strict(&self, text: &str) -> Result<Frame, FrameError> {
        if !text.ends_with('\n') {
            return Err(FrameError::Truncated);
        }
        let mut frame = self.read(text)?;
        if let Some(e) = frame.corrupt.take() {
            return Err(e);
        }
        if !frame.complete {
            return Err(FrameError::Truncated);
        }
        Ok(frame)
    }

    /// Salvaging read: keeps the committed prefix of a possibly torn
    /// stream. A final line without its newline is dropped; body lines
    /// are read up to the footer or the first unparseable line.
    ///
    /// # Errors
    ///
    /// Only for the header: `Truncated` when it is torn (or is the only
    /// line and does not parse), `Malformed` for a damaged or foreign
    /// header, `VersionMismatch` for another version. A footer followed
    /// by more lines is `Malformed`.
    pub fn read(&self, text: &str) -> Result<Frame, FrameError> {
        let mut lines = Vec::new();
        let mut end = 0;
        for (i, chunk) in text.split_inclusive('\n').enumerate() {
            end += chunk.len();
            let Some(body) = chunk.strip_suffix('\n') else {
                break; // torn tail
            };
            lines.push((i + 1, end, body));
        }
        let Some(&(_, header_end, header_text)) = lines.first() else {
            return Err(FrameError::Truncated);
        };
        let header = match parse(header_text) {
            Ok(h) => h,
            Err(_) if lines.len() == 1 => return Err(FrameError::Truncated),
            Err(e) => {
                return Err(FrameError::Malformed {
                    line: 1,
                    reason: format!("unparseable header: {e}"),
                })
            }
        };
        self.check_header(&header)?;
        let mut frame = Frame {
            header: Line {
                no: 1,
                end: header_end,
                value: header,
            },
            body: Vec::new(),
            complete: self.footer == Footer::None,
            corrupt: None,
        };
        for &(no, end, text) in &lines[1..] {
            let last = no == lines.len();
            let value = match parse(text) {
                Ok(v) => v,
                Err(e) => {
                    if !last {
                        frame.corrupt = Some(FrameError::Malformed {
                            line: no,
                            reason: e.to_string(),
                        });
                    }
                    frame.complete = false;
                    break;
                }
            };
            let footer = self.footer.count(frame.body.len());
            if let (Some((key, want)), Some(Json::Bool(true))) = (footer, value.get("end")) {
                if !last {
                    return Err(FrameError::Malformed {
                        line: no,
                        reason: "footer before end of stream".to_string(),
                    });
                }
                frame.complete = value.get(key).and_then(Json::as_u64) == Some(want);
                break;
            }
            frame.body.push(Line { no, end, value });
        }
        Ok(frame)
    }

    fn check_header(&self, header: &Json) -> Result<(), FrameError> {
        let malformed = |reason: String| FrameError::Malformed { line: 1, reason };
        if header.get("kind").and_then(Json::as_str) != Some(self.kind) {
            return Err(malformed(format!("not a `{}` header", self.kind)));
        }
        let found = header
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| malformed("missing version".to_string()))?;
        if found != self.version {
            return Err(FrameError::VersionMismatch {
                found,
                expected: self.version,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// reports

/// One value of a [`Report`].
#[derive(Debug, Clone)]
enum Cell {
    Value(Json),
    Rows(Vec<Json>),
    Nested(Report),
}

/// A deterministic multi-line report: top-level fields one per line,
/// named row arrays one element per line, every other value in the
/// compact [`Json::render`] form; a nested report indents one level.
///
/// ```text
/// {
///   "banks": 2,
///   "unhit": ["a", "b"],
///   "rows": [
///     {"bin": "a", "hits": 0},
///     {"bin": "b", "hits": 3}
///   ]
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Report {
    fields: Vec<(String, Cell)>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Appends `key: value`.
    pub fn field<T: Field>(mut self, key: &str, value: &T) -> Report {
        self.fields
            .push((key.to_string(), Cell::Value(value.encode())));
        self
    }

    /// Appends every field of `obj` (an object) in order.
    pub fn fields(mut self, obj: Json) -> Report {
        if let Json::Obj(fields) = obj {
            self.fields
                .extend(fields.into_iter().map(|(k, v)| (k, Cell::Value(v))));
        }
        self
    }

    /// Appends a row array, one element per line.
    pub fn rows(mut self, key: &str, rows: impl IntoIterator<Item = Json>) -> Report {
        self.fields
            .push((key.to_string(), Cell::Rows(rows.into_iter().collect())));
        self
    }

    /// Appends a nested report.
    pub fn nested(mut self, key: &str, report: Report) -> Report {
        self.fields.push((key.to_string(), Cell::Nested(report)));
        self
    }

    /// Renders the report, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let outer = "  ".repeat(depth);
        let pad = format!("{outer}  ");
        out.push_str("{\n");
        for (i, (key, cell)) in self.fields.iter().enumerate() {
            out.push_str(&pad);
            out.push('"');
            escape_into(out, key);
            out.push_str("\": ");
            match cell {
                Cell::Value(v) => v.render_into(out),
                Cell::Rows(rows) => {
                    out.push_str("[\n");
                    if rows.is_empty() {
                        out.push_str(&outer);
                    }
                    for (j, row) in rows.iter().enumerate() {
                        if j > 0 {
                            out.push_str(",\n");
                        }
                        out.push_str(&pad);
                        out.push_str("  ");
                        row.render_into(out);
                    }
                    out.push('\n');
                    out.push_str(&pad);
                    out.push(']');
                }
                Cell::Nested(report) => report.render_into(out, depth + 1),
            }
            if i + 1 < self.fields.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&outer);
        out.push('}');
    }
}

// ---------------------------------------------------------------------
// parser

/// Nesting depth beyond which [`parse`] refuses instead of recursing.
const MAX_DEPTH: usize = 128;

/// Parses one JSON value; trailing content (other than whitespace) is
/// an error. Errors carry the byte offset they were detected at. Never
/// panics: nesting deeper than 128 levels is an error, not a stack
/// overflow.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

/// A parse failure: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: &'static str,
    /// Byte offset into the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.nested(Parser::array),
            Some(b'{') => self.nested(Parser::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        inner: fn(&mut Parser<'a>) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        let v = inner(self);
        self.depth -= 1;
        v
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        // ASCII only, so both ends are char boundaries
        Ok(Json::Num(self.src[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c =
                                    0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(c).ok_or_else(|| self.err("bad code point"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("bad code point"))?
                            };
                            out.push(c);
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // copy the run up to the next quote or escape; both
                    // are ASCII, so the run ends on a char boundary
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    let run = self.src.get(start..self.pos);
                    out.push_str(run.ok_or_else(|| self.err("invalid UTF-8"))?);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let hex = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a \"quoted\" \\ back\nslash\ttab \u{1} end";
        let rendered = format!("{{\"k\": \"{}\"}}", escape(nasty));
        let parsed = parse(&rendered).expect("escaped string parses");
        assert_eq!(parsed.get("k").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn parses_scalars_arrays_and_objects() {
        let v = parse(
            "{\"n\": null, \"t\": true, \"u\": 18446744073709551615, \
             \"neg\": -3, \"f\": 1.5, \"a\": [1, \"two\", []], \"o\": {\"x\": 0}}",
        )
        .expect("valid JSON");
        assert_eq!(v.get("n"), Some(&Json::Null));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("u").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("neg").and_then(Json::as_u64), None);
        assert_eq!(v.get("a").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(
            v.get("o").and_then(|o| o.get("x")).and_then(Json::as_u64),
            Some(0)
        );
    }

    #[test]
    fn rejects_torn_prefixes() {
        // every proper prefix of a journal-style line must fail to
        // parse — the torn-line recovery guarantee rests on this
        let line = "{\"job\": 3, \"result\": {\"kind\": \"closure\", \"bins\": [{\"b\": 1}]}}";
        for cut in 1..line.len() {
            assert!(
                parse(&line[..cut]).is_err(),
                "prefix of length {cut} unexpectedly parsed"
            );
        }
        assert!(parse(line).is_ok());
    }

    #[test]
    fn render_round_trips_and_canonicalizes() {
        let source = "{\"n\": null, \"t\": true, \"u\": 18446744073709551615, \
                      \"s\": \"a \\\"b\\\"\\n\", \"a\": [1, [], {\"x\": 0}]}";
        let v = parse(source).expect("valid JSON");
        let rendered = v.render();
        assert_eq!(parse(&rendered).expect("render parses"), v);
        // canonical: rendering the re-parse is byte-stable
        assert_eq!(parse(&rendered).expect("render parses").render(), rendered);
        assert_eq!(Json::num(7).render(), "7");
        assert_eq!(vec![1u64, 2].encode().render(), "[1, 2]");
    }

    #[test]
    fn parses_unicode_escapes() {
        let v = parse("\"\\u00e9\\ud83d\\ude00\"").expect("unicode escapes");
        assert_eq!(v.as_str(), Some("é😀"));
        assert!(parse("\"\\ud83d\"").is_err(), "lone surrogate must fail");
        assert!(parse("\"\\u00\"").is_err(), "short escape must fail");
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        assert_eq!(parse(&deep).unwrap_err().message, "nesting too deep");
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn fields_round_trip_and_name_the_failing_key() {
        let j = Json::obj([
            ("n", 7u64.encode()),
            ("o", Some(3u32).encode()),
            ("z", None::<u64>.encode()),
            ("v", vec![(1u64, 2u32), (3, 4)].encode()),
            ("s", String::from("x").encode()),
            ("i", (-5i64).encode()),
        ]);
        let r = Record::new(&j).unwrap();
        assert_eq!(r.get::<u64>("n"), Ok(7));
        assert_eq!(r.get::<Option<u32>>("o"), Ok(Some(3)));
        assert_eq!(r.get::<Option<u64>>("z"), Ok(None));
        assert_eq!(r.get::<Vec<(u64, u32)>>("v"), Ok(vec![(1, 2), (3, 4)]));
        assert_eq!(r.get::<String>("s").as_deref(), Ok("x"));
        assert_eq!(r.get::<i64>("i"), Ok(-5));
        assert_eq!(r.get::<u64>("gone").unwrap_err().key, "gone");
        assert_eq!(
            r.get::<bool>("n").unwrap_err().to_string(),
            "field `n`: expected a bool"
        );

        // narrowing never truncates; the error names the element
        let wide = parse("{\"v\": [[1, 4294967299]]}").unwrap();
        let err = Record::new(&wide)
            .unwrap()
            .get::<Vec<(u64, u32)>>("v")
            .unwrap_err();
        assert_eq!(err.key, "v[0][1]");
        assert_eq!(err.reason, "4294967299 is not a u32");
    }

    const FRAMED: Framing = Framing {
        kind: "demo",
        version: 1,
        footer: Footer::Body("lines"),
    };

    #[test]
    fn framing_round_trips_and_types_every_cut() {
        let body = [
            Json::obj([("a", Json::num(1))]),
            Json::obj([("a", Json::num(2))]),
        ];
        let text = FRAMED.write([("fingerprint", Json::fingerprint(0xabc))], &body);
        assert_eq!(
            text,
            "{\"kind\": \"demo\", \"version\": 1, \"fingerprint\": \"0000000000000abc\"}\n\
             {\"a\": 1}\n{\"a\": 2}\n{\"end\": true, \"lines\": 2}\n"
        );
        let frame = FRAMED.read_strict(&text).unwrap();
        assert_eq!(
            frame.header.record().unwrap().fingerprint("fingerprint"),
            Ok(0xabc)
        );
        assert_eq!(frame.body.len(), 2);
        assert_eq!(frame.body[1].no, 3);
        for cut in 0..text.len() {
            assert!(
                matches!(
                    FRAMED.read_strict(&text[..cut]),
                    Err(FrameError::Truncated | FrameError::Malformed { .. })
                ),
                "strict read accepted a {cut}-byte prefix"
            );
            // salvage keeps exactly the complete body lines of the prefix
            if let Ok(frame) = FRAMED.read(&text[..cut]) {
                assert!(frame.body.iter().all(|l| l.end <= cut));
                assert!(!frame.complete);
            }
        }
        assert!(matches!(
            FRAMED.read_strict(&text.replace("\"version\": 1", "\"version\": 2")),
            Err(FrameError::VersionMismatch {
                found: 2,
                expected: 1
            })
        ));
        assert!(matches!(
            FRAMED.read_strict(&text.replace("demo", "other")),
            Err(FrameError::Malformed { line: 1, .. })
        ));
        // damage in the middle is not a tear
        let damaged = text.replace("{\"a\": 1}", "{\"a\": ");
        assert!(matches!(
            FRAMED.read_strict(&damaged),
            Err(FrameError::Malformed { line: 2, .. })
        ));
        assert!(FRAMED.read(&damaged).unwrap().corrupt.is_some());
    }

    #[test]
    fn report_layout() {
        let inner = Report::new().field("x", &1u64).rows("r", Vec::new());
        let report = Report::new()
            .field("kind", &String::from("demo"))
            .fields(Json::obj([("s", vec![String::from("a")].encode())]))
            .rows(
                "rows",
                [
                    Json::obj([("k", Json::num(1))]),
                    Json::obj([("k", Json::num(2))]),
                ],
            )
            .nested("inner", inner);
        assert_eq!(
            report.render(),
            "{\n  \"kind\": \"demo\",\n  \"s\": [\"a\"],\n  \"rows\": [\n    {\"k\": 1},\n    \
             {\"k\": 2}\n  ],\n  \"inner\": {\n    \"x\": 1,\n    \"r\": [\n  \n    ]\n  }\n}\n"
        );
    }
}
