//! The JSON wire format for service traffic: a dependency-free codec
//! for [`Instance`] requests, [`Solution`] responses and [`SolveError`]
//! bodies.
//!
//! The build environment is offline, so there is no serde; this module
//! hand-rolls the small JSON subset the `mst-serve` front-end needs:
//!
//! * [`Json`] — a parsed JSON value with a strict recursive-descent
//!   parser ([`Json::parse`], depth-capped so adversarial nesting cannot
//!   blow the stack) and a compact serializer (`to_string()`, via
//!   [`fmt::Display`]). Both are one pass, linear in the input: strings
//!   are copied run by run (each stretch between escapes is validated
//!   and copied once, in either direction), and plain integers skip
//!   float parsing and formatting;
//! * [`instance_to_json`] / [`instance_from_json`] — an instance travels
//!   as `{"platform": "<instance text format>", "tasks": N}`, reusing
//!   the existing [`crate::Platform::parse`]/[`crate::Platform::to_text`]
//!   round-trip for the topology itself;
//! * [`solution_to_json`] — makespan, scheduled-task count and (for
//!   witnessed solutions) the full schedule, task by task, **losslessly**:
//!   every task carries its complete communication vector and work time,
//!   so clients can reconstruct and re-verify the witness. The schedule
//!   is written once, as text (below);
//! * [`solution_from_text`] — the full inverse: chain, spider (with or
//!   without a recorded cover) and tree witnesses, relaxations and
//!   makespan-only solutions all decode back to the identical
//!   [`Solution`], read from the text in one pass that builds no
//!   [`Json`] tree — the persistent result store rides on this;
//!   [`solution_from_json`] decodes a parsed body through it;
//! * [`read_object`] — the members of an object, each parsed or skipped
//!   where it stands, for readers that need only some of them (the
//!   store's frame check, which skips a solution with [`Member::skip`]);
//! * [`tree_schedule_to_json`] / [`tree_schedule_from_json`] — the
//!   round-trip for the universal tree witness format, validating types
//!   without trusting the payload (feasibility stays the oracle's job);
//! * [`error_to_json`] / [`error_kind`] — every [`SolveError`] becomes a
//!   structured `{"error": {"kind": ..., "message": ...}}` body, so
//!   clients can dispatch on a stable kind string instead of scraping
//!   the human-readable message.
//!
//! # One grammar
//!
//! The JSON grammar is stated once. [`Json::parse`], the skipping scan
//! behind [`Member::skip`] and the one-pass readers walk arrays and
//! objects with the same item and member loops, and read string literals
//! with one scanner, which copies a string's value only for a reader that
//! keeps it. So skipping a value checks exactly what parsing it checks,
//! with the same depth cap and the same error messages; there is no
//! separate validator.
//!
//! # Schedules are written once, as text
//!
//! A schedule is most of a solution's bytes: one object per task, with
//! its emission times. [`solution_to_json`] does not build it as a
//! `Json` tree, with a `String` per member key and a `Vec` per task, only
//! to print the tree and drop it. A private schedule writer prints it
//! from the [`Solution`] in one pass into a [`Json::Raw`]: JSON text that
//! prints verbatim, so a `/solve` reply, a `/batch` NDJSON line and a
//! store frame each copy it, and that is parsed, once, only if `==` or an
//! accessor looks inside. The writer's bytes are the tree's: both print
//! each integer with one printer, and a differential test pins the writer
//! to the tree-building encoder it replaced. The seven top-level members
//! stay an ordinary [`Json::Obj`]: they are a few values per solution,
//! and callers append members of their own to it (`"cached"`,
//! `"feasible"`, an NDJSON line's `"index"`).
//!
//! ```
//! use mst_api::wire::{instance_from_json, solution_to_json, Json};
//! use mst_api::SolverRegistry;
//!
//! let body = r#"{"platform": "chain\n2 3\n3 5\n", "tasks": 5}"#;
//! let instance = instance_from_json(&Json::parse(body)?)?;
//! let solution = SolverRegistry::global().solve("optimal", &instance)?;
//! let reply = solution_to_json(&solution);
//! assert_eq!(reply.get("makespan").and_then(Json::as_i64), Some(14));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::error::SolveError;
use crate::instance::Instance;
use crate::platform::Platform;
use crate::solution::{ScheduleRepr, Solution};
use mst_platform::{NodeId, Time};
use mst_schedule::{
    ChainSchedule, CommVector, SpiderSchedule, SpiderTask, TaskAssignment, TreeSchedule, TreeTask,
};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::OnceLock;

/// Deepest permitted nesting while parsing — adversarial `[[[[...]]]]`
/// bodies fail fast instead of exhausting the stack.
const MAX_DEPTH: usize = 64;

/// A parse or decode failure, with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    message: String,
}

impl WireError {
    /// A decode failure with the given human-readable reason. Public so
    /// downstream codecs (the `mst-store` record format) can reuse the
    /// error type for their own envelope fields.
    pub fn new(message: impl Into<String>) -> WireError {
        WireError { message: message.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for WireError {}

/// A JSON value: the wire representation of every request and response
/// body.
///
/// Objects preserve insertion order (they are association lists, not
/// maps) so serialized bodies are deterministic.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
    /// JSON text this module wrote, such as the schedule of
    /// [`solution_to_json`]. It prints verbatim; `==` and the accessors
    /// answer as they would on [`Json::parse`] of the text.
    Raw(Box<RawJson>),
}

/// The payload of [`Json::Raw`]: JSON text written by this module, which
/// alone builds one, so the text is always valid JSON. It is parsed at
/// most once, the first time `==` or an accessor looks inside it.
#[derive(Debug, Clone)]
pub struct RawJson {
    text: String,
    parsed: OnceLock<Json>,
}

impl RawJson {
    /// The text's value, parsed on first use.
    fn value(&self) -> &Json {
        self.parsed.get_or_init(|| Json::parse(&self.text).expect("wire writes valid JSON"))
    }
}

impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self.resolved(), other.resolved()) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Num(a), Json::Num(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            _ => false,
        }
    }
}

impl Json {
    /// The value itself, or a [`Json::Raw`]'s text parsed; never a `Raw`,
    /// since [`Json::parse`] builds none.
    fn resolved(&self) -> &Json {
        match self {
            Json::Raw(raw) => raw.value(),
            value => value,
        }
    }

    /// Parses `text` as a single JSON value; trailing non-whitespace is
    /// an error, as is nesting deeper than an internal cap.
    pub fn parse(text: &str) -> Result<Json, WireError> {
        let mut pos = 0;
        let value = parse_value(text, &mut pos, 0)?;
        end_of_text(text.as_bytes(), pos)?;
        Ok(value)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self.resolved() {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self.resolved() {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an integer, if it is one exactly.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().and_then(exact_int)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self.resolved() {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self.resolved() {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self.resolved() {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Object member lookup (first match; `None` on non-objects too).
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Builds an object from `(key, value)` pairs, preserving order.
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An integer number value (every count and makespan on the wire).
    pub fn int(n: i64) -> Json {
        Json::Num(n as f64)
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl fmt::Display for Json {
    /// Compact serialization: no whitespace, keys in insertion order,
    /// integral numbers without a fractional part.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write_number(f, *n),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    item.fmt(f)?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, key)?;
                    f.write_str(":")?;
                    value.fmt(f)?;
                }
                f.write_str("}")
            }
            Json::Raw(raw) => f.write_str(&raw.text),
        }
    }
}

/// Writes the number `n` as [`Json::Num`] prints it: an exact integer
/// with [`write_int`], any other value in `f64`'s `{}` form.
fn write_number(out: &mut impl fmt::Write, n: f64) -> fmt::Result {
    match exact_int(n) {
        Some(n) => write_int(out, n),
        None => write!(out, "{n}"),
    }
}

/// Writes `n` in decimal from a stack buffer, a digit at a time: the
/// bytes `write!` would give, without going through the formatting
/// machinery.
fn write_int(out: &mut impl fmt::Write, n: i64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut rest = n.unsigned_abs();
    loop {
        i -= 1;
        buf[i] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        i -= 1;
        buf[i] = b'-';
    }
    buf[i..].iter().try_for_each(|&d| out.write_char(d as char))
}

/// Whether a string byte must be escaped on the wire. Every such byte is
/// ASCII, so the runs between them end on scalar boundaries.
fn needs_escape(b: u8) -> bool {
    matches!(b, b'"' | b'\\' | 0..=0x1f)
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // Start of the unescaped run not yet written.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        f.write_str(&s[run..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

fn skip_whitespace(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, WireError> {
    let bytes = text.as_bytes();
    if depth > MAX_DEPTH {
        return Err(WireError::new("JSON nested too deeply"));
    }
    skip_whitespace(bytes, pos);
    match bytes.get(*pos) {
        None => Err(WireError::new("unexpected end of input")),
        Some(b'n') => expect_literal(bytes, pos, "null").map(|()| Json::Null),
        Some(b't') => expect_literal(bytes, pos, "true").map(|()| Json::Bool(true)),
        Some(b'f') => expect_literal(bytes, pos, "false").map(|()| Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            let mut items = Vec::new();
            read_items(bytes, pos, |pos| {
                items.push(parse_value(text, pos, depth + 1)?);
                Ok(())
            })?;
            Ok(Json::Arr(items))
        }
        Some(b'{') => {
            let mut members = Vec::new();
            read_members(bytes, pos, |literal, pos| {
                let key = key(text, literal)?.into_owned();
                members.push((key, parse_value(text, pos, depth + 1)?));
                Ok(())
            })?;
            Ok(Json::Obj(members))
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos).map(Json::Num),
        Some(c) => Err(unexpected_byte(*c, *pos)),
    }
}

fn unexpected_byte(c: u8, pos: usize) -> WireError {
    WireError::new(format!("unexpected byte {:?} at {pos}", c as char))
}

fn expect_literal(bytes: &[u8], pos: &mut usize, literal: &str) -> Result<(), WireError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(WireError::new(format!("invalid literal at byte {pos}")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, WireError> {
    let start = *pos;
    let negative = bytes.get(*pos) == Some(&b'-');
    if negative {
        *pos += 1;
    }
    // The leading digits are folded as they are scanned. A token of 1 to
    // 15 digits and nothing else stays below 2^53, so its value converts
    // to `f64` exactly: bit for bit what `str::parse::<f64>` gives, `-0`
    // included. Any other token takes the general path.
    let digits = *pos;
    let mut value = 0u64;
    while let Some(&d @ b'0'..=b'9') = bytes.get(*pos) {
        value = value.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
        *pos += 1;
    }
    let plain = !matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
    if plain && (1..=15).contains(&(*pos - digits)) {
        let value = value as f64;
        return Ok(if negative { -value } else { value });
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| WireError::new("non-UTF-8 number"))?;
    let n: f64 =
        text.parse().map_err(|_| WireError::new(format!("invalid number {text:?} at {start}")))?;
    if !n.is_finite() {
        return Err(WireError::new(format!("non-finite number {text:?}")));
    }
    Ok(n)
}

/// `n` as an integer when it is one exactly: integral, and below 2^53 in
/// magnitude, where every integer has its own `f64`.
fn exact_int(n: f64) -> Option<i64> {
    (n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15).then_some(n as i64)
}

/// The string literal under `pos`, unescaped.
fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
    let mut out = String::new();
    scan_string(bytes, pos, Some(&mut out))?;
    Ok(out)
}

/// Scans the string literal under `pos`, checking its escapes, and
/// appends its value to `out` when handed one: the one string scanner of
/// the copying and the skipping reader.
///
/// Each run up to the next byte that needs escaping is copied in one go,
/// and only a copied run is checked as UTF-8. Every byte that ends a run
/// is ASCII, so on `&str` input each run is whole scalars.
fn scan_string(
    bytes: &[u8],
    pos: &mut usize,
    mut out: Option<&mut String>,
) -> Result<(), WireError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(WireError::new(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    loop {
        let run = *pos;
        while *pos < bytes.len() && !needs_escape(bytes[*pos]) {
            *pos += 1;
        }
        if let Some(out) = out.as_deref_mut() {
            out.push_str(
                std::str::from_utf8(&bytes[run..*pos])
                    .map_err(|_| WireError::new("non-UTF-8 string content"))?,
            );
        }
        match bytes.get(*pos) {
            None => return Err(WireError::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(());
            }
            Some(b'\\') => {
                let ch = parse_escape(bytes, pos)?;
                if let Some(out) = out.as_deref_mut() {
                    out.push(ch);
                }
            }
            Some(_) => return Err(WireError::new("unescaped control character in string")),
        }
    }
}

/// Decodes the escape whose `\` is under `pos`, and moves `pos` past
/// it.
fn parse_escape(bytes: &[u8], pos: &mut usize) -> Result<char, WireError> {
    *pos += 1;
    let ch = match bytes.get(*pos) {
        Some(b'"') => '"',
        Some(b'\\') => '\\',
        Some(b'/') => '/',
        Some(b'b') => '\u{8}',
        Some(b'f') => '\u{c}',
        Some(b'n') => '\n',
        Some(b'r') => '\r',
        Some(b't') => '\t',
        Some(b'u') => {
            let hex = bytes
                .get(*pos + 1..*pos + 5)
                .ok_or_else(|| WireError::new("truncated \\u escape"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| WireError::new("invalid \\u escape"))?;
            let code = u32::from_str_radix(hex, 16)
                .map_err(|_| WireError::new(format!("invalid \\u escape {hex:?}")))?;
            // Surrogates are not paired up — the wire format never emits
            // them; reject rather than mangle.
            let ch = char::from_u32(code)
                .ok_or_else(|| WireError::new(format!("invalid codepoint {code:#x}")))?;
            *pos += 4;
            ch
        }
        _ => return Err(WireError::new(format!("invalid escape at byte {pos}"))),
    };
    *pos += 1;
    Ok(ch)
}

/// [`parse_value`] without the value: the same checks in the same order,
/// building nothing.
fn skip_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::new("JSON nested too deeply"));
    }
    skip_whitespace(bytes, pos);
    match bytes.get(*pos) {
        None => Err(WireError::new("unexpected end of input")),
        Some(b'n') => expect_literal(bytes, pos, "null"),
        Some(b't') => expect_literal(bytes, pos, "true"),
        Some(b'f') => expect_literal(bytes, pos, "false"),
        Some(b'"') => scan_string(bytes, pos, None),
        Some(b'[') => read_items(bytes, pos, |pos| skip_value(bytes, pos, depth + 1)),
        Some(b'{') => read_members(bytes, pos, |_, pos| skip_value(bytes, pos, depth + 1)),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos).map(drop),
        Some(c) => Err(unexpected_byte(*c, *pos)),
    }
}

/// Reads the array whose `[` is under `pos`, handing `item` the position
/// of each element, which it must read or skip one level deeper.
fn read_items(
    bytes: &[u8],
    pos: &mut usize,
    mut item: impl FnMut(&mut usize) -> Result<(), WireError>,
) -> Result<(), WireError> {
    *pos += 1;
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        item(pos)?;
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(WireError::new(format!("expected ',' or ']' at byte {pos}"))),
        }
    }
}

/// Reads the object whose `{` is under `pos`, handing `value` the byte
/// range of each key's literal and the position of the key's value, which
/// it must read or skip one level deeper.
fn read_members(
    bytes: &[u8],
    pos: &mut usize,
    mut value: impl FnMut(Range<usize>, &mut usize) -> Result<(), WireError>,
) -> Result<(), WireError> {
    *pos += 1;
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_whitespace(bytes, pos);
        let key = *pos;
        scan_string(bytes, pos, None)?;
        let key = key..*pos;
        skip_whitespace(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(WireError::new(format!("expected ':' at byte {pos}")));
        }
        *pos += 1;
        value(key, pos)?;
        skip_whitespace(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(WireError::new(format!("expected ',' or '}}' at byte {pos}"))),
        }
    }
}

/// Checks that nothing but whitespace follows `pos`.
fn end_of_text(bytes: &[u8], mut pos: usize) -> Result<(), WireError> {
    skip_whitespace(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(WireError::new(format!("trailing data at byte {pos}")));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// One-pass readers: decoders that read each value where it stands, with
// the scan above, and build no `Json` tree.
// ---------------------------------------------------------------------------

/// The key whose literal spans `literal` in `text`, unescaped: borrowed
/// unless it holds an escape.
fn key(text: &str, literal: Range<usize>) -> Result<Cow<'_, str>, WireError> {
    let raw = &text[literal.start + 1..literal.end - 1];
    if raw.contains('\\') {
        parse_string(text.as_bytes(), &mut literal.start.clone()).map(Cow::Owned)
    } else {
        Ok(Cow::Borrowed(raw))
    }
}

/// Reads the value under `pos`, at nesting `depth`, as an object: `member`
/// gets each key and the position of its value, which it must read or skip
/// at `depth + 1`. A value of any other type is skipped and has no
/// members, as [`Json::get`] sees it.
fn read_fields(
    text: &str,
    pos: &mut usize,
    depth: usize,
    mut member: impl FnMut(&str, &mut usize) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let bytes = text.as_bytes();
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) != Some(&b'{') {
        return skip_value(bytes, pos, depth);
    }
    read_members(bytes, pos, |literal, pos| member(&key(text, literal)?, pos))
}

/// Reads the value under `pos`, at nesting `depth`, as an array: `item`
/// gets the position of each element, which it must read or skip at
/// `depth + 1`. `false`, with the value skipped, when it is not an array.
fn read_array(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    item: impl FnMut(&mut usize) -> Result<(), WireError>,
) -> Result<bool, WireError> {
    skip_whitespace(bytes, pos);
    if bytes.get(*pos) != Some(&b'[') {
        return skip_value(bytes, pos, depth).map(|()| false);
    }
    read_items(bytes, pos, item).map(|()| true)
}

/// A member as [`Json::get`] finds it and a decoder converts it: `None`
/// until the first member of its name is read, then `Some(None)` if the
/// conversion failed.
type First<T> = Option<Option<T>>;

/// Reads the member under `pos` into `slot` with `read`, unless a member
/// of its name came first: [`Json::get`] sees only the first, so a later
/// one is only skipped.
fn first<T>(
    slot: &mut Option<T>,
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    read: impl FnOnce(&mut usize) -> Result<T, WireError>,
) -> Result<(), WireError> {
    match slot {
        Some(_) => skip_value(bytes, pos, depth),
        None => {
            *slot = Some(read(pos)?);
            Ok(())
        }
    }
}

/// `read`'s value, or `None` for a `null`.
fn non_null<T>(
    bytes: &[u8],
    pos: &mut usize,
    read: impl FnOnce(&mut usize) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    skip_whitespace(bytes, pos);
    if bytes[*pos..].starts_with(b"null") {
        *pos += 4;
        return Ok(None);
    }
    read(pos).map(Some)
}

/// The number under `pos`, as [`Json::as_f64`] reads it: `None`, with the
/// value skipped, when it is not a number.
fn read_number(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Option<f64>, WireError> {
    skip_whitespace(bytes, pos);
    match bytes.get(*pos) {
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos).map(Some),
        _ => skip_value(bytes, pos, depth).map(|()| None),
    }
}

/// The number under `pos`, as [`Json::as_i64`] reads it.
fn read_int(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Option<i64>, WireError> {
    Ok(read_number(bytes, pos, depth)?.and_then(exact_int))
}

/// The string under `pos`, as [`Json::as_str`] reads it: `None`, with the
/// value skipped, when it is not a string.
fn read_str(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Option<String>, WireError> {
    skip_whitespace(bytes, pos);
    match bytes.get(*pos) {
        Some(b'"') => parse_string(bytes, pos).map(Some),
        _ => skip_value(bytes, pos, depth).map(|()| None),
    }
}

/// Reads the JSON object `text` in one pass that builds no tree: `member`
/// gets each key, unescaped, and the [`Member`] under it, to parse or to
/// skip. Accepts exactly the objects [`Json::parse`] accepts.
pub fn read_object(
    text: &str,
    mut member: impl FnMut(&str, &mut Member<'_>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    skip_whitespace(bytes, &mut pos);
    match bytes.get(pos) {
        Some(b'{') => {}
        Some(c) => {
            return Err(WireError::new(format!("expected an object, found {:?}", *c as char)))
        }
        None => return Err(WireError::new("unexpected end of input")),
    }
    read_fields(text, &mut pos, 0, |key, pos| {
        let mut value = Member { text, pos, read: false };
        member(key, &mut value)?;
        if value.read {
            Ok(())
        } else {
            skip_value(bytes, value.pos, 1)
        }
    })?;
    end_of_text(bytes, pos)
}

/// The value of one member under [`read_object`]'s cursor, read at most
/// once. Left unread, it is skipped.
#[derive(Debug)]
pub struct Member<'a> {
    text: &'a str,
    pos: &'a mut usize,
    read: bool,
}

impl Member<'_> {
    /// The value, parsed as [`Json::parse`] parses it.
    pub fn parse(&mut self) -> Result<Json, WireError> {
        self.read = true;
        parse_value(self.text, self.pos, 1)
    }

    /// Skips the value with the validating scan, which checks what
    /// [`Json::parse`] checks and builds nothing, and gives the byte range
    /// of its text.
    pub fn skip(&mut self) -> Result<Range<usize>, WireError> {
        self.read = true;
        let bytes = self.text.as_bytes();
        skip_whitespace(bytes, self.pos);
        let start = *self.pos;
        skip_value(bytes, self.pos, 1)?;
        Ok(start..*self.pos)
    }
}

/// `s` as a JSON string literal, escaped as [`Json::Str`] writes it: for
/// writers that stream a body instead of building a [`Json`] tree.
pub fn quoted(s: &str) -> impl fmt::Display + '_ {
    struct Quoted<'a>(&'a str);
    impl fmt::Display for Quoted<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write_escaped(f, self.0)
        }
    }
    Quoted(s)
}

// ---------------------------------------------------------------------------
// Instance / Solution / error codecs.
// ---------------------------------------------------------------------------

/// Encodes an instance as `{"platform": <text format>, "tasks": N}`.
pub fn instance_to_json(instance: &Instance) -> Json {
    Json::obj([
        ("platform", Json::str(instance.platform.to_text())),
        ("tasks", Json::int(instance.tasks as i64)),
    ])
}

/// Decodes an instance from its wire object.
///
/// `platform` carries the workspace instance text format (the same text
/// `mst generate` emits and [`crate::Platform::parse`] reads); `tasks`
/// must be a positive integer.
pub fn instance_from_json(json: &Json) -> Result<Instance, WireError> {
    let text = json
        .get("platform")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new("missing string field \"platform\""))?;
    let tasks = json
        .get("tasks")
        .and_then(Json::as_i64)
        .ok_or_else(|| WireError::new("missing integer field \"tasks\""))?;
    if tasks <= 0 {
        return Err(WireError::new(format!("\"tasks\" must be at least 1, got {tasks}")));
    }
    let instance = Instance::parse(text, tasks as usize)
        .map_err(|e| WireError::new(format!("invalid platform: {e}")))?;
    Ok(instance)
}

/// Encodes a tree schedule as
/// `{"repr": "tree", "tasks": [{"task", "node", "start", "end", "work",
/// "comms"}]}` — lossless: `comms` lists every emission time along the
/// task's root path, so the witness reconstructs exactly. The value is
/// a [`Json::Raw`], written in one pass by the schedule writer.
pub fn tree_schedule_to_json(schedule: &TreeSchedule) -> Json {
    raw(schedule.n(), |out| write_tree(out, schedule))
}

/// Decodes a tree schedule from its wire object, through the reader of
/// [`solution_from_text`].
///
/// Validates shape and types only — node ids, route lengths and times
/// are deliberately *not* checked against any platform here; that is
/// the feasibility oracle's job ([`crate::verify`] /
/// [`mst_schedule::check_tree`]), which reports structured violations
/// instead of rejecting the decode.
pub fn tree_schedule_from_json(json: &Json) -> Result<TreeSchedule, WireError> {
    let text = json.to_string();
    let schedule = read_schedule(&text, &mut 0, 0)?;
    match schedule.repr.flatten().as_deref() {
        Some("tree") => tree_schedule(schedule.tasks),
        Some(other) => Err(WireError::new(format!("expected repr \"tree\", got {other:?}"))),
        None => Err(WireError::new("missing string field \"repr\"")),
    }
}

/// The [`Json::Raw`] of the text `write` prints, sized for `tasks`
/// schedule tasks.
fn raw(tasks: usize, write: impl FnOnce(&mut String) -> fmt::Result) -> Json {
    let mut text = String::with_capacity(32 + 80 * tasks);
    write(&mut text).expect("a String takes every write");
    Json::Raw(Box::new(RawJson { text, parsed: OnceLock::new() }))
}

/// The schedule writer: prints `schedule` in one pass, with the bytes
/// [`Json`]'s `Display` gives for the object `{"repr": .., "tasks":
/// [{"task", <place>, "start", "end", "work", "comms"}, ..]}`, where a
/// chain task's place is `"proc"`, a spider task's `"leg"` and
/// `"depth"`, and a tree task's `"node"`.
fn write_schedule(out: &mut String, schedule: &ScheduleRepr) -> fmt::Result {
    match schedule {
        ScheduleRepr::Chain(s) => write_tasks(out, "chain", s.tasks(), |out, t| {
            write_member(out, "proc", t.proc as i64)?;
            write_times(out, t.start, t.end(), t.work, &t.comms)
        }),
        ScheduleRepr::Spider(s) => write_tasks(out, "spider", s.tasks(), |out, t| {
            write_member(out, "leg", t.node.leg as i64)?;
            write_member(out, "depth", t.node.depth as i64)?;
            write_times(out, t.start, t.end(), t.work, &t.comms)
        }),
        ScheduleRepr::Tree(s) => write_tree(out, s),
    }
}

fn write_tree(out: &mut String, schedule: &TreeSchedule) -> fmt::Result {
    write_tasks(out, "tree", schedule.tasks(), |out, t| {
        write_member(out, "node", t.node as i64)?;
        write_times(out, t.start, t.end(), t.work, &t.comms)
    })
}

/// Writes `{"repr":"<repr>","tasks":[..]}`, each task opened with its
/// `"task"` number and finished by `task`.
fn write_tasks<T>(
    out: &mut String,
    repr: &str,
    tasks: &[T],
    task: impl Fn(&mut String, &T) -> fmt::Result,
) -> fmt::Result {
    out.push_str("{\"repr\":\"");
    out.push_str(repr);
    out.push_str("\",\"tasks\":[");
    for (i, t) in tasks.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"task\":");
        write_number(out, (i as i64 + 1) as f64)?;
        task(out, t)?;
        out.push('}');
    }
    out.push_str("]}");
    Ok(())
}

/// Writes the member `,"<key>":<value>` of a task object.
fn write_member(out: &mut String, key: &str, value: i64) -> fmt::Result {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    write_number(out, value as f64)
}

/// Writes the members that follow a task's place: its times, then its
/// emission times.
fn write_times(
    out: &mut String,
    start: Time,
    end: Time,
    work: Time,
    comms: &CommVector,
) -> fmt::Result {
    write_member(out, "start", start)?;
    write_member(out, "end", end)?;
    write_member(out, "work", work)?;
    out.push_str(",\"comms\":[");
    for (i, &t) in comms.times().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_number(out, t as f64)?;
    }
    out.push(']');
    Ok(())
}

/// Encodes a solution: makespan, scheduled-task count, and (when
/// witnessed) the schedule itself, task by task in emission order.
///
/// The encoding is lossless: each task carries its full communication
/// vector (`"comms"`) and per-task work alongside the derived
/// `start`/`end`, so a client can rebuild the exact witness — tree
/// witnesses round-trip through [`tree_schedule_from_json`].
///
/// The result is an object of seven members. The `"schedule"` member is
/// a [`Json::Raw`] that the schedule writer prints in one pass; the
/// others stay tree members, so callers can append their own (`"cached"`,
/// `"feasible"`, an NDJSON line's `"index"`).
pub fn solution_to_json(solution: &Solution) -> Json {
    let schedule = match solution.schedule() {
        None => Json::Null,
        Some(schedule) => raw(solution.n(), |out| write_schedule(out, schedule)),
    };
    let relaxed = match solution.relaxed_makespan() {
        Some(t) => Json::Num(t),
        None => Json::Null,
    };
    let cover = match solution.sub_platform() {
        Some(spider) => Json::str(crate::format::spider_text(spider)),
        None => Json::Null,
    };
    Json::obj([
        ("solver", Json::str(solution.solver())),
        ("makespan", Json::int(solution.makespan())),
        ("scheduled", Json::int(solution.n() as i64)),
        ("witnessed", Json::Bool(solution.is_witnessed())),
        ("schedule", schedule),
        ("cover", cover),
        ("relaxed_makespan", relaxed),
    ])
}

/// The members of one schedule task object, read before the schedule's
/// `"repr"` says which of them its shape needs.
#[derive(Default)]
struct TaskFields {
    proc: First<i64>,
    leg: First<i64>,
    depth: First<i64>,
    node: First<i64>,
    start: First<i64>,
    work: First<i64>,
    /// `Some(None)` inside when an element is not an exact integer.
    comms: First<Option<CommVector>>,
}

/// The members of a schedule object.
#[derive(Default)]
struct ScheduleFields {
    repr: First<String>,
    tasks: First<Vec<TaskFields>>,
}

/// The members of a [`solution_to_json`] object that decoding reads.
#[derive(Default)]
struct SolutionFields {
    solver: First<String>,
    /// `Some(None)` for a `null` schedule.
    schedule: Option<Option<ScheduleFields>>,
    /// `Some(None)` for a `null` cover, `Some(Some(None))` for one that is
    /// not a string.
    cover: First<Option<String>>,
    relaxed_makespan: First<f64>,
    makespan: First<i64>,
}

/// Reads one task object; `scratch` gathers its emission times.
fn read_task(
    text: &str,
    pos: &mut usize,
    depth: usize,
    scratch: &mut Vec<i64>,
) -> Result<TaskFields, WireError> {
    let bytes = text.as_bytes();
    let mut task = TaskFields::default();
    read_fields(text, pos, depth, |key, pos| {
        let depth = depth + 1;
        let slot = match key {
            "proc" => &mut task.proc,
            "leg" => &mut task.leg,
            "depth" => &mut task.depth,
            "node" => &mut task.node,
            "start" => &mut task.start,
            "work" => &mut task.work,
            "comms" => {
                return first(&mut task.comms, bytes, pos, depth, |pos| {
                    read_comms(bytes, pos, depth, scratch)
                })
            }
            _ => return skip_value(bytes, pos, depth),
        };
        first(slot, bytes, pos, depth, |pos| read_int(bytes, pos, depth))
    })?;
    Ok(task)
}

/// A task's `"comms"` under `pos`: `None` when it is not an array, and
/// `Some(None)` when an element is not an exact integer. The times are
/// gathered in `scratch`, which every task of a schedule shares, so a
/// vector short enough to sit inline costs no allocation.
fn read_comms(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    scratch: &mut Vec<i64>,
) -> Result<Option<Option<CommVector>>, WireError> {
    scratch.clear();
    let mut exact = true;
    let array = read_array(bytes, pos, depth, |pos| {
        match read_int(bytes, pos, depth + 1)? {
            Some(time) if exact => scratch.push(time),
            _ => exact = false,
        }
        Ok(())
    })?;
    Ok(array.then(|| exact.then(|| CommVector::from_slice(scratch))))
}

fn read_schedule(text: &str, pos: &mut usize, depth: usize) -> Result<ScheduleFields, WireError> {
    let bytes = text.as_bytes();
    let mut schedule = ScheduleFields::default();
    read_fields(text, pos, depth, |key, pos| {
        let depth = depth + 1;
        match key {
            "repr" => {
                first(&mut schedule.repr, bytes, pos, depth, |pos| read_str(bytes, pos, depth))
            }
            "tasks" => first(&mut schedule.tasks, bytes, pos, depth, |pos| {
                let (mut tasks, mut scratch) = (Vec::new(), Vec::new());
                let array = read_array(bytes, pos, depth, |pos| {
                    tasks.push(read_task(text, pos, depth + 1, &mut scratch)?);
                    Ok(())
                })?;
                Ok(array.then_some(tasks))
            }),
            _ => skip_value(bytes, pos, depth),
        }
    })?;
    Ok(schedule)
}

/// Task `i`'s required integer member `key`.
fn required_int(field: First<i64>, i: usize, key: &str) -> Result<i64, WireError> {
    field.flatten().ok_or_else(|| WireError::new(format!("tasks[{i}]: missing integer \"{key}\"")))
}

/// Task `i`'s `"comms"`: an array of exact integers, not empty.
fn required_comms(comms: First<Option<CommVector>>, i: usize) -> Result<CommVector, WireError> {
    let comms = comms
        .flatten()
        .ok_or_else(|| WireError::new(format!("tasks[{i}]: missing array \"comms\"")))?
        .ok_or_else(|| WireError::new(format!("tasks[{i}]: non-integer emission time")))?;
    if comms.is_empty() {
        // Every node sits below at least one link, so a routable task has
        // at least one emission time.
        return Err(WireError::new(format!("tasks[{i}]: \"comms\" must not be empty")));
    }
    Ok(comms)
}

/// The `"tasks"` array of a schedule object.
fn schedule_items(tasks: First<Vec<TaskFields>>) -> Result<Vec<TaskFields>, WireError> {
    tasks.flatten().ok_or_else(|| WireError::new("missing array field \"tasks\""))
}

fn chain_schedule(tasks: First<Vec<TaskFields>>) -> Result<ChainSchedule, WireError> {
    let items = schedule_items(tasks)?;
    let mut tasks: Vec<TaskAssignment> = Vec::with_capacity(items.len());
    for (i, item) in items.into_iter().enumerate() {
        let proc = required_int(item.proc, i, "proc")?;
        if proc < 1 {
            return Err(WireError::new(format!("tasks[{i}]: proc must be at least 1, got {proc}")));
        }
        let start = required_int(item.start, i, "start")?;
        let work = required_int(item.work, i, "work")?;
        let comms = required_comms(item.comms, i)?;
        if comms.len() != proc as usize {
            return Err(WireError::new(format!(
                "tasks[{i}]: \"comms\" must carry exactly {proc} emission time(s), got {}",
                comms.len()
            )));
        }
        if let Some(prev) = tasks.last() {
            if prev.comms.first() > comms.first() {
                return Err(WireError::new(format!(
                    "tasks[{i}]: tasks must be listed in master-emission order"
                )));
            }
        }
        tasks.push(TaskAssignment::new(proc as usize, start, comms, work));
    }
    Ok(ChainSchedule::new(tasks))
}

fn spider_schedule(tasks: First<Vec<TaskFields>>) -> Result<SpiderSchedule, WireError> {
    let items = schedule_items(tasks)?;
    let mut tasks: Vec<SpiderTask> = Vec::with_capacity(items.len());
    for (i, item) in items.into_iter().enumerate() {
        let leg = required_int(item.leg, i, "leg")?;
        let depth = required_int(item.depth, i, "depth")?;
        if leg < 0 {
            return Err(WireError::new(format!("tasks[{i}]: leg must be non-negative, got {leg}")));
        }
        if depth < 1 {
            return Err(WireError::new(format!(
                "tasks[{i}]: depth must be at least 1, got {depth}"
            )));
        }
        let start = required_int(item.start, i, "start")?;
        let work = required_int(item.work, i, "work")?;
        let comms = required_comms(item.comms, i)?;
        if comms.len() != depth as usize {
            return Err(WireError::new(format!(
                "tasks[{i}]: \"comms\" must carry exactly {depth} emission time(s), got {}",
                comms.len()
            )));
        }
        tasks.push(SpiderTask::new(
            NodeId { leg: leg as usize, depth: depth as usize },
            start,
            comms,
            work,
        ));
    }
    Ok(SpiderSchedule::new(tasks))
}

fn tree_schedule(tasks: First<Vec<TaskFields>>) -> Result<TreeSchedule, WireError> {
    let items = schedule_items(tasks)?;
    let mut tasks = Vec::with_capacity(items.len());
    for (i, item) in items.into_iter().enumerate() {
        let node = required_int(item.node, i, "node")?;
        if node < 1 {
            return Err(WireError::new(format!("tasks[{i}]: node must be at least 1, got {node}")));
        }
        let start = required_int(item.start, i, "start")?;
        let work = required_int(item.work, i, "work")?;
        let comms = required_comms(item.comms, i)?;
        tasks.push(TreeTask::new(node as usize, start, comms, work));
    }
    Ok(TreeSchedule::new(tasks))
}

/// Decodes a [`solution_to_json`] text back into a [`Solution`] — the
/// inverse the persistent result store needs to warm-start the cache.
///
/// It reads the text once, where each value stands, and builds no
/// [`Json`] tree, yet accepts exactly the texts that
/// `solution_from_json(&Json::parse(text)?)` accepts, with the same
/// result: the first member of a name counts, as in [`Json::get`], and
/// every other value passes the checks of [`Member::skip`]'s scan.
///
/// The decode is structural: field types, vector lengths and emission
/// order are validated (malformed bodies error instead of panicking),
/// but feasibility is **not** re-derived here — that stays
/// [`crate::verify`]'s job. `makespan`/`scheduled`/`witnessed` are
/// recomputed from the decoded schedule, so a tampered summary field
/// cannot disagree with the witness it rides along.
pub fn solution_from_text(text: &str) -> Result<Solution, WireError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let mut fields = SolutionFields::default();
    read_fields(text, &mut pos, 0, |key, pos| match key {
        "solver" => first(&mut fields.solver, bytes, pos, 1, |pos| read_str(bytes, pos, 1)),
        "schedule" => first(&mut fields.schedule, bytes, pos, 1, |pos| {
            non_null(bytes, pos, |pos| read_schedule(text, pos, 1))
        }),
        "cover" => first(&mut fields.cover, bytes, pos, 1, |pos| {
            non_null(bytes, pos, |pos| read_str(bytes, pos, 1))
        }),
        "relaxed_makespan" => {
            first(&mut fields.relaxed_makespan, bytes, pos, 1, |pos| read_number(bytes, pos, 1))
        }
        "makespan" => first(&mut fields.makespan, bytes, pos, 1, |pos| read_int(bytes, pos, 1)),
        _ => skip_value(bytes, pos, 1),
    })?;
    end_of_text(bytes, pos)?;

    let solver =
        fields.solver.flatten().ok_or_else(|| WireError::new("missing string field \"solver\""))?;
    let solver: &'static str = crate::config::intern(&solver);
    let Some(schedule) = fields.schedule.flatten() else {
        if let Some(relaxed) = fields.relaxed_makespan.flatten() {
            return Ok(Solution::from_relaxation(solver, relaxed));
        }
        let makespan = fields
            .makespan
            .flatten()
            .ok_or_else(|| WireError::new("missing integer field \"makespan\""))?;
        return Ok(Solution::from_makespan(solver, makespan));
    };
    match schedule.repr.flatten().as_deref() {
        Some("chain") => Ok(Solution::from_chain(solver, chain_schedule(schedule.tasks)?)),
        Some("spider") => {
            let decoded = spider_schedule(schedule.tasks)?;
            let Some(cover) = fields.cover.flatten() else {
                return Ok(Solution::from_spider(solver, decoded));
            };
            let text =
                cover.ok_or_else(|| WireError::new("\"cover\" must be a platform string"))?;
            let platform = Platform::parse(&text)
                .map_err(|e| WireError::new(format!("invalid cover platform: {e}")))?;
            let spider = platform
                .as_spider()
                .cloned()
                .ok_or_else(|| WireError::new("\"cover\" must be a spider platform"))?;
            Ok(Solution::from_cover(solver, spider, decoded))
        }
        Some("tree") => Ok(Solution::from_tree(solver, tree_schedule(schedule.tasks)?)),
        Some(other) => Err(WireError::new(format!("unknown schedule repr {other:?}"))),
        None => Err(WireError::new("missing string field \"repr\"")),
    }
}

/// [`solution_from_text`] on the text of `json`: a decoded body takes the
/// same path as a stored one.
pub fn solution_from_json(json: &Json) -> Result<Solution, WireError> {
    solution_from_text(&json.to_string())
}

/// The stable machine-readable kind string of a [`SolveError`], used by
/// clients (and the service's status-code mapping) to dispatch without
/// scraping messages.
pub fn error_kind(error: &SolveError) -> &'static str {
    match error {
        SolveError::UnsupportedTopology { .. } => "unsupported-topology",
        SolveError::DeadlineUnsupported { .. } => "deadline-unsupported",
        SolveError::UnknownSolver { .. } => "unknown-solver",
        SolveError::ZeroTasks => "zero-tasks",
        SolveError::Platform(_) => "invalid-platform",
        SolveError::MalformedSolution { .. } => "malformed-solution",
        SolveError::Cancelled => "cancelled",
    }
}

/// Encodes a solve failure as `{"error": {"kind": ..., "message": ...}}`.
pub fn error_to_json(error: &SolveError) -> Json {
    Json::obj([(
        "error",
        Json::obj([
            ("kind", Json::str(error_kind(error))),
            ("message", Json::str(error.to_string())),
        ]),
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use crate::registry::SolverRegistry;

    /// The tree-building schedule encoder the schedule writer replaced,
    /// and the tree-walking decoders the one-pass reader replaced, kept as
    /// the references they are checked against.
    mod reference {
        use super::*;

        /// [`super::solution_to_json`] with its schedule built as a tree.
        pub(super) fn solution_to_json(solution: &Solution) -> Json {
            let mut json = super::solution_to_json(solution);
            if let (Json::Obj(members), Some(schedule)) = (&mut json, solution.schedule()) {
                for (key, value) in members {
                    if key == "schedule" {
                        *value = schedule_to_json(schedule);
                    }
                }
            }
            json
        }

        fn schedule_to_json(schedule: &ScheduleRepr) -> Json {
            match schedule {
                ScheduleRepr::Chain(s) => Json::obj([
                    ("repr", Json::str("chain")),
                    (
                        "tasks",
                        Json::Arr(
                            s.tasks()
                                .iter()
                                .enumerate()
                                .map(|(i, t)| {
                                    Json::obj([
                                        ("task", Json::int(i as i64 + 1)),
                                        ("proc", Json::int(t.proc as i64)),
                                        ("start", Json::int(t.start)),
                                        ("end", Json::int(t.end())),
                                        ("work", Json::int(t.work)),
                                        ("comms", comms_to_json(&t.comms)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
                ScheduleRepr::Spider(s) => Json::obj([
                    ("repr", Json::str("spider")),
                    (
                        "tasks",
                        Json::Arr(
                            s.tasks()
                                .iter()
                                .enumerate()
                                .map(|(i, t)| {
                                    Json::obj([
                                        ("task", Json::int(i as i64 + 1)),
                                        ("leg", Json::int(t.node.leg as i64)),
                                        ("depth", Json::int(t.node.depth as i64)),
                                        ("start", Json::int(t.start)),
                                        ("end", Json::int(t.end())),
                                        ("work", Json::int(t.work)),
                                        ("comms", comms_to_json(&t.comms)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
                ScheduleRepr::Tree(s) => tree_schedule_to_json(s),
            }
        }

        pub(super) fn tree_schedule_to_json(schedule: &TreeSchedule) -> Json {
            Json::obj([
                ("repr", Json::str("tree")),
                (
                    "tasks",
                    Json::Arr(
                        schedule
                            .tasks()
                            .iter()
                            .enumerate()
                            .map(|(i, t)| {
                                Json::obj([
                                    ("task", Json::int(i as i64 + 1)),
                                    ("node", Json::int(t.node as i64)),
                                    ("start", Json::int(t.start)),
                                    ("end", Json::int(t.end())),
                                    ("work", Json::int(t.work)),
                                    ("comms", comms_to_json(&t.comms)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }

        /// The emission times of a communication vector as a JSON array.
        fn comms_to_json(comms: &CommVector) -> Json {
            Json::Arr(comms.times().iter().map(|&t| Json::int(t)).collect())
        }

        pub(super) fn tree_schedule_from_json(json: &Json) -> Result<TreeSchedule, WireError> {
            match json.get("repr").and_then(Json::as_str) {
                Some("tree") => {}
                Some(other) => {
                    return Err(WireError::new(format!("expected repr \"tree\", got {other:?}")));
                }
                None => return Err(WireError::new("missing string field \"repr\"")),
            }
            let items = json
                .get("tasks")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError::new("missing array field \"tasks\""))?;
            let mut tasks = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let field = |key: &str| -> Result<i64, WireError> {
                    item.get(key).and_then(Json::as_i64).ok_or_else(|| {
                        WireError::new(format!("tasks[{i}]: missing integer \"{key}\""))
                    })
                };
                let node = field("node")?;
                if node < 1 {
                    return Err(WireError::new(format!(
                        "tasks[{i}]: node must be at least 1, got {node}"
                    )));
                }
                let start = field("start")?;
                let work = field("work")?;
                let comms = item
                    .get("comms")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| WireError::new(format!("tasks[{i}]: missing array \"comms\"")))?
                    .iter()
                    .map(|t| {
                        t.as_i64().ok_or_else(|| {
                            WireError::new(format!("tasks[{i}]: non-integer emission time"))
                        })
                    })
                    .collect::<Result<Vec<i64>, WireError>>()?;
                if comms.is_empty() {
                    // Every node sits below at least one link, so a routable
                    // task has at least one emission time.
                    return Err(WireError::new(format!("tasks[{i}]: \"comms\" must not be empty")));
                }
                tasks.push(TreeTask::new(node as usize, start, CommVector::new(comms), work));
            }
            Ok(TreeSchedule::new(tasks))
        }

        /// Reads one required integer field of a schedule task object.
        fn task_int(item: &Json, i: usize, key: &str) -> Result<i64, WireError> {
            item.get(key)
                .and_then(Json::as_i64)
                .ok_or_else(|| WireError::new(format!("tasks[{i}]: missing integer \"{key}\"")))
        }

        /// Reads and validates the `"comms"` array of a schedule task object.
        fn task_comms(item: &Json, i: usize) -> Result<Vec<i64>, WireError> {
            let comms = item
                .get("comms")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError::new(format!("tasks[{i}]: missing array \"comms\"")))?
                .iter()
                .map(|t| {
                    t.as_i64().ok_or_else(|| {
                        WireError::new(format!("tasks[{i}]: non-integer emission time"))
                    })
                })
                .collect::<Result<Vec<i64>, WireError>>()?;
            if comms.is_empty() {
                return Err(WireError::new(format!("tasks[{i}]: \"comms\" must not be empty")));
            }
            Ok(comms)
        }

        /// The `"tasks"` array of a schedule object.
        fn schedule_tasks(json: &Json) -> Result<&[Json], WireError> {
            json.get("tasks")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError::new("missing array field \"tasks\""))
        }

        fn chain_schedule_from_json(json: &Json) -> Result<ChainSchedule, WireError> {
            let mut tasks: Vec<TaskAssignment> = Vec::new();
            for (i, item) in schedule_tasks(json)?.iter().enumerate() {
                let proc = task_int(item, i, "proc")?;
                if proc < 1 {
                    return Err(WireError::new(format!(
                        "tasks[{i}]: proc must be at least 1, got {proc}"
                    )));
                }
                let start = task_int(item, i, "start")?;
                let work = task_int(item, i, "work")?;
                let comms = task_comms(item, i)?;
                if comms.len() != proc as usize {
                    return Err(WireError::new(format!(
                        "tasks[{i}]: \"comms\" must carry exactly {proc} emission time(s), got {}",
                        comms.len()
                    )));
                }
                if let Some(prev) = tasks.last() {
                    if prev.comms.first() > comms[0] {
                        return Err(WireError::new(format!(
                            "tasks[{i}]: tasks must be listed in master-emission order"
                        )));
                    }
                }
                tasks.push(TaskAssignment::new(proc as usize, start, CommVector::new(comms), work));
            }
            Ok(ChainSchedule::new(tasks))
        }

        fn spider_schedule_from_json(json: &Json) -> Result<SpiderSchedule, WireError> {
            let mut tasks: Vec<SpiderTask> = Vec::new();
            for (i, item) in schedule_tasks(json)?.iter().enumerate() {
                let leg = task_int(item, i, "leg")?;
                let depth = task_int(item, i, "depth")?;
                if leg < 0 {
                    return Err(WireError::new(format!(
                        "tasks[{i}]: leg must be non-negative, got {leg}"
                    )));
                }
                if depth < 1 {
                    return Err(WireError::new(format!(
                        "tasks[{i}]: depth must be at least 1, got {depth}"
                    )));
                }
                let start = task_int(item, i, "start")?;
                let work = task_int(item, i, "work")?;
                let comms = task_comms(item, i)?;
                if comms.len() != depth as usize {
                    return Err(WireError::new(format!(
                        "tasks[{i}]: \"comms\" must carry exactly {depth} emission time(s), got {}",
                        comms.len()
                    )));
                }
                tasks.push(SpiderTask::new(
                    NodeId { leg: leg as usize, depth: depth as usize },
                    start,
                    CommVector::new(comms),
                    work,
                ));
            }
            Ok(SpiderSchedule::new(tasks))
        }

        pub(super) fn solution_from_json(json: &Json) -> Result<Solution, WireError> {
            let solver = json
                .get("solver")
                .and_then(Json::as_str)
                .ok_or_else(|| WireError::new("missing string field \"solver\""))?;
            let solver: &'static str = crate::config::intern(solver);
            let schedule = match json.get("schedule") {
                None | Some(Json::Null) => None,
                Some(schedule) => Some(schedule),
            };
            let Some(schedule) = schedule else {
                if let Some(relaxed) = json.get("relaxed_makespan").and_then(Json::as_f64) {
                    return Ok(Solution::from_relaxation(solver, relaxed));
                }
                let makespan = json
                    .get("makespan")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| WireError::new("missing integer field \"makespan\""))?;
                return Ok(Solution::from_makespan(solver, makespan));
            };
            match schedule.get("repr").and_then(Json::as_str) {
                Some("chain") => {
                    Ok(Solution::from_chain(solver, chain_schedule_from_json(schedule)?))
                }
                Some("spider") => {
                    let decoded = spider_schedule_from_json(schedule)?;
                    match json.get("cover") {
                        None | Some(Json::Null) => Ok(Solution::from_spider(solver, decoded)),
                        Some(cover) => {
                            let text = cover.as_str().ok_or_else(|| {
                                WireError::new("\"cover\" must be a platform string")
                            })?;
                            let platform = Platform::parse(text).map_err(|e| {
                                WireError::new(format!("invalid cover platform: {e}"))
                            })?;
                            let spider = platform.as_spider().cloned().ok_or_else(|| {
                                WireError::new("\"cover\" must be a spider platform")
                            })?;
                            Ok(Solution::from_cover(solver, spider, decoded))
                        }
                    }
                }
                Some("tree") => Ok(Solution::from_tree(solver, tree_schedule_from_json(schedule)?)),
                Some(other) => Err(WireError::new(format!("unknown schedule repr {other:?}"))),
                None => Err(WireError::new("missing string field \"repr\"")),
            }
        }
    }

    #[test]
    fn values_round_trip_through_text() {
        let cases = [
            "null",
            "true",
            "-12",
            "3.5",
            "\"a\\nb\\\"c\\\\d\"",
            "[1,[2,3],{\"x\":null}]",
            "{\"platform\":\"chain\\n2 3\\n\",\"tasks\":5}",
        ];
        for case in cases {
            let parsed = Json::parse(case).unwrap();
            assert_eq!(Json::parse(&parsed.to_string()).unwrap(), parsed, "{case}");
        }
    }

    /// Texts [`Json::parse`] must reject.
    const MALFORMED: [&str; 17] = [
        "",
        "{",
        "[1,",
        "{\"a\":}",
        "{\"a\" 1}",
        "tru",
        "\"unterminated",
        "01x",
        "{\"a\":1}trailing",
        "\"bad \\q escape\"",
        "1e999",
        "nan",
        "--3",
        "\"\\u12\"",
        "\u{7}",
        // A raw control byte right after a multi-byte scalar.
        "\"caf\u{e9}\u{1}\"",
        // An unterminated string ending in a multi-byte scalar.
        "\"ab\u{1f600}",
    ];

    #[test]
    fn malformed_bodies_error_not_panic() {
        for case in MALFORMED {
            assert!(Json::parse(case).is_err(), "{case:?} must fail to parse");
        }
        // Depth bombing fails cleanly instead of recursing without bound.
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
    }

    /// The validating scan, [`Member::skip`] under [`read_object`], accepts
    /// exactly what [`Json::parse`] accepts. Each case is wrapped as a
    /// member, one level deeper, so the depth cases straddle the cap one
    /// level sooner.
    #[test]
    fn validate_accepts_exactly_what_parse_accepts() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"k\":".repeat(depth) + "0" + &"}".repeat(depth);
        let mut cases: Vec<String> = MALFORMED.iter().map(|c| c.to_string()).collect();
        cases.extend(
            ["null", " [1, {\"x\": [true, false]}] ", "-0.5e3", "\"\\u00e9\\/\""].map(String::from),
        );
        cases.extend(
            ["\"\\u+0e9\"", "\"\\ud800\"", "-.5", "1.", "[1,]", "{\"a\":1,}"].map(String::from),
        );
        for depth in [62, 63, 64, 65, 10_000] {
            cases.push(nested(depth));
            cases.push(objects(depth));
        }
        for case in &cases {
            let member = format!("{{\"k\":{case}}}");
            let skipped = read_object(&member, |_, value| value.skip().map(drop));
            assert_eq!(skipped.is_ok(), Json::parse(&member).is_ok(), "{case:?}");
        }
    }

    #[test]
    fn instances_round_trip() {
        let instance = Instance::new(Platform::parse("spider\nleg 2 3 3 5\nleg 1 4\n").unwrap(), 6);
        let json = instance_to_json(&instance);
        let back = instance_from_json(&Json::parse(&json.to_string()).unwrap()).unwrap();
        assert_eq!(back, instance);
    }

    #[test]
    fn instance_decoding_rejects_bad_fields() {
        for body in [
            "{}",
            "{\"platform\":3,\"tasks\":1}",
            "{\"platform\":\"chain\\n2 3\\n\"}",
            "{\"platform\":\"chain\\n2 3\\n\",\"tasks\":0}",
            "{\"platform\":\"chain\\n2 3\\n\",\"tasks\":-4}",
            "{\"platform\":\"chain\\n2 3\\n\",\"tasks\":1.5}",
            "{\"platform\":\"ring\\n1 1\\n\",\"tasks\":2}",
        ] {
            let parsed = Json::parse(body).unwrap();
            assert!(instance_from_json(&parsed).is_err(), "{body} must be rejected");
        }
    }

    #[test]
    fn solutions_carry_their_schedules() {
        let instance = Instance::new(Platform::parse("chain\n2 3\n3 5\n").unwrap(), 5);
        let solution = SolverRegistry::global().solve("optimal", &instance).unwrap();
        let json = solution_to_json(&solution);
        assert_eq!(json.get("makespan").and_then(Json::as_i64), Some(14));
        assert_eq!(json.get("scheduled").and_then(Json::as_i64), Some(5));
        assert_eq!(json.get("witnessed").and_then(Json::as_bool), Some(true));
        let tasks = json.get("schedule").unwrap().get("tasks").unwrap().as_arr().unwrap();
        assert_eq!(tasks.len(), 5);
        assert_eq!(tasks[0].get("task").and_then(Json::as_i64), Some(1));
        // The serialized text parses back to the identical value.
        assert_eq!(Json::parse(&json.to_string()).unwrap(), json);

        // Unwitnessed solutions say so.
        let fork = Instance::new(Platform::fork(&[(1, 2), (2, 2)]).unwrap(), 4);
        let relaxed = SolverRegistry::global().solve("divisible", &fork).unwrap();
        let json = solution_to_json(&relaxed);
        assert_eq!(json.get("witnessed").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("schedule"), Some(&Json::Null));
        assert!(json.get("relaxed_makespan").unwrap().as_f64().is_some());
    }

    #[test]
    fn tree_schedules_round_trip_losslessly() {
        let tree = mst_platform::Tree::from_triples(&[(0, 1, 2), (1, 2, 3), (1, 1, 1), (0, 4, 5)])
            .unwrap();
        let schedule = mst_tree::tree_schedule_from_sequence(&tree, &[2, 4, 3, 1]);
        let json = tree_schedule_to_json(&schedule);
        let text = json.to_string();
        let back = tree_schedule_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, schedule, "wire round-trip must be lossless");

        // The exact solver's /solve response carries the same object.
        let instance = Instance::new(Platform::Tree(tree), 3);
        let solution = SolverRegistry::global().solve("exact", &instance).unwrap();
        let reply = solution_to_json(&solution);
        assert_eq!(reply.get("witnessed").and_then(Json::as_bool), Some(true));
        let schedule_json = reply.get("schedule").unwrap();
        assert_eq!(schedule_json.get("repr").and_then(Json::as_str), Some("tree"));
        let decoded = tree_schedule_from_json(schedule_json).unwrap();
        assert_eq!(Some(&decoded), solution.tree_schedule());
    }

    #[test]
    fn tree_schedule_decoding_rejects_bad_shapes() {
        for body in [
            r#"{"tasks": []}"#,
            r#"{"repr": "chain", "tasks": []}"#,
            r#"{"repr": "tree"}"#,
            r#"{"repr": "tree", "tasks": [{"node": 0, "start": 1, "work": 1, "comms": [0]}]}"#,
            r#"{"repr": "tree", "tasks": [{"node": 1, "work": 1, "comms": [0]}]}"#,
            r#"{"repr": "tree", "tasks": [{"node": 1, "start": 1, "work": 1, "comms": [0.5]}]}"#,
            r#"{"repr": "tree", "tasks": [{"node": 1, "start": 1, "work": 1}]}"#,
            r#"{"repr": "tree", "tasks": [{"node": 1, "start": 1, "work": 1, "comms": []}]}"#,
        ] {
            let parsed = Json::parse(body).unwrap();
            assert!(tree_schedule_from_json(&parsed).is_err(), "{body} must be rejected");
        }
        // An empty schedule is fine.
        let empty = Json::parse(r#"{"repr": "tree", "tasks": []}"#).unwrap();
        assert!(tree_schedule_from_json(&empty).unwrap().is_empty());
    }

    #[test]
    fn witnessed_solutions_are_lossless_on_the_wire() {
        // Chain and spider encodings carry full comm vectors and work.
        let instance = Instance::new(Platform::parse("chain\n2 3\n3 5\n").unwrap(), 5);
        let solution = SolverRegistry::global().solve("optimal", &instance).unwrap();
        let json = solution_to_json(&solution);
        let tasks = json.get("schedule").unwrap().get("tasks").unwrap().as_arr().unwrap();
        let original = solution.chain_schedule().unwrap();
        for (encoded, task) in tasks.iter().zip(original.tasks()) {
            assert_eq!(encoded.get("work").and_then(Json::as_i64), Some(task.work));
            let comms = encoded.get("comms").unwrap().as_arr().unwrap();
            assert_eq!(comms.len(), task.comms.len());
            assert_eq!(comms[0].as_i64(), Some(task.comms.first()));
        }
    }

    #[test]
    fn solutions_decode_back_to_the_identical_value() {
        let registry = SolverRegistry::global();
        // One instance per witness shape: chain, spider, tree + cover
        // (optimal on a tree), tree repr (exact on a tree), relaxation.
        let tree = Platform::parse("tree\nnode 0 1 2\nnode 1 2 3\nnode 0 4 5\n").unwrap();
        let cases: Vec<Solution> = vec![
            registry
                .solve("optimal", &Instance::new(Platform::parse("chain\n2 3\n3 5\n").unwrap(), 5))
                .unwrap(),
            registry
                .solve(
                    "spider-optimal",
                    &Instance::new(Platform::parse("spider\nleg 2 3 3 5\nleg 1 4\n").unwrap(), 6),
                )
                .unwrap(),
            registry.solve("optimal", &Instance::new(tree.clone(), 4)).unwrap(),
            registry.solve("exact", &Instance::new(tree.clone(), 3)).unwrap(),
            registry
                .solve("divisible", &Instance::new(Platform::fork(&[(1, 2), (2, 2)]).unwrap(), 4))
                .unwrap(),
            Solution::from_makespan("optimal", 42),
        ];
        for solution in cases {
            let json = solution_to_json(&solution);
            let reparsed = Json::parse(&json.to_string()).unwrap();
            let back = solution_from_json(&reparsed).unwrap();
            assert_eq!(back, solution, "wire round-trip must be lossless");
        }
    }

    #[test]
    fn solution_decoding_rejects_malformed_witnesses() {
        for body in [
            // No solver name.
            r#"{"makespan": 3}"#,
            // Unwitnessed without a makespan.
            r#"{"solver": "x", "schedule": null}"#,
            // Unknown repr.
            r#"{"solver": "x", "schedule": {"repr": "ring", "tasks": []}}"#,
            r#"{"solver": "x", "schedule": {"tasks": []}}"#,
            // Chain: comms length must equal proc (constructor asserts).
            r#"{"solver": "x", "schedule": {"repr": "chain", "tasks": [
                {"proc": 2, "start": 0, "work": 1, "comms": [0]}]}}"#,
            r#"{"solver": "x", "schedule": {"repr": "chain", "tasks": [
                {"proc": 0, "start": 0, "work": 1, "comms": []}]}}"#,
            // Chain: emission order is part of the representation.
            r#"{"solver": "x", "schedule": {"repr": "chain", "tasks": [
                {"proc": 1, "start": 5, "work": 1, "comms": [5]},
                {"proc": 1, "start": 0, "work": 1, "comms": [0]}]}}"#,
            // Spider: depth/comms mismatch and bad coordinates.
            r#"{"solver": "x", "schedule": {"repr": "spider", "tasks": [
                {"leg": 0, "depth": 2, "start": 0, "work": 1, "comms": [0]}]}}"#,
            r#"{"solver": "x", "schedule": {"repr": "spider", "tasks": [
                {"leg": -1, "depth": 1, "start": 0, "work": 1, "comms": [0]}]}}"#,
            r#"{"solver": "x", "schedule": {"repr": "spider", "tasks": [
                {"leg": 0, "depth": 0, "start": 0, "work": 1, "comms": []}]}}"#,
            // Bad cover payloads.
            r#"{"solver": "x", "cover": 3,
                "schedule": {"repr": "spider", "tasks": []}}"#,
            r#"{"solver": "x", "cover": "chain\n1 1\n",
                "schedule": {"repr": "spider", "tasks": []}}"#,
            r#"{"solver": "x", "cover": "garbage",
                "schedule": {"repr": "spider", "tasks": []}}"#,
        ] {
            let parsed = Json::parse(body).unwrap();
            assert!(solution_from_json(&parsed).is_err(), "{body} must be rejected");
        }
    }

    /// Decodes `text` with the one-pass reader and with the reference
    /// (parse, then walk the tree), asserts that the two agree, error
    /// messages included, and gives the reader's result. A `"schedule"`
    /// member is also decoded as a tree schedule both ways.
    fn read_as_the_tree_does(text: &str) -> Result<Solution, WireError> {
        let parsed = Json::parse(text);
        let read = solution_from_text(text);
        let reference = parsed.clone().and_then(|json| reference::solution_from_json(&json));
        assert_eq!(read, reference, "{text:?}");
        if let Some(schedule) = parsed.ok().as_ref().and_then(|json| json.get("schedule")) {
            assert_eq!(
                tree_schedule_from_json(schedule),
                reference::tree_schedule_from_json(schedule),
                "{text:?}"
            );
        }
        read
    }

    /// Every registered solver on a mixed fleet, as solved and as restored
    /// from its canonical instance, then an `exact` tree witness, a cover
    /// solution, a fractional relaxation and a makespan-only solution.
    fn solutions_of_every_shape() -> Vec<Solution> {
        let registry = SolverRegistry::global();
        let mut solutions = Vec::new();
        for instance in crate::fleet::mixed_fleet(40) {
            for solver in registry.solvers().filter(|s| s.supports(instance.kind())) {
                let canon = crate::canon::CanonicalInstance::of(&instance, solver.name(), None);
                if let Ok(canonical) = solver.solve(canon.instance()) {
                    solutions.push(canon.restore(&canonical));
                }
                solutions.extend(solver.solve(&instance));
            }
        }
        let tree = Platform::parse("tree\nnode 0 1 2\nnode 1 2 3\nnode 0 4 5\n").unwrap();
        let fork = Platform::fork(&[(1, 2), (2, 3)]).unwrap();
        solutions.extend([
            registry.solve("exact", &Instance::new(tree.clone(), 3)).unwrap(),
            registry.solve("optimal", &Instance::new(tree, 4)).unwrap(),
            registry.solve("divisible", &Instance::new(fork, 5)).unwrap(),
            Solution::from_makespan("optimal", 42),
        ]);
        solutions
    }

    #[test]
    fn the_reader_decodes_every_solution_as_the_tree_decoder_does() {
        let solutions = solutions_of_every_shape();
        let shapes = |pick: fn(&Solution) -> bool| solutions.iter().filter(|s| pick(s)).count();
        assert!(shapes(|s| s.chain_schedule().is_some()) > 0);
        assert!(shapes(|s| s.sub_platform().is_none() && s.spider_schedule().is_some()) > 0);
        assert!(shapes(|s| s.sub_platform().is_some()) > 0);
        assert!(shapes(|s| s.tree_schedule().is_some()) > 0);
        assert!(shapes(|s| s.relaxed_makespan().is_some_and(|t| t.fract() != 0.0)) > 0);
        for solution in solutions {
            let text = solution_to_json(&solution).to_string();
            assert_eq!(read_as_the_tree_does(&text), Ok(solution), "{text}");
            // Whitespace around every token reads the same.
            let spaced: String = text
                .chars()
                .map(|c| match c {
                    '{' | '}' | '[' | ']' | ',' | ':' => format!(" \n{c}\t\r "),
                    c => c.to_string(),
                })
                .collect();
            assert_eq!(read_as_the_tree_does(&spaced), read_as_the_tree_does(&text));
        }
    }

    /// Hand-built witnesses of each repr with negative and zero times, and
    /// times of 2^53 or more, which a JSON number prints rounded.
    fn solutions_with_edge_times() -> Vec<Solution> {
        const BIG: Time = 1 << 53;
        let chain = ChainSchedule::new(vec![
            TaskAssignment::new(1, 0, CommVector::new(vec![-5]), 0),
            TaskAssignment::new(2, BIG + 1, CommVector::new(vec![-3, BIG - 1]), 1 << 60),
        ]);
        let spider = SpiderSchedule::new(vec![
            SpiderTask::new(
                NodeId { leg: 0, depth: 2 },
                -BIG - 3,
                CommVector::new(vec![0, BIG]),
                -1,
            ),
            SpiderTask::new(NodeId { leg: 3, depth: 1 }, i64::MIN / 2, CommVector::new(vec![7]), 0),
        ]);
        let tree = TreeSchedule::new(vec![TreeTask::new(
            4,
            0,
            CommVector::new(vec![-(BIG + 5), 0, 9 * BIG + 1]),
            BIG,
        )]);
        vec![
            Solution::from_chain("optimal", chain),
            Solution::from_spider("optimal", spider),
            Solution::from_tree("exact", tree),
        ]
    }

    #[test]
    fn the_writer_prints_every_schedule_as_the_tree_did() {
        let mut solutions = solutions_of_every_shape();
        let edge_times = solutions_with_edge_times();
        solutions.extend(edge_times.iter().cloned());
        let shapes = |pick: fn(&Solution) -> bool| solutions.iter().filter(|s| pick(s)).count();
        assert!(shapes(|s| s.chain_schedule().is_some()) > 0);
        assert!(shapes(|s| s.sub_platform().is_none() && s.spider_schedule().is_some()) > 0);
        assert!(shapes(|s| s.sub_platform().is_some()) > 0);
        assert!(shapes(|s| s.tree_schedule().is_some()) > 0);
        assert!(shapes(|s| s.relaxed_makespan().is_some_and(|t| t.fract() != 0.0)) > 0);
        assert!(shapes(|s| !s.is_witnessed() && s.relaxed_makespan().is_none()) > 0);
        // Negative, zero, and 2^53 + 1 and -(2^53 + 3) printed rounded.
        let edge_text: String =
            edge_times.iter().map(|s| reference::solution_to_json(s).to_string()).collect();
        for time in ["[-5]", ":0,", ":9007199254740992,", ":-9007199254740996,"] {
            assert!(edge_text.contains(time), "{time} in {edge_text}");
        }
        for solution in &solutions {
            let json = solution_to_json(solution);
            let text = json.to_string();
            assert_eq!(text, reference::solution_to_json(solution).to_string());
            assert_eq!(Json::parse(&text).unwrap(), json, "{text}");
            let tasks = json.get("schedule").and_then(|s| s.get("tasks")).and_then(Json::as_arr);
            assert_eq!(tasks.map_or(0, <[Json]>::len), solution.n(), "{text}");
            if let Some(tree) = solution.tree_schedule() {
                let written = tree_schedule_to_json(tree);
                assert_eq!(written.to_string(), reference::tree_schedule_to_json(tree).to_string());
                assert_eq!(Some(&written), json.get("schedule"));
            }
        }
    }

    #[test]
    fn a_raw_value_answers_as_its_parsed_text() {
        let instance = Instance::new(Platform::parse("chain\n2 3\n3 5\n").unwrap(), 5);
        let solution = SolverRegistry::global().solve("optimal", &instance).unwrap();
        let schedule = solution_to_json(&solution).get("schedule").unwrap().clone();
        assert!(matches!(schedule, Json::Raw(_)));
        let parsed = Json::parse(&schedule.to_string()).unwrap();
        assert_eq!(schedule, parsed);
        assert_eq!(parsed, schedule);
        assert_eq!(schedule.as_obj(), parsed.as_obj());
        assert_eq!(schedule.get("repr").and_then(Json::as_str), Some("chain"));
        for other in [Json::Null, Json::Arr(Vec::new()), Json::obj([("repr", Json::str("chain"))])]
        {
            assert_ne!(schedule, other);
        }
        assert_eq!(schedule.as_arr(), None);
        assert_eq!(schedule.as_f64(), None);
        assert_eq!(schedule.as_bool(), None);
        assert_eq!(schedule.as_str(), None);
    }

    /// Request decoding builds `Json` trees: a value stays four words.
    #[test]
    fn a_json_value_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Json>(), 32);
    }

    #[test]
    fn the_reader_agrees_with_the_tree_decoder_on_hand_written_bodies() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let task = r#"{"proc": 1, "start": 2, "work": 3, "comms": [0]}"#;
        let mut bodies: Vec<String> = [
            // Members in another order.
            r#"{"schedule": {"tasks": [{"comms": [0], "work": 3, "start": 2, "proc": 1}], "repr": "chain"}, "solver": "optimal"}"#,
            r#"{"makespan": 7, "schedule": null, "solver": "optimal"}"#,
            r#"{"cover": "spider\nleg 1 2\n", "schedule": {"tasks": [{"comms": [0], "work": 2, "start": 1, "depth": 1, "leg": 0}], "repr": "spider"}, "solver": "optimal"}"#,
            // Duplicate keys: the first counts.
            r#"{"solver": "optimal", "solver": 5, "makespan": 3, "makespan": "x"}"#,
            r#"{"solver": 5, "solver": "optimal", "makespan": 3}"#,
            r#"{"solver": "optimal", "schedule": null, "schedule": {"repr": "ring"}, "makespan": 3}"#,
            r#"{"solver": "optimal", "schedule": {"repr": "chain", "repr": "ring", "tasks": [], "tasks": 7}}"#,
            r#"{"solver": "optimal", "schedule": {"repr": "chain", "tasks": [{"proc": 1, "proc": 2, "start": 0, "work": 1, "comms": [0], "comms": [0, 1]}]}}"#,
            r#"{"solver": "optimal", "schedule": {"repr": "chain", "tasks": [{"proc": "x", "proc": 1, "start": 0, "work": 1, "comms": [0]}]}}"#,
            r#"{"solver": "optimal", "cover": 3, "cover": "spider\nleg 1 2\n", "schedule": {"repr": "spider", "tasks": []}}"#,
            r#"{"solver": "optimal", "cover": null, "cover": 3, "schedule": {"repr": "spider", "tasks": []}}"#,
            r#"{"solver": "optimal", "cover": 3, "schedule": {"repr": "chain", "tasks": []}}"#,
            r#"{"solver": "optimal", "relaxed_makespan": "x", "relaxed_makespan": 2.5, "makespan": 3}"#,
            r#"{"solver": "optimal", "relaxed_makespan": 2.5, "makespan": "x"}"#,
            // Escaped keys and values.
            r#"{"solver": "optimal", "schedule": {"re\u0070r": "ch\u0061in", "tasks": []}}"#,
            r#"{"s\u006flver": "opt\u0069mal", "m\u0061kespan": 4}"#,
            r#"{"solver": "optimal", "m\u0061kespan": 5, "makespan": 6}"#,
            r#"{"solver": "optimal", "schedule": {"repr": "chain", "tasks": [{"pr\u006fc": 1, "start": 0, "work": 1, "c\u006fmms": [0]}]}}"#,
            r#"{"solver": "opt\"imal\\\n", "makespan": 4}"#,
            // Exact integers however written, 16 digits, and 2^53, which
            // is not exact.
            r#"{"solver": "optimal", "makespan": 1.0}"#,
            r#"{"solver": "optimal", "makespan": 1e2}"#,
            r#"{"solver": "optimal", "makespan": -0}"#,
            r#"{"solver": "optimal", "makespan": 1234567890123456}"#,
            r#"{"solver": "optimal", "makespan": 9007199254740991}"#,
            r#"{"solver": "optimal", "makespan": 9007199254740992}"#,
            r#"{"solver": "optimal", "makespan": 1.5}"#,
            r#"{"solver": "optimal", "relaxed_makespan": -0, "makespan": 3}"#,
            r#"{"solver": "optimal", "schedule": {"repr": "chain", "tasks": [{"proc": 1.0, "start": 1e1, "work": -0, "comms": [0.0]}]}}"#,
            r#"{"solver": "optimal", "schedule": {"repr": "tree", "tasks": [{"node": 1, "start": 1234567890123456, "work": 1, "comms": [9007199254740992]}]}}"#,
            // Values of every type where the decoders skip them.
            r#"{"solver": "optimal", "makespan": 3, "extra": [true, false, null, {"a": [1, "b"]}], "witnessed": false}"#,
            r#"{"solver": "optimal", "schedule": {"repr": "tree", "tasks": [7, null, []]}}"#,
            r#"{"solver": "optimal", "schedule": [], "makespan": 3}"#,
            // Whitespace, trailing data, and texts that are no solution.
            "  {\"solver\":\"optimal\",\"makespan\":3}\n\t ",
            r#"{"solver": "optimal", "makespan": 3} x"#,
            r#"{"solver": "optimal", "makespan": 3}{}"#,
            r#"{"solver": "optimal", "makespan": 3,}"#,
            r#"{"solver": "optimal", "schedule": nul}"#,
            r#"{"solver": "optimal", "schedule": nullx}"#,
            "[]",
            "null",
            "7",
            "\"optimal\"",
            "",
            "{",
            "{}",
        ]
        .map(String::from)
        .to_vec();
        // Nesting up to and past the cap: in a member the decoders skip,
        // in a task, and in place of an emission time.
        for depth in [58, 59, 60, 61, 62, 63, 64, 65, 200] {
            bodies.push(format!(
                r#"{{"solver": "optimal", "makespan": 3, "deep": {}}}"#,
                nested(depth)
            ));
            bodies.push(format!(
                r#"{{"solver": "optimal", "schedule": {{"repr": "chain", "tasks": [{}, {{"deep": {}}}]}}}}"#,
                task,
                nested(depth)
            ));
            bodies.push(format!(
                r#"{{"solver": "optimal", "schedule": {{"repr": "chain", "tasks": [{{"proc": 1, "start": 0, "work": 1, "comms": [{}]}}]}}}}"#,
                nested(depth)
            ));
        }
        for body in &bodies {
            let _ = read_as_the_tree_does(body);
        }
        // The first member of a name counts, escaped or not, and a number
        // is an integer by its value, however it is written.
        for (body, makespan) in [
            (r#"{"solver": "optimal", "solver": 5, "makespan": 3, "makespan": "x"}"#, 3),
            (r#"{"s\u006flver": "opt\u0069mal", "m\u0061kespan": 4}"#, 4),
            (r#"{"solver": "optimal", "m\u0061kespan": 5, "makespan": 6}"#, 5),
            (r#"{"solver": "optimal", "makespan": 1.0}"#, 1),
            (r#"{"solver": "optimal", "makespan": 1e2}"#, 100),
            (r#"{"solver": "optimal", "makespan": -0}"#, 0),
            (r#"{"solver": "optimal", "makespan": 1234567890123456}"#, 1_234_567_890_123_456),
        ] {
            let expected = Solution::from_makespan("optimal", makespan);
            assert_eq!(solution_from_text(body), Ok(expected), "{body}");
        }
        let escaped =
            r#"{"solver": "optimal", "schedule": {"re\u0070r": "ch\u0061in", "tasks": []}}"#;
        assert!(solution_from_text(escaped).unwrap().chain_schedule().is_some());
    }

    #[test]
    fn the_reader_agrees_with_the_tree_decoder_on_cut_and_mutated_bodies() {
        let instance = Instance::new(Platform::parse("spider\nleg 2 3 3 5\nleg 1 4\n").unwrap(), 6);
        let solution = SolverRegistry::global().solve("spider-optimal", &instance).unwrap();
        let text = solution_to_json(&solution).to_string();
        assert!(text.len() > 500, "a medium body: {text}");
        for end in 0..=text.len() {
            let _ = read_as_the_tree_does(&text[..end]);
        }
        let mut bytes = text.into_bytes();
        for at in 0..bytes.len() {
            let was = bytes[at];
            for b in *b"{}[]\",:\\ 1-.en" {
                bytes[at] = b;
                let _ = read_as_the_tree_does(std::str::from_utf8(&bytes).unwrap());
            }
            bytes[at] = was;
        }
    }

    #[test]
    fn errors_expose_stable_kinds() {
        let err = SolveError::UnknownSolver { name: "nope".into() };
        let json = error_to_json(&err);
        let inner = json.get("error").unwrap();
        assert_eq!(inner.get("kind").and_then(Json::as_str), Some("unknown-solver"));
        assert!(inner.get("message").and_then(Json::as_str).unwrap().contains("nope"));
        assert_eq!(error_kind(&SolveError::ZeroTasks), "zero-tasks");
    }
}
