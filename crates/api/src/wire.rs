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
//!   so clients can reconstruct and re-verify the witness;
//! * [`solution_from_json`] — the full inverse: chain, spider (with or
//!   without a recorded cover) and tree witnesses, relaxations and
//!   makespan-only solutions all decode back to the identical
//!   [`Solution`] — the persistent result store rides on this;
//! * [`summary_to_json`] / [`summary_from_json`] — the
//!   [`BatchSummary`] codec behind `/batch` replies (lossless,
//!   `cache_hits` included);
//! * [`tree_schedule_to_json`] / [`tree_schedule_from_json`] — the
//!   round-trip for the universal tree witness format, validating types
//!   without trusting the payload (feasibility stays the oracle's job);
//! * [`error_to_json`] / [`error_kind`] — every [`SolveError`] becomes a
//!   structured `{"error": {"kind": ..., "message": ...}}` body, so
//!   clients can dispatch on a stable kind string instead of scraping
//!   the human-readable message.
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

use crate::batch::BatchSummary;
use crate::error::SolveError;
use crate::instance::Instance;
use crate::platform::Platform;
use crate::solution::{ScheduleRepr, Solution};
use mst_platform::NodeId;
use mst_schedule::{
    ChainSchedule, CommVector, SpiderSchedule, SpiderTask, TaskAssignment, TreeSchedule, TreeTask,
};
use std::fmt;

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
#[derive(Debug, Clone, PartialEq)]
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
}

impl Json {
    /// Parses `text` as a single JSON value; trailing non-whitespace is
    /// an error, as is nesting deeper than an internal cap.
    pub fn parse(text: &str) -> Result<Json, WireError> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_whitespace(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(WireError::new(format!("trailing data at byte {pos}")));
        }
        Ok(value)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an integer, if it is one exactly.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 => {
                Some(*n as i64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
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
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9.007_199_254_740_992e15 {
                    write_int(f, *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
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
        }
    }
}

/// Writes `n` in decimal from a stack buffer: the bytes `write!` would
/// give, without going through the formatting machinery.
fn write_int(f: &mut fmt::Formatter<'_>, n: i64) -> fmt::Result {
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
    f.write_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"))
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

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::new("JSON nested too deeply"));
    }
    skip_whitespace(bytes, pos);
    match bytes.get(*pos) {
        None => Err(WireError::new("unexpected end of input")),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_whitespace(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_whitespace(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(WireError::new(format!("expected ',' or ']' at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_whitespace(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_whitespace(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_whitespace(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(WireError::new(format!("expected ':' at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_whitespace(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(WireError::new(format!("expected ',' or '}}' at byte {pos}"))),
                }
            }
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(WireError::new(format!("unexpected byte {:?} at {pos}", *c as char))),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, WireError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(WireError::new(format!("invalid literal at byte {pos}")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, WireError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    if let Some(n) = parse_small_int(&bytes[start..*pos]) {
        return Ok(Json::Num(n));
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| WireError::new("non-UTF-8 number"))?;
    let n: f64 =
        text.parse().map_err(|_| WireError::new(format!("invalid number {text:?} at {start}")))?;
    if !n.is_finite() {
        return Err(WireError::new(format!("non-finite number {text:?}")));
    }
    Ok(Json::Num(n))
}

/// The value of a `-?[0-9]{1,15}` literal, bit for bit what
/// `str::parse::<f64>` gives (`-0` included): fifteen digits stay below
/// 2^53, so the integer converts to `f64` exactly. `None` for any other
/// token, which takes the general path.
fn parse_small_int(token: &[u8]) -> Option<f64> {
    let (negative, digits) = match token.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, token),
    };
    if digits.is_empty() || digits.len() > 15 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let value = digits.iter().fold(0u64, |acc, &d| acc * 10 + u64::from(d - b'0')) as f64;
    Some(if negative { -value } else { value })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, WireError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(WireError::new(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next byte that needs escaping in one go,
        // validating only that run.
        let run = *pos;
        while *pos < bytes.len() && !needs_escape(bytes[*pos]) {
            *pos += 1;
        }
        out.push_str(
            std::str::from_utf8(&bytes[run..*pos])
                .map_err(|_| WireError::new("non-UTF-8 string content"))?,
        );
        match bytes.get(*pos) {
            None => return Err(WireError::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| WireError::new("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| WireError::new("invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| WireError::new(format!("invalid \\u escape {hex:?}")))?;
                        // Surrogates are not paired up — the wire format
                        // never emits them; reject rather than mangle.
                        let ch = char::from_u32(code).ok_or_else(|| {
                            WireError::new(format!("invalid codepoint {code:#x}"))
                        })?;
                        out.push(ch);
                        *pos += 4;
                    }
                    _ => return Err(WireError::new(format!("invalid escape at byte {pos}"))),
                }
                *pos += 1;
            }
            Some(_) => return Err(WireError::new("unescaped control character in string")),
        }
    }
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
/// task's root path, so the witness reconstructs exactly.
pub fn tree_schedule_to_json(schedule: &TreeSchedule) -> Json {
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

/// Decodes a tree schedule from its wire object.
///
/// Validates shape and types only — node ids, route lengths and times
/// are deliberately *not* checked against any platform here; that is
/// the feasibility oracle's job ([`crate::verify`] /
/// [`mst_schedule::check_tree`]), which reports structured violations
/// instead of rejecting the decode.
pub fn tree_schedule_from_json(json: &Json) -> Result<TreeSchedule, WireError> {
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
            item.get(key)
                .and_then(Json::as_i64)
                .ok_or_else(|| WireError::new(format!("tasks[{i}]: missing integer \"{key}\"")))
        };
        let node = field("node")?;
        if node < 1 {
            return Err(WireError::new(format!("tasks[{i}]: node must be at least 1, got {node}")));
        }
        let start = field("start")?;
        let work = field("work")?;
        let comms = item
            .get("comms")
            .and_then(Json::as_arr)
            .ok_or_else(|| WireError::new(format!("tasks[{i}]: missing array \"comms\"")))?
            .iter()
            .map(|t| {
                t.as_i64()
                    .ok_or_else(|| WireError::new(format!("tasks[{i}]: non-integer emission time")))
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

/// The emission times of a communication vector as a JSON array.
fn comms_to_json(comms: &CommVector) -> Json {
    Json::Arr(comms.times().iter().map(|&t| Json::int(t)).collect())
}

/// Encodes a solution: makespan, scheduled-task count, and (when
/// witnessed) the schedule itself, task by task in emission order.
///
/// The encoding is lossless: each task carries its full communication
/// vector (`"comms"`) and per-task work alongside the derived
/// `start`/`end`, so a client can rebuild the exact witness — tree
/// witnesses round-trip through [`tree_schedule_from_json`].
pub fn solution_to_json(solution: &Solution) -> Json {
    let schedule = match solution.schedule() {
        None => Json::Null,
        Some(ScheduleRepr::Chain(s)) => Json::obj([
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
        Some(ScheduleRepr::Spider(s)) => Json::obj([
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
        Some(ScheduleRepr::Tree(s)) => tree_schedule_to_json(s),
    };
    let relaxed = match solution.relaxed_makespan() {
        Some(t) => Json::Num(t),
        None => Json::Null,
    };
    let cover = match solution.sub_platform() {
        Some(spider) => Json::str(Platform::Spider(spider.clone()).to_text()),
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
            t.as_i64()
                .ok_or_else(|| WireError::new(format!("tasks[{i}]: non-integer emission time")))
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
            return Err(WireError::new(format!("tasks[{i}]: proc must be at least 1, got {proc}")));
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
            return Err(WireError::new(format!("tasks[{i}]: leg must be non-negative, got {leg}")));
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

/// Decodes a [`solution_to_json`] body back into a [`Solution`] — the
/// inverse the persistent result store needs to warm-start the cache.
///
/// The decode is structural: field types, vector lengths and emission
/// order are validated (malformed bodies error instead of panicking),
/// but feasibility is **not** re-derived here — that stays
/// [`crate::verify`]'s job. `makespan`/`scheduled`/`witnessed` are
/// recomputed from the decoded schedule, so a tampered summary field
/// cannot disagree with the witness it rides along.
pub fn solution_from_json(json: &Json) -> Result<Solution, WireError> {
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
        Some("chain") => Ok(Solution::from_chain(solver, chain_schedule_from_json(schedule)?)),
        Some("spider") => {
            let decoded = spider_schedule_from_json(schedule)?;
            match json.get("cover") {
                None | Some(Json::Null) => Ok(Solution::from_spider(solver, decoded)),
                Some(cover) => {
                    let text = cover
                        .as_str()
                        .ok_or_else(|| WireError::new("\"cover\" must be a platform string"))?;
                    let platform = Platform::parse(text)
                        .map_err(|e| WireError::new(format!("invalid cover platform: {e}")))?;
                    let spider = platform
                        .as_spider()
                        .cloned()
                        .ok_or_else(|| WireError::new("\"cover\" must be a spider platform"))?;
                    Ok(Solution::from_cover(solver, spider, decoded))
                }
            }
        }
        Some("tree") => Ok(Solution::from_tree(solver, tree_schedule_from_json(schedule)?)),
        Some(other) => Err(WireError::new(format!("unknown schedule repr {other:?}"))),
        None => Err(WireError::new("missing string field \"repr\"")),
    }
}

/// Encodes a [`BatchSummary`] — the `"summary"` member of `/batch`
/// replies and NDJSON trailer lines.
pub fn summary_to_json(summary: &BatchSummary) -> Json {
    Json::obj([
        ("solved", Json::int(summary.solved as i64)),
        ("failed", Json::int(summary.failed as i64)),
        ("cancelled", Json::int(summary.cancelled as i64)),
        ("cache_hits", Json::int(summary.cache_hits as i64)),
        ("total_tasks", Json::int(summary.total_tasks as i64)),
        ("total_makespan", Json::int(summary.total_makespan)),
        ("max_makespan", Json::int(summary.max_makespan)),
    ])
}

/// Decodes a [`summary_to_json`] body. Counters must be non-negative
/// integers; `cache_hits` is optional (pre-cache producers omit it).
pub fn summary_from_json(json: &Json) -> Result<BatchSummary, WireError> {
    let count = |key: &str| -> Result<usize, WireError> {
        match json.get(key) {
            None if key == "cache_hits" => Ok(0),
            value => {
                value.and_then(Json::as_i64).filter(|&n| n >= 0).map(|n| n as usize).ok_or_else(
                    || WireError::new(format!("missing non-negative integer field \"{key}\"")),
                )
            }
        }
    };
    Ok(BatchSummary {
        solved: count("solved")?,
        failed: count("failed")?,
        cancelled: count("cancelled")?,
        cache_hits: count("cache_hits")?,
        total_tasks: count("total_tasks")?,
        total_makespan: json
            .get("total_makespan")
            .and_then(Json::as_i64)
            .ok_or_else(|| WireError::new("missing integer field \"total_makespan\""))?,
        max_makespan: json
            .get("max_makespan")
            .and_then(Json::as_i64)
            .ok_or_else(|| WireError::new("missing integer field \"max_makespan\""))?,
    })
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

    #[test]
    fn malformed_bodies_error_not_panic() {
        let cases = [
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
        for case in cases {
            assert!(Json::parse(case).is_err(), "{case:?} must fail to parse");
        }
        // Depth bombing fails cleanly instead of recursing without bound.
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
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

    #[test]
    fn summaries_round_trip_and_validate() {
        let summary = BatchSummary {
            solved: 7,
            failed: 2,
            cancelled: 1,
            cache_hits: 4,
            total_tasks: 35,
            total_makespan: 480,
            max_makespan: 99,
        };
        let json = summary_to_json(&summary);
        let back = summary_from_json(&Json::parse(&json.to_string()).unwrap()).unwrap();
        assert_eq!(back, summary);
        // cache_hits is optional for pre-cache producers.
        let legacy = Json::parse(
            r#"{"solved": 1, "failed": 0, "cancelled": 0,
                "total_tasks": 5, "total_makespan": 14, "max_makespan": 14}"#,
        )
        .unwrap();
        assert_eq!(summary_from_json(&legacy).unwrap().cache_hits, 0);
        for body in [
            r#"{}"#,
            r#"{"solved": -1, "failed": 0, "cancelled": 0, "cache_hits": 0,
                "total_tasks": 0, "total_makespan": 0, "max_makespan": 0}"#,
            r#"{"solved": 1, "failed": 0, "cancelled": 0, "cache_hits": 0,
                "total_tasks": 0, "max_makespan": 0}"#,
        ] {
            assert!(summary_from_json(&Json::parse(body).unwrap()).is_err(), "{body}");
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
