//! # mst-store — the persistent result store
//!
//! An append-only record of solved instances: which tenant solved what,
//! with which solver, how fast, and the full canonical solution — enough
//! to warm-start the in-memory solution cache of `mst-serve` after a
//! restart and to answer `GET /history` / `mst history` queries offline.
//!
//! One zero-dependency backend implements the [`StoreBackend`] trait:
//! [`FileStore`], an append-only file log of length-prefixed JSON frames
//! (`[u32 LE length][record JSON]`). The log is the only copy of the
//! solutions. In memory the store keeps an **index**: for each record,
//! where its solution lies in the file, plus the small fields a history
//! page shows, so memory grows by a few hundred bytes per record however
//! large the solutions are. History pages walk the index and never read
//! the file; warm start reads each solution back and decodes it once,
//! straight from its text (`mst_api::wire::solution_from_text`), with no
//! `Json` tree between.
//!
//! Opening a log streams it frame by frame and checks each frame in one
//! pass over its bytes: framing, UTF-8, JSON syntax (the solution with a
//! scan that builds nothing) and small-field types. At the first frame
//! that fails, open **truncates the torn tail** left by a crash or
//! `SIGKILL` mid-append, so recovery is automatic: everything before the
//! first bad byte survives, everything after it is dropped. Appends
//! refuse a record whose frame open would read as corruption. A
//! well-formed record whose solution this build cannot decode (one
//! written by a newer build, say) is kept: history lists it and warm
//! start skips it.
//!
//! [`FlakyStore`] wraps any backend with a toggleable write-failure
//! injection point, so degraded-mode tests can force the append path to
//! fail deterministically and watch the service keep serving.
//!
//! Records store the *canonical* form of each instance (see
//! `mst_api::canon`): the platform text and deadline are
//! post-normalisation, and `canon_hash` is the cache key's content hash,
//! so a warm start can insert each record into the memo without
//! re-solving or re-canonicalising anything.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use mst_api::wire::{quoted, read_object, solution_from_json, solution_from_text, Json, WireError};
use mst_api::{CacheKey, Solution};
use mst_platform::Time;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader, Read as _, Seek, SeekFrom, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Frames longer than this are treated as corruption, not data — no real
/// record comes close, and it bounds recovery-time allocations.
const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Read-ahead for the sequential passes over the log (open, warm start).
const READ_BUFFER: usize = 64 * 1024;

/// One solved instance, as persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Tenant the solve was accounted to (`"default"` for anonymous).
    pub tenant: String,
    /// Solver name the request asked for.
    pub solver: String,
    /// Canonical platform in the instance text format.
    pub platform: String,
    /// Task count of the instance.
    pub tasks: usize,
    /// Canonical deadline (already divided by the extracted scale);
    /// `None` for plain makespan solves.
    pub deadline: Option<Time>,
    /// The cache key's 128-bit content hash, as 32 lowercase hex digits.
    pub canon_hash: String,
    /// Makespan of the canonical solution.
    pub makespan: Time,
    /// Tasks scheduled by the witness (0 for unwitnessed solutions).
    pub scheduled: usize,
    /// Wall-clock solve time, microseconds.
    pub elapsed_us: u64,
    /// The canonical solution as a `mst_api::wire::solution_to_json`
    /// object — decodable via [`mst_api::wire::solution_from_json`].
    pub solution: Json,
}

impl Record {
    /// Encodes the record as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("tenant", Json::str(self.tenant.clone())),
            ("solver", Json::str(self.solver.clone())),
            ("platform", Json::str(self.platform.clone())),
            ("tasks", Json::int(self.tasks as i64)),
            ("deadline", self.deadline.map(Json::int).unwrap_or(Json::Null)),
            ("canon_hash", Json::str(self.canon_hash.clone())),
            ("makespan", Json::int(self.makespan)),
            ("scheduled", Json::int(self.scheduled as i64)),
            ("elapsed_us", Json::int(self.elapsed_us as i64)),
            ("solution", self.solution.clone()),
        ])
    }

    /// Decodes a record, validating field types — including that the
    /// embedded solution decodes as a well-formed wire solution.
    pub fn from_json(json: &Json) -> Result<Record, WireError> {
        let Summary {
            tenant,
            solver,
            platform,
            tasks,
            deadline,
            canon_hash,
            makespan,
            scheduled,
            elapsed_us,
        } = Summary::from_fields(HEAD.map(|key| json.get(key).cloned()))?;
        let solution = json
            .get("solution")
            .ok_or_else(|| WireError::new("missing object field \"solution\""))?
            .clone();
        // The embedded solution must itself decode; a store carrying
        // undecodable solutions could never warm-start the cache.
        solution_from_json(&solution)?;
        Ok(Record {
            tenant,
            solver,
            platform,
            tasks,
            deadline,
            canon_hash,
            makespan,
            scheduled,
            elapsed_us,
            solution,
        })
    }
}

/// A stored record without its solution: the fields a history page
/// shows.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// See [`Record::tenant`].
    pub tenant: String,
    /// See [`Record::solver`].
    pub solver: String,
    /// See [`Record::platform`].
    pub platform: String,
    /// See [`Record::tasks`].
    pub tasks: usize,
    /// See [`Record::deadline`].
    pub deadline: Option<Time>,
    /// See [`Record::canon_hash`].
    pub canon_hash: String,
    /// See [`Record::makespan`].
    pub makespan: Time,
    /// See [`Record::scheduled`].
    pub scheduled: usize,
    /// See [`Record::elapsed_us`].
    pub elapsed_us: u64,
}

impl Summary {
    /// Checks the types of the [`HEAD`] fields, each given as the value of
    /// the first member of its name: the one check of the small fields for
    /// [`Record::from_json`] and for every frame [`FileStore::open`] reads.
    fn from_fields(fields: [Option<Json>; HEAD.len()]) -> Result<Summary, WireError> {
        let [tenant, solver, platform, tasks, deadline, canon_hash, makespan, scheduled, elapsed_us] =
            fields;
        let text = |value: Option<Json>, key: &str| match value {
            Some(Json::Str(text)) => Ok(text),
            _ => Err(WireError::new(format!("missing string field \"{key}\""))),
        };
        let non_negative = |value: Option<Json>, key: &str| {
            value.and_then(|value| value.as_i64()).filter(|&n| n >= 0).ok_or_else(|| {
                WireError::new(format!("missing non-negative integer field \"{key}\""))
            })
        };
        let deadline = match deadline {
            None | Some(Json::Null) => None,
            Some(value) => Some(
                value.as_i64().ok_or_else(|| WireError::new("\"deadline\" must be an integer"))?,
            ),
        };
        Ok(Summary {
            tenant: text(tenant, "tenant")?,
            solver: text(solver, "solver")?,
            platform: text(platform, "platform")?,
            tasks: non_negative(tasks, "tasks")? as usize,
            deadline,
            canon_hash: text(canon_hash, "canon_hash")?,
            makespan: makespan
                .and_then(|value| value.as_i64())
                .ok_or_else(|| WireError::new("missing integer field \"makespan\""))?,
            scheduled: non_negative(scheduled, "scheduled")? as usize,
            elapsed_us: non_negative(elapsed_us, "elapsed_us")? as u64,
        })
    }
}

/// The small fields of a record, in the order [`write_frame`] writes them.
const HEAD: [&str; 9] = [
    "tenant",
    "solver",
    "platform",
    "tasks",
    "deadline",
    "canon_hash",
    "makespan",
    "scheduled",
    "elapsed_us",
];

/// The callback of [`StoreBackend::replay`]: the position of the
/// record's tenant in the requested list, then its cache key and decoded
/// solution, or `None` when this build cannot decode them.
pub type ReplayVisit<'a> = dyn FnMut(usize, Option<(CacheKey, Solution)>) + 'a;

/// An append-only store of [`Record`]s. Implementations are thread-safe;
/// one instance serves every connection handler concurrently.
pub trait StoreBackend: Send + Sync + std::fmt::Debug {
    /// Appends one record durably (for file-backed stores, flushed
    /// before returning).
    fn append(&self, record: &Record) -> io::Result<()>;

    /// Appends a batch of records; the default loops [`StoreBackend::append`].
    fn append_all(&self, records: &[Record]) -> io::Result<()> {
        for record in records {
            self.append(record)?;
        }
        Ok(())
    }

    /// The page `GET /history` shows: optional tenant and solver
    /// equality filters, then the **newest** `limit` matching records,
    /// newest first. No solution is read.
    fn history(&self, tenant: Option<&str>, solver: Option<&str>, limit: usize) -> Vec<Summary>;

    /// Warm start's read: the records of the named `tenants`, oldest
    /// first, each solution read back and decoded once and handed to
    /// `visit` (see [`ReplayVisit`]). Records of other tenants are not
    /// read.
    fn replay(&self, tenants: &[&str], visit: &mut ReplayVisit<'_>) -> io::Result<()>;

    /// Number of records currently stored.
    fn len(&self) -> usize;

    /// Whether the store holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A fault-injection wrapper around any backend: while
/// [`FlakyStore::set_failing`] is on, every append returns an I/O error
/// without touching the inner store. This is the write-failure injection
/// point behind the degraded-mode server tests and the chaos harness —
/// a solve path in front of a `FlakyStore` must keep serving results
/// while the store is down and resume persisting when it recovers.
#[derive(Debug)]
pub struct FlakyStore {
    inner: std::sync::Arc<dyn StoreBackend>,
    failing: std::sync::atomic::AtomicBool,
    failed_appends: AtomicU64,
}

impl FlakyStore {
    /// Wraps `inner`; writes succeed until [`FlakyStore::set_failing`].
    pub fn new(inner: std::sync::Arc<dyn StoreBackend>) -> FlakyStore {
        FlakyStore {
            inner,
            failing: std::sync::atomic::AtomicBool::new(false),
            failed_appends: AtomicU64::new(0),
        }
    }

    /// Turns write failure injection on or off.
    pub fn set_failing(&self, failing: bool) {
        self.failing.store(failing, Ordering::SeqCst);
    }

    /// Whether appends currently fail.
    pub fn is_failing(&self) -> bool {
        self.failing.load(Ordering::SeqCst)
    }

    /// How many appends were refused by injection so far.
    pub fn failed_appends(&self) -> u64 {
        self.failed_appends.load(Ordering::SeqCst)
    }
}

impl StoreBackend for FlakyStore {
    fn append(&self, record: &Record) -> io::Result<()> {
        if self.is_failing() {
            self.failed_appends.fetch_add(1, Ordering::SeqCst);
            return Err(io::Error::other("injected store write failure"));
        }
        self.inner.append(record)
    }

    fn history(&self, tenant: Option<&str>, solver: Option<&str>, limit: usize) -> Vec<Summary> {
        self.inner.history(tenant, solver, limit)
    }

    fn replay(&self, tenants: &[&str], visit: &mut ReplayVisit<'_>) -> io::Result<()> {
        self.inner.replay(tenants, visit)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

/// Tenant and solver names, each stored once and referred to by number.
/// A log holds few distinct names, so a lookup is a scan.
#[derive(Default)]
struct Names(Vec<String>);

impl Names {
    fn intern(&mut self, name: &str) -> u32 {
        self.id(name).unwrap_or_else(|| {
            self.0.push(name.to_string());
            self.0.len() as u32 - 1
        })
    }

    fn id(&self, name: &str) -> Option<u32> {
        self.0.iter().position(|n| n == name).map(|id| id as u32)
    }

    fn name(&self, id: u32) -> &str {
        &self.0[id as usize]
    }
}

/// A record's `canon_hash` as the index keeps it: the number, when the
/// text is the 32 lowercase hex digits every writer produces, else the
/// text itself, so history shows it unchanged.
enum CanonHash {
    Hex(u128),
    Text(Box<str>),
}

impl CanonHash {
    fn of(text: String) -> CanonHash {
        let canonical =
            text.len() == 32 && text.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        match u128::from_str_radix(&text, 16) {
            Ok(hash) if canonical => CanonHash::Hex(hash),
            _ => CanonHash::Text(text.into_boxed_str()),
        }
    }

    /// The cache key's hash, read as warm start always has.
    fn key(&self) -> Option<u128> {
        match self {
            CanonHash::Hex(hash) => Some(*hash),
            CanonHash::Text(text) => u128::from_str_radix(text, 16).ok(),
        }
    }

    fn text(&self) -> String {
        match self {
            CanonHash::Hex(hash) => format!("{hash:032x}"),
            CanonHash::Text(text) => text.to_string(),
        }
    }
}

/// One record in the index: where its solution text lies in the log, and
/// its small fields.
struct Entry {
    solution_at: u64,
    solution_len: u32,
    tenant: u32,
    solver: u32,
    platform: Box<str>,
    tasks: usize,
    deadline: Option<Time>,
    canon_hash: CanonHash,
    makespan: Time,
    scheduled: usize,
    elapsed_us: u64,
}

impl Entry {
    fn new(names: &mut Names, summary: Summary, solution: Range<u64>) -> Entry {
        Entry {
            solution_at: solution.start,
            solution_len: (solution.end - solution.start) as u32,
            tenant: names.intern(&summary.tenant),
            solver: names.intern(&summary.solver),
            platform: summary.platform.into_boxed_str(),
            tasks: summary.tasks,
            deadline: summary.deadline,
            canon_hash: CanonHash::of(summary.canon_hash),
            makespan: summary.makespan,
            scheduled: summary.scheduled,
            elapsed_us: summary.elapsed_us,
        }
    }

    fn summary(&self, names: &Names) -> Summary {
        Summary {
            tenant: names.name(self.tenant).to_string(),
            solver: names.name(self.solver).to_string(),
            platform: self.platform.to_string(),
            tasks: self.tasks,
            deadline: self.deadline,
            canon_hash: self.canon_hash.text(),
            makespan: self.makespan,
            scheduled: self.scheduled,
            elapsed_us: self.elapsed_us,
        }
    }

    /// The cache key and solution of this record, given its solution
    /// text; `None` when either does not decode.
    fn decode(&self, text: &[u8], names: &Names) -> Option<(CacheKey, Solution)> {
        let hash = self.canon_hash.key()?;
        let solution = solution_from_text(std::str::from_utf8(text).ok()?).ok()?;
        let solver = names.name(self.solver).to_string();
        Some((CacheKey { hash, solver, deadline: self.deadline }, solution))
    }
}

struct FileInner {
    /// Opened for appending: every write lands at the end whatever the
    /// read position, so warm start can seek freely.
    file: File,
    /// Size of the log in bytes: where the next frame starts.
    end: u64,
    index: Vec<Entry>,
    names: Names,
}

/// The append-only file log: `[u32 LE length][record JSON]` frames.
///
/// The solutions live only in the file. The store keeps an index in
/// memory: per record, the offset and length of its solution text, its
/// tenant and solver (interned), its `canon_hash` as a number, and the
/// other small fields. History pages are served from the index alone;
/// [`StoreBackend::replay`] reads solutions back by offset.
pub struct FileStore {
    path: PathBuf,
    frames_read: AtomicU64,
    inner: Mutex<FileInner>,
}

impl FileStore {
    /// Opens (or creates) the log at `path`, checking every frame as it
    /// streams past.
    ///
    /// A frame passes when its length is in bounds, its payload is
    /// UTF-8 and a JSON object (checked by a scan that builds nothing),
    /// and its small fields have their types; its solution is not
    /// decoded. Recovery is built into open: at the first frame that
    /// fails, the file is truncated to the last good byte and scanning
    /// stops — a crash mid-append costs at most the record being
    /// written, never the log.
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileStore> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().read(true).append(true).create(true).open(&path)?;
        let size = file.metadata()?.len();
        let mut reader = BufReader::with_capacity(READ_BUFFER, &file);
        let mut names = Names::default();
        let mut index = Vec::new();
        let mut payload = Vec::new();
        let mut end = 0u64;
        while let Some((summary, solution)) = read_frame(&mut reader, size - end, &mut payload)? {
            let at = end + 4;
            index.push(Entry::new(
                &mut names,
                summary,
                at + solution.start as u64..at + solution.end as u64,
            ));
            end = at + payload.len() as u64;
        }
        drop(reader);
        if end < size {
            // Torn tail: drop everything from the first bad frame on.
            file.set_len(end)?;
        }
        Ok(FileStore {
            path,
            frames_read: AtomicU64::new(0),
            inner: Mutex::new(FileInner { file, end, index, names }),
        })
    }

    /// The path this store appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Solutions read back from the log since open. Warm start reads each
    /// of its records once; history pages read none.
    pub fn frames_read(&self) -> u64 {
        self.frames_read.load(Ordering::Relaxed)
    }

    fn lock(&self) -> MutexGuard<'_, FileInner> {
        self.inner.lock().expect("store poisoned")
    }
}

/// Reads the next frame into `payload`, `left` bytes before the end of
/// the log. `None` when the frame is torn, oversized or fails
/// [`parse_frame`]; otherwise its small fields and the range of its
/// solution text in the payload.
fn read_frame(
    reader: &mut impl io::Read,
    left: u64,
    payload: &mut Vec<u8>,
) -> io::Result<Option<(Summary, Range<usize>)>> {
    if left < 4 {
        return Ok(None);
    }
    let mut prefix = [0u8; 4];
    reader.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix);
    if len == 0 || len > MAX_FRAME_BYTES || 4 + u64::from(len) > left {
        return Ok(None);
    }
    payload.resize(len as usize, 0);
    reader.read_exact(payload)?;
    Ok(parse_frame(payload))
}

/// Checks one frame's payload in one pass, without building its solution:
/// UTF-8, a JSON object, and the small fields as [`Record::from_json`]
/// checks them. The solution member must be there and be valid JSON, but
/// need not decode in this build.
fn parse_frame(payload: &[u8]) -> Option<(Summary, Range<usize>)> {
    let text = std::str::from_utf8(payload).ok()?;
    let mut head: [Option<Json>; HEAD.len()] = Default::default();
    let mut solution = None;
    // The first member of a name counts, as in `Json::get`.
    read_object(text, |key, value| {
        match HEAD.iter().position(|&name| name == key) {
            Some(i) if head[i].is_none() => head[i] = Some(value.parse()?),
            None if key == "solution" && solution.is_none() => solution = Some(value.skip()?),
            _ => {}
        }
        Ok(())
    })
    .ok()?;
    Some((Summary::from_fields(head).ok()?, solution?))
}

/// Appends `record`'s frame to `out`, written straight from its fields
/// (the bytes `record.to_json().to_string()` would give), and returns
/// where in `out` its solution text lies.
///
/// Two kinds of record are refused with [`io::ErrorKind::InvalidInput`],
/// and `out` left as it was, because [`read_frame`] would read their frames as
/// corruption, and opening the log would truncate it there, losing that
/// record and every record appended after it: a payload over
/// [`MAX_FRAME_BYTES`], and a small field of 2^53 or more in magnitude
/// (JSON numbers are doubles here, so the frame would print it rounded
/// and [`Summary::from_fields`] refuses to read it back).
fn write_frame(record: &Record, out: &mut Vec<u8>) -> io::Result<Range<usize>> {
    let integers = [
        ("tasks", record.tasks as u64),
        ("deadline", record.deadline.map_or(0, i64::unsigned_abs)),
        ("makespan", record.makespan.unsigned_abs()),
        ("scheduled", record.scheduled as u64),
        ("elapsed_us", record.elapsed_us),
    ];
    if let Some((key, n)) = integers.into_iter().find(|&(_, n)| n >= 1 << 53) {
        let message = format!("a record's \"{key}\" of magnitude {n} is not below 2^53");
        return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
    }
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    write!(
        out,
        "{{\"tenant\":{},\"solver\":{},\"platform\":{},\"tasks\":{},\"deadline\":{},\
         \"canon_hash\":{},\"makespan\":{},\"scheduled\":{},\"elapsed_us\":{},\"solution\":",
        quoted(&record.tenant),
        quoted(&record.solver),
        quoted(&record.platform),
        Json::int(record.tasks as i64),
        record.deadline.map_or(Json::Null, Json::int),
        quoted(&record.canon_hash),
        Json::int(record.makespan),
        Json::int(record.scheduled as i64),
        Json::int(record.elapsed_us as i64),
    )?;
    let solution = out.len();
    write!(out, "{}}}", record.solution)?;
    let solution = solution..out.len() - 1;
    let payload = out.len() - start - 4;
    match u32::try_from(payload) {
        Ok(len) if len <= MAX_FRAME_BYTES => {
            out[start..start + 4].copy_from_slice(&len.to_le_bytes());
            Ok(solution)
        }
        _ => {
            out.truncate(start);
            let message =
                format!("a {payload}-byte record exceeds the {MAX_FRAME_BYTES}-byte frame limit");
            Err(io::Error::new(io::ErrorKind::InvalidInput, message))
        }
    }
}

impl StoreBackend for FileStore {
    fn append(&self, record: &Record) -> io::Result<()> {
        self.append_all(std::slice::from_ref(record))
    }

    fn append_all(&self, records: &[Record]) -> io::Result<()> {
        if records.is_empty() {
            return Ok(());
        }
        // Every frame is encoded, and its length checked, before any
        // byte is written: a refused record leaves the log untouched.
        let mut buffer = Vec::new();
        let solutions =
            records.iter().map(|r| write_frame(r, &mut buffer)).collect::<io::Result<Vec<_>>>()?;
        let mut inner = self.lock();
        let inner = &mut *inner;
        let at = inner.end;
        if let Err(e) = inner.file.write_all(&buffer).and_then(|()| inner.file.flush()) {
            // Cut off any part of the batch that reached the file, so the
            // records appended after this one stay reachable on reopen.
            let _ = inner.file.set_len(at);
            return Err(e);
        }
        inner.end += buffer.len() as u64;
        for (record, solution) in records.iter().zip(solutions) {
            let summary = Summary {
                tenant: record.tenant.clone(),
                solver: record.solver.clone(),
                platform: record.platform.clone(),
                tasks: record.tasks,
                deadline: record.deadline,
                canon_hash: record.canon_hash.clone(),
                makespan: record.makespan,
                scheduled: record.scheduled,
                elapsed_us: record.elapsed_us,
            };
            let solution = at + solution.start as u64..at + solution.end as u64;
            inner.index.push(Entry::new(&mut inner.names, summary, solution));
        }
        Ok(())
    }

    fn history(&self, tenant: Option<&str>, solver: Option<&str>, limit: usize) -> Vec<Summary> {
        let inner = self.lock();
        // A filter naming no stored tenant or solver matches nothing.
        let id = |name: Option<&str>| match name {
            None => Ok(None),
            Some(name) => inner.names.id(name).map(Some).ok_or(()),
        };
        let (Ok(tenant), Ok(solver)) = (id(tenant), id(solver)) else { return Vec::new() };
        inner
            .index
            .iter()
            .rev()
            .filter(|e| tenant.is_none_or(|t| e.tenant == t))
            .filter(|e| solver.is_none_or(|s| e.solver == s))
            .take(limit)
            .map(|e| e.summary(&inner.names))
            .collect()
    }

    fn replay(&self, tenants: &[&str], visit: &mut ReplayVisit<'_>) -> io::Result<()> {
        let inner = self.lock();
        // For each interned name, its position in `tenants`.
        let wanted: Vec<Option<usize>> =
            inner.names.0.iter().map(|n| tenants.iter().position(|t| t == n)).collect();
        let mut reader = BufReader::with_capacity(READ_BUFFER, &inner.file);
        reader.seek(SeekFrom::Start(0))?;
        let mut at = 0u64;
        let mut text = Vec::new();
        for entry in &inner.index {
            let Some(tenant) = wanted[entry.tenant as usize] else { continue };
            reader.seek_relative((entry.solution_at - at) as i64)?;
            text.resize(entry.solution_len as usize, 0);
            reader.read_exact(&mut text)?;
            at = entry.solution_at + u64::from(entry.solution_len);
            self.frames_read.fetch_add(1, Ordering::Relaxed);
            visit(tenant, entry.decode(&text, &inner.names));
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.lock().index.len()
    }
}

impl std::fmt::Debug for FileStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileStore").field("path", &self.path).field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_api::wire::solution_to_json;
    use mst_api::{Instance, Platform, SolverRegistry};

    fn sample(tenant: &str, solver: &str, tasks: usize) -> Record {
        let instance = Instance::new(Platform::parse("chain\n2 3\n3 5\n").unwrap(), tasks);
        let solution = SolverRegistry::global().solve(solver, &instance).unwrap();
        Record {
            tenant: tenant.to_string(),
            solver: solver.to_string(),
            platform: instance.platform.to_text(),
            tasks,
            deadline: None,
            canon_hash: format!("{:032x}", tasks as u128),
            makespan: solution.makespan(),
            scheduled: solution.n(),
            elapsed_us: 42,
            solution: solution_to_json(&solution),
        }
    }

    /// One record's frame, as [`FileStore::append`] writes it.
    fn encode_frame(record: &Record) -> io::Result<Vec<u8>> {
        let mut frame = Vec::new();
        write_frame(record, &mut frame)?;
        Ok(frame)
    }

    /// Every record's summary, oldest first.
    fn records(store: &FileStore) -> Vec<Summary> {
        let mut all = store.history(None, None, usize::MAX);
        all.reverse();
        all
    }

    fn tmp(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("mst-store-test-{}-{name}.log", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn records_round_trip_through_json() {
        let record = sample("acme", "optimal", 5);
        let json = record.to_json();
        let back = Record::from_json(&Json::parse(&json.to_string()).unwrap()).unwrap();
        assert_eq!(back, record);
        // And the embedded solution is decodable.
        let solution = solution_from_json(&back.solution).unwrap();
        assert_eq!(solution.makespan(), record.makespan);
    }

    #[test]
    fn bad_record_bodies_are_rejected() {
        for body in [
            r#"{}"#,
            r#"{"tenant": "a", "solver": "s", "platform": "p", "tasks": 1,
                "canon_hash": "00", "makespan": 1, "scheduled": 0, "elapsed_us": 0}"#,
            r#"{"tenant": "a", "solver": "s", "platform": "p", "tasks": -1,
                "canon_hash": "00", "makespan": 1, "scheduled": 0, "elapsed_us": 0,
                "solution": {"solver": "s", "makespan": 1}}"#,
            r#"{"tenant": "a", "solver": "s", "platform": "p", "tasks": 1,
                "canon_hash": "00", "makespan": 1, "scheduled": 0, "elapsed_us": 0,
                "solution": {"makespan": 1}}"#,
        ] {
            assert!(Record::from_json(&Json::parse(body).unwrap()).is_err(), "{body}");
        }
    }

    #[test]
    fn file_store_appends_and_queries() {
        let path = tmp("query");
        let store = FileStore::open(&path).unwrap();
        store.append(&sample("a", "optimal", 3)).unwrap();
        store.append(&sample("b", "exact", 4)).unwrap();
        store.append(&sample("a", "optimal", 5)).unwrap();
        assert_eq!(store.len(), 3);
        let a = store.history(Some("a"), None, 10);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].tasks, 5, "newest first");
        let exact = store.history(None, Some("exact"), 10);
        assert_eq!(exact.len(), 1);
        assert_eq!(store.history(None, None, 2).len(), 2);
        assert!(store.history(Some("nope"), None, 10).is_empty());
        assert_eq!(store.frames_read(), 0, "history pages read no solution");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_store_persists_across_reopen() {
        let path = tmp("reopen");
        {
            let store = FileStore::open(&path).unwrap();
            assert!(store.is_empty());
            store.append_all(&[sample("a", "optimal", 3), sample("a", "optimal", 4)]).unwrap();
            store.append(&sample("b", "exact", 5)).unwrap();
            assert_eq!(store.len(), 3);
        }
        let reopened = FileStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(records(&reopened)[2].tenant, "b");
        // Appends after reopen extend the same log.
        reopened.append(&sample("c", "optimal", 6)).unwrap();
        drop(reopened);
        assert_eq!(FileStore::open(&path).unwrap().len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tails_are_truncated_on_open() {
        let path = tmp("torn");
        {
            let store = FileStore::open(&path).unwrap();
            store.append_all(&[sample("a", "optimal", 3), sample("a", "optimal", 4)]).unwrap();
        }
        let intact = std::fs::metadata(&path).unwrap().len();
        // A crash mid-append: a length prefix promising more bytes than
        // were ever written.
        {
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            file.write_all(&1000u32.to_le_bytes()).unwrap();
            file.write_all(b"{\"tenant\": \"half").unwrap();
        }
        let recovered = FileStore::open(&path).unwrap();
        assert_eq!(recovered.len(), 2, "both intact records survive");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), intact, "tail truncated");
        // Appending after recovery produces a clean log again.
        recovered.append(&sample("b", "exact", 5)).unwrap();
        drop(recovered);
        assert_eq!(FileStore::open(&path).unwrap().len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn garbage_frames_stop_the_scan_cleanly() {
        let path = tmp("garbage");
        {
            let store = FileStore::open(&path).unwrap();
            store.append(&sample("a", "optimal", 3)).unwrap();
        }
        {
            // A complete frame whose payload is not a record.
            let mut file = OpenOptions::new().append(true).open(&path).unwrap();
            let junk = b"not json at all";
            file.write_all(&(junk.len() as u32).to_le_bytes()).unwrap();
            file.write_all(junk).unwrap();
            // And a record after it that recovery must NOT resurrect
            // (the log is append-only; once a frame is bad, everything
            // after it is unreachable).
            file.write_all(&encode_frame(&sample("b", "exact", 4)).unwrap()).unwrap();
        }
        let recovered = FileStore::open(&path).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(records(&recovered)[0].tenant, "a");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crash_at_every_byte_offset_of_a_frame_recovers_and_appends() {
        // Drive the torn-tail recovery through every possible crash
        // point: a log of two good records plus the first k bytes of a
        // third frame, for every k short of the full frame. Reopening
        // must keep exactly the two good records, truncate the torn
        // prefix, and accept fresh appends afterwards.
        let path = tmp("every-offset");
        {
            let store = FileStore::open(&path).unwrap();
            store.append_all(&[sample("a", "optimal", 3), sample("a", "optimal", 4)]).unwrap();
        }
        let base = std::fs::read(&path).unwrap();
        let frame = encode_frame(&sample("b", "exact", 5)).unwrap();
        for cut in 0..frame.len() {
            let mut torn = base.clone();
            torn.extend_from_slice(&frame[..cut]);
            std::fs::write(&path, &torn).unwrap();
            let recovered = FileStore::open(&path).unwrap();
            assert_eq!(recovered.len(), 2, "cut at byte {cut}: good records survive");
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                base.len() as u64,
                "cut at byte {cut}: torn prefix truncated"
            );
            recovered.append(&sample("c", "optimal", 6)).unwrap();
            drop(recovered);
            assert_eq!(
                FileStore::open(&path).unwrap().len(),
                3,
                "cut at byte {cut}: append after recovery persists"
            );
        }
        // The full frame, untorn, is of course kept.
        let mut whole = base.clone();
        whole.extend_from_slice(&frame);
        std::fs::write(&path, &whole).unwrap();
        assert_eq!(FileStore::open(&path).unwrap().len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn oversize_records_are_refused_before_any_byte_is_written() {
        // The reader treats a frame over MAX_FRAME_BYTES as corruption,
        // so writing one would cost it and every record after it.
        let path = tmp("oversize");
        let store = FileStore::open(&path).unwrap();
        store.append(&sample("a", "optimal", 3)).unwrap();
        let mut oversize = sample("a", "optimal", 4);
        oversize.platform = "x".repeat(MAX_FRAME_BYTES as usize);
        let err = store.append(&oversize).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        drop(oversize);
        store.append(&sample("b", "exact", 5)).unwrap();
        assert_eq!(store.len(), 2);
        drop(store);
        let reopened = FileStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 2, "the records on both sides of the refusal survive");
        assert_eq!(records(&reopened)[1].tenant, "b");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn integers_a_frame_cannot_hold_are_refused_before_any_byte_is_written() {
        // JSON numbers are doubles: a frame would print such a field
        // rounded, and open would refuse to read it back and cut the log
        // there, losing that record and every record appended after it.
        let path = tmp("wide");
        let store = FileStore::open(&path).unwrap();
        let instance = Instance::new(Platform::parse("chain\n1000000000000000 1\n").unwrap(), 10);
        let solution = SolverRegistry::global().solve("optimal", &instance).unwrap();
        assert_eq!(solution.makespan(), 10_000_000_000_000_001);
        let wide = Record {
            platform: instance.platform.to_text(),
            makespan: solution.makespan(),
            solution: solution_to_json(&solution),
            ..sample("a", "optimal", 10)
        };
        let err = store.append(&wide).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        let limit: i64 = 1 << 53;
        let mut fields = [sample("a", "optimal", 3), sample("a", "optimal", 3)];
        fields[0].deadline = Some(-limit);
        fields[1].elapsed_us = limit as u64;
        for record in &fields {
            assert_eq!(store.append(record).unwrap_err().kind(), io::ErrorKind::InvalidInput);
        }
        let mut largest = sample("b", "exact", 5);
        largest.deadline = Some(limit - 1);
        store.append(&largest).unwrap();
        assert_eq!(store.len(), 1);
        drop(store);
        let reopened = FileStore::open(&path).unwrap();
        assert_eq!(reopened.len(), 1, "the record after the refusals survives");
        assert_eq!(records(&reopened)[0].deadline, Some(limit - 1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flaky_store_injects_and_clears_write_failures() {
        let path = tmp("flaky");
        let inner = std::sync::Arc::new(FileStore::open(&path).unwrap());
        let store = FlakyStore::new(inner.clone());
        store.append(&sample("a", "optimal", 3)).unwrap();
        store.set_failing(true);
        assert!(store.append(&sample("a", "optimal", 4)).is_err());
        assert!(store.append_all(&[sample("a", "optimal", 5)]).is_err());
        assert_eq!(store.failed_appends(), 2);
        assert_eq!(store.len(), 1, "failed appends never reach the inner store");
        store.set_failing(false);
        store.append(&sample("b", "exact", 6)).unwrap();
        assert_eq!(inner.len(), 2, "recovery resumes persisting");
        let _ = std::fs::remove_file(&path);
    }

    /// A record whose solution names a schedule representation this
    /// build does not know, as a newer build might write.
    fn undecodable(tenant: &str, tasks: usize) -> Record {
        let mut record = sample(tenant, "optimal", tasks);
        let text =
            record.solution.to_string().replace("\"repr\":\"chain\"", "\"repr\":\"hypercube\"");
        record.solution = Json::parse(&text).unwrap();
        assert!(solution_from_json(&record.solution).is_err());
        record
    }

    #[test]
    fn records_with_undecodable_solutions_survive_reopen() {
        // A well-framed record whose solution this build cannot decode is
        // data, not corruption: open keeps it and every record after it.
        let path = tmp("undecodable");
        FileStore::open(&path)
            .unwrap()
            .append_all(&[
                sample("a", "optimal", 3),
                undecodable("a", 4),
                sample("a", "optimal", 5),
            ])
            .unwrap();
        let size = std::fs::metadata(&path).unwrap().len();
        let store = FileStore::open(&path).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), size, "nothing truncated");
        let tasks: Vec<usize> = records(&store).iter().map(|r| r.tasks).collect();
        assert_eq!(tasks, [3, 4, 5]);
        // Replay hands over all three and decodes the two it can.
        let mut seen = Vec::new();
        store
            .replay(&["b", "a"], &mut |tenant, solved| {
                seen.push((tenant, solved.map(|(key, _)| key.hash)))
            })
            .unwrap();
        assert_eq!(seen, [(1, Some(3)), (1, None), (1, Some(5))]);
        assert_eq!(store.frames_read(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn frames_are_the_bytes_of_the_record_json() {
        let mut odd = sample("a \"quoted\"\ntenant\u{1}é", "optimal", 4);
        odd.deadline = Some(-9);
        odd.canon_hash = "not hex".into();
        for record in [sample("a", "optimal", 3), odd] {
            let frame = encode_frame(&record).unwrap();
            let text = record.to_json().to_string();
            assert_eq!(frame[..4], (text.len() as u32).to_le_bytes());
            assert_eq!(std::str::from_utf8(&frame[4..]).unwrap(), text);
        }
    }

    #[test]
    fn open_checks_the_small_fields_as_from_json_does() {
        // A frame whose small fields `Record::from_json` rejects ends the
        // log; one whose only fault is an undecodable solution is kept.
        let path = tmp("fields");
        let good = encode_frame(&sample("a", "optimal", 3)).unwrap();
        let fields = r#""tenant": "a", "solver": "s", "platform": "p", "canon_hash": "00""#;
        for (body, kept) in [
            (
                format!(
                    r#"{{{fields}, "tasks": 1, "makespan": 1, "scheduled": 0, "elapsed_us": 0, "solution": {{"makespan": 1}}}}"#
                ),
                true,
            ),
            (
                format!(
                    r#"{{{fields}, "tasks": 1, "makespan": 1, "scheduled": 0, "elapsed_us": 0, "solution": 7, "tasks": "first wins"}}"#
                ),
                true,
            ),
            (
                format!(
                    r#"{{{fields}, "tasks": 1, "makespan": 1, "scheduled": 0, "elapsed_us": 0}}"#
                ),
                false,
            ),
            (
                format!(
                    r#"{{{fields}, "tasks": -1, "makespan": 1, "scheduled": 0, "elapsed_us": 0, "solution": {{}}}}"#
                ),
                false,
            ),
            (
                format!(
                    r#"{{{fields}, "tasks": 1, "makespan": 1.5, "scheduled": 0, "elapsed_us": 0, "solution": {{}}}}"#
                ),
                false,
            ),
            (
                format!(
                    r#"{{{fields}, "tasks": 1, "deadline": "x", "makespan": 1, "scheduled": 0, "elapsed_us": 0, "solution": {{}}}}"#
                ),
                false,
            ),
            (
                format!(
                    r#"{{{fields}, "tenant": 5, "tasks": 1, "makespan": 1, "scheduled": 0, "elapsed_us": 0, "solution": {{}}}}"#
                ),
                true,
            ),
            (
                format!(
                    r#"{{{fields}, "tasks": 1, "makespan": 1, "scheduled": 0, "elapsed_us": 0, "solution": {{]}}"#
                ),
                false,
            ),
            // Members in another order, and the solution first.
            (
                r#"{"solution": 7, "elapsed_us": 0, "scheduled": 0, "makespan": 1, "canon_hash": "00", "deadline": null, "tasks": 1, "platform": "p", "solver": "s", "tenant": "a"}"#.to_string(),
                true,
            ),
            // The first member of a name counts, the solution's too.
            (
                format!(
                    r#"{{"tasks": -1, {fields}, "tasks": 1, "makespan": 1, "scheduled": 0, "elapsed_us": 0, "solution": {{}}}}"#
                ),
                false,
            ),
            (
                format!(
                    r#"{{{fields}, "tasks": 1, "deadline": 3, "deadline": "x", "makespan": 1, "scheduled": 0, "elapsed_us": 0, "solution": 7, "solution": {{}}}}"#
                ),
                true,
            ),
            // Escaped keys are read by their value.
            (
                r#"{"t\u0065nant": "a", "solver": "s", "platform": "p", "canon_hash": "00", "tasks": 1, "makespan": 1, "scheduled": 0, "elapsed_us": 0, "s\u006flution": 7}"#.to_string(),
                true,
            ),
            (
                format!(
                    r#"{{"t\u0065nant": 5, {fields}, "tasks": 1, "makespan": 1, "scheduled": 0, "elapsed_us": 0, "solution": 7}}"#
                ),
                false,
            ),
            ("{}".to_string(), false),
            ("[1]".to_string(), false),
        ] {
            let mut log = good.clone();
            log.extend_from_slice(&(body.len() as u32).to_le_bytes());
            log.extend_from_slice(body.as_bytes());
            log.extend_from_slice(&good);
            std::fs::write(&path, &log).unwrap();
            assert_eq!(FileStore::open(&path).unwrap().len(), if kept { 3 } else { 1 }, "{body}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn hashes_are_shown_as_written_and_keyed_as_before() {
        let path = tmp("hashes");
        let store = FileStore::open(&path).unwrap();
        let mut written = vec![sample("a", "optimal", 3), sample("a", "optimal", 4)];
        written.extend([sample("a", "optimal", 5), sample("a", "optimal", 6)]);
        written[1].canon_hash = "ABC".into();
        written[2].canon_hash = "not hex".into();
        written[3].canon_hash = "+f".into();
        store.append_all(&written).unwrap();
        let shown: Vec<String> = records(&store).into_iter().map(|r| r.canon_hash).collect();
        assert_eq!(shown, ["00000000000000000000000000000003", "ABC", "not hex", "+f"]);
        let mut keys = Vec::new();
        store.replay(&["a"], &mut |_, solved| keys.push(solved.map(|(key, _)| key.hash))).unwrap();
        assert_eq!(keys, [Some(3), Some(0xabc), None, Some(0xf)]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_and_zero_length_prefix_logs_recover() {
        let path = tmp("empty");
        std::fs::write(&path, [0u8; 4]).unwrap();
        let store = FileStore::open(&path).unwrap();
        assert!(store.is_empty());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let _ = std::fs::remove_file(&path);
    }
}
