//! # mst-store — the persistent result store
//!
//! An append-only record of solved instances: which tenant solved what,
//! with which solver, how fast, and the full canonical solution — enough
//! to warm-start the in-memory solution cache of `mst-serve` after a
//! restart and to answer `GET /history` / `mst history` queries offline.
//!
//! One zero-dependency backend implements the [`StoreBackend`] trait:
//! [`FileStore`], an append-only file log of length-prefixed JSON frames
//! (`[u32 LE length][record JSON]`). Opening a log validates it frame by
//! frame and **truncates the torn tail** left by a crash or `SIGKILL`
//! mid-append, so recovery is automatic: everything before the first bad
//! byte survives, everything after it is dropped.
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

use mst_api::wire::{solution_from_json, Json, WireError};
use mst_platform::Time;
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Frames longer than this are treated as corruption, not data — no real
/// record comes close, and it bounds recovery-time allocations.
const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

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
        let text = |key: &str| -> Result<String, WireError> {
            json.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| WireError::new(format!("missing string field \"{key}\"")))
        };
        let non_negative = |key: &str| -> Result<i64, WireError> {
            json.get(key).and_then(Json::as_i64).filter(|&n| n >= 0).ok_or_else(|| {
                WireError::new(format!("missing non-negative integer field \"{key}\""))
            })
        };
        let deadline = match json.get("deadline") {
            None | Some(Json::Null) => None,
            Some(value) => Some(
                value.as_i64().ok_or_else(|| WireError::new("\"deadline\" must be an integer"))?,
            ),
        };
        let solution = json
            .get("solution")
            .ok_or_else(|| WireError::new("missing object field \"solution\""))?
            .clone();
        // The embedded solution must itself decode; a store carrying
        // undecodable solutions could never warm-start the cache.
        solution_from_json(&solution)?;
        Ok(Record {
            tenant: text("tenant")?,
            solver: text("solver")?,
            platform: text("platform")?,
            tasks: non_negative("tasks")? as usize,
            deadline,
            canon_hash: text("canon_hash")?,
            makespan: json
                .get("makespan")
                .and_then(Json::as_i64)
                .ok_or_else(|| WireError::new("missing integer field \"makespan\""))?,
            scheduled: non_negative("scheduled")? as usize,
            elapsed_us: non_negative("elapsed_us")? as u64,
            solution,
        })
    }
}

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

    /// A snapshot of every record, oldest first.
    fn records(&self) -> Vec<Record>;

    /// Number of records currently stored.
    fn len(&self) -> usize;

    /// Whether the store holds no records.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Filters a record snapshot the way `GET /history` does: optional
/// tenant and solver equality filters, then the **newest** `limit`
/// records, newest first.
pub fn query<'a>(
    records: &'a [Record],
    tenant: Option<&str>,
    solver: Option<&str>,
    limit: usize,
) -> Vec<&'a Record> {
    records
        .iter()
        .rev()
        .filter(|r| tenant.is_none_or(|t| r.tenant == t))
        .filter(|r| solver.is_none_or(|s| r.solver == s))
        .take(limit)
        .collect()
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
    failed_appends: std::sync::atomic::AtomicU64,
}

impl FlakyStore {
    /// Wraps `inner`; writes succeed until [`FlakyStore::set_failing`].
    pub fn new(inner: std::sync::Arc<dyn StoreBackend>) -> FlakyStore {
        FlakyStore {
            inner,
            failing: std::sync::atomic::AtomicBool::new(false),
            failed_appends: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Turns write failure injection on or off.
    pub fn set_failing(&self, failing: bool) {
        self.failing.store(failing, std::sync::atomic::Ordering::SeqCst);
    }

    /// Whether appends currently fail.
    pub fn is_failing(&self) -> bool {
        self.failing.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// How many appends were refused by injection so far.
    pub fn failed_appends(&self) -> u64 {
        self.failed_appends.load(std::sync::atomic::Ordering::SeqCst)
    }
}

impl StoreBackend for FlakyStore {
    fn append(&self, record: &Record) -> io::Result<()> {
        if self.is_failing() {
            self.failed_appends.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            return Err(io::Error::other("injected store write failure"));
        }
        self.inner.append(record)
    }

    fn records(&self) -> Vec<Record> {
        self.inner.records()
    }

    fn len(&self) -> usize {
        self.inner.len()
    }
}

struct FileInner {
    file: File,
    records: Vec<Record>,
}

/// The append-only file log: `[u32 LE length][record JSON]` frames.
///
/// All records are mirrored in memory (the store is a history, not a
/// database — `mst-serve` reads it whole at boot anyway), so queries
/// never touch the disk after open.
pub struct FileStore {
    path: PathBuf,
    inner: Mutex<FileInner>,
}

impl FileStore {
    /// Opens (or creates) the log at `path`, validating every frame.
    ///
    /// Recovery is built into open: at the first torn or undecodable
    /// frame the file is truncated to the last good byte and scanning
    /// stops — a crash mid-append costs at most the record being
    /// written, never the log.
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileStore> {
        let path = path.as_ref().to_path_buf();
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let mut records = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            let Some(frame) = decode_frame(&bytes[pos..]) else { break };
            records.push(frame.0);
            pos += frame.1;
        }
        if pos < bytes.len() {
            // Torn tail: drop everything from the first bad frame on.
            file.set_len(pos as u64)?;
        }
        file.seek(SeekFrom::Start(pos as u64))?;
        Ok(FileStore { path, inner: Mutex::new(FileInner { file, records }) })
    }

    /// The path this store appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Decodes one frame from the head of `bytes`; `None` when the frame is
/// torn, oversized or undecodable. Returns the record and the total
/// frame size (prefix + payload).
fn decode_frame(bytes: &[u8]) -> Option<(Record, usize)> {
    let len_bytes: [u8; 4] = bytes.get(..4)?.try_into().ok()?;
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 || len > MAX_FRAME_BYTES {
        return None;
    }
    let payload = bytes.get(4..4 + len as usize)?;
    let text = std::str::from_utf8(payload).ok()?;
    let record = Record::from_json(&Json::parse(text).ok()?).ok()?;
    Some((record, 4 + len as usize))
}

/// Encodes one record as a frame. A payload over [`MAX_FRAME_BYTES`] is
/// refused with [`io::ErrorKind::InvalidInput`]: [`decode_frame`] would
/// read it as corruption, and opening the log would truncate it there,
/// losing that record and every record appended after it.
fn encode_frame(record: &Record) -> io::Result<Vec<u8>> {
    let payload = record.to_json().to_string().into_bytes();
    let len = match u32::try_from(payload.len()) {
        Ok(len) if len <= MAX_FRAME_BYTES => len,
        _ => {
            let message = format!(
                "a {}-byte record exceeds the {MAX_FRAME_BYTES}-byte frame limit",
                payload.len()
            );
            return Err(io::Error::new(io::ErrorKind::InvalidInput, message));
        }
    };
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok(frame)
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
        for record in records {
            buffer.extend_from_slice(&encode_frame(record)?);
        }
        let mut inner = self.inner.lock().expect("store poisoned");
        inner.file.write_all(&buffer)?;
        inner.file.flush()?;
        inner.records.extend(records.iter().cloned());
        Ok(())
    }

    fn records(&self) -> Vec<Record> {
        self.inner.lock().expect("store poisoned").records.clone()
    }

    fn len(&self) -> usize {
        self.inner.lock().expect("store poisoned").records.len()
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
        let records = store.records();
        let a = query(&records, Some("a"), None, 10);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].tasks, 5, "newest first");
        let exact = query(&records, None, Some("exact"), 10);
        assert_eq!(exact.len(), 1);
        assert_eq!(query(&records, None, None, 2).len(), 2);
        assert!(query(&records, Some("nope"), None, 10).is_empty());
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
        assert_eq!(reopened.records()[2].tenant, "b");
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
        assert_eq!(recovered.records()[0].tenant, "a");
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
        assert_eq!(reopened.records()[1].tenant, "b");
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
