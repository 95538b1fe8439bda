//! A minimal HTTP/1.1 client on `std::net`, plus the reply checks.
//!
//! It is written here, not taken from the program, so that a change to
//! the server's codec or parser never changes what the client costs.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest one exchange may take before it counts as failed.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(30);

/// Frames a keep-alive `POST` with a JSON body.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Frames a keep-alive `GET`.
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").into_bytes()
}

/// One response: status, de-chunked body, and whether the server closes.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    pub close: bool,
}

/// A keep-alive connection, reopened when the server closes it.
#[derive(Debug)]
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None, buf: Vec::with_capacity(16 * 1024) }
    }

    /// Sends one request and reads its whole response. A reused
    /// connection that the server closed while idle is retried once on a
    /// fresh socket, as HTTP clients do; a fresh one is not.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        let reused = self.stream.is_some();
        match self.try_exchange(request) {
            Err(e) if reused && self.buf.is_empty() => {
                self.stream = None;
                self.try_exchange(request).map_err(|_| e)
            }
            other => other,
        }
    }

    fn try_exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, EXCHANGE_TIMEOUT)?;
            stream.set_read_timeout(Some(EXCHANGE_TIMEOUT))?;
            stream.set_write_timeout(Some(EXCHANGE_TIMEOUT))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        self.buf.clear();
        let stream = self.stream.as_mut().expect("connected above");
        let result = stream.write_all(request).and_then(|_| read_reply(stream, &mut self.buf));
        match &result {
            Ok(reply) if !reply.close => {}
            _ => self.stream = None,
        }
        result
    }
}

fn eof(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, what.to_string())
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// Reads until `buf` holds at least `n` bytes.
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>, n: usize) -> io::Result<()> {
    let mut scratch = [0u8; 16 * 1024];
    while buf.len() < n {
        let got = stream.read(&mut scratch)?;
        if got == 0 {
            return Err(eof("connection closed mid-response"));
        }
        buf.extend_from_slice(&scratch[..got]);
    }
    Ok(())
}

fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    haystack.get(from..)?.windows(needle.len()).position(|w| w == needle).map(|p| p + from)
}

/// Reads one response: head, then a `Content-Length` or chunked body.
fn read_reply(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<Reply> {
    let mut scratch = [0u8; 16 * 1024];
    let head_end = loop {
        if let Some(at) = find(buf, b"\r\n\r\n", 0) {
            break at + 4;
        }
        let got = stream.read(&mut scratch)?;
        if got == 0 {
            return Err(eof("connection closed before a response head"));
        }
        buf.extend_from_slice(&scratch[..got]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let status =
        head.get(9..12).and_then(|s| s.parse().ok()).ok_or_else(|| invalid("bad status line"))?;
    let header = |name: &str| {
        head.lines().find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.eq_ignore_ascii_case(name).then(|| value.trim().to_ascii_lowercase())
        })
    };
    let close = header("connection").as_deref() == Some("close");
    let chunked = header("transfer-encoding").is_some_and(|v| v.contains("chunked"));
    let length = header("content-length").and_then(|v| v.parse::<usize>().ok());
    let body = if chunked {
        let mut body = Vec::new();
        let mut pos = head_end;
        loop {
            let line_end = loop {
                if let Some(at) = find(buf, b"\r\n", pos) {
                    break at;
                }
                let need = buf.len() + 1;
                fill(stream, buf, need)?;
            };
            let size_text = std::str::from_utf8(&buf[pos..line_end]).unwrap_or("");
            let size = usize::from_str_radix(size_text.split(';').next().unwrap_or("").trim(), 16)
                .map_err(|_| invalid("bad chunk size"))?;
            let data = line_end + 2;
            fill(stream, buf, data + size + 2)?;
            if size == 0 {
                break;
            }
            body.extend_from_slice(&buf[data..data + size]);
            pos = data + size + 2;
        }
        body
    } else {
        let length = length.ok_or_else(|| invalid("response without a length"))?;
        fill(stream, buf, head_end + length)?;
        buf[head_end..head_end + length].to_vec()
    };
    Ok(Reply { status, body, close: close || chunked })
}

/// The integer after the first `"key":` in `text`, without parsing
/// the whole JSON document.
fn int_field(text: &[u8], key: &str) -> Option<i64> {
    let needle = format!("\"{key}\":");
    let at = find(text, needle.as_bytes(), 0)? + needle.len();
    let digits: String = text[at..]
        .iter()
        .skip_while(|b| b.is_ascii_whitespace())
        .take_while(|b| b.is_ascii_digit() || **b == b'-')
        .map(|b| *b as char)
        .collect();
    digits.parse().ok()
}

/// What a reply must say, computed in-process before any timing.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A `/solve` reply: makespan and scheduled count of the reference
    /// solve, plus `"feasible": true` when the request asked to verify.
    Solve { makespan: i64, scheduled: i64, verified: bool },
    /// A streamed `/batch` reply: one line per instance, in any order,
    /// with these makespans, then a summary with `solved` = n.
    Batch { makespans: Vec<i64> },
}

/// Checks one reply against its reference; `Err` says what differed.
pub fn check(reply: &Reply, expect: &Expect) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    match expect {
        Expect::Solve { makespan, scheduled, verified } => {
            let got = (int_field(&reply.body, "makespan"), int_field(&reply.body, "scheduled"));
            if got != (Some(*makespan), Some(*scheduled)) {
                return Err(format!(
                    "got (makespan, scheduled) {got:?}, want ({makespan}, {scheduled})"
                ));
            }
            if *verified && find(&reply.body, b"\"feasible\":true", 0).is_none() {
                return Err("verified reply lacks \"feasible\": true".into());
            }
            Ok(())
        }
        Expect::Batch { makespans } => {
            let mut seen = vec![false; makespans.len()];
            let mut solved = None;
            for line in reply.body.split(|b| *b == b'\n').filter(|l| !l.is_empty()) {
                if find(line, b"\"summary\"", 0).is_some() {
                    solved = int_field(line, "solved");
                    continue;
                }
                let index = int_field(line, "index").ok_or("line without an index")? as usize;
                let slot = seen.get_mut(index).ok_or("index out of range")?;
                if std::mem::replace(slot, true) {
                    return Err(format!("index {index} repeated"));
                }
                if int_field(line, "makespan") != Some(makespans[index]) {
                    return Err(format!("index {index}: makespan differs from the reference"));
                }
            }
            if seen.iter().any(|s| !s) {
                return Err("some indices are missing".into());
            }
            if solved != Some(makespans.len() as i64) {
                return Err(format!("summary solved {solved:?}, want {}", makespans.len()));
            }
            Ok(())
        }
    }
}
