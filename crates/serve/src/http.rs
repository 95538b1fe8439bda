//! Minimal HTTP/1.1 request parsing and response serialization, with
//! no I/O of its own.
//!
//! The build environment is offline, so there is no hyper/tokio; this
//! module hand-rolls exactly what the service front-end needs —
//! `Content-Length` bodies, hard caps on header and body size so a
//! hostile peer cannot make the server buffer without bound, and
//! structured failures that the caller turns into 4xx responses (a
//! malformed request must never panic the event loop).
//!
//! Connections are **persistent** (HTTP/1.1 keep-alive): the event
//! loop feeds socket bytes to [`try_parse`], which drains exactly one
//! request and leaves any pipelined follow-up buffered for the next
//! call. A request's [`Request::keep_alive`] reflects the negotiated
//! default (`HTTP/1.1` keeps alive unless `Connection: close`;
//! `HTTP/1.0` closes unless `Connection: keep-alive`); the server layer
//! bounds requests-per-connection on top. [`Response::to_bytes`] is the
//! one response serializer.

/// Largest accepted request head (request line + headers). Anything
/// bigger is rejected before buffering more.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path with any query string stripped.
    pub path: String,
    /// The raw query string (without the `?`; empty when absent).
    pub query: String,
    /// All request headers as `(lower-cased name, trimmed value)`
    /// pairs, in arrival order.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the client may reuse the connection after the response:
    /// the HTTP-version default overridden by any `Connection` header.
    pub keep_alive: bool,
}

impl Request {
    /// The value of query parameter `key` (first occurrence,
    /// `key=value` pairs separated by `&`; no percent-decoding — the
    /// service's parameter values never need it).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }

    /// The value of header `name` (case-insensitive, first occurrence)
    /// — e.g. the `X-Api-Token` tenant routing header.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }
}

/// Why buffered bytes are not a valid request. Every variant maps to a
/// status code via [`HttpError::status`].
#[derive(Debug)]
pub enum HttpError {
    /// A malformed, unsupported or oversized request head: 400.
    BadRequest(String),
    /// The declared `Content-Length` exceeds the configured cap: 413.
    PayloadTooLarge(usize),
}

impl HttpError {
    /// The response status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::PayloadTooLarge(_) => 413,
        }
    }

    /// Human-readable reason carried in the error body.
    pub fn message(&self) -> String {
        match self {
            HttpError::BadRequest(reason) => reason.clone(),
            HttpError::PayloadTooLarge(cap) => {
                format!("request body exceeds the {cap}-byte limit")
            }
        }
    }
}

/// Outcome of one incremental parse attempt over buffered bytes.
#[derive(Debug)]
pub enum Parsed {
    /// A complete request was parsed; its bytes were drained from the
    /// buffer (pipelined surplus stays buffered).
    Complete(Request),
    /// The buffer holds only a request prefix so far — feed more bytes.
    Partial,
}

/// Attempts to parse one complete request out of `buf` without any
/// I/O: the **incremental** parser the event loop feeds socket bytes
/// into as they arrive. Returns [`Parsed::Partial`] until the head
/// *and* the declared body are fully buffered; caps (head size,
/// `max_body`) are enforced as soon as they are decidable, so a
/// hostile peer cannot make the caller buffer without bound. A peer
/// that closes while the result is still `Partial` sent a truncated
/// request; the event loop answers that `400`.
pub fn try_parse(buf: &mut Vec<u8>, max_body: usize) -> Result<Parsed, HttpError> {
    let Some(head_end) = find_head_end(buf) else {
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::BadRequest("request head too large".to_string()));
        }
        return Ok(Parsed::Partial);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::BadRequest("request head is not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".to_string()))?
        .to_ascii_uppercase();
    let target =
        parts.next().ok_or_else(|| HttpError::BadRequest("missing request path".to_string()))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("unsupported protocol {version:?}")));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    // HTTP/1.1 keeps the connection alive by default; 1.0 closes.
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = 0usize;
    let mut headers = Vec::new();
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad Content-Length {value:?}")))?;
        } else if name == "transfer-encoding" && value.to_ascii_lowercase().contains("chunked") {
            return Err(HttpError::BadRequest("chunked bodies are not supported".to_string()));
        } else if name == "connection" {
            let value = value.to_ascii_lowercase();
            if value.contains("close") {
                keep_alive = false;
            } else if value.contains("keep-alive") {
                keep_alive = true;
            }
        }
        headers.push((name, value.to_string()));
    }
    if content_length > max_body {
        return Err(HttpError::PayloadTooLarge(max_body));
    }
    if buf.len() < head_end + 4 + content_length {
        return Ok(Parsed::Partial);
    }

    // Drain exactly this request; a pipelined follow-up stays buffered.
    let mut body: Vec<u8> = buf.split_off(head_end + 4);
    buf.clear(); // the consumed head
    if body.len() > content_length {
        *buf = body.split_off(content_length);
    }
    Ok(Parsed::Complete(Request { method, path, query, headers, body, keep_alive }))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An HTTP response: a status code, a body and optional extra
/// headers (`Retry-After` for 429/503 refusals, `X-Trace-Id` for
/// request-trace correlation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 400, ...).
    pub status: u16,
    /// The serialized body.
    pub body: String,
    /// When set, a `Retry-After: N` header (seconds) telling refused
    /// clients how long to back off — quota/overload refusals are
    /// transient and should say so.
    pub retry_after: Option<u64>,
    /// The `Content-Type` advertised (JSON unless overridden — the
    /// Prometheus exposition is plain text).
    pub content_type: &'static str,
    /// When set, an `X-Trace-Id` header correlating the response with
    /// its entry in the `/trace` table.
    pub trace_id: Option<u64>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl std::fmt::Display) -> Response {
        Response {
            status,
            body: body.to_string(),
            retry_after: None,
            content_type: "application/json",
            trace_id: None,
        }
    }

    /// A plain-text response (the Prometheus exposition format).
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            body: body.into(),
            retry_after: None,
            content_type: "text/plain; version=0.0.4",
            trace_id: None,
        }
    }

    /// Attaches a `Retry-After` header (seconds).
    pub fn with_retry_after(mut self, secs: u64) -> Response {
        self.retry_after = Some(secs);
        self
    }

    /// Attaches the `X-Trace-Id` correlation header.
    pub fn with_trace_id(mut self, id: u64) -> Response {
        self.trace_id = Some(id);
        self
    }

    /// The standard reason phrase for this response's status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            401 => "Unauthorized",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// The response serialized to wire bytes, advertising
    /// `Connection: keep-alive` or `Connection: close` as the event loop
    /// decided — what it queues onto a connection's outbound buffer.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        use std::fmt::Write as _;
        // Writing to a String cannot fail.
        let mut out = String::with_capacity(self.body.len() + 128);
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        if let Some(secs) = self.retry_after {
            let _ = write!(out, "Retry-After: {secs}\r\n");
        }
        if let Some(id) = self.trace_id {
            let _ = write!(out, "X-Trace-Id: {id}\r\n");
        }
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let _ = write!(out, "Connection: {connection}\r\n\r\n");
        out.push_str(&self.body);
        out.into_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        match try_parse(&mut raw.to_vec(), 1024)? {
            Parsed::Complete(request) => Ok(request),
            Parsed::Partial => panic!("incomplete request: {raw:?}"),
        }
    }

    fn text(response: Response, keep_alive: bool) -> String {
        String::from_utf8(response.to_bytes(keep_alive)).unwrap()
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse(b"POST /solve?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/solve");
        assert_eq!(req.query, "x=1");
        assert_eq!(req.query_param("x"), Some("1"));
        assert_eq!(req.query_param("y"), None);
        assert_eq!(req.body, b"body");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_negotiation_follows_version_and_header() {
        let close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.keep_alive);
        let old = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!old.keep_alive, "HTTP/1.0 defaults to close");
        let old_keep = parse(b"GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n").unwrap();
        assert!(old_keep.keep_alive);
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(matches!(parse(b"\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(parse(b"GET\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(parse(b"GET / SPDY/3\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn rejects_oversized_declarations_and_truncated_bodies() {
        let over = parse(b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n");
        assert!(matches!(over, Err(HttpError::PayloadTooLarge(1024))));
        // A truncated body never completes (the event loop answers 400
        // when the peer closes on it).
        let mut truncated = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort".to_vec();
        assert!(matches!(try_parse(&mut truncated, 1024), Ok(Parsed::Partial)));
        // An endless head trips the head cap rather than buffering forever.
        let mut junk = b"GET /".to_vec();
        junk.extend(std::iter::repeat_n(b'a', 64 * 1024));
        assert!(matches!(parse(&junk), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn try_parse_is_incremental_byte_by_byte() {
        // Feed a request one byte at a time: Partial until the last
        // body byte lands, then Complete with nothing left over.
        let raw = b"POST /solve HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let mut buf = Vec::new();
        for (i, byte) in raw.iter().enumerate() {
            buf.push(*byte);
            match try_parse(&mut buf, 1024).unwrap() {
                Parsed::Complete(req) => {
                    assert_eq!(i, raw.len() - 1, "complete only on the final byte");
                    assert_eq!(req.path, "/solve");
                    assert_eq!(req.body, b"body");
                    assert!(buf.is_empty());
                }
                Parsed::Partial => assert!(i < raw.len() - 1),
            }
        }
    }

    #[test]
    fn try_parse_leaves_pipelined_bytes_buffered() {
        let mut buf = b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n".to_vec();
        let Parsed::Complete(first) = try_parse(&mut buf, 1024).unwrap() else {
            panic!("first request is complete")
        };
        assert_eq!(first.path, "/healthz");
        let Parsed::Complete(second) = try_parse(&mut buf, 1024).unwrap() else {
            panic!("second request is complete")
        };
        assert_eq!(second.path, "/metrics");
        assert!(buf.is_empty());
    }

    #[test]
    fn try_parse_enforces_caps_before_completion() {
        // Oversized declared body: rejected as soon as the head parses,
        // without waiting for (or buffering) the body.
        let mut buf = b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n".to_vec();
        assert!(matches!(try_parse(&mut buf, 1024), Err(HttpError::PayloadTooLarge(1024))));
        // A never-ending head trips the head cap mid-accumulation.
        let mut junk = b"GET /".to_vec();
        junk.extend(std::iter::repeat_n(b'a', 64 * 1024));
        assert!(matches!(try_parse(&mut junk, 1024), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn error_statuses_are_4xx() {
        assert_eq!(HttpError::BadRequest("x".into()).status(), 400);
        assert_eq!(HttpError::PayloadTooLarge(1).status(), 413);
    }

    #[test]
    fn headers_are_kept_and_case_insensitive() {
        let req = parse(b"GET / HTTP/1.1\r\nX-Api-Token:  acme-key \r\nHost: h\r\n\r\n").unwrap();
        assert_eq!(req.header("x-api-token"), Some("acme-key"));
        assert_eq!(req.header("X-Api-Token"), Some("acme-key"));
        assert_eq!(req.header("host"), Some("h"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn retry_after_is_emitted_when_set() {
        let out = text(Response::json(429, "{}").with_retry_after(2), false);
        assert!(out.starts_with("HTTP/1.1 429 Too Many Requests\r\n"), "{out}");
        assert!(out.contains("Retry-After: 2\r\n"), "{out}");
        // Unset means no header at all.
        assert!(!text(Response::json(200, "{}"), false).contains("Retry-After"));
    }

    #[test]
    fn trace_id_and_content_type_are_emitted() {
        let out = text(Response::json(200, "{}").with_trace_id(42), false);
        assert!(out.contains("X-Trace-Id: 42\r\n"), "{out}");
        assert!(out.contains("Content-Type: application/json\r\n"), "{out}");
        let out = text(Response::text(200, "mst_up 1\n"), false);
        assert!(out.contains("Content-Type: text/plain; version=0.0.4\r\n"), "{out}");
        assert!(!out.contains("X-Trace-Id"), "unset means no header");
    }

    #[test]
    fn responses_carry_length_and_close() {
        let out = text(Response::json(200, "{\"ok\":true}"), false);
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.contains("Content-Length: 11\r\n"), "{out}");
        assert!(out.contains("Connection: close\r\n"), "{out}");
        assert!(out.ends_with("{\"ok\":true}"), "{out}");
        let out = text(Response::json(200, "{}"), true);
        assert!(out.contains("Connection: keep-alive\r\n"), "{out}");
    }
}
