//! The types at the handler boundary: handlers see
//! [`Request`](crate::http::Request)s and produce [`ResponseBody`]s, never
//! sockets.
//!
//! Everything under [`crate::routes`] and [`crate::session`] is pure
//! request → response logic, entered through
//! [`crate::routes::route_on`]. The only transport capability a handler
//! may need — streaming a response body of unknown length, and noticing
//! mid-request that the client is gone — is the [`StreamWriter`]
//! trait. The event loop ([`crate::event`]) implements it by pushing
//! framed chunks into the connection's bounded outbound buffer: when
//! the client reads slowly the buffer fills and the push **blocks**,
//! which is the backpressure that keeps a large streamed sweep from
//! materialising in server memory. [`BufferedStream`] implements it in
//! memory for tests and embedded callers.

use crate::http::Response;
use std::io;

/// How a handler answered: a buffered [`Response`] for the transport
/// to write, or a body already streamed through the [`StreamWriter`]
/// the transport supplied (streamed responses always close the
/// connection).
#[derive(Debug)]
pub enum ResponseBody {
    /// Write this response (possibly keeping the connection alive).
    Full(Response),
    /// The handler streamed the response body chunk by chunk.
    Streamed,
}

/// The transport capabilities a handler may use while producing a
/// response: a client-liveness probe and a chunked streaming body
/// writer. The event loop and [`BufferedStream`] implement it; handlers
/// stay socket-free.
pub trait StreamWriter {
    /// Whether the client has abandoned the request. Polled between
    /// chunks of work so an abandoned sweep stops burning cores; a
    /// transport without liveness knowledge may always answer `false`.
    fn client_gone(&mut self) -> bool;

    /// Switches the response to a streamed chunked NDJSON body and
    /// writes its head. Must be called exactly once, before any
    /// [`StreamWriter::chunk`].
    fn begin(&mut self) -> io::Result<()>;

    /// Appends body bytes (one or more NDJSON lines). `Err` means the
    /// client is gone — cancel the remaining work.
    fn chunk(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Terminates the streamed body.
    fn end(&mut self) -> io::Result<()>;
}

/// A [`StreamWriter`] that buffers chunks in memory and never loses a
/// client: what embedded callers and tests drive handlers with.
#[derive(Debug, Default)]
pub struct BufferedStream {
    /// Everything written through the writer: head marker excluded,
    /// chunk payloads concatenated.
    pub body: Vec<u8>,
    /// Whether [`StreamWriter::begin`] was called.
    pub began: bool,
    /// Whether [`StreamWriter::end`] was called.
    pub ended: bool,
}

impl StreamWriter for BufferedStream {
    fn client_gone(&mut self) -> bool {
        false
    }

    fn begin(&mut self) -> io::Result<()> {
        self.began = true;
        Ok(())
    }

    fn chunk(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.body.extend_from_slice(bytes);
        Ok(())
    }

    fn end(&mut self) -> io::Result<()> {
        self.ended = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;
    use crate::routes::route_on;
    use crate::server::{ServeConfig, Server};

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
            keep_alive: true,
        }
    }

    #[test]
    fn the_service_routes_without_any_transport() {
        let server =
            Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() })
                .expect("bind");
        let handle = server.handle();
        let ResponseBody::Full(health) =
            route_on(&request("GET", "/healthz", ""), handle.state(), None)
        else {
            panic!("healthz is a buffered reply")
        };
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"status\":\"ok\""));
    }

    #[test]
    fn streamed_batches_flow_through_the_stream_writer() {
        let server =
            Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() })
                .expect("bind");
        let handle = server.handle();
        let mut sink = BufferedStream::default();
        let body = r#"{"generate": {"kind": "chain", "count": 3}, "stream": true}"#;
        let routed = route_on(&request("POST", "/batch", body), handle.state(), Some(&mut sink));
        assert!(matches!(routed, ResponseBody::Streamed));
        assert!(sink.began && sink.ended);
        let text = String::from_utf8(sink.body).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "3 result lines + summary: {text}");
        assert!(lines[0].contains("\"index\":0"), "{text}");
        assert!(lines[3].contains("\"summary\""), "{text}");
    }
}
