//! Robustness tests of the epoll event transport: thousands of idle
//! keep-alive connections must cost nothing, hostile clients
//! (slowloris header drips, one-byte writers, half-closed and vanished
//! sockets) must be contained by policy rather than by luck, and the
//! accept-loop overflow / dispatch-queue bound / streamed-batch
//! backpressure behaviors must survive any rebuild of the serving core.

use master_slave_tasking::api::wire::Json;
use master_slave_tasking::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Binds a server on an ephemeral port with the given tweaks applied
/// over the defaults.
fn start_with(
    tweak: impl FnOnce(&mut ServeConfig),
) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<mst_serve::ServeReport>) {
    let mut config = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
    tweak(&mut config);
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.addr();
    let handle = server.handle();
    let runner = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, runner)
}

/// Reads one HTTP response (head + `Content-Length` body) off a
/// keep-alive stream; returns `(status, head, body)`.
fn read_one_response(stream: &mut TcpStream) -> (u16, String, String) {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        head.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&head).to_string();
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    let length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("length header")
        .trim()
        .parse()
        .unwrap();
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("response body");
    (status, head, String::from_utf8_lossy(&body).to_string())
}

/// A keep-alive `POST /solve` request for the Figure-2 chain.
fn solve_request(tasks: usize) -> Vec<u8> {
    let body = format!(r#"{{"platform": "chain\n2 3\n3 5\n", "tasks": {tasks}}}"#);
    format!("POST /solve HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}", body.len())
        .into_bytes()
}

const KEEP_ALIVE_HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";

/// The acceptance bar of the event transport: 5,000 established idle
/// keep-alive connections — half the default `max_connections` — held
/// open simultaneously, while `/solve` latency through the same loop
/// stays bounded. A thread-per-connection transport would need 5,000
/// stacks for this; the event loop needs 5,000 idle slab entries.
#[test]
fn five_thousand_idle_keep_alive_connections_leave_solves_fast() {
    let (addr, handle, runner) = start_with(|c| {
        // Long keep-alive so the herd stays *open* for the whole test
        // rather than being reaped while it builds up.
        c.keep_alive_timeout = Duration::from_secs(120);
    });

    // Establish the herd: each connection completes one real request
    // (so the server has seen it as a keep-alive client, not just an
    // accepted socket) and then goes idle.
    let mut herd = Vec::with_capacity(5_000);
    for i in 0..5_000 {
        let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("conn {i}: {e}"));
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        stream.write_all(KEEP_ALIVE_HEALTHZ).unwrap_or_else(|e| panic!("conn {i}: {e}"));
        herd.push(stream);
        // Reading the replies in batches keeps the handshake phase
        // pipelined instead of ping-ponging 5,000 times.
        if herd.len() % 500 == 0 {
            let from = herd.len() - 500;
            for (j, stream) in herd.iter_mut().enumerate().skip(from) {
                let (status, head, _) = read_one_response(stream);
                assert_eq!(status, 200, "conn {j}");
                assert!(head.contains("Connection: keep-alive"), "conn {j}: {head}");
            }
        }
    }
    assert_eq!(herd.len(), 5_000);

    // With the herd idling, solve latency through the same event loop
    // must stay bounded: every request answered well within a second,
    // not queued behind 5,000 parked sockets.
    let mut stream = TcpStream::connect(addr).expect("solver connection");
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut worst = Duration::ZERO;
    for round in 0..20 {
        let begun = Instant::now();
        stream.write_all(&solve_request(5)).unwrap();
        let (status, _, body) = read_one_response(&mut stream);
        let took = begun.elapsed();
        worst = worst.max(took);
        assert_eq!(status, 200, "round {round}: {body}");
        assert_eq!(
            Json::parse(&body).unwrap().get("makespan").and_then(Json::as_i64),
            Some(14),
            "round {round}"
        );
        assert!(took < Duration::from_secs(2), "round {round} took {took:?} with 5k idle conns");
    }

    // The herd is still alive: a sample of parked connections can
    // still issue a request after the solve burst.
    for i in [0usize, 2_499, 4_999] {
        herd[i].write_all(KEEP_ALIVE_HEALTHZ).unwrap_or_else(|e| panic!("parked conn {i}: {e}"));
        let (status, _, _) = read_one_response(&mut herd[i]);
        assert_eq!(status, 200, "parked conn {i} died while idling");
    }

    drop(herd);
    handle.shutdown();
    let report = runner.join().expect("event loop joins with a 5k-conn herd");
    assert!(report.connections >= 5_001, "report: {report:?}");
    assert!(worst < Duration::from_secs(2), "worst solve {worst:?}");
}

#[test]
fn slow_header_drips_get_408_while_other_clients_are_served() {
    let (addr, handle, runner) = start_with(|c| {
        c.io_timeout = Duration::from_millis(300);
    });

    // The slowloris peer: drip a valid-looking request head a few
    // bytes at a time, never finishing it. The io_timeout is armed
    // when the request starts — continued dripping must NOT reset it.
    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    slow.write_all(b"POST /solve HTTP/1.1\r\n").unwrap();
    std::thread::sleep(Duration::from_millis(120));
    slow.write_all(b"Host: sl").unwrap();
    std::thread::sleep(Duration::from_millis(120));
    let _ = slow.write_all(b"owloris\r\nConte"); // may race the 408

    // Meanwhile ordinary clients are not blocked behind the drip.
    let mut ok = TcpStream::connect(addr).expect("connect");
    ok.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    ok.write_all(&solve_request(3)).unwrap();
    let (status, _, body) = read_one_response(&mut ok);
    assert_eq!(status, 200, "{body}");

    // The dripper is answered 408 and closed, within a small multiple
    // of the configured io_timeout rather than at the server's leisure.
    let waited = Instant::now();
    let mut reply = Vec::new();
    slow.read_to_end(&mut reply).expect("the server answers or closes, never hangs");
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 408"), "{reply}");
    assert!(reply.contains("Connection: close"), "{reply}");
    assert!(waited.elapsed() < Duration::from_secs(5), "408 took {:?}", waited.elapsed());

    handle.shutdown();
    runner.join().expect("no stuck slowloris state");
}

#[test]
fn one_byte_writes_parse_like_a_single_write() {
    let (addr, handle, runner) = start_with(|_| {});

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    // Head and body arrive one byte per syscall — maximal fragmentation
    // of the read path, still one request.
    for byte in solve_request(5) {
        stream.write_all(&[byte]).expect("byte write");
    }
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert_eq!(Json::parse(&body).unwrap().get("makespan").and_then(Json::as_i64), Some(14));

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn half_closed_clients_still_get_their_answer() {
    let (addr, handle, runner) = start_with(|_| {});

    // The client half-closes after sending a complete keep-alive
    // request (no `Connection: close` header): FIN while the solve is
    // in flight means "no more requests", not "discard my answer".
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    stream.write_all(&solve_request(5)).unwrap();
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("full response after FIN");
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains("\"makespan\":14"), "{reply}");

    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn streamed_batches_absorb_slow_consumers_and_vanished_ones() {
    let (addr, handle, runner) = start_with(|c| {
        // A tiny high-water mark so the mailbox backpressure (not
        // buffering) is what carries a slow reader.
        c.stream_high_water = 4 * 1024;
    });
    let request_body = r#"{"generate": {"kind": "chain", "count": 256, "size": 3, "tasks": 5},
                           "stream": true}"#;
    let raw = format!(
        "POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{request_body}",
        request_body.len()
    );

    // A slow consumer: read the chunked NDJSON stream in small sips.
    // Backpressure must pace the producer without corrupting the
    // stream or dropping lines.
    let mut slow = TcpStream::connect(addr).expect("connect");
    slow.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    slow.write_all(raw.as_bytes()).unwrap();
    let mut reply = Vec::new();
    let mut sip = [0u8; 512];
    loop {
        match slow.read(&mut sip) {
            Ok(0) => break,
            Ok(n) => {
                reply.extend_from_slice(&sip[..n]);
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("mid-stream read failed: {e}"),
        }
    }
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(reply.contains("Transfer-Encoding: chunked"), "{reply}");
    assert!(reply.contains("0\r\n\r\n"), "stream must terminate: {reply}");
    assert_eq!(reply.matches("\"makespan\"").count(), 256, "every instance line arrived");

    // A vanished consumer: start the same stream, read a little, then
    // disappear. The handler must observe the dead client and unwind
    // instead of solving into a void forever.
    let mut gone = TcpStream::connect(addr).expect("connect");
    gone.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    gone.write_all(raw.as_bytes()).unwrap();
    let mut first = [0u8; 1024];
    let n = gone.read(&mut first).expect("stream began");
    assert!(n > 0);
    drop(gone);

    // The server stays healthy after both consumers...
    let mut check = TcpStream::connect(addr).expect("connect");
    check.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    check.write_all(KEEP_ALIVE_HEALTHZ).unwrap();
    let (status, _, _) = read_one_response(&mut check);
    assert_eq!(status, 200);

    // ...and shutting down joins every thread — a handler wedged on a
    // vanished consumer would hang this join.
    handle.shutdown();
    runner.join().expect("no handler wedged on a dead stream");
}

#[test]
fn the_connection_cap_answers_503_with_retry_after_and_recovers() {
    let (addr, handle, runner) = start_with(|c| {
        c.max_connections = 2;
        c.keep_alive_timeout = Duration::from_secs(60);
    });

    // Fill the two slots with established keep-alive connections.
    let mut holders = Vec::new();
    for _ in 0..2 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        stream.write_all(KEEP_ALIVE_HEALTHZ).unwrap();
        let (status, _, _) = read_one_response(&mut stream);
        assert_eq!(status, 200);
        holders.push(stream);
    }

    // The third client is refused with the load-shedding contract:
    // 503, machine-readable kind, and an honest Retry-After.
    let mut refused = TcpStream::connect(addr).expect("TCP accept still works");
    refused.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut reply = Vec::new();
    refused.read_to_end(&mut reply).expect("refusal then close");
    let reply = String::from_utf8_lossy(&reply);
    assert!(reply.starts_with("HTTP/1.1 503"), "{reply}");
    assert!(reply.contains("Retry-After: 1"), "{reply}");
    assert!(reply.contains("overloaded"), "{reply}");

    // Releasing a slot makes the cap recover: retrying per the hint
    // eventually succeeds.
    drop(holders.pop());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = TcpStream::connect(addr).expect("connect");
        retry.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        retry.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
        let mut reply = Vec::new();
        // A refusal may surface as a reset instead of a readable 503
        // when the server closes with our request bytes unread — both
        // just mean "not yet", so only a 200 ends the loop.
        let answered = retry.read_to_end(&mut reply).is_ok()
            && String::from_utf8_lossy(&reply).starts_with("HTTP/1.1 200");
        if answered {
            break;
        }
        assert!(Instant::now() < deadline, "cap never released: {reply:?}");
        std::thread::sleep(Duration::from_millis(100));
    }

    drop(holders);
    handle.shutdown();
    runner.join().unwrap();
}

/// The overload tests' server: one dispatch thread, a tiny streaming
/// high-water mark, and an io budget long enough that the write
/// watchdog never frees a stalled thread during a test.
fn stalled_config(c: &mut ServeConfig) {
    c.conn_threads = 1;
    c.stream_high_water = 4 * 1024;
    c.io_timeout = Duration::from_secs(30);
}

/// Occupies the only dispatch thread: a streamed `/batch` far larger
/// than the socket buffers, whose client reads the first bytes and then
/// stops reading. Dropping the returned stream frees the thread.
fn stall_the_dispatch_thread(addr: SocketAddr) -> TcpStream {
    let body = r#"{"generate": {"kind": "chain", "count": 100000, "size": 4, "tasks": 50},
                   "stream": true}"#;
    let raw =
        format!("POST /batch HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}", body.len());
    let mut staller = TcpStream::connect(addr).expect("connect the staller");
    staller.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    staller.write_all(raw.as_bytes()).unwrap();
    let mut first = [0u8; 64];
    let n = staller.read(&mut first).expect("the stream began");
    assert!(n > 0, "the stream began");
    staller
}

/// A burst of requests past a stalled dispatch thread waits in the
/// hand-off queue for the thread instead of being refused: the queue
/// holds `max_connections` requests, and each open connection has at
/// most one in it.
#[test]
fn a_burst_past_a_stalled_dispatch_thread_is_queued_not_refused() {
    let (addr, handle, runner) = start_with(stalled_config);
    let staller = stall_the_dispatch_thread(addr);

    // Every request is written before any reply is read.
    let mut burst: Vec<TcpStream> = (0..100)
        .map(|i| {
            let mut stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("conn {i}: {e}"));
            stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
            stream.write_all(KEEP_ALIVE_HEALTHZ).unwrap_or_else(|e| panic!("conn {i}: {e}"));
            stream
        })
        .collect();
    // Let the loop parse the whole burst while the thread is still held.
    std::thread::sleep(Duration::from_millis(200));
    drop(staller);

    // `read_one_response` panics on a socket closed before its reply.
    for (i, stream) in burst.iter_mut().enumerate() {
        let (status, head, body) = read_one_response(stream);
        assert_eq!(status, 200, "conn {i}: {head}{body}");
        assert!(head.contains("Connection: keep-alive"), "conn {i}: {head}");
    }
    let mut probe = TcpStream::connect(addr).expect("connect");
    probe.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    probe.write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let (status, _, body) = read_one_response(&mut probe);
    assert_eq!(status, 200, "{body}");
    let overloaded = Json::parse(&body).unwrap().get("overloaded_total").and_then(Json::as_i64);
    assert_eq!(overloaded, Some(0), "nothing was refused");

    drop(burst);
    handle.shutdown();
    runner.join().unwrap();
}

/// A torn-down connection frees its slot while its request may still
/// be queued, so the queue's bound is the only cap on such orphans:
/// once `max_connections` of them fill it, the next request is
/// refused `503` instead of queued.
#[test]
fn abandoned_queued_requests_stay_bounded() {
    let (addr, handle, runner) = start_with(|c| {
        stalled_config(c);
        c.max_connections = 3;
        c.max_body_bytes = 1024;
    });
    let staller = stall_the_dispatch_thread(addr);

    let mut refusal = None;
    for attempt in 1..=8 {
        let mut client = TcpStream::connect(addr).expect("connect");
        client.write_all(KEEP_ALIVE_HEALTHZ).unwrap();
        // Wait about 100 ms for the request to be queued, or refused.
        client.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
        let mut first = [0u8; 1];
        let answered = matches!(client.read(&mut first), Ok(1));
        client.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        if answered {
            let mut rest = Vec::new();
            client.read_to_end(&mut rest).expect("refusal then close");
            refusal =
                Some((attempt, String::from_utf8_lossy(&[&first[..], &rest].concat()).to_string()));
            break;
        }
        // Queued: now overflow the read buffer. The server tears the
        // connection down and leaves its request in the queue.
        let _ = client.write_all(&vec![b'x'; 80 * 1024]);
        let mut rest = Vec::new();
        let _ = client.read_to_end(&mut rest); // EOF or reset: torn down
        assert!(rest.is_empty(), "attempt {attempt}: {}", String::from_utf8_lossy(&rest));
    }
    let (attempt, reply) = refusal.expect("8 abandoned requests were queued without a refusal");
    assert!(reply.starts_with("HTTP/1.1 503"), "attempt {attempt}: {reply}");
    assert!(reply.contains("Retry-After: 1"), "attempt {attempt}: {reply}");
    assert!(reply.contains("\"kind\":\"overloaded\""), "attempt {attempt}: {reply}");

    drop(staller);
    handle.shutdown();
    runner.join().unwrap();
}

#[test]
fn pipelined_requests_answer_in_order_on_one_connection() {
    let (addr, handle, runner) = start_with(|_| {});

    // Two solves written back-to-back before reading anything: the
    // loop must answer both, in order, on the one connection.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut pipelined = solve_request(1);
    pipelined.extend_from_slice(&solve_request(3));
    stream.write_all(&pipelined).unwrap();

    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert_eq!(Json::parse(&body).unwrap().get("makespan").and_then(Json::as_i64), Some(5));
    let (status, _, body) = read_one_response(&mut stream);
    assert_eq!(status, 200, "{body}");
    assert_eq!(Json::parse(&body).unwrap().get("makespan").and_then(Json::as_i64), Some(10));

    handle.shutdown();
    let report = runner.join().unwrap();
    assert_eq!(report.connections, 1);
    assert_eq!(report.requests, 2);
}

#[test]
fn graceful_shutdown_sweeps_idle_connections() {
    let (addr, handle, runner) = start_with(|c| {
        c.keep_alive_timeout = Duration::from_secs(60);
    });

    // A mix of parked clients: some mid-keep-alive, some that never
    // sent a byte. None of them may hold the shutdown hostage.
    let mut parked = Vec::new();
    for i in 0..8 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        if i % 2 == 0 {
            stream.write_all(KEEP_ALIVE_HEALTHZ).unwrap();
            let (status, _, _) = read_one_response(&mut stream);
            assert_eq!(status, 200);
        }
        parked.push(stream);
    }

    handle.shutdown();
    runner.join().expect("shutdown must not wait on idle sockets");

    // Every parked socket observes the close.
    for (i, mut stream) in parked.into_iter().enumerate() {
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap_or_else(|e| panic!("conn {i}: {e}"));
        assert!(rest.is_empty(), "conn {i} got unexpected bytes: {rest:?}");
    }
}

/// Connections still in the listen backlog when shutdown begins are
/// accepted and closed cleanly: closing the listener with them queued
/// would reset every one of them.
#[test]
fn shutdown_closes_backlogged_connections_cleanly() {
    let config = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::default() };
    let server = Server::bind(config).expect("bind ephemeral port");
    let addr = server.addr();
    // The loop is not running yet, so these connections stay queued.
    let queued: Vec<TcpStream> = (0..3)
        .map(|i| {
            let stream = TcpStream::connect(addr).unwrap_or_else(|e| panic!("conn {i}: {e}"));
            stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            stream
        })
        .collect();
    server.handle().shutdown();
    server.run().expect("server run");
    for (i, mut stream) in queued.into_iter().enumerate() {
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap_or_else(|e| panic!("conn {i}: {e}"));
        assert!(rest.is_empty(), "conn {i} got unexpected bytes: {rest:?}");
    }
}
