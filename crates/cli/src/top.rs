//! `mst top` — a live terminal view over a serve instance's metrics.
//!
//! Fetches the JSON `GET /metrics` document from a running `mst serve`
//! on an interval and renders the latency state as `top`-style tables:
//! a one-line health header (uptime, request/queue/drop counters), the
//! per-route latency summary, the per-solver kernel summary
//! (solve/probe/verify), and the per-tenant summary when named tenants
//! carry traffic.
//!
//! The screen-clearing redraw only happens when stdout is a real
//! terminal; redirected output gets plain frames (and by default just
//! one frame, so `mst top --addr ... > snapshot.txt` is a one-shot
//! probe a script can grep).

use crate::args::Args;
use mst_api::wire::Json;
use std::fmt::Write as _;
use std::io::{IsTerminal as _, Write as _};
use std::time::Duration;

/// Appends the table of one summary family of the metrics document
/// (`title` + aligned rows) when it has rows. A row's key joins its
/// `label_keys` members (e.g. `["route"]` or `["kernel", "solver"]`);
/// rows come in sorted key order, so the table is deterministic.
fn render_table(out: &mut String, title: &str, document: &Json, family: &str, label_keys: &[&str]) {
    let mut rows: Vec<(String, &Json)> = document
        .get(family)
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|row| {
            let labels: Option<Vec<&str>> =
                label_keys.iter().map(|key| row.get(key)?.as_str()).collect();
            Some((labels?.join("  "), row))
        })
        .collect();
    if rows.is_empty() {
        return;
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    let key_header = label_keys.join("  ");
    let key_width = rows.iter().map(|(key, _)| key.len()).max().unwrap_or(0).max(key_header.len());
    writeln!(out, "{title}").unwrap();
    writeln!(
        out,
        "  {key_header:<key_width$}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
        "count", "p50 ms", "p99 ms", "p999 ms", "max ms"
    )
    .unwrap();
    for (key, row) in &rows {
        // Latencies are recorded in µs server-side.
        let number = |name: &str| row.get(name).and_then(Json::as_f64).unwrap_or(0.0);
        writeln!(
            out,
            "  {key:<key_width$}  {:>9}  {:>9.3}  {:>9.3}  {:>9.3}  {:>9.3}",
            number("count") as u64,
            number("p50") / 1e3,
            number("p99") / 1e3,
            number("p999") / 1e3,
            number("max") / 1e3,
        )
        .unwrap();
    }
    out.push('\n');
}

/// Renders one full frame from the metrics document.
fn render_frame(addr: &str, document: &Json) -> String {
    let mut out = String::new();
    let number = |name: &str| document.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    let uptime = number("uptime_secs");
    let requests = number("requests_total") as u64;
    let queue = number("queue_depth") as u64;
    let dropped = number("obs_dropped_spans_total") as u64;
    writeln!(
        out,
        "mst top — {addr}   up {uptime:.0}s   requests {requests}   queue {queue}   \
         dropped spans {dropped}\n"
    )
    .unwrap();
    render_table(
        &mut out,
        "routes (server-side latency)",
        document,
        "route_latency_us",
        &["route"],
    );
    render_table(&mut out, "solver kernels", document, "kernel_latency_us", &["kernel", "solver"]);
    render_table(&mut out, "tenants", document, "tenant_latency_us", &["tenant"]);
    out
}

/// `mst top` — scrape, render, repeat.
pub fn cmd_top(args: &Args) -> Result<String, String> {
    let addr = args.opt("addr").unwrap_or("127.0.0.1:8080").to_string();
    let interval_ms = match args.int_opt("interval-ms", 1_000)? {
        n if (50..=60_000).contains(&n) => n as u64,
        n => return Err(format!("--interval-ms must be in [50, 60000], got {n}")),
    };
    let tty = std::io::stdout().is_terminal();
    // At a terminal the default is a live redraw loop until ctrl-c;
    // redirected, it is a single grep-friendly frame.
    let iterations = match args.int_opt("iterations", if tty { 0 } else { 1 })? {
        n if n >= 0 => n as u64,
        n => return Err(format!("--iterations must be non-negative, got {n}")),
    };
    let mut frames = 0u64;
    loop {
        let document = crate::loadgen::fetch_metrics(&addr)?;
        let frame = render_frame(&addr, &document);
        frames += 1;
        if iterations > 0 && frames >= iterations {
            // The final frame is the command output, so one-shot runs
            // compose with --out-style redirection and tests.
            return Ok(frame);
        }
        let mut stdout = std::io::stdout();
        // Clear + home keeps the tables anchored like top(1).
        let clear = if tty { "\x1b[2J\x1b[H" } else { "" };
        if write!(stdout, "{clear}{frame}").and_then(|()| stdout.flush()).is_err() {
            // The reader has gone (a closed pipe): nothing is left to show.
            return Ok(String::new());
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOCUMENT: &str = r#"{
        "uptime_secs": 12.2, "queue_depth": 2, "requests_total": 400,
        "obs_dropped_spans_total": 0,
        "route_latency_us": [
            {"route": "/solve", "p50": 700, "p99": 2100, "p999": 2500, "max": 2600,
             "sum": 250000, "count": 350},
            {"route": "/batch", "p50": 4000, "p99": 9000, "p999": 9500, "max": 9800,
             "sum": 80000, "count": 20}
        ],
        "tenant_latency_us": [],
        "kernel_latency_us": [
            {"kernel": "solve", "solver": "optimal", "p50": 400, "p99": 1500, "p999": 1600,
             "max": 1700, "sum": 150000, "count": 350}
        ]
    }"#;

    #[test]
    fn frames_render_the_header_and_every_populated_table() {
        let frame = render_frame("127.0.0.1:9", &Json::parse(DOCUMENT).unwrap());
        assert!(frame.contains("up 12s"), "{frame}");
        assert!(frame.contains("requests 400"), "{frame}");
        assert!(frame.contains("queue 2"), "{frame}");
        // Rows in sorted key order, latencies in ms.
        let batch = frame.find("/batch").expect("the /batch row");
        let solve = frame.find("/solve").expect("the /solve row");
        assert!(batch < solve, "{frame}");
        assert!(frame.contains("      350      0.700      2.100      2.500      2.600"), "{frame}");
        assert!(frame.contains("kernel  solver"), "{frame}");
        assert!(frame.contains("solve  optimal"), "{frame}");
        // No tenant traffic in the fixture: the tenants table is elided.
        assert!(!frame.contains("tenants"), "{frame}");
    }
}
