//! `mst top` — a live terminal view over a serve instance's metrics.
//!
//! Scrapes `GET /metrics?format=prometheus` from a running `mst serve`
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
use crate::loadgen::{parse_sample, sample_value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{IsTerminal as _, Write as _};
use std::time::Duration;

/// One summary family member: the quantile samples plus `_sum`/`_count`
/// companions the exposition emits per label set.
#[derive(Debug, Default, Clone, PartialEq)]
struct SummaryRow {
    /// `quantile="..."` samples, in exposition order (0.5/0.99/0.999/1).
    quantiles: BTreeMap<String, f64>,
    count: u64,
    sum: u64,
}

impl SummaryRow {
    fn quantile_ms(&self, q: &str) -> f64 {
        self.quantiles.get(q).copied().unwrap_or(0.0) / 1e3
    }
}

/// Collects one summary family into rows keyed by the joined values of
/// `label_keys` (e.g. `["route"]` or `["kernel", "solver"]`), in
/// sorted key order — the exposition is already deterministic, this
/// keeps the table so too.
fn summary_rows(text: &str, family: &str, label_keys: &[&str]) -> BTreeMap<String, SummaryRow> {
    let count_name = format!("{family}_count");
    let sum_name = format!("{family}_sum");
    let mut rows: BTreeMap<String, SummaryRow> = BTreeMap::new();
    for line in text.lines() {
        let Some((name, labels, value)) = parse_sample(line) else { continue };
        if name != family && name != count_name && name != sum_name {
            continue;
        }
        let lookup = |key: &str| labels.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
        let Some(row_key) = label_keys
            .iter()
            .map(|key| lookup(key))
            .collect::<Option<Vec<_>>>()
            .map(|vals| vals.join("  "))
        else {
            continue;
        };
        let row = rows.entry(row_key).or_default();
        if name == count_name {
            row.count = value as u64;
        } else if name == sum_name {
            row.sum = value as u64;
        } else if let Some(q) = lookup("quantile") {
            row.quantiles.insert(q.to_string(), value);
        }
    }
    rows
}

/// Appends one summary table (`title` + aligned rows) when non-empty.
fn render_table(
    out: &mut String,
    title: &str,
    key_header: &str,
    rows: &BTreeMap<String, SummaryRow>,
) {
    if rows.is_empty() {
        return;
    }
    let key_width = rows.keys().map(String::len).max().unwrap_or(0).max(key_header.len());
    writeln!(out, "{title}").unwrap();
    writeln!(
        out,
        "  {key_header:<key_width$}  {:>9}  {:>9}  {:>9}  {:>9}  {:>9}",
        "count", "p50 ms", "p99 ms", "p999 ms", "max ms"
    )
    .unwrap();
    for (key, row) in rows {
        writeln!(
            out,
            "  {key:<key_width$}  {:>9}  {:>9.3}  {:>9.3}  {:>9.3}  {:>9.3}",
            row.count,
            row.quantile_ms("0.5"),
            row.quantile_ms("0.99"),
            row.quantile_ms("0.999"),
            row.quantile_ms("1"),
        )
        .unwrap();
    }
    out.push('\n');
}

/// Renders one full frame from the raw exposition text.
fn render_frame(addr: &str, text: &str) -> String {
    let mut out = String::new();
    let uptime = sample_value(text, "mst_uptime_secs", &[]).unwrap_or(0.0);
    let requests = sample_value(text, "mst_requests_total", &[]).unwrap_or(0.0) as u64;
    let queue = sample_value(text, "mst_queue_depth", &[]).unwrap_or(0.0) as u64;
    let dropped = sample_value(text, "mst_obs_dropped_spans_total", &[]).unwrap_or(0.0) as u64;
    writeln!(
        out,
        "mst top — {addr}   up {uptime:.0}s   requests {requests}   queue {queue}   \
         dropped spans {dropped}\n"
    )
    .unwrap();
    render_table(
        &mut out,
        "routes (server-side latency)",
        "route",
        &summary_rows(text, "mst_route_latency_us", &["route"]),
    );
    render_table(
        &mut out,
        "solver kernels",
        "kernel  solver",
        &summary_rows(text, "mst_kernel_latency_us", &["kernel", "solver"]),
    );
    render_table(
        &mut out,
        "tenants",
        "tenant",
        &summary_rows(text, "mst_tenant_latency_us", &["tenant"]),
    );
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
        let text = crate::loadgen::fetch_metrics_text(&addr)?;
        let frame = render_frame(&addr, &text);
        frames += 1;
        if iterations > 0 && frames >= iterations {
            // The final frame is the command output, so one-shot runs
            // compose with --out-style redirection and tests.
            return Ok(frame);
        }
        if tty {
            // Clear + home keeps the tables anchored like top(1).
            print!("\x1b[2J\x1b[H{frame}");
        } else {
            print!("{frame}");
        }
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPOSITION: &str = "\
mst_uptime_secs 12\n\
mst_requests_total 400\n\
mst_queue_depth 2\n\
mst_obs_dropped_spans_total 0\n\
mst_route_latency_us{route=\"/batch\",quantile=\"0.5\"} 4000\n\
mst_route_latency_us{route=\"/batch\",quantile=\"0.99\"} 9000\n\
mst_route_latency_us{route=\"/batch\",quantile=\"0.999\"} 9500\n\
mst_route_latency_us{route=\"/batch\",quantile=\"1\"} 9800\n\
mst_route_latency_us_sum{route=\"/batch\"} 80000\n\
mst_route_latency_us_count{route=\"/batch\"} 20\n\
mst_route_latency_us{route=\"/solve\",quantile=\"0.5\"} 700\n\
mst_route_latency_us{route=\"/solve\",quantile=\"0.99\"} 2100\n\
mst_route_latency_us{route=\"/solve\",quantile=\"0.999\"} 2500\n\
mst_route_latency_us{route=\"/solve\",quantile=\"1\"} 2600\n\
mst_route_latency_us_sum{route=\"/solve\"} 250000\n\
mst_route_latency_us_count{route=\"/solve\"} 350\n\
mst_kernel_latency_us{kernel=\"solve\",solver=\"optimal\",quantile=\"0.5\"} 400\n\
mst_kernel_latency_us{kernel=\"solve\",solver=\"optimal\",quantile=\"0.99\"} 1500\n\
mst_kernel_latency_us{kernel=\"solve\",solver=\"optimal\",quantile=\"0.999\"} 1600\n\
mst_kernel_latency_us{kernel=\"solve\",solver=\"optimal\",quantile=\"1\"} 1700\n\
mst_kernel_latency_us_sum{kernel=\"solve\",solver=\"optimal\"} 150000\n\
mst_kernel_latency_us_count{kernel=\"solve\",solver=\"optimal\"} 350\n";

    #[test]
    fn summary_rows_group_by_label_keys_with_counts() {
        let routes = summary_rows(EXPOSITION, "mst_route_latency_us", &["route"]);
        assert_eq!(routes.keys().collect::<Vec<_>>(), ["/batch", "/solve"]);
        let solve = &routes["/solve"];
        assert_eq!(solve.count, 350);
        assert_eq!(solve.sum, 250000);
        assert_eq!(solve.quantile_ms("0.5"), 0.7);
        assert_eq!(solve.quantile_ms("0.99"), 2.1);

        let kernels = summary_rows(EXPOSITION, "mst_kernel_latency_us", &["kernel", "solver"]);
        assert_eq!(kernels.keys().collect::<Vec<_>>(), ["solve  optimal"]);
        assert_eq!(kernels["solve  optimal"].count, 350);
    }

    #[test]
    fn frames_render_the_header_and_every_populated_table() {
        let frame = render_frame("127.0.0.1:9", EXPOSITION);
        assert!(frame.contains("up 12s"), "{frame}");
        assert!(frame.contains("requests 400"), "{frame}");
        assert!(frame.contains("/solve"), "{frame}");
        assert!(frame.contains("solve  optimal"), "{frame}");
        // No tenant traffic in the fixture: the tenants table is elided.
        assert!(!frame.contains("tenants"), "{frame}");
    }
}
