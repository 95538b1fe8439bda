//! The `mst serve` process under test: spawn, time to first healthy
//! reply, counters, peak memory, and a kill that always waits.

use crate::client::{self, Conn};
use mst_api::wire::Json;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to answer its first `/healthz`.
const START_TIMEOUT: Duration = Duration::from_secs(90);

/// A running `mst serve`; dropping it kills the process and waits.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    pub addr: SocketAddr,
    /// Spawn to the first `200` on `/healthz`.
    pub setup: Duration,
}

impl ServerProc {
    /// Spawns `mst serve` on a free port, optionally over a store log,
    /// and waits until it answers `/healthz` with `200`.
    pub fn start(mst: &Path, store: Option<&Path>) -> Result<ServerProc, String> {
        let started = Instant::now();
        let mut command = Command::new(mst);
        command.args(["serve", "--addr", "127.0.0.1:0"]);
        if let Some(store) = store {
            command.arg("--store").arg(store);
        }
        // SAFETY: the closure runs in the forked child before exec and
        // makes one async-signal-safe call, prctl(PR_SET_PDEATHSIG,
        // SIGKILL), which reads no memory of ours. It kills the server
        // if this process dies without running `Drop`.
        unsafe {
            command.pre_exec(|| {
                extern "C" {
                    fn prctl(option: i32, ...) -> i32;
                }
                const PR_SET_PDEATHSIG: i32 = 1;
                const SIGKILL: u64 = 9;
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", mst.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // The first line announces the bound address; the rest is
        // drained so the server can never block on a full pipe.
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(stdout).lines();
            let _ = tx.send(lines.next());
            for _ in lines {}
        });
        let mut server = ServerProc {
            child,
            stdout: Some(reader),
            addr: ([0, 0, 0, 0], 0).into(),
            setup: Duration::ZERO,
        };
        let line = match rx.recv_timeout(START_TIMEOUT) {
            Ok(Some(Ok(line))) => line,
            _ => return Err("mst serve exited or stalled before announcing its address".into()),
        };
        server.addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("cannot read the address from {line:?}"))?;
        loop {
            if let Ok(reply) = Conn::new(server.addr).exchange(&client::get("/healthz")) {
                if reply.status == 200 {
                    break;
                }
            }
            if started.elapsed() > START_TIMEOUT {
                return Err("mst serve never answered /healthz with 200".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        server.setup = started.elapsed();
        Ok(server)
    }

    /// The process's peak resident set (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's /proc status: {e}"))?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line in /proc status")?;
        Ok(kb / 1024.0)
    }

    /// One `GET` on a fresh connection; the body on `200`.
    pub fn fetch(&self, path: &str) -> Result<Vec<u8>, String> {
        let reply = Conn::new(self.addr)
            .exchange(&client::get(path))
            .map_err(|e| format!("GET {path}: {e}"))?;
        if reply.status != 200 {
            return Err(format!("GET {path} answered {}", reply.status));
        }
        Ok(reply.body)
    }

    /// The counters the server exports, from both `/metrics` forms.
    pub fn counters(&self) -> Result<Counters, String> {
        let json = self.fetch("/metrics")?;
        let json = Json::parse(&String::from_utf8_lossy(&json))
            .map_err(|e| format!("/metrics is not JSON: {e}"))?;
        let prom = String::from_utf8_lossy(&self.fetch("/metrics?format=prometheus")?).to_string();
        Ok(Counters { json, prom: parse_prom(&prom), at: Instant::now() })
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
    }
}

/// The unlabelled samples of a Prometheus text exposition.
fn parse_prom(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.contains('{'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// One scrape of the server's counters.
#[derive(Debug, Clone)]
pub struct Counters {
    json: Json,
    prom: BTreeMap<String, f64>,
    /// When the scrape was taken.
    pub at: Instant,
}

impl Counters {
    /// A top-level counter of the JSON `/metrics` body.
    pub fn global(&self, key: &str) -> f64 {
        self.json.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    /// A counter of the anonymous (default) tenant.
    pub fn tenant(&self, key: &str) -> f64 {
        self.json
            .get("tenants")
            .and_then(|t| t.get("default"))
            .and_then(|t| t.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// An unlabelled Prometheus sample.
    pub fn prom(&self, name: &str) -> f64 {
        self.prom.get(name).copied().unwrap_or(0.0)
    }

    /// The per-layer counts the server exports, as a flat map.
    pub fn flat(&self) -> BTreeMap<String, f64> {
        let mut out: BTreeMap<String, f64> = self.prom.clone();
        for key in ["cache_hits_total", "cache_misses_total", "cache_entries", "store_records"] {
            out.insert(format!("tenant.default.{key}"), self.tenant(key));
        }
        out
    }
}
