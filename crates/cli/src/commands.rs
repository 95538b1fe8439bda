//! The CLI subcommand implementations.
//!
//! Every command takes parsed [`Args`] and returns the text to print (so
//! the integration tests exercise commands without spawning processes).
//!
//! Scheduling commands route through the unified [`mst_api`] surface:
//! one [`SolverRegistry`] resolves `--solver` names, one
//! [`mst_api::verify`] oracle checks results, and `mst batch` sweeps
//! generated instance sets across cores with [`Batch`].

use crate::args::Args;
use mst_api::{Batch, Instance, Platform, ScheduleRepr, SolverRegistry, TopologyKind};
use mst_platform::format::to_text;
use mst_platform::{HeterogeneityProfile, Spider, Tree};
use mst_schedule::format::{
    chain_schedule_from_text, chain_schedule_to_text, spider_schedule_from_text,
    spider_schedule_to_text,
};
use mst_schedule::{check_chain, check_spider, gantt, metrics};
use mst_verify::sim::{embed_chain, embed_spider, simulate};
use std::fmt::Write as _;
use std::fs;

/// Top-level dispatch; returns the output to print or a usage error.
pub fn run(args: &Args) -> Result<String, String> {
    match args.command.as_str() {
        "schedule" => cmd_schedule(args),
        "plan" => cmd_plan(args),
        "validate" => cmd_validate(args),
        "gantt" => cmd_gantt(args),
        "generate" => cmd_generate(args),
        "stats" => cmd_stats(args),
        "diff" => cmd_diff(args),
        "curve" => cmd_curve(args),
        "solvers" => cmd_solvers(args),
        "tenants" => cmd_tenants(args),
        "batch" => cmd_batch(args),
        "serve" => cmd_serve(args),
        "loadgen" => crate::loadgen::cmd_loadgen(args),
        "top" => crate::top::cmd_top(args),
        "chaos" => cmd_chaos(args),
        "check-model" => cmd_check_model(args),
        "fuzz" => cmd_fuzz(args),
        "history" => cmd_history(args),
        "" | "help" | "--help" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n\n{}", usage())),
    }
}

/// The help text.
pub fn usage() -> String {
    "mst — optimal master-slave tasking on heterogeneous processors (Dutot, IPPS 2003)

USAGE:
    mst schedule <instance> --tasks N [--solver NAME] [--out FILE] [--gantt]
        Schedule N tasks (chain, fork, spider or tree instance) with any
        registered solver (default: optimal).
    mst plan <instance> --deadline T [--cap N] [--solver NAME]
        Maximum tasks finishing by the deadline (the T_lim variant).
    mst solvers [--config FILE] [--registry NAME]
        List the solver registry: names, topologies, deadline support.
        --config loads a JSON registry config (overlays, aliases,
        restrictions); --registry picks one of its named registries.
    mst tenants [--config FILE]
        Inspect the resolved execution policies of a tenant config:
        API token, thread budget, admission quota, per-request caps,
        deadline budget and solver count per tenant.
    mst batch <chain|fork|spider|tree> --count K --tasks N [--size P]
              [--solver NAME] [--profile NAME] [--deadline T]
        Generate K seeded instances and sweep them across all cores.
    mst serve [--addr HOST:PORT] [--threads N] [--solvers-config FILE]
              [--store FILE]
        Serve the solver API over HTTP (default 127.0.0.1:8080):
        POST /solve, POST /batch, GET /solvers, /healthz, /metrics,
        /history. --solvers-config loads per-tenant registries
        selectable by the registry request field. --store appends every
        solved instance to a crash-safe record log, serves GET /history
        from it and warm-starts the solution cache from prior records
        on boot. Stops gracefully on ctrl-c.
    mst loadgen [--addr HOST:PORT] [--tenants N] [--rate R] [--seconds S]
                [--seed S] [--out FILE] [--check BASELINE]
                [--tolerance F] [--p99-limit MS]
                [--solvers-config FILE] [--server-metrics]
        Open-loop capacity probe against a live mst serve: a seeded
        Poisson arrival schedule of mixed solve/batch/session traffic
        over N keep-alive connections, latencies measured from each
        request's *scheduled* arrival (no coordinated omission).
        Prints a flat JSON report (throughput, p50/p99/p999); a live
        one-line progress ticker shows on stderr when it is a
        terminal. --solvers-config authenticates the workers with the
        named tenants' real X-Api-Token values from the same config
        mst serve loads. --server-metrics reads the target's JSON
        /metrics document after the run and adds server-side
        /solve quantiles plus client-overhead attribution to the
        report. With --check it becomes a gate: non-zero exit on any
        error, on throughput below baseline*(1-tolerance), or on p99
        over the limit.
    mst top [--addr HOST:PORT] [--interval-ms N] [--iterations K]
        Live top(1)-style view over a serve instance's JSON /metrics:
        per-route, per-solver-kernel and per-tenant latency summaries
        (count, p50/p99/p999/max) refreshed every interval. Redraws in
        place at a terminal; redirected output prints one plain frame
        (or K frames with --iterations).
    mst chaos [--addr HOST:PORT] [--seed S] [--minutes M]
        Drive a live mst serve instance through a seeded fault plan:
        session repairs, dropped connections mid-frame, poison-pill
        requests and store-path probes, re-checking /healthz after
        every action. Prints a structured JSON report; any violated
        availability invariant makes the command exit non-zero with
        the same report (fail closed). Same seed, same hostile
        schedule — a failure reproduces from its seed.
    mst check-model [--max-procs P] [--max-tasks N] [--max-weight W]
        Bounded model check of the oracle gate: exhaustively enumerate
        every chain, fork, spider and tree up to P processors (default
        3) with weights 1..=W (default 2) and task counts up to N
        (default 3), asserting on each that solver makespans are never
        below the exact branch-and-bound, that the Definition-1 oracle
        and the independent reference simulator agree on every witness
        and every mutation of it, and that canonical-form restore
        round-trips feasibility. Prints a JSON report; any violation
        makes the command exit non-zero with the same report.
    mst fuzz [--minutes M] [--seed S] [--corpus DIR]
        Differential fuzzing of the same properties on seeded random
        instances beyond the model checker's bounds. Failures are
        minimized (task / processor / leg / leaf deletion) before they
        are reported; with --corpus, minimized failures are persisted
        and replayed on the next run. Fail-closed JSON report like
        check-model.
    mst history <store> [--tenant NAME] [--solver NAME] [--limit K]
        Inspect a result store offline: the records a --store server
        appended, newest first, filterable by tenant and solver.
    mst validate <instance> <schedule>
        Check a chain, fork or spider schedule file with both
        Definition-1 judges: the pairwise oracle and the reference
        simulator. Exits non-zero on any violation, or if they disagree.
    mst gantt <instance> <schedule>
        Render a schedule file as an ASCII Gantt chart.
    mst generate <chain|fork|spider|tree> --size P [--profile NAME] [--seed S]
        Emit a random instance (profiles: uniform, homogeneous, comm-bound,
        compute-bound, bimodal).
    mst stats <instance> --tasks N
        Compare the optimal makespan against heuristics and bounds.
    mst diff <instance> <schedule-a> <schedule-b>
        Structural comparison of two chain schedules.
    mst curve <instance> --max N
        Optimal makespan, marginal cost and pipeline depth for 1..=N tasks.
"
    .to_string()
}

/// `--key` parsed as a strictly positive integer (rejects 0 and
/// negatives before any `as usize`/`as u64` cast can wrap).
fn positive_opt(args: &Args, key: &str, default: i64) -> Result<i64, String> {
    let value = args.int_opt(key, default)?;
    if value <= 0 {
        return Err(format!("--{key} must be at least 1, got {value}"));
    }
    Ok(value)
}

fn read_file(path: &str) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn load_platform(path: &str) -> Result<Platform, String> {
    Platform::parse(&read_file(path)?).map_err(|e| format!("{path}: {e}"))
}

/// The schedule text form of a solution, for `--out` files (tree
/// schedules have no text format yet; they travel as wire JSON).
fn solution_to_text(solution: &mst_api::Solution) -> Option<String> {
    match solution.schedule()? {
        ScheduleRepr::Chain(s) => Some(chain_schedule_to_text(s)),
        ScheduleRepr::Spider(s) => Some(spider_schedule_to_text(s)),
        ScheduleRepr::Tree(_) => None,
    }
}

fn cmd_schedule(args: &Args) -> Result<String, String> {
    let path = args.pos(0, "instance")?;
    let n = positive_opt(args, "tasks", 1)? as usize;
    let solver_name = args.opt("solver").unwrap_or("optimal");
    let registry = SolverRegistry::global();
    let instance = Instance::new(load_platform(path)?, n);
    let solution = registry.solve(solver_name, &instance).map_err(|e| e.to_string())?;

    let mut out = String::new();
    writeln!(out, "platform: {}", instance.platform).unwrap();
    if let Some(cover) = solution.sub_platform() {
        // Tree solved through a spider cover: say which part of the
        // platform actually works.
        writeln!(
            out,
            "best spider-cover makespan for {n} tasks: {} (covering {} of {} processors)",
            solution.makespan(),
            cover.num_processors(),
            instance.platform.num_processors()
        )
        .unwrap();
    } else {
        writeln!(out, "{solver_name} makespan for {n} tasks: {}", solution.makespan()).unwrap();
    }
    if args.flag("gantt") {
        if let Some(chart) = solution.gantt(&instance.platform) {
            out.push_str(&chart);
        }
    }
    match solution.schedule() {
        Some(ScheduleRepr::Chain(s)) => out.push_str(&s.to_string()),
        Some(ScheduleRepr::Spider(s)) => out.push_str(&s.to_string()),
        Some(ScheduleRepr::Tree(s)) => out.push_str(&s.to_string()),
        None => writeln!(out, "({solver_name} reports a makespan without a schedule)").unwrap(),
    }
    if let Some(dest) = args.opt("out") {
        let text = solution_to_text(&solution)
            .ok_or_else(|| format!("solver {solver_name} produces no schedule to write"))?;
        fs::write(dest, text).map_err(|e| format!("cannot write {dest}: {e}"))?;
        writeln!(out, "schedule written to {dest}").unwrap();
    }
    Ok(out)
}

fn cmd_plan(args: &Args) -> Result<String, String> {
    let path = args.pos(0, "instance")?;
    let deadline = args.int_opt("deadline", -1)?;
    if deadline < 0 {
        return Err("--deadline is required and must be non-negative".into());
    }
    let cap = positive_opt(args, "cap", 1_000_000)? as usize;
    let solver_name = args.opt("solver").unwrap_or("optimal");
    let registry = SolverRegistry::global();
    let instance = Instance::new(load_platform(path)?, cap);
    let solution =
        registry.solve_by_deadline(solver_name, &instance, deadline).map_err(|e| e.to_string())?;
    let mut out = String::new();
    writeln!(out, "{} task(s) fit by t = {deadline}", solution.n()).unwrap();
    match solution.schedule() {
        Some(ScheduleRepr::Chain(s)) => out.push_str(&s.to_string()),
        Some(ScheduleRepr::Spider(s)) => out.push_str(&s.to_string()),
        Some(ScheduleRepr::Tree(s)) => out.push_str(&s.to_string()),
        None => {}
    }
    Ok(out)
}

/// Loads a [`mst_api::RegistrySet`] from `--config`/`--solvers-config`.
fn load_registry_set(args: &Args, flag: &str) -> Result<Option<mst_api::RegistrySet>, String> {
    let Some(path) = args.opt(flag) else { return Ok(None) };
    if path.is_empty() {
        return Err(format!("--{flag} expects a file path"));
    }
    let text = read_file(path)?;
    mst_api::RegistrySet::parse(&text).map(Some).map_err(|e| format!("{path}: {e}"))
}

fn cmd_solvers(args: &Args) -> Result<String, String> {
    let set = load_registry_set(args, "config")?;
    let registry = match (&set, args.opt("registry")) {
        (None, Some(_)) => return Err("--registry needs --config".into()),
        (None, None) => SolverRegistry::global().clone(),
        (Some(set), None) => set.default_registry().clone(),
        (Some(set), Some(name)) => set
            .get(name)
            .ok_or_else(|| {
                format!("no registry named {name:?} in the config (available: {:?})", set.names())
            })?
            .clone(),
    };
    let mut out = String::new();
    if let Some(set) = &set {
        if !set.names().is_empty() {
            writeln!(out, "named registries: {}", set.names().join(", ")).unwrap();
        }
    }
    writeln!(
        out,
        "{:<18} {:<7} {:<6} {:<7} {:<5} {:<9} description",
        "name", "chain", "fork", "spider", "tree", "deadline"
    )
    .unwrap();
    for solver in registry.solvers() {
        let tick = |kind| if solver.supports(kind) { "yes" } else { "-" };
        writeln!(
            out,
            "{:<18} {:<7} {:<6} {:<7} {:<5} {:<9} {}",
            solver.name(),
            tick(TopologyKind::Chain),
            tick(TopologyKind::Fork),
            tick(TopologyKind::Spider),
            tick(TopologyKind::Tree),
            if solver.by_deadline() { "yes" } else { "-" },
            solver.description(),
        )
        .unwrap();
    }
    Ok(out)
}

fn cmd_tenants(args: &Args) -> Result<String, String> {
    let set = load_registry_set(args, "config")?.unwrap_or_else(mst_api::RegistrySet::builtin);
    let mut out = String::new();
    writeln!(
        out,
        "{:<14} {:<16} {:<8} {:<6} {:<14} {:<12} solvers",
        "tenant", "token", "threads", "quota", "max-instances", "deadline-ms"
    )
    .unwrap();
    let fmt_opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |n| n.to_string());
    let mut row =
        |name: &str, registry: &mst_api::SolverRegistry, limits: &mst_api::TenantLimits| {
            writeln!(
                out,
                "{:<14} {:<16} {:<8} {:<6} {:<14} {:<12} {}",
                name,
                limits.token.as_deref().unwrap_or(if name == "default" { "-" } else { name }),
                limits.threads.map_or_else(|| "shared".to_string(), |n| n.to_string()),
                fmt_opt(limits.quota.map(|n| n as u64)),
                fmt_opt(limits.max_instances.map(|n| n as u64)),
                fmt_opt(limits.deadline_ms),
                registry.len(),
            )
            .unwrap();
        };
    row("default", set.default_registry(), set.default_limits());
    for (name, registry, limits) in set.tenants() {
        row(name, registry, limits);
    }
    Ok(out)
}

fn topology_by_name(name: &str) -> Result<TopologyKind, String> {
    TopologyKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown topology {name:?}"))
}

fn cmd_batch(args: &Args) -> Result<String, String> {
    let kind = topology_by_name(args.pos(0, "topology")?)?;
    let count = positive_opt(args, "count", 100)? as u64;
    let tasks = positive_opt(args, "tasks", 8)? as usize;
    let size = positive_opt(args, "size", 4)? as usize;
    let solver_name = args.opt("solver").unwrap_or("optimal").to_string();
    let profile = profile_by_name(args.opt("profile").unwrap_or("uniform"))?;

    // The same shared generator the `/batch` endpoint and the benchmark
    // use (`mst_api::fleet`), so a CLI sweep names the same instances.
    let instances = mst_api::fleet::SweepSpec::new(kind, count)
        .size(size)
        .tasks(tasks)
        .profile(profile)
        .instances();
    let batch = Batch::default().with_solver(&solver_name);
    let started = std::time::Instant::now();
    let results = if args.opt("deadline").is_some() {
        let deadline = args.int_opt("deadline", 0)?;
        if deadline < 0 {
            return Err("--deadline must be non-negative".into());
        }
        batch.solve_all_by_deadline(&instances, deadline)
    } else {
        batch.solve_all(&instances)
    };
    let elapsed = started.elapsed();
    let summary = mst_api::BatchSummary::of(&results);
    if let Some(first_err) = results.iter().find_map(|r| r.as_ref().err()) {
        return Err(format!("batch failed ({} instance(s)): {first_err}", summary.failed));
    }
    let mut out = String::new();
    writeln!(
        out,
        "swept {count} {kind} instance(s) (size {size}, {tasks} task cap) with {solver_name}",
    )
    .unwrap();
    writeln!(out, "{summary}").unwrap();
    writeln!(
        out,
        "wall time {:.3}s ({:.0} instances/s)",
        elapsed.as_secs_f64(),
        count as f64 / elapsed.as_secs_f64().max(1e-9)
    )
    .unwrap();
    Ok(out)
}

fn cmd_serve(args: &Args) -> Result<String, String> {
    let addr = args.opt("addr").unwrap_or("127.0.0.1:8080").to_string();
    let threads = match args.opt("threads") {
        None => None,
        Some(_) => Some(positive_opt(args, "threads", 1)? as usize),
    };
    let registries = load_registry_set(args, "solvers-config")?;
    let store = match args.opt("store") {
        Some("") => return Err("--store expects a file path".into()),
        other => other.map(String::from),
    };
    let config = mst_serve::ServeConfig {
        addr,
        threads,
        registries,
        store,
        ..mst_serve::ServeConfig::default()
    };
    let server = mst_serve::Server::bind(config).map_err(|e| format!("cannot serve: {e}"))?;
    mst_serve::install_sigint_handler();
    // Announce readiness before blocking so scripts (and the CI smoke)
    // know when to start talking to us.
    println!("mst-serve listening on http://{} (ctrl-c to stop)", server.addr());
    let report = server.run().map_err(|e| format!("server failed: {e}"))?;
    Ok(format!(
        "shut down after {} connection(s), {} request(s), {} instance(s) solved\n",
        report.connections, report.requests, report.solved
    ))
}

/// `mst chaos` — the seeded fault-injection harness of
/// [`crate::chaos`]: hostile traffic against a live server, structured
/// fail-closed report.
fn cmd_chaos(args: &Args) -> Result<String, String> {
    let addr = args.opt("addr").unwrap_or("127.0.0.1:8080");
    let seed = args.int_opt("seed", 1)?;
    if seed < 0 {
        return Err("--seed must be non-negative".into());
    }
    let minutes: f64 = match args.opt("minutes") {
        None => 0.25,
        Some(raw) => raw.parse().map_err(|_| format!("--minutes must be a number, got {raw:?}"))?,
    };
    if !(0.0..=120.0).contains(&minutes) {
        return Err("--minutes must be between 0 and 120".into());
    }
    let report = crate::chaos::run_chaos(addr, seed as u64, minutes);
    let json = report.to_json();
    if report.ok() {
        Ok(json)
    } else {
        Err(json)
    }
}

/// `mst check-model` — the exhaustive bounded model check of
/// [`mst_verify`]: every platform within the bounds, every gate
/// property, fail-closed JSON verdict.
fn cmd_check_model(args: &Args) -> Result<String, String> {
    let bounds = mst_verify::ModelBounds {
        max_procs: positive_opt(args, "max-procs", 3)? as usize,
        max_tasks: positive_opt(args, "max-tasks", 3)? as usize,
        max_weight: positive_opt(args, "max-weight", 2)?,
    };
    if bounds.max_procs > 6 {
        return Err("--max-procs above 6 would enumerate millions of trees; stay within 6".into());
    }
    let registry = SolverRegistry::with_defaults();
    let report = mst_verify::check_model(&registry, &bounds);
    let json = report.to_json();
    if report.ok() {
        Ok(json)
    } else {
        Err(json)
    }
}

/// `mst fuzz` — the seeded differential fuzzer of [`mst_verify`]:
/// random instances against the gate properties for a wall-clock
/// budget, minimized failures, fail-closed JSON verdict.
fn cmd_fuzz(args: &Args) -> Result<String, String> {
    let seed = args.int_opt("seed", 42)?;
    if seed < 0 {
        return Err("--seed must be non-negative".into());
    }
    let minutes: f64 = match args.opt("minutes") {
        None => 1.0,
        Some(raw) => raw.parse().map_err(|_| format!("--minutes must be a number, got {raw:?}"))?,
    };
    if !(0.0..=120.0).contains(&minutes) {
        return Err("--minutes must be between 0 and 120".into());
    }
    let config = mst_verify::FuzzConfig {
        seed: seed as u64,
        minutes,
        corpus: args.opt("corpus").map(std::path::PathBuf::from),
    };
    let registry = SolverRegistry::with_defaults();
    let report = mst_verify::run_fuzz(&registry, &config);
    let json = report.to_json();
    if report.ok() {
        Ok(json)
    } else {
        Err(json)
    }
}

/// `mst history <store>` — inspect a `--store` record log offline:
/// which instances were solved, by which tenant and solver, how fast.
fn cmd_history(args: &Args) -> Result<String, String> {
    let path = args.pos(0, "store")?;
    if !std::path::Path::new(path).is_file() {
        return Err(format!("no result store at {path} (start one with mst serve --store {path})"));
    }
    let store = mst_store::FileStore::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    history_table(&store, path, args)
}

/// The `mst history` listing of an open store: the newest `--limit`
/// records that pass the filters, read from the store's index alone.
fn history_table(
    store: &dyn mst_store::StoreBackend,
    path: &str,
    args: &Args,
) -> Result<String, String> {
    let limit = positive_opt(args, "limit", 50)? as usize;
    let page = store.history(args.opt("tenant"), args.opt("solver"), limit);
    let mut out = String::new();
    writeln!(out, "{} record(s) in {path} ({} shown, newest first)", store.len(), page.len())
        .unwrap();
    writeln!(
        out,
        "{:<12} {:<18} {:>6} {:>9} {:>9} {:>11}  platform",
        "tenant", "solver", "tasks", "deadline", "makespan", "elapsed-us"
    )
    .unwrap();
    for r in page {
        writeln!(
            out,
            "{:<12} {:<18} {:>6} {:>9} {:>9} {:>11}  {}",
            r.tenant,
            r.solver,
            r.tasks,
            r.deadline.map_or_else(|| "-".to_string(), |d| d.to_string()),
            r.makespan,
            r.elapsed_us,
            r.platform.lines().next().unwrap_or(""),
        )
        .unwrap();
    }
    Ok(out)
}

/// `mst validate` — both Definition-1 judges on one schedule file: the
/// pairwise oracle (`check_chain` / `check_spider`) and the reference
/// simulator ([`mst_verify::sim`]) replaying the schedule's tree
/// embedding. A fork is checked as the depth-one spider
/// [`Spider::from_fork`] builds. Any rejection, or any disagreement
/// between the judges, is an error.
fn cmd_validate(args: &Args) -> Result<String, String> {
    let inst_path = args.pos(0, "instance")?;
    let sched_path = args.pos(1, "schedule")?;
    let sched_text = read_file(sched_path)?;
    let bad_file = |e: mst_platform::PlatformError| format!("{sched_path}: {e}");
    let on_spider = |spider: Spider| -> Result<_, String> {
        let s = spider_schedule_from_text(&spider, &sched_text).map_err(bad_file)?;
        Ok((check_spider(&spider, &s), Tree::from_spider(&spider), embed_spider(&spider, &s)))
    };
    let (report, tree, embedded) = match load_platform(inst_path)? {
        Platform::Chain(chain) => {
            let s = chain_schedule_from_text(&chain, &sched_text).map_err(bad_file)?;
            (check_chain(&chain, &s), Tree::from_chain(&chain), embed_chain(&s))
        }
        Platform::Spider(spider) => on_spider(spider)?,
        Platform::Fork(fork) => on_spider(Spider::from_fork(&fork))?,
        Platform::Tree(_) => return Err("validate expects a chain, fork or spider instance".into()),
    };
    let verdict = simulate(&tree, &embedded);
    if !report.is_feasible() {
        let mut msg = String::from("INFEASIBLE:\n");
        for v in &report.violations {
            writeln!(msg, "  - {v}").unwrap();
        }
        if verdict.accepted() {
            msg.push_str("JUDGES DISAGREE: the reference simulator accepts this schedule\n");
        }
        return Err(msg);
    }
    if let Some(rejection) = verdict.rejections.first() {
        return Err(format!(
            "JUDGES DISAGREE: the oracle accepts this schedule, the reference simulator \
             rejects it: {rejection}\n"
        ));
    }
    if verdict.makespan != report.makespan {
        return Err(format!(
            "JUDGES DISAGREE: the oracle's makespan is {}, the reference simulator's is {}\n",
            report.makespan, verdict.makespan
        ));
    }
    Ok(format!(
        "feasible: {} tasks, makespan {} (oracle and reference simulator agree)\n",
        report.tasks, report.makespan
    ))
}

fn cmd_gantt(args: &Args) -> Result<String, String> {
    let inst_path = args.pos(0, "instance")?;
    let sched_path = args.pos(1, "schedule")?;
    let sched_text = read_file(sched_path)?;
    match load_platform(inst_path)? {
        Platform::Chain(chain) => {
            let s = chain_schedule_from_text(&chain, &sched_text)
                .map_err(|e| format!("{sched_path}: {e}"))?;
            Ok(gantt::render_chain(&chain, &s))
        }
        Platform::Spider(spider) => {
            let s = spider_schedule_from_text(&spider, &sched_text)
                .map_err(|e| format!("{sched_path}: {e}"))?;
            Ok(gantt::render_spider(&spider, &s))
        }
        Platform::Fork(fork) => {
            let spider = mst_platform::Spider::from_fork(&fork);
            let s = spider_schedule_from_text(&spider, &sched_text)
                .map_err(|e| format!("{sched_path}: {e}"))?;
            Ok(gantt::render_spider(&spider, &s))
        }
        Platform::Tree(_) => Err("gantt expects a chain, fork or spider instance".into()),
    }
}

fn profile_by_name(name: &str) -> Result<HeterogeneityProfile, String> {
    HeterogeneityProfile::by_name(name).ok_or_else(|| format!("unknown profile {name:?}"))
}

fn cmd_generate(args: &Args) -> Result<String, String> {
    let kind = args.pos(0, "topology")?;
    let size = positive_opt(args, "size", 4)? as usize;
    let seed = args.int_opt("seed", 0)? as u64;
    let profile = profile_by_name(args.opt("profile").unwrap_or("uniform"))?;
    // Same mapping as `mst batch`: a batch instance regenerates from its
    // (topology, profile, seed, size).
    let kind = topology_by_name(kind)?;
    let platform = Instance::generate(kind, profile, seed, size, 1).platform;
    Ok(to_text(&platform.into()))
}

fn cmd_stats(args: &Args) -> Result<String, String> {
    use mst_baselines::bounds::chain_lower_bound;
    let path = args.pos(0, "instance")?;
    let n = positive_opt(args, "tasks", 10)? as usize;
    let platform = load_platform(path)?;
    let chain = platform
        .as_chain()
        .ok_or_else(|| "stats currently expects a chain instance".to_string())?
        .clone();
    let registry = SolverRegistry::global();
    let instance = Instance::new(platform.clone(), n);
    let makespan_of = |solver: &str| -> Result<i64, String> {
        Ok(registry.solve(solver, &instance).map_err(|e| e.to_string())?.makespan())
    };
    let opt = registry.solve("optimal", &instance).map_err(|e| e.to_string())?;
    let m = metrics::chain_metrics(&chain, opt.chain_schedule().expect("chain instance"));
    let mut out = String::new();
    writeln!(out, "platform: {chain}").unwrap();
    writeln!(out, "tasks: {n}").unwrap();
    writeln!(out, "optimal makespan:      {:>8}", opt.makespan()).unwrap();
    writeln!(out, "eager heuristic:       {:>8}", makespan_of("eager")?).unwrap();
    writeln!(out, "round robin:           {:>8}", makespan_of("round-robin")?).unwrap();
    writeln!(out, "master only:           {:>8}", makespan_of("master-only")?).unwrap();
    writeln!(out, "analytic lower bound:  {:>8}", chain_lower_bound(&chain, n)).unwrap();
    let (rt, rd) = chain.steady_state_rate();
    writeln!(out, "steady-state rate:     {rt}/{rd} task/tick").unwrap();
    writeln!(out, "tasks per processor:   {:?}", m.tasks_per_proc).unwrap();
    writeln!(out, "throughput achieved:   {:.4} task/tick", m.throughput()).unwrap();
    Ok(out)
}

fn cmd_diff(args: &Args) -> Result<String, String> {
    let inst_path = args.pos(0, "instance")?;
    let a_path = args.pos(1, "schedule-a")?;
    let b_path = args.pos(2, "schedule-b")?;
    let platform = load_platform(inst_path)?;
    let chain =
        platform.as_chain().ok_or_else(|| "diff currently expects a chain instance".to_string())?;
    let a = chain_schedule_from_text(chain, &read_file(a_path)?)
        .map_err(|e| format!("{a_path}: {e}"))?;
    let b = chain_schedule_from_text(chain, &read_file(b_path)?)
        .map_err(|e| format!("{b_path}: {e}"))?;
    Ok(mst_schedule::compare_chain(&a, &b).to_string())
}

fn cmd_curve(args: &Args) -> Result<String, String> {
    use mst_core::analysis::{depth_usage, makespan_curve, marginal_costs};
    let path = args.pos(0, "instance")?;
    let n_max = positive_opt(args, "max", 16)? as usize;
    let platform = load_platform(path)?;
    let chain = platform
        .as_chain()
        .ok_or_else(|| "curve currently expects a chain instance".to_string())?;
    let curve = makespan_curve(chain, n_max);
    let costs = marginal_costs(&curve);
    let mut out = String::new();
    writeln!(out, "{:>5} | {:>8} | {:>8} | {:>5}", "n", "makespan", "marginal", "depth").unwrap();
    for n in 1..=n_max {
        writeln!(
            out,
            "{:>5} | {:>8} | {:>8} | {:>5}",
            n,
            curve[n - 1],
            costs[n - 1],
            depth_usage(chain, n)
        )
        .unwrap();
    }
    let (rt, rd) = chain.steady_state_rate();
    writeln!(out, "steady-state period: {rd}/{rt} ticks per task").unwrap();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_api::verify;
    use mst_platform::format::parse as parse_instance;
    use std::path::PathBuf;

    fn tmp(name: &str, contents: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mst-cli-test-{}-{name}", std::process::id()));
        fs::write(&p, contents).expect("write temp file");
        p
    }

    fn run_line(line: &str) -> Result<String, String> {
        run(&Args::parse(line.split_whitespace().map(String::from)))
    }

    #[test]
    fn schedule_command_on_figure2() {
        let inst = tmp("fig2.txt", "chain\n2 3\n3 5\n");
        let out = run_line(&format!("schedule {} --tasks 5 --gantt", inst.display())).unwrap();
        assert!(out.contains("optimal makespan for 5 tasks: 14"), "{out}");
        assert!(out.contains("link 1"));
    }

    #[test]
    fn schedule_accepts_registry_solvers() {
        let inst = tmp("fig2solver.txt", "chain\n2 3\n3 5\n");
        let out =
            run_line(&format!("schedule {} --tasks 5 --solver eager", inst.display())).unwrap();
        assert!(out.contains("eager makespan for 5 tasks:"), "{out}");
        let out =
            run_line(&format!("schedule {} --tasks 5 --solver exact", inst.display())).unwrap();
        assert!(out.contains("exact makespan for 5 tasks: 14"), "{out}");
        let err =
            run_line(&format!("schedule {} --tasks 5 --solver nope", inst.display())).unwrap_err();
        assert!(err.contains("no solver named"), "{err}");
    }

    #[test]
    fn schedule_and_validate_round_trip() {
        let inst = tmp("fig2b.txt", "chain\n2 3\n3 5\n");
        let sched = std::env::temp_dir().join(format!("mst-cli-sched-{}", std::process::id()));
        run_line(&format!("schedule {} --tasks 5 --out {}", inst.display(), sched.display()))
            .unwrap();
        let out = run_line(&format!("validate {} {}", inst.display(), sched.display())).unwrap();
        assert!(out.contains("feasible: 5 tasks, makespan 14"), "{out}");
        let out = run_line(&format!("gantt {} {}", inst.display(), sched.display())).unwrap();
        assert!(out.contains("proc 2"));
    }

    #[test]
    fn validate_rejects_bogus_schedule() {
        let inst = tmp("fig2c.txt", "chain\n2 3\n3 5\n");
        // Two tasks overlapping on processor 1.
        let sched = tmp("bogus.txt", "chain-schedule\ntask 1 2 0\ntask 1 4 2\n");
        let err =
            run_line(&format!("validate {} {}", inst.display(), sched.display())).unwrap_err();
        assert!(err.contains("INFEASIBLE"), "{err}");
        assert!(err.contains("overlap"), "{err}");
        assert!(!err.contains("DISAGREE"), "the simulator rejects it too: {err}");
    }

    #[test]
    fn fork_schedules_validate_through_both_judges() {
        let inst = tmp("fork.txt", "fork\n2 3\n3 4\n");
        let ok = tmp("fork-ok.txt", "spider-schedule\ntask 0 1 2 0\ntask 1 1 5 2\n");
        let out = run_line(&format!("validate {} {}", inst.display(), ok.display())).unwrap();
        assert!(out.contains("feasible: 2 tasks, makespan 9"), "{out}");
        assert!(out.contains("agree"), "{out}");
        // Both emissions hold the master's single port during [1, 2).
        let bad = tmp("fork-bad.txt", "spider-schedule\ntask 0 1 2 0\ntask 1 1 4 1\n");
        let err = run_line(&format!("validate {} {}", inst.display(), bad.display())).unwrap_err();
        assert!(err.starts_with("INFEASIBLE:\n  - "), "the violation list, as for chains: {err}");
        assert!(!err.contains("DISAGREE"), "the simulator rejects it too: {err}");
        // A solved fork's --out file validates as well.
        let sched = std::env::temp_dir().join(format!("mst-cli-fsched-{}", std::process::id()));
        run_line(&format!("schedule {} --tasks 6 --out {}", inst.display(), sched.display()))
            .unwrap();
        let out = run_line(&format!("validate {} {}", inst.display(), sched.display())).unwrap();
        assert!(out.contains("feasible: 6 tasks"), "{out}");
    }

    #[test]
    fn plan_command_counts_tasks() {
        let inst = tmp("fig2d.txt", "chain\n2 3\n3 5\n");
        let out = run_line(&format!("plan {} --deadline 14", inst.display())).unwrap();
        assert!(out.contains("5 task(s) fit by t = 14"), "{out}");
        let out = run_line(&format!("plan {} --deadline 4", inst.display())).unwrap();
        assert!(out.contains("0 task(s)"), "{out}");
    }

    #[test]
    fn generate_emits_parseable_instances() {
        for kind in ["chain", "fork", "spider", "tree"] {
            let out = run_line(&format!("generate {kind} --size 4 --seed 3")).unwrap();
            assert!(parse_instance(&out).is_ok(), "{kind}: {out}");
        }
        assert!(run_line("generate ring --size 4").is_err());
        assert!(run_line("generate chain --profile alien").is_err());
    }

    #[test]
    fn stats_command_reports_all_lines() {
        let inst = tmp("fig2e.txt", "chain\n2 3\n3 5\n");
        let out = run_line(&format!("stats {} --tasks 5", inst.display())).unwrap();
        assert!(out.contains("optimal makespan:            14"), "{out}");
        assert!(out.contains("steady-state rate"), "{out}");
    }

    #[test]
    fn spider_instances_schedule_and_validate() {
        let inst = tmp("spider.txt", "spider\nleg 2 3 3 5\nleg 1 4\n");
        let sched = std::env::temp_dir().join(format!("mst-cli-ssched-{}", std::process::id()));
        let out =
            run_line(&format!("schedule {} --tasks 6 --out {}", inst.display(), sched.display()))
                .unwrap();
        assert!(out.contains("optimal makespan for 6 tasks"), "{out}");
        let out = run_line(&format!("validate {} {}", inst.display(), sched.display())).unwrap();
        assert!(out.contains("feasible: 6 tasks"), "{out}");
    }

    #[test]
    fn tree_instances_report_their_cover() {
        let inst = tmp("tree.txt", "tree\nnode 0 1 2\nnode 1 2 3\nnode 1 1 1\n");
        let out = run_line(&format!("schedule {} --tasks 4", inst.display())).unwrap();
        assert!(out.contains("best spider-cover makespan for 4 tasks"), "{out}");
        assert!(out.contains("of 3 processors"), "{out}");
        // A non-cover solver on a tree must not claim a cover.
        let out =
            run_line(&format!("schedule {} --tasks 2 --solver exact", inst.display())).unwrap();
        assert!(out.contains("exact makespan for 2 tasks"), "{out}");
        assert!(!out.contains("spider-cover"), "{out}");
    }

    #[test]
    fn solvers_command_lists_the_registry() {
        let out = run_line("solvers").unwrap();
        for name in [
            "optimal",
            "chain-optimal",
            "fork-optimal",
            "spider-optimal",
            "eager",
            "round-robin",
            "exact",
            "divisible",
        ] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        assert!(out.contains("deadline"), "{out}");
    }

    #[test]
    fn solvers_command_loads_registry_configs() {
        let config = tmp(
            "solvers.json",
            r#"{
                "default": {"solvers": [{"solver": "random", "name": "random-41", "seed": 41}]},
                "registries": {
                    "lean": {"base": "empty", "solvers": [
                        {"solver": "optimal"},
                        {"solver": "alias", "name": "best", "target": "optimal"}
                    ]}
                }
            }"#,
        );
        let out = run_line(&format!("solvers --config {}", config.display())).unwrap();
        assert!(out.contains("random-41"), "{out}");
        assert!(out.contains("named registries: lean"), "{out}");
        let out =
            run_line(&format!("solvers --config {} --registry lean", config.display())).unwrap();
        assert!(out.contains("best"), "{out}");
        assert!(!out.contains("eager"), "pinned registries hide unlisted solvers: {out}");

        let err = run_line(&format!("solvers --config {} --registry nope", config.display()))
            .unwrap_err();
        assert!(err.contains("no registry named"), "{err}");
        assert!(run_line("solvers --registry lean").is_err(), "--registry needs --config");
        let bad = tmp("solvers-bad.json", r#"{"solvers": [{"solver": "warp-drive"}]}"#);
        let err = run_line(&format!("solvers --config {}", bad.display())).unwrap_err();
        assert!(err.contains("unknown solver constructor"), "{err}");
    }

    #[test]
    fn tenants_command_prints_resolved_policies() {
        let config = tmp(
            "tenants.json",
            r#"{
                "registries": {
                    "acme": {
                        "only": ["optimal", "exact"],
                        "token": "acme-secret",
                        "threads": 2,
                        "quota": 4,
                        "deadline_ms": 2000
                    },
                    "lab": {"base": "empty", "solvers": [{"solver": "optimal"}]}
                }
            }"#,
        );
        let out = run_line(&format!("tenants --config {}", config.display())).unwrap();
        assert!(out.contains("acme"), "{out}");
        assert!(out.contains("acme-secret"), "{out}");
        assert!(out.lines().any(|l| l.starts_with("acme") && l.contains("2000")), "{out}");
        // The unbudgeted tenant falls back to its name as token and the
        // shared pool.
        assert!(out.lines().any(|l| l.starts_with("lab") && l.contains("shared")), "{out}");
        assert!(out.lines().any(|l| l.starts_with("default")), "{out}");
        // Without --config the builtin default policy is the only row.
        let bare = run_line("tenants").unwrap();
        assert!(bare.lines().any(|l| l.starts_with("default") && l.contains("shared")), "{bare}");
        // A broken config fails loudly.
        let bad = tmp("tenants-bad.json", r#"{"registries": {"a": {"threads": 0}}}"#);
        let err = run_line(&format!("tenants --config {}", bad.display())).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn exact_tree_schedules_print_their_witness() {
        let inst = tmp("tree-exact.txt", "tree\nnode 0 1 9\nnode 1 1 3\nnode 1 1 3\n");
        let out =
            run_line(&format!("schedule {} --tasks 4 --solver exact", inst.display())).unwrap();
        assert!(out.contains("exact makespan for 4 tasks: 9"), "{out}");
        assert!(out.contains("node ="), "the tree witness is printed:\n{out}");
        // Tree schedules have no text file format yet: --out must say so.
        let dest = std::env::temp_dir().join(format!("mst-cli-tsched-{}", std::process::id()));
        let err = run_line(&format!(
            "schedule {} --tasks 2 --solver exact --out {}",
            inst.display(),
            dest.display()
        ))
        .unwrap_err();
        assert!(err.contains("no schedule to write"), "{err}");
    }

    #[test]
    fn batch_command_sweeps_instances() {
        let out = run_line("batch chain --count 32 --tasks 6 --size 3").unwrap();
        assert!(out.contains("swept 32 chain instance(s)"), "{out}");
        assert!(out.contains("32 solved, 0 failed"), "{out}");
        let out =
            run_line("batch spider --count 8 --tasks 5 --size 3 --solver spider-optimal").unwrap();
        assert!(out.contains("8 solved, 0 failed"), "{out}");
        let out = run_line("batch chain --count 8 --tasks 9 --deadline 12").unwrap();
        assert!(out.contains("8 solved"), "{out}");
        let err = run_line("batch chain --count 8 --deadline -3").unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = run_line("batch chain --count -1").unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(run_line("batch ring --count 2").is_err());
        // A solver that rejects the topology fails the batch loudly.
        let err = run_line("batch tree --count 2 --solver chain-optimal").unwrap_err();
        assert!(err.contains("does not support"), "{err}");
    }

    #[test]
    fn diff_command_reports_differences() {
        let inst = tmp("fig2f.txt", "chain\n2 3\n3 5\n");
        let a = tmp("a.sched", "chain-schedule\ntask 1 2 0\ntask 2 9 2 4\n");
        let b = tmp("b.sched", "chain-schedule\ntask 1 2 0\ntask 1 5 2\n");
        let out =
            run_line(&format!("diff {} {} {}", inst.display(), a.display(), b.display())).unwrap();
        assert!(out.contains("task 2: runs on processor 2 vs 1"), "{out}");
        let same =
            run_line(&format!("diff {} {} {}", inst.display(), a.display(), a.display())).unwrap();
        assert!(same.contains("identical"), "{same}");
    }

    #[test]
    fn curve_command_prints_staircase() {
        let inst = tmp("fig2g.txt", "chain\n2 3\n3 5\n");
        let out = run_line(&format!("curve {} --max 5", inst.display())).unwrap();
        assert!(out.contains("steady-state period: 2/1"), "{out}");
        // n = 5 row carries the Figure-2 makespan.
        assert!(out.lines().any(|l| l.contains("5 |       14")), "{out}");
    }

    #[test]
    fn serve_command_rejects_bad_arguments() {
        let err = run_line("serve --addr not-an-address").unwrap_err();
        assert!(err.contains("cannot serve"), "{err}");
        let err = run_line("serve --threads 0").unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
    }

    #[test]
    fn loadgen_command_rejects_bad_arguments() {
        let err = run_line("loadgen --tenants 0").unwrap_err();
        assert!(err.contains("--tenants"), "{err}");
        let err = run_line("loadgen --rate -3").unwrap_err();
        assert!(err.contains("--rate"), "{err}");
        let err = run_line("loadgen --seconds 0").unwrap_err();
        assert!(err.contains("--seconds"), "{err}");
        let err = run_line("loadgen --tolerance 1.5").unwrap_err();
        assert!(err.contains("--tolerance"), "{err}");
        let err = run_line("loadgen --p99-limit nope").unwrap_err();
        assert!(err.contains("--p99-limit"), "{err}");
        let err = run_line("loadgen --addr not-an-address").unwrap_err();
        assert!(err.contains("resolve"), "{err}");
    }

    #[test]
    fn serve_command_answers_health_and_shuts_down() {
        use std::io::{Read as _, Write as _};
        // Drive the server exactly as cmd_serve wires it, but on an
        // ephemeral port with a programmatic shutdown.
        let config = mst_serve::ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..mst_serve::ServeConfig::default()
        };
        let server = mst_serve::Server::bind(config).unwrap();
        let (addr, handle) = (server.addr(), server.handle());
        let runner = std::thread::spawn(move || server.run().unwrap());
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK"), "{reply}");
        handle.shutdown();
        let report = runner.join().unwrap();
        assert_eq!(report.requests, 1);
    }

    #[test]
    fn history_command_reads_a_store_log() {
        use mst_store::StoreBackend as _;
        let path = std::env::temp_dir().join(format!("mst-cli-history-{}.log", std::process::id()));
        let _ = fs::remove_file(&path);
        // A missing store is a loud error, not an empty listing.
        let err = run_line(&format!("history {}", path.display())).unwrap_err();
        assert!(err.contains("no result store"), "{err}");
        // Write records the way a --store server does, then read back.
        let store = mst_store::FileStore::open(&path).unwrap();
        let registry = SolverRegistry::global();
        for (tenant, solver, tasks) in
            [("default", "optimal", 5), ("acme", "eager", 3), ("default", "optimal", 7)]
        {
            let instance = Instance::new(Platform::parse("chain\n2 3\n3 5\n").unwrap(), tasks);
            let solution = registry.solve(solver, &instance).unwrap();
            store
                .append(&mst_store::Record {
                    tenant: tenant.into(),
                    solver: solver.into(),
                    platform: instance.platform.to_text(),
                    tasks,
                    deadline: None,
                    canon_hash: format!("{:032x}", tasks),
                    makespan: solution.makespan(),
                    scheduled: solution.n(),
                    elapsed_us: 10,
                    solution: mst_api::wire::solution_to_json(&solution),
                })
                .unwrap();
        }
        drop(store);
        let out = run_line(&format!("history {}", path.display())).unwrap();
        assert!(out.contains("3 record(s)"), "{out}");
        assert!(out.contains("acme"), "{out}");
        let out =
            run_line(&format!("history {} --tenant default --limit 1", path.display())).unwrap();
        assert!(out.contains("1 shown"), "{out}");
        assert!(!out.contains("acme"), "filtered out:\n{out}");
        // Newest first: the limit-1 page shows the 7-task record.
        assert!(out.lines().any(|l| l.contains("optimal") && l.contains(" 7 ")), "{out}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn history_listing_reads_no_solution() {
        use mst_store::StoreBackend as _;
        let path =
            std::env::temp_dir().join(format!("mst-cli-history-index-{}.log", std::process::id()));
        let _ = fs::remove_file(&path);
        let instance = Instance::new(Platform::parse("chain\n2 3\n3 5\n").unwrap(), 5);
        let solution = SolverRegistry::global().solve("optimal", &instance).unwrap();
        let records: Vec<mst_store::Record> = (0..10_000usize)
            .map(|i| mst_store::Record {
                tenant: "default".into(),
                solver: "optimal".into(),
                platform: instance.platform.to_text(),
                tasks: 5,
                deadline: None,
                canon_hash: format!("{i:032x}"),
                makespan: solution.makespan(),
                scheduled: solution.n(),
                elapsed_us: i as u64,
                solution: mst_api::wire::solution_to_json(&solution),
            })
            .collect();
        let store = mst_store::FileStore::open(&path).unwrap();
        store.append_all(&records).unwrap();
        let shown = path.display().to_string();
        let args = Args::parse(["--limit", "1"].map(String::from));
        let out = history_table(&store, &shown, &args).unwrap();
        assert!(out.contains("10000 record(s)"), "{out}");
        assert!(out.contains("(1 shown"), "{out}");
        assert!(out.lines().any(|l| l.contains(" 9999  chain")), "newest first:\n{out}");
        assert_eq!(store.frames_read(), 0, "the listing reads no solution back");
        drop(store);
        assert_eq!(run_line(&format!("history {shown} --limit 1")).unwrap(), out);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn serve_command_accepts_a_store_path() {
        let err = run_line("serve --store").unwrap_err();
        assert!(err.contains("--store expects"), "{err}");
    }

    #[test]
    fn chaos_command_validates_arguments_and_fails_closed() {
        let err = run_line("chaos --minutes nope").unwrap_err();
        assert!(err.contains("must be a number"), "{err}");
        let err = run_line("chaos --seed -1").unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = run_line("chaos --minutes 500").unwrap_err();
        assert!(err.contains("between 0 and 120"), "{err}");
        // Nothing listens on the target: the run fails closed with the
        // structured report as the error body.
        let err = run_line("chaos --addr 127.0.0.1:1 --minutes 0").unwrap_err();
        assert!(err.contains("\"ok\": false"), "{err}");
        assert!(err.contains("\"violations\""), "{err}");
    }

    #[test]
    fn check_model_command_runs_tiny_bounds_and_validates_arguments() {
        let out = run_line("check-model --max-procs 2 --max-tasks 1 --max-weight 1").unwrap();
        assert!(out.contains("\"command\":\"check-model\""), "{out}");
        assert!(out.contains("\"ok\":true"), "{out}");
        assert!(out.contains("\"platforms\":8"), "{out}");
        let err = run_line("check-model --max-procs 0").unwrap_err();
        assert!(err.contains("must be at least 1"), "{err}");
        let err = run_line("check-model --max-procs 9").unwrap_err();
        assert!(err.contains("stay within 6"), "{err}");
    }

    #[test]
    fn fuzz_command_runs_zero_budget_and_validates_arguments() {
        let out = run_line("fuzz --minutes 0 --seed 7").unwrap();
        assert!(out.contains("\"command\":\"fuzz\""), "{out}");
        assert!(out.contains("\"seed\":7"), "{out}");
        assert!(out.contains("\"ok\":true"), "{out}");
        let err = run_line("fuzz --minutes nope").unwrap_err();
        assert!(err.contains("must be a number"), "{err}");
        let err = run_line("fuzz --seed -3").unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = run_line("fuzz --minutes 500").unwrap_err();
        assert!(err.contains("between 0 and 120"), "{err}");
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(run_line("help").unwrap().contains("USAGE"));
        assert!(run_line("help").unwrap().contains("check-model"));
        assert!(run_line("help").unwrap().contains("fuzz"));
        assert!(run_line("help").unwrap().contains("serve"));
        assert!(run_line("help").unwrap().contains("chaos"));
        assert!(run_line("help").unwrap().contains("loadgen"));
        assert!(run_line("help").unwrap().contains("history"));
        assert!(run_line("frobnicate").unwrap_err().contains("unknown command"));
        assert!(run_line("").unwrap().contains("USAGE"));
    }

    #[test]
    fn every_solution_from_the_cli_path_verifies() {
        // The command layer must never bypass the oracle: re-check the
        // solutions the schedule command would print.
        let registry = SolverRegistry::global();
        let instance = Instance::new(Platform::parse("spider\nleg 2 3 3 5\nleg 1 4\n").unwrap(), 6);
        for solver in registry.supporting(TopologyKind::Spider) {
            let solution = solver.solve(&instance).unwrap();
            assert!(
                verify(&instance, &solution).unwrap().is_feasible(),
                "{} produced an infeasible schedule",
                solver.name()
            );
        }
    }
}
