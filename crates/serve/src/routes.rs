//! Endpoint routing and handlers: the service surface over the pooled
//! [`Batch`] engine.
//!
//! | Endpoint        | Body                                              |
//! |-----------------|---------------------------------------------------|
//! | `GET /healthz`  | structured liveness: status, uptime, queue depth  |
//! | `GET /solvers`  | the solver registry (names, topologies, T_lim)    |
//! | `GET /metrics`  | every metric, as JSON or (`?format=prometheus`)   |
//! |                 | as the text exposition derived from it            |
//! | `GET /tenants`  | the resolved execution policies (tokens masked)   |
//! | `GET /history`  | the persistent result store (`--store` servers)   |
//! | `GET /trace`    | one request's span tree by `?id=` (`X-Trace-Id`)  |
//! | `GET /trace/slow` | the slowest recent requests (`?limit=`)         |
//! | `POST /solve`   | one instance, solver selectable by registry name  |
//! | `POST /batch`   | an instance sweep through the worker pool         |
//! | `POST /session` | a held evolving instance: arrivals + repairs      |
//!
//! Both solve paths are fronted by the tenant's **canonical solution
//! cache** ([`mst_api::cache`]): each instance is canonicalized
//! ([`CanonicalInstance`]) and looked up first; a hit restores the
//! cached canonical solution (rescale + leg/node remap, so `verify`
//! still passes) **without taking an admission slot or waking a
//! worker**. Misses solve the *canonical* instance, memoise it, and
//! append a record to the persistent store when one is configured —
//! which is what `GET /history` reads back and what a restarted server
//! warm-starts its caches from.
//!
//! When the server was configured with named registries (`mst serve
//! --solvers-config`), `/solve` and `/batch` accept a `"registry"` body
//! field pinning the request to that tenant's solver set, and
//! `GET /solvers?registry=NAME` lists a tenant's view; unknown names
//! answer 404 `unknown-registry` rather than silently falling back.
//!
//! Requests carrying an `X-Api-Token` header run under the matching
//! tenant's **execution policy** ([`mst_api::exec`]): its registry,
//! its dedicated worker pool, its admission quota (exhaustion answers
//! 429 `quota-exhausted` with `Retry-After`), its per-request instance
//! cap and its deadline budget. Unknown tokens answer 401
//! `unknown-token`. `/batch` sweeps solve in chunks with cancellation
//! checkpoints — a spent deadline budget or a disconnected client
//! stops the remaining work — and `"stream": true` streams
//! per-instance results as chunked NDJSON instead of buffering them.
//!
//! Every error is a structured JSON body `{"error": {"kind", "message"}}`
//! with a 4xx status for client mistakes (malformed JSON, unknown
//! solvers, oversized sweeps) and 5xx only for genuine server-side
//! failures (an oracle-rejected solution, which would be a solver bug).

use crate::http::{Request, Response};
use crate::server::ServiceState;
use crate::service::{ResponseBody, StreamWriter};
use mst_api::exec::{AdmissionError, TenantExec};
use mst_api::fleet::SweepSpec;
use mst_api::repair::{FailureEvent, RepairError};
use mst_api::wire::{error_to_json, instance_from_json, solution_to_json, Json};
use mst_api::{
    verify, Batch, BatchSummary, CacheKey, CanonicalInstance, Instance, Solution, SolveError,
    SolverRegistry, TopologyKind,
};
use mst_platform::{HeterogeneityProfile, Time};
use mst_sim::CancelToken;
use mst_store::Record;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Dispatches one parsed request to its handler. `stream` is the
/// transport's [`StreamWriter`], when the caller can hand one over:
/// the `/batch` handler uses it to probe for mid-request client
/// disconnects and to stream large result sets; `None` (tests,
/// embedding without a transport) degrades to fully buffered replies.
///
/// This is the whole handler boundary: nothing below this function
/// knows what a socket is. The event loop calls it from its dispatch
/// threads; tests and embedders call it directly.
pub fn route_on(
    request: &Request,
    state: &ServiceState,
    stream: Option<&mut dyn StreamWriter>,
) -> ResponseBody {
    state.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/") => ResponseBody::Full(index()),
        ("GET", "/healthz") => ResponseBody::Full(healthz(state)),
        ("GET", "/solvers") => ResponseBody::Full(solvers(request, state)),
        ("GET", "/metrics") => ResponseBody::Full(metrics(request, state)),
        ("GET", "/tenants") => ResponseBody::Full(tenants(state)),
        ("GET", "/history") => ResponseBody::Full(history(request, state)),
        ("GET", "/trace") => ResponseBody::Full(trace_lookup(request)),
        ("GET", "/trace/slow") => ResponseBody::Full(trace_slow(request)),
        ("POST", "/solve") => ResponseBody::Full(solve(request, state)),
        ("POST", "/batch") => batch(request, state, stream),
        ("POST", "/session") => ResponseBody::Full(session(request, state)),
        (
            _,
            "/" | "/healthz" | "/solvers" | "/metrics" | "/tenants" | "/history" | "/solve"
            | "/batch" | "/session" | "/trace" | "/trace/slow",
        ) => ResponseBody::Full(error_response(
            405,
            "method-not-allowed",
            &format!("{} does not accept {}", request.path, request.method),
        )),
        (_, path) => {
            ResponseBody::Full(error_response(404, "not-found", &format!("no endpoint {path}")))
        }
    }
}

/// [`route_on`] without a stream writer: every reply is buffered.
pub fn route(request: &Request, state: &ServiceState) -> Response {
    match route_on(request, state, None) {
        ResponseBody::Full(response) => response,
        ResponseBody::Streamed => unreachable!("without a stream nothing can be streamed"),
    }
}

/// The bounded label a request is observed under in the per-route
/// latency histograms: known endpoints keep their path, everything
/// else collapses to `"other"` so an attacker scanning random paths
/// cannot grow the label set (and the `/metrics` exposition) without
/// bound.
pub fn route_label(_method: &str, path: &str) -> &'static str {
    match path {
        "/" => "/",
        "/healthz" => "/healthz",
        "/solvers" => "/solvers",
        "/metrics" => "/metrics",
        "/tenants" => "/tenants",
        "/history" => "/history",
        "/trace" => "/trace",
        "/trace/slow" => "/trace/slow",
        "/solve" => "/solve",
        "/batch" => "/batch",
        "/session" => "/session",
        _ => "other",
    }
}

/// `GET /trace?id=N` — the full span tree of one recent finished
/// request, as collected by [`mst_obs`]: metadata (route, tenant,
/// solver, status, cache outcome) plus every recorded `(stage,
/// start_ns, dur_ns)` span sorted by start time. The id is the
/// `X-Trace-Id` header every response carries. Traces are held in a
/// bounded table; an id still in flight, evicted or unknown answers
/// 404.
fn trace_lookup(request: &Request) -> Response {
    let Some(raw) = request.query_param("id") else {
        return error_response(400, "bad-request", "\"id\" query parameter is required");
    };
    let Ok(id) = raw.parse::<u64>() else {
        return error_response(400, "bad-request", "\"id\" must be an unsigned integer");
    };
    match mst_obs::lookup(id) {
        Some(trace) => Response::json(200, rendered_trace(&trace)),
        None => error_response(
            404,
            "unknown-trace",
            &format!("no finished trace {id} is held (it may be in flight or evicted)"),
        ),
    }
}

/// `GET /trace/slow?limit=N` — the slowest finished traces, slowest
/// first (default 10, capped at the trace table size).
fn trace_slow(request: &Request) -> Response {
    let limit = match request.query_param("limit") {
        None => 10,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n.min(mst_obs::trace::TRACE_TABLE_CAP),
            Err(_) => {
                return error_response(
                    400,
                    "bad-request",
                    "\"limit\" must be a non-negative integer",
                )
            }
        },
    };
    let traces = mst_obs::slowest(limit);
    let rendered: Vec<Json> = traces.iter().map(rendered_trace).collect();
    Response::json(
        200,
        Json::obj([("count", Json::int(rendered.len() as i64)), ("traces", Json::Arr(rendered))]),
    )
}

/// One trace as its `/trace` JSON object. Every number in it fits an
/// `f64` exactly until ~104 days of process uptime.
fn rendered_trace(trace: &mst_obs::Trace) -> Json {
    let ns = |v: u64| Json::int(v as i64);
    let spans = trace
        .spans
        .iter()
        .map(|s| {
            Json::obj([
                ("stage", Json::str(s.stage.name())),
                ("start_ns", ns(s.start_ns)),
                ("dur_ns", ns(s.dur_ns)),
            ])
        })
        .collect();
    Json::obj([
        ("id", ns(trace.id)),
        ("route", Json::str(trace.route.as_str())),
        ("tenant", Json::str(trace.tenant.as_str())),
        ("solver", trace.solver.as_deref().map_or(Json::Null, Json::str)),
        ("status", Json::int(trace.status.into())),
        ("cached", trace.cached.map_or(Json::Null, Json::Bool)),
        ("finished", Json::Bool(trace.finished)),
        ("start_ns", ns(trace.start_ns)),
        ("total_ns", ns(trace.total_ns)),
        ("sequential_ns", ns(trace.sequential_ns())),
        ("spans", Json::Arr(spans)),
    ])
}

/// A structured error response: `{"error": {"kind", "message"}}`.
pub(crate) fn error_response(status: u16, kind: &str, message: &str) -> Response {
    Response::json(
        status,
        Json::obj([(
            "error",
            Json::obj([("kind", Json::str(kind)), ("message", Json::str(message))]),
        )]),
    )
}

/// The status a [`SolveError`] maps to: unknown names are 404, every
/// other solve failure is the client's request (400).
fn solve_error_response(error: &SolveError) -> Response {
    let status = match error {
        SolveError::UnknownSolver { .. } => 404,
        SolveError::MalformedSolution { .. } => 500,
        _ => 400,
    };
    Response::json(status, error_to_json(error))
}

/// Resolves the request's `X-Api-Token` header to the execution policy
/// it runs under: the default tenant without a header, the matching
/// named tenant otherwise. An unmatched token answers 401 rather than
/// silently running as the default tenant, and a token combined with a
/// `"registry"` body selector is rejected as ambiguous — the token
/// already pins the registry.
fn tenant_for<'a>(
    request: &Request,
    body: &Json,
    state: &'a ServiceState,
) -> Result<&'a TenantExec, Response> {
    let token = request.header("x-api-token");
    if token.is_some() && body.get("registry").is_some() {
        return Err(error_response(
            400,
            "conflicting-selectors",
            "a request cannot carry both an X-Api-Token header and a \"registry\" body field; \
             the token already selects the tenant's registry",
        ));
    }
    let tenant = state.tenant_for(token).map_err(|unknown| {
        error_response(
            401,
            "unknown-token",
            &format!("no tenant answers the API token {unknown:?}"),
        )
    })?;
    tenant.stats().requests_total.fetch_add(1, Ordering::Relaxed);
    mst_obs::note_tenant(&tenant.policy().name);
    // The time-windowed rate limit is enforced at routing time, so it
    // covers every tenant-scoped endpoint (/solve, /batch, /session)
    // uniformly, before any admission slot or solving work is taken.
    tenant.check_rate().map_err(|e| admission_response(tenant, &e))?;
    Ok(tenant)
}

/// The refusal an [`AdmissionError`] maps to: quota exhaustion is 429
/// with a `Retry-After` (the refusal is transient — slots free as
/// in-flight requests finish), an oversized request is the client's
/// mistake (400). The `Retry-After` **escalates** with the tenant's
/// consecutive-rejection streak ([`TenantExec::retry_after_hint`]): a
/// client hammering an exhausted quota is told to back off
/// exponentially (1, 2, 4, ... capped), and the hint resets to 1 the
/// moment one of its requests is admitted. A spent rate limit is also
/// 429, but its `Retry-After` is **computed**, not escalated: the
/// token bucket knows exactly how long until the next token regrows.
fn admission_response(tenant: &TenantExec, error: &AdmissionError) -> Response {
    match error {
        AdmissionError::QuotaExhausted { .. } => {
            error_response(429, "quota-exhausted", &error.to_string())
                .with_retry_after(tenant.retry_after_hint())
        }
        AdmissionError::TooManyInstances { .. } => {
            error_response(400, "too-many-instances", &error.to_string())
        }
        AdmissionError::RateLimited { retry_after, .. } => {
            error_response(429, "rate-limited", &error.to_string()).with_retry_after(*retry_after)
        }
    }
}

fn index() -> Response {
    Response::json(
        200,
        Json::obj([
            ("service", Json::str("mst-serve")),
            (
                "endpoints",
                Json::Arr(
                    [
                        "GET /healthz",
                        "GET /solvers",
                        "GET /metrics",
                        "GET /tenants",
                        "GET /history",
                        "GET /trace",
                        "GET /trace/slow",
                        "POST /solve",
                        "POST /batch",
                        "POST /session",
                    ]
                    .iter()
                    .map(|e| Json::str(*e))
                    .collect(),
                ),
            ),
        ]),
    )
}

/// `GET /healthz` — structured service state, not just liveness: the
/// overall `"status"` is `"ok"` or `"store_degraded"` (a broken
/// persistent store degrades the service, it does not kill it), plus
/// uptime, the live admission queue depth and the open-session gauge
/// ([`crate::metrics::health`]). Always `200`: a degraded server is still
/// *alive* — orchestrators keep it running, operators read the body.
fn healthz(state: &ServiceState) -> Response {
    Response::json(200, crate::metrics::health(state))
}

fn solvers(request: &Request, state: &ServiceState) -> Response {
    let Some(batch) = state.batch_for(request.query_param("registry")) else {
        return unknown_registry(request.query_param("registry").unwrap_or(""), state);
    };
    let list: Vec<Json> = batch
        .registry()
        .solvers()
        .map(|solver| {
            let topologies = TopologyKind::ALL
                .iter()
                .filter(|k| solver.supports(**k))
                .map(|k| Json::str(k.name()))
                .collect();
            Json::obj([
                ("name", Json::str(solver.name())),
                ("description", Json::str(solver.description())),
                ("topologies", Json::Arr(topologies)),
                ("deadline", Json::Bool(solver.by_deadline())),
            ])
        })
        .collect();
    let registries: Vec<Json> = state.tenant_names().into_iter().map(Json::str).collect();
    Response::json(
        200,
        Json::obj([("solvers", Json::Arr(list)), ("registries", Json::Arr(registries))]),
    )
}

/// 404 for a `"registry"` selector that names no configured registry.
fn unknown_registry(name: &str, state: &ServiceState) -> Response {
    error_response(
        404,
        "unknown-registry",
        &format!(
            "no registry named {name:?} is configured (available: {:?})",
            state.tenant_names()
        ),
    )
}

/// Resolves the optional `"registry"` body field to the engine the
/// request solves through (shared by `/solve` and `/batch`).
fn select_batch<'a>(body: &Json, state: &'a ServiceState) -> Result<&'a mst_api::Batch, Response> {
    let selector = opt_str(body, "registry")?;
    state.batch_for(selector).ok_or_else(|| unknown_registry(selector.unwrap_or(""), state))
}

/// `GET /metrics` — the [`crate::metrics::document`] as JSON, or with
/// `?format=prometheus` the text exposition derived from it.
fn metrics(request: &Request, state: &ServiceState) -> Response {
    let document = crate::metrics::document(state);
    match request.query_param("format") {
        Some("prometheus") => Response::text(200, crate::metrics::prometheus(&document)),
        _ => Response::json(200, document),
    }
}

/// `GET /tenants` — the resolved execution policies, for operators.
/// Token *values* are deliberately not echoed (this endpoint is as
/// public as the rest of the API); `"token"` only says whether a
/// custom one is configured.
fn tenants(state: &ServiceState) -> Response {
    let list: Vec<Json> = state
        .execs()
        .map(|tenant| {
            let policy = tenant.policy();
            let opt_int = |v: Option<usize>| match v {
                Some(n) => Json::int(n as i64),
                None => Json::Null,
            };
            Json::obj([
                ("name", Json::str(policy.name.clone())),
                ("token", Json::Bool(policy.token.is_some())),
                ("threads", opt_int(policy.threads)),
                ("quota", opt_int(policy.quota)),
                ("max_instances", opt_int(policy.max_instances)),
                (
                    "deadline_ms",
                    match policy.deadline {
                        Some(budget) => Json::int(budget.as_millis() as i64),
                        None => Json::Null,
                    },
                ),
                (
                    "rate_limit",
                    match policy.rate {
                        Some(rate) => Json::obj([
                            ("requests_per_window", Json::int(rate.requests as i64)),
                            ("window_ms", Json::int(rate.window.as_millis() as i64)),
                        ]),
                        None => Json::Null,
                    },
                ),
                ("solvers", Json::int(policy.registry.len() as i64)),
            ])
        })
        .collect();
    Response::json(200, Json::obj([("tenants", Json::Arr(list))]))
}

/// Parses the request body as a JSON object, with structured failures.
fn parse_body(request: &Request) -> Result<Json, Response> {
    let text = std::str::from_utf8(&request.body)
        .map_err(|_| error_response(400, "bad-request", "body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Err(error_response(400, "bad-request", "empty body; expected a JSON object"));
    }
    Json::parse(text).map_err(|e| error_response(400, "bad-json", &e.to_string()))
}

/// Optional string field; `Err` when present with the wrong type.
fn opt_str<'a>(body: &'a Json, key: &str) -> Result<Option<&'a str>, Response> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => value.as_str().map(Some).ok_or_else(|| {
            error_response(400, "bad-request", &format!("\"{key}\" must be a string"))
        }),
    }
}

/// Optional non-negative integer field; `Err` when present but invalid.
fn opt_int(body: &Json, key: &str) -> Result<Option<i64>, Response> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(value) => match value.as_i64() {
            Some(n) if n >= 0 => Ok(Some(n)),
            _ => Err(error_response(
                400,
                "bad-request",
                &format!("\"{key}\" must be a non-negative integer"),
            )),
        },
    }
}

/// Optional boolean field, defaulting to `false`.
fn opt_flag(body: &Json, key: &str) -> Result<bool, Response> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(false),
        Some(value) => value.as_bool().ok_or_else(|| {
            error_response(400, "bad-request", &format!("\"{key}\" must be a boolean"))
        }),
    }
}

/// `POST /solve` — one instance through a named solver, under the
/// requesting tenant's execution policy.
///
/// Body: `{"platform": <text>, "tasks": N, "solver"?: name,
/// "registry"?: name, "deadline"?: T, "verify"?: bool}`. An
/// `X-Api-Token` header routes the request to its tenant (admission
/// slots, registry); quota exhaustion answers 429 with `Retry-After`.
/// With `"verify": true` the solution is checked by the [`verify`]
/// oracle before it is returned and the response carries
/// `"feasible": true` — an infeasible witness would be a solver bug
/// and answers 500.
///
/// The tenant's solution cache is consulted **before** admission: a
/// hit answers immediately with `"cached": true`, takes no admission
/// slot and wakes no worker. A miss admits, solves the *canonical*
/// instance, memoises it, records it in the persistent store (when
/// configured), and answers with the solution restored to the
/// original instance's scale and numbering.
fn solve(request: &Request, state: &ServiceState) -> Response {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let tenant = match tenant_for(request, &body, state) {
        Ok(tenant) => tenant,
        Err(response) => return response,
    };
    let instance = match instance_from_json(&body) {
        Ok(instance) => instance,
        Err(e) => return error_response(400, "bad-instance", &e.to_string()),
    };
    if let Err(response) = check_task_budget(&instance, state) {
        return response;
    }
    let (solver_name, deadline, check) =
        match (opt_str(&body, "solver"), opt_int(&body, "deadline"), opt_flag(&body, "verify")) {
            (Ok(s), Ok(d), Ok(v)) => (s.unwrap_or("optimal"), d, v),
            (Err(r), _, _) | (_, Err(r), _) | (_, _, Err(r)) => return r,
        };
    // Anonymous requests may still pin a configured registry by name
    // (the pre-token selector); tokened requests already resolved one.
    let batch = if request.header("x-api-token").is_some() {
        tenant.batch()
    } else {
        match select_batch(&body, state) {
            Ok(batch) => batch,
            Err(response) => return response,
        }
    };
    match cached_solve(state, tenant, batch.registry(), solver_name, &instance, deadline) {
        Ok((solution, cached)) => render_solution(solution, &instance, solver_name, check, cached),
        Err(response) => response,
    }
}

/// Renders a `/solve` response body: the solution, `"cached": true`
/// for cache hits, and the `"feasible"` flag when verification was
/// requested (the oracle runs against the **original** instance, so a
/// mis-restored cached solution would fail here, not pass silently).
fn render_solution(
    solution: Solution,
    instance: &Instance,
    solver_name: &str,
    check: bool,
    cached: bool,
) -> Response {
    let mut reply = match solution_to_json(&solution) {
        Json::Obj(members) => members,
        other => return Response::json(200, other),
    };
    if cached {
        reply.push(("cached".to_string(), Json::Bool(true)));
    }
    if check {
        let _verify_span = mst_obs::span(mst_obs::Stage::Verify);
        let verify_start = Instant::now();
        let report = verify(instance, &solution);
        mst_obs::kernel_observe(
            mst_obs::Kernel::Verify,
            solver_name,
            verify_start.elapsed().as_micros() as u64,
        );
        match report {
            Ok(report) if report.is_feasible() => {
                reply.push(("feasible".to_string(), Json::Bool(true)));
            }
            Ok(report) => {
                return error_response(
                    500,
                    "infeasible-solution",
                    &format!(
                        "solver {solver_name} produced a schedule the oracle rejects ({} violation(s))",
                        report.violations.len()
                    ),
                );
            }
            Err(e) => return solve_error_response(&e),
        }
    }
    Response::json(200, Json::Obj(reply))
}

/// Appends one solved canonical instance to the persistent store (a
/// no-op without `--store`) and bumps the tenant's record gauge.
///
/// **Graceful degradation:** a failing append never fails the solve
/// that produced the record. The failure flips the service's
/// [`StoreHealth`](crate::server::StoreHealth) to degraded — visible in
/// `/healthz` and `/metrics` — and subsequent appends inside the
/// bounded-backoff window are skipped outright (a dead disk must not
/// tax every solve with an I/O timeout). The first probe that succeeds
/// clears the state; records solved while degraded are simply absent
/// from history, which warm start already tolerates.
fn append_record(
    state: &ServiceState,
    tenant: &TenantExec,
    solver_name: &str,
    canon: &CanonicalInstance,
    canonical: &Solution,
    elapsed_us: u64,
) {
    let Some(store) = &state.store else { return };
    let _store_span = mst_obs::span(mst_obs::Stage::Store);
    let record = Record {
        tenant: tenant.policy().name.clone(),
        solver: solver_name.to_string(),
        platform: canon.instance().platform.to_text(),
        tasks: canon.instance().tasks,
        deadline: canon.deadline(),
        canon_hash: canon.hash_hex(),
        makespan: canonical.makespan(),
        scheduled: canonical.n(),
        elapsed_us,
        solution: solution_to_json(canonical),
    };
    if !state.store_health.should_attempt() {
        return;
    }
    match store.append(&record) {
        Ok(()) => {
            state.store_health.record_success();
            tenant.stats().store_records.fetch_add(1, Ordering::Relaxed);
        }
        Err(_) => state.store_health.record_failure(),
    }
}

/// `GET /history` — the persistent result store, newest records first.
///
/// Query params: `tenant=` and `solver=` filter by equality, `limit=`
/// bounds the page (default 100). Solutions themselves are not echoed
/// (a history page should stay a page); `POST /solve` the instance
/// again to get one — it will be a cache hit. The page comes from the
/// store's in-memory index and reads no solution, so an unfiltered page
/// costs its `limit`, not the store. Servers started without `--store`
/// answer 404 `no-store`.
fn history(request: &Request, state: &ServiceState) -> Response {
    let Some(store) = &state.store else {
        return error_response(
            404,
            "no-store",
            "the server was started without --store; no history is recorded",
        );
    };
    let limit = match request.query_param("limit") {
        None => 100,
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                return error_response(
                    400,
                    "bad-request",
                    "\"limit\" must be a non-negative integer",
                )
            }
        },
    };
    let page: Vec<Json> = store
        .history(request.query_param("tenant"), request.query_param("solver"), limit)
        .into_iter()
        .map(|r| {
            Json::obj([
                ("tenant", Json::str(r.tenant)),
                ("solver", Json::str(r.solver)),
                ("platform", Json::str(r.platform)),
                ("tasks", Json::int(r.tasks as i64)),
                ("deadline", r.deadline.map(Json::int).unwrap_or(Json::Null)),
                ("canon_hash", Json::str(r.canon_hash)),
                ("makespan", Json::int(r.makespan)),
                ("scheduled", Json::int(r.scheduled as i64)),
                ("elapsed_us", Json::int(r.elapsed_us as i64)),
            ])
        })
        .collect();
    Response::json(
        200,
        Json::obj([
            ("count", Json::int(page.len() as i64)),
            ("total", Json::int(store.len() as i64)),
            ("records", Json::Arr(page)),
        ]),
    )
}

/// Rejects task budgets beyond the configured cap — a bare number in
/// the body must not be able to request unbounded scheduling work.
fn check_task_budget(instance: &Instance, state: &ServiceState) -> Result<(), Response> {
    let cap = state.config.max_tasks_per_instance;
    if instance.tasks > cap {
        return Err(error_response(
            400,
            "too-many-tasks",
            &format!("{} tasks exceed the per-instance cap of {cap}", instance.tasks),
        ));
    }
    Ok(())
}

/// Decodes the `/batch` instance set: either an explicit `"instances"`
/// array or a `"generate"` sweep spec
/// (`{"kind", "count", "size"?, "tasks"?, "profile"?, "seed"?}`).
///
/// The requesting tenant's `max_instances` cap is checked against the
/// *declared* count **before** anything is parsed or generated — a
/// capped tenant must not be able to make the server materialise the
/// full server-wide cap just to be refused.
fn batch_instances(
    body: &Json,
    state: &ServiceState,
    tenant: &TenantExec,
) -> Result<Vec<Instance>, Response> {
    let cap = state.config.max_batch_instances;
    let too_many = |n: usize| {
        error_response(
            400,
            "too-many-instances",
            &format!("{n} instances exceed the per-request cap of {cap}"),
        )
    };
    if let Some(items) = body.get("instances") {
        let items = items
            .as_arr()
            .ok_or_else(|| error_response(400, "bad-request", "\"instances\" must be an array"))?;
        if items.len() > cap {
            return Err(too_many(items.len()));
        }
        tenant.check_instances(items.len()).map_err(|e| admission_response(tenant, &e))?;
        let mut instances = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let instance = instance_from_json(item).map_err(|e| {
                error_response(400, "bad-instance", &format!("instances[{i}]: {e}"))
            })?;
            check_task_budget(&instance, state)?;
            instances.push(instance);
        }
        return Ok(instances);
    }
    let Some(spec) = body.get("generate") else {
        return Err(error_response(
            400,
            "bad-request",
            "body needs either \"instances\" or \"generate\"",
        ));
    };
    let kind_name = opt_str(spec, "kind")?
        .ok_or_else(|| error_response(400, "bad-request", "\"generate.kind\" is required"))?;
    let kind = TopologyKind::ALL.into_iter().find(|k| k.name() == kind_name).ok_or_else(|| {
        error_response(400, "bad-request", &format!("unknown topology {kind_name:?}"))
    })?;
    let count = opt_int(spec, "count")?
        .ok_or_else(|| error_response(400, "bad-request", "\"generate.count\" is required"))?;
    if count == 0 {
        return Err(error_response(400, "bad-request", "\"generate.count\" must be at least 1"));
    }
    if count as usize > cap {
        return Err(too_many(count as usize));
    }
    tenant.check_instances(count as usize).map_err(|e| admission_response(tenant, &e))?;
    let size = opt_int(spec, "size")?.unwrap_or(4).max(1) as usize;
    if size > state.config.max_platform_processors {
        return Err(error_response(
            400,
            "too-many-processors",
            &format!(
                "\"generate.size\" of {size} exceeds the {} processor cap",
                state.config.max_platform_processors
            ),
        ));
    }
    let tasks = opt_int(spec, "tasks")?.unwrap_or(8).max(1) as usize;
    if tasks > state.config.max_tasks_per_instance {
        return Err(error_response(
            400,
            "too-many-tasks",
            &format!(
                "\"generate.tasks\" of {tasks} exceeds the {} task cap",
                state.config.max_tasks_per_instance
            ),
        ));
    }
    let seed0 = opt_int(spec, "seed")?.unwrap_or(0) as u64;
    let profile_name = opt_str(spec, "profile")?.unwrap_or("uniform");
    let profile = HeterogeneityProfile::by_name(profile_name).ok_or_else(|| {
        error_response(400, "bad-request", &format!("unknown profile {profile_name:?}"))
    })?;
    // One shared generator for the whole workspace (`mst_api::fleet`):
    // this spec names the same instance stream here, in `mst batch`
    // and in the benchmark.
    Ok(SweepSpec::new(kind, count as u64)
        .size(size)
        .tasks(tasks)
        .profile(profile)
        .seed(seed0)
        .instances())
}

/// The per-chunk callbacks of [`solve_chunked`]: a client-liveness
/// probe polled between chunks and a result emitter. Both `/batch`
/// paths implement it over the transport's [`StreamWriter`] — the
/// buffered path probes only, the streamed path also renders and
/// writes NDJSON result lines.
trait BatchSink {
    /// Whether the client has abandoned the sweep.
    fn client_gone(&mut self) -> bool;
    /// Hands over one chunk's results; `false` cancels the rest.
    fn emit(&mut self, part: &[Result<Solution, SolveError>]) -> bool;
}

/// The buffered `/batch` sink: probes for disconnects (when the
/// transport gave us a writer at all) and discards chunk results —
/// `solve_chunked` accumulates them for the JSON reply.
struct ProbeOnly<'a> {
    stream: Option<&'a mut (dyn StreamWriter + 'a)>,
}

impl BatchSink for ProbeOnly<'_> {
    fn client_gone(&mut self) -> bool {
        match &mut self.stream {
            Some(stream) => stream.client_gone(),
            None => false,
        }
    }

    fn emit(&mut self, _part: &[Result<Solution, SolveError>]) -> bool {
        true
    }
}

/// The streaming `/batch` sink: renders each chunk's results as
/// `{"index": i, ...}` NDJSON lines and writes them through the
/// transport's [`StreamWriter`]. A failed write means the client is
/// gone — the sweep is cancelled.
struct NdjsonSink<'a> {
    writer: &'a mut (dyn StreamWriter + 'a),
    offset: usize,
    lines: String,
}

impl BatchSink for NdjsonSink<'_> {
    fn client_gone(&mut self) -> bool {
        self.writer.client_gone()
    }

    fn emit(&mut self, part: &[Result<Solution, SolveError>]) -> bool {
        self.lines.clear();
        for result in part {
            let mut members = vec![("index".to_string(), Json::int(self.offset as i64))];
            let rendered = match result {
                Ok(solution) => solution_to_json(solution),
                Err(e) => error_to_json(e),
            };
            match rendered {
                Json::Obj(obj) => members.extend(obj),
                other => members.push(("result".to_string(), other)),
            }
            self.lines.push_str(&Json::Obj(members).to_string());
            self.lines.push('\n');
            self.offset += 1;
        }
        self.writer.chunk(self.lines.as_bytes()).is_ok()
    }
}

/// One `/batch` instance after the cache-planning pass: either already
/// answered from the tenant's solution cache (restored, ready to
/// return) or a miss that still needs its **canonical** instance
/// solved under its own canonical deadline.
enum Planned {
    /// A cache hit, restored to the original instance's scale and
    /// numbering at plan time.
    Hit(Solution),
    /// A miss: the canonical instance to solve, and the key to memoise
    /// the canonical solution under.
    Miss(Box<CanonicalInstance>, CacheKey),
}

/// Canonicalizes every instance of a `/batch` sweep and answers what it
/// can from the tenant's solution cache. Returns the per-instance plan
/// (input order) and the hit count.
fn plan_batch(
    instances: &[Instance],
    solver_name: &str,
    deadline: Option<Time>,
    tenant: &TenantExec,
) -> (Vec<Planned>, usize) {
    let mut hits = 0usize;
    let jobs = instances
        .iter()
        .map(|instance| {
            let canon = CanonicalInstance::of(instance, solver_name, deadline);
            let key = CacheKey::of(&canon, solver_name);
            match tenant.cache().get(&key) {
                Some(cached) => {
                    hits += 1;
                    Planned::Hit(canon.restore(&cached))
                }
                None => Planned::Miss(Box::new(canon), key),
            }
        })
        .collect();
    (jobs, hits)
}

/// The chunk-by-chunk solve loop behind `/batch`: every
/// [`ServeConfig::batch_chunk`](crate::server::ServeConfig) jobs it
/// polls the request's cancel token (deadline budget), probes the
/// sink for client liveness (a disconnected client cancels the rest —
/// an abandoned sweep must stop burning cores) and hands the chunk's
/// results to the sink (`false` from it also cancels). Cache hits in
/// a chunk cost a clone; only the chunk's misses go to the worker
/// pool, each solving its **canonical** instance under its own
/// canonical deadline, memoised and recorded in the persistent store
/// on success, then restored. Once cancelled, the remaining jobs come
/// back as [`SolveError::Cancelled`] without being solved — results
/// stay one per instance, in input order.
#[allow(clippy::too_many_arguments)]
fn solve_chunked(
    engine: &Batch,
    jobs: &[Planned],
    cancel: &CancelToken,
    sink: &mut dyn BatchSink,
    chunk: usize,
    state: &ServiceState,
    tenant: &TenantExec,
    solver_name: &str,
) -> Vec<Result<Solution, SolveError>> {
    let chunk = chunk.max(1);
    let mut results: Vec<Result<Solution, SolveError>> = Vec::with_capacity(jobs.len());
    for slice in jobs.chunks(chunk) {
        if !cancel.is_cancelled() && sink.client_gone() {
            cancel.cancel();
        }
        if cancel.is_cancelled() {
            results.extend((results.len()..jobs.len()).map(|_| Err(SolveError::Cancelled)));
            break;
        }
        let miss_jobs: Vec<(Instance, Option<Time>)> = slice
            .iter()
            .filter_map(|job| match job {
                Planned::Miss(canon, _) => Some((canon.instance().clone(), canon.deadline())),
                Planned::Hit(_) => None,
            })
            .collect();
        let started = Instant::now();
        let solved = if miss_jobs.is_empty() {
            Vec::new()
        } else {
            let _solve_span = mst_obs::span(mst_obs::Stage::Solve);
            engine.solve_each_cancellable(&miss_jobs, cancel)
        };
        let per_miss_us = started.elapsed().as_micros() as u64 / miss_jobs.len().max(1) as u64;
        let mut solved = solved.into_iter();
        let part: Vec<Result<Solution, SolveError>> = slice
            .iter()
            .map(|job| match job {
                Planned::Hit(solution) => Ok(solution.clone()),
                Planned::Miss(canon, key) => {
                    match solved.next().expect("one result per miss job") {
                        Ok(canonical) => {
                            tenant.cache().insert(key.clone(), canonical.clone());
                            append_record(
                                state,
                                tenant,
                                solver_name,
                                canon,
                                &canonical,
                                per_miss_us,
                            );
                            Ok(canon.restore(&canonical))
                        }
                        Err(e) => Err(e),
                    }
                }
            })
            .collect();
        let keep_going = sink.emit(&part);
        results.extend(part);
        if !keep_going {
            cancel.cancel();
        }
    }
    results
}

/// Folds one finished sweep into the tenant's counters and renders the summary fields **both** `/batch` reply shapes carry —
/// one definition, so the streamed summary line can never drift from
/// the buffered body (the buffered path appends makespan statistics
/// and optional per-instance results on top).
fn finish_sweep(
    instances: &[Instance],
    results: &[Result<Solution, SolveError>],
    solver_name: &str,
    check: bool,
    cache_hits: usize,
    elapsed: std::time::Duration,
    tenant: &TenantExec,
) -> (BatchSummary, usize, Vec<(String, Json)>) {
    let mut summary = BatchSummary::of(results);
    summary.cache_hits = cache_hits;
    // Cache hits ride along as Ok results but no worker solved them:
    // the solve-throughput metrics count only genuine solves (a
    // cancelled sweep may return fewer Ok hits than were planned,
    // hence the saturation).
    tenant.stats().record(
        (summary.solved.saturating_sub(cache_hits)) as u64,
        summary.failed as u64,
        summary.cancelled as u64,
        elapsed,
    );
    let infeasible = if check {
        let _verify_span = mst_obs::span(mst_obs::Stage::Verify);
        let verify_start = Instant::now();
        let n = count_infeasible(instances, results);
        mst_obs::kernel_observe(
            mst_obs::Kernel::Verify,
            solver_name,
            verify_start.elapsed().as_micros() as u64,
        );
        n
    } else {
        0
    };
    let mut members = vec![
        ("count".to_string(), Json::int(instances.len() as i64)),
        ("solver".to_string(), Json::str(solver_name)),
        ("solved".to_string(), Json::int(summary.solved as i64)),
        ("failed".to_string(), Json::int(summary.failed as i64)),
        ("cancelled".to_string(), Json::int(summary.cancelled as i64)),
        ("cache_hits".to_string(), Json::int(summary.cache_hits as i64)),
        ("complete".to_string(), Json::Bool(summary.cancelled == 0)),
        ("elapsed_secs".to_string(), Json::Num(elapsed.as_secs_f64())),
        ("verified".to_string(), Json::Bool(check)),
    ];
    if check {
        members.push(("infeasible".to_string(), Json::int(infeasible as i64)));
    }
    (summary, infeasible, members)
}

/// Counts solutions the [`verify`] oracle rejects (solver bugs).
fn count_infeasible(instances: &[Instance], results: &[Result<Solution, SolveError>]) -> usize {
    instances
        .iter()
        .zip(results)
        .filter(|(instance, result)| match result {
            Ok(solution) => !matches!(verify(instance, solution), Ok(r) if r.is_feasible()),
            Err(_) => false,
        })
        .count()
}

/// `POST /batch` — a sweep dispatched through the requesting tenant's
/// worker pool under its execution policy.
///
/// Body: `{"instances": [...]} | {"generate": {...}}`, plus `"solver"?`,
/// `"registry"?`, `"deadline"?`, `"verify"?`, `"include_results"?` and
/// `"stream"?`. The response always carries the summary; per-instance
/// solutions ride along only when `"include_results": true` (a
/// 100k-instance sweep should not serialize 100k schedules by
/// accident). With `"stream": true` the per-instance results are
/// instead **streamed** as chunked NDJSON lines while the sweep runs —
/// a large response never materialises in memory, and the summary
/// arrives as the final line. Either way the sweep solves in chunks
/// with cancellation checkpoints: an exhausted per-tenant deadline
/// budget or a disconnected client stops the remaining work within one
/// chunk.
fn batch(
    request: &Request,
    state: &ServiceState,
    stream: Option<&mut dyn StreamWriter>,
) -> ResponseBody {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return ResponseBody::Full(response),
    };
    let tenant = match tenant_for(request, &body, state) {
        Ok(tenant) => tenant,
        Err(response) => return ResponseBody::Full(response),
    };
    let instances = match batch_instances(&body, state, tenant) {
        Ok(instances) => instances,
        Err(response) => return ResponseBody::Full(response),
    };
    let (solver_name, deadline) = match (opt_str(&body, "solver"), opt_int(&body, "deadline")) {
        (Ok(s), Ok(d)) => (s.unwrap_or("optimal"), d),
        (Err(r), _) | (_, Err(r)) => return ResponseBody::Full(r),
    };
    let (check, include_results, want_stream) = match (
        opt_flag(&body, "verify"),
        opt_flag(&body, "include_results"),
        opt_flag(&body, "stream"),
    ) {
        (Ok(c), Ok(i), Ok(s)) => (c, i, s),
        (Err(r), _, _) | (_, Err(r), _) | (_, _, Err(r)) => return ResponseBody::Full(r),
    };
    // Anonymous requests may still pin a configured registry by name
    // (the pre-token selector); tokened requests already resolved one.
    let tenant_batch = if request.header("x-api-token").is_some() {
        tenant.batch()
    } else {
        match select_batch(&body, state) {
            Ok(batch) => batch,
            Err(response) => return ResponseBody::Full(response),
        }
    };
    // Resolve the name up front so an unknown solver is one 404, not a
    // thousand per-instance errors.
    if let Err(e) = tenant_batch.registry().resolve(solver_name) {
        return ResponseBody::Full(solve_error_response(&e));
    }
    mst_obs::note_solver(solver_name);
    let engine = tenant_batch.clone().with_solver(solver_name);
    // Plan against the tenant's solution cache first: a fully-cached
    // sweep is answered without an admission slot at all, and a mixed
    // one admits for the misses only.
    let cache_span = mst_obs::span(mst_obs::Stage::Cache);
    let (jobs, cache_hits) = plan_batch(&instances, solver_name, deadline, tenant);
    mst_obs::note_cached(!jobs.is_empty() && cache_hits == jobs.len());
    drop(cache_span);
    let admit_span = mst_obs::span(mst_obs::Stage::Admit);
    let _slot = if cache_hits < jobs.len() {
        match tenant.admit() {
            Ok(slot) => Some(slot),
            Err(e) => return ResponseBody::Full(admission_response(tenant, &e)),
        }
    } else {
        None
    };
    drop(admit_span);
    let cancel = tenant.cancel_token();
    let chunk = state.config.batch_chunk;
    let started = Instant::now();

    let mut stream = stream;
    if want_stream {
        if let Some(stream) = stream.take() {
            return stream_batch(
                &engine,
                &instances,
                &jobs,
                cache_hits,
                check,
                &cancel,
                stream,
                chunk,
                state,
                tenant,
                solver_name,
            );
        }
        // No transport to stream over (embedded callers): fall through
        // to the buffered reply with per-instance results included.
    }

    let mut sink = ProbeOnly { stream };
    let results =
        solve_chunked(&engine, &jobs, &cancel, &mut sink, chunk, state, tenant, solver_name);
    let elapsed = started.elapsed();
    let (summary, infeasible, mut reply) =
        finish_sweep(&instances, &results, solver_name, check, cache_hits, elapsed, tenant);
    reply.push(("total_tasks".to_string(), Json::int(summary.total_tasks as i64)));
    reply.push(("mean_makespan".to_string(), Json::Num(summary.mean_makespan())));
    reply.push(("max_makespan".to_string(), Json::int(summary.max_makespan)));
    reply.push((
        "instances_per_sec".to_string(),
        Json::Num(instances.len() as f64 / elapsed.as_secs_f64().max(1e-9)),
    ));
    if include_results || want_stream {
        let rendered: Vec<Json> = results
            .iter()
            .map(|r| match r {
                Ok(solution) => solution_to_json(solution),
                Err(e) => error_to_json(e),
            })
            .collect();
        reply.push(("results".to_string(), Json::Arr(rendered)));
    }
    if infeasible > 0 {
        // An oracle-rejected witness is a solver bug: fail the request
        // loudly but keep the diagnostic body.
        reply.insert(
            0,
            (
                "error".to_string(),
                Json::obj([
                    ("kind", Json::str("infeasible-solution")),
                    (
                        "message",
                        Json::str(format!("{infeasible} solution(s) rejected by the oracle")),
                    ),
                ]),
            ),
        );
        return ResponseBody::Full(Response::json(500, Json::Obj(reply)));
    }
    ResponseBody::Full(Response::json(200, Json::Obj(reply)))
}

/// The streamed `/batch` reply: chunked NDJSON, one
/// `{"index": i, ...solution | error}` line per instance as its chunk
/// completes, then one final `{"summary": {...}}` line. A failed write
/// means the client is gone — the remaining sweep is cancelled and the
/// connection dropped.
#[allow(clippy::too_many_arguments)]
fn stream_batch(
    engine: &Batch,
    instances: &[Instance],
    jobs: &[Planned],
    cache_hits: usize,
    check: bool,
    cancel: &CancelToken,
    stream: &mut dyn StreamWriter,
    chunk: usize,
    state: &ServiceState,
    tenant: &TenantExec,
    solver_name: &str,
) -> ResponseBody {
    let started = Instant::now();
    if stream.begin().is_err() {
        return ResponseBody::Streamed; // peer gone before the head
    }
    let mut sink = NdjsonSink { writer: stream, offset: 0, lines: String::new() };
    let results = solve_chunked(engine, jobs, cancel, &mut sink, chunk, state, tenant, solver_name);
    let elapsed = started.elapsed();
    let (_, _, tail) =
        finish_sweep(instances, &results, solver_name, check, cache_hits, elapsed, tenant);
    let summary_line = Json::obj([("summary", Json::Obj(tail))]);
    let _ = sink.writer.chunk(format!("{summary_line}\n").as_bytes());
    let _ = sink.writer.end();
    ResponseBody::Streamed
}

/// Required non-negative integer field.
fn req_int(body: &Json, key: &str) -> Result<i64, Response> {
    opt_int(body, key)?
        .ok_or_else(|| error_response(400, "bad-request", &format!("\"{key}\" is required")))
}

/// 404 for a session the requesting tenant does not hold. Deliberately
/// indistinguishable from a never-existing id: another tenant's live
/// session must not be probeable.
fn unknown_session(id: i64) -> Response {
    error_response(404, "unknown-session", &format!("no open session {id} for this tenant"))
}

/// One cache-fronted solve, shared by `/solve` and the `/session` ops:
/// the tenant's solution cache is consulted first (a hit takes no
/// admission slot), a miss admits, solves the canonical instance
/// (under its canonical deadline when one is set), memoises and
/// records it. Returns the restored solution and whether it was a
/// cache hit.
fn cached_solve(
    state: &ServiceState,
    tenant: &TenantExec,
    registry: &SolverRegistry,
    solver_name: &str,
    instance: &Instance,
    deadline: Option<Time>,
) -> Result<(Solution, bool), Response> {
    let stats = tenant.stats();
    mst_obs::note_solver(solver_name);
    let cache_span = mst_obs::span(mst_obs::Stage::Cache);
    let canon = CanonicalInstance::of(instance, solver_name, deadline);
    let key = CacheKey::of(&canon, solver_name);
    if let Some(cached) = tenant.cache().get(&key) {
        mst_obs::note_cached(true);
        drop(cache_span);
        return Ok((canon.restore(&cached), true));
    }
    mst_obs::note_cached(false);
    drop(cache_span);
    let admit_span = mst_obs::span(mst_obs::Stage::Admit);
    let _slot = tenant.admit().map_err(|e| admission_response(tenant, &e))?;
    drop(admit_span);
    let solve_span = mst_obs::span(mst_obs::Stage::Solve);
    let started = Instant::now();
    let (result, kernel) = match canon.deadline() {
        Some(t) => {
            (registry.solve_by_deadline(solver_name, canon.instance(), t), mst_obs::Kernel::Probe)
        }
        None => (registry.solve(solver_name, canon.instance()), mst_obs::Kernel::Solve),
    };
    let elapsed = started.elapsed();
    mst_obs::kernel_observe(kernel, solver_name, elapsed.as_micros() as u64);
    drop(solve_span);
    match result {
        Ok(canonical) => {
            stats.record(1, 0, 0, elapsed);
            tenant.cache().insert(key, canonical.clone());
            append_record(
                state,
                tenant,
                solver_name,
                &canon,
                &canonical,
                elapsed.as_micros() as u64,
            );
            Ok((canon.restore(&canonical), false))
        }
        Err(e) => {
            // Errors are never cached: a transient refusal (or a fixed
            // solver) must not be replayed forever.
            stats.record(0, 1, 0, elapsed);
            Err(solve_error_response(&e))
        }
    }
}

/// Renders the session snapshot every `/session` op answers with, plus
/// the op-specific `extra` fields.
fn session_reply(s: &crate::session::Session, extra: Vec<(String, Json)>) -> Response {
    let mut members = vec![
        ("session".to_string(), Json::int(s.id as i64)),
        ("solver".to_string(), Json::str(s.solver.as_str())),
        ("tasks".to_string(), Json::int(s.instance.tasks as i64)),
        ("processors".to_string(), Json::int(s.instance.platform.num_processors() as i64)),
        ("makespan".to_string(), Json::int(s.solution.makespan())),
        ("arrivals".to_string(), Json::int(s.arrivals as i64)),
        ("failures".to_string(), Json::int(s.failures as i64)),
        ("committed".to_string(), Json::int(s.committed as i64)),
    ];
    members.extend(extra);
    Response::json(200, Json::Obj(members))
}

/// `POST /session` — a long-lived **evolving instance** held by the
/// server for the requesting tenant, dispatched on the `"op"` field:
///
/// * `{"op": "create", "platform": <text>, "tasks": N, "solver"?}` —
///   solve and hold; answers the session id;
/// * `{"op": "arrive", "session": id, "tasks": K}` — K more tasks
///   arrive; the grown instance is re-solved **incrementally** through
///   the tenant's solution cache (a re-visited task count is a hit);
/// * `{"op": "fail", "session": id, "processor": p, "at": t}` —
///   processor `p` (1-based, flat order) died at time `t`: the witness
///   is **repaired** ([`mst_api::repair()`]) — its committed prefix is
///   kept, only the surviving suffix re-solves on the degraded
///   platform, and the session *becomes* the degraded platform, so
///   failures compound;
/// * `{"op": "get", "session": id}` — the current snapshot;
/// * `{"op": "close", "session": id}` — release it.
///
/// Sessions are tenant-scoped (another tenant's id answers 404) and
/// the table is bounded (`429 too-many-sessions` beyond
/// [`crate::session::MAX_OPEN_SESSIONS`]).
fn session(request: &Request, state: &ServiceState) -> Response {
    let body = match parse_body(request) {
        Ok(body) => body,
        Err(response) => return response,
    };
    let tenant = match tenant_for(request, &body, state) {
        Ok(tenant) => tenant,
        Err(response) => return response,
    };
    let op = match opt_str(&body, "op") {
        Ok(Some(op)) => op,
        Ok(None) => {
            return error_response(
                400,
                "bad-request",
                "\"op\" is required: create | arrive | fail | get | close",
            )
        }
        Err(response) => return response,
    };
    match op {
        "create" => session_create(&body, state, tenant),
        "arrive" => session_arrive(&body, state, tenant),
        "fail" => session_fail(&body, state, tenant),
        "get" => session_get(&body, state, tenant),
        "close" => session_close(&body, state, tenant),
        other => error_response(400, "bad-request", &format!("unknown session op {other:?}")),
    }
}

fn session_create(body: &Json, state: &ServiceState, tenant: &TenantExec) -> Response {
    let instance = match instance_from_json(body) {
        Ok(instance) => instance,
        Err(e) => return error_response(400, "bad-instance", &e.to_string()),
    };
    if let Err(response) = check_task_budget(&instance, state) {
        return response;
    }
    let solver_name = match opt_str(body, "solver") {
        Ok(name) => name.unwrap_or("optimal"),
        Err(response) => return response,
    };
    if let Err(e) = tenant.batch().registry().resolve(solver_name) {
        return solve_error_response(&e);
    }
    let (solution, cached) = match cached_solve(
        state,
        tenant,
        tenant.batch().registry(),
        solver_name,
        &instance,
        None,
    ) {
        Ok(solved) => solved,
        Err(response) => return response,
    };
    let tenant_name = tenant.policy().name.as_str();
    let _session_span = mst_obs::span(mst_obs::Stage::Session);
    let Ok(id) = state.sessions.create(tenant_name, solver_name, instance, solution) else {
        return error_response(
            429,
            "too-many-sessions",
            &format!(
                "the server holds its maximum of {} open sessions; close one and retry",
                crate::session::MAX_OPEN_SESSIONS
            ),
        )
        .with_retry_after(1);
    };
    state
        .sessions
        .with(tenant_name, id, |s| {
            session_reply(s, vec![("cached".to_string(), Json::Bool(cached))])
        })
        .unwrap_or_else(|| unknown_session(id as i64))
}

fn session_arrive(body: &Json, state: &ServiceState, tenant: &TenantExec) -> Response {
    let (id, arriving) = match (req_int(body, "session"), req_int(body, "tasks")) {
        (Ok(id), Ok(k)) => (id, k),
        (Err(r), _) | (_, Err(r)) => return r,
    };
    if arriving < 1 {
        return error_response(400, "bad-request", "\"tasks\" must be at least 1");
    }
    let tenant_name = tenant.policy().name.as_str();
    // Snapshot outside the solve: the table lock must not be held while
    // a worker pool churns.
    let Some((solver, old)) =
        state.sessions.with(tenant_name, id as u64, |s| (s.solver.clone(), s.instance.clone()))
    else {
        return unknown_session(id);
    };
    let grown = Instance::new(old.platform.clone(), old.tasks + arriving as usize);
    if let Err(response) = check_task_budget(&grown, state) {
        return response;
    }
    let (solution, cached) =
        match cached_solve(state, tenant, tenant.batch().registry(), &solver, &grown, None) {
            Ok(solved) => solved,
            Err(response) => return response,
        };
    let _session_span = mst_obs::span(mst_obs::Stage::Session);
    state
        .sessions
        .with(tenant_name, id as u64, |s| {
            s.instance = grown.clone();
            s.solution = solution.clone();
            s.arrivals += 1;
            session_reply(s, vec![("cached".to_string(), Json::Bool(cached))])
        })
        .unwrap_or_else(|| unknown_session(id))
}

fn session_fail(body: &Json, state: &ServiceState, tenant: &TenantExec) -> Response {
    let (id, processor, at) =
        match (req_int(body, "session"), req_int(body, "processor"), req_int(body, "at")) {
            (Ok(id), Ok(p), Ok(t)) => (id, p, t),
            (Err(r), _, _) | (_, Err(r), _) | (_, _, Err(r)) => return r,
        };
    let tenant_name = tenant.policy().name.as_str();
    let Some((solver, instance, solution)) = state.sessions.with(tenant_name, id as u64, |s| {
        (s.solver.clone(), s.instance.clone(), s.solution.clone())
    }) else {
        return unknown_session(id);
    };
    let event = FailureEvent { processor: processor as usize, at };
    mst_obs::note_solver(&solver);
    let admit_span = mst_obs::span(mst_obs::Stage::Admit);
    let _slot = match tenant.admit() {
        Ok(slot) => slot,
        Err(e) => return admission_response(tenant, &e),
    };
    drop(admit_span);
    let stats = tenant.stats();
    // The repair span wraps a cache-fronted re-solve, which records
    // its own cache/solve spans; Stage::Repair is therefore excluded
    // from Stage::SEQUENTIAL.
    let repair_span = mst_obs::span(mst_obs::Stage::Repair);
    let started = Instant::now();
    let repaired = mst_api::repair(
        &instance,
        &solution,
        &event,
        tenant.batch().registry(),
        tenant.cache(),
        &solver,
    );
    let elapsed = started.elapsed();
    drop(repair_span);
    match repaired {
        Ok(repaired) => {
            stats.record(1, 0, 0, elapsed);
            let committed = repaired.committed;
            let remaining = repaired.remaining;
            let cache_hit = repaired.cache_hit;
            let _session_span = mst_obs::span(mst_obs::Stage::Session);
            state
                .sessions
                .with(tenant_name, id as u64, |s| {
                    s.instance = repaired.degraded.clone();
                    s.solution = repaired.solution.clone();
                    s.failures += 1;
                    s.committed += committed as u64;
                    session_reply(
                        s,
                        vec![
                            ("event_committed".to_string(), Json::int(committed as i64)),
                            ("event_remaining".to_string(), Json::int(remaining as i64)),
                            ("cached".to_string(), Json::Bool(cache_hit)),
                        ],
                    )
                })
                .unwrap_or_else(|| unknown_session(id))
        }
        Err(e @ RepairError::BadProcessor { .. }) => {
            error_response(400, "bad-processor", &e.to_string())
        }
        Err(RepairError::NoSurvivors { .. }) => error_response(
            409,
            "no-survivors",
            &format!(
                "losing processor {processor} leaves no platform to repair onto; \
                 the session is unchanged"
            ),
        ),
        Err(RepairError::Solve(e)) => {
            stats.record(0, 1, 0, elapsed);
            solve_error_response(&e)
        }
    }
}

fn session_get(body: &Json, state: &ServiceState, tenant: &TenantExec) -> Response {
    let id = match req_int(body, "session") {
        Ok(id) => id,
        Err(response) => return response,
    };
    let _session_span = mst_obs::span(mst_obs::Stage::Session);
    state
        .sessions
        .with(tenant.policy().name.as_str(), id as u64, |s| session_reply(s, Vec::new()))
        .unwrap_or_else(|| unknown_session(id))
}

fn session_close(body: &Json, state: &ServiceState, tenant: &TenantExec) -> Response {
    let id = match req_int(body, "session") {
        Ok(id) => id,
        Err(response) => return response,
    };
    let _session_span = mst_obs::span(mst_obs::Stage::Session);
    match state.sessions.close(tenant.policy().name.as_str(), id as u64) {
        Some(closed) => session_reply(&closed, vec![("closed".to_string(), Json::Bool(true))]),
        None => unknown_session(id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_obs::trace::SpanRec;
    use mst_obs::{Stage, Trace};

    #[test]
    fn traces_render_their_members_in_order() {
        let span = |stage, start_ns, dur_ns| SpanRec { stage, start_ns, dur_ns };
        let mut trace = Trace {
            id: 7,
            route: "/solve".to_string(),
            tenant: "a\"b\\c\n\u{1}".to_string(),
            solver: Some("optimal".to_string()),
            cached: None,
            status: 200,
            start_ns: 10,
            total_ns: 900,
            finished: true,
            spans: vec![
                span(Stage::Parse, 10, 100),
                span(Stage::Solve, 150, 500),
                span(Stage::Pool, 200, 300),
            ],
        };
        assert_eq!(
            rendered_trace(&trace).to_string(),
            concat!(
                r#"{"id":7,"route":"/solve","tenant":"a\"b\\c\n\u0001","solver":"optimal","#,
                r#""status":200,"cached":null,"finished":true,"start_ns":10,"total_ns":900,"#,
                r#""sequential_ns":600,"spans":[{"stage":"parse","start_ns":10,"dur_ns":100},"#,
                r#"{"stage":"solve","start_ns":150,"dur_ns":500},"#,
                r#"{"stage":"pool","start_ns":200,"dur_ns":300}]}"#,
            )
        );
        trace.solver = None;
        trace.cached = Some(true);
        let json = rendered_trace(&trace).to_string();
        assert!(json.contains(r#""solver":null,"status":200,"cached":true,"#), "{json}");
    }
}
