//! Config-driven solver registries: the JSON format behind
//! `mst serve --solvers-config` and `mst solvers --config`.
//!
//! A **registry spec** describes one [`SolverRegistry`] as a layer over
//! a base:
//!
//! ```json
//! {
//!   "base": "defaults",
//!   "solvers": [
//!     {"solver": "random", "name": "random-7", "seed": 7},
//!     {"solver": "alias", "name": "fast", "target": "chain-fast"}
//!   ],
//!   "only": ["optimal", "exact", "random-7", "fast"]
//! }
//! ```
//!
//! * `"base"` — `"defaults"` (every built-in, the default) or
//!   `"empty"`;
//! * `"solvers"` — instantiations stacked as an overlay, in order. Each
//!   entry names a built-in constructor (`"solver"`), may rename it
//!   (`"name"`, shadowing included), and may carry constructor
//!   parameters (currently `"seed"` for `random`). The pseudo-solver
//!   `"alias"` binds a new name to an already-visible solver
//!   (`"target"`);
//! * `"only"` — optional restriction: the registry exposes exactly
//!   these names, in this order (applied last, so it can pin aliases).
//!
//! A **registry set** ([`RegistrySet`]) is either a single spec (it
//! becomes the default registry) or a document with named per-tenant
//! registries:
//!
//! ```json
//! {
//!   "default": {"base": "defaults"},
//!   "registries": {
//!     "lean": {"base": "empty", "solvers": [{"solver": "optimal"}]}
//!   }
//! }
//! ```
//!
//! `mst-serve` resolves the `"registry"` field of anonymous `/solve` and
//! `/batch` bodies against the set: the named tenant's registry answers
//! the request, and that tenant's solution cache and store history hold
//! the answer, since a cache is only right for the registry that filled
//! it. The default tenant still admits the request and lends it its
//! worker pool. `/session` takes no `"registry"` field; an
//! `X-Api-Token` header picks the tenant instead.
//!
//! Since the execution-policy redesign a registry spec is a full
//! **tenant spec**: alongside the solver layering it may carry
//! execution limits ([`TenantLimits`]) that `mst-serve` turns into a
//! per-tenant [`crate::exec::TenantExec`]:
//!
//! ```json
//! {
//!   "registries": {
//!     "acme": {
//!       "only": ["optimal", "exact"],
//!       "token": "acme-secret",
//!       "threads": 2,
//!       "quota": 4,
//!       "max_instances": 50000,
//!       "deadline_ms": 2000
//!     }
//!   }
//! }
//! ```
//!
//! * `"token"` — the `X-Api-Token` header value routing requests to
//!   this tenant (defaults to the tenant's name);
//! * `"threads"` — the tenant's dedicated solve parallelism
//!   ([`mst_sim::WorkerPool::with_parallelism`]); absent means the
//!   shared fallback pool;
//! * `"quota"` — max concurrently admitted requests before the service
//!   answers 429;
//! * `"max_instances"` — per-request instance cap (tightens the
//!   server-wide cap);
//! * `"deadline_ms"` — wall-clock budget per request; past it the sweep
//!   is cancelled at the next checkpoint;
//! * `"cache_entries"` — capacity of the tenant's canonical solution
//!   cache ([`crate::cache::SolutionCache`]); `0` disables caching,
//!   absent uses the default budget;
//! * `"requests_per_window"` / `"window_ms"` — a time-windowed rate
//!   limit: at most that many requests per window (token bucket, so
//!   short bursts up to the full window allowance are fine), answered
//!   with 429 and an accurate `Retry-After` past it. The window
//!   defaults to one second when only the rate is given.
//!
//! Because [`crate::Solver::name`] returns `&'static str` (names flow
//! into [`crate::Solution`]s on hot paths), configured names are
//! interned once into a process-wide leak-free-enough pool — config
//! loading happens at startup, not per request.

use crate::registry::SolverRegistry;
use crate::solver::Solver;
use crate::solvers::{
    ChainFastSolver, ChainOptimalSolver, DivisibleSolver, ExactSolver, ForkOptimalSolver,
    HeuristicSolver, OptimalSolver, SpiderOptimalSolver, TreeCoverSolver,
};
use crate::wire::Json;
use crate::{instance::Instance, platform::TopologyKind, solution::Solution, SolveError};
use mst_platform::Time;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Why a solver configuration could not be parsed or built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> ConfigError {
        ConfigError { message: message.into() }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "solver config: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Interns a configured name, handing out a `&'static str` without
/// leaking duplicates across repeated config loads. Also used by the
/// wire codec to rebuild `&'static str` solver names when decoding
/// persisted solutions.
pub(crate) fn intern(name: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut pool = POOL.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&existing) = pool.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    pool.insert(leaked);
    leaked
}

/// A solver re-registered under a configured name: delegates everything
/// to the wrapped solver but answers lookups (and capability listings)
/// under its own name. Solutions keep reporting the wrapped solver's
/// canonical name — an alias changes how you *address* an algorithm,
/// not what it *is*.
struct RenamedSolver {
    name: &'static str,
    description: &'static str,
    inner: Arc<dyn Solver>,
}

impl Solver for RenamedSolver {
    fn name(&self) -> &'static str {
        self.name
    }

    fn description(&self) -> &'static str {
        self.description
    }

    fn supports(&self, kind: TopologyKind) -> bool {
        self.inner.supports(kind)
    }

    fn by_deadline(&self) -> bool {
        self.inner.by_deadline()
    }

    fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
        self.inner.solve(instance)
    }

    fn solve_by_deadline(
        &self,
        instance: &Instance,
        deadline: Time,
    ) -> Result<Solution, SolveError> {
        self.inner.solve_by_deadline(instance, deadline)
    }
}

/// Instantiates a built-in solver constructor by its canonical name.
fn instantiate(kind: &str, spec: &Json) -> Result<Arc<dyn Solver>, ConfigError> {
    let seed = match spec.get("seed") {
        None | Some(Json::Null) => None,
        Some(value) => Some(
            value
                .as_i64()
                .filter(|&s| s >= 0)
                .ok_or_else(|| ConfigError::new("\"seed\" must be a non-negative integer"))?
                as u64,
        ),
    };
    if seed.is_some() && kind != "random" {
        return Err(ConfigError::new(format!("solver {kind:?} takes no \"seed\"")));
    }
    Ok(match kind {
        "optimal" => Arc::new(OptimalSolver),
        "chain-optimal" => Arc::new(ChainOptimalSolver),
        "chain-fast" => Arc::new(ChainFastSolver),
        "fork-optimal" => Arc::new(ForkOptimalSolver),
        "spider-optimal" => Arc::new(SpiderOptimalSolver),
        "tree-cover" => Arc::new(TreeCoverSolver),
        "eager" => Arc::new(HeuristicSolver::eager()),
        "round-robin" => Arc::new(HeuristicSolver::round_robin()),
        "bandwidth-centric" => Arc::new(HeuristicSolver::bandwidth_centric()),
        "master-only" => Arc::new(HeuristicSolver::master_only()),
        "random" => Arc::new(HeuristicSolver::random(seed.unwrap_or(2003))),
        "exact" => Arc::new(ExactSolver),
        "divisible" => Arc::new(DivisibleSolver),
        other => return Err(ConfigError::new(format!("unknown solver constructor {other:?}"))),
    })
}

/// Rejects keys outside `allowed` — a typo'd key must fail loudly at
/// load time, not silently drop a tenant registry or a parameter.
fn check_keys(obj: &Json, allowed: &[&str], what: &str) -> Result<(), ConfigError> {
    for (key, _) in obj.as_obj().into_iter().flatten() {
        if !allowed.contains(&key.as_str()) {
            return Err(ConfigError::new(format!(
                "{what}: unknown key {key:?} (expected one of {allowed:?})"
            )));
        }
    }
    Ok(())
}

/// The execution-limit keys a tenant spec may carry alongside its
/// registry layering (see [`TenantLimits`]).
const EXEC_KEYS: [&str; 8] = [
    "token",
    "threads",
    "quota",
    "max_instances",
    "deadline_ms",
    "cache_entries",
    "requests_per_window",
    "window_ms",
];

/// Execution limits of one tenant spec: everything about *how much
/// machine* a tenant gets, as opposed to *which solvers* it sees.
///
/// All fields are optional; `None` means "the service default" (shared
/// pool, unlimited admission, the server-wide instance cap, no
/// per-request deadline budget). `mst-serve` resolves a parsed
/// `TenantLimits` into an executable policy via
/// [`crate::exec::ExecPolicy`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantLimits {
    /// `X-Api-Token` header value routing to this tenant (defaults to
    /// the tenant's configured name).
    pub token: Option<String>,
    /// Dedicated worker-pool parallelism; `None` shares the fallback
    /// pool.
    pub threads: Option<usize>,
    /// Max concurrently admitted requests; `None` is unlimited.
    pub quota: Option<usize>,
    /// Per-request instance cap; `None` defers to the server-wide cap.
    pub max_instances: Option<usize>,
    /// Per-request wall-clock budget in milliseconds; `None` never
    /// self-cancels.
    pub deadline_ms: Option<u64>,
    /// Canonical solution-cache capacity in entries; `Some(0)` disables
    /// caching, `None` uses [`crate::cache::DEFAULT_CACHE_ENTRIES`].
    pub cache_entries: Option<usize>,
    /// Time-windowed rate limit: requests admitted per
    /// [`TenantLimits::window_ms`] window; `None` is unlimited.
    pub requests_per_window: Option<u64>,
    /// The rate-limit window in milliseconds; `None` with a rate set
    /// uses a one-second window. Setting a window without
    /// `requests_per_window` is a config error.
    pub window_ms: Option<u64>,
}

/// Parses the [`TenantLimits`] members of a tenant spec (each optional,
/// each strictly positive where numeric).
fn limits_from_spec(spec: &Json) -> Result<TenantLimits, ConfigError> {
    let positive = |key: &'static str| -> Result<Option<u64>, ConfigError> {
        match spec.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => match value.as_i64() {
                Some(n) if n >= 1 => Ok(Some(n as u64)),
                _ => Err(ConfigError::new(format!("\"{key}\" must be a positive integer"))),
            },
        }
    };
    let token = match spec.get("token") {
        None | Some(Json::Null) => None,
        Some(value) => {
            let token =
                value.as_str().ok_or_else(|| ConfigError::new("\"token\" must be a string"))?;
            if token.is_empty() {
                return Err(ConfigError::new("\"token\" must not be empty"));
            }
            Some(token.to_string())
        }
    };
    // Unlike the limits above, `cache_entries: 0` is meaningful — it
    // turns caching off for the tenant.
    let cache_entries = match spec.get("cache_entries") {
        None | Some(Json::Null) => None,
        Some(value) => match value.as_i64() {
            Some(n) if n >= 0 => Some(n as usize),
            _ => return Err(ConfigError::new("\"cache_entries\" must be a non-negative integer")),
        },
    };
    let requests_per_window = positive("requests_per_window")?;
    let window_ms = positive("window_ms")?;
    if window_ms.is_some() && requests_per_window.is_none() {
        return Err(ConfigError::new(
            "\"window_ms\" without \"requests_per_window\" limits nothing; set both",
        ));
    }
    Ok(TenantLimits {
        token,
        threads: positive("threads")?.map(|n| n as usize),
        quota: positive("quota")?.map(|n| n as usize),
        max_instances: positive("max_instances")?.map(|n| n as usize),
        deadline_ms: positive("deadline_ms")?,
        cache_entries,
        requests_per_window,
        window_ms,
    })
}

/// Builds one [`SolverRegistry`] from a registry-spec object (the
/// solver-layering half of a tenant spec; execution-limit keys are
/// accepted and handled by [`TenantLimits`] parsing).
pub fn registry_from_spec(spec: &Json) -> Result<SolverRegistry, ConfigError> {
    if spec.as_obj().is_none() {
        return Err(ConfigError::new("a registry spec must be a JSON object"));
    }
    let allowed: Vec<&str> =
        ["base", "solvers", "only"].iter().chain(EXEC_KEYS.iter()).copied().collect();
    check_keys(spec, &allowed, "registry spec")?;
    let mut registry = match spec.get("base").and_then(Json::as_str) {
        None | Some("defaults") => SolverRegistry::global().overlay(),
        Some("empty") => SolverRegistry::new(),
        Some(other) => {
            return Err(ConfigError::new(format!(
                "unknown base {other:?} (expected \"defaults\" or \"empty\")"
            )));
        }
    };
    if let Some(base) = spec.get("base") {
        if base.as_str().is_none() {
            return Err(ConfigError::new("\"base\" must be a string"));
        }
    }

    if let Some(entries) = spec.get("solvers") {
        let entries = entries
            .as_arr()
            .ok_or_else(|| ConfigError::new("\"solvers\" must be an array of objects"))?;
        for (i, entry) in entries.iter().enumerate() {
            let at = |msg: String| ConfigError::new(format!("solvers[{i}]: {msg}"));
            check_keys(entry, &["solver", "name", "seed", "target"], &format!("solvers[{i}]"))?;
            let kind = entry
                .get("solver")
                .and_then(Json::as_str)
                .ok_or_else(|| at("missing string field \"solver\"".into()))?;
            let name = match entry.get("name") {
                None | Some(Json::Null) => None,
                Some(value) => {
                    Some(value.as_str().ok_or_else(|| at("\"name\" must be a string".into()))?)
                }
            };
            let solver: Arc<dyn Solver> = if kind == "alias" {
                if entry.get("seed").is_some() {
                    // An alias shares its target's instance; a seed here
                    // would be silently ignored — reject it instead.
                    return Err(at("an alias takes no \"seed\" (reseed the target entry)".into()));
                }
                let target = entry
                    .get("target")
                    .and_then(Json::as_str)
                    .ok_or_else(|| at("an alias needs a string \"target\"".into()))?;
                let inner = registry
                    .get_arc(target)
                    .ok_or_else(|| at(format!("alias target {target:?} is not registered")))?;
                let name = name.ok_or_else(|| at("an alias needs a \"name\" to bind".into()))?;
                Arc::new(RenamedSolver {
                    name: intern(name),
                    description: intern(&format!("alias of {target}")),
                    inner,
                })
            } else {
                if entry.get("target").is_some() {
                    return Err(at(format!("only aliases take a \"target\", {kind:?} does not")));
                }
                let inner = instantiate(kind, entry).map_err(|e| at(e.message))?;
                match name {
                    Some(name) if name != inner.name() => Arc::new(RenamedSolver {
                        name: intern(name),
                        description: inner.description(),
                        inner,
                    }),
                    _ => inner,
                }
            };
            // Shadowing a *base* name is the supported override; naming
            // two config entries identically is a mistake — fail with a
            // typed error instead of letting `register_arc` panic.
            if registry.defines_locally(solver.name()) {
                return Err(at(format!("{:?} is defined twice in this config", solver.name())));
            }
            registry.register_arc(solver);
        }
    }

    if let Some(only) = spec.get("only") {
        let names = only
            .as_arr()
            .ok_or_else(|| ConfigError::new("\"only\" must be an array of solver names"))?
            .iter()
            .map(|n| n.as_str().ok_or_else(|| ConfigError::new("\"only\" entries must be strings")))
            .collect::<Result<Vec<&str>, ConfigError>>()?;
        if let Some(dup) =
            names.iter().enumerate().find_map(|(i, n)| names[..i].contains(n).then_some(*n))
        {
            return Err(ConfigError::new(format!("\"only\" lists {dup:?} twice")));
        }
        registry = registry
            .restricted_to(&names)
            .map_err(|e| ConfigError::new(format!("\"only\": {e}")))?;
    }
    Ok(registry)
}

/// A set of config-built tenants: one default plus named per-tenant
/// registries with execution limits, as served by `mst serve
/// --solvers-config`.
#[derive(Debug, Clone)]
pub struct RegistrySet {
    default: SolverRegistry,
    default_limits: TenantLimits,
    named: Vec<(String, SolverRegistry, TenantLimits)>,
}

impl RegistrySet {
    /// A set holding just the built-in default registry.
    pub fn builtin() -> RegistrySet {
        RegistrySet::of(SolverRegistry::global().clone())
    }

    /// A set whose default tenant serves `registry` under default
    /// limits, with no named tenants: how an embedder serves solvers
    /// of its own.
    pub fn of(registry: SolverRegistry) -> RegistrySet {
        RegistrySet {
            default: registry,
            default_limits: TenantLimits::default(),
            named: Vec::new(),
        }
    }

    /// Parses a config document. Two shapes are accepted:
    ///
    /// * a document with `"default"` and/or `"registries"` members —
    ///   each value is a registry spec;
    /// * a bare registry spec, which becomes the default registry.
    pub fn parse(text: &str) -> Result<RegistrySet, ConfigError> {
        let json = Json::parse(text).map_err(|e| ConfigError::new(format!("invalid JSON: {e}")))?;
        if json.as_obj().is_none() {
            return Err(ConfigError::new("the config must be a JSON object"));
        }
        let is_set = json.get("default").is_some() || json.get("registries").is_some();
        if !is_set {
            // A bare registry spec; its own key whitelist rejects typos
            // like "registeries" instead of silently dropping tenants.
            let set = RegistrySet {
                default: registry_from_spec(&json)?,
                default_limits: limits_from_spec(&json)?,
                named: Vec::new(),
            };
            if let Some(token) = &set.default_limits.token {
                return Err(ConfigError::new(format!(
                    "the default tenant takes no \"token\" ({token:?} would shadow anonymous \
                     requests); give the tenant a name under \"registries\""
                )));
            }
            return Ok(set);
        }
        check_keys(&json, &["default", "registries"], "config")?;
        let (default, default_limits) = match json.get("default") {
            Some(spec) => {
                let at = |e: ConfigError| ConfigError::new(format!("\"default\": {}", e.message));
                (registry_from_spec(spec).map_err(at)?, limits_from_spec(spec).map_err(at)?)
            }
            None => (SolverRegistry::global().clone(), TenantLimits::default()),
        };
        if let Some(token) = &default_limits.token {
            return Err(ConfigError::new(format!(
                "the default tenant takes no \"token\" ({token:?} would shadow anonymous \
                 requests); give the tenant a name under \"registries\""
            )));
        }
        let mut named: Vec<(String, SolverRegistry, TenantLimits)> = Vec::new();
        if let Some(registries) = json.get("registries") {
            let members = registries
                .as_obj()
                .ok_or_else(|| ConfigError::new("\"registries\" must be an object"))?;
            for (name, spec) in members {
                if name == "default" || named.iter().any(|(n, _, _)| n == name) {
                    return Err(ConfigError::new(format!("registry {name:?} defined twice")));
                }
                let at =
                    |e: ConfigError| ConfigError::new(format!("registry {name:?}: {}", e.message));
                let registry = registry_from_spec(spec).map_err(at)?;
                let limits = limits_from_spec(spec).map_err(at)?;
                // Effective tokens must be unambiguous: two tenants
                // answering the same `X-Api-Token` value cannot both
                // win the route.
                let token = limits.token.as_deref().unwrap_or(name);
                if let Some((other, _, _)) =
                    named.iter().find(|(n, _, l)| l.token.as_deref().unwrap_or(n) == token)
                {
                    return Err(ConfigError::new(format!(
                        "tenants {other:?} and {name:?} share the API token {token:?}"
                    )));
                }
                named.push((name.clone(), registry, limits));
            }
        }
        Ok(RegistrySet { default, default_limits, named })
    }

    /// The default registry (requests that pin nothing).
    pub fn default_registry(&self) -> &SolverRegistry {
        &self.default
    }

    /// The default tenant's execution limits (anonymous requests).
    pub fn default_limits(&self) -> &TenantLimits {
        &self.default_limits
    }

    /// A named tenant registry; `None` (not the default!) when unknown,
    /// so callers can distinguish a typo from an intentional fallback.
    pub fn get(&self, name: &str) -> Option<&SolverRegistry> {
        self.named.iter().find(|(n, _, _)| n == name).map(|(_, r, _)| r)
    }

    /// A named tenant's execution limits.
    pub fn limits(&self, name: &str) -> Option<&TenantLimits> {
        self.named.iter().find(|(n, _, _)| n == name).map(|(_, _, l)| l)
    }

    /// The tenant registry names, in config order.
    pub fn names(&self) -> Vec<&str> {
        self.named.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// Every named tenant as `(name, registry, limits)`, in config
    /// order — what `mst-serve` and `mst tenants` resolve policies
    /// from.
    pub fn tenants(&self) -> impl Iterator<Item = (&str, &SolverRegistry, &TenantLimits)> {
        self.named.iter().map(|(n, r, l)| (n.as_str(), r, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_platform::Chain;

    fn spec(text: &str) -> Result<SolverRegistry, ConfigError> {
        registry_from_spec(&Json::parse(text).expect("test specs are valid JSON"))
    }

    #[test]
    fn empty_spec_overlays_the_defaults_transparently() {
        let registry = spec("{}").unwrap();
        assert_eq!(registry.names(), SolverRegistry::global().names());
        let instance = Instance::new(Chain::paper_figure2(), 5);
        assert_eq!(registry.solve("optimal", &instance).unwrap().makespan(), 14);
    }

    #[test]
    fn parameterised_and_renamed_solvers_register() {
        let registry = spec(
            r#"{"solvers": [
                {"solver": "random", "name": "random-7", "seed": 7},
                {"solver": "random", "name": "random-11", "seed": 11}
            ]}"#,
        )
        .unwrap();
        assert!(registry.get("random-7").is_some());
        assert!(registry.get("random-11").is_some());
        assert!(registry.get("random").is_some(), "the base's default-seed random survives");
        let instance = Instance::new(Chain::paper_figure2(), 6);
        let a = registry.solve("random-7", &instance).unwrap();
        let b = registry.solve("random-11", &instance).unwrap();
        // Different seeds are genuinely different solver instances
        // (registered under different names; makespans may still tie).
        assert_eq!(a.solver(), "random", "solutions report the canonical algorithm");
        assert!(a.n() == 6 && b.n() == 6);
    }

    #[test]
    fn aliases_resolve_and_report_their_target() {
        let registry =
            spec(r#"{"solvers": [{"solver": "alias", "name": "default", "target": "optimal"}]}"#)
                .unwrap();
        let solver = registry.get("default").unwrap();
        assert_eq!(solver.description(), "alias of optimal");
        assert!(solver.by_deadline(), "capabilities delegate to the target");
        let instance = Instance::new(Chain::paper_figure2(), 5);
        assert_eq!(registry.solve("default", &instance).unwrap().makespan(), 14);
    }

    #[test]
    fn empty_base_plus_only_pins_a_tenant_set() {
        let registry = spec(r#"{"base": "defaults", "only": ["exact", "optimal"]}"#).unwrap();
        assert_eq!(registry.names(), vec!["exact", "optimal"]);
        let empty = spec(r#"{"base": "empty"}"#).unwrap();
        assert!(empty.is_empty());
        let one = spec(r#"{"base": "empty", "solvers": [{"solver": "chain-optimal"}]}"#).unwrap();
        assert_eq!(one.names(), vec!["chain-optimal"]);
    }

    #[test]
    fn bad_specs_report_typed_errors() {
        for (text, needle) in [
            (r#"[]"#, "object"),
            (r#"{"base": "bogus"}"#, "unknown base"),
            (r#"{"base": 3}"#, "base"),
            (r#"{"solvers": 3}"#, "array"),
            (r#"{"solvers": [{}]}"#, "solver"),
            (r#"{"solvers": [{"solver": "warp-drive"}]}"#, "unknown solver constructor"),
            (r#"{"solvers": [{"solver": "exact", "seed": 3}]}"#, "seed"),
            (r#"{"solvers": [{"solver": "random", "seed": -1}]}"#, "seed"),
            (r#"{"solvers": [{"solver": "alias", "name": "x"}]}"#, "target"),
            (r#"{"solvers": [{"solver": "alias", "target": "optimal"}]}"#, "name"),
            (
                r#"{"solvers": [{"solver": "alias", "name": "x", "target": "nope"}]}"#,
                "not registered",
            ),
            (r#"{"only": ["nope"]}"#, "nope"),
            (r#"{"only": 3}"#, "only"),
            (r#"{"only": ["optimal", "exact", "optimal"]}"#, "twice"),
            (r#"{"solvres": []}"#, "unknown key"),
            (r#"{"solvers": [{"solver": "optimal", "sede": 3}]}"#, "unknown key"),
            (
                r#"{"solvers": [{"solver": "alias", "name": "x", "target": "optimal", "seed": 9}]}"#,
                "no \"seed\"",
            ),
            (r#"{"solvers": [{"solver": "optimal", "target": "exact"}]}"#, "only aliases"),
        ] {
            let err = spec(text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn duplicate_names_in_one_config_fail_cleanly() {
        let err = spec(
            r#"{"solvers": [
                {"solver": "random", "name": "r", "seed": 1},
                {"solver": "random", "name": "r", "seed": 2}
            ]}"#,
        )
        .expect_err("duplicate must fail");
        assert!(err.to_string().contains("twice"), "{err}");
    }

    #[test]
    fn registry_sets_parse_both_shapes() {
        // A bare spec is the default registry.
        let set = RegistrySet::parse(r#"{"base": "defaults"}"#).unwrap();
        assert!(set.names().is_empty());
        assert_eq!(set.default_registry().names(), SolverRegistry::global().names());

        // A full set with tenants.
        let set = RegistrySet::parse(
            r#"{
                "default": {"solvers": [{"solver": "random", "name": "random-9", "seed": 9}]},
                "registries": {
                    "lean": {"base": "empty", "solvers": [{"solver": "optimal"}, {"solver": "exact"}]},
                    "aliased": {"solvers": [{"solver": "alias", "name": "best", "target": "optimal"}]}
                }
            }"#,
        )
        .unwrap();
        assert_eq!(set.names(), vec!["lean", "aliased"]);
        assert!(set.default_registry().get("random-9").is_some());
        assert_eq!(set.get("lean").unwrap().names(), vec!["optimal", "exact"]);
        assert!(set.get("aliased").unwrap().get("best").is_some());
        assert!(set.get("nope").is_none());

        // The builtin set is the no-config fallback.
        assert_eq!(RegistrySet::builtin().default_registry().len(), SolverRegistry::global().len());
    }

    #[test]
    fn registry_set_rejects_duplicates_and_garbage() {
        assert!(RegistrySet::parse("not json").is_err());
        assert!(RegistrySet::parse("[1,2]").is_err());
        let err = RegistrySet::parse(r#"{"registries": {"default": {"base": "empty"}}}"#)
            .expect_err("shadowing the default name is ambiguous");
        assert!(err.to_string().contains("twice"), "{err}");
        assert!(RegistrySet::parse(r#"{"registries": 3}"#).is_err());
        let err = RegistrySet::parse(r#"{"default": {"base": "?"}}"#).unwrap_err();
        assert!(err.to_string().contains("default"), "{err}");
        // A typo'd top-level key must fail loudly, not silently drop
        // every tenant registry.
        let err = RegistrySet::parse(r#"{"registeries": {"lean": {"base": "empty"}}}"#)
            .expect_err("typo must be rejected");
        assert!(err.to_string().contains("unknown key"), "{err}");
        let err = RegistrySet::parse(r#"{"default": {"base": "empty"}, "extra": 1}"#).unwrap_err();
        assert!(err.to_string().contains("unknown key"), "{err}");
    }

    #[test]
    fn tenant_specs_carry_execution_limits() {
        let set = RegistrySet::parse(
            r#"{
                "default": {"quota": 16},
                "registries": {
                    "acme": {
                        "only": ["optimal", "exact"],
                        "token": "acme-secret",
                        "threads": 2,
                        "quota": 4,
                        "max_instances": 50000,
                        "deadline_ms": 2000
                    },
                    "lab": {"base": "empty", "solvers": [{"solver": "optimal"}]}
                }
            }"#,
        )
        .unwrap();
        assert_eq!(set.default_limits().quota, Some(16));
        assert_eq!(set.default_limits().token, None);
        let acme = set.limits("acme").unwrap();
        assert_eq!(acme.token.as_deref(), Some("acme-secret"));
        assert_eq!(acme.threads, Some(2));
        assert_eq!(acme.quota, Some(4));
        assert_eq!(acme.max_instances, Some(50_000));
        assert_eq!(acme.deadline_ms, Some(2000));
        // Limits default to None everywhere they are omitted.
        assert_eq!(set.limits("lab"), Some(&TenantLimits::default()));
        assert!(set.limits("nope").is_none());
        let tenants: Vec<&str> = set.tenants().map(|(n, _, _)| n).collect();
        assert_eq!(tenants, vec!["acme", "lab"]);
        // The registry half of the tenant spec still applies.
        assert_eq!(set.get("acme").unwrap().names(), vec!["optimal", "exact"]);
    }

    #[test]
    fn bad_limits_report_typed_errors() {
        for (text, needle) in [
            (r#"{"registries": {"a": {"threads": 0}}}"#, "positive"),
            (r#"{"registries": {"a": {"threads": -2}}}"#, "positive"),
            (r#"{"registries": {"a": {"quota": "many"}}}"#, "positive"),
            (r#"{"registries": {"a": {"max_instances": 0}}}"#, "positive"),
            (r#"{"registries": {"a": {"deadline_ms": 1.5}}}"#, "positive"),
            (r#"{"registries": {"a": {"token": 7}}}"#, "string"),
            (r#"{"registries": {"a": {"token": ""}}}"#, "empty"),
            (r#"{"registries": {"a": {"tokens": "x"}}}"#, "unknown key"),
            (r#"{"default": {"token": "x"}}"#, "no \"token\""),
            // Two tenants answering one token value is ambiguous routing,
            // whether the clash is explicit or via the name fallback.
            (
                r#"{"registries": {"a": {"token": "k"}, "b": {"token": "k"}}}"#,
                "share the API token",
            ),
            (r#"{"registries": {"a": {"token": "b"}, "b": {}}}"#, "share the API token"),
            (r#"{"registries": {"a": {"cache_entries": -1}}}"#, "non-negative"),
            (r#"{"registries": {"a": {"cache_entries": "big"}}}"#, "non-negative"),
        ] {
            let err = RegistrySet::parse(text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text}: {err}");
        }
        // A bare spec may carry limits too (they apply to the default).
        let bare = RegistrySet::parse(r#"{"base": "defaults", "quota": 3}"#).unwrap();
        assert_eq!(bare.default_limits().quota, Some(3));
        // cache_entries: 0 is valid — it disables the tenant's cache.
        let off = RegistrySet::parse(r#"{"registries": {"a": {"cache_entries": 0}}}"#).unwrap();
        assert_eq!(off.limits("a").unwrap().cache_entries, Some(0));
    }

    #[test]
    fn rate_limit_keys_parse_and_validate() {
        let set = RegistrySet::parse(
            r#"{"registries": {"a": {"requests_per_window": 100, "window_ms": 250}}}"#,
        )
        .unwrap();
        let limits = set.limits("a").unwrap();
        assert_eq!(limits.requests_per_window, Some(100));
        assert_eq!(limits.window_ms, Some(250));
        // The window defaults (to one second) when only the rate is set.
        let rate_only =
            RegistrySet::parse(r#"{"registries": {"a": {"requests_per_window": 5}}}"#).unwrap();
        assert_eq!(rate_only.limits("a").unwrap().window_ms, None);
        for (text, needle) in [
            (r#"{"registries": {"a": {"requests_per_window": 0}}}"#, "positive"),
            (r#"{"registries": {"a": {"window_ms": -5, "requests_per_window": 1}}}"#, "positive"),
            (r#"{"registries": {"a": {"window_ms": 1000}}}"#, "limits nothing"),
        ] {
            let err = RegistrySet::parse(text).expect_err(text).to_string();
            assert!(err.contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn interned_names_are_stable_across_loads() {
        let a = intern("tenant-solver-x");
        let b = intern("tenant-solver-x");
        assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()), "re-interning must not re-leak");
    }
}
