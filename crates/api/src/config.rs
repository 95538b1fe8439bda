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
//!     {"solver": "alias", "name": "paper", "target": "chain-optimal"}
//!   ],
//!   "only": ["optimal", "exact", "random-7", "paper"]
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
//! A registry spec is a full **tenant spec**: alongside the solver
//! layering it may carry execution limits. [`RegistrySet::parse`] reads
//! each tenant spec into one [`ExecPolicy`], which `mst-serve` runs as a
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

use crate::canon::CanonLevel;
use crate::exec::{ExecPolicy, RateLimit};
use crate::registry::SolverRegistry;
use crate::solver::Solver;
use crate::solvers::{
    ChainOptimalSolver, DivisibleSolver, ExactSolver, ForkOptimalSolver, HeuristicSolver,
    OptimalSolver, SpiderOptimalSolver, TreeCoverSolver,
};
use crate::wire::Json;
use crate::{instance::Instance, platform::TopologyKind, solution::Solution, SolveError};
use mst_platform::Time;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

    fn canon_level(&self) -> CanonLevel {
        self.inner.canon_level()
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
/// registry layering (see [`policy_from_spec`]).
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

/// Parses one tenant spec into the policy of tenant `name`: the registry
/// from [`registry_from_spec`], and each limit key (optional, strictly
/// positive where numeric) into the policy field it sets.
fn policy_from_spec(name: &str, spec: &Json) -> Result<ExecPolicy, ConfigError> {
    let registry = registry_from_spec(spec)?;
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
    Ok(ExecPolicy {
        name: name.to_string(),
        token,
        registry,
        threads: positive("threads")?.map(|n| n as usize),
        quota: positive("quota")?.map(|n| n as usize),
        max_instances: positive("max_instances")?.map(|n| n as usize),
        deadline: positive("deadline_ms")?.map(Duration::from_millis),
        cache_entries,
        // The window defaults to one second when only the rate is set.
        rate: requests_per_window.map(|requests| RateLimit {
            requests,
            window: Duration::from_millis(window_ms.unwrap_or(1_000)),
        }),
    })
}

/// Builds one [`SolverRegistry`] from a registry-spec object (the
/// solver-layering half of a tenant spec; execution-limit keys are
/// accepted here and read by [`RegistrySet::parse`]).
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

/// A set of config-built tenants, as served by `mst serve
/// --solvers-config`: the default tenant's policy, named `"default"`,
/// plus the named tenants' policies in config order.
#[derive(Debug, Clone)]
pub struct RegistrySet {
    default: ExecPolicy,
    named: Vec<ExecPolicy>,
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
        RegistrySet { default: ExecPolicy::new("default", registry), named: Vec::new() }
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
        let default = if is_set {
            check_keys(&json, &["default", "registries"], "config")?;
            match json.get("default") {
                Some(spec) => policy_from_spec("default", spec)
                    .map_err(|e| ConfigError::new(format!("\"default\": {}", e.message)))?,
                None => ExecPolicy::new("default", SolverRegistry::global().clone()),
            }
        } else {
            // A bare registry spec; its own key whitelist rejects typos
            // like "registeries" instead of silently dropping tenants.
            policy_from_spec("default", &json)?
        };
        if let Some(token) = &default.token {
            return Err(ConfigError::new(format!(
                "the default tenant takes no \"token\" ({token:?} would shadow anonymous \
                 requests); give the tenant a name under \"registries\""
            )));
        }
        let mut named: Vec<ExecPolicy> = Vec::new();
        if let Some(registries) = json.get("registries") {
            let members = registries
                .as_obj()
                .ok_or_else(|| ConfigError::new("\"registries\" must be an object"))?;
            for (name, spec) in members {
                if name == "default" || named.iter().any(|p| &p.name == name) {
                    return Err(ConfigError::new(format!("registry {name:?} defined twice")));
                }
                let policy = policy_from_spec(name, spec)
                    .map_err(|e| ConfigError::new(format!("registry {name:?}: {}", e.message)))?;
                // Effective tokens must be unambiguous: two tenants
                // answering the same `X-Api-Token` value cannot both
                // win the route.
                let token = policy.effective_token();
                if let Some(other) = named.iter().find(|p| p.effective_token() == token) {
                    return Err(ConfigError::new(format!(
                        "tenants {:?} and {name:?} share the API token {token:?}",
                        other.name
                    )));
                }
                named.push(policy);
            }
        }
        Ok(RegistrySet { default, named })
    }

    /// The default tenant's policy (requests that name no tenant).
    pub fn default_policy(&self) -> &ExecPolicy {
        &self.default
    }

    /// A named tenant's policy; `None` (not the default!) when unknown,
    /// so callers can distinguish a typo from an intentional fallback.
    pub fn get(&self, name: &str) -> Option<&ExecPolicy> {
        self.named.iter().find(|p| p.name == name)
    }

    /// The named tenants' policies, in config order.
    pub fn named(&self) -> &[ExecPolicy] {
        &self.named
    }

    /// The tenant registry names, in config order.
    pub fn names(&self) -> Vec<&str> {
        self.named.iter().map(|p| p.name.as_str()).collect()
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
        assert_eq!(set.default_policy().registry.names(), SolverRegistry::global().names());

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
        assert!(set.default_policy().registry.get("random-9").is_some());
        assert_eq!(set.get("lean").unwrap().registry.names(), vec!["optimal", "exact"]);
        assert!(set.get("aliased").unwrap().registry.get("best").is_some());
        assert!(set.get("nope").is_none());

        // The builtin set is the no-config fallback.
        let builtin = RegistrySet::builtin();
        assert_eq!(builtin.default_policy().registry.len(), SolverRegistry::global().len());
        assert_eq!(builtin.default_policy().name, "default");
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
                        "deadline_ms": 2000,
                        "cache_entries": 128,
                        "requests_per_window": 40,
                        "window_ms": 500
                    },
                    "lab": {"base": "empty", "solvers": [{"solver": "optimal"}]}
                }
            }"#,
        )
        .unwrap();
        assert_eq!(set.default_policy().quota, Some(16));
        assert_eq!(set.default_policy().token, None);
        let acme = set.get("acme").unwrap();
        assert_eq!(acme.name, "acme");
        assert_eq!(acme.effective_token(), "acme-secret");
        assert_eq!(acme.threads, Some(2));
        assert_eq!(acme.quota, Some(4));
        assert_eq!(acme.max_instances, Some(50_000));
        assert_eq!(acme.deadline, Some(Duration::from_millis(2000)));
        assert_eq!(acme.cache_entries, Some(128));
        assert_eq!(acme.rate, Some(RateLimit { requests: 40, window: Duration::from_millis(500) }));
        // Limits default to None everywhere they are omitted, and the
        // name is the fallback token.
        let lab = set.get("lab").unwrap();
        assert_eq!(
            (lab.token.as_ref(), lab.threads, lab.quota, lab.max_instances),
            (None, None, None, None)
        );
        assert_eq!((lab.deadline, lab.cache_entries, lab.rate), (None, None, None));
        assert_eq!(lab.effective_token(), "lab");
        assert!(set.get("nope").is_none());
        let tenants: Vec<&str> = set.named().iter().map(|p| p.name.as_str()).collect();
        assert_eq!(tenants, vec!["acme", "lab"]);
        // The registry half of the tenant spec still applies.
        assert_eq!(acme.registry.names(), vec!["optimal", "exact"]);
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
        assert_eq!(bare.default_policy().quota, Some(3));
        // cache_entries: 0 is valid — it disables the tenant's cache.
        let off = RegistrySet::parse(r#"{"registries": {"a": {"cache_entries": 0}}}"#).unwrap();
        assert_eq!(off.get("a").unwrap().cache_entries, Some(0));
    }

    #[test]
    fn rate_limit_keys_parse_and_validate() {
        let set = RegistrySet::parse(
            r#"{"registries": {"a": {"requests_per_window": 100, "window_ms": 250}}}"#,
        )
        .unwrap();
        let rate = set.get("a").unwrap().rate;
        assert_eq!(rate, Some(RateLimit { requests: 100, window: Duration::from_millis(250) }));
        // The window defaults to one second when only the rate is set.
        let rate_only =
            RegistrySet::parse(r#"{"registries": {"a": {"requests_per_window": 5}}}"#).unwrap();
        let rate = rate_only.get("a").unwrap().rate;
        assert_eq!(rate, Some(RateLimit { requests: 5, window: Duration::from_secs(1) }));
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
