//! The [`SolverRegistry`]: a **layered** set of named solvers.
//!
//! A registry is a stack of layers: an (optionally shared, immutable)
//! parent plus this layer's own solvers. Lookup walks the chain leaf to
//! root — a `Deref`-style resolution — so an overlay can *shadow* a
//! built-in under the same name without touching the shared base, and
//! two tenants can pin different solver sets over one set of solver
//! instances:
//!
//! ```
//! use mst_api::SolverRegistry;
//!
//! // The immutable built-in base, shared process-wide...
//! let base = SolverRegistry::global();
//! // ...and a mutable overlay that sees everything the base has.
//! let mut tenant = base.overlay();
//! // Registering "random" again *shadows* the built-in (different
//! // seed), without touching the shared base.
//! tenant.register(mst_api::solvers::HeuristicSolver::random(7));
//! assert_eq!(tenant.len(), base.len());
//! assert!(tenant.get("chain-optimal").is_some(), "inherited from the base");
//! ```
//!
//! Registries can also be **built from configuration** — see
//! [`crate::config`] for the JSON format behind `mst serve
//! --solvers-config` and `mst solvers --config`.

use crate::error::SolveError;
use crate::instance::Instance;
use crate::platform::TopologyKind;
use crate::solution::Solution;
use crate::solver::Solver;
use crate::solvers::{
    ChainOptimalSolver, DivisibleSolver, ExactSolver, ForkOptimalSolver, HeuristicSolver,
    OptimalSolver, SpiderOptimalSolver, TreeCoverSolver,
};
use mst_platform::Time;
use std::sync::{Arc, OnceLock};

/// A layered set of named [`Solver`]s.
///
/// Registration order is preserved within a layer (it drives `mst
/// solvers` and the README table); names must be unique **within a
/// layer** — re-registering a name that a parent layer defines shadows
/// it instead. The registry is cheap to clone — solvers and parent
/// layers are shared behind [`Arc`] — and `Send + Sync`, so one
/// registry serves all worker threads of a [`crate::Batch`].
#[derive(Clone, Default)]
pub struct SolverRegistry {
    parent: Option<Arc<SolverRegistry>>,
    solvers: Vec<Arc<dyn Solver>>,
}

impl SolverRegistry {
    /// An empty registry (no parent, no solvers).
    pub fn new() -> SolverRegistry {
        SolverRegistry::default()
    }

    /// Every built-in solver in one flat layer: the dispatching
    /// `optimal`, the three per-topology optimal algorithms, the
    /// tree-cover heuristic, the forward heuristics, the exhaustive
    /// `exact` search and the `divisible` fluid relaxation.
    pub fn with_defaults() -> SolverRegistry {
        let mut registry = SolverRegistry::new();
        registry.register(OptimalSolver);
        registry.register(ChainOptimalSolver);
        registry.register(ForkOptimalSolver);
        registry.register(SpiderOptimalSolver);
        registry.register(TreeCoverSolver);
        registry.register(HeuristicSolver::eager());
        registry.register(HeuristicSolver::round_robin());
        registry.register(HeuristicSolver::bandwidth_centric());
        registry.register(HeuristicSolver::master_only());
        registry.register(HeuristicSolver::random(2003));
        registry.register(ExactSolver);
        registry.register(DivisibleSolver);
        registry
    }

    /// The process-wide immutable base registry:
    /// [`SolverRegistry::with_defaults`] built once behind a `OnceLock`
    /// and shared from then on — the fast path for CLI invocations and
    /// batch construction.
    ///
    /// The base itself never changes; to register custom solvers, stack
    /// a mutable layer on top with [`SolverRegistry::overlay`] (sharing
    /// the base), or build a standalone registry with
    /// [`SolverRegistry::with_defaults`]. Cloning the returned reference
    /// is cheap (solvers are shared behind [`Arc`]).
    pub fn global() -> &'static SolverRegistry {
        static GLOBAL: OnceLock<SolverRegistry> = OnceLock::new();
        GLOBAL.get_or_init(SolverRegistry::with_defaults)
    }

    /// A new **mutable overlay** whose parent is this registry: it sees
    /// every solver visible here, can add its own, and can shadow
    /// inherited names — all without mutating (or copying) the parent.
    pub fn overlay(&self) -> SolverRegistry {
        SolverRegistry { parent: Some(Arc::new(self.clone())), solvers: Vec::new() }
    }

    /// Number of layers in the lookup chain (a flat registry is 1).
    pub fn depth(&self) -> usize {
        1 + self.parent.as_ref().map_or(0, |p| p.depth())
    }

    /// Adds a solver to this layer. Panics if this **layer** already
    /// defines the name — duplicate registration within a layer is a
    /// programming error; shadowing a parent's name is the supported
    /// override mechanism and does not panic.
    pub fn register(&mut self, solver: impl Solver + 'static) {
        self.register_arc(Arc::new(solver));
    }

    /// [`SolverRegistry::register`] for an already-shared solver.
    pub fn register_arc(&mut self, solver: Arc<dyn Solver>) {
        assert!(
            !self.solvers.iter().any(|s| s.name() == solver.name()),
            "a solver named {:?} is already registered in this layer",
            solver.name()
        );
        self.solvers.push(solver);
    }

    /// Looks a solver up by name: this layer first, then the parent
    /// chain (so overlays shadow their parents).
    pub fn get(&self, name: &str) -> Option<&dyn Solver> {
        self.get_arc_ref(name).map(|s| s.as_ref())
    }

    /// Like [`SolverRegistry::get`], but returns the shared handle —
    /// the building block for restricted/config-derived registries.
    pub fn get_arc(&self, name: &str) -> Option<Arc<dyn Solver>> {
        self.get_arc_ref(name).cloned()
    }

    fn get_arc_ref(&self, name: &str) -> Option<&Arc<dyn Solver>> {
        self.solvers
            .iter()
            .find(|s| s.name() == name)
            .or_else(|| self.parent.as_ref()?.get_arc_ref(name))
    }

    /// Whether this **layer itself** (parents excluded) defines `name` —
    /// i.e. whether registering `name` here would panic rather than
    /// shadow. Config loading uses this to fail with a typed error.
    pub fn defines_locally(&self, name: &str) -> bool {
        self.solvers.iter().any(|s| s.name() == name)
    }

    /// Looks a solver up by name, erroring with
    /// [`SolveError::UnknownSolver`].
    pub fn resolve(&self, name: &str) -> Result<&dyn Solver, SolveError> {
        self.get(name).ok_or_else(|| SolveError::UnknownSolver { name: name.to_string() })
    }

    /// Solves `instance` with the named solver.
    pub fn solve(&self, name: &str, instance: &Instance) -> Result<Solution, SolveError> {
        self.resolve(name)?.solve(instance)
    }

    /// Deadline-solves `instance` with the named solver.
    pub fn solve_by_deadline(
        &self,
        name: &str,
        instance: &Instance,
        deadline: Time,
    ) -> Result<Solution, SolveError> {
        self.resolve(name)?.solve_by_deadline(instance, deadline)
    }

    /// Every **visible** solver, root layer's registration order first,
    /// overlay additions appended; a shadowing solver takes its
    /// shadowed ancestor's position (so `mst solvers` stays stable when
    /// an overlay swaps an implementation).
    fn visible(&self) -> Vec<&Arc<dyn Solver>> {
        let mut out: Vec<&Arc<dyn Solver>> =
            self.parent.as_ref().map_or_else(Vec::new, |p| p.visible());
        for solver in &self.solvers {
            match out.iter_mut().find(|s| s.name() == solver.name()) {
                Some(slot) => *slot = solver,
                None => out.push(solver),
            }
        }
        out
    }

    /// All visible solvers: root layer's registration order first,
    /// overlay additions appended, shadows in place.
    pub fn solvers(&self) -> impl Iterator<Item = &dyn Solver> {
        self.visible().into_iter().map(|s| s.as_ref())
    }

    /// All visible solver names.
    pub fn names(&self) -> Vec<&'static str> {
        self.visible().iter().map(|s| s.name()).collect()
    }

    /// Visible solvers that handle the given topology family.
    pub fn supporting(&self, kind: TopologyKind) -> Vec<&dyn Solver> {
        self.solvers().filter(|s| s.supports(kind)).collect()
    }

    /// Number of visible solvers (shadowed ancestors count once).
    pub fn len(&self) -> usize {
        self.visible().len()
    }

    /// `true` iff no solver is visible through any layer.
    pub fn is_empty(&self) -> bool {
        self.solvers.is_empty() && self.parent.as_ref().is_none_or(|p| p.is_empty())
    }

    /// A **flat** registry exposing exactly the named solvers, resolved
    /// through this registry's lookup chain, in the order given
    /// (repeated names collapse to their first occurrence). The
    /// building block for config-driven `only` restrictions and tenant
    /// pinning. Errors with [`SolveError::UnknownSolver`] on the first
    /// name that does not resolve; never panics.
    pub fn restricted_to(&self, names: &[&str]) -> Result<SolverRegistry, SolveError> {
        let mut out = SolverRegistry::new();
        for name in names {
            let solver = self
                .get_arc(name)
                .ok_or_else(|| SolveError::UnknownSolver { name: name.to_string() })?;
            if !out.defines_locally(solver.name()) {
                out.register_arc(solver);
            }
        }
        Ok(out)
    }
}

impl std::fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverRegistry")
            .field("layers", &self.depth())
            .field("solvers", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_platform::Chain;

    #[test]
    fn defaults_cover_every_topology_and_the_required_names() {
        let registry = SolverRegistry::with_defaults();
        for required in [
            "optimal",
            "chain-optimal",
            "spider-optimal",
            "fork-optimal",
            "eager",
            "round-robin",
            "exact",
        ] {
            assert!(registry.get(required).is_some(), "missing {required}");
        }
        assert!(registry.len() >= 6);
        for kind in TopologyKind::ALL {
            assert!(!registry.supporting(kind).is_empty(), "no solver for {kind}");
        }
    }

    #[test]
    fn solve_by_name_and_unknown_names() {
        let registry = SolverRegistry::with_defaults();
        let instance = Instance::new(Chain::paper_figure2(), 5);
        assert_eq!(registry.solve("optimal", &instance).unwrap().makespan(), 14);
        assert_eq!(registry.solve_by_deadline("chain-optimal", &instance, 14).unwrap().n(), 5);
        assert!(matches!(registry.solve("nope", &instance), Err(SolveError::UnknownSolver { .. })));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_names_in_one_layer_panic() {
        let mut registry = SolverRegistry::with_defaults();
        registry.register(OptimalSolver);
    }

    #[test]
    fn global_registry_is_built_once_and_matches_defaults() {
        let a = SolverRegistry::global();
        let b = SolverRegistry::global();
        assert!(std::ptr::eq(a, b), "OnceLock must hand out one instance");
        assert_eq!(a.names(), SolverRegistry::with_defaults().names());
        // Clones share the solver Arcs, so they are cheap and identical.
        let clone = a.clone();
        assert_eq!(clone.len(), a.len());
    }

    #[test]
    fn overlays_inherit_extend_and_shadow_without_mutating_the_base() {
        let base = SolverRegistry::with_defaults();
        let base_names = base.names();

        let mut overlay = base.overlay();
        assert_eq!(overlay.depth(), 2);
        assert_eq!(overlay.names(), base_names, "an empty overlay is transparent");

        // "random" exists in the base, so this registration shadows it
        // (a different seed) instead of growing the visible set.
        overlay.register(HeuristicSolver::random(7));
        assert_eq!(overlay.len(), base.len(), "same-name registration shadows");
        let shadowed = overlay.get("random").unwrap();
        assert_eq!(shadowed.name(), "random");
        // The shadow sits at the ancestor's position, order preserved.
        assert_eq!(overlay.names(), base_names);

        // The base itself is untouched.
        assert_eq!(base.names(), base_names);
        let instance = Instance::new(Chain::paper_figure2(), 3);
        // Shadowed solver actually dispatches through the overlay.
        let via_overlay = overlay.solve("random", &instance).unwrap();
        assert!(verify_ok(&instance, &via_overlay));
    }

    fn verify_ok(instance: &Instance, solution: &Solution) -> bool {
        crate::solution::verify(instance, solution).map(|r| r.is_feasible()).unwrap_or(false)
    }

    #[test]
    fn overlay_additions_append_after_the_base_order() {
        let mut overlay = SolverRegistry::global().overlay();
        struct Probe;
        impl Solver for Probe {
            fn name(&self) -> &'static str {
                "probe"
            }
            fn description(&self) -> &'static str {
                "test probe"
            }
            fn supports(&self, _: TopologyKind) -> bool {
                false
            }
            fn solve(&self, _: &Instance) -> Result<Solution, SolveError> {
                Err(SolveError::ZeroTasks)
            }
        }
        overlay.register(Probe);
        let names = overlay.names();
        assert_eq!(names.last(), Some(&"probe"));
        assert_eq!(names.len(), SolverRegistry::global().len() + 1);
        assert!(overlay.get("probe").is_some());
        assert!(SolverRegistry::global().get("probe").is_none(), "base stays immutable");
    }

    #[test]
    fn restriction_produces_flat_pinned_registries() {
        let restricted = SolverRegistry::global().restricted_to(&["exact", "optimal"]).unwrap();
        assert_eq!(restricted.names(), vec!["exact", "optimal"]);
        assert_eq!(restricted.depth(), 1);
        assert!(restricted.get("eager").is_none(), "unlisted solvers are invisible");
        let instance = Instance::new(Chain::paper_figure2(), 5);
        assert_eq!(restricted.solve("optimal", &instance).unwrap().makespan(), 14);
        assert!(matches!(
            SolverRegistry::global().restricted_to(&["nope"]),
            Err(SolveError::UnknownSolver { .. })
        ));
        // Repeated names collapse to their first occurrence — a typed
        // config error upstream, never a duplicate-registration panic.
        let deduped =
            SolverRegistry::global().restricted_to(&["exact", "optimal", "exact"]).unwrap();
        assert_eq!(deduped.names(), vec!["exact", "optimal"]);
    }

    #[test]
    fn empty_registries_report_emptiness_through_layers() {
        let empty = SolverRegistry::new();
        assert!(empty.is_empty());
        assert!(empty.overlay().is_empty());
        assert!(!SolverRegistry::global().overlay().is_empty());
    }

    #[test]
    fn registry_is_shareable_across_threads() {
        let registry = SolverRegistry::with_defaults();
        let instance = Instance::new(Chain::paper_figure2(), 5);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    assert_eq!(registry.solve("optimal", &instance).unwrap().makespan(), 14);
                });
            }
        });
    }
}
