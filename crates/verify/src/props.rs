//! The gate properties, shared by the model checker and the fuzzer.
//!
//! [`check_instance`] runs every property the gate asserts against one
//! instance and returns structured violations instead of panicking:
//!
//! * **solve-total** — every registry solver supporting the topology
//!   returns a solution (no errors, no panics reach the caller);
//! * **solver-below-exact** — no solver beats the exact
//!   branch-and-bound makespan (soundness of the search space);
//! * **optimal-not-exact** — the provably optimal algorithms (chain,
//!   fork, spider; Theorems 1 and 3) match branch-and-bound exactly;
//! * **deadline-duality** — every solver with a deadline variant
//!   (`by_deadline()`: `optimal`, `chain-optimal`, `fork-optimal`,
//!   `spider-optimal`, `tree-cover`) is dual to its makespan variant: if
//!   the makespan variant reaches `M` for `n` tasks, the deadline variant
//!   fits all `n` by `M`, finishing by `M`, and fewer than `n` by `M - 1`.
//!   For the optimal solvers this is Theorem 3's monotone task count; the
//!   tree heuristic owes it too, since both of its variants scan the same
//!   strategy covers. It holds at every size, so it extends the
//!   optimality evidence past the branch-and-bound bounds, where a
//!   deadline search that starts too high would otherwise go unseen;
//! * **monotonicity** — for the same solvers, one more task never
//!   finishes earlier (`M(n+1) >= M(n)`), and the deadline variant's
//!   task count does not fall as the deadline grows over
//!   `T = M-2 ..= M+1`, around the makespan where a search decides;
//! * **verify-total / oracle-rejects-witness / makespan-mismatch** —
//!   `verify()` accepts every produced witness and recomputes its
//!   claimed makespan;
//! * **oracle-sim-disagreement / check-sim-disagreement** — the
//!   Definition-1 oracle (`check_tree`, and natively `check_chain` /
//!   `check_spider`) returns the same verdict as the reference
//!   simulator on the produced witness *and* on every mutation of it
//!   (accept/accept and reject/reject both count);
//! * **canon-roundtrip** — solving the canonical form and restoring the
//!   witness yields a feasible schedule; where the default solver is
//!   provably optimal (chains, forks, spiders) the restored makespan
//!   must equal the direct solve's (trees run a label-sensitive cover
//!   heuristic, so only feasibility is owed there — a distinction the
//!   model checker itself surfaced at 3-processor bounds).

use crate::sim::{embed_chain, embed_spider, simulate, tree_witness};
use mst_api::wire::Json;
use mst_api::{verify, CanonicalInstance, Instance, ScheduleRepr, SolverRegistry, TopologyKind};
use mst_platform::{Time, Tree};
use mst_schedule::{check_chain, check_spider, check_tree, mutate};

/// Branch-and-bound comparisons are gated to instances this small (the
/// search is exponential in the task count).
pub const BNB_MAX_PROCS: usize = 4;
/// Task-count cap for branch-and-bound comparisons.
pub const BNB_MAX_TASKS: usize = 5;

/// One violated gate property, with everything needed to reproduce it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyViolation {
    /// Stable property name (see the module docs).
    pub property: &'static str,
    /// The solver involved (empty when the property is solver-free).
    pub solver: String,
    /// The platform in the instance text format (`Platform::parse`able).
    pub platform: String,
    /// The instance's task budget.
    pub tasks: usize,
    /// Human-readable specifics.
    pub detail: String,
}

impl PropertyViolation {
    /// The violation as a JSON object for reports.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("property", Json::str(self.property)),
            ("solver", Json::str(self.solver.clone())),
            ("platform", Json::str(self.platform.clone())),
            ("tasks", Json::int(self.tasks as i64)),
            ("detail", Json::str(self.detail.clone())),
        ])
    }
}

/// The gate's counts and findings: what [`check_instance`] ran on one
/// instance, and, folded with [`Tally::absorb`], on a whole model check
/// or fuzz run. Both reports embed one.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Solver invocations that returned a solution.
    pub solves: usize,
    /// Mutated schedules cross-checked oracle-vs-simulator.
    pub mutations: usize,
    /// Deadline-duality checks run (one per solver with a deadline
    /// variant).
    pub duality_checks: usize,
    /// Monotonicity checks run (one per solver with a deadline
    /// variant).
    pub monotonicity_checks: usize,
    /// Instances where the exact branch-and-bound ground truth was
    /// applied: 0 or 1 for one instance.
    pub bnb_instances: usize,
    /// Every property violation found.
    pub violations: Vec<PropertyViolation>,
}

impl Tally {
    /// Folds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.solves += other.solves;
        self.mutations += other.mutations;
        self.duality_checks += other.duality_checks;
        self.monotonicity_checks += other.monotonicity_checks;
        self.bnb_instances += other.bnb_instances;
        self.violations.extend(other.violations);
    }

    /// A gate report as JSON text: the report's `head` members, the
    /// tally's counts, the report's `tail` members, then the verdict
    /// (`ok`, `violations_total` and the first 50 violations).
    pub(crate) fn report_json(
        &self,
        head: impl IntoIterator<Item = (&'static str, Json)>,
        tail: impl IntoIterator<Item = (&'static str, Json)>,
    ) -> String {
        let count = |n: usize| Json::int(n as i64);
        let counts = [
            ("solves", count(self.solves)),
            ("mutations", count(self.mutations)),
            ("duality_checks", count(self.duality_checks)),
            ("monotonicity_checks", count(self.monotonicity_checks)),
            ("bnb_instances", count(self.bnb_instances)),
        ];
        let listed = self.violations.iter().take(50).map(PropertyViolation::to_json).collect();
        let verdict = [
            ("ok", Json::Bool(self.violations.is_empty())),
            ("violations_total", count(self.violations.len())),
            ("violations", Json::Arr(listed)),
        ];
        Json::obj(head.into_iter().chain(counts).chain(tail).chain(verdict)).to_string()
    }
}

/// Whether `solver` is proven optimal on `kind` (so its makespan must
/// *equal* branch-and-bound, not merely bound it from above).
fn proven_optimal(kind: TopologyKind, solver: &str) -> bool {
    match kind {
        TopologyKind::Chain => {
            matches!(solver, "optimal" | "chain-optimal" | "spider-optimal")
        }
        TopologyKind::Fork => matches!(solver, "optimal" | "fork-optimal" | "spider-optimal"),
        TopologyKind::Spider => matches!(solver, "optimal" | "spider-optimal"),
        TopologyKind::Tree => false,
    }
}

/// The deadline-duality property for `solver`, whose makespan variant
/// reached `makespan` on `instance`: `None` when it holds, otherwise
/// what broke.
fn deadline_duality(
    registry: &SolverRegistry,
    solver: &str,
    instance: &Instance,
    makespan: Time,
) -> Option<String> {
    let n = instance.tasks;
    match registry.solve_by_deadline(solver, instance, makespan) {
        Ok(at) if at.n() == n && at.makespan() <= makespan => {}
        Ok(at) => {
            return Some(format!(
                "by its makespan {makespan} the deadline variant fits {} of {n} task(s), \
                 finishing at {}",
                at.n(),
                at.makespan()
            ))
        }
        Err(e) => return Some(format!("deadline {makespan} errored: {e}")),
    }
    match registry.solve_by_deadline(solver, instance, makespan - 1) {
        Ok(below) if below.n() < n => None,
        Ok(below) => Some(format!(
            "makespan {makespan}, yet the deadline variant fits all {n} task(s) by {}, \
             finishing at {}",
            makespan - 1,
            below.makespan()
        )),
        Err(e) => Some(format!("deadline {} errored: {e}", makespan - 1)),
    }
}

/// The monotonicity property for `solver`, whose makespan variant
/// reached `makespan` on `instance`: `None` when it holds, otherwise
/// what broke.
fn monotonicity(
    registry: &SolverRegistry,
    solver: &str,
    instance: &Instance,
    makespan: Time,
) -> Option<String> {
    let n = instance.tasks;
    match registry.solve(solver, &Instance::new(instance.platform.clone(), n + 1)) {
        Ok(more) if more.makespan() >= makespan => {}
        Ok(more) => {
            return Some(format!(
                "{} task(s) finish at {}, before the makespan {makespan} of {n}",
                n + 1,
                more.makespan()
            ))
        }
        Err(e) => return Some(format!("{} task(s) errored: {e}", n + 1)),
    }
    let mut fitted: Option<(Time, usize)> = None;
    for deadline in makespan - 2..=makespan + 1 {
        let count = match registry.solve_by_deadline(solver, instance, deadline) {
            Ok(at) => at.n(),
            Err(e) => return Some(format!("deadline {deadline} errored: {e}")),
        };
        if let Some((before, more)) = fitted.filter(|&(_, fit)| count < fit) {
            return Some(format!(
                "the deadline variant fits {more} task(s) by {before} but {count} by {deadline}"
            ));
        }
        fitted = Some((deadline, count));
    }
    None
}

/// Runs every gate property against one instance.
pub fn check_instance(registry: &SolverRegistry, instance: &Instance) -> Tally {
    let mut out = Tally::default();
    let kind = instance.kind();
    let platform_text = instance.platform.to_text();
    let fail = |out: &mut Tally, property: &'static str, solver: &str, detail: String| {
        out.violations.push(PropertyViolation {
            property,
            solver: solver.to_string(),
            platform: platform_text.clone(),
            tasks: instance.tasks,
            detail,
        });
    };

    // Ground truth, where the search is affordable.
    let small = instance.platform.num_processors() <= BNB_MAX_PROCS
        && instance.tasks <= BNB_MAX_TASKS
        && registry.get("exact").is_some();
    let exact_makespan = if small {
        match registry.solve("exact", instance) {
            Ok(sol) => {
                out.bnb_instances = 1;
                Some(sol.makespan())
            }
            Err(e) => {
                fail(&mut out, "solve-total", "exact", format!("exact solver failed: {e}"));
                None
            }
        }
    } else {
        None
    };

    let names: Vec<(&'static str, bool)> =
        registry.supporting(kind).iter().map(|s| (s.name(), s.by_deadline())).collect();
    for (name, by_deadline) in names {
        let sol = match registry.solve(name, instance) {
            Ok(sol) => sol,
            Err(e) => {
                fail(&mut out, "solve-total", name, format!("solver error: {e}"));
                continue;
            }
        };
        out.solves += 1;

        if let Some(exact) = exact_makespan {
            // The divisible relaxation is a fluid lower bound, exempt by
            // construction; everything else must sit at or above exact.
            if name != "divisible" && sol.makespan() < exact {
                fail(
                    &mut out,
                    "solver-below-exact",
                    name,
                    format!("makespan {} below exact {exact}", sol.makespan()),
                );
            }
            if proven_optimal(kind, name) && sol.makespan() != exact {
                fail(
                    &mut out,
                    "optimal-not-exact",
                    name,
                    format!("claims optimality but got {} vs exact {exact}", sol.makespan()),
                );
            }
        }

        if by_deadline {
            out.duality_checks += 1;
            if let Some(detail) = deadline_duality(registry, name, instance, sol.makespan()) {
                fail(&mut out, "deadline-duality", name, detail);
            }
            out.monotonicity_checks += 1;
            if let Some(detail) = monotonicity(registry, name, instance, sol.makespan()) {
                fail(&mut out, "monotonicity", name, detail);
            }
        }

        let report = match verify(instance, &sol) {
            Ok(report) => report,
            Err(e) => {
                fail(&mut out, "verify-total", name, format!("verify() errored: {e}"));
                continue;
            }
        };
        if !report.is_feasible() {
            let first = report.violations.first().map(|v| v.to_string()).unwrap_or_default();
            fail(&mut out, "oracle-rejects-witness", name, first);
        }
        if sol.is_witnessed() && report.makespan != sol.makespan() {
            fail(
                &mut out,
                "makespan-mismatch",
                name,
                format!("claimed {} but oracle recomputed {}", sol.makespan(), report.makespan),
            );
        }

        let Some((tree, ts)) = tree_witness(&instance.platform, &sol) else { continue };

        // The tree oracle, the native oracle and the simulator must all
        // agree on the untouched witness...
        let tree_verdict = check_tree(&tree, &ts);
        if tree_verdict.is_feasible() != report.is_feasible() {
            fail(
                &mut out,
                "oracle-sim-disagreement",
                name,
                format!(
                    "check_tree on the embedded witness says feasible={}, verify() says {}",
                    tree_verdict.is_feasible(),
                    report.is_feasible()
                ),
            );
        }
        let sim_verdict = simulate(&tree, &ts);
        if sim_verdict.accepted() != tree_verdict.is_feasible() {
            fail(
                &mut out,
                "oracle-sim-disagreement",
                name,
                format!(
                    "witness: oracle feasible={}, simulator accepted={}",
                    tree_verdict.is_feasible(),
                    sim_verdict.accepted()
                ),
            );
        } else if sim_verdict.accepted() && sim_verdict.makespan != tree_verdict.makespan {
            fail(
                &mut out,
                "oracle-sim-disagreement",
                name,
                format!(
                    "accepted with different makespans: oracle {}, simulator {}",
                    tree_verdict.makespan, sim_verdict.makespan
                ),
            );
        }

        // ...and on every mutation of it, whichever way the verdict goes.
        for m in mutate::catalog(ts.n()) {
            let Some(mutated) = mutate::tree(&ts, m) else { continue };
            out.mutations += 1;
            let oracle = check_tree(&tree, &mutated).is_feasible();
            let sim = simulate(&tree, &mutated).accepted();
            if oracle != sim {
                fail(
                    &mut out,
                    "oracle-sim-disagreement",
                    name,
                    format!(
                        "{} mutation: check_tree feasible={oracle}, simulator accepted={sim}",
                        m.name()
                    ),
                );
            }
        }

        // Native chain/spider checkers against the simulator, mutated in
        // the native representation so `check` itself is on trial.
        match sol.schedule() {
            Some(ScheduleRepr::Chain(cs)) => {
                if let Some(chain) = instance.platform.as_chain() {
                    let chain_tree = Tree::from_chain(chain);
                    for m in mutate::catalog(cs.n()) {
                        let Some(mutated) = mutate::chain(cs, m) else { continue };
                        out.mutations += 1;
                        let oracle = check_chain(chain, &mutated).is_feasible();
                        let sim = simulate(&chain_tree, &embed_chain(&mutated)).accepted();
                        if oracle != sim {
                            fail(
                                &mut out,
                                "check-sim-disagreement",
                                name,
                                format!(
                                    "{} mutation: check_chain feasible={oracle}, \
                                     simulator accepted={sim}",
                                    m.name()
                                ),
                            );
                        }
                    }
                }
            }
            Some(ScheduleRepr::Spider(ss)) => {
                let spider = sol.sub_platform().cloned().or_else(|| instance.platform.to_spider());
                if let Some(spider) = spider {
                    let spider_tree = Tree::from_spider(&spider);
                    for m in mutate::catalog(ss.n()) {
                        let Some(mutated) = mutate::spider(ss, m) else { continue };
                        out.mutations += 1;
                        let oracle = check_spider(&spider, &mutated).is_feasible();
                        let sim =
                            simulate(&spider_tree, &embed_spider(&spider, &mutated)).accepted();
                        if oracle != sim {
                            fail(
                                &mut out,
                                "check-sim-disagreement",
                                name,
                                format!(
                                    "{} mutation: check_spider feasible={oracle}, \
                                     simulator accepted={sim}",
                                    m.name()
                                ),
                            );
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // Canonical-form round-trip through the default solver.
    if registry.get("optimal").is_some() {
        let canon = CanonicalInstance::of(instance, "optimal", None);
        if let (Ok(orig), Ok(canonical)) =
            (registry.solve("optimal", instance), registry.solve("optimal", canon.instance()))
        {
            let restored = canon.restore(&canonical);
            match verify(instance, &restored) {
                Ok(report) if report.is_feasible() => {
                    // Makespan equality is only promised where "optimal"
                    // is provably optimal: an optimum is invariant under
                    // the canonicalization's label permutation, but the
                    // tree cover heuristic is label-sensitive, so there
                    // only feasibility of the restored witness is owed.
                    let kind = instance.platform.kind();
                    if proven_optimal(kind, "optimal") && restored.makespan() != orig.makespan() {
                        fail(
                            &mut out,
                            "canon-roundtrip",
                            "optimal",
                            format!(
                                "restored makespan {} differs from direct {}",
                                restored.makespan(),
                                orig.makespan()
                            ),
                        );
                    }
                }
                Ok(report) => {
                    let first =
                        report.violations.first().map(|v| v.to_string()).unwrap_or_default();
                    fail(
                        &mut out,
                        "canon-roundtrip",
                        "optimal",
                        format!("restored witness infeasible: {first}"),
                    );
                }
                Err(e) => {
                    fail(
                        &mut out,
                        "canon-roundtrip",
                        "optimal",
                        format!("verify() of restored witness errored: {e}"),
                    );
                }
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_platform::{Chain, Spider};

    #[test]
    fn clean_instances_have_no_violations() {
        let registry = SolverRegistry::with_defaults();
        for instance in [
            Instance::new(Chain::paper_figure2(), 4),
            Instance::new(Spider::from_legs(&[&[(2, 3)], &[(1, 1), (2, 2)]]).unwrap(), 3),
            Instance::new(Tree::from_triples(&[(0, 1, 2), (1, 2, 3), (1, 1, 1)]).unwrap(), 3),
        ] {
            let out = check_instance(&registry, &instance);
            assert!(out.violations.is_empty(), "{instance}: {:?}", out.violations);
            assert!(out.solves > 0);
            assert!(out.mutations > 0);
            assert!(out.duality_checks > 0);
            assert_eq!(out.monotonicity_checks, out.duality_checks);
            assert_eq!(out.bnb_instances, 1);
        }
    }

    #[test]
    fn a_deadline_variant_that_ignores_the_deadline_breaks_duality() {
        use mst_api::{Solution, SolveError, Solver};
        /// `optimal`, except that its deadline variant schedules every
        /// task whatever the deadline.
        struct IgnoresDeadline;
        impl Solver for IgnoresDeadline {
            fn name(&self) -> &'static str {
                "ignores-deadline"
            }
            fn description(&self) -> &'static str {
                "optimal, deadline ignored"
            }
            fn supports(&self, _: TopologyKind) -> bool {
                true
            }
            fn by_deadline(&self) -> bool {
                true
            }
            fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
                SolverRegistry::global().solve("optimal", instance)
            }
            fn solve_by_deadline(
                &self,
                instance: &Instance,
                _: Time,
            ) -> Result<Solution, SolveError> {
                self.solve(instance)
            }
        }
        let mut registry = SolverRegistry::global().overlay();
        registry.register(IgnoresDeadline);
        let instance =
            Instance::new(Spider::from_legs(&[&[(2, 3)], &[(1, 1), (2, 2)]]).unwrap(), 3);
        let out = check_instance(&registry, &instance);
        let broken: Vec<&str> = out
            .violations
            .iter()
            .filter(|v| v.property == "deadline-duality")
            .map(|v| v.solver.as_str())
            .collect();
        assert_eq!(broken, ["ignores-deadline"], "{:?}", out.violations);
    }

    #[test]
    fn a_deadline_variant_that_fits_fewer_by_a_later_deadline_breaks_monotonicity() {
        use mst_api::{Solution, SolveError, Solver};
        /// `optimal`, except that its deadline variant fits nothing by a
        /// deadline past the optimal makespan.
        struct GivesUpLate;
        impl Solver for GivesUpLate {
            fn name(&self) -> &'static str {
                "gives-up-late"
            }
            fn description(&self) -> &'static str {
                "optimal, nothing fits past the makespan"
            }
            fn supports(&self, _: TopologyKind) -> bool {
                true
            }
            fn by_deadline(&self) -> bool {
                true
            }
            fn solve(&self, instance: &Instance) -> Result<Solution, SolveError> {
                SolverRegistry::global().solve("optimal", instance)
            }
            fn solve_by_deadline(
                &self,
                instance: &Instance,
                deadline: Time,
            ) -> Result<Solution, SolveError> {
                let late = deadline > self.solve(instance)?.makespan();
                SolverRegistry::global().solve_by_deadline(
                    "optimal",
                    instance,
                    if late { 0 } else { deadline },
                )
            }
        }
        let mut registry = SolverRegistry::global().overlay();
        registry.register(GivesUpLate);
        let instance =
            Instance::new(Spider::from_legs(&[&[(2, 3)], &[(1, 1), (2, 2)]]).unwrap(), 3);
        let out = check_instance(&registry, &instance);
        let broken: Vec<(&str, &str)> =
            out.violations.iter().map(|v| (v.property, v.solver.as_str())).collect();
        assert_eq!(broken, [("monotonicity", "gives-up-late")], "{:?}", out.violations);
        assert!(out.violations[0].detail.contains("but 0 by"), "{:?}", out.violations);
    }

    #[test]
    fn violations_serialize_with_property_names() {
        let v = PropertyViolation {
            property: "solver-below-exact",
            solver: "eager".into(),
            platform: "chain\n1 1\n".into(),
            tasks: 2,
            detail: "makespan 3 below exact 4".into(),
        };
        let json = v.to_json().to_string();
        assert!(json.contains("\"solver-below-exact\""));
        assert!(json.contains("\"tasks\":2"));
    }
}
