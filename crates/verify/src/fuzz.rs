//! The differential fuzzer behind `mst fuzz`.
//!
//! [`run`] drives the [`crate::props`] property set with a seeded
//! stream of random instances (every topology family, every generator
//! profile) for a wall-clock budget, going where the bounded model
//! checker's exhaustive enumeration cannot: bigger platforms, deeper
//! routes, generator-shaped weight distributions.
//!
//! Any failing instance is **minimized before it is reported**: task
//! budget, processors, legs and leaves are deleted one at a time while
//! the same property keeps failing, so the report names the smallest
//! reproduction the shrinker could reach, not the random monster that
//! first tripped the gate. With `--corpus DIR`, minimized failures are
//! persisted as JSON and replayed at the start of the next run, turning
//! past counterexamples into a regression suite.

use crate::props::{check_instance, Tally};
use mst_api::wire::Json;
use mst_api::{Instance, Platform, SolverRegistry, TopologyKind};
use mst_platform::{Chain, Fork, HeterogeneityProfile, Spider, Time, Tree};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Configuration for one fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzConfig {
    /// RNG seed; the instance stream is a pure function of it.
    pub seed: u64,
    /// Wall-clock budget in minutes (fractions allowed).
    pub minutes: f64,
    /// Optional corpus directory: minimized failures are written here
    /// and earlier entries are replayed before fresh fuzzing starts.
    pub corpus: Option<PathBuf>,
}

/// The fuzzer's structured verdict.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The seed the run was driven by.
    pub seed: u64,
    /// The wall-clock budget that was configured.
    pub minutes: f64,
    /// Fresh random instances checked.
    pub iterations: usize,
    /// Corpus entries replayed before fuzzing.
    pub corpus_replayed: usize,
    /// The gate's counts over every instance checked, and the minimized
    /// property violations (none means the gate held).
    pub tally: Tally,
}

impl FuzzReport {
    /// `true` iff no property was violated.
    pub fn ok(&self) -> bool {
        self.tally.violations.is_empty()
    }

    /// The report as a JSON string (the CI artifact format).
    pub fn to_json(&self) -> String {
        self.tally.report_json(
            [
                ("command", Json::str("fuzz")),
                ("seed", Json::int(self.seed as i64)),
                ("minutes", Json::Num(self.minutes)),
                ("iterations", Json::int(self.iterations as i64)),
            ],
            [("corpus_replayed", Json::int(self.corpus_replayed as i64))],
        )
    }
}

/// xorshift64* — tiny, seedable, good enough to pick instance shapes.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// All single-step reductions of an instance: one task fewer, or one
/// processor / leg / leaf removed. Every candidate is strictly smaller,
/// so shrinking terminates.
fn reductions(instance: &Instance) -> Vec<Instance> {
    let mut out = Vec::new();
    if instance.tasks > 1 {
        out.push(Instance::new(instance.platform.clone(), instance.tasks - 1));
    }
    let again = |platform: Platform| Instance::new(platform, instance.tasks);
    match &instance.platform {
        Platform::Chain(chain) if chain.len() > 1 => {
            let pairs: Vec<(Time, Time)> =
                chain.processors().iter().map(|p| (p.comm, p.work)).collect();
            for k in 0..pairs.len() {
                let mut reduced = pairs.clone();
                reduced.remove(k);
                if let Ok(smaller) = Chain::from_pairs(&reduced) {
                    out.push(again(Platform::Chain(smaller)));
                }
            }
        }
        Platform::Fork(fork) if fork.len() > 1 => {
            let pairs: Vec<(Time, Time)> = fork.slaves().iter().map(|p| (p.comm, p.work)).collect();
            for k in 0..pairs.len() {
                let mut reduced = pairs.clone();
                reduced.remove(k);
                if let Ok(smaller) = Fork::from_pairs(&reduced) {
                    out.push(again(Platform::Fork(smaller)));
                }
            }
        }
        Platform::Spider(spider) => {
            let legs: Vec<Vec<(Time, Time)>> = spider
                .legs()
                .iter()
                .map(|leg| leg.processors().iter().map(|p| (p.comm, p.work)).collect())
                .collect();
            if legs.len() > 1 {
                for k in 0..legs.len() {
                    let mut reduced = legs.clone();
                    reduced.remove(k);
                    let refs: Vec<&[(Time, Time)]> = reduced.iter().map(Vec::as_slice).collect();
                    if let Ok(smaller) = Spider::from_legs(&refs) {
                        out.push(again(Platform::Spider(smaller)));
                    }
                }
            }
            for k in 0..legs.len() {
                if legs[k].len() > 1 {
                    let mut reduced = legs.clone();
                    reduced[k].pop();
                    let refs: Vec<&[(Time, Time)]> = reduced.iter().map(Vec::as_slice).collect();
                    if let Ok(smaller) = Spider::from_legs(&refs) {
                        out.push(again(Platform::Spider(smaller)));
                    }
                }
            }
        }
        Platform::Tree(tree) if tree.len() > 1 => {
            for leaf in tree.leaves() {
                let triples: Vec<(usize, Time, Time)> = tree
                    .nodes()
                    .iter()
                    .enumerate()
                    .filter(|(idx, _)| idx + 1 != leaf)
                    .map(|(_, node)| {
                        let parent = if node.parent > leaf { node.parent - 1 } else { node.parent };
                        (parent, node.comm, node.work)
                    })
                    .collect();
                if let Ok(smaller) = Tree::from_triples(&triples) {
                    out.push(again(Platform::Tree(smaller)));
                }
            }
        }
        _ => {}
    }
    out
}

/// Greedily shrinks `instance` while `property` keeps failing on it.
fn minimize(registry: &SolverRegistry, instance: &Instance, property: &str) -> Instance {
    let still_fails = |candidate: &Instance| {
        check_instance(registry, candidate).violations.iter().any(|v| v.property == property)
    };
    let mut current = instance.clone();
    loop {
        let Some(smaller) = reductions(&current).into_iter().find(|c| still_fails(c)) else {
            return current;
        };
        current = smaller;
    }
}

/// Folds an instance's tally into the report, minimizing each failed
/// property once.
fn record(
    registry: &SolverRegistry,
    instance: &Instance,
    mut tally: Tally,
    report: &mut FuzzReport,
    corpus: &Option<PathBuf>,
    written: &mut usize,
) {
    let violations = std::mem::take(&mut tally.violations);
    report.tally.absorb(tally);
    let mut seen: Vec<&'static str> = Vec::new();
    for violation in violations {
        if seen.contains(&violation.property) {
            continue;
        }
        seen.push(violation.property);
        let minimized = minimize(registry, instance, violation.property);
        let reported = check_instance(registry, &minimized)
            .violations
            .into_iter()
            .find(|v| v.property == violation.property)
            .unwrap_or(violation);
        if let Some(dir) = corpus {
            let body = Json::obj([
                ("platform", Json::str(reported.platform.clone())),
                ("tasks", Json::int(reported.tasks as i64)),
                ("property", Json::str(reported.property)),
                ("solver", Json::str(reported.solver.clone())),
                ("detail", Json::str(reported.detail.clone())),
            ])
            .to_string();
            *written += 1;
            let path = dir.join(format!("fuzz-{}-{:04}.json", report.seed, *written));
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(path, body);
        }
        report.tally.violations.push(reported);
    }
}

/// Replays every JSON corpus entry in `dir` through the property set.
fn replay_corpus(
    registry: &SolverRegistry,
    dir: &PathBuf,
    report: &mut FuzzReport,
    written: &mut usize,
) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let Ok(text) = std::fs::read_to_string(&path) else { continue };
        let Ok(json) = Json::parse(&text) else { continue };
        let (Some(platform), Some(tasks)) =
            (json.get("platform").and_then(Json::as_str), json.get("tasks").and_then(Json::as_i64))
        else {
            continue;
        };
        let Ok(instance) = Instance::parse(platform, tasks.max(1) as usize) else { continue };
        report.corpus_replayed += 1;
        // Replayed entries are already minimal; corpus rewriting is
        // suppressed by passing no corpus directory here.
        record(registry, &instance, check_instance(registry, &instance), report, &None, written);
    }
}

/// Runs the differential fuzzer for the configured budget.
pub fn run(registry: &SolverRegistry, config: &FuzzConfig) -> FuzzReport {
    let mut report = FuzzReport {
        seed: config.seed,
        minutes: config.minutes,
        iterations: 0,
        corpus_replayed: 0,
        tally: Tally::default(),
    };
    let mut written = 0usize;
    if let Some(dir) = &config.corpus {
        replay_corpus(registry, dir, &mut report, &mut written);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(config.minutes * 60.0);
    let mut rng = Rng::new(config.seed);
    while Instant::now() < deadline {
        let kind = TopologyKind::ALL[rng.below(TopologyKind::ALL.len() as u64) as usize];
        let profile =
            HeterogeneityProfile::ALL[rng.below(HeterogeneityProfile::ALL.len() as u64) as usize];
        let size = 1 + rng.below(5) as usize;
        let tasks = 1 + rng.below(5) as usize;
        let instance = Instance::generate(kind, profile, rng.next(), size, tasks);
        report.iterations += 1;
        let tally = check_instance(registry, &instance);
        record(registry, &instance, tally, &mut report, &config.corpus, &mut written);
        if report.tally.violations.len() >= 20 {
            break; // enough distinct failures to act on; stop burning time
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_budget_run_is_clean_and_serializes() {
        let registry = SolverRegistry::with_defaults();
        let report = run(&registry, &FuzzConfig { seed: 7, minutes: 0.0, corpus: None });
        assert!(report.ok());
        assert_eq!(report.iterations, 0);
        let json = report.to_json();
        assert!(json.contains("\"command\":\"fuzz\""));
        assert!(json.contains("\"seed\":7"));
    }

    #[test]
    fn a_report_with_a_violation_prints_pinned_bytes() {
        let report = FuzzReport {
            seed: 9,
            minutes: 0.5,
            iterations: 40,
            corpus_replayed: 2,
            tally: Tally {
                solves: 300,
                mutations: 1200,
                duality_checks: 150,
                monotonicity_checks: 148,
                bnb_instances: 12,
                violations: vec![crate::PropertyViolation {
                    property: "solver-below-exact",
                    solver: "eager".into(),
                    platform: "chain\n1 1\n".into(),
                    tasks: 2,
                    detail: "makespan 3 below exact 4".into(),
                }],
            },
        };
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"command":"fuzz","seed":9,"minutes":0.5,"iterations":40,"solves":300,"#,
                r#""mutations":1200,"duality_checks":150,"monotonicity_checks":148,"#,
                r#""bnb_instances":12,"corpus_replayed":2,"ok":false,"violations_total":1,"#,
                r#""violations":[{"property":"solver-below-exact","solver":"eager","#,
                r#""platform":"chain\n1 1\n","tasks":2,"detail":"makespan 3 below exact 4"}]}"#,
            )
        );
    }

    #[test]
    fn short_run_finds_no_violations() {
        let registry = SolverRegistry::with_defaults();
        let report = run(&registry, &FuzzConfig { seed: 42, minutes: 0.02, corpus: None });
        assert!(report.ok(), "{:?}", report.tally.violations);
        assert!(report.iterations > 0);
        assert!(report.tally.solves > 0);
        assert!(report.tally.duality_checks > 0);
        assert!(report.tally.monotonicity_checks > 0);
    }

    #[test]
    fn reductions_shrink_every_topology() {
        let chain = Instance::new(Chain::from_pairs(&[(1, 1), (2, 2)]).unwrap(), 2);
        assert_eq!(reductions(&chain).len(), 3); // fewer tasks + drop either proc
        let spider = Instance::new(Spider::from_legs(&[&[(1, 1), (1, 2)], &[(2, 2)]]).unwrap(), 1);
        // drop either leg + shorten the long leg (tasks already 1)
        assert_eq!(reductions(&spider).len(), 3);
        let tree =
            Instance::new(Tree::from_triples(&[(0, 1, 1), (1, 1, 1), (1, 2, 2)]).unwrap(), 1);
        assert_eq!(reductions(&tree).len(), 2); // two leaves removable
        for candidate in reductions(&tree) {
            assert_eq!(candidate.platform.num_processors(), 2);
        }
        let single = Instance::new(Chain::from_pairs(&[(1, 1)]).unwrap(), 1);
        assert!(reductions(&single).is_empty());
    }

    #[test]
    fn minimize_reaches_a_fixed_point() {
        // No property fails on healthy instances, so minimize() must
        // return the input unchanged (nothing smaller fails either).
        let registry = SolverRegistry::with_defaults();
        let instance = Instance::new(Chain::paper_figure2(), 3);
        let kept = minimize(&registry, &instance, "oracle-sim-disagreement");
        assert_eq!(kept, instance);
    }

    #[test]
    fn corpus_round_trips_instances() {
        let registry = SolverRegistry::with_defaults();
        let dir = std::env::temp_dir().join(format!("mst-fuzz-corpus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("entry.json"),
            r#"{"platform":"chain\n2 3\n3 5\n","tasks":2,"property":"x","solver":"y","detail":""}"#,
        )
        .unwrap();
        let report =
            run(&registry, &FuzzConfig { seed: 1, minutes: 0.0, corpus: Some(dir.clone()) });
        assert_eq!(report.corpus_replayed, 1);
        assert!(report.ok(), "{:?}", report.tally.violations);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
