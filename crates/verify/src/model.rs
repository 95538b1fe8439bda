//! The bounded model checker behind `mst check-model`.
//!
//! [`check_model`] enumerates **every** platform up to the configured
//! bounds — all chains, forks, spiders and trees with at most
//! `max_procs` processors, each processor taking every `(c, w)` pair
//! from the `1..=max_weight` grid — crossed with every task count up to
//! `max_tasks`, and runs the full [`crate::props`] property set on each
//! instance. Within its bounds the check is exhaustive: a property the
//! oracle or a solver violates on *any* platform this small is found,
//! not sampled.
//!
//! The default bounds (3 processors, 3 tasks, weights 1..=2) cover 796
//! platforms / 2388 instances and finish in seconds — small enough for
//! CI, large enough to contain every pipeline, port-sharing and
//! route-shape interaction the Definition-1 semantics allow.

use crate::props::{check_instance, Tally};
use mst_api::wire::Json;
use mst_api::{Instance, Platform, SolverRegistry};
use mst_platform::{Chain, Fork, Spider, Time, Tree};

/// Enumeration bounds for [`check_model`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelBounds {
    /// Largest processor count enumerated (per platform).
    pub max_procs: usize,
    /// Largest task budget enumerated (per instance).
    pub max_tasks: usize,
    /// Communication and work weights range over `1..=max_weight`.
    pub max_weight: Time,
}

impl Default for ModelBounds {
    fn default() -> Self {
        ModelBounds { max_procs: 3, max_tasks: 3, max_weight: 2 }
    }
}

/// The model checker's structured verdict.
#[derive(Debug, Clone)]
pub struct ModelReport {
    /// The bounds that were exhaustively covered.
    pub bounds: ModelBounds,
    /// Distinct platforms enumerated.
    pub platforms: usize,
    /// Instances checked (platforms × task counts).
    pub instances: usize,
    /// The gate's counts and violations over every instance (no
    /// violation means the gate holds).
    pub tally: Tally,
}

impl ModelReport {
    /// `true` iff no property was violated anywhere in the bounds.
    pub fn ok(&self) -> bool {
        self.tally.violations.is_empty()
    }

    /// The report as a JSON string (the CI artifact format).
    pub fn to_json(&self) -> String {
        let bounds = Json::obj([
            ("max_procs", Json::int(self.bounds.max_procs as i64)),
            ("max_tasks", Json::int(self.bounds.max_tasks as i64)),
            ("max_weight", Json::int(self.bounds.max_weight)),
        ]);
        self.tally.report_json(
            [
                ("command", Json::str("check-model")),
                ("bounds", bounds),
                ("platforms", Json::int(self.platforms as i64)),
                ("instances", Json::int(self.instances as i64)),
            ],
            [],
        )
    }
}

/// Every `(c, w)` assignment of length `p` over the weight grid,
/// enumerated as a counter in base `grid.len()`.
fn weight_assignments(p: usize, grid: &[(Time, Time)]) -> Vec<Vec<(Time, Time)>> {
    let mut out = Vec::new();
    let mut digits = vec![0usize; p];
    loop {
        out.push(digits.iter().map(|&d| grid[d]).collect());
        let mut i = 0;
        loop {
            if i == p {
                return out;
            }
            digits[i] += 1;
            if digits[i] < grid.len() {
                break;
            }
            digits[i] = 0;
            i += 1;
        }
    }
}

/// Every composition of `total` into at least `min_parts` positive parts.
fn compositions(total: usize, min_parts: usize) -> Vec<Vec<usize>> {
    fn rec(remaining: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if remaining == 0 {
            out.push(current.clone());
            return;
        }
        for part in 1..=remaining {
            current.push(part);
            rec(remaining - part, current, out);
            current.pop();
        }
    }
    let mut out = Vec::new();
    rec(total, &mut Vec::new(), &mut out);
    out.retain(|c| c.len() >= min_parts);
    out
}

/// Every parent vector of `p` nodes (node `i`'s parent ranges over
/// `0..i`), enumerated as a mixed-radix counter.
fn parent_vectors(p: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut parents = vec![0usize; p];
    loop {
        out.push(parents.clone());
        let mut i = 1;
        loop {
            if i >= p {
                return out;
            }
            parents[i] += 1;
            if parents[i] <= i {
                break;
            }
            parents[i] = 0;
            i += 1;
        }
    }
}

/// Exhaustively enumerates every platform within `bounds`.
pub fn enumerate_platforms(bounds: &ModelBounds) -> Vec<Platform> {
    let grid: Vec<(Time, Time)> = (1..=bounds.max_weight)
        .flat_map(|c| (1..=bounds.max_weight).map(move |w| (c, w)))
        .collect();
    let mut platforms = Vec::new();

    for p in 1..=bounds.max_procs {
        let assignments = weight_assignments(p, &grid);
        for weights in &assignments {
            platforms.push(Platform::Chain(Chain::from_pairs(weights).expect("positive weights")));
            platforms.push(Platform::Fork(Fork::from_pairs(weights).expect("positive weights")));
        }
        // Spiders with at least two legs (one leg is the chain above).
        for composition in compositions(p, 2) {
            for weights in &assignments {
                let mut legs: Vec<&[(Time, Time)]> = Vec::new();
                let mut offset = 0;
                for &len in &composition {
                    legs.push(&weights[offset..offset + len]);
                    offset += len;
                }
                platforms
                    .push(Platform::Spider(Spider::from_legs(&legs).expect("positive weights")));
            }
        }
        // Every rooted tree shape on p nodes, via parent vectors.
        for parents in parent_vectors(p) {
            for weights in &assignments {
                let triples: Vec<(usize, Time, Time)> =
                    parents.iter().zip(weights).map(|(&parent, &(c, w))| (parent, c, w)).collect();
                platforms
                    .push(Platform::Tree(Tree::from_triples(&triples).expect("parents precede")));
            }
        }
    }
    platforms
}

/// Runs the exhaustive bounded model check. Never panics on a property
/// violation — everything lands in the report.
pub fn check_model(registry: &SolverRegistry, bounds: &ModelBounds) -> ModelReport {
    let platforms = enumerate_platforms(bounds);
    let mut report = ModelReport {
        bounds: bounds.clone(),
        platforms: platforms.len(),
        instances: 0,
        tally: Tally::default(),
    };
    for platform in platforms {
        for tasks in 1..=bounds.max_tasks {
            report.instances += 1;
            report.tally.absorb(check_instance(registry, &Instance::new(platform.clone(), tasks)));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_is_exhaustive_at_tiny_bounds() {
        // max_procs 2, weights {1}: chains 1+1, forks 1+1, spiders one
        // ([1,1] composition), trees 1 + 2 shapes.
        let bounds = ModelBounds { max_procs: 2, max_tasks: 1, max_weight: 1 };
        let platforms = enumerate_platforms(&bounds);
        let count = |k: mst_api::TopologyKind| platforms.iter().filter(|p| p.kind() == k).count();
        assert_eq!(count(mst_api::TopologyKind::Chain), 2);
        assert_eq!(count(mst_api::TopologyKind::Fork), 2);
        assert_eq!(count(mst_api::TopologyKind::Spider), 1);
        assert_eq!(count(mst_api::TopologyKind::Tree), 3);
    }

    #[test]
    fn default_bounds_name_the_documented_enumeration() {
        let platforms = enumerate_platforms(&ModelBounds::default());
        assert_eq!(platforms.len(), 796, "update the module docs if the enumeration changes");
    }

    #[test]
    fn tiny_model_check_passes_and_serializes() {
        let registry = SolverRegistry::with_defaults();
        let bounds = ModelBounds { max_procs: 2, max_tasks: 2, max_weight: 1 };
        let report = check_model(&registry, &bounds);
        assert!(report.ok(), "{:?}", report.tally.violations);
        assert_eq!(report.instances, report.platforms * 2);
        assert!(report.tally.solves > 0);
        assert!(report.tally.mutations > 0);
        assert!(report.tally.duality_checks > 0);
        assert!(report.tally.monotonicity_checks > 0);
        assert!(report.tally.bnb_instances == report.instances);
        assert_eq!(
            report.to_json(),
            concat!(
                r#"{"command":"check-model","bounds":{"max_procs":2,"max_tasks":2,"max_weight":1},"#,
                r#""platforms":8,"instances":16,"solves":94,"mutations":959,"duality_checks":40,"#,
                r#""monotonicity_checks":40,"bnb_instances":16,"ok":true,"violations_total":0,"#,
                r#""violations":[]}"#,
            )
        );
    }

    #[test]
    fn compositions_and_parent_vectors_count_correctly() {
        assert_eq!(compositions(3, 2).len(), 3); // [1,2] [2,1] [1,1,1]
        assert_eq!(compositions(4, 2).len(), 7); // 2^(4-1) - 1
        assert_eq!(parent_vectors(3).len(), 6); // 1 * 2 * 3
    }
}
