//! Quickstart: schedule the paper's worked example through the unified
//! API and inspect it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use master_slave_tasking::prelude::*;
use mst_verify::sim::simulate_solution;

fn main() {
    // The chain of the paper's Figure 2: the master feeds processor 1
    // (c_1 = 2, w_1 = 3) which feeds processor 2 (c_2 = 3, w_2 = 5).
    // One registry serves every topology and algorithm in the workspace.
    let registry = SolverRegistry::with_defaults();
    let instance = Instance::new(Chain::paper_figure2(), 5);
    println!("instance: {instance}");

    // Optimal schedule for five tasks (Theorem 1), one solve() call.
    let solution = registry.solve("optimal", &instance).expect("figure-2 solves");
    println!("\n{solution}");
    println!("{}", solution.gantt(&instance.platform).expect("witnessed"));
    println!("makespan: {} ticks (the paper's Figure 2 shows 14)", solution.makespan());

    // Independently verify the four feasibility properties of
    // Definition 1 through the unified oracle ...
    assert!(verify(&instance, &solution).expect("checkable").is_feasible());
    println!("feasibility oracle: all four Definition-1 properties hold");

    // ... and replay it in the independent reference simulator, which
    // walks every task's route and sweeps every port and processor.
    let verdict = simulate_solution(&instance, &solution).expect("witnessed");
    assert!(verdict.accepted(), "schedule must replay: {:?}", verdict.rejections);
    assert_eq!(verdict.makespan, solution.makespan());
    println!(
        "reference simulator: {} tasks replayed, finished at t = {}",
        verdict.tasks, verdict.makespan
    );

    // Utilization summary through the unified solution type.
    let per_proc = solution.tasks_per_processor(&instance.platform).expect("witnessed");
    for (k, count) in per_proc.iter().enumerate() {
        println!("processor {}: {count} task(s)", k + 1);
    }
    println!("throughput: {:.3} task/tick", solution.throughput());

    // The same instance through other registered solvers.
    for name in ["eager", "round-robin", "exact"] {
        let s = registry.solve(name, &instance).expect("chain solvers");
        println!("{name:>12}: makespan {}", s.makespan());
    }

    // The deadline variant (Section 7): how many tasks fit in 10 ticks?
    let by_10 = registry
        .solve_by_deadline("optimal", &Instance::new(Chain::paper_figure2(), 100), 10)
        .expect("deadline solve");
    println!("\nwithin a 10-tick deadline, {} tasks fit", by_10.n());
}
