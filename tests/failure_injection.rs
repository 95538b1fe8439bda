//! Failure injection: mutate feasible schedules and check that the two
//! independent validators (the pairwise Definition-1 oracle and the
//! reference simulator of `mst_verify::sim`) agree on every mutant.
//!
//! This is a test of the *testing machinery itself*: if the oracle and
//! the simulator ever disagree on a schedule's feasibility, one of them
//! misimplements the model and every optimality validation in the
//! workspace becomes suspect.

use master_slave_tasking::prelude::*;
use mst_core::schedule_chain;
use mst_schedule::schedule::ChainSchedule as CS;
use mst_schedule::{check_chain, CommVector, TaskAssignment};
use mst_verify::sim::{embed_chain, simulate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Whether the reference simulator accepts a chain schedule.
fn simulator_accepts(chain: &Chain, schedule: &CS) -> bool {
    simulate(&Tree::from_chain(chain), &embed_chain(schedule)).accepted()
}

/// Applies one random structural mutation to a schedule; returns `None`
/// when the mutation is a no-op (e.g. zero shift).
fn mutate(schedule: &CS, chain: &Chain, rng: &mut StdRng) -> Option<CS> {
    if schedule.is_empty() {
        return None;
    }
    let mut tasks: Vec<TaskAssignment> = schedule.tasks().to_vec();
    let victim = rng.gen_range(0..tasks.len());
    let t = &tasks[victim];
    match rng.gen_range(0..4) {
        // Shift one emission by a small delta.
        0 => {
            let link = rng.gen_range(1..=t.proc);
            let delta = *[-3i64, -2, -1, 1, 2, 3].get(rng.gen_range(0usize..6)).expect("index");
            let mut times = t.comms.times().to_vec();
            times[link - 1] += delta;
            tasks[victim] = TaskAssignment::new(t.proc, t.start, CommVector::new(times), t.work);
        }
        // Shift the execution start.
        1 => {
            let delta = *[-3i64, -2, -1, 1, 2, 3].get(rng.gen_range(0usize..6)).expect("index");
            tasks[victim] = TaskAssignment::new(t.proc, t.start + delta, t.comms.clone(), t.work);
        }
        // Truncate the route: run the task one hop earlier, keeping times.
        2 => {
            if t.proc < 2 {
                return None;
            }
            let new_proc = t.proc - 1;
            let times = t.comms.times()[..new_proc].to_vec();
            tasks[victim] =
                TaskAssignment::new(new_proc, t.start, CommVector::new(times), chain.w(new_proc));
        }
        // Duplicate a task verbatim (guaranteed resource conflicts).
        _ => {
            let clone = t.clone();
            tasks.push(clone);
        }
    }
    tasks.sort_by_key(|t| t.comms.first());
    Some(CS::new(tasks))
}

#[test]
fn oracle_and_replay_agree_on_mutants() {
    let mut rng = StdRng::seed_from_u64(2003);
    let mut checked = 0;
    let mut rejected = 0;
    for seed in 0..30u64 {
        let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
        let chain = g.chain(1 + (seed % 5) as usize);
        let n = 2 + (seed % 7) as usize;
        let base = schedule_chain(&chain, n);
        for _ in 0..40 {
            let Some(mutant) = mutate(&base, &chain, &mut rng) else { continue };
            let oracle_ok = check_chain(&chain, &mutant).is_feasible();
            let simulator_ok = simulator_accepts(&chain, &mutant);
            assert_eq!(
                oracle_ok, simulator_ok,
                "oracle and simulator disagree (seed {seed}):\n{mutant}"
            );
            checked += 1;
            if !oracle_ok {
                rejected += 1;
            }
        }
    }
    assert!(checked > 500, "mutation harness produced too few mutants ({checked})");
    // Small perturbations of tight optimal schedules are almost always
    // infeasible; if most mutants pass, the mutator is too gentle to
    // exercise the validators.
    assert!(rejected * 2 > checked, "only {rejected}/{checked} mutants were rejected");
}

#[test]
fn duplicated_tasks_are_always_caught() {
    for seed in 0..10u64 {
        let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
        let chain = g.chain(1 + (seed % 4) as usize);
        let base = schedule_chain(&chain, 3);
        let mut tasks = base.tasks().to_vec();
        tasks.push(tasks[0].clone());
        tasks.sort_by_key(|t| t.comms.first());
        let mutant = CS::new(tasks);
        assert!(!check_chain(&chain, &mutant).is_feasible(), "seed {seed}");
        assert!(!simulator_accepts(&chain, &mutant), "seed {seed}");
    }
}

#[test]
fn single_tick_tightening_breaks_optimal_schedules() {
    // Optimal schedules are tight: advancing the LAST task's execution by
    // one tick must always break something (otherwise the makespan could
    // improve, contradicting Theorem 1's validated optimality).
    for seed in 0..20u64 {
        let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
        let chain = g.chain(1 + (seed % 5) as usize);
        let n = 1 + (seed % 6) as usize;
        let base = schedule_chain(&chain, n);
        let last_end = base.makespan();
        let mut tasks = base.tasks().to_vec();
        // Find a task finishing at the makespan and pull it one tick in.
        let idx = tasks.iter().position(|t| t.end() == last_end).expect("some task ends last");
        let t = &tasks[idx];
        tasks[idx] = TaskAssignment::new(t.proc, t.start - 1, t.comms.clone(), t.work);
        let mutant = CS::new(tasks);
        // It may *occasionally* stay feasible (the last task had slack in
        // front of it only if the schedule could be compressed, which
        // optimality forbids when it is the unique argmax... it is not
        // always unique, so only assert agreement of the two validators).
        let oracle_ok = check_chain(&chain, &mutant).is_feasible();
        let simulator_ok = simulator_accepts(&chain, &mutant);
        assert_eq!(oracle_ok, simulator_ok, "seed {seed}");
    }
}
