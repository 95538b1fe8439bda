//! The backward greedy construction (Section 3 of the paper).

use crate::state::BackwardState;
use mst_platform::{Chain, Time};
use mst_schedule::{ChainSchedule, CommVector, TaskAssignment};

/// One backward step: the chosen placement for the task, plus every
/// candidate vector considered (index `k - 1` holds the candidate for
/// processor `k`). Exposed for the Lemma-1 structural checks, for the
/// figure-generation binaries, and as the reference the front step is
/// tested against.
#[derive(Debug, Clone)]
pub struct Step {
    /// Candidate communication vectors, one per processor.
    pub candidates: Vec<CommVector>,
    /// The selected (greatest) candidate.
    pub chosen: CommVector,
    /// The execution start `T(i) = o_{P(i)} - w_{P(i)}` implied by the
    /// selection.
    pub start: Time,
}

/// The backward greedy scheduler, stepping one task at a time from the
/// anchor towards time zero.
///
/// Most callers want the [`schedule_chain`] / [`schedule_chain_by_deadline`]
/// wrappers; the stepper is public so tests and experiments can observe
/// the intermediate hull/occupancy state and the candidate vectors.
#[derive(Debug, Clone)]
pub struct BackwardScheduler<'a> {
    chain: &'a Chain,
    state: BackwardState,
}

impl<'a> BackwardScheduler<'a> {
    /// A scheduler for `chain` anchored at `horizon` (`T_infinity` or
    /// `T_lim`).
    pub fn new(chain: &'a Chain, horizon: Time) -> Self {
        BackwardScheduler { chain, state: BackwardState::new(chain.len(), horizon) }
    }

    /// Read-only view of the hull/occupancy state.
    pub fn state(&self) -> &BackwardState {
        &self.state
    }

    /// The candidate communication vector `kC(i)` for placing the next
    /// task on processor `k` (paper, Section 3):
    ///
    /// ```text
    /// kC_k = min(o_k - w_k - c_k,  h_k - c_k)
    /// kC_j = min(kC_{j+1} - c_j,   h_j - c_j)      for j = k-1 .. 1
    /// ```
    ///
    /// The first term lets the execution finish exactly when processor
    /// `k` is next busy; the second keeps link `j` free of the already
    /// reserved (later) communications.
    pub fn candidate(&self, k: usize) -> CommVector {
        let chain = self.chain;
        CommVector::from_fill(k, |v| {
            v[k - 1] = (self.state.occupancy(k) - chain.w(k) - chain.c(k))
                .min(self.state.hull(k) - chain.c(k));
            for j in (1..k).rev() {
                v[j - 1] = (v[j] - chain.c(j)).min(self.state.hull(j) - chain.c(j));
            }
        })
    }

    /// Performs one backward step: evaluates all `p` candidates, commits
    /// the greatest (Definition-3 order) and returns the decision.
    ///
    /// The candidates all have distinct lengths, so the maximum is unique
    /// — "there is only one as their length differ" (Section 3).
    ///
    /// This is the paper's step, `O(p^2)` per task. The schedulers take
    /// [`BackwardScheduler::front_step`], which commits the same
    /// candidate; this one serves the Lemma-1 check, which needs every
    /// candidate, and is the front step's reference in tests.
    pub fn step(&mut self) -> Step {
        let p = self.chain.len();
        let mut candidates = Vec::with_capacity(p);
        for k in 1..=p {
            candidates.push(self.candidate(k));
        }
        // The paper scans k = p downto 1 replacing the incumbent whenever
        // it is strictly inferior; that is exactly "pick the maximum".
        let chosen = candidates.iter().max().expect("p >= 1").clone();
        let proc = chosen.len();
        let start = self.state.occupancy(proc) - self.chain.w(proc);
        self.state.commit(&chosen, start);
        Step { candidates, chosen, start }
    }

    /// The greatest candidate (Definition-3 order), found from the
    /// candidates' first components: the step [`BackwardScheduler::step`]
    /// takes, without building all `p` vectors.
    ///
    /// Unrolling the candidate recurrence with prefix sums
    /// `S_k = c_1 + ... + c_k` gives each candidate's first emission in
    /// closed form,
    ///
    /// ```text
    /// kC_1 = min( min_{m < k} (h_m - S_m),  A_k - S_k ),   A_k = min(o_k - w_k, h_k)
    /// ```
    ///
    /// so one `O(p)` sweep with a running prefix minimum finds the
    /// largest first component (the *front*). Definition 3 compares
    /// first components first, so only the candidates tied on the front
    /// are built and compared in full. Ties are rare on heterogeneous
    /// chains, which makes the step `O(p)` in practice; the worst case
    /// (a homogeneous chain) stays `O(p^2)`.
    fn best_candidate(&self) -> CommVector {
        let (chain, state) = (self.chain, &self.state);
        let front = |k: usize, running_min: Time, prefix: Time| {
            let a_k = (state.occupancy(k) - chain.w(k)).min(state.hull(k));
            running_min.min(a_k - prefix)
        };
        let mut best_front = Time::MIN;
        let (mut running_min, mut prefix) = (Time::MAX, 0);
        for k in 1..=chain.len() {
            prefix += chain.c(k);
            best_front = best_front.max(front(k, running_min, prefix));
            running_min = running_min.min(state.hull(k) - prefix);
        }
        let mut chosen: Option<CommVector> = None;
        let (mut running_min, mut prefix) = (Time::MAX, 0);
        for k in 1..=chain.len() {
            prefix += chain.c(k);
            if front(k, running_min, prefix) == best_front {
                let candidate = self.candidate(k);
                debug_assert_eq!(candidate.first(), best_front);
                if chosen.as_ref().is_none_or(|best| candidate > *best) {
                    chosen = Some(candidate);
                }
            }
            running_min = running_min.min(state.hull(k) - prefix);
        }
        chosen.expect("at least one candidate attains the front")
    }

    /// Commits `chosen` and returns it with the execution start it
    /// implies.
    fn commit(&mut self, chosen: CommVector) -> (CommVector, Time) {
        let proc = chosen.len();
        let start = self.state.occupancy(proc) - self.chain.w(proc);
        self.state.commit(&chosen, start);
        (chosen, start)
    }

    /// One backward step through the candidate front: commits the
    /// greatest candidate, the one [`BackwardScheduler::step`] picks,
    /// and returns it with its execution start.
    ///
    /// Every run takes it: [`schedule_chain`],
    /// [`schedule_chain_by_deadline`] (through
    /// [`BackwardScheduler::step_if_feasible`]), and the spider
    /// algorithm's per-leg runs, which anchor at 0 and let the emissions
    /// go negative.
    pub fn front_step(&mut self) -> (CommVector, Time) {
        let chosen = self.best_candidate();
        self.commit(chosen)
    }

    /// [`BackwardScheduler::front_step`] that commits **only if** the
    /// best candidate's first-link emission is still non-negative (the
    /// task fits the deadline anchor); returns `None` without mutating
    /// anything otherwise. The step of [`schedule_chain_by_deadline`].
    pub fn step_if_feasible(&mut self) -> Option<(CommVector, Time)> {
        let chosen = self.best_candidate();
        if chosen.first() < 0 {
            return None;
        }
        Some(self.commit(chosen))
    }
}

/// The task a backward step placed: `chosen` and its execution start.
fn assignment(chain: &Chain, (chosen, start): (CommVector, Time)) -> TaskAssignment {
    let proc = chosen.len();
    TaskAssignment::new(proc, start, chosen, chain.w(proc))
}

/// The makespan variant (Sections 3–5): schedules exactly `n` tasks on
/// `chain`, optimally in makespan (Theorem 1).
///
/// Each task takes [`BackwardScheduler::front_step`], `O(p)` when the
/// candidates' first components are distinct. The worst case is
/// `O(n p^2)`: a homogeneous chain ties every candidate on the front.
///
/// The returned schedule is normalised to start at time 0 (the paper's
/// final "shift of `C^1_1` units").
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Example
///
/// ```
/// use mst_platform::Chain;
/// use mst_core::schedule_chain;
///
/// let chain = Chain::paper_figure2();
/// let schedule = schedule_chain(&chain, 5);
/// assert_eq!(schedule.makespan(), 14); // the paper's Figure 2
/// ```
pub fn schedule_chain(chain: &Chain, n: usize) -> ChainSchedule {
    assert!(n >= 1, "schedule_chain requires at least one task");
    let mut scheduler = BackwardScheduler::new(chain, chain.t_infinity(n));
    let mut tasks: Vec<TaskAssignment> =
        (0..n).map(|_| assignment(chain, scheduler.front_step())).collect();
    tasks.reverse();
    let mut schedule = ChainSchedule::new(tasks);
    let shift = schedule.start_time().expect("n >= 1");
    schedule.shift(-shift);
    schedule
}

/// The `T_lim` variant (Section 7): schedules **as many tasks as
/// possible** — at most `max_tasks` — so that every task completes by
/// `deadline`, stopping as soon as a task would need a first-link
/// emission before time 0.
///
/// Times in the returned schedule are absolute (the schedule is *not*
/// shifted): the anchor `deadline` is meaningful to the caller, e.g. the
/// spider transformation which derives virtual processing times
/// `T_lim - C^i_1 - c_1` from the raw emission times.
///
/// The schedule of the `k` tasks returned for a smaller budget is always
/// a suffix of the schedule returned for a larger one — the backward
/// construction is incremental, which is exactly the property Lemma 4
/// exploits.
///
/// ```
/// use mst_platform::Chain;
/// use mst_core::schedule_chain_by_deadline;
///
/// let chain = Chain::paper_figure2();
/// // Exactly the paper's batch fits by its optimal makespan 14 ...
/// assert_eq!(schedule_chain_by_deadline(&chain, 100, 14).n(), 5);
/// // ... and nothing fits before one task can complete (c1 + w1 = 5).
/// assert!(schedule_chain_by_deadline(&chain, 100, 4).is_empty());
/// ```
pub fn schedule_chain_by_deadline(
    chain: &Chain,
    max_tasks: usize,
    deadline: Time,
) -> ChainSchedule {
    let mut scheduler = BackwardScheduler::new(chain, deadline);
    let mut rev: Vec<TaskAssignment> = Vec::new();
    while rev.len() < max_tasks {
        let Some(placed) = scheduler.step_if_feasible() else { break };
        rev.push(assignment(chain, placed));
    }
    rev.reverse();
    ChainSchedule::new(rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mst_platform::{GeneratorConfig, HeterogeneityProfile};
    use mst_schedule::check_chain;

    /// [`schedule_chain`] through the reference step, which builds every
    /// candidate: what the front step is tested against.
    fn schedule_chain_by_step(chain: &Chain, n: usize) -> ChainSchedule {
        let mut scheduler = BackwardScheduler::new(chain, chain.t_infinity(n));
        let mut tasks: Vec<TaskAssignment> = (0..n)
            .map(|_| {
                let step = scheduler.step();
                assignment(chain, (step.chosen, step.start))
            })
            .collect();
        tasks.reverse();
        let mut schedule = ChainSchedule::new(tasks);
        schedule.shift(-schedule.start_time().expect("n >= 1"));
        schedule
    }

    #[test]
    fn identical_to_reference_on_figure2() {
        let chain = Chain::paper_figure2();
        assert_eq!(schedule_chain(&chain, 5), schedule_chain_by_step(&chain, 5));
    }

    #[test]
    fn identical_to_reference_on_random_instances() {
        for seed in 0..60u64 {
            let profile = HeterogeneityProfile::ALL[(seed % 5) as usize];
            let g = GeneratorConfig::new(profile, seed);
            let p = 1 + (seed % 7) as usize;
            let n = 1 + (seed % 11) as usize;
            let chain = g.chain(p);
            assert_eq!(
                schedule_chain(&chain, n),
                schedule_chain_by_step(&chain, n),
                "divergence at seed {seed} (p={p}, n={n})"
            );
        }
    }

    #[test]
    fn identical_on_tie_heavy_homogeneous_chains() {
        // Homogeneous chains maximise front ties, stressing the
        // tie-breaking path.
        let chain = Chain::from_pairs(&[(2, 2); 6]).unwrap();
        for n in 1..12 {
            assert_eq!(schedule_chain(&chain, n), schedule_chain_by_step(&chain, n), "n={n}");
        }
    }

    #[test]
    fn figure2_reproduced_exactly() {
        let chain = Chain::paper_figure2();
        let s = schedule_chain(&chain, 5);
        check_chain(&chain, &s).assert_feasible();
        assert_eq!(s.makespan(), 14, "the paper's Figure 2 makespan");
        // First-link emissions are {0, 2, 4, 6, 9}.
        let emissions: Vec<Time> = s.tasks().iter().map(|t| t.comms.first()).collect();
        assert_eq!(emissions, vec![0, 2, 4, 6, 9]);
        // Exactly one task on processor 2: the one emitted at time 4
        // (the virtual node of processing time 14 - 4 - 2 = 8 in Fig. 7).
        let on2 = s.tasks_on(2);
        assert_eq!(on2.len(), 1);
        assert_eq!(s.task(on2[0]).comms.first(), 4);
    }

    #[test]
    fn single_processor_is_pipeline_optimal() {
        // On one processor the optimum is c1 + (n-1) max(c1,w1) + w1.
        let chain = Chain::from_pairs(&[(2, 5)]).unwrap();
        for n in 1..8 {
            let s = schedule_chain(&chain, n);
            check_chain(&chain, &s).assert_feasible();
            assert_eq!(s.makespan(), chain.t_infinity(n));
        }
        let comm_bound = Chain::from_pairs(&[(5, 2)]).unwrap();
        for n in 1..8 {
            let s = schedule_chain(&comm_bound, n);
            check_chain(&comm_bound, &s).assert_feasible();
            assert_eq!(s.makespan(), comm_bound.t_infinity(n));
        }
    }

    #[test]
    fn single_task_picks_best_processor() {
        // One task: the algorithm must pick argmin_k (travel_k + w_k).
        let chain = Chain::from_pairs(&[(2, 50), (1, 30), (1, 2)]).unwrap();
        let s = schedule_chain(&chain, 1);
        check_chain(&chain, &s).assert_feasible();
        assert_eq!(s.task(1).proc, 3);
        assert_eq!(s.makespan(), 2 + 1 + 1 + 2); // travel 4 + w 2
    }

    #[test]
    fn schedules_are_feasible_on_random_instances() {
        for seed in 0..40u64 {
            let profile = HeterogeneityProfile::ALL[(seed % 5) as usize];
            let g = GeneratorConfig::new(profile, seed);
            let chain = g.chain(1 + (seed % 6) as usize);
            let n = 1 + (seed % 9) as usize;
            let s = schedule_chain(&chain, n);
            assert_eq!(s.n(), n);
            check_chain(&chain, &s).assert_feasible();
            assert!(s.start_time() == Some(0), "schedule must be normalised");
            assert!(s.makespan() <= chain.t_infinity(n), "never worse than master-only");
            assert!(s.makespan() >= chain.makespan_lower_bound(n).min(s.makespan()));
        }
    }

    #[test]
    fn makespan_monotone_in_n() {
        for seed in 0..10u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[0], seed);
            let chain = g.chain(4);
            let mut prev = 0;
            for n in 1..10 {
                let m = schedule_chain(&chain, n).makespan();
                assert!(m >= prev, "makespan must not decrease with more tasks");
                prev = m;
            }
        }
    }

    #[test]
    fn deadline_variant_respects_deadline_and_zero() {
        for seed in 0..25u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let chain = g.chain(1 + (seed % 5) as usize);
            for deadline in [0, 3, 7, 15, 40] {
                let s = schedule_chain_by_deadline(&chain, 50, deadline);
                check_chain(&chain, &s).assert_feasible();
                for t in s.tasks() {
                    assert!(t.end() <= deadline, "task finishes past the deadline");
                    assert!(t.comms.first() >= 0, "emission before time zero");
                }
            }
        }
    }

    #[test]
    fn deadline_variant_matches_makespan_variant_at_optimum() {
        // With deadline = optimal makespan, all n tasks must fit.
        for seed in 0..20u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let chain = g.chain(1 + (seed % 4) as usize);
            let n = 1 + (seed % 7) as usize;
            let makespan = schedule_chain(&chain, n).makespan();
            let s = schedule_chain_by_deadline(&chain, n, makespan);
            assert_eq!(s.n(), n, "optimal deadline must fit all tasks (seed {seed})");
            // ... and one tick less must not.
            let s = schedule_chain_by_deadline(&chain, n, makespan - 1);
            assert!(s.n() < n, "deadline below optimum cannot fit all tasks (seed {seed})");
        }
    }

    #[test]
    fn deadline_task_count_is_monotone_in_deadline() {
        for seed in 0..10u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let chain = g.chain(3);
            let mut prev = 0;
            for deadline in 0..60 {
                let k = schedule_chain_by_deadline(&chain, 100, deadline).n();
                assert!(k >= prev, "task count must not decrease with a later deadline");
                prev = k;
            }
        }
    }

    #[test]
    fn deadline_schedules_are_suffix_closed() {
        // The k-task schedule is the suffix of the m-task schedule, k <= m
        // (Lemma 4's iterative structure).
        for seed in 0..15u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let chain = g.chain(1 + (seed % 4) as usize);
            let deadline = 45;
            let full = schedule_chain_by_deadline(&chain, 12, deadline);
            for k in 0..=full.n() {
                let partial = schedule_chain_by_deadline(&chain, k, deadline);
                assert_eq!(partial.n(), k.min(full.n()));
                let suffix = &full.tasks()[full.n() - partial.n()..];
                assert_eq!(partial.tasks(), suffix, "seed {seed}, k {k}");
            }
        }
    }

    #[test]
    fn impossible_deadline_yields_empty_schedule() {
        let chain = Chain::paper_figure2();
        // One task needs at least c1 + w1 = 5 ticks.
        assert!(schedule_chain_by_deadline(&chain, 5, 4).is_empty());
        assert_eq!(schedule_chain_by_deadline(&chain, 5, 5).n(), 1);
    }

    #[test]
    fn stepper_exposes_candidates() {
        let chain = Chain::paper_figure2();
        let mut sched = BackwardScheduler::new(&chain, chain.t_infinity(1));
        let step = sched.step();
        assert_eq!(step.candidates.len(), 2);
        assert_eq!(step.candidates[0].len(), 1);
        assert_eq!(step.candidates[1].len(), 2);
        assert_eq!(step.chosen.len(), 1, "w1 path wins for a single task here");
    }

    #[test]
    fn front_step_picks_what_step_picks() {
        // Homogeneous chains tie the front on several candidates, so the
        // full Definition-3 comparison among them is on trial.
        let mut chains: Vec<Chain> =
            (1..=6).map(|p| Chain::from_pairs(&vec![(2, 2); p]).unwrap()).collect();
        chains.push(Chain::from_pairs(&[(1, 3); 5]).unwrap());
        chains.push(Chain::from_pairs(&[(3, 1); 5]).unwrap());
        for seed in 0..40u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            chains.push(g.chain(1 + (seed % 7) as usize));
        }
        // Long runs where ties are heaviest: a homogeneous chain ties every
        // candidate, and a wide heterogeneous one has many to compare.
        let long = [
            Chain::from_pairs(&[(2, 2); 8]).unwrap(),
            Chain::from_pairs(&[(2, 2); 32]).unwrap(),
            GeneratorConfig::new(HeterogeneityProfile::ALL[0], 99).chain(64),
        ];
        let runs = chains
            .iter()
            .map(|chain| (chain, vec![0, 17], 24))
            .chain(long.iter().map(|chain| (chain, vec![0, 17, chain.t_infinity(512)], 512)));
        for (chain, anchors, steps) in runs {
            for anchor in anchors {
                let mut reference = BackwardScheduler::new(chain, anchor);
                let mut front = BackwardScheduler::new(chain, anchor);
                for i in 0..steps {
                    let step = reference.step();
                    assert_eq!(front.front_step(), (step.chosen, step.start), "{chain}, task {i}");
                    assert_eq!(front.state(), reference.state());
                }
            }
        }
    }

    #[test]
    fn a_run_anchored_at_zero_is_every_deadline_run_shifted() {
        // Backward construction is shift-invariant: the deadline-T run is
        // the run anchored at 0, shifted by T and cut where the shifted
        // first emission goes negative.
        let mut chains = vec![Chain::paper_figure2(), Chain::from_pairs(&[(2, 2); 4]).unwrap()];
        for seed in 0..30u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            chains.push(g.chain(1 + (seed % 5) as usize));
        }
        for chain in &chains {
            for k in [1, 3, 8] {
                let mut scheduler = BackwardScheduler::new(chain, 0);
                let run: Vec<(CommVector, Time)> = (0..k).map(|_| scheduler.front_step()).collect();
                for deadline in 0..=chain.t_infinity(k) {
                    let mut tasks: Vec<TaskAssignment> = run
                        .iter()
                        .take_while(|(comms, _)| comms.first() + deadline >= 0)
                        .map(|(comms, start)| {
                            let proc = comms.len();
                            let comms = comms.shifted(deadline);
                            TaskAssignment::new(proc, start + deadline, comms, chain.w(proc))
                        })
                        .collect();
                    tasks.reverse();
                    assert_eq!(
                        ChainSchedule::new(tasks),
                        schedule_chain_by_deadline(chain, k, deadline),
                        "{chain}, k {k}, deadline {deadline}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_tasks_panics() {
        let _ = schedule_chain(&Chain::paper_figure2(), 0);
    }
}
