//! Analytic bounds: divisible-load style lower bounds and steady-state
//! rates.
//!
//! The paper situates itself against the divisible-load literature
//! (Robertazzi et al.) where the workload can be split in arbitrary
//! fractions: any divisible-load optimum lower-bounds the quantised
//! optimum, so these bounds sandwich the algorithms' results in the
//! experiment tables.

use mst_platform::{Chain, Spider, Time};

/// Lower bound on the makespan of `n` unit tasks on a chain: the link-1
/// serialisation bound `n * c_1 + min_k (c_2 + .. + c_k + w_k)` combined
/// with the best-processor pipeline bound.
pub fn chain_lower_bound(chain: &Chain, n: usize) -> Time {
    let serialisation = chain.makespan_lower_bound(n);
    // Pipeline bound per processor k: the k-th processor alone cannot
    // beat travel + (n-1) * w_k + w_k ... but tasks may be spread, so the
    // only per-processor bound valid globally is the serialisation one
    // plus the trivial single-task bound; we also add the steady-state
    // rate bound: n tasks need at least ceil((n - warmup) / rate) ticks.
    let (rate_tasks, rate_ticks) = chain.steady_state_rate();
    // makespan >= (n * rate_ticks) / rate_tasks is NOT valid in general
    // (warm-up can only help the bound); the safe form is
    // ceil(n * ticks / tasks) ignoring warm-up... which IS valid:
    // in any window of length L the platform completes at most
    // ceil(L * tasks / ticks) tasks, and every completion happens within
    // [0, makespan], so n <= ceil(makespan * tasks / ticks) hence
    // makespan >= floor-ish; we use the conservative integer form below.
    let rate_bound = div_ceil_i64(n as Time * rate_ticks as Time, rate_tasks as Time)
        .saturating_sub(rate_ticks as Time); // slack one period for boundary effects
    serialisation.max(rate_bound)
}

fn div_ceil_i64(a: Time, b: Time) -> Time {
    (a + b - 1) / b
}

/// Lower bound for a spider: every task occupies the master's out-port
/// for at least the smallest first-link latency, and the last task still
/// needs the cheapest completion tail ([`Spider::makespan_lower_bound`]).
pub fn spider_lower_bound(spider: &Spider, n: usize) -> Time {
    spider.makespan_lower_bound(n)
}

/// Aggregate steady-state throughput (tasks per tick) of a spider under
/// the bandwidth-centric port allocation: legs are served in increasing
/// first-link latency until the master's out-port saturates.
///
/// Returned as an `f64` because the greedy waterfall mixes incomparable
/// rationals; used for reporting only, never for correctness decisions.
pub fn spider_steady_state_rate(spider: &Spider) -> f64 {
    let mut legs: Vec<(f64, f64)> = spider
        .legs()
        .iter()
        .map(|l| {
            let (t, d) = l.steady_state_rate();
            (l.c(1) as f64, t as f64 / d as f64)
        })
        .collect();
    legs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("latencies are finite"));
    let mut port_budget = 1.0f64; // fraction of port time available
    let mut total_rate = 0.0f64;
    for (c1, leg_rate) in legs {
        if port_budget <= 0.0 {
            break;
        }
        // Serving a leg at rate r consumes port time r * c1 per tick.
        let feasible = (port_budget / c1).min(leg_rate);
        total_rate += feasible;
        port_budget -= feasible * c1;
    }
    total_rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{optimal_chain_makespan, optimal_spider_makespan};
    use mst_fork::{max_tasks_fork_by_deadline, schedule_fork};
    use mst_platform::{GeneratorConfig, HeterogeneityProfile};
    use mst_spider::{schedule_spider, schedule_spider_by_deadline};

    #[test]
    fn chain_bound_is_sound_on_small_instances() {
        for seed in 0..40u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let chain = g.chain(1 + (seed % 4) as usize);
            let n = 1 + (seed % 6) as usize;
            let lb = chain_lower_bound(&chain, n);
            let opt = optimal_chain_makespan(&chain, n);
            assert!(lb <= opt, "lower bound {lb} exceeds optimum {opt} (seed {seed}, {chain})");
        }
    }

    #[test]
    fn spider_bound_is_sound_on_small_instances() {
        for seed in 0..25u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let spider = g.spider(2, 1, 2);
            let n = 1 + (seed % 5) as usize;
            let lb = spider_lower_bound(&spider, n);
            let opt = optimal_spider_makespan(&spider, n);
            assert!(lb <= opt, "spider bound {lb} exceeds optimum {opt} (seed {seed})");
        }
        // Medium shapes (4-8 legs or slaves, 16-64 tasks), past the exact
        // search. The kernels' searches start at these lower bounds, so
        // each bound is also checked by one count-only probe just below
        // it, which no search floor touches: it must fit fewer than `n`.
        for seed in 0..1_000u64 {
            let g = GeneratorConfig::new(HeterogeneityProfile::ALL[(seed % 5) as usize], seed);
            let size = 4 + (seed % 5) as usize;
            let n = 16 + (seed % 49) as usize;

            let spider = g.spider(size, 1, 3);
            let (lb, ub) = (spider_lower_bound(&spider, n), spider.makespan_upper_bound(n));
            let m = schedule_spider(&spider, n).0;
            assert!(lb <= m && m <= ub, "spider: {lb} <= {m} <= {ub} fails (seed {seed})");
            assert!(schedule_spider_by_deadline(&spider, n, lb - 1).n() < n, "seed {seed}");

            let fork = g.fork(size);
            let (lb, ub) = (fork.makespan_lower_bound(n), fork.makespan_upper_bound(n));
            let m = schedule_fork(&fork, n).0;
            assert!(lb <= m && m <= ub, "fork: {lb} <= {m} <= {ub} fails (seed {seed})");
            assert!(max_tasks_fork_by_deadline(&fork, n, lb - 1).n() < n, "seed {seed}");
            assert_eq!(schedule_spider(&Spider::from_fork(&fork), n).0, m, "seed {seed}");
        }
    }

    #[test]
    fn figure2_bounds() {
        let chain = Chain::paper_figure2();
        let lb = chain_lower_bound(&chain, 5);
        assert!(lb <= 14);
        assert!(lb >= 10, "the serialisation term alone gives n*c1 = 10");
    }

    #[test]
    fn spider_rate_saturates_at_port_capacity() {
        // Two legs with c1 = 2 and infinite-ish compute: the port can
        // emit one task per 2 ticks, total rate 0.5.
        let spider = Spider::from_legs(&[&[(2, 1)], &[(2, 1)]]).unwrap();
        let r = spider_steady_state_rate(&spider);
        assert!((r - 0.5).abs() < 1e-9, "rate {r}");
    }

    #[test]
    fn spider_rate_respects_slow_legs() {
        // One leg, c1 = 1 but w = 10: leg rate min(1/1, 1/10) = 0.1.
        let spider = Spider::from_legs(&[&[(1, 10)]]).unwrap();
        let r = spider_steady_state_rate(&spider);
        assert!((r - 0.1).abs() < 1e-9);
    }
}
