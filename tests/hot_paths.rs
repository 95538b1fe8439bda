//! Regression coverage for the hot-path overhaul: the persistent worker
//! pool, the merging fork expansion, the incremental deadline search and
//! the one-pass wire codec must be **behaviour-preserving** — same
//! results, fewer cycles.

use master_slave_tasking::api::wire::{object_members, Json};
use master_slave_tasking::prelude::*;
use mst_fork::{
    count_tasks_fork_by_deadline, expand_fork, expand_fork_sorted, max_tasks_fork_by_deadline,
    max_tasks_fork_by_deadline_scratch, schedule_fork, ForkScratch,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn fork_strategy() -> impl Strategy<Value = Fork> {
    prop::collection::vec((1i64..=8, 1i64..=8), 1..=8)
        .prop_map(|pairs| Fork::from_pairs(&pairs).expect("positive pairs"))
}

fn spider_strategy() -> impl Strategy<Value = Spider> {
    prop::collection::vec(prop::collection::vec((1i64..=6, 1i64..=6), 1..=3), 1..=4).prop_map(
        |legs| {
            let refs: Vec<&[(Time, Time)]> = legs.iter().map(|l| l.as_slice()).collect();
            Spider::from_legs(&refs).expect("positive legs")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The k-way merging expansion streams exactly the sequence the
    /// reference (materialise + stable sort) produces — order included.
    #[test]
    fn merged_expansion_matches_reference_sort(
        fork in fork_strategy(),
        deadline in 0i64..=60,
        max_tasks in 0usize..=24,
    ) {
        let mut reference = expand_fork(&fork, deadline, max_tasks);
        reference.sort_by_key(|v| (v.comm, v.proc_time));
        let merged = expand_fork_sorted(&fork, deadline, max_tasks);
        prop_assert_eq!(merged, reference);
    }

    /// Scratch-threaded selection (the allocation-free probe), the
    /// thread-local entry point and the witness-building variant all
    /// agree; scratch reuse across deadlines leaks nothing.
    #[test]
    fn scratch_probes_agree_with_materialised_outcomes(
        fork in fork_strategy(),
        max_tasks in 1usize..=12,
    ) {
        let mut scratch = ForkScratch::new();
        // Sweep the deadline upward through one scratch, the realistic
        // binary-search access pattern (monotonicity is asserted too).
        let mut prev = 0;
        for deadline in 0..=40 {
            let counted = count_tasks_fork_by_deadline(&fork, max_tasks, deadline, &mut scratch);
            let fresh = max_tasks_fork_by_deadline(&fork, max_tasks, deadline);
            let scratched =
                max_tasks_fork_by_deadline_scratch(&fork, max_tasks, deadline, &mut scratch);
            prop_assert_eq!(counted, fresh.n());
            prop_assert_eq!(scratched.n(), fresh.n());
            prop_assert_eq!(scratched.selected, fresh.selected);
            prop_assert!(counted >= prev, "count must be deadline-monotone");
            prev = counted;
        }
    }

    /// The incremental binary search (counting probes + cached final
    /// selection) returns the same makespan and witness the per-probe
    /// re-solving implementation did.
    #[test]
    fn incremental_schedule_fork_matches_brute_probes(
        fork in fork_strategy(),
        n in 1usize..=8,
    ) {
        let (makespan, outcome) = schedule_fork(&fork, n);
        prop_assert_eq!(outcome.n(), n);
        // Reference: linear scan for the smallest feasible deadline.
        let mut expected = 1;
        while max_tasks_fork_by_deadline(&fork, n, expected).n() < n {
            expected += 1;
        }
        prop_assert_eq!(makespan, expected);
        let reference = max_tasks_fork_by_deadline(&fork, n, expected);
        prop_assert_eq!(outcome.selected, reference.selected);
        for t in outcome.schedule.tasks() {
            prop_assert!(t.end() <= makespan);
        }
    }

    /// The scratch-reusing spider deadline search stays optimal and
    /// deadline-true (Theorem 3's claim, now through the probe path).
    #[test]
    fn incremental_schedule_spider_stays_optimal(
        spider in spider_strategy(),
        n in 1usize..=6,
    ) {
        let (makespan, schedule) = schedule_spider(&spider, n);
        prop_assert_eq!(schedule.n(), n);
        prop_assert_eq!(schedule.makespan(), makespan);
        // The searched deadline is tight: one tick less fits fewer tasks.
        prop_assert!(schedule_spider_by_deadline(&spider, n, makespan - 1).n() < n);
    }

    /// A pooled batch equals instance-by-instance serial solving.
    #[test]
    fn pooled_batch_equals_serial(seed_base in 0u64..5000) {
        let instances: Vec<Instance> = (0..24).map(|i| {
            let seed = seed_base + i;
            let kind = [TopologyKind::Chain, TopologyKind::Fork, TopologyKind::Spider]
                [(seed % 3) as usize];
            Instance::generate(
                kind,
                HeterogeneityProfile::ALL[(seed % 5) as usize],
                seed,
                1 + (seed % 4) as usize,
                1 + (seed % 6) as usize,
            )
        }).collect();
        let batch = Batch::default();
        let pooled = batch.solve_all(&instances);
        for (instance, result) in instances.iter().zip(pooled) {
            let serial = batch.registry().solve(batch.solver(), instance);
            prop_assert_eq!(result, serial);
        }
    }
}

/// The largest integer magnitude the wire writes without a fraction.
const MAX_EXACT: i64 = (1 << 53) - 1;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Strings copied run by run round-trip through the codec: letters,
    /// every control byte, the escaped `"` and `\`, and 2-, 3- and 4-byte
    /// scalars, as a value, as an object key and inside an array. The
    /// encoding never carries a raw control byte, and the parser rejects
    /// one inside a string.
    #[test]
    fn wire_strings_round_trip(s in "[a-zA-Z\u{0}-\u{1f}\"\\/é€😀]{0,24}") {
        for value in [
            Json::Str(s.clone()),
            Json::Obj(vec![(s.clone(), Json::Str(s.clone()))]),
            Json::Arr(vec![Json::Str(s.clone()), Json::int(1), Json::Str(s.clone())]),
        ] {
            let text = value.to_string();
            prop_assert!(!text.chars().any(|c| c < ' '), "raw control byte in {:?}", text);
            prop_assert_eq!(Json::parse(&text).unwrap(), value, "{:?}", text);
        }
        if s.chars().any(|c| c < ' ') {
            prop_assert!(Json::parse(&format!("\"{s}\"")).is_err(), "{:?}", s);
        }
    }

    /// Integers written from the stack buffer are `i64`'s own digits and
    /// parse back exactly; `n % 1000` adds a small one of either sign.
    #[test]
    fn wire_integers_round_trip(n in -MAX_EXACT..=MAX_EXACT) {
        for n in [n, n % 1000] {
            let text = Json::int(n).to_string();
            prop_assert_eq!(&text, &n.to_string());
            prop_assert_eq!(Json::parse(&text).unwrap().as_i64(), Some(n));
        }
    }

    /// Integer literals of 1–17 digits, leading zeros allowed, with and
    /// without `-`, parse to the bits `str::parse::<f64>` gives: the
    /// short ones take the integer path, the long ones the float path.
    #[test]
    fn wire_integer_literals_parse_like_str_parse(
        digits in "[0-9]{1,17}",
        negative in 0u8..=1,
    ) {
        let literal = if negative == 1 { format!("-{digits}") } else { digits };
        let parsed = Json::parse(&literal).unwrap().as_f64().unwrap();
        prop_assert_eq!(parsed.to_bits(), literal.parse::<f64>().unwrap().to_bits(), "{}", literal);
    }
}

/// Pieces of string bodies: good, bad, truncated and surrogate escapes,
/// the escaped and raw `"` and `\`, raw control bytes, and 1–4-byte
/// scalars.
const STRING_PIECES: [&str; 16] = [
    "\\u00e9", "\\u+0e9", "\\ud800", "\\u12", "\\uD83D", "\\q", "\\n", "\\\"", "\\\\", "\\/", "\\",
    "\"", "\u{1}", "a", "é€", "😀",
];

/// What a mutation may write over one character of a valid text.
const MUTATIONS: [char; 17] =
    ['{', '}', '[', ']', ':', ',', '"', '\\', ' ', '0', '-', 'e', '.', 'n', '\u{1}', 'é', '😀'];

/// The object checks of [`object_members`]: it accepts exactly the texts
/// `Json::parse` reads as an object, and each value's range is the text
/// of the value `Json::parse` gives.
fn members_match_parse(text: &str) {
    let parsed = Json::parse(text);
    match (object_members(text), parsed) {
        (Ok(members), Ok(Json::Obj(expected))) => {
            let got: Vec<(String, Json)> = members
                .into_iter()
                .map(|(key, value)| (key, Json::parse(&text[value]).unwrap()))
                .collect();
            assert_eq!(got, expected, "{text:?}");
        }
        (Err(_), Ok(Json::Obj(_))) => panic!("object_members rejects the object {text:?}"),
        (Ok(_), _) => panic!("object_members accepts the non-object {text:?}"),
        (Err(_), _) => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The store's validating scan accepts and rejects exactly what
    /// `Json::parse` does: on the string, escape and integer generators
    /// above, on number-like tokens, and on a valid document cut short
    /// or with one character overwritten.
    #[test]
    fn wire_validate_agrees_with_parse(
        s in "[a-zA-Z\u{0}-\u{1f}\"\\/é€😀]{0,24}",
        pieces in prop::collection::vec(0usize..STRING_PIECES.len(), 0..=8),
        digits in "[0-9]{1,17}",
        token in "[0-9eE.+-]{1,8}",
        cut in 0usize..100_000,
        mutation in (0usize..100_000, 0usize..MUTATIONS.len()),
    ) {
        let escapes: String = pieces.iter().map(|&i| STRING_PIECES[i]).collect();
        let literal = Json::parse(&digits).unwrap();
        let doc = Json::Obj(vec![
            (s.clone(), Json::Arr(vec![Json::Str(s.clone()), literal, Json::Null, Json::Bool(true)])),
            ("é".to_string(), Json::Obj(vec![("k".to_string(), Json::int(-7))])),
        ])
        .to_string();
        let mut end = cut % (doc.len() + 1);
        while !doc.is_char_boundary(end) {
            end -= 1;
        }
        let mut chars: Vec<char> = doc.chars().collect();
        let at = mutation.0 % chars.len();
        chars[at] = MUTATIONS[mutation.1];
        let texts = [
            format!("\"{s}\""),
            format!("\"{escapes}\""),
            escapes.clone(),
            digits.clone(),
            format!("-{digits}"),
            token.clone(),
            format!("[{token}, {digits}]"),
            doc.clone(),
            doc[..end].to_string(),
            chars.into_iter().collect(),
        ];
        for text in &texts {
            prop_assert_eq!(Json::validate(text).is_ok(), Json::parse(text).is_ok(), "{:?}", text);
            members_match_parse(text);
            members_match_parse(&format!("{{\"k\":{text},\"z\":{text}}}"));
        }
    }
}

/// `-0` keeps its sign bit when parsed and writes as `0`, both as before.
#[test]
fn wire_negative_zero_keeps_its_bits_and_bytes() {
    for literal in ["-0", "-000"] {
        let parsed = Json::parse(literal).unwrap().as_f64().unwrap();
        assert_eq!(parsed.to_bits(), (-0.0f64).to_bits(), "{literal}");
    }
    assert_eq!(Json::Num(-0.0).to_string(), "0");
}

/// One `Batch`, three consecutive `solve_all` calls: identical results,
/// one worker set, no new threads (the job counter proves the same pool
/// served every sweep).
#[test]
fn batch_reuses_its_pool_across_three_sweeps() {
    let pool = Arc::new(WorkerPool::with_workers(2));
    let batch = Batch::default().with_pool(Arc::clone(&pool));
    let instances: Vec<Instance> = (0..120u64)
        .map(|seed| {
            let kind = [TopologyKind::Chain, TopologyKind::Fork, TopologyKind::Spider]
                [(seed % 3) as usize];
            Instance::generate(
                kind,
                HeterogeneityProfile::ALL[(seed % 5) as usize],
                seed,
                1 + (seed % 5) as usize,
                1 + (seed % 7) as usize,
            )
        })
        .collect();
    let first = batch.solve_all(&instances);
    assert!(first.iter().all(|r| r.is_ok()));
    for _ in 0..2 {
        assert_eq!(batch.solve_all(&instances), first);
    }
    assert_eq!(pool.workers(), 2);
    assert_eq!(pool.jobs_submitted(), 3, "three sweeps through one persistent pool");
}

/// The empty-items edge under the pool: immediate return, no worker
/// wakeup, and the shared `run_parallel` front door agrees.
#[test]
fn empty_sweeps_cost_nothing_and_wake_nobody() {
    let pool = Arc::new(WorkerPool::with_workers(2));
    let batch = Batch::default().with_pool(Arc::clone(&pool));
    let empty: Vec<Instance> = vec![];
    assert!(batch.solve_all(&empty).is_empty());
    assert!(batch.solve_all_by_deadline(&empty, 10).is_empty());
    assert_eq!(pool.jobs_submitted(), 0, "empty sweeps must not wake the pool");
    let none: Vec<u64> = vec![];
    assert!(run_parallel(&none, |&x| x).is_empty());
}

/// Panics inside a pooled sweep stay loud: the closure's panic reaches
/// the caller (after the sweep drains) instead of yielding truncated or
/// reordered results.
#[test]
fn pool_panics_stay_loud() {
    let pool = WorkerPool::with_workers(2);
    let items: Vec<u64> = (0..64).collect();
    let executed = AtomicUsize::new(0);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run(&items, |&x| {
            executed.fetch_add(1, Ordering::Relaxed);
            assert!(x != 17, "injected failure");
            x
        })
    }));
    assert!(outcome.is_err(), "the panic must propagate");
    // All claimed items finish before the unwind; the unclaimed tail is
    // drained without running once the failure is recorded.
    assert!(executed.load(Ordering::Relaxed) <= 64);
    // The pool remains serviceable afterwards.
    assert_eq!(pool.run(&items, |&x| x + 1)[0], 1);
}
