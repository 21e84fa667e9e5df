//! Oracle and property tests for the columnar endpoint-sweep kernel.
//!
//! The contract under test: [`SweepAggregator`] produces output
//! byte-identical to the quadratic reference oracle — the specification;
//! there is no second sweep to compare against — for every aggregate and
//! every input shape — random, sorted, reverse-sorted, duplicate-endpoint,
//! touching-interval, dense-instant, and empty-domain — a
//! domain-partitioned sweep agrees with the serial
//! sweep at every partition count, and the sweep-based interval join
//! agrees with a nested loop for every predicate. Run with
//! `--features validate` to additionally assert the structural tiling
//! invariant inside every `finish`.

use temporal_aggregates::algo::oracle::oracle;
use temporal_aggregates::prelude::*;
use temporal_aggregates::workload::rng::StdRng;
use temporal_aggregates::{JoinPredicate, SweepAggregate, SweepJoinOperator};

const DOMAIN: Interval = Interval::TIMELINE;

/// Drive the sweep over `tuples` inside `domain` and return its series.
fn sweep<A>(agg: A, domain: Interval, tuples: &[(Interval, A::Input)]) -> Series<A::Output>
where
    A: SweepAggregate,
    A::Input: Clone + Send,
{
    let mut s = SweepAggregator::with_domain(agg, domain);
    for (iv, v) in tuples {
        if let Some(clipped) = iv.intersect(&domain) {
            s.push(clipped, v.clone()).unwrap();
        }
    }
    s.finish()
}

/// Assert the sweep == the quadratic oracle for all five of the paper's
/// aggregates.
fn assert_all_aggregates(tuples: &[(Interval, i64)], label: &str) {
    fn family<A>(agg: A, tuples: &[(Interval, A::Input)], label: &str, what: &str)
    where
        A: SweepAggregate,
        A::Input: Clone + Send,
        A::Output: std::fmt::Debug + PartialEq,
    {
        let want = oracle(&agg, DOMAIN, tuples);
        assert_eq!(
            sweep(agg, DOMAIN, tuples),
            want,
            "sweep diverged from the oracle: {what} on {label}"
        );
    }
    let unit: Vec<(Interval, ())> = tuples.iter().map(|&(iv, _)| (iv, ())).collect();
    family(Count, &unit, label, "COUNT");
    family(Sum::<i64>::new(), tuples, label, "SUM");
    family(Min::<i64>::new(), tuples, label, "MIN");
    family(Max::<i64>::new(), tuples, label, "MAX");
    family(Avg::<i64>::new(), tuples, label, "AVG");
}

fn random_tuples(rng: &mut StdRng, n: usize, width: i64) -> Vec<(Interval, i64)> {
    (0..n)
        .map(|_| {
            let start = rng.random_range(0..width);
            let len = rng.random_range(0i64..width / 4);
            (
                Interval::at(start, (start + len).min(width)),
                rng.random_range(-500i64..500),
            )
        })
        .collect()
}

#[test]
fn sweep_matches_oracle_on_seeded_random_inputs() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x5EE9 + case);
        let tuples = random_tuples(&mut rng, 40, 400);
        assert_all_aggregates(&tuples, &format!("random case {case}"));
    }
}

#[test]
fn sweep_matches_oracle_on_sorted_and_reverse_sorted_inputs() {
    let mut rng = StdRng::seed_from_u64(0x50A7);
    let mut tuples = random_tuples(&mut rng, 60, 600);
    tuples.sort_unstable_by_key(|(iv, _)| (iv.start(), iv.end()));
    assert_all_aggregates(&tuples, "fully sorted");
    tuples.reverse();
    assert_all_aggregates(&tuples, "reverse sorted");
}

#[test]
fn sweep_matches_oracle_on_duplicate_endpoints() {
    // Many tuples sharing the same start and/or end instants: the sweep's
    // event sort sees long runs of equal keys.
    let mut tuples: Vec<(Interval, i64)> = Vec::new();
    for i in 0..12i64 {
        tuples.push((Interval::at(100, 200), i));
        tuples.push((Interval::at(100, 150 + i), 2 * i));
        tuples.push((Interval::at(50 + i, 200), -i));
    }
    assert_all_aggregates(&tuples, "duplicate endpoints");
}

#[test]
fn sweep_matches_oracle_on_touching_intervals() {
    // Chains where one tuple's end meets the next tuple's start — the
    // boundary between them must appear in the output exactly once.
    let tuples: Vec<(Interval, i64)> = (0..20i64)
        .map(|i| (Interval::at(i * 10, (i + 1) * 10 - 1), i))
        .collect();
    assert_all_aggregates(&tuples, "touching chain");
    // And the meeting variant where end + 1 == next start of a later pair.
    let pair = vec![
        (Interval::at(0, 9), 1i64),
        (Interval::at(10, 19), 2),
        (Interval::at(9, 10), 3),
    ];
    assert_all_aggregates(&pair, "meeting pair");
}

#[test]
fn sweep_matches_oracle_on_dense_instants() {
    // More events than distinct instants: the v2 lowering takes its
    // per-instant counting scatter (time positional, no comparison
    // sort). The sparser shapes elsewhere in this file take the
    // bucketed comparison sort; both regimes must replay to the same
    // series.
    let mut rng = StdRng::seed_from_u64(0xDE45E);
    let tuples = random_tuples(&mut rng, 300, 60);
    assert_all_aggregates(&tuples, "dense instants");
}

#[test]
fn sweep_handles_empty_domain_and_empty_input() {
    // No tuples at all: one empty entry covering the whole domain.
    let empty: Vec<(Interval, i64)> = Vec::new();
    assert_all_aggregates(&empty, "no tuples");

    // A bounded domain none of the tuples intersect: pushes are clipped
    // away and the output is the identity over the domain.
    let window = Interval::at(10_000, 20_000);
    let outside = vec![(Interval::at(0, 100), 7i64)];
    let got = sweep(Sum::<i64>::new(), window, &outside);
    let want = oracle(&Sum::<i64>::new(), window, &Vec::<(Interval, i64)>::new());
    assert_eq!(got, want, "empty-domain sweep");
    assert_eq!(got.len(), 1);
}

#[test]
fn partitioned_sweep_is_identical_to_serial_sweep() {
    // The acceptance matrix: P ∈ {1, 2, 8}, sweep as the inner
    // aggregator, byte-identical output — the same contract
    // tests/parallel_pipeline.rs pins for the tree and the list.
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x9A57 + case);
        let tuples = random_tuples(&mut rng, 48, 500);
        let expected = sweep(Sum::<i64>::new(), DOMAIN, &tuples);
        let hull = Interval::at(0, 500);
        for partitions in [1usize, 2, 8] {
            let seams = hull.even_seams(partitions);
            let mut par = PartitionedAggregator::with_seams(DOMAIN, seams, |sub| {
                SweepAggregator::with_domain(Sum::<i64>::new(), sub)
            })
            .unwrap();
            let mut chunk: Chunk<i64> = Chunk::with_capacity(16);
            for (iv, v) in &tuples {
                if chunk.is_full() {
                    par.push_batch(&chunk).unwrap();
                    chunk.clear();
                }
                chunk.push(*iv, *v).unwrap();
            }
            if !chunk.is_empty() {
                par.push_batch(&chunk).unwrap();
            }
            assert_eq!(
                par.finish(),
                expected,
                "partitioned sweep (P = {partitions}) diverged on case {case}"
            );
        }
    }
}

#[test]
fn products_with_extremes_equal_their_members_under_heavy_concurrency() {
    // A tuple product must forward the slot hooks to MIN/MAX members, or
    // each retract falls back to a linear search of the live set. 6,000
    // tuples all live over [3000, 5999] (well past 4,096 concurrently
    // live), with many duplicate values, retracted in an order unrelated
    // to their admits. The product must equal its members run separately,
    // serial and partitioned.
    let mut rng = StdRng::seed_from_u64(0x51D7);
    let tuples: Vec<(Interval, i64)> = (0..6000)
        .map(|i| {
            let end = 6000 + rng.random_range(0i64..4000);
            (Interval::at(i, end), rng.random_range(0i64..500))
        })
        .collect();
    let product = (Sum::<i64>::new(), Min::<i64>::new(), Max::<i64>::new());
    let triples: Vec<(Interval, (i64, i64, i64))> =
        tuples.iter().map(|&(iv, v)| (iv, (v, v, v))).collect();
    let sums = sweep(Sum::<i64>::new(), DOMAIN, &tuples);
    let mins = sweep(Min::<i64>::new(), DOMAIN, &tuples);
    let maxs = sweep(Max::<i64>::new(), DOMAIN, &tuples);
    let check = |got: Series<(Option<i64>, Option<i64>, Option<i64>)>, what: &str| {
        assert_eq!(got.len(), sums.len(), "{what}");
        for (((p, s), lo), hi) in got.iter().zip(&sums).zip(&mins).zip(&maxs) {
            assert_eq!(p.interval, s.interval, "{what}");
            assert_eq!(
                p.value,
                (s.value, lo.value, hi.value),
                "{what} at {}",
                p.interval
            );
        }
    };
    check(sweep(product, DOMAIN, &triples), "serial product");
    for partitions in [2usize, 8] {
        let seams = Interval::at(0, 9999).even_seams(partitions);
        let mut par = PartitionedAggregator::with_seams(DOMAIN, seams, |sub| {
            SweepAggregator::with_domain(product, sub)
        })
        .unwrap();
        for batch in triples.chunks(1024) {
            let mut chunk: Chunk<(i64, i64, i64)> = Chunk::with_capacity(batch.len());
            for (iv, v) in batch {
                chunk.push(*iv, *v).unwrap();
            }
            par.push_batch(&chunk).unwrap();
        }
        check(
            par.finish(),
            &format!("partitioned product (P = {partitions})"),
        );
    }
}

#[test]
fn sweep_join_agrees_with_a_nested_loop_for_every_predicate() {
    // The sweep-based interval join must enumerate exactly the pairs a
    // quadratic nested loop finds, for each Allen-style predicate.
    let mut rng = StdRng::seed_from_u64(0x901A);
    let mut gen_side = |n: usize| -> Vec<Interval> {
        (0..n)
            .map(|_| {
                let start = rng.random_range(0..500i64);
                let len = rng.random_range(0i64..80);
                Interval::at(start, start + len)
            })
            .collect()
    };
    let (left, right) = (gen_side(120), gen_side(150));
    for predicate in [
        JoinPredicate::Overlaps,
        JoinPredicate::Contains,
        JoinPredicate::During,
        JoinPredicate::Meets,
    ] {
        let mut want: Vec<(usize, usize)> = Vec::new();
        for (li, l) in left.iter().enumerate() {
            for (ri, r) in right.iter().enumerate() {
                if predicate.matches(*l, *r) {
                    want.push((li, ri));
                }
            }
        }
        assert!(!want.is_empty(), "degenerate case: no {predicate:?} pairs");
        let mut op = SweepJoinOperator::new(predicate);
        for iv in &left {
            op.push_left(*iv).unwrap();
        }
        for iv in &right {
            op.push_right(*iv).unwrap();
        }
        let mut got: Vec<(usize, usize)> = op
            .finish()
            .into_iter()
            .map(|e| (e.value.left, e.value.right))
            .collect();
        got.sort_unstable();
        assert_eq!(
            got, want,
            "{predicate:?} join disagrees with the nested loop"
        );
    }
}

/// The README interval-join snippet, verbatim: keep the documented
/// example compiling and producing exactly the output it claims.
#[test]
fn readme_join_snippet_compiles_and_matches() {
    let mut join = SweepJoinOperator::new(JoinPredicate::Overlaps);
    join.push_left(Interval::at(0, 10)).unwrap(); // L0
    join.push_left(Interval::at(20, 30)).unwrap(); // L1
    join.push_right(Interval::at(5, 25)).unwrap(); // R0
    let mut lines = Vec::new();
    for entry in join.finish() {
        lines.push(format!(
            "L{} × R{} over {}",
            entry.value.left, entry.value.right, entry.interval
        ));
    }
    lines.sort();
    assert_eq!(lines, vec!["L0 × R0 over [5, 10]", "L1 × R0 over [20, 25]"]);
}
