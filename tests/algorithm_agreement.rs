//! Agreement tests: every algorithm must produce exactly the series defined
//! by the brute-force oracle, for randomized tuple sets and for the paper's
//! generated workloads.
//!
//! Inputs are drawn from the workspace's own deterministic [`StdRng`]
//! (seeded per test), so failures reproduce exactly; shrinkers are replaced
//! by printing the offending case number and seed in the assert message.

use temporal_aggregates::algo::oracle::oracle;
use temporal_aggregates::prelude::*;
use temporal_aggregates::run;
use temporal_aggregates::workload::rng::StdRng;
use temporal_aggregates::workload::{count_stream, generate, TupleOrder, WorkloadConfig};

const CASES: u64 = 256;

/// Arbitrary closed intervals over a small timeline (dense overlaps).
fn random_interval(rng: &mut StdRng) -> Interval {
    let start = rng.random_range(0i64..200);
    let len = rng.random_range(0i64..60);
    Interval::at(start, start + len)
}

/// 0..40 interval/value tuples.
fn random_tuples(rng: &mut StdRng) -> Vec<(Interval, i64)> {
    let n = rng.random_range(0usize..40);
    (0..n)
        .map(|_| (random_interval(rng), rng.random_range(-100i64..100)))
        .collect()
}

fn run_all_count(tuples: &[(Interval, i64)]) -> Vec<(&'static str, Series<u64>)> {
    let items = || tuples.iter().map(|&(iv, _)| (iv, ()));
    let n = tuples.len().max(1);
    vec![
        (
            "linked-list",
            run(LinkedListAggregate::new(Count), items()).unwrap(),
        ),
        (
            "aggregation-tree",
            run(AggregationTree::new(Count), items()).unwrap(),
        ),
        (
            "k-ordered-tree(k=n)",
            run(KOrderedAggregationTree::new(Count, n).unwrap(), items()).unwrap(),
        ),
        (
            "two-scan",
            run(TwoScanAggregate::new(Count), items()).unwrap(),
        ),
        (
            "balanced",
            run(BalancedAggregationTree::new(Count), items()).unwrap(),
        ),
    ]
}

#[test]
fn all_algorithms_match_the_oracle_for_count() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0_0000 + case);
        let tuples = random_tuples(&mut rng);
        let count_tuples: Vec<(Interval, ())> = tuples.iter().map(|&(iv, _)| (iv, ())).collect();
        let expected = oracle(&Count, Interval::TIMELINE, &count_tuples);
        for (name, series) in run_all_count(&tuples) {
            assert_eq!(series, expected, "algorithm {name} diverged on case {case}");
        }
    }
}

#[test]
fn all_algorithms_match_the_oracle_for_sum() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x50_0000 + case);
        let tuples = random_tuples(&mut rng);
        let expected = oracle(&Sum::<i64>::new(), Interval::TIMELINE, &tuples);
        let items = || tuples.iter().copied();
        let n = tuples.len().max(1);
        let results = vec![
            run(LinkedListAggregate::new(Sum::<i64>::new()), items()).unwrap(),
            run(AggregationTree::new(Sum::<i64>::new()), items()).unwrap(),
            run(
                KOrderedAggregationTree::new(Sum::<i64>::new(), n).unwrap(),
                items(),
            )
            .unwrap(),
            run(TwoScanAggregate::new(Sum::<i64>::new()), items()).unwrap(),
            run(BalancedAggregationTree::new(Sum::<i64>::new()), items()).unwrap(),
        ];
        for series in results {
            assert_eq!(series, expected, "case {case}");
        }
    }
}

#[test]
fn min_max_avg_match_the_oracle_on_the_tree() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x3A_0000 + case);
        let tuples = random_tuples(&mut rng);
        let min_expected = oracle(&Min::<i64>::new(), Interval::TIMELINE, &tuples);
        let max_expected = oracle(&Max::<i64>::new(), Interval::TIMELINE, &tuples);
        assert_eq!(
            run(
                AggregationTree::new(Min::<i64>::new()),
                tuples.iter().copied()
            )
            .unwrap(),
            min_expected,
            "case {case}"
        );
        assert_eq!(
            run(
                AggregationTree::new(Max::<i64>::new()),
                tuples.iter().copied()
            )
            .unwrap(),
            max_expected,
            "case {case}"
        );
        // AVG: compare with tolerance (floating point path order differs).
        let avg_expected = oracle(&Avg::<i64>::new(), Interval::TIMELINE, &tuples);
        let avg_actual = run(
            AggregationTree::new(Avg::<i64>::new()),
            tuples.iter().copied(),
        )
        .unwrap();
        assert_eq!(avg_actual.len(), avg_expected.len(), "case {case}");
        for (a, b) in avg_actual.iter().zip(avg_expected.iter()) {
            assert_eq!(a.interval, b.interval, "case {case}");
            match (a.value, b.value) {
                (None, None) => {}
                (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "case {case}"),
                other => panic!("mismatch {other:?} on case {case}"),
            }
        }
    }
}

#[test]
fn result_series_partitions_the_domain() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD0_0000 + case);
        let count_tuples: Vec<(Interval, ())> = random_tuples(&mut rng)
            .iter()
            .map(|&(iv, _)| (iv, ()))
            .collect();
        let series = run(AggregationTree::new(Count), count_tuples.iter().copied()).unwrap();
        // First entry starts at the domain start, last ends at ∞, and
        // consecutive entries meet exactly.
        assert_eq!(series.entries()[0].interval.start(), Timestamp::ORIGIN);
        assert!(series.entries().last().unwrap().interval.end().is_forever());
        for w in series.entries().windows(2) {
            assert!(w[0].interval.meets(&w[1].interval), "case {case}");
        }
        // Consecutive constant intervals come from different tuple sets, so
        // after coalescing equal-count neighbours we can only shrink.
        let len = series.len();
        assert!(series.coalesce().len() <= len, "case {case}");
    }
}

#[test]
fn paged_tree_matches_oracle_for_any_region_count() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x9A_0000 + case);
        let tuples = random_tuples(&mut rng);
        let regions = rng.random_range(1usize..40);
        let domain = Interval::at(0, 299);
        let clipped: Vec<(Interval, ())> = tuples
            .iter()
            .filter_map(|&(iv, _)| iv.intersect(&domain).map(|c| (c, ())))
            .collect();
        let expected = oracle(&Count, domain, &clipped);
        let paged = run(
            PagedAggregationTree::new(Count, domain, regions).unwrap(),
            clipped.iter().copied(),
        )
        .unwrap();
        assert_eq!(paged, expected, "regions = {regions}, case {case}");
        // The paged tree is the partition pipeline with a deferred
        // per-region tree: the combinator over eager trees, streamed
        // through `finish_into`, is the same series entry for entry.
        let mut partitioned = PartitionedAggregator::new(domain, regions, |sub| {
            AggregationTree::with_domain(Count, sub)
        });
        for &(iv, ()) in &clipped {
            partitioned.push(iv, ()).unwrap();
        }
        let mut streamed = Series::new();
        partitioned.finish_into(&mut streamed);
        assert_eq!(streamed, paged, "regions = {regions}, case {case}");
    }
}

#[test]
fn ktree_accepts_any_k_at_least_the_measured_k() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x1B_0000 + case);
        let tuples = random_tuples(&mut rng);
        let extra = rng.random_range(0usize..5);
        let ivs: Vec<Interval> = tuples.iter().map(|&(iv, _)| iv).collect();
        let measured = temporal_aggregates::sortedness::k_order(&ivs);
        let k = (measured + extra).max(1);
        let count_tuples: Vec<(Interval, ())> = tuples.iter().map(|&(iv, _)| (iv, ())).collect();
        let expected = oracle(&Count, Interval::TIMELINE, &count_tuples);
        let got = run(
            KOrderedAggregationTree::new(Count, k).unwrap(),
            count_tuples.iter().copied(),
        )
        .unwrap();
        assert_eq!(
            got, expected,
            "measured k = {measured}, used k = {k}, case {case}"
        );
    }
}

#[test]
fn ktree_streaming_equals_batch() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x57_0000 + case);
        // Sort, then stream with k = 1.
        let mut sorted: Vec<(Interval, ())> = random_tuples(&mut rng)
            .iter()
            .map(|&(iv, _)| (iv, ()))
            .collect();
        sorted.sort_by_key(|(iv, ())| (iv.start(), iv.end()));
        let expected = oracle(&Count, Interval::TIMELINE, &sorted);

        let mut tree = KOrderedAggregationTree::new(Count, 1).unwrap();
        let mut streamed = Vec::new();
        for &(iv, ()) in &sorted {
            tree.push(iv, ()).unwrap();
            tree.emit_ready(&mut streamed);
        }
        streamed.extend(tree.finish().into_entries());
        assert_eq!(Series::from_entries(streamed), expected, "case {case}");
    }
}

#[test]
fn agreement_on_paper_workloads() {
    // The paper's workload shapes: each combination of order × long-lived
    // percentage, all algorithms vs the oracle (small n keeps the oracle
    // tractable).
    let orders = [
        TupleOrder::Random,
        TupleOrder::Sorted,
        TupleOrder::KOrdered {
            k: 8,
            percentage: 0.1,
        },
        TupleOrder::RetroactivelyBounded { max_delay: 5_000 },
    ];
    for order in orders {
        for pct in [0u8, 40, 80] {
            let config = WorkloadConfig {
                tuples: 300,
                order,
                long_lived_pct: pct,
                seed: 42,
                ..Default::default()
            };
            let relation = generate(&config);
            let tuples = count_stream(&relation);
            let expected = oracle(&Count, Interval::TIMELINE, &tuples);

            let items = || tuples.iter().copied();
            assert_eq!(
                run(LinkedListAggregate::new(Count), items()).unwrap(),
                expected,
                "linked list on {order:?}/{pct}%"
            );
            assert_eq!(
                run(AggregationTree::new(Count), items()).unwrap(),
                expected,
                "tree on {order:?}/{pct}%"
            );
            let ivs: Vec<Interval> = relation.intervals().collect();
            let k = temporal_aggregates::sortedness::k_order(&ivs).max(1);
            assert_eq!(
                run(KOrderedAggregationTree::new(Count, k).unwrap(), items()).unwrap(),
                expected,
                "k-tree(k={k}) on {order:?}/{pct}%"
            );
            assert_eq!(
                run(BalancedAggregationTree::new(Count), items()).unwrap(),
                expected,
                "balanced on {order:?}/{pct}%"
            );
        }
    }
}

#[test]
fn grouped_aggregation_matches_filtered_runs() {
    // GROUP BY key must equal running the algorithm on each key's subset.
    let relation = generate(&WorkloadConfig::random(400).with_seed(9));
    let name_idx = relation.schema().index_of("name").unwrap();

    let mut grouped = GroupedAggregate::new(|| AggregationTree::new(Count));
    for t in &relation {
        grouped
            .push(t.value(name_idx).clone(), t.valid(), ())
            .unwrap();
    }
    let results = grouped.finish();
    assert!(results.len() > 1);

    for (key, series) in results {
        let subset: Vec<(Interval, ())> = relation
            .iter()
            .filter(|t| t.value(name_idx) == &key)
            .map(|t| (t.valid(), ()))
            .collect();
        let expected = oracle(&Count, Interval::TIMELINE, &subset);
        assert_eq!(series, expected, "group {key}");
    }
}
