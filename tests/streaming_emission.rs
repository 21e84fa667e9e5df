//! Integration tests for the streaming result path: `finish_into` /
//! `emit_ready` must emit exactly the entries `finish` materializes, for
//! every algorithm and every aggregate, a partitioned run must stream what
//! the serial run of its inner algorithm collects, and `StitchSink` must
//! handle the degenerate part lists the partitioned path can produce.

use temporal_aggregates::prelude::*;
use temporal_aggregates::{Aggregate, SeriesEntry, SweepAggregate};

const DOMAIN_END: i64 = 4_000;

fn domain() -> Interval {
    Interval::at(0, DOMAIN_END)
}

/// Deterministic 16-ordered `(interval, value)` tuples inside `domain()`:
/// starts advance by 2 with a bounded backward jitter, so the k-ordered
/// tree at `k = 16` accepts them while the stream is still genuinely
/// unsorted.
fn tuples(n: usize) -> Vec<(Interval, i64)> {
    (0..n as i64)
        .map(|i| {
            let jitter = (i * 7) % 11;
            let start = (i * 2 - jitter).max(0);
            let len = 5 + (i % 37);
            (Interval::at(start, start + len), i % 23 - 11)
        })
        .collect()
}

/// Assert the three result paths agree for one aggregator constructor:
/// materialized `finish`, `finish_into` a collecting [`Series`], and a
/// bounded [`ChunkedSink`] with `emit_ready` interleaved into the feed.
fn assert_streaming_matches<A, G, F>(make: F, tuples: &[(Interval, A::Input)])
where
    A: Aggregate,
    A::Input: Clone,
    A::Output: Clone + PartialEq + std::fmt::Debug,
    G: TemporalAggregator<A>,
    F: Fn() -> G,
{
    let mut materialized = make();
    for (interval, value) in tuples {
        materialized.push(*interval, value.clone()).unwrap();
    }
    let name = materialized.algorithm();
    let batch = materialized.finish();

    let mut collector = make();
    for (interval, value) in tuples {
        collector.push(*interval, value.clone()).unwrap();
    }
    let mut collected = Series::new();
    collector.finish_into(&mut collected);
    assert_eq!(batch, collected, "{name}: finish_into(Series) != finish");

    let mut streamed: Vec<SeriesEntry<A::Output>> = Vec::new();
    {
        let mut chunked = make();
        let mut sink = ChunkedSink::new(64, |chunk: &[SeriesEntry<A::Output>]| {
            streamed.extend_from_slice(chunk);
        });
        for (batch_no, window) in tuples.chunks(256).enumerate() {
            for (interval, value) in window {
                chunked.push(*interval, value.clone()).unwrap();
            }
            if batch_no % 2 == 0 {
                chunked.emit_ready(&mut sink);
            }
        }
        chunked.finish_into(&mut sink);
        sink.flush();
    }
    assert_eq!(
        batch.entries(),
        &streamed[..],
        "{name}: emit_ready + finish_into through ChunkedSink != finish"
    );
}

/// Run the agreement check across every algorithm the aggregate supports:
/// linked list, aggregation tree, k-ordered tree, endpoint sweep, and the
/// partitioned combinator at 1, 2, and 8 partitions.
fn assert_all_algorithms_agree<A>(agg: A, tuples: &[(Interval, A::Input)])
where
    A: Aggregate + SweepAggregate + Clone + Send + Sync,
    A::Input: Clone + Send + Sync,
    A::Output: Clone + PartialEq + Send + std::fmt::Debug,
    A::State: Send,
{
    assert_streaming_matches(
        || LinkedListAggregate::with_domain(agg.clone(), domain()),
        tuples,
    );
    assert_streaming_matches(
        || AggregationTree::with_domain(agg.clone(), domain()),
        tuples,
    );
    assert_streaming_matches(
        || KOrderedAggregationTree::with_domain(agg.clone(), 16, domain()).unwrap(),
        tuples,
    );
    assert_streaming_matches(
        || SweepAggregator::with_domain(agg.clone(), domain()),
        tuples,
    );
    for partitions in [1usize, 2, 8] {
        assert_streaming_matches(
            || {
                PartitionedAggregator::new(domain(), partitions, |sub| {
                    AggregationTree::with_domain(agg.clone(), sub)
                })
            },
            tuples,
        );
    }
}

#[test]
fn count_streams_identically_across_algorithms() {
    let unit: Vec<(Interval, ())> = tuples(1_500)
        .into_iter()
        .map(|(interval, _)| (interval, ()))
        .collect();
    assert_all_algorithms_agree(Count, &unit);
}

#[test]
fn sum_streams_identically_across_algorithms() {
    assert_all_algorithms_agree(Sum::<i64>::new(), &tuples(1_500));
}

#[test]
fn min_streams_identically_across_algorithms() {
    assert_all_algorithms_agree(Min::<i64>::new(), &tuples(1_500));
}

#[test]
fn max_streams_identically_across_algorithms() {
    assert_all_algorithms_agree(Max::<i64>::new(), &tuples(1_500));
}

#[test]
fn avg_streams_identically_across_algorithms() {
    assert_all_algorithms_agree(Avg::<i64>::new(), &tuples(1_500));
}

/// A partitioned run has one schedule: `finish_into` streams the partitions
/// one after another through a `StitchSink`. One seam below is real (a
/// tuple starts at it) and one artificial (only a long tuple spans it);
/// drained one entry at a time, the stream must equal the serial run of the
/// inner algorithm over the whole domain, for every inner algorithm the
/// executor partitions — and under `--features validate` this is the run
/// that puts the checking sink adapter on the schedule SQL scans take.
#[test]
fn partitioned_finish_into_streams_what_finish_collects() {
    fn check<G: TemporalAggregator<Sum<i64>> + Send>(make: impl Fn(Interval) -> G) {
        let mut rows = vec![(domain(), 1)];
        rows.extend(tuples(1_000));
        let real = rows[500].0.start();
        let artificial = Timestamp(3_000);
        let mut serial = make(domain());
        let seams = vec![real, artificial];
        let mut parts = PartitionedAggregator::with_seams(domain(), seams, &make).unwrap();
        for &(interval, value) in &rows {
            serial.push(interval, value).unwrap();
            parts.push(interval, value).unwrap();
        }
        let collected = serial.finish();
        let mut streamed = Vec::new();
        let mut sink = ChunkedSink::new(1, |chunk: &[SeriesEntry<Option<i64>>]| {
            assert_eq!(chunk.len(), 1);
            streamed.extend_from_slice(chunk);
        });
        parts.finish_into(&mut sink);
        assert_eq!(sink.peak_resident(), 1);
        assert_eq!(collected.entries(), &streamed[..]);
        let starts_at = |t| streamed.iter().any(|e| e.interval.start() == t);
        assert!(starts_at(real) && !starts_at(artificial));
    }
    let sum = Sum::<i64>::new;
    check(|sub| SweepAggregator::with_domain(sum(), sub));
    check(|sub| AggregationTree::with_domain(sum(), sub));
    check(|sub| KOrderedAggregationTree::with_domain(sum(), 16, sub).unwrap());
}

// ---------------------------------------------------------------------------
// StitchSink edge cases — the seams the partitioned path streams through it.
// ---------------------------------------------------------------------------

/// Stream `parts` through a `StitchSink` as a partitioned run does: one
/// `seam(allow)` call between consecutive parts.
fn stitch(parts: Vec<Series<i64>>, allow: bool) -> Series<i64> {
    let mut sink = StitchSink::new(Series::new());
    for (p, part) in parts.into_iter().enumerate() {
        if p > 0 {
            sink.seam(allow);
        }
        for entry in part {
            sink.accept(entry.interval, entry.value);
        }
    }
    sink.finish()
}

#[test]
fn stitch_of_no_parts_is_empty() {
    let out: Series<i64> = stitch(Vec::new(), true);
    assert!(out.is_empty());
    assert_eq!(out.len(), 0);
}

#[test]
fn stitch_of_single_part_is_identity() {
    let mut part = Series::new();
    part.push(Interval::at(0, 4), 1);
    part.push(Interval::at(5, 9), 2);
    let expected = part.clone();
    assert_eq!(stitch(vec![part], true), expected);
}

#[test]
fn stitch_of_all_empty_parts_is_empty() {
    let parts: Vec<Series<i64>> = vec![Series::new(), Series::new(), Series::new()];
    let out = stitch(parts, true);
    assert!(out.is_empty());
}

#[test]
fn stitch_merges_equal_values_across_a_seam() {
    let mut left = Series::new();
    left.push(Interval::at(0, 9), 7);
    let mut right = Series::new();
    right.push(Interval::at(10, 20), 7);
    let out = stitch(vec![left, right], true);
    assert_eq!(out.entries(), &[SeriesEntry::new(Interval::at(0, 20), 7)]);
}

#[test]
fn stitch_keeps_unequal_values_across_a_seam() {
    let mut left = Series::new();
    left.push(Interval::at(0, 9), 7);
    let mut right = Series::new();
    right.push(Interval::at(10, 20), 8);
    let out = stitch(vec![left, right], true);
    assert_eq!(
        out.entries(),
        &[
            SeriesEntry::new(Interval::at(0, 9), 7),
            SeriesEntry::new(Interval::at(10, 20), 8),
        ]
    );
}

#[test]
fn stitch_sink_keeps_equal_values_when_the_seam_is_a_real_boundary() {
    let mut left = Series::new();
    left.push(Interval::at(0, 9), 7);
    let mut right = Series::new();
    right.push(Interval::at(10, 20), 7);
    // Forbid merging across the seam: the cut is a real constant-interval
    // boundary and must survive even though the values match.
    let out = stitch(vec![left, right], false);
    assert_eq!(
        out.entries(),
        &[
            SeriesEntry::new(Interval::at(0, 9), 7),
            SeriesEntry::new(Interval::at(10, 20), 7),
        ]
    );
}

#[test]
fn stitch_sink_agrees_with_stitch_on_streamed_parts() {
    let mut left = Series::new();
    left.push(Interval::at(0, 9), 1);
    left.push(Interval::at(10, 15), 2);
    let mut right = Series::new();
    right.push(Interval::at(16, 30), 2);
    right.push(Interval::at(31, 40), 3);

    // Only the entries meeting at the seam merge; interior ones stay apart.
    let mut expected = Series::new();
    expected.push(Interval::at(0, 9), 1);
    expected.push(Interval::at(10, 30), 2);
    expected.push(Interval::at(31, 40), 3);
    assert_eq!(stitch(vec![left, right], true), expected);
}
