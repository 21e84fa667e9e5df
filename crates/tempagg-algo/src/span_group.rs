//! Temporal grouping *by span* — the paper's second kind of temporal
//! partitioning (Section 2: "by a span, a calendar-defined length of time,
//! such as a year") and a future-work item (Section 7).
//!
//! The time-line inside a bounded window is cut into fixed-length spans and
//! the aggregate is computed per span over every tuple overlapping it.
//! Because the number of buckets is fixed up front (and usually far smaller
//! than the number of constant intervals), a flat bucket array suffices —
//! the paper predicts exactly this: "If the number of spans is much smaller
//! than the number of constant intervals, then fewer 'buckets' need to be
//! maintained."

use crate::memory::{MemoryStats, MODEL_POINTER_BYTES};
use crate::traits::TemporalAggregator;
use tempagg_agg::Aggregate;
use tempagg_core::{Interval, Result, SeriesSink, TempAggError};

/// Aggregation grouped by fixed-length spans of a bounded window.
#[derive(Clone, Debug)]
pub struct SpanGrouper<A: Aggregate> {
    agg: A,
    window: Interval,
    span: i64,
    buckets: Vec<A::State>,
    tuples: usize,
}

impl<A: Aggregate> SpanGrouper<A> {
    /// Group `window` into spans of `span_length` instants (the last span
    /// may be shorter). The window must be bounded — a span partition of
    /// `[t, ∞]` would need infinitely many buckets.
    pub fn new(agg: A, window: Interval, span_length: i64) -> Result<Self> {
        if span_length <= 0 {
            return Err(TempAggError::InvalidSpan {
                length: span_length,
            });
        }
        if window.end().is_forever() {
            return Err(TempAggError::InvalidSpan {
                length: span_length,
            });
        }
        // lint: allow(no-as-cast): the quotient is positive (bounded window, positive span) and a bucket count always fits usize
        let n = ((window.duration() + span_length - 1) / span_length) as usize;
        let buckets = (0..n).map(|_| agg.empty_state()).collect();
        Ok(SpanGrouper {
            agg,
            window,
            span: span_length,
            buckets,
            tuples: 0,
        })
    }

    /// Number of spans.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Tuples folded in so far (tuples entirely outside the window are
    /// ignored, not counted).
    pub fn len(&self) -> usize {
        self.tuples
    }

    /// `true` before the first in-window insertion.
    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }

    /// The span interval of bucket `i`.
    fn bucket_interval(&self, i: usize) -> Interval {
        // lint: allow(no-as-cast): bucket indices are derived from an i64 span count, so they convert back losslessly
        let start = self.window.start() + (i as i64 * self.span);
        let end = (start + (self.span - 1)).min(self.window.end());
        // lint: allow(no-unwrap): every bucket starts inside the window and ends no earlier than it starts
        Interval::new(start, end).expect("bucket bounds are valid")
    }
}

impl<A: Aggregate> TemporalAggregator<A> for SpanGrouper<A> {
    fn algorithm(&self) -> &'static str {
        "span-grouping"
    }

    fn domain(&self) -> Interval {
        self.window
    }

    /// Fold a tuple into every span it overlaps. Unlike the instant-grouped
    /// algorithms, tuples need not lie inside the window: the portion
    /// outside is simply ignored (TSQL2 span grouping restricted to a
    /// window behaves the same way).
    fn push(&mut self, interval: Interval, value: A::Input) -> Result<()> {
        let Some(clipped) = interval.intersect(&self.window) else {
            return Ok(());
        };
        // lint: allow(no-as-cast): clipped lies inside the bounded window, so both quotients are non-negative bucket indices
        let lo = (clipped.start().distance_from(self.window.start()) / self.span) as usize;
        // lint: allow(no-as-cast): same bounded-window argument as `lo`
        let hi = (clipped.end().distance_from(self.window.start()) / self.span) as usize;
        for bucket in &mut self.buckets[lo..=hi] {
            self.agg.insert(bucket, &value);
        }
        self.tuples += 1;
        Ok(())
    }

    fn finish_into(self, sink: &mut impl SeriesSink<A::Output>) {
        for (i, bucket) in self.buckets.iter().enumerate() {
            sink.accept(self.bucket_interval(i), self.agg.finish(bucket));
        }
    }

    fn memory(&self) -> MemoryStats {
        MemoryStats {
            live_nodes: self.buckets.len(),
            peak_nodes: self.buckets.len(),
            node_model_bytes: MODEL_POINTER_BYTES + self.agg.state_model_bytes(),
            node_actual_bytes: std::mem::size_of::<A::State>() + std::mem::size_of::<Interval>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_agg::{Count, Sum};

    #[test]
    fn spans_partition_the_window() {
        let g = SpanGrouper::new(Count, Interval::at(0, 99), 25).unwrap();
        assert_eq!(g.bucket_count(), 4);
        let s = g.finish();
        let ivs: Vec<Interval> = s.iter().map(|e| e.interval).collect();
        assert_eq!(
            ivs,
            vec![
                Interval::at(0, 24),
                Interval::at(25, 49),
                Interval::at(50, 74),
                Interval::at(75, 99),
            ]
        );
    }

    #[test]
    fn ragged_final_span() {
        let g = SpanGrouper::new(Count, Interval::at(0, 9), 4).unwrap();
        assert_eq!(g.bucket_count(), 3);
        let s = g.finish();
        assert_eq!(s.entries()[2].interval, Interval::at(8, 9));
    }

    #[test]
    fn tuples_count_in_every_overlapped_span() {
        let mut g = SpanGrouper::new(Count, Interval::at(0, 99), 25).unwrap();
        g.push(Interval::at(10, 60), ()).unwrap(); // spans 0, 1, 2
        g.push(Interval::at(0, 0), ()).unwrap(); // span 0
        g.push(Interval::at(99, 99), ()).unwrap(); // span 3
        let s = g.finish();
        let counts: Vec<u64> = s.iter().map(|e| e.value).collect();
        assert_eq!(counts, vec![2, 1, 1, 1]);
    }

    #[test]
    fn out_of_window_tuples_are_clipped_or_ignored() {
        let mut g = SpanGrouper::new(Count, Interval::at(100, 199), 50).unwrap();
        g.push(Interval::at(0, 99), ()).unwrap(); // entirely before
        assert!(g.is_empty());
        g.push(Interval::at(0, 120), ()).unwrap(); // clipped to [100, 120]
        assert_eq!(g.len(), 1);
        let s = g.finish();
        let counts: Vec<u64> = s.iter().map(|e| e.value).collect();
        assert_eq!(counts, vec![1, 0]);
    }

    #[test]
    fn rejects_bad_configuration() {
        assert!(SpanGrouper::new(Count, Interval::at(0, 9), 0).is_err());
        assert!(SpanGrouper::new(Count, Interval::at(0, 9), -5).is_err());
        assert!(SpanGrouper::new(Count, Interval::TIMELINE, 10).is_err());
    }

    #[test]
    fn sum_per_year_example() {
        // Salaries per "year" of 360 instants.
        let mut g = SpanGrouper::new(Sum::<i64>::new(), Interval::at(0, 1079), 360).unwrap();
        g.push(Interval::at(0, 719), 40_000).unwrap(); // years 0, 1
        g.push(Interval::at(360, 1079), 45_000).unwrap(); // years 1, 2
        let s = g.finish();
        let sums: Vec<Option<i128>> = s.iter().map(|e| e.value).collect();
        assert_eq!(sums, vec![Some(40_000), Some(85_000), Some(45_000)]);
    }

    #[test]
    fn memory_is_bucket_bound() {
        let g = SpanGrouper::new(Count, Interval::at(0, 999_999), 100_000).unwrap();
        assert_eq!(g.memory().peak_nodes, 10);
    }
}
