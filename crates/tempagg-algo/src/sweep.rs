//! The columnar endpoint-sweep algorithm — a linear-time radix sort of
//! the endpoints on time, and a gapless live set.
//!
//! Not in the 1995 paper: this is the modern cache-conscious evaluation
//! strategy of Piatov et al. (arXiv:2008.12665) and Colley et al.'s delta
//! summation (arXiv:2211.05896) applied to grouping by instant. Pushed
//! tuples are buffered into three columnar `(start, end, value)` runs —
//! nothing else happens at push time, so ingest is a column append and
//! [`TemporalAggregator::push_batch`] is a straight column memcpy from a
//! [`Chunk`](tempagg_core::Chunk).
//!
//! At [`finish`](TemporalAggregator::finish) the start and end columns are
//! lowered to bare 16-byte [`EndpointEvent`]s — an admit at each start, a
//! retract at the instant after each end, the tuple index baked into the
//! payload — written in payload order (every retract, then every admit,
//! each in tag order). tempagg-core's [`sort_by_time`] orders them by
//! time with a radix sort on the calling thread: a top-digit scatter into
//! disjoint ascending cache-sized time buckets, then stable counting
//! passes within each bucket. No comparison runs outside buckets of a few
//! hundred events, and stability keeps the payload order at each instant,
//! so the sorted sequence is the total `(time, payload)` order and the
//! emitted series is byte-identical for every bucket count. The values
//! stay in their column: the replay reads `values[tag]`, so the sort moves
//! 16 bytes per event, not the event and a copy of the value, and a
//! `MultiDyn` sweep clones no `Vec<Value>`.
//!
//! The scan is a single forward replay: each admit/retract applies
//! through the slot-handle hooks of [`SweepAggregate`]
//! (`active_insert_slot`/`active_remove_slot`), which the `Ordered`-class
//! extremes back with a gapless dense slot map
//! ([`SlotExtremes`](tempagg_agg::SlotExtremes)) instead of a
//! pointer-chasing multiset — O(1) branch-light updates, allocation-free
//! end to end after one `active_reserve`. Segment boundaries fall out of
//! the replay (a segment closes whenever the event time advances), so the
//! explicit boundary vector is gone too. The output is exactly the same
//! constant intervals as every other algorithm (one entry per boundary
//! segment, not value-coalesced), so the sweep drops into
//! [`PartitionedAggregator`] unchanged and byte-identically. The plan
//! executor does not put it there, nor splits its sort: a sweep's push is
//! a column append, and its linear sort is a small share of its finish,
//! so a sweep plan is one serial kernel, as the cost model prices it.
//!
//! [`PartitionedAggregator`]: crate::parallel::PartitionedAggregator

use crate::memory::{MemoryStats, MODEL_POINTER_BYTES};
use crate::traits::TemporalAggregator;
use tempagg_agg::SweepAggregate;
use tempagg_core::{
    sort_by_time, Chunk, EndpointEvent, Interval, Result, SeriesSink, TempAggError, Timestamp,
};

/// The columnar endpoint-sweep algorithm (radix-sorted events + gapless
/// live set).
///
/// # Example
///
/// ```
/// use tempagg_agg::Sum;
/// use tempagg_algo::{SweepAggregator, TemporalAggregator};
/// use tempagg_core::{Interval, Timestamp};
///
/// let mut sweep = SweepAggregator::new(Sum::<i64>::new());
/// sweep.push(Interval::at(0, 10), 5).unwrap();
/// sweep.push(Interval::at(5, 15), 7).unwrap();
/// let series = sweep.finish();
/// assert_eq!(series.value_at(Timestamp(7)), Some(&Some(12)));
/// ```
#[derive(Clone, Debug)]
pub struct SweepAggregator<A: SweepAggregate> {
    agg: A,
    domain: Interval,
    starts: Vec<Timestamp>,
    ends: Vec<Timestamp>,
    values: Vec<A::Input>,
}

impl<A: SweepAggregate> SweepAggregator<A> {
    /// A sweep over the paper's time-line `[0, ∞]`.
    pub fn new(agg: A) -> Self {
        Self::with_domain(agg, Interval::TIMELINE)
    }

    /// A sweep over an explicit domain.
    pub fn with_domain(agg: A, domain: Interval) -> Self {
        SweepAggregator {
            agg,
            domain,
            starts: Vec::new(),
            ends: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Does nothing: the endpoint sort runs on the calling thread. Kept
    /// only so that existing callers still compile.
    #[deprecated(note = "the endpoint sort is serial; drop the call")]
    #[must_use]
    pub fn with_parallelism(self, _threads: usize) -> Self {
        self
    }

    /// Tuples buffered so far.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }
}

impl<A: SweepAggregate> SweepAggregator<A> {
    /// The buffered tuples' endpoint events in payload order: every
    /// retract, then every admit, each in tag order. Ends at the domain end
    /// need no retract — nothing is ever emitted past them.
    fn endpoint_events(&self) -> Vec<EndpointEvent> {
        let mut events = Vec::with_capacity(2 * self.starts.len());
        for (tag, &end) in (0u64..).zip(&self.ends) {
            if end < self.domain.end() {
                events.push(EndpointEvent::retract(end.next(), tag));
            }
        }
        for (tag, &start) in (0u64..).zip(&self.starts) {
            events.push(EndpointEvent::admit(start, tag));
        }
        events
    }

    /// Finish the sweep, handing `f` each constant interval in time order
    /// with the aggregate and the active state over it: the state
    /// [`finish_into`](TemporalAggregator::finish_into) reads each output
    /// from, for a caller that keeps more of a segment than its value.
    pub fn finish_states(self, mut f: impl FnMut(&A, Interval, &A::Active)) {
        let n = self.starts.len();
        let events = sort_by_time(self.endpoint_events());
        let mut active = self.agg.active_empty();
        self.agg.active_reserve(&mut active, n);
        let mut seg_start = self.domain.start();
        // lint: hot-loop(endpoint-scan) — the event replay (admit/retract + segment emission) must stay allocation-free
        for ev in &events {
            // The event time advanced to `t`: the segment that started at
            // `seg_start` is constant up to the instant before `t`.
            if ev.time > seg_start {
                let segment = Interval::new(seg_start, ev.time.prev())
                    // lint: allow(no-unwrap): events replay in time order, so seg_start < t means seg_start <= t.prev()
                    .expect("event times increase");
                f(&self.agg, segment, &active);
                seg_start = ev.time;
            }
            let slot = usize::try_from(ev.tag()).unwrap_or(usize::MAX);
            // lint: allow(indexing): endpoint_events tags each event with its tuple index in 0..n
            let value = &self.values[slot];
            if ev.is_admit() {
                self.agg.active_insert_slot(&mut active, slot, value);
            } else {
                self.agg.active_remove_slot(&mut active, slot, value);
            }
        }
        // The final segment runs to the domain end. Every event time lies
        // within the domain (admits are covered starts; retracts only
        // exist below the domain end), so seg_start <= domain.end().
        // lint: allow(no-unwrap): seg_start never exceeds the domain end, see above
        let last = Interval::new(seg_start, self.domain.end()).expect("domain covers the tail");
        f(&self.agg, last, &active);
    }
}

impl<A: SweepAggregate> TemporalAggregator<A> for SweepAggregator<A> {
    fn algorithm(&self) -> &'static str {
        "endpoint-sweep"
    }

    fn domain(&self) -> Interval {
        self.domain
    }

    fn push(&mut self, interval: Interval, value: A::Input) -> Result<()> {
        if !self.domain.covers(&interval) {
            return Err(TempAggError::OutOfDomain {
                tuple: (interval.start(), interval.end()),
                domain: (self.domain.start(), self.domain.end()),
            });
        }
        self.starts.push(interval.start());
        self.ends.push(interval.end());
        self.values.push(value);
        Ok(())
    }

    /// Batched insert: a straight column append — three `memcpy`-style
    /// `extend_from_slice` calls via
    /// [`Chunk::append_columns_to`](tempagg_core::Chunk::append_columns_to).
    /// The whole batch is domain-checked before any column is touched.
    fn push_batch(&mut self, chunk: &Chunk<A::Input>) -> Result<()>
    where
        A::Input: Clone,
    {
        if let Some(outside) = chunk.first_outside(self.domain) {
            return Err(TempAggError::OutOfDomain {
                tuple: (outside.start(), outside.end()),
                domain: (self.domain.start(), self.domain.end()),
            });
        }
        chunk.append_columns_to(&mut self.starts, &mut self.ends, &mut self.values);
        Ok(())
    }

    fn finish_into(self, sink: &mut impl SeriesSink<A::Output>) {
        #[cfg(feature = "validate")]
        let sink = &mut crate::validate::CheckedSink::new(sink, self.domain, "endpoint-sweep");
        self.finish_states(|agg, segment, active| sink.accept(segment, agg.active_output(active)));
        #[cfg(feature = "validate")]
        sink.finish();
    }

    fn memory(&self) -> MemoryStats {
        MemoryStats {
            live_nodes: self.starts.len(),
            peak_nodes: self.starts.len(),
            // One buffered run: two timestamps plus the aggregate value
            // under the paper's 4-byte-word model. No pointers — that is
            // the point of the columnar layout.
            node_model_bytes: MODEL_POINTER_BYTES + self.agg.state_model_bytes(),
            node_actual_bytes: 2 * std::mem::size_of::<Timestamp>()
                + std::mem::size_of::<A::Input>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle;
    use crate::AggregationTree;
    use tempagg_agg::{Count, Max, Min, Sum};

    fn employed_sweep() -> SweepAggregator<Count> {
        let mut s = SweepAggregator::new(Count);
        s.push(Interval::from_start(18), ()).unwrap();
        s.push(Interval::at(8, 20), ()).unwrap();
        s.push(Interval::at(7, 12), ()).unwrap();
        s.push(Interval::at(18, 21), ()).unwrap();
        s
    }

    #[test]
    fn table1_result() {
        let s = employed_sweep().finish();
        let rows: Vec<(Interval, u64)> = s.iter().map(|e| (e.interval, e.value)).collect();
        assert_eq!(
            rows,
            vec![
                (Interval::at(0, 6), 0),
                (Interval::at(7, 7), 1),
                (Interval::at(8, 12), 2),
                (Interval::at(13, 17), 1),
                (Interval::at(18, 20), 3),
                (Interval::at(21, 21), 2),
                (Interval::from_start(22), 1),
            ]
        );
    }

    #[test]
    fn empty_sweep_emits_domain() {
        let s: SweepAggregator<Count> = SweepAggregator::with_domain(Count, Interval::at(0, 9));
        assert!(s.is_empty());
        let out = s.finish();
        assert_eq!(out.len(), 1);
        assert_eq!(out.entries()[0].interval, Interval::at(0, 9));
        assert_eq!(out.entries()[0].value, 0);
    }

    #[test]
    fn out_of_domain_rejected() {
        let mut s = SweepAggregator::with_domain(Count, Interval::at(10, 20));
        assert!(s.push(Interval::at(5, 15), ()).is_err());
        assert_eq!(s.len(), 0);
        assert!(s.push(Interval::at(10, 20), ()).is_ok());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn push_batch_is_column_append() {
        let mut chunk: Chunk<i64> = Chunk::with_capacity(8);
        chunk.push(Interval::at(0, 10), 5).unwrap();
        chunk.push(Interval::at(5, 15), 7).unwrap();

        let mut batched = SweepAggregator::new(Sum::<i64>::new());
        batched.push_batch(&chunk).unwrap();
        assert_eq!(batched.len(), 2);

        let mut serial = SweepAggregator::new(Sum::<i64>::new());
        for (iv, v) in &chunk {
            serial.push(iv, *v).unwrap();
        }
        assert_eq!(batched.finish().entries(), serial.finish().entries());
    }

    #[test]
    fn push_batch_checks_whole_batch_first() {
        let mut chunk: Chunk<i64> = Chunk::with_capacity(8);
        chunk.push(Interval::at(0, 10), 1).unwrap();
        chunk.push(Interval::at(90, 120), 2).unwrap();
        let mut s = SweepAggregator::with_domain(Sum::<i64>::new(), Interval::at(0, 100));
        assert!(s.push_batch(&chunk).is_err());
        // Nothing was ingested — not even the in-domain tuple.
        assert!(s.is_empty());
    }

    #[test]
    fn min_multiset_survives_duplicate_values() {
        // Two tuples with the same value; one expires first. A naive
        // extremum would lose the survivor.
        let mut s = SweepAggregator::with_domain(Min::<i64>::new(), Interval::at(0, 30));
        s.push(Interval::at(0, 10), 5).unwrap();
        s.push(Interval::at(0, 20), 5).unwrap();
        s.push(Interval::at(0, 30), 9).unwrap();
        let out = s.finish();
        let rows: Vec<(Interval, Option<i64>)> =
            out.iter().map(|e| (e.interval, e.value)).collect();
        assert_eq!(
            rows,
            vec![
                (Interval::at(0, 10), Some(5)),
                (Interval::at(11, 20), Some(5)),
                (Interval::at(21, 30), Some(9)),
            ]
        );
    }

    #[test]
    fn duplicate_endpoints_collapse_to_one_boundary() {
        let mut s = SweepAggregator::new(Count);
        s.push(Interval::at(5, 9), ()).unwrap();
        s.push(Interval::at(5, 9), ()).unwrap();
        let out = s.finish();
        let rows: Vec<(Interval, u64)> = out.iter().map(|e| (e.interval, e.value)).collect();
        assert_eq!(
            rows,
            vec![
                (Interval::at(0, 4), 0),
                (Interval::at(5, 9), 2),
                (Interval::from_start(10), 0),
            ]
        );
    }

    #[test]
    fn matches_oracle_on_touching_intervals() {
        let tuples = vec![
            (Interval::at(0, 9), 3i64),
            (Interval::at(10, 19), 4),
            (Interval::at(20, 20), 5),
        ];
        let domain = Interval::at(0, 25);
        let mut s = SweepAggregator::with_domain(Max::<i64>::new(), domain);
        for (iv, v) in &tuples {
            s.push(*iv, *v).unwrap();
        }
        let want = oracle(&Max::<i64>::new(), domain, &tuples);
        assert_eq!(s.finish().entries(), want.entries());
    }

    #[test]
    fn forever_end_needs_no_boundary() {
        let mut s = SweepAggregator::new(Count);
        s.push(Interval::from_start(5), ()).unwrap();
        let out = s.finish();
        assert_eq!(out.len(), 2);
        assert_eq!(out.entries()[1].interval, Interval::from_start(5));
        assert_eq!(out.entries()[1].value, 1);
    }

    #[test]
    fn memory_reports_columnar_runs() {
        let s = employed_sweep();
        let m = s.memory();
        assert_eq!(m.live_nodes, 4);
        assert_eq!(m.peak_nodes, 4);
        // Two 4-byte timestamps + COUNT's 4-byte state under the paper's
        // model: 12 bytes per run, pointer-free.
        assert_eq!(m.node_model_bytes, 12);
    }

    #[test]
    fn agrees_with_the_aggregation_tree_across_sort_buckets() {
        // A seeded workload big enough to exercise the scatter path (about
        // 20,000 events, two buckets): the series must be byte-identical
        // to the aggregation tree's (an independent, oracle-tied algorithm).
        let mut state = 0x243f6a8885a308d3u64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let domain = Interval::at(0, 200_000);
        let mut tuples = Vec::new();
        for _ in 0..10_000 {
            let start = i64::try_from(step() % 190_000).unwrap();
            let width = i64::try_from(step() % 5_000).unwrap();
            let iv = Interval::at(start, (start + width).min(200_000));
            let v = i64::try_from(step() % 1_000).unwrap();
            tuples.push((iv, v));
        }
        let mut tree = AggregationTree::with_domain(Sum::<i64>::new(), domain);
        for (iv, v) in &tuples {
            tree.push(*iv, *v).unwrap();
        }
        let want = tree.finish();
        let mut sweep = SweepAggregator::with_domain(Sum::<i64>::new(), domain);
        for (iv, v) in &tuples {
            sweep.push(*iv, *v).unwrap();
        }
        assert_eq!(sweep.finish().entries(), want.entries());
    }

    #[test]
    fn one_bucket_of_radix_passes_agrees_with_the_aggregation_tree() {
        // 12,000 events with duplicate endpoints: one bucket of radix
        // passes (several buckets are
        // `the_radix_sort_equals_a_comparison_sort`'s sizes past 16 Ki).
        let domain = Interval::at(0, 1_000_000);
        let mut sweep = SweepAggregator::with_domain(Count, domain);
        let mut tree = AggregationTree::with_domain(Count, domain);
        for i in 0..6_000i64 {
            let iv = Interval::at((i * 97) % 900_000, (i * 97) % 900_000 + 50_000);
            sweep.push(iv, ()).unwrap();
            tree.push(iv, ()).unwrap();
        }
        assert_eq!(sweep.finish().entries(), tree.finish().entries());
    }

    /// A tuple's admit time and, when it retracts, its retract time.
    type Endpoints = (Timestamp, Option<Timestamp>);

    /// Events as the sweep lowers them: every retract (for tuples with
    /// one), then every admit, each in tag order.
    fn lowered(tuples: &[Endpoints]) -> Vec<EndpointEvent> {
        let retracts = (0u64..)
            .zip(tuples)
            .filter_map(|(tag, &(_, end))| end.map(|t| EndpointEvent::retract(t, tag)));
        let admits = (0u64..)
            .zip(tuples)
            .map(|(tag, &(start, _))| EndpointEvent::admit(start, tag));
        retracts.chain(admits).collect()
    }

    #[test]
    fn the_radix_sort_equals_a_comparison_sort() {
        let mut state = 0x452821e638d01377u64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut shapes: Vec<(&str, Vec<Endpoints>)> = Vec::new();
        // Sizes at and around the comparison-sort cutoff (256 records)
        // and the top digit's bucket boundaries (16 Ki records a bucket;
        // about 1.8 events a tuple).
        for n in [
            0usize, 1, 2, 127, 128, 129, 255, 256, 300, 9_000, 9_102, 9_200, 20_000,
        ] {
            let mut random = |span: u64| -> Vec<Endpoints> {
                (0..n)
                    .map(|_| {
                        let start = i64::try_from(step() % span).unwrap();
                        let width = i64::try_from(step() % 64).unwrap();
                        let end = (step() % 5 != 0).then(|| Timestamp(start + width + 1));
                        (Timestamp(start), end)
                    })
                    .collect()
            };
            shapes.push(("sparse", random(1 << 40)));
            shapes.push(("dense", random(u64::try_from(n).unwrap() / 2 + 1)));
            shapes.push(("all equal", vec![(Timestamp(9), Some(Timestamp(9))); n]));
            let mut outlier = random(1_000);
            if let Some(first) = outlier.first_mut() {
                *first = (Timestamp(3), Some(Timestamp(1 << 50)));
            }
            shapes.push(("one far outlier", outlier));
            let mut extreme = random(1 << 62);
            for (i, t) in extreme.iter_mut().enumerate().take(4) {
                let lo = if i % 2 == 0 {
                    Timestamp::MIN
                } else {
                    Timestamp::ORIGIN
                };
                *t = (lo, Some(Timestamp::FOREVER));
            }
            shapes.push(("to FOREVER", extreme));
        }
        for (shape, tuples) in &shapes {
            let events = lowered(tuples);
            let mut want = events.clone();
            want.sort_unstable();
            let len = events.len();
            assert!(sort_by_time(events) == want, "{shape}, {len} events");
        }
    }

    #[test]
    fn at_one_instant_retracts_come_first_and_tags_ascend() {
        // Many tuples touching at t = 1,000: each ends at 999 (retracts at
        // 1,000) or starts there, more than a comparison-sorted run holds.
        let tuples: Vec<Endpoints> = (0..3_000i64)
            .map(|i| {
                if i % 3 == 0 {
                    (Timestamp(1_000), None)
                } else {
                    (Timestamp(i % 7), Some(Timestamp(1_000)))
                }
            })
            .collect();
        let sorted = sort_by_time(lowered(&tuples));
        let at: Vec<&EndpointEvent> = sorted
            .iter()
            .filter(|e| e.time == Timestamp(1_000))
            .collect();
        assert_eq!(at.len(), 3_000);
        assert!(at
            .windows(2)
            .all(|w| (w[0].is_admit(), w[0].tag()) < (w[1].is_admit(), w[1].tag())));
        assert!(!at[1_999].is_admit() && at[2_000].is_admit());
    }

    #[test]
    fn lowered_events_sort_to_the_total_order() {
        // Touching tuples: most instants hold retracts and admits both, in
        // more events than a comparison-sorted run holds. The radix sort
        // keeps the builder's order at each instant, so this holds only if
        // that order is payload order.
        let mut sweep = SweepAggregator::with_domain(Count, Interval::at(0, 150));
        for i in 0..2_000i64 {
            let start = (i * 37) % 97;
            sweep.push(Interval::at(start, start + i % 5), ()).unwrap();
        }
        let events = sweep.endpoint_events();
        let mut want = events.clone();
        want.sort_unstable();
        assert!(sort_by_time(events) == want);
    }
}
