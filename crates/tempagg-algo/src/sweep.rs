//! The columnar endpoint-sweep algorithm, v2 — cache-partitioned sort,
//! gapless live set, O(n log n) worst case.
//!
//! Not in the 1995 paper: this is the modern cache-conscious evaluation
//! strategy of Piatov et al. (arXiv:2008.12665) and Colley et al.'s delta
//! summation (arXiv:2211.05896) applied to grouping by instant. Pushed
//! tuples are buffered into three columnar `(start, end, value)` runs —
//! nothing else happens at push time, so ingest is a column append and
//! [`TemporalAggregator::push_batch`] is a straight column memcpy from a
//! [`Chunk`](tempagg_core::Chunk).
//!
//! At [`finish`](TemporalAggregator::finish) the runs are lowered
//! straight into time-bucketed `(event, value)` pairs — an admit at each
//! start, a retract at the instant after each end, the tuple index baked
//! into the 16-byte [`EndpointEvent`] payload and a copy of the tuple's
//! value riding alongside — and each bucket is sorted once, directly. The
//! first version of this kernel (deleted) paid three sorts (a boundary
//! sort-and-dedup plus two indirect permutation sorts whose comparisons
//! chase random-access keys) and a double-indirect scan; this one pays
//! one sort of flat self-contained records. The fused
//! build-and-scatter ([`scatter_event_pairs`]) radix-partitions the
//! pairs into disjoint ascending [`TimeBuckets`] sized to L2 as it
//! builds them — no intermediate event array — so each `sort_unstable`
//! run stays cache-resident; buckets sort in parallel via [`scoped_map`]
//! and concatenate without a merge pass. When the event times are dense
//! — span smaller than a small multiple of the event count, the common
//! shape for long-lived relations over a bounded lifespan — the scatter
//! sharpens into a per-instant counting sort that emits the total
//! `(time, payload)` order directly and skips the comparison sorts
//! entirely. Carrying the value inside the
//! pair means the replay below never random-accesses a values column:
//! every pass (scatter, per-bucket sort, scan) is sequential or
//! bucket-local. Because the event order is total (tags are unique), the
//! sorted sequence — and therefore the emitted series — is byte-identical
//! for every thread and bucket count.
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
//! segment, not value-coalesced), so v2 drops into
//! [`PartitionedAggregator`] unchanged and byte-identically. The plan
//! executor does not put it there: a sweep's work is this finish-time
//! sort, so a parallel sweep plan is one kernel with
//! [`SweepAggregator::with_parallelism`], as the cost model prices it.
//!
//! [`PartitionedAggregator`]: crate::parallel::PartitionedAggregator

use crate::memory::{MemoryStats, MODEL_POINTER_BYTES};
use crate::parallel::scoped_map;
use crate::traits::TemporalAggregator;
use tempagg_agg::SweepAggregate;
use tempagg_core::{
    scatter_by_time, Chunk, EndpointEvent, Interval, Result, SeriesSink, TempAggError, TimeBuckets,
    Timestamp,
};

/// Below this many events a partitioned sort cannot recoup the scatter
/// pass; sort directly.
const PARALLEL_SORT_MIN: usize = 8 * 1024;

/// Upper bound passed to [`scatter_by_time`]; the scatter itself clamps
/// to one bucket per ~16 Ki events, so this only caps degenerate cases.
const MAX_SORT_BUCKETS: usize = 4096;

/// Sort endpoint events into one globally ordered array.
///
/// With `threads <= 1` or a small input this is a single direct
/// `sort_unstable`. Otherwise the events are radix-scattered into
/// disjoint ascending time buckets sized to stay L2-resident and each
/// bucket is sorted independently on the [`scoped_map`] worker pool;
/// concatenation (in place — the buckets are contiguous) is already the
/// global order, no merge needed. The result is identical in every mode:
/// the `(time, payload)` key is a total order.
pub(crate) fn sort_endpoint_events(
    mut events: Vec<EndpointEvent>,
    threads: usize,
) -> Vec<EndpointEvent> {
    if events.len() < PARALLEL_SORT_MIN {
        events.sort_unstable();
        return events;
    }
    let (mut scattered, offsets) = scatter_by_time(&events, MAX_SORT_BUCKETS);
    let mut runs: Vec<&mut [EndpointEvent]> = Vec::with_capacity(offsets.len());
    let mut rest: &mut [EndpointEvent] = &mut scattered;
    let mut prev = 0usize;
    for &off in offsets.iter().skip(1) {
        let (run, tail) = rest.split_at_mut(off - prev);
        runs.push(run);
        rest = tail;
        prev = off;
    }
    scoped_map(runs, threads, |run: &mut [EndpointEvent]| {
        run.sort_unstable();
    });
    scattered
}

/// Past this ratio of time-span to event count a per-instant counting
/// scatter would touch more memory than the comparison sort it replaces;
/// the sparse regime keeps the bucketed comparison sort instead.
const DENSE_SPAN_FACTOR: i128 = 2;

/// The lowered, time-ordered event stream of a sweep.
///
/// Both shapes carry a clone of each tuple's value next to its events,
/// so the replay in `finish_states` never random-accesses a values column.
enum LoweredEvents<V> {
    /// Dense regime: the event time is positional. `pairs` holds bare
    /// `(payload, value)` words grouped by instant;
    /// `group_ends[i]` is the end offset of the group for instant
    /// `lo + i` (its start is the previous group's end). Groups are
    /// already in the total `(time, payload)` order — retracts were
    /// scattered before admits, tuples in tag order — so no sort runs.
    Dense {
        pairs: Vec<(u64, V)>,
        group_ends: Vec<u32>,
        lo: i64,
    },
    /// Sparse regime: whole 16-byte [`EndpointEvent`]s, radix-scattered
    /// into ascending cache-sized bucket runs
    /// (`pairs[offsets[b]..offsets[b + 1]]`), each still needing its own
    /// sort.
    Sparse {
        pairs: Vec<(EndpointEvent, V)>,
        offsets: Vec<usize>,
    },
}

/// Lower columnar `(start, end, value)` runs straight into time-ordered
/// `(event, value)` pairs — the fused build-and-scatter step of the v2
/// sort. Ends at `domain_end` (or `FOREVER`) need no retract — nothing
/// is ever emitted past them.
///
/// The regime is chosen by the density of the event times: a span
/// smaller than [`DENSE_SPAN_FACTOR`] × the event count takes the
/// per-instant counting scatter ([`LoweredEvents::Dense`], sort-free);
/// anything wider takes the [`TimeBuckets`] radix scatter into at most
/// `max_buckets` runs ([`LoweredEvents::Sparse`]). With
/// `max_buckets == 1` the sparse scatter degenerates to a plain build,
/// which is what small inputs use. Both regimes replay to the same
/// series — the event order is total.
fn lower_events<V: Clone>(
    starts: &[Timestamp],
    ends: &[Timestamp],
    values: &[V],
    domain_end: Timestamp,
    max_buckets: usize,
) -> LoweredEvents<V> {
    // Pass 1: the event-time range and the event count.
    let mut lo = i64::MAX;
    let mut hi = i64::MIN;
    let mut n_events = 0usize;
    for (&start, &end) in starts.iter().zip(ends.iter()) {
        lo = lo.min(start.get());
        hi = hi.max(start.get());
        n_events += 1;
        if end < domain_end {
            hi = hi.max(end.next().get());
            n_events += 1;
        }
    }
    if n_events == 0 {
        return LoweredEvents::Sparse {
            pairs: Vec::new(),
            offsets: vec![0],
        };
    }
    let span = i128::from(hi) - i128::from(lo);
    // The u32 bound keeps the counting scatter's cursor array half the
    // size of a usize one (it is hammered with random accesses); inputs
    // past 4 Gi events take the sparse path instead.
    let n_events_wide = i128::try_from(n_events).unwrap_or(i128::MAX);
    if span < DENSE_SPAN_FACTOR * n_events_wide && u32::try_from(n_events).is_ok() {
        let span_len = usize::try_from(span).unwrap_or(usize::MAX);
        let (pairs, group_ends) =
            counting_scatter(starts, ends, values, domain_end, lo, span_len, n_events);
        return LoweredEvents::Dense {
            pairs,
            group_ends,
            lo,
        };
    }
    let layout = TimeBuckets::layout(Timestamp(lo), Timestamp(hi), n_events, max_buckets);

    // Pass 2: per-bucket counts, then exclusive prefix sums as both the
    // returned offsets and (cloned below) the write cursors.
    let mut counts = vec![0usize; layout.count()];
    for (&start, &end) in starts.iter().zip(ends.iter()) {
        // lint: allow(indexing): bucket_of is < count() for in-range times by construction
        counts[layout.bucket_of(start)] += 1;
        if end < domain_end {
            // lint: allow(indexing): same bucket bound as above
            counts[layout.bucket_of(end.next())] += 1;
        }
    }
    let mut offsets = Vec::with_capacity(layout.count() + 1);
    let mut total = 0usize;
    for &c in &counts {
        offsets.push(total);
        total += c;
    }
    offsets.push(total);

    // Pass 3: scatter. The placeholder fill is one sequential pass and
    // every slot is overwritten exactly once.
    let mut cursors = offsets.clone();
    cursors.pop();
    // lint: allow(indexing): n_events > 0 implies at least one tuple, so values is non-empty
    let placeholder = (
        EndpointEvent::retract(Timestamp::ORIGIN, 0),
        values[0].clone(),
    );
    let mut out: Vec<(EndpointEvent, V)> = vec![placeholder; n_events];
    for (idx, ((&start, &end), value)) in starts
        .iter()
        .zip(ends.iter())
        .zip(values.iter())
        .enumerate()
    {
        let tag = u64::try_from(idx).unwrap_or(u64::MAX);
        let b = layout.bucket_of(start);
        // lint: allow(indexing): b < buckets and cursors[b] < offsets[b + 1] ≤ len by the counting pass
        out[cursors[b]] = (EndpointEvent::admit(start, tag), value.clone());
        // lint: allow(indexing): same bucket bound as above
        cursors[b] += 1;
        if end < domain_end {
            let at = end.next();
            let b = layout.bucket_of(at);
            // lint: allow(indexing): same counting-pass bound as the admit arm
            out[cursors[b]] = (EndpointEvent::retract(at, tag), value.clone());
            // lint: allow(indexing): same bucket bound as above
            cursors[b] += 1;
        }
    }
    LoweredEvents::Sparse {
        pairs: out,
        offsets,
    }
}

/// The dense-regime scatter: one group per instant in `[lo, lo + span]`,
/// retracts written before admits, tuples visited in tag order — the
/// output is already in the total `(time, payload)` order. This is a
/// counting sort, O(events + span) with no comparisons, which is why the
/// caller only takes it when the span is small relative to the event
/// count. The event time is not stored at all: it is recovered
/// positionally from the returned per-instant group ends (after the
/// scatter, cursor `i` has advanced to the end of instant `i`'s group),
/// shrinking each stored pair to a bare `(payload, value)`.
/// The per-instant cursor slot of time `t`: its offset from the dense
/// range's first instant. The caller's range pass proves every admit and
/// retract time lies in `[lo, lo + span]`, so the subtraction cannot
/// underflow and the result indexes the cursor array.
#[inline]
fn dense_slot(t: Timestamp, lo: i64) -> usize {
    // lint: allow(no-raw-i64-arith): the dense regime is positional by design — the slot IS the raw offset from lo
    usize::try_from(t.get() - lo).unwrap_or(0)
}

#[allow(clippy::type_complexity)]
fn counting_scatter<V: Clone>(
    starts: &[Timestamp],
    ends: &[Timestamp],
    values: &[V],
    domain_end: Timestamp,
    lo: i64,
    span: usize,
    n_events: usize,
) -> (Vec<(u64, V)>, Vec<u32>) {
    // Per-instant counts -> exclusive prefix sums as write cursors. u32
    // cursors (the caller guarantees the event count fits) keep this
    // randomly-accessed array as small — as cache-resident — as it gets.
    let mut cursors = vec![0u32; span + 1];
    for (&start, &end) in starts.iter().zip(ends.iter()) {
        // lint: allow(indexing): start - lo <= hi - lo == span by the range pass
        cursors[dense_slot(start, lo)] += 1;
        if end < domain_end {
            // lint: allow(indexing): retract times were folded into hi by the range pass
            cursors[dense_slot(end.next(), lo)] += 1;
        }
    }
    let mut total = 0u32;
    for c in &mut cursors {
        let here = *c;
        *c = total;
        total += here;
    }

    // lint: allow(indexing): n_events > 0 implies at least one tuple, so values is non-empty
    let placeholder = (EndpointEvent::retract_payload(0), values[0].clone());
    let mut out: Vec<(u64, V)> = vec![placeholder; n_events];
    // Retracts first: at equal times every retract payload (kind bit
    // clear) sorts below every admit payload, and within each kind the
    // tag order is the tuple order we visit in.
    for (idx, (&end, value)) in ends.iter().zip(values.iter()).enumerate() {
        if end < domain_end {
            let slot = dense_slot(end.next(), lo);
            let tag = u64::try_from(idx).unwrap_or(u64::MAX);
            // lint: allow(indexing): cursor slots were counted above; each is bumped once per counted event
            let at = usize::try_from(cursors[slot]).unwrap_or(0);
            // lint: allow(indexing): the cursor stays below the next slot's prefix sum ≤ n_events
            out[at] = (EndpointEvent::retract_payload(tag), value.clone());
            // lint: allow(indexing): same per-instant bound as above
            cursors[slot] += 1;
        }
    }
    for (idx, (&start, value)) in starts.iter().zip(values.iter()).enumerate() {
        let slot = dense_slot(start, lo);
        let tag = u64::try_from(idx).unwrap_or(u64::MAX);
        // lint: allow(indexing): same counting bound as the retract pass
        let at = usize::try_from(cursors[slot]).unwrap_or(0);
        // lint: allow(indexing): the cursor stays below the next slot's prefix sum ≤ n_events
        out[at] = (EndpointEvent::admit_payload(tag), value.clone());
        // lint: allow(indexing): same per-instant bound as above
        cursors[slot] += 1;
    }
    // Each cursor has marched from its group's start to its end, so the
    // cursor array *is* the group-ends array.
    (out, cursors)
}

/// Sort each bucket run of `pairs` independently on up to `threads`
/// workers. The buckets hold disjoint ascending time ranges, so the
/// concatenation is already the global order — and the key (the
/// [`EndpointEvent`], compared whole) is total, so the result is
/// identical for every thread and bucket count.
fn sort_bucket_runs<V: Send>(pairs: &mut [(EndpointEvent, V)], offsets: &[usize], threads: usize) {
    let mut runs: Vec<&mut [(EndpointEvent, V)]> =
        Vec::with_capacity(offsets.len().saturating_sub(1));
    let mut rest = pairs;
    let mut prev = 0usize;
    for &off in offsets.iter().skip(1) {
        let (run, tail) = rest.split_at_mut(off - prev);
        if run.len() > 1 {
            runs.push(run);
        }
        rest = tail;
        prev = off;
    }
    scoped_map(runs, threads, |run: &mut [(EndpointEvent, V)]| {
        run.sort_unstable_by_key(|pair| pair.0);
    });
}

/// The columnar endpoint-sweep algorithm (v2: partitioned event sort +
/// gapless live set).
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
    threads: usize,
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
            threads: 1,
        }
    }

    /// Sort the endpoint events on `threads` workers at finish. The
    /// emitted series is byte-identical for every value — the event order
    /// is total — so this is purely a throughput knob.
    #[must_use]
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
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

impl<A: SweepAggregate> SweepAggregator<A>
where
    A::Input: Clone + Send,
{
    /// Finish the sweep, handing `f` each constant interval in time order
    /// with the aggregate and the active state over it: the state
    /// [`finish_into`](TemporalAggregator::finish_into) reads each output
    /// from, for a caller that keeps more of a segment than its value.
    pub fn finish_states(self, mut f: impl FnMut(&A, Interval, &A::Active)) {
        let n = self.starts.len();
        // Small inputs skip the scatter (one bucket, one direct sort);
        // past the threshold the fused scatter pays for itself.
        let max_buckets = if 2 * n < PARALLEL_SORT_MIN {
            1
        } else {
            MAX_SORT_BUCKETS
        };
        let lowered = lower_events(
            &self.starts,
            &self.ends,
            &self.values,
            self.domain.end(),
            max_buckets,
        );

        let mut active = self.agg.active_empty();
        self.agg.active_reserve(&mut active, n);
        let mut seg_start = self.domain.start();
        // The event time advanced to `t`: the segment that started at
        // `seg_start` is constant up to the instant before `t`.
        macro_rules! close_segment_before {
            ($t:expr) => {{
                let t = $t;
                if t > seg_start {
                    let segment = Interval::new(seg_start, t.prev())
                        // lint: allow(no-unwrap): events replay in time order, so seg_start < t means seg_start <= t.prev()
                        .expect("event times increase");
                    f(&self.agg, segment, &active);
                    seg_start = t;
                }
            }};
        }
        match lowered {
            LoweredEvents::Sparse { mut pairs, offsets } => {
                sort_bucket_runs(&mut pairs, &offsets, self.threads);
                // lint: hot-loop(endpoint-scan) — the event replay (admit/retract + segment emission) must stay allocation-free
                for (ev, value) in &pairs {
                    close_segment_before!(ev.time);
                    let slot = usize::try_from(ev.tag()).unwrap_or(usize::MAX);
                    if ev.is_admit() {
                        self.agg.active_insert_slot(&mut active, slot, value);
                    } else {
                        self.agg.active_remove_slot(&mut active, slot, value);
                    }
                }
            }
            LoweredEvents::Dense {
                pairs,
                group_ends,
                lo,
            } => {
                // Counting scatter: already ordered, time positional.
                // Instants with no events close no segment.
                let mut prev = 0usize;
                // lint: hot-loop(endpoint-scan) — the event replay (admit/retract + segment emission) must stay allocation-free
                for (i, &group_end) in group_ends.iter().enumerate() {
                    let end = usize::try_from(group_end).unwrap_or(usize::MAX);
                    if end == prev {
                        continue;
                    }
                    let offset = i64::try_from(i).unwrap_or(i64::MAX);
                    close_segment_before!(Timestamp(lo + offset));
                    // lint: allow(indexing): group ends are the counting scatter's prefix sums, bounded by pairs.len()
                    for (payload, value) in &pairs[prev..end] {
                        let slot = usize::try_from(EndpointEvent::payload_tag(*payload))
                            .unwrap_or(usize::MAX);
                        if EndpointEvent::payload_is_admit(*payload) {
                            self.agg.active_insert_slot(&mut active, slot, value);
                        } else {
                            self.agg.active_remove_slot(&mut active, slot, value);
                        }
                    }
                    prev = end;
                }
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

impl<A: SweepAggregate> TemporalAggregator<A> for SweepAggregator<A>
where
    A::Input: Clone + Send,
{
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
    fn agrees_with_the_aggregation_tree_at_every_parallelism() {
        // A seeded workload big enough to exercise the scatter path, run
        // at P∈{1,2,8} — every series must be byte-identical to the
        // aggregation tree's (an independent, oracle-tied algorithm).
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
        for p in [1usize, 2, 8] {
            let mut sweep =
                SweepAggregator::with_domain(Sum::<i64>::new(), domain).with_parallelism(p);
            for (iv, v) in &tuples {
                sweep.push(*iv, *v).unwrap();
            }
            assert_eq!(sweep.finish().entries(), want.entries(), "P = {p}");
        }
    }

    #[test]
    fn parallel_sort_exercises_the_scatter_path() {
        // Enough events to clear PARALLEL_SORT_MIN so the bucketed sort
        // actually runs, including duplicate endpoints across buckets.
        let domain = Interval::at(0, 1_000_000);
        let mut sweep = SweepAggregator::with_domain(Count, domain).with_parallelism(4);
        let mut tree = AggregationTree::with_domain(Count, domain);
        for i in 0..6_000i64 {
            let iv = Interval::at((i * 97) % 900_000, (i * 97) % 900_000 + 50_000);
            sweep.push(iv, ()).unwrap();
            tree.push(iv, ()).unwrap();
        }
        assert_eq!(sweep.finish().entries(), tree.finish().entries());
    }
}
