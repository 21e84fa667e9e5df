//! Domain-partitioned parallel execution.
//!
//! The partial aggregate states every algorithm maintains form a
//! commutative monoid ([`Aggregate::merge`]), so the valid-time domain can
//! be cut into sub-domains, each aggregated independently, and the
//! per-partition result series concatenated back together — the same
//! decomposition that lets concurrent aggregate structures scale. The
//! [`PartitionedAggregator`] combinator implements that: it clips each
//! incoming tuple to the partitions it overlaps, feeds one inner
//! [`TemporalAggregator`] per partition (on scoped OS threads for batched
//! input), and finishes the partitions one after another in domain order
//! through a [`StitchSink`] — the one way a partitioned run finishes.
//!
//! # Seams and byte-identical output
//!
//! Serial output is split at tuple start/end times but *not* coalesced, so
//! two adjacent entries may carry equal values across a real tuple
//! boundary. A partition cut adds an artificial boundary at each seam;
//! stitching must merge exactly the artificial ones back. The aggregator
//! therefore records, per seam `s`, whether any pushed tuple started at
//! `s` or ended at `s − 1`; only unmarked seams are merged. When a seam is
//! unmarked, the tuple set covering `s − 1` equals the set covering `s`,
//! so the adjoining values are guaranteed equal and the merged series is
//! byte-identical to the serial result.
//!
//! This module is the only place in the workspace allowed to touch
//! `std::thread` (enforced by `tempagg-lint`'s `no-raw-thread` rule);
//! other code parallelises through [`scoped_map`] or the combinator and
//! reads the thread count from [`machine_threads`].

use crate::memory::MemoryStats;
use crate::traits::TemporalAggregator;
use std::sync::OnceLock;
use tempagg_agg::Aggregate;
use tempagg_core::{Chunk, Interval, Result, SeriesSink, StitchSink, TempAggError, Timestamp};

/// The machine's available parallelism, asked once: the call reads cgroup
/// files (≈ 11 µs here), and the planner wants the answer on every plan.
/// 1 when the platform cannot say.
pub fn machine_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Map `f` over `items` on up to `threads` scoped OS threads, preserving
/// input order in the output.
///
/// Items are dealt round-robin into per-thread batches; with one thread
/// (or one item) the map runs inline with no spawn at all. A worker panic
/// propagates to the caller.
pub fn scoped_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len());
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let mut batches: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        // lint: allow(indexing): i % threads < threads == batches.len() by construction
        batches[i % threads].push((i, item));
    }
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = batches
            .into_iter()
            .map(|batch| {
                scope.spawn(move || {
                    batch
                        .into_iter()
                        .map(|(i, item)| (i, f(item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            // lint: allow(no-unwrap): a worker panic is already a crash; re-raising it here keeps the backtrace
            for (i, r) in handle.join().expect("scoped_map worker panicked") {
                // lint: allow(indexing): i came from enumerate over items and slots was sized to items.len()
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        // lint: allow(no-unwrap): the scope joined every worker, so each slot was filled exactly once
        .map(|slot| slot.expect("every item mapped"))
        .collect()
}

/// Per-partition facts reported after a partitioned run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionReport {
    /// The sub-domain this partition aggregated.
    pub domain: Interval,
    /// Clipped tuples routed into the partition (a tuple spanning `k`
    /// partitions counts `k` times).
    pub tuples: usize,
    /// The inner aggregator's state memory.
    pub memory: MemoryStats,
}

struct Partition<G> {
    sub: Interval,
    inner: G,
    tuples: usize,
}

/// Domain-partitioned execution of any inner [`TemporalAggregator`].
///
/// The domain is cut at `P − 1` seam timestamps into `P` sub-domains, one
/// inner aggregator each. [`push`](TemporalAggregator::push) routes a
/// single tuple serially; [`push_batch`](TemporalAggregator::push_batch)
/// fans a shared [`Chunk`] out to one scoped worker per partition, each
/// clipping the batch to its sub-domain.
/// [`finish_into`](TemporalAggregator::finish_into) streams the
/// partitions in domain order through a [`StitchSink`], stitching seam-aware
/// at bounded resident memory: output byte-identical to a serial run of the
/// inner algorithm over the whole domain (see the module docs).
/// [`finish`](TemporalAggregator::finish) is the trait's collector over it.
///
/// # Example
///
/// ```
/// use tempagg_agg::Count;
/// use tempagg_algo::{AggregationTree, PartitionedAggregator, TemporalAggregator};
/// use tempagg_core::Interval;
///
/// let domain = Interval::at(0, 99);
/// let mut par = PartitionedAggregator::new(domain, 4, |sub| {
///     AggregationTree::with_domain(Count, sub)
/// });
/// par.push(Interval::at(10, 60), ()).unwrap(); // spans two seams
/// let series = par.finish();
/// assert_eq!(series.len(), 3); // [0,9]=0, [10,60]=1, [61,99]=0
/// ```
pub struct PartitionedAggregator<A, G>
where
    A: Aggregate,
    G: TemporalAggregator<A>,
{
    domain: Interval,
    /// Partition `i + 1` begins at `seams[i]`; strictly increasing,
    /// all interior to the domain.
    seams: Vec<Timestamp>,
    /// `seam_real[i]`: some tuple started at `seams[i]` or ended at
    /// `seams[i] − 1`, so the boundary also exists in serial output.
    seam_real: Vec<bool>,
    parts: Vec<Partition<G>>,
    threads: usize,
    tuples: usize,
    _marker: std::marker::PhantomData<A>,
}

impl<A, G> std::fmt::Debug for PartitionedAggregator<A, G>
where
    A: Aggregate,
    G: TemporalAggregator<A>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionedAggregator")
            .field("domain", &self.domain)
            .field("seams", &self.seams)
            .field("partitions", &self.parts.len())
            .field("tuples", &self.tuples)
            .finish()
    }
}

impl<A, G> PartitionedAggregator<A, G>
where
    A: Aggregate,
    G: TemporalAggregator<A>,
{
    /// Cut `domain` into up to `partitions` near-equal sub-domains and
    /// build one inner aggregator per sub-domain with `factory`.
    ///
    /// An unbounded domain has no meaningful even cut, so it yields a
    /// single partition; use [`PartitionedAggregator::with_seams`] with
    /// seams drawn from a bounded hull of the data instead.
    pub fn new(domain: Interval, partitions: usize, factory: impl FnMut(Interval) -> G) -> Self {
        let seams = domain.even_seams(partitions);
        // Even seams are interior and strictly increasing by construction.
        // lint: allow(no-unwrap): even_seams output always satisfies with_seams' preconditions
        Self::with_seams(domain, seams, factory).expect("even seams are always valid")
    }

    /// Cut `domain` at explicit seam timestamps: partition `i + 1` begins
    /// at `seams[i]`. Seams must be strictly increasing and interior
    /// (`domain.start() < seam ≤ domain.end()`); errors otherwise.
    pub fn with_seams(
        domain: Interval,
        seams: Vec<Timestamp>,
        mut factory: impl FnMut(Interval) -> G,
    ) -> Result<Self> {
        for (prev, next) in seams.iter().zip(seams.iter().skip(1)) {
            if prev >= next {
                return Err(TempAggError::InvalidPartitioning {
                    detail: format!("seams not strictly increasing: {prev} then {next}"),
                });
            }
        }
        if let (Some(first), Some(last)) = (seams.first(), seams.last()) {
            if *first <= domain.start() || *last > domain.end() {
                return Err(TempAggError::InvalidPartitioning {
                    detail: format!(
                        "seams must lie strictly inside the domain {domain}: got [{first}, {last}]"
                    ),
                });
            }
        }
        let mut parts = Vec::with_capacity(seams.len() + 1);
        let mut start = domain.start();
        for seam in &seams {
            let sub = Interval::new(start, seam.prev())?;
            parts.push(Partition {
                sub,
                inner: factory(sub),
                tuples: 0,
            });
            start = *seam;
        }
        let sub = Interval::new(start, domain.end())?;
        parts.push(Partition {
            sub,
            inner: factory(sub),
            tuples: 0,
        });
        Ok(PartitionedAggregator {
            domain,
            seam_real: vec![false; seams.len()],
            seams,
            parts,
            threads: machine_threads(),
            tuples: 0,
            _marker: std::marker::PhantomData,
        })
    }

    /// Cap the scoped workers used per batch (default: the machine's
    /// available parallelism). Partitions are dealt round-robin across
    /// workers, so fewer threads than partitions still covers them all.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Number of sub-domains.
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// The sub-domains, in time order.
    pub fn partition_domains(&self) -> Vec<Interval> {
        self.parts.iter().map(|p| p.sub).collect()
    }

    /// Tuples pushed so far (each counted once, however many partitions it
    /// overlapped).
    pub fn len(&self) -> usize {
        self.tuples
    }

    /// `true` before the first push.
    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }

    /// Per-partition routing counts and memory.
    pub fn partition_reports(&self) -> Vec<PartitionReport> {
        self.parts
            .iter()
            .map(|p| PartitionReport {
                domain: p.sub,
                tuples: p.tuples,
                memory: p.inner.memory(),
            })
            .collect()
    }

    fn check_domain(&self, interval: Interval) -> Result<()> {
        if self.domain.covers(&interval) {
            Ok(())
        } else {
            Err(TempAggError::OutOfDomain {
                tuple: (interval.start(), interval.end()),
                domain: (self.domain.start(), self.domain.end()),
            })
        }
    }

    /// Record which seams coincide with this tuple's real boundaries.
    fn mark_seams(&mut self, interval: Interval) {
        if let Ok(i) = self.seams.binary_search(&interval.start()) {
            self.seam_real[i] = true;
        }
        if !interval.end().is_forever() {
            if let Ok(i) = self.seams.binary_search(&interval.end().next()) {
                self.seam_real[i] = true;
            }
        }
    }

    /// Index of the first partition overlapping `t`: the one whose
    /// sub-domain contains it.
    fn partition_of(&self, t: Timestamp) -> usize {
        self.seams.partition_point(|s| *s <= t)
    }
}

impl<A, G> TemporalAggregator<A> for PartitionedAggregator<A, G>
where
    A: Aggregate,
    A::Input: Clone + Sync,
    A::Output: PartialEq,
    G: TemporalAggregator<A> + Send,
{
    fn algorithm(&self) -> &'static str {
        "partitioned"
    }

    fn domain(&self) -> Interval {
        self.domain
    }

    fn push(&mut self, interval: Interval, value: A::Input) -> Result<()> {
        self.check_domain(interval)?;
        self.mark_seams(interval);
        let first = self.partition_of(interval.start());
        for part in &mut self.parts[first..] {
            let Some(clipped) = interval.intersect(&part.sub) else {
                break; // partitions are in time order: no later overlap
            };
            part.inner.push(clipped, value.clone())?;
            part.tuples += 1;
        }
        self.tuples += 1;
        Ok(())
    }

    /// Fan the chunk out to one scoped worker per partition.
    ///
    /// The whole batch is domain-checked up front (scanning only the SoA
    /// timestamp columns), so a rejected batch leaves the aggregator
    /// untouched; an inner-algorithm error mid-batch does not.
    fn push_batch(&mut self, chunk: &Chunk<A::Input>) -> Result<()>
    where
        A::Input: Clone,
    {
        for i in 0..chunk.len() {
            let Some(interval) = chunk.interval(i) else {
                return Err(TempAggError::internal("chunk columns out of step"));
            };
            self.check_domain(interval)?;
        }
        for i in 0..chunk.len() {
            if let Some(interval) = chunk.interval(i) {
                self.mark_seams(interval);
            }
        }
        let threads = self.threads;
        let workers: Vec<&mut Partition<G>> = self.parts.iter_mut().collect();
        let results = scoped_map(workers, threads, |part| -> Result<()> {
            for (interval, value) in chunk {
                if let Some(clipped) = interval.intersect(&part.sub) {
                    part.inner.push(clipped, value.clone())?;
                    part.tuples += 1;
                }
            }
            Ok(())
        });
        for r in results {
            r?;
        }
        self.tuples += chunk.len();
        Ok(())
    }

    /// Stream the partitions sequentially in domain order through a
    /// [`StitchSink`], so seam-aware stitching happens inline at O(1)
    /// extra resident memory — no per-partition `Series` is materialized.
    fn finish_into(self, sink: &mut impl SeriesSink<A::Output>) {
        #[cfg(feature = "validate")]
        let sink = &mut crate::validate::CheckedSink::new(sink, self.domain, "partitioned");
        let seam_real = self.seam_real;
        let mut stitch = StitchSink::new(&mut *sink);
        for (p, part) in self.parts.into_iter().enumerate() {
            if p > 0 {
                // lint: allow(indexing): guarded by p > 0 and seam_real has parts.len() - 1 entries
                stitch.seam(!seam_real[p - 1]);
            }
            part.inner.finish_into(&mut stitch);
        }
        stitch.finish();
        #[cfg(feature = "validate")]
        sink.finish();
    }

    fn memory(&self) -> MemoryStats {
        self.parts
            .iter()
            .map(|p| p.inner.memory())
            .fold(MemoryStats::default(), |acc, m| acc.combine(&m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg_tree::AggregationTree;
    use crate::linked_list::LinkedListAggregate;
    use tempagg_agg::{Count, Sum};

    fn count_tree(sub: Interval) -> AggregationTree<Count> {
        AggregationTree::with_domain(Count, sub)
    }

    #[test]
    fn scoped_map_preserves_order() {
        let squares = scoped_map((0..100usize).collect(), 7, |i| i * i);
        assert_eq!(squares, (0..100usize).map(|i| i * i).collect::<Vec<_>>());
        // Degenerate thread counts.
        assert_eq!(scoped_map(vec![1, 2, 3], 0, |i| i), vec![1, 2, 3]);
        let empty: Vec<usize> = scoped_map(Vec::new(), 4, |i| i);
        assert!(empty.is_empty());
    }

    #[test]
    fn partitions_tile_the_domain() {
        let par = PartitionedAggregator::new(Interval::at(0, 99), 4, count_tree);
        assert_eq!(par.partition_count(), 4);
        let subs = par.partition_domains();
        assert_eq!(subs[0], Interval::at(0, 24));
        assert_eq!(subs[3], Interval::at(75, 99));
        // Unbounded domains fall back to a single partition.
        let par = PartitionedAggregator::new(Interval::TIMELINE, 4, count_tree);
        assert_eq!(par.partition_count(), 1);
    }

    #[test]
    fn with_seams_validates() {
        let d = Interval::at(0, 99);
        assert!(PartitionedAggregator::with_seams(
            d,
            vec![Timestamp(10), Timestamp(10)],
            count_tree
        )
        .is_err());
        assert!(PartitionedAggregator::with_seams(d, vec![Timestamp(0)], count_tree).is_err());
        assert!(PartitionedAggregator::with_seams(d, vec![Timestamp(100)], count_tree).is_err());
        // A seam at the very end leaves a one-instant last partition.
        let par = PartitionedAggregator::with_seams(d, vec![Timestamp(99)], count_tree).unwrap();
        assert_eq!(par.partition_domains()[1], Interval::at(99, 99));
    }

    #[test]
    fn matches_serial_with_spanning_tuples() {
        let domain = Interval::at(0, 99);
        let tuples = [
            (Interval::at(0, 99), ()),  // spans every seam
            (Interval::at(10, 30), ()), // spans seam 25
            (Interval::at(25, 49), ()), // starts exactly at seam 25
            (Interval::at(50, 74), ()), // exactly one partition
            (Interval::at(74, 75), ()), // crosses seam 75 by one instant
        ];
        let mut serial = AggregationTree::with_domain(Count, domain);
        let mut par = PartitionedAggregator::new(domain, 4, count_tree);
        for &(iv, v) in &tuples {
            serial.push(iv, v).unwrap();
            par.push(iv, v).unwrap();
        }
        assert_eq!(par.finish(), serial.finish());
    }

    #[test]
    fn artificial_seams_merge_real_seams_stay() {
        let domain = Interval::at(0, 19);
        // Seam at 10. One tuple covering [0, 19]: the cut is artificial.
        let mut par = PartitionedAggregator::with_seams(domain, vec![Timestamp(10)], |sub| {
            LinkedListAggregate::with_domain(Count, sub)
        })
        .unwrap();
        par.push(Interval::at(0, 19), ()).unwrap();
        let s = par.finish();
        assert_eq!(s.len(), 1);
        assert_eq!(s.entries()[0].interval, domain);

        // Now a tuple *ends* at 9 and another *starts* at 10: the boundary
        // is real, and serial output keeps the equal-valued entries apart.
        let mut par = PartitionedAggregator::with_seams(domain, vec![Timestamp(10)], |sub| {
            LinkedListAggregate::with_domain(Count, sub)
        })
        .unwrap();
        par.push(Interval::at(0, 9), ()).unwrap();
        par.push(Interval::at(10, 19), ()).unwrap();
        let parallel = par.finish();

        let mut serial = LinkedListAggregate::with_domain(Count, domain);
        serial.push(Interval::at(0, 9), ()).unwrap();
        serial.push(Interval::at(10, 19), ()).unwrap();
        let serial = serial.finish();
        assert_eq!(parallel, serial);
        assert_eq!(parallel.len(), 2); // both entries COUNT = 1, not merged
    }

    #[test]
    fn push_batch_equals_per_tuple_push() {
        let domain = Interval::at(0, 999);
        let mut chunk: Chunk<i64> = Chunk::with_capacity(64);
        let mut serial = LinkedListAggregate::with_domain(Sum::<i64>::new(), domain);
        for i in 0..60i64 {
            let start = (i * 37) % 900;
            let iv = Interval::at(start, start + 90);
            chunk.push(iv, i).unwrap();
            serial.push(iv, i).unwrap();
        }
        let mut par = PartitionedAggregator::new(domain, 8, |sub| {
            LinkedListAggregate::with_domain(Sum::<i64>::new(), sub)
        });
        par.push_batch(&chunk).unwrap();
        assert_eq!(par.len(), 60);
        assert_eq!(par.finish(), serial.finish());
    }

    #[test]
    fn out_of_domain_batch_is_rejected_atomically() {
        let domain = Interval::at(0, 99);
        let mut chunk: Chunk<()> = Chunk::with_capacity(4);
        chunk.push(Interval::at(0, 50), ()).unwrap();
        chunk.push(Interval::at(90, 150), ()).unwrap(); // outside
        let mut par = PartitionedAggregator::new(domain, 2, count_tree);
        assert!(par.push_batch(&chunk).is_err());
        assert!(par.is_empty());
        let s = par.finish();
        assert_eq!(s.len(), 1); // untouched: one empty constant interval
    }

    #[test]
    fn reports_cover_every_partition() {
        let mut par = PartitionedAggregator::new(Interval::at(0, 99), 4, count_tree);
        par.push(Interval::at(0, 49), ()).unwrap();
        let reports = par.partition_reports();
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].tuples, 1);
        assert_eq!(reports[1].tuples, 1);
        assert_eq!(reports[2].tuples, 0);
        assert_eq!(
            par.memory().peak_nodes,
            reports.iter().map(|r| r.memory.peak_nodes).sum()
        );
    }

    #[test]
    fn single_partition_is_transparent() {
        let mut serial = AggregationTree::with_domain(Count, Interval::at(0, 9));
        let mut par = PartitionedAggregator::new(Interval::at(0, 9), 1, count_tree);
        for iv in [Interval::at(0, 3), Interval::at(2, 9)] {
            serial.push(iv, ()).unwrap();
            par.push(iv, ()).unwrap();
        }
        assert_eq!(par.finish(), serial.finish());
    }
}
