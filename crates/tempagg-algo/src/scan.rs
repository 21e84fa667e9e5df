//! Driving aggregators from streaming [`TupleSource`]s — the out-of-core
//! execution path.
//!
//! Before the pager existed, every algorithm implicitly assumed "the
//! relation is a slice in memory". [`feed`] replaces that assumption: any
//! [`TemporalAggregator`] (the sweep-v2 lowering included — its
//! `push_batch` is the fused event-scatter entry point) now consumes
//! chunk-sized batches pulled from a [`TupleSource`], so its input can be
//! a fence-pruned paged scan just as well as a resident slice.
//!
//! [`page_seams`] connects the pager to the
//! [`PartitionedAggregator`](crate::PartitionedAggregator):
//! seams drawn from page-boundary fence starts of the main lane
//! ([`PagedReader::main_lane`](tempagg_core::pager::PagedReader::main_lane))
//! put each partition's tuples on a contiguous page range of a sorted file,
//! while [`feed`] reads the file once, sequentially. Correctness never
//! depends on the seam placement — the combinator clips every tuple to
//! every partition it overlaps — so fence-aligned seams are purely a
//! locality optimisation, and the stitched output stays byte-identical to
//! a serial run.

use crate::traits::TemporalAggregator;
use tempagg_agg::Aggregate;
use tempagg_core::pager::PageFence;
use tempagg_core::{
    Chunk, Interval, Result, SeriesSink, Timestamp, TupleSource, DEFAULT_CHUNK_CAPACITY,
};

/// Pump `source` dry into `aggregator` through one reused bounded
/// [`Chunk`]: peak resident input memory is a single chunk (plus whatever
/// the source holds per page).
pub fn feed<A, G, S>(aggregator: &mut G, source: &mut S) -> Result<()>
where
    A: Aggregate,
    A::Input: Clone,
    G: TemporalAggregator<A>,
    S: TupleSource<A::Input>,
{
    let mut chunk: Chunk<A::Input> = Chunk::with_capacity(DEFAULT_CHUNK_CAPACITY);
    while source.next_chunk(&mut chunk)? {
        aggregator.push_batch(&chunk)?;
        chunk.clear();
    }
    Ok(())
}

/// Like [`feed`], but drains already-final result entries into `sink`
/// after every batch ([`TemporalAggregator::emit_ready`]). With the
/// k-ordered tree over a sorted paged scan this bounds *result* memory
/// too: the whole pipeline holds one page, one chunk, and O(k) pending
/// state, however large the file is.
pub fn feed_streaming<A, G, S, K>(aggregator: &mut G, source: &mut S, sink: &mut K) -> Result<()>
where
    A: Aggregate,
    A::Input: Clone,
    G: TemporalAggregator<A>,
    S: TupleSource<A::Input>,
    K: SeriesSink<A::Output>,
{
    let mut chunk: Chunk<A::Input> = Chunk::with_capacity(DEFAULT_CHUNK_CAPACITY);
    while source.next_chunk(&mut chunk)? {
        aggregator.push_batch(&chunk)?;
        aggregator.emit_ready(sink);
        chunk.clear();
    }
    Ok(())
}

/// Draw up to `partitions − 1` seams for `domain` from page-boundary
/// fences: seam `p` is the min-start of the page `p/P` of the way through
/// the fence table. Given a sorted file's main lane
/// ([`PagedReader::main_lane`](tempagg_core::pager::PagedReader::main_lane)),
/// whose fences ascend by min-start, this maps each partition onto a
/// contiguous page range. Seams violating
/// [`PartitionedAggregator`](crate::PartitionedAggregator)'s
/// preconditions (interior, strictly increasing) are simply dropped —
/// fewer partitions, never an error.
pub fn page_seams(fences: &[PageFence], domain: Interval, partitions: usize) -> Vec<Timestamp> {
    let mut seams: Vec<Timestamp> = Vec::new();
    if partitions <= 1 {
        return seams;
    }
    for p in 1..partitions {
        let idx = p * fences.len() / partitions;
        let Some(fence) = fences.get(idx) else {
            continue;
        };
        let candidate = fence.min_start;
        let interior = candidate > domain.start() && candidate <= domain.end();
        if interior && seams.last().map_or(true, |last| *last < candidate) {
            seams.push(candidate);
        }
    }
    seams
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ktree::KOrderedAggregationTree;
    use crate::linked_list::LinkedListAggregate;
    use crate::parallel::PartitionedAggregator;
    use crate::sweep::SweepAggregator;
    use tempagg_agg::{Count, Sum};
    use tempagg_core::pager::{
        write_relation, PageCursor, PagedReader, PagedWriteOptions, SliceSource,
    };
    use tempagg_core::{Schema, Series, TemporalRelation, Value, ValueType};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tempagg-scan-{}-{name}", std::process::id()));
        p
    }

    fn write_sorted(n: i64, name: &str) -> std::path::PathBuf {
        let schema = Schema::of(&[("v", ValueType::Int)]);
        let mut rel = TemporalRelation::new(schema);
        for i in 0..n {
            rel.push(vec![Value::Int(i % 13)], Interval::at(i, i + 7))
                .unwrap();
        }
        let path = temp_path(name);
        write_relation(
            &rel,
            &path,
            &PagedWriteOptions {
                page_size: 256,
                caches: Vec::new(),
            },
        )
        .unwrap();
        path
    }

    #[test]
    fn feed_from_slice_matches_direct_pushes() {
        let domain = Interval::at(0, 200);
        let items: Vec<(Interval, i64)> =
            (0..100).map(|i| (Interval::at(i, i + 7), i % 13)).collect();
        let mut direct = SweepAggregator::with_domain(Sum::<i64>::new(), domain);
        for &(iv, v) in &items {
            direct.push(iv, v).unwrap();
        }
        let mut fed = SweepAggregator::with_domain(Sum::<i64>::new(), domain);
        let mut source = SliceSource::new(&items, domain);
        feed(&mut fed, &mut source).unwrap();
        assert_eq!(fed.finish(), direct.finish());
    }

    #[test]
    fn paged_partitioned_matches_in_ram_sweep() {
        let path = write_sorted(300, "paged-part.tapg");
        let reader = PagedReader::open(&path).unwrap();
        let window = Interval::at(0, 306);
        for partitions in [1usize, 2, 8] {
            let seams = page_seams(reader.main_lane(), window, partitions);
            let mut parts = PartitionedAggregator::with_seams(window, seams, |sub| {
                LinkedListAggregate::with_domain(Sum::<i64>::new(), sub)
            })
            .unwrap();
            feed(
                &mut parts,
                &mut PageCursor::new(&reader, window).int_column(0),
            )
            .unwrap();
            let paged = parts.finish();
            let mut sweep = SweepAggregator::with_domain(Sum::<i64>::new(), window);
            for i in 0..300 {
                sweep.push(Interval::at(i, i + 7), i % 13).unwrap();
            }
            assert_eq!(paged, sweep.finish(), "P = {partitions}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn page_seams_are_valid_for_with_seams() {
        let path = write_sorted(500, "seams.tapg");
        let reader = PagedReader::open(&path).unwrap();
        let domain = Interval::at(0, 506);
        for p in [2usize, 4, 8, 64] {
            let seams = page_seams(reader.main_lane(), domain, p);
            assert!(seams.len() < p.max(1));
            // Must satisfy with_seams' preconditions outright.
            PartitionedAggregator::with_seams(domain, seams, |sub| {
                LinkedListAggregate::with_domain(Count, sub)
            })
            .unwrap();
        }
        // Degenerate inputs yield no seams, not errors.
        assert!(page_seams(reader.main_lane(), domain, 0).is_empty());
        assert!(page_seams(reader.main_lane(), domain, 1).is_empty());
        assert!(page_seams(&[], domain, 8).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn feed_streaming_drains_ktree_results_early() {
        let path = write_sorted(400, "streaming.tapg");
        let reader = PagedReader::open(&path).unwrap();
        let window = Interval::at(0, 406);
        let mut agg = KOrderedAggregationTree::with_domain(Count, 1, window).unwrap();
        let mut source = PageCursor::new(&reader, window).units();
        let mut out = Series::new();
        feed_streaming(&mut agg, &mut source, &mut out).unwrap();
        let streamed_early = out.len();
        agg.finish_into(&mut out);
        assert!(streamed_early > 0, "GC never drained anything early");

        let mut serial = KOrderedAggregationTree::with_domain(Count, 1, window).unwrap();
        for i in 0..400 {
            serial.push(Interval::at(i, i + 7), ()).unwrap();
        }
        assert_eq!(out, serial.finish());
        std::fs::remove_file(&path).ok();
    }
}
