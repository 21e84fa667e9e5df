//! A memory-bounded, region-paged aggregation tree — the limited-memory
//! evaluation sketched at the end of Section 5.1:
//!
//! > "If we do not balance the aggregation tree, then it is simple to page
//! > portions of the tree to disk. … Simply accumulate the tuples which
//! > would overlap this region of the tree and process them later."
//!
//! That is the partition pipeline run one region at a time, so it *is* a
//! [`PartitionedAggregator`]: the combinator cuts the domain, clips each
//! tuple to the regions it overlaps, records which cuts coincide with a
//! tuple endpoint and stitches the artificial ones back at `finish`. The
//! only thing this module adds is the per-region inner aggregator, which
//! *accumulates* its clipped tuples (the stand-in for the paper's on-disk
//! runs — see DESIGN.md's substitution notes) and builds its aggregation
//! tree only when the combinator finishes it. Regions are finished in
//! domain order on one thread, each dropped before the next, so peak tree
//! memory is bounded by the busiest region rather than the whole relation.

use crate::agg_tree::AggregationTree;
use crate::memory::{model_node_bytes, MemoryStats};
use crate::parallel::PartitionedAggregator;
use crate::traits::TemporalAggregator;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tempagg_agg::Aggregate;
use tempagg_core::{Interval, Result, Series, SeriesSink, TempAggError};

/// One region: the run of clipped tuples accumulated for it, and the tree
/// that is built over them when the region's turn comes.
struct Region<A: Aggregate> {
    agg: A,
    sub: Interval,
    run: Vec<(Interval, A::Input)>,
    /// Shared with the owning [`PagedAggregationTree`]: the largest tree
    /// any finished region has held (a statistic, read once every region
    /// is done — hence `Relaxed`).
    peak_tree_nodes: Arc<AtomicUsize>,
}

impl<A: Aggregate> TemporalAggregator<A> for Region<A> {
    fn algorithm(&self) -> &'static str {
        "paged-region"
    }

    fn domain(&self) -> Interval {
        self.sub
    }

    fn push(&mut self, interval: Interval, value: A::Input) -> Result<()> {
        self.run.push((interval, value));
        Ok(())
    }

    fn finish_into(self, sink: &mut impl SeriesSink<A::Output>) {
        let mut tree = AggregationTree::with_domain(self.agg, self.sub);
        for (interval, value) in self.run {
            tree.push(interval, value)
                // lint: allow(no-unwrap): push only rejects out-of-domain tuples and the combinator clipped every tuple to this region
                .expect("clipped tuples fit their region");
        }
        self.peak_tree_nodes
            .fetch_max(tree.memory().peak_nodes, Ordering::Relaxed);
        tree.finish_into(sink);
    }

    /// Before the tree exists: an estimate from the run's length.
    fn memory(&self) -> MemoryStats {
        MemoryStats {
            live_nodes: 0,
            peak_nodes: 4 * self.run.len() + 1,
            node_model_bytes: model_node_bytes(self.agg.state_model_bytes()),
            node_actual_bytes: std::mem::size_of::<crate::tree::arena::Node<A::State>>(),
        }
    }
}

/// The paged (memory-bounded) aggregation tree.
///
/// Requires a *bounded* domain (there is no even cut of `[t, ∞]`); use the
/// plain [`AggregationTree`] for open-ended time-lines, or bound the query
/// with a valid-time window.
#[derive(Debug)]
pub struct PagedAggregationTree<A: Aggregate> {
    regions: PartitionedAggregator<A, Region<A>>,
    peak_tree_nodes: Arc<AtomicUsize>,
}

impl<A> PagedAggregationTree<A>
where
    A: Aggregate + Clone + Send,
    A::Input: Clone + Send + Sync,
    A::Output: Send,
{
    /// Split `domain` into `regions` near-equal parts.
    ///
    /// Errors if the domain is unbounded, `regions` is zero, or there are
    /// more regions than instants.
    pub fn new(agg: A, domain: Interval, regions: usize) -> Result<Self> {
        let regions_i64 = i64::try_from(regions).unwrap_or(i64::MAX);
        if domain.end().is_forever() || regions == 0 || regions_i64 > domain.duration() {
            return Err(TempAggError::InvalidSpan {
                length: regions_i64,
            });
        }
        let peak_tree_nodes = Arc::new(AtomicUsize::new(0));
        let regions = PartitionedAggregator::new(domain, regions, |sub| Region {
            agg: agg.clone(),
            sub,
            run: Vec::new(),
            peak_tree_nodes: Arc::clone(&peak_tree_nodes),
        })
        // One region's tree at a time, whichever `finish` runs.
        .with_threads(1);
        Ok(PagedAggregationTree {
            regions,
            peak_tree_nodes,
        })
    }

    /// Number of regions the domain was split into.
    pub fn region_count(&self) -> usize {
        self.regions.partition_count()
    }

    /// Tuples pushed so far.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// `true` before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Total buffered `(interval, input)` entries across regions (a tuple
    /// spanning r regions contributes r entries). This models the size of
    /// the paper's on-disk runs.
    pub fn buffered_entries(&self) -> usize {
        let reports = self.regions.partition_reports();
        reports.iter().map(|region| region.tuples).sum()
    }

    /// Like [`TemporalAggregator::finish`], but also reports the true peak
    /// tree memory over all regions (the `memory` method can only estimate
    /// before the regions have been processed).
    pub fn finish_with_stats(self) -> (Series<A::Output>, MemoryStats) {
        let mut stats = self.memory();
        let peak = Arc::clone(&self.peak_tree_nodes);
        let series = self.finish();
        stats.peak_nodes = peak.load(Ordering::Relaxed).max(1);
        (series, stats)
    }
}

impl<A> TemporalAggregator<A> for PagedAggregationTree<A>
where
    A: Aggregate + Clone + Send,
    A::Input: Clone + Send + Sync,
    A::Output: Send,
{
    fn algorithm(&self) -> &'static str {
        "paged-aggregation-tree"
    }

    fn domain(&self) -> Interval {
        self.regions.domain()
    }

    fn push(&mut self, interval: Interval, value: A::Input) -> Result<()> {
        self.regions.push(interval, value)
    }

    fn finish_into(self, sink: &mut impl SeriesSink<A::Output>) {
        self.regions.finish_into(sink);
    }

    /// Peak *tree* memory is the busiest single region's (the runs stand
    /// in for disk); before `finish` that is an estimate from its run.
    fn memory(&self) -> MemoryStats {
        let reports = self.regions.partition_reports();
        let busiest = reports.iter().map(|region| region.memory);
        busiest.max_by_key(|m| m.peak_nodes).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle;
    use tempagg_agg::{Count, Sum};

    fn bounded() -> Interval {
        Interval::at(0, 9_999)
    }

    fn run_paged(regions: usize, tuples: &[(Interval, ())]) -> (Series<u64>, usize, MemoryStats) {
        let mut paged = PagedAggregationTree::new(Count, bounded(), regions).unwrap();
        for &(iv, ()) in tuples {
            paged.push(iv, ()).unwrap();
        }
        let buffered = paged.buffered_entries();
        let memory_estimate = paged.memory();
        let series = paged.finish();
        (series, buffered, memory_estimate)
    }

    fn random_ish_tuples(n: usize) -> Vec<(Interval, ())> {
        (0..n)
            .map(|i| {
                let start = (i * 7919 + 13) % 9_000;
                let len = (i * 104_729) % 800 + 1;
                let end = (start + len).min(9_999);
                (Interval::at(start as i64, end as i64), ())
            })
            .collect()
    }

    #[test]
    fn matches_oracle_across_region_counts() {
        let tuples = random_ish_tuples(200);
        let expected = oracle(&Count, bounded(), &tuples);
        for regions in [1usize, 2, 3, 7, 16, 100] {
            let (series, _, _) = run_paged(regions, &tuples);
            assert_eq!(series, expected, "regions = {regions}");
        }
    }

    #[test]
    fn stitches_constant_intervals_across_region_edges() {
        // One tuple spanning the whole domain: the result must be a single
        // constant interval even with many regions.
        let tuples = vec![(bounded(), ())];
        let (series, _, _) = run_paged(10, &tuples);
        assert_eq!(series.len(), 1);
        assert_eq!(series.entries()[0].interval, bounded());
        assert_eq!(series.entries()[0].value, 1);
    }

    #[test]
    fn real_boundaries_are_preserved() {
        // A tuple ending exactly at a region edge (10 regions of [0, 9999]
        // are 1000 instants each).
        let tuples = vec![(Interval::at(0, 999), ()), (Interval::at(1000, 1999), ())];
        let (series, _, _) = run_paged(10, &tuples);
        let expected = oracle(&Count, bounded(), &tuples);
        assert_eq!(series, expected);
        assert_eq!(series.len(), 3); // [0,999]=1, [1000,1999]=1, rest=0
    }

    /// The inputs the cut / mark / stitch protocol exists for, on a region
    /// count that does not divide the domain: `[0, 9_999]` into 7 cuts at
    /// 1_428, 2_857, 4_285, ….
    #[test]
    fn uneven_regions_keep_real_boundaries_and_merge_artificial_ones() {
        let seam = bounded().even_seams(7)[1].get();
        assert_eq!(seam, 2_857);
        let touching = [
            (Interval::at(100, seam - 1), 5i64), // ends exactly at seam − 1
            (Interval::at(seam, 6_000), 5),      // starts exactly at seam
        ];
        let spanning = [(bounded(), 3i64)];
        for tuples in [&touching[..], &spanning[..]] {
            let units: Vec<(Interval, ())> = tuples.iter().map(|&(iv, _)| (iv, ())).collect();
            let mut count = PagedAggregationTree::new(Count, bounded(), 7).unwrap();
            let mut sum = PagedAggregationTree::new(Sum::<i64>::new(), bounded(), 7).unwrap();
            assert_eq!(count.region_count(), 7);
            for &(iv, v) in tuples {
                count.push(iv, ()).unwrap();
                sum.push(iv, v).unwrap();
            }
            let (count, sum) = (count.finish(), sum.finish());
            assert_eq!(count, oracle(&Count, bounded(), &units));
            assert_eq!(sum, oracle(&Sum::<i64>::new(), bounded(), tuples));
            assert_eq!(count.len(), sum.len());
        }
        // Equal values either side of the real boundary stay two entries;
        // the tuple spanning all seven regions comes back as one.
        let (series, _, _) = run_paged(7, &[(touching[0].0, ()), (touching[1].0, ())]);
        let ones: Vec<Interval> = series
            .entries()
            .iter()
            .filter(|e| e.value == 1)
            .map(|e| e.interval)
            .collect();
        assert_eq!(ones, [touching[0].0, touching[1].0]);
        let (series, buffered, _) = run_paged(7, &[(bounded(), ())]);
        assert_eq!((series.len(), buffered), (1, 7));
    }

    /// A bounded domain is accepted however close to the `i64` range it
    /// reaches: the cut is `Interval::even_seams`' `i128` arithmetic.
    #[test]
    fn domains_near_the_i64_range_aggregate_correctly() {
        for domain in [
            Interval::at(0, i64::MAX - 1),
            Interval::at(i64::MIN + 1, i64::MAX - 1),
        ] {
            let (lo, hi) = (domain.start().get(), domain.end().get());
            let tuples = [
                (Interval::at(lo, lo + 10), ()),
                (Interval::at(hi - 10, hi), ()),
                (Interval::at(lo + 5, hi - 5), ()),
            ];
            let mut paged = PagedAggregationTree::new(Count, domain, 4).unwrap();
            assert_eq!(paged.region_count(), 4);
            for &(iv, ()) in &tuples {
                paged.push(iv, ()).unwrap();
            }
            assert_eq!(paged.finish(), oracle(&Count, domain, &tuples), "{domain}");
        }
    }

    #[test]
    fn memory_is_bounded_by_busiest_region() {
        let tuples = random_ish_tuples(2_000);
        let expected = oracle(&Count, bounded(), &tuples);

        // Full (unpaged) tree peak for reference.
        let mut full = AggregationTree::with_domain(Count, bounded());
        for &(iv, ()) in &tuples {
            full.push(iv, ()).unwrap();
        }
        let full_peak = full.memory().peak_nodes;

        // True paged peaks shrink as the region count grows.
        let mut peaks = Vec::new();
        for regions in [1usize, 4, 16] {
            let mut paged = PagedAggregationTree::new(Count, bounded(), regions).unwrap();
            for &(iv, ()) in &tuples {
                paged.push(iv, ()).unwrap();
            }
            let (series, stats) = paged.finish_with_stats();
            assert_eq!(series, expected, "regions = {regions}");
            peaks.push(stats.peak_nodes);
        }
        assert_eq!(peaks[0], full_peak, "1 region ≡ the plain tree");
        assert!(
            peaks[2] < peaks[1] && peaks[1] < peaks[0],
            "peaks = {peaks:?}"
        );
        assert!(
            peaks[2] * 4 < full_peak,
            "16 regions should cut peak memory well below {full_peak}, got {}",
            peaks[2]
        );
    }

    #[test]
    fn buffered_entries_count_region_spans() {
        let mut paged = PagedAggregationTree::new(Count, bounded(), 10).unwrap();
        paged.push(Interval::at(0, 2_500), ()).unwrap(); // 3 regions
        paged.push(Interval::at(5_000, 5_001), ()).unwrap(); // 1 region
        assert_eq!(paged.buffered_entries(), 4);
        assert_eq!(paged.len(), 2);
    }

    #[test]
    fn sum_through_paging() {
        let tuples: Vec<(Interval, i64)> = (0..300)
            .map(|i| {
                let start = (i * 37) % 9_000;
                (Interval::at(start, start + 500), i)
            })
            .collect();
        let mut paged = PagedAggregationTree::new(Sum::<i64>::new(), bounded(), 8).unwrap();
        for &(iv, v) in &tuples {
            paged.push(iv, v).unwrap();
        }
        assert_eq!(
            paged.finish(),
            oracle(&Sum::<i64>::new(), bounded(), &tuples)
        );
    }

    #[test]
    fn rejects_bad_configurations() {
        assert!(PagedAggregationTree::new(Count, Interval::TIMELINE, 4).is_err());
        assert!(PagedAggregationTree::new(Count, bounded(), 0).is_err());
        assert!(PagedAggregationTree::new(Count, Interval::at(0, 3), 10).is_err());
    }

    #[test]
    fn out_of_domain_rejected() {
        let mut paged = PagedAggregationTree::new(Count, bounded(), 4).unwrap();
        assert!(paged.push(Interval::at(9_000, 10_000), ()).is_err());
        assert!(paged.is_empty());
    }

    #[test]
    fn empty_input_covers_domain() {
        let paged = PagedAggregationTree::new(Count, bounded(), 4).unwrap();
        let series = paged.finish();
        assert_eq!(series.len(), 1);
        assert_eq!(series.entries()[0].interval, bounded());
        assert_eq!(series.entries()[0].value, 0);
    }
}
