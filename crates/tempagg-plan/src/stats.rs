//! Relation statistics the optimizer consumes (Section 6.3: "The optimizer
//! can exploit information on the sortedness of the underlying relation").

use tempagg_core::pager::PagedReader;
use tempagg_core::{sortedness, Interval, TemporalRelation};

/// What the optimizer knows about a relation's storage order.
///
/// In a real system this comes from catalog metadata (a clustering index,
/// or the DBA declaring the relation retroactively bounded); here it is
/// the sorted flag of a persisted table's header
/// ([`RelationStats::from_pages`]), or *measured* from an in-memory
/// relation via [`RelationStats::analyze`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OrderingKnowledge {
    /// Totally ordered by time.
    Sorted,
    /// Every tuple at most `k` positions from its sorted position.
    KOrdered { k: usize },
    /// Declared retroactively bounded by the DBA: updates lag validity by a
    /// bounded number of *positions* (`equivalent_k`). "If the relation is
    /// declared … retroactively bounded, then the k-ordered aggregation
    /// tree would be the algorithm of choice, as no sorting is required."
    RetroactivelyBounded { equivalent_k: usize },
    /// Known to be in no useful order.
    Unordered,
    /// Nothing known.
    Unknown,
}

/// What the planner knows about a store-maintained aggregate cache for
/// the queried aggregate: when present, the query can be answered from an
/// MVCC snapshot of the cached constant-interval series without scanning
/// the relation at all.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CachedSeriesInfo {
    /// Constant-interval runs in the cached series (the cost of serving
    /// is one pass over them).
    pub runs: usize,
    /// The store's write epoch the cache is current at.
    pub epoch: u64,
}

/// Statistics describing one relation for planning purposes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RelationStats {
    /// Number of tuples.
    pub tuple_count: usize,
    /// Ordering knowledge.
    pub ordering: OrderingKnowledge,
    /// Fraction of tuples with long lifespans (0.0–1.0); drives the
    /// k-tree's memory estimate (Section 6.2: long-lived tuples keep
    /// end-time nodes alive longer).
    pub long_lived_fraction: f64,
    /// Estimated distinct timestamps; `None` defaults to `2 n` (all
    /// unique). Coarse granularities shrink this ("a student-records
    /// database with grades all written on the last day of the semester").
    pub unique_timestamps: Option<usize>,
    /// Expected constant intervals in the *result*, when the query
    /// restricts it (e.g. results wanted for a single year at day
    /// granularity). Small values favour the linked list (Section 6.3).
    pub expected_result_intervals: Option<usize>,
    /// A store-maintained cache of this exact aggregate, when one exists.
    /// [`choose_algorithm`](crate::choose_algorithm) then adds
    /// [`AlgorithmChoice::CachedSeries`](crate::AlgorithmChoice) — serving
    /// an MVCC snapshot for the cost of one pass over its runs — as a
    /// candidate.
    pub cached_series: Option<CachedSeriesInfo>,
    /// Total pages in the relation's paged backing file, when the
    /// relation lives out of core. Switches I/O costing from per-tuple to
    /// per-page ([`CostModel::page_read`](crate::CostModel::page_read)).
    pub pages: Option<usize>,
    /// Pages whose fences overlap the query window — what a fence-pruned
    /// scan actually reads. `None` means no pruning knowledge (cost the
    /// full page count).
    pub pages_in_window: Option<usize>,
    /// When the file keeps its long-lived tuples in an overflow lane of
    /// pages: `(read, of)`, the lane's pages a scan reads of its total.
    /// `pages_in_window` and `pages` already count them; this only shows
    /// them apart.
    pub overflow_pages: Option<(usize, usize)>,
}

impl RelationStats {
    /// Minimal stats: `n` tuples, nothing else known.
    pub fn unknown(tuple_count: usize) -> RelationStats {
        RelationStats {
            tuple_count,
            ordering: OrderingKnowledge::Unknown,
            long_lived_fraction: 0.0,
            unique_timestamps: None,
            expected_result_intervals: None,
            cached_series: None,
            pages: None,
            pages_in_window: None,
            overflow_pages: None,
        }
    }

    /// Measure stats from an in-memory relation; see
    /// [`analyze_intervals`](Self::analyze_intervals).
    pub fn analyze(relation: &TemporalRelation) -> RelationStats {
        let intervals: Vec<Interval> = relation.intervals().collect();
        RelationStats::analyze_intervals(&intervals)
    }

    /// Measure stats from valid-time intervals in storage order:
    /// sortedness via the Section 5.2 metrics, long-lived fraction
    /// relative to the intervals' hull (the relation's lifespan), and
    /// exact distinct-timestamp counts; the k-order and the distinct count
    /// come from the same radix sorts on time ([`sortedness::analyze`]).
    /// Callers that already hold the projected intervals of a filtered
    /// tuple set (the SQL scan) plan from them without building a relation.
    pub fn analyze_intervals(intervals: &[Interval]) -> RelationStats {
        let n = intervals.len();
        let report = sortedness::analyze(intervals);
        let ordering = if n <= 1 || report.k_order == 0 {
            OrderingKnowledge::Sorted
        } else if report.k_order <= n / 8 {
            OrderingKnowledge::KOrdered { k: report.k_order }
        } else {
            OrderingKnowledge::Unordered
        };

        let long_lived = match intervals.iter().copied().reduce(|a, b| a.hull(&b)) {
            Some(lifespan) => {
                let cut = lifespan.long_lived_cut();
                intervals.iter().filter(|iv| iv.is_long_lived(cut)).count() as f64 / n as f64
            }
            None => 0.0,
        };

        RelationStats {
            tuple_count: n,
            ordering,
            long_lived_fraction: long_lived,
            unique_timestamps: Some(report.distinct_timestamps),
            expected_result_intervals: None,
            cached_series: None,
            pages: None,
            pages_in_window: None,
            overflow_pages: None,
        }
    }

    /// What a persisted table's file says without a row read: the header's
    /// tuple count and sorted flag, and — from the fences — the file's pages
    /// and how many of them a fence-pruned scan over `window` reads, which
    /// is what the plan then prices, with the overflow lane's share of both.
    /// A file with two lanes also knows its long-lived fraction exactly: the
    /// overflow lane holds the tuples long-lived over the relation's
    /// lifespan, by the rule [`analyze_intervals`](Self::analyze_intervals)
    /// counts with.
    pub fn from_pages(reader: &PagedReader, window: Interval) -> RelationStats {
        let ordering = if reader.sorted() {
            OrderingKnowledge::Sorted
        } else {
            OrderingKnowledge::Unknown
        };
        let in_window = reader.pages_overlapping(&window);
        let main = reader.main_lane().len();
        let overflow = in_window.iter().filter(|&&page| page >= main).count();
        let long: u64 = reader
            .overflow_lane()
            .iter()
            .map(|f| u64::from(f.tuples))
            .sum();
        let mut stats = RelationStats::unknown(reader.tuple_count() as usize)
            .with_ordering(ordering)
            .with_pages(reader.page_count(), Some(in_window.len()))
            .with_overflow_pages(overflow, reader.overflow_lane().len());
        if long > 0 {
            stats.long_lived_fraction = long as f64 / reader.tuple_count() as f64;
        }
        stats
    }

    /// Distinct timestamps, defaulting to the all-unique worst case.
    pub fn unique_timestamps_or_default(&self) -> usize {
        self.unique_timestamps.unwrap_or(2 * self.tuple_count)
    }

    /// Builder-style setter for the expected result size.
    pub fn with_expected_result_intervals(mut self, n: usize) -> RelationStats {
        self.expected_result_intervals = Some(n);
        self
    }

    /// Builder-style setter for ordering knowledge.
    pub fn with_ordering(mut self, ordering: OrderingKnowledge) -> RelationStats {
        self.ordering = ordering;
        self
    }

    /// Builder-style setter for an available aggregate cache.
    pub fn with_cached_series(mut self, info: CachedSeriesInfo) -> RelationStats {
        self.cached_series = Some(info);
        self
    }

    /// Builder-style setter for paged-storage knowledge: the file's total
    /// page count and, when a fence-pruned scan has been planned, how many
    /// of those pages the query window actually touches.
    pub fn with_pages(mut self, pages: usize, pages_in_window: Option<usize>) -> RelationStats {
        self.pages = Some(pages);
        self.pages_in_window = pages_in_window.map(|p| p.min(pages));
        self
    }

    /// Builder-style setter for the overflow lane's pages: `read` of its
    /// `total`. A file with one lane (`total` 0) sets nothing.
    pub fn with_overflow_pages(mut self, read: usize, total: usize) -> RelationStats {
        self.overflow_pages = (total > 0).then_some((read.min(total), total));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tempagg_core::{Schema, Timestamp, Value, ValueType};

    fn relation(intervals: &[(i64, i64)]) -> TemporalRelation {
        let schema: Arc<Schema> = Schema::of(&[("x", ValueType::Int)]);
        let mut r = TemporalRelation::new(schema);
        for &(s, e) in intervals {
            r.push(vec![Value::Int(0)], Interval::at(s, e)).unwrap();
        }
        r
    }

    #[test]
    fn analyze_detects_sorted() {
        let r = relation(&[(0, 5), (10, 15), (20, 25)]);
        let s = RelationStats::analyze(&r);
        assert_eq!(s.ordering, OrderingKnowledge::Sorted);
        assert_eq!(s.tuple_count, 3);
        assert_eq!(s.unique_timestamps, Some(6));
    }

    #[test]
    fn analyze_detects_k_ordered() {
        // One adjacent swap: k_order = 1 on 16 tuples → k ≤ n/8.
        let mut ivs: Vec<(i64, i64)> = (0..16).map(|i| (i * 10, i * 10 + 5)).collect();
        ivs.swap(4, 5);
        let s = RelationStats::analyze(&relation(&ivs));
        assert_eq!(s.ordering, OrderingKnowledge::KOrdered { k: 1 });
    }

    #[test]
    fn analyze_detects_unordered() {
        let ivs: Vec<(i64, i64)> = (0..16).rev().map(|i| (i * 10, i * 10 + 5)).collect();
        let s = RelationStats::analyze(&relation(&ivs));
        assert_eq!(s.ordering, OrderingKnowledge::Unordered);
    }

    #[test]
    fn analyze_long_lived_fraction() {
        // Lifespan [0, 99]; one tuple spans 60% of it.
        let r = relation(&[(0, 59), (10, 12), (95, 99)]);
        let s = RelationStats::analyze(&r);
        assert!((s.long_lived_fraction - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn defaults_and_builders() {
        let s = RelationStats::unknown(100)
            .with_expected_result_intervals(10)
            .with_ordering(OrderingKnowledge::RetroactivelyBounded { equivalent_k: 3 });
        assert_eq!(s.unique_timestamps_or_default(), 200);
        assert_eq!(s.expected_result_intervals, Some(10));
        assert!(matches!(
            s.ordering,
            OrderingKnowledge::RetroactivelyBounded { equivalent_k: 3 }
        ));
    }

    #[test]
    fn from_pages_reads_the_header_and_fences() {
        use tempagg_core::pager::{self, PagedWriteOptions};
        let mut path = std::env::temp_dir();
        path.push(format!("tempagg-plan-stats-{}.tapg", std::process::id()));
        let intervals: Vec<(i64, i64)> = (0..400).map(|i| (i * 10, i * 10 + 5)).collect();
        let options = PagedWriteOptions {
            page_size: 512,
            caches: Vec::new(),
        };
        pager::write_relation(&relation(&intervals), &path, &options).unwrap();
        let reader = PagedReader::open(&path).unwrap();
        let window = Interval::at(1_000, 1_200);
        let s = RelationStats::from_pages(&reader, window);
        assert_eq!(s.tuple_count, 400);
        assert_eq!(s.ordering, OrderingKnowledge::Sorted);
        assert_eq!(s.pages, Some(reader.page_count()));
        let in_window = reader.pages_overlapping(&window).len();
        assert_eq!(s.pages_in_window, Some(in_window));
        assert!(0 < in_window && in_window < reader.page_count());
        pager::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_relation() {
        let r = relation(&[]);
        let s = RelationStats::analyze(&r);
        assert_eq!(s.tuple_count, 0);
        assert_eq!(s.ordering, OrderingKnowledge::Sorted);
    }

    /// The statistics computed with comparison sorts: a stable index sort
    /// for the displacements, sort + dedup for the distinct timestamps.
    fn reference(intervals: &[Interval]) -> (Vec<usize>, RelationStats) {
        let n = intervals.len();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (intervals[i].start(), intervals[i].end()));
        let mut pos = vec![0usize; n];
        for (sorted_pos, &storage_pos) in idx.iter().enumerate() {
            pos[storage_pos] = sorted_pos;
        }
        let disps: Vec<usize> = pos
            .iter()
            .enumerate()
            .map(|(i, &p)| i.abs_diff(p))
            .collect();
        let k = disps.iter().copied().max().unwrap_or(0);
        let ordering = if n <= 1 || k == 0 {
            OrderingKnowledge::Sorted
        } else if k <= n / 8 {
            OrderingKnowledge::KOrdered { k }
        } else {
            OrderingKnowledge::Unordered
        };
        // The long-lived rule is the shared one; only the sorts are checked.
        let cut = intervals
            .iter()
            .copied()
            .reduce(|a, b| a.hull(&b))
            .map(|lifespan| lifespan.long_lived_cut());
        let long_lived = cut.map_or(0.0, |cut| {
            intervals.iter().filter(|iv| iv.is_long_lived(cut)).count() as f64 / n as f64
        });
        let mut ts: Vec<i64> = intervals
            .iter()
            .flat_map(|iv| [iv.start().get(), iv.end().get()])
            .collect();
        ts.sort_unstable();
        ts.dedup();
        let mut stats = RelationStats::unknown(n).with_ordering(ordering);
        stats.long_lived_fraction = long_lived;
        stats.unique_timestamps = Some(ts.len());
        (pos, stats)
    }

    #[test]
    fn radix_statistics_equal_the_comparison_sorts() {
        let state = std::cell::Cell::new(0x3c6ef372fe94f82bu64);
        let step = || {
            let mut x = state.get();
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            state.set(x);
            x
        };
        let random = |n: usize, span: u64, width: u64| -> Vec<Interval> {
            (0..n)
                .map(|_| {
                    let s = i64::try_from(step() % span).unwrap();
                    Interval::at(s, s + i64::try_from(step() % width).unwrap())
                })
                .collect()
        };
        let mut sets: Vec<(&str, Vec<Interval>)> = Vec::new();
        for n in [0usize, 1, 2, 200, 300, 5_000, 40_000] {
            let shuffled = random(n, 1_000_000, 50_000);
            let mut sorted = shuffled.clone();
            sorted.sort_by_key(|iv| (iv.start(), iv.end()));
            let mut k_ordered = sorted.clone();
            for i in (0..n.saturating_sub(7)).step_by(11) {
                k_ordered.swap(i, i + 7);
            }
            let reversed: Vec<Interval> = sorted.iter().rev().copied().collect();
            // Few distinct instants: equal starts tie-break on the end, equal
            // intervals on storage order.
            let duplicates = random(n, 16, 4);
            let extreme: Vec<Interval> = (0..n)
                .map(|i| match i % 5 {
                    0 => Interval::new(Timestamp::MIN, Timestamp::FOREVER).unwrap(),
                    1 => Interval::instant(Timestamp::MIN),
                    2 => Interval::from_start(Timestamp::FOREVER),
                    _ => {
                        let (a, b) = (step() as i64, step() as i64);
                        Interval::new(a.min(b), a.max(b)).unwrap()
                    }
                })
                .collect();
            sets.extend([
                ("random", shuffled),
                ("sorted", sorted),
                ("k-ordered", k_ordered),
                ("reversed", reversed),
                ("duplicate-heavy", duplicates),
                ("i64-extreme", extreme),
            ]);
        }
        for (shape, intervals) in &sets {
            let (positions, want) = reference(intervals);
            let n = intervals.len();
            assert_eq!(
                sortedness::sorted_positions(intervals),
                positions,
                "{shape}, n = {n}"
            );
            assert_eq!(
                RelationStats::analyze_intervals(intervals),
                want,
                "{shape}, n = {n}"
            );
        }
    }
}
