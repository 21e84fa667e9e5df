//! Relation statistics the optimizer consumes (Section 6.3: "The optimizer
//! can exploit information on the sortedness of the underlying relation").

use tempagg_core::{sortedness, Interval, TemporalRelation};

/// What the optimizer knows about a relation's storage order.
///
/// In a real system this comes from catalog metadata (a clustering index,
/// or the DBA declaring the relation retroactively bounded); here it can
/// also be *measured* from an in-memory relation via
/// [`RelationStats::analyze`].
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
    /// per-page ([`Calibration::page_read_ns`](crate::Calibration)).
    pub pages: Option<usize>,
    /// Pages whose fences overlap the query window — what a fence-pruned
    /// scan actually reads. `None` means no pruning knowledge (cost the
    /// full page count).
    pub pages_in_window: Option<usize>,
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
    /// exact distinct-timestamp counts. Callers that already hold the
    /// projected intervals of a filtered tuple set (the SQL scan) plan
    /// from them without building a relation.
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

        let lifespan = intervals
            .iter()
            .copied()
            .reduce(|a, b| a.hull(&b))
            .map_or(0, |iv| iv.duration());
        let long_lived = if lifespan > 0 {
            intervals
                .iter()
                .filter(|iv| iv.duration() as f64 >= 0.2 * lifespan as f64)
                .count() as f64
                / n.max(1) as f64
        } else {
            0.0
        };

        let mut ts: Vec<i64> = Vec::with_capacity(2 * n);
        for iv in intervals {
            ts.push(iv.start().get());
            ts.push(iv.end().get());
        }
        ts.sort_unstable();
        ts.dedup();

        RelationStats {
            tuple_count: n,
            ordering,
            long_lived_fraction: long_lived,
            unique_timestamps: Some(ts.len()),
            expected_result_intervals: None,
            cached_series: None,
            pages: None,
            pages_in_window: None,
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tempagg_core::{Schema, Value, ValueType};

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
    fn empty_relation() {
        let r = relation(&[]);
        let s = RelationStats::analyze(&r);
        assert_eq!(s.tuple_count, 0);
        assert_eq!(s.ordering, OrderingKnowledge::Sorted);
    }
}
