//! The aggregation tree (Section 5.1) — the paper's algorithm of choice for
//! *unordered* relations.
//!
//! An unbalanced binary tree over the time-line is built incrementally:
//! each tuple's start and end times split at most one constant interval
//! each, and a tuple whose interval completely covers a node records its
//! contribution at that node instead of descending to the leaves. A final
//! depth-first search accumulates the partial states along each path and
//! emits one result row per leaf (constant interval), in time order.
//!
//! The tree is intentionally *not* balanced: its shape is determined by
//! insertion order, which is why the paper finds it excellent on randomly
//! ordered relations (expected `O(n log n)`) and quadratic on sorted ones —
//! reproduced by this implementation and measured in Figures 6–8.

use crate::memory::{model_node_bytes, MemoryStats};
use crate::traits::TemporalAggregator;
use crate::tree::{ops, Arena, NodeId};
use tempagg_agg::Aggregate;
use tempagg_core::{Interval, Result, SeriesSink, TempAggError};

/// The aggregation tree algorithm.
///
/// # Example
///
/// Reproduce the paper's running `COUNT(Name)` query over the `Employed`
/// relation (Table 1):
///
/// ```
/// use tempagg_agg::Count;
/// use tempagg_algo::{AggregationTree, TemporalAggregator};
/// use tempagg_core::Interval;
///
/// let mut tree = AggregationTree::new(Count);
/// tree.push(Interval::from_start(18), ()).unwrap(); // Richard
/// tree.push(Interval::at(8, 20), ()).unwrap();      // Karen
/// tree.push(Interval::at(7, 12), ()).unwrap();      // Nathan
/// tree.push(Interval::at(18, 21), ()).unwrap();     // Nathan
///
/// let result = tree.finish();
/// let rows: Vec<(Interval, u64)> =
///     result.iter().map(|e| (e.interval, e.value)).collect();
/// assert_eq!(rows, vec![
///     (Interval::at(0, 6), 0),
///     (Interval::at(7, 7), 1),
///     (Interval::at(8, 12), 2),
///     (Interval::at(13, 17), 1),
///     (Interval::at(18, 20), 3),
///     (Interval::at(21, 21), 2),
///     (Interval::from_start(22), 1),
/// ]);
/// ```
#[derive(Clone, Debug)]
pub struct AggregationTree<A: Aggregate> {
    agg: A,
    arena: Arena<A::State>,
    root: NodeId,
    domain: Interval,
    tuples: usize,
    /// Every pushed interval with a singleton state of its value, replayed
    /// against the tree's output at `finish` (path-sum conservation).
    #[cfg(feature = "validate")]
    recorded: Vec<(Interval, A::State)>,
}

impl<A: Aggregate> AggregationTree<A> {
    /// A tree over the paper's time-line `[0, ∞]`.
    pub fn new(agg: A) -> Self {
        Self::with_domain(agg, Interval::TIMELINE)
    }

    /// A tree over an explicit domain; every pushed interval must lie
    /// within it. The initial tree is a single constant interval spanning
    /// the domain with an empty aggregate (Figure 3.a).
    pub fn with_domain(agg: A, domain: Interval) -> Self {
        let mut arena = Arena::new();
        let root = arena.alloc_leaf(agg.empty_state());
        AggregationTree {
            agg,
            arena,
            root,
            domain,
            tuples: 0,
            #[cfg(feature = "validate")]
            recorded: Vec::new(),
        }
    }

    /// The configured domain.
    pub fn domain(&self) -> Interval {
        self.domain
    }

    /// Tuples inserted so far.
    pub fn len(&self) -> usize {
        self.tuples
    }

    /// `true` before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }

    /// Number of tree nodes currently allocated (leaves + internal).
    pub fn node_count(&self) -> usize {
        self.arena.live()
    }

    /// Maximum root→leaf depth; ≈ `node_count` on the sorted-input worst
    /// case, ≈ `log₂(node_count)` on random input.
    pub fn depth(&self) -> usize {
        ops::depth(&self.arena, self.root)
    }

    /// The constant intervals currently at the leaves, in time order.
    pub fn leaf_intervals(&self) -> Vec<Interval> {
        ops::leaf_intervals(&self.arena, self.root, self.domain)
    }

    /// Multi-line rendering of the current tree (see Figure 3).
    pub fn render(&self) -> String {
        ops::render(&self.arena, self.root, self.domain)
    }
}

impl<A: Aggregate> TemporalAggregator<A> for AggregationTree<A> {
    fn algorithm(&self) -> &'static str {
        "aggregation-tree"
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
        ops::insert(
            &mut self.arena,
            &self.agg,
            self.root,
            self.domain,
            interval,
            &value,
        )?;
        self.tuples += 1;
        #[cfg(feature = "validate")]
        {
            let mut singleton = self.agg.empty_state();
            self.agg.insert(&mut singleton, &value);
            self.recorded.push((interval, singleton));
        }
        Ok(())
    }

    /// Batched insert: the SoA timestamp columns are scanned first so the
    /// whole batch is domain-checked (and rejected atomically) without
    /// touching the values, and the node arena is grown once for the worst
    /// case — each tuple splits at most two constant intervals, adding at
    /// most four nodes — instead of re-allocating mid-batch.
    fn push_batch(&mut self, chunk: &tempagg_core::Chunk<A::Input>) -> Result<()>
    where
        A::Input: Clone,
    {
        for i in 0..chunk.len() {
            let Some(interval) = chunk.interval(i) else {
                return Err(TempAggError::internal("chunk columns out of step"));
            };
            if !self.domain.covers(&interval) {
                return Err(TempAggError::OutOfDomain {
                    tuple: (interval.start(), interval.end()),
                    domain: (self.domain.start(), self.domain.end()),
                });
            }
        }
        self.arena.reserve(chunk.len().saturating_mul(4));
        #[cfg(feature = "validate")]
        self.recorded.reserve(chunk.len());
        for (interval, value) in chunk {
            ops::insert(
                &mut self.arena,
                &self.agg,
                self.root,
                self.domain,
                interval,
                value,
            )?;
            self.tuples += 1;
            #[cfg(feature = "validate")]
            {
                let mut singleton = self.agg.empty_state();
                self.agg.insert(&mut singleton, value);
                self.recorded.push((interval, singleton));
            }
        }
        Ok(())
    }

    fn finish_into(self, sink: &mut impl SeriesSink<A::Output>) {
        #[cfg(feature = "validate")]
        let sink = &mut crate::validate::CheckedSink::new(sink, self.domain, "aggregation-tree");
        #[cfg(feature = "validate")]
        if self.recorded.len() <= crate::validate::ORACLE_CAP {
            sink.expect_series(crate::validate::replay(
                &self.agg,
                self.domain,
                &self.recorded,
            ));
        }
        ops::emit(
            &self.arena,
            &self.agg,
            self.root,
            self.domain,
            self.agg.empty_state(),
            sink,
        );
        #[cfg(feature = "validate")]
        sink.finish();
    }

    fn memory(&self) -> MemoryStats {
        MemoryStats {
            live_nodes: self.arena.live(),
            peak_nodes: self.arena.peak_live(),
            node_model_bytes: model_node_bytes(self.agg.state_model_bytes()),
            node_actual_bytes: std::mem::size_of::<crate::tree::arena::Node<A::State>>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_agg::{Avg, Count, Max, Min, Sum};
    use tempagg_core::Series;

    /// The paper's `Employed` relation (Figure 1): (name, salary, valid).
    fn employed() -> Vec<(&'static str, i64, Interval)> {
        vec![
            ("Richard", 40_000, Interval::from_start(18)),
            ("Karen", 45_000, Interval::at(8, 20)),
            ("Nathan", 35_000, Interval::at(7, 12)),
            ("Nathan", 37_000, Interval::at(18, 21)),
        ]
    }

    fn count_tree() -> AggregationTree<Count> {
        let mut t = AggregationTree::new(Count);
        for (_, _, iv) in employed() {
            t.push(iv, ()).unwrap();
        }
        t
    }

    #[test]
    fn figure3_stepwise_construction() {
        let mut t = AggregationTree::new(Count);
        // 3.a: a single, empty constant interval.
        assert_eq!(t.leaf_intervals(), vec![Interval::TIMELINE]);
        assert_eq!(t.node_count(), 1);

        // 3.b: [18, ∞] — one unique timestamp, one new constant interval.
        t.push(Interval::from_start(18), ()).unwrap();
        assert_eq!(
            t.leaf_intervals(),
            vec![Interval::at(0, 17), Interval::from_start(18)]
        );

        // 3.c: [8, 20] — two unique timestamps, two new constant intervals.
        t.push(Interval::at(8, 20), ()).unwrap();
        assert_eq!(
            t.leaf_intervals(),
            vec![
                Interval::at(0, 7),
                Interval::at(8, 17),
                Interval::at(18, 20),
                Interval::from_start(21),
            ]
        );
        // "The node [8,17] has a count of 1": visible via the rendering.
        let r = t.render();
        assert!(r.contains("[8, 17] leaf state 1"), "render was:\n{r}");

        // 3.d: [7, 12] and [18, 21] — the final seven constant intervals
        // (6 unique timestamps + the initial interval).
        t.push(Interval::at(7, 12), ()).unwrap();
        t.push(Interval::at(18, 21), ()).unwrap();
        assert_eq!(
            t.leaf_intervals(),
            vec![
                Interval::at(0, 6),
                Interval::at(7, 7),
                Interval::at(8, 12),
                Interval::at(13, 17),
                Interval::at(18, 20),
                Interval::at(21, 21),
                Interval::from_start(22),
            ]
        );
        // Each unique timestamp adds two nodes: 1 + 2·6 = 13.
        assert_eq!(t.node_count(), 13);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn table1_result() {
        let values: Vec<u64> = count_tree().finish().iter().map(|e| e.value).collect();
        assert_eq!(values, vec![0, 1, 2, 1, 3, 2, 1]);
    }

    #[test]
    fn dfs_accumulates_path_values() {
        // The paper's example: in the final tree the leaf [8, 12] stores 1
        // and its ancestors contribute 0 + 0 + 1, giving 2.
        let t = count_tree();
        let s = t.finish();
        assert_eq!(s.entries()[2].interval, Interval::at(8, 12));
        assert_eq!(s.entries()[2].value, 2);
    }

    #[test]
    fn covering_insert_does_not_descend() {
        // Adding [5, 50] to the final tree updates interior node [8, 17]
        // (fully covered) without reaching its leaves.
        let mut t = count_tree();
        let before = t.node_count();
        t.push(Interval::at(5, 50), ()).unwrap();
        // [5, 50] splits [0, 6] at 5 and [21, 21]? No: 50 splits [22, ∞].
        // Exactly two new splits → four new nodes.
        assert_eq!(t.node_count(), before + 4);
        let r = t.render();
        assert!(
            r.contains("[8, 17] split 12 state 2"),
            "interior node should absorb the covering tuple:\n{r}"
        );
    }

    #[test]
    fn out_of_domain_rejected() {
        let mut t = AggregationTree::with_domain(Count, Interval::at(0, 100));
        assert!(t.push(Interval::at(50, 101), ()).is_err());
        assert!(t.push(Interval::at(50, 100), ()).is_ok());
    }

    #[test]
    fn empty_tree_emits_single_empty_interval() {
        let t = AggregationTree::new(Count);
        let s = t.finish();
        assert_eq!(s.len(), 1);
        assert_eq!(s.entries()[0].interval, Interval::TIMELINE);
        assert_eq!(s.entries()[0].value, 0);
    }

    #[test]
    fn duplicate_timestamps_do_not_add_nodes() {
        let mut t = AggregationTree::new(Count);
        t.push(Interval::at(10, 20), ()).unwrap();
        let n = t.node_count();
        t.push(Interval::at(10, 20), ()).unwrap();
        assert_eq!(
            t.node_count(),
            n,
            "identical interval reuses existing splits"
        );
        let s = t.finish();
        assert_eq!(s.entries()[1].interval, Interval::at(10, 20));
        assert_eq!(s.entries()[1].value, 2);
    }

    #[test]
    fn sorted_input_linearizes_the_tree() {
        let mut t = AggregationTree::new(Count);
        for i in 0..100 {
            let s = i * 10;
            t.push(Interval::at(s, s + 5), ()).unwrap();
        }
        // Worst case: depth grows with n rather than log n.
        assert!(t.depth() > 100, "depth = {}", t.depth());
    }

    #[test]
    fn sum_over_employed() {
        let mut t = AggregationTree::new(Sum::<i64>::new());
        for (_, salary, iv) in employed() {
            t.push(iv, salary).unwrap();
        }
        let s = t.finish();
        let values: Vec<Option<i64>> = s.iter().map(|e| e.value).collect();
        assert_eq!(
            values,
            vec![
                None,
                Some(35_000),
                Some(80_000),
                Some(45_000),
                Some(122_000),
                Some(77_000),
                Some(40_000),
            ]
        );
    }

    #[test]
    fn min_max_avg_over_employed() {
        let mut min_t = AggregationTree::new(Min::<i64>::new());
        let mut max_t = AggregationTree::new(Max::<i64>::new());
        let mut avg_t = AggregationTree::new(Avg::<i64>::new());
        for (_, salary, iv) in employed() {
            min_t.push(iv, salary).unwrap();
            max_t.push(iv, salary).unwrap();
            avg_t.push(iv, salary).unwrap();
        }
        let at = |s: &Series<Option<i64>>, i: usize| s.entries()[i].value;
        let min_s = min_t.finish();
        let max_s = max_t.finish();
        // Over [18, 20]: Richard 40K, Karen 45K, Nathan 37K.
        assert_eq!(at(&min_s, 4), Some(37_000));
        assert_eq!(at(&max_s, 4), Some(45_000));
        let avg_s = avg_t.finish();
        let avg = avg_s.entries()[4].value.unwrap();
        assert!((avg - (40_000.0 + 45_000.0 + 37_000.0) / 3.0).abs() < 1e-9);
        // Empty leading interval.
        assert_eq!(at(&min_s, 0), None);
    }

    #[test]
    fn memory_stats_track_peak() {
        let t = count_tree();
        let m = t.memory();
        assert_eq!(m.live_nodes, 13);
        assert_eq!(m.peak_nodes, 13);
        assert_eq!(m.node_model_bytes, 16);
        assert_eq!(m.peak_model_bytes(), 13 * 16);
        assert_eq!(
            TemporalAggregator::<Count>::algorithm(&t),
            "aggregation-tree"
        );
    }

    #[test]
    fn instant_tuples() {
        let mut t = AggregationTree::new(Count);
        t.push(Interval::instant(5), ()).unwrap();
        t.push(Interval::instant(5), ()).unwrap();
        let s = t.finish();
        assert_eq!(s.entries()[1].interval, Interval::instant(5));
        assert_eq!(s.entries()[1].value, 2);
        assert_eq!(s.entries()[0].interval, Interval::at(0, 4));
    }

    #[test]
    fn tuple_at_domain_edges() {
        let mut t = AggregationTree::with_domain(Count, Interval::at(0, 10));
        t.push(Interval::at(0, 10), ()).unwrap();
        t.push(Interval::at(0, 3), ()).unwrap();
        t.push(Interval::at(8, 10), ()).unwrap();
        let s = t.finish();
        let rows: Vec<(Interval, u64)> = s.iter().map(|e| (e.interval, e.value)).collect();
        assert_eq!(
            rows,
            vec![
                (Interval::at(0, 3), 2),
                (Interval::at(4, 7), 1),
                (Interval::at(8, 10), 2),
            ]
        );
    }
}
