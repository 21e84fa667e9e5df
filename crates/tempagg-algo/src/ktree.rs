//! The k-ordered aggregation tree (Section 5.3) — the aggregation tree plus
//! garbage collection, for *k-ordered* relations.
//!
//! If every tuple is at most `k` positions from its place in the totally
//! ordered relation, then once the algorithm has seen the tuple `2k + 1`
//! positions back, no future tuple can start before that tuple's start time
//! (the paper's Figure 4 argument). Every constant interval ending before
//! that *gc-threshold* is final: it is emitted to the next stage of query
//! evaluation and its nodes are reclaimed. The tree therefore holds only a
//! sliding window of the time-line, which is what collapses the memory
//! curve in Figure 9 — and with a pre-sorted relation and `k = 1`, yields
//! the paper's recommended overall strategy.

use crate::memory::{model_node_bytes, MemoryStats};
use crate::traits::TemporalAggregator;
use crate::tree::{ops, Arena, NodeId};
use std::collections::VecDeque;
use tempagg_agg::Aggregate;
use tempagg_core::{Interval, Result, SeriesEntry, SeriesSink, TempAggError, Timestamp};

/// The k-ordered aggregation tree algorithm.
///
/// # Example
///
/// Stream a sorted relation with `k = 1` — the paper's recommended
/// strategy — draining finalized constant intervals as they appear:
///
/// ```
/// use tempagg_agg::Count;
/// use tempagg_algo::{KOrderedAggregationTree, TemporalAggregator};
/// use tempagg_core::{Interval, Series};
///
/// let mut tree = KOrderedAggregationTree::new(Count, 1).unwrap();
/// let mut streamed = Series::new();
/// for i in 0..100 {
///     tree.push(Interval::at(i * 10, i * 10 + 14), ()).unwrap();
///     tree.emit_ready(&mut streamed); // GC output flows straight out
///     assert!(tree.node_count() < 32, "GC keeps the tree tiny");
/// }
/// let tail = tree.finish();
/// assert!(streamed.len() > 150 && tail.len() < 16); // nearly everything streamed
/// ```
///
/// Results become available *incrementally*:
/// [`TemporalAggregator::emit_ready`] streams the constant intervals that
/// garbage collection has already finalized into any
/// [`SeriesSink`], so downstream operators can consume them while the
/// scan is still running — with no per-drain allocation.
/// [`TemporalAggregator::finish`] returns the complete series (anything
/// already emitted is not repeated in the stream but is always part of
/// `finish`'s bookkeeping — see `emit_ready`).
#[derive(Clone, Debug)]
pub struct KOrderedAggregationTree<A: Aggregate> {
    agg: A,
    arena: Arena<A::State>,
    root: NodeId,
    /// Original domain; `finish` must cover all of it.
    domain: Interval,
    /// Left edge of the part of the domain still in the tree. Everything
    /// before it has been emitted.
    frontier: Timestamp,
    k: usize,
    /// Start times of the last `2k + 1` tuples, oldest first.
    window: VecDeque<Timestamp>,
    /// Finalized constant intervals not yet drained.
    ready: Vec<SeriesEntry<A::Output>>,
    /// Scratch stacks of the garbage collector's emit and free walks, kept
    /// across collections so a steady-state collection allocates nothing.
    emit_stack: ops::EmitStack<A::State>,
    free_stack: Vec<NodeId>,
    tuples: usize,
    /// Start of the first constant interval not yet handed out by
    /// `emit_ready`; every drained batch must tile exactly
    /// `[drained_through, frontier)`, so nothing is emitted twice or
    /// resurrected after garbage collection.
    #[cfg(feature = "validate")]
    drained_through: Timestamp,
}

impl<A: Aggregate> KOrderedAggregationTree<A> {
    /// A k-ordered tree over the paper's time-line `[0, ∞]`.
    ///
    /// Errors if `k == 0`; the paper's sorted-relation configuration is
    /// `k = 1`.
    pub fn new(agg: A, k: usize) -> Result<Self> {
        Self::with_domain(agg, k, Interval::TIMELINE)
    }

    /// A k-ordered tree over an explicit domain.
    pub fn with_domain(agg: A, k: usize, domain: Interval) -> Result<Self> {
        if k == 0 {
            return Err(TempAggError::InvalidK { k });
        }
        let mut arena = Arena::new();
        let root = arena.alloc_leaf(agg.empty_state());
        Ok(KOrderedAggregationTree {
            agg,
            arena,
            root,
            domain,
            frontier: domain.start(),
            k,
            window: VecDeque::with_capacity(2 * k + 2),
            ready: Vec::new(),
            emit_stack: Vec::new(),
            free_stack: Vec::new(),
            tuples: 0,
            #[cfg(feature = "validate")]
            drained_through: domain.start(),
        })
    }

    /// The configured `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Tuples inserted so far.
    pub fn len(&self) -> usize {
        self.tuples
    }

    /// `true` before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }

    /// Nodes currently held in the (windowed) tree.
    pub fn node_count(&self) -> usize {
        self.arena.live()
    }

    /// Number of finalized-but-undrained entries.
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// The extent still covered by the in-memory tree.
    fn live_range(&self) -> Interval {
        Interval::new(self.frontier, self.domain.end())
            // lint: allow(no-unwrap): gc only ever advances the frontier to split + 1 with split < domain end
            .expect("frontier never passes the domain end")
    }

    /// Garbage-collect every constant interval ending before `threshold`
    /// (Section 5.3, Figure 5).
    ///
    /// Walks the left spine; whenever a node's entire left subtree ends
    /// before the threshold, the subtree is emitted in time order, the node
    /// is replaced by its right child (the removed node's partial state is
    /// pushed down into that child, preserving path sums), and the walk
    /// continues from the replacement. Only the earliest consecutive part
    /// of the tree is collected, so no hole can appear.
    ///
    /// Errors only if the frontier bookkeeping regressed
    /// ([`TempAggError::Internal`] — a bug, not bad input).
    fn gc(&mut self, threshold: Timestamp) -> Result<()> {
        // Path state accumulated from ancestors we have *descended through*
        // (they remain in the tree and remain ancestors of anything we
        // emit below them).
        let mut acc = self.agg.empty_state();
        // Parent of `cur` along the left spine, if any.
        let mut parent: Option<NodeId> = None;
        let mut cur = self.root;
        // lint: hot-loop(ktree-gc) — the left-spine collection walk; per node only the state clones below, and the emit / free walks it calls run on the tree's scratch stacks (the rule cannot see into them)
        loop {
            let node = self.arena.get(cur);
            if node.is_leaf() {
                break;
            }
            let (split, left, right) = (node.split, node.left, node.right);
            if split < threshold {
                // Whole left subtree [frontier, split] is final.
                // lint: allow(no-alloc-in-scan): the emit pass needs its own path-sum copy; O(|state|), amortized by the nodes reclaimed below
                let mut emit_acc = acc.clone();
                self.agg.merge(&mut emit_acc, &self.arena.get(cur).state);
                let emitted_range = Interval::new(self.frontier, split).map_err(|_| {
                    // lint: allow(no-alloc-in-scan): error-path only — formatting happens at most once, as gc aborts
                    TempAggError::internal(format!(
                        "gc frontier regressed: frontier {} passed collectable split {split}",
                        self.frontier
                    ))
                })?;
                ops::emit(
                    &self.arena,
                    &self.agg,
                    left,
                    emitted_range,
                    emit_acc,
                    &mut self.ready,
                    &mut self.emit_stack,
                );
                self.arena.free_subtree(left, &mut self.free_stack);
                // `cur` goes away: push its state down into the surviving
                // right child so every path through that child still sums
                // the same.
                // lint: allow(no-alloc-in-scan): the pushed-down state must outlive the freed node; O(|state|) per reclaimed node
                let cur_state = self.arena.get(cur).state.clone();
                self.agg
                    .merge(&mut self.arena.get_mut(right).state, &cur_state);
                match parent {
                    None => self.root = right,
                    Some(p) => self.arena.get_mut(p).left = right,
                }
                self.arena.free_one(cur);
                self.frontier = split.next();
                cur = right;
            } else {
                // Descend left, keeping the node: its state applies to the
                // left subtree too.
                self.agg.merge(&mut acc, &node.state);
                parent = Some(cur);
                cur = left;
            }
        }
        Ok(())
    }
}

impl<A: Aggregate> TemporalAggregator<A> for KOrderedAggregationTree<A> {
    fn algorithm(&self) -> &'static str {
        "k-ordered-aggregation-tree"
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
        if interval.start() < self.frontier {
            // The tuple reaches into already-emitted constant intervals:
            // the input was not k-ordered as promised.
            return Err(TempAggError::KOrderViolation {
                start: interval.start(),
                gc_threshold: self.frontier,
                k: self.k,
            });
        }
        let live_range = self.live_range();
        ops::insert(
            &mut self.arena,
            &self.agg,
            self.root,
            live_range,
            interval,
            &value,
        );
        self.tuples += 1;
        // After processing a tuple, look back at the start time of the
        // tuple 2k + 1 positions earlier; constant intervals ending before
        // it are final. The length check makes the window non-empty here.
        if self.window.len() == 2 * self.k + 1 {
            if let Some(&threshold) = self.window.front() {
                self.gc(threshold)?;
                self.window.pop_front();
            }
        }
        self.window.push_back(interval.start());
        Ok(())
    }

    /// Streams the constant intervals that garbage collection has already
    /// finalized — no intermediate `Vec` beyond the internal buffer, whose
    /// capacity is reused across drains.
    ///
    /// Under the `validate` feature every non-empty batch is checked to
    /// tile `[previously drained, frontier)` exactly: batches are
    /// contiguous, monotonically forward, and never repeat an already
    /// drained constant interval.
    fn emit_ready(&mut self, sink: &mut impl SeriesSink<A::Output>) {
        #[cfg(feature = "validate")]
        if !self.ready.is_empty() {
            let window = Interval::new(self.drained_through, self.frontier.prev())
                // lint: allow(no-unwrap): validate-only check; a malformed drain window is exactly the bug it reports
                .expect("drained constant intervals precede the frontier");
            crate::validate::assert_series_tiles(&self.ready, window, "k-ordered emit_ready");
            self.drained_through = self.frontier;
        }
        for e in self.ready.drain(..) {
            sink.accept(e.interval, e.value);
        }
    }

    fn finish_into(mut self, sink: &mut impl SeriesSink<A::Output>) {
        // Under `validate`, what is left must tile the undrained tail.
        #[cfg(feature = "validate")]
        let sink = &mut crate::validate::CheckedSink::new(
            sink,
            Interval::new(self.drained_through, self.domain.end())
                // lint: allow(no-unwrap): validate-only check; drained_through never passes the domain end
                .expect("undrained tail is a well-formed interval"),
            "k-ordered finish",
        );
        for e in self.ready.drain(..) {
            sink.accept(e.interval, e.value);
        }
        ops::emit(
            &self.arena,
            &self.agg,
            self.root,
            self.live_range(),
            self.agg.empty_state(),
            sink,
            &mut self.emit_stack,
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
    use crate::agg_tree::AggregationTree;
    use crate::oracle::oracle;
    use tempagg_agg::{Count, Sum};
    use tempagg_core::Series;

    fn sorted_run(n: i64) -> Vec<(Interval, ())> {
        (0..n)
            .map(|i| (Interval::at(i * 10, i * 10 + 15), ()))
            .collect()
    }

    #[test]
    fn rejects_k_zero() {
        assert!(matches!(
            KOrderedAggregationTree::new(Count, 0),
            Err(TempAggError::InvalidK { k: 0 })
        ));
    }

    #[test]
    fn matches_oracle_on_sorted_input_k1() {
        let tuples = sorted_run(50);
        let mut t = KOrderedAggregationTree::new(Count, 1).unwrap();
        for &(iv, ()) in &tuples {
            t.push(iv, ()).unwrap();
        }
        let expected = oracle(&Count, Interval::TIMELINE, &tuples);
        assert_eq!(t.finish(), expected);
    }

    #[test]
    fn matches_plain_tree_on_k_ordered_input() {
        // Perturb a sorted run by distance ≤ 3 swaps, run with k = 3.
        let mut tuples = sorted_run(60);
        for i in (0..54).step_by(9) {
            tuples.swap(i, i + 3);
        }
        let mut kt = KOrderedAggregationTree::new(Count, 3).unwrap();
        let mut plain = AggregationTree::new(Count);
        for &(iv, ()) in &tuples {
            kt.push(iv, ()).unwrap();
            plain.push(iv, ()).unwrap();
        }
        assert_eq!(kt.finish(), plain.finish());
    }

    #[test]
    fn gc_bounds_live_nodes_on_sorted_input() {
        let tuples = sorted_run(500);
        let mut t = KOrderedAggregationTree::new(Count, 1).unwrap();
        let mut max_live = 0;
        for &(iv, ()) in &tuples {
            t.push(iv, ()).unwrap();
            max_live = max_live.max(t.node_count());
        }
        // Without GC the tree would hold ~2·2·500 nodes; with k = 1 the
        // window keeps it to a small constant.
        assert!(max_live <= 32, "live nodes reached {max_live}");
        assert!(t.memory().peak_nodes <= 32);
        // Results must still be complete and correct.
        let expected = oracle(&Count, Interval::TIMELINE, &tuples);
        assert_eq!(t.finish(), expected);
    }

    #[test]
    fn streaming_drain_plus_finish_equals_batch() {
        let tuples = sorted_run(100);
        let mut t = KOrderedAggregationTree::new(Count, 1).unwrap();
        let mut streamed: Vec<SeriesEntry<u64>> = Vec::new();
        for &(iv, ()) in &tuples {
            t.push(iv, ()).unwrap();
            t.emit_ready(&mut streamed);
        }
        assert!(
            !streamed.is_empty(),
            "GC should finalize intervals during the scan"
        );
        let tail = t.finish();
        // finish() after draining returns only the un-drained remainder...
        let mut all = streamed;
        all.extend(tail.into_entries());
        let expected = oracle(&Count, Interval::TIMELINE, &tuples);
        assert_eq!(Series::from_entries(all), expected);
    }

    #[test]
    fn emit_ready_streams_straight_into_a_series() {
        // The whole result can flow through one sink: emit_ready during
        // the scan, finish_into for the tail, byte-identical to finish.
        let tuples = sorted_run(100);
        let mut t = KOrderedAggregationTree::new(Count, 1).unwrap();
        let mut out = Series::new();
        for &(iv, ()) in &tuples {
            t.push(iv, ()).unwrap();
            t.emit_ready(&mut out);
        }
        t.finish_into(&mut out);
        let expected = oracle(&Count, Interval::TIMELINE, &tuples);
        assert_eq!(out, expected);
    }

    #[test]
    fn detects_k_order_violation() {
        let mut t = KOrderedAggregationTree::new(Count, 1).unwrap();
        // Strongly increasing starts...
        for i in 0..20 {
            t.push(Interval::at(i * 100, i * 100 + 5), ()).unwrap();
        }
        // ...then a tuple far in the emitted past.
        let err = t.push(Interval::at(0, 3), ()).unwrap_err();
        assert!(matches!(err, TempAggError::KOrderViolation { .. }));
    }

    #[test]
    fn long_lived_tuples_delay_collection() {
        // A long-lived first tuple keeps its end-time node alive until the
        // scan passes it (Section 6.1's explanation of the k-tree's
        // sensitivity to long-lived tuples).
        let mut long_lived: Vec<(Interval, ())> = vec![(Interval::at(0, 100_000), ())];
        long_lived.extend(sorted_run(200));
        let mut t = KOrderedAggregationTree::new(Count, 1).unwrap();
        let mut max_live_long = 0;
        for &(iv, ()) in &long_lived {
            t.push(iv, ()).unwrap();
            max_live_long = max_live_long.max(t.node_count());
        }
        let expected = oracle(&Count, Interval::TIMELINE, &long_lived);
        assert_eq!(t.finish(), expected);

        let mut t2 = KOrderedAggregationTree::new(Count, 1).unwrap();
        let mut max_live_short = 0;
        for (iv, ()) in sorted_run(200) {
            t2.push(iv, ()).unwrap();
            max_live_short = max_live_short.max(t2.node_count());
        }
        assert!(
            max_live_long > max_live_short,
            "long-lived: {max_live_long} vs short-lived: {max_live_short}"
        );
    }

    #[test]
    fn larger_k_keeps_more_state() {
        let tuples = sorted_run(300);
        let mut peaks = Vec::new();
        for k in [1usize, 10, 100] {
            let mut t = KOrderedAggregationTree::new(Count, k).unwrap();
            for &(iv, ()) in &tuples {
                t.push(iv, ()).unwrap();
            }
            peaks.push(t.memory().peak_nodes);
            let expected = oracle(&Count, Interval::TIMELINE, &tuples);
            assert_eq!(t.finish(), expected, "k = {k}");
        }
        assert!(
            peaks[0] < peaks[1] && peaks[1] < peaks[2],
            "peaks = {peaks:?}"
        );
    }

    #[test]
    fn sum_aggregate_through_gc() {
        let tuples: Vec<(Interval, i64)> = (0..100)
            .map(|i| (Interval::at(i * 7, i * 7 + 20), i))
            .collect();
        let mut t = KOrderedAggregationTree::new(Sum::<i64>::new(), 2).unwrap();
        for &(iv, v) in &tuples {
            t.push(iv, v).unwrap();
        }
        let expected = oracle(&Sum::<i64>::new(), Interval::TIMELINE, &tuples);
        assert_eq!(t.finish(), expected);
    }

    #[test]
    fn empty_finish_covers_domain() {
        let t = KOrderedAggregationTree::with_domain(Count, 1, Interval::at(0, 50)).unwrap();
        let s = t.finish();
        assert_eq!(s.len(), 1);
        assert_eq!(s.entries()[0].interval, Interval::at(0, 50));
    }

    #[test]
    fn duplicate_start_times_within_window() {
        let tuples: Vec<(Interval, ())> = vec![
            (Interval::at(5, 10), ()),
            (Interval::at(5, 8), ()),
            (Interval::at(5, 20), ()),
            (Interval::at(6, 6), ()),
            (Interval::at(7, 30), ()),
            (Interval::at(8, 9), ()),
        ];
        let mut t = KOrderedAggregationTree::new(Count, 1).unwrap();
        for &(iv, ()) in &tuples {
            t.push(iv, ()).unwrap();
        }
        let expected = oracle(&Count, Interval::TIMELINE, &tuples);
        assert_eq!(t.finish(), expected);
    }
}
