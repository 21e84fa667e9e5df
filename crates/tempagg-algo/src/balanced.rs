//! A *balanced* aggregation tree — the first item on the paper's
//! future-work list (Section 7): "One alternative to examine is a balanced
//! aggregation tree, which should be especially efficient in the case of a
//! k-ordered relation."
//!
//! Buffering the input lets us know every constant-interval boundary up
//! front, so the tree can be built perfectly balanced over the sorted
//! boundaries (this is exactly the segment tree of Preparata & Shamos that
//! Section 5.1 cites). Insertions then cost `O(log n)` regardless of input
//! order, trading the incremental algorithms' single-pass property for
//! immunity to the sorted-input `O(n²)` blow-up — an ablation measured by
//! the benchmark harness.

use crate::memory::{model_node_bytes, MemoryStats};
use crate::traits::TemporalAggregator;
use crate::tree::arena::Node;
use crate::tree::{ops, Arena, NodeId};
use tempagg_agg::Aggregate;
use tempagg_core::{Interval, Result, SeriesSink, TempAggError, Timestamp};

/// The balanced aggregation tree (buffered; two passes over the input like
/// the two-scan baseline, but with the aggregation tree's covering
/// insertions).
#[derive(Clone, Debug)]
pub struct BalancedAggregationTree<A: Aggregate> {
    agg: A,
    domain: Interval,
    buffered: Vec<(Interval, A::Input)>,
}

impl<A: Aggregate> BalancedAggregationTree<A> {
    /// Over the paper's time-line `[0, ∞]`.
    pub fn new(agg: A) -> Self {
        Self::with_domain(agg, Interval::TIMELINE)
    }

    /// Over an explicit domain.
    pub fn with_domain(agg: A, domain: Interval) -> Self {
        BalancedAggregationTree {
            agg,
            domain,
            buffered: Vec::new(),
        }
    }

    /// Tuples buffered so far.
    pub fn len(&self) -> usize {
        self.buffered.len()
    }

    /// `true` before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.buffered.is_empty()
    }

    /// Build a perfectly balanced tree whose leaves are the constant
    /// intervals delimited by `boundaries` (which starts with the domain
    /// start). Returns the root.
    fn build(arena: &mut Arena<A::State>, agg: &A, boundaries: &[Timestamp]) -> NodeId {
        // Recursion depth is log₂(n) — safe.
        fn rec<A: Aggregate>(
            arena: &mut Arena<A::State>,
            agg: &A,
            boundaries: &[Timestamp],
            lo: usize,
            hi: usize,
        ) -> NodeId {
            if hi - lo == 1 {
                return arena.alloc_leaf(agg.empty_state());
            }
            let mid = lo + (hi - lo) / 2;
            let left = rec(arena, agg, boundaries, lo, mid);
            let right = rec(arena, agg, boundaries, mid, hi);
            let split = boundaries[mid].prev();
            let id = arena.alloc_leaf(agg.empty_state());
            let node = arena.get_mut(id);
            node.split = split;
            node.left = left;
            node.right = right;
            id
        }
        rec(arena, agg, boundaries, 0, boundaries.len())
    }
}

impl<A: Aggregate> TemporalAggregator<A> for BalancedAggregationTree<A> {
    fn algorithm(&self) -> &'static str {
        "balanced-aggregation-tree"
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
        self.buffered.push((interval, value));
        Ok(())
    }

    fn finish_into(self, sink: &mut impl SeriesSink<A::Output>) {
        // Pass 1: boundaries (each boundary is the first instant of a
        // constant interval).
        let mut boundaries: Vec<Timestamp> = Vec::with_capacity(2 * self.buffered.len() + 1);
        boundaries.push(self.domain.start());
        for (iv, _) in &self.buffered {
            if iv.start() > self.domain.start() {
                boundaries.push(iv.start());
            }
            if iv.end() < self.domain.end() {
                boundaries.push(iv.end().next());
            }
        }
        boundaries.sort_unstable();
        boundaries.dedup();

        let mut arena: Arena<A::State> = Arena::with_capacity(2 * boundaries.len());
        let root = Self::build(&mut arena, &self.agg, &boundaries);

        // Pass 2: covering insertions; every endpoint is an existing
        // boundary, so no leaf ever splits and each insert is O(depth).
        for (iv, value) in &self.buffered {
            ops::insert(&mut arena, &self.agg, root, self.domain, *iv, value)
                // lint: allow(no-unwrap): pass 1 registered both endpoints as boundaries, so insert cannot hit a malformed split
                .expect("pass 1 registered every endpoint as a boundary");
        }

        #[cfg(feature = "validate")]
        let sink =
            &mut crate::validate::CheckedSink::new(sink, self.domain, "balanced-aggregation-tree");
        #[cfg(feature = "validate")]
        if self.buffered.len() <= crate::validate::ORACLE_CAP {
            let oracle = crate::oracle::oracle(&self.agg, self.domain, &self.buffered);
            sink.expect_series(oracle.into_iter());
        }
        ops::emit(
            &arena,
            &self.agg,
            root,
            self.domain,
            self.agg.empty_state(),
            sink,
        );
        #[cfg(feature = "validate")]
        sink.finish();
    }

    fn memory(&self) -> MemoryStats {
        // `finish` builds 2·boundaries − 1 nodes; before it runs, report
        // the worst-case estimate (every endpoint unique) so the planner
        // can compare against the incremental algorithms.
        let estimated_nodes = 2 * (2 * self.buffered.len() + 1) - 1;
        MemoryStats {
            live_nodes: estimated_nodes,
            peak_nodes: estimated_nodes,
            node_model_bytes: model_node_bytes(self.agg.state_model_bytes()),
            node_actual_bytes: std::mem::size_of::<Node<A::State>>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle;
    use tempagg_agg::{Count, Sum};

    #[test]
    fn matches_oracle_on_table1() {
        let tuples = vec![
            (Interval::from_start(18), ()),
            (Interval::at(8, 20), ()),
            (Interval::at(7, 12), ()),
            (Interval::at(18, 21), ()),
        ];
        let mut t = BalancedAggregationTree::new(Count);
        for &(iv, ()) in &tuples {
            t.push(iv, ()).unwrap();
        }
        assert_eq!(t.finish(), oracle(&Count, Interval::TIMELINE, &tuples));
    }

    #[test]
    fn sorted_input_stays_logarithmic() {
        // The unbalanced tree would become a linear list here; the
        // balanced tree's shape is input-order independent.
        let tuples: Vec<(Interval, ())> = (0..1_000)
            .map(|i| (Interval::at(i * 10, i * 10 + 5), ()))
            .collect();
        let mut t = BalancedAggregationTree::new(Count);
        for &(iv, ()) in &tuples {
            t.push(iv, ()).unwrap();
        }
        assert_eq!(t.finish(), oracle(&Count, Interval::TIMELINE, &tuples));
    }

    #[test]
    fn random_order_equals_sorted_order() {
        let sorted: Vec<(Interval, i64)> = (0..200)
            .map(|i| (Interval::at(i * 5, i * 5 + 12), i))
            .collect();
        let mut shuffled = sorted.clone();
        // Deterministic shuffle.
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, (i * 7919) % (i + 1));
        }
        let run = |tuples: &[(Interval, i64)]| {
            let mut t = BalancedAggregationTree::new(Sum::<i64>::new());
            for &(iv, v) in tuples {
                t.push(iv, v).unwrap();
            }
            t.finish()
        };
        assert_eq!(run(&sorted), run(&shuffled));
    }

    #[test]
    fn empty_input() {
        let t = BalancedAggregationTree::with_domain(Count, Interval::at(0, 10));
        let s = t.finish();
        assert_eq!(s.len(), 1);
        assert_eq!(s.entries()[0].value, 0);
    }

    #[test]
    fn single_tuple_covering_domain() {
        let mut t = BalancedAggregationTree::with_domain(Count, Interval::at(0, 10));
        t.push(Interval::at(0, 10), ()).unwrap();
        let s = t.finish();
        assert_eq!(s.len(), 1);
        assert_eq!(s.entries()[0].value, 1);
    }

    #[test]
    fn out_of_domain_rejected() {
        let mut t = BalancedAggregationTree::with_domain(Count, Interval::at(0, 10));
        assert!(t.push(Interval::at(0, 11), ()).is_err());
    }
}
