//! Structural invariant validators, compiled in under the `validate`
//! cargo feature.
//!
//! Every check here is a *debug aid* in the spirit of `debug_assert!`:
//! with the feature off nothing is compiled and the algorithms run at full
//! speed; with it on, each algorithm re-derives the invariants its
//! correctness argument rests on and panics with a descriptive message the
//! moment one fails. The checks are wired in three places:
//!
//! 1. **Output coverage** — [`assert_series_tiles`] runs on the result of
//!    [`crate::run`] / [`crate::run_with_stats`] for *every*
//!    [`crate::TemporalAggregator`], via the new
//!    [`crate::TemporalAggregator::domain`] hook: the emitted constant
//!    intervals must exactly tile the configured domain — sorted, gap-free
//!    and overlap-free (Section 2 defines the result as a partition of the
//!    time-line).
//! 2. **Tree shape** — [`assert_tree_shape`] walks the arena after every
//!    insertion (`tree/ops.rs`): splits lie strictly inside node extents,
//!    children tile their parent, no node is reachable twice, and the
//!    reachable count equals the arena's live count (no leaks, no cycles).
//!    [`assert_exact_cover`] additionally proves each insertion recorded
//!    the tuple on a set of nodes whose extents tile the tuple's interval
//!    exactly — the path-sum conservation the covering-insert optimisation
//!    (Section 5.1) depends on.
//! 3. **Streaming** — the k-ordered tree checks frontier monotonicity and
//!    that `emit_ready` batches tile `[previously-drained, frontier)`
//!    contiguously, so no constant interval is ever emitted twice or
//!    resurrected after garbage collection (Section 5.3).
//!
//! `agg_tree.rs` and `balanced.rs` go one step further and replay their
//! input through the O(n²) [`crate::oracle::oracle`] at `finish`, comparing
//! the full series (capped at [`ORACLE_CAP`] tuples to keep stress tests
//! tractable).

use crate::tree::{Arena, NodeId};
use std::collections::HashSet;
use tempagg_agg::Aggregate;
use tempagg_core::{Interval, Series, SeriesEntry, Timestamp};

/// Largest input size for which `finish` replays the O(n²) oracle.
pub const ORACLE_CAP: usize = 2_048;

/// Largest arena (live nodes) for which every insertion re-walks the whole
/// tree shape. Beyond this the per-insert walk would turn the stress tests
/// quadratic; the exact-cover check (O(depth) per insert) still runs.
pub const SHAPE_CAP: usize = 4_096;

/// Panic unless `actual` equals an O(n²) linear replay of `recorded` — one
/// singleton state per pushed tuple, merged per constant interval. This is
/// path-sum conservation for the whole computation: the tree's path-merge
/// order must agree with a flat left-to-right merge, which the commutative
/// monoid laws of [`Aggregate`] promise.
///
/// Equality is exact, which is safe for the integral aggregates the test
/// suite exercises; floating-point states built from integer-valued data
/// also compare exactly because every partial sum is representable.
pub(crate) fn assert_matches_replay<A: Aggregate>(
    agg: &A,
    domain: Interval,
    recorded: &[(Interval, A::State)],
    actual: &Series<A::Output>,
    algorithm: &str,
) {
    let mut boundaries: Vec<Timestamp> = Vec::with_capacity(2 * recorded.len() + 1);
    boundaries.push(domain.start());
    for (interval, _) in recorded {
        if interval.start() > domain.start() {
            boundaries.push(interval.start());
        }
        if interval.end() < domain.end() {
            boundaries.push(interval.end().next());
        }
    }
    boundaries.sort_unstable();
    boundaries.dedup();
    assert!(
        actual.len() == boundaries.len(),
        "validate[{algorithm}]: result has {} constant intervals but the replay \
         expects {}",
        actual.len(),
        boundaries.len()
    );
    for (i, entry) in actual.entries().iter().enumerate() {
        // lint: allow(indexing): i < boundaries.len() — the lengths are asserted equal above
        let start = boundaries[i];
        let end = boundaries.get(i + 1).map_or(domain.end(), |b| b.prev());
        assert!(
            entry.interval.start() == start && entry.interval.end() == end,
            "validate[{algorithm}]: constant interval {} at position {i} does not \
             match the replay's [{start}, {end}]",
            entry.interval
        );
        let mut state = agg.empty_state();
        for (interval, singleton) in recorded {
            if interval.overlaps(&entry.interval) {
                agg.merge(&mut state, singleton);
            }
        }
        let expected = agg.finish(&state);
        assert!(
            entry.value == expected,
            "validate[{algorithm}]: value {:?} over {} disagrees with the replay's \
             {expected:?}",
            entry.value,
            entry.interval
        );
    }
}

/// Panic unless `entries` exactly tile `expected`: the first entry starts
/// at its start, consecutive entries meet, and the last ends at its end.
///
/// An empty entry list is rejected — even an empty relation produces one
/// all-empty constant interval spanning the domain.
pub fn assert_series_tiles<T>(entries: &[SeriesEntry<T>], expected: Interval, algorithm: &str) {
    assert!(
        !entries.is_empty(),
        "validate[{algorithm}]: empty result series; expected coverage of {expected}"
    );
    let first = entries[0].interval;
    assert!(
        first.start() == expected.start(),
        "validate[{algorithm}]: first constant interval {first} does not start at {expected}"
    );
    for (i, w) in entries.windows(2).enumerate() {
        let [a, b] = w else { continue };
        assert!(
            a.interval.meets(&b.interval),
            "validate[{algorithm}]: constant intervals {} and {} (positions {i}, {}) \
             do not meet — the result has a gap or an overlap",
            a.interval,
            b.interval,
            i + 1
        );
    }
    let last = entries[entries.len() - 1].interval;
    assert!(
        last.end() == expected.end(),
        "validate[{algorithm}]: last constant interval {last} does not end at {expected}"
    );
}

/// Panic unless the (unordered) `covered` extents tile `tuple` exactly:
/// sorted by start they must be pairwise disjoint, consecutive ones must
/// meet, and the union must equal `tuple`. This is path-sum conservation
/// for a single covering insertion: the tuple contributes to every instant
/// of its interval exactly once.
pub(crate) fn assert_exact_cover(tuple: Interval, covered: &mut [Interval], context: &str) {
    covered.sort_unstable_by_key(Interval::start);
    assert!(
        !covered.is_empty(),
        "validate[{context}]: insertion of {tuple} recorded the tuple on no node"
    );
    assert!(
        covered[0].start() == tuple.start(),
        "validate[{context}]: covering nodes for {tuple} start at {} instead",
        covered[0]
    );
    for w in covered.windows(2) {
        let [a, b] = w else { continue };
        assert!(
            a.meets(b),
            "validate[{context}]: covering nodes {a} and {b} for {tuple} leave a gap \
             or double-count"
        );
    }
    let last = covered[covered.len() - 1];
    assert!(
        last.end() == tuple.end(),
        "validate[{context}]: covering nodes for {tuple} end at {last} instead"
    );
}

/// Panic unless the subtree rooted at `root` (covering `range`) is a
/// well-formed aggregation tree: every internal node's split lies strictly
/// inside its extent (so both children cover non-empty halves), children
/// tile their parent, no node is visited twice (no sharing, no cycles),
/// and every live arena node is reachable (no leaks).
pub(crate) fn assert_tree_shape<S>(arena: &Arena<S>, root: NodeId, range: Interval, context: &str) {
    let mut seen: HashSet<NodeId> = HashSet::with_capacity(arena.live());
    let mut stack: Vec<(NodeId, Interval)> = vec![(root, range)];
    while let Some((id, extent)) = stack.pop() {
        assert!(
            seen.insert(id),
            "validate[{context}]: node {id:?} reachable twice — the tree has a cycle \
             or shares a subtree"
        );
        let node = arena.get(id);
        if node.is_leaf() {
            continue;
        }
        assert!(
            extent.start() <= node.split && node.split < extent.end(),
            "validate[{context}]: split {} of node {id:?} lies outside its extent {extent}",
            node.split
        );
        // Children tile the parent by construction of the two ranges; what
        // must be checked recursively is each child's own split ordering.
        let left = Interval::new(extent.start(), node.split);
        let right = Interval::new(node.split.next(), extent.end());
        match (left, right) {
            (Ok(left), Ok(right)) => {
                stack.push((node.right, right));
                stack.push((node.left, left));
            }
            // lint: allow(no-unwrap): validators report broken invariants by panicking, like debug_assert!
            _ => panic!(
                "validate[{context}]: node {id:?} extent {extent} with split {} does not \
                 produce two well-formed child extents",
                node.split
            ),
        }
    }
    assert!(
        seen.len() == arena.live(),
        "validate[{context}]: {} nodes reachable from the root but {} live in the arena \
         — leaked or orphaned nodes",
        seen.len(),
        arena.live()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_core::Timestamp;

    fn entry(lo: i64, hi: i64) -> SeriesEntry<u64> {
        SeriesEntry::new(Interval::at(lo, hi), 0)
    }

    #[test]
    fn tiling_accepts_exact_partition() {
        let entries = [entry(0, 4), entry(5, 9), entry(10, 20)];
        assert_series_tiles(&entries, Interval::at(0, 20), "test");
    }

    #[test]
    #[should_panic(expected = "do not meet")]
    fn tiling_rejects_gap() {
        let entries = [entry(0, 4), entry(6, 20)];
        assert_series_tiles(&entries, Interval::at(0, 20), "test");
    }

    #[test]
    #[should_panic(expected = "does not start")]
    fn tiling_rejects_late_start() {
        let entries = [entry(1, 20)];
        assert_series_tiles(&entries, Interval::at(0, 20), "test");
    }

    #[test]
    #[should_panic(expected = "does not end")]
    fn tiling_rejects_early_end() {
        let entries = [entry(0, 19)];
        assert_series_tiles(&entries, Interval::at(0, 20), "test");
    }

    #[test]
    #[should_panic(expected = "empty result series")]
    fn tiling_rejects_empty() {
        assert_series_tiles(&[] as &[SeriesEntry<u64>], Interval::at(0, 20), "test");
    }

    #[test]
    fn exact_cover_accepts_unordered_tiles() {
        let mut covered = vec![Interval::at(5, 9), Interval::at(0, 4)];
        assert_exact_cover(Interval::at(0, 9), &mut covered, "test");
    }

    #[test]
    #[should_panic(expected = "leave a gap")]
    fn exact_cover_rejects_overlap() {
        let mut covered = vec![Interval::at(0, 5), Interval::at(5, 9)];
        assert_exact_cover(Interval::at(0, 9), &mut covered, "test");
    }

    #[test]
    fn tree_shape_accepts_real_tree() {
        let mut arena: Arena<u64> = Arena::new();
        let left = arena.alloc_leaf(0);
        let right = arena.alloc_leaf(0);
        let root = arena.alloc_leaf(0);
        let node = arena.get_mut(root);
        node.split = Timestamp(9);
        node.left = left;
        node.right = right;
        assert_tree_shape(&arena, root, Interval::at(0, 20), "test");
    }

    #[test]
    #[should_panic(expected = "outside its extent")]
    fn tree_shape_rejects_out_of_range_split() {
        let mut arena: Arena<u64> = Arena::new();
        let left = arena.alloc_leaf(0);
        let right = arena.alloc_leaf(0);
        let root = arena.alloc_leaf(0);
        let node = arena.get_mut(root);
        node.split = Timestamp(30);
        node.left = left;
        node.right = right;
        assert_tree_shape(&arena, root, Interval::at(0, 20), "test");
    }

    #[test]
    #[should_panic(expected = "live in the arena")]
    fn tree_shape_rejects_leaked_nodes() {
        let mut arena: Arena<u64> = Arena::new();
        let root = arena.alloc_leaf(0);
        let _orphan = arena.alloc_leaf(0);
        assert_tree_shape(&arena, root, Interval::at(0, 20), "test");
    }

    #[test]
    #[should_panic(expected = "reachable twice")]
    fn tree_shape_rejects_shared_subtree() {
        let mut arena: Arena<u64> = Arena::new();
        let shared = arena.alloc_leaf(0);
        let root = arena.alloc_leaf(0);
        let node = arena.get_mut(root);
        node.split = Timestamp(9);
        node.left = shared;
        node.right = shared;
        assert_tree_shape(&arena, root, Interval::at(0, 20), "test");
    }
}
