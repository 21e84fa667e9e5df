//! Structural invariant validators, compiled in under the `validate`
//! cargo feature.
//!
//! Every check here is a *debug aid* in the spirit of `debug_assert!`:
//! with the feature off nothing is compiled and the algorithms run at full
//! speed; with it on, each algorithm re-derives the invariants its
//! correctness argument rests on and panics with a descriptive message the
//! moment one fails. **No production emission code is compiled out under
//! `validate`**: a check is a statement added beside the code that ships,
//! never a second body in its place. The checks are wired in three places:
//!
//! 1. **Output coverage** — every algorithm's `finish_into` wraps the sink
//!    it was handed in a [`CheckedSink`]: the constant intervals must
//!    exactly tile the configured domain — sorted, gap-free and
//!    overlap-free (Section 2 defines the result as a partition of the
//!    time-line) — checked entry by entry as they stream through.
//!    [`assert_series_tiles`] is the same check over a collected series,
//!    run on the result of [`crate::run`] / [`crate::run_with_stats`] for
//!    *every* [`crate::TemporalAggregator`] via its `domain` hook.
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
//! `agg_tree.rs` and `balanced.rs` go one step further and hand their
//! [`CheckedSink`] an expected series — a [`replay`] of the recorded input,
//! the O(n²) [`crate::oracle::oracle`] — that every emitted entry must
//! equal (capped at [`ORACLE_CAP`] tuples to keep stress tests tractable).

use crate::tree::{Arena, NodeId};
use std::collections::HashSet;
use tempagg_agg::Aggregate;
use tempagg_core::{Interval, SeriesEntry, SeriesSink, Timestamp};

/// Largest input size for which `finish` replays the O(n²) oracle.
pub const ORACLE_CAP: usize = 2_048;

/// Largest arena (live nodes) for which every insertion re-walks the whole
/// tree shape. Beyond this the per-insert walk would turn the stress tests
/// quadratic; the exact-cover check (O(depth) per insert) still runs.
pub const SHAPE_CAP: usize = 4_096;

/// The series an O(n²) linear replay of `recorded` produces — one singleton
/// state per pushed tuple, merged per constant interval — for
/// [`CheckedSink::expect_series`]. Comparing a tree's output against it is
/// path-sum conservation for the whole computation: the tree's path-merge
/// order must agree with a flat left-to-right merge, which the commutative
/// monoid laws of [`Aggregate`] promise.
///
/// Equality is exact, which is safe for the integral aggregates the test
/// suite exercises; floating-point states built from integer-valued data
/// also compare exactly because every partial sum is representable.
pub(crate) fn replay<'a, A: Aggregate>(
    agg: &'a A,
    domain: Interval,
    recorded: &'a [(Interval, A::State)],
) -> impl Iterator<Item = SeriesEntry<A::Output>> + 'a {
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
    (0..boundaries.len()).map(move |i| {
        // lint: allow(indexing): i ranges over boundaries' own indices
        let start = boundaries[i];
        let end = boundaries.get(i + 1).map_or(domain.end(), |b| b.prev());
        // lint: allow(no-unwrap): boundaries are sorted, deduplicated and inside the domain, so start <= end
        let segment = Interval::new(start, end).expect("boundaries are increasing");
        let mut state = agg.empty_state();
        for (interval, singleton) in recorded {
            if interval.overlaps(&segment) {
                agg.merge(&mut state, singleton);
            }
        }
        SeriesEntry::new(segment, agg.finish(&state))
    })
}

/// One step of the tiling invariant: `next` starts the `expected` interval
/// if it is the first entry, and otherwise meets the entry before it.
fn assert_tiles_on(last: Option<Interval>, next: Interval, expected: Interval, algorithm: &str) {
    match last {
        None => assert!(
            next.start() == expected.start(),
            "validate[{algorithm}]: first constant interval {next} does not start at {expected}"
        ),
        Some(last) => assert!(
            last.meets(&next),
            "validate[{algorithm}]: constant intervals {last} and {next} do not meet — the \
             result has a gap or an overlap"
        ),
    }
}

/// The end of the tiling invariant: there was a `last` entry — even an
/// empty relation produces one all-empty constant interval spanning the
/// domain — and it ends where `expected` does.
fn assert_tiling_ends(last: Option<Interval>, expected: Interval, algorithm: &str) {
    let Some(last) = last else {
        // lint: allow(no-unwrap): validators report broken invariants by panicking, like debug_assert!
        panic!("validate[{algorithm}]: empty result series; expected coverage of {expected}");
    };
    assert!(
        last.end() == expected.end(),
        "validate[{algorithm}]: last constant interval {last} does not end at {expected}"
    );
}

/// Panic unless `entries` exactly tile `expected`: the first entry starts
/// at its start, consecutive entries meet, the last ends at its end, and
/// there is at least one.
pub fn assert_series_tiles<T>(entries: &[SeriesEntry<T>], expected: Interval, algorithm: &str) {
    let mut last = None;
    for entry in entries {
        assert_tiles_on(last, entry.interval, expected, algorithm);
        last = Some(entry.interval);
    }
    assert_tiling_ends(last, expected, algorithm);
}

/// The streaming form of [`assert_series_tiles`]: a [`SeriesSink`] adapter
/// that wraps the sink an algorithm's `finish_into` was handed, checks each
/// entry as it arrives and forwards it at once — so the emission code that
/// runs under `validate` is the code that ships, at the same resident
/// memory. Every entry must extend the tiling of `domain` and, after
/// [`expect_series`](Self::expect_series), equal the next entry of an
/// independently computed series; [`finish`](Self::finish) demands that the
/// tiling reached the domain's end. Failures panic with the algorithm's
/// name.
pub(crate) struct CheckedSink<'a, T, S> {
    inner: S,
    domain: Interval,
    algorithm: &'static str,
    last: Option<Interval>,
    expected: Option<Box<dyn Iterator<Item = SeriesEntry<T>> + 'a>>,
}

impl<'a, T, S> CheckedSink<'a, T, S> {
    pub(crate) fn new(inner: S, domain: Interval, algorithm: &'static str) -> Self {
        CheckedSink {
            inner,
            domain,
            algorithm,
            last: None,
            expected: None,
        }
    }

    /// Also compare every entry, in order, against `series`.
    pub(crate) fn expect_series(&mut self, series: impl Iterator<Item = SeriesEntry<T>> + 'a) {
        self.expected = Some(Box::new(series));
    }

    /// The producer is done (which, every entry having matched, exhausts
    /// an expected series that tiles the same domain).
    pub(crate) fn finish(&mut self) {
        assert_tiling_ends(self.last, self.domain, self.algorithm);
    }
}

impl<T: PartialEq + std::fmt::Debug, S: SeriesSink<T>> SeriesSink<T> for CheckedSink<'_, T, S> {
    fn accept(&mut self, interval: Interval, value: T) {
        let algorithm = self.algorithm;
        assert_tiles_on(self.last, interval, self.domain, algorithm);
        self.last = Some(interval);
        if let Some(want) = self.expected.as_mut().map(Iterator::next) {
            assert!(
                want.as_ref()
                    .is_some_and(|w| w.interval == interval && w.value == value),
                "validate[{algorithm}]: {value:?} over {interval} disagrees with the expected \
                 entry {want:?}"
            );
        }
        self.inner.accept(interval, value);
    }
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

    /// Drive a [`CheckedSink`] for algorithm `probe` over `[0, 20]` with
    /// `fed`, optionally against an expected series; returns what it
    /// forwarded.
    fn drive(
        fed: &[(i64, i64, u64)],
        expected: Option<&[(i64, i64, u64)]>,
    ) -> Vec<SeriesEntry<u64>> {
        let entries = |rows: &[(i64, i64, u64)]| -> Vec<SeriesEntry<u64>> {
            rows.iter()
                .map(|&(lo, hi, v)| SeriesEntry::new(Interval::at(lo, hi), v))
                .collect()
        };
        let mut forwarded = Vec::new();
        let mut sink = CheckedSink::new(&mut forwarded, Interval::at(0, 20), "probe");
        if let Some(rows) = expected {
            sink.expect_series(entries(rows).into_iter());
        }
        for e in entries(fed) {
            sink.accept(e.interval, e.value);
        }
        sink.finish();
        forwarded
    }

    #[test]
    fn checked_sink_forwards_every_entry_of_a_sound_series() {
        let rows = [(0, 4, 7), (5, 20, 9)];
        assert_eq!(drive(&rows, None).len(), 2);
        let forwarded = drive(&rows, Some(&rows));
        assert_eq!(forwarded[1], SeriesEntry::new(Interval::at(5, 20), 9));
    }

    #[test]
    fn checked_sink_forwards_as_entries_arrive() {
        let mut forwarded: Vec<SeriesEntry<u64>> = Vec::new();
        let mut sink = CheckedSink::new(&mut forwarded, Interval::at(0, 20), "probe");
        sink.accept(Interval::at(0, 4), 7);
        // Nothing is held back for the end-of-series checks.
        assert_eq!(sink.inner.len(), 1);
    }

    #[test]
    #[should_panic(expected = "validate[probe]: constant intervals [0, 4] and [6, 20]")]
    fn checked_sink_rejects_a_gap() {
        drive(&[(0, 4, 0), (6, 20, 0)], None);
    }

    #[test]
    #[should_panic(expected = "validate[probe]: constant intervals [0, 5] and [5, 20]")]
    fn checked_sink_rejects_an_overlap() {
        drive(&[(0, 5, 0), (5, 20, 0)], None);
    }

    #[test]
    #[should_panic(expected = "validate[probe]: first constant interval [1, 20] does not start")]
    fn checked_sink_rejects_a_first_entry_off_the_domain_start() {
        drive(&[(1, 20, 0)], None);
    }

    #[test]
    #[should_panic(expected = "validate[probe]: last constant interval [0, 19] does not end")]
    fn checked_sink_rejects_a_series_that_stops_short() {
        drive(&[(0, 19, 0)], None);
    }

    #[test]
    #[should_panic(expected = "validate[probe]: empty result series")]
    fn checked_sink_rejects_an_empty_series() {
        drive(&[], None);
    }

    #[test]
    #[should_panic(expected = "validate[probe]: 8 over [5, 20] disagrees")]
    fn checked_sink_rejects_a_wrong_value() {
        drive(&[(0, 4, 7), (5, 20, 8)], Some(&[(0, 4, 7), (5, 20, 9)]));
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
