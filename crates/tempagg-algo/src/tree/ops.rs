//! Tree operations shared by the aggregation tree, the k-ordered
//! aggregation tree, and the balanced variant: covering insertion, ordered
//! emission, and diagnostics.
//!
//! No walk recurses: the paper's worst case (sorted input) degenerates the
//! tree into a linear list of depth `n`, which would overflow the call
//! stack long before it troubles a loop. [`insert`] needs no stack at all;
//! the depth-first walks ([`emit`], [`Arena::free_subtree`]) take theirs
//! from the caller, so a caller that walks per tuple (the k-ordered tree's
//! garbage collection) reuses one buffer instead of allocating per walk.

use super::arena::{Arena, NodeId};
use tempagg_agg::Aggregate;
#[cfg(test)]
use tempagg_core::Series;
use tempagg_core::{Interval, SeriesSink, Timestamp};

/// The depth-first stack [`emit`] walks with: a node, its extent, and the
/// partial state its ancestors contribute.
pub type EmitStack<S> = Vec<(NodeId, Interval, S)>;

/// Insert a tuple's interval and value into the subtree rooted at `root`
/// (which covers `range`), splitting leaves at the tuple's start and end
/// times as needed (Section 5.1).
///
/// Three loops and no stack. The walk first descends the path the tuple's
/// two endpoints share, while both fall in one child. At the *fork*, the
/// node whose split separates them, it follows the start boundary down the
/// left child — every node there ends inside the tuple, so going left puts
/// the value on that node's right child — and then the end boundary down
/// the right child, symmetrically. A node the tuple covers takes the value
/// and ends its walk, the key saving over per-leaf updates. A leaf the
/// tuple only partly covers is split where it falls: before the start if
/// the start lies strictly inside it, otherwise after the end.
///
/// Requires `range.covers(interval)`; callers validate against their
/// domain first. Under the `validate` feature the updated subtree's shape
/// and the insertion's exact-cover property are checked before returning.
pub fn insert<A: Aggregate>(
    arena: &mut Arena<A::State>,
    agg: &A,
    root: NodeId,
    range: Interval,
    interval: Interval,
    value: &A::Input,
) {
    debug_assert!(range.covers(&interval));
    let (s, e) = (interval.start(), interval.end());
    #[cfg(feature = "validate")]
    let mut covered: Vec<Interval> = Vec::new();
    // The tuple covers node `$id`, whose extent is `[$lo, $hi]`. Only debug
    // assertions and the validate record read the bound a walk does not
    // test; release builds drop it.
    macro_rules! cover {
        ($id:expr, $lo:expr, $hi:expr) => {{
            agg.insert(&mut arena.get_mut($id).state, value);
            #[cfg(feature = "validate")]
            // lint: allow(no-unwrap): validate-only record; a malformed extent is exactly the bug the shape check reports
            covered.push(Interval::new($lo, $hi).expect("node extents are well formed"));
        }};
    }
    'walk: {
        // The shared path: `[s, e]` lies inside `[lo, hi]` throughout.
        let (mut id, mut lo, mut hi) = (root, range.start(), range.end());
        // lint: hot-loop(tree-insert) — the shared-path descent; per node: compare, maybe split a leaf, step
        let fork = loop {
            if s <= lo && hi <= e {
                cover!(id, lo, hi);
                break 'walk;
            }
            let at = if s > lo { s.prev() } else { e };
            let m = split_of(arena, agg, id, (lo, hi), at);
            let node = arena.get(id);
            if e <= m {
                (id, hi) = (node.left, m);
            } else if s > m {
                (id, lo) = (node.right, m.next());
            } else {
                break m;
            }
        };
        let node = arena.get(id);
        let (left, right, fork_lo, fork_hi) = (node.left, node.right, lo, hi);

        // The start boundary, from `[fork_lo, fork]`: the tuple covers a
        // suffix of each node's extent, `[s, hi]`.
        let (mut id, mut lo, mut hi) = (left, fork_lo, fork);
        // lint: hot-loop(tree-insert) — the start-boundary walk; a left step records the tuple on the right child
        while s > lo {
            let m = split_of(arena, agg, id, (lo, hi), s.prev());
            let node = arena.get(id);
            let (l, r) = (node.left, node.right);
            if s <= m {
                cover!(r, m.next(), hi);
                (id, hi) = (l, m);
            } else {
                (id, lo) = (r, m.next());
            }
        }
        cover!(id, lo, hi);

        // The end boundary, from `[fork + 1, fork_hi]`: the tuple covers a
        // prefix of each node's extent, `[lo, e]`.
        let (mut id, mut lo, mut hi) = (right, fork.next(), fork_hi);
        // lint: hot-loop(tree-insert) — the end-boundary walk; a right step records the tuple on the left child
        while e < hi {
            let m = split_of(arena, agg, id, (lo, hi), e);
            let node = arena.get(id);
            let (l, r) = (node.left, node.right);
            if e > m {
                cover!(l, lo, m);
                (id, lo) = (r, m.next());
            } else {
                (id, hi) = (l, m);
            }
        }
        cover!(id, lo, hi);
    }
    #[cfg(feature = "validate")]
    {
        crate::validate::assert_exact_cover(interval, &mut covered, "tree-insert");
        if arena.live() <= crate::validate::SHAPE_CAP {
            crate::validate::assert_tree_shape(arena, root, range, "tree-insert");
        }
    }
}

/// The split of node `id`, whose extent is `[lo, hi]`. A leaf is first
/// split at `at`; its two new children start empty — the old leaf's state
/// stays on what is now their parent and continues to apply to both
/// halves via path accumulation. Either way the split lies in `[lo, hi)`:
/// a walk stepping to a child outside its parent would never end, so debug
/// builds stop it here.
#[inline]
fn split_of<A: Aggregate>(
    arena: &mut Arena<A::State>,
    agg: &A,
    id: NodeId,
    (lo, hi): (Timestamp, Timestamp),
    at: Timestamp,
) -> Timestamp {
    let node = arena.get(id);
    let split = if node.is_leaf() {
        let left = arena.alloc_leaf(agg.empty_state());
        let right = arena.alloc_leaf(agg.empty_state());
        let node = arena.get_mut(id);
        node.split = at;
        node.left = left;
        node.right = right;
        at
    } else {
        node.split
    };
    debug_assert!(
        lo <= split && split < hi,
        "split {split} outside node extent [{lo}, {hi}]"
    );
    split
}

/// Depth-first, time-ordered emission of a subtree's constant intervals,
/// accumulating partial states along each root→leaf path (Section 5.1's
/// final step). Streams `(interval, finish(acc ⊕ path states ⊕ leaf state))`
/// for every leaf into `out` — any [`SeriesSink`], so results can flow to
/// a bounded sink without an intermediate `Vec`.
///
/// `stack` is the walk's scratch, empty on entry and on return; a caller
/// that emits repeatedly passes the same one and allocates nothing once it
/// has grown to the tree's depth.
pub fn emit<A: Aggregate>(
    arena: &Arena<A::State>,
    agg: &A,
    root: NodeId,
    range: Interval,
    acc: A::State,
    out: &mut impl SeriesSink<A::Output>,
    stack: &mut EmitStack<A::State>,
) {
    debug_assert!(stack.is_empty());
    stack.push((root, range, acc));
    // lint: hot-loop(tree-emit) — one pass per pending right subtree; its left spine is walked in place
    while let Some((mut id, mut range, mut acc)) = stack.pop() {
        loop {
            let node = arena.get(id);
            agg.merge(&mut acc, &node.state);
            if node.is_leaf() {
                out.accept(range, agg.finish(&acc));
                break;
            }
            let (left, right) = range
                .split_after(node.split)
                // lint: allow(no-unwrap): split ordering is enforced by insert and re-checked by the validate feature's tree-shape walk
                .expect("valid split");
            // lint: allow(no-alloc-in-scan): the right subtree needs its own copy of the path sum; O(|state|) per internal node
            stack.push((node.right, right, acc.clone()));
            (id, range) = (node.left, left);
        }
    }
}

/// Emit a whole tree as a [`Series`].
#[cfg(test)]
pub fn emit_series<A: Aggregate>(
    arena: &Arena<A::State>,
    agg: &A,
    root: NodeId,
    range: Interval,
) -> Series<A::Output> {
    let mut out = Vec::new();
    let stack = &mut Vec::new();
    emit(arena, agg, root, range, agg.empty_state(), &mut out, stack);
    Series::from_entries(out)
}

/// The leaf extents of a subtree in time order (each is one constant
/// interval). Diagnostic; used by tests reproducing Figure 3.
pub fn leaf_intervals<S>(arena: &Arena<S>, root: NodeId, range: Interval) -> Vec<Interval> {
    let mut out = Vec::new();
    let mut stack = vec![(root, range)];
    while let Some((id, range)) = stack.pop() {
        let node = arena.get(id);
        if node.is_leaf() {
            out.push(range);
        } else {
            stack.push((
                node.right,
                // lint: allow(no-unwrap): split ordering is enforced by insert; diagnostics walk the same tree
                Interval::new(node.split.next(), range.end()).expect("valid split"),
            ));
            stack.push((
                node.left,
                // lint: allow(no-unwrap): same split-ordering invariant as the right child
                Interval::new(range.start(), node.split).expect("valid split"),
            ));
        }
    }
    out
}

/// Maximum root→leaf depth (1 for a single leaf). Diagnostic; the paper's
/// sorted-input worst case shows up as depth ≈ node count.
pub fn depth<S>(arena: &Arena<S>, root: NodeId) -> usize {
    let mut max = 0;
    let mut stack = vec![(root, 1usize)];
    while let Some((id, d)) = stack.pop() {
        let node = arena.get(id);
        if node.is_leaf() {
            max = max.max(d);
        } else {
            stack.push((node.left, d + 1));
            stack.push((node.right, d + 1));
        }
    }
    max
}

/// Multi-line rendering of a subtree for debugging and doc examples, e.g.:
///
/// ```text
/// [0, ∞] split 17 state 0
///   [0, 17] leaf state 0
///   [18, ∞] leaf state 1
/// ```
pub fn render<S: std::fmt::Debug>(arena: &Arena<S>, root: NodeId, range: Interval) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    // (node, extent, indent); pushed right-then-left for pre-order output.
    let mut stack = vec![(root, range, 0usize)];
    while let Some((id, range, indent)) = stack.pop() {
        let node = arena.get(id);
        for _ in 0..indent {
            out.push_str("  ");
        }
        if node.is_leaf() {
            let _ = writeln!(out, "{} leaf state {:?}", range, node.state);
        } else {
            let _ = writeln!(out, "{} split {} state {:?}", range, node.split, node.state);
            stack.push((
                node.right,
                // lint: allow(no-unwrap): split ordering is enforced by insert; rendering walks the same tree
                Interval::new(node.split.next(), range.end()).expect("valid split"),
                indent + 1,
            ));
            stack.push((
                node.left,
                // lint: allow(no-unwrap): same split-ordering invariant as the right child
                Interval::new(range.start(), node.split).expect("valid split"),
                indent + 1,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle;
    use crate::{KOrderedAggregationTree, TemporalAggregator};
    use tempagg_agg::{Count, Sum};

    fn new_tree() -> (Arena<u64>, NodeId) {
        let mut arena = Arena::new();
        let root = arena.alloc_leaf(0);
        (arena, root)
    }

    #[test]
    fn insert_figure3_first_tuple() {
        // Figure 3.b: inserting [18, ∞] into the initial tree [0, ∞].
        let (mut arena, root) = new_tree();
        insert(
            &mut arena,
            &Count,
            root,
            Interval::TIMELINE,
            Interval::from_start(18),
            &(),
        );
        let leaves = leaf_intervals(&arena, root, Interval::TIMELINE);
        assert_eq!(leaves, vec![Interval::at(0, 17), Interval::from_start(18)]);
        // The covered half carries the count.
        let s = emit_series(&arena, &Count, root, Interval::TIMELINE);
        assert_eq!(s.entries()[0].value, 0);
        assert_eq!(s.entries()[1].value, 1);
        assert_eq!(arena.live(), 3);
    }

    #[test]
    fn insert_fully_covering_updates_root_only() {
        let (mut arena, root) = new_tree();
        insert(
            &mut arena,
            &Count,
            root,
            Interval::TIMELINE,
            Interval::TIMELINE,
            &(),
        );
        assert_eq!(arena.live(), 1, "no split needed");
        let s = emit_series(&arena, &Count, root, Interval::TIMELINE);
        assert_eq!(s.len(), 1);
        assert_eq!(s.entries()[0].value, 1);
    }

    #[test]
    fn insert_interior_interval_splits_twice() {
        let (mut arena, root) = new_tree();
        insert(
            &mut arena,
            &Count,
            root,
            Interval::TIMELINE,
            Interval::at(8, 20),
            &(),
        );
        let leaves = leaf_intervals(&arena, root, Interval::TIMELINE);
        assert_eq!(
            leaves,
            vec![
                Interval::at(0, 7),
                Interval::at(8, 20),
                Interval::from_start(21)
            ]
        );
        let s = emit_series(&arena, &Count, root, Interval::TIMELINE);
        let values: Vec<u64> = s.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![0, 1, 0]);
        // Two splits → four new nodes beyond the original root.
        assert_eq!(arena.live(), 5);
    }

    #[test]
    fn depth_and_render() {
        let (mut arena, root) = new_tree();
        assert_eq!(depth(&arena, root), 1);
        insert(
            &mut arena,
            &Count,
            root,
            Interval::TIMELINE,
            Interval::from_start(18),
            &(),
        );
        assert_eq!(depth(&arena, root), 2);
        let r = render(&arena, root, Interval::TIMELINE);
        assert!(r.contains("[0, ∞] split 17"), "render was:\n{r}");
        assert!(r.contains("[18, ∞] leaf state 1"), "render was:\n{r}");
    }

    /// A deterministic xorshift generator (no external dependencies).
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// `n` tuples over `[0, ∞]` whose endpoints crowd a few dozen instants,
    /// so starts and ends are often shared or adjacent; some are instants,
    /// some run to `∞`, and some are the whole range. Valued by position.
    fn crowded(seed: u64, n: usize) -> Vec<(Interval, i64)> {
        let mut rng = Rng(seed);
        (0..n)
            .map(|i| {
                let s = rng.below(48) as i64;
                let interval = match rng.below(10) {
                    0 => Interval::TIMELINE,
                    1 => Interval::from_start(s),
                    2 => Interval::instant(s),
                    _ => Interval::at(s, s + rng.below(12) as i64),
                };
                (interval, i as i64 + 1)
            })
            .collect()
    }

    /// Sorted by start, then disjoint pairs `k` apart swapped: every tuple
    /// is at most `k` positions from its sorted place.
    fn k_ordered(mut tuples: Vec<(Interval, i64)>, k: usize) -> Vec<(Interval, i64)> {
        tuples.sort_by_key(|&(iv, _)| (iv.start(), iv.end()));
        for i in (0..tuples.len().saturating_sub(k)).step_by(2 * k + 1) {
            tuples.swap(i, i + k);
        }
        tuples
    }

    /// The three arrival orders of one seeded tuple set.
    fn orders(seed: u64) -> [(&'static str, Vec<(Interval, i64)>); 3] {
        let random = crowded(seed, 200);
        let mut sorted = random.clone();
        sorted.sort_by_key(|&(iv, _)| (iv.start(), iv.end()));
        let k_ordered = k_ordered(random.clone(), 3);
        [
            ("random", random),
            ("sorted", sorted),
            ("k-ordered", k_ordered),
        ]
    }

    #[test]
    fn every_insert_leaves_the_partition_its_endpoints_cut() {
        let agg = Sum::<i64>::new();
        let range = Interval::TIMELINE;
        for seed in [1995, 7, 0x5eed, 42] {
            for (order, tuples) in orders(seed) {
                let mut arena = Arena::new();
                let root = arena.alloc_leaf(agg.empty_state());
                for (i, (interval, value)) in tuples.iter().enumerate() {
                    insert(&mut arena, &agg, root, range, *interval, value);
                    let expected = oracle(&agg, range, &tuples[..=i]);
                    let cut: Vec<Interval> = expected.iter().map(|e| e.interval).collect();
                    let at = format!("seed {seed}, {order}, after insert {i} ({interval})");
                    assert_eq!(leaf_intervals(&arena, root, range), cut, "{at}");
                    assert_eq!(arena.live(), 2 * cut.len() - 1, "{at}");
                    assert_eq!(emit_series(&arena, &agg, root, range), expected, "{at}");
                }
            }
        }
    }

    #[test]
    fn the_k_ordered_tree_streams_the_oracle_for_k_1_and_3() {
        let agg = Sum::<i64>::new();
        for seed in [1995, 7, 0x5eed, 42] {
            for k in [1, 3] {
                let tuples = k_ordered(crowded(seed, 200), k);
                let mut tree = KOrderedAggregationTree::new(agg, k).unwrap();
                let mut out = Series::new();
                for &(interval, value) in &tuples {
                    tree.push(interval, value).unwrap();
                    tree.emit_ready(&mut out);
                }
                tree.finish_into(&mut out);
                let expected = oracle(&agg, Interval::TIMELINE, &tuples);
                assert_eq!(out, expected, "seed {seed}, k = {k}");
            }
        }
    }
}
