//! Tree operations shared by the aggregation tree, the k-ordered
//! aggregation tree, and the balanced variant: covering insertion, ordered
//! emission, and diagnostics.
//!
//! All walks are iterative with explicit stacks: the paper's worst case
//! (sorted input) degenerates the tree into a linear list of depth `n`,
//! which would overflow the call stack long before it troubles a `Vec`.

use super::arena::{Arena, NodeId};
use tempagg_agg::Aggregate;
#[cfg(test)]
use tempagg_core::Series;
use tempagg_core::{Interval, Result, SeriesSink, TempAggError, Timestamp};

/// Insert a tuple's interval and value into the subtree rooted at `root`
/// (which covers `range`), splitting leaves at the tuple's start and end
/// times as needed (Section 5.1).
///
/// Requires `range.covers(interval)`; callers validate against their
/// domain first. Errors only if a tree invariant has been violated
/// ([`TempAggError::Internal`]), which indicates a bug rather than bad
/// input. Under the `validate` feature the updated subtree's shape and the
/// insertion's exact-cover property are checked before returning.
pub fn insert<A: Aggregate>(
    arena: &mut Arena<A::State>,
    agg: &A,
    root: NodeId,
    range: Interval,
    interval: Interval,
    value: &A::Input,
) -> Result<()> {
    debug_assert!(range.covers(&interval));
    #[cfg(feature = "validate")]
    let mut covered: Vec<Interval> = Vec::new();
    // (node, node's extent); only nodes overlapping `interval` are pushed.
    let mut stack: Vec<(NodeId, Interval)> = vec![(root, range)];
    while let Some((id, node_range)) = stack.pop() {
        if interval.covers(&node_range) {
            // The tuple spans this whole node: record it here and do not
            // descend — the key saving over per-leaf updates.
            agg.insert(&mut arena.get_mut(id).state, value);
            #[cfg(feature = "validate")]
            covered.push(node_range);
            continue;
        }
        if arena.get(id).is_leaf() {
            // Partial overlap with a constant interval: split it in two at
            // whichever tuple endpoint falls strictly inside, then
            // reprocess this node as an internal one.
            let (split, halves) = if interval.start() > node_range.start() {
                (
                    interval.start().prev(),
                    node_range.split_before(interval.start()).ok_or_else(|| {
                        TempAggError::internal(format!(
                            "tuple start {} does not lie strictly inside leaf {node_range}",
                            interval.start()
                        ))
                    })?,
                )
            } else {
                (
                    interval.end(),
                    node_range.split_after(interval.end()).ok_or_else(|| {
                        TempAggError::internal(format!(
                            "tuple end {} does not lie strictly inside leaf {node_range}",
                            interval.end()
                        ))
                    })?,
                )
            };
            debug_assert_eq!(halves.0.end(), split);
            // Children start empty: the old leaf's state stays on what is
            // now their parent and continues to apply to both halves via
            // path accumulation.
            let left = arena.alloc_leaf(agg.empty_state());
            let right = arena.alloc_leaf(agg.empty_state());
            let node = arena.get_mut(id);
            node.split = split;
            node.left = left;
            node.right = right;
            stack.push((id, node_range));
            continue;
        }
        let node = arena.get(id);
        let (split, left, right) = (node.split, node.left, node.right);
        if interval.start() <= split {
            let child = Interval::new(node_range.start(), split).map_err(|_| {
                TempAggError::internal(format!(
                    "split {split} precedes its node's extent {node_range}"
                ))
            })?;
            stack.push((left, child));
        }
        if interval.end() > split {
            let child = Interval::new(split.next(), node_range.end()).map_err(|_| {
                TempAggError::internal(format!(
                    "split {split} passes its node's extent {node_range}"
                ))
            })?;
            stack.push((right, child));
        }
    }
    #[cfg(feature = "validate")]
    {
        crate::validate::assert_exact_cover(interval, &mut covered, "tree-insert");
        if arena.live() <= crate::validate::SHAPE_CAP {
            crate::validate::assert_tree_shape(arena, root, range, "tree-insert");
        }
    }
    Ok(())
}

/// Depth-first, time-ordered emission of a subtree's constant intervals,
/// accumulating partial states along each root→leaf path (Section 5.1's
/// final step). Streams `(interval, finish(acc ⊕ path states ⊕ leaf state))`
/// for every leaf into `out` — any [`SeriesSink`], so results can flow to
/// a bounded sink without an intermediate `Vec`.
pub fn emit<A: Aggregate>(
    arena: &Arena<A::State>,
    agg: &A,
    root: NodeId,
    range: Interval,
    acc: A::State,
    out: &mut impl SeriesSink<A::Output>,
) {
    let mut stack: Vec<(NodeId, Interval, A::State)> = vec![(root, range, acc)];
    while let Some((id, range, mut acc)) = stack.pop() {
        let node = arena.get(id);
        agg.merge(&mut acc, &node.state);
        if node.is_leaf() {
            out.accept(range, agg.finish(&acc));
        } else {
            // LIFO: push right first so the left (earlier) half pops first.
            stack.push((
                node.right,
                // lint: allow(no-unwrap): split ordering is enforced by insert and re-checked by the validate feature's tree-shape walk
                Interval::new(node.split.next(), range.end()).expect("valid split"),
                acc.clone(),
            ));
            stack.push((
                node.left,
                // lint: allow(no-unwrap): same split-ordering invariant as the right child
                Interval::new(range.start(), node.split).expect("valid split"),
                acc,
            ));
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
    emit(arena, agg, root, range, agg.empty_state(), &mut out);
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

/// Split bookkeeping helper: the split value that separates `[lo, s-1]`
/// from `[s, hi]`.
#[allow(dead_code)]
pub fn split_for_start(s: Timestamp) -> Timestamp {
    s.prev()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_agg::Count;

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
        )
        .unwrap();
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
        )
        .unwrap();
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
        )
        .unwrap();
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
        )
        .unwrap();
        assert_eq!(depth(&arena, root), 2);
        let r = render(&arena, root, Interval::TIMELINE);
        assert!(r.contains("[0, ∞] split 17"), "render was:\n{r}");
        assert!(r.contains("[18, ∞] leaf state 1"), "render was:\n{r}");
    }
}
