//! An implicit segment-tree **window index** over a constant-interval
//! series, answering arbitrary-window aggregates in `O(log n)` probes.
//!
//! Ranking Large Temporal Data (Jestes et al., see PAPERS.md) builds a
//! balanced aggregate tree over the temporal domain so that windowed
//! aggregates and top-k ranking become logarithmic probes with
//! branch-and-bound pruning. This module is that index, specialised to the
//! constant-interval series our sweep kernel and store caches already
//! maintain:
//!
//! * **Array-backed and pointer-free.** The tree is the classic implicit
//!   power-of-two layout (`nodes[1]` the root, `nodes[2i]`/`nodes[2i+1]`
//!   the children, leaves at `nodes[size..size+leaves]`), built bottom-up
//!   in `O(n)` from any series.
//! * **Leaves are fixed time *cuts*, not runs.** Each leaf owns the
//!   half-open time range between two build-time run boundaries and
//!   summarises whatever runs *currently* overlap it. Later DML that
//!   splits or merges runs inside a leaf only dirties that leaf: a
//!   [`refresh`](WindowIndex::refresh) recomputes the touched leaves from
//!   the live series and fixes their `O(log n)` ancestor paths — no
//!   rebuild.
//! * **Duration-weighted combine per class.** `Integral` nodes (the
//!   delta classes: `COUNT`-family and integer `SUM`) hold the exact
//!   `i128` time integral `Σ value·instants` plus the covered duration;
//!   `Extremes` nodes (the ordered classes: `MIN`/`MAX`) hold the
//!   min/max series value over the node's span. Every node additionally
//!   carries the min/max *instantaneous* value as an augmentation, which
//!   is what branch-and-bound top-k prunes on.
//! * **Partial leaves consult the series.** A probe window cuts through
//!   at most two leaves; those edges are resolved against the underlying
//!   [`RunSource`] (a binary search plus a short scan), and everything
//!   between folds through at most `2 log n` interior nodes.
//!
//! Floating-point series (`Approximate` class: float `SUM`, `AVG`,
//! variance) are deliberately **not** indexable: tree-order float
//! summation differs from scan order, so probe results could not be
//! byte-identical to the linear oracle. Callers fall back to a linear
//! window scan for those, exactly as the sweep gate excludes them from
//! retraction.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tempagg_core::{Interval, Series, SeriesView, Timestamp, Value};

/// What the index nodes combine, decided by the aggregate's retraction
/// class and value type (see [`WindowIndex::build`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexMode {
    /// Duration-weighted integral of integer series values (`COUNT(*)`,
    /// `COUNT`, `COUNT DISTINCT`, integer `SUM`): a window probe returns
    /// `Σ value·instants` over the window, exactly, in `i128`.
    Integral,
    /// Min/max of the instantaneous series value (`MIN`, `MAX` over any
    /// totally-ordered column type).
    Extremes,
}

/// Read access to the constant-interval runs an index summarises: the
/// series it was built from, kept current by whoever maintains it (a
/// store cache, or the immutable series itself).
pub trait RunSource {
    /// Visit every run overlapping `window`, in time order, **clipped to
    /// the window**.
    fn for_each_run_in(&self, window: Interval, f: &mut dyn FnMut(Interval, &Value));
}

impl RunSource for Series<Value> {
    fn for_each_run_in(&self, window: Interval, f: &mut dyn FnMut(Interval, &Value)) {
        let entries = self.entries();
        let lo = entries.partition_point(|e| e.interval.end() < window.start());
        for entry in entries.iter().skip(lo) {
            if entry.interval.start() > window.end() {
                break;
            }
            if let Some(clipped) = entry.interval.intersect(&window) {
                f(clipped, &entry.value);
            }
        }
    }
}

impl RunSource for SeriesView<Value> {
    fn for_each_run_in(&self, window: Interval, f: &mut dyn FnMut(Interval, &Value)) {
        self.for_each_in(window, f);
    }
}

/// One tree node: the duration-weighted integral payload plus the
/// min/max-value augmentation. All fields are exact; see the module docs
/// for why floats never reach an index.
#[derive(Clone, Debug, PartialEq)]
struct IndexNode {
    /// `Σ value·instants` over the node's span, counting only runs with a
    /// non-null integer value (saturating `i128`).
    integral: i128,
    /// Instants covered by non-null runs in the node's span.
    covered: i128,
    /// Minimum non-null series value over the span; `Null` when none.
    min_value: Value,
    /// Maximum non-null series value over the span; `Null` when none.
    max_value: Value,
}

/// The instants `iv` holds, exactly: the full timeline has 2^63 of them,
/// one more than `Interval::duration` can say. A series over an emptied
/// relation is that one run, and an index cut before it was emptied sums
/// the same span leaf by leaf — the two must count alike.
fn instants(iv: Interval) -> i128 {
    i128::from(iv.end().get()) - i128::from(iv.start().get()) + 1
}

impl IndexNode {
    /// The combine identity: an empty span.
    fn neutral() -> IndexNode {
        IndexNode {
            integral: 0,
            covered: 0,
            min_value: Value::Null,
            max_value: Value::Null,
        }
    }

    fn absorb_run(&mut self, clipped: Interval, value: &Value) {
        if value.is_null() {
            return;
        }
        let span = instants(clipped);
        if let Some(v) = value.as_i64() {
            self.integral = self
                .integral
                .saturating_add(i128::from(v).saturating_mul(span));
        }
        self.covered = self.covered.saturating_add(span);
        if self.min_value.is_null() || value.total_cmp(&self.min_value).is_lt() {
            self.min_value = value.clone();
        }
        if self.max_value.is_null() || value.total_cmp(&self.max_value).is_gt() {
            self.max_value = value.clone();
        }
    }

    fn merge_from(&mut self, other: &IndexNode) {
        self.integral = self.integral.saturating_add(other.integral);
        self.covered = self.covered.saturating_add(other.covered);
        if !other.min_value.is_null()
            && (self.min_value.is_null() || other.min_value.total_cmp(&self.min_value).is_lt())
        {
            self.min_value = other.min_value.clone();
        }
        if !other.max_value.is_null()
            && (self.max_value.is_null() || other.max_value.total_cmp(&self.max_value).is_gt())
        {
            self.max_value = other.max_value.clone();
        }
    }

    fn merged(a: &IndexNode, b: &IndexNode) -> IndexNode {
        let mut out = a.clone();
        out.merge_from(b);
        out
    }
}

/// What a window probe returns: the duration-weighted integral and the
/// window extremes, exactly as a linear scan of the same runs would
/// compute them ([`scan_window`] is that oracle).
#[derive(Clone, Debug, PartialEq)]
pub struct WindowAggregate {
    /// `Σ value·instants` over non-null integer runs in the window.
    pub integral: i128,
    /// Instants covered by non-null runs in the window.
    pub covered: i128,
    /// Minimum non-null series value in the window; `Null` when none.
    pub min: Value,
    /// Maximum non-null series value in the window; `Null` when none.
    pub max: Value,
}

impl WindowAggregate {
    /// An empty window.
    pub fn empty() -> WindowAggregate {
        WindowAggregate {
            integral: 0,
            covered: 0,
            min: Value::Null,
            max: Value::Null,
        }
    }

    /// The integral as a SQL value (saturated to `i64`).
    pub fn integral_value(&self) -> Value {
        Value::Int(
            i64::try_from(self.integral).unwrap_or(if self.integral > 0 {
                i64::MAX
            } else {
                i64::MIN
            }),
        )
    }

    fn from_node(node: &IndexNode) -> WindowAggregate {
        WindowAggregate {
            integral: node.integral,
            covered: node.covered,
            min: node.min_value.clone(),
            max: node.max_value.clone(),
        }
    }
}

/// The linear oracle (and pre-index baseline): fold every run overlapping
/// `window` directly. `O(runs in window)` — what every windowed query
/// cost before the index existed, and what probe results are asserted
/// byte-identical to.
pub fn scan_window(source: &dyn RunSource, window: Interval) -> WindowAggregate {
    let mut node = IndexNode::neutral();
    source.for_each_run_in(window, &mut |clipped, value| {
        node.absorb_run(clipped, value);
    });
    WindowAggregate::from_node(&node)
}

/// The implicit segment-tree window index. See the module docs for the
/// layout; construction is [`build`](WindowIndex::build), queries are
/// [`probe`](WindowIndex::probe) /
/// [`extreme_instant`](WindowIndex::extreme_instant) / [`top_k`], and
/// maintenance is [`refresh`](WindowIndex::refresh).
#[derive(Clone, Debug, PartialEq)]
pub struct WindowIndex {
    mode: IndexMode,
    /// Real leaves (build-time runs); the tree is padded to `size`.
    leaves: usize,
    /// Padded leaf capacity: the smallest power of two `>= leaves`.
    size: usize,
    /// Leaf `l` owns `[starts[l], starts[l+1] - 1]` (the last leaf ends at
    /// `end`). These cuts are fixed at build time; DML inside a leaf's
    /// range only dirties that leaf.
    starts: Vec<Timestamp>,
    /// End of the last leaf's range (inclusive).
    end: Timestamp,
    /// Implicit tree, 1-indexed; `nodes[size + l]` is leaf `l`, padding
    /// leaves are neutral.
    nodes: Vec<IndexNode>,
}

impl WindowIndex {
    /// Build in `O(n)` from a constant-interval series: one leaf per run,
    /// then one bottom-up pass over the internal levels.
    pub fn build(mode: IndexMode, series: &Series<Value>) -> WindowIndex {
        WindowIndex::over(mode, series)
    }

    /// [`build`](WindowIndex::build) over whatever runs `source` holds
    /// now — how a maintained series gets its first index, and a fresh one
    /// once it has outgrown the cuts of the last.
    pub fn over(mode: IndexMode, source: &dyn RunSource) -> WindowIndex {
        // Count first, so the node array is allocated once at its final
        // size and the leaves are written where they stay.
        let mut runs = 0usize;
        source.for_each_run_in(Interval::TIMELINE, &mut |_, _| runs += 1);
        let leaves = runs.max(1);
        let size = leaves.next_power_of_two();
        let mut nodes = vec![IndexNode::neutral(); 2 * size];
        let mut starts = Vec::with_capacity(leaves);
        let mut end = Timestamp::ORIGIN;
        source.for_each_run_in(Interval::TIMELINE, &mut |interval, value| {
            if let Some(leaf) = nodes.get_mut(size + starts.len()) {
                leaf.absorb_run(interval, value);
            }
            starts.push(interval.start());
            end = interval.end();
        });
        if starts.is_empty() {
            starts.push(Timestamp::ORIGIN);
        }
        let mut index = WindowIndex {
            mode,
            leaves,
            size,
            starts,
            end,
            nodes,
        };
        index.rebuild_internal(0, leaves.saturating_sub(1));
        index
    }

    pub fn mode(&self) -> IndexMode {
        self.mode
    }

    /// Leaf count: the run count this index was cut for. A series that
    /// has since doubled wants a fresh index (its leaves each cover two
    /// runs or more, and the edges of a probe scan them).
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// The root's augmentation: a bound on any window probe.
    fn root(&self) -> &IndexNode {
        // lint: allow(indexing): nodes has 2·size ≥ 2 slots, the root is slot 1
        &self.nodes[1]
    }

    /// The time range leaf `l` owns.
    fn leaf_range(&self, l: usize) -> Interval {
        let start = self.starts.get(l).copied().unwrap_or(Timestamp::ORIGIN);
        let end = self.starts.get(l + 1).map_or(self.end, |next| next.prev());
        Interval::new(start, end.max(start)).unwrap_or(Interval::TIMELINE)
    }

    /// Leaf containing instant `t` (`t` must be ≥ the first cut).
    fn leaf_of(&self, t: Timestamp) -> usize {
        self.starts.partition_point(|s| *s <= t).saturating_sub(1)
    }

    /// The indexed extent.
    fn extent(&self) -> Interval {
        let start = self.starts.first().copied().unwrap_or(Timestamp::ORIGIN);
        Interval::new(start, self.end.max(start)).unwrap_or(Interval::TIMELINE)
    }

    /// Recompute internal nodes above the leaf range `[l0, l1]`,
    /// level by level. `O(log n + l1 - l0)`.
    fn rebuild_internal(&mut self, l0: usize, l1: usize) {
        let mut lo = (self.size + l0) / 2;
        let mut hi = (self.size + l1.min(self.size.saturating_sub(1))) / 2;
        while lo >= 1 {
            for i in lo..=hi {
                let merged = IndexNode::merged(
                    // lint: allow(indexing): i ≤ hi < size, so both children 2i and 2i+1 < 2·size
                    &self.nodes[2 * i],
                    // lint: allow(indexing): same bound as the sibling above
                    &self.nodes[2 * i + 1],
                );
                // lint: allow(indexing): i ranges over internal slots 1..size
                self.nodes[i] = merged;
            }
            if lo == 1 {
                break;
            }
            lo /= 2;
            hi /= 2;
        }
    }

    /// Answer an arbitrary-window aggregate in `O(log n)`: the two edge
    /// leaves are resolved against `source`, everything between folds
    /// through at most `2 log n` interior nodes. Probe results are
    /// byte-identical to [`scan_window`] over the same source.
    pub fn probe(&self, window: Interval, source: &dyn RunSource) -> WindowAggregate {
        let Some(win) = window.intersect(&self.extent()) else {
            return WindowAggregate::empty();
        };
        let l0 = self.leaf_of(win.start());
        let l1 = self.leaf_of(win.end());
        if l1 <= l0 + 1 {
            // The window lives inside one or two leaves: a short scan.
            return scan_window(source, win);
        }
        // Edge leaves partially covered: resolve the clipped parts from
        // the live runs.
        let mut acc = IndexNode::neutral();
        let left_edge = Interval::new(win.start(), self.leaf_range(l0).end()).unwrap_or(win);
        source.for_each_run_in(left_edge, &mut |clipped, value| {
            acc.absorb_run(clipped, value);
        });
        let right_edge = Interval::new(self.leaf_range(l1).start(), win.end()).unwrap_or(win);
        source.for_each_run_in(right_edge, &mut |clipped, value| {
            acc.absorb_run(clipped, value);
        });

        // Interior leaves [l0+1, l1-1] are fully covered: fold their
        // already-combined nodes bottom-up. Exact node arithmetic only —
        // `i128` adds and `total_cmp` against indexed nodes.
        let mut integral = 0i128;
        let mut covered = 0i128;
        let mut min_at: Option<usize> = None;
        let mut max_at: Option<usize> = None;
        let mut l = self.size + l0 + 1;
        let mut r = self.size + l1; // exclusive
                                    // lint: hot-loop(windex-descent) — the partial-overlap descent is the probe's O(log n) core and must stay allocation-free
        while l < r {
            if l & 1 == 1 {
                self.fold_interior(l, &mut integral, &mut covered, &mut min_at, &mut max_at);
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                self.fold_interior(r, &mut integral, &mut covered, &mut min_at, &mut max_at);
            }
            l /= 2;
            r /= 2;
        }
        acc.integral = acc.integral.saturating_add(integral);
        acc.covered = acc.covered.saturating_add(covered);
        if let Some(node) = min_at.and_then(|i| self.nodes.get(i)) {
            if !node.min_value.is_null()
                && (acc.min_value.is_null() || node.min_value.total_cmp(&acc.min_value).is_lt())
            {
                acc.min_value = node.min_value.clone();
            }
        }
        if let Some(node) = max_at.and_then(|i| self.nodes.get(i)) {
            if !node.max_value.is_null()
                && (acc.max_value.is_null() || node.max_value.total_cmp(&acc.max_value).is_gt())
            {
                acc.max_value = node.max_value.clone();
            }
        }
        WindowAggregate::from_node(&acc)
    }

    /// Fold one interior node into the descent accumulator without
    /// cloning: extremes are tracked as node indices and materialised
    /// once after the loop.
    #[inline]
    fn fold_interior(
        &self,
        i: usize,
        integral: &mut i128,
        covered: &mut i128,
        min_at: &mut Option<usize>,
        max_at: &mut Option<usize>,
    ) {
        let Some(node) = self.nodes.get(i) else {
            return;
        };
        *integral = integral.saturating_add(node.integral);
        *covered = covered.saturating_add(node.covered);
        if !node.min_value.is_null() {
            let better = match min_at.and_then(|b| self.nodes.get(b)) {
                Some(best) => {
                    best.min_value.is_null() || node.min_value.total_cmp(&best.min_value).is_lt()
                }
                None => true,
            };
            if better {
                *min_at = Some(i);
            }
        }
        if !node.max_value.is_null() {
            let better = match max_at.and_then(|b| self.nodes.get(b)) {
                Some(best) => {
                    best.max_value.is_null() || node.max_value.total_cmp(&best.max_value).is_gt()
                }
                None => true,
            };
            if better {
                *max_at = Some(i);
            }
        }
    }

    /// Recompute the leaves overlapping `dirty` from the live runs and
    /// fix their ancestor paths: `O(runs in dirty + log n)`. Called by the
    /// store after every cache patch so probes stay byte-identical to a
    /// from-scratch rebuild. Returns the number of leaves recomputed.
    pub fn refresh(&mut self, dirty: Interval, source: &dyn RunSource) -> usize {
        let Some(dirty) = dirty.intersect(&self.extent()) else {
            return 0;
        };
        let l0 = self.leaf_of(dirty.start());
        let l1 = self.leaf_of(dirty.end());
        for l in l0..=l1 {
            let range = self.leaf_range(l);
            let mut node = IndexNode::neutral();
            source.for_each_run_in(range, &mut |clipped, value| node.absorb_run(clipped, value));
            if let Some(slot) = self.nodes.get_mut(self.size + l) {
                *slot = node;
            }
        }
        self.rebuild_internal(l0, l1);
        l1 - l0 + 1
    }

    /// The earliest instant in `window` where the series attains its
    /// extreme (max when `want_max`, else min) value, with that value.
    /// `None` when the window holds no non-null run. `O(log² n)`.
    pub fn extreme_instant(
        &self,
        window: Interval,
        want_max: bool,
        source: &dyn RunSource,
    ) -> Option<(Timestamp, Value)> {
        let aggregate = self.probe(window, source);
        let target = if want_max {
            aggregate.max
        } else {
            aggregate.min
        };
        if target.is_null() {
            return None;
        }
        let win = window.intersect(&self.extent())?;
        // Walk the window's leaves left to right, skipping subtrees whose
        // augmentation says the target cannot occur inside; the first
        // leaf that can contain it is scanned for the first matching run.
        let l0 = self.leaf_of(win.start());
        let l1 = self.leaf_of(win.end());
        let mut found: Option<Timestamp> = None;
        self.first_leaf_with(
            1,
            0,
            self.size,
            l0,
            l1,
            &target,
            want_max,
            &mut |leaf| {
                let range = self.leaf_range(leaf).intersect(&win)?;
                let mut at: Option<Timestamp> = None;
                source.for_each_run_in(range, &mut |clipped, value| {
                    if at.is_none() && value.total_cmp(&target).is_eq() {
                        at = Some(clipped.start());
                    }
                });
                at
            },
            &mut found,
        );
        found.map(|t| (t, target))
    }

    /// Left-to-right search for the first leaf in `[l0, l1]` whose
    /// subtree augmentation admits `target`; `check` confirms against the
    /// live runs (edge leaves are window-clipped, so the augmentation
    /// alone is not enough there).
    #[allow(clippy::too_many_arguments)]
    fn first_leaf_with(
        &self,
        node: usize,
        node_lo: usize,
        node_len: usize,
        l0: usize,
        l1: usize,
        target: &Value,
        want_max: bool,
        check: &mut dyn FnMut(usize) -> Option<Timestamp>,
        found: &mut Option<Timestamp>,
    ) {
        if found.is_some() || node_lo > l1 || node_lo + node_len <= l0 {
            return;
        }
        let Some(payload) = self.nodes.get(node) else {
            return;
        };
        let admits = if want_max {
            !payload.max_value.is_null() && payload.max_value.total_cmp(target).is_ge()
        } else {
            !payload.min_value.is_null() && payload.min_value.total_cmp(target).is_le()
        };
        if !admits {
            return;
        }
        if node_len == 1 {
            if let Some(at) = check(node_lo) {
                *found = Some(at);
            }
            return;
        }
        let half = node_len / 2;
        self.first_leaf_with(
            2 * node,
            node_lo,
            half,
            l0,
            l1,
            target,
            want_max,
            check,
            found,
        );
        self.first_leaf_with(
            2 * node + 1,
            node_lo + half,
            half,
            l0,
            l1,
            target,
            want_max,
            check,
            found,
        );
    }

    /// The branch-and-bound upper bound on any probe of `window`, from
    /// the root augmentation alone — never below the true probe value.
    fn root_bound(&self, window: Interval) -> RankKey {
        let root = self.root();
        match self.mode {
            IndexMode::Integral => {
                let m = root.max_value.as_i64().unwrap_or(0).max(0);
                RankKey::Int(i128::from(m).saturating_mul(instants(window)))
            }
            IndexMode::Extremes => RankKey::Val(root.max_value.clone()),
        }
    }

    /// The rank of an exact probe result under this index's mode.
    fn rank_of(&self, aggregate: &WindowAggregate) -> RankKey {
        match self.mode {
            IndexMode::Integral => RankKey::Int(aggregate.integral),
            IndexMode::Extremes => RankKey::Val(aggregate.max.clone()),
        }
    }
}

/// One group's index and its live run source, for [`top_k`].
pub struct GroupProbe<'a> {
    pub index: &'a WindowIndex,
    pub source: &'a dyn RunSource,
}

impl std::fmt::Debug for GroupProbe<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupProbe")
            .field("leaves", &self.index.leaf_count())
            .finish()
    }
}

/// What [`top_k`] reports: the winning groups (caller indices) with their
/// exact window aggregates, best first, plus how many groups were
/// actually probed — the pruning metric.
#[derive(Clone, Debug)]
pub struct TopKOutcome {
    /// `(group index, exact window aggregate)`, ranked best-first.
    pub ranked: Vec<(usize, WindowAggregate)>,
    /// Groups whose index was actually probed. Pruned groups (root bound
    /// below the k-th best exact value) never pay their `O(log n)`.
    pub probes: u64,
}

/// Jestes-style top-k across a grouped relation: one window index per
/// group, one shared bound heap. Every group enters the heap with its
/// free root-augmentation bound; groups are probed (an `O(log n)` exact
/// refine) only while their bound can still beat the k-th best exact
/// value, so cold groups are pruned without touching their tree.
///
/// Ranking is by the windowed integral for [`IndexMode::Integral`]
/// indexes and by the window maximum for [`IndexMode::Extremes`]; ties
/// break toward the lower group index, deterministically.
pub fn top_k(groups: &[GroupProbe<'_>], window: Interval, k: usize) -> TopKOutcome {
    let mut heap: BinaryHeap<HeapEntry> = BinaryHeap::with_capacity(groups.len());
    for (g, group) in groups.iter().enumerate() {
        heap.push(HeapEntry {
            key: group.index.root_bound(window),
            exact: None,
            group: g,
        });
    }
    let mut ranked = Vec::with_capacity(k.min(groups.len()));
    let mut probes = 0u64;
    while ranked.len() < k {
        let Some(top) = heap.pop() else {
            break;
        };
        match top.exact {
            Some(aggregate) => ranked.push((top.group, aggregate)),
            None => {
                let Some(group) = groups.get(top.group) else {
                    continue;
                };
                let aggregate = group.index.probe(window, group.source);
                probes += 1;
                heap.push(HeapEntry {
                    key: group.index.rank_of(&aggregate),
                    exact: Some(aggregate),
                    group: top.group,
                });
            }
        }
    }
    TopKOutcome { ranked, probes }
}

/// Total-order rank for the bound heap: integral (`i128`) or window
/// maximum ([`Value::total_cmp`], where `Null` sorts first/lowest).
#[derive(Clone, Debug)]
enum RankKey {
    Int(i128),
    Val(Value),
}

impl RankKey {
    fn order(&self, other: &RankKey) -> Ordering {
        match (self, other) {
            (RankKey::Int(a), RankKey::Int(b)) => a.cmp(b),
            (RankKey::Val(a), RankKey::Val(b)) => a.total_cmp(b),
            // Mixed-mode heaps never arise (one ranking aggregate per
            // query); order arbitrarily but totally for safety.
            (RankKey::Int(_), RankKey::Val(_)) => Ordering::Less,
            (RankKey::Val(_), RankKey::Int(_)) => Ordering::Greater,
        }
    }
}

/// Max-heap entry: higher rank pops first; at equal rank, exact results
/// pop before bounds (so an exact value is emitted rather than probing a
/// group whose bound merely ties it), then lower group index first.
struct HeapEntry {
    key: RankKey,
    exact: Option<WindowAggregate>,
    group: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key
            .order(&other.key)
            .then_with(|| self.exact.is_some().cmp(&other.exact.is_some()))
            .then_with(|| other.group.cmp(&self.group))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_core::SeriesEntry;

    /// A deterministic xorshift generator (no external dependencies).
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    fn series_of(values: &[(i64, i64, Option<i64>)]) -> Series<Value> {
        Series::from_entries(
            values
                .iter()
                .map(|&(s, e, v)| {
                    SeriesEntry::new(Interval::at(s, e), v.map_or(Value::Null, Value::Int))
                })
                .collect(),
        )
    }

    fn random_series(rng: &mut Rng, runs: usize) -> Series<Value> {
        let mut entries = Vec::with_capacity(runs);
        let mut t = 0i64;
        for _ in 0..runs {
            let len = 1 + rng.below(9) as i64;
            let v = match rng.below(10) {
                0 => Value::Null,
                _ => Value::Int(rng.below(2001) as i64 - 1000),
            };
            entries.push(SeriesEntry::new(Interval::at(t, t + len - 1), v));
            t += len;
        }
        Series::from_entries(entries)
    }

    #[test]
    fn probe_matches_scan_on_random_windows() {
        let mut rng = Rng(0x5eed);
        for runs in [1usize, 2, 3, 7, 64, 257, 1000] {
            let series = random_series(&mut rng, runs);
            let extent = series.extent().unwrap();
            let index = WindowIndex::build(IndexMode::Integral, &series);
            for _ in 0..200 {
                let a = rng.below(extent.duration() as u64) as i64;
                let b = rng.below(extent.duration() as u64) as i64;
                let window = Interval::at(a.min(b), a.max(b));
                assert_eq!(
                    index.probe(window, &series),
                    scan_window(&series, window),
                    "runs {runs} window {window}"
                );
            }
            // Degenerate and boundary windows.
            assert_eq!(
                index.probe(extent, &series),
                scan_window(&series, extent),
                "full extent"
            );
            let outside = Interval::at(extent.end().get() + 10, extent.end().get() + 20);
            assert_eq!(index.probe(outside, &series), WindowAggregate::empty());
        }
    }

    #[test]
    fn refresh_tracks_changing_runs() {
        let mut rng = Rng(0xfeed);
        let series = random_series(&mut rng, 300);
        let mut index = WindowIndex::build(IndexMode::Integral, &series);
        let extent = series.extent().unwrap();
        // Simulate DML: splice new values over random windows of a
        // mutable copy of the series, refreshing only the dirty interval.
        let mut entries: Vec<SeriesEntry<Value>> = series.entries().to_vec();
        for round in 0..50 {
            let a = rng.below(extent.duration() as u64) as i64;
            let b = (a + 1 + rng.below(40) as i64).min(extent.end().get());
            let dirty = Interval::at(a.min(b), b.max(a.min(b)));
            let v = Value::Int(rng.below(100) as i64);
            // Split any run straddling the dirty edges, then overwrite.
            let mut next: Vec<SeriesEntry<Value>> = Vec::new();
            for entry in &entries {
                match entry.interval.intersect(&dirty) {
                    None => next.push(entry.clone()),
                    Some(hit) => {
                        if entry.interval.start() < hit.start() {
                            next.push(SeriesEntry::new(
                                Interval::new(entry.interval.start(), hit.start().prev()).unwrap(),
                                entry.value.clone(),
                            ));
                        }
                        next.push(SeriesEntry::new(hit, v.clone()));
                        if entry.interval.end() > hit.end() {
                            next.push(SeriesEntry::new(
                                Interval::new(hit.end().next(), entry.interval.end()).unwrap(),
                                entry.value.clone(),
                            ));
                        }
                    }
                }
            }
            entries = next;
            let current = Series::from_entries(entries.clone());
            index.refresh(dirty, &current);
            // Probes agree with the oracle and with a from-scratch build.
            let fresh = WindowIndex::build(IndexMode::Integral, &current);
            for _ in 0..20 {
                let x = rng.below(extent.duration() as u64) as i64;
                let y = rng.below(extent.duration() as u64) as i64;
                let window = Interval::at(x.min(y), x.max(y));
                let probed = index.probe(window, &current);
                assert_eq!(probed, scan_window(&current, window), "round {round}");
                assert_eq!(probed, fresh.probe(window, &current), "round {round}");
            }
        }
    }

    #[test]
    fn extremes_mode_answers_min_max() {
        let series = series_of(&[
            (0, 9, Some(5)),
            (10, 19, None),
            (20, 29, Some(-3)),
            (30, 39, Some(8)),
        ]);
        let index = WindowIndex::build(IndexMode::Extremes, &series);
        let probe = index.probe(Interval::at(5, 25), &series);
        assert_eq!(probe.min, Value::Int(-3));
        assert_eq!(probe.max, Value::Int(5));
        let probe = index.probe(Interval::at(10, 19), &series);
        assert_eq!(probe.min, Value::Null);
        assert_eq!(probe.max, Value::Null);
    }

    #[test]
    fn extreme_instant_finds_the_earliest_peak() {
        let series = series_of(&[
            (0, 9, Some(2)),
            (10, 19, Some(7)),
            (20, 29, Some(1)),
            (30, 39, Some(7)),
            (40, 49, Some(4)),
        ]);
        let index = WindowIndex::build(IndexMode::Extremes, &series);
        assert_eq!(
            index.extreme_instant(Interval::at(0, 49), true, &series),
            Some((Timestamp::new(10), Value::Int(7)))
        );
        // Window excludes the first peak: the second is found, clipped.
        assert_eq!(
            index.extreme_instant(Interval::at(25, 49), true, &series),
            Some((Timestamp::new(30), Value::Int(7)))
        );
        // Mid-run window start clips the reported instant.
        assert_eq!(
            index.extreme_instant(Interval::at(15, 22), true, &series),
            Some((Timestamp::new(15), Value::Int(7)))
        );
        assert_eq!(
            index.extreme_instant(Interval::at(0, 49), false, &series),
            Some((Timestamp::new(20), Value::Int(1)))
        );
        // All-null window.
        let nulls = series_of(&[(0, 9, None)]);
        let idx = WindowIndex::build(IndexMode::Extremes, &nulls);
        assert_eq!(idx.extreme_instant(Interval::at(0, 9), true, &nulls), None);
    }

    #[test]
    fn extreme_instant_randomized_against_oracle() {
        let mut rng = Rng(0xabcd);
        let series = random_series(&mut rng, 400);
        let extent = series.extent().unwrap();
        let index = WindowIndex::build(IndexMode::Extremes, &series);
        for _ in 0..100 {
            let a = rng.below(extent.duration() as u64) as i64;
            let b = rng.below(extent.duration() as u64) as i64;
            let window = Interval::at(a.min(b), a.max(b));
            for want_max in [true, false] {
                // Oracle: linear scan for the extreme and its first instant.
                let oracle_aggregate = scan_window(&series, window);
                let target = if want_max {
                    oracle_aggregate.max.clone()
                } else {
                    oracle_aggregate.min.clone()
                };
                let mut expect: Option<(Timestamp, Value)> = None;
                if !target.is_null() {
                    series.for_each_run_in(window, &mut |clipped, value| {
                        if expect.is_none() && value.total_cmp(&target).is_eq() {
                            expect = Some((clipped.start(), value.clone()));
                        }
                    });
                }
                assert_eq!(
                    index.extreme_instant(window, want_max, &series),
                    expect,
                    "window {window} want_max {want_max}"
                );
            }
        }
    }

    #[test]
    fn top_k_agrees_with_exhaustive_ranking_and_prunes() {
        let mut rng = Rng(0xc0de);
        let groups: Vec<Series<Value>> = (0..64).map(|_| random_series(&mut rng, 200)).collect();
        let indexes: Vec<WindowIndex> = groups
            .iter()
            .map(|s| WindowIndex::build(IndexMode::Integral, s))
            .collect();
        let probes: Vec<GroupProbe> = indexes
            .iter()
            .zip(&groups)
            .map(|(index, source)| GroupProbe {
                index,
                source: source as &dyn RunSource,
            })
            .collect();
        for window in [
            Interval::at(100, 200),
            Interval::at(0, 1_000),
            Interval::at(500, 505),
        ] {
            for k in [1usize, 5, 10] {
                let outcome = top_k(&probes, window, k);
                // Exhaustive oracle: probe every group, sort by integral
                // descending with index tiebreak.
                let mut all: Vec<(usize, i128)> = groups
                    .iter()
                    .enumerate()
                    .map(|(g, s)| (g, scan_window(s, window).integral))
                    .collect();
                all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                let expect: Vec<(usize, i128)> = all.into_iter().take(k).collect();
                let got: Vec<(usize, i128)> = outcome
                    .ranked
                    .iter()
                    .map(|(g, wa)| (*g, wa.integral))
                    .collect();
                assert_eq!(got, expect, "window {window} k {k}");
                assert!(outcome.probes <= groups.len() as u64);
            }
        }
        // A narrow window with k = 1 must prune most groups: bounds are
        // value·duration, and only contenders get probed.
        let outcome = top_k(&probes, Interval::at(500, 505), 1);
        assert!(
            outcome.probes < groups.len() as u64,
            "expected pruning, probed {} of {}",
            outcome.probes,
            groups.len()
        );
    }

    #[test]
    fn top_k_extremes_ranks_by_window_max() {
        let groups = [
            series_of(&[(0, 99, Some(3))]),
            series_of(&[(0, 49, Some(9)), (50, 99, Some(1))]),
            series_of(&[(0, 99, None)]),
        ];
        let indexes: Vec<WindowIndex> = groups
            .iter()
            .map(|s| WindowIndex::build(IndexMode::Extremes, s))
            .collect();
        let probes: Vec<GroupProbe> = indexes
            .iter()
            .zip(&groups)
            .map(|(index, source)| GroupProbe {
                index,
                source: source as &dyn RunSource,
            })
            .collect();
        // Over [60, 99] group 0 has max 3, group 1 max 1, group 2 none.
        let outcome = top_k(&probes, Interval::at(60, 99), 2);
        let got: Vec<(usize, Value)> = outcome
            .ranked
            .iter()
            .map(|(g, wa)| (*g, wa.max.clone()))
            .collect();
        assert_eq!(got, vec![(0, Value::Int(3)), (1, Value::Int(1))],);
    }

    #[test]
    fn saturating_arithmetic_never_panics() {
        let series = series_of(&[(0, 0, Some(i64::MAX)), (1, 1, Some(i64::MAX))]);
        let index = WindowIndex::build(IndexMode::Integral, &series);
        let probe = index.probe(Interval::TIMELINE, &series);
        assert_eq!(probe.integral, 2 * i128::from(i64::MAX));
        assert_eq!(probe.integral_value(), Value::Int(i64::MAX));
        // A forever run saturates cleanly.
        let forever = Series::from_entries(vec![SeriesEntry::new(
            Interval::TIMELINE,
            Value::Int(i64::MAX),
        )]);
        let idx = WindowIndex::build(IndexMode::Integral, &forever);
        let p = idx.probe(Interval::TIMELINE, &forever);
        assert!(p.integral > 0);
        assert_eq!(p, scan_window(&forever, Interval::TIMELINE));
    }

    #[test]
    fn empty_series_probes_empty() {
        let series = Series::new();
        let index = WindowIndex::build(IndexMode::Integral, &series);
        assert_eq!(
            index.probe(Interval::at(0, 100), &series),
            WindowAggregate::empty()
        );
        assert_eq!(index.leaf_count(), 1);
    }

    /// One run over the whole timeline — the series of an emptied relation
    /// — counts its instants like the same span summed leaf by leaf, which
    /// is what an index cut before the relation was emptied does.
    #[test]
    fn the_whole_timeline_counts_alike_however_it_is_cut() {
        let forever = Interval::TIMELINE.end().get();
        let whole = series_of(&[(0, forever, Some(0))]);
        let cut = series_of(&[(0, 9, Some(0)), (10, 19, Some(0)), (20, forever, Some(0))]);
        let want = scan_window(&whole, Interval::TIMELINE);
        assert_eq!(want.covered, 1i128 << 63);
        assert_eq!(scan_window(&cut, Interval::TIMELINE), want);
        let index = WindowIndex::build(IndexMode::Integral, &cut);
        assert_eq!(index.probe(Interval::TIMELINE, &whole), want);
        assert_eq!(
            WindowIndex::build(IndexMode::Integral, &whole).probe(Interval::TIMELINE, &whole),
            want
        );
    }
}
