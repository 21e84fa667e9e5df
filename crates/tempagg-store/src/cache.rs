//! Incrementally maintained caches of constant-interval aggregate series.
//!
//! An [`AggCache`] holds the *working* series for one aggregate over the
//! store's relation: a run per constant interval, tiling the full
//! timeline `[0, ∞]`, each carrying the retractable active state
//! ([`DynActive`]) that produced its value. The runs are exactly the
//! segments the endpoint-sweep kernel would emit — same boundary set,
//! same admit/retract order — so a cached series is byte-identical to a
//! from-scratch sweep over the current relation.
//!
//! Writes patch instead of rebuilding:
//!
//! * **Boundaries are reference-counted.** A tuple `[s, e]` contributes
//!   the interior boundaries `s` (if `s > 0`) and `e + 1` (if `e` is not
//!   forever). The first contributor of a boundary splits the run
//!   containing it; the last contributor leaving merges the runs it
//!   separated. This reproduces the sweep's sorted-and-deduplicated
//!   boundary set under any interleaving of inserts and deletes.
//! * **Retractable classes patch states.** For [`SweepClass::Delta`] and
//!   [`SweepClass::Ordered`] aggregates (exact retraction per Colley's
//!   delta summation, or an ordered multiset for `MIN`/`MAX`), the write
//!   folds its value into — or retracts it from — the active state of
//!   exactly the runs overlapping the changed interval.
//! * **Approximate classes recompute the dirty window.** Float retraction
//!   drifts, so those caches re-run the existing sweep kernel over just
//!   the hull of the runs touching the changed interval (tuples clipped
//!   to the window), never the full timeline.
//!
//! Readers never see the working series: [`AggCache::snapshot`] publishes
//! an immutable epoch-stamped version through the core
//! [`VersionedSeries`] chain, materialized at most once per epoch.

use crate::runs::{Run, RunList};
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;
use tempagg_agg::{DynActive, DynAggregate, SweepAggregate};
use tempagg_algo::{RunSource, SweepAggregator, TemporalAggregator, WindowIndex};
use tempagg_core::{
    Epoch, Interval, Result, Series, SeriesEntry, TemporalRelation, Timestamp, Tuple, Value,
    VersionedSeries,
};

/// The input value a cache feeds its aggregate for one tuple: the cached
/// column's value, or the `COUNT(*)` placeholder when there is no input
/// column. Mirrors the SQL executor's extractor so cached and freshly
/// computed series agree byte for byte.
pub(crate) fn extract(tuple: &Tuple, column: Option<usize>) -> Value {
    match column {
        Some(idx) => tuple.value(idx).clone(),
        None => Value::Bool(true),
    }
}

/// The interior boundaries a tuple interval contributes.
fn boundary_candidates(iv: Interval) -> impl Iterator<Item = Timestamp> {
    let origin = Interval::TIMELINE.start();
    let start = (iv.start() > origin).then_some(iv.start());
    let end = (!iv.end().is_forever()).then(|| iv.end().next());
    start.into_iter().chain(end)
}

/// The dyn-level admit/retract endpoint scan behind every cached series:
/// cut the timeline at the tuples' boundaries, walk the cuts in time order
/// admitting by start and retracting by end, and hand `emit` each constant
/// interval with the active state over it. Returns the boundary refcounts
/// (how many tuples contribute each interior cut).
///
/// Deliberately not `SweepAggregator`: float kinds admit in a different
/// order there, and a cache must stay byte-identical to its own rebuild.
fn sweep_runs<T: Borrow<Tuple>>(
    agg: &DynAggregate,
    column: Option<usize>,
    tuples: &[T],
    mut emit: impl FnMut(Interval, &DynActive),
) -> BTreeMap<Timestamp, u32> {
    let mut boundaries: BTreeMap<Timestamp, u32> = BTreeMap::new();
    for tuple in tuples {
        for b in boundary_candidates(tuple.borrow().valid()) {
            *boundaries.entry(b).or_insert(0) += 1;
        }
    }

    let n = tuples.len();
    let mut by_start: Vec<usize> = (0..n).collect();
    // lint: allow(indexing): by_start/by_end are permutations of 0..n
    by_start.sort_unstable_by_key(|&i| tuples[i].borrow().valid().start());
    let mut by_end: Vec<usize> = (0..n).collect();
    // lint: allow(indexing): by_start/by_end are permutations of 0..n
    by_end.sort_unstable_by_key(|&i| tuples[i].borrow().valid().end());

    let mut cuts: Vec<Timestamp> = Vec::with_capacity(boundaries.len() + 1);
    cuts.push(Interval::TIMELINE.start());
    cuts.extend(boundaries.keys().copied());

    let mut active = agg.active_empty();
    let (mut si, mut ei) = (0usize, 0usize);
    for (i, &start) in cuts.iter().enumerate() {
        // lint: allow(indexing): permutation of 0..n, si < n is the loop guard
        while si < n && tuples[by_start[si]].borrow().valid().start() <= start {
            // lint: allow(indexing): same permutation bound as the loop guard above
            agg.active_insert(&mut active, &extract(tuples[by_start[si]].borrow(), column));
            si += 1;
        }
        // lint: allow(indexing): permutation of 0..n, ei < n is the loop guard
        while ei < n && tuples[by_end[ei]].borrow().valid().end() < start {
            // lint: allow(indexing): same permutation bound as the loop guard above
            agg.active_remove(&mut active, &extract(tuples[by_end[ei]].borrow(), column));
            ei += 1;
        }
        let end = cuts
            .get(i + 1)
            .map_or(Interval::TIMELINE.end(), |next| next.prev());
        // lint: allow(no-unwrap): cuts are sorted and deduplicated, so start <= end by construction
        let interval = Interval::new(start, end).expect("cuts are increasing");
        emit(interval, &active);
    }
    boundaries
}

/// Sweep an arbitrary tuple subset (e.g. one group of a `TOP k BY`
/// ranking query) into its constant-interval aggregate series — the same
/// scan as [`AggCache::build`], so the result is byte-identical to what a
/// full cache over just those tuples would publish.
pub fn sweep_values(agg: &DynAggregate, column: Option<usize>, tuples: &[&Tuple]) -> Series<Value> {
    let mut entries = Vec::new();
    sweep_runs(agg, column, tuples, |interval, active| {
        entries.push(SeriesEntry {
            interval,
            value: agg.active_output(active),
        });
    });
    Series::from_entries(entries)
}

/// A versioned, incrementally maintained cache of one aggregate's
/// constant-interval series.
#[derive(Clone, Debug)]
pub(crate) struct AggCache {
    agg: DynAggregate,
    column: Option<usize>,
    /// Working series: runs tile `[0, ∞]` in time order.
    runs: RunList,
    /// Interior boundary refcounts: how many live tuples contribute each
    /// run edge strictly after the origin.
    boundaries: BTreeMap<Timestamp, u32>,
    /// Published immutable snapshots (MVCC chain).
    versions: VersionedSeries<Value>,
    /// Runs patched in place by writes (state insert/retract).
    patched_runs: u64,
    /// Dirty-window sweeps run for the Approximate-class fallback.
    recomputed_windows: u64,
}

impl AggCache {
    /// Build the cache from scratch over `tuples` (a relation's, or one
    /// group's members): the sweep kernel's admit/retract endpoint scan,
    /// but retaining the active state per run so later writes can patch
    /// it.
    pub(crate) fn build<T: Borrow<Tuple>>(
        agg: DynAggregate,
        column: Option<usize>,
        tuples: &[T],
    ) -> AggCache {
        let mut runs = RunList::new();
        let boundaries = sweep_runs(&agg, column, tuples, |interval, active| {
            runs.push(Run {
                interval,
                state: active.clone(),
                value: agg.active_output(active),
            });
        });
        AggCache {
            agg,
            column,
            runs,
            boundaries,
            versions: VersionedSeries::new(),
            patched_runs: 0,
            recomputed_windows: 0,
        }
    }

    pub(crate) fn column(&self) -> Option<usize> {
        self.column
    }

    pub(crate) fn runs_len(&self) -> usize {
        self.runs.len()
    }

    pub(crate) fn patched_runs(&self) -> u64 {
        self.patched_runs
    }

    pub(crate) fn recomputed_windows(&self) -> u64 {
        self.recomputed_windows
    }

    pub(crate) fn live_versions(&self) -> usize {
        self.versions.live_versions()
    }

    pub(crate) fn pinned_versions(&self) -> usize {
        self.versions.pinned_versions()
    }

    /// Whether writes patch active states (exact retraction) or fall back
    /// to dirty-window recomputes.
    fn patches_states(&self) -> bool {
        self.agg.sweep_class().retractable()
    }

    /// Reference a boundary; its first contributor splits the run
    /// containing it, both halves inheriting the state and value (the
    /// active set is unchanged until the new tuple is folded in).
    fn add_boundary(&mut self, b: Timestamp) {
        let count = self.boundaries.entry(b).or_insert(0);
        *count += 1;
        if *count == 1 {
            self.runs.split_at(b);
        }
    }

    /// Release a boundary; its last contributor leaving merges the runs
    /// it separated. With no tuple edge left at `b`, the active set is
    /// identical on both sides, so the predecessor's state and value
    /// stand for the merged run.
    fn drop_boundary(&mut self, b: Timestamp) {
        let Some(count) = self.boundaries.get_mut(&b) else {
            return;
        };
        *count = count.saturating_sub(1);
        if *count == 0 {
            self.boundaries.remove(&b);
            self.runs.merge_at(b);
        }
    }

    /// Absorb one inserted tuple. The relation already contains it.
    pub(crate) fn apply_insert(
        &mut self,
        valid: Interval,
        value: &Value,
        relation: &TemporalRelation,
    ) -> Result<()> {
        for b in boundary_candidates(valid) {
            self.add_boundary(b);
        }
        if self.patches_states() {
            self.patch(valid, value, DynAggregate::active_insert);
            Ok(())
        } else {
            self.recompute_window(valid, relation)
        }
    }

    /// Absorb one deleted tuple. The relation no longer contains it.
    pub(crate) fn apply_delete(
        &mut self,
        valid: Interval,
        value: &Value,
        relation: &TemporalRelation,
    ) -> Result<()> {
        if self.patches_states() {
            // Retract first: after retraction the states on both sides of
            // a released boundary are equal, making the merge sound.
            self.patch(valid, value, DynAggregate::active_remove);
            for b in boundary_candidates(valid) {
                self.drop_boundary(b);
            }
            Ok(())
        } else {
            for b in boundary_candidates(valid) {
                self.drop_boundary(b);
            }
            self.recompute_window(valid, relation)
        }
    }

    /// Absorb one tuple whose cached column changed from `old` to `new`
    /// while its valid time stayed: retract and fold in one pass over the
    /// runs it covers. Its boundaries and their refcounts end where they
    /// began, so they are not touched. The relation already holds `new`.
    pub(crate) fn apply_update(
        &mut self,
        valid: Interval,
        old: &Value,
        new: &Value,
        relation: &TemporalRelation,
    ) -> Result<()> {
        if !self.patches_states() {
            return self.recompute_window(valid, relation);
        }
        let agg = self.agg;
        self.patched_runs += self.runs.for_each_in_mut(valid, |run| {
            agg.active_remove(&mut run.state, old);
            agg.active_insert(&mut run.state, new);
            run.value = agg.active_output(&run.state);
        });
        Ok(())
    }

    /// Fold `value` into (or retract it from) the state of every run
    /// overlapping `iv`, refreshing the cached outputs.
    fn patch(
        &mut self,
        iv: Interval,
        value: &Value,
        op: fn(&DynAggregate, &mut DynActive, &Value),
    ) {
        let agg = self.agg;
        self.patched_runs += self.runs.for_each_in_mut(iv, |run| {
            op(&agg, &mut run.state, value);
            run.value = agg.active_output(&run.state);
        });
    }

    /// The Approximate-class fallback: re-run the sweep kernel over just
    /// the hull of the runs overlapping `dirty`, with tuples clipped to
    /// that window, and splice the result over the stale runs. The
    /// window's edges are existing run edges, so the recomputed segments
    /// align with the refcounted boundary structure exactly.
    fn recompute_window(&mut self, dirty: Interval, relation: &TemporalRelation) -> Result<()> {
        let window = match (
            self.runs.run_at(dirty.start()),
            self.runs.run_at(dirty.end()),
        ) {
            (Some(first), Some(last)) => first.interval.hull(&last.interval),
            _ => return Ok(()),
        };
        let mut sweep = SweepAggregator::with_domain(self.agg, window);
        for tuple in relation {
            if let Some(clipped) = tuple.valid().intersect(&window) {
                sweep.push(clipped, extract(tuple, self.column))?;
            }
        }
        let empty = self.agg.active_empty();
        let replacement: Vec<Run> = sweep
            .finish()
            .into_entries()
            .into_iter()
            .map(|e| Run {
                interval: e.interval,
                state: empty.clone(),
                value: e.value,
            })
            .collect();
        self.runs.splice(window, replacement);
        self.recomputed_windows += 1;
        Ok(())
    }

    /// An immutable snapshot of the working series at `epoch`, shared
    /// with every reader of that epoch. Superseded unpinned versions are
    /// collected on publish.
    pub(crate) fn snapshot(&mut self, epoch: Epoch) -> Arc<Series<Value>> {
        let runs = &self.runs;
        self.versions
            .snapshot_at(epoch, || Series::from_entries(runs.entries()))
    }

    /// The working series as a snapshot would publish it, without
    /// publishing one.
    #[cfg(feature = "validate")]
    pub(crate) fn series(&self) -> Series<Value> {
        Series::from_entries(self.runs.entries())
    }

    /// Structural invariants: the chunked runs tile `[0, ∞]`, and interior
    /// run edges are exactly the refcounted boundaries.
    #[cfg(any(test, feature = "validate"))]
    pub(crate) fn validate_structure(&self) {
        self.runs.validate_structure();
        for run in self.runs.chunks().flatten().skip(1) {
            assert!(
                self.boundaries.contains_key(&run.interval.start()),
                "interior run edge {} has no boundary refcount",
                run.interval.start()
            );
        }
        assert_eq!(
            self.boundaries.len(),
            self.runs.len().saturating_sub(1),
            "boundary refcounts must match interior run edges"
        );
    }
}

/// The window index probes and refreshes straight off the working series:
/// no snapshot is materialised on the way.
impl RunSource for AggCache {
    fn for_each_run_in(&self, window: Interval, f: &mut dyn FnMut(Interval, &Value)) {
        self.runs.for_each_in(window, |run| {
            if let Some(clipped) = run.interval.intersect(&window) {
                f(clipped, &run.value);
            }
        });
    }
}

/// Bring `index` back in step with `cache` after writes over `dirty`:
/// recompute the leaves they overlap and refold their root paths. An
/// index keeps the leaf cuts it was built with, so once the series holds
/// twice the runs it was cut for (a group born from one tuple, a table
/// created empty) it is rebuilt instead — amortized O(1) per write.
pub(crate) fn refresh_index(index: &mut WindowIndex, cache: &AggCache, dirty: &[Interval]) {
    if cache.runs_len() >= 2 * index.leaf_count() {
        *index = WindowIndex::over(index.mode(), cache);
    } else {
        for iv in dirty {
            index.refresh(*iv, cache);
        }
    }
}

/// `--features validate`: after an index was refreshed (or re-cut), build
/// one from scratch over `fresh` — the series the cache holds now — and
/// assert that the two answer the full timeline plus windows around every
/// dirty interval byte-identically. A refreshed index keeps its original
/// leaf cuts while the rebuilt one re-cuts at current run boundaries, so
/// this compares probe *results*, never node layouts.
#[cfg(feature = "validate")]
pub(crate) fn validate_index(
    index: &WindowIndex,
    cache: &AggCache,
    fresh: &Series<Value>,
    dirty: &[Interval],
) {
    let rebuilt = WindowIndex::build(index.mode(), fresh);
    let mut windows = vec![Interval::TIMELINE];
    for iv in dirty {
        windows.push(*iv);
        let lo = Timestamp::new(iv.start().get().saturating_sub(16).max(0));
        let hi = Timestamp::new(iv.end().get().saturating_add(16));
        if let Ok(widened) = Interval::new(lo, hi) {
            windows.push(widened);
        }
    }
    for window in windows {
        assert_eq!(
            index.probe(window, cache),
            rebuilt.probe(window, fresh),
            "refreshed window index diverged from a rebuilt one"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_agg::AggKind;
    use tempagg_core::{Schema, ValueType};

    /// The cache's runs, read through the window index's own door, clip
    /// to any window exactly as the published series does — also where the
    /// window's edges fall mid-run on either side of a chunk edge.
    #[test]
    fn runs_clip_across_a_chunk_edge_like_the_published_series() {
        let mut relation = TemporalRelation::new(Schema::of(&[("x", ValueType::Int)]));
        for i in 0..300i64 {
            relation
                .push(vec![Value::Int(i)], Interval::at(20 * i + 5, 20 * i + 14))
                .unwrap();
        }
        let sum = DynAggregate::new(AggKind::Sum, ValueType::Int).unwrap();
        let mut cache = AggCache::build(sum, Some(0), relation.tuples());
        cache.validate_structure();
        let edges: Vec<Timestamp> = cache
            .runs
            .chunks()
            .skip(1)
            .filter_map(|chunk| chunk.first().map(|run| run.interval.start()))
            .collect();
        assert_eq!(edges.len(), 2, "601 runs sit in three chunks");
        let series = cache.snapshot(Epoch::ZERO);
        let collect = |source: &dyn RunSource, window: Interval| {
            let mut out = Vec::new();
            source.for_each_run_in(window, &mut |iv, v| out.push((iv, v.clone())));
            out
        };
        for edge in edges {
            for (before, after) in [(0, 0), (1, 0), (0, 1), (3, 3), (17, 26), (400, 2)] {
                let window = Interval::new(
                    Timestamp::new(edge.get() - before),
                    Timestamp::new(edge.get() + after),
                )
                .unwrap();
                let got = collect(&cache, window);
                assert_eq!(got, collect(&*series, window), "{window}");
                assert_eq!(got.first().map(|(iv, _)| iv.start()), Some(window.start()));
                assert_eq!(got.last().map(|(iv, _)| iv.end()), Some(window.end()));
            }
        }
    }
}
