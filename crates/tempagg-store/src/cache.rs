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
//! Readers never see the working series: [`CachedSeries::snapshot`]
//! publishes an immutable epoch-stamped version through the core
//! [`VersionedSeries`] chain, materialized at most once per epoch.
//!
//! What the store and each ranking group hold is a [`CachedSeries`]: that
//! cache — or, after a reopen and until the first write, the series the
//! paged file holds for the aggregate, decoded when it is first read —
//! together with the window index cut over it. Every write goes through the
//! entry, which patches the runs and then brings its own index back in step.

use crate::runs::{Run, RunList};
use crate::store::StoreCacheStats;
use std::borrow::Borrow;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use tempagg_agg::{DynActive, DynAggregate, SweepAggregate};
use tempagg_algo::{
    GroupProbe, IndexMode, RunSource, SweepAggregator, TemporalAggregator, WindowAggregate,
    WindowIndex,
};
use tempagg_core::pager::PagedReader;
use tempagg_core::{
    Epoch, Interval, Result, Series, SeriesEntry, TempAggError, TemporalRelation, Timestamp, Tuple,
    Value, VersionedSeries,
};

/// The input value a cache feeds its aggregate for one tuple: the cached
/// column's value, or the `COUNT(*)` placeholder when there is no input
/// column. Mirrors the SQL executor's extractor so cached and freshly
/// computed series agree byte for byte.
fn extract(tuple: &Tuple, column: Option<usize>) -> Value {
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
struct AggCache {
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
    fn build<T: Borrow<Tuple>>(agg: DynAggregate, column: Option<usize>, tuples: &[T]) -> AggCache {
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
}

/// What a cached series is read from: the patchable runs of a live
/// [`AggCache`], or the series a paged file holds for an aggregate —
/// immutable, equal to what a cache built over the reopened relation would
/// publish, and served as it is until the first write swaps that cache in.
#[derive(Clone, Debug)]
enum Body {
    Live(AggCache),
    Restored(DynAggregate, Stored),
}

/// Series block `slot` of the paged file a store was opened from, of which
/// opening read the directory record and no more: the first call of
/// [`series`](Stored::series) reads, verifies and decodes the block. A clone
/// made before that decodes for itself.
#[derive(Clone, Debug)]
struct Stored {
    reader: Arc<PagedReader>,
    slot: usize,
    series: OnceCell<Arc<Series<Value>>>,
}

impl Stored {
    fn series(&self) -> Result<&Arc<Series<Value>>> {
        if let Some(series) = self.series.get() {
            return Ok(series);
        }
        let decoded = Series::from_entries(self.reader.series(self.slot)?);
        Ok(self.series.get_or_init(|| Arc::new(decoded)))
    }
}

/// The window index probes and refreshes straight off the working series:
/// no snapshot is materialised on the way.
impl RunSource for Body {
    fn for_each_run_in(&self, window: Interval, f: &mut dyn FnMut(Interval, &Value)) {
        match self {
            Body::Live(cache) => cache.runs.for_each_in(window, |run| {
                if let Some(clipped) = run.interval.intersect(&window) {
                    f(clipped, &run.value);
                }
            }),
            // A lookup: `CachedSeries::load` ran at the store's door, and
            // swapped a block that would not decode for a rebuild.
            Body::Restored(_, stored) => {
                if let Ok(series) = stored.series() {
                    series.for_each_run_in(window, f);
                }
            }
        }
    }
}

/// One cached aggregate series and the window index over it — what the
/// store keeps per `(aggregate, column)` and a ranking keeps per group.
///
/// The index is cut by the first probe and never persisted. From then on
/// the entry keeps it in step: [`insert`](CachedSeries::insert),
/// [`delete`](CachedSeries::delete) and [`update`](CachedSeries::update)
/// patch the runs and then refresh the index over the intervals they
/// dirtied, so nobody outside can leave the two apart. A restored body
/// takes no writes; [`promote`](CachedSeries::promote) comes first.
#[derive(Clone, Debug)]
pub(crate) struct CachedSeries {
    body: Body,
    index: Option<WindowIndex>,
}

impl CachedSeries {
    /// A live series built from scratch over `tuples` (a relation's, or
    /// one group's members).
    pub(crate) fn build<T: Borrow<Tuple>>(
        agg: DynAggregate,
        column: Option<usize>,
        tuples: &[T],
    ) -> CachedSeries {
        CachedSeries {
            body: Body::Live(AggCache::build(agg, column, tuples)),
            index: None,
        }
    }

    /// The series of `agg` as block `slot` of `reader`'s file stores it:
    /// nothing of the block is read yet.
    pub(crate) fn restored(agg: DynAggregate, reader: Arc<PagedReader>, slot: usize) -> Self {
        let stored = Stored {
            reader,
            slot,
            series: OnceCell::new(),
        };
        CachedSeries {
            body: Body::Restored(agg, stored),
            index: None,
        }
    }

    /// Swap a restored body for a live cache over `column` of `tuples` —
    /// the relation *before* the write that forces this, so that write
    /// patches real, retractable state. Both bodies hold the same series,
    /// so an index already cut stays; a block nobody read stays unread.
    pub(crate) fn promote(&mut self, column: Option<usize>, tuples: &[Tuple]) {
        if let Body::Restored(agg, _) = &self.body {
            self.body = Body::Live(AggCache::build(*agg, column, tuples));
        }
    }

    /// Have a restored body's series in hand before it is read — every door
    /// of the store calls this first. A persisted series is a cache: a block
    /// that fails its checksum or decode is dropped for a live cache rebuilt
    /// over `column` of `tuples`, so it costs a rebuild, never an answer.
    pub(crate) fn load(&mut self, column: Option<usize>, tuples: &[Tuple]) {
        if matches!(&self.body, Body::Restored(_, stored) if stored.series().is_err()) {
            self.promote(column, tuples);
        }
    }

    fn live_mut(&mut self) -> Result<&mut AggCache> {
        match &mut self.body {
            Body::Live(cache) => Ok(cache),
            Body::Restored(..) => Err(TempAggError::internal(
                "a write reached a restored series before its promotion",
            )),
        }
    }

    /// How many constant-interval runs the series has now.
    pub(crate) fn runs_len(&self) -> usize {
        match &self.body {
            Body::Live(cache) => cache.runs.len(),
            // The directory's count: known without the block.
            Body::Restored(_, stored) => {
                let record = stored.reader.series_directory().get(stored.slot);
                record.map_or(0, |record| record.runs as usize)
            }
        }
    }

    /// The series as a snapshot would publish it, without publishing one.
    pub(crate) fn entries(&self) -> Result<Vec<SeriesEntry<Value>>> {
        match &self.body {
            Body::Live(cache) => Ok(cache.runs.entries()),
            Body::Restored(_, stored) => Ok(stored.series()?.entries().to_vec()),
        }
    }

    /// An immutable snapshot of the series at `epoch`, shared with every
    /// reader of that epoch; superseded unpinned versions are collected on
    /// publish. A restored series is its own snapshot: the relation has
    /// not changed since the flush that wrote it.
    pub(crate) fn snapshot(&mut self, epoch: Epoch) -> Arc<Series<Value>> {
        match &mut self.body {
            Body::Live(cache) => cache
                .versions
                .snapshot_at(epoch, || Series::from_entries(cache.runs.entries())),
            // Decoded since `load`, as in `for_each_run_in`.
            Body::Restored(_, stored) => stored.series().cloned().unwrap_or_default(),
        }
    }

    /// Add a live body's maintenance counters to `stats`.
    pub(crate) fn tally(&self, stats: &mut StoreCacheStats) {
        if let Body::Live(cache) = &self.body {
            stats.caches += 1;
            stats.runs += cache.runs.len();
            stats.patched_runs += cache.patched_runs;
            stats.recomputed_windows += cache.recomputed_windows;
            stats.live_versions += cache.versions.live_versions();
            stats.pinned_versions += cache.versions.pinned_versions();
        }
    }

    pub(crate) fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// The index, cut now over the current runs if no probe has yet, and
    /// the runs it reads its edge leaves from.
    pub(crate) fn indexed(&mut self, mode: IndexMode) -> GroupProbe<'_> {
        let index = self
            .index
            .get_or_insert_with(|| WindowIndex::over(mode, &self.body));
        GroupProbe {
            index,
            source: &self.body,
        }
    }

    /// The aggregate over `window` in O(log n) node folds.
    pub(crate) fn probe(&mut self, mode: IndexMode, window: Interval) -> WindowAggregate {
        let GroupProbe { index, source } = self.indexed(mode);
        let out = index.probe(window, source);
        #[cfg(feature = "validate")]
        assert_eq!(
            out,
            tempagg_algo::scan_window(source, window),
            "window index probe diverged from the linear scan oracle"
        );
        out
    }

    /// Absorb one inserted tuple. The relation already contains it.
    pub(crate) fn insert(&mut self, tuple: &Tuple, relation: &TemporalRelation) -> Result<()> {
        let (cache, valid) = (self.live_mut()?, tuple.valid());
        for b in boundary_candidates(valid) {
            cache.add_boundary(b);
        }
        if cache.patches_states() {
            let value = extract(tuple, cache.column);
            cache.patch(valid, &value, DynAggregate::active_insert);
        } else {
            cache.recompute_window(valid, relation)?;
        }
        self.refresh(valid);
        Ok(())
    }

    /// Retract one deleted tuple. The relation no longer contains it.
    pub(crate) fn delete(&mut self, tuple: &Tuple, relation: &TemporalRelation) -> Result<()> {
        let (cache, valid) = (self.live_mut()?, tuple.valid());
        let retracts = cache.patches_states();
        if retracts {
            // Retract first: after retraction the states on both sides of
            // a released boundary are equal, making the merge sound.
            let value = extract(tuple, cache.column);
            cache.patch(valid, &value, DynAggregate::active_remove);
        }
        for b in boundary_candidates(valid) {
            cache.drop_boundary(b);
        }
        if !retracts {
            cache.recompute_window(valid, relation)?;
        }
        self.refresh(valid);
        Ok(())
    }

    /// Absorb one tuple rewritten in place from `old` to `new`, valid time
    /// kept: retract and fold in one pass over the runs it covers. Its
    /// boundaries and their refcounts end where they began, so they are
    /// not touched. The relation already holds `new`. A series without an
    /// input column reads nothing an `UPDATE` can assign.
    pub(crate) fn update(
        &mut self,
        old: &Tuple,
        new: &Tuple,
        relation: &TemporalRelation,
    ) -> Result<()> {
        let (cache, valid) = (self.live_mut()?, new.valid());
        let Some(column) = cache.column else {
            return Ok(());
        };
        if cache.patches_states() {
            let agg = cache.agg;
            cache.patched_runs += cache.runs.for_each_in_mut(valid, |run| {
                agg.active_remove(&mut run.state, old.value(column));
                agg.active_insert(&mut run.state, new.value(column));
                run.value = agg.active_output(&run.state);
            });
        } else {
            cache.recompute_window(valid, relation)?;
        }
        self.refresh(valid);
        Ok(())
    }

    /// Bring the index back in step with the runs after a write over
    /// `dirty`: recompute the leaves it overlaps and refold their root
    /// paths — O(runs-in-dirty + log n). An index keeps the leaf cuts it
    /// was built with, so once the series holds twice the runs it was cut
    /// for (a group born from one tuple, a table created empty) it is
    /// rebuilt instead — amortized O(1) per write.
    fn refresh(&mut self, dirty: Interval) {
        #[cfg(feature = "validate")]
        self.validate_structure();
        let runs = self.runs_len();
        let Some(index) = &mut self.index else {
            return;
        };
        if runs >= 2 * index.leaf_count() {
            *index = WindowIndex::over(index.mode(), &self.body);
        } else {
            index.refresh(dirty, &self.body);
        }
        #[cfg(feature = "validate")]
        self.validate_index(dirty);
    }

    /// Structural invariants of a live body: the chunked runs tile
    /// `[0, ∞]`, and interior run edges are exactly the refcounted
    /// boundaries.
    #[cfg(any(test, feature = "validate"))]
    pub(crate) fn validate_structure(&self) {
        let Body::Live(cache) = &self.body else {
            return;
        };
        cache.runs.validate_structure();
        for run in cache.runs.chunks().flatten().skip(1) {
            assert!(
                cache.boundaries.contains_key(&run.interval.start()),
                "interior run edge {} has no boundary refcount",
                run.interval.start()
            );
        }
        assert_eq!(
            cache.boundaries.len(),
            cache.runs.len().saturating_sub(1),
            "boundary refcounts must match interior run edges"
        );
    }

    /// `--features validate`: after the index was refreshed (or re-cut),
    /// cut one from scratch over the runs the entry holds now and
    /// assert that the two answer the full timeline and windows around
    /// the dirty interval byte-identically. A refreshed index keeps its
    /// original leaf cuts while the rebuilt one re-cuts at current run
    /// boundaries, so this compares probe *results*, never node layouts.
    #[cfg(feature = "validate")]
    fn validate_index(&self, dirty: Interval) {
        let Some(index) = &self.index else {
            return;
        };
        let rebuilt = WindowIndex::over(index.mode(), &self.body);
        let lo = Timestamp::new(dirty.start().get().saturating_sub(16).max(0));
        let hi = Timestamp::new(dirty.end().get().saturating_add(16));
        let widened = Interval::new(lo, hi).unwrap_or(dirty);
        for window in [Interval::TIMELINE, dirty, widened] {
            assert_eq!(
                index.probe(window, &self.body),
                rebuilt.probe(window, &self.body),
                "refreshed window index diverged from a rebuilt one"
            );
        }
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
        let mut cached = CachedSeries::build(sum, Some(0), relation.tuples());
        cached.validate_structure();
        let Body::Live(cache) = &cached.body else {
            panic!("a built series is live");
        };
        let edges: Vec<Timestamp> = cache
            .runs
            .chunks()
            .skip(1)
            .filter_map(|chunk| chunk.first().map(|run| run.interval.start()))
            .collect();
        assert_eq!(edges.len(), 2, "601 runs sit in three chunks");
        let series = cached.snapshot(Epoch::ZERO);
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
                let got = collect(&cached.body, window);
                assert_eq!(got, collect(&*series, window), "{window}");
                assert_eq!(got.first().map(|(iv, _)| iv.start()), Some(window.start()));
                assert_eq!(got.last().map(|(iv, _)| iv.end()), Some(window.end()));
            }
        }
    }

    /// A series born from one tuple (three runs) does not keep a three-leaf
    /// index for life: whenever the series has doubled, the index is cut
    /// again, and in between it is refreshed in place.
    #[test]
    fn an_index_is_recut_when_its_series_has_doubled() {
        let schema = Schema::of(&[("g", ValueType::Int), ("v", ValueType::Int)]);
        let mut relation = TemporalRelation::new(schema);
        let sum = DynAggregate::new(AggKind::Sum, ValueType::Int).unwrap();
        let mut cached = CachedSeries::build(sum, Some(1), relation.tuples());
        let mut cuts = Vec::new();
        for i in 0..200i64 {
            let tuple = Tuple::new(
                vec![Value::Int(7), Value::Int(i)],
                Interval::at(13 * i % 500 + 1, 13 * i % 500 + 40),
            );
            relation.push_tuple(tuple.clone()).unwrap();
            cached.insert(&tuple, &relation).unwrap();
            for window in [Interval::TIMELINE, Interval::at(20, 300), tuple.valid()] {
                assert_eq!(
                    cached.probe(IndexMode::Integral, window),
                    tempagg_algo::scan_window(&cached.body, window)
                );
            }
            let leaves = cached.index.as_ref().map(WindowIndex::leaf_count).unwrap();
            assert!(cached.runs_len() < 2 * leaves);
            if cuts.last() != Some(&leaves) {
                cuts.push(leaves);
            }
        }
        // Cut for 3 runs at the first probe, then each time the series had
        // doubled: a handful of rebuilds for two hundred writes.
        assert_eq!(cuts.first(), Some(&3));
        assert!(cuts.windows(2).all(|w| w[1] >= 2 * w[0]), "{cuts:?}");
        assert!((4..=8).contains(&cuts.len()), "{cuts:?}");
    }
}
