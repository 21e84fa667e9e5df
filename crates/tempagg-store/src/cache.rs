//! Incrementally maintained caches of constant-interval aggregate series.
//!
//! An [`AggCache`] holds the *working* series for one aggregate over the
//! store's relation: a run per constant interval, tiling the full
//! timeline `[0, ∞]`, each carrying its value and — for a Delta-class
//! aggregate — the retractable state ([`RunState`]) that produced it. A
//! build is the endpoint-sweep kernel itself: the runs are the segments
//! [`SweepAggregator::finish_states`] closes, each with the active state
//! over it, so a fresh cache is byte-identical to a from-scratch sweep over
//! the relation. The store has no admit/retract loop of its own: builds,
//! promotions, groups and re-derived runs all come out of that kernel.
//!
//! Writes patch instead of rebuilding. A statement's changes to one series
//! are its [`Edit`]s, applied together:
//!
//! * **Boundaries are reference-counted.** A tuple `[s, e]` contributes
//!   the interior boundaries `s` (if `s > 0`) and `e + 1` (if `e` is not
//!   forever). The first contributor of a boundary splits the run
//!   containing it; the last contributor leaving merges the runs it
//!   separated. This reproduces the sweep's sorted-and-deduplicated
//!   boundary set under any interleaving of inserts and deletes. A
//!   statement adds its boundaries before it touches a value and releases
//!   them after, so every run it touches is constant over the relation
//!   before, during and after it, and a merge joins two runs that already
//!   agree.
//! * **Values follow exactly.** A [`SweepClass::Delta`] run keeps its
//!   active state, and a write folds its value into — or retracts it from —
//!   the state of exactly the runs overlapping the changed interval
//!   (Colley's delta summation). An [`SweepClass::Ordered`] run keeps its
//!   value only: a `MIN`/`MAX` insert folds the new value in, and a run
//!   whose value a write takes away — or any run a `COUNT(DISTINCT)` write
//!   covers — is re-derived from the tuples of the relation after the write
//!   that overlap the statement's intervals ([`Written`]), swept once per
//!   series and statement. An [`SweepClass::Approximate`] aggregate would
//!   drift under float retraction, so the store caches none: it is scanned
//!   every time.
//!
//! Readers never see the working series: [`CachedSeries::view`] hands out
//! its current version, a [`SeriesView`] that shares the working series'
//! chunks, published at most once between two writes that patch the series
//! (a write that does not — an `UPDATE` of a column it does not read —
//! leaves its version current). Publishing clones one `Arc` per chunk. A
//! write first drops every version no reader holds, the newest included,
//! and then copies only the chunks a held version shares (`runs.rs`).
//!
//! What the store and each ranking group hold is a [`CachedSeries`]: that
//! cache — or, after a reopen and until the first write, the series the
//! paged file holds for the aggregate, decoded when it is first read —
//! together with the window index cut over it. Every write goes through the
//! entry, which patches the runs and then brings its own index back in step.

use crate::runs::{RunList, RunState};
use crate::store::StoreCacheStats;
use std::borrow::Borrow;
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use tempagg_agg::{AggKind, DynAggregate, SweepAggregate};
use tempagg_algo::{
    GroupProbe, IndexMode, RunSource, SweepAggregator, TemporalAggregator, WindowAggregate,
    WindowIndex,
};
use tempagg_core::pager::PagedReader;
use tempagg_core::{
    Interval, Result, Series, SeriesEntry, SeriesView, TempAggError, Timestamp, Tuple, Value,
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

/// The endpoint sweep of `agg` over `column` of `tuples`, ready to finish:
/// every series the store computes from tuples comes out of this one
/// admit/retract loop. `each` sees every tuple's valid time on the way, so
/// a build makes one pass over the tuples.
fn sweep_of<T: Borrow<Tuple>>(
    agg: DynAggregate,
    column: Option<usize>,
    tuples: &[T],
    mut each: impl FnMut(Interval),
) -> SweepAggregator<DynAggregate> {
    let mut sweep = SweepAggregator::new(agg);
    for tuple in tuples {
        let tuple = tuple.borrow();
        each(tuple.valid());
        let pushed = sweep.push(tuple.valid(), extract(tuple, column));
        debug_assert!(pushed.is_ok(), "a valid time lies on the sweep's timeline");
    }
    sweep
}

/// Sweep an arbitrary tuple subset (e.g. one group of a `TOP k BY`
/// ranking query) into its constant-interval aggregate series — the same
/// sweep as [`AggCache::build`], so the result is byte-identical to what a
/// full cache over just those tuples would publish.
pub fn sweep_values(agg: &DynAggregate, column: Option<usize>, tuples: &[&Tuple]) -> Series<Value> {
    sweep_of(*agg, column, tuples, |_| {}).finish()
}

/// One tuple a statement changed, as one cached series sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Edit<'a> {
    /// A tuple joined the series' members: inserted, or moved into a group.
    Add(&'a Tuple),
    /// A tuple left them: deleted, or moved out of a group.
    Take(&'a Tuple),
    /// A member rewritten in place from the first tuple to the second,
    /// valid time kept.
    Rewrite(&'a Tuple, &'a Tuple),
}

impl<'a> Edit<'a> {
    /// The interval whose runs the edit may change.
    pub(crate) fn valid(&self) -> Interval {
        match self {
            Edit::Add(tuple) | Edit::Take(tuple) | Edit::Rewrite(_, tuple) => tuple.valid(),
        }
    }

    /// The tuple the edit takes away, if any.
    pub(crate) fn taken(&self) -> Option<&'a Tuple> {
        match *self {
            Edit::Take(tuple) | Edit::Rewrite(tuple, _) => Some(tuple),
            Edit::Add(_) => None,
        }
    }

    /// The tuple the edit gives, if any.
    pub(crate) fn given(&self) -> Option<&'a Tuple> {
        match *self {
            Edit::Add(tuple) | Edit::Rewrite(_, tuple) => Some(tuple),
            Edit::Take(_) => None,
        }
    }
}

/// A statement's rows as a re-derived run reads them: the resident
/// relation after the write, and the statement's edits. The tuples
/// overlapping the edits' intervals are gathered by the first series that
/// needs them, once for every series the statement patches; a statement
/// no series re-derives for reads nothing.
#[derive(Debug)]
pub(crate) struct Written<'a> {
    relation: &'a [Tuple],
    edits: &'a [Edit<'a>],
    overlapping: OnceCell<Vec<&'a Tuple>>,
}

impl<'a> Written<'a> {
    pub(crate) fn new(relation: &'a [Tuple], edits: &'a [Edit<'a>]) -> Written<'a> {
        Written {
            relation,
            edits,
            overlapping: OnceCell::new(),
        }
    }

    /// The relation's tuples that overlap an edit's interval.
    fn overlapping(&self) -> &[&'a Tuple] {
        self.overlapping.get_or_init(|| {
            let mut written: Vec<Interval> = self.edits.iter().map(Edit::valid).collect();
            written.sort_unstable_by_key(Interval::start);
            let mut disjoint: Vec<Interval> = Vec::with_capacity(written.len());
            for iv in written {
                match disjoint.last_mut() {
                    Some(last) if last.overlaps(&iv) => *last = last.hull(&iv),
                    _ => disjoint.push(iv),
                }
            }
            let touches = |iv: Interval| {
                let i = disjoint.partition_point(|w| w.end() < iv.start());
                disjoint.get(i).is_some_and(|w| w.start() <= iv.end())
            };
            self.relation
                .iter()
                .filter(|tuple| touches(tuple.valid()))
                .collect()
        })
    }
}

/// The members of one series after a statement, as its re-derived runs
/// read them: the written tuples of the whole relation, or of one ranking
/// group's.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Members<'w, 'a> {
    written: &'w Written<'a>,
    /// The grouping column and this group's value in it.
    group: Option<(usize, &'w Value)>,
}

impl<'w, 'a> Members<'w, 'a> {
    pub(crate) fn all(written: &'w Written<'a>) -> Self {
        Members {
            written,
            group: None,
        }
    }

    pub(crate) fn of_group(written: &'w Written<'a>, column: usize, value: &'w Value) -> Self {
        Members {
            written,
            group: Some((column, value)),
        }
    }

    fn tuples(&self) -> Vec<&'a Tuple> {
        let overlapping = self.written.overlapping().iter().copied();
        match self.group {
            None => overlapping.collect(),
            Some((column, value)) => overlapping.filter(|t| t.value(column) == value).collect(),
        }
    }
}

/// The values a statement's re-derived runs take: the series of the
/// members it wrote over, swept when the first run asks.
struct Rederived<'w, 'a> {
    agg: DynAggregate,
    column: Option<usize>,
    members: Members<'w, 'a>,
    series: Option<Series<Value>>,
}

impl Rederived<'_, '_> {
    /// The members' value at `t`, an instant the statement wrote. Every
    /// member live at `t` overlaps a written interval, so the gathered ones
    /// hold them all: this is the value over all of the series' members.
    fn at(&mut self, t: Timestamp) -> Value {
        let series = self
            .series
            .get_or_insert_with(|| sweep_values(&self.agg, self.column, &self.members.tuples()));
        series.value_at(t).cloned().unwrap_or(Value::Null)
    }
}

/// How a run of an aggregate's series takes an edit.
#[derive(Clone, Copy, Debug)]
enum Upkeep {
    /// Delta class: retract the taken value from the run's state and fold
    /// the given one in.
    Patch,
    /// `MIN` (`max: false`) / `MAX`: fold the given value into the run's
    /// value; a run whose value is the taken one is re-derived.
    Extreme { max: bool },
    /// `COUNT(DISTINCT)`: every run the edit covers is re-derived.
    Rederive,
}

impl Upkeep {
    fn of(agg: &DynAggregate) -> Upkeep {
        match agg.kind() {
            AggKind::Min => Upkeep::Extreme { max: false },
            AggKind::Max => Upkeep::Extreme { max: true },
            AggKind::CountDistinct => Upkeep::Rederive,
            _ => Upkeep::Patch,
        }
    }
}

/// Fold `value` into the extreme `best` (a NULL is no value).
fn fold_extreme(best: &mut Value, value: &Value, max: bool) {
    let better = if max { *value > *best } else { *value < *best };
    if !value.is_null() && (best.is_null() || better) {
        *best = value.clone();
    }
}

/// One version of a cache handed to readers: the runs as they stood, as a
/// view sharing their chunks, and — once
/// [`TemporalStore::snapshot`](crate::TemporalStore::snapshot) asks — that
/// view copied into one series.
#[derive(Debug)]
struct Version {
    view: SeriesView<Value>,
    series: OnceCell<Arc<Series<Value>>>,
}

impl Version {
    /// Whether a reader holds the view or the series copied from it.
    fn pinned(&self) -> bool {
        self.view.holders() > 1 || self.series.get().is_some_and(|s| Arc::strong_count(s) > 1)
    }

    /// The view copied into one series, at most once.
    fn series(&self) -> Arc<Series<Value>> {
        Arc::clone(self.series.get_or_init(|| Arc::new(self.view.to_series())))
    }
}

/// The versions of one cache that are still alive: the current one, if
/// no write has patched the runs since it was published, and older ones a
/// reader still pins.
#[derive(Debug, Default)]
struct Versions {
    current: Option<Version>,
    older: Vec<Version>,
}

/// A cloned store publishes its own versions at its first read: sharing
/// these would have each store's versions pin the other's chunks.
impl Clone for Versions {
    fn clone(&self) -> Versions {
        Versions::default()
    }
}

impl Versions {
    /// The current version, published from `runs` if there is none.
    fn current(&mut self, runs: &RunList) -> &Version {
        if self.current.is_none() {
            self.older.retain(Version::pinned);
        }
        self.current.get_or_insert_with(|| Version {
            view: runs.view(),
            series: OnceCell::new(),
        })
    }

    /// Before a write patches the runs: the current version is superseded,
    /// and every version no reader pins is dropped — the current one too,
    /// so that the write copies only the chunks a reader holds.
    fn supersede(&mut self) {
        self.older.extend(self.current.take());
        self.older.retain(Version::pinned);
    }

    fn live(&self) -> impl Iterator<Item = &Version> {
        self.current.iter().chain(&self.older)
    }
}

/// An incrementally maintained cache of one aggregate's constant-interval
/// series, and the versions of it readers hold.
#[derive(Clone, Debug)]
struct AggCache {
    agg: DynAggregate,
    column: Option<usize>,
    /// Working series: runs tile `[0, ∞]` in time order.
    runs: RunList,
    /// Interior boundary refcounts: how many live tuples contribute each
    /// run edge strictly after the origin.
    boundaries: BTreeMap<Timestamp, u32>,
    versions: Versions,
    /// Runs patched in place by writes (state insert/retract, fold or
    /// re-derivation).
    patched_runs: u64,
}

impl AggCache {
    /// Build the cache from scratch over `tuples` (a relation's, or one
    /// group's members): the sweep kernel's segments, each keeping a
    /// Delta-class run's state so later writes can patch it.
    fn build<T: Borrow<Tuple>>(agg: DynAggregate, column: Option<usize>, tuples: &[T]) -> AggCache {
        let mut boundaries: BTreeMap<Timestamp, u32> = BTreeMap::new();
        let sweep = sweep_of(agg, column, tuples, |iv| {
            for b in boundary_candidates(iv) {
                *boundaries.entry(b).or_insert(0) += 1;
            }
        });
        let states = matches!(Upkeep::of(&agg), Upkeep::Patch);
        let mut runs = RunList::with_capacity(boundaries.len() + 1, states);
        sweep.finish_states(|agg, interval, active| {
            let run = SeriesEntry::new(interval, agg.active_output(active));
            runs.push(run, RunState::of(active));
        });
        AggCache {
            agg,
            column,
            runs,
            boundaries,
            versions: Versions::default(),
            patched_runs: 0,
        }
    }

    /// Reference a boundary; its first contributor splits the run
    /// containing it, both halves inheriting the state and value (the
    /// members are unchanged until the new tuple is folded in).
    fn add_boundary(&mut self, b: Timestamp) {
        let count = self.boundaries.entry(b).or_insert(0);
        *count += 1;
        if *count == 1 {
            self.runs.split_at(b);
        }
    }

    /// Release a boundary; its last contributor leaving merges the runs
    /// it separated. With no tuple edge left at `b`, the members are
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

    /// Apply one statement's edits: add the boundaries of the tuples they
    /// give, bring every run they cover to its value over the members after
    /// the statement, then release the boundaries of the tuples they take.
    /// `members` is asked for tuples only when a run must be re-derived.
    fn apply(&mut self, edits: &[Edit<'_>], members: Members<'_, '_>) {
        self.versions.supersede();
        for edit in edits {
            if let Edit::Add(tuple) = edit {
                boundary_candidates(tuple.valid()).for_each(|b| self.add_boundary(b));
            }
        }
        let (agg, column, upkeep) = (self.agg, self.column, Upkeep::of(&self.agg));
        let mut rederived = Rederived {
            agg,
            column,
            members,
            series: None,
        };
        for edit in edits {
            let taken = edit.taken().map(|tuple| extract(tuple, column));
            let given = edit.given().map(|tuple| extract(tuple, column));
            self.patched_runs +=
                self.runs
                    .for_each_in_mut(edit.valid(), |run, state| match upkeep {
                        Upkeep::Patch => {
                            let Some(state) = state else {
                                return;
                            };
                            let mut active = state.active();
                            if let Some(value) = &taken {
                                agg.active_remove(&mut active, value);
                            }
                            if let Some(value) = &given {
                                agg.active_insert(&mut active, value);
                            }
                            if let Some(kept) = RunState::of(&active) {
                                *state = kept;
                            }
                            run.value = agg.active_output(&active);
                        }
                        Upkeep::Extreme { max } => {
                            if taken
                                .as_ref()
                                .is_some_and(|v| !v.is_null() && *v == run.value)
                            {
                                run.value = rederived.at(run.interval.start());
                            } else if let Some(value) = &given {
                                fold_extreme(&mut run.value, value, max);
                            }
                        }
                        Upkeep::Rederive => run.value = rederived.at(run.interval.start()),
                    });
        }
        for edit in edits {
            if let Edit::Take(tuple) = edit {
                boundary_candidates(tuple.valid()).for_each(|b| self.drop_boundary(b));
            }
        }
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
/// [`view`](Stored::view) reads, verifies and decodes the block, into one
/// chunk. A clone made before that decodes for itself.
#[derive(Clone, Debug)]
struct Stored {
    reader: Arc<PagedReader>,
    slot: usize,
    view: OnceCell<SeriesView<Value>>,
    /// The view copied into one series, once
    /// [`TemporalStore::snapshot`](crate::TemporalStore::snapshot) asks.
    series: OnceCell<Arc<Series<Value>>>,
}

impl Stored {
    fn view(&self) -> Result<&SeriesView<Value>> {
        if let Some(view) = self.view.get() {
            return Ok(view);
        }
        let decoded = SeriesView::from_chunks([Arc::new(self.reader.series(self.slot)?)]);
        Ok(self.view.get_or_init(|| decoded))
    }

    fn series(&self) -> Result<&Arc<Series<Value>>> {
        let view = self.view()?;
        Ok(self.series.get_or_init(|| Arc::new(view.to_series())))
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
                if let Ok(view) = stored.view() {
                    view.for_each_in(window, f);
                }
            }
        }
    }
}

/// One cached aggregate series and the window index over it — what the
/// store keeps per `(aggregate, column)` and a ranking keeps per group.
///
/// The index is cut by the first probe and never persisted. From then on
/// the entry keeps it in step: [`apply`](CachedSeries::apply) patches the
/// runs with a statement's edits and then refreshes the index over the
/// intervals they dirtied, so nobody outside can leave the two apart. A restored body
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
            view: OnceCell::new(),
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
    /// over `column` of the relation's tuples, so it costs a rebuild, never
    /// an answer. `tuples` is asked for them only then; its error — the
    /// relation's pages failing too — is the one this returns.
    pub(crate) fn load<'a>(
        &mut self,
        column: Option<usize>,
        tuples: impl FnOnce() -> Result<&'a [Tuple]>,
    ) -> Result<()> {
        if matches!(&self.body, Body::Restored(_, stored) if stored.view().is_err()) {
            self.promote(column, tuples()?);
        }
        Ok(())
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

    /// The series' runs, shared and not copied, without publishing a
    /// version: O(chunks).
    pub(crate) fn runs(&self) -> Result<SeriesView<Value>> {
        match &self.body {
            Body::Live(cache) => Ok(cache.runs.view()),
            Body::Restored(_, stored) => stored.view().cloned(),
        }
    }

    /// The series' runs, copied, without publishing a version.
    pub(crate) fn entries(&self) -> Result<Vec<SeriesEntry<Value>>> {
        Ok(self.runs()?.to_series().into_entries())
    }

    /// The series' current version, shared with every reader since the last
    /// write that patched it: published now, in O(chunks), if that write
    /// came after the last reader. A restored series is its own version:
    /// the relation has not changed since the flush that wrote it.
    pub(crate) fn view(&mut self) -> SeriesView<Value> {
        match &mut self.body {
            Body::Live(cache) => cache.versions.current(&cache.runs).view.clone(),
            // Decoded since `load`, as in `for_each_run_in`.
            Body::Restored(_, stored) => stored.view().cloned().unwrap_or_default(),
        }
    }

    /// The current version copied into one series, at most once per
    /// version: O(runs) the first time.
    pub(crate) fn snapshot(&mut self) -> Arc<Series<Value>> {
        match &mut self.body {
            Body::Live(cache) => cache.versions.current(&cache.runs).series(),
            Body::Restored(_, stored) => stored.series().cloned().unwrap_or_default(),
        }
    }

    /// Add a live body's maintenance counters to `stats`.
    pub(crate) fn tally(&self, stats: &mut StoreCacheStats) {
        if let Body::Live(cache) = &self.body {
            stats.caches += 1;
            stats.runs += cache.runs.len();
            stats.patched_runs += cache.patched_runs;
            stats.copied_chunks += cache.runs.copied_chunks();
            stats.live_versions += cache.versions.live().count();
            stats.pinned_versions += cache.versions.live().filter(|v| v.pinned()).count();
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

    /// Apply one statement's edits to the runs — `members` are the tuples
    /// a re-derived run reads — and refresh the index over every interval
    /// they wrote.
    pub(crate) fn apply(&mut self, edits: &[Edit<'_>], members: Members<'_, '_>) -> Result<()> {
        self.live_mut()?.apply(edits, members);
        self.refresh(edits);
        Ok(())
    }

    /// Bring the index back in step with the runs after a statement's
    /// `edits`: recompute the leaves each edit's interval overlaps and
    /// refold their root paths — O(runs-in-interval + log n) each. A merge
    /// at a released boundary joins runs of equal value, so no value
    /// changed outside those intervals. An index keeps the leaf cuts it was
    /// built with, so once the series holds twice the runs it was cut for (a
    /// group born from one tuple, a table created empty) it is rebuilt
    /// instead — amortized O(1) per write.
    fn refresh(&mut self, edits: &[Edit<'_>]) {
        #[cfg(feature = "validate")]
        self.validate_structure();
        let runs = self.runs_len();
        let Some(index) = &mut self.index else {
            return;
        };
        if runs >= 2 * index.leaf_count() {
            *index = WindowIndex::over(index.mode(), &self.body);
        } else {
            for edit in edits {
                index.refresh(edit.valid(), &self.body);
            }
        }
        #[cfg(feature = "validate")]
        for edit in edits {
            self.validate_index(edit.valid());
        }
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
    use tempagg_core::{Schema, TemporalRelation, ValueType};

    /// `n` tuples starting in `[0, lifespan)` with up to `width` instants
    /// each: NULL values, starts and ends on a grid of 3 so that tuples share
    /// endpoints, some tuples from the origin and some to `FOREVER`.
    fn mixed(n: u64, lifespan: u64, width: u64) -> Vec<Tuple> {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut below = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            i64::try_from(state % bound).unwrap()
        };
        (0..n)
            .map(|i| {
                let start = if i % 13 == 0 {
                    0
                } else {
                    below(lifespan) / 3 * 3
                };
                let valid = if i % 11 == 0 {
                    Interval::from_start(start)
                } else {
                    Interval::at(start, start + below(width) / 3 * 3 + 2)
                };
                let value = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Int(below(17) - 8)
                };
                Tuple::new(vec![value], valid)
            })
            .collect()
    }

    /// A freshly built cache equals the O(n²) oracle run for run over two
    /// relation shapes: a dense one (400 tuples inside 500 instants, so the
    /// event span is below twice the event count and most instants hold
    /// several events) and a sparse one (4,500 tuples over 10⁶ instants,
    /// more than 8 Ki events spread thin). Both have a thirteenth of their
    /// tuples starting at 0, an eleventh open-ended and a seventh `NULL`.
    /// A Delta-class run's state gives its value back, and each boundary is
    /// counted once per tuple contributing it.
    #[test]
    fn a_built_cache_equals_the_oracle_in_both_sweep_regimes() {
        let dense = mixed(400, 500, 100);
        let sparse = mixed(4_500, 1_000_000, 50_000);
        for (tuples, dense_regime) in [(&dense, true), (&sparse, false)] {
            let (mut lo, mut hi, mut events) = (i64::MAX, i64::MIN, 0i64);
            for iv in tuples.iter().map(Tuple::valid) {
                let retract = (!iv.end().is_forever()).then(|| iv.end().next());
                for t in [iv.start()].into_iter().chain(retract) {
                    (lo, hi, events) = (lo.min(t.get()), hi.max(t.get()), events + 1);
                }
            }
            assert_eq!(hi - lo < 2 * events, dense_regime, "span {lo}..{hi}");
            assert!(dense_regime || events > 8 * 1024, "{events} events");

            let mut want_boundaries: BTreeMap<Timestamp, u32> = BTreeMap::new();
            for b in tuples.iter().flat_map(|t| boundary_candidates(t.valid())) {
                *want_boundaries.entry(b).or_insert(0) += 1;
            }
            for (kind, column) in [
                (AggKind::CountStar, None),
                (AggKind::Sum, Some(0)),
                (AggKind::Avg, Some(0)),
                (AggKind::Min, Some(0)),
                (AggKind::Max, Some(0)),
                (AggKind::CountDistinct, Some(0)),
            ] {
                let agg = DynAggregate::new(kind, ValueType::Int).unwrap();
                let pairs: Vec<(Interval, Value)> = tuples
                    .iter()
                    .map(|t| (t.valid(), extract(t, column)))
                    .collect();
                let want = tempagg_algo::oracle::oracle(&agg, Interval::TIMELINE, &pairs);
                let mut cached = CachedSeries::build(agg, column, tuples);
                cached.validate_structure();
                assert_eq!(cached.entries().unwrap(), want.entries(), "{kind:?}");
                let Body::Live(cache) = &mut cached.body else {
                    panic!("a built series is live");
                };
                assert_eq!(cache.boundaries, want_boundaries, "{kind:?}");
                let mut states = 0;
                cache
                    .runs
                    .for_each_in_mut(Interval::TIMELINE, |run, state| {
                        if let Some(state) = state {
                            assert_eq!(agg.active_output(&state.active()), run.value, "{kind:?}");
                            states += 1;
                        }
                    });
                let delta = matches!(kind, AggKind::CountStar | AggKind::Sum | AggKind::Avg);
                assert_eq!(states, if delta { want.len() } else { 0 }, "{kind:?}");
            }
        }
    }

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
        let series = cached.view();
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
                assert_eq!(got, collect(&series, window), "{window}");
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
            let edits = [Edit::Add(&tuple)];
            let written = Written::new(relation.tuples(), &edits);
            cached.apply(&edits, Members::all(&written)).unwrap();
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
