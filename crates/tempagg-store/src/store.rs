//! The mutable temporal store: an updatable interval relation plus the
//! versioned aggregate caches maintained under every write.

#[cfg(feature = "validate")]
use crate::cache::validate_index;
use crate::cache::{extract, refresh_index, AggCache};
use crate::grouped::GroupedIndexes;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tempagg_agg::{AggKind, DynAggregate, SweepAggregate, SweepClass};
use tempagg_algo::{IndexMode, WindowAggregate, WindowIndex};
use tempagg_core::pager::{
    self, PagedReader, PagedWriteOptions, PagedWriteStats, PersistedSeries, DEFAULT_PAGE_BYTES,
};
use tempagg_core::{
    Epoch, Interval, Result, Schema, Series, TempAggError, TemporalRelation, Timestamp, Tuple,
    Value, ValueType,
};

/// Identifies one cached aggregate series: the aggregate kind plus the
/// input column index (`None` for `COUNT(*)`-style aggregates without an
/// input column).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CacheKey {
    pub kind: AggKind,
    pub column: Option<usize>,
}

/// Aggregated maintenance counters across a store's caches.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCacheStats {
    /// Number of cached aggregate series.
    pub caches: usize,
    /// Total constant-interval runs across all working series.
    pub runs: usize,
    /// Runs patched in place by incremental maintenance.
    pub patched_runs: u64,
    /// Dirty-window sweep recomputes (Approximate-class fallback).
    pub recomputed_windows: u64,
    /// Published snapshot versions currently retained.
    pub live_versions: usize,
    /// Retained versions still pinned by a reader.
    pub pinned_versions: usize,
}

/// Usage counters for the store's window indexes: how often window probes
/// found a warm index (`hits`) versus building one on demand (`misses`),
/// and the total logarithmic probes served. Cumulative over the store's
/// lifetime — per-query callers report the delta across their query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowIndexStats {
    /// Window probes served by an already-built index.
    pub hits: u64,
    /// Window probes that had to build (or restore-miss) the index first.
    pub misses: u64,
    /// Total index probes answered (including the per-group probes and
    /// bound evaluations of `TOP k` ranking queries).
    pub probes: u64,
}

/// The index mode a cached aggregate supports, or `None` when it cannot
/// be indexed at all: float combines (`SUM`/`AVG` over floats, variance
/// family) are inexact under reassociation, and the tree folds values in
/// segment order rather than sweep order — indexing them would break the
/// byte-identity contract with a linear scan of the cached series.
pub fn index_mode_for(agg: &DynAggregate) -> Option<IndexMode> {
    match agg.kind() {
        AggKind::CountStar | AggKind::Count | AggKind::CountDistinct => Some(IndexMode::Integral),
        AggKind::Sum if agg.sweep_class() != SweepClass::Approximate => Some(IndexMode::Integral),
        AggKind::Min | AggKind::Max => Some(IndexMode::Extremes),
        _ => None,
    }
}

/// An updatable interval relation with incrementally maintained aggregate
/// caches and MVCC snapshot reads.
///
/// The store is the single writer of its relation: every mutation goes
/// through [`insert`](TemporalStore::insert) /
/// [`delete_where`](TemporalStore::delete_where) /
/// [`update_where`](TemporalStore::update_where), which patch each cached
/// series in the same commit and bump the write [`Epoch`]. Readers call
/// [`snapshot`](TemporalStore::snapshot) and receive an immutable
/// `Arc<Series<Value>>` pinned against concurrent writes — later writes
/// publish new versions but never touch a pinned one.
///
/// Caches are created on demand (interior mutability), so read paths can
/// warm the store through a shared reference.
#[derive(Clone, Debug)]
pub struct TemporalStore {
    relation: TemporalRelation,
    epoch: Epoch,
    caches: RefCell<BTreeMap<CacheKey, AggCache>>,
    /// Aggregate series restored from a paged file's footer, served
    /// read-only until the first mutation promotes them to live caches.
    restored: RefCell<BTreeMap<CacheKey, Arc<Series<Value>>>>,
    /// The paged file this store persists to, if any.
    backing: Option<PathBuf>,
    /// Page size used by [`flush`](TemporalStore::flush).
    page_size: u32,
    /// Any mutation since the last open/flush.
    dirty: bool,
    /// Warm segment-tree window indexes, one per indexable cached
    /// aggregate: built lazily on the first window probe and patched
    /// along root-to-leaf paths under every write. Never persisted — a
    /// reopened store rebuilds them from its restored series.
    windex: RefCell<BTreeMap<CacheKey, WindowIndex>>,
    /// Per-group caches and window indexes for `TOP k BY` ranking
    /// probes, keyed by the ranked aggregate plus the grouping column.
    /// Built on the first ranking of a shape; every write then patches
    /// the groups its tuples belong to.
    grouped: RefCell<BTreeMap<(CacheKey, usize), GroupedIndexes>>,
    /// Cumulative window-index usage counters.
    windex_stats: RefCell<WindowIndexStats>,
}

impl TemporalStore {
    /// Wrap an existing relation. The store becomes the relation's single
    /// writer; mutate only through the store from here on.
    pub fn new(relation: TemporalRelation) -> TemporalStore {
        TemporalStore {
            relation,
            epoch: Epoch::ZERO,
            caches: RefCell::new(BTreeMap::new()),
            restored: RefCell::new(BTreeMap::new()),
            backing: None,
            page_size: DEFAULT_PAGE_BYTES,
            dirty: true,
            windex: RefCell::new(BTreeMap::new()),
            grouped: RefCell::new(BTreeMap::new()),
            windex_stats: RefCell::new(WindowIndexStats::default()),
        }
    }

    /// An empty store over `schema`.
    pub fn with_schema(schema: Arc<Schema>) -> TemporalStore {
        TemporalStore::new(TemporalRelation::new(schema))
    }

    /// Open a store from a paged relation file written by
    /// [`flush`](TemporalStore::flush).
    ///
    /// The relation is materialised from the file's pages; aggregate
    /// series persisted in the footer are restored and served read-only
    /// from [`snapshot`](TemporalStore::snapshot) /
    /// [`snapshot_or_build`](TemporalStore::snapshot_or_build) — the first
    /// mutation promotes them to live, incrementally-maintained caches
    /// rebuilt over the relation.
    pub fn open(path: &Path) -> Result<TemporalStore> {
        let mut reader = PagedReader::open(path)?;
        let relation = reader.read_relation()?;
        let page_size = reader.page_size();
        let persisted = reader.take_caches();
        let schema = relation.schema().clone();
        let mut restored = BTreeMap::new();
        for series in persisted {
            if series.label.starts_with(LEGACY_WINDEX_LABEL_PREFIX) {
                continue;
            }
            let key = key_for_persisted(&schema, &series)?;
            restored.insert(key, Arc::new(Series::from_entries(series.entries)));
        }
        Ok(TemporalStore {
            relation,
            epoch: Epoch::ZERO,
            caches: RefCell::new(BTreeMap::new()),
            restored: RefCell::new(restored),
            backing: Some(path.to_path_buf()),
            page_size,
            dirty: false,
            windex: RefCell::new(BTreeMap::new()),
            grouped: RefCell::new(BTreeMap::new()),
            windex_stats: RefCell::new(WindowIndexStats::default()),
        })
    }

    /// The paged file this store persists to, if any.
    pub fn backing(&self) -> Option<&Path> {
        self.backing.as_deref()
    }

    /// Whether any mutation happened since the last open/flush.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Attach `path` as the backing file and flush immediately.
    pub fn persist_to(&mut self, path: impl Into<PathBuf>) -> Result<PagedWriteStats> {
        self.backing = Some(path.into());
        self.dirty = true;
        self.flush()
            // lint: allow(no-unwrap): dirty was just set, so flush always writes
            .map(|stats| stats.expect("forced flush writes"))
    }

    /// Write the relation and every cached aggregate series to the
    /// backing file (atomic temp-file + rename). A clean store is a no-op
    /// returning `Ok(None)`. Errors if no backing file is attached.
    ///
    /// The write is a full rewrite of the file — the dirty flag decides
    /// *whether* to write, not which bytes (honest trade-off: the format
    /// packs pages greedily, so one mid-file mutation can shift every
    /// later page anyway).
    pub fn flush(&mut self) -> Result<Option<PagedWriteStats>> {
        let Some(path) = self.backing.clone() else {
            return Err(TempAggError::storage(
                "store has no backing file; use persist_to or open",
            ));
        };
        if !self.dirty {
            return Ok(None);
        }
        let caches = self.collect_persisted();
        let stats = pager::write_relation(
            &self.relation,
            &path,
            &PagedWriteOptions {
                page_size: self.page_size,
                caches,
            },
        )?;
        self.dirty = false;
        Ok(Some(stats))
    }

    /// Snapshot every cache (live and restored) into the value-erased
    /// form the paged footer stores. Window indexes are derived from
    /// these series in O(runs) and are never written.
    fn collect_persisted(&mut self) -> Vec<PersistedSeries> {
        let epoch = self.epoch;
        let mut out: Vec<PersistedSeries> = Vec::new();
        let caches = self.caches.get_mut();
        for (key, cache) in caches.iter_mut() {
            let snap = cache.snapshot(epoch);
            out.push(PersistedSeries {
                label: key.kind.name().to_string(),
                column: key.column.and_then(|c| u32::try_from(c).ok()),
                entries: snap.entries().to_vec(),
            });
        }
        for (key, series) in self.restored.get_mut().iter() {
            if caches.contains_key(key) {
                continue;
            }
            out.push(PersistedSeries {
                label: key.kind.name().to_string(),
                column: key.column.and_then(|c| u32::try_from(c).ok()),
                entries: series.entries().to_vec(),
            });
        }
        out
    }

    /// Promote footer-restored series to live caches before a mutation:
    /// the live cache is rebuilt from the (pre-mutation) relation, so the
    /// mutation's patch applies to real, retractable state.
    fn promote_restored(&mut self) {
        let restored = std::mem::take(self.restored.get_mut());
        if restored.is_empty() {
            return;
        }
        let schema = self.relation.schema().clone();
        let caches = self.caches.get_mut();
        for key in restored.into_keys() {
            if caches.contains_key(&key) {
                continue;
            }
            let Ok(agg) = dyn_for(&schema, key) else {
                continue;
            };
            caches.insert(
                key,
                AggCache::build(agg, key.column, self.relation.tuples()),
            );
        }
    }

    /// Read access to the stored relation.
    pub fn relation(&self) -> &TemporalRelation {
        &self.relation
    }

    /// The stored relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.relation.schema()
    }

    /// The current write epoch (bumped once per committed mutation).
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    pub fn len(&self) -> usize {
        self.relation.len()
    }

    pub fn is_empty(&self) -> bool {
        self.relation.is_empty()
    }

    /// Consume the store, returning the relation.
    pub fn into_relation(self) -> TemporalRelation {
        self.relation
    }

    /// Insert one tuple, patching every cache.
    pub fn insert(&mut self, values: Vec<Value>, valid: Interval) -> Result<()> {
        self.insert_tuple(Tuple::new(values, valid))
    }

    /// Insert an already-built tuple, patching every cache. A tuple that
    /// fails the schema check changes nothing — restored series stay
    /// restored and the store stays clean.
    pub fn insert_tuple(&mut self, tuple: Tuple) -> Result<()> {
        self.relation.schema().check(tuple.values())?;
        self.promote_restored();
        self.relation.push_tuple(tuple.clone())?;
        self.dirty = true;
        self.commit_insert(&tuple)
    }

    fn commit_insert(&mut self, tuple: &Tuple) -> Result<()> {
        let caches = self.caches.get_mut();
        for cache in caches.values_mut() {
            let value = extract(tuple, cache.column());
            cache.apply_insert(tuple.valid(), &value, &self.relation)?;
        }
        self.refresh_indexes(&[tuple.valid()]);
        for grouped in self.grouped.get_mut().values_mut() {
            grouped.insert(tuple, &self.relation)?;
        }
        self.bump();
        #[cfg(feature = "validate")]
        self.validate_groups(std::iter::once(tuple));
        Ok(())
    }

    /// Delete every tuple satisfying `pred`, retracting each from every
    /// cache. Returns the number of tuples deleted. `pred` sees each tuple
    /// once; a statement that matches nothing changes nothing — restored
    /// series stay restored and the store stays clean.
    pub fn delete_where(&mut self, pred: impl FnMut(&Tuple) -> bool) -> Result<usize> {
        let flags: Vec<bool> = self.relation.iter().map(pred).collect();
        if !flags.contains(&true) {
            return Ok(0);
        }
        self.promote_restored();
        self.dirty = true;
        let removed = self.relation.remove_flagged(&flags);
        let caches = self.caches.get_mut();
        for cache in caches.values_mut() {
            for tuple in &removed {
                let value = extract(tuple, cache.column());
                cache.apply_delete(tuple.valid(), &value, &self.relation)?;
            }
        }
        let dirty: Vec<Interval> = removed.iter().map(Tuple::valid).collect();
        self.refresh_indexes(&dirty);
        for grouped in self.grouped.get_mut().values_mut() {
            for tuple in &removed {
                grouped.remove(tuple, &self.relation)?;
            }
        }
        self.bump();
        #[cfg(feature = "validate")]
        self.validate_groups(removed.iter());
        Ok(removed.len())
    }

    /// Update every tuple satisfying `pred`: each `(column, value)`
    /// assignment overwrites that attribute, valid time is unchanged.
    /// Caches reading an assigned column retract the old value and fold
    /// the new one in one pass over the tuple's runs; all other caches
    /// (including `COUNT(*)`) are untouched. The whole statement is
    /// validated before any tuple is written, so a failed UPDATE mutates
    /// nothing.
    pub fn update_where(
        &mut self,
        mut pred: impl FnMut(&Tuple) -> bool,
        assignments: &[(usize, Value)],
    ) -> Result<usize> {
        let mut replacements: Vec<(usize, Tuple, Tuple)> = Vec::new();
        for (index, old) in self.relation.iter().enumerate() {
            if !pred(old) {
                continue;
            }
            let mut values = old.values().to_vec();
            for (column, value) in assignments {
                let Some(slot) = values.get_mut(*column) else {
                    continue;
                };
                *slot = value.clone();
            }
            self.relation.schema().check(&values)?;
            let replacement = Tuple::new(values, old.valid());
            replacements.push((index, old.clone(), replacement));
        }
        if replacements.is_empty() {
            return Ok(0);
        }
        self.promote_restored();
        self.dirty = true;
        for (index, _, replacement) in &replacements {
            let _previous = self.relation.replace(*index, replacement.clone())?;
        }
        let caches = self.caches.get_mut();
        for cache in caches.values_mut() {
            let Some(column) = cache.column() else {
                continue;
            };
            if !assignments.iter().any(|(assigned, _)| *assigned == column) {
                continue;
            }
            for (_, old, new) in &replacements {
                cache.apply_update(
                    new.valid(),
                    old.value(column),
                    new.value(column),
                    &self.relation,
                )?;
            }
        }
        let dirty: Vec<Interval> = replacements.iter().map(|(_, _, new)| new.valid()).collect();
        self.refresh_indexes(&dirty);
        for grouped in self.grouped.get_mut().values_mut() {
            for (_, old, new) in &replacements {
                grouped.update(old, new, &self.relation)?;
            }
        }
        self.bump();
        #[cfg(feature = "validate")]
        self.validate_groups(replacements.iter().flat_map(|(_, old, new)| [old, new]));
        Ok(replacements.len())
    }

    fn bump(&mut self) {
        self.epoch = self.epoch.next();
        #[cfg(feature = "validate")]
        self.validate_structure();
    }

    /// Every cache's chunked runs tile the timeline on exactly the
    /// refcounted boundaries.
    #[cfg(any(test, feature = "validate"))]
    pub(crate) fn validate_structure(&self) {
        for cache in self.caches.borrow().values() {
            cache.validate_structure();
        }
    }

    /// Patch every warm window index for the changed intervals: each
    /// dirty interval recomputes the leaves it overlaps from the
    /// already-patched cache runs, then refolds only the root-to-leaf
    /// ancestor paths — O(runs-in-dirty + log n) per index, and a rebuild
    /// only once the series has doubled since the index was cut (see
    /// [`refresh_index`]). The grouped `TOP k` indexes get the same
    /// treatment per touched group, from the write paths themselves.
    fn refresh_indexes(&mut self, dirty: &[Interval]) {
        let caches = self.caches.get_mut();
        let windex = self.windex.get_mut();
        windex.retain(|key, _| caches.contains_key(key));
        for (key, index) in windex.iter_mut() {
            let Some(cache) = caches.get(key) else {
                continue;
            };
            refresh_index(index, cache, dirty);
            #[cfg(feature = "validate")]
            validate_index(index, cache, &cache.series(), dirty);
        }
    }

    /// `--features validate`: the groups the statement's tuples belong to
    /// (or left) match a rebuild from their members, in every ranking
    /// shape.
    #[cfg(feature = "validate")]
    fn validate_groups<'a>(&self, touched: impl Iterator<Item = &'a Tuple> + Clone) {
        for grouped in self.grouped.borrow().values() {
            grouped.validate(&self.relation, touched.clone());
        }
    }

    /// Whether a window probe for `(kind, column)` can be served by a
    /// segment-tree index (the aggregate combines exactly) — the
    /// planner's eligibility input for its `IndexProbe` algorithm choice.
    pub fn window_indexable(&self, kind: AggKind, column: Option<usize>) -> bool {
        dyn_for(self.relation.schema(), CacheKey { kind, column })
            .ok()
            .and_then(|agg| index_mode_for(&agg))
            .is_some()
    }

    /// Whether a warm window index currently exists for `(kind, column)`.
    pub fn has_window_index(&self, kind: AggKind, column: Option<usize>) -> bool {
        self.windex
            .borrow()
            .contains_key(&CacheKey { kind, column })
    }

    /// Cumulative window-index usage counters (per-query callers report
    /// the delta across their query).
    pub fn windex_stats(&self) -> WindowIndexStats {
        *self.windex_stats.borrow()
    }

    /// Resolve `(kind, column)` to its cache key, aggregate, and index
    /// mode, rejecting non-indexable aggregates.
    fn indexable(
        &self,
        kind: AggKind,
        column: Option<usize>,
    ) -> Result<(CacheKey, DynAggregate, IndexMode)> {
        let key = CacheKey { kind, column };
        let agg = dyn_for(self.relation.schema(), key)?;
        let mode = index_mode_for(&agg).ok_or_else(|| TempAggError::TypeError {
            detail: format!(
                "{} is not window-indexable: its combine is inexact under \
                 reassociation, so the index would break byte-identity with \
                 a linear scan",
                kind.name()
            ),
        })?;
        Ok((key, agg, mode))
    }

    /// Build the window index for `key` if absent (warming the aggregate
    /// cache first if needed). Returns whether the index was already
    /// warm.
    fn ensure_windex(&self, key: CacheKey, agg: DynAggregate, mode: IndexMode) -> bool {
        if self.windex.borrow().contains_key(&key) {
            return true;
        }
        let index = match self.restored.borrow().get(&key) {
            Some(series) => WindowIndex::build(mode, series),
            None => {
                let mut caches = self.caches.borrow_mut();
                let cache = caches
                    .entry(key)
                    .or_insert_with(|| AggCache::build(agg, key.column, self.relation.tuples()));
                WindowIndex::over(mode, cache)
            }
        };
        self.windex.borrow_mut().insert(key, index);
        false
    }

    /// Answer `kind(column)` over `window` through the window index in
    /// O(log n) node folds, building the index from the cached series on
    /// first use (a *miss*; later probes are *hits* and never touch the
    /// series linearly).
    ///
    /// The result carries the duration-weighted combine for Delta-class
    /// aggregates (time integral `Σ value·duration` plus covered
    /// duration) and the extreme values for `MIN`/`MAX` — byte-identical
    /// to a linear [`tempagg_algo::scan_window`] over the same cached
    /// runs, which `--features validate` asserts on every probe.
    pub fn window_probe(
        &self,
        kind: AggKind,
        column: Option<usize>,
        window: Interval,
    ) -> Result<WindowAggregate> {
        let (key, agg, mode) = self.indexable(kind, column)?;
        let hit = self.ensure_windex(key, agg, mode);
        {
            let mut stats = self.windex_stats.borrow_mut();
            if hit {
                stats.hits += 1;
            } else {
                stats.misses += 1;
            }
            stats.probes += 1;
        }
        let windex = self.windex.borrow();
        // lint: allow(no-unwrap): ensure_windex built the index above
        let index = windex.get(&key).expect("ensure_windex built the index");
        let caches = self.caches.borrow();
        if let Some(cache) = caches.get(&key) {
            let out = index.probe(window, cache);
            #[cfg(feature = "validate")]
            assert_eq!(
                out,
                tempagg_algo::scan_window(cache, window),
                "window index probe diverged from the linear scan oracle"
            );
            Ok(out)
        } else {
            let restored = self.restored.borrow();
            let series = restored
                .get(&key)
                // lint: allow(no-unwrap): an index exists only over a live cache or restored series
                .expect("a window index implies a cache or restored series");
            let out = index.probe(window, &**series);
            #[cfg(feature = "validate")]
            assert_eq!(
                out,
                tempagg_algo::scan_window(&**series, window),
                "window index probe diverged from the linear scan oracle"
            );
            Ok(out)
        }
    }

    /// The earliest instant in `window` where the cached series attains
    /// its extreme (maximum when `want_max`, else minimum) — answered by
    /// max-augmented branch-and-bound descent, `None` when the window
    /// holds only NULLs.
    pub fn window_extreme_instant(
        &self,
        kind: AggKind,
        column: Option<usize>,
        window: Interval,
        want_max: bool,
    ) -> Result<Option<(Timestamp, Value)>> {
        let (key, agg, mode) = self.indexable(kind, column)?;
        let hit = self.ensure_windex(key, agg, mode);
        {
            let mut stats = self.windex_stats.borrow_mut();
            if hit {
                stats.hits += 1;
            } else {
                stats.misses += 1;
            }
            stats.probes += 1;
        }
        let windex = self.windex.borrow();
        // lint: allow(no-unwrap): ensure_windex built the index above
        let index = windex.get(&key).expect("ensure_windex built the index");
        let caches = self.caches.borrow();
        if let Some(cache) = caches.get(&key) {
            Ok(index.extreme_instant(window, want_max, cache))
        } else {
            let restored = self.restored.borrow();
            let series = restored
                .get(&key)
                // lint: allow(no-unwrap): an index exists only over a live cache or restored series
                .expect("a window index implies a cache or restored series");
            Ok(index.extreme_instant(window, want_max, &**series))
        }
    }

    /// Rank the distinct values of `group_column` by `kind(column)` over
    /// `window` and return the top `k` with their window aggregates,
    /// plus the number of index probes spent.
    ///
    /// One window index per group, probed against a shared bound heap:
    /// each group first contributes a cheap O(1) upper bound from its
    /// index root, and only groups whose bound can still reach the
    /// current top-k are resolved exactly — most groups are pruned
    /// without a full descent. The groups are built on the first ranking
    /// of a shape (a *miss*) and patched under writes from then on, so a
    /// ranking after a write is a *hit* like any other.
    pub fn top_k_by_window(
        &self,
        kind: AggKind,
        column: Option<usize>,
        group_column: usize,
        window: Interval,
        k: usize,
    ) -> Result<(Vec<(Value, WindowAggregate)>, u64)> {
        let (key, agg, mode) = self.indexable(kind, column)?;
        if group_column >= self.relation.schema().len() {
            return Err(TempAggError::storage(format!(
                "ranking group column {group_column} is out of range for a \
                 schema with {} columns",
                self.relation.schema().len()
            )));
        }
        let gkey = (key, group_column);
        let mut grouped = self.grouped.borrow_mut();
        let hit = grouped.contains_key(&gkey);
        let entry = grouped.entry(gkey).or_insert_with(|| {
            GroupedIndexes::build(agg, column, group_column, mode, &self.relation)
        });
        let (ranked, probes) = entry.top_k(window, k);
        let mut stats = self.windex_stats.borrow_mut();
        if hit {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
        stats.probes += probes;
        Ok((ranked, probes))
    }

    /// Build (if absent) the cache for `agg` over `column`. A series
    /// restored from a paged file counts as present — it is served
    /// read-only until the first mutation promotes it.
    pub fn ensure_cache(&self, agg: DynAggregate, column: Option<usize>) {
        let key = CacheKey {
            kind: agg.kind(),
            column,
        };
        if self.restored.borrow().contains_key(&key) {
            return;
        }
        let mut caches = self.caches.borrow_mut();
        caches
            .entry(key)
            .or_insert_with(|| AggCache::build(agg, column, self.relation.tuples()));
    }

    /// Whether a cache (live or restored from a paged file) exists for
    /// `(kind, column)`.
    pub fn has_cache(&self, kind: AggKind, column: Option<usize>) -> bool {
        let key = CacheKey { kind, column };
        self.caches.borrow().contains_key(&key) || self.restored.borrow().contains_key(&key)
    }

    /// How many constant-interval runs the cached series for
    /// `(kind, column)` has — a live cache's working runs, or a restored
    /// series' entries — or `None` if that aggregate has no cache yet.
    /// What a planner needs of a series it will not read: unlike
    /// [`snapshot`](TemporalStore::snapshot) this publishes no version, so
    /// it costs the same before and after a write.
    pub fn cached_runs(&self, kind: AggKind, column: Option<usize>) -> Option<usize> {
        let key = CacheKey { kind, column };
        if let Some(cache) = self.caches.borrow().get(&key) {
            return Some(cache.runs_len());
        }
        self.restored.borrow().get(&key).map(|series| series.len())
    }

    /// Snapshot the cached series for `(kind, column)` at the current
    /// epoch, or `None` if that aggregate has no cache yet. The returned
    /// `Arc` pins the version: concurrent writes publish new versions but
    /// never mutate or free this one. Series restored from a paged file
    /// are served as-is (they were snapshotted at flush time and the
    /// relation has not changed since — any mutation promotes them to
    /// live caches first).
    pub fn snapshot(&self, kind: AggKind, column: Option<usize>) -> Option<Arc<Series<Value>>> {
        let key = CacheKey { kind, column };
        {
            let mut caches = self.caches.borrow_mut();
            if let Some(cache) = caches.get_mut(&key) {
                return Some(cache.snapshot(self.epoch));
            }
        }
        self.restored.borrow().get(&key).cloned()
    }

    /// [`ensure_cache`](TemporalStore::ensure_cache) then
    /// [`snapshot`](TemporalStore::snapshot), in one borrow.
    pub fn snapshot_or_build(
        &self,
        agg: DynAggregate,
        column: Option<usize>,
    ) -> Arc<Series<Value>> {
        let key = CacheKey {
            kind: agg.kind(),
            column,
        };
        if let Some(series) = self.restored.borrow().get(&key) {
            return series.clone();
        }
        let mut caches = self.caches.borrow_mut();
        let cache = caches
            .entry(key)
            .or_insert_with(|| AggCache::build(agg, column, self.relation.tuples()));
        cache.snapshot(self.epoch)
    }

    /// Aggregated maintenance counters across all caches.
    pub fn cache_stats(&self) -> StoreCacheStats {
        let caches = self.caches.borrow();
        let mut stats = StoreCacheStats {
            caches: caches.len(),
            ..StoreCacheStats::default()
        };
        for cache in caches.values() {
            stats.runs += cache.runs_len();
            stats.patched_runs += cache.patched_runs();
            stats.recomputed_windows += cache.recomputed_windows();
            stats.live_versions += cache.live_versions();
            stats.pinned_versions += cache.pinned_versions();
        }
        stats
    }
}

/// Every aggregate kind, for label round-tripping.
const ALL_KINDS: [AggKind; 9] = [
    AggKind::CountStar,
    AggKind::Count,
    AggKind::CountDistinct,
    AggKind::Sum,
    AggKind::Min,
    AggKind::Max,
    AggKind::Avg,
    AggKind::Variance,
    AggKind::StdDev,
];

/// Map a persisted footer label (written as [`AggKind::name`]) back to its
/// kind. `AggKind::parse` is *not* the inverse of `name` (it speaks SQL
/// keywords, not display labels like `COUNT(*)`), hence this table lookup.
fn kind_for_label(label: &str) -> Option<AggKind> {
    ALL_KINDS.into_iter().find(|kind| kind.name() == label)
}

/// Rebuild a live aggregate for `key`, deriving the input type from the
/// schema column (columnless aggregates like `COUNT(*)` never read their
/// input, so any type works; `Int` by convention).
fn dyn_for(schema: &Schema, key: CacheKey) -> Result<DynAggregate> {
    let input = match key.column {
        Some(index) => schema
            .columns()
            .get(index)
            .map(|column| column.ty)
            .ok_or_else(|| {
                TempAggError::storage(format!(
                    "persisted cache references column {index}, but the schema has {} columns",
                    schema.len()
                ))
            })?,
        None => ValueType::Int,
    };
    DynAggregate::new(key.kind, input)
}

/// Label prefix of the window-index footer blocks earlier builds wrote.
/// [`TemporalStore::open`] skips them (before [`key_for_persisted`], which
/// rightly rejects unknown labels) so those files still open; the next
/// flush drops the blocks.
const LEGACY_WINDEX_LABEL_PREFIX: &str = "windex:";

/// Decode a footer cache entry into the key it was stored under,
/// validating the label and column against the file's own schema.
fn key_for_persisted(schema: &Schema, series: &PersistedSeries) -> Result<CacheKey> {
    let kind = kind_for_label(&series.label).ok_or_else(|| {
        TempAggError::storage(format!(
            "unknown persisted aggregate label {:?}",
            series.label
        ))
    })?;
    let column = match series.column {
        Some(raw) => {
            let index = raw as usize;
            if index >= schema.len() {
                return Err(TempAggError::storage(format!(
                    "persisted cache {:?} references column {index}, but the schema has {} columns",
                    series.label,
                    schema.len()
                )));
            }
            Some(index)
        }
        None => None,
    };
    Ok(CacheKey { kind, column })
}
