//! The mutable temporal store: an updatable interval relation plus the
//! versioned aggregate caches maintained under every write.

use crate::cache::CachedSeries;
use crate::grouped::GroupedIndexes;
use std::cell::{RefCell, RefMut};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tempagg_agg::{AggKind, DynAggregate, SweepAggregate, SweepClass};
use tempagg_algo::{IndexMode, WindowAggregate};
use tempagg_core::pager::{
    self, PagedReader, PagedWriteOptions, PagedWriteStats, PersistedSeries, SeriesRecord,
    DEFAULT_PAGE_BYTES,
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
    /// One entry per cached aggregate: its series — a live cache, or what
    /// the paged file holds for it, decoded at its first read and served
    /// until the first mutation promotes it — and the window index the first
    /// probe cut over it, which the entry keeps in step under every write.
    series: RefCell<BTreeMap<CacheKey, CachedSeries>>,
    /// The paged file this store persists to, if any.
    backing: Option<PathBuf>,
    /// Page size used by [`flush`](TemporalStore::flush).
    page_size: u32,
    /// Any mutation since the last open/flush.
    dirty: bool,
    /// The same entries per group for `TOP k BY` ranking probes, keyed by
    /// the ranked aggregate plus the grouping column. Built on the first
    /// ranking of a shape; every write then patches the groups its tuples
    /// belong to.
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
            series: RefCell::new(BTreeMap::new()),
            backing: None,
            page_size: DEFAULT_PAGE_BYTES,
            dirty: true,
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
    /// The relation is materialised from the file's pages; of the aggregate
    /// series it persists only the directory is read. Each is decoded when
    /// [`snapshot`](TemporalStore::snapshot) /
    /// [`snapshot_or_build`](TemporalStore::snapshot_or_build) or a probe
    /// first asks for it and served read-only from then on; the first
    /// mutation promotes them all, decoded or not, to live caches rebuilt
    /// over the relation, and so does a block that turns out corrupt.
    pub fn open(path: &Path) -> Result<TemporalStore> {
        let reader = Arc::new(PagedReader::open(path)?);
        let relation = reader.read_relation()?;
        let page_size = reader.page_size();
        let mut restored = BTreeMap::new();
        for (slot, record) in reader.series_directory().iter().enumerate() {
            let key = key_for_persisted(record)?;
            let agg = dyn_for(relation.schema(), key)?;
            restored.insert(key, CachedSeries::restored(agg, reader.clone(), slot));
        }
        Ok(TemporalStore {
            series: RefCell::new(restored),
            backing: Some(path.to_path_buf()),
            page_size,
            dirty: false,
            ..TemporalStore::new(relation)
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
        // Window indexes are derived from these series in O(runs) and are
        // never written; the entries are read off the runs, so a flush
        // publishes no version.
        let mut caches = Vec::new();
        for (key, entry) in self.series.get_mut().iter_mut() {
            entry.load(key.column, self.relation.tuples());
            caches.push(PersistedSeries {
                label: key.kind.name().to_string(),
                column: key.column.and_then(|c| u32::try_from(c).ok()),
                entries: entry.entries()?,
            });
        }
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

    /// Promote file-restored series to live caches before a mutation:
    /// the live cache is rebuilt from the (pre-mutation) relation, so the
    /// mutation's patch applies to real, retractable state.
    fn promote_restored(&mut self) {
        for (key, entry) in self.series.get_mut().iter_mut() {
            entry.promote(key.column, self.relation.tuples());
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
        for entry in self.series.get_mut().values_mut() {
            entry.insert(&tuple, &self.relation)?;
        }
        for grouped in self.grouped.get_mut().values_mut() {
            grouped.insert(&tuple, &self.relation)?;
        }
        self.epoch = self.epoch.next();
        #[cfg(feature = "validate")]
        self.validate_groups(std::iter::once(&tuple));
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
        for entry in self.series.get_mut().values_mut() {
            for tuple in &removed {
                entry.delete(tuple, &self.relation)?;
            }
        }
        for grouped in self.grouped.get_mut().values_mut() {
            for tuple in &removed {
                grouped.remove(tuple, &self.relation)?;
            }
        }
        self.epoch = self.epoch.next();
        #[cfg(feature = "validate")]
        self.validate_groups(removed.iter());
        Ok(removed.len())
    }

    /// Update every tuple satisfying `pred`: each `(column, value)`
    /// assignment overwrites that attribute, valid time is unchanged.
    /// Caches reading an assigned column retract the old value and fold
    /// the new one in one pass over the tuple's runs; all other caches
    /// (including `COUNT(*)`) are not visited. The whole statement is
    /// validated before any tuple is written — an assignment to a column
    /// the schema does not have included — so a failed UPDATE mutates
    /// nothing.
    pub fn update_where(
        &mut self,
        mut pred: impl FnMut(&Tuple) -> bool,
        assignments: &[(usize, Value)],
    ) -> Result<usize> {
        let width = self.relation.schema().len();
        if let Some((column, _)) = assignments.iter().find(|(column, _)| *column >= width) {
            return Err(TempAggError::SchemaMismatch {
                detail: format!(
                    "UPDATE assigns column {column}, but the schema has {width} columns"
                ),
            });
        }
        let mut replacements: Vec<(usize, Tuple, Tuple)> = Vec::new();
        for (index, old) in self.relation.iter().enumerate() {
            if !pred(old) {
                continue;
            }
            let mut values = old.values().to_vec();
            for (column, value) in assignments {
                if let Some(slot) = values.get_mut(*column) {
                    *slot = value.clone();
                }
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
        for (key, entry) in self.series.get_mut().iter_mut() {
            if !assignments.iter().any(|(c, _)| Some(*c) == key.column) {
                continue;
            }
            for (_, old, new) in &replacements {
                entry.update(old, new, &self.relation)?;
            }
        }
        for grouped in self.grouped.get_mut().values_mut() {
            for (_, old, new) in &replacements {
                grouped.update(old, new, &self.relation)?;
            }
        }
        self.epoch = self.epoch.next();
        #[cfg(feature = "validate")]
        self.validate_groups(replacements.iter().flat_map(|(_, old, new)| [old, new]));
        Ok(replacements.len())
    }

    /// Every live cache's chunked runs tile the timeline on exactly the
    /// refcounted boundaries.
    #[cfg(test)]
    pub(crate) fn validate_structure(&self) {
        for entry in self.series.borrow().values() {
            entry.validate_structure();
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
        self.indexable(kind, column).is_ok()
    }

    /// Whether a warm window index currently exists for `(kind, column)`.
    pub fn has_window_index(&self, kind: AggKind, column: Option<usize>) -> bool {
        self.series
            .borrow()
            .get(&CacheKey { kind, column })
            .is_some_and(CachedSeries::has_index)
    }

    /// Cumulative window-index usage counters (per-query callers report
    /// the delta across their query).
    pub fn windex_stats(&self) -> WindowIndexStats {
        *self.windex_stats.borrow()
    }

    /// Resolve `(kind, column)` to its aggregate and index mode,
    /// rejecting non-indexable aggregates.
    fn indexable(&self, kind: AggKind, column: Option<usize>) -> Result<(DynAggregate, IndexMode)> {
        let agg = dyn_for(self.relation.schema(), CacheKey { kind, column })?;
        let mode = index_mode_for(&agg).ok_or_else(|| TempAggError::TypeError {
            detail: format!(
                "{} is not window-indexable: its combine is inexact under \
                 reassociation, so the index would break byte-identity with \
                 a linear scan",
                kind.name()
            ),
        })?;
        Ok((agg, mode))
    }

    /// The entry for `agg` over `column`, built over the relation if there
    /// is none. A series a paged file holds counts as present, and is
    /// decoded here if nobody has read it yet.
    fn entry(&self, agg: DynAggregate, column: Option<usize>) -> RefMut<'_, CachedSeries> {
        let key = CacheKey {
            kind: agg.kind(),
            column,
        };
        RefMut::map(self.series.borrow_mut(), |all| {
            let entry = all
                .entry(key)
                .or_insert_with(|| CachedSeries::build(agg, column, self.relation.tuples()));
            entry.load(column, self.relation.tuples());
            entry
        })
    }

    /// Count one read served by indexes that were already warm (`hit`) or
    /// had to be cut first, and the index probes it spent.
    fn count_probes(&self, hit: bool, probes: u64) {
        let mut stats = self.windex_stats.borrow_mut();
        stats.hits += u64::from(hit);
        stats.misses += u64::from(!hit);
        stats.probes += probes;
    }

    /// Find (building it if absent) the entry of an indexable aggregate,
    /// count the probe, and let `read` ask the entry's index — which the
    /// entry cuts from its series on first use (a *miss*; later probes are
    /// *hits* and never touch the series linearly).
    fn probe_entry<T>(
        &self,
        kind: AggKind,
        column: Option<usize>,
        read: impl FnOnce(&mut CachedSeries, IndexMode) -> T,
    ) -> Result<T> {
        let (agg, mode) = self.indexable(kind, column)?;
        let mut entry = self.entry(agg, column);
        self.count_probes(entry.has_index(), 1);
        Ok(read(&mut entry, mode))
    }

    /// Answer `kind(column)` over `window` through the window index in
    /// O(log n) node folds, building the index from the cached series on
    /// first use.
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
        self.probe_entry(kind, column, |entry, mode| entry.probe(mode, window))
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
        self.probe_entry(kind, column, |entry, mode| {
            let probe = entry.indexed(mode);
            probe.index.extreme_instant(window, want_max, probe.source)
        })
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
        let (agg, mode) = self.indexable(kind, column)?;
        if group_column >= self.relation.schema().len() {
            return Err(TempAggError::storage(format!(
                "ranking group column {group_column} is out of range for a \
                 schema with {} columns",
                self.relation.schema().len()
            )));
        }
        let gkey = (CacheKey { kind, column }, group_column);
        let mut grouped = self.grouped.borrow_mut();
        let hit = grouped.contains_key(&gkey);
        let entry = grouped
            .entry(gkey)
            .or_insert_with(|| GroupedIndexes::build(agg, column, group_column, &self.relation));
        let (ranked, probes) = entry.top_k(mode, window, k);
        self.count_probes(hit, probes);
        Ok((ranked, probes))
    }

    /// Build (if absent) the cache for `agg` over `column`. A series
    /// restored from a paged file counts as present — it is served
    /// read-only until the first mutation promotes it.
    pub fn ensure_cache(&self, agg: DynAggregate, column: Option<usize>) {
        drop(self.entry(agg, column));
    }

    /// Whether a cache (live or restored from a paged file) exists for
    /// `(kind, column)`.
    pub fn has_cache(&self, kind: AggKind, column: Option<usize>) -> bool {
        self.series
            .borrow()
            .contains_key(&CacheKey { kind, column })
    }

    /// How many constant-interval runs the cached series for
    /// `(kind, column)` has — a live cache's working runs, or a restored
    /// series' entries — or `None` if that aggregate has no cache yet.
    /// What a planner needs of a series it will not read: unlike
    /// [`snapshot`](TemporalStore::snapshot) this publishes no version, so
    /// it costs the same before and after a write.
    pub fn cached_runs(&self, kind: AggKind, column: Option<usize>) -> Option<usize> {
        self.series
            .borrow()
            .get(&CacheKey { kind, column })
            .map(CachedSeries::runs_len)
    }

    /// Snapshot the cached series for `(kind, column)` at the current
    /// epoch, or `None` if that aggregate has no cache yet. The returned
    /// `Arc` pins the version: concurrent writes publish new versions but
    /// never mutate or free this one. Series restored from a paged file
    /// are served as-is (they were snapshotted at flush time and the
    /// relation has not changed since — any mutation promotes them to
    /// live caches first).
    pub fn snapshot(&self, kind: AggKind, column: Option<usize>) -> Option<Arc<Series<Value>>> {
        self.series
            .borrow_mut()
            .get_mut(&CacheKey { kind, column })
            .map(|entry| {
                entry.load(column, self.relation.tuples());
                entry.snapshot(self.epoch)
            })
    }

    /// [`ensure_cache`](TemporalStore::ensure_cache) then
    /// [`snapshot`](TemporalStore::snapshot), in one borrow.
    pub fn snapshot_or_build(
        &self,
        agg: DynAggregate,
        column: Option<usize>,
    ) -> Arc<Series<Value>> {
        self.entry(agg, column).snapshot(self.epoch)
    }

    /// Aggregated maintenance counters across all live caches.
    pub fn cache_stats(&self) -> StoreCacheStats {
        let mut stats = StoreCacheStats::default();
        for entry in self.series.borrow().values() {
            entry.tally(&mut stats);
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

/// Decode a directory record into the key its series was stored under; the
/// caller holds the key's column and aggregate against the file's own
/// schema ([`dyn_for`]). The label was written as [`AggKind::name`], of
/// which `AggKind::parse` is *not* the inverse (it speaks SQL keywords, not
/// display labels like `COUNT(*)`), hence the table lookup.
fn key_for_persisted(series: &SeriesRecord) -> Result<CacheKey> {
    let kind = ALL_KINDS
        .into_iter()
        .find(|kind| kind.name() == series.label)
        .ok_or_else(|| {
            TempAggError::storage(format!(
                "unknown persisted aggregate label {:?}",
                series.label
            ))
        })?;
    Ok(CacheKey {
        kind,
        column: series.column.map(|raw| raw as usize),
    })
}
