//! The mutable temporal store: an updatable interval relation plus the
//! versioned aggregate caches maintained under every write.

use crate::cache::{CachedSeries, Edit, Members, Written};
use crate::grouped::GroupedIndexes;
use crate::rows::{RowScan, Rows};
use std::cell::{OnceCell, RefCell, RefMut};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tempagg_agg::{AggKind, DynAggregate, SweepAggregate, SweepClass};
use tempagg_algo::{IndexMode, WindowAggregate};
use tempagg_core::pager::{
    self, PagedReader, PagedWriteOptions, PagedWriteStats, PersistedSeries, SeriesRecord,
    SeriesRuns, DEFAULT_PAGE_BYTES,
};
use tempagg_core::{
    Epoch, Interval, Result, Schema, Series, SeriesView, TempAggError, TemporalRelation, Timestamp,
    Tuple, Value, ValueType,
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
    /// Chunks of runs a write copied because a version a reader held
    /// shared them; every other chunk a write patches is patched in place.
    pub copied_chunks: u64,
    /// Published versions currently retained.
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
/// [`view`](TemporalStore::view) and receive an immutable [`SeriesView`]
/// that shares the cached series' chunks, pinned against concurrent writes
/// — a later write copies a chunk it patches while a view holds it and
/// never touches a pinned one. [`snapshot`](TemporalStore::snapshot) copies
/// the same version into one `Arc<Series<Value>>`.
///
/// Caches are created on demand (interior mutability), so read paths can
/// warm the store through a shared reference.
///
/// A store [opened](TemporalStore::open) from a paged file keeps its rows
/// on the file's pages — [`scan`](TemporalStore::scan) reads them page by
/// page — until something needs them in memory; that read goes through
/// [`resident`](TemporalStore::resident), the one fallible door, so a page
/// that fails its checksum is an error for the statement that needed it.
#[derive(Clone, Debug)]
pub struct TemporalStore {
    /// The rows: resident, or the pages of the file the store was opened
    /// from.
    rows: Rows,
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
    /// The version of the backing file this store last wrote or opened.
    committed: Option<Arc<PagedReader>>,
    /// The watermark of the flushed prefix: how many of the rows, in
    /// storage order, `committed` holds — while every write since was an
    /// `INSERT`, which appends; `None` after any other write.
    flushed: Option<usize>,
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
        TemporalStore::over(Rows::Resident(relation))
    }

    /// A store over `rows` with no caches, no backing file, and dirty.
    fn over(rows: Rows) -> TemporalStore {
        TemporalStore {
            rows,
            epoch: Epoch::ZERO,
            series: RefCell::new(BTreeMap::new()),
            backing: None,
            page_size: DEFAULT_PAGE_BYTES,
            dirty: true,
            committed: None,
            flushed: None,
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
    /// Only the header, the schema and the directory are read: the rows stay
    /// on the file's pages, where [`len`](TemporalStore::len) and
    /// [`schema`](TemporalStore::schema) read them from the header and
    /// [`scan`](TemporalStore::scan) reads them page by page, until
    /// [`resident`](TemporalStore::resident) first needs them in memory (a
    /// write, an executed join, a cache the file does not hold). Each
    /// persisted aggregate series is decoded when
    /// [`snapshot`](TemporalStore::snapshot) /
    /// [`ensure_cache`](TemporalStore::ensure_cache) or a probe first asks
    /// for it and served read-only from then on; the first mutation
    /// promotes them all, decoded or not, to live caches rebuilt over the
    /// relation, and so does a block that turns out corrupt. A series no
    /// store may cache (see [`ensure_cache`](TemporalStore::ensure_cache)),
    /// which a file written before that rule can hold, is not restored: the
    /// aggregate is scanned, and the next flush writes the file without it.
    pub fn open(path: &Path) -> Result<TemporalStore> {
        let base = Arc::new(PagedReader::open(path)?);
        let page_size = base.page_size();
        let mut restored = BTreeMap::new();
        for (slot, record) in base.series_directory().iter().enumerate() {
            let key = key_for_persisted(record)?;
            let agg = dyn_for(base.schema(), key)?;
            if cacheable(&agg).is_ok() {
                restored.insert(key, CachedSeries::restored(agg, base.clone(), slot));
            }
        }
        Ok(TemporalStore {
            series: RefCell::new(restored),
            backing: Some(path.to_path_buf()),
            page_size,
            dirty: false,
            flushed: usize::try_from(base.tuple_count()).ok(),
            committed: Some(base.clone()),
            ..TemporalStore::over(Rows::Paged {
                base,
                resident: OnceCell::new(),
            })
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

    /// Write the store to `path` and attach it as the backing file. A write
    /// that fails attaches nothing: the store keeps the backing file (and
    /// the dirty flag) it had.
    pub fn persist_to(&mut self, path: impl Into<PathBuf>) -> Result<PagedWriteStats> {
        let path = path.into();
        let stats = self.write_to(&path)?;
        self.backing = Some(path);
        self.dirty = false;
        Ok(stats)
    }

    /// Write the relation and every cached aggregate series to the
    /// backing file, durably. A clean store is a no-op returning
    /// `Ok(None)`. Errors if no backing file is attached.
    ///
    /// When every write since the version this store last wrote or opened
    /// was an `INSERT` that kept a sorted file sorted, the flush *appends*:
    /// the pages and series runs those rows changed go to the file's delta
    /// sidecar, and the file is not touched ([`pager::append_relation`] has
    /// the rules). Every other flush *compacts*: a full rewrite of the file
    /// (temp file, sync, rename, sync of the directory) that removes the
    /// delta. A store still on its file's pages is clean, so only
    /// [`persist_to`](TemporalStore::persist_to) a new path reads them.
    pub fn flush(&mut self) -> Result<Option<PagedWriteStats>> {
        let Some(path) = self.backing.clone() else {
            return Err(TempAggError::storage(
                "store has no backing file; use persist_to or open",
            ));
        };
        if !self.dirty {
            return Ok(None);
        }
        let stats = match self.append(&path)? {
            Some(stats) => stats,
            None => self.write_to(&path)?,
        };
        self.dirty = false;
        Ok(Some(stats))
    }

    /// Append the rows past the flushed prefix, and every cached series, to
    /// the delta of `path`: `None` when the store may not append there, or
    /// the pager's rules refuse it.
    fn append(&mut self, path: &Path) -> Result<Option<PagedWriteStats>> {
        let committed = match (&self.committed, self.flushed) {
            (Some(committed), Some(flushed))
                if committed.path() == path
                    && usize::try_from(committed.tuple_count()) == Ok(flushed) =>
            {
                committed.clone()
            }
            _ => return Ok(None),
        };
        let relation = self.rows.resident()?;
        let mut series = Vec::new();
        for (key, entry) in self.series.get_mut().iter_mut() {
            entry.load(key.column, || Ok(relation.tuples()))?;
            series.push(SeriesRuns {
                label: key.kind.name().to_string(),
                column: key.column.and_then(|c| u32::try_from(c).ok()),
                runs: entry.runs()?,
            });
        }
        let stats = pager::append_relation(&committed, relation, &series)?;
        if stats.is_some() {
            self.committed_now(path);
        }
        Ok(stats)
    }

    /// Record that `path` now holds every row and series: the version the
    /// next flush appends to. A version that fails to open costs the next
    /// flush a rewrite, nothing else.
    fn committed_now(&mut self, path: &Path) {
        self.committed = PagedReader::open(path).ok().map(Arc::new);
        self.flushed = Some(self.rows.len());
    }

    /// Write the relation and every cached aggregate series to `path`, a
    /// full rewrite.
    fn write_to(&mut self, path: &Path) -> Result<PagedWriteStats> {
        let relation = self.rows.resident()?;
        // Window indexes are derived from these series in O(runs) and are
        // never written; the entries are read off the runs, so a flush
        // publishes no version.
        let mut caches = Vec::new();
        for (key, entry) in self.series.get_mut().iter_mut() {
            entry.load(key.column, || Ok(relation.tuples()))?;
            caches.push(PersistedSeries {
                label: key.kind.name().to_string(),
                column: key.column.and_then(|c| u32::try_from(c).ok()),
                entries: entry.entries()?,
            });
        }
        let options = PagedWriteOptions {
            page_size: self.page_size,
            caches,
        };
        let stats = pager::write_relation(relation, path, &options)?;
        self.committed_now(path);
        Ok(stats)
    }

    /// The rows in memory. A store [opened](TemporalStore::open) from a
    /// file reads its pages here, once, on the first call: the door every
    /// read that needs resident rows goes through (a write, an executed
    /// join, a cache the file does not hold; a plain `SELECT` reads through
    /// [`scan`](TemporalStore::scan)). A page that fails its
    /// checksum is a [`TempAggError::Storage`], and the store is left as it
    /// was.
    pub fn resident(&self) -> Result<&TemporalRelation> {
        self.rows.resident()
    }

    /// The rows in memory, as [`resident`](TemporalStore::resident) reads
    /// them.
    ///
    /// # Panics
    ///
    /// If the store's rows are a file's pages and one fails to read. The
    /// signature is kept for callers that hold stores built in memory; the
    /// engine goes through `resident`, which returns the error.
    pub fn relation(&self) -> &TemporalRelation {
        readable(self.rows.resident())
    }

    /// The file whose pages are exactly this store's rows — the file it
    /// was [opened](TemporalStore::open) from, until its first write — or
    /// `None`.
    pub fn base(&self) -> Option<&PagedReader> {
        self.rows.base()
    }

    /// The pages a [`scan`](TemporalStore::scan) reads: the
    /// [base](TemporalStore::base)'s, while nothing has needed the rows in
    /// memory — otherwise `None`, and a scan reads the resident rows.
    pub fn pages(&self) -> Option<&PagedReader> {
        self.rows.pages()
    }

    /// Read the rows in storage order for a scan over `window` that reads
    /// `columns` of each: the resident tuples, or — while nothing has
    /// needed them in memory — the [base](TemporalStore::base)'s pages,
    /// fence-pruned to `window` and decoding only `columns`. Either way the
    /// scan may hand out rows outside `window`; the caller clips.
    pub fn scan(&self, window: Interval, columns: &[usize]) -> RowScan<'_> {
        self.rows.scan(window, columns)
    }

    /// The stored relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.rows.schema()
    }

    /// The current write epoch (bumped once per committed mutation).
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the store, returning the relation — read from the pages if
    /// the store is still on them.
    pub fn into_relation(self) -> Result<TemporalRelation> {
        self.rows.into_resident()
    }

    /// Insert one tuple, patching every cache.
    pub fn insert(&mut self, values: Vec<Value>, valid: Interval) -> Result<()> {
        self.insert_tuple(Tuple::new(values, valid))
    }

    /// Insert an already-built tuple, patching every cache. A tuple that
    /// fails the schema check — or rows that fail to read from the pages —
    /// changes nothing: restored series stay restored and the store stays
    /// clean.
    pub fn insert_tuple(&mut self, tuple: Tuple) -> Result<()> {
        self.schema().check(tuple.values())?;
        let push = |relation: &mut TemporalRelation| relation.push_tuple(tuple.clone());
        self.commit(&[Edit::Add(&tuple)], push, |_| true)
    }

    /// Delete every tuple satisfying `pred`, retracting each from every
    /// cache. Returns the number of tuples deleted. `pred` sees each tuple
    /// once; a statement that matches nothing changes nothing — restored
    /// series stay restored and the store stays clean.
    pub fn delete_where(&mut self, pred: impl FnMut(&Tuple) -> bool) -> Result<usize> {
        let relation = self.rows.resident()?;
        let flags: Vec<bool> = relation.iter().map(pred).collect();
        let removed: Vec<Tuple> = relation
            .iter()
            .zip(&flags)
            .filter(|&(_, &flag)| flag)
            .map(|(tuple, _)| tuple.clone())
            .collect();
        if removed.is_empty() {
            return Ok(0);
        }
        let edits: Vec<Edit<'_>> = removed.iter().map(Edit::Take).collect();
        let remove = |relation: &mut TemporalRelation| {
            relation.remove_flagged(&flags);
            Ok(())
        };
        self.commit(&edits, remove, |_| true)?;
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
        let schema = self.schema().clone();
        let width = schema.len();
        if let Some((column, _)) = assignments.iter().find(|(column, _)| *column >= width) {
            return Err(TempAggError::SchemaMismatch {
                detail: format!(
                    "UPDATE assigns column {column}, but the schema has {width} columns"
                ),
            });
        }
        let mut replacements: Vec<(usize, Tuple, Tuple)> = Vec::new();
        for (index, old) in self.rows.resident()?.iter().enumerate() {
            if !pred(old) {
                continue;
            }
            let mut values = old.values().to_vec();
            for (column, value) in assignments {
                if let Some(slot) = values.get_mut(*column) {
                    *slot = value.clone();
                }
            }
            schema.check(&values)?;
            let replacement = Tuple::new(values, old.valid());
            replacements.push((index, old.clone(), replacement));
        }
        if replacements.is_empty() {
            return Ok(0);
        }
        let edits: Vec<Edit<'_>> = replacements
            .iter()
            .map(|(_, old, new)| Edit::Rewrite(old, new))
            .collect();
        let replace = |relation: &mut TemporalRelation| {
            for (index, _, replacement) in &replacements {
                relation.replace(*index, replacement.clone())?;
            }
            Ok(())
        };
        let assigned = |key: &CacheKey| assignments.iter().any(|(c, _)| Some(*c) == key.column);
        self.commit(&edits, replace, assigned)?;
        Ok(replacements.len())
    }

    /// Commit one statement: promote the restored series over the relation
    /// before it, `write` the relation, patch every series `patches` picks
    /// and every ranking's groups with the statement's `edits`, and bump the
    /// epoch. The store is dirty once `write` succeeds.
    fn commit(
        &mut self,
        edits: &[Edit<'_>],
        write: impl FnOnce(&mut TemporalRelation) -> Result<()>,
        patches: impl Fn(&CacheKey) -> bool,
    ) -> Result<()> {
        let relation = self.rows.resident_mut()?;
        promote_restored(self.series.get_mut(), relation.tuples());
        write(relation)?;
        self.dirty = true;
        if !edits.iter().all(|edit| matches!(edit, Edit::Add(_))) {
            self.flushed = None;
        }
        let written = Written::new(relation.tuples(), edits);
        for (key, entry) in self.series.get_mut().iter_mut() {
            if patches(key) {
                entry.apply(edits, Members::all(&written))?;
            }
        }
        for grouped in self.grouped.get_mut().values_mut() {
            grouped.apply(edits, &written)?;
        }
        self.epoch = self.epoch.next();
        #[cfg(feature = "validate")]
        self.validate_groups(edits);
        Ok(())
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
    fn validate_groups(&self, edits: &[Edit<'_>]) {
        let touched = edits
            .iter()
            .flat_map(|e| e.taken().into_iter().chain(e.given()));
        for grouped in self.grouped.borrow().values() {
            grouped.validate(self.relation(), touched.clone());
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
        let agg = dyn_for(self.schema(), CacheKey { kind, column })?;
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

    /// The entry for `agg` over `column`, built over the resident rows if
    /// there is none. A series a paged file holds counts as present, and is
    /// decoded here if nobody has read it yet.
    fn entry(&self, agg: DynAggregate, column: Option<usize>) -> Result<RefMut<'_, CachedSeries>> {
        cacheable(&agg)?;
        let key = CacheKey {
            kind: agg.kind(),
            column,
        };
        let mut all = self.series.borrow_mut();
        let entry = match all.entry(key) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(slot) => slot.insert(CachedSeries::build(agg, column, self.tuples()?)),
        };
        entry.load(column, || self.tuples())?;
        RefMut::filter_map(all, |all| all.get_mut(&key))
            .map_err(|_| TempAggError::internal("a cache entry vanished under its borrow"))
    }

    /// The resident rows' tuples, through the one door.
    fn tuples(&self) -> Result<&[Tuple]> {
        self.rows.resident().map(TemporalRelation::tuples)
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
        let mut entry = self.entry(agg, column)?;
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
        if group_column >= self.schema().len() {
            return Err(TempAggError::storage(format!(
                "ranking group column {group_column} is out of range for a \
                 schema with {} columns",
                self.schema().len()
            )));
        }
        let gkey = (CacheKey { kind, column }, group_column);
        let mut grouped = self.grouped.borrow_mut();
        let hit = grouped.contains_key(&gkey);
        let entry = match grouped.entry(gkey) {
            Entry::Occupied(entry) => entry.into_mut(),
            Entry::Vacant(slot) => {
                let relation = self.rows.resident()?;
                slot.insert(GroupedIndexes::build(agg, column, group_column, relation))
            }
        };
        let (ranked, probes) = entry.top_k(mode, window, k);
        self.count_probes(hit, probes);
        Ok((ranked, probes))
    }

    /// Build (if absent) the cache for `agg` over `column`, and have it in
    /// hand. A series restored from a paged file counts as present — it is
    /// decoded here and served read-only until the first mutation promotes
    /// it. Building one, or replacing a block that fails its checksum, reads
    /// the rows through [`resident`](TemporalStore::resident), whose error
    /// this returns.
    ///
    /// An Approximate-class aggregate (float `SUM`/`AVG`, `VARIANCE`,
    /// `STDDEV`) is refused with a [`TempAggError::TypeError`]: a write
    /// patches a cache by retracting from its states, which drifts in
    /// floating point, so its cache would answer unlike a scan.
    pub fn ensure_cache(&self, agg: DynAggregate, column: Option<usize>) -> Result<()> {
        self.entry(agg, column).map(drop)
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
    /// [`view`](TemporalStore::view) this publishes no version, so it
    /// costs the same before and after a write.
    pub fn cached_runs(&self, kind: AggKind, column: Option<usize>) -> Option<usize> {
        self.series
            .borrow()
            .get(&CacheKey { kind, column })
            .map(CachedSeries::runs_len)
    }

    /// The cached series for `agg` over `column` as a reader sees it,
    /// built first if absent (as [`ensure_cache`](TemporalStore::ensure_cache)
    /// builds it, with its errors): the current version, shared with every
    /// reader since the last write that patched the series, or published
    /// now by cloning one `Arc` per chunk of runs. The view pins the
    /// version: a write that patches a chunk it holds copies the chunk
    /// first. A series restored from a paged file is served as it is
    /// (the relation has not changed since the flush that wrote it — any
    /// mutation promotes it to a live cache first).
    pub fn view(&self, agg: DynAggregate, column: Option<usize>) -> Result<SeriesView<Value>> {
        self.entry(agg, column).map(|mut entry| entry.view())
    }

    /// The current version of the cached series for `(kind, column)` —
    /// the one [`view`](TemporalStore::view) hands out — copied into one
    /// series, or `None` if that aggregate has no cache yet. The copy is
    /// made at most once per version, in O(runs), and pins the version as
    /// a view does: writes publish new versions but never mutate or free
    /// this one.
    ///
    /// # Panics
    ///
    /// Like [`relation`](TemporalStore::relation), if a restored block
    /// fails its checksum and the rows to rebuild it from fail to read; the
    /// engine calls [`ensure_cache`](TemporalStore::ensure_cache) first,
    /// which returns that error and leaves nothing here to fail.
    pub fn snapshot(&self, kind: AggKind, column: Option<usize>) -> Option<Arc<Series<Value>>> {
        let mut all = self.series.borrow_mut();
        let entry = all.get_mut(&CacheKey { kind, column })?;
        readable(entry.load(column, || self.tuples()));
        Some(entry.snapshot())
    }

    /// [`ensure_cache`](TemporalStore::ensure_cache) then
    /// [`snapshot`](TemporalStore::snapshot), in one borrow.
    ///
    /// # Panics
    ///
    /// Where `ensure_cache` would return an error.
    pub fn snapshot_or_build(
        &self,
        agg: DynAggregate,
        column: Option<usize>,
    ) -> Arc<Series<Value>> {
        readable(self.entry(agg, column)).snapshot()
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

/// Refuse an aggregate whose cache a write could not patch exactly: an
/// Approximate-class state drifts under float retraction, so after a write
/// its cache would answer unlike a scan of the same rows.
fn cacheable(agg: &DynAggregate) -> Result<()> {
    if agg.sweep_class().retractable() {
        return Ok(());
    }
    Err(TempAggError::TypeError {
        detail: format!(
            "{} over {} is not cacheable: its retraction is inexact under \
             floating point, so a patched cache would break byte-identity \
             with a scan",
            agg.kind().name(),
            agg.input_type()
        ),
    })
}

/// Promote file-restored series to live caches before a mutation: the live
/// cache is rebuilt from the (pre-mutation) `tuples`, so the mutation's
/// patch applies to real, retractable state.
fn promote_restored(series: &mut BTreeMap<CacheKey, CachedSeries>, tuples: &[Tuple]) {
    for (key, entry) in series.iter_mut() {
        entry.promote(key.column, tuples);
    }
}

/// The answer to a read made by one of the accessors that keep an
/// infallible signature — [`TemporalStore::relation`],
/// [`TemporalStore::snapshot`], [`TemporalStore::snapshot_or_build`]. Only
/// a store whose rows are a file's pages can fail one by a page that does
/// not verify, and `snapshot_or_build` by an aggregate no cache may hold;
/// those accessors have no error to return it in.
fn readable<T>(read: Result<T>) -> T {
    match read {
        Ok(value) => value,
        // lint: allow(no-unwrap): the documented `# Panics` of the accessors above; the engine reads through `resident` / `ensure_cache`, which return the error
        Err(e) => panic!("the store could not answer the read: {e}"),
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
