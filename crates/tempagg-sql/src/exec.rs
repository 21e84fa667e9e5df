//! Binding and execution of an aggregate query's paths — the scan, the
//! served path and the `OVER` / `TOP k` window paths; [`crate::route`]
//! decides which one a query takes.
//!
//! All aggregates of a select list run in ONE pass per aggregation set via
//! a product aggregate (Section 3 computes each scalar aggregate
//! separately, but the product of monoids is a monoid and every aggregate
//! sees the same tuples, so their constant intervals coincide and a single
//! tree construction or sweep serves every select-list entry). The scan
//! path is one borrowed pass: the bound [`Filter`] admits each row the
//! store's scan hands out and clips it to the `VALID` window, only the
//! referenced columns are projected, and the projected rows are appended
//! to per-group [`Chunk`]s that the chunk-fed executor consumes — no tuple
//! is cloned and no scratch relation is built. Select lists over `INT`
//! columns lower to the heap-free [`TypedMulti`]; everything else keeps
//! [`MultiDyn`]. Instant-grouped queries go through cost-based selection
//! ([`choose_algorithm`]) under [`CostModel::default`], which extends the
//! Section 6.3 optimizer with the columnar endpoint-sweep kernel, gated on
//! the select list's weakest retraction class; `GROUP BY SPAN n` uses the
//! span-grouping bucket algorithm; `GROUP BY col` partitions first and
//! evaluates per group (Section 4.1's "aggregation sets").

use crate::ast::{AggExpr, CompareOp, Condition, Query, TemporalGrouping};
use crate::catalog::Catalog;
use crate::display::write_table;
use crate::parser::parse;
use crate::route::{answer, route_query, Path};
use crate::rows::{GroupSink, ResultRow, ResultRows, RowBuffer};
use std::collections::BTreeMap;
use std::fmt;
use tempagg_agg::{
    AggKind, Aggregate, DynAggregate, MultiDyn, SweepAggregate, SweepClass, TypedInput, TypedMulti,
};
use tempagg_algo::{scan_window, RunSource, SpanGrouper, TemporalAggregator, WindowAggregate};
use tempagg_core::{
    Chunk, Interval, Result, RowValues, Schema, Series, SeriesEntry, TempAggError, Value,
    ValueType, DEFAULT_CHUNK_CAPACITY,
};
use tempagg_plan::{
    choose_algorithm, choose_window_algorithm, execute_chunks_into, AlgorithmChoice,
    CachedSeriesInfo, CostModel, Plan, PlannerConfig, RelationStats,
};
use tempagg_store::{index_mode_for, IndexMode, Row, RowBatch, RowScan, ScanPages, TemporalStore};

/// How the store's aggregate caches and window indexes participated in
/// answering a query. All zeros/false when the query ran an algorithm over
/// the relation without store involvement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// The result was served from an MVCC snapshot of a cached series —
    /// no relation scan ran at all.
    pub served_from_cache: bool,
    /// Constant-interval runs patched in place by incremental maintenance,
    /// cumulative over the store's lifetime ([`StoreCacheStats`]'s total
    /// when the query was served): two served queries with no write
    /// between them report the same count.
    ///
    /// [`StoreCacheStats`]: tempagg_store::StoreCacheStats
    pub patched_runs: u64,
    /// Window probes this query answered from an already-warm
    /// segment-tree index.
    pub index_hits: u64,
    /// Window queries of this query that had to build (or rebuild) an
    /// index first.
    pub index_misses: u64,
    /// Individual `O(log n)` index probes this query performed (a top-k
    /// query issues one per unpruned group; pruned groups never probe).
    pub index_probes: u64,
}

/// A query result: a (temporal) relation of aggregate values.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// Name of the grouping column, if the query had one.
    pub group_column: Option<String>,
    /// Display labels of the aggregates, e.g. `["COUNT(Name)"]`.
    pub agg_labels: Vec<String>,
    /// Rows in (group, time) order, coalesced by valid time: read them
    /// with `for row in &result.rows`, or take `result.rows.to_vec()`.
    pub rows: ResultRows,
    /// The plan the path ran under — under `EXPLAIN`, would run under
    /// (`None` for span grouping and `SNAPSHOT`, which do not plan).
    pub plan: Option<Plan>,
    /// The path the statement took, decided before it ran.
    pub path: Path,
    /// `true` for `EXPLAIN` queries: `rows` is empty, and `path` and `plan`
    /// describe what would run.
    pub explain_only: bool,
    /// `true` for `SELECT SNAPSHOT` queries: one scalar row (per group),
    /// no meaningful valid-time column.
    pub snapshot: bool,
    /// Whether (and how) the store's aggregate caches answered this
    /// query instead of a relation scan.
    pub cache: CacheReport,
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.explain_only {
            writeln!(f, "path: {}", self.path.name())?;
            return self
                .plan
                .as_ref()
                .map_or(Ok(()), |plan| write!(f, "{plan}"));
        }
        let mut header: Vec<String> = Vec::new();
        if let Some(g) = &self.group_column {
            header.push(g.clone());
        }
        if !self.snapshot {
            header.push("VALID".to_owned());
        }
        header.extend(self.agg_labels.iter().cloned());
        let cells = self.rows.iter().map(|row| {
            let mut cells = Vec::with_capacity(header.len());
            if self.group_column.is_some() {
                cells.push(row.group.as_ref().map_or(String::new(), Value::to_string));
            }
            if !self.snapshot {
                cells.push(row.valid.to_string());
            }
            cells.extend(row.values.iter().map(Value::to_string));
            cells
        });
        write_table(f, &header, cells)
    }
}

/// Parse and execute a query against a catalog with default planner
/// settings.
pub fn execute_str(catalog: &Catalog, sql: &str) -> Result<QueryResult> {
    execute_query(catalog, &parse(sql)?, &PlannerConfig::default())
}

/// Execute a parsed query: its route driven into a collecting buffer.
pub fn execute_query(
    catalog: &Catalog,
    query: &Query,
    config: &PlannerConfig,
) -> Result<QueryResult> {
    answer(
        route_query(catalog, query, config)?,
        &mut RowBuffer::collecting(),
    )
}

/// One select-list entry bound to the schema: the aggregate and its input
/// column (`None` for `COUNT(*)`).
type BoundAgg = (DynAggregate, Option<usize>);

/// The select list a query reports: a `TOP k` ranks by its first aggregate
/// and reports that one alone.
pub(crate) fn select_list(query: &Query) -> &[AggExpr] {
    let width = if query.top_k.is_some() {
        1
    } else {
        query.aggregates.len()
    };
    query.aggregates.get(..width).unwrap_or(&query.aggregates)
}

/// The rows a `WHERE … [AND VALID OVERLAPS w]` admits, bound once: the
/// conditions resolved against the schema, and the window an admitted
/// row's valid time is clipped to. Aggregate scans, plain `SELECT`,
/// `DELETE` and `UPDATE` all ask [`admit`](Filter::admit), so they cannot
/// disagree on which tuples qualify.
pub(crate) struct Filter {
    conditions: Vec<(usize, CompareOp, Value)>,
    /// The `VALID` window; [`Interval::ALL`] without one.
    window: Interval,
}

impl Filter {
    /// Resolve `conditions` against `schema`. Without a `window`, every
    /// valid time is admitted unclipped.
    pub(crate) fn bind(
        schema: &Schema,
        conditions: &[Condition],
        window: Option<Interval>,
    ) -> Result<Filter> {
        let conditions = conditions
            .iter()
            .map(|c| {
                Ok((
                    schema.index_of_ignore_case(&c.column)?,
                    c.op,
                    c.value.clone(),
                ))
            })
            .collect::<Result<_>>()?;
        Ok(Filter {
            conditions,
            window: window.unwrap_or(Interval::ALL),
        })
    }

    /// The window admitted valid times are clipped to.
    pub(crate) fn window(&self) -> Interval {
        self.window
    }

    /// The row's valid time clipped to the window, or `None` when a
    /// condition fails or the row lies outside the window.
    #[inline]
    pub(crate) fn admit(&self, row: Row<'_>) -> Option<Interval> {
        if self
            .conditions
            .iter()
            .all(|(idx, op, value)| op.eval(row.value(*idx), value))
        {
            row.valid().intersect(&self.window)
        } else {
            None
        }
    }

    /// The scan of `store` this filter reads: a persisted table's pages
    /// fence-pruned to the window and decoded to `columns` and the
    /// conditions' columns only. Pass each batch to [`admitted`].
    ///
    /// [`admitted`]: Filter::admitted
    pub(crate) fn scan<'a>(
        &self,
        store: &'a TemporalStore,
        columns: impl IntoIterator<Item = usize>,
    ) -> RowScan<'a> {
        let mut read: Vec<usize> = columns
            .into_iter()
            .chain(self.conditions.iter().map(|(idx, _, _)| *idx))
            .collect();
        read.sort_unstable();
        read.dedup();
        store.scan(self.window, &read)
    }

    /// The rows of `batch` the filter admits, in storage order, each with
    /// its clipped valid time.
    #[inline]
    pub(crate) fn admitted<'b>(
        &'b self,
        batch: &'b RowBatch<'_>,
    ) -> impl Iterator<Item = (Row<'b>, Interval)> + 'b {
        (0..batch.len()).filter_map(move |index| {
            let row = batch.row(index);
            self.admit(row).map(|valid| (row, valid))
        })
    }
}

/// An aggregate query bound to its store: its filter, select list and
/// grouping column, and the product aggregate the list lowers to —
/// everything each of its paths reads, resolved once.
pub(crate) struct BoundScan<'a> {
    store: &'a TemporalStore,
    filter: Filter,
    aggs: Vec<BoundAgg>,
    group_idx: Option<usize>,
    product: Product,
}

/// The product aggregate a select list runs on: [`TypedMulti`] when the
/// list lowers to it — decided once, by [`bind_scan`] — [`MultiDyn`]
/// otherwise. Both report the same class and state model, so they plan
/// alike.
enum Product {
    Typed(TypedMulti),
    Dyn(MultiDyn),
}

impl Product {
    /// The retraction class and the state model size the planner weighs.
    fn model(&self) -> (SweepClass, usize) {
        match self {
            Product::Typed(agg) => (agg.sweep_class(), agg.state_model_bytes().max(4)),
            Product::Dyn(agg) => (agg.sweep_class(), agg.state_model_bytes().max(4)),
        }
    }
}

/// Bind names: resolve and type-check conditions, aggregates and the
/// grouping column up front. Nothing of the rows is read.
pub(crate) fn bind_scan<'a>(catalog: &'a Catalog, query: &Query) -> Result<BoundScan<'a>> {
    let store = catalog.store(&query.relation)?;
    let schema = store.schema();
    // Tuples are clipped to the `VALID` window; results tile it.
    let domain = query.valid_window.unwrap_or(Interval::TIMELINE);
    let filter = Filter::bind(schema, &query.conditions, Some(domain))?;
    let mut aggs: Vec<BoundAgg> = Vec::with_capacity(query.aggregates.len());
    for agg in select_list(query) {
        let (idx, ty) = match &agg.column {
            Some(col) => {
                let i = schema.index_of_ignore_case(col)?;
                (Some(i), schema.columns()[i].ty)
            }
            None => (None, ValueType::Int),
        };
        aggs.push((DynAggregate::new(agg.kind, ty)?, idx));
    }
    let members: Vec<DynAggregate> = aggs.iter().map(|(agg, _)| *agg).collect();
    Ok(BoundScan {
        store,
        filter,
        group_idx: query
            .group_column
            .as_deref()
            .map(|c| schema.index_of_ignore_case(c))
            .transpose()?,
        product: match TypedMulti::lower(&members) {
            Some(typed) => Product::Typed(typed),
            None => Product::Dyn(MultiDyn::new(members)),
        },
        aggs,
    })
}

/// Statistics of a cached series of `runs` runs — all the planner weighs a
/// cached candidate by, known without taking a view, so planning publishes
/// no version.
fn cached_stats(store: &TemporalStore, runs: usize) -> RelationStats {
    RelationStats::unknown(store.len()).with_cached_series(CachedSeriesInfo {
        runs,
        epoch: store.epoch().get(),
    })
}

/// How a scan groups each aggregation set's rows in time.
#[derive(Clone, Copy)]
pub(crate) enum Grouping<'a> {
    /// Per instant, under the plan [`Planning`] names.
    Instant(Planning<'a>),
    /// `GROUP BY SPAN n`: the bucket array, which plans nothing.
    Span(i64),
    /// `SELECT SNAPSHOT`: one scalar fold per set, which plans nothing.
    Snapshot,
}

/// Where an instant-grouped scan's plan comes from, and with it whether its
/// rows coalesce.
#[derive(Clone, Copy)]
pub(crate) enum Planning<'a> {
    /// Choose by cost from the largest aggregation set — and, when the rows
    /// come off a persisted table's pages, the pages the scan reads of the
    /// file's — and coalesce the rows (TSQL2 results).
    Choose(PlannerConfig),
    /// Run every aggregation set under this plan and keep every constant
    /// interval: the window path's linear fallback reduces the uncoalesced
    /// series.
    Given(&'a Plan),
}

impl BoundScan<'_> {
    /// Whether the store may cache every aggregate of the list. A write
    /// patches a cache by retracting from its states, which is exact only
    /// for retractable classes ([`TemporalStore::ensure_cache`] refuses the
    /// rest), so a list with an Approximate-class member is scanned every
    /// time.
    pub(crate) fn cacheable(&self) -> bool {
        self.aggs
            .iter()
            .all(|(agg, _)| agg.sweep_class().retractable())
    }

    /// Whether the store caches every aggregate of the list (live, or
    /// restored from a paged file) — asked without taking a view, which
    /// would publish a version.
    pub(crate) fn cached(&self) -> bool {
        self.aggs
            .iter()
            .all(|(agg, idx)| self.store.has_cache(agg.kind(), *idx))
    }

    /// The served path's plan, made through the ordinary cost-based chooser
    /// from the cached series' size: the cached-series candidate wins, and
    /// its rationale explains why no scan runs.
    pub(crate) fn plan_served(&self, config: &PlannerConfig) -> Plan {
        let runs = self
            .aggs
            .first()
            .and_then(|(agg, idx)| self.store.cached_runs(agg.kind(), *idx));
        let (class, bytes) = self.product.model();
        let stats = cached_stats(self.store, runs.unwrap_or(0));
        choose_algorithm(&stats, class, config, &CostModel::default(), bytes)
    }

    /// The served path: answer from pinned views of the store's aggregate
    /// caches, every one present, so taking them builds none — it decodes a
    /// persisted block, or rebuilds one that fails its checksum.
    pub(crate) fn serve(&self, out: &mut RowBuffer<'_>) -> Result<CacheReport> {
        let views = self
            .aggs
            .iter()
            .map(|(agg, idx)| self.store.view(*agg, *idx))
            .collect::<Result<Vec<_>>>()?;
        // The views themselves are the answer; a result row exists once
        // its reader reaches it.
        out.serve(views)?;
        Ok(CacheReport {
            served_from_cache: true,
            patched_runs: self.store.cache_stats().patched_runs,
            ..CacheReport::default()
        })
    }

    /// Warm one cache per aggregate after a cache-eligible scan: it saw the
    /// whole relation unfiltered, so its result is exactly what a cache
    /// would hold, and the next execution is served. (A series a persisted
    /// table's file does not hold is built over its rows, read into memory
    /// here.)
    pub(crate) fn warm(&self) -> Result<()> {
        for (agg, idx) in &self.aggs {
            self.store.ensure_cache(*agg, *idx)?;
        }
        Ok(())
    }

    /// The path a scan under `grouping` takes: its product and grouping.
    pub(crate) fn path(&self, grouping: Grouping<'_>) -> Path {
        let typed = matches!(self.product, Product::Typed(_));
        match (grouping, typed) {
            (Grouping::Instant(_), true) => Path::TypedInstant,
            (Grouping::Span(_), true) => Path::TypedSpan,
            (Grouping::Snapshot, true) => Path::TypedSnapshot,
            (Grouping::Instant(_), false) => Path::DynInstant,
            (Grouping::Span(_), false) => Path::DynSpan,
            (Grouping::Snapshot, false) => Path::DynSnapshot,
        }
    }

    /// Run [`scan`] under `grouping` into `out` on the product aggregate —
    /// or, without `out`, only plan it — and return the plan.
    pub(crate) fn scan(
        &self,
        grouping: Grouping<'_>,
        out: Option<&mut RowBuffer<'_>>,
    ) -> Result<Option<Plan>> {
        let columns: Vec<Option<usize>> = self.aggs.iter().map(|(_, idx)| *idx).collect();
        match &self.product {
            Product::Typed(typed) => {
                let project = |row: Row<'_>| project_typed(&columns, row);
                scan(self, typed.clone(), project, grouping, out)
            }
            Product::Dyn(multi) => {
                let project = |row: Row<'_>| project_values(&columns, row);
                scan(self, multi.clone(), project, grouping, out)
            }
        }
    }
}

/// One aggregation set: its grouping value and its qualifying tuples,
/// already clipped and projected to the product aggregate's input, in
/// storage order.
struct Group<V> {
    key: Option<Value>,
    chunks: Vec<Chunk<V>>,
    rows: usize,
}

impl<V> Group<V> {
    fn new(key: Option<Value>) -> Group<V> {
        Group {
            key,
            chunks: Vec::new(),
            rows: 0,
        }
    }

    fn push(&mut self, valid: Interval, input: V) -> Result<()> {
        if self.chunks.last().map_or(true, Chunk::is_full) {
            // Bounded but not reserved: a high-cardinality GROUP BY opens
            // many small sets at once.
            self.chunks.push(Chunk::bounded(DEFAULT_CHUNK_CAPACITY));
        }
        if let Some(chunk) = self.chunks.last_mut() {
            chunk.push(valid, input)?;
        }
        self.rows += 1;
        Ok(())
    }

    fn intervals(&self) -> Vec<Interval> {
        self.chunks
            .iter()
            .flat_map(|c| c.iter().map(|(interval, _)| interval))
            .collect()
    }

    fn lifespan(&self) -> Option<Interval> {
        self.chunks
            .iter()
            .filter_map(Chunk::extent)
            .reduce(|a, b| a.hull(&b))
    }
}

/// The aggregation sets of a value-grouped scan while it runs: each
/// distinct grouping value (owned, so a page it was read from can go) and
/// the position of its set, which opens at the value's first row.
struct ValueSets<V> {
    positions: BTreeMap<Value, usize>,
    sets: Vec<Group<V>>,
}

impl<V> ValueSets<V> {
    fn new() -> ValueSets<V> {
        ValueSets {
            positions: BTreeMap::new(),
            sets: Vec::new(),
        }
    }

    /// The set of `key`: one lookup, and the key cloned at its first row.
    fn of(&mut self, key: &Value) -> &mut Group<V> {
        let position = match self.positions.get(key) {
            Some(&position) => position,
            None => {
                self.positions.insert(key.clone(), self.sets.len());
                self.sets.push(Group::new(Some(key.clone())));
                self.sets.len() - 1
            }
        };
        &mut self.sets[position]
    }

    /// The sets by ascending grouping value.
    fn into_sorted(self) -> Vec<Group<V>> {
        let mut sets: Vec<Option<Group<V>>> = self.sets.into_iter().map(Some).collect();
        self.positions
            .into_values()
            .filter_map(|position| sets[position].take())
            .collect()
    }
}

/// Filter on WHERE + VALID, clip, project and partition into aggregation
/// sets in one borrowed pass over the rows the store hands out — its
/// resident tuples, or the pages of a persisted table decoded to the
/// referenced columns. Ungrouped queries have exactly one set, which exists
/// even when no tuple qualifies (its result is the empty aggregate over the
/// whole window); value-grouped queries have one per distinct grouping
/// value, ascending. Also returns what the scan read of the pages.
fn project_groups<V>(
    bound: &BoundScan<'_>,
    project: impl Fn(Row<'_>) -> V,
) -> Result<(Vec<Group<V>>, Option<ScanPages>)> {
    let mut whole = Group::new(None);
    let mut sets = ValueSets::new();
    let inputs = bound.aggs.iter().filter_map(|(_, idx)| *idx);
    let columns = bound.group_idx.into_iter().chain(inputs);
    let mut scan = bound.filter.scan(bound.store, columns);
    while let Some(batch) = scan.next_batch()? {
        // lint: hot-loop(scan-project) — per admitted row: find its set, project, append; never a Tuple clone or a relation push
        for (row, valid) in bound.filter.admitted(&batch) {
            let set = match bound.group_idx {
                None => &mut whole,
                Some(idx) => sets.of(row.value(idx)),
            };
            set.push(valid, project(row))?;
        }
    }
    let groups = match bound.group_idx {
        None => vec![whole],
        Some(_) => sets.into_sorted(),
    };
    Ok((groups, scan.pages()))
}

/// [`MultiDyn`]'s input: one cloned [`Value`] per select-list entry.
fn project_values(columns: &[Option<usize>], row: Row<'_>) -> Vec<Value> {
    columns
        .iter()
        .map(|column| match column {
            Some(i) => row.value(*i).clone(),
            // COUNT(*): any non-null marker.
            None => Value::Bool(true),
        })
        .collect()
}

/// [`TypedMulti`]'s input: the referenced `INT` cells copied inline, NULLs
/// (and `COUNT(*)`'s unused slot) left absent.
fn project_typed(columns: &[Option<usize>], row: Row<'_>) -> TypedInput {
    let mut input = TypedInput::default();
    for (slot, column) in columns.iter().enumerate() {
        if let Some(Value::Int(v)) = column.map(|i| row.value(i)) {
            input.set(slot, *v);
        }
    }
    input
}

/// One scan, generic over the product aggregate: project the relation
/// into aggregation sets, then evaluate each — `SNAPSHOT` as a scalar
/// fold, instant grouping through the chunk-fed executor under one plan
/// made from the largest set (the sets share the input's ordering
/// characteristics), span grouping through the bucket array — pushing
/// result rows to `out` in (group, time) order. Without `out` it runs
/// nothing and reads rows only to plan from them. Returns the plan the sets
/// ran under (`None` for span grouping and `SNAPSHOT`).
fn scan<A>(
    bound: &BoundScan<'_>,
    agg: A,
    project: impl Fn(Row<'_>) -> A::Input,
    grouping: Grouping<'_>,
    out: Option<&mut RowBuffer<'_>>,
) -> Result<Option<Plan>>
where
    A: SweepAggregate + Clone + Send,
    A::State: Send,
    A::Input: Clone + Send + Sync,
    A::Output: Into<RowValues> + PartialEq + Send,
{
    match (grouping, out) {
        (Grouping::Span(_) | Grouping::Snapshot, None) => Ok(None),
        // SNAPSHOT: scalar aggregates over each set's full tuple set
        // (Section 3 semantics) — no temporal grouping at all.
        (Grouping::Snapshot, Some(out)) => {
            for group in &project_groups(bound, project)?.0 {
                let mut state = agg.empty_state();
                for input in group.chunks.iter().flat_map(Chunk::values) {
                    agg.insert(&mut state, input);
                }
                out.push(ResultRow {
                    group: group.key.clone(),
                    valid: bound.filter.window(),
                    values: agg.finish(&state).into(),
                });
            }
            Ok(None)
        }
        (Grouping::Span(len), Some(out)) => {
            let (groups, _) = project_groups(bound, project)?;
            // Spans need a bounded window: the VALID clause, or the
            // relation's lifespan.
            let window = span_window(bound.filter.window(), &groups, len)?;
            for group in &groups {
                let mut grouper = SpanGrouper::new(agg.clone(), window, len)?;
                for chunk in &group.chunks {
                    grouper.push_batch(chunk)?;
                }
                // One row per span: fixed calendar partitions are not
                // coalesced even when adjacent values repeat.
                grouper.finish_into(&mut GroupSink {
                    out: &mut *out,
                    key: &group.key,
                    coalesce: false,
                });
            }
            Ok(None)
        }
        (Grouping::Instant(planning), out) => {
            let (groups, pages) = project_groups(bound, project)?;
            let the_plan = match planning {
                Planning::Given(plan) => plan.clone(),
                Planning::Choose(config) => {
                    let representative = groups
                        .iter()
                        .max_by_key(|g| g.rows)
                        .map_or_else(Vec::new, Group::intervals);
                    let mut stats = RelationStats::analyze_intervals(&representative);
                    if let Some(pages) = pages {
                        stats = stats
                            .with_pages(pages.total, Some(pages.read))
                            .with_overflow_pages(pages.overflow_read, pages.overflow_total);
                    }
                    // Cost-based selection: the select list's weakest
                    // retraction class gates whether the endpoint sweep
                    // competes.
                    choose_algorithm(
                        &stats,
                        agg.sweep_class(),
                        &config,
                        &CostModel::default(),
                        agg.state_model_bytes().max(4),
                    )
                }
            };
            if let Some(out) = out {
                for group in &groups {
                    let mut sink = GroupSink {
                        out: &mut *out,
                        key: &group.key,
                        coalesce: matches!(planning, Planning::Choose(_)),
                    };
                    execute_chunks_into(
                        &the_plan,
                        agg.clone(),
                        &group.chunks,
                        bound.filter.window(),
                        &mut sink,
                    )?;
                }
            }
            Ok(Some(the_plan))
        }
    }
}

/// The scalar a window query reports for an index-served aggregate:
/// Delta kinds report the time integral `Σ value·duration` (e.g.
/// person-instants for `COUNT`), the ordered extremes report the
/// window's `MIN`/`MAX`. A ranking (`rank`) reports the key `TOP k BY`
/// ranks groups with instead — identical to the bound the grouped index
/// prunes on: the window maximum for both extremes (so `TOP k BY MIN`
/// ranks groups by their best instantaneous minimum).
fn window_value(agg: &DynAggregate, wa: &WindowAggregate, rank: bool) -> Value {
    match index_mode_for(agg) {
        Some(IndexMode::Extremes) if agg.kind() == AggKind::Min && !rank => wa.min.clone(),
        Some(IndexMode::Extremes) => wa.max.clone(),
        _ => wa.integral_value(),
    }
}

/// Reduce one aggregate's series — a cached series' view, or one a scan
/// computed — over a window linearly to what [`window_value`] reports.
/// Exact kinds go through the index's scan oracle so the linear and
/// indexed paths agree byte-for-byte; inexact float kinds compute the
/// duration-weighted combine in `f64` (`Σ value·duration` for `SUM`, the
/// weighted mean for the `AVG` family).
fn window_scalar(
    agg: &DynAggregate,
    series: &dyn RunSource,
    window: Interval,
    rank: bool,
) -> Value {
    if index_mode_for(agg).is_some() {
        return window_value(agg, &scan_window(series, window), rank);
    }
    let mut weighted = 0.0f64;
    let mut covered = 0.0f64;
    series.for_each_run_in(window, &mut |clip, value| {
        if let Some(v) = value.as_f64() {
            let d = clip.duration() as f64;
            weighted += v * d;
            covered += d;
        }
    });
    match agg.kind() {
        AggKind::Sum => Value::Float(weighted),
        _ if covered == 0.0 => Value::Null,
        _ => Value::Float(weighted / covered),
    }
}

/// Project one select-list entry of a scan's uncoalesced rows (all of
/// one aggregation set) back into a series for window reduction.
fn column_series(rows: &[ResultRow], j: usize) -> Series<Value> {
    Series::from_entries(
        rows.iter()
            // lint: allow(indexing): j < width by construction of the product aggregate
            .map(|row| SeriesEntry::new(row.valid, row.values[j].clone()))
            .collect(),
    )
}

/// `SELECT aggs OVER [a, b] FROM r` — collapse each aggregate's history
/// over the window into one scalar row — and `SELECT TOP k BY agg OVER
/// [a, b] FROM r GROUP BY g`: the same reduction per group, ranked and cut
/// to the k best (top-k by window aggregate, as Jestes et al. define it),
/// bound and planned, with the path the plan picks. Clean shapes go through
/// the store's `O(log n)` segment-tree window indexes, built and cached on
/// first probe: one per aggregate, or one per group behind a shared bound
/// heap that prunes most groups by their `O(1)` root bound. WHERE / VALID
/// shapes, and lists with an aggregate no store caches, compute every
/// group's series and reduce the window linearly.
pub(crate) struct BoundWindow<'a> {
    scan: BoundScan<'a>,
    window: Interval,
    /// `TOP k`: k, the grouping column, and the ranking aggregate over its
    /// column.
    ranking: Option<(usize, usize, DynAggregate, Option<usize>)>,
    pub(crate) plan: Plan,
    pub(crate) path: Path,
}

impl<'a> BoundWindow<'a> {
    /// Bind the query, then plan it. With a clean shape the store's cached
    /// series (warm, or buildable on first probe) answers it, and the
    /// series and, when every aggregate is indexable, its window index are
    /// the candidates; otherwise a scan of the tuples over the domain is
    /// planned from what the store knows before running it: a persisted
    /// table's header and fences while the scan reads its pages, the
    /// resident relation measured otherwise.
    pub(crate) fn bind(
        catalog: &'a Catalog,
        query: &Query,
        config: &PlannerConfig,
    ) -> Result<BoundWindow<'a>> {
        // The parser builds none of these shapes; a `Query` built by hand can.
        let malformed = || TempAggError::Sql {
            line: 1,
            column: 1,
            detail: "OVER groups only under TOP k, which ranks the groups by one aggregate"
                .to_owned(),
        };
        let window = query.window.ok_or_else(malformed)?;
        let scan = bind_scan(catalog, query)?;
        let ranking = match (query.top_k, scan.group_idx, scan.aggs.first()) {
            (Some(k), Some(group), Some(&(agg, column))) => Some((k, group, agg, column)),
            (None, None, _) => None,
            _ => return Err(malformed()),
        };
        let store = scan.store;
        // The store's series answer a clean shape over aggregates it may cache.
        let clean_shape =
            query.conditions.is_empty() && query.valid_window.is_none() && scan.cacheable();
        let indexable = scan
            .aggs
            .iter()
            .all(|(agg, _)| index_mode_for(agg).is_some());
        // Planning needs the series' size, not the series: no snapshot, so a
        // probe after a write publishes nothing. A ranking's series are its
        // groups', which only the grouped index serves.
        let cached_runs = (clean_shape && (ranking.is_none() || indexable)).then(|| {
            scan.aggs
                .first()
                .filter(|_| ranking.is_none())
                .and_then(|(a, i)| store.cached_runs(a.kind(), *i))
                .unwrap_or_else(|| store.len().max(1))
        });
        let domain = query.valid_window.unwrap_or(Interval::TIMELINE);
        let stats = match (cached_runs, store.pages()) {
            (Some(runs), _) => cached_stats(store, runs),
            (None, Some(pages)) => RelationStats::from_pages(pages, domain),
            (None, None) => RelationStats::analyze(store.resident()?),
        };
        let (class, bytes) = scan.product.model();
        let index = indexable && cached_runs.is_some();
        let model = CostModel::default();
        let plan = choose_window_algorithm(&stats, class, index, config, &model, bytes);
        let path = match (ranking.is_some(), plan.choice) {
            (true, AlgorithmChoice::IndexProbe | AlgorithmChoice::CachedSeries) => {
                Path::TopKGroupedIndex
            }
            (true, _) => Path::TopKScan,
            (false, AlgorithmChoice::IndexProbe) => Path::OverIndexProbe,
            (false, AlgorithmChoice::CachedSeries) => Path::OverCachedSeries,
            (false, _) => Path::OverScan,
        };
        Ok(BoundWindow {
            scan,
            window,
            ranking,
            plan,
            path,
        })
    }

    /// Run the path into `out`: one scalar row per group (the ungrouped
    /// `OVER` query has one). A path the store serves reports what its
    /// indexes did (nothing, for a linear pass over a cached series).
    pub(crate) fn run(&self, out: &mut RowBuffer<'_>) -> Result<CacheReport> {
        let (store, window) = (self.scan.store, self.window);
        let before = store.windex_stats();
        let rows: Vec<(Option<Value>, RowValues)> = match (self.path, self.ranking) {
            (Path::TopKGroupedIndex, Some((k, group, agg, column))) => {
                let (ranked, _probes) =
                    store.top_k_by_window(agg.kind(), column, group, window, k)?;
                ranked
                    .into_iter()
                    .map(|(group, wa)| {
                        let value = window_value(&agg, &wa, true);
                        (Some(group), std::iter::once(value).collect())
                    })
                    .collect()
            }
            (Path::OverIndexProbe | Path::OverCachedSeries, None) => {
                let values = self
                    .scan
                    .aggs
                    .iter()
                    .map(|(agg, idx)| match self.path {
                        Path::OverIndexProbe => {
                            let probed = store.window_probe(agg.kind(), *idx, window)?;
                            Ok(window_value(agg, &probed, false))
                        }
                        _ => {
                            let view = store.view(*agg, *idx)?;
                            Ok(window_scalar(agg, &view, window, false))
                        }
                    })
                    .collect::<Result<RowValues>>()?;
                vec![(None, values)]
            }
            _ => self.reduce()?,
        };
        for (group, values) in rows {
            out.push(ResultRow {
                group,
                valid: window,
                values,
            });
        }
        let after = store.windex_stats();
        Ok(match self.path {
            Path::OverScan | Path::TopKScan => CacheReport::default(),
            _ => CacheReport {
                served_from_cache: true,
                index_hits: after.hits - before.hits,
                index_misses: after.misses - before.misses,
                index_probes: after.probes - before.probes,
                ..CacheReport::default()
            },
        })
    }

    /// The scan paths: each group's series, scanned under the window plan
    /// and reduced over the window to what the index answers with; a
    /// ranking then sorts and cuts them.
    fn reduce(&self) -> Result<Vec<(Option<Value>, RowValues)>> {
        let mut series = RowBuffer::collecting();
        let given = Grouping::Instant(Planning::Given(&self.plan));
        self.scan.scan(given, Some(&mut series))?;
        let mut scored = Vec::new();
        let mut rest: &[ResultRow] = &series.rows;
        while let Some(first) = rest.first() {
            // Rows arrive in (group, time) order: one run per group, and one
            // in all without GROUP BY (its constant intervals tile the
            // domain, so there is one even over no tuple).
            let len = rest.iter().take_while(|r| r.group == first.group).count();
            let (group_rows, tail) = rest.split_at(len);
            let values: RowValues = self
                .scan
                .aggs
                .iter()
                .enumerate()
                .map(|(j, (agg, _))| {
                    let series = column_series(group_rows, j);
                    window_scalar(agg, &series, self.window, self.ranking.is_some())
                })
                .collect();
            scored.push((first.group.clone(), values));
            rest = tail;
        }
        if let Some((k, ..)) = self.ranking {
            // Stable sort: ties keep the ascending group order, matching the
            // grouped index's lowest-group-first tie-break.
            scored.sort_by(|a, b| b.1.cmp(&a.1));
            scored.truncate(k);
        }
        Ok(scored)
    }
}

/// What a streaming execution reports back: everything [`QueryResult`]
/// carries except the rows themselves, which went to the caller's
/// callback, plus the residency counters of the underlying sinks.
#[derive(Clone, Debug)]
pub struct StreamSummary {
    /// Name of the grouping column, if the query had one.
    pub group_column: Option<String>,
    /// Display labels of the aggregates, e.g. `["COUNT(Name)"]`.
    pub agg_labels: Vec<String>,
    /// Rows pushed to the callback.
    pub rows: usize,
    /// The plan chosen for instant-grouped evaluation.
    pub plan: Option<Plan>,
    /// The path the query took, decided before it ran.
    pub path: Path,
    /// Most finished result rows resident in the engine's row buffer at
    /// once: at most the chunk capacity plus the lookahead row, for every
    /// query shape.
    pub peak_resident_result_entries: usize,
    /// Times the row buffer drained to the callback.
    pub emitted_chunks: usize,
}

/// Parse and execute a query, streaming result rows to `on_row` with
/// default planner settings and chunk capacity.
pub fn execute_streaming_str(
    catalog: &Catalog,
    sql: &str,
    on_row: impl FnMut(ResultRow),
) -> Result<StreamSummary> {
    execute_streaming(
        catalog,
        &parse(sql)?,
        &PlannerConfig::default(),
        DEFAULT_CHUNK_CAPACITY,
        on_row,
    )
}

/// Cursor-style execution: result rows are pushed to `on_row` as the
/// engine produces them, in (group, time) order — the same rows, in the
/// same order, as [`execute_query`] collects into [`QueryResult::rows`],
/// because both drive the same route and differ only in the buffer they
/// hand it.
///
/// The engine never materializes the result series: instant-grouped
/// queries drain the executor's streaming mode chunk by chunk (at most
/// `chunk_capacity` entries resident), span grouping drains its bucket
/// array through a bounded sink, served snapshots flow row by row, and
/// coalescing happens inline on a one-row lookahead. The callback is
/// push-based rather than a pull cursor so no background thread is
/// needed to invert control.
pub fn execute_streaming(
    catalog: &Catalog,
    query: &Query,
    config: &PlannerConfig,
    chunk_capacity: usize,
    mut on_row: impl FnMut(ResultRow),
) -> Result<StreamSummary> {
    let mut out = RowBuffer::streaming(chunk_capacity, &mut on_row);
    let result = answer(route_query(catalog, query, config)?, &mut out)?;
    Ok(StreamSummary {
        group_column: result.group_column,
        agg_labels: result.agg_labels,
        rows: out.produced,
        plan: result.plan,
        path: result.path,
        peak_resident_result_entries: out.peak,
        emitted_chunks: out.drains,
    })
}

/// Whether a query's shape lets the store's aggregate caches answer it:
/// instant grouping over the whole relation — no conditions, valid window,
/// value grouping, `OVER` or `TOP k` to change what the caches cover.
pub(crate) fn cache_eligible(query: &Query) -> bool {
    !query.snapshot
        && query.conditions.is_empty()
        && query.valid_window.is_none()
        && query.group_column.is_none()
        && query.window.is_none()
        && query.top_k.is_none()
        && matches!(query.temporal_grouping, TemporalGrouping::Instant)
}

/// The bounded window span grouping buckets: the filter's `VALID` window
/// when bounded, otherwise the hull of the groups' lifespans.
fn span_window<V>(window: Interval, groups: &[Group<V>], len: i64) -> Result<Interval> {
    if !window.end().is_forever() {
        return Ok(window);
    }
    let hull = groups
        .iter()
        .filter_map(Group::lifespan)
        .reduce(|a, b| a.hull(&b))
        .filter(|hull| !hull.end().is_forever());
    hull.ok_or(TempAggError::InvalidSpan { length: len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_core::TemporalRelation;
    use tempagg_plan::AlgorithmChoice;
    use tempagg_workload::employed::{employed_relation, table1_expected};
    use tempagg_workload::{generate, WorkloadConfig};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("Employed", employed_relation());
        c
    }

    #[test]
    fn large_unordered_count_plans_the_sweep() {
        let mut c = Catalog::new();
        c.register("big", generate(&WorkloadConfig::random(20_000)));
        let explained = execute_str(&c, "EXPLAIN SELECT COUNT(*) FROM big").unwrap();
        let plan = explained.plan.as_ref().unwrap();
        assert_eq!(plan.choice, AlgorithmChoice::Sweep);
        assert!(explained.to_string().contains("algorithm: endpoint-sweep"));
        // And the same query actually runs end-to-end through the sweep.
        let result = execute_str(&c, "SELECT COUNT(*) FROM big").unwrap();
        assert_eq!(result.plan.as_ref().unwrap().choice, AlgorithmChoice::Sweep);
        assert!(!result.rows.is_empty());
        let total: i64 = 20_000;
        assert!(result
            .rows
            .iter()
            .all(|r| (0..=total).contains(&r.values[0].as_i64().unwrap())));
    }

    #[test]
    fn float_average_is_not_swept() {
        // AVG over a float column retracts inexactly (Approximate class):
        // the planner must keep it off the sweep.
        let mut c = Catalog::new();
        let schema = tempagg_core::Schema::of(&[("x", tempagg_core::ValueType::Float)]);
        let mut r = TemporalRelation::new(schema);
        for i in 0..128i64 {
            r.push(
                vec![Value::Float(i as f64 / 3.0)],
                Interval::at((i * 7) % 97, (i * 7) % 97 + 10),
            )
            .unwrap();
        }
        c.register("floaty", r);
        let explained = execute_str(&c, "EXPLAIN SELECT AVG(x) FROM floaty").unwrap();
        assert_ne!(
            explained.plan.as_ref().unwrap().choice,
            AlgorithmChoice::Sweep
        );
    }

    #[test]
    fn the_papers_query_reproduces_table1() {
        let result = execute_str(&catalog(), "SELECT COUNT(Name) FROM Employed E").unwrap();
        let rows: Vec<(Interval, i64)> = result
            .rows
            .iter()
            .map(|r| (r.valid, r.values[0].as_i64().unwrap()))
            .collect();
        let expected: Vec<(Interval, i64)> = table1_expected()
            .into_iter()
            .map(|(iv, v)| (iv, v as i64))
            .collect();
        assert_eq!(rows, expected);
        assert_eq!(result.agg_labels, vec!["COUNT(Name)"]);
    }

    #[test]
    fn multiple_aggregates_zip() {
        let result = execute_str(
            &catalog(),
            "SELECT COUNT(name), SUM(salary), AVG(salary) FROM Employed",
        )
        .unwrap();
        // Over [18, 20]: 3 employees totalling 122K.
        let row = result
            .rows
            .iter()
            .find(|r| r.valid == Interval::at(18, 20))
            .unwrap();
        assert_eq!(row.values[0], Value::Int(3));
        assert_eq!(row.values[1], Value::Int(122_000));
        assert_eq!(row.values[2], Value::Float(122_000.0 / 3.0));
    }

    #[test]
    fn where_clause_filters() {
        let result = execute_str(
            &catalog(),
            "SELECT COUNT(name) FROM Employed WHERE salary >= 40000",
        )
        .unwrap();
        // Only Richard [18, ∞] and Karen [8, 20] qualify.
        let rows: Vec<(Interval, i64)> = result
            .rows
            .iter()
            .map(|r| (r.valid, r.values[0].as_i64().unwrap()))
            .collect();
        assert_eq!(
            rows,
            vec![
                (Interval::at(0, 7), 0),
                (Interval::at(8, 17), 1),
                (Interval::at(18, 20), 2),
                (Interval::from_start(21), 1),
            ]
        );
    }

    #[test]
    fn valid_window_restricts_and_clips() {
        let result = execute_str(
            &catalog(),
            "SELECT COUNT(name) FROM Employed WHERE VALID OVERLAPS [10, 19]",
        )
        .unwrap();
        let rows: Vec<(Interval, i64)> = result
            .rows
            .iter()
            .map(|r| (r.valid, r.values[0].as_i64().unwrap()))
            .collect();
        assert_eq!(
            rows,
            vec![
                (Interval::at(10, 12), 2),
                (Interval::at(13, 17), 1),
                (Interval::at(18, 19), 3),
            ]
        );
    }

    #[test]
    fn group_by_name_gives_per_person_timelines() {
        let result =
            execute_str(&catalog(), "SELECT COUNT(name) FROM Employed GROUP BY name").unwrap();
        assert_eq!(result.group_column.as_deref(), Some("name"));
        let nathan: Vec<_> = result
            .rows
            .iter()
            .filter(|r| r.group == Some(Value::from("Nathan")))
            .collect();
        // Nathan: employed [7, 12] and [18, 21], gap in between.
        let count_at = |t: i64| {
            nathan
                .iter()
                .find(|r| r.valid.contains(tempagg_core::Timestamp(t)))
                .map(|r| r.values[0].as_i64().unwrap())
        };
        assert_eq!(count_at(10), Some(1));
        assert_eq!(count_at(15), Some(0));
        assert_eq!(count_at(20), Some(1));
        assert_eq!(count_at(25), Some(0));
    }

    #[test]
    fn span_grouping_buckets() {
        let result = execute_str(
            &catalog(),
            "SELECT COUNT(name) FROM Employed WHERE VALID OVERLAPS [0, 29] GROUP BY SPAN 10",
        )
        .unwrap();
        let rows: Vec<(Interval, i64)> = result
            .rows
            .iter()
            .map(|r| (r.valid, r.values[0].as_i64().unwrap()))
            .collect();
        // [0,9]: Karen + Nathan(35K); [10,19]: Karen, Nathan(35K),
        // Richard, Nathan(37K); [20,29]: Karen, Richard, Nathan(37K).
        assert_eq!(
            rows,
            vec![
                (Interval::at(0, 9), 2),
                (Interval::at(10, 19), 4),
                (Interval::at(20, 29), 3),
            ]
        );
        assert!(result.plan.is_none());
    }

    #[test]
    fn span_grouping_without_window_uses_lifespan() {
        let mut c = Catalog::new();
        let mut r = employed_relation();
        // Make the lifespan bounded by replacing the open-ended tuples.
        r.retain(|t| !t.valid().end().is_forever());
        c.register("bounded", r);
        let result = execute_str(&c, "SELECT COUNT(name) FROM bounded GROUP BY SPAN 5").unwrap();
        // Lifespan [7, 21] → buckets [7,11], [12,16], [17,21].
        assert_eq!(result.rows.len(), 3);
        assert_eq!(result.rows.to_vec()[0].valid, Interval::at(7, 11));
    }

    #[test]
    fn span_grouping_with_unbounded_lifespan_errors() {
        let err = execute_str(
            &catalog(),
            "SELECT COUNT(name) FROM Employed GROUP BY SPAN 5",
        )
        .unwrap_err();
        assert!(matches!(err, TempAggError::InvalidSpan { .. }));
    }

    #[test]
    fn count_star_counts_everything() {
        let result = execute_str(&catalog(), "SELECT COUNT(*) FROM Employed").unwrap();
        let max = result
            .rows
            .iter()
            .map(|r| r.values[0].as_i64().unwrap())
            .max();
        assert_eq!(max, Some(3));
    }

    #[test]
    fn coalescing_merges_equal_adjacent_rows() {
        // MIN(salary) over Employed: [8, 12] has min 35K (Karen 45K, Nathan
        // 35K); [13, 17] has 45K; but COUNT changes at 7/8 while MIN stays
        // 35K across [7, 12] — with only MIN selected, [7, 7] and [8, 12]
        // coalesce.
        let result = execute_str(&catalog(), "SELECT MIN(salary) FROM Employed").unwrap();
        let rows: Vec<(Interval, Value)> = result
            .rows
            .iter()
            .map(|r| (r.valid, r.values[0].clone()))
            .collect();
        assert!(rows.contains(&(Interval::at(7, 12), Value::Int(35_000))));
    }

    #[test]
    fn forced_parallel_config_returns_identical_rows() {
        // Big enough that the cost model's overhead gate agrees the forced
        // 3-way split pays off (tiny inputs stay serial whatever the ask).
        // A `FLOAT` `SUM` retracts inexactly, so it plans the aggregation
        // tree, which partitions; whole-number values keep every sum exact
        // in any order of addition.
        let generated = generate(&WorkloadConfig::random(20_000));
        let salary = generated.schema().index_of("salary").unwrap();
        let schema = tempagg_core::Schema::of(&[("salary", tempagg_core::ValueType::Float)]);
        let mut relation = TemporalRelation::new(schema);
        for tuple in generated.tuples() {
            let value = tuple.value(salary).as_i64().unwrap() as f64;
            relation
                .push(vec![Value::Float(value)], tuple.valid())
                .unwrap();
        }
        let mut c = Catalog::new();
        c.register("big", relation.clone());
        let sql = "SELECT SUM(salary) FROM big";
        let serial = execute_str(&c, sql).unwrap();
        let config = PlannerConfig {
            parallelism: Some(3),
            parallel_min_tuples: 0,
            ..Default::default()
        };
        // A fresh catalog, so the serial run's warmed cache cannot serve
        // this execution and the forced-parallel scan actually runs.
        let mut c2 = Catalog::new();
        c2.register("big", relation);
        let parallel = execute_query(&c2, &parse(sql).unwrap(), &config).unwrap();
        assert_eq!(parallel.rows, serial.rows);
        let plan = parallel.plan.as_ref().unwrap();
        assert_eq!(plan.choice, AlgorithmChoice::AggregationTree);
        assert_eq!(plan.parallelism, 3);
        assert!(plan.to_string().contains("parallelism = 3"));
    }

    #[test]
    fn explain_returns_plan_without_rows() {
        let result = execute_str(&catalog(), "EXPLAIN SELECT COUNT(Name) FROM Employed").unwrap();
        assert!(result.explain_only);
        assert!(result.rows.is_empty());
        let plan = result.plan.as_ref().expect("instant queries plan");
        let text = result.to_string();
        assert!(text.contains(plan.choice.name()), "explain was:\n{text}");
    }

    #[test]
    fn explain_span_grouping() {
        let result = execute_str(
            &catalog(),
            "EXPLAIN SELECT COUNT(*) FROM Employed WHERE VALID OVERLAPS [0, 29] GROUP BY SPAN 10",
        )
        .unwrap();
        assert!(result.explain_only);
        assert!(result.plan.is_none());
        assert!(result.to_string().contains("span-grouping"));
    }

    #[test]
    fn span_with_calendar_units() {
        // Default calendar: 1 instant = 1 second, so SPAN 10 SECONDS = 10.
        let with_unit = execute_str(
            &catalog(),
            "SELECT COUNT(name) FROM Employed WHERE VALID OVERLAPS [0, 29] GROUP BY SPAN 10 SECONDS",
        )
        .unwrap();
        let bare = execute_str(
            &catalog(),
            "SELECT COUNT(name) FROM Employed WHERE VALID OVERLAPS [0, 29] GROUP BY SPAN 10",
        )
        .unwrap();
        assert_eq!(with_unit.rows, bare.rows);
        // MINUTE spans are 60 instants: one bucket covers [0, 29] clipped.
        let minutes = execute_str(
            &catalog(),
            "SELECT COUNT(name) FROM Employed WHERE VALID OVERLAPS [0, 29] GROUP BY SPAN 1 MINUTE",
        )
        .unwrap();
        assert_eq!(minutes.rows.len(), 1);
    }

    #[test]
    fn snapshot_query_returns_one_scalar_row() {
        // The paper's opening example: AVG(Salary) over all employees,
        // as a non-temporal (snapshot) result.
        let result = execute_str(
            &catalog(),
            "SELECT SNAPSHOT AVG(salary), COUNT(*) FROM Employed",
        )
        .unwrap();
        assert!(result.snapshot);
        let rows = result.rows.to_vec();
        assert_eq!(rows.len(), 1);
        let avg = rows[0].values[0].as_f64().unwrap();
        assert!((avg - (40_000.0 + 45_000.0 + 35_000.0 + 37_000.0) / 4.0).abs() < 1e-9);
        assert_eq!(rows[0].values[1], Value::Int(4));
        // No VALID column in the rendering.
        assert!(!result.to_string().contains("VALID"));
    }

    #[test]
    fn snapshot_with_group_by() {
        let result = execute_str(
            &catalog(),
            "SELECT SNAPSHOT COUNT(salary) FROM Employed GROUP BY name",
        )
        .unwrap();
        assert_eq!(result.rows.len(), 3); // Karen, Nathan, Richard
        let nathan = result
            .rows
            .iter()
            .find(|r| r.group == Some(Value::from("Nathan")))
            .unwrap();
        assert_eq!(nathan.values[0], Value::Int(2));
    }

    #[test]
    fn count_distinct_over_time() {
        // Distinct names per constant interval: Nathan's two stints count
        // once wherever they overlap other people.
        let result = execute_str(
            &catalog(),
            "SELECT COUNT(DISTINCT name), COUNT(name) FROM Employed",
        )
        .unwrap();
        let at = |t: i64| {
            result
                .rows
                .iter()
                .find(|r| r.valid.contains(tempagg_core::Timestamp(t)))
                .map(|r| (r.values[0].as_i64().unwrap(), r.values[1].as_i64().unwrap()))
                .unwrap()
        };
        assert_eq!(at(10), (2, 2));
        assert_eq!(at(19), (3, 3)); // Richard, Karen, Nathan
        assert_eq!(result.agg_labels[0], "COUNT(DISTINCT name)");
    }

    #[test]
    fn snapshot_rejects_span_grouping() {
        assert!(execute_str(
            &catalog(),
            "SELECT SNAPSHOT COUNT(*) FROM Employed GROUP BY SPAN 5"
        )
        .is_err());
    }

    #[test]
    fn streaming_rows_match_materialized_for_query_shapes() {
        let mut cold = catalog();
        cold.register("big", generate(&WorkloadConfig::k_ordered(4096, 8, 0.05)));
        let queries = [
            "SELECT COUNT(Name) FROM Employed",
            "SELECT COUNT(name), SUM(salary), AVG(salary) FROM Employed",
            // Five values spill the row and are past the typed width.
            "SELECT COUNT(*), COUNT(salary), SUM(salary), MIN(salary), MAX(salary) FROM Employed",
            "SELECT COUNT(name) FROM Employed WHERE salary >= 40000",
            "SELECT COUNT(name) FROM Employed GROUP BY name",
            "SELECT COUNT(name) FROM Employed WHERE VALID OVERLAPS [0, 29] GROUP BY SPAN 10",
            "SELECT SNAPSHOT AVG(salary), COUNT(*) FROM Employed",
            "SELECT COUNT(*) FROM big",
            "SELECT SUM(salary), MAX(salary) OVER [5, 25) FROM Employed",
            "SELECT AVG(salary) OVER [5, 25) FROM Employed WHERE salary >= 40000",
            "SELECT TOP 2 BY SUM(salary) OVER [5, 25) FROM Employed GROUP BY name",
            "SELECT TOP 2 BY SUM(salary) OVER [5, 25) FROM Employed \
             WHERE VALID OVERLAPS [0, 19] GROUP BY name",
        ];
        let config = PlannerConfig::default();
        for sql in queries {
            let query = parse(sql).unwrap();
            for capacity in [1, 2, DEFAULT_CHUNK_CAPACITY] {
                // One catalog per side, so both sides scan on the cold pass
                // and both are served (where the shape allows) on the warm.
                let (collecting, streaming) = (cold.clone(), cold.clone());
                for pass in ["cold", "warm"] {
                    let materialized = execute_query(&collecting, &query, &config).unwrap();
                    let mut streamed = Vec::new();
                    let summary = execute_streaming(&streaming, &query, &config, capacity, |row| {
                        streamed.push(row);
                    })
                    .unwrap();
                    let case = format!("{pass} at capacity {capacity}: {sql}");
                    assert_eq!(streamed, materialized.rows, "{case}");
                    assert_eq!(summary.rows, materialized.rows.len(), "{case}");
                    assert_eq!(summary.plan, materialized.plan, "{case}");
                    assert_eq!(summary.agg_labels, materialized.agg_labels, "{case}");
                    assert_eq!(summary.group_column, materialized.group_column, "{case}");
                    assert!(
                        summary.peak_resident_result_entries <= capacity + 1,
                        "{case}: peak {}",
                        summary.peak_resident_result_entries
                    );
                    if query.window.is_none() {
                        assert_eq!(
                            materialized.cache.served_from_cache,
                            pass == "warm" && cache_eligible(&query),
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn streaming_is_chunk_bounded_on_ordered_input() {
        let mut c = Catalog::new();
        c.register("sorted", generate(&WorkloadConfig::sorted(8_192)));
        let mut rows = 0usize;
        let summary = execute_streaming(
            &c,
            &parse("SELECT COUNT(*) FROM sorted").unwrap(),
            &PlannerConfig::default(),
            128,
            |_| rows += 1,
        )
        .unwrap();
        assert_eq!(summary.rows, rows);
        assert!(rows > 8_000, "rows {rows}");
        assert!(summary.emitted_chunks > rows / 129, "streamed in chunks");
        assert!(
            summary.peak_resident_result_entries < rows / 4,
            "peak {} must stay far below the {} materialized rows",
            summary.peak_resident_result_entries,
            rows
        );
    }

    #[test]
    fn streaming_explain_returns_plan_and_no_rows() {
        let summary = execute_streaming_str(
            &catalog(),
            "EXPLAIN SELECT COUNT(Name) FROM Employed",
            |_| panic!("explain must not produce rows"),
        )
        .unwrap();
        assert_eq!(summary.rows, 0);
        assert!(summary.plan.is_some());
    }

    #[test]
    fn binding_errors() {
        assert!(matches!(
            execute_str(&catalog(), "SELECT COUNT(nope) FROM Employed"),
            Err(TempAggError::UnknownColumn { .. })
        ));
        assert!(matches!(
            execute_str(&catalog(), "SELECT SUM(name) FROM Employed"),
            Err(TempAggError::TypeError { .. })
        ));
        assert!(matches!(
            execute_str(&catalog(), "SELECT COUNT(name) FROM nonexistent"),
            Err(TempAggError::UnknownRelation { .. })
        ));
        assert!(matches!(
            execute_str(
                &catalog(),
                "SELECT COUNT(name) FROM Employed WHERE nope = 1"
            ),
            Err(TempAggError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn display_renders_a_table() {
        let result = execute_str(&catalog(), "SELECT COUNT(Name) FROM Employed").unwrap();
        let text = result.to_string();
        assert!(text.contains("VALID"));
        assert!(text.contains("COUNT(Name)"));
        assert!(text.contains("[18, 20]"));
        assert!(text.lines().count() >= 9, "table was:\n{text}");
    }

    #[test]
    fn second_execution_serves_from_cache() {
        let c = catalog();
        let sql = "SELECT COUNT(Name) FROM Employed";
        let first = execute_str(&c, sql).unwrap();
        assert!(!first.cache.served_from_cache, "first run scans and warms");
        let second = execute_str(&c, sql).unwrap();
        assert!(second.cache.served_from_cache);
        assert_eq!(
            second.plan.as_ref().unwrap().choice,
            AlgorithmChoice::CachedSeries
        );
        assert_eq!(second.rows, first.rows);
        // The rationale names the cache.
        assert!(second
            .plan
            .as_ref()
            .unwrap()
            .rationale
            .iter()
            .any(|line| line.contains("cached runs")));
    }

    #[test]
    fn served_multi_aggregate_rows_zip_losslessly() {
        let c = catalog();
        let sql = "SELECT COUNT(name), SUM(salary), AVG(salary), MIN(salary), MAX(salary) \
                   FROM Employed";
        let scanned = execute_str(&c, sql).unwrap();
        let served = execute_str(&c, sql).unwrap();
        assert!(served.cache.served_from_cache);
        assert_eq!(served.rows, scanned.rows);
        assert_eq!(served.agg_labels, scanned.agg_labels);
    }

    #[test]
    fn ineligible_query_shapes_never_serve() {
        let c = catalog();
        // Warm the COUNT(name) cache.
        let warm = "SELECT COUNT(name) FROM Employed";
        execute_str(&c, warm).unwrap();
        assert!(execute_str(&c, warm).unwrap().cache.served_from_cache);
        for sql in [
            "SELECT COUNT(name) FROM Employed WHERE salary >= 40000",
            "SELECT COUNT(name) FROM Employed WHERE VALID OVERLAPS [10, 19]",
            "SELECT COUNT(name) FROM Employed GROUP BY name",
            "SELECT COUNT(name) FROM Employed WHERE VALID OVERLAPS [0, 29] GROUP BY SPAN 10",
            "SELECT SNAPSHOT COUNT(name) FROM Employed",
            "EXPLAIN SELECT COUNT(name) FROM Employed",
        ] {
            let result = execute_str(&c, sql).unwrap();
            assert!(!result.cache.served_from_cache, "query: {sql}");
        }
    }

    #[test]
    fn explain_never_builds_caches() {
        let c = catalog();
        execute_str(&c, "EXPLAIN SELECT COUNT(name) FROM Employed").unwrap();
        // Still a scan on the first real execution.
        let result = execute_str(&c, "SELECT COUNT(name) FROM Employed").unwrap();
        assert!(!result.cache.served_from_cache);
    }

    #[test]
    fn served_results_track_dml_through_the_store() {
        use crate::statement::{execute_statement, StatementOutput};
        let mut c = Catalog::new();
        execute_statement(&mut c, "CREATE TABLE t (x INT)").unwrap();
        execute_statement(
            &mut c,
            "INSERT INTO t VALUES (1) VALID [0, 9], (2) VALID [5, 14], (3) VALID [10, 19]",
        )
        .unwrap();
        let sql = "SELECT COUNT(x), SUM(x) FROM t";
        execute_str(&c, sql).unwrap(); // warm
        let before = execute_str(&c, sql).unwrap();
        assert!(before.cache.served_from_cache);

        // Mutate through the store; the caches are patched, not dropped.
        match execute_statement(&mut c, "DELETE FROM t WHERE x = 2").unwrap() {
            StatementOutput::Deleted { count, .. } => assert_eq!(count, 1),
            other => panic!("unexpected {other:?}"),
        }
        match execute_statement(&mut c, "UPDATE t SET x = 7 WHERE x = 3").unwrap() {
            StatementOutput::Updated { count, .. } => assert_eq!(count, 1),
            other => panic!("unexpected {other:?}"),
        }

        let served = execute_str(&c, sql).unwrap();
        assert!(served.cache.served_from_cache);
        assert!(served.cache.patched_runs > 0);
        // Byte-identical to a from-scratch scan of the mutated relation.
        let mut fresh = Catalog::new();
        fresh.register("t", c.store("t").unwrap().relation().clone());
        let scanned = execute_str(&fresh, sql).unwrap();
        assert!(!scanned.cache.served_from_cache);
        assert_eq!(served.rows, scanned.rows);
    }

    /// `CacheReport`'s maintenance counters are the store's cumulative
    /// totals, not a count since the last report: a read patches nothing,
    /// so a second served read reports what the first did.
    #[test]
    fn served_maintenance_counts_are_cumulative() {
        use crate::statement::execute_statement;
        let mut c = Catalog::new();
        execute_statement(&mut c, "CREATE TABLE t (x INT)").unwrap();
        execute_statement(
            &mut c,
            "INSERT INTO t VALUES (1) VALID [0, 9], (2) VALID [5, 14]",
        )
        .unwrap();
        let sql = "SELECT COUNT(x), SUM(x) FROM t";
        execute_str(&c, sql).unwrap(); // warm
        execute_statement(&mut c, "INSERT INTO t VALUES (3) VALID [10, 19]").unwrap();
        let first = execute_str(&c, sql).unwrap();
        let second = execute_str(&c, sql).unwrap();
        assert!(first.cache.served_from_cache && second.cache.served_from_cache);
        assert!(first.cache.patched_runs > 0);
        assert_eq!(first.cache.patched_runs, second.cache.patched_runs);
        assert_eq!(
            first.cache.patched_runs,
            c.store("t").unwrap().cache_stats().patched_runs
        );
    }

    #[test]
    fn window_queries_reduce_known_series() {
        use crate::statement::execute_statement;
        let mut c = Catalog::new();
        execute_statement(&mut c, "CREATE TABLE t (x INT)").unwrap();
        execute_statement(
            &mut c,
            "INSERT INTO t VALUES (1) VALID [0, 9], (2) VALID [5, 14], (3) VALID [10, 19]",
        )
        .unwrap();
        // Series: [0,4]→{1}, [5,9]→{1,2}, [10,14]→{2,3}, [15,19]→{3}.
        // Over [5, 15): COUNT integral 2·5+2·5, SUM integral 3·5+5·5,
        // MIN 1, MAX 3.
        let r = execute_str(
            &c,
            "SELECT COUNT(*), SUM(x), MIN(x), MAX(x) OVER [5, 15) FROM t",
        )
        .unwrap();
        let rows = r.rows.to_vec();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].valid, Interval::at(5, 14));
        assert_eq!(
            rows[0].values,
            vec![Value::Int(20), Value::Int(40), Value::Int(1), Value::Int(3)]
        );
        // The WHERE-shaped fallback scans the filtered tuples and must
        // agree exactly.
        let scanned = execute_str(
            &c,
            "SELECT COUNT(*), SUM(x), MIN(x), MAX(x) OVER [5, 15) FROM t WHERE x > 0",
        )
        .unwrap();
        assert!(!scanned.cache.served_from_cache);
        assert_eq!(scanned.rows, r.rows);
    }

    #[test]
    fn float_window_aggregates_reduce_by_duration_weight() {
        use crate::statement::execute_statement;
        let mut c = Catalog::new();
        execute_statement(&mut c, "CREATE TABLE t (x INT)").unwrap();
        execute_statement(
            &mut c,
            "INSERT INTO t VALUES (1) VALID [0, 9], (2) VALID [5, 14], (3) VALID [10, 19]",
        )
        .unwrap();
        // AVG series: [5,9]→1.5, [10,14]→2.5; the duration-weighted mean
        // over [5, 15) is 2.0.
        let r = execute_str(&c, "SELECT AVG(x) OVER [5, 15) FROM t").unwrap();
        assert_eq!(r.rows.to_vec()[0].values, vec![Value::Float(2.0)]);
    }

    #[test]
    fn window_queries_probe_the_index_over_a_warm_cache() {
        let mut c = Catalog::new();
        c.register("big", generate(&WorkloadConfig::random(4096)));
        // Warm the cache with an ordinary instant-grouped query.
        execute_str(&c, "SELECT SUM(salary) FROM big").unwrap();
        let sql = "SELECT SUM(salary) OVER [100000, 110000) FROM big";
        let explained = execute_str(&c, &format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(
            explained.plan.as_ref().unwrap().choice,
            AlgorithmChoice::IndexProbe
        );
        // First probe builds the index (a miss); the second hits it.
        let probed = execute_str(&c, sql).unwrap();
        assert!(probed.cache.served_from_cache);
        assert_eq!(probed.cache.index_misses, 1);
        assert_eq!(probed.cache.index_probes, 1);
        let again = execute_str(&c, sql).unwrap();
        assert_eq!(again.cache.index_hits, 1);
        assert_eq!(again.cache.index_misses, 0);
        assert_eq!(again.rows, probed.rows);
        // The probe is byte-identical to the linear fallback scan.
        let scanned = execute_str(
            &c,
            "SELECT SUM(salary) OVER [100000, 110000) FROM big WHERE salary > 0",
        )
        .unwrap();
        assert!(!scanned.cache.served_from_cache);
        assert_eq!(
            scanned.rows.to_vec()[0].values,
            probed.rows.to_vec()[0].values
        );
    }

    #[test]
    fn top_k_ranks_groups_and_tracks_dml() {
        use crate::statement::execute_statement;
        let mut c = Catalog::new();
        execute_statement(&mut c, "CREATE TABLE m (g INT, v INT)").unwrap();
        execute_statement(
            &mut c,
            "INSERT INTO m VALUES (1, 10) VALID [0, 9], (2, 6) VALID [0, 19], \
             (3, 1) VALID [0, 4]",
        )
        .unwrap();
        let sql = "SELECT TOP 2 BY SUM(v) OVER [0, 20) FROM m GROUP BY g";
        let top = execute_str(&c, sql).unwrap();
        assert!(top.cache.served_from_cache);
        assert_eq!(top.cache.index_misses, 1);
        assert_eq!(top.group_column.as_deref(), Some("g"));
        let rows = top.rows.to_vec();
        assert_eq!(rows.len(), 2);
        // g=2 integrates 6·20 = 120, g=1 integrates 10·10 = 100.
        assert_eq!(rows[0].group, Some(Value::Int(2)));
        assert_eq!(rows[0].values, vec![Value::Int(120)]);
        assert_eq!(rows[1].group, Some(Value::Int(1)));
        assert_eq!(rows[1].values, vec![Value::Int(100)]);
        // The WHERE-shaped fallback ranks every group linearly with the
        // same key and must agree.
        let scanned = execute_str(
            &c,
            "SELECT TOP 2 BY SUM(v) OVER [0, 20) FROM m WHERE v > 0 GROUP BY g",
        )
        .unwrap();
        assert!(!scanned.cache.served_from_cache);
        assert_eq!(scanned.rows, top.rows);
        // DML patches the group it writes to (g=3's cache and index, no
        // rebuild: the ranking after it is an index hit): a big insert
        // re-ranks.
        execute_statement(&mut c, "INSERT INTO m VALUES (3, 50) VALID [0, 19]").unwrap();
        let reranked = execute_str(&c, sql).unwrap();
        assert_eq!(reranked.cache.index_misses, 0);
        let rows = reranked.rows.to_vec();
        // g=3 now integrates 51·5 + 50·15 = 1005.
        assert_eq!(rows[0].group, Some(Value::Int(3)));
        assert_eq!(rows[0].values, vec![Value::Int(1005)]);
        assert_eq!(rows[1].group, Some(Value::Int(2)));
    }

    /// `Query`'s fields are public, so a ranking without an aggregate can
    /// be built by hand: a typed error, not a panic.
    #[test]
    fn top_k_without_an_aggregate_is_an_error() {
        let mut query =
            parse("SELECT TOP 2 BY SUM(salary) OVER [5, 25) FROM Employed GROUP BY name").unwrap();
        query.aggregates.clear();
        let err = execute_query(&catalog(), &query, &PlannerConfig::default()).unwrap_err();
        assert!(matches!(err, TempAggError::Sql { .. }), "{err:?}");
        // The mirror shapes: a grouped `OVER` without `TOP k` (on the index
        // path and, with a `WHERE`, on the linear one) and a `TOP k` without
        // `GROUP BY`.
        for sql in [
            "SELECT SUM(salary) OVER [5, 25) FROM Employed",
            "SELECT SUM(salary) OVER [5, 25) FROM Employed WHERE salary > 0",
        ] {
            let mut query = parse(sql).unwrap();
            query.group_column = Some("name".to_owned());
            let err = execute_query(&catalog(), &query, &PlannerConfig::default()).unwrap_err();
            assert!(matches!(err, TempAggError::Sql { .. }), "{sql}: {err:?}");
        }
        let mut query =
            parse("SELECT TOP 2 BY SUM(salary) OVER [5, 25) FROM Employed GROUP BY name").unwrap();
        query.group_column = None;
        let err = execute_query(&catalog(), &query, &PlannerConfig::default()).unwrap_err();
        assert!(matches!(err, TempAggError::Sql { .. }), "{err:?}");
    }

    #[test]
    fn window_and_top_k_queries_stream() {
        use crate::statement::execute_statement;
        let mut c = Catalog::new();
        execute_statement(&mut c, "CREATE TABLE t (g INT, x INT)").unwrap();
        execute_statement(
            &mut c,
            "INSERT INTO t VALUES (1, 4) VALID [0, 9], (2, 7) VALID [5, 14]",
        )
        .unwrap();
        for sql in [
            "SELECT SUM(x) OVER [0, 15) FROM t",
            "SELECT TOP 1 BY SUM(x) OVER [0, 15) FROM t GROUP BY g",
        ] {
            let materialized = execute_str(&c, sql).unwrap();
            let mut streamed = Vec::new();
            let summary = execute_streaming_str(&c, sql, |row| streamed.push(row)).unwrap();
            assert_eq!(streamed, materialized.rows, "{sql}");
            assert_eq!(summary.rows, materialized.rows.len());
        }
    }

    #[test]
    fn streaming_serves_from_cache_after_warmup() {
        let c = catalog();
        let sql = "SELECT COUNT(name), SUM(salary) FROM Employed";
        let materialized = execute_str(&c, sql).unwrap(); // warms
        let mut streamed = Vec::new();
        let summary = execute_streaming_str(&c, sql, |row| streamed.push(row)).unwrap();
        assert_eq!(
            summary.plan.as_ref().unwrap().choice,
            AlgorithmChoice::CachedSeries
        );
        assert_eq!(streamed, materialized.rows);
        assert_eq!(summary.rows, materialized.rows.len());
    }

    #[test]
    fn empty_filter_result_is_all_empty_intervals() {
        let result = execute_str(
            &catalog(),
            "SELECT COUNT(name) FROM Employed WHERE salary > 99999999",
        )
        .unwrap();
        // One coalesced row covering the whole time-line with count 0.
        let rows = result.rows.to_vec();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].valid, Interval::TIMELINE);
        assert_eq!(rows[0].values[0], Value::Int(0));
    }
}
