//! Binding and execution of parsed queries.
//!
//! All aggregates of a select list run in ONE pass per aggregation set via
//! a product aggregate (Section 3 computes each scalar aggregate
//! separately, but the product of monoids is a monoid and every aggregate
//! sees the same tuples, so their constant intervals coincide and a single
//! tree construction or sweep serves every select-list entry). The scan
//! path is one borrowed pass: conditions are evaluated on `&Tuple` in
//! place, the interval is clipped to the `VALID` window, only the
//! referenced columns are projected, and the projected rows are appended
//! to per-group [`Chunk`]s that the chunk-fed executor consumes — no tuple
//! is cloned and no scratch relation is built. Select lists over `INT`
//! columns lower to the heap-free [`TypedMulti`]; everything else keeps
//! [`MultiDyn`]. Instant-grouped queries go through calibrated cost-based
//! selection ([`choose_algorithm`]), which extends the Section 6.3
//! optimizer with the columnar endpoint-sweep kernel, gated on the select
//! list's weakest retraction class; `GROUP BY SPAN n` uses the
//! span-grouping bucket algorithm; `GROUP BY col` partitions first and
//! evaluates per group (Section 4.1's "aggregation sets").

use crate::ast::{CompareOp, Query, TemporalGrouping};
use crate::catalog::Catalog;
use crate::display::write_table;
use crate::parser::parse;
use crate::rows::{GroupSink, ResultRow, ResultRows, RowBuffer};
use std::collections::BTreeMap;
use std::fmt;
use tempagg_agg::{
    AggKind, Aggregate, DynAggregate, MultiDyn, SweepAggregate, TypedInput, TypedMulti,
};
use tempagg_algo::{scan_window, SpanGrouper, TemporalAggregator, WindowAggregate};
use tempagg_core::{
    Chunk, Interval, Result, RowValues, Schema, Series, SeriesEntry, TempAggError,
    TemporalRelation, Tuple, Value, DEFAULT_CHUNK_CAPACITY,
};
use tempagg_plan::{
    choose_algorithm, choose_window_algorithm, execute_chunks_into, AlgorithmChoice, CacheReport,
    CachedSeriesInfo, CostModel, Plan, PlannerConfig, RelationStats,
};
use tempagg_store::{index_mode_for, IndexMode, TemporalStore, WindowIndexStats};

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
    /// The plan chosen for instant-grouped evaluation (`None` for span
    /// grouping, which is bucket-based).
    pub plan: Option<Plan>,
    /// `true` for `EXPLAIN` queries: `rows` is empty and `plan` describes
    /// what would run.
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
            return match &self.plan {
                Some(plan) => write!(f, "{plan}"),
                None => writeln!(f, "algorithm: span-grouping (bucket array)"),
            };
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

/// One select-list entry bound to the schema: the aggregate, its input
/// column (`None` for `COUNT(*)`), and its display label.
type BoundAgg = (DynAggregate, Option<usize>, String);

/// Resolve and type-check the select list against a schema.
fn bind_aggs(schema: &Schema, query: &Query) -> Result<Vec<BoundAgg>> {
    let mut bound_aggs: Vec<BoundAgg> = Vec::with_capacity(query.aggregates.len());
    for agg in &query.aggregates {
        let (idx, ty) = match &agg.column {
            Some(col) => {
                let i = schema.index_of_ignore_case(col)?;
                (Some(i), schema.columns()[i].ty)
            }
            None => (None, tempagg_core::ValueType::Int),
        };
        bound_aggs.push((DynAggregate::new(agg.kind, ty)?, idx, agg.label()));
    }
    Ok(bound_aggs)
}

/// A query bound to its relation: everything a scan needs that does not
/// depend on which product aggregate evaluates it.
struct BoundScan<'a> {
    relation: &'a TemporalRelation,
    conditions: Vec<(usize, CompareOp, Value)>,
    aggs: Vec<BoundAgg>,
    group_idx: Option<usize>,
    /// The `VALID` window: tuples are clipped to it and the result
    /// time-line is the window.
    domain: Interval,
}

/// Bind names: resolve and type-check conditions, aggregates and the
/// grouping column up front.
fn bind_scan<'a>(catalog: &'a Catalog, query: &Query) -> Result<BoundScan<'a>> {
    let relation = catalog.get(&query.relation)?;
    let schema = relation.schema();
    let mut conditions = Vec::with_capacity(query.conditions.len());
    for cond in &query.conditions {
        conditions.push((
            schema.index_of_ignore_case(&cond.column)?,
            cond.op,
            cond.value.clone(),
        ));
    }
    Ok(BoundScan {
        relation,
        conditions,
        aggs: bind_aggs(schema, query)?,
        group_idx: query
            .group_column
            .as_deref()
            .map(|c| schema.index_of_ignore_case(c))
            .transpose()?,
        domain: query.valid_window.unwrap_or(Interval::TIMELINE),
    })
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

/// The aggregation set of `key`, opened (the key cloned once) at its
/// first tuple.
fn group_of<'m, 'a, V>(
    sets: &'m mut BTreeMap<&'a Value, Group<V>>,
    key: &'a Value,
) -> &'m mut Group<V> {
    sets.entry(key)
        .or_insert_with(|| Group::new(Some(key.clone())))
}

/// Filter on WHERE + VALID, clip, project and partition into aggregation
/// sets in one borrowed pass over the relation. Ungrouped queries have
/// exactly one set, which exists even when no tuple qualifies (its result
/// is the empty aggregate over the whole window); value-grouped queries
/// have one per distinct grouping value, ascending.
fn project_groups<V>(
    bound: &BoundScan<'_>,
    project: impl Fn(&Tuple) -> V,
) -> Result<Vec<Group<V>>> {
    let mut whole = Group::new(None);
    let mut sets: BTreeMap<&Value, Group<V>> = BTreeMap::new();
    // lint: hot-loop(scan-project) — per tuple: evaluate, clip, project, append; never a Tuple clone or a relation push
    'tuples: for tuple in bound.relation {
        for (idx, op, value) in &bound.conditions {
            if !op.eval(tuple.value(*idx), value) {
                continue 'tuples;
            }
        }
        let Some(valid) = tuple.valid().intersect(&bound.domain) else {
            continue;
        };
        let set = match bound.group_idx {
            None => &mut whole,
            Some(idx) => group_of(&mut sets, tuple.value(idx)),
        };
        set.push(valid, project(tuple))?;
    }
    Ok(match bound.group_idx {
        None => vec![whole],
        Some(_) => sets.into_values().collect(),
    })
}

/// [`MultiDyn`]'s input: one cloned [`Value`] per select-list entry.
fn project_values(columns: &[Option<usize>], tuple: &Tuple) -> Vec<Value> {
    columns
        .iter()
        .map(|column| match column {
            Some(i) => tuple.value(*i).clone(),
            // COUNT(*): any non-null marker.
            None => Value::Bool(true),
        })
        .collect()
}

/// [`TypedMulti`]'s input: the referenced `INT` cells copied inline, NULLs
/// (and `COUNT(*)`'s unused slot) left absent.
fn project_typed(columns: &[Option<usize>], tuple: &Tuple) -> TypedInput {
    let mut input = TypedInput::default();
    for (slot, column) in columns.iter().enumerate() {
        if let Some(Value::Int(v)) = column.map(|i| tuple.value(i)) {
            input.set(slot, *v);
        }
    }
    input
}

/// Where a scan's plan comes from, and with it whether its rows coalesce.
#[derive(Clone, Copy)]
enum Planning<'a> {
    /// Choose by cost from the largest aggregation set; coalesce the rows
    /// (TSQL2 results).
    Choose(&'a PlannerConfig),
    /// Run every aggregation set under this plan and keep every constant
    /// interval: the `OVER` / `TOP k` linear fallbacks reduce the
    /// uncoalesced series.
    Given(&'a Plan),
}

/// What executing a query reports besides the rows it pushed: everything
/// [`QueryResult`] and [`StreamSummary`] carry that the query text does
/// not already say.
struct Outcome {
    agg_labels: Vec<String>,
    /// The plan that ran — under `EXPLAIN`, would run (`None` for span
    /// grouping and `SNAPSHOT`, which do not plan).
    plan: Option<Plan>,
    /// Whether (and how) the store's caches and indexes answered.
    cache: CacheReport,
}

/// Execute the scan arm of a query: bind, then run [`scan`] on the typed
/// product aggregate when the select list lowers to one and on
/// [`MultiDyn`] otherwise — the only place that choice is made — pushing
/// result rows to `out` in (group, time) order.
fn run_scan(
    catalog: &Catalog,
    query: &Query,
    planning: Planning<'_>,
    out: &mut RowBuffer<'_>,
) -> Result<Outcome> {
    let bound = bind_scan(catalog, query)?;
    let members: Vec<DynAggregate> = bound.aggs.iter().map(|(a, _, _)| *a).collect();
    let columns: Vec<Option<usize>> = bound.aggs.iter().map(|(_, idx, _)| *idx).collect();
    let plan = match TypedMulti::lower(&members) {
        Some(typed) => {
            let project = |t: &Tuple| project_typed(&columns, t);
            scan(&bound, query, typed, project, planning, out)?
        }
        None => {
            let project = |t: &Tuple| project_values(&columns, t);
            scan(
                &bound,
                query,
                MultiDyn::new(members),
                project,
                planning,
                out,
            )?
        }
    };
    // An eligible scan saw the whole relation unfiltered, so its result is
    // exactly what a cache would hold: warm one per aggregate and let the
    // next execution serve snapshots.
    if cache_eligible(query) {
        let store = catalog.store(&query.relation)?;
        for (agg, idx, _) in &bound.aggs {
            store.ensure_cache(*agg, *idx);
        }
    }
    Ok(Outcome {
        agg_labels: bound.aggs.into_iter().map(|(_, _, l)| l).collect(),
        plan,
        cache: CacheReport::default(),
    })
}

/// One scan, generic over the product aggregate: project the relation
/// into aggregation sets, then evaluate each — `SNAPSHOT` as a scalar
/// fold, instant grouping through the chunk-fed executor under one plan
/// made from the largest set (the sets share the input's ordering
/// characteristics), span grouping through the bucket array. Returns the
/// plan the sets ran under (`None` for span grouping and `SNAPSHOT`).
fn scan<A>(
    bound: &BoundScan<'_>,
    query: &Query,
    agg: A,
    project: impl Fn(&Tuple) -> A::Input,
    planning: Planning<'_>,
    out: &mut RowBuffer<'_>,
) -> Result<Option<Plan>>
where
    A: SweepAggregate + Clone + Send,
    A::State: Send,
    A::Input: Clone + Send + Sync,
    A::Output: Into<RowValues> + PartialEq + Send,
{
    let groups = project_groups(bound, project)?;

    // SNAPSHOT: scalar aggregates over each set's full tuple set
    // (Section 3 semantics) — no temporal grouping at all.
    if query.snapshot {
        for group in &groups {
            let mut state = agg.empty_state();
            for input in group.chunks.iter().flat_map(Chunk::values) {
                agg.insert(&mut state, input);
            }
            out.push(ResultRow {
                group: group.key.clone(),
                valid: bound.domain,
                values: agg.finish(&state).into(),
            });
        }
        return Ok(None);
    }

    match query.temporal_grouping {
        TemporalGrouping::Instant => {
            let the_plan = match planning {
                Planning::Given(plan) => plan.clone(),
                Planning::Choose(config) => {
                    let representative = groups
                        .iter()
                        .max_by_key(|g| g.rows)
                        .map_or_else(Vec::new, Group::intervals);
                    // Calibrated cost-based selection: the select list's
                    // weakest retraction class gates whether the endpoint
                    // sweep competes.
                    choose_algorithm(
                        &RelationStats::analyze_intervals(&representative),
                        agg.sweep_class(),
                        config,
                        &CostModel::default(),
                        agg.state_model_bytes().max(4),
                    )
                }
            };
            if !query.explain {
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
                        bound.domain,
                        &mut sink,
                    )?;
                }
            }
            Ok(Some(the_plan))
        }
        TemporalGrouping::Span(_) if query.explain => Ok(None),
        TemporalGrouping::Span(len) => {
            // Spans need a bounded window: the VALID clause, or the
            // relation's lifespan.
            let window = span_window(query.valid_window, &groups, len)?;
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
    }
}

/// The one dispatcher. Every query, collected or streamed, takes the
/// first arm that applies — `TOP k` ranking, `OVER` window, cache serve,
/// scan — and pushes its rows to `out` in (group, time) order.
fn run(
    catalog: &Catalog,
    query: &Query,
    config: &PlannerConfig,
    out: &mut RowBuffer<'_>,
) -> Result<Outcome> {
    // `TOP k BY … OVER` and plain `OVER` windows collapse history into
    // scalar rows; they have their own index-served paths.
    let outcome = if query.top_k.is_some() {
        run_top_k(catalog, query, config, out)?
    } else if let Some(window) = query.window {
        run_window(catalog, query, window, config, out)?
    } else {
        // Serve from the store's aggregate caches when the query shape
        // allows it and every selected aggregate is cached: an MVCC
        // snapshot answers without scanning the relation. The first
        // eligible execution takes the scan arm and warms the caches.
        let served = if cache_eligible(query) {
            serve(catalog.store(&query.relation)?, query, config, out)?
        } else {
            None
        };
        match served {
            Some(outcome) => outcome,
            None => run_scan(catalog, query, Planning::Choose(config), out)?,
        }
    };
    out.flush();
    Ok(outcome)
}

/// Execute a parsed query: [`run`] into a collecting buffer.
pub fn execute_query(
    catalog: &Catalog,
    query: &Query,
    config: &PlannerConfig,
) -> Result<QueryResult> {
    let mut out = RowBuffer::collecting();
    let outcome = run(catalog, query, config, &mut out)?;
    Ok(QueryResult {
        group_column: query.group_column.clone(),
        agg_labels: outcome.agg_labels,
        rows: out.into_rows(),
        plan: outcome.plan,
        // SNAPSHOT has no plan to explain and answers regardless.
        explain_only: query.explain && !query.snapshot,
        snapshot: query.snapshot,
        cache: outcome.cache,
    })
}

/// Whether a query can be answered from store-maintained aggregate
/// caches: instant grouping over the whole relation — no conditions,
/// valid window, or value grouping to change what the caches cover —
/// and an actual execution (EXPLAIN never builds or consults caches).
fn cache_eligible(query: &Query) -> bool {
    !query.explain
        && !query.snapshot
        && query.conditions.is_empty()
        && query.valid_window.is_none()
        && query.group_column.is_none()
        && query.window.is_none()
        && query.top_k.is_none()
        && matches!(query.temporal_grouping, TemporalGrouping::Instant)
}

/// Answer an eligible query from MVCC snapshots of the store's aggregate
/// caches, or `None` — with nothing pushed — when any selected aggregate
/// is not cached yet (or, which no store produces, the cached series
/// disagree on their constant intervals).
fn serve(
    store: &TemporalStore,
    query: &Query,
    config: &PlannerConfig,
    out: &mut RowBuffer<'_>,
) -> Result<Option<Outcome>> {
    let bound_aggs = bind_aggs(store.schema(), query)?;
    // Checked first: taking a snapshot publishes a version.
    if !bound_aggs
        .iter()
        .all(|(agg, idx, _)| store.has_cache(agg.kind(), *idx))
    {
        return Ok(None);
    }
    let mut snapshots = Vec::with_capacity(bound_aggs.len());
    for (agg, idx, _) in &bound_aggs {
        match store.snapshot(agg.kind(), *idx) {
            Some(snapshot) => snapshots.push(snapshot),
            None => return Ok(None),
        }
    }
    let runs = snapshots.first().map_or(0, |series| series.len());
    // The snapshots themselves are the answer; a result row exists once
    // its reader reaches it.
    if !out.serve(snapshots) {
        return Ok(None);
    }

    // Record the served plan through the ordinary cost-based chooser:
    // with `cached_series` present the cached-series candidate wins, and
    // the rationale explains why no scan ran.
    let multi = MultiDyn::new(bound_aggs.iter().map(|(a, _, _)| *a).collect());
    let stats = RelationStats::unknown(store.len()).with_cached_series(CachedSeriesInfo {
        runs,
        epoch: store.epoch().get(),
    });
    let the_plan = choose_algorithm(
        &stats,
        multi.sweep_class(),
        config,
        &CostModel::default(),
        multi.state_model_bytes().max(4),
    );

    let cache_stats = store.cache_stats();
    Ok(Some(Outcome {
        agg_labels: bound_aggs.into_iter().map(|(_, _, l)| l).collect(),
        plan: Some(the_plan),
        cache: CacheReport {
            served_from_cache: true,
            patched_runs: cache_stats.patched_runs,
            recomputed_windows: cache_stats.recomputed_windows,
            ..CacheReport::default()
        },
    }))
}

/// The scalar a window query reports for an index-served aggregate:
/// Delta kinds report the time integral `Σ value·duration` (e.g.
/// person-instants for `COUNT`), the ordered extremes report the
/// window's `MIN`/`MAX`.
fn window_value(agg: &DynAggregate, wa: &WindowAggregate) -> Value {
    match index_mode_for(agg) {
        Some(IndexMode::Extremes) if agg.kind() == AggKind::Min => wa.min.clone(),
        Some(IndexMode::Extremes) => wa.max.clone(),
        _ => wa.integral_value(),
    }
}

/// The key `TOP k BY` ranks groups with — identical to the bound the
/// grouped index prunes on: the integral for Delta kinds, the window
/// maximum for the extremes (so `TOP k BY MIN` ranks groups by their
/// best instantaneous minimum).
fn rank_value(agg: &DynAggregate, wa: &WindowAggregate) -> Value {
    match index_mode_for(agg) {
        Some(IndexMode::Extremes) => wa.max.clone(),
        _ => wa.integral_value(),
    }
}

/// Reduce one aggregate's series over a window linearly. Exact kinds go
/// through the index's scan oracle so the linear and indexed paths agree
/// byte-for-byte; inexact float kinds compute the duration-weighted
/// combine in `f64` (`Σ value·duration` for `SUM`, the weighted mean for
/// the `AVG` family).
fn window_scalar(agg: &DynAggregate, series: &Series<Value>, window: Interval) -> Value {
    if index_mode_for(agg).is_some() {
        return window_value(agg, &scan_window(series, window));
    }
    let mut weighted = 0.0f64;
    let mut covered = 0.0f64;
    for entry in series.entries() {
        let Some(clip) = entry.interval.intersect(&window) else {
            continue;
        };
        let Some(v) = entry.value.as_f64() else {
            continue;
        };
        let d = clip.duration() as f64;
        weighted += v * d;
        covered += d;
    }
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

/// Plan an `OVER` / `TOP k` query. With `cached_runs` — a clean shape,
/// so the store's cached series (warm, or buildable on first probe)
/// answers it — the series and, when `indexable`, its window index are
/// candidates; otherwise plan a scan over the filtered tuples.
fn plan_window(
    store: &TemporalStore,
    cached_runs: Option<usize>,
    multi: &MultiDyn,
    indexable: bool,
    config: &PlannerConfig,
) -> Plan {
    let stats = match cached_runs {
        Some(runs) => RelationStats::unknown(store.len()).with_cached_series(CachedSeriesInfo {
            runs,
            epoch: store.epoch().get(),
        }),
        None => RelationStats::analyze(store.relation()),
    };
    choose_window_algorithm(
        &stats,
        multi.sweep_class(),
        indexable && cached_runs.is_some(),
        config,
        &CostModel::default(),
        multi.state_model_bytes().max(4),
    )
}

/// What the store's window indexes did for a query: how far their
/// counters moved since `before`, taken as the query started probing.
fn index_report(store: &TemporalStore, before: WindowIndexStats) -> CacheReport {
    let after = store.windex_stats();
    CacheReport {
        served_from_cache: true,
        index_hits: after.hits - before.hits,
        index_misses: after.misses - before.misses,
        index_probes: after.probes - before.probes,
        ..CacheReport::default()
    }
}

/// Execute `SELECT aggs OVER [a, b] FROM r`: collapse each aggregate's
/// history over the window into one scalar row. Clean shapes go through
/// the store's `O(log n)` segment-tree window index (built and cached on
/// first probe); WHERE / VALID shapes and inexact float aggregates
/// compute the series and reduce the window linearly.
fn run_window(
    catalog: &Catalog,
    query: &Query,
    window: Interval,
    config: &PlannerConfig,
    out: &mut RowBuffer<'_>,
) -> Result<Outcome> {
    let store = catalog.store(&query.relation)?;
    let bound_aggs = bind_aggs(store.schema(), query)?;
    let agg_labels: Vec<String> = bound_aggs.iter().map(|(_, _, l)| l.clone()).collect();
    let multi = MultiDyn::new(bound_aggs.iter().map(|(a, _, _)| *a).collect());
    let clean_shape = query.conditions.is_empty() && query.valid_window.is_none();
    let indexable = bound_aggs
        .iter()
        .all(|(agg, _, _)| index_mode_for(agg).is_some());
    // Planning needs the series' size, not the series: no snapshot, so a
    // probe after a write publishes nothing.
    let cached_runs = clean_shape.then(|| {
        bound_aggs
            .first()
            .and_then(|(a, i, _)| store.cached_runs(a.kind(), *i))
            .unwrap_or_else(|| store.len().max(1))
    });
    let the_plan = plan_window(store, cached_runs, &multi, indexable, config);

    let mut cache = CacheReport::default();
    if !query.explain {
        let mut values = RowValues::new();
        match the_plan.choice {
            AlgorithmChoice::IndexProbe => {
                let before = store.windex_stats();
                for (agg, idx, _) in &bound_aggs {
                    let probed = store.window_probe(agg.kind(), *idx, window)?;
                    values.push(window_value(agg, &probed));
                }
                cache = index_report(store, before);
            }
            AlgorithmChoice::CachedSeries => {
                for (agg, idx, _) in &bound_aggs {
                    let series = store.snapshot_or_build(*agg, *idx);
                    values.push(window_scalar(agg, &series, window));
                }
                cache.served_from_cache = true;
            }
            _ => {
                // OVER queries never value-group, so the scan has exactly
                // one aggregation set and its rows are one series.
                let mut series = RowBuffer::collecting();
                run_scan(catalog, query, Planning::Given(&the_plan), &mut series)?;
                for (j, (agg, _, _)) in bound_aggs.iter().enumerate() {
                    values.push(window_scalar(agg, &column_series(&series.rows, j), window));
                }
            }
        }
        out.push(ResultRow {
            group: None,
            valid: window,
            values,
        });
    }
    Ok(Outcome {
        agg_labels,
        plan: Some(the_plan),
        cache,
    })
}

/// Execute `SELECT TOP k BY agg(col) OVER [a, b] FROM r GROUP BY g`:
/// rank the distinct grouping values by their windowed aggregate and
/// keep the k best. Clean shapes go through the store's one window index
/// per group with a shared bound heap (most groups are pruned by their
/// `O(1)` root bound); WHERE / VALID shapes and inexact float aggregates
/// sweep every group and rank linearly.
fn run_top_k(
    catalog: &Catalog,
    query: &Query,
    config: &PlannerConfig,
    out: &mut RowBuffer<'_>,
) -> Result<Outcome> {
    let (Some(k), Some(window), Some(group_col)) =
        (query.top_k, query.window, query.group_column.as_deref())
    else {
        return Err(TempAggError::internal(
            "TOP-k queries carry OVER and GROUP BY by construction",
        ));
    };
    let store = catalog.store(&query.relation)?;
    let bound_aggs = bind_aggs(store.schema(), query)?;
    let (agg, column, label) = bound_aggs[0].clone();
    let group_idx = store.schema().index_of_ignore_case(group_col)?;
    let clean_shape = query.conditions.is_empty() && query.valid_window.is_none();
    let indexable = index_mode_for(&agg).is_some();
    let use_index = clean_shape && indexable;
    let cached_runs = use_index.then(|| store.len().max(1));
    let the_plan = plan_window(
        store,
        cached_runs,
        &MultiDyn::new(vec![agg]),
        indexable,
        config,
    );

    let mut cache = CacheReport::default();
    if query.explain {
        // The plan is the answer.
    } else if use_index {
        let before = store.windex_stats();
        let (ranked, _probes) = store.top_k_by_window(agg.kind(), column, group_idx, window, k)?;
        cache = index_report(store, before);
        for (group, wa) in ranked {
            out.push(ResultRow {
                group: Some(group),
                valid: window,
                values: std::iter::once(rank_value(&agg, &wa)).collect(),
            });
        }
    } else {
        // Linear fallback: sweep every group, reduce each window, rank by
        // the same key the grouped index prunes on.
        let mut series = RowBuffer::collecting();
        run_scan(catalog, query, Planning::Given(&the_plan), &mut series)?;
        let mut scored: Vec<(Value, Value)> = Vec::new();
        let mut rest: &[ResultRow] = &series.rows;
        while let Some(first) = rest.first() {
            // Rows arrive in (group, time) order: one run per group.
            let len = rest.iter().take_while(|r| r.group == first.group).count();
            let (group_rows, tail) = rest.split_at(len);
            let projected = column_series(group_rows, 0);
            let scalar = if indexable {
                rank_value(&agg, &scan_window(&projected, window))
            } else {
                window_scalar(&agg, &projected, window)
            };
            scored.push((first.group.clone().unwrap_or(Value::Null), scalar));
            rest = tail;
        }
        // Stable sort: ties keep the ascending group order, matching the
        // grouped index's lowest-group-first tie-break.
        scored.sort_by(|a, b| b.1.cmp(&a.1));
        scored.truncate(k);
        for (group, value) in scored {
            out.push(ResultRow {
                group: Some(group),
                valid: window,
                values: std::iter::once(value).collect(),
            });
        }
    }
    Ok(Outcome {
        agg_labels: vec![label],
        plan: Some(the_plan),
        cache,
    })
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
/// because both are [`run`] and differ only in the buffer they hand it.
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
    let outcome = run(catalog, query, config, &mut out)?;
    Ok(StreamSummary {
        group_column: query.group_column.clone(),
        agg_labels: outcome.agg_labels,
        rows: out.produced,
        plan: outcome.plan,
        peak_resident_result_entries: out.peak,
        emitted_chunks: out.drains,
    })
}

/// The bounded window span grouping buckets: the VALID clause when
/// bounded, otherwise the hull of the groups' lifespans.
fn span_window<V>(
    valid_window: Option<Interval>,
    groups: &[Group<V>],
    len: i64,
) -> Result<Interval> {
    match valid_window {
        Some(w) if !w.end().is_forever() => Ok(w),
        Some(_) | None => {
            let hull = groups
                .iter()
                .filter_map(Group::lifespan)
                .reduce(|a, b| a.hull(&b))
                .ok_or(TempAggError::InvalidSpan { length: len })?;
            if hull.end().is_forever() {
                return Err(TempAggError::InvalidSpan { length: len });
            }
            Ok(hull)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let relation = generate(&WorkloadConfig::random(20_000));
        let mut c = Catalog::new();
        c.register("big", relation.clone());
        let sql = "SELECT COUNT(Name), SUM(salary) FROM big";
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
