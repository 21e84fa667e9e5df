//! The router. [`route`] binds a parsed statement and maps it to the one
//! [`Path`] it runs — binding, the cache-eligibility test, the choice of
//! path and every plan that needs no row made there, once, before any row
//! is read or produced — and [`drive`] runs that path into a [`RowBuffer`],
//! or under `EXPLAIN` plans it as running it would and runs nothing. Every
//! entry point is a wrapper over the two: collecting, streaming, and
//! statement-level.

use crate::ast::{AggExpr, Query, Statement, TemporalGrouping};
use crate::catalog::Catalog;
use crate::exec::{
    bind_scan, cache_eligible, select_list, BoundScan, BoundWindow, CacheReport, Filter, Grouping,
    Planning, QueryResult,
};
use crate::rows::RowBuffer;
use crate::statement::{BoundJoin, BoundSelect, StatementOutput, Write};
use tempagg_agg::checked;
use tempagg_core::{Column, Result, Schema, TempAggError};
use tempagg_plan::{Plan, PlannerConfig};

/// The path a statement runs, decided before it runs: `EXPLAIN` prints
/// its [`name`](Path::name) first, and [`QueryResult::path`] and
/// [`StreamSummary::path`](crate::StreamSummary::path) report it. `Over*`
/// and `TopK*` name where a window's answer comes from; `Typed*` and `Dyn*`
/// are scans on `TypedMulti` and `MultiDyn`, by their temporal grouping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Path {
    Ddl,
    Dml,
    PlainSelect,
    Join,
    /// The store's cached series, read in place from pinned views.
    Served,
    OverIndexProbe,
    OverCachedSeries,
    OverScan,
    TopKGroupedIndex,
    TopKScan,
    TypedInstant,
    TypedSpan,
    TypedSnapshot,
    DynInstant,
    DynSpan,
    DynSnapshot,
}

impl Path {
    /// The path's name, as `EXPLAIN` prints it.
    pub fn name(self) -> &'static str {
        match self {
            Path::Ddl => "ddl",
            Path::Dml => "dml",
            Path::PlainSelect => "plain-select",
            Path::Join => "join",
            Path::Served => "served",
            Path::OverIndexProbe => "over-index-probe",
            Path::OverCachedSeries => "over-cached-series",
            Path::OverScan => "over-scan",
            Path::TopKGroupedIndex => "top-k-grouped-index",
            Path::TopKScan => "top-k-scan",
            Path::TypedInstant => "typed-scan-instant",
            Path::TypedSpan => "typed-scan-span-grouping",
            Path::TypedSnapshot => "typed-scan-snapshot",
            Path::DynInstant => "dyn-scan-instant",
            Path::DynSpan => "dyn-scan-span-grouping",
            Path::DynSnapshot => "dyn-scan-snapshot",
        }
    }
}

/// A statement bound to its path.
pub(crate) enum Route<'c, 'q> {
    /// `CREATE TABLE` and DML change the catalog, so they run with it held
    /// mutably.
    Write(Write<'q>),
    /// Every other statement reads: [`drive`] runs it.
    Read(Read<'c, 'q>),
}

/// A reading statement bound to its path.
pub(crate) struct Read<'c, 'q> {
    /// `EXPLAIN`: plan the path, run nothing.
    explain: bool,
    /// The aggregate query whose result this is; `None` for a plain
    /// `SELECT` or a join.
    query: Option<&'q Query>,
    /// The labels of the aggregates the result reports.
    labels: Vec<String>,
    arm: Arm<'c, 'q>,
}

enum Arm<'c, 'q> {
    Select(BoundSelect<'c>),
    /// Planned from the two sides' sizes.
    Join(BoundJoin<'c, 'q>),
    /// The caches hold every aggregate: read them, under the plan made from
    /// their size.
    Served(BoundScan<'c>, Plan),
    /// `OVER` or `TOP k`, planned, on the path its plan picks.
    Window(BoundWindow<'c>),
    /// A scan; `warm` when its result is what the caches would hold, so
    /// they are built from it.
    Scan {
        bound: BoundScan<'c>,
        grouping: Grouping<'static>,
        warm: bool,
    },
}

impl Arm<'_, '_> {
    fn path(&self) -> Path {
        match self {
            Arm::Select(_) => Path::PlainSelect,
            Arm::Join(_) => Path::Join,
            Arm::Served(..) => Path::Served,
            Arm::Window(window) => window.path,
            Arm::Scan {
                bound, grouping, ..
            } => bound.path(*grouping),
        }
    }

    /// The plan the path runs under, made as running it would make it; only
    /// an instant-grouped scan reads rows for it.
    fn plan(self) -> Result<Option<Plan>> {
        Ok(match self {
            Arm::Select(_) => None,
            Arm::Join(join) => Some(join.plan),
            Arm::Served(_, plan) => Some(plan),
            Arm::Window(window) => Some(window.plan),
            Arm::Scan {
                bound, grouping, ..
            } => bound.scan(grouping, None)?,
        })
    }
}

/// Bind `statement` and decide its path.
pub(crate) fn route<'c, 'q>(
    catalog: &'c Catalog,
    statement: &'q Statement,
    config: &PlannerConfig,
) -> Result<Route<'c, 'q>> {
    let (explain, arm) = match statement {
        Statement::Query(query) => return route_query(catalog, query, config).map(Route::Read),
        Statement::Select(select) => (false, Arm::Select(BoundSelect::bind(catalog, select)?)),
        Statement::Join(join) => (
            join.explain,
            Arm::Join(BoundJoin::bind(catalog, join, config)?),
        ),
        Statement::CreateTable {
            name,
            columns,
            persist,
        } => {
            // A name check: `store`, not `get`, which would read a persisted
            // table's rows into memory just to say they exist.
            if catalog.store(name).is_ok() {
                return Err(TempAggError::Sql {
                    line: 1,
                    column: 1,
                    detail: format!("relation `{name}` already exists"),
                });
            }
            let columns = columns.iter().map(|(n, t)| Column::new(n.clone(), *t));
            return Ok(Route::Write(Write::Create {
                name,
                schema: Schema::new(columns.collect())?,
                persist: persist.as_deref(),
            }));
        }
        Statement::Insert { relation, rows } => {
            // Every row is checked before any is written, so a failed
            // INSERT is atomic.
            let schema = catalog.store(relation)?.schema();
            for (values, _) in rows {
                schema.check(values)?;
            }
            return Ok(Route::Write(Write::Insert { relation, rows }));
        }
        Statement::Delete {
            relation,
            conditions,
            valid_window,
        } => {
            let schema = catalog.store(relation)?.schema();
            let filter = Filter::bind(schema, conditions, *valid_window)?;
            return Ok(Route::Write(Write::Delete { relation, filter }));
        }
        Statement::Update {
            relation,
            assignments,
            conditions,
            valid_window,
        } => {
            let schema = catalog.store(relation)?.schema();
            return Ok(Route::Write(Write::Update {
                relation,
                assignments: assignments
                    .iter()
                    .map(|(col, value)| Ok((schema.index_of_ignore_case(col)?, value.clone())))
                    .collect::<Result<_>>()?,
                filter: Filter::bind(schema, conditions, *valid_window)?,
            }));
        }
    };
    Ok(Route::Read(Read {
        explain,
        query: None,
        labels: Vec::new(),
        arm,
    }))
}

/// Bind an aggregate query and decide its path: `OVER` and `TOP k` by their
/// window plan; a shape the caches may answer is served once they hold
/// every aggregate, and scanned (then warmed) until they do; every other
/// shape is scanned, on the product aggregate its select list lowers to.
pub(crate) fn route_query<'c, 'q>(
    catalog: &'c Catalog,
    query: &'q Query,
    config: &PlannerConfig,
) -> Result<Read<'c, 'q>> {
    let arm = if query.window.is_some() || query.top_k.is_some() {
        Arm::Window(BoundWindow::bind(catalog, query, config)?)
    } else {
        let bound = bind_scan(catalog, query)?;
        let eligible = cache_eligible(query) && bound.cacheable();
        if eligible && bound.cached() {
            let plan = bound.plan_served(config);
            Arm::Served(bound, plan)
        } else {
            let grouping = match (query.snapshot, query.temporal_grouping) {
                (true, _) => Grouping::Snapshot,
                (false, TemporalGrouping::Span(len)) => Grouping::Span(len),
                (false, TemporalGrouping::Instant) => Grouping::Instant(Planning::Choose(*config)),
            };
            Arm::Scan {
                bound,
                grouping,
                warm: eligible,
            }
        }
    };
    Ok(Read {
        explain: query.explain,
        query: Some(query),
        labels: select_list(query).iter().map(AggExpr::label).collect(),
        arm,
    })
}

/// The one drive: run a routed statement's path into `out` — or, under
/// `EXPLAIN`, plan the path and run nothing. A scan whose integer `SUM`
/// leaves the `INT` range over some constant interval fails with
/// [`TempAggError::Overflow`], before it warms a cache.
pub(crate) fn drive(read: Read<'_, '_>, out: &mut RowBuffer<'_>) -> Result<StatementOutput> {
    let path = read.arm.path();
    let (plan, cache) = if read.explain {
        (read.arm.plan()?, CacheReport::default())
    } else {
        match read.arm {
            Arm::Select(select) => return select.run().map(StatementOutput::Tuples),
            Arm::Join(join) => return join.run().map(StatementOutput::Tuples),
            Arm::Served(bound, plan) => (Some(plan), bound.serve(out)?),
            Arm::Window(window) => {
                let cache = checked(|| window.run(out))??;
                (Some(window.plan), cache)
            }
            Arm::Scan {
                bound,
                grouping,
                warm,
            } => {
                let plan = checked(|| bound.scan(grouping, Some(&mut *out)))??;
                if warm {
                    bound.warm()?;
                }
                (plan, CacheReport::default())
            }
        }
    };
    out.flush();
    Ok(StatementOutput::Rows(QueryResult {
        group_column: read.query.and_then(|query| query.group_column.clone()),
        agg_labels: read.labels,
        rows: out.take_rows(),
        plan,
        path,
        explain_only: read.explain,
        snapshot: read.query.is_some_and(|query| query.snapshot),
        cache,
    }))
}

/// [`drive`] an aggregate query, whose every path answers with rows.
pub(crate) fn answer(read: Read<'_, '_>, out: &mut RowBuffer<'_>) -> Result<QueryResult> {
    match drive(read, out)? {
        StatementOutput::Rows(result) => Ok(result),
        other => Err(TempAggError::internal(format!(
            "an aggregate query answered with {other:?}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{execute_parsed_statement, execute_query, execute_str, execute_streaming};
    use crate::{parse, parse_statement};
    use tempagg_plan::AlgorithmChoice;
    use tempagg_workload::employed::employed_relation;
    use tempagg_workload::{generate, WorkloadConfig};

    /// Every path's slot in the coverage table below: a new path does not
    /// compile until it is given one, and the table must then reach it.
    fn slot(path: Path) -> usize {
        match path {
            Path::Ddl => 0,
            Path::Dml => 1,
            Path::PlainSelect => 2,
            Path::Join => 3,
            Path::Served => 4,
            Path::OverIndexProbe => 5,
            Path::OverCachedSeries => 6,
            Path::OverScan => 7,
            Path::TopKGroupedIndex => 8,
            Path::TopKScan => 9,
            Path::TypedInstant => 10,
            Path::TypedSpan => 11,
            Path::TypedSnapshot => 12,
            Path::DynInstant => 13,
            Path::DynSpan => 14,
            Path::DynSnapshot => 15,
        }
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("Employed", employed_relation());
        c.register("big", generate(&WorkloadConfig::random(4096)));
        c
    }

    /// One statement per path, cold and warm where the caches decide: the
    /// router names the path; `EXPLAIN` names it and plans as the execution
    /// that follows it under the same caches does; a stream of the query
    /// reports what the collected run did.
    #[test]
    fn explain_says_what_runs() {
        let config = PlannerConfig::default();
        let warm_count = Some("SELECT COUNT(*) FROM Employed");
        let window = "SELECT SUM(salary) OVER [100000, 110000) FROM big";
        let table: &[(Option<&str>, &str, Path)] = &[
            (None, "CREATE TABLE t (x INT)", Path::Ddl),
            (None, "INSERT INTO Employed VALUES ('Ada', 1) VALID [0, 5]", Path::Dml),
            (None, "DELETE FROM Employed WHERE name = 'Karen'", Path::Dml),
            (None, "UPDATE Employed SET salary = 1 WHERE salary > 40000", Path::Dml),
            (None, "SELECT name FROM Employed WHERE salary > 40000", Path::PlainSelect),
            (None, "SELECT * FROM Employed E JOIN big B ON OVERLAPS", Path::Join),
            (None, "SELECT COUNT(*) FROM Employed", Path::TypedInstant),
            (warm_count, "SELECT COUNT(*) FROM Employed", Path::Served),
            (None, "SELECT COUNT(name) FROM Employed", Path::DynInstant),
            (Some("SELECT COUNT(name) FROM Employed"), "SELECT COUNT(name) FROM Employed", Path::Served),
            // An Approximate-class list is never cached, warm or not.
            (None, "SELECT VARIANCE(salary) FROM Employed", Path::DynInstant),
            (Some("SELECT SUM(salary) FROM big"), window, Path::OverIndexProbe),
            (None, "SELECT SUM(salary) OVER [5, 25) FROM Employed", Path::OverCachedSeries),
            (warm_count, "SELECT COUNT(*) OVER [5, 25) FROM Employed", Path::OverCachedSeries),
            (None, "SELECT SUM(salary) OVER [5, 25) FROM Employed WHERE salary > 0", Path::OverScan),
            (None, "SELECT TOP 2 BY SUM(salary) OVER [5, 25) FROM Employed GROUP BY name", Path::TopKGroupedIndex),
            (None, "SELECT TOP 2 BY SUM(salary) OVER [5, 25) FROM Employed WHERE salary > 0 GROUP BY name", Path::TopKScan),
            (None, "SELECT SUM(salary) FROM Employed WHERE VALID OVERLAPS [0, 29] GROUP BY SPAN 10", Path::TypedSpan),
            (None, "SELECT SNAPSHOT SUM(salary), COUNT(*) FROM Employed", Path::TypedSnapshot),
            (warm_count, "SELECT SNAPSHOT COUNT(*) FROM Employed GROUP BY name", Path::TypedSnapshot),
            (None, "SELECT COUNT(DISTINCT name) FROM Employed WHERE VALID OVERLAPS [0, 29] GROUP BY SPAN 10", Path::DynSpan),
            (None, "SELECT SNAPSHOT COUNT(DISTINCT name) FROM Employed", Path::DynSnapshot),
        ];
        let mut reached = [false; 16];
        for &(warm, sql, want) in table {
            let mut catalog = catalog();
            if let Some(warm) = warm {
                execute_str(&catalog, warm).unwrap();
            }
            let statement = parse_statement(sql).unwrap();
            let path = match route(&catalog, &statement, &config).unwrap() {
                Route::Write(Write::Create { .. }) => Path::Ddl,
                Route::Write(_) => Path::Dml,
                Route::Read(read) => read.arm.path(),
            };
            assert_eq!(path, want, "{sql}");
            reached[slot(path)] = true;
            let explained = match execute_str(&catalog, &format!("EXPLAIN {sql}")) {
                Ok(explained) => explained,
                // `EXPLAIN` of DDL, DML and plain `SELECT` does not parse.
                Err(_) => {
                    execute_parsed_statement(&mut catalog, &statement, &config).unwrap();
                    continue;
                }
            };
            assert!(explained.explain_only && explained.rows.is_empty(), "{sql}");
            let text = explained.to_string();
            assert!(
                text.starts_with(&format!("path: {}\n", want.name())),
                "{text}"
            );
            let shown = |path: Path, plan: &Option<Plan>| (path, plan.as_ref().map(|p| p.choice));
            let Statement::Query(query) = &statement else {
                // A join's tuples carry no path; its plan is the one it ran.
                assert_eq!(
                    shown(explained.path, &explained.plan).1,
                    Some(AlgorithmChoice::SweepJoin)
                );
                continue;
            };
            let streaming = catalog.clone();
            let ran = execute_query(&catalog, query, &config).unwrap();
            let streamed = execute_streaming(&streaming, query, &config, 2, |_| {}).unwrap();
            let ran_shown = shown(ran.path, &ran.plan);
            assert_eq!(shown(explained.path, &explained.plan), ran_shown, "{sql}");
            assert_eq!(shown(streamed.path, &streamed.plan), ran_shown, "{sql}");
            let served = matches!(
                want,
                Path::Served
                    | Path::OverIndexProbe
                    | Path::OverCachedSeries
                    | Path::TopKGroupedIndex
            );
            assert_eq!(ran.cache.served_from_cache, served, "{sql}");
        }
        let unreached: Vec<usize> = (0..reached.len()).filter(|&i| !reached[i]).collect();
        assert!(
            unreached.is_empty(),
            "paths no statement took: slots {unreached:?}"
        );
    }

    /// `EXPLAIN` of a statement the caches would answer names the served
    /// path and plan, and asks only whether the caches are there: it takes
    /// no view, publishes no version and builds nothing.
    #[test]
    fn explaining_a_served_statement_touches_no_cache() {
        let mut catalog = catalog();
        let sql = "SELECT COUNT(*), SUM(salary) FROM Employed";
        execute_str(&catalog, sql).unwrap();
        // After a write the caches hold no published version: a view would
        // publish one.
        let insert = "INSERT INTO Employed VALUES ('Ada', 1) VALID [0, 5]";
        crate::execute_statement(&mut catalog, insert).unwrap();
        let store = catalog.store("Employed").unwrap();
        let before = store.cache_stats();
        let explained = execute_str(&catalog, &format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(store.cache_stats(), before);
        assert_eq!(explained.path, Path::Served);
        let plan = explained.plan.as_ref().unwrap();
        assert_eq!(plan.choice, AlgorithmChoice::CachedSeries);
        assert!(!explained.cache.served_from_cache, "nothing ran");
        let served = execute_str(&catalog, sql).unwrap();
        assert_eq!(
            (served.path, served.plan.as_ref()),
            (Path::Served, Some(plan))
        );
        assert_ne!(store.cache_stats(), before, "the execution published");
    }

    /// `EXPLAIN SELECT SNAPSHOT …` runs nothing: no rows, and the path line
    /// where a plan would be.
    #[test]
    fn explaining_a_snapshot_runs_nothing() {
        let query = parse("EXPLAIN SELECT SNAPSHOT AVG(salary) FROM Employed").unwrap();
        let explained = execute_query(&catalog(), &query, &PlannerConfig::default()).unwrap();
        assert!(explained.explain_only && explained.snapshot);
        assert!(explained.rows.is_empty() && explained.plan.is_none());
        assert_eq!(explained.to_string(), "path: typed-scan-snapshot\n");
    }
}
