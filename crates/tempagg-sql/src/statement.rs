//! Execution of non-aggregate statements: CREATE TABLE, INSERT, DELETE,
//! UPDATE, plain SELECT, and interval joins. Aggregate queries delegate to
//! [`crate::execute_query`]. `DELETE`, `UPDATE` and plain `SELECT` admit
//! tuples through the same bound [`Filter`] an aggregate scan does.

use crate::ast::{JoinSelect, PlainSelect, Statement};
use crate::catalog::Catalog;
use crate::display::write_table;
use crate::exec::{execute_query, CacheReport, Filter, QueryResult};
use crate::parser::parse_statement;
use crate::rows::ResultRows;
use std::fmt;
use tempagg_algo::{JoinPair, SweepJoinOperator};
use tempagg_core::{Interval, Result, Schema, SeriesSink, TempAggError, Tuple, Value};
use tempagg_plan::{plan_join, CostModel, PlannerConfig, RelationStats};
use tempagg_store::Row;

/// A plain-SELECT result: projected attribute values plus valid time.
#[derive(Clone, Debug, PartialEq)]
pub struct TupleTable {
    pub columns: Vec<String>,
    pub rows: Vec<(Vec<Value>, Interval)>,
}

impl fmt::Display for TupleTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut header: Vec<String> = self.columns.clone();
        header.push("VALID".to_owned());
        let cells = self.rows.iter().map(|(values, valid)| {
            let mut cells: Vec<String> = values.iter().map(Value::to_string).collect();
            cells.push(valid.to_string());
            cells
        });
        write_table(f, &header, cells)
    }
}

/// The result of executing one statement.
#[derive(Clone, Debug, PartialEq)]
pub enum StatementOutput {
    /// Aggregate-query result (or EXPLAIN).
    Rows(QueryResult),
    /// Plain-SELECT result.
    Tuples(TupleTable),
    /// `CREATE TABLE` succeeded.
    Created { name: String },
    /// `INSERT` succeeded.
    Inserted { relation: String, count: usize },
    /// `DELETE` succeeded; `count` tuples were removed.
    Deleted { relation: String, count: usize },
    /// `UPDATE` succeeded; `count` tuples were rewritten.
    Updated { relation: String, count: usize },
}

impl fmt::Display for StatementOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatementOutput::Rows(result) => write!(f, "{result}"),
            StatementOutput::Tuples(table) => write!(f, "{table}"),
            StatementOutput::Created { name } => writeln!(f, "created table {name}"),
            StatementOutput::Inserted { relation, count } => {
                writeln!(f, "inserted {count} tuple(s) into {relation}")
            }
            StatementOutput::Deleted { relation, count } => {
                writeln!(f, "deleted {count} tuple(s) from {relation}")
            }
            StatementOutput::Updated { relation, count } => {
                writeln!(f, "updated {count} tuple(s) in {relation}")
            }
        }
    }
}

/// Parse and execute one statement, with default planner settings.
pub fn execute_statement(catalog: &mut Catalog, sql: &str) -> Result<StatementOutput> {
    execute_parsed_statement(catalog, &parse_statement(sql)?, &PlannerConfig::default())
}

/// Execute a parsed statement.
pub fn execute_parsed_statement(
    catalog: &mut Catalog,
    statement: &Statement,
    config: &PlannerConfig,
) -> Result<StatementOutput> {
    match statement {
        Statement::Query(query) => execute_query(catalog, query, config).map(StatementOutput::Rows),
        Statement::Select(select) => plain_select(catalog, select).map(StatementOutput::Tuples),
        Statement::Join(join) => interval_join(catalog, join, config),
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
            let schema = Schema::new(
                columns
                    .iter()
                    .map(|(n, t)| tempagg_core::Column::new(n.clone(), *t))
                    .collect(),
            )?;
            match persist {
                Some(path) => {
                    let path = std::path::Path::new(path);
                    let store = if tempagg_core::pager::exists(path) {
                        let store = tempagg_store::TemporalStore::open(path)?;
                        if store.schema().as_ref() != schema.as_ref() {
                            return Err(TempAggError::Sql {
                                line: 1,
                                column: 1,
                                detail: format!(
                                    "`{}` holds a relation with a different schema than the \
                                     CREATE TABLE declares",
                                    path.display()
                                ),
                            });
                        }
                        store
                    } else {
                        let mut store = tempagg_store::TemporalStore::with_schema(schema);
                        store.persist_to(path.to_path_buf())?;
                        store
                    };
                    catalog.register_store(name.clone(), store);
                }
                None => {
                    catalog.register(name.clone(), tempagg_core::TemporalRelation::new(schema));
                }
            }
            Ok(StatementOutput::Created { name: name.clone() })
        }
        Statement::Insert { relation, rows } => {
            let store = catalog.store_mut(relation)?;
            // Validate every row before mutating, so a failed INSERT is
            // atomic.
            for (values, _) in rows {
                store.schema().check(values)?;
            }
            for (values, valid) in rows {
                store.insert(values.clone(), *valid)?;
            }
            write_through(store)?;
            Ok(StatementOutput::Inserted {
                relation: relation.clone(),
                count: rows.len(),
            })
        }
        Statement::Delete {
            relation,
            conditions,
            valid_window,
        } => {
            let store = catalog.store_mut(relation)?;
            let filter = Filter::bind(store.schema(), conditions, *valid_window)?;
            let count = store.delete_where(|tuple| filter.admit(Row::Tuple(tuple)).is_some())?;
            write_through(store)?;
            Ok(StatementOutput::Deleted {
                relation: relation.clone(),
                count,
            })
        }
        Statement::Update {
            relation,
            assignments,
            conditions,
            valid_window,
        } => {
            let store = catalog.store_mut(relation)?;
            let schema = store.schema();
            let bound_assignments: Vec<(usize, Value)> = assignments
                .iter()
                .map(|(col, value)| Ok((schema.index_of_ignore_case(col)?, value.clone())))
                .collect::<Result<_>>()?;
            let filter = Filter::bind(schema, conditions, *valid_window)?;
            let count = store.update_where(
                |tuple| filter.admit(Row::Tuple(tuple)).is_some(),
                &bound_assignments,
            )?;
            write_through(store)?;
            Ok(StatementOutput::Updated {
                relation: relation.clone(),
                count,
            })
        }
    }
}

/// Flush a store created with `PERSIST TO` after a DML statement; a
/// memory-only store is left alone.
fn write_through(store: &mut tempagg_store::TemporalStore) -> Result<()> {
    if store.backing().is_some() {
        store.flush()?;
    }
    Ok(())
}

/// Execute (or EXPLAIN) an interval join on the sweep-based
/// [`SweepJoinOperator`]: co-sort both relations' endpoint events —
/// `p`-way partitioned when [`plan_join`] prescribes it — and enumerate
/// co-live pairs. Result columns are both sides' attributes qualified by
/// alias (or relation name); each row's valid time is the intersection of
/// the joined tuples' intervals.
fn interval_join(
    catalog: &Catalog,
    join: &JoinSelect,
    config: &PlannerConfig,
) -> Result<StatementOutput> {
    // The sweep join is priced from the two sides' sizes alone, so the
    // plan (and `EXPLAIN`) reads no row of either.
    let plan = plan_join(
        &RelationStats::unknown(catalog.store(&join.left)?.len()),
        &RelationStats::unknown(catalog.store(&join.right)?.len()),
        config,
        &CostModel::default(),
    );
    if join.explain {
        return Ok(StatementOutput::Rows(QueryResult {
            group_column: None,
            agg_labels: Vec::new(),
            rows: ResultRows::default(),
            plan: Some(plan),
            explain_only: true,
            snapshot: false,
            cache: CacheReport::default(),
        }));
    }

    let (left, right) = (catalog.get(&join.left)?, catalog.get(&join.right)?);
    let mut columns = Vec::with_capacity(left.schema().len() + right.schema().len());
    for (qualifier, schema) in [
        (join.left_qualifier(), left.schema()),
        (join.right_qualifier(), right.schema()),
    ] {
        columns.extend(
            schema
                .columns()
                .iter()
                .map(|c| format!("{qualifier}.{}", c.name)),
        );
    }

    let mut operator =
        SweepJoinOperator::new(join.predicate).with_parallelism(plan.parallelism.max(1));
    for tuple in left {
        operator.push_left(tuple.valid())?;
    }
    for tuple in right {
        operator.push_right(tuple.valid())?;
    }
    // Pairs leave the operator straight into result rows; the pair list
    // itself is never materialized.
    let mut sink = JoinRows {
        left: left.tuples(),
        right: right.tuples(),
        rows: Vec::new(),
    };
    operator.finish_into(&mut sink);
    let rows = sink.rows;
    Ok(StatementOutput::Tuples(TupleTable { columns, rows }))
}

/// The join's result sink: each emitted pair becomes the two tuples'
/// attributes side by side, valid over the pair's intersection.
struct JoinRows<'a> {
    left: &'a [Tuple],
    right: &'a [Tuple],
    rows: Vec<(Vec<Value>, Interval)>,
}

impl SeriesSink<JoinPair> for JoinRows<'_> {
    fn accept(&mut self, interval: Interval, pair: JoinPair) {
        // lint: allow(indexing): pair indices are the operator's push order, i.e. positions in these slices
        let (l, r) = (
            self.left[pair.left].values(),
            self.right[pair.right].values(),
        );
        let mut values = Vec::with_capacity(l.len() + r.len());
        values.extend_from_slice(l);
        values.extend_from_slice(r);
        self.rows.push((values, interval));
    }
}

/// The tuples a plain `SELECT`'s [`Filter`] admits, projected, read through
/// the store's scan as an aggregate's are: a reopened table's off its
/// pages, fence-pruned to the `VALID` window and decoded to the projected
/// and condition columns only.
fn plain_select(catalog: &Catalog, select: &PlainSelect) -> Result<TupleTable> {
    let store = catalog.store(&select.relation)?;
    let schema = store.schema();

    let projection: Vec<(String, usize)> = match &select.columns {
        None => schema
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name.clone(), i))
            .collect(),
        Some(cols) => cols
            .iter()
            .map(|c| Ok((c.clone(), schema.index_of_ignore_case(c)?)))
            .collect::<Result<_>>()?,
    };
    let filter = Filter::bind(schema, &select.conditions, select.valid_window)?;
    let mut rows = Vec::new();
    let mut scan = filter.scan(store, projection.iter().map(|(_, i)| *i));
    while let Some(batch) = scan.next_batch()? {
        for (row, valid) in filter.admitted(&batch) {
            let values = projection.iter().map(|(_, i)| row.value(*i).clone());
            rows.push((values.collect(), valid));
        }
    }
    Ok(TupleTable {
        columns: projection.into_iter().map(|(n, _)| n).collect(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_workload::employed::employed_relation;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register("Employed", employed_relation());
        c
    }

    #[test]
    fn create_insert_select_roundtrip() {
        let mut c = Catalog::new();
        let out =
            execute_statement(&mut c, "CREATE TABLE staff (name STRING, salary INT)").unwrap();
        assert_eq!(
            out,
            StatementOutput::Created {
                name: "staff".into()
            }
        );

        let out = execute_statement(
            &mut c,
            "INSERT INTO staff VALUES ('Richard', 40000) VALID [18, FOREVER], \
             ('Karen', 45000) VALID [8, 20]",
        )
        .unwrap();
        assert_eq!(
            out,
            StatementOutput::Inserted {
                relation: "staff".into(),
                count: 2
            }
        );

        let out = execute_statement(&mut c, "SELECT * FROM staff WHERE salary >= 45000").unwrap();
        match out {
            StatementOutput::Tuples(table) => {
                assert_eq!(table.columns, vec!["name", "salary"]);
                assert_eq!(table.rows.len(), 1);
                assert_eq!(table.rows[0].0[0], Value::from("Karen"));
                assert_eq!(table.rows[0].1, Interval::at(8, 20));
            }
            other => panic!("expected tuples, got {other:?}"),
        }

        // And the aggregate path works over the freshly built relation.
        let out = execute_statement(&mut c, "SELECT COUNT(name) FROM staff").unwrap();
        match out {
            StatementOutput::Rows(result) => assert!(!result.rows.is_empty()),
            other => panic!("expected rows, got {other:?}"),
        }
    }

    #[test]
    fn persist_to_survives_a_fresh_catalog() {
        let mut path = std::env::temp_dir();
        path.push(format!("tempagg-sql-persist-{}.tapg", std::process::id()));
        let create = format!(
            "CREATE TABLE staff (name STRING, salary INT) PERSIST TO '{}'",
            path.display()
        );

        let mut c = Catalog::new();
        execute_statement(&mut c, &create).unwrap();
        execute_statement(
            &mut c,
            "INSERT INTO staff VALUES ('Richard', 40000) VALID [18, FOREVER], \
             ('Karen', 45000) VALID [8, 20]",
        )
        .unwrap();
        // Warm an aggregate cache so its series is persisted too.
        execute_statement(&mut c, "SELECT COUNT(name) FROM staff").unwrap();
        execute_statement(&mut c, "DELETE FROM staff WHERE salary < 45000").unwrap();
        drop(c);

        // A brand-new catalog re-opens the table from the paged file.
        let mut fresh = Catalog::new();
        execute_statement(&mut fresh, &create).unwrap();
        match execute_statement(&mut fresh, "SELECT * FROM staff").unwrap() {
            StatementOutput::Tuples(table) => {
                assert_eq!(table.rows.len(), 1);
                assert_eq!(table.rows[0].0[0], Value::from("Karen"));
            }
            other => panic!("expected tuples, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persist_to_rejects_a_mismatched_schema() {
        let mut path = std::env::temp_dir();
        path.push(format!("tempagg-sql-mismatch-{}.tapg", std::process::id()));
        let mut c = Catalog::new();
        execute_statement(
            &mut c,
            &format!("CREATE TABLE a (x INT) PERSIST TO '{}'", path.display()),
        )
        .unwrap();
        let mut fresh = Catalog::new();
        let err = execute_statement(
            &mut fresh,
            &format!(
                "CREATE TABLE a (x INT, y FLOAT) PERSIST TO '{}'",
                path.display()
            ),
        )
        .unwrap_err();
        assert!(err.to_string().contains("different schema"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn create_rejects_duplicates_and_bad_types() {
        let mut c = Catalog::new();
        execute_statement(&mut c, "CREATE TABLE t (x INT)").unwrap();
        assert!(execute_statement(&mut c, "CREATE TABLE t (y INT)").is_err());
        assert!(execute_statement(&mut c, "CREATE TABLE u (x BLOB)").is_err());
        assert!(execute_statement(&mut c, "CREATE TABLE v (x INT, x INT)").is_err());
    }

    #[test]
    fn insert_is_atomic_on_type_errors() {
        let mut c = Catalog::new();
        execute_statement(&mut c, "CREATE TABLE t (x INT)").unwrap();
        // Second row has the wrong type; nothing must be inserted.
        let err = execute_statement(
            &mut c,
            "INSERT INTO t VALUES (1) VALID [0, 5], ('oops') VALID [6, 9]",
        );
        assert!(err.is_err());
        match execute_statement(&mut c, "SELECT * FROM t").unwrap() {
            StatementOutput::Tuples(table) => assert!(table.rows.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn plain_select_projects_and_clips() {
        let mut c = catalog();
        let out = execute_statement(
            &mut c,
            "SELECT name FROM Employed WHERE VALID OVERLAPS [0, 15]",
        )
        .unwrap();
        match out {
            StatementOutput::Tuples(table) => {
                assert_eq!(table.columns, vec!["name"]);
                // Karen [8,20]→[8,15] and Nathan [7,12] qualify.
                assert_eq!(table.rows.len(), 2);
                assert!(table
                    .rows
                    .iter()
                    .any(|(v, iv)| v[0] == Value::from("Karen") && *iv == Interval::at(8, 15)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_star_includes_all_columns() {
        let mut c = catalog();
        match execute_statement(&mut c, "SELECT * FROM Employed").unwrap() {
            StatementOutput::Tuples(table) => {
                assert_eq!(table.columns, vec!["name", "salary"]);
                assert_eq!(table.rows.len(), 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delete_and_update_end_to_end() {
        let mut c = catalog();
        let out = execute_statement(
            &mut c,
            "UPDATE Employed SET salary = 50000 WHERE name = 'Karen'",
        )
        .unwrap();
        assert_eq!(
            out,
            StatementOutput::Updated {
                relation: "Employed".into(),
                count: 1
            }
        );
        assert!(out.to_string().contains("updated 1 tuple(s)"));

        let out = execute_statement(&mut c, "DELETE FROM Employed WHERE name = 'Nathan'").unwrap();
        assert_eq!(
            out,
            StatementOutput::Deleted {
                relation: "Employed".into(),
                count: 2
            }
        );
        assert!(out.to_string().contains("deleted 2 tuple(s)"));

        match execute_statement(&mut c, "SELECT * FROM Employed").unwrap() {
            StatementOutput::Tuples(table) => {
                assert_eq!(table.rows.len(), 2);
                assert!(table
                    .rows
                    .iter()
                    .any(|(v, _)| v[0] == Value::from("Karen") && v[1] == Value::Int(50_000)));
            }
            other => panic!("unexpected {other:?}"),
        }

        // Valid-window DELETE: only tuples overlapping the window go.
        let out =
            execute_statement(&mut c, "DELETE FROM Employed WHERE VALID OVERLAPS [0, 10]").unwrap();
        assert_eq!(
            out,
            StatementOutput::Deleted {
                relation: "Employed".into(),
                count: 1 // Karen [8, 20]; Richard [18, ∞] stays
            }
        );

        // Unknown columns error without mutating.
        assert!(execute_statement(&mut c, "DELETE FROM Employed WHERE nope = 1").is_err());
        assert!(execute_statement(&mut c, "UPDATE Employed SET nope = 1").is_err());
    }

    /// Register the paper's Employed relation plus a small projects
    /// relation whose intervals exercise every join predicate.
    fn join_catalog() -> Catalog {
        let mut c = catalog();
        execute_statement(&mut c, "CREATE TABLE projects (title STRING)").unwrap();
        execute_statement(
            &mut c,
            "INSERT INTO projects VALUES ('apollo') VALID [5, 12], \
             ('zeus') VALID [10, 30], ('ares') VALID [20, 25], \
             ('hermes') VALID [40, FOREVER]",
        )
        .unwrap();
        c
    }

    #[test]
    fn interval_join_agrees_with_a_nested_loop() {
        use tempagg_algo::JoinPredicate;
        let mut c = join_catalog();
        for predicate in [
            JoinPredicate::Overlaps,
            JoinPredicate::Contains,
            JoinPredicate::During,
            JoinPredicate::Meets,
        ] {
            // Oracle: test every ordered (left, right) pair directly.
            let want: Vec<String> = {
                let left = c.get("Employed").unwrap();
                let right = c.get("projects").unwrap();
                let mut rows = Vec::new();
                for l in left {
                    for r in right {
                        if predicate.matches(l.valid(), r.valid()) {
                            if let Some(overlap) = l.valid().intersect(&r.valid()) {
                                let mut values = l.values().to_vec();
                                values.extend(r.values().iter().cloned());
                                rows.push(format!("{values:?} @ {overlap}"));
                            }
                        }
                    }
                }
                rows.sort();
                rows
            };
            assert!(!want.is_empty(), "{predicate:?} oracle found nothing");

            let sql = format!(
                "SELECT * FROM Employed E JOIN projects P ON {}",
                predicate.name()
            );
            let table = match execute_statement(&mut c, &sql).unwrap() {
                StatementOutput::Tuples(table) => table,
                other => panic!("expected tuples, got {other:?}"),
            };
            assert_eq!(table.columns, vec!["E.name", "E.salary", "P.title"]);
            let mut got: Vec<String> = table
                .rows
                .iter()
                .map(|(values, valid)| format!("{values:?} @ {valid}"))
                .collect();
            got.sort();
            assert_eq!(got, want, "{sql}");
        }
    }

    #[test]
    fn join_qualifiers_default_to_relation_names() {
        let mut c = join_catalog();
        match execute_statement(&mut c, "SELECT * FROM Employed JOIN projects ON OVERLAPS") {
            Ok(StatementOutput::Tuples(table)) => {
                assert_eq!(
                    table.columns,
                    vec!["Employed.name", "Employed.salary", "projects.title"]
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_join_reports_the_sweep_join_plan() {
        let mut c = join_catalog();
        let out = execute_statement(
            &mut c,
            "EXPLAIN SELECT * FROM Employed JOIN projects ON OVERLAPS",
        )
        .unwrap();
        match &out {
            StatementOutput::Rows(result) => {
                assert!(result.explain_only);
                assert!(result.rows.is_empty());
            }
            other => panic!("expected rows, got {other:?}"),
        }
        let text = out.to_string();
        assert!(text.contains("sweep-join"), "{text}");
    }

    #[test]
    fn join_errors_bubble_up() {
        let mut c = join_catalog();
        assert!(
            execute_statement(&mut c, "SELECT * FROM Employed JOIN missing ON OVERLAPS").is_err()
        );
        assert!(execute_statement(&mut c, "SELECT * FROM missing JOIN projects ON MEETS").is_err());
    }

    #[test]
    fn display_formats() {
        let mut c = catalog();
        let out = execute_statement(&mut c, "SELECT * FROM Employed").unwrap();
        let text = out.to_string();
        assert!(text.contains("VALID"));
        assert!(text.contains("Richard"));
        let out = execute_statement(&mut c, "CREATE TABLE z (x INT)").unwrap();
        assert!(out.to_string().contains("created table z"));
    }

    #[test]
    fn errors_bubble_up() {
        let mut c = Catalog::new();
        assert!(execute_statement(&mut c, "INSERT INTO missing VALUES (1) VALID [0, 1]").is_err());
        assert!(execute_statement(&mut c, "SELECT * FROM missing").is_err());
        assert!(execute_statement(&mut c, "SELECT nope FROM missing").is_err());
        assert!(execute_statement(&mut c, "EXPLAIN SELECT * FROM missing").is_err());
    }
}
