//! The paths of non-aggregate statements: CREATE TABLE, INSERT, DELETE,
//! UPDATE, plain SELECT, and interval joins, and the statement-level entry
//! points over the router. `DELETE`, `UPDATE` and plain `SELECT` admit
//! tuples through the same bound [`Filter`] an aggregate scan does.

use crate::ast::{JoinSelect, PlainSelect, Statement};
use crate::catalog::Catalog;
use crate::display::write_table;
use crate::exec::{Filter, QueryResult};
use crate::parser::parse_statement;
use crate::route::{drive, route, Route};
use crate::rows::RowBuffer;
use std::fmt;
use std::sync::Arc;
use tempagg_algo::{JoinPair, SweepJoinOperator};
use tempagg_core::{Interval, Result, Schema, SeriesSink, TempAggError, TemporalRelation, Value};
use tempagg_plan::{plan_join, CostModel, Plan, PlannerConfig, RelationStats};
use tempagg_store::{Row, TemporalStore};

/// A plain-SELECT or join result: projected attribute values plus valid
/// time.
#[derive(Clone, Debug, PartialEq)]
pub struct TupleTable {
    pub columns: Vec<String>,
    pub rows: TupleRows,
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

/// The bytes of one block of a [`TupleRows`]' values: under glibc's
/// largest `mmap` threshold (32 MiB), so a dropped result's blocks go back
/// to the heap and the next result reuses them, where one buffer of
/// `rows × width` cells would be mapped, page-faulted in and unmapped again
/// by every large result.
const BLOCK_BYTES: usize = 4 << 20;

/// The rows of a [`TupleTable`], columnar: the values row after row in
/// blocks of a fixed number of rows (the last block may hold fewer), and
/// the valid times in one buffer. A row is read as a `(&[Value],
/// &Interval)` borrowed from them.
///
/// ```
/// # use tempagg_sql::{execute_statement, Catalog, StatementOutput};
/// # use tempagg_workload::employed::employed_relation;
/// # let mut catalog = Catalog::new();
/// # catalog.register("Employed", employed_relation());
/// let StatementOutput::Tuples(table) = execute_statement(&mut catalog, "SELECT * FROM Employed")?
/// else { unreachable!() };
/// for (values, valid) in &table.rows {
///     println!("{valid} {values:?}");
/// }
/// let (first, _) = table.rows.get(0).expect("Employed has tuples");
/// assert_eq!(first.len(), table.columns.len());
/// # Ok::<(), tempagg_core::TempAggError>(())
/// ```
#[derive(Clone, PartialEq)]
pub struct TupleRows {
    width: usize,
    /// Rows per block of `values`.
    block_rows: usize,
    /// `block_rows × width` cells per block, the last block fewer.
    values: Vec<Vec<Value>>,
    valid: Vec<Interval>,
}

impl TupleRows {
    fn new(width: usize) -> TupleRows {
        TupleRows {
            width,
            block_rows: (BLOCK_BYTES / (width.max(1) * std::mem::size_of::<Value>())).max(1),
            values: Vec::new(),
            valid: Vec::new(),
        }
    }

    /// These (empty) rows filled with one row per entry of `valid`, the
    /// `width` cells of each appended to its block by `fill(rows, block)` —
    /// called once per block, in row order, the block allocated for exactly
    /// `rows`.
    fn gather(
        mut self,
        valid: Vec<Interval>,
        mut fill: impl FnMut(std::ops::Range<usize>, &mut Vec<Value>),
    ) -> TupleRows {
        debug_assert!(self.is_empty());
        self.values = Vec::with_capacity(valid.len().div_ceil(self.block_rows));
        for start in (0..valid.len()).step_by(self.block_rows) {
            let end = valid.len().min(start + self.block_rows);
            let mut block = Vec::with_capacity((end - start) * self.width);
            fill(start..end, &mut block);
            debug_assert_eq!(block.len(), (end - start) * self.width);
            self.values.push(block);
        }
        self.valid = valid;
        self
    }

    /// Append one row: `cells` are its `width` values.
    fn push(&mut self, cells: impl IntoIterator<Item = Value>, valid: Interval) {
        if self.valid.len() % self.block_rows == 0 {
            self.values.push(Vec::new());
        }
        if let Some(block) = self.values.last_mut() {
            block.extend(cells);
        }
        self.valid.push(valid);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }

    /// Row `i`: its values and its valid time.
    pub fn get(&self, i: usize) -> Option<(&[Value], &Interval)> {
        let valid = self.valid.get(i)?;
        let start = (i % self.block_rows) * self.width;
        let block = self.values.get(i / self.block_rows)?;
        Some((block.get(start..start + self.width)?, valid))
    }

    /// The rows in order.
    pub fn iter(&self) -> TupleRowIter<'_> {
        TupleRowIter {
            width: self.width,
            blocks: self.values.iter(),
            block: &[],
            valid: self.valid.iter(),
        }
    }
}

impl fmt::Debug for TupleRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // lint: allow(no-materialize-in-exec): `DebugList::finish`, not an algorithm's
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a TupleRows {
    type Item = (&'a [Value], &'a Interval);
    type IntoIter = TupleRowIter<'a>;

    fn into_iter(self) -> TupleRowIter<'a> {
        self.iter()
    }
}

/// Iterator over the rows of a [`TupleRows`].
#[derive(Clone, Debug)]
pub struct TupleRowIter<'a> {
    width: usize,
    blocks: std::slice::Iter<'a, Vec<Value>>,
    /// What is left of the current block.
    block: &'a [Value],
    valid: std::slice::Iter<'a, Interval>,
}

impl<'a> Iterator for TupleRowIter<'a> {
    type Item = (&'a [Value], &'a Interval);

    fn next(&mut self) -> Option<Self::Item> {
        let valid = self.valid.next()?;
        if self.block.len() < self.width {
            self.block = self.blocks.next().map_or(&[], Vec::as_slice);
        }
        let (row, rest) = self.block.split_at(self.width);
        self.block = rest;
        Some((row, valid))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.valid.size_hint()
    }
}

impl ExactSizeIterator for TupleRowIter<'_> {}

/// The result of executing one statement.
#[derive(Clone, Debug, PartialEq)]
pub enum StatementOutput {
    /// Aggregate-query result (or EXPLAIN).
    Rows(QueryResult),
    /// Plain-SELECT or join result.
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

/// Execute a parsed statement: its route driven into a collecting buffer,
/// or — a statement that changes the catalog — run against it.
pub fn execute_parsed_statement(
    catalog: &mut Catalog,
    statement: &Statement,
    config: &PlannerConfig,
) -> Result<StatementOutput> {
    match route(catalog, statement, config)? {
        Route::Write(write) => write.run(catalog),
        Route::Read(read) => drive(read, &mut RowBuffer::collecting()),
    }
}

/// A statement that changes the catalog, bound against it by the router.
pub(crate) enum Write<'q> {
    /// `CREATE TABLE`: the name is free and the schema valid.
    Create {
        name: &'q str,
        schema: Arc<Schema>,
        persist: Option<&'q str>,
    },
    /// `INSERT`: every row fits the schema.
    Insert {
        relation: &'q str,
        rows: &'q [(Vec<Value>, Interval)],
    },
    /// `DELETE`: the filter of the tuples it removes.
    Delete { relation: &'q str, filter: Filter },
    /// `UPDATE`: the columns it sets and the filter of the tuples it sets.
    Update {
        relation: &'q str,
        assignments: Vec<(usize, Value)>,
        filter: Filter,
    },
}

impl Write<'_> {
    pub(crate) fn run(self, catalog: &mut Catalog) -> Result<StatementOutput> {
        let (store, output) = match self {
            Write::Create {
                name,
                schema,
                persist,
            } => {
                // Backed by the paged file at `persist` — opened when it
                // exists, created otherwise — or memory-only.
                match persist.map(std::path::Path::new) {
                    Some(path) if tempagg_core::pager::exists(path) => {
                        let store = TemporalStore::open(path)?;
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
                        catalog.register_store(name, store);
                    }
                    Some(path) => {
                        let mut store = TemporalStore::with_schema(schema);
                        store.persist_to(path.to_path_buf())?;
                        catalog.register_store(name, store);
                    }
                    None => catalog.register(name, TemporalRelation::new(schema)),
                }
                let name = name.to_owned();
                return Ok(StatementOutput::Created { name });
            }
            Write::Insert { relation, rows } => {
                let store = catalog.store_mut(relation)?;
                for (values, valid) in rows {
                    store.insert(values.clone(), *valid)?;
                }
                let (relation, count) = (relation.to_owned(), rows.len());
                (store, StatementOutput::Inserted { relation, count })
            }
            Write::Delete { relation, filter } => {
                let store = catalog.store_mut(relation)?;
                let count =
                    store.delete_where(|tuple| filter.admit(Row::Tuple(tuple)).is_some())?;
                let relation = relation.to_owned();
                (store, StatementOutput::Deleted { relation, count })
            }
            Write::Update {
                relation,
                assignments,
                filter,
            } => {
                let store = catalog.store_mut(relation)?;
                let admit = |tuple: &_| filter.admit(Row::Tuple(tuple)).is_some();
                let count = store.update_where(admit, &assignments)?;
                let relation = relation.to_owned();
                (store, StatementOutput::Updated { relation, count })
            }
        };
        // A store created with `PERSIST TO` is written through; a
        // memory-only store is left alone.
        if store.backing().is_some() {
            store.flush()?;
        }
        Ok(output)
    }
}

/// An interval join bound to its catalog and planned on the sweep-based
/// [`SweepJoinOperator`]: co-sort both relations' endpoint events on one
/// thread and enumerate co-live pairs. Result columns are both sides' attributes qualified by
/// alias (or relation name), which must differ; each row's valid time is
/// the intersection of the joined tuples' intervals.
///
/// Rows come in the storage order of the side with more tuples (the left
/// side on a tie): all of its first tuple's pairs, then its second's, and
/// within one tuple in the sweep's order, by nondecreasing start.
pub(crate) struct BoundJoin<'c, 'q> {
    catalog: &'c Catalog,
    join: &'q JoinSelect,
    pub(crate) plan: Plan,
}

impl<'c, 'q> BoundJoin<'c, 'q> {
    pub(crate) fn bind(
        catalog: &'c Catalog,
        join: &'q JoinSelect,
        config: &PlannerConfig,
    ) -> Result<BoundJoin<'c, 'q>> {
        let (left, right) = (join.left_qualifier(), join.right_qualifier());
        if left.eq_ignore_ascii_case(right) {
            return Err(TempAggError::Sql {
                line: 1,
                column: 1,
                detail: format!(
                    "both sides of the join are qualified `{left}`, so their columns could not \
                     be told apart; give one side its own alias"
                ),
            });
        }
        // The sweep join is priced from the two sides' sizes alone, so the
        // plan (and `EXPLAIN`) reads no row of either.
        let plan = plan_join(
            &RelationStats::unknown(catalog.store(&join.left)?.len()),
            &RelationStats::unknown(catalog.store(&join.right)?.len()),
            config,
            &CostModel::default(),
        );
        Ok(BoundJoin {
            catalog,
            join,
            plan,
        })
    }

    pub(crate) fn run(self) -> Result<TupleTable> {
        let join = self.join;
        let (left, right) = (
            self.catalog.get(&join.left)?,
            self.catalog.get(&join.right)?,
        );
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
        if u32::try_from(left.len().max(right.len())).is_err() {
            return Err(TempAggError::Sql {
                line: 1,
                column: 1,
                detail: "a join side holds more than 2^32 tuples".to_owned(),
            });
        }

        let mut operator = SweepJoinOperator::new(join.predicate);
        for tuple in left {
            operator.push_left(tuple.valid())?;
        }
        for tuple in right {
            operator.push_right(tuple.valid())?;
        }
        let mut pairs = PairColumns::default();
        operator.finish_into(&mut pairs);
        let (order, valid) = pairs.sort_by_key_side(left.len(), right.len());
        let (left, right) = (left.tuples(), right.tuples());
        let rows = TupleRows::new(columns.len()).gather(valid, |rows, block| {
            // lint: hot-loop(join-gather) — per pair: both tuples' cells appended to the block (a scalar copy or an `Arc<str>` bump each); never a `Vec` per row
            for &(l, r) in &order[rows] {
                block.extend_from_slice(left[l as usize].values());
                block.extend_from_slice(right[r as usize].values());
            }
        });
        Ok(TupleTable { columns, rows })
    }
}

/// The join's pairs as the operator emits them, in sweep order: the two
/// tuple indices of each pair and its intersection, as columns.
#[derive(Default)]
struct PairColumns {
    pairs: Vec<(u32, u32)>,
    valid: Vec<Interval>,
}

impl SeriesSink<JoinPair> for PairColumns {
    fn accept(&mut self, interval: Interval, pair: JoinPair) {
        // lint: allow(no-unwrap): a join refuses a side longer than `u32::MAX` before the sweep
        let index = |i: usize| u32::try_from(i).expect("join sides fit u32 indices");
        self.pairs.push((index(pair.left), index(pair.right)));
        self.valid.push(interval);
    }
}

impl PairColumns {
    /// The pairs and their intersections ordered by the tuple index on the
    /// side with more tuples (the left on a tie), in one stable counting
    /// sort, so a tuple's pairs keep the sweep's order. Both come back
    /// sized exactly; the sweep-order columns are freed.
    fn sort_by_key_side(
        self,
        left_len: usize,
        right_len: usize,
    ) -> (Vec<(u32, u32)>, Vec<Interval>) {
        let key_left = left_len >= right_len;
        let key = |&(l, r): &(u32, u32)| if key_left { l } else { r };
        let keys = left_len.max(right_len);
        // `next[k]`: the count of key `k - 1`'s pairs; summed, where key
        // `k`'s pairs start; during the scatter, where its next one goes.
        let mut next = vec![0usize; keys + 1];
        for pair in &self.pairs {
            next[key(pair) as usize + 1] += 1;
        }
        for k in 1..next.len() {
            next[k] += next[k - 1];
        }
        let mut order = vec![(0, 0); self.pairs.len()];
        let mut valid = vec![Interval::TIMELINE; self.valid.len()];
        for (pair, interval) in self.pairs.iter().zip(&self.valid) {
            let slot = &mut next[key(pair) as usize];
            order[*slot] = *pair;
            valid[*slot] = *interval;
            *slot += 1;
        }
        (order, valid)
    }
}

/// A plain `SELECT` bound to its store: the projection and the [`Filter`]
/// admitting its tuples, which are read through the store's scan as an
/// aggregate's are: a reopened table's off its pages, fence-pruned to the
/// `VALID` window and decoded to the projected and condition columns only.
pub(crate) struct BoundSelect<'c> {
    store: &'c TemporalStore,
    projection: Vec<(String, usize)>,
    filter: Filter,
}

impl<'c> BoundSelect<'c> {
    pub(crate) fn bind(catalog: &'c Catalog, select: &PlainSelect) -> Result<BoundSelect<'c>> {
        let store = catalog.store(&select.relation)?;
        let schema = store.schema();
        let projection = match &select.columns {
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
        Ok(BoundSelect {
            store,
            projection,
            filter,
        })
    }

    pub(crate) fn run(self) -> Result<TupleTable> {
        let (projection, filter) = (self.projection, self.filter);
        let mut rows = TupleRows::new(projection.len());
        let mut scan = filter.scan(self.store, projection.iter().map(|(_, i)| *i));
        while let Some(batch) = scan.next_batch()? {
            // lint: hot-loop(select-project) — per admitted row: its projected cells appended to the last block (a scalar copy or an `Arc<str>` bump each); never a `Vec` per row
            for (row, valid) in filter.admitted(&batch) {
                let cells = projection.iter().map(|(_, i)| row.value(*i));
                rows.push(cells.cloned(), valid);
            }
        }
        Ok(TupleTable {
            columns: projection.into_iter().map(|(n, _)| n).collect(),
            rows,
        })
    }
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
                let (values, valid) = table.rows.get(0).unwrap();
                assert_eq!(values[0], Value::from("Karen"));
                assert_eq!(*valid, Interval::at(8, 20));
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
                assert_eq!(table.rows.get(0).unwrap().0[0], Value::from("Karen"));
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
    fn a_self_join_needs_two_qualifiers() {
        let mut c = Catalog::new();
        execute_statement(&mut c, "CREATE TABLE a (name STRING, x INT)").unwrap();
        execute_statement(
            &mut c,
            "INSERT INTO a VALUES ('p', 1) VALID [0, 10], ('q', 2) VALID [5, 20]",
        )
        .unwrap();
        for sql in [
            "SELECT * FROM a JOIN a ON OVERLAPS",
            "SELECT * FROM a A JOIN a A ON OVERLAPS",
            "SELECT * FROM a x JOIN a X ON MEETS",
            "EXPLAIN SELECT * FROM a JOIN a ON OVERLAPS",
        ] {
            match execute_statement(&mut c, sql) {
                Err(TempAggError::Sql { detail, .. }) => {
                    assert!(detail.contains("qualified `"), "{sql}: {detail}");
                }
                other => panic!("{sql}: expected a SQL error, got {other:?}"),
            }
        }
        match execute_statement(&mut c, "SELECT * FROM a JOIN a B ON OVERLAPS").unwrap() {
            StatementOutput::Tuples(table) => {
                assert_eq!(table.columns, vec!["a.name", "a.x", "B.name", "B.x"]);
                let mut rows: Vec<String> = table
                    .rows
                    .iter()
                    .map(|(values, valid)| format!("{values:?} @ {valid}"))
                    .collect();
                rows.sort();
                let (p, q) = (r#"Str("p"), Int(1)"#, r#"Str("q"), Int(2)"#);
                assert_eq!(
                    rows,
                    vec![
                        format!("[{p}, {p}] @ [0, 10]"),
                        format!("[{p}, {q}] @ [5, 10]"),
                        format!("[{q}, {p}] @ [5, 10]"),
                        format!("[{q}, {q}] @ [5, 20]"),
                    ]
                );
            }
            other => panic!("expected tuples, got {other:?}"),
        }
    }

    /// A join's values are allocated once per block, each block exactly its
    /// rows × width cells, and its valid times once, exactly `P` entries —
    /// no doubling `Vec`, no `Vec` per row.
    #[test]
    fn a_join_result_is_allocated_exactly() {
        let int = |name: &str| Schema::of(&[(name, tempagg_core::ValueType::Int)]);
        let (mut a, mut b) = (
            tempagg_core::TemporalRelation::new(int("x")),
            tempagg_core::TemporalRelation::new(int("y")),
        );
        for i in 0..400 {
            a.push(vec![Value::Int(i)], Interval::at(0, 10)).unwrap();
        }
        for i in 0..250 {
            b.push(vec![Value::Int(i)], Interval::at(i % 11, 20))
                .unwrap();
        }
        let mut c = Catalog::new();
        c.register("a", a);
        c.register("b", b);
        let pairs = 400 * 250;
        let rows = match execute_statement(&mut c, "SELECT * FROM a JOIN b ON OVERLAPS").unwrap() {
            StatementOutput::Tuples(table) => table.rows,
            other => panic!("expected tuples, got {other:?}"),
        };
        assert_eq!(rows.len(), pairs);
        assert_eq!(rows.valid.capacity(), pairs);
        assert!(rows.values.len() > 1, "{} blocks", rows.values.len());
        let cells = rows.block_rows * rows.width;
        assert!(cells * std::mem::size_of::<Value>() <= BLOCK_BYTES);
        for (i, block) in rows.values.iter().enumerate() {
            assert_eq!(block.capacity(), block.len(), "block {i}");
            if i + 1 < rows.values.len() {
                assert_eq!(block.len(), cells, "block {i}");
            }
        }
        let total: usize = rows.values.iter().map(Vec::capacity).sum();
        assert_eq!(total, pairs * rows.width);
    }

    #[test]
    fn rows_read_the_same_across_block_boundaries() {
        let valid = |i: i64| Interval::at(i, i + 3);
        let row = |i: i64| [Value::Int(i), Value::from(format!("v{i}").as_str())];
        let mut pushed = TupleRows::new(2);
        pushed.block_rows = 3;
        for i in 0..10 {
            pushed.push(row(i), valid(i));
        }
        let mut gathered = TupleRows::new(2);
        gathered.block_rows = 3;
        let gathered = gathered.gather((0..10).map(valid).collect(), |rows, block| {
            for i in rows {
                block.extend(row(i as i64));
            }
        });
        assert_eq!(gathered, pushed);
        assert_eq!(pushed.values.len(), 4);
        assert_eq!(pushed.len(), 10);
        for (i, (values, interval)) in pushed.iter().enumerate() {
            let i = i as i64;
            assert_eq!(values, row(i).as_slice());
            assert_eq!(*interval, valid(i));
            assert_eq!(pushed.get(i as usize), Some((values, interval)));
        }
        assert_eq!(pushed.get(10), None);
        assert_eq!(pushed.iter().len(), 10);
        assert_eq!(
            format!("{pushed:?}"),
            format!("{:?}", pushed.iter().collect::<Vec<_>>())
        );

        let mut narrow = TupleRows::new(0);
        assert!(narrow.is_empty());
        assert_eq!(narrow.iter().next(), None);
        for i in 0..3 {
            narrow.push([], valid(i));
        }
        let no_cells: &[Value] = &[];
        assert_eq!(narrow.iter().len(), 3);
        assert!(narrow.iter().all(|(values, _)| values == no_cells));
        assert_eq!(narrow.get(2), Some((no_cells, &valid(2))));
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
