//! A table reopened from its `.tapg` file answers every SQL shape exactly
//! as the resident table it was written from: the same rows, byte for byte
//! (floats included, compared through their `Debug` text), and the same
//! `AlgorithmChoice` — before and after one `INSERT`.
//!
//! The reopened side keeps its rows on the file's pages, so its scans read
//! pages fence-pruned and projected (a plain `SELECT` included), its
//! served shapes read series blocks, and the shapes that need resident rows
//! (an executed join, a ranking's groups, a cache the file does not hold)
//! read the pages into memory first. The resident side is the store that
//! wrote the file. Each shape
//! runs on fresh copies of both, collected and then streamed at chunk
//! capacity 1; after the `INSERT` — written through to the reopened side's
//! file — it runs on both again and on that file reopened once more.

use std::path::{Path, PathBuf};
use temporal_aggregates::core::pager::{self, PagedReader};
use temporal_aggregates::prelude::*;
use temporal_aggregates::sql::{execute_statement, execute_streaming, parse, StatementOutput};
use temporal_aggregates::workload::{generate, WorkloadConfig};
use temporal_aggregates::{AggKind, AlgorithmChoice, DynAggregate, Schema, ValueType};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "tempagg-reopened-sql-{}-{name}",
        std::process::id()
    ));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = pager::remove_file(&self.0);
    }
}

/// A seeded `t (name STRING, dept INT, salary INT)`: the workload's names,
/// salaries and intervals in `config`'s order, five departments.
fn table(config: &WorkloadConfig) -> TemporalRelation {
    let generated = generate(config);
    let schema = Schema::of(&[
        ("name", ValueType::Str),
        ("dept", ValueType::Int),
        ("salary", ValueType::Int),
    ]);
    let mut relation = TemporalRelation::new(schema);
    for (i, tuple) in (0i64..).zip(&generated) {
        let values = vec![
            tuple.value(0).clone(),
            Value::Int(i % 5),
            tuple.value(1).clone(),
        ];
        relation.push(values, tuple.valid()).unwrap();
    }
    relation
}

/// A statement's answer as compared here: its rows' `Debug` text and the
/// algorithm its plan chose.
type Answer = (String, Option<AlgorithmChoice>);

fn collected(catalog: &mut Catalog, sql: &str) -> Answer {
    match execute_statement(catalog, sql).unwrap() {
        StatementOutput::Rows(result) => (
            format!("{:?}", result.rows.to_vec()),
            result.plan.map(|plan| plan.choice),
        ),
        StatementOutput::Tuples(table) => (format!("{table:?}"), None),
        other => panic!("{sql}: unexpected {other:?}"),
    }
}

/// [`collected`], streamed at chunk capacity 1 (aggregate queries only).
fn streamed(catalog: &Catalog, sql: &str) -> Answer {
    let mut rows = Vec::new();
    let summary = execute_streaming(
        catalog,
        &parse(sql).unwrap(),
        &PlannerConfig::default(),
        1,
        |row| rows.push(row),
    )
    .unwrap();
    (format!("{rows:?}"), summary.plan.map(|plan| plan.choice))
}

/// `catalog` with the small `d` every shape may join `t` with.
fn with_d(mut catalog: Catalog) -> Catalog {
    execute_statement(&mut catalog, "CREATE TABLE d (title STRING)").unwrap();
    execute_statement(
        &mut catalog,
        "INSERT INTO d VALUES ('apollo') VALID [5000, 120000], ('zeus') VALID [400000, 410000], \
         ('hermes') VALID [700000, FOREVER]",
    )
    .unwrap();
    catalog
}

/// `store` as `t`, in memory.
fn resident_catalog(store: &TemporalStore) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register_store("t", store.clone());
    with_d(catalog)
}

/// The file at `path` as `t`, opened the way SQL opens it: on its pages.
fn reopened_catalog(path: &Path) -> Catalog {
    let mut catalog = Catalog::new();
    let create = format!(
        "CREATE TABLE t (name STRING, dept INT, salary INT) PERSIST TO '{}'",
        path.display()
    );
    execute_statement(&mut catalog, &create).unwrap();
    assert!(catalog.store("t").unwrap().base().is_some());
    with_d(catalog)
}

/// A fresh copy of `file` at `copy`, reopened.
fn reopened_copy(file: &Path, copy: &Path) -> Catalog {
    std::fs::copy(file, copy).unwrap();
    reopened_catalog(copy)
}

#[test]
fn reopened_tables_answer_every_sql_shape_as_resident_ones() {
    let file = temp_path("t.tapg");
    let copy = temp_path("t-copy.tapg");
    let (_file_cleanup, _copy_cleanup) = (Cleanup(file.clone()), Cleanup(copy.clone()));
    let shapes = [
        // Served from the series the file holds; a scan off the pages
        // that then reads them in to warm a cache the file does not hold.
        "SELECT COUNT(*), SUM(salary) FROM t",
        "SELECT MAX(salary), COUNT(*) FROM t",
        // WHERE, VALID, span grouping.
        "SELECT COUNT(*) FROM t WHERE salary > 50000",
        "SELECT SUM(salary), MIN(salary) FROM t WHERE VALID OVERLAPS [300000, 450000]",
        "SELECT COUNT(*) FROM t WHERE VALID OVERLAPS [100000, 399999] GROUP BY SPAN 50000",
        // GROUP BY an INT and a STRING column.
        "SELECT AVG(salary) FROM t GROUP BY dept",
        "SELECT COUNT(*), MAX(salary) FROM t WHERE dept < 3 GROUP BY name",
        // OVER clean (index-served) and filtered (a scan reduced linearly).
        "SELECT SUM(salary) OVER [200000, 600000] FROM t",
        "SELECT SUM(salary), COUNT(*) OVER [200000, 600000] FROM t WHERE dept = 2",
        // TOP k clean (per-group indexes) and filtered.
        "SELECT TOP 3 BY SUM(salary) OVER [100000, 900000] FROM t GROUP BY dept",
        "SELECT TOP 2 BY SUM(salary) OVER [100000, 900000] FROM t WHERE salary > 10000 \
         GROUP BY name",
        "SELECT SNAPSHOT COUNT(*), AVG(salary) FROM t GROUP BY dept",
        "SELECT * FROM t WHERE dept = 3",
        "SELECT * FROM t JOIN d ON OVERLAPS",
    ];
    let insert = "INSERT INTO t VALUES ('late', 2, 5000) VALID [250000, 650000]";

    for (order, config) in [
        ("random", WorkloadConfig::random(2_500).with_seed(41)),
        ("sorted", WorkloadConfig::sorted(2_500).with_seed(43)),
    ] {
        // The resident store warms the two series the file will hold.
        let resident = TemporalStore::new(table(&config));
        for (kind, column) in [(AggKind::CountStar, None), (AggKind::Sum, Some(2))] {
            let agg = DynAggregate::new(kind, ValueType::Int).unwrap();
            resident.ensure_cache(agg, column).unwrap();
        }
        let mut writer = resident.clone();
        writer.persist_to(&file).unwrap();
        let reader = PagedReader::open(&file).unwrap();
        let fences = reader.fences();
        assert!(fences.len() >= 4, "{order}: {} pages", fences.len());
        assert!(
            fences.last().unwrap().tuples < fences[0].tuples,
            "{order}: the last page is short"
        );

        for sql in shapes {
            let case = format!("{order}: {sql}");
            let mut live = resident_catalog(&resident);
            let mut paged = reopened_copy(&file, &copy);
            let want = collected(&mut live, sql);
            assert_eq!(collected(&mut paged, sql), want, "{case}");
            if !sql.starts_with("SELECT *") {
                let want = streamed(&resident_catalog(&resident), sql);
                let got = streamed(&reopened_copy(&file, &copy), sql);
                assert_eq!(got, want, "{case} (streamed)");
            }

            // One write, through to the reopened side's file.
            execute_statement(&mut live, insert).unwrap();
            execute_statement(&mut paged, insert).unwrap();
            let want = collected(&mut live, sql);
            assert_eq!(
                collected(&mut paged, sql),
                want,
                "{case} (after the insert)"
            );
            let got = collected(&mut reopened_catalog(&copy), sql);
            assert_eq!(got, collected(&mut live, sql), "{case} (reopened after it)");
        }
    }
}

/// A plain `SELECT` reads a reopened table through the store's scan, and
/// `EXPLAIN` of a join plans from the two stores' sizes: each answers as
/// the resident table does and leaves the store on its pages.
#[test]
fn plain_selects_and_join_plans_leave_a_reopened_table_on_its_pages() {
    let file = temp_path("plain.tapg");
    let _cleanup = Cleanup(file.clone());
    let resident = TemporalStore::new(table(&WorkloadConfig::random(2_500).with_seed(47)));
    let mut writer = resident.clone();
    writer.persist_to(&file).unwrap();
    for sql in [
        "SELECT name FROM t WHERE dept = 3 AND salary > 50000",
        "SELECT * FROM t WHERE VALID OVERLAPS [300000, 450000]",
        "EXPLAIN SELECT * FROM t JOIN d ON OVERLAPS",
    ] {
        let want = collected(&mut resident_catalog(&resident), sql);
        let mut paged = reopened_catalog(&file);
        assert_eq!(collected(&mut paged, sql), want, "{sql}");
        let store = paged.store("t").unwrap();
        assert!(store.pages().is_some(), "{sql} read the table into memory");
    }
}

/// A sorted table with long-lived tuples is written as two lanes of pages;
/// every shape that scans the reopened table's pages — merged back into
/// storage order — answers as the resident table does, collected and
/// streamed, and leaves the table on its pages.
#[test]
fn a_table_with_an_overflow_lane_scans_as_the_resident_one() {
    let file = temp_path("lanes.tapg");
    let _cleanup = Cleanup(file.clone());
    let config = WorkloadConfig::sorted(2_500)
        .with_seed(48)
        .with_long_lived_pct(10);
    let resident = TemporalStore::new(table(&config));
    let mut writer = resident.clone();
    writer.persist_to(&file).unwrap();
    assert!(!PagedReader::open(&file).unwrap().overflow_lane().is_empty());
    for sql in [
        "SELECT COUNT(*), SUM(salary) FROM t WHERE salary > 40000",
        "SELECT MIN(salary), MAX(salary) FROM t WHERE VALID OVERLAPS [300000, 450000]",
        "SELECT AVG(salary) FROM t WHERE dept < 4 GROUP BY dept",
        "SELECT COUNT(*) FROM t WHERE dept = 1 GROUP BY SPAN 50000",
        "SELECT * FROM t WHERE VALID OVERLAPS [300000, 310000]",
        "SELECT name, salary FROM t WHERE dept = 3",
        // Planned before its scan from the file's statistics: the overflow
        // lane's share is the long-lived fraction the resident table
        // measures, so both plan the same algorithm.
        "SELECT SUM(salary), COUNT(*) OVER [200000, 600000] FROM t WHERE dept = 2",
    ] {
        let want = collected(&mut resident_catalog(&resident), sql);
        let mut paged = reopened_catalog(&file);
        assert_eq!(collected(&mut paged, sql), want, "{sql}");
        assert!(paged.store("t").unwrap().pages().is_some(), "{sql}");
        if !sql.starts_with("SELECT *") && !sql.starts_with("SELECT name") {
            let want = streamed(&resident_catalog(&resident), sql);
            assert_eq!(streamed(&reopened_catalog(&file), sql), want, "{sql}");
        }
    }
}
