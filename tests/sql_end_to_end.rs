//! End-to-end SQL tests on generated workloads: the SQL answer must equal
//! the answer computed by driving the algorithm layer directly.

use temporal_aggregates::algo::oracle::oracle;
use temporal_aggregates::core::pager::{self, PagedReader, PagedWriteOptions, PersistedSeries};
use temporal_aggregates::prelude::*;
use temporal_aggregates::sql::TupleTable;
use temporal_aggregates::workload::{generate, WorkloadConfig};
use temporal_aggregates::{
    AggKind, DynAggregate, JoinPredicate, QueryResult, SeriesEntry, StatementOutput, Tuple,
    ValueType,
};

fn catalog_with(name: &str, relation: TemporalRelation) -> Catalog {
    let mut c = Catalog::new();
    c.register(name, relation);
    c
}

/// Flatten a SQL result (no grouping) into `(interval, value)` rows.
fn sql_rows(result: &QueryResult) -> Vec<(Interval, Value)> {
    result
        .rows
        .iter()
        .map(|r| (r.valid, r.values[0].clone()))
        .collect()
}

#[test]
fn sql_count_equals_direct_computation_on_random_workload() {
    let relation = generate(&WorkloadConfig::random(500).with_seed(3));
    let tuples: Vec<(Interval, ())> = relation.intervals().map(|iv| (iv, ())).collect();
    let expected = oracle(&Count, Interval::TIMELINE, &tuples)
        .map(|v| Value::Int(v as i64))
        .coalesce();

    let catalog = catalog_with("r", relation);
    let result = execute_str(&catalog, "SELECT COUNT(*) FROM r").unwrap();
    let expected_rows: Vec<(Interval, Value)> = expected
        .iter()
        .map(|e| (e.interval, e.value.clone()))
        .collect();
    assert_eq!(sql_rows(&result), expected_rows);
}

#[test]
fn sql_sum_equals_direct_computation() {
    let relation = generate(&WorkloadConfig::sorted(400).with_seed(5));
    let salary_idx = relation.schema().index_of("salary").unwrap();
    let tuples: Vec<(Interval, i64)> = relation
        .iter()
        .map(|t| (t.valid(), t.value(salary_idx).as_i64().unwrap()))
        .collect();
    let expected = oracle(&Sum::<i64>::new(), Interval::TIMELINE, &tuples)
        .map(|v| v.map_or(Value::Null, Value::Int))
        .coalesce();

    let catalog = catalog_with("r", relation);
    let result = execute_str(&catalog, "SELECT SUM(salary) FROM r").unwrap();
    let expected_rows: Vec<(Interval, Value)> = expected
        .iter()
        .map(|e| (e.interval, e.value.clone()))
        .collect();
    assert_eq!(sql_rows(&result), expected_rows);
}

#[test]
fn sql_where_equals_prefiltered_direct_computation() {
    let relation = generate(&WorkloadConfig::random(500).with_seed(8));
    let salary_idx = relation.schema().index_of("salary").unwrap();
    let tuples: Vec<(Interval, ())> = relation
        .iter()
        .filter(|t| t.value(salary_idx).as_i64().unwrap() >= 60_000)
        .map(|t| (t.valid(), ()))
        .collect();
    let expected = oracle(&Count, Interval::TIMELINE, &tuples)
        .map(|v| Value::Int(v as i64))
        .coalesce();

    let catalog = catalog_with("r", relation);
    let result = execute_str(&catalog, "SELECT COUNT(name) FROM r WHERE salary >= 60000").unwrap();
    let expected_rows: Vec<(Interval, Value)> = expected
        .iter()
        .map(|e| (e.interval, e.value.clone()))
        .collect();
    assert_eq!(sql_rows(&result), expected_rows);
}

#[test]
fn sql_group_by_partitions_correctly() {
    let relation = generate(&WorkloadConfig::random(300).with_seed(13));
    let name_idx = relation.schema().index_of("name").unwrap();
    let catalog = catalog_with("r", relation.clone());
    let result = execute_str(&catalog, "SELECT COUNT(name) FROM r GROUP BY name").unwrap();

    // For each group in the SQL result, re-compute directly.
    let mut groups: Vec<Value> = result.rows.iter().filter_map(|r| r.group.clone()).collect();
    groups.sort();
    groups.dedup();
    assert!(groups.len() >= 2);

    for key in groups {
        let subset: Vec<(Interval, ())> = relation
            .iter()
            .filter(|t| t.value(name_idx) == &key)
            .map(|t| (t.valid(), ()))
            .collect();
        let expected = oracle(&Count, Interval::TIMELINE, &subset)
            .map(|v| Value::Int(v as i64))
            .coalesce();
        let got: Vec<(Interval, Value)> = result
            .rows
            .iter()
            .filter(|r| r.group.as_ref() == Some(&key))
            .map(|r| (r.valid, r.values[0].clone()))
            .collect();
        let expected_rows: Vec<(Interval, Value)> = expected
            .iter()
            .map(|e| (e.interval, e.value.clone()))
            .collect();
        assert_eq!(got, expected_rows, "group {key}");
    }
}

#[test]
fn sql_valid_window_equals_clipped_direct_computation() {
    let relation = generate(&WorkloadConfig::random(400).with_seed(21));
    let window = Interval::at(100_000, 500_000);
    let tuples: Vec<(Interval, ())> = relation
        .intervals()
        .filter_map(|iv| iv.intersect(&window))
        .map(|iv| (iv, ()))
        .collect();
    let expected = oracle(&Count, window, &tuples)
        .map(|v| Value::Int(v as i64))
        .coalesce();

    let catalog = catalog_with("r", relation);
    let result = execute_str(
        &catalog,
        "SELECT COUNT(*) FROM r WHERE VALID OVERLAPS [100000, 500000]",
    )
    .unwrap();
    let expected_rows: Vec<(Interval, Value)> = expected
        .iter()
        .map(|e| (e.interval, e.value.clone()))
        .collect();
    assert_eq!(sql_rows(&result), expected_rows);
    // Every row stays inside the window.
    assert!(result.rows.iter().all(|r| window.covers(&r.valid)));
}

#[test]
fn sql_planner_reacts_to_input_order() {
    let sorted = generate(&WorkloadConfig::sorted(1_000));
    let random = generate(&WorkloadConfig::random(1_000));
    let c1 = catalog_with("r", sorted);
    let c2 = catalog_with("r", random);
    let q = "SELECT COUNT(*) FROM r";
    let p1 = execute_str(&c1, q).unwrap().plan.unwrap();
    let p2 = execute_str(&c2, q).unwrap().plan.unwrap();
    assert_eq!(
        p1.choice,
        AlgorithmChoice::KOrderedTree {
            k: 1,
            presort: false
        }
    );
    // Unordered COUNT (delta retraction class) routes to the columnar
    // endpoint sweep under the default cost model.
    assert_eq!(p2.choice, AlgorithmChoice::Sweep);
}

#[test]
fn sorted_input_with_long_lived_tuples_sweeps_on_one_thread() {
    // `scan_mix`'s `S`: sorted, a fifth of the tuples long-lived. Those
    // widen the k-ordered tree's window, and the sweep's linear sort
    // undercuts it on one worker and on two; the sweep itself never
    // splits, and neither does a join, however many workers are allowed.
    use temporal_aggregates::planner::{plan_join, CostModel};
    use temporal_aggregates::sql::{execute_query, parse};
    let relation = generate(&WorkloadConfig::sorted(65_536).with_long_lived_pct(20));
    let catalog = catalog_with("s", relation);
    let q = parse("EXPLAIN SELECT COUNT(*) FROM s").unwrap();
    for parallelism in [1, 2] {
        let config = PlannerConfig {
            parallelism: Some(parallelism),
            ..PlannerConfig::default()
        };
        let plan = execute_query(&catalog, &q, &config).unwrap().plan.unwrap();
        assert_eq!(
            plan.choice,
            AlgorithmChoice::Sweep,
            "Some({parallelism}):\n{plan}"
        );
        assert_eq!(plan.parallelism, 1, "Some({parallelism}):\n{plan}");
    }
    let side = RelationStats::unknown(65_536);
    let wide = PlannerConfig {
        parallelism: Some(8),
        parallel_min_tuples: 0,
        ..PlannerConfig::default()
    };
    let join = plan_join(&side, &side, &wide, &CostModel::default());
    assert_eq!(join.parallelism, 1, "{join}");
}

#[test]
fn sql_multi_aggregate_columns_are_consistent() {
    let relation = generate(&WorkloadConfig::random(200).with_seed(2));
    let catalog = catalog_with("r", relation);
    let result = execute_str(
        &catalog,
        "SELECT COUNT(salary), MIN(salary), MAX(salary), AVG(salary) FROM r",
    )
    .unwrap();
    for row in &result.rows {
        let count = row.values[0].as_i64().unwrap();
        if count == 0 {
            assert!(row.values[1].is_null());
            assert!(row.values[2].is_null());
            assert!(row.values[3].is_null());
        } else {
            let min = row.values[1].as_i64().unwrap();
            let max = row.values[2].as_i64().unwrap();
            let avg = row.values[3].as_f64().unwrap();
            assert!(min <= max);
            assert!(min as f64 <= avg && avg <= max as f64);
        }
    }
}

/// One filter everywhere: for each `WHERE … [AND VALID OVERLAPS [a, b]]`,
/// `SELECT *`, `SELECT SNAPSHOT COUNT(*)`, `DELETE` and `UPDATE` admit the
/// same tuples — windows that touch a tuple at one instant, `FOREVER`
/// ends, `NULL` cells under `<` and `<>`, and literals of another type.
#[test]
fn select_snapshot_delete_and_update_admit_the_same_tuples() {
    use temporal_aggregates::core::Column;
    use temporal_aggregates::{Schema, StatementOutput, ValueType};
    let schema = Schema::new(vec![
        Column::new("name", ValueType::Str),
        Column::new("x", ValueType::Int).nullable(),
    ])
    .unwrap();
    let mut relation = TemporalRelation::new(schema);
    for (name, x, valid) in [
        ("a", Value::Int(5), Interval::at(0, 9)),
        ("b", Value::Null, Interval::at(10, 19)),
        ("c", Value::Int(20), Interval::from_start(20)),
        ("d", Value::Int(7), Interval::at(5, 5)),
        ("e", Value::Null, Interval::at(30, 40)),
        ("f", Value::Int(-3), Interval::at(12, 15)),
    ] {
        relation.push(vec![Value::from(name), x], valid).unwrap();
    }
    let all = catalog_with("f", relation);
    // Each WHERE clause and the names of the tuples it admits.
    let cases = [
        // NULL orders below every INT under the total order.
        ("x < 10", "abdef"),
        ("x <> 5", "bcdef"),
        ("x >= 7", "cd"),
        ("x = 7.0", "d"),
        // Every INT, and NULL, orders below a STRING and differs from it.
        ("x < 'five'", "abcdef"),
        ("x <> 'five'", "abcdef"),
        ("name = 5", ""),
        // Ends at c's start; starts at b's end; excludes f by one instant.
        ("VALID OVERLAPS [15, 20]", "bcf"),
        ("VALID OVERLAPS [19, 29]", "bc"),
        ("VALID OVERLAPS [16, 19]", "b"),
        ("VALID OVERLAPS [40, FOREVER]", "ce"),
        ("VALID OVERLAPS [41, FOREVER]", "c"),
        ("x <> 20 AND VALID OVERLAPS [9, 12]", "abf"),
        ("x < 10 AND VALID OVERLAPS [5, 5]", "ad"),
    ];
    let names = |c: &mut Catalog, sql: &str| match execute_statement(c, sql).unwrap() {
        StatementOutput::Tuples(table) => table
            .rows
            .iter()
            .map(|(values, _)| values[0].to_string())
            .collect::<String>(),
        other => panic!("{sql}: {other:?}"),
    };
    for (clause, want) in cases {
        let mut c = all.clone();
        let selected = names(&mut c, &format!("SELECT * FROM f WHERE {clause}"));
        assert_eq!(selected, want, "SELECT * WHERE {clause}");
        let sql = format!("SELECT SNAPSHOT COUNT(*) FROM f WHERE {clause}");
        let counted = execute_str(&c, &sql).unwrap().rows.to_vec();
        assert_eq!(
            counted[0].values,
            vec![Value::Int(want.len() as i64)],
            "{sql}"
        );

        let deleted = execute_statement(&mut c, &format!("DELETE FROM f WHERE {clause}")).unwrap();
        let count = want.len();
        assert_eq!(
            deleted,
            StatementOutput::Deleted {
                relation: "f".into(),
                count
            },
            "DELETE WHERE {clause}"
        );
        let kept: String = "abcdef".chars().filter(|n| !want.contains(*n)).collect();
        assert_eq!(
            names(&mut c, "SELECT * FROM f"),
            kept,
            "after DELETE WHERE {clause}"
        );

        let mut c = all.clone();
        let sql = format!("UPDATE f SET x = 99 WHERE {clause}");
        let updated = execute_statement(&mut c, &sql).unwrap();
        assert_eq!(
            updated,
            StatementOutput::Updated {
                relation: "f".into(),
                count
            },
            "{sql}"
        );
        assert_eq!(names(&mut c, "SELECT * FROM f WHERE x = 99"), want, "{sql}");
    }
}

#[test]
fn sql_span_total_equals_instant_weighted_check() {
    // Sanity link between span and instant grouping: a span bucket's count
    // must be at least the max instant count within it and at most the
    // total number of overlapping tuples.
    let relation = generate(
        &WorkloadConfig::random(200)
            .with_seed(33)
            .with_lifespan(100_000),
    );
    let catalog = catalog_with("r", relation.clone());
    let spans = execute_str(
        &catalog,
        "SELECT COUNT(*) FROM r WHERE VALID OVERLAPS [0, 99999] GROUP BY SPAN 10000",
    )
    .unwrap();
    let instants = execute_str(
        &catalog,
        "SELECT COUNT(*) FROM r WHERE VALID OVERLAPS [0, 99999]",
    )
    .unwrap();
    assert_eq!(spans.rows.len(), 10);
    for span_row in &spans.rows {
        let span_count = span_row.values[0].as_i64().unwrap();
        let max_instant = instants
            .rows
            .iter()
            .filter(|r| r.valid.overlaps(&span_row.valid))
            .map(|r| r.values[0].as_i64().unwrap())
            .max()
            .unwrap_or(0);
        assert!(
            span_count >= max_instant,
            "span {} count {span_count} < max instant count {max_instant}",
            span_row.valid
        );
    }
}

/// Duplicates are a multiset (Dignös et al., "Snapshot Semantics for
/// Temporal Multiset Relations"): an exact duplicate tuple, and two tuples
/// equal in valid time and salary that differ only in their key column,
/// count once per copy in every aggregate on every path a query takes —
/// cold scan, served second execution, streaming, `SNAPSHOT`, `OVER` and
/// `TOP k` — and `DELETE` removes copies, not values. All of it holds
/// again for the table persisted and reopened on its pages.
#[test]
fn duplicate_tuples_count_once_per_copy_on_every_path() {
    use std::path::PathBuf;
    use temporal_aggregates::sql::{execute_streaming, parse};
    use temporal_aggregates::{ResultRow, StatementOutput};

    const CREATE: &str = "CREATE TABLE t (name STRING, dept INT, salary INT)";
    // Two copies of `a`; `b` and `c` equal but for their name.
    const INSERT: &str = "INSERT INTO t VALUES ('a', 1, 100) VALID [0, 9], \
        ('a', 1, 100) VALID [0, 9], ('b', 2, 40) VALID [5, 14], ('c', 2, 40) VALID [5, 14], \
        ('d', 2, 70) VALID [0, 20]";
    const ALL: &str = "SELECT COUNT(*), SUM(salary), MIN(salary), MAX(salary), AVG(salary) FROM t";
    const EXTREMES: &str = "SELECT MIN(salary), MAX(salary) FROM t";
    // (instant, COUNT(*), SUM, MIN, MAX, AVG) with every copy counted.
    const HISTORY: [(i64, i64, i64, i64, i64, f64); 4] = [
        (2, 3, 270, 70, 100, 90.0),
        (7, 5, 350, 40, 100, 70.0),
        (12, 3, 150, 40, 70, 50.0),
        (17, 1, 70, 70, 70, 70.0),
    ];

    let at = |rows: &[ResultRow], t: i64| -> Vec<Value> {
        let row = rows.iter().find(|r| r.valid.contains(Timestamp(t)));
        row.map_or_else(Vec::new, |r| r.values.to_vec())
    };
    let check_history = |rows: &[ResultRow], what: &str| {
        for (t, count, sum, min, max, avg) in HISTORY {
            let want = vec![
                Value::Int(count),
                Value::Int(sum),
                Value::Int(min),
                Value::Int(max),
                Value::Float(avg),
            ];
            assert_eq!(at(rows, t), want, "{what} at {t}");
        }
    };
    let select = |c: &mut Catalog, sql: &str| match execute_statement(c, sql).unwrap() {
        StatementOutput::Rows(result) => {
            let choice = result.plan.as_ref().map(|p| p.choice);
            (result.rows.to_vec(), choice)
        }
        other => panic!("{sql}: {other:?}"),
    };
    let deleted = |c: &mut Catalog, sql: &str| match execute_statement(c, sql).unwrap() {
        StatementOutput::Deleted { count, .. } => count,
        other => panic!("{sql}: {other:?}"),
    };

    // `fresh` hands out an unshared copy of the table each time.
    let check = |fresh: &dyn Fn() -> Catalog, side: &str| {
        let mut c = fresh();
        let (cold, choice) = select(&mut c, ALL);
        assert_ne!(choice, Some(AlgorithmChoice::CachedSeries), "{side}");
        check_history(&cold, &format!("{side}: cold scan"));
        let (served, choice) = select(&mut c, ALL);
        assert_eq!(choice, Some(AlgorithmChoice::CachedSeries), "{side}");
        check_history(&served, &format!("{side}: served"));

        let mut streamed = Vec::new();
        let config = PlannerConfig::default();
        execute_streaming(&fresh(), &parse(ALL).unwrap(), &config, 1, |row| {
            streamed.push(row);
        })
        .unwrap();
        check_history(&streamed, &format!("{side}: streamed"));

        let snapshot = "SELECT SNAPSHOT COUNT(*), SUM(salary), MIN(salary), MAX(salary), \
                        AVG(salary) FROM t";
        let (rows, _) = select(&mut fresh(), snapshot);
        let want = [
            Value::Int(5),
            Value::Int(350),
            Value::Int(40),
            Value::Int(100),
            Value::Float(70.0),
        ];
        assert_eq!(rows[0].values[..], want, "{side}: SNAPSHOT");

        // Duration-weighted over the 21 instants: 10 + 10 + 10 + 10 + 21
        // tuple-instants, 100·20 + 40·20 + 70·21 salary-instants.
        let over = "SELECT COUNT(*), SUM(salary), MIN(salary), MAX(salary) OVER [0, 20] FROM t";
        let mut c = fresh();
        for run in ["cold", "warm"] {
            let (rows, _) = select(&mut c, over);
            let want = [
                Value::Int(61),
                Value::Int(4270),
                Value::Int(40),
                Value::Int(100),
            ];
            assert_eq!(rows[0].values[..], want, "{side}: OVER ({run})");
        }

        // With both copies `a` outranks `d` (2,000 against 1,470); counted
        // once it would not.
        let top = "SELECT TOP 2 BY SUM(salary) OVER [0, 20] FROM t GROUP BY name";
        let (rows, _) = select(&mut fresh(), top);
        let ranked: Vec<_> = rows
            .iter()
            .map(|r| (r.group.clone(), r.values.to_vec()))
            .collect();
        let want = vec![
            (Some(Value::from("a")), vec![Value::Int(2_000)]),
            (Some(Value::from("d")), vec![Value::Int(1_470)]),
        ];
        assert_eq!(ranked, want, "{side}: TOP k");

        let mut c = fresh();
        assert_eq!(
            deleted(&mut c, "DELETE FROM t WHERE name = 'a'"),
            2,
            "{side}"
        );

        // One twin gone: the other still holds 40 over [5, 14], on the
        // scan path and on a warm cache patched by the delete.
        let extremes = |rows: &[ResultRow]| [7, 12].map(|t| at(rows, t));
        let want = [
            vec![Value::Int(40), Value::Int(100)],
            vec![Value::Int(40), Value::Int(70)],
        ];
        let mut scan = fresh();
        assert_eq!(deleted(&mut scan, "DELETE FROM t WHERE name = 'b'"), 1);
        let (rows, choice) = select(&mut scan, EXTREMES);
        assert_ne!(choice, Some(AlgorithmChoice::CachedSeries), "{side}");
        assert_eq!(extremes(&rows), want, "{side}: scan after deleting a twin");
        let mut warm = fresh();
        select(&mut warm, EXTREMES);
        assert_eq!(deleted(&mut warm, "DELETE FROM t WHERE name = 'b'"), 1);
        let (rows, choice) = select(&mut warm, EXTREMES);
        assert_eq!(choice, Some(AlgorithmChoice::CachedSeries), "{side}");
        assert_eq!(
            extremes(&rows),
            want,
            "{side}: served after deleting a twin"
        );
    };

    let mut resident = Catalog::new();
    execute_statement(&mut resident, CREATE).unwrap();
    execute_statement(&mut resident, INSERT).unwrap();
    check(&|| resident.clone(), "resident");

    let dir = std::env::temp_dir();
    let path = |name: &str| -> PathBuf {
        dir.join(format!(
            "tempagg-multiset-{}-{name}.tapg",
            std::process::id()
        ))
    };
    let file = path("t");
    let open = |at: &PathBuf| {
        let mut c = Catalog::new();
        let sql = format!("{CREATE} PERSIST TO '{}'", at.display());
        execute_statement(&mut c, &sql).unwrap();
        c
    };
    let _ = std::fs::remove_file(&file);
    execute_statement(&mut open(&file), INSERT).unwrap();
    let copies = std::cell::Cell::new(0);
    let reopened = || {
        copies.set(copies.get() + 1);
        let copy = path(&copies.get().to_string());
        std::fs::copy(&file, &copy).unwrap();
        let c = open(&copy);
        assert!(
            c.store("t").unwrap().base().is_some(),
            "reopened on its pages"
        );
        c
    };
    check(&reopened, "reopened");
    for n in 1..=copies.get() {
        let _ = std::fs::remove_file(path(&n.to_string()));
    }
    let _ = std::fs::remove_file(&file);
}

/// Every aggregate kind over the `INT` column `i` and the `FLOAT` column
/// `f`, and whether a store may cache the list: an Approximate-class
/// aggregate (float `SUM`/`AVG`, the variance family) is scanned every time.
///
/// `--features validate` replays the aggregation tree's input flat and
/// demands exact equality, which float sums over non-dyadic values and the
/// Welford family legitimately miss in the last place; the validated run
/// leaves those lists, which are scanned on both sides anyway, to the
/// default run.
fn every_aggregate() -> Vec<(String, bool)> {
    let mut lists = vec![("COUNT(*)".to_owned(), true)];
    for (c, exact) in [("i", true), ("f", false)] {
        lists.extend([
            (format!("COUNT({c})"), true),
            (format!("COUNT(DISTINCT {c})"), true),
            (format!("SUM({c})"), exact),
            (format!("MIN({c})"), true),
            (format!("MAX({c})"), true),
            (format!("AVG({c})"), exact),
            (format!("VARIANCE({c})"), false),
            (format!("STDDEV({c})"), false),
        ]);
    }
    lists.push(("COUNT(*), SUM(i), AVG(f)".to_owned(), false));
    lists.retain(|(_, cacheable)| *cacheable || !cfg!(feature = "validate"));
    lists
}

/// `INSERT` rows for `t (g INT, i INT, f FLOAT)`: `f` takes non-dyadic
/// values, so a float state that retracts drifts from one that does not.
fn differential_rows(n: i64, offset: i64) -> String {
    let rows: Vec<String> = (0..n)
        .map(|k| {
            let x = k + offset;
            let start = (x * 37) % 400;
            let end = if x % 11 == 0 {
                "FOREVER".to_owned()
            } else {
                (start + 3 + (x * 13) % 60).to_string()
            };
            let f = (x % 17) as f64 / 10.0 + 0.1;
            format!(
                "({}, {}, {f:?}) VALID [{start}, {end}]",
                x % 5,
                x % 17 * 3 - 20
            )
        })
        .collect();
    format!("INSERT INTO t VALUES {}", rows.join(", "))
}

/// The rows of `sql` as `Debug` text — equal only if every value is equal
/// bit for bit — and whether the store's caches served them.
fn answered(catalog: &Catalog, sql: &str) -> (String, bool) {
    let result = execute_str(catalog, sql).unwrap();
    let rows = format!("{:?}", result.rows.to_vec());
    (rows, result.cache.served_from_cache)
}

/// `catalog`'s table `t` answers every aggregate as a fresh scan of a copy
/// of its rows does, the second time as the first.
fn assert_scans_agree(catalog: &Catalog, what: &str) {
    let mut fresh = Catalog::new();
    fresh.register("t", catalog.store("t").unwrap().relation().clone());
    for (list, _) in every_aggregate() {
        let sql = format!("SELECT {list} FROM t");
        let (scanned, served) = answered(&fresh, &sql);
        assert!(!served, "{what}: {sql}");
        assert_eq!(answered(catalog, &sql).0, scanned, "{what}: {sql}");
        assert_eq!(answered(catalog, &sql).0, scanned, "{what}, again: {sql}");
    }
}

/// Served equals scanned, byte for byte, for every aggregate kind over an
/// `INT` and a `FLOAT` column: a cold run and a warm one, after each kind
/// of write against a fresh catalog, after `PERSIST TO` and a reopen, and
/// an `OVER` window answered clean and through its `WHERE` fallback. A
/// file that holds a series no store may cache opens without it.
#[test]
fn served_rows_equal_scanned_rows_for_every_aggregate() {
    let mut catalog = Catalog::new();
    execute_statement(&mut catalog, "CREATE TABLE t (g INT, i INT, f FLOAT)").unwrap();
    execute_statement(&mut catalog, &differential_rows(300, 0)).unwrap();

    // Cold, then warm: served exactly when every aggregate is cacheable.
    for (list, cacheable) in every_aggregate() {
        let sql = format!("SELECT {list} FROM t");
        let (cold, cold_served) = answered(&catalog, &sql);
        let (warm, warm_served) = answered(&catalog, &sql);
        assert_eq!(warm, cold, "cold vs warm: {sql}");
        assert!(!cold_served, "{sql}");
        assert_eq!(warm_served, cacheable, "{sql}");
    }

    // Each kind of write, against a fresh catalog over the same rows.
    for write in [
        differential_rows(40, 1_000),
        "UPDATE t SET f = 0.7, i = 5 WHERE g = 2".to_owned(),
        "UPDATE t SET f = 1.3 WHERE VALID OVERLAPS [100, 140]".to_owned(),
        "DELETE FROM t WHERE g = 3 AND VALID OVERLAPS [50, 250]".to_owned(),
        "DELETE FROM t WHERE i = 4".to_owned(),
    ] {
        execute_statement(&mut catalog, &write).unwrap();
        assert_scans_agree(&catalog, &format!("after `{}`", &write[..20]));
    }

    // `OVER`: the clean shape (index, cached series or scan) against its
    // `WHERE` fallback, which admits every row.
    for (list, _) in every_aggregate() {
        let clean = format!("SELECT {list} OVER [60, 330) FROM t");
        let filtered = format!("SELECT {list} OVER [60, 330) FROM t WHERE g >= 0");
        let (fallback, served) = answered(&catalog, &filtered);
        assert!(!served, "{filtered}");
        assert_eq!(answered(&catalog, &clean).0, fallback, "{clean}");
        assert_eq!(answered(&catalog, &clean).0, fallback, "again: {clean}");
    }

    // `PERSIST TO`, the caches warmed and flushed with every write, then
    // the restart.
    let mut path = std::env::temp_dir();
    path.push(format!("tempagg-served-every-{}.tapg", std::process::id()));
    let create = format!(
        "CREATE TABLE t (g INT, i INT, f FLOAT) PERSIST TO '{}'",
        path.display()
    );
    let mut persisted = Catalog::new();
    execute_statement(&mut persisted, &create).unwrap();
    execute_statement(&mut persisted, &differential_rows(300, 7)).unwrap();
    assert_scans_agree(&persisted, "persisted");
    execute_statement(&mut persisted, "DELETE FROM t WHERE g = 1").unwrap();
    drop(persisted);
    let mut reopened = Catalog::new();
    execute_statement(&mut reopened, &create).unwrap();
    assert_scans_agree(&reopened, "reopened");
    temporal_aggregates::core::pager::remove_file(&path).unwrap();

    // A file holding an `AVG(f)` series — written before stores refused to
    // cache one — beside an exact `COUNT(*)` one.
    let relation = catalog.store("t").unwrap().relation().clone();
    let tuples: Vec<&Tuple> = relation.iter().collect();
    let count_star = DynAggregate::new(AggKind::CountStar, ValueType::Int).unwrap();
    let counts = temporal_aggregates::store::sweep_values(&count_star, None, &tuples);
    let series = |label: &str, column, entries| PersistedSeries {
        label: label.to_owned(),
        column,
        entries,
    };
    let stale = vec![SeriesEntry::new(Interval::TIMELINE, Value::Float(-1.0))];
    pager::write_relation(
        &relation,
        &path,
        &PagedWriteOptions {
            caches: vec![
                series("COUNT(*)", None, counts.entries().to_vec()),
                series("AVG", Some(2), stale),
            ],
            ..PagedWriteOptions::default()
        },
    )
    .unwrap();
    let mut old = Catalog::new();
    execute_statement(&mut old, &create).unwrap();
    let store = old.store("t").unwrap();
    assert!(store.has_cache(AggKind::CountStar, None));
    assert!(!store.has_cache(AggKind::Avg, Some(2)));
    assert!(answered(&old, "SELECT COUNT(*) FROM t").1);
    assert_scans_agree(&old, "a file with an AVG(f) series");
    // A write flushes the file without the series.
    execute_statement(&mut old, "DELETE FROM t WHERE g = 4").unwrap();
    let labels: Vec<String> = PagedReader::open(&path)
        .unwrap()
        .series_directory()
        .iter()
        .map(|record| format!("{}/{:?}", record.label, record.column))
        .collect();
    assert!(labels.contains(&"COUNT(*)/None".to_owned()), "{labels:?}");
    assert!(!labels.contains(&"AVG/Some(2)".to_owned()), "{labels:?}");
    drop(old);
    temporal_aggregates::core::pager::remove_file(&path).unwrap();
}

/// Integer `AVG` keeps an exact integer total: a value past 2^53 neither
/// absorbs its neighbours when they are added nor leaves a residue when it
/// retracts, so the scan, the cache and a fresh catalog answer alike, also
/// after a `DELETE`.
#[test]
fn integer_avg_is_exact_past_two_to_the_fifty_third() {
    let rows = [(9_007_199_254_740_993_i64, 0, 10), (1, 5, 20), (2, 8, 30)];
    let catalog_of = |rows: &[(i64, i64, i64)]| {
        let mut catalog = Catalog::new();
        execute_statement(&mut catalog, "CREATE TABLE t (x INT)").unwrap();
        let values: Vec<String> = rows
            .iter()
            .map(|(x, start, end)| format!("({x}) VALID [{start}, {end}]"))
            .collect();
        let insert = format!("INSERT INTO t VALUES {}", values.join(", "));
        execute_statement(&mut catalog, &insert).unwrap();
        catalog
    };
    let oracle_rows = |rows: &[(i64, i64, i64)]| -> Vec<(Interval, Value)> {
        let tuples: Vec<(Interval, i64)> = rows
            .iter()
            .map(|&(x, start, end)| (Interval::at(start, end), x))
            .collect();
        oracle(&Avg::<i64>::new(), Interval::TIMELINE, &tuples)
            .map(|v| v.map_or(Value::Null, Value::Float))
            .coalesce()
            .iter()
            .map(|e| (e.interval, e.value.clone()))
            .collect()
    };
    let sql = "SELECT AVG(x) FROM t";
    let mut catalog = catalog_of(&rows);

    let cold = execute_str(&catalog, sql).unwrap();
    assert!(!cold.cache.served_from_cache);
    assert_eq!(sql_rows(&cold), oracle_rows(&rows));
    for row in [
        (Interval::at(5, 7), Value::Float(4_503_599_627_370_497.0)),
        (Interval::at(11, 20), Value::Float(1.5)),
        (Interval::at(21, 30), Value::Float(2.0)),
    ] {
        assert!(sql_rows(&cold).contains(&row), "{row:?}");
    }
    let warm = execute_str(&catalog, sql).unwrap();
    assert!(warm.cache.served_from_cache);
    assert_eq!(sql_rows(&warm), sql_rows(&cold), "cold vs warm");

    execute_statement(&mut catalog, "DELETE FROM t WHERE x = 1").unwrap();
    let left = [rows[0], rows[2]];
    let (served, was_served) = answered(&catalog, sql);
    assert!(was_served);
    assert_eq!(
        served,
        answered(&catalog_of(&left), sql).0,
        "after DELETE vs fresh"
    );
    assert_eq!(
        sql_rows(&execute_str(&catalog, sql).unwrap()),
        oracle_rows(&left)
    );
}

/// A generated relation with its storage index prepended as column `id`.
/// Long-lived tuples last 2–8 % of the lifespan rather than the paper's
/// 20–80 %, which keeps the 20 %-long-lived joins, and the nested loop that
/// checks them, quick in a debug build.
fn indexed_relation(config: WorkloadConfig) -> TemporalRelation {
    let config = WorkloadConfig {
        long_length_frac: (0.02, 0.08),
        ..config
    };
    let schema = temporal_aggregates::Schema::of(&[
        ("id", ValueType::Int),
        ("name", ValueType::Str),
        ("salary", ValueType::Int),
    ]);
    let mut relation = TemporalRelation::new(schema);
    for (id, tuple) in generate(&config).iter().enumerate() {
        let mut values = vec![Value::Int(id as i64)];
        values.extend(tuple.values().iter().cloned());
        relation.push(values, tuple.valid()).unwrap();
    }
    relation
}

/// Every ordered pair `(left id, right id, intersection)` the predicate
/// selects, tested one by one; sorted.
fn nested_loop_join(
    predicate: JoinPredicate,
    left: &TemporalRelation,
    right: &TemporalRelation,
) -> Vec<(usize, usize, Interval)> {
    let mut pairs = Vec::new();
    for (l, lt) in left.iter().enumerate() {
        for (r, rt) in right.iter().enumerate() {
            if predicate.matches(lt.valid(), rt.valid()) {
                if let Some(overlap) = lt.valid().intersect(&rt.valid()) {
                    pairs.push((l, r, overlap));
                }
            }
        }
    }
    pairs.sort();
    pairs
}

fn tuples_of(catalog: &mut Catalog, sql: &str) -> TupleTable {
    match execute_statement(catalog, sql).unwrap() {
        StatementOutput::Tuples(table) => table,
        other => panic!("{sql}: expected tuples, got {other:?}"),
    }
}

/// The predicate that selects `(right, left)` exactly when `predicate`
/// selects `(left, right)`, if the slice has one.
fn converse(predicate: JoinPredicate) -> Option<JoinPredicate> {
    match predicate {
        JoinPredicate::Overlaps => Some(JoinPredicate::Overlaps),
        JoinPredicate::Contains => Some(JoinPredicate::During),
        JoinPredicate::During => Some(JoinPredicate::Contains),
        JoinPredicate::Meets => None,
    }
}

/// A join result as `(first id, second id, valid)` rows, in result order,
/// after checking that every row is its two tuples' values side by side.
fn joined_ids(
    table: &TupleTable,
    first: &TemporalRelation,
    second: &TemporalRelation,
) -> Vec<(usize, usize, Interval)> {
    let width = first.schema().len();
    assert_eq!(table.columns.len(), width + second.schema().len());
    table
        .rows
        .iter()
        .map(|(values, valid)| {
            let id = |v: &Value| usize::try_from(v.as_i64().unwrap()).unwrap();
            let (f, s) = (id(&values[0]), id(&values[width]));
            assert_eq!(&values[..width], first.tuples()[f].values());
            assert_eq!(&values[width..], second.tuples()[s].values());
            (f, s, *valid)
        })
        .collect()
}

/// The documented row order: grouped by the storage index of the side with
/// more tuples (`key` picks it out of a row), and within one group by
/// nondecreasing start.
fn assert_join_order(
    rows: &[(usize, usize, Interval)],
    key: impl Fn(&(usize, usize, Interval)) -> usize,
    what: &str,
) {
    for (a, b) in rows.iter().zip(rows.iter().skip(1)) {
        let (ka, kb) = (key(a), key(b));
        assert!(
            ka < kb || (ka == kb && a.2.start() <= b.2.start()),
            "{what}: row {a:?} before {b:?}"
        );
    }
}

#[test]
fn interval_join_is_a_nested_loop_in_the_larger_sides_order() {
    let predicates = [
        JoinPredicate::Overlaps,
        JoinPredicate::Contains,
        JoinPredicate::During,
        JoinPredicate::Meets,
    ];
    for (seed, sorted, long_lived) in [
        (11, false, 0),
        (12, false, 20),
        (13, true, 0),
        (14, true, 20),
    ] {
        let config = |tuples: usize, seed: u64| {
            let base = if sorted {
                WorkloadConfig::sorted(tuples)
            } else {
                WorkloadConfig::random(tuples)
            };
            base.with_seed(seed).with_long_lived_pct(long_lived)
        };
        let l = indexed_relation(config(3_000, seed));
        let r = indexed_relation(config(2_000, seed + 100));
        let mut catalog = Catalog::new();
        catalog.register("l", l.clone());
        catalog.register("r", r.clone());
        for predicate in predicates {
            let what = format!("seed {seed}, sorted {sorted}, {long_lived} % long, {predicate:?}");
            let want = nested_loop_join(predicate, &l, &r);
            assert!(!want.is_empty(), "{what}: the oracle found nothing");

            let sql = format!("SELECT * FROM l JOIN r ON {}", predicate.name());
            let got = joined_ids(&tuples_of(&mut catalog, &sql), &l, &r);
            assert_join_order(&got, |row| row.0, &what);
            let mut sorted_got = got;
            sorted_got.sort();
            assert_eq!(sorted_got, want, "{what}: {sql}");

            // `r JOIN l` under the converse predicate is the same multiset
            // with the columns swapped, and still walks `l`, the larger side.
            // MEETS has no converse in the slice; it meets its own oracle.
            let (flipped, want) = match converse(predicate) {
                Some(flipped) => (flipped, want),
                None => {
                    let swapped = nested_loop_join(predicate, &r, &l).into_iter();
                    let mut want: Vec<_> = swapped.map(|(r, l, iv)| (l, r, iv)).collect();
                    want.sort();
                    (predicate, want)
                }
            };
            let sql = format!("SELECT * FROM r JOIN l ON {}", flipped.name());
            let got = joined_ids(&tuples_of(&mut catalog, &sql), &r, &l);
            assert_join_order(&got, |row| row.1, &what);
            let mut swapped: Vec<_> = got.into_iter().map(|(r, l, iv)| (l, r, iv)).collect();
            swapped.sort();
            assert_eq!(swapped, want, "{what}: {sql}");
        }
    }
}

#[test]
fn a_join_reads_an_empty_or_reopened_side_as_it_reads_a_resident_one() {
    let l = indexed_relation(
        WorkloadConfig::random(2_000)
            .with_seed(21)
            .with_long_lived_pct(20),
    );
    let r = indexed_relation(WorkloadConfig::sorted(2_500).with_seed(22));
    let mut resident = Catalog::new();
    resident.register("l", l.clone());
    resident.register("r", r.clone());
    resident.register("e", TemporalRelation::new(l.schema().clone()));

    for sql in [
        "SELECT * FROM l JOIN e ON OVERLAPS",
        "SELECT * FROM e JOIN l ON CONTAINS",
    ] {
        let table = tuples_of(&mut resident, sql);
        assert!(table.rows.is_empty(), "{sql}");
        assert_eq!(table.columns.len(), 6, "{sql}");
        let text = table.to_string();
        assert_eq!(
            text.lines().count(),
            2,
            "{sql}: a header and its rule\n{text}"
        );
    }

    let path = std::env::temp_dir().join(format!("tempagg-join-side-{}.tapg", std::process::id()));
    TemporalStore::new(l).persist_to(&path).unwrap();
    let mut reopened = Catalog::new();
    let create = format!(
        "CREATE TABLE l (id INT, name STRING, salary INT) PERSIST TO '{}'",
        path.display()
    );
    execute_statement(&mut reopened, &create).unwrap();
    assert!(
        reopened.store("l").unwrap().base().is_some(),
        "on its pages"
    );
    reopened.register("r", r);
    for predicate in ["OVERLAPS", "CONTAINS", "DURING", "MEETS"] {
        for sql in [
            format!("SELECT * FROM l JOIN r ON {predicate}"),
            format!("SELECT * FROM r JOIN l ON {predicate}"),
        ] {
            let want = tuples_of(&mut resident, &sql);
            assert!(!want.rows.is_empty(), "{sql}");
            assert_eq!(tuples_of(&mut reopened, &sql), want, "{sql}");
        }
    }
    pager::remove_file(&path).unwrap();
}
