//! Served rows == scanned rows == rows rebuilt from `snapshot()`.
//!
//! A cache-eligible `SELECT` is answered with the store's MVCC snapshots
//! themselves: the result pins them, and its cursor walks them in lockstep
//! and builds each coalesced row as the reader reaches it (DESIGN.md §17).
//! Over seeded random `INSERT`/`UPDATE`/`DELETE` programs this suite holds
//! those rows equal to a cold scan of the same relation and to an
//! independent index-wise zip of `TemporalStore::snapshot`, for select
//! lists of 1, 2, 3 and 5 aggregates — up to `ROW_INLINE_WIDTH` the row
//! values stay inline, past it they spill, and the 5-wide list is also
//! past `TYPED_WIDTH`, so its scan keeps `MultiDyn` — on live stores
//! (patched caches) and on reopened ones (series decoded from the file's
//! blocks as they are asked for) — and the count a served result reports before any row exists
//! equal to the rows its cursor then yields. A last test holds a result
//! across writes: it is a pinned version, not a view. `--features validate`
//! adds the store's structural validators after every write.

use temporal_aggregates::agg::TYPED_WIDTH;
use temporal_aggregates::core::ROW_INLINE_WIDTH;
use temporal_aggregates::prelude::*;
use temporal_aggregates::sql::{execute_streaming, parse};
use temporal_aggregates::{execute_streaming_str, AggKind, ResultRow, StatementOutput};

/// xorshift64*, as in the other integration tests.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn below(rng: &mut u64, bound: u64) -> i64 {
    (xorshift(rng) % bound) as i64
}

const X: usize = 1;
const Y: usize = 2;

/// The cache one select-list entry reads: the aggregate and its column.
type Cache = (AggKind, Option<usize>);

/// The select lists, as SQL and as the cache each entry reads.
fn select_lists() -> Vec<(&'static str, Vec<Cache>)> {
    let lists = vec![
        ("COUNT(*)", vec![(AggKind::CountStar, None)]),
        (
            "COUNT(*), SUM(x)",
            vec![(AggKind::CountStar, None), (AggKind::Sum, Some(X))],
        ),
        (
            "SUM(x), MIN(y), AVG(x)",
            vec![
                (AggKind::Sum, Some(X)),
                (AggKind::Min, Some(Y)),
                (AggKind::Avg, Some(X)),
            ],
        ),
        (
            "COUNT(*), COUNT(y), SUM(y), MIN(x), MAX(y)",
            vec![
                (AggKind::CountStar, None),
                (AggKind::Count, Some(Y)),
                (AggKind::Sum, Some(Y)),
                (AggKind::Min, Some(X)),
                (AggKind::Max, Some(Y)),
            ],
        ),
    ];
    let widths: Vec<usize> = lists.iter().map(|(_, aggs)| aggs.len()).collect();
    assert!(widths.iter().any(|w| *w < ROW_INLINE_WIDTH));
    assert!(widths.contains(&ROW_INLINE_WIDTH));
    assert!(widths
        .iter()
        .any(|w| *w > ROW_INLINE_WIDTH && *w <= TYPED_WIDTH));
    assert!(widths.iter().any(|w| *w > TYPED_WIDTH));
    lists
}

/// One random write. Intervals are short, a few long-lived, a few open.
fn random_write(rng: &mut u64) -> String {
    let interval = |rng: &mut u64| {
        let start = below(rng, 400);
        match below(rng, 10) {
            0 => format!("[{start}, FOREVER]"),
            1 => format!("[{start}, {}]", start + 100 + below(rng, 200)),
            _ => format!("[{start}, {}]", start + below(rng, 30)),
        }
    };
    match below(rng, 10) {
        0..=5 => {
            let rows: Vec<String> = (0..1 + below(rng, 3))
                .map(|_| {
                    format!(
                        "({}, {}, {}) VALID {}",
                        below(rng, 6),
                        below(rng, 50) - 10,
                        below(rng, 1_000),
                        interval(rng)
                    )
                })
                .collect();
            format!("INSERT INTO t VALUES {}", rows.join(", "))
        }
        6 | 7 => format!(
            "UPDATE t SET x = {} WHERE g = {}",
            below(rng, 50) - 10,
            below(rng, 6)
        ),
        8 => format!(
            "UPDATE t SET y = {} WHERE VALID OVERLAPS [{}, {}]",
            below(rng, 1_000),
            below(rng, 400),
            400 + below(rng, 50)
        ),
        _ => {
            let a = below(rng, 400);
            format!(
                "DELETE FROM t WHERE g = {} AND VALID OVERLAPS [{a}, {}]",
                below(rng, 6),
                a + 60
            )
        }
    }
}

/// The rows a served `SELECT` stands for, rebuilt independently: zip the
/// aggregates' published snapshots index-wise and coalesce.
fn rows_from_snapshots(store: &TemporalStore, aggs: &[Cache]) -> Vec<ResultRow> {
    let snapshots: Vec<_> = aggs
        .iter()
        .map(|(kind, column)| store.snapshot(*kind, *column).expect("the cache is warm"))
        .collect();
    let mut rows: Vec<ResultRow> = Vec::new();
    for (i, lead) in snapshots[0].entries().iter().enumerate() {
        let values: Vec<Value> = snapshots
            .iter()
            .map(|series| {
                assert_eq!(series.len(), snapshots[0].len());
                assert_eq!(series.entries()[i].interval, lead.interval);
                series.entries()[i].value.clone()
            })
            .collect();
        match rows.last_mut() {
            Some(prev) if prev.valid.meets(&lead.interval) && prev.values == values => {
                prev.valid = prev.valid.hull(&lead.interval);
            }
            _ => rows.push(ResultRow {
                group: None,
                valid: lead.interval,
                values: values.into(),
            }),
        }
    }
    rows
}

/// Check every select list against `catalog`'s table `t`: the statement
/// as the catalog answers it (served, once its caches are warm), a cold
/// scan of a copy of the relation, and the snapshot zip.
fn check(catalog: &Catalog, what: &str, expect_served: bool) {
    let store = catalog.store("t").unwrap();
    let mut cold = Catalog::new();
    cold.register("t", store.relation().clone());
    for (list, aggs) in select_lists() {
        let sql = format!("SELECT {list} FROM t");
        let scanned = execute_str(&cold, &sql).unwrap();
        assert!(!scanned.cache.served_from_cache, "{what}: {sql}");
        let answered = execute_str(catalog, &sql).unwrap();
        assert_eq!(
            answered.cache.served_from_cache, expect_served,
            "{what}: {sql}"
        );
        // `==` is the row sequence, whichever side holds snapshots.
        assert_eq!(answered.rows, scanned.rows, "{what}: {sql}");
        assert_eq!(scanned.rows, answered.rows, "{what}: {sql}");
        // A served result counted its rows before building one: the count
        // is the scan's, and it is what the cursor goes on to yield.
        assert_eq!(answered.rows.len(), scanned.rows.len(), "{what}: {sql}");
        assert_eq!(
            answered.rows.iter().count(),
            answered.rows.len(),
            "{what}: {sql}"
        );
        assert_eq!(
            answered.rows,
            rows_from_snapshots(store, &aggs),
            "{what}: {sql} vs snapshot()"
        );
        // The same rows through the streaming buffer, at the default chunk
        // capacity and with one row resident besides the lookahead.
        let mut streamed = Vec::new();
        execute_streaming_str(catalog, &sql, |row| streamed.push(row)).unwrap();
        assert_eq!(streamed, answered.rows, "{what}: streamed {sql}");
        let mut one_by_one = Vec::new();
        let summary = execute_streaming(
            catalog,
            &parse(&sql).unwrap(),
            &PlannerConfig::default(),
            1,
            |row| one_by_one.push(row),
        )
        .unwrap();
        assert_eq!(one_by_one, answered.rows, "{what}: streamed at 1 {sql}");
        assert_eq!(summary.rows, answered.rows.len(), "{what}: {sql}");
        assert!(summary.peak_resident_result_entries <= 2, "{what}: {sql}");
        for row in &answered.rows {
            assert_eq!(row.values.len(), aggs.len());
        }
    }
}

fn run_program(catalog: &mut Catalog, rng: &mut u64, writes: usize, what: &str) {
    for step in 0..writes {
        let sql = random_write(rng);
        match execute_statement(catalog, &sql) {
            Ok(
                StatementOutput::Inserted { .. }
                | StatementOutput::Updated { .. }
                | StatementOutput::Deleted { .. },
            ) => {}
            other => panic!("{what} step {step}: `{sql}` gave {other:?}"),
        }
        if step % 8 == 7 {
            check(catalog, &format!("{what} after step {step}"), true);
        }
    }
}

#[test]
fn served_rows_equal_scanned_rows_and_the_snapshot_zip_on_live_stores() {
    for seed in 1..=6u64 {
        let mut rng = 0x5EED_0000 + seed;
        let mut catalog = Catalog::new();
        execute_statement(&mut catalog, "CREATE TABLE t (g INT, x INT, y INT)").unwrap();
        let what = format!("live seed {seed}");
        // The empty table: the first answer scans and warms the caches.
        check(&catalog, &format!("{what} empty"), false);
        check(&catalog, &format!("{what} empty, warm"), true);
        run_program(&mut catalog, &mut rng, 48, &what);
    }
}

#[test]
fn served_rows_equal_scanned_rows_and_the_snapshot_zip_on_reopened_stores() {
    for seed in 1..=3u64 {
        let mut rng = 0xF11E_0000 + seed;
        let mut path = std::env::temp_dir();
        path.push(format!(
            "tempagg-served-rows-{}-{seed}.tapg",
            std::process::id()
        ));
        let create = format!(
            "CREATE TABLE t (g INT, x INT, y INT) PERSIST TO '{}'",
            path.display()
        );
        let what = format!("reopened seed {seed}");

        let mut catalog = Catalog::new();
        execute_statement(&mut catalog, &create).unwrap();
        check(&catalog, &format!("{what} empty"), false);
        // Every write flushes the relation and every cached series.
        run_program(&mut catalog, &mut rng, 24, &what);
        let live_rows = execute_str(&catalog, "SELECT COUNT(*), SUM(x) FROM t")
            .unwrap()
            .rows;
        drop(catalog);

        // The restart: series come back from the file, each at its first
        // use, and serve as they are; the first write promotes them to live
        // caches again.
        let mut reopened = Catalog::new();
        execute_statement(&mut reopened, &create).unwrap();
        assert_eq!(reopened.store("t").unwrap().cache_stats().caches, 0);
        check(&reopened, &format!("{what} restored"), true);
        assert_eq!(
            execute_str(&reopened, "SELECT COUNT(*), SUM(x) FROM t")
                .unwrap()
                .rows,
            live_rows
        );
        run_program(&mut reopened, &mut rng, 16, &format!("{what} promoted"));
        drop(reopened);
        temporal_aggregates::core::pager::remove_file(&path).unwrap();
    }
}

/// A served result holds its snapshots, so it is the answer as of its
/// statement however long it is read for: half of it read, the relation
/// written under it three ways, the rest read — the whole is the scan taken
/// before the writes. The pins go when the result does, and the store
/// collects the superseded versions at its next publish.
#[test]
fn a_held_result_is_a_pinned_version() {
    let mut rng = 0x91E0_0001u64;
    let mut catalog = Catalog::new();
    execute_statement(&mut catalog, "CREATE TABLE t (g INT, x INT, y INT)").unwrap();
    // Enough rows that the second half is built well after the writes,
    // whatever the cursor builds ahead of its reader.
    for _ in 0..40 {
        let rows: Vec<String> = (0..50)
            .map(|_| {
                let start = below(&mut rng, 20_000);
                format!(
                    "({}, {}, 0) VALID [{start}, {}]",
                    below(&mut rng, 6),
                    below(&mut rng, 50),
                    start + below(&mut rng, 40)
                )
            })
            .collect();
        execute_statement(
            &mut catalog,
            &format!("INSERT INTO t VALUES {}", rows.join(", ")),
        )
        .unwrap();
    }
    let sql = "SELECT COUNT(*), SUM(x) FROM t";
    let before: Vec<ResultRow> = execute_str(&catalog, sql).unwrap().rows.to_vec(); // scans, warms
    assert!(before.len() > 2_000);
    let stats = |catalog: &Catalog| catalog.store("t").unwrap().cache_stats();
    assert_eq!(stats(&catalog).pinned_versions, 0);

    let held = execute_str(&catalog, sql).unwrap();
    assert!(held.cache.served_from_cache);
    assert_eq!(stats(&catalog).pinned_versions, 2, "one per aggregate");
    let mut cursor = held.rows.iter();
    let mut read: Vec<ResultRow> = Vec::new();
    read.extend(
        cursor
            .by_ref()
            .take(before.len() / 2)
            .map(std::borrow::Cow::into_owned),
    );

    for write in [
        "INSERT INTO t VALUES (1, 7, 0) VALID [0, 30000], (2, 9, 0) VALID [15000, FOREVER]",
        "UPDATE t SET x = 1000 WHERE g = 3",
        "DELETE FROM t WHERE g = 4",
    ] {
        execute_statement(&mut catalog, write).unwrap();
        // Each answer after a write publishes a new version of both series.
        let fresh = execute_str(&catalog, sql).unwrap();
        assert!(fresh.cache.served_from_cache);
        assert_ne!(fresh.rows, before);
        assert_eq!(held.rows.len(), before.len());
    }
    assert_eq!(cursor.len(), before.len() - read.len());
    read.extend(cursor.map(std::borrow::Cow::into_owned));
    assert_eq!(read, before);
    assert_eq!(held.rows, before);

    // The held versions and the newest: two per series, two of them pinned.
    assert_eq!(stats(&catalog).live_versions, 4);
    assert_eq!(stats(&catalog).pinned_versions, 2);
    drop(held);
    assert_eq!(stats(&catalog).pinned_versions, 0);
    execute_statement(&mut catalog, "INSERT INTO t VALUES (5, 5, 5) VALID [1, 2]").unwrap();
    drop(execute_str(&catalog, sql).unwrap());
    assert_eq!(
        stats(&catalog).live_versions,
        2,
        "superseded versions collected"
    );
    assert_eq!(stats(&catalog).pinned_versions, 0);
}
