//! Randomized oracle tests for the window-aggregate index (DESIGN.md §16).
//!
//! Every indexable aggregate (`COUNT(*)`, `COUNT`, `SUM`, `MIN`, `MAX`)
//! is probed through the SQL `OVER [a, b]` path and compared against the
//! engine's scan fallback — the same query with a vacuously-true `WHERE`,
//! which forces the planner off the index. The comparison runs over four
//! data shapes (random, sorted, duplicate-endpoint, touching) with
//! interleaved `INSERT`/`DELETE`/`UPDATE` between query rounds, so the
//! index answers come from incremental maintenance, not fresh builds.
//! Under `--features validate` the store additionally asserts each probe
//! byte-identical to a linear scan of the cached series.

use temporal_aggregates::core::{Interval, Schema, TemporalRelation, Timestamp, Value, ValueType};
use temporal_aggregates::prelude::*;
use temporal_aggregates::store::sweep_values;
use temporal_aggregates::{AggKind, DynAggregate, TemporalStore};

/// The workspace's dependency-free PRNG (xorshift64*), as in the other
/// integration tests.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

const LIFESPAN: i64 = 2_000;
const SHAPES: &[&str] = &["random", "sorted", "duplicate-endpoint", "touching"];
const AGGS: &[&str] = &["COUNT(*)", "COUNT(x)", "SUM(x)", "MIN(x)", "MAX(x)"];

/// One tuple interval of the given shape. `i` is the tuple's index in
/// creation order, so "sorted" and "touching" can build on it.
fn shaped_interval(shape: &str, rng: &mut u64, i: usize, n: usize) -> Interval {
    match shape {
        "sorted" => {
            // Starts ascend with i; lengths stay random.
            let start = (i as i64 * LIFESPAN) / n as i64;
            let len = (xorshift(rng) % 200) as i64;
            Interval::at(start, (start + len).min(LIFESPAN))
        }
        "duplicate-endpoint" => {
            // Endpoints drawn from a tiny palette: maximal boundary
            // collisions, the sweep's and the index's trickiest case.
            let palette = [0i64, 250, 500, 750, 1_000, 1_500, LIFESPAN];
            let a = palette[(xorshift(rng) % palette.len() as u64) as usize];
            let b = palette[(xorshift(rng) % palette.len() as u64) as usize];
            Interval::at(a.min(b), a.max(b))
        }
        "touching" => {
            // Consecutive tuples meet exactly: end + 1 == next start.
            let width = LIFESPAN / n as i64;
            let start = i as i64 * width;
            Interval::at(start, start + width - 1)
        }
        _ => {
            let start = (xorshift(rng) % (LIFESPAN as u64 - 200)) as i64;
            let len = (xorshift(rng) % 200) as i64;
            Interval::at(start, start + len)
        }
    }
}

/// A fresh `(g INT, x INT)` relation of `n` tuples in the given shape,
/// with `groups` distinct group values and positive `x` (so `x > 0` is a
/// vacuously-true fallback-forcing condition).
fn shaped_relation(shape: &str, rng: &mut u64, n: usize, groups: u64) -> TemporalRelation {
    let schema = Schema::of(&[("g", ValueType::Int), ("x", ValueType::Int)]);
    let mut relation = TemporalRelation::new(schema);
    for i in 0..n {
        let g = (xorshift(rng) % groups) as i64;
        let x = (xorshift(rng) % 1_000) as i64 + 1;
        let valid = shaped_interval(shape, rng, i, n);
        relation
            .push(vec![Value::Int(g), Value::Int(x)], valid)
            .expect("generated row fits the schema");
    }
    relation
}

/// One randomized DML statement against `t`, keeping `x` positive.
fn random_dml(rng: &mut u64, round: usize) -> String {
    match round % 3 {
        0 => {
            let g = xorshift(rng) % 8;
            let x = xorshift(rng) % 1_000 + 1;
            let start = (xorshift(rng) % (LIFESPAN as u64 - 100)) as i64;
            let len = (xorshift(rng) % 100) as i64;
            format!(
                "INSERT INTO t VALUES ({g}, {x}) VALID [{start}, {end}]",
                end = start + len
            )
        }
        1 => {
            let g = xorshift(rng) % 8;
            let x = xorshift(rng) % 1_000 + 1;
            format!("UPDATE t SET x = {x} WHERE g = {g}")
        }
        _ => {
            let g = xorshift(rng) % 8;
            let a = (xorshift(rng) % (LIFESPAN as u64 - 200)) as i64;
            format!(
                "DELETE FROM t WHERE g = {g} AND VALID OVERLAPS [{a}, {b}]",
                b = a + 200
            )
        }
    }
}

fn random_window(rng: &mut u64) -> (i64, i64) {
    let a = (xorshift(rng) % (LIFESPAN as u64 - 100)) as i64;
    let len = (xorshift(rng) % 400) as i64;
    (a, (a + len).min(LIFESPAN))
}

/// Index-served `OVER` queries equal the scan fallback, for all five
/// indexable aggregates, every data shape, across interleaved DML.
///
/// Relations are big enough (~1K runs) that the cost model picks the
/// index probe; the duplicate-endpoint shape collapses to a handful of
/// runs, where the planner legitimately prefers the cached linear scan —
/// that path must agree with the fallback too, so it stays in the sweep.
/// The store-level test below exercises the index itself on every shape.
#[test]
fn window_queries_agree_with_the_scan_fallback() {
    for (s, shape) in SHAPES.iter().enumerate() {
        let mut rng = 0xA11CE + s as u64;
        let mut catalog = Catalog::new();
        catalog.register("t", shaped_relation(shape, &mut rng, 1_024, 8));
        for round in 0..9 {
            if round > 0 {
                let dml = random_dml(&mut rng, round);
                execute_statement(&mut catalog, &dml)
                    .unwrap_or_else(|e| panic!("[{shape}] `{dml}`: {e}"));
            }
            for agg in AGGS {
                let (a, b) = random_window(&mut rng);
                let indexed =
                    execute_str(&catalog, &format!("SELECT {agg} OVER [{a}, {b}] FROM t"))
                        .unwrap_or_else(|e| panic!("[{shape}] {agg} OVER [{a}, {b}]: {e}"));
                let scanned = execute_str(
                    &catalog,
                    &format!("SELECT {agg} OVER [{a}, {b}] FROM t WHERE x > 0"),
                )
                .unwrap_or_else(|e| panic!("[{shape}] fallback {agg} OVER [{a}, {b}]: {e}"));
                assert_eq!(
                    indexed.rows, scanned.rows,
                    "[{shape}] round {round}: {agg} OVER [{a}, {b}] diverged from the fallback"
                );
            }
        }
    }
}

/// `TOP k BY … OVER … GROUP BY g` rankings equal the per-group sweep
/// fallback, across shapes, aggregates, and DML rounds.
#[test]
fn top_k_rankings_agree_with_the_grouped_fallback() {
    for (s, shape) in SHAPES.iter().enumerate() {
        let mut rng = 0xB0B0 + s as u64;
        let mut catalog = Catalog::new();
        catalog.register("t", shaped_relation(shape, &mut rng, 1_024, 8));
        for round in 0..6 {
            if round > 0 {
                let dml = random_dml(&mut rng, round);
                execute_statement(&mut catalog, &dml)
                    .unwrap_or_else(|e| panic!("[{shape}] `{dml}`: {e}"));
            }
            for agg in AGGS {
                let (a, b) = random_window(&mut rng);
                let k = (xorshift(&mut rng) % 4) as usize + 1;
                let indexed = execute_str(
                    &catalog,
                    &format!("SELECT TOP {k} BY {agg} OVER [{a}, {b}] FROM t GROUP BY g"),
                )
                .unwrap_or_else(|e| panic!("[{shape}] TOP {k} BY {agg}: {e}"));
                let scanned = execute_str(
                    &catalog,
                    &format!(
                        "SELECT TOP {k} BY {agg} OVER [{a}, {b}] FROM t WHERE x > 0 GROUP BY g"
                    ),
                )
                .unwrap_or_else(|e| panic!("[{shape}] fallback TOP {k} BY {agg}: {e}"));
                assert_eq!(
                    indexed.rows, scanned.rows,
                    "[{shape}] round {round}: TOP {k} BY {agg} OVER [{a}, {b}] \
                     diverged from the fallback"
                );
            }
        }
    }
}

/// Store-level probes are *always* index descents (no planner in the
/// way): after every DML round, each aggregate's `window_probe` must
/// equal a from-scratch sweep of the live relation scanned linearly —
/// the incremental maintenance oracle, on every data shape.
#[test]
fn window_probes_match_fresh_sweeps_across_dml() {
    use temporal_aggregates::algo::scan_window;
    let aggs = [
        (AggKind::CountStar, None),
        (AggKind::Count, Some(1)),
        (AggKind::Sum, Some(1)),
        (AggKind::Min, Some(1)),
        (AggKind::Max, Some(1)),
    ];
    for (s, shape) in SHAPES.iter().enumerate() {
        let mut rng = 0xD1CE + s as u64;
        let mut store = TemporalStore::new(shaped_relation(shape, &mut rng, 128, 8));
        for round in 0..12 {
            match round % 3 {
                0 => {
                    let g = (xorshift(&mut rng) % 8) as i64;
                    let x = (xorshift(&mut rng) % 1_000) as i64 + 1;
                    let start = (xorshift(&mut rng) % (LIFESPAN as u64 - 100)) as i64;
                    let len = (xorshift(&mut rng) % 100) as i64;
                    store
                        .insert(
                            vec![Value::Int(g), Value::Int(x)],
                            Interval::at(start, start + len),
                        )
                        .expect("insert through the store");
                }
                1 => {
                    let g = (xorshift(&mut rng) % 8) as i64;
                    let x = (xorshift(&mut rng) % 1_000) as i64 + 1;
                    store
                        .update_where(|t| t.value(0) == &Value::Int(g), &[(1, Value::Int(x))])
                        .expect("update through the store");
                }
                _ => {
                    let g = (xorshift(&mut rng) % 8) as i64;
                    let a = (xorshift(&mut rng) % (LIFESPAN as u64 - 200)) as i64;
                    let cut = Interval::at(a, a + 200);
                    store
                        .delete_where(|t| {
                            t.value(0) == &Value::Int(g) && t.valid().intersect(&cut).is_some()
                        })
                        .expect("delete through the store");
                }
            }
            let (a, b) = random_window(&mut rng);
            let window = Interval::at(a, b);
            for (kind, column) in aggs {
                let probed = store
                    .window_probe(kind, column, window)
                    .expect("indexable aggregate");
                let agg = DynAggregate::new(kind, ValueType::Int).expect("indexable pairing");
                let tuples: Vec<_> = store.relation().iter().collect();
                let fresh = sweep_values(&agg, column, &tuples);
                assert_eq!(
                    probed,
                    scan_window(&fresh, window),
                    "[{shape}] round {round}: {kind:?} probe over {window} diverged \
                     from a fresh sweep"
                );
            }
        }
    }
}

/// Extreme-instant descent agrees with a linear scan of the same cached
/// series: same extreme value, same earliest instant, also after DML.
#[test]
fn extreme_instant_probes_match_a_linear_scan() {
    let mut rng = 0xEE7;
    let mut store = TemporalStore::new(shaped_relation("random", &mut rng, 96, 8));
    let agg = DynAggregate::new(AggKind::Sum, ValueType::Int).expect("SUM over Int");
    for round in 0..12 {
        if round == 6 {
            store
                .insert(
                    vec![Value::Int(3), Value::Int(5_000)],
                    Interval::at(900, 1_100),
                )
                .expect("insert through the store");
        }
        let (a, b) = random_window(&mut rng);
        let window = Interval::at(a, b);
        for want_max in [false, true] {
            let probed = store
                .window_extreme_instant(AggKind::Sum, Some(1), window, want_max)
                .expect("SUM(x) is indexable");
            // Linear oracle over the same snapshot: earliest clipped run
            // attaining the extreme non-null value.
            let series = store
                .snapshot(AggKind::Sum, Some(1))
                .expect("cache is warm");
            let mut best: Option<(Timestamp, Value)> = None;
            for entry in series.entries() {
                let Some(clipped) = entry.interval.intersect(&window) else {
                    continue;
                };
                if entry.value.is_null() {
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some((_, value)) => {
                        let cmp = entry.value.total_cmp(value);
                        if want_max {
                            cmp.is_gt()
                        } else {
                            cmp.is_lt()
                        }
                    }
                };
                if better {
                    best = Some((clipped.start(), entry.value.clone()));
                }
            }
            assert_eq!(
                probed, best,
                "round {round}: extreme_instant(want_max={want_max}) over {window}"
            );
        }
        let _ = agg;
    }
}

/// `CacheReport` surfaces index traffic: a cold `OVER` query misses, a
/// warm repeat hits, and both count their probes.
#[test]
fn cache_report_counts_index_probes() {
    let mut rng = 0xC0DE;
    let mut catalog = Catalog::new();
    catalog.register("t", shaped_relation("random", &mut rng, 1_024, 4));
    let cold = execute_str(&catalog, "SELECT SUM(x) OVER [100, 900] FROM t").unwrap();
    assert!(cold.cache.served_from_cache);
    assert_eq!(cold.cache.index_misses, 1);
    assert_eq!(cold.cache.index_probes, 1);
    let warm = execute_str(&catalog, "SELECT SUM(x) OVER [200, 800] FROM t").unwrap();
    assert_eq!(warm.cache.index_hits, 1);
    assert_eq!(warm.cache.index_misses, 0);
    assert_eq!(warm.cache.index_probes, 1);
}

/// Planning an `OVER` statement reads how many runs the cached series
/// has, not the series: the first probe after a write publishes no MVCC
/// version (a reader pinning the old one would otherwise see a second
/// version appear), still takes the index, and equals a linear
/// `scan_window` over the series as it stands after the write.
#[test]
fn over_probe_after_a_write_publishes_nothing() {
    use temporal_aggregates::algo::scan_window;
    let mut rng = 0xFACE;
    let mut catalog = Catalog::new();
    catalog.register("t", shaped_relation("random", &mut rng, 1_024, 4));
    let sql = "SELECT SUM(x) OVER [100, 900] FROM t";
    execute_str(&catalog, sql).unwrap(); // builds the cache and its index
    let store = catalog.store("t").unwrap();
    let pinned = store.snapshot(AggKind::Sum, Some(1)).unwrap();
    assert_eq!(store.cached_runs(AggKind::Sum, Some(1)), Some(pinned.len()));
    assert_eq!(store.cached_runs(AggKind::Max, Some(1)), None);

    execute_statement(&mut catalog, "INSERT INTO t VALUES (1, 7) VALID [150, 450]").unwrap();
    let store = catalog.store("t").unwrap();
    let before = store.cache_stats();
    assert_eq!((before.live_versions, before.pinned_versions), (1, 1));

    let probed = execute_str(&catalog, sql).unwrap();
    assert_eq!(
        probed.plan.as_ref().unwrap().choice,
        AlgorithmChoice::IndexProbe
    );
    assert_eq!(probed.cache.index_hits, 1);
    assert_eq!(store.cache_stats(), before);

    // The answer is the live series', not the pinned one's.
    let fresh = store.snapshot(AggKind::Sum, Some(1)).unwrap();
    assert_eq!(store.cache_stats().live_versions, 2);
    assert_eq!(store.cached_runs(AggKind::Sum, Some(1)), Some(fresh.len()));
    let window = Interval::at(100, 900);
    let want = scan_window(&*fresh, window).integral_value();
    assert_eq!(probed.rows.to_vec()[0].values, vec![want.clone()]);
    assert_ne!(scan_window(&*pinned, window).integral_value(), want);
}

/// `sweep_values` (the grouped fallback's kernel) agrees with the cache
/// the store publishes for the same tuples — the byte-identity bridge
/// the TOP-k machinery depends on.
#[test]
fn grouped_sweeps_match_store_caches() {
    let mut rng = 0x5EED;
    let relation = shaped_relation("duplicate-endpoint", &mut rng, 64, 1);
    let tuples: Vec<_> = relation.iter().collect();
    let agg = DynAggregate::new(AggKind::Max, ValueType::Int).expect("MAX over Int");
    let swept = sweep_values(&agg, Some(1), &tuples);
    let store = TemporalStore::new(relation.clone());
    let cached = store.snapshot_or_build(agg, Some(1));
    assert_eq!(swept.entries(), cached.entries());
}
