//! Robustness: hostile inputs must produce errors, never panics, and the
//! public API must uphold its documented failure modes. Randomized cases
//! come from the workspace's deterministic [`StdRng`], seeded per test.

use temporal_aggregates::prelude::*;
use temporal_aggregates::workload::employed::employed_relation;
use temporal_aggregates::workload::rng::StdRng;
use temporal_aggregates::TempAggError;

const CASES: u64 = 512;

/// The SQL pipeline must never panic on arbitrary input strings — lexer,
/// parser, and executor all return errors instead.
#[test]
fn sql_never_panics_on_garbage() {
    // A character pool heavy on SQL-adjacent punctuation plus some
    // multi-byte characters to stress byte-indexed lexing.
    const POOL: &[char] = &[
        'a', 'b', 'z', 'A', 'Z', '0', '9', '_', ' ', '\t', '\n', '(', ')', '[', ']', ',', '*', '=',
        '<', '>', '!', '\'', '"', ';', '.', '-', '+', '/', '%', '#', '∞', 'é', '時',
    ];
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x6A_0000 + case);
        let len = rng.random_range(0usize..=80);
        let input: String = (0..len)
            .map(|_| POOL[rng.random_range(0usize..POOL.len())])
            .collect();
        let mut catalog = Catalog::new();
        catalog.register("employed", employed_relation());
        let _ = temporal_aggregates::sql::execute_statement(&mut catalog, &input);
    }
}

/// Near-SQL garbage (keyword soup) must also be handled gracefully.
#[test]
fn sql_never_panics_on_keyword_soup() {
    const WORDS: &[&str] = &[
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "SPAN", "VALID", "OVERLAPS", "COUNT", "(", ")",
        "*", ",", "employed", "name", "42", "'x'", "[", "]", "AND", "=", "EXPLAIN", "SNAPSHOT",
        "DISTINCT", "INSERT", "INTO", "VALUES", "CREATE", "TABLE",
    ];
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x500B_0000 + case);
        let n = rng.random_range(0usize..15);
        let sql = (0..n)
            .map(|_| WORDS[rng.random_range(0usize..WORDS.len())])
            .collect::<Vec<_>>()
            .join(" ");
        let mut catalog = Catalog::new();
        catalog.register("employed", employed_relation());
        let _ = temporal_aggregates::sql::execute_statement(&mut catalog, &sql);
    }
}

/// Interval constructors validate rather than wrap or panic.
#[test]
fn interval_new_validates() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x17_0000 + case);
        // Full-range i64s (including near-extreme values) half the time,
        // colliding small values the other half.
        let (a, b) = if rng.random_bool(0.5) {
            (rng.next_u64() as i64, rng.next_u64() as i64)
        } else {
            (rng.random_range(-3i64..=3), rng.random_range(-3i64..=3))
        };
        match Interval::new(a, b) {
            Ok(iv) => {
                assert!(a <= b, "case {case}");
                assert_eq!(iv.start().get(), a, "case {case}");
                assert_eq!(iv.end().get(), b, "case {case}");
            }
            Err(TempAggError::InvalidInterval { .. }) => assert!(a > b, "case {case}"),
            Err(other) => panic!("unexpected error {other:?} (case {case})"),
        }
    }
}

#[test]
fn algorithms_reject_out_of_domain_without_state_damage() {
    let domain = Interval::at(100, 200);
    let mut tree = AggregationTree::with_domain(Count, domain);
    tree.push(Interval::at(100, 150), ()).unwrap();
    // A rejected push must not corrupt the tree.
    assert!(tree.push(Interval::at(0, 300), ()).is_err());
    assert!(tree.push(Interval::at(150, 201), ()).is_err());
    let series = tree.finish();
    assert_eq!(series.len(), 2);
    assert_eq!(series.entries()[0].value, 1);
}

#[test]
fn ktree_violation_leaves_consistent_state() {
    let mut tree = KOrderedAggregationTree::new(Count, 1).unwrap();
    for i in 0..50 {
        tree.push(Interval::at(i * 100, i * 100 + 10), ()).unwrap();
    }
    // A violating push errors...
    assert!(matches!(
        tree.push(Interval::at(0, 5), ()),
        Err(TempAggError::KOrderViolation { .. })
    ));
    // ...but the tree still finishes correctly for what it accepted.
    let series = tree.finish();
    assert_eq!(
        series.iter().map(|e| e.value).filter(|&v| v == 1).count(),
        50
    );
}

#[test]
fn planner_handles_degenerate_stats() {
    // Zero tuples, absurd budgets: always a usable plan, never a panic.
    for n in [0usize, 1] {
        for budget in [Some(0usize), Some(1), None] {
            let stats = RelationStats::unknown(n);
            let config = PlannerConfig {
                memory_budget_bytes: budget,
                ..Default::default()
            };
            let p = plan(&stats, &config, 4);
            let _ = p.to_string();
        }
    }
}

#[test]
fn empty_relation_through_every_path() {
    let mut catalog = Catalog::new();
    catalog.register("empty", {
        let schema = temporal_aggregates::Schema::of(&[("x", temporal_aggregates::ValueType::Int)]);
        TemporalRelation::new(schema)
    });
    // Aggregate query over an empty relation: one empty constant interval.
    let result = execute_str(&catalog, "SELECT COUNT(x) FROM empty").unwrap();
    assert_eq!(result.rows.len(), 1);
    assert_eq!(result.rows.to_vec()[0].values[0], Value::Int(0));
    // Snapshot over empty: one row of NULL/0.
    let result = execute_str(&catalog, "SELECT SNAPSHOT COUNT(x), SUM(x) FROM empty").unwrap();
    let rows = result.rows.to_vec();
    assert_eq!(rows[0].values[0], Value::Int(0));
    assert!(rows[0].values[1].is_null());
    // Plain select: no rows.
    match temporal_aggregates::sql::execute_statement(&mut catalog, "SELECT * FROM empty").unwrap()
    {
        temporal_aggregates::sql::StatementOutput::Tuples(t) => assert!(t.rows.is_empty()),
        other => panic!("unexpected {other:?}"),
    }
}
