//! Randomized round-trip test: printing any statement AST and re-parsing it
//! yields the same AST (`parse ∘ print = id`). ASTs are generated with the
//! workspace's deterministic [`StdRng`], seeded per case.

use tempagg_agg::AggKind;
use tempagg_core::{Interval, Timestamp, Value, ValueType};
use tempagg_sql::ast::{
    AggExpr, CompareOp, Condition, PlainSelect, Query, Statement, TemporalGrouping,
};
use tempagg_sql::parse_statement;
use tempagg_workload::rng::StdRng;

const CASES: u64 = 512;

/// Identifiers that re-lex as plain identifiers: lowercase start, short,
/// and not colliding with keywords / aggregate names / unit names / type
/// names.
fn ident(rng: &mut StdRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const REST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";
    loop {
        let len = rng.random_range(0usize..8);
        let mut s = String::new();
        s.push(FIRST[rng.random_range(0usize..FIRST.len())] as char);
        for _ in 0..len {
            s.push(REST[rng.random_range(0usize..REST.len())] as char);
        }
        let upper = s.to_ascii_uppercase();
        let reserved = tempagg_sql::Keyword::parse(&s).is_some()
            || AggKind::parse(&s).is_some()
            || tempagg_core::TimeUnit::parse(&s).is_some()
            || matches!(
                upper.as_str(),
                "INT"
                    | "INTEGER"
                    | "BIGINT"
                    | "FLOAT"
                    | "REAL"
                    | "DOUBLE"
                    | "STRING"
                    | "TEXT"
                    | "VARCHAR"
                    | "CHAR"
                    | "BOOL"
                    | "BOOLEAN"
            );
        if !reserved {
            return s;
        }
    }
}

/// Literals that survive print → lex → parse exactly.
fn literal(rng: &mut StdRng) -> Value {
    const STR_POOL: &[u8] = b"abcXYZ019 '";
    match rng.random_range(0usize..5) {
        0 => Value::Int(rng.random_range(-1_000_000i64..1_000_000)),
        1 => {
            let i = rng.random_range(-1_000_000i64..1_000_000);
            let frac = rng.random_range(0i64..100);
            Value::Float(i as f64 + frac as f64 / 100.0)
        }
        2 => {
            let len = rng.random_range(0usize..=12);
            Value::from(
                (0..len)
                    .map(|_| STR_POOL[rng.random_range(0usize..STR_POOL.len())] as char)
                    .collect::<String>(),
            )
        }
        3 => Value::Bool(rng.random_bool(0.5)),
        _ => Value::Null,
    }
}

fn compare_op(rng: &mut StdRng) -> CompareOp {
    match rng.random_range(0usize..6) {
        0 => CompareOp::Eq,
        1 => CompareOp::NotEq,
        2 => CompareOp::Lt,
        3 => CompareOp::LtEq,
        4 => CompareOp::Gt,
        _ => CompareOp::GtEq,
    }
}

fn condition(rng: &mut StdRng) -> Condition {
    Condition {
        column: ident(rng),
        op: compare_op(rng),
        value: literal(rng),
    }
}

fn interval(rng: &mut StdRng) -> Interval {
    if rng.random_bool(0.5) {
        let s = rng.random_range(-10_000i64..10_000);
        let len = rng.random_range(0i64..5_000);
        Interval::at(s, s + len)
    } else {
        Interval::from_start(rng.random_range(-10_000i64..10_000))
    }
}

fn agg_expr(rng: &mut StdRng) -> AggExpr {
    const KINDS: &[AggKind] = &[
        AggKind::Count,
        AggKind::CountDistinct,
        AggKind::Sum,
        AggKind::Min,
        AggKind::Max,
        AggKind::Avg,
        AggKind::Variance,
        AggKind::StdDev,
    ];
    if rng.random_bool(0.2) {
        AggExpr {
            kind: AggKind::CountStar,
            column: None,
        }
    } else {
        AggExpr {
            kind: KINDS[rng.random_range(0usize..KINDS.len())],
            column: Some(ident(rng)),
        }
    }
}

fn temporal_grouping(rng: &mut StdRng) -> TemporalGrouping {
    if rng.random_bool(0.5) {
        TemporalGrouping::Instant
    } else {
        TemporalGrouping::Span(rng.random_range(1i64..100_000))
    }
}

fn maybe<T>(rng: &mut StdRng, f: impl FnOnce(&mut StdRng) -> T) -> Option<T> {
    rng.random_bool(0.5).then(|| f(rng))
}

fn vec_of<T>(rng: &mut StdRng, lo: usize, hi: usize, f: impl Fn(&mut StdRng) -> T) -> Vec<T> {
    let n = rng.random_range(lo..hi);
    (0..n).map(|_| f(rng)).collect()
}

fn query(rng: &mut StdRng) -> Query {
    let tg = temporal_grouping(rng);
    // SNAPSHOT forbids SPAN grouping; keep generated queries valid.
    let snapshot = rng.random_bool(0.5) && tg == TemporalGrouping::Instant;
    let group_column = maybe(rng, ident);
    // OVER windows and TOP-k ranking have their own shape constraints;
    // generate them only for shapes the parser accepts.
    let windowable = !snapshot && tg == TemporalGrouping::Instant;
    let top_k = (windowable && group_column.is_some() && rng.random_bool(0.4))
        .then(|| rng.random_range(1usize..10));
    let window = if top_k.is_some() {
        Some(interval(rng))
    } else if windowable && group_column.is_none() {
        maybe(rng, interval)
    } else {
        None
    };
    let aggregates = if top_k.is_some() {
        vec![agg_expr(rng)]
    } else {
        vec_of(rng, 1, 4, agg_expr)
    };
    Query {
        explain: rng.random_bool(0.5),
        snapshot,
        aggregates,
        relation: ident(rng),
        alias: maybe(rng, ident),
        conditions: vec_of(rng, 0, 3, condition),
        valid_window: maybe(rng, interval),
        group_column,
        temporal_grouping: tg,
        window,
        top_k,
    }
}

fn plain_select(rng: &mut StdRng) -> PlainSelect {
    PlainSelect {
        columns: maybe(rng, |rng| vec_of(rng, 1, 4, ident)),
        relation: ident(rng),
        alias: maybe(rng, ident),
        conditions: vec_of(rng, 0, 3, condition),
        valid_window: maybe(rng, interval),
    }
}

fn statement(rng: &mut StdRng) -> Statement {
    const TYPES: &[ValueType] = &[
        ValueType::Int,
        ValueType::Float,
        ValueType::Str,
        ValueType::Bool,
    ];
    match rng.random_range(0usize..4) {
        0 => Statement::Query(query(rng)),
        1 => Statement::Select(plain_select(rng)),
        2 => loop {
            let columns = vec_of(rng, 1, 5, |rng| {
                (ident(rng), TYPES[rng.random_range(0usize..TYPES.len())])
            });
            let mut names: Vec<&String> = columns.iter().map(|(n, _)| n).collect();
            names.sort();
            names.dedup();
            if names.len() == columns.len() {
                break Statement::CreateTable {
                    name: ident(rng),
                    columns,
                    persist: if rng.random_range(0usize..3) == 0 {
                        Some(format!("{}.tapg", ident(rng)))
                    } else {
                        None
                    },
                };
            }
        },
        _ => Statement::Insert {
            relation: ident(rng),
            rows: vec_of(rng, 1, 4, |rng| (vec_of(rng, 1, 4, literal), interval(rng))),
        },
    }
}

#[test]
fn print_then_parse_is_identity() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x4141_0000 + case);
        let stmt = statement(&mut rng);
        let printed = stmt.to_string();
        let reparsed = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("`{printed}` failed to parse (case {case}): {e}"));
        assert_eq!(stmt, reparsed, "printed: `{printed}` (case {case})");
    }
}

#[test]
fn printing_is_stable() {
    // print ∘ parse ∘ print = print.
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5757_0000 + case);
        let stmt = statement(&mut rng);
        let once = stmt.to_string();
        let twice = parse_statement(&once).unwrap().to_string();
        assert_eq!(once, twice, "case {case}");
    }
}

#[test]
fn forever_window_prints_as_keyword() {
    let stmt = parse_statement("SELECT COUNT(x) FROM r WHERE VALID OVERLAPS [5, FOREVER]").unwrap();
    assert!(stmt.to_string().contains("FOREVER"));
    let _ = Timestamp::FOREVER; // silence unused import paths in some cfgs
}
