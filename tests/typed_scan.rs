//! The SQL scan path on typed columns: a select list that lowers to
//! `TypedMulti` must produce byte-identical rows to `MultiDyn` and to the
//! O(n²) oracle — every aggregate kind × column type × NULL pattern ×
//! query shape at the SQL level, every algorithm × parallelism at the
//! executor level — and a list that does not lower must keep working.

use temporal_aggregates::agg::{MultiDyn, TypedInput, TypedMulti, TYPED_WIDTH};
use temporal_aggregates::algo::oracle::oracle;
use temporal_aggregates::algo::scan_window;
use temporal_aggregates::planner::{execute_chunks, execute_chunks_streaming};
use temporal_aggregates::sql::{execute_query, execute_streaming, parse, ResultRow};
use temporal_aggregates::store::{index_mode_for, IndexMode};
use temporal_aggregates::{
    execute, execute_str, AggKind, Aggregate, AlgorithmChoice, Catalog, Chunk, DynAggregate,
    Interval, Plan, PlannerConfig, RowValues, Schema, Series, SeriesEntry, TempAggError,
    TemporalRelation, Timestamp, Tuple, Value, ValueType,
};

const KINDS: [AggKind; 9] = [
    AggKind::CountStar,
    AggKind::Count,
    AggKind::CountDistinct,
    AggKind::Sum,
    AggKind::Min,
    AggKind::Max,
    AggKind::Avg,
    AggKind::Variance,
    AggKind::StdDev,
];

/// Columns of the test table, by position.
const G: usize = 0;
const W: usize = 1;
const TYPED_COLUMNS: [(&str, usize, ValueType); 4] = [
    ("i", 2, ValueType::Int),
    ("f", 3, ValueType::Float),
    ("s", 4, ValueType::Str),
    ("b", 5, ValueType::Bool),
];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Nulls {
    None,
    Some,
    All,
}

/// A tiny deterministic generator (the suite must not depend on the
/// workload crate's distributions).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: u64) -> i64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % bound) as i64
    }
}

fn schema() -> std::sync::Arc<Schema> {
    use temporal_aggregates::core::Column;
    Schema::new(vec![
        Column::new("g", ValueType::Str),
        Column::new("w", ValueType::Int),
        Column::new("i", ValueType::Int).nullable(),
        Column::new("f", ValueType::Float).nullable(),
        Column::new("s", ValueType::Str).nullable(),
        Column::new("b", ValueType::Bool).nullable(),
    ])
    .unwrap()
}

/// `n` tuples over roughly `[0, 2200]`: mostly short, a tenth long-lived,
/// a few open-ended (`FOREVER`), with duplicate intervals and values.
/// Floats are multiples of 0.25 so every sum is exact in any order.
fn relation(n: usize, nulls: Nulls, seed: u64) -> TemporalRelation {
    let mut rng = Lcg(seed);
    let mut r = TemporalRelation::new(schema());
    for row in 0..n {
        let start = rng.next(2000);
        let valid = match rng.next(30) {
            0 => Interval::from_start(start),
            1..=3 => Interval::at(start, start + 500 + rng.next(1000)),
            _ => Interval::at(start, start + rng.next(200)),
        };
        let null = match nulls {
            Nulls::None => false,
            Nulls::Some => rng.next(3) == 0,
            Nulls::All => true,
        };
        let cell = |v: Value| if null { Value::Null } else { v };
        let i = rng.next(100) - 50;
        r.push(
            vec![
                Value::from(["north", "south", "east", "west"][row % 4]),
                Value::Int(rng.next(40)),
                cell(Value::Int(i)),
                cell(Value::Float(i as f64 * 0.25)),
                cell(Value::from(["ant", "bee", "cat"][rng.next(3) as usize])),
                cell(Value::Bool(i % 2 == 0)),
            ],
            valid,
        )
        .unwrap();
    }
    r
}

fn catalog(relation: &TemporalRelation) -> Catalog {
    let mut c = Catalog::new();
    c.register("t", relation.clone());
    c
}

fn forced(choice: AlgorithmChoice, parallelism: usize) -> Plan {
    Plan {
        choice,
        parallelism,
        estimated_state_bytes: 0,
        rationale: Vec::new(),
    }
}

const CHOICES: [AlgorithmChoice; 4] = [
    AlgorithmChoice::LinkedList,
    AlgorithmChoice::AggregationTree,
    AlgorithmChoice::KOrderedTree {
        k: 1,
        presort: true,
    },
    AlgorithmChoice::Sweep,
];

fn extract(columns: &[Option<usize>]) -> impl Fn(&Tuple) -> Vec<Value> + '_ {
    move |t| {
        columns
            .iter()
            .map(|c| c.map_or(Value::Bool(true), |i| t.value(i).clone()))
            .collect()
    }
}

/// The typed projection of the same columns, chunked a few rows at a time
/// so chunk boundaries fall everywhere.
fn typed_chunks(relation: &TemporalRelation, columns: &[Option<usize>]) -> Vec<Chunk<TypedInput>> {
    relation
        .tuples()
        .chunks(37)
        .map(|tuples| {
            let mut chunk = Chunk::with_capacity(tuples.len());
            for t in tuples {
                let mut input = TypedInput::default();
                for (slot, column) in columns.iter().enumerate() {
                    if let Some(Value::Int(v)) = column.map(|c| t.value(c)) {
                        input.set(slot, *v);
                    }
                }
                chunk.push(t.valid(), input).unwrap();
            }
            chunk
        })
        .collect()
}

fn int_members(kinds: &[AggKind]) -> Vec<DynAggregate> {
    kinds
        .iter()
        .map(|k| DynAggregate::new(*k, ValueType::Int).unwrap())
        .collect()
}

/// Executor level: the lowered product equals `MultiDyn` equals the
/// oracle for every algorithm and partition count, materialized and
/// streamed.
#[test]
fn typed_product_matches_multidyn_and_oracle_for_every_algorithm() {
    let lists: [&[AggKind]; 4] = [
        &[
            AggKind::CountStar,
            AggKind::Count,
            AggKind::Sum,
            AggKind::Avg,
        ],
        &[AggKind::Min, AggKind::Max, AggKind::Sum, AggKind::CountStar],
        &[AggKind::Avg],
        &[AggKind::Max, AggKind::Min],
    ];
    let i = TYPED_COLUMNS[0].1;
    for nulls in [Nulls::None, Nulls::Some, Nulls::All] {
        let r = relation(180, nulls, 11);
        for kinds in lists {
            let members = int_members(kinds);
            let typed = TypedMulti::lower(&members).expect("INT lists within the width lower");
            let multi = MultiDyn::new(members);
            let columns: Vec<Option<usize>> = kinds
                .iter()
                .map(|k| (*k != AggKind::CountStar).then_some(i))
                .collect();
            let chunks = typed_chunks(&r, &columns);
            let tuples: Vec<(Interval, Vec<Value>)> = r
                .tuples()
                .iter()
                .map(|t| (t.valid(), extract(&columns)(t)))
                .collect();
            let want = oracle(&multi, Interval::TIMELINE, &tuples).map(RowValues::from);
            for choice in CHOICES {
                for parallelism in [1usize, 2, 8] {
                    let plan = forced(choice, parallelism);
                    let what = format!("{kinds:?} {nulls:?} {choice:?} × {parallelism}");
                    let (dynamic, _) = execute(
                        &plan,
                        multi.clone(),
                        &r,
                        extract(&columns),
                        Interval::TIMELINE,
                    )
                    .unwrap();
                    let (lowered, report) =
                        execute_chunks(&plan, typed.clone(), &chunks, Interval::TIMELINE).unwrap();
                    let dynamic = dynamic.map(RowValues::from);
                    assert_eq!(lowered, dynamic, "typed vs MultiDyn: {what}");
                    assert_eq!(lowered, want, "typed vs oracle: {what}");
                    assert_eq!(report.tuples, r.len());
                    let mut streamed = Vec::new();
                    execute_chunks_streaming(
                        &plan,
                        typed.clone(),
                        &chunks,
                        Interval::TIMELINE,
                        16,
                        |c: &[SeriesEntry<RowValues>]| streamed.extend_from_slice(c),
                    )
                    .unwrap();
                    assert_eq!(streamed, lowered.entries(), "streamed: {what}");
                }
            }
        }
    }
}

/// `SUM` rides both saturation rails identically in both products, for
/// every algorithm (the oracle is left out: saturating addition is not
/// associative, so algorithms may legitimately differ from it — but never
/// from each other's product).
#[test]
fn saturating_sums_agree_between_the_products() {
    let mut r = TemporalRelation::new(schema());
    let mut push = |i: i64, a: i64, b: i64| {
        let row = vec![
            Value::from("north"),
            Value::Int(0),
            Value::Int(i),
            Value::Null,
            Value::Null,
            Value::Null,
        ];
        r.push(row, Interval::at(a, b)).unwrap();
    };
    push(i64::MAX, 0, 50);
    push(i64::MAX, 10, 60);
    push(-7, 20, 30);
    push(i64::MIN, 25, 80);
    push(i64::MIN, 40, 90);
    push(i64::MIN, 45, 70);
    push(9, 85, 95);
    let kinds = [AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max];
    let members = int_members(&kinds);
    let typed = TypedMulti::lower(&members).unwrap();
    let multi = MultiDyn::new(members);
    let columns = vec![Some(2); 4];
    let chunks = typed_chunks(&r, &columns);
    for choice in CHOICES {
        if VALIDATED && choice == AlgorithmChoice::AggregationTree {
            continue;
        }
        for parallelism in [1usize, 2, 8] {
            let plan = forced(choice, parallelism);
            let (dynamic, _) = execute(
                &plan,
                multi.clone(),
                &r,
                extract(&columns),
                Interval::TIMELINE,
            )
            .unwrap();
            let (lowered, _) =
                execute_chunks(&plan, typed.clone(), &chunks, Interval::TIMELINE).unwrap();
            assert_eq!(
                lowered,
                dynamic.map(RowValues::from),
                "{choice:?} × {parallelism}"
            );
        }
    }
    if VALIDATED {
        return; // the planner may pick the aggregation tree for SQL
    }
    // And through SQL (lowered) against MultiDyn under the reported plan.
    let c = catalog(&r);
    let sql = "SELECT SUM(i), AVG(i), MIN(i), MAX(i) FROM t WHERE w = 0";
    let result = execute_str(&c, sql).unwrap();
    let plan = result.plan.clone().unwrap();
    let (series, _) = execute(&plan, multi, &r, extract(&columns), Interval::TIMELINE).unwrap();
    assert_eq!(result.rows, rows_of(None, series, true));
    assert!(result
        .rows
        .iter()
        .any(|row| row.values[0] == Value::Int(i64::MAX)));
    assert!(result
        .rows
        .iter()
        .any(|row| row.values[0] == Value::Int(i64::MIN)));
}

/// Result rows of one aggregation set's series, coalesced like SQL does.
fn rows_of(group: Option<Value>, series: Series<Vec<Value>>, coalesce: bool) -> Vec<ResultRow> {
    let series = if coalesce { series.coalesce() } else { series };
    series
        .into_iter()
        .map(|e| ResultRow {
            group: group.clone(),
            valid: e.interval,
            values: e.value.into(),
        })
        .collect()
}

/// The qualifying tuples of a shape, clipped to its window: what SQL's
/// bind/filter step must hand the kernels, rebuilt independently.
fn select(
    relation: &TemporalRelation,
    keep: impl Fn(&Tuple) -> bool,
    window: Interval,
) -> TemporalRelation {
    let mut out = TemporalRelation::new(relation.schema().clone());
    for t in relation.tuples().iter().filter(|t| keep(t)) {
        if let Some(clipped) = t.valid().intersect(&window) {
            out.push_tuple(t.clone().with_valid(clipped)).unwrap();
        }
    }
    out
}

/// Under `--features validate` the aggregation tree replays its input
/// through a flat left-to-right merge and demands exact equality, which
/// only associative arithmetic can meet: a saturated `SUM` and the Welford
/// family legitimately differ from that replay in the last place, so the
/// validated run leaves those two corners to the default run.
const VALIDATED: bool = cfg!(feature = "validate");

/// Whether the oracle (insert-only, storage order) is byte-comparable:
/// exact kinds always; float sums by construction of the data; the
/// Welford family never (its retraction and merges round differently).
fn oracle_comparable(kind: AggKind) -> bool {
    !matches!(kind, AggKind::Variance | AggKind::StdDev)
}

/// One instant-grouped aggregation set checked three ways: SQL's rows
/// equal `MultiDyn` under the plan SQL reported, and the oracle.
fn check_instant_set(
    what: &str,
    got: &[ResultRow],
    plan: &Plan,
    (members, columns): (&[DynAggregate], &[Option<usize>]),
    group: Option<Value>,
    set: &TemporalRelation,
    domain: Interval,
) {
    let multi = MultiDyn::new(members.to_vec());
    let (series, _) = execute(plan, multi.clone(), set, extract(columns), domain).unwrap();
    assert_eq!(
        got,
        rows_of(group.clone(), series, true),
        "SQL vs MultiDyn: {what}"
    );
    if members.iter().all(|m| oracle_comparable(m.kind())) {
        let tuples: Vec<(Interval, Vec<Value>)> = set
            .tuples()
            .iter()
            .map(|t| (t.valid(), extract(columns)(t)))
            .collect();
        let want = oracle(&multi, domain, &tuples);
        assert_eq!(got, rows_of(group, want, true), "SQL vs oracle: {what}");
    }
}

fn stream(c: &Catalog, sql: &str, capacity: usize) -> Vec<ResultRow> {
    let mut rows = Vec::new();
    let summary = execute_streaming(
        c,
        &parse(sql).unwrap(),
        &PlannerConfig::default(),
        capacity,
        |row| rows.push(row),
    )
    .unwrap();
    assert_eq!(summary.rows, rows.len(), "{sql}");
    assert!(
        summary.peak_resident_result_entries <= capacity + 1,
        "{sql}"
    );
    rows
}

fn agg_sql(kind: AggKind, column: &str) -> String {
    match kind {
        AggKind::CountStar => "COUNT(*)".to_owned(),
        AggKind::CountDistinct => format!("COUNT(DISTINCT {column})"),
        _ => format!("{}({column})", kind.name()),
    }
}

/// Every shape of one select list over one relation.
fn check_shapes(r: &TemporalRelation, select_list: &str, members: &[DynAggregate], what: &str) {
    let columns: Vec<Option<usize>> = members
        .iter()
        .zip(select_list.split(", "))
        .map(|(m, text)| {
            (m.kind() != AggKind::CountStar).then(|| {
                let name = text
                    .trim_end_matches(')')
                    .rsplit(['(', ' '])
                    .next()
                    .unwrap();
                r.schema().index_of(name).unwrap()
            })
        })
        .collect();
    let columns = &columns[..];
    let timeline = Interval::TIMELINE;
    let window = Interval::at(500, 1500);
    let passes = |t: &Tuple| t.value(W) > &Value::Int(10);
    let c = catalog(r);

    // Plain (cache-eligible: this first execution scans).
    let sql = format!("SELECT {select_list} FROM t");
    let result = execute_str(&c, &sql).unwrap();
    assert!(!result.cache.served_from_cache);
    let plan = result.plan.as_ref().unwrap();
    check_instant_set(
        &format!("{what}: {sql}"),
        &result.rows.to_vec(),
        plan,
        (members, columns),
        None,
        r,
        timeline,
    );

    // WHERE.
    let sql = format!("SELECT {select_list} FROM t WHERE w > 10");
    let result = execute_str(&c, &sql).unwrap();
    let filtered = select(r, passes, timeline);
    check_instant_set(
        &format!("{what}: {sql}"),
        &result.rows.to_vec(),
        result.plan.as_ref().unwrap(),
        (members, columns),
        None,
        &filtered,
        timeline,
    );
    assert_eq!(stream(&c, &sql, 7), result.rows, "streamed {what}: {sql}");

    // VALID OVERLAPS.
    let sql = format!("SELECT {select_list} FROM t WHERE VALID OVERLAPS [500, 1500]");
    let result = execute_str(&c, &sql).unwrap();
    check_instant_set(
        &format!("{what}: {sql}"),
        &result.rows.to_vec(),
        result.plan.as_ref().unwrap(),
        (members, columns),
        None,
        &select(r, |_| true, window),
        window,
    );
    assert_eq!(stream(&c, &sql, 3), result.rows, "streamed {what}: {sql}");

    // GROUP BY col.
    let sql = format!("SELECT {select_list} FROM t GROUP BY g");
    let result = execute_str(&c, &sql).unwrap();
    let mut seen = 0;
    for name in ["east", "north", "south", "west"] {
        let key = Value::from(name);
        let set = select(r, |t| t.value(G) == &key, timeline);
        let got: Vec<ResultRow> = result
            .rows
            .iter()
            .filter(|row| row.group.as_ref() == Some(&key))
            .map(std::borrow::Cow::into_owned)
            .collect();
        if set.is_empty() {
            assert!(got.is_empty());
            continue;
        }
        seen += got.len();
        check_instant_set(
            &format!("{what}: {sql} [{name}]"),
            &got,
            result.plan.as_ref().unwrap(),
            (members, columns),
            Some(key),
            &set,
            timeline,
        );
    }
    assert_eq!(seen, result.rows.len(), "rows of unexpected groups: {sql}");
    assert!(
        result
            .rows
            .to_vec()
            .windows(2)
            .all(|p| p[0].group <= p[1].group),
        "groups ascend: {sql}"
    );
    assert_eq!(stream(&c, &sql, 5), result.rows, "streamed {what}: {sql}");

    // GROUP BY SPAN: by definition, a tuple counts in every span it
    // overlaps; spans are never coalesced.
    let sql =
        format!("SELECT {select_list} FROM t WHERE VALID OVERLAPS [0, 1999] GROUP BY g, SPAN 250");
    let result = execute_str(&c, &sql).unwrap();
    assert!(result.plan.is_none());
    let multi = MultiDyn::new(members.to_vec());
    let mut want = Vec::new();
    for name in ["east", "north", "south", "west"] {
        let key = Value::from(name);
        let set = select(r, |t| t.value(G) == &key, Interval::at(0, 1999));
        if set.is_empty() {
            continue;
        }
        for start in (0..2000).step_by(250) {
            let span = Interval::at(start, start + 249);
            let mut state = multi.empty_state();
            for t in set.tuples().iter().filter(|t| t.valid().overlaps(&span)) {
                multi.insert(&mut state, &extract(columns)(t));
            }
            want.push(ResultRow {
                group: Some(key.clone()),
                valid: span,
                values: multi.finish(&state).into(),
            });
        }
    }
    assert_eq!(result.rows, want, "{what}: {sql}");
    assert_eq!(stream(&c, &sql, 4), result.rows, "streamed {what}: {sql}");

    // OVER / TOP k fallbacks take one aggregate's windowed scalar; check
    // each member on its own, against the window reduction of MultiDyn's
    // uncoalesced series (exact kinds) and against the streamed form.
    let over = Interval::at(600, 1399);
    for (j, (member, text)) in members.iter().zip(select_list.split(", ")).enumerate() {
        let single = [*member];
        let cols = [columns[j]];
        let sql = format!("SELECT {text} OVER [600, 1400) FROM t WHERE w > 10");
        let result = execute_str(&c, &sql).unwrap();
        assert!(!result.cache.served_from_cache);
        assert_eq!(stream(&c, &sql, 2), result.rows, "streamed {what}: {sql}");
        let reduce = |set: &TemporalRelation, rank: bool| -> Option<Value> {
            let mode = index_mode_for(member)?;
            let (series, _) = execute(
                result.plan.as_ref().unwrap(),
                MultiDyn::new(single.to_vec()),
                set,
                extract(&cols),
                timeline,
            )
            .unwrap();
            let column = Series::from_entries(
                series
                    .into_iter()
                    .map(|e| SeriesEntry::new(e.interval, e.value[0].clone()))
                    .collect(),
            );
            let wa = scan_window(&column, over);
            Some(match mode {
                IndexMode::Extremes if member.kind() == AggKind::Min && !rank => wa.min,
                IndexMode::Extremes => wa.max,
                _ => wa.integral_value(),
            })
        };
        if let Some(want) = reduce(&filtered, false) {
            let rows = result.rows.to_vec();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows[0].valid, over);
            assert_eq!(rows[0].values, vec![want], "{what}: {sql}");
        }

        let sql = format!("SELECT TOP 3 BY {text} OVER [600, 1400) FROM t WHERE w > 10 GROUP BY g");
        let top = execute_str(&c, &sql).unwrap();
        assert_eq!(stream(&c, &sql, 2), top.rows, "streamed {what}: {sql}");
        let mut scored = Vec::new();
        for name in ["east", "north", "south", "west"] {
            let key = Value::from(name);
            let set = select(&filtered, |t| t.value(G) == &key, timeline);
            if set.is_empty() {
                continue;
            }
            // The scan planned from the whole relation; the reference must
            // run under that same plan.
            let plan = top.plan.as_ref().unwrap();
            let Some(mode) = index_mode_for(member) else {
                break;
            };
            let (series, _) = execute(
                plan,
                MultiDyn::new(single.to_vec()),
                &set,
                extract(&cols),
                timeline,
            )
            .unwrap();
            let column = Series::from_entries(
                series
                    .into_iter()
                    .map(|e| SeriesEntry::new(e.interval, e.value[0].clone()))
                    .collect(),
            );
            let wa = scan_window(&column, over);
            let score = match mode {
                IndexMode::Extremes => wa.max,
                _ => wa.integral_value(),
            };
            scored.push((key, score));
        }
        if !scored.is_empty() {
            scored.sort_by(|a, b| b.1.cmp(&a.1));
            scored.truncate(3);
            let got: Vec<(Value, Value)> = top
                .rows
                .iter()
                .map(|row| (row.group.clone().unwrap(), row.values[0].clone()))
                .collect();
            assert_eq!(got, scored, "{what}: {sql}");
        }
    }
}

/// SQL level: every aggregate kind over every column type it accepts,
/// alone (so INT columns lower and the rest do not), under every NULL
/// pattern and every scan shape.
#[test]
fn every_kind_and_column_type_agrees_across_shapes() {
    for nulls in [Nulls::None, Nulls::Some, Nulls::All] {
        let r = relation(160, nulls, 5);
        for kind in KINDS {
            for (name, _, ty) in TYPED_COLUMNS {
                let Ok(member) = DynAggregate::new(kind, ty) else {
                    continue; // SUM over STRING: the binder refuses it.
                };
                if kind == AggKind::CountStar && ty != ValueType::Int {
                    continue; // COUNT(*) names no column.
                }
                if VALIDATED && !oracle_comparable(kind) {
                    continue;
                }
                check_shapes(
                    &r,
                    &agg_sql(kind, name),
                    &[member],
                    &format!("{kind:?} over {ty} with {nulls:?} NULLs"),
                );
            }
        }
    }
}

/// Mixed lists: all-INT lists lower as one product, a list with one
/// non-INT member keeps `MultiDyn` for every member, and a list one wider
/// than the inline width falls back instead of truncating.
#[test]
fn multi_member_lists_lower_or_fall_back_as_a_whole() {
    let int = |kind| DynAggregate::new(kind, ValueType::Int).unwrap();
    let r = relation(160, Nulls::Some, 23);
    check_shapes(
        &r,
        "COUNT(*), SUM(i), MIN(i), AVG(w)",
        &[
            int(AggKind::CountStar),
            int(AggKind::Sum),
            int(AggKind::Min),
            int(AggKind::Avg),
        ],
        "a full-width INT list",
    );
    check_shapes(
        &r,
        "SUM(i), MAX(s), COUNT(i)",
        &[
            int(AggKind::Sum),
            DynAggregate::new(AggKind::Max, ValueType::Str).unwrap(),
            int(AggKind::Count),
        ],
        "an INT list with one STRING member",
    );
    let wide = [
        int(AggKind::Sum),
        int(AggKind::Min),
        int(AggKind::Max),
        int(AggKind::Count),
        int(AggKind::Avg),
    ];
    assert_eq!(wide.len(), TYPED_WIDTH + 1);
    assert!(TypedMulti::lower(&wide).is_none());
    assert!(TypedMulti::lower(&wide[..TYPED_WIDTH]).is_some());
    check_shapes(
        &r,
        "SUM(i), MIN(i), MAX(w), COUNT(i), AVG(w)",
        &wide,
        "a list one wider than the inline width",
    );
}

/// An empty relation: the ungrouped scan still reports the empty
/// aggregate over the whole window, grouped scans report nothing, and an
/// unbounded span grouping has no window to bucket.
#[test]
fn empty_relation_edges() {
    let c = catalog(&TemporalRelation::new(schema()));
    let whole = execute_str(&c, "SELECT COUNT(*), SUM(i), MIN(i) FROM t WHERE w > 0").unwrap();
    assert_eq!(
        whole.rows,
        vec![ResultRow {
            group: None,
            valid: Interval::TIMELINE,
            values: vec![Value::Int(0), Value::Null, Value::Null].into(),
        }]
    );
    let grouped = execute_str(&c, "SELECT SUM(i) FROM t GROUP BY g").unwrap();
    assert!(grouped.rows.is_empty());
    assert!(grouped.plan.is_some());
    let spans = execute_str(
        &c,
        "SELECT COUNT(*) FROM t WHERE VALID OVERLAPS [0, 29] GROUP BY SPAN 10",
    )
    .unwrap();
    assert_eq!(spans.rows.len(), 3);
    assert!(spans.rows.iter().all(|r| r.values == vec![Value::Int(0)]));
    assert!(matches!(
        execute_str(&c, "SELECT COUNT(*) FROM t GROUP BY SPAN 10"),
        Err(TempAggError::InvalidSpan { .. })
    ));
    let snapshot = execute_str(&c, "SELECT SNAPSHOT COUNT(*), AVG(i) FROM t").unwrap();
    assert_eq!(
        snapshot.rows.to_vec()[0].values,
        vec![Value::Int(0), Value::Null]
    );
}

/// `FOREVER`-ended tuples keep the last row open-ended in the lowered
/// path, and the forced-parallel SQL scan returns the serial rows.
#[test]
fn open_ended_tuples_and_forced_parallelism() {
    let r = relation(400, Nulls::Some, 77);
    assert!(r.tuples().iter().any(|t| t.valid().end().is_forever()));
    let sql = "SELECT COUNT(i), SUM(i), MAX(i) FROM t WHERE w >= 0";
    let serial = execute_str(&catalog(&r), sql).unwrap();
    let last = serial.rows.iter().last().unwrap();
    assert_eq!(last.valid.end(), Timestamp::FOREVER);
    assert!(
        last.values[0] > Value::Int(0),
        "open-ended tuples still count"
    );
    for parallelism in [2usize, 8] {
        let config = PlannerConfig {
            parallelism: Some(parallelism),
            parallel_min_tuples: 0,
            ..Default::default()
        };
        let parallel = execute_query(&catalog(&r), &parse(sql).unwrap(), &config).unwrap();
        assert_eq!(parallel.rows, serial.rows, "parallelism {parallelism}");
    }
    // SNAPSHOT folds the lowered inputs to the same scalars as MultiDyn.
    let snapshot = execute_str(
        &catalog(&r),
        "SELECT SNAPSHOT COUNT(*), SUM(i), AVG(i) FROM t GROUP BY g",
    )
    .unwrap();
    let members = int_members(&[AggKind::CountStar, AggKind::Sum, AggKind::Avg]);
    let multi = MultiDyn::new(members);
    let columns = [None, Some(2), Some(2)];
    for row in &snapshot.rows {
        let mut state = multi.empty_state();
        for t in r
            .tuples()
            .iter()
            .filter(|t| Some(t.value(G)) == row.group.as_ref())
        {
            multi.insert(&mut state, &extract(&columns)(t));
        }
        assert_eq!(row.values, multi.finish(&state));
    }
    assert_eq!(snapshot.rows.len(), 4);
}
