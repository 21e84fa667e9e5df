//! Row checksums and the independent paths that compute what each timed
//! statement must return.
//!
//! Every timed statement folds all of its rows into a [`Digest`]; outside
//! the timed phase the benchmark computes the digest the statement
//! *should* have produced by a path that shares no code with the one SQL
//! took (the aggregation tree forced through `tempagg_plan::execute`, the
//! linear `scan_window`, brute-force loops over the generated rows), and
//! the aggregation-tree reference is itself checked against the O(n²)
//! oracle on a prefix of the relation.

use crate::gen::{Fnv, Row};
use tempagg_agg::{AggKind, DynAggregate, MultiDyn};
use tempagg_algo::{scan_window, WindowAggregate};
use tempagg_core::{Interval, Series, TemporalRelation, Tuple, Value, ValueType};
use tempagg_plan::{AlgorithmChoice, Plan};
use tempagg_sql::StatementOutput;

/// An order-independent fold of result rows: the row count plus the
/// wrapping sum of per-row hashes. Row order is checked where it matters
/// by hashing each row's valid-time interval and group key into its hash.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub sum: u64,
}

impl Digest {
    pub fn add_row(&mut self, group: Option<&Value>, valid: Interval, values: &[Value]) {
        let mut h = Fnv::new();
        match group {
            Some(g) => hash_value(&mut h, g),
            None => h.bytes(&[0xff]),
        }
        h.i64(valid.start().get());
        h.i64(valid.end().get());
        for v in values {
            hash_value(&mut h, v);
        }
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h.finish());
    }

    /// The digest of a DML acknowledgement: the affected-tuple count.
    pub fn of_count(count: usize) -> Digest {
        Digest {
            rows: count as u64,
            sum: 0,
        }
    }
}

fn hash_value(h: &mut Fnv, v: &Value) {
    match v {
        Value::Null => h.bytes(&[0]),
        Value::Int(i) => {
            h.bytes(&[1]);
            h.i64(*i);
        }
        Value::Float(f) => {
            h.bytes(&[2]);
            h.u64(f.to_bits());
        }
        Value::Str(s) => {
            h.bytes(&[3]);
            h.bytes(s.as_bytes());
        }
        Value::Bool(b) => h.bytes(&[4, u8::from(*b)]),
    }
}

/// Fold everything a statement returned.
pub fn digest_output(out: &StatementOutput) -> Digest {
    let mut d = Digest::default();
    match out {
        StatementOutput::Rows(result) => {
            for row in &result.rows {
                d.add_row(row.group.as_ref(), row.valid, &row.values);
            }
        }
        StatementOutput::Tuples(table) => {
            for (values, valid) in &table.rows {
                d.add_row(None, *valid, values);
            }
        }
        StatementOutput::Created { .. } => {}
        StatementOutput::Inserted { count, .. }
        | StatementOutput::Deleted { count, .. }
        | StatementOutput::Updated { count, .. } => d = Digest::of_count(*count),
    }
    d
}

pub fn dyn_agg(kind: AggKind) -> DynAggregate {
    DynAggregate::new(kind, ValueType::Int).expect("the benchmark's aggregates accept INT")
}

/// The input a [`MultiDyn`] reads from one tuple: one value per member,
/// `COUNT(*)` (column `None`) reading a non-null marker as SQL binds it.
pub fn extract_all(columns: &[Option<usize>]) -> impl Fn(&Tuple) -> Vec<Value> + '_ {
    move |tuple| {
        columns
            .iter()
            .map(|c| c.map_or(Value::Bool(true), |i| tuple.value(i).clone()))
            .collect()
    }
}

/// A serial plan that forces `choice`.
pub fn forced_plan(choice: AlgorithmChoice) -> Plan {
    Plan {
        choice,
        parallelism: 1,
        estimated_state_bytes: 0,
        rationale: Vec::new(),
    }
}

/// The reference series of `aggs` over `relation` clipped to `domain`:
/// the aggregation tree, forced through the plan executor.
pub fn reference_series(
    aggs: &[(AggKind, Option<usize>)],
    relation: &TemporalRelation,
    domain: Interval,
) -> Series<Vec<Value>> {
    let multi = MultiDyn::new(aggs.iter().map(|(k, _)| dyn_agg(*k)).collect());
    let columns: Vec<Option<usize>> = aggs.iter().map(|(_, c)| *c).collect();
    let clipped = clip(relation, domain);
    let (series, _report) = tempagg_plan::execute(
        &forced_plan(AlgorithmChoice::AggregationTree),
        multi,
        &clipped,
        extract_all(&columns),
        domain,
    )
    .expect("the aggregation tree accepts every generated relation");
    series
}

/// Tuples overlapping `domain`, clipped to it (what `WHERE VALID OVERLAPS`
/// feeds the aggregates).
pub fn clip(relation: &TemporalRelation, domain: Interval) -> TemporalRelation {
    let mut out = TemporalRelation::new(relation.schema().clone());
    for tuple in relation {
        if let Some(valid) = tuple.valid().intersect(&domain) {
            out.push_tuple(tuple.clone().with_valid(valid))
                .expect("clipped tuples keep their schema");
        }
    }
    out
}

/// Fold a series into the digest of the rows SQL returns for it:
/// adjacent entries with equal values coalesce when `coalesce` is set
/// (instant grouping), and stay apart otherwise (span grouping).
pub fn digest_series(
    digest: &mut Digest,
    group: Option<&Value>,
    series: &Series<Vec<Value>>,
    coalesce: bool,
) {
    let mut pending: Option<(Interval, &Vec<Value>)> = None;
    for entry in series.entries() {
        match &mut pending {
            Some((valid, values))
                if coalesce && valid.meets(&entry.interval) && **values == entry.value =>
            {
                *valid = valid.hull(&entry.interval);
            }
            _ => {
                if let Some((valid, values)) = pending.take() {
                    digest.add_row(group, valid, values);
                }
                pending = Some((entry.interval, &entry.value));
            }
        }
    }
    if let Some((valid, values)) = pending {
        digest.add_row(group, valid, values);
    }
}

/// Column `j` of a product-aggregate series.
pub fn column_series(series: &Series<Vec<Value>>, j: usize) -> Series<Value> {
    let mut out = Series::with_capacity(series.len());
    for e in series.entries() {
        out.push(e.interval, e.value[j].clone());
    }
    out
}

/// What `SELECT agg OVER w` reports from a window fold: the time
/// integral for `SUM`/`COUNT`, the extreme for `MIN`/`MAX`.
pub fn window_value(kind: AggKind, wa: &WindowAggregate) -> Value {
    match kind {
        AggKind::Min => wa.min.clone(),
        AggKind::Max => wa.max.clone(),
        _ => wa.integral_value(),
    }
}

/// The digest of `SELECT aggs OVER [window]`: one row, each value the
/// linear window fold of that aggregate's reference series.
pub fn digest_window(refs: &[(AggKind, &Series<Value>)], window: Interval) -> Digest {
    let values: Vec<Value> = refs
        .iter()
        .map(|(kind, series)| window_value(*kind, &scan_window(*series, window)))
        .collect();
    let mut d = Digest::default();
    d.add_row(None, window, &values);
    d
}

/// The digest of `SELECT TOP k BY SUM(col) OVER [window] … GROUP BY g`
/// from per-group reference series in ascending group order: rank by the
/// window integral, ties keeping the lower group.
pub fn digest_top_k(groups: &[(Value, Series<Value>)], window: Interval, k: usize) -> Digest {
    let mut scored: Vec<(&Value, Value)> = groups
        .iter()
        .map(|(g, series)| (g, scan_window(series, window).integral_value()))
        .collect();
    scored.sort_by(|a, b| b.1.cmp(&a.1));
    let mut d = Digest::default();
    for (group, value) in scored.into_iter().take(k) {
        d.add_row(Some(group), window, std::slice::from_ref(&value));
    }
    d
}

/// Reference series of `SUM(salary)` per `dept`, in ascending `dept`
/// order.
pub fn sum_series_by_dept(rows: &[Row]) -> Vec<(Value, Series<Value>)> {
    let mut by_dept: std::collections::BTreeMap<i64, Vec<Row>> = std::collections::BTreeMap::new();
    for row in rows {
        by_dept.entry(row.dept).or_default().push(row.clone());
    }
    by_dept
        .into_iter()
        .map(|(k, owned)| {
            let series = reference_series(
                &[(AggKind::Sum, Some(crate::gen::SALARY))],
                &crate::gen::relation(&owned),
                Interval::TIMELINE,
            );
            (Value::Int(k), column_series(&series, 0))
        })
        .collect()
}

/// Check the aggregation-tree reference against the O(n²) oracle on the
/// first `prefix` tuples: the reference every scan expectation rests on
/// is itself tied to the executable definition of temporal grouping.
pub fn reference_matches_oracle(
    aggs: &[(AggKind, Option<usize>)],
    relation: &TemporalRelation,
    domain: Interval,
    prefix: usize,
) -> bool {
    let mut head = TemporalRelation::new(relation.schema().clone());
    for tuple in relation.iter().take(prefix) {
        head.push_tuple(tuple.clone())
            .expect("prefix tuples keep their schema");
    }
    let reference = reference_series(aggs, &head, domain);
    let multi = MultiDyn::new(aggs.iter().map(|(k, _)| dyn_agg(*k)).collect());
    let columns: Vec<Option<usize>> = aggs.iter().map(|(_, c)| *c).collect();
    let extract = extract_all(&columns);
    let items: Vec<(Interval, Vec<Value>)> = clip(&head, domain)
        .iter()
        .map(|t| (t.valid(), extract(t)))
        .collect();
    reference == tempagg_algo::oracle::oracle(&multi, domain, &items)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, Order, Rng, SALARY};

    #[test]
    fn digest_ignores_row_order_but_not_content() {
        let a = (Interval::at(0, 4), vec![Value::Int(1)]);
        let b = (Interval::at(5, 9), vec![Value::Int(2)]);
        let mut ab = Digest::default();
        ab.add_row(None, a.0, &a.1);
        ab.add_row(None, b.0, &b.1);
        let mut ba = Digest::default();
        ba.add_row(None, b.0, &b.1);
        ba.add_row(None, a.0, &a.1);
        assert_eq!(ab, ba);
        let mut other = Digest::default();
        other.add_row(None, a.0, &a.1);
        other.add_row(None, b.0, &[Value::Int(3)]);
        assert_ne!(ab, other);
        let mut grouped = Digest::default();
        grouped.add_row(Some(&Value::Int(1)), a.0, &a.1);
        grouped.add_row(None, b.0, &b.1);
        assert_ne!(ab, grouped);
    }

    #[test]
    fn sql_agrees_with_the_reference_and_the_reference_with_the_oracle() {
        let rows = gen::rows(&mut Rng::fork(5, 1), 600, 20, Order::Random);
        let relation = gen::relation(&rows);
        let aggs = [(AggKind::Sum, Some(SALARY)), (AggKind::Min, Some(SALARY))];
        let domain = Interval::at(0, gen::LAST);
        assert!(reference_matches_oracle(&aggs, &relation, domain, 256));

        let mut catalog = tempagg_sql::Catalog::new();
        catalog.register("R", relation.clone());
        let out = tempagg_sql::execute_statement(
            &mut catalog,
            "SELECT SUM(salary), MIN(salary) FROM R WHERE VALID OVERLAPS [0, 999999]",
        )
        .unwrap();
        let mut expected = Digest::default();
        digest_series(
            &mut expected,
            None,
            &reference_series(&aggs, &relation, domain),
            true,
        );
        assert_eq!(digest_output(&out), expected);
        assert!(expected.rows > 600);
    }

    #[test]
    fn window_and_top_k_expectations_match_sql() {
        let rows = gen::rows(&mut Rng::fork(6, 1), 2000, 10, Order::Random);
        let mut catalog = tempagg_sql::Catalog::new();
        catalog.register("P", gen::relation(&rows));
        let sum = column_series(
            &reference_series(
                &[(AggKind::Sum, Some(SALARY))],
                &gen::relation(&rows),
                Interval::TIMELINE,
            ),
            0,
        );
        let window = Interval::at(400_000, 409_999);
        let out = tempagg_sql::execute_statement(
            &mut catalog,
            "SELECT SUM(salary) OVER [400000, 409999] FROM P",
        )
        .unwrap();
        assert_eq!(
            digest_output(&out),
            digest_window(&[(AggKind::Sum, &sum)], window)
        );

        let groups = sum_series_by_dept(&rows);
        let out = tempagg_sql::execute_statement(
            &mut catalog,
            "SELECT TOP 10 BY SUM(salary) OVER [400000, 409999] FROM P GROUP BY dept",
        )
        .unwrap();
        assert_eq!(digest_output(&out), digest_top_k(&groups, window, 10));
    }
}
