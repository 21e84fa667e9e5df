//! Runtime-configured aggregates over [`Value`]s, used by the SQL front end
//! and the planner, where the aggregate and its column are chosen at query
//! time.
//!
//! SQL NULL semantics: every kind except `CountStar` skips `NULL` inputs;
//! `CountStar` counts every qualifying tuple.

use crate::aggregate::Aggregate;
use crate::avg::{Avg, AvgState};
use crate::variance::{Variance, VarianceState};
use tempagg_core::{Result, TempAggError, Value, ValueType};

/// The aggregate functions expressible in the SQL layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AggKind {
    /// `COUNT(*)` — counts tuples, including NULL attribute values.
    CountStar,
    /// `COUNT(col)` — counts non-NULL values.
    Count,
    /// `COUNT(DISTINCT col)` — counts distinct non-NULL values.
    CountDistinct,
    Sum,
    Min,
    Max,
    Avg,
    Variance,
    StdDev,
}

impl AggKind {
    pub fn name(self) -> &'static str {
        match self {
            AggKind::CountStar => "COUNT(*)",
            AggKind::Count => "COUNT",
            AggKind::CountDistinct => "COUNT DISTINCT",
            AggKind::Sum => "SUM",
            AggKind::Min => "MIN",
            AggKind::Max => "MAX",
            AggKind::Avg => "AVG",
            AggKind::Variance => "VARIANCE",
            AggKind::StdDev => "STDDEV",
        }
    }

    /// Parse a function name as written in SQL (case-insensitive).
    pub fn parse(name: &str) -> Option<AggKind> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggKind::Count),
            "SUM" => Some(AggKind::Sum),
            "MIN" => Some(AggKind::Min),
            "MAX" => Some(AggKind::Max),
            "AVG" => Some(AggKind::Avg),
            "VARIANCE" | "VAR" | "VAR_SAMP" => Some(AggKind::Variance),
            "STDDEV" | "STDDEV_SAMP" => Some(AggKind::StdDev),
            _ => None,
        }
    }

    /// Whether this aggregate accepts a column of the given type.
    pub fn accepts(self, ty: ValueType) -> bool {
        match self {
            AggKind::CountStar | AggKind::Count | AggKind::CountDistinct => true,
            AggKind::Min | AggKind::Max => true,
            AggKind::Sum | AggKind::Avg | AggKind::Variance | AggKind::StdDev => {
                matches!(ty, ValueType::Int | ValueType::Float)
            }
        }
    }
}

/// Partial state of a [`DynAggregate`].
#[derive(Clone, Debug, PartialEq)]
pub enum DynState {
    Count(u64),
    Distinct(std::collections::BTreeSet<Value>),
    SumInt(Option<i64>),
    SumFloat(Option<f64>),
    Min(Option<Value>),
    Max(Option<Value>),
    AvgInt(AvgState<i128>),
    AvgFloat(AvgState),
    Var(VarianceState),
}

/// A dynamically-configured aggregate over [`Value`] inputs.
///
/// Construct with [`DynAggregate::new`], providing the column type so `SUM`
/// can keep integer sums exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DynAggregate {
    kind: AggKind,
    input: ValueType,
}

impl DynAggregate {
    /// Build a dynamic aggregate, verifying the column type is acceptable.
    pub fn new(kind: AggKind, input: ValueType) -> Result<DynAggregate> {
        if kind.accepts(input) {
            Ok(DynAggregate { kind, input })
        } else {
            Err(TempAggError::TypeError {
                detail: format!("{} cannot aggregate a {} column", kind.name(), input),
            })
        }
    }

    pub fn kind(&self) -> AggKind {
        self.kind
    }

    /// The column type this aggregate was configured for.
    pub fn input_type(&self) -> ValueType {
        self.input
    }

    fn numeric(value: &Value) -> Option<f64> {
        value.as_f64()
    }
}

impl Aggregate for DynAggregate {
    type Input = Value;
    type State = DynState;
    type Output = Value;

    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn empty_state(&self) -> DynState {
        match self.kind {
            AggKind::CountStar | AggKind::Count => DynState::Count(0),
            AggKind::CountDistinct => DynState::Distinct(std::collections::BTreeSet::new()),
            AggKind::Sum => match self.input {
                ValueType::Int => DynState::SumInt(None),
                _ => DynState::SumFloat(None),
            },
            AggKind::Min => DynState::Min(None),
            AggKind::Max => DynState::Max(None),
            AggKind::Avg => match self.input {
                ValueType::Int => DynState::AvgInt(AvgState::default()),
                _ => DynState::AvgFloat(AvgState::default()),
            },
            AggKind::Variance | AggKind::StdDev => DynState::Var(VarianceState {
                count: 0,
                mean: 0.0,
                m2: 0.0,
            }),
        }
    }

    fn insert(&self, state: &mut DynState, value: &Value) {
        if value.is_null() && self.kind != AggKind::CountStar {
            return;
        }
        match state {
            DynState::Count(c) => *c += 1,
            DynState::Distinct(set) => {
                set.insert(value.clone());
            }
            DynState::SumInt(s) => {
                if let Some(v) = value.as_i64() {
                    *s = Some(s.unwrap_or(0).saturating_add(v));
                }
            }
            DynState::SumFloat(s) => {
                if let Some(v) = Self::numeric(value) {
                    *s = Some(s.unwrap_or(0.0) + v);
                }
            }
            DynState::Min(m) => match m {
                Some(cur) if *cur <= *value => {}
                _ => *m = Some(value.clone()),
            },
            DynState::Max(m) => match m {
                Some(cur) if *cur >= *value => {}
                _ => *m = Some(value.clone()),
            },
            DynState::AvgInt(a) => {
                if let Some(v) = value.as_i64() {
                    Avg::<i64>::new().insert(a, &v);
                }
            }
            DynState::AvgFloat(a) => {
                if let Some(v) = Self::numeric(value) {
                    Avg::<f64>::new().insert(a, &v);
                }
            }
            DynState::Var(v) => {
                if let Some(x) = Self::numeric(value) {
                    let var: Variance<f64> = Variance::sample();
                    var.insert(v, &x);
                }
            }
        }
    }

    fn merge(&self, into: &mut DynState, from: &DynState) {
        match (into, from) {
            (DynState::Count(a), DynState::Count(b)) => *a += *b,
            (DynState::Distinct(a), DynState::Distinct(b)) => {
                a.extend(b.iter().cloned());
            }
            (DynState::SumInt(a), DynState::SumInt(b)) => {
                if let Some(bv) = b {
                    *a = Some(a.unwrap_or(0).saturating_add(*bv));
                }
            }
            (DynState::SumFloat(a), DynState::SumFloat(b)) => {
                if let Some(bv) = b {
                    *a = Some(a.unwrap_or(0.0) + bv);
                }
            }
            (DynState::Min(a), DynState::Min(b)) => {
                if let Some(bv) = b {
                    match a {
                        Some(cur) if *cur <= *bv => {}
                        _ => *a = Some(bv.clone()),
                    }
                }
            }
            (DynState::Max(a), DynState::Max(b)) => {
                if let Some(bv) = b {
                    match a {
                        Some(cur) if *cur >= *bv => {}
                        _ => *a = Some(bv.clone()),
                    }
                }
            }
            (DynState::AvgInt(a), DynState::AvgInt(b)) => Avg::<i64>::new().merge(a, b),
            (DynState::AvgFloat(a), DynState::AvgFloat(b)) => Avg::<f64>::new().merge(a, b),
            (DynState::Var(a), DynState::Var(b)) => {
                let var: Variance<f64> = Variance::sample();
                var.merge(a, b);
            }
            // lint: allow(no-unwrap): every state of one DynAggregate is built by that aggregate, so the kinds always match
            (into, from) => unreachable!(
                "mismatched dynamic aggregate states: {into:?} vs {from:?} \
                 (states must come from the same DynAggregate)"
            ),
        }
    }

    fn finish(&self, state: &DynState) -> Value {
        match state {
            // lint: allow(no-as-cast): a count of tuples never approaches i64::MAX
            DynState::Count(c) => Value::Int(*c as i64),
            // lint: allow(no-as-cast): a distinct-set size never approaches i64::MAX
            DynState::Distinct(set) => Value::Int(set.len() as i64),
            DynState::SumInt(s) => s.map_or(Value::Null, Value::Int),
            DynState::SumFloat(s) => s.map_or(Value::Null, Value::Float),
            DynState::Min(m) | DynState::Max(m) => m.clone().unwrap_or(Value::Null),
            DynState::AvgInt(a) => Avg::<i64>::new()
                .finish(a)
                .map_or(Value::Null, Value::Float),
            DynState::AvgFloat(a) => Avg::<f64>::new()
                .finish(a)
                .map_or(Value::Null, Value::Float),
            DynState::Var(v) => {
                let var: Variance<f64> = Variance::sample();
                match var.finish(v) {
                    Some(x) if self.kind == AggKind::StdDev => Value::Float(x.sqrt()),
                    Some(x) => Value::Float(x),
                    None => Value::Null,
                }
            }
        }
    }

    fn is_empty_state(&self, state: &DynState) -> bool {
        match state {
            DynState::Count(c) => *c == 0,
            DynState::Distinct(set) => set.is_empty(),
            DynState::SumInt(s) => s.is_none(),
            DynState::SumFloat(s) => s.is_none(),
            DynState::Min(m) | DynState::Max(m) => m.is_none(),
            DynState::AvgInt(a) => a.count == 0,
            DynState::AvgFloat(a) => a.count == 0,
            DynState::Var(v) => v.count == 0,
        }
    }

    fn state_model_bytes(&self) -> usize {
        match self.kind {
            AggKind::CountStar | AggKind::Count | AggKind::CountDistinct => 4,
            AggKind::Sum | AggKind::Min | AggKind::Max => 4,
            AggKind::Avg => 8,
            AggKind::Variance | AggKind::StdDev => 12,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(kind: AggKind, ty: ValueType, values: &[Value]) -> Value {
        let agg = DynAggregate::new(kind, ty).unwrap();
        let mut s = agg.empty_state();
        for v in values {
            agg.insert(&mut s, v);
        }
        agg.finish(&s)
    }

    #[test]
    fn count_skips_nulls_count_star_does_not() {
        let vals = [Value::Int(1), Value::Null, Value::Int(3)];
        assert_eq!(run(AggKind::Count, ValueType::Int, &vals), Value::Int(2));
        assert_eq!(
            run(AggKind::CountStar, ValueType::Int, &vals),
            Value::Int(3)
        );
    }

    #[test]
    fn sum_int_stays_exact() {
        let vals = [Value::Int(40_000), Value::Int(45_000)];
        assert_eq!(run(AggKind::Sum, ValueType::Int, &vals), Value::Int(85_000));
    }

    #[test]
    fn sum_float() {
        let vals = [Value::Float(1.5), Value::Float(2.5)];
        assert_eq!(
            run(AggKind::Sum, ValueType::Float, &vals),
            Value::Float(4.0)
        );
    }

    #[test]
    fn min_max_on_strings() {
        let vals = [
            Value::from("Richard"),
            Value::from("Karen"),
            Value::from("Nathan"),
        ];
        assert_eq!(
            run(AggKind::Min, ValueType::Str, &vals),
            Value::from("Karen")
        );
        assert_eq!(
            run(AggKind::Max, ValueType::Str, &vals),
            Value::from("Richard")
        );
    }

    #[test]
    fn avg_and_empty_results_are_null() {
        let vals = [Value::Int(2), Value::Int(4)];
        assert_eq!(run(AggKind::Avg, ValueType::Int, &vals), Value::Float(3.0));
        assert_eq!(run(AggKind::Avg, ValueType::Int, &[]), Value::Null);
        assert_eq!(run(AggKind::Sum, ValueType::Int, &[]), Value::Null);
        assert_eq!(run(AggKind::Min, ValueType::Int, &[]), Value::Null);
        assert_eq!(run(AggKind::Count, ValueType::Int, &[]), Value::Int(0));
    }

    #[test]
    fn variance_and_stddev() {
        let vals: Vec<Value> = [3.0, 5.0].iter().map(|&x| Value::Float(x)).collect();
        assert_eq!(
            run(AggKind::Variance, ValueType::Float, &vals),
            Value::Float(2.0)
        );
        let sd = run(AggKind::StdDev, ValueType::Float, &vals);
        match sd {
            Value::Float(x) => assert!((x - 2.0f64.sqrt()).abs() < 1e-12),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn merge_matches_sequential() {
        let agg = DynAggregate::new(AggKind::Avg, ValueType::Int).unwrap();
        let vals: Vec<Value> = (1..=10).map(Value::Int).collect();
        let mut whole = agg.empty_state();
        for v in &vals {
            agg.insert(&mut whole, v);
        }
        let mut left = agg.empty_state();
        let mut right = agg.empty_state();
        for v in &vals[..4] {
            agg.insert(&mut left, v);
        }
        for v in &vals[4..] {
            agg.insert(&mut right, v);
        }
        agg.merge(&mut left, &right);
        assert_eq!(agg.finish(&left), agg.finish(&whole));
    }

    #[test]
    fn type_checking_at_construction() {
        assert!(DynAggregate::new(AggKind::Sum, ValueType::Str).is_err());
        assert!(DynAggregate::new(AggKind::Min, ValueType::Str).is_ok());
        assert!(DynAggregate::new(AggKind::Avg, ValueType::Bool).is_err());
    }

    #[test]
    fn parse_names() {
        assert_eq!(AggKind::parse("count"), Some(AggKind::Count));
        assert_eq!(AggKind::parse("AVG"), Some(AggKind::Avg));
        assert_eq!(AggKind::parse("var_samp"), Some(AggKind::Variance));
        assert_eq!(AggKind::parse("median"), None);
    }
}
