//! The one way an integer `SUM` fails: its exact total over a constant
//! interval lies outside the `INT` range it reports in.
//!
//! The kernels stay infallible — a sink takes values, not results — so a
//! value-erased product ([`DynAggregate`](crate::DynAggregate),
//! [`MultiDyn`](crate::MultiDyn), [`TypedMulti`](crate::TypedMulti))
//! reports such an interval as `NULL` and raises a flag on the thread that
//! turned the total into a value. [`checked`] runs a computation and turns
//! that flag into [`TempAggError::Overflow`]: the plan executor, the SQL
//! router and the store's cache builds and patches each run under it, and
//! so does every partition worker of the parallel pipeline, since the
//! k-ordered tree turns totals into values as it collects garbage.

use std::cell::Cell;
use tempagg_core::{Result, TempAggError, Value};

thread_local! {
    /// The aggregate whose total left the `INT` range on this thread since
    /// the innermost [`checked`] began.
    static OVERFLOWED: Cell<Option<&'static str>> = const { Cell::new(None) };
}

/// `SUM`'s exact integer total as the `INT` it reports: the one place a
/// total becomes a value. Out of range it is `NULL`, and the flag is up.
pub(crate) fn int_sum(total: i128) -> Value {
    match i64::try_from(total) {
        Ok(sum) => Value::Int(sum),
        Err(_) => {
            OVERFLOWED.set(Some("SUM"));
            Value::Null
        }
    }
}

/// Run `f`, failing with [`TempAggError::Overflow`] if a total it turned
/// into a value on this thread was out of range. Checks nest: a flag raised
/// before `f` began is left for the enclosing check.
pub fn checked<T>(f: impl FnOnce() -> T) -> Result<T> {
    let outer = OVERFLOWED.take();
    let out = f();
    match OVERFLOWED.replace(outer) {
        Some(aggregate) => Err(TempAggError::Overflow { aggregate }),
        None => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_check_fails_on_its_own_overflow_only() {
        assert_eq!(checked(|| int_sum(-7)), Ok(Value::Int(-7)));
        let overflow = Err(TempAggError::Overflow { aggregate: "SUM" });
        assert_eq!(checked(|| int_sum(i128::from(i64::MAX) + 1)), overflow);
        // Raised before a nested check began: the nested one passes, the
        // enclosing one fails.
        let outer = checked(|| {
            int_sum(i128::from(i64::MIN) - 1);
            checked(|| int_sum(1))
        });
        assert_eq!(outer, Err(TempAggError::Overflow { aggregate: "SUM" }));
        assert_eq!(checked(|| ()), Ok(()));
    }
}
