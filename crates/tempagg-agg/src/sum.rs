//! `SUM` over a numeric attribute.

use crate::aggregate::{Aggregate, Numeric};
use std::marker::PhantomData;

/// Sums a numeric attribute over the tuples overlapping each constant
/// interval. An empty interval reports `None` (SQL `NULL`), matching the
/// paper's "4 bytes, plus an additional bit to mark an empty value". The
/// state and the output are the input's [`Numeric::Total`] — the total
/// [`Avg`](crate::Avg) divides — so an integer sum is exact and never
/// fails: `i128` holds every sum of `i64`s.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sum<T>(PhantomData<T>);

impl<T> Sum<T> {
    pub const fn new() -> Self {
        Sum(PhantomData)
    }
}

impl<T: Numeric> Aggregate for Sum<T> {
    type Input = T;
    type State = Option<T::Total>;
    type Output = Option<T::Total>;

    fn name(&self) -> &'static str {
        "SUM"
    }

    #[inline]
    fn empty_state(&self) -> Option<T::Total> {
        None
    }

    #[inline]
    fn insert(&self, state: &mut Option<T::Total>, value: &T) {
        *state.get_or_insert_with(T::Total::default) += value.widen();
    }

    #[inline]
    fn merge(&self, into: &mut Option<T::Total>, from: &Option<T::Total>) {
        if let Some(f) = from {
            *into.get_or_insert_with(T::Total::default) += *f;
        }
    }

    #[inline]
    fn finish(&self, state: &Option<T::Total>) -> Option<T::Total> {
        *state
    }

    #[inline]
    fn is_empty_state(&self, state: &Option<T::Total>) -> bool {
        state.is_none()
    }

    fn state_model_bytes(&self) -> usize {
        // "Sum, maximum, and minimum all use 4 bytes, plus an additional
        // bit to mark an empty value." We model the bit as part of the word.
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_values() {
        let agg: Sum<i64> = Sum::new();
        let mut s = agg.empty_state();
        assert!(agg.is_empty_state(&s));
        agg.insert(&mut s, &40_000);
        agg.insert(&mut s, &45_000);
        assert_eq!(agg.finish(&s), Some(85_000));
    }

    #[test]
    fn empty_sum_is_null() {
        let agg: Sum<i64> = Sum::new();
        assert_eq!(agg.finish(&agg.empty_state()), None);
    }

    #[test]
    fn merge_handles_empty_sides() {
        let agg: Sum<i64> = Sum::new();
        let mut a = Some(10);
        agg.merge(&mut a, &None);
        assert_eq!(a, Some(10));
        let mut b = None;
        agg.merge(&mut b, &Some(7));
        assert_eq!(b, Some(7));
        let mut c = Some(1);
        agg.merge(&mut c, &Some(2));
        assert_eq!(c, Some(3));
    }

    #[test]
    fn float_sums() {
        let agg: Sum<f64> = Sum::new();
        let mut s = agg.empty_state();
        agg.insert(&mut s, &1.5);
        agg.insert(&mut s, &2.25);
        assert_eq!(agg.finish(&s), Some(3.75));
    }

    /// A sum that leaves the `i64` range on the way keeps counting, so the
    /// value that brings it back reports the exact total.
    #[test]
    fn integer_sums_are_exact_past_the_i64_range() {
        let agg: Sum<i64> = Sum::new();
        let mut s = agg.empty_state();
        for v in [i64::MAX, 1, i64::MIN] {
            agg.insert(&mut s, &v);
        }
        assert_eq!(agg.finish(&s), Some(0));
        agg.insert(&mut s, &i64::MAX);
        agg.insert(&mut s, &i64::MAX);
        assert_eq!(agg.finish(&s), Some(2 * i128::from(i64::MAX)));
    }
}
