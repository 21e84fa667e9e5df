//! `AVG` over a numeric attribute.

use crate::aggregate::{Aggregate, Numeric};
use std::marker::PhantomData;

/// Partial state of an average: running sum and tuple count
/// ("Average uses 8 bytes, 4 for the sum and 4 for the count", Section 6).
/// The sum is an input's [`Numeric::Total`]: `i128` over integers, so that
/// it is exact and retracts exactly, and `f64` over floats. `SUM`'s running
/// state under the sweep is the same pair, reporting the sum undivided.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AvgState<S = f64> {
    pub sum: S,
    pub count: u64,
}

/// Averages a numeric attribute over the tuples overlapping each constant
/// interval; `None` where no tuple overlaps.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Avg<T>(PhantomData<T>);

impl<T> Avg<T> {
    pub const fn new() -> Self {
        Avg(PhantomData)
    }
}

impl<T: Numeric> Aggregate for Avg<T> {
    type Input = T;
    type State = AvgState<T::Total>;
    type Output = Option<f64>;

    fn name(&self) -> &'static str {
        "AVG"
    }

    fn empty_state(&self) -> AvgState<T::Total> {
        AvgState::default()
    }

    #[inline]
    fn insert(&self, state: &mut AvgState<T::Total>, value: &T) {
        state.sum += value.widen();
        state.count += 1;
    }

    #[inline]
    fn merge(&self, into: &mut AvgState<T::Total>, from: &AvgState<T::Total>) {
        into.sum += from.sum;
        into.count += from.count;
    }

    /// The one division every `AVG` path shares, so they round alike.
    fn finish(&self, state: &AvgState<T::Total>) -> Option<f64> {
        // lint: allow(no-as-cast): tuple counts are far below 2^53, so the u64 → f64 divisor is exact
        (state.count > 0).then(|| T::total_to_f64(state.sum) / state.count as f64)
    }

    fn is_empty_state(&self, state: &AvgState<T::Total>) -> bool {
        state.count == 0
    }

    fn state_model_bytes(&self) -> usize {
        8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_values() {
        let agg: Avg<i64> = Avg::new();
        let mut s = agg.empty_state();
        agg.insert(&mut s, &40_000);
        agg.insert(&mut s, &45_000);
        agg.insert(&mut s, &35_000);
        assert_eq!(agg.finish(&s), Some(40_000.0));
    }

    #[test]
    fn empty_average_is_none() {
        let agg: Avg<i64> = Avg::new();
        assert_eq!(agg.finish(&agg.empty_state()), None);
        assert!(agg.is_empty_state(&agg.empty_state()));
    }

    #[test]
    fn merge_combines_sums_and_counts() {
        let agg: Avg<f64> = Avg::new();
        let mut a = AvgState {
            sum: 10.0,
            count: 2,
        };
        let b = AvgState { sum: 5.0, count: 1 };
        agg.merge(&mut a, &b);
        assert_eq!(
            a,
            AvgState {
                sum: 15.0,
                count: 3
            }
        );
        assert_eq!(agg.finish(&a), Some(5.0));
    }

    #[test]
    fn merge_identity() {
        let agg: Avg<i64> = Avg::new();
        let mut a = AvgState { sum: 9, count: 3 };
        agg.merge(&mut a, &agg.empty_state());
        assert_eq!(a, AvgState { sum: 9, count: 3 });
    }

    /// An integer sum past 2^53 is kept exactly: `f64` would absorb the 1
    /// into 2^53 and report the mean of the rest wrongly.
    #[test]
    fn integer_sums_stay_exact_past_two_to_the_fifty_third() {
        let agg: Avg<i64> = Avg::new();
        let mut s = agg.empty_state();
        for v in [9_007_199_254_740_993, 1, 2] {
            agg.insert(&mut s, &v);
        }
        assert_eq!(s.sum, 9_007_199_254_740_996);
        let mut rest = agg.empty_state();
        for v in [1, 2] {
            agg.insert(&mut rest, &v);
        }
        assert_eq!(agg.finish(&rest), Some(1.5));
    }

    #[test]
    fn paper_memory_model() {
        let agg: Avg<i64> = Avg::new();
        assert_eq!(agg.state_model_bytes(), 8);
    }
}
