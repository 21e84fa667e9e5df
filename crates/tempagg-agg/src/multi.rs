//! Computing several aggregates in one pass.
//!
//! Section 3 computes each scalar aggregate separately ("compute each of
//! them separately and store each result in a singleton relation"); since
//! aggregates over the same tuples induce the same constant intervals, a
//! *product* aggregate computes them all in a single tree construction —
//! the product of monoids is a monoid. Static products are the tuple
//! implementations below; [`MultiDyn`] is the runtime-width variant the
//! SQL layer uses.

use crate::aggregate::Aggregate;
use crate::dynamic::{DynAggregate, DynState};
use tempagg_core::Value;

impl<A: Aggregate, B: Aggregate> Aggregate for (A, B) {
    type Input = (A::Input, B::Input);
    type State = (A::State, B::State);
    type Output = (A::Output, B::Output);

    fn name(&self) -> &'static str {
        "PRODUCT"
    }

    fn empty_state(&self) -> Self::State {
        (self.0.empty_state(), self.1.empty_state())
    }

    #[inline]
    fn insert(&self, state: &mut Self::State, value: &Self::Input) {
        self.0.insert(&mut state.0, &value.0);
        self.1.insert(&mut state.1, &value.1);
    }

    #[inline]
    fn merge(&self, into: &mut Self::State, from: &Self::State) {
        self.0.merge(&mut into.0, &from.0);
        self.1.merge(&mut into.1, &from.1);
    }

    fn finish(&self, state: &Self::State) -> Self::Output {
        (self.0.finish(&state.0), self.1.finish(&state.1))
    }

    fn is_empty_state(&self, state: &Self::State) -> bool {
        self.0.is_empty_state(&state.0) && self.1.is_empty_state(&state.1)
    }

    fn state_model_bytes(&self) -> usize {
        self.0.state_model_bytes() + self.1.state_model_bytes()
    }
}

impl<A: Aggregate, B: Aggregate, C: Aggregate> Aggregate for (A, B, C) {
    type Input = (A::Input, B::Input, C::Input);
    type State = (A::State, B::State, C::State);
    type Output = (A::Output, B::Output, C::Output);

    fn name(&self) -> &'static str {
        "PRODUCT"
    }

    fn empty_state(&self) -> Self::State {
        (
            self.0.empty_state(),
            self.1.empty_state(),
            self.2.empty_state(),
        )
    }

    #[inline]
    fn insert(&self, state: &mut Self::State, value: &Self::Input) {
        self.0.insert(&mut state.0, &value.0);
        self.1.insert(&mut state.1, &value.1);
        self.2.insert(&mut state.2, &value.2);
    }

    #[inline]
    fn merge(&self, into: &mut Self::State, from: &Self::State) {
        self.0.merge(&mut into.0, &from.0);
        self.1.merge(&mut into.1, &from.1);
        self.2.merge(&mut into.2, &from.2);
    }

    fn finish(&self, state: &Self::State) -> Self::Output {
        (
            self.0.finish(&state.0),
            self.1.finish(&state.1),
            self.2.finish(&state.2),
        )
    }

    fn is_empty_state(&self, state: &Self::State) -> bool {
        self.0.is_empty_state(&state.0)
            && self.1.is_empty_state(&state.1)
            && self.2.is_empty_state(&state.2)
    }

    fn state_model_bytes(&self) -> usize {
        self.0.state_model_bytes() + self.1.state_model_bytes() + self.2.state_model_bytes()
    }
}

/// A runtime-width product of [`DynAggregate`]s: all of a query's
/// aggregates evaluated in one pass over one tree. Input is one
/// pre-extracted [`Value`] per member aggregate. The output is a plain
/// `Vec<Value>` — this is the reference the typed product and the
/// end-to-end benchmark's independent checks are held against, and they
/// name that type; a consumer that wants rows converts
/// (`RowValues: From<Vec<Value>>` keeps a wide row's `Vec` as its spill).
#[derive(Clone, Debug, PartialEq)]
pub struct MultiDyn {
    members: Vec<DynAggregate>,
}

impl MultiDyn {
    pub fn new(members: Vec<DynAggregate>) -> MultiDyn {
        MultiDyn { members }
    }

    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// The member aggregates, in declaration order.
    pub fn members(&self) -> &[DynAggregate] {
        &self.members
    }

    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

impl Aggregate for MultiDyn {
    type Input = Vec<Value>;
    type State = Vec<DynState>;
    type Output = Vec<Value>;

    fn name(&self) -> &'static str {
        "MULTI"
    }

    fn empty_state(&self) -> Vec<DynState> {
        self.members
            .iter()
            .map(super::aggregate::Aggregate::empty_state)
            .collect()
    }

    #[inline]
    fn insert(&self, state: &mut Vec<DynState>, value: &Vec<Value>) {
        debug_assert_eq!(state.len(), value.len());
        for ((member, s), v) in self.members.iter().zip(state).zip(value) {
            member.insert(s, v);
        }
    }

    #[inline]
    fn merge(&self, into: &mut Vec<DynState>, from: &Vec<DynState>) {
        for ((member, a), b) in self.members.iter().zip(into).zip(from) {
            member.merge(a, b);
        }
    }

    fn finish(&self, state: &Vec<DynState>) -> Vec<Value> {
        self.members
            .iter()
            .zip(state)
            .map(|(m, s)| m.finish(s))
            .collect()
    }

    fn is_empty_state(&self, state: &Vec<DynState>) -> bool {
        self.members
            .iter()
            .zip(state)
            .all(|(m, s)| m.is_empty_state(s))
    }

    fn state_model_bytes(&self) -> usize {
        self.members
            .iter()
            .map(super::aggregate::Aggregate::state_model_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AggKind, Avg, Count, Sum};
    use tempagg_core::ValueType;

    #[test]
    fn pair_aggregates_in_lockstep() {
        let agg = (Count, Sum::<i64>::new());
        let mut s = agg.empty_state();
        agg.insert(&mut s, &((), 40_000));
        agg.insert(&mut s, &((), 45_000));
        assert_eq!(agg.finish(&s), (2, Some(85_000)));
        assert_eq!(agg.state_model_bytes(), 4 + 4);
        assert!(!agg.is_empty_state(&s));
        assert!(agg.is_empty_state(&agg.empty_state()));
    }

    #[test]
    fn triple_merge_matches_members() {
        let agg = (Count, Sum::<i64>::new(), Avg::<i64>::new());
        let mut a = agg.empty_state();
        agg.insert(&mut a, &((), 10, 10));
        let mut b = agg.empty_state();
        agg.insert(&mut b, &((), 20, 20));
        agg.merge(&mut a, &b);
        let (count, sum, avg) = agg.finish(&a);
        assert_eq!(count, 2);
        assert_eq!(sum, Some(30));
        assert_eq!(avg, Some(15.0));
    }

    #[test]
    fn multidyn_matches_separate_runs() {
        let members = vec![
            DynAggregate::new(AggKind::Count, ValueType::Int).unwrap(),
            DynAggregate::new(AggKind::Sum, ValueType::Int).unwrap(),
            DynAggregate::new(AggKind::Max, ValueType::Int).unwrap(),
        ];
        let multi = MultiDyn::new(members.clone());
        assert_eq!(multi.len(), 3);
        let inputs: Vec<Vec<Value>> = (1..=5)
            .map(|v| vec![Value::Int(v), Value::Int(v), Value::Int(v)])
            .collect();

        let mut state = multi.empty_state();
        for input in &inputs {
            multi.insert(&mut state, input);
        }
        let combined = multi.finish(&state);

        for (i, member) in members.iter().enumerate() {
            let mut s = member.empty_state();
            for input in &inputs {
                member.insert(&mut s, &input[i]);
            }
            assert_eq!(member.finish(&s), combined[i], "member {i}");
        }
    }

    #[test]
    fn multidyn_merge_is_member_wise() {
        let multi = MultiDyn::new(vec![
            DynAggregate::new(AggKind::Count, ValueType::Int).unwrap(),
            DynAggregate::new(AggKind::Min, ValueType::Int).unwrap(),
        ]);
        let mut a = multi.empty_state();
        multi.insert(&mut a, &vec![Value::Int(1), Value::Int(5)]);
        let mut b = multi.empty_state();
        multi.insert(&mut b, &vec![Value::Int(1), Value::Int(3)]);
        multi.merge(&mut a, &b);
        assert_eq!(multi.finish(&a), vec![Value::Int(2), Value::Int(3)]);
    }
}
