//! In-memory temporal relations.

use crate::error::{Result, TempAggError};
use crate::interval::Interval;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// An in-memory temporal relation: a schema plus interval-timestamped
/// tuples in *storage order*.
///
/// Storage order matters: the paper's algorithms are sensitive to whether
/// the relation is randomly ordered, totally ordered by time, or k-ordered,
/// so the relation preserves insertion order and exposes reordering
/// operations explicitly.
#[derive(Clone, Debug, PartialEq)]
pub struct TemporalRelation {
    schema: Arc<Schema>,
    tuples: Vec<Tuple>,
}

impl TemporalRelation {
    pub fn new(schema: Arc<Schema>) -> TemporalRelation {
        TemporalRelation {
            schema,
            tuples: Vec::new(),
        }
    }

    pub fn with_capacity(schema: Arc<Schema>, capacity: usize) -> TemporalRelation {
        TemporalRelation {
            schema,
            tuples: Vec::with_capacity(capacity),
        }
    }

    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Append a tuple after checking it against the schema.
    pub fn push(&mut self, values: Vec<Value>, valid: Interval) -> Result<()> {
        self.schema.check(&values)?;
        self.tuples.push(Tuple::new(values, valid));
        Ok(())
    }

    /// Append an already-built tuple after checking it against the schema.
    pub fn push_tuple(&mut self, tuple: Tuple) -> Result<()> {
        self.schema.check(tuple.values())?;
        self.tuples.push(tuple);
        Ok(())
    }

    /// Replace the tuple at `index` in place after checking the new tuple
    /// against the schema, returning the old tuple. O(1); used by the
    /// mutable store's UPDATE path so a single-tuple update never rebuilds
    /// the relation.
    pub fn replace(&mut self, index: usize, tuple: Tuple) -> Result<Tuple> {
        self.schema.check(tuple.values())?;
        let slot = self
            .tuples
            .get_mut(index)
            .ok_or_else(|| TempAggError::internal(format!("tuple index {index} out of bounds")))?;
        Ok(std::mem::replace(slot, tuple))
    }

    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.tuples.iter()
    }

    /// The valid-time intervals in storage order. The sortedness metrics and
    /// all aggregation algorithms operate on this projection.
    pub fn intervals(&self) -> impl Iterator<Item = Interval> + '_ {
        self.tuples.iter().map(super::tuple::Tuple::valid)
    }

    /// Smallest interval covering every tuple's valid time, or `None` when
    /// the relation is empty (the paper calls this the relation's
    /// *lifespan*).
    pub fn lifespan(&self) -> Option<Interval> {
        self.tuples
            .iter()
            .map(super::tuple::Tuple::valid)
            .reduce(|a, b| a.hull(&b))
    }

    /// Sort tuples *totally by time*: by start time, ties broken by end
    /// time — the paper's definition of a totally ordered relation
    /// (Section 5.2). The sort is stable so equal intervals preserve
    /// storage order.
    pub fn sort_by_time(&mut self) {
        self.tuples
            // lint: allow(no-stable-sort): documented API contract — equal intervals preserve storage order
            .sort_by_key(|t| (t.valid().start(), t.valid().end()));
    }

    /// A sorted copy, leaving `self` untouched.
    pub fn sorted_by_time(&self) -> TemporalRelation {
        let mut r = self.clone();
        r.sort_by_time();
        r
    }

    /// Keep only tuples satisfying the predicate (used by the SQL WHERE
    /// clause and by duplicate elimination).
    pub fn retain(&mut self, mut pred: impl FnMut(&Tuple) -> bool) {
        self.tuples.retain(|t| pred(t));
    }

    /// Remove the tuples whose position is flagged, compacting the rest in
    /// place (storage order kept), and return the removed ones in storage
    /// order. Positions past the end of `flags` are kept. The single pass a
    /// `DELETE` needs once its predicate has been evaluated.
    pub fn remove_flagged(&mut self, flags: &[bool]) -> Vec<Tuple> {
        let mut removed = Vec::new();
        let mut flags = flags.iter();
        self.tuples.retain_mut(|tuple| {
            let flagged = flags.next().copied().unwrap_or(false);
            if flagged {
                let hole = Tuple::new(Vec::new(), tuple.valid());
                removed.push(std::mem::replace(tuple, hole));
            }
            !flagged
        });
        removed
    }

    /// Reorder tuples by the given permutation: the tuple currently at
    /// position `perm[i]` moves to position `i`. Used by workload
    /// generators to realise k-ordered layouts.
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..len`.
    pub fn permute(&mut self, perm: &[usize]) {
        assert_eq!(perm.len(), self.tuples.len(), "permutation length mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            // lint: allow(indexing): short-circuit — seen[p] is only read after p < perm.len() holds
            assert!(p < perm.len() && !seen[p], "not a permutation");
            // lint: allow(indexing): p < perm.len() was asserted on the line above
            seen[p] = true;
        }
        let old = std::mem::take(&mut self.tuples);
        // Move without cloning: place each tuple at its destination.
        let mut slots: Vec<Option<Tuple>> = old.into_iter().map(Some).collect();
        self.tuples = perm
            .iter()
            // lint: allow(no-unwrap): `perm` is a sort permutation of 0..len, so every slot is taken exactly once
            .map(|&p| slots[p].take().expect("permutation is injective"))
            .collect();
    }
}

impl fmt::Display for TemporalRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a TemporalRelation {
    type Item = &'a Tuple;
    type IntoIter = std::slice::Iter<'a, Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ValueType;

    fn sample() -> TemporalRelation {
        let schema = Schema::of(&[("name", ValueType::Str), ("salary", ValueType::Int)]);
        let mut r = TemporalRelation::new(schema);
        r.push(
            vec![Value::from("Richard"), Value::from(40_000)],
            Interval::from_start(18),
        )
        .unwrap();
        r.push(
            vec![Value::from("Karen"), Value::from(45_000)],
            Interval::at(8, 20),
        )
        .unwrap();
        r.push(
            vec![Value::from("Nathan"), Value::from(35_000)],
            Interval::at(7, 12),
        )
        .unwrap();
        r
    }

    #[test]
    fn push_validates_schema() {
        let mut r = sample();
        assert!(r
            .push(vec![Value::from(1), Value::from(2)], Interval::at(0, 1))
            .is_err());
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }

    #[test]
    fn lifespan_is_hull() {
        let r = sample();
        assert_eq!(r.lifespan(), Some(Interval::from_start(7)));
        let empty = TemporalRelation::new(r.schema().clone());
        assert_eq!(empty.lifespan(), None);
    }

    #[test]
    fn sort_by_time_orders_start_then_end() {
        let mut r = sample();
        r.sort_by_time();
        let starts: Vec<i64> = r.intervals().map(|iv| iv.start().get()).collect();
        assert_eq!(starts, vec![7, 8, 18]);
    }

    #[test]
    fn sort_ties_break_by_end_time() {
        let schema = Schema::of(&[("x", ValueType::Int)]);
        let mut r = TemporalRelation::new(schema);
        r.push(vec![Value::from(1)], Interval::at(5, 30)).unwrap();
        r.push(vec![Value::from(2)], Interval::at(5, 10)).unwrap();
        r.sort_by_time();
        let ends: Vec<i64> = r.intervals().map(|iv| iv.end().get()).collect();
        assert_eq!(ends, vec![10, 30]);
    }

    #[test]
    fn permute_reorders() {
        let mut r = sample();
        r.permute(&[2, 0, 1]);
        assert_eq!(r.tuples()[0].value(0), &Value::from("Nathan"));
        assert_eq!(r.tuples()[1].value(0), &Value::from("Richard"));
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_non_permutation() {
        let mut r = sample();
        r.permute(&[0, 0, 1]);
    }

    #[test]
    fn retain_filters() {
        let mut r = sample();
        r.retain(|t| t.value(1).as_i64().unwrap() >= 40_000);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn iteration() {
        let r = sample();
        assert_eq!(r.iter().count(), 3);
        assert_eq!((&r).into_iter().count(), 3);
        assert_eq!(r.intervals().count(), 3);
    }
}
