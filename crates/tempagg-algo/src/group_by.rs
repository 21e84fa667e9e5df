//! Value grouping composed with temporal grouping.
//!
//! `SELECT Dept, AVG(Salary) … GROUP BY Dept` over a temporal relation
//! returns a *time-varying* average per department (Section 2). This
//! adapter partitions tuples by a grouping key and runs one inner temporal
//! aggregator per partition — the temporal analogue of Epstein's
//! temporary-relation technique for GROUP BY (Section 3), which Section 4.2
//! extends with interval values.

use crate::memory::MemoryStats;
use crate::traits::TemporalAggregator;
use std::collections::BTreeMap;
use tempagg_agg::Aggregate;
use tempagg_core::{Interval, Result, Series};

/// Temporal aggregation partitioned by a grouping key.
///
/// Generic over the inner algorithm: any [`TemporalAggregator`] works, so a
/// grouped query can still choose between the linked list, the aggregation
/// tree, and the k-ordered tree per the optimizer rules.
pub struct GroupedAggregate<K, A, G, F>
where
    K: Ord,
    A: Aggregate,
    G: TemporalAggregator<A>,
    F: FnMut() -> G,
{
    factory: F,
    groups: BTreeMap<K, G>,
    _marker: std::marker::PhantomData<A>,
}

impl<K, A, G, F> std::fmt::Debug for GroupedAggregate<K, A, G, F>
where
    K: Ord + std::fmt::Debug,
    A: Aggregate,
    G: TemporalAggregator<A>,
    F: FnMut() -> G,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupedAggregate")
            .field("groups", &self.groups.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl<K, A, G, F> GroupedAggregate<K, A, G, F>
where
    K: Ord,
    A: Aggregate,
    G: TemporalAggregator<A>,
    F: FnMut() -> G,
{
    /// `factory` builds the inner aggregator for each new group
    /// (the paper's "aggregation set").
    pub fn new(factory: F) -> Self {
        GroupedAggregate {
            factory,
            groups: BTreeMap::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Route one tuple to its group.
    pub fn push(&mut self, key: K, interval: Interval, value: A::Input) -> Result<()> {
        self.groups
            .entry(key)
            .or_insert_with(&mut self.factory)
            .push(interval, value)
    }

    /// Number of distinct groups seen.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Finish every group, yielding `(key, series)` in key order.
    pub fn finish(self) -> Vec<(K, Series<A::Output>)> {
        self.groups
            .into_iter()
            .map(|(k, g)| (k, g.finish()))
            .collect()
    }

    /// Combined memory across groups.
    pub fn memory(&self) -> MemoryStats {
        self.groups
            .values()
            .map(super::traits::TemporalAggregator::memory)
            .fold(MemoryStats::default(), |acc, m| acc.combine(&m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg_tree::AggregationTree;
    use crate::linked_list::LinkedListAggregate;
    use tempagg_agg::{Avg, Count};

    #[test]
    fn per_department_counts() {
        let mut g = GroupedAggregate::new(|| AggregationTree::new(Count));
        g.push("Sales", Interval::at(0, 10), ()).unwrap();
        g.push("Sales", Interval::at(5, 20), ()).unwrap();
        g.push("Eng", Interval::at(8, 12), ()).unwrap();
        assert_eq!(g.group_count(), 2);

        let result = g.finish();
        assert_eq!(result.len(), 2);
        // BTreeMap: "Eng" first.
        let (dept, series) = &result[0];
        assert_eq!(*dept, "Eng");
        assert_eq!(series.entries()[1].interval, Interval::at(8, 12));
        assert_eq!(series.entries()[1].value, 1);

        let (dept, series) = &result[1];
        assert_eq!(*dept, "Sales");
        let at = |t: i64| *series.value_at(tempagg_core::Timestamp(t)).unwrap();
        assert_eq!(at(3), 1);
        assert_eq!(at(7), 2);
        assert_eq!(at(15), 1);
        assert_eq!(at(25), 0);
    }

    #[test]
    fn groups_are_independent_time_lines() {
        let mut g = GroupedAggregate::new(|| AggregationTree::new(Count));
        g.push(1, Interval::at(0, 4), ()).unwrap();
        g.push(2, Interval::at(100, 104), ()).unwrap();
        let result = g.finish();
        // Group 1 knows nothing about group 2's boundaries.
        assert_eq!(result[0].1.len(), 2);
        assert_eq!(result[1].1.len(), 3);
    }

    #[test]
    fn works_with_any_inner_algorithm() {
        let mut g = GroupedAggregate::new(|| LinkedListAggregate::new(Avg::<i64>::new()));
        g.push("a", Interval::at(0, 9), 10).unwrap();
        g.push("a", Interval::at(5, 14), 20).unwrap();
        let result = g.finish();
        let series = &result[0].1;
        assert_eq!(
            series.value_at(tempagg_core::Timestamp(7)).unwrap(),
            &Some(15.0)
        );
    }

    #[test]
    fn memory_combines_groups() {
        let mut g = GroupedAggregate::new(|| AggregationTree::new(Count));
        g.push("a", Interval::at(0, 10), ()).unwrap();
        g.push("b", Interval::at(0, 10), ()).unwrap();
        let m = g.memory();
        // Each group: [0, 10] only splits the time-line at 11 → 3 nodes.
        assert_eq!(m.peak_nodes, 2 * 3);
        assert_eq!(m.node_model_bytes, 16);
    }

    #[test]
    fn empty_grouping() {
        let g: GroupedAggregate<&str, Count, _, _> =
            GroupedAggregate::new(|| AggregationTree::new(Count));
        assert_eq!(g.group_count(), 0);
        assert!(g.finish().is_empty());
    }
}
