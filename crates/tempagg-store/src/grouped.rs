//! The per-group cached series behind one `TOP k BY agg(col) OVER w ...
//! GROUP BY g` shape, kept live under writes.
//!
//! Each distinct grouping value owns a [`CachedSeries`] over its members:
//! the store's whole-relation entry is the one-group case of it. A write
//! patches the one or two groups its tuple belongs to — the entry
//! refreshes its own index — instead of throwing every group away for the
//! next ranking to re-sort and re-sweep the relation.

use crate::cache::{CachedSeries, Edit, Members, Written};
use std::collections::BTreeMap;
use tempagg_agg::DynAggregate;
use tempagg_algo::{GroupProbe, IndexMode, WindowAggregate};
use tempagg_core::{Interval, Result, TemporalRelation, Tuple, Value};

/// One grouping value's cached series, and how many tuples it aggregates.
#[derive(Clone, Debug)]
struct Group {
    series: CachedSeries,
    members: usize,
}

impl Group {
    fn over(agg: DynAggregate, column: Option<usize>, members: &[&Tuple]) -> Group {
        Group {
            series: CachedSeries::build(agg, column, members),
            members: members.len(),
        }
    }
}

/// One ranking shape's groups, ordered by grouping value.
#[derive(Clone, Debug)]
pub(crate) struct GroupedIndexes {
    agg: DynAggregate,
    column: Option<usize>,
    group_column: usize,
    groups: BTreeMap<Value, Group>,
}

impl GroupedIndexes {
    /// Partition `relation` by `group_column` and build one cached series
    /// per distinct grouping value; the first ranking cuts their indexes.
    /// `agg` must be indexable (see [`crate::index_mode_for`]), hence
    /// exactly maintainable: a write patches a group's series from the
    /// written tuples, and re-derives an Ordered-class run from the
    /// group's members that overlap them.
    pub(crate) fn build(
        agg: DynAggregate,
        column: Option<usize>,
        group_column: usize,
        relation: &TemporalRelation,
    ) -> GroupedIndexes {
        let mut members: BTreeMap<&Value, Vec<&Tuple>> = BTreeMap::new();
        for tuple in relation {
            members
                .entry(tuple.value(group_column))
                .or_default()
                .push(tuple);
        }
        let groups = members
            .into_iter()
            .map(|(value, tuples)| (value.clone(), Group::over(agg, column, &tuples)))
            .collect();
        GroupedIndexes {
            agg,
            column,
            group_column,
            groups,
        }
    }

    /// Apply one statement's edits: each group its tuples join, leave or
    /// change in gets its share of them — a new grouping value is a take
    /// from one group and an add to another, a new aggregated value an
    /// in-place rewrite — over the statement's rows narrowed to the group.
    /// A group is founded by the tuples that join it and dropped when its
    /// last member leaves.
    pub(crate) fn apply<'e>(&mut self, edits: &[Edit<'e>], written: &Written<'_>) -> Result<()> {
        let g = self.group_column;
        let mut by_group: BTreeMap<&Value, Vec<Edit<'e>>> = BTreeMap::new();
        let mut push = |tuple: &'e Tuple, edit: Edit<'e>| {
            by_group.entry(tuple.value(g)).or_default().push(edit);
        };
        for edit in edits {
            match *edit {
                Edit::Add(tuple) | Edit::Take(tuple) => push(tuple, *edit),
                Edit::Rewrite(old, new) if old.value(g) != new.value(g) => {
                    push(old, Edit::Take(old));
                    push(new, Edit::Add(new));
                }
                Edit::Rewrite(old, new) => {
                    if self.column.is_some_and(|c| old.value(c) != new.value(c)) {
                        push(new, *edit);
                    }
                }
            }
        }
        for (value, edits) in by_group {
            let added = edits.iter().filter(|e| matches!(e, Edit::Add(_))).count();
            let taken = edits.iter().filter(|e| matches!(e, Edit::Take(_))).count();
            let Some(group) = self.groups.get_mut(value) else {
                let members: Vec<&Tuple> = edits.iter().filter_map(Edit::given).collect();
                if !members.is_empty() {
                    let group = Group::over(self.agg, self.column, &members);
                    self.groups.insert(value.clone(), group);
                }
                continue;
            };
            group.members = (group.members + added).saturating_sub(taken);
            if group.members == 0 {
                self.groups.remove(value);
                continue;
            }
            let members = Members::of_group(written, g, value);
            group.series.apply(&edits, members)?;
        }
        Ok(())
    }

    /// The `k` best groups over `window` with their exact window
    /// aggregates, best first, and the number of groups probed (the rest
    /// were pruned by their root bound); `mode` cuts a group's first index.
    pub(crate) fn top_k(
        &mut self,
        mode: IndexMode,
        window: Interval,
        k: usize,
    ) -> (Vec<(Value, WindowAggregate)>, u64) {
        let (values, probes): (Vec<&Value>, Vec<GroupProbe<'_>>) = self
            .groups
            .iter_mut()
            .map(|(value, group)| (value, group.series.indexed(mode)))
            .unzip();
        let outcome = tempagg_algo::top_k(&probes, window, k);
        let ranked = outcome
            .ranked
            .into_iter()
            .filter_map(|(group, aggregate)| {
                values.get(group).map(|value| ((*value).clone(), aggregate))
            })
            .collect();
        (ranked, outcome.probes)
    }

    /// `--features validate`: every group a statement's tuples belong to
    /// holds exactly the series a sweep of its members gives (its entry has
    /// checked its own structure and index on the way); a group without
    /// members is gone.
    #[cfg(feature = "validate")]
    pub(crate) fn validate<'a>(
        &self,
        relation: &TemporalRelation,
        touched: impl Iterator<Item = &'a Tuple>,
    ) {
        let counted: usize = self.groups.values().map(|group| group.members).sum();
        assert_eq!(counted, relation.len(), "group members out of step");
        for tuple in touched {
            let value = tuple.value(self.group_column);
            let members: Vec<&Tuple> = relation
                .iter()
                .filter(|t| t.value(self.group_column) == value)
                .collect();
            let Some(group) = self.groups.get(value) else {
                assert!(members.is_empty(), "group {value:?} lost its index");
                continue;
            };
            assert_eq!(group.members, members.len(), "group {value:?} member count");
            let fresh = crate::sweep_values(&self.agg, self.column, &members);
            assert_eq!(
                group.series.entries().as_deref(),
                Ok(fresh.entries()),
                "group {value:?} series"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_agg::AggKind;
    use tempagg_core::{Schema, ValueType};

    /// A group is founded by its first member, counts the ones that follow,
    /// ranks like a scan of its own series after every write, and leaves
    /// with its last member.
    #[test]
    fn a_group_lives_as_long_as_it_has_members() {
        let schema = Schema::of(&[("g", ValueType::Int), ("v", ValueType::Int)]);
        let mut relation = TemporalRelation::new(schema);
        let sum = DynAggregate::new(AggKind::Sum, ValueType::Int).unwrap();
        let mut grouped = GroupedIndexes::build(sum, Some(1), 0, &relation);
        assert!(grouped.groups.is_empty());
        for i in 0..200i64 {
            let tuple = Tuple::new(
                vec![Value::Int(7), Value::Int(i)],
                Interval::at(13 * i % 500 + 1, 13 * i % 500 + 40),
            );
            relation.push_tuple(tuple.clone()).unwrap();
            let edits = [Edit::Add(&tuple)];
            let written = Written::new(relation.tuples(), &edits);
            grouped.apply(&edits, &written).unwrap();
            assert_eq!(
                grouped.groups[&Value::Int(7)].members,
                usize::try_from(i).unwrap() + 1
            );
            let members: Vec<&Tuple> = relation.iter().collect();
            let fresh = crate::sweep_values(&sum, Some(1), &members);
            for window in [Interval::TIMELINE, Interval::at(20, 300), tuple.valid()] {
                let (ranked, _) = grouped.top_k(IndexMode::Integral, window, 1);
                let want = tempagg_algo::scan_window(&fresh, window);
                assert_eq!(ranked, [(Value::Int(7), want)]);
            }
        }
        for tuple in &relation.clone() {
            relation.remove_flagged(&[true]);
            let edits = [Edit::Take(tuple)];
            grouped
                .apply(&edits, &Written::new(relation.tuples(), &edits))
                .unwrap();
        }
        assert!(grouped.groups.is_empty());
    }
}
