//! The per-group window indexes behind one `TOP k BY agg(col) OVER w ...
//! GROUP BY g` shape, kept live under writes.
//!
//! Each distinct grouping value owns an [`AggCache`] over its members and
//! the [`WindowIndex`] cut over that cache. A write patches the one or two
//! groups its tuple belongs to — the same `apply_insert` / `apply_delete` /
//! `apply_update` and index refresh the store's own caches get — instead
//! of throwing every group away for the next ranking to re-sort and
//! re-sweep the relation.

use crate::cache::{extract, refresh_index, AggCache};
use std::collections::BTreeMap;
use tempagg_agg::DynAggregate;
use tempagg_algo::{GroupProbe, IndexMode, WindowAggregate, WindowIndex};
use tempagg_core::{Interval, Result, TemporalRelation, Tuple, Value};

/// One grouping value's members, as a live cache and its index.
#[derive(Clone, Debug)]
struct Group {
    cache: AggCache,
    index: WindowIndex,
    members: usize,
}

impl Group {
    fn over(
        agg: DynAggregate,
        column: Option<usize>,
        mode: IndexMode,
        members: &[&Tuple],
    ) -> Group {
        let cache = AggCache::build(agg, column, members);
        Group {
            index: WindowIndex::over(mode, &cache),
            cache,
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
    mode: IndexMode,
    groups: BTreeMap<Value, Group>,
}

impl GroupedIndexes {
    /// Partition `relation` by `group_column` and build one cache plus
    /// window index per distinct grouping value. `agg` must be indexable
    /// (see [`crate::index_mode_for`]), hence retractable: a group's cache
    /// is patched from the written tuple alone and never re-reads a
    /// relation.
    pub(crate) fn build(
        agg: DynAggregate,
        column: Option<usize>,
        group_column: usize,
        mode: IndexMode,
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
            .map(|(value, tuples)| (value.clone(), Group::over(agg, column, mode, &tuples)))
            .collect();
        GroupedIndexes {
            agg,
            column,
            group_column,
            mode,
            groups,
        }
    }

    /// Absorb one inserted tuple: into its group, or as the first member
    /// of a new one.
    pub(crate) fn insert(&mut self, tuple: &Tuple, relation: &TemporalRelation) -> Result<()> {
        let value = tuple.value(self.group_column);
        if let Some(group) = self.groups.get_mut(value) {
            group
                .cache
                .apply_insert(tuple.valid(), &extract(tuple, self.column), relation)?;
            group.members += 1;
            refresh_index(&mut group.index, &group.cache, &[tuple.valid()]);
        } else {
            let group = Group::over(self.agg, self.column, self.mode, &[tuple]);
            self.groups.insert(value.clone(), group);
        }
        Ok(())
    }

    /// Retract one deleted tuple from its group; the last member leaving
    /// drops the group.
    pub(crate) fn remove(&mut self, tuple: &Tuple, relation: &TemporalRelation) -> Result<()> {
        let value = tuple.value(self.group_column);
        let Some(group) = self.groups.get_mut(value) else {
            return Ok(());
        };
        if group.members <= 1 {
            self.groups.remove(value);
            return Ok(());
        }
        group
            .cache
            .apply_delete(tuple.valid(), &extract(tuple, self.column), relation)?;
        group.members -= 1;
        refresh_index(&mut group.index, &group.cache, &[tuple.valid()]);
        Ok(())
    }

    /// Absorb one tuple rewritten in place (valid time unchanged): a new
    /// grouping value is a retract from one group and an insert into
    /// another, a new aggregated value an in-place update of its group.
    pub(crate) fn update(
        &mut self,
        old: &Tuple,
        new: &Tuple,
        relation: &TemporalRelation,
    ) -> Result<()> {
        if old.value(self.group_column) != new.value(self.group_column) {
            self.remove(old, relation)?;
            return self.insert(new, relation);
        }
        let (before, after) = (extract(old, self.column), extract(new, self.column));
        if before == after {
            return Ok(());
        }
        if let Some(group) = self.groups.get_mut(new.value(self.group_column)) {
            group
                .cache
                .apply_update(new.valid(), &before, &after, relation)?;
            refresh_index(&mut group.index, &group.cache, &[new.valid()]);
        }
        Ok(())
    }

    /// The `k` best groups over `window` with their exact window
    /// aggregates, best first, and the number of groups probed (the rest
    /// were pruned by their root bound).
    pub(crate) fn top_k(&self, window: Interval, k: usize) -> (Vec<(Value, WindowAggregate)>, u64) {
        let (values, probes): (Vec<&Value>, Vec<GroupProbe<'_>>) = self
            .groups
            .iter()
            .map(|(value, group)| {
                let probe = GroupProbe {
                    index: &group.index,
                    source: &group.cache,
                };
                (value, probe)
            })
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
    /// holds exactly the series a sweep of its members gives and an index
    /// answering like one built over that series; a group without members
    /// is gone.
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
            group.cache.validate_structure();
            let fresh = crate::sweep_values(&self.agg, self.column, &members);
            assert_eq!(group.cache.series(), fresh, "group {value:?} series");
            crate::cache::validate_index(&group.index, &group.cache, &fresh, &[tuple.valid()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_agg::AggKind;
    use tempagg_algo::scan_window;
    use tempagg_core::{Schema, ValueType};

    /// A group born from one tuple (three runs) does not keep a three-leaf
    /// index for life: whenever its series has doubled, the index is cut
    /// again, and in between it is refreshed in place.
    #[test]
    fn an_index_is_recut_when_its_series_has_doubled() {
        let schema = Schema::of(&[("g", ValueType::Int), ("v", ValueType::Int)]);
        let mut relation = TemporalRelation::new(schema);
        let sum = DynAggregate::new(AggKind::Sum, ValueType::Int).unwrap();
        let mut grouped = GroupedIndexes::build(sum, Some(1), 0, IndexMode::Integral, &relation);
        assert!(grouped.groups.is_empty());
        let mut cuts = Vec::new();
        for i in 0..200i64 {
            let tuple = Tuple::new(
                vec![Value::Int(7), Value::Int(i)],
                Interval::at(13 * i % 500 + 1, 13 * i % 500 + 40),
            );
            relation.push_tuple(tuple.clone()).unwrap();
            grouped.insert(&tuple, &relation).unwrap();
            let group = &grouped.groups[&Value::Int(7)];
            assert_eq!(group.members, usize::try_from(i).unwrap() + 1);
            assert!(group.cache.runs_len() < 2 * group.index.leaf_count());
            if cuts.last() != Some(&group.index.leaf_count()) {
                cuts.push(group.index.leaf_count());
            }
            for window in [Interval::TIMELINE, Interval::at(20, 300), tuple.valid()] {
                assert_eq!(
                    group.index.probe(window, &group.cache),
                    scan_window(&group.cache, window)
                );
            }
        }
        // Cut for 3 runs at birth, then each time the series had doubled:
        // a handful of rebuilds for two hundred writes.
        assert_eq!(cuts.first(), Some(&3));
        assert!(cuts.windows(2).all(|w| w[1] >= 2 * w[0]), "{cuts:?}");
        assert!((4..=8).contains(&cuts.len()), "{cuts:?}");
        // And the last member leaving takes the group along.
        for tuple in &relation.clone() {
            relation.remove_flagged(&[true]);
            grouped.remove(tuple, &relation).unwrap();
        }
        assert!(grouped.groups.is_empty());
    }
}
