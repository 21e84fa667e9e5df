//! # tempagg-store
//!
//! The mutable temporal store: live ingestion with incremental aggregate
//! maintenance and MVCC snapshot reads.
//!
//! The paper computes aggregates over an immutable relation, so every
//! query rebuilds from scratch. [`TemporalStore`] makes the relation
//! updatable — `INSERT` / `DELETE` / `UPDATE` of interval tuples — and
//! keeps a versioned cache of each queried aggregate's constant-interval
//! [`Series`](tempagg_core::Series), patched *incrementally* under every
//! write:
//!
//! * **Delta-class** aggregates (`COUNT`, integer `SUM`/`AVG`) retract
//!   exactly by delta summation (Colley et al.): the write splits or
//!   merges only the runs whose boundaries it contributes, then folds its
//!   value into — or out of — the active state of the runs overlapping
//!   the changed interval.
//! * **Ordered-class** aggregates (`MIN`/`MAX`, `COUNT(DISTINCT)`) do the
//!   same through the ordered multiset already inside
//!   [`DynActive`](tempagg_agg::DynActive).
//! * **Approximate-class** aggregates (float `SUM`/`AVG`, variance) drift
//!   under float retraction, so their caches re-run the endpoint-sweep
//!   kernel over just the dirty window — the hull of the runs overlapping
//!   the change — never the full timeline.
//!
//! A write costs what it changes: each working series is a list of
//! fixed-capacity run chunks (`runs.rs`), so a new run edge moves one
//! chunk's runs and not the series; the window index over a cache is
//! refreshed along the leaves the write dirtied; and the per-group caches
//! behind `TOP k BY ... GROUP BY` (`grouped.rs`) are patched for the one
//! or two groups the written tuple belongs to.
//!
//! Readers get MVCC snapshots: epoch-stamped immutable series versions
//! published through [`VersionedSeries`](tempagg_core::VersionedSeries),
//! shared as `Arc`s, with superseded versions collected once no reader
//! pins them. A cursor holding a snapshot stays valid across any number
//! of concurrent writes, and the cached series is byte-identical to a
//! from-scratch sweep over the relation at the snapshot's epoch.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod cache;
mod grouped;
mod runs;
mod store;

pub use cache::sweep_values;
pub use store::{index_mode_for, CacheKey, StoreCacheStats, TemporalStore, WindowIndexStats};
pub use tempagg_algo::{IndexMode, WindowAggregate};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tempagg_agg::{AggKind, DynAggregate, SweepAggregate};
    use tempagg_algo::{SweepAggregator, TemporalAggregator};
    use tempagg_core::{Interval, Schema, Series, TemporalRelation, Timestamp, Value, ValueType};

    fn schema() -> Arc<Schema> {
        Schema::of(&[("name", ValueType::Str), ("salary", ValueType::Int)])
    }

    fn employed() -> TemporalRelation {
        let mut r = TemporalRelation::new(schema());
        r.push(
            vec![Value::from("Richard"), Value::Int(40_000)],
            Interval::from_start(18),
        )
        .unwrap();
        r.push(
            vec![Value::from("Karen"), Value::Int(45_000)],
            Interval::at(8, 20),
        )
        .unwrap();
        r.push(
            vec![Value::from("Nathan"), Value::Int(42_000)],
            Interval::at(7, 12),
        )
        .unwrap();
        r.push(
            vec![Value::from("Mike"), Value::Int(50_000)],
            Interval::at(18, 21),
        )
        .unwrap();
        r
    }

    /// A from-scratch sweep over the relation — the oracle every cached
    /// series must match byte for byte.
    fn recompute(
        relation: &TemporalRelation,
        agg: DynAggregate,
        column: Option<usize>,
    ) -> Series<Value> {
        let mut sweep = SweepAggregator::new(agg);
        for tuple in relation {
            let value = match column {
                Some(idx) => tuple.value(idx).clone(),
                None => Value::Bool(true),
            };
            sweep.push(tuple.valid(), value).unwrap();
        }
        sweep.finish()
    }

    fn count_star() -> DynAggregate {
        DynAggregate::new(AggKind::CountStar, ValueType::Int).unwrap()
    }

    fn agg(kind: AggKind) -> DynAggregate {
        DynAggregate::new(kind, ValueType::Int).unwrap()
    }

    #[test]
    fn built_cache_matches_sweep() {
        let store = TemporalStore::new(employed());
        for (kind, column) in [
            (AggKind::CountStar, None),
            (AggKind::Sum, Some(1)),
            (AggKind::Min, Some(1)),
            (AggKind::Max, Some(1)),
            (AggKind::Avg, Some(1)),
        ] {
            let snap = store.snapshot_or_build(agg(kind), column);
            assert_eq!(
                *snap,
                recompute(store.relation(), agg(kind), column),
                "{kind:?} cache diverges from sweep"
            );
        }
    }

    #[test]
    fn insert_patches_cached_series() {
        let mut store = TemporalStore::new(employed());
        store.ensure_cache(count_star(), None);
        store.ensure_cache(agg(AggKind::Sum), Some(1));
        store
            .insert(
                vec![Value::from("Suchen"), Value::Int(60_000)],
                Interval::at(10, 25),
            )
            .unwrap();
        for (kind, column) in [(AggKind::CountStar, None), (AggKind::Sum, Some(1))] {
            let snap = store.snapshot(kind, column).unwrap();
            assert_eq!(*snap, recompute(store.relation(), agg(kind), column));
        }
        assert!(store.cache_stats().patched_runs > 0);
        assert_eq!(store.epoch().get(), 1);
    }

    #[test]
    fn delete_retracts_and_merges_boundaries() {
        let mut store = TemporalStore::new(employed());
        store.ensure_cache(count_star(), None);
        let runs_before = store.cache_stats().runs;
        let deleted = store
            .delete_where(|t| t.value(0) == &Value::from("Karen"))
            .unwrap();
        assert_eq!(deleted, 1);
        // Karen's boundaries (8 and 21) had a single contributor each...
        // 21 is shared with Mike's [18, 21] end? No: Mike's end boundary is
        // 22. Karen contributed 8 and 21; both merge away.
        assert!(store.cache_stats().runs < runs_before);
        let snap = store.snapshot(AggKind::CountStar, None).unwrap();
        assert_eq!(*snap, recompute(store.relation(), count_star(), None));
    }

    #[test]
    fn update_patches_only_assigned_columns() {
        let mut store = TemporalStore::new(employed());
        store.ensure_cache(count_star(), None);
        store.ensure_cache(agg(AggKind::Max), Some(1));
        let updated = store
            .update_where(
                |t| t.value(0) == &Value::from("Nathan"),
                &[(1, Value::Int(99_000))],
            )
            .unwrap();
        assert_eq!(updated, 1);
        let max = store.snapshot(AggKind::Max, Some(1)).unwrap();
        assert_eq!(
            *max,
            recompute(store.relation(), agg(AggKind::Max), Some(1))
        );
        assert_eq!(
            max.value_at(Timestamp::new(10)),
            Some(&Value::Int(99_000)),
            "the updated salary must surface as the new MAX"
        );
        let count = store.snapshot(AggKind::CountStar, None).unwrap();
        assert_eq!(*count, recompute(store.relation(), count_star(), None));
    }

    #[test]
    fn update_does_not_visit_a_series_it_did_not_assign() {
        let mut store = TemporalStore::new(employed());
        let window = Interval::at(5, 22);
        let before = store
            .window_probe(AggKind::CountStar, None, window)
            .unwrap();
        assert!(store.has_window_index(AggKind::CountStar, None));
        let patched = store.cache_stats().patched_runs;
        let updated = store.update_where(|_| true, &[(1, Value::Int(1))]).unwrap();
        assert_eq!(updated, 4);
        assert_eq!(store.cache_stats().patched_runs, patched);
        assert_eq!(
            store
                .window_probe(AggKind::CountStar, None, window)
                .unwrap(),
            before
        );
    }

    #[test]
    fn update_is_atomic_on_type_errors() {
        let mut store = TemporalStore::new(employed());
        let err = store.update_where(|_| true, &[(1, Value::from("oops"))]);
        assert!(err.is_err());
        assert_eq!(store.epoch().get(), 0);
        assert_eq!(store.relation().tuples()[1].value(1), &Value::Int(45_000));
    }

    #[test]
    fn update_rejects_an_assignment_past_the_schema() {
        let path = temp_path("badassign.tapg");
        let mut store = TemporalStore::new(employed());
        store.ensure_cache(agg(AggKind::Sum), Some(1));
        store.persist_to(&path).unwrap();

        let mut reopened = TemporalStore::open(&path).unwrap();
        let err = reopened
            .update_where(|_| true, &[(1, Value::Int(1)), (2, Value::Int(1))])
            .unwrap_err();
        assert!(err.to_string().contains("column 2"), "{err}");
        // Nothing was written: no series promoted, no tuple changed.
        assert_eq!(reopened.cache_stats().caches, 0);
        assert!(!reopened.is_dirty());
        assert_eq!(reopened.epoch().get(), 0);
        assert_eq!(reopened.relation(), store.relation());
        // A statement that matches nothing is as malformed.
        assert!(reopened
            .update_where(|_| false, &[(2, Value::Int(1))])
            .is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn approximate_class_recomputes_dirty_window() {
        let schema = Schema::of(&[("x", ValueType::Float)]);
        let mut relation = TemporalRelation::new(schema);
        for i in 0..32i64 {
            relation
                .push(
                    vec![Value::Float(f64::from(i32::try_from(i).unwrap()) / 3.0)],
                    Interval::at(i * 5, i * 5 + 12),
                )
                .unwrap();
        }
        let mut store = TemporalStore::new(relation);
        let avg = DynAggregate::new(AggKind::Avg, ValueType::Float).unwrap();
        assert!(!avg.sweep_class().retractable());
        store.ensure_cache(avg, Some(0));
        store
            .insert(vec![Value::Float(7.5)], Interval::at(40, 80))
            .unwrap();
        store
            .delete_where(|t| t.valid().start() == Timestamp::new(0))
            .unwrap();
        let stats = store.cache_stats();
        assert!(stats.recomputed_windows >= 2);
        assert_eq!(stats.patched_runs, 0);
        let snap = store.snapshot(AggKind::Avg, Some(0)).unwrap();
        let oracle = recompute(store.relation(), avg, Some(0));
        assert_eq!(snap.len(), oracle.len());
        for (got, want) in snap.iter().zip(oracle.iter()) {
            assert_eq!(got.interval, want.interval);
            match (&got.value, &want.value) {
                (Value::Float(a), Value::Float(b)) => {
                    assert!((a - b).abs() < 1e-9, "AVG drifted: {a} vs {b}");
                }
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn snapshots_pin_versions_until_dropped() {
        let mut store = TemporalStore::new(employed());
        store.ensure_cache(count_star(), None);
        let pinned = store.snapshot(AggKind::CountStar, None).unwrap();
        let before = (*pinned).clone();
        store
            .insert(
                vec![Value::from("Andrey"), Value::Int(30_000)],
                Interval::at(0, 30),
            )
            .unwrap();
        // The pinned snapshot is untouched by the write...
        assert_eq!(*pinned, before);
        // ...and the new epoch's snapshot reflects it.
        let fresh = store.snapshot(AggKind::CountStar, None).unwrap();
        assert_ne!(*fresh, before);
        assert_eq!(*fresh, recompute(store.relation(), count_star(), None));
        assert_eq!(store.cache_stats().live_versions, 2);
        drop(pinned);
        // Another write publishes and collects the unpinned old version.
        store
            .delete_where(|t| t.value(0) == &Value::from("Andrey"))
            .unwrap();
        let latest = store.snapshot(AggKind::CountStar, None).unwrap();
        drop(latest);
        assert_eq!(store.cache_stats().live_versions, 2);
        assert_eq!(store.cache_stats().pinned_versions, 1);
    }

    #[test]
    fn empty_store_has_one_empty_run() {
        let store = TemporalStore::with_schema(schema());
        let snap = store.snapshot_or_build(count_star(), None);
        assert_eq!(*snap, recompute(store.relation(), count_star(), None));
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.value_at(Timestamp::ORIGIN), Some(&Value::Int(0)));
    }

    #[test]
    fn snapshot_without_cache_is_none() {
        let store = TemporalStore::new(employed());
        assert!(store.snapshot(AggKind::CountStar, None).is_none());
        assert!(!store.has_cache(AggKind::CountStar, None));
        store.ensure_cache(count_star(), None);
        assert!(store.has_cache(AggKind::CountStar, None));
    }

    /// A deterministic xorshift generator (no external dependencies).
    struct Rng(u64);
    impl Rng {
        fn below(&mut self, n: i64) -> i64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            i64::try_from(self.0 % u64::try_from(n.max(1)).unwrap()).unwrap()
        }
    }

    fn assert_close(got: &Series<Value>, want: &Series<Value>) {
        assert_eq!(got.len(), want.len());
        for (got, want) in got.iter().zip(want.iter()) {
            assert_eq!(got.interval, want.interval);
            match (&got.value, &want.value) {
                (Value::Float(a), Value::Float(b)) => {
                    assert!((a - b).abs() < 1e-9, "drifted: {a} vs {b}");
                }
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn dirty_window_splice_spans_several_chunks() {
        let schema = Schema::of(&[("x", ValueType::Float)]);
        let mut relation = TemporalRelation::new(schema);
        for i in 0..700i64 {
            relation
                .push(
                    vec![Value::Float(
                        f64::from(i32::try_from(i % 97).unwrap()) / 7.0,
                    )],
                    Interval::at(i * 10, i * 10 + 4),
                )
                .unwrap();
        }
        let mut store = TemporalStore::new(relation);
        let avg = DynAggregate::new(AggKind::Avg, ValueType::Float).unwrap();
        store.ensure_cache(avg, Some(0));
        // 1,400 runs in six chunks; each write below dirties ≈ 1,000 of
        // them, from the first chunk into the fifth.
        assert_eq!(store.cache_stats().runs, 1400);
        store
            .insert(vec![Value::Float(2.5)], Interval::at(1002, 6003))
            .unwrap();
        store.validate_structure();
        assert_eq!(store.cache_stats().runs, 1402);
        assert_close(
            &store.snapshot(AggKind::Avg, Some(0)).unwrap(),
            &recompute(store.relation(), avg, Some(0)),
        );
        // An update keeps valid time: one recompute, not a delete's and an
        // insert's.
        let before = store.cache_stats().recomputed_windows;
        store
            .update_where(
                |t| t.valid() == Interval::at(1002, 6003),
                &[(0, Value::Float(-4.0))],
            )
            .unwrap();
        assert_eq!(store.cache_stats().recomputed_windows, before + 1);
        store.validate_structure();
        assert_close(
            &store.snapshot(AggKind::Avg, Some(0)).unwrap(),
            &recompute(store.relation(), avg, Some(0)),
        );
        store
            .delete_where(|t| t.valid() == Interval::at(1002, 6003))
            .unwrap();
        store.validate_structure();
        assert_eq!(store.cache_stats().runs, 1400);
        assert_close(
            &store.snapshot(AggKind::Avg, Some(0)).unwrap(),
            &recompute(store.relation(), avg, Some(0)),
        );
    }

    #[test]
    fn chunks_stay_sound_over_ten_thousand_seeded_writes() {
        let mut store = TemporalStore::with_schema(schema());
        store.ensure_cache(count_star(), None);
        store.ensure_cache(agg(AggKind::Sum), Some(1));
        store.ensure_cache(agg(AggKind::Min), Some(1));
        let mut rng = Rng(0x1995_0306);
        let mut live: Vec<Interval> = Vec::new();
        let mut peak = 0;
        for step in 0..10_000 {
            // Grow to ≈ 2,000 tuples (≈ 3,900 runs in fifteen chunks and
            // more per cache), shrink to almost nothing, then hover.
            let grow = match step {
                0..=3_999 => 75,
                4_000..=7_499 => 20,
                _ => 50,
            };
            if live.is_empty() || rng.below(100) < grow {
                let start = rng.below(50_000);
                let valid = if rng.below(50) == 0 {
                    Interval::from_start(start)
                } else {
                    Interval::at(start, start + rng.below(400))
                };
                store
                    .insert(vec![Value::from("t"), Value::Int(rng.below(1000))], valid)
                    .unwrap();
                live.push(valid);
            } else {
                let at = usize::try_from(rng.below(i64::try_from(live.len()).unwrap())).unwrap();
                let valid = live.swap_remove(at);
                let mut first = true;
                let deleted = store
                    .delete_where(|t| t.valid() == valid && std::mem::take(&mut first))
                    .unwrap();
                assert_eq!(deleted, 1);
            }
            // A broken tiling or fence stays broken until its chunk is
            // rewritten, so every eighth write is often enough.
            if step % 8 == 0 {
                store.validate_structure();
            }
            peak = peak.max(store.cache_stats().runs);
            if step % 500 == 499 {
                for (kind, column) in [
                    (AggKind::CountStar, None),
                    (AggKind::Sum, Some(1)),
                    (AggKind::Min, Some(1)),
                ] {
                    let snap = store.snapshot(kind, column).unwrap();
                    assert_eq!(*snap, recompute(store.relation(), agg(kind), column));
                }
            }
        }
        store.validate_structure();
        assert_eq!(store.len(), live.len());
        assert!(peak > 3 * 3_500, "three caches of fourteen chunks: {peak}");
    }

    #[test]
    fn update_in_place_leaves_boundaries_alone() {
        let mut store = TemporalStore::new(employed());
        store.ensure_cache(agg(AggKind::Sum), Some(1));
        store.ensure_cache(agg(AggKind::Min), Some(1));
        let before = store.cache_stats();
        // Nathan's [7, 12] covers two runs ([7, 7] and [8, 12]) in each of
        // the two caches; nobody shares his endpoints.
        store
            .update_where(
                |t| t.value(0) == &Value::from("Nathan"),
                &[(1, Value::Int(1))],
            )
            .unwrap();
        let after = store.cache_stats();
        assert_eq!(after.runs, before.runs);
        assert_eq!(after.patched_runs, before.patched_runs + 4);
        store.validate_structure();
        for kind in [AggKind::Sum, AggKind::Min] {
            let snap = store.snapshot(kind, Some(1)).unwrap();
            assert_eq!(*snap, recompute(store.relation(), agg(kind), Some(1)));
        }
    }

    #[test]
    fn delete_evaluates_its_predicate_once_per_tuple() {
        let mut store = TemporalStore::new(employed());
        store.ensure_cache(count_star(), None);
        let mut calls = 0;
        let deleted = store
            .delete_where(|t| {
                calls += 1;
                t.valid().start() == Timestamp::new(18)
            })
            .unwrap();
        assert_eq!((deleted, calls), (2, 4));
        let names: Vec<&Value> = store.relation().iter().map(|t| t.value(0)).collect();
        assert_eq!(names, [&Value::from("Karen"), &Value::from("Nathan")]);
        let snap = store.snapshot(AggKind::CountStar, None).unwrap();
        assert_eq!(*snap, recompute(store.relation(), count_star(), None));
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tempagg-store-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn persist_roundtrip_restores_relation_and_caches() {
        let path = temp_path("roundtrip.tapg");
        let mut store = TemporalStore::new(employed());
        store.ensure_cache(count_star(), None);
        store.ensure_cache(agg(AggKind::Sum), Some(1));
        let stats = store.persist_to(&path).unwrap();
        assert_eq!(stats.tuples, 4);
        assert!(!store.is_dirty());

        let reopened = TemporalStore::open(&path).unwrap();
        assert_eq!(reopened.relation(), store.relation());
        assert!(!reopened.is_dirty());
        assert!(reopened.has_cache(AggKind::CountStar, None));
        assert!(reopened.has_cache(AggKind::Sum, Some(1)));
        // Served from the series the file holds, not a live rebuild.
        assert_eq!(reopened.cache_stats().caches, 0);
        for (kind, column) in [(AggKind::CountStar, None), (AggKind::Sum, Some(1))] {
            let snap = reopened.snapshot(kind, column).unwrap();
            assert_eq!(*snap, recompute(reopened.relation(), agg(kind), column));
        }
        // snapshot_or_build also prefers the restored series.
        let snap = reopened.snapshot_or_build(count_star(), None);
        assert_eq!(*snap, recompute(reopened.relation(), count_star(), None));
        assert_eq!(reopened.cache_stats().caches, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mutation_after_open_promotes_restored_caches() {
        let path = temp_path("promote.tapg");
        let mut store = TemporalStore::new(employed());
        store.ensure_cache(count_star(), None);
        store.ensure_cache(agg(AggKind::Sum), Some(1));
        store.persist_to(&path).unwrap();

        let mut reopened = TemporalStore::open(&path).unwrap();
        reopened
            .insert(
                vec![Value::from("Suchen"), Value::Int(60_000)],
                Interval::at(10, 25),
            )
            .unwrap();
        assert!(reopened.is_dirty());
        // Both restored series are now live, incrementally-patched caches.
        assert_eq!(reopened.cache_stats().caches, 2);
        for (kind, column) in [(AggKind::CountStar, None), (AggKind::Sum, Some(1))] {
            let snap = reopened.snapshot(kind, column).unwrap();
            assert_eq!(
                *snap,
                recompute(reopened.relation(), agg(kind), column),
                "{kind:?} diverged after promote + patch"
            );
        }
        // Deletes and updates promote too, and stay oracle-identical.
        reopened
            .delete_where(|t| t.value(0) == &Value::from("Karen"))
            .unwrap();
        reopened
            .update_where(
                |t| t.value(0) == &Value::from("Nathan"),
                &[(1, Value::Int(70_000))],
            )
            .unwrap();
        for (kind, column) in [(AggKind::CountStar, None), (AggKind::Sum, Some(1))] {
            let snap = reopened.snapshot(kind, column).unwrap();
            assert_eq!(*snap, recompute(reopened.relation(), agg(kind), column));
        }
        // Flushing persists the promoted caches; a fresh open restores them.
        reopened.flush().unwrap().unwrap();
        let third = TemporalStore::open(&path).unwrap();
        assert_eq!(third.relation(), reopened.relation());
        let snap = third.snapshot(AggKind::Sum, Some(1)).unwrap();
        assert_eq!(
            *snap,
            recompute(third.relation(), agg(AggKind::Sum), Some(1))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_is_noop_when_clean() {
        let path = temp_path("clean.tapg");
        let mut store = TemporalStore::new(employed());
        store.persist_to(&path).unwrap();
        assert!(store.flush().unwrap().is_none());
        let mut reopened = TemporalStore::open(&path).unwrap();
        assert!(reopened.flush().unwrap().is_none());
        reopened
            .insert(vec![Value::from("Eve"), Value::Int(1)], Interval::at(0, 5))
            .unwrap();
        assert!(reopened.flush().unwrap().is_some());
        assert!(!reopened.is_dirty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flush_without_backing_errors() {
        let mut store = TemporalStore::new(employed());
        assert!(store.backing().is_none());
        let err = store.flush().unwrap_err();
        assert!(err.to_string().contains("no backing file"), "{err}");
    }

    #[test]
    fn open_rejects_unknown_cache_label() {
        use tempagg_core::pager::{write_relation, PagedWriteOptions, PersistedSeries};
        let path = temp_path("badlabel.tapg");
        write_relation(
            &employed(),
            &path,
            &PagedWriteOptions {
                caches: vec![PersistedSeries {
                    label: "MEDIAN".to_string(),
                    column: Some(1),
                    entries: Vec::new(),
                }],
                ..PagedWriteOptions::default()
            },
        )
        .unwrap();
        let err = TemporalStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("MEDIAN"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// Linear-scan window oracle over the cached series the store would
    /// publish — what every index probe must match byte for byte.
    fn window_oracle(
        store: &TemporalStore,
        kind: AggKind,
        column: Option<usize>,
        window: Interval,
    ) -> WindowAggregate {
        let snap = store.snapshot_or_build(agg(kind), column);
        tempagg_algo::scan_window(&*snap, window)
    }

    #[test]
    fn window_probe_matches_scan_oracle() {
        let store = TemporalStore::new(employed());
        let windows = [
            Interval::at(0, 5),
            Interval::at(8, 20),
            Interval::at(10, 12),
            Interval::at(19, 40),
            Interval::TIMELINE,
        ];
        for (kind, column) in [
            (AggKind::CountStar, None),
            (AggKind::Sum, Some(1)),
            (AggKind::Min, Some(1)),
            (AggKind::Max, Some(1)),
        ] {
            for window in windows {
                let got = store.window_probe(kind, column, window).unwrap();
                assert_eq!(
                    got,
                    window_oracle(&store, kind, column, window),
                    "{kind:?} over {window:?} diverged from the scan oracle"
                );
            }
        }
        let stats = store.windex_stats();
        assert_eq!(stats.misses, 4, "one build per aggregate");
        assert_eq!(stats.hits, 16, "every later probe reuses the warm index");
    }

    #[test]
    fn non_indexable_aggregates_refuse_window_probes() {
        let store = TemporalStore::new(employed());
        let err = store
            .window_probe(AggKind::Avg, Some(1), Interval::at(0, 10))
            .unwrap_err();
        assert!(err.to_string().contains("not window-indexable"), "{err}");
        assert!(store.window_indexable(AggKind::Sum, Some(1)));
        assert!(!store.window_indexable(AggKind::Avg, Some(1)));
    }

    #[test]
    fn dml_refreshes_window_indexes_in_place() {
        let mut store = TemporalStore::new(employed());
        let window = Interval::at(5, 22);
        store.window_probe(AggKind::Sum, Some(1), window).unwrap();
        store.window_probe(AggKind::Max, Some(1), window).unwrap();
        store
            .insert(
                vec![Value::from("Suchen"), Value::Int(60_000)],
                Interval::at(10, 25),
            )
            .unwrap();
        store
            .update_where(
                |t| t.value(0) == &Value::from("Nathan"),
                &[(1, Value::Int(99_000))],
            )
            .unwrap();
        store
            .delete_where(|t| t.value(0) == &Value::from("Karen"))
            .unwrap();
        // The indexes survived every write as refreshes, not drops...
        assert!(store.has_window_index(AggKind::Sum, Some(1)));
        assert!(store.has_window_index(AggKind::Max, Some(1)));
        let misses_before = store.windex_stats().misses;
        // ...and still answer byte-identically to a fresh linear scan.
        for kind in [AggKind::Sum, AggKind::Max] {
            for window in [window, Interval::at(0, 9), Interval::at(24, 60)] {
                let got = store.window_probe(kind, Some(1), window).unwrap();
                assert_eq!(
                    got,
                    window_oracle(&store, kind, Some(1), window),
                    "{kind:?} over {window:?} diverged after DML refresh"
                );
            }
        }
        assert_eq!(store.windex_stats().misses, misses_before);
    }

    #[test]
    fn extreme_instants_point_at_the_series_extreme() {
        let store = TemporalStore::new(employed());
        let snap = store.snapshot_or_build(agg(AggKind::Sum), Some(1));
        let window = Interval::at(0, 30);
        let (at, value) = store
            .window_extreme_instant(AggKind::Sum, Some(1), window, true)
            .unwrap()
            .unwrap();
        assert_eq!(snap.value_at(at), Some(&value));
        // No instant in the window carries a larger SUM.
        for entry in snap.entries() {
            if entry.interval.overlaps(&window) && !entry.value.is_null() {
                assert!(entry.value.total_cmp(&value).is_le());
            }
        }
        let (at_min, min_value) = store
            .window_extreme_instant(AggKind::Sum, Some(1), window, false)
            .unwrap()
            .unwrap();
        assert_eq!(snap.value_at(at_min), Some(&min_value));
        assert!(min_value.total_cmp(&value).is_le());
    }

    #[test]
    fn top_k_ranks_groups_by_windowed_aggregate() {
        let schema = Schema::of(&[("g", ValueType::Int), ("v", ValueType::Int)]);
        let mut relation = TemporalRelation::new(schema.clone());
        for g in 0..6i64 {
            for j in 0..4i64 {
                relation
                    .push(
                        vec![Value::Int(g), Value::Int(10 * g + j)],
                        Interval::at(g * 3 + j, g * 3 + j + 20),
                    )
                    .unwrap();
            }
        }
        let store = TemporalStore::new(relation.clone());
        let window = Interval::at(5, 30);
        let (ranked, probes) = store
            .top_k_by_window(AggKind::Sum, Some(1), 0, window, 3)
            .unwrap();
        assert_eq!(ranked.len(), 3);
        assert!(probes > 0);
        // Exhaustive oracle: sweep each group separately and scan.
        let mut oracle: Vec<(Value, i128)> = (0..6i64)
            .map(|g| {
                let mut sub = TemporalRelation::new(schema.clone());
                for t in relation.iter().filter(|t| t.value(0) == &Value::Int(g)) {
                    sub.push(t.values().to_vec(), t.valid()).unwrap();
                }
                let series = recompute(&sub, agg(AggKind::Sum), Some(1));
                let scanned = tempagg_algo::scan_window(&series, window);
                (Value::Int(g), scanned.integral)
            })
            .collect();
        oracle.sort_by_key(|entry| std::cmp::Reverse(entry.1));
        for (got, want) in ranked.iter().zip(&oracle) {
            assert_eq!(got.0, want.0, "ranking order diverged from exhaustive");
            assert_eq!(got.1.integral, want.1);
        }
        // A repeat ranking reuses the grouped indexes (a hit, no rebuild).
        let misses = store.windex_stats().misses;
        store
            .top_k_by_window(AggKind::Sum, Some(1), 0, window, 3)
            .unwrap();
        assert_eq!(store.windex_stats().misses, misses);
    }

    #[test]
    fn a_write_between_two_rankings_patches_the_groups() {
        let schema = Schema::of(&[("g", ValueType::Int), ("v", ValueType::Int)]);
        let mut relation = TemporalRelation::new(schema);
        for g in 0..4i64 {
            for j in 0..5i64 {
                relation
                    .push(
                        vec![Value::Int(g), Value::Int(10 * g + j)],
                        Interval::at(g + 2 * j, g + 2 * j + 10),
                    )
                    .unwrap();
            }
        }
        let mut store = TemporalStore::new(relation);
        let window = Interval::at(3, 25);
        let rank = |store: &TemporalStore| {
            let (ranked, _) = store
                .top_k_by_window(AggKind::Sum, Some(1), 0, window, 2)
                .unwrap();
            let fresh = TemporalStore::new(store.relation().clone());
            let (want, _) = fresh
                .top_k_by_window(AggKind::Sum, Some(1), 0, window, 2)
                .unwrap();
            assert_eq!(ranked, want, "patched groups rank unlike rebuilt ones");
            ranked
        };
        assert_eq!(rank(&store)[0].0, Value::Int(3));
        let misses = store.windex_stats().misses;
        assert_eq!(misses, 1);
        // An insert into a group, one that founds a group, an update that
        // moves a tuple between groups, one that changes the ranked value,
        // and a delete that empties a group: each ranking after is a hit.
        store
            .insert(vec![Value::Int(0), Value::Int(500)], Interval::at(0, 30))
            .unwrap();
        assert_eq!(rank(&store)[0].0, Value::Int(0));
        store
            .insert(vec![Value::Int(9), Value::Int(900)], Interval::at(5, 20))
            .unwrap();
        assert_eq!(rank(&store)[0].0, Value::Int(9));
        store
            .update_where(|t| t.value(0) == &Value::Int(9), &[(0, Value::Int(1))])
            .unwrap();
        assert_eq!(rank(&store)[0].0, Value::Int(1));
        store
            .update_where(|t| t.value(1) == &Value::Int(900), &[(1, Value::Int(1))])
            .unwrap();
        assert_eq!(rank(&store)[0].0, Value::Int(0));
        store
            .delete_where(|t| t.value(0) == &Value::Int(0))
            .unwrap();
        let ranked = rank(&store);
        assert!(
            ranked.iter().all(|(g, _)| g != &Value::Int(0)),
            "{ranked:?}"
        );
        assert_eq!(store.windex_stats().misses, misses);
    }

    #[test]
    fn reopened_store_rebuilds_its_window_index_on_first_probe() {
        let path = temp_path("windex.tapg");
        let mut store = TemporalStore::new(employed());
        let window = Interval::at(6, 21);
        let want = store.window_probe(AggKind::Sum, Some(1), window).unwrap();
        store.window_probe(AggKind::Min, Some(1), window).unwrap();
        store.persist_to(&path).unwrap();

        // The file carries the two series and nothing derived from them.
        let reader = tempagg_core::pager::PagedReader::open(&path).unwrap();
        let directory = reader.series_directory();
        let labels: Vec<&str> = directory.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels.len(), 2, "{labels:?}");
        assert!(
            labels.iter().all(|l| !l.starts_with("windex:")),
            "{labels:?}"
        );

        let reopened = TemporalStore::open(&path).unwrap();
        assert!(!reopened.has_window_index(AggKind::Sum, Some(1)));
        assert!(!reopened.has_window_index(AggKind::Min, Some(1)));
        // First probe: a miss that builds from the restored series (no live
        // cache), second: a hit. Both equal the pre-flush answer.
        for expected in [(0, 1), (1, 1)] {
            let got = reopened
                .window_probe(AggKind::Sum, Some(1), window)
                .unwrap();
            assert_eq!(got, want);
            assert_eq!(got, window_oracle(&reopened, AggKind::Sum, Some(1), window));
            let stats = reopened.windex_stats();
            assert_eq!((stats.hits, stats.misses), expected);
        }
        assert_eq!(reopened.cache_stats().caches, 0);
        // Oracle agreement for a window the original never probed.
        let fresh = Interval::at(0, 11);
        assert_eq!(
            reopened.window_probe(AggKind::Min, Some(1), fresh).unwrap(),
            window_oracle(&reopened, AggKind::Min, Some(1), fresh),
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn legacy_windex_blocks_are_an_unknown_label() {
        use tempagg_core::pager::{write_relation, PagedWriteOptions, PersistedSeries};
        use tempagg_core::SeriesEntry;
        let path = temp_path("legacywindex.tapg");
        let relation = employed();
        let cache = {
            let store = TemporalStore::new(relation.clone());
            store.snapshot_or_build(agg(AggKind::Sum), Some(1))
        };
        // What a build before the file stopped carrying indexes wrote
        // beside the series: blocks labelled `windex:<part>:<aggregate>`.
        let block = |label: &str, entries| PersistedSeries {
            label: label.to_string(),
            column: Some(1),
            entries,
        };
        let meta = vec![SeriesEntry::new(
            Interval::at(0, 0),
            Value::from("v1 integral 7 9223372036854775807"),
        )];
        write_relation(
            &relation,
            &path,
            &PagedWriteOptions {
                caches: vec![
                    block("SUM", cache.entries().to_vec()),
                    block("windex:meta:SUM", meta),
                ],
                ..PagedWriteOptions::default()
            },
        )
        .unwrap();
        let err = TemporalStore::open(&path).unwrap_err();
        assert!(
            matches!(err, tempagg_core::TempAggError::Storage { .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("windex:meta:SUM"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn statements_that_change_nothing_leave_restored_series_alone() {
        let path = temp_path("nopromote.tapg");
        let mut store = TemporalStore::new(employed());
        store.ensure_cache(count_star(), None);
        store.ensure_cache(agg(AggKind::Sum), Some(1));
        store.persist_to(&path).unwrap();

        let mut reopened = TemporalStore::open(&path).unwrap();
        let before = reopened.snapshot(AggKind::Sum, Some(1)).unwrap();
        assert_eq!(reopened.delete_where(|_| false).unwrap(), 0);
        assert_eq!(
            reopened
                .update_where(|_| false, &[(1, Value::Int(1))])
                .unwrap(),
            0
        );
        assert!(reopened
            .insert(vec![Value::Int(7), Value::Int(1)], Interval::at(0, 5))
            .is_err());
        assert_eq!(reopened.cache_stats().caches, 0);
        assert!(!reopened.is_dirty());
        assert_eq!(reopened.epoch().get(), 0);
        let after = reopened.snapshot(AggKind::Sum, Some(1)).unwrap();
        assert!(Arc::ptr_eq(&before, &after));
        assert!(reopened.has_cache(AggKind::CountStar, None));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_rejects_out_of_range_cache_column() {
        use tempagg_core::pager::{write_relation, PagedWriteOptions, PersistedSeries};
        let path = temp_path("badcol.tapg");
        write_relation(
            &employed(),
            &path,
            &PagedWriteOptions {
                caches: vec![PersistedSeries {
                    label: "SUM".to_string(),
                    column: Some(9),
                    entries: Vec::new(),
                }],
                ..PagedWriteOptions::default()
            },
        )
        .unwrap();
        let err = TemporalStore::open(&path).unwrap_err();
        assert!(err.to_string().contains("column 9"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
