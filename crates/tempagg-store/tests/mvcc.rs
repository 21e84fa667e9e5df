//! Snapshot isolation under concurrent readers.
//!
//! Reader threads pin snapshots while the owning thread
//! keeps writing. Each reader must observe a series byte-identical to a
//! quiesced from-scratch sweep over the relation *as it stood at the
//! reader's epoch* — writes after the pin must never show through, and
//! dropping the last pin lets the version chain collect the old epoch.

use std::sync::Arc;
use tempagg_agg::{AggKind, DynAggregate};
use tempagg_algo::{SweepAggregator, TemporalAggregator};
use tempagg_core::{Interval, Schema, Series, TemporalRelation, Value, ValueType};
use tempagg_store::TemporalStore;

fn schema() -> Arc<Schema> {
    Schema::of(&[("name", ValueType::Str), ("salary", ValueType::Int)])
}

fn count_star() -> DynAggregate {
    DynAggregate::new(AggKind::CountStar, ValueType::Int).unwrap()
}

fn recompute_count(relation: &TemporalRelation) -> Series<Value> {
    let mut sweep = SweepAggregator::new(count_star());
    for tuple in relation {
        sweep.push(tuple.valid(), Value::Bool(true)).unwrap();
    }
    sweep.finish()
}

#[test]
fn pinned_snapshots_survive_concurrent_writes() {
    let mut store = TemporalStore::with_schema(schema());
    store.ensure_cache(count_star(), None).unwrap();
    for i in 0..64i64 {
        store
            .insert(
                vec![Value::from("seed"), Value::Int(1_000 + i)],
                Interval::at(i * 3, i * 3 + 40),
            )
            .unwrap();
    }

    // Pin a snapshot and record the quiesced recompute it must equal.
    let pinned: Arc<Series<Value>> = store.snapshot(AggKind::CountStar, None).unwrap();
    let expected: Series<Value> = recompute_count(store.relation());

    std::thread::scope(|scope| {
        // Readers verify the pinned snapshot repeatedly while the main
        // thread writes. They hold their own Arc clones, so the version
        // stays alive however long they run.
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reader_pin = Arc::clone(&pinned);
                let reader_expected = expected.clone();
                scope.spawn(move || {
                    for _ in 0..200 {
                        assert_eq!(
                            *reader_pin, reader_expected,
                            "a concurrent write leaked into a pinned snapshot"
                        );
                        std::thread::yield_now();
                    }
                    reader_pin.len()
                })
            })
            .collect();

        // Meanwhile: writes on the owning thread, each patching the cache
        // and publishing fresh versions for new readers.
        for i in 0..64i64 {
            store
                .insert(
                    vec![Value::from("live"), Value::Int(2_000 + i)],
                    Interval::at(i * 5, i * 5 + 25),
                )
                .unwrap();
            if i % 8 == 0 {
                // A fresh snapshot mid-write-burst equals the quiesced
                // recompute at the current epoch.
                let fresh = store.snapshot(AggKind::CountStar, None).unwrap();
                assert_eq!(*fresh, recompute_count(store.relation()));
            }
        }
        store
            .delete_where(|t| t.value(0) == &Value::from("seed"))
            .unwrap();

        for handle in handles {
            let len = handle.join().expect("reader thread panicked");
            assert_eq!(len, expected.len());
        }
    });

    // The pinned epoch is long superseded; dropping the last pin lets the
    // next publish collect it.
    assert_eq!(*pinned, expected);
    drop(pinned);
    let final_snapshot = store.snapshot(AggKind::CountStar, None).unwrap();
    assert_eq!(*final_snapshot, recompute_count(store.relation()));
    assert!(store.cache_stats().live_versions <= 2);
}
