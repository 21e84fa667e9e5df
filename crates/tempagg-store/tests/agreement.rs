//! Randomized incremental-vs-recompute agreement.
//!
//! Apply N random insert/delete/update operations to a store and assert,
//! after every operation, that each cached series is *byte-identical* to
//! a from-scratch endpoint sweep over the current relation — for all five
//! exactly-maintained aggregates (COUNT, integer SUM/AVG, MIN, MAX).
//! Runs identically under `--features validate`, where the store
//! additionally checks its structural invariants after every write.

use std::sync::Arc;
use tempagg_agg::{AggKind, DynAggregate};
use tempagg_algo::{SweepAggregator, TemporalAggregator};
use tempagg_core::{Interval, Schema, Series, TemporalRelation, Value, ValueType};
use tempagg_store::TemporalStore;

/// The five aggregates with exact incremental maintenance, over the
/// integer `salary` column (COUNT over all rows).
const KINDS: [(AggKind, Option<usize>); 5] = [
    (AggKind::CountStar, None),
    (AggKind::Sum, Some(1)),
    (AggKind::Avg, Some(1)),
    (AggKind::Min, Some(1)),
    (AggKind::Max, Some(1)),
];

fn schema() -> Arc<Schema> {
    Schema::of(&[("name", ValueType::Str), ("salary", ValueType::Int)])
}

fn dyn_agg(kind: AggKind) -> DynAggregate {
    DynAggregate::new(kind, ValueType::Int).unwrap()
}

fn recompute(relation: &TemporalRelation, kind: AggKind, column: Option<usize>) -> Series<Value> {
    let mut sweep = SweepAggregator::new(dyn_agg(kind));
    for tuple in relation {
        let value = match column {
            Some(idx) => tuple.value(idx).clone(),
            None => Value::Bool(true),
        };
        sweep.push(tuple.valid(), value).unwrap();
    }
    sweep.finish()
}

/// A tiny deterministic xorshift so the test needs no RNG dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

fn random_interval(rng: &mut Rng) -> Interval {
    let start = i64::try_from(rng.below(500)).unwrap();
    let length = i64::try_from(rng.below(120)).unwrap();
    if rng.below(20) == 0 {
        Interval::from_start(start)
    } else {
        Interval::at(start, start + length)
    }
}

fn assert_caches_match_recompute(store: &TemporalStore, context: &str) {
    for (kind, column) in KINDS {
        let snapshot = store
            .snapshot(kind, column)
            .unwrap_or_else(|| panic!("{context}: no cache for {kind:?}"));
        let oracle = recompute(store.relation(), kind, column);
        assert_eq!(
            *snapshot, oracle,
            "{context}: cached {kind:?} series diverges from a from-scratch sweep"
        );
    }
}

#[test]
fn random_ops_keep_caches_byte_identical_to_sweep() {
    let mut store = TemporalStore::with_schema(schema());
    for (kind, column) in KINDS {
        store.ensure_cache(dyn_agg(kind), column).unwrap();
    }
    let mut rng = Rng(0x5EED_1995_D5EA_D007);
    let mut serial = 0i64;

    for op in 0..400u32 {
        let roll = rng.below(10);
        if roll < 5 || store.is_empty() {
            // Insert: the majority operation, so the store grows.
            serial += 1;
            let salary = i64::try_from(20_000 + rng.below(80_000)).unwrap();
            store
                .insert(
                    vec![Value::from(format!("t{serial}")), Value::Int(salary)],
                    random_interval(&mut rng),
                )
                .unwrap();
        } else if roll < 7 {
            // Delete one pseudo-random tuple by position.
            let victim = rng.below(u64::try_from(store.len()).unwrap());
            let mut index = 0u64;
            let deleted = store
                .delete_where(|_| {
                    let hit = index == victim;
                    index += 1;
                    hit
                })
                .unwrap();
            assert_eq!(deleted, 1);
        } else if roll < 9 {
            // Update one pseudo-random tuple's salary.
            let victim = rng.below(u64::try_from(store.len()).unwrap());
            let salary = i64::try_from(20_000 + rng.below(80_000)).unwrap();
            let mut index = 0u64;
            store
                .update_where(
                    |_| {
                        let hit = index == victim;
                        index += 1;
                        hit
                    },
                    &[(1, Value::Int(salary))],
                )
                .unwrap();
        } else {
            // Delete a whole overlap window, exercising multi-tuple
            // retraction and boundary merges.
            let window = random_interval(&mut rng);
            store.delete_where(|t| t.valid().overlaps(&window)).unwrap();
        }
        assert_caches_match_recompute(&store, &format!("after op {op}"));
    }
    assert!(store.cache_stats().patched_runs > 0);
}

#[test]
fn interleaved_ops_on_paper_relation_agree() {
    // Start from the paper's Table 1 relation and interleave all three
    // mutations deterministically.
    let mut store = TemporalStore::with_schema(schema());
    for (kind, column) in KINDS {
        store.ensure_cache(dyn_agg(kind), column).unwrap();
    }
    for (name, salary, iv) in [
        ("Richard", 40_000, Interval::from_start(18)),
        ("Karen", 45_000, Interval::at(8, 20)),
        ("Nathan", 42_000, Interval::at(7, 12)),
        ("Mike", 50_000, Interval::at(18, 21)),
    ] {
        store
            .insert(vec![Value::from(name), Value::Int(salary)], iv)
            .unwrap();
        assert_caches_match_recompute(&store, name);
    }
    store
        .update_where(
            |t| t.value(0) == &Value::from("Karen"),
            &[(1, Value::Int(47_000))],
        )
        .unwrap();
    assert_caches_match_recompute(&store, "after raise");
    store
        .delete_where(|t| t.value(0) == &Value::from("Nathan"))
        .unwrap();
    assert_caches_match_recompute(&store, "after departure");
    store
        .delete_where(|t| t.valid().overlaps(&Interval::at(0, 17)))
        .unwrap();
    assert_caches_match_recompute(&store, "after window purge");
}
