//! Seeded property test of the live `TOP k` groups.
//!
//! Random programs of INSERT / UPDATE of the aggregated column / UPDATE of
//! the grouping column / DELETE — including emptying a group, re-creating
//! it, and a first tuple for a grouping value never seen — run over a live
//! store and over one reopened from a paged file (its series *restored*
//! until the first write promotes them). After every statement, ranking by
//! `SUM`, `COUNT(*)`, `MIN` and `MAX` returns what the same call returns
//! on a store built from scratch over the same relation, every cached
//! series equals a rebuild, and a window probe of each — through the index
//! the store cut before the program began, for the reopened store over the
//! *restored* series — answers like one over the rebuild. Under
//! `--features validate` each write additionally asserts every touched
//! group against a sweep of its members.

use tempagg_agg::{AggKind, DynAggregate};
use tempagg_core::{Interval, Schema, TemporalRelation, Value, ValueType};
use tempagg_store::TemporalStore;

const GROUP: usize = 0;
const AMOUNT: usize = 1;
const RANKED: [(AggKind, Option<usize>); 4] = [
    (AggKind::Sum, Some(AMOUNT)),
    (AggKind::CountStar, None),
    (AggKind::Min, Some(AMOUNT)),
    (AggKind::Max, Some(AMOUNT)),
];

/// A tiny deterministic xorshift so the test needs no RNG dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, bound: i64) -> i64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        i64::try_from(self.0 % u64::try_from(bound.max(1)).unwrap()).unwrap()
    }

    fn interval(&mut self) -> Interval {
        let start = self.below(400);
        if self.below(25) == 0 {
            Interval::from_start(start)
        } else {
            Interval::at(start, start + self.below(90))
        }
    }

    fn window(&mut self) -> Interval {
        let start = self.below(450);
        Interval::at(start, start + 1 + self.below(200))
    }
}

fn seed_relation(rng: &mut Rng) -> TemporalRelation {
    let schema = Schema::of(&[("g", ValueType::Int), ("amount", ValueType::Int)]);
    let mut relation = TemporalRelation::new(schema);
    for _ in 0..40 {
        relation
            .push(
                vec![Value::Int(rng.below(5)), Value::Int(rng.below(1000) - 200)],
                rng.interval(),
            )
            .unwrap();
    }
    relation
}

/// What the window index of `kind(column)` answers over `window`: the
/// aggregate, and where the series is highest and lowest.
fn probe(
    store: &TemporalStore,
    kind: AggKind,
    column: Option<usize>,
    window: Interval,
) -> impl PartialEq + std::fmt::Debug {
    (
        store.window_probe(kind, column, window).unwrap(),
        store
            .window_extreme_instant(kind, column, window, true)
            .unwrap(),
        store
            .window_extreme_instant(kind, column, window, false)
            .unwrap(),
    )
}

/// Warm every ranked shape's groups, the per-aggregate caches and their
/// window indexes.
fn warm(store: &TemporalStore) {
    for (kind, column) in RANKED {
        store
            .top_k_by_window(kind, column, GROUP, Interval::at(0, 500), 3)
            .unwrap();
        store.ensure_cache(DynAggregate::new(kind, ValueType::Int).unwrap(), column);
        probe(store, kind, column, Interval::at(0, 500));
        assert!(store.has_window_index(kind, column));
    }
}

fn assert_matches_a_rebuild(store: &TemporalStore, rng: &mut Rng, context: &str) {
    let rebuilt = TemporalStore::new(store.relation().clone());
    let window = rng.window();
    for (kind, column) in RANKED {
        for k in [1, 3, 100] {
            let (got, _) = store
                .top_k_by_window(kind, column, GROUP, window, k)
                .unwrap();
            let (want, _) = rebuilt
                .top_k_by_window(kind, column, GROUP, window, k)
                .unwrap();
            assert_eq!(got, want, "{context}: TOP {k} BY {kind:?} OVER {window}");
        }
        let agg = DynAggregate::new(kind, ValueType::Int).unwrap();
        assert_eq!(
            store.snapshot_or_build(agg, column),
            rebuilt.snapshot_or_build(agg, column),
            "{context}: {kind:?} series"
        );
        assert_eq!(
            probe(store, kind, column, window),
            probe(&rebuilt, kind, column, window),
            "{context}: {kind:?} OVER {window}"
        );
    }
}

/// One random statement. Grouping values are drawn from `0..8` while the
/// seed relation only uses `0..5`, so inserts and regrouping updates found
/// new groups; deletes by grouping value empty them.
fn step(store: &mut TemporalStore, rng: &mut Rng) -> String {
    let g = Value::Int(rng.below(8));
    match rng.below(10) {
        0..=3 => {
            let valid = rng.interval();
            let amount = rng.below(1000) - 200;
            store
                .insert(vec![g.clone(), Value::Int(amount)], valid)
                .unwrap();
            format!("insert g={g} {amount} {valid}")
        }
        4 | 5 => {
            let amount = rng.below(1000) - 200;
            let reach = rng.window();
            let n = store
                .update_where(
                    |t| t.value(GROUP) == &g && t.valid().overlaps(&reach),
                    &[(AMOUNT, Value::Int(amount))],
                )
                .unwrap();
            format!("update {n} of g={g} in {reach} to {amount}")
        }
        6 | 7 => {
            let to = Value::Int(rng.below(8));
            let reach = rng.window();
            let n = store
                .update_where(
                    |t| t.value(GROUP) == &g && t.valid().overlaps(&reach),
                    &[(GROUP, to.clone())],
                )
                .unwrap();
            format!("regroup {n} of g={g} in {reach} to g={to}")
        }
        8 => {
            let reach = rng.window();
            let n = store
                .delete_where(|t| t.value(GROUP) == &g && t.valid().overlaps(&reach))
                .unwrap();
            format!("delete {n} of g={g} in {reach}")
        }
        _ => {
            let n = store.delete_where(|t| t.value(GROUP) == &g).unwrap();
            format!("delete all {n} of g={g}")
        }
    }
}

fn run_program(mut store: TemporalStore, seed: u64, label: &str) -> TemporalStore {
    let mut rng = Rng(seed);
    let mut groups_seen = std::collections::BTreeSet::new();
    let (mut emptied, mut founded) = (0, 0);
    for i in 0..250 {
        let before: std::collections::BTreeSet<Value> = store
            .relation()
            .iter()
            .map(|t| t.value(GROUP).clone())
            .collect();
        let did = step(&mut store, &mut rng);
        let after: std::collections::BTreeSet<Value> = store
            .relation()
            .iter()
            .map(|t| t.value(GROUP).clone())
            .collect();
        emptied += before.difference(&after).count();
        founded += after.difference(&before).count();
        groups_seen.extend(after);
        assert_matches_a_rebuild(
            &store,
            &mut rng,
            &format!("{label} seed {seed:#x} step {i} ({did})"),
        );
    }
    // The program did visit the corners it is meant to.
    assert_eq!(groups_seen.len(), 8, "{label}: {groups_seen:?}");
    assert!(
        emptied >= 5 && founded >= 5,
        "{label}: {emptied} emptied, {founded} founded"
    );
    store
}

#[test]
fn live_store_groups_follow_random_programs() {
    for seed in [0x1995, 0xdead_beef, 0x5eed_0003] {
        let store = TemporalStore::new(seed_relation(&mut Rng(seed ^ 0xff)));
        warm(&store);
        run_program(store, seed, "live");
    }
}

#[test]
fn reopened_store_groups_follow_random_programs() {
    for seed in [0x1995, 0xc0ffee] {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "tempagg-grouped-{}-{seed:x}.tapg",
            std::process::id()
        ));
        let mut store = TemporalStore::new(seed_relation(&mut Rng(seed ^ 0xff)));
        warm(&store);
        store.persist_to(&path).unwrap();
        let reopened = TemporalStore::open(&path).unwrap();
        // Groups are built from the reopened relation, and the window
        // indexes cut, while the per-aggregate series are still the restored
        // ones; the first write promotes those under the indexes they
        // already have and patches the groups in the same commit.
        for (kind, column) in RANKED {
            assert!(reopened.has_cache(kind, column));
            assert!(!reopened.has_window_index(kind, column));
            reopened
                .top_k_by_window(kind, column, GROUP, Interval::at(0, 500), 3)
                .unwrap();
            assert_eq!(
                probe(&reopened, kind, column, Interval::at(0, 500)),
                probe(&store, kind, column, Interval::at(0, 500))
            );
        }
        assert_eq!(reopened.cache_stats().caches, 0);
        let misses = reopened.windex_stats().misses;
        let reopened = run_program(reopened, seed, "reopened");
        // Promotion kept every index: no probe of the program cut a second.
        assert_eq!(reopened.windex_stats().misses, misses);
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn a_store_created_empty_grows_its_groups_from_nothing() {
    let schema = Schema::of(&[("g", ValueType::Int), ("amount", ValueType::Int)]);
    let store = TemporalStore::with_schema(schema);
    warm(&store);
    assert!(store
        .top_k_by_window(AggKind::Sum, Some(AMOUNT), GROUP, Interval::at(0, 500), 3)
        .unwrap()
        .0
        .is_empty());
    run_program(store, 0x0e0e, "empty");
}
