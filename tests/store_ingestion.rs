//! End-to-end ingestion through the facade: the README's mutable-store
//! example, plus snapshot stability across DML (DESIGN.md §13).

use temporal_aggregates::prelude::*;
use temporal_aggregates::workload::employed::employed_relation;
use temporal_aggregates::{AggKind, DynAggregate, ValueType};

/// The README "ingestion" snippet, verbatim: warm the cache with one
/// query, mutate through DML, and observe the repeat query served from
/// an MVCC snapshot with the writes applied.
#[test]
fn readme_ingestion_example_works() {
    let mut catalog = Catalog::new();
    catalog.register("Employed", employed_relation());

    let first = execute_str(&catalog, "SELECT COUNT(Name) FROM Employed E").unwrap();
    assert!(!first.cache.served_from_cache);

    execute_statement(
        &mut catalog,
        "INSERT INTO Employed VALUES ('Ada', 72000) VALID [3, 9]",
    )
    .unwrap();
    execute_statement(
        &mut catalog,
        "UPDATE Employed SET salary = 50000 WHERE name = 'Karen'",
    )
    .unwrap();
    execute_statement(&mut catalog, "DELETE FROM Employed WHERE name = 'Nathan'").unwrap();

    let served = execute_str(&catalog, "SELECT COUNT(Name) FROM Employed E").unwrap();
    assert!(served.cache.served_from_cache);

    // The served rows must equal a cold evaluation over the mutated
    // relation — cached maintenance is invisible except for being fast.
    let mut cold = Catalog::new();
    cold.register(
        "Employed",
        catalog.store("Employed").unwrap().relation().clone(),
    );
    let recomputed = execute_str(&cold, "SELECT COUNT(Name) FROM Employed E").unwrap();
    assert!(!recomputed.cache.served_from_cache);
    assert_eq!(served.rows, recomputed.rows);
}

/// A pinned snapshot is immutable: DML after the pin publishes newer
/// versions without disturbing the reader's view.
#[test]
fn pinned_snapshot_survives_concurrent_dml() {
    let mut store = TemporalStore::new(employed_relation());
    let count = DynAggregate::new(AggKind::CountStar, ValueType::Int).unwrap();
    store.ensure_cache(count, None).unwrap();

    let pinned = store.snapshot(AggKind::CountStar, None).unwrap();
    let before: Vec<_> = pinned.entries().to_vec();

    store
        .insert(
            vec![Value::from("Grace"), Value::Int(64_000)],
            Interval::at(5, 25),
        )
        .unwrap();
    store
        .delete_where(|t| t.value(0) == &Value::from("Karen"))
        .unwrap();

    // The pinned version is byte-identical to what the reader saw...
    assert_eq!(pinned.entries(), before.as_slice());
    // ...while a fresh snapshot reflects the writes and matches a
    // from-scratch rebuild over the mutated relation.
    let fresh = store.snapshot(AggKind::CountStar, None).unwrap();
    let rebuilt = TemporalStore::new(store.relation().clone());
    assert_eq!(
        fresh.entries(),
        rebuilt.snapshot_or_build(count, None).entries()
    );
    assert_ne!(fresh.entries(), before.as_slice());
}
