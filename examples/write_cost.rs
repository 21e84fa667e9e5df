//! What one write costs the store — the measurement behind "a write costs
//! what it changes" (DESIGN.md §13 and §16, EXPERIMENTS.md).
//!
//! A table shaped like the end-to-end benchmark's `W` (n = 65,536 random-
//! order short tuples over a lifespan of a million instants, 1,000 depts,
//! seed 1995) is wrapped in a `TemporalStore`, and the same three writes
//! are timed with more and more state warm: no cache, then `COUNT(*)`,
//! `SUM(salary)` and `MIN(salary)` caches one by one, then the two window
//! indexes, then the per-dept `TOP k` groups. Updates and deletes are aimed
//! at a live tuple (its dept and start time, as the benchmark aims them),
//! so every statement changes data; a delete is followed by an untimed
//! re-insert so the table keeps its size. Printed: the median of each
//! write in ms beside the runs the warm caches hold, then what the first
//! ranking after a write costs against a repeated one, and the publish of
//! one series after a write.
//!
//! Public APIs only, so the same file runs against an earlier commit.
//! The benchmark runs under `MALLOC_MMAP_THRESHOLD_=33554432
//! MALLOC_TRIM_THRESHOLD_=4294967296 MALLOC_TOP_PAD_=67108864` (see
//! `bench/run.sh`); export the same to reproduce its `stmt.insert`.
//!
//! Run with: `cargo run --release --example write_cost`
//!
//! `-- --check` runs the fully warm configuration at n = 4,096 and at
//! n = 65,536 *at the same tuple density* (the lifespan scales with n, so
//! a short tuple covers the same ≈ 65 runs per cache at both sizes and the
//! only thing that differs is how much is stored), and fails unless the
//! median insert grew less than 4× while the runs grew 16×: a write costs
//! what it changes, not what is stored. With one `Vec<Run>` per cache the
//! same check reads ≈ 0.06 → 1.0 ms.

use std::time::{Duration, Instant};
use temporal_aggregates::prelude::*;
use temporal_aggregates::{AggKind, DynAggregate, Schema, Tuple, ValueType};

const LIFESPAN: i64 = 1_000_000;
const DEPTS: i64 = 1000;
const DEPT: usize = 1;
const SALARY: usize = 2;
const REACH: i64 = 1000;
const SAMPLES: usize = 101;
const CACHES: [(AggKind, Option<usize>); 3] = [
    (AggKind::CountStar, None),
    (AggKind::Sum, Some(SALARY)),
    (AggKind::Min, Some(SALARY)),
];

/// xorshift64*: every relation, write and window follows from the seed.
struct Rng(u64);

impl Rng {
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let draw = self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 1;
        lo + (draw % (hi - lo + 1) as u64) as i64
    }

    /// One short tuple by the paper's §6 rules, as `(values, valid)`.
    fn short_tuple(&mut self, lifespan: i64) -> (Vec<Value>, Interval) {
        loop {
            let start = self.range(0, lifespan - 1);
            let end = start + self.range(1, 1000) - 1;
            if end < lifespan {
                let values = vec![
                    Value::from("w"),
                    Value::Int(self.range(0, DEPTS - 1)),
                    Value::Int(self.range(20_000, 100_000)),
                ];
                return (values, Interval::at(start, end));
            }
        }
    }
}

fn w_shaped(n: usize, lifespan: i64, rng: &mut Rng) -> tempagg_core::Result<TemporalRelation> {
    let schema = Schema::of(&[
        ("name", ValueType::Str),
        ("dept", ValueType::Int),
        ("salary", ValueType::Int),
    ]);
    let mut relation = TemporalRelation::with_capacity(schema, n);
    for _ in 0..n {
        let (values, valid) = rng.short_tuple(lifespan);
        relation.push(values, valid)?;
    }
    Ok(relation)
}

/// How much of the store's derived state is warm.
#[derive(Clone, Copy)]
struct Warm {
    caches: usize,
    indexes: bool,
    groups: bool,
}

impl Warm {
    const ALL: Warm = Warm {
        caches: 3,
        indexes: true,
        groups: true,
    };

    fn label(self) -> String {
        let mut label = format!("{} caches", self.caches);
        if self.indexes {
            label.push_str(" + 2 indexes");
        }
        if self.groups {
            label.push_str(" + groups");
        }
        label
    }
}

fn warm_store(
    relation: &TemporalRelation,
    lifespan: i64,
    warm: Warm,
) -> tempagg_core::Result<TemporalStore> {
    let store = TemporalStore::new(relation.clone());
    for (kind, column) in CACHES.into_iter().take(warm.caches) {
        store.ensure_cache(DynAggregate::new(kind, ValueType::Int)?, column);
    }
    let window = Interval::at(0, lifespan / 100);
    if warm.indexes {
        store.window_probe(AggKind::Sum, Some(SALARY), window)?;
        store.window_probe(AggKind::Min, Some(SALARY), window)?;
    }
    if warm.groups {
        store.top_k_by_window(AggKind::Sum, Some(SALARY), DEPT, window, 10)?;
    }
    Ok(store)
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The dept and reach of an update or delete: those of a live tuple.
fn aim(store: &TemporalStore, rng: &mut Rng) -> (Value, Interval) {
    let at = rng.range(0, store.len() as i64 - 1) as usize;
    let target = &store.relation().tuples()[at];
    let start = target.valid().start().get();
    (
        target.value(DEPT).clone(),
        Interval::at(start, start + REACH),
    )
}

struct WriteCost {
    insert: Duration,
    update: Duration,
    delete: Duration,
    runs: usize,
}

fn time_writes(
    store: &mut TemporalStore,
    lifespan: i64,
    rng: &mut Rng,
) -> tempagg_core::Result<WriteCost> {
    let (mut insert, mut update, mut delete) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SAMPLES {
        let (values, valid) = rng.short_tuple(lifespan);
        let started = Instant::now();
        store.insert(values, valid)?;
        insert.push(started.elapsed());

        let (dept, reach) = aim(store, rng);
        let salary = Value::Int(rng.range(20_000, 100_000));
        let started = Instant::now();
        let updated = store.update_where(
            |t| t.value(DEPT) == &dept && t.valid().overlaps(&reach),
            &[(SALARY, salary)],
        )?;
        update.push(started.elapsed());
        assert!(updated > 0, "an aimed update changes data");

        let (dept, reach) = aim(store, rng);
        let doomed: Vec<Tuple> = store
            .relation()
            .iter()
            .filter(|t| t.value(DEPT) == &dept && t.valid().overlaps(&reach))
            .cloned()
            .collect();
        let started = Instant::now();
        let deleted =
            store.delete_where(|t| t.value(DEPT) == &dept && t.valid().overlaps(&reach))?;
        delete.push(started.elapsed());
        assert_eq!(deleted, doomed.len());
        for tuple in doomed {
            store.insert_tuple(tuple)?;
        }
    }
    Ok(WriteCost {
        insert: median(insert),
        update: median(update),
        delete: median(delete),
        runs: store.cache_stats().runs,
    })
}

fn report(n: usize, seed: u64) -> tempagg_core::Result<()> {
    let mut rng = Rng(seed);
    let relation = w_shaped(n, LIFESPAN, &mut rng)?;
    println!("n = {n} short tuples, seed {seed}, medians of {SAMPLES}");
    println!(
        "{:<30} {:>10} {:>10} {:>10} {:>10}",
        "warm", "insert ms", "update ms", "delete ms", "runs"
    );
    let ladder = [
        (0, false, false),
        (1, false, false),
        (2, false, false),
        (3, false, false),
        (3, true, false),
        (3, true, true),
    ];
    for (caches, indexes, groups) in ladder {
        let warm = Warm {
            caches,
            indexes,
            groups,
        };
        let mut store = warm_store(&relation, LIFESPAN, warm)?;
        let cost = time_writes(&mut store, LIFESPAN, &mut rng)?;
        println!(
            "{:<30} {:>10.4} {:>10.4} {:>10.4} {:>10}",
            warm.label(),
            ms(cost.insert),
            ms(cost.update),
            ms(cost.delete),
            cost.runs
        );
    }

    // Ranking and publishing after a write, everything warm.
    let mut store = warm_store(&relation, LIFESPAN, Warm::ALL)?;
    let (mut after_write, mut repeated, mut publish) = (Vec::new(), Vec::new(), Vec::new());
    let mut published_runs = 0;
    for _ in 0..21 {
        let (values, valid) = rng.short_tuple(LIFESPAN);
        store.insert(values, valid)?;
        let start = rng.range(0, LIFESPAN - LIFESPAN / 100);
        let window = Interval::at(start, start + LIFESPAN / 100 - 1);
        let started = Instant::now();
        let first = store.top_k_by_window(AggKind::Sum, Some(SALARY), DEPT, window, 10)?;
        after_write.push(started.elapsed());
        let started = Instant::now();
        let again = store.top_k_by_window(AggKind::Sum, Some(SALARY), DEPT, window, 10)?;
        repeated.push(started.elapsed());
        assert_eq!(first.0, again.0);
        let started = Instant::now();
        let series = store.snapshot(AggKind::Sum, Some(SALARY));
        publish.push(started.elapsed());
        published_runs = series.map_or(0, |s| s.len());
    }
    println!(
        "ranking after a write          {:>10.4} ms",
        ms(median(after_write))
    );
    println!(
        "ranking again                  {:>10.4} ms",
        ms(median(repeated))
    );
    println!(
        "publish of SUM after a write   {:>10.4} ms  ({published_runs} runs)",
        ms(median(publish))
    );
    Ok(())
}

/// Insert cost must follow what a write changes (the ≈ 65 runs per cache
/// a short tuple covers at `W`'s density, kept the same at both sizes),
/// not what the store holds.
fn check(seed: u64) -> tempagg_core::Result<bool> {
    let mut measured = Vec::new();
    for n in [4_096, 65_536] {
        let lifespan = LIFESPAN * n as i64 / 65_536;
        let mut rng = Rng(seed);
        let relation = w_shaped(n, lifespan, &mut rng)?;
        let mut store = warm_store(&relation, lifespan, Warm::ALL)?;
        let cost = time_writes(&mut store, lifespan, &mut rng)?;
        println!(
            "n = {n:>6} over {lifespan:>7} instants: insert {:.4} ms, update {:.4} ms, delete {:.4} ms over {} runs",
            ms(cost.insert),
            ms(cost.update),
            ms(cost.delete),
            cost.runs
        );
        measured.push(cost);
    }
    let ratio = measured[1].insert.as_secs_f64() / measured[0].insert.as_secs_f64();
    let grew = measured[1].runs as f64 / measured[0].runs as f64;
    let ok = ratio < 4.0;
    println!(
        "insert grew {ratio:.2}x while the runs grew {grew:.1}x: {}",
        if ok { "ok (< 4x)" } else { "FAILED (>= 4x)" }
    );
    Ok(ok)
}

fn main() -> tempagg_core::Result<()> {
    if std::env::args().any(|arg| arg == "--check") {
        if !check(1995)? {
            std::process::exit(1);
        }
        return Ok(());
    }
    report(65_536, 1995)
}
