//! What one served result row costs — the measurement behind "allocation-
//! free result rows" and "a served SELECT hands back a cursor" (DESIGN.md
//! §17, EXPERIMENTS.md).
//!
//! A table shaped like the end-to-end benchmark's `P` (n = 262,144 random-
//! order tuples, 10 % long-lived, seed 1995) gets warm `COUNT(*)` and
//! `SUM` caches from a first `SELECT`; then the same statement is served
//! from their snapshots eleven times, and each time the caller does what
//! a client does with a result: reads every row (an FNV fold over
//! `&result.rows`) and drops it. Printed: the median of each phase in ms
//! and ns/row — `serve` is `execute_str` (pin the snapshots, check that
//! they agree, count the rows), `read` is where a served row is built —
//! and what a row occupies: `size_of::<ResultRow>()` plus the heap a row
//! spills when its select list is wider than `ROW_INLINE_WIDTH`. A second
//! statement, one aggregate wider than the inline width, shows the spill.
//!
//! The benchmark runs under `MALLOC_MMAP_THRESHOLD_=33554432
//! MALLOC_TRIM_THRESHOLD_=4294967296 MALLOC_TOP_PAD_=67108864` (see
//! `bench/run.sh`); export the same to reproduce its `cached_select`.
//!
//! Run with: `cargo run --release --example serve_rows`
//!
//! `-- --check` measures the two-aggregate statement only and fails unless
//! `serve` is under 40 % of serve + read + drop: the engine hands back the
//! pinned series and the rows are built under the reader (≈ 10–20 %); an
//! engine that collects every row into a buffer first reads ≈ 70 %. A
//! ratio within one process, so the speed of the host cancels.

use std::time::{Duration, Instant};
use temporal_aggregates::core::ROW_INLINE_WIDTH;
use temporal_aggregates::workload::{generate, WorkloadConfig};
use temporal_aggregates::{execute_str, Catalog, ResultRow, ResultRows, Value};

fn fold(rows: &ResultRows) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
    for row in rows {
        eat(row.valid.start().get() as u64);
        eat(row.valid.end().get() as u64);
        for value in &row.values {
            match value {
                Value::Int(i) => eat(*i as u64),
                Value::Float(f) => eat(f.to_bits()),
                _ => eat(0),
            }
        }
    }
    h
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

/// Median serve / read / drop of `sql`, served from warm caches.
fn measure(catalog: &Catalog, sql: &str) -> tempagg_core::Result<[Duration; 3]> {
    let warmed = execute_str(catalog, sql)?; // scans, and warms the caches
    let (rows, width) = (warmed.rows.len(), warmed.agg_labels.len());
    let checksum = fold(&warmed.rows);
    drop(warmed);

    let (mut exec, mut read, mut free) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..11 {
        let started = Instant::now();
        let result = execute_str(catalog, sql)?;
        exec.push(started.elapsed());
        assert!(result.cache.served_from_cache);
        let started = Instant::now();
        assert_eq!(fold(&result.rows), checksum, "served rows == scanned rows");
        read.push(started.elapsed());
        let started = Instant::now();
        drop(result);
        free.push(started.elapsed());
    }

    let spilled = if width > ROW_INLINE_WIDTH {
        width * std::mem::size_of::<Value>()
    } else {
        0
    };
    println!("{sql}");
    println!(
        "  {rows} rows × {width} values; a row is {} B inline + {spilled} B spilled",
        std::mem::size_of::<ResultRow>()
    );
    let phases = [median(exec), median(read), median(free)];
    for (phase, t) in ["serve", "read", "drop"].into_iter().zip(phases) {
        println!(
            "  {phase:<6}{:>9.3} ms {:>7.1} ns/row",
            t.as_secs_f64() * 1e3,
            t.as_nanos() as f64 / rows as f64
        );
    }
    let total: Duration = phases.iter().sum();
    println!(
        "  total {:>9.3} ms {:>7.1} ns/row",
        total.as_secs_f64() * 1e3,
        total.as_nanos() as f64 / rows as f64
    );
    Ok(phases)
}

fn main() -> tempagg_core::Result<()> {
    let relation = generate(
        &WorkloadConfig::random(262_144)
            .with_long_lived_pct(10)
            .with_seed(1995),
    );
    let mut catalog = Catalog::new();
    catalog.register("P", relation);
    println!("ROW_INLINE_WIDTH = {ROW_INLINE_WIDTH}");
    let [serve, read, free] = measure(&catalog, "SELECT COUNT(*), SUM(salary) FROM P")?;
    if std::env::args().any(|arg| arg == "--check") {
        let share = serve.as_secs_f64() / (serve + read + free).as_secs_f64();
        let ok = share < 0.40;
        println!(
            "serve is {:.0} % of serve + read + drop: {}",
            share * 100.0,
            if ok {
                "ok (< 40 %)"
            } else {
                "FAILED (>= 40 %)"
            }
        );
        if !ok {
            std::process::exit(1);
        }
        return Ok(());
    }
    measure(
        &catalog,
        "SELECT COUNT(*), COUNT(salary), SUM(salary) FROM P",
    )?;
    Ok(())
}
