//! What one served result row costs — the measurement behind "allocation-
//! free result rows" and "a served SELECT hands back a cursor" (DESIGN.md
//! §17, EXPERIMENTS.md).
//!
//! A table shaped like the end-to-end benchmark's `P` (n = 262,144 random-
//! order tuples, 10 % long-lived, seed 1995) gets warm `COUNT(*)` and
//! `SUM` caches from a first `SELECT`; then the same statement is served
//! from their views eleven times, and each time the caller does what a
//! client does with a result: reads every row (an FNV fold over
//! `&result.rows`) and drops it. Printed: the median of each phase in ms
//! and ns/row — `serve` is `execute_str` (pin the views, check that they
//! agree, count the rows), `read` is where a served row is built — and
//! what a row occupies: `size_of::<ResultRow>()` plus the heap a row
//! spills when its select list is wider than `ROW_INLINE_WIDTH`.
//!
//! The *fresh* arm runs the same statement right after an untimed one-row
//! `INSERT`, as the first reader after a write: its `serve` also publishes
//! a version of each series — one `Arc` clone per chunk of 256 runs, where
//! an engine that copies the runs pays ≈ 4× the warm `serve` here. It
//! prints how many chunks the writes copied (0: no reader held a version
//! when they patched). A last statement, one aggregate wider than the
//! inline width, shows the spill.
//!
//! The benchmark runs under `MALLOC_MMAP_THRESHOLD_=33554432
//! MALLOC_TRIM_THRESHOLD_=4294967296 MALLOC_TOP_PAD_=67108864` (see
//! `bench/run.sh`); export the same to reproduce its `cached_select`.
//!
//! Run with: `cargo run --release --example serve_rows`
//!
//! `-- --check` measures the two-aggregate statement only, warm and fresh,
//! and fails unless the warm `serve` is under 40 % of serve + read + drop
//! (the engine hands back the pinned series and the rows are built under
//! the reader, ≈ 10–20 %; an engine that collects every row into a buffer
//! first reads ≈ 70 %) and the fresh `serve` is within 1.5× of the warm
//! one (≈ 1.0–1.1×; ≈ 3.9× while publishing copied every run). Ratios
//! within one process, so the speed of the host cancels.

use std::hint::black_box;
use std::time::{Duration, Instant};
use temporal_aggregates::core::ROW_INLINE_WIDTH;
use temporal_aggregates::workload::{generate, WorkloadConfig};
use temporal_aggregates::{execute_statement, execute_str, Catalog, ResultRow, ResultRows, Value};

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

/// Copies the store's writes made of chunks a reader held.
fn copied_chunks(catalog: &Catalog) -> tempagg_core::Result<u64> {
    Ok(catalog.store("P")?.cache_stats().copied_chunks)
}

/// Median serve / read / drop of `sql`, served from warm caches — or, when
/// `fresh`, each time right after an untimed one-row `INSERT`.
fn measure(catalog: &mut Catalog, sql: &str, fresh: bool) -> tempagg_core::Result<[Duration; 3]> {
    let warmed = execute_str(catalog, sql)?; // scans, and warms the caches
    let (rows, width) = (warmed.rows.len(), warmed.agg_labels.len());
    let checksum = fold(&warmed.rows);
    drop(warmed);

    let copied = copied_chunks(catalog)?;
    let (mut exec, mut read, mut free) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..11 {
        if fresh {
            let start = 7_919 * (i + 1);
            let insert = format!(
                "INSERT INTO P VALUES ('fresh', {i}) VALID [{start}, {}]",
                start + 500
            );
            execute_statement(catalog, &insert)?;
        }
        let started = Instant::now();
        let result = execute_str(catalog, sql)?;
        exec.push(started.elapsed());
        assert!(result.cache.served_from_cache);
        let started = Instant::now();
        let folded = black_box(fold(&result.rows));
        read.push(started.elapsed());
        // A fresh result answers a relation no scan above has seen.
        assert!(fresh || folded == checksum, "served rows == scanned rows");
        let started = Instant::now();
        drop(result);
        free.push(started.elapsed());
    }

    let spilled = if width > ROW_INLINE_WIDTH {
        width * std::mem::size_of::<Value>()
    } else {
        0
    };
    println!(
        "{sql}{}",
        if fresh {
            "  (fresh: after a one-row INSERT)"
        } else {
            ""
        }
    );
    println!(
        "  {rows} rows × {width} values; a row is {} B inline + {spilled} B spilled",
        std::mem::size_of::<ResultRow>()
    );
    if fresh {
        println!(
            "  chunks the writes copied: {}",
            copied_chunks(catalog)? - copied
        );
    }
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
    let sql = "SELECT COUNT(*), SUM(salary) FROM P";
    let [serve, read, free] = measure(&mut catalog, sql, false)?;
    let [fresh, ..] = measure(&mut catalog, sql, true)?;
    if std::env::args().any(|arg| arg == "--check") {
        let share = serve.as_secs_f64() / (serve + read + free).as_secs_f64();
        let ratio = fresh.as_secs_f64() / serve.as_secs_f64();
        let served_ok = share < 0.40;
        let fresh_ok = ratio <= 1.5;
        let verdict = |ok: bool, bound: &str| {
            if ok {
                format!("ok ({bound})")
            } else {
                format!("FAILED (not {bound})")
            }
        };
        println!(
            "serve is {:.0} % of serve + read + drop: {}",
            share * 100.0,
            verdict(served_ok, "< 40 %")
        );
        println!(
            "a fresh serve is {ratio:.2}x the warm one: {}",
            verdict(fresh_ok, "<= 1.5x")
        );
        if !(served_ok && fresh_ok) {
            std::process::exit(1);
        }
        return Ok(());
    }
    measure(
        &mut catalog,
        "SELECT COUNT(*), COUNT(salary), SUM(salary) FROM P",
        false,
    )?;
    Ok(())
}
