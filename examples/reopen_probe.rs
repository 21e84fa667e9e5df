//! What a reopened store pays before its first `OVER` answer — the
//! measurement behind "persist data, rebuild indexes" (DESIGN.md §16).
//!
//! A store of n = 131,072 sorted tuples (10 % long-lived, seed 1995) with
//! warm `COUNT(*)` and `SUM` caches *and a warm `SUM` window index* is
//! persisted; then, seven times over, the file is opened and the index
//! probed. Printed: the file's size, the flush, `TemporalStore::open`,
//! open + first probe (and whether that probe found an index or built
//! one), and a second probe. Public APIs only, so the same file runs
//! against any earlier commit: builds that wrote the index into the footer
//! report a first-probe *hit*, this one a *miss* that rebuilds the index
//! from the restored series.
//!
//! Also printed, and all that `-- --check` measures:
//!
//! * `PagedReader::open` of that file beside the same relation persisted
//!   with no series at all. `open` reads the header, the schema and the
//!   directory; a series block is read when its series is asked for
//!   (DESIGN.md §15), so the two cost about the same. The check fails
//!   unless the file with both series opens within 4× of the bare one
//!   (≈ 245× when `open` decoded every series it found) and the reopened
//!   store's series equal the originals.
//! * `TemporalStore::open` beside `PagedReader::open` of the same file,
//!   best of 7 each, alternated. A store leaves its rows on the file's
//!   pages, so the check fails unless it opens within 4× of the reader
//!   (≈ 1,000–1,300× when `open` read every row into memory).
//! * One full-lifespan `SELECT SUM(salary) … WHERE VALID OVERLAPS` scan over
//!   the reopened store — page by page, projected to `salary` — beside the
//!   same statement over the resident store, best of 7 each, alternated. The
//!   window only keeps the statement a scan on both sides: without it the
//!   reopened store serves the file's `SUM` series and the resident one its
//!   cache. The rows must be equal; the ratio is printed, not gated.
//! * Eight write-through flushes of 64 rows arriving in time order into a
//!   store shaped like `bench/`'s `paged_cycle` table: n = 131,072 sorted
//!   tuples starting before instant 900,000 in a lifespan to 999,999 (10 %
//!   long-lived), `COUNT(*)` and `SUM` warm, each flush's arrivals
//!   starting in the next 100 instants. Each flush appends to the file's delta
//!   (DESIGN.md §15, "Appends"); the check fails unless every one writes at
//!   most 2 % of the bytes a full rewrite of the same store writes. The
//!   flushes' median time is printed beside it.
//!
//! Run with: `cargo run --release --example reopen_probe`

use std::time::{Duration, Instant};
use temporal_aggregates::core::pager::{self, PagedReader, PagedWriteOptions};
use temporal_aggregates::prelude::*;
use temporal_aggregates::workload::{generate, WorkloadConfig};
use temporal_aggregates::{AggKind, DynAggregate, ValueType};

fn min_of<T>(reps: usize, mut f: impl FnMut() -> tempagg_core::Result<T>) -> tempagg_core::Result<T>
where
    T: PartialOrd,
{
    let mut best = f()?;
    for _ in 1..reps {
        let next = f()?;
        if next < best {
            best = next;
        }
    }
    Ok(best)
}

/// The best of `reps` timings of `a` and of `b`, run alternately so both
/// see the same machine.
fn alternated<A, B>(
    reps: usize,
    mut a: impl FnMut() -> tempagg_core::Result<A>,
    mut b: impl FnMut() -> tempagg_core::Result<B>,
) -> tempagg_core::Result<(Duration, Duration)> {
    let (mut best_a, mut best_b) = (Duration::MAX, Duration::MAX);
    for _ in 0..reps {
        let started = Instant::now();
        drop(a()?);
        best_a = best_a.min(started.elapsed());
        let started = Instant::now();
        drop(b()?);
        best_b = best_b.min(started.elapsed());
    }
    Ok((best_a, best_b))
}

fn main() -> tempagg_core::Result<()> {
    let n = 131_072;
    let relation = generate(
        &WorkloadConfig::sorted(n)
            .with_long_lived_pct(10)
            .with_seed(1995),
    );
    let salary = relation.schema().index_of("salary")?;
    let window = Interval::at(450_000, 549_999);
    let mut path = std::env::temp_dir();
    path.push(format!("tempagg-reopen-probe-{}.tapg", std::process::id()));

    let mut store = TemporalStore::new(relation);
    store.ensure_cache(DynAggregate::new(AggKind::CountStar, ValueType::Int)?, None)?;
    store.ensure_cache(
        DynAggregate::new(AggKind::Sum, ValueType::Int)?,
        Some(salary),
    )?;
    let want = store.window_probe(AggKind::Sum, Some(salary), window)?;

    let mut file_bytes = 0;
    let flush = min_of(5, || {
        let started = Instant::now();
        file_bytes = store.persist_to(&path)?.file_bytes;
        Ok(started.elapsed())
    })?;
    println!(
        "file                     {file_bytes} B  ({:.1} B/tuple)",
        file_bytes as f64 / n as f64
    );
    println!("store.flush              {flush:>10.3?}");

    let bare_path = path.with_extension("bare.tapg");
    pager::write_relation(store.relation(), &bare_path, &PagedWriteOptions::default())?;
    let open_of = |path: &std::path::Path| {
        min_of(7, || {
            let started = Instant::now();
            let reader = PagedReader::open(path)?;
            let elapsed = started.elapsed();
            drop(reader);
            Ok(elapsed)
        })
    };
    let with_series = open_of(&path)?;
    let bare = open_of(&bare_path)?;
    pager::remove_file(&bare_path)?;
    let ratio = with_series.as_secs_f64() / bare.as_secs_f64();
    println!("PagedReader::open        {with_series:>10.3?}  (no series stored: {bare:.3?}, {ratio:.1}x)");

    let (store_open, reader_open) = alternated(
        7,
        || TemporalStore::open(&path),
        || PagedReader::open(&path),
    )?;
    let open_ratio = store_open.as_secs_f64() / reader_open.as_secs_f64();
    println!(
        "TemporalStore::open      {store_open:>10.3?}  ({open_ratio:.1}x PagedReader::open of the same file, {reader_open:.3?})"
    );

    let sql = "SELECT SUM(salary) FROM F WHERE VALID OVERLAPS [0, FOREVER]";
    let (mut paged, mut resident) = (Catalog::new(), Catalog::new());
    paged.register_store("F", TemporalStore::open(&path)?);
    resident.register_store("F", store.clone());
    let (paged_scan, resident_scan) = alternated(
        7,
        || execute_str(&paged, sql),
        || execute_str(&resident, sql),
    )?;
    let scan_ratio = paged_scan.as_secs_f64() / resident_scan.as_secs_f64();
    // A scan that still reads pages after the seven timed ones: no scan
    // read the rows into memory.
    let pages_read = || {
        paged
            .store("F")
            .ok()
            .and_then(TemporalStore::base)
            .map(|base| base.metrics().pages_read)
    };
    let before = pages_read();
    let same_rows = execute_str(&paged, sql)?.rows == execute_str(&resident, sql)?.rows;
    let off_the_pages = matches!((before, pages_read()), (Some(a), Some(b)) if b > a);
    println!(
        "SUM(salary) scan         {paged_scan:>10.3?}  over the reopened store's pages, \
         {resident_scan:.3?} over the resident store ({scan_ratio:.2}x, rows {})",
        if same_rows { "equal" } else { "DIFFER" }
    );

    let (flush_ms, flush_share) = arrivals_flush(n, &path.with_extension("arrivals.tapg"))?;
    println!(
        "append flush             {flush_ms:>9.2} ms  (median of 8 in-order 64-row flushes, \
         at most {:.2} % of a rewrite's bytes)",
        100.0 * flush_share
    );

    if std::env::args().any(|arg| arg == "--check") {
        let reopened = TemporalStore::open(&path)?;
        let same = [(AggKind::CountStar, None), (AggKind::Sum, Some(salary))]
            .into_iter()
            .all(|(kind, column)| {
                reopened.snapshot(kind, column).as_deref()
                    == store.snapshot(kind, column).as_deref()
            });
        pager::remove_file(&path)?;
        let appends = flush_share <= 0.02;
        let ok = ratio < 4.0 && same && open_ratio <= 4.0 && same_rows && off_the_pages && appends;
        println!(
            "open with two series stored is {ratio:.1}x the open with none, reopened series {}, \
             TemporalStore::open is {open_ratio:.1}x PagedReader::open, scans {}, an in-order \
             flush writes {:.2} % of a rewrite: {}",
            if same { "equal" } else { "DIFFER" },
            if same_rows && off_the_pages {
                "equal off the pages"
            } else {
                "DIFFER, or did not read the pages"
            },
            100.0 * flush_share,
            if ok {
                "ok (< 4x, <= 4x, <= 2 %)"
            } else {
                "FAILED"
            }
        );
        if !ok {
            std::process::exit(1);
        }
        return Ok(());
    }

    let mut first_probe_hit = false;
    // Tuples order by their first field: the best of seven by the figure
    // this example exists for.
    let (open_and_probe, open, second_probe) = min_of(7, || {
        let started = Instant::now();
        let reopened = TemporalStore::open(&path)?;
        let open = started.elapsed();
        let got = reopened.window_probe(AggKind::Sum, Some(salary), window)?;
        let open_and_probe = started.elapsed();
        assert_eq!(got, want, "the reopened store answers as the live one did");
        first_probe_hit = reopened.windex_stats().hits == 1;
        let again = Instant::now();
        reopened.window_probe(AggKind::Sum, Some(salary), window)?;
        Ok((open_and_probe, open, again.elapsed()))
    })?;
    println!("TemporalStore::open      {open:>10.3?}");
    println!(
        "open + first SUM probe   {open_and_probe:>10.3?}  (the probe was a {})",
        if first_probe_hit {
            "hit: index decoded from the footer"
        } else {
            "miss: index rebuilt from the restored series"
        }
    );
    println!("second probe             {second_probe:>10.3?}");
    pager::remove_file(&path)?;
    Ok(())
}

/// Eight flushes of 64 in-order arrivals into a `paged_cycle`-shaped store
/// of `n` tuples persisted at `path`: their median time in ms, and the
/// largest share of a full rewrite's bytes one of them wrote.
fn arrivals_flush(n: usize, path: &std::path::Path) -> tempagg_core::Result<(f64, f64)> {
    // Starts uniform over [0, 1,000,000): the first n before 900,000.
    let history = generate(
        &WorkloadConfig::sorted(n + n / 8)
            .with_long_lived_pct(10)
            .with_seed(1995),
    );
    let mut relation = TemporalRelation::new(history.schema().clone());
    relation.push(
        vec![Value::from("edge"), Value::Int(1)],
        Interval::at(0, 999_999),
    )?;
    let early = history.iter().filter(|t| t.valid().start().get() < 900_000);
    for tuple in early.take(n - 1) {
        relation.push_tuple(tuple.clone())?;
    }
    let mut store = TemporalStore::new(relation);
    store.ensure_cache(DynAggregate::new(AggKind::CountStar, ValueType::Int)?, None)?;
    store.ensure_cache(DynAggregate::new(AggKind::Sum, ValueType::Int)?, Some(1))?;
    store.persist_to(path)?;
    let rewrite_path = path.with_extension("rewrite.tapg");
    let (mut times, mut share) = (Vec::new(), 0.0f64);
    for round in 0..8i64 {
        let lo = 900_000 + 100 * round;
        let mut rows: Vec<Interval> = (0..64)
            .map(|i| Interval::at(lo + (i * 37) % 100, lo + (i * 37) % 100 + (i * 131) % 1000))
            .collect();
        rows.sort_by_key(|valid| (valid.start(), valid.end()));
        for valid in rows {
            store.insert(vec![Value::from("late"), Value::Int(50_000)], valid)?;
        }
        let started = Instant::now();
        let appended = store.flush()?;
        times.push(started.elapsed().as_secs_f64() * 1e3);
        let rewrite = store.clone().persist_to(&rewrite_path)?;
        let written = appended.map_or(rewrite.bytes_written, |stats| stats.bytes_written);
        share = share.max(written as f64 / rewrite.bytes_written as f64);
    }
    pager::remove_file(&rewrite_path)?;
    pager::remove_file(path)?;
    times.sort_by(f64::total_cmp);
    Ok(((times[3] + times[4]) / 2.0, share))
}
