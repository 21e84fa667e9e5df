//! End-to-end contract of the out-of-core paged storage layer:
//!
//! * paged scans are *byte-identical* to in-RAM evaluation across every
//!   sweepable aggregate, input shape, and partition count;
//! * fence pruning is conservative — it never skips a page holding a
//!   tuple that overlaps the query window;
//! * corrupt files (truncations, bit flips) surface as [`TempAggError`]s,
//!   never panics — with or without `--features validate` — at `open` where
//!   they land in what `open` reads, at the first use of the page or series
//!   block they land in otherwise, and a bad series block costs a rebuild,
//!   not an answer;
//! * `open` reads no series block, a reopened store decodes only the series
//!   it is asked for, and none of that shows through SQL;
//! * files version 1 and version 2 writers produced still open, and are
//!   version 3 after one flush;
//! * a sorted file's overflow lane of long-lived tuples is invisible to
//!   every reader, costs a window only the pages it needs, and sits under
//!   checksums like the rest;
//! * the README's persistence walkthrough works exactly as printed, and
//!   `CREATE TABLE … PERSIST TO` survives a process boundary (modelled as
//!   a fresh [`Catalog`]).
//!
//! Randomized cases come from the workspace's deterministic [`StdRng`],
//! seeded per test.

use std::path::{Path, PathBuf};
use tempagg_agg::SweepAggregate;
use temporal_aggregates::algo::{
    feed, page_seams, PartitionedAggregator, SweepAggregator, TemporalAggregator,
};
use temporal_aggregates::core::pager::format::{
    encode_entries, encode_fences, encode_page, encode_schema, fnv1a64, plan_pages,
};
use temporal_aggregates::core::pager::{
    self, Checksum, PageCursor, PageFence, PagedReader, PagedWriteOptions, PersistedSeries,
    TupleSource,
};
use temporal_aggregates::prelude::*;
use temporal_aggregates::sql::{execute_statement, Path as SqlPath};
use temporal_aggregates::workload::rng::StdRng;
use temporal_aggregates::workload::{generate, WorkloadConfig};
use temporal_aggregates::{
    AggKind, DynAggregate, ResultRow, Schema, TempAggError, ValueType, DEFAULT_CHUNK_CAPACITY,
};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tempagg-paged-it-{}-{name}", std::process::id()));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = pager::remove_file(&self.0);
    }
}

/// Write `relation` with a small page size so even modest inputs span
/// many pages, and reopen it.
fn written(relation: &TemporalRelation, name: &str) -> (Cleanup, PagedReader) {
    let path = temp_path(name);
    pager::write_relation(
        relation,
        &path,
        &PagedWriteOptions {
            page_size: 512,
            caches: Vec::new(),
        },
    )
    .unwrap();
    let reader = PagedReader::open(&path).unwrap();
    (Cleanup(path), reader)
}

/// The three input shapes of the identity matrix.
fn shapes(n: usize) -> Vec<(&'static str, TemporalRelation)> {
    vec![
        ("sorted", generate(&WorkloadConfig::sorted(n).with_seed(3))),
        ("random", generate(&WorkloadConfig::random(n).with_seed(4))),
        (
            "long-lived",
            generate(
                &WorkloadConfig::random(n)
                    .with_seed(5)
                    .with_long_lived_pct(80),
            ),
        ),
    ]
}

/// In-RAM oracle: a serial sweep over window-clipped `(interval, value)`
/// pairs.
fn ram_sweep<A, V>(
    agg: A,
    window: Interval,
    items: impl Iterator<Item = (Interval, V)>,
) -> Series<A::Output>
where
    A: SweepAggregate<Input = V>,
    V: Clone + Send,
{
    let mut sweep = SweepAggregator::with_domain(agg, window);
    for (interval, value) in items {
        if let Some(clipped) = interval.intersect(&window) {
            sweep.push(clipped, value).unwrap();
        }
    }
    sweep.finish()
}

/// Cut `window` at `reader`'s page seams, feed the fence-pruned pages
/// through `source` into one sweep per partition, and finish.
fn paged_sweep<'r, A, S>(
    reader: &'r PagedReader,
    window: Interval,
    partitions: usize,
    agg: A,
    source: impl FnOnce(PageCursor<'r>) -> S,
) -> Series<A::Output>
where
    A: SweepAggregate + Clone + Send,
    A::Input: Clone + Send + Sync,
    A::Output: PartialEq + Send,
    S: TupleSource<A::Input>,
{
    let seams = page_seams(reader.main_lane(), window, partitions);
    let mut parts = PartitionedAggregator::with_seams(window, seams, |sub| {
        SweepAggregator::with_domain(agg.clone(), sub)
    })
    .unwrap();
    feed(&mut parts, &mut source(PageCursor::new(reader, window))).unwrap();
    parts.finish()
}

/// One cell of the matrix for a column-valued aggregate over `salary`
/// (column 1 of the workload schema).
fn assert_int_identity<A>(
    reader: &PagedReader,
    relation: &TemporalRelation,
    window: Interval,
    partitions: usize,
    agg: A,
    label: &str,
) where
    A: SweepAggregate<Input = i64> + Clone + Send,
    A::Output: PartialEq + std::fmt::Debug + Send,
{
    let paged = paged_sweep(reader, window, partitions, agg.clone(), |cursor| {
        cursor.int_column(1)
    });
    let oracle = ram_sweep(
        agg,
        window,
        relation
            .iter()
            .map(|t| (t.valid(), t.value(1).as_i64().unwrap())),
    );
    assert_eq!(paged, oracle, "{label} (P = {partitions})");
}

/// Tentpole acceptance: every sweepable aggregate × input shape ×
/// partition count produces output byte-identical to the all-in-RAM
/// sweep, both over the full lifespan and over a narrow interior window.
#[test]
fn paged_matches_ram_for_all_aggregates_shapes_and_partitions() {
    for (shape, relation) in shapes(2_000) {
        let (_cleanup, reader) = written(&relation, &format!("matrix-{shape}.tapg"));
        let lifespan = reader.lifespan().unwrap();
        let narrow = {
            let span = lifespan.duration();
            let start = lifespan.start().get() + span * 2 / 5;
            Interval::new(start, start + span / 10).unwrap()
        };
        for window in [lifespan, narrow] {
            for partitions in [1usize, 2, 8] {
                let label = format!("{shape} over {window}");
                // COUNT(*) — unit input through `PageCursor::units`.
                let paged = paged_sweep(&reader, window, partitions, Count, PageCursor::units);
                let oracle = ram_sweep(Count, window, relation.intervals().map(|iv| (iv, ())));
                assert_eq!(paged, oracle, "COUNT {label} (P = {partitions})");

                // The four column aggregates over `salary`.
                assert_int_identity(
                    &reader,
                    &relation,
                    window,
                    partitions,
                    Sum::<i64>::new(),
                    &format!("SUM {label}"),
                );
                assert_int_identity(
                    &reader,
                    &relation,
                    window,
                    partitions,
                    Min::<i64>::new(),
                    &format!("MIN {label}"),
                );
                assert_int_identity(
                    &reader,
                    &relation,
                    window,
                    partitions,
                    Max::<i64>::new(),
                    &format!("MAX {label}"),
                );
                assert_int_identity(
                    &reader,
                    &relation,
                    window,
                    partitions,
                    Avg::<i64>::new(),
                    &format!("AVG {label}"),
                );
            }
        }
    }
}

/// Fence pruning is *conservative*: for randomized windows, every page
/// that actually stores a tuple overlapping the window must survive
/// pruning. (Completeness — pruned scans equal full scans — rides along.)
#[test]
fn fence_pruning_never_skips_a_qualifying_page() {
    let relation = generate(&WorkloadConfig::random(3_000).with_seed(9));
    let (_cleanup, reader) = written(&relation, "prune-oracle.tapg");
    let lifespan = reader.lifespan().unwrap();
    assert!(reader.page_count() > 8, "need many pages for a real test");

    let mut rng = StdRng::seed_from_u64(0xFE2CE);
    for case in 0..64 {
        let a = rng.random_range(lifespan.start().get()..=lifespan.end().get());
        let b = rng.random_range(lifespan.start().get()..=lifespan.end().get());
        let window = Interval::new(a.min(b), a.max(b)).unwrap();
        let kept = reader.pages_overlapping(&window);

        for index in 0..reader.page_count() {
            let page = reader.read_page(index, Some(&[])).unwrap();
            let qualifies = page
                .intervals
                .iter()
                .any(|iv| iv.intersect(&window).is_some());
            if qualifies {
                assert!(
                    kept.contains(&index),
                    "case {case}: page {index} holds a tuple overlapping {window} but was pruned"
                );
            }
        }

        // And the pruned scan's output equals the forced full scan's.
        let drain = |mut cursor_source: pager::UnitSource<'_>| {
            let mut chunk: Chunk<()> = Chunk::with_capacity(DEFAULT_CHUNK_CAPACITY);
            let mut out = Vec::new();
            while cursor_source.next_chunk(&mut chunk).unwrap() {
                out.extend(chunk.iter().map(|(iv, _)| iv));
                chunk.clear();
            }
            out
        };
        let pruned = drain(PageCursor::new(&reader, window).units());
        let full = drain(PageCursor::full_scan(&reader, window).units());
        assert_eq!(pruned, full, "case {case}: pruning changed the scan output");
    }
}

/// Every mutation of a valid file must yield `TempAggError`s (or a clean
/// read), never a panic — the corruption matrix. Runs identically under
/// `--features validate`.
#[test]
fn corrupt_files_error_instead_of_panicking() {
    let relation = generate(&WorkloadConfig::random(400).with_seed(13));
    let path = temp_path("corrupt-src.tapg");
    let _cleanup = Cleanup(path.clone());
    pager::write_relation(&relation, &path, &PagedWriteOptions::default()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let mutant_path = temp_path("corrupt-mut.tapg");
    let _mutant_cleanup = Cleanup(mutant_path.clone());

    // Exercise the full read surface; any Err is acceptable, panics are not.
    // A store that opens runs one scan — off the pages, then reading the
    // rows into memory to warm the caches it computed — and one `INSERT`.
    let exercise = |path: &std::path::Path| {
        let reader = match PagedReader::open(path) {
            Ok(reader) => reader,
            Err(_) => return,
        };
        for index in 0..reader.page_count() {
            let _ = reader.read_page(index, None);
        }
        let _ = reader.read_relation();
        if let Ok(store) = TemporalStore::open(path) {
            let mut catalog = Catalog::new();
            catalog.register_store("t", store);
            let _ = execute_str(&catalog, SERIES_SQL);
            let _ = execute_statement(&mut catalog, LATE_INSERT);
        }
    };

    // Truncations: empty, mid-header, header-only, mid-page, one byte short.
    for cut in [0usize, 7, 63, 64, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&mutant_path, &bytes[..cut]).unwrap();
        exercise(&mutant_path);
        assert!(
            PagedReader::open(&mutant_path)
                .and_then(|r| r.read_relation())
                .is_err(),
            "truncation to {cut} bytes must not read back cleanly"
        );
    }

    // Single bit flips swept across the file, plus a garbage magic.
    let stride = (bytes.len() / 64).max(1);
    for offset in (0..bytes.len()).step_by(stride) {
        let mut mutant = bytes.clone();
        mutant[offset] ^= 0x40;
        std::fs::write(&mutant_path, &mutant).unwrap();
        exercise(&mutant_path);
    }
    std::fs::write(&mutant_path, b"definitely not a paged file").unwrap();
    assert!(matches!(
        PagedReader::open(&mutant_path),
        Err(TempAggError::Storage { .. })
    ));
}

const SERIES_SQL: &str = "SELECT COUNT(*), SUM(salary) FROM t";
const LATE_INSERT: &str = "INSERT INTO t VALUES ('late', 5000) VALID [250000, 350000]";

/// The `COUNT(*)` and `SUM(salary)` series of `relation`, as a flush hands
/// them to the writer.
fn count_and_sum(relation: &TemporalRelation) -> Vec<PersistedSeries> {
    let store = TemporalStore::new(relation.clone());
    [(AggKind::CountStar, None), (AggKind::Sum, Some(1))]
        .into_iter()
        .map(|(kind, column)| {
            let agg = DynAggregate::new(kind, ValueType::Int).unwrap();
            PersistedSeries {
                label: kind.name().to_string(),
                column: column.map(|c| c as u32),
                entries: store.snapshot_or_build(agg, column).entries().to_vec(),
            }
        })
        .collect()
}

/// The rows of [`SERIES_SQL`] over `store`.
fn series_rows(store: TemporalStore) -> Vec<ResultRow> {
    let mut catalog = Catalog::new();
    catalog.register_store("t", store);
    execute_str(&catalog, SERIES_SQL).unwrap().rows.to_vec()
}

/// `relation` as table `t`, in memory.
fn live_catalog(relation: &TemporalRelation) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register("t", relation.clone());
    catalog
}

fn is_storage<T: std::fmt::Debug>(result: &Result<T, TempAggError>) -> bool {
    matches!(result, Err(TempAggError::Storage { .. }))
}

/// The corruption matrix over a file that *has* series, section by section,
/// and with it the proof that `open` is lazy: a flipped bit in a series
/// block cannot fail an `open` that never read the block.
#[test]
fn corruption_is_caught_where_it_lands_and_a_bad_series_costs_a_rebuild() {
    let relation = generate(&WorkloadConfig::random(400).with_seed(13));
    let caches = count_and_sum(&relation);
    let path = temp_path("sections-src.tapg");
    let _cleanup = Cleanup(path.clone());
    let options = PagedWriteOptions {
        page_size: 2048,
        caches: caches.clone(),
    };
    let stats = pager::write_relation(&relation, &path, &options).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(stats.file_bytes, bytes.len() as u64);
    let want_rows = series_rows(TemporalStore::new(relation.clone()));
    let mutant_path = temp_path("sections-mut.tapg");
    let _mutant_cleanup = Cleanup(mutant_path.clone());

    // The layout, from the good file's own directory.
    let reader = PagedReader::open(&path).unwrap();
    let page_size = reader.page_size() as usize;
    let pages = reader.page_count();
    assert!(pages >= 4, "need several pages, got {pages}");
    let [count_block, sum_block] = reader.series_directory() else {
        panic!("two series were persisted");
    };
    let footer = count_block.offset as usize;
    let data = footer - pages * page_size;
    let directory = (sum_block.offset + sum_block.len) as usize;
    assert_eq!(sum_block.offset, count_block.offset + count_block.len);
    assert!(64 < data && footer < directory && directory < bytes.len());
    for (record, cache) in reader.series_directory().iter().zip(&caches) {
        assert_eq!(record.label, cache.label);
        assert_eq!(record.runs, cache.entries.len() as u64);
    }

    // Truncation to any length fails at `open`: every section boundary ± 1,
    // and every 61st length across the file.
    let mut cuts: Vec<usize> = (0..bytes.len()).step_by(61).collect();
    let boundaries = (0..=pages).map(|i| data + i * page_size).chain([
        64,
        sum_block.offset as usize,
        directory,
        bytes.len(),
    ]);
    for boundary in boundaries {
        cuts.extend([boundary - 1, boundary, boundary + 1]);
    }
    for cut in cuts.into_iter().filter(|cut| *cut < bytes.len()) {
        std::fs::write(&mutant_path, &bytes[..cut]).unwrap();
        let opened = PagedReader::open(&mutant_path);
        assert!(is_storage(&opened), "truncation to {cut}: {opened:?}");
    }
    // So does a file that grew.
    let mut grown = bytes.clone();
    grown.push(0);
    std::fs::write(&mutant_path, &grown).unwrap();
    assert!(is_storage(&PagedReader::open(&mutant_path)));

    let flipped = |offset: usize, bit: u8| {
        let mut mutant = bytes.clone();
        mutant[offset] ^= 1 << bit;
        std::fs::write(&mutant_path, &mutant).unwrap();
    };

    // Header, schema, directory: what `open` reads, `open` verifies.
    let read_at_open = (0..64)
        .step_by(3)
        .chain(64..data)
        .chain((directory..bytes.len()).step_by(7));
    for (i, offset) in read_at_open.enumerate() {
        flipped(offset, (i % 8) as u8);
        let opened = PagedReader::open(&mutant_path);
        assert!(is_storage(&opened), "flip at {offset}: {opened:?}");
        assert!(is_storage(&TemporalStore::open(&mutant_path)));
    }

    // A page: `open` succeeds, that page's read fails, every other reads.
    // A store opens too — its rows stay on the pages — and a served
    // `COUNT(*)` still answers off its intact block; the first statement
    // that needs the rows fails with the page's error and changes nothing.
    let want_count = execute_str(&live_catalog(&relation), "SELECT COUNT(*) FROM t").unwrap();
    for (i, offset) in (data..footer).step_by(409).enumerate() {
        flipped(offset, (i % 8) as u8);
        let reader = PagedReader::open(&mutant_path).unwrap();
        let hit = (offset - data) / page_size;
        for index in 0..pages {
            let read = reader.read_page(index, Some(&[]));
            assert_eq!(
                read.is_err(),
                index == hit,
                "flip at {offset}, page {index}"
            );
        }
        assert!(is_storage(&reader.read_page(hit, None)));
        assert!(is_storage(&reader.read_relation()));

        let mut catalog = Catalog::new();
        catalog.register_store("t", TemporalStore::open(&mutant_path).unwrap());
        let counted = execute_str(&catalog, "SELECT COUNT(*) FROM t").unwrap();
        assert!(counted.cache.served_from_cache, "flip at {offset}");
        assert_eq!(counted.rows, want_count.rows, "flip at {offset}");
        for sql in [
            "SELECT COUNT(*) FROM t WHERE salary > 0",
            "SELECT * FROM t",
            LATE_INSERT,
        ] {
            let failed = execute_statement(&mut catalog, sql);
            assert!(is_storage(&failed), "flip at {offset}: {sql}: {failed:?}");
        }
        let store = catalog.store("t").unwrap();
        assert!(!store.is_dirty() && store.base().is_some() && store.epoch().get() == 0);
    }

    // A series block: `open` succeeds — it never read the block — that
    // series alone fails to decode, and a store answers as if the block had
    // never been written, by rebuilding the one aggregate.
    for (i, offset) in (footer..directory).step_by(211).enumerate() {
        flipped(offset, (i % 8) as u8);
        let reader = PagedReader::open(&mutant_path).unwrap();
        let hit = usize::from(offset >= sum_block.offset as usize);
        assert!(is_storage(&reader.series(hit)), "flip at {offset}");
        assert_eq!(reader.series(1 - hit).unwrap(), caches[1 - hit].entries);
        assert_eq!(reader.read_relation().unwrap().tuples(), relation.tuples());

        let store = TemporalStore::open(&mutant_path).unwrap();
        assert_eq!(
            store.cache_stats().caches,
            0,
            "nothing decoded or built yet"
        );
        let mut catalog = Catalog::new();
        catalog.register_store("t", store);
        // `COUNT(*)` alone decodes `COUNT(*)` alone: a bad `SUM` block
        // goes unnoticed, because unread.
        let counted = execute_str(&catalog, "SELECT COUNT(*) FROM t").unwrap();
        assert!(counted.cache.served_from_cache);
        let stats = catalog.store("t").unwrap().cache_stats();
        assert_eq!(stats.caches, 1 - hit, "flip at {offset}");
        let answered = execute_str(&catalog, SERIES_SQL).unwrap();
        assert!(answered.cache.served_from_cache);
        assert_eq!(answered.rows, want_rows, "flip at {offset}");
        let stats = catalog.store("t").unwrap().cache_stats();
        assert_eq!(stats.caches, 1, "the bad block's aggregate was rebuilt");
    }
}

/// Every one of the 65,536 single-bit flips of an 8 KB page changes the
/// page's checksum: the lanes are bijections, so this is a certainty, not
/// a likelihood.
#[test]
fn every_single_bit_flip_of_a_page_changes_its_checksum() {
    let relation = generate(&WorkloadConfig::random(400).with_seed(13));
    let path = temp_path("flips.tapg");
    let _cleanup = Cleanup(path.clone());
    pager::write_relation(&relation, &path, &PagedWriteOptions::default()).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let reader = PagedReader::open(&path).unwrap();
    assert_eq!(reader.page_size(), 8192);
    // No series: the directory is the fences, a zero count, the file's
    // length and a checksum, and page 0 lies that far before the end.
    let directory = encode_fences(reader.fences()).len() + 4 + 16;
    let data = bytes.len() - directory - reader.page_count() * 8192;
    let mut page = bytes[data..][..8192].to_vec();
    let good = Checksum::of(&page);
    assert_eq!(good, reader.fences()[0].checksum);
    for bit in 0..8192 * 8 {
        page[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(Checksum::of(&page), good, "bit {bit}");
        page[bit / 8] ^= 1 << (bit % 8);
    }
}

/// The satellite fix: lengths the header claims are held against the file
/// before they size a buffer. Sixty-four bytes that claim a 4 GB schema.
#[test]
fn a_hostile_schema_length_is_refused_before_it_is_allocated() {
    let path = temp_path("hostile-schema.tapg");
    let _cleanup = Cleanup(path.clone());
    let mut header = Vec::new();
    header.extend_from_slice(b"TAGGPG01");
    header.extend_from_slice(&pager::FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&0u16.to_le_bytes()); // flags
    header.extend_from_slice(&8192u32.to_le_bytes()); // page size
    header.extend_from_slice(&2u32.to_le_bytes()); // columns
    header.extend_from_slice(&0u64.to_le_bytes()); // tuples
    header.extend_from_slice(&0u64.to_le_bytes()); // pages
    let pages_end = 64 + u64::from(u32::MAX);
    header.extend_from_slice(&pages_end.to_le_bytes()); // footer offset
    header.extend_from_slice(&u32::MAX.to_le_bytes()); // schema length
    header.extend_from_slice(&pages_end.to_le_bytes()); // directory offset
    header.extend_from_slice(&0u64.to_le_bytes()); // checksum: never reached
    assert_eq!(header.len(), 64);
    std::fs::write(&path, &header).unwrap();
    let err = PagedReader::open(&path).unwrap_err();
    assert!(matches!(err, TempAggError::Storage { .. }), "{err:?}");
    assert!(err.to_string().contains("truncated"), "{err}");
}

/// What the version 1 writer produced for `relation` and `caches`, from the
/// codec's own pieces: FNV-1a over header + schema, over each page, and
/// over one footer holding the fences and every series in full.
fn encode_v1(relation: &TemporalRelation, page_size: u32, caches: &[PersistedSeries]) -> Vec<u8> {
    let schema = relation.schema();
    let schema_block = encode_schema(schema).unwrap();
    let tuples = relation.tuples();
    let mut pages = Vec::new();
    let mut fences = Vec::new();
    for range in plan_pages(schema, tuples, page_size).unwrap() {
        let run = &tuples[range];
        let mut page = encode_page(schema, run).unwrap();
        page.resize(page_size as usize, 0);
        fences.push(PageFence {
            min_start: run.iter().map(|t| t.valid().start()).min().unwrap(),
            max_end: run.iter().map(|t| t.valid().end()).max().unwrap(),
            tuples: run.len() as u32,
            checksum: fnv1a64(&page),
        });
        pages.extend_from_slice(&page);
    }
    let sorted = tuples.windows(2).all(|w| {
        (w[0].valid().start(), w[0].valid().end()) <= (w[1].valid().start(), w[1].valid().end())
    });

    let mut file = Vec::new();
    file.extend_from_slice(b"TAGGPG01");
    file.extend_from_slice(&1u16.to_le_bytes());
    file.extend_from_slice(&u16::from(sorted).to_le_bytes());
    file.extend_from_slice(&page_size.to_le_bytes());
    file.extend_from_slice(&(schema.len() as u32).to_le_bytes());
    file.extend_from_slice(&(tuples.len() as u64).to_le_bytes());
    file.extend_from_slice(&(fences.len() as u64).to_le_bytes());
    let footer_offset = 64 + schema_block.len() + pages.len();
    file.extend_from_slice(&(footer_offset as u64).to_le_bytes());
    file.extend_from_slice(&(schema_block.len() as u32).to_le_bytes());
    file.extend_from_slice(&0u64.to_le_bytes()); // reserved
    let mut hashed = file.clone();
    hashed.extend_from_slice(&schema_block);
    file.extend_from_slice(&fnv1a64(&hashed).to_le_bytes());
    file.extend_from_slice(&schema_block);
    file.extend_from_slice(&pages);

    let mut footer = encode_fences(&fences);
    footer.extend_from_slice(&(caches.len() as u32).to_le_bytes());
    for cache in caches {
        footer.extend_from_slice(&(cache.label.len() as u16).to_le_bytes());
        footer.extend_from_slice(cache.label.as_bytes());
        footer.extend_from_slice(&cache.column.map_or(-1, i64::from).to_le_bytes());
        footer.extend_from_slice(&(cache.entries.len() as u64).to_le_bytes());
        encode_entries(&mut footer, &cache.entries).unwrap();
    }
    let checksum = fnv1a64(&footer);
    file.extend_from_slice(&footer);
    file.extend_from_slice(&checksum.to_le_bytes());
    file
}

fn version_of(path: &Path) -> u16 {
    let bytes = std::fs::read(path).unwrap();
    u16::from_le_bytes([bytes[8], bytes[9]])
}

/// Files written before version 2 still open — pages, fences and series
/// under their FNV-1a checksums — answer as they did, still refuse a
/// flipped bit, and are rewritten as version 2 by the store's next flush.
#[test]
fn version_1_files_open_answer_identically_and_flush_as_version_2() {
    let relation = generate(&WorkloadConfig::sorted(400).with_seed(17));
    let caches = count_and_sum(&relation);
    let path = temp_path("v1.tapg");
    let _cleanup = Cleanup(path.clone());
    let bytes = encode_v1(&relation, 1024, &caches);
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(version_of(&path), 1);

    let reader = PagedReader::open(&path).unwrap();
    assert!(reader.sorted());
    assert_eq!(reader.page_size(), 1024);
    assert_eq!(reader.read_relation().unwrap().tuples(), relation.tuples());
    assert_eq!(reader.series_directory().len(), 2);
    for (slot, cache) in caches.iter().enumerate() {
        assert_eq!(reader.series_directory()[slot].label, cache.label);
        assert_eq!(reader.series(slot).unwrap(), cache.entries);
    }
    drop(reader);
    for offset in (0..bytes.len()).step_by(97) {
        let mut mutant = bytes.clone();
        mutant[offset] ^= 0x10;
        let mutant_path = temp_path("v1-mut.tapg");
        let _mutant_cleanup = Cleanup(mutant_path.clone());
        std::fs::write(&mutant_path, &mutant).unwrap();
        let read = PagedReader::open(&mutant_path).and_then(|r| r.read_relation());
        assert!(
            is_storage(&read),
            "v1 flip at {offset}: {:?}",
            read.map(|r| r.len())
        );
    }

    let want_rows = series_rows(TemporalStore::new(relation.clone()));
    let mut store = TemporalStore::open(&path).unwrap();
    assert_eq!(series_rows(store.clone()), want_rows);
    assert_eq!(store.cache_stats().caches, 0, "served from the v1 footer");
    assert!(
        store.flush().unwrap().is_none(),
        "a clean store writes nothing"
    );
    assert_eq!(version_of(&path), 1);
    store
        .insert(vec![Value::from("late"), Value::Int(7)], Interval::at(3, 9))
        .unwrap();
    store.flush().unwrap().unwrap();
    assert_eq!(version_of(&path), pager::FORMAT_VERSION);
    let reopened = TemporalStore::open(&path).unwrap();
    assert_eq!(reopened.relation(), store.relation());
    assert_eq!(series_rows(reopened), series_rows(store));
}

/// Lazy restore does not show through SQL. A reopened store answers a
/// served `SELECT`, `OVER` (a window index cut over a body decoded at that
/// moment), `TOP k` and a result held across a write exactly as the store
/// that was never persisted does, decoding only what each statement asks
/// for; persisting a still-undecoded store to a second path round-trips;
/// and a clone of an undecoded store decodes for itself.
#[test]
fn lazy_restore_is_invisible_to_sql() {
    let path = temp_path("lazy.tapg");
    let second = temp_path("lazy-second.tapg");
    let (_cleanup, _second_cleanup) = (Cleanup(path.clone()), Cleanup(second.clone()));
    let relation = generate(&WorkloadConfig::random(600).with_seed(29));
    let over = "SELECT SUM(salary) OVER [200000, 400000] FROM t";
    let top = "SELECT TOP 3 BY SUM(salary) OVER [100000, 900000] FROM t GROUP BY name";
    let statements = [SERIES_SQL, "SELECT COUNT(*) FROM t", over, top];

    let mut live = Catalog::new();
    live.register("t", relation.clone());
    let mut original = TemporalStore::new(relation);
    for kind in [AggKind::CountStar, AggKind::Sum, AggKind::Min] {
        let column = (kind != AggKind::CountStar).then_some(1);
        let agg = DynAggregate::new(kind, ValueType::Int).unwrap();
        original.ensure_cache(agg, column).unwrap();
    }
    original.persist_to(&path).unwrap();

    // Each statement equals the live answer, off restored series.
    let reopened = TemporalStore::open(&path).unwrap();
    let undecoded_clone = reopened.clone();
    let mut catalog = Catalog::new();
    catalog.register_store("t", reopened);
    for sql in statements {
        let want = execute_str(&live, sql).unwrap();
        let got = execute_str(&catalog, sql).unwrap();
        assert_eq!(got.rows, want.rows, "{sql}");
    }
    let store = catalog.store("t").unwrap();
    assert_eq!(
        store.cache_stats().caches,
        0,
        "served restored, not rebuilt"
    );
    assert!(store.has_window_index(AggKind::Sum, Some(1)));
    assert!(!store.has_window_index(AggKind::Min, Some(1)));

    // The clone, taken before anything was decoded, shares no decoded
    // series with the store it came from and answers the same.
    let theirs = store.snapshot(AggKind::Sum, Some(1)).unwrap();
    let mine = undecoded_clone.snapshot(AggKind::Sum, Some(1)).unwrap();
    assert!(!std::sync::Arc::ptr_eq(&theirs, &mine));
    assert_eq!(*theirs, *mine);
    // A clone taken after shares what was decoded.
    let decoded_clone = store.clone();
    let shared = decoded_clone.snapshot(AggKind::Sum, Some(1)).unwrap();
    assert!(std::sync::Arc::ptr_eq(&theirs, &shared));

    // Persist a freshly opened, still-undecoded store to a second path.
    let mut fresh = TemporalStore::open(&path).unwrap();
    fresh.persist_to(&second).unwrap();
    assert_eq!(
        fresh.cache_stats().caches,
        0,
        "persisting decodes, not rebuilds"
    );
    let first_reader = PagedReader::open(&path).unwrap();
    let second_reader = PagedReader::open(&second).unwrap();
    assert_eq!(
        second_reader.series_directory(),
        first_reader.series_directory()
    );
    assert_eq!(
        std::fs::read(&second).unwrap(),
        std::fs::read(&path).unwrap()
    );
    let again = TemporalStore::open(&second).unwrap();
    assert_eq!(again.relation(), fresh.relation());
    assert_eq!(
        series_rows(again),
        execute_str(&live, SERIES_SQL).unwrap().rows
    );

    // A result held across a write: the reopened store's pins a decoded
    // series, the write promotes every body — MIN's was never decoded —
    // and both catalogs go on answering alike.
    let held_live = execute_str(&live, SERIES_SQL).unwrap();
    let held = execute_str(&catalog, SERIES_SQL).unwrap();
    let write = "INSERT INTO t VALUES ('late', 5000) VALID [250000, 350000]";
    for catalog in [&mut live, &mut catalog] {
        execute_statement(catalog, write).unwrap();
    }
    assert_eq!(held.rows, held_live.rows);
    assert_eq!(catalog.store("t").unwrap().cache_stats().caches, 3);
    for sql in statements.into_iter().chain(["SELECT MIN(salary) FROM t"]) {
        let want = execute_str(&live, sql).unwrap();
        let got = execute_str(&catalog, sql).unwrap();
        assert_eq!(got.rows, want.rows, "after the write: {sql}");
    }
    let after = execute_str(&catalog, SERIES_SQL).unwrap();
    assert_ne!(
        after.rows, held.rows,
        "the write shows to a later statement"
    );
}

/// A reopened table reads what a statement needs and no more, as its
/// file's `PagedReader::metrics` count it: the reopen and a served
/// `COUNT(*)` read one series block and no page, and re-declaring the table
/// is refused without reading one; `EXPLAIN` of a `VALID`-window scan names
/// the pages fence pruning leaves, and the scan reads exactly those — again
/// on a second run, since a scan makes nothing resident.
#[test]
fn a_reopened_table_reads_only_the_pages_a_statement_needs() {
    let path = temp_path("reads.tapg");
    let _cleanup = Cleanup(path.clone());
    let relation = generate(&WorkloadConfig::sorted(3_000).with_seed(31));
    let mut live = live_catalog(&relation);
    execute_str(&live, SERIES_SQL).unwrap();
    live.store_mut("t").unwrap().persist_to(&path).unwrap();
    let create = format!(
        "CREATE TABLE t (name STRING, salary INT) PERSIST TO '{}'",
        path.display()
    );

    let mut catalog = Catalog::new();
    execute_statement(&mut catalog, &create).unwrap();
    let reads = |catalog: &Catalog| catalog.store("t").unwrap().base().unwrap().metrics();
    let counted = execute_str(&catalog, "SELECT COUNT(*) FROM t").unwrap();
    assert!(counted.cache.served_from_cache);
    let after_count = reads(&catalog);
    assert_eq!(
        (after_count.pages_read, after_count.series_blocks_read),
        (0, 1)
    );
    let again = execute_statement(&mut catalog, &create).unwrap_err();
    assert!(again.to_string().contains("already exists"), "{again}");
    assert_eq!(reads(&catalog), after_count);

    let lifespan = relation.lifespan().unwrap();
    let start = lifespan.start().get() + lifespan.duration() / 3;
    let window = Interval::new(start, start + lifespan.duration() / 10).unwrap();
    let sql = format!(
        "SELECT SUM(salary) FROM t WHERE VALID OVERLAPS [{}, {}]",
        window.start(),
        window.end()
    );
    let base = catalog.store("t").unwrap().base().unwrap();
    let (in_window, total) = (base.pages_overlapping(&window).len(), base.page_count());
    assert!(0 < in_window && in_window < total, "{in_window} of {total}");
    let explained = execute_str(&catalog, &format!("EXPLAIN {sql}")).unwrap();
    let pruned = format!("reads {in_window} of {total} pages (fence-pruned)");
    assert!(explained.to_string().contains(&pruned), "{explained}");
    let resident = execute_str(&live, &format!("EXPLAIN {sql}")).unwrap();
    assert!(!resident.to_string().contains("pages"), "{resident}");
    for run in 0..2 {
        let before = reads(&catalog).pages_read;
        let scanned = execute_str(&catalog, &sql).unwrap();
        let read = reads(&catalog).pages_read - before;
        assert_eq!(read, in_window as u64, "run {run}");
        assert_eq!(scanned.plan, explained.plan, "run {run}");
        assert_eq!(scanned.rows, execute_str(&live, &sql).unwrap().rows);
    }
}

/// `EXPLAIN` of a path that plans from no row reads none: span grouping and
/// `SNAPSHOT` leave a reopened table's page count where it was and name
/// their path, while an instant-grouped scan plans from the rows it reads.
#[test]
fn explaining_span_grouping_and_snapshot_reads_no_page() {
    let path = temp_path("explain.tapg");
    let _cleanup = Cleanup(path.clone());
    let relation = generate(&WorkloadConfig::sorted(5_000).with_seed(36));
    let mut live = live_catalog(&relation);
    live.store_mut("t").unwrap().persist_to(&path).unwrap();
    let mut catalog = Catalog::new();
    let create = format!(
        "CREATE TABLE t (name STRING, salary INT) PERSIST TO '{}'",
        path.display()
    );
    execute_statement(&mut catalog, &create).unwrap();
    let pages_read = |catalog: &Catalog| {
        let store = catalog.store("t").unwrap();
        store.pages().unwrap().metrics().pages_read
    };
    for (sql, route) in [
        (
            "EXPLAIN SELECT SUM(salary) FROM t GROUP BY SPAN 100",
            SqlPath::TypedSpan,
        ),
        (
            "EXPLAIN SELECT SNAPSHOT SUM(salary) FROM t",
            SqlPath::TypedSnapshot,
        ),
    ] {
        let explained = execute_str(&catalog, sql).unwrap();
        assert_eq!(pages_read(&catalog), 0, "{sql}");
        assert!(explained.explain_only && explained.rows.is_empty(), "{sql}");
        assert_eq!(explained.path, route, "{sql}");
    }
    let explained = execute_str(&catalog, "EXPLAIN SELECT SUM(salary) FROM t").unwrap();
    assert_eq!(explained.path, SqlPath::TypedInstant);
    assert!(pages_read(&catalog) > 0);
}

/// The README's "Persistence" walkthrough, statement for statement — if
/// this test fails, the README is lying.
#[test]
fn readme_persistence_example_works_as_printed() {
    let path = temp_path("readme.tapg");
    let _cleanup = Cleanup(path.clone());
    let file = path.display().to_string();

    let mut catalog = Catalog::new();
    execute_statement(
        &mut catalog,
        &format!("CREATE TABLE staff (name STRING, salary INT) PERSIST TO '{file}'"),
    )
    .unwrap();
    execute_statement(
        &mut catalog,
        "INSERT INTO staff VALUES ('Richard', 40000) VALID [5, 15], \
         ('Karen', 50000) VALID [10, 20]",
    )
    .unwrap();
    let first = execute_str(&catalog, "SELECT COUNT(*) FROM staff").unwrap();
    assert!(!first.rows.is_empty());

    // A later session (fresh catalog) reopens the same file — data and
    // cached aggregate series come back from disk.
    let mut later = Catalog::new();
    execute_statement(
        &mut later,
        &format!("CREATE TABLE staff (name STRING, salary INT) PERSIST TO '{file}'"),
    )
    .unwrap();
    let reopened = execute_str(&later, "SELECT COUNT(*) FROM staff").unwrap();
    assert_eq!(first.rows, reopened.rows);
}

/// Store-level roundtrip: mutations + flush persist both tuples and
/// cached aggregate series; reopening serves the caches without a
/// rebuild.
#[test]
fn store_flush_and_open_roundtrip_preserves_caches() {
    let path = temp_path("store-roundtrip.tapg");
    let _cleanup = Cleanup(path.clone());

    let relation = generate(&WorkloadConfig::random(300).with_seed(21));
    let mut store = TemporalStore::new(relation);
    let count_star = || DynAggregate::new(AggKind::CountStar, ValueType::Int).unwrap();
    let before = store.snapshot_or_build(count_star(), None);
    store.persist_to(&path).unwrap();

    let reopened = TemporalStore::open(&path).unwrap();
    assert_eq!(
        reopened.cache_stats().caches,
        0,
        "served from disk, not rebuilt"
    );
    let after = reopened.snapshot(AggKind::CountStar, None).unwrap();
    assert_eq!(*before, *after);
}

/// The centred window of `share` % of `reader`'s lifespan.
fn centred_window(reader: &PagedReader, share: i64) -> Interval {
    let lifespan = reader.lifespan().unwrap();
    let half = lifespan.duration() * share / 200;
    let middle = lifespan.start().get() + lifespan.duration() / 2;
    Interval::new(middle - half, middle + half).unwrap()
}

/// A fence-pruned `COUNT(*)` scan of `window`: the pages it read, and the
/// overflow lane's of them.
fn pages_read(reader: &PagedReader, window: Interval) -> (usize, usize) {
    let cursor = PageCursor::new(reader, window);
    let overflow = cursor.planned_overflow_pages();
    let mut source = cursor.units();
    let mut chunk: Chunk<()> = Chunk::with_capacity(DEFAULT_CHUNK_CAPACITY);
    while source.next_chunk(&mut chunk).unwrap() {
        chunk.clear();
    }
    (source.stats().pages_read, overflow)
}

/// Long-lived tuples cost a window the pages they sit on, not every page
/// they stretch across: the centred 10 % window of a sorted relation with
/// 10 % long-lived tuples reads at most twice the pages it reads with
/// none (with one lane it read five to six times as many). The 40 % and
/// 80 % shares are printed, not held to a bound.
#[test]
fn a_long_lived_share_costs_a_window_few_pages() {
    let read_at = |pct: u8| {
        let config = WorkloadConfig::sorted(20_000)
            .with_seed(44)
            .with_long_lived_pct(pct);
        let relation = generate(&config);
        let path = temp_path(&format!("share-{pct}.tapg"));
        let _cleanup = Cleanup(path.clone());
        pager::write_relation(&relation, &path, &PagedWriteOptions::default()).unwrap();
        let reader = PagedReader::open(&path).unwrap();
        let (read, overflow) = pages_read(&reader, centred_window(&reader, 10));
        println!(
            "{pct:>2} % long-lived: window reads {read} of {} pages \
             (main lane {} of {}, overflow lane {overflow} of {})",
            reader.page_count(),
            read - overflow,
            reader.main_lane().len(),
            reader.overflow_lane().len(),
        );
        read
    };
    let none = read_at(0);
    let tenth = read_at(10);
    for pct in [40, 80] {
        let ratio = read_at(pct) as f64 / none as f64;
        println!("{pct} % long-lived reads {ratio:.2}x the pages of 0 %");
    }
    assert!(
        tenth <= 2 * none,
        "10 % long-lived reads {tenth} pages, 0 % reads {none}"
    );
}

/// A sorted relation whose lanes the merge must get exactly right: never
/// ending tuples, duplicate intervals, equal starts in both lanes. `v`
/// numbers the tuples as pushed, so duplicates are told apart.
fn lane_edge_cases() -> TemporalRelation {
    let schema = Schema::of(&[("v", ValueType::Int)]);
    let mut relation = TemporalRelation::new(schema);
    let mut push = |interval: Interval| {
        let v = relation.len() as i64;
        relation.push(vec![Value::Int(v)], interval).unwrap();
    };
    for i in 0..400i64 {
        let start = i / 4 * 100;
        push(Interval::at(start, start + 5));
        push(Interval::at(start, start + 5));
        match i % 4 {
            0 => push(Interval::at(start, start + 30_000)),
            1 => push(Interval::from_start(start)),
            _ => push(Interval::at(start, start + 50)),
        }
    }
    relation.sort_by_time();
    relation
}

/// The pager's two lanes are invisible to every reader of a file: over
/// sorted relations at 0, 10, 80 and 100 % long-lived, the edge cases of
/// [`lane_edge_cases`], a single tuple, an empty relation and an unsorted
/// one (which keeps one lane), `read_relation` returns the written
/// relation tuple for tuple; over random windows the pruned `units` and
/// `int_column` scans equal the full scans, and no page holding a tuple
/// that overlaps the window is pruned, in either lane.
#[test]
fn two_lanes_read_back_in_storage_order_and_prune_soundly() {
    let sorted = |pct: u8| {
        let config = WorkloadConfig::sorted(1_500)
            .with_seed(45)
            .with_long_lived_pct(pct);
        (format!("sorted at {pct} %"), generate(&config))
    };
    let mut single = TemporalRelation::new(Schema::of(&[("v", ValueType::Int)]));
    single
        .push(vec![Value::Int(7)], Interval::at(3, 9))
        .unwrap();
    let empty = TemporalRelation::new(Schema::of(&[("v", ValueType::Int)]));
    let unsorted = WorkloadConfig::random(1_500)
        .with_seed(46)
        .with_long_lived_pct(10);
    let cases = [
        (sorted(0), false),
        (sorted(10), true),
        (sorted(80), true),
        (sorted(100), false),
        (("edge cases".to_string(), lane_edge_cases()), true),
        (("a single tuple".to_string(), single), false),
        (("empty".to_string(), empty), false),
        (("unsorted".to_string(), generate(&unsorted)), false),
    ];
    let mut rng = StdRng::seed_from_u64(0x1A7E5);
    for ((label, relation), two_lanes) in cases {
        let (_cleanup, reader) = written(&relation, "lanes.tapg");
        assert_eq!(!reader.overflow_lane().is_empty(), two_lanes, "{label}");
        assert_eq!(reader.long_lived_cut().is_some(), two_lanes, "{label}");
        assert_eq!(
            reader.read_relation().unwrap().tuples(),
            relation.tuples(),
            "{label}"
        );
        let column = relation.schema().len() - 1;

        // Each lane is sorted and holds exactly its side of the cut.
        if let Some(cut) = reader.long_lived_cut() {
            let main = reader.main_lane().len();
            for (lane, pages) in [(false, 0..main), (true, main..reader.page_count())] {
                let mut last = None;
                for index in pages {
                    for interval in reader.read_page(index, Some(&[])).unwrap().intervals {
                        assert_eq!(interval.is_long_lived(cut), lane, "{label}: {interval}");
                        assert!(last <= Some(interval), "{label}: lane out of order");
                        last = Some(interval);
                    }
                }
            }
            // Both lanes are full at the scan's start, and both count.
            let mut cursor = PageCursor::full_scan(&reader, Interval::ALL);
            while cursor.next_page(Some(&[])).unwrap().is_some() {}
            let both = reader.main_lane()[0].tuples + reader.overflow_lane()[0].tuples;
            assert!(cursor.stats().peak_page_tuples >= both as usize, "{label}");
        }

        let Some(lifespan) = reader.lifespan() else {
            assert_eq!(reader.page_count(), 0, "{label}");
            continue;
        };
        for case in 0..24 {
            let a = rng.random_range(lifespan.start().get()..=lifespan.end().get().min(1 << 40));
            let b = rng.random_range(lifespan.start().get()..=lifespan.end().get().min(1 << 40));
            let window = Interval::new(a.min(b), a.max(b)).unwrap();
            let what = format!("{label}, case {case}, window {window}");

            let kept = reader.pages_overlapping(&window);
            for index in 0..reader.page_count() {
                let page = reader.read_page(index, Some(&[])).unwrap();
                if page.intervals.iter().any(|iv| iv.overlaps(&window)) {
                    assert!(kept.contains(&index), "{what}: page {index} pruned");
                }
            }
            let (read, overflow) = pages_read(&reader, window);
            assert_eq!(read, kept.len(), "{what}");
            let main = reader.main_lane().len();
            let kept_overflow = kept.iter().filter(|&&page| page >= main).count();
            assert_eq!(overflow, kept_overflow, "{what}");

            let units = |cursor: PageCursor<'_>| {
                let mut source = cursor.units();
                let mut chunk: Chunk<()> = Chunk::with_capacity(97);
                let mut out = Vec::new();
                while source.next_chunk(&mut chunk).unwrap() {
                    out.extend(chunk.iter().map(|(iv, _)| iv));
                    chunk.clear();
                }
                out
            };
            let pruned = units(PageCursor::new(&reader, window));
            assert_eq!(
                pruned,
                units(PageCursor::full_scan(&reader, window)),
                "{what}"
            );
            let want: Vec<Interval> = (relation.intervals())
                .filter_map(|iv| iv.intersect(&window))
                .collect();
            assert_eq!(pruned, want, "{what}");

            let ints = |cursor: PageCursor<'_>| {
                let mut source = cursor.int_column(column);
                let mut chunk: Chunk<i64> = Chunk::with_capacity(97);
                let mut out = Vec::new();
                while source.next_chunk(&mut chunk).unwrap() {
                    out.extend(chunk.iter().map(|(iv, v)| (iv, *v)));
                    chunk.clear();
                }
                out
            };
            let pruned = ints(PageCursor::new(&reader, window));
            assert_eq!(
                pruned,
                ints(PageCursor::full_scan(&reader, window)),
                "{what}"
            );
        }
    }
}

/// What a version 2 writer produced for `relation` and `caches`: one lane
/// of pages in storage order, and a directory of fences, series records,
/// the file's length and a checksum, each section under [`Checksum`].
fn encode_v2(relation: &TemporalRelation, page_size: u32, caches: &[PersistedSeries]) -> Vec<u8> {
    let schema = relation.schema();
    let schema_block = encode_schema(schema).unwrap();
    let tuples = relation.tuples();
    let mut pages = Vec::new();
    let mut fences = Vec::new();
    for range in plan_pages(schema, tuples, page_size).unwrap() {
        let run = &tuples[range];
        let mut page = encode_page(schema, run).unwrap();
        page.resize(page_size as usize, 0);
        fences.push(PageFence {
            min_start: run.iter().map(|t| t.valid().start()).min().unwrap(),
            max_end: run.iter().map(|t| t.valid().end()).max().unwrap(),
            tuples: run.len() as u32,
            checksum: Checksum::of(&page),
        });
        pages.extend_from_slice(&page);
    }
    let sorted = tuples.windows(2).all(|w| {
        (w[0].valid().start(), w[0].valid().end()) <= (w[1].valid().start(), w[1].valid().end())
    });
    let footer_offset = (64 + schema_block.len() + pages.len()) as u64;
    let mut blocks = Vec::new();
    let mut records = Vec::new();
    for cache in caches {
        let offset = footer_offset + blocks.len() as u64;
        let mut block = Vec::new();
        encode_entries(&mut block, &cache.entries).unwrap();
        records.push((cache, offset, block.len() as u64, Checksum::of(&block)));
        blocks.extend_from_slice(&block);
    }
    let directory_offset = footer_offset + blocks.len() as u64;

    let mut directory = encode_fences(&fences);
    directory.extend_from_slice(&(caches.len() as u32).to_le_bytes());
    for (cache, offset, len, checksum) in &records {
        directory.extend_from_slice(&(cache.label.len() as u16).to_le_bytes());
        directory.extend_from_slice(cache.label.as_bytes());
        directory.extend_from_slice(&cache.column.map_or(-1, i64::from).to_le_bytes());
        directory.extend_from_slice(&(cache.entries.len() as u64).to_le_bytes());
        directory.extend_from_slice(&offset.to_le_bytes());
        directory.extend_from_slice(&len.to_le_bytes());
        directory.extend_from_slice(&checksum.to_le_bytes());
    }
    let file_len = directory_offset + directory.len() as u64 + 16;
    directory.extend_from_slice(&file_len.to_le_bytes());
    let checksum = Checksum::of(&directory);
    directory.extend_from_slice(&checksum.to_le_bytes());

    let mut file = Vec::new();
    file.extend_from_slice(b"TAGGPG01");
    file.extend_from_slice(&2u16.to_le_bytes());
    file.extend_from_slice(&u16::from(sorted).to_le_bytes());
    file.extend_from_slice(&page_size.to_le_bytes());
    file.extend_from_slice(&(schema.len() as u32).to_le_bytes());
    file.extend_from_slice(&(tuples.len() as u64).to_le_bytes());
    file.extend_from_slice(&(fences.len() as u64).to_le_bytes());
    file.extend_from_slice(&footer_offset.to_le_bytes());
    file.extend_from_slice(&(schema_block.len() as u32).to_le_bytes());
    file.extend_from_slice(&directory_offset.to_le_bytes());
    let mut hashed = file.clone();
    hashed.extend_from_slice(&schema_block);
    file.extend_from_slice(&Checksum::of(&hashed).to_le_bytes());
    file.extend_from_slice(&schema_block);
    file.extend_from_slice(&pages);
    file.extend_from_slice(&blocks);
    file.extend_from_slice(&directory);
    assert_eq!(file.len() as u64, file_len);
    file
}

/// Files written before version 3 keep their one lane: a version 2 file of
/// a sorted relation with long-lived tuples opens, answers as it did and
/// still refuses a flipped bit, and the store's next flush rewrites it as
/// version 3 with an overflow lane.
#[test]
fn version_2_files_open_answer_identically_and_flush_as_version_3() {
    let relation = generate(
        &WorkloadConfig::sorted(400)
            .with_seed(18)
            .with_long_lived_pct(10),
    );
    let caches = count_and_sum(&relation);
    let path = temp_path("v2.tapg");
    let _cleanup = Cleanup(path.clone());
    let bytes = encode_v2(&relation, 1024, &caches);
    std::fs::write(&path, &bytes).unwrap();
    assert_eq!(version_of(&path), 2);

    let reader = PagedReader::open(&path).unwrap();
    assert!(reader.sorted() && reader.overflow_lane().is_empty());
    assert_eq!(reader.long_lived_cut(), None);
    assert_eq!(reader.page_size(), 1024);
    assert_eq!(reader.read_relation().unwrap().tuples(), relation.tuples());
    for (slot, cache) in caches.iter().enumerate() {
        assert_eq!(reader.series_directory()[slot].label, cache.label);
        assert_eq!(reader.series(slot).unwrap(), cache.entries);
    }
    let window = centred_window(&reader, 10);
    let (read, overflow) = pages_read(&reader, window);
    assert_eq!(
        (read, overflow),
        (reader.pages_overlapping(&window).len(), 0)
    );
    drop(reader);
    for offset in (0..bytes.len()).step_by(89) {
        let mut mutant = bytes.clone();
        mutant[offset] ^= 0x08;
        let mutant_path = temp_path("v2-mut.tapg");
        let _mutant_cleanup = Cleanup(mutant_path.clone());
        std::fs::write(&mutant_path, &mutant).unwrap();
        let read = PagedReader::open(&mutant_path).and_then(|r| {
            (0..r.series_directory().len()).try_for_each(|slot| r.series(slot).map(drop))?;
            r.read_relation()
        });
        assert!(is_storage(&read), "v2 flip at {offset}");
    }

    let want_rows = series_rows(TemporalStore::new(relation.clone()));
    let mut store = TemporalStore::open(&path).unwrap();
    assert_eq!(series_rows(store.clone()), want_rows);
    assert!(store.flush().unwrap().is_none());
    assert_eq!(version_of(&path), 2);
    let last = relation.lifespan().unwrap().end().get();
    store
        .insert(
            vec![Value::from("late"), Value::Int(7)],
            Interval::at(last, last + 9),
        )
        .unwrap();
    store.flush().unwrap().unwrap();
    assert_eq!(version_of(&path), pager::FORMAT_VERSION);
    let reader = PagedReader::open(&path).unwrap();
    assert!(
        !reader.overflow_lane().is_empty(),
        "the rewrite has two lanes"
    );
    let reopened = TemporalStore::open(&path).unwrap();
    assert_eq!(reopened.relation(), store.relation());
    assert_eq!(series_rows(reopened), series_rows(store));
}

/// A file with two lanes holds the overflow lane's pages and its lane
/// record under checksums like the rest: a flipped bit in an overflow page
/// fails that page's reads and every scan that needs it, never a panic,
/// and one in the lane record or the header flag that announces it fails
/// `open`.
#[test]
fn corruption_of_the_overflow_lane_is_a_storage_error() {
    let relation = generate(
        &WorkloadConfig::sorted(1_200)
            .with_seed(19)
            .with_long_lived_pct(10),
    );
    let path = temp_path("lanes-src.tapg");
    let _cleanup = Cleanup(path.clone());
    let options = PagedWriteOptions {
        page_size: 1024,
        caches: Vec::new(),
    };
    pager::write_relation(&relation, &path, &options).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    let reader = PagedReader::open(&path).unwrap();
    let (main, pages) = (reader.main_lane().len(), reader.page_count());
    assert!(main >= 2 && pages - main >= 2, "{main} of {pages} pages");
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let (schema_len, directory) = (word(44) & 0xffff_ffff, word(48));
    let data = 64 + schema_len;
    let mutant_path = temp_path("lanes-mut.tapg");
    let _mutant_cleanup = Cleanup(mutant_path.clone());
    let flipped = |offset: usize, bit: usize| {
        let mut mutant = bytes.clone();
        mutant[offset] ^= 1 << bit;
        std::fs::write(&mutant_path, &mutant).unwrap();
    };

    let overflow_bytes = data + main * 1024..data + pages * 1024;
    for (i, offset) in overflow_bytes.step_by(331).enumerate() {
        flipped(offset, i % 8);
        let reader = PagedReader::open(&mutant_path).unwrap();
        let hit = (offset - data) / 1024;
        assert!(is_storage(&reader.read_page(hit, None)), "flip at {offset}");
        assert!(is_storage(&reader.read_relation()), "flip at {offset}");
        let mut source = PageCursor::full_scan(&reader, Interval::ALL).int_column(1);
        let mut chunk: Chunk<i64> = Chunk::with_capacity(DEFAULT_CHUNK_CAPACITY);
        let scanned = loop {
            match source.next_chunk(&mut chunk) {
                Ok(true) => chunk.clear(),
                other => break other,
            }
        };
        assert!(is_storage(&scanned), "flip at {offset}: {scanned:?}");
        let mut catalog = Catalog::new();
        catalog.register_store("t", TemporalStore::open(&mutant_path).unwrap());
        let failed = execute_str(&catalog, "SELECT SUM(salary) FROM t WHERE salary > 0");
        assert!(is_storage(&failed), "flip at {offset}");
    }

    // The lane record follows the fences; the flag is bit 1 of byte 10.
    let record = directory + pages * 28;
    for offset in record..record + 16 {
        for bit in 0..8 {
            flipped(offset, bit);
            let opened = PagedReader::open(&mutant_path);
            assert!(is_storage(&opened), "flip at {offset}.{bit}");
        }
    }
    flipped(10, 1);
    assert!(is_storage(&PagedReader::open(&mutant_path)));
}

/// `EXPLAIN` of a window scan over a reopened table with two lanes shows
/// the overflow lane's pages on a line of their own, beside the count of
/// all the pages the scan reads, and the scan reads exactly that count.
#[test]
fn explain_shows_the_overflow_lane_pages_a_scan_reads() {
    let path = temp_path("explain-lanes.tapg");
    let _cleanup = Cleanup(path.clone());
    let relation = generate(
        &WorkloadConfig::sorted(4_000)
            .with_seed(32)
            .with_long_lived_pct(10),
    );
    let live = live_catalog(&relation);
    let mut store = TemporalStore::new(relation.clone());
    store.persist_to(&path).unwrap();
    let mut catalog = Catalog::new();
    let create = format!(
        "CREATE TABLE t (name STRING, salary INT) PERSIST TO '{}'",
        path.display()
    );
    execute_statement(&mut catalog, &create).unwrap();
    let base = catalog.store("t").unwrap().base().unwrap();
    let window = centred_window(base, 10);
    let kept = base.pages_overlapping(&window);
    let main = base.main_lane().len();
    let overflow = kept.iter().filter(|&&page| page >= main).count();
    let lane_pages = base.overflow_lane().len();
    assert!(
        0 < overflow && overflow <= lane_pages,
        "{overflow} of {lane_pages}"
    );
    let sql = format!(
        "SELECT SUM(salary) FROM t WHERE VALID OVERLAPS [{}, {}]",
        window.start(),
        window.end()
    );
    let explained = execute_str(&catalog, &format!("EXPLAIN {sql}")).unwrap();
    let text = explained.to_string();
    let all = format!(
        "reads {} of {} pages (fence-pruned)",
        kept.len(),
        base.page_count()
    );
    let lane = format!(
        "of which the overflow lane of long-lived tuples: {overflow} of {lane_pages} pages"
    );
    assert!(text.contains(&all), "{text}");
    assert!(text.contains(&lane), "{text}");
    let before = base.metrics().pages_read;
    let scanned = execute_str(&catalog, &sql).unwrap();
    let base = catalog.store("t").unwrap().base().unwrap();
    assert_eq!(base.metrics().pages_read - before, kept.len() as u64);
    assert_eq!(scanned.rows, execute_str(&live, &sql).unwrap().rows);
}
