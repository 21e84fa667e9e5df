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
//! * files a version 1 writer produced still open, and are version 2 after
//!   one flush;
//! * the README's persistence walkthrough works exactly as printed, and
//!   `CREATE TABLE … PERSIST TO` survives a process boundary (modelled as
//!   a fresh [`Catalog`]).
//!
//! Randomized cases come from the workspace's deterministic [`StdRng`],
//! seeded per test.

use std::path::{Path, PathBuf};
use tempagg_agg::SweepAggregate;
use temporal_aggregates::algo::{run_paged_partitioned, SweepAggregator, TemporalAggregator};
use temporal_aggregates::core::pager::format::{
    encode_entries, encode_fences, encode_page, encode_schema, fnv1a64, plan_pages,
};
use temporal_aggregates::core::pager::{
    self, Checksum, PageCursor, PageFence, PagedReader, PagedWriteOptions, PersistedSeries,
    TupleSource,
};
use temporal_aggregates::prelude::*;
use temporal_aggregates::sql::execute_statement;
use temporal_aggregates::workload::rng::StdRng;
use temporal_aggregates::workload::{generate, WorkloadConfig};
use temporal_aggregates::{
    AggKind, DynAggregate, ResultRow, TempAggError, ValueType, DEFAULT_CHUNK_CAPACITY,
};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tempagg-paged-it-{}-{name}", std::process::id()));
    p
}

struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
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
    let paged = run_paged_partitioned(
        reader,
        window,
        partitions,
        |cursor| cursor.int_column(1),
        |sub| SweepAggregator::with_domain(agg.clone(), sub),
    )
    .unwrap();
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
                let paged =
                    run_paged_partitioned(&reader, window, partitions, PageCursor::units, |sub| {
                        SweepAggregator::with_domain(Count, sub)
                    })
                    .unwrap();
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
    let exercise = |path: &std::path::Path| {
        let reader = match PagedReader::open(path) {
            Ok(reader) => reader,
            Err(_) => return,
        };
        for index in 0..reader.page_count() {
            let _ = reader.read_page(index, None);
        }
        let _ = reader.read_relation();
        let _ = TemporalStore::open(path);
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
        assert!(is_storage(&TemporalStore::open(&mutant_path)));
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
        original.ensure_cache(agg, column);
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
