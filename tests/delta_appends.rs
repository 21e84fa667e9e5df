//! A flush whose writes since the last one were all in-order `INSERT`s
//! appends what they changed to the file's delta instead of rewriting it
//! (DESIGN.md §15, "Appends"):
//!
//! * after each append, the file reads back exactly as a full rewrite of
//!   the same store — rows, each lane's fences, cut, counts, series — and a
//!   reader opened before the append goes on reading its own version;
//! * an append writes a few per cent of what a rewrite writes;
//! * every other flush rewrites the file and removes the delta;
//! * a crash at any byte of an append, with or without the bytes written
//!   since the last sync, reopens to the version before or the version
//!   after it — never an error, never a panic — and so does a crash around
//!   a compaction's rename;
//! * a bit flip in a committed record is a `TempAggError::Storage` where it
//!   lands: at `open` in the directory, at the page's read or the series'.

use std::path::{Path, PathBuf};
use temporal_aggregates::core::pager::delta::{Slot, SLOTS_BYTES, SLOT_BYTES};
use temporal_aggregates::core::pager::{
    self, DeltaFile, PageCursor, PageFence, PagedReader, PagedWriteOptions, PagedWriteStats,
    PersistedSeries, SeriesRecord, SeriesRuns,
};
use temporal_aggregates::prelude::*;
use temporal_aggregates::workload::rng::StdRng;
use temporal_aggregates::workload::{generate, WorkloadConfig};
use temporal_aggregates::{AggKind, DynAggregate, SeriesEntry, TempAggError, Tuple, ValueType};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("tempagg-delta-it-{}-{name}", std::process::id()));
    p
}

/// Removes a paged file, its delta and its temp sibling.
struct Cleanup(PathBuf);
impl Drop for Cleanup {
    fn drop(&mut self) {
        let _ = pager::remove_file(&self.0);
        let mut tmp = self.0.as_os_str().to_os_string();
        tmp.push(".tmp");
        let _ = std::fs::remove_file(PathBuf::from(tmp));
    }
}

/// `n` tuples of history before instant 900,000, sorted, 10 % long-lived,
/// in a lifespan that arrivals do not move: `[0, 999_999]`, or
/// `[0, FOREVER]` when `forever` — then the long-lived tuples are those
/// that never end, and arrivals may join that lane too.
fn history(n: usize, seed: u64, forever: bool) -> TemporalRelation {
    // Starts are uniform over [0, 1,000,000): twice n leave n before 900,000.
    let generated = generate(
        &WorkloadConfig::sorted(2 * n)
            .with_long_lived_pct(10)
            .with_seed(seed),
    );
    let mut relation = TemporalRelation::new(generated.schema().clone());
    let end = if forever {
        Timestamp::FOREVER.get()
    } else {
        999_999
    };
    relation
        .push(
            vec![Value::from("edge"), Value::Int(1)],
            Interval::at(0, end),
        )
        .unwrap();
    let early = generated
        .iter()
        .filter(|t| t.valid().start().get() < 900_000);
    for (i, tuple) in early.take(n - 1).enumerate() {
        let valid = match forever && i % 10 == 3 {
            true => Interval::at(tuple.valid().start().get(), end),
            false => tuple.valid(),
        };
        relation.push(tuple.values().to_vec(), valid).unwrap();
    }
    relation.sort_by_time();
    assert_eq!(relation.len(), n);
    relation
}

/// Flush `round`'s `count` arrivals: short tuples starting in the round's
/// 100 instants after 900,000, every fourth never ending when `forever`,
/// in `(start, end)` order.
fn arrivals(
    rng: &mut StdRng,
    round: i64,
    count: usize,
    forever: bool,
) -> Vec<(Vec<Value>, Interval)> {
    let lo = 900_000 + round * 100;
    let mut rows: Vec<(Vec<Value>, Interval)> = (0..count)
        .map(|i| {
            let start = rng.random_range(lo..lo + 100);
            let end = match forever && i % 4 == 0 {
                true => Timestamp::FOREVER.get(),
                false => start + rng.random_range(0i64..1000),
            };
            let values = vec![
                Value::from("late"),
                Value::Int(rng.random_range(1i64..100_000)),
            ];
            (values, Interval::at(start, end))
        })
        .collect();
    rows.sort_by_key(|(_, valid)| (valid.start(), valid.end()));
    rows
}

const CACHES: [(AggKind, Option<usize>); 3] = [
    (AggKind::CountStar, None),
    (AggKind::Sum, Some(1)),
    (AggKind::Max, Some(1)),
];

fn warm(store: &TemporalStore, caches: &[(AggKind, Option<usize>)]) {
    for &(kind, column) in caches {
        let agg = DynAggregate::new(kind, ValueType::Int).unwrap();
        store.ensure_cache(agg, column).unwrap();
    }
}

/// Every series the reader holds, decoded, with its label and column.
fn series_of(reader: &PagedReader) -> Vec<(String, Option<u32>, Vec<SeriesEntry<Value>>)> {
    (reader.series_directory().iter().enumerate())
        .map(|(i, record)| {
            let entries = reader.series(i).unwrap();
            (record.label.clone(), record.column, entries)
        })
        .collect()
}

/// A reader equals another where the differential test compares them.
fn assert_same_version(got: &PagedReader, want: &PagedReader, case: &str) {
    assert_eq!(got.tuple_count(), want.tuple_count(), "{case}: tuples");
    assert_eq!(got.sorted(), want.sorted(), "{case}: sorted");
    assert_eq!(got.long_lived_cut(), want.long_lived_cut(), "{case}: cut");
    assert_eq!(
        got.main_lane(),
        want.main_lane(),
        "{case}: main lane fences"
    );
    assert_eq!(
        got.overflow_lane(),
        want.overflow_lane(),
        "{case}: overflow lane fences"
    );
    assert_eq!(
        got.read_relation().unwrap().tuples(),
        want.read_relation().unwrap().tuples(),
        "{case}: rows"
    );
    assert_eq!(series_of(got), series_of(want), "{case}: series");
}

/// A full rewrite of `store` at `path`, the store left as it was.
fn rewritten(store: &TemporalStore, path: &Path) -> PagedWriteStats {
    store.clone().persist_to(path).unwrap()
}

#[test]
fn append_flushes_read_back_as_a_full_rewrite_of_the_same_store() {
    let (path, full) = (temp_path("diff.tapg"), temp_path("diff-full.tapg"));
    let _cleanup = (Cleanup(path.clone()), Cleanup(full.clone()));
    let mut rng = StdRng::seed_from_u64(71);
    let mut store = TemporalStore::new(history(3_000, 70, true));
    warm(&store, &CACHES);
    store.persist_to(&path).unwrap();
    for round in 0..6 {
        let before = PagedReader::open(&path).unwrap();
        let (rows, series) = (before.read_relation().unwrap(), series_of(&before));
        let mut held = PageCursor::new(&before, Interval::ALL);
        let first = held.next_page(None).unwrap().unwrap();

        for (values, valid) in arrivals(&mut rng, round, 24, true) {
            store.insert(values, valid).unwrap();
        }
        if round == 3 {
            // A series new since the last flush is written whole.
            warm(&store, &[(AggKind::Min, Some(1))]);
        }
        let stats = store.flush().unwrap().unwrap();
        let want = rewritten(&store, &full);
        let case = format!("round {round}");
        // Round 3 writes the new series whole.
        assert!(
            round == 3 || stats.bytes_written * 10 < want.bytes_written,
            "{case}: the flush wrote {} B where a rewrite writes {} B",
            stats.bytes_written,
            want.bytes_written
        );
        assert!(pager::exists(&pager::delta_path(&path)), "{case}");
        let reader = PagedReader::open(&path).unwrap();
        assert!(!reader.overflow_lane().is_empty() && !reader.main_lane().is_empty());
        let bytes = |path: &Path| std::fs::metadata(path).unwrap().len();
        let on_disk = bytes(&path) + bytes(&pager::delta_path(&path));
        assert_eq!(stats.file_bytes, on_disk, "{case}");
        assert_same_version(&reader, &PagedReader::open(&full).unwrap(), &case);

        // What was opened before the append reads its own version, a
        // cursor held across the flush included.
        let mut read: Vec<Tuple> = first.clone().into_tuples().collect();
        while let Some(batch) = held.next_page(None).unwrap() {
            read.extend(batch.into_tuples());
        }
        assert_eq!(read, rows.tuples(), "{case}: held cursor");
        assert_eq!(before.read_relation().unwrap().tuples(), rows.tuples());
        assert_eq!(series_of(&before), series, "{case}: held series");
    }
    // A reopened store answers from base + delta.
    let reopened = TemporalStore::open(&path).unwrap();
    for (kind, column) in CACHES {
        assert_eq!(
            reopened.snapshot(kind, column).as_deref(),
            store.snapshot(kind, column).as_deref()
        );
    }
    assert_eq!(
        reopened.into_relation().unwrap().tuples(),
        store.relation().tuples()
    );
}

/// The count beside the time: at n = 16,384, each of eight in-order
/// 64-row flushes writes at most 5 % of what a full rewrite of the same
/// store writes.
#[test]
fn an_in_order_flush_writes_a_small_share_of_a_rewrite() {
    let (path, full) = (temp_path("share.tapg"), temp_path("share-full.tapg"));
    let _cleanup = (Cleanup(path.clone()), Cleanup(full.clone()));
    let mut rng = StdRng::seed_from_u64(73);
    let mut store = TemporalStore::new(history(16_384, 72, false));
    warm(&store, &CACHES[..2]);
    let initial = store.persist_to(&path).unwrap();
    assert!(initial.sorted);
    for round in 0..8 {
        for (values, valid) in arrivals(&mut rng, round, 64, false) {
            store.insert(values, valid).unwrap();
        }
        let appended = store.flush().unwrap().unwrap();
        let rewrite = rewritten(&store, &full);
        assert_eq!(rewrite.bytes_written, rewrite.file_bytes);
        let share = appended.bytes_written as f64 / rewrite.bytes_written as f64;
        assert!(
            share <= 0.05,
            "round {round}: {} B appended, {} B rewritten ({:.1} %)",
            appended.bytes_written,
            rewrite.bytes_written,
            100.0 * share
        );
    }
}

/// Insert round `round`'s `count` arrivals into `store` and flush them.
fn arrive(
    store: &mut TemporalStore,
    rng: &mut StdRng,
    round: i64,
    count: usize,
) -> PagedWriteStats {
    for (values, valid) in arrivals(rng, round, count, false) {
        store.insert(values, valid).unwrap();
    }
    store.flush().unwrap().unwrap()
}

/// A `DELETE`, an `UPDATE`, an out-of-order row, a row that moves the
/// long-lived cut, a new path and another writer's commit each make the
/// next flush a rewrite, which removes the delta; so does a delta about to
/// outgrow its file. Each leaves the file reading as the store.
#[test]
fn every_other_flush_rewrites_the_file_and_drops_the_delta() {
    let path = temp_path("rules.tapg");
    let moved = temp_path("rules-moved.tapg");
    let _cleanup = (Cleanup(path.clone()), Cleanup(moved.clone()));
    let rng = &mut StdRng::seed_from_u64(75);
    let delta = pager::delta_path(&path);
    let mut store = TemporalStore::new(history(1_500, 74, false));
    warm(&store, &CACHES[..2]);
    store.persist_to(&path).unwrap();
    let mut round = 0;
    let mut append = |store: &mut TemporalStore, rng: &mut StdRng| {
        round += 1;
        let stats = arrive(store, rng, round, 8);
        assert!(
            stats.bytes_written < stats.file_bytes,
            "round {round} appends"
        );
        assert!(pager::exists(&delta));
    };
    let reads_as = |store: &TemporalStore, what: &str| {
        let reopened = TemporalStore::open(&path).unwrap();
        assert_eq!(
            reopened.into_relation().unwrap().tuples(),
            store.relation().tuples(),
            "{what}"
        );
    };
    let compacts = |stats: PagedWriteStats, store: &TemporalStore, what: &str| {
        assert_eq!(stats.bytes_written, stats.file_bytes, "{what} rewrites");
        assert!(!pager::exists(&delta), "{what} drops the delta");
        reads_as(store, what);
    };
    let flushed = |store: &mut TemporalStore| store.flush().unwrap().unwrap();

    append(&mut store, rng);
    let first = |t: &Tuple| t.value(0) == &Value::from("late") && t.valid().start().get() < 900_200;
    store.delete_where(first).unwrap();
    compacts(flushed(&mut store), &store, "a DELETE");
    append(&mut store, rng);
    store
        .update_where(|t| t.valid().start().get() < 1_000, &[(1, Value::Int(7))])
        .unwrap();
    compacts(flushed(&mut store), &store, "an UPDATE");
    // Each of the next two rows leaves the file unsorted, or its lifespan
    // moved, until a DELETE takes it out again.
    let odd = |t: &Tuple| t.value(0) == &Value::from("odd");
    for (valid, what) in [
        (Interval::at(5, 50), "a row out of order"),
        (Interval::at(999_999, 5_000_000), "a row that moves the cut"),
    ] {
        append(&mut store, rng);
        store
            .insert(vec![Value::from("odd"), Value::Int(3)], valid)
            .unwrap();
        compacts(flushed(&mut store), &store, what);
        store.delete_where(odd).unwrap();
        compacts(flushed(&mut store), &store, "a DELETE");
    }

    // A new path: a rewrite there; the old file keeps its version.
    append(&mut store, rng);
    let old = PagedReader::open(&path).unwrap().tuple_count();
    for (values, valid) in arrivals(rng, 50, 8, false) {
        store.insert(values, valid).unwrap();
    }
    let stats = store.persist_to(&moved).unwrap();
    assert_eq!(stats.bytes_written, stats.file_bytes);
    assert_eq!(PagedReader::open(&path).unwrap().tuple_count(), old);
    store.persist_to(&path).unwrap();

    // Two writers of one file: the one whose version is not the newest
    // rewrites, and the last one wins.
    let mut other = TemporalStore::open(&path).unwrap();
    let stats = arrive(&mut store, rng, 51, 8);
    assert!(stats.bytes_written < stats.file_bytes);
    compacts(
        arrive(&mut other, rng, 52, 8),
        &other,
        "another writer's commit",
    );

    // Appends until the delta would outgrow its file: then a rewrite.
    let mut store = other;
    let base = std::fs::metadata(&path).unwrap().len();
    for round in 53.. {
        let stats = arrive(&mut store, rng, round, 8);
        if stats.bytes_written == stats.file_bytes {
            assert!(round > 60 && !pager::exists(&delta), "round {round}");
            break;
        }
        assert!(
            std::fs::metadata(&delta).unwrap().len() <= base,
            "round {round}"
        );
        assert!(round < 500, "the delta never outgrew its file");
    }
    reads_as(&store, "a delta as large as its file");
}

/// An in-memory delta file that crashes once `budget` is spent: each byte
/// written costs one, and so does each sync. A write that reaches the
/// budget is torn there; a sync that reaches it never happens.
struct Faulty {
    /// Every byte written so far.
    image: Vec<u8>,
    /// The file as the last sync left it.
    synced: Vec<u8>,
    budget: usize,
    spent: usize,
}

impl Faulty {
    /// What a crash can leave: every byte written; only what was synced;
    /// or every write's length and every in-place overwrite, but none of
    /// the bytes appended since the last sync (they read as zeros).
    fn crash_images(&self) -> [Vec<u8>; 3] {
        let mut lost = self.image.clone();
        if let Some(appended) = lost.get_mut(self.synced.len()..) {
            appended.fill(0);
        }
        [self.image.clone(), self.synced.clone(), lost]
    }
}

impl DeltaFile for Faulty {
    fn len(&mut self) -> std::io::Result<u64> {
        Ok(self.image.len() as u64)
    }

    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        let at = offset as usize;
        let bytes = self.image.get(at..at + buf.len());
        buf.copy_from_slice(bytes.ok_or(std::io::ErrorKind::UnexpectedEof)?);
        Ok(())
    }

    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> std::io::Result<()> {
        let kept = bytes.len().min(self.budget - self.spent);
        self.spent += kept;
        let at = offset as usize;
        if self.image.len() < at + kept {
            self.image.resize(at + kept, 0);
        }
        self.image[at..at + kept].copy_from_slice(&bytes[..kept]);
        match kept == bytes.len() {
            true => Ok(()),
            false => Err(std::io::Error::other("crashed")),
        }
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if self.spent == self.budget {
            return Err(std::io::Error::other("crashed"));
        }
        self.spent += 1;
        self.synced = self.image.clone();
        Ok(())
    }
}

/// What a reopened file holds: its rows and its series.
type State = (
    Vec<Tuple>,
    Vec<(String, Option<u32>, Vec<SeriesEntry<Value>>)>,
);

/// The version at `path`, which a store also opens.
fn reopened_state(path: &Path) -> State {
    TemporalStore::open(path).expect("a crashed append reopens");
    let reader = PagedReader::open(path).unwrap();
    (
        reader.read_relation().unwrap().tuples().to_vec(),
        series_of(&reader),
    )
}

/// What `open` alone reads of the version at `path`: its tuple count, its
/// fences (page checksums included) and its series records.
fn opened(path: &Path) -> (u64, Vec<PageFence>, Vec<SeriesRecord>) {
    TemporalStore::open(path).expect("a crashed append reopens");
    let reader = PagedReader::open(path).unwrap();
    let records = reader.series_directory().to_vec();
    (reader.tuple_count(), reader.fences().to_vec(), records)
}

/// `store`'s rows and series equal those of the version at `path`.
fn assert_reads_as(store: &TemporalStore, path: &Path) {
    let reopened = TemporalStore::open(path).unwrap();
    for (kind, column) in CACHES {
        let want = store
            .has_cache(kind, column)
            .then(|| store.snapshot(kind, column));
        let got = want.as_ref().map(|_| reopened.snapshot(kind, column));
        assert_eq!(got, want, "{kind:?}");
    }
    assert_eq!(
        reopened.into_relation().unwrap().tuples(),
        store.relation().tuples()
    );
}

/// `relation` and its two series written to `path` in 512-byte pages, and
/// the store reopened from there.
fn written_in_small_pages(relation: &TemporalRelation, path: &Path) -> TemporalStore {
    let seeded = TemporalStore::new(relation.clone());
    warm(&seeded, &CACHES[..2]);
    let caches = (CACHES[..2].iter())
        .map(|&(kind, column)| PersistedSeries {
            label: kind.name().to_string(),
            column: column.map(|c| c as u32),
            entries: seeded.snapshot(kind, column).unwrap().entries().to_vec(),
        })
        .collect();
    let options = PagedWriteOptions {
        page_size: 512,
        caches,
    };
    pager::write_relation(relation, path, &options).unwrap();
    TemporalStore::open(path).unwrap()
}

/// Crash an append at every byte it writes — a slot write torn at each of
/// its bytes among them — and before each of its syncs, keep what a crash
/// may keep ([`Faulty::crash_images`]), and reopen: never an error, and the
/// version before, or — once the new slot is whole — the version after.
/// `open` is checked at every crash, the rows and series read back at every
/// crash inside a slot write or before a sync, and at every eighth byte of
/// the rest. Once for the append that creates the delta, once for one that
/// extends it. Then a compaction crashed before its rename, and between its
/// rename and the delta's removal.
#[test]
fn a_crash_at_any_byte_of_an_append_reopens_to_before_or_after() {
    let path = temp_path("crash.tapg");
    let _cleanup = Cleanup(path.clone());
    let delta = pager::delta_path(&path);
    let mut rng = StdRng::seed_from_u64(77);
    written_in_small_pages(&history(512, 76, true), &path);

    for round in 0..2 {
        let initial = std::fs::read(&delta).unwrap_or_default();
        assert_eq!(initial.is_empty(), round == 0);
        let before = (opened(&path), reopened_state(&path));
        let mut store = TemporalStore::open(&path).unwrap();
        for (values, valid) in arrivals(&mut rng, round, 6, true) {
            store.insert(values, valid).unwrap();
        }
        let series: Vec<SeriesRuns> = (CACHES[..2].iter())
            .map(|&(kind, column)| SeriesRuns {
                label: kind.name().to_string(),
                column: column.map(|c| c as u32),
                runs: store
                    .view(DynAggregate::new(kind, ValueType::Int).unwrap(), column)
                    .unwrap(),
            })
            .collect();
        let committed = PagedReader::open(&path).unwrap();
        let append = |budget| {
            let mut file = Faulty {
                image: initial.clone(),
                synced: initial.clone(),
                budget,
                spent: 0,
            };
            let result = pager::append_to(&committed, store.relation(), &series, &mut file);
            (result, file)
        };
        let (whole, file) = append(usize::MAX);
        assert!(whole.unwrap().is_some(), "round {round} appends");
        let (total, complete) = (file.spent, file.image);
        std::fs::write(&delta, &complete).unwrap();
        assert_reads_as(&store, &path);
        let after = (opened(&path), reopened_state(&path));
        // The commit: the new slot's 64 bytes, then one sync.
        let committing = total - 1 - SLOT_BYTES..total;
        let mut last = [Vec::new(), Vec::new(), Vec::new()];
        for budget in 0..=total {
            let (result, file) = append(budget);
            assert_eq!(
                result.is_ok(),
                budget == total,
                "round {round}, budget {budget}"
            );
            let full = budget >= total - 1;
            let read_back = budget % 8 == 0
                || committing.contains(&budget)
                || file.image.len() <= SLOTS_BYTES as usize
                || file.synced == file.image;
            for (image, last) in file.crash_images().into_iter().zip(&mut last) {
                if image == *last {
                    continue;
                }
                std::fs::write(&delta, &image).unwrap();
                let case = format!("round {round}: crashed after {budget} of {total}");
                let got = opened(&path);
                let want = match got == after.0 && full {
                    true => &after,
                    false => &before,
                };
                assert!(got == want.0, "{case}: neither before nor after");
                assert!(
                    budget < total || want == &after,
                    "{case}: not after a whole commit"
                );
                if read_back {
                    assert!(reopened_state(&path) == want.1, "{case}: rows or series");
                }
                *last = image;
            }
        }
        std::fs::write(&delta, &complete).unwrap();
    }

    // A compaction stopped before its rename leaves a stray temp file and
    // the version before it; one stopped between the rename and the delta's
    // removal leaves a delta of another base, which is ignored.
    let before = reopened_state(&path);
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    std::fs::write(PathBuf::from(&tmp), b"half a file").unwrap();
    assert!(reopened_state(&path) == before);
    let mut store = TemporalStore::open(&path).unwrap();
    store
        .delete_where(|t| t.valid().start().get() < 1_000)
        .unwrap();
    let stale = std::fs::read(&delta).unwrap();
    store.flush().unwrap();
    assert!(!pager::exists(&delta));
    std::fs::write(&delta, &stale).unwrap();
    assert_reads_as(&store, &path);
}

/// A bit flip anywhere in a committed record is a `TempAggError::Storage`
/// where it lands: in the directory at `open`, in a page at its read, in a
/// series stretch at that series' read — pages first, stretches after them.
#[test]
fn a_bit_flip_in_a_delta_record_is_caught_where_it_lands() {
    let path = temp_path("flips.tapg");
    let _cleanup = Cleanup(path.clone());
    let delta = pager::delta_path(&path);
    let mut rng = StdRng::seed_from_u64(79);
    let mut store = written_in_small_pages(&history(1_000, 78, true), &path);
    for (values, valid) in arrivals(&mut rng, 0, 12, true) {
        store.insert(values, valid).unwrap();
    }
    store.flush().unwrap();
    let bytes = std::fs::read(&delta).unwrap();
    let slot = Slot::decode(&bytes[64..128]).expect("the first append commits slot 1");
    assert_eq!((slot.epoch, slot.len), (1, bytes.len() as u64));
    let is_storage = |e: &TempAggError| matches!(e, TempAggError::Storage { .. });
    let (mut pages_hit, mut series_hit) = (0, 0);
    for at in (SLOTS_BYTES as usize..bytes.len()).step_by(3) {
        let mut bad = bytes.clone();
        bad[at] ^= 0x10;
        std::fs::write(&delta, &bad).unwrap();
        let opened = PagedReader::open(&path);
        if at as u64 >= slot.directory {
            assert!(
                opened.as_ref().is_err_and(is_storage),
                "directory byte {at}"
            );
            continue;
        }
        let reader = opened.unwrap();
        let page = (0..reader.page_count()).find_map(|i| reader.read_page(i, None).err());
        let series = (0..reader.series_directory().len()).find_map(|i| reader.series(i).err());
        match (page, series) {
            (Some(e), None) if is_storage(&e) => {
                assert_eq!(series_hit, 0, "page byte {at} after a stretch");
                pages_hit += 1;
            }
            (None, Some(e)) if is_storage(&e) => series_hit += 1,
            other => panic!("byte {at}: {other:?}"),
        }
    }
    assert!(pages_hit > 0 && series_hit > 0);
    std::fs::write(&delta, &bytes).unwrap();
    // A reopened store that finds its series bad rebuilds it.
    let reopened = TemporalStore::open(&path).unwrap();
    assert_eq!(
        reopened.snapshot(AggKind::Sum, Some(1)).as_deref(),
        store.snapshot(AggKind::Sum, Some(1)).as_deref()
    );
}
