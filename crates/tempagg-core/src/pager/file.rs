//! File-backed reader/writer for the paged columnar format.
//!
//! [`write_relation`] streams a [`TemporalRelation`] (plus optional
//! persisted aggregate series) onto a `.tmp` sibling, each section
//! checksummed as it goes by, syncs it and renames it into place; a sorted
//! relation's long-lived tuples go to an overflow lane of pages after the
//! main lane, so a window's scan skips the pages they would otherwise
//! stretch across it. [`append_relation`] is the other way to write: rows
//! appended in storage order go to the file's delta sidecar
//! ([`super::delta`]) as the pages and series runs they change, and the
//! file itself is not touched. [`PagedReader`] is the out-of-core half:
//! `open` reads only the header, the schema and the directory in force —
//! the base's, or the newest committed delta record's; a page stays on disk
//! until [`PagedReader::read_page`] seeks to it, a series until
//! [`PagedReader::series`] asks for it, and each is verified then. Peak
//! resident tuple memory of a paged scan is therefore one decoded page, and
//! `open` costs what it reads, whatever is stored.

use super::cursor::PageCursor;
use super::delta::{
    decode_delta_directory, delta_path, encode_delta_directory, newest_slot, DeltaDirectory,
    DeltaFile, Extent, Place, Slot, SLOTS_BYTES, SLOT_BYTES,
};
use super::format::{
    cut_pages, decode_directory, decode_entries, decode_footer, decode_header, decode_page,
    decode_schema, decode_series_block, encode_directory, encode_entries, encode_header,
    encode_page, encode_schema, fnv1a64, relation_is_sorted, verify_header, ByteReader, Checksum,
    DecodedPage, FileHeader, LaneRecord, PageFence, PersistedSeries, SeriesRecord,
    DEFAULT_PAGE_BYTES, FORMAT_VERSION, HEADER_BYTES, MIN_PAGE_BYTES,
};
use crate::error::{Result, TempAggError};
use crate::interval::Interval;
use crate::relation::TemporalRelation;
use crate::schema::Schema;
use crate::series::SeriesEntry;
use crate::timestamp::Timestamp;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::version::SeriesView;
use std::fs;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn storage_at(path: &Path, detail: impl std::fmt::Display) -> TempAggError {
    TempAggError::storage(format!("{}: {detail}", path.display()))
}

/// Options controlling [`write_relation`].
#[derive(Debug, Clone)]
pub struct PagedWriteOptions {
    /// Fixed page size in bytes (default 8 KiB, the paper's I/O unit).
    pub page_size: u32,
    /// Cached aggregate series to persist, one block each.
    pub caches: Vec<PersistedSeries>,
}

impl Default for PagedWriteOptions {
    fn default() -> Self {
        PagedWriteOptions {
            page_size: DEFAULT_PAGE_BYTES,
            caches: Vec::new(),
        }
    }
}

/// Summary of a completed [`write_relation`] or [`append_relation`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedWriteStats {
    pub tuples: usize,
    pub pages: usize,
    /// Bytes of the version written: the file's, plus its delta's committed
    /// length after an append.
    pub file_bytes: u64,
    /// Bytes this call wrote: the whole file for a rewrite, the record and
    /// the slots for an append.
    pub bytes_written: u64,
    /// Whether the sorted-by-`(start, end)` header flag was set.
    pub sorted: bool,
}

/// Series entries encoded, hashed and handed to the writer at a time.
const ENTRIES_PER_WRITE: usize = 4096;

/// The long-lived cut of a sorted relation that has both short and
/// long-lived tuples ([`Interval::is_long_lived`] over its lifespan), and so
/// two lanes; `None` when either lane would be empty: the file then keeps
/// one lane.
fn lane_cut(tuples: &[Tuple]) -> Option<i64> {
    let lifespan = tuples.iter().map(Tuple::valid).reduce(|a, b| a.hull(&b))?;
    let cut = lifespan.long_lived_cut();
    let long = tuples
        .iter()
        .filter(|t| t.valid().is_long_lived(cut))
        .count();
    (0 < long && long < tuples.len()).then_some(cut)
}

/// Which lane `tuple` belongs to under `cut`: 0 the main lane (every tuple
/// of a file with one lane, `cut = None`), 1 the overflow lane.
fn lane_of(tuple: &Tuple, cut: Option<i64>) -> usize {
    usize::from(cut.is_some_and(|cut| tuple.valid().is_long_lived(cut)))
}

/// Encode one page padded to `page_size`, and its fence.
fn padded_page(schema: &Schema, page: &[&Tuple], page_size: u32) -> Result<(Vec<u8>, PageFence)> {
    let mut bytes = encode_page(schema, page)?;
    debug_assert!(bytes.len() <= page_size as usize);
    bytes.resize(page_size as usize, 0);
    let fence = PageFence {
        min_start: (page.iter().map(|t| t.valid().start()).min()).unwrap_or(Timestamp::FOREVER),
        max_end: (page.iter().map(|t| t.valid().end()).max()).unwrap_or(Timestamp::MIN),
        tuples: page.len() as u32,
        checksum: Checksum::of(&bytes),
    };
    Ok((bytes, fence))
}

/// Encode `relation` into the paged columnar format and atomically write
/// it to `path` (temp file, `sync_all`, rename, then `sync_all` of the
/// directory; a crash mid-write never leaves a half-written file at
/// `path`), then remove the delta beside `path`, if any: the file is the
/// whole version again. The sorted header flag is set iff the tuples are
/// `(start, end)`-sorted. A sorted relation with both short and long-lived
/// tuples ([`Interval::is_long_lived`] over its lifespan) is written as two
/// lanes — the short tuples' pages, then the long-lived ones' — each in
/// storage order; [`PagedReader::read_relation`] and every [`PageCursor`]
/// merge them back into it. Any other relation is one lane, its storage
/// order preserved byte-exactly. Each lane is one walk over the relation,
/// holding one page or one stretch of a series at a time; the header goes
/// last, over the place kept for it, as it locates the directory.
pub fn write_relation(
    relation: &TemporalRelation,
    path: &Path,
    options: &PagedWriteOptions,
) -> Result<PagedWriteStats> {
    if options.page_size < MIN_PAGE_BYTES {
        return Err(TempAggError::storage(format!(
            "page size {} below minimum {MIN_PAGE_BYTES}",
            options.page_size
        )));
    }
    let schema = relation.schema();
    let schema_block = encode_schema(schema)?;
    let tuples = relation.tuples();
    let sorted = relation_is_sorted(relation);
    let cut = if sorted { lane_cut(tuples) } else { None };
    let data_offset = (HEADER_BYTES + schema_block.len()) as u64;
    let mut header = FileHeader {
        version: FORMAT_VERSION,
        sorted,
        overflow_lane: cut.is_some(),
        page_size: options.page_size,
        column_count: schema.len() as u32,
        tuple_count: tuples.len() as u64,
        page_count: 0,
        footer_offset: data_offset,
        schema_len: schema_block.len() as u32,
        directory_offset: data_offset,
    };
    let mut file_bytes = 0;

    super::replace_atomically(path, |tmp, file| {
        let io = |e: std::io::Error| storage_at(tmp, format!("write failed: {e}"));
        let mut out = BufWriter::with_capacity(1 << 20, file);
        out.write_all(&[0; HEADER_BYTES]).map_err(io)?;
        out.write_all(&schema_block).map_err(io)?;

        let mut fences = Vec::new();
        let mut main_pages = 0;
        for lane in 0..1 + usize::from(cut.is_some()) {
            let members = tuples.iter().filter(|t| lane_of(t, cut) == lane);
            cut_pages(schema, options.page_size, members, |page| {
                let (bytes, fence) = padded_page(schema, page, options.page_size)?;
                fences.push(fence);
                out.write_all(&bytes).map_err(io)
            })?;
            if lane == 0 {
                main_pages = fences.len();
            }
        }
        header.page_count = fences.len() as u64;
        header.footer_offset = data_offset + header.page_count * u64::from(options.page_size);
        header.directory_offset = header.footer_offset;

        let mut series = Vec::with_capacity(options.caches.len());
        let mut stretch = Vec::new();
        for cache in &options.caches {
            let (offset, mut sum) = (header.directory_offset, Checksum::default());
            for entries in cache.entries.chunks(ENTRIES_PER_WRITE) {
                stretch.clear();
                encode_entries(&mut stretch, entries)?;
                sum.update(&stretch);
                out.write_all(&stretch).map_err(io)?;
                header.directory_offset += stretch.len() as u64;
            }
            series.push(SeriesRecord {
                label: cache.label.clone(),
                column: cache.column,
                runs: cache.entries.len() as u64,
                offset,
                len: header.directory_offset - offset,
                checksum: sum.finish(),
            });
        }

        let lanes = cut.map(|cut| LaneRecord {
            main_pages: main_pages as u64,
            cut,
        });
        let directory =
            encode_directory(&fences, lanes.as_ref(), &series, header.directory_offset)?;
        out.write_all(&directory).map_err(io)?;
        file_bytes = header.directory_offset + directory.len() as u64;
        out.seek(SeekFrom::Start(0)).map_err(io)?;
        out.write_all(&encode_header(&header, &schema_block))
            .map_err(io)?;
        out.flush().map_err(io)
    })?;
    super::remove_if_present(&delta_path(path))?;
    Ok(PagedWriteStats {
        tuples: tuples.len(),
        pages: header.page_count as usize,
        file_bytes,
        bytes_written: file_bytes,
        sorted,
    })
}

/// A cached series as [`append_relation`] writes it: its current runs,
/// shared with the cache that holds them (nothing is copied).
#[derive(Debug, Clone)]
pub struct SeriesRuns {
    /// Cache label and column, as in [`PersistedSeries`].
    pub label: String,
    pub column: Option<u32>,
    pub runs: SeriesView<Value>,
}

/// How many of `runs` end before `t`.
fn runs_before(runs: &SeriesView<Value>, t: Timestamp) -> usize {
    let mut count = 0;
    for chunk in runs.chunks() {
        let before = chunk.partition_point(|run| run.interval.end() < t);
        count += before;
        if before < chunk.len() {
            break;
        }
    }
    count
}

/// Write the rows `relation` holds past the version `committed` reads, and
/// `series`, as one record appended to the delta beside `committed`'s file
/// (DESIGN.md §15, "Appends"): the file itself is not touched, and the
/// version is committed once the record and then a slot naming it are
/// synced. `relation`'s first `committed.tuple_count()` rows must be the
/// committed version's, in storage order — true of a store whose writes
/// since were all inserts.
///
/// Returns `Ok(None)`, having committed nothing, when an append would not
/// write what a rewrite of `relation` writes, or the delta is not this
/// version's: the caller then rewrites the file ([`write_relation`]). An
/// append needs a version 3 file sorted by `(start, end)` that the new rows
/// keep sorted without moving its long-lived cut or its lane layout; a
/// delta whose newest commit is `committed`'s (or none, for a version read
/// off the file alone); and a delta that stays no larger than the file.
pub fn append_relation(
    committed: &PagedReader,
    relation: &TemporalRelation,
    series: &[SeriesRuns],
) -> Result<Option<PagedWriteStats>> {
    if committed.arrival_cut(relation).is_none() {
        return Ok(None);
    }
    let path = delta_path(&committed.path);
    let open_err = |e: std::io::Error| storage_at(&path, format!("open failed: {e}"));
    let fresh = committed.delta.is_none();
    if fresh {
        // No version of the file names this delta: what is there is some
        // other base's, an unfinished creation — or another writer's commit,
        // which only a rewrite may replace.
        match fs::File::open(&path) {
            Ok(mut stale) => {
                if newest_slot(&mut stale, committed.base_len, committed.base_sum)?.is_some() {
                    return Ok(None);
                }
                super::remove_if_present(&path)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(open_err(e)),
        }
    }
    let opened = (fs::OpenOptions::new().read(true).write(true))
        .create_new(fresh)
        .open(&path);
    if opened
        .as_ref()
        .is_err_and(|e| e.kind() == std::io::ErrorKind::NotFound)
    {
        return Ok(None);
    }
    let mut file = opened.map_err(open_err)?;
    let stats = append_to(committed, relation, series, &mut file)?;
    if fresh && stats.is_some() {
        super::sync_parent(&path)?;
    }
    Ok(stats)
}

/// [`append_relation`] into `delta`, the delta file of `committed`'s file:
/// the same rules, record and commit order, through [`DeltaFile`]'s writes
/// (a test puts a fault-injecting file behind them).
pub fn append_to(
    committed: &PagedReader,
    relation: &TemporalRelation,
    series: &[SeriesRuns],
    delta: &mut impl DeltaFile,
) -> Result<Option<PagedWriteStats>> {
    let Some(cut) = committed.arrival_cut(relation) else {
        return Ok(None);
    };
    let io =
        |e: std::io::Error| storage_at(&delta_path(&committed.path), format!("append failed: {e}"));
    let newest = newest_slot(delta, committed.base_len, committed.base_sum)?;
    if newest != committed.delta.as_ref().map(|(_, slot)| *slot) {
        return Ok(None);
    }
    let at = delta.len().map_err(io)?.max(SLOTS_BYTES);
    let arrivals = relation
        .tuples()
        .get(committed.tuple_count() as usize..)
        .unwrap_or_default();
    let schema = committed.schema.as_ref();
    let page_size = committed.header.page_size;
    let mut record = Vec::new();

    // Each lane that gains rows has its last page cut again with them.
    let main = committed.main_pages();
    let (mut fences, mut places) = (Vec::new(), Vec::new());
    let mut main_pages = 0;
    for (lane, pages) in [0..main, main..committed.page_count()]
        .into_iter()
        .enumerate()
    {
        let mut gained = arrivals
            .iter()
            .filter(|t| lane_of(t, cut) == lane)
            .peekable();
        let kept = match gained.peek() {
            Some(_) => pages.start..pages.end.saturating_sub(1),
            None => pages.clone(),
        };
        fences.extend_from_slice(committed.fences.get(kept.clone()).unwrap_or_default());
        places.extend(kept.clone().map(|page| committed.place(page)));
        if kept.end < pages.end {
            let tail: Vec<Tuple> = committed.read_page(kept.end, None)?.into_tuples().collect();
            cut_pages(schema, page_size, tail.iter().chain(gained), |page| {
                let (bytes, fence) = padded_page(schema, page, page_size)?;
                places.push(Place::Delta(at + record.len() as u64));
                fences.push(fence);
                record.extend_from_slice(&bytes);
                Ok(())
            })?;
        }
        if lane == 0 {
            main_pages = fences.len();
        }
    }

    // Each series from the run holding the instant before the earliest
    // arrival on; the runs before it are the committed ones.
    let from = arrivals
        .first()
        .map_or(Timestamp::MIN, |t| t.valid().start());
    let before = Timestamp::new(from.get().saturating_sub(1));
    let (mut records, mut extents) = (Vec::new(), Vec::new());
    for series in series {
        let (mut list, kept) = match committed.extents_of(&series.label, series.column) {
            Some(old) => {
                let kept = runs_before(&series.runs, before);
                let mut left = kept as u64;
                let mut list = Vec::new();
                for extent in old {
                    if left == 0 {
                        break;
                    }
                    let runs = extent.runs.min(left);
                    left -= runs;
                    list.push(Extent { runs, ..extent });
                }
                if left > 0 {
                    return Ok(None);
                }
                (list, kept)
            }
            None => (Vec::new(), 0),
        };
        let offset = record.len();
        let mut skip = kept;
        for chunk in series.runs.chunks() {
            let rest = chunk.get(skip.min(chunk.len())..).unwrap_or_default();
            skip -= chunk.len() - rest.len();
            encode_entries(&mut record, rest)?;
        }
        let runs = (series.runs.len() - kept) as u64;
        if runs > 0 {
            let stretch = record.get(offset..).unwrap_or_default();
            list.push(Extent {
                place: Place::Delta(at + offset as u64),
                len: stretch.len() as u64,
                checksum: Checksum::of(stretch),
                runs,
            });
        }
        records.push(SeriesRecord {
            label: series.label.clone(),
            column: series.column,
            runs: series.runs.len() as u64,
            ..SeriesRecord::default()
        });
        extents.push(list);
    }

    let pages = fences.len() as u64;
    let directory = at + record.len() as u64;
    record.extend(encode_delta_directory(&DeltaDirectory {
        fences,
        places,
        lanes: cut.map(|cut| LaneRecord {
            main_pages: main_pages as u64,
            cut,
        }),
        series: records,
        extents,
    })?);
    let len = at + record.len() as u64;
    if len > committed.base_len {
        return Ok(None);
    }
    let slot = Slot {
        epoch: newest.map_or(1, |slot| slot.epoch + 1),
        base_len: committed.base_len,
        base_sum: committed.base_sum,
        len,
        directory,
        tuples: relation.len() as u64,
        pages,
    };
    let mut written = record.len() + SLOT_BYTES;
    if newest.is_none() {
        // A new delta opens with the base's own version, synced before
        // anything is appended: a file with no valid slot is unfinished.
        let base = Slot {
            epoch: 0,
            len: SLOTS_BYTES,
            directory: 0,
            tuples: committed.tuple_count(),
            pages: committed.page_count() as u64,
            ..slot
        };
        let mut slots = base.encode().to_vec();
        slots.resize(SLOTS_BYTES as usize, 0);
        delta.write_at(0, &slots).map_err(io)?;
        delta.sync().map_err(io)?;
        written += slots.len();
    }
    delta.write_at(at, &record).map_err(io)?;
    delta.sync().map_err(io)?;
    delta.write_at(slot.offset(), &slot.encode()).map_err(io)?;
    delta.sync().map_err(io)?;
    Ok(Some(PagedWriteStats {
        tuples: relation.len(),
        pages: pages as usize,
        file_bytes: committed.base_len + len,
        bytes_written: written as u64,
        sorted: true,
    }))
}

/// What a [`PagedReader`] has read since it was opened, cumulative over
/// every scan, store and thread that shares it. Reading the counters costs
/// three relaxed loads, so a long-running process can scrape them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagerMetrics {
    /// Pages read and verified ([`PagedReader::read_page`]).
    pub pages_read: u64,
    /// Series read and verified ([`PagedReader::series`]), counted once per
    /// series however many extents it reads. A version 1 footer's series,
    /// decoded at `open`, are not counted.
    pub series_blocks_read: u64,
    /// Bytes held against a checksum after `open`: pages and series blocks.
    pub bytes_verified: u64,
}

/// The atomics behind [`PagerMetrics`]: the reader is shared through `Arc`
/// and read from scoped threads.
#[derive(Debug, Default)]
struct Counters {
    pages_read: AtomicU64,
    series_blocks_read: AtomicU64,
    bytes_verified: AtomicU64,
}

/// Out-of-core reader over one version of a paged relation file.
///
/// `open` materialises only the metadata (header, schema, fences, series
/// directory) of the newest committed version: the file's own, or that of
/// the delta record a [`Slot`] of the file's delta commits (DESIGN.md §15,
/// "Appends"). Tuple pages are fetched on demand with [`read_page`] and
/// series with [`series`], each verified against its directory checksum
/// before being decoded. Appends never write a byte a committed directory
/// references, so a reader keeps reading the version it opened whatever is
/// appended or compacted after. Reads go through `&File` positioned reads,
/// so a `PagedReader` can be shared immutably by sequential scans;
/// [`metrics`] counts them.
///
/// [`read_page`]: PagedReader::read_page
/// [`series`]: PagedReader::series
/// [`metrics`]: PagedReader::metrics
#[derive(Debug)]
pub struct PagedReader {
    file: fs::File,
    path: PathBuf,
    /// The file's header, with the version's tuple and page counts.
    header: FileHeader,
    schema: Arc<Schema>,
    fences: Vec<PageFence>,
    /// Where the main lane ends and the overflow lane begins; `None` for a
    /// file with one lane.
    lanes: Option<LaneRecord>,
    directory: Vec<SeriesRecord>,
    /// The file version's checksum function.
    sum: fn(&[u8]) -> u64,
    /// A version 1 footer has no blocks to come back to: its series, decoded
    /// at `open`, in directory order. Empty for any later version.
    eager: Vec<Vec<SeriesEntry<Value>>>,
    /// The file's identity as a delta names it: its length and the checksum
    /// its directory ends with (0 before version 3, which takes no delta).
    base_len: u64,
    base_sum: u64,
    /// The delta file and the slot of the version read, when the file has
    /// a delta of its own.
    delta: Option<(fs::File, Slot)>,
    /// While a delta record's directory is in force: where every page is,
    /// and every series' extents. Empty otherwise: pages sit back to back in
    /// the file, and each series is its block.
    places: Vec<Place>,
    extents: Vec<Vec<Extent>>,
    counters: Counters,
}

impl PagedReader {
    /// Open `path`, validating magic, version, header and directory
    /// checksums, and the file's length against the recorded one — or, when
    /// a delta beside it commits a later version of it, that version's slot
    /// and directory in place of the file's directory. Any truncation, or
    /// corruption of what is read here, is a [`TempAggError::Storage`];
    /// pages and series are verified when read. Never panics on hostile
    /// input, nor allocates by an unbounded field.
    pub fn open(path: &Path) -> Result<PagedReader> {
        let mut file =
            fs::File::open(path).map_err(|e| storage_at(path, format!("open failed: {e}")))?;
        let file_len = file
            .metadata()
            .map_err(|e| storage_at(path, format!("stat failed: {e}")))?
            .len();

        let mut first = [0u8; HEADER_BYTES];
        file.read_exact(&mut first)
            .map_err(|e| storage_at(path, format!("header read failed: {e}")))?;
        let mut header = decode_header(&first).map_err(|e| storage_at(path, e))?;
        // `decode_header` tied `footer_offset` to `schema_len`, so this holds
        // both against the file before either sizes a buffer.
        let tail_at = header.footer_offset.max(header.directory_offset);
        let Some(tail_len) = file_len.checked_sub(tail_at) else {
            let detail = format!("file truncated: {file_len} bytes, directory at {tail_at}");
            return Err(storage_at(path, detail));
        };
        let mut schema_block = vec![0u8; header.schema_len as usize];
        file.read_exact(&mut schema_block)
            .map_err(|e| storage_at(path, format!("schema read failed: {e}")))?;

        // The one place the versions part: which checksum vouches for the
        // file, whether its tail is a directory or a whole footer, and
        // whether a delta may extend it.
        let v1 = header.version == 1;
        let sum: fn(&[u8]) -> u64 = if v1 { fnv1a64 } else { Checksum::of };
        verify_header(&first, &schema_block, sum).map_err(|e| storage_at(path, e))?;
        let schema =
            decode_schema(&schema_block, header.column_count).map_err(|e| storage_at(path, e))?;
        let read_at = |file: &mut fs::File, offset, buf: &mut [u8]| {
            file.seek(SeekFrom::Start(offset))
                .and_then(|_| file.read_exact(buf))
                .map_err(|e| storage_at(path, format!("directory read failed: {e}")))
        };
        let (base_sum, delta) = if header.version == FORMAT_VERSION {
            let mut sum = [0u8; 8];
            read_at(&mut file, file_len.saturating_sub(8), &mut sum)?;
            let base_sum = u64::from_le_bytes(sum);
            (base_sum, open_delta(path, file_len, base_sum)?)
        } else {
            (0, None)
        };

        let (mut places, mut extents) = (Vec::new(), Vec::new());
        let (fences, lanes, directory, eager) = match &delta {
            Some((delta_file, slot)) if slot.directory != 0 => {
                let at = delta_path(path);
                let mut bytes = vec![0u8; (slot.len - slot.directory) as usize];
                let mut delta_file = delta_file;
                (delta_file.seek(SeekFrom::Start(slot.directory)))
                    .and_then(|_| delta_file.read_exact(&mut bytes))
                    .map_err(|e| storage_at(&at, format!("directory read failed: {e}")))?;
                let record = decode_delta_directory(&bytes, &header, slot)
                    .map_err(|e| storage_at(&at, e))?;
                header.tuple_count = slot.tuples;
                header.page_count = slot.pages;
                (places, extents) = (record.places, record.extents);
                (record.fences, record.lanes, record.series, Vec::new())
            }
            _ => {
                let mut tail = vec![0u8; tail_len as usize];
                read_at(&mut file, tail_at, &mut tail)?;
                if v1 {
                    let (fences, directory, eager) =
                        decode_footer(&tail, header.page_count).map_err(|e| storage_at(path, e))?;
                    (fences, None, directory, eager)
                } else {
                    let (fences, lanes, directory) = decode_directory(&tail, &header, file_len)
                        .map_err(|e| storage_at(path, e))?;
                    (fences, lanes, directory, Vec::new())
                }
            }
        };

        let fence_tuples: u64 = fences.iter().map(|f| u64::from(f.tuples)).sum();
        if fence_tuples != header.tuple_count {
            return Err(storage_at(
                path,
                format!(
                    "fence tuple counts sum to {fence_tuples}, header says {}",
                    header.tuple_count
                ),
            ));
        }

        Ok(PagedReader {
            file,
            path: path.to_path_buf(),
            header,
            schema,
            fences,
            lanes,
            directory,
            sum,
            eager,
            base_len: file_len,
            base_sum,
            delta,
            places,
            extents,
            counters: Counters::default(),
        })
    }

    /// What this reader has read since `open`.
    pub fn metrics(&self) -> PagerMetrics {
        let c = &self.counters;
        PagerMetrics {
            pages_read: c.pages_read.load(Ordering::Relaxed),
            series_blocks_read: c.series_blocks_read.load(Ordering::Relaxed),
            bytes_verified: c.bytes_verified.load(Ordering::Relaxed),
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Path the reader was opened from.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total tuples across all pages.
    pub fn tuple_count(&self) -> u64 {
        self.header.tuple_count
    }

    /// Number of fixed-size pages.
    pub fn page_count(&self) -> usize {
        self.fences.len()
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.header.page_size
    }

    /// Whether the file's tuples are globally `(start, end)`-sorted.
    pub fn sorted(&self) -> bool {
        self.header.sorted
    }

    /// Per-page min-start/max-end fences (the pruning index), in lane
    /// order: the main lane's, then the overflow lane's.
    pub fn fences(&self) -> &[PageFence] {
        &self.fences
    }

    /// Pages of the main lane: all of a file with one lane.
    fn main_pages(&self) -> usize {
        self.lanes
            .map_or(self.fences.len(), |lanes| lanes.main_pages as usize)
    }

    /// The main lane's fences: every page's for a file with one lane, the
    /// short tuples' pages' for a file with two. Sorted by `min_start` in a
    /// sorted file, so page-aligned partition seams come from here.
    pub fn main_lane(&self) -> &[PageFence] {
        self.fences.get(..self.main_pages()).unwrap_or_default()
    }

    /// The overflow lane's fences: the pages of the long-lived tuples,
    /// after the main lane's; empty for a file with one lane.
    pub fn overflow_lane(&self) -> &[PageFence] {
        self.fences.get(self.main_pages()..).unwrap_or_default()
    }

    /// The cut the writer split the lanes at — a tuple is in the overflow
    /// lane iff it is [long-lived](Interval::is_long_lived) under it; `None`
    /// for a file with one lane.
    pub fn long_lived_cut(&self) -> Option<i64> {
        self.lanes.map(|lanes| lanes.cut)
    }

    /// One record per aggregate series the version persists, in file
    /// order: what `open` knows of them without having read one.
    pub fn series_directory(&self) -> &[SeriesRecord] {
        &self.directory
    }

    /// Where page `index` is.
    fn place(&self, index: usize) -> Place {
        match self.places.get(index) {
            Some(place) => *place,
            None => Place::Base(
                self.header.data_offset() + index as u64 * u64::from(self.header.page_size),
            ),
        }
    }

    /// The extents of the series `(label, column)`: a delta record's, or
    /// the one block of the file's own directory.
    fn extents_of(&self, label: &str, column: Option<u32>) -> Option<Vec<Extent>> {
        let index = (self.directory.iter())
            .position(|record| record.label == label && record.column == column)?;
        if let Some(extents) = self.extents.get(index) {
            return Some(extents.clone());
        }
        let record = self.directory.get(index)?;
        Some(vec![Extent {
            place: Place::Base(record.offset),
            len: record.len,
            checksum: record.checksum,
            runs: record.runs,
        }])
    }

    /// Read series `index` of the [directory](PagedReader::series_directory):
    /// its block's bytes — or each of its extents' — held against the
    /// record's checksum, then decoded. Nothing is kept: a second call reads
    /// the series again.
    pub fn series(&self, index: usize) -> Result<Vec<SeriesEntry<Value>>> {
        if let Some(entries) = self.eager.get(index) {
            return Ok(entries.clone());
        }
        let record = self
            .directory
            .get(index)
            .ok_or_else(|| storage_at(&self.path, format!("no series {index} in the directory")))?;
        let what = format_args!("series block `{}`", record.label);
        let entries = match self.extents.get(index) {
            None => {
                let place = Place::Base(record.offset);
                let bytes = self.read_verified(place, record.len, record.checksum, what)?;
                decode_series_block(&bytes, record).map_err(|e| storage_at(&self.path, e))?
            }
            Some(extents) => {
                // `open` held the runs to the extents' bytes.
                let mut entries = Vec::with_capacity(usize::try_from(record.runs).unwrap_or(0));
                for extent in extents {
                    let bytes =
                        self.read_verified(extent.place, extent.len, extent.checksum, what)?;
                    let mut r = ByteReader::new(&bytes, "series extent");
                    let decoded = decode_entries(&mut r, extent.runs, &record.label)
                        .map_err(|e| storage_at(&self.path, e))?;
                    entries.extend(decoded);
                }
                entries
            }
        };
        self.counters
            .series_blocks_read
            .fetch_add(1, Ordering::Relaxed);
        Ok(entries)
    }

    /// Smallest start / largest end across all fences, as an interval —
    /// the lifespan of the stored relation (`None` when empty).
    pub fn lifespan(&self) -> Option<Interval> {
        let min_start = self.fences.iter().map(|f| f.min_start).min()?;
        let max_end = self.fences.iter().map(|f| f.max_end).max()?;
        Interval::new(min_start, max_end).ok()
    }

    /// Indices of pages whose fences overlap `window`, in lane order.
    /// Completeness is inherited from [`PageFence::overlaps`]: a page is
    /// skipped only if *no* tuple on it can intersect the window.
    pub fn pages_overlapping(&self, window: &Interval) -> Vec<usize> {
        self.fences
            .iter()
            .enumerate()
            .filter(|(_, f)| f.overlaps(window))
            .map(|(i, _)| i)
            .collect()
    }

    /// The lanes rows appended past this version go to under the append
    /// rules of [`append_relation`]: `Some(cut)` of a file with two lanes,
    /// `Some(None)` of one with one, `None` when `relation` cannot append.
    fn arrival_cut(&self, relation: &TemporalRelation) -> Option<Option<i64>> {
        let appendable = self.header.version == FORMAT_VERSION
            && self.header.sorted
            && relation.schema() == &self.schema;
        let tuples = relation.tuples();
        let last = usize::try_from(self.tuple_count()).ok()?.checked_sub(1)?;
        let span = tuples
            .get(last..)
            .filter(|span| appendable && span.len() > 1)?;
        let key = |t: &Tuple| (t.valid().start(), t.valid().end());
        if !span.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
            return None;
        }
        let committed = self.lifespan()?;
        let cut = committed.long_lived_cut();
        let lifespan = span
            .iter()
            .map(Tuple::valid)
            .fold(committed, |a, b| a.hull(&b));
        if lifespan.long_lived_cut() != cut || self.lanes.is_some_and(|lanes| lanes.cut != cut) {
            return None;
        }
        match self.lanes {
            Some(_) => Some(Some(cut)),
            // One lane: every row is of the class the first one is.
            None => {
                let class = |t: &Tuple| t.valid().is_long_lived(cut);
                let first = class(tuples.first()?);
                span.iter().all(|t| class(t) == first).then_some(None)
            }
        }
    }

    /// `len` bytes at `place`, held against `checksum` before anyone sees
    /// them. `open` bounded both by the file's length.
    fn read_verified(
        &self,
        place: Place,
        len: u64,
        checksum: u64,
        what: impl std::fmt::Display,
    ) -> Result<Vec<u8>> {
        let (file, offset) = match (place, &self.delta) {
            (Place::Base(offset), _) => (&self.file, offset),
            (Place::Delta(offset), Some((delta, _))) => (delta, offset),
            (Place::Delta(_), None) => {
                return Err(storage_at(&self.path, format!("{what} is in no delta")))
            }
        };
        let mut bytes = vec![0u8; len as usize];
        // Positioned reads through &File keep the reader shareable.
        let mut at = file;
        at.seek(SeekFrom::Start(offset))
            .and_then(|_| at.read_exact(&mut bytes))
            .map_err(|e| storage_at(&self.path, format!("{what} read failed: {e}")))?;
        if (self.sum)(&bytes) != checksum {
            return Err(storage_at(
                &self.path,
                format!("{what} checksum mismatch (corrupt {what})"),
            ));
        }
        self.counters
            .bytes_verified
            .fetch_add(len, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Read and decode page `index`, verifying its checksum first.
    /// `projection = None` decodes all columns; `Some(cols)` materialises
    /// only those (intervals always decode).
    pub fn read_page(&self, index: usize, projection: Option<&[usize]>) -> Result<DecodedPage> {
        let fence = self.fences.get(index).ok_or_else(|| {
            storage_at(
                &self.path,
                format!("page {index} out of range ({} pages)", self.fences.len()),
            )
        })?;
        let page_size = u64::from(self.header.page_size);
        let what = format_args!("page {index}");
        let bytes = self.read_verified(self.place(index), page_size, fence.checksum, what)?;
        self.counters.pages_read.fetch_add(1, Ordering::Relaxed);
        let page = decode_page(&self.schema, &bytes, projection)
            .map_err(|e| storage_at(&self.path, format!("page {index}: {e}")))?;
        if page.len() != fence.tuples as usize {
            return Err(storage_at(
                &self.path,
                format!(
                    "page {index} decoded {} tuples, fence says {}",
                    page.len(),
                    fence.tuples
                ),
            ));
        }
        Ok(page)
    }

    /// Materialise the whole file back into a resident
    /// [`TemporalRelation`], byte-identical to what was written: the two
    /// lanes of a file with two merged back into the written order.
    pub fn read_relation(&self) -> Result<TemporalRelation> {
        let mut relation = TemporalRelation::with_capacity(
            self.schema.clone(),
            usize::try_from(self.header.tuple_count).unwrap_or(0),
        );
        let mut cursor = PageCursor::full_scan(self, Interval::ALL);
        while let Some(batch) = cursor.next_page(None)? {
            for tuple in batch.into_tuples() {
                relation.push_tuple(tuple)?;
            }
        }
        Ok(relation)
    }
}

/// The delta beside `path` and the newest version it commits of the file
/// `(base_len, base_sum)`, if it has one (see [`newest_slot`]).
fn open_delta(path: &Path, base_len: u64, base_sum: u64) -> Result<Option<(fs::File, Slot)>> {
    let at = delta_path(path);
    let opened = fs::File::open(&at);
    if opened
        .as_ref()
        .is_err_and(|e| e.kind() == std::io::ErrorKind::NotFound)
    {
        return Ok(None);
    }
    let mut file = opened.map_err(|e| storage_at(&at, format!("open failed: {e}")))?;
    let slot = newest_slot(&mut file, base_len, base_sum).map_err(|e| storage_at(&at, e))?;
    Ok(slot.map(|slot| (file, slot)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::series::SeriesEntry;
    use crate::value::{Value, ValueType};

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tempagg-pager-{}-{name}", std::process::id()));
        p
    }

    fn sample_relation(n: i64) -> TemporalRelation {
        let schema = Schema::of(&[("amount", ValueType::Int), ("tag", ValueType::Str)]);
        let mut rel = TemporalRelation::new(schema);
        for i in 0..n {
            rel.push(
                vec![Value::Int(i), Value::from(format!("row{i}"))],
                Interval::at(i, i + 10),
            )
            .unwrap();
        }
        rel
    }

    #[test]
    fn write_then_read_roundtrips() {
        let path = temp_path("roundtrip.tapg");
        let rel = sample_relation(500);
        let stats = write_relation(
            &rel,
            &path,
            &PagedWriteOptions {
                page_size: 1024,
                caches: vec![PersistedSeries {
                    label: "COUNT".into(),
                    column: None,
                    entries: vec![SeriesEntry::new(Interval::at(0, 9), Value::Int(3))],
                }],
            },
        )
        .unwrap();
        assert_eq!(stats.tuples, 500);
        assert!(stats.pages > 1);
        assert!(stats.sorted);

        let reader = PagedReader::open(&path).unwrap();
        assert_eq!(reader.tuple_count(), 500);
        assert_eq!(reader.page_count(), stats.pages);
        assert!(reader.sorted());
        let [record] = reader.series_directory() else {
            panic!("one series was persisted");
        };
        assert_eq!((record.label.as_str(), record.runs), ("COUNT", 1));
        assert_eq!(
            reader.series(0).unwrap(),
            [SeriesEntry::new(Interval::at(0, 9), Value::Int(3))]
        );
        assert!(reader.series(1).is_err());
        let back = reader.read_relation().unwrap();
        assert_eq!(back.tuples(), rel.tuples());
        std::fs::remove_file(&path).ok();
    }

    /// `metrics` counts what was read after `open` — pages, series blocks,
    /// verified bytes — and nothing that `open` read or that could not be
    /// read.
    #[test]
    fn metrics_count_what_was_read() {
        let path = temp_path("metrics.tapg");
        let entries = vec![SeriesEntry::new(Interval::at(0, 9), Value::Int(3))];
        let options = PagedWriteOptions {
            page_size: 1024,
            caches: vec![PersistedSeries {
                label: "COUNT".into(),
                column: None,
                entries,
            }],
        };
        write_relation(&sample_relation(300), &path, &options).unwrap();
        let reader = PagedReader::open(&path).unwrap();
        assert_eq!(reader.metrics(), PagerMetrics::default());
        reader.read_page(1, Some(&[])).unwrap();
        reader.series(0).unwrap();
        assert!(reader.read_page(reader.page_count(), None).is_err());
        let block = reader.series_directory()[0].len;
        let read = reader.metrics();
        assert_eq!((read.pages_read, read.series_blocks_read), (1, 1));
        assert_eq!(read.bytes_verified, 1024 + block);
        reader.read_relation().unwrap();
        let pages = reader.page_count() as u64;
        assert_eq!(reader.metrics().pages_read, 1 + pages);
        std::fs::remove_file(&path).ok();
    }

    /// `DecodedPage::into_tuples` is the one page → rows loop: over an
    /// `INT`, a `STR` and a NULL-bearing column it yields exactly the rows
    /// `read_relation` returns, and a projected-out column reads as NULL.
    #[test]
    fn pages_materialise_into_the_rows_read_relation_returns() {
        use crate::schema::Column;
        let path = temp_path("rows.tapg");
        let schema = Schema::new(vec![
            Column::new("amount", ValueType::Int),
            Column::new("tag", ValueType::Str),
            Column::new("bonus", ValueType::Int).nullable(),
        ])
        .unwrap();
        let mut rel = TemporalRelation::new(schema);
        for i in 0..300i64 {
            let bonus = if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(-i)
            };
            let values = vec![Value::Int(i), Value::from(format!("row{i}")), bonus];
            rel.push(values, Interval::at(i, i + 10)).unwrap();
        }
        let options = PagedWriteOptions {
            page_size: 1024,
            caches: Vec::new(),
        };
        write_relation(&rel, &path, &options).unwrap();
        let reader = PagedReader::open(&path).unwrap();
        assert!(reader.page_count() > 2);

        let mut rows = Vec::new();
        let mut projected = Vec::new();
        for index in 0..reader.page_count() {
            rows.extend(reader.read_page(index, None).unwrap().into_tuples());
            projected.extend(reader.read_page(index, Some(&[0])).unwrap().into_tuples());
        }
        assert_eq!(rows, rel.tuples());
        assert_eq!(rows, reader.read_relation().unwrap().tuples());
        for (row, full) in projected.iter().zip(rel.tuples()) {
            assert_eq!(row.valid(), full.valid());
            assert_eq!(
                row.values(),
                [full.values()[0].clone(), Value::Null, Value::Null]
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fence_pruning_selects_expected_pages() {
        let path = temp_path("fences.tapg");
        let rel = sample_relation(400);
        write_relation(
            &rel,
            &path,
            &PagedWriteOptions {
                page_size: 512,
                caches: Vec::new(),
            },
        )
        .unwrap();
        let reader = PagedReader::open(&path).unwrap();
        let all = reader.pages_overlapping(&Interval::TIMELINE);
        assert_eq!(all.len(), reader.page_count());
        let narrow = reader.pages_overlapping(&Interval::at(100, 110));
        assert!(!narrow.is_empty());
        assert!(narrow.len() < all.len());
        // Oracle: every tuple overlapping the window lives on a kept page.
        let window = Interval::at(100, 110);
        for idx in 0..reader.page_count() {
            let page = reader.read_page(idx, Some(&[])).unwrap();
            let qualifies = page.intervals.iter().any(|iv| iv.overlaps(&window));
            if qualifies {
                assert!(narrow.contains(&idx), "pruned a qualifying page {idx}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_and_corruption_error_cleanly() {
        let path = temp_path("corrupt.tapg");
        let rel = sample_relation(200);
        write_relation(&rel, &path, &PagedWriteOptions::default()).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        // Truncations at structurally interesting lengths.
        for cut in [0, 7, 32, 63, 64, 80, bytes.len() / 2, bytes.len() - 1] {
            let tpath = temp_path("corrupt-cut.tapg");
            std::fs::write(&tpath, &bytes[..cut]).unwrap();
            let err = PagedReader::open(&tpath).unwrap_err();
            assert!(
                matches!(err, TempAggError::Storage { .. }),
                "cut {cut}: {err}"
            );
            std::fs::remove_file(&tpath).ok();
        }

        // A flipped byte in the page area is caught at read_page time.
        let mut bad = bytes.clone();
        let page_area = HEADER_BYTES + 64; // somewhere inside page 0
        bad[page_area] ^= 0xff;
        let tpath = temp_path("corrupt-flip.tapg");
        std::fs::write(&tpath, &bad).unwrap();
        let reader = PagedReader::open(&tpath).unwrap();
        let err = reader.read_page(0, None).unwrap_err();
        assert!(matches!(err, TempAggError::Storage { .. }));
        std::fs::remove_file(&tpath).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_relation_roundtrips() {
        let path = temp_path("empty.tapg");
        let rel = sample_relation(0);
        let stats = write_relation(&rel, &path, &PagedWriteOptions::default()).unwrap();
        assert_eq!(stats.pages, 0);
        let reader = PagedReader::open(&path).unwrap();
        assert_eq!(reader.tuple_count(), 0);
        assert!(reader.lifespan().is_none());
        assert_eq!(reader.read_relation().unwrap().len(), 0);
        std::fs::remove_file(&path).ok();
    }
}
