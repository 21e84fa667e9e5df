//! File-backed reader/writer for the paged columnar format.
//!
//! [`write_relation`] streams a [`TemporalRelation`] (plus optional
//! persisted aggregate series) onto a `.tmp` sibling, each section
//! checksummed as it goes by, and renames it into place; a sorted
//! relation's long-lived tuples go to an overflow lane of pages after the
//! main lane, so a window's scan skips the pages they would otherwise
//! stretch across it. [`PagedReader`] is
//! the out-of-core half: `open` reads only the header, schema and directory;
//! a page stays on disk until [`PagedReader::read_page`] seeks to it, a
//! series block until [`PagedReader::series`] asks for it, and each is
//! verified then. Peak resident tuple memory of a paged scan is therefore one
//! decoded page, and `open` costs what it reads, whatever is stored.

use super::cursor::PageCursor;
use super::format::{
    decode_directory, decode_footer, decode_header, decode_page, decode_schema,
    decode_series_block, encode_directory, encode_entries, encode_header, encode_page,
    encode_schema, fnv1a64, plan_pages, relation_is_sorted, verify_header, Checksum, DecodedPage,
    FileHeader, LaneRecord, PageFence, PersistedSeries, SeriesRecord, DEFAULT_PAGE_BYTES,
    FORMAT_VERSION, HEADER_BYTES, MIN_PAGE_BYTES,
};
use crate::error::{Result, TempAggError};
use crate::interval::Interval;
use crate::relation::TemporalRelation;
use crate::schema::Schema;
use crate::series::SeriesEntry;
use crate::timestamp::Timestamp;
use crate::tuple::Tuple;
use crate::value::Value;
use std::borrow::Borrow;
use std::fs;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::ops::Range;
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

/// Summary of a completed [`write_relation`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagedWriteStats {
    pub tuples: usize,
    pub pages: usize,
    pub file_bytes: u64,
    /// Whether the sorted-by-`(start, end)` header flag was set.
    pub sorted: bool,
}

/// Series entries encoded, hashed and handed to the writer at a time.
const ENTRIES_PER_WRITE: usize = 4096;

/// A sorted relation's tuples split by [`Interval::is_long_lived`] over its
/// lifespan: the short ones (the main lane) and the long-lived ones (the
/// overflow lane), each still in storage order, and the cut. `None` when
/// either lane would be empty: the file then keeps one lane.
fn split_lanes(tuples: &[Tuple]) -> Option<([Vec<&Tuple>; 2], i64)> {
    let lifespan = tuples.iter().map(Tuple::valid).reduce(|a, b| a.hull(&b))?;
    let cut = lifespan.long_lived_cut();
    let (long, short): (Vec<&Tuple>, Vec<&Tuple>) =
        tuples.iter().partition(|t| t.valid().is_long_lived(cut));
    (!long.is_empty() && !short.is_empty()).then_some(([short, long], cut))
}

/// Encode, pad and write the pages `ranges` cut from `lane`, recording a
/// fence for each; `io` names a failed write.
fn write_pages<T: Borrow<Tuple>>(
    out: &mut impl Write,
    schema: &Schema,
    lane: &[T],
    ranges: &[Range<usize>],
    page_size: usize,
    fences: &mut Vec<PageFence>,
    io: impl Fn(std::io::Error) -> TempAggError,
) -> Result<()> {
    for range in ranges {
        // lint: allow(indexing): plan_pages emits in-bounds, contiguous ranges over the lane
        let run = &lane[range.clone()];
        let mut bytes = encode_page(schema, run)?;
        debug_assert!(bytes.len() <= page_size);
        bytes.resize(page_size, 0);
        let starts = run.iter().map(|t| t.borrow().valid().start());
        let ends = run.iter().map(|t| t.borrow().valid().end());
        fences.push(PageFence {
            min_start: starts.min().unwrap_or(Timestamp::FOREVER),
            max_end: ends.max().unwrap_or(Timestamp::MIN),
            tuples: run.len() as u32,
            checksum: Checksum::of(&bytes),
        });
        out.write_all(&bytes).map_err(&io)?;
    }
    Ok(())
}

/// Encode `relation` into the paged columnar format and atomically write
/// it to `path` (temp file + rename; a crash mid-write never leaves a
/// half-written file at `path`). The sorted header flag is set iff the
/// tuples are `(start, end)`-sorted. A sorted relation with both short and
/// long-lived tuples ([`Interval::is_long_lived`] over its lifespan) is
/// written as two lanes — the short tuples' pages, then the long-lived
/// ones' — each in storage order; [`PagedReader::read_relation`] and every
/// [`PageCursor`] merge them back into it. Any other relation is one lane,
/// its storage order preserved byte-exactly. One pass over the pages,
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
    let lanes = if sorted { split_lanes(tuples) } else { None };
    let (main, overflow) = match &lanes {
        Some(([short, long], _)) => (
            plan_pages(schema, short, options.page_size)?,
            plan_pages(schema, long, options.page_size)?,
        ),
        None => (plan_pages(schema, tuples, options.page_size)?, Vec::new()),
    };
    let lane_record = lanes.as_ref().map(|(_, cut)| LaneRecord {
        main_pages: main.len() as u64,
        cut: *cut,
    });
    let pages = main.len() + overflow.len();
    let page_size = options.page_size as usize;
    let footer_offset = (HEADER_BYTES + schema_block.len() + pages * page_size) as u64;
    let mut header = FileHeader {
        version: FORMAT_VERSION,
        sorted,
        overflow_lane: lane_record.is_some(),
        page_size: options.page_size,
        column_count: schema.len() as u32,
        tuple_count: tuples.len() as u64,
        page_count: pages as u64,
        footer_offset,
        schema_len: schema_block.len() as u32,
        directory_offset: footer_offset,
    };
    let mut file_bytes = 0;

    super::replace_atomically(path, |tmp, file| {
        let io = |e: std::io::Error| storage_at(tmp, format!("write failed: {e}"));
        let mut out = BufWriter::with_capacity(1 << 20, file);
        out.write_all(&[0; HEADER_BYTES]).map_err(io)?;
        out.write_all(&schema_block).map_err(io)?;

        let mut fences = Vec::with_capacity(pages);
        match &lanes {
            Some(([short, long], _)) => {
                write_pages(&mut out, schema, short, &main, page_size, &mut fences, io)?;
                write_pages(
                    &mut out,
                    schema,
                    long,
                    &overflow,
                    page_size,
                    &mut fences,
                    io,
                )?;
            }
            None => write_pages(&mut out, schema, tuples, &main, page_size, &mut fences, io)?,
        }

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

        let directory = encode_directory(
            &fences,
            lane_record.as_ref(),
            &series,
            header.directory_offset,
        )?;
        out.write_all(&directory).map_err(io)?;
        file_bytes = header.directory_offset + directory.len() as u64;
        out.seek(SeekFrom::Start(0)).map_err(io)?;
        out.write_all(&encode_header(&header, &schema_block))
            .map_err(io)?;
        out.flush().map_err(io)
    })?;
    Ok(PagedWriteStats {
        tuples: tuples.len(),
        pages,
        file_bytes,
        sorted: header.sorted,
    })
}

/// What a [`PagedReader`] has read since it was opened, cumulative over
/// every scan, store and thread that shares it. Reading the counters costs
/// three relaxed loads, so a long-running process can scrape them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PagerMetrics {
    /// Pages read and verified ([`PagedReader::read_page`]).
    pub pages_read: u64,
    /// Series blocks read and verified ([`PagedReader::series`]). A version
    /// 1 footer's series, decoded at `open`, are not counted.
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

/// Out-of-core reader over a paged relation file.
///
/// `open` materialises only the metadata (header, schema, fences, series
/// directory); tuple pages are fetched on demand with [`read_page`] and
/// series blocks with [`series`], each verified against its directory
/// checksum before being decoded. Reads go through `&File` positioned
/// reads, so a `PagedReader` can be shared immutably by sequential scans;
/// [`metrics`] counts them.
///
/// [`read_page`]: PagedReader::read_page
/// [`series`]: PagedReader::series
/// [`metrics`]: PagedReader::metrics
#[derive(Debug)]
pub struct PagedReader {
    file: fs::File,
    path: PathBuf,
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
    counters: Counters,
}

impl PagedReader {
    /// Open `path`, validating magic, version, header and directory
    /// checksums, and the file's length against the recorded one. Any
    /// truncation, or corruption of what is read here, is a
    /// [`TempAggError::Storage`]; pages and series blocks are verified when
    /// read. Never panics on hostile input, nor allocates by an unbounded field.
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
        let header = decode_header(&first).map_err(|e| storage_at(path, e))?;
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

        // The one place the two versions part: which checksum vouches for
        // the file, and whether its tail is a directory or a whole footer.
        let v1 = header.version == 1;
        let sum: fn(&[u8]) -> u64 = if v1 { fnv1a64 } else { Checksum::of };
        verify_header(&first, &schema_block, sum).map_err(|e| storage_at(path, e))?;
        let schema =
            decode_schema(&schema_block, header.column_count).map_err(|e| storage_at(path, e))?;
        let mut tail = vec![0u8; tail_len as usize];
        file.seek(SeekFrom::Start(tail_at))
            .and_then(|_| file.read_exact(&mut tail))
            .map_err(|e| storage_at(path, format!("directory read failed: {e}")))?;
        let (fences, lanes, directory, eager) = if v1 {
            let (fences, directory, eager) =
                decode_footer(&tail, header.page_count).map_err(|e| storage_at(path, e))?;
            (fences, None, directory, eager)
        } else {
            let (fences, lanes, directory) =
                decode_directory(&tail, &header, file_len).map_err(|e| storage_at(path, e))?;
            (fences, lanes, directory, Vec::new())
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

    /// Per-page min-start/max-end fences (the pruning index), in file
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

    /// One record per aggregate series the file persists, in file order:
    /// what `open` knows of them without having read one.
    pub fn series_directory(&self) -> &[SeriesRecord] {
        &self.directory
    }

    /// Read series `index` of the [directory](PagedReader::series_directory):
    /// its block's bytes, held against the record's checksum, then decoded.
    /// Nothing is kept: a second call reads the block again.
    pub fn series(&self, index: usize) -> Result<Vec<SeriesEntry<Value>>> {
        if let Some(entries) = self.eager.get(index) {
            return Ok(entries.clone());
        }
        let record = self
            .directory
            .get(index)
            .ok_or_else(|| storage_at(&self.path, format!("no series {index} in the directory")))?;
        let what = format_args!("series block `{}`", record.label);
        let bytes = self.read_verified(record.offset, record.len, record.checksum, what)?;
        self.counters
            .series_blocks_read
            .fetch_add(1, Ordering::Relaxed);
        decode_series_block(&bytes, record).map_err(|e| storage_at(&self.path, e))
    }

    /// Smallest start / largest end across all fences, as an interval —
    /// the lifespan of the stored relation (`None` when empty).
    pub fn lifespan(&self) -> Option<Interval> {
        let min_start = self.fences.iter().map(|f| f.min_start).min()?;
        let max_end = self.fences.iter().map(|f| f.max_end).max()?;
        Interval::new(min_start, max_end).ok()
    }

    /// Indices of pages whose fences overlap `window`, in file order.
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

    /// `len` bytes at `offset`, held against `checksum` before anyone sees
    /// them. `open` bounded both by the file's length.
    fn read_verified(
        &self,
        offset: u64,
        len: u64,
        checksum: u64,
        what: impl std::fmt::Display,
    ) -> Result<Vec<u8>> {
        let mut bytes = vec![0u8; len as usize];
        // Positioned reads through &File keep the reader shareable.
        let mut at = &self.file;
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
        let offset = self.header.data_offset() + index as u64 * page_size;
        let what = format_args!("page {index}");
        let bytes = self.read_verified(offset, page_size, fence.checksum, what)?;
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
