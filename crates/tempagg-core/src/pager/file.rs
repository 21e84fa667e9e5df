//! File-backed reader/writer for the paged columnar format.
//!
//! [`write_relation`] encodes a [`TemporalRelation`] (plus optional
//! persisted aggregate caches) and commits it atomically via
//! [`super::write_atomic`]. [`PagedReader`] is the out-of-core half: `open`
//! reads only the header, schema, fences, and cache section; page payloads
//! stay on disk until [`PagedReader::read_page`] seeks to them. Peak
//! resident tuple memory of a paged scan is therefore one decoded page,
//! regardless of relation size.

use super::format::{
    decode_footer, decode_header, decode_page, decode_schema, encode_footer, encode_header,
    encode_page, encode_schema, fnv1a64, plan_pages, relation_is_sorted, verify_header,
    DecodedPage, FileHeader, PageFence, PersistedSeries, DEFAULT_PAGE_BYTES, FORMAT_VERSION,
    HEADER_BYTES, MIN_PAGE_BYTES,
};
use crate::error::{Result, TempAggError};
use crate::interval::Interval;
use crate::relation::TemporalRelation;
use crate::schema::Schema;
use crate::timestamp::Timestamp;
use std::fs;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn storage_at(path: &Path, detail: impl std::fmt::Display) -> TempAggError {
    TempAggError::storage(format!("{}: {detail}", path.display()))
}

/// Options controlling [`write_relation`].
#[derive(Debug, Clone)]
pub struct PagedWriteOptions {
    /// Fixed page size in bytes (default 8 KiB, the paper's I/O unit).
    pub page_size: u32,
    /// Cached aggregate series to persist in the footer.
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

/// Encode `relation` into the paged columnar format and atomically write
/// it to `path` (temp file + rename; a crash mid-write never leaves a
/// half-written file at `path`). Storage order is preserved byte-exactly;
/// the sorted header flag is set iff the tuples are `(start, end)`-sorted.
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
    let ranges = plan_pages(schema, tuples, options.page_size)?;

    let page_size = options.page_size as usize;
    let mut pages = Vec::with_capacity(ranges.len() * page_size);
    let mut fences = Vec::with_capacity(ranges.len());
    for range in &ranges {
        // lint: allow(indexing): plan_pages emits in-bounds, contiguous ranges over tuples
        let run = &tuples[range.clone()];
        let mut bytes = encode_page(schema, run)?;
        debug_assert!(bytes.len() <= page_size);
        bytes.resize(page_size, 0);
        let min_start = run
            .iter()
            .map(|t| t.valid().start())
            .min()
            .unwrap_or(Timestamp::FOREVER);
        let max_end = run
            .iter()
            .map(|t| t.valid().end())
            .max()
            .unwrap_or(Timestamp::MIN);
        fences.push(PageFence {
            min_start,
            max_end,
            tuples: run.len() as u32,
            checksum: fnv1a64(&bytes),
        });
        pages.extend_from_slice(&bytes);
    }

    let header = FileHeader {
        version: FORMAT_VERSION,
        sorted: relation_is_sorted(relation),
        page_size: options.page_size,
        column_count: schema.len() as u32,
        tuple_count: tuples.len() as u64,
        page_count: ranges.len() as u64,
        footer_offset: HEADER_BYTES as u64 + schema_block.len() as u64 + pages.len() as u64,
        schema_len: schema_block.len() as u32,
    };

    let mut file_bytes = Vec::with_capacity(HEADER_BYTES + schema_block.len() + pages.len());
    file_bytes.extend_from_slice(&encode_header(&header, &schema_block));
    file_bytes.extend_from_slice(&schema_block);
    file_bytes.extend_from_slice(&pages);
    file_bytes.extend_from_slice(&encode_footer(&fences, &options.caches)?);

    super::write_atomic(path, &file_bytes)?;
    Ok(PagedWriteStats {
        tuples: tuples.len(),
        pages: ranges.len(),
        file_bytes: file_bytes.len() as u64,
        sorted: header.sorted,
    })
}

/// Out-of-core reader over a paged relation file.
///
/// `open` materialises only the metadata (header, schema, fences, cache
/// section); tuple pages are fetched on demand with [`read_page`], each
/// verified against its footer checksum before being decoded. Reads go
/// through `&File` positioned reads, so a `PagedReader` can be shared
/// immutably by sequential scans.
///
/// [`read_page`]: PagedReader::read_page
#[derive(Debug)]
pub struct PagedReader {
    file: fs::File,
    path: PathBuf,
    header: FileHeader,
    schema: Arc<Schema>,
    fences: Vec<PageFence>,
    caches: Vec<PersistedSeries>,
}

impl PagedReader {
    /// Open `path`, validating magic, version, header checksum, footer
    /// checksum, and size consistency. Any truncation or corruption is a
    /// [`TempAggError::Storage`]; this never panics on hostile input.
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

        let mut schema_block = vec![0u8; header.schema_len as usize];
        file.read_exact(&mut schema_block)
            .map_err(|e| storage_at(path, format!("schema read failed: {e}")))?;
        verify_header(&first, &schema_block).map_err(|e| storage_at(path, e))?;
        let schema =
            decode_schema(&schema_block, header.column_count).map_err(|e| storage_at(path, e))?;

        if file_len < header.footer_offset {
            return Err(storage_at(
                path,
                format!(
                    "file truncated: {file_len} bytes, pages end at {}",
                    header.footer_offset
                ),
            ));
        }
        let footer_len = (file_len - header.footer_offset) as usize;
        let mut footer = vec![0u8; footer_len];
        file.seek(SeekFrom::Start(header.footer_offset))
            .map_err(|e| storage_at(path, format!("footer seek failed: {e}")))?;
        file.read_exact(&mut footer)
            .map_err(|e| storage_at(path, format!("footer read failed: {e}")))?;
        let (fences, caches) =
            decode_footer(&footer, header.page_count).map_err(|e| storage_at(path, e))?;

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
            caches,
        })
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

    /// Per-page min-start/max-end fences (the pruning index).
    pub fn fences(&self) -> &[PageFence] {
        &self.fences
    }

    /// Aggregate caches persisted in the footer.
    pub fn caches(&self) -> &[PersistedSeries] {
        &self.caches
    }

    /// Take ownership of the persisted caches (used by `TemporalStore::open`).
    pub fn take_caches(&mut self) -> Vec<PersistedSeries> {
        std::mem::take(&mut self.caches)
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
        let page_size = self.header.page_size as usize;
        let offset = self.header.data_offset() + index as u64 * page_size as u64;
        let mut bytes = vec![0u8; page_size];
        // Positioned reads through &File keep `read_page` shareable.
        let mut at = &self.file;
        at.seek(SeekFrom::Start(offset))
            .map_err(|e| storage_at(&self.path, format!("page {index} seek failed: {e}")))?;
        at.read_exact(&mut bytes)
            .map_err(|e| storage_at(&self.path, format!("page {index} read failed: {e}")))?;
        if fnv1a64(&bytes) != fence.checksum {
            return Err(storage_at(
                &self.path,
                format!("page {index} checksum mismatch (corrupt page)"),
            ));
        }
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
    /// [`TemporalRelation`], byte-identical to what was written.
    pub fn read_relation(&self) -> Result<TemporalRelation> {
        let mut relation = TemporalRelation::with_capacity(
            self.schema.clone(),
            usize::try_from(self.header.tuple_count).unwrap_or(0),
        );
        for index in 0..self.fences.len() {
            for tuple in self.read_page(index, None)?.into_tuples() {
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
        assert_eq!(reader.caches().len(), 1);
        assert_eq!(reader.caches()[0].label, "COUNT");
        let back = reader.read_relation().unwrap();
        assert_eq!(back.tuples(), rel.tuples());
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
