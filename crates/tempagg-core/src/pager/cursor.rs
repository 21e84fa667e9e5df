//! Streaming scan abstraction over paged relations.
//!
//! [`TupleSource`] is the contract that replaces the implicit "relation is
//! a slice in memory" assumption: a source fills caller-owned [`Chunk`]s
//! until exhausted, so consumers (aggregators, joins) never see more than
//! one chunk plus one decoded page at a time. [`PageCursor`] walks a
//! [`PagedReader`]'s pages in file order, skipping pages whose directory
//! fences place them wholly outside the query window; [`UnitSource`] and
//! [`IntColumnSource`] adapt it to the two aggregate input shapes
//! (COUNT-style `()` and column-valued `i64`). [`SliceSource`] gives
//! resident data the same interface so paged and in-RAM paths share
//! driver code.

use super::file::PagedReader;
use super::format::DecodedPage;
use crate::chunk::Chunk;
use crate::error::{Result, TempAggError};
use crate::interval::Interval;
use crate::value::Value;

/// A pull-based producer of interval tuples in chunk-sized batches.
///
/// `next_chunk` appends tuples to `chunk` until the chunk is full or the
/// source is exhausted, returning `Ok(true)` if at least one tuple was
/// added. The canonical drive loop:
///
/// ```ignore
/// while source.next_chunk(&mut chunk)? {
///     aggregator.push_batch(&chunk)?;
///     chunk.clear();
/// }
/// ```
pub trait TupleSource<V> {
    /// Fill `chunk` with the next batch; `Ok(false)` means exhausted and
    /// nothing was added.
    fn next_chunk(&mut self, chunk: &mut Chunk<V>) -> Result<bool>;
}

/// Counters accumulated by a paged scan, used for planner feedback and
/// the harness's resident-memory accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Pages fetched and decoded.
    pub pages_read: usize,
    /// Pages skipped by fence pruning.
    pub pages_pruned: usize,
    /// Tuples inspected on read pages (before window filtering).
    pub tuples_scanned: usize,
    /// Largest number of tuples resident from any single page — the
    /// scan's peak per-page memory footprint.
    pub peak_page_tuples: usize,
}

/// A fence-pruned walk over a [`PagedReader`]'s pages restricted to a
/// query window. The cursor itself only yields decoded pages; wrap it in
/// [`UnitSource`] / [`IntColumnSource`] to get a [`TupleSource`].
#[derive(Debug)]
pub struct PageCursor<'a> {
    reader: &'a PagedReader,
    window: Interval,
    /// Page indices to visit, in file order.
    pages: Vec<usize>,
    next: usize,
    stats: ScanStats,
}

impl<'a> PageCursor<'a> {
    /// Cursor over the pages whose fences overlap `window` (fence-pruned).
    pub fn new(reader: &'a PagedReader, window: Interval) -> PageCursor<'a> {
        let pages = reader.pages_overlapping(&window);
        let pruned = reader.page_count() - pages.len();
        PageCursor {
            reader,
            window,
            pages,
            next: 0,
            stats: ScanStats {
                pages_pruned: pruned,
                ..ScanStats::default()
            },
        }
    }

    /// Cursor over *every* page, ignoring fences (tuples are still
    /// window-filtered by the sources). This is the full-scan baseline the
    /// harness benchmarks pruning against.
    pub fn full_scan(reader: &'a PagedReader, window: Interval) -> PageCursor<'a> {
        PageCursor {
            reader,
            window,
            pages: (0..reader.page_count()).collect(),
            next: 0,
            stats: ScanStats::default(),
        }
    }

    /// The query window tuples are clipped against.
    pub fn window(&self) -> Interval {
        self.window
    }

    /// Pages this cursor will visit in total.
    pub fn planned_pages(&self) -> usize {
        self.pages.len()
    }

    /// Scan counters so far.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// Fetch and decode the next page, updating counters. `projection`
    /// follows [`PagedReader::read_page`].
    pub fn next_page(&mut self, projection: Option<&[usize]>) -> Result<Option<DecodedPage>> {
        let Some(&index) = self.pages.get(self.next) else {
            return Ok(None);
        };
        self.next += 1;
        let page = self.reader.read_page(index, projection)?;
        self.stats.pages_read += 1;
        self.stats.tuples_scanned += page.len();
        self.stats.peak_page_tuples = self.stats.peak_page_tuples.max(page.len());
        Ok(Some(page))
    }

    /// Adapt into a `TupleSource<()>` (COUNT-style aggregates).
    pub fn units(self) -> UnitSource<'a> {
        UnitSource {
            cursor: self,
            current: Vec::new(),
            pos: 0,
        }
    }

    /// Adapt into a `TupleSource<i64>` reading integer column `column`.
    pub fn int_column(self, column: usize) -> IntColumnSource<'a> {
        IntColumnSource {
            cursor: self,
            column,
            intervals: Vec::new(),
            values: Vec::new(),
            pos: 0,
        }
    }
}

/// `TupleSource<()>`: intervals only, clipped to the cursor's window.
#[derive(Debug)]
pub struct UnitSource<'a> {
    cursor: PageCursor<'a>,
    current: Vec<Interval>,
    pos: usize,
}

impl UnitSource<'_> {
    /// Scan counters so far.
    pub fn stats(&self) -> ScanStats {
        self.cursor.stats()
    }
}

impl TupleSource<()> for UnitSource<'_> {
    fn next_chunk(&mut self, chunk: &mut Chunk<()>) -> Result<bool> {
        let window = self.cursor.window();
        let mut added = false;
        loop {
            while self.pos < self.current.len() {
                if chunk.is_full() {
                    return Ok(added);
                }
                // lint: allow(indexing): pos < current.len() is the loop condition
                let interval = self.current[self.pos];
                self.pos += 1;
                if let Some(clipped) = interval.intersect(&window) {
                    chunk.push(clipped, ())?;
                    added = true;
                }
            }
            match self.cursor.next_page(Some(&[]))? {
                Some(page) => {
                    self.current = page.intervals;
                    self.pos = 0;
                }
                None => return Ok(added),
            }
        }
    }
}

/// `TupleSource<i64>` over one integer column, clipped to the window.
/// NULLs and non-integer values surface as [`TempAggError::TypeError`].
#[derive(Debug)]
pub struct IntColumnSource<'a> {
    cursor: PageCursor<'a>,
    column: usize,
    intervals: Vec<Interval>,
    values: Vec<Value>,
    pos: usize,
}

impl IntColumnSource<'_> {
    /// Scan counters so far.
    pub fn stats(&self) -> ScanStats {
        self.cursor.stats()
    }
}

impl TupleSource<i64> for IntColumnSource<'_> {
    fn next_chunk(&mut self, chunk: &mut Chunk<i64>) -> Result<bool> {
        let window = self.cursor.window();
        let mut added = false;
        loop {
            while self.pos < self.intervals.len() {
                if chunk.is_full() {
                    return Ok(added);
                }
                let i = self.pos;
                self.pos += 1;
                // lint: allow(indexing): i < intervals.len() is the loop condition
                let Some(clipped) = self.intervals[i].intersect(&window) else {
                    continue;
                };
                // lint: allow(indexing): decode guarantees values.len() == intervals.len()
                let value = self.values[i]
                    .as_i64()
                    .ok_or_else(|| TempAggError::TypeError {
                        detail: format!(
                            "paged scan of column {} expected INT, found {:?}",
                            self.column,
                            // lint: allow(indexing): same bound as the read above
                            self.values[i]
                        ),
                    })?;
                chunk.push(clipped, value)?;
                added = true;
            }
            let projection = [self.column];
            match self.cursor.next_page(Some(&projection))? {
                Some(page) => {
                    let column = page
                        .columns
                        .into_iter()
                        .nth(self.column)
                        .flatten()
                        .ok_or_else(|| TempAggError::UnknownColumn {
                            name: format!("#{}", self.column),
                        })?;
                    self.intervals = page.intervals;
                    self.values = column;
                    self.pos = 0;
                }
                None => return Ok(added),
            }
        }
    }
}

/// In-memory [`TupleSource`] over `(Interval, V)` pairs, window-clipped —
/// gives resident relations the same interface as paged scans so drivers
/// are written once.
#[derive(Debug)]
pub struct SliceSource<'a, V> {
    items: &'a [(Interval, V)],
    window: Interval,
    pos: usize,
}

impl<'a, V> SliceSource<'a, V> {
    pub fn new(items: &'a [(Interval, V)], window: Interval) -> SliceSource<'a, V> {
        SliceSource {
            items,
            window,
            pos: 0,
        }
    }
}

impl<V: Clone> TupleSource<V> for SliceSource<'_, V> {
    fn next_chunk(&mut self, chunk: &mut Chunk<V>) -> Result<bool> {
        let mut added = false;
        while self.pos < self.items.len() {
            if chunk.is_full() {
                return Ok(added);
            }
            // lint: allow(indexing): pos < items.len() is the loop condition
            let (interval, value) = &self.items[self.pos];
            self.pos += 1;
            if let Some(clipped) = interval.intersect(&self.window) {
                chunk.push(clipped, value.clone())?;
                added = true;
            }
        }
        Ok(added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::file::{write_relation, PagedWriteOptions};
    use crate::relation::TemporalRelation;
    use crate::schema::Schema;
    use crate::value::ValueType;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("tempagg-cursor-{}-{name}", std::process::id()));
        p
    }

    fn written(n: i64, name: &str) -> (PathBuf, PagedReader) {
        let schema = Schema::of(&[("v", ValueType::Int)]);
        let mut rel = TemporalRelation::new(schema);
        for i in 0..n {
            rel.push(vec![Value::Int(i)], Interval::at(i, i + 3))
                .unwrap();
        }
        let path = temp_path(name);
        write_relation(
            &rel,
            &path,
            &PagedWriteOptions {
                page_size: 256,
                caches: Vec::new(),
            },
        )
        .unwrap();
        let reader = PagedReader::open(&path).unwrap();
        (path, reader)
    }

    fn drain<V, S: TupleSource<V>>(mut source: S) -> Vec<(Interval, V)>
    where
        V: Clone,
    {
        let mut chunk = Chunk::with_capacity(7); // deliberately tiny
        let mut out = Vec::new();
        while source.next_chunk(&mut chunk).unwrap() {
            for (interval, value) in &chunk {
                out.push((interval, value.clone()));
            }
            chunk.clear();
        }
        out
    }

    #[test]
    fn unit_source_streams_all_tuples_clipped() {
        let (path, reader) = written(100, "units.tapg");
        let window = Interval::at(10, 30);
        let got = drain(PageCursor::new(&reader, window).units());
        let mut expected = Vec::new();
        for i in 0..100 {
            if let Some(clip) = Interval::at(i, i + 3).intersect(&window) {
                expected.push((clip, ()));
            }
        }
        assert_eq!(got, expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn int_source_matches_resident_values() {
        let (path, reader) = written(100, "ints.tapg");
        let got = drain(PageCursor::new(&reader, Interval::TIMELINE).int_column(0));
        assert_eq!(got.len(), 100);
        for (i, (interval, v)) in got.iter().enumerate() {
            assert_eq!(*interval, Interval::at(i as i64, i as i64 + 3));
            assert_eq!(*v, i as i64);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pruned_and_full_scans_agree_on_output() {
        let (path, reader) = written(200, "agree.tapg");
        let window = Interval::at(50, 60);
        let pruned = drain(PageCursor::new(&reader, window).units());
        let full = drain(PageCursor::full_scan(&reader, window).units());
        assert_eq!(pruned, full);

        let mut pruned_cursor = PageCursor::new(&reader, window);
        let planned = pruned_cursor.planned_pages();
        while pruned_cursor.next_page(Some(&[])).unwrap().is_some() {}
        let stats = pruned_cursor.stats();
        assert_eq!(stats.pages_read, planned);
        assert!(stats.pages_pruned > 0);
        assert_eq!(stats.pages_read + stats.pages_pruned, reader.page_count());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn slice_source_mirrors_paged_semantics() {
        let items: Vec<(Interval, i64)> = (0..50).map(|i| (Interval::at(i, i + 3), i)).collect();
        let window = Interval::at(10, 20);
        let got = drain(SliceSource::new(&items, window));
        let expected: Vec<(Interval, i64)> = items
            .iter()
            .filter_map(|(iv, v)| iv.intersect(&window).map(|c| (c, *v)))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn null_in_int_column_is_a_type_error() {
        let schema = Schema::new(vec![
            crate::schema::Column::new("v", ValueType::Int).nullable()
        ])
        .unwrap();
        let mut rel = TemporalRelation::new(schema);
        rel.push(vec![Value::Int(1)], Interval::at(0, 1)).unwrap();
        rel.push(vec![Value::Null], Interval::at(2, 3)).unwrap();
        let path = temp_path("nulls.tapg");
        write_relation(&rel, &path, &PagedWriteOptions::default()).unwrap();
        let reader = PagedReader::open(&path).unwrap();
        let mut source = PageCursor::new(&reader, Interval::TIMELINE).int_column(0);
        let mut chunk = Chunk::with_capacity(16);
        let err = source.next_chunk(&mut chunk).unwrap_err();
        assert!(matches!(err, TempAggError::TypeError { .. }));
        std::fs::remove_file(&path).ok();
    }
}
