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
use std::ops::Range;

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
/// query window, handing out batches of rows in storage order. A sorted
/// file may keep its long-lived tuples in an overflow lane after the main
/// lane (DESIGN.md §15): the cursor prunes each lane by its own fences and
/// merges the two back by `(start, end)`, so a batch is one page of a file
/// with one lane, and a merged run of the two lanes' current pages
/// otherwise. The cursor itself only yields decoded batches; wrap it in
/// [`UnitSource`] / [`IntColumnSource`] to get a [`TupleSource`].
#[derive(Debug)]
pub struct PageCursor<'a> {
    reader: Reader<'a>,
    window: Interval,
    /// The main lane and the overflow lane (no pages for a file with one).
    lanes: [Lane; 2],
    stats: ScanStats,
}

/// The reader a cursor walks: borrowed, or owned by a scan that outlives
/// the borrow that opened it.
#[derive(Debug)]
enum Reader<'a> {
    Borrowed(&'a PagedReader),
    Owned(Box<PagedReader>),
}

impl std::ops::Deref for Reader<'_> {
    type Target = PagedReader;

    fn deref(&self) -> &PagedReader {
        match self {
            Reader::Borrowed(reader) => reader,
            Reader::Owned(reader) => reader,
        }
    }
}

/// One lane's walk: the pages to visit, and the current page's rows not
/// yet handed out.
#[derive(Debug, Default)]
struct Lane {
    /// Page indices to visit, in file order.
    pages: Vec<usize>,
    next: usize,
    page: Option<DecodedPage>,
    /// The first row of `page` not yet handed out.
    pos: usize,
}

impl Lane {
    fn new(pages: Vec<usize>) -> Lane {
        Lane {
            pages,
            ..Lane::default()
        }
    }

    /// The interval of the lane's next row, if its current page has one.
    fn head(&self) -> Option<Interval> {
        self.page.as_ref()?.intervals.get(self.pos).copied()
    }

    /// The interval of the current page's last row.
    fn last(&self) -> Option<Interval> {
        self.page.as_ref()?.intervals.last().copied()
    }

    /// Read pages until one has a row not yet handed out, or none is left.
    fn refill(
        &mut self,
        reader: &PagedReader,
        projection: Option<&[usize]>,
        stats: &mut ScanStats,
    ) -> Result<()> {
        while self.head().is_none() {
            self.page = None;
            self.pos = 0;
            let Some(&index) = self.pages.get(self.next) else {
                return Ok(());
            };
            self.next += 1;
            let page = reader.read_page(index, projection)?;
            stats.pages_read += 1;
            stats.tuples_scanned += page.len();
            self.page = Some(page);
        }
        Ok(())
    }

    /// The current page's rows not yet handed out, as a batch of their own.
    fn take_rest(&mut self) -> Option<DecodedPage> {
        let mut page = self.page.take()?;
        let from = std::mem::take(&mut self.pos);
        if from > 0 {
            page = DecodedPage {
                intervals: page.intervals.split_off(from),
                columns: (page.columns.iter_mut())
                    .map(|column| column.as_mut().map(|values| values.split_off(from)))
                    .collect(),
            };
        }
        Some(page)
    }
}

/// Move rows `rows` of `page` to the end of `batch`, whose columns have the
/// page's projection.
fn move_rows(page: &mut DecodedPage, rows: Range<usize>, batch: &mut DecodedPage) {
    let intervals = page.intervals.get(rows.clone()).unwrap_or_default();
    batch.intervals.extend_from_slice(intervals);
    for (from, to) in page.columns.iter_mut().zip(&mut batch.columns) {
        if let (Some(from), Some(to)) = (from, to) {
            let values = from.get_mut(rows.clone()).unwrap_or_default();
            to.extend(values.iter_mut().map(std::mem::take));
        }
    }
}

/// The next batch of two lanes that both have rows: the rows of whichever
/// current page ends before the other's next row, whole, or else the two
/// pages' rows merged by `(start, end)` up to the end of whichever runs out
/// first, moved a run of one lane at a time. Rows with equal `(start, end)`
/// last equally long, so they share a lane: the merge never meets a tie
/// across lanes.
fn merge(main: &mut Lane, overflow: &mut Lane) -> Option<DecodedPage> {
    let (head, other) = (main.head()?, overflow.head()?);
    if main.last()? < other {
        return main.take_rest();
    }
    if overflow.last()? < head {
        return overflow.take_rest();
    }
    let (a, b) = (main.page.as_mut()?, overflow.page.as_mut()?);
    let capacity = a.len() - main.pos + b.len() - overflow.pos;
    let mut batch = DecodedPage {
        intervals: Vec::with_capacity(capacity),
        columns: (a.columns.iter())
            .map(|column| column.as_ref().map(|_| Vec::with_capacity(capacity)))
            .collect(),
    };
    let (mut i, mut j) = (main.pos, overflow.pos);
    while let (Some(&x), Some(&y)) = (a.intervals.get(i), b.intervals.get(j)) {
        // Each run is at least the one row that compared first.
        if x < y {
            let run = a.intervals.get(i..).unwrap_or_default();
            let end = i + run.iter().take_while(|iv| **iv < y).count();
            move_rows(a, i..end, &mut batch);
            i = end;
        } else {
            let run = b.intervals.get(j..).unwrap_or_default();
            let end = j + run.iter().take_while(|iv| **iv <= x).count();
            move_rows(b, j..end, &mut batch);
            j = end;
        }
    }
    (main.pos, overflow.pos) = (i, j);
    Some(batch)
}

impl<'a> PageCursor<'a> {
    /// A cursor visiting `pages` (ascending page indices), each lane's in
    /// file order.
    fn over(reader: Reader<'a>, window: Interval, mut pages: Vec<usize>) -> PageCursor<'a> {
        let pruned = reader.page_count() - pages.len();
        let main = reader.main_lane().len();
        let overflow = pages.split_off(pages.partition_point(|&page| page < main));
        PageCursor {
            reader,
            window,
            lanes: [Lane::new(pages), Lane::new(overflow)],
            stats: ScanStats {
                pages_pruned: pruned,
                ..ScanStats::default()
            },
        }
    }

    /// Cursor over the pages whose fences overlap `window` (fence-pruned).
    pub fn new(reader: &'a PagedReader, window: Interval) -> PageCursor<'a> {
        let pages = reader.pages_overlapping(&window);
        PageCursor::over(Reader::Borrowed(reader), window, pages)
    }

    /// Cursor over *every* page, ignoring fences (tuples are still
    /// window-filtered by the sources). This is the full-scan baseline the
    /// harness benchmarks pruning against.
    pub fn full_scan(reader: &'a PagedReader, window: Interval) -> PageCursor<'a> {
        let pages = (0..reader.page_count()).collect();
        PageCursor::over(Reader::Borrowed(reader), window, pages)
    }

    /// The reader this cursor walks.
    pub fn reader(&self) -> &PagedReader {
        &self.reader
    }

    /// The query window tuples are clipped against.
    pub fn window(&self) -> Interval {
        self.window
    }

    /// Pages this cursor will visit in total.
    pub fn planned_pages(&self) -> usize {
        self.lanes.iter().map(|lane| lane.pages.len()).sum()
    }

    /// Of [`planned_pages`](Self::planned_pages), the overflow lane's.
    pub fn planned_overflow_pages(&self) -> usize {
        self.lanes[1].pages.len()
    }

    /// Scan counters so far.
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// Fetch the next batch of rows in storage order, reading and decoding
    /// pages as the lanes run dry and updating the counters. `projection`
    /// follows [`PagedReader::read_page`].
    pub fn next_page(&mut self, projection: Option<&[usize]>) -> Result<Option<DecodedPage>> {
        let reader: &PagedReader = &self.reader;
        for lane in &mut self.lanes {
            lane.refill(reader, projection, &mut self.stats)?;
        }
        let held = (self.lanes.iter())
            .filter_map(|lane| lane.page.as_ref())
            .map(DecodedPage::len)
            .sum();
        self.stats.peak_page_tuples = self.stats.peak_page_tuples.max(held);
        let [main, overflow] = &mut self.lanes;
        Ok(match (main.head(), overflow.head()) {
            (None, None) => None,
            (Some(_), None) => main.take_rest(),
            (None, Some(_)) => overflow.take_rest(),
            (Some(_), Some(_)) => merge(main, overflow),
        })
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

impl PageCursor<'static> {
    /// A [`full_scan`](PageCursor::full_scan) over [`Interval::ALL`] that
    /// owns its reader, for a scan that outlives the call that opened it.
    pub fn owning(reader: PagedReader) -> PageCursor<'static> {
        let pages = (0..reader.page_count()).collect();
        PageCursor::over(Reader::Owned(Box::new(reader)), Interval::ALL, pages)
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
