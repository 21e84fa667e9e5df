//! Result rows: the row type, the rows of a result ([`ResultRows`] — a
//! collected buffer, or the pinned views a served `SELECT` reads in
//! place), the buffer a query's rows go to, and the sink an aggregation
//! set's series drains into it.
//!
//! A temporal aggregate is output-bound (`n` tuples, up to `2n + 1`
//! constant intervals), so this is where a query that scans nothing spends
//! its time. A row's values live inside the row ([`RowValues`]); a row a
//! query computes is written once, by the algorithm's `finish_into`
//! through [`GroupSink`], and the collected result is the buffer itself; a
//! row a cached series already holds is not written at all until the
//! reader's [`RowCursor`] asks for it.

use std::borrow::Cow;
use std::fmt;
use tempagg_core::{
    Interval, Result, RowValues, SeriesEntry, SeriesSink, SeriesView, TempAggError, Value,
    ViewCursor,
};

/// One row of a query result: optional group key, a valid-time interval,
/// and one value per aggregate in the select list — inline in the row up
/// to [`tempagg_core::ROW_INLINE_WIDTH`], so a result of narrow rows is
/// one allocation.
#[derive(Clone, Debug, PartialEq)]
pub struct ResultRow {
    pub group: Option<Value>,
    pub valid: Interval,
    pub values: RowValues,
}

/// The rows of a query result, in (group, time) order, coalesced by valid
/// time. Rows a query computed (a scan, `OVER`, `TOP k`, `SNAPSHOT`) are a
/// collected buffer and are read by reference; rows served from the
/// store's aggregate caches are the pinned views of the cached series
/// themselves, and each [`ResultRow`] is built when the reader reaches it
/// — which is why iteration yields `Cow<ResultRow>`.
///
/// ```
/// # use tempagg_sql::{execute_str, Catalog};
/// # use tempagg_workload::employed::employed_relation;
/// # let mut catalog = Catalog::new();
/// # catalog.register("Employed", employed_relation());
/// let result = execute_str(&catalog, "SELECT COUNT(Name) FROM Employed").unwrap();
/// for row in &result.rows {
///     println!("{} {:?}", row.valid, row.values);
/// }
/// let owned: Vec<tempagg_sql::ResultRow> = result.rows.to_vec();
/// assert_eq!(owned.len(), result.rows.len());
/// ```
///
/// A served result holds its views for as long as it lives: a write to
/// the relation copies a chunk of runs a view holds before it patches it,
/// and never touches the view, so a result read half-way, written under,
/// and read on is still the answer as of its statement. [`len`](Self::len)
/// is O(1) either way, `Clone` of a served result clones `Arc`s, and `==`
/// compares row sequences, whichever way each side is held.
#[derive(Clone, Default)]
pub struct ResultRows(Repr);

#[derive(Clone)]
enum Repr {
    Collected(Vec<ResultRow>),
    Served(Served),
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Collected(Vec::new())
    }
}

impl ResultRows {
    /// Number of rows. O(1): a served result counted its coalesced rows
    /// in the pass that checked its views.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Collected(rows) => rows.len(),
            Repr::Served(served) => served.rows,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A cursor over the rows, from the first.
    pub fn iter(&self) -> RowCursor<'_> {
        RowCursor(match &self.0 {
            Repr::Collected(rows) => Cursor::Collected(rows.iter()),
            Repr::Served(served) => Cursor::Served(ServedCursor {
                walk: served.walk(),
                ahead: Vec::new().into_iter(),
                unbuilt: served.rows,
            }),
        })
    }

    /// Every row, owned: the shape `QueryResult.rows` had when every
    /// result was collected.
    pub fn to_vec(&self) -> Vec<ResultRow> {
        self.iter().map(Cow::into_owned).collect()
    }
}

impl From<Vec<ResultRow>> for ResultRows {
    fn from(rows: Vec<ResultRow>) -> ResultRows {
        ResultRows(Repr::Collected(rows))
    }
}

impl<'a> IntoIterator for &'a ResultRows {
    type Item = Cow<'a, ResultRow>;
    type IntoIter = RowCursor<'a>;

    fn into_iter(self) -> RowCursor<'a> {
        self.iter()
    }
}

impl fmt::Debug for ResultRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // lint: allow(no-materialize-in-exec): `DebugList::finish`, not an algorithm's
        f.debug_list().entries(self).finish()
    }
}

impl PartialEq for ResultRows {
    fn eq(&self, other: &ResultRows) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

impl PartialEq<Vec<ResultRow>> for ResultRows {
    fn eq(&self, other: &Vec<ResultRow>) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| *a == *b)
    }
}

impl PartialEq<ResultRows> for Vec<ResultRow> {
    fn eq(&self, other: &ResultRows) -> bool {
        other == self
    }
}

/// Pinned views, one per select-list entry, that were found to share one
/// interval structure: run `i` of every series spans the same interval,
/// wherever each series' chunks are cut. Only [`Served::check`] constructs
/// one.
#[derive(Clone)]
struct Served {
    lead: SeriesView<Value>,
    rest: Vec<SeriesView<Value>>,
    /// Coalesced rows the views stand for.
    rows: usize,
}

impl Served {
    /// Establish that the series agree on their constant intervals —
    /// every cache of a store derives its runs from tuple intervals alone,
    /// never values, so they do unless two caches disagree about the
    /// relation — and count the coalesced rows, in one pass. `None` on any
    /// disagreement, decided here, before a row exists.
    fn check(views: Vec<SeriesView<Value>>) -> Option<Served> {
        let mut views = views.into_iter();
        let mut served = Served {
            lead: views.next()?,
            rest: views.collect(),
            rows: 0,
        };
        if served
            .rest
            .iter()
            .any(|view| view.len() != served.lead.len())
        {
            return None;
        }
        let mut walk = served.walk();
        let mut rows = 0;
        while let Some(first) = walk.lead.runs.current() {
            rows += usize::from(!walk.extends_previous());
            walk.lead.step();
            for lane in &mut walk.rest {
                if lane.step()?.interval != first.interval {
                    return None;
                }
            }
        }
        served.rows = rows;
        Some(served)
    }

    fn walk(&self) -> Lockstep<'_> {
        Lockstep {
            lead: Lane::over(&self.lead),
            rest: self.rest.iter().map(Lane::over).collect(),
        }
    }
}

/// One series' runs as a served walk passes them: a cursor over its
/// chunks, and the run it passed last.
#[derive(Clone)]
struct Lane<'a> {
    runs: ViewCursor<'a, Value>,
    passed: Option<&'a SeriesEntry<Value>>,
}

impl<'a> Lane<'a> {
    fn over(view: &'a SeriesView<Value>) -> Lane<'a> {
        Lane {
            runs: view.runs(),
            passed: None,
        }
    }

    /// Pass the next run, and return it.
    #[inline]
    fn step(&mut self) -> Option<&'a SeriesEntry<Value>> {
        self.passed = self.runs.next();
        self.passed
    }

    /// Whether the next run meets the one passed last and carries its
    /// value.
    #[inline]
    fn extends_passed(&self) -> bool {
        match (self.passed, self.runs.current()) {
            (Some(a), Some(b)) => a.value == b.value && a.interval.meets(&b.interval),
            _ => false,
        }
    }
}

/// The views of a served result as both walks over them — the check and
/// the cursor — read them: one lane per series, the first series' apart,
/// stepped together. Each lane crosses its own chunk edges: the series'
/// chunks may be cut in different places (a cache built later has fuller
/// chunks).
#[derive(Clone)]
struct Lockstep<'a> {
    lead: Lane<'a>,
    rest: Vec<Lane<'a>>,
}

impl Lockstep<'_> {
    /// Whether the next run coalesces into the row of the runs passed: it
    /// meets them and carries equal values in every series. The one
    /// definition of a row boundary — [`Served::check`] counts by it and
    /// the cursor cuts by it, so `len()` is what iteration yields. The
    /// first series decides nearly every time (a `COUNT` moves at almost
    /// every boundary), so it is asked first and on its own.
    #[inline]
    fn extends_previous(&self) -> bool {
        self.lead.extends_passed() && self.rest.iter().all(Lane::extends_passed)
    }
}

/// Rows a served cursor builds ahead of its reader (24 KB of them). A row
/// is assembled in place in this buffer and moved out whole a batch later:
/// building it inside the reader's loop instead makes every row's loads
/// wait on the previous row's stores, which measured 2x the reader's time
/// (DESIGN.md §17).
const READ_AHEAD: usize = 256;

/// What a row in the read-ahead buffer starts as: a constant, so a batch
/// opens as one run of stores and everything else is written in place.
const EMPTY_ROW: ResultRow = ResultRow {
    group: None,
    valid: Interval::TIMELINE,
    values: RowValues::new(),
};

/// A cursor over a result's rows: `&ResultRows`'s iterator. Collected rows
/// are lent; served rows are built as the cursor reaches them, a small
/// batch ahead of the reader, walking the pinned views in lockstep and
/// coalescing on a one-run lookahead.
#[derive(Clone, Debug)]
pub struct RowCursor<'a>(Cursor<'a>);

#[derive(Clone)]
enum Cursor<'a> {
    Collected(std::slice::Iter<'a, ResultRow>),
    Served(ServedCursor<'a>),
}

#[derive(Clone)]
struct ServedCursor<'a> {
    walk: Lockstep<'a>,
    /// Rows built and not yet yielded.
    ahead: std::vec::IntoIter<ResultRow>,
    /// Rows not yet built.
    unbuilt: usize,
}

impl ServedCursor<'_> {
    /// Build the next rows, up to [`READ_AHEAD`] of them: the rows that
    /// are left are known ([`Served::check`] counted them), so the batch
    /// is opened at its final length and filled in place.
    fn refill(&mut self) {
        let walk = &mut self.walk;
        let mut rows: Vec<ResultRow> = std::iter::repeat_with(|| EMPTY_ROW)
            .take(READ_AHEAD.min(self.unbuilt))
            .collect();
        // lint: hot-loop(serve-rows) — per row: values copied inline into the buffer's slot, then the runs that extend it; no heap while the list fits a row
        for row in &mut rows {
            let Some(first) = walk.lead.step() else {
                break;
            };
            row.valid = first.interval;
            // lint: allow(no-alloc-in-scan): a `Value` clone copies a scalar or bumps an `Arc<str>`
            row.values.push(first.value.clone());
            for lane in &mut walk.rest {
                if let Some(run) = lane.step() {
                    // lint: allow(no-alloc-in-scan): as above
                    row.values.push(run.value.clone());
                }
            }
            while walk.extends_previous() {
                if let Some(run) = walk.lead.step() {
                    row.valid = row.valid.hull(&run.interval);
                }
                for lane in &mut walk.rest {
                    lane.step();
                }
            }
        }
        self.unbuilt -= rows.len();
        self.ahead = rows.into_iter();
    }
}

impl fmt::Debug for Cursor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cursor::Collected(rows) => write!(f, "Collected({} rows left)", rows.len()),
            Cursor::Served(cursor) => write!(
                f,
                "Served({} rows left)",
                cursor.ahead.len() + cursor.unbuilt
            ),
        }
    }
}

impl<'a> Iterator for RowCursor<'a> {
    type Item = Cow<'a, ResultRow>;

    #[inline]
    fn next(&mut self) -> Option<Cow<'a, ResultRow>> {
        match &mut self.0 {
            Cursor::Collected(rows) => rows.next().map(Cow::Borrowed),
            Cursor::Served(cursor) => {
                if cursor.ahead.as_slice().is_empty() {
                    cursor.refill();
                }
                cursor.ahead.next().map(Cow::Owned)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = match &self.0 {
            Cursor::Collected(rows) => rows.len(),
            Cursor::Served(cursor) => cursor.ahead.len() + cursor.unbuilt,
        };
        (left, Some(left))
    }
}

impl ExactSizeIterator for RowCursor<'_> {}

/// Where a query's rows go, in (group, time) order: collected whole
/// ([`execute_query`](crate::execute_query)), or buffered up to a bound and
/// drained to a callback ([`execute_streaming`](crate::execute_streaming)).
/// Values move from the algorithm's output into the row; nothing is copied
/// on the way.
pub(crate) struct RowBuffer<'a> {
    pub(crate) rows: Vec<ResultRow>,
    /// Collecting: the result of the served path, which computes no rows
    /// and so leaves `rows` empty.
    served: Option<Served>,
    /// Streaming: the bound on finished rows held, and their consumer.
    drain_to: Option<(usize, &'a mut dyn FnMut(ResultRow))>,
    pub(crate) produced: usize,
    pub(crate) peak: usize,
    pub(crate) drains: usize,
}

impl<'a> RowBuffer<'a> {
    pub(crate) fn collecting() -> RowBuffer<'a> {
        RowBuffer {
            rows: Vec::new(),
            served: None,
            drain_to: None,
            produced: 0,
            peak: 0,
            drains: 0,
        }
    }

    pub(crate) fn streaming(
        capacity: usize,
        on_row: &'a mut dyn FnMut(ResultRow),
    ) -> RowBuffer<'a> {
        RowBuffer {
            drain_to: Some((capacity.max(1), on_row)),
            ..RowBuffer::collecting()
        }
    }

    pub(crate) fn push(&mut self, row: ResultRow) {
        self.rows.push(row);
        self.produced += 1;
        if let Some((capacity, on_row)) = &mut self.drain_to {
            self.peak = self.peak.max(self.rows.len());
            if self.rows.len() > *capacity {
                // The newest row stays: the next entry may still extend it.
                let finished = self.rows.len() - 1;
                self.rows.drain(..finished).for_each(&mut **on_row);
                self.drains += 1;
            }
        }
    }

    /// The served path: answer with the rows `views` (one pinned series
    /// per select-list entry) stand for. Collecting, they become the result
    /// as they are; streaming, the same cursor a collected result's reader
    /// would walk is drained to the consumer. An internal error — and no
    /// row produced, kept or delivered — when the series do not share one
    /// interval structure, which no store produces.
    pub(crate) fn serve(&mut self, views: Vec<SeriesView<Value>>) -> Result<()> {
        let served = Served::check(views).ok_or_else(|| {
            TempAggError::internal("cached series disagree on their constant intervals")
        })?;
        if self.drain_to.is_some() {
            for row in &ResultRows(Repr::Served(served)) {
                self.push(row.into_owned());
            }
        } else {
            self.produced = served.rows;
            self.served = Some(served);
        }
        Ok(())
    }

    /// End of the query: hand the remaining rows to the consumer.
    pub(crate) fn flush(&mut self) {
        if let Some((_, on_row)) = &mut self.drain_to {
            if !self.rows.is_empty() {
                self.rows.drain(..).for_each(&mut **on_row);
                self.drains += 1;
            }
        }
    }

    /// The collected result: empty once a stream has drained it.
    pub(crate) fn take_rows(&mut self) -> ResultRows {
        ResultRows(match self.served.take() {
            Some(served) => Repr::Served(served),
            None => Repr::Collected(std::mem::take(&mut self.rows)),
        })
    }
}

/// The sink one aggregation set's series drains into: each constant
/// interval becomes a row, or — TSQL2's coalesced results, when
/// `coalesce` is set — extends the previous row when the two meet with
/// equal values. The lookahead row is simply the buffer's last; a set's
/// series tiles the window, so its first interval never meets the
/// previous set's last row.
pub(crate) struct GroupSink<'b, 'a> {
    pub(crate) out: &'b mut RowBuffer<'a>,
    pub(crate) key: &'b Option<Value>,
    pub(crate) coalesce: bool,
}

impl<V: Into<RowValues>> SeriesSink<V> for GroupSink<'_, '_> {
    fn accept(&mut self, interval: Interval, values: V) {
        let values = values.into();
        if self.coalesce {
            if let Some(prev) = self.out.rows.last_mut() {
                if prev.valid.meets(&interval) && prev.values == values {
                    prev.valid = prev.valid.hull(&interval);
                    return;
                }
            }
        }
        self.out.push(ResultRow {
            group: self.key.clone(),
            valid: interval,
            values,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn series(cuts: &[i64], scale: i64) -> SeriesView<Value> {
        let mut entries = Vec::new();
        let mut start = 0;
        for (i, &cut) in cuts.iter().enumerate() {
            entries.push(SeriesEntry::new(
                Interval::at(start, cut - 1),
                Value::Int(i as i64 * scale),
            ));
            start = cut;
        }
        entries.push(SeriesEntry::new(Interval::from_start(start), Value::Null));
        SeriesView::from_chunks([Arc::new(entries)])
    }

    /// A disagreement is an internal error, found before any row exists,
    /// collecting or streaming.
    #[test]
    fn snapshots_that_disagree_on_structure_are_not_merged() {
        let lead = series(&[5, 9, 20, 30], 1);
        // The third run is where `shifted` first differs: a walk that
        // checked as it went would have delivered two rows by then.
        let shifted = vec![lead.clone(), series(&[5, 9, 21, 30], 7)];
        let shorter = vec![lead.clone(), series(&[5, 9, 30], 7)];
        for mismatched in [shifted, shorter] {
            let mut out = RowBuffer::collecting();
            assert!(out.serve(mismatched.clone()).is_err());
            assert_eq!(out.produced, 0);
            assert!(out.take_rows().is_empty());

            let mut delivered = 0;
            let mut on_row = |_| delivered += 1;
            let mut out = RowBuffer::streaming(1, &mut on_row);
            assert!(out.serve(mismatched).is_err());
            out.flush();
            assert_eq!((out.produced, out.peak, out.drains), (0, 0, 0));
            assert_eq!(delivered, 0);
        }
        // No snapshots at all is a disagreement too, not an empty result.
        assert!(RowBuffer::collecting().serve(Vec::new()).is_err());
    }

    #[test]
    fn agreeing_snapshots_are_read_in_place_and_coalesced() {
        // Runs 1 and 2 carry equal values in both series and coalesce;
        // runs 3 and 4 are equal in the first series only and do not. The
        // two series' chunks are cut in different places, one of them
        // between the two runs that coalesce.
        let of = |values: [i64; 5], cuts: &[usize]| {
            let mut entries: Vec<_> = [0, 5, 9, 20, 30]
                .into_iter()
                .zip([4, 8, 19, 29, i64::MAX])
                .zip(values)
                .map(|((a, b), v)| SeriesEntry::new(Interval::at(a, b), Value::Int(v)))
                .collect();
            let mut chunks = Vec::new();
            for &cut in cuts.iter().rev() {
                chunks.push(Arc::new(entries.split_off(cut)));
            }
            chunks.push(Arc::new(entries));
            SeriesView::from_chunks(chunks.into_iter().rev())
        };
        let snapshots = vec![of([0, 1, 1, 3, 3], &[2]), of([0, 7, 7, 21, 28], &[1, 4])];
        assert_eq!(snapshots[0].chunks().len(), 2);
        assert_eq!(snapshots[1].chunks().len(), 3);
        let row = |a, b, x, y| ResultRow {
            group: None,
            valid: Interval::at(a, b),
            values: [Value::Int(x), Value::Int(y)].into_iter().collect(),
        };
        let want = vec![
            row(0, 4, 0, 0),
            row(5, 19, 1, 7),
            row(20, 29, 3, 21),
            row(30, i64::MAX, 3, 28),
        ];

        let mut out = RowBuffer::collecting();
        out.serve(snapshots.clone()).unwrap();
        assert!(out.rows.is_empty(), "nothing is written");
        let served = out.take_rows();
        assert_eq!(served.len(), 4);
        assert_eq!(served.iter().len(), 4);
        assert_eq!(served.to_vec(), want);
        assert!(served.iter().all(|row| matches!(row, Cow::Owned(_))));
        // `==` is the row sequence, however each side is held.
        let collected = ResultRows::from(want.clone());
        assert!(collected.iter().all(|row| matches!(row, Cow::Borrowed(_))));
        assert_eq!(served, collected);
        assert_eq!(collected, served);
        assert_eq!(served, want);
        assert_eq!(want, served);
        assert_ne!(served, ResultRows::from(want[..3].to_vec()));
        assert_eq!(format!("{served:?}"), format!("{want:?}"));
        // A clone shares the pinned series.
        let clone = served.clone();
        assert_eq!(snapshots[0].holders(), 3);
        assert_eq!(clone, served);
        // A cursor stopped half-way reports what is left.
        let mut cursor = served.iter();
        cursor.next();
        cursor.next();
        assert_eq!(cursor.len(), 2);
        assert_eq!(cursor.map(Cow::into_owned).collect::<Vec<_>>(), want[2..]);

        // Streaming drains the same cursor, one row resident plus the
        // lookahead.
        let mut streamed = Vec::new();
        let mut on_row = |row| streamed.push(row);
        let mut out = RowBuffer::streaming(1, &mut on_row);
        out.serve(snapshots).unwrap();
        out.flush();
        assert_eq!((out.produced, out.peak), (4, 2));
        assert_eq!(streamed, want);
    }
}
