//! Where a store's rows are, and the one scan over them.
//!
//! A store built in memory holds its rows as a [`TemporalRelation`]. A store
//! opened from a `.tapg` file holds them as that file's pages — its *base* —
//! until something needs them in memory: the first write, an executed
//! join, a cache the file does not hold. [`Rows::resident`] is the one door
//! from the pages to memory, and it is fallible: a page that fails its
//! checksum is a [`TempAggError::Storage`] for the statement that first
//! needed the rows, never a panic.
//!
//! [`RowScan`] reads the rows in storage order either way — the resident
//! tuples as one batch, or the base one batch of its `PageCursor` at a time
//! (a page, or the merge of a sorted file's two lanes' pages), fence-pruned
//! to the scan's window and decoding only the columns the scan reads — and both
//! hand out [`Row`]s, so a consumer writes one loop body for the two.

use std::cell::OnceCell;
use std::sync::Arc;
use tempagg_core::pager::{DecodedPage, PageCursor, PagedReader};
use tempagg_core::{Interval, Result, Schema, TempAggError, TemporalRelation, Tuple, Value};

/// Where a store's rows are.
#[derive(Clone, Debug)]
pub(crate) enum Rows {
    /// In memory: built there, or taken over from the pages by the first
    /// write since open.
    Resident(TemporalRelation),
    /// Exactly the pages of the file the store was opened from: nothing was
    /// written since. A read that needs the rows in memory builds
    /// `resident` from the pages once, and scans read that copy from then
    /// on; the first write takes it over.
    Paged {
        base: Arc<PagedReader>,
        resident: OnceCell<TemporalRelation>,
    },
}

impl Rows {
    pub(crate) fn schema(&self) -> &Arc<Schema> {
        match self {
            Rows::Resident(relation) => relation.schema(),
            Rows::Paged { base, .. } => base.schema(),
        }
    }

    /// The tuple count: the file header's while the rows are its pages.
    pub(crate) fn len(&self) -> usize {
        match self {
            Rows::Resident(relation) => relation.len(),
            Rows::Paged { base, .. } => base.tuple_count() as usize,
        }
    }

    /// The file whose pages hold exactly these rows, if any.
    pub(crate) fn base(&self) -> Option<&PagedReader> {
        match self {
            Rows::Resident(_) => None,
            Rows::Paged { base, .. } => Some(base),
        }
    }

    /// The pages a scan reads: the base's, while no copy of the rows is
    /// resident.
    pub(crate) fn pages(&self) -> Option<&PagedReader> {
        match self {
            Rows::Paged { base, resident } if resident.get().is_none() => Some(base),
            _ => None,
        }
    }

    /// The rows in memory, read from the pages on the first call that
    /// needs them: the one door from pages to memory.
    pub(crate) fn resident(&self) -> Result<&TemporalRelation> {
        match self {
            Rows::Resident(relation) => Ok(relation),
            Rows::Paged { base, resident } => match resident.get() {
                Some(relation) => Ok(relation),
                None => {
                    let built = base.read_relation()?;
                    Ok(resident.get_or_init(|| built))
                }
            },
        }
    }

    /// The rows in memory for a write, after which they no longer are the
    /// file's pages: the copy [`resident`](Rows::resident) built, or one
    /// read from the pages now.
    pub(crate) fn resident_mut(&mut self) -> Result<&mut TemporalRelation> {
        if let Rows::Paged { base, resident } = self {
            let relation = match resident.take() {
                Some(relation) => relation,
                None => base.read_relation()?,
            };
            *self = Rows::Resident(relation);
        }
        match self {
            Rows::Resident(relation) => Ok(relation),
            Rows::Paged { .. } => Err(TempAggError::internal("the rows were just made resident")),
        }
    }

    /// The rows in memory, owned.
    pub(crate) fn into_resident(self) -> Result<TemporalRelation> {
        match self {
            Rows::Resident(relation) => Ok(relation),
            Rows::Paged { base, resident } => match resident.into_inner() {
                Some(relation) => Ok(relation),
                None => base.read_relation(),
            },
        }
    }

    /// A scan of every row whose valid time may meet `window`, reading
    /// `columns` of each. Pages are read only while no copy is resident.
    pub(crate) fn scan(&self, window: Interval, columns: &[usize]) -> RowScan<'_> {
        let source = match (self.pages(), self) {
            (Some(pages), _) => Source::Pages {
                cursor: Box::new(PageCursor::new(pages, window)),
                projection: columns.to_vec(),
            },
            (None, Rows::Paged { resident, .. }) => {
                Source::Tuples(resident.get().map(TemporalRelation::tuples))
            }
            (None, Rows::Resident(relation)) => Source::Tuples(Some(relation.tuples())),
        };
        RowScan { source }
    }
}

/// A scan of a store's rows in storage order, one [`RowBatch`] at a time:
/// see [`TemporalStore::scan`](crate::TemporalStore::scan).
#[derive(Debug)]
pub struct RowScan<'a> {
    source: Source<'a>,
}

#[derive(Debug)]
enum Source<'a> {
    /// The resident tuples, handed out as one batch.
    Tuples(Option<&'a [Tuple]>),
    /// The base's pages overlapping the window, each decoded to
    /// `projection` (the cursor boxed: it holds a page per lane).
    Pages {
        cursor: Box<PageCursor<'a>>,
        projection: Vec<usize>,
    },
}

impl<'a> RowScan<'a> {
    /// The next batch of rows, or `None` when the scan is done. A page that
    /// fails its checksum or decode is a [`TempAggError::Storage`].
    pub fn next_batch(&mut self) -> Result<Option<RowBatch<'a>>> {
        match &mut self.source {
            Source::Tuples(tuples) => Ok(tuples.take().map(RowBatch::Tuples)),
            Source::Pages { cursor, projection } => {
                Ok(cursor.next_page(Some(projection))?.map(RowBatch::Page))
            }
        }
    }

    /// What a scan of the base reads of the file's pages; `None` for a scan
    /// of resident rows.
    pub fn pages(&self) -> Option<ScanPages> {
        match &self.source {
            Source::Tuples(_) => None,
            Source::Pages { cursor, .. } => {
                let read = cursor.planned_pages();
                Some(ScanPages {
                    read,
                    total: read + cursor.stats().pages_pruned,
                    overflow_read: cursor.planned_overflow_pages(),
                    overflow_total: cursor.reader().overflow_lane().len(),
                })
            }
        }
    }
}

/// The pages a [`RowScan`] of a file reads — those whose fences overlap
/// its window, whether read yet or not — of the file's `total`, and of
/// each the overflow lane's (both 0 for a file with one lane).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScanPages {
    pub read: usize,
    pub total: usize,
    pub overflow_read: usize,
    pub overflow_total: usize,
}

/// One batch of a [`RowScan`]: the resident tuples, or one decoded batch of
/// the file's rows (a page, or the merge of two lanes' pages).
#[derive(Debug)]
pub enum RowBatch<'a> {
    Tuples(&'a [Tuple]),
    Page(DecodedPage),
}

impl RowBatch<'_> {
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            RowBatch::Tuples(tuples) => tuples.len(),
            RowBatch::Page(page) => page.len(),
        }
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `index` of the batch (`index < len()`).
    pub fn row(&self, index: usize) -> Row<'_> {
        match self {
            RowBatch::Tuples(tuples) => Row::Tuple(&tuples[index]),
            RowBatch::Page(page) => Row::Page { page, index },
        }
    }
}

/// One row of a scan, borrowed from its batch: a resident tuple, or row
/// `index` of a decoded page.
#[derive(Clone, Copy, Debug)]
pub enum Row<'a> {
    Tuple(&'a Tuple),
    Page { page: &'a DecodedPage, index: usize },
}

/// What a column the scan did not decode reads as.
static NULL: Value = Value::Null;

impl<'a> Row<'a> {
    /// The row's valid time.
    #[inline]
    pub fn valid(self) -> Interval {
        match self {
            Row::Tuple(tuple) => tuple.valid(),
            Row::Page { page, index } => page.intervals[index],
        }
    }

    /// Attribute `column`; NULL for a column the scan did not decode.
    #[inline]
    pub fn value(self, column: usize) -> &'a Value {
        match self {
            Row::Tuple(tuple) => tuple.value(column),
            Row::Page { page, index } => match &page.columns[column] {
                Some(values) => &values[index],
                None => &NULL,
            },
        }
    }
}
