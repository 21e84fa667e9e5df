//! Immutable views of a chunked series: what a mutable store hands its
//! readers.
//!
//! A store keeps each cached aggregate series as fixed-capacity chunks of
//! `(interval, value)` runs and patches them in place under writes. A
//! reader never sees that working list. It gets a [`SeriesView`]: the
//! directory of the chunks as they stood when the view was published, each
//! chunk an `Arc` shared with the working list and with every other view
//! that holds it. Publishing clones one `Arc` per chunk and copies no run.
//! A write that must patch a chunk some view still holds copies that one
//! chunk first (`Arc::make_mut`), so a view never changes under its
//! reader, and every chunk no write touched stays shared.
//!
//! Holding a view *pins* its version. Collection is by reference count:
//! the store drops a version once nothing but itself holds the view
//! ([`holders`](SeriesView::holders) is 1).

use crate::interval::Interval;
use crate::series::{Series, SeriesEntry};
use crate::timestamp::Timestamp;
use std::sync::Arc;

/// One published version of a chunked series: its chunks, in time order,
/// shared with the series they were published from. Cloning a view clones
/// one `Arc`.
#[derive(Debug)]
pub struct SeriesView<T> {
    /// Never an empty chunk: a cursor is exhausted exactly when its chunk
    /// is.
    chunks: Arc<[Arc<Vec<SeriesEntry<T>>>]>,
    len: usize,
}

impl<T> Clone for SeriesView<T> {
    fn clone(&self) -> Self {
        SeriesView {
            chunks: Arc::clone(&self.chunks),
            len: self.len,
        }
    }
}

impl<T> Default for SeriesView<T> {
    fn default() -> Self {
        SeriesView::from_chunks(std::iter::empty())
    }
}

impl<T> SeriesView<T> {
    /// The view over `chunks`, time-ordered runs each; empty chunks are
    /// left out.
    pub fn from_chunks(chunks: impl IntoIterator<Item = Arc<Vec<SeriesEntry<T>>>>) -> Self {
        let chunks: Arc<[_]> = chunks
            .into_iter()
            .filter(|chunk| !chunk.is_empty())
            .collect();
        let len = chunks.iter().map(|chunk| chunk.len()).sum();
        SeriesView { chunks, len }
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many clones of this view are alive, this one included: a store
    /// holding a version sees 1 once no reader pins it.
    pub fn holders(&self) -> usize {
        Arc::strong_count(&self.chunks)
    }

    /// The chunks, in time order.
    pub fn chunks(&self) -> impl ExactSizeIterator<Item = &[SeriesEntry<T>]> {
        self.chunks.iter().map(|chunk| chunk.as_slice())
    }

    /// A cursor from the first run.
    pub fn runs(&self) -> ViewCursor<'_, T> {
        let mut later = self.chunks.iter();
        let ahead = later.next().map_or(&[][..], |chunk| chunk.as_slice());
        ViewCursor { ahead, later }
    }

    /// A cursor from the first run that ends at or after `t`: the run
    /// containing `t`, in a series that covers it.
    pub fn runs_from(&self, t: Timestamp) -> ViewCursor<'_, T> {
        let c = self
            .chunks
            .partition_point(|chunk| chunk.last().is_some_and(|run| run.interval.end() < t));
        let mut later = self.chunks.get(c..).unwrap_or_default().iter();
        let chunk = later.next().map_or(&[][..], |chunk| chunk.as_slice());
        let i = chunk.partition_point(|run| run.interval.end() < t);
        ViewCursor {
            ahead: chunk.get(i..).unwrap_or_default(),
            later,
        }
    }

    /// Visit every run overlapping `window`, in time order, clipped to it.
    pub fn for_each_in(&self, window: Interval, mut f: impl FnMut(Interval, &T)) {
        for run in self.runs_from(window.start()) {
            if run.interval.start() > window.end() {
                return;
            }
            if let Some(clipped) = run.interval.intersect(&window) {
                f(clipped, &run.value);
            }
        }
    }
}

impl<T: Clone> SeriesView<T> {
    /// The runs copied into one series: O(runs).
    pub fn to_series(&self) -> Series<T> {
        let mut entries = Vec::with_capacity(self.len);
        for chunk in self.chunks() {
            entries.extend_from_slice(chunk);
        }
        Series::from_entries(entries)
    }
}

/// A cursor over a view's runs in time order, chunk by chunk.
#[derive(Debug)]
pub struct ViewCursor<'a, T> {
    /// The current chunk's runs from the cursor on: empty only once every
    /// run was passed.
    ahead: &'a [SeriesEntry<T>],
    /// The chunks after the current one.
    later: std::slice::Iter<'a, Arc<Vec<SeriesEntry<T>>>>,
}

impl<T> Clone for ViewCursor<'_, T> {
    fn clone(&self) -> Self {
        ViewCursor {
            ahead: self.ahead,
            later: self.later.clone(),
        }
    }
}

impl<'a, T> ViewCursor<'a, T> {
    /// The run the next call of `next` returns, without passing it.
    #[inline]
    pub fn current(&self) -> Option<&'a SeriesEntry<T>> {
        self.ahead.first()
    }
}

impl<'a, T> Iterator for ViewCursor<'a, T> {
    type Item = &'a SeriesEntry<T>;

    #[inline]
    fn next(&mut self) -> Option<&'a SeriesEntry<T>> {
        let (run, rest) = self.ahead.split_first()?;
        self.ahead = match rest {
            [] => self.later.next().map_or(&[][..], |chunk| chunk.as_slice()),
            _ => rest,
        };
        Some(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `[10i, 10i + 9]` valued `i`, cut into chunks of `cuts` runs.
    fn view(cuts: &[usize]) -> SeriesView<i64> {
        let mut next = 0i64;
        SeriesView::from_chunks(cuts.iter().map(|&n| {
            let chunk = (0..n)
                .map(|_| {
                    next += 1;
                    SeriesEntry::new(Interval::at(10 * next - 10, 10 * next - 1), next - 1)
                })
                .collect();
            Arc::new(chunk)
        }))
    }

    #[test]
    fn cursors_cross_chunk_cuts() {
        let a = view(&[3, 1, 4]);
        let b = view(&[8]);
        assert_eq!(a.len(), 8);
        assert_eq!(
            a.runs().map(|run| run.value).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        let mut cursor = a.runs_from(Timestamp::new(35));
        assert_eq!(cursor.current().map(|run| run.value), Some(3));
        assert_eq!(cursor.nth(1).map(|run| run.value), Some(4));
        assert_eq!(cursor.current().map(|run| run.value), Some(5));
        assert_eq!(a.runs_from(Timestamp::new(79)).count(), 1);
        assert_eq!(a.runs_from(Timestamp::new(80)).count(), 0);
        let mut seen = Vec::new();
        a.for_each_in(Interval::at(25, 41), |iv, v| seen.push((iv, *v)));
        assert_eq!(
            seen,
            [
                (Interval::at(25, 29), 2),
                (Interval::at(30, 39), 3),
                (Interval::at(40, 41), 4)
            ]
        );
        assert_eq!(a.to_series(), b.to_series());
        assert_ne!(a.to_series(), view(&[3, 4]).to_series());
    }

    #[test]
    fn empty_chunks_are_left_out_and_clones_are_counted() {
        let empty = view(&[0, 0]);
        assert!(empty.is_empty());
        assert_eq!(empty.chunks().len(), 0);
        assert!(empty.runs().next().is_none());
        assert!(SeriesView::<i64>::default().is_empty());
        let a = view(&[2, 0, 2]);
        assert_eq!(a.chunks().len(), 2);
        assert_eq!(a.holders(), 1);
        let b = a.clone();
        assert_eq!((a.holders(), b.holders()), (2, 2));
        drop(b);
        assert_eq!(a.holders(), 1);
    }
}
