//! Streaming emission of aggregate results.
//!
//! Every algorithm in the workspace produces the constant intervals of its
//! result in time order. A [`SeriesSink`] receives them one at a time, so a
//! producer can *emit and free* finished intervals while input is still
//! arriving — the property the paper's k-ordered aggregation tree exists
//! for — instead of materializing the whole [`Series`] first.
//!
//! Sinks provided here:
//!
//! * [`Series`] and `Vec<SeriesEntry<T>>` — plain collectors (the
//!   materialized path is a thin wrapper over these);
//! * [`ChunkedSink`] — bounds resident result memory by handing fixed-size
//!   chunks to a consumer callback;
//! * [`CountingSink`] — counts entries and tracks the covered extent
//!   without storing values;
//! * [`StitchSink`] — the one stitcher of partitioned results: coalesces
//!   equal-value entries that meet across artificial partition seams while
//!   forwarding everything else untouched.

use crate::interval::Interval;
use crate::series::{Series, SeriesEntry};
use std::fmt;

/// Receives the constant intervals of an aggregate result in time order.
///
/// Producers must call [`SeriesSink::accept`] with strictly increasing,
/// non-overlapping intervals — the same invariant [`Series::push`]
/// enforces on the collecting path.
pub trait SeriesSink<T> {
    /// Accept the next constant interval of the result.
    fn accept(&mut self, interval: Interval, value: T);
}

/// A `Series` collects what it is fed (the materialized result path).
impl<T> SeriesSink<T> for Series<T> {
    fn accept(&mut self, interval: Interval, value: T) {
        self.push(interval, value);
    }
}

/// A plain `Vec` collects entries without the `Series` ordering check;
/// useful for internal buffers that are validated elsewhere.
impl<T> SeriesSink<T> for Vec<SeriesEntry<T>> {
    fn accept(&mut self, interval: Interval, value: T) {
        self.push(SeriesEntry::new(interval, value));
    }
}

/// Forwarding impl so `&mut sink` can be passed down call chains.
impl<T, S: SeriesSink<T> + ?Sized> SeriesSink<T> for &mut S {
    fn accept(&mut self, interval: Interval, value: T) {
        (**self).accept(interval, value);
    }
}

/// A bounded sink: buffers up to `capacity` entries, then hands the full
/// chunk to the consumer callback and reuses the buffer. Peak resident
/// result memory is `capacity` entries regardless of result cardinality.
pub struct ChunkedSink<T, F: FnMut(&[SeriesEntry<T>])> {
    buf: Vec<SeriesEntry<T>>,
    capacity: usize,
    consumer: F,
    chunks_emitted: usize,
    accepted: usize,
    peak_resident: usize,
}

impl<T, F: FnMut(&[SeriesEntry<T>])> ChunkedSink<T, F> {
    /// A sink emitting chunks of up to `capacity` entries (clamped to at
    /// least 1) to `consumer`.
    pub fn new(capacity: usize, consumer: F) -> Self {
        let capacity = capacity.max(1);
        ChunkedSink {
            buf: Vec::with_capacity(capacity),
            capacity,
            consumer,
            chunks_emitted: 0,
            accepted: 0,
            peak_resident: 0,
        }
    }

    /// Hand any buffered entries to the consumer as a final, possibly
    /// short, chunk. Call once after the producer finishes.
    pub fn flush(&mut self) {
        if !self.buf.is_empty() {
            (self.consumer)(&self.buf);
            self.chunks_emitted += 1;
            self.buf.clear();
        }
    }

    /// Chunks handed to the consumer so far.
    pub fn chunks_emitted(&self) -> usize {
        self.chunks_emitted
    }

    /// Total entries accepted so far.
    pub fn accepted(&self) -> usize {
        self.accepted
    }

    /// High-water mark of buffered (resident) entries.
    pub fn peak_resident(&self) -> usize {
        self.peak_resident
    }

    /// Entries currently buffered (not yet handed to the consumer).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

impl<T, F: FnMut(&[SeriesEntry<T>])> SeriesSink<T> for ChunkedSink<T, F> {
    fn accept(&mut self, interval: Interval, value: T) {
        debug_assert!(
            self.buf
                .last()
                .map_or(true, |last| last.interval.end() < interval.start()),
            "chunked entries must be accepted in time order"
        );
        self.buf.push(SeriesEntry::new(interval, value));
        self.accepted += 1;
        self.peak_resident = self.peak_resident.max(self.buf.len());
        if self.buf.len() >= self.capacity {
            self.flush();
        }
    }
}

impl<T, F: FnMut(&[SeriesEntry<T>])> fmt::Debug for ChunkedSink<T, F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChunkedSink")
            .field("capacity", &self.capacity)
            .field("buffered", &self.buf.len())
            .field("chunks_emitted", &self.chunks_emitted)
            .field("accepted", &self.accepted)
            .field("peak_resident", &self.peak_resident)
            .finish()
    }
}

/// A stat sink: counts entries and tracks the covered extent, discarding
/// values — cardinality/coverage answers with zero result storage.
#[derive(Clone, Copy, Debug, Default)]
pub struct CountingSink {
    entries: usize,
    extent: Option<Interval>,
}

impl CountingSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries accepted so far.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Hull of every accepted interval, `None` before the first.
    pub fn extent(&self) -> Option<Interval> {
        self.extent
    }
}

impl<T> SeriesSink<T> for CountingSink {
    fn accept(&mut self, interval: Interval, _value: T) {
        self.entries += 1;
        self.extent = Some(match self.extent {
            Some(e) => e.hull(&interval),
            None => interval,
        });
    }
}

/// The stitcher of partitioned results: an adapter that coalesces
/// equal-value entries meeting across *allowed* partition seams and
/// forwards everything else to the inner sink untouched.
///
/// Serial algorithm output is split at tuple start/end times but not
/// otherwise coalesced: two adjacent constant intervals can carry equal
/// values when a real tuple boundary separates them. A partitioned run must
/// therefore merge across a seam only when the cut was *artificial* — no
/// tuple started or ended there — which is what the partitioned
/// aggregator's seam marks report.
///
/// Protocol: feed each partition's entries in time order via
/// [`SeriesSink::accept`], calling [`StitchSink::seam`] once between
/// consecutive partitions (with `allow = true` for an artificial cut, as
/// reported by the partitioned aggregator's seam map), then
/// [`StitchSink::finish`] to flush the last held-back entry. An entry
/// arriving after several seams (empty partitions in between) merges only
/// if *every* crossed seam allowed it.
///
/// At most one entry is held back at a time, so the adapter adds O(1)
/// resident memory on top of the inner sink.
#[derive(Debug)]
pub struct StitchSink<T, S> {
    inner: S,
    pending: Option<SeriesEntry<T>>,
    /// Every seam crossed since the last accepted entry allowed merging.
    merge_next: bool,
    /// At least one seam was crossed since the last accepted entry.
    armed: bool,
}

impl<T: PartialEq, S: SeriesSink<T>> StitchSink<T, S> {
    pub fn new(inner: S) -> Self {
        StitchSink {
            inner,
            pending: None,
            merge_next: false,
            armed: false,
        }
    }

    /// Cross a partition seam; `allow` is whether the cut was artificial
    /// (no tuple started or ended there) and may thus merge away.
    pub fn seam(&mut self, allow: bool) {
        if self.armed {
            self.merge_next &= allow;
        } else {
            self.merge_next = allow;
            self.armed = true;
        }
    }

    /// Flush the held-back entry and return the inner sink.
    pub fn finish(mut self) -> S {
        if let Some(p) = self.pending.take() {
            self.inner.accept(p.interval, p.value);
        }
        self.inner
    }
}

impl<T: PartialEq, S: SeriesSink<T>> SeriesSink<T> for StitchSink<T, S> {
    fn accept(&mut self, interval: Interval, value: T) {
        match &mut self.pending {
            Some(p) if self.merge_next && p.interval.meets(&interval) && p.value == value => {
                p.interval = p.interval.hull(&interval);
            }
            _ => {
                debug_assert!(
                    self.pending
                        .as_ref()
                        .map_or(true, |p| p.interval.end() < interval.start()),
                    "stitched entries must be accepted in time order"
                );
                if let Some(prev) = self.pending.replace(SeriesEntry::new(interval, value)) {
                    self.inner.accept(prev.interval, prev.value);
                }
            }
        }
        self.merge_next = false;
        self.armed = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(v: &[(i64, i64, u64)]) -> Series<u64> {
        let mut s = Series::new();
        for &(a, b, x) in v {
            s.push(Interval::at(a, b), x);
        }
        s
    }

    /// Stream `parts` through a `StitchSink` the way a partitioned
    /// aggregator would: one `seam` call between consecutive parts.
    fn stream_stitch(parts: &[Series<u64>], mut allow: impl FnMut(usize) -> bool) -> Series<u64> {
        let mut sink = StitchSink::new(Series::new());
        for (p, part) in parts.iter().enumerate() {
            if p > 0 {
                sink.seam(allow(p - 1));
            }
            for e in part {
                sink.accept(e.interval, e.value);
            }
        }
        sink.finish()
    }

    #[test]
    fn series_and_vec_collect() {
        let mut s: Series<u64> = Series::new();
        s.accept(Interval::at(0, 4), 1);
        s.accept(Interval::at(5, 9), 2);
        assert_eq!(s.len(), 2);

        let mut v: Vec<SeriesEntry<u64>> = Vec::new();
        v.accept(Interval::at(0, 4), 1);
        assert_eq!(v, vec![SeriesEntry::new(Interval::at(0, 4), 1)]);
    }

    #[test]
    fn forwarding_through_mut_ref() {
        fn feed<T, S: SeriesSink<T>>(mut sink: S, interval: Interval, value: T) {
            sink.accept(interval, value);
        }
        let mut s: Series<u64> = Series::new();
        feed(&mut s, Interval::at(0, 4), 7);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn chunked_sink_emits_fixed_chunks_and_tracks_stats() {
        let mut seen: Vec<Vec<u64>> = Vec::new();
        let mut sink = ChunkedSink::new(2, |chunk: &[SeriesEntry<u64>]| {
            seen.push(chunk.iter().map(|e| e.value).collect());
        });
        for i in 0..5i64 {
            sink.accept(Interval::at(2 * i, 2 * i + 1), u64::try_from(i).unwrap());
        }
        assert_eq!(sink.chunks_emitted(), 2);
        assert_eq!(sink.buffered(), 1);
        sink.flush();
        assert_eq!(sink.chunks_emitted(), 3);
        assert_eq!(sink.accepted(), 5);
        assert_eq!(sink.peak_resident(), 2);
        assert_eq!(sink.buffered(), 0);
        drop(sink);
        assert_eq!(seen, vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn chunked_sink_flush_of_empty_buffer_is_a_no_op() {
        let mut calls = 0usize;
        let mut sink: ChunkedSink<u64, _> = ChunkedSink::new(4, |_chunk| calls += 1);
        sink.flush();
        assert_eq!(sink.chunks_emitted(), 0);
        drop(sink);
        assert_eq!(calls, 0);
    }

    #[test]
    fn chunked_sink_capacity_is_clamped() {
        let mut sink: ChunkedSink<u64, _> = ChunkedSink::new(0, |_chunk| {});
        sink.accept(Interval::at(0, 1), 1);
        assert_eq!(sink.chunks_emitted(), 1);
    }

    #[test]
    fn counting_sink_counts_and_hulls() {
        let mut sink = CountingSink::new();
        assert_eq!(sink.entries(), 0);
        assert_eq!(sink.extent(), None);
        sink.accept(Interval::at(0, 4), 1u64);
        sink.accept(Interval::at(10, 14), 2u64);
        assert_eq!(sink.entries(), 2);
        assert_eq!(sink.extent(), Some(Interval::at(0, 14)));
    }

    #[test]
    fn stitch_sink_merges_equal_values_across_allowed_seams() {
        let parts = vec![
            series(&[(0, 4, 1), (5, 9, 2)]),
            series(&[(10, 14, 2), (15, 19, 3)]),
            series(&[(20, 29, 4)]),
        ];
        let streamed = stream_stitch(&parts, |_| true);
        assert_eq!(
            streamed,
            series(&[(0, 4, 1), (5, 14, 2), (15, 19, 3), (20, 29, 4)])
        );
    }

    #[test]
    fn stitch_sink_respects_real_boundaries() {
        let parts = vec![series(&[(0, 9, 1)]), series(&[(10, 19, 1)])];
        let kept = stream_stitch(&parts, |_| false);
        assert_eq!(kept, series(&[(0, 9, 1), (10, 19, 1)]));
        let merged = stream_stitch(&parts, |_| true);
        assert_eq!(merged, series(&[(0, 19, 1)]));
    }

    #[test]
    fn stitch_sink_ands_seams_across_empty_parts() {
        let parts = vec![series(&[(0, 9, 7)]), Series::new(), series(&[(10, 19, 7)])];
        let merged = stream_stitch(&parts, |_| true);
        assert_eq!(merged, series(&[(0, 19, 7)]));
        let kept = stream_stitch(&parts, |seam| seam != 1);
        assert_eq!(kept, series(&[(0, 9, 7), (10, 19, 7)]));
        let kept = stream_stitch(&parts, |seam| seam != 0);
        assert_eq!(kept, series(&[(0, 9, 7), (10, 19, 7)]));
    }

    #[test]
    fn stitch_sink_never_merges_distinct_values_gaps_or_interiors() {
        // Distinct values across the seam.
        let parts = vec![series(&[(0, 9, 1)]), series(&[(10, 19, 2)])];
        assert_eq!(stream_stitch(&parts, |_| true).len(), 2);
        // A gap at the seam.
        let parts = vec![series(&[(0, 9, 1)]), series(&[(11, 19, 1)])];
        assert_eq!(stream_stitch(&parts, |_| true).len(), 2);
        // Interior equal-value entries of one part are never coalesced.
        let parts = vec![series(&[(0, 4, 1), (5, 9, 1)]), series(&[(10, 19, 1)])];
        let s = stream_stitch(&parts, |_| true);
        assert_eq!(s, series(&[(0, 4, 1), (5, 19, 1)]));
    }

    #[test]
    fn stitch_sink_of_empty_and_singleton() {
        let empty = stream_stitch(&[], |_| true);
        assert!(empty.is_empty());
        let one = stream_stitch(&[series(&[(3, 5, 9)])], |_| true);
        assert_eq!(one.len(), 1);
        let all_empty = stream_stitch(&[Series::new(), Series::new()], |_| true);
        assert!(all_empty.is_empty());
    }
}
