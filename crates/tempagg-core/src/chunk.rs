//! Batches of interval-stamped values in structure-of-arrays layout.
//!
//! The evaluation pipeline feeds tuples to the algorithms in bounded
//! [`Chunk`]s rather than one at a time. Keeping the start times, end
//! times, and values in three parallel columns lets a batch consumer scan
//! the timestamps without pulling the (possibly wide) values through the
//! cache — the layout Piatov-style sweeping exploits — and gives the
//! partitioned executor one shared, immutable block that every worker can
//! filter by overlap.

use crate::error::{Result, TempAggError};
use crate::interval::Interval;
use crate::timestamp::Timestamp;

/// Default number of tuples per chunk used by the executors.
///
/// 4096 tuples keep the three columns comfortably inside L2 for the common
/// value types while amortising per-batch overhead (worker hand-off,
/// bounds checks) over thousands of tuples.
pub const DEFAULT_CHUNK_CAPACITY: usize = 4096;

/// A bounded batch of `(interval, value)` pairs in SoA layout.
///
/// The columns always have equal length; `push` refuses to grow past the
/// configured capacity so a streaming producer can treat "full" as the
/// signal to hand the chunk to [`push_batch`] and `clear` it.
///
/// [`push_batch`]: https://docs.rs/tempagg-algo — `TemporalAggregator::push_batch`
#[derive(Clone, Debug)]
pub struct Chunk<V> {
    starts: Vec<Timestamp>,
    ends: Vec<Timestamp>,
    values: Vec<V>,
    capacity: usize,
}

impl<V> Chunk<V> {
    /// An empty chunk holding at most `capacity` tuples (at least 1).
    pub fn with_capacity(capacity: usize) -> Chunk<V> {
        let capacity = capacity.max(1);
        Chunk {
            starts: Vec::with_capacity(capacity),
            ends: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// An empty chunk with the same bound as
    /// [`with_capacity`](Chunk::with_capacity) but nothing reserved: the
    /// columns grow as tuples arrive. For producers that fill many chunks
    /// of unknown final size at once (one per `GROUP BY` value), where
    /// reserving every bound up front would multiply the footprint.
    pub fn bounded(capacity: usize) -> Chunk<V> {
        Chunk {
            starts: Vec::new(),
            ends: Vec::new(),
            values: Vec::new(),
            capacity: capacity.max(1),
        }
    }

    /// An empty chunk with the pipeline's default capacity.
    pub fn new() -> Chunk<V> {
        Chunk::with_capacity(DEFAULT_CHUNK_CAPACITY)
    }

    /// The bound this chunk was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of tuples currently buffered.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// `true` iff no tuples are buffered.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// `true` iff another `push` would be refused.
    pub fn is_full(&self) -> bool {
        self.starts.len() >= self.capacity
    }

    /// Append one tuple; errors with [`TempAggError::ChunkFull`] at
    /// capacity (the producer should drain the chunk and `clear` it).
    pub fn push(&mut self, interval: Interval, value: V) -> Result<()> {
        if self.is_full() {
            return Err(TempAggError::ChunkFull {
                capacity: self.capacity,
            });
        }
        self.starts.push(interval.start());
        self.ends.push(interval.end());
        self.values.push(value);
        Ok(())
    }

    /// Drop all buffered tuples, keeping the allocations.
    pub fn clear(&mut self) {
        self.starts.clear();
        self.ends.clear();
        self.values.clear();
    }

    /// The start-time column.
    pub fn starts(&self) -> &[Timestamp] {
        &self.starts
    }

    /// The end-time column.
    pub fn ends(&self) -> &[Timestamp] {
        &self.ends
    }

    /// The value column.
    pub fn values(&self) -> &[V] {
        &self.values
    }

    /// The `i`-th tuple's interval, if in bounds.
    pub fn interval(&self, i: usize) -> Option<Interval> {
        let (start, end) = (self.starts.get(i)?, self.ends.get(i)?);
        // The columns only ever hold endpoints of a constructed
        // `Interval`, so `start <= end` already holds.
        Interval::new(*start, *end).ok()
    }

    /// Iterate `(interval, &value)` pairs in insertion order.
    pub fn iter(&self) -> ChunkIter<'_, V> {
        ChunkIter { chunk: self, i: 0 }
    }

    /// Hull of every buffered interval, `None` when empty.
    pub fn extent(&self) -> Option<Interval> {
        let min_start = self.starts.iter().min()?;
        let max_end = self.ends.iter().max()?;
        Interval::new(*min_start, *max_end).ok()
    }

    /// Append all three columns onto caller-owned run buffers — the
    /// columnar ingest path for sweep-style consumers that accumulate
    /// `(start, end, value)` runs across many chunks without going through
    /// per-tuple pushes.
    pub fn append_columns_to(
        &self,
        starts: &mut Vec<Timestamp>,
        ends: &mut Vec<Timestamp>,
        values: &mut Vec<V>,
    ) where
        V: Clone,
    {
        starts.extend_from_slice(&self.starts);
        ends.extend_from_slice(&self.ends);
        values.extend_from_slice(&self.values);
    }

    /// The first buffered interval not covered by `domain`, if any — the
    /// whole-batch domain check batch consumers run before ingesting any
    /// column.
    pub fn first_outside(&self, domain: Interval) -> Option<Interval> {
        self.starts
            .iter()
            .zip(&self.ends)
            .find(|(s, e)| **s < domain.start() || **e > domain.end())
            .and_then(|(s, e)| Interval::new(*s, *e).ok())
    }
}

impl<V> Default for Chunk<V> {
    fn default() -> Self {
        Chunk::new()
    }
}

/// Iterator over a chunk's `(interval, &value)` pairs.
#[derive(Debug)]
pub struct ChunkIter<'a, V> {
    chunk: &'a Chunk<V>,
    i: usize,
}

impl<'a, V> Iterator for ChunkIter<'a, V> {
    type Item = (Interval, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        let interval = self.chunk.interval(self.i)?;
        let value = self.chunk.values.get(self.i)?;
        self.i += 1;
        Some((interval, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.chunk.len().saturating_sub(self.i);
        (rest, Some(rest))
    }
}

impl<'a, V> IntoIterator for &'a Chunk<V> {
    type Item = (Interval, &'a V);
    type IntoIter = ChunkIter<'a, V>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_until_full() {
        let mut c: Chunk<u64> = Chunk::with_capacity(2);
        assert!(c.is_empty());
        c.push(Interval::at(0, 5), 1).unwrap();
        c.push(Interval::at(3, 9), 2).unwrap();
        assert!(c.is_full());
        assert_eq!(c.len(), 2);
        let err = c.push(Interval::at(4, 4), 3).unwrap_err();
        assert!(matches!(err, TempAggError::ChunkFull { capacity: 2 }));
    }

    #[test]
    fn columns_stay_parallel() {
        let mut c: Chunk<&str> = Chunk::with_capacity(8);
        c.push(Interval::at(10, 20), "a").unwrap();
        c.push(Interval::at(15, 15), "b").unwrap();
        assert_eq!(c.starts(), &[Timestamp(10), Timestamp(15)]);
        assert_eq!(c.ends(), &[Timestamp(20), Timestamp(15)]);
        assert_eq!(c.values(), &["a", "b"]);
        assert_eq!(c.interval(1), Some(Interval::at(15, 15)));
        assert_eq!(c.interval(2), None);
    }

    #[test]
    fn iter_yields_insertion_order() {
        let mut c: Chunk<i32> = Chunk::with_capacity(4);
        c.push(Interval::at(0, 1), 7).unwrap();
        c.push(Interval::at(5, 9), 8).unwrap();
        let pairs: Vec<(Interval, i32)> = c.iter().map(|(iv, v)| (iv, *v)).collect();
        assert_eq!(
            pairs,
            vec![(Interval::at(0, 1), 7), (Interval::at(5, 9), 8)]
        );
        assert_eq!(c.iter().size_hint(), (2, Some(2)));
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut c: Chunk<u8> = Chunk::with_capacity(3);
        c.push(Interval::at(0, 0), 1).unwrap();
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 3);
        c.push(Interval::at(9, 9), 2).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn extent_is_interval_hull() {
        let mut c: Chunk<u8> = Chunk::with_capacity(4);
        assert_eq!(c.extent(), None);
        c.push(Interval::at(10, 12), 0).unwrap();
        c.push(Interval::at(2, 4), 0).unwrap();
        c.push(Interval::at(11, 30), 0).unwrap();
        assert_eq!(c.extent(), Some(Interval::at(2, 30)));
    }

    #[test]
    fn append_columns_concatenates_runs() {
        let mut a: Chunk<i64> = Chunk::with_capacity(4);
        a.push(Interval::at(0, 5), 1).unwrap();
        a.push(Interval::at(3, 9), 2).unwrap();
        let mut b: Chunk<i64> = Chunk::with_capacity(4);
        b.push(Interval::at(7, 8), 3).unwrap();
        let (mut starts, mut ends, mut values) = (Vec::new(), Vec::new(), Vec::new());
        a.append_columns_to(&mut starts, &mut ends, &mut values);
        b.append_columns_to(&mut starts, &mut ends, &mut values);
        assert_eq!(starts, vec![Timestamp(0), Timestamp(3), Timestamp(7)]);
        assert_eq!(ends, vec![Timestamp(5), Timestamp(9), Timestamp(8)]);
        assert_eq!(values, vec![1, 2, 3]);
    }

    #[test]
    fn first_outside_finds_domain_violations() {
        let mut c: Chunk<u8> = Chunk::with_capacity(4);
        c.push(Interval::at(5, 10), 0).unwrap();
        c.push(Interval::at(2, 7), 0).unwrap();
        assert_eq!(c.first_outside(Interval::at(0, 20)), None);
        assert_eq!(
            c.first_outside(Interval::at(3, 20)),
            Some(Interval::at(2, 7))
        );
        assert_eq!(
            c.first_outside(Interval::at(0, 9)),
            Some(Interval::at(5, 10))
        );
    }

    #[test]
    fn bounded_chunks_refuse_growth_past_the_bound() {
        let mut c: Chunk<u8> = Chunk::bounded(2);
        assert_eq!(c.capacity(), 2);
        c.push(Interval::at(0, 0), 1).unwrap();
        c.push(Interval::at(1, 1), 2).unwrap();
        assert!(c.is_full());
        assert!(c.push(Interval::at(2, 2), 3).is_err());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut c: Chunk<u8> = Chunk::with_capacity(0);
        c.push(Interval::at(0, 0), 1).unwrap();
        assert!(c.is_full());
    }
}
