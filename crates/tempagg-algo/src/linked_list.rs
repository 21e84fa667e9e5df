//! The linked-list ("naive") algorithm (Section 4.2).
//!
//! An ordered list of constant intervals, each with a partial aggregate
//! state, is maintained over the whole domain. For each tuple, the list is
//! scanned from the head for the element containing the tuple's start time
//! (exactly as the paper's implementation "simply compare[s] the tuple's
//! start and end times with the start and end times of each interval in the
//! list"); that element and the element containing the end time are split,
//! and every element in between has its state updated.
//!
//! This is a one-scan improvement over Tuma's two-scan approach, but the
//! per-tuple head scan makes it `O(n · |result|)` — the paper measures it
//! ~300× slower than the aggregation tree at 64K tuples, while noting it is
//! perfectly adequate when the result has few constant intervals and that
//! it is completely insensitive to tuple lifespans and ordering.

use crate::memory::{MemoryStats, MODEL_POINTER_BYTES};
use crate::traits::TemporalAggregator;
use tempagg_agg::Aggregate;
use tempagg_core::{Interval, Result, SeriesSink, TempAggError};

/// One list element: a constant interval and its partial aggregate.
#[derive(Clone, Debug)]
struct Cell<S> {
    interval: Interval,
    state: S,
}

/// The linked-list algorithm.
///
/// # Example
///
/// ```
/// use tempagg_agg::Sum;
/// use tempagg_algo::{LinkedListAggregate, TemporalAggregator};
/// use tempagg_core::{Interval, Timestamp};
///
/// let mut list = LinkedListAggregate::new(Sum::<i64>::new());
/// list.push(Interval::at(0, 10), 5).unwrap();
/// list.push(Interval::at(5, 15), 7).unwrap();
/// let series = list.finish();
/// assert_eq!(series.value_at(Timestamp(7)), Some(&Some(12)));
/// ```
///
/// The cells are kept in a `Vec` in time order; lookup still scans from the
/// head, faithful to the paper's cost model, and splits splice into the
/// vector. (A pointer-chained list would only add cache misses on top of
/// the same asymptotics.)
#[derive(Clone, Debug)]
pub struct LinkedListAggregate<A: Aggregate> {
    agg: A,
    cells: Vec<Cell<A::State>>,
    domain: Interval,
    peak_cells: usize,
    tuples: usize,
}

impl<A: Aggregate> LinkedListAggregate<A> {
    /// A list over the paper's time-line `[0, ∞]`.
    pub fn new(agg: A) -> Self {
        Self::with_domain(agg, Interval::TIMELINE)
    }

    /// A list over an explicit domain, initially one empty constant
    /// interval spanning it.
    pub fn with_domain(agg: A, domain: Interval) -> Self {
        let cells = vec![Cell {
            interval: domain,
            state: agg.empty_state(),
        }];
        LinkedListAggregate {
            agg,
            cells,
            domain,
            peak_cells: 1,
            tuples: 0,
        }
    }

    /// Tuples inserted so far.
    pub fn len(&self) -> usize {
        self.tuples
    }

    /// `true` before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.tuples == 0
    }

    /// Current number of list cells (constant intervals).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Split the cell at `idx` so that a constant interval begins exactly
    /// at `s` (no-op if it already does). After the call, `idx` addresses
    /// the cell starting at `s`.
    fn ensure_start_boundary(&mut self, idx: usize, s: tempagg_core::Timestamp) -> usize {
        if let Some((left, right)) = self.cells[idx].interval.split_before(s) {
            let state = self.cells[idx].state.clone();
            self.cells[idx].interval = left;
            self.cells.insert(
                idx + 1,
                Cell {
                    interval: right,
                    state,
                },
            );
            idx + 1
        } else {
            idx
        }
    }

    /// Split the cell at `idx` so that a constant interval ends exactly at
    /// `e` (no-op if it already does). `idx` keeps addressing the left
    /// (ending-at-`e`) part.
    fn ensure_end_boundary(&mut self, idx: usize, e: tempagg_core::Timestamp) {
        if let Some((left, right)) = self.cells[idx].interval.split_after(e) {
            let state = self.cells[idx].state.clone();
            self.cells[idx].interval = left;
            self.cells.insert(
                idx + 1,
                Cell {
                    interval: right,
                    state,
                },
            );
        }
    }

    /// Split boundaries and fold `value` into every covered cell, starting
    /// from the cell at `idx`, which must contain the tuple's start time.
    /// The shared tail of the head-scan and binary-search insert paths.
    fn apply_at(&mut self, mut idx: usize, interval: Interval, value: &A::Input) {
        idx = self.ensure_start_boundary(idx, interval.start());
        // Update every wholly-covered element until the one containing the
        // end time, splitting it if the end falls inside.
        loop {
            // lint: allow(indexing): idx starts at a cell containing interval.start and the break below fires before idx can pass the cell containing interval.end
            let cell_end = self.cells[idx].interval.end();
            if cell_end >= interval.end() {
                self.ensure_end_boundary(idx, interval.end());
                // lint: allow(indexing): same walk invariant — idx still addresses the end-containing cell
                self.agg.insert(&mut self.cells[idx].state, value);
                break;
            }
            // lint: allow(indexing): same walk invariant — idx is behind the end-containing cell here
            self.agg.insert(&mut self.cells[idx].state, value);
            idx += 1;
        }
        self.peak_cells = self.peak_cells.max(self.cells.len());
        self.tuples += 1;
    }
}

impl<A: Aggregate> TemporalAggregator<A> for LinkedListAggregate<A> {
    fn algorithm(&self) -> &'static str {
        "linked-list"
    }

    fn domain(&self) -> Interval {
        self.domain
    }

    fn push(&mut self, interval: Interval, value: A::Input) -> Result<()> {
        if !self.domain.covers(&interval) {
            return Err(TempAggError::OutOfDomain {
                tuple: (interval.start(), interval.end()),
                domain: (self.domain.start(), self.domain.end()),
            });
        }
        // Head scan for the element containing the start time — the
        // paper's list walk. The list partitions the domain, so this always
        // finds one.
        let idx = self
            .cells
            .iter()
            .position(|c| c.interval.contains(interval.start()))
            .ok_or_else(|| {
                TempAggError::internal(format!(
                    "no list cell contains {} — the cells no longer partition the domain",
                    interval.start()
                ))
            })?;
        self.apply_at(idx, interval, &value);
        Ok(())
    }

    /// Batched insert: the start cell is found by *binary search* over the
    /// time-ordered cells instead of the paper's head scan, turning the
    /// per-tuple lookup from `O(cells)` into `O(log cells)`. The serial
    /// [`push`](TemporalAggregator::push) keeps the head scan to stay
    /// faithful to the paper's cost model; the batch path is the modern
    /// fast path the executors use. The whole batch is domain-checked
    /// before any cell is touched.
    fn push_batch(&mut self, chunk: &tempagg_core::Chunk<A::Input>) -> Result<()>
    where
        A::Input: Clone,
    {
        for i in 0..chunk.len() {
            let Some(interval) = chunk.interval(i) else {
                return Err(TempAggError::internal("chunk columns out of step"));
            };
            if !self.domain.covers(&interval) {
                return Err(TempAggError::OutOfDomain {
                    tuple: (interval.start(), interval.end()),
                    domain: (self.domain.start(), self.domain.end()),
                });
            }
        }
        for (interval, value) in chunk {
            // The cells tile the domain in time order, so the first cell
            // not ending before the start time contains it.
            let idx = self
                .cells
                .partition_point(|c| c.interval.end() < interval.start());
            if idx >= self.cells.len() {
                return Err(TempAggError::internal(format!(
                    "no list cell contains {} — the cells no longer partition the domain",
                    interval.start()
                )));
            }
            self.apply_at(idx, interval, value);
        }
        Ok(())
    }

    fn finish_into(self, sink: &mut impl SeriesSink<A::Output>) {
        let agg = self.agg;
        for c in self.cells {
            sink.accept(c.interval, agg.finish(&c.state));
        }
    }

    fn memory(&self) -> MemoryStats {
        MemoryStats {
            live_nodes: self.cells.len(),
            peak_nodes: self.peak_cells,
            // "The linked list algorithm used 16 bytes per node as it
            // stored two timestamps" (plus the aggregate value).
            node_model_bytes: MODEL_POINTER_BYTES
                + self.agg.state_model_bytes()
                + MODEL_POINTER_BYTES / 2,
            node_actual_bytes: std::mem::size_of::<Cell<A::State>>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_agg::{Count, Sum};

    fn employed_list() -> LinkedListAggregate<Count> {
        let mut l = LinkedListAggregate::new(Count);
        l.push(Interval::from_start(18), ()).unwrap();
        l.push(Interval::at(8, 20), ()).unwrap();
        l.push(Interval::at(7, 12), ()).unwrap();
        l.push(Interval::at(18, 21), ()).unwrap();
        l
    }

    #[test]
    fn table1_result() {
        let s = employed_list().finish();
        let rows: Vec<(Interval, u64)> = s.iter().map(|e| (e.interval, e.value)).collect();
        assert_eq!(
            rows,
            vec![
                (Interval::at(0, 6), 0),
                (Interval::at(7, 7), 1),
                (Interval::at(8, 12), 2),
                (Interval::at(13, 17), 1),
                (Interval::at(18, 20), 3),
                (Interval::at(21, 21), 2),
                (Interval::from_start(22), 1),
            ]
        );
    }

    #[test]
    fn one_cell_per_unique_timestamp_plus_one() {
        // "each unique timestamp adds … only one [node] in the case of the
        // linked list algorithm" (Section 7): 6 unique timestamps → 7 cells.
        let l = employed_list();
        assert_eq!(l.cell_count(), 7);
        let m = l.memory();
        assert_eq!(m.live_nodes, 7);
        assert_eq!(m.peak_nodes, 7);
        assert_eq!(m.node_model_bytes, 16);
    }

    #[test]
    fn duplicate_intervals_share_cells() {
        let mut l = LinkedListAggregate::new(Count);
        l.push(Interval::at(5, 9), ()).unwrap();
        l.push(Interval::at(5, 9), ()).unwrap();
        assert_eq!(l.cell_count(), 3);
        let s = l.finish();
        assert_eq!(s.entries()[1].value, 2);
    }

    #[test]
    fn out_of_domain_rejected() {
        let mut l = LinkedListAggregate::with_domain(Count, Interval::at(10, 20));
        assert!(l.push(Interval::at(5, 15), ()).is_err());
        assert_eq!(l.len(), 0);
        assert!(l.push(Interval::at(10, 20), ()).is_ok());
        assert_eq!(l.len(), 1);
        assert!(!l.is_empty());
    }

    #[test]
    fn empty_list_emits_domain() {
        let l: LinkedListAggregate<Count> = LinkedListAggregate::new(Count);
        let s = l.finish();
        assert_eq!(s.len(), 1);
        assert_eq!(s.entries()[0].interval, Interval::TIMELINE);
        assert_eq!(s.entries()[0].value, 0);
    }

    #[test]
    fn sum_with_overlapping_updates() {
        let mut l = LinkedListAggregate::new(Sum::<i64>::new());
        l.push(Interval::at(0, 10), 5).unwrap();
        l.push(Interval::at(5, 15), 7).unwrap();
        let s = l.finish();
        let rows: Vec<(Interval, Option<i128>)> = s.iter().map(|e| (e.interval, e.value)).collect();
        assert_eq!(
            rows,
            vec![
                (Interval::at(0, 4), Some(5)),
                (Interval::at(5, 10), Some(12)),
                (Interval::at(11, 15), Some(7)),
                (Interval::from_start(16), None),
            ]
        );
    }

    #[test]
    fn boundary_reuse_no_split() {
        let mut l = LinkedListAggregate::new(Count);
        l.push(Interval::at(0, 9), ()).unwrap();
        // Starts exactly where the previous ended + 1: boundary exists.
        l.push(Interval::at(10, 19), ()).unwrap();
        assert_eq!(l.cell_count(), 3);
    }

    #[test]
    fn covering_whole_domain() {
        let mut l = LinkedListAggregate::with_domain(Count, Interval::at(0, 99));
        l.push(Interval::at(0, 99), ()).unwrap();
        assert_eq!(l.cell_count(), 1);
        let s = l.finish();
        assert_eq!(s.entries()[0].value, 1);
    }
}
