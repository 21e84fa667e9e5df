//! Result rows: the row type, the buffer a query's rows go to, the sink
//! an aggregation set's series drains into it, and the merge that turns
//! cached snapshots into rows.
//!
//! A temporal aggregate is output-bound (`n` tuples, up to `2n + 1`
//! constant intervals), so this is where a query that scans nothing spends
//! its time. A row's values live inside the row ([`RowValues`]), every row
//! is written once — by the algorithm's `finish_into` through
//! [`GroupSink`], or by [`merge_snapshots`] — and a collected result is
//! the buffer itself.

use std::sync::Arc;
use tempagg_core::{Interval, Result, RowValues, Series, SeriesSink, TempAggError, Value};

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

/// Where a query's rows go, in (group, time) order: collected whole
/// ([`execute_query`](crate::execute_query)), or buffered up to a bound and
/// drained to a callback ([`execute_streaming`](crate::execute_streaming)).
/// Values move from the algorithm's output into the row; nothing is copied
/// on the way.
pub(crate) struct RowBuffer<'a> {
    pub(crate) rows: Vec<ResultRow>,
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

    /// Make room for up to `rows` more — all of them when collecting, one
    /// drain's worth when streaming.
    fn reserve(&mut self, rows: usize) {
        let bound = self
            .drain_to
            .as_ref()
            .map_or(rows, |(capacity, _)| *capacity + 1);
        self.rows.reserve(rows.min(bound));
    }

    /// Take back every row pushed so far, for a producer that found it
    /// cannot finish. `false` when some already left for the consumer.
    fn take_back(&mut self) -> bool {
        let intact = self.drains == 0;
        if intact {
            self.rows.clear();
            (self.produced, self.peak) = (0, 0);
        }
        intact
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

    /// End of the query: hand the remaining rows to the consumer.
    pub(crate) fn flush(&mut self) {
        if let Some((_, on_row)) = &mut self.drain_to {
            if !self.rows.is_empty() {
                self.rows.drain(..).for_each(&mut **on_row);
                self.drains += 1;
            }
        }
    }
}

/// The sink one aggregation set's series — scanned, or served from the
/// store's caches — drains into: each constant
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

/// Merge per-aggregate snapshot series into the coalesced rows they
/// stand for. Every cache of a store shares one interval structure — runs
/// derive from tuple intervals alone, never values — so the series are
/// walked in lockstep, each run checked against the first series' as it is
/// read, and every row is written once. A structural mismatch takes the
/// rows back and returns `false`: the caller scans rather than risk a
/// wrong answer (an error if rows already streamed out).
pub(crate) fn merge_snapshots(
    snapshots: &[Arc<Series<Value>>],
    out: &mut RowBuffer<'_>,
) -> Result<bool> {
    let Some((lead, rest)) = snapshots.split_first() else {
        return Ok(false);
    };
    if rest.iter().any(|series| series.len() != lead.len()) {
        return Ok(false);
    }
    out.reserve(lead.len());
    let mut sink = GroupSink {
        out,
        key: &None,
        coalesce: true,
    };
    // lint: hot-loop(serve-rows) — per run: check, copy the values inline, coalesce; no heap while the list fits a row
    for (i, first) in lead.entries().iter().enumerate() {
        let mut values = RowValues::with_capacity(snapshots.len());
        // lint: allow(no-alloc-in-scan): a `Value` clone copies a scalar or bumps an `Arc<str>`
        values.push(first.value.clone());
        for series in rest {
            let run = series.entries().get(i);
            let Some(entry) = run.filter(|entry| entry.interval == first.interval) else {
                return match sink.out.take_back() {
                    true => Ok(false),
                    false => Err(TempAggError::internal(
                        "cached series disagree on their constant intervals",
                    )),
                };
            };
            // lint: allow(no-alloc-in-scan): as above
            values.push(entry.value.clone());
        }
        sink.accept(first.interval, values);
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_core::SeriesEntry;

    #[test]
    fn snapshots_that_disagree_on_structure_are_not_merged() {
        let series = |cuts: &[i64], scale: i64| {
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
            Arc::new(Series::from_entries(entries))
        };
        let lead = series(&[5, 9, 20, 30], 1);
        let shifted = [Arc::clone(&lead), series(&[5, 9, 21, 30], 7)];
        let shorter = [Arc::clone(&lead), series(&[5, 9, 30], 7)];
        for mismatched in [&shifted, &shorter] {
            // Collecting: the rows merged before the mismatch are taken
            // back, so the scan the caller falls back to starts clean.
            let mut out = RowBuffer::collecting();
            assert!(!merge_snapshots(mismatched, &mut out).unwrap());
            assert!(out.rows.is_empty());
            assert_eq!(out.produced, 0);
        }
        // Streaming at capacity 1: the first row has already left by the
        // time the third run disagrees, and it cannot be recalled.
        let mut streamed = Vec::new();
        let mut on_row = |row| streamed.push(row);
        let mut out = RowBuffer::streaming(1, &mut on_row);
        assert!(merge_snapshots(&shifted, &mut out).is_err());
        assert_eq!(streamed.len(), 1);
        // Agreeing snapshots merge into one row per run, values side by side.
        let mut out = RowBuffer::collecting();
        let agreeing = [Arc::clone(&lead), series(&[5, 9, 20, 30], 7)];
        assert!(merge_snapshots(&agreeing, &mut out).unwrap());
        let rows: Vec<(Interval, Vec<Value>)> = out
            .rows
            .iter()
            .map(|r| (r.valid, r.values.to_vec()))
            .collect();
        assert_eq!(
            rows,
            vec![
                (Interval::at(0, 4), vec![Value::Int(0), Value::Int(0)]),
                (Interval::at(5, 8), vec![Value::Int(1), Value::Int(7)]),
                (Interval::at(9, 19), vec![Value::Int(2), Value::Int(14)]),
                (Interval::at(20, 29), vec![Value::Int(3), Value::Int(21)]),
                (Interval::from_start(30), vec![Value::Null, Value::Null]),
            ]
        );
    }
}
