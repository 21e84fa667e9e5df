//! Time-ordered sequences of `(interval, value)` pairs.
//!
//! Every temporal aggregation algorithm produces a [`Series`]: the constant
//! intervals of the result in time order, each carrying the aggregate value
//! over that interval. TSQL2 results are *coalesced by valid time* — adjacent
//! intervals with equal values are merged — which [`Series::coalesce`]
//! performs.

use crate::interval::Interval;
use std::fmt;

/// One constant interval of an aggregate result.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesEntry<T> {
    pub interval: Interval,
    pub value: T,
}

impl<T> SeriesEntry<T> {
    pub fn new(interval: Interval, value: T) -> Self {
        SeriesEntry { interval, value }
    }
}

/// A time-ordered, non-overlapping sequence of intervals with values.
#[derive(Clone, Debug, PartialEq)]
pub struct Series<T> {
    entries: Vec<SeriesEntry<T>>,
}

impl<T> Default for Series<T> {
    fn default() -> Self {
        Series {
            entries: Vec::new(),
        }
    }
}

impl<T> Series<T> {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(capacity: usize) -> Self {
        Series {
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Build from pre-ordered entries.
    ///
    /// Debug builds assert the time-order / non-overlap invariant.
    pub fn from_entries(entries: Vec<SeriesEntry<T>>) -> Self {
        debug_assert!(
            entries
                .windows(2)
                .all(|w| w[0].interval.end() < w[1].interval.start()),
            "series entries must be time-ordered and non-overlapping"
        );
        Series { entries }
    }

    /// Append an entry; must begin after the current last entry ends.
    pub fn push(&mut self, interval: Interval, value: T) {
        debug_assert!(
            self.entries
                .last()
                .map_or(true, |last| last.interval.end() < interval.start()),
            "series entries must be appended in time order"
        );
        self.entries.push(SeriesEntry { interval, value });
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[SeriesEntry<T>] {
        &self.entries
    }

    pub fn iter(&self) -> std::slice::Iter<'_, SeriesEntry<T>> {
        self.entries.iter()
    }

    pub fn into_entries(self) -> Vec<SeriesEntry<T>> {
        self.entries
    }

    /// The value in effect at instant `t`, found by binary search.
    pub fn value_at(&self, t: crate::timestamp::Timestamp) -> Option<&T> {
        let idx = self.entries.partition_point(|e| e.interval.end() < t);
        self.entries
            .get(idx)
            .filter(|e| e.interval.contains(t))
            .map(|e| &e.value)
    }

    /// Total time-line covered (hull of first and last entries).
    pub fn extent(&self) -> Option<Interval> {
        match (self.entries.first(), self.entries.last()) {
            (Some(f), Some(l)) => Some(f.interval.hull(&l.interval)),
            _ => None,
        }
    }

    /// Drop entries whose value fails the predicate (e.g. drop empty
    /// groups: `COUNT = 0` intervals, `MIN`/`MAX` of no tuples).
    pub fn filter_values(self, mut keep: impl FnMut(&T) -> bool) -> Series<T> {
        Series {
            entries: self
                .entries
                .into_iter()
                .filter(|e| keep(&e.value))
                .collect(),
        }
    }

    /// Clip the series to a window: entries overlapping it, truncated to
    /// it. Values are unchanged — each entry's value still describes its
    /// (now smaller) interval, which is exact for constant-interval data.
    pub fn restrict(&self, window: Interval) -> Series<T>
    where
        T: Clone,
    {
        Series {
            entries: self
                .entries
                .iter()
                .filter_map(|e| {
                    e.interval
                        .intersect(&window)
                        .map(|iv| SeriesEntry::new(iv, e.value.clone()))
                })
                .collect(),
        }
    }

    /// Combine two series by time: the result has one entry per maximal
    /// interval where *both* inputs are constant, valued
    /// `f(&left, &right)`. Entries of either series with no counterpart
    /// in the other are dropped (inner join on time).
    ///
    /// Two aggregate series over the same relation share boundaries, so
    /// zipping them is lossless; zipping series over *different* relations
    /// refines both to their common constant intervals — e.g. dividing a
    /// `SUM` series by a `COUNT` series from another source.
    pub fn zip_with<U, V>(&self, other: &Series<U>, mut f: impl FnMut(&T, &U) -> V) -> Series<V> {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.entries.len() && j < other.entries.len() {
            // lint: allow(indexing): i and j are bounded by the while condition
            let a = &self.entries[i];
            // lint: allow(indexing): i and j are bounded by the while condition
            let b = &other.entries[j];
            if let Some(overlap) = a.interval.intersect(&b.interval) {
                out.push(SeriesEntry::new(overlap, f(&a.value, &b.value)));
            }
            // Advance whichever interval ends first.
            if a.interval.end() <= b.interval.end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        Series { entries: out }
    }

    /// Time-weighted integral over a *bounded* window: Σ f(value) ·
    /// |entry ∩ window| over entries where `f` yields a number.
    ///
    /// Constant intervals make this exact — the value is constant across
    /// each entry by construction, so a temporal aggregate series can be
    /// integrated without further approximation (e.g. instant-count ×
    /// duration gives tuple-instant totals). Returns 0.0 for an unbounded
    /// window, where the integral is not meaningful.
    pub fn weighted_integral(&self, window: Interval, mut f: impl FnMut(&T) -> Option<f64>) -> f64 {
        if window.end() == crate::timestamp::Timestamp::FOREVER {
            return 0.0;
        }
        self.entries
            .iter()
            .filter_map(|e| {
                let overlap = e.interval.intersect(&window)?;
                let x = f(&e.value)?;
                Some(x * overlap.duration() as f64)
            })
            .sum()
    }

    /// Time-weighted mean of `f(value)` over a *bounded* window: the
    /// integral divided by the total covered duration. `None` when the
    /// window is unbounded or no entry contributes.
    ///
    /// This is the natural "average over a period" question — e.g. the
    /// mean head-count over a year, weighting each constant interval by
    /// how long it lasted — which plain per-instant aggregation cannot
    /// express.
    pub fn time_weighted_mean(
        &self,
        window: Interval,
        mut f: impl FnMut(&T) -> Option<f64>,
    ) -> Option<f64> {
        if window.end() == crate::timestamp::Timestamp::FOREVER {
            return None;
        }
        let mut weighted = 0.0f64;
        let mut covered = 0i64;
        for e in &self.entries {
            let Some(overlap) = e.interval.intersect(&window) else {
                continue;
            };
            let Some(x) = f(&e.value) else { continue };
            weighted += x * overlap.duration() as f64;
            covered += overlap.duration();
        }
        if covered == 0 {
            None
        } else {
            Some(weighted / covered as f64)
        }
    }

    /// Map values, keeping intervals.
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Series<U> {
        Series {
            entries: self
                .entries
                .into_iter()
                .map(|e| SeriesEntry::new(e.interval, f(e.value)))
                .collect(),
        }
    }
}

impl<T: PartialEq> Series<T> {
    /// Coalesce by valid time: merge *adjacent* (meeting) intervals whose
    /// values are equal, as TSQL2 requires of temporal query results.
    ///
    /// Constant intervals produced by the algorithms always have distinct
    /// underlying tuple sets, but distinct tuple sets can still yield equal
    /// aggregate values (e.g. one tuple ends exactly where another starts:
    /// the `COUNT` stays 1), so coalescing can shrink a result.
    pub fn coalesce(self) -> Series<T> {
        let mut out: Vec<SeriesEntry<T>> = Vec::with_capacity(self.entries.len());
        for e in self.entries {
            match out.last_mut() {
                Some(last) if last.interval.meets(&e.interval) && last.value == e.value => {
                    last.interval = last.interval.hull(&e.interval);
                }
                _ => out.push(e),
            }
        }
        Series { entries: out }
    }
}

impl<'a, T> IntoIterator for &'a Series<T> {
    type Item = &'a SeriesEntry<T>;
    type IntoIter = std::slice::Iter<'a, SeriesEntry<T>>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

impl<T> IntoIterator for Series<T> {
    type Item = SeriesEntry<T>;
    type IntoIter = std::vec::IntoIter<SeriesEntry<T>>;
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

impl<T: fmt::Display> fmt::Display for Series<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for e in &self.entries {
            writeln!(f, "{}\t{}", e.interval, e.value)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamp::Timestamp;

    fn series(v: &[(i64, i64, u64)]) -> Series<u64> {
        let mut s = Series::new();
        for &(a, b, x) in v {
            s.push(Interval::at(a, b), x);
        }
        s
    }

    #[test]
    fn push_and_len() {
        let s = series(&[(0, 6, 0), (7, 7, 1), (8, 12, 2)]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.entries()[1].value, 1);
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn push_out_of_order_panics_in_debug() {
        let mut s = series(&[(5, 9, 1)]);
        s.push(Interval::at(9, 12), 2);
    }

    #[test]
    fn value_at_uses_binary_search() {
        let s = series(&[(0, 6, 0), (7, 7, 1), (8, 12, 2), (18, 20, 3)]);
        assert_eq!(s.value_at(Timestamp(0)), Some(&0));
        assert_eq!(s.value_at(Timestamp(7)), Some(&1));
        assert_eq!(s.value_at(Timestamp(12)), Some(&2));
        assert_eq!(s.value_at(Timestamp(13)), None); // gap
        assert_eq!(s.value_at(Timestamp(19)), Some(&3));
        assert_eq!(s.value_at(Timestamp(21)), None);
    }

    #[test]
    fn coalesce_merges_adjacent_equal_values() {
        let s = series(&[(0, 4, 1), (5, 9, 1), (10, 12, 2), (14, 20, 2)]);
        let c = s.coalesce();
        // [0,4] and [5,9] meet with equal value → merged; [10,12] and
        // [14,20] do not meet (gap at 13) → kept apart.
        assert_eq!(c.len(), 3);
        assert_eq!(c.entries()[0].interval, Interval::at(0, 9));
        assert_eq!(c.entries()[1].interval, Interval::at(10, 12));
        assert_eq!(c.entries()[2].interval, Interval::at(14, 20));
    }

    #[test]
    fn coalesce_keeps_distinct_values_apart() {
        let s = series(&[(0, 4, 1), (5, 9, 2)]);
        assert_eq!(s.coalesce().len(), 2);
    }

    #[test]
    fn filter_and_map() {
        let s = series(&[(0, 6, 0), (7, 7, 1), (8, 12, 2)]);
        let nonzero = s.clone().filter_values(|&v| v > 0);
        assert_eq!(nonzero.len(), 2);
        let doubled = s.map(|v| v * 2);
        assert_eq!(doubled.entries()[2].value, 4);
    }

    #[test]
    fn extent() {
        let s = series(&[(5, 9, 1), (20, 30, 2)]);
        assert_eq!(s.extent(), Some(Interval::at(5, 30)));
        let empty: Series<u64> = Series::new();
        assert_eq!(empty.extent(), None);
    }

    #[test]
    fn restrict_clips_and_drops() {
        let s = series(&[(0, 9, 1), (10, 19, 2), (30, 39, 3)]);
        let r = s.restrict(Interval::at(5, 32));
        let rows: Vec<(Interval, u64)> = r.iter().map(|e| (e.interval, e.value)).collect();
        assert_eq!(
            rows,
            vec![
                (Interval::at(5, 9), 1),
                (Interval::at(10, 19), 2),
                (Interval::at(30, 32), 3),
            ]
        );
        assert!(s.restrict(Interval::at(100, 200)).is_empty());
        // Restricting to the extent is the identity.
        assert_eq!(s.restrict(Interval::at(0, 39)), s);
    }

    #[test]
    fn zip_with_aligned_series() {
        let sums = series(&[(0, 4, 10), (5, 9, 30)]);
        let counts = series(&[(0, 4, 2), (5, 9, 3)]);
        let avg = sums.zip_with(&counts, |&s, &c| s as f64 / c as f64);
        assert_eq!(avg.len(), 2);
        assert_eq!(avg.entries()[0].value, 5.0);
        assert_eq!(avg.entries()[1].value, 10.0);
    }

    #[test]
    fn zip_with_refines_misaligned_boundaries() {
        let a = series(&[(0, 9, 1), (10, 19, 2)]);
        let b = series(&[(0, 4, 10), (5, 14, 20), (15, 19, 30)]);
        let z = a.zip_with(&b, |&x, &y| x * y);
        let rows: Vec<(Interval, u64)> = z.iter().map(|e| (e.interval, e.value)).collect();
        assert_eq!(
            rows,
            vec![
                (Interval::at(0, 4), 10),
                (Interval::at(5, 9), 20),
                (Interval::at(10, 14), 40),
                (Interval::at(15, 19), 60),
            ]
        );
    }

    #[test]
    fn zip_with_is_inner_join_on_time() {
        let a = series(&[(0, 4, 1)]);
        let b = series(&[(10, 14, 2)]);
        assert!(a.zip_with(&b, |&x, &y| x + y).is_empty());
        let c = series(&[(3, 12, 5)]);
        let z = a.zip_with(&c, |&x, &y| x + y);
        assert_eq!(z.len(), 1);
        assert_eq!(z.entries()[0].interval, Interval::at(3, 4));
    }

    #[test]
    fn weighted_integral_is_exact_over_constant_intervals() {
        // count 1 for 10 instants, count 3 for 5 instants.
        let s = series(&[(0, 9, 1), (10, 14, 3)]);
        let window = Interval::at(0, 14);
        let integral = s.weighted_integral(window, |&v| Some(v as f64));
        assert_eq!(integral, 10.0 + 15.0);
        // Clipped window.
        let clipped = s.weighted_integral(Interval::at(5, 12), |&v| Some(v as f64));
        assert_eq!(clipped, 5.0 * 1.0 + 3.0 * 3.0);
    }

    #[test]
    fn time_weighted_mean_weights_by_duration() {
        let s = series(&[(0, 9, 1), (10, 14, 3)]);
        let mean = s
            .time_weighted_mean(Interval::at(0, 14), |&v| Some(v as f64))
            .unwrap();
        assert!((mean - 25.0 / 15.0).abs() < 1e-12);
        // Skipped (None) entries don't contribute to time either.
        let mean = s
            .time_weighted_mean(Interval::at(0, 14), |&v| (v > 1).then_some(v as f64))
            .unwrap();
        assert_eq!(mean, 3.0);
    }

    #[test]
    fn weighted_helpers_reject_unbounded_windows() {
        let s = series(&[(0, 9, 1)]);
        assert_eq!(
            s.weighted_integral(Interval::from_start(0), |&v| Some(v as f64)),
            0.0
        );
        assert_eq!(
            s.time_weighted_mean(Interval::from_start(0), |&v| Some(v as f64)),
            None
        );
        // And empty overlap.
        assert_eq!(
            s.time_weighted_mean(Interval::at(100, 200), |&v| Some(v as f64)),
            None
        );
    }

    #[test]
    fn display_is_tabular() {
        let s = series(&[(8, 12, 2)]);
        assert_eq!(s.to_string(), "[8, 12]\t2\n");
    }

    #[test]
    fn iteration_both_ways() {
        let s = series(&[(0, 1, 1), (2, 3, 2)]);
        assert_eq!((&s).into_iter().count(), 2);
        assert_eq!(s.into_iter().count(), 2);
    }
}
