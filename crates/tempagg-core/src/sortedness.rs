//! Sortedness metrics: *k-order* and *k-ordered-percentage* (Section 5.2).
//!
//! A relation is *totally ordered by time* when tuples are sorted by start
//! time with ties broken by end time. It is *k-ordered* when every tuple is
//! at most `k` positions away from its position in the totally ordered
//! version. The *k-ordered-percentage* quantifies how much disorder a
//! k-ordered relation actually exhibits:
//!
//! ```text
//! k-ordered-percentage = ( Σᵢ i · nᵢ ) / (k · n)
//! ```
//!
//! where `nᵢ` is the number of tuples exactly `i` positions out of order.
//! The ratio is 0 for a sorted relation and at most 1.
//!
//! ```
//! use tempagg_core::sortedness::{k_order, k_ordered_percentage};
//! use tempagg_core::Interval;
//!
//! // One adjacent swap in an otherwise sorted relation.
//! let intervals: Vec<Interval> =
//!     [0, 2, 1, 3].iter().map(|&s| Interval::at(s * 10, s * 10 + 5)).collect();
//! assert_eq!(k_order(&intervals), 1);
//! assert_eq!(k_ordered_percentage(&intervals, 1), 0.5); // 2 of 4 displaced by 1
//! ```

use crate::endpoint::{sort_by_time, EndpointEvent};
use crate::interval::Interval;
use crate::timestamp::Timestamp;

/// For each storage position `i`, the position the tuple would occupy in
/// the totally ordered (start, then end) version of the relation.
///
/// Ties are resolved stably — tuples with equal intervals keep their
/// relative storage order — which yields the minimal displacement
/// assignment among equal keys.
pub fn sorted_positions(intervals: &[Interval]) -> Vec<usize> {
    if is_time_ordered(intervals) {
        return (0..intervals.len()).collect();
    }
    let mut pos = vec![0usize; intervals.len()];
    for (sorted_pos, e) in time_order(intervals, &by_end(intervals)).iter().enumerate() {
        // lint: allow(indexing): tags are storage positions 0..len
        pos[tag(e)] = sorted_pos;
    }
    pos
}

/// An event's tag as an index (tags here are positions below `len`).
fn tag(e: &EndpointEvent) -> usize {
    usize::try_from(e.tag()).unwrap_or(usize::MAX)
}

/// The tuples' end instants ascending, ties in storage order; each
/// event's tag is its tuple's storage position. One linear-time radix
/// sort ([`sort_by_time`]).
fn by_end(intervals: &[Interval]) -> Vec<EndpointEvent> {
    let events = (0u64..)
        .zip(intervals)
        .map(|(i, iv)| EndpointEvent::retract(iv.end(), i))
        .collect();
    sort_by_time(events)
}

/// The tuples in `(start, end, storage position)` order — the stable
/// sort by interval — from a second radix sort on start over the tuples
/// in `by_end`'s order: its stable passes keep that order among equal
/// starts. Each event's time is the start, its tag the storage position.
fn time_order(intervals: &[Interval], by_end: &[EndpointEvent]) -> Vec<EndpointEvent> {
    // The tag is the rank in `by_end`, so the comparison sort of a short
    // input (which orders by tag at equal times) agrees with the passes.
    let events = (0u64..)
        .zip(by_end)
        // lint: allow(indexing): by_end's tags are storage positions 0..len
        .map(|(rank, e)| EndpointEvent::retract(intervals[tag(e)].start(), rank))
        .collect();
    let mut order = sort_by_time(events);
    for e in &mut order {
        // lint: allow(indexing): ranks are positions 0..len of by_end
        *e = EndpointEvent::retract(e.time, by_end[tag(e)].tag());
    }
    order
}

/// Per-tuple displacement `|i − sorted_position(i)|`.
pub fn displacements(intervals: &[Interval]) -> Vec<usize> {
    sorted_positions(intervals)
        .into_iter()
        .enumerate()
        .map(|(i, p)| i.abs_diff(p))
        .collect()
}

/// The relation's *k-order*: the maximum displacement of any tuple. A
/// totally ordered relation is 0-ordered; every relation of `n` tuples is
/// at worst `(n−1)`-ordered.
pub fn k_order(intervals: &[Interval]) -> usize {
    displacements(intervals).into_iter().max().unwrap_or(0)
}

/// `true` iff the relation is totally ordered by time.
pub fn is_time_ordered(intervals: &[Interval]) -> bool {
    intervals
        .windows(2)
        .all(|w| (w[0].start(), w[0].end()) <= (w[1].start(), w[1].end()))
}

/// Histogram `nᵢ`: `histogram[i]` = number of tuples exactly `i` positions
/// out of order (`histogram[0]` counts in-place tuples).
pub fn displacement_histogram(intervals: &[Interval]) -> Vec<usize> {
    let disps = displacements(intervals);
    let max = disps.iter().copied().max().unwrap_or(0);
    let mut hist = vec![0usize; max + 1];
    for d in disps {
        // lint: allow(indexing): d <= max and hist was sized to max + 1
        hist[d] += 1;
    }
    hist
}

/// The k-ordered-percentage of a relation for a declared bound `k`.
///
/// Returns 0.0 for an empty relation or `k = 0` (a 0-ordered relation is
/// sorted, and the paper's quotient is undefined there).
pub fn k_ordered_percentage(intervals: &[Interval], k: usize) -> f64 {
    let disps = displacements(intervals);
    percentage_from_displacement_sum(disps.iter().sum(), k, disps.len())
}

/// The paper's quotient computed from an explicit `nᵢ` histogram, as used
/// in the Table 2 examples (`histogram[i]` = number of tuples `i` out of
/// order; index 0 is ignored by the sum).
pub fn k_ordered_percentage_from_histogram(histogram: &[usize], k: usize, n: usize) -> f64 {
    let sum: usize = histogram.iter().enumerate().map(|(i, &ni)| i * ni).sum();
    percentage_from_displacement_sum(sum, k, n)
}

fn percentage_from_displacement_sum(sum: usize, k: usize, n: usize) -> f64 {
    if k == 0 || n == 0 {
        0.0
    } else {
        sum as f64 / (k as f64 * n as f64)
    }
}

/// Summary of a relation's ordering, convenient for the planner.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SortednessReport {
    /// Number of tuples examined.
    pub n: usize,
    /// Maximum displacement (the relation is exactly `k_order`-ordered).
    pub k_order: usize,
    /// `Σ displacement / (k_order · n)`, or 0.0 when sorted.
    pub percentage_at_k_order: f64,
    /// Fraction of tuples displaced at all.
    pub fraction_displaced: f64,
    /// Distinct instants among the tuples' starts and ends.
    pub distinct_timestamps: usize,
}

/// Compute a [`SortednessReport`] from radix sorts on the tuples' ends
/// and starts: the displacements come from the time order, and the
/// distinct instants from merging the two sorted columns. A relation
/// already in time order skips the sort on starts.
pub fn analyze(intervals: &[Interval]) -> SortednessReport {
    let n = intervals.len();
    let ends = by_end(intervals);
    let (mut k, mut sum, mut displaced) = (0usize, 0usize, 0usize);
    let distinct = if is_time_ordered(intervals) {
        distinct_in_merge(intervals.iter().map(Interval::start), &ends)
    } else {
        let order = time_order(intervals, &ends);
        for (sorted_pos, e) in order.iter().enumerate() {
            let d = sorted_pos.abs_diff(tag(e));
            (k, sum, displaced) = (k.max(d), sum + d, displaced + usize::from(d > 0));
        }
        distinct_in_merge(order.iter().map(|e| e.time), &ends)
    };
    SortednessReport {
        n,
        k_order: k,
        percentage_at_k_order: percentage_from_displacement_sum(sum, k, n),
        fraction_displaced: if n == 0 {
            0.0
        } else {
            displaced as f64 / n as f64
        },
        distinct_timestamps: distinct,
    }
}

/// Distinct instants among two ascending sequences.
fn distinct_in_merge(starts: impl Iterator<Item = Timestamp>, ends: &[EndpointEvent]) -> usize {
    let mut starts = starts.peekable();
    let mut ends = ends.iter().map(|e| e.time).peekable();
    let (mut distinct, mut last) = (0usize, None);
    loop {
        let t = match (starts.peek(), ends.peek()) {
            (Some(s), Some(e)) if s <= e => starts.next(),
            (_, Some(_)) => ends.next(),
            (Some(_), None) => starts.next(),
            (None, None) => return distinct,
        };
        if t != last {
            (distinct, last) = (distinct + 1, t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ivs(starts: &[i64]) -> Vec<Interval> {
        starts.iter().map(|&s| Interval::at(s, s + 1)).collect()
    }

    #[test]
    fn sorted_relation_is_zero_ordered() {
        let v = ivs(&[1, 2, 3, 4, 5]);
        assert!(is_time_ordered(&v));
        assert_eq!(k_order(&v), 0);
        assert_eq!(k_ordered_percentage(&v, 100), 0.0);
    }

    #[test]
    fn single_swap_displaces_two_tuples() {
        // Swap positions 0 and 3: both tuples are 3 out of place.
        let v = ivs(&[4, 2, 3, 1, 5]);
        assert!(!is_time_ordered(&v));
        assert_eq!(displacements(&v), vec![3, 0, 0, 3, 0]);
        assert_eq!(k_order(&v), 3);
    }

    #[test]
    fn paper_example_max_percentage() {
        // Paper, Section 5.2: 6 tuples, k = 3, swap 1↔4, 2↔5, 3↔6 gives a
        // k-ordered-percentage of exactly 1 (= (3+3+3+3+3+3)/(3·6)).
        let v = ivs(&[4, 5, 6, 1, 2, 3]);
        assert_eq!(k_order(&v), 3);
        let pct = k_ordered_percentage(&v, 3);
        assert!((pct - 1.0).abs() < 1e-12, "pct = {pct}");
    }

    #[test]
    fn table2_row_two_tuples_swapped_100_apart() {
        // Table 2 (n = 10000, k = 100): swapping 2 tuples 100 places apart
        // yields 0.0002.
        let mut starts: Vec<i64> = (0..10_000).collect();
        starts.swap(500, 600);
        let v = ivs(&starts);
        let pct = k_ordered_percentage(&v, 100);
        assert!((pct - 0.0002).abs() < 1e-12, "pct = {pct}");
        assert_eq!(k_order(&v), 100);
    }

    #[test]
    fn table2_row_twenty_tuples_100_out() {
        // 20 tuples 100 places from sorted (10 disjoint swaps) → 0.002.
        let mut starts: Vec<i64> = (0..10_000).collect();
        for s in 0..10 {
            let i = s * 500;
            starts.swap(i, i + 100);
        }
        let v = ivs(&starts);
        let pct = k_ordered_percentage(&v, 100);
        assert!((pct - 0.002).abs() < 1e-12, "pct = {pct}");
    }

    #[test]
    fn table2_rows_from_histogram() {
        // Rows 4 and 5 of Table 2 are stated as displacement distributions:
        // one tuple at each distance 1..=100 → 0.00505; ten tuples at each
        // distance 1..=100 → 0.0505.
        let mut hist = vec![0usize; 101];
        for slot in hist.iter_mut().skip(1) {
            *slot = 1;
        }
        let pct = k_ordered_percentage_from_histogram(&hist, 100, 10_000);
        assert!((pct - 0.00505).abs() < 1e-12, "pct = {pct}");

        for slot in hist.iter_mut().skip(1) {
            *slot = 10;
        }
        let pct = k_ordered_percentage_from_histogram(&hist, 100, 10_000);
        assert!((pct - 0.0505).abs() < 1e-12, "pct = {pct}");
    }

    #[test]
    fn ties_use_stable_minimal_assignment() {
        // Equal intervals in storage order are already "sorted".
        let v = vec![Interval::at(5, 9), Interval::at(5, 9), Interval::at(5, 9)];
        assert_eq!(k_order(&v), 0);
        assert!(is_time_ordered(&v));
    }

    #[test]
    fn end_time_breaks_ties() {
        // Same starts, decreasing ends: not ordered.
        let v = vec![Interval::at(5, 9), Interval::at(5, 7)];
        assert!(!is_time_ordered(&v));
        assert_eq!(k_order(&v), 1);
    }

    #[test]
    fn histogram_counts_all_tuples() {
        let v = ivs(&[4, 2, 3, 1, 5]);
        let h = displacement_histogram(&v);
        assert_eq!(h.iter().sum::<usize>(), 5);
        assert_eq!(h[3], 2);
        assert_eq!(h[0], 3);
    }

    #[test]
    fn analyze_summary() {
        let v = ivs(&[2, 1, 3, 4]);
        let r = analyze(&v);
        assert_eq!(r.n, 4);
        assert_eq!(r.k_order, 1);
        assert!((r.fraction_displaced - 0.5).abs() < 1e-12);
        assert!((r.percentage_at_k_order - 2.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_degenerate_inputs() {
        let v: Vec<Interval> = vec![];
        assert_eq!(k_order(&v), 0);
        assert_eq!(k_ordered_percentage(&v, 10), 0.0);
        assert!(is_time_ordered(&v));
        let one = ivs(&[7]);
        assert_eq!(k_order(&one), 0);
        let r = analyze(&v);
        assert_eq!(r.n, 0);
        assert_eq!(r.fraction_displaced, 0.0);
    }
}
