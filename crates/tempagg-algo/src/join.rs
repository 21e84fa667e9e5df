//! Sweep-based interval join: the endpoint-sweep kernel generalized from
//! one relation to two.
//!
//! Piatov et al. (arXiv:2008.12665) show the same machinery that powers
//! the aggregation sweep — one sorted endpoint-event array plus a gapless
//! live set — evaluates interval (overlap) joins: co-sort the endpoints
//! of *both* relations, keep one [`GaplessSlots`] live set per side, and
//! on every admit enumerate the **other** side's live set. Two tuples are
//! co-live exactly when their intervals intersect, so each qualifying
//! pair is found exactly once: at the admit of whichever tuple starts
//! later (ties broken by the deterministic event order). The cost is a
//! linear-time radix sort of the `2 (n + m)` events on time on the calling
//! thread — the aggregation kernel's
//! ([`sort_by_time`](tempagg_core::sort_by_time)) — plus `O(result)` for
//! the dense, branch-light enumeration.
//!
//! The retract-before-admit tie order baked into
//! [`EndpointEvent`](tempagg_core::EndpointEvent) keeps the enumeration to
//! intersecting pairs: a tuple ending at `t − 1` leaves its live set
//! before a tuple starting at `t` looks for partners. (The predicate check
//! would reject that pair too, so the order saves work; it changes no
//! output.)
//!
//! # Emission order
//!
//! Each pair is emitted with the **intersection** of the two intervals
//! and the pair's tuple indices. Starts are nondecreasing (they follow
//! the sweep), but unlike the aggregation kernels the intervals of
//! different pairs may *overlap* — a join result is not a constant-
//! interval tiling. Collect through a relaxed [`SeriesSink`] such as
//! `Vec<SeriesEntry<JoinPair>>` or
//! [`CountingSink`](tempagg_core::CountingSink); the strictly-increasing
//! sinks ([`Series`](tempagg_core::Series),
//! [`ChunkedSink`](tempagg_core::ChunkedSink)) will reject join output.

use tempagg_core::{
    sort_by_time, EndpointEvent, GaplessSlots, Interval, Result, SeriesEntry, SeriesSink,
    TempAggError,
};

/// The temporal join predicates of the first Allen-algebra slice.
///
/// All four select only pairs whose closed intervals share at least one
/// instant (that is what a sweep can enumerate), so `Meets` is the
/// closed-interval reading of adjacency: the left tuple's last instant
/// *is* the right tuple's first (`left.end == right.start`, intersection
/// a single instant). Allen's strict *meets* — `left.end.next() ==
/// right.start`, no shared instant — selects pairs that are never
/// co-live and is not expressible as a co-live filter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JoinPredicate {
    /// The intervals share at least one instant (always true for a
    /// co-live pair).
    Overlaps,
    /// The left interval contains the right:
    /// `left.start <= right.start && right.end <= left.end`.
    Contains,
    /// The left interval lies within the right:
    /// `right.start <= left.start && left.end <= right.end`.
    During,
    /// The left interval's last instant is the right's first:
    /// `left.end == right.start` (closed-interval adjacency).
    Meets,
}

impl JoinPredicate {
    /// SQL keyword / display name.
    pub fn name(self) -> &'static str {
        match self {
            JoinPredicate::Overlaps => "OVERLAPS",
            JoinPredicate::Contains => "CONTAINS",
            JoinPredicate::During => "DURING",
            JoinPredicate::Meets => "MEETS",
        }
    }

    /// Does the ordered pair `(left, right)` satisfy this predicate?
    /// Total — also usable by a nested-loop oracle over non-co-live
    /// pairs.
    #[inline]
    pub fn matches(self, left: Interval, right: Interval) -> bool {
        match self {
            JoinPredicate::Overlaps => left.start() <= right.end() && right.start() <= left.end(),
            JoinPredicate::Contains => left.start() <= right.start() && right.end() <= left.end(),
            JoinPredicate::During => right.start() <= left.start() && left.end() <= right.end(),
            JoinPredicate::Meets => left.end() == right.start(),
        }
    }
}

/// One join result: indices into the left and right relations, in push
/// order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct JoinPair {
    pub left: usize,
    pub right: usize,
}

/// The sweep-based interval-join operator.
///
/// # Example
///
/// ```
/// use tempagg_algo::{JoinPredicate, SweepJoinOperator};
/// use tempagg_core::Interval;
///
/// let mut join = SweepJoinOperator::new(JoinPredicate::Overlaps);
/// join.push_left(Interval::at(0, 10)).unwrap();
/// join.push_right(Interval::at(5, 15)).unwrap();
/// let pairs = join.finish();
/// assert_eq!(pairs.len(), 1);
/// assert_eq!(pairs[0].interval, Interval::at(5, 10));
/// ```
#[derive(Clone, Debug)]
pub struct SweepJoinOperator {
    predicate: JoinPredicate,
    domain: Interval,
    left: Vec<Interval>,
    right: Vec<Interval>,
}

impl SweepJoinOperator {
    /// A join over the paper's time-line `[0, ∞]`.
    pub fn new(predicate: JoinPredicate) -> Self {
        Self::with_domain(predicate, Interval::TIMELINE)
    }

    /// A join over an explicit domain; both inputs must lie within it.
    pub fn with_domain(predicate: JoinPredicate, domain: Interval) -> Self {
        SweepJoinOperator {
            predicate,
            domain,
            left: Vec::new(),
            right: Vec::new(),
        }
    }

    /// The predicate this operator filters by.
    pub fn predicate(&self) -> JoinPredicate {
        self.predicate
    }

    /// Left tuples buffered so far.
    pub fn len_left(&self) -> usize {
        self.left.len()
    }

    /// Right tuples buffered so far.
    pub fn len_right(&self) -> usize {
        self.right.len()
    }

    fn check_domain(&self, interval: Interval) -> Result<()> {
        if !self.domain.covers(&interval) {
            return Err(TempAggError::OutOfDomain {
                tuple: (interval.start(), interval.end()),
                domain: (self.domain.start(), self.domain.end()),
            });
        }
        Ok(())
    }

    /// Buffer a left tuple. Its [`JoinPair::left`] index is the push
    /// order.
    pub fn push_left(&mut self, interval: Interval) -> Result<()> {
        self.check_domain(interval)?;
        self.left.push(interval);
        Ok(())
    }

    /// Buffer a right tuple. Its [`JoinPair::right`] index is the push
    /// order.
    pub fn push_right(&mut self, interval: Interval) -> Result<()> {
        self.check_domain(interval)?;
        self.right.push(interval);
        Ok(())
    }

    /// Lower both relations to one event array in payload order: tag
    /// `idx × 2 + side` (side 0 = left, 1 = right), every retract before
    /// every admit, each kind in tag order. A tuple reaching the domain
    /// end never retracts — no partner can be admitted after the domain
    /// ends.
    fn build_events(&self) -> Vec<EndpointEvent> {
        let rows = self.left.len().max(self.right.len());
        let tagged = || {
            (0..rows)
                .flat_map(|idx| {
                    let tag = u64::try_from(idx).unwrap_or(u64::MAX) * 2;
                    [(tag, self.left.get(idx)), (tag + 1, self.right.get(idx))]
                })
                .filter_map(|(tag, iv)| Some((tag, *iv?)))
        };
        let mut events = Vec::with_capacity(2 * (self.left.len() + self.right.len()));
        events.extend(
            tagged()
                .filter(|(_, iv)| iv.end() < self.domain.end())
                .map(|(tag, iv)| EndpointEvent::retract(iv.end().next(), tag)),
        );
        events.extend(tagged().map(|(tag, iv)| EndpointEvent::admit(iv.start(), tag)));
        events
    }

    /// Run the sweep, emitting every qualifying pair with the
    /// intersection of its two intervals. See the module docs for the
    /// (relaxed, possibly overlapping) emission order; pair order is
    /// deterministic.
    pub fn finish_into(self, sink: &mut impl SeriesSink<JoinPair>) {
        let events = sort_by_time(self.build_events());
        let mut left_live: GaplessSlots<Interval> = GaplessSlots::new();
        let mut right_live: GaplessSlots<Interval> = GaplessSlots::new();
        left_live.reserve_slots(self.left.len());
        right_live.reserve_slots(self.right.len());
        // lint: hot-loop(join-scan) — the co-live enumeration must stay allocation-free
        for ev in &events {
            let tag = ev.tag();
            let idx = usize::try_from(tag >> 1).unwrap_or(usize::MAX);
            let is_left = tag & 1 == 0;
            if !ev.is_admit() {
                if is_left {
                    left_live.remove(idx);
                } else {
                    right_live.remove(idx);
                }
                continue;
            }
            // Admit: this tuple starts at `ev.time`, strictly after (or
            // tied with) everything live — so the intersection with any
            // live partner starts exactly here.
            let t = ev.time;
            if is_left {
                // lint: allow(indexing): tags were baked from 0..len at event build
                let mine = self.left[idx];
                left_live.insert(idx, mine);
                for (ridx, other) in right_live.iter() {
                    if self.predicate.matches(mine, *other) {
                        let until = mine.end().min(other.end());
                        // lint: allow(no-unwrap): t is the later start of two co-live tuples, so t <= until
                        let seg = Interval::new(t, until).expect("co-live intervals intersect");
                        sink.accept(
                            seg,
                            JoinPair {
                                left: idx,
                                right: ridx,
                            },
                        );
                    }
                }
            } else {
                // lint: allow(indexing): tags were baked from 0..len at event build
                let mine = self.right[idx];
                right_live.insert(idx, mine);
                for (lidx, other) in left_live.iter() {
                    if self.predicate.matches(*other, mine) {
                        let until = mine.end().min(other.end());
                        // lint: allow(no-unwrap): t is the later start of two co-live tuples, so t <= until
                        let seg = Interval::new(t, until).expect("co-live intervals intersect");
                        sink.accept(
                            seg,
                            JoinPair {
                                left: lidx,
                                right: idx,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Collect the join into a vector of `(intersection, pair)` entries.
    pub fn finish(self) -> Vec<SeriesEntry<JoinPair>> {
        let mut out: Vec<SeriesEntry<JoinPair>> = Vec::new();
        self.finish_into(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The executable specification: test every ordered pair.
    fn nested_loop(
        predicate: JoinPredicate,
        left: &[Interval],
        right: &[Interval],
    ) -> Vec<(Interval, usize, usize)> {
        let mut out = Vec::new();
        for (li, l) in left.iter().enumerate() {
            for (ri, r) in right.iter().enumerate() {
                if predicate.matches(*l, *r) {
                    let start = l.start().max(r.start());
                    let end = l.end().min(r.end());
                    if start <= end {
                        out.push((Interval::new(start, end).unwrap(), li, ri));
                    }
                }
            }
        }
        out.sort();
        out
    }

    fn sweep(
        predicate: JoinPredicate,
        left: &[Interval],
        right: &[Interval],
    ) -> Vec<(Interval, usize, usize)> {
        let mut join = SweepJoinOperator::new(predicate);
        for iv in left {
            join.push_left(*iv).unwrap();
        }
        for iv in right {
            join.push_right(*iv).unwrap();
        }
        let mut out: Vec<(Interval, usize, usize)> = join
            .finish()
            .into_iter()
            .map(|e| (e.interval, e.value.left, e.value.right))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn overlap_join_matches_nested_loop() {
        let left = vec![
            Interval::at(0, 10),
            Interval::at(5, 15),
            Interval::at(20, 30),
            Interval::at(40, 40),
        ];
        let right = vec![
            Interval::at(8, 25),
            Interval::at(11, 19),
            Interval::at(31, 45),
        ];
        let want = nested_loop(JoinPredicate::Overlaps, &left, &right);
        assert!(!want.is_empty());
        assert_eq!(sweep(JoinPredicate::Overlaps, &left, &right), want);
    }

    #[test]
    fn allen_slice_matches_nested_loop() {
        let left = vec![
            Interval::at(0, 20),
            Interval::at(5, 10),
            Interval::at(10, 15),
            Interval::at(15, 15),
        ];
        let right = vec![
            Interval::at(5, 10),
            Interval::at(0, 30),
            Interval::at(10, 12),
            Interval::at(15, 20),
        ];
        for predicate in [
            JoinPredicate::Contains,
            JoinPredicate::During,
            JoinPredicate::Meets,
        ] {
            let want = nested_loop(predicate, &left, &right);
            assert!(!want.is_empty(), "{predicate:?} oracle found nothing");
            assert_eq!(sweep(predicate, &left, &right), want, "{predicate:?}");
        }
    }

    #[test]
    fn touching_at_one_instant_still_joins() {
        // [0,10] and [10,20] share exactly the instant 10.
        let got = sweep(
            JoinPredicate::Overlaps,
            &[Interval::at(0, 10)],
            &[Interval::at(10, 20)],
        );
        assert_eq!(got, vec![(Interval::at(10, 10), 0, 0)]);
        // [0,9] and [10,20] share nothing: the retract-before-admit tie
        // order must keep them apart.
        let none = sweep(
            JoinPredicate::Overlaps,
            &[Interval::at(0, 9)],
            &[Interval::at(10, 20)],
        );
        assert!(none.is_empty());
    }

    #[test]
    fn meets_is_closed_interval_adjacency() {
        let got = sweep(
            JoinPredicate::Meets,
            &[Interval::at(0, 10), Interval::at(0, 9)],
            &[Interval::at(10, 20)],
        );
        // Only [0,10] meets [10,20] under the closed-interval reading;
        // the intersection is the single shared instant.
        assert_eq!(got, vec![(Interval::at(10, 10), 0, 0)]);
    }

    #[test]
    fn equal_starts_emit_exactly_once() {
        let got = sweep(
            JoinPredicate::Overlaps,
            &[Interval::at(5, 10), Interval::at(5, 20)],
            &[Interval::at(5, 7)],
        );
        assert_eq!(
            got,
            vec![(Interval::at(5, 7), 0, 0), (Interval::at(5, 7), 1, 0)]
        );
    }

    #[test]
    fn out_of_domain_rejected() {
        let mut join =
            SweepJoinOperator::with_domain(JoinPredicate::Overlaps, Interval::at(10, 20));
        assert!(join.push_left(Interval::at(0, 15)).is_err());
        assert!(join.push_right(Interval::at(10, 20)).is_ok());
        assert_eq!(join.len_left(), 0);
        assert_eq!(join.len_right(), 1);
    }

    #[test]
    fn randomized_overlap_join_matches_nested_loop() {
        let mut state = 0x13198a2e03707344u64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut gen = |n: u64, span: u64, width: u64| -> Vec<Interval> {
            (0..n)
                .map(|_| {
                    let s = i64::try_from(step() % span).unwrap();
                    let w = i64::try_from(step() % width).unwrap();
                    Interval::at(s, s + w)
                })
                .collect()
        };
        let left = gen(150, 5_000, 300);
        let right = gen(170, 5_000, 250);
        let want = nested_loop(JoinPredicate::Overlaps, &left, &right);
        assert_eq!(sweep(JoinPredicate::Overlaps, &left, &right), want);
    }

    #[test]
    fn built_events_sort_to_the_total_order() {
        // Left tuples end where right tuples start and the other way
        // round, in more events than a comparison-sorted run holds: the
        // radix sort keeps the builder's order at each instant, so this
        // holds only if that order is payload order.
        let mut join = SweepJoinOperator::with_domain(JoinPredicate::Overlaps, Interval::at(0, 99));
        for i in 0..300i64 {
            join.push_left(Interval::at(i % 40, i % 40 + 9)).unwrap();
            join.push_right(Interval::at(i % 40 + 10, i % 40 + 19))
                .unwrap();
        }
        let events = join.build_events();
        let mut want = events.clone();
        want.sort_unstable();
        assert!(sort_by_time(events) == want);
    }
}
