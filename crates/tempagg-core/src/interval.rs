//! Closed intervals of instants.
//!
//! The paper assumes every tuple carries a *closed* valid-time interval
//! `[start, end]` with `start ≤ end`. Constant intervals in query results are
//! closed as well. Splitting at a tuple's start time `s` turns `[lo, hi]`
//! into `[lo, s−1]` and `[s, hi]`; splitting at a tuple's end time `e` turns
//! it into `[lo, e]` and `[e+1, hi]` — matching Figure 3 of the paper, where
//! inserting `[18, ∞]` into `[0, ∞]` yields `[0, 17]` and `[18, ∞]`.

use crate::error::{Result, TempAggError};
use crate::timestamp::Timestamp;
use std::fmt;

/// Share of a relation's lifespan a tuple must last to count as long-lived:
/// the paper's §6 long-lived tuples span 20–80 % of the lifespan.
const LONG_LIVED_SHARE: f64 = 0.2;

/// A closed interval `[start, end]` of instants with `start ≤ end`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    start: Timestamp,
    end: Timestamp,
}

impl Interval {
    /// The whole time-line used by the paper: `[0, ∞]`.
    pub const TIMELINE: Interval = Interval {
        start: Timestamp::ORIGIN,
        end: Timestamp::FOREVER,
    };

    /// The entire representable domain `[MIN, ∞]`.
    pub const ALL: Interval = Interval {
        start: Timestamp::MIN,
        end: Timestamp::FOREVER,
    };

    /// Create a closed interval; errors unless `start ≤ end`.
    #[inline]
    pub fn new(start: impl Into<Timestamp>, end: impl Into<Timestamp>) -> Result<Interval> {
        let (start, end) = (start.into(), end.into());
        if start <= end {
            Ok(Interval { start, end })
        } else {
            Err(TempAggError::InvalidInterval { start, end })
        }
    }

    /// Create a closed interval, panicking unless `start ≤ end`.
    ///
    /// Convenient in tests and literals; use [`Interval::new`] on untrusted
    /// input.
    #[inline]
    #[track_caller]
    pub fn at(start: i64, end: i64) -> Interval {
        // lint: allow(no-unwrap): `at` is the documented panicking literal constructor; fallible callers use `new`
        Interval::new(start, end).expect("interval literal must have start <= end")
    }

    /// `[t, t]`, a single instant.
    #[inline]
    pub fn instant(t: impl Into<Timestamp>) -> Interval {
        let t = t.into();
        Interval { start: t, end: t }
    }

    /// `[start, ∞]`, an interval open-ended into the future.
    #[inline]
    pub fn from_start(start: impl Into<Timestamp>) -> Interval {
        Interval {
            start: start.into(),
            end: Timestamp::FOREVER,
        }
    }

    /// Beginning instant (the paper's *start time*).
    #[inline]
    pub const fn start(&self) -> Timestamp {
        self.start
    }

    /// Terminating instant (the paper's *end time*).
    #[inline]
    pub const fn end(&self) -> Timestamp {
        self.end
    }

    /// Number of instants contained, saturating at `i64::MAX`.
    #[inline]
    pub fn duration(&self) -> i64 {
        self.end
            .get()
            .saturating_sub(self.start.get())
            .saturating_add(1)
    }

    /// The shortest duration a tuple must last to count as long-lived in a
    /// relation whose lifespan (the hull of its valid times) is `self`: a
    /// fifth of the lifespan, rounded up (the paper's §6 long-lived tuples
    /// last 20–80 % of it).
    #[must_use]
    pub fn long_lived_cut(&self) -> i64 {
        (LONG_LIVED_SHARE * self.duration() as f64).ceil() as i64
    }

    /// `true` iff the interval is long-lived under `cut` (a lifespan's
    /// [`long_lived_cut`](Self::long_lived_cut)): it never ends, or it lasts
    /// at least `cut` instants. The planner's long-lived share and the
    /// pager's overflow lane both count by this one rule.
    #[inline]
    #[must_use]
    pub fn is_long_lived(&self, cut: i64) -> bool {
        self.end.is_forever() || self.duration() >= cut
    }

    /// `true` iff the interval is a single instant.
    #[inline]
    pub fn is_instant(&self) -> bool {
        self.start == self.end
    }

    /// `true` iff `t` lies inside the interval.
    #[inline]
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t <= self.end
    }

    /// `true` iff `other` lies entirely inside `self`.
    #[inline]
    pub fn covers(&self, other: &Interval) -> bool {
        self.start <= other.start && other.end <= self.end
    }

    /// `true` iff the two closed intervals share at least one instant.
    #[inline]
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// `true` iff `self` ends exactly one instant before `other` begins
    /// (Allen's *meets* on a discrete line).
    #[inline]
    pub fn meets(&self, other: &Interval) -> bool {
        !self.end.is_forever() && self.end.next() == other.start
    }

    /// The common sub-interval, if any.
    pub fn intersect(&self, other: &Interval) -> Option<Interval> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start <= end {
            Some(Interval { start, end })
        } else {
            None
        }
    }

    /// Smallest interval containing both.
    pub fn hull(&self, other: &Interval) -> Interval {
        Interval {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Split at a *start* boundary `s`: `[lo, hi] → ([lo, s−1], [s, hi])`.
    ///
    /// Returns `None` when `s ≤ lo` or `s > hi` (no split possible). This is
    /// the split the aggregation tree performs when a tuple's start time
    /// falls strictly inside a constant interval.
    pub fn split_before(&self, s: Timestamp) -> Option<(Interval, Interval)> {
        if s > self.start && s <= self.end {
            Some((
                Interval {
                    start: self.start,
                    end: s.prev(),
                },
                Interval {
                    start: s,
                    end: self.end,
                },
            ))
        } else {
            None
        }
    }

    /// Up to `parts − 1` strictly increasing interior start-points that
    /// cut the interval into `parts` runs of near-equal length.
    ///
    /// Each returned timestamp `s` is the first instant of the next run:
    /// cutting `[lo, hi]` at seams `s₁ < s₂ < …` yields sub-intervals
    /// `[lo, s₁−1], [s₁, s₂−1], …, [sₖ, hi]`. Fewer than `parts − 1`
    /// seams are returned when the interval is too short, and none at all
    /// for an unbounded interval (there is no meaningful even cut of
    /// `[lo, ∞]`) — callers partitioning an unbounded domain should cut
    /// at seams drawn from a bounded hull of the data instead.
    pub fn even_seams(&self, parts: usize) -> Vec<Timestamp> {
        if parts <= 1 || self.end.is_forever() {
            return Vec::new();
        }
        let span = self.duration() as i128;
        let mut out = Vec::with_capacity(parts - 1);
        for i in 1..parts {
            let offset = (span * i as i128 / parts as i128) as i64;
            let s = self.start.saturating_add(offset);
            if s > self.start && s <= self.end && out.last() != Some(&s) {
                out.push(s);
            }
        }
        out
    }

    /// Split at an *end* boundary `e`: `[lo, hi] → ([lo, e], [e+1, hi])`.
    ///
    /// Returns `None` when `e < lo` or `e ≥ hi`. This is the split the
    /// aggregation tree performs when a tuple's end time falls strictly
    /// inside a constant interval.
    pub fn split_after(&self, e: Timestamp) -> Option<(Interval, Interval)> {
        if e >= self.start && e < self.end {
            Some((
                Interval {
                    start: self.start,
                    end: e,
                },
                Interval {
                    start: e.next(),
                    end: self.end,
                },
            ))
        } else {
            None
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.start, self.end)
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_seams_cut_into_equal_runs() {
        // [0, 99] into 4 runs: seams at 25, 50, 75.
        let seams = Interval::at(0, 99).even_seams(4);
        assert_eq!(seams, vec![Timestamp(25), Timestamp(50), Timestamp(75)]);
        // One part or zero parts: no cut.
        assert!(Interval::at(0, 99).even_seams(1).is_empty());
        assert!(Interval::at(0, 99).even_seams(0).is_empty());
    }

    #[test]
    fn even_seams_short_intervals_dedup() {
        // A 2-instant interval can be cut at most once.
        let seams = Interval::at(10, 11).even_seams(8);
        assert_eq!(seams, vec![Timestamp(11)]);
        // A single instant cannot be cut at all.
        assert!(Interval::at(10, 10).even_seams(8).is_empty());
    }

    #[test]
    fn even_seams_unbounded_returns_none() {
        assert!(Interval::TIMELINE.even_seams(4).is_empty());
        assert!(Interval::from_start(100).even_seams(2).is_empty());
    }

    #[test]
    fn construction_validates() {
        assert!(Interval::new(3, 3).is_ok());
        assert!(Interval::new(3, 4).is_ok());
        assert!(Interval::new(4, 3).is_err());
    }

    #[test]
    fn duration_counts_instants() {
        assert_eq!(Interval::at(0, 0).duration(), 1);
        assert_eq!(Interval::at(8, 20).duration(), 13);
        assert_eq!(Interval::TIMELINE.duration(), i64::MAX);
    }

    #[test]
    fn containment_and_overlap() {
        let a = Interval::at(8, 20);
        assert!(a.contains(Timestamp(8)));
        assert!(a.contains(Timestamp(20)));
        assert!(!a.contains(Timestamp(21)));
        assert!(a.overlaps(&Interval::at(20, 25)));
        assert!(a.overlaps(&Interval::at(0, 8)));
        assert!(!a.overlaps(&Interval::at(21, 25)));
        assert!(!a.overlaps(&Interval::at(0, 7)));
        assert!(a.covers(&Interval::at(9, 19)));
        assert!(a.covers(&a));
        assert!(!a.covers(&Interval::at(7, 19)));
    }

    #[test]
    fn meets_is_adjacency() {
        assert!(Interval::at(0, 7).meets(&Interval::at(8, 20)));
        assert!(!Interval::at(0, 7).meets(&Interval::at(9, 20)));
        assert!(!Interval::at(0, 7).meets(&Interval::at(7, 20)));
        // Nothing comes after the end of time.
        assert!(!Interval::from_start(5).meets(&Interval::at(0, 1)));
    }

    #[test]
    fn intersect_and_hull() {
        let a = Interval::at(0, 10);
        let b = Interval::at(5, 15);
        assert_eq!(a.intersect(&b), Some(Interval::at(5, 10)));
        assert_eq!(a.hull(&b), Interval::at(0, 15));
        assert_eq!(a.intersect(&Interval::at(11, 12)), None);
    }

    #[test]
    fn split_before_matches_figure_3() {
        // Inserting tuple [18, ∞] into the initial tree [0, ∞] splits at the
        // start time 18 into [0, 17] and [18, ∞].
        let (l, r) = Interval::TIMELINE.split_before(Timestamp(18)).unwrap();
        assert_eq!(l, Interval::at(0, 17));
        assert_eq!(r, Interval::from_start(18));
        // A start at the left edge does not split.
        assert!(Interval::at(5, 9).split_before(Timestamp(5)).is_none());
        assert!(Interval::at(5, 9).split_before(Timestamp(10)).is_none());
    }

    #[test]
    fn split_after_matches_figure_3() {
        // Inserting tuple [8, 20] splits [18, ∞] at the end time 20 into
        // [18, 20] and [21, ∞].
        let (l, r) = Interval::from_start(18).split_after(Timestamp(20)).unwrap();
        assert_eq!(l, Interval::at(18, 20));
        assert_eq!(r, Interval::from_start(21));
        // An end at the right edge does not split.
        assert!(Interval::at(5, 9).split_after(Timestamp(9)).is_none());
        assert!(Interval::at(5, 9).split_after(Timestamp(4)).is_none());
    }

    #[test]
    fn instant_interval() {
        let i = Interval::instant(21);
        assert!(i.is_instant());
        assert_eq!(i.duration(), 1);
    }

    #[test]
    fn display() {
        assert_eq!(Interval::at(8, 20).to_string(), "[8, 20]");
        assert_eq!(Interval::from_start(22).to_string(), "[22, ∞]");
    }
}
