//! The aggregate abstraction shared by every algorithm in this workspace.
//!
//! The aggregation tree stores a *partial* aggregate state at internal nodes
//! (for tuples whose interval completely covers the node) and combines the
//! states along each root→leaf path during the final depth-first search
//! (Section 5.1). That works exactly when the aggregate's `merge` is
//! commutative and associative with `empty_state` as identity — i.e. the
//! states form a commutative monoid. `COUNT`/`SUM`/`AVG` are additive;
//! `MIN`/`MAX` merge by comparison. None of the paper's algorithms ever
//! needs to *remove* a tuple, so inverse operations are not required.

/// An aggregate function, expressed as a commutative monoid over partial
/// states.
///
/// Implementations carry no per-tuple data themselves; an instance is a
/// *descriptor* (e.g. "SUM over this column"), and the algorithms thread the
/// descriptor through so dynamically-configured aggregates (the SQL layer)
/// and zero-sized static aggregates use the same code path.
pub trait Aggregate {
    /// Per-tuple input consumed by [`Aggregate::insert`].
    type Input;
    /// Partial aggregate state stored at tree nodes / list cells.
    type State: Clone + std::fmt::Debug;
    /// Final value reported per constant interval.
    type Output: Clone + PartialEq + std::fmt::Debug;

    /// Display name (`"COUNT"`, `"SUM"`, …).
    fn name(&self) -> &'static str;

    /// The monoid identity: the state of a constant interval overlapped by
    /// no tuples.
    fn empty_state(&self) -> Self::State;

    /// Fold one tuple's value into a state.
    fn insert(&self, state: &mut Self::State, value: &Self::Input);

    /// Combine two partial states. Must be commutative and associative,
    /// with [`Aggregate::empty_state`] as identity.
    fn merge(&self, into: &mut Self::State, from: &Self::State);

    /// Produce the reported value for a constant interval.
    fn finish(&self, state: &Self::State) -> Self::Output;

    /// `true` iff the state has absorbed no tuples. Used to filter empty
    /// groups from results when callers ask for it.
    fn is_empty_state(&self, state: &Self::State) -> bool;

    /// Bytes of aggregate state per node under the paper's Section 6
    /// accounting (`COUNT` 4 B; `SUM`/`MIN`/`MAX` 4 B plus an empty bit;
    /// `AVG` 8 B). Used for the Figure 9 memory model.
    fn state_model_bytes(&self) -> usize;
}

/// Numeric inputs accepted by `SUM`/`AVG`/`VARIANCE`.
///
/// A tiny closed abstraction: the paper's aggregates operate on salaries
/// (integers) and we additionally support floats. Saturating addition
/// mirrors the fixed-width accumulators of the original implementation
/// without risking wrap-around UB in long-running scans.
pub trait Numeric: Copy + std::fmt::Debug + PartialEq + 'static {
    const ZERO: Self;
    /// Whether `saturating_sub` exactly inverts `saturating_add` away from
    /// the saturation rails — true for integers, false for floats, where
    /// rounding makes retraction approximate. Drives sweep-class selection.
    const EXACT_RETRACT: bool;
    /// The running total `AVG` keeps: `i128` for integers — no sum of
    /// `i64`s overflows it, so subtracting a value exactly undoes adding
    /// it — and `f64` for floats.
    type Total: Copy
        + Default
        + PartialEq
        + std::fmt::Debug
        + std::ops::AddAssign
        + std::ops::SubAssign;
    /// This value as a term of a [`Total`](Numeric::Total).
    fn widen(self) -> Self::Total;
    /// A total as the dividend of a mean.
    fn total_to_f64(total: Self::Total) -> f64;
    fn saturating_add(self, other: Self) -> Self;
    fn saturating_sub(self, other: Self) -> Self;
    fn to_f64(self) -> f64;
}

impl Numeric for i64 {
    const ZERO: Self = 0;
    const EXACT_RETRACT: bool = true;
    type Total = i128;
    #[inline]
    fn widen(self) -> i128 {
        i128::from(self)
    }
    #[inline]
    fn total_to_f64(total: i128) -> f64 {
        // lint: allow(no-as-cast): rounds once, at the end, like every other path that divides this total
        total as f64
    }
    #[inline]
    fn saturating_add(self, other: Self) -> Self {
        i64::saturating_add(self, other)
    }
    #[inline]
    fn saturating_sub(self, other: Self) -> Self {
        i64::saturating_sub(self, other)
    }
    #[inline]
    fn to_f64(self) -> f64 {
        // lint: allow(no-as-cast): widening for AVG statistics; precision loss above 2^53 is inherent to averaging i64
        self as f64
    }
}

impl Numeric for f64 {
    const ZERO: Self = 0.0;
    const EXACT_RETRACT: bool = false;
    type Total = f64;
    #[inline]
    fn widen(self) -> f64 {
        self
    }
    #[inline]
    fn total_to_f64(total: f64) -> f64 {
        total
    }
    #[inline]
    fn saturating_add(self, other: Self) -> Self {
        self + other
    }
    #[inline]
    fn saturating_sub(self, other: Self) -> Self {
        self - other
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_i64_saturates() {
        assert_eq!(Numeric::saturating_add(i64::MAX, 1), i64::MAX);
        assert_eq!(Numeric::saturating_add(2i64, 3), 5);
        assert_eq!(Numeric::saturating_sub(i64::MIN, 1), i64::MIN);
        assert_eq!(Numeric::saturating_sub(5i64, 3), 2);
        assert_eq!(5i64.to_f64(), 5.0);
        assert_eq!(i64::ZERO, 0);
        const _: () = assert!(<i64 as Numeric>::EXACT_RETRACT);
    }

    #[test]
    fn numeric_f64() {
        assert_eq!(Numeric::saturating_add(1.5f64, 2.0), 3.5);
        assert_eq!(Numeric::saturating_sub(3.5f64, 2.0), 1.5);
        assert_eq!(f64::ZERO, 0.0);
        assert_eq!(2.5f64.to_f64(), 2.5);
        const _: () = assert!(!<f64 as Numeric>::EXACT_RETRACT);
    }
}
