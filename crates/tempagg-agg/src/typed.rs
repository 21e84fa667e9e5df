//! A typed runtime-width product aggregate over `INT` columns.
//!
//! [`MultiDyn`](crate::MultiDyn) evaluates any select list, but pays for
//! its generality per tuple: a heap-allocated `Vec<Value>` input, a
//! `Vec<DynState>` per tree node, and a `BTreeMap<Value, u64>` multiset
//! behind every swept `MIN`/`MAX`. The kinds that already have exact
//! typed kernels — `COUNT(*)` and `COUNT`/`SUM`/`AVG`/`MIN`/`MAX` over an
//! `INT` column — need none of that: [`TypedMulti`] is the same product
//! with an inline `Copy` input ([`TypedInput`]), inline `Copy` node
//! states, and the gapless O(1) [`SlotExtremes`] behind the extremes
//! (the sweep reads an event's value from its column by tag, and the live
//! set is a dense array, Piatov et al., arXiv:2008.12665).
//!
//! The output is an inline [`RowValues`] — a constant interval leaves the
//! kernel without touching the allocator when the list fits its width —
//! and is **byte-identical** to `MultiDyn`'s `Vec<Value>` for every
//! algorithm: NULL inputs are skipped by every member except
//! `COUNT(*)`, an aggregate over no non-NULL value reports `Value::Null`,
//! and `SUM` and `AVG` keep the same exact total as `MultiDyn` — `SUM`
//! reports it through the same range check, `AVG` divides it the same
//! way.
//! [`TypedMulti::lower`] decides from the members' kinds and column types
//! alone whether a select list qualifies; anything else keeps `MultiDyn`.

use crate::active::{SweepAggregate, SweepClass};
use crate::aggregate::Aggregate;
use crate::avg::{Avg, AvgState};
use crate::dynamic::{AggKind, DynAggregate};
use crate::overflow::int_sum;
use crate::slot_extremes::SlotExtremes;
use tempagg_core::{RowValues, Value, ValueType};

/// Most members a [`TypedMulti`] holds, and the slots of a
/// [`TypedInput`]. Fixed at compile time so the input stays an inline
/// `Copy` struct; wider select lists do not lower.
pub const TYPED_WIDTH: usize = 4;

/// One tuple's pre-extracted inputs: an `i64` slot per member plus a
/// presence mask (a clear bit is SQL `NULL`). The default is all `NULL`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TypedInput {
    slots: [i64; TYPED_WIDTH],
    present: u8,
}

impl TypedInput {
    /// Store a non-`NULL` value for member `slot`. Slots at or past
    /// [`TYPED_WIDTH`] do not exist and are ignored.
    #[inline]
    pub fn set(&mut self, slot: usize, value: i64) {
        if let Some(cell) = self.slots.get_mut(slot) {
            *cell = value;
            self.present |= 1 << slot;
        }
    }

    /// Member `slot`'s value, `None` when it is `NULL`.
    #[inline]
    pub fn get(&self, slot: usize) -> Option<i64> {
        let value = self.slots.get(slot)?;
        ((self.present >> slot) & 1 == 1).then_some(*value)
    }
}

/// The member kinds with exact typed kernels over `i64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TypedKind {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl TypedKind {
    fn of(member: &DynAggregate) -> Option<TypedKind> {
        match (member.kind(), member.input_type()) {
            (AggKind::CountStar, _) => Some(TypedKind::CountStar),
            (AggKind::Count, ValueType::Int) => Some(TypedKind::Count),
            (AggKind::Sum, ValueType::Int) => Some(TypedKind::Sum),
            (AggKind::Avg, ValueType::Int) => Some(TypedKind::Avg),
            (AggKind::Min, ValueType::Int) => Some(TypedKind::Min),
            (AggKind::Max, ValueType::Int) => Some(TypedKind::Max),
            _ => None,
        }
    }

    /// The value this member folds from slot `j` of `input`; `None` is a
    /// `NULL` it skips. `COUNT(*)` folds every tuple and ignores the value.
    #[inline]
    fn value_in(self, input: &TypedInput, j: usize) -> Option<i64> {
        if self == TypedKind::CountStar {
            Some(0)
        } else {
            input.get(j)
        }
    }

    /// Whether `candidate` replaces `acc`'s extremum.
    #[inline]
    fn improves(self, acc: &TypedAcc, candidate: i64) -> bool {
        acc.count == 0
            || match self {
                TypedKind::Min => candidate < acc.int,
                TypedKind::Max => candidate > acc.int,
                _ => false,
            }
    }

    /// Fold one value in.
    #[inline]
    fn insert(self, acc: &mut TypedAcc, value: i64) {
        match self {
            TypedKind::CountStar | TypedKind::Count => {}
            TypedKind::Sum | TypedKind::Avg => acc.add_to_total(value),
            TypedKind::Min | TypedKind::Max => {
                if self.improves(acc, value) {
                    acc.int = value;
                }
            }
        }
        acc.count += 1;
    }

    #[inline]
    fn merge(self, into: &mut TypedAcc, from: &TypedAcc) {
        match self {
            TypedKind::CountStar | TypedKind::Count => {}
            // An empty `from` holds the additive identities.
            TypedKind::Sum | TypedKind::Avg => {
                into.add_to_total(from.int);
                into.carry += from.carry;
            }
            TypedKind::Min | TypedKind::Max => {
                if from.count > 0 && self.improves(into, from.int) {
                    into.int = from.int;
                }
            }
        }
        into.count += from.count;
    }

    /// Retract one earlier [`insert`](Self::insert) from a running state
    /// (the extremes retract through their [`SlotExtremes`] instead).
    #[inline]
    fn remove(self, acc: &mut TypedAcc, value: i64) {
        if matches!(self, TypedKind::Sum | TypedKind::Avg) {
            acc.take_from_total(value);
        }
        acc.count = acc.count.saturating_sub(1);
        if acc.count == 0 {
            *acc = TypedAcc::default();
        }
    }

    fn output(self, acc: &TypedAcc) -> Value {
        match self {
            TypedKind::CountStar | TypedKind::Count => {
                Value::Int(i64::try_from(acc.count).unwrap_or(i64::MAX))
            }
            _ if acc.count == 0 => Value::Null,
            TypedKind::Sum => int_sum(acc.total()),
            TypedKind::Avg => Avg::<i64>::new()
                .finish(&AvgState {
                    sum: acc.total(),
                    count: acc.count,
                })
                .map_or(Value::Null, Value::Float),
            TypedKind::Min | TypedKind::Max => Value::Int(acc.int),
        }
    }

    fn is_extreme(self) -> bool {
        matches!(self, TypedKind::Min | TypedKind::Max)
    }
}

/// One member's accumulator, as a tree-node state and as the running
/// (retractable) state of the non-extreme members: `count` values folded
/// so far, with `int` the `MIN`/`MAX`. `SUM` and `AVG` keep one exact total,
/// `carry · 2^64 + int`: `int` wraps and `carry` counts the wraps, which
/// costs the running sum one overflow test and keeps the state 8-byte
/// aligned (an `i128` field would pad four members by 32 B).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TypedAcc {
    int: i64,
    carry: i64,
    count: u64,
}

impl TypedAcc {
    /// `SUM`'s and `AVG`'s running total.
    fn total(&self) -> i128 {
        (i128::from(self.carry) << 64) + i128::from(self.int)
    }

    #[inline]
    fn add_to_total(&mut self, value: i64) {
        let (sum, wrapped) = self.int.overflowing_add(value);
        self.int = sum;
        if wrapped {
            self.carry += value.signum();
        }
    }

    #[inline]
    fn take_from_total(&mut self, value: i64) {
        let (difference, wrapped) = self.int.overflowing_sub(value);
        self.int = difference;
        if wrapped {
            self.carry -= value.signum();
        }
    }
}

/// One member's retractable state under the sweep line.
#[derive(Clone, Debug)]
pub enum TypedActive {
    /// `COUNT(*)`/`COUNT`/`SUM`/`AVG`: O(1) deltas.
    Running(TypedAcc),
    /// `MIN`/`MAX`: the gapless slot map with a cached extremum.
    Extreme(SlotExtremes<i64>),
}

/// A product of up to [`TYPED_WIDTH`] typed aggregates over `INT`
/// inputs, evaluated in one pass like [`MultiDyn`](crate::MultiDyn) and
/// reporting the same values per constant interval, inline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TypedMulti {
    members: Vec<TypedKind>,
}

impl TypedMulti {
    /// Lower a bound select list, or `None` when any member has no typed
    /// kernel (a non-`INT` input, `COUNT(DISTINCT)`, `VARIANCE`,
    /// `STDDEV`) or the list is wider than [`TYPED_WIDTH`]. Member `j`
    /// reads slot `j` of the [`TypedInput`].
    pub fn lower(members: &[DynAggregate]) -> Option<TypedMulti> {
        if members.is_empty() || members.len() > TYPED_WIDTH {
            return None;
        }
        let members = members
            .iter()
            .map(TypedKind::of)
            .collect::<Option<Vec<_>>>()?;
        Some(TypedMulti { members })
    }

    /// Admit (or retract an earlier admit of) `input` under the sweep
    /// line. `slot` is the sweep's tuple handle, absent for callers that
    /// retract by value.
    #[inline]
    fn apply(
        &self,
        active: &mut [TypedActive],
        slot: Option<usize>,
        input: &TypedInput,
        admit: bool,
    ) {
        for (j, (kind, member)) in self.members.iter().zip(active).enumerate() {
            let Some(value) = kind.value_in(input, j) else {
                continue;
            };
            match (member, slot, admit) {
                (TypedActive::Running(acc), _, true) => kind.insert(acc, value),
                (TypedActive::Running(acc), _, false) => kind.remove(acc, value),
                (TypedActive::Extreme(live), Some(slot), true) => live.insert_slot(slot, &value),
                (TypedActive::Extreme(live), Some(slot), false) => live.remove_slot(slot),
                (TypedActive::Extreme(live), None, true) => live.insert_value(&value),
                (TypedActive::Extreme(live), None, false) => live.remove_value(&value),
            }
        }
    }
}

impl Aggregate for TypedMulti {
    type Input = TypedInput;
    type State = [TypedAcc; TYPED_WIDTH];
    type Output = RowValues;

    fn name(&self) -> &'static str {
        "TYPED MULTI"
    }

    fn empty_state(&self) -> Self::State {
        [TypedAcc::default(); TYPED_WIDTH]
    }

    #[inline]
    fn insert(&self, state: &mut Self::State, input: &TypedInput) {
        for (j, (kind, acc)) in self.members.iter().zip(state).enumerate() {
            if let Some(value) = kind.value_in(input, j) {
                kind.insert(acc, value);
            }
        }
    }

    #[inline]
    fn merge(&self, into: &mut Self::State, from: &Self::State) {
        for ((kind, a), b) in self.members.iter().zip(into).zip(from) {
            kind.merge(a, b);
        }
    }

    fn finish(&self, state: &Self::State) -> RowValues {
        self.members
            .iter()
            .zip(state)
            .map(|(kind, acc)| kind.output(acc))
            .collect()
    }

    fn is_empty_state(&self, state: &Self::State) -> bool {
        state.iter().all(|acc| acc.count == 0)
    }

    fn state_model_bytes(&self) -> usize {
        self.members
            .iter()
            .map(|kind| if *kind == TypedKind::Avg { 8 } else { 4 })
            .sum()
    }
}

impl SweepAggregate for TypedMulti {
    type Active = Vec<TypedActive>;

    fn active_empty(&self) -> Vec<TypedActive> {
        self.members
            .iter()
            .map(|kind| {
                if kind.is_extreme() {
                    TypedActive::Extreme(SlotExtremes::new(*kind == TypedKind::Max))
                } else {
                    TypedActive::Running(TypedAcc::default())
                }
            })
            .collect()
    }

    #[inline]
    fn active_insert(&self, active: &mut Vec<TypedActive>, input: &TypedInput) {
        self.apply(active, None, input, true);
    }

    #[inline]
    fn active_remove(&self, active: &mut Vec<TypedActive>, input: &TypedInput) {
        self.apply(active, None, input, false);
    }

    fn active_output(&self, active: &Vec<TypedActive>) -> RowValues {
        let mut row = RowValues::with_capacity(self.members.len());
        for (kind, member) in self.members.iter().zip(active) {
            row.push(match member {
                TypedActive::Running(acc) => kind.output(acc),
                TypedActive::Extreme(live) => live.best().map_or(Value::Null, |v| Value::Int(*v)),
            });
        }
        row
    }

    /// The weakest class among members, exactly as `MultiDyn` reports for
    /// the same list, so both plan alike.
    fn sweep_class(&self) -> SweepClass {
        if self.members.iter().any(|kind| kind.is_extreme()) {
            SweepClass::Ordered
        } else {
            SweepClass::Delta
        }
    }

    fn active_reserve(&self, active: &mut Vec<TypedActive>, slots: usize) {
        for member in active {
            if let TypedActive::Extreme(live) = member {
                live.reserve(slots);
            }
        }
    }

    #[inline]
    fn active_insert_slot(&self, active: &mut Vec<TypedActive>, slot: usize, input: &TypedInput) {
        self.apply(active, Some(slot), input, true);
    }

    #[inline]
    fn active_remove_slot(&self, active: &mut Vec<TypedActive>, slot: usize, input: &TypedInput) {
        self.apply(active, Some(slot), input, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultiDyn;

    /// `AVG`'s wrapped word and its carry track an `i128` total through
    /// adds, retractions and merges that wrap both ways.
    #[test]
    fn avg_total_wraps_into_its_carry_exactly() {
        let (mut acc, mut negated) = (TypedAcc::default(), TypedAcc::default());
        let (mut want, mut want_negated) = (0i128, 0i128);
        for value in [i64::MAX, i64::MAX, 3, i64::MIN, -7, i64::MAX] {
            acc.add_to_total(value);
            negated.take_from_total(value);
            want += i128::from(value);
            want_negated -= i128::from(value);
            assert_eq!((acc.total(), negated.total()), (want, want_negated));
        }
        for value in [i64::MIN, i64::MIN, i64::MIN, 12] {
            acc.take_from_total(value);
            want -= i128::from(value);
            assert_eq!(acc.total(), want);
        }
        TypedKind::Avg.merge(&mut acc, &negated);
        assert_eq!(acc.total(), want + want_negated);
    }

    const KINDS: [AggKind; 9] = [
        AggKind::CountStar,
        AggKind::Count,
        AggKind::CountDistinct,
        AggKind::Sum,
        AggKind::Min,
        AggKind::Max,
        AggKind::Avg,
        AggKind::Variance,
        AggKind::StdDev,
    ];

    fn dyn_agg(kind: AggKind, ty: ValueType) -> Option<DynAggregate> {
        DynAggregate::new(kind, ty).ok()
    }

    /// The same tuple as both aggregates see it.
    fn inputs(values: &[Option<i64>]) -> (TypedInput, Vec<Value>) {
        let mut typed = TypedInput::default();
        for (slot, v) in values.iter().enumerate() {
            if let Some(v) = v {
                typed.set(slot, *v);
            }
        }
        let dynamic = values
            .iter()
            .map(|v| v.map_or(Value::Null, Value::Int))
            .collect();
        (typed, dynamic)
    }

    fn int_list(kinds: &[AggKind]) -> (TypedMulti, MultiDyn) {
        let members: Vec<DynAggregate> = kinds
            .iter()
            .map(|k| DynAggregate::new(*k, ValueType::Int).unwrap())
            .collect();
        (
            TypedMulti::lower(&members).expect("an INT list within the width lowers"),
            MultiDyn::new(members),
        )
    }

    #[test]
    fn lowering_decision_table() {
        for kind in KINDS {
            for ty in [
                ValueType::Int,
                ValueType::Float,
                ValueType::Str,
                ValueType::Bool,
            ] {
                let Some(member) = dyn_agg(kind, ty) else {
                    continue; // the binder rejects e.g. SUM over STRING
                };
                let typed_kernel = matches!(
                    kind,
                    AggKind::Count | AggKind::Sum | AggKind::Avg | AggKind::Min | AggKind::Max
                ) && ty == ValueType::Int;
                let expect = kind == AggKind::CountStar || typed_kernel;
                assert_eq!(
                    TypedMulti::lower(&[member]).is_some(),
                    expect,
                    "{kind:?} over {ty}"
                );
            }
        }
    }

    #[test]
    fn one_unlowerable_member_keeps_the_whole_list_dynamic() {
        let sum = dyn_agg(AggKind::Sum, ValueType::Int).unwrap();
        let fsum = dyn_agg(AggKind::Sum, ValueType::Float).unwrap();
        assert!(TypedMulti::lower(&[sum, sum]).is_some());
        assert!(TypedMulti::lower(&[sum, fsum]).is_none());
        assert!(TypedMulti::lower(&[]).is_none());
    }

    #[test]
    fn lists_wider_than_the_inline_width_fall_back() {
        let sum = dyn_agg(AggKind::Sum, ValueType::Int).unwrap();
        assert!(TypedMulti::lower(&[sum; TYPED_WIDTH]).is_some());
        assert!(TypedMulti::lower(&[sum; TYPED_WIDTH + 1]).is_none());
        // The input itself refuses a slot it does not have.
        let mut input = TypedInput::default();
        input.set(TYPED_WIDTH, 7);
        assert_eq!(input, TypedInput::default());
        assert_eq!(input.get(TYPED_WIDTH), None);
    }

    #[test]
    fn plans_like_multidyn() {
        for kinds in [
            &[AggKind::CountStar][..],
            &[AggKind::Sum, AggKind::Min],
            &[AggKind::Count, AggKind::Avg, AggKind::Max, AggKind::Sum],
            &[AggKind::Avg],
        ] {
            let (typed, dynamic) = int_list(kinds);
            assert_eq!(typed.sweep_class(), dynamic.sweep_class(), "{kinds:?}");
            assert_eq!(
                typed.state_model_bytes(),
                dynamic.state_model_bytes(),
                "{kinds:?}"
            );
        }
    }

    /// Values that exercise NULL skipping and totals past both ends of the
    /// `INT` range.
    const COLUMN: [Option<i64>; 8] = [
        Some(5),
        None,
        Some(i64::MAX),
        Some(7),
        Some(-3),
        Some(i64::MIN),
        Some(i64::MIN),
        Some(5),
    ];

    #[test]
    fn monoid_path_is_byte_identical_to_multidyn() {
        let kinds = [AggKind::CountStar, AggKind::Sum, AggKind::Avg, AggKind::Min];
        let (typed, dynamic) = int_list(&kinds);
        assert_eq!(
            typed.finish(&typed.empty_state()),
            dynamic.finish(&dynamic.empty_state())
        );
        assert!(typed.is_empty_state(&typed.empty_state()));
        // Fold a prefix, fold the rest separately, merge: every step agrees.
        for split in 0..=COLUMN.len() {
            let (mut ta, mut tb) = (typed.empty_state(), typed.empty_state());
            let (mut da, mut db) = (dynamic.empty_state(), dynamic.empty_state());
            for (i, v) in COLUMN.iter().enumerate() {
                let (t, d) = inputs(&[*v; 4]);
                if i < split {
                    typed.insert(&mut ta, &t);
                    dynamic.insert(&mut da, &d);
                } else {
                    typed.insert(&mut tb, &t);
                    dynamic.insert(&mut db, &d);
                }
            }
            assert_eq!(typed.finish(&tb), dynamic.finish(&db), "tail at {split}");
            assert_eq!(typed.is_empty_state(&tb), dynamic.is_empty_state(&db));
            typed.merge(&mut ta, &tb);
            dynamic.merge(&mut da, &db);
            assert_eq!(typed.finish(&ta), dynamic.finish(&da), "merged at {split}");
        }
    }

    #[test]
    fn sweep_path_is_byte_identical_to_multidyn() {
        let kinds = [AggKind::Count, AggKind::Sum, AggKind::Max, AggKind::Min];
        let (typed, dynamic) = int_list(&kinds);
        for by_slot in [true, false] {
            let mut ta = typed.active_empty();
            let mut da = dynamic.active_empty();
            typed.active_reserve(&mut ta, COLUMN.len());
            assert_eq!(typed.active_output(&ta), dynamic.active_output(&da));
            for (slot, v) in COLUMN.iter().enumerate() {
                let (t, d) = inputs(&[*v; 4]);
                if by_slot {
                    typed.active_insert_slot(&mut ta, slot, &t);
                } else {
                    typed.active_insert(&mut ta, &t);
                }
                dynamic.active_insert(&mut da, &d);
                assert_eq!(typed.active_output(&ta), dynamic.active_output(&da));
            }
            // Retract in an order that empties the extremes' cached best
            // several times and walks SUM back into the `INT` range.
            for slot in [2, 5, 0, 6, 1, 7, 3, 4] {
                let (t, d) = inputs(&[COLUMN[slot]; 4]);
                if by_slot {
                    typed.active_remove_slot(&mut ta, slot, &t);
                } else {
                    typed.active_remove(&mut ta, &t);
                }
                dynamic.active_remove(&mut da, &d);
                assert_eq!(
                    typed.active_output(&ta),
                    dynamic.active_output(&da),
                    "after retracting slot {slot}"
                );
            }
        }
    }

    #[test]
    fn count_star_counts_null_inputs() {
        let (typed, _) = int_list(&[AggKind::CountStar, AggKind::Count]);
        let mut state = typed.empty_state();
        typed.insert(&mut state, &TypedInput::default());
        assert_eq!(typed.finish(&state), vec![Value::Int(1), Value::Int(0)]);
    }
}
