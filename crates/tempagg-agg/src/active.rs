//! Retractable "active set" states for endpoint-sweep aggregation.
//!
//! The [`Aggregate`](crate::Aggregate) monoid deliberately has no inverse —
//! none of the paper's algorithms ever removes a tuple from a state. The
//! columnar endpoint sweep (Piatov et al., arXiv:2008.12665; Colley et al.,
//! arXiv:2211.05896) does: as the sweep line crosses a tuple's end, the
//! tuple must leave the running state. [`SweepAggregate`] is the capability
//! subtrait expressing that: a second state representation
//! ([`SweepAggregate::Active`]) that supports *removal*, maintained as a
//! running summary of the tuples currently overlapping the sweep line.
//!
//! Three cost/exactness classes arise ([`SweepClass`]):
//!
//! * **Delta** — invertible group aggregates (`COUNT`, integer `SUM`/`AVG`,
//!   booleans): O(1) per event, retraction reproduces insert-only results
//!   exactly.
//! * **Ordered** — selection aggregates (`MIN`/`MAX`) and `DISTINCT`: an
//!   ordered multiset, O(log a) per event for `a` concurrently-live tuples.
//! * **Approximate** — floating-point retraction (`f64` sums, `VARIANCE`
//!   via reverse-Welford) drifts; the planner keeps these off the sweep.

use crate::aggregate::{Aggregate, Numeric};
use crate::avg::{Avg, AvgState};
use crate::count::Count;
use crate::distinct::CountDistinct;
use crate::dynamic::{AggKind, DynAggregate};
use crate::logic::{BoolAnd, BoolOr};
use crate::min_max::{Max, Min};
use crate::multi::MultiDyn;
use crate::slot_extremes::SlotExtremes;
use crate::sum::Sum;
use crate::variance::{StdDev, Variance, VarianceState};
use std::collections::BTreeMap;
use tempagg_core::Value;

/// Cost/exactness class of an aggregate's sweep support, used by the
/// planner's cost model. Ordered so `max` picks the weakest member of a
/// product aggregate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SweepClass {
    /// O(1) retraction, bit-exact against insert-only evaluation.
    Delta,
    /// O(log a) retraction through an ordered multiset; still exact.
    Ordered,
    /// Floating-point retraction; results can drift in the last ulps, so
    /// cost-based selection avoids the sweep for these.
    Approximate,
}

impl SweepClass {
    /// Whether an incremental cache may maintain this class by *patching*
    /// per-run active states through [`SweepAggregate::active_insert`] /
    /// [`SweepAggregate::active_remove`]: exact for [`Delta`] (O(1)
    /// deltas) and [`Ordered`] (ordered-multiset membership), but not for
    /// [`Approximate`], whose float retraction drifts — those caches must
    /// recompute the dirty window from the base tuples instead.
    ///
    /// [`Delta`]: SweepClass::Delta
    /// [`Ordered`]: SweepClass::Ordered
    /// [`Approximate`]: SweepClass::Approximate
    pub fn retractable(self) -> bool {
        !matches!(self, SweepClass::Approximate)
    }
}

/// An [`Aggregate`] that additionally supports a *retractable* running
/// state, enabling O(n log n) endpoint-sweep evaluation.
///
/// Laws (for any sequence of inserts/removes where every remove has a
/// matching earlier insert of the same value):
///
/// * `active_output(active_empty())` equals `finish(empty_state())`;
/// * after inserting exactly the multiset `M`, `active_output` equals
///   `finish` of a state built by inserting `M` — exactly for
///   [`SweepClass::Delta`]/[`SweepClass::Ordered`], up to float rounding
///   for [`SweepClass::Approximate`].
pub trait SweepAggregate: Aggregate {
    /// Running summary of the tuples overlapping the sweep line.
    type Active: Clone + std::fmt::Debug;

    /// The active state with no live tuples.
    fn active_empty(&self) -> Self::Active;

    /// A tuple's interval begins: fold its value in.
    fn active_insert(&self, active: &mut Self::Active, value: &Self::Input);

    /// A tuple's interval has ended: retract its value.
    fn active_remove(&self, active: &mut Self::Active, value: &Self::Input);

    /// The reported value for a constant interval under the sweep line.
    fn active_output(&self, active: &Self::Active) -> Self::Output;

    /// Cost/exactness class for planner selection.
    fn sweep_class(&self) -> SweepClass;

    /// Pre-size the active state for tuple slots `0..slots`, so the scan
    /// loop that follows never allocates. Default: no-op (the delta
    /// states are fixed-size scalars).
    fn active_reserve(&self, _active: &mut Self::Active, _slots: usize) {}

    /// [`active_insert`](Self::active_insert) with a stable *slot handle*
    /// (the sweep's tuple index, baked into its sorted event records).
    /// States that key their live set by slot — the gapless
    /// [`SlotExtremes`](crate::SlotExtremes) of `MIN`/`MAX` — override
    /// this for O(1) dense-array admits; everything else ignores the
    /// handle and folds the value.
    #[inline]
    fn active_insert_slot(&self, active: &mut Self::Active, _slot: usize, value: &Self::Input) {
        self.active_insert(active, value);
    }

    /// [`active_remove`](Self::active_remove) with the same slot handle
    /// the value was admitted under.
    #[inline]
    fn active_remove_slot(&self, active: &mut Self::Active, _slot: usize, value: &Self::Input) {
        self.active_remove(active, value);
    }
}

impl SweepAggregate for Count {
    type Active = u64;

    fn active_empty(&self) -> u64 {
        0
    }

    #[inline]
    fn active_insert(&self, active: &mut u64, _value: &()) {
        *active += 1;
    }

    #[inline]
    fn active_remove(&self, active: &mut u64, _value: &()) {
        *active = active.saturating_sub(1);
    }

    #[inline]
    fn active_output(&self, active: &u64) -> u64 {
        *active
    }

    fn sweep_class(&self) -> SweepClass {
        SweepClass::Delta
    }
}

impl<T: Numeric> SweepAggregate for Sum<T> {
    /// Running sum plus a live-tuple count so the state returns to the
    /// monoid identity (`None`) when the last tuple retracts.
    type Active = (T, u64);

    fn active_empty(&self) -> (T, u64) {
        (T::ZERO, 0)
    }

    #[inline]
    fn active_insert(&self, active: &mut (T, u64), value: &T) {
        active.0 = active.0.saturating_add(*value);
        active.1 += 1;
    }

    #[inline]
    fn active_remove(&self, active: &mut (T, u64), value: &T) {
        active.0 = active.0.saturating_sub(*value);
        active.1 = active.1.saturating_sub(1);
        if active.1 == 0 {
            active.0 = T::ZERO;
        }
    }

    #[inline]
    fn active_output(&self, active: &(T, u64)) -> Option<T> {
        (active.1 > 0).then_some(active.0)
    }

    fn sweep_class(&self) -> SweepClass {
        if T::EXACT_RETRACT {
            SweepClass::Delta
        } else {
            SweepClass::Approximate
        }
    }
}

impl<T: Numeric> SweepAggregate for Avg<T> {
    type Active = AvgState;

    fn active_empty(&self) -> AvgState {
        AvgState { sum: 0.0, count: 0 }
    }

    #[inline]
    fn active_insert(&self, active: &mut AvgState, value: &T) {
        active.sum += value.to_f64();
        active.count += 1;
    }

    #[inline]
    fn active_remove(&self, active: &mut AvgState, value: &T) {
        active.sum -= value.to_f64();
        active.count = active.count.saturating_sub(1);
        if active.count == 0 {
            active.sum = 0.0;
        }
    }

    #[inline]
    fn active_output(&self, active: &AvgState) -> Option<f64> {
        // lint: allow(no-as-cast): tuple counts are far below 2^53, so the u64 → f64 divisor is exact
        (active.count > 0).then(|| active.sum / active.count as f64)
    }

    fn sweep_class(&self) -> SweepClass {
        if T::EXACT_RETRACT {
            SweepClass::Delta
        } else {
            SweepClass::Approximate
        }
    }
}

/// Shared ordered-multiset plumbing for `MIN`/`MAX`/`DISTINCT` actives.
#[inline]
fn multiset_insert<T: Ord + Clone>(set: &mut BTreeMap<T, u64>, value: &T) {
    *set.entry(value.clone()).or_insert(0) += 1;
}

#[inline]
fn multiset_remove<T: Ord>(set: &mut BTreeMap<T, u64>, value: &T) {
    if let Some(mult) = set.get_mut(value) {
        *mult = mult.saturating_sub(1);
        if *mult == 0 {
            set.remove(value);
        }
    }
}

impl<T> SweepAggregate for Min<T>
where
    T: Ord + Clone + std::fmt::Debug + PartialEq + 'static,
{
    /// Gapless slot map with a cached minimum — O(1) admits/retracts by
    /// tuple slot, allocation-free after `active_reserve` (see
    /// [`SlotExtremes`]).
    type Active = SlotExtremes<T>;

    fn active_empty(&self) -> SlotExtremes<T> {
        SlotExtremes::new(false)
    }

    #[inline]
    fn active_insert(&self, active: &mut SlotExtremes<T>, value: &T) {
        active.insert_value(value);
    }

    #[inline]
    fn active_remove(&self, active: &mut SlotExtremes<T>, value: &T) {
        active.remove_value(value);
    }

    #[inline]
    fn active_output(&self, active: &SlotExtremes<T>) -> Option<T> {
        active.best().cloned()
    }

    fn sweep_class(&self) -> SweepClass {
        SweepClass::Ordered
    }

    fn active_reserve(&self, active: &mut SlotExtremes<T>, slots: usize) {
        active.reserve(slots);
    }

    #[inline]
    fn active_insert_slot(&self, active: &mut SlotExtremes<T>, slot: usize, value: &T) {
        active.insert_slot(slot, value);
    }

    #[inline]
    fn active_remove_slot(&self, active: &mut SlotExtremes<T>, slot: usize, _value: &T) {
        active.remove_slot(slot);
    }
}

impl<T> SweepAggregate for Max<T>
where
    T: Ord + Clone + std::fmt::Debug + PartialEq + 'static,
{
    /// Gapless slot map with a cached maximum (see [`SlotExtremes`]).
    type Active = SlotExtremes<T>;

    fn active_empty(&self) -> SlotExtremes<T> {
        SlotExtremes::new(true)
    }

    #[inline]
    fn active_insert(&self, active: &mut SlotExtremes<T>, value: &T) {
        active.insert_value(value);
    }

    #[inline]
    fn active_remove(&self, active: &mut SlotExtremes<T>, value: &T) {
        active.remove_value(value);
    }

    #[inline]
    fn active_output(&self, active: &SlotExtremes<T>) -> Option<T> {
        active.best().cloned()
    }

    fn sweep_class(&self) -> SweepClass {
        SweepClass::Ordered
    }

    fn active_reserve(&self, active: &mut SlotExtremes<T>, slots: usize) {
        active.reserve(slots);
    }

    #[inline]
    fn active_insert_slot(&self, active: &mut SlotExtremes<T>, slot: usize, value: &T) {
        active.insert_slot(slot, value);
    }

    #[inline]
    fn active_remove_slot(&self, active: &mut SlotExtremes<T>, slot: usize, _value: &T) {
        active.remove_slot(slot);
    }
}

impl<T> SweepAggregate for CountDistinct<T>
where
    T: Ord + Clone + std::fmt::Debug + 'static,
{
    type Active = BTreeMap<T, u64>;

    fn active_empty(&self) -> BTreeMap<T, u64> {
        BTreeMap::new()
    }

    #[inline]
    fn active_insert(&self, active: &mut BTreeMap<T, u64>, value: &T) {
        multiset_insert(active, value);
    }

    #[inline]
    fn active_remove(&self, active: &mut BTreeMap<T, u64>, value: &T) {
        multiset_remove(active, value);
    }

    #[inline]
    fn active_output(&self, active: &BTreeMap<T, u64>) -> u64 {
        u64::try_from(active.len()).unwrap_or(u64::MAX)
    }

    fn sweep_class(&self) -> SweepClass {
        SweepClass::Ordered
    }
}

/// Counters of live `true`/`false` tuples — the retractable form of the
/// boolean aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BoolCounts {
    pub trues: u64,
    pub falses: u64,
}

impl BoolCounts {
    #[inline]
    fn insert(&mut self, value: bool) {
        if value {
            self.trues += 1;
        } else {
            self.falses += 1;
        }
    }

    #[inline]
    fn remove(&mut self, value: bool) {
        if value {
            self.trues = self.trues.saturating_sub(1);
        } else {
            self.falses = self.falses.saturating_sub(1);
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.trues == 0 && self.falses == 0
    }
}

impl SweepAggregate for BoolAnd {
    type Active = BoolCounts;

    fn active_empty(&self) -> BoolCounts {
        BoolCounts::default()
    }

    #[inline]
    fn active_insert(&self, active: &mut BoolCounts, value: &bool) {
        active.insert(*value);
    }

    #[inline]
    fn active_remove(&self, active: &mut BoolCounts, value: &bool) {
        active.remove(*value);
    }

    #[inline]
    fn active_output(&self, active: &BoolCounts) -> Option<bool> {
        (!active.is_empty()).then_some(active.falses == 0)
    }

    fn sweep_class(&self) -> SweepClass {
        SweepClass::Delta
    }
}

impl SweepAggregate for BoolOr {
    type Active = BoolCounts;

    fn active_empty(&self) -> BoolCounts {
        BoolCounts::default()
    }

    #[inline]
    fn active_insert(&self, active: &mut BoolCounts, value: &bool) {
        active.insert(*value);
    }

    #[inline]
    fn active_remove(&self, active: &mut BoolCounts, value: &bool) {
        active.remove(*value);
    }

    #[inline]
    fn active_output(&self, active: &BoolCounts) -> Option<bool> {
        (!active.is_empty()).then_some(active.trues > 0)
    }

    fn sweep_class(&self) -> SweepClass {
        SweepClass::Delta
    }
}

/// Reverse-Welford retraction: undo one `insert` of `x`. Approximate —
/// floating-point residue accumulates, which is why `VARIANCE`/`STDDEV`
/// report [`SweepClass::Approximate`].
fn variance_remove(state: &mut VarianceState, x: f64) {
    if state.count <= 1 {
        *state = VarianceState {
            count: 0,
            mean: 0.0,
            m2: 0.0,
        };
        return;
    }
    let n = state.count;
    // lint: allow(no-as-cast): tuple counts are far below 2^53, so the u64 → f64 images are exact
    let (nf, n1f) = (n as f64, (n - 1) as f64);
    let mean_prev = (state.mean * nf - x) / n1f;
    state.m2 -= (x - mean_prev) * (x - state.mean);
    if state.m2 < 0.0 {
        state.m2 = 0.0;
    }
    state.mean = mean_prev;
    state.count = n - 1;
}

impl<T: Numeric> SweepAggregate for Variance<T> {
    type Active = VarianceState;

    fn active_empty(&self) -> VarianceState {
        self.empty_state()
    }

    #[inline]
    fn active_insert(&self, active: &mut VarianceState, value: &T) {
        self.insert(active, value);
    }

    #[inline]
    fn active_remove(&self, active: &mut VarianceState, value: &T) {
        variance_remove(active, value.to_f64());
    }

    #[inline]
    fn active_output(&self, active: &VarianceState) -> Option<f64> {
        self.finish(active)
    }

    fn sweep_class(&self) -> SweepClass {
        SweepClass::Approximate
    }
}

impl<T: Numeric> SweepAggregate for StdDev<T> {
    type Active = VarianceState;

    fn active_empty(&self) -> VarianceState {
        self.empty_state()
    }

    #[inline]
    fn active_insert(&self, active: &mut VarianceState, value: &T) {
        Variance::<T>::sample().insert(active, value);
    }

    #[inline]
    fn active_remove(&self, active: &mut VarianceState, value: &T) {
        variance_remove(active, value.to_f64());
    }

    #[inline]
    fn active_output(&self, active: &VarianceState) -> Option<f64> {
        self.finish(active)
    }

    fn sweep_class(&self) -> SweepClass {
        SweepClass::Approximate
    }
}

impl<A: SweepAggregate, B: SweepAggregate> SweepAggregate for (A, B) {
    type Active = (A::Active, B::Active);

    fn active_empty(&self) -> Self::Active {
        (self.0.active_empty(), self.1.active_empty())
    }

    #[inline]
    fn active_insert(&self, active: &mut Self::Active, value: &Self::Input) {
        self.0.active_insert(&mut active.0, &value.0);
        self.1.active_insert(&mut active.1, &value.1);
    }

    #[inline]
    fn active_remove(&self, active: &mut Self::Active, value: &Self::Input) {
        self.0.active_remove(&mut active.0, &value.0);
        self.1.active_remove(&mut active.1, &value.1);
    }

    fn active_output(&self, active: &Self::Active) -> Self::Output {
        (
            self.0.active_output(&active.0),
            self.1.active_output(&active.1),
        )
    }

    fn sweep_class(&self) -> SweepClass {
        self.0.sweep_class().max(self.1.sweep_class())
    }

    fn active_reserve(&self, active: &mut Self::Active, slots: usize) {
        self.0.active_reserve(&mut active.0, slots);
        self.1.active_reserve(&mut active.1, slots);
    }

    #[inline]
    fn active_insert_slot(&self, active: &mut Self::Active, slot: usize, value: &Self::Input) {
        self.0.active_insert_slot(&mut active.0, slot, &value.0);
        self.1.active_insert_slot(&mut active.1, slot, &value.1);
    }

    #[inline]
    fn active_remove_slot(&self, active: &mut Self::Active, slot: usize, value: &Self::Input) {
        self.0.active_remove_slot(&mut active.0, slot, &value.0);
        self.1.active_remove_slot(&mut active.1, slot, &value.1);
    }
}

impl<A: SweepAggregate, B: SweepAggregate, C: SweepAggregate> SweepAggregate for (A, B, C) {
    type Active = (A::Active, B::Active, C::Active);

    fn active_empty(&self) -> Self::Active {
        (
            self.0.active_empty(),
            self.1.active_empty(),
            self.2.active_empty(),
        )
    }

    #[inline]
    fn active_insert(&self, active: &mut Self::Active, value: &Self::Input) {
        self.0.active_insert(&mut active.0, &value.0);
        self.1.active_insert(&mut active.1, &value.1);
        self.2.active_insert(&mut active.2, &value.2);
    }

    #[inline]
    fn active_remove(&self, active: &mut Self::Active, value: &Self::Input) {
        self.0.active_remove(&mut active.0, &value.0);
        self.1.active_remove(&mut active.1, &value.1);
        self.2.active_remove(&mut active.2, &value.2);
    }

    fn active_output(&self, active: &Self::Active) -> Self::Output {
        (
            self.0.active_output(&active.0),
            self.1.active_output(&active.1),
            self.2.active_output(&active.2),
        )
    }

    fn sweep_class(&self) -> SweepClass {
        self.0
            .sweep_class()
            .max(self.1.sweep_class())
            .max(self.2.sweep_class())
    }

    fn active_reserve(&self, active: &mut Self::Active, slots: usize) {
        self.0.active_reserve(&mut active.0, slots);
        self.1.active_reserve(&mut active.1, slots);
        self.2.active_reserve(&mut active.2, slots);
    }

    #[inline]
    fn active_insert_slot(&self, active: &mut Self::Active, slot: usize, value: &Self::Input) {
        self.0.active_insert_slot(&mut active.0, slot, &value.0);
        self.1.active_insert_slot(&mut active.1, slot, &value.1);
        self.2.active_insert_slot(&mut active.2, slot, &value.2);
    }

    #[inline]
    fn active_remove_slot(&self, active: &mut Self::Active, slot: usize, value: &Self::Input) {
        self.0.active_remove_slot(&mut active.0, slot, &value.0);
        self.1.active_remove_slot(&mut active.1, slot, &value.1);
        self.2.active_remove_slot(&mut active.2, slot, &value.2);
    }
}

/// Retractable running state of one [`DynAggregate`].
#[derive(Clone, Debug, PartialEq)]
pub enum DynActive {
    Count(u64),
    Distinct(BTreeMap<Value, u64>),
    SumInt { sum: i64, count: u64 },
    SumFloat { sum: f64, count: u64 },
    Min(BTreeMap<Value, u64>),
    Max(BTreeMap<Value, u64>),
    Avg(AvgState),
    Var(VarianceState),
}

impl DynAggregate {
    /// The sweep class of this aggregate given its kind and column type.
    pub fn sweep_class_of(&self) -> SweepClass {
        match self.kind() {
            AggKind::CountStar | AggKind::Count => SweepClass::Delta,
            AggKind::CountDistinct | AggKind::Min | AggKind::Max => SweepClass::Ordered,
            AggKind::Sum | AggKind::Avg => {
                if self.input_type() == tempagg_core::ValueType::Int {
                    SweepClass::Delta
                } else {
                    SweepClass::Approximate
                }
            }
            AggKind::Variance | AggKind::StdDev => SweepClass::Approximate,
        }
    }
}

impl SweepAggregate for DynAggregate {
    type Active = DynActive;

    fn active_empty(&self) -> DynActive {
        match self.kind() {
            AggKind::CountStar | AggKind::Count => DynActive::Count(0),
            AggKind::CountDistinct => DynActive::Distinct(BTreeMap::new()),
            AggKind::Sum => match self.input_type() {
                tempagg_core::ValueType::Int => DynActive::SumInt { sum: 0, count: 0 },
                _ => DynActive::SumFloat { sum: 0.0, count: 0 },
            },
            AggKind::Min => DynActive::Min(BTreeMap::new()),
            AggKind::Max => DynActive::Max(BTreeMap::new()),
            AggKind::Avg => DynActive::Avg(AvgState { sum: 0.0, count: 0 }),
            AggKind::Variance | AggKind::StdDev => DynActive::Var(VarianceState {
                count: 0,
                mean: 0.0,
                m2: 0.0,
            }),
        }
    }

    fn active_insert(&self, active: &mut DynActive, value: &Value) {
        if value.is_null() && self.kind() != AggKind::CountStar {
            return;
        }
        match active {
            DynActive::Count(c) => *c += 1,
            DynActive::Distinct(set) | DynActive::Min(set) | DynActive::Max(set) => {
                multiset_insert(set, value);
            }
            DynActive::SumInt { sum, count } => {
                if let Some(v) = value.as_i64() {
                    *sum = sum.saturating_add(v);
                    *count += 1;
                }
            }
            DynActive::SumFloat { sum, count } => {
                if let Some(v) = value.as_f64() {
                    *sum += v;
                    *count += 1;
                }
            }
            DynActive::Avg(a) => {
                if let Some(v) = value.as_f64() {
                    a.sum += v;
                    a.count += 1;
                }
            }
            DynActive::Var(s) => {
                if let Some(v) = value.as_f64() {
                    let var: Variance<f64> = Variance::sample();
                    var.insert(s, &v);
                }
            }
        }
    }

    fn active_remove(&self, active: &mut DynActive, value: &Value) {
        if value.is_null() && self.kind() != AggKind::CountStar {
            return;
        }
        match active {
            DynActive::Count(c) => *c = c.saturating_sub(1),
            DynActive::Distinct(set) | DynActive::Min(set) | DynActive::Max(set) => {
                multiset_remove(set, value);
            }
            DynActive::SumInt { sum, count } => {
                if let Some(v) = value.as_i64() {
                    *sum = sum.saturating_sub(v);
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        *sum = 0;
                    }
                }
            }
            DynActive::SumFloat { sum, count } => {
                if let Some(v) = value.as_f64() {
                    *sum -= v;
                    *count = count.saturating_sub(1);
                    if *count == 0 {
                        *sum = 0.0;
                    }
                }
            }
            DynActive::Avg(a) => {
                if let Some(v) = value.as_f64() {
                    a.sum -= v;
                    a.count = a.count.saturating_sub(1);
                    if a.count == 0 {
                        a.sum = 0.0;
                    }
                }
            }
            DynActive::Var(s) => {
                if let Some(v) = value.as_f64() {
                    variance_remove(s, v);
                }
            }
        }
    }

    fn active_output(&self, active: &DynActive) -> Value {
        match active {
            DynActive::Count(c) => Value::Int(i64::try_from(*c).unwrap_or(i64::MAX)),
            DynActive::Distinct(set) => Value::Int(i64::try_from(set.len()).unwrap_or(i64::MAX)),
            DynActive::SumInt { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Int(*sum)
                }
            }
            DynActive::SumFloat { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float(*sum)
                }
            }
            DynActive::Min(set) => set.keys().next().cloned().unwrap_or(Value::Null),
            DynActive::Max(set) => set.keys().next_back().cloned().unwrap_or(Value::Null),
            DynActive::Avg(a) => {
                if a.count == 0 {
                    Value::Null
                } else {
                    // lint: allow(no-as-cast): tuple counts are far below 2^53, so the u64 → f64 divisor is exact
                    Value::Float(a.sum / a.count as f64)
                }
            }
            DynActive::Var(s) => {
                let var: Variance<f64> = Variance::sample();
                match var.finish(s) {
                    Some(x) if self.kind() == AggKind::StdDev => Value::Float(x.sqrt()),
                    Some(x) => Value::Float(x),
                    None => Value::Null,
                }
            }
        }
    }

    fn sweep_class(&self) -> SweepClass {
        self.sweep_class_of()
    }
}

impl SweepAggregate for MultiDyn {
    type Active = Vec<DynActive>;

    fn active_empty(&self) -> Vec<DynActive> {
        self.members()
            .iter()
            .map(DynAggregate::active_empty)
            .collect()
    }

    #[inline]
    fn active_insert(&self, active: &mut Vec<DynActive>, value: &Vec<Value>) {
        debug_assert_eq!(active.len(), value.len());
        for ((member, a), v) in self.members().iter().zip(active).zip(value) {
            member.active_insert(a, v);
        }
    }

    #[inline]
    fn active_remove(&self, active: &mut Vec<DynActive>, value: &Vec<Value>) {
        debug_assert_eq!(active.len(), value.len());
        for ((member, a), v) in self.members().iter().zip(active).zip(value) {
            member.active_remove(a, v);
        }
    }

    fn active_output(&self, active: &Vec<DynActive>) -> Vec<Value> {
        self.members()
            .iter()
            .zip(active)
            .map(|(m, a)| m.active_output(a))
            .collect()
    }

    /// The weakest class among members: one approximate member keeps the
    /// whole product off the sweep.
    fn sweep_class(&self) -> SweepClass {
        self.members()
            .iter()
            .map(DynAggregate::sweep_class_of)
            .max()
            .unwrap_or(SweepClass::Delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempagg_core::ValueType;

    /// Replay `ops` (insert = true) against both the active state and a
    /// from-scratch recomputation of the live multiset; outputs must agree.
    fn check_against_recompute<A>(agg: &A, values: &[A::Input], removals: &[usize])
    where
        A: SweepAggregate,
        A::Input: Clone,
        A::Output: PartialEq + std::fmt::Debug,
    {
        let mut active = agg.active_empty();
        for v in values {
            agg.active_insert(&mut active, v);
        }
        let mut live: Vec<A::Input> = values.to_vec();
        let mut removed: Vec<usize> = removals.to_vec();
        removed.sort_unstable();
        for &i in removed.iter().rev() {
            agg.active_remove(&mut active, &live[i]);
            live.remove(i);
        }
        let mut state = agg.empty_state();
        for v in &live {
            agg.insert(&mut state, v);
        }
        assert_eq!(agg.active_output(&active), agg.finish(&state));
    }

    #[test]
    fn count_retracts_exactly() {
        check_against_recompute(&Count, &[(), (), (), ()], &[0, 2]);
        check_against_recompute(&Count, &[], &[]);
        assert_eq!(Count.sweep_class(), SweepClass::Delta);
    }

    #[test]
    fn sum_retracts_to_null_when_empty() {
        let agg: Sum<i64> = Sum::new();
        check_against_recompute(&agg, &[5, -3, 10], &[1]);
        check_against_recompute(&agg, &[5, -3], &[0, 1]);
        assert_eq!(agg.sweep_class(), SweepClass::Delta);
        let fagg: Sum<f64> = Sum::new();
        assert_eq!(fagg.sweep_class(), SweepClass::Approximate);
    }

    #[test]
    fn min_max_multiset_handles_duplicates() {
        let min: Min<i64> = Min::new();
        // Two copies of the minimum: removing one must keep it.
        check_against_recompute(&min, &[2, 2, 7], &[0]);
        check_against_recompute(&min, &[2, 2, 7], &[0, 1]);
        let max: Max<i64> = Max::new();
        check_against_recompute(&max, &[9, 9, 1], &[0]);
        assert_eq!(min.sweep_class(), SweepClass::Ordered);
    }

    #[test]
    fn avg_retracts_exactly_on_integers() {
        let agg: Avg<i64> = Avg::new();
        check_against_recompute(&agg, &[10, 20, 30], &[2]);
        check_against_recompute(&agg, &[10, 20], &[0, 1]);
        assert_eq!(agg.sweep_class(), SweepClass::Delta);
    }

    #[test]
    fn distinct_counts_live_values() {
        let agg: CountDistinct<i64> = CountDistinct::new();
        check_against_recompute(&agg, &[1, 1, 2, 3], &[0]);
        check_against_recompute(&agg, &[1, 1, 2, 3], &[0, 1]);
    }

    #[test]
    fn bools_track_counters() {
        check_against_recompute(&BoolAnd, &[true, false, true], &[1]);
        check_against_recompute(&BoolOr, &[false, true], &[1]);
        check_against_recompute(&BoolAnd, &[true], &[0]);
    }

    #[test]
    fn variance_retraction_is_close() {
        let agg: Variance<f64> = Variance::sample();
        let mut active = agg.active_empty();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            agg.active_insert(&mut active, &x);
        }
        agg.active_remove(&mut active, &9.0);
        agg.active_remove(&mut active, &2.0);
        let mut state = agg.empty_state();
        for x in [4.0, 4.0, 4.0, 5.0, 5.0, 7.0] {
            agg.insert(&mut state, &x);
        }
        let (got, want) = (
            agg.active_output(&active).unwrap(),
            agg.finish(&state).unwrap(),
        );
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        assert_eq!(agg.sweep_class(), SweepClass::Approximate);
    }

    #[test]
    fn tuple_products_sweep_member_wise() {
        let agg = (Count, Sum::<i64>::new());
        check_against_recompute(&agg, &[((), 4), ((), 6)], &[0]);
        assert_eq!(agg.sweep_class(), SweepClass::Delta);
        let trio = (Count, Min::<i64>::new(), Avg::<f64>::new());
        assert_eq!(trio.sweep_class(), SweepClass::Approximate);
    }

    #[test]
    fn dyn_aggregate_skips_nulls_symmetrically() {
        let agg = DynAggregate::new(AggKind::Sum, ValueType::Int).unwrap();
        let mut active = agg.active_empty();
        agg.active_insert(&mut active, &Value::Int(5));
        agg.active_insert(&mut active, &Value::Null);
        agg.active_remove(&mut active, &Value::Null);
        assert_eq!(agg.active_output(&active), Value::Int(5));
        agg.active_remove(&mut active, &Value::Int(5));
        assert_eq!(agg.active_output(&active), Value::Null);
    }

    #[test]
    fn dyn_classes() {
        let class = |kind, ty| DynAggregate::new(kind, ty).unwrap().sweep_class_of();
        assert_eq!(class(AggKind::Count, ValueType::Int), SweepClass::Delta);
        assert_eq!(class(AggKind::Sum, ValueType::Int), SweepClass::Delta);
        assert_eq!(
            class(AggKind::Sum, ValueType::Float),
            SweepClass::Approximate
        );
        assert_eq!(class(AggKind::Min, ValueType::Str), SweepClass::Ordered);
        assert_eq!(
            class(AggKind::StdDev, ValueType::Float),
            SweepClass::Approximate
        );
    }

    #[test]
    fn multidyn_sweeps_all_members() {
        let multi = MultiDyn::new(vec![
            DynAggregate::new(AggKind::Count, ValueType::Int).unwrap(),
            DynAggregate::new(AggKind::Max, ValueType::Int).unwrap(),
        ]);
        let mut active = multi.active_empty();
        multi.active_insert(&mut active, &vec![Value::Int(1), Value::Int(5)]);
        multi.active_insert(&mut active, &vec![Value::Int(1), Value::Int(9)]);
        multi.active_remove(&mut active, &vec![Value::Int(1), Value::Int(9)]);
        assert_eq!(
            multi.active_output(&active),
            vec![Value::Int(1), Value::Int(5)]
        );
        assert_eq!(multi.sweep_class(), SweepClass::Ordered);
    }
}
