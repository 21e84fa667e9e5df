//! # tempagg-agg
//!
//! Aggregate functions for temporal aggregation, expressed as commutative
//! monoids over partial states so they can live at the internal nodes of an
//! aggregation tree (Kline & Snodgrass, ICDE 1995, Section 5.1).
//!
//! The paper's five aggregates — [`Count`], [`Sum`], [`Min`], [`Max`],
//! [`Avg`] — are provided, plus [`Variance`]/[`StdDev`] as extensions, and
//! a [`DynAggregate`] layer for queries configured at runtime (the SQL
//! front end): [`MultiDyn`] evaluates any select list in one pass, and
//! [`TypedMulti`] is its heap-free lowering for `INT`-column lists.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod active;
mod aggregate;
mod avg;
mod count;
mod distinct;
mod dynamic;
mod min_max;
mod multi;
mod slot_extremes;
mod sum;
mod typed;
mod variance;

pub use active::{DynActive, SweepAggregate, SweepClass};
pub use aggregate::{Aggregate, Numeric};
pub use avg::{Avg, AvgState};
pub use count::Count;
pub use distinct::CountDistinct;
pub use dynamic::{AggKind, DynAggregate, DynState};
pub use min_max::{Max, Min};
pub use multi::MultiDyn;
pub use slot_extremes::SlotExtremes;
pub use sum::Sum;
pub use typed::{TypedAcc, TypedActive, TypedInput, TypedMulti, TYPED_WIDTH};
pub use variance::{StdDev, Variance, VarianceKind, VarianceState};
