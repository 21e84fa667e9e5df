//! # tempagg-plan
//!
//! Query planning for temporal aggregates, reproducing the optimizer
//! strategy of Section 6.3 of *Computing Temporal Aggregates* (Kline &
//! Snodgrass, ICDE 1995): choose between the linked list, the aggregation
//! tree, and the k-ordered aggregation tree from the relation's size,
//! sortedness (or a retroactively-bounded declaration), long-lived-tuple
//! fraction, expected result size, and the memory-vs-I/O trade-off — then
//! execute the chosen plan.
//!
//! Beyond the paper, [`choose_algorithm`] adds the columnar endpoint-sweep
//! kernel as a fourth candidate, selected by a [`CostModel`] whose
//! per-algorithm constants are *calibrated* from measured per-unit costs
//! (a [`Calibration`] profile produced by the bench harness' `calibrate`
//! command) and gated on the aggregate's retraction class
//! ([`SweepClass`]).

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod cost;
mod executor;
mod planner;
mod stats;

pub use cost::{
    choose_algorithm, choose_window_algorithm, estimate, plan_by_cost, plan_join, Calibration,
    CostEstimate, CostModel,
};
pub use executor::{
    evaluate_auto, execute, execute_chunks, execute_chunks_into, execute_chunks_streaming,
    execute_streaming, CacheReport, ExecutionReport,
};
pub use planner::{
    choose_parallelism, estimate_ktree_nodes, estimate_list_cells, estimate_tree_nodes, plan,
    AlgorithmChoice, Plan, PlannerConfig,
};
pub use stats::{CachedSeriesInfo, OrderingKnowledge, RelationStats};
pub use tempagg_agg::SweepClass;
pub use tempagg_algo::PartitionReport;
