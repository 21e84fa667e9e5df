//! # tempagg-algo
//!
//! The temporal aggregation algorithms of *Computing Temporal Aggregates*
//! (Kline & Snodgrass, ICDE 1995), plus the baselines and extensions the
//! paper discusses:
//!
//! | Algorithm | Paper section | Best for |
//! |---|---|---|
//! | [`LinkedListAggregate`] | §4.2 | few constant intervals in the result |
//! | [`AggregationTree`] | §5.1 | unordered relations, memory plentiful |
//! | [`KOrderedAggregationTree`] | §5.3 | sorted / k-ordered / retroactively bounded relations |
//! | [`SweepAggregator`] | — (Piatov/Colley, see PAPERS.md) | large unsorted batches, invertible aggregates |
//! | [`TwoScanAggregate`] | §4.1 | baseline (Tuma's prior implementation) |
//! | [`BalancedAggregationTree`] | §7 (future work) | order-insensitive, buffered |
//! | [`PagedAggregationTree`] | §5.1 (limited memory) | memory-bounded: [`PartitionedAggregator`] finishing one region's tree at a time |
//! | [`SpanGrouper`] | §2, §7 | grouping by span instead of instant |
//! | [`GroupedAggregate`] | §2 | GROUP BY attribute × time |
//!
//! All algorithms implement [`TemporalAggregator`] and produce a
//! [`tempagg_core::Series`] of constant intervals. The [`oracle`] module
//! holds an O(n²) executable specification used to validate them, and the
//! `validate` cargo feature compiles in structural invariant checkers (see
//! the `validate` module) that every algorithm runs as it executes.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod agg_tree;
mod balanced;
mod group_by;
mod join;
mod ktree;
mod linked_list;
pub mod memory;
pub mod moving;
pub mod oracle;
mod paged;
pub mod parallel;
pub mod scan;
pub mod snapshot;
mod span_group;
mod sweep;
mod traits;
mod tree;
mod two_scan;
#[cfg(feature = "validate")]
pub mod validate;
pub mod windex;

pub use agg_tree::AggregationTree;
pub use balanced::BalancedAggregationTree;
pub use group_by::GroupedAggregate;
pub use join::{JoinPair, JoinPredicate, SweepJoinOperator};
pub use ktree::KOrderedAggregationTree;
pub use linked_list::LinkedListAggregate;
pub use memory::MemoryStats;
pub use paged::PagedAggregationTree;
pub use parallel::{scoped_map, PartitionReport, PartitionedAggregator};
pub use scan::{feed, feed_streaming, page_seams, run_paged_partitioned};
pub use span_group::SpanGrouper;
pub use sweep::SweepAggregator;
pub use traits::{run, run_with_stats, TemporalAggregator};
pub use two_scan::TwoScanAggregate;
pub use windex::{
    scan_window, top_k, GroupProbe, IndexMode, RunSource, TopKOutcome, WindowAggregate, WindowIndex,
};
