//! # temporal-aggregates
//!
//! A from-scratch reproduction of **“Computing Temporal Aggregates”**
//! (Nick Kline & Richard T. Snodgrass, ICDE 1995) as a production-quality
//! Rust library.
//!
//! Temporal aggregation asks, for an interval-timestamped relation, “what
//! is the aggregate value *at every point in time*?” The answer is a
//! sequence of **constant intervals** — maximal intervals over which the
//! set of overlapping tuples does not change. This crate provides the
//! paper's three algorithms plus the baselines and extensions it discusses:
//!
//! * [`LinkedListAggregate`] — the naive ordered-list algorithm (§4.2);
//! * [`AggregationTree`] — the incremental, unbalanced tree that excels on
//!   randomly ordered relations (§5.1);
//! * [`KOrderedAggregationTree`] — the aggregation tree with garbage
//!   collection for sorted / k-ordered / retroactively bounded relations,
//!   the paper's recommended strategy with `k = 1` after a sort (§5.3);
//! * [`TwoScanAggregate`] — Tuma's prior two-scan approach (§4.1);
//! * [`BalancedAggregationTree`] — the balanced variant from the paper's
//!   future-work list (§7);
//! * [`SweepAggregator`] — a columnar endpoint-sweep kernel (beyond the
//!   paper): buffer, one unstable sort, one branch-light scan — chosen by
//!   the cost model ([`choose_algorithm`]) for large unordered inputs;
//! * [`SpanGrouper`] / [`GroupedAggregate`] — span grouping and
//!   `GROUP BY` value grouping (§2);
//! * a cost-based algorithm selector implementing §6.3 ([`plan`],
//!   [`evaluate_auto`]);
//! * a mini-TSQL2 front end ([`execute_str`], [`Catalog`]);
//! * the §5.2 sortedness metrics ([`sortedness`]) and the §6 workload
//!   generators ([`workload`]).
//!
//! ## Quick start
//!
//! ```
//! use temporal_aggregates::prelude::*;
//!
//! // The paper's Employed relation (Figure 1).
//! let mut tree = AggregationTree::new(Count);
//! tree.push(Interval::from_start(18), ()).unwrap(); // Richard
//! tree.push(Interval::at(8, 20), ()).unwrap();      // Karen
//! tree.push(Interval::at(7, 12), ()).unwrap();      // Nathan
//! tree.push(Interval::at(18, 21), ()).unwrap();     // Nathan again
//!
//! // Table 1: COUNT grouped by instant, as constant intervals.
//! let result = tree.finish();
//! assert_eq!(result.len(), 7);
//! assert_eq!(result.value_at(Timestamp(19)), Some(&3));
//! ```
//!
//! Or in SQL:
//!
//! ```
//! use temporal_aggregates::prelude::*;
//! use temporal_aggregates::workload::employed::employed_relation;
//!
//! let mut catalog = Catalog::new();
//! catalog.register("Employed", employed_relation());
//! let result = execute_str(&catalog, "SELECT COUNT(Name) FROM Employed E").unwrap();
//! println!("{result}");
//! ```

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

/// The temporal data model: instants, intervals, values, relations, series.
pub mod core {
    pub use tempagg_core::*;
}

/// Aggregate functions as mergeable partial states.
pub mod agg {
    pub use tempagg_agg::*;
}

/// The paper's algorithms and extensions.
pub mod algo {
    pub use tempagg_algo::*;
}

/// The §6.3 query planner and executor.
pub mod planner {
    pub use tempagg_plan::*;
}

/// The mini-TSQL2 front end.
pub mod sql {
    pub use tempagg_sql::*;
}

/// The mutable temporal store: DML, incrementally maintained aggregate
/// caches, MVCC snapshot reads (DESIGN.md §13).
pub mod store {
    pub use tempagg_store::*;
}

/// The §6 workload generators and the paper's `Employed` example.
pub mod workload {
    pub use tempagg_workload::*;
}

/// The §5.2 sortedness metrics (k-order, k-ordered-percentage).
pub mod sortedness {
    pub use tempagg_core::sortedness::*;
}

// Curated top-level re-exports.
pub use tempagg_agg::{
    AggKind, Aggregate, Avg, Count, CountDistinct, DynAggregate, Max, Min, StdDev, Sum,
    SweepAggregate, SweepClass, Variance,
};
pub use tempagg_algo::{
    run, run_with_stats, scoped_map, AggregationTree, BalancedAggregationTree, GroupedAggregate,
    JoinPair, JoinPredicate, KOrderedAggregationTree, LinkedListAggregate, MemoryStats,
    PagedAggregationTree, PartitionReport, PartitionedAggregator, SpanGrouper, SweepAggregator,
    SweepJoinOperator, TemporalAggregator, TwoScanAggregate,
};
pub use tempagg_core::{
    BitemporalRelation, Calendar, Chunk, ChunkedSink, CountingSink, EventRelation, Interval,
    Result, RowValues, Schema, Series, SeriesEntry, SeriesSink, StitchSink, TempAggError,
    TemporalRelation, TimeUnit, Timestamp, Tuple, Value, ValueType, WindowAlignment,
    DEFAULT_CHUNK_CAPACITY,
};
pub use tempagg_plan::{
    choose_algorithm, choose_parallelism, evaluate_auto, execute, plan, AlgorithmChoice, CostModel,
    ExecutionReport, OrderingKnowledge, Plan, PlannerConfig, RelationStats,
};
pub use tempagg_sql::{
    execute_statement, execute_str, execute_streaming_str, CacheReport, Catalog, QueryResult,
    ResultRow, ResultRows, StatementOutput, StreamSummary,
};
pub use tempagg_store::{StoreCacheStats, TemporalStore};

/// Everything most programs need, in one import.
pub mod prelude {
    pub use crate::{
        evaluate_auto, execute_statement, execute_str, plan, Aggregate, AggregationTree,
        AlgorithmChoice, Avg, BalancedAggregationTree, Catalog, Chunk, ChunkedSink, Count,
        CountingSink, GroupedAggregate, Interval, KOrderedAggregationTree, LinkedListAggregate,
        Max, MemoryStats, Min, OrderingKnowledge, PagedAggregationTree, PartitionedAggregator,
        PlannerConfig, RelationStats, Series, SeriesSink, SpanGrouper, StitchSink, Sum,
        SweepAggregator, TemporalAggregator, TemporalRelation, TemporalStore, Timestamp,
        TwoScanAggregate, Value,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_works() {
        let mut tree = AggregationTree::new(Count);
        tree.push(Interval::at(0, 9), ()).unwrap();
        let s = tree.finish();
        assert_eq!(s.value_at(Timestamp(5)), Some(&1));
    }
}
