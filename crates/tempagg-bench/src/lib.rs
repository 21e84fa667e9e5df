//! # tempagg-bench
//!
//! Shared machinery for the figure-regeneration harness (`harness` binary)
//! and the timing micro-benchmarks under `benches/`: named algorithm
//! configurations, timed single runs, and multi-seed medians.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod timing;

use std::time::{Duration, Instant};
use tempagg_agg::{Count, SweepAggregate};
use tempagg_algo::{
    AggregationTree, BalancedAggregationTree, KOrderedAggregationTree, LinkedListAggregate,
    MemoryStats, SweepAggregator, TemporalAggregator, TwoScanAggregate,
};
use tempagg_core::Interval;
use tempagg_workload::{generate, TupleOrder, WorkloadConfig};

/// One algorithm configuration, as named in the paper's figure legends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AlgoConfig {
    /// "Linked List".
    LinkedList,
    /// "Aggregation Tree".
    AggregationTree,
    /// "Ktree K=k" — run on the input as given (must be k-ordered).
    KTree { k: usize },
    /// "Ktree, sorted relation, K=1" — input is pre-sorted by the caller.
    KTreeSorted,
    /// Two-scan baseline (Tuma).
    TwoScan,
    /// Balanced aggregation tree (future-work ablation).
    Balanced,
    /// Columnar endpoint sweep (beyond the paper).
    Sweep,
}

impl AlgoConfig {
    pub fn label(&self) -> String {
        match self {
            AlgoConfig::LinkedList => "Linked List".into(),
            AlgoConfig::AggregationTree => "Aggregation Tree".into(),
            AlgoConfig::KTree { k } => format!("Ktree K={k}"),
            AlgoConfig::KTreeSorted => "Ktree sorted K=1".into(),
            AlgoConfig::TwoScan => "Two-scan (Tuma)".into(),
            AlgoConfig::Balanced => "Balanced Tree".into(),
            AlgoConfig::Sweep => "Endpoint Sweep".into(),
        }
    }
}

/// Result of one timed run.
#[derive(Clone, Copy, Debug)]
pub struct RunMeasurement {
    pub elapsed: Duration,
    pub memory: MemoryStats,
    pub result_rows: usize,
}

/// Run any [`SweepAggregate`] with the given configuration over
/// `(interval, input)` tuples, timing the scan + finish. The
/// `SweepAggregate` bound (every aggregate in the workspace carries it)
/// lets the same entry point drive the endpoint sweep alongside the
/// paper's tree- and list-based algorithms.
pub fn run_agg<A>(config: AlgoConfig, agg: A, tuples: &[(Interval, A::Input)]) -> RunMeasurement
where
    A: SweepAggregate,
    A::Input: Clone + Send,
{
    fn drive<A: SweepAggregate, G: TemporalAggregator<A>>(
        mut aggregator: G,
        tuples: &[(Interval, A::Input)],
    ) -> RunMeasurement
    where
        A::Input: Clone,
    {
        let started = Instant::now();
        for (iv, v) in tuples {
            aggregator
                .push(*iv, v.clone())
                // lint: allow(no-unwrap): measurement must abort on a misconfigured scenario, not skew timings with handling
                .expect("benchmark tuples fit the configuration");
        }
        let memory = aggregator.memory();
        let series = aggregator.finish();
        RunMeasurement {
            elapsed: started.elapsed(),
            memory,
            result_rows: series.len(),
        }
    }
    match config {
        AlgoConfig::LinkedList => drive(LinkedListAggregate::new(agg), tuples),
        AlgoConfig::AggregationTree => drive(AggregationTree::new(agg), tuples),
        AlgoConfig::KTree { k } => drive(
            // lint: allow(no-unwrap): scenario configs only carry k >= 1
            KOrderedAggregationTree::new(agg, k).expect("k >= 1"),
            tuples,
        ),
        AlgoConfig::KTreeSorted => drive(
            // lint: allow(no-unwrap): k = 1 always satisfies the constructor
            KOrderedAggregationTree::new(agg, 1).expect("k = 1 is valid"),
            tuples,
        ),
        AlgoConfig::TwoScan => drive(TwoScanAggregate::new(agg), tuples),
        AlgoConfig::Balanced => drive(BalancedAggregationTree::new(agg), tuples),
        AlgoConfig::Sweep => drive(SweepAggregator::new(agg), tuples),
    }
}

/// Run `COUNT` with the given configuration over `(interval, ())` tuples,
/// timing the scan + finish.
pub fn run_count(config: AlgoConfig, tuples: &[(Interval, ())]) -> RunMeasurement {
    run_agg(config, Count, tuples)
}

/// The input ordering each configuration expects, given the experiment's
/// base ordering parameters.
pub fn workload_for(
    config: AlgoConfig,
    tuples: usize,
    long_lived_pct: u8,
    k_pct: f64,
    seed: u64,
) -> WorkloadConfig {
    let order = match config {
        // Figures 7–9 run the list and the plain tree on *ordered*
        // relations, the k-trees on k-ordered ones, and "Ktree sorted" on
        // an ordered relation.
        AlgoConfig::KTree { k } => TupleOrder::KOrdered {
            k,
            percentage: k_pct,
        },
        _ => TupleOrder::Sorted,
    };
    WorkloadConfig {
        tuples,
        long_lived_pct,
        order,
        seed,
        ..Default::default()
    }
}

/// Project a relation's intervals into the `COUNT` input form.
pub fn count_tuples(config: &WorkloadConfig) -> Vec<(Interval, ())> {
    generate(config).intervals().map(|iv| (iv, ())).collect()
}

/// Median elapsed time (and the matching measurement) over several seeds.
pub fn median_over_seeds(
    config: AlgoConfig,
    make_workload: impl Fn(u64) -> WorkloadConfig,
    seeds: u64,
) -> RunMeasurement {
    assert!(seeds > 0);
    let mut runs: Vec<RunMeasurement> = (0..seeds)
        .map(|s| run_count(config, &count_tuples(&make_workload(s + 1))))
        .collect();
    runs.sort_by_key(|m| m.elapsed);
    runs[runs.len() / 2]
}

/// Paper-style size sweep: 1K, 2K, …, `max` tuples.
pub fn size_sweep(max: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut n = 1024usize;
    while n <= max {
        sizes.push(n);
        n *= 2;
    }
    sizes
}

/// Format a duration in seconds with engineering-friendly precision.
pub fn secs(d: Duration) -> String {
    format!("{:.6}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_sweep_doubles() {
        assert_eq!(size_sweep(8192), vec![1024, 2048, 4096, 8192]);
        assert_eq!(size_sweep(1000), Vec::<usize>::new());
    }

    #[test]
    fn run_count_produces_rows_for_all_configs() {
        let workload = WorkloadConfig::sorted(256);
        let tuples = count_tuples(&workload);
        for config in [
            AlgoConfig::LinkedList,
            AlgoConfig::AggregationTree,
            AlgoConfig::KTreeSorted,
            AlgoConfig::TwoScan,
            AlgoConfig::Balanced,
            AlgoConfig::Sweep,
        ] {
            let m = run_count(config, &tuples);
            assert!(m.result_rows > 100, "{config:?} rows {}", m.result_rows);
            assert!(m.memory.peak_nodes > 0);
        }
        // KTree over a k-ordered input.
        let kw = workload_for(AlgoConfig::KTree { k: 8 }, 256, 0, 0.08, 1);
        let ktuples = count_tuples(&kw);
        let m = run_count(AlgoConfig::KTree { k: 8 }, &ktuples);
        assert!(m.result_rows > 100);
    }

    #[test]
    fn all_configs_agree_on_row_counts() {
        let workload = WorkloadConfig::sorted(512);
        let tuples = count_tuples(&workload);
        let rows: Vec<usize> = [
            AlgoConfig::LinkedList,
            AlgoConfig::AggregationTree,
            AlgoConfig::KTreeSorted,
            AlgoConfig::TwoScan,
            AlgoConfig::Balanced,
            AlgoConfig::Sweep,
        ]
        .iter()
        .map(|&c| run_count(c, &tuples).result_rows)
        .collect();
        assert!(rows.windows(2).all(|w| w[0] == w[1]), "rows {rows:?}");
    }

    #[test]
    fn median_is_deterministic_in_workload() {
        let m = median_over_seeds(
            AlgoConfig::AggregationTree,
            |seed| WorkloadConfig::random(256).with_seed(seed),
            3,
        );
        assert!(m.result_rows > 0);
    }

    #[test]
    fn labels() {
        assert_eq!(AlgoConfig::KTree { k: 40 }.label(), "Ktree K=40");
        assert_eq!(AlgoConfig::KTreeSorted.label(), "Ktree sorted K=1");
        assert_eq!(AlgoConfig::Sweep.label(), "Endpoint Sweep");
    }

    #[test]
    fn run_agg_drives_value_aggregates_through_every_config() {
        let relation = generate(&WorkloadConfig::random(256).with_seed(9));
        // lint: allow(no-unwrap): the workload generator always emits a salary column
        let idx = relation.schema().index_of("salary").expect("salary column");
        let tuples: Vec<(Interval, i64)> = relation
            .iter()
            // lint: allow(no-unwrap): generated salaries are always integers
            .map(|t| (t.valid(), t.value(idx).as_i64().expect("int salary")))
            .collect();
        let rows: Vec<usize> = [
            AlgoConfig::LinkedList,
            AlgoConfig::AggregationTree,
            AlgoConfig::TwoScan,
            AlgoConfig::Balanced,
            AlgoConfig::Sweep,
        ]
        .iter()
        .map(|&c| run_agg(c, tempagg_agg::Sum::<i64>::new(), &tuples).result_rows)
        .collect();
        assert!(rows[0] > 100);
        assert!(rows.windows(2).all(|w| w[0] == w[1]), "rows {rows:?}");
        let m = run_agg(AlgoConfig::Sweep, tempagg_agg::Min::<i64>::new(), &tuples);
        assert_eq!(m.result_rows, rows[0]);
    }
}
