//! The Section 6.3 optimizer in action.
//!
//! Generates the same logical relation in four physical orders — random,
//! sorted, k-ordered, retroactively bounded — and shows which algorithm the
//! planner picks for each, why, and what it costs when executed.
//!
//! Run with: `cargo run --release --example query_optimizer`

use std::time::Instant;
use temporal_aggregates::prelude::*;
use temporal_aggregates::workload::{generate, TupleOrder, WorkloadConfig};

fn show(label: &str, relation: &TemporalRelation, config: &PlannerConfig) {
    println!("── {label} ({} tuples) ──", relation.len());
    let started = Instant::now();
    let (series, plan, report) = evaluate_auto(Count, relation, |_| (), config, Interval::TIMELINE)
        .expect("evaluation succeeds");
    let elapsed = started.elapsed();
    print!("{plan}");
    println!(
        "executed: {} in {:?}; peak state {} nodes = {} bytes; {} constant intervals\n",
        report.algorithm,
        elapsed,
        report.memory.peak_nodes,
        report.memory.peak_model_bytes(),
        series.len()
    );
}

fn main() {
    let n = 8192;
    let config = PlannerConfig::default();

    let random = generate(&WorkloadConfig::random(n));
    show("randomly ordered", &random, &config);

    let sorted = generate(&WorkloadConfig::sorted(n));
    show("sorted by time", &sorted, &config);

    let k_ordered = generate(&WorkloadConfig::k_ordered(n, 40, 0.08));
    show("k-ordered (k = 40, 8% disorder)", &k_ordered, &config);

    let retro = generate(&WorkloadConfig {
        tuples: n,
        order: TupleOrder::RetroactivelyBounded { max_delay: 2_000 },
        ..Default::default()
    });
    show(
        "retroactively bounded arrival (≤ 2000-instant lag)",
        &retro,
        &config,
    );

    // The same unordered relation under a tight memory budget: the planner
    // switches from the aggregation tree to sort + k-ordered tree.
    println!("── randomly ordered, 64 KiB state budget ──");
    let tight = PlannerConfig {
        memory_budget_bytes: Some(64 * 1024),
        ..Default::default()
    };
    show("randomly ordered (tight budget)", &random, &tight);

    // A query that restricts the result to a handful of intervals: the
    // linked list wins (Section 6.3's "single year at day granularity").
    println!("── tiny expected result ──");
    let stats = RelationStats::analyze(&random).with_expected_result_intervals(12);
    let p = plan(&stats, &config, 4);
    print!("{p}");
}
