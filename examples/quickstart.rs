//! Quick start: compute a temporal aggregate three ways.
//!
//! Reproduces the paper's running example — `SELECT COUNT(Name) FROM
//! Employed` over the Figure 1 relation — with the low-level algorithm API,
//! the automatic planner, and the SQL front end, and shows the aggregation
//! tree being built step by step (Figure 3).
//!
//! Run with: `cargo run --example quickstart`

use std::time::Instant;
use temporal_aggregates::prelude::*;
use temporal_aggregates::workload::employed::{employed_relation, employed_tuples};

fn main() -> temporal_aggregates::Result<()> {
    // ── 1. The low-level API: build the aggregation tree by hand. ──────
    println!("== Aggregation tree, step by step (Figure 3) ==\n");
    let mut tree = AggregationTree::new(Count);
    println!("initial tree:\n{}", tree.render());
    for (name, _salary, valid) in employed_tuples() {
        tree.push(valid, ())?;
        println!("after inserting {name} {valid}:\n{}", tree.render());
    }

    println!("== Result: COUNT per constant interval (Table 1) ==\n");
    let result = tree.finish();
    for entry in &result {
        println!("  {:<10} {}", entry.interval.to_string(), entry.value);
    }

    // ── 2. The planner: let Section 6.3's rules pick the algorithm. ────
    println!("\n== Automatic algorithm selection ==\n");
    let relation = employed_relation();
    let started = Instant::now();
    let (series, plan, report) = evaluate_auto(
        Count,
        &relation,
        |_| (),
        &PlannerConfig::default(),
        Interval::TIMELINE,
    )?;
    let elapsed = started.elapsed();
    println!("{plan}");
    println!(
        "ran `{}` over {} tuples in {:?}, peak state {} bytes, {} rows\n",
        report.algorithm,
        report.tuples,
        elapsed,
        report.memory.peak_model_bytes(),
        series.len()
    );

    // ── 3. SQL: the paper's TSQL2 query. ────────────────────────────────
    println!("== SQL ==\n");
    let mut catalog = Catalog::new();
    catalog.register("Employed", employed_relation());
    let result = execute_str(&catalog, "SELECT COUNT(Name) FROM Employed E")?;
    println!("{result}");
    Ok(())
}
