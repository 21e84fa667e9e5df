//! Employment history analytics — the paper's motivating domain.
//!
//! A company keeps an `Employed(name, dept, salary)` relation with
//! valid-time intervals and asks time-varying questions: how many people
//! were employed at each moment, what was the payroll, the average salary
//! per department, and per-quarter head counts.
//!
//! Run with: `cargo run --example employment_history`

use std::sync::Arc;
use std::time::Instant;
use temporal_aggregates::prelude::*;
use temporal_aggregates::{Schema, ValueType};

fn build_relation() -> TemporalRelation {
    let schema: Arc<Schema> = Schema::of(&[
        ("name", ValueType::Str),
        ("dept", ValueType::Str),
        ("salary", ValueType::Int),
    ]);
    let mut r = TemporalRelation::new(schema);
    // (name, dept, salary, hired, left); 0 = company founding day,
    // instants are days, 720 = "today" (still employed → 720).
    let people: &[(&str, &str, i64, i64, i64)] = &[
        ("Richard", "Research", 40_000, 18, 720),
        ("Karen", "Research", 45_000, 8, 20),
        ("Nathan", "Engineering", 35_000, 7, 12),
        ("Nathan", "Engineering", 37_000, 18, 21),
        ("Ilsoo", "Engineering", 52_000, 30, 400),
        ("Suchen", "Research", 61_000, 45, 500),
        ("Curtis", "Sales", 38_000, 60, 720),
        ("Mike", "Sales", 41_000, 90, 240),
        ("Andrey", "Engineering", 58_000, 120, 720),
        ("Sampath", "Research", 66_000, 150, 650),
    ];
    for &(name, dept, salary, hired, left) in people {
        r.push(
            vec![Value::from(name), Value::from(dept), Value::Int(salary)],
            Interval::at(hired, left),
        )
        .unwrap();
    }
    r
}

fn main() -> temporal_aggregates::Result<()> {
    let relation = build_relation();
    let mut catalog = Catalog::new();
    catalog.register("Employed", relation.clone());

    println!("== Head count over time (coalesced constant intervals) ==\n");
    let result = execute_str(&catalog, "SELECT COUNT(*) FROM Employed")?;
    println!("{result}");

    println!("== Payroll: SUM, AVG, MIN, MAX of salary while 3+ employed ==\n");
    let result = execute_str(
        &catalog,
        "SELECT COUNT(name), SUM(salary), AVG(salary), MIN(salary), MAX(salary) \
         FROM Employed WHERE VALID OVERLAPS [100, 300]",
    )?;
    println!("{result}");

    println!("== Average salary per department over time (GROUP BY) ==\n");
    let result = execute_str(
        &catalog,
        "SELECT AVG(salary), COUNT(name) FROM Employed \
         WHERE VALID OVERLAPS [0, 720] GROUP BY dept",
    )?;
    println!("{result}");

    println!("== Head count per quarter (span grouping, 90-day spans) ==\n");
    let result = execute_str(
        &catalog,
        "SELECT COUNT(name) FROM Employed WHERE VALID OVERLAPS [0, 719] GROUP BY SPAN 90",
    )?;
    println!("{result}");

    println!("== Low-level: time-varying payroll with the k-ordered tree ==\n");
    // The relation is (almost) sorted by hire date; the planner notices.
    let stats = RelationStats::analyze(&relation);
    let the_plan = plan(&stats, &PlannerConfig::default(), 4);
    println!("{the_plan}");
    let salary_idx = relation.schema().index_of("salary")?;
    let started = Instant::now();
    let (series, report) = temporal_aggregates::execute(
        &the_plan,
        Sum::<i64>::new(),
        &relation,
        |t| t.value(salary_idx).as_i64().unwrap(),
        Interval::TIMELINE,
    )?;
    let elapsed = started.elapsed();
    for e in series.iter().filter(|e| e.value.is_some()) {
        println!(
            "  {:<12} payroll {}",
            e.interval.to_string(),
            e.value.unwrap()
        );
    }
    println!(
        "\n({} rows from `{}` in {:?})",
        report.result_rows, report.algorithm, elapsed
    );
    Ok(())
}
