//! An interactive mini-TSQL2 shell over the paper's example data.
//!
//! Run with: `cargo run --example tsql_repl`
//!
//! ```text
//! tsql> SELECT COUNT(Name) FROM Employed
//! tsql> EXPLAIN SELECT COUNT(*) FROM Staff
//! tsql> SELECT COUNT(*) FROM Staff WHERE VALID OVERLAPS [0, 999] GROUP BY SPAN 250
//! tsql> CREATE TABLE projects (name STRING, budget INT)
//! tsql> INSERT INTO projects VALUES ('TSQL2', 100000) VALID [0, 365]
//! tsql> SELECT * FROM projects WHERE budget > 50000
//! tsql> \d            -- list relations
//! tsql> \q            -- quit
//! ```
//!
//! Also accepts queries on stdin non-interactively:
//! `echo 'SELECT COUNT(Name) FROM Employed' | cargo run --example tsql_repl`

use std::io::{self, BufRead, Write};
use temporal_aggregates::prelude::*;
use temporal_aggregates::sql::{execute_statement, StatementOutput};
use temporal_aggregates::workload::employed::employed_relation;
use temporal_aggregates::workload::{generate, WorkloadConfig};

fn build_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.register("Employed", employed_relation());
    // A larger synthetic relation for experimentation.
    catalog.register(
        "Staff",
        generate(&WorkloadConfig::random(2_000).with_lifespan(10_000)),
    );
    catalog
}

fn main() {
    let mut catalog = build_catalog();
    println!("mini-TSQL2 shell — relations: {:?}", catalog.names());
    println!("type a query, `\\d` to describe relations, `\\q` to quit\n");

    let stdin = io::stdin();
    let mut out = io::stdout();
    loop {
        print!("tsql> ");
        let _ = out.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "\\q" | "quit" | "exit" => break,
            "\\d" => {
                for name in catalog.names() {
                    // `store`, not `get`: a persisted table answers both
                    // from its file's header, without reading a page.
                    let s = catalog.store(name).expect("listed name exists");
                    println!("  {name}: {} tuples, schema {}", s.len(), s.schema());
                }
                continue;
            }
            _ => {}
        }
        match execute_statement(&mut catalog, line) {
            Ok(output) => {
                print!("{output}");
                if let StatementOutput::Rows(result) = &output {
                    if !result.explain_only {
                        match &result.plan {
                            Some(plan) => {
                                println!("[{} · {}]", result.path.name(), plan.choice.name());
                            }
                            None => println!("[{}]", result.path.name()),
                        }
                    }
                }
                println!();
            }
            Err(e) => println!("error: {e}\n"),
        }
    }
    println!("bye");
}
