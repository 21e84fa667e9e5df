//! `tempagg` — command-line front end for the temporal-aggregates library.
//!
//! ```text
//! tempagg gen   --out data.rel [--tuples N] [--order random|sorted|k=K,PCT|retro=D]
//!               [--long-lived P] [--lifespan L] [--seed S]
//! tempagg stats --in data.rel
//! tempagg query --in data.rel 'SELECT COUNT(name) FROM data'
//! tempagg repl  [--in data.rel]
//! ```
//!
//! `gen` writes a `.tapg` paged columnar file (`tempagg_core::pager`);
//! `stats` prints the Section 5.2 sortedness metrics and the Section 6.3
//! plan for the file;
//! `query` registers the file as relation `data` and runs one statement;
//! `repl` opens the interactive shell.

use std::io::{self, BufRead, Write};
use std::path::Path;
use std::process::ExitCode;
use temporal_aggregates::prelude::*;
use temporal_aggregates::sortedness;
use temporal_aggregates::sql::{execute_statement, StatementOutput};
use temporal_aggregates::workload::{generate, storage, TupleOrder, WorkloadConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage("missing command");
    };
    let result = match command.as_str() {
        "gen" => cmd_gen(rest),
        "stats" => cmd_stats(rest),
        "query" => cmd_query(rest),
        "repl" => cmd_repl(rest),
        "--help" | "-h" | "help" => {
            print_usage();
            Ok(())
        }
        other => {
            return usage(&format!("unknown command `{other}`"));
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Write to stdout, exiting quietly if the pipe closed (`tempagg … | head`
/// must not panic).
fn emit(text: impl std::fmt::Display) {
    use std::io::Write;
    let mut stdout = io::stdout();
    if write!(stdout, "{text}")
        .and_then(|()| stdout.flush())
        .is_err()
    {
        std::process::exit(0);
    }
}

fn emit_line(text: impl std::fmt::Display) {
    emit(format_args!("{text}\n"));
}

fn print_usage() {
    eprintln!(
        "usage:\n  tempagg gen   --out FILE [--tuples N] [--order random|sorted|k=K,PCT|retro=D]\n\
         \x20               [--long-lived P] [--lifespan L] [--seed S]\n\
         \x20 tempagg stats --in FILE\n\
         \x20 tempagg query --in FILE 'SQL STATEMENT'\n\
         \x20 tempagg repl  [--in FILE]"
    );
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    print_usage();
    ExitCode::FAILURE
}

/// Parsed command line: `--flag value` pairs plus positionals.
type Flags = Vec<(String, String)>;

/// Minimal `--flag value` parser; returns (flags, positionals).
fn parse_flags(args: &[String]) -> Result<(Flags, Vec<String>), String> {
    let mut flags = Vec::new();
    let mut positionals = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if let Some(name) = arg.strip_prefix("--") {
            let value = iter
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_owned(), value.clone()));
        } else {
            positionals.push(arg.clone());
        }
    }
    Ok((flags, positionals))
}

fn flag<'a>(flags: &'a [(String, String)], name: &str) -> Option<&'a str> {
    flags
        .iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.as_str())
}

fn parse_order(spec: &str) -> Result<TupleOrder, String> {
    if spec == "random" {
        return Ok(TupleOrder::Random);
    }
    if spec == "sorted" {
        return Ok(TupleOrder::Sorted);
    }
    if let Some(body) = spec.strip_prefix("k=") {
        let (k, pct) = body
            .split_once(',')
            .ok_or_else(|| format!("expected k=K,PCT, got `{spec}`"))?;
        return Ok(TupleOrder::KOrdered {
            k: k.parse().map_err(|e| format!("bad k: {e}"))?,
            percentage: pct.parse().map_err(|e| format!("bad percentage: {e}"))?,
        });
    }
    if let Some(delay) = spec.strip_prefix("retro=") {
        return Ok(TupleOrder::RetroactivelyBounded {
            max_delay: delay.parse().map_err(|e| format!("bad delay: {e}"))?,
        });
    }
    Err(format!("unknown order `{spec}`"))
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let (flags, positionals) = parse_flags(args)?;
    if !positionals.is_empty() {
        return Err(format!("unexpected argument `{}`", positionals[0]));
    }
    let out = flag(&flags, "out").ok_or("gen requires --out FILE")?;
    let mut config = WorkloadConfig {
        tuples: 4_096,
        ..Default::default()
    };
    if let Some(n) = flag(&flags, "tuples") {
        config.tuples = n.parse().map_err(|e| format!("bad --tuples: {e}"))?;
    }
    if let Some(order) = flag(&flags, "order") {
        config.order = parse_order(order)?;
    }
    if let Some(pct) = flag(&flags, "long-lived") {
        config.long_lived_pct = pct.parse().map_err(|e| format!("bad --long-lived: {e}"))?;
    }
    if let Some(lifespan) = flag(&flags, "lifespan") {
        config.lifespan = lifespan
            .parse()
            .map_err(|e| format!("bad --lifespan: {e}"))?;
    }
    if let Some(seed) = flag(&flags, "seed") {
        config.seed = seed.parse().map_err(|e| format!("bad --seed: {e}"))?;
    }
    config.validate()?;
    let relation = generate(&config);
    let stats = storage::write_relation(&relation, Path::new(out)).map_err(|e| e.to_string())?;
    emit_line(format_args!(
        "wrote {} tuples ({} bytes, {} pages) to {out}",
        stats.tuples, stats.file_bytes, stats.pages
    ));
    Ok(())
}

fn load(path: &str) -> Result<TemporalRelation, String> {
    storage::read_relation(Path::new(path)).map_err(|e| format!("{path}: {e}"))
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let input = flag(&flags, "in").ok_or("stats requires --in FILE")?;
    let relation = load(input)?;
    let intervals: Vec<Interval> = relation.intervals().collect();
    let report = sortedness::analyze(&intervals);
    emit_line(format_args!("tuples:               {}", report.n));
    if let Some(lifespan) = relation.lifespan() {
        emit_line(format_args!("lifespan:             {lifespan}"));
    }
    emit_line(format_args!("k-order:              {}", report.k_order));
    emit_line(format_args!(
        "k-ordered-percentage: {:.5} (at k = {})",
        report.percentage_at_k_order,
        report.k_order.max(1)
    ));
    emit_line(format_args!(
        "tuples displaced:     {:.1}%",
        100.0 * report.fraction_displaced
    ));

    let stats = RelationStats::analyze(&relation);
    emit_line(format_args!(
        "long-lived fraction:  {:.1}%",
        100.0 * stats.long_lived_fraction
    ));
    emit_line(format_args!(
        "\n{}",
        plan(&stats, &PlannerConfig::default(), 4)
    ));
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let (flags, positionals) = parse_flags(args)?;
    let input = flag(&flags, "in").ok_or("query requires --in FILE")?;
    let [sql] = positionals.as_slice() else {
        return Err("query requires exactly one SQL statement".into());
    };
    let mut catalog = Catalog::new();
    catalog.register("data", load(input)?);
    let output = execute_statement(&mut catalog, sql).map_err(|e| e.to_string())?;
    emit(output);
    Ok(())
}

fn cmd_repl(args: &[String]) -> Result<(), String> {
    let (flags, _) = parse_flags(args)?;
    let mut catalog = Catalog::new();
    if let Some(input) = flag(&flags, "in") {
        catalog.register("data", load(input)?);
    }
    catalog.register(
        "employed",
        temporal_aggregates::workload::employed::employed_relation(),
    );
    println!(
        "tempagg repl — relations: {:?} (\\q to quit)",
        catalog.names()
    );
    let stdin = io::stdin();
    loop {
        print!("tempagg> ");
        let _ = io::stdout().flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => return Err(e.to_string()),
        }
        let line = line.trim();
        match line {
            "" => continue,
            "\\q" | "quit" | "exit" => break,
            _ => match execute_statement(&mut catalog, line) {
                Ok(output) => {
                    print!("{output}");
                    if let StatementOutput::Rows(result) = &output {
                        if let Some(plan) = &result.plan {
                            if !result.explain_only {
                                println!("[{}]", plan.choice.name());
                            }
                        }
                    }
                    println!();
                }
                Err(e) => println!("error: {e}\n"),
            },
        }
    }
    Ok(())
}
