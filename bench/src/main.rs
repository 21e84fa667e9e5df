//! End-to-end benchmark of the temporal-aggregates engine: SQL text in,
//! rows out, on four workloads, with per-layer attribution from outside
//! the engine. See `bench/README.md`.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run; last line is the result
//! run.sh [--seed N] [--seconds S] [--runs K]             every workload: K untraced runs + 1 traced
//! run.sh --smoke [--seed N]                              every workload at n ≤ 4,096, no files
//! run.sh compare <a.json> <b.json>                       gate set b against set a
//! ```

mod check;
mod compare;
mod gen;
mod json;
mod metrics;
mod run;
mod stats;
mod trace;
mod workloads;

use json::Json;
use run::{Config, Outcome, Scale};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// The seed the committed baseline was measured with (the paper's year).
const DEFAULT_SEED: u64 = 1995;
/// Must equal `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    runs: usize,
    /// Print every metric in the result line, not only the contract's.
    all_metrics: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        runs: 3,
        all_metrics: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = parse(&value("a number")?)?,
            "--seconds" => args.seconds = parse(&value("a number")?)?,
            "--runs" => args.runs = parse(&value("a number")?)?,
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => args.smoke = true,
            "--all-metrics" => args.all_metrics = true,
            "compare" => {
                let a = value("two result files")?;
                let b = value("two result files")?;
                args.compare = Some((a.into(), b.into()));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.seconds <= 0.0 || args.runs == 0 {
        return Err("--seconds and --runs must be positive".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("`{text}` is not a valid number"))
}

/// `bench/results`, beside this package's manifest.
fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn run_one(config: &Config) -> Result<Outcome, String> {
    use workloads::{ingest_mix, paged_cycle, scan_mix, serve_mix};
    Ok(match config.workload.as_str() {
        "scan_mix" => run::run_workload::<scan_mix::ScanMix>(config),
        "serve_mix" => run::run_workload::<serve_mix::ServeMix>(config),
        "ingest_mix" => run::run_workload::<ingest_mix::IngestMix>(config),
        "paged_cycle" => run::run_workload::<paged_cycle::PagedCycle>(config),
        other => {
            return Err(format!(
                "unknown workload `{other}` (one of {})",
                workloads::NAMES.join(", ")
            ))
        }
    })
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::obj(metrics.iter().map(|(name, value, unit)| {
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    }))
}

/// The one-line result: exactly `correct`, `attempted`, `failed`,
/// `metrics` (plus `info` when a parent run asked for everything).
fn result_line(outcome: &Outcome, all: bool) -> String {
    let mut metrics = outcome.metrics.clone();
    if all {
        metrics.extend(outcome.class_metrics.iter().copied());
    }
    let mut pairs = vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&metrics)),
    ];
    if all {
        pairs.push(("info", outcome.info.clone()));
    }
    Json::obj(pairs).render()
}

fn print_outcome(outcome: &Outcome) {
    let traced = outcome.info.get("traced") == Some(&Json::Bool(true));
    println!(
        "== {} ({}) ==  {}",
        outcome.workload,
        if traced { "traced" } else { "untraced" },
        outcome.info.render()
    );
    for (name, value, unit) in outcome.metrics.iter().chain(&outcome.class_metrics) {
        println!("  {name:<40} {value:>16.4} {unit}");
    }
    println!(
        "  {:<40} {:>16} of {} statements",
        "failed", outcome.failed, outcome.attempted
    );
    for failure in &outcome.failures {
        println!("  FAILED: {failure}");
    }
}

fn config(args: &Args, workload: &str, trace: bool, seconds: f64) -> Config {
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    Config {
        workload: workload.to_owned(),
        seed: args.seed,
        seconds,
        trace,
        scale,
        results_dir: results_dir(),
        write_files: !args.smoke,
    }
}

/// One workload, in this process: the driver's entry point.
fn single(args: &Args, workload: &str) -> ExitCode {
    match run_one(&config(args, workload, args.trace, args.seconds)) {
        Ok(outcome) => {
            print_outcome(&outcome);
            println!("{}", result_line(&outcome, args.all_metrics));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// Every workload at smoke scale, untraced then traced, in this process.
fn smoke(args: &Args) -> ExitCode {
    let mut ok = true;
    for workload in workloads::NAMES {
        for trace in [false, true] {
            match run_one(&config(args, workload, trace, 0.5)) {
                Ok(outcome) => {
                    print_outcome(&outcome);
                    ok &= outcome.correct;
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run this binary again for one workload — its own process, so
/// `peak_rss_mb` is per workload — and parse its result line.
fn child(args: &Args, workload: &str, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--all-metrics"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let parsed = Json::parse(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !output.status.success() {
        // A run that checked its outputs and found them wrong still
        // reports; keep the numbers and let `correct: false` speak.
        eprintln!("{workload}: exited with {}", output.status);
    }
    Ok(parsed)
}

/// Every workload: `runs` untraced runs and one traced run each. Prints
/// every metric by name and writes the set to `bench/results/`.
fn full(args: &Args) -> ExitCode {
    let mut ok = true;
    let mut per_workload = Vec::new();
    for workload in workloads::NAMES {
        let mut runs = Vec::new();
        for i in 0..args.runs {
            eprintln!("{workload}: untraced run {} of {}", i + 1, args.runs);
            match child(args, workload, false) {
                Ok(result) => runs.push(result),
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        eprintln!("{workload}: traced run");
        let traced = child(args, workload, true).unwrap_or_else(|e| {
            eprintln!("{e}");
            ok = false;
            Json::Null
        });
        for result in runs.iter().chain(std::iter::once(&traced)) {
            ok &= result.get("correct") == Some(&Json::Bool(true));
        }
        per_workload.push((
            workload,
            Json::obj([("runs", Json::Arr(runs)), ("traced", traced)]),
        ));
    }
    let set = Json::obj([
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("nproc", Json::Num(run::nproc() as f64)),
        ("workloads", Json::obj(per_workload)),
    ]);
    compare::print_set(&set);
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = results_dir().join(format!("set-{}-{stamp}.json", args.seed));
    match std::fs::create_dir_all(results_dir()).and_then(|()| std::fs::write(&path, set.render()))
    {
        Ok(()) => println!("result set written to {}", path.display()),
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            ok = false;
        }
    }
    println!("all outputs correct: {ok}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nsee bench/README.md for usage");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::main(a, b);
    }
    match &args.workload {
        Some(workload) => single(&args, workload),
        None if args.smoke => smoke(&args),
        None => full(&args),
    }
}
