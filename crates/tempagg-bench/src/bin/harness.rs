//! Figure- and table-regeneration harness for *Computing Temporal
//! Aggregates* (Kline & Snodgrass, ICDE 1995).
//!
//! ```text
//! harness all                    # every experiment
//! harness table1                 # Table 1: COUNT over Employed
//! harness table2                 # Table 2: k-ordered-percentage examples
//! harness fig6                   # Figure 6: time, unordered relations
//! harness fig7                   # Figure 7: time, ordered, no long-lived
//! harness fig8                   # Figure 8: time, ordered, 80% long-lived
//! harness fig9                   # Figure 9: memory, no long-lived
//! harness fig9 --long-lived 80   # §6.2: memory with long-lived tuples
//! harness ablation               # §7 future-work ablations
//! harness aggkinds               # the five aggregates through one tree
//!
//! options: --max <tuples>  (default 65536; the paper's 64K)
//!          --seeds <n>     (default 3; paper used several seeds)
//!          --kpct <f>      (k-ordered-percentage, default 0.08)
//!          --quick         (≡ --max 8192 --seeds 1)
//! ```
//!
//! Every report line is printed and also saved to
//! `target/harness_output.txt`; no command writes a tracked file. What is
//! measured beyond the paper — store, window index, pager, SQL — is
//! measured by `bench/` (see `BENCHMARK.json`).
//!
//! Absolute numbers will differ from the paper's 1995 SPARCstation, but the
//! *shape* — who wins, by what factor, where crossovers sit — is the
//! reproduction target (see EXPERIMENTS.md).

use std::path::{Path, PathBuf};
use std::time::Instant;
use tempagg_bench::{count_tuples, median_over_seeds, run_count, secs, size_sweep, AlgoConfig};
use tempagg_core::sortedness;
use tempagg_core::Interval;
use tempagg_workload::employed::{employed_relation, employed_tuples};
use tempagg_workload::{generate, perturb, TupleOrder, WorkloadConfig};

#[derive(Clone, Copy, Debug)]
struct Options {
    max_tuples: usize,
    seeds: u64,
    k_pct: f64,
    long_lived_override: Option<u8>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_tuples: 65_536,
            seeds: 3,
            k_pct: 0.08,
            long_lived_override: None,
        }
    }
}

/// Tees every report line to stdout and to an in-memory transcript that
/// [`Sink::write_report`] saves under `target/` at exit — the repository
/// tree stays clean (`harness_output.txt` is no longer committed).
struct Sink {
    transcript: String,
}

impl Sink {
    fn new() -> Self {
        Sink {
            transcript: String::new(),
        }
    }

    fn line(&mut self, text: &str) {
        println!("{text}");
        self.transcript.push_str(text);
        self.transcript.push('\n');
    }

    fn write_report(&self) -> std::io::Result<PathBuf> {
        let path = target_dir()?.join("harness_output.txt");
        std::fs::write(&path, &self.transcript)?;
        Ok(path)
    }
}

macro_rules! emit {
    ($sink:expr, $($arg:tt)*) => { $sink.line(&format!($($arg)*)) };
}

/// The workspace `target/` directory: next to this crate's workspace root
/// when that still exists, else relative to the working directory.
fn target_dir() -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("target"), |root| root.join("target"));
    let dir = if dir.is_dir() {
        dir
    } else {
        PathBuf::from("target")
    };
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command: Option<String> = None;
    let mut options = Options::default();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--max" => {
                options.max_tuples = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--max needs a number"));
            }
            "--seeds" => {
                options.seeds = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seeds needs a number"));
            }
            "--kpct" => {
                options.k_pct = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--kpct needs a float"));
            }
            "--long-lived" => {
                options.long_lived_override = Some(
                    iter.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--long-lived needs 0..=100")),
                );
            }
            "--quick" => {
                options.max_tuples = 8_192;
                options.seeds = 1;
            }
            cmd if command.is_none() && !cmd.starts_with('-') => {
                command = Some(cmd.to_owned());
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    let started = Instant::now();
    let mut sink = Sink::new();
    match command.as_deref().unwrap_or("all") {
        "table1" => table1(&mut sink),
        "table2" => table2(&mut sink),
        "fig6" => fig6(&options, &mut sink),
        "fig7" => fig7(&options, &mut sink),
        "fig8" => fig8(&options, &mut sink),
        "fig9" => fig9(&options, &mut sink),
        "ablation" => ablation(&options, &mut sink),
        "aggkinds" => aggregate_kinds(&options, &mut sink),
        "all" => {
            table1(&mut sink);
            table2(&mut sink);
            fig6(&options, &mut sink);
            fig7(&options, &mut sink);
            fig8(&options, &mut sink);
            fig9(&options, &mut sink);
            let mut with_long = options;
            with_long.long_lived_override = Some(80);
            fig9(&with_long, &mut sink);
            ablation(&options, &mut sink);
            aggregate_kinds(&options, &mut sink);
        }
        other => usage(&format!("unknown command `{other}`")),
    }
    match sink.write_report() {
        Ok(path) => eprintln!("\n[report saved to {}]", path.display()),
        Err(e) => eprintln!("\n[could not save report under target/: {e}]"),
    }
    eprintln!("[harness finished in {:.1?}]", started.elapsed());
}

fn usage(problem: &str) -> ! {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: harness [table1|table2|fig6|fig7|fig8|fig9|ablation|aggkinds|all] \
         [--max N] [--seeds N] [--kpct F] [--long-lived P] [--quick]"
    );
    std::process::exit(2)
}

/// Print one aligned table.
fn print_table(sink: &mut Sink, title: &str, header: &[String], rows: &[Vec<String>]) {
    emit!(sink, "\n### {title}\n");
    let mut all = Vec::with_capacity(rows.len() + 1);
    all.push(header.to_vec());
    all.extend(rows.iter().cloned());
    let widths: Vec<usize> = (0..header.len())
        .map(|c| all.iter().map(|r| r[c].chars().count()).max().unwrap_or(0))
        .collect();
    for (i, row) in all.iter().enumerate() {
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(c, cell)| format!("{cell:<width$}", width = widths[c]))
            .collect();
        emit!(sink, "| {} |", cells.join(" | "));
        if i == 0 {
            let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
            emit!(sink, "|-{}-|", dashes.join("-|-"));
        }
    }
}

// ───────────────────────────── Table 1 ─────────────────────────────

fn table1(sink: &mut Sink) {
    emit!(
        sink,
        "\n== Table 1: SELECT COUNT(Name) FROM Employed (grouped by instant) =="
    );
    let mut tree = tempagg_algo::AggregationTree::new(tempagg_agg::Count);
    use tempagg_algo::TemporalAggregator;
    for (_, _, iv) in employed_tuples() {
        // lint: allow(no-unwrap): fixed Table 1 fixture on the unbounded timeline cannot be out of domain
        tree.push(iv, ()).expect("Employed tuples fit the timeline");
    }
    let series = tree.finish();
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|e| vec![e.interval.to_string(), e.value.to_string()])
        .collect();
    print_table(
        sink,
        "Constant intervals (aggregation tree; all algorithms agree)",
        &["valid".into(), "COUNT".into()],
        &rows,
    );

    // And through the SQL front end, as the paper writes it.
    let mut catalog = tempagg_sql::Catalog::new();
    catalog.register("Employed", employed_relation());
    let result = tempagg_sql::execute_str(&catalog, "SELECT COUNT(Name) FROM Employed E")
        // lint: allow(no-unwrap): the harness demos a hard-coded query; a parse failure should abort loudly
        .expect("the paper's query parses and runs");
    emit!(sink, "\nSQL front end:\n\n{result}");
}

// ───────────────────────────── Table 2 ─────────────────────────────

fn table2(sink: &mut Sink) {
    emit!(
        sink,
        "\n== Table 2: k-ordered-percentages (n = 10000, k = 100) =="
    );
    let n = 10_000usize;
    let k = 100usize;
    let sorted: Vec<i64> = (0..n as i64).collect();
    let make = |starts: &[i64]| -> Vec<Interval> {
        starts.iter().map(|&s| Interval::at(s, s + 1)).collect()
    };

    let mut rows: Vec<Vec<String>> = Vec::new();
    // Row 1: sorted.
    rows.push(vec![
        "tuples are sorted".into(),
        "0".into(),
        format!("{:.5}", sortedness::k_ordered_percentage(&make(&sorted), k)),
    ]);
    // Row 2: swap 2 tuples 100 apart.
    let mut starts = sorted.clone();
    starts.swap(100, 200);
    rows.push(vec![
        "2 tuples 100 places apart are swapped".into(),
        "0.0002".into(),
        format!("{:.5}", sortedness::k_ordered_percentage(&make(&starts), k)),
    ]);
    // Row 3: 20 tuples 100 places out (10 swaps).
    let mut starts = sorted.clone();
    for s in 0..10 {
        starts.swap(s * 600, s * 600 + 100);
    }
    rows.push(vec![
        "20 tuples are 100 places from being sorted".into(),
        "0.002".into(),
        format!("{:.5}", sortedness::k_ordered_percentage(&make(&starts), k)),
    ]);
    // Rows 4–5 are displacement distributions.
    let mut hist = vec![0usize; k + 1];
    for slot in hist.iter_mut().skip(1) {
        *slot = 1;
    }
    rows.push(vec![
        "one tuple at each distance 1..=100".into(),
        "0.00505".into(),
        format!(
            "{:.5}",
            sortedness::k_ordered_percentage_from_histogram(&hist, k, n)
        ),
    ]);
    for slot in hist.iter_mut().skip(1) {
        *slot = 10;
    }
    rows.push(vec![
        "10 tuples at each distance 1..=100".into(),
        "0.0505".into(),
        format!(
            "{:.5}",
            sortedness::k_ordered_percentage_from_histogram(&hist, k, n)
        ),
    ]);
    print_table(
        sink,
        "k-ordered-percentage examples",
        &["scenario".into(), "paper".into(), "measured".into()],
        &rows,
    );
}

// ───────────────────────────── Figure 6 ─────────────────────────────

fn fig6(options: &Options, sink: &mut Sink) {
    emit!(
        sink,
        "\n== Figure 6: query evaluation time, UNORDERED relations \
         (seconds, median of {} seeds) ==",
        options.seeds
    );
    let configs = [AlgoConfig::LinkedList, AlgoConfig::AggregationTree];
    let pcts: &[u8] = &[0, 40, 80];
    let mut header = vec!["tuples".to_owned()];
    for config in configs {
        for pct in pcts {
            header.push(format!("{} {pct}%ll", config.label()));
        }
    }
    let mut rows = Vec::new();
    for n in size_sweep(options.max_tuples) {
        let mut row = vec![n.to_string()];
        for config in configs {
            for &pct in pcts {
                let m = median_over_seeds(
                    config,
                    |seed| WorkloadConfig {
                        tuples: n,
                        long_lived_pct: pct,
                        order: TupleOrder::Random,
                        seed,
                        ..Default::default()
                    },
                    options.seeds,
                );
                row.push(secs(m.elapsed));
            }
        }
        rows.push(row);
    }
    print_table(
        sink,
        "time (s) on randomly ordered relations",
        &header,
        &rows,
    );
}

// ──────────────────────────── Figures 7–8 ───────────────────────────

fn fig7(options: &Options, sink: &mut Sink) {
    time_on_ordered_relations(options, sink, 0, "Figure 7", "no long-lived tuples");
}

fn fig8(options: &Options, sink: &mut Sink) {
    time_on_ordered_relations(options, sink, 80, "Figure 8", "80% long-lived tuples");
}

fn fig7_configs() -> Vec<AlgoConfig> {
    vec![
        AlgoConfig::LinkedList,
        AlgoConfig::AggregationTree,
        AlgoConfig::KTree { k: 400 },
        AlgoConfig::KTree { k: 40 },
        AlgoConfig::KTree { k: 4 },
        AlgoConfig::KTreeSorted,
    ]
}

fn time_on_ordered_relations(
    options: &Options,
    sink: &mut Sink,
    long_pct: u8,
    figure: &str,
    label: &str,
) {
    emit!(
        sink,
        "\n== {figure}: query evaluation time, ORDERED relations, {label} \
         (seconds, median of {} seeds) ==",
        options.seeds
    );
    let configs = fig7_configs();
    let mut header = vec!["tuples".to_owned()];
    header.extend(configs.iter().map(AlgoConfig::label));
    let mut rows = Vec::new();
    for n in size_sweep(options.max_tuples) {
        let mut row = vec![n.to_string()];
        for &config in &configs {
            let m = median_over_seeds(
                config,
                |seed| tempagg_bench::workload_for(config, n, long_pct, options.k_pct, seed),
                options.seeds,
            );
            row.push(secs(m.elapsed));
        }
        rows.push(row);
    }
    print_table(
        sink,
        &format!("time (s) on ordered relations, {label}"),
        &header,
        &rows,
    );
}

// ───────────────────────────── Figure 9 ─────────────────────────────

fn fig9(options: &Options, sink: &mut Sink) {
    let long_pct = options.long_lived_override.unwrap_or(0);
    emit!(
        sink,
        "\n== Figure 9: peak algorithm state (bytes, 16 B/node model), \
         {long_pct}% long-lived tuples =="
    );
    let configs = fig7_configs();
    let mut header = vec!["tuples".to_owned()];
    header.extend(configs.iter().map(AlgoConfig::label));
    let mut rows = Vec::new();
    for n in size_sweep(options.max_tuples) {
        let mut row = vec![n.to_string()];
        for &config in &configs {
            let workload = tempagg_bench::workload_for(config, n, long_pct, options.k_pct, 1);
            let m = run_count(config, &count_tuples(&workload));
            row.push(m.memory.peak_model_bytes().to_string());
        }
        rows.push(row);
    }
    print_table(sink, "peak state bytes", &header, &rows);
}

// ─────────────────────────── Aggregate kinds ────────────────────────

/// Section 6's methodology note — "we found that the choice of aggregate
/// did not materially alter the results" — as a measurement: each of the
/// paper's five aggregates (plus extensions) over the same random relation
/// and algorithm.
fn aggregate_kinds(options: &Options, sink: &mut Sink) {
    use tempagg_agg::{Aggregate, Avg, Count, CountDistinct, Max, Min, Sum};
    use tempagg_algo::{AggregationTree, TemporalAggregator};

    let n = options.max_tuples.min(16_384);
    emit!(
        sink,
        "\n== Aggregate choice (Section 6 methodology): {n} random tuples, aggregation tree =="
    );

    fn time_one<A: Aggregate + Clone>(
        agg: A,
        tuples: &[(Interval, i64)],
        to_input: impl Fn(i64) -> A::Input,
        seeds: u64,
    ) -> (std::time::Duration, usize) {
        let mut runs: Vec<(std::time::Duration, usize)> = (0..seeds.max(1))
            .map(|_| {
                let mut tree = AggregationTree::new(agg.clone());
                let started = Instant::now();
                for &(iv, v) in tuples {
                    // lint: allow(no-unwrap): generator output always lies on the unbounded timeline
                    tree.push(iv, to_input(v)).expect("tuples fit the timeline");
                }
                let bytes = tree.memory().peak_model_bytes();
                let series = tree.finish();
                let _ = series.len();
                (started.elapsed(), bytes)
            })
            .collect();
        runs.sort();
        runs[runs.len() / 2]
    }

    let relation = generate(&WorkloadConfig::random(n).with_seed(1));
    // lint: allow(no-unwrap): the workload generator always emits a salary column
    let salary_idx = relation.schema().index_of("salary").expect("salary column");
    let tuples: Vec<(Interval, i64)> = relation
        .iter()
        // lint: allow(no-unwrap): generated salaries are always integers
        .map(|t| (t.valid(), t.value(salary_idx).as_i64().expect("int salary")))
        .collect();

    let seeds = options.seeds;
    let mut rows = Vec::new();
    let (t, b) = time_one(Count, &tuples, |_| (), seeds);
    rows.push(vec!["COUNT".into(), secs(t), b.to_string()]);
    let (t, b) = time_one(Sum::<i64>::new(), &tuples, |v| v, seeds);
    rows.push(vec!["SUM".into(), secs(t), b.to_string()]);
    let (t, b) = time_one(Min::<i64>::new(), &tuples, |v| v, seeds);
    rows.push(vec!["MIN".into(), secs(t), b.to_string()]);
    let (t, b) = time_one(Max::<i64>::new(), &tuples, |v| v, seeds);
    rows.push(vec!["MAX".into(), secs(t), b.to_string()]);
    let (t, b) = time_one(Avg::<i64>::new(), &tuples, |v| v, seeds);
    rows.push(vec!["AVG".into(), secs(t), b.to_string()]);
    let (t, b) = time_one(CountDistinct::<i64>::new(), &tuples, |v| v % 64, seeds);
    rows.push(vec![
        "COUNT DISTINCT (64 values)".into(),
        secs(t),
        b.to_string(),
    ]);
    print_table(
        sink,
        "per-aggregate time and peak model bytes (same tuples, same tree)",
        &["aggregate".into(), "time (s)".into(), "peak bytes".into()],
        &rows,
    );
}

// ───────────────────────────── Ablations ────────────────────────────

fn ablation(options: &Options, sink: &mut Sink) {
    emit!(sink, "\n== Section 7 future-work ablations ==");
    let seeds = options.seeds;
    let n = options.max_tuples.min(16_384);

    // (a) Sorted input: unbalanced tree (worst case) vs page-randomized
    // insertion vs balanced tree vs k-tree k = 1.
    let mut rows = Vec::new();
    for (label, prep, config) in [
        (
            "Aggregation tree, sorted input (worst case)",
            None::<u64>,
            AlgoConfig::AggregationTree,
        ),
        (
            "Aggregation tree, shuffled-before-insert (\"randomize pages\")",
            Some(0xFEED),
            AlgoConfig::AggregationTree,
        ),
        ("Balanced aggregation tree", None, AlgoConfig::Balanced),
        ("Ktree K=1 (sorted stream)", None, AlgoConfig::KTreeSorted),
        ("Two-scan baseline (Tuma)", None, AlgoConfig::TwoScan),
        ("Linked list", None, AlgoConfig::LinkedList),
    ] {
        let mut measurements: Vec<_> = (0..seeds)
            .map(|seed| {
                let mut relation = generate(&WorkloadConfig::sorted(n).with_seed(seed + 1));
                if let Some(shuffle_seed) = prep {
                    perturb::shuffle(&mut relation, shuffle_seed);
                }
                let tuples: Vec<(Interval, ())> = relation.intervals().map(|iv| (iv, ())).collect();
                run_count(config, &tuples)
            })
            .collect();
        measurements.sort_by_key(|m| m.elapsed);
        let m = measurements[measurements.len() / 2];
        rows.push(vec![
            label.to_owned(),
            secs(m.elapsed),
            m.memory.peak_model_bytes().to_string(),
        ]);
    }
    print_table(
        sink,
        &format!("sorted input, n = {n}: time & memory by strategy"),
        &["strategy".into(), "time (s)".into(), "peak bytes".into()],
        &rows,
    );

    // (b) Span grouping vs instant grouping: state size and result rows.
    let relation = generate(&WorkloadConfig::random(n).with_seed(7));
    let tuples: Vec<(Interval, ())> = relation.intervals().map(|iv| (iv, ())).collect();
    let instant = run_count(AlgoConfig::AggregationTree, &tuples);
    let mut rows = vec![vec![
        "instant grouping (aggregation tree)".to_owned(),
        instant.result_rows.to_string(),
        instant.memory.peak_model_bytes().to_string(),
    ]];
    for span in [100_000i64, 10_000, 1_000] {
        use tempagg_algo::TemporalAggregator;
        let mut grouper =
            tempagg_algo::SpanGrouper::new(tempagg_agg::Count, Interval::at(0, 999_999), span)
                // lint: allow(no-unwrap): the window and span are hard-coded valid benchmark parameters
                .expect("bounded window");
        for &(iv, ()) in &tuples {
            // lint: allow(no-unwrap): SpanGrouper::push clips and never errors
            grouper.push(iv, ()).expect("in-window");
        }
        let memory = grouper.memory();
        let series = grouper.finish();
        rows.push(vec![
            format!("span grouping, span = {span}"),
            series.len().to_string(),
            memory.peak_model_bytes().to_string(),
        ]);
    }
    print_table(
        sink,
        &format!("instant vs span grouping, n = {n} random tuples"),
        &[
            "grouping".into(),
            "result rows".into(),
            "state bytes".into(),
        ],
        &rows,
    );

    // (c) Limited-memory evaluation (Section 5.1's paging sketch): the
    // paged aggregation tree across region counts, on random input over
    // the bounded 1M-instant lifespan.
    let domain = Interval::at(0, 999_999);
    let relation = generate(&WorkloadConfig::random(n).with_seed(3));
    let tuples: Vec<(Interval, ())> = relation.intervals().map(|iv| (iv, ())).collect();
    let mut rows = Vec::new();
    for regions in [1usize, 4, 16, 64] {
        use tempagg_algo::TemporalAggregator;
        let started = std::time::Instant::now();
        let mut paged =
            tempagg_algo::PagedAggregationTree::new(tempagg_agg::Count, domain, regions)
                // lint: allow(no-unwrap): the benchmark domain and region counts are hard-coded valid parameters
                .expect("bounded domain");
        for &(iv, ()) in &tuples {
            // lint: allow(no-unwrap): tuples are generated inside the hard-coded lifespan
            paged.push(iv, ()).expect("tuples fit the lifespan");
        }
        let buffered = paged.buffered_entries();
        let (series, stats) = paged.finish_with_stats();
        rows.push(vec![
            format!("paged tree, {regions} region(s)"),
            secs(started.elapsed()),
            stats.peak_model_bytes().to_string(),
            buffered.to_string(),
            series.len().to_string(),
        ]);
    }
    print_table(
        sink,
        &format!("limited-memory (paged) aggregation tree, n = {n} random tuples"),
        &[
            "strategy".into(),
            "time (s)".into(),
            "peak tree bytes".into(),
            "buffered entries".into(),
            "result rows".into(),
        ],
        &rows,
    );
}
