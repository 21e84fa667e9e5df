//! What a parallel plan costs next to the serial plan it replaces — the
//! measurement behind "one path per plan" (DESIGN.md §9 "Which algorithm
//! parallelises where").
//!
//! A random-order relation of n = 65,536 tuples (seed 1995) with 0 % and
//! 10 % long-lived tuples, `SUM(salary)` over `[0, ∞]`, median of 9:
//!
//! * a `Sweep` plan at `parallelism` 1 / 2 / 4 through
//!   `execute_chunks_into` — what a SQL scan runs;
//! * the sweep kernel alone with its endpoint sort on 1 and 2 threads —
//!   what `cost.rs::parallelise` prices for a parallel sweep;
//! * a `PartitionedAggregator` over two `AggregationTree`s on 1 and on 2
//!   worker threads — the domain-partitioned route the push-time
//!   algorithms keep;
//! * `choose_window_algorithm` under `PlannerConfig::default()` (which asks
//!   the machine for its thread count) and under `parallelism: Some(2)`
//!   (which does not).
//!
//! Public APIs only, so the same file runs against any earlier commit.
//! `-- --check` fails unless, at 10 % long-lived, the `parallelism = 2`
//! sweep plan takes at most 1.25× the `parallelism = 1` plan with identical
//! rows, and planning under the default config takes at most 3× planning
//! with the thread count given: a parallel plan is not slower than the
//! serial one it replaced.
//!
//! Run with: `cargo run --release --example parallel_plan`

use std::hint::black_box;
use std::time::{Duration, Instant};
use temporal_aggregates::planner::{
    choose_window_algorithm, execute_chunks_into, CachedSeriesInfo, CostModel,
};
use temporal_aggregates::prelude::*;
use temporal_aggregates::workload::{generate, salary_stream, WorkloadConfig};
use temporal_aggregates::{Plan, SweepAggregate, DEFAULT_CHUNK_CAPACITY};

const N: usize = 65_536;
const REPS: usize = 9;

fn median_of(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn median(mut f: impl FnMut() -> Duration) -> Duration {
    median_of((0..REPS).map(|_| f()).collect())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn chunks_of(long_lived_pct: u8) -> Vec<Chunk<i64>> {
    let config = WorkloadConfig::random(N)
        .with_long_lived_pct(long_lived_pct)
        .with_seed(1995);
    let rows = salary_stream(&generate(&config));
    rows.chunks(DEFAULT_CHUNK_CAPACITY)
        .map(|run| {
            let mut chunk = Chunk::with_capacity(run.len());
            for &(interval, salary) in run {
                chunk.push(interval, salary).expect("one chunk's worth");
            }
            chunk
        })
        .collect()
}

fn sweep_plan(parallelism: usize) -> Plan {
    Plan {
        choice: AlgorithmChoice::Sweep,
        parallelism,
        estimated_state_bytes: 0,
        rationale: Vec::new(),
    }
}

/// One executor run of a sweep plan: its wall-clock and its rows.
fn executed(chunks: &[Chunk<i64>], parallelism: usize) -> (Duration, Series<Option<i64>>) {
    let mut rows = Series::new();
    let started = Instant::now();
    execute_chunks_into(
        &sweep_plan(parallelism),
        Sum::<i64>::new(),
        chunks,
        Interval::TIMELINE,
        &mut rows,
    )
    .expect("a sweep plan over in-domain chunks");
    (started.elapsed(), rows)
}

/// Push every chunk, finish into a counting sink, time the whole.
fn driven<G: TemporalAggregator<Sum<i64>>>(mut aggregator: G, chunks: &[Chunk<i64>]) -> Duration {
    let started = Instant::now();
    for chunk in chunks {
        aggregator.push_batch(chunk).expect("in-domain chunk");
    }
    let mut sink = CountingSink::new();
    aggregator.finish_into(&mut sink);
    black_box(sink.entries());
    started.elapsed()
}

/// ns per `choose_window_algorithm` call over a warm 100,000-run cache.
fn plan_ns(config: &PlannerConfig) -> f64 {
    let stats = RelationStats::unknown(N).with_cached_series(CachedSeriesInfo {
        runs: 100_000,
        epoch: 1,
    });
    let (agg, model) = (Sum::<i64>::new(), CostModel::default());
    let calls = 2_000u32;
    let per_batch = median(|| {
        let started = Instant::now();
        for _ in 0..calls {
            black_box(choose_window_algorithm(
                black_box(&stats),
                agg.sweep_class(),
                true,
                config,
                &model,
                agg.state_model_bytes(),
            ));
        }
        started.elapsed()
    });
    per_batch.as_secs_f64() * 1e9 / f64::from(calls)
}

fn main() {
    let check = std::env::args().any(|arg| arg == "--check");
    let default_ns = plan_ns(&PlannerConfig::default());
    let given_ns = plan_ns(&PlannerConfig {
        parallelism: Some(2),
        ..PlannerConfig::default()
    });
    let plan_ratio = default_ns / given_ns;

    let long = chunks_of(10);
    if check {
        // Alternated, so a busy spell on a shared host lands on both sides.
        let (serial, parallel): (Vec<_>, Vec<_>) = (0..REPS)
            .map(|_| (executed(&long, 1).0, executed(&long, 2).0))
            .unzip();
        let (serial, parallel) = (median_of(serial), median_of(parallel));
        let sweep_ratio = parallel.as_secs_f64() / serial.as_secs_f64();
        let same = executed(&long, 1).1 == executed(&long, 2).1;
        let ok = sweep_ratio <= 1.25 && same && plan_ratio <= 3.0;
        println!(
            "sweep plan p = 2 is {sweep_ratio:.2}x p = 1 ({:.1} vs {:.1} ms, rows {}); planning \
             under the default config is {plan_ratio:.1}x planning with the thread count given \
             ({default_ns:.0} vs {given_ns:.0} ns): {}",
            ms(parallel),
            ms(serial),
            if same { "identical" } else { "DIFFER" },
            if ok { "ok (<= 1.25x, <= 3x)" } else { "FAILED" }
        );
        if !ok {
            std::process::exit(1);
        }
        return;
    }

    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("n = {N}, SUM(salary), random order, median of {REPS}, {threads} hardware threads");
    println!("                                        0 % long    10 % long");
    let short = chunks_of(0);
    let row = |label: &str, f: &dyn Fn(&[Chunk<i64>]) -> Duration| {
        let (a, b) = (median(|| f(&short)), median(|| f(&long)));
        println!("{label:<38}{:>8.1} ms {:>9.1} ms", ms(a), ms(b));
    };
    for p in [1usize, 2, 4] {
        row(&format!("sweep plan, p = {p} (executor)"), &|c| {
            executed(c, p).0
        });
    }
    let sweep = |threads| {
        SweepAggregator::with_domain(Sum::<i64>::new(), Interval::TIMELINE)
            .with_parallelism(threads)
    };
    for t in [1usize, 2] {
        row(&format!("sweep kernel, sort on {t} thread(s)"), &|c| {
            driven(sweep(t), c)
        });
    }
    row("aggregation tree, serial", &|c| {
        driven(
            AggregationTree::with_domain(Sum::<i64>::new(), Interval::TIMELINE),
            c,
        )
    });
    for t in [1usize, 2] {
        row(&format!("aggregation tree, P = 2 on {t} thread(s)"), &|c| {
            let seams = Interval::at(0, 999_999).even_seams(2);
            let parts = PartitionedAggregator::with_seams(Interval::TIMELINE, seams, |sub| {
                AggregationTree::with_domain(Sum::<i64>::new(), sub)
            });
            driven(parts.expect("one interior seam").with_threads(t), c)
        });
    }
    println!("choose_window_algorithm, default config   {default_ns:>8.0} ns");
    println!("choose_window_algorithm, parallelism = 2  {given_ns:>8.0} ns");
}
