//! What a parallel plan costs next to the serial plan it replaces — the
//! measurement behind "one path per plan" (DESIGN.md §9 "Which algorithm
//! parallelises where").
//!
//! A random-order relation of n = 65,536 tuples (seed 1995) with 0 % and
//! 10 % long-lived tuples, `SUM(salary)` over `[0, ∞]`, median of 9:
//!
//! * a `PartitionedAggregator` over two `AggregationTree`s on 1 and on 2
//!   worker threads — the domain-partitioned route the push-time
//!   algorithms take (the sweep has no parallel route: its sort is linear
//!   and runs on the calling thread);
//! * `choose_window_algorithm` under `PlannerConfig::default()` (which asks
//!   the machine for its thread count) and under `parallelism: Some(2)`
//!   (which does not).
//!
//! Public APIs only, so the same file runs against any earlier commit.
//! `-- --check` fails unless, at 10 % long-lived, the two-partition
//! aggregation tree on 2 threads takes at most 1.25× the same tree on 1
//! thread, and planning under the default config takes at most 3×
//! planning with the thread count given: a parallel plan is not slower
//! than the serial one it replaced.
//!
//! Run with: `cargo run --release --example parallel_plan`

use std::hint::black_box;
use std::time::{Duration, Instant};
use temporal_aggregates::planner::{choose_window_algorithm, CachedSeriesInfo, CostModel};
use temporal_aggregates::prelude::*;
use temporal_aggregates::workload::{generate, salary_stream, WorkloadConfig};
use temporal_aggregates::{SweepAggregate, DEFAULT_CHUNK_CAPACITY};

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

/// A `PartitionedAggregator` over two aggregation trees cut at the middle
/// of the lifespan, on `threads` worker threads.
fn partitioned_tree(threads: usize) -> PartitionedAggregator<Sum<i64>, AggregationTree<Sum<i64>>> {
    let seams = Interval::at(0, 999_999).even_seams(2);
    PartitionedAggregator::with_seams(Interval::TIMELINE, seams, |sub| {
        AggregationTree::with_domain(Sum::<i64>::new(), sub)
    })
    .expect("one interior seam")
    .with_threads(threads)
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
        let (one, two): (Vec<_>, Vec<_>) = (0..REPS)
            .map(|_| {
                let one = driven(partitioned_tree(1), &long);
                (one, driven(partitioned_tree(2), &long))
            })
            .unzip();
        let (one, two) = (median_of(one), median_of(two));
        let tree_ratio = two.as_secs_f64() / one.as_secs_f64();
        let ok = tree_ratio <= 1.25 && plan_ratio <= 3.0;
        println!(
            "the P = 2 aggregation tree on 2 threads is {tree_ratio:.2}x on 1 ({:.1} vs {:.1} \
             ms); planning under the default config is {plan_ratio:.1}x planning with the \
             thread count given ({default_ns:.0} vs {given_ns:.0} ns): {}",
            ms(two),
            ms(one),
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
    row("aggregation tree, serial", &|c| {
        driven(
            AggregationTree::with_domain(Sum::<i64>::new(), Interval::TIMELINE),
            c,
        )
    });
    for t in [1usize, 2] {
        row(&format!("aggregation tree, P = 2 on {t} thread(s)"), &|c| {
            driven(partitioned_tree(t), c)
        });
    }
    println!("choose_window_algorithm, default config   {default_ns:>8.0} ns");
    println!("choose_window_algorithm, parallelism = 2  {given_ns:>8.0} ns");
}
