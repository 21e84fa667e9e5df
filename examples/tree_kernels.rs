//! What a tuple costs each of the paper's tree kernels next to the sweep —
//! the located cost behind "the paper's trees walk without a heap"
//! (DESIGN.md §4 "Arena-allocated trees").
//!
//! `COUNT(*)` over two inputs, median of 9:
//!
//! * `paged_cycle`'s relation `F`: n = 131,072 sorted by start, 10 %
//!   long-lived, starts uniform in `[0, 900,000)`, over its own lifespan —
//!   the sweep, and the k = 1 ordered tree driven the way `feed_streaming`
//!   drives it (`push_batch`, then `emit_ready`, per chunk);
//! * a random-order n = 65,536 (seed 1995, 10 % long-lived) — the sweep and
//!   the aggregation tree (the k-ordered tree needs ordered input, and the
//!   aggregation tree is quadratic on sorted input).
//!
//! Public APIs only, so the same file runs against any earlier commit.
//! `-- --check` fails unless, on the sorted input, the k-ordered tree takes
//! at most 3× the sweep (the two alternated, so a busy spell on a shared
//! host lands on both), and unless every kernel's rows equal the sweep's.
//!
//! Run with: `cargo run --release --example tree_kernels`

use std::hint::black_box;
use std::time::{Duration, Instant};
use temporal_aggregates::prelude::*;
use temporal_aggregates::workload::{count_stream, generate, WorkloadConfig};
use temporal_aggregates::DEFAULT_CHUNK_CAPACITY;

const REPS: usize = 9;
const SORTED_N: usize = 131_072;
const RANDOM_N: usize = 65_536;

/// xorshift64*, seeded through splitmix64 — the draw `bench/` uses.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        lo + (x.wrapping_mul(0x2545_f491_4f6c_dd1d) % ((hi - lo) as u64 + 1)) as i64
    }
}

/// `paged_cycle`'s `F`: the paper's lengths over a 1,000,000-instant
/// lifespan (short 1–1,000, long-lived 20–80 % of it, redrawn rather than
/// clamped past its end), starts in `[0, 900,000)`, sorted by start.
fn relation_f() -> Vec<Interval> {
    const LAST: i64 = 999_999;
    let mut rng = Rng::new(1995);
    let mut out: Vec<Interval> = (0..SORTED_N)
        .map(|i| loop {
            let start = rng.range(0, 899_999);
            let length = if i % 10 == 0 {
                rng.range(200_000, 800_000)
            } else {
                rng.range(1, 1000)
            };
            if start + length - 1 <= LAST {
                break Interval::at(start, start + length - 1);
            }
        })
        .collect();
    out.sort_unstable_by_key(|iv| (iv.start(), iv.end()));
    out
}

fn chunks(intervals: &[Interval]) -> Vec<Chunk<()>> {
    intervals
        .chunks(DEFAULT_CHUNK_CAPACITY)
        .map(|run| {
            let mut chunk = Chunk::with_capacity(run.len());
            for &interval in run {
                chunk.push(interval, ()).expect("one chunk's worth");
            }
            chunk
        })
        .collect()
}

fn lifespan(intervals: &[Interval]) -> Interval {
    intervals
        .iter()
        .copied()
        .reduce(|a, b| a.hull(&b))
        .expect("a non-empty input")
}

/// One run of `aggregator` over `chunks`, draining after every chunk as
/// `feed_streaming` does: its wall-clock and its rows.
fn timed<G: TemporalAggregator<Count>>(
    mut aggregator: G,
    chunks: &[Chunk<()>],
) -> (Duration, Series<u64>) {
    let mut rows = Series::new();
    let started = Instant::now();
    for chunk in chunks {
        aggregator.push_batch(chunk).expect("in-domain chunk");
        aggregator.emit_ready(&mut rows);
    }
    aggregator.finish_into(&mut rows);
    (started.elapsed(), black_box(rows))
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn ns_per_tuple(d: Duration, n: usize) -> f64 {
    d.as_secs_f64() * 1e9 / n as f64
}

fn main() {
    let check = std::env::args().any(|arg| arg == "--check");
    let f = relation_f();
    let f_domain = lifespan(&f);
    let f_chunks = chunks(&f);
    let sweep_f = || SweepAggregator::with_domain(Count, f_domain);
    let ktree = || KOrderedAggregationTree::with_domain(Count, 1, f_domain).expect("k = 1");

    // Alternated, so a busy spell on a shared host lands on both sides.
    let (sweep, tree): (Vec<_>, Vec<_>) = (0..REPS)
        .map(|_| (timed(sweep_f(), &f_chunks).0, timed(ktree(), &f_chunks).0))
        .unzip();
    let (sweep, tree) = (median(sweep), median(tree));
    let ratio = tree.as_secs_f64() / sweep.as_secs_f64();
    let sorted_same = timed(sweep_f(), &f_chunks).1 == timed(ktree(), &f_chunks).1;

    let random = generate(
        &WorkloadConfig::random(RANDOM_N)
            .with_long_lived_pct(10)
            .with_seed(1995),
    );
    let random: Vec<Interval> = count_stream(&random)
        .into_iter()
        .map(|(iv, ())| iv)
        .collect();
    let r_chunks = chunks(&random);
    let sweep_r = || SweepAggregator::with_domain(Count, Interval::TIMELINE);
    let agg_tree = || AggregationTree::with_domain(Count, Interval::TIMELINE);
    let random_same = timed(sweep_r(), &r_chunks).1 == timed(agg_tree(), &r_chunks).1;
    let same = sorted_same && random_same;

    if check {
        let ok = ratio <= 3.0 && same;
        println!(
            "k = 1 ordered tree is {ratio:.2}x the sweep on paged_cycle's sorted F ({:.0} vs \
             {:.0} ns/tuple), rows {}: {}",
            ns_per_tuple(tree, SORTED_N),
            ns_per_tuple(sweep, SORTED_N),
            if same { "identical" } else { "DIFFER" },
            if ok { "ok (<= 3x)" } else { "FAILED" }
        );
        if !ok {
            std::process::exit(1);
        }
        return;
    }

    let (sweep_r_t, agg_t): (Vec<_>, Vec<_>) = (0..REPS)
        .map(|_| {
            (
                timed(sweep_r(), &r_chunks).0,
                timed(agg_tree(), &r_chunks).0,
            )
        })
        .unzip();
    let (sweep_r_t, agg_t) = (median(sweep_r_t), median(agg_t));
    println!("COUNT(*), ns/tuple, median of {REPS} (alternated per input)");
    println!("input                                    sweep    k = 1 tree   aggregation tree");
    println!(
        "paged_cycle F, sorted, n = {SORTED_N}  {:>8.0}  {:>11.0}   {:>16}",
        ns_per_tuple(sweep, SORTED_N),
        ns_per_tuple(tree, SORTED_N),
        "—"
    );
    println!(
        "random order, n = {RANDOM_N}            {:>8.0}  {:>11}   {:>16.0}",
        ns_per_tuple(sweep_r_t, RANDOM_N),
        "—",
        ns_per_tuple(agg_t, RANDOM_N)
    );
    println!(
        "k-tree / sweep {ratio:.2}x, aggregation tree / sweep {:.2}x, rows {}",
        agg_t.as_secs_f64() / sweep_r_t.as_secs_f64(),
        if same { "identical" } else { "DIFFER" }
    );
}
