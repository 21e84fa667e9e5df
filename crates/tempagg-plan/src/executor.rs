//! Plan execution: drive the chosen algorithm over pre-extracted chunks.
//!
//! The executor consumes `(interval, input)` rows already projected into
//! [`Chunk`]s ([`execute_chunks`], [`execute_chunks_streaming`]) and feeds
//! them through [`TemporalAggregator::push_batch`], so every algorithm gets
//! its batch fast path (the linked list's binary-search insert, the tree's
//! arena reservation, the sweep's column append). [`execute`] and
//! [`execute_streaming`] are the relation-fed wrappers: they extract the
//! relation into chunks of [`DEFAULT_CHUNK_CAPACITY`] and call the
//! chunk-fed entry points. A plan's `parallelism > 1` is spent where the
//! chosen algorithm works, which is what `cost.rs::parallelise` prices.
//! The list and the trees work at *push* time: the domain is cut at seams
//! drawn from the hull of the rows' *start* times (finite even when the
//! domain or tuple ends are unbounded) and each sub-domain runs its own
//! inner aggregator on a scoped worker via [`PartitionedAggregator`]. The
//! sweep works at *finish* time (its push is a column append), so it stays
//! one [`SweepAggregator`] whose bucketed endpoint sort runs on the plan's
//! workers. Either way the result is byte-identical to the serial run.
//! Materialized and streaming execution share one drive loop that differs
//! only in the [`SeriesSink`] it drains into.

use crate::planner::{plan, AlgorithmChoice, Plan, PlannerConfig};
use crate::stats::RelationStats;
use std::time::{Duration, Instant};
use tempagg_agg::{Aggregate, SweepAggregate};
use tempagg_algo::{
    AggregationTree, KOrderedAggregationTree, LinkedListAggregate, MemoryStats, PartitionReport,
    PartitionedAggregator, SweepAggregator, TemporalAggregator,
};
use tempagg_core::{
    Chunk, ChunkedSink, Interval, Result, Series, SeriesEntry, SeriesSink, TempAggError,
    TemporalRelation, Timestamp, Tuple, DEFAULT_CHUNK_CAPACITY,
};

/// The error every executor entry point returns for a
/// [`AlgorithmChoice::CachedSeries`] plan: the executor scans relations,
/// it does not hold store snapshots.
fn cached_series_is_not_executable() -> TempAggError {
    TempAggError::internal(
        "cached-series plans are served from a store snapshot, not executed over the relation",
    )
}

/// The error for a [`AlgorithmChoice::SweepJoin`] plan reaching the
/// single-relation executor: joins take two relations and run through
/// [`tempagg_algo::SweepJoinOperator`] in the SQL layer.
fn sweep_join_is_not_executable() -> TempAggError {
    TempAggError::internal(
        "sweep-join plans take two relations and run through the join operator, not the \
         single-relation executor",
    )
}

/// The error for a [`AlgorithmChoice::IndexProbe`] plan reaching the
/// executor: window probes run against the store's segment-tree index,
/// not over the relation.
fn index_probe_is_not_executable() -> TempAggError {
    TempAggError::internal(
        "index-probe plans are answered by the store's window index, not executed over the \
         relation",
    )
}

/// How the store's aggregate caches participated in answering a query.
/// All zeros/false when the query ran an algorithm over the relation
/// without store involvement.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// The result was served from an MVCC snapshot of a cached series —
    /// no relation scan ran at all.
    pub served_from_cache: bool,
    /// Constant-interval runs patched in place by incremental maintenance
    /// since the store last reported.
    pub patched_runs: u64,
    /// Dirty-window sweep recomputes (the Approximate-class fallback).
    pub recomputed_windows: u64,
    /// Cached series discarded wholesale (schema changes, explicit
    /// invalidation) rather than patched.
    pub invalidations: u64,
    /// Window probes answered by an already-warm segment-tree index.
    pub index_hits: u64,
    /// Window queries that had to build (or rebuild) an index first.
    pub index_misses: u64,
    /// Individual `O(log n)` index probes performed (a top-k query issues
    /// one per unpruned group; pruned groups never probe).
    pub index_probes: u64,
}

/// What happened during execution, for reporting and regression checks.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// The concrete algorithm that ran.
    pub algorithm: &'static str,
    /// Input tuples consumed.
    pub tuples: usize,
    /// Constant intervals produced.
    pub result_rows: usize,
    /// Wall-clock time of the scan + finish (excludes planning).
    pub elapsed: Duration,
    /// Peak state memory (summed across partitions when parallel).
    pub memory: MemoryStats,
    /// Whether the plan sorted the input first.
    pub presorted: bool,
    /// Workers the run used (1 = serial). For the list and the trees these
    /// are the domain partitions that actually ran — the plan's ask capped
    /// by how many seams the data supports; for the sweep, the threads its
    /// endpoint sort was allowed.
    pub parallelism: usize,
    /// Per-partition routing counts, worker busy time, and memory. Empty
    /// for a serial run and for the sweep, which never cuts the domain.
    pub partitions: Vec<PartitionReport>,
    /// Most result entries resident in executor-owned memory at once. A
    /// materialized run holds the whole series, so this equals
    /// `result_rows`; a streaming run holds at most one result chunk.
    pub peak_resident_result_entries: usize,
    /// Result chunks handed to the streaming consumer (0 when
    /// materialized).
    pub emitted_chunks: usize,
    /// Store cache participation (all-default when no store was involved;
    /// the store's query layer fills this in when it serves or maintains
    /// caches around an execution).
    pub cache: CacheReport,
}

/// Project a relation into executor-ready chunks, in storage order.
fn chunks_of<V, F>(relation: &TemporalRelation, extract: &F) -> Result<Vec<Chunk<V>>>
where
    F: Fn(&Tuple) -> V,
{
    let mut chunks = Vec::with_capacity(relation.len().div_ceil(DEFAULT_CHUNK_CAPACITY));
    for tuples in relation.tuples().chunks(DEFAULT_CHUNK_CAPACITY) {
        let mut chunk = Chunk::with_capacity(tuples.len());
        for tuple in tuples {
            chunk.push(tuple.valid(), extract(tuple))?;
        }
        chunks.push(chunk);
    }
    Ok(chunks)
}

/// The rows of `chunks` sorted totally by time (start, then end; equal
/// intervals keep their input order), re-chunked — the presort a
/// `KOrderedTree { presort: true }` plan prescribes.
fn sorted_chunks<V: Clone>(chunks: &[Chunk<V>]) -> Result<Vec<Chunk<V>>> {
    let mut rows: Vec<(Interval, &V)> = chunks.iter().flat_map(Chunk::iter).collect();
    rows.sort_by_key(|(interval, _)| (interval.start(), interval.end()));
    let mut sorted = Vec::with_capacity(chunks.len());
    for run in rows.chunks(DEFAULT_CHUNK_CAPACITY) {
        let mut chunk = Chunk::with_capacity(run.len());
        for (interval, value) in run {
            chunk.push(*interval, (*value).clone())?;
        }
        sorted.push(chunk);
    }
    Ok(sorted)
}

/// Seams cutting `domain` into up to `parallelism` pieces, drawn from the
/// even split of the hull of row *start* times — always finite, so an
/// unbounded domain (the usual `[0, ∞]` time-line) still partitions as
/// long as the data itself is bounded. Returns no seams (serial) when
/// there are no rows, all starts coincide, or `parallelism ≤ 1`.
fn data_seams<V>(chunks: &[Chunk<V>], domain: Interval, parallelism: usize) -> Vec<Timestamp> {
    if parallelism <= 1 {
        return Vec::new();
    }
    let mut starts = chunks.iter().flat_map(|c| c.starts().iter().copied());
    let Some(first) = starts.next() else {
        return Vec::new();
    };
    let (lo, hi) = starts.fold((first, first), |(lo, hi), s| (lo.min(s), hi.max(s)));
    // Clamp into the domain so every seam is interior to it.
    let lo = lo.max(domain.start());
    let hi = hi.min(domain.end());
    match Interval::new(lo, hi) {
        Ok(hull) => hull.even_seams(parallelism),
        Err(_) => Vec::new(),
    }
}

fn partitioned_name(choice: AlgorithmChoice) -> &'static str {
    match choice {
        AlgorithmChoice::LinkedList => "partitioned linked-list",
        AlgorithmChoice::AggregationTree => "partitioned aggregation-tree",
        // Never partitioned: the sweep sorts in-kernel, the rest never run here.
        AlgorithmChoice::Sweep
        | AlgorithmChoice::CachedSeries
        | AlgorithmChoice::SweepJoin
        | AlgorithmChoice::IndexProbe => choice.name(),
        AlgorithmChoice::KOrderedTree { presort: true, .. } => "partitioned sort + k-ordered-tree",
        AlgorithmChoice::KOrderedTree { presort: false, .. } => "partitioned k-ordered-tree",
    }
}

/// What a drive reports besides the entries it pushed into the sink.
struct Driven {
    algorithm: &'static str,
    memory: MemoryStats,
    parallelism: usize,
    partitions: Vec<PartitionReport>,
}

/// Push every chunk, draining whatever each one settled (the k-ordered
/// tree's GC; a no-op for the buffering algorithms) so results leave
/// executor memory as soon as they are final.
fn feed<A, G, S>(aggregator: &mut G, chunks: &[Chunk<A::Input>], sink: &mut S) -> Result<()>
where
    A: Aggregate,
    A::Input: Clone,
    G: TemporalAggregator<A>,
    S: SeriesSink<A::Output>,
{
    for chunk in chunks {
        aggregator.push_batch(chunk)?;
        aggregator.emit_ready(sink);
    }
    Ok(())
}

/// Run one aggregator over `chunks` and finish it into `sink`.
fn drive_one<A, G, S>(mut aggregator: G, chunks: &[Chunk<A::Input>], sink: &mut S) -> Result<Driven>
where
    A: Aggregate,
    A::Input: Clone,
    G: TemporalAggregator<A>,
    S: SeriesSink<A::Output>,
{
    feed(&mut aggregator, chunks, sink)?;
    let driven = Driven {
        algorithm: aggregator.algorithm(),
        memory: aggregator.memory(),
        parallelism: 1,
        partitions: Vec::new(),
    };
    aggregator.finish_into(sink);
    Ok(driven)
}

/// Run one push-time algorithm — `make(sub_domain)` builds it — over
/// `chunks` into `sink`: serially over the whole domain when the data
/// supports no seams, otherwise one instance per sub-domain, fed on
/// workers, with seam-aware stitching done inline (no per-partition series
/// is materialized).
fn drive<A, G, S>(
    make: impl Fn(Interval) -> G,
    choice: AlgorithmChoice,
    domain: Interval,
    parallelism: usize,
    chunks: &[Chunk<A::Input>],
    sink: &mut S,
) -> Result<Driven>
where
    A: Aggregate,
    A::Input: Clone + Send + Sync,
    A::Output: PartialEq + Send,
    G: TemporalAggregator<A> + Send,
    S: SeriesSink<A::Output>,
{
    let seams = data_seams(chunks, domain, parallelism);
    if seams.is_empty() {
        return drive_one(make(domain), chunks, sink);
    }
    let mut aggregator = PartitionedAggregator::with_seams(domain, seams, make)?;
    feed(&mut aggregator, chunks, sink)?;
    let partitions = aggregator.partition_reports();
    let driven = Driven {
        algorithm: partitioned_name(choice),
        memory: aggregator.memory(),
        parallelism: partitions.len(),
        partitions,
    };
    aggregator.finish_into(sink);
    Ok(driven)
}

/// A pass-through sink that counts what the algorithm emitted.
struct Counted<'a, S> {
    inner: &'a mut S,
    accepted: usize,
}

impl<T, S: SeriesSink<T>> SeriesSink<T> for Counted<'_, S> {
    fn accept(&mut self, interval: Interval, value: T) {
        self.accepted += 1;
        self.inner.accept(interval, value);
    }
}

/// Execute a plan over pre-extracted `chunks`, computing `agg` of each
/// row's input per constant interval of `domain` and pushing the
/// intervals, in time order, into the caller's `sink` — the entry point
/// [`execute_chunks`] (a collecting [`Series`]) and
/// [`execute_chunks_streaming`] (a bounded [`ChunkedSink`]) wrap, for
/// callers that turn entries into something else on the fly. The executor
/// holds no result entry itself, so the report's
/// `peak_resident_result_entries` and `emitted_chunks` are zero.
///
/// `the_plan.parallelism > 1` routes the list and the trees through the
/// domain-partitioned pipeline (seam-aware stitching, see
/// [`PartitionedAggregator`]) and gives the sweep that many sort threads;
/// the output is byte-identical to the serial run of the same algorithm. On
/// k-ordered input the k-ordered tree emits as it garbage-collects; the
/// buffering algorithms emit at the end.
pub fn execute_chunks_into<A, S>(
    the_plan: &Plan,
    agg: A,
    chunks: &[Chunk<A::Input>],
    domain: Interval,
    sink: &mut S,
) -> Result<ExecutionReport>
where
    A: SweepAggregate + Clone + Send,
    A::State: Send,
    A::Input: Clone + Send + Sync,
    A::Output: PartialEq + Send,
    S: SeriesSink<A::Output>,
{
    let sink = &mut Counted {
        inner: sink,
        accepted: 0,
    };
    let started = Instant::now();
    let choice = the_plan.choice;
    let mut presorted = false;
    let driven = match choice {
        AlgorithmChoice::LinkedList => drive(
            |sub| LinkedListAggregate::with_domain(agg.clone(), sub),
            choice,
            domain,
            the_plan.parallelism,
            chunks,
            sink,
        )?,
        AlgorithmChoice::AggregationTree => drive(
            |sub| AggregationTree::with_domain(agg.clone(), sub),
            choice,
            domain,
            the_plan.parallelism,
            chunks,
            sink,
        )?,
        // The sweep works at finish, where its sort runs on the plan's
        // workers in-kernel: one aggregator, no seams.
        AlgorithmChoice::Sweep => {
            let threads = the_plan.parallelism.max(1);
            let sweep = SweepAggregator::with_domain(agg, domain).with_parallelism(threads);
            Driven {
                parallelism: threads,
                ..drive_one(sweep, chunks, sink)?
            }
        }
        AlgorithmChoice::CachedSeries => return Err(cached_series_is_not_executable()),
        AlgorithmChoice::SweepJoin => return Err(sweep_join_is_not_executable()),
        AlgorithmChoice::IndexProbe => return Err(index_probe_is_not_executable()),
        AlgorithmChoice::KOrderedTree { k, presort } => {
            // Probe once so an invalid k errors before any instance builds.
            KOrderedAggregationTree::with_domain(agg.clone(), k, domain)?;
            let make = |sub| {
                KOrderedAggregationTree::with_domain(agg.clone(), k, sub)
                    // lint: allow(no-unwrap): k was validated by the probe construction just above
                    .expect("k validated above")
            };
            if presort {
                presorted = true;
                let sorted = sorted_chunks(chunks)?;
                drive(make, choice, domain, the_plan.parallelism, &sorted, sink)?
            } else {
                drive(make, choice, domain, the_plan.parallelism, chunks, sink)?
            }
        }
    };
    Ok(ExecutionReport {
        algorithm: driven.algorithm,
        tuples: chunks.iter().map(Chunk::len).sum(),
        result_rows: sink.accepted,
        elapsed: started.elapsed(),
        memory: driven.memory,
        presorted,
        parallelism: driven.parallelism,
        partitions: driven.partitions,
        peak_resident_result_entries: 0,
        emitted_chunks: 0,
        cache: CacheReport::default(),
    })
}

/// [`execute_chunks_into`] a collected [`Series`].
pub fn execute_chunks<A>(
    the_plan: &Plan,
    agg: A,
    chunks: &[Chunk<A::Input>],
    domain: Interval,
) -> Result<(Series<A::Output>, ExecutionReport)>
where
    A: SweepAggregate + Clone + Send,
    A::State: Send,
    A::Input: Clone + Send + Sync,
    A::Output: PartialEq + Send,
{
    let mut series = Series::new();
    let mut report = execute_chunks_into(the_plan, agg, chunks, domain, &mut series)?;
    // Materialized execution holds the full series before returning.
    report.peak_resident_result_entries = series.len();
    Ok((series, report))
}

/// [`execute_chunks_into`] in streaming mode: result entries are pushed
/// to `consumer` in fixed-size chunks of at most `chunk_capacity` entries
/// instead of being collected into a [`Series`], so executor-resident
/// result memory is bounded by one chunk regardless of how many constant
/// intervals the query produces.
///
/// The entries streamed to `consumer`, concatenated, are byte-identical
/// to the series [`execute_chunks`] returns for the same plan. On
/// k-ordered input the whole run is O(k + chunk) resident; the buffering
/// algorithms still hold their internal state but never a second
/// materialized copy of the result.
pub fn execute_chunks_streaming<A, C>(
    the_plan: &Plan,
    agg: A,
    chunks: &[Chunk<A::Input>],
    domain: Interval,
    chunk_capacity: usize,
    consumer: C,
) -> Result<ExecutionReport>
where
    A: SweepAggregate + Clone + Send,
    A::State: Send,
    A::Input: Clone + Send + Sync,
    A::Output: PartialEq + Send,
    C: FnMut(&[SeriesEntry<A::Output>]),
{
    let mut sink = ChunkedSink::new(chunk_capacity, consumer);
    let mut report = execute_chunks_into(the_plan, agg, chunks, domain, &mut sink)?;
    sink.flush();
    report.peak_resident_result_entries = sink.peak_resident();
    report.emitted_chunks = sink.chunks_emitted();
    Ok(report)
}

/// [`execute_chunks`] over `relation`, each tuple's input projected by
/// `extract`.
pub fn execute<A, F>(
    the_plan: &Plan,
    agg: A,
    relation: &TemporalRelation,
    extract: F,
    domain: Interval,
) -> Result<(Series<A::Output>, ExecutionReport)>
where
    A: SweepAggregate + Clone + Send,
    A::State: Send,
    A::Input: Clone + Send + Sync,
    A::Output: PartialEq + Send,
    F: Fn(&Tuple) -> A::Input,
{
    execute_chunks(the_plan, agg, &chunks_of(relation, &extract)?, domain)
}

/// [`execute_chunks_streaming`] over `relation`, each tuple's input
/// projected by `extract`.
pub fn execute_streaming<A, F, C>(
    the_plan: &Plan,
    agg: A,
    relation: &TemporalRelation,
    extract: F,
    domain: Interval,
    chunk_capacity: usize,
    consumer: C,
) -> Result<ExecutionReport>
where
    A: SweepAggregate + Clone + Send,
    A::State: Send,
    A::Input: Clone + Send + Sync,
    A::Output: PartialEq + Send,
    F: Fn(&Tuple) -> A::Input,
    C: FnMut(&[SeriesEntry<A::Output>]),
{
    let chunks = chunks_of(relation, &extract)?;
    execute_chunks_streaming(the_plan, agg, &chunks, domain, chunk_capacity, consumer)
}

/// One-call evaluation: measure statistics, plan per Section 6.3, execute.
/// Returns the result plus the plan and the execution report.
pub fn evaluate_auto<A, F>(
    agg: A,
    relation: &TemporalRelation,
    extract: F,
    config: &PlannerConfig,
    domain: Interval,
) -> Result<(Series<A::Output>, Plan, ExecutionReport)>
where
    A: SweepAggregate + Clone + Send,
    A::State: Send,
    A::Input: Clone + Send + Sync,
    A::Output: PartialEq + Send,
    F: Fn(&Tuple) -> A::Input,
{
    let stats = RelationStats::analyze(relation);
    let the_plan = plan(&stats, config, agg.state_model_bytes());
    let (series, report) = execute(&the_plan, agg, relation, extract, domain)?;
    Ok((series, the_plan, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OrderingKnowledge;
    use tempagg_agg::{AggKind, Count, DynAggregate, Min, MultiDyn, Sum, TypedInput, TypedMulti};
    use tempagg_algo::oracle::oracle;
    use tempagg_core::{Value, ValueType};
    use tempagg_workload::employed::{employed_relation, table1_expected};
    use tempagg_workload::{generate, WorkloadConfig};

    fn serial_plan(choice: AlgorithmChoice) -> Plan {
        Plan {
            choice,
            parallelism: 1,
            estimated_state_bytes: 0,
            rationale: vec![],
        }
    }

    #[test]
    fn every_choice_computes_table1() {
        let relation = employed_relation();
        let choices = [
            AlgorithmChoice::LinkedList,
            AlgorithmChoice::AggregationTree,
            AlgorithmChoice::Sweep,
            AlgorithmChoice::KOrderedTree {
                k: 4,
                presort: false,
            },
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: true,
            },
        ];
        for choice in choices {
            let p = serial_plan(choice);
            let (series, report) =
                execute(&p, Count, &relation, |_| (), Interval::TIMELINE).unwrap();
            let rows: Vec<(Interval, u64)> = series.iter().map(|e| (e.interval, e.value)).collect();
            assert_eq!(rows, table1_expected(), "choice {choice:?}");
            assert_eq!(report.tuples, 4);
            assert_eq!(report.result_rows, 7);
            assert_eq!(report.parallelism, 1);
            assert!(report.partitions.is_empty());
        }
    }

    /// `n` seeded rows over `[0, span)`, every 97th open-ended, in chunks
    /// of 1,000 with `input(v)` as each row's aggregate input.
    fn seeded_chunks<V>(n: usize, span: u64, input: impl Fn(i64) -> V) -> Vec<Chunk<V>> {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut step = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            i64::try_from(state % bound).unwrap()
        };
        let mut chunks = vec![Chunk::with_capacity(1_000)];
        for i in 0..n {
            let start = step(span);
            let valid = if i % 97 == 0 {
                Interval::from_start(start)
            } else {
                Interval::at(start, start + step(500))
            };
            if chunks.last().is_some_and(|chunk| chunk.len() == 1_000) {
                chunks.push(Chunk::with_capacity(1_000));
            }
            let chunk = chunks.last_mut().unwrap();
            chunk.push(valid, input(step(1_000) - 500)).unwrap();
        }
        chunks
    }

    /// Every choice at p ∈ {2, 4} returns the rows of its serial run — and
    /// every serial run the same rows — with a report that says what ran.
    fn assert_parallel_is_serial<A>(
        agg: &A,
        chunks: &[Chunk<A::Input>],
        choices: &[AlgorithmChoice],
    ) where
        A: SweepAggregate + Clone + Send,
        A::State: Send,
        A::Input: Clone + Send + Sync,
        A::Output: PartialEq + Send,
    {
        let tuples: usize = chunks.iter().map(Chunk::len).sum();
        let run = |choice, parallelism| {
            let p = Plan {
                parallelism,
                ..serial_plan(choice)
            };
            let mut rows = Series::new();
            let report =
                execute_chunks_into(&p, agg.clone(), chunks, Interval::TIMELINE, &mut rows)
                    .unwrap();
            (rows, report)
        };
        let (reference, _) = run(choices[0], 1);
        for &choice in choices {
            let what = format!("{} over {tuples} tuples, {choice:?}", agg.name());
            let (serial, report) = run(choice, 1);
            assert!(serial == reference, "{what}: serial rows differ");
            assert_eq!(report.parallelism, 1, "{what}");
            assert!(report.partitions.is_empty(), "{what}");
            for parallelism in [2usize, 4] {
                let (rows, report) = run(choice, parallelism);
                assert!(rows == serial, "{what} × {parallelism}: rows differ");
                assert_eq!(report.parallelism, parallelism, "{what}");
                if choice == AlgorithmChoice::Sweep {
                    // One kernel, sort threads from the plan: no seams.
                    assert_eq!(report.algorithm, "endpoint-sweep", "{what}");
                    assert!(report.partitions.is_empty(), "{what}");
                } else {
                    assert!(report.algorithm.starts_with("partitioned"), "{what}");
                    assert_eq!(report.partitions.len(), parallelism, "{what}");
                    let routed: usize = report.partitions.iter().map(|p| p.tuples).sum();
                    assert!(routed >= tuples, "{what}: clipped copies ≥ tuples");
                }
            }
        }
    }

    #[test]
    fn parallel_execution_is_byte_identical_to_serial() {
        let every = [
            AlgorithmChoice::Sweep,
            AlgorithmChoice::LinkedList,
            AlgorithmChoice::AggregationTree,
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: true,
            },
        ];
        // Dense: 768 tuples inside 1,000 instants, so the sweep lowers by
        // counting scatter (small, because `validate` re-walks the trees on
        // every insert). Sparse: 12,288 tuples over 10⁶ instants — two sort
        // buckets, so at p ≥ 2 the bucketed sort really runs on workers;
        // only the sweep takes it (the list is quadratic there, and the
        // trees' partitioned route does not depend on the regime).
        for (n, span, choices) in [(768, 1_000, &every[..]), (12_288, 1_000_000, &every[..1])] {
            assert_parallel_is_serial(&Count, &seeded_chunks(n, span, |_| ()), choices);
            assert_parallel_is_serial(&Sum::<i64>::new(), &seeded_chunks(n, span, |v| v), choices);
            assert_parallel_is_serial(&Min::<i64>::new(), &seeded_chunks(n, span, |v| v), choices);
            let members: Vec<DynAggregate> = [AggKind::CountStar, AggKind::Sum, AggKind::Min]
                .iter()
                .map(|kind| DynAggregate::new(*kind, ValueType::Int).unwrap())
                .collect();
            let typed = TypedMulti::lower(&members).unwrap();
            let typed_chunks = seeded_chunks(n, span, |v| {
                let mut input = TypedInput::default();
                input.set(1, v);
                input.set(2, v);
                input
            });
            assert_parallel_is_serial(&typed, &typed_chunks, choices);
            let dyn_chunks = seeded_chunks(n, span, |v| {
                vec![Value::Bool(true), Value::Int(v), Value::Int(v)]
            });
            assert_parallel_is_serial(&MultiDyn::new(members), &dyn_chunks, choices);
        }
    }

    #[test]
    fn parallel_ask_is_capped_by_the_data() {
        // An empty relation has no start hull: the pipeline stays serial
        // however much parallelism the plan asks for.
        let relation = TemporalRelation::new(employed_relation().schema().clone());
        let p = Plan {
            parallelism: 8,
            ..serial_plan(AlgorithmChoice::AggregationTree)
        };
        let (series, report) = execute(&p, Count, &relation, |_| (), Interval::TIMELINE).unwrap();
        assert_eq!(report.parallelism, 1);
        assert!(report.partitions.is_empty());
        assert_eq!(series.len(), 1);
    }

    #[test]
    fn auto_with_forced_parallelism_matches_oracle() {
        let relation = generate(&WorkloadConfig::random(1024));
        let config = PlannerConfig {
            parallelism: Some(4),
            parallel_min_tuples: 0,
            ..Default::default()
        };
        let (series, the_plan, report) =
            evaluate_auto(Count, &relation, |_| (), &config, Interval::TIMELINE).unwrap();
        assert_eq!(the_plan.parallelism, 4);
        assert!(report.parallelism > 1);
        let tuples: Vec<(Interval, ())> = relation.intervals().map(|iv| (iv, ())).collect();
        assert_eq!(series, oracle(&Count, Interval::TIMELINE, &tuples));
    }

    #[test]
    fn auto_on_random_relation_picks_tree_and_matches_oracle() {
        let relation = generate(&WorkloadConfig::random(512));
        let (series, plan, report) = evaluate_auto(
            Count,
            &relation,
            |_| (),
            &PlannerConfig::default(),
            Interval::TIMELINE,
        )
        .unwrap();
        assert_eq!(plan.choice, AlgorithmChoice::AggregationTree);
        // 512 tuples sit under the parallel threshold: serial execution.
        assert_eq!(plan.parallelism, 1);
        assert_eq!(report.algorithm, "aggregation-tree");
        let tuples: Vec<(Interval, ())> = relation.intervals().map(|iv| (iv, ())).collect();
        assert_eq!(series, oracle(&Count, Interval::TIMELINE, &tuples));
    }

    #[test]
    fn auto_on_sorted_relation_picks_k1() {
        let relation = generate(&WorkloadConfig::sorted(512));
        let (series, plan, report) = evaluate_auto(
            Count,
            &relation,
            |_| (),
            &PlannerConfig::default(),
            Interval::TIMELINE,
        )
        .unwrap();
        assert_eq!(
            plan.choice,
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: false
            }
        );
        assert!(report.memory.peak_nodes < 64);
        let tuples: Vec<(Interval, ())> = relation.intervals().map(|iv| (iv, ())).collect();
        assert_eq!(series, oracle(&Count, Interval::TIMELINE, &tuples));
    }

    #[test]
    fn auto_on_k_ordered_relation_uses_measured_k() {
        let relation = generate(&WorkloadConfig::k_ordered(2048, 16, 0.08));
        let (series, plan, _) = evaluate_auto(
            Count,
            &relation,
            |_| (),
            &PlannerConfig::default(),
            Interval::TIMELINE,
        )
        .unwrap();
        match plan.choice {
            AlgorithmChoice::KOrderedTree { k, presort: false } => assert!(k <= 16),
            other => panic!("expected k-ordered tree, got {other:?}"),
        }
        let tuples: Vec<(Interval, ())> = relation.intervals().map(|iv| (iv, ())).collect();
        assert_eq!(series, oracle(&Count, Interval::TIMELINE, &tuples));
    }

    #[test]
    fn presort_handles_unordered_input_under_budget() {
        let relation = generate(&WorkloadConfig::random(512));
        let stats = RelationStats::analyze(&relation).with_ordering(OrderingKnowledge::Unordered);
        let config = PlannerConfig {
            memory_budget_bytes: Some(1024),
            ..Default::default()
        };
        let p = plan(&stats, &config, 4);
        assert_eq!(
            p.choice,
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: true
            }
        );
        let (series, report) = execute(&p, Count, &relation, |_| (), Interval::TIMELINE).unwrap();
        assert!(report.presorted);
        assert!(report.memory.peak_model_bytes() <= 1024);
        let tuples: Vec<(Interval, ())> = relation.intervals().map(|iv| (iv, ())).collect();
        assert_eq!(series, oracle(&Count, Interval::TIMELINE, &tuples));
    }

    #[test]
    fn streaming_concatenation_equals_materialized_for_every_choice() {
        let relation = generate(&WorkloadConfig::random(1024));
        let choices = [
            AlgorithmChoice::LinkedList,
            AlgorithmChoice::AggregationTree,
            AlgorithmChoice::Sweep,
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: true,
            },
        ];
        for choice in choices {
            for parallelism in [1usize, 4] {
                let p = Plan {
                    parallelism,
                    ..serial_plan(choice)
                };
                let (series, materialized) =
                    execute(&p, Count, &relation, |_| (), Interval::TIMELINE).unwrap();
                let mut streamed = Vec::new();
                let report = execute_streaming(
                    &p,
                    Count,
                    &relation,
                    |_| (),
                    Interval::TIMELINE,
                    64,
                    |chunk| streamed.extend_from_slice(chunk),
                )
                .unwrap();
                assert_eq!(
                    streamed,
                    series.entries(),
                    "choice {choice:?} × {parallelism}"
                );
                assert_eq!(report.result_rows, materialized.result_rows);
                assert_eq!(report.algorithm, materialized.algorithm);
                assert!(report.peak_resident_result_entries <= 64);
                assert!(report.emitted_chunks >= series.len() / 64);
                // The materialized report holds the whole series.
                assert_eq!(
                    materialized.peak_resident_result_entries,
                    materialized.result_rows
                );
                assert_eq!(materialized.emitted_chunks, 0);
            }
        }
    }

    #[test]
    fn streaming_ktree_is_chunk_bounded_on_sorted_input() {
        for (relation, k) in [
            (generate(&WorkloadConfig::sorted(4096)), 1),
            (
                generate(&WorkloadConfig::k_ordered(4096, 16, 0.08).with_seed(1)),
                16,
            ),
        ] {
            let p = serial_plan(AlgorithmChoice::KOrderedTree { k, presort: false });
            let (series, _) = execute(&p, Count, &relation, |_| (), Interval::TIMELINE).unwrap();
            let mut rows = 0usize;
            let report = execute_streaming(
                &p,
                Count,
                &relation,
                |_| (),
                Interval::TIMELINE,
                256,
                |chunk| rows += chunk.len(),
            )
            .unwrap();
            assert_eq!(report.result_rows, rows);
            assert_eq!(rows, series.len(), "k = {k}");
            assert!(rows > 4_000);
            // Results drain as the tree finalises them, so residency stays
            // an order of magnitude below the materialized result size.
            assert!(
                10 * report.peak_resident_result_entries <= rows,
                "k = {k}: peak {} of {rows} rows should be chunk-bounded",
                report.peak_resident_result_entries
            );
        }
    }

    #[test]
    fn chunk_fed_execution_matches_relation_fed() {
        // Storage order matters to the presort: equal intervals must keep
        // it, exactly as `sorted_by_time` does.
        let relation = generate(&WorkloadConfig::random(3000));
        let salary = relation.schema().index_of("salary").unwrap();
        let extract = |t: &Tuple| t.value(salary).as_i64().unwrap();
        let chunks = chunks_of(&relation, &extract).unwrap();
        assert_eq!(chunks.iter().map(Chunk::len).sum::<usize>(), 3000);
        for choice in [
            AlgorithmChoice::Sweep,
            AlgorithmChoice::AggregationTree,
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: true,
            },
        ] {
            for parallelism in [1usize, 3] {
                let p = Plan {
                    parallelism,
                    ..serial_plan(choice)
                };
                let agg = Sum::<i64>::new();
                let (want, _) = execute(&p, agg, &relation, extract, Interval::TIMELINE).unwrap();
                let (got, report) = execute_chunks(&p, agg, &chunks, Interval::TIMELINE).unwrap();
                assert_eq!(got, want, "choice {choice:?} × {parallelism}");
                assert_eq!(report.tuples, 3000);
                assert_eq!(report.parallelism, parallelism);
                let mut streamed = Vec::new();
                execute_chunks_streaming(&p, agg, &chunks, Interval::TIMELINE, 100, |c| {
                    streamed.extend_from_slice(c);
                })
                .unwrap();
                assert_eq!(streamed, want.entries());
            }
        }
        // No chunks at all is the empty relation: one run over the domain.
        let none: [Chunk<i64>; 0] = [];
        let p = serial_plan(AlgorithmChoice::Sweep);
        let (series, report) =
            execute_chunks(&p, Sum::<i64>::new(), &none, Interval::TIMELINE).unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(report.tuples, 0);
    }

    #[test]
    fn presort_of_chunk_rows_is_the_relations_total_order() {
        let relation = generate(&WorkloadConfig::random(5000));
        let identity = |t: &Tuple| t.clone();
        let sorted = sorted_chunks(&chunks_of(&relation, &identity).unwrap()).unwrap();
        let rows: Vec<Tuple> = sorted
            .iter()
            .flat_map(|c| c.values().iter().cloned())
            .collect();
        assert_eq!(rows, relation.sorted_by_time().tuples());
    }

    #[test]
    fn cached_series_plans_are_not_executable() {
        let relation = employed_relation();
        for parallelism in [1usize, 4] {
            let p = Plan {
                parallelism,
                ..serial_plan(AlgorithmChoice::CachedSeries)
            };
            let err = execute(&p, Count, &relation, |_| (), Interval::TIMELINE);
            assert!(err.is_err(), "parallelism {parallelism}");
            let err =
                execute_streaming(&p, Count, &relation, |_| (), Interval::TIMELINE, 64, |_| {});
            assert!(err.is_err(), "streaming, parallelism {parallelism}");
        }
    }

    #[test]
    fn sweep_join_plans_are_not_executable() {
        let relation = employed_relation();
        for parallelism in [1usize, 4] {
            let p = Plan {
                parallelism,
                ..serial_plan(AlgorithmChoice::SweepJoin)
            };
            let err = execute(&p, Count, &relation, |_| (), Interval::TIMELINE);
            assert!(err.is_err(), "parallelism {parallelism}");
            let err =
                execute_streaming(&p, Count, &relation, |_| (), Interval::TIMELINE, 64, |_| {});
            assert!(err.is_err(), "streaming, parallelism {parallelism}");
        }
    }

    #[test]
    fn sum_through_the_executor() {
        let relation = employed_relation();
        let salary_idx = relation.schema().index_of("salary").unwrap();
        let p = serial_plan(AlgorithmChoice::AggregationTree);
        let (series, _) = execute(
            &p,
            Sum::<i64>::new(),
            &relation,
            |t| t.value(salary_idx).as_i64().unwrap(),
            Interval::TIMELINE,
        )
        .unwrap();
        // Over [18, 20]: 40K + 45K + 37K.
        assert_eq!(series.entries()[4].value, Some(122_000));
    }
}
