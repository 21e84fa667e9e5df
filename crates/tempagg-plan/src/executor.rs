//! Plan execution: drive the chosen algorithm over pre-extracted chunks.
//!
//! [`execute_chunks_into`] is the one drive. It consumes `(interval, input)`
//! rows already projected into [`Chunk`]s and feeds them through
//! [`TemporalAggregator::push_batch`], so every algorithm gets its batch
//! fast path (the linked list's binary-search insert, the tree's arena
//! reservation, the sweep's column append), and pushes the result into the
//! caller's [`SeriesSink`]: a [`Series`] collects it, a
//! [`ChunkedSink`](tempagg_core::ChunkedSink) streams it in bounded chunks,
//! SQL's row buffer turns it into rows. [`execute`] (a relation extracted
//! into chunks of [`DEFAULT_CHUNK_CAPACITY`], collected) and
//! [`evaluate_auto`] (§6.3's measure-plan-execute) are one-line wrappers.
//! A plan's `parallelism > 1` is spent where the chosen algorithm works,
//! which is what `cost.rs::parallelise` prices. The list and the trees work
//! at *push* time: the domain is cut at seams drawn from the hull of the
//! rows' *start* times (finite even when the domain or tuple ends are
//! unbounded) and each sub-domain runs its own inner aggregator on a scoped
//! worker via [`PartitionedAggregator`], byte-identical to the serial run.
//! The sweep works at *finish* time (its push is a column append) in a
//! linear sort and one replay, so it runs as one serial [`SweepAggregator`]
//! at any `parallelism`.

use crate::planner::{plan, AlgorithmChoice, Plan, PlannerConfig};
use crate::stats::RelationStats;
use tempagg_agg::{checked, Aggregate, SweepAggregate};
use tempagg_algo::{
    AggregationTree, KOrderedAggregationTree, LinkedListAggregate, MemoryStats, PartitionReport,
    PartitionedAggregator, SweepAggregator, TemporalAggregator,
};
use tempagg_core::{
    Chunk, Interval, Result, Series, SeriesSink, TempAggError, TemporalRelation, Timestamp, Tuple,
    DEFAULT_CHUNK_CAPACITY,
};

/// The error every entry point returns for a plan that does not scan one
/// relation: a cached series is served from a store snapshot, a sweep join
/// takes two relations and runs through the SQL layer's join operator, and
/// an index probe is answered by the store's window index.
fn not_executable(choice: AlgorithmChoice) -> TempAggError {
    TempAggError::internal(format!(
        "{} plans are not executed over a single relation",
        choice.name()
    ))
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
    /// Peak state memory (summed across partitions when parallel).
    pub memory: MemoryStats,
    /// Whether the plan sorted the input first.
    pub presorted: bool,
    /// Workers the run used (1 = serial): the domain partitions that
    /// actually ran — the plan's ask capped by how many seams the data
    /// supports. Always 1 for the sweep.
    pub parallelism: usize,
    /// Per-partition routing counts and memory. Empty for a serial run and
    /// for the sweep, which never cuts the domain.
    pub partitions: Vec<PartitionReport>,
}

impl ExecutionReport {
    /// What a drive knows once it has fed every chunk; the input and result
    /// counts are filled in by [`execute_chunks_into`].
    fn driven(
        algorithm: &'static str,
        memory: MemoryStats,
        partitions: Vec<PartitionReport>,
    ) -> Self {
        ExecutionReport {
            algorithm,
            tuples: 0,
            result_rows: 0,
            memory,
            presorted: false,
            parallelism: partitions.len().max(1),
            partitions,
        }
    }
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
        // Never partitioned: the sweep runs serially, the rest never run here.
        AlgorithmChoice::Sweep
        | AlgorithmChoice::CachedSeries
        | AlgorithmChoice::SweepJoin
        | AlgorithmChoice::IndexProbe => choice.name(),
        AlgorithmChoice::KOrderedTree { presort: true, .. } => "partitioned sort + k-ordered-tree",
        AlgorithmChoice::KOrderedTree { presort: false, .. } => "partitioned k-ordered-tree",
    }
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
fn drive_one<A, G, S>(
    mut aggregator: G,
    chunks: &[Chunk<A::Input>],
    sink: &mut S,
) -> Result<ExecutionReport>
where
    A: Aggregate,
    A::Input: Clone,
    G: TemporalAggregator<A>,
    S: SeriesSink<A::Output>,
{
    feed(&mut aggregator, chunks, sink)?;
    let report = ExecutionReport::driven(aggregator.algorithm(), aggregator.memory(), Vec::new());
    aggregator.finish_into(sink);
    Ok(report)
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
) -> Result<ExecutionReport>
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
    let report = ExecutionReport::driven(
        partitioned_name(choice),
        aggregator.memory(),
        aggregator.partition_reports(),
    );
    aggregator.finish_into(sink);
    Ok(report)
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
/// intervals, in time order, into the caller's `sink`. The executor holds
/// no result entry itself: what the sink keeps — all of it for a
/// [`Series`], one chunk for a bounded `ChunkedSink` — is what is
/// resident.
///
/// `the_plan.parallelism > 1` routes the list and the trees through the
/// domain-partitioned pipeline (seam-aware stitching, see
/// [`PartitionedAggregator`]), whose output is byte-identical to the serial
/// run of the same algorithm; the sweep always runs serially. On
/// k-ordered input the k-ordered tree emits as it garbage-collects; the
/// buffering algorithms emit at the end. An integer `SUM` whose exact total
/// over some constant interval leaves the `INT` range fails the run with
/// [`TempAggError::Overflow`].
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
    let mut counted = Counted {
        inner: sink,
        accepted: 0,
    };
    let sink = &mut counted;
    let choice = the_plan.choice;
    let parallelism = the_plan.parallelism;
    // A total out of range fails the run (see `tempagg_agg::checked`).
    let mut report = checked(|| -> Result<ExecutionReport> {
        Ok(match choice {
            AlgorithmChoice::LinkedList => drive(
                |sub| LinkedListAggregate::with_domain(agg.clone(), sub),
                choice,
                domain,
                parallelism,
                chunks,
                sink,
            )?,
            AlgorithmChoice::AggregationTree => drive(
                |sub| AggregationTree::with_domain(agg.clone(), sub),
                choice,
                domain,
                parallelism,
                chunks,
                sink,
            )?,
            // The sweep works at finish, in one linear sort and one replay: one
            // serial aggregator, no seams.
            AlgorithmChoice::Sweep => {
                drive_one(SweepAggregator::with_domain(agg, domain), chunks, sink)?
            }
            AlgorithmChoice::CachedSeries
            | AlgorithmChoice::SweepJoin
            | AlgorithmChoice::IndexProbe => return Err(not_executable(choice)),
            AlgorithmChoice::KOrderedTree { k, presort } => {
                // Probe once so an invalid k errors before any instance builds.
                KOrderedAggregationTree::with_domain(agg.clone(), k, domain)?;
                let make = |sub| {
                    KOrderedAggregationTree::with_domain(agg.clone(), k, sub)
                        // lint: allow(no-unwrap): k was validated by the probe construction just above
                        .expect("k validated above")
                };
                if presort {
                    let sorted = sorted_chunks(chunks)?;
                    ExecutionReport {
                        presorted: true,
                        ..drive(make, choice, domain, parallelism, &sorted, sink)?
                    }
                } else {
                    drive(make, choice, domain, parallelism, chunks, sink)?
                }
            }
        })
    })??;
    report.tuples = chunks.iter().map(Chunk::len).sum();
    report.result_rows = counted.accepted;
    Ok(report)
}

/// [`execute_chunks_into`] a collected [`Series`] over `relation`, each
/// tuple's input projected by `extract`.
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
    let mut series = Series::new();
    let chunks = chunks_of(relation, &extract)?;
    let report = execute_chunks_into(the_plan, agg, &chunks, domain, &mut series)?;
    Ok((series, report))
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
    let the_plan = plan(
        &RelationStats::analyze(relation),
        config,
        agg.state_model_bytes(),
    );
    let (series, report) = execute(&the_plan, agg, relation, extract, domain)?;
    Ok((series, the_plan, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OrderingKnowledge;
    use tempagg_agg::{AggKind, Count, DynAggregate, Min, MultiDyn, Sum, TypedInput, TypedMulti};
    use tempagg_algo::oracle::oracle;
    use tempagg_core::{ChunkedSink, SeriesEntry, Value, ValueType};
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
    /// every serial run the same rows — with a report that says what ran:
    /// partitions for the list and the trees, one serial kernel for the
    /// sweep.
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
                if choice == AlgorithmChoice::Sweep {
                    // One serial kernel whatever the plan asks: no seams.
                    assert_eq!(report.parallelism, 1, "{what}");
                    assert_eq!(report.algorithm, "endpoint-sweep", "{what}");
                    assert!(report.partitions.is_empty(), "{what}");
                } else {
                    assert_eq!(report.parallelism, parallelism, "{what}");
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
        // Dense: 768 tuples inside 1,000 instants, many events an instant
        // (small, because `validate` re-walks the trees on every insert).
        // Sparse: 12,288 tuples over 10⁶ instants — two sort buckets, so
        // the sweep's top-digit scatter runs; only the sweep takes it (the
        // list is quadratic there, and the trees' partitioned route does
        // not depend on the regime).
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
        let chunks = chunks_of(&relation, &|_: &Tuple| ()).unwrap();
        for choice in choices {
            for parallelism in [1usize, 4] {
                let p = Plan {
                    parallelism,
                    ..serial_plan(choice)
                };
                let (series, materialized) =
                    execute(&p, Count, &relation, |_| (), Interval::TIMELINE).unwrap();
                let mut streamed = Vec::new();
                let mut sink = ChunkedSink::new(64, |chunk: &[SeriesEntry<u64>]| {
                    streamed.extend_from_slice(chunk);
                });
                let report =
                    execute_chunks_into(&p, Count, &chunks, Interval::TIMELINE, &mut sink).unwrap();
                sink.flush();
                let (peak, emitted) = (sink.peak_resident(), sink.chunks_emitted());
                drop(sink);
                assert_eq!(
                    streamed,
                    series.entries(),
                    "choice {choice:?} × {parallelism}"
                );
                assert_eq!(report.result_rows, materialized.result_rows);
                assert_eq!(report.algorithm, materialized.algorithm);
                assert!(peak <= 64);
                assert!(emitted >= series.len() / 64);
                // The materialized run holds the whole series.
                assert_eq!(series.len(), materialized.result_rows);
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
            let chunks = chunks_of(&relation, &|_: &Tuple| ()).unwrap();
            let mut rows = 0usize;
            let mut sink = ChunkedSink::new(256, |chunk: &[SeriesEntry<u64>]| rows += chunk.len());
            let report =
                execute_chunks_into(&p, Count, &chunks, Interval::TIMELINE, &mut sink).unwrap();
            sink.flush();
            let peak = sink.peak_resident();
            drop(sink);
            assert_eq!(report.result_rows, rows);
            assert_eq!(rows, series.len(), "k = {k}");
            assert!(rows > 4_000);
            // Results drain as the tree finalises them, so residency stays
            // an order of magnitude below the materialized result size.
            assert!(
                10 * peak <= rows,
                "k = {k}: peak {peak} of {rows} rows should be chunk-bounded",
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
                let mut got = Series::new();
                let report =
                    execute_chunks_into(&p, agg, &chunks, Interval::TIMELINE, &mut got).unwrap();
                assert_eq!(got, want, "choice {choice:?} × {parallelism}");
                assert_eq!(report.tuples, 3000);
                let ran = if choice == AlgorithmChoice::Sweep {
                    1
                } else {
                    parallelism
                };
                assert_eq!(report.parallelism, ran, "choice {choice:?} × {parallelism}");
                let mut streamed = Vec::new();
                let mut sink = ChunkedSink::new(100, |c: &[SeriesEntry<Option<i128>>]| {
                    streamed.extend_from_slice(c);
                });
                execute_chunks_into(&p, agg, &chunks, Interval::TIMELINE, &mut sink).unwrap();
                sink.flush();
                drop(sink);
                assert_eq!(streamed, want.entries());
            }
        }
        // No chunks at all is the empty relation: one run over the domain.
        let none: [Chunk<i64>; 0] = [];
        let p = serial_plan(AlgorithmChoice::Sweep);
        let mut series = Series::new();
        let report = execute_chunks_into(
            &p,
            Sum::<i64>::new(),
            &none,
            Interval::TIMELINE,
            &mut series,
        )
        .unwrap();
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

    /// Neither entry point runs `choice`, at any parallelism, and the
    /// error names the plan that reached it.
    fn assert_not_executable(choice: AlgorithmChoice) {
        let relation = employed_relation();
        let chunks = chunks_of(&relation, &|_: &Tuple| ()).unwrap();
        for parallelism in [1usize, 4] {
            let p = Plan {
                parallelism,
                ..serial_plan(choice)
            };
            let err = execute(&p, Count, &relation, |_| (), Interval::TIMELINE).unwrap_err();
            assert!(
                err.to_string().contains(choice.name()),
                "parallelism {parallelism}: {err}"
            );
            let mut sink = ChunkedSink::new(64, |_: &[SeriesEntry<u64>]| {});
            let err = execute_chunks_into(&p, Count, &chunks, Interval::TIMELINE, &mut sink);
            assert!(err.is_err(), "streaming, parallelism {parallelism}");
            assert_eq!(sink.accepted(), 0, "streaming, parallelism {parallelism}");
        }
    }

    #[test]
    fn cached_series_plans_are_not_executable() {
        assert_not_executable(AlgorithmChoice::CachedSeries);
    }

    #[test]
    fn sweep_join_plans_are_not_executable() {
        assert_not_executable(AlgorithmChoice::SweepJoin);
    }

    #[test]
    fn index_probe_plans_are_not_executable() {
        assert_not_executable(AlgorithmChoice::IndexProbe);
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
