//! `scan_mix`: every statement shape is cache-ineligible, so `tempagg-sql`
//! bind/filter/group, `tempagg-plan` analyze + execute and the
//! `tempagg-algo` kernels do all the work; the store's caches and the
//! pager do none. The paper's own axes — ordering and long-lived share —
//! live here: `R` arrives in random order, `S` is the same tuples sorted
//! by start, and a fifth of them are long-lived.

use crate::check::{self, Digest};
use crate::gen::{self, Order, Rng, Row, LAST, SALARY};
use crate::json::Json;
use crate::run::{Config, Deadline, Recorder, Scale, Shape, Workload};
use crate::stats::median;
use crate::workloads::{chunks_of, load_table};
use std::hint::black_box;
use tempagg_agg::{AggKind, Aggregate, Count, Min, MultiDyn, Sum, SweepAggregate};
use tempagg_algo::{
    AggregationTree, JoinPredicate, KOrderedAggregationTree, LinkedListAggregate, SpanGrouper,
    SweepAggregator, SweepJoinOperator, TemporalAggregator,
};
use tempagg_core::{Chunk, Interval, TemporalRelation, Value};
use tempagg_plan::{
    choose_algorithm, estimate, AlgorithmChoice, CostModel, Plan, PlannerConfig, RelationStats,
};
use tempagg_sql::Catalog;

type Aggs = &'static [(AggKind, Option<usize>)];

const SUM_MIN: Aggs = &[(AggKind::Sum, Some(SALARY)), (AggKind::Min, Some(SALARY))];
const COUNT: Aggs = &[(AggKind::CountStar, None)];
const COUNT_MAX: Aggs = &[(AggKind::CountStar, None), (AggKind::Max, Some(SALARY))];
const AVG: Aggs = &[(AggKind::Avg, Some(SALARY))];
const COUNT_SUM: Aggs = &[(AggKind::CountStar, None), (AggKind::Sum, Some(SALARY))];
const SPAN: i64 = 10_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    FullMulti,
    FullSorted,
    Window10,
    Filter,
    GroupValue,
    GroupSpan,
    Join,
    Stream,
}

impl Kind {
    const fn shape(self) -> Shape {
        Shape::read(match self {
            Kind::FullMulti => "stmt.scan_full_multi",
            Kind::FullSorted => "stmt.scan_full_sorted",
            Kind::Window10 => "stmt.scan_window10",
            Kind::Filter => "stmt.scan_filter",
            Kind::GroupValue => "stmt.scan_group_value",
            Kind::GroupSpan => "stmt.scan_group_span",
            Kind::Join => "stmt.scan_join",
            Kind::Stream => "stmt.scan_stream",
        })
    }

    /// `Stream` sends `FullMulti`'s text through `execute_streaming_str`.
    const fn sql(self) -> &'static str {
        match self {
            Kind::FullMulti | Kind::Stream => {
                "SELECT SUM(salary), MIN(salary) FROM R WHERE VALID OVERLAPS [0, 999999]"
            }
            Kind::FullSorted => "SELECT COUNT(*) FROM S WHERE VALID OVERLAPS [0, 999999]",
            Kind::Window10 => {
                "SELECT COUNT(*), MAX(salary) FROM R WHERE VALID OVERLAPS [450000, 549999]"
            }
            Kind::Filter => "SELECT COUNT(*) FROM R WHERE salary > 90000 AND dept < 500",
            Kind::GroupValue => "SELECT AVG(salary) FROM R GROUP BY name",
            Kind::GroupSpan => {
                "SELECT COUNT(*), SUM(salary) FROM R WHERE VALID OVERLAPS [0, 999999] \
                 GROUP BY SPAN 10000"
            }
            Kind::Join => "SELECT * FROM R JOIN D ON OVERLAPS",
        }
    }
}

/// One round of the mix. `scan_full_multi` runs twice so that nine
/// statements make a round and the median statement sits in the middle of
/// one shape's latencies, not on the border between two shapes'.
const ROUND: [Kind; 9] = [
    Kind::FullMulti,
    Kind::FullMulti,
    Kind::FullSorted,
    Kind::Window10,
    Kind::Filter,
    Kind::GroupValue,
    Kind::GroupSpan,
    Kind::Join,
    Kind::Stream,
];

fn full_window() -> Interval {
    Interval::at(0, LAST)
}

fn window10() -> Interval {
    let (a, b) = gen::centred_window(10);
    Interval::at(a, b)
}

fn passes_filter(row: &Row) -> bool {
    row.salary > 90_000 && row.dept < 500
}

fn select(rows: &[Row], keep: impl Fn(&Row) -> bool) -> TemporalRelation {
    let kept: Vec<Row> = rows.iter().filter(|r| keep(r)).cloned().collect();
    gen::relation(&kept)
}

fn multi(aggs: Aggs) -> (MultiDyn, Vec<Option<usize>>) {
    (
        MultiDyn::new(aggs.iter().map(|(k, _)| check::dyn_agg(*k)).collect()),
        aggs.iter().map(|(_, c)| *c).collect(),
    )
}

#[derive(Debug)]
pub struct ScanMix {
    catalog: Catalog,
    r_rows: Vec<Row>,
    d_rows: Vec<Row>,
    order: Rng,
    /// Digest of every timed statement, for `verify`.
    digests: Vec<(Kind, Option<Digest>)>,
    /// Inputs of the replays, built at the first traced statement.
    replay: Option<ReplayInputs>,
}

/// What SQL's bind/filter/group step hands the planner and the kernels
/// for each shape, rebuilt here so the layer calls can be replayed on the
/// same inputs.
#[derive(Debug)]
struct ReplayInputs {
    full_r: TemporalRelation,
    full_s: TemporalRelation,
    window_r: TemporalRelation,
    filtered_r: TemporalRelation,
    by_name: Vec<TemporalRelation>,
    d: TemporalRelation,
    span_chunks: Vec<Chunk<Vec<Value>>>,
}

impl ReplayInputs {
    fn new(r_rows: &[Row], d_rows: &[Row]) -> ReplayInputs {
        let r = gen::relation(r_rows);
        ReplayInputs {
            full_r: check::clip(&r, full_window()),
            full_s: check::clip(&gen::relation(&gen::sorted_by_start(r_rows)), full_window()),
            window_r: check::clip(&r, window10()),
            filtered_r: select(r_rows, passes_filter),
            by_name: gen::NAMES
                .iter()
                .map(|name| select(r_rows, |r| r.name == *name))
                .collect(),
            d: gen::relation(d_rows),
            span_chunks: chunks_of(r_rows, |r| vec![Value::Bool(true), Value::Int(r.salary)]),
        }
    }
}

/// Replay the planner and executor calls an instant-grouped scan makes:
/// analyze the largest aggregation set, choose, then execute every set
/// under the plan SQL reported.
fn replay_plan(
    rec: &mut Recorder,
    parent: Option<u32>,
    aggs: Aggs,
    sets: &[&TemporalRelation],
    domain: Interval,
    plan: Option<Plan>,
) {
    let (agg, columns) = multi(aggs);
    let Some(largest) = sets.iter().max_by_key(|r| r.len()) else {
        return;
    };
    let stats = rec.replay(parent, "plan.analyze", largest.len() as u64, || {
        RelationStats::analyze(largest)
    });
    let chosen = rec.replay(parent, "plan.choose", 1, || {
        choose_algorithm(
            &stats,
            agg.sweep_class(),
            &PlannerConfig::default(),
            &CostModel::default(),
            agg.state_model_bytes().max(4),
        )
    });
    let plan = plan.unwrap_or(chosen);
    for set in sets {
        rec.replay(parent, "plan.execute", set.len() as u64, || {
            let series = tempagg_plan::execute(
                &plan,
                agg.clone(),
                set,
                check::extract_all(&columns),
                domain,
            )
            .expect("the replayed plan is the one SQL just ran");
            black_box(series.0.len())
        });
    }
}

fn join_pairs(left: &TemporalRelation, right: &TemporalRelation) -> usize {
    let mut op = SweepJoinOperator::new(JoinPredicate::Overlaps);
    for iv in left.intervals() {
        op.push_left(iv)
            .expect("generated tuples lie on the timeline");
    }
    for iv in right.intervals() {
        op.push_right(iv)
            .expect("generated tuples lie on the timeline");
    }
    op.finish().len()
}

/// Drive `aggregator` over pre-extracted column chunks and finish it.
fn drive<A, G>(mut aggregator: G, chunks: &[Chunk<A::Input>]) -> usize
where
    A: Aggregate,
    A::Input: Clone,
    G: TemporalAggregator<A>,
{
    for chunk in chunks {
        aggregator
            .push_batch(chunk)
            .expect("generated tuples lie in the aggregator's domain");
    }
    black_box(aggregator.finish().len())
}

impl ScanMix {
    fn one(&mut self, rec: &mut Recorder, kind: Kind) {
        let n = self.r_rows.len() as u64;
        if kind == Kind::Stream {
            let timed = rec.begin(kind.shape());
            let mut digest = Digest::default();
            let streamed = tempagg_sql::execute_streaming_str(&self.catalog, kind.sql(), |row| {
                digest.add_row(row.group.as_ref(), row.valid, &row.values);
            });
            rec.end(timed, n);
            if let Err(e) = &streamed {
                rec.fail(format!("scan_stream: {e}"));
            }
            self.digests
                .push((kind, streamed.is_ok().then_some(digest)));
            return;
        }
        let tuples = if kind == Kind::Join {
            n + self.d_rows.len() as u64
        } else {
            n
        };
        let done = rec.statement(kind.shape(), &mut self.catalog, kind.sql(), tuples);
        self.digests.push((kind, done.digest));
        if !rec.traced() {
            return;
        }
        let inputs = self
            .replay
            .get_or_insert_with(|| ReplayInputs::new(&self.r_rows, &self.d_rows));
        let parent = done.exec_span;
        let timeline = Interval::TIMELINE;
        match kind {
            Kind::FullMulti => replay_plan(
                rec,
                parent,
                SUM_MIN,
                &[&inputs.full_r],
                full_window(),
                done.plan,
            ),
            Kind::FullSorted => {
                replay_plan(
                    rec,
                    parent,
                    COUNT,
                    &[&inputs.full_s],
                    full_window(),
                    done.plan,
                );
            }
            Kind::Window10 => replay_plan(
                rec,
                parent,
                COUNT_MAX,
                &[&inputs.window_r],
                window10(),
                done.plan,
            ),
            Kind::Filter => {
                replay_plan(
                    rec,
                    parent,
                    COUNT,
                    &[&inputs.filtered_r],
                    timeline,
                    done.plan,
                );
            }
            Kind::GroupValue => {
                let sets: Vec<&TemporalRelation> = inputs.by_name.iter().collect();
                replay_plan(rec, parent, AVG, &sets, timeline, done.plan);
            }
            Kind::GroupSpan => {
                let (agg, _) = multi(COUNT_SUM);
                rec.replay(parent, "algo.span", n, || {
                    let grouper = SpanGrouper::new(agg, full_window(), SPAN)
                        .expect("a bounded window and a positive span");
                    drive(grouper, &inputs.span_chunks)
                });
            }
            Kind::Join => {
                for side in [&inputs.full_r, &inputs.d] {
                    rec.replay(parent, "plan.analyze", side.len() as u64, || {
                        black_box(RelationStats::analyze(side))
                    });
                }
                let pairs = done.digest.map_or(0, |d| d.rows);
                rec.replay(parent, "algo.join", pairs, || {
                    join_pairs(&inputs.full_r, &inputs.d)
                });
            }
            Kind::Stream => {}
        }
    }
}

impl Workload for ScanMix {
    const NAME: &'static str = "scan_mix";
    /// Nine statements a round and some tens of rounds a run: p75 is the
    /// highest rung that always has ten samples beyond it, and it sits
    /// inside one shape's latencies (the two `scan_full_multi` a round).
    const TAIL_RUNG: u32 = 750;
    const BLOCK: usize = 9;

    fn setup(config: &Config) -> ScanMix {
        let n = match config.scale {
            Scale::Full => 65_536,
            Scale::Smoke => 4_096,
        };
        let r_rows = gen::rows(&mut Rng::fork(config.seed, 1), n, 20, Order::Random);
        let d_rows = gen::rows_one_per_slot(&mut Rng::fork(config.seed, 2), 64);
        let mut catalog = Catalog::new();
        load_table(&mut catalog, "R", &r_rows);
        load_table(&mut catalog, "S", &gen::sorted_by_start(&r_rows));
        load_table(&mut catalog, "D", &d_rows);
        ScanMix {
            catalog,
            r_rows,
            d_rows,
            order: Rng::fork(config.seed, 3),
            digests: Vec::new(),
            replay: None,
        }
    }

    fn run(&mut self, rec: &mut Recorder, deadline: Deadline) {
        loop {
            let mut round = ROUND;
            self.order.shuffle(&mut round);
            for kind in round {
                self.one(rec, kind);
            }
            if deadline.passed() {
                return;
            }
        }
    }

    fn verify(&mut self, rec: &mut Recorder) {
        let r = gen::relation(&self.r_rows);
        let instant = |aggs: Aggs, rel: &TemporalRelation, domain: Interval| {
            let mut d = Digest::default();
            check::digest_series(
                &mut d,
                None,
                &check::reference_series(aggs, rel, domain),
                true,
            );
            d
        };
        // The reference is the aggregation tree; tie it to the O(n²)
        // definition on a prefix before trusting it on the whole relation.
        if !check::reference_matches_oracle(SUM_MIN, &r, full_window(), 2048) {
            rec.fail("the aggregation-tree reference disagrees with the oracle".into());
        }
        let full = instant(SUM_MIN, &r, full_window());
        // S holds R's tuples in another order, so R (random order, where
        // the tree stays balanced) gives S's expectation.
        let sorted = instant(COUNT, &r, full_window());
        let window = instant(COUNT_MAX, &r, window10());
        let filter = instant(
            COUNT,
            &select(&self.r_rows, passes_filter),
            Interval::TIMELINE,
        );
        let mut group_value = Digest::default();
        for name in gen::NAMES {
            let members = select(&self.r_rows, |r| r.name == name);
            if !members.is_empty() {
                check::digest_series(
                    &mut group_value,
                    Some(&Value::from(name)),
                    &check::reference_series(AVG, &members, Interval::TIMELINE),
                    true,
                );
            }
        }
        // Span grouping by definition: a tuple counts in every span it
        // overlaps.
        let mut group_span = Digest::default();
        for start in (0..=LAST).step_by(SPAN as usize) {
            let span = Interval::at(start, (start + SPAN - 1).min(LAST));
            let (mut count, mut sum) = (0i64, None::<i64>);
            for row in self.r_rows.iter().filter(|r| r.valid().overlaps(&span)) {
                count += 1;
                sum = Some(sum.unwrap_or(0) + row.salary);
            }
            let values = [Value::Int(count), sum.map_or(Value::Null, Value::Int)];
            group_span.add_row(None, span, &values);
        }
        // The join by definition: every overlapping pair, valid over the
        // intersection.
        let mut join = Digest::default();
        for left in &self.r_rows {
            for right in &self.d_rows {
                if let Some(valid) = left.valid().intersect(&right.valid()) {
                    let mut values = left.values();
                    values.extend(right.values());
                    join.add_row(None, valid, &values);
                }
            }
        }
        for (kind, got) in std::mem::take(&mut self.digests) {
            let want = match kind {
                Kind::FullMulti | Kind::Stream => full,
                Kind::FullSorted => sorted,
                Kind::Window10 => window,
                Kind::Filter => filter,
                Kind::GroupValue => group_value,
                Kind::GroupSpan => group_span,
                Kind::Join => join,
            };
            rec.expect(kind.shape().name(), got, want);
        }
    }

    fn probes(&mut self, rec: &mut Recorder, deadline: Deadline) {
        let n = self.r_rows.len();
        let s_rows = gen::sorted_by_start(&self.r_rows);
        let r_salary = chunks_of(&self.r_rows, |r| r.salary);
        let s_unit = chunks_of(&s_rows, |_| ());
        let list_rows = &self.r_rows[..n.min(8192)];
        let list_unit = chunks_of(list_rows, |_| ());
        let r_values = chunks_of(&self.r_rows, |r| {
            vec![Value::Int(r.salary), Value::Int(r.salary)]
        });
        let domain = full_window();
        let threads = crate::run::nproc();
        let tuples = n as u64;
        let sweep_sum = |threads: usize| {
            let agg = SweepAggregator::with_domain(Sum::<i64>::new(), domain);
            drive(agg.with_parallelism(threads), &r_salary)
        };

        // The kernels, on the columns extracted from R and S. (The span
        // and join kernels are replayed under their statements.)
        let (mut serial, mut parallel, mut dynamic, mut typed) = (vec![], vec![], vec![], vec![]);
        let mut passes = 0;
        while passes == 0 || (passes < 3 && !deadline.passed()) {
            passes += 1;
            serial.push(rec.probe("algo.sweep", || (sweep_sum(1), tuples)).1);
            rec.probe("algo.ktree", || {
                let tree = KOrderedAggregationTree::with_domain(Count, 1, domain)
                    .expect("k = 1 over a bounded domain");
                (drive(tree, &s_unit), tuples)
            });
            rec.probe("algo.aggtree", || {
                let tree = AggregationTree::with_domain(Sum::<i64>::new(), domain);
                (drive(tree, &r_salary), tuples)
            });
            rec.probe("algo.linked_list", || {
                let list = LinkedListAggregate::with_domain(Count, domain);
                (drive(list, &list_unit), list_rows.len() as u64)
            });
            // The same events sorted on every core the host has.
            parallel.push(
                rec.probe("algo.sweep_parallel", || (sweep_sum(threads), tuples))
                    .1,
            );
            // The value-erased product aggregate against its typed members.
            dynamic.push(
                rec.probe("agg.sweep_multidyn", || {
                    let agg = SweepAggregator::with_domain(multi(SUM_MIN).0, domain);
                    (drive(agg, &r_values), tuples)
                })
                .1,
            );
            typed.push(
                rec.probe("agg.sweep_typed", || {
                    let min = SweepAggregator::with_domain(Min::<i64>::new(), domain);
                    (sweep_sum(1) + drive(min, &r_salary), tuples)
                })
                .1,
            );
        }
        rec.value(
            "algo.partition_speedup",
            median(&serial) / median(&parallel),
        );
        rec.value("algo.threads_available", threads as f64);
        rec.value("agg.multidyn_over_typed", median(&dynamic) / median(&typed));

        // How good was the planner's choice? Time the chosen plan and
        // each forced candidate on R (whole) and on S's first 8,192
        // tuples (the aggregation tree is quadratic on sorted input —
        // which is why the planner is offered the choice), and score the
        // cost model's ordering of the candidates against the measured one.
        let r = gen::relation(&self.r_rows);
        let s_head = gen::relation(&s_rows[..n.min(8192)]);
        let candidates = [
            AlgorithmChoice::Sweep,
            AlgorithmChoice::AggregationTree,
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: true,
            },
        ];
        let model = CostModel::default();
        let (mut regret, mut agree, mut pairs) = (0.0f64, 0u32, 0u32);
        for (relation, aggs) in [(&r, SUM_MIN), (&s_head, COUNT)] {
            let clipped = check::clip(relation, domain);
            let (agg, columns) = multi(aggs);
            let state_bytes = agg.state_model_bytes().max(4);
            let stats = RelationStats::analyze(&clipped);
            let class = agg.sweep_class();
            let chosen = choose_algorithm(
                &stats,
                class,
                &PlannerConfig::default(),
                &model,
                state_bytes,
            );
            let mut time = |name: &'static str, plan: &Plan| {
                rec.probe(name, || {
                    let rows = tempagg_plan::execute(
                        plan,
                        agg.clone(),
                        &clipped,
                        check::extract_all(&columns),
                        domain,
                    )
                    .map_or(0, |(series, _)| series.len());
                    (black_box(rows), clipped.len() as u64)
                })
                .1
            };
            let chosen_ns = time("plan.chosen", &chosen);
            let forced: Vec<(f64, f64)> = candidates
                .iter()
                .map(|choice| {
                    let predicted =
                        estimate(*choice, &stats, &model, state_bytes, class).total(&model);
                    (predicted, time("plan.forced", &check::forced_plan(*choice)))
                })
                .collect();
            let fastest = forced.iter().map(|f| f.1).fold(chosen_ns, f64::min);
            regret = regret.max(chosen_ns / fastest);
            for (i, a) in forced.iter().enumerate() {
                for b in &forced[i + 1..] {
                    pairs += 1;
                    agree += u32::from((a.0 < b.0) == (a.1 < b.1));
                }
            }
        }
        rec.value("plan.regret", regret);
        rec.value("plan.rank_agreement", f64::from(agree) / f64::from(pairs));
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("R", Json::Num(self.r_rows.len() as f64)),
            ("S", Json::Num(self.r_rows.len() as f64)),
            ("D", Json::Num(self.d_rows.len() as f64)),
            ("long_lived_pct", Json::Num(20.0)),
            (
                "rows_checksum",
                Json::str(format!("{:016x}", gen::rows_checksum(&self.r_rows))),
            ),
        ])
    }
}
