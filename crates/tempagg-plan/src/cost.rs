//! An explicit cost model for the algorithms, and the cost-*based* planner
//! that ranks candidates numerically.
//!
//! Section 6.3 phrases algorithm choice as trade-offs ("depending on the
//! tradeoff between the cost of increased memory requirements and the cost
//! of disk access"); the rule-based [`crate::plan`] encodes its
//! conclusions directly, while this module derives them from first
//! principles — per-unit work counts following the asymptotics the paper
//! measures:
//!
//! * linked list: each tuple scans ~half the current cell list — `Θ(n·c)`;
//! * aggregation tree: `Θ(n log c)` node visits on random input, but
//!   `Θ(n²)` on sorted/near-sorted input (the linear-tree worst case);
//! * k-ordered tree: `Θ(n (log w + g))` for a window of `w` nodes;
//! * endpoint sweep: one `Θ(e)` radix sort of `e = 2n` events on time
//!   plus a branch-light linear merge scan;
//! * a pre-sort adds `Θ(n log n)` CPU plus one extra relation scan of I/O.
//!
//! The constant in front of each asymptotic term is a field of one
//! [`CostModel`], in units of one aggregation-tree node visit;
//! [`CostModel::default`] states them all.
//!
//! Every planner entry point ranks through one function (`rank`).
//! [`choose_algorithm`] scores the paper's three algorithms and adds the
//! endpoint-sweep kernel as a fourth candidate, gated on the aggregate's
//! [`SweepClass`]: floating-point retraction is inexact, so under
//! `Approximate` it ranks exactly the paper's candidates, and its agreement
//! with the rule-based [`crate::plan`] across the paper's scenarios is a
//! reproduction check. [`choose_window_algorithm`] and [`plan_join`] rank
//! their own pools the same way.
//!
//! What is priced is what runs: a candidate's parallel cost (`parallelise`)
//! is the cost of the route the executor takes for it — domain partitions
//! on workers for the list and the trees, whose work is at push time. The
//! sweep and the join run serially: their push is a column append and
//! their linear sort a small share of their finish (`executor.rs` module
//! docs).

use crate::planner::{AlgorithmChoice, Plan, PlannerConfig};
use crate::stats::{OrderingKnowledge, RelationStats};
use tempagg_agg::SweepClass;
use tempagg_algo::memory::{model_node_bytes, MODEL_POINTER_BYTES};

/// Relative cost weights. One aggregation-tree node visit is the unit;
/// the per-algorithm constants are the ratios of each algorithm's
/// per-unit work to that unit. I/O is charged per tuple per scan, heavily
/// weighted as disk I/O is orders of magnitude above any in-memory unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Cost of touching one linked-list cell (sequential scan: cheaper
    /// than a tree descent step).
    pub list_cell_visit: f64,
    /// Cost of touching one aggregation-tree node — the unit (1.0).
    pub tree_node_visit: f64,
    /// Cost of touching one k-ordered-tree node (the 2k+1 window stays
    /// cache-resident, so visits are cheaper than cold tree descents).
    pub ktree_node_visit: f64,
    /// Sort cost per endpoint event: the sweep's and the join's radix
    /// sort on time is linear, so each of the `e = 2n` events is charged
    /// once.
    pub sweep_sort_per_event: f64,
    /// Cost of applying one endpoint event in the sweep's merge scan
    /// (delta add/subtract for `SweepClass::Delta` aggregates).
    pub sweep_event_visit: f64,
    /// Multiplier on [`sweep_event_visit`](Self::sweep_event_visit) for
    /// `SweepClass::Ordered` aggregates, whose active set is a sorted
    /// multiset rather than a running delta.
    pub ordered_active_multiplier: f64,
    /// Cost of reading one tuple from storage, per scan (the legacy
    /// per-tuple I/O charge, used when nothing is known about the
    /// relation's page layout).
    pub io_per_tuple: f64,
    /// Cost of reading one page from a paged backing file. When
    /// [`RelationStats::pages`] is known, scans are charged per page
    /// actually read (fence pruning shrinks that count) instead of per
    /// tuple.
    pub page_read: f64,
    /// CPU cost multiplier for comparison-sorting one *tuple* in a
    /// presort (× log₂ n; tuples are wider than the sweep's bare events).
    pub sort_per_tuple: f64,
    /// Cost charged per byte of peak algorithm state (models memory
    /// pressure; 0 when memory is free).
    pub per_state_byte: f64,
    /// Fixed cost (in node-visit units) of each domain partition in the
    /// parallel pipeline: worker setup, tuple clipping, and seam
    /// stitching. Gates how many ways a plan splits.
    pub partition_overhead: f64,
    /// Cost of touching one window-index node during a probe's
    /// partial-overlap descent (a window probe folds ≤ `2 log₂ runs` of
    /// them).
    pub index_probe_visit: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            list_cell_visit: 0.5,
            tree_node_visit: 1.0,
            ktree_node_visit: 0.35,
            sweep_sort_per_event: 1.3,
            sweep_event_visit: 0.1,
            ordered_active_multiplier: 8.0,
            io_per_tuple: 50.0,
            page_read: 200.0,
            sort_per_tuple: 2.0,
            per_state_byte: 0.0,
            partition_overhead: 5_000.0,
            index_probe_visit: 1.25,
        }
    }
}

/// A scored candidate plan.
#[derive(Clone, Debug, PartialEq)]
pub struct CostEstimate {
    pub choice: AlgorithmChoice,
    pub cpu: f64,
    pub io: f64,
    pub state_bytes: usize,
}

impl CostEstimate {
    /// Total weighted cost. Zero state bytes cost zero memory at any
    /// `per_state_byte`, an infinite one included.
    pub fn total(&self, model: &CostModel) -> f64 {
        let memory = match self.state_bytes {
            0 => 0.0,
            bytes => bytes as f64 * model.per_state_byte,
        };
        self.cpu + self.io + memory
    }
}

fn log2(x: f64) -> f64 {
    x.max(2.0).log2()
}

/// Is the relation's ordering effectively sorted for tree-degeneration
/// purposes?
fn near_sorted(stats: &RelationStats) -> bool {
    matches!(
        stats.ordering,
        OrderingKnowledge::Sorted
            | OrderingKnowledge::KOrdered { .. }
            | OrderingKnowledge::RetroactivelyBounded { .. }
    )
}

/// Estimate the cost of one candidate. `class` only affects the
/// [`AlgorithmChoice::Sweep`] arm: `Ordered` aggregates pay the sorted
/// multiset multiplier, and `Approximate` ones a prohibitive penalty
/// (selection gates them out of the candidate set anyway).
pub fn estimate(
    choice: AlgorithmChoice,
    stats: &RelationStats,
    model: &CostModel,
    state_model_bytes: usize,
    class: SweepClass,
) -> CostEstimate {
    let n = stats.tuple_count.max(1) as f64;
    let cells = stats.unique_timestamps_or_default().max(1) as f64;
    let node_bytes = model_node_bytes(state_model_bytes);
    // One relation scan: per page actually read when the page layout is
    // known (fence pruning shrinks that count), per tuple otherwise.
    let scan_io = match stats.pages {
        Some(pages) => {
            let read = stats.pages_in_window.unwrap_or(pages).min(pages);
            read.max(1) as f64 * model.page_read
        }
        None => n * model.io_per_tuple,
    };

    let (cpu, io, state_bytes) = match choice {
        AlgorithmChoice::LinkedList => {
            // Result-size cap from the query, if declared.
            let effective_cells = stats
                .expected_result_intervals
                .map_or(cells, |r| r as f64)
                .max(1.0);
            (
                n * effective_cells / 2.0 * model.list_cell_visit,
                scan_io,
                (effective_cells as usize + 1) * node_bytes,
            )
        }
        AlgorithmChoice::AggregationTree => {
            let nodes = 2.0 * cells + 1.0;
            let cpu = if near_sorted(stats) {
                // Linear tree: the i-th insert walks ~i nodes.
                n * n / 2.0 * model.tree_node_visit
            } else {
                n * log2(nodes) * model.tree_node_visit
            };
            (cpu, scan_io, nodes as usize * node_bytes)
        }
        AlgorithmChoice::Sweep => {
            let events = 2.0 * n;
            let event_visit = match class {
                SweepClass::Delta => model.sweep_event_visit,
                SweepClass::Ordered => model.sweep_event_visit * model.ordered_active_multiplier,
                // Never a real candidate (retraction would drift); keep the
                // estimate finite so direct calls still sort cleanly.
                SweepClass::Approximate => model.sweep_event_visit * 1e9,
            };
            let cpu = events * (model.sweep_sort_per_event + event_visit);
            // State is the buffered columnar runs themselves: two
            // timestamps (one model pointer's worth) plus the value per
            // tuple — the sweep holds no per-cell nodes.
            let run_bytes = MODEL_POINTER_BYTES + state_model_bytes;
            (cpu, scan_io, stats.tuple_count.max(1) * run_bytes)
        }
        AlgorithmChoice::SweepJoin => {
            // Both relations' endpoints co-sorted into one event array
            // (`stats` carries the combined tuple count); each admit then
            // enumerates the other side's live set, which behaves like the
            // ordered-class active set rather than a delta update.
            let events = 2.0 * n;
            let cpu = events
                * (model.sweep_sort_per_event
                    + model.sweep_event_visit * model.ordered_active_multiplier);
            let run_bytes = MODEL_POINTER_BYTES + state_model_bytes;
            (cpu, scan_io, stats.tuple_count.max(1) * run_bytes)
        }
        AlgorithmChoice::KOrderedTree { k, presort } => {
            let window_nodes = (4 * (2 * k + 1) + 1) as f64 + stats.long_lived_fraction * n * 2.0;
            let mut cpu = n * (log2(window_nodes) + 2.0) * model.ktree_node_visit;
            let mut io = scan_io;
            if presort {
                cpu += n * log2(n) * model.sort_per_tuple;
                io += scan_io; // write + re-read of the sorted run
            }
            (cpu, io, window_nodes as usize * node_bytes)
        }
        AlgorithmChoice::CachedSeries => match stats.cached_series {
            // Serving reads the already-maintained runs: no relation scan,
            // no algorithm state — just one pass over the cached series.
            Some(info) => (info.runs.max(1) as f64 * model.sweep_event_visit, 0.0, 0),
            // No cache exists; keep the estimate finite but prohibitive so
            // direct calls still rank cleanly (selection never offers this
            // candidate without a cache).
            None => (n * model.tree_node_visit * 1e9, scan_io, 0),
        },
        AlgorithmChoice::IndexProbe => match stats.cached_series {
            // A window probe resolves two edge leaves and folds at most
            // 2 log₂ runs interior nodes of the cached series' index: no
            // relation scan, no per-query state (the index lives in the
            // store with the cache it shadows).
            Some(info) => {
                let descents = 2.0 * log2(info.runs.max(1) as f64);
                (descents * model.index_probe_visit, 0.0, 0)
            }
            // No cache means no index to probe; prohibitive, like
            // CachedSeries without a cache.
            None => (n * model.tree_node_visit * 1e9, scan_io, 0),
        },
    };
    CostEstimate {
        choice,
        cpu,
        io,
        state_bytes,
    }
}

/// Enumerate the paper's sensible candidates for a relation.
fn candidates(stats: &RelationStats) -> Vec<AlgorithmChoice> {
    let mut out = vec![
        AlgorithmChoice::LinkedList,
        AlgorithmChoice::AggregationTree,
        AlgorithmChoice::KOrderedTree {
            k: 1,
            presort: true,
        },
    ];
    match stats.ordering {
        OrderingKnowledge::Sorted => out.push(AlgorithmChoice::KOrderedTree {
            k: 1,
            presort: false,
        }),
        OrderingKnowledge::KOrdered { k }
        | OrderingKnowledge::RetroactivelyBounded { equivalent_k: k } => {
            out.push(AlgorithmChoice::KOrderedTree {
                k: k.max(1),
                presort: false,
            });
        }
        _ => {}
    }
    out
}

/// Re-cost a serial estimate at the cheapest achievable degree of
/// parallelism `≤ max_p`, returning the adjusted estimate and the chosen
/// worker count: the `p` minimising `cpu / p + p · partition_overhead`,
/// where a split is only taken when it is strictly cheaper than running
/// serially. The list and the trees parallelise through the partitioned
/// pipeline, so all their CPU divides. The sweep and the join run as one
/// serial kernel (`execute_chunks_into` for a `Sweep` plan, `statement.rs`
/// for a `SweepJoin` one), and serving a cached snapshot or probing an
/// index never partitions.
fn parallelise(est: CostEstimate, model: &CostModel, max_p: usize) -> (CostEstimate, usize) {
    if matches!(
        est.choice,
        AlgorithmChoice::CachedSeries
            | AlgorithmChoice::IndexProbe
            | AlgorithmChoice::Sweep
            | AlgorithmChoice::SweepJoin
    ) {
        return (est, 1);
    }
    let mut best = (est.cpu, 1);
    for p in 2..=max_p {
        let cost = est.cpu / p as f64 + p as f64 * model.partition_overhead;
        if cost < best.0 {
            best = (cost, p);
        }
    }
    (CostEstimate { cpu: best.0, ..est }, best.1)
}

/// Rank `pool` under the cost model, honouring the memory budget, and
/// wrap the winner in a [`Plan`] whose rationale records every score.
/// Each candidate is costed at its own best achievable degree of
/// parallelism *before* ranking, so a partitioned tree can beat a
/// serially-cheaper candidate when workers are available.
fn rank(
    pool: Vec<AlgorithmChoice>,
    stats: &RelationStats,
    config: &PlannerConfig,
    model: &CostModel,
    state_model_bytes: usize,
    class: SweepClass,
) -> Plan {
    // The configured (or machine) worker count is an upper bound; the
    // overhead model decides, per candidate, how much of it pays off.
    let max_p = crate::planner::choose_parallelism(stats, config);
    let score = |choices: Vec<AlgorithmChoice>| -> Vec<(CostEstimate, usize)> {
        choices
            .into_iter()
            .map(|c| {
                let serial = estimate(c, stats, model, state_model_bytes, class);
                parallelise(serial, model, max_p)
            })
            .collect()
    };
    let mut scored: Vec<(CostEstimate, usize)> = score(pool.clone())
        .into_iter()
        .filter(|(e, _)| {
            config
                .memory_budget_bytes
                .map_or(true, |budget| e.state_bytes <= budget)
        })
        .collect();
    // The linked list always fits some budget; if everything got filtered,
    // fall back to the smallest-state candidate.
    if scored.is_empty() {
        scored = score(pool);
        scored.sort_by_key(|(e, _)| e.state_bytes);
        scored.truncate(1);
    }
    scored.sort_by(|(a, _), (b, _)| a.total(model).total_cmp(&b.total(model)));
    let (best, parallelism) = scored[0].clone();
    let mut rationale: Vec<String> = scored
        .iter()
        .map(|(e, p)| {
            format!(
                "{}: cpu {:.0}, io {:.0}, state {} B, total {:.0}{}",
                e.choice.name(),
                e.cpu,
                e.io,
                e.state_bytes,
                e.total(model),
                if *p > 1 {
                    format!(" (at p = {p})")
                } else {
                    String::new()
                }
            )
        })
        .collect();
    if parallelism > 1 {
        rationale.push(format!(
            "splitting the work {parallelism} ways pays its {:.0} partition overhead",
            parallelism as f64 * model.partition_overhead
        ));
    }
    if let Some(pages) = stats.pages {
        rationale.push(match stats.pages_in_window {
            Some(read) if read < pages => {
                format!("reads {read} of {pages} pages (fence-pruned)")
            }
            _ => format!("reads all {pages} pages (no fence pruning applies)"),
        });
    }
    if let Some((read, total)) = stats.overflow_pages {
        rationale.push(format!(
            "of which the overflow lane of long-lived tuples: {read} of {total} pages"
        ));
    }
    Plan {
        choice: best.choice,
        parallelism,
        estimated_state_bytes: best.state_bytes,
        rationale,
    }
}

/// Full cost-based algorithm selection: the paper's three algorithms plus
/// the columnar endpoint-sweep kernel, chosen from the relation's size and
/// sortedness and the aggregate's [`SweepClass`] (its retraction
/// behaviour). `Approximate` aggregates — floating-point sums and
/// averages, variance — never sweep, because retracting their active state
/// drifts, so they rank exactly the paper's candidates; everything else
/// competes with the sweep on modelled cost. When
/// [`RelationStats::cached_series`] reports a store-maintained cache of
/// the queried aggregate, [`AlgorithmChoice::CachedSeries`] joins the
/// pool — serving an MVCC snapshot costs one pass over the cached runs
/// and zero I/O, so it wins whenever a cache exists.
///
/// ```
/// use tempagg_agg::SweepClass;
/// use tempagg_plan::{
///     choose_algorithm, AlgorithmChoice, CostModel, OrderingKnowledge, PlannerConfig,
///     RelationStats,
/// };
///
/// let stats = RelationStats::unknown(100_000).with_ordering(OrderingKnowledge::Unordered);
/// // The choice moves with the worker count (DESIGN.md §10), so pin it.
/// let two_workers = PlannerConfig {
///     parallelism: Some(2),
///     ..PlannerConfig::default()
/// };
/// let plan = choose_algorithm(
///     &stats,
///     SweepClass::Delta,
///     &two_workers,
///     &CostModel::default(),
///     4,
/// );
/// assert_eq!(plan.choice, AlgorithmChoice::Sweep);
/// assert!(plan.to_string().starts_with("algorithm: endpoint-sweep"));
/// ```
pub fn choose_algorithm(
    stats: &RelationStats,
    class: SweepClass,
    config: &PlannerConfig,
    model: &CostModel,
    state_model_bytes: usize,
) -> Plan {
    let mut pool = candidates(stats);
    let sweep_eligible = class != SweepClass::Approximate;
    if sweep_eligible {
        pool.push(AlgorithmChoice::Sweep);
    }
    if stats.cached_series.is_some() {
        pool.push(AlgorithmChoice::CachedSeries);
    }
    let mut plan = rank(pool, stats, config, model, state_model_bytes, class);
    if let Some(info) = stats.cached_series {
        plan.rationale.push(format!(
            "store maintains this aggregate incrementally: {} cached runs at epoch {} can be \
             served as an MVCC snapshot without scanning",
            info.runs, info.epoch
        ));
    }
    plan.rationale.push(match class {
        SweepClass::Delta => "aggregate retracts exactly (delta class): sweep eligible".into(),
        SweepClass::Ordered => {
            "aggregate retracts via a sorted multiset (ordered class): sweep eligible at a \
             multiplier"
                .into()
        }
        SweepClass::Approximate => {
            "aggregate does not retract exactly (approximate class): endpoint sweep excluded".into()
        }
    });
    plan
}

/// Algorithm selection for *window* queries (`... OVER [t1, t2)`): when a
/// warm cache exists and the aggregate is indexable (exact integer
/// combine — the delta `COUNT`/`SUM` family and the ordered `MIN`/`MAX`;
/// `Approximate` aggregates are not, because tree-order float summation
/// would not be byte-identical to a scan), the store's segment-tree
/// window index competes with a linear pass over the cached series and
/// wins once the series has enough runs for `O(log n)` to beat `O(n)`.
/// Without a warm cache (or for unindexable aggregates) selection falls
/// back to [`choose_algorithm`] — fence-pruned paged scan, sweep, or a
/// tree — to compute the series that a linear window scan then reduces.
pub fn choose_window_algorithm(
    stats: &RelationStats,
    class: SweepClass,
    indexable: bool,
    config: &PlannerConfig,
    model: &CostModel,
    state_model_bytes: usize,
) -> Plan {
    if stats.cached_series.is_some() && indexable {
        let pool = vec![AlgorithmChoice::IndexProbe, AlgorithmChoice::CachedSeries];
        let mut plan = rank(pool, stats, config, model, state_model_bytes, class);
        if let Some(info) = stats.cached_series {
            plan.rationale.push(format!(
                "window query over a warm cache: the segment-tree index answers in \
                 ≤ 2·log₂({}) node folds instead of a {}-run linear scan",
                info.runs.max(1),
                info.runs
            ));
        }
        plan
    } else {
        let mut plan = choose_algorithm(stats, class, config, model, state_model_bytes);
        plan.rationale.push(if stats.cached_series.is_none() {
            "window query with no warm cache: compute the series first, then reduce the \
             window linearly"
                .into()
        } else {
            "window query on an unindexable aggregate (inexact float combine): linear window \
             reduction over the cached series"
                .into()
        });
        plan
    }
}

/// Price a sweep-based interval join of two relations. The sweep join is
/// currently the only join operator, so this prescribes rather than
/// chooses: it ranks that one candidate — a serial radix sort of
/// `2·(nₗ + nᵣ)` endpoint events plus the live-set enumeration scan — and
/// its rationale feeds the SQL layer's `EXPLAIN`.
pub fn plan_join(
    left: &RelationStats,
    right: &RelationStats,
    config: &PlannerConfig,
    model: &CostModel,
) -> Plan {
    let combined = RelationStats::unknown(left.tuple_count + right.tuple_count);
    let mut plan = rank(
        vec![AlgorithmChoice::SweepJoin],
        &combined,
        config,
        model,
        MODEL_POINTER_BYTES,
        SweepClass::Delta,
    );
    plan.rationale.insert(
        0,
        format!(
            "co-sorts {} endpoint events from both sides into one sweep",
            2 * combined.tuple_count
        ),
    );
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan;
    use crate::stats::RelationStats;

    fn stats(n: usize, ordering: OrderingKnowledge) -> RelationStats {
        RelationStats::unknown(n).with_ordering(ordering)
    }

    /// The paper's candidates only: an approximate aggregate never sweeps.
    fn paper_plan(stats: &RelationStats, config: &PlannerConfig, model: &CostModel) -> Plan {
        choose_algorithm(stats, SweepClass::Approximate, config, model, 4)
    }

    fn cost_choice(stats: &RelationStats) -> AlgorithmChoice {
        paper_plan(stats, &PlannerConfig::default(), &CostModel::default()).choice
    }

    /// The worker count the default constants were fitted on. The list and
    /// the trees split across workers and the sweep does not, so which of
    /// them wins moves with the worker count;
    /// `choices_move_at_the_documented_worker_counts` pins where.
    fn two_workers() -> PlannerConfig {
        PlannerConfig {
            parallelism: Some(2),
            ..PlannerConfig::default()
        }
    }

    fn full_choice(stats: &RelationStats, class: SweepClass) -> AlgorithmChoice {
        choose_algorithm(stats, class, &two_workers(), &CostModel::default(), 4).choice
    }

    #[test]
    fn agrees_with_rules_on_random_input() {
        let s = stats(10_000, OrderingKnowledge::Unordered);
        assert_eq!(cost_choice(&s), AlgorithmChoice::AggregationTree);
        assert_eq!(
            plan(&s, &PlannerConfig::default(), 4).choice,
            cost_choice(&s)
        );
    }

    #[test]
    fn agrees_with_rules_on_sorted_input() {
        let s = stats(10_000, OrderingKnowledge::Sorted);
        assert_eq!(
            cost_choice(&s),
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: false
            }
        );
        assert_eq!(
            plan(&s, &PlannerConfig::default(), 4).choice,
            cost_choice(&s)
        );
    }

    #[test]
    fn agrees_with_rules_on_k_ordered_input() {
        let s = stats(10_000, OrderingKnowledge::KOrdered { k: 40 });
        assert_eq!(
            cost_choice(&s),
            AlgorithmChoice::KOrderedTree {
                k: 40,
                presort: false
            }
        );
    }

    #[test]
    fn tiny_results_favour_the_linked_list() {
        let s = stats(100_000, OrderingKnowledge::Unordered).with_expected_result_intervals(12);
        assert_eq!(cost_choice(&s), AlgorithmChoice::LinkedList);
    }

    #[test]
    fn sorted_input_never_gets_the_plain_tree() {
        // The n² estimate must dominate every realistic alternative.
        for n in [1_000usize, 10_000, 100_000] {
            let s = stats(n, OrderingKnowledge::Sorted);
            assert_ne!(cost_choice(&s), AlgorithmChoice::AggregationTree, "n = {n}");
        }
    }

    #[test]
    fn memory_budget_excludes_the_tree() {
        let s = stats(10_000, OrderingKnowledge::Unordered);
        let config = PlannerConfig {
            memory_budget_bytes: Some(10_000),
            ..Default::default()
        };
        let p = paper_plan(&s, &config, &CostModel::default());
        assert_eq!(
            p.choice,
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: true
            }
        );
        assert!(p.estimated_state_bytes <= 10_000);
    }

    #[test]
    fn charging_for_memory_prefers_the_ktree() {
        // With memory expensive enough, sort + stream beats the tree even
        // on random input — Section 6.3's trade-off, numerically.
        let s = stats(100_000, OrderingKnowledge::Unordered);
        let expensive = CostModel {
            per_state_byte: 10.0,
            ..Default::default()
        };
        let p = paper_plan(&s, &PlannerConfig::default(), &expensive);
        assert_eq!(
            p.choice,
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: true
            }
        );
    }

    #[test]
    fn long_lived_fraction_inflates_ktree_state() {
        let mut s = stats(10_000, OrderingKnowledge::Sorted);
        let lean = estimate(
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: false,
            },
            &s,
            &CostModel::default(),
            4,
            SweepClass::Delta,
        );
        s.long_lived_fraction = 0.8;
        let heavy = estimate(
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: false,
            },
            &s,
            &CostModel::default(),
            4,
            SweepClass::Delta,
        );
        assert!(heavy.state_bytes > 100 * lean.state_bytes);
    }

    #[test]
    fn parallelism_pays_only_on_big_inputs() {
        let model = CostModel::default();
        let ways = |cpu: f64, max_p: usize| {
            let serial = CostEstimate {
                choice: AlgorithmChoice::AggregationTree,
                cpu,
                io: 0.0,
                state_bytes: 0,
            };
            parallelise(serial, &model, max_p)
        };
        // 1 000 node visits: any split costs more in overhead than it saves.
        assert_eq!(ways(1_000.0, 8).1, 1);
        // A split that only breaks even (cpu / 2 + 2 · overhead = cpu) is
        // not taken.
        let even = 4.0 * model.partition_overhead;
        assert_eq!(ways(even, 8), (ways(even, 1).0, 1));
        // 10 M node visits: splitting is clearly worth it, and the estimate
        // is re-costed at the chosen split.
        let (split, p) = ways(10_000_000.0, 8);
        assert!(p > 1);
        assert_eq!(
            split.cpu,
            10_000_000.0 / p as f64 + p as f64 * model.partition_overhead
        );
        // Never exceeds the cap.
        assert!(ways(10_000_000.0, 3).1 <= 3);
        assert_eq!(ways(10_000_000.0, 1).1, 1);
    }

    #[test]
    fn cost_planner_prescribes_parallelism_when_forced() {
        let s = stats(100_000, OrderingKnowledge::Unordered);
        let config = PlannerConfig {
            parallelism: Some(4),
            parallel_min_tuples: 0,
            ..Default::default()
        };
        let p = paper_plan(&s, &config, &CostModel::default());
        assert_eq!(p.parallelism, 4);
        assert!(p.rationale.iter().any(|r| r.contains("partition overhead")));
        // Forcing serial always wins.
        let serial = PlannerConfig {
            parallelism: Some(1),
            ..config
        };
        assert_eq!(
            paper_plan(&s, &serial, &CostModel::default()).parallelism,
            1
        );
    }

    #[test]
    fn rationale_lists_all_scored_candidates() {
        let s = stats(10_000, OrderingKnowledge::Sorted);
        let p = paper_plan(&s, &PlannerConfig::default(), &CostModel::default());
        assert!(p.rationale.len() >= 3);
        assert!(p.rationale[0].contains("total"));
    }

    #[test]
    fn sweep_wins_large_unsorted_delta_aggregates() {
        // The acceptance scenario: COUNT/SUM over a large unordered
        // relation routes to the sweep under the default constants, on
        // two workers and on one.
        let serial = PlannerConfig {
            parallelism: Some(1),
            ..Default::default()
        };
        let model = CostModel::default();
        for n in [10_000usize, 100_000, 1_000_000] {
            let s = stats(n, OrderingKnowledge::Unordered);
            assert_eq!(
                full_choice(&s, SweepClass::Delta),
                AlgorithmChoice::Sweep,
                "n = {n}"
            );
            let p = choose_algorithm(&s, SweepClass::Delta, &serial, &model, 4);
            assert_eq!(p.choice, AlgorithmChoice::Sweep, "serial, n = {n}");
        }
    }

    #[test]
    fn ordered_class_still_sweeps_when_unordered() {
        // MIN/MAX pay the multiset multiplier but the tree's cold node
        // visits still lose on large random input.
        let s = stats(100_000, OrderingKnowledge::Unordered);
        assert_eq!(full_choice(&s, SweepClass::Ordered), AlgorithmChoice::Sweep);
    }

    #[test]
    fn k_ordered_streams_keep_the_ktree() {
        // The other acceptance scenario: a k-ordered stream keeps the
        // constant-window k-tree — no point buffering everything to sort
        // what is already nearly sorted.
        for n in [10_000usize, 100_000] {
            let s = stats(n, OrderingKnowledge::KOrdered { k: 16 });
            assert_eq!(
                full_choice(&s, SweepClass::Delta),
                AlgorithmChoice::KOrderedTree {
                    k: 16,
                    presort: false
                },
                "n = {n}"
            );
        }
        let sorted = stats(100_000, OrderingKnowledge::Sorted);
        assert_eq!(
            full_choice(&sorted, SweepClass::Delta),
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: false
            }
        );
    }

    #[test]
    fn approximate_aggregates_never_sweep() {
        let s = stats(100_000, OrderingKnowledge::Unordered);
        let p = choose_algorithm(
            &s,
            SweepClass::Approximate,
            &PlannerConfig::default(),
            &CostModel::default(),
            8,
        );
        assert_eq!(p.choice, AlgorithmChoice::AggregationTree);
        assert!(p
            .rationale
            .iter()
            .any(|r| r.contains("endpoint sweep excluded")));
    }

    #[test]
    fn tiny_results_beat_the_sweep() {
        let s = stats(100_000, OrderingKnowledge::Unordered).with_expected_result_intervals(12);
        assert_eq!(
            full_choice(&s, SweepClass::Delta),
            AlgorithmChoice::LinkedList
        );
    }

    #[test]
    fn chosen_plan_names_the_sweep() {
        let s = stats(100_000, OrderingKnowledge::Unordered);
        let p = choose_algorithm(
            &s,
            SweepClass::Delta,
            &two_workers(),
            &CostModel::default(),
            4,
        );
        let text = p.to_string();
        assert!(
            text.starts_with("algorithm: endpoint-sweep"),
            "plan was:\n{text}"
        );
        assert!(p.rationale.iter().any(|r| r.contains("endpoint-sweep:")));
        assert!(p.rationale.iter().any(|r| r.contains("delta class")));
    }

    #[test]
    fn choices_move_at_the_documented_worker_counts() {
        // A tree split p ways costs `cpu / p + p · partition_overhead`
        // while the sweep stays serial, so past some worker count a tree
        // overtakes the sweep. These are the counts DESIGN.md §10 states.
        // On one worker the k-tree and the list lose to the sweep, though
        // on two they win: their serial constants are off (ROADMAP item 7).
        use AlgorithmChoice::{AggregationTree as Tree, LinkedList as List, Sweep};
        use SweepClass::{Delta, Ordered};
        let k16 = AlgorithmChoice::KOrderedTree {
            k: 16,
            presort: false,
        };
        let k1 = AlgorithmChoice::KOrderedTree {
            k: 1,
            presort: false,
        };
        let unordered = |n| stats(n, OrderingKnowledge::Unordered);
        let k_ordered = |n| stats(n, OrderingKnowledge::KOrdered { k: 16 });
        let tiny = unordered(100_000).with_expected_result_intervals(12);
        // (relation, class, choice below `from`, `from`: the first worker
        // count of the other choice, the other choice)
        let cases = [
            (unordered(10_000), Delta, Sweep, 17, Sweep),
            (unordered(100_000), Delta, Sweep, 8, Tree),
            (unordered(1_000_000), Delta, Sweep, 8, Tree),
            (unordered(100_000), Ordered, Sweep, 5, Tree),
            (k_ordered(10_000), Delta, Sweep, 2, k16),
            (k_ordered(100_000), Delta, Sweep, 2, k16),
            (stats(100_000, OrderingKnowledge::Sorted), Delta, k1, 17, k1),
            (tiny, Delta, Sweep, 2, List),
        ];
        for (s, class, before, from, after) in cases {
            for p in 1..=16 {
                let config = PlannerConfig {
                    parallelism: Some(p),
                    ..PlannerConfig::default()
                };
                let plan = choose_algorithm(&s, class, &config, &CostModel::default(), 4);
                let want = if p < from { before } else { after };
                assert_eq!(plan.choice, want, "p = {p}:\n{plan}");
            }
        }
    }

    #[test]
    fn cached_series_wins_whenever_a_cache_exists() {
        use crate::stats::CachedSeriesInfo;
        // A maintained cache beats every scanning algorithm: zero I/O and
        // one pass over the runs, against at least one full relation scan.
        for n in [100usize, 10_000, 1_000_000] {
            for ordering in [OrderingKnowledge::Unordered, OrderingKnowledge::Sorted] {
                let s = stats(n, ordering).with_cached_series(CachedSeriesInfo {
                    runs: 2 * n,
                    epoch: 7,
                });
                let p = choose_algorithm(
                    &s,
                    SweepClass::Delta,
                    &PlannerConfig::default(),
                    &CostModel::default(),
                    4,
                );
                assert_eq!(p.choice, AlgorithmChoice::CachedSeries, "n = {n}");
                assert_eq!(p.parallelism, 1, "serving a snapshot never partitions");
                assert!(p.rationale.iter().any(|r| r.contains("epoch 7")));
            }
        }
    }

    #[test]
    fn no_cache_means_no_cached_series_candidate() {
        let s = stats(100_000, OrderingKnowledge::Unordered);
        let p = choose_algorithm(
            &s,
            SweepClass::Delta,
            &PlannerConfig::default(),
            &CostModel::default(),
            4,
        );
        assert_ne!(p.choice, AlgorithmChoice::CachedSeries);
        assert!(!p.rationale.iter().any(|r| r.contains("cached-series:")));
    }

    #[test]
    fn sweep_join_is_estimable_and_named() {
        assert_eq!(AlgorithmChoice::SweepJoin.name(), "sweep-join");
        let s = stats(10_000, OrderingKnowledge::Unordered);
        let e = estimate(
            AlgorithmChoice::SweepJoin,
            &s,
            &CostModel::default(),
            4,
            SweepClass::Delta,
        );
        assert!(e.cpu.is_finite() && e.cpu > 0.0);
        // Live-set enumeration makes the join scan dearer than the
        // single-relation sweep's delta scan.
        let sweep = estimate(
            AlgorithmChoice::Sweep,
            &s,
            &CostModel::default(),
            4,
            SweepClass::Delta,
        );
        assert!(e.cpu > sweep.cpu);
    }

    #[test]
    fn plan_join_prescribes_the_sweep_join() {
        let left = RelationStats::unknown(60_000);
        let right = RelationStats::unknown(40_000);
        let p = plan_join(
            &left,
            &right,
            &PlannerConfig::default(),
            &CostModel::default(),
        );
        assert_eq!(p.choice, AlgorithmChoice::SweepJoin);
        assert!(p.to_string().starts_with("algorithm: sweep-join"));
        assert!(p.rationale.iter().any(|r| r.contains("200000")));
        // The join's sort runs on one thread whatever the config allows.
        let wide = PlannerConfig {
            parallelism: Some(8),
            parallel_min_tuples: 0,
            ..Default::default()
        };
        let pp = plan_join(&left, &right, &wide, &CostModel::default());
        assert_eq!(pp.parallelism, 1, "plan was:\n{pp}");
        assert!(pp.rationale[0].starts_with("co-sorts"));
        assert!(!pp.rationale.iter().any(|r| r.contains("ways")));
    }

    #[test]
    fn page_stats_switch_io_to_per_page() {
        let model = CostModel::default();
        let in_ram = stats(100_000, OrderingKnowledge::Unordered);
        let paged = in_ram.with_pages(256, None);
        let ram_est = estimate(
            AlgorithmChoice::Sweep,
            &in_ram,
            &model,
            4,
            SweepClass::Delta,
        );
        let paged_est = estimate(AlgorithmChoice::Sweep, &paged, &model, 4, SweepClass::Delta);
        assert_eq!(ram_est.io, 100_000.0 * model.io_per_tuple);
        assert_eq!(paged_est.io, 256.0 * model.page_read);
        // 256 page reads are far cheaper than 100k per-tuple charges.
        assert!(paged_est.io < ram_est.io);
    }

    #[test]
    fn fence_pruning_lowers_the_io_estimate() {
        let model = CostModel::default();
        let full = stats(100_000, OrderingKnowledge::Sorted).with_pages(256, None);
        let pruned = stats(100_000, OrderingKnowledge::Sorted).with_pages(256, Some(16));
        let full_est = estimate(
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: false,
            },
            &full,
            &model,
            4,
            SweepClass::Delta,
        );
        let pruned_est = estimate(
            AlgorithmChoice::KOrderedTree {
                k: 1,
                presort: false,
            },
            &pruned,
            &model,
            4,
            SweepClass::Delta,
        );
        assert_eq!(pruned_est.io, 16.0 * model.page_read);
        assert_eq!(full_est.io, 256.0 * model.page_read);
        assert!(pruned_est.io < full_est.io);
        // with_pages clamps a nonsense in-window count to the page count.
        let clamped = stats(10, OrderingKnowledge::Sorted).with_pages(4, Some(99));
        assert_eq!(clamped.pages_in_window, Some(4));
    }

    #[test]
    fn explain_reports_fence_pruned_page_reads() {
        let s = stats(100_000, OrderingKnowledge::Unordered).with_pages(256, Some(16));
        let p = choose_algorithm(
            &s,
            SweepClass::Delta,
            &PlannerConfig::default(),
            &CostModel::default(),
            4,
        );
        assert!(
            p.rationale
                .iter()
                .any(|r| r.contains("reads 16 of 256 pages (fence-pruned)")),
            "plan was:\n{p}"
        );
        let unpruned = stats(100_000, OrderingKnowledge::Unordered).with_pages(256, None);
        let p = choose_algorithm(
            &unpruned,
            SweepClass::Delta,
            &PlannerConfig::default(),
            &CostModel::default(),
            4,
        );
        assert!(
            p.rationale
                .iter()
                .any(|r| r.contains("reads all 256 pages")),
            "plan was:\n{p}"
        );
    }

    #[test]
    fn window_queries_probe_the_index_over_a_warm_cache() {
        use crate::stats::CachedSeriesInfo;
        // Any realistically-sized cached series makes the O(log n) probe
        // beat the linear pass over its runs.
        for runs in [1_000usize, 100_000, 2_000_000] {
            let s = stats(runs, OrderingKnowledge::Unordered)
                .with_cached_series(CachedSeriesInfo { runs, epoch: 3 });
            let p = choose_window_algorithm(
                &s,
                SweepClass::Delta,
                true,
                &PlannerConfig::default(),
                &CostModel::default(),
                4,
            );
            assert_eq!(p.choice, AlgorithmChoice::IndexProbe, "runs = {runs}");
            assert_eq!(p.parallelism, 1, "probes never partition");
            assert!(
                p.rationale.iter().any(|r| r.contains("segment-tree index")),
                "plan was:\n{p}"
            );
        }
    }

    #[test]
    fn tiny_caches_window_scan_linearly() {
        use crate::stats::CachedSeriesInfo;
        // With a handful of runs the linear pass undercuts two descents.
        let s = stats(8, OrderingKnowledge::Unordered)
            .with_cached_series(CachedSeriesInfo { runs: 8, epoch: 1 });
        let p = choose_window_algorithm(
            &s,
            SweepClass::Delta,
            true,
            &PlannerConfig::default(),
            &CostModel::default(),
            4,
        );
        assert_eq!(p.choice, AlgorithmChoice::CachedSeries);
    }

    #[test]
    fn window_queries_without_a_cache_fall_back() {
        let s = stats(100_000, OrderingKnowledge::Unordered);
        let p = choose_window_algorithm(
            &s,
            SweepClass::Delta,
            true,
            &PlannerConfig::default(),
            &CostModel::default(),
            4,
        );
        assert_ne!(p.choice, AlgorithmChoice::IndexProbe);
        assert!(
            p.rationale.iter().any(|r| r.contains("no warm cache")),
            "plan was:\n{p}"
        );
    }

    #[test]
    fn unindexable_aggregates_window_scan_the_cache() {
        use crate::stats::CachedSeriesInfo;
        // AVG/float-SUM/variance: the cache serves, but linearly.
        let s = stats(100_000, OrderingKnowledge::Unordered).with_cached_series(CachedSeriesInfo {
            runs: 100_000,
            epoch: 2,
        });
        let p = choose_window_algorithm(
            &s,
            SweepClass::Approximate,
            false,
            &PlannerConfig::default(),
            &CostModel::default(),
            4,
        );
        assert_eq!(p.choice, AlgorithmChoice::CachedSeries);
        assert!(
            p.rationale.iter().any(|r| r.contains("unindexable")),
            "plan was:\n{p}"
        );
    }

    #[test]
    fn index_probe_is_named_and_estimable() {
        use crate::stats::CachedSeriesInfo;
        assert_eq!(AlgorithmChoice::IndexProbe.name(), "index-probe");
        let s =
            stats(1_000_000, OrderingKnowledge::Unordered).with_cached_series(CachedSeriesInfo {
                runs: 1_000_000,
                epoch: 1,
            });
        let model = CostModel::default();
        let probe = estimate(
            AlgorithmChoice::IndexProbe,
            &s,
            &model,
            4,
            SweepClass::Delta,
        );
        let linear = estimate(
            AlgorithmChoice::CachedSeries,
            &s,
            &model,
            4,
            SweepClass::Delta,
        );
        assert!(probe.cpu.is_finite() && probe.cpu > 0.0);
        assert!(probe.cpu * 100.0 < linear.cpu, "log n must crush n");
        assert_eq!(probe.io, 0.0);
        // Without a cache the arm is prohibitive, like CachedSeries.
        let bare = stats(1_000_000, OrderingKnowledge::Unordered);
        let no_cache = estimate(
            AlgorithmChoice::IndexProbe,
            &bare,
            &model,
            4,
            SweepClass::Delta,
        );
        assert!(no_cache.cpu > 1e12);
    }

    #[test]
    fn calibration_shifts_selection() {
        // A host where sorting is pathologically slow stops choosing the
        // sweep — the constants, not the candidate list, decide.
        let model = CostModel {
            sweep_sort_per_event: 100.0,
            sweep_event_visit: 25.0,
            ..Default::default()
        };
        let s = stats(100_000, OrderingKnowledge::Unordered);
        let p = choose_algorithm(&s, SweepClass::Delta, &PlannerConfig::default(), &model, 4);
        assert_eq!(p.choice, AlgorithmChoice::AggregationTree);
    }

    #[test]
    fn an_infinite_memory_price_still_ranks_stateless_candidates() {
        use crate::stats::CachedSeriesInfo;
        // Zero state bytes cost zero memory: a stateless candidate's total
        // stays finite (not 0 × ∞ = NaN) and wins over every stateful one.
        let model = CostModel {
            per_state_byte: f64::INFINITY,
            ..Default::default()
        };
        let s = stats(100_000, OrderingKnowledge::Unordered).with_cached_series(CachedSeriesInfo {
            runs: 100_000,
            epoch: 1,
        });
        let config = PlannerConfig::default();
        let window = choose_window_algorithm(&s, SweepClass::Delta, true, &config, &model, 4);
        assert_eq!(window.choice, AlgorithmChoice::IndexProbe);
        let full = choose_algorithm(&s, SweepClass::Delta, &config, &model, 4);
        assert_eq!(full.choice, AlgorithmChoice::CachedSeries);
    }
}
