//! An explicit cost model for the algorithms, and cost-*based* planners
//! that rank candidates numerically.
//!
//! Section 6.3 phrases algorithm choice as trade-offs ("depending on the
//! tradeoff between the cost of increased memory requirements and the cost
//! of disk access"); the rule-based [`crate::plan`] encodes its
//! conclusions directly, while this module derives them from first
//! principles — per-unit work counts calibrated to the asymptotics the
//! paper measures:
//!
//! * linked list: each tuple scans ~half the current cell list — `Θ(n·c)`;
//! * aggregation tree: `Θ(n log c)` node visits on random input, but
//!   `Θ(n²)` on sorted/near-sorted input (the linear-tree worst case);
//! * k-ordered tree: `Θ(n (log w + g))` for a window of `w` nodes;
//! * endpoint sweep: one `Θ(e log e)` unstable sort of `e = 2n` events
//!   plus a branch-light linear merge scan;
//! * a pre-sort adds `Θ(n log n)` CPU plus one extra relation scan of I/O.
//!
//! The constant in front of each asymptotic term is *calibrated*: the
//! `tempagg-bench` harness' `calibrate` command measures per-unit
//! nanosecond costs on the host and emits a [`Calibration`] profile
//! (`calibration.json` at the repo root holds committed defaults);
//! [`CostModel::calibrated`] normalises those into tree-node-visit units.
//!
//! Two planner entry points share the ranking machinery:
//!
//! * [`plan_by_cost`] scores only the paper's three algorithms, so that
//!   its agreement with the rule-based [`crate::plan`] across the paper's
//!   scenarios remains a reproduction check;
//! * [`choose_algorithm`] adds the endpoint-sweep kernel as a fourth
//!   candidate, gated on the aggregate's [`SweepClass`] (floating-point
//!   retraction is inexact, so `Approximate` aggregates never sweep).
//!
//! What is priced is what runs: a candidate's parallel cost (`parallelise`)
//! is the cost of the route the executor takes for it — domain partitions
//! on workers for the list and the trees, whose work is at push time; the
//! in-kernel bucketed sort on workers for the sweep, whose work is at
//! finish time (`executor.rs` module docs).

use crate::planner::{AlgorithmChoice, Plan, PlannerConfig};
use crate::stats::{OrderingKnowledge, RelationStats};
use tempagg_agg::SweepClass;
use tempagg_algo::memory::{model_node_bytes, MODEL_POINTER_BYTES};

/// Relative cost weights. One aggregation-tree node visit is the unit;
/// the per-algorithm constants are the calibrated ratios of each
/// algorithm's per-unit work to that unit (see [`CostModel::calibrated`]).
/// I/O is charged per tuple per scan, heavily weighted as disk I/O is
/// orders of magnitude above any in-memory unit.
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
    /// Sort cost per endpoint event per `log₂ e` (the sweep's dominant
    /// term: one `sort_unstable` over `e = 2n` events).
    pub sweep_sort_per_event: f64,
    /// Sort cost per endpoint event per `log₂ e` when the sweep takes its
    /// cache-partitioned path (radix scatter into time-bucketed runs,
    /// per-run `sort_unstable` across workers). The whole term divides by
    /// the degree of parallelism; see [`Calibration::parallel_sort_ns`].
    pub parallel_sort_per_event: f64,
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
    /// stitching. Gates [`CostModel::choose_parallelism`].
    pub partition_overhead: f64,
    /// Cost of touching one window-index node during a probe's
    /// partial-overlap descent (a window probe folds ≤ `2 log₂ runs` of
    /// them). Calibrated from [`Calibration::index_probe_ns`].
    pub index_probe_visit: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::calibrated(&Calibration::default())
    }
}

/// Measured per-unit costs in nanoseconds, as produced by the harness'
/// `calibrate` command. The committed defaults (`calibration.json`, also
/// `Calibration::default()`) were measured on the development host; rerun
/// `harness calibrate` to adapt the planner to new hardware.
///
/// The profile is stored as flat JSON — one number per key — and parsed
/// without any external dependency:
///
/// ```text
/// {
///   "list_cell_ns": 10.0,
///   "tree_node_ns": 20.0,
///   "ktree_node_ns": 7.0,
///   "sweep_sort_ns": 4.0,
///   "sweep_event_ns": 2.0,
///   "parallel_sort_ns": 2.0
/// }
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Calibration {
    /// ns per linked-list cell visit.
    pub list_cell_ns: f64,
    /// ns per aggregation-tree node visit.
    pub tree_node_ns: f64,
    /// ns per k-ordered-tree node visit.
    pub ktree_node_ns: f64,
    /// ns per endpoint event per log₂ e, in the sweep's sort.
    pub sweep_sort_ns: f64,
    /// ns per endpoint event in the sweep's merge scan.
    pub sweep_event_ns: f64,
    /// ns per endpoint event per log₂ e on the sweep's cache-partitioned
    /// sort path (before dividing by the worker count).
    pub parallel_sort_ns: f64,
    /// ns to read and decode one page of a paged relation file
    /// (positioned read + checksum + columnar decode).
    pub page_read_ns: f64,
    /// ns per window-index node folded during a probe descent.
    pub index_probe_ns: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            list_cell_ns: 10.0,
            tree_node_ns: 20.0,
            ktree_node_ns: 7.0,
            sweep_sort_ns: 4.0,
            sweep_event_ns: 2.0,
            parallel_sort_ns: 2.0,
            page_read_ns: 4000.0,
            index_probe_ns: 25.0,
        }
    }
}

impl Calibration {
    /// Parse a flat-JSON calibration profile. Unknown keys are rejected
    /// (they signal a stale or foreign profile); missing keys keep their
    /// defaults so older profiles stay loadable.
    pub fn parse(text: &str) -> std::result::Result<Calibration, String> {
        let body = text
            .trim()
            .strip_prefix('{')
            .and_then(|t| t.trim_end().strip_suffix('}'))
            .ok_or_else(|| "calibration profile must be a JSON object".to_owned())?;
        let mut cal = Calibration::default();
        for entry in body.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (key, value) = entry
                .split_once(':')
                .ok_or_else(|| format!("malformed calibration entry: {entry:?}"))?;
            let key = key.trim().trim_matches('"');
            let value: f64 = value
                .trim()
                .parse()
                .map_err(|_| format!("calibration value for {key:?} is not a number"))?;
            if !value.is_finite() || value <= 0.0 {
                return Err(format!("calibration value for {key:?} must be positive"));
            }
            match key {
                "list_cell_ns" => cal.list_cell_ns = value,
                "tree_node_ns" => cal.tree_node_ns = value,
                "ktree_node_ns" => cal.ktree_node_ns = value,
                "sweep_sort_ns" => cal.sweep_sort_ns = value,
                "sweep_event_ns" => cal.sweep_event_ns = value,
                "parallel_sort_ns" => cal.parallel_sort_ns = value,
                "page_read_ns" => cal.page_read_ns = value,
                "index_probe_ns" => cal.index_probe_ns = value,
                other => return Err(format!("unknown calibration key {other:?}")),
            }
        }
        Ok(cal)
    }

    /// Serialise back to the flat-JSON profile format.
    pub fn emit(&self) -> String {
        format!(
            "{{\n  \"list_cell_ns\": {:.3},\n  \"tree_node_ns\": {:.3},\n  \
             \"ktree_node_ns\": {:.3},\n  \"sweep_sort_ns\": {:.3},\n  \
             \"sweep_event_ns\": {:.3},\n  \"parallel_sort_ns\": {:.3},\n  \
             \"page_read_ns\": {:.3},\n  \"index_probe_ns\": {:.3}\n}}\n",
            self.list_cell_ns,
            self.tree_node_ns,
            self.ktree_node_ns,
            self.sweep_sort_ns,
            self.sweep_event_ns,
            self.parallel_sort_ns,
            self.page_read_ns,
            self.index_probe_ns
        )
    }

    /// Load a profile from disk (e.g. the committed `calibration.json`).
    pub fn load(path: &std::path::Path) -> std::result::Result<Calibration, String> {
        let text = tempagg_core::pager::read_to_string(path).map_err(|e| e.to_string())?;
        Calibration::parse(&text)
    }
}

impl CostModel {
    /// Build a cost model from measured per-unit nanosecond costs: the
    /// aggregation-tree node visit becomes the unit (1.0) and every other
    /// constant the measured ratio to it. The I/O, presort, memory, and
    /// partition weights are policy rather than measurement and keep
    /// their defaults.
    pub fn calibrated(cal: &Calibration) -> CostModel {
        let unit = cal.tree_node_ns.max(f64::MIN_POSITIVE);
        CostModel {
            list_cell_visit: cal.list_cell_ns / unit,
            tree_node_visit: 1.0,
            ktree_node_visit: cal.ktree_node_ns / unit,
            sweep_sort_per_event: cal.sweep_sort_ns / unit,
            parallel_sort_per_event: cal.parallel_sort_ns / unit,
            sweep_event_visit: cal.sweep_event_ns / unit,
            ordered_active_multiplier: 8.0,
            io_per_tuple: 50.0,
            page_read: cal.page_read_ns / unit,
            sort_per_tuple: 2.0,
            per_state_byte: 0.0,
            partition_overhead: 5_000.0,
            index_probe_visit: cal.index_probe_ns / unit,
        }
    }

    /// The degree of parallelism that minimises `serial_cpu / p +
    /// p · partition_overhead` over `1 ≤ p ≤ max_partitions` — i.e. an
    /// even domain split is only worth its per-partition overhead when the
    /// CPU saved exceeds it. Returns 1 when no split pays off.
    pub fn choose_parallelism(&self, serial_cpu: f64, max_partitions: usize) -> usize {
        let mut best = (1usize, serial_cpu);
        for p in 2..=max_partitions.max(1) {
            let cost = serial_cpu / p as f64 + p as f64 * self.partition_overhead;
            if cost < best.1 {
                best = (p, cost);
            }
        }
        best.0
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
    /// Total weighted cost.
    pub fn total(&self, model: &CostModel) -> f64 {
        self.cpu + self.io + self.state_bytes as f64 * model.per_state_byte
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
            let cpu = events * log2(events) * model.sweep_sort_per_event + events * event_visit;
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
            let cpu = events * log2(events) * model.sweep_sort_per_event
                + events * model.sweep_event_visit * model.ordered_active_multiplier;
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
/// worker count. Non-sweep candidates parallelise through the partitioned
/// pipeline (`cpu/p + p·overhead`, [`CostModel::choose_parallelism`]). The
/// sweeps are special-cased: their dominant sort term runs partitioned
/// in-kernel (radix scatter + per-bucket `sort_unstable`, costed at
/// [`CostModel::parallel_sort_per_event`]) and divides by `p`, while the
/// merge scan stays serial — `SweepAggregator::with_parallelism(p)`, which
/// is what `execute_chunks_into` builds for a `Sweep` plan and
/// `statement.rs` for a `SweepJoin` one. Serving a cached snapshot never
/// partitions.
fn parallelise(
    est: CostEstimate,
    stats: &RelationStats,
    model: &CostModel,
    max_p: usize,
) -> (CostEstimate, usize) {
    if max_p <= 1 {
        return (est, 1);
    }
    match est.choice {
        AlgorithmChoice::CachedSeries | AlgorithmChoice::IndexProbe => (est, 1),
        AlgorithmChoice::Sweep | AlgorithmChoice::SweepJoin => {
            let n = stats.tuple_count.max(1) as f64;
            let events = 2.0 * n;
            let serial_sort = events * log2(events) * model.sweep_sort_per_event;
            let scan = est.cpu - serial_sort;
            let mut best = (est.cpu, 1usize);
            for p in 2..=max_p {
                let sort = events * log2(events) * model.parallel_sort_per_event / p as f64;
                let cost = scan + sort + p as f64 * model.partition_overhead;
                if cost < best.0 {
                    best = (cost, p);
                }
            }
            let (cpu, parallelism) = best;
            (CostEstimate { cpu, ..est }, parallelism)
        }
        _ => {
            let p = model.choose_parallelism(est.cpu, max_p);
            if p <= 1 {
                return (est, 1);
            }
            let cpu = est.cpu / p as f64 + p as f64 * model.partition_overhead;
            (CostEstimate { cpu, ..est }, p)
        }
    }
}

/// Rank `pool` under the cost model, honouring the memory budget, and
/// wrap the winner in a [`Plan`] whose rationale records every score.
/// Each candidate is costed at its own best achievable degree of
/// parallelism (the fix for the sweep being costed as serial: with
/// workers available, its sort term divides by `p` *before* ranking, so
/// a parallel sweep can beat a serially-cheaper tree).
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
                parallelise(serial, stats, model, max_p)
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
    scored.sort_by(|(a, _), (b, _)| {
        a.total(model)
            .partial_cmp(&b.total(model))
            // lint: allow(no-unwrap): cost formulas are sums and products of finite non-negative terms, never NaN
            .expect("costs are finite")
    });
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
    Plan {
        choice: best.choice,
        parallelism,
        estimated_state_bytes: best.state_bytes,
        rationale,
    }
}

/// Pick the cheapest of the *paper's* candidates under the cost model,
/// honouring the memory budget. Returns a [`Plan`] whose rationale records
/// the scores. The two planners agreeing across the paper's scenarios is a
/// reproduction check; production selection (which also knows the
/// endpoint-sweep kernel) is [`choose_algorithm`].
pub fn plan_by_cost(
    stats: &RelationStats,
    config: &PlannerConfig,
    model: &CostModel,
    state_model_bytes: usize,
) -> Plan {
    rank(
        candidates(stats),
        stats,
        config,
        model,
        state_model_bytes,
        SweepClass::Delta,
    )
}

/// Full cost-based algorithm selection: the paper's three algorithms plus
/// the columnar endpoint-sweep kernel, chosen from the relation's size and
/// sortedness and the aggregate's [`SweepClass`] (its retraction
/// behaviour). `Approximate` aggregates — floating-point sums and
/// averages, variance — never sweep, because retracting their active state
/// drifts; everything else competes on calibrated cost. When
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
/// let plan = choose_algorithm(
///     &stats,
///     SweepClass::Delta,
///     &PlannerConfig::default(),
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
/// chooses: it costs co-sorting `2·(nₗ + nᵣ)` endpoint events at the
/// achievable parallelism plus the serial live-set enumeration scan, and
/// its rationale feeds the SQL layer's `EXPLAIN`.
pub fn plan_join(
    left: &RelationStats,
    right: &RelationStats,
    config: &PlannerConfig,
    model: &CostModel,
) -> Plan {
    let combined = RelationStats::unknown(left.tuple_count + right.tuple_count);
    let max_p = crate::planner::choose_parallelism(&combined, config);
    let serial = estimate(
        AlgorithmChoice::SweepJoin,
        &combined,
        model,
        MODEL_POINTER_BYTES,
        SweepClass::Delta,
    );
    let (est, parallelism) = parallelise(serial, &combined, model, max_p);
    let mut rationale = vec![
        format!(
            "co-sorts {} endpoint events from both sides into one sweep",
            2 * combined.tuple_count
        ),
        format!(
            "{}: cpu {:.0}, io {:.0}, state {} B, total {:.0}",
            est.choice.name(),
            est.cpu,
            est.io,
            est.state_bytes,
            est.total(model)
        ),
    ];
    if parallelism > 1 {
        rationale.push(format!(
            "endpoint sort runs {parallelism}-way partitioned; the join scan stays serial"
        ));
    }
    Plan {
        choice: AlgorithmChoice::SweepJoin,
        parallelism,
        estimated_state_bytes: est.state_bytes,
        rationale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::plan;
    use crate::stats::RelationStats;

    fn stats(n: usize, ordering: OrderingKnowledge) -> RelationStats {
        RelationStats::unknown(n).with_ordering(ordering)
    }

    fn cost_choice(stats: &RelationStats) -> AlgorithmChoice {
        plan_by_cost(stats, &PlannerConfig::default(), &CostModel::default(), 4).choice
    }

    fn full_choice(stats: &RelationStats, class: SweepClass) -> AlgorithmChoice {
        choose_algorithm(
            stats,
            class,
            &PlannerConfig::default(),
            &CostModel::default(),
            4,
        )
        .choice
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
        let p = plan_by_cost(&s, &config, &CostModel::default(), 4);
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
        let p = plan_by_cost(&s, &PlannerConfig::default(), &expensive, 4);
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
        // 1 000 node visits: any split costs more in overhead than it saves.
        assert_eq!(model.choose_parallelism(1_000.0, 8), 1);
        // 10 M node visits: splitting is clearly worth it.
        assert!(model.choose_parallelism(10_000_000.0, 8) > 1);
        // Never exceeds the cap.
        assert!(model.choose_parallelism(10_000_000.0, 3) <= 3);
        assert_eq!(model.choose_parallelism(10_000_000.0, 1), 1);
    }

    #[test]
    fn plan_by_cost_prescribes_parallelism_when_forced() {
        let s = stats(100_000, OrderingKnowledge::Unordered);
        let config = PlannerConfig {
            parallelism: Some(4),
            parallel_min_tuples: 0,
            ..Default::default()
        };
        let p = plan_by_cost(&s, &config, &CostModel::default(), 4);
        assert_eq!(p.parallelism, 4);
        assert!(p.rationale.iter().any(|r| r.contains("partition overhead")));
        // Forcing serial always wins.
        let serial = PlannerConfig {
            parallelism: Some(1),
            ..config
        };
        assert_eq!(
            plan_by_cost(&s, &serial, &CostModel::default(), 4).parallelism,
            1
        );
    }

    #[test]
    fn rationale_lists_all_scored_candidates() {
        let s = stats(10_000, OrderingKnowledge::Sorted);
        let p = plan_by_cost(&s, &PlannerConfig::default(), &CostModel::default(), 4);
        assert!(p.rationale.len() >= 3);
        assert!(p.rationale[0].contains("total"));
    }

    #[test]
    fn sweep_wins_large_unsorted_delta_aggregates() {
        // The acceptance scenario: COUNT/SUM over a large unordered
        // relation routes to the sweep under the calibrated defaults.
        for n in [10_000usize, 100_000, 1_000_000] {
            let s = stats(n, OrderingKnowledge::Unordered);
            assert_eq!(
                full_choice(&s, SweepClass::Delta),
                AlgorithmChoice::Sweep,
                "n = {n}"
            );
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
            &PlannerConfig::default(),
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
    fn parallelism_rescues_the_sweep() {
        // The satellite fix: the sweep's sort term is costed at the
        // partitioned per-unit rate divided by the achievable parallelism
        // *before* ranking. A host whose monolithic sort is slow but whose
        // partitioned sort is fast keeps the tree serially and flips to
        // the sweep once workers are configured.
        let cal = Calibration {
            sweep_sort_ns: 2_000.0,
            parallel_sort_ns: 2.0,
            ..Default::default()
        };
        let model = CostModel::calibrated(&cal);
        let s = stats(100_000, OrderingKnowledge::Unordered);
        let serial = PlannerConfig {
            parallelism: Some(1),
            ..Default::default()
        };
        assert_eq!(
            choose_algorithm(&s, SweepClass::Delta, &serial, &model, 4).choice,
            AlgorithmChoice::AggregationTree
        );
        let wide = PlannerConfig {
            parallelism: Some(8),
            parallel_min_tuples: 0,
            ..Default::default()
        };
        let p = choose_algorithm(&s, SweepClass::Delta, &wide, &model, 4);
        assert_eq!(p.choice, AlgorithmChoice::Sweep);
        assert!(p.parallelism > 1, "plan was:\n{p}");
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
        // Forced-parallel plans say so; forced-serial ones stay quiet.
        let wide = PlannerConfig {
            parallelism: Some(8),
            parallel_min_tuples: 0,
            ..Default::default()
        };
        let pp = plan_join(&left, &right, &wide, &CostModel::default());
        assert!(pp.parallelism > 1);
        assert!(pp.rationale.iter().any(|r| r.contains("partitioned")));
    }

    #[test]
    fn calibration_roundtrips_through_json() {
        let cal = Calibration {
            list_cell_ns: 12.5,
            tree_node_ns: 21.0,
            ktree_node_ns: 6.25,
            sweep_sort_ns: 3.5,
            sweep_event_ns: 1.75,
            parallel_sort_ns: 1.5,
            page_read_ns: 3_200.0,
            index_probe_ns: 31.0,
        };
        assert_eq!(Calibration::parse(&cal.emit()), Ok(cal));
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
    fn calibration_parse_rejects_malformed_profiles() {
        assert!(Calibration::parse("not json").is_err());
        assert!(Calibration::parse("{\"tree_node_ns\": \"fast\"}").is_err());
        assert!(Calibration::parse("{\"tree_node_ns\": -3.0}").is_err());
        assert!(Calibration::parse("{\"warp_factor\": 9.0}").is_err());
        // Missing keys keep defaults.
        let partial = Calibration::parse("{\"tree_node_ns\": 40.0}").unwrap();
        assert_eq!(partial.tree_node_ns, 40.0);
        assert_eq!(partial.list_cell_ns, Calibration::default().list_cell_ns);
    }

    #[test]
    fn default_model_is_the_default_calibration() {
        assert_eq!(
            CostModel::default(),
            CostModel::calibrated(&Calibration::default())
        );
        assert_eq!(CostModel::default().tree_node_visit, 1.0);
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
        // sweep — the whole point of calibrating.
        let slow_sort = Calibration {
            sweep_sort_ns: 2_000.0,
            sweep_event_ns: 500.0,
            parallel_sort_ns: 2_000.0,
            ..Default::default()
        };
        let model = CostModel::calibrated(&slow_sort);
        let s = stats(100_000, OrderingKnowledge::Unordered);
        let p = choose_algorithm(&s, SweepClass::Delta, &PlannerConfig::default(), &model, 4);
        assert_eq!(p.choice, AlgorithmChoice::AggregationTree);
    }
}
