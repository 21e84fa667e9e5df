//! `serve_mix`: the working set fits the engine's caches and the kernels
//! do nothing. Lex/parse/plan, `store.window_probe`, `top_k_by_window`,
//! the snapshot zip and row building dominate. `P` carries warm
//! `COUNT(*)`/`SUM(salary)` caches, a `SUM` window index and a per-`dept`
//! grouped index; `M` carries warm `MIN`/`MAX` caches and window indexes.
//!
//! `M` is small and has no long-lived tuples because an Ordered-class
//! (`MIN`/`MAX`) cache keeps an ordered multiset per run today: with
//! long-lived tuples its build time and memory grow with runs × active
//! tuples (see `store.cache_build_ns_per_tuple.min`).

use crate::check::{self, Digest};
use crate::gen::{self, Order, Rng, Row, DEPT, LIFESPAN, SALARY};
use crate::json::Json;
use crate::run::{rss_bytes, Config, Deadline, Recorder, Scale, Shape, Workload};
use crate::workloads::{load_table, must};
use std::hint::black_box;
use tempagg_agg::{AggKind, Aggregate, MultiDyn, SweepAggregate};
use tempagg_algo::{scan_window, IndexMode, WindowIndex};
use tempagg_core::{Interval, Series, Value};
use tempagg_plan::{
    choose_algorithm, choose_window_algorithm, CachedSeriesInfo, CostModel, PlannerConfig,
    RelationStats,
};
use tempagg_sql::Catalog;
use tempagg_store::TemporalStore;

const PROBE_SUM: Shape = Shape::read("stmt.probe_sum");
const PROBE_MINMAX: Shape = Shape::read("stmt.probe_minmax");
const TOPK: Shape = Shape::read("stmt.topk");
const CACHED_SELECT: Shape = Shape::read("stmt.cached_select");
const CACHED_SELECT_SQL: &str = "SELECT COUNT(*), SUM(salary) FROM P";
/// Probe windows are 1 % of the lifespan wide.
const WINDOW_WIDTH: i64 = LIFESPAN / 100;
const K: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    ProbeSum,
    ProbeMinMax,
    TopK,
    CachedSelect,
}

/// 68 % `probe_sum`, 20 % `probe_minmax`, 10 % `topk`, 2 %
/// `cached_select`: exact in every block of 100, shuffled per block.
fn block() -> [Kind; 100] {
    let mut kinds = [Kind::ProbeSum; 100];
    kinds[68..88].fill(Kind::ProbeMinMax);
    kinds[88..98].fill(Kind::TopK);
    kinds[98..].fill(Kind::CachedSelect);
    kinds
}

#[derive(Debug)]
pub struct ServeMix {
    catalog: Catalog,
    p_rows: Vec<Row>,
    m_rows: Vec<Row>,
    rng: Rng,
    executed: Vec<(Kind, Interval, Option<Digest>)>,
}

fn window_sql(kind: Kind, w: Interval) -> String {
    let (a, b) = (w.start().get(), w.end().get());
    match kind {
        Kind::ProbeSum => format!("SELECT SUM(salary) OVER [{a}, {b}] FROM P"),
        Kind::ProbeMinMax => format!("SELECT MIN(salary), MAX(salary) OVER [{a}, {b}] FROM M"),
        Kind::TopK => {
            format!("SELECT TOP {K} BY SUM(salary) OVER [{a}, {b}] FROM P GROUP BY dept")
        }
        Kind::CachedSelect => CACHED_SELECT_SQL.to_owned(),
    }
}

/// Replay one `store.snapshot` call. The first snapshot of a series after
/// a write materializes a new version of it, so that call is timed as
/// `store.publish`; its work count is the series' runs (every cache of a
/// store has the same run structure).
pub(crate) fn replay_snapshot(
    rec: &mut Recorder,
    parent: Option<u32>,
    store: &TemporalStore,
    (kind, column): (AggKind, Option<usize>),
    first_since_write: bool,
) -> usize {
    let stats = store.cache_stats();
    let runs = stats.runs / stats.caches.max(1);
    let name = if first_since_write {
        "store.publish"
    } else {
        "store.snapshot"
    };
    rec.replay(parent, name, runs as u64, || {
        store.snapshot(kind, column).map_or(0, |s| s.len())
    })
}

/// Replay the planner call behind a statement served from `runs` cached
/// runs: the window chooser for `OVER` statements, the plain chooser for
/// a cache-served SELECT.
pub(crate) fn replay_choice(
    rec: &mut Recorder,
    parent: Option<u32>,
    store: &TemporalStore,
    kinds: &[AggKind],
    runs: usize,
    window: bool,
) {
    let agg = MultiDyn::new(kinds.iter().map(|k| check::dyn_agg(*k)).collect());
    rec.replay(parent, "plan.choose", 1, || {
        let stats = RelationStats::unknown(store.len()).with_cached_series(CachedSeriesInfo {
            runs,
            epoch: store.epoch().get(),
        });
        let (class, config, model) = (
            agg.sweep_class(),
            PlannerConfig::default(),
            CostModel::default(),
        );
        let state_bytes = agg.state_model_bytes().max(4);
        black_box(if window {
            choose_window_algorithm(&stats, class, true, &config, &model, state_bytes)
        } else {
            choose_algorithm(&stats, class, &config, &model, state_bytes)
        })
    });
}

/// The aggregates of the cache-served SELECT.
pub(crate) const COUNT_SUM: [(AggKind, Option<usize>); 2] =
    [(AggKind::CountStar, None), (AggKind::Sum, Some(SALARY))];

impl ServeMix {
    fn one(&mut self, rec: &mut Recorder, kind: Kind) {
        let window = match kind {
            Kind::CachedSelect => Interval::TIMELINE,
            _ => {
                let (a, b) = gen::window(&mut self.rng, WINDOW_WIDTH);
                Interval::at(a, b)
            }
        };
        let shape = match kind {
            Kind::ProbeSum => PROBE_SUM,
            Kind::ProbeMinMax => PROBE_MINMAX,
            Kind::TopK => TOPK,
            Kind::CachedSelect => CACHED_SELECT,
        };
        let sql = window_sql(kind, window);
        let done = rec.statement(shape, &mut self.catalog, &sql, 0);
        self.executed.push((kind, window, done.digest));
        if !rec.traced() {
            return;
        }
        let parent = done.exec_span;
        let table = if kind == Kind::ProbeMinMax { "M" } else { "P" };
        let store = self.catalog.store(table).expect("set-up created the table");
        match kind {
            Kind::ProbeSum => {
                let runs = replay_snapshot(rec, parent, store, COUNT_SUM[1], false);
                replay_choice(rec, parent, store, &[AggKind::Sum], runs, true);
                rec.replay(parent, "store.window_probe", 1, || {
                    black_box(store.window_probe(AggKind::Sum, Some(SALARY), window)).is_ok()
                });
            }
            Kind::ProbeMinMax => {
                let min = (AggKind::Min, Some(SALARY));
                let runs = replay_snapshot(rec, parent, store, min, false);
                replay_choice(
                    rec,
                    parent,
                    store,
                    &[AggKind::Min, AggKind::Max],
                    runs,
                    true,
                );
                for agg in [AggKind::Min, AggKind::Max] {
                    rec.replay(parent, "store.window_probe", 1, || {
                        black_box(store.window_probe(agg, Some(SALARY), window)).is_ok()
                    });
                }
            }
            Kind::TopK => {
                replay_choice(rec, parent, store, &[AggKind::Sum], store.len(), true);
                rec.replay(parent, "store.topk", 1, || {
                    black_box(store.top_k_by_window(AggKind::Sum, Some(SALARY), DEPT, window, K))
                        .is_ok()
                });
            }
            Kind::CachedSelect => {
                let mut runs = 0;
                for cache in COUNT_SUM {
                    runs = replay_snapshot(rec, parent, store, cache, false);
                }
                let kinds = [AggKind::CountStar, AggKind::Sum];
                replay_choice(rec, parent, store, &kinds, runs, false);
            }
        }
    }
}

/// Runs of `series` that overlap `window`.
fn runs_in(series: &Series<Value>, window: Interval) -> u64 {
    let entries = series.entries();
    let lo = entries.partition_point(|e| e.interval.end() < window.start());
    let hi = entries.partition_point(|e| e.interval.start() <= window.end());
    hi.saturating_sub(lo) as u64
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";
    /// The slowest 2 % of statements are all `cached_select`, so p99 is
    /// the median of that class. A run has ~10⁴ statements; p99.9 would
    /// need every run to reach 10,000, and would read the class's edge.
    const TAIL_RUNG: u32 = 990;
    const BLOCK: usize = 100;

    fn setup(config: &Config) -> ServeMix {
        let (p, m) = match config.scale {
            Scale::Full => (262_144, 65_536),
            Scale::Smoke => (4_096, 2_048),
        };
        let p_rows = gen::rows(&mut Rng::fork(config.seed, 1), p, 10, Order::Random);
        let m_rows = gen::rows(&mut Rng::fork(config.seed, 2), m, 0, Order::Random);
        let mut catalog = Catalog::new();
        load_table(&mut catalog, "P", &p_rows);
        load_table(&mut catalog, "M", &m_rows);
        // Warm every cache and index the mix reads: the first eligible
        // SELECT scans and builds the caches, the first probes build the
        // window indexes, the first TOP k builds the grouped index.
        let warm = Interval::at(0, WINDOW_WIDTH - 1);
        must(&mut catalog, CACHED_SELECT_SQL);
        for kind in [Kind::ProbeSum, Kind::TopK, Kind::ProbeMinMax] {
            must(&mut catalog, &window_sql(kind, warm));
        }
        ServeMix {
            catalog,
            p_rows,
            m_rows,
            rng: Rng::fork(config.seed, 3),
            executed: Vec::new(),
        }
    }

    fn run(&mut self, rec: &mut Recorder, deadline: Deadline) {
        loop {
            let mut kinds = block();
            self.rng.shuffle(&mut kinds);
            for kind in kinds {
                self.one(rec, kind);
            }
            if deadline.passed() {
                return;
            }
        }
    }

    fn verify(&mut self, rec: &mut Recorder) {
        // One aggregation tree per table gives every reference series.
        let p = gen::relation(&self.p_rows);
        let p_series = check::reference_series(&COUNT_SUM, &p, Interval::TIMELINE);
        if !check::reference_matches_oracle(&COUNT_SUM, &p, Interval::TIMELINE, 2048) {
            rec.fail("the aggregation-tree reference disagrees with the oracle".into());
        }
        let sum = check::column_series(&p_series, 1);
        let mut cached_select = Digest::default();
        check::digest_series(&mut cached_select, None, &p_series, true);
        let min_max = [(AggKind::Min, Some(SALARY)), (AggKind::Max, Some(SALARY))];
        let m_series =
            check::reference_series(&min_max, &gen::relation(&self.m_rows), Interval::TIMELINE);
        let (min, max) = (
            check::column_series(&m_series, 0),
            check::column_series(&m_series, 1),
        );
        let by_dept = check::sum_series_by_dept(&self.p_rows);
        for (kind, window, got) in std::mem::take(&mut self.executed) {
            let (what, want) = match kind {
                Kind::ProbeSum => (
                    "probe_sum",
                    check::digest_window(&[(AggKind::Sum, &sum)], window),
                ),
                Kind::ProbeMinMax => (
                    "probe_minmax",
                    check::digest_window(&[(AggKind::Min, &min), (AggKind::Max, &max)], window),
                ),
                Kind::TopK => ("topk", check::digest_top_k(&by_dept, window, K)),
                Kind::CachedSelect => ("cached_select", cached_select),
            };
            rec.expect(what, got, want);
        }
    }

    fn probes(&mut self, rec: &mut Recorder, deadline: Deadline) {
        let store = self.catalog.store("P").expect("set-up created P");
        let series = store
            .snapshot(AggKind::Sum, Some(SALARY))
            .expect("set-up warmed the SUM cache");
        let runs = series.len() as u64;
        let mut index = None;
        let mut passes = 0;
        while passes == 0 || (passes < 3 && !deadline.passed()) {
            passes += 1;
            index = Some(
                rec.probe("algo.windex_build", || {
                    (WindowIndex::build(IndexMode::Integral, &series), runs)
                })
                .0,
            );
        }
        let index = index.expect("at least one pass");
        let mut rng = Rng::fork(0x5e7e, 9);
        for _ in 0..1000 {
            let (a, b) = gen::window(&mut rng, WINDOW_WIDTH);
            let window = Interval::at(a, b);
            let (probed, _) = rec.probe("algo.windex_probe", || {
                (black_box(index.probe(window, &*series)), 1)
            });
            let (scanned, _) = rec.probe("algo.scan_window", || {
                (
                    black_box(scan_window(&*series, window)),
                    runs_in(&series, window),
                )
            });
            if probed != scanned {
                rec.fail(format!(
                    "windex probe differs from scan_window over {window}"
                ));
            }
        }

        // A cold cache build: SUM over P.
        let relation = store.relation().clone();
        let tuples = relation.len() as u64;
        let cold = TemporalStore::new(relation);
        rec.probe("store.cache_build.sum", || {
            let sum = check::dyn_agg(AggKind::Sum);
            (cold.snapshot_or_build(sum, Some(SALARY)).len(), tuples)
        });
    }

    /// A cold MIN cache build over a small relation with long-lived
    /// tuples, where an Ordered-class cache's cost per run grows with the
    /// tuples active in it — and the resident memory the build adds.
    fn fresh_heap_probes(rec: &mut Recorder) {
        let long_lived = gen::rows(&mut Rng::fork(0x5e7e, 10), 4096, 20, Order::Random);
        let cold = TemporalStore::new(gen::relation(&long_lived));
        let before = rss_bytes();
        let (runs, _) = rec.probe("store.cache_build.min", || {
            let min = check::dyn_agg(AggKind::Min);
            (
                cold.snapshot_or_build(min, Some(SALARY)).len(),
                long_lived.len() as u64,
            )
        });
        let grown = (rss_bytes() - before).max(0.0);
        rec.value(
            "store.min_cache_rss_bytes_per_run",
            grown / runs.max(1) as f64,
        );
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("P", Json::Num(self.p_rows.len() as f64)),
            ("P_long_lived_pct", Json::Num(10.0)),
            ("M", Json::Num(self.m_rows.len() as f64)),
            ("M_long_lived_pct", Json::Num(0.0)),
            ("window_width", Json::Num(WINDOW_WIDTH as f64)),
            (
                "rows_checksum",
                Json::str(format!("{:016x}", gen::rows_checksum(&self.p_rows))),
            ),
        ])
    }
}
