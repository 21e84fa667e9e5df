//! `ingest_mix`: the same `tempagg-store` layer as `serve_mix`, used
//! differently. Every write patches three caches and two window indexes,
//! the next `fresh_select` pays the `VersionedSeries` publish, the next
//! `fresh_topk` pays the grouped-index rebuild. A change that speeds
//! reads by slowing writes (or the reverse) shows in `class.read_p50_ms`
//! against `class.write_p50_ms`.
//!
//! Updates and deletes are aimed at a live tuple (its `dept` and start
//! time), so every write statement changes data instead of scanning and
//! matching nothing.

use crate::check::{self, Digest};
use crate::gen::{self, Fnv, Order, Rng, Row, ANY_START, DEPT, LIFESPAN, SALARY};
use crate::json::Json;
use crate::run::{Config, Deadline, Recorder, Scale, Shape, Workload};
use crate::workloads::serve_mix::{replay_choice, replay_snapshot, COUNT_SUM};
use crate::workloads::{load_table, must};
use std::collections::BTreeSet;
use std::hint::black_box;
use tempagg_agg::AggKind;
use tempagg_core::{Interval, Tuple, Value};
use tempagg_sql::Catalog;
use tempagg_store::TemporalStore;

const FRESH_PROBE_SUM: Shape = Shape::read("stmt.fresh_probe_sum");
const FRESH_PROBE_MIN: Shape = Shape::read("stmt.fresh_probe_min");
const FRESH_SELECT: Shape = Shape::read("stmt.fresh_select");
const FRESH_TOPK: Shape = Shape::read("stmt.fresh_topk");
const INSERT: Shape = Shape::write("stmt.insert");
const UPDATE: Shape = Shape::write("stmt.update");
const DELETE: Shape = Shape::write("stmt.delete");
const SELECT_SQL: &str = "SELECT COUNT(*), SUM(salary) FROM W";
const WINDOW_WIDTH: i64 = LIFESPAN / 100;
/// Updates and deletes reach this far past the aimed-at start time.
const WRITE_REACH: i64 = 1000;
const K: usize = 10;
/// The caches every write patches.
const CACHES: [(AggKind, Option<usize>); 3] = [
    (AggKind::CountStar, None),
    (AggKind::Sum, Some(SALARY)),
    (AggKind::Min, Some(SALARY)),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    ProbeSum,
    ProbeMin,
    Select,
    TopK,
    Insert,
    Update,
    Delete,
}

/// Reads 77 % / 10 % / 2 % / 0.5 %, writes 5.5 % / 2.5 % / 2.5 %: exact
/// in every block of 200, shuffled per block. One statement in ten writes
/// (the share `BENCH_ingest.json` uses), so three statements in five are
/// probes that find their series published: the median statement and the
/// median read sit inside that class, and the median write inside the
/// class of writes that follow a read. `fresh_select` has the share
/// `cached_select` has in `serve_mix`, so that no one shape decides
/// `ops_per_s` and p99 reads the middle of the `fresh_select` class.
/// `MIN` is probed rarely enough that most of its probes follow a write
/// and pay the publish, which `stmt.fresh_probe_min.p50_ms` then reads.
fn block() -> [Kind; 200] {
    let mut kinds = [Kind::ProbeSum; 200];
    kinds[154..174].fill(Kind::ProbeMin);
    kinds[174..178].fill(Kind::Select);
    kinds[178] = Kind::TopK;
    kinds[179..190].fill(Kind::Insert);
    kinds[190..195].fill(Kind::Update);
    kinds[195..].fill(Kind::Delete);
    kinds
}

fn probe_sql(kind: Kind, w: Interval) -> String {
    let (a, b) = (w.start().get(), w.end().get());
    match kind {
        Kind::ProbeSum => format!("SELECT SUM(salary) OVER [{a}, {b}] FROM W"),
        Kind::ProbeMin => format!("SELECT MIN(salary) OVER [{a}, {b}] FROM W"),
        Kind::TopK => {
            format!("SELECT TOP {K} BY SUM(salary) OVER [{a}, {b}] FROM W GROUP BY dept")
        }
        _ => SELECT_SQL.to_owned(),
    }
}

/// A store that mirrors `W` write for write, so the store calls behind
/// each statement can be replayed on the same state with warm caches.
#[derive(Debug)]
struct Replica {
    store: TemporalStore,
    /// Series snapshotted since the last write; the first snapshot of a
    /// series after a write pays the publish of a new version.
    published: BTreeSet<AggKind>,
    /// A write has landed since the last ranking probe: the next one pays
    /// the grouped-index rebuild.
    unranked: bool,
    writes: u64,
    patched_at_start: u64,
}

#[derive(Debug)]
pub struct IngestMix {
    catalog: Catalog,
    /// What `W` must hold: every write statement is applied here too, by
    /// the benchmark's own loop.
    shadow: Vec<Row>,
    initial: usize,
    rng: Rng,
    replica: Option<Replica>,
}

fn matches(row: &Row, dept: i64, reach: Interval) -> bool {
    row.dept == dept && row.valid().overlaps(&reach)
}

impl IngestMix {
    fn window(&mut self) -> Interval {
        let (a, b) = gen::window(&mut self.rng, WINDOW_WIDTH);
        Interval::at(a, b)
    }

    /// The `dept` and reach of an update or delete: those of a live tuple.
    fn aim(&mut self) -> (i64, Interval) {
        let target = &self.shadow[self.rng.below(self.shadow.len())];
        (
            target.dept,
            Interval::at(target.start, target.start + WRITE_REACH),
        )
    }

    fn one(&mut self, rec: &mut Recorder, kind: Kind) {
        match kind {
            Kind::ProbeSum | Kind::ProbeMin | Kind::TopK | Kind::Select => self.read(rec, kind),
            Kind::Insert => {
                let row = gen::short_row(&mut self.rng, ANY_START);
                let sql = gen::insert_statement("W", std::slice::from_ref(&row));
                let done = rec.statement(INSERT, &mut self.catalog, &sql, 0);
                rec.expect("insert", done.digest, Digest::of_count(1));
                self.replay_write(rec, done.exec_span, "store.insert", |store| {
                    store.insert(row.values(), row.valid()).map(|()| 1)
                });
                self.shadow.push(row);
            }
            Kind::Update => {
                let (dept, reach) = self.aim();
                let salary = self.rng.range(20_000, 100_000);
                let sql = format!(
                    "UPDATE W SET salary = {salary} WHERE dept = {dept} \
                     AND VALID OVERLAPS [{}, {}]",
                    reach.start().get(),
                    reach.end().get()
                );
                let done = rec.statement(UPDATE, &mut self.catalog, &sql, 0);
                let mut touched = 0;
                for row in self.shadow.iter_mut().filter(|r| matches(r, dept, reach)) {
                    row.salary = salary;
                    touched += 1;
                }
                rec.expect("update", done.digest, Digest::of_count(touched));
                self.replay_write(rec, done.exec_span, "store.update", |store| {
                    store.update_where(
                        |t| tuple_matches(t, dept, reach),
                        &[(SALARY, Value::Int(salary))],
                    )
                });
            }
            Kind::Delete => {
                let (dept, reach) = self.aim();
                let sql = format!(
                    "DELETE FROM W WHERE dept = {dept} AND VALID OVERLAPS [{}, {}]",
                    reach.start().get(),
                    reach.end().get()
                );
                let done = rec.statement(DELETE, &mut self.catalog, &sql, 0);
                let before = self.shadow.len();
                self.shadow.retain(|r| !matches(r, dept, reach));
                rec.expect(
                    "delete",
                    done.digest,
                    Digest::of_count(before - self.shadow.len()),
                );
                self.replay_write(rec, done.exec_span, "store.delete", |store| {
                    store.delete_where(|t| tuple_matches(t, dept, reach))
                });
            }
        }
    }

    fn read(&mut self, rec: &mut Recorder, kind: Kind) {
        let window = self.window();
        let shape = match kind {
            Kind::ProbeSum => FRESH_PROBE_SUM,
            Kind::ProbeMin => FRESH_PROBE_MIN,
            Kind::TopK => FRESH_TOPK,
            _ => FRESH_SELECT,
        };
        let done = rec.statement(shape, &mut self.catalog, &probe_sql(kind, window), 0);
        if !rec.traced() {
            return;
        }
        let parent = done.exec_span;
        let Replica {
            store,
            published,
            unranked,
            ..
        } = self.replica_mut();
        let store = &*store;
        match kind {
            Kind::ProbeSum | Kind::ProbeMin => {
                let agg = if kind == Kind::ProbeSum {
                    AggKind::Sum
                } else {
                    AggKind::Min
                };
                // Planning a window statement snapshots its series.
                let first = published.insert(agg);
                let runs = replay_snapshot(rec, parent, store, (agg, Some(SALARY)), first);
                replay_choice(rec, parent, store, &[agg], runs, true);
                rec.replay(parent, "store.window_probe", 1, || {
                    black_box(store.window_probe(agg, Some(SALARY), window)).is_ok()
                });
            }
            Kind::TopK => {
                replay_choice(rec, parent, store, &[AggKind::Sum], store.len(), true);
                // The first ranking probe after a write rebuilds the
                // per-dept indexes; later ones only probe them.
                let name = if *unranked {
                    "store.topk_rebuild"
                } else {
                    "store.topk"
                };
                rec.replay(parent, name, 1, || {
                    black_box(store.top_k_by_window(AggKind::Sum, Some(SALARY), DEPT, window, K))
                        .is_ok()
                });
                *unranked = false;
            }
            _ => {
                let mut runs = 0;
                for cache in COUNT_SUM {
                    let first = published.insert(cache.0);
                    runs = replay_snapshot(rec, parent, store, cache, first);
                }
                let kinds = [AggKind::CountStar, AggKind::Sum];
                replay_choice(rec, parent, store, &kinds, runs, false);
            }
        }
    }

    fn replica_mut(&mut self) -> &mut Replica {
        self.replica.get_or_insert_with(|| {
            let store = self.catalog.store("W").expect("set-up created W").clone();
            let patched_at_start = store.cache_stats().patched_runs;
            // The clone is taken wherever the traced phase starts, so treat
            // it as freshly written: nothing published, nothing ranked.
            Replica {
                store,
                published: BTreeSet::new(),
                unranked: true,
                writes: 0,
                patched_at_start,
            }
        })
    }

    /// Apply the write the statement just made to the replica, timed as
    /// the statement's store call.
    fn replay_write(
        &mut self,
        rec: &mut Recorder,
        parent: Option<u32>,
        name: &'static str,
        write: impl FnOnce(&mut TemporalStore) -> tempagg_core::Result<usize>,
    ) {
        // Once the replica exists it follows every write, also those of
        // a traced run's untraced blocks (applied untimed).
        if !rec.traced() && self.replica.is_none() {
            return;
        }
        let replica = self.replica_mut();
        let store = &mut replica.store;
        let written = rec.replay(parent, name, 1, || write(store));
        if !matches!(written, Ok(n) if n > 0) {
            rec.fail(format!("{name} on the replica: {written:?}"));
        }
        replica.writes += 1;
        replica.published.clear();
        replica.unranked = true;
    }
}

fn tuple_matches(tuple: &Tuple, dept: i64, reach: Interval) -> bool {
    tuple.value(DEPT).as_i64() == Some(dept) && tuple.valid().overlaps(&reach)
}

/// Order-independent checksum of a bag of tuples.
fn bag_checksum(rows: impl Iterator<Item = (String, i64, i64, Interval)>) -> (u64, u64) {
    rows.fold((0, 0), |(count, sum), (name, dept, salary, valid)| {
        let mut h = Fnv::new();
        h.bytes(name.as_bytes());
        for v in [dept, salary, valid.start().get(), valid.end().get()] {
            h.i64(v);
        }
        (count + 1, sum.wrapping_add(h.finish()))
    })
}

impl Workload for IngestMix {
    const NAME: &'static str = "ingest_mix";
    /// The slowest 2.5 % of statements are the `fresh_select`s and the
    /// rare `fresh_topk`, so p99 reads the middle of the publish-and-zip
    /// path's latencies; p99.9 would read the few `fresh_topk`s.
    const TAIL_RUNG: u32 = 990;
    const BLOCK: usize = 200;

    fn setup(config: &Config) -> IngestMix {
        let n = match config.scale {
            Scale::Full => 65_536,
            Scale::Smoke => 4_096,
        };
        let rows = gen::rows(&mut Rng::fork(config.seed, 1), n, 0, Order::Random);
        let mut catalog = Catalog::new();
        load_table(&mut catalog, "W", &rows);
        let warm = Interval::at(0, WINDOW_WIDTH - 1);
        must(&mut catalog, SELECT_SQL);
        for kind in [Kind::ProbeSum, Kind::ProbeMin, Kind::TopK] {
            must(&mut catalog, &probe_sql(kind, warm));
        }
        IngestMix {
            catalog,
            shadow: rows,
            initial: n,
            rng: Rng::fork(config.seed, 3),
            replica: None,
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
        let store = self.catalog.store("W").expect("set-up created W");
        // W holds exactly the tuples the statements should have left.
        let engine = bag_checksum(store.relation().iter().map(|t| {
            (
                t.value(0).as_str().unwrap_or_default().to_owned(),
                t.value(DEPT).as_i64().unwrap_or(-1),
                t.value(SALARY).as_i64().unwrap_or(-1),
                t.valid(),
            )
        }));
        let shadow = bag_checksum(
            self.shadow
                .iter()
                .map(|r| (r.name.to_owned(), r.dept, r.salary, r.valid())),
        );
        if engine != shadow {
            rec.fail(format!(
                "W holds {} tuples (sum {:x}), the statements leave {} (sum {:x})",
                engine.0, engine.1, shadow.0, shadow.1
            ));
        }
        // Patched series are identical to series rebuilt from scratch.
        let rebuilt = TemporalStore::new(store.relation().clone());
        for (kind, column) in CACHES {
            let patched = store.snapshot(kind, column);
            let fresh = rebuilt.snapshot_or_build(check::dyn_agg(kind), column);
            if patched.is_none_or(|p| p.entries() != fresh.entries()) {
                rec.fail(format!(
                    "patched {} series differs from a rebuild",
                    kind.name()
                ));
            }
        }
        // And every read shape, on the final state, returns what the
        // aggregation tree and a linear window fold compute from the
        // tuples the statements left.
        let relation = gen::relation(&self.shadow);
        let series = check::reference_series(&CACHES, &relation, Interval::TIMELINE);
        let (sum, min) = (
            check::column_series(&series, 1),
            check::column_series(&series, 2),
        );
        let by_dept = check::sum_series_by_dept(&self.shadow);
        let window = self.window();
        // The SELECT returns the tree's first two columns, coalesced.
        let mut select = Digest::default();
        let count_sum = series.map(|mut values| {
            values.truncate(COUNT_SUM.len());
            values
        });
        check::digest_series(&mut select, None, &count_sum, true);
        for (kind, want) in [
            (
                Kind::ProbeSum,
                check::digest_window(&[(AggKind::Sum, &sum)], window),
            ),
            (
                Kind::ProbeMin,
                check::digest_window(&[(AggKind::Min, &min)], window),
            ),
            (Kind::TopK, check::digest_top_k(&by_dept, window, K)),
            (Kind::Select, select),
        ] {
            let sql = probe_sql(kind, window);
            match tempagg_sql::execute_statement(&mut self.catalog, &sql) {
                Ok(out) => rec.expect(&sql, Some(check::digest_output(&out)), want),
                Err(e) => rec.fail(format!("{sql}: {e}")),
            }
        }
    }

    fn probes(&mut self, rec: &mut Recorder, _deadline: Deadline) {
        // Every store call of this workload is replayed under its
        // statement; what is left is the count of runs a write patched.
        if let Some(replica) = &self.replica {
            let patched = replica.store.cache_stats().patched_runs - replica.patched_at_start;
            rec.value(
                "store.patched_runs_per_write",
                patched as f64 / replica.writes.max(1) as f64,
            );
        }
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("W", Json::Num(self.initial as f64)),
            ("W_at_end", Json::Num(self.shadow.len() as f64)),
            ("long_lived_pct", Json::Num(0.0)),
            ("window_width", Json::Num(WINDOW_WIDTH as f64)),
        ])
    }
}
