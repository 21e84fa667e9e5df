//! `paged_cycle`: larger than the resident budget. The only workload
//! where `tempagg-core::pager` encode/decode/checksum and `scan::feed` do
//! most of the work, and where file size and restart cost exist. Reads
//! sit beside full-file writes: every `flush_insert` is a write-through
//! `INSERT` that rewrites the whole file.
//!
//! `F` holds history up to instant 900,000, sorted by start. Each
//! `flush_insert` appends 64 tuples that start in the next 100 instants,
//! as arriving facts do, so the file stays sorted and the k = 1 ordered
//! tree stays valid. Reads hit the OS page cache: the latencies are the
//! sandbox's, not a device's.

use crate::check::{self, Digest};
use crate::gen::{self, Order, Rng, Row, LAST, SALARY};
use crate::json::Json;
use crate::run::{Config, Deadline, Recorder, Scale, Shape, Workload};
use crate::workloads::{load_table, must};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use tempagg_agg::Count;
use tempagg_algo::{
    feed, feed_streaming, KOrderedAggregationTree, SweepAggregator, TemporalAggregator,
};
use tempagg_core::pager::{
    self, PageCursor, PagedReader, PagedWriteOptions, ScanStats, SliceSource,
};
use tempagg_core::{Interval, Series, Value, DEFAULT_CHUNK_CAPACITY};
use tempagg_sql::Catalog;
use tempagg_store::TemporalStore;

const FLUSH_INSERT: Shape = Shape::write("stmt.flush_insert");
const REOPEN: Shape = Shape::read("stmt.reopen");
const FULL_KTREE: Shape = Shape::read("stmt.paged_full_ktree");
const FULL_SWEEP: Shape = Shape::read("stmt.paged_full_sweep");
const WINDOW10: Shape = Shape::read("stmt.paged_window10");
const COUNT_SQL: &str = "SELECT COUNT(*) FROM F";
/// History so far ends here; arrivals start after it.
const HISTORY_END: i64 = 900_000;
const ARRIVALS_PER_FLUSH: usize = 64;
const ARRIVAL_STEP: i64 = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Read {
    Reopen,
    FullKtree,
    FullSweep,
    Window10,
}

/// The reads of one cycle, after its `flush_insert`. Six window scans, so
/// that ten statements make a cycle and the median statement sits inside
/// the window scans' latencies.
const READS: [Read; 9] = [
    Read::Reopen,
    Read::FullKtree,
    Read::FullSweep,
    Read::Window10,
    Read::Window10,
    Read::Window10,
    Read::Window10,
    Read::Window10,
    Read::Window10,
];

fn window10() -> Interval {
    let (a, b) = gen::centred_window(10);
    Interval::at(a, b)
}

/// What the paged reads must return for the file's current contents,
/// computed from the resident rows by the in-RAM sweep.
#[derive(Clone, Copy, Debug)]
struct Expected {
    cycle: usize,
    full: Digest,
    window: Digest,
    count_star: Digest,
}

#[derive(Debug)]
pub struct PagedCycle {
    catalog: Catalog,
    path: PathBuf,
    create_sql: String,
    rows: Vec<Row>,
    initial: usize,
    cycle: usize,
    rng: Rng,
    /// Digests of the timed reads, with the cycle they ran in.
    executed: Vec<(Read, usize, Option<Digest>)>,
    /// The rows as of each cycle are a prefix of `rows`.
    rows_at_cycle: Vec<usize>,
    budget_tuples: usize,
    file_bytes: u64,
    window_scan: ScanStats,
    peak_resident: usize,
    replica: Option<Replica>,
}

/// A second store on a second file, mirroring `F` insert for insert, so
/// `flush()` can be replayed on the same state.
#[derive(Debug)]
struct Replica {
    store: TemporalStore,
    path: PathBuf,
    /// Where the relation is written without footer caches.
    bare_path: PathBuf,
}

impl Replica {
    fn of(original: &TemporalStore, beside: &Path) -> Replica {
        let path = beside.with_file_name("F-replica.tapg");
        let mut store = original.clone();
        store
            .persist_to(path.clone())
            .expect("the results directory is writable");
        Replica {
            store,
            bare_path: beside.with_file_name("F-bare.tapg"),
            path,
        }
    }

    /// Apply the statement's inserts, then time `store.flush` and the
    /// relation-only `pager.write` inside it. The second write also sizes
    /// the footer: file bytes minus relation bytes.
    fn replay_flush(&mut self, rec: &mut Recorder, parent: Option<u32>, batch: &[Row]) {
        for row in batch {
            self.store
                .insert(row.values(), row.valid())
                .expect("arrivals match the schema");
        }
        let n = self.store.len() as u64;
        let flushed = rec.replay(parent, "store.flush", n, || self.store.flush());
        let Ok(Some(with_footer)) = flushed else {
            return rec.fail(format!("store.flush on the replica: {flushed:?}"));
        };
        let written = rec.replay(parent, "pager.write", n, || {
            pager::write_relation(
                self.store.relation(),
                &self.bare_path,
                &PagedWriteOptions::default(),
            )
        });
        match written {
            Ok(bare) => {
                let stats = self.store.cache_stats();
                let runs = (stats.runs / stats.caches.max(1)).max(1) as f64;
                let footer = with_footer.file_bytes.saturating_sub(bare.file_bytes);
                rec.value(
                    "pager.relation_bytes_per_tuple",
                    bare.file_bytes as f64 / n as f64,
                );
                rec.value("pager.footer_bytes_per_run", footer as f64 / runs);
            }
            Err(e) => rec.fail(format!("pager.write on the replica: {e}")),
        }
    }
}

fn count_series_digest(series: &Series<u64>, coalesce: bool) -> Digest {
    let mut as_values = Series::with_capacity(series.len());
    for e in series.entries() {
        as_values.push(e.interval, vec![Value::Int(e.value as i64)]);
    }
    let mut d = Digest::default();
    check::digest_series(&mut d, None, &as_values, coalesce);
    d
}

fn ram_sweep(rows: &[Row], domain: Interval) -> Series<u64> {
    let mut agg = SweepAggregator::with_domain(Count, domain);
    for clipped in rows.iter().filter_map(|r| r.valid().intersect(&domain)) {
        agg.push(clipped, ())
            .expect("clipped tuples lie in the domain");
    }
    agg.finish()
}

fn lifespan(rows: &[Row]) -> Interval {
    let start = rows.iter().map(|r| r.start).min().unwrap_or(0);
    let end = rows.iter().map(|r| r.end).max().unwrap_or(LAST);
    Interval::at(start, end)
}

impl PagedCycle {
    fn n(&self) -> u64 {
        self.rows.len() as u64
    }

    fn flush_insert(&mut self, rec: &mut Recorder) {
        let lo = HISTORY_END + self.cycle as i64 * ARRIVAL_STEP;
        assert!(lo + ARRIVAL_STEP <= LAST, "arrivals ran past the lifespan");
        let mut batch: Vec<Row> = (0..ARRIVALS_PER_FLUSH)
            .map(|_| gen::short_row(&mut self.rng, (lo, lo + ARRIVAL_STEP - 1)))
            .collect();
        batch.sort_by_key(|r| (r.start, r.end));
        if rec.traced() && self.replica.is_none() {
            self.replica = Some(Replica::of(
                self.catalog.store("F").expect("set-up created F"),
                &self.path,
            ));
        }
        let sql = gen::insert_statement("F", &batch);
        let done = rec.statement(FLUSH_INSERT, &mut self.catalog, &sql, 0);
        rec.expect("flush_insert", done.digest, Digest::of_count(batch.len()));
        self.file_bytes = std::fs::metadata(&self.path).map_or(0, |m| m.len());
        // Once the replica exists it follows every insert, also those of
        // a traced run's untraced blocks (applied untimed).
        if let Some(replica) = self.replica.as_mut() {
            replica.replay_flush(rec, done.exec_span, &batch);
        }
        self.rows.extend(batch);
        self.cycle += 1;
        self.rows_at_cycle.push(self.rows.len());
    }

    fn read(&mut self, rec: &mut Recorder, read: Read) {
        let n = self.n();
        let digest = match read {
            Read::Reopen => {
                // A restart: cold catalog → first answer, served from the
                // series restored out of the file's footer.
                let timed = rec.begin(REOPEN);
                let mut fresh = Catalog::new();
                let (created, spans) = rec.sql(&mut fresh, &self.create_sql);
                let (answer, _) = rec.sql(&mut fresh, COUNT_SQL);
                let digest = answer.as_ref().ok().map(check::digest_output);
                let error = created.err().or(answer.err());
                drop(fresh);
                rec.end(timed, 0);
                if let Some(e) = error {
                    rec.fail(format!("reopen: {e}"));
                }
                if rec.traced() {
                    let (parent, path) = (spans.exec, self.path.clone());
                    rec.replay(parent, "store.open", n, || {
                        black_box(TemporalStore::open(&path).map(|s| s.len())).is_ok()
                    });
                    if let Ok(reader) = self.replay_open(rec, parent) {
                        rec.replay(parent, "pager.read_relation", n, || {
                            black_box(reader.read_relation().map(|r| r.len())).is_ok()
                        });
                    }
                }
                digest
            }
            Read::FullKtree => {
                let timed = rec.begin(FULL_KTREE);
                let result = self.paged_ktree();
                rec.end(timed, n);
                self.finish_scan(rec, "paged_full_ktree", result, false)
            }
            Read::FullSweep => {
                let timed = rec.begin(FULL_SWEEP);
                let result = self.paged_sweep(None);
                let root = timed.root();
                rec.end(timed, n);
                if rec.traced() {
                    self.replay_feeds(rec, root);
                }
                self.finish_scan(rec, "paged_full_sweep", result, false)
            }
            Read::Window10 => {
                let timed = rec.begin(WINDOW10);
                let result = self.paged_sweep(Some(window10()));
                rec.end(timed, n);
                self.finish_scan(rec, "paged_window10", result, true)
            }
        };
        self.executed.push((read, self.cycle, digest));
    }

    fn replay_open(
        &self,
        rec: &mut Recorder,
        parent: Option<u32>,
    ) -> tempagg_core::Result<PagedReader> {
        rec.replay(parent, "pager.open", 1, || PagedReader::open(&self.path))
    }

    /// `PagedReader::open` → fence-pruned cursor → `feed_streaming` into
    /// the k = 1 ordered tree, results drained as they finalise.
    fn paged_ktree(&self) -> tempagg_core::Result<(Series<u64>, ScanStats)> {
        let reader = PagedReader::open(&self.path)?;
        let domain = reader
            .lifespan()
            .ok_or_else(|| tempagg_core::TempAggError::storage("the paged file is empty"))?;
        let mut tree = KOrderedAggregationTree::with_domain(Count, 1, domain)?;
        let mut source = PageCursor::new(&reader, domain).units();
        let mut out = Series::new();
        feed_streaming(&mut tree, &mut source, &mut out)?;
        tree.finish_into(&mut out);
        Ok((out, source.stats()))
    }

    /// `PagedReader::open` → fence-pruned cursor → `feed` into the sweep,
    /// over the whole lifespan or one window.
    fn paged_sweep(
        &self,
        window: Option<Interval>,
    ) -> tempagg_core::Result<(Series<u64>, ScanStats)> {
        let reader = PagedReader::open(&self.path)?;
        let domain = match window {
            Some(w) => w,
            None => reader
                .lifespan()
                .ok_or_else(|| tempagg_core::TempAggError::storage("the paged file is empty"))?,
        };
        let mut agg = SweepAggregator::with_domain(Count, domain);
        let mut source = PageCursor::new(&reader, domain).units();
        feed(&mut agg, &mut source)?;
        Ok((agg.finish(), source.stats()))
    }

    /// Like for like: `scan::feed` into the same sweep, once from the
    /// resident tuples and once from the paged file.
    fn replay_feeds(&self, rec: &mut Recorder, parent: Option<u32>) {
        let domain = lifespan(&self.rows);
        let items: Vec<(Interval, ())> = self.rows.iter().map(|r| (r.valid(), ())).collect();
        let n = items.len() as u64;
        rec.replay(parent, "algo.feed_ram", n, || {
            let mut agg = SweepAggregator::with_domain(Count, domain);
            let mut source = SliceSource::new(&items, domain);
            feed(&mut agg, &mut source).expect("resident tuples lie in their own lifespan");
            black_box(agg.finish().len())
        });
        let Ok(reader) = self.replay_open(rec, parent) else {
            return;
        };
        rec.replay(parent, "algo.feed_paged", n, || {
            let mut agg = SweepAggregator::with_domain(Count, domain);
            let mut source = PageCursor::new(&reader, domain).units();
            let fed = feed(&mut agg, &mut source);
            black_box(agg.finish().len());
            fed.is_ok()
        });
    }

    fn finish_scan(
        &mut self,
        rec: &mut Recorder,
        what: &str,
        result: tempagg_core::Result<(Series<u64>, ScanStats)>,
        windowed: bool,
    ) -> Option<Digest> {
        match result {
            Ok((series, scan)) => {
                // One decoded page plus one in-flight chunk is all the
                // pipeline may hold of the input.
                let resident = scan.peak_page_tuples + DEFAULT_CHUNK_CAPACITY;
                self.peak_resident = self.peak_resident.max(resident);
                if resident > self.budget_tuples {
                    rec.fail(format!(
                        "{what}: {resident} resident input tuples exceed the budget {}",
                        self.budget_tuples
                    ));
                }
                if windowed {
                    self.window_scan = scan;
                }
                Some(count_series_digest(&series, false))
            }
            Err(e) => {
                rec.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn expected(&self, cycle: usize) -> Expected {
        let rows = &self.rows[..self.rows_at_cycle[cycle]];
        Expected {
            cycle,
            full: count_series_digest(&ram_sweep(rows, lifespan(rows)), false),
            window: count_series_digest(&ram_sweep(rows, window10()), false),
            count_star: count_series_digest(&ram_sweep(rows, Interval::TIMELINE), true),
        }
    }
}

fn remove(path: &Path) {
    let _ = pager::remove_file(path);
}

impl Workload for PagedCycle {
    const NAME: &'static str = "paged_cycle";
    /// Ten statements a cycle and ten-odd cycles a run: p75 is the
    /// highest rung with ten samples beyond it. The slowest fifth are the
    /// flushes and reopens, so p75 reads the ordered-tree full scan.
    const TAIL_RUNG: u32 = 750;
    const BLOCK: usize = 10;

    fn setup(config: &Config) -> PagedCycle {
        let n = match config.scale {
            Scale::Full => 131_072,
            Scale::Smoke => 4_096,
        };
        let rows = gen::rows_starting_in(
            &mut Rng::fork(config.seed, 1),
            n,
            10,
            Order::SortedByStart,
            (0, HISTORY_END - 1),
        );
        let dir = config
            .results_dir
            .join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("the results directory is writable");
        let path = dir.join("F.tapg");
        remove(&path);
        // Load in RAM, warm the COUNT(*)/SUM caches and the SUM window
        // index, then attach the file: one write carries pages, fences and
        // the cached series in its footer. (Loading through a PERSIST TO
        // table would rewrite the growing file once per INSERT batch.)
        let mut catalog = Catalog::new();
        load_table(&mut catalog, "F", &rows);
        must(&mut catalog, "SELECT COUNT(*), SUM(salary) FROM F");
        must(&mut catalog, "SELECT SUM(salary) OVER [0, 9999] FROM F");
        let stats = catalog
            .store_mut("F")
            .expect("F was just created")
            .persist_to(path.clone())
            .expect("the results directory is writable");
        assert!(stats.sorted, "F is generated in start order");
        // Smoke inputs are smaller than a chunk; their budget is one page
        // plus one chunk with headroom, as in `harness paged --test`.
        let budget_tuples = match config.scale {
            Scale::Full => n / 16,
            Scale::Smoke => 2 * DEFAULT_CHUNK_CAPACITY,
        };
        PagedCycle {
            catalog,
            create_sql: format!(
                "CREATE TABLE F {} PERSIST TO '{}'",
                gen::COLUMNS_SQL,
                path.display()
            ),
            path,
            rows_at_cycle: vec![rows.len()],
            rows,
            initial: n,
            cycle: 0,
            rng: Rng::fork(config.seed, 3),
            executed: Vec::new(),
            budget_tuples,
            file_bytes: stats.file_bytes,
            window_scan: ScanStats::default(),
            peak_resident: 0,
            replica: None,
        }
    }

    fn run(&mut self, rec: &mut Recorder, deadline: Deadline) {
        loop {
            self.flush_insert(rec);
            let mut reads = READS;
            self.rng.shuffle(&mut reads);
            for read in reads {
                self.read(rec, read);
            }
            if deadline.passed() {
                return;
            }
        }
    }

    fn verify(&mut self, rec: &mut Recorder) {
        // Every paged read must equal the in-RAM sweep over the tuples
        // the file held at that point, recomputed per flush.
        let mut expected: Option<Expected> = None;
        for (read, cycle, got) in std::mem::take(&mut self.executed) {
            if expected.is_none_or(|e| e.cycle != cycle) {
                expected = Some(self.expected(cycle));
            }
            let e = expected.expect("computed just above");
            let (what, want) = match read {
                Read::Reopen => ("reopen", e.count_star),
                Read::FullKtree => ("paged_full_ktree", e.full),
                Read::FullSweep => ("paged_full_sweep", e.full),
                Read::Window10 => ("paged_window10", e.window),
            };
            rec.expect(what, got, want);
        }
    }

    fn probes(&mut self, rec: &mut Recorder, _deadline: Deadline) {
        let reader = match rec
            .probe("pager.open", || (PagedReader::open(&self.path), 1))
            .0
        {
            Ok(reader) => reader,
            Err(e) => return rec.fail(format!("pager.open: {e}")),
        };
        // Whole-page and projected single-column decodes, over a spread
        // of pages.
        let pages = reader.page_count();
        for i in (0..pages).step_by((pages / 64).max(1)) {
            let full = rec
                .probe("pager.read_page", || (reader.read_page(i, None), 1))
                .0;
            let projected = rec
                .probe("pager.read_page_projected", || {
                    (reader.read_page(i, Some(&[SALARY])), 1)
                })
                .0;
            if full.is_err() || projected.is_err() {
                rec.fail(format!("pager.read_page({i}) failed"));
            }
        }
        rec.value("pager.pages_read", self.window_scan.pages_read as f64);
        rec.value("pager.pages_pruned", self.window_scan.pages_pruned as f64);
        rec.value("pager.peak_resident_tuples", self.peak_resident as f64);
        rec.value("pager.page_count", pages as f64);
    }

    fn measured(&self) -> Vec<(&'static str, f64)> {
        vec![(
            "class.file_bytes_per_tuple",
            self.file_bytes as f64 / self.n() as f64,
        )]
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("F", Json::Num(self.initial as f64)),
            ("F_at_end", Json::Num(self.rows.len() as f64)),
            ("long_lived_pct", Json::Num(10.0)),
            ("cycles", Json::Num(self.cycle as f64)),
            (
                "resident_budget_tuples",
                Json::Num(self.budget_tuples as f64),
            ),
            ("peak_resident_tuples", Json::Num(self.peak_resident as f64)),
            ("file_bytes", Json::Num(self.file_bytes as f64)),
            (
                "window_pages_read",
                Json::Num(self.window_scan.pages_read as f64),
            ),
            (
                "window_pages_pruned",
                Json::Num(self.window_scan.pages_pruned as f64),
            ),
            (
                "rows_checksum",
                Json::str(format!(
                    "{:016x}",
                    gen::rows_checksum(&self.rows[..self.initial])
                )),
            ),
        ])
    }

    fn teardown(self) {
        remove(&self.path);
        if let Some(replica) = &self.replica {
            remove(&replica.path);
            remove(&replica.bare_path);
        }
        if let Some(dir) = self.path.parent() {
            let _ = std::fs::remove_dir(dir);
        }
    }
}
