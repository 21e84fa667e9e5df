//! One workload run: repeated set-up, one untimed block of the mix, the
//! timed closed loop, verification outside the timed phase, and the metrics
//! derived from what was timed.
//!
//! The loop is closed with one client: the next statement is issued when
//! the previous one has returned and its rows have been folded and
//! released. A statement's latency runs from *statement text in* to
//! *rows folded into the checksum and dropped*; rendering (`Display`) is
//! never timed. `ops_per_s` is statements over the sum of those latencies,
//! so the benchmark's own bookkeeping between statements is not counted.
//! Every timing metric is read over the faster half of the run's blocks
//! (see [`faster_half`]).

use crate::check::{digest_output, Digest};
use crate::json::Json;
use crate::metrics;
use crate::stats;
use crate::trace::{TraceView, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tempagg_plan::PlannerConfig;
use tempagg_sql::{Catalog, StatementOutput};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Every relation at n ≤ 4,096: exercises every code path in seconds.
    Smoke,
}

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where `paged_cycle` keeps its file and traced runs write spans.
    pub results_dir: std::path::PathBuf,
    /// Write `trace-<workload>.json` (off in smoke runs).
    pub write_files: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
}

/// A statement shape: the span name (`stmt.<shape>`) and whether it reads
/// or writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shape {
    pub span: &'static str,
    pub class: Class,
}

impl Shape {
    pub const fn read(span: &'static str) -> Shape {
        Shape {
            span,
            class: Class::Read,
        }
    }

    pub const fn write(span: &'static str) -> Shape {
        Shape {
            span,
            class: Class::Write,
        }
    }

    /// The shape's name without the `stmt.` prefix.
    pub fn name(&self) -> &'static str {
        self.span.strip_prefix("stmt.").unwrap_or(self.span)
    }
}

#[derive(Clone, Copy, Debug)]
struct Sample {
    shape: Shape,
    /// Taken while spans were being recorded.
    traced: bool,
    ns: u64,
    /// Input tuples of the relations a scan statement read (0 otherwise).
    tuples: u64,
}

/// An open timed statement, closed by [`Recorder::end`].
#[derive(Debug)]
pub struct Timed {
    shape: Shape,
    started: Instant,
    root: Option<u32>,
}

impl Timed {
    /// The statement's root span, when the run is traced.
    pub fn root(&self) -> Option<u32> {
        self.root
    }
}

/// Collects latencies, failures and (in a traced run) spans.
#[derive(Debug)]
pub struct Recorder {
    pub tracer: Option<Tracer>,
    /// The tracer of a traced run while it runs an untraced block.
    parked: Option<Tracer>,
    samples: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    config: PlannerConfig,
}

impl Recorder {
    pub fn new(traced: bool) -> Recorder {
        Recorder {
            tracer: traced.then(Tracer::new),
            parked: None,
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            config: PlannerConfig::default(),
        }
    }

    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// Stop recording spans until [`resume_tracing`](Self::resume_tracing):
    /// a traced run alternates untraced and traced blocks of the same mix
    /// to state what tracing costs.
    pub fn pause_tracing(&mut self) {
        self.parked = self.tracer.take().or(self.parked.take());
    }

    pub fn resume_tracing(&mut self) {
        self.tracer = self.parked.take().or(self.tracer.take());
    }

    /// Start timing one statement of `shape`.
    pub fn begin(&mut self, shape: Shape) -> Timed {
        self.attempted += 1;
        let root = self.tracer.as_mut().map(|t| {
            t.next_op();
            t.open(shape.span)
        });
        Timed {
            shape,
            started: Instant::now(),
            root,
        }
    }

    /// Stop timing; `tuples` is the scan input size (0 for non-scans).
    pub fn end(&mut self, timed: Timed, tuples: u64) {
        let ns = timed.started.elapsed().as_nanos() as u64;
        if let (Some(t), Some(root)) = (self.tracer.as_mut(), timed.root) {
            t.close(root, tuples);
        }
        self.samples.push(Sample {
            shape: timed.shape,
            traced: timed.root.is_some(),
            ns,
            tuples,
        });
    }

    /// Execute one statement inside an open [`Timed`]. Untraced this is
    /// `execute_statement`; traced it is the same two calls that function
    /// makes, each under its own span. Returns the output and, when
    /// traced, the ids of the `sql.parse` and `sql.exec` spans that
    /// replays attach to.
    pub fn sql(
        &mut self,
        catalog: &mut Catalog,
        sql: &str,
    ) -> (tempagg_core::Result<StatementOutput>, SqlSpans) {
        let Some(t) = self.tracer.as_mut() else {
            return (
                tempagg_sql::execute_statement(catalog, sql),
                SqlSpans::default(),
            );
        };
        let parse = t.open("sql.parse");
        let parsed = tempagg_sql::parse_statement(sql);
        t.close(parse, sql.len() as u64);
        let mut spans = SqlSpans {
            parse: Some(parse),
            exec: None,
        };
        let statement = match parsed {
            Ok(s) => s,
            Err(e) => return (Err(e), spans),
        };
        let exec = t.open("sql.exec");
        let out = tempagg_sql::execute_parsed_statement(catalog, &statement, &self.config);
        let rows = out.as_ref().map_or(0, output_rows);
        t.close(exec, rows);
        spans.exec = Some(exec);
        (out, spans)
    }

    /// Replay the lexer under a statement's `sql.parse` span (after the
    /// statement has been timed).
    pub fn replay_lex(&mut self, spans: SqlSpans, sql: &str) {
        self.replay(spans.parse, "sql.lex", sql.len() as u64, || {
            std::hint::black_box(tempagg_sql::lex(sql).map(|tokens| tokens.len()))
        })
        .ok();
    }

    /// The common case: time one SQL statement end to end and fold its
    /// rows. `None` (and a failure) when the statement returned `Err`.
    pub fn statement(
        &mut self,
        shape: Shape,
        catalog: &mut Catalog,
        sql: &str,
        tuples: u64,
    ) -> Executed {
        let timed = self.begin(shape);
        let (out, spans) = self.sql(catalog, sql);
        let digest = out.as_ref().ok().map(digest_output);
        let plan = match &out {
            Ok(StatementOutput::Rows(result)) => result.plan.clone(),
            _ => None,
        };
        let error = out.as_ref().err().map(ToString::to_string);
        drop(out);
        self.end(timed, tuples);
        self.replay_lex(spans, sql);
        if let Some(e) = error {
            self.fail(format!("{}: {e}", shape.name()));
        }
        Executed {
            digest,
            exec_span: spans.exec,
            plan,
        }
    }

    /// Count one failed operation (an `Err`, or a checksum that differs
    /// from its independently computed expectation).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }

    /// Compare a statement's digest with its expectation.
    pub fn expect(&mut self, what: &str, got: Option<Digest>, want: Digest) {
        match got {
            // An `Err` was already counted when the statement ran.
            None => {}
            Some(d) if d == want => {}
            Some(d) => self.fail(format!(
                "{what}: got {} rows (sum {:x}), expected {} rows (sum {:x})",
                d.rows, d.sum, want.rows, want.sum
            )),
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// Time one layer call as a replayed child of span `parent`; runs it
    /// untimed when the run is not traced.
    pub fn replay<R>(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        match (self.tracer.as_mut(), parent) {
            (Some(t), Some(parent)) => t.replay(parent, name, count, f),
            _ => f(),
        }
    }

    /// Time one layer probe (a call no statement of the timed loop is the
    /// parent of) as a root span of its own. `f` returns its result and
    /// the work count; the elapsed nanoseconds come back with the result.
    pub fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> (R, u64)) -> (R, f64) {
        let id = self.tracer.as_mut().map(|t| {
            t.next_op();
            t.open(name)
        });
        let started = Instant::now();
        let (result, count) = f();
        let ns = started.elapsed().as_nanos() as f64;
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), id) {
            t.close(id, count);
        }
        (result, ns)
    }

    /// Record a measured value that is not a duration (a count, a size).
    pub fn value(&mut self, name: &'static str, value: f64) {
        if let Some(t) = self.tracer.as_mut() {
            t.values.insert(name, value);
        }
    }

    /// The samples taken with (`traced`) or without spans, in order.
    fn taken(&self, traced: bool) -> Vec<Sample> {
        self.samples
            .iter()
            .filter(|s| s.traced == traced)
            .copied()
            .collect()
    }
}

fn latencies_ms(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| keep(s))
        .map(|s| s.ns as f64 / 1e6)
        .collect()
}

/// Statements per second of statement time.
fn ops_per_s(samples: &[Sample]) -> f64 {
    let ns: u64 = samples.iter().map(|s| s.ns).sum();
    if ns == 0 {
        0.0
    } else {
        samples.len() as f64 / (ns as f64 / 1e9)
    }
}

/// The statements of the faster half of a run's blocks, by the blocks'
/// total statement time. Every block is the same mix, so a block's time
/// reads the state of the host: its neighbours slow whole stretches of a
/// run by 15 to 50 % (bench/README.md, Sandbox caveats), and a run that
/// is disturbed for less than half of its blocks reports as if it had
/// not been.
fn faster_half(samples: &[Sample], block: usize) -> Vec<Sample> {
    let mut blocks: Vec<&[Sample]> = samples.chunks(block).collect();
    blocks.sort_by_key(|b| b.iter().map(|s| s.ns).sum::<u64>());
    blocks.truncate(blocks.len().div_ceil(2));
    blocks.concat()
}

/// Span ids of one traced SQL statement (`None` in an untraced run).
#[derive(Clone, Copy, Debug, Default)]
pub struct SqlSpans {
    pub parse: Option<u32>,
    pub exec: Option<u32>,
}

/// What [`Recorder::statement`] hands back.
#[derive(Debug)]
pub struct Executed {
    pub digest: Option<Digest>,
    pub exec_span: Option<u32>,
    /// The plan an aggregate query ran under, as SQL reported it.
    pub plan: Option<tempagg_plan::Plan>,
}

pub fn output_rows(out: &StatementOutput) -> u64 {
    match out {
        StatementOutput::Rows(r) => r.rows.len() as u64,
        StatementOutput::Tuples(t) => t.rows.len() as u64,
        StatementOutput::Inserted { count, .. }
        | StatementOutput::Deleted { count, .. }
        | StatementOutput::Updated { count, .. } => *count as u64,
        StatementOutput::Created { .. } => 0,
    }
}

/// Stops the timed loop: workloads run whole blocks (so the statement mix
/// is exact) until the deadline has passed.
#[derive(Clone, Copy, Debug)]
pub struct Deadline(Instant);

impl Deadline {
    pub fn after(seconds: f64) -> Deadline {
        Deadline(Instant::now() + Duration::from_secs_f64(seconds.max(0.0)))
    }

    pub fn passed(&self) -> bool {
        Instant::now() >= self.0
    }
}

/// What a workload implements. `setup` is everything a user pays before
/// the first statement: generate, `CREATE` + `INSERT` load, persist, warm
/// caches and indexes.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// The frozen tail rung, in per-mille (see `stats::tail`).
    const TAIL_RUNG: u32;
    /// Statements in one block of the mix.
    const BLOCK: usize;

    fn setup(config: &Config) -> Self;
    /// Run whole blocks of the statement mix until `deadline` has passed
    /// (always at least one block).
    fn run(&mut self, rec: &mut Recorder, deadline: Deadline);
    /// Compare every digest the timed loop stored with an expectation
    /// computed by an independent path. Outside the timed phase.
    fn verify(&mut self, rec: &mut Recorder);
    /// Traced runs only: time the layer calls no statement replays
    /// (kernels, index builds, cold cache builds, page reads).
    fn probes(&mut self, rec: &mut Recorder, deadline: Deadline);
    /// Traced runs only, before the first set-up: probes that read the
    /// memory a build adds, which only a heap that has not grown yet shows.
    fn fresh_heap_probes(_rec: &mut Recorder) {}
    /// Workload-specific end-to-end values the timed loop does not yield
    /// (a file size, say), by `class.*` metric name.
    fn measured(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
    /// Sizes and checksums that identify the load, for the result file.
    fn describe(&self) -> Json;
    /// Release files the workload created.
    fn teardown(self) {}
}

/// The outcome of one run, ready to print.
#[derive(Debug)]
pub struct Outcome {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced), in
    /// declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Metrics that apply to this workload only (`class.*`), untraced runs.
    pub class_metrics: Vec<(&'static str, f64, &'static str)>,
    pub info: Json,
}

const SETUP_REPEATS: usize = 3;

pub fn run_workload<W: Workload>(config: &Config) -> Outcome {
    let mut rec = Recorder::new(config.trace);
    if config.trace {
        W::fresh_heap_probes(&mut rec);
    }
    // Set up several times and report the median, so one slow page fault
    // or allocator warm-up does not decide `setup_s`. The last instance is
    // the one the timed loop runs against.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = workload.take() {
            W::teardown(previous);
        }
        let started = Instant::now();
        workload = Some(W::setup(config));
        setups.push(started.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUP_REPEATS is at least one");
    let setup_s = stats::median(&setups);

    // One block of the mix before anything is timed: the heap grows to its
    // working size and the state the engine builds lazily settles. Its
    // statements are checked like the others but leave no sample or span.
    rec.pause_tracing();
    workload.run(&mut rec, Deadline::after(0.0));
    rec.resume_tracing();
    rec.samples.clear();

    if config.trace {
        // Alternate untraced and traced blocks of the same mix, so the
        // run can state what tracing cost it without a warm-up or drift
        // deciding the answer. Each `run` call with a passed deadline is
        // exactly one block.
        let end = Deadline::after(config.seconds * 0.75);
        loop {
            rec.pause_tracing();
            workload.run(&mut rec, Deadline::after(0.0));
            rec.resume_tracing();
            workload.run(&mut rec, Deadline::after(0.0));
            if end.passed() {
                break;
            }
        }
    } else {
        workload.run(&mut rec, Deadline::after(config.seconds));
    }
    // The metrics come from the samples taken the way this run was asked
    // to take them; a traced run's untraced blocks only price the spans.
    let taken = rec.taken(config.trace);
    // What tracing costs is read over every block of both kinds.
    let untraced_ops_per_s = ops_per_s(&rec.taken(false));
    let traced_ops_per_s = ops_per_s(&taken);
    workload.verify(&mut rec);

    let kept = faster_half(&taken, W::BLOCK);
    let all = stats::sorted(latencies_ms(&kept, |_| true));
    let (tail_ms, rung) = stats::tail(&all, W::TAIL_RUNG);
    let reads = latencies_ms(&kept, |s| s.shape.class == Class::Read);
    let writes = latencies_ms(&kept, |s| s.shape.class == Class::Write);
    let (scan_ns, scan_tuples) = kept
        .iter()
        .filter(|s| s.tuples > 0)
        .fold((0u64, 0u64), |(ns, t), s| (ns + s.ns, t + s.tuples));
    let mut class_values: BTreeMap<&'static str, f64> = [
        ("class.read_p50_ms", stats::median(&reads)),
        ("class.write_p50_ms", stats::median(&writes)),
        (
            "class.tuples_per_s",
            if scan_ns == 0 {
                0.0
            } else {
                scan_tuples as f64 / (scan_ns as f64 / 1e9)
            },
        ),
        (
            "class.reopen_s",
            stats::median(&latencies_ms(&kept, |s| s.shape.span == "stmt.reopen")) / 1e3,
        ),
    ]
    .into_iter()
    .collect();
    class_values.extend(workload.measured());

    let mut info = vec![
        ("workload".to_owned(), Json::str(W::NAME)),
        ("seed".to_owned(), Json::Num(config.seed as f64)),
        ("seconds".to_owned(), Json::Num(config.seconds)),
        ("traced".to_owned(), Json::Bool(config.trace)),
        ("nproc".to_owned(), Json::Num(nproc() as f64)),
        ("client_threads".to_owned(), Json::Num(1.0)),
        ("timed_statements".to_owned(), Json::Num(taken.len() as f64)),
        (
            "statements_in_faster_half".to_owned(),
            Json::Num(kept.len() as f64),
        ),
        (
            "whole_run".to_owned(),
            Json::obj([
                ("ops_per_s", Json::Num(ops_per_s(&taken))),
                (
                    "p50_ms",
                    Json::Num(stats::median(&latencies_ms(&taken, |_| true))),
                ),
            ]),
        ),
        ("tail_rung_permille".to_owned(), Json::Num(f64::from(rung))),
        (
            "samples_beyond_tail".to_owned(),
            Json::Num(stats::beyond(all.len(), rung) as f64),
        ),
        ("load".to_owned(), workload.describe()),
    ];

    let metrics: Vec<(&'static str, f64, &'static str)>;
    let mut class_metrics = Vec::new();
    if config.trace {
        workload.probes(&mut rec, Deadline::after(config.seconds * 0.25));
        for (name, value) in &class_values {
            rec.value(name, *value);
        }
        rec.value("trace.untraced_ops_per_s", untraced_ops_per_s);
        rec.value("trace.traced_ops_per_s", traced_ops_per_s);
        let tracer = rec.tracer.take().expect("a traced run has a tracer");
        if config.write_files {
            let path = config.results_dir.join(format!("trace-{}.json", W::NAME));
            let file = Json::obj([
                ("info", Json::Obj(info.clone())),
                ("values", tracer.values_json()),
                ("spans", tracer.to_json()),
            ]);
            match std::fs::create_dir_all(&config.results_dir)
                .and_then(|()| std::fs::write(&path, file.render()))
            {
                Ok(()) => info.push((
                    "trace_file".to_owned(),
                    Json::str(path.display().to_string()),
                )),
                Err(e) => eprintln!("could not write {}: {e}", path.display()),
            }
        }
        let view = TraceView::new(&tracer.spans, &tracer.values);
        metrics = metrics::PER_LAYER
            .iter()
            .map(|m| (m.name, metrics::derive(m.name, &view), m.unit))
            .collect();
    } else {
        let e2e: BTreeMap<&str, f64> = [
            ("setup_s", setup_s),
            ("ops_per_s", ops_per_s(&kept)),
            ("p50_ms", stats::percentile(&all, 500)),
            ("tail_ms", tail_ms),
            ("peak_rss_mb", peak_rss_mb()),
        ]
        .into_iter()
        .collect();
        metrics = metrics::END_TO_END
            .iter()
            .map(|m| (m.name, e2e[m.name], m.unit))
            .collect();
        class_metrics = metrics::CLASS
            .iter()
            .filter_map(|m| {
                let value = class_values.get(m.name).copied()?;
                (value != 0.0).then_some((m.name, value, m.unit))
            })
            .collect();
    }

    let outcome = Outcome {
        workload: W::NAME,
        correct: rec.failed == 0,
        attempted: rec.attempted,
        failed: rec.failed,
        failures: rec.failures().to_vec(),
        metrics,
        class_metrics,
        info: Json::Obj(info),
    };
    workload.teardown();
    outcome
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    rss_kb("VmHWM:") / 1024.0
}

/// Current resident set (`VmRSS`), in bytes.
pub fn rss_bytes() -> f64 {
    rss_kb("VmRSS:") * 1024.0
}

fn rss_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(ns: u64) -> Sample {
        Sample {
            shape: Shape::read("stmt.test"),
            traced: false,
            ns,
            tuples: 0,
        }
    }

    #[test]
    fn faster_half_keeps_whole_blocks_by_their_total_time() {
        // Blocks of two: totals 30, 4, 12, 7, and a last block of one (9).
        let samples: Vec<Sample> = [10, 20, 1, 3, 6, 6, 2, 5, 9].map(sample).to_vec();
        let kept: Vec<u64> = faster_half(&samples, 2).iter().map(|s| s.ns).collect();
        // Three of five blocks, fastest first, each block's order kept.
        assert_eq!(kept, [1, 3, 2, 5, 9]);
        assert_eq!(faster_half(&samples[..2], 2).len(), 2, "one block stays");
        assert!(faster_half(&[], 2).is_empty());
    }
}
