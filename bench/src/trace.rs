//! Spans recorded from outside the engine, around the calls into each
//! layer's public functions.
//!
//! In a traced run every statement is a root span `stmt.<shape>` whose
//! real children are `sql.parse` and `sql.exec`. After the statement has
//! returned, the benchmark *replays* the layer calls that statement is
//! known to make, on the same inputs, as child spans flagged `replay`.
//! A span's self time is its duration minus what its children cover: a
//! real child covers the part of the parent's interval it overlaps, a
//! replayed child stands for work that happened inside the parent and
//! covers its own duration.
//!
//! Spans stay in memory and are written out once, when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Index of the statement this span belongs to (shared by a root and
    /// all its descendants); layer probes use the index after the last
    /// statement.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub replay: bool,
    /// Units of work the span did (tuples, rows, runs, pages — per name).
    pub count: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Measured values that are not durations (counts, sizes, rates),
    /// written to the trace file beside the spans.
    pub values: BTreeMap<&'static str, f64>,
    stack: Vec<u32>,
    op: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            values: BTreeMap::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Start the next statement's (or probe's) group of spans.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Open a real span under the innermost open span.
    pub fn open(&mut self, name: &'static str) -> u32 {
        self.push(name, false)
    }

    fn push(&mut self, name: &'static str, replay: bool) -> u32 {
        let id = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            start_ns: start,
            end_ns: start,
            replay,
            count: 0,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id` (the innermost open one), recording its work count.
    pub fn close(&mut self, id: u32, count: u64) {
        let end = self.now();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.count = count;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
    }

    /// Time `f` as a replayed child of span `parent` (a span that has
    /// already closed).
    pub fn replay<R>(
        &mut self,
        parent: u32,
        name: &'static str,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.stack.push(parent);
        let id = self.push(name, true);
        let result = f();
        self.close(id, count);
        self.stack.pop();
        result
    }

    pub fn values_json(&self) -> Json {
        Json::obj(self.values.iter().map(|(k, v)| (*k, Json::Num(*v))))
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("id", Json::Num(f64::from(s.id))),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                        ),
                        ("op", Json::Num(f64::from(s.op))),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("replay", Json::Bool(s.replay)),
                        ("count", Json::Num(s.count as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span, indexed by span id: duration minus the part
/// its children cover (see the module docs). Saturates at zero when
/// replayed children took longer than the work they stand for.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    // Children of one parent are recorded in start order and real
    // siblings never overlap (one thread, strictly nested), so summing
    // clipped overlaps is the union.
    for child in spans {
        let Some(parent) = child.parent.and_then(|p| spans.get(p as usize)) else {
            continue;
        };
        covered[parent.id as usize] += if child.replay {
            child.ns()
        } else {
            child
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(child.start_ns.max(parent.start_ns))
        };
    }
    spans
        .iter()
        .map(|s| s.ns().saturating_sub(covered[s.id as usize]))
        .collect()
}

/// Read-only queries the per-layer metrics are derived with.
#[derive(Debug)]
pub struct TraceView<'a> {
    pub spans: &'a [Span],
    pub values: &'a BTreeMap<&'static str, f64>,
    pub self_ns: Vec<u64>,
}

impl<'a> TraceView<'a> {
    pub fn new(spans: &'a [Span], values: &'a BTreeMap<&'static str, f64>) -> TraceView<'a> {
        TraceView {
            spans,
            values,
            self_ns: self_times(spans),
        }
    }

    /// A recorded value; 0 when the workload did not measure it.
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Total self time of spans named `name` whose root statement is
    /// `stmt`, and the total work count of those spans.
    pub fn self_ns_under(&self, stmt: &str, name: &str) -> (u64, u64) {
        let mut root_is_stmt = false;
        let mut total = (0u64, 0u64);
        for s in self.spans {
            if s.parent.is_none() {
                root_is_stmt = s.name == stmt;
            }
            if root_is_stmt && s.name == name {
                total.0 += self.self_ns[s.id as usize];
                total.1 += s.count;
            }
        }
        total
    }

    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total work count of the spans named `name`.
    pub fn total_count(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.count)
            .sum()
    }

    /// Median duration in nanoseconds; 0 when the span never occurred.
    pub fn median_ns(&self, name: &str) -> f64 {
        crate::stats::median(&self.durations(name))
    }

    /// Total duration ÷ total work count; 0 when the span never occurred.
    pub fn ns_per_count(&self, name: &str) -> f64 {
        let (ns, count) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(ns, c), s| (ns + s.ns(), c + s.count));
        if count == 0 {
            0.0
        } else {
            ns as f64 / count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64, replay: bool) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "s",
            start_ns: start,
            end_ns: end,
            replay,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_real_children_by_overlap_and_replays_by_duration() {
        let spans = vec![
            span(0, None, 0, 100, false),     // root
            span(1, Some(0), 10, 30, false),  // real child: covers 20
            span(2, Some(0), 30, 90, false),  // real child: covers 60
            span(3, Some(2), 200, 240, true), // replay under 2: covers 40
            span(4, Some(2), 240, 250, true), // replay under 2: covers 10
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 40, 10]);
    }

    #[test]
    fn replays_longer_than_their_parent_saturate_at_zero() {
        let spans = vec![span(0, None, 0, 10, false), span(1, Some(0), 50, 80, true)];
        assert_eq!(self_times(&spans), vec![0, 30]);
    }

    #[test]
    fn tracer_nests_spans_and_attaches_replays_to_a_closed_parent() {
        let mut t = Tracer::new();
        t.next_op();
        let root = t.open("stmt.x");
        let parse = t.open("sql.parse");
        t.close(parse, 0);
        let exec = t.open("sql.exec");
        t.close(exec, 7);
        t.close(root, 1);
        t.replay(exec, "plan.execute", 42, || ());
        let names: Vec<_> = t
            .spans
            .iter()
            .map(|s| (s.name, s.parent, s.replay))
            .collect();
        assert_eq!(
            names,
            vec![
                ("stmt.x", None, false),
                ("sql.parse", Some(0), false),
                ("sql.exec", Some(0), false),
                ("plan.execute", Some(2), true),
            ]
        );
        assert!(t.spans.iter().all(|s| s.op == 1 && s.end_ns >= s.start_ns));
        assert_eq!(t.spans[2].count, 7);
        let view = TraceView::new(&t.spans, &t.values);
        assert_eq!(view.durations("sql.exec").len(), 1);
        // sql.exec's self time is its span minus the replayed child.
        let (self_ns, rows) = view.self_ns_under("stmt.x", "sql.exec");
        assert_eq!(rows, 7);
        assert_eq!(self_ns, t.spans[2].ns().saturating_sub(t.spans[3].ns()));
        assert_eq!(view.self_ns_under("stmt.y", "sql.exec"), (0, 0));
    }
}
