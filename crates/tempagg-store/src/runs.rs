//! The working series of one cache as a chunk list: constant-interval
//! runs tiling `[0, ∞]`, held in fixed-capacity chunks behind a directory
//! of fences (each chunk's first start).
//!
//! A write adds or drops at most two run edges. In one `Vec<Run>` each of
//! those is a memmove of half the series (≈ 0.3 ms per cache at 131,072
//! runs); here it moves at most one chunk's runs plus one directory slot.
//! Everything that walks runs in time order — a window scan, a patch, the
//! snapshot copy — still reads contiguous memory a chunk at a time.

use tempagg_agg::{AvgState, DynActive};
use tempagg_core::{Interval, SeriesEntry, Timestamp, Value};

/// The most runs one chunk holds. Small enough that an edge insert or
/// removal moves a few KB, large enough that walks stay sequential and the
/// directory of a 131,072-run series (512 slots) stays in L1.
const CHUNK_RUNS: usize = 256;

/// One constant-interval run of the working series. It owns no heap
/// memory beyond what its value may share.
#[derive(Clone, Debug)]
pub(crate) struct Run {
    pub(crate) interval: Interval,
    pub(crate) state: RunState,
    pub(crate) value: Value,
}

/// What a run keeps beside its value: the retractable state of a
/// Delta-class aggregate over the tuples covering it, which a write
/// patches, or nothing — an Ordered-class run (`MIN`, `MAX`,
/// `COUNT(DISTINCT)`) is folded into or re-derived from the relation
/// instead (`cache.rs`). Fixed-size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum RunState {
    /// An Ordered-class run: its value is all it keeps.
    Valued,
    Count(u64),
    SumInt {
        sum: i64,
        count: u64,
    },
    /// Integer `AVG`'s exact total as its high and low words: an `i128`
    /// field would align every run, and pad it, to 16 B.
    AvgInt {
        high: i64,
        low: u64,
        count: u64,
    },
}

impl RunState {
    /// The part of an active state a run keeps.
    pub(crate) fn of(active: &DynActive) -> RunState {
        match *active {
            DynActive::Count(count) => RunState::Count(count),
            DynActive::SumInt { sum, count } => RunState::SumInt { sum, count },
            DynActive::AvgInt(AvgState { sum, count }) => RunState::AvgInt {
                high: i64::try_from(sum >> 64).unwrap_or(0),
                low: u64::try_from(sum & i128::from(u64::MAX)).unwrap_or(0),
                count,
            },
            _ => RunState::Valued,
        }
    }

    /// The active state to patch, `None` for an Ordered-class run.
    pub(crate) fn active(self) -> Option<DynActive> {
        Some(match self {
            RunState::Valued => return None,
            RunState::Count(count) => DynActive::Count(count),
            RunState::SumInt { sum, count } => DynActive::SumInt { sum, count },
            RunState::AvgInt { high, low, count } => DynActive::AvgInt(AvgState {
                sum: (i128::from(high) << 64) | i128::from(low),
                count,
            }),
        })
    }
}

/// `1..=CHUNK_RUNS` consecutive runs, and where they start.
#[derive(Clone, Debug)]
struct Chunk {
    /// The start of `runs[0]`, kept beside the chunk's header: a lookup
    /// searches the directory by fence and then touches one chunk only.
    fence: Timestamp,
    runs: Vec<Run>,
}

impl Chunk {
    /// `None` for no runs: a chunk is never empty.
    fn of(runs: Vec<Run>) -> Option<Chunk> {
        let fence = runs.first()?.interval.start();
        Some(Chunk { fence, runs })
    }
}

/// Time-ordered runs tiling `[0, ∞]`: a directory of chunks.
#[derive(Clone, Debug)]
pub(crate) struct RunList {
    chunks: Vec<Chunk>,
    len: usize,
}

impl RunList {
    pub(crate) fn new() -> RunList {
        RunList {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Append the next run in time order, filling chunks to capacity. A
    /// build streams its runs in here one by one: no second, series-sized
    /// array exists even for a moment (the hole it would leave in the heap
    /// is one a later result buffer lands in and cannot grow out of).
    pub(crate) fn push(&mut self, run: Run) {
        match self.chunks.last_mut() {
            Some(chunk) if chunk.runs.len() < CHUNK_RUNS => chunk.runs.push(run),
            _ => self.chunks.push(Chunk {
                fence: run.interval.start(),
                runs: vec![run],
            }),
        }
        self.len += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The series these runs publish: every run's interval and value, in
    /// one exactly-sized copy.
    pub(crate) fn entries(&self) -> Vec<SeriesEntry<Value>> {
        let mut entries = Vec::with_capacity(self.len);
        for chunk in &self.chunks {
            entries.extend(
                chunk
                    .runs
                    .iter()
                    .map(|r| SeriesEntry::new(r.interval, r.value.clone())),
            );
        }
        entries
    }

    /// The chunks in time order, each a contiguous slice of runs.
    #[cfg(any(test, feature = "validate"))]
    pub(crate) fn chunks(&self) -> impl Iterator<Item = &[Run]> {
        self.chunks.iter().map(|chunk| chunk.runs.as_slice())
    }

    /// Chunk and offset of the run containing instant `t`.
    fn locate(&self, t: Timestamp) -> (usize, usize) {
        let c = self
            .chunks
            .partition_point(|chunk| chunk.fence <= t)
            .saturating_sub(1);
        let i = self.chunks.get(c).map_or(0, |chunk| {
            chunk.runs.partition_point(|r| r.interval.end() < t)
        });
        (c, i)
    }

    fn runs_mut(&mut self, c: usize) -> Option<&mut Vec<Run>> {
        self.chunks.get_mut(c).map(|chunk| &mut chunk.runs)
    }

    /// Visit every run overlapping `iv`, in time order.
    pub(crate) fn for_each_in(&self, iv: Interval, mut f: impl FnMut(&Run)) {
        let (c, mut i) = self.locate(iv.start());
        for chunk in self.chunks.iter().skip(c) {
            for run in chunk.runs.iter().skip(i) {
                if run.interval.start() > iv.end() {
                    return;
                }
                f(run);
            }
            i = 0;
        }
    }

    /// [`for_each_in`](RunList::for_each_in) with write access; returns
    /// how many runs were visited.
    pub(crate) fn for_each_in_mut(&mut self, iv: Interval, mut f: impl FnMut(&mut Run)) -> u64 {
        let (c, mut i) = self.locate(iv.start());
        let mut visited = 0;
        for chunk in self.chunks.iter_mut().skip(c) {
            for run in chunk.runs.iter_mut().skip(i) {
                if run.interval.start() > iv.end() {
                    return visited;
                }
                f(run);
                visited += 1;
            }
            i = 0;
        }
        visited
    }

    /// Split the run containing `b` into `[.., b-1]` and `[b, ..]`, both
    /// keeping its state and value. A no-op when a run already starts at
    /// `b`. A full chunk is halved first, so no chunk outgrows its
    /// capacity.
    pub(crate) fn split_at(&mut self, b: Timestamp) {
        let (mut c, mut i) = self.locate(b);
        let run = self.chunks.get(c).and_then(|chunk| chunk.runs.get(i));
        let Some((left, right)) = run.and_then(|run| run.interval.split_before(b)) else {
            return;
        };
        if self.chunks.get(c).map(|chunk| chunk.runs.len()) == Some(CHUNK_RUNS) {
            self.halve(c);
            if let Some(upper) = i.checked_sub(CHUNK_RUNS / 2) {
                (c, i) = (c + 1, upper);
            }
        }
        let Some(runs) = self.runs_mut(c) else {
            return;
        };
        let Some(run) = runs.get_mut(i) else {
            return;
        };
        run.interval = left;
        let twin = Run {
            interval: right,
            state: run.state,
            value: run.value.clone(),
        };
        runs.insert(i + 1, twin);
        self.len += 1;
    }

    /// Move the upper half of chunk `c` into a new chunk after it.
    fn halve(&mut self, c: usize) {
        let Some(runs) = self.runs_mut(c) else {
            return;
        };
        let upper = runs.split_off(runs.len() / 2);
        if let Some(upper) = Chunk::of(upper) {
            self.chunks.insert(c + 1, upper);
        }
    }

    /// Merge the run starting at `b` into its predecessor, whose state and
    /// value stand for the merged run. A no-op when no run starts at `b`.
    /// A chunk left under a quarter full joins its neighbour when the two
    /// fit in one.
    pub(crate) fn merge_at(&mut self, b: Timestamp) {
        let (c, i) = self.locate(b);
        if (c, i) == (0, 0) {
            return;
        }
        let Some(chunk) = self.chunks.get_mut(c) else {
            return;
        };
        if chunk.runs.get(i).map(|run| run.interval.start()) != Some(b) {
            return;
        }
        let right = chunk.runs.remove(i);
        self.len -= 1;
        // Its first run gone to the previous chunk's last one, a chunk
        // starts at its next run (an emptied chunk is joined away below).
        if let Some(first) = chunk.runs.first() {
            chunk.fence = first.interval.start();
        }
        let left = match i.checked_sub(1) {
            Some(before) => chunk.runs.get_mut(before),
            None => self.runs_mut(c - 1).and_then(|prev| prev.last_mut()),
        };
        if let Some(left) = left {
            left.interval = left.interval.hull(&right.interval);
        }
        self.join_if_sparse(c);
    }

    /// Fold chunk `c`, once under a quarter full (or emptied), into its
    /// neighbour if both fit in one chunk.
    fn join_if_sparse(&mut self, c: usize) {
        let len_of = |k: usize| self.chunks.get(k).map(|chunk| chunk.runs.len());
        if len_of(c).map_or(true, |len| len >= CHUNK_RUNS / 4) {
            return;
        }
        let lower = c.saturating_sub(1);
        let (Some(a), Some(b)) = (len_of(lower), len_of(lower + 1)) else {
            return;
        };
        if a + b > CHUNK_RUNS {
            return;
        }
        let upper = self.chunks.remove(lower + 1);
        if let Some(runs) = self.runs_mut(lower) {
            runs.extend(upper.runs);
        }
    }

    /// Structural invariants: every chunk holds `1..=CHUNK_RUNS` runs,
    /// each fence is its chunk's first start, and the runs tile `[0, ∞]`.
    #[cfg(any(test, feature = "validate"))]
    pub(crate) fn validate_structure(&self) {
        let mut expected_start = Interval::TIMELINE.start();
        let mut last_end = None;
        let mut count = 0usize;
        for (c, chunk) in self.chunks.iter().enumerate() {
            assert!(
                (1..=CHUNK_RUNS).contains(&chunk.runs.len()),
                "chunk {c} holds {} runs",
                chunk.runs.len()
            );
            assert_eq!(
                chunk.runs.first().map(|run| run.interval.start()),
                Some(chunk.fence),
                "fence {c} must be its chunk's first start"
            );
            for run in &chunk.runs {
                assert_eq!(
                    run.interval.start(),
                    expected_start,
                    "cache runs must tile the timeline (run {count})"
                );
                expected_start = run.interval.end().next();
                last_end = Some(run.interval.end());
                count += 1;
            }
        }
        assert_eq!(
            last_end,
            Some(Interval::TIMELINE.end()),
            "cache runs must extend to FOREVER"
        );
        assert_eq!(count, self.len, "run count out of step with the chunks");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` runs of ten instants each (the last one open-ended), run `i`
    /// carrying the value `i`.
    fn decades(n: i64) -> RunList {
        let run = |i: i64| Run {
            interval: if i + 1 == n {
                Interval::from_start(10 * i)
            } else {
                Interval::at(10 * i, 10 * i + 9)
            },
            state: RunState::Valued,
            value: Value::Int(i),
        };
        let mut list = RunList::new();
        (0..n).map(run).for_each(|run| list.push(run));
        list
    }

    fn flat(list: &RunList) -> Vec<(Interval, Value)> {
        list.chunks()
            .flatten()
            .map(|run| (run.interval, run.value.clone()))
            .collect()
    }

    /// The run containing instant `t`, as `(interval, value)`.
    fn run_at(list: &RunList, t: i64) -> Option<(Interval, Value)> {
        let t = Timestamp::new(t);
        flat(list).into_iter().find(|(iv, _)| iv.contains(t))
    }

    fn chunk_lens(list: &RunList) -> Vec<usize> {
        list.chunks().map(<[Run]>::len).collect()
    }

    #[test]
    fn build_cuts_full_chunks() {
        let list = decades(600);
        list.validate_structure();
        assert_eq!(
            chunk_lens(&list),
            [CHUNK_RUNS, CHUNK_RUNS, 600 - 2 * CHUNK_RUNS]
        );
        assert_eq!(list.len(), 600);
        assert_eq!(
            run_at(&list, 2565).map(|(_, value)| value),
            Some(Value::Int(256))
        );
    }

    #[test]
    fn split_exactly_at_a_chunk_edge() {
        let edge = 10 * i64::try_from(CHUNK_RUNS).unwrap();
        let mut list = decades(2 * i64::try_from(CHUNK_RUNS).unwrap());
        // A run already starts on the edge: nothing to split.
        list.split_at(Timestamp::new(edge));
        assert_eq!(chunk_lens(&list), [CHUNK_RUNS, CHUNK_RUNS]);
        // The last run of the first chunk: the twin lands behind it, in
        // the upper half of the chunk that had to be halved first.
        list.split_at(Timestamp::new(edge - 5));
        list.validate_structure();
        assert_eq!(
            chunk_lens(&list),
            [CHUNK_RUNS / 2, CHUNK_RUNS / 2 + 1, CHUNK_RUNS]
        );
        // The first run of the (old) second chunk: its fence stays put.
        list.split_at(Timestamp::new(edge + 5));
        list.validate_structure();
        assert_eq!(
            chunk_lens(&list),
            [
                CHUNK_RUNS / 2,
                CHUNK_RUNS / 2 + 1,
                CHUNK_RUNS / 2 + 1,
                CHUNK_RUNS / 2
            ]
        );
        let runs = flat(&list);
        assert_eq!(runs.len(), list.len());
        let at = CHUNK_RUNS - 1;
        assert_eq!(
            runs[at],
            (Interval::at(edge - 10, edge - 6), Value::Int(255))
        );
        assert_eq!(
            runs[at + 1],
            (Interval::at(edge - 5, edge - 1), Value::Int(255))
        );
        assert_eq!(
            runs[at + 2],
            (Interval::at(edge, edge + 4), Value::Int(256))
        );
        assert_eq!(
            runs[at + 3],
            (Interval::at(edge + 5, edge + 9), Value::Int(256))
        );
    }

    #[test]
    fn merge_exactly_at_a_chunk_edge() {
        let edge = 10 * i64::try_from(CHUNK_RUNS).unwrap();
        let mut list = decades(3 * i64::try_from(CHUNK_RUNS).unwrap());
        // The second chunk's first run joins the first chunk's last one:
        // the second chunk's fence moves to its next run.
        list.merge_at(Timestamp::new(edge));
        list.validate_structure();
        assert_eq!(chunk_lens(&list), [CHUNK_RUNS, CHUNK_RUNS - 1, CHUNK_RUNS]);
        assert_eq!(
            run_at(&list, edge + 3),
            Some((Interval::at(edge - 10, edge + 9), Value::Int(255)))
        );
        // No run starts here any more, and none starts mid-run.
        list.merge_at(Timestamp::new(edge));
        list.merge_at(Timestamp::new(edge + 15));
        assert_eq!(list.len(), 3 * CHUNK_RUNS - 1);
        // The origin is not an interior edge.
        list.merge_at(Timestamp::ORIGIN);
        assert_eq!(list.len(), 3 * CHUNK_RUNS - 1);
        // The last run of the first chunk goes into the one before it.
        list.merge_at(Timestamp::new(edge - 10));
        list.validate_structure();
        assert_eq!(
            chunk_lens(&list),
            [CHUNK_RUNS - 1, CHUNK_RUNS - 1, CHUNK_RUNS]
        );
    }

    #[test]
    fn a_drained_chunk_joins_its_neighbour() {
        let n = 3 * i64::try_from(CHUNK_RUNS).unwrap();
        let edge = 10 * i64::try_from(CHUNK_RUNS).unwrap();
        let mut list = decades(n);
        // Drop every edge of the middle chunk, first to last: it shrinks,
        // stays apart while the two do not fit one chunk, and is gone in
        // the end.
        for b in (edge..2 * edge).step_by(10) {
            list.merge_at(Timestamp::new(b));
            list.validate_structure();
        }
        assert_eq!(chunk_lens(&list), [CHUNK_RUNS, CHUNK_RUNS]);
        assert_eq!(
            run_at(&list, edge).map(|(interval, _)| interval),
            Some(Interval::at(edge - 10, 2 * edge - 1))
        );
        // Down to a single run, in a single chunk.
        for b in (10..10 * n).step_by(10) {
            list.merge_at(Timestamp::new(b));
            list.validate_structure();
        }
        assert_eq!(chunk_lens(&list), [1]);
        assert_eq!(flat(&list), [(Interval::TIMELINE, Value::Int(0))]);
    }

    /// No run grows past the 72 B it took while it held an active state:
    /// the state is fixed-size, and an integer `AVG`'s `i128` total goes in
    /// and out of it intact.
    #[test]
    fn a_run_is_fixed_size_and_keeps_delta_states_exactly() {
        assert!(std::mem::size_of::<Run>() <= 72);
        for sum in [0, -1, 1 << 70, -(1 << 70) + 3, i128::from(i64::MIN) - 1] {
            let active = DynActive::AvgInt(AvgState { sum, count: 7 });
            assert_eq!(RunState::of(&active).active(), Some(active));
        }
        let distinct = DynActive::Distinct(std::collections::BTreeMap::new());
        assert_eq!(RunState::of(&distinct), RunState::Valued);
        assert_eq!(RunState::Valued.active(), None);
    }

    #[test]
    fn walks_cross_chunk_edges() {
        let edge = 10 * i64::try_from(CHUNK_RUNS).unwrap();
        let mut list = decades(2 * i64::try_from(CHUNK_RUNS).unwrap());
        let window = Interval::at(edge - 15, edge + 12);
        let mut seen = Vec::new();
        list.for_each_in(window, |run| seen.push(run.value.clone()));
        assert_eq!(seen, [254, 255, 256, 257].map(Value::Int));
        let visited = list.for_each_in_mut(window, |run| run.value = Value::Null);
        assert_eq!(visited, 4);
        let nulls = flat(&list).iter().filter(|(_, v)| v.is_null()).count();
        assert_eq!(nulls, 4);
    }
}
