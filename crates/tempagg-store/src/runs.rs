//! The working series of one cache as a chunk list: constant-interval
//! runs tiling `[0, ∞]`, held in fixed-capacity chunks behind a directory
//! of fences (each chunk's first start).
//!
//! A write adds or drops at most two run edges. In one `Vec<Run>` each of
//! those is a memmove of half the series (≈ 0.3 ms per cache at 131,072
//! runs); here it moves at most one chunk's runs plus one directory slot.
//! Everything that walks runs in time order — a window scan, a patch, a
//! dirty-window splice, the snapshot copy — still reads contiguous memory
//! a chunk at a time.

use tempagg_agg::DynActive;
use tempagg_core::{Interval, SeriesEntry, Timestamp, Value};

/// The most runs one chunk holds. Small enough that an edge insert or
/// removal moves a few KB, large enough that walks stay sequential and the
/// directory of a 131,072-run series (512 slots) stays in L1.
const CHUNK_RUNS: usize = 256;

/// One constant-interval run of the working series.
#[derive(Clone, Debug)]
pub(crate) struct Run {
    pub(crate) interval: Interval,
    /// The retractable active state over the tuples covering this run.
    /// Meaningful only for retractable classes; recompute-mode caches
    /// keep an empty placeholder.
    pub(crate) state: DynActive,
    pub(crate) value: Value,
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

    /// The run containing instant `t`.
    pub(crate) fn run_at(&self, t: Timestamp) -> Option<&Run> {
        let (c, i) = self.locate(t);
        self.chunks.get(c)?.runs.get(i)
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
        let Some((left, right)) = self.run_at(b).and_then(|run| run.interval.split_before(b))
        else {
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
            state: run.state.clone(),
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

    /// Replace the runs overlapping `iv` by `replacement`, which must tile
    /// exactly their hull. The chunks the stale runs sat in are re-cut
    /// evenly; chunks outside are not touched.
    pub(crate) fn splice(&mut self, iv: Interval, replacement: Vec<Run>) {
        if replacement.is_empty() {
            return;
        }
        let (c0, i0) = self.locate(iv.start());
        let (c1, i1) = self.locate(iv.end());
        let Some(last) = self.runs_mut(c1) else {
            return;
        };
        let tail = last.split_off((i1 + 1).min(last.len()));
        let covered: usize = self
            .chunks
            .iter()
            .take(c1 + 1)
            .skip(c0)
            .map(|chunk| chunk.runs.len())
            .sum();
        let mut runs = self.runs_mut(c0).map(std::mem::take).unwrap_or_default();
        runs.truncate(i0);
        self.len = self.len + i0 + replacement.len() - covered;
        runs.extend(replacement);
        runs.extend(tail);

        let pieces = runs.len().div_ceil(CHUNK_RUNS);
        let per_piece = runs.len().div_ceil(pieces);
        let mut recut = Vec::with_capacity(pieces);
        let mut runs = runs.into_iter();
        while let Some(chunk) = Chunk::of(runs.by_ref().take(per_piece).collect()) {
            recut.push(chunk);
        }
        drop(self.chunks.splice(c0..=c1, recut));
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
            state: DynActive::Count(0),
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
            list.run_at(Timestamp::new(2565)).map(|r| &r.value),
            Some(&Value::Int(256))
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
            list.run_at(Timestamp::new(edge + 3))
                .map(|r| (r.interval, r.value.clone())),
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
            list.run_at(Timestamp::new(edge)).map(|r| r.interval),
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

    #[test]
    fn splice_spanning_several_chunks_recuts_them() {
        let n = 5 * i64::try_from(CHUNK_RUNS).unwrap();
        let before = flat(&decades(n));
        // Stale: runs 100 ..= 1100 (chunks 0 to 4). Replacement: the same
        // hull in runs of 25 instants, then in runs of 5.
        for width in [25, 5] {
            let mut list = decades(n);
            let (lo, hi) = (1000, 11_009);
            let replacement: Vec<Run> = (lo..=hi)
                .step_by(width)
                .map(|s| Run {
                    interval: Interval::at(s, (s + i64::try_from(width).unwrap() - 1).min(hi)),
                    state: DynActive::Count(0),
                    value: Value::Int(-s),
                })
                .collect();
            let expected: Vec<(Interval, Value)> = before[..100]
                .iter()
                .cloned()
                .chain(replacement.iter().map(|r| (r.interval, r.value.clone())))
                .chain(before[1101..].iter().cloned())
                .collect();
            // Any interval with the same overlap names the same stale runs.
            list.splice(Interval::at(lo + 3, hi - 3), replacement);
            list.validate_structure();
            assert_eq!(flat(&list), expected, "width {width}");
        }
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
