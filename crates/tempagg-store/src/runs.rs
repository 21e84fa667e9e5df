//! The working series of one cache as a chunk list: constant-interval
//! runs tiling `[0, ∞]`, held in fixed-capacity chunks behind a directory
//! of fences (each chunk's first start).
//!
//! A write adds or drops at most two run edges. In one `Vec` each of
//! those is a memmove of half the series (≈ 0.3 ms per cache at 131,072
//! runs); here it moves at most one chunk's runs plus one directory slot.
//! Everything that walks runs in time order — a window scan, a patch, a
//! reader's cursor — still reads contiguous memory a chunk at a time.
//!
//! A chunk keeps its columns apart. The runs' intervals and values sit in
//! an `Arc` that a published [`SeriesView`] shares: publishing clones one
//! `Arc` per chunk, and a patch copies a chunk (≤ 256 × 40 B) only while a
//! view still holds it. A Delta-class cache's [`RunState`]s sit beside
//! them, run for run, and no view shares them; an Ordered-class cache
//! keeps none.

use std::sync::Arc;
use tempagg_agg::{AvgState, DynActive};
use tempagg_core::{Interval, SeriesEntry, SeriesView, Timestamp, Value};

/// The most runs one chunk holds. Small enough that an edge insert or
/// removal moves a few KB, large enough that walks stay sequential and the
/// directory of a 131,072-run series (512 slots) stays in L1.
const CHUNK_RUNS: usize = 256;

/// What a Delta-class run keeps beside its value: the retractable state of
/// the aggregate over the tuples covering it, which a write patches. An
/// Ordered-class run (`MIN`, `MAX`, `COUNT(DISTINCT)`) keeps none: it is
/// folded into or re-derived from the relation instead (`cache.rs`).
/// Fixed-size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum RunState {
    Count(u64),
    /// Integer `SUM`'s and `AVG`'s exact total as its high and low words:
    /// an `i128` field would align every state, and pad it, to 16 B.
    IntTotal {
        high: i64,
        low: u64,
        count: u64,
    },
}

impl RunState {
    /// The part of an active state a run keeps, `None` for an
    /// Ordered-class state.
    pub(crate) fn of(active: &DynActive) -> Option<RunState> {
        Some(match *active {
            DynActive::Count(count) => RunState::Count(count),
            DynActive::IntTotal(AvgState { sum, count }) => RunState::IntTotal {
                high: i64::try_from(sum >> 64).unwrap_or(0),
                low: u64::try_from(sum & i128::from(u64::MAX)).unwrap_or(0),
                count,
            },
            _ => return None,
        })
    }

    /// The active state to patch.
    pub(crate) fn active(self) -> DynActive {
        match self {
            RunState::Count(count) => DynActive::Count(count),
            RunState::IntTotal { high, low, count } => DynActive::IntTotal(AvgState {
                sum: (i128::from(high) << 64) | i128::from(low),
                count,
            }),
        }
    }
}

/// `1..=CHUNK_RUNS` consecutive runs, and where they start.
#[derive(Clone, Debug)]
struct Chunk {
    /// The start of the first run, kept beside the chunk's header: a lookup
    /// searches the directory by fence and then touches one chunk only.
    fence: Timestamp,
    /// The runs' intervals and values: what a published view shares.
    entries: Arc<Vec<SeriesEntry<Value>>>,
    /// A Delta-class run's state, run for run, or nothing at all.
    states: Vec<RunState>,
}

impl Chunk {
    /// `None` for no runs: a chunk is never empty.
    fn of(entries: Vec<SeriesEntry<Value>>, states: Vec<RunState>) -> Option<Chunk> {
        let fence = entries.first()?.interval.start();
        Some(Chunk {
            fence,
            entries: Arc::new(entries),
            states,
        })
    }

    /// The runs to patch, and their states. A view that still holds the
    /// entries keeps them: the chunk copies them first, and counts the copy
    /// in `copied`.
    fn runs_mut(&mut self, copied: &mut u64) -> (&mut Vec<SeriesEntry<Value>>, &mut Vec<RunState>) {
        if Arc::get_mut(&mut self.entries).is_none() {
            *copied += 1;
            let mut own = Vec::with_capacity(CHUNK_RUNS);
            own.extend_from_slice(&self.entries);
            self.entries = Arc::new(own);
        }
        (Arc::make_mut(&mut self.entries), &mut self.states)
    }
}

/// Time-ordered runs tiling `[0, ∞]`: a directory of chunks.
#[derive(Clone, Debug)]
pub(crate) struct RunList {
    chunks: Vec<Chunk>,
    len: usize,
    /// Chunks a patch copied because a published view held them.
    copied: u64,
    /// Columns allocated ahead for the chunks a build will fill, the next
    /// one last.
    spare: Vec<(Vec<SeriesEntry<Value>>, Vec<RunState>)>,
}

impl RunList {
    /// An empty list that a build will push `runs` runs into, with their
    /// states if `states`. Every chunk's columns are allocated here, before
    /// the first run arrives: all the runs' back to back, then all the
    /// states', so a reader walks the runs through consecutive memory
    /// rather than past a state block (and the holes its growth left)
    /// after every chunk — ≈ 1.3× the walk, measured on a 524K-run series.
    pub(crate) fn with_capacity(runs: usize, states: bool) -> RunList {
        let chunks = runs.div_ceil(CHUNK_RUNS);
        let directory = Vec::with_capacity(chunks);
        let entries: Vec<_> = (0..chunks)
            .map(|_| Vec::with_capacity(CHUNK_RUNS))
            .collect();
        let states = usize::from(states) * CHUNK_RUNS;
        let mut spare: Vec<_> = entries
            .into_iter()
            .map(|entries| (entries, Vec::with_capacity(states)))
            .collect();
        spare.reverse();
        RunList {
            chunks: directory,
            len: 0,
            copied: 0,
            spare,
        }
    }

    /// Append the next run in time order, with its state if it keeps one,
    /// filling chunks to capacity. A build streams its runs in here one by
    /// one: no second, series-sized array exists even for a moment (the
    /// hole it would leave in the heap is one a later result buffer lands
    /// in and cannot grow out of).
    pub(crate) fn push(&mut self, run: SeriesEntry<Value>, state: Option<RunState>) {
        let full = self
            .chunks
            .last()
            .map_or(true, |c| c.entries.len() == CHUNK_RUNS);
        if full {
            let (entries, states) = self.spare.pop().unwrap_or_default();
            self.chunks.push(Chunk {
                fence: run.interval.start(),
                entries: Arc::new(entries),
                states,
            });
        }
        if let Some(chunk) = self.chunks.last_mut() {
            let (entries, states) = chunk.runs_mut(&mut self.copied);
            entries.push(run);
            states.extend(state);
        }
        self.len += 1;
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Chunks a patch copied because a published view held them.
    pub(crate) fn copied_chunks(&self) -> u64 {
        self.copied
    }

    /// The runs as a reader sees them: a view sharing every chunk. O(chunks).
    pub(crate) fn view(&self) -> SeriesView<Value> {
        SeriesView::from_chunks(self.chunks.iter().map(|chunk| Arc::clone(&chunk.entries)))
    }

    /// The chunks in time order, each a contiguous slice of runs.
    #[cfg(any(test, feature = "validate"))]
    pub(crate) fn chunks(&self) -> impl Iterator<Item = &[SeriesEntry<Value>]> {
        self.chunks.iter().map(|chunk| chunk.entries.as_slice())
    }

    /// Chunk and offset of the run containing instant `t`.
    fn locate(&self, t: Timestamp) -> (usize, usize) {
        let c = self
            .chunks
            .partition_point(|chunk| chunk.fence <= t)
            .saturating_sub(1);
        let i = self.chunks.get(c).map_or(0, |chunk| {
            chunk.entries.partition_point(|r| r.interval.end() < t)
        });
        (c, i)
    }

    /// Chunk `c`'s runs and states to patch, copied first if a view holds
    /// them.
    fn runs_mut(&mut self, c: usize) -> Option<(&mut Vec<SeriesEntry<Value>>, &mut Vec<RunState>)> {
        let chunk = self.chunks.get_mut(c)?;
        Some(chunk.runs_mut(&mut self.copied))
    }

    /// Visit every run overlapping `iv`, in time order.
    pub(crate) fn for_each_in(&self, iv: Interval, mut f: impl FnMut(&SeriesEntry<Value>)) {
        let (c, mut i) = self.locate(iv.start());
        for chunk in self.chunks.iter().skip(c) {
            for run in chunk.entries.iter().skip(i) {
                if run.interval.start() > iv.end() {
                    return;
                }
                f(run);
            }
            i = 0;
        }
    }

    /// [`for_each_in`](RunList::for_each_in) with write access to each
    /// run and its state (`None` for an Ordered-class run); returns how
    /// many runs were visited. Only the chunks holding those runs are
    /// copied, if a view holds them.
    pub(crate) fn for_each_in_mut(
        &mut self,
        iv: Interval,
        mut f: impl FnMut(&mut SeriesEntry<Value>, Option<&mut RunState>),
    ) -> u64 {
        let (mut c, mut i) = self.locate(iv.start());
        let mut visited = 0;
        while let Some(chunk) = self.chunks.get_mut(c) {
            if visited > 0 && chunk.fence > iv.end() {
                break;
            }
            let (entries, states) = chunk.runs_mut(&mut self.copied);
            let mut states = states.iter_mut().skip(i);
            for run in entries.iter_mut().skip(i) {
                if run.interval.start() > iv.end() {
                    return visited;
                }
                f(run, states.next());
                visited += 1;
            }
            (c, i) = (c + 1, 0);
        }
        visited
    }

    /// Split the run containing `b` into `[.., b-1]` and `[b, ..]`, both
    /// keeping its state and value. A no-op when a run already starts at
    /// `b`. A full chunk is halved first, so no chunk outgrows its
    /// capacity.
    pub(crate) fn split_at(&mut self, b: Timestamp) {
        let (mut c, mut i) = self.locate(b);
        let run = self.chunks.get(c).and_then(|chunk| chunk.entries.get(i));
        let Some((left, right)) = run.and_then(|run| run.interval.split_before(b)) else {
            return;
        };
        if self.chunks.get(c).map(|chunk| chunk.entries.len()) == Some(CHUNK_RUNS) {
            self.halve(c);
            if let Some(upper) = i.checked_sub(CHUNK_RUNS / 2) {
                (c, i) = (c + 1, upper);
            }
        }
        let Some((entries, states)) = self.runs_mut(c) else {
            return;
        };
        let Some(run) = entries.get_mut(i) else {
            return;
        };
        run.interval = left;
        let twin = SeriesEntry::new(right, run.value.clone());
        entries.insert(i + 1, twin);
        if let Some(&state) = states.get(i) {
            states.insert(i + 1, state);
        }
        self.len += 1;
    }

    /// Move the upper half of chunk `c` into a new chunk after it.
    fn halve(&mut self, c: usize) {
        let Some((entries, states)) = self.runs_mut(c) else {
            return;
        };
        let half = entries.len() / 2;
        let upper = entries.split_off(half);
        let upper_states = states.split_off(half.min(states.len()));
        if let Some(upper) = Chunk::of(upper, upper_states) {
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
        let starts_at_b = self
            .chunks
            .get(c)
            .and_then(|chunk| chunk.entries.get(i))
            .is_some_and(|run| run.interval.start() == b);
        if !starts_at_b {
            return;
        }
        let Some(chunk) = self.chunks.get_mut(c) else {
            return;
        };
        let (entries, states) = chunk.runs_mut(&mut self.copied);
        let right = entries.remove(i);
        if i < states.len() {
            states.remove(i);
        }
        // Its first run gone to the previous chunk's last one, a chunk
        // starts at its next run (an emptied chunk is joined away below).
        if let Some(fence) = entries.first().map(|first| first.interval.start()) {
            chunk.fence = fence;
        }
        self.len -= 1;
        let left = match i.checked_sub(1) {
            Some(before) => self
                .runs_mut(c)
                .and_then(|(entries, _)| entries.get_mut(before)),
            None => self.runs_mut(c - 1).and_then(|(prev, _)| prev.last_mut()),
        };
        if let Some(left) = left {
            left.interval = left.interval.hull(&right.interval);
        }
        self.join_if_sparse(c);
    }

    /// Fold chunk `c`, once under a quarter full (or emptied), into its
    /// neighbour if both fit in one chunk.
    fn join_if_sparse(&mut self, c: usize) {
        let len_of = |k: usize| self.chunks.get(k).map(|chunk| chunk.entries.len());
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
        if let Some((entries, states)) = self.runs_mut(lower) {
            entries.extend_from_slice(&upper.entries);
            states.extend(upper.states);
        }
    }

    /// Structural invariants: every chunk holds `1..=CHUNK_RUNS` runs and a
    /// state for each or for none, each fence is its chunk's first start,
    /// and the runs tile `[0, ∞]`.
    #[cfg(any(test, feature = "validate"))]
    pub(crate) fn validate_structure(&self) {
        let mut expected_start = Interval::TIMELINE.start();
        let mut last_end = None;
        let mut count = 0usize;
        for (c, chunk) in self.chunks.iter().enumerate() {
            assert!(
                (1..=CHUNK_RUNS).contains(&chunk.entries.len()),
                "chunk {c} holds {} runs",
                chunk.entries.len()
            );
            assert!(
                chunk.states.is_empty() || chunk.states.len() == chunk.entries.len(),
                "chunk {c} holds {} states for {} runs",
                chunk.states.len(),
                chunk.entries.len()
            );
            assert_eq!(
                chunk.entries.first().map(|run| run.interval.start()),
                Some(chunk.fence),
                "fence {c} must be its chunk's first start"
            );
            for run in chunk.entries.iter() {
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
        let mut list = RunList::with_capacity(usize::try_from(n).unwrap(), false);
        for i in 0..n {
            let interval = if i + 1 == n {
                Interval::from_start(10 * i)
            } else {
                Interval::at(10 * i, 10 * i + 9)
            };
            list.push(SeriesEntry::new(interval, Value::Int(i)), None);
        }
        list
    }

    fn flat(list: &RunList) -> Vec<(Interval, Value)> {
        list.view()
            .runs()
            .map(|run| (run.interval, run.value.clone()))
            .collect()
    }

    /// The run containing instant `t`, as `(interval, value)`.
    fn run_at(list: &RunList, t: i64) -> Option<(Interval, Value)> {
        let t = Timestamp::new(t);
        flat(list).into_iter().find(|(iv, _)| iv.contains(t))
    }

    fn chunk_lens(list: &RunList) -> Vec<usize> {
        list.chunks().map(<[_]>::len).collect()
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

    /// A run's interval and value stay within 40 B and its state within 32
    /// B — 72 B a run — and an integer `SUM`'s or `AVG`'s `i128` total goes
    /// in and out of the state intact. The states the run is patched
    /// through stay as small: `SUM` keeps no state of its own.
    #[test]
    fn a_run_is_fixed_size_and_keeps_delta_states_exactly() {
        use std::mem::size_of;
        assert!(size_of::<SeriesEntry<Value>>() <= 40);
        assert!(size_of::<RunState>() <= 32);
        assert!(size_of::<SeriesEntry<Value>>() + size_of::<RunState>() <= 72);
        assert!(size_of::<tempagg_agg::TypedAcc>() <= 24);
        assert!(size_of::<DynActive>() <= 48);
        assert!(size_of::<tempagg_agg::DynState>() <= 48);
        for sum in [0, -1, 1 << 70, -(1 << 70) + 3, i128::from(i64::MIN) - 1] {
            let active = DynActive::IntTotal(AvgState { sum, count: 7 });
            assert_eq!(RunState::of(&active).map(RunState::active), Some(active));
        }
        let distinct = DynActive::Distinct(std::collections::BTreeMap::new());
        assert_eq!(RunState::of(&distinct), None);
    }

    /// A patch copies the chunks it writes while a view holds them, and
    /// only those; the view keeps the runs it was published with.
    #[test]
    fn a_patch_copies_only_the_chunks_a_view_holds() {
        let edge = 10 * i64::try_from(CHUNK_RUNS).unwrap();
        let mut list = decades(4 * i64::try_from(CHUNK_RUNS).unwrap());
        let before = flat(&list);
        list.for_each_in_mut(Interval::at(5, 15), |run, _| run.value = Value::Null);
        assert_eq!(list.copied_chunks(), 0, "nothing held the chunk");
        let view = list.view();
        let held = view.to_series().into_entries();
        // Two chunks written (the window crosses an edge), two copied.
        let window = Interval::at(edge - 5, edge + 5);
        list.for_each_in_mut(window, |run, _| run.value = Value::Int(-1));
        assert_eq!(list.copied_chunks(), 2);
        // Written again: already the list's own.
        list.for_each_in_mut(window, |run, _| run.value = Value::Int(-2));
        list.split_at(Timestamp::new(edge + 3));
        assert_eq!(list.copied_chunks(), 2);
        // A split in a chunk the view shares copies it.
        list.split_at(Timestamp::new(3 * edge + 3));
        list.merge_at(Timestamp::new(3 * edge + 3));
        assert_eq!(list.copied_chunks(), 3);
        list.validate_structure();
        let held_chunks: Vec<_> = view.chunks().map(<[_]>::as_ptr).collect();
        let shared = list
            .chunks()
            .filter(|chunk| held_chunks.contains(&chunk.as_ptr()))
            .count();
        assert_eq!(shared, 1, "the one chunk no write touched");
        assert_eq!(view.to_series().into_entries(), held);
        assert_ne!(flat(&list), before);
    }

    #[test]
    fn walks_cross_chunk_edges() {
        let edge = 10 * i64::try_from(CHUNK_RUNS).unwrap();
        let mut list = decades(2 * i64::try_from(CHUNK_RUNS).unwrap());
        let window = Interval::at(edge - 15, edge + 12);
        let mut seen = Vec::new();
        list.for_each_in(window, |run| seen.push(run.value.clone()));
        assert_eq!(seen, [254, 255, 256, 257].map(Value::Int));
        let visited = list.for_each_in_mut(window, |run, _| run.value = Value::Null);
        assert_eq!(visited, 4);
        let nulls = flat(&list).iter().filter(|(_, v)| v.is_null()).count();
        assert_eq!(nulls, 4);
    }
}
