//! Incrementally maintained caches of constant-interval aggregate series.
//!
//! An [`AggCache`] holds the *working* series for one aggregate over the
//! store's relation: a run per constant interval, tiling the full
//! timeline `[0, ∞]`, each carrying the retractable active state
//! ([`DynActive`]) that produced its value. The runs are exactly the
//! segments the endpoint-sweep kernel would emit — same boundary set,
//! same admit/retract order — so a cached series is byte-identical to a
//! from-scratch sweep over the current relation.
//!
//! Writes patch instead of rebuilding:
//!
//! * **Boundaries are reference-counted.** A tuple `[s, e]` contributes
//!   the interior boundaries `s` (if `s > 0`) and `e + 1` (if `e` is not
//!   forever). The first contributor of a boundary splits the run
//!   containing it; the last contributor leaving merges the runs it
//!   separated. This reproduces the sweep's sorted-and-deduplicated
//!   boundary set under any interleaving of inserts and deletes.
//! * **Retractable classes patch states.** For [`SweepClass::Delta`] and
//!   [`SweepClass::Ordered`] aggregates (exact retraction per Colley's
//!   delta summation, or an ordered multiset for `MIN`/`MAX`), the write
//!   folds its value into — or retracts it from — the active state of
//!   exactly the runs overlapping the changed interval.
//! * **Approximate classes recompute the dirty window.** Float retraction
//!   drifts, so those caches re-run the existing sweep kernel over just
//!   the hull of the runs touching the changed interval (tuples clipped
//!   to the window), never the full timeline.
//!
//! Readers never see the working series: [`AggCache::snapshot`] publishes
//! an immutable epoch-stamped version through the core
//! [`VersionedSeries`] chain, materialized at most once per epoch.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::sync::Arc;
use tempagg_agg::{DynActive, DynAggregate, SweepAggregate};
use tempagg_algo::{SweepAggregator, TemporalAggregator};
use tempagg_core::{
    Epoch, Interval, Result, Series, SeriesEntry, TemporalRelation, Timestamp, Tuple, Value,
    VersionedSeries,
};

/// The input value a cache feeds its aggregate for one tuple: the cached
/// column's value, or the `COUNT(*)` placeholder when there is no input
/// column. Mirrors the SQL executor's extractor so cached and freshly
/// computed series agree byte for byte.
pub(crate) fn extract(tuple: &Tuple, column: Option<usize>) -> Value {
    match column {
        Some(idx) => tuple.value(idx).clone(),
        None => Value::Bool(true),
    }
}

/// The interior boundaries a tuple interval contributes.
fn boundary_candidates(iv: Interval) -> impl Iterator<Item = Timestamp> {
    let origin = Interval::TIMELINE.start();
    let start = (iv.start() > origin).then_some(iv.start());
    let end = (!iv.end().is_forever()).then(|| iv.end().next());
    start.into_iter().chain(end)
}

/// The dyn-level admit/retract endpoint scan behind every cached series:
/// cut the timeline at the tuples' boundaries, walk the cuts in time order
/// admitting by start and retracting by end, and hand `emit` each constant
/// interval with the active state over it. Returns the boundary refcounts
/// (how many tuples contribute each interior cut).
///
/// Deliberately not `SweepAggregator`: float kinds admit in a different
/// order there, and a cache must stay byte-identical to its own rebuild.
fn sweep_runs<T: Borrow<Tuple>>(
    agg: &DynAggregate,
    column: Option<usize>,
    tuples: &[T],
    mut emit: impl FnMut(Interval, &DynActive),
) -> BTreeMap<Timestamp, u32> {
    let mut boundaries: BTreeMap<Timestamp, u32> = BTreeMap::new();
    for tuple in tuples {
        for b in boundary_candidates(tuple.borrow().valid()) {
            *boundaries.entry(b).or_insert(0) += 1;
        }
    }

    let n = tuples.len();
    let mut by_start: Vec<usize> = (0..n).collect();
    // lint: allow(indexing): by_start/by_end are permutations of 0..n
    by_start.sort_unstable_by_key(|&i| tuples[i].borrow().valid().start());
    let mut by_end: Vec<usize> = (0..n).collect();
    // lint: allow(indexing): by_start/by_end are permutations of 0..n
    by_end.sort_unstable_by_key(|&i| tuples[i].borrow().valid().end());

    let mut cuts: Vec<Timestamp> = Vec::with_capacity(boundaries.len() + 1);
    cuts.push(Interval::TIMELINE.start());
    cuts.extend(boundaries.keys().copied());

    let mut active = agg.active_empty();
    let (mut si, mut ei) = (0usize, 0usize);
    for (i, &start) in cuts.iter().enumerate() {
        // lint: allow(indexing): permutation of 0..n, si < n is the loop guard
        while si < n && tuples[by_start[si]].borrow().valid().start() <= start {
            // lint: allow(indexing): same permutation bound as the loop guard above
            agg.active_insert(&mut active, &extract(tuples[by_start[si]].borrow(), column));
            si += 1;
        }
        // lint: allow(indexing): permutation of 0..n, ei < n is the loop guard
        while ei < n && tuples[by_end[ei]].borrow().valid().end() < start {
            // lint: allow(indexing): same permutation bound as the loop guard above
            agg.active_remove(&mut active, &extract(tuples[by_end[ei]].borrow(), column));
            ei += 1;
        }
        let end = cuts
            .get(i + 1)
            .map_or(Interval::TIMELINE.end(), |next| next.prev());
        // lint: allow(no-unwrap): cuts are sorted and deduplicated, so start <= end by construction
        let interval = Interval::new(start, end).expect("cuts are increasing");
        emit(interval, &active);
    }
    boundaries
}

/// Sweep an arbitrary tuple subset (e.g. one group of a `TOP k BY`
/// ranking query) into its constant-interval aggregate series — the same
/// scan as [`AggCache::build`], so the result is byte-identical to what a
/// full cache over just those tuples would publish.
pub fn sweep_values(agg: &DynAggregate, column: Option<usize>, tuples: &[&Tuple]) -> Series<Value> {
    let mut entries = Vec::new();
    sweep_runs(agg, column, tuples, |interval, active| {
        entries.push(SeriesEntry {
            interval,
            value: agg.active_output(active),
        });
    });
    Series::from_entries(entries)
}

/// One constant-interval run of the working series.
#[derive(Clone, Debug)]
struct Run {
    interval: Interval,
    /// The retractable active state over the tuples covering this run.
    /// Meaningful only for retractable classes; recompute-mode caches
    /// keep an empty placeholder.
    state: DynActive,
    value: Value,
}

/// A versioned, incrementally maintained cache of one aggregate's
/// constant-interval series.
#[derive(Clone, Debug)]
pub(crate) struct AggCache {
    agg: DynAggregate,
    column: Option<usize>,
    /// Working series: runs tile `[0, ∞]` in time order.
    runs: Vec<Run>,
    /// Interior boundary refcounts: how many live tuples contribute each
    /// run edge strictly after the origin.
    boundaries: BTreeMap<Timestamp, u32>,
    /// Published immutable snapshots (MVCC chain).
    versions: VersionedSeries<Value>,
    /// Runs patched in place by writes (state insert/retract).
    patched_runs: u64,
    /// Dirty-window sweeps run for the Approximate-class fallback.
    recomputed_windows: u64,
}

impl AggCache {
    /// Build the cache from scratch: the sweep kernel's admit/retract
    /// endpoint scan, but retaining the active state per run so later
    /// writes can patch it.
    pub(crate) fn build(
        agg: DynAggregate,
        column: Option<usize>,
        relation: &TemporalRelation,
    ) -> AggCache {
        let mut runs = Vec::new();
        let boundaries = sweep_runs(&agg, column, relation.tuples(), |interval, active| {
            runs.push(Run {
                interval,
                state: active.clone(),
                value: agg.active_output(active),
            });
        });
        AggCache {
            agg,
            column,
            runs,
            boundaries,
            versions: VersionedSeries::new(),
            patched_runs: 0,
            recomputed_windows: 0,
        }
    }

    pub(crate) fn column(&self) -> Option<usize> {
        self.column
    }

    pub(crate) fn runs_len(&self) -> usize {
        self.runs.len()
    }

    pub(crate) fn patched_runs(&self) -> u64 {
        self.patched_runs
    }

    pub(crate) fn recomputed_windows(&self) -> u64 {
        self.recomputed_windows
    }

    pub(crate) fn live_versions(&self) -> usize {
        self.versions.live_versions()
    }

    pub(crate) fn pinned_versions(&self) -> usize {
        self.versions.pinned_versions()
    }

    /// Whether writes patch active states (exact retraction) or fall back
    /// to dirty-window recomputes.
    fn patches_states(&self) -> bool {
        self.agg.sweep_class().retractable()
    }

    /// Index of the run containing instant `t` (runs tile the timeline).
    fn run_index_at(&self, t: Timestamp) -> usize {
        self.runs.partition_point(|r| r.interval.end() < t)
    }

    /// Index range of the runs overlapping `iv`.
    fn run_range(&self, iv: Interval) -> std::ops::Range<usize> {
        let lo = self.runs.partition_point(|r| r.interval.end() < iv.start());
        let hi = self
            .runs
            .partition_point(|r| r.interval.start() <= iv.end());
        lo..hi
    }

    /// Visit every run overlapping `window`, in time order, clipped to
    /// the window — the [`tempagg_algo::RunSource`] contract, reading the
    /// working series directly so the window index can probe and refresh
    /// without materialising a snapshot.
    pub(crate) fn for_each_run_in(&self, window: Interval, f: &mut dyn FnMut(Interval, &Value)) {
        let range = self.run_range(window);
        for run in self
            .runs
            .iter()
            .skip(range.start)
            .take(range.end.saturating_sub(range.start))
        {
            if let Some(clipped) = run.interval.intersect(&window) {
                f(clipped, &run.value);
            }
        }
    }

    /// Reference a boundary; its first contributor splits the run.
    fn add_boundary(&mut self, b: Timestamp) {
        let count = self.boundaries.entry(b).or_insert(0);
        *count += 1;
        if *count == 1 {
            self.split_at(b);
        }
    }

    /// Split the run containing `b` into `[.., b-1]` and `[b, ..]`, both
    /// inheriting the state and value (the active set is unchanged until
    /// the new tuple is folded in).
    fn split_at(&mut self, b: Timestamp) {
        let idx = self.run_index_at(b);
        let Some(run) = self.runs.get_mut(idx) else {
            return;
        };
        let Some((left, right)) = run.interval.split_before(b) else {
            return;
        };
        run.interval = left;
        let state = run.state.clone();
        let value = run.value.clone();
        self.runs.insert(
            idx + 1,
            Run {
                interval: right,
                state,
                value,
            },
        );
    }

    /// Release a boundary; its last contributor leaving merges the runs
    /// it separated.
    fn drop_boundary(&mut self, b: Timestamp) {
        let Some(count) = self.boundaries.get_mut(&b) else {
            return;
        };
        *count = count.saturating_sub(1);
        if *count == 0 {
            self.boundaries.remove(&b);
            self.merge_at(b);
        }
    }

    /// Merge the run starting at `b` into its predecessor. With no tuple
    /// edge left at `b`, the active set is identical on both sides, so
    /// the predecessor's state and value stand for the merged run.
    fn merge_at(&mut self, b: Timestamp) {
        let idx = self.run_index_at(b);
        if idx == 0 {
            return;
        }
        let Some(run) = self.runs.get(idx) else {
            return;
        };
        if run.interval.start() != b {
            return;
        }
        let right = self.runs.remove(idx);
        if let Some(left) = self.runs.get_mut(idx - 1) {
            left.interval = left.interval.hull(&right.interval);
        }
    }

    /// Absorb one inserted tuple. The relation already contains it.
    pub(crate) fn apply_insert(
        &mut self,
        valid: Interval,
        value: &Value,
        relation: &TemporalRelation,
    ) -> Result<()> {
        for b in boundary_candidates(valid) {
            self.add_boundary(b);
        }
        if self.patches_states() {
            self.patch(valid, value, DynAggregate::active_insert);
            Ok(())
        } else {
            self.recompute_window(valid, relation)
        }
    }

    /// Absorb one deleted tuple. The relation no longer contains it.
    pub(crate) fn apply_delete(
        &mut self,
        valid: Interval,
        value: &Value,
        relation: &TemporalRelation,
    ) -> Result<()> {
        if self.patches_states() {
            // Retract first: after retraction the states on both sides of
            // a released boundary are equal, making the merge sound.
            self.patch(valid, value, DynAggregate::active_remove);
            for b in boundary_candidates(valid) {
                self.drop_boundary(b);
            }
            Ok(())
        } else {
            for b in boundary_candidates(valid) {
                self.drop_boundary(b);
            }
            self.recompute_window(valid, relation)
        }
    }

    /// Fold `value` into (or retract it from) the state of every run
    /// overlapping `iv`, refreshing the cached outputs.
    fn patch(
        &mut self,
        iv: Interval,
        value: &Value,
        op: fn(&DynAggregate, &mut DynActive, &Value),
    ) {
        let range = self.run_range(iv);
        let agg = self.agg;
        let mut patched = 0u64;
        for run in self
            .runs
            .iter_mut()
            .skip(range.start)
            .take(range.end.saturating_sub(range.start))
        {
            op(&agg, &mut run.state, value);
            run.value = agg.active_output(&run.state);
            patched += 1;
        }
        self.patched_runs += patched;
    }

    /// The Approximate-class fallback: re-run the sweep kernel over just
    /// the hull of the runs overlapping `dirty`, with tuples clipped to
    /// that window, and splice the result over the stale runs. The
    /// window's edges are existing run edges, so the recomputed segments
    /// align with the refcounted boundary structure exactly.
    fn recompute_window(&mut self, dirty: Interval, relation: &TemporalRelation) -> Result<()> {
        let range = self.run_range(dirty);
        let window = match (
            self.runs.get(range.start),
            range.end.checked_sub(1).and_then(|i| self.runs.get(i)),
        ) {
            (Some(first), Some(last)) => first.interval.hull(&last.interval),
            _ => return Ok(()),
        };
        let mut sweep = SweepAggregator::with_domain(self.agg, window);
        for tuple in relation {
            if let Some(clipped) = tuple.valid().intersect(&window) {
                sweep.push(clipped, extract(tuple, self.column))?;
            }
        }
        let empty = self.agg.active_empty();
        let replacement: Vec<Run> = sweep
            .finish()
            .into_entries()
            .into_iter()
            .map(|e| Run {
                interval: e.interval,
                state: empty.clone(),
                value: e.value,
            })
            .collect();
        drop(self.runs.splice(range, replacement));
        self.recomputed_windows += 1;
        Ok(())
    }

    /// An immutable snapshot of the working series at `epoch`, shared
    /// with every reader of that epoch. Superseded unpinned versions are
    /// collected on publish.
    pub(crate) fn snapshot(&mut self, epoch: Epoch) -> Arc<Series<Value>> {
        let runs = &self.runs;
        self.versions.snapshot_at(epoch, || {
            Series::from_entries(
                runs.iter()
                    .map(|r| SeriesEntry::new(r.interval, r.value.clone()))
                    .collect(),
            )
        })
    }

    /// Structural invariants: runs tile `[0, ∞]`, and interior run edges
    /// are exactly the refcounted boundaries.
    #[cfg(feature = "validate")]
    pub(crate) fn validate_structure(&self) {
        let mut expected_start = Interval::TIMELINE.start();
        for (i, run) in self.runs.iter().enumerate() {
            assert_eq!(
                run.interval.start(),
                expected_start,
                "cache runs must tile the timeline (run {i})"
            );
            if i > 0 {
                assert!(
                    self.boundaries.contains_key(&run.interval.start()),
                    "interior run edge {} has no boundary refcount",
                    run.interval.start()
                );
            }
            expected_start = run.interval.end().next();
        }
        let last_end = self.runs.last().map(|r| r.interval.end());
        assert_eq!(
            last_end,
            Some(Interval::TIMELINE.end()),
            "cache runs must extend to FOREVER"
        );
        assert_eq!(
            self.boundaries.len(),
            self.runs.len().saturating_sub(1),
            "boundary refcounts must match interior run edges"
        );
    }
}
