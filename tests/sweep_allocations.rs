//! The endpoint sweep and the sweep join allocate a constant number of
//! times, whatever the input size: the events, the sort's scratch, the
//! bucket table and the live sets are each one allocation, and the replay
//! reads each tuple's value where it was pushed instead of cloning it
//! beside its events.
//!
//! A counting global allocator, installed in this test binary only,
//! counts every allocation on every thread while one `finish` runs. The binary holds one test, so no other test
//! allocates during a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use temporal_aggregates::agg::MultiDyn;
use temporal_aggregates::core::ValueType;
use temporal_aggregates::prelude::*;
use temporal_aggregates::{AggKind, DynAggregate, JoinPredicate, SweepJoinOperator};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a relaxed atomic that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs.
fn allocations_in(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

/// A constant that does not grow with n: what one finish may allocate.
const BOUND: usize = 64;

/// `n` seeded intervals over a span of 16 n instants; one in `open` is
/// open-ended (it never retracts), none when `open` is 0.
fn intervals(n: usize, seed: u64, open: u64) -> Vec<Interval> {
    let mut state = seed;
    let mut step = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let span = 16 * u64::try_from(n).unwrap();
    (0..n)
        .map(|_| {
            let start = i64::try_from(step() % span).unwrap();
            if open > 0 && step() % open == 0 {
                Interval::from_start(start)
            } else {
                Interval::at(start, start + i64::try_from(step() % 2_000).unwrap())
            }
        })
        .collect()
}

#[test]
fn a_finish_allocates_a_constant_number_of_times() {
    // Delta-class members only: their live state is a few counters, so
    // what is counted is the kernel's own allocations.
    let multi = MultiDyn::new(vec![
        DynAggregate::new(AggKind::CountStar, ValueType::Int).unwrap(),
        DynAggregate::new(AggKind::Sum, ValueType::Int).unwrap(),
        DynAggregate::new(AggKind::Avg, ValueType::Int).unwrap(),
    ]);
    for n in [4_096usize, 16_384] {
        let tuples = intervals(n, 0x2545f4914f6cdd1d, 5);
        let mut sweep = SweepAggregator::new(multi.clone());
        for (i, iv) in (0i64..).zip(&tuples) {
            let value = vec![Value::Int(1), Value::Int(i % 97), Value::Int(i % 13)];
            sweep.push(*iv, value).unwrap();
        }
        let mut segments = 0usize;
        let made = allocations_in(|| sweep.finish_states(|_, _, _| segments += 1));
        assert!(segments > n, "n = {n}: {segments} segments");
        assert!(
            made <= BOUND,
            "SweepAggregator<MultiDyn>::finish_states, n = {n}: {made} allocations"
        );

        let mut join = SweepJoinOperator::new(JoinPredicate::Overlaps);
        for iv in intervals(n, 0x2545f4914f6cdd1d, 0) {
            join.push_left(iv).unwrap();
        }
        for iv in intervals(n, 0x9e3779b97f4a7c15, 0) {
            join.push_right(iv).unwrap();
        }
        let mut sink = CountingSink::new();
        let made = allocations_in(|| join.finish_into(&mut sink));
        assert!(sink.entries() > n, "n = {n}: {} pairs", sink.entries());
        assert!(
            made <= BOUND,
            "SweepJoinOperator::finish_into, n = {n}: {made} allocations"
        );
    }
}
