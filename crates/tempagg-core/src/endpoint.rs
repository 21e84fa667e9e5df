//! Endpoint events for sweep kernels: a 16-byte totally-ordered record
//! and the linear-time sort that orders events by time.
//!
//! The sweep algorithms (aggregation and interval join, in
//! `tempagg-algo`) reduce every tuple to two *endpoint events*: an
//! **admit** at the tuple's start instant and a **retract** at the
//! instant after its end. Sorting the events once and replaying them in
//! order reconstructs the active-tuple set at every boundary. Piatov et
//! al. (arXiv:2008.12665) show a comparison sort is the dominant cost at
//! scale. Here the key is an integer time with a known range, so
//! [`sort_by_time`] is a linear radix sort on `time − lo`, on the calling
//! thread: a top-digit scatter into [`TimeBuckets`] (disjoint, ascending
//! runs sized so each sorts within L2), then counting passes within each
//! run over only the bits its time range needs. Every pass is stable, so
//! records at one instant keep their input order. At a linear price the
//! sort is a small share of a sweep, so it is not split across workers.
//!
//! [`EndpointEvent`] packs the event kind and a caller-chosen *tag*
//! (tuple index, or `index × 2 + side` for a two-relation join) into one
//! `u64` payload, with the kind in the **high** bit so that at equal
//! times every retract sorts before every admit. That ordering is what
//! makes a closed-interval join exact: a tuple ending at `t−1` retracts
//! at `t` and must leave the live set before a tuple admitted at `t`
//! looks for partners. The derived `Ord` on `(time, payload)` is total —
//! tags are unique per event. A caller that builds its events in payload
//! order (every retract, then every admit, each kind in tag order) gets
//! exactly that total order from [`sort_by_time`], for every bucket
//! count.

use crate::timestamp::Timestamp;

/// High bit of the payload: set for admits, clear for retracts, so that
/// retracts order first at equal timestamps.
const ADMIT_BIT: u64 = 1 << 63;

/// One endpoint of one tuple: 16 bytes, `Copy`, totally ordered by
/// `(time, payload)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EndpointEvent {
    /// The instant at which the event takes effect. Admits carry the
    /// tuple's start; retracts carry `end.next()` (the first instant the
    /// tuple no longer covers).
    pub time: Timestamp,
    /// Kind bit (high) plus the caller's tag (low 63 bits).
    pub payload: u64,
}

impl EndpointEvent {
    /// An admit event: the tuple tagged `tag` becomes active at `time`.
    #[inline]
    pub const fn admit(time: Timestamp, tag: u64) -> Self {
        EndpointEvent {
            time,
            payload: tag | ADMIT_BIT,
        }
    }

    /// A retract event: the tuple tagged `tag` stops being active at
    /// `time` (i.e. its interval ended at `time.prev()`).
    #[inline]
    pub const fn retract(time: Timestamp, tag: u64) -> Self {
        EndpointEvent { time, payload: tag }
    }

    /// The caller's tag, with the kind bit stripped.
    #[inline]
    pub const fn tag(self) -> u64 {
        self.payload & !ADMIT_BIT
    }

    /// `true` for admits, `false` for retracts.
    #[inline]
    pub const fn is_admit(self) -> bool {
        self.payload & ADMIT_BIT != 0
    }
}

/// Number of records targeted per bucket of the top-digit scatter:
/// 16 Ki events × 16 bytes = 256 KiB, so a run and its spare stay in L2.
const TARGET_RUN: usize = 16 * 1024;

/// Hard ceiling on bucket count (bounds the histogram and offset table).
const MAX_BUCKETS: usize = 4096;

/// Below this many records a run is comparison-sorted: clearing and
/// summing a digit histogram costs more than the sort.
const COMPARISON_SORT_MAX: usize = 256;

/// Widest digit of one counting pass: a 2,048-entry histogram.
const RADIX_BITS: u32 = 11;

/// Most counting passes a run needs: 64 key bits in digits of
/// [`RADIX_BITS`].
const MAX_PASSES: usize = 6;

/// The bucket layout of the top-digit scatter: disjoint, ascending time
/// ranges of width `2^shift` starting at `lo`.
///
/// [`TimeBuckets::layout`] picks the widths so at most [`MAX_BUCKETS`]
/// buckets exist and each holds roughly [`TARGET_RUN`] records under a
/// uniform time distribution. Because the ranges are disjoint and
/// ascending, sorting each bucket independently and concatenating yields
/// a globally sorted array — no merge pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct TimeBuckets {
    lo: i64,
    shift: u32,
    buckets: usize,
}

impl TimeBuckets {
    /// Lay out buckets for `len` records whose times span `[lo, hi]`
    /// (both inclusive, `lo <= hi`).
    fn layout(lo: Timestamp, hi: Timestamp, len: usize) -> Self {
        // The span can overflow i64 (ORIGIN..FOREVER is the whole
        // line), so the shift search runs in i128.
        let span = i128::from(hi.get()) - i128::from(lo.get());
        let want = len.div_ceil(TARGET_RUN).clamp(1, MAX_BUCKETS);
        let mut shift = 0u32;
        while (span >> shift) + 1 > want as i128 {
            shift += 1;
        }
        let buckets = usize::try_from((span >> shift) + 1).unwrap_or(1);
        TimeBuckets {
            lo: lo.get(),
            shift,
            buckets,
        }
    }

    /// Number of buckets laid out (always at least one).
    fn count(&self) -> usize {
        self.buckets
    }

    /// The bucket holding time `t`. `t` must lie within the `[lo, hi]`
    /// range the layout was built from; its offset from `lo` is then exact
    /// in u64 (two's-complement subtraction).
    #[inline]
    fn bucket_of(&self, t: Timestamp) -> usize {
        let offset = (t.get() as u64).wrapping_sub(self.lo as u64);
        offset.checked_shr(self.shift).unwrap_or(0) as usize
    }

    /// The first instant of bucket `b`.
    fn base(&self, b: usize) -> Timestamp {
        let base = i128::from(self.lo) + ((b as i128) << self.shift);
        Timestamp(i64::try_from(base).unwrap_or(i64::MAX))
    }
}

/// Sort one bucket of a [`sort_by_time`] stably, with `spare` (as long
/// as `run`) as the ping-pong buffer: LSD counting passes over the `bits`
/// of `time − lo`, in digits of at most [`RADIX_BITS`]. One read counts
/// every digit; a digit all records share is not scattered. Runs shorter
/// than [`COMPARISON_SORT_MAX`] (or too long for `u32` counts) are
/// comparison-sorted by `Ord` instead.
fn sort_run(run: &mut [EndpointEvent], spare: &mut [EndpointEvent], lo: Timestamp, bits: u32) {
    let len = run.len();
    let Ok(len32) = u32::try_from(len) else {
        run.sort_unstable();
        return;
    };
    if len < COMPARISON_SORT_MAX {
        run.sort_unstable();
        return;
    }
    if bits == 0 {
        return; // one instant: the input order stands
    }
    // Balanced digits: 17 bits take two passes of 9, not 11 + 6.
    let passes = bits.div_ceil(RADIX_BITS);
    let width = bits.div_ceil(passes);
    let (passes, radix, mask) = (passes as usize, 1usize << width, (1u64 << width) - 1);
    let key = |x: &EndpointEvent| (x.time.get() as u64).wrapping_sub(lo.get() as u64);
    let mut table = [0u32; MAX_PASSES << RADIX_BITS];
    // lint: allow(indexing): passes ≤ MAX_PASSES and radix ≤ 2^RADIX_BITS
    let counts = &mut table[..passes * radix];
    // One read counts every digit (two, the common case, unrolled).
    if let (2, (low, high)) = (passes, counts.split_at_mut(radix)) {
        // lint: hot-loop(time-sort) — the two-digit histogram
        for x in run.iter() {
            let k = key(x);
            // lint: allow(indexing): a digit is masked to `width` bits, and each half has 2^width entries
            low[(k & mask) as usize] += 1;
            // lint: allow(indexing): same digit bound as above
            high[((k >> width) & mask) as usize] += 1;
        }
    } else {
        // lint: hot-loop(time-sort) — every digit of every record
        for x in run.iter() {
            let k = key(x);
            let mut shift = 0;
            for digits in counts.chunks_exact_mut(radix) {
                // lint: allow(indexing): a digit is masked to `width` bits, and a chunk has 2^width entries
                digits[((k >> shift) & mask) as usize] += 1;
                shift += width;
            }
        }
    }
    let (mut src, mut dst) = (run, spare);
    let mut in_spare = false;
    let mut shift = 0;
    for digits in counts.chunks_exact_mut(radix) {
        let pass_shift = shift;
        shift += width;
        if digits.contains(&len32) {
            continue;
        }
        let mut total = 0u32;
        // lint: hot-loop(time-sort) — exclusive prefix sums become the write cursors
        for c in digits.iter_mut() {
            (*c, total) = (total, total + *c);
        }
        // lint: hot-loop(time-sort) — one sequential read, one cursor write per record
        for x in src.iter() {
            let d = ((key(x) >> pass_shift) & mask) as usize;
            // lint: allow(indexing): d < 2^width, and each cursor stays below its digit's end ≤ len
            dst[digits[d] as usize] = *x;
            // lint: allow(indexing): same digit bound as above
            digits[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        in_spare = !in_spare;
    }
    if in_spare {
        dst.copy_from_slice(src);
    }
}

/// Sort `records` by time in linear time, on the calling thread.
///
/// The top digit is a counting scatter into [`TimeBuckets`] — disjoint,
/// ascending time ranges of about [`TARGET_RUN`] records, so
/// concatenation is the global order and no merge pass runs; each bucket
/// then sorts within L2. Every pass is stable, and a run below
/// [`COMPARISON_SORT_MAX`] is sorted by `(time, payload)`, so the result
/// equals `sort_unstable`'s whenever the events of each instant arrive in
/// payload order. Scratch space is one array of `records.len()` events.
pub fn sort_by_time(mut records: Vec<EndpointEvent>) -> Vec<EndpointEvent> {
    let Some(&first) = records.first() else {
        return records;
    };
    if records.len() < COMPARISON_SORT_MAX {
        records.sort_unstable();
        return records;
    }
    let (mut lo, mut hi) = (Timestamp::FOREVER, Timestamp::MIN);
    // lint: hot-loop(time-sort) — the range pass
    for x in &records {
        (lo, hi) = (lo.min(x.time), hi.max(x.time));
    }
    let layout = TimeBuckets::layout(lo, hi, records.len());
    let mut spare = vec![first; records.len()];
    if layout.count() == 1 {
        sort_run(&mut records, &mut spare, lo, layout.shift);
        return records;
    }
    let mut cursors = vec![0usize; layout.count()];
    // lint: hot-loop(time-sort) — the top digit's counting pass
    for x in &records {
        // lint: allow(indexing): bucket_of is < count() for times within the range pass's [lo, hi]
        cursors[layout.bucket_of(x.time)] += 1;
    }
    let mut total = 0usize;
    // lint: hot-loop(time-sort) — exclusive prefix sums become the write cursors
    for c in &mut cursors {
        (*c, total) = (total, total + *c);
    }
    // lint: hot-loop(time-sort) — the top digit's stable scatter
    for x in &records {
        let b = layout.bucket_of(x.time);
        // lint: allow(indexing): b < count(), and each cursor stays below its bucket's end ≤ len
        spare[cursors[b]] = *x;
        // lint: allow(indexing): same bucket bound as above
        cursors[b] += 1;
    }
    // The scattered records are in `spare`, and each cursor is its
    // bucket's end; `records` is the buckets' ping-pong buffer.
    let (mut run_rest, mut spare_rest) = (&mut spare[..], &mut records[..]);
    let mut prev = 0usize;
    for (b, &end) in cursors.iter().enumerate() {
        let (run, tail) = run_rest.split_at_mut(end - prev);
        let (other, other_tail) = spare_rest.split_at_mut(end - prev);
        (run_rest, spare_rest, prev) = (tail, other_tail, end);
        sort_run(run, other, layout.base(b), layout.shift);
    }
    spare
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrips_kind_and_tag() {
        let a = EndpointEvent::admit(Timestamp(5), 42);
        let r = EndpointEvent::retract(Timestamp(5), 42);
        assert!(a.is_admit());
        assert!(!r.is_admit());
        assert_eq!(a.tag(), 42);
        assert_eq!(r.tag(), 42);
        assert_ne!(a, r);
    }

    #[test]
    fn retracts_sort_before_admits_at_equal_times() {
        let mut events = [
            EndpointEvent::admit(Timestamp(10), 0),
            EndpointEvent::retract(Timestamp(10), 1),
            EndpointEvent::admit(Timestamp(9), 7),
        ];
        events.sort_unstable();
        assert_eq!(events[0], EndpointEvent::admit(Timestamp(9), 7));
        assert!(!events[1].is_admit(), "retract first at the shared instant");
        assert!(events[2].is_admit());
    }

    #[test]
    fn sort_by_time_handles_empty_and_uniform_inputs() {
        assert!(sort_by_time(Vec::<EndpointEvent>::new()).is_empty());
        // Every record at one instant: no pass runs and the input order,
        // here payload order, stands.
        for n in [100u64, 5_000] {
            let same: Vec<_> = (0..n)
                .map(|i| EndpointEvent::admit(Timestamp(7), i))
                .collect();
            assert_eq!(sort_by_time(same.clone()), same);
        }
    }

    #[test]
    fn sort_by_time_survives_extreme_spans() {
        // ORIGIN..FOREVER and MIN..FOREVER span more than i64: the keys
        // are offsets from the least time, taken in u64.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut times: Vec<Timestamp> = (0..40_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                Timestamp(state as i64)
            })
            .collect();
        times.extend([Timestamp::MIN, Timestamp::ORIGIN, Timestamp::FOREVER]);
        let events: Vec<EndpointEvent> = (0u64..)
            .zip(times)
            .map(|(tag, t)| EndpointEvent::admit(t, tag))
            .collect();
        let mut want = events.clone();
        want.sort_unstable();
        assert_eq!(sort_by_time(events), want);
    }
}
