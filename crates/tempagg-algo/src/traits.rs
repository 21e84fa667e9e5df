//! The common interface of all temporal aggregation algorithms.

use crate::memory::MemoryStats;
use tempagg_agg::Aggregate;
use tempagg_core::{Chunk, Interval, Result, Series, SeriesSink};

/// A single-pass temporal aggregation algorithm computing one aggregate
/// grouped by instant.
///
/// All of the paper's algorithms read the underlying relation once, feeding
/// each tuple's valid-time interval and extracted attribute value through
/// [`TemporalAggregator::push`]; [`TemporalAggregator::finish`] then yields
/// the constant intervals of the result in time order, spanning the
/// configured domain (empty regions included — filter them with
/// [`Series::filter_values`] if undesired).
pub trait TemporalAggregator<A: Aggregate> {
    /// Short algorithm name for reports and plans.
    fn algorithm(&self) -> &'static str;

    /// The domain the algorithm was configured with: the result series of
    /// [`TemporalAggregator::finish`] exactly tiles this interval. The
    /// `validate` feature's coverage checkers key off this hook, which is
    /// why every algorithm gets them for free through [`run`] /
    /// [`run_with_stats`].
    fn domain(&self) -> Interval;

    /// Fold one tuple in.
    ///
    /// Errors if the interval lies outside the algorithm's domain, or — for
    /// the k-ordered aggregation tree — if the tuple provably violates the
    /// promised k-ordering.
    fn push(&mut self, interval: Interval, value: A::Input) -> Result<()>;

    /// Fold a whole [`Chunk`] of tuples in.
    ///
    /// The default is a per-tuple loop over [`TemporalAggregator::push`];
    /// algorithms override it where a batch enables something a lone tuple
    /// cannot — the linked list switches its head scan for a binary search
    /// across the batch, and the partitioned combinator fans the chunk out
    /// to one worker per sub-domain. Executors feed chunks whenever the
    /// input is batched, so overrides are on the hot path.
    fn push_batch(&mut self, chunk: &Chunk<A::Input>) -> Result<()>
    where
        A::Input: Clone,
    {
        for (interval, value) in chunk {
            self.push(interval, value.clone())?;
        }
        Ok(())
    }

    /// Complete the computation and collect the result series: the
    /// provided collector over [`TemporalAggregator::finish_into`], which
    /// algorithms do not override. The one documented exception is
    /// [`PartitionedAggregator`](crate::PartitionedAggregator), whose
    /// `finish` finishes its partitions on workers and stitches the pieces,
    /// where its `finish_into` streams them one after another.
    fn finish(self) -> Series<A::Output>
    where
        Self: Sized,
    {
        let mut out = Series::new();
        self.finish_into(&mut out);
        out
    }

    /// Complete the computation, streaming the constant intervals of the
    /// result into `sink` in time order — every algorithm's one emission
    /// path, compiled the same with and without the `validate` feature
    /// (which only wraps `sink` in a checking adapter).
    ///
    /// A bounded sink (e.g. [`tempagg_core::ChunkedSink`]) caps resident
    /// result memory where [`TemporalAggregator::finish`] collects
    /// everything; the entries are the same either way.
    fn finish_into(self, sink: &mut impl SeriesSink<A::Output>)
    where
        Self: Sized;

    /// Drain any result entries that are already final into `sink`,
    /// without consuming the aggregator.
    ///
    /// Most algorithms cannot finalize anything before end of input and
    /// keep the default no-op. The k-ordered aggregation tree overrides
    /// it: its garbage collection finalizes the leftmost constant
    /// intervals while input is still arriving, so a caller alternating
    /// `push_batch` / `emit_ready` sees O(k)-resident results on
    /// k-ordered input. Entries emitted here are exactly the prefix that
    /// [`TemporalAggregator::finish_into`] would otherwise emit first.
    fn emit_ready(&mut self, sink: &mut impl SeriesSink<A::Output>) {
        let _ = sink;
    }

    /// Current/peak state-memory usage under the paper's model.
    fn memory(&self) -> MemoryStats;
}

/// Run an aggregator to completion over `(interval, value)` pairs.
///
/// Under the `validate` feature the emitted series is checked to exactly
/// tile [`TemporalAggregator::domain`].
pub fn run<A, G, I>(mut aggregator: G, items: I) -> Result<Series<A::Output>>
where
    A: Aggregate,
    G: TemporalAggregator<A>,
    I: IntoIterator<Item = (Interval, A::Input)>,
{
    for (interval, value) in items {
        aggregator.push(interval, value)?;
    }
    #[cfg(feature = "validate")]
    let (domain, name) = (aggregator.domain(), aggregator.algorithm());
    let series = aggregator.finish();
    #[cfg(feature = "validate")]
    crate::validate::assert_series_tiles(series.entries(), domain, name);
    Ok(series)
}

/// Run an aggregator to completion, also reporting peak memory.
///
/// Under the `validate` feature the emitted series is checked to exactly
/// tile [`TemporalAggregator::domain`].
pub fn run_with_stats<A, G, I>(
    mut aggregator: G,
    items: I,
) -> Result<(Series<A::Output>, MemoryStats)>
where
    A: Aggregate,
    G: TemporalAggregator<A>,
    I: IntoIterator<Item = (Interval, A::Input)>,
{
    for (interval, value) in items {
        aggregator.push(interval, value)?;
    }
    let stats = aggregator.memory();
    #[cfg(feature = "validate")]
    let (domain, name) = (aggregator.domain(), aggregator.algorithm());
    let series = aggregator.finish();
    #[cfg(feature = "validate")]
    crate::validate::assert_series_tiles(series.entries(), domain, name);
    Ok((series, stats))
}
