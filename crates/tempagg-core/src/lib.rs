//! # tempagg-core
//!
//! Temporal data model underpinning the reproduction of
//! *Computing Temporal Aggregates* (Kline & Snodgrass, ICDE 1995):
//!
//! * [`Timestamp`] — discrete instants with an origin and a `FOREVER`
//!   sentinel (the paper's `0` and `∞`);
//! * [`Interval`] — closed intervals `[start, end]` with the exact split
//!   semantics the aggregation tree relies on;
//! * [`Value`], [`Schema`], [`Tuple`], [`TemporalRelation`] — a small
//!   interval-timestamped relational model;
//! * [`Series`] — time-ordered aggregate results (constant intervals) with
//!   TSQL2-style coalescing;
//! * [`RowValues`] — one result row's values, inline up to
//!   [`ROW_INLINE_WIDTH`];
//! * [`SeriesSink`] — streaming emission of those results at bounded
//!   memory ([`ChunkedSink`], [`CountingSink`], [`StitchSink`]);
//! * [`Epoch`], [`SeriesView`] — write-generation stamps and the immutable
//!   chunk directory a mutable store publishes a cached series as: readers
//!   share the chunks a write did not touch;
//! * [`sortedness`] — the paper's *k-order* and *k-ordered-percentage*
//!   metrics (Section 5.2, Table 2);
//! * [`pager`] — the persistent paged columnar file format and the
//!   [`TupleSource`]/[`pager::PageCursor`] out-of-core scan abstraction;
//!   the workspace's only doorway to the file system.

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod algebra;
mod bitemporal;
mod chunk;
pub mod coalesce;
mod endpoint;
mod epoch;
mod error;
mod events;
mod granularity;
mod interval;
pub mod pager;
mod relation;
mod row;
mod schema;
mod series;
mod sink;
mod slots;
pub mod sortedness;
mod timestamp;
mod tuple;
mod value;
mod version;

pub use bitemporal::{BitemporalRelation, Version};
pub use chunk::{Chunk, ChunkIter, DEFAULT_CHUNK_CAPACITY};
pub use endpoint::{sort_by_time, EndpointEvent};
pub use epoch::Epoch;
pub use error::{Result, TempAggError};
pub use events::{Event, EventRelation, WindowAlignment};
pub use granularity::{Calendar, TimeUnit};
pub use interval::Interval;
pub use pager::TupleSource;
pub use relation::TemporalRelation;
pub use row::{RowValues, ROW_INLINE_WIDTH};
pub use schema::{Column, Schema};
pub use series::{Series, SeriesEntry};
pub use sink::{ChunkedSink, CountingSink, SeriesSink, StitchSink};
pub use slots::GaplessSlots;
pub use timestamp::Timestamp;
pub use tuple::Tuple;
pub use value::{Value, ValueType};
pub use version::{SeriesView, ViewCursor};
