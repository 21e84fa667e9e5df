//! Error type shared across the temporal-aggregates crates.

use crate::timestamp::Timestamp;
use std::fmt;

/// Result alias used throughout the workspace.
pub type Result<T, E = TempAggError> = std::result::Result<T, E>;

/// Errors produced by the temporal data model and the aggregation
/// algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum TempAggError {
    /// An interval literal had `start > end`.
    InvalidInterval { start: Timestamp, end: Timestamp },
    /// A tuple's valid-time interval lies (partly) outside the domain an
    /// algorithm was configured with.
    OutOfDomain {
        tuple: (Timestamp, Timestamp),
        domain: (Timestamp, Timestamp),
    },
    /// A tuple arrived more than `k` positions out of order for a k-ordered
    /// aggregation tree: its start time precedes a constant interval that
    /// was already garbage-collected and emitted.
    KOrderViolation {
        start: Timestamp,
        gc_threshold: Timestamp,
        k: usize,
    },
    /// A tuple had the wrong number of attributes or an attribute of the
    /// wrong type for the relation's schema.
    SchemaMismatch { detail: String },
    /// A named column does not exist in the schema.
    UnknownColumn { name: String },
    /// An aggregate was applied to a column of an unsupported type.
    TypeError { detail: String },
    /// The span length for span grouping must be positive.
    InvalidSpan { length: i64 },
    /// A bounded [`Chunk`](crate::Chunk) was pushed past its capacity.
    ChunkFull { capacity: usize },
    /// A domain partitioning was not a proper cut of the domain: seams
    /// must be strictly increasing interior start-points.
    InvalidPartitioning { detail: String },
    /// `k` must be at least 1 for the k-ordered aggregation tree.
    InvalidK { k: usize },
    /// SQL front-end errors (lexing, parsing, binding).
    Sql {
        line: u32,
        column: u32,
        detail: String,
    },
    /// A catalog lookup failed.
    UnknownRelation { name: String },
    /// An internal invariant did not hold. Seeing this error is a bug in
    /// the algorithms, not in the caller's input; it exists so defensive
    /// checks in library code can surface corruption as a `Result` instead
    /// of panicking mid-scan.
    Internal { detail: String },
    /// Persistent storage failed: an I/O error, or a paged relation file
    /// that is truncated, corrupt, or of an unsupported version. Every
    /// short read and checksum mismatch in the pager surfaces as this
    /// variant — never as a panic.
    Storage { detail: String },
    /// An integer aggregate's exact total over some constant interval lies
    /// outside the `INT` range, so it has no value to report.
    Overflow { aggregate: &'static str },
}

impl TempAggError {
    /// Shorthand for [`TempAggError::Internal`].
    pub fn internal(detail: impl Into<String>) -> TempAggError {
        TempAggError::Internal {
            detail: detail.into(),
        }
    }

    /// Shorthand for [`TempAggError::Storage`].
    pub fn storage(detail: impl Into<String>) -> TempAggError {
        TempAggError::Storage {
            detail: detail.into(),
        }
    }
}

impl fmt::Display for TempAggError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TempAggError::InvalidInterval { start, end } => {
                write!(f, "invalid interval: start {start} exceeds end {end}")
            }
            TempAggError::OutOfDomain { tuple, domain } => write!(
                f,
                "tuple interval [{}, {}] lies outside the aggregation domain [{}, {}]",
                tuple.0, tuple.1, domain.0, domain.1
            ),
            TempAggError::KOrderViolation {
                start,
                gc_threshold,
                k,
            } => write!(
                f,
                "k-order violation (k = {k}): tuple start {start} precedes the \
                 garbage-collection threshold {gc_threshold}; the input is not k-ordered"
            ),
            TempAggError::SchemaMismatch { detail } => {
                write!(f, "schema mismatch: {detail}")
            }
            TempAggError::UnknownColumn { name } => write!(f, "unknown column `{name}`"),
            TempAggError::TypeError { detail } => write!(f, "type error: {detail}"),
            TempAggError::InvalidSpan { length } => {
                write!(f, "span length must be positive, got {length}")
            }
            TempAggError::ChunkFull { capacity } => {
                write!(
                    f,
                    "chunk is full (capacity {capacity}); drain and clear it first"
                )
            }
            TempAggError::InvalidPartitioning { detail } => {
                write!(f, "invalid domain partitioning: {detail}")
            }
            TempAggError::InvalidK { k } => {
                write!(
                    f,
                    "k must be at least 1 for the k-ordered aggregation tree, got {k}"
                )
            }
            TempAggError::Sql {
                line,
                column,
                detail,
            } => {
                write!(f, "SQL error at {line}:{column}: {detail}")
            }
            TempAggError::UnknownRelation { name } => {
                write!(f, "unknown relation `{name}`")
            }
            TempAggError::Internal { detail } => {
                write!(f, "internal invariant violated (this is a bug): {detail}")
            }
            TempAggError::Storage { detail } => {
                write!(f, "storage error: {detail}")
            }
            TempAggError::Overflow { aggregate } => write!(
                f,
                "{aggregate} out of range: a constant interval's exact total \
                 does not fit in a 64-bit INT"
            ),
        }
    }
}

impl std::error::Error for TempAggError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = TempAggError::InvalidInterval {
            start: Timestamp(9),
            end: Timestamp(3),
        };
        assert!(e.to_string().contains("start 9 exceeds end 3"));

        let e = TempAggError::KOrderViolation {
            start: Timestamp(5),
            gc_threshold: Timestamp(10),
            k: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("k = 4"));
        assert!(msg.contains("not k-ordered"));

        let e = TempAggError::Sql {
            line: 1,
            column: 8,
            detail: "expected FROM".into(),
        };
        assert!(e.to_string().contains("1:8"));

        let e = TempAggError::internal("frontier regressed");
        assert!(e.to_string().contains("bug"));
        assert!(e.to_string().contains("frontier regressed"));

        let e = TempAggError::storage("page 3 checksum mismatch");
        assert!(e.to_string().contains("storage error"));
        assert!(e.to_string().contains("page 3 checksum mismatch"));

        let e = TempAggError::Overflow { aggregate: "SUM" };
        assert!(e.to_string().starts_with("SUM out of range"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_error<E: std::error::Error>() {}
        assert_error::<TempAggError>();
    }
}
