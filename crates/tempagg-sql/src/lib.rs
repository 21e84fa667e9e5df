//! # tempagg-sql
//!
//! A mini-TSQL2 front end for temporal aggregate queries, covering the
//! query-language surface discussed in Section 2 of *Computing Temporal
//! Aggregates* (Kline & Snodgrass, ICDE 1995): aggregates over temporal
//! relations with implicit per-instant temporal grouping, value grouping
//! (`GROUP BY col`), span grouping (`GROUP BY SPAN n`), restriction
//! (`WHERE`), and valid-clause windows (`WHERE VALID OVERLAPS [a, b]`).
//!
//! ```
//! use tempagg_sql::{execute_str, Catalog};
//! use tempagg_workload::employed::employed_relation;
//!
//! let mut catalog = Catalog::new();
//! catalog.register("Employed", employed_relation());
//! let result = execute_str(&catalog, "SELECT COUNT(Name) FROM Employed E").unwrap();
//! assert_eq!(result.rows.len(), 7); // Table 1 of the paper
//! // Rows are read through a cursor (a served `SELECT` builds them as the
//! // loop reaches them, from the store's pinned snapshots) ...
//! for row in &result.rows {
//!     println!("{}\t{:?}", row.valid, row.values);
//! }
//! // ... or taken whole.
//! let rows: Vec<tempagg_sql::ResultRow> = result.rows.to_vec();
//! assert_eq!(result.rows, rows);
//! ```

#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod ast;
mod catalog;
mod display;
mod exec;
mod lexer;
mod parser;
mod rows;
mod statement;
mod token;

pub use catalog::Catalog;
pub use exec::{
    execute_query, execute_str, execute_streaming, execute_streaming_str, QueryResult,
    StreamSummary,
};
pub use lexer::lex;
pub use parser::{parse, parse_statement, parse_statement_with_calendar, parse_with_calendar};
pub use rows::{ResultRow, ResultRows, RowCursor};
pub use statement::{execute_parsed_statement, execute_statement, StatementOutput, TupleTable};
pub use tempagg_algo::JoinPredicate;
pub use tempagg_plan::CacheReport;
pub use tempagg_store::TemporalStore;
pub use token::{Keyword, Spanned, Token};
