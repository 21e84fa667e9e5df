//! The four workloads and the helpers they share.

pub mod ingest_mix;
pub mod paged_cycle;
pub mod scan_mix;
pub mod serve_mix;

use crate::gen::{self, Row};
use tempagg_core::{Chunk, DEFAULT_CHUNK_CAPACITY};
use tempagg_sql::{execute_statement, Catalog};

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["scan_mix", "serve_mix", "ingest_mix", "paged_cycle"];

/// Load a table the way a user does: `CREATE TABLE`, then `INSERT`
/// batches through `execute_statement`.
pub fn load_table(catalog: &mut Catalog, table: &str, rows: &[Row]) {
    must(
        catalog,
        &format!("CREATE TABLE {table} {}", gen::COLUMNS_SQL),
    );
    for sql in gen::insert_statements(table, rows) {
        must(catalog, &sql);
    }
}

/// Run a set-up statement; set-up cannot fail on a correct engine, and a
/// run whose set-up failed has nothing to measure.
pub fn must(catalog: &mut Catalog, sql: &str) -> tempagg_sql::StatementOutput {
    execute_statement(catalog, sql).unwrap_or_else(|e| {
        let head: String = sql.chars().take(80).collect();
        panic!("set-up statement failed: {e}\n  {head}")
    })
}

/// The rows' intervals with one extracted column, in bounded chunks: the
/// form `push_batch` consumes.
pub fn chunks_of<V>(rows: &[Row], value: impl Fn(&Row) -> V) -> Vec<Chunk<V>> {
    rows.chunks(DEFAULT_CHUNK_CAPACITY)
        .map(|batch| {
            let mut chunk = Chunk::with_capacity(DEFAULT_CHUNK_CAPACITY);
            for row in batch {
                chunk
                    .push(row.valid(), value(row))
                    .expect("a chunk holds DEFAULT_CHUNK_CAPACITY tuples");
            }
            chunk
        })
        .collect()
}
