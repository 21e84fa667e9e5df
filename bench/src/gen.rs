//! The frozen load definition: a seeded generator for relations, windows
//! and op orders, owned by the benchmark so that a refactor of
//! `tempagg-workload` cannot move the load.
//!
//! Relations follow the paper's Section 6 rules: a lifespan of 1,000,000
//! instants, independently drawn start times, short tuples of 1–1000
//! instants, long-lived tuples of 20–80 % of the lifespan, and tuples that
//! would extend past the lifespan discarded (redrawn), not clamped.

use std::fmt::Write as _;
use std::sync::Arc;
use tempagg_core::{Interval, Schema, TemporalRelation, Value, ValueType};

/// The paper's relation lifespan, in instants.
pub const LIFESPAN: i64 = 1_000_000;
/// The last instant of the lifespan: `[0, LAST]` is the full window.
pub const LAST: i64 = LIFESPAN - 1;
/// Rows per `INSERT` statement when a table is loaded.
pub const LOAD_BATCH: usize = 4096;
/// Distinct `dept` values.
pub const DEPTS: i64 = 1000;

/// The `name` column's ten values (the paper's cast).
pub const NAMES: [&str; 10] = [
    "Richard", "Karen", "Nathan", "Mike", "Suchen", "Curtis", "Sampath", "Andrey", "Nick", "Ilsoo",
];

/// `CREATE TABLE` column list shared by every benchmark relation.
pub const COLUMNS_SQL: &str = "(name STRING, dept INT, salary INT)";
pub const DEPT: usize = 1;
pub const SALARY: usize = 2;

/// xorshift64*: small, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        // splitmix64 scrambles small seeds (1995, 1996, …) apart and
        // never yields the all-zero state xorshift cannot leave.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// An independent stream for a named purpose, so adding draws to one
    /// consumer never shifts the values another consumer sees.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        Rng::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        debug_assert!(lo <= hi);
        let span = (hi - lo) as u64 + 1;
        lo + (self.next_u64() % span) as i64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One generated tuple, before it is rendered as SQL or as a `Tuple`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    pub name: &'static str,
    pub dept: i64,
    pub salary: i64,
    pub start: i64,
    pub end: i64,
}

impl Row {
    pub fn valid(&self) -> Interval {
        Interval::at(self.start, self.end)
    }

    pub fn values(&self) -> Vec<Value> {
        vec![
            Value::from(self.name),
            Value::Int(self.dept),
            Value::Int(self.salary),
        ]
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Arrival order is the draw order (independent starts: unordered).
    Random,
    /// Sorted by start time, ties by end time.
    SortedByStart,
}

/// Draw one valid-time interval by the paper's rules, its start uniform in
/// `starts` (the whole lifespan for every relation but `paged_cycle`'s).
fn draw_interval(rng: &mut Rng, long_lived: bool, starts: (i64, i64)) -> (i64, i64) {
    loop {
        let start = rng.range(starts.0, starts.1);
        let length = if long_lived {
            rng.range(LIFESPAN / 5, LIFESPAN * 4 / 5)
        } else {
            rng.range(1, 1000)
        };
        let end = start + length - 1;
        if end <= LAST {
            return (start, end);
        }
    }
}

/// One short-lived row starting in `starts`, as write statements insert.
pub fn short_row(rng: &mut Rng, starts: (i64, i64)) -> Row {
    row(rng, false, starts)
}

/// Every start time of the lifespan.
pub const ANY_START: (i64, i64) = (0, LAST);

/// Generate `n` rows of which `long_lived_pct` percent are long-lived.
pub fn rows(rng: &mut Rng, n: usize, long_lived_pct: u32, order: Order) -> Vec<Row> {
    rows_starting_in(rng, n, long_lived_pct, order, ANY_START)
}

pub fn rows_starting_in(
    rng: &mut Rng,
    n: usize,
    long_lived_pct: u32,
    order: Order,
    starts: (i64, i64),
) -> Vec<Row> {
    // Exactly the requested share is long-lived, placed by a shuffle, not
    // by a coin per tuple: the share decides what every scan costs, and it
    // should not wander with the seed.
    let mut long_lived = vec![false; n];
    long_lived[..n * long_lived_pct as usize / 100].fill(true);
    rng.shuffle(&mut long_lived);
    let out: Vec<Row> = long_lived
        .into_iter()
        .map(|long| row(rng, long, starts))
        .collect();
    match order {
        Order::Random => out,
        Order::SortedByStart => sorted_by_start(&out),
    }
}

/// `n` short rows, one starting in each `n`-th of the lifespan: the small
/// join side `D`, spread evenly so that the join's output size does not
/// depend on where a seed happens to drop 64 tuples.
pub fn rows_one_per_slot(rng: &mut Rng, n: usize) -> Vec<Row> {
    let slot = LIFESPAN / n as i64;
    (0..n as i64)
        .map(|i| row(rng, false, (i * slot, (i + 1) * slot - 1)))
        .collect()
}

fn row(rng: &mut Rng, long_lived: bool, starts: (i64, i64)) -> Row {
    let (start, end) = draw_interval(rng, long_lived, starts);
    Row {
        name: NAMES[rng.below(NAMES.len())],
        dept: rng.range(0, DEPTS - 1),
        salary: rng.range(20_000, 100_000),
        start,
        end,
    }
}

/// The same rows in start order (ties by end): relation `S`.
pub fn sorted_by_start(rows: &[Row]) -> Vec<Row> {
    let mut out = rows.to_vec();
    out.sort_by_key(|r| (r.start, r.end));
    out
}

pub fn schema() -> Arc<Schema> {
    Schema::of(&[
        ("name", ValueType::Str),
        ("dept", ValueType::Int),
        ("salary", ValueType::Int),
    ])
}

/// The rows as a resident relation — what the engine holds after the SQL
/// load, built directly for the expectation and replay paths.
pub fn relation(rows: &[Row]) -> TemporalRelation {
    let mut rel = TemporalRelation::with_capacity(schema(), rows.len());
    for row in rows {
        rel.push(row.values(), row.valid())
            .expect("generated rows match the schema");
    }
    rel
}

/// `INSERT INTO <table> VALUES …` statements of at most [`LOAD_BATCH`]
/// rows each: the way a user loads a table.
pub fn insert_statements(table: &str, rows: &[Row]) -> Vec<String> {
    rows.chunks(LOAD_BATCH)
        .map(|batch| insert_statement(table, batch))
        .collect()
}

pub fn insert_statement(table: &str, rows: &[Row]) -> String {
    let mut sql = String::with_capacity(32 + rows.len() * 48);
    let _ = write!(sql, "INSERT INTO {table} VALUES ");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        let _ = write!(
            sql,
            "('{}', {}, {}) VALID [{}, {}]",
            r.name, r.dept, r.salary, r.start, r.end
        );
    }
    sql
}

/// A window `width` instants wide placed uniformly inside the lifespan.
pub fn window(rng: &mut Rng, width: i64) -> (i64, i64) {
    let start = rng.range(0, LIFESPAN - width);
    (start, start + width - 1)
}

/// The centred window covering `percent` of the lifespan.
pub fn centred_window(percent: i64) -> (i64, i64) {
    let width = LIFESPAN * percent / 100;
    let start = (LIFESPAN - width) / 2;
    (start, start + width - 1)
}

/// FNV-1a over the rows' fields: pins the generated load in a unit test
/// and in every result file.
pub fn rows_checksum(rows: &[Row]) -> u64 {
    let mut h = Fnv::new();
    for r in rows {
        h.bytes(r.name.as_bytes());
        for v in [r.dept, r.salary, r.start, r.end] {
            h.i64(v);
        }
    }
    h.finish()
}

/// 64-bit FNV-1a, the fold every checksum in the benchmark uses.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rows_and_other_seed_other_rows() {
        let a = rows(&mut Rng::fork(1995, 1), 512, 20, Order::Random);
        let b = rows(&mut Rng::fork(1995, 1), 512, 20, Order::Random);
        let c = rows(&mut Rng::fork(1996, 1), 512, 20, Order::Random);
        assert_eq!(a, b);
        assert_ne!(rows_checksum(&a), rows_checksum(&c));
    }

    #[test]
    fn rows_follow_the_papers_rules() {
        let generated = rows(&mut Rng::fork(7, 1), 4096, 20, Order::SortedByStart);
        let mut long = 0usize;
        for pair in generated.windows(2) {
            assert!(pair[0].start <= pair[1].start);
        }
        for r in &generated {
            assert!(0 <= r.start && r.start <= r.end && r.end <= LAST);
            assert!((0..DEPTS).contains(&r.dept));
            assert!((20_000..=100_000).contains(&r.salary));
            let len = r.end - r.start + 1;
            if len > 1000 {
                assert!((LIFESPAN / 5..=LIFESPAN * 4 / 5).contains(&len));
                long += 1;
            }
        }
        // The redraw keeps a tuple's kind, so the share is exact.
        assert_eq!(long, 4096 / 5);
        let d = rows_one_per_slot(&mut Rng::fork(7, 2), 64);
        for (i, r) in d.iter().enumerate() {
            assert_eq!(r.start / (LIFESPAN / 64), i as i64);
        }
    }

    #[test]
    fn insert_statements_batch_and_parse() {
        let generated = rows(&mut Rng::fork(3, 1), LOAD_BATCH + 5, 0, Order::Random);
        let statements = insert_statements("T", &generated);
        assert_eq!(statements.len(), 2);
        for sql in &statements {
            tempagg_sql::parse_statement(sql).expect("generated INSERT parses");
        }
    }

    #[test]
    fn windows_stay_inside_the_lifespan() {
        let mut rng = Rng::new(11);
        for _ in 0..1000 {
            let (a, b) = window(&mut rng, LIFESPAN / 100);
            assert!(0 <= a && b <= LAST && b - a + 1 == LIFESPAN / 100);
        }
        assert_eq!(centred_window(10), (450_000, 549_999));
    }
}

#[cfg(test)]
mod frozen_load {
    //! The load for the baseline seed, pinned: a change to the generator,
    //! to the rng or to how a workload draws from it moves every number in
    //! `bench/BASELINE.json`, and must show up here first.
    use super::*;

    #[test]
    fn seed_1995_relations_are_pinned() {
        let r = rows(&mut Rng::fork(1995, 1), 65_536, 20, Order::Random);
        assert_eq!(rows_checksum(&r), 0xfae2_e61c_de7e_23a7, "scan_mix R");
        let d = rows_one_per_slot(&mut Rng::fork(1995, 2), 64);
        assert_eq!(rows_checksum(&d), 0x9fb0_33e2_3318_0503, "scan_mix D");
        let history = (0, 899_999);
        let f = rows_starting_in(
            &mut Rng::fork(1995, 1),
            131_072,
            10,
            Order::SortedByStart,
            history,
        );
        assert_eq!(rows_checksum(&f), 0x8822_774c_f929_2d05, "paged_cycle F");
    }

    #[test]
    fn seed_1995_op_order_and_windows_are_pinned() {
        // Stream 3 is the one every workload shuffles its blocks with and
        // draws its windows from.
        let mut rng = Rng::fork(1995, 3);
        let mut round: Vec<u8> = (0..9).collect();
        rng.shuffle(&mut round);
        assert_eq!(round, [5, 3, 0, 7, 1, 2, 6, 8, 4]);
        assert_eq!(window(&mut rng, LIFESPAN / 100), (769_438, 779_437));
    }
}
