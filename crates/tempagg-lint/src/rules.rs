//! The repo-specific lint rules, evaluated over the token stream of one
//! source file.
//!
//! Rules:
//!
//! * `no-unwrap` — no `.unwrap()` / `.expect(...)` / `panic!` family in
//!   non-test library code. Suppress a deliberate site with a
//!   `// lint: allow(no-unwrap): <justification>` comment on the same or
//!   the preceding line; the justification must be non-empty.
//! * `no-raw-i64-arith` — outside `tempagg-core`, the raw `i64` inside a
//!   `Timestamp` (read via `.get()`) must not take part in arithmetic;
//!   use the `Timestamp` / `Interval` methods so the closed-interval,
//!   saturating discipline stays in one crate.
//! * `no-as-cast` — no `as` casts in `tempagg-algo` / `tempagg-agg`
//!   (silent truncation/sign-loss corrupts aggregates); use `From` /
//!   `try_from`, or justify with an allow comment.
//! * `no-raw-thread` — `thread::spawn` / `thread::scope` /
//!   `thread::Builder` / `thread::available_parallelism` only inside
//!   `tempagg-algo/src/parallel.rs`, the workspace's one parallel
//!   primitive; everything else goes through `scoped_map` /
//!   `PartitionedAggregator` so worker panics, ordering, and thread caps
//!   are handled in a single audited place, and reads the thread count
//!   (a syscall-priced query) from its `machine_threads()`, asked once.
//! * `no-adhoc-timing` — no `Instant::now` in the non-test code of the
//!   engine crates (core, agg, algo, plan, sql, store, workload): a
//!   stopwatch inside the engine is a second clock beside the one the
//!   benchmark and the examples keep, and one per worker per chunk is a
//!   cost on the hot path. `tempagg-bench`, `examples/` and `bench/` time
//!   what they drive.
//! * `no-stable-sort` — no `.sort()` / `.sort_by(` / `.sort_by_key(` in
//!   `tempagg-algo` / `tempagg-core` hot paths: a stable sort allocates a
//!   merge buffer of half the slice; use `sort_unstable*` unless tie
//!   order is semantic, and then justify with an allow comment.
//! * `no-materialize-in-exec` — no argument-less `.finish()` calls in the
//!   execution layers (`tempagg-plan/src/executor.rs`,
//!   `tempagg-sql/src/exec.rs`): results must leave through the
//!   `SeriesSink` streaming path (`finish_into` / `emit_ready`) so the
//!   executor never holds a second materialized copy of the result.
//!   Justify a deliberate exception with an allow comment.
//! * `store-mutation` — in `tempagg-sql`, no direct `TemporalRelation`
//!   mutation (`.push_tuple(` / `.sort_by_time(` / `.permute(`): writes
//!   must flow through `TemporalStore` (`insert` / `delete_where` /
//!   `update_where`) so cached aggregate series and the write epoch stay
//!   consistent. Scratch relations that never enter the catalog justify
//!   with an allow comment.
//! * `no-io-outside-pager` — `std::fs` / `std::io` only inside
//!   `tempagg-core/src/pager/`: every byte that reaches disk must go
//!   through the pager's checksummed page format and atomic temp-file +
//!   rename writer, so corruption surfaces as `TempAggError::Storage` in
//!   exactly one audited place. The workload/bench/lint harness crates
//!   and the root facade are exempt — they are drivers, not the library.
//! * `forbid-unsafe` — every crate root must carry
//!   `#![forbid(unsafe_code)]`.

use crate::lexer::{Token, TokenKind};

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub line: u32,
    pub message: String,
}

/// Per-file facts the rules need beyond the tokens.
#[derive(Clone, Copy, Debug)]
pub struct FileContext<'a> {
    /// Crate the file belongs to (e.g. `tempagg-algo`).
    pub crate_name: &'a str,
    /// `true` for `src/lib.rs` / `src/main.rs` (drives `forbid-unsafe`).
    pub is_crate_root: bool,
    /// `true` only for `tempagg-algo/src/parallel.rs`, the one file
    /// allowed to touch `std::thread` directly (drives `no-raw-thread`).
    pub is_thread_hub: bool,
    /// `true` for the execution layers (`tempagg-plan/src/executor.rs`, and
    /// every `tempagg-sql` module but the front end's and the catalog),
    /// where results must stream through a `SeriesSink` (drives
    /// `no-materialize-in-exec`).
    pub is_exec_path: bool,
    /// `true` for the partition-stitching paths
    /// (`tempagg-algo/src/parallel.rs`, `tempagg-plan/src/executor.rs`) —
    /// the only files allowed to drive `StitchSink::seam` / seam-real
    /// marking (drives `seam-protocol`).
    pub is_seam_hub: bool,
    /// `true` for files under `tempagg-core/src/pager/`, the one module
    /// allowed to touch `std::fs` / `std::io` directly (drives
    /// `no-io-outside-pager`).
    pub is_pager: bool,
}

/// Crates whose algorithms must not use `as` casts.
const NO_CAST_CRATES: &[&str] = &["tempagg-algo", "tempagg-agg"];

/// Crates whose hot paths must sort with `sort_unstable*`.
const NO_STABLE_SORT_CRATES: &[&str] = &["tempagg-algo", "tempagg-core"];

/// The allocating stable-sort methods covered by `no-stable-sort`.
const STABLE_SORTS: &[&str] = &["sort", "sort_by", "sort_by_key"];

/// The only crate allowed to do raw arithmetic on timestamp `i64`s.
const TIME_ARITH_CRATE: &str = "tempagg-core";

/// Panicking macros covered by `no-unwrap`.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// The crate whose relation writes must flow through `TemporalStore`.
const STORE_CRATE: &str = "tempagg-sql";

/// Mutating `TemporalRelation` methods that bypass the store's incremental
/// cache maintenance (covered by `store-mutation`). `push` / `retain` /
/// `replace` are deliberately absent — those names collide with `Vec` and
/// `str` methods all over the crate.
const STORE_BYPASS_MUTATORS: &[&str] = &["push_tuple", "sort_by_time", "permute"];

/// The engine crates, which read no clock (covered by `no-adhoc-timing`).
const NO_TIMING_CRATES: &[&str] = &[
    "tempagg-core",
    "tempagg-agg",
    "tempagg-algo",
    "tempagg-plan",
    "tempagg-sql",
    "tempagg-store",
    "tempagg-workload",
];

/// Crates whose disk access must flow through the pager (covered by
/// `no-io-outside-pager`). The workload/bench/lint harness crates and the
/// root facade stay free to do their own file plumbing — they drive the
/// library rather than implement it.
const NO_IO_CRATES: &[&str] = &[
    "tempagg-core",
    "tempagg-agg",
    "tempagg-algo",
    "tempagg-plan",
    "tempagg-sql",
    "tempagg-store",
];

/// Run every applicable rule over one file's tokens.
pub fn check_file(ctx: FileContext<'_>, tokens: &[Token<'_>]) -> Vec<Violation> {
    let mut out = Vec::new();
    let code: Vec<&Token<'_>> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let in_test = test_spans(&code);
    let allows = AllowComments::collect(tokens);

    no_unwrap(&code, &in_test, &allows, &mut out);
    if ctx.crate_name != TIME_ARITH_CRATE {
        no_raw_i64_arith(&code, &in_test, &allows, &mut out);
    }
    if NO_CAST_CRATES.contains(&ctx.crate_name) {
        no_as_cast(&code, &in_test, &allows, &mut out);
    }
    if NO_STABLE_SORT_CRATES.contains(&ctx.crate_name) {
        no_stable_sort(&code, &in_test, &allows, &mut out);
    }
    if !ctx.is_thread_hub {
        no_raw_thread(&code, &in_test, &allows, &mut out);
    }
    if NO_TIMING_CRATES.contains(&ctx.crate_name) {
        no_adhoc_timing(&code, &in_test, &allows, &mut out);
    }
    if ctx.is_exec_path {
        no_materialize_in_exec(&code, &in_test, &allows, &mut out);
    }
    if ctx.crate_name == STORE_CRATE {
        store_mutation(&code, &in_test, &allows, &mut out);
    }
    if NO_IO_CRATES.contains(&ctx.crate_name) && !ctx.is_pager {
        no_io_outside_pager(&code, &in_test, &allows, &mut out);
    }
    if ctx.is_crate_root {
        forbid_unsafe(&code, &mut out);
    }
    out.sort_by_key(|v| v.line);
    out
}

/// `lint: allow` suppression comments, indexed by the lines they cover.
/// Shared between the v1 token rules here and the v2 tree rules in
/// [`crate::analysis`].
pub(crate) struct AllowComments {
    /// (line, optional rule name, has-justification).
    entries: Vec<(u32, Option<String>, bool)>,
}

impl AllowComments {
    pub(crate) fn collect(tokens: &[Token<'_>]) -> AllowComments {
        let mut entries = Vec::new();
        for t in tokens {
            if t.kind != TokenKind::Comment {
                continue;
            }
            let Some(idx) = t.text.find("lint: allow") else {
                continue;
            };
            let rest = &t.text[idx + "lint: allow".len()..];
            let (rule, after) = if let Some(stripped) = rest.strip_prefix('(') {
                match stripped.split_once(')') {
                    Some((name, tail)) => (Some(name.trim().to_string()), tail),
                    None => (None, rest),
                }
            } else {
                (None, rest)
            };
            let justification = after
                .trim_start()
                .strip_prefix(':')
                .map(str::trim)
                .is_some_and(|j| !j.is_empty());
            // A multi-line block comment covers its last line too.
            let end_line = t.line + t.text.matches('\n').count() as u32;
            entries.push((end_line, rule, justification));
        }
        AllowComments { entries }
    }

    /// Is `line` suppressed for `rule` (same line or the line above)?
    /// Returns `Some(justified)` when an allow comment applies.
    pub(crate) fn applies(&self, rule: &str, line: u32) -> Option<bool> {
        self.entries
            .iter()
            .filter(|(l, r, _)| {
                (*l == line || l + 1 == line) && r.as_deref().map_or(true, |r| r == rule)
            })
            .map(|(_, _, justified)| *justified)
            .max()
    }
}

/// Push `violation` unless an allow comment suppresses it; an allow comment
/// *without* a justification is itself reported.
pub(crate) fn report(
    allows: &AllowComments,
    out: &mut Vec<Violation>,
    rule: &'static str,
    line: u32,
    message: String,
) {
    match allows.applies(rule, line) {
        Some(true) => {}
        Some(false) => out.push(Violation {
            rule,
            line,
            message: format!(
                "`lint: allow` without a justification — write `// lint: allow({rule}): <why>`"
            ),
        }),
        None => out.push(Violation {
            rule,
            line,
            message,
        }),
    }
}

/// Mark the token spans inside `#[cfg(test)]`-gated items. Returns one flag
/// per code token.
pub(crate) fn test_spans(code: &[&Token<'_>]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if is_cfg_test_attr(code, i) {
            // Skip past the attribute, then mark until the end of the item:
            // either a `;` before any `{`, or the matching `}` of the first
            // `{` opened.
            let mut j = i + 7; // length of `# [ cfg ( test ) ]`
            let mut depth = 0usize;
            let mut opened = false;
            while j < code.len() {
                mask[j] = true;
                if code[j].is_punct('{') {
                    depth += 1;
                    opened = true;
                } else if code[j].is_punct('}') {
                    depth = depth.saturating_sub(1);
                    if opened && depth == 0 {
                        break;
                    }
                } else if code[j].is_punct(';') && !opened {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

fn is_cfg_test_attr(code: &[&Token<'_>], i: usize) -> bool {
    code.len() >= i + 7
        && code[i].is_punct('#')
        && code[i + 1].is_punct('[')
        && code[i + 2].is_ident("cfg")
        && code[i + 3].is_punct('(')
        && code[i + 4].is_ident("test")
        && code[i + 5].is_punct(')')
        && code[i + 6].is_punct(']')
}

fn no_unwrap(
    code: &[&Token<'_>],
    in_test: &[bool],
    allows: &AllowComments,
    out: &mut Vec<Violation>,
) {
    for i in 0..code.len() {
        if in_test[i] {
            continue;
        }
        let t = code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `.unwrap()` / `.expect(` method calls.
        if (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && code[i - 1].is_punct('.')
            && matches!(code.get(i + 1), Some(n) if n.is_punct('('))
        {
            report(
                allows,
                out,
                "no-unwrap",
                t.line,
                format!(
                    "`.{}()` in library code — return a `Result` instead",
                    t.text
                ),
            );
        }
        // `panic!` family macros.
        if PANIC_MACROS.contains(&t.text) && matches!(code.get(i + 1), Some(n) if n.is_punct('!')) {
            report(
                allows,
                out,
                "no-unwrap",
                t.line,
                format!("`{}!` in library code — return a `Result` instead", t.text),
            );
        }
    }
}

/// Arithmetic operator characters that turn a raw `.get()` read into raw
/// timestamp arithmetic.
fn is_arith(t: &Token<'_>) -> bool {
    t.kind == TokenKind::Punct && matches!(t.text.chars().next(), Some('+' | '-' | '*' | '/' | '%'))
}

fn no_raw_i64_arith(
    code: &[&Token<'_>],
    in_test: &[bool],
    allows: &AllowComments,
    out: &mut Vec<Violation>,
) {
    for i in 0..code.len() {
        if in_test[i] {
            continue;
        }
        // Match `. get ( )`, or the `pub` field read `. 0` (a lone `0`
        // after a dot is tuple-field access — float literals like `1.0`
        // lex as a single Number token and never hit this).
        let is_get_call = code[i].is_ident("get")
            && i > 0
            && code[i - 1].is_punct('.')
            && matches!(code.get(i + 1), Some(t) if t.is_punct('('))
            && matches!(code.get(i + 2), Some(t) if t.is_punct(')'));
        let is_field_read = code[i].kind == TokenKind::Number
            && code[i].text == "0"
            && i > 0
            && code[i - 1].is_punct('.');
        if !is_get_call && !is_field_read {
            continue;
        }
        // Index just past the whole read expression (`x.get()` or `x.0`).
        let end = if is_get_call { i + 3 } else { i + 1 };
        // `x.get() + ...` / `x.0 + ...` — operator immediately after.
        let after = code.get(end).copied().filter(|t| is_arith(t));
        // `... + x.get()` / `... + x.0` — operator immediately before a
        // simple receiver.
        let before = (i >= 3)
            .then(|| {
                let recv = code[i - 2];
                let op = code[i - 3];
                (recv.kind == TokenKind::Ident && is_arith(op)).then_some(op)
            })
            .flatten();
        if after.is_some() || before.is_some() {
            report(
                allows,
                out,
                "no-raw-i64-arith",
                code[i].line,
                "raw i64 arithmetic on a timestamp — use Timestamp/Interval methods \
                 so closed-interval discipline stays in tempagg-core"
                    .to_string(),
            );
        }
    }
}

fn no_as_cast(
    code: &[&Token<'_>],
    in_test: &[bool],
    allows: &AllowComments,
    out: &mut Vec<Violation>,
) {
    let mut in_use = false;
    for i in 0..code.len() {
        let t = code[i];
        if t.is_ident("use") || t.is_ident("extern") {
            in_use = true;
        }
        if in_use {
            if t.is_punct(';') {
                in_use = false;
            }
            continue;
        }
        if in_test[i] {
            continue;
        }
        if t.is_ident("as") {
            report(
                allows,
                out,
                "no-as-cast",
                t.line,
                "`as` cast in an algorithm crate — use From/try_from, or justify \
                 with `// lint: allow(no-as-cast): <why>`"
                    .to_string(),
            );
        }
    }
}

fn no_stable_sort(
    code: &[&Token<'_>],
    in_test: &[bool],
    allows: &AllowComments,
    out: &mut Vec<Violation>,
) {
    for i in 0..code.len() {
        if in_test[i] {
            continue;
        }
        let t = code[i];
        if t.kind != TokenKind::Ident || !STABLE_SORTS.contains(&t.text) {
            continue;
        }
        // `.sort(` / `.sort_by(` / `.sort_by_key(` method calls only;
        // idents named `sort` (locals, paths) stay legal.
        if i > 0
            && code[i - 1].is_punct('.')
            && matches!(code.get(i + 1), Some(n) if n.is_punct('('))
        {
            let unstable = format!("sort_unstable{}", &t.text["sort".len()..]);
            report(
                allows,
                out,
                "no-stable-sort",
                t.line,
                format!(
                    "`.{}(` on a hot path allocates a stable-sort merge buffer — use \
                     `.{unstable}(`, or justify tie-order stability with \
                     `// lint: allow(no-stable-sort): <why>`",
                    t.text
                ),
            );
        }
    }
}

fn no_materialize_in_exec(
    code: &[&Token<'_>],
    in_test: &[bool],
    allows: &AllowComments,
    out: &mut Vec<Violation>,
) {
    for i in 0..code.len() {
        if in_test[i] {
            continue;
        }
        let t = code[i];
        if t.kind != TokenKind::Ident || t.text != "finish" {
            continue;
        }
        // Only argument-less `.finish()` method calls materialize a whole
        // series; `agg.finish(&state)` folds one state and stays legal,
        // as do idents named `finish` in paths or definitions.
        if i > 0
            && code[i - 1].is_punct('.')
            && matches!(code.get(i + 1), Some(n) if n.is_punct('('))
            && matches!(code.get(i + 2), Some(n) if n.is_punct(')'))
        {
            report(
                allows,
                out,
                "no-materialize-in-exec",
                t.line,
                "`.finish()` in an execution layer materializes the whole result \
                 series — stream through `finish_into` / `emit_ready` with a \
                 `SeriesSink`, or justify with \
                 `// lint: allow(no-materialize-in-exec): <why>`"
                    .to_string(),
            );
        }
    }
}

fn store_mutation(
    code: &[&Token<'_>],
    in_test: &[bool],
    allows: &AllowComments,
    out: &mut Vec<Violation>,
) {
    for i in 0..code.len() {
        if in_test[i] {
            continue;
        }
        let t = code[i];
        if t.kind != TokenKind::Ident || !STORE_BYPASS_MUTATORS.contains(&t.text) {
            continue;
        }
        // `.push_tuple(` / `.sort_by_time(` / `.permute(` method calls
        // only; idents with those names in paths or definitions stay
        // legal.
        if i > 0
            && code[i - 1].is_punct('.')
            && matches!(code.get(i + 1), Some(n) if n.is_punct('('))
        {
            report(
                allows,
                out,
                "store-mutation",
                t.line,
                format!(
                    "`.{}(` mutates a relation behind the store's back — route SQL-layer \
                     writes through TemporalStore (insert/delete_where/update_where) so \
                     cached series and the write epoch stay consistent, or justify a \
                     scratch relation with `// lint: allow(store-mutation): <why>`",
                    t.text
                ),
            );
        }
    }
}

/// `thread::` members reserved to the thread hub: the ones that create OS
/// threads, and the thread-count query (≈ 11 µs of cgroup reads per call,
/// which the hub's `machine_threads()` pays once).
const THREAD_HUB_ONLY: &[&str] = &["spawn", "scope", "Builder", "available_parallelism"];

fn no_raw_thread(
    code: &[&Token<'_>],
    in_test: &[bool],
    allows: &AllowComments,
    out: &mut Vec<Violation>,
) {
    for i in 0..code.len() {
        if in_test[i] {
            continue;
        }
        // `thread :: spawn` / `thread :: scope` / `thread :: Builder` /
        // `thread :: available_parallelism` (`::` lexes as two `:`
        // puncts). Other reads (`thread::current`, `thread::sleep`) stay
        // legal everywhere.
        let is_hub_path = code[i].is_ident("thread")
            && matches!(code.get(i + 1), Some(t) if t.is_punct(':'))
            && matches!(code.get(i + 2), Some(t) if t.is_punct(':'))
            && matches!(code.get(i + 3), Some(t) if t.kind == TokenKind::Ident
                && THREAD_HUB_ONLY.contains(&t.text));
        if is_hub_path {
            report(
                allows,
                out,
                "no-raw-thread",
                code[i].line,
                "raw std::thread use outside tempagg-algo/src/parallel.rs — \
                 go through scoped_map / PartitionedAggregator, and read the \
                 thread count from parallel::machine_threads()"
                    .to_string(),
            );
        }
    }
}

fn no_adhoc_timing(
    code: &[&Token<'_>],
    in_test: &[bool],
    allows: &AllowComments,
    out: &mut Vec<Violation>,
) {
    for i in 0..code.len() {
        if in_test[i] {
            continue;
        }
        // `Instant :: now` (`::` lexes as two `:` puncts). A variant named
        // `Instant` (`TemporalGrouping::Instant`, `TimeUnit::Instant`) is
        // not followed by `:: now`.
        let is_stopwatch = code[i].is_ident("Instant")
            && matches!(code.get(i + 1), Some(t) if t.is_punct(':'))
            && matches!(code.get(i + 2), Some(t) if t.is_punct(':'))
            && matches!(code.get(i + 3), Some(t) if t.is_ident("now"));
        if is_stopwatch {
            report(
                allows,
                out,
                "no-adhoc-timing",
                code[i].line,
                "Instant::now in an engine crate — the engine reads no clock; \
                 time the call from the caller (tempagg-bench, examples/, bench/)"
                    .to_string(),
            );
        }
    }
}

/// `std` modules that reach the filesystem / raw byte streams.
const IO_MODULES: &[&str] = &["fs", "io"];

fn no_io_outside_pager(
    code: &[&Token<'_>],
    in_test: &[bool],
    allows: &AllowComments,
    out: &mut Vec<Violation>,
) {
    for i in 0..code.len() {
        if in_test[i] {
            continue;
        }
        // `std :: fs` / `std :: io` path reads (`::` lexes as two `:`
        // puncts) — covers both `use std::fs;` imports and inline paths
        // like `std::fs::write(...)` or `std::io::Result` in signatures.
        let is_io_path = code[i].is_ident("std")
            && matches!(code.get(i + 1), Some(t) if t.is_punct(':'))
            && matches!(code.get(i + 2), Some(t) if t.is_punct(':'))
            && matches!(code.get(i + 3), Some(t) if t.kind == TokenKind::Ident
                && IO_MODULES.contains(&t.text));
        if is_io_path {
            report(
                allows,
                out,
                "no-io-outside-pager",
                code[i].line,
                "raw std::fs/std::io outside tempagg-core/src/pager — route disk \
                 access through the pager (write_relation / PagedReader / \
                 remove_file) so every byte crosses the checksummed format in one \
                 audited place, or justify with \
                 `// lint: allow(no-io-outside-pager): <why>`"
                    .to_string(),
            );
        }
    }
}

fn forbid_unsafe(code: &[&Token<'_>], out: &mut Vec<Violation>) {
    let found = code.windows(8).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
            && w[7].is_punct(']')
    });
    if !found {
        out.push(Violation {
            rule: "forbid-unsafe",
            line: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn check(crate_name: &str, is_root: bool, src: &str) -> Vec<Violation> {
        let tokens = lex(src);
        check_file(
            FileContext {
                crate_name,
                is_crate_root: is_root,
                is_thread_hub: false,
                is_exec_path: false,
                is_seam_hub: false,
                is_pager: false,
            },
            &tokens,
        )
    }

    fn rules(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn flags_unwrap_and_expect_and_panic() {
        let vs = check(
            "tempagg-plan",
            false,
            "fn f() { x.unwrap(); y.expect(\"msg\"); panic!(\"boom\"); unreachable!() }",
        );
        assert_eq!(rules(&vs), vec!["no-unwrap"; 4]);
    }

    #[test]
    fn allow_comment_with_justification_suppresses() {
        let src = "fn f() {\n    // lint: allow(no-unwrap): constructor documents the panic\n    x.unwrap();\n}";
        assert!(check("tempagg-plan", false, src).is_empty());
    }

    #[test]
    fn allow_comment_same_line_suppresses() {
        let src = "fn f() { x.unwrap() } // lint: allow(no-unwrap): bootstrap only";
        assert!(check("tempagg-plan", false, src).is_empty());
    }

    #[test]
    fn allow_without_justification_is_a_violation() {
        let src = "fn f() { x.unwrap() } // lint: allow(no-unwrap)";
        let vs = check("tempagg-plan", false, src);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("justification"));
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src = "fn f() { x.unwrap() } // lint: allow(no-as-cast): misdirected";
        let vs = check("tempagg-plan", false, src);
        assert_eq!(rules(&vs), vec!["no-unwrap"]);
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); y.expect(\"e\"); }\n}";
        assert!(check("tempagg-plan", false, src).is_empty());
    }

    #[test]
    fn code_after_cfg_test_mod_is_linted_again() {
        let src = "#[cfg(test)]\nmod tests { fn t() { a.unwrap(); } }\nfn lib() { b.unwrap(); }";
        let vs = check("tempagg-plan", false, src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn unwrap_in_string_or_comment_is_ignored() {
        let src = "fn f() { let s = \"x.unwrap()\"; } // mentions .unwrap() freely";
        assert!(check("tempagg-plan", false, src).is_empty());
    }

    #[test]
    fn non_call_unwrap_ident_is_ignored() {
        // A field or path named `unwrap` without a call is not a violation.
        let src = "fn f() { let unwrap = 3; let _ = unwrap; }";
        assert!(check("tempagg-plan", false, src).is_empty());
    }

    #[test]
    fn raw_i64_arith_flagged_outside_core() {
        let vs = check("tempagg-workload", false, "fn f() { let x = t.get() + 1; }");
        assert_eq!(rules(&vs), vec!["no-raw-i64-arith"]);
        let vs = check("tempagg-workload", false, "fn f() { let x = 1 + t.get(); }");
        assert_eq!(rules(&vs), vec!["no-raw-i64-arith"]);
    }

    #[test]
    fn raw_i64_field_access_arith_flagged_outside_core() {
        // `Timestamp.0` is `pub`, so the field read is as much a bypass as
        // `.get()` and gets the same treatment.
        let vs = check("tempagg-algo", false, "fn f() { let x = t.0 + 1; }");
        assert_eq!(rules(&vs), vec!["no-raw-i64-arith"]);
        let vs = check("tempagg-algo", false, "fn f() { let x = 1 + t.0; }");
        assert_eq!(rules(&vs), vec!["no-raw-i64-arith"]);
        // Float literals are one token; a bare `.0` read without
        // arithmetic is also fine.
        assert!(check("tempagg-algo", false, "fn f() { let x = 2.0 + y; }").is_empty());
        assert!(check("tempagg-algo", false, "fn f() { let x = t.0; }").is_empty());
    }

    #[test]
    fn raw_i64_arith_allowed_in_core_and_comparisons_everywhere() {
        assert!(check("tempagg-core", false, "fn f() { let x = t.get() + 1; }").is_empty());
        assert!(check("tempagg-plan", false, "fn f() { if a.get() < b.get() {} }").is_empty());
        // `get` with arguments (slice/map lookup) is not a timestamp read.
        assert!(check("tempagg-plan", false, "fn f() { v.get(i + 1); }").is_empty());
    }

    #[test]
    fn as_cast_flagged_only_in_algo_and_agg() {
        let vs = check("tempagg-algo", false, "fn f() { let x = n as u64; }");
        assert_eq!(rules(&vs), vec!["no-as-cast"]);
        assert!(check("tempagg-sql", false, "fn f() { let x = n as u64; }").is_empty());
    }

    #[test]
    fn use_as_rename_is_not_a_cast() {
        let src = "use std::collections::HashMap as Map;\nfn f() { let m: Map<u8, u8>; }";
        assert!(check("tempagg-algo", false, src).is_empty());
    }

    #[test]
    fn raw_thread_spawn_flagged_outside_the_hub() {
        for call in [
            "std::thread::spawn(f)",
            "thread::scope(|s| {})",
            "thread::Builder::new()",
        ] {
            let vs = check("tempagg-algo", false, &format!("fn f() {{ {call}; }}"));
            assert_eq!(rules(&vs), vec!["no-raw-thread"], "for `{call}`");
        }
    }

    #[test]
    fn thread_count_query_flagged_outside_the_hub() {
        let src = "fn f() { let n = std::thread::available_parallelism(); }";
        for krate in ["tempagg-plan", "tempagg-algo"] {
            let vs = check(krate, false, src);
            assert_eq!(rules(&vs), vec!["no-raw-thread"], "in {krate}");
            assert!(vs[0].message.contains("machine_threads"));
        }
    }

    #[test]
    fn thread_hub_file_may_spawn_and_count() {
        let tokens =
            lex("fn f() { std::thread::scope(|s| {}); std::thread::available_parallelism(); }");
        let vs = check_file(
            FileContext {
                crate_name: "tempagg-algo",
                is_crate_root: false,
                is_thread_hub: true,
                is_exec_path: false,
                is_seam_hub: false,
                is_pager: false,
            },
            &tokens,
        );
        assert!(vs.is_empty());
    }

    #[test]
    fn non_spawning_thread_reads_are_legal() {
        let src = "fn f() { let id = std::thread::current().id(); }";
        assert!(check("tempagg-plan", false, src).is_empty());
        // Tests may spawn freely.
        let src = "#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(f); } }";
        assert!(check("tempagg-plan", false, src).is_empty());
    }

    #[test]
    fn raw_thread_allow_comment_suppresses() {
        let src = "fn f() {\n    // lint: allow(no-raw-thread): one-shot timer, no result plumbing needed\n    std::thread::spawn(f);\n}";
        assert!(check("tempagg-sql", false, src).is_empty());
    }

    #[test]
    fn stopwatch_flagged_in_an_engine_crate() {
        let src = "fn f() { let started = std::time::Instant::now(); }";
        let vs = check("tempagg-plan", false, src);
        assert_eq!(rules(&vs), vec!["no-adhoc-timing"]);
        assert!(vs[0].message.contains("Instant::now"));
        // The drivers time what they run.
        assert!(check("tempagg-bench", false, src).is_empty());
    }

    #[test]
    fn instant_variants_and_tests_are_not_stopwatches() {
        let src = "fn f(g: TemporalGrouping) -> bool { matches!(g, TemporalGrouping::Instant) }";
        assert!(check("tempagg-sql", false, src).is_empty());
        let src = "fn f() -> TimeUnit { TimeUnit::Instant }";
        assert!(check("tempagg-core", false, src).is_empty());
        let src = "#[cfg(test)]\nmod tests { fn t() { let t0 = Instant::now(); } }";
        assert!(check("tempagg-plan", false, src).is_empty());
    }

    #[test]
    fn stable_sort_flagged_in_algo_and_core() {
        for call in ["v.sort()", "v.sort_by(cmp)", "v.sort_by_key(key)"] {
            for krate in ["tempagg-algo", "tempagg-core"] {
                let vs = check(krate, false, &format!("fn f() {{ {call}; }}"));
                assert_eq!(
                    rules(&vs),
                    vec!["no-stable-sort"],
                    "for `{call}` in {krate}"
                );
                assert!(vs[0].message.contains("sort_unstable"), "for `{call}`");
            }
        }
    }

    #[test]
    fn unstable_sort_and_other_crates_are_legal() {
        assert!(check("tempagg-algo", false, "fn f() { v.sort_unstable(); }").is_empty());
        assert!(check(
            "tempagg-algo",
            false,
            "fn f() { v.sort_unstable_by_key(k); }"
        )
        .is_empty());
        // The rule only gates the hot-path crates.
        assert!(check("tempagg-bench", false, "fn f() { v.sort(); }").is_empty());
        // An ident named `sort` without a method call is not a violation.
        assert!(check("tempagg-core", false, "fn f() { let sort = 1; g(sort); }").is_empty());
    }

    #[test]
    fn stable_sort_allow_comment_and_tests_are_exempt() {
        let src = "fn f() {\n    // lint: allow(no-stable-sort): ties must keep storage order\n    v.sort_by_key(k);\n}";
        assert!(check("tempagg-core", false, src).is_empty());
        let src = "#[cfg(test)]\nmod tests { fn t() { v.sort(); } }";
        assert!(check("tempagg-algo", false, src).is_empty());
    }

    #[test]
    fn forbid_unsafe_required_in_crate_roots() {
        let vs = check("tempagg-core", true, "pub mod x;");
        assert_eq!(rules(&vs), vec!["forbid-unsafe"]);
        assert!(check("tempagg-core", true, "#![forbid(unsafe_code)]\npub mod x;").is_empty());
        // Non-root files do not need the attribute.
        assert!(check("tempagg-core", false, "pub fn f() {}").is_empty());
    }

    #[test]
    fn store_mutation_flagged_in_sql_crate() {
        for call in [
            "relation.push_tuple(t)",
            "relation.sort_by_time()",
            "relation.permute(&perm)",
        ] {
            let vs = check("tempagg-sql", false, &format!("fn f() {{ {call}; }}"));
            assert_eq!(rules(&vs), vec!["store-mutation"], "for `{call}`");
            assert!(vs[0].message.contains("TemporalStore"), "for `{call}`");
        }
    }

    #[test]
    fn store_mutation_other_crates_and_non_calls_are_legal() {
        // The rule only gates the SQL layer; everyone else owns their
        // relations outright.
        assert!(check("tempagg-plan", false, "fn f() { r.push_tuple(t); }").is_empty());
        // Idents without a method call are not violations.
        assert!(check(
            "tempagg-sql",
            false,
            "fn f() { let push_tuple = 1; g(push_tuple); }"
        )
        .is_empty());
        // Store-routed writes are the sanctioned path.
        assert!(check("tempagg-sql", false, "fn f() { store.insert(v, iv); }").is_empty());
    }

    #[test]
    fn store_mutation_allow_comment_and_tests_are_exempt() {
        let src = "fn f() {\n    // lint: allow(store-mutation): scratch per-query relation, not a cataloged store\n    r.push_tuple(t);\n}";
        assert!(check("tempagg-sql", false, src).is_empty());
        let src = "#[cfg(test)]\nmod tests { fn t() { r.push_tuple(t); } }";
        assert!(check("tempagg-sql", false, src).is_empty());
    }

    #[test]
    fn io_outside_pager_is_flagged_in_library_crates() {
        for src in [
            "use std::fs;",
            "fn f() { std::fs::write(p, b); }",
            "fn f() -> std::io::Result<()> { g() }",
        ] {
            for krate in ["tempagg-core", "tempagg-store", "tempagg-sql"] {
                let vs = check(krate, false, src);
                assert_eq!(
                    rules(&vs),
                    vec!["no-io-outside-pager"],
                    "for `{src}` in {krate}"
                );
            }
        }
    }

    #[test]
    fn pager_files_and_harness_crates_may_do_io() {
        // The pager module itself is the sanctioned home of raw I/O.
        let tokens = lex("use std::fs;\nfn f() { std::fs::rename(a, b); }");
        let vs = check_file(
            FileContext {
                crate_name: "tempagg-core",
                is_crate_root: false,
                is_thread_hub: false,
                is_exec_path: false,
                is_seam_hub: false,
                is_pager: true,
            },
            &tokens,
        );
        assert!(vs.is_empty());
        // Harness crates and the root facade drive the library and keep
        // their own file plumbing.
        for krate in ["tempagg-workload", "tempagg-bench", "temporal-aggregates"] {
            let vs = check(krate, false, "fn f() { std::fs::read(p); }");
            assert!(vs.is_empty(), "{krate}: {vs:?}");
        }
    }

    #[test]
    fn io_in_tests_and_justified_allows_is_exempt() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let _ = std::fs::remove_file(p); } }";
        assert!(check("tempagg-store", false, src).is_empty());
        let src = "fn f() {\n    // lint: allow(no-io-outside-pager): size probe only, no bytes decoded\n    let m = std::fs::metadata(p);\n}";
        assert!(check("tempagg-store", false, src).is_empty());
        // Pager re-exports are the sanctioned path and carry no std:: prefix.
        let src = "fn f() { pager::remove_file(path) }";
        assert!(check("tempagg-store", false, src).is_empty());
    }

    fn check_exec(src: &str) -> Vec<Violation> {
        let tokens = lex(src);
        check_file(
            FileContext {
                crate_name: "tempagg-plan",
                is_crate_root: false,
                is_thread_hub: false,
                is_exec_path: true,
                is_seam_hub: false,
                is_pager: false,
            },
            &tokens,
        )
    }

    #[test]
    fn materialize_in_exec_is_flagged() {
        let vs = check_exec("fn f() { let s = aggregator.finish(); }");
        assert_eq!(rules(&vs), vec!["no-materialize-in-exec"]);
    }

    #[test]
    fn finish_with_arguments_is_legal_in_exec() {
        // Folding one aggregate state is not a series materialization.
        assert!(check_exec("fn f() { let v = agg.finish(&state); }").is_empty());
        // And so are `finish_into`, path idents, and definitions.
        assert!(check_exec("fn f(s: &mut S) { aggregator.finish_into(s); }").is_empty());
        assert!(check_exec("fn finish() {}").is_empty());
    }

    #[test]
    fn materialize_outside_exec_paths_is_legal() {
        let src = "fn f() { let s = aggregator.finish(); }";
        assert!(check("tempagg-plan", false, src).is_empty());
    }

    #[test]
    fn materialize_in_exec_tests_and_allows_are_legal() {
        let src = "#[cfg(test)]\nmod tests { fn t() { let s = a.finish(); } }";
        assert!(check_exec(src).is_empty());
        let src = "fn f() {\n    // lint: allow(no-materialize-in-exec): oracle comparison needs the whole series\n    let s = a.finish();\n}";
        assert!(check_exec(src).is_empty());
    }
}
