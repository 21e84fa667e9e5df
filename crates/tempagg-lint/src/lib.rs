//! `tempagg-lint` — the workspace's own syntax-aware static analyzer.
//!
//! Layered in three passes that share **one** tokenizer run per file:
//!
//! 1. [`lexer`] — a hand-rolled lexer producing identifiers, punctuation,
//!    literals, lifetimes, and comments with line numbers.
//! 2. [`rules`] — the v1 *token* rules (`no-unwrap`, `no-raw-i64-arith`,
//!    `no-as-cast`, `no-stable-sort`, `no-raw-thread`, `no-adhoc-timing`,
//!    `no-materialize-in-exec`, `store-mutation`, `no-io-outside-pager`,
//!    `forbid-unsafe`) evaluated directly over the token stream.
//! 3. [`parser`] + [`analysis`] — the v2 *tree* rules: a dependency-free
//!    recursive-descent parser builds a lightweight item/block/expression
//!    tree, and a scope-aware walker with a symbol table runs the
//!    dataflow rules (`sink-order`, `seam-protocol`,
//!    `no-shared-mut-capture`, `no-alloc-in-scan`,
//!    `no-unchecked-index`).
//!
//! Every rule honors the `// lint: allow(<rule>): <why>` escape hatch on
//! the violating line or the line above; an allow *without* a
//! justification is itself a violation. `no-unchecked-index` also accepts
//! the shorthand `allow(indexing)`.
//!
//! [`check_source`] is the whole pipeline for one file; the `tempagg-lint`
//! binary (see `main.rs`) is a thin driver that walks the workspace and
//! formats the results (text, `--json`, or `--github`).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod lexer;
pub mod parser;
pub mod rules;

pub use rules::{FileContext, Violation};

/// Lex `src` once and run both rule generations over it; violations come
/// back sorted by line.
pub fn check_source(ctx: &FileContext<'_>, src: &str) -> Vec<Violation> {
    let tokens = lexer::lex(src);
    let mut out = rules::check_file(*ctx, &tokens);
    out.extend(analysis::check_ast(ctx, &tokens));
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}
