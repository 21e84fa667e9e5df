//! A dependency-free recursive-descent parser layered on the shared lexer
//! ([`crate::lexer`]) — just enough tree structure for scope-aware lint
//! rules.
//!
//! The parser produces a lightweight item/block/expression tree per file:
//! items (functions, impls, modules) with their signatures, and inside
//! function bodies a nested expression tree recording exactly the shapes
//! the rules reason about — loops with their induction patterns, closures
//! with their parameters, `let` bindings with the identifiers feeding
//! them, method/path calls with their argument identifiers, bracket
//! indexing, and `&mut` borrows. Everything else (arithmetic, literals,
//! types) is consumed without a node.
//!
//! Design constraints, in order:
//!
//! 1. **Never panic, never loop forever.** Every scan is bounded by the
//!    token count and tolerates unterminated constructs; malformed input
//!    degrades to `Other` items or missing nodes, not failures. The
//!    `parse_workspace` integration test feeds every `.rs` file in the
//!    repo through here to hold this line.
//! 2. **Be faithful on the shapes the rules use.** Loop patterns,
//!    closure parameters, call receivers, and argument identifier sets
//!    must be right, because the dataflow rules build symbol tables from
//!    them.
//! 3. **Stay lightweight everywhere else.** `match` arms, struct
//!    literals, and types may parse as generic blocks/token runs; the
//!    rules never look at them.

use crate::lexer::{Token, TokenKind};

/// A parsed file: its top-level items.
#[derive(Debug, Default)]
pub struct Ast {
    pub items: Vec<Item>,
}

/// One item (function, impl, module, or anything else).
#[derive(Debug)]
pub struct Item {
    pub kind: ItemKind,
    pub line: u32,
    /// The item carried a `#[cfg(test)]` attribute.
    pub cfg_test: bool,
}

#[derive(Debug)]
pub enum ItemKind {
    Fn(Func),
    Impl {
        /// `Some("SeriesSink<T>")` for `impl SeriesSink<T> for Foo`.
        trait_path: Option<String>,
        self_ty: String,
        items: Vec<Item>,
    },
    Mod {
        name: String,
        items: Vec<Item>,
    },
    /// struct / enum / use / const / … — consumed without structure.
    Other {
        keyword: String,
    },
}

/// A function item: signature facts plus the expression tree of its body.
#[derive(Debug)]
pub struct Func {
    pub name: String,
    /// Flattened generic-parameter and where-clause text, used to resolve
    /// trait bounds like `S: SeriesSink<T>` on a parameter's type.
    pub generics: String,
    pub params: Vec<Param>,
    /// `None` for body-less trait-method signatures.
    pub body: Option<Vec<Expr>>,
    pub line: u32,
}

/// One parameter: the names it binds and its type text.
#[derive(Debug)]
pub struct Param {
    pub names: Vec<String>,
    pub ty: String,
}

/// One node of the expression tree.
#[derive(Debug)]
pub struct Expr {
    pub kind: ExprKind,
    pub line: u32,
    pub children: Vec<Expr>,
}

#[derive(Debug)]
pub enum ExprKind {
    /// `{ … }`, `if`/`match`/`unsafe` bodies, match arms, struct literals.
    Block,
    /// `for PATS in ITER { … }`; children are the body (the iterator
    /// expression's nodes precede the loop as siblings — it is evaluated
    /// once, outside the loop frame).
    ForLoop {
        pats: Vec<String>,
        iter_idents: Vec<String>,
    },
    /// `while COND { … }` / `while let PATS = EXPR { … }`; the condition's
    /// nodes are children (it re-evaluates per iteration).
    WhileLoop { pats: Vec<String> },
    /// `loop { … }`.
    LoopLoop,
    /// `|params| …` / `move |params| …`; children are the body.
    Closure { params: Vec<String>, is_move: bool },
    /// `let NAMES = INIT…;` — `init_idents` are the identifiers appearing
    /// in the initializer (the initializer's calls still become sibling
    /// nodes after this one).
    Let {
        names: Vec<String>,
        init_idents: Vec<String>,
    },
    /// `recv.method(args)`; `recv` is the dotted receiver chain when it is
    /// a simple identifier chain (`"sink"`, `"self.ready"`), else `""`.
    MethodCall {
        recv: String,
        method: String,
        arg_idents: Vec<String>,
    },
    /// `path::to::fn(args)` (turbofish elided from `path`).
    PathCall {
        path: String,
        arg_idents: Vec<String>,
    },
    /// `name!(…)` / `name![…]` / `name!{…}`; children are the contents.
    MacroCall { name: String },
    /// `recv[…]` postfix indexing (never attributes or array literals).
    Index { recv: String },
    /// `&mut NAME` (chain text, e.g. `"slot"` or `"self.buf"`).
    MutBorrow { name: String },
}

/// Parse a token stream (comments are skipped internally).
pub fn parse(tokens: &[Token<'_>]) -> Ast {
    let code: Vec<&Token<'_>> = tokens
        .iter()
        .filter(|t| t.kind != TokenKind::Comment)
        .collect();
    let mut p = Parser { t: &code, i: 0 };
    Ast {
        items: p.items(true),
    }
}

/// Rust keywords that can never be user identifiers in the positions the
/// parser collects names from.
const PATTERN_NOISE: &[&str] = &["mut", "ref", "box", "_"];

fn is_binding_ident(text: &str) -> bool {
    if PATTERN_NOISE.contains(&text) {
        return false;
    }
    // Uppercase-initial identifiers are type/variant names by repo
    // convention (`Some`, `StitchSink`), not bindings.
    text.chars().next().is_some_and(char::is_lowercase) || text.starts_with('_')
}

struct Parser<'a, 'b> {
    t: &'a [&'a Token<'b>],
    i: usize,
}

#[derive(Clone, Copy, PartialEq)]
enum Stop {
    /// Until the matching `}` (which is consumed).
    Brace,
    /// Until the matching `)` (which is consumed).
    Paren,
    /// Until the matching `]` (which is consumed).
    Bracket,
    /// Closure-body style: until `,` `;` `)` `]` `}` at depth 0 (not
    /// consumed).
    ExprEnd,
    /// Until the tokens run out.
    End,
}

impl<'a, 'b> Parser<'a, 'b> {
    fn peek(&self, ahead: usize) -> Option<&'a Token<'b>> {
        self.t.get(self.i + ahead).copied()
    }

    fn at_punct(&self, c: char) -> bool {
        self.peek(0).is_some_and(|t| t.is_punct(c))
    }

    fn at_ident(&self, s: &str) -> bool {
        self.peek(0).is_some_and(|t| t.is_ident(s))
    }

    fn at_any_ident(&self) -> bool {
        self.peek(0).is_some_and(|t| t.kind == TokenKind::Ident)
    }

    fn line(&self) -> u32 {
        self.peek(0).map_or(0, |t| t.line)
    }

    fn bump(&mut self) {
        self.i += 1;
    }

    fn text(&self) -> &'b str {
        self.peek(0).map_or("", |t| t.text)
    }

    /// Skip a balanced `<…>` run starting at the current `<`. `>` tokens
    /// that belong to `->` arrows do not close a level.
    fn skip_angles(&mut self) -> String {
        let mut out = String::new();
        let mut depth = 0usize;
        while let Some(t) = self.peek(0) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                let arrow = self.i > 0 && self.t[self.i - 1].is_punct('-');
                if !arrow {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        out.push_str(t.text);
                        self.bump();
                        break;
                    }
                }
            }
            push_text(&mut out, t.text);
            self.bump();
        }
        out
    }

    /// Skip one balanced delimiter run starting at the current open
    /// delimiter; returns the skipped token range `(start, end)`.
    fn skip_balanced(&mut self, open: char, close: char) -> (usize, usize) {
        let start = self.i;
        let mut depth = 0usize;
        while let Some(t) = self.peek(0) {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.bump();
                    break;
                }
            }
            self.bump();
        }
        (start, self.i)
    }

    /// Consume attributes at the current position; `true` if any carried
    /// `cfg(test)`.
    fn skip_attrs(&mut self) -> bool {
        let mut cfg_test = false;
        loop {
            let hash = self.at_punct('#');
            let open = if self.peek(1).is_some_and(|t| t.is_punct('[')) {
                1
            } else if self.peek(1).is_some_and(|t| t.is_punct('!'))
                && self.peek(2).is_some_and(|t| t.is_punct('['))
            {
                2
            } else {
                0
            };
            if !hash || open == 0 {
                return cfg_test;
            }
            for _ in 0..open {
                self.bump();
            }
            let (start, end) = self.skip_balanced('[', ']');
            let body: Vec<&str> = self.t[start..end].iter().map(|t| t.text).collect();
            if body
                .windows(4)
                .any(|w| w[0] == "cfg" && w[1] == "(" && w[2] == "test" && w[3] == ")")
            {
                cfg_test = true;
            }
        }
    }

    /// Parse items until end of input (`top == true`) or a closing `}`.
    fn items(&mut self, top: bool) -> Vec<Item> {
        let mut out = Vec::new();
        while self.peek(0).is_some() {
            if !top && self.at_punct('}') {
                self.bump();
                break;
            }
            let cfg_test = self.skip_attrs();
            let line = self.line();
            // Visibility.
            if self.at_ident("pub") {
                self.bump();
                if self.at_punct('(') {
                    self.skip_balanced('(', ')');
                }
            }
            // Modifier keywords before `fn` (const fn, unsafe fn, …).
            while self.at_ident("default")
                || self.at_ident("async")
                || (self.at_ident("unsafe") && self.peek(1).is_some_and(|t| t.is_ident("fn")))
                || (self.at_ident("const")
                    && self
                        .peek(1)
                        .is_some_and(|t| t.is_ident("fn") || t.is_ident("unsafe")))
                || (self.at_ident("extern")
                    && self.peek(1).is_some_and(|t| t.kind == TokenKind::Literal)
                    && self.peek(2).is_some_and(|t| t.is_ident("fn")))
            {
                self.bump();
                if self.i > 0 && self.t[self.i - 1].is_ident("extern") {
                    self.bump(); // the ABI string literal
                }
            }
            if self.at_ident("fn") {
                out.push(Item {
                    kind: ItemKind::Fn(self.parse_fn()),
                    line,
                    cfg_test,
                });
            } else if self.at_ident("impl") {
                out.push(Item {
                    kind: self.parse_impl(),
                    line,
                    cfg_test,
                });
            } else if self.at_ident("mod") {
                self.bump();
                let name = if self.at_any_ident() {
                    let n = self.text().to_string();
                    self.bump();
                    n
                } else {
                    String::new()
                };
                if self.at_punct('{') {
                    self.bump();
                    let items = self.items(false);
                    out.push(Item {
                        kind: ItemKind::Mod { name, items },
                        line,
                        cfg_test,
                    });
                } else {
                    self.skip_to_semi();
                    out.push(Item {
                        kind: ItemKind::Other {
                            keyword: "mod".to_string(),
                        },
                        line,
                        cfg_test,
                    });
                }
            } else if self.at_ident("trait") {
                // Parse the contained method signatures/defaults as items.
                self.bump();
                self.skip_until_brace_or_semi();
                if self.at_punct('{') {
                    self.bump();
                    let items = self.items(false);
                    out.push(Item {
                        kind: ItemKind::Mod {
                            name: "trait".to_string(),
                            items,
                        },
                        line,
                        cfg_test,
                    });
                } else {
                    if self.at_punct(';') {
                        self.bump();
                    }
                    out.push(Item {
                        kind: ItemKind::Other {
                            keyword: "trait".to_string(),
                        },
                        line,
                        cfg_test,
                    });
                }
            } else if self.at_any_ident() || self.at_punct('#') {
                // struct / enum / use / const / static / type / macro_rules
                // / extern blocks — consume blindly to the item's end.
                let keyword = self.text().to_string();
                self.bump();
                self.skip_item_rest();
                out.push(Item {
                    kind: ItemKind::Other { keyword },
                    line,
                    cfg_test,
                });
            } else {
                // Stray punctuation at item level — never stall.
                self.bump();
            }
        }
        out
    }

    /// After an unknown item keyword: consume to the first top-level `;`,
    /// or through the first top-level `{…}` run.
    fn skip_item_rest(&mut self) {
        self.skip_until_brace_or_semi();
        if self.at_punct('{') {
            self.skip_balanced('{', '}');
        } else if self.at_punct(';') {
            self.bump();
        }
    }

    fn skip_to_semi(&mut self) {
        let mut brace = 0usize;
        while let Some(t) = self.peek(0) {
            if t.is_punct('{') {
                brace += 1;
            } else if t.is_punct('}') {
                brace = brace.saturating_sub(1);
            } else if t.is_punct(';') && brace == 0 {
                self.bump();
                return;
            }
            self.bump();
        }
    }

    /// Advance to (not past) the next `{` or `;` at top level, skipping
    /// generic runs so `Vec<{integer}>`-style noise cannot confuse it.
    fn skip_until_brace_or_semi(&mut self) {
        let mut paren = 0usize;
        while let Some(t) = self.peek(0) {
            if t.is_punct('<') && paren == 0 {
                self.skip_angles();
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') {
                paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                paren = paren.saturating_sub(1);
            } else if (t.is_punct('{') || t.is_punct(';')) && paren == 0 {
                return;
            }
            self.bump();
        }
    }

    fn parse_impl(&mut self) -> ItemKind {
        self.bump(); // `impl`
        let mut generics = String::new();
        if self.at_punct('<') {
            generics = self.skip_angles();
        }
        let _ = generics;
        // Collect type tokens until `for`, `where`, or `{` at top level.
        let mut head = String::new();
        let mut trait_path: Option<String> = None;
        loop {
            if self.peek(0).is_none() || self.at_punct('{') {
                break;
            }
            if self.at_ident("where") {
                // Skip the where clause up to the body.
                while self.peek(0).is_some() && !self.at_punct('{') {
                    if self.at_punct('<') {
                        self.skip_angles();
                    } else {
                        self.bump();
                    }
                }
                break;
            }
            if self.at_ident("for") {
                trait_path = Some(std::mem::take(&mut head));
                self.bump();
                continue;
            }
            if self.at_punct('<') {
                let run = self.skip_angles();
                push_text(&mut head, &run);
                continue;
            }
            push_text(&mut head, self.text());
            self.bump();
        }
        let items = if self.at_punct('{') {
            self.bump();
            self.items(false)
        } else {
            Vec::new()
        };
        ItemKind::Impl {
            trait_path,
            self_ty: head,
            items,
        }
    }

    fn parse_fn(&mut self) -> Func {
        let line = self.line();
        self.bump(); // `fn`
        let name = if self.at_any_ident() {
            let n = self.text().to_string();
            self.bump();
            n
        } else {
            String::new()
        };
        let mut generics = String::new();
        if self.at_punct('<') {
            generics = self.skip_angles();
        }
        let mut params = Vec::new();
        if self.at_punct('(') {
            self.bump();
            params = self.parse_params();
        }
        // Return type + where clause up to `{` or `;`.
        let mut saw_where = false;
        loop {
            if self.peek(0).is_none() || self.at_punct('{') || self.at_punct(';') {
                break;
            }
            if self.at_ident("where") {
                saw_where = true;
            }
            if self.at_punct('<') {
                let run = self.skip_angles();
                if saw_where {
                    push_text(&mut generics, &run);
                }
                continue;
            }
            if saw_where {
                push_text(&mut generics, self.text());
            }
            self.bump();
        }
        let body = if self.at_punct('{') {
            self.bump();
            Some(self.scan(Stop::Brace))
        } else {
            if self.at_punct(';') {
                self.bump();
            }
            None
        };
        Func {
            name,
            generics,
            params,
            body,
            line,
        }
    }

    /// Parse a parameter list; the opening `(` is already consumed.
    fn parse_params(&mut self) -> Vec<Param> {
        let mut params = Vec::new();
        let mut names: Vec<String> = Vec::new();
        let mut ty = String::new();
        let mut in_ty = false;
        let mut depth = 0usize;
        while let Some(t) = self.peek(0) {
            if t.is_punct('<') && depth == 0 {
                let run = self.skip_angles();
                if in_ty {
                    push_text(&mut ty, &run);
                }
                continue;
            }
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if t.is_punct(')') {
                if depth == 0 {
                    self.bump();
                    break;
                }
                depth = depth.saturating_sub(1);
            }
            if depth == 0 && t.is_punct(',') {
                if !names.is_empty() || !ty.is_empty() {
                    params.push(Param {
                        names: std::mem::take(&mut names),
                        ty: std::mem::take(&mut ty),
                    });
                }
                in_ty = false;
                self.bump();
                continue;
            }
            if depth == 0 && t.is_punct(':') && !in_ty {
                in_ty = true;
                self.bump();
                continue;
            }
            if in_ty {
                push_text(&mut ty, t.text);
            } else if t.kind == TokenKind::Ident {
                if t.text == "self" {
                    names.push("self".to_string());
                    push_text(&mut ty, "self");
                } else if is_binding_ident(t.text) {
                    names.push(t.text.to_string());
                }
            }
            self.bump();
        }
        if !names.is_empty() || !ty.is_empty() {
            params.push(Param { names, ty });
        }
        params
    }

    /// Collect binding identifiers from the tokens of a pattern range.
    fn pattern_idents(range: &[&Token<'_>]) -> Vec<String> {
        range
            .iter()
            .filter(|t| t.kind == TokenKind::Ident && is_binding_ident(t.text))
            .map(|t| t.text.to_string())
            .collect()
    }

    fn idents_in(range: &[&Token<'_>]) -> Vec<String> {
        range
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.to_string())
            .collect()
    }

    /// Advance to the next token matching `pred` at delimiter depth 0, or
    /// to the close of the enclosing delimiter, whichever comes first;
    /// returns the scanned range. Stopping at that close keeps a construct
    /// with no `{` of its own — a match guard, `if x => expr,` — inside
    /// its block: the scan never walks on into the items after it.
    fn range_until(&mut self, pred: impl Fn(&Token<'_>) -> bool) -> (usize, usize) {
        let start = self.i;
        let (mut paren, mut bracket, mut brace) = (0usize, 0usize, 0usize);
        while let Some(t) = self.peek(0) {
            let at_depth0 = paren == 0 && bracket == 0 && brace == 0;
            if at_depth0 && (pred(t) || t.is_punct(')') || t.is_punct(']') || t.is_punct('}')) {
                break;
            }
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren = paren.saturating_sub(1);
            } else if t.is_punct('[') {
                bracket += 1;
            } else if t.is_punct(']') {
                bracket = bracket.saturating_sub(1);
            } else if t.is_punct('{') {
                brace += 1;
            } else if t.is_punct('}') {
                brace = brace.saturating_sub(1);
            }
            self.bump();
        }
        (start, self.i)
    }

    /// Parse a detached token range into expression nodes.
    fn scan_range(&self, start: usize, end: usize) -> Vec<Expr> {
        let mut sub = Parser {
            t: &self.t[start..end],
            i: 0,
        };
        sub.scan(Stop::End)
    }

    /// The universal expression scanner: walks tokens until `stop`,
    /// emitting nodes for the shapes the rules care about.
    #[allow(clippy::too_many_lines)]
    fn scan(&mut self, stop: Stop) -> Vec<Expr> {
        let mut out = Vec::new();
        // `[`…`]` runs are always consumed whole by the index/array
        // dispatch below, so no bracket counter is needed here.
        let (mut paren, bracket, mut brace) = (0usize, 0usize, 0usize);
        let mut pending_move = false;
        while let Some(t) = self.peek(0) {
            // Stop conditions at local depth 0.
            let at_depth0 = paren == 0 && bracket == 0 && brace == 0;
            match stop {
                Stop::Brace if at_depth0 && t.is_punct('}') => {
                    self.bump();
                    return out;
                }
                Stop::Paren if at_depth0 && t.is_punct(')') => {
                    self.bump();
                    return out;
                }
                Stop::Bracket if at_depth0 && t.is_punct(']') => {
                    self.bump();
                    return out;
                }
                Stop::ExprEnd
                    if at_depth0
                        && (t.is_punct(',')
                            || t.is_punct(';')
                            || t.is_punct(')')
                            || t.is_punct(']')
                            || t.is_punct('}')) =>
                {
                    return out;
                }
                _ => {}
            }
            let line = t.line;
            // Attributes inside blocks (e.g. on nested items/statements).
            if t.is_punct('#')
                && (self.peek(1).is_some_and(|n| n.is_punct('['))
                    || (self.peek(1).is_some_and(|n| n.is_punct('!'))
                        && self.peek(2).is_some_and(|n| n.is_punct('['))))
            {
                self.skip_attrs();
                continue;
            }
            if t.is_punct('{') {
                self.bump();
                let children = self.scan(Stop::Brace);
                out.push(Expr {
                    kind: ExprKind::Block,
                    line,
                    children,
                });
                continue;
            }
            if t.is_punct('}') {
                // Unbalanced close under Stop::End/ExprEnd bookkeeping.
                brace = brace.saturating_sub(1);
                self.bump();
                continue;
            }
            if t.kind == TokenKind::Ident {
                match t.text {
                    "for" if !self.peek(1).is_some_and(|n| n.is_punct('<')) => {
                        self.bump();
                        let (ps, pe) = self.range_until(|t| t.is_ident("in"));
                        let pats = Self::pattern_idents(&self.t[ps..pe]);
                        if self.at_ident("in") {
                            self.bump();
                        }
                        let (is, ie) = self.range_until(|t| t.is_punct('{'));
                        let iter_idents = Self::idents_in(&self.t[is..ie]);
                        // Iterator nodes precede the loop (evaluated once).
                        out.extend(self.scan_range(is, ie));
                        let children = if self.at_punct('{') {
                            self.bump();
                            self.scan(Stop::Brace)
                        } else {
                            Vec::new()
                        };
                        out.push(Expr {
                            kind: ExprKind::ForLoop { pats, iter_idents },
                            line,
                            children,
                        });
                        continue;
                    }
                    "while" => {
                        self.bump();
                        let mut pats = Vec::new();
                        let mut children = Vec::new();
                        if self.at_ident("let") {
                            self.bump();
                            let (ps, pe) = self.range_until(|t| t.is_punct('='));
                            pats = Self::pattern_idents(&self.t[ps..pe]);
                            if self.at_punct('=') {
                                self.bump();
                            }
                        }
                        let (cs, ce) = self.range_until(|t| t.is_punct('{'));
                        // Condition nodes are inside the loop frame: they
                        // re-evaluate per iteration.
                        children.extend(self.scan_range(cs, ce));
                        if self.at_punct('{') {
                            self.bump();
                            children.extend(self.scan(Stop::Brace));
                        }
                        out.push(Expr {
                            kind: ExprKind::WhileLoop { pats },
                            line,
                            children,
                        });
                        continue;
                    }
                    "loop" if self.peek(1).is_some_and(|n| n.is_punct('{')) => {
                        self.bump();
                        self.bump();
                        let children = self.scan(Stop::Brace);
                        out.push(Expr {
                            kind: ExprKind::LoopLoop,
                            line,
                            children,
                        });
                        continue;
                    }
                    "if" | "match" => {
                        // Emit the scrutinee/condition nodes inline, then
                        // let the `{` dispatch build the body block.
                        self.bump();
                        if self.at_ident("let") {
                            self.bump();
                            let (_, _) = self.range_until(|t| t.is_punct('='));
                            if self.at_punct('=') {
                                self.bump();
                            }
                        }
                        let (cs, ce) = self.range_until(|t| t.is_punct('{'));
                        out.extend(self.scan_range(cs, ce));
                        continue;
                    }
                    "let" => {
                        self.bump();
                        let (ps, pe) = self
                            .range_until(|t| t.is_punct('=') || t.is_punct(';') || t.is_punct(':'));
                        let names = Self::pattern_idents(&self.t[ps..pe]);
                        if self.at_punct(':') {
                            // Skip the type annotation to `=` or `;`.
                            self.bump();
                            loop {
                                if self.peek(0).is_none()
                                    || self.at_punct('=')
                                    || self.at_punct(';')
                                {
                                    break;
                                }
                                if self.at_punct('<') {
                                    self.skip_angles();
                                } else {
                                    self.bump();
                                }
                            }
                        }
                        let mut init_idents = Vec::new();
                        if self.at_punct('=') {
                            // Look ahead (without consuming) to the `;` at
                            // depth 0 for the initializer's identifiers;
                            // its calls still get scanned as siblings.
                            let from = self.i + 1;
                            let mut j = from;
                            let (mut p, mut bk, mut bc) = (0usize, 0usize, 0usize);
                            while let Some(tt) = self.t.get(j) {
                                if tt.is_punct(';') && p == 0 && bk == 0 && bc == 0 {
                                    break;
                                }
                                if tt.is_punct('(') {
                                    p += 1;
                                } else if tt.is_punct(')') {
                                    p = p.saturating_sub(1);
                                } else if tt.is_punct('[') {
                                    bk += 1;
                                } else if tt.is_punct(']') {
                                    bk = bk.saturating_sub(1);
                                } else if tt.is_punct('{') {
                                    bc += 1;
                                } else if tt.is_punct('}') {
                                    bc = bc.saturating_sub(1);
                                }
                                j += 1;
                            }
                            init_idents = Self::idents_in(&self.t[from..j]);
                        }
                        out.push(Expr {
                            kind: ExprKind::Let { names, init_idents },
                            line,
                            children: Vec::new(),
                        });
                        if self.at_punct('=') {
                            self.bump();
                        }
                        continue;
                    }
                    "move" if self.peek(1).is_some_and(|n| n.is_punct('|')) => {
                        pending_move = true;
                        self.bump();
                        continue;
                    }
                    _ => {}
                }
                // Macro call: IDENT ! ( / [ / {
                if self.peek(1).is_some_and(|n| n.is_punct('!'))
                    && self
                        .peek(2)
                        .is_some_and(|n| n.is_punct('(') || n.is_punct('[') || n.is_punct('{'))
                {
                    let name = t.text.to_string();
                    self.bump();
                    self.bump();
                    let close = match self.text() {
                        "(" => Stop::Paren,
                        "[" => Stop::Bracket,
                        _ => Stop::Brace,
                    };
                    self.bump();
                    let children = self.scan(close);
                    out.push(Expr {
                        kind: ExprKind::MacroCall { name },
                        line,
                        children,
                    });
                    continue;
                }
                // Method call: `.` IDENT [turbofish] `(`
                let prev_dot = self.i > 0 && self.t[self.i - 1].is_punct('.');
                if prev_dot {
                    // Optional turbofish between name and `(`.
                    let mut k = self.i + 1;
                    if self.t.get(k).is_some_and(|n| n.is_punct(':'))
                        && self.t.get(k + 1).is_some_and(|n| n.is_punct(':'))
                        && self.t.get(k + 2).is_some_and(|n| n.is_punct('<'))
                    {
                        k = skip_angles_from(self.t, k + 2);
                    }
                    if self.t.get(k).is_some_and(|n| n.is_punct('(')) {
                        let method = t.text.to_string();
                        let recv = receiver_chain(self.t, self.i - 1);
                        self.i = k + 1; // past `(`
                        let args_start = self.i;
                        let children = self.scan(Stop::Paren);
                        let arg_idents =
                            Self::idents_in(&self.t[args_start..self.i.saturating_sub(1)]);
                        out.push(Expr {
                            kind: ExprKind::MethodCall {
                                recv,
                                method,
                                arg_idents,
                            },
                            line,
                            children,
                        });
                        continue;
                    }
                    self.bump();
                    continue;
                }
                // Path call: IDENT (:: IDENT | ::<…>)* `(`
                if !KEYWORDS.contains(&t.text) {
                    let mut segs = vec![t.text.to_string()];
                    let mut k = self.i + 1;
                    loop {
                        if self.t.get(k).is_some_and(|n| n.is_punct(':'))
                            && self.t.get(k + 1).is_some_and(|n| n.is_punct(':'))
                        {
                            if self.t.get(k + 2).is_some_and(|n| n.is_punct('<')) {
                                k = skip_angles_from(self.t, k + 2);
                                continue;
                            }
                            if self
                                .t
                                .get(k + 2)
                                .is_some_and(|n| n.kind == TokenKind::Ident)
                            {
                                segs.push(self.t[k + 2].text.to_string());
                                k += 3;
                                continue;
                            }
                        }
                        break;
                    }
                    if self.t.get(k).is_some_and(|n| n.is_punct('(')) {
                        self.i = k + 1;
                        let args_start = self.i;
                        let children = self.scan(Stop::Paren);
                        let arg_idents =
                            Self::idents_in(&self.t[args_start..self.i.saturating_sub(1)]);
                        out.push(Expr {
                            kind: ExprKind::PathCall {
                                path: segs.join("::"),
                                arg_idents,
                            },
                            line,
                            children,
                        });
                        continue;
                    }
                }
                self.bump();
                continue;
            }
            // Closure: `|` in prefix position.
            if t.is_punct('|') && (pending_move || closure_position(self.t, self.i)) {
                let is_move = pending_move;
                pending_move = false;
                self.bump();
                let (ps, pe) = self.range_until(|t| t.is_punct('|'));
                let params = Self::pattern_idents(&self.t[ps..pe]);
                if self.at_punct('|') {
                    self.bump();
                }
                let children = if self.at_punct('{') {
                    self.bump();
                    self.scan(Stop::Brace)
                } else {
                    self.scan(Stop::ExprEnd)
                };
                out.push(Expr {
                    kind: ExprKind::Closure { params, is_move },
                    line,
                    children,
                });
                continue;
            }
            // Postfix index: IDENT/`)`/`]` followed by `[`.
            if t.is_punct('[') {
                let bracket_at = self.i;
                let postfix = bracket_at > 0
                    && (self.t[bracket_at - 1].kind == TokenKind::Ident
                        && !KEYWORDS.contains(&self.t[bracket_at - 1].text)
                        || self.t[bracket_at - 1].is_punct(')')
                        || self.t[bracket_at - 1].is_punct(']'));
                let recv = if postfix && self.t[bracket_at - 1].kind == TokenKind::Ident {
                    index_receiver(self.t, bracket_at - 1)
                } else {
                    String::new()
                };
                self.bump();
                let children = self.scan(Stop::Bracket);
                out.push(Expr {
                    kind: if postfix {
                        ExprKind::Index { recv }
                    } else {
                        // Array literal / type position — plain grouping.
                        ExprKind::Block
                    },
                    line,
                    children,
                });
                continue;
            }
            // `&mut NAME` borrow.
            if t.is_punct('&')
                && self.peek(1).is_some_and(|n| n.is_ident("mut"))
                && self
                    .peek(2)
                    .is_some_and(|n| n.kind == TokenKind::Ident || n.is_punct('*'))
            {
                self.bump();
                self.bump();
                let mut name = String::new();
                while self.at_punct('*') {
                    self.bump();
                }
                while let Some(n) = self.peek(0) {
                    if n.kind == TokenKind::Ident {
                        if !name.is_empty() {
                            name.push('.');
                        }
                        name.push_str(n.text);
                        self.bump();
                        if self.at_punct('.')
                            && self.peek(1).is_some_and(|m| m.kind == TokenKind::Ident)
                        {
                            self.bump();
                            continue;
                        }
                    }
                    break;
                }
                if !name.is_empty() {
                    out.push(Expr {
                        kind: ExprKind::MutBorrow { name },
                        line,
                        children: Vec::new(),
                    });
                }
                continue;
            }
            // Depth bookkeeping for the stop conditions.
            if t.is_punct('(') {
                paren += 1;
            } else if t.is_punct(')') {
                paren = paren.saturating_sub(1);
            }
            self.bump();
        }
        out
    }
}

/// Keywords that never start a path call.
const KEYWORDS: &[&str] = &[
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false", "fn",
    "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "static", "struct", "super", "trait", "true", "type", "unsafe", "use", "where",
    "while", "async", "await", "yield",
];

fn push_text(out: &mut String, text: &str) {
    if !out.is_empty() {
        out.push(' ');
    }
    out.push_str(text);
}

/// From the index of a `<` token, return the index just past its matching
/// `>` (arrow `->` closers excluded).
fn skip_angles_from(t: &[&Token<'_>], mut i: usize) -> usize {
    let mut depth = 0usize;
    while let Some(tok) = t.get(i) {
        if tok.is_punct('<') {
            depth += 1;
        } else if tok.is_punct('>') {
            let arrow = i > 0 && t[i - 1].is_punct('-');
            if !arrow {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
        }
        i += 1;
    }
    i
}

/// Walk a dotted identifier chain leftwards from `end` (exclusive), e.g.
/// for the `.` before a method name. Returns `""` when the receiver is not
/// a simple chain (calls, indexing, parenthesized expressions).
fn receiver_chain(t: &[&Token<'_>], dot_index: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut i = dot_index; // points at the `.`
    loop {
        if i == 0 {
            break;
        }
        let prev = t[i - 1];
        if prev.kind == TokenKind::Ident
            || (prev.kind == TokenKind::Number && !prev.text.contains('.'))
        {
            parts.push(prev.text);
            if i >= 2 && t[i - 2].is_punct('.') {
                i -= 2;
                continue;
            }
            // Chain root must not itself be postfix (e.g. `f(x).y`).
            if i >= 2 && (t[i - 2].is_punct(')') || t[i - 2].is_punct(']')) {
                return String::new();
            }
            break;
        }
        return String::new();
    }
    parts.reverse();
    parts.join(".")
}

/// The receiver chain of an index expression: walk the dotted identifier
/// chain leftwards from `ident_at` (the identifier just before the `[`).
fn index_receiver(t: &[&Token<'_>], ident_at: usize) -> String {
    if !matches!(t.get(ident_at), Some(tok) if tok.kind == TokenKind::Ident) {
        return String::new();
    }
    let mut parts = vec![t[ident_at].text];
    let mut i = ident_at;
    while i >= 2 && t[i - 1].is_punct('.') && t[i - 2].kind == TokenKind::Ident {
        parts.push(t[i - 2].text);
        i -= 2;
    }
    parts.reverse();
    parts.join(".")
}

fn closure_position(t: &[&Token<'_>], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let prev = t[i - 1];
    prev.is_punct('(')
        || prev.is_punct(',')
        || prev.is_punct('=')
        || prev.is_punct('{')
        || prev.is_punct(';')
        || prev.is_punct('>') && i >= 2 && t[i - 2].is_punct('=') // `=>`
        || prev.is_ident("return")
        || prev.is_ident("move")
        || prev.is_ident("else")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    /// A match guard ends where its arm — or its macro's arguments — do,
    /// whatever the body: the items after the function stay the file's
    /// items, and the `#[cfg(test)]` module stays a test module.
    #[test]
    fn a_guarded_arm_keeps_the_items_after_it() {
        for body in [
            "match r { Ok(v) => Ok(Some(v)), Err(e) if e == 2 => Ok(None), }",
            "match r { Ok(v) => Ok(Some(v)), Err(e) if e == 2 => return Ok(None), }",
            "match r { Ok(v) => Ok(Some(v)), Err(e) if e == 2 => { Ok(None) } }",
            "match r { Ok(v) => Ok(Some(v)), Err(e) => Ok(None), }",
            "matches!(r, Err(e) if e == 2)",
        ] {
            let src = format!(
                "fn f(r: R) -> R {{ {body} }}\n\
                 #[cfg(test)]\nmod tests {{ fn g() {{}} }}\nfn h() {{}}"
            );
            let shape: Vec<(bool, bool)> = parse(&lex(&src))
                .items
                .iter()
                .map(|item| (matches!(item.kind, ItemKind::Fn(_)), item.cfg_test))
                .collect();
            assert_eq!(
                shape,
                [(true, false), (false, true), (true, false)],
                "{body}"
            );
        }
    }
}
