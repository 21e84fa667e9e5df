//! `tempagg-lint` CLI — a thin driver over the [`tempagg_lint`] library.
//!
//! Run as `cargo run -p tempagg-lint` from anywhere in the workspace (or
//! pass an explicit root: `cargo run -p tempagg-lint -- path/to/tree`).
//! Walks every crate's `src/` tree plus the root crate's `src/`, lexes
//! each file once, and runs both rule generations (token rules and the
//! syntax-aware tree rules) — see the library docs for the rule list.
//!
//! ## Stable interface (consumed by CI and pre-commit hooks)
//!
//! Flags:
//!
//! * `--json` — machine-readable output: a JSON array of
//!   `{"file", "line", "rule", "message"}` objects on stdout, one object
//!   per line (diff-friendly). The human summary still goes to stderr.
//! * `--github` — GitHub Actions annotations
//!   (`::error file=…,line=…,title=tempagg-lint(rule)::message`).
//! * `--help` — usage.
//!
//! Exit codes (stable):
//!
//! * `0` — clean, no violations
//! * `1` — one or more violations found
//! * `2` — usage or I/O error (bad flag, unreadable file, no workspace)
//!
//! Diagnostics in the default text mode are `path:line: rule: message`,
//! one per line, sorted by path.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use tempagg_lint::{check_source, FileContext};

const USAGE: &str = "usage: tempagg-lint [--json | --github] [ROOT]\n\
                     \n\
                     exit codes: 0 clean, 1 violations found, 2 usage/IO error";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Github,
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut root_arg: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => format = Format::Json,
            "--github" => format = Format::Github,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("tempagg-lint: unknown flag `{flag}`\n{USAGE}");
                return ExitCode::from(2);
            }
            path => {
                if root_arg.is_some() {
                    eprintln!("tempagg-lint: more than one ROOT argument\n{USAGE}");
                    return ExitCode::from(2);
                }
                root_arg = Some(PathBuf::from(path));
            }
        }
    }

    let root = match workspace_root(root_arg) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("tempagg-lint: cannot locate workspace root: {e}");
            return ExitCode::from(2);
        }
    };

    // `src/` directly under the workspace root is the facade package; when
    // the argument is a single crate subtree instead, its basename is the
    // crate whose rules apply (so e.g. tempagg-core keeps its arithmetic
    // privileges when linted alone).
    let root_pkg = if root.join("crates").is_dir() {
        "temporal-aggregates".to_string()
    } else {
        root.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("temporal-aggregates")
            .to_string()
    };

    let mut files = Vec::new();
    if let Err(e) = collect_lintable_files(&root, &mut files) {
        eprintln!("tempagg-lint: {e}");
        return ExitCode::from(2);
    }
    files.sort();

    let mut violations = 0usize;
    let mut scanned = 0usize;
    let mut json_rows = Vec::new();
    for file in &files {
        let src = match std::fs::read_to_string(file) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("tempagg-lint: {}: {e}", file.display());
                return ExitCode::from(2);
            }
        };
        scanned += 1;
        let ctx = file_context(&root, &root_pkg, file);
        let rel = file.strip_prefix(&root).unwrap_or(file);
        for v in check_source(&ctx, &src) {
            match format {
                Format::Text => {
                    println!("{}:{}: {}: {}", rel.display(), v.line, v.rule, v.message);
                }
                Format::Json => json_rows.push(format!(
                    "{{\"file\":{},\"line\":{},\"rule\":{},\"message\":{}}}",
                    json_string(&rel.display().to_string()),
                    v.line,
                    json_string(v.rule),
                    json_string(&v.message)
                )),
                Format::Github => {
                    // Annotation text must be single-line.
                    let msg = v.message.replace('\n', " ");
                    println!(
                        "::error file={},line={},title=tempagg-lint({})::{}",
                        rel.display(),
                        v.line,
                        v.rule,
                        msg
                    );
                }
            }
            violations += 1;
        }
    }

    if format == Format::Json {
        println!("[");
        for (i, row) in json_rows.iter().enumerate() {
            let comma = if i + 1 < json_rows.len() { "," } else { "" };
            println!("  {row}{comma}");
        }
        println!("]");
    }

    if violations > 0 {
        eprintln!(
            "tempagg-lint: {violations} violation(s) in {scanned} file(s) — \
             fix, or justify with `// lint: allow(<rule>): <why>`"
        );
        ExitCode::from(1)
    } else {
        eprintln!("tempagg-lint: clean ({scanned} files)");
        ExitCode::SUCCESS
    }
}

/// The per-file rule context: crate name plus the special-path flags
/// (thread hub, exec paths, seam/stitch hubs).
fn file_context<'a>(root: &Path, root_pkg: &'a str, file: &'a Path) -> FileContext<'a> {
    let crate_name = crate_of(root, root_pkg, file);
    let is_thread_hub =
        crate_name == "tempagg-algo" && file.ends_with(Path::new("src").join("parallel.rs"));
    let is_executor =
        crate_name == "tempagg-plan" && file.ends_with(Path::new("src").join("executor.rs"));
    let is_pager = crate_name == "tempagg-core"
        && file
            .ancestors()
            .any(|p| p.ends_with(Path::new("src").join("pager")));
    FileContext {
        crate_name,
        is_crate_root: is_crate_root(file),
        is_thread_hub,
        // tempagg-sql's execution layer is the dispatcher plus the row
        // buffer and sinks it drains into.
        is_exec_path: is_executor
            || (crate_name == "tempagg-sql"
                && ["exec.rs", "rows.rs"]
                    .iter()
                    .any(|name| file.ends_with(Path::new("src").join(name)))),
        is_seam_hub: is_thread_hub || is_executor,
        is_pager,
    }
}

/// Minimal JSON string escaping (control chars, quotes, backslashes) — the
/// lint stays dependency-free by policy.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The workspace root: an explicit CLI argument, else two levels above this
/// crate's manifest (`crates/tempagg-lint` → repo root).
fn workspace_root(arg: Option<PathBuf>) -> Result<PathBuf, String> {
    if let Some(p) = arg {
        if !p.is_dir() {
            return Err(format!("{} is not a directory", p.display()));
        }
        return Ok(p);
    }
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .map_err(|_| "CARGO_MANIFEST_DIR unset and no root argument given".to_string())?;
    Path::new(&manifest)
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{manifest} has no grandparent"))
}

/// Every `.rs` file under a `src/` tree of the root package or a member
/// crate. `tests/`, `benches/`, and `examples/` trees are exempt by
/// design: the rules target *library* code. A root without a `crates/`
/// directory is fine — that is how a single crate subtree is linted.
fn collect_lintable_files(root: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    walk_src(&root.join("src"), out)?;
    let crates = root.join("crates");
    if !crates.is_dir() {
        if out.is_empty() {
            return Err(format!("no src/ or crates/ under {}", root.display()));
        }
        return Ok(());
    }
    let entries = std::fs::read_dir(&crates).map_err(|e| format!("{}: {e}", crates.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", crates.display()))?;
        if entry.path().is_dir() {
            walk_src(&entry.path().join("src"), out)?;
        }
    }
    Ok(())
}

fn walk_src(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    if !dir.is_dir() {
        return Ok(());
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.is_dir() {
            walk_src(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Crate name from the path: `crates/<name>/src/...` → `<name>`; anything
/// else (the root package's `src/`, or a single-crate root) belongs to
/// `root_pkg`.
fn crate_of<'a>(root: &Path, root_pkg: &'a str, file: &'a Path) -> &'a str {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let mut parts = rel.components();
    match parts.next().and_then(|c| c.as_os_str().to_str()) {
        Some("crates") => parts
            .next()
            .and_then(|c| c.as_os_str().to_str())
            .unwrap_or("unknown"),
        _ => root_pkg,
    }
}

fn is_crate_root(file: &Path) -> bool {
    let name = file.file_name().and_then(|n| n.to_str());
    let parent_is_src = file
        .parent()
        .and_then(|p| p.file_name())
        .and_then(|n| n.to_str())
        == Some("src");
    parent_is_src && matches!(name, Some("lib.rs" | "main.rs"))
}
