//! Workspace walking, file classification and crate-level checks.
//!
//! The engine owns everything that needs more than one file's worth of
//! context: which paths are linted at all, which crates are "strict"
//! (panic/float/determinism/dead rules), the cross-file tables, and the
//! per-crate unsafe-surface checks (`unsafe::missing-forbid` /
//! `unsafe::missing-deny`).

use crate::allow;
use crate::diag::Diagnostic;
use crate::lexer::{self, TokenKind};
use crate::regions;
use crate::rules::dead::{self, RefTable};
use crate::rules::{self, RuleCtx};
use crate::stmt;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Crates whose `src/` is result-producing inference code: the strict
/// rule families apply there.
const STRICT_CRATES: &[&str] = &[
    "crates/core",
    "crates/data",
    "crates/features",
    "crates/imgproc",
    "crates/nn",
    "crates/serve",
];

/// Top-level directories the workspace walk covers.
const WALK_ROOTS: &[&str] = &["src", "tests", "examples", "crates", "vendor"];

/// Directories read for references only, never linted: the frozen
/// benchmark package calls library functions by name, and those calls
/// are shipping callers for `dead::unreached-pub`.
const REFERENCE_ROOTS: &[&str] = &["perfbench/src"];

/// Directory names never descended into. `fixtures` holds the lint's
/// own corpus of deliberately-bad snippets.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];

/// Lint one source string the way the engine would lint that file on
/// disk (minus crate-level checks). Public so the fixture tests drive
/// exactly the production path. Like the engine, the file's own
/// `Result`-returning functions feed `err::swallowed-result`; a full
/// workspace run unions the tables of every file first
/// ([`lint_source_with`]). A lone file cannot see its callers, so
/// `dead::unreached-pub` does not run here.
pub fn lint_source(file: &str, src: &str, strict: bool, all_test: bool) -> Vec<Diagnostic> {
    let out = lexer::lex(src);
    let result_fns: BTreeSet<String> = stmt::result_fns(&out.tokens).into_iter().collect();
    lint_lexed(file, &out, strict, all_test, &result_fns, None)
}

/// [`lint_source`] with externally-collected tables (engine pass 1 over
/// the whole workspace): the `Result`-returning function names and the
/// identifier references, which turn on `dead::unreached-pub`.
pub fn lint_source_with(
    file: &str,
    src: &str,
    strict: bool,
    all_test: bool,
    result_fns: &BTreeSet<String>,
    refs: &RefTable,
) -> Vec<Diagnostic> {
    lint_lexed(file, &lexer::lex(src), strict, all_test, result_fns, Some(refs))
}

fn lint_lexed(
    file: &str,
    out: &lexer::LexOut,
    strict: bool,
    all_test: bool,
    result_fns: &BTreeSet<String>,
    refs: Option<&RefTable>,
) -> Vec<Diagnostic> {
    let mask = regions::test_mask(&out.tokens);
    let ctx = RuleCtx {
        file,
        tokens: &out.tokens,
        test_mask: &mask,
        comments: &out.comments,
        strict,
        all_test,
        result_fns,
        refs,
    };
    let mut diags = Vec::new();
    rules::run_file(&ctx, &mut diags);
    let first_code_line = first_code_line(&out.tokens);
    let allows = allow::collect(&out.comments, &out.tokens, first_code_line, file, &mut diags);
    allow::filter(diags, &allows)
}

/// Line of the first token that is not part of an inner attribute
/// (`#![…]`): the boundary of the file header for file-wide allows.
fn first_code_line(tokens: &[lexer::Token]) -> u32 {
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].text == "#" && tokens.get(i + 1).is_some_and(|t| t.text == "!") {
            // Skip the bracketed group.
            let mut depth = 0usize;
            i += 2;
            while i < tokens.len() {
                match tokens[i].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                i += 1;
            }
            continue;
        }
        return tokens[i].line;
    }
    u32::MAX
}

/// Per-crate facts accumulated during the walk.
#[derive(Default)]
struct CrateInfo {
    has_unsafe: bool,
    root_file: Option<String>,
    root_has_forbid_unsafe: bool,
    root_has_deny_unsafe_op: bool,
    root_allows: Vec<allow::Allow>,
}

/// Lint the whole workspace rooted at `root`. Returns diagnostics
/// sorted by (file, line, rule).
///
/// Two passes: pass 1 reads and lexes every file, collecting the
/// workspace-wide tables of `Result`-returning function names and of
/// identifier references, and the per-crate facts; pass 2 runs the
/// rules with those tables in scope, so `err::swallowed-result` knows
/// the project's own fallible functions and `dead::unreached-pub` sees
/// every shipping caller ([`dead::is_shipping_file`]), regardless of
/// file order.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for top in WALK_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let linted = files.len();
    for top in REFERENCE_ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }

    // Pass 1: lex everything once; accumulate the fallible-fn and
    // reference tables and crate-level bookkeeping.
    let mut lexed: Vec<(String, lexer::LexOut, bool, bool)> = Vec::new();
    let mut result_fns: BTreeSet<String> = BTreeSet::new();
    let mut refs = RefTable::new();
    let mut crates: BTreeMap<String, CrateInfo> = BTreeMap::new();
    for (n, path) in files.iter().enumerate() {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        let src = std::fs::read_to_string(path)?;
        let out = lexer::lex(&src);
        dead::record_references(&mut refs, &rel_str, &out.tokens, &regions::test_mask(&out.tokens));
        if n >= linted {
            continue; // a reference root: read, never linted
        }
        let strict = STRICT_CRATES.iter().any(|c| rel_str.starts_with(&format!("{c}/src/")));
        let all_test = rel_str.contains("/tests/")
            || rel_str.contains("/benches/")
            || rel_str.starts_with("tests/")
            || rel_str.starts_with("examples/");
        result_fns.extend(stmt::result_fns(&out.tokens));

        let crate_key = crate_of(&rel_str);
        let info = crates.entry(crate_key.clone()).or_default();
        info.has_unsafe |=
            out.tokens.iter().any(|t| t.kind == TokenKind::Ident && t.text == "unsafe");
        let root_rel = format!("{}src/lib.rs", prefix_of(&crate_key));
        let main_rel = format!("{}src/main.rs", prefix_of(&crate_key));
        if rel_str == root_rel || (rel_str == main_rel && info.root_file.is_none()) {
            info.root_file = Some(rel_str.clone());
            let attrs = inner_attr_text(&out.tokens);
            info.root_has_forbid_unsafe = attrs.contains("forbid(unsafe_code)");
            info.root_has_deny_unsafe_op = attrs.contains("deny(unsafe_op_in_unsafe_fn)")
                || attrs.contains("forbid(unsafe_op_in_unsafe_fn)");
            let first = first_code_line(&out.tokens);
            let mut scratch = Vec::new();
            info.root_allows =
                allow::collect(&out.comments, &out.tokens, first, &rel_str, &mut scratch);
        }
        lexed.push((rel_str, out, strict, all_test));
    }

    // Pass 2: run the rules with the full table in scope.
    let mut diags = Vec::new();
    for (rel_str, out, strict, all_test) in &lexed {
        diags.extend(lint_lexed(rel_str, out, *strict, *all_test, &result_fns, Some(&refs)));
    }

    for (name, info) in &crates {
        let Some(root_file) = &info.root_file else { continue };
        let crate_diag = |rule: &str, msg: String| Diagnostic::new(root_file, 1, rule, msg);
        let d = if !info.has_unsafe && !info.root_has_forbid_unsafe {
            Some(crate_diag(
                "unsafe::missing-forbid",
                format!("crate `{name}` has no unsafe code; pin that with #![forbid(unsafe_code)]"),
            ))
        } else if info.has_unsafe && !info.root_has_deny_unsafe_op {
            Some(crate_diag(
                "unsafe::missing-deny",
                format!(
                    "crate `{name}` contains unsafe; add #![deny(unsafe_op_in_unsafe_fn)] \
                     so every unsafe operation is an explicit block"
                ),
            ))
        } else {
            None
        };
        if let Some(d) = d {
            // Crate-level findings honour file-wide allows in the root.
            let suppressed = info
                .root_allows
                .iter()
                .any(|a| a.file_wide && a.rules.iter().any(|r| allow::covers(r, &d.rule)));
            if !suppressed {
                diags.push(d);
            }
        }
    }

    diags.sort();
    diags.dedup();
    Ok(diags)
}

/// Crate key of a workspace-relative path: `crates/<name>` or
/// `vendor/<name>`; everything else belongs to the root crate.
fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some(top @ ("crates" | "vendor")) => match parts.next() {
            Some(name) => format!("{top}/{name}"),
            None => ".".into(),
        },
        _ => ".".into(),
    }
}

fn prefix_of(crate_key: &str) -> String {
    if crate_key == "." {
        String::new()
    } else {
        format!("{crate_key}/")
    }
}

/// Joined text of all inner attributes (`#![…]`) in a token stream,
/// whitespace-free, for the crate-gate checks.
fn inner_attr_text(tokens: &[lexer::Token]) -> String {
    let mut s = String::new();
    let mut i = 0usize;
    while i + 2 < tokens.len() {
        if tokens[i].text == "#" && tokens[i + 1].text == "!" && tokens[i + 2].text == "[" {
            let mut depth = 0usize;
            i += 2;
            while i < tokens.len() {
                match tokens[i].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => s.push_str(&tokens[i].text),
                }
                i += 1;
            }
            s.push(';');
        }
        i += 1;
    }
    s
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                collect_rs_files(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Find the workspace root: ascend from `start` until a `Cargo.toml`
/// declaring `[workspace]` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
