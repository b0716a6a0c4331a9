//! The rule engine: a shared per-file context and the rule families
//! that run over it.
//!
//! | family | rules | scope |
//! |---|---|---|
//! | `panic` | `unwrap`, `expect`, `panic`, `todo`, `index` | strict library code |
//! | `float` | `partial-cmp`, `eq` | strict library code |
//! | `det` | `hash-iter`, `wall-clock` | strict library code |
//! | `unsafe` | `undocumented`, `missing-forbid`, `missing-deny` | whole workspace |
//! | `atomics` | `undocumented`, `relaxed-handoff` | whole workspace, non-test |
//! | `concurrency` | `naked-atomic` | whole workspace, non-test |
//! | `err` | `swallowed-result` | whole workspace, non-test |
//! | `dead` | `unreached-pub` | strict library code, shipping callers only, workspace runs only |
//!
//! "Strict library code" is the non-test portion of
//! `crates/{core,data,features,imgproc,nn,serve}/src`: the result-producing
//! inference paths where a panic, a NaN-partial comparison or a
//! hash-order dependency is a correctness bug, not a style issue.

pub mod atomics;
pub mod concurrency;
pub mod dead;
pub mod determinism;
pub mod err;
pub mod float;
pub mod panic;
pub mod unsafety;

use crate::diag::Diagnostic;
use crate::lexer::{Comment, Token, TokenKind};
use std::collections::BTreeSet;

/// Everything a rule needs to inspect one file.
pub struct RuleCtx<'a> {
    /// Path label used in diagnostics (workspace-relative).
    pub file: &'a str,
    pub tokens: &'a [Token],
    /// Parallel to `tokens`: inside a `#[cfg(test)]` / `#[test]` item.
    pub test_mask: &'a [bool],
    pub comments: &'a [Comment],
    /// Strict rules (panic/float/det) apply to this file.
    pub strict: bool,
    /// The whole file is test code (under `tests/`, `benches/` or
    /// `examples/`).
    pub all_test: bool,
    /// Names of `Result`-returning functions declared anywhere in the
    /// workspace (engine pass 1); `err::swallowed-result` unions this
    /// with its std built-ins.
    pub result_fns: &'a BTreeSet<String>,
    /// Identifier references across every file the engine reads, each
    /// marked shipping or not (engine pass 1); `None` when a single file
    /// is linted on its own, which cannot see its callers, so
    /// `dead::unreached-pub` is off.
    pub refs: Option<&'a dead::RefTable>,
}

impl RuleCtx<'_> {
    /// Is token `i` exempt from strict (non-test-only) rules?
    pub fn is_test(&self, i: usize) -> bool {
        self.all_test || self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// Is there a comment matching `pred` that justifies a construct on
    /// `line`? Accepted positions: trailing on the same line, or in the
    /// contiguous run of comment/attribute-only lines directly above.
    pub fn has_comment_near(&self, line: u32, pred: impl Fn(&str) -> bool) -> bool {
        if self.comments.iter().any(|c| c.line <= line && line <= c.end_line && pred(&c.text)) {
            return true;
        }
        let mut l = line;
        while l > 1 {
            l -= 1;
            if let Some(c) = self.comments.iter().find(|c| c.line <= l && l <= c.end_line) {
                if pred(&c.text) {
                    return true;
                }
                l = c.line; // jump to the top of a multi-line comment
                continue;
            }
            // Attribute-only lines (`#[…]`) may sit between the comment
            // and the construct; anything else ends the run.
            let line_tokens: Vec<&Token> = self.tokens.iter().filter(|t| t.line == l).collect();
            if line_tokens.is_empty() {
                return false; // blank line breaks adjacency
            }
            if line_tokens[0].text != "#" {
                return false;
            }
        }
        false
    }
}

/// Run every applicable family over one file.
pub fn run_file(ctx: &RuleCtx<'_>, diags: &mut Vec<Diagnostic>) {
    if ctx.strict {
        panic::run(ctx, diags);
        float::run(ctx, diags);
        determinism::run(ctx, diags);
        dead::run(ctx, diags);
    }
    unsafety::run(ctx, diags);
    atomics::run(ctx, diags);
    concurrency::run(ctx, diags);
    err::run(ctx, diags);
}

/// Significant-token helper: the token before `i`, if any.
pub(crate) fn prev(tokens: &[Token], i: usize) -> Option<&Token> {
    i.checked_sub(1).and_then(|j| tokens.get(j))
}

pub(crate) fn is_kind(t: Option<&Token>, kind: TokenKind) -> bool {
    t.is_some_and(|t| t.kind == kind)
}
