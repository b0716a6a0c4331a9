//! `unsafe::*` — a small, audited unsafe surface.
//!
//! The workspace's entire unsafe budget lives in two places: the AVX2
//! GEMM loops (`taor-nn`) and the vendored thread pool
//! (`vendor/rayon`). These rules keep that surface audited and prevent
//! it from growing silently:
//!
//! * `unsafe::undocumented` — every `unsafe` block, fn, impl or trait
//!   must be justified: a `// SAFETY:` comment trailing or directly
//!   above it, or (for declarations) a `# Safety` doc section.
//! * `unsafe::missing-forbid` — a crate with zero `unsafe` tokens must
//!   pin that state with `#![forbid(unsafe_code)]` at its root, so new
//!   unsafe cannot appear without a deliberate attribute change.
//! * `unsafe::missing-deny` — a crate that does contain unsafe must
//!   carry `#![deny(unsafe_op_in_unsafe_fn)]`, so every unsafe
//!   operation sits in an explicit (and documentable) `unsafe {}`
//!   block even inside `unsafe fn`s.
//!
//! The crate-level rules run in the engine (they need the whole file
//! set); this module handles the per-site documentation rule.

use super::RuleCtx;
use crate::diag::Diagnostic;
use crate::lexer::TokenKind;

/// Does a comment text justify an unsafe site?
pub fn is_safety_comment(text: &str) -> bool {
    text.contains("SAFETY:") || text.contains("# Safety")
}

pub fn run(ctx: &RuleCtx<'_>, diags: &mut Vec<Diagnostic>) {
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "unsafe" {
            continue;
        }
        let what = match toks.get(i + 1).map(|n| n.text.as_str()) {
            Some("{") => "block",
            Some("fn") => "fn",
            Some("impl") => "impl",
            Some("trait") => "trait",
            // `unsafe` in other positions (e.g. `forbid(unsafe_code)`
            // token text is `unsafe_code`, not `unsafe`) — skip.
            _ => continue,
        };
        if !ctx.has_comment_near(t.line, is_safety_comment) && !next_line_safety(ctx, t.line) {
            diags.push(Diagnostic::new(
                ctx.file,
                t.line,
                "unsafe::undocumented",
                format!("unsafe {what} without a `// SAFETY:` justification"),
            ));
        }
    }
}

/// Multi-line `unsafe {` bodies may open with the justification as
/// their first line; accept a SAFETY comment on the line right after.
fn next_line_safety(ctx: &RuleCtx<'_>, line: u32) -> bool {
    ctx.comments.iter().any(|c| c.line == line + 1 && is_safety_comment(&c.text))
}
