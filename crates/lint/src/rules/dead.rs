//! `dead::*` — shipping crates hold only code that shipping code runs.
//!
//! * `dead::unreached-pub` — a non-test `pub fn` in strict library code
//!   whose name no shipping code mentions as an identifier. A mention is
//!   *shipping* when it sits outside test regions in a file outside
//!   `tests/`, `benches/` and `crates/testkit/` ([`is_shipping_file`]):
//!   the root and every crate's `src/`, `examples/` and `perfbench/src`.
//!   Mentions come from every file the engine reads ([`RefTable`], engine
//!   pass 1), the function's own file included, so a test in another
//!   crate or a `taor-testkit` harness does not keep a function alive. A
//!   name inside a `use` declaration is not a reference, so a `pub use`
//!   re-export alone does not either; strings and comments are not
//!   identifiers. Name-based, like `err::swallowed-result`: a same-named
//!   method anywhere keeps a function alive. Delete the function, move it
//!   to `taor-testkit` or `#[cfg(test)]`, or add a justified allow for
//!   intended API.

use super::RuleCtx;
use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use std::collections::BTreeMap;

/// Identifier references across the files the engine reads: for each
/// name, the files that mention it (outside `use` declarations and `fn`
/// names), each with whether a mention there is shipping.
pub type RefTable = BTreeMap<String, BTreeMap<String, bool>>;

/// Is `file` (workspace-relative, `/`-separated) shipping code? Tests,
/// benches and the dev-only `taor-testkit` crate are not.
pub fn is_shipping_file(file: &str) -> bool {
    !file.starts_with("crates/testkit/")
        && !file.split('/').any(|dir| dir == "tests" || dir == "benches")
}

/// Add one file's references to `table`. `test_mask` is parallel to
/// `tokens` (see [`crate::regions::test_mask`]).
pub fn record_references(table: &mut RefTable, file: &str, tokens: &[Token], test_mask: &[bool]) {
    let shipping_file = is_shipping_file(file);
    let mut in_use = false;
    for (i, t) in tokens.iter().enumerate() {
        if in_use {
            in_use = t.text != ";";
            continue;
        }
        if t.kind != TokenKind::Ident {
            continue;
        }
        if t.text == "use" {
            in_use = true;
            continue;
        }
        if i.checked_sub(1).and_then(|j| tokens.get(j)).is_some_and(|p| p.text == "fn") {
            continue; // a declaration, not a reference
        }
        let shipping = shipping_file && !test_mask.get(i).copied().unwrap_or(false);
        let seen = table.entry(t.text.clone()).or_default().entry(file.to_string()).or_default();
        *seen |= shipping;
    }
}

/// Qualifiers that may sit between `pub` and `fn`.
const FN_QUALIFIERS: &[&str] = &["const", "async", "unsafe"];

pub fn run(ctx: &RuleCtx<'_>, diags: &mut Vec<Diagnostic>) {
    let Some(refs) = ctx.refs else { return };
    let toks = ctx.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "fn" || ctx.is_test(i) {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokenKind::Ident) else {
            continue;
        };
        let mut j = i;
        while j > 0 && FN_QUALIFIERS.contains(&toks[j - 1].text.as_str()) {
            j -= 1;
        }
        if j == 0 || toks[j - 1].text != "pub" {
            continue; // private or `pub(crate)`: rustc's dead-code lint covers it
        }
        let reached = refs.get(&name.text).is_some_and(|files| files.values().any(|&s| s));
        if !reached {
            diags.push(Diagnostic::new(
                ctx.file,
                name.line,
                "dead::unreached-pub",
                format!(
                    "`pub fn {}` has no shipping caller, only tests or taor-testkit name it; \
                     delete it, move it to taor-testkit or #[cfg(test)], or add a justified allow",
                    name.text
                ),
            ));
        }
    }
}
