//! # taor-lint
//!
//! From-scratch workspace static analysis, run as a CI gate:
//! `cargo run -p taor-lint -- --workspace` exits nonzero on any
//! unallowed diagnostic.
//!
//! PRs 2–4 established three invariants by hand — panic-free `try_*`
//! pipelines with NaN quarantine, byte-identical repro stdout at any
//! thread-pool width, and a small audited `unsafe` surface. This crate
//! checks them mechanically so no later change regresses them
//! silently. It is deliberately dependency-free and built in the
//! repo's reimplement-from-scratch style: a hand-written lexer
//! ([`lexer`]) feeds test-region tracking ([`regions`]), a
//! statement-level parse ([`stmt`]), a rule engine ([`rules`]) and a
//! justification-carrying allow-list ([`allow`]); [`engine`] walks the
//! workspace (two passes, so `err::swallowed-result` sees every crate's
//! `Result`-returning functions and `dead::unreached-pub` every shipping
//! caller) and adds the crate-level unsafe gates.
//!
//! See DESIGN.md §9 for the architecture and how to add a rule.

#![forbid(unsafe_code)]

pub mod allow;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod regions;
pub mod rules;
pub mod stmt;

pub use diag::Diagnostic;
pub use engine::{find_workspace_root, lint_source, lint_source_with, lint_workspace};
pub use rules::dead::RefTable;
