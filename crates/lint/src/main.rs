//! CLI: `cargo run -p taor-lint -- --workspace` (the CI gate), or pass
//! explicit `.rs` paths to lint them as strict library code.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workspace = false;
    let mut json = false;
    let mut github = false;
    let mut root: Option<PathBuf> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--github" => github = true,
            "--root" => root = it.next().map(PathBuf::from),
            "--help" | "-h" => {
                print_help();
                return ExitCode::SUCCESS;
            }
            p if !p.starts_with('-') => paths.push(PathBuf::from(p)),
            other => {
                eprintln!("taor-lint: unknown flag `{other}` (see --help)");
                return ExitCode::from(2);
            }
        }
    }
    if !workspace && paths.is_empty() {
        workspace = true; // bare invocation lints the workspace
    }

    let mut diags = Vec::new();
    if workspace {
        let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        let root = root.or_else(|| taor_lint::find_workspace_root(&cwd)).unwrap_or(cwd);
        match taor_lint::lint_workspace(&root) {
            Ok(d) => diags.extend(d),
            Err(e) => {
                eprintln!("taor-lint: failed to walk workspace: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for p in &paths {
        match std::fs::read_to_string(p) {
            Ok(src) => {
                diags.extend(taor_lint::lint_source(&p.to_string_lossy(), &src, true, false));
            }
            Err(e) => {
                eprintln!("taor-lint: cannot read {}: {e}", p.display());
                return ExitCode::from(2);
            }
        }
    }

    for d in &diags {
        if json {
            println!("{}", d.to_json());
        } else if github {
            println!("{}", d.to_github_annotation());
        } else {
            println!("{d}");
        }
    }
    if diags.is_empty() {
        eprintln!("taor-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("taor-lint: {} diagnostic(s)", diags.len());
        ExitCode::FAILURE
    }
}

fn print_help() {
    println!(
        "taor-lint — workspace static analysis for panic-freedom, determinism and unsafe hygiene

USAGE:
    cargo run -p taor-lint -- --workspace          lint the whole workspace (the CI gate)
    cargo run -p taor-lint -- [--root DIR]         override workspace root discovery
    cargo run -p taor-lint -- FILE.rs …            lint files as strict library code

OUTPUT:
    --json      one JSON object per diagnostic (machine consumption)
    --github    GitHub Actions ::error annotations (inline PR comments)

Suppress a finding with a justified allow comment:
    // taor-lint: allow(rule::name) — why this site is sound
Rule families: panic, float, det, unsafe, atomics, concurrency, err, dead
(see DESIGN.md §9)."
    );
}
