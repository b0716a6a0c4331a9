//! Regenerate the paper's tables.
//!
//! ```text
//! repro [--table N] [--quick|--medium|--full] [--seed S] [--sweep]
//!       [--ablate] [--extensions] [--nyu-per-class N] [--json PATH]
//!       [--train-pairs N] [--train-epochs N] [--eval-pairs N]
//!       [--index flat|mih] [--verbose]
//! ```
//!
//! Default is `--quick`: NYU subsampled to 50 crops/class and a reduced
//! Siamese training run — minutes instead of hours, same qualitative
//! findings. `--medium` keeps Table 1 cardinalities for the matching
//! tables with a single-CPU Siamese budget; `--full` additionally uses
//! the paper's full training recipe (hours without a GPU).
//! `--extensions` appends the E1–E3 future-work experiments; `--ablate`
//! adds the RANSAC column to Table 3 and the cosine head to Table 4.
//! `--index` selects the descriptor-gallery index for tables 3 and 9:
//! `flat` (brute force, the default) or `mih` (exact multi-index hashing
//! for ORB; SIFT and SURF stay brute force). Both print the same bytes.

use taor_bench::extensions::{table_e1, table_e2, table_e3};
use taor_bench::repro::{
    table1_with, table2_sweep_with, table2_with, table3_ex_with, table4_with, table5_with,
    table6_with, table7or8_with, table9_with,
};
use taor_bench::{PreparedRepro, ReproConfig};
use taor_core::prelude::AnnIndexMode;

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    Quick,
    Medium,
    Full,
}

struct Args {
    table: Option<usize>,
    mode: Mode,
    seed: u64,
    sweep: bool,
    ablate: bool,
    extensions: bool,
    nyu_per_class: Option<usize>,
    json: Option<String>,
    train_pairs: Option<usize>,
    train_epochs: Option<usize>,
    eval_pairs: Option<usize>,
    index: AnnIndexMode,
    verbose: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        table: None,
        mode: Mode::Quick,
        seed: 2019,
        sweep: false,
        ablate: false,
        extensions: false,
        nyu_per_class: None,
        json: None,
        train_pairs: None,
        train_epochs: None,
        eval_pairs: None,
        index: AnnIndexMode::Flat,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--table" => {
                let v = it.next().ok_or("--table needs a value")?;
                args.table = Some(v.parse().map_err(|_| format!("bad table id: {v}"))?);
            }
            "--quick" => args.mode = Mode::Quick,
            "--medium" => args.mode = Mode::Medium,
            "--full" => args.mode = Mode::Full,
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--sweep" => args.sweep = true,
            "--ablate" => args.ablate = true,
            "--extensions" => args.extensions = true,
            "--nyu-per-class" => {
                let v = it.next().ok_or("--nyu-per-class needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad count: {v}"))?;
                if n == 0 {
                    return Err("--nyu-per-class must be at least 1: tables 2 and 5-8 \
                                evaluate the NYU set"
                        .into());
                }
                args.nyu_per_class = Some(n);
            }
            "--train-pairs" => {
                let v = it.next().ok_or("--train-pairs needs a value")?;
                args.train_pairs = Some(v.parse().map_err(|_| format!("bad count: {v}"))?);
            }
            "--train-epochs" => {
                let v = it.next().ok_or("--train-epochs needs a value")?;
                args.train_epochs = Some(v.parse().map_err(|_| format!("bad count: {v}"))?);
            }
            "--eval-pairs" => {
                let v = it.next().ok_or("--eval-pairs needs a value")?;
                args.eval_pairs = Some(v.parse().map_err(|_| format!("bad count: {v}"))?);
            }
            "--index" => {
                let v = it.next().ok_or("--index needs a value")?;
                args.index = v.parse()?;
            }
            "--json" => args.json = Some(it.next().ok_or("--json needs a path")?),
            "--verbose" | "-v" => args.verbose = true,
            "--help" | "-h" => {
                println!(
                    "repro [--table N] [--quick|--medium|--full] [--seed S] [--sweep] [--ablate] \
                     [--extensions] [--nyu-per-class N] [--json PATH] [--train-pairs N] \
                     [--train-epochs N] [--eval-pairs N] [--index flat|mih] [--verbose]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut cfg = match args.mode {
        Mode::Quick => ReproConfig::quick(args.seed),
        Mode::Medium => ReproConfig::medium(args.seed),
        Mode::Full => ReproConfig::full(args.seed),
    };
    if let Some(n) = args.nyu_per_class {
        cfg.nyu_per_class = Some(n);
    }
    // Table-4 scale overrides (CI and the width-determinism test use
    // these to keep a debug-mode training run tractable).
    if let Some(n) = args.train_pairs {
        cfg.siamese.n_train_pairs = n;
    }
    if let Some(n) = args.train_epochs {
        cfg.siamese.train.max_epochs = n;
    }
    if let Some(n) = args.eval_pairs {
        cfg.max_eval_pairs = Some(n);
    }
    cfg.index = args.index;

    let wanted: Vec<usize> = match args.table {
        Some(t) if (1..=9).contains(&t) => vec![t],
        Some(t) => {
            eprintln!("error: table {t} does not exist (the paper has tables 1-9)");
            std::process::exit(2);
        }
        None => (1..=9).collect(),
    };

    // One shared cache: datasets and preprocessed view sets are built
    // once and reused by every table generated in this run.
    let prep = PreparedRepro::new(cfg);
    let mut records = Vec::new();
    for t in wanted {
        let started = std::time::Instant::now();
        let out = match t {
            1 => table1_with(&prep),
            2 => {
                let mut out = table2_with(&prep);
                if args.sweep {
                    let sweep = table2_sweep_with(&prep);
                    out.text.push('\n');
                    out.text.push_str(&sweep.text);
                }
                out
            }
            3 => table3_ex_with(&prep, args.ablate),
            4 => match table4_with(&prep, args.ablate, args.verbose) {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("error: table 4 failed: {e}");
                    std::process::exit(1);
                }
            },
            5 => table5_with(&prep),
            6 => table6_with(&prep),
            7 => table7or8_with(&prep, 7),
            8 => table7or8_with(&prep, 8),
            9 => table9_with(&prep),
            _ => unreachable!("validated above"),
        };
        let elapsed = started.elapsed();
        println!("{}", out.text);
        if args.verbose {
            eprintln!("[table {t} took {elapsed:.1?}]");
        }
        records.extend(out.records);
    }

    // Degradation counters go to stderr, and only when nonzero, so the
    // table output on stdout stays byte-stable for clean runs.
    let diag = prep.diagnostics();
    if !diag.is_clean() {
        eprintln!(
            "[diagnostics] nan_scores={} degraded={} (see DESIGN.md: NaN quarantine)",
            diag.nan_scores, diag.degraded
        );
    }

    if args.extensions {
        for out in [table_e1(&prep, 12), table_e2(&prep, args.verbose), table_e3(&prep)] {
            println!("{}", out.text);
            records.extend(out.records);
        }
    }

    if let Some(path) = args.json {
        let json = match serde_json::to_string_pretty(&records) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: records do not serialise: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {} records to {path}", records.len());
    }
}
