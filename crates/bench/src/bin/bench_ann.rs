//! `bench_ann` — race the MIH gallery index against brute force.
//!
//! ```text
//! bench_ann [--seed S] [--models-per-class N] [--yaw N] [--pitch N]
//!           [--queries N] [--k N] [--quick] [--out PATH]
//! ```
//!
//! Renders a `gallery_grid` catalog (default: 10,500 views), signs every
//! view with a 256-bit binary code over a 256-cell gist, builds the MIH
//! index, and reports per-query brute-vs-indexed lookup time plus
//! recall@1/@k. `--out` writes the `taor-bench-ann-perf-v2` JSON record
//! (see `bench_records/`).

use taor_bench::ann::{run_ann_bench, AnnBenchConfig};

struct Args {
    cfg: AnnBenchConfig,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut cfg = AnnBenchConfig::full(2019);
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let num = |flag: &str, it: &mut dyn Iterator<Item = String>| -> Result<usize, String> {
            let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            v.parse().map_err(|_| format!("{flag}: bad value {v}"))
        };
        match arg.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cfg.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--models-per-class" => cfg.models_per_class = num("--models-per-class", &mut it)?,
            "--yaw" => cfg.yaw_steps = num("--yaw", &mut it)?,
            "--pitch" => cfg.pitch_steps = num("--pitch", &mut it)?,
            "--queries" => cfg.queries = num("--queries", &mut it)?,
            "--k" => cfg.k = num("--k", &mut it)?,
            "--quick" => {
                let seed = cfg.seed;
                cfg = AnnBenchConfig::quick(seed);
            }
            "--out" => out = Some(it.next().ok_or("--out needs a path")?),
            "--help" | "-h" => {
                println!(
                    "bench_ann [--seed S] [--models-per-class N] [--yaw N] [--pitch N] \
                     [--queries N] [--k N] [--quick] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args { cfg, out })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "bench_ann: rendering {} gallery views ({} models/class, {}x{} view grid)…",
        args.cfg.gallery_views(),
        args.cfg.models_per_class,
        args.cfg.yaw_steps,
        args.cfg.pitch_steps
    );
    let record = match run_ann_bench(&args.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mode = &record.binary;
    println!(
        "{:>4}: build {:8.1} ms | brute {:9.1} us/q | ann {:8.1} us/q | {:6.1}x | \
         recall@1 {:.4} | recall@{} {:.4}",
        mode.index,
        mode.build_ms,
        mode.brute_us_per_query,
        mode.ann_us_per_query,
        mode.speedup,
        mode.recall_at_1,
        record.k,
        mode.recall_at_k,
    );
    if let Some(path) = args.out {
        let json = match serde_json::to_string_pretty(&record) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: record does not serialise: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
