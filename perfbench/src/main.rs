//! perfbench: the repository's benchmark.
//!
//! ```text
//! perfbench --workload serve|repro-match|repro-train --seed N --seconds S --trace 0|1
//!           --taor-serve PATH [--out-dir DIR] [--rustc VERSION] [--commit ID]
//! perfbench --record-expected serve|repro --taor-serve PATH
//! ```
//!
//! Normally run through `perfbench/run.py`, which builds this package and
//! the release `taor-serve` first. Prints one line per figure (name,
//! value, unit, sample count), notes, a full record line with the host
//! block, and as its last line the result object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics of an untraced run, or the per-layer metrics of a traced one.

mod calib;
mod report;
mod repro;
mod serve;
mod trace;

use report::{metrics_json, object, Figures, END_TO_END, PER_LAYER};
use serde_json::Value;
use trace::{Breakdown, Tracer, LAYERS};

/// What one invocation was asked to do.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub taor_serve: String,
    pub out_dir: String,
    pub rustc: String,
    pub commit: String,
    pub record: Option<String>,
}

/// What a workload run produced.
pub struct RunResult {
    pub figs: Figures,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// A traced run's span trees: the replay and the probes.
    pub spans: Option<(Tracer, Tracer)>,
}

fn parse_args() -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        taor_serve: String::new(),
        out_dir: String::new(),
        rustc: "unknown".into(),
        commit: "unknown".into(),
        record: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => ctx.workload = value()?,
            "--seed" => ctx.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
                if ctx.seconds.is_nan() || ctx.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--taor-serve" => ctx.taor_serve = value()?,
            "--out-dir" => ctx.out_dir = value()?,
            "--rustc" => ctx.rustc = value()?,
            "--commit" => ctx.commit = value()?,
            "--record-expected" => ctx.record = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(ctx)
}

/// Per-layer figures from a traced breakdown. `untraced_s` is the wall
/// time of the same work untraced, for `trace.overhead_pct`.
pub fn fill_layers(figs: &mut Figures, b: &Breakdown, untraced_s: f64) {
    const MEAN_US: [(&str, &str); 13] = [
        ("serve.http.parse_us", "serve.http.parse"),
        ("serve.http.write_us", "serve.http.write"),
        ("serve.recognize_batch_us.b1", "serve.recognize_batch.b1"),
        ("serve.recognize_batch_us.b4", "serve.recognize_batch.b4"),
        ("core.wire.decode_us", "core.wire.decode"),
        ("core.image_to_tensor_us", "core.image_to_tensor"),
        ("core.fallback.recognize_us", "core.fallback.recognize"),
        ("nn.tower_embed_us.b1", "nn.tower_embed.b1"),
        ("nn.tower_embed_us.b4", "nn.tower_embed.b4"),
        ("nn.head_us", "nn.head"),
        ("features.mih.search_us", "features.mih.search"),
        ("features.knn_float_us", "features.knn_float"),
        ("imgproc.resize_us", "imgproc.resize"),
    ];
    for (metric, span) in MEAN_US {
        let s = b.get(span);
        figs.set(metric, s.mean_us(), "us", s.calls);
        figs.set(&format!("{span}.n"), s.calls as f64, "count", 1);
    }
    const TOTAL_S: [(&str, &str); 16] = [
        ("core.prepare_views_s.sns1", "core.prepare_views.sns1"),
        ("core.prepare_views_s.sns2", "core.prepare_views.sns2"),
        ("core.prepare_views_s.nyu", "core.prepare_views.nyu"),
        ("core.classify_per_view_s", "core.classify_per_view"),
        ("core.classify_hybrid_s", "core.classify_hybrid"),
        ("core.extract_index_s.sift", "core.extract_index.sift"),
        ("core.extract_index_s.surf", "core.extract_index.surf"),
        ("core.extract_index_s.orb", "core.extract_index.orb"),
        ("core.classify_descriptors_s.sift", "core.classify_descriptors.sift"),
        ("core.classify_descriptors_s.surf", "core.classify_descriptors.surf"),
        ("core.classify_descriptors_s.orb", "core.classify_descriptors.orb"),
        ("core.train_siamese_s", "core.train_siamese"),
        ("core.evaluate_siamese_s", "core.evaluate_siamese"),
        ("data.render_s.sns1", "data.render.sns1"),
        ("data.render_s.sns2", "data.render.sns2"),
        ("data.render_s.nyu", "data.render.nyu"),
    ];
    for (metric, span) in TOTAL_S {
        let s = b.get(span);
        figs.set(metric, s.total_s, "s", s.calls);
    }
    for span in ["core.classify_per_view", "core.classify_hybrid", "core.evaluate_siamese"] {
        figs.set(&format!("{span}.n"), b.get(span).calls as f64, "count", 1);
    }
    let pairs = b.get("data.pairs");
    figs.set("data.pairs_s", pairs.total_s, "s", pairs.calls);
    let epoch = b.get("nn.epoch");
    let per_epoch = if epoch.calls == 0 { 0.0 } else { epoch.total_s / epoch.calls as f64 };
    figs.set("nn.epoch_s", per_epoch, "s", epoch.calls);
    figs.set("nn.epochs", epoch.calls as f64, "count", 1);
    let mih = b.get("features.mih.build");
    figs.set("features.mih.build_ms", mih.total_s * 1e3, "ms", mih.calls);

    for l in LAYERS {
        figs.set(&format!("layer.{l}_s"), b.layer_self_s.get(l).copied().unwrap_or(0.0), "s", 1);
    }
    figs.set("trace.wall_s", b.wall_s, "s", 1);
    figs.set("trace.unattributed_s", b.unattributed_s, "s", 1);
    figs.set("trace.stage_sum_s", b.stage_sum_s(), "s", 1);
    let overhead =
        if untraced_s > 0.0 { (b.wall_s - untraced_s) / untraced_s * 100.0 } else { 0.0 };
    figs.set("trace.overhead_pct", overhead, "%", 1);
    figs.set("trace.scaled_spans", b.scaled_spans as f64, "count", 1);
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn host_json(ctx: &Ctx) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    object([
        ("cpu_model", Value::Str(cpu_model())),
        ("nproc", Value::UInt(nproc as u64)),
        ("pool_width", Value::UInt(rayon::current_num_threads() as u64)),
        ("build_profile", Value::Str(profile.into())),
        ("rustc", Value::Str(ctx.rustc.clone())),
        ("commit", Value::Str(ctx.commit.clone())),
    ])
}

fn run() -> Result<(), String> {
    let ctx = parse_args()?;
    if let Some(what) = &ctx.record {
        let text = match what.as_str() {
            "serve" => serve::record_expected(&ctx)?,
            "repro" => repro::record_expected()?,
            other => return Err(format!("nothing to record for {other}")),
        };
        print!("{text}");
        return Ok(());
    }
    let needs_server = ctx.workload == "serve";
    if needs_server && ctx.taor_serve.is_empty() {
        return Err("--taor-serve PATH is required for the serve workload".into());
    }
    let mut res = match (ctx.workload.as_str(), ctx.trace) {
        ("serve", false) => serve::run(&ctx)?,
        ("serve", true) => serve::run_traced(&ctx)?,
        ("repro-match", false) => repro::run(&ctx, repro::Kind::Match)?,
        ("repro-match", true) => repro::run_traced(repro::Kind::Match)?,
        ("repro-train", false) => repro::run(&ctx, repro::Kind::Train)?,
        ("repro-train", true) => repro::run_traced(repro::Kind::Train)?,
        (w, _) => {
            return Err(format!("unknown workload {w:?} (serve | repro-match | repro-train)"))
        }
    };
    if ctx.trace {
        res.figs.set("pool.width", rayon::current_num_threads() as f64, "count", 1);
    }
    if let (Some((main, probes)), false) = (&res.spans, ctx.out_dir.is_empty()) {
        let path = format!("{}/trace_{}_{}.jsonl", ctx.out_dir, ctx.workload, ctx.seed);
        let text = main.to_jsonl("main") + &probes.to_jsonl("probe");
        std::fs::create_dir_all(&ctx.out_dir)
            .and_then(|()| std::fs::write(&path, text))
            .map_err(|e| format!("writing {path}: {e}"))?;
        let n = main.spans().len() + probes.spans().len();
        res.notes.push(format!("{n} spans written to {path}"));
    }

    for f in &res.figs.0 {
        println!("{:<36} {:>16.6} {:<6} n={}", f.name, f.value, f.unit, f.n);
    }
    for n in &res.notes {
        println!("# {n}");
    }
    let all: Vec<(&str, &str)> =
        res.figs.0.iter().map(|f| (f.name.as_str(), f.unit.as_str())).collect();
    let error_rate =
        if res.attempted == 0 { 0.0 } else { res.failed as f64 / res.attempted as f64 };
    let record = object([
        ("schema", Value::Str("perfbench-v1".into())),
        ("host", host_json(&ctx)),
        ("workload", Value::Str(ctx.workload.clone())),
        ("seed", Value::UInt(ctx.seed)),
        ("seconds", Value::Float(ctx.seconds)),
        ("trace", Value::Bool(ctx.trace)),
        ("attempted", Value::UInt(res.attempted)),
        ("failed", Value::UInt(res.failed)),
        ("error_rate", Value::Float(error_rate)),
        ("figures", metrics_json(&res.figs, &all, true)),
    ]);
    let names: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    let result = object([
        ("correct", Value::Bool(res.failed == 0 && res.attempted > 0)),
        ("attempted", Value::UInt(res.attempted.max(1))),
        ("failed", Value::UInt(res.failed)),
        ("metrics", metrics_json(&res.figs, names, false)),
    ]);
    for line in [record, result] {
        println!("{}", serde_json::to_string(&line).map_err(|e| e.to_string())?);
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
