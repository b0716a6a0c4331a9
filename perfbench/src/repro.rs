//! The reproduction workloads, through the same `taor_bench::repro`
//! generators the `repro` binary calls, at `--medium` scale.
//!
//! * `repro-match`: every table except 4, `index = Mih`, one shared
//!   `PreparedRepro` per pass. Rendering, preprocessing, the histogram /
//!   Hu / hybrid scorers and descriptor extraction and matching do the
//!   work; `taor-nn` does none.
//! * `repro-train`: Table 4 (2,000 training pairs, 12 epochs, batch 16,
//!   then both pair evaluations): batch-16 forward and backward in
//!   `taor-nn`.

use std::time::Instant;

use rayon::prelude::*;
use taor_bench::repro::{
    table1_with, table2_with, table3_ex_with, table4_with, table5_with, table6_with,
    table7or8_with, table9_with,
};
use taor_bench::{PreparedRepro, ReproConfig};
use taor_core::prelude::*;
use taor_data::{
    nyu_set, nyu_sns1_test_pairs, shapenet_set1, shapenet_set2, sns1_test_pairs, Dataset,
};
use taor_features::{
    knn_match_float, orb_detect_and_compute, sift_detect_and_compute, surf_detect_and_compute,
    BinaryDescriptors, FloatDescriptors, MihIndex, MihParams, OrbParams, SiftParams, SurfParams,
};
use taor_imgproc::color::rgb_to_gray;
use taor_imgproc::image::GrayImage;

use crate::calib::Calibration;
use crate::report::{fnv64, lower_quartile, median, Figures};
use crate::trace::{bracketed, breakdown, Breakdown, Tracer};
use crate::{fill_layers, Ctx, RunResult};

/// Dataset seed of every pass: `repro`'s default. The workload seed
/// does not change the datasets, because their cost differs by seed
/// (NYUSet rendering alone by up to a third), and every run must do the
/// same work for runs to be comparable.
pub const REPRO_SEED: u64 = 2019;

/// Set-up samples a run takes at least (extra renders if it has fewer
/// passes than this).
const MIN_SETUP_SAMPLES: usize = 3;

/// Passes a run makes at least, even if they overrun its seconds
/// (`repro-train` passes take 11-16 s on the reference host).
const MIN_PASSES: usize = 2;

/// The Lowe ratios of Table 3's descriptor matching calls per kind (0.5
/// and 0.75), then Table 9's (0.5).
const MATCH_RATIOS: [f32; 3] = [0.5, 0.75, 0.5];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Match,
    Train,
}

impl Kind {
    fn tables(self) -> &'static [usize] {
        match self {
            Kind::Match => &[1, 2, 3, 5, 6, 7, 8, 9],
            Kind::Train => &[4],
        }
    }

    fn label(self) -> &'static str {
        match self {
            Kind::Match => "repro-match",
            Kind::Train => "repro-train",
        }
    }
}

fn config(kind: Kind, seed: u64) -> ReproConfig {
    let mut cfg = ReproConfig::medium(seed);
    if kind == Kind::Match {
        cfg.index = AnnIndexMode::Mih;
    }
    cfg
}

/// The text `repro` prints for table `t`.
fn generate(prep: &PreparedRepro, t: usize) -> Result<String, String> {
    let out = match t {
        1 => table1_with(prep),
        2 => table2_with(prep),
        3 => table3_ex_with(prep, false),
        4 => table4_with(prep, false, false).map_err(|e| e.to_string())?,
        5 => table5_with(prep),
        6 => table6_with(prep),
        7 | 8 => table7or8_with(prep, t),
        9 => table9_with(prep),
        _ => return Err(format!("no table {t}")),
    };
    Ok(out.text)
}

/// The datasets (and, for Table 4, the pair sets) a workload uses: its
/// set-up. Returns the seconds it took.
fn set_up(kind: Kind, prep: &PreparedRepro) -> f64 {
    let t0 = Instant::now();
    let (sns1, sns2, nyu) = (prep.sns1(), prep.sns2(), prep.nyu());
    if kind == Kind::Train {
        let cfg = prep.cfg();
        let n = taor_data::training_pairs(sns2, cfg.siamese.n_train_pairs, cfg.siamese.seed).len()
            + sns1_test_pairs(sns1).len()
            + nyu_sns1_test_pairs(nyu, sns1, cfg.seed).len();
        std::hint::black_box(n);
    }
    t0.elapsed().as_secs_f64()
}

/// One pass: set-up, then every table of the workload.
struct Pass {
    setup_s: f64,
    wall_s: f64,
    texts: Vec<(usize, String)>,
}

fn pass(kind: Kind, seed: u64) -> Result<Pass, String> {
    let t0 = Instant::now();
    let prep = PreparedRepro::new(config(kind, seed));
    let setup_s = set_up(kind, &prep);
    let texts = kind
        .tables()
        .iter()
        .map(|&t| Ok((t, generate(&prep, t)?)))
        .collect::<Result<_, String>>()?;
    Ok(Pass { setup_s, wall_s: t0.elapsed().as_secs_f64(), texts })
}

/// Expected digests: (dataset seed, table) → FNV-1a 64 of the text.
fn expected() -> Vec<(u64, usize, u64)> {
    include_str!("../expected/repro.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            match f.as_slice() {
                [s, t, d] => {
                    Some((s.parse().ok()?, t.parse().ok()?, u64::from_str_radix(d, 16).ok()?))
                }
                _ => None,
            }
        })
        .collect()
}

/// Check a pass's tables against the recorded digests; returns the
/// number of tables that differ (a missing record counts as differing).
fn check(
    seed: u64,
    texts: &[(usize, String)],
    table: &[(u64, usize, u64)],
    notes: &mut Vec<String>,
) -> u64 {
    let mut failed = 0;
    for (t, text) in texts {
        let want = table.iter().find(|(s, tt, _)| *s == seed && tt == t).map(|e| e.2);
        if want != Some(fnv64(text.as_bytes())) {
            failed += 1;
            notes.push(format!("table {t} (dataset seed {seed}) differs from its recorded digest"));
        }
    }
    failed
}

/// The untraced run: passes until the run's seconds are used up, at
/// least [`MIN_PASSES`].
pub fn run(ctx: &Ctx, kind: Kind) -> Result<RunResult, String> {
    let seed = REPRO_SEED;
    let table = expected();
    let mut notes = vec![format!("{}: dataset seed {seed}", kind.label())];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setups, mut walls, mut waits) = (Vec::new(), Vec::new(), Vec::new());
    let mut cal = Calibration::default();
    let start = Instant::now();
    cal.sample(3);
    loop {
        let p = pass(kind, seed)?;
        cal.sample(3);
        attempted += p.texts.len() as u64;
        failed += check(seed, &p.texts, &table, &mut notes);
        setups.push(p.setup_s);
        walls.push(p.wall_s);
        waits.push(p.wall_s - p.setup_s);
        if walls.len() >= MIN_PASSES && start.elapsed().as_secs_f64() + p.wall_s > ctx.seconds {
            break;
        }
    }
    while setups.len() < MIN_SETUP_SAMPLES {
        setups.push(set_up(kind, &PreparedRepro::new(config(kind, seed))));
    }
    let mut figs = Figures::default();
    let waits_ms: Vec<f64> = waits.iter().map(|w| w * 1e3).collect();
    for (name, unit, samples) in
        [("setup_s", "s", &setups), ("wall_s", "s", &walls), ("lat_p50_ms", "ms", &waits_ms)]
    {
        let (raw, n) = (lower_quartile(samples), samples.len() as u64);
        figs.set(name, cal.scale(raw), unit, n);
        figs.set(&format!("{name}.raw"), raw, unit, n);
        figs.set(&format!("{name}.raw_median"), median(samples), unit, n);
    }
    figs.set("peak_rss_mb", crate::serve::vm_hwm_mb("/proc/self/status"), "MiB", 1);
    figs.set("calib.kernel_ms", cal.kernel_s() * 1e3, "ms", cal.samples());
    figs.set(
        "error_rate",
        if attempted == 0 { 0.0 } else { failed as f64 / attempted as f64 },
        "ratio",
        attempted,
    );
    notes.push(
        "setup_s, wall_s (one pass) and lat_p50_ms (a pass's wait from rendered data to its \
         last table): lower quartile of the samples (.raw; .raw_median the median), scaled \
         by the calibration kernel to the reference host's speed"
            .into(),
    );
    notes.push(format!("tables: {attempted} generated, {failed} differ from the recorded digests"));
    Ok(RunResult { figs, attempted, failed, notes, spans: None })
}

/// The traced run: one pass through the generators (checked against the
/// digests), then a replay that calls the same layer functions the
/// generators call, traced (one span per call) between two untraced runs,
/// then for `repro-match` the probes of the work inside Table 3's calls
/// ([`probe_features`]).
pub fn run_traced(kind: Kind) -> Result<RunResult, String> {
    let seed = REPRO_SEED;
    let mut notes = Vec::new();
    let p = pass(kind, seed)?;
    let failed = check(seed, &p.texts, &expected(), &mut notes);
    let cfg = config(kind, seed);
    let mut figs = Figures::default();
    let (mut tr, untraced_s) = bracketed(|tr| match kind {
        Kind::Match => replay_match(tr, &cfg, &mut figs),
        Kind::Train => replay_train(tr, &cfg, &mut figs),
    })?;
    let mut probes = Tracer::new(true);
    if kind == Kind::Match {
        let (sns1, sns2) = (shapenet_set1(cfg.seed), shapenet_set2(cfg.seed));
        for (name, req, layer, ns) in probe_features(&mut probes, [&sns1, &sns2]) {
            if !tr.credit(&name, req, layer, ns) {
                return Err(format!("no span {name} #{req} in the traced replay"));
            }
        }
    }
    fill_layers(&mut figs, &breakdown(&tr, &probes), untraced_s);
    let attempted = p.texts.len() as u64;
    Ok(RunResult { figs, attempted, failed, notes, spans: Some((tr, probes)) })
}

/// Render the three datasets, one span each.
fn render(tr: &mut Tracer, cfg: &ReproConfig, figs: &mut Figures) -> (Dataset, Dataset, Dataset) {
    let seed = cfg.seed;
    let sns1 = tr.span("data.render.sns1", 0, |_| shapenet_set1(seed));
    let sns2 = tr.span("data.render.sns2", 0, |_| shapenet_set2(seed));
    let nyu = tr.span("data.render.nyu", 0, |_| nyu_set(seed));
    figs.set("data.render.images", (sns1.len() + sns2.len() + nyu.len()) as f64, "count", 1);
    (sns1, sns2, nyu)
}

/// The calls of tables 1–3 and 5–9, in the generators' order.
fn replay_match(tr: &mut Tracer, cfg: &ReproConfig, figs: &mut Figures) -> Result<(), String> {
    let diag = Diagnostics::new();
    let hybrid = HybridConfig { alpha: cfg.alpha, beta: cfg.beta, ..Default::default() };
    let mut pairs = 0usize;
    tr.span("bench.pass", 0, |tr| -> Result<_, String> {
        let (sns1, sns2, nyu) = render(tr, cfg, figs);
        let refs1 =
            tr.span("core.prepare_views.sns1", 0, |_| prepare_views(&sns1, Background::White));
        let refs2 =
            tr.span("core.prepare_views.sns2", 0, |_| prepare_views(&sns2, Background::White));
        let qnyu = tr.span("core.prepare_views.nyu", 0, |_| prepare_views(&nyu, Background::Black));
        let mut per_view = |tr: &mut Tracer, q: &[RefView], r: &[RefView], s: &dyn MatchScorer| {
            pairs += q.len() * r.len();
            tr.span("core.classify_per_view", 0, |_| try_classify_per_view(q, r, s, &diag))
                .map(|_| ())
                .map_err(|e| e.to_string())
        };
        let hybrid_all = |tr: &mut Tracer, q: &[RefView], r: &[RefView]| -> Result<(), String> {
            for agg in Aggregation::ALL {
                tr.span("core.classify_hybrid", 0, |_| {
                    try_classify_hybrid(q, r, &hybrid, agg, &diag)
                })
                .map_err(|e| e.to_string())?;
            }
            Ok(())
        };
        // Table 2: every exploratory row, NYU v SNS1 and SNS1 v SNS2.
        for (q, r) in [(&qnyu, &refs1), (&refs1, &refs2)] {
            for s in ShapeScorer::ALL {
                per_view(tr, q, r, &s)?;
            }
            for s in ColorScorer::ALL {
                per_view(tr, q, r, &s)?;
            }
            hybrid_all(tr, q, r)?;
        }
        // Tables 3 and 9: extraction once per set and kind (request id
        // 0 for SNS1, 1 for SNS2), then matching at each of
        // [`MATCH_RATIOS`] (request id = position).
        for kind in DescriptorKind::ALL {
            let label = kind.label().to_ascii_lowercase();
            let name = format!("core.extract_index.{label}");
            let q = tr.span(&name, 0, |_| extract_index(&sns1, kind));
            let r = tr.span(&name, 1, |_| extract_index(&sns2, kind));
            let rows = (q.total_descriptors() + r.total_descriptors()) as f64;
            figs.set(&format!("core.extract_index.rows.{label}"), rows, "count", 2);
            for (call, &ratio) in MATCH_RATIOS.iter().enumerate() {
                tr.span(&format!("core.classify_descriptors.{label}"), call as u64, |_| {
                    try_classify_descriptors_with(&q, &r, ratio, &diag, cfg.index)
                })
                .map_err(|e| e.to_string())?;
            }
        }
        // Tables 5 and 6: shape and colour scorers, NYU v SNS1.
        for s in ShapeScorer::ALL {
            per_view(tr, &qnyu, &refs1, &s)?;
        }
        for s in ColorScorer::ALL {
            per_view(tr, &qnyu, &refs1, &s)?;
        }
        // Tables 7 and 8: hybrid, NYU v SNS1 and SNS2 v SNS1.
        hybrid_all(tr, &qnyu, &refs1)?;
        hybrid_all(tr, &refs2, &refs1)?;
        Ok(())
    })?;
    let busy = Breakdown::of(tr.spans(), &[]).get("core.classify_per_view").total_s;
    if tr.is_enabled() && busy > 0.0 {
        figs.set("core.pairs_per_s", pairs as f64 / busy, "1/s", pairs as u64);
    }
    Ok(())
}

/// One image's descriptors, as `extract_index` keeps them.
enum Extracted {
    Float(FloatDescriptors),
    Binary(BinaryDescriptors),
}

/// What `extract_index` runs per image after the grey conversion.
fn extract(kind: DescriptorKind, gray: &GrayImage) -> Extracted {
    match kind {
        DescriptorKind::Sift => Extracted::Float(
            sift_detect_and_compute(gray, &SiftParams::default())
                .map_or_else(|_| FloatDescriptors::new(128), |(_, d)| d),
        ),
        DescriptorKind::Surf => Extracted::Float(
            surf_detect_and_compute(gray, &SurfParams::default())
                .map_or_else(|_| FloatDescriptors::new(64), |(_, d)| d),
        ),
        DescriptorKind::Orb => Extracted::Binary(
            orb_detect_and_compute(gray, &OrbParams::default())
                .map_or_else(|_| BinaryDescriptors::new(32), |(_, d)| d),
        ),
    }
}

/// A credit for a span of the traced replay: (span name, request id,
/// layer, ns).
type FeatureCredit = (String, u64, &'static str, u64);

/// Time, outside the traced replay and with the same pool parallelism,
/// the `taor-imgproc` and `taor-features` work inside Table 3's core
/// calls: per set and kind, the grey conversion and the extraction
/// (inside `extract_index`); per kind, the index over the pooled SNS2
/// rows and the 2-NN search of every SNS1 image (inside
/// `try_classify_descriptors_with` under `index = Mih`: MIH for ORB,
/// brute-force kNN for SIFT and SURF). Returns the credits for the
/// replay's `extract_index` and `classify_descriptors` spans.
fn probe_features(probes: &mut Tracer, sets: [&Dataset; 2]) -> Vec<FeatureCredit> {
    let mut credits = Vec::new();
    for kind in DescriptorKind::ALL {
        let label = kind.label().to_ascii_lowercase();
        let extract_span = format!("core.extract_index.{label}");
        let mut per_set = Vec::new();
        for (set, ds) in sets.iter().enumerate() {
            let req = set as u64;
            let (grays, gray_ns) = probes.timed("imgproc.rgb_to_gray", req, |_| {
                ds.images.par_iter().map(|li| rgb_to_gray(&li.image)).collect::<Vec<_>>()
            });
            let (descs, ns) = probes.timed(&format!("features.extract.{label}"), req, |_| {
                grays.par_iter().map(|g| extract(kind, g)).collect::<Vec<_>>()
            });
            credits.push((extract_span.clone(), req, "imgproc", gray_ns));
            credits.push((extract_span.clone(), req, "features", ns));
            per_set.push(descs);
        }
        let (queries, refs) = (&per_set[0], &per_set[1]);
        let ns = probe_matching(probes, &label, queries, refs);
        for call in 0..MATCH_RATIOS.len() as u64 {
            credits.push((format!("core.classify_descriptors.{label}"), call, "features", ns));
        }
    }
    credits
}

/// The index build and per-query search of one kind; returns the span's
/// duration. Per-query spans are timed on the pool threads and recorded
/// afterwards under the `features.match.<kind>` span.
fn probe_matching(probes: &mut Tracer, label: &str, queries: &[Extracted], refs: &[Extracted]) -> u64 {
    let mut float_pool: Option<FloatDescriptors> = None;
    let mut binary_pool: Option<BinaryDescriptors> = None;
    for d in refs {
        match d {
            Extracted::Float(d) => {
                let p = float_pool.get_or_insert_with(|| FloatDescriptors::new(d.width()));
                (0..d.len()).for_each(|i| p.push(d.row(i)));
            }
            Extracted::Binary(d) => {
                let p = binary_pool.get_or_insert_with(|| BinaryDescriptors::new(d.width_bytes()));
                (0..d.len()).for_each(|i| p.push(d.row(i)));
            }
        }
    }
    let timed_queries = |f: &(dyn Fn(&Extracted) -> usize + Sync)| -> Vec<(Instant, Instant)> {
        queries
            .par_iter()
            .map(|q| {
                let t0 = Instant::now();
                std::hint::black_box(f(q));
                (t0, Instant::now())
            })
            .collect()
    };
    probes
        .timed(&format!("features.match.{label}"), 0, |probes| {
            let (name, times) = if let Some(pool) = binary_pool {
                let Ok(ix) = probes.span("features.mih.build", 0, |_| {
                    MihIndex::build(pool, MihParams::default())
                }) else {
                    return;
                };
                let search = |q: &Extracted| match q {
                    Extracted::Binary(q) => ix.knn_match(q).map_or(0, |m| m.len()),
                    Extracted::Float(_) => 0,
                };
                ("features.mih.search", timed_queries(&search))
            } else if let Some(pool) = float_pool {
                let search = |q: &Extracted| match q {
                    Extracted::Float(q) => knn_match_float(q, &pool).map_or(0, |m| m.len()),
                    Extracted::Binary(_) => 0,
                };
                ("features.knn_float", timed_queries(&search))
            } else {
                return;
            };
            for (i, (t0, t1)) in times.into_iter().enumerate() {
                let (start, end) = (probes.ns_at(t0), probes.ns_at(t1));
                probes.record(name, i as u64, start, end);
            }
        })
        .1
}

/// The calls of Table 4: renders, pair sets, training (one child span
/// per epoch, from the progress callback) and both evaluations.
fn replay_train(tr: &mut Tracer, cfg: &ReproConfig, figs: &mut Figures) -> Result<(), String> {
    tr.span("bench.pass", 0, |tr| -> Result<(), String> {
        let (sns1, sns2, nyu) = render(tr, cfg, figs);
        let (train_n, p_sns1, p_nyu) = tr.span("data.pairs", 0, |_| {
            (
                taor_data::training_pairs(&sns2, cfg.siamese.n_train_pairs, cfg.siamese.seed).len(),
                sns1_test_pairs(&sns1),
                nyu_sns1_test_pairs(&nyu, &sns1, cfg.seed),
            )
        });
        let (net, epochs) = tr.span("core.train_siamese", 0, |tr| -> Result<_, String> {
            let mut marks = vec![tr.now_ns()];
            let (net, report) = try_train_siamese(&sns2, &cfg.siamese, |_| marks.push(tr.now_ns()))
                .map_err(|e| e.to_string())?;
            for (e, w) in marks.windows(2).enumerate() {
                tr.record("nn.epoch", e as u64, w[0], w[1]);
            }
            Ok((net, report.epochs.len()))
        })?;
        for pairs in [&p_sns1, &p_nyu] {
            let e = tr.span("core.evaluate_siamese", 0, |_| {
                evaluate_siamese(&net, pairs, &cfg.siamese.net)
            });
            std::hint::black_box(e.accuracy);
        }
        let epoch_s = Breakdown::of(tr.spans(), &[]).get("nn.epoch").total_s;
        if tr.is_enabled() && epoch_s > 0.0 {
            let trained = (train_n * epochs) as f64;
            figs.set("nn.train_pairs_per_s", trained / epoch_s, "1/s", epochs as u64);
        }
        Ok(())
    })
}

/// Record the digests of every table of both workloads.
pub fn record_expected() -> Result<String, String> {
    let mut out = String::from(
        "# Table text digests (FNV-1a 64) at --medium scale: dataset seed, table, digest.\n\
         # Tables 1-3 and 5-9 use index = mih, which prints the same bytes as flat.\n",
    );
    for kind in [Kind::Match, Kind::Train] {
        for (t, text) in pass(kind, REPRO_SEED)?.texts {
            out.push_str(&format!("{REPRO_SEED} {t} {:016x}\n", fnv64(text.as_bytes())));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_has_a_recorded_digest() {
        let recorded = expected();
        for kind in [Kind::Match, Kind::Train] {
            for t in kind.tables() {
                assert!(recorded.iter().any(|(s, rt, _)| *s == REPRO_SEED && rt == t), "table {t}");
            }
        }
    }

    /// A corrupted digest turns a matching table into a failure.
    #[test]
    fn a_corrupted_digest_is_caught() {
        let texts = vec![(1usize, "Table 1".to_string())];
        let good = vec![(2019u64, 1usize, fnv64(b"Table 1"))];
        let mut notes = Vec::new();
        assert_eq!(check(2019, &texts, &good, &mut notes), 0);
        let bad = vec![(2019u64, 1usize, fnv64(b"Table 1") ^ 1)];
        assert_eq!(check(2019, &texts, &bad, &mut notes), 1);
        assert_eq!(check(2020, &texts, &good, &mut notes), 1, "no record is a failure");
    }
}
