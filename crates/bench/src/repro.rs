//! Table generators for the reproduction harness.
//!
//! Every generator, `tableN_with(&PreparedRepro)`, consumes the shared
//! [`PreparedRepro`] cache so a multi-table run renders and preprocesses
//! each dataset exactly once; a single table builds its own cache with
//! `PreparedRepro::new(cfg)`.

use std::cell::OnceCell;

use taor_core::prelude::*;
use taor_core::siamese::try_evaluate_siamese;
use taor_data::{
    nyu_set, nyu_set_subsampled, nyu_sns1_test_pairs, shapenet_set1, shapenet_set2,
    sns1_test_pairs, Dataset, ObjectClass,
};

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct ReproConfig {
    /// Master seed for all dataset builders and baselines.
    pub seed: u64,
    /// `None` = the full 6,934-crop NYUSet; `Some(n)` = n crops per class.
    pub nyu_per_class: Option<usize>,
    /// Siamese training configuration (quick vs. paper-scale).
    pub siamese: SiameseConfig,
    /// Hybrid weights; the paper reports α = 0.3, β = 0.7.
    pub alpha: f64,
    pub beta: f64,
    /// `Some(n)` truncates each Table-4 evaluation pair set to its first
    /// `n` pairs — a CI/debug affordance (the pair builders are
    /// deterministic, so a truncated run is a stable prefix of the full
    /// one). `None` (the default) evaluates every pair.
    pub max_eval_pairs: Option<usize>,
    /// Gallery index for the descriptor tables (3 and 9): brute force
    /// (`Flat`, the paper's matcher) or exact MIH for the binary kind
    /// (ORB); SIFT and SURF always match brute force. Both modes print
    /// the same bytes at every `TAOR_THREADS` width.
    pub index: AnnIndexMode,
}

impl ReproConfig {
    /// Quick mode: subsampled NYU, reduced Siamese training. Finishes in
    /// minutes on a laptop; preserves every qualitative finding.
    pub fn quick(seed: u64) -> Self {
        ReproConfig {
            seed,
            nyu_per_class: Some(50),
            siamese: SiameseConfig::quick(),
            alpha: 0.3,
            beta: 0.7,
            max_eval_pairs: None,
            index: AnnIndexMode::Flat,
        }
    }

    /// Full mode: Table 1 cardinalities everywhere and the paper's
    /// training recipe (9,450 pairs; ≤ 100 epochs with early stopping).
    pub fn full(seed: u64) -> Self {
        ReproConfig {
            seed,
            nyu_per_class: None,
            siamese: SiameseConfig::default(),
            alpha: 0.3,
            beta: 0.7,
            max_eval_pairs: None,
            index: AnnIndexMode::Flat,
        }
    }

    /// Medium mode: full NYU cardinalities for the matching tables, but a
    /// single-CPU-feasible Siamese budget (2,000 pairs, 12 epochs).
    pub fn medium(seed: u64) -> Self {
        ReproConfig {
            seed,
            nyu_per_class: None,
            siamese: SiameseConfig::medium(),
            alpha: 0.3,
            beta: 0.7,
            max_eval_pairs: None,
            index: AnnIndexMode::Flat,
        }
    }

    pub(crate) fn nyu(&self) -> Dataset {
        match self.nyu_per_class {
            Some(n) => nyu_set_subsampled(self.seed, n),
            None => nyu_set(self.seed),
        }
    }
}

/// One table row: the approach's label and its prediction per query.
type Row = (String, Vec<ObjectClass>);

/// A family of NYU-v-SNS1 rows that Table 2 and one class-wise table both
/// print.
#[derive(Clone, Copy)]
enum Family {
    /// Shape only L1–L3 (Table 5).
    Shape = 0,
    /// The four colour-only metrics (Table 6).
    Color = 1,
    /// The three hybrid aggregations (Table 7).
    Hybrid = 2,
}

/// A family's rows and the ledger their computation recorded.
struct FamilyRows {
    rows: Vec<Row>,
    diag: Diagnostics,
}

/// One-shot cache of the datasets, preprocessed view sets, descriptor
/// indices and NYU-v-SNS1 predictions the table generators share.
///
/// The original harness rebuilt everything per table: tables 2, 5, 6, 7
/// and 8 each re-rendered ShapeNetSet1 and re-ran [`prepare_views`] from
/// scratch, tables 3 and 9 both re-extracted every descriptor index, and
/// tables 5, 6 and 7 re-scored the NYU-v-SNS1 rows that Table 2 prints.
/// All of those builders are deterministic functions of `cfg.seed`, so
/// computing each artefact once and sharing it is behaviour-preserving.
/// Every field is lazy: `repro --table 1` still pays only for the
/// datasets it actually touches, and `repro --table 5` scores only the
/// shape rows.
pub struct PreparedRepro {
    cfg: ReproConfig,
    diag: Diagnostics,
    sns1: OnceCell<Dataset>,
    sns2: OnceCell<Dataset>,
    nyu: OnceCell<Dataset>,
    refs_sns1: OnceCell<Vec<RefView>>,
    refs_sns2: OnceCell<Vec<RefView>>,
    q_nyu: OnceCell<Vec<RefView>>,
    desc_sns1: OnceCell<Vec<DescriptorIndex>>,
    desc_sns2: OnceCell<Vec<DescriptorIndex>>,
    nyu_rows: [OnceCell<FamilyRows>; 3],
}

impl PreparedRepro {
    pub fn new(cfg: ReproConfig) -> Self {
        PreparedRepro {
            cfg,
            diag: Diagnostics::new(),
            sns1: OnceCell::new(),
            sns2: OnceCell::new(),
            nyu: OnceCell::new(),
            refs_sns1: OnceCell::new(),
            refs_sns2: OnceCell::new(),
            q_nyu: OnceCell::new(),
            desc_sns1: OnceCell::new(),
            desc_sns2: OnceCell::new(),
            nyu_rows: Default::default(),
        }
    }

    pub fn cfg(&self) -> &ReproConfig {
        &self.cfg
    }

    /// The run-wide degradation counters accumulated by every table that
    /// went through this cache.
    pub fn diagnostics(&self) -> DiagnosticsReport {
        self.diag.report()
    }

    /// Shared counters for the fallible pipeline entry points.
    pub fn diag(&self) -> &Diagnostics {
        &self.diag
    }

    pub fn sns1(&self) -> &Dataset {
        self.sns1.get_or_init(|| shapenet_set1(self.cfg.seed))
    }

    pub fn sns2(&self) -> &Dataset {
        self.sns2.get_or_init(|| shapenet_set2(self.cfg.seed))
    }

    pub fn nyu(&self) -> &Dataset {
        self.nyu.get_or_init(|| self.cfg.nyu())
    }

    /// ShapeNetSet1 preprocessed on its white catalog background. Serves
    /// both as the reference set of tables 2/5/6/7/8 and as the query set
    /// of the SNS1-v-SNS2 column (`prepare_views` is deterministic, so
    /// sharing one copy is exact).
    pub fn refs_sns1(&self) -> &[RefView] {
        self.refs_sns1.get_or_init(|| prepare_views(self.sns1(), Background::White))
    }

    /// ShapeNetSet2 preprocessed on white (reference of the SNS1-v-SNS2
    /// column, queries of Table 8).
    pub fn refs_sns2(&self) -> &[RefView] {
        self.refs_sns2.get_or_init(|| prepare_views(self.sns2(), Background::White))
    }

    /// NYU crops preprocessed on their black segmentation background.
    pub fn q_nyu(&self) -> &[RefView] {
        self.q_nyu.get_or_init(|| prepare_views(self.nyu(), Background::Black))
    }

    /// SNS1 descriptor indices, aligned with [`DescriptorKind::ALL`].
    pub fn descriptors_sns1(&self) -> &[DescriptorIndex] {
        self.desc_sns1.get_or_init(|| {
            DescriptorKind::ALL.iter().map(|&k| extract_index(self.sns1(), k)).collect()
        })
    }

    /// SNS2 descriptor indices, aligned with [`DescriptorKind::ALL`].
    pub fn descriptors_sns2(&self) -> &[DescriptorIndex] {
        self.desc_sns2.get_or_init(|| {
            DescriptorKind::ALL.iter().map(|&k| extract_index(self.sns2(), k)).collect()
        })
    }

    /// One family of NYU-v-SNS1 rows, scored on first use. Every read
    /// merges the ledger of that scoring into the run's, so each table
    /// that prints the rows counts them as if it had scored them itself.
    fn nyu_rows(&self, family: Family) -> &[Row] {
        let cached = self.nyu_rows[family as usize].get_or_init(|| {
            let diag = Diagnostics::new();
            let (queries, views) = (self.q_nyu(), self.refs_sns1());
            let rows = match family {
                Family::Shape => shape_rows(queries, views, &diag),
                Family::Color => color_rows(queries, views, &diag),
                Family::Hybrid => hybrid_rows(&self.cfg, queries, views, &diag),
            };
            FamilyRows { rows, diag }
        });
        self.diag.merge(&cached.diag);
        &cached.rows
    }
}

/// One generated table: rendered text plus machine-readable records.
#[derive(Debug, Clone)]
pub struct TableOutput {
    pub table: usize,
    pub text: String,
    pub records: Vec<ExperimentRecord>,
}

/// Score through the fallible per-view entry point so NaN quarantine and
/// degradation events land in the run-wide [`Diagnostics`]. An empty
/// reference set is still fatal here — a table with no references is a
/// harness configuration error, not an input fault to degrade around.
fn per_view(
    queries: &[RefView],
    views: &[RefView],
    scorer: &dyn MatchScorer,
    diag: &Diagnostics,
) -> Vec<ObjectClass> {
    match try_classify_per_view(queries, views, scorer, diag) {
        Ok(preds) => preds,
        Err(e) => panic!("{e}"),
    }
}

/// Hybrid counterpart of [`per_view`].
pub(crate) fn hybrid_preds(
    queries: &[RefView],
    views: &[RefView],
    cfg: &HybridConfig,
    agg: Aggregation,
    diag: &Diagnostics,
) -> Vec<ObjectClass> {
    match try_classify_hybrid(queries, views, cfg, agg, diag) {
        Ok(preds) => preds,
        Err(e) => panic!("{e}"),
    }
}

/// Descriptor counterpart of [`per_view`].
fn descriptor_preds(
    queries: &DescriptorIndex,
    reference: &DescriptorIndex,
    ratio: f32,
    diag: &Diagnostics,
    index: AnnIndexMode,
) -> Vec<ObjectClass> {
    match try_classify_descriptors_with(queries, reference, ratio, diag, index) {
        Ok(preds) => preds,
        Err(e) => panic!("{e}"),
    }
}

/// RANSAC-verified descriptor classification with the default geometry
/// parameters (the Table 3 ablation column). Its degradation counts stay
/// out of the run-wide ledger.
fn verified_preds(queries: &DescriptorIndex, reference: &DescriptorIndex) -> Vec<ObjectClass> {
    let ransac = taor_features::RansacParams::default();
    let diag = Diagnostics::new();
    match try_classify_descriptors_verified(queries, reference, 0.75, &ransac, &diag) {
        Ok(preds) => preds,
        Err(e) => panic!("{e}"),
    }
}

/// The shape-only rows L1–L3.
fn shape_rows(queries: &[RefView], views: &[RefView], diag: &Diagnostics) -> Vec<Row> {
    ShapeScorer::ALL.iter().map(|s| (s.name(), per_view(queries, views, s, diag))).collect()
}

/// The four colour-only rows.
fn color_rows(queries: &[RefView], views: &[RefView], diag: &Diagnostics) -> Vec<Row> {
    ColorScorer::ALL.iter().map(|s| (s.name(), per_view(queries, views, s, diag))).collect()
}

/// The three hybrid rows, in [`Aggregation::ALL`] order, from one θ sweep.
fn hybrid_rows(
    cfg: &ReproConfig,
    queries: &[RefView],
    views: &[RefView],
    diag: &Diagnostics,
) -> Vec<Row> {
    let hybrid = HybridConfig { alpha: cfg.alpha, beta: cfg.beta, ..Default::default() };
    let preds = match try_classify_hybrid_all(queries, views, &hybrid, diag) {
        Ok(preds) => preds,
        Err(e) => panic!("{e}"),
    };
    Aggregation::ALL.iter().map(|agg| agg.label().to_string()).zip(preds).collect()
}

/// The Baseline row: a seeded random guess per query.
fn baseline_row(cfg: &ReproConfig, queries: &[RefView]) -> Row {
    ("Baseline".to_string(), random_baseline(&truth_of(queries), cfg.seed ^ 0xBA5E))
}

/// Table 1: dataset statistics.
pub fn table1_with(prep: &PreparedRepro) -> TableOutput {
    let sns1 = prep.sns1();
    let sns2 = prep.sns2();
    let nyu = prep.nyu();
    let mut t = TextTable::new(
        "Table 1: Dataset statistics.",
        &["Object", "ShapeNetSet1", "ShapeNetSet2", "NYUSet"],
    );
    let c1 = sns1.class_counts();
    let c2 = sns2.class_counts();
    let cn = nyu.class_counts();
    for class in ObjectClass::ALL {
        let i = class.index();
        t.row(vec![
            class.name().to_string(),
            c1[i].to_string(),
            c2[i].to_string(),
            cn[i].to_string(),
        ]);
    }
    t.row(vec![
        "Total".to_string(),
        sns1.len().to_string(),
        sns2.len().to_string(),
        nyu.len().to_string(),
    ]);
    TableOutput { table: 1, text: t.render(), records: Vec::new() }
}

/// Table 2: cumulative accuracies for every exploratory configuration.
pub fn table2_with(prep: &PreparedRepro) -> TableOutput {
    let cfg = prep.cfg();
    let refs_sns1 = prep.refs_sns1();
    let refs_sns2 = prep.refs_sns2();
    let q_nyu = prep.q_nyu();
    // The SNS1-v-SNS2 queries are exactly the cached SNS1 reference
    // views: same dataset, same white background.
    let q_sns1 = refs_sns1;

    let mut nyu_rows = vec![baseline_row(cfg, q_nyu)];
    for family in [Family::Shape, Family::Color, Family::Hybrid] {
        nyu_rows.extend_from_slice(prep.nyu_rows(family));
    }
    let diag = prep.diag();
    let mut sns_rows = vec![baseline_row(cfg, q_sns1)];
    sns_rows.extend(shape_rows(q_sns1, refs_sns2, diag));
    sns_rows.extend(color_rows(q_sns1, refs_sns2, diag));
    sns_rows.extend(hybrid_rows(cfg, q_sns1, refs_sns2, diag));
    let t_nyu = truth_of(q_nyu);
    let t_sns = truth_of(q_sns1);

    let mut t = TextTable::new(
        "Table 2: Cumulative (cross-class) accuracy, exploratory trials.",
        &["Approach", "NYU v. SNS1", "SNS1 v. SNS2"],
    );
    let mut records = Vec::new();
    for ((label, p_nyu), (_, p_sns)) in nyu_rows.into_iter().zip(sns_rows) {
        let e_nyu = evaluate(&t_nyu, &p_nyu);
        let e_sns = evaluate(&t_sns, &p_sns);
        t.row(vec![
            label.clone(),
            fmt_f(e_nyu.cumulative_accuracy, 5),
            fmt_f(e_sns.cumulative_accuracy, 2),
        ]);
        records.push(ExperimentRecord {
            table: 2,
            approach: label.clone(),
            dataset: "NYU v. SNS1".into(),
            cumulative_accuracy: Some(e_nyu.cumulative_accuracy),
            evaluation: Some(e_nyu),
            binary: None,
        });
        records.push(ExperimentRecord {
            table: 2,
            approach: label,
            dataset: "SNS1 v. SNS2".into(),
            cumulative_accuracy: Some(e_sns.cumulative_accuracy),
            evaluation: Some(e_sns),
            binary: None,
        });
    }
    TableOutput { table: 2, text: t.render(), records }
}

/// Hybrid α/β sweep (the ablation the paper motivates by trying (1,1) and
/// then (0.3, 0.7)).
pub fn table2_sweep_with(prep: &PreparedRepro) -> TableOutput {
    let refs = prep.refs_sns2();
    let queries = prep.refs_sns1();
    let truth = truth_of(queries);

    let weights: [(f64, f64); 7] =
        [(1.0, 0.0), (0.7, 0.3), (0.5, 0.5), (0.3, 0.7), (0.1, 0.9), (0.0, 1.0), (1.0, 1.0)];
    let mut t = TextTable::new(
        "Table 2 sweep: hybrid weighted-sum accuracy vs (alpha, beta), SNS1 v. SNS2.",
        &["alpha", "beta", "Accuracy"],
    );
    for &(a, b) in &weights {
        let hybrid = HybridConfig { alpha: a, beta: b, ..Default::default() };
        let preds = hybrid_preds(queries, refs, &hybrid, Aggregation::WeightedSum, prep.diag());
        let e = evaluate(&truth, &preds);
        t.row(vec![format!("{a:.1}"), format!("{b:.1}"), fmt_f(e.cumulative_accuracy, 3)]);
    }
    TableOutput { table: 2, text: t.render(), records: Vec::new() }
}

/// Table 3: descriptor-matching cumulative accuracies (SNS1 v SNS2), at
/// both ratio thresholds the paper tried. With `ablate`, adds a column
/// for RANSAC-verified matching (Lowe's full pipeline, which the paper
/// stopped short of).
pub fn table3_ex_with(prep: &PreparedRepro, ablate: bool) -> TableOutput {
    let cfg = prep.cfg();
    let sns1 = prep.sns1();
    let mut headers = vec!["Approach", "Accuracy (ratio 0.5)", "Accuracy (ratio 0.75)"];
    if ablate {
        headers.push("RANSAC-verified (0.75)");
    }
    let mut t = TextTable::new(
        "Table 3: Cumulative accuracies, descriptor matching (SNS1 v. SNS2).",
        &headers,
    );
    let truth: Vec<ObjectClass> = sns1.images.iter().map(|i| i.class).collect();
    let mut records = Vec::new();
    let mut baseline_row = vec![
        "Baseline".to_string(),
        fmt_f(evaluate(&truth, &random_baseline(&truth, cfg.seed ^ 0xBA5E)).cumulative_accuracy, 2),
        String::new(),
    ];
    if ablate {
        baseline_row.push(String::new());
    }
    t.row(baseline_row);
    for (kind, (q, r)) in
        DescriptorKind::ALL.iter().zip(prep.descriptors_sns1().iter().zip(prep.descriptors_sns2()))
    {
        let acc_of = |ratio: f32| {
            let preds = descriptor_preds(q, r, ratio, prep.diag(), prep.cfg().index);
            evaluate(&truth, &preds)
        };
        let e05 = acc_of(0.5);
        let e075 = acc_of(0.75);
        let mut row = vec![
            kind.label().to_string(),
            fmt_f(e05.cumulative_accuracy, 2),
            fmt_f(e075.cumulative_accuracy, 2),
        ];
        if ablate {
            let preds = verified_preds(q, r);
            row.push(fmt_f(evaluate(&truth, &preds).cumulative_accuracy, 2));
        }
        t.row(row);
        records.push(ExperimentRecord {
            table: 3,
            approach: kind.label().to_string(),
            dataset: "SNS1 v. SNS2".into(),
            cumulative_accuracy: Some(e05.cumulative_accuracy),
            evaluation: Some(e05),
            binary: None,
        });
    }
    TableOutput { table: 3, text: t.render(), records }
}

/// Table 4: Normalized-X-Corr binary evaluation on both pair test sets.
/// With `ablate`, also reports the cosine "exact matching" baseline.
///
/// Fallible: an input resolution too small for the architecture, an
/// empty training set or an empty evaluation set is a typed
/// [`taor_core::Error`] instead of a panic.
pub fn table4_with(
    prep: &PreparedRepro,
    ablate: bool,
    verbose: bool,
) -> Result<TableOutput, taor_core::Error> {
    let cfg = prep.cfg();
    let sns1 = prep.sns1();
    let sns2 = prep.sns2();
    let nyu = prep.nyu();

    let (net, report) = taor_core::try_train_siamese(sns2, &cfg.siamese, |s| {
        if verbose {
            eprintln!(
                "  epoch {:>3}  loss {:.5}  train-acc {:.3}",
                s.epoch, s.mean_loss, s.accuracy
            );
        }
    })?;
    let trained_epochs = report.epochs.len();

    let mut pairs_sns1 = sns1_test_pairs(sns1);
    let mut pairs_nyu = nyu_sns1_test_pairs(nyu, sns1, cfg.seed);
    if let Some(n) = cfg.max_eval_pairs {
        pairs_sns1.truncate(n);
        pairs_nyu.truncate(n);
    }

    let eval_sns1 = try_evaluate_siamese(&net, &pairs_sns1, &cfg.siamese.net)?;
    let eval_nyu = try_evaluate_siamese(&net, &pairs_nyu, &cfg.siamese.net)?;

    let mut t = TextTable::new(
        format!(
            "Table 4: Normalized-X-Corr evaluation (trained {} epochs, early-stop={}).",
            trained_epochs, report.early_stopped
        ),
        &["Dataset", "Measure", "Similar", "Dissimilar"],
    );
    let push_block = |t: &mut TextTable, name: &str, e: &BinaryEvaluation| {
        t.row(vec![
            name.into(),
            "Precision".into(),
            fmt_f(e.similar.precision, 2),
            fmt_f(e.dissimilar.precision, 2),
        ]);
        t.row(vec![
            String::new(),
            "Recall".into(),
            fmt_f(e.similar.recall, 2),
            fmt_f(e.dissimilar.recall, 2),
        ]);
        t.row(vec![
            String::new(),
            "F1-score".into(),
            fmt_f(e.similar.f1, 2),
            fmt_f(e.dissimilar.f1, 2),
        ]);
        t.row(vec![
            String::new(),
            "Support".into(),
            e.similar.support.to_string(),
            e.dissimilar.support.to_string(),
        ]);
    };
    push_block(&mut t, "ShapeNetSet1 pairs", &eval_sns1);
    push_block(&mut t, "NYU+ShapeNetSet1 pairs", &eval_nyu);

    let mut text = t.render();
    let mut records = vec![
        ExperimentRecord {
            table: 4,
            approach: "Normalized-X-Corr".into(),
            dataset: "ShapeNetSet1 pairs".into(),
            cumulative_accuracy: Some(eval_sns1.accuracy),
            evaluation: None,
            binary: Some(eval_sns1),
        },
        ExperimentRecord {
            table: 4,
            approach: "Normalized-X-Corr".into(),
            dataset: "NYU+ShapeNetSet1 pairs".into(),
            cumulative_accuracy: Some(eval_nyu.accuracy),
            evaluation: None,
            binary: Some(eval_nyu),
        },
    ];

    if ablate {
        // Cosine exact-matching baseline trained on the same pairs.
        let train_pairs = taor_data::training_pairs(sns2, cfg.siamese.n_train_pairs, cfg.seed);
        let cosine = CosineSiamese::try_fit(&train_pairs, 6)?;
        let mut t2 = TextTable::new(
            format!(
                "Table 4 ablation: cosine exact-matching head (threshold {:.2}).",
                cosine.threshold
            ),
            &["Dataset", "Measure", "Similar", "Dissimilar"],
        );
        for (name, pairs) in
            [("ShapeNetSet1 pairs", &pairs_sns1), ("NYU+ShapeNetSet1 pairs", &pairs_nyu)]
        {
            let preds = cosine.predict(pairs);
            let truth: Vec<usize> = pairs.iter().map(|p| p.label).collect();
            let e = evaluate_binary(&truth, &preds);
            push_block(&mut t2, name, &e);
            records.push(ExperimentRecord {
                table: 4,
                approach: "Cosine exact matching".into(),
                dataset: name.into(),
                cumulative_accuracy: Some(e.accuracy),
                evaluation: None,
                binary: Some(e),
            });
        }
        text.push('\n');
        text.push_str(&t2.render());
    }
    Ok(TableOutput { table: 4, text, records })
}

/// Shared builder for the class-wise tables 5–8.
fn classwise_table(
    table: usize,
    title: &str,
    rows: Vec<Row>,
    truth: &[ObjectClass],
    decimals: usize,
    dataset: &str,
) -> TableOutput {
    let mut t = TextTable::new(title, &classwise_headers());
    let mut records = Vec::new();
    for (label, preds) in rows {
        let e = evaluate(truth, &preds);
        classwise_rows(&mut t, &label, &e, decimals);
        records.push(ExperimentRecord {
            table,
            approach: label,
            dataset: dataset.into(),
            cumulative_accuracy: Some(e.cumulative_accuracy),
            evaluation: Some(e),
            binary: None,
        });
    }
    TableOutput { table, text: t.render(), records }
}

/// Table 5: class-wise shape-only results (NYU v SNS1): Table 2's rows.
pub fn table5_with(prep: &PreparedRepro) -> TableOutput {
    let queries = prep.q_nyu();
    let truth = truth_of(queries);
    let mut rows = vec![baseline_row(prep.cfg(), queries)];
    rows.extend_from_slice(prep.nyu_rows(Family::Shape));
    classwise_table(
        5,
        "Table 5: Class-wise results, shape-only matching (NYU v. SNS1).",
        rows,
        &truth,
        5,
        "NYU v. SNS1",
    )
}

/// Table 6: class-wise colour-only results (NYU v SNS1): Table 2's rows.
pub fn table6_with(prep: &PreparedRepro) -> TableOutput {
    let truth = truth_of(prep.q_nyu());
    let rows = prep.nyu_rows(Family::Color).to_vec();
    classwise_table(
        6,
        "Table 6: Class-wise results, RGB-histogram matching (NYU v. SNS1).",
        rows,
        &truth,
        5,
        "NYU v. SNS1",
    )
}

/// Tables 7 and 8: class-wise hybrid results. Table 7 = NYU v SNS1
/// (Table 2's rows); Table 8 = SNS2 v SNS1.
pub fn table7or8_with(prep: &PreparedRepro, table: usize) -> TableOutput {
    assert!(table == 7 || table == 8, "only tables 7 and 8 share this layout");
    let (queries, rows, dataset, decimals) = if table == 7 {
        (prep.q_nyu(), prep.nyu_rows(Family::Hybrid).to_vec(), "NYU v. SNS1", 5)
    } else {
        let queries = prep.refs_sns2();
        let rows = hybrid_rows(prep.cfg(), queries, prep.refs_sns1(), prep.diag());
        (queries, rows, "SNS2 v. SNS1", 2)
    };
    let truth = truth_of(queries);
    let title = format!(
        "Table {table}: Class-wise results, hybrid Hu-L3 + Hellinger (alpha=0.3, beta=0.7), {dataset}.",
    );
    classwise_table(table, &title, rows, &truth, decimals, dataset)
}

/// Table 9: class-wise descriptor-matching results (SNS1 v SNS2, ratio 0.5).
pub fn table9_with(prep: &PreparedRepro) -> TableOutput {
    let truth: Vec<ObjectClass> = prep.sns1().images.iter().map(|i| i.class).collect();
    let rows: Vec<_> = DescriptorKind::ALL
        .iter()
        .zip(prep.descriptors_sns1().iter().zip(prep.descriptors_sns2()))
        .map(|(kind, (q, r))| {
            (kind.label().to_string(), descriptor_preds(q, r, 0.5, prep.diag(), prep.cfg().index))
        })
        .collect();
    classwise_table(
        9,
        "Table 9: Class-wise results, descriptor matching (SNS1 v. SNS2, ratio 0.5).",
        rows,
        &truth,
        2,
        "SNS1 v. SNS2",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReproConfig {
        let mut cfg = ReproConfig::quick(2019);
        cfg.nyu_per_class = Some(5);
        cfg.siamese = SiameseConfig::quick();
        cfg.siamese.n_train_pairs = 40;
        cfg.siamese.train.max_epochs = 1;
        cfg
    }

    #[test]
    fn table1_reproduces_catalog_counts() {
        let out = table1_with(&PreparedRepro::new(ReproConfig::quick(2019)));
        assert!(out.text.contains("Chair"));
        assert!(out.text.contains("82"));
        assert!(out.text.contains("100"));
    }

    #[test]
    fn table2_has_eleven_rows_and_all_records() {
        let out = table2_with(&PreparedRepro::new(tiny()));
        assert_eq!(out.records.len(), 22); // 11 approaches x 2 datasets
        assert!(out.text.contains("Baseline"));
        assert!(out.text.contains("Shape+Color (macro-avg)"));
    }

    #[test]
    fn table5_layout() {
        let out = table5_with(&PreparedRepro::new(tiny()));
        // 4 approaches x 4 measures.
        assert_eq!(out.records.len(), 4);
        assert!(out.text.contains("Chair"));
        assert!(out.text.contains("Baseline"));
        assert!(out.text.contains("Shape only L3"));
    }

    #[test]
    fn table8_is_sns2_v_sns1() {
        let out = table7or8_with(&PreparedRepro::new(tiny()), 8);
        assert!(out.text.contains("SNS2 v. SNS1"));
        assert_eq!(out.records.len(), 3);
    }

    #[test]
    #[should_panic(expected = "only tables 7 and 8")]
    fn table7or8_rejects_other_ids() {
        let _ = table7or8_with(&PreparedRepro::new(tiny()), 9);
    }

    #[test]
    fn shared_cache_matches_fresh_builds() {
        // Generators over one shared cache must render exactly what each
        // renders over a fresh cache of its own.
        let cfg = tiny();
        let prep = PreparedRepro::new(cfg.clone());
        let fresh = || PreparedRepro::new(cfg.clone());
        assert_eq!(table2_with(&prep).text, table2_with(&fresh()).text);
        assert_eq!(table5_with(&prep).text, table5_with(&fresh()).text);
        assert_eq!(table6_with(&prep).text, table6_with(&fresh()).text);
        assert_eq!(table7or8_with(&prep, 7).text, table7or8_with(&fresh(), 7).text);
        assert_eq!(table7or8_with(&prep, 8).text, table7or8_with(&fresh(), 8).text);
    }

    #[test]
    fn table4_undersized_net_is_a_typed_error() {
        let mut cfg = tiny();
        cfg.siamese.net.height = 6;
        cfg.siamese.net.width = 6;
        match table4_with(&PreparedRepro::new(cfg), false, false) {
            Err(taor_core::Error::Nn(taor_nn::TensorError::InputTooSmall { .. })) => {}
            Err(e) => panic!("expected InputTooSmall, got {e}"),
            Ok(_) => panic!("expected InputTooSmall, got a table"),
        }
    }

    #[test]
    fn table4_without_training_pairs_is_a_typed_error() {
        let mut cfg = tiny();
        cfg.siamese.n_train_pairs = 0;
        match table4_with(&PreparedRepro::new(cfg), false, false) {
            Err(taor_core::Error::Nn(taor_nn::TensorError::EmptyTrainingSet)) => {}
            Err(e) => panic!("expected EmptyTrainingSet, got {e}"),
            Ok(_) => panic!("expected EmptyTrainingSet, got a table"),
        }
    }

    #[test]
    fn clean_inputs_leave_diagnostics_clean() {
        let prep = PreparedRepro::new(tiny());
        let _ = table5_with(&prep);
        let _ = table7or8_with(&prep, 8);
        assert!(prep.diagnostics().is_clean());
    }
}
