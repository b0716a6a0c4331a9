//! Extension experiments beyond the paper's nine tables, implementing the
//! future-work directions its conclusion lays out:
//!
//! * **E1** — end-to-end recognition on whole robot frames, measuring the
//!   segmentation error propagation the paper's controlled setup excluded
//!   ("for further application on RGB frames captured by a mobile robot
//!   in a real-life scenario");
//! * **E2** — Normalized-X-Corr trained on heterogeneous (mixed-domain)
//!   pairs ("increasing the heterogeneity of our datasets"), with
//!   dropout + weight decay as the overfitting countermeasures the
//!   discussion motivates.

use crate::repro::{hybrid_preds, ReproConfig, TableOutput};
use taor_core::prelude::*;
use taor_core::siamese::try_evaluate_siamese;
use taor_data::{
    mixed_training_pairs, nyu_sns1_test_pairs, patrol_frames, shapenet_set1, shapenet_set2,
};
use taor_nn::{try_train, NormXCorrNet};

/// E1: end-to-end scene recognition.
///
/// Classifies (a) ground-truth crops (the paper's controlled condition)
/// and (b) automatically segmented crops of the same frames, quantifying
/// how much accuracy the segmentation stage costs.
pub fn table_e1(cfg: &ReproConfig, n_frames: usize) -> TableOutput {
    let sns1 = shapenet_set1(cfg.seed);
    let refs = prepare_views(&sns1, Background::White);
    let hybrid = HybridConfig { alpha: cfg.alpha, beta: cfg.beta, ..Default::default() };
    let diag = Diagnostics::new();
    let classify = |crop: &taor_imgproc::RgbImage| {
        let q = RefView {
            class: taor_data::ObjectClass::Chair, // placeholder truth, unused
            model_id: 0,
            feat: preprocess(crop, Background::Black),
        };
        hybrid_preds(std::slice::from_ref(&q), &refs, &hybrid, Aggregation::WeightedSum, &diag)[0]
    };

    let frames = patrol_frames(cfg.seed, n_frames);
    let seg_cfg = SegmentConfig::default();

    let mut agg = SceneEvaluation::default();
    let mut gt_total = 0usize;
    let mut gt_correct = 0usize;
    for scene in &frames {
        // Condition (a): classify ground-truth crops (perfect
        // localisation). The crop is black-masked against the *frame's*
        // background model so both conditions see the NYU format.
        let bg = border_colors(&scene.image, seg_cfg.background_colors);
        for obj in &scene.objects {
            let Ok(crop) = scene.image.crop(obj.bbox) else {
                // A ground-truth box outside the frame is a data fault:
                // skip the crop rather than aborting the whole table.
                continue;
            };
            // An empty background model is a typed error now; degrade to
            // the raw crop instead of a fabricated full-frame mask.
            let masked = match mask_against(&crop, &bg, seg_cfg.color_threshold) {
                Ok(mask) => {
                    let mut masked = taor_imgproc::RgbImage::new(crop.width(), crop.height());
                    for (x, y, px) in crop.enumerate_pixels() {
                        if mask.get(x, y) > 0 {
                            masked.put_pixel(x, y, px);
                        }
                    }
                    masked
                }
                Err(_) => crop.clone(),
            };
            gt_total += 1;
            if classify(&masked) == obj.class {
                gt_correct += 1;
            }
        }
        // Condition (b): automatic segmentation. A segmentation error on
        // a frame contributes zero detections (its objects count as
        // missed) — never a full-frame "detection".
        let detections = try_recognise_frame(&scene.image, &seg_cfg, classify).unwrap_or_default();
        let eval = evaluate_scene(scene, &detections);
        agg.total_objects += eval.total_objects;
        agg.detected += eval.detected;
        agg.correctly_classified += eval.correctly_classified;
        agg.false_positives += eval.false_positives;
    }

    let mut t = TextTable::new(
        format!("Extension E1: end-to-end scene recognition over {n_frames} frames."),
        &["Condition", "Metric", "Value"],
    );
    let gt_acc = gt_correct as f64 / gt_total.max(1) as f64;
    t.row(vec!["Ground-truth crops".into(), "classification accuracy".into(), fmt_f(gt_acc, 3)]);
    t.row(vec![
        "Auto segmentation".into(),
        "detection rate (IoU>=0.3)".into(),
        fmt_f(agg.detection_rate(), 3),
    ]);
    t.row(vec![
        String::new(),
        "classification | detected".into(),
        fmt_f(agg.classification_rate(), 3),
    ]);
    t.row(vec![String::new(), "end-to-end recall".into(), fmt_f(agg.end_to_end_rate(), 3)]);
    t.row(vec![
        String::new(),
        "false positives / frame".into(),
        fmt_f(agg.false_positives as f64 / n_frames.max(1) as f64, 2),
    ]);
    TableOutput { table: 101, text: t.render(), records: Vec::new() }
}

/// E2: dataset heterogeneity for the Siamese pipeline.
///
/// Trains the identical architecture twice — catalog-only (the paper's
/// §3.4 recipe) vs. mixed-domain pairs with dropout + weight decay — and
/// evaluates both on the NYU+SNS1 test pairs where the paper's model
/// collapsed.
pub fn table_e2(cfg: &ReproConfig, verbose: bool) -> TableOutput {
    let sns2 = shapenet_set2(cfg.seed);
    let nyu = cfg.nyu();
    let sns1 = shapenet_set1(cfg.seed);
    let test_pairs = nyu_sns1_test_pairs(&nyu, &sns1, cfg.seed);

    // Condition (a): the paper's catalog-only training. An undersized
    // net resolution or an empty evaluation set is a typed error;
    // surface it as a degraded table rather than a panic.
    let trained = taor_core::try_train_siamese(&sns2, &cfg.siamese, |s| {
        if verbose {
            eprintln!("  [catalog] epoch {} loss {:.5}", s.epoch, s.mean_loss);
        }
    });
    let (net_a, _) = match trained {
        Ok(out) => out,
        Err(e) => return degraded_e2(&e),
    };
    let eval_a = match try_evaluate_siamese(&net_a, &test_pairs, &cfg.siamese.net) {
        Ok(eval) => eval,
        Err(e) => return degraded_e2(&e),
    };

    // Condition (b): mixed-domain pairs + regularisation.
    let mut net_cfg = cfg.siamese.net.clone();
    net_cfg.dropout = 0.3;
    let mut train_cfg = cfg.siamese.train.clone();
    train_cfg.weight_decay = 1e-4;
    let pairs = mixed_training_pairs(&sns2, &nyu, cfg.siamese.n_train_pairs, cfg.seed);
    let samples = pairs_to_samples(&pairs, &net_cfg);
    let mut net_b = match NormXCorrNet::new(net_cfg.clone()) {
        Ok(net) => net,
        Err(e) => return degraded_e2(&taor_core::Error::from(e)),
    };
    let trained = try_train(&mut net_b, &samples, &train_cfg, |s| {
        if verbose {
            eprintln!("  [mixed]   epoch {} loss {:.5}", s.epoch, s.mean_loss);
        }
    });
    if let Err(e) = trained {
        return degraded_e2(&taor_core::Error::from(e));
    }
    let eval_b = match try_evaluate_siamese(&net_b, &test_pairs, &net_cfg) {
        Ok(eval) => eval,
        Err(e) => return degraded_e2(&e),
    };

    let mut t = TextTable::new(
        "Extension E2: catalog-only vs heterogeneous training, NYU+SNS1 pairs.",
        &["Training", "Accuracy", "Sim P", "Sim R", "Dis P", "Dis R"],
    );
    let push = |t: &mut TextTable, name: &str, e: &BinaryEvaluation| {
        t.row(vec![
            name.into(),
            fmt_f(e.accuracy, 3),
            fmt_f(e.similar.precision, 2),
            fmt_f(e.similar.recall, 2),
            fmt_f(e.dissimilar.precision, 2),
            fmt_f(e.dissimilar.recall, 2),
        ]);
    };
    push(&mut t, "Catalog-only (paper §3.4)", &eval_a);
    push(&mut t, "Mixed-domain + dropout/WD", &eval_b);
    let records = vec![
        ExperimentRecord {
            table: 102,
            approach: "Catalog-only".into(),
            dataset: "NYU+SNS1 pairs".into(),
            cumulative_accuracy: Some(eval_a.accuracy),
            evaluation: None,
            binary: Some(eval_a),
        },
        ExperimentRecord {
            table: 102,
            approach: "Mixed-domain + dropout/WD".into(),
            dataset: "NYU+SNS1 pairs".into(),
            cumulative_accuracy: Some(eval_b.accuracy),
            evaluation: None,
            binary: Some(eval_b),
        },
    ];
    TableOutput { table: 102, text: t.render(), records }
}

/// A degraded E2 table: the typed error in place of results, so a bad
/// configuration reports itself instead of crashing the run.
fn degraded_e2(e: &taor_core::Error) -> TableOutput {
    let mut t = TextTable::new(
        "Extension E2: catalog-only vs heterogeneous training, NYU+SNS1 pairs.",
        &["Training", "Error"],
    );
    t.row(vec!["(degraded)".into(), e.to_string()]);
    TableOutput { table: 102, text: t.render(), records: Vec::new() }
}

/// E3: reference-set cardinality scaling ("augmenting the cardinality of
/// each class"): hybrid weighted-sum accuracy on the NYU queries as the
/// catalog grows from the paper's 2 models × ~4 views to larger sets.
pub fn table_e3(cfg: &ReproConfig) -> TableOutput {
    let nyu = cfg.nyu();
    let queries = prepare_views(&nyu, Background::Black);
    let truth = truth_of(&queries);
    let hybrid = HybridConfig { alpha: cfg.alpha, beta: cfg.beta, ..Default::default() };
    let diag = Diagnostics::new();

    let mut t = TextTable::new(
        "Extension E3: hybrid accuracy vs catalog size (NYU queries).",
        &["Models/class", "Views/model", "Catalog size", "Accuracy"],
    );
    let mut records = Vec::new();
    for &(models, views) in &[(2usize, 4usize), (2, 8), (4, 8), (8, 8)] {
        let catalog = taor_data::catalog_custom(cfg.seed, models, views);
        let refs = prepare_views(&catalog, Background::White);
        let preds = hybrid_preds(&queries, &refs, &hybrid, Aggregation::WeightedSum, &diag);
        let e = evaluate(&truth, &preds);
        t.row(vec![
            models.to_string(),
            views.to_string(),
            catalog.len().to_string(),
            fmt_f(e.cumulative_accuracy, 3),
        ]);
        records.push(ExperimentRecord {
            table: 103,
            approach: format!("{models}x{views}"),
            dataset: "NYU v. custom catalog".into(),
            cumulative_accuracy: Some(e.cumulative_accuracy),
            evaluation: Some(e),
            binary: None,
        });
    }
    TableOutput { table: 103, text: t.render(), records }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReproConfig {
        let mut cfg = ReproConfig::quick(2019);
        // nyu_sns1_test_pairs samples 10 crops per class, so keep >= 10.
        cfg.nyu_per_class = Some(10);
        cfg.siamese = SiameseConfig::quick();
        cfg.siamese.n_train_pairs = 60;
        cfg.siamese.train.max_epochs = 1;
        cfg
    }

    #[test]
    fn e1_produces_all_metrics() {
        let out = table_e1(&tiny(), 2);
        for metric in [
            "classification accuracy",
            "detection rate",
            "classification | detected",
            "end-to-end recall",
            "false positives",
        ] {
            assert!(out.text.contains(metric), "missing {metric}\n{}", out.text);
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "trains and evaluates two networks on the fixed 8,200-pair set; minutes in release, hours unoptimised — run with --release"
    )]
    fn e2_compares_two_conditions() {
        let out = table_e2(&tiny(), false);
        assert!(out.text.contains("Catalog-only"));
        assert!(out.text.contains("Mixed-domain"));
        assert_eq!(out.records.len(), 2);
    }

    #[test]
    fn e3_scales_the_catalog() {
        let out = table_e3(&tiny());
        assert_eq!(out.records.len(), 4);
        assert!(out.text.contains("Catalog size"));
        assert!(out.text.contains("640")); // 8 models x 8 views x 10 classes
    }
}
