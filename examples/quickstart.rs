//! Quickstart: classify synthetic "robot camera" crops against ShapeNet
//! catalog views with the paper's best hybrid pipeline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use taor::core::prelude::*;
use taor::data::{nyu_set_subsampled, shapenet_set1};

fn main() -> taor::core::Result<()> {
    // 1. Build the reference catalog: ShapeNetSet1, 82 clean 2-D views on
    //    a white background (Table 1 cardinalities).
    let catalog = shapenet_set1(2019);
    println!("catalog: {} views across 10 classes", catalog.len());

    // 2. Simulate segmented crops a mobile robot would produce: black
    //    mask, pose and lighting jitter, occasional occlusion.
    let crops = nyu_set_subsampled(2019, 10);
    println!("queries: {} segmented crops", crops.len());

    // 3. Preprocess both sides with the paper's 4-step pipeline:
    //    grayscale -> threshold (or inverse) -> contours -> crop.
    let refs = prepare_views(&catalog, Background::White);
    let queries = prepare_views(&crops, Background::Black);

    // 4. Classify with the hybrid Hu-L3 + Hellinger scorer at the paper's
    //    alpha = 0.3 / beta = 0.7 weighting. NaN scores and crops nothing
    //    matched are counted in the diagnostics ledger.
    let diag = Diagnostics::new();
    let hybrid = HybridConfig::default();
    let preds = try_classify_hybrid(&queries, &refs, &hybrid, Aggregation::WeightedSum, &diag)?;

    // 5. Evaluate and report.
    let truth = truth_of(&queries);
    let eval = evaluate(&truth, &preds);
    println!("\ncumulative accuracy: {:.3} (random baseline: 0.100)", eval.cumulative_accuracy);
    println!("\nper-class recall:");
    for (class, m) in taor::data::ObjectClass::ALL.iter().zip(&eval.per_class) {
        println!("  {:<7} {:.2}  (support {})", class.name(), m.recall, m.support);
    }
    Ok(())
}
