//! Train the Normalized-X-Corr network on ShapeNetSet2 pairs, evaluate on
//! the two test pair sets of §3.4, and save the weights.
//!
//! ```text
//! cargo run --release --example train_siamese            # quick config
//! cargo run --release --example train_siamese -- --full  # paper recipe
//! ```
//!
//! The paper's outcome — collapse to the majority "similar" prediction on
//! unseen pairs — is visible in the printed precision/recall blocks.

use taor::core::prelude::*;
use taor::core::siamese::try_evaluate_siamese;
use taor::data::{
    nyu_set_subsampled, nyu_sns1_test_pairs, shapenet_set1, shapenet_set2, sns1_test_pairs,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let full = std::env::args().any(|a| a == "--full");
    let seed = 2019;
    let cfg = if full { SiameseConfig::default() } else { SiameseConfig::quick() };
    println!(
        "training Normalized-X-Corr: {} pairs, {}x{} inputs, <= {} epochs (lr {}, decay {})",
        cfg.n_train_pairs,
        cfg.net.width,
        cfg.net.height,
        cfg.train.max_epochs,
        cfg.train.learning_rate,
        cfg.train.decay,
    );

    let sns2 = shapenet_set2(seed);
    let (net, report) = try_train_siamese(&sns2, &cfg, |s| {
        println!("  epoch {:>3}  loss {:.5}  train-acc {:.3}", s.epoch, s.mean_loss, s.accuracy);
    })?;
    println!(
        "training finished after {} epochs (early stop: {})",
        report.epochs.len(),
        report.early_stopped
    );

    // Save the trained model.
    let path = "siamese_model.json";
    std::fs::write(path, net.to_json())?;
    println!("saved weights to {path}");

    // Evaluate on both §3.4 test sets.
    let sns1 = shapenet_set1(seed);
    let nyu = nyu_set_subsampled(seed, 12);
    let sets = [
        ("ShapeNetSet1 pairs", sns1_test_pairs(&sns1)),
        ("NYU+ShapeNetSet1 pairs", nyu_sns1_test_pairs(&nyu, &sns1, seed)),
    ];
    for (name, pairs) in sets {
        let eval = try_evaluate_siamese(&net, &pairs, &cfg.net)?;
        println!("\n{name} ({} pairs):", pairs.len());
        println!(
            "  similar    P {:.2}  R {:.2}  F1 {:.2}  support {}",
            eval.similar.precision, eval.similar.recall, eval.similar.f1, eval.similar.support
        );
        println!(
            "  dissimilar P {:.2}  R {:.2}  F1 {:.2}  support {}",
            eval.dissimilar.precision,
            eval.dissimilar.recall,
            eval.dissimilar.f1,
            eval.dissimilar.support
        );
        if eval.similar.recall > 0.95 && eval.dissimilar.recall < 0.05 {
            println!(
                "  -> collapsed to the majority \"similar\" class (the paper's Table 4 failure)"
            );
        }
    }
    Ok(())
}
