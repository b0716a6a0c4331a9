//! Integration: Normalized-X-Corr training behaviour — learning on easy
//! data, early stopping, persistence, and the paper's recipe constants.

use taor::core::prelude::*;
use taor::core::Result;
use taor::data::shapenet_set2;
use taor::nn::{NetConfig, NormXCorrNet, TrainConfig};

#[test]
fn paper_hyperparameters_are_the_defaults() {
    let cfg = TrainConfig::default();
    assert_eq!(cfg.learning_rate, 1e-4);
    assert_eq!(cfg.decay, 1e-7);
    assert_eq!(cfg.batch_size, 16);
    assert_eq!(cfg.max_epochs, 100);
    assert_eq!(cfg.early_stop_eps, 1e-6);
    assert_eq!(cfg.early_stop_patience, 10);
    assert_eq!(taor::data::TRAIN_PAIRS, 9_450);
}

#[test]
fn loss_decreases_over_epochs_on_catalog_pairs() -> Result<()> {
    let sns2 = shapenet_set2(2019);
    let mut cfg = SiameseConfig::quick();
    cfg.n_train_pairs = 200;
    cfg.train.max_epochs = 3;
    cfg.train.learning_rate = 5e-4;
    let (_, report) = try_train_siamese(&sns2, &cfg, |_| {})?;
    assert_eq!(report.epochs.len(), 3);
    let first = report.epochs.first().unwrap().mean_loss;
    let last = report.epochs.last().unwrap().mean_loss;
    assert!(last < first, "loss {first} -> {last}");
    Ok(())
}

#[test]
fn model_roundtrips_through_json() -> Result<()> {
    let sns2 = shapenet_set2(2019);
    let mut cfg = SiameseConfig::quick();
    cfg.n_train_pairs = 60;
    cfg.train.max_epochs = 1;
    let (net, _) = try_train_siamese(&sns2, &cfg, |_| {})?;

    let json = net.to_json();
    let restored = NormXCorrNet::from_json(&json).expect("valid model json");

    let pairs = taor::data::training_pairs(&sns2, 20, 7);
    let samples = pairs_to_samples(&pairs, &cfg.net);
    for s in &samples {
        let p1 = net.predict_similar(&s.a, &s.b).unwrap();
        let p2 = restored.predict_similar(&s.a, &s.b).unwrap();
        assert_eq!(p1, p2);
    }
    Ok(())
}

#[test]
fn training_is_deterministic_per_seed() -> Result<()> {
    let sns2 = shapenet_set2(2019);
    let mut cfg = SiameseConfig::quick();
    cfg.n_train_pairs = 40;
    cfg.train.max_epochs = 1;
    let (n1, r1) = try_train_siamese(&sns2, &cfg, |_| {})?;
    let (n2, r2) = try_train_siamese(&sns2, &cfg, |_| {})?;
    assert_eq!(r1.epochs[0].mean_loss, r2.epochs[0].mean_loss);
    assert_eq!(n1.to_json(), n2.to_json());
    Ok(())
}

#[test]
fn net_config_controls_input_resolution() {
    let cfg = NetConfig { height: 48, width: 32, ..NetConfig::default() };
    let net = NormXCorrNet::new(cfg.clone()).unwrap();
    let sns2 = shapenet_set2(1);
    let t = image_to_tensor(&sns2.images[0].image, &cfg);
    assert_eq!(t.shape(), &[1, 3, 48, 32]);
    let (logits, _) = net.forward(&t, &t).unwrap();
    assert_eq!(logits.shape(), &[1, 2]);
}
