//! Integration: Normalized-X-Corr training behaviour — learning on easy
//! data, early stopping, persistence, and the paper's recipe constants.

use taor::core::prelude::*;
use taor::core::Result;
use taor::data::{shapenet_set2, ImagePair};
use taor::nn::{try_train, NetConfig, NormXCorrNet, PairSample, TrainConfig};

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

    for p in taor::data::training_pairs(&sns2, 20, 7) {
        let a = image_to_tensor(&p.a.image, &cfg.net);
        let b = image_to_tensor(&p.b.image, &cfg.net);
        let predict = |net: &NormXCorrNet| {
            let (fa, fb) = (net.tower_embed(&a).unwrap(), net.tower_embed(&b).unwrap());
            net.predict_similar_features(&fa, &fb).unwrap()
        };
        assert_eq!(predict(&net), predict(&restored));
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

/// `net`, trained on one shared input table, serialises to the same bytes
/// as a net trained on per-pair `image_to_tensor` copies of `pairs`.
fn assert_trained_like_per_pair_copies(
    net: &NormXCorrNet,
    pairs: &[ImagePair<'_>],
    train: &TrainConfig,
) {
    let to_tensor = |img: &taor::data::LabeledImage| image_to_tensor(&img.image, &net.config);
    let copies: Vec<_> = pairs.iter().map(|p| (to_tensor(p.a), to_tensor(p.b), p.label)).collect();
    let samples: Vec<_> = copies.iter().map(|(a, b, l)| PairSample { a, b, label: *l }).collect();
    let mut reference = NormXCorrNet::new(net.config.clone()).unwrap();
    try_train(&mut reference, &samples, train, |_| {}).unwrap();
    assert!(net.to_json() == reference.to_json(), "the nets differ");
}

/// Table 4's catalog pairs through `try_train_siamese`, and E2's
/// mixed-domain pairs with dropout and weight decay through
/// `train_on_pairs`.
#[test]
fn training_on_one_input_table_matches_per_pair_copies() -> Result<()> {
    let sns2 = shapenet_set2(2019);
    let mut cfg = SiameseConfig::quick();
    cfg.n_train_pairs = 60;
    cfg.train.max_epochs = 1;
    let (net, _) = try_train_siamese(&sns2, &cfg, |_| {})?;
    let pairs = taor::data::training_pairs(&sns2, 60, cfg.seed);
    assert_trained_like_per_pair_copies(&net, &pairs, &cfg.train);

    let nyu = taor::data::nyu_set_subsampled(2019, 10);
    let pairs = taor::data::mixed_training_pairs(&sns2, &nyu, 60, cfg.seed);
    let net_cfg = NetConfig { dropout: 0.3, ..cfg.net };
    let train = TrainConfig { weight_decay: 1e-4, ..cfg.train };
    let (net, _) = train_on_pairs(&pairs, net_cfg, &train, |_| {})?;
    assert_trained_like_per_pair_copies(&net, &pairs, &train);
    Ok(())
}
