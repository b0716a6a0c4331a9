// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Dataset builders matching Table 1 of the paper.
//!
//! * **ShapeNetSet1 (SNS1)** — 82 catalog views: two models per class,
//!   views split between them per the Table 1 class counts.
//! * **ShapeNetSet2 (SNS2)** — 100 catalog views: ten per class, again
//!   spread over two (fresh) models per class.
//! * **NYUSet** — 6,934 scene crops with the Table 1 class counts; every
//!   crop is a *new* model draw (real scenes contain object instances, not
//!   the ShapeNet meshes).
//!
//! Everything is deterministic in the builder seed.

use crate::classes::ObjectClass;
use crate::render::{render_catalog_view, render_scene_crop};
use crate::shapes::sample_model;
use rand::{Rng, SeedableRng};
use taor_imgproc::image::RgbImage;

/// Which corpus an image belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    ShapeNetSet1,
    ShapeNetSet2,
    NyuSet,
}

/// One labelled image.
#[derive(Debug, Clone)]
pub struct LabeledImage {
    pub image: RgbImage,
    pub class: ObjectClass,
    /// Model identity within `(kind, class)` — catalog views of the same
    /// model share it; every NYU crop has a unique one.
    pub model_id: usize,
    /// View index within the model.
    pub view_id: usize,
}

/// A labelled image collection.
#[derive(Debug, Clone)]
pub struct Dataset {
    pub kind: DatasetKind,
    pub images: Vec<LabeledImage>,
}

impl Dataset {
    /// Number of images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Per-class image count, Table 1 order.
    pub fn class_counts(&self) -> [usize; ObjectClass::COUNT] {
        let mut counts = [0usize; ObjectClass::COUNT];
        for img in &self.images {
            counts[img.class.index()] += 1;
        }
        counts
    }

    /// Iterate images of one class.
    pub fn of_class(&self, class: ObjectClass) -> impl Iterator<Item = &LabeledImage> {
        self.images.iter().filter(move |i| i.class == class)
    }
}

/// Mix a stable stream id into a seed so that the three datasets (and the
/// models inside them) never share RNG streams.
fn substream(seed: u64, stream: u64) -> rand::rngs::SmallRng {
    rand::rngs::SmallRng::seed_from_u64(seed ^ (stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

fn catalog_set(
    kind: DatasetKind,
    seed: u64,
    stream: u64,
    count_of: impl Fn(ObjectClass) -> usize,
) -> Dataset {
    let mut images = Vec::new();
    for class in ObjectClass::ALL {
        let n_views = count_of(class);
        // Two models per class (paper: "two for each of the ten object
        // classes"); views split as evenly as possible.
        let mut rng = substream(seed, stream ^ (class.index() as u64) << 8);
        let models = [sample_model(class, &mut rng), sample_model(class, &mut rng)];
        for v in 0..n_views {
            let model_id = v % 2;
            let view_id = v / 2;
            images.push(LabeledImage {
                image: render_catalog_view(&models[model_id], view_id, &mut rng),
                class,
                model_id,
                view_id,
            });
        }
    }
    Dataset { kind, images }
}

/// Build ShapeNetSet1 (82 views, Table 1 cardinalities).
///
/// ```
/// let sns1 = taor_data::shapenet_set1(2019);
/// assert_eq!(sns1.len(), 82);
/// assert_eq!(sns1.class_counts(), [14, 12, 8, 8, 8, 8, 6, 4, 8, 6]);
/// ```
pub fn shapenet_set1(seed: u64) -> Dataset {
    catalog_set(DatasetKind::ShapeNetSet1, seed, 0x51, |c| c.sns1_count())
}

/// Build a custom catalog: `models_per_class` distinct models, each with
/// `views_per_model` views — the "augmenting the cardinality of each
/// class" direction of the paper's conclusion. Uses the SNS2 stream so
/// the first two models coincide with [`shapenet_set2`]'s.
pub fn catalog_custom(seed: u64, models_per_class: usize, views_per_model: usize) -> Dataset {
    assert!(models_per_class >= 1 && views_per_model >= 1, "need at least one model and view");
    let mut images = Vec::new();
    for class in ObjectClass::ALL {
        let mut rng = substream(seed, 0x52 ^ (class.index() as u64) << 8);
        let models: Vec<_> = (0..models_per_class).map(|_| sample_model(class, &mut rng)).collect();
        for (model_id, model) in models.iter().enumerate() {
            for view_id in 0..views_per_model {
                images.push(LabeledImage {
                    image: render_catalog_view(model, view_id, &mut rng),
                    class,
                    model_id,
                    view_id,
                });
            }
        }
    }
    Dataset { kind: DatasetKind::ShapeNetSet2, images }
}

/// Build ShapeNetSet2 (100 views, ten per class, fresh models).
pub fn shapenet_set2(seed: u64) -> Dataset {
    catalog_set(DatasetKind::ShapeNetSet2, seed, 0x52, |c| c.sns2_count())
}

/// Build a ShapeNet-scale gallery: `models_per_class` *distinct* models
/// per class, each rendered over a regular `yaw_steps × pitch_steps`
/// camera grid (`view_id = yaw · pitch_steps + pitch`). Total size is
/// `10 · models_per_class · yaw_steps · pitch_steps` views — the regime
/// the `taor-features` ANN indexes exist for.
///
/// The model draws depend only on `seed`, while every per-view jitter
/// draw comes from a stream keyed additionally by `jitter`: two calls
/// with equal `seed` and different `jitter` render the *same* models on
/// the *same* grid cells as near-duplicates, which is exactly what a
/// recall@k harness needs for realistic (non-pixel-identical) queries.
pub fn gallery_grid(
    seed: u64,
    models_per_class: usize,
    yaw_steps: usize,
    pitch_steps: usize,
    jitter: u64,
) -> Dataset {
    assert!(
        models_per_class >= 1 && yaw_steps >= 1 && pitch_steps >= 1,
        "need at least one model and a non-empty grid"
    );
    let mut images = Vec::new();
    for class in ObjectClass::ALL {
        let mut model_rng = substream(seed, 0x53 ^ (class.index() as u64) << 8);
        let models: Vec<_> =
            (0..models_per_class).map(|_| sample_model(class, &mut model_rng)).collect();
        for (model_id, model) in models.iter().enumerate() {
            for yaw in 0..yaw_steps {
                for pitch in 0..pitch_steps {
                    let view_id = yaw * pitch_steps + pitch;
                    let cell =
                        (class.index() as u64) << 40 | (model_id as u64) << 20 | view_id as u64;
                    let mut view_rng = substream(
                        seed.wrapping_add(jitter.wrapping_mul(0xB5AD_4ECE_DA1C_E2A9)),
                        0x54 ^ cell,
                    );
                    images.push(LabeledImage {
                        image: crate::render::render_grid_view(
                            model,
                            yaw,
                            pitch,
                            yaw_steps,
                            pitch_steps,
                            &mut view_rng,
                        ),
                        class,
                        model_id,
                        view_id,
                    });
                }
            }
        }
    }
    Dataset { kind: DatasetKind::ShapeNetSet2, images }
}

/// Build the full NYUSet (6,934 scene crops, Table 1 cardinalities).
pub fn nyu_set(seed: u64) -> Dataset {
    nyu_set_with(seed, |c| c.nyu_count())
}

/// Build a down-sampled NYUSet with `per_class` crops per class — used by
/// the examples and the quick mode of the repro harness.
pub fn nyu_set_subsampled(seed: u64, per_class: usize) -> Dataset {
    nyu_set_with(seed, |_| per_class)
}

fn nyu_set_with(seed: u64, count_of: impl Fn(ObjectClass) -> usize) -> Dataset {
    let mut images = Vec::new();
    for class in ObjectClass::ALL {
        let mut rng = substream(seed, 0xA7 ^ (class.index() as u64) << 8);
        for i in 0..count_of(class) {
            let model = sample_model(class, &mut rng);
            images.push(LabeledImage {
                image: render_scene_crop(&model, &mut rng),
                class,
                model_id: i,
                view_id: 0,
            });
        }
    }
    Dataset { kind: DatasetKind::NyuSet, images }
}

/// Pick `per_class` random images of every class (used for the 100-image
/// NYU test subset of §3.4: "10 where randomly-picked from each of the 10
/// classes").
pub fn sample_per_class(dataset: &Dataset, per_class: usize, seed: u64) -> Vec<&LabeledImage> {
    let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(per_class * ObjectClass::COUNT);
    for class in ObjectClass::ALL {
        let pool: Vec<&LabeledImage> = dataset.of_class(class).collect();
        assert!(
            pool.len() >= per_class,
            "class {class:?} has only {} images, need {per_class}",
            pool.len()
        );
        let mut indices: Vec<usize> = (0..pool.len()).collect();
        // Partial Fisher–Yates.
        for i in 0..per_class {
            let j = rng.gen_range(i..indices.len());
            indices.swap(i, j);
        }
        out.extend(indices[..per_class].iter().map(|&i| pool[i]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sns1_matches_table1() {
        let d = shapenet_set1(2019);
        assert_eq!(d.len(), 82);
        let counts = d.class_counts();
        assert_eq!(counts, [14, 12, 8, 8, 8, 8, 6, 4, 8, 6]);
    }

    #[test]
    fn sns2_matches_table1() {
        let d = shapenet_set2(2019);
        assert_eq!(d.len(), 100);
        assert!(d.class_counts().iter().all(|&c| c == 10));
    }

    #[test]
    fn gallery_grid_shape_and_determinism() {
        let a = gallery_grid(7, 2, 3, 2, 0);
        assert_eq!(a.len(), 10 * 2 * 3 * 2);
        let counts = a.class_counts();
        assert!(counts.iter().all(|&c| c == 12), "balanced classes: {counts:?}");
        // view_id encodes the grid cell.
        assert_eq!(a.images[0].view_id, 0);
        assert_eq!(a.images[5].view_id, 5);
        // Deterministic in the seed…
        let b = gallery_grid(7, 2, 3, 2, 0);
        assert_eq!(a.images[17].image.as_raw(), b.images[17].image.as_raw());
        // …and a different jitter stream re-renders the same cells as
        // near-duplicates, not pixel-identical copies.
        let j = gallery_grid(7, 2, 3, 2, 1);
        assert_eq!(j.len(), a.len());
        assert_eq!(j.images[17].class, a.images[17].class);
        assert_eq!(j.images[17].view_id, a.images[17].view_id);
        assert_ne!(j.images[17].image.as_raw(), a.images[17].image.as_raw());
    }

    #[test]
    fn nyu_subsample_counts() {
        let d = nyu_set_subsampled(2019, 20);
        assert_eq!(d.len(), 200);
        assert!(d.class_counts().iter().all(|&c| c == 20));
    }

    #[test]
    fn datasets_are_deterministic() {
        let a = shapenet_set1(42);
        let b = shapenet_set1(42);
        assert_eq!(a.images[0].image, b.images[0].image);
        assert_eq!(a.images[81].image, b.images[81].image);
        let c = shapenet_set1(43);
        assert_ne!(a.images[0].image, c.images[0].image);
    }

    #[test]
    fn sns1_and_sns2_use_different_models() {
        // Same seed, different streams: the two ShapeNet subsets must not
        // contain identical renders (SNS2 is "a second, larger, subset").
        let a = shapenet_set1(7);
        let b = shapenet_set2(7);
        assert_ne!(a.images[0].image, b.images[0].image);
    }

    #[test]
    fn model_ids_partition_views() {
        let d = shapenet_set1(1);
        for class in ObjectClass::ALL {
            let views: Vec<_> = d.of_class(class).collect();
            assert!(views.iter().all(|v| v.model_id < 2));
            let m0 = views.iter().filter(|v| v.model_id == 0).count();
            let m1 = views.iter().filter(|v| v.model_id == 1).count();
            assert_eq!(m0 + m1, class.sns1_count());
            assert!(m0.abs_diff(m1) <= 1, "{class:?} split {m0}/{m1}");
        }
    }

    #[test]
    fn sample_per_class_returns_balanced_subset() {
        let d = nyu_set_subsampled(5, 15);
        let sampled = sample_per_class(&d, 10, 99);
        assert_eq!(sampled.len(), 100);
        for class in ObjectClass::ALL {
            assert_eq!(sampled.iter().filter(|i| i.class == class).count(), 10);
        }
    }

    #[test]
    fn catalog_custom_scales() {
        let d = catalog_custom(3, 4, 5);
        assert_eq!(d.len(), 10 * 4 * 5);
        for class in ObjectClass::ALL {
            let views: Vec<_> = d.of_class(class).collect();
            assert_eq!(views.len(), 20);
            assert!(views.iter().all(|v| v.model_id < 4 && v.view_id < 5));
        }
    }

    #[test]
    #[should_panic(expected = "at least one model")]
    fn catalog_custom_rejects_zero() {
        let _ = catalog_custom(1, 0, 5);
    }

    #[test]
    #[should_panic(expected = "has only")]
    fn sample_per_class_panics_when_insufficient() {
        let d = nyu_set_subsampled(5, 3);
        let _ = sample_per_class(&d, 10, 99);
    }

    #[test]
    #[ignore = "builds the full 6,934-image corpus; run with --ignored"]
    fn full_nyu_matches_table1() {
        let d = nyu_set(2019);
        assert_eq!(d.len(), 6934);
        assert_eq!(d.class_counts(), [1000, 920, 790, 760, 726, 637, 617, 511, 495, 478]);
    }
}
