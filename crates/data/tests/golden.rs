//! Golden render digests: every pixel the dataset builders produce.
//!
//! Each digest is FNV-1a 64 over, in dataset order, an image's raw RGB
//! bytes followed by its `class` index, `model_id` and `view_id` (each as
//! a little-endian `u64`); for `patrol_frames`, each frame's raw bytes.
//! The table digests of the reproduction harness pin only what the
//! pipelines read from these images; these pin the images themselves, so
//! a renderer optimisation that moves one pixel fails here first.

use taor_data::{
    catalog_custom, gallery_grid, nyu_set, nyu_set_subsampled, patrol_frames, shapenet_set1,
    shapenet_set2, Dataset,
};

fn fnv1a(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    digest
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn dataset_digest(d: &Dataset) -> u64 {
    d.images.iter().fold(FNV_OFFSET, |h, img| {
        let h = fnv1a(h, img.image.as_raw());
        let h = fnv1a(h, &(img.class.index() as u64).to_le_bytes());
        let h = fnv1a(h, &(img.model_id as u64).to_le_bytes());
        fnv1a(h, &(img.view_id as u64).to_le_bytes())
    })
}

fn check(name: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{name}: render digest {got:#018x}, expected {want:#018x}");
}

#[test]
fn shapenet_sets_render_the_golden_pixels() {
    check("shapenet_set1(2019)", dataset_digest(&shapenet_set1(2019)), 0x96be_afd9_2682_3406);
    check("shapenet_set2(2019)", dataset_digest(&shapenet_set2(2019)), 0x4a99_85ac_f8d9_4bdb);
}

#[test]
fn full_nyu_set_renders_the_golden_pixels() {
    check("nyu_set(2019)", dataset_digest(&nyu_set(2019)), 0x4d0e_5254_1a6c_f953);
}

#[test]
fn subsampled_nyu_set_renders_the_golden_pixels() {
    check(
        "nyu_set_subsampled(2019, 20)",
        dataset_digest(&nyu_set_subsampled(2019, 20)),
        0xbe18_c7f0_b6b5_0dd7,
    );
}

#[test]
fn catalog_builders_render_the_golden_pixels() {
    check(
        "gallery_grid(2019, 1, 3, 3, 1)",
        dataset_digest(&gallery_grid(2019, 1, 3, 3, 1)),
        0x8b69_cb5b_1c93_93ff,
    );
    check(
        "catalog_custom(2019, 3, 4)",
        dataset_digest(&catalog_custom(2019, 3, 4)),
        0xcb42_4034_3a31_9120,
    );
}

#[test]
fn patrol_frames_render_the_golden_pixels() {
    let digest =
        patrol_frames(2019, 4).iter().fold(FNV_OFFSET, |h, frame| fnv1a(h, frame.image.as_raw()));
    check("patrol_frames(2019, 4)", digest, 0x1841_19d8_505c_a641);
}
