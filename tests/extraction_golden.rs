//! Golden extraction digests: every keypoint and descriptor bit that
//! SIFT, SURF and ORB produce on the reproduction's images.
//!
//! Each digest is FNV-1a 64 over, in image order, the image's keypoint
//! count (a little-endian `u64`), then per keypoint the bits of `x`, `y`,
//! `size`, `angle` and `response` (little-endian `f32` bits) and `octave`
//! (a little-endian `i32`), then every descriptor row (`f32` bits for SIFT
//! and SURF, raw bytes for ORB). The images are `shapenet_set1(2019)`,
//! `shapenet_set2(2019)` and `nyu_set_subsampled(2019, 4)` (crops on black
//! backgrounds), each converted to grey as the descriptor pipeline does,
//! with each detector's default parameters.
//!
//! The Table 3 and 9 digests see only the accuracies that matching
//! produces; these see every bit, so a kernel rewrite that moves one
//! keypoint or one descriptor value fails here first. Never re-pin them
//! for a speed change.

use std::sync::OnceLock;
use taor::data::{nyu_set_subsampled, shapenet_set1, shapenet_set2};
use taor::features::{
    orb_detect_and_compute, sift_detect_and_compute, surf_detect_and_compute, KeyPoint, OrbParams,
    SiftParams, SurfParams,
};
use taor::imgproc::color::rgb_to_gray;
use taor::imgproc::image::GrayImage;

fn fnv1a(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest = (digest ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    digest
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The grey images of SNS1, SNS2 and four NYU crops per class, in that
/// order.
fn images() -> &'static [GrayImage] {
    static IMAGES: OnceLock<Vec<GrayImage>> = OnceLock::new();
    IMAGES.get_or_init(|| {
        [shapenet_set1(2019), shapenet_set2(2019), nyu_set_subsampled(2019, 4)]
            .iter()
            .flat_map(|d| d.images.iter().map(|i| rgb_to_gray(&i.image)))
            .collect()
    })
}

fn keypoints_digest(h: u64, kps: &[KeyPoint]) -> u64 {
    kps.iter().fold(fnv1a(h, &(kps.len() as u64).to_le_bytes()), |h, k| {
        let h = [k.x, k.y, k.size, k.angle, k.response]
            .iter()
            .fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()));
        fnv1a(h, &k.octave.to_le_bytes())
    })
}

fn float_rows_digest<'a>(h: u64, rows: impl Iterator<Item = &'a [f32]>) -> u64 {
    rows.flatten().fold(h, |h, v| fnv1a(h, &v.to_bits().to_le_bytes()))
}

fn check(kind: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{kind}: extraction digest {got:#018x}, expected {want:#018x}");
}

#[test]
fn sift_extracts_the_golden_bits() {
    let digest = images().iter().fold(FNV_OFFSET, |h, img| {
        let (kps, descs) = sift_detect_and_compute(img, &SiftParams::default()).unwrap();
        float_rows_digest(keypoints_digest(h, &kps), descs.iter())
    });
    check("SIFT", digest, 0xfc0a_5483_c72d_21d4);
}

#[test]
fn surf_extracts_the_golden_bits() {
    let digest = images().iter().fold(FNV_OFFSET, |h, img| {
        let (kps, descs) = surf_detect_and_compute(img, &SurfParams::default()).unwrap();
        float_rows_digest(keypoints_digest(h, &kps), descs.iter())
    });
    check("SURF", digest, 0xe790_df57_04bc_bf84);
}

#[test]
fn orb_extracts_the_golden_bits() {
    let digest = images().iter().fold(FNV_OFFSET, |h, img| {
        let (kps, descs) = orb_detect_and_compute(img, &OrbParams::default()).unwrap();
        (0..descs.len()).fold(keypoints_digest(h, &kps), |h, i| fnv1a(h, descs.row(i)))
    });
    check("ORB", digest, 0x2ed5_a017_96c8_e0f9);
}
