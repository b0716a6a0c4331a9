//! The paper's four-step preprocessing pipeline (§3.2):
//!
//! "we (i) first converted to grayscale, (ii) applied global binary
//! thresholding (or its inverse, depending on whether the input background
//! was black or white respectively), (iii) contour detection on cascade,
//! and (iv) cropped the original RGB image to the contour of largest
//! area."
//!
//! The output holds what the matching pipelines consume, not the crop
//! itself: the box the features were cut from, the largest contour's Hu
//! invariants (raw and log-signed), and the RGB histogram of the crop.

use taor_imgproc::prelude::*;

/// Background convention of the source corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Background {
    /// ShapeNet 2-D views: white background → inverse thresholding.
    White,
    /// NYU segmented crops: black mask → direct thresholding.
    Black,
}

/// Features extracted from one image by the preprocessing pipeline.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// The largest contour's bounding box, or the whole frame on
    /// fallback: the crop the histogram was read from.
    pub rect: Rect,
    /// Hu invariants of the largest contour.
    pub hu: HuMoments,
    /// Their log-signed form, the side of every shape distance this crop
    /// takes part in, computed once here.
    pub log_hu: LogHu,
    /// Per-channel RGB histogram of the crop.
    pub hist: RgbHistogram,
    /// Whether the contour stage succeeded (false = whole-image fallback,
    /// which happens when thresholding erases the object — e.g. white
    /// paper on the white catalog background, the very failure mode behind
    /// the Paper class's zero rows in the paper's appendix).
    pub contour_ok: bool,
}

/// Binarise according to the background convention: steps (i) and (ii),
/// grey conversion and the global threshold, in one pass.
pub fn binarise(img: &RgbImage, bg: Background) -> GrayImage {
    match bg {
        // White background: object pixels are the *darker* ones.
        Background::White => threshold_luma_inv(img, 245),
        // Black mask: object pixels are the brighter ones.
        Background::Black => threshold_luma(img, 10),
    }
}

/// Run the full preprocessing pipeline on one image.
///
/// Never fails: when no usable contour is found the whole image is used
/// as the crop (flagged via [`Preprocessed::contour_ok`]), mirroring how a
/// brittle thresholding stage degrades rather than aborts a robot's
/// recognition loop.
pub fn preprocess(img: &RgbImage, bg: Background) -> Preprocessed {
    let bin = binarise(img, bg);
    let contours = find_contours(&bin);
    let largest = largest_contour(&contours).filter(|c| c.area() >= 4.0);

    let (rect, hu, hist, contour_ok) = match largest {
        Some(contour) => {
            let rect = contour.bounding_rect();
            let crop = img.crop(rect).expect("bounding rect lies inside the image"); // taor-lint: allow(panic::expect) — invariant expect: the message states why this cannot fail on valid state
            let hu = hu_moments(&moments_of_contour(contour));
            (rect, hu, rgb_histogram(&crop), true)
        }
        None => {
            let (w, h) = img.dimensions();
            let hu = hu_moments(&moments(&bin, true));
            (Rect::new(0, 0, w, h), hu, rgb_histogram(img), false)
        }
    };
    Preprocessed { rect, hu, log_hu: LogHu::new(&hu), hist, contour_ok }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taor_imgproc::draw::Canvas;

    fn object_on(bg: [u8; 3], color: [u8; 3]) -> RgbImage {
        let mut c = Canvas::new(64, 64, bg);
        c.fill_rect(20.0, 14.0, 24.0, 36.0, color);
        c.into_image()
    }

    #[test]
    fn white_background_crop() {
        let img = object_on([255, 255, 255], [120, 60, 40]);
        let p = preprocess(&img, Background::White);
        assert!(p.contour_ok);
        assert_eq!(p.rect, Rect::new(20, 14, 24, 36));
        assert_eq!(img.crop(p.rect).unwrap().pixel(0, 0), [120, 60, 40]);
    }

    #[test]
    fn black_background_crop() {
        let img = object_on([0, 0, 0], [120, 160, 200]);
        let p = preprocess(&img, Background::Black);
        assert!(p.contour_ok);
        assert_eq!(p.rect, Rect::new(20, 14, 24, 36));
    }

    #[test]
    fn same_object_same_hu_across_backgrounds() {
        let white = object_on([255, 255, 255], [90, 90, 90]);
        let black = object_on([0, 0, 0], [90, 90, 90]);
        let pw = preprocess(&white, Background::White);
        let pb = preprocess(&black, Background::Black);
        for i in 0..7 {
            assert!(
                (pw.hu[i] - pb.hu[i]).abs() < 1e-9,
                "hu[{i}] differs across background conventions"
            );
        }
    }

    #[test]
    fn white_object_on_white_background_falls_back() {
        // The Paper-class failure mode: thresholding erases the object.
        let img = object_on([255, 255, 255], [252, 252, 250]);
        let p = preprocess(&img, Background::White);
        assert!(!p.contour_ok);
        assert_eq!(p.rect, Rect::new(0, 0, 64, 64));
        assert_eq!(p.hist, rgb_histogram(&img));
    }

    #[test]
    fn empty_black_image_falls_back() {
        let img = RgbImage::new(32, 32);
        let p = preprocess(&img, Background::Black);
        assert!(!p.contour_ok);
        assert!(p.hu.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn histogram_reflects_crop_not_full_image() {
        let img = object_on([255, 255, 255], [200, 30, 30]);
        let p = preprocess(&img, Background::White);
        // The crop is pure object: the red bin dominates channel 0's top.
        let r_hist = &p.hist.as_slice()[..HIST_BINS];
        let red_bin = (200 * HIST_BINS) / 256;
        assert!(r_hist[red_bin] > 0.9, "red bin mass {}", r_hist[red_bin]);
    }

    #[test]
    fn mask_matches_crop_dimensions() {
        let img = object_on([255, 255, 255], [10, 120, 220]);
        let p = preprocess(&img, Background::White);
        let crop = img.crop(p.rect).unwrap();
        assert_eq!(p.hist, rgb_histogram(&crop));
        let mask = binarise(&img, Background::White).crop(p.rect).unwrap();
        assert_eq!(mask.dimensions(), crop.dimensions());
        assert!(mask.as_raw().contains(&255));
    }
}
