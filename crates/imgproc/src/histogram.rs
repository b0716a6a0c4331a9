// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! RGB histograms and the four OpenCV comparison metrics.
//!
//! The colour-only pipeline compares "the RGB histograms of the input image
//! pairs" with "Correlation, Chi-square, Intersection and Hellinger
//! distance" — OpenCV's `compareHist` methods, reproduced from the
//! documented formulas. Correlation and Intersection are similarities
//! (higher = more alike); Chi-square and Hellinger are distances.

use crate::image::RgbImage;

/// Bins per channel of every histogram in the reproduction.
pub const HIST_BINS: usize = 32;

/// Per-channel histogram of an RGB image: three channels × [`HIST_BINS`]
/// bins, stored flat (channel-major) as *normalised* frequencies, with
/// their sum, the per-histogram half of Correlation and Hellinger.
#[derive(Debug, Clone, PartialEq)]
pub struct RgbHistogram {
    data: [f64; 3 * HIST_BINS],
    sum: f64,
}

/// Histogram comparison method (OpenCV `HISTCMP_*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HistCompare {
    /// Pearson correlation; 1 = identical, −1 = anti-correlated. Similarity.
    Correlation,
    /// `Σ (a−b)²/a` over bins with `a > 0`. Distance.
    ChiSquare,
    /// `Σ min(a, b)`. Similarity.
    Intersection,
    /// Hellinger / Bhattacharyya distance in `[0, 1]`. Distance.
    Hellinger,
}

impl HistCompare {
    /// All four methods, in the order the paper lists them.
    pub const ALL: [HistCompare; 4] = [
        HistCompare::Correlation,
        HistCompare::ChiSquare,
        HistCompare::Intersection,
        HistCompare::Hellinger,
    ];

    /// Whether higher scores mean "more similar". Correlation and
    /// Intersection trend opposite to the two distances — the hybrid
    /// pipeline needs this to orient its weighted sum (the paper takes "the
    /// inverse of C ... for the Correlation and Intersection metrics").
    pub fn higher_is_more_similar(&self) -> bool {
        matches!(self, HistCompare::Correlation | HistCompare::Intersection)
    }

    /// Human-readable name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            HistCompare::Correlation => "Correlation",
            HistCompare::ChiSquare => "Chi-square",
            HistCompare::Intersection => "Intersection",
            HistCompare::Hellinger => "Hellinger",
        }
    }
}

impl RgbHistogram {
    /// Flat normalised bin frequencies (length `3 * HIST_BINS`).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

/// Compute the normalised per-channel RGB histogram of `img`.
pub fn rgb_histogram(img: &RgbImage) -> RgbHistogram {
    // Each channel value's bin, from the float formula, once per value
    // instead of once per sample. Counting in integers and dividing once
    // gives the same bits as summing `1.0`s: every count is exact in f64.
    let scale = HIST_BINS as f64 / 256.0;
    let bin_of: [usize; 256] =
        std::array::from_fn(|v| ((v as f64 * scale) as usize).min(HIST_BINS - 1));
    let mut counts = [0u64; 3 * HIST_BINS];
    for px in img.as_raw().chunks_exact(3) {
        counts[bin_of[usize::from(px[0])]] += 1;
        counts[HIST_BINS + bin_of[usize::from(px[1])]] += 1;
        counts[2 * HIST_BINS + bin_of[usize::from(px[2])]] += 1;
    }
    let total = (img.width() as f64) * (img.height() as f64);
    let data = counts.map(|n| n as f64 / total);
    RgbHistogram { data, sum: data.iter().sum() }
}

/// Compare two histograms with the given method.
///
/// ```
/// use taor_imgproc::prelude::*;
///
/// let red = rgb_histogram(&RgbImage::filled(8, 8, [220, 20, 20]));
/// let blue = rgb_histogram(&RgbImage::filled(8, 8, [20, 20, 220]));
/// let d_self = compare_hist(&red, &red, HistCompare::Hellinger);
/// let d_cross = compare_hist(&red, &blue, HistCompare::Hellinger);
/// assert!(d_self < 1e-6 && d_cross > 0.5);
/// ```
pub fn compare_hist(a: &RgbHistogram, b: &RgbHistogram, method: HistCompare) -> f64 {
    let ha = &a.data;
    let hb = &b.data;
    let n = ha.len() as f64;
    match method {
        HistCompare::Correlation => {
            let mean_a = a.sum / n;
            let mean_b = b.sum / n;
            let mut num = 0.0;
            let mut da = 0.0;
            let mut db = 0.0;
            for (&x, &y) in ha.iter().zip(hb) {
                num += (x - mean_a) * (y - mean_b);
                da += (x - mean_a).powi(2);
                db += (y - mean_b).powi(2);
            }
            let denom = (da * db).sqrt();
            if denom < f64::MIN_POSITIVE {
                1.0 // both flat: identical up to scale
            } else {
                num / denom
            }
        }
        HistCompare::ChiSquare => {
            ha.iter().zip(hb).filter(|(&x, _)| x > 0.0).map(|(&x, &y)| (x - y).powi(2) / x).sum()
        }
        HistCompare::Intersection => ha.iter().zip(hb).map(|(&x, &y)| x.min(y)).sum(),
        HistCompare::Hellinger => {
            // OpenCV HISTCMP_BHATTACHARYYA:
            // sqrt(1 - (1/sqrt(meanA*meanB*N^2)) * Σ sqrt(a_i b_i))
            let bc: f64 = ha.iter().zip(hb).map(|(&x, &y)| (x * y).sqrt()).sum();
            let v = 1.0 - bc / (a.sum * b.sum).sqrt();
            v.max(0.0).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solid(rgb: [u8; 3]) -> RgbHistogram {
        rgb_histogram(&RgbImage::filled(8, 8, rgb))
    }

    #[test]
    fn histogram_sums_to_one_per_channel() {
        let mut img = RgbImage::new(4, 4);
        for (i, px) in img.as_raw_mut().chunks_exact_mut(3).enumerate() {
            px[0] = (i * 16) as u8;
            px[1] = 255 - (i * 16) as u8;
            px[2] = 7;
        }
        let h = rgb_histogram(&img);
        for c in 0..3 {
            let s: f64 = h.as_slice()[c * HIST_BINS..(c + 1) * HIST_BINS].iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "channel {c} sums to {s}");
        }
    }

    #[test]
    fn self_comparison_identities() {
        let h = solid([120, 30, 200]);
        assert!((compare_hist(&h, &h, HistCompare::Correlation) - 1.0).abs() < 1e-12);
        assert_eq!(compare_hist(&h, &h, HistCompare::ChiSquare), 0.0);
        // Intersection of identical normalised histograms = total mass = 3.
        assert!((compare_hist(&h, &h, HistCompare::Intersection) - 3.0).abs() < 1e-12);
        assert!(compare_hist(&h, &h, HistCompare::Hellinger) < 1e-7);
    }

    #[test]
    fn disjoint_histograms_are_maximally_distant() {
        let a = solid([0, 0, 0]);
        let b = solid([255, 255, 255]);
        assert_eq!(compare_hist(&a, &b, HistCompare::Intersection), 0.0);
        assert!((compare_hist(&a, &b, HistCompare::Hellinger) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hellinger_is_symmetric_and_bounded() {
        let a = solid([10, 200, 45]);
        let b = solid([200, 10, 99]);
        let d1 = compare_hist(&a, &b, HistCompare::Hellinger);
        let d2 = compare_hist(&b, &a, HistCompare::Hellinger);
        assert!((d1 - d2).abs() < 1e-12);
        assert!((0.0..=1.0).contains(&d1));
    }

    #[test]
    fn chi_square_is_asymmetric_by_formula() {
        // a has mass in a bin where b has none -> that bin contributes to
        // d(a,b) but is skipped in d(b,a).
        let a = solid([10, 10, 10]);
        let mut img = RgbImage::filled(8, 8, [10, 10, 10]);
        img.put_pixel(0, 0, [250, 250, 250]);
        let b = rgb_histogram(&img);
        let dab = compare_hist(&b, &a, HistCompare::ChiSquare);
        let dba = compare_hist(&a, &b, HistCompare::ChiSquare);
        assert!(dab > dba);
    }

    #[test]
    fn similar_colors_score_better_than_dissimilar() {
        // With 32 bins each channel quantises to v/8: the near pair shares
        // the R and G bins, the far pair only the G bin.
        let red = solid([230, 20, 20]);
        let dark_red = solid([225, 18, 60]);
        let blue = solid([20, 20, 230]);
        let near = compare_hist(&red, &dark_red, HistCompare::Hellinger);
        let far = compare_hist(&red, &blue, HistCompare::Hellinger);
        assert!(near < far);
    }

    #[test]
    fn direction_flags() {
        assert!(HistCompare::Correlation.higher_is_more_similar());
        assert!(HistCompare::Intersection.higher_is_more_similar());
        assert!(!HistCompare::ChiSquare.higher_is_more_similar());
        assert!(!HistCompare::Hellinger.higher_is_more_similar());
    }
}
