//! # taor-imgproc
//!
//! Image-processing substrate for the task-agnostic object-recognition
//! pipelines of Chiatti et al. (EDBT/ICDT 2019 workshops).
//!
//! The paper's pipelines were built on OpenCV. This crate re-implements,
//! from the primary sources, exactly the parts those pipelines consume:
//!
//! * image containers and colour conversion ([`image`], [`color`]),
//! * global binary thresholding of the BT.601 luma, straight from RGB
//!   ([`threshold`]),
//! * Suzuki–Abe border following and contour geometry ([`contour`]),
//! * raw/central/normalised image moments and the seven Hu invariants,
//!   plus the three `matchShapes` distances ([`moments`]),
//! * per-channel RGB histograms with the four OpenCV comparison metrics
//!   ([`histogram`]),
//! * bilinear resizing and separable Gaussian smoothing ([`resize`],
//!   [`filter`]),
//! * integral images ([`integral`]) for the SURF substrate, and
//! * simple rasterisation ([`draw`]) for the synthetic dataset renderer.
//!
//! All algorithms are deterministic and pure-CPU; none allocate global
//! state.
//!
//! ## Quick example
//!
//! ```
//! use taor_imgproc::prelude::*;
//!
//! // An 8x8 white square on black background.
//! let mut img = RgbImage::new(16, 16);
//! for y in 4..12 {
//!     for x in 4..12 {
//!         img.put_pixel(x, y, [255, 255, 255]);
//!     }
//! }
//! let bin = threshold_luma(&img, 128);
//! let contours = find_contours(&bin);
//! assert_eq!(contours.len(), 1);
//! let hu = hu_moments(&moments_of_contour(&contours[0]));
//! assert!(hu[0] > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod cmp;
pub mod color;
pub mod contour;
pub mod draw;
pub mod error;
pub mod filter;
pub mod histogram;
pub mod image;
pub mod integral;
pub mod io;
pub mod label;
pub mod moments;
pub mod morphology;
pub mod resize;
pub mod threshold;

/// Convenient glob-import of the most common types and functions.
pub mod prelude {
    pub use crate::cmp::{
        nan_first_f32, nan_first_f64, nan_last_desc_f32, nan_last_desc_f64, nan_last_f32,
        nan_last_f64,
    };
    pub use crate::color::{rgb_to_gray, Hsv};
    pub use crate::contour::{find_contours, largest_contour, Contour};
    pub use crate::draw::Canvas;
    pub use crate::error::{ImgError, Result};
    pub use crate::filter::gaussian_blur;
    pub use crate::histogram::{compare_hist, rgb_histogram, HistCompare, RgbHistogram, HIST_BINS};
    pub use crate::image::{GrayF32, GrayImage, ImageBuf, Rect, RgbImage};
    pub use crate::integral::IntegralImage;
    pub use crate::io::{read_ppm, write_ppm};
    pub use crate::label::{label_components, Component, Labels};
    pub use crate::moments::{
        hu_moments, match_shapes, moments, moments_of_contour, HuMoments, LogHu, MatchShapesMode,
        Moments,
    };
    pub use crate::morphology::{close, dilate, erode, open};
    pub use crate::resize::resize_bilinear_rgb;
    pub use crate::threshold::{threshold_luma, threshold_luma_inv};
}

pub use prelude::*;
