// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Image containers.
//!
//! [`ImageBuf`] is a dense, row-major, interleaved-channel image with a
//! compile-time channel count. The three aliases used throughout the
//! workspace are [`GrayImage`] (`u8`, 1 channel), [`RgbImage`] (`u8`, 3
//! channels) and [`GrayF32`] (`f32`, 1 channel, used by the scale-space
//! code in `taor-features`).

use crate::error::{ImgError, Result};

/// Maximum supported image side, to keep `width * height * C` comfortably
/// inside `usize` and catch corrupted dimensions early.
pub const MAX_DIM: u32 = 1 << 16;

/// An axis-aligned rectangle (`x`, `y` is the top-left corner, inclusive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rect {
    pub x: u32,
    pub y: u32,
    pub width: u32,
    pub height: u32,
}

impl Rect {
    /// Construct a rectangle.
    pub fn new(x: u32, y: u32, width: u32, height: u32) -> Self {
        Rect { x, y, width, height }
    }

    /// Area in pixels.
    pub fn area(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Whether `(px, py)` lies inside the rectangle.
    pub fn contains(&self, px: u32, py: u32) -> bool {
        px >= self.x && py >= self.y && px < self.x + self.width && py < self.y + self.height
    }

    /// Intersection with another rectangle, or `None` when disjoint.
    pub fn intersect(&self, other: &Rect) -> Option<Rect> {
        let x0 = self.x.max(other.x);
        let y0 = self.y.max(other.y);
        let x1 = (self.x + self.width).min(other.x + other.width);
        let y1 = (self.y + self.height).min(other.y + other.height);
        if x1 > x0 && y1 > y0 {
            Some(Rect::new(x0, y0, x1 - x0, y1 - y0))
        } else {
            None
        }
    }
}

/// A dense, row-major image with `C` interleaved channels of type `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageBuf<T, const C: usize> {
    width: u32,
    height: u32,
    data: Vec<T>,
}

/// Single-channel 8-bit image.
pub type GrayImage = ImageBuf<u8, 1>;
/// Interleaved 8-bit RGB image.
pub type RgbImage = ImageBuf<u8, 3>;
/// Single-channel `f32` image (scale-space / filtering workhorse).
pub type GrayF32 = ImageBuf<f32, 1>;

impl<T: Copy + Default, const C: usize> ImageBuf<T, C> {
    /// Create a `width` x `height` image filled with `T::default()`.
    ///
    /// # Panics
    /// Panics if either dimension is zero or exceeds [`MAX_DIM`]; use
    /// [`ImageBuf::try_new`] for a fallible variant.
    pub fn new(width: u32, height: u32) -> Self {
        Self::try_new(width, height).expect("invalid image dimensions") // taor-lint: allow(panic::expect) — invariant expect: the message states why this cannot fail on valid state
    }

    /// Fallible constructor.
    pub fn try_new(width: u32, height: u32) -> Result<Self> {
        if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
            return Err(ImgError::InvalidDimensions { width, height });
        }
        Ok(ImageBuf {
            width,
            height,
            data: vec![T::default(); width as usize * height as usize * C],
        })
    }

    /// Create an image filled with one value per channel.
    pub fn filled(width: u32, height: u32, value: [T; C]) -> Self {
        let mut img = Self::new(width, height);
        for px in img.data.chunks_exact_mut(C) {
            px.copy_from_slice(&value);
        }
        img
    }

    /// Wrap an existing buffer; `data.len()` must equal `width*height*C`.
    pub fn from_vec(width: u32, height: u32, data: Vec<T>) -> Result<Self> {
        if width == 0 || height == 0 || width > MAX_DIM || height > MAX_DIM {
            return Err(ImgError::InvalidDimensions { width, height });
        }
        let expected = width as usize * height as usize * C;
        if data.len() != expected {
            return Err(ImgError::InvalidRect {
                msg: format!("buffer length {} != {}x{}x{C}", data.len(), width, height),
            });
        }
        Ok(ImageBuf { width, height, data })
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dimensions(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Flat index of pixel `(x, y)` channel 0.
    #[inline]
    fn idx(&self, x: u32, y: u32) -> usize {
        (y as usize * self.width as usize + x as usize) * C
    }

    /// Whether `(x, y)` lies inside the image.
    #[inline]
    pub fn in_bounds(&self, x: i64, y: i64) -> bool {
        x >= 0 && y >= 0 && (x as u32) < self.width && (y as u32) < self.height
    }

    /// Read the pixel at `(x, y)`.
    ///
    /// # Panics
    /// Panics when out of bounds (debug-friendly; hot loops read whole
    /// rows through [`ImageBuf::row`] or [`ImageBuf::as_raw`] on validated
    /// coordinates).
    #[inline]
    pub fn pixel(&self, x: u32, y: u32) -> [T; C] {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds for {}x{}",
            self.width,
            self.height
        );
        let i = self.idx(x, y);
        let mut out = [self.data[i]; C];
        out[..C].copy_from_slice(&self.data[i..i + C]);
        out
    }

    /// Write the pixel at `(x, y)`.
    #[inline]
    pub fn put_pixel(&mut self, x: u32, y: u32, value: [T; C]) {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) out of bounds for {}x{}",
            self.width,
            self.height
        );
        let i = self.idx(x, y);
        self.data[i..i + C].copy_from_slice(&value);
    }

    /// Pixel read clamped to the image border (replicate padding).
    #[inline]
    pub fn pixel_clamped(&self, x: i64, y: i64) -> [T; C] {
        let cx = x.clamp(0, self.width as i64 - 1) as u32;
        let cy = y.clamp(0, self.height as i64 - 1) as u32;
        self.pixel(cx, cy)
    }

    /// Raw interleaved buffer.
    #[inline]
    pub fn as_raw(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw interleaved buffer.
    #[inline]
    pub fn as_raw_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// One image row as an interleaved slice.
    #[inline]
    pub fn row(&self, y: u32) -> &[T] {
        let start = y as usize * self.width as usize * C;
        &self.data[start..start + self.width as usize * C]
    }

    /// Iterate `(x, y, pixel)` over the whole image in row-major order.
    pub fn enumerate_pixels(&self) -> impl Iterator<Item = (u32, u32, [T; C])> + '_ {
        let w = self.width;
        self.data.chunks_exact(C).enumerate().map(move |(i, px)| {
            let mut v = [px[0]; C];
            v.copy_from_slice(px);
            ((i as u32) % w, (i as u32) / w, v)
        })
    }

    /// Copy out the sub-image delimited by `rect`.
    pub fn crop(&self, rect: Rect) -> Result<Self> {
        if rect.width == 0 || rect.height == 0 {
            return Err(ImgError::InvalidRect { msg: "zero-sized crop".into() });
        }
        if rect.x + rect.width > self.width || rect.y + rect.height > self.height {
            return Err(ImgError::InvalidRect {
                msg: format!("crop {:?} exceeds image {}x{}", rect, self.width, self.height),
            });
        }
        let mut out = Self::new(rect.width, rect.height);
        for dy in 0..rect.height {
            let src = self.idx(rect.x, rect.y + dy);
            let len = rect.width as usize * C;
            let dst = out.idx(0, dy);
            out.data[dst..dst + len].copy_from_slice(&self.data[src..src + len]);
        }
        Ok(out)
    }

    /// Apply `f` to every channel value, producing a same-shaped image.
    pub fn map<U: Copy + Default>(&self, f: impl Fn(T) -> U) -> ImageBuf<U, C> {
        ImageBuf {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }
}

impl GrayImage {
    /// Scalar read for single-channel images.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> u8 {
        self.pixel(x, y)[0]
    }

    /// Scalar write for single-channel images.
    #[inline]
    pub fn put(&mut self, x: u32, y: u32, v: u8) {
        self.put_pixel(x, y, [v]);
    }

    /// Scalar read with replicate border handling.
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> u8 {
        self.pixel_clamped(x, y)[0]
    }

    /// Convert to `f32` values in `[0, 255]`.
    pub fn to_f32(&self) -> GrayF32 {
        self.map(|v| v as f32)
    }
}

impl GrayF32 {
    /// Scalar read for single-channel images.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> f32 {
        self.pixel(x, y)[0]
    }

    /// Scalar write for single-channel images.
    #[inline]
    pub fn put(&mut self, x: u32, y: u32, v: f32) {
        self.put_pixel(x, y, [v]);
    }

    /// Scalar read with replicate border handling.
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> f32 {
        self.pixel_clamped(x, y)[0]
    }

    /// Quantise back to `u8` with clamping.
    pub fn to_u8(&self) -> GrayImage {
        self.map(|v| v.round().clamp(0.0, 255.0) as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_image_is_zeroed() {
        let img = GrayImage::new(4, 3);
        assert_eq!(img.dimensions(), (4, 3));
        assert!(img.as_raw().iter().all(|&v| v == 0));
    }

    #[test]
    fn try_new_rejects_zero_dims() {
        assert!(GrayImage::try_new(0, 5).is_err());
        assert!(GrayImage::try_new(5, 0).is_err());
        assert!(RgbImage::try_new(MAX_DIM + 1, 1).is_err());
    }

    #[test]
    fn put_and_get_roundtrip() {
        let mut img = RgbImage::new(5, 5);
        img.put_pixel(2, 3, [10, 20, 30]);
        assert_eq!(img.pixel(2, 3), [10, 20, 30]);
        assert_eq!(img.pixel(0, 0), [0, 0, 0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(GrayImage::from_vec(2, 2, vec![0; 4]).is_ok());
        assert!(GrayImage::from_vec(2, 2, vec![0; 5]).is_err());
        assert!(RgbImage::from_vec(2, 2, vec![0; 12]).is_ok());
        assert!(RgbImage::from_vec(2, 2, vec![0; 4]).is_err());
    }

    #[test]
    fn clamped_access_replicates_border() {
        let mut img = GrayImage::new(3, 3);
        img.put(0, 0, 7);
        img.put(2, 2, 9);
        assert_eq!(img.get_clamped(-5, -5), 7);
        assert_eq!(img.get_clamped(10, 10), 9);
    }

    #[test]
    fn crop_extracts_expected_region() {
        let mut img = GrayImage::new(6, 6);
        for y in 0..6 {
            for x in 0..6 {
                img.put(x, y, (y * 6 + x) as u8);
            }
        }
        let c = img.crop(Rect::new(1, 2, 3, 2)).unwrap();
        assert_eq!(c.dimensions(), (3, 2));
        assert_eq!(c.get(0, 0), 13);
        assert_eq!(c.get(2, 1), 21);
    }

    #[test]
    fn crop_rejects_out_of_bounds() {
        let img = GrayImage::new(4, 4);
        assert!(img.crop(Rect::new(2, 2, 3, 1)).is_err());
        assert!(img.crop(Rect::new(0, 0, 0, 1)).is_err());
    }

    #[test]
    fn rect_intersection() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(2, 2, 4, 4);
        assert_eq!(a.intersect(&b), Some(Rect::new(2, 2, 2, 2)));
        let c = Rect::new(10, 10, 2, 2);
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn enumerate_pixels_row_major() {
        let mut img = GrayImage::new(2, 2);
        img.put(1, 0, 5);
        let coords: Vec<_> = img.enumerate_pixels().collect();
        assert_eq!(coords[0], (0, 0, [0]));
        assert_eq!(coords[1], (1, 0, [5]));
        assert_eq!(coords[2], (0, 1, [0]));
    }

    #[test]
    fn map_converts_types() {
        let mut img = GrayImage::new(2, 1);
        img.put(0, 0, 100);
        let f = img.to_f32();
        assert_eq!(f.get(0, 0), 100.0);
        let back = f.to_u8();
        assert_eq!(back.get(0, 0), 100);
    }

    #[test]
    fn filled_sets_every_pixel() {
        let img = RgbImage::filled(3, 2, [1, 2, 3]);
        for (_, _, px) in img.enumerate_pixels() {
            assert_eq!(px, [1, 2, 3]);
        }
    }
}
