//! Minimal image export: binary PPM (P6).
//!
//! Keeps the reproduction dependency-free while letting users export the
//! synthetic datasets and inspect intermediate pipeline stages with any
//! standard image viewer.

use crate::image::RgbImage;
use std::io::Write;
use std::path::Path;

/// Write an RGB image as binary PPM (P6).
pub fn write_ppm(path: &Path, img: &RgbImage) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    write!(f, "P6\n{} {}\n255\n", img.width(), img.height())?;
    f.write_all(img.as_raw())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ppm_roundtrip() {
        let mut img = RgbImage::new(7, 5);
        for (i, v) in img.as_raw_mut().iter_mut().enumerate() {
            *v = (i % 251) as u8;
        }
        let mut path = std::env::temp_dir();
        path.push(format!("taor_io_{}_rt.ppm", std::process::id()));
        write_ppm(&path, &img).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut want = b"P6\n7 5\n255\n".to_vec();
        want.extend_from_slice(img.as_raw());
        assert_eq!(bytes, want);
    }
}
