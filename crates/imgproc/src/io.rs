// taor-lint: allow(panic::index) — dense numeric kernel: indices are derived from dimensions validated at the public boundary and bounded by the enclosing loops.
//! Minimal image I/O: binary PPM (P6).
//!
//! Keeps the reproduction dependency-free while letting users export the
//! synthetic datasets and inspect intermediate pipeline stages with any
//! standard image viewer.

use crate::error::{ImgError, Result};
use crate::image::RgbImage;
use std::io::{Read, Write};
use std::path::Path;

/// Write an RGB image as binary PPM (P6).
pub fn write_ppm(path: &Path, img: &RgbImage) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    write!(f, "P6\n{} {}\n255\n", img.width(), img.height())?;
    f.write_all(img.as_raw())
}

/// Parse the PPM header: magic, width, height, maxval. Supports `#`
/// comments and arbitrary whitespace, per the Netpbm spec. Returns the
/// dimensions and the offset of the pixel data.
fn parse_header(data: &[u8]) -> Result<(u32, u32, usize)> {
    if !data.starts_with(b"P6") {
        return Err(ImgError::InvalidParameter {
            name: "pnm",
            msg: "bad magic, expected P6".into(),
        });
    }
    let mut pos = 2usize;
    let mut fields = [0u32; 3];
    for field in &mut fields {
        // Skip whitespace and comments.
        loop {
            while pos < data.len() && data[pos].is_ascii_whitespace() {
                pos += 1;
            }
            if pos < data.len() && data[pos] == b'#' {
                while pos < data.len() && data[pos] != b'\n' {
                    pos += 1;
                }
            } else {
                break;
            }
        }
        let start = pos;
        while pos < data.len() && data[pos].is_ascii_digit() {
            pos += 1;
        }
        if start == pos {
            return Err(ImgError::InvalidParameter { name: "pnm", msg: "truncated header".into() });
        }
        // taor-lint: allow(panic::expect) — invariant expect: the message states why this cannot fail on valid state
        *field = std::str::from_utf8(&data[start..pos]).expect("digits are utf8").parse().map_err(
            |_| ImgError::InvalidParameter {
                name: "pnm",
                msg: "numeric overflow in header".into(),
            },
        )?;
    }
    if fields[2] != 255 {
        return Err(ImgError::InvalidParameter {
            name: "pnm",
            msg: format!("only maxval 255 is supported, got {}", fields[2]),
        });
    }
    // Exactly one whitespace byte separates header from pixel data.
    if pos >= data.len() {
        return Err(ImgError::InvalidParameter {
            name: "pnm",
            msg: "no separator byte after maxval".into(),
        });
    }
    Ok((fields[0], fields[1], pos + 1))
}

/// Read a binary PPM (P6) file.
pub fn read_ppm(path: &Path) -> Result<RgbImage> {
    let mut data = Vec::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_end(&mut data))
        .map_err(|e| ImgError::InvalidParameter { name: "path", msg: e.to_string() })?;
    let (w, h, offset) = parse_header(&data)?;
    let need = (w as usize).checked_mul(h as usize).and_then(|n| n.checked_mul(3));
    let (Some(need), Some(end)) = (need, need.and_then(|n| offset.checked_add(n))) else {
        return Err(ImgError::InvalidParameter {
            name: "pnm",
            msg: format!("{w}x{h} pixel data overflows the address space"),
        });
    };
    if data.len() < end {
        return Err(ImgError::InvalidParameter {
            name: "pnm",
            msg: format!("pixel data truncated: have {}, need {need}", data.len() - offset),
        });
    }
    RgbImage::from_vec(w, h, data[offset..end].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("taor_io_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn ppm_roundtrip() {
        let mut img = RgbImage::new(7, 5);
        for (i, v) in img.as_raw_mut().iter_mut().enumerate() {
            *v = (i % 251) as u8;
        }
        let path = tmp("rt.ppm");
        write_ppm(&path, &img).unwrap();
        let back = read_ppm(&path).unwrap();
        assert_eq!(back, img);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_with_comments_parses() {
        let path = tmp("comment.ppm");
        let mut bytes = b"P6\n# a comment\n2 2\n# another\n255\n".to_vec();
        bytes.extend(1..=12u8);
        std::fs::write(&path, bytes).unwrap();
        let img = read_ppm(&path).unwrap();
        assert_eq!(img.dimensions(), (2, 2));
        assert_eq!(img.as_raw(), &(1..=12u8).collect::<Vec<_>>()[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("bad.ppm");
        std::fs::write(&path, b"P5\n2 2\n255\n\x00\x00\x00\x00").unwrap();
        assert!(read_ppm(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_data_rejected() {
        let path = tmp("trunc.ppm");
        std::fs::write(&path, b"P6\n4 4\n255\nshort").unwrap();
        assert!(read_ppm(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_error_not_panic() {
        assert!(read_ppm(Path::new("/nonexistent/taor.ppm")).is_err());
    }

    #[test]
    fn unsupported_maxval_rejected() {
        let path = tmp("max.ppm");
        std::fs::write(&path, b"P6\n1 1\n65535\n\x00\x00\x00\x00\x00\x00").unwrap();
        assert!(read_ppm(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_ending_at_eof_rejected() {
        let path = tmp("eof.ppm");
        std::fs::write(&path, b"P6\n1 1\n255").unwrap();
        let err = read_ppm(&path).unwrap_err();
        assert!(matches!(err, ImgError::InvalidParameter { name: "pnm", .. }), "{err:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overflowing_dimensions_rejected() {
        let path = tmp("huge.ppm");
        std::fs::write(&path, b"P6\n4294967295 4294967295\n255\n\x00\x00\x00").unwrap();
        let err = read_ppm(&path).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
        std::fs::remove_file(&path).ok();
    }
}
