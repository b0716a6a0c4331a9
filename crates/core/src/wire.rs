//! The TAOR crop wire format — the byte boundary of the recognition
//! service.
//!
//! A robot client ships a segmented crop to the server as one small
//! binary message; everything a hostile or broken client can put on the
//! wire must decode into either a valid [`RgbImage`] or a typed
//! [`WireError`] — never a panic, never an unbounded allocation. The
//! format is deliberately trivial:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"TAOR"
//! 4       1     version (currently 1)
//! 5       1     pixel format: 0 = RGB8, 1 = RGBF32 (f32 LE in [0, 1])
//! 6       4     width  (u32 LE, 1..=MAX_WIRE_DIM)
//! 10      4     height (u32 LE, 1..=MAX_WIRE_DIM)
//! 14      …     payload: exactly width*height*3 samples
//! ```
//!
//! The `RGBF32` variant exists because upstream vision stacks hand
//! around float buffers, and float buffers carry NaNs. The decoder
//! quarantines them — a non-finite sample decodes as 0 and is counted
//! in [`DecodeStats::nan_pixels`] — so one poisoned pixel degrades one
//! channel of one pixel, not the whole request.

use crate::error::{Error, Result};
use std::fmt;
use taor_imgproc::image::RgbImage;

/// Magic prefix of every wire crop.
pub const WIRE_MAGIC: [u8; 4] = *b"TAOR";
/// Current (and only) wire format version.
pub const WIRE_VERSION: u8 = 1;
/// Header length in bytes.
pub const WIRE_HEADER_LEN: usize = 14;
/// Maximum accepted crop side. Far above anything a segmenter emits,
/// far below anything that could make `w*h*3*4` allocations hurt.
pub const MAX_WIRE_DIM: u32 = 4096;

/// Pixel encodings a wire crop may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PixelFormat {
    /// One byte per sample, interleaved RGB.
    Rgb8,
    /// One little-endian `f32` per sample in `[0, 1]`, interleaved RGB.
    RgbF32,
}

impl PixelFormat {
    /// Wire tag byte.
    pub fn tag(self) -> u8 {
        match self {
            PixelFormat::Rgb8 => 0,
            PixelFormat::RgbF32 => 1,
        }
    }

    /// Bytes per sample (one channel of one pixel).
    pub fn sample_bytes(self) -> usize {
        match self {
            PixelFormat::Rgb8 => 1,
            PixelFormat::RgbF32 => 4,
        }
    }
}

/// Typed decode failures: everything a malformed, truncated or hostile
/// buffer can be, distinguished so the service can map each to the
/// right HTTP status and the fault harness can assert exact outcomes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed header.
    TruncatedHeader { got: usize },
    /// The first four bytes are not `b"TAOR"`.
    BadMagic([u8; 4]),
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown pixel-format tag.
    BadFormat(u8),
    /// Width or height is zero.
    ZeroDimension { width: u32, height: u32 },
    /// Width or height exceeds [`MAX_WIRE_DIM`].
    Oversized { width: u32, height: u32, max: u32 },
    /// Payload is shorter than the header promises.
    TruncatedPayload { expected: usize, got: usize },
    /// Payload is longer than the header promises.
    TrailingBytes { expected: usize, got: usize },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TruncatedHeader { got } => {
                write!(f, "wire crop truncated: {got} bytes, header needs {WIRE_HEADER_LEN}")
            }
            WireError::BadMagic(m) => write!(f, "wire crop has bad magic {m:?}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadFormat(t) => write!(f, "unknown pixel-format tag {t}"),
            WireError::ZeroDimension { width, height } => {
                write!(f, "wire crop has zero dimension: {width}x{height}")
            }
            WireError::Oversized { width, height, max } => {
                write!(f, "wire crop {width}x{height} exceeds the {max}x{max} limit")
            }
            WireError::TruncatedPayload { expected, got } => {
                write!(f, "wire payload truncated: expected {expected} bytes, got {got}")
            }
            WireError::TrailingBytes { expected, got } => {
                write!(f, "wire payload has trailing bytes: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// What the decoder had to quarantine while accepting a crop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct DecodeStats {
    /// Non-finite `f32` samples replaced by 0.
    pub nan_pixels: u64,
}

/// Encode an [`RgbImage`] as an RGB8 wire crop.
pub fn encode_rgb8(img: &RgbImage) -> Vec<u8> {
    let (w, h) = img.dimensions();
    let mut out = Vec::with_capacity(WIRE_HEADER_LEN + img.as_raw().len());
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.push(PixelFormat::Rgb8.tag());
    out.extend_from_slice(&w.to_le_bytes());
    out.extend_from_slice(&h.to_le_bytes());
    out.extend_from_slice(img.as_raw());
    out
}

/// Encode raw `f32` samples (interleaved RGB, `[0, 1]`, length
/// `width*height*3`) as an RGBF32 wire crop. The samples are written
/// verbatim — including NaNs — which is exactly what the fault corpus
/// needs.
// taor-lint: allow(dead::unreached-pub) — the encoder half of the RGBF32 format that `decode_crop` accepts on every request; only tests and the fault corpus send RGBF32, but moving it would put the header layout in two crates
pub fn encode_f32(width: u32, height: u32, samples: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(WIRE_HEADER_LEN + samples.len() * 4);
    out.extend_from_slice(&WIRE_MAGIC);
    out.push(WIRE_VERSION);
    out.push(PixelFormat::RgbF32.tag());
    out.extend_from_slice(&width.to_le_bytes());
    out.extend_from_slice(&height.to_le_bytes());
    for s in samples {
        out.extend_from_slice(&s.to_le_bytes());
    }
    out
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]); // taor-lint: allow(panic::index) — caller validated bytes.len() >= WIRE_HEADER_LEN before any le_u32 read
    u32::from_le_bytes(b)
}

/// Decode a wire crop. Every malformed input is a typed
/// [`Error::Wire`]; a well-formed RGBF32 crop with non-finite samples
/// decodes successfully with the poison quarantined and counted.
pub fn decode_crop(bytes: &[u8]) -> Result<(RgbImage, DecodeStats)> {
    if bytes.len() < WIRE_HEADER_LEN {
        return Err(Error::Wire(WireError::TruncatedHeader { got: bytes.len() }));
    }
    let magic: [u8; 4] = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if magic != WIRE_MAGIC {
        return Err(Error::Wire(WireError::BadMagic(magic)));
    }
    if bytes[4] != WIRE_VERSION {
        return Err(Error::Wire(WireError::BadVersion(bytes[4])));
    }
    let format = match bytes[5] {
        0 => PixelFormat::Rgb8,
        1 => PixelFormat::RgbF32,
        t => return Err(Error::Wire(WireError::BadFormat(t))),
    };
    let width = le_u32(bytes, 6);
    let height = le_u32(bytes, 10);
    if width == 0 || height == 0 {
        return Err(Error::Wire(WireError::ZeroDimension { width, height }));
    }
    if width > MAX_WIRE_DIM || height > MAX_WIRE_DIM {
        return Err(Error::Wire(WireError::Oversized { width, height, max: MAX_WIRE_DIM }));
    }
    let samples = width as usize * height as usize * 3;
    let expected = samples * format.sample_bytes();
    let payload = bytes.get(WIRE_HEADER_LEN..).unwrap_or(&[]);
    if payload.len() < expected {
        return Err(Error::Wire(WireError::TruncatedPayload { expected, got: payload.len() }));
    }
    if payload.len() > expected {
        return Err(Error::Wire(WireError::TrailingBytes { expected, got: payload.len() }));
    }

    let mut stats = DecodeStats::default();
    let data: Vec<u8> = match format {
        PixelFormat::Rgb8 => payload.to_vec(),
        PixelFormat::RgbF32 => {
            let mut data = Vec::with_capacity(samples);
            for chunk in payload.chunks_exact(4) {
                let mut b = [0u8; 4];
                b.copy_from_slice(chunk);
                let v = f32::from_le_bytes(b);
                if v.is_finite() {
                    data.push((v.clamp(0.0, 1.0) * 255.0).round() as u8);
                } else {
                    stats.nan_pixels += 1;
                    data.push(0);
                }
            }
            data
        }
    };
    let img = RgbImage::from_vec(width, height, data)?;
    Ok((img, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_image() -> RgbImage {
        let mut img = RgbImage::new(3, 2);
        for (i, (x, y)) in (0..3).flat_map(|x| (0..2).map(move |y| (x, y))).enumerate() {
            img.put_pixel(x, y, [i as u8 * 10, 255 - i as u8, 7]);
        }
        img
    }

    #[test]
    fn rgb8_roundtrip_is_lossless() {
        let img = tiny_image();
        let bytes = encode_rgb8(&img);
        let (back, stats) = decode_crop(&bytes).unwrap();
        assert_eq!(back.as_raw(), img.as_raw());
        assert_eq!(stats.nan_pixels, 0);
    }

    #[test]
    fn f32_decode_quantises_and_quarantines_nan() {
        let samples = vec![0.0, 0.5, 1.0, f32::NAN, f32::INFINITY, -3.0];
        let bytes = encode_f32(1, 2, &samples);
        let (img, stats) = decode_crop(&bytes).unwrap();
        assert_eq!(img.dimensions(), (1, 2));
        assert_eq!(img.as_raw(), &[0, 128, 255, 0, 0, 0]);
        // NaN and +inf are quarantined; -3.0 is finite and clamps to 0.
        assert_eq!(stats.nan_pixels, 2);
    }

    #[test]
    fn typed_errors_for_every_malformation() {
        let valid = encode_rgb8(&tiny_image());
        let wire_err = |bytes: &[u8]| match decode_crop(bytes) {
            Err(crate::error::Error::Wire(e)) => e,
            other => panic!("expected wire error, got {other:?}"),
        };

        assert!(matches!(wire_err(&valid[..5]), WireError::TruncatedHeader { got: 5 }));
        let mut bad = valid.clone();
        bad[0] = b'X';
        assert!(matches!(wire_err(&bad), WireError::BadMagic(_)));
        let mut bad = valid.clone();
        bad[4] = 9;
        assert!(matches!(wire_err(&bad), WireError::BadVersion(9)));
        let mut bad = valid.clone();
        bad[5] = 7;
        assert!(matches!(wire_err(&bad), WireError::BadFormat(7)));
        let mut bad = valid.clone();
        bad[6..10].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(wire_err(&bad), WireError::ZeroDimension { .. }));
        let mut bad = valid.clone();
        bad[6..10].copy_from_slice(&(MAX_WIRE_DIM + 1).to_le_bytes());
        assert!(matches!(wire_err(&bad), WireError::Oversized { .. }));
        assert!(matches!(wire_err(&valid[..valid.len() - 1]), WireError::TruncatedPayload { .. }));
        let mut bad = valid.clone();
        bad.push(0);
        assert!(matches!(wire_err(&bad), WireError::TrailingBytes { .. }));
    }

    #[test]
    fn oversized_header_does_not_allocate_payload() {
        // A 14-byte buffer claiming a 4096x4096 crop must be rejected
        // from the header alone (TruncatedPayload), instantly.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&WIRE_MAGIC);
        bytes.push(WIRE_VERSION);
        bytes.push(0);
        bytes.extend_from_slice(&4096u32.to_le_bytes());
        bytes.extend_from_slice(&4096u32.to_le_bytes());
        assert!(matches!(
            decode_crop(&bytes),
            Err(crate::error::Error::Wire(WireError::TruncatedPayload { .. }))
        ));
    }
}
